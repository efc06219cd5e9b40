//! In-process daemon integration tests: scripted client sessions over
//! real TCP sockets, and the headline determinism contract — replaying a
//! session journal reproduces the live `report` response byte-for-byte
//! at every worker thread count.

use spacecdn_serve::server::{Daemon, ServeConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::Mutex;
use std::thread::JoinHandle;

/// Serializes tests: they share the process-wide engine thread override
/// and each runs its own daemon.
static LOCK: Mutex<()> = Mutex::new(());

struct TestDaemon {
    addr: SocketAddr,
    journal_dir: PathBuf,
    handle: JoinHandle<std::io::Result<()>>,
}

fn start_daemon(tag: &str) -> TestDaemon {
    let journal_dir =
        std::env::temp_dir().join(format!("spacecdn-daemon-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&journal_dir);
    let cfg = ServeConfig {
        listen: "127.0.0.1:0".to_string(),
        journal_dir: journal_dir.clone(),
        port_file: None,
    };
    let daemon = Daemon::bind(&cfg).expect("bind");
    let addr = daemon.local_addr().expect("local_addr");
    let handle = std::thread::spawn(move || daemon.run());
    TestDaemon {
        addr,
        journal_dir,
        handle,
    }
}

impl TestDaemon {
    fn client(&self) -> Client {
        Client::connect(self.addr)
    }

    fn journal(&self, session: &str) -> PathBuf {
        self.journal_dir.join(format!("{session}.jsonl"))
    }

    /// Ask the daemon to shut down and wait for a clean exit.
    fn shutdown(self) {
        let mut c = self.client();
        let resp = c.send("{\"op\":\"shutdown\"}");
        assert!(resp.contains("\"shutting_down\":true"), "{resp}");
        drop(c);
        self.handle.join().expect("join").expect("daemon exits Ok");
        let _ = std::fs::remove_dir_all(&self.journal_dir);
    }
}

struct Client {
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        Client {
            reader: BufReader::new(stream),
        }
    }

    /// One request line out, one response line back.
    fn send(&mut self, line: &str) -> String {
        let stream = self.reader.get_mut();
        stream
            .write_all(format!("{line}\n").as_bytes())
            .expect("write");
        let mut response = String::new();
        self.reader.read_line(&mut response).expect("read");
        assert!(
            response.ends_with('\n'),
            "server closed mid-response: {response:?}"
        );
        response.trim_end().to_string()
    }

    fn ok(&mut self, line: &str) -> String {
        let resp = self.send(line);
        assert!(resp.starts_with("{\"ok\":true"), "command {line} -> {resp}");
        resp
    }

    /// One request line out; its single response must be a rejection,
    /// and the connection must stay healthy (the next line is answered
    /// by exactly its own response, so no stray line was left behind).
    fn rejected(&mut self, line: &str) -> String {
        let resp = self.send(line);
        assert!(
            resp.starts_with("{\"ok\":false"),
            "command {line} -> {resp}"
        );
        assert_eq!(
            self.send("{\"op\":\"ping\"}"),
            "{\"ok\":true,\"pong\":true}"
        );
        resp
    }
}

/// The scripted session the replay contract is pinned against: create,
/// advance, fetches, bursts, fault injection, duty cycling, cache resize.
fn run_scripted_session(c: &mut Client, name: &str) -> String {
    c.ok(&format!(
        "{{\"op\":\"create\",\"session\":\"{name}\",\"seed\":77,\"constellation\":\"test\",\
         \"streams\":2,\"catalog\":400,\"cache_mb\":4,\"copies_per_plane\":1}}"
    ));
    c.ok(&format!(
        "{{\"op\":\"advance\",\"session\":\"{name}\",\"secs\":30}}"
    ));
    c.ok(&format!(
        "{{\"op\":\"fetch\",\"session\":\"{name}\",\"lat\":-25.97,\"lon\":32.58}}"
    ));
    c.ok(&format!(
        "{{\"op\":\"traffic\",\"session\":\"{name}\",\"requests\":2000,\"epochs\":2,\"epoch_step_secs\":60}}"
    ));
    c.ok(&format!(
        "{{\"op\":\"fault\",\"session\":\"{name}\",\"sats\":[3,4,5],\"from_secs\":200,\"gsl\":false}}"
    ));
    c.ok(&format!(
        "{{\"op\":\"duty\",\"session\":\"{name}\",\"fraction\":0.7}}"
    ));
    c.ok(&format!(
        "{{\"op\":\"traffic\",\"session\":\"{name}\",\"requests\":2000,\"epochs\":2,\"epoch_step_secs\":60}}"
    ));
    c.ok(&format!(
        "{{\"op\":\"cache\",\"session\":\"{name}\",\"bytes_per_sat\":2097152}}"
    ));
    c.ok(&format!(
        "{{\"op\":\"fetch\",\"session\":\"{name}\",\"lat\":50.11,\"lon\":8.68}}"
    ));
    c.ok(&format!("{{\"op\":\"report\",\"session\":\"{name}\"}}"))
}

#[test]
fn scripted_session_replays_byte_identically_at_every_thread_count() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let daemon = start_daemon("replay");
    let mut c = daemon.client();
    let live_report = run_scripted_session(&mut c, "demo");
    // The session's fetches and bursts timed their routing-table
    // lookups; both layer timers are readable through the metrics op.
    let metrics = c.ok("{\"op\":\"metrics\"}");
    for name in ["core.retrieval.table_ns", "core.traffic.table_warm_ns"] {
        assert!(metrics.contains(name), "metrics op lacks {name}");
    }
    let journal = daemon.journal("demo");
    assert!(journal.is_file(), "journal written at {journal:?}");

    // The ISSUE.md acceptance bar: byte-identical replay at 1/2/5/8
    // worker threads, regardless of what the live daemon used.
    for threads in [1usize, 2, 5, 8] {
        spacecdn_engine::set_thread_override(Some(threads));
        let replayed = spacecdn_serve::journal::replay(&journal)
            .unwrap_or_else(|e| panic!("replay at {threads} threads: {e}"));
        assert_eq!(
            replayed, live_report,
            "replay diverged from live report at {threads} threads"
        );
    }
    spacecdn_engine::set_thread_override(None);
    daemon.shutdown();
}

#[test]
fn live_cache_policy_mutation_journals_and_replays_byte_identically() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let daemon = start_daemon("policy");
    let mut c = daemon.client();
    c.ok(
        "{\"op\":\"create\",\"session\":\"pol\",\"seed\":9,\"constellation\":\"test\",\
         \"streams\":2,\"catalog\":400,\"cache_mb\":1,\"copies_per_plane\":1}",
    );
    c.ok("{\"op\":\"traffic\",\"session\":\"pol\",\"requests\":2000,\"epochs\":2,\"epoch_step_secs\":60}");
    // Swap the eviction policy mid-session (alias spelling on the wire;
    // the journal must store the canonical name) and burst again so the
    // new policy shapes the report.
    c.ok("{\"op\":\"cache\",\"session\":\"pol\",\"bytes_per_sat\":1048576,\"policy\":\"s3-fifo\"}");
    c.ok("{\"op\":\"traffic\",\"session\":\"pol\",\"requests\":2000,\"epochs\":2,\"epoch_step_secs\":60}");
    c.ok("{\"op\":\"cache\",\"session\":\"pol\",\"bytes_per_sat\":1048576,\"policy\":\"tinylfu\"}");
    c.ok("{\"op\":\"traffic\",\"session\":\"pol\",\"requests\":2000,\"epochs\":2,\"epoch_step_secs\":60}");
    let live_report = c.ok("{\"op\":\"report\",\"session\":\"pol\"}");

    let journal = daemon.journal("pol");
    let journal_text = std::fs::read_to_string(&journal).expect("journal readable");
    assert!(
        journal_text.contains("\"policy\":\"s3fifo\"")
            && journal_text.contains("\"policy\":\"tinylfu\""),
        "journal stores canonical policy names: {journal_text}"
    );

    for threads in [1usize, 2, 5, 8] {
        spacecdn_engine::set_thread_override(Some(threads));
        let replayed = spacecdn_serve::journal::replay(&journal)
            .unwrap_or_else(|e| panic!("replay at {threads} threads: {e}"));
        assert_eq!(
            replayed, live_report,
            "policy-mutation replay diverged from live report at {threads} threads"
        );
    }
    spacecdn_engine::set_thread_override(None);
    daemon.shutdown();
}

#[test]
fn concurrent_clients_on_distinct_sessions_stay_isolated() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let daemon = start_daemon("concurrent");

    // Two clients drive two sessions concurrently; determinism per
    // session must be unaffected by interleaving on the daemon.
    let addr = daemon.addr;
    let workers: Vec<_> = ["alpha", "beta"]
        .into_iter()
        .map(|name| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr);
                run_scripted_session(&mut c, name)
            })
        })
        .collect();
    let reports: Vec<String> = workers.into_iter().map(|w| w.join().unwrap()).collect();

    // Same script, same seed => identical traffic/fetch tallies; only the
    // session name differs.
    assert_eq!(
        reports[0].replace("\"session\":\"alpha\"", "\"session\":\"beta\""),
        reports[1],
        "interleaved sessions interfered with each other"
    );

    // And each journal replays to its own live report.
    for (name, live) in ["alpha", "beta"].into_iter().zip(&reports) {
        let replayed = spacecdn_serve::journal::replay(&daemon.journal(name)).unwrap();
        assert_eq!(&replayed, live);
    }

    let mut c = daemon.client();
    let list = c.ok("{\"op\":\"list\"}");
    assert!(list.contains("\"session\":\"alpha\"") && list.contains("\"session\":\"beta\""));
    daemon.shutdown();
}

#[test]
fn protocol_errors_do_not_wedge_the_connection() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let daemon = start_daemon("errors");
    let mut c = daemon.client();

    assert!(c.send("not json at all").starts_with("{\"ok\":false"));
    assert!(c
        .send("{\"op\":\"advance\",\"session\":\"ghost\",\"secs\":5}")
        .starts_with("{\"ok\":false"));
    assert!(c
        .send("{\"op\":\"create\",\"session\":\"bad name!\"}")
        .starts_with("{\"ok\":false"));

    // Connection still healthy afterwards.
    c.ok("{\"op\":\"ping\"}");
    c.ok("{\"op\":\"create\",\"session\":\"ok1\",\"catalog\":200,\"streams\":2}");
    assert!(c
        .send("{\"op\":\"create\",\"session\":\"ok1\"}")
        .contains("already exists"));

    // Metrics come back as an embedded spacecdn-metrics-v1 document.
    let metrics = c.ok("{\"op\":\"metrics\"}");
    assert!(metrics.contains("spacecdn-metrics-v1"));

    // Dropping frees the name for reuse.
    c.ok("{\"op\":\"drop\",\"session\":\"ok1\"}");
    c.ok("{\"op\":\"create\",\"session\":\"ok1\",\"catalog\":200,\"streams\":2}");
    daemon.shutdown();
}

#[test]
fn sequential_round_trips_do_not_stall_on_delayed_acks() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let daemon = start_daemon("latency");
    let mut c = daemon.client();
    c.ok("{\"op\":\"ping\"}");
    // A response split over two segments waits for the client's delayed
    // ACK (~40 ms on Linux loopback) every time: 20 pings would take
    // ~880 ms. One segment per response takes a few milliseconds.
    let start = std::time::Instant::now();
    for _ in 0..20 {
        c.ok("{\"op\":\"ping\"}");
    }
    let elapsed = start.elapsed();
    assert!(
        elapsed < std::time::Duration::from_millis(400),
        "20 pings took {elapsed:?}"
    );
    drop(c);
    daemon.shutdown();
}

#[test]
fn overlong_request_line_gets_one_error_and_a_close() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let daemon = start_daemon("overlong");
    let stream = TcpStream::connect(daemon.addr).expect("connect");
    // Fail rather than hang if the daemon never answers.
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(30)))
        .expect("read timeout");
    let mut writer = stream.try_clone().expect("clone");
    // An endless line that starts like a valid mutating command: it must
    // be neither executed nor journaled. The writer stops when the daemon
    // closes, or after 64 MiB if it never does.
    let flood = std::thread::spawn(move || {
        let prefix = b"{\"op\":\"create\",\"session\":\"flood\",\"catalog\":200,\"pad\":\"";
        if writer.write_all(prefix).is_err() {
            return 0usize;
        }
        let chunk = vec![b'x'; 64 << 10];
        let mut sent = prefix.len();
        while sent < 64 << 20 {
            if writer.write_all(&chunk).is_err() {
                break;
            }
            sent += chunk.len();
        }
        sent
    });

    let mut reader = BufReader::new(stream);
    let mut response = String::new();
    reader.read_line(&mut response).expect("one response");
    assert!(
        response.starts_with("{\"ok\":false") && response.contains("exceeds"),
        "{response}"
    );
    // Then the daemon closes: end of stream (or a reset), no second line.
    let mut rest = String::new();
    assert!(
        matches!(reader.read_line(&mut rest), Ok(0) | Err(_)),
        "{rest}"
    );
    let sent = flood.join().expect("flood writer");
    assert!(sent < 64 << 20, "daemon kept reading the over-long line");

    // Other clients are served as before, and nothing was journaled.
    let mut c = daemon.client();
    c.ok("{\"op\":\"ping\"}");
    let list = c.ok("{\"op\":\"list\"}");
    assert!(!list.contains("flood"), "{list}");
    assert!(!daemon.journal("flood").exists());
    drop(c);
    daemon.shutdown();
}

#[test]
fn request_line_split_across_read_timeouts_stays_whole() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let daemon = start_daemon("split");
    let mut c = daemon.client();
    // The daemon's reads time out every 50 ms to poll for shutdown; a
    // line arriving in two pieces further apart than that must still be
    // parsed as one line.
    let stream = c.reader.get_mut();
    stream.write_all(b"{\"op\":\"pi").expect("write");
    std::thread::sleep(std::time::Duration::from_millis(150));
    stream.write_all(b"ng\"}\n").expect("write");
    let mut response = String::new();
    c.reader.read_line(&mut response).expect("read");
    assert!(
        response.starts_with("{\"ok\":true,\"pong\":true"),
        "{response}"
    );
    drop(c);
    daemon.shutdown();
}

#[test]
fn fresh_connections_are_served_without_an_accept_delay() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let daemon = start_daemon("accept");
    // Each connection is served as soon as `accept()` returns it; a
    // listener that polled on a 50 ms timer would make 10 fresh
    // connections take about half a second.
    let start = std::time::Instant::now();
    for _ in 0..10 {
        let mut c = daemon.client();
        c.ok("{\"op\":\"ping\"}");
    }
    let elapsed = start.elapsed();
    assert!(
        elapsed < std::time::Duration::from_millis(150),
        "10 connect-ping-close cycles took {elapsed:?}"
    );
    daemon.shutdown();
}

#[test]
fn shutdown_command_returns_run_promptly() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // The `shutdown` command wakes the blocked accept loop at once rather
    // than on the next poll tick.
    let start = std::time::Instant::now();
    for cycle in 0..5 {
        start_daemon(&format!("prompt{cycle}")).shutdown();
    }
    let elapsed = start.elapsed();
    assert!(
        elapsed < std::time::Duration::from_millis(150),
        "5 start-shutdown-join cycles took {elapsed:?}"
    );
}

#[test]
fn create_with_invalid_zipf_alpha_or_duty_is_rejected_before_journaling() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let daemon = start_daemon("badcreate");
    let mut c = daemon.client();
    for field in [
        "\"zipf_alpha\":-3",
        "\"zipf_alpha\":1e999",
        "\"duty\":1.5",
        "\"duty\":-0.1",
        "\"duty\":1e999",
    ] {
        let resp = c.rejected(&format!(
            "{{\"op\":\"create\",\"session\":\"z\",\"constellation\":\"test\",{field}}}"
        ));
        assert!(!resp.contains("panic"), "{field} -> {resp}");
        assert!(!daemon.journal("z").exists(), "{field} left a journal");
    }
    // The name is still free, and a valid session bursts normally.
    c.ok("{\"op\":\"create\",\"session\":\"z\",\"constellation\":\"test\",\"catalog\":200,\"streams\":2,\"zipf_alpha\":0,\"duty\":0}");
    c.ok("{\"op\":\"traffic\",\"session\":\"z\",\"requests\":500}");
    daemon.shutdown();
}

#[test]
fn rejected_create_leaves_no_journal_file() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let daemon = start_daemon("nojournal");
    let mut c = daemon.client();
    let resp = c.rejected(
        "{\"op\":\"create\",\"session\":\"s99\",\"constellation\":\"starlink\",\"shells\":[99]}",
    );
    assert!(resp.contains("shells"), "{resp}");
    c.rejected("{\"op\":\"create\",\"session\":\"kuiper\",\"constellation\":\"kuiper\"}");
    assert!(!daemon.journal("s99").exists());
    assert!(!daemon.journal("kuiper").exists());
    daemon.shutdown();
}

#[test]
fn create_with_catalog_below_streams_is_rejected_before_journaling() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let daemon = start_daemon("smallcatalog");
    let mut c = daemon.client();
    for fields in [
        "\"catalog\":0",
        "\"catalog\":0,\"streams\":0",
        "\"catalog\":3,\"streams\":4",
        // 2^32 + 5 would truncate to 5.
        "\"catalog\":4294967301",
    ] {
        let resp = c.rejected(&format!(
            "{{\"op\":\"create\",\"session\":\"cat\",\"constellation\":\"test\",{fields}}}"
        ));
        assert!(resp.contains("catalog"), "{fields} -> {resp}");
        assert!(!daemon.journal("cat").exists(), "{fields} left a journal");
    }
    // One object per stream is enough, and the name is still free.
    c.ok("{\"op\":\"create\",\"session\":\"cat\",\"constellation\":\"test\",\"catalog\":4,\"streams\":4}");
    c.ok("{\"op\":\"traffic\",\"session\":\"cat\",\"requests\":200}");
    let live_report = c.ok("{\"op\":\"report\",\"session\":\"cat\"}");
    let replayed = spacecdn_serve::journal::replay(&daemon.journal("cat")).expect("replay");
    assert_eq!(replayed, live_report);
    daemon.shutdown();
}

#[test]
fn create_with_malformed_or_oversized_fields_is_rejected_before_journaling() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let daemon = start_daemon("badfields");
    let mut c = daemon.client();
    for (field, fields) in [
        // Malformed: would otherwise fall back to the default catalog.
        ("catalog", "\"catalog\":-1"),
        // 2^32 + 1 would truncate to one stream.
        ("streams", "\"streams\":4294967297"),
        ("cache_mb", "\"cache_mb\":4294967296"),
        ("copies_per_plane", "\"copies_per_plane\":\"2\""),
        ("seed", "\"seed\":1.5"),
        ("zipf_alpha", "\"zipf_alpha\":null"),
    ] {
        let resp = c.rejected(&format!(
            "{{\"op\":\"create\",\"session\":\"a\",\"constellation\":\"test\",{fields}}}"
        ));
        assert!(resp.contains(field), "{fields} -> {resp}");
        assert!(!daemon.journal("a").exists(), "{fields} left a journal");
    }
    // Absent fields still take their defaults, and the name is still free.
    c.ok("{\"op\":\"create\",\"session\":\"a\",\"constellation\":\"test\",\"catalog\":200,\"streams\":2}");
    for fields in ["\"epochs\":\"2\"", "\"epoch_step_secs\":-60"] {
        let resp = c.rejected(&format!(
            "{{\"op\":\"traffic\",\"session\":\"a\",\"requests\":100,{fields}}}"
        ));
        assert!(resp.contains("epoch"), "{fields} -> {resp}");
    }
    c.ok("{\"op\":\"traffic\",\"session\":\"a\",\"requests\":100}");
    let live_report = c.ok("{\"op\":\"report\",\"session\":\"a\"}");
    assert!(live_report.contains("\"bursts\":1,"), "{live_report}");
    // Nothing rejected reached the journal: it replays to the live report.
    let replayed = spacecdn_serve::journal::replay(&daemon.journal("a")).expect("replay");
    assert_eq!(replayed, live_report);
    daemon.shutdown();
}

#[test]
fn malformed_optional_mutation_fields_are_rejected_before_journaling() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let daemon = start_daemon("nullable");
    let mut c = daemon.client();
    c.ok("{\"op\":\"create\",\"session\":\"m\",\"constellation\":\"test\",\"catalog\":200,\"streams\":2}");
    let journal = || std::fs::read_to_string(daemon.journal("m")).expect("journal readable");
    let before = journal();
    for (field, line) in [
        // Would otherwise journal as `null`: an outage that never ends.
        (
            "until_secs",
            "{\"op\":\"fault\",\"session\":\"m\",\"sats\":[3],\"from_secs\":10,\"until_secs\":-5}",
        ),
        // Would otherwise keep the current policy.
        (
            "policy",
            "{\"op\":\"cache\",\"session\":\"m\",\"bytes_per_sat\":1048576,\"policy\":5}",
        ),
        // Would otherwise turn placement off.
        ("spec", "{\"op\":\"place\",\"session\":\"m\",\"spec\":7}"),
    ] {
        let resp = c.rejected(line);
        assert!(resp.contains(field), "{line} -> {resp}");
        assert_eq!(journal(), before, "{line} reached the journal");
    }
    // Explicit `null` still means "absent".
    c.ok("{\"op\":\"fault\",\"session\":\"m\",\"sats\":[3],\"from_secs\":10,\"until_secs\":null}");
    c.ok("{\"op\":\"traffic\",\"session\":\"m\",\"requests\":100}");
    let live_report = c.ok("{\"op\":\"report\",\"session\":\"m\"}");
    let replayed = spacecdn_serve::journal::replay(&daemon.journal("m")).expect("replay");
    assert_eq!(replayed, live_report);
    daemon.shutdown();
}

#[test]
fn advance_that_would_overflow_the_clock_is_rejected() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let daemon = start_daemon("overflow");
    let mut c = daemon.client();
    c.ok("{\"op\":\"create\",\"session\":\"clk\",\"constellation\":\"test\",\"catalog\":200,\"streams\":2}");
    c.rejected(&format!(
        "{{\"op\":\"advance\",\"session\":\"clk\",\"secs\":{}}}",
        u64::MAX
    ));
    c.ok("{\"op\":\"advance\",\"session\":\"clk\",\"secs\":10}");
    // Fits alone (18446744073 s < 2^64 ns), overflows from t = 10 s.
    c.rejected("{\"op\":\"advance\",\"session\":\"clk\",\"secs\":18446744073}");
    let live_report = c.ok("{\"op\":\"report\",\"session\":\"clk\"}");
    assert!(
        live_report.contains("\"clock_ns\":10000000000,"),
        "{live_report}"
    );
    // Nothing rejected reached the journal: it replays to the live report.
    let replayed = spacecdn_serve::journal::replay(&daemon.journal("clk")).expect("replay");
    assert_eq!(replayed, live_report);
    daemon.shutdown();
}

#[test]
fn traffic_with_epochs_beyond_u32_is_rejected() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let daemon = start_daemon("epochs");
    let mut c = daemon.client();
    c.ok("{\"op\":\"create\",\"session\":\"ep\",\"constellation\":\"test\",\"catalog\":200,\"streams\":2}");
    // 2^32 + 1 would truncate to one epoch.
    let resp = c.rejected(&format!(
        "{{\"op\":\"traffic\",\"session\":\"ep\",\"requests\":100,\"epochs\":{}}}",
        u64::from(u32::MAX) + 2
    ));
    assert!(resp.contains("epochs"), "{resp}");
    let live_report = c.ok("{\"op\":\"report\",\"session\":\"ep\"}");
    assert!(live_report.contains("\"bursts\":0,"), "{live_report}");
    let replayed = spacecdn_serve::journal::replay(&daemon.journal("ep")).expect("replay");
    assert_eq!(replayed, live_report);
    daemon.shutdown();
}

#[test]
fn traffic_that_would_overflow_the_clock_is_rejected() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let daemon = start_daemon("trafficclk");
    let mut c = daemon.client();
    c.ok("{\"op\":\"create\",\"session\":\"tc\",\"constellation\":\"test\",\"catalog\":200,\"streams\":2}");
    c.rejected(&format!(
        "{{\"op\":\"traffic\",\"session\":\"tc\",\"requests\":100,\"epochs\":{},\"epoch_step_secs\":{}}}",
        u32::MAX,
        u64::MAX
    ));
    c.ok("{\"op\":\"advance\",\"session\":\"tc\",\"secs\":10}");
    // Fits alone (2 × 9223372036 s < 2^64 ns), overflows from t = 10 s.
    c.rejected("{\"op\":\"traffic\",\"session\":\"tc\",\"requests\":100,\"epochs\":2,\"epoch_step_secs\":9223372036}");
    c.ok("{\"op\":\"traffic\",\"session\":\"tc\",\"requests\":100,\"epochs\":1,\"epoch_step_secs\":60}");
    let live_report = c.ok("{\"op\":\"report\",\"session\":\"tc\"}");
    assert!(
        live_report.contains("\"clock_ns\":70000000000,"),
        "{live_report}"
    );
    // Nothing rejected reached the journal: it replays to the live report.
    let replayed = spacecdn_serve::journal::replay(&daemon.journal("tc")).expect("replay");
    assert_eq!(replayed, live_report);
    daemon.shutdown();
}

#[test]
fn fetch_with_out_of_range_coordinates_is_rejected() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let daemon = start_daemon("badfetch");
    let mut c = daemon.client();
    c.ok("{\"op\":\"create\",\"session\":\"geo\",\"constellation\":\"test\",\"catalog\":200,\"streams\":2}");
    for (lat, lon) in [
        ("1000", "0"),
        ("-90.5", "0"),
        ("0", "180.5"),
        ("0", "-1000"),
        ("1e999", "0"),
        ("0", "-1e999"),
    ] {
        c.rejected(&format!(
            "{{\"op\":\"fetch\",\"session\":\"geo\",\"lat\":{lat},\"lon\":{lon}}}"
        ));
    }
    c.ok("{\"op\":\"fetch\",\"session\":\"geo\",\"lat\":90,\"lon\":-180}");
    let live_report = c.ok("{\"op\":\"report\",\"session\":\"geo\"}");
    assert!(
        live_report.contains("\"fetches\":{\"count\":1,"),
        "{live_report}"
    );
    daemon.shutdown();
}

#[test]
fn burst_phase_timers_are_readable_through_metrics() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let daemon = start_daemon("phases");
    let mut c = daemon.client();
    // A starlink session: its bursts build the covered-city source table.
    c.ok("{\"op\":\"create\",\"session\":\"ph\",\"constellation\":\"starlink\",\"shells\":[0],\"catalog\":200,\"streams\":2}");
    c.ok("{\"op\":\"traffic\",\"session\":\"ph\",\"requests\":200,\"epochs\":1}");
    let metrics = c.ok("{\"op\":\"metrics\"}");
    for name in [
        "measure.traffic.source_table_ns",
        "core.traffic.table_warm_ns",
        "core.traffic.geometry_ns",
        "core.traffic.shard_fan_out_ns",
    ] {
        assert!(metrics.contains(name), "metrics op lacks {name}");
    }
    daemon.shutdown();
}
