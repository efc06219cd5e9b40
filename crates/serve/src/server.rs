//! The daemon: TCP listener, session registry, and per-connection
//! command loop.
//!
//! Concurrency model: the registry is a `Mutex<BTreeMap>` of
//! `Arc<Mutex<SessionEntry>>`s — connections clone the entry `Arc` and
//! release the registry before executing, so two clients hammering
//! *different* sessions run fully in parallel while commands on one
//! session serialize (the determinism contract needs a total order per
//! session, which the per-entry lock provides and the journal records).
//!
//! Accept: the listener blocks in `accept()`, so each connection thread
//! starts the moment its client connects.
//!
//! Shutdown: SIGINT/SIGTERM (see [`crate::signal`]) or a `shutdown`
//! command set a flag. A blocking `accept()` cannot see that flag, so one
//! watcher thread owns the wake: it polls the flag (the `shutdown` command
//! also unparks it at once) and then connects to the daemon's own address,
//! which returns `accept()` into the drain. Connection threads poll the
//! flag on short read timeouts, finish their in-flight command, and exit.
//! Journals are write-ahead-flushed per command, so even a SIGKILL loses
//! at most a torn trailing line (which replay discards).

use crate::journal::Journal;
use crate::protocol::{json_str, Command, CreateArgs};
use crate::session::Session;
use crate::signal;
use spacecdn_core::placement::PlacementSpec;
use spacecdn_core::retrieval::RetrievalSource;
use spacecdn_core::traffic::PolicyKind;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::Thread;
use std::time::{Duration, Instant};

/// How often connection reads and the drain watcher wake to poll the
/// shutdown flag.
const POLL: Duration = Duration::from_millis(50);

/// Longest request line accepted, newline excluded (1 MiB). A longer line
/// gets one error response and the connection is closed.
const MAX_LINE_BYTES: usize = 1 << 20;

/// How long a connection closed for an over-long line keeps draining its
/// input so the error response gets out first (see [`linger_close`]).
const LINGER: Duration = Duration::from_millis(200);

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Address to bind (`127.0.0.1:0` picks a free port).
    pub listen: String,
    /// Directory session journals are written into.
    pub journal_dir: PathBuf,
    /// When set, the daemon writes its bound address here after binding —
    /// how scripts and tests discover a `:0` port.
    pub port_file: Option<PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            listen: "127.0.0.1:4600".to_string(),
            journal_dir: PathBuf::from("journals"),
            port_file: None,
        }
    }
}

/// One registered session plus its write-ahead journal.
struct SessionEntry {
    session: Session,
    journal: Journal,
}

/// State shared by the accept loop and every connection thread.
struct State {
    sessions: Mutex<BTreeMap<String, Arc<Mutex<SessionEntry>>>>,
    journal_dir: PathBuf,
    /// This daemon's own shutdown flag (the `shutdown` command); process
    /// signals use the global flag in [`crate::signal`].
    shutdown: AtomicBool,
    /// The drain watcher (see [`watch_for_drain`]), set once `run` starts.
    watcher: OnceLock<Thread>,
}

impl State {
    fn draining(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst) || signal::shutdown_requested()
    }

    /// Start this daemon's drain without waiting for the watcher's next
    /// poll.
    fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(watcher) = self.watcher.get() {
            watcher.unpark();
        }
    }
}

/// A bound, not-yet-serving daemon.
pub struct Daemon {
    listener: TcpListener,
    state: Arc<State>,
}

impl Daemon {
    /// Bind the listener and (when configured) publish the bound address
    /// to the port file.
    pub fn bind(cfg: &ServeConfig) -> std::io::Result<Daemon> {
        let listener = TcpListener::bind(&cfg.listen)?;
        if let Some(port_file) = &cfg.port_file {
            if let Some(parent) = port_file.parent() {
                if !parent.as_os_str().is_empty() {
                    std::fs::create_dir_all(parent)?;
                }
            }
            std::fs::write(port_file, format!("{}\n", listener.local_addr()?))?;
        }
        Ok(Daemon {
            listener,
            state: Arc::new(State {
                sessions: Mutex::new(BTreeMap::new()),
                journal_dir: cfg.journal_dir.clone(),
                shutdown: AtomicBool::new(false),
                watcher: OnceLock::new(),
            }),
        })
    }

    /// The bound address (useful with `listen = "127.0.0.1:0"`).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serve until a shutdown is requested, then drain connection
    /// threads and return. Journals are flushed per command, so there is
    /// nothing else to persist. An `accept()` error that belongs to one
    /// connection is skipped; any other drains the daemon and is returned.
    pub fn run(self) -> std::io::Result<()> {
        let wake_addr = self_connect_addr(self.listener.local_addr()?);
        let watcher = {
            let state = Arc::clone(&self.state);
            std::thread::spawn(move || watch_for_drain(&state, wake_addr))
        };
        let _ = self.state.watcher.set(watcher.thread().clone());
        let mut workers = Vec::new();
        let served = loop {
            match self.listener.accept() {
                // The watcher's wake, or a client that raced the drain:
                // dropped unserved.
                Ok(_) if self.state.draining() => break Ok(()),
                Ok((stream, _peer)) => {
                    let state = Arc::clone(&self.state);
                    workers.push(std::thread::spawn(move || serve_connection(stream, state)));
                }
                Err(e) if is_connection_error(&e) => {}
                Err(e) => break Err(e),
            }
            workers.retain(|w| !w.is_finished());
        };
        self.state.request_shutdown();
        let _ = watcher.join();
        for w in workers {
            let _ = w.join();
        }
        served
    }
}

/// Wait until the daemon drains, then connect once to its own listener:
/// `run` blocks in `accept()`, and std retries `accept` on `EINTR`, so
/// neither the flag nor a signal returns it on its own. Signals only set
/// the flag, so they are seen within [`POLL`]; the `shutdown` command
/// unparks this thread at once.
fn watch_for_drain(state: &State, addr: SocketAddr) {
    while !state.draining() {
        std::thread::park_timeout(POLL);
    }
    let _ = TcpStream::connect(addr);
}

/// Where the watcher connects to reach a listener bound at `bound`: an
/// unspecified IP (`0.0.0.0`, `[::]`) maps to loopback of the same family.
fn self_connect_addr(bound: SocketAddr) -> SocketAddr {
    let ip = match bound.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
        IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
        ip => ip,
    };
    SocketAddr::new(ip, bound.port())
}

/// Is `e` an `accept()` error of the one connection being accepted, not
/// of the listener? Per `man 2 accept`, Linux reports an aborted or reset
/// handshake and the new socket's pending network errors this way.
fn is_connection_error(e: &std::io::Error) -> bool {
    /// `EPROTO`, `ENOPROTOOPT`, `EHOSTDOWN`, `ENONET` and `EOPNOTSUPP` on
    /// Linux, which have no `ErrorKind` of their own.
    const PENDING_ERRNOS: [i32; 5] = [71, 92, 112, 64, 95];
    matches!(
        e.kind(),
        ErrorKind::ConnectionAborted
            | ErrorKind::ConnectionReset
            | ErrorKind::Interrupted
            | ErrorKind::NetworkDown
            | ErrorKind::NetworkUnreachable
            | ErrorKind::HostUnreachable
    ) || (cfg!(target_os = "linux")
        && e.raw_os_error()
            .is_some_and(|n| PENDING_ERRNOS.contains(&n)))
}

fn serve_connection(stream: TcpStream, state: Arc<State>) {
    let _ = stream.set_read_timeout(Some(POLL));
    // One small response per request: don't let Nagle hold it back
    // waiting for the client's delayed ACK.
    let _ = stream.set_nodelay(true);
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    // Bytes of the request line read so far; a read that times out
    // mid-line keeps them for the next attempt.
    let mut line = Vec::new();
    loop {
        // Room for the longest allowed line plus its newline: a read that
        // fills it without a newline has overrun the cap.
        let room = (MAX_LINE_BYTES + 1 - line.len()) as u64;
        match (&mut reader).take(room).read_until(b'\n', &mut line) {
            Ok(0) => return, // client closed
            Ok(_) => {
                if line.len() > MAX_LINE_BYTES && line.last() != Some(&b'\n') {
                    // Never dispatched, so never journaled; the rest of the
                    // line is unread, so the connection cannot resync.
                    let mut response =
                        err_response(&format!("request line exceeds {MAX_LINE_BYTES} bytes"));
                    response.push('\n');
                    if writer.write_all(response.as_bytes()).is_ok() {
                        linger_close(&mut reader, &writer);
                    }
                    return;
                }
                let mut response = match std::str::from_utf8(&line) {
                    Ok(text) if text.trim().is_empty() => {
                        line.clear();
                        continue;
                    }
                    Ok(text) => dispatch(text.trim(), &state),
                    Err(_) => err_response("request line is not valid UTF-8"),
                };
                line.clear();
                // Response and newline in one write, so they leave as one
                // segment.
                response.push('\n');
                if writer.write_all(response.as_bytes()).is_err() {
                    return;
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                if state.draining() {
                    return;
                }
            }
            Err(_) => return,
        }
    }
}

/// Half-close after a final response, then discard what the client is
/// still sending for up to [`LINGER`] or [`MAX_LINE_BYTES`]: closing a
/// socket with unread input resets the connection, which can drop a
/// response not yet sent.
fn linger_close(reader: &mut impl Read, writer: &TcpStream) {
    let _ = writer.shutdown(Shutdown::Write);
    let deadline = Instant::now() + LINGER;
    let mut sink = [0u8; 8192];
    let mut discarded = 0;
    while discarded < MAX_LINE_BYTES && Instant::now() < deadline {
        match reader.read(&mut sink) {
            Ok(0) => return,
            Ok(n) => discarded += n,
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {}
            Err(_) => return,
        }
    }
}

fn err_response(msg: &str) -> String {
    format!("{{\"ok\":false,\"error\":{}}}", json_str(msg))
}

/// Execute one request line and render its response line.
fn dispatch(line: &str, state: &State) -> String {
    let cmd = match Command::parse(line) {
        Ok(cmd) => cmd,
        Err(e) => return err_response(&e),
    };
    match cmd {
        Command::Ping => "{\"ok\":true,\"pong\":true}".to_string(),
        Command::Shutdown => {
            state.request_shutdown();
            "{\"ok\":true,\"shutting_down\":true}".to_string()
        }
        Command::Metrics => {
            // The shared spacecdn-metrics-v1 serializer, embedded as a
            // JSON string so the response stays one line.
            format!(
                "{{\"ok\":true,\"metrics\":{}}}",
                json_str(&spacecdn_telemetry::snapshot_json())
            )
        }
        Command::List => {
            let sessions = state.sessions.lock().unwrap_or_else(|e| e.into_inner());
            let mut parts = Vec::with_capacity(sessions.len());
            for entry in sessions.values() {
                let entry = entry.lock().unwrap_or_else(|e| e.into_inner());
                parts.push(entry.session.summary_json());
            }
            format!("{{\"ok\":true,\"sessions\":[{}]}}", parts.join(","))
        }
        Command::Create(args) => create_session(args, state),
        Command::Drop { session } => {
            let removed = {
                let mut sessions = state.sessions.lock().unwrap_or_else(|e| e.into_inner());
                sessions.remove(&session)
            };
            match removed {
                Some(entry) => {
                    let mut entry = entry.lock().unwrap_or_else(|e| e.into_inner());
                    let clock = entry.session.clock().0;
                    let _ = entry.journal.record(
                        clock,
                        &Command::Drop {
                            session: session.clone(),
                        },
                    );
                    format!("{{\"ok\":true,\"dropped\":{}}}", json_str(&session))
                }
                None => err_response(&format!("no session {session:?}")),
            }
        }
        // Session-addressed commands: resolve the entry, serialize on its
        // lock, journal mutations write-ahead, then execute.
        cmd => {
            let name = cmd.session().expect("session-addressed command");
            let entry = {
                let sessions = state.sessions.lock().unwrap_or_else(|e| e.into_inner());
                sessions.get(name).cloned()
            };
            let Some(entry) = entry else {
                return err_response(&format!("no session {name:?}"));
            };
            let mut entry = entry.lock().unwrap_or_else(|e| e.into_inner());
            if let Err(e) = entry.session.check(&cmd) {
                return err_response(&e);
            }
            if cmd.is_mutating() {
                let clock = entry.session.clock().0;
                if let Err(e) = entry.journal.record(clock, &cmd) {
                    return err_response(&format!("journal write failed: {e}"));
                }
            }
            execute_on_session(&cmd, &mut entry.session)
        }
    }
}

fn create_session(args: CreateArgs, state: &State) -> String {
    let name = args.session.clone();
    if name.is_empty()
        || !name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_')
    {
        return err_response("session names are non-empty [A-Za-z0-9_-]+");
    }
    let mut sessions = state.sessions.lock().unwrap_or_else(|e| e.into_inner());
    if sessions.contains_key(&name) {
        return err_response(&format!("session {name:?} already exists"));
    }
    // Build the session first: a create it rejects leaves no journal.
    let session = match Session::create(args.clone()) {
        Ok(s) => s,
        Err(e) => return err_response(&e),
    };
    let mut journal = match Journal::create(&state.journal_dir, &name) {
        Ok(j) => j,
        Err(e) => return err_response(&format!("journal create failed: {e}")),
    };
    if let Err(e) = journal.record(0, &Command::Create(args)) {
        return err_response(&format!("journal write failed: {e}"));
    }
    let journal_path = journal.path().display().to_string();
    sessions.insert(
        name.clone(),
        Arc::new(Mutex::new(SessionEntry { session, journal })),
    );
    format!(
        "{{\"ok\":true,\"created\":{},\"journal\":{}}}",
        json_str(&name),
        json_str(&journal_path)
    )
}

fn execute_on_session(cmd: &Command, session: &mut Session) -> String {
    match cmd {
        Command::Advance { secs, .. } => {
            session.advance(*secs);
            format!("{{\"ok\":true,\"clock_ns\":{}}}", session.clock().0)
        }
        Command::Fetch { lat, lon, .. } => {
            let result = session.fetch(*lat, *lon);
            let (source, hops) = match result.outcome.as_ref().map(|o| o.source) {
                Some(RetrievalSource::Overhead) => ("overhead", 0),
                Some(RetrievalSource::Isl { hops }) => ("isl", hops),
                Some(RetrievalSource::Ground) => ("ground", 0),
                None => ("none", 0),
            };
            let rtt_ms = result.outcome.as_ref().map_or(0.0, |o| o.rtt.ms());
            format!(
                "{{\"ok\":true,\"fetch\":{{\"source\":\"{}\",\"hops\":{},\"rtt_ms\":{},\"attempts\":{},\"degraded\":{}}}}}",
                source,
                hops,
                crate::protocol::json_f64(rtt_ms),
                result.attempts,
                result.degraded.is_some()
            )
        }
        Command::Traffic {
            requests,
            epochs,
            epoch_step_secs,
            ..
        } => {
            let report = session.traffic(*requests, *epochs, *epoch_step_secs);
            format!(
                "{{\"ok\":true,\"burst\":{{\"requests\":{},\"hit_ratio\":{},\"origin_fetches\":{},\"dead_zones\":{},\"clock_ns\":{}}}}}",
                report.requests,
                crate::protocol::json_f64(report.hit_ratio()),
                report.origin_fetches,
                report.dead_zones,
                session.clock().0
            )
        }
        Command::Fault {
            sats,
            from_secs,
            until_secs,
            gsl,
            ..
        } => {
            session.fault(sats, *from_secs, *until_secs, *gsl);
            format!("{{\"ok\":true,\"clock_ns\":{}}}", session.clock().0)
        }
        Command::Duty { fraction, .. } => {
            session.set_duty(*fraction);
            format!("{{\"ok\":true,\"clock_ns\":{}}}", session.clock().0)
        }
        Command::Cache {
            bytes_per_sat,
            policy,
            ..
        } => {
            session.set_cache_bytes(*bytes_per_sat);
            if let Some(name) = policy {
                // Parse cannot fail: the protocol layer already normalized
                // the name to a canonical PolicyKind spelling.
                if let Some(kind) = PolicyKind::parse(name) {
                    session.set_cache_policy(kind);
                }
            }
            format!("{{\"ok\":true,\"clock_ns\":{}}}", session.clock().0)
        }
        Command::Place { spec, .. } => {
            // Parse cannot fail: the protocol layer already normalized the
            // spec to a canonical PlacementSpec name (or None for "off").
            session.set_placement(spec.as_deref().and_then(PlacementSpec::parse));
            format!("{{\"ok\":true,\"clock_ns\":{}}}", session.clock().0)
        }
        Command::Report { .. } => {
            format!("{{\"ok\":true,\"report\":{}}}", session.report_json())
        }
        other => err_response(&format!("unhandled command {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wake_connects_to_loopback_for_unspecified_binds() {
        let addr = |s: &str| s.parse::<SocketAddr>().expect("valid address");
        assert_eq!(
            self_connect_addr(addr("0.0.0.0:4600")),
            addr("127.0.0.1:4600")
        );
        assert_eq!(self_connect_addr(addr("[::]:4600")), addr("[::1]:4600"));
        assert_eq!(
            self_connect_addr(addr("10.1.2.3:4600")),
            addr("10.1.2.3:4600")
        );
    }

    #[test]
    fn only_per_connection_accept_errors_are_skipped() {
        use std::io::Error;
        assert!(is_connection_error(&Error::from(
            ErrorKind::ConnectionAborted
        )));
        assert!(is_connection_error(&Error::from(
            ErrorKind::ConnectionReset
        )));
        if cfg!(target_os = "linux") {
            assert!(is_connection_error(&Error::from_raw_os_error(71))); // EPROTO
            assert!(!is_connection_error(&Error::from_raw_os_error(24))); // EMFILE
        }
        assert!(!is_connection_error(&Error::from(ErrorKind::InvalidInput)));
    }
}
