//! End-to-end benchmark of the spacecdn serve daemon and the traffic
//! engine behind it.
//!
//! ```text
//! cargo run --release --manifest-path cdnbench/Cargo.toml -- \
//!     --workload traffic-hot|traffic-churn|serve-session \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! The daemon runs on a loopback port inside this process; clients drive
//! it over TCP in a closed loop (each sends its next command only after
//! the previous response), one to two clients depending on the workload.
//! With `--trace 0` the run reports what a user of the daemon sees:
//! wall time per simulated request, single-fetch round-trip latency, and
//! the time to bring the daemon and its sessions up.
//! With `--trace 1` the same command stream runs through the protocol,
//! journal and session layers directly, with a span around each call,
//! and the program's own telemetry counters supply the engine's work
//! counts (see `trace.rs`).
//!
//! Every response is checked: commands must succeed, bursts must serve
//! exactly the requests asked for, every round's report must account for
//! each request once, and one session's journal must replay to the exact
//! report the live daemon returned. The last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed` and `metrics`.

mod check;
mod script;
mod trace;
mod wire;

use script::{Kind, Round, Workload};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Barrier;
use std::time::{Duration, Instant};
use wire::{Client, LiveDaemon};

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Measured rounds per client even when `--seconds` runs out first.
const MIN_ROUNDS: u64 = 5;

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let name = value("--workload")?;
    let workload = Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 3600.0) {
        return Err(format!("--seconds must be in (0, 3600], got {seconds}"));
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds: Duration::from_secs_f64(seconds),
        trace,
    })
}

/// One named metric of the result line.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Operations attempted and failed, the first few failure messages, and
/// the metrics of the run.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    pub fn fail(&mut self, error: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(error);
        }
    }

    pub fn absorb(&mut self, other: &Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for e in &other.errors {
            if self.errors.len() < 8 {
                self.errors.push(e.clone());
            }
        }
    }

    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    r#""{}":{{"value":{},"unit":"{}"}}"#,
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            r#"{{"correct":{},"attempted":{},"failed":{},"metrics":{{{}}}}}"#,
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

/// Median of `xs` (0 when empty).
pub fn median(xs: &mut [f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let mid = xs.len() / 2;
    if xs.len() % 2 == 1 {
        xs[mid]
    } else {
        (xs[mid - 1] + xs[mid]) / 2.0
    }
}

/// What one socket client measured.
#[derive(Default)]
struct ClientRun {
    outcome: Outcome,
    /// Per measured round: wall nanoseconds per simulated request.
    ns_per_request: Vec<f64>,
    /// Round trip of every measured `fetch`, microseconds.
    fetch_us: Vec<f64>,
    /// The warm-up round and the live daemon's report for it.
    warm: Option<(Round, String)>,
}

/// Send one round over `client`; returns the `report` response when the
/// round checked out. An I/O error ends the connection.
fn socket_round(
    client: &mut Option<Client>,
    round: &Round,
    run: &mut ClientRun,
    timed: bool,
) -> Option<String> {
    let mut report = None;
    for op in &round.ops {
        let conn = client.as_mut()?;
        run.outcome.attempted += 1;
        let t0 = Instant::now();
        let resp = match conn.call(&op.line) {
            Ok(resp) => resp,
            Err(e) => {
                run.outcome.fail(format!("{}: {e}", round.session));
                *client = None;
                return None;
            }
        };
        let rtt = t0.elapsed();
        let checked = if op.kind == Kind::Report {
            check::report_response(resp, round).map(|()| report = Some(resp.to_string()))
        } else {
            check::response(op.kind, resp)
        };
        match checked {
            Ok(()) if timed && op.kind == Kind::Fetch => {
                run.fetch_us.push(rtt.as_secs_f64() * 1e6);
            }
            Ok(()) => {}
            Err(e) => run.outcome.fail(e),
        }
    }
    report
}

/// One closed-loop client: a warm-up round, the `ready` gate, then (when
/// `measured`) rounds until the deadline, at least [`MIN_ROUNDS`].
fn drive_socket(
    args: &Args,
    c: usize,
    addr: SocketAddr,
    ready: &Barrier,
    measured: bool,
) -> ClientRun {
    let mut run = ClientRun::default();
    let mut client = match Client::connect(addr) {
        Ok(client) => Some(client),
        Err(e) => {
            run.outcome.attempted += 1;
            run.outcome.fail(format!("connect: {e}"));
            None
        }
    };
    let warm = args.workload.round(args.seed, c, 0);
    if let Some(report) = socket_round(&mut client, &warm, &mut run, false) {
        run.warm = Some((warm, report));
    }
    ready.wait();
    if !measured {
        return run;
    }
    let deadline = Instant::now() + args.seconds;
    let mut done = 0u64;
    while client.is_some() && (done < MIN_ROUNDS || Instant::now() < deadline) {
        let round = args.workload.round(args.seed, c, done + 1);
        let t0 = Instant::now();
        socket_round(&mut client, &round, &mut run, true);
        run.ns_per_request
            .push(t0.elapsed().as_nanos() as f64 / round.requests() as f64);
        done += 1;
    }
    run
}

/// The measured run (`--trace 0`).
///
/// Set-up is everything before the first measured command: starting a
/// daemon, connecting the clients, and one warm-up round each, which
/// builds the lazily filled snapshot pool and routing tables. It runs
/// [`SETUP_REPS`] times, each on a fresh daemon; the last one goes on
/// to the measured rounds.
fn measure(args: &Args, work: &Path) -> Result<Outcome, String> {
    let clients = args.workload.clients();
    let mut out = Outcome::default();
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut ns_per_request = Vec::new();
    let mut fetch_us = Vec::new();
    for rep in 0..SETUP_REPS {
        let measured = rep + 1 == SETUP_REPS;
        let journals = work.join(format!("journals{rep}"));
        let t0 = Instant::now();
        let daemon = LiveDaemon::start(&journals).map_err(|e| format!("start daemon: {e}"))?;
        let addr = daemon.addr();
        let ready = Barrier::new(clients + 1);
        let runs: Vec<ClientRun> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..clients)
                .map(|c| {
                    let ready = &ready;
                    s.spawn(move || drive_socket(args, c, addr, ready, measured))
                })
                .collect();
            ready.wait();
            setup_s.push(t0.elapsed().as_secs_f64());
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        for run in &runs {
            out.absorb(&run.outcome);
            ns_per_request.extend_from_slice(&run.ns_per_request);
            fetch_us.extend_from_slice(&run.fetch_us);
        }
        if measured {
            // Determinism gate: the first client's warm-up session,
            // replayed from its journal, must render the exact report the
            // live daemon sent.
            out.attempted += 1;
            match &runs[0].warm {
                Some((round, live)) => {
                    let path = journals.join(format!("{}.jsonl", round.session));
                    match spacecdn_serve::journal::replay(&path) {
                        Ok(replayed) if &replayed == live => {}
                        Ok(replayed) => {
                            out.fail(format!("replay diverged: {replayed} vs {live}"));
                        }
                        Err(e) => out.fail(format!("replay: {e}")),
                    }
                }
                None => out.fail("warm-up round produced no report".to_string()),
            }
        }
        daemon.stop()?;
    }

    eprintln!(
        "cdnbench: ns/request per round {:?}",
        ns_per_request.iter().map(|x| *x as u64).collect::<Vec<_>>(),
    );
    let ns = median(&mut ns_per_request);
    out.metric("ns_per_request", ns, "ns");
    out.metric("fetch_us", median(&mut fetch_us), "us");
    out.metric("setup_s", median(&mut setup_s), "s");
    Ok(out)
}

/// Scratch directory for journals, inside the working directory.
fn work_dir(args: &Args) -> PathBuf {
    let name = format!("{:?}-{}", args.workload, std::process::id());
    PathBuf::from(".bench_work").join(name)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("cdnbench: {e}");
            std::process::exit(2);
        }
    };
    let work = work_dir(&args);
    let result = if args.trace {
        trace::run(&args, &work)
    } else {
        measure(&args, &work)
    };
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(".bench_work");
    match result {
        Ok(out) => {
            for e in &out.errors {
                eprintln!("cdnbench: {e}");
            }
            if let Some(m) = out.metrics.iter().find(|m| !m.value.is_finite()) {
                eprintln!("cdnbench: metric {} is not finite", m.name);
                std::process::exit(1);
            }
            println!("{}", out.to_json());
        }
        Err(e) => {
            eprintln!("cdnbench: {e}");
            std::process::exit(1);
        }
    }
}
