//! The traced run (`--trace 1`): the per-layer split.
//!
//! The measured run sends each command through the daemon, where parse,
//! journal write, session execution and response rendering happen inside
//! one socket round trip. Here the benchmark makes those calls itself,
//! in the daemon's order, with a span around each:
//!
//! - **socket**: a `ping` round trip to a live daemon before every
//!   command — framing, dispatch and loopback I/O with no work behind it;
//! - **parse**: `Command::parse` of the command line;
//! - **journal**: `Journal::record` of every mutating command;
//! - **engine**: the `Session` call, split by command class (session
//!   create, traffic burst per request, single fetch, live mutation);
//! - **render**: `Session::report_json` for each `report`.
//!
//! The engine's own telemetry supplies work counts below the session
//! layer: requests served, batch contexts formed and reused, cache hits,
//! evictions, topology snapshots built or patched, routing-table cache
//! hits, and the time busy inside the engine's parallel shard tasks.
//! Peak resident memory rides along here: it depends on how the shard
//! tasks happen to overlap, so it is too noisy to bound end to end.

use crate::script::{Kind, Round};
use crate::wire::{Client, LiveDaemon};
use crate::{check, median, Args, Outcome};
use spacecdn_core::traffic::PolicyKind;
use spacecdn_core::PlacementSpec;
use spacecdn_serve::{Command, Journal, Session};
use spacecdn_telemetry::MetricsReport;
use std::path::Path;
use std::sync::Barrier;
use std::time::Instant;

/// Total time and work units of one span kind.
#[derive(Default, Clone, Copy)]
struct Acc {
    ns: u128,
    n: u64,
}

impl Acc {
    fn add(&mut self, since: Instant, n: u64) {
        self.ns += since.elapsed().as_nanos();
        self.n += n;
    }

    fn merge(&mut self, other: Acc) {
        self.ns += other.ns;
        self.n += other.n;
    }

    /// Mean nanoseconds per work unit.
    fn per_unit_ns(self) -> f64 {
        self.ns as f64 / self.n.max(1) as f64
    }
}

#[derive(Default)]
struct Spans {
    parse: Acc,
    journal: Acc,
    create: Acc,
    /// Work units are burst requests.
    burst: Acc,
    fetch: Acc,
    mutate: Acc,
    render: Acc,
    ping_us: Vec<f64>,
}

impl Spans {
    fn merge(&mut self, other: &Spans) {
        self.parse.merge(other.parse);
        self.journal.merge(other.journal);
        self.create.merge(other.create);
        self.burst.merge(other.burst);
        self.fetch.merge(other.fetch);
        self.mutate.merge(other.mutate);
        self.render.merge(other.render);
        self.ping_us.extend_from_slice(&other.ping_us);
    }
}

/// The daemon-side state of one session, held by the benchmark.
#[derive(Default)]
struct Live {
    journal: Option<Journal>,
    session: Option<Session>,
}

/// One command through socket probe, parse, journal, engine and render.
fn traced_op(
    line: &str,
    round: &Round,
    journals: &Path,
    live: &mut Live,
    pinger: &mut Client,
    spans: &mut Spans,
) -> Result<(), String> {
    let t = Instant::now();
    let pong = pinger
        .call(r#"{"op":"ping"}"#)
        .map_err(|e| format!("ping: {e}"))?;
    check::response(Kind::Query, pong)?;
    spans.ping_us.push(t.elapsed().as_secs_f64() * 1e6);

    let t = Instant::now();
    let cmd = Command::parse(line)?;
    spans.parse.add(t, 1);

    if cmd.is_mutating() {
        let t = Instant::now();
        if matches!(cmd, Command::Create(_)) {
            live.journal = Some(
                Journal::create(journals, &round.session)
                    .map_err(|e| format!("journal create: {e}"))?,
            );
        }
        let clock = live.session.as_ref().map_or(0, |s| s.clock().0);
        live.journal
            .as_mut()
            .ok_or("journal before create")?
            .record(clock, &cmd)
            .map_err(|e| format!("journal write: {e}"))?;
        spans.journal.add(t, 1);
    }

    if let Command::Create(args) = cmd {
        let t = Instant::now();
        live.session = Some(Session::create(args)?);
        spans.create.add(t, 1);
        return Ok(());
    }
    if let Command::Drop { .. } = cmd {
        *live = Live::default();
        return Ok(());
    }
    let s = live.session.as_mut().ok_or("command before create")?;
    let t = Instant::now();
    match cmd {
        Command::Traffic {
            requests,
            epochs,
            epoch_step_secs,
            ..
        } => {
            let served = s.traffic(requests, epochs, epoch_step_secs).requests;
            spans.burst.add(t, requests);
            if served != requests {
                return Err(format!("burst of {requests} served {served}"));
            }
        }
        Command::Fetch { lat, lon, .. } => {
            s.fetch(lat, lon);
            spans.fetch.add(t, 1);
        }
        Command::Report { .. } => {
            let report = s.report_json();
            spans.render.add(t, 1);
            check::report_json(&report, round)?;
        }
        Command::List => {
            s.summary_json();
        }
        cmd => {
            match cmd {
                Command::Advance { secs, .. } => s.advance(secs),
                Command::Fault {
                    sats,
                    from_secs,
                    until_secs,
                    gsl,
                    ..
                } => s.fault(&sats, from_secs, until_secs, gsl),
                Command::Duty { fraction, .. } => s.set_duty(fraction),
                Command::Cache {
                    bytes_per_sat,
                    policy,
                    ..
                } => {
                    s.set_cache_bytes(bytes_per_sat);
                    if let Some(kind) = policy.as_deref().and_then(PolicyKind::parse) {
                        s.set_cache_policy(kind);
                    }
                }
                Command::Place { spec, .. } => {
                    s.set_placement(spec.as_deref().and_then(PlacementSpec::parse));
                }
                other => return Err(format!("unexpected command {other:?}")),
            }
            spans.mutate.add(t, 1);
        }
    }
    Ok(())
}

fn traced_round(
    round: &Round,
    journals: &Path,
    pinger: &mut Client,
    spans: &mut Spans,
    out: &mut Outcome,
) {
    let mut live = Live::default();
    for op in &round.ops {
        out.attempted += 1;
        if let Err(e) = traced_op(&op.line, round, journals, &mut live, pinger, spans) {
            out.fail(format!("{}: {e}", round.session));
        }
    }
}

/// One client: a warm-up round, then traced rounds until the deadline.
fn drive_traced(
    args: &Args,
    c: usize,
    daemon: &LiveDaemon,
    journals: &Path,
    gates: &Barrier,
) -> (Spans, Outcome) {
    let mut spans = Spans::default();
    let mut out = Outcome::default();
    let mut pinger = Client::connect(daemon.addr());
    if let Ok(pinger) = pinger.as_mut() {
        let warm = args.workload.round(args.seed, c, 0);
        traced_round(&warm, journals, pinger, &mut Spans::default(), &mut out);
    }
    // Two gates: the telemetry baseline is taken between them.
    gates.wait();
    gates.wait();
    let mut pinger = match pinger {
        Ok(pinger) => pinger,
        Err(e) => {
            out.attempted += 1;
            out.fail(format!("connect: {e}"));
            return (spans, out);
        }
    };
    let deadline = Instant::now() + args.seconds;
    let mut done = 0u64;
    while done < crate::MIN_ROUNDS || Instant::now() < deadline {
        let round = args.workload.round(args.seed, c, done + 1);
        traced_round(&round, journals, &mut pinger, &mut spans, &mut out);
        done += 1;
    }
    (spans, out)
}

fn counter(report: &MetricsReport, name: &str) -> u64 {
    report.counter(name).unwrap_or(0)
}

fn histogram_sum(report: &MetricsReport, name: &str) -> u64 {
    report
        .histograms
        .iter()
        .find(|h| h.name == name)
        .map_or(0, |h| h.sum)
}

/// The traced run (`--trace 1`).
pub fn run(args: &Args, work: &Path) -> Result<Outcome, String> {
    spacecdn_telemetry::set_metrics_override(Some(true));
    let journals = work.join("journals");
    let daemon =
        LiveDaemon::start(&work.join("probe")).map_err(|e| format!("start daemon: {e}"))?;
    let clients = args.workload.clients();
    let gates = Barrier::new(clients + 1);
    let (results, before, after) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let (daemon, journals, gates) = (&daemon, &journals, &gates);
                s.spawn(move || drive_traced(args, c, daemon, journals, gates))
            })
            .collect();
        gates.wait();
        let before = spacecdn_telemetry::snapshot();
        gates.wait();
        let results: Vec<(Spans, Outcome)> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        (results, before, spacecdn_telemetry::snapshot())
    });
    daemon.stop()?;

    let mut spans = Spans::default();
    let mut out = Outcome::default();
    for (s, o) in &results {
        spans.merge(s);
        out.absorb(o);
    }
    let delta = |name: &str| counter(&after, name).saturating_sub(counter(&before, name)) as f64;
    let requests = delta("core.traffic.requests");
    let shard_ns = histogram_sum(&after, "engine.par_map.task_ns")
        .saturating_sub(histogram_sum(&before, "engine.par_map.task_ns"));
    let routing_hits = delta("lsn.routing_cache.hit");
    let routing_lookups = routing_hits + delta("lsn.routing_cache.miss");
    let (us, ms) = (1e3, 1e6);
    out.metric("socket_us_per_op", median(&mut spans.ping_us), "us");
    out.metric("parse_ns_per_op", spans.parse.per_unit_ns(), "ns");
    out.metric(
        "journal_us_per_write",
        spans.journal.per_unit_ns() / us,
        "us",
    );
    out.metric(
        "create_ms_per_session",
        spans.create.per_unit_ns() / ms,
        "ms",
    );
    out.metric("burst_ns_per_request", spans.burst.per_unit_ns(), "ns");
    out.metric(
        "shard_ns_per_request",
        shard_ns as f64 / requests.max(1.0),
        "ns",
    );
    out.metric("fetch_engine_us", spans.fetch.per_unit_ns() / us, "us");
    out.metric("mutation_us_per_op", spans.mutate.per_unit_ns() / us, "us");
    out.metric("report_render_ms", spans.render.per_unit_ns() / ms, "ms");
    out.metric("engine_requests", requests, "count");
    out.metric(
        "batch_contexts",
        delta("core.traffic.batch.formed"),
        "count",
    );
    out.metric(
        "batch_reuse_ratio",
        delta("core.traffic.batch.table_reuses") / requests.max(1.0),
        "ratio",
    );
    out.metric(
        "cache_hit_ratio",
        (delta("core.traffic.hits.overhead") + delta("core.traffic.hits.isl")) / requests.max(1.0),
        "ratio",
    );
    out.metric("evictions", delta("core.traffic.evictions"), "count");
    out.metric("graph_builds", delta("lsn.graph.builds"), "count");
    out.metric("graph_patches", delta("lsn.graph.patches"), "count");
    out.metric(
        "routing_cache_hit_ratio",
        routing_hits / routing_lookups.max(1.0),
        "ratio",
    );
    let rss = spacecdn_engine::peak_rss_bytes().ok_or("peak RSS unavailable")?;
    out.metric("peak_rss_mb", rss as f64 / f64::from(1u32 << 20), "MB");
    Ok(out)
}
