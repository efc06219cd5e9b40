//! Traffic engine benchmark: constellation-scale streaming workload —
//! Zipf demand from population-weighted covered cities, pull-through
//! per-satellite LRU+TTL caches across every configured Starlink shell,
//! swept across thermal duty-cycle fractions. Reports sustained
//! requests/sec, peak resident memory, cache hit ratio, origin offload,
//! per-shell breakdowns and the fetch-latency CDF per fraction, plus the
//! per-burst split of the burst geometry layer read from its racy phase
//! timers (source table, table warm, geometry assembly, shard fan-out).
//!
//! Flags: `--quick` (CI-sized run), `--shells all|0,1,...` (which
//! Starlink 2024 shells to simulate; default all four), `--requests N`
//! (requests per duty fraction; default 4M full / 50k quick),
//! `--epoch-step SECS` (seconds between topology epochs; sub-15 s steps
//! exercise delta advancement densely).

use serde::Serialize;
use spacecdn_bench::{banner, quick_mode, results_dir};
use spacecdn_core::delta_stats;
use spacecdn_des::Percentiles;
use spacecdn_engine::peak_rss_bytes;
use spacecdn_geo::SimDuration;
use spacecdn_measure::report::{format_table, write_json};
use spacecdn_measure::traffic::traffic_campaign_each;
use spacecdn_suite::prelude::{FaultSchedule, TrafficCampaignConfig};
use spacecdn_telemetry::metrics_enabled;
use std::time::Instant;

/// Schema tag: v2 added `shells`, `per_shell` rows, `requests_per_fraction`
/// and `peak_rss_bytes`; v3 added `epoch_step_s` and the `advance` block
/// (delta-vs-full epoch advancement counts and per-step advance time); v4
/// added the `phases` block (per-burst medians of the burst phase timers);
/// v5 dropped `repaired_vertices` and `full_fallbacks` from `advance`.
const SCHEMA: &str = "spacecdn-traffic-v5";

/// The racy phase timers of a traffic burst, in [`PhaseTimes`] order.
const PHASE_TIMERS: [&str; 4] = [
    "measure.traffic.source_table_ns",
    "core.traffic.table_warm_ns",
    "core.traffic.geometry_ns",
    "core.traffic.shard_fan_out_ns",
];

#[derive(Serialize)]
struct ShellRow {
    shell: usize,
    overhead_hits: u64,
    isl_hits: u64,
    inserts: u64,
}

#[derive(Serialize)]
struct FractionRow {
    duty_fraction: f64,
    requests: u64,
    hit_ratio: f64,
    origin_offload: f64,
    overhead_hits: u64,
    isl_hits: u64,
    origin_fetches: u64,
    evictions: u64,
    ttl_expiries: u64,
    invalidations: u64,
    p10_ms: f64,
    median_ms: f64,
    p90_ms: f64,
    per_shell: Vec<ShellRow>,
    latency_cdf: Vec<(f64, f64)>,
}

/// How the campaign's epoch snapshots were advanced: delta patches vs
/// full rebuilds, with the delta path's mean per-step advance time
/// (derived from `core.routing.delta.advance_ns`).
#[derive(Serialize)]
struct AdvanceStats {
    delta_advances: u64,
    full_builds: u64,
    patched_edges: u64,
    delta_advance_mean_us: f64,
}

/// Per-burst medians of the burst phase timers, in milliseconds. The
/// campaign builds its source table once and reuses it for every duty
/// fraction's burst, so `source_table_ms` is the mean over its
/// `source_table_builds` builds; the other three time every burst.
#[derive(Serialize)]
struct PhaseTimes {
    bursts: usize,
    source_table_builds: u64,
    source_table_ms: f64,
    table_warm_ms: f64,
    geometry_ms: f64,
    shard_fan_out_ms: f64,
}

/// `(sample count, sum in ns)` of each [`PHASE_TIMERS`] histogram so far.
fn phase_totals() -> [(u64, u64); 4] {
    let report = spacecdn_telemetry::snapshot();
    PHASE_TIMERS.map(|name| {
        report
            .histograms
            .iter()
            .find(|h| h.name == name)
            .map_or((0, 0), |h| (h.count, h.sum))
    })
}

#[derive(Serialize)]
struct TrafficBench {
    schema: &'static str,
    shells: Vec<usize>,
    epochs: usize,
    epoch_step_s: u64,
    streams: usize,
    catalog_size: usize,
    requests_per_fraction: u64,
    total_requests: u64,
    wall_s: f64,
    requests_per_sec: f64,
    peak_rss_bytes: Option<u64>,
    advance: AdvanceStats,
    /// `None` when telemetry is off (the timers then record nothing).
    phases: Option<PhaseTimes>,
    fractions: Vec<FractionRow>,
}

/// `--shells all|0,1,...` → shell indices (default: all four 2024 shells).
fn parse_shells() -> Vec<usize> {
    let Some(spec) = flag_value("--shells") else {
        return vec![0, 1, 2, 3];
    };
    if spec == "all" {
        return vec![0, 1, 2, 3];
    }
    spec.split(',')
        .map(|s| {
            s.trim()
                .parse()
                .unwrap_or_else(|_| panic!("--shells expects 'all' or indices, got '{s}'"))
        })
        .collect()
}

/// `--epoch-step SECS` → seconds between topology epochs (sub-15 s steps
/// exercise the delta advancement path densely).
fn parse_epoch_step() -> Option<u64> {
    flag_value("--epoch-step").map(|v| {
        v.parse()
            .unwrap_or_else(|_| panic!("--epoch-step expects seconds, got '{v}'"))
    })
}

/// `--requests N` → requests per duty fraction.
fn parse_requests() -> u64 {
    flag_value("--requests").map_or_else(
        || if quick_mode() { 50_000 } else { 4_000_000 },
        |v| {
            v.parse()
                .unwrap_or_else(|_| panic!("--requests expects a count, got '{v}'"))
        },
    )
}

/// The value following `name` on the command line, if present.
fn flag_value(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter().position(|a| a == name).map(|i| {
        args.get(i + 1)
            .unwrap_or_else(|| panic!("{name} needs a value"))
            .clone()
    })
}

fn main() {
    banner(
        "Traffic engine — constellation-scale streaming Zipf workload",
        "(infrastructure, extends Fig 8) cache hit ratio and origin offload \
         across all Starlink shells as thermal duty cycling throttles caches",
    );

    let shells = parse_shells();
    let requests = parse_requests();
    let mut cfg = TrafficCampaignConfig {
        duty_fractions: vec![1.0, 0.6, 0.3],
        requests,
        epochs: if quick_mode() { 3 } else { 4 },
        shells: shells.clone(),
        ..TrafficCampaignConfig::default()
    };
    if let Some(step) = parse_epoch_step() {
        cfg.epoch_step = SimDuration::from_secs(step);
    }
    let epoch_step_s = cfg.epoch_step.0 / 1_000_000_000;
    println!(
        "shells {:?} · {} requests/fraction · {} epochs · {} s epoch step",
        shells, requests, cfg.epochs, epoch_step_s
    );

    let advance_before = delta_stats();
    // Per-burst phase samples: each burst's timer sums since the last one.
    // The source table is built before the first burst, so its builds are
    // read from the whole campaign's delta instead.
    let phases_before = phase_totals();
    let mut last = phases_before;
    let mut per_burst: [Percentiles; 3] = Default::default();
    let t0 = Instant::now();
    let points = traffic_campaign_each(&cfg, &FaultSchedule::none(), |_| {
        let now = phase_totals();
        for (i, samples) in per_burst.iter_mut().enumerate() {
            samples.add((now[i + 1].1 - last[i + 1].1) as f64 / 1e6);
        }
        last = now;
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let (table_builds, table_ns) = (
        last[0].0 - phases_before[0].0,
        last[0].1 - phases_before[0].1,
    );
    let phases = metrics_enabled().then(|| {
        let [warm, geometry, fan_out] =
            per_burst.each_mut().map(|p| p.median().unwrap_or(f64::NAN));
        PhaseTimes {
            bursts: per_burst[0].len(),
            source_table_builds: table_builds,
            source_table_ms: table_ns as f64 / 1e6 / table_builds.max(1) as f64,
            table_warm_ms: warm,
            geometry_ms: geometry,
            shard_fan_out_ms: fan_out,
        }
    });
    let advance_after = delta_stats();
    let total_requests: u64 = points.iter().map(|p| p.report.requests).sum();
    let requests_per_sec = total_requests as f64 / wall_s;

    let mut rows = Vec::new();
    let mut fractions = Vec::new();
    for mut p in points {
        let median = p.latencies.median().unwrap_or(f64::NAN);
        rows.push(vec![
            format!("{:.0}%", p.fraction * 100.0),
            format!("{:.3}", p.hit_ratio),
            format!("{:.3}", p.origin_offload),
            format!("{median:.1}"),
            format!("{:.1}", p.latencies.quantile(0.9).unwrap_or(f64::NAN)),
            format!("{}", p.report.evictions),
            format!("{}", p.report.ttl_expiries),
        ]);
        fractions.push(FractionRow {
            duty_fraction: p.fraction,
            requests: p.report.requests,
            hit_ratio: p.hit_ratio,
            origin_offload: p.origin_offload,
            overhead_hits: p.report.overhead_hits,
            isl_hits: p.report.isl_hits,
            origin_fetches: p.report.origin_fetches,
            evictions: p.report.evictions,
            ttl_expiries: p.report.ttl_expiries,
            invalidations: p.report.invalidations,
            p10_ms: p.latencies.quantile(0.1).unwrap_or(f64::NAN),
            median_ms: median,
            p90_ms: p.latencies.quantile(0.9).unwrap_or(f64::NAN),
            per_shell: p
                .report
                .per_shell
                .iter()
                .zip(&shells)
                .map(|(s, &shell)| ShellRow {
                    shell,
                    overhead_hits: s.overhead_hits,
                    isl_hits: s.isl_hits,
                    inserts: s.inserts,
                })
                .collect(),
            latency_cdf: p.latencies.cdf(40).points,
        });
    }
    println!(
        "{}",
        format_table(
            &[
                "active caches",
                "hit ratio",
                "origin offload",
                "median ms",
                "p90 ms",
                "evictions",
                "ttl expiries",
            ],
            &rows,
        )
    );
    if let Some(full) = fractions.first() {
        let shell_rows: Vec<Vec<String>> = full
            .per_shell
            .iter()
            .map(|s| {
                vec![
                    format!("shell {}", s.shell),
                    format!("{}", s.overhead_hits),
                    format!("{}", s.isl_hits),
                    format!("{}", s.inserts),
                ]
            })
            .collect();
        println!(
            "{}",
            format_table(
                &["full duty", "overhead hits", "isl hits", "inserts"],
                &shell_rows,
            )
        );
    }
    let da = advance_after.delta_advances - advance_before.delta_advances;
    let advance = AdvanceStats {
        delta_advances: da,
        full_builds: advance_after.full_builds - advance_before.full_builds,
        patched_edges: advance_after.patched_edges - advance_before.patched_edges,
        delta_advance_mean_us: (advance_after.advance_ns_total - advance_before.advance_ns_total)
            as f64
            / 1e3
            / da.max(1) as f64,
    };
    println!(
        "epoch advancement: {} delta / {} full builds · {:.1} us mean delta step \
         ({} edges patched)",
        advance.delta_advances,
        advance.full_builds,
        advance.delta_advance_mean_us,
        advance.patched_edges
    );
    match &phases {
        Some(p) => println!(
            "burst phases (median of {} bursts): table warm {:.1} ms · geometry {:.1} ms · \
             shard fan-out {:.1} ms; source table {:.1} ms ({} build{})",
            p.bursts,
            p.table_warm_ms,
            p.geometry_ms,
            p.shard_fan_out_ms,
            p.source_table_ms,
            p.source_table_builds,
            if p.source_table_builds == 1 { "" } else { "s" }
        ),
        None => println!("burst phases: telemetry off (SPACECDN_METRICS=0), not timed"),
    }
    let peak_rss = peak_rss_bytes();
    println!("{total_requests} requests in {wall_s:.2} s — {requests_per_sec:.0} req/s sustained");
    if let Some(rss) = peak_rss {
        println!(
            "peak resident memory: {:.0} MiB",
            rss as f64 / (1 << 20) as f64
        );
    }

    write_json(
        &results_dir().join("BENCH_traffic.json"),
        &TrafficBench {
            schema: SCHEMA,
            shells,
            epochs: cfg.epochs,
            epoch_step_s,
            streams: cfg.streams,
            catalog_size: cfg.catalog_size,
            requests_per_fraction: requests,
            total_requests,
            wall_s,
            requests_per_sec,
            peak_rss_bytes: peak_rss,
            advance,
            phases,
            fractions,
        },
    )
    .expect("write json");
    println!("json: results/BENCH_traffic.json");
    spacecdn_bench::emit_metrics("traffic");
}
