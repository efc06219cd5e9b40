//! Extension experiment: availability under temporal fault schedules — how
//! resilient retrieval degrades as the fleet loses satellites and ISLs flap.
//!
//! Three sweeps, one JSON artefact (`results/FAULT_sweep.json`):
//!
//! 1. **Failure fraction** 0–40 %: permanent satellite kills, resolved with
//!    the escalating-retry fetch (a graceful `RetrievalRequest`). Kill sets are
//!    *nested* across fractions (same shuffled permutation, longer prefix)
//!    and requests/caches are identical, so the degradation curve is
//!    monotone by construction — and asserted to be, up to 30 %.
//! 2. **Flap rate**: a fraction of ISLs (plus seam links) cycle 120 s up /
//!    30 s down; fetches sample several instants across the flap cycle.
//! 3. **Figure 7 under faults**: the hop-budget CDF re-run under a 15 %
//!    kill schedule, showing where the paper's headline figure bends.
//! 4. **Dense timeline**: the flappiest schedule walked in `--epoch-step`
//!    second steps (default 10 s, sub-15 s capable) through delta-aware
//!    advancement, recording the true per-step advance-time series and the
//!    delta-vs-full split.

use serde::Serialize;
use spacecdn_bench::{banner, results_dir, scaled};
use spacecdn_core::network::LsnNetwork;
use spacecdn_core::placement::{PlacementPlan, PlacementStrategy};
use spacecdn_core::{delta_stats, set_delta_override};
use spacecdn_des::Percentiles;
use spacecdn_engine::set_snapshot_pool_override;
use spacecdn_geo::{DetRng, SimDuration, SimTime};
use spacecdn_lsn::{FaultPlan, FaultSchedule};
use spacecdn_measure::report::{format_table, write_json};
use spacecdn_suite::prelude::hop_bound_experiment;
use spacecdn_suite::prelude::{RetrievalRequest, RetrievalSource};
use spacecdn_terra::city::{cities, City};
use spacecdn_terra::starlink::covered_countries;

#[derive(Serialize)]
struct SweepRow {
    fraction: f64,
    space_hit_pct: f64,
    degraded_pct: f64,
    mean_attempts: f64,
    median_ms: f64,
    p90_ms: f64,
}

#[derive(Serialize)]
struct Fig7Row {
    max_hops: u32,
    pristine_median_ms: f64,
    faulted_median_ms: f64,
    pristine_ground_fallbacks: usize,
    faulted_ground_fallbacks: usize,
}

/// Dense-timeline advancement: per-step wall time for every epoch of the
/// walk (the series, not just a summary), plus the delta-vs-full split.
#[derive(Serialize)]
struct TimelineReport {
    epoch_step_s: u64,
    epochs: usize,
    delta_advances: u64,
    full_builds: u64,
    patched_edges: u64,
    repaired_vertices: u64,
    full_fallbacks: u64,
    advance_mean_us: f64,
    advance_max_us: f64,
    advance_us_series: Vec<f64>,
}

#[derive(Serialize)]
struct Report {
    schema: &'static str,
    failure_sweep: Vec<SweepRow>,
    flap_sweep: Vec<SweepRow>,
    fig7_under_faults: Vec<Fig7Row>,
    timeline: TimelineReport,
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

/// `--epoch-step SECS` → seconds between timeline epochs (default 10).
fn parse_epoch_step() -> u64 {
    flag_value("--epoch-step").map_or(10, |v| {
        v.parse()
            .unwrap_or_else(|_| panic!("--epoch-step expects seconds, got '{v}'"))
    })
}

/// Walk the flappy schedule in dense steps through delta advancement,
/// chaining each epoch's snapshot into the next, and record every step's
/// wall time. The snapshot pool is disabled for the walk so each step
/// pays its real advancement cost.
fn dense_timeline(net: &LsnNetwork, schedule: &FaultSchedule, epoch_step_s: u64) -> TimelineReport {
    let epochs = scaled(120).max(24);
    set_snapshot_pool_override(Some(false));
    set_delta_override(Some(true));
    let before = delta_stats();
    let mut series = Vec::with_capacity(epochs);
    let mut prev = None;
    for e in 0..epochs as u64 {
        // Offset past one full flap up-phase: a flap's first down edge is
        // at `phase + up`, so a walk from t = 0 would see no structural
        // change for the first two minutes.
        let t = SimTime::from_secs(300 + e * epoch_step_s);
        let started = std::time::Instant::now();
        let g = net
            .snapshot_from(t, &schedule.plan_at(t), prev.as_ref())
            .graph_handle();
        series.push(1e6 * started.elapsed().as_secs_f64());
        prev = Some(g);
    }
    let after = delta_stats();
    set_delta_override(None);
    set_snapshot_pool_override(None);
    TimelineReport {
        epoch_step_s,
        epochs,
        delta_advances: after.delta_advances - before.delta_advances,
        full_builds: after.full_builds - before.full_builds,
        patched_edges: after.patched_edges - before.patched_edges,
        repaired_vertices: after.repaired_vertices - before.repaired_vertices,
        full_fallbacks: after.full_fallbacks - before.full_fallbacks,
        advance_mean_us: series.iter().sum::<f64>() / series.len() as f64,
        advance_max_us: series.iter().fold(0.0f64, |a, &b| a.max(b)),
        advance_us_series: series,
    }
}

/// One sweep point: resolve `trials` city fetches per epoch against the
/// schedule lowered at that epoch. Request and cache randomness is keyed
/// by epoch only, so across sweep points only the faults vary.
fn sweep_point(
    net: &LsnNetwork,
    pool: &[&City],
    schedule_at: impl Fn(&mut DetRng) -> FaultSchedule,
    kill_stream: &str,
    epochs: &[u64],
    trials: usize,
) -> SweepRow {
    let mut lat = Percentiles::new();
    let mut total = 0usize;
    let mut space_hits = 0usize;
    let mut degraded = 0usize;
    let mut attempts = 0u64;
    for &t_secs in epochs {
        // The kill stream is shared across sweep points (the fraction is
        // applied *inside* `schedule_at`), so a heavier point's fault set
        // strictly extends a lighter one's.
        let mut kill = DetRng::new(17, kill_stream);
        let schedule = schedule_at(&mut kill);
        let t = SimTime::from_secs(t_secs);
        let snap = net.snapshot(t, &schedule.plan_at(t));
        let mut req = DetRng::new(19, &format!("sweep/req/{t_secs}"));
        // Copies are placed on the *intended* fleet; failures silently
        // remove them — exactly what an operator experiences.
        let caches = PlacementPlan::builder(PlacementStrategy::PerPlane { k: 4 })
            .seed(23 ^ t_secs)
            .build_single(net.constellation())
            .materialize(net.constellation());
        for _ in 0..trials {
            let city = *req.choose(pool).expect("pool");
            let out = RetrievalRequest::new(city.position()).execute(
                snap.graph(),
                net.access(),
                &caches,
                None,
            );
            let outcome = out.outcome.expect("graceful fetch always resolves");
            total += 1;
            attempts += u64::from(out.attempts);
            lat.add(outcome.rtt.ms());
            if outcome.source != RetrievalSource::Ground {
                space_hits += 1;
            }
            if out.degraded.is_some() {
                degraded += 1;
            }
        }
    }
    let pct = |n: usize| 100.0 * n as f64 / total.max(1) as f64;
    let median = lat.median().unwrap_or(f64::NAN);
    assert!(median.is_finite(), "sweep point produced no samples");
    SweepRow {
        fraction: 0.0, // caller fills in
        space_hit_pct: pct(space_hits),
        degraded_pct: pct(degraded),
        mean_attempts: attempts as f64 / total.max(1) as f64,
        median_ms: median,
        p90_ms: lat.quantile(0.9).unwrap_or(f64::NAN),
    }
}

fn row_cells(label: String, r: &SweepRow) -> Vec<String> {
    vec![
        label,
        format!("{:.1}%", r.space_hit_pct),
        format!("{:.1}%", r.degraded_pct),
        format!("{:.2}", r.mean_attempts),
        format!("{:.1}", r.median_ms),
        format!("{:.1}", r.p90_ms),
    ]
}

const SWEEP_HEADER: [&str; 6] = [
    "fault level",
    "served from space",
    "degraded",
    "mean attempts",
    "median ms",
    "p90 ms",
];

fn main() {
    banner(
        "Fault sweep — SpaceCDN under temporal fault schedules",
        "copies die with their satellites and routes detour around holes; \
         escalating retries and the ground fallback bound the damage",
    );
    let net = LsnNetwork::starlink();
    let covered = covered_countries();
    let pool: Vec<_> = cities()
        .iter()
        .filter(|c| covered.contains(&c.cc))
        .collect();
    let trials = scaled(600) / 3;
    let epochs = [0u64, 157, 314];
    let n_sats = net.constellation().len();

    // --- 1. Failure-fraction sweep ------------------------------------
    let mut failure_rows = Vec::new();
    let mut table = Vec::new();
    for failed in [0.0, 0.05, 0.1, 0.15, 0.2, 0.3, 0.4] {
        let mut row = sweep_point(
            &net,
            &pool,
            |kill| {
                let mut s = FaultSchedule::none();
                s.random_sat_failures(n_sats, failed, SimTime::EPOCH, kill);
                s
            },
            "sweep/kill",
            &epochs,
            trials,
        );
        row.fraction = failed;
        table.push(row_cells(format!("{:.0}% sats dead", failed * 100.0), &row));
        failure_rows.push(row);
    }
    println!("{}", format_table(&SWEEP_HEADER, &table));
    // Nested kill sets + identical requests/caches make degradation
    // monotone fetch-by-fetch (modulo terminal re-homing when an overhead
    // satellite dies, hence the half-point slack).
    for pair in failure_rows.windows(2) {
        if pair[1].fraction > 0.3 + 1e-9 {
            break;
        }
        assert!(
            pair[1].space_hit_pct <= pair[0].space_hit_pct + 0.5,
            "space hit rate rose with more failures: {:.1}% @ {:.0}% -> {:.1}% @ {:.0}%",
            pair[0].space_hit_pct,
            pair[0].fraction * 100.0,
            pair[1].space_hit_pct,
            pair[1].fraction * 100.0,
        );
        assert!(
            pair[1].mean_attempts + 1e-9 >= pair[0].mean_attempts,
            "escalation shortened with more failures",
        );
    }

    // --- 2. Flap-rate sweep -------------------------------------------
    // Flap phase origins are randomised per link, so sampling a handful of
    // instants across the 150 s up/down cycle sees both dwell states.
    let pristine = net.snapshot(SimTime::EPOCH, &FaultPlan::none());
    let flap_epochs = [0u64, 40, 95, 145];
    let mut flap_rows = Vec::new();
    let mut table = Vec::new();
    for flap in [0.0, 0.1, 0.25, 0.5] {
        let mut row = sweep_point(
            &net,
            &pool,
            |kill| {
                let mut s = FaultSchedule::none();
                s.random_isl_flaps(
                    pristine.graph(),
                    flap,
                    SimDuration::from_secs(120),
                    SimDuration::from_secs(30),
                    kill,
                );
                s.seam_churn(
                    pristine.graph(),
                    net.constellation(),
                    flap,
                    SimDuration::from_secs(120),
                    SimDuration::from_secs(30),
                    kill,
                );
                s
            },
            &format!("sweep/flap/{flap}"),
            &flap_epochs,
            trials,
        );
        row.fraction = flap;
        table.push(row_cells(
            format!("{:.0}% ISLs flapping", flap * 100.0),
            &row,
        ));
        flap_rows.push(row);
    }
    println!("{}", format_table(&SWEEP_HEADER, &table));

    // --- 3. Figure 7 under faults -------------------------------------
    let bounds = [1u32, 3, 5, 10];
    let fig7_trials = scaled(240);
    let mut pristine_fig7 =
        hop_bound_experiment(&bounds, fig7_trials, 2, 41, &FaultSchedule::none());
    let mut kill = DetRng::new(17, "sweep/fig7-kill");
    let mut schedule = FaultSchedule::none();
    schedule.random_sat_failures(n_sats, 0.15, SimTime::EPOCH, &mut kill);
    let mut faulted_fig7 = hop_bound_experiment(&bounds, fig7_trials, 2, 41, &schedule);
    let mut fig7_rows = Vec::new();
    let mut table = Vec::new();
    for (p, f) in pristine_fig7.iter_mut().zip(faulted_fig7.iter_mut()) {
        assert_eq!(p.max_hops, f.max_hops);
        assert!(
            f.ground_fallbacks >= p.ground_fallbacks,
            "faults reduced ground fallbacks at {} hops",
            p.max_hops,
        );
        let pm = p.latencies.median().unwrap_or(f64::NAN);
        let fm = f.latencies.median().unwrap_or(f64::NAN);
        table.push(vec![
            format!("{}", p.max_hops),
            format!("{pm:.1}"),
            format!("{fm:.1}"),
            format!("{}", p.ground_fallbacks),
            format!("{}", f.ground_fallbacks),
        ]);
        fig7_rows.push(Fig7Row {
            max_hops: p.max_hops,
            pristine_median_ms: pm,
            faulted_median_ms: fm,
            pristine_ground_fallbacks: p.ground_fallbacks,
            faulted_ground_fallbacks: f.ground_fallbacks,
        });
    }
    println!(
        "{}",
        format_table(
            &[
                "hop budget",
                "pristine median ms",
                "15% failed median ms",
                "pristine fallbacks",
                "15% failed fallbacks",
            ],
            &table,
        )
    );

    // --- 4. Dense timeline --------------------------------------------
    let epoch_step_s = parse_epoch_step();
    let mut kill = DetRng::new(17, "sweep/timeline-kill");
    let mut timeline_schedule = FaultSchedule::none();
    timeline_schedule.random_isl_flaps(
        pristine.graph(),
        0.25,
        SimDuration::from_secs(120),
        SimDuration::from_secs(30),
        &mut kill,
    );
    timeline_schedule.random_gsl_outages(
        n_sats,
        0.1,
        SimDuration::from_secs(1200),
        SimDuration::from_secs(180),
        &mut kill,
    );
    let timeline = dense_timeline(&net, &timeline_schedule, epoch_step_s);
    println!(
        "timeline: {} epochs x {} s — {:.1} us mean / {:.1} us max per advance \
         ({} delta, {} full builds, {} edges patched, {} fallbacks)",
        timeline.epochs,
        timeline.epoch_step_s,
        timeline.advance_mean_us,
        timeline.advance_max_us,
        timeline.delta_advances,
        timeline.full_builds,
        timeline.patched_edges,
        timeline.full_fallbacks
    );

    let report = Report {
        // v2 added the dense-timeline advancement section.
        schema: "spacecdn-fault-sweep-v2",
        failure_sweep: failure_rows,
        flap_sweep: flap_rows,
        fig7_under_faults: fig7_rows,
        timeline,
    };
    write_json(&results_dir().join("FAULT_sweep.json"), &report).expect("write json");
    println!("json: results/FAULT_sweep.json");
    spacecdn_bench::emit_metrics("fault_sweep");
}
