//! Routing data-plane microbenchmark: the flat CSR kernels versus a
//! faithful reimplementation of the pre-CSR data plane — nested
//! `Vec<Vec<IslEdge>>` adjacency, an `f64` `partial_cmp` min-heap, and a
//! fresh output allocation per call. Both sides compute single-source
//! Dijkstra distance tables and BFS hop levels from the same sources over
//! the same faulted Shell-1 snapshot; outputs are asserted bit-identical
//! before any timing is reported.

use serde::Serialize;
use spacecdn_bench::{banner, results_dir, scaled};
use spacecdn_core::{delta_stats, set_delta_override, DeltaStats, LsnNetwork};
use spacecdn_engine::set_snapshot_pool_override;
use spacecdn_geo::{DetRng, SimDuration, SimTime};
use spacecdn_lsn::{
    dijkstra_distances_into, hop_distances_into, AccessModel, FaultPlan, FaultSchedule, IslEdge,
    IslGraph,
};
use spacecdn_measure::report::write_json;
use spacecdn_orbit::shell::shells;
use spacecdn_orbit::{Constellation, SatIndex};
use spacecdn_terra::fiber::FiberModel;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::Arc;
use std::time::Instant;

/// The pre-CSR heap entry: raw `f64` cost compared through `partial_cmp`,
/// index tie-break for determinism.
#[derive(PartialEq)]
struct NestedHeapItem {
    cost: f64,
    sat: u32,
}
impl Eq for NestedHeapItem {}
impl Ord for NestedHeapItem {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .cost
            .partial_cmp(&self.cost)
            .expect("costs are finite")
            .then_with(|| other.sat.cmp(&self.sat))
    }
}
impl PartialOrd for NestedHeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Single-source Dijkstra over nested adjacency, old style: fresh
/// `dist`/`hops` vectors every call, pointer-chasing row access.
fn nested_dijkstra_distances(adjacency: &[Vec<IslEdge>], src: SatIndex) -> Vec<(f64, u32)> {
    let n = adjacency.len();
    let mut out = vec![(f64::INFINITY, u32::MAX); n];
    let mut heap = BinaryHeap::new();
    out[src.as_usize()] = (0.0, 0);
    heap.push(NestedHeapItem {
        cost: 0.0,
        sat: src.0,
    });
    while let Some(NestedHeapItem { cost, sat }) = heap.pop() {
        if cost > out[sat as usize].0 {
            continue;
        }
        let hops = out[sat as usize].1;
        for edge in &adjacency[sat as usize] {
            let next = cost + edge.length.0;
            if next < out[edge.to.as_usize()].0 {
                out[edge.to.as_usize()] = (next, hops + 1);
                heap.push(NestedHeapItem {
                    cost: next,
                    sat: edge.to.0,
                });
            }
        }
    }
    out
}

/// Single-source BFS hop levels over nested adjacency, old style: fresh
/// output vector and `VecDeque` every call.
fn nested_hop_distances(adjacency: &[Vec<IslEdge>], src: SatIndex) -> Vec<u32> {
    let mut out = vec![u32::MAX; adjacency.len()];
    let mut queue = VecDeque::new();
    out[src.as_usize()] = 0;
    queue.push_back(src);
    while let Some(sat) = queue.pop_front() {
        let level = out[sat.as_usize()];
        for edge in &adjacency[sat.as_usize()] {
            if out[edge.to.as_usize()] == u32::MAX {
                out[edge.to.as_usize()] = level + 1;
                queue.push_back(edge.to);
            }
        }
    }
    out
}

fn percent_faulted_graph() -> (Constellation, FaultPlan) {
    let constellation = Constellation::new(shells::starlink_shell1());
    let mut rng = DetRng::new(4242, "routing-bench-faults");
    let mut faults = FaultPlan::none();
    faults.fail_random_sats(constellation.len(), 0.05, &mut rng);
    (constellation, faults)
}

#[derive(Serialize)]
struct RoutingBench {
    satellites: usize,
    sources: usize,
    repetitions: usize,
    nested_dijkstra_s: f64,
    csr_dijkstra_s: f64,
    dijkstra_speedup: f64,
    nested_bfs_s: f64,
    csr_bfs_s: f64,
    bfs_speedup: f64,
    combined_speedup: f64,
    identical_output: bool,
    timeline: TimelineBench,
}

/// Dense-timeline advancement: walk a flappy fault schedule in sub-15 s
/// epoch steps, full rebuild vs delta patching, identical graphs proven
/// at checkpoints.
#[derive(Serialize)]
struct TimelineBench {
    epochs: usize,
    epoch_step_s: u64,
    rebuild_advance_s: f64,
    delta_advance_s: f64,
    timeline_speedup: f64,
    rebuild_step_mean_us: f64,
    delta_step_mean_us: f64,
    delta_step_max_us: f64,
    delta_advances: u64,
    full_builds: u64,
    patched_edges: u64,
    timeline_identical: bool,
}

/// A dense fault timeline over Shell 1: GSL outages flapping every few
/// minutes plus ISL flaps and seam churn, so epoch steps mix pure
/// time advancement with structural and mask-only plan changes.
fn timeline_schedule(c: &Constellation, pristine: &IslGraph) -> FaultSchedule {
    let mut rng = DetRng::new(1717, "routing-bench-timeline");
    let mut s = FaultSchedule::none();
    s.random_gsl_outages(
        c.len(),
        0.05,
        SimDuration::from_secs(1200),
        SimDuration::from_secs(180),
        &mut rng,
    );
    s.random_isl_flaps(
        pristine,
        0.02,
        SimDuration::from_secs(240),
        SimDuration::from_secs(60),
        &mut rng,
    );
    s.seam_churn(
        pristine,
        c,
        0.3,
        SimDuration::from_secs(300),
        SimDuration::from_secs(45),
        &mut rng,
    );
    s
}

/// Walk `epochs` dense steps through `snapshot_from`, chaining each
/// epoch's graph into the next advancement, and return the total wall
/// time plus per-step seconds.
fn timed_walk(
    net: &LsnNetwork,
    plans: &[(SimTime, FaultPlan)],
    delta: bool,
    sink: &mut u64,
) -> (f64, Vec<f64>) {
    set_delta_override(Some(delta));
    let mut per_step = Vec::with_capacity(plans.len());
    let mut prev: Option<Arc<IslGraph>> = None;
    let start = Instant::now();
    for (t, plan) in plans {
        let s = Instant::now();
        let g = net.snapshot_from(*t, plan, prev.as_ref()).graph_handle();
        per_step.push(s.elapsed().as_secs_f64());
        *sink = sink.wrapping_add(g.edge_count() as u64);
        prev = Some(g);
    }
    let total = start.elapsed().as_secs_f64();
    set_delta_override(None);
    (total, per_step)
}

fn timeline_bench(sink: &mut u64) -> TimelineBench {
    let constellation = Constellation::new(shells::starlink_shell1());
    let pristine = IslGraph::build(&constellation, SimTime::EPOCH, &FaultPlan::none());
    let schedule = timeline_schedule(&constellation, &pristine);
    let net = LsnNetwork::new(
        Constellation::new(shells::starlink_shell1()),
        Vec::new(),
        AccessModel::default(),
        FiberModel::default(),
    );

    let epoch_step_s = 5u64;
    let epochs = scaled(240).max(48);
    // Offset past one full flap up-phase (a flap's first down edge is at
    // `phase + up`), so even a short quick-mode walk sees structural steps.
    let plans: Vec<(SimTime, FaultPlan)> = (0..epochs as u64)
        .map(|e| {
            let t = SimTime::from_secs(600 + e * epoch_step_s);
            (t, schedule.plan_at(t))
        })
        .collect();

    // The pool would memoise the first walk and hand the second one free
    // graphs; both walks must pay their own advancement cost.
    set_snapshot_pool_override(Some(false));

    // Warm-up pass (page in code and allocator state), then timed walks.
    let _ = timed_walk(&net, &plans[..plans.len().min(16)], true, sink);
    let (rebuild_advance_s, rebuild_steps) = timed_walk(&net, &plans, false, sink);
    let before = delta_stats();
    let (delta_advance_s, delta_steps) = timed_walk(&net, &plans, true, sink);
    let after = delta_stats();

    // Untimed verification walk: patched checkpoints vs fresh builds.
    set_delta_override(Some(true));
    let mut identical = true;
    let mut prev: Option<Arc<IslGraph>> = None;
    for (i, (t, plan)) in plans.iter().enumerate() {
        let g = net.snapshot_from(*t, plan, prev.as_ref()).graph_handle();
        if i % 40 == 0 || i + 1 == plans.len() {
            let fresh = IslGraph::build(&constellation, *t, plan);
            let (go, gn, gl) = g.csr();
            let (fo, fn_, fl) = fresh.csr();
            identical &= go == fo
                && gn == fn_
                && gl.len() == fl.len()
                && gl.iter().zip(fl).all(|(a, b)| a.to_bits() == b.to_bits())
                && (0..g.len() as u32).all(|s| {
                    let s = SatIndex(s);
                    g.is_alive(s) == fresh.is_alive(s) && g.gsl_alive(s) == fresh.gsl_alive(s)
                });
        }
        prev = Some(g);
    }
    set_delta_override(None);
    set_snapshot_pool_override(None);
    assert!(identical, "delta walk diverged from fresh rebuilds");

    let stats = DeltaStats {
        delta_advances: after.delta_advances - before.delta_advances,
        full_builds: after.full_builds - before.full_builds,
        patched_edges: after.patched_edges - before.patched_edges,
        advance_ns_total: after.advance_ns_total - before.advance_ns_total,
    };
    let mean_us = |steps: &[f64]| 1e6 * steps.iter().sum::<f64>() / steps.len() as f64;
    TimelineBench {
        epochs,
        epoch_step_s,
        rebuild_advance_s,
        delta_advance_s,
        timeline_speedup: rebuild_advance_s / delta_advance_s,
        rebuild_step_mean_us: mean_us(&rebuild_steps),
        delta_step_mean_us: mean_us(&delta_steps),
        delta_step_max_us: 1e6 * delta_steps.iter().fold(0.0f64, |a, &b| a.max(b)),
        delta_advances: stats.delta_advances,
        full_builds: stats.full_builds,
        patched_edges: stats.patched_edges,
        timeline_identical: identical,
    }
}

fn main() {
    banner(
        "Routing — CSR data plane vs nested-Vec baseline",
        "(infrastructure, no paper counterpart) single-source Dijkstra + BFS \
         kernels over a faulted Shell-1 snapshot, byte-identical outputs",
    );

    let (constellation, faults) = percent_faulted_graph();
    let graph = IslGraph::build(&constellation, SimTime::from_secs(431), &faults);
    // Nested baseline adjacency, materialised from the same snapshot (the
    // property suite proves the CSR rows are edge-for-edge identical to
    // the old builder's output, so this view IS the old data plane's).
    let adjacency: Vec<Vec<IslEdge>> = (0..graph.len())
        .map(|i| graph.neighbors(SatIndex(i as u32)).iter().collect())
        .collect();

    let n = graph.len();
    let sources: Vec<SatIndex> = (0..n)
        .step_by(13)
        .map(|i| SatIndex(i as u32))
        .filter(|&s| graph.is_alive(s))
        .take(scaled(96).max(8))
        .collect();
    let reps = scaled(8).max(2);

    // Identity check first: every kernel pair must agree bit-for-bit.
    let mut identical = true;
    let mut km_buf: Vec<(f64, u32)> = Vec::new();
    let mut hop_buf: Vec<u32> = Vec::new();
    for &src in &sources {
        dijkstra_distances_into(&graph, src, &mut km_buf);
        let nested_km = nested_dijkstra_distances(&adjacency, src);
        identical &= km_buf.len() == nested_km.len()
            && km_buf
                .iter()
                .zip(&nested_km)
                .all(|(a, b)| a.0.to_bits() == b.0.to_bits() && a.1 == b.1);
        hop_distances_into(&graph, src, &mut hop_buf);
        identical &= hop_buf == nested_hop_distances(&adjacency, src);
    }
    assert!(identical, "CSR kernels diverged from the nested baseline");

    // Timed runs. Fold a checksum through each loop so the work can't be
    // optimised away.
    let mut sink = 0u64;

    let t = Instant::now();
    for _ in 0..reps {
        for &src in &sources {
            let table = nested_dijkstra_distances(&adjacency, src);
            sink = sink.wrapping_add(table[n - 1].0.to_bits());
        }
    }
    let nested_dijkstra_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    for _ in 0..reps {
        for &src in &sources {
            dijkstra_distances_into(&graph, src, &mut km_buf);
            sink = sink.wrapping_add(km_buf[n - 1].0.to_bits());
        }
    }
    let csr_dijkstra_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    for _ in 0..reps {
        for &src in &sources {
            let hops = nested_hop_distances(&adjacency, src);
            sink = sink.wrapping_add(hops[n - 1] as u64);
        }
    }
    let nested_bfs_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    for _ in 0..reps {
        for &src in &sources {
            hop_distances_into(&graph, src, &mut hop_buf);
            sink = sink.wrapping_add(hop_buf[n - 1] as u64);
        }
    }
    let csr_bfs_s = t.elapsed().as_secs_f64();

    let dijkstra_speedup = nested_dijkstra_s / csr_dijkstra_s;
    let bfs_speedup = nested_bfs_s / csr_bfs_s;
    let combined_speedup = (nested_dijkstra_s + nested_bfs_s) / (csr_dijkstra_s + csr_bfs_s);

    println!(
        "dijkstra: nested {nested_dijkstra_s:7.3} s  csr {csr_dijkstra_s:7.3} s  \
         ({dijkstra_speedup:.2}x)"
    );
    println!("bfs:      nested {nested_bfs_s:7.3} s  csr {csr_bfs_s:7.3} s  ({bfs_speedup:.2}x)");
    println!("combined: {combined_speedup:.2}x   outputs identical: {identical}   [{sink:x}]");

    let timeline = timeline_bench(&mut sink);
    println!(
        "timeline: {} epochs x {} s  rebuild {:7.3} s  delta {:7.3} s  ({:.2}x)",
        timeline.epochs,
        timeline.epoch_step_s,
        timeline.rebuild_advance_s,
        timeline.delta_advance_s,
        timeline.timeline_speedup
    );
    println!(
        "          per step: rebuild {:7.1} us  delta {:7.1} us (max {:7.1} us)",
        timeline.rebuild_step_mean_us, timeline.delta_step_mean_us, timeline.delta_step_max_us
    );
    println!(
        "          delta advances {} / full builds {}  patched edges {}  identical: {}",
        timeline.delta_advances,
        timeline.full_builds,
        timeline.patched_edges,
        timeline.timeline_identical
    );

    write_json(
        &results_dir().join("BENCH_routing.json"),
        &RoutingBench {
            satellites: n,
            sources: sources.len(),
            repetitions: reps,
            nested_dijkstra_s,
            csr_dijkstra_s,
            dijkstra_speedup,
            nested_bfs_s,
            csr_bfs_s,
            bfs_speedup,
            combined_speedup,
            identical_output: identical,
            timeline,
        },
    )
    .expect("write json");
    println!("json: results/BENCH_routing.json");
    spacecdn_bench::emit_metrics("routing_bench");
}
