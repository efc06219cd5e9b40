//! Differential oracle for delta-aware epoch advancement.
//!
//! The PR-4 oracle proves one frozen snapshot matches a naive reference
//! pipeline. This suite proves the *timeline* dimension: walking a fault
//! schedule epoch by epoch through the delta path — CSR patching, spatial
//! bound inflation, a fresh routing cache per snapshot — produces graphs
//! and cached routing balls **bit-identical** to rebuilding everything
//! from scratch at every single step. Any last-ulp divergence in a
//! patched length mantissa, a reordered adjacency row, a stale mask bit,
//! or a routing ball carried over from the previous snapshot fails here
//! before it can skew a campaign artefact.

use spacecdn_core::{delta_stats, set_delta_override, LsnNetwork};
use spacecdn_engine::set_snapshot_pool_override;
use spacecdn_geo::{DetRng, Geodetic, Latency, SimTime};
use spacecdn_lsn::{AccessModel, FallbackCut, FaultPlan, IslGraph, RoutingBall, SourceTables};
use spacecdn_orbit::{Constellation, SatIndex};
use spacecdn_terra::fiber::FiberModel;
use std::sync::{Arc, Mutex};

mod common;
use common::{random_schedule, small_shell};

/// Delta and pool overrides are process-wide; timeline tests take this
/// lock so their override windows never interleave.
static OVERRIDE_LOCK: Mutex<()> = Mutex::new(());

fn shell_net(shell: spacecdn_orbit::shell::ShellConfig) -> LsnNetwork {
    LsnNetwork::new(
        Constellation::new(shell),
        Vec::new(),
        AccessModel::default(),
        FiberModel::default(),
    )
}

/// Every observable of the graph, compared to the bit: instant, CSR
/// adjacency (order and length mantissas), masks, positions, overhead
/// selection through the (possibly drift-inflated) spatial index.
fn assert_graphs_identical(label: &str, got: &IslGraph, want: &IslGraph) {
    assert_eq!(got.time(), want.time(), "{label}: epoch diverges");
    assert_eq!(got.len(), want.len(), "{label}: size diverges");
    let (go, gn, gl) = got.csr();
    let (wo, wn, wl) = want.csr();
    assert_eq!(go, wo, "{label}: CSR offsets diverge");
    assert_eq!(gn, wn, "{label}: CSR neighbour order diverges");
    for (k, (a, b)) in gl.iter().zip(wl).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{label}: length mantissa diverges at edge {k}"
        );
    }
    for i in 0..got.len() as u32 {
        let s = SatIndex(i);
        assert_eq!(got.is_alive(s), want.is_alive(s), "{label}: alive bit {i}");
        assert_eq!(
            got.gsl_alive(s),
            want.gsl_alive(s),
            "{label}: servable bit {i}"
        );
        let (gp, wp) = (got.position(s), want.position(s));
        assert_eq!(gp.x.to_bits(), wp.x.to_bits(), "{label}: pos x bits {i}");
        assert_eq!(gp.y.to_bits(), wp.y.to_bits(), "{label}: pos y bits {i}");
        assert_eq!(gp.z.to_bits(), wp.z.to_bits(), "{label}: pos z bits {i}");
    }
    for (lat, lon) in [(0.0, 0.0), (48.1, 11.6), (-33.9, 151.2), (64.1, -21.9)] {
        let g = Geodetic::ground(lat, lon);
        assert_eq!(
            got.nearest_alive(g),
            want.nearest_alive(g),
            "{label}: overhead selection diverges at ({lat}, {lon})"
        );
    }
}

/// The ball each source is warmed and read with: the whole component,
/// a 3-hop ball, or a whole-radius ball cut at a 40 ms fallback (the
/// test shells' links are thousands of km long, so the cut fires).
fn ball_query(k: usize) -> (u32, Option<FallbackCut>) {
    match k % 3 {
        0 => (u32::MAX, None),
        1 => (3, None),
        _ => (
            u32::MAX,
            Some(FallbackCut {
                user_prop: Latency::from_ms(4.0),
                fallback: Latency::from_ms(40.0),
            }),
        ),
    }
}

fn ball(g: &IslGraph, k: usize, src: SatIndex) -> RoutingBall {
    match ball_query(k) {
        (radius, None) => g.routing_tables_within(src, radius),
        (radius, Some(cut)) => g.routing_tables_cut(src, radius, cut),
    }
}

/// Warm `g`'s routing cache with every source's ball.
fn warm_balls(g: &IslGraph, sources: &[SatIndex]) {
    for (k, &src) in sources.iter().enumerate() {
        ball(g, k, src);
    }
}

/// Each source's ball read through `got`'s cache vs a cold full-table
/// compute on the fresh build: members exactly the satellites within the
/// radius that the cut keeps, with their km mantissas, kilometre-optimal
/// route hops and BFS levels; everything else unreachable. Returns how
/// many satellites the cuts dropped.
fn assert_balls_identical(
    label: &str,
    got: &IslGraph,
    fresh: &IslGraph,
    sources: &[SatIndex],
) -> usize {
    let mut dropped = 0;
    for (k, &src) in sources.iter().enumerate() {
        let (radius, cut) = ball_query(k);
        let have = ball(got, k, src);
        let want = SourceTables::compute(fresh, src);
        for i in 0..fresh.len() {
            let dst = SatIndex(i as u32);
            let (km, route) = have.km(dst);
            let within = want.hops[i] <= radius;
            let cut_off = cut.is_some_and(|c| c.fires(want.km[i].0));
            if within && !cut_off {
                assert_eq!(
                    km.to_bits(),
                    want.km[i].0.to_bits(),
                    "{label}: km bits diverge (src {src:?}, dst {i})"
                );
                assert_eq!(
                    route, want.km[i].1,
                    "{label}: route hops diverge (src {src:?}, dst {i})"
                );
                assert_eq!(
                    have.hops(dst),
                    want.hops[i],
                    "{label}: BFS level diverges (src {src:?}, dst {i})"
                );
            } else {
                dropped += usize::from(within && want.hops[i] != u32::MAX);
                assert_eq!(
                    (have.hops(dst), route),
                    (u32::MAX, u32::MAX),
                    "{label}: non-member reads reachable (src {src:?}, dst {i})"
                );
                assert!(
                    km.is_infinite(),
                    "{label}: non-member km (src {src:?}, dst {i})"
                );
            }
        }
    }
    dropped
}

/// The main sweep: ≥200 randomized timeline steps across ~24 randomized
/// (shell × schedule) walks, each step advanced through the delta path
/// and compared bit-for-bit against a from-scratch rebuild — with the
/// routing cache warmed on every intermediate graph, so a ball carried
/// into the next snapshot's cache would be read, and caught.
#[test]
fn timeline_walk_matches_fresh_rebuild_bit_for_bit() {
    let _guard = OVERRIDE_LOCK.lock().unwrap();
    set_snapshot_pool_override(Some(false));
    set_delta_override(Some(true));
    let before = delta_stats();

    const WALKS: usize = 24;
    const STEPS: usize = 10;
    let mut total_steps = 0usize;
    let mut dropped = 0usize;
    for walk in 0..WALKS {
        let mut rng = DetRng::new(9000 + walk as u64, "timeline-oracle/walk");
        let shell = small_shell(&mut rng);
        let net = shell_net(shell);
        let c = net.constellation();
        let pristine = IslGraph::build(c, SimTime::EPOCH, &FaultPlan::none());
        let schedule = random_schedule(c, &pristine, &mut rng);
        let sources: Vec<SatIndex> = (0..c.len() as u32).step_by(2).map(SatIndex).collect();

        let mut t = SimTime(rng.uniform(0.0, 3_600_000.0) as u64);
        let mut cur: Arc<IslGraph> = net.snapshot(t, &schedule.plan_at(t)).graph_handle();
        for step in 0..STEPS {
            warm_balls(&cur, &sources);
            // Mostly dense sub-15 s steps, sometimes a same-instant step
            // (epoch boundary replays) or a long jump.
            let dt = match rng.index(8) {
                0 => 0,
                7 => rng.uniform(60_000.0, 600_000.0) as u64,
                _ => rng.uniform(1_000.0, 15_000.0) as u64,
            };
            t = SimTime(t.0 + dt);
            let plan = schedule.plan_at(t);
            let next = net.snapshot_from(t, &plan, Some(&cur)).graph_handle();
            let fresh = IslGraph::build(c, t, &plan);
            let label = format!("walk {walk} step {step} (dt {dt} ms)");
            assert_graphs_identical(&label, &next, &fresh);
            dropped += assert_balls_identical(&label, &next, &fresh, &sources);
            cur = next;
            total_steps += 1;
        }
    }
    assert!(total_steps >= 200, "only {total_steps} timeline steps run");
    assert!(dropped > 0, "no cut ever dropped a member");

    // The walk must actually have gone through the delta path.
    let after = delta_stats();
    assert!(
        after.delta_advances - before.delta_advances >= total_steps as u64,
        "delta path not taken: {} advances for {total_steps} steps",
        after.delta_advances - before.delta_advances
    );

    set_delta_override(None);
    set_snapshot_pool_override(None);
}

/// Same-instant pure-removal steps over a warmed cache: the patched
/// graph and the balls its cache serves must land on exactly the fresh
/// build's graph and tables. A lowered schedule cannot reach this step
/// (plans only change *across* instants), so it gets a dedicated walk
/// with hand-stepped fault plans.
#[test]
fn same_instant_removals_match_fresh_rebuild_bit_for_bit() {
    let _guard = OVERRIDE_LOCK.lock().unwrap();
    set_snapshot_pool_override(Some(false));
    set_delta_override(Some(true));
    let before = delta_stats();
    let mut steps = 0u64;
    let mut dropped = 0usize;

    for case in 0..16u64 {
        let mut rng = DetRng::new(5000 + case, "timeline-oracle/removal");
        let shell = small_shell(&mut rng);
        let net = shell_net(shell);
        let c = net.constellation();
        let t = SimTime(rng.uniform(0.0, 3_600_000.0) as u64);
        let sources: Vec<SatIndex> = (0..c.len() as u32).step_by(2).map(SatIndex).collect();

        let mut plan = FaultPlan::none();
        let mut cur: Arc<IslGraph> = net.snapshot(t, &plan).graph_handle();
        // Kill satellites and links one batch at a time without moving the
        // clock: each step is a pure removal on a warmed cache.
        for step in 0..4 {
            warm_balls(&cur, &sources);
            for _ in 0..=rng.index(2) {
                plan.fail_sat(SatIndex(rng.index(c.len()) as u32));
            }
            let a = SatIndex(rng.index(c.len()) as u32);
            let b = SatIndex((a.0 + 1) % c.len() as u32);
            plan.fail_link(a, b);
            let next = net.snapshot_from(t, &plan, Some(&cur)).graph_handle();
            let fresh = IslGraph::build(c, t, &plan);
            let label = format!("removal case {case} step {step}");
            assert_graphs_identical(&label, &next, &fresh);
            dropped += assert_balls_identical(&label, &next, &fresh, &sources);
            cur = next;
            steps += 1;
        }
    }
    assert!(dropped > 0, "no cut ever dropped a member");

    // Every step must have gone through the delta path.
    let after = delta_stats();
    assert!(
        after.delta_advances - before.delta_advances >= steps,
        "delta path not taken"
    );

    set_delta_override(None);
    set_snapshot_pool_override(None);
}

/// The kill switch is inert on results: a delta-on walk and a delta-off
/// walk over the same schedule produce bit-identical graphs and balls at
/// every epoch.
#[test]
fn kill_switch_walks_are_bit_identical() {
    let _guard = OVERRIDE_LOCK.lock().unwrap();
    set_snapshot_pool_override(Some(false));

    let mut rng = DetRng::new(77, "timeline-oracle/kill-switch");
    let shell = small_shell(&mut rng);
    let net = shell_net(shell);
    let c = net.constellation();
    let pristine = IslGraph::build(c, SimTime::EPOCH, &FaultPlan::none());
    let schedule = random_schedule(c, &pristine, &mut rng);
    let epochs: Vec<SimTime> = (0..12u64).map(|e| SimTime::from_secs(e * 7)).collect();
    let sources: Vec<SatIndex> = (0..c.len() as u32).step_by(3).map(SatIndex).collect();

    let walk = |on: bool| -> Vec<Arc<IslGraph>> {
        set_delta_override(Some(on));
        let mut out = Vec::new();
        let mut prev: Option<Arc<IslGraph>> = None;
        for &t in &epochs {
            let g = net
                .snapshot_from(t, &schedule.plan_at(t), prev.as_ref())
                .graph_handle();
            warm_balls(&g, &sources);
            prev = Some(Arc::clone(&g));
            out.push(g);
        }
        out
    };
    let with_delta = walk(true);
    let without = walk(false);
    for (i, (a, b)) in with_delta.iter().zip(&without).enumerate() {
        let label = format!("epoch {i}");
        assert_graphs_identical(&label, a, b);
        assert_balls_identical(&label, a, b, &sources);
    }

    set_delta_override(None);
    set_snapshot_pool_override(None);
}
