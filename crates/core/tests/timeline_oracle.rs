//! Differential oracle for delta-aware epoch advancement.
//!
//! The PR-4 oracle proves one frozen snapshot matches a naive reference
//! pipeline. This suite proves the *timeline* dimension: walking a fault
//! schedule epoch by epoch through the delta path — CSR patching, spatial
//! bound inflation, routing-table carry/repair — produces graphs and
//! tables **bit-identical** to rebuilding everything from scratch at every
//! single step. Any last-ulp divergence in a patched length mantissa, a
//! reordered adjacency row, a stale mask bit, or a repaired Dijkstra entry
//! fails here before it can skew a campaign artefact.

use spacecdn_core::{delta_stats, set_delta_override, LsnNetwork};
use spacecdn_engine::set_snapshot_pool_override;
use spacecdn_geo::{DetRng, Geodetic, SimTime};
use spacecdn_lsn::{AccessModel, FaultPlan, IslGraph, SourceTables};
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

/// Warmed tables on the patched lineage vs a cold compute on the fresh
/// build: km mantissas, kilometre-optimal route hops, BFS levels.
fn assert_tables_identical(label: &str, got: &IslGraph, fresh: &IslGraph, sources: &[SatIndex]) {
    for &src in sources {
        let have = got.routing_tables(src);
        let want = SourceTables::compute(fresh, src);
        for (i, (a, b)) in have.km.iter().zip(&want.km).enumerate() {
            assert_eq!(
                a.0.to_bits(),
                b.0.to_bits(),
                "{label}: km bits diverge (src {src:?}, dst {i})"
            );
            assert_eq!(
                a.1, b.1,
                "{label}: route hops diverge (src {src:?}, dst {i})"
            );
        }
        assert_eq!(
            have.hops, want.hops,
            "{label}: BFS levels diverge (src {src:?})"
        );
    }
}

/// The main sweep: ≥200 randomized timeline steps across ~24 randomized
/// (shell × schedule) walks, each step advanced through the delta path
/// and compared bit-for-bit against a from-scratch rebuild — with the
/// routing cache warmed on every intermediate graph so table carry and
/// repair are continuously under test.
#[test]
fn timeline_walk_matches_fresh_rebuild_bit_for_bit() {
    let _guard = OVERRIDE_LOCK.lock().unwrap();
    set_snapshot_pool_override(Some(false));
    set_delta_override(Some(true));
    let before = delta_stats();

    const WALKS: usize = 24;
    const STEPS: usize = 10;
    let mut total_steps = 0usize;
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
            for &src in &sources {
                cur.routing_tables(src);
            }
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
            assert_tables_identical(&label, &next, &fresh, &sources);
            cur = next;
            total_steps += 1;
        }
    }
    assert!(total_steps >= 200, "only {total_steps} timeline steps run");

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

/// Same-instant pure-removal steps over a warmed cache: the sparse
/// dynamic-SSSP repair path (and its over-threshold fallback) must land on
/// exactly the fresh build's tables. This is the one branch a lowered
/// schedule cannot reach (plans only change *across* instants), so it gets
/// a dedicated walk with hand-stepped fault plans.
#[test]
fn same_instant_removals_repair_tables_bit_for_bit() {
    let _guard = OVERRIDE_LOCK.lock().unwrap();
    set_snapshot_pool_override(Some(false));
    set_delta_override(Some(true));
    let before = delta_stats();

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
            for &src in &sources {
                cur.routing_tables(src);
            }
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
            assert_tables_identical(&label, &next, &fresh, &sources);
            cur = next;
        }
    }

    // The sweep must have exercised the repair fast path, or the claim
    // above silently degenerates to "fallback recompute works".
    let after = delta_stats();
    assert!(
        after.repaired_vertices > before.repaired_vertices,
        "sparse repair never ran"
    );

    set_delta_override(None);
    set_snapshot_pool_override(None);
}

/// The kill switch is inert on results: a delta-on walk and a delta-off
/// walk over the same schedule produce bit-identical graphs and tables at
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
            for &src in &sources {
                g.routing_tables(src);
            }
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
        assert_tables_identical(&label, a, b, &sources);
    }

    set_delta_override(None);
    set_snapshot_pool_override(None);
}
