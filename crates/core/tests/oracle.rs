//! Differential oracle for the retrieval stack.
//!
//! The production path answers every fetch through layers of machinery
//! built for speed: CSR flat-array adjacency, a bit-packed integer heap,
//! memoized routing tables, a spatial index for overhead selection, and
//! the engine's cross-campaign snapshot pool. Each layer was verified
//! against its predecessor when introduced, but nothing verified the
//! *composition* end to end.
//!
//! This harness rebuilds the whole pipeline a second time in the most
//! boring way possible — nested `Vec` adjacency, a textbook f64 Dijkstra,
//! a plain-queue BFS, a linear overhead scan, no caches and no pool — and
//! demands the optimized path match it **bit for bit** (outcome, serving
//! satellite, hop counts, kilometres, RTT bits) across hundreds of
//! randomized constellations × fault schedules × epochs. A last-ulp float
//! divergence anywhere in the stack fails here before it can silently
//! skew a campaign artefact.
//!
//! Both pipelines draw user-link jitter from paired streams (same seed and
//! label), and the next draw from each stream must agree afterwards, so
//! the harness also pins *when* each fetch mode samples jitter. A
//! `Scenario` session over the same network, schedule and copies must
//! match a direct `RetrievalRequest::execute` the same way.

use rand::RngCore;
use spacecdn_core::{
    DegradeReason, FetchResult, LsnNetwork, RetrievalOutcome, RetrievalRequest, RetrievalSource,
    Scenario,
};
use spacecdn_geo::propagation::{propagation_delay, Medium};
use spacecdn_geo::{DetRng, Ecef, Geodetic, Km, Latency, SimDuration, SimTime};
use spacecdn_lsn::{AccessModel, FaultPlan, FaultSchedule, IslEdge, IslGraph, SourceTables};
use spacecdn_orbit::shell::ShellConfig;
use spacecdn_orbit::{Constellation, SatIndex};
use spacecdn_terra::fiber::FiberModel;
use std::collections::{BTreeSet, VecDeque};

mod common;
use common::{random_schedule, small_shell};

// ---------------------------------------------------------------------------
// The reference pipeline: slow, allocation-happy, obviously correct.
// ---------------------------------------------------------------------------

/// Pre-CSR topology snapshot: one heap-allocated edge list per satellite,
/// plus the alive/servable masks.
struct RefGraph {
    positions: Vec<Ecef>,
    adjacency: Vec<Vec<IslEdge>>,
    alive: Vec<bool>,
    servable: Vec<bool>,
}

/// Reference +Grid builder (the original nested-`Vec` data plane): probe
/// the adjacent plane for the nearest slot — unconditionally, even when
/// Walker phasing is zero — then emit each satellite's four candidate
/// links in aft/fore/left/right order.
fn ref_build(c: &Constellation, t: SimTime, faults: &FaultPlan) -> RefGraph {
    let n = c.len();
    let positions = c.snapshot_ecef(t);
    let mut alive = vec![true; n];
    let mut servable = vec![true; n];
    for sat in c.sat_indices() {
        if faults.sat_failed(sat) {
            alive[sat.as_usize()] = false;
        }
        if faults.gsl_failed(sat) {
            servable[sat.as_usize()] = false;
        }
    }

    let plane_count = c.config().plane_count as i64;
    let nearest_slot_offset = |from_plane: i64| -> i64 {
        let probe = c.sat_at(from_plane, 0);
        (0..c.config().sats_per_plane as i64)
            .min_by(|&a, &b| {
                let da = positions[probe.as_usize()]
                    .distance(positions[c.sat_at(from_plane + 1, a).as_usize()]);
                let db = positions[probe.as_usize()]
                    .distance(positions[c.sat_at(from_plane + 1, b).as_usize()]);
                da.0.partial_cmp(&db.0).expect("finite distances")
            })
            .unwrap_or(0)
    };
    let interior_offset = nearest_slot_offset(0);
    let seam_offset = if plane_count > 1 {
        nearest_slot_offset(plane_count - 1)
    } else {
        interior_offset
    };
    let offset_from = |p: i64| -> i64 {
        if p.rem_euclid(plane_count) == plane_count - 1 {
            seam_offset
        } else {
            interior_offset
        }
    };

    let mut adjacency = vec![Vec::with_capacity(4); n];
    for sat in c.sat_indices() {
        if !alive[sat.as_usize()] {
            continue;
        }
        let plane = c.plane_of(sat) as i64;
        let slot = c.slot_of(sat) as i64;
        let neighbours = [
            c.sat_at(plane, slot - 1),
            c.sat_at(plane, slot + 1),
            c.sat_at(plane - 1, slot - offset_from(plane - 1)),
            c.sat_at(plane + 1, slot + offset_from(plane)),
        ];
        for nb in neighbours {
            if nb == sat || !alive[nb.as_usize()] || faults.link_failed(sat, nb) {
                continue;
            }
            let length = positions[sat.as_usize()].distance(positions[nb.as_usize()]);
            adjacency[sat.as_usize()].push(IslEdge { to: nb, length });
        }
    }
    RefGraph {
        positions,
        adjacency,
        alive,
        servable,
    }
}

/// Reference overhead selection: a full linear scan over every servable
/// satellite, keeping the strictly nearest (first wins on exact ties).
fn ref_nearest_servable(g: &RefGraph, ground: Geodetic) -> Option<(SatIndex, Km)> {
    let gp = ground.to_ecef();
    let mut best: Option<(SatIndex, Km)> = None;
    for (i, pos) in g.positions.iter().enumerate() {
        if !g.servable[i] {
            continue;
        }
        let d = pos.distance(gp);
        if best.is_none_or(|(_, bd)| d.0 < bd.0) {
            best = Some((SatIndex(i as u32), d));
        }
    }
    best
}

/// Reference single-source tables: a textbook binary-heap Dijkstra over
/// f64 costs with (cost, index) tie-breaks, tracking the hop count of the
/// kilometre-optimal route, plus a plain-queue BFS for hop levels.
/// Returns exactly what `IslGraph::routing_tables` promises: per
/// satellite `(km, route hops)` and the BFS level, with
/// `(INFINITY, u32::MAX)` / `u32::MAX` for the unreachable.
fn ref_tables(g: &RefGraph, src: SatIndex) -> (Vec<(f64, u32)>, Vec<u32>) {
    use std::cmp::Ordering;
    use std::collections::BinaryHeap;

    let n = g.positions.len();
    let mut km = vec![(f64::INFINITY, u32::MAX); n];
    let mut hops = vec![u32::MAX; n];
    if !g.alive[src.as_usize()] {
        return (km, hops);
    }

    #[derive(PartialEq)]
    struct Item {
        cost: f64,
        sat: u32,
    }
    impl Eq for Item {}
    impl Ord for Item {
        fn cmp(&self, other: &Self) -> Ordering {
            other
                .cost
                .partial_cmp(&self.cost)
                .expect("finite")
                .then_with(|| other.sat.cmp(&self.sat))
        }
    }
    impl PartialOrd for Item {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }

    km[src.as_usize()] = (0.0, 0);
    let mut heap = BinaryHeap::new();
    heap.push(Item {
        cost: 0.0,
        sat: src.0,
    });
    while let Some(Item { cost, sat }) = heap.pop() {
        if cost > km[sat as usize].0 {
            continue;
        }
        let route_hops = km[sat as usize].1;
        for edge in &g.adjacency[sat as usize] {
            let next = cost + edge.length.0;
            if next < km[edge.to.as_usize()].0 {
                km[edge.to.as_usize()] = (next, route_hops + 1);
                heap.push(Item {
                    cost: next,
                    sat: edge.to.0,
                });
            }
        }
    }

    hops[src.as_usize()] = 0;
    let mut queue = VecDeque::new();
    queue.push_back(src);
    while let Some(sat) = queue.pop_front() {
        let level = hops[sat.as_usize()];
        for edge in &g.adjacency[sat.as_usize()] {
            if hops[edge.to.as_usize()] == u32::MAX {
                hops[edge.to.as_usize()] = level + 1;
                queue.push_back(edge.to);
            }
        }
    }
    (km, hops)
}

/// What a reference fetch resolves to: the same observables as
/// `FetchResult`, built by the reference pipeline alone.
#[derive(Debug)]
struct RefFetch {
    outcome: Option<RetrievalOutcome>,
    attempts: u32,
    degraded: Option<DegradeReason>,
}

/// The bent-pipe ground fallback.
fn ref_ground(ground_fallback_rtt: Latency) -> RetrievalOutcome {
    RetrievalOutcome {
        source: RetrievalSource::Ground,
        rtt: ground_fallback_rtt,
        serving_sat: None,
    }
}

/// Reference Fig-6 retrieval, single attempt: overhead hit →
/// latency-optimal copy within the BFS hop budget → ground fallback,
/// computed entirely from the reference graph and tables. User-link jitter
/// is drawn from `rng` only once some copy is within budget; a dead zone
/// resolves to no outcome.
fn ref_retrieve(
    g: &RefGraph,
    access: &AccessModel,
    user: Geodetic,
    caches: &BTreeSet<SatIndex>,
    max_isl_hops: u32,
    ground_fallback_rtt: Latency,
    rng: &mut DetRng,
) -> RefFetch {
    let Some((overhead, up_slant)) = ref_nearest_servable(g, user) else {
        return RefFetch {
            outcome: None,
            attempts: 0,
            degraded: Some(DegradeReason::DeadZone),
        };
    };
    let overhead_hit = caches.contains(&overhead) && g.alive[overhead.as_usize()];
    let best = if overhead_hit {
        Some((overhead, Latency::ZERO, 0u32))
    } else {
        let (km, hops) = ref_tables(g, overhead);
        let mut best: Option<(SatIndex, Latency, u32)> = None;
        for &sat in caches {
            if !g.alive[sat.as_usize()] {
                continue;
            }
            let h = hops[sat.as_usize()];
            if h == u32::MAX || h > max_isl_hops {
                continue;
            }
            let (dist_km, route_hops) = km[sat.as_usize()];
            if !dist_km.is_finite() {
                continue;
            }
            let cost = propagation_delay(Km(dist_km), Medium::Vacuum).round_trip()
                + access.isl_processing(route_hops as usize);
            if best.is_none_or(|(_, b, _)| cost < b) {
                best = Some((sat, cost, h));
            }
        }
        best
    };

    if let Some((serving, space_cost, bfs_hops)) = best {
        let rtt = access.user_link_rtt_sample(up_slant, rng) + space_cost;
        if rtt <= ground_fallback_rtt {
            let source = if bfs_hops == 0 {
                RetrievalSource::Overhead
            } else {
                RetrievalSource::Isl { hops: bfs_hops }
            };
            return RefFetch {
                outcome: Some(RetrievalOutcome {
                    source,
                    rtt,
                    serving_sat: Some(serving),
                }),
                attempts: 1,
                degraded: None,
            };
        }
    }
    RefFetch {
        outcome: Some(ref_ground(ground_fallback_rtt)),
        attempts: 1,
        degraded: Some(if best.is_some() {
            DegradeReason::GroundCheaper
        } else {
            DegradeReason::BudgetExhausted
        }),
    }
}

/// Reference resilient retrieval: the escalation ladder replayed over the
/// reference tables, with the always-an-outcome contract. User-link
/// jitter is drawn from `rng` as soon as an overhead satellite exists.
fn ref_retrieve_resilient(
    g: &RefGraph,
    access: &AccessModel,
    user: Geodetic,
    caches: &BTreeSet<SatIndex>,
    escalation: &[u32],
    ground_fallback_rtt: Latency,
    rng: &mut DetRng,
) -> RefFetch {
    let Some((overhead, up_slant)) = ref_nearest_servable(g, user) else {
        return RefFetch {
            outcome: Some(ref_ground(ground_fallback_rtt)),
            attempts: 0,
            degraded: Some(DegradeReason::DeadZone),
        };
    };
    let user_link = access.user_link_rtt_sample(up_slant, rng);

    if caches.contains(&overhead) && g.alive[overhead.as_usize()] {
        if user_link <= ground_fallback_rtt {
            return RefFetch {
                outcome: Some(RetrievalOutcome {
                    source: RetrievalSource::Overhead,
                    rtt: user_link,
                    serving_sat: Some(overhead),
                }),
                attempts: 1,
                degraded: None,
            };
        }
        return RefFetch {
            outcome: Some(ref_ground(ground_fallback_rtt)),
            attempts: 1,
            degraded: Some(DegradeReason::GroundCheaper),
        };
    }

    let (km, hops) = ref_tables(g, overhead);
    let mut copies: Vec<(SatIndex, u32, Latency)> = Vec::new();
    for &sat in caches {
        if !g.alive[sat.as_usize()] {
            continue;
        }
        let h = hops[sat.as_usize()];
        if h == u32::MAX {
            continue;
        }
        let (dist_km, route_hops) = km[sat.as_usize()];
        if !dist_km.is_finite() {
            continue;
        }
        let cost = propagation_delay(Km(dist_km), Medium::Vacuum).round_trip()
            + access.isl_processing(route_hops as usize);
        copies.push((sat, h, cost));
    }

    let mut attempts = 0u32;
    let mut any_in_budget = false;
    for &budget in escalation {
        attempts += 1;
        let mut best: Option<(SatIndex, Latency, u32)> = None;
        for &(sat, h, cost) in &copies {
            if h > budget {
                continue;
            }
            if best.is_none_or(|(_, b, _)| cost < b) {
                best = Some((sat, cost, h));
            }
        }
        let Some((serving, space_cost, bfs_hops)) = best else {
            continue;
        };
        any_in_budget = true;
        let rtt = user_link + space_cost;
        if rtt <= ground_fallback_rtt {
            return RefFetch {
                outcome: Some(RetrievalOutcome {
                    source: RetrievalSource::Isl { hops: bfs_hops },
                    rtt,
                    serving_sat: Some(serving),
                }),
                attempts,
                degraded: None,
            };
        }
    }
    RefFetch {
        outcome: Some(ref_ground(ground_fallback_rtt)),
        attempts,
        degraded: Some(if any_in_budget {
            DegradeReason::GroundCheaper
        } else {
            DegradeReason::BudgetExhausted
        }),
    }
}

// ---------------------------------------------------------------------------
// Case generation and comparison.
// ---------------------------------------------------------------------------

/// What one randomized case exercised, tallied across the sweep so the
/// harness can prove it covered every outcome class.
#[derive(Default)]
struct Coverage {
    overhead: usize,
    isl: usize,
    ground: usize,
    dead_zone: usize,
    budget_exhausted: usize,
    ground_cheaper: usize,
    escalated: usize,
}

impl Coverage {
    fn record(&mut self, r: &FetchResult) {
        match r.outcome.as_ref().map(|o| o.source) {
            Some(RetrievalSource::Overhead) => self.overhead += 1,
            Some(RetrievalSource::Isl { .. }) => self.isl += 1,
            Some(RetrievalSource::Ground) => self.ground += 1,
            None => {}
        }
        match r.degraded {
            Some(DegradeReason::DeadZone) => self.dead_zone += 1,
            Some(DegradeReason::BudgetExhausted) => self.budget_exhausted += 1,
            Some(DegradeReason::GroundCheaper) => self.ground_cheaper += 1,
            None => {}
        }
        if r.attempts > 1 {
            self.escalated += 1;
        }
    }
}

/// Every observable of one fetch, with the RTT as raw bits so a last-ulp
/// divergence fails the comparison.
type Observables = (
    Option<(RetrievalSource, Option<SatIndex>, u64)>,
    u32,
    Option<DegradeReason>,
);

fn observe(
    outcome: &Option<RetrievalOutcome>,
    attempts: u32,
    degraded: Option<DegradeReason>,
) -> Observables {
    (
        outcome
            .as_ref()
            .map(|o| (o.source, o.serving_sat, o.rtt.0.to_bits())),
        attempts,
        degraded,
    )
}

fn observe_fetch(r: &FetchResult) -> Observables {
    observe(&r.outcome, r.attempts, r.degraded)
}

/// Two fresh jitter streams with the same seed and label: whatever
/// consumes them identically leaves them in the same state.
fn paired_jitter(label: &str, mode: &str) -> (DetRng, DetRng) {
    let stream = || DetRng::new(77, &format!("oracle/jitter/{label}/{mode}"));
    (stream(), stream())
}

/// After two fetches consumed a paired stream, the next draws must agree:
/// this pins how many jitter samples each fetch took, including the
/// fetches whose RTT does not show the sample (ground fallbacks).
fn assert_same_draws(label: &str, a: &mut DetRng, b: &mut DetRng) {
    assert_eq!(
        a.raw().next_u64(),
        b.raw().next_u64(),
        "{label}: fetches consumed different numbers of jitter draws"
    );
}

/// A network over `shell` with no gateways and default access and fibre
/// models, as every oracle case uses.
fn bare_net(shell: ShellConfig) -> LsnNetwork {
    LsnNetwork::new(
        Constellation::new(shell),
        Vec::new(),
        AccessModel::default(),
        FiberModel::default(),
    )
}

/// Run one fully-randomized case: build both pipelines for the lowered
/// plan at `t` and compare every observable bit.
fn check_case(
    label: &str,
    shell: ShellConfig,
    schedule: &FaultSchedule,
    t: SimTime,
    rng: &mut DetRng,
    coverage: &mut Coverage,
) {
    let net = bare_net(shell);
    let c = net.constellation();
    let access = net.access();
    let plan = schedule.plan_at(t);
    // Lowering is a pure function of (schedule, t): re-lowering must
    // reproduce the same kill set (digest covers sats, links and GSLs).
    assert_eq!(
        plan.digest(),
        schedule.plan_at(t).digest(),
        "{label}: plan_at is not a pure function"
    );

    // Optimized pipeline: pooled snapshot, CSR kernels, routing caches.
    let snap = net.snapshot(t, &plan);
    let graph = snap.graph();
    // Reference pipeline: nested adjacency, no caches, no pool.
    let reference = ref_build(c, t, &plan);

    // 1. Overhead selection must agree to the bit (winner and slant).
    let got_overhead = graph.nearest_alive_linear(Geodetic::ground(0.0, 0.0));
    let want_overhead = ref_nearest_servable(&reference, Geodetic::ground(0.0, 0.0));
    match (
        graph.nearest_alive(Geodetic::ground(0.0, 0.0)),
        want_overhead,
    ) {
        (None, None) => {}
        (Some((gs, gd)), Some((ws, wd))) => {
            assert_eq!(gs, ws, "{label}: overhead winner diverges");
            assert_eq!(
                gd.0.to_bits(),
                wd.0.to_bits(),
                "{label}: overhead slant bits diverge"
            );
        }
        (got, want) => panic!("{label}: overhead existence diverges: {got:?} vs {want:?}"),
    }
    assert_eq!(
        got_overhead, want_overhead,
        "{label}: spatial index and linear scan disagree"
    );

    let user = Geodetic::ground(rng.uniform(-60.0, 60.0), rng.uniform(-180.0, 180.0));
    let caches: BTreeSet<SatIndex> = (0..rng.index(13))
        .map(|_| SatIndex(rng.index(c.len()) as u32))
        .collect();

    // 2. Full routing tables from the user's overhead satellite.
    if let Some((overhead, _)) = graph.nearest_alive(user) {
        let tables = SourceTables::compute(graph, overhead);
        let (want_km, want_hops) = ref_tables(&reference, overhead);
        for i in 0..graph.len() {
            assert_eq!(
                tables.km[i].0.to_bits(),
                want_km[i].0.to_bits(),
                "{label}: km bits diverge at sat {i} (src {overhead:?})"
            );
            assert_eq!(
                tables.km[i].1, want_km[i].1,
                "{label}: route hops diverge at sat {i}"
            );
            assert_eq!(
                tables.hops[i], want_hops[i],
                "{label}: BFS level diverges at sat {i}"
            );
        }
    }

    // 3. Single-attempt retrieval, bit for bit, jitter draws included.
    let budget = rng.index(12) as u32;
    let ground = if rng.chance(0.15) {
        Latency::from_ms(1e9) // effectively no ground shortcut
    } else {
        Latency::from_ms(rng.uniform(40.0, 200.0))
    };
    let single = RetrievalRequest::new(user)
        .hop_budget(budget)
        .ground_fallback(ground)
        .graceful(false);
    let (mut got_rng, mut want_rng) = paired_jitter(label, "single");
    let got = single.execute(graph, access, &caches, Some(&mut got_rng));
    let want = ref_retrieve(
        &reference,
        access,
        user,
        &caches,
        budget,
        ground,
        &mut want_rng,
    );
    assert_eq!(
        observe_fetch(&got),
        observe(&want.outcome, want.attempts, want.degraded),
        "{label}: single-attempt fetch diverges"
    );
    assert_same_draws(&format!("{label}: single"), &mut got_rng, &mut want_rng);

    // 4. Graceful escalation, bit for bit including attempts, reason and
    // jitter draws.
    let ladders: [&[u32]; 5] = [
        &[1, 3, 5, 10],
        &[2, 4],
        &[budget.max(1)],
        &[3, 6, 12],
        &[1, 2, 3, 4, 5],
    ];
    let ladder = ladders[rng.index(ladders.len())];
    let graceful = RetrievalRequest::new(user)
        .escalation(ladder)
        .ground_fallback(ground);
    let (mut got_rng, mut want_rng) = paired_jitter(label, "graceful");
    let got = graceful.execute(graph, access, &caches, Some(&mut got_rng));
    let want = ref_retrieve_resilient(
        &reference,
        access,
        user,
        &caches,
        ladder,
        ground,
        &mut want_rng,
    );
    assert!(
        got.outcome.is_some(),
        "{label}: graceful fetch must resolve"
    );
    assert_eq!(
        observe_fetch(&got),
        observe(&want.outcome, want.attempts, want.degraded),
        "{label}: graceful fetch diverges"
    );
    assert_same_draws(&format!("{label}: graceful"), &mut got_rng, &mut want_rng);
    coverage.record(&got);

    // 5. A single-rung ladder must collapse to a single attempt exactly.
    let collapsed = RetrievalRequest::new(user)
        .escalation(vec![budget.max(1)])
        .ground_fallback(ground)
        .execute(graph, access, &caches, None);
    let plain = RetrievalRequest::new(user)
        .hop_budget(budget.max(1))
        .ground_fallback(ground)
        .graceful(false)
        .execute(graph, access, &caches, None)
        .outcome;
    match plain {
        Some(p) => assert_eq!(
            collapsed.outcome,
            Some(p),
            "{label}: single-rung graceful diverges from a plain fetch"
        ),
        None => assert_eq!(
            collapsed.degraded,
            Some(DegradeReason::DeadZone),
            "{label}: only a dead zone may make a non-graceful fetch miss"
        ),
    }

    // 6. A session over the same network, schedule and copies, moved to
    // `t`, must fetch exactly what a direct request execution fetches.
    let mut session = Scenario::builder(bare_net(shell))
        .schedule(schedule.clone())
        .copies(caches.clone())
        .escalation(ladder)
        .ground_fallback(ground)
        .build();
    session.advance_to(t);
    let (mut direct_rng, mut session_rng) = paired_jitter(label, "session/graceful");
    let direct = graceful.execute(graph, access, &caches, Some(&mut direct_rng));
    let via_session = session.fetch_user(user, Some(&mut session_rng));
    assert_eq!(
        observe_fetch(&via_session),
        observe_fetch(&direct),
        "{label}: session fetch diverges from the direct request"
    );
    assert_same_draws(
        &format!("{label}: session graceful"),
        &mut session_rng,
        &mut direct_rng,
    );
    let (mut direct_rng, mut session_rng) = paired_jitter(label, "session/single");
    let direct = single.execute(graph, access, &caches, Some(&mut direct_rng));
    let session_single = session.request(user).hop_budget(budget).graceful(false);
    let via_session = session.fetch(&session_single, Some(&mut session_rng));
    assert_eq!(
        observe_fetch(&via_session),
        observe_fetch(&direct),
        "{label}: session single-attempt fetch diverges from the direct request"
    );
    assert_same_draws(
        &format!("{label}: session single"),
        &mut session_rng,
        &mut direct_rng,
    );
}

/// The main sweep: ≥500 randomized (shell × schedule × epoch) cases, each
/// comparing the optimized and reference pipelines bit for bit.
#[test]
fn oracle_randomized_cases_match_reference_bit_for_bit() {
    const CASES: usize = 520;
    let mut coverage = Coverage::default();
    for case in 0..CASES {
        let mut rng = DetRng::new(2024 + case as u64, "oracle/case");
        let shell = small_shell(&mut rng);
        let c = Constellation::new(shell);
        let pristine = IslGraph::build(&c, SimTime::EPOCH, &FaultPlan::none());
        let mut schedule = random_schedule(&c, &pristine, &mut rng);
        let t = SimTime(rng.uniform(0.0, 7_200_000.0) as u64);
        if rng.chance(0.3) {
            // Exercise the inclusive `from` boundary at the query instant.
            let sat = SatIndex(rng.index(c.len()) as u32);
            schedule.sat_outage(sat, t, Some(SimTime(t.0 + 60_000)));
        }
        check_case(
            &format!("case {case}"),
            shell,
            &schedule,
            t,
            &mut rng,
            &mut coverage,
        );
    }
    // The sweep must have exercised every outcome class, or the bit-for-bit
    // claim is weaker than it looks.
    assert!(coverage.overhead > 0, "no overhead hits exercised");
    assert!(coverage.isl > 0, "no ISL hits exercised");
    assert!(coverage.ground > 0, "no ground fallbacks exercised");
    assert!(coverage.escalated > 0, "no escalations exercised");
    assert!(
        coverage.budget_exhausted > 0 && coverage.ground_cheaper > 0,
        "degrade reasons not both exercised (budget={}, cheaper={})",
        coverage.budget_exhausted,
        coverage.ground_cheaper
    );
}

/// A dead fleet must agree too: both pipelines report a dead zone.
#[test]
fn oracle_dead_fleet_degrades_identically() {
    let shell = ShellConfig {
        altitude_km: 550.0,
        inclination_deg: 53.0,
        plane_count: 4,
        sats_per_plane: 4,
        phase_factor: 1,
    };
    let c = Constellation::new(shell);
    let mut schedule = FaultSchedule::none();
    for sat in c.sat_indices() {
        schedule.sat_outage(sat, SimTime::EPOCH, None);
    }
    let mut coverage = Coverage::default();
    let mut rng = DetRng::new(7, "oracle/dead");
    check_case(
        "dead fleet",
        shell,
        &schedule,
        SimTime::from_secs(100),
        &mut rng,
        &mut coverage,
    );
    assert_eq!(coverage.dead_zone, 1, "dead zone not exercised");
}

/// Production scale: Starlink Shell 1 under a mixed schedule across
/// several epochs. Slower per case, so only a handful — the randomized
/// sweep above carries the breadth.
#[test]
fn oracle_shell1_scale_matches_reference() {
    let shell = spacecdn_orbit::shell::shells::starlink_shell1();
    let c = &Constellation::new(shell);
    let pristine = IslGraph::build(c, SimTime::EPOCH, &FaultPlan::none());
    let mut rng = DetRng::new(42, "oracle/shell1");
    let mut schedule = FaultSchedule::none();
    schedule.random_sat_outages(
        c.len(),
        0.05,
        SimDuration::from_secs(3600),
        SimDuration::from_secs(900),
        &mut rng,
    );
    schedule.random_gsl_outages(
        c.len(),
        0.03,
        SimDuration::from_secs(3600),
        SimDuration::from_secs(600),
        &mut rng,
    );
    schedule.seam_churn(
        &pristine,
        c,
        0.5,
        SimDuration::from_secs(120),
        SimDuration::from_secs(30),
        &mut rng,
    );
    let mut coverage = Coverage::default();
    for (i, &secs) in [0u64, 157, 1200].iter().enumerate() {
        check_case(
            &format!("shell1 epoch {i}"),
            shell,
            &schedule,
            SimTime::from_secs(secs),
            &mut rng,
            &mut coverage,
        );
    }
}
