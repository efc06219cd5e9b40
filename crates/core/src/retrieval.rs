//! The SpaceCDN fetch logic of Figure 6.
//!
//! 1. If the overhead satellite caches the object, serve it directly
//!    (red arrow).
//! 2. Otherwise route over ISLs to the nearest satellite holding a copy,
//!    within a hop budget (blue arrow).
//! 3. If no copy is within budget, fall back to the ground cache behind
//!    the bent pipe (black arrow).
//!
//! The one entry point is [`RetrievalRequest`]: a builder-style
//! description of a fetch (user position, hop-budget escalation ladder,
//! ground-fallback RTT, graceful-degradation policy) executed against a
//! topology snapshot — either directly via [`RetrievalRequest::execute`]
//! or through a long-lived [`crate::scenario::Scenario`] session. Both
//! [`RetrievalRequest::execute`] and [`RetrievalRequest::execute_multishell`]
//! decide through the crate-private `ladder` kernel, the same one the
//! traffic engine's candidate fold uses; the differential oracle in
//! `crates/core/tests/oracle.rs` checks it bit for bit against an
//! independent reference pipeline.

use crate::ladder;
use spacecdn_geo::propagation::{propagation_delay, Medium};
use spacecdn_geo::{DetRng, Geodetic, Km, Latency};
use spacecdn_lsn::{AccessModel, IslGraph};
use spacecdn_orbit::SatIndex;
use spacecdn_telemetry::{LazyCounter, LazyHistogram, Unit};
use std::collections::BTreeSet;

/// Fetch-outcome counters (stable: outcomes are pure functions of the
/// deterministic campaign inputs, so the tallies are identical at any
/// thread count). `ground_fallback` splits into `budget_miss` (no copy
/// within the hop budget) and `ground_cheaper` (a copy was in budget but
/// the bent pipe still won on RTT).
static OVERHEAD_HITS: LazyCounter = LazyCounter::stable("core.retrieval.overhead_hit");
static ISL_HITS: LazyCounter = LazyCounter::stable("core.retrieval.isl_hit");
static GROUND_FALLBACKS: LazyCounter = LazyCounter::stable("core.retrieval.ground_fallback");
static BUDGET_MISSES: LazyCounter = LazyCounter::stable("core.retrieval.budget_miss");
static GROUND_CHEAPER: LazyCounter = LazyCounter::stable("core.retrieval.ground_cheaper");
/// BFS hop distance of every ISL-served fetch.
static ISL_HOPS: LazyHistogram = LazyHistogram::stable("core.retrieval.hops", Unit::Hops);

/// Resilient-retrieval counters (stable, like the fetch-outcome counters
/// above). `retries` counts hop-budget escalations beyond the first
/// attempt; `degraded` counts fetches that ended at the ground cache,
/// split by reason.
static RESILIENT_FETCHES: LazyCounter = LazyCounter::stable("core.retrieval.resilient.fetches");
static RESILIENT_RETRIES: LazyCounter = LazyCounter::stable("core.retrieval.resilient.retries");
static RESILIENT_DEGRADED: LazyCounter = LazyCounter::stable("core.retrieval.resilient.degraded");
static DEGRADED_DEAD_ZONE: LazyCounter =
    LazyCounter::stable("core.retrieval.resilient.degraded.dead_zone");
static DEGRADED_BUDGET: LazyCounter =
    LazyCounter::stable("core.retrieval.resilient.degraded.budget_exhausted");
static DEGRADED_GROUND_CHEAPER: LazyCounter =
    LazyCounter::stable("core.retrieval.resilient.degraded.ground_cheaper");
/// Hop-budget attempts per resilient fetch (1 = served on the first rung).
static RESILIENT_ATTEMPTS: LazyHistogram =
    LazyHistogram::stable("core.retrieval.resilient.attempts", Unit::Count);

/// Wall time of each fetch's routing-table lookup (racy, like every
/// clock reading): a memo hit or a ladder-bounded table build.
static TABLE_NS: LazyHistogram = LazyHistogram::racy("core.retrieval.table_ns", Unit::Nanos);

/// Full space-segment round-trip cost of fetching over an ISL route:
/// two-way vacuum propagation along `dist_km` plus per-hop switching.
/// Selecting on kilometres alone would be wrong — a shorter route through
/// more (cheaper) hops can still lose on total. Shared by the fetch paths
/// here and the batched traffic engine so the cost model cannot drift.
#[inline]
pub fn space_segment_cost(access: &AccessModel, dist_km: f64, route_hops: u32) -> Latency {
    propagation_delay(Km(dist_km), Medium::Vacuum).round_trip()
        + access.isl_processing(route_hops as usize)
}

/// Round-trip cost of a cooperative probe to a directly-linked +Grid
/// neighbor: two-way vacuum propagation over the single ISL edge, with
/// *no* per-hop switching charge — the overhead satellite already holds
/// its neighbors' cache digests, so the fetch skips route setup and store
/// -and-forward processing. This is what makes a cooperative hit strictly
/// cheaper than the same satellite reached through the rung-1 escalation
/// ladder. Shared by the traffic engine and the placement oracle so the
/// cost model cannot drift.
#[inline]
pub fn neighbor_probe_cost(edge_km: f64) -> Latency {
    propagation_delay(Km(edge_km), Medium::Vacuum).round_trip()
}

/// Where a request was ultimately served from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetrievalSource {
    /// The satellite directly overhead had the object.
    Overhead,
    /// A satellite `hops` ISL hops away had it.
    Isl {
        /// Hop distance to the serving satellite.
        hops: u32,
    },
    /// No satellite within budget had it; served from the ground.
    Ground,
}

/// One resolved fetch.
#[derive(Debug, Clone, PartialEq)]
pub struct RetrievalOutcome {
    /// Serving source.
    pub source: RetrievalSource,
    /// Full fetch RTT.
    pub rtt: Latency,
    /// The serving satellite (None for ground fallback).
    pub serving_sat: Option<SatIndex>,
}

/// Why a fetch degraded to the ground cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradeReason {
    /// No satellite can serve the user at all (the terminal sees sky with
    /// no servable satellite); traffic never reaches space.
    DeadZone,
    /// Every hop budget on the escalation ladder was tried and no alive
    /// copy was reachable within the largest one.
    BudgetExhausted,
    /// Copies were reachable, but the bent pipe to the ground cache beat
    /// every one of them on RTT.
    GroundCheaper,
}

/// One content fetch, described policy-first and executed against a
/// snapshot.
///
/// Construct with [`RetrievalRequest::new`] and refine with the builder
/// methods; the struct is `#[non_exhaustive]` so new policy knobs can be
/// added without breaking callers.
///
/// * `.graceful(true)` (the default) walks the hop-budget **escalation
///   ladder** and always resolves: when space cannot serve, the fetch
///   degrades to the ground cache with the reason recorded.
/// * `.graceful(false)` is a one-rung ladder at the **last** (widest)
///   rung (so `.hop_budget(n)` means "one attempt at budget n") and
///   reports a dead zone as `outcome: None`.
///
/// Copy selection is **latency-optimal within the hop budget**: among
/// copies reachable in ≤ budget ISL hops (BFS metric — the budget the
/// paper sweeps), the one with the lowest space-segment RTT wins.
/// Hop-nearest and latency-nearest differ on the +Grid because
/// intra-plane hops are ~3× longer than inter-plane ones. Routing uses the
/// *current* snapshot's tables, so a fetch detours around links and
/// satellites that died after the content was placed.
///
/// When `rng` is given, user-link jitter is drawn from it at most once
/// per fetch, at a fixed point so replayed request sequences keep their
/// RNG streams aligned: a graceful fetch draws as soon as an overhead
/// satellite exists; a non-graceful fetch draws only when some copy is
/// within budget.
#[non_exhaustive]
#[derive(Debug, Clone)]
pub struct RetrievalRequest {
    /// Requesting user's position.
    pub user: Geodetic,
    /// Hop budgets to try in order (non-empty, strictly ascending). In
    /// non-graceful mode only the last (widest) rung is attempted.
    pub escalation: Vec<u32>,
    /// RTT of the bent-pipe ground fallback (computed by the caller from
    /// the network model so retrieval stays decoupled from PoP homing).
    pub ground_fallback_rtt: Latency,
    /// Walk the escalation ladder and degrade gracefully (`true`, the
    /// default) vs. single-attempt semantics (`false`).
    pub graceful: bool,
}

impl RetrievalRequest {
    /// A fetch for `user` with the paper's default policy: the
    /// 1 → 3 → 5 → 10 escalation ladder, a 160 ms ground fallback, and
    /// graceful degradation.
    pub fn new(user: Geodetic) -> Self {
        RetrievalRequest {
            user,
            escalation: vec![1, 3, 5, 10],
            ground_fallback_rtt: Latency::from_ms(160.0),
            graceful: true,
        }
    }

    /// Replace the escalation ladder with the single rung `budget`.
    #[must_use]
    pub fn hop_budget(mut self, budget: u32) -> Self {
        self.escalation = vec![budget];
        self
    }

    /// Replace the escalation ladder (must be non-empty and strictly
    /// ascending — validated on execute).
    #[must_use]
    pub fn escalation(mut self, ladder: impl Into<Vec<u32>>) -> Self {
        self.escalation = ladder.into();
        self
    }

    /// Set the ground-fallback RTT.
    #[must_use]
    pub fn ground_fallback(mut self, rtt: Latency) -> Self {
        self.ground_fallback_rtt = rtt;
        self
    }

    /// Choose graceful-ladder (`true`) vs. single-attempt (`false`)
    /// semantics.
    #[must_use]
    pub fn graceful(mut self, graceful: bool) -> Self {
        self.graceful = graceful;
        self
    }

    /// Execute the request against one shell's topology snapshot and the
    /// set of satellites currently caching the object. When `rng` is
    /// given, user-link jitter is sampled (at most once per fetch).
    pub fn execute(
        &self,
        graph: &IslGraph,
        access: &AccessModel,
        caches: &BTreeSet<SatIndex>,
        rng: Option<&mut DetRng>,
    ) -> FetchResult {
        ladder::check(&self.escalation);
        let ladder = if self.graceful {
            &self.escalation[..]
        } else {
            self.widest_rung()
        };
        self.walk_ladder(graph, access, caches, ladder, self.graceful, rng)
    }

    /// Execute the request independently in every shell (ISLs do not
    /// cross shells) and take the cheapest in-space result; fall back to
    /// ground only when every shell misses.
    ///
    /// `shells` are per-shell topology snapshots at one instant;
    /// `caches[i]` holds shell *i*'s copies. Each shell performs a single
    /// attempt at the ladder's widest rung; `graceful` only decides how a
    /// fully dead fleet is reported (`Some(Ground)` vs. `outcome: None`).
    pub fn execute_multishell(
        &self,
        shells: &[IslGraph],
        access: &AccessModel,
        caches: &[BTreeSet<SatIndex>],
        mut rng: Option<&mut DetRng>,
    ) -> FetchResult {
        ladder::check(&self.escalation);
        assert_eq!(
            shells.len(),
            caches.len(),
            "one cache set per shell required"
        );
        let mut best: Option<RetrievalOutcome> = None;
        let mut best_space_rtt: Option<Latency> = None;
        let mut any_alive = false;
        for (graph, shell_caches) in shells.iter().zip(caches) {
            let fetched = self.walk_ladder(
                graph,
                access,
                shell_caches,
                self.widest_rung(),
                false,
                rng.as_deref_mut(),
            );
            if let Some(rtt) = fetched.best_space_rtt {
                if best_space_rtt.is_none_or(|b| rtt < b) {
                    best_space_rtt = Some(rtt);
                }
            }
            let Some(out) = fetched.outcome else {
                continue;
            };
            any_alive = true;
            if out.source == RetrievalSource::Ground {
                continue; // prefer any in-space hit from another shell
            }
            if best
                .as_ref()
                .is_none_or(|b| b.source == RetrievalSource::Ground || out.rtt < b.rtt)
            {
                best = Some(out);
            }
        }
        if let Some(out) = best {
            return FetchResult {
                outcome: Some(out),
                attempts: 1,
                degraded: None,
                best_space_rtt,
            };
        }
        if any_alive {
            return FetchResult {
                outcome: Some(self.ground()),
                attempts: 1,
                degraded: Some(DegradeReason::BudgetExhausted),
                best_space_rtt,
            };
        }
        FetchResult {
            outcome: self.graceful.then(|| self.ground()),
            attempts: 0,
            degraded: Some(DegradeReason::DeadZone),
            best_space_rtt,
        }
    }

    /// The one-rung ladder at the widest budget.
    fn widest_rung(&self) -> &[u32] {
        &self.escalation[self.escalation.len() - 1..]
    }

    /// The bent-pipe ground fallback (its RTT already includes the user
    /// link, so nothing is added to it).
    fn ground(&self) -> RetrievalOutcome {
        RetrievalOutcome {
            source: RetrievalSource::Ground,
            rtt: self.ground_fallback_rtt,
            serving_sat: None,
        }
    }

    /// Every fetch's path through the Figure 6 decision: find the overhead
    /// satellite, offer each alive copy within the widest rung of `ladder`
    /// (non-empty, ascending) to [`crate::ladder`], and serve the first
    /// rung's best copy that beats the ground fallback on RTT.
    ///
    /// `graceful` picks three behaviours that recorded outputs depend on:
    /// the jitter draw point (eager, as soon as an overhead satellite
    /// exists, vs. lazy, once some copy is within budget), how a dead zone
    /// is reported (`Some(Ground)` vs. `None`), and which counters tally
    /// the fetch (`core.retrieval.resilient.*` vs. `budget_miss` /
    /// `ground_cheaper`).
    fn walk_ladder(
        &self,
        graph: &IslGraph,
        access: &AccessModel,
        caches: &BTreeSet<SatIndex>,
        ladder: &[u32],
        graceful: bool,
        mut rng: Option<&mut DetRng>,
    ) -> FetchResult {
        if graceful {
            RESILIENT_FETCHES.incr();
        }
        let Some((overhead, up_slant)) = graph.nearest_alive(self.user) else {
            if graceful {
                RESILIENT_DEGRADED.incr();
                DEGRADED_DEAD_ZONE.incr();
                RESILIENT_ATTEMPTS.record(0);
            }
            return FetchResult {
                outcome: graceful.then(|| self.ground()),
                attempts: 0,
                degraded: Some(DegradeReason::DeadZone),
                best_space_rtt: None,
            };
        };
        let mut sample_user_link = || match rng.as_deref_mut() {
            Some(r) => access.user_link_rtt_sample(up_slant, r),
            None => access.user_link_rtt_median(up_slant),
        };
        let mut user_link = graceful.then(&mut sample_user_link);

        // Per-rung bests over every alive copy, in BTreeSet order. An
        // overhead copy is decided on the first rung, since no copy is
        // cheaper than a zero-cost one; otherwise no copy beyond the
        // widest rung can win one, so the tables need only reach it.
        let overhead_hit = caches.contains(&overhead) && graph.is_alive(overhead);
        let ladder = if overhead_hit { &ladder[..1] } else { ladder };
        let mut rungs = vec![None; ladder.len()];
        if overhead_hit {
            ladder::offer(ladder, &mut rungs, Latency::ZERO, 0, overhead);
        } else {
            let tables = {
                let _span = TABLE_NS.timer();
                graph.routing_tables_within(overhead, ladder[ladder.len() - 1])
            };
            // One merge pass of the ascending copy set against the ball.
            tables.lookup_sorted(caches.iter().copied(), |m| {
                if graph.is_alive(m.sat) {
                    let cost = space_segment_cost(access, m.km, m.route_hops);
                    ladder::offer(ladder, &mut rungs, cost, m.hops, m.sat);
                }
            });
        }
        // The widest rung admits every copy, so it holds the cheapest; a
        // non-graceful fetch draws its user link only when there is one.
        let cheapest = rungs[rungs.len() - 1];
        if cheapest.is_some() {
            user_link.get_or_insert_with(&mut sample_user_link);
        }
        let best_space_rtt = cheapest.zip(user_link).map(|((c, _, _), u)| u + c);
        // A rational client takes whichever source is cheaper: a copy at
        // the far edge of a generous hop budget — or even the overhead
        // satellite behind a slow user link — can cost more than the bent
        // pipe to the ground cache.
        let served =
            user_link.and_then(|u| ladder::first_within(&rungs, u, self.ground_fallback_rtt));
        let attempts = served.map_or(ladder.len(), |(rung, ..)| rung + 1) as u32;
        if graceful && attempts > 1 {
            RESILIENT_RETRIES.add(u64::from(attempts - 1));
        }

        if let Some((_, rtt, bfs_hops, serving)) = served {
            // The source reports the BFS hop distance — the "found within
            // n hops" metric of the paper — even when the latency-optimal
            // route takes more (shorter) hops.
            let source = if bfs_hops == 0 {
                OVERHEAD_HITS.incr();
                RetrievalSource::Overhead
            } else {
                ISL_HITS.incr();
                ISL_HOPS.record(u64::from(bfs_hops));
                RetrievalSource::Isl { hops: bfs_hops }
            };
            if graceful {
                RESILIENT_ATTEMPTS.record(u64::from(attempts));
            }
            return FetchResult {
                outcome: Some(RetrievalOutcome {
                    source,
                    rtt,
                    serving_sat: Some(serving),
                }),
                attempts,
                degraded: None,
                best_space_rtt,
            };
        }

        GROUND_FALLBACKS.incr();
        let (reason, graceful_tally, single_tally) = if cheapest.is_some() {
            (
                DegradeReason::GroundCheaper,
                &DEGRADED_GROUND_CHEAPER,
                &GROUND_CHEAPER,
            )
        } else {
            (
                DegradeReason::BudgetExhausted,
                &DEGRADED_BUDGET,
                &BUDGET_MISSES,
            )
        };
        if graceful {
            RESILIENT_DEGRADED.incr();
            RESILIENT_ATTEMPTS.record(u64::from(attempts));
            graceful_tally.incr();
        } else {
            single_tally.incr();
        }
        FetchResult {
            outcome: Some(self.ground()),
            attempts,
            degraded: Some(reason),
            best_space_rtt,
        }
    }
}

/// The resolution of one [`RetrievalRequest`].
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq)]
pub struct FetchResult {
    /// The served fetch. `None` only for a non-graceful request in a dead
    /// zone (no servable satellite and no modelled ground path); graceful
    /// requests always resolve.
    pub outcome: Option<RetrievalOutcome>,
    /// Hop budgets tried (1 = first rung sufficed; 0 only in a dead zone,
    /// where there was nothing to escalate).
    pub attempts: u32,
    /// `Some` when the fetch fell back to the ground cache (or found no
    /// service at all).
    pub degraded: Option<DegradeReason>,
    /// RTT of the cheapest live copy within the widest hop budget, priced
    /// like a served one (user link + space segment) whether or not it
    /// beat the ground fallback; the cheapest over shells for
    /// [`RetrievalRequest::execute_multishell`]. `None` when no copy was
    /// within budget.
    pub best_space_rtt: Option<Latency>,
}

impl FetchResult {
    /// True when the fetch was served from a satellite (overhead or ISL).
    pub fn space_hit(&self) -> bool {
        self.outcome
            .as_ref()
            .is_some_and(|o| o.source != RetrievalSource::Ground)
    }

    /// The serving satellite, when space served.
    pub fn serving_sat(&self) -> Option<SatIndex> {
        self.outcome.as_ref().and_then(|o| o.serving_sat)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spacecdn_geo::SimTime;
    use spacecdn_lsn::FaultPlan;
    use spacecdn_orbit::shell::shells;
    use spacecdn_orbit::Constellation;

    fn setup() -> (Constellation, IslGraph, AccessModel) {
        let c = Constellation::new(shells::starlink_shell1());
        let g = IslGraph::build(&c, SimTime::EPOCH, &FaultPlan::none());
        (c, g, AccessModel::default())
    }

    /// Single attempt at `max_hops` with a 150 ms ground fallback.
    fn single(
        g: &IslGraph,
        access: &AccessModel,
        user: Geodetic,
        caches: &BTreeSet<SatIndex>,
        max_hops: u32,
    ) -> RetrievalOutcome {
        RetrievalRequest::new(user)
            .hop_budget(max_hops)
            .ground_fallback(Latency::from_ms(150.0))
            .graceful(false)
            .execute(g, access, caches, None)
            .outcome
            .expect("a live fleet always resolves")
    }

    /// Graceful fetch walking `ladder` with a `ground_ms` fallback.
    fn graceful(
        g: &IslGraph,
        access: &AccessModel,
        user: Geodetic,
        caches: &BTreeSet<SatIndex>,
        ladder: &[u32],
        ground_ms: f64,
    ) -> FetchResult {
        RetrievalRequest::new(user)
            .escalation(ladder)
            .ground_fallback(Latency::from_ms(ground_ms))
            .execute(g, access, caches, None)
    }

    #[test]
    fn overhead_hit_is_fastest() {
        let (_, g, access) = setup();
        let user = Geodetic::ground(40.0, -3.7);
        let (overhead, _) = g.nearest_alive(user).unwrap();
        let caches: BTreeSet<_> = [overhead].into_iter().collect();
        let out = single(&g, &access, user, &caches, 5);
        assert_eq!(out.source, RetrievalSource::Overhead);
        assert_eq!(out.serving_sat, Some(overhead));
        assert!(out.rtt.ms() < 25.0, "got {}", out.rtt);
    }

    #[test]
    fn isl_hit_reports_hops_and_costs_more() {
        let (c, g, access) = setup();
        let user = Geodetic::ground(-25.97, 32.57);
        let (overhead, _) = g.nearest_alive(user).unwrap();
        // Place the only copy three inter-plane hops east.
        let target = {
            let mut cur = overhead;
            for _ in 0..3 {
                cur = g
                    .neighbors(cur)
                    .iter()
                    .find(|e| c.plane_of(e.to) == (c.plane_of(cur) + 1) % 72)
                    .unwrap()
                    .to;
            }
            cur
        };
        let caches: BTreeSet<_> = [target].into_iter().collect();
        let out = single(&g, &access, user, &caches, 5);
        assert_eq!(out.source, RetrievalSource::Isl { hops: 3 });
        assert_eq!(out.serving_sat, Some(target));

        let direct = single(&g, &access, user, &[overhead].into_iter().collect(), 5);
        assert!(out.rtt > direct.rtt);
    }

    #[test]
    fn budget_exceeded_falls_back_to_ground() {
        let (c, g, access) = setup();
        let user = Geodetic::ground(10.0, 10.0);
        let (overhead, _) = g.nearest_alive(user).unwrap();
        // Copy on the far side of the constellation.
        let far = c.sat_at(
            c.plane_of(overhead) as i64 + 36,
            c.slot_of(overhead) as i64 + 11,
        );
        let caches: BTreeSet<_> = [far].into_iter().collect();
        let out = single(&g, &access, user, &caches, 3);
        assert_eq!(out.source, RetrievalSource::Ground);
        assert_eq!(out.rtt, Latency::from_ms(150.0));
        assert_eq!(out.serving_sat, None);
    }

    #[test]
    fn empty_cache_set_always_ground() {
        let (_, g, access) = setup();
        let out = single(
            &g,
            &access,
            Geodetic::ground(0.0, 0.0),
            &BTreeSet::new(),
            10,
        );
        assert_eq!(out.source, RetrievalSource::Ground);
    }

    #[test]
    fn nearest_copy_wins() {
        let (c, g, access) = setup();
        let user = Geodetic::ground(48.1, 11.6);
        let (overhead, _) = g.nearest_alive(user).unwrap();
        let near = g.neighbors(overhead).get(0).unwrap().to;
        let far = c.sat_at(
            c.plane_of(overhead) as i64 + 5,
            c.slot_of(overhead) as i64 + 5,
        );
        let caches: BTreeSet<_> = [far, near].into_iter().collect();
        let out = single(&g, &access, user, &caches, 20);
        assert_eq!(out.serving_sat, Some(near));
        assert_eq!(out.source, RetrievalSource::Isl { hops: 1 });
    }

    #[test]
    fn dead_cache_satellite_skipped() {
        let c = Constellation::new(shells::starlink_shell1());
        let user = Geodetic::ground(51.5, -0.13);
        let g0 = IslGraph::build(&c, SimTime::EPOCH, &FaultPlan::none());
        let (overhead, _) = g0.nearest_alive(user).unwrap();
        let mut faults = FaultPlan::none();
        faults.fail_sat(overhead);
        let g = IslGraph::build(&c, SimTime::EPOCH, &faults);
        // The failed satellite is in the cache set but cannot serve.
        let caches: BTreeSet<_> = [overhead].into_iter().collect();
        let access = AccessModel::default();
        let out = single(&g, &access, user, &caches, 10);
        assert_eq!(out.source, RetrievalSource::Ground);
    }

    #[test]
    fn multishell_prefers_cheapest_space_hit() {
        use spacecdn_orbit::MultiConstellation;
        let fleet = MultiConstellation::starlink_2024();
        let user = Geodetic::ground(48.1, 11.6);
        let graphs: Vec<IslGraph> = fleet
            .shells()
            .iter()
            .map(|s| IslGraph::build(s, SimTime::EPOCH, &FaultPlan::none()))
            .collect();
        let access = AccessModel::default();

        // Copy only in shell 1 (index 1), three hops from its overhead sat.
        let (oh1, _) = graphs[1].nearest_alive(user).unwrap();
        let target = {
            let c = fleet.shell(1);
            c.sat_at(c.plane_of(oh1) as i64 + 2, c.slot_of(oh1) as i64 + 1)
        };
        let caches: Vec<BTreeSet<SatIndex>> = vec![
            BTreeSet::new(),
            [target].into_iter().collect(),
            BTreeSet::new(),
            BTreeSet::new(),
        ];
        let req = RetrievalRequest::new(user)
            .hop_budget(10)
            .ground_fallback(Latency::from_ms(150.0))
            .graceful(false);
        let out = req
            .execute_multishell(&graphs, &access, &caches, None)
            .outcome
            .unwrap();
        assert_ne!(out.source, RetrievalSource::Ground);
        assert_eq!(out.serving_sat, Some(target));

        // Add an overhead copy in shell 0: it must win.
        let (oh0, _) = graphs[0].nearest_alive(user).unwrap();
        let caches2: Vec<BTreeSet<SatIndex>> = vec![
            [oh0].into_iter().collect(),
            [target].into_iter().collect(),
            BTreeSet::new(),
            BTreeSet::new(),
        ];
        let better = req
            .execute_multishell(&graphs, &access, &caches2, None)
            .outcome
            .unwrap();
        assert_eq!(better.source, RetrievalSource::Overhead);
        assert!(better.rtt < out.rtt);
    }

    #[test]
    fn multishell_all_miss_is_ground() {
        use spacecdn_orbit::MultiConstellation;
        let fleet = MultiConstellation::starlink_2024();
        let graphs: Vec<IslGraph> = fleet
            .shells()
            .iter()
            .map(|s| IslGraph::build(s, SimTime::EPOCH, &FaultPlan::none()))
            .collect();
        let caches = vec![BTreeSet::new(); 4];
        let out = RetrievalRequest::new(Geodetic::ground(0.0, 0.0))
            .hop_budget(5)
            .ground_fallback(Latency::from_ms(150.0))
            .graceful(false)
            .execute_multishell(&graphs, &AccessModel::default(), &caches, None)
            .outcome
            .unwrap();
        assert_eq!(out.source, RetrievalSource::Ground);
    }

    #[test]
    fn single_rung_ladder_matches_single_attempt() {
        let (c, g, access) = setup();
        let mut rng = DetRng::new(21, "resilient-eq");
        for trial in 0..40 {
            let user = Geodetic::ground(rng.uniform(-55.0, 55.0), rng.uniform(-180.0, 180.0));
            let caches: BTreeSet<_> = (0..rng.index(9))
                .map(|_| SatIndex(rng.index(c.len()) as u32))
                .collect();
            let budget = 1 + rng.index(11) as u32;
            let ground = rng.uniform(30.0, 200.0);
            let req = RetrievalRequest::new(user)
                .hop_budget(budget)
                .ground_fallback(Latency::from_ms(ground));
            let plain = req
                .clone()
                .graceful(false)
                .execute(&g, &access, &caches, None)
                .outcome
                .unwrap();
            let ladder = req.execute(&g, &access, &caches, None);
            assert_eq!(
                ladder.outcome,
                Some(plain),
                "trial {trial}: single-rung ladder diverges from a single attempt"
            );
        }
    }

    #[test]
    fn escalation_widens_until_copy_found() {
        let (c, g, access) = setup();
        let user = Geodetic::ground(-25.97, 32.57);
        let (overhead, _) = g.nearest_alive(user).unwrap();
        // The only copy four inter-plane hops east: rungs 1 and 3 miss it,
        // rung 5 serves it.
        let target = c.sat_at(c.plane_of(overhead) as i64 + 4, c.slot_of(overhead) as i64);
        let caches: BTreeSet<_> = [target].into_iter().collect();
        let out = graceful(&g, &access, user, &caches, &[1, 3, 5, 10], 200.0);
        let served = out.outcome.as_ref().unwrap();
        assert_eq!(served.source, RetrievalSource::Isl { hops: 4 });
        assert_eq!(served.serving_sat, Some(target));
        assert_eq!(out.attempts, 3, "rungs 1 and 3 must be tried and fail");
        assert_eq!(out.degraded, None);
    }

    #[test]
    fn exhausted_ladder_degrades_to_ground() {
        let (_, g, access) = setup();
        let out = graceful(
            &g,
            &access,
            Geodetic::ground(0.0, 0.0),
            &BTreeSet::new(),
            &[1, 3, 5, 10],
            160.0,
        );
        let served = out.outcome.as_ref().unwrap();
        assert_eq!(served.source, RetrievalSource::Ground);
        assert_eq!(served.rtt, Latency::from_ms(160.0));
        assert_eq!(out.attempts, 4);
        assert_eq!(out.degraded, Some(DegradeReason::BudgetExhausted));
    }

    #[test]
    fn dead_zone_still_serves_from_ground() {
        let c = Constellation::new(spacecdn_orbit::shell::shells::test_shell());
        let mut faults = FaultPlan::none();
        for s in c.sat_indices() {
            faults.fail_sat(s);
        }
        let g = IslGraph::build(&c, SimTime::EPOCH, &faults);
        let out = RetrievalRequest::new(Geodetic::ground(10.0, 10.0)).execute(
            &g,
            &AccessModel::default(),
            &[SatIndex(0)].into_iter().collect(),
            None,
        );
        assert_eq!(out.outcome.unwrap().source, RetrievalSource::Ground);
        assert_eq!(out.attempts, 0);
        assert_eq!(out.degraded, Some(DegradeReason::DeadZone));
    }

    #[test]
    fn reroutes_around_links_dead_since_warm() {
        // Content placed on the pristine fleet; by fetch time the direct
        // corridor to the copy is gone. The resilient fetch must detour
        // over the surviving mesh instead of failing.
        let c = Constellation::new(shells::starlink_shell1());
        let user = Geodetic::ground(48.1, 11.6);
        let g0 = IslGraph::build(&c, SimTime::EPOCH, &FaultPlan::none());
        let (overhead, _) = g0.nearest_alive(user).unwrap();
        let copy = c.sat_at(c.plane_of(overhead) as i64 + 2, c.slot_of(overhead) as i64);
        let caches: BTreeSet<_> = [copy].into_iter().collect();
        let access = AccessModel::default();
        let before = graceful(&g0, &access, user, &caches, &[1, 3, 5, 10], 250.0);
        let before = before.outcome.unwrap();
        assert_eq!(before.source, RetrievalSource::Isl { hops: 2 });

        // Kill every link of the satellite between overhead and the copy.
        let between = c.sat_at(c.plane_of(overhead) as i64 + 1, c.slot_of(overhead) as i64);
        let mut faults = FaultPlan::none();
        for e in g0.neighbors(between) {
            faults.fail_link(between, e.to);
        }
        let g = IslGraph::build(&c, SimTime::EPOCH, &faults);
        let after = graceful(&g, &access, user, &caches, &[1, 3, 5, 10], 250.0);
        // Still served from space — via a longer detour.
        assert_eq!(after.degraded, None);
        let after = after.outcome.unwrap();
        assert_eq!(after.serving_sat, Some(copy));
        let (RetrievalSource::Isl { hops: h0 }, RetrievalSource::Isl { hops: h1 }) =
            (before.source, after.source)
        else {
            panic!("both fetches must be ISL-served");
        };
        assert!(h1 > h0, "detour must cost extra hops ({h1} vs {h0})");
        assert!(after.rtt >= before.rtt);
    }

    #[test]
    fn gsl_outage_moves_overhead_but_space_still_serves() {
        let c = Constellation::new(shells::starlink_shell1());
        let user = Geodetic::ground(51.5, -0.13);
        let g0 = IslGraph::build(&c, SimTime::EPOCH, &FaultPlan::none());
        let (overhead, _) = g0.nearest_alive(user).unwrap();
        let mut faults = FaultPlan::none();
        faults.fail_gsl(overhead);
        let g = IslGraph::build(&c, SimTime::EPOCH, &faults);
        // The copy sits on the GSL-failed satellite: it cannot serve as
        // the overhead sat any more, but it can still *source* the object
        // over its ISLs to the new overhead satellite.
        let caches: BTreeSet<_> = [overhead].into_iter().collect();
        let out = graceful(
            &g,
            &AccessModel::default(),
            user,
            &caches,
            &[1, 3, 5, 10],
            250.0,
        );
        assert_eq!(out.serving_sat(), Some(overhead));
        assert!(matches!(
            out.outcome.as_ref().unwrap().source,
            RetrievalSource::Isl { .. }
        ));
        assert_eq!(out.degraded, None);
    }

    #[test]
    fn rtt_monotone_in_hop_distance() {
        // Copies progressively farther away yield non-decreasing RTT.
        let (c, g, access) = setup();
        let user = Geodetic::ground(-1.29, 36.82);
        let (overhead, _) = g.nearest_alive(user).unwrap();
        let mut last = 0.0;
        for d in 0..6i64 {
            let sat = c.sat_at(c.plane_of(overhead) as i64 + d, c.slot_of(overhead) as i64);
            let caches: BTreeSet<_> = [sat].into_iter().collect();
            let out = single(&g, &access, user, &caches, 20);
            assert!(
                out.rtt.ms() >= last - 1e-9,
                "rtt must grow with distance: {} after {last}",
                out.rtt
            );
            last = out.rtt.ms();
        }
    }

    #[test]
    fn request_defaults_are_the_paper_policy() {
        let req = RetrievalRequest::new(Geodetic::ground(0.0, 0.0));
        assert_eq!(req.escalation, vec![1, 3, 5, 10]);
        assert_eq!(req.ground_fallback_rtt.ms().to_bits(), 160.0f64.to_bits());
        assert!(req.graceful);
    }

    #[test]
    fn request_dead_zone_reporting_by_gracefulness() {
        let c = Constellation::new(spacecdn_orbit::shell::shells::test_shell());
        let mut faults = FaultPlan::none();
        for s in c.sat_indices() {
            faults.fail_sat(s);
        }
        let g = IslGraph::build(&c, SimTime::EPOCH, &faults);
        let access = AccessModel::default();
        let caches: BTreeSet<_> = [SatIndex(0)].into_iter().collect();
        let req = RetrievalRequest::new(Geodetic::ground(10.0, 10.0));

        let graceful = req.clone().execute(&g, &access, &caches, None);
        assert_eq!(graceful.degraded, Some(DegradeReason::DeadZone));
        assert_eq!(
            graceful.outcome.unwrap().source,
            RetrievalSource::Ground,
            "graceful dead zone still resolves to ground"
        );

        let strict = req.graceful(false).execute(&g, &access, &caches, None);
        assert_eq!(strict.outcome, None);
        assert_eq!(strict.degraded, Some(DegradeReason::DeadZone));
        assert_eq!(strict.attempts, 0);
    }

    #[test]
    #[should_panic(expected = "escalation ladder must be non-empty and ascending")]
    fn request_rejects_descending_ladder() {
        let (_, g, access) = setup();
        RetrievalRequest::new(Geodetic::ground(0.0, 0.0))
            .escalation(vec![5u32, 3])
            .execute(&g, &access, &BTreeSet::new(), None);
    }

    #[test]
    fn non_graceful_request_uses_widest_rung() {
        // A copy 4 hops out: single attempt at the ladder's last rung (5)
        // must serve it, exactly like hop_budget(5).
        let (c, g, access) = setup();
        let user = Geodetic::ground(-25.97, 32.57);
        let (overhead, _) = g.nearest_alive(user).unwrap();
        let target = c.sat_at(c.plane_of(overhead) as i64 + 4, c.slot_of(overhead) as i64);
        let caches: BTreeSet<_> = [target].into_iter().collect();
        let ladder = RetrievalRequest::new(user)
            .escalation(vec![1u32, 3, 5])
            .ground_fallback(Latency::from_ms(200.0))
            .graceful(false)
            .execute(&g, &access, &caches, None);
        let single = RetrievalRequest::new(user)
            .hop_budget(5)
            .ground_fallback(Latency::from_ms(200.0))
            .graceful(false)
            .execute(&g, &access, &caches, None);
        assert_eq!(ladder, single);
        assert_eq!(ladder.attempts, 1);
        assert_eq!(
            ladder.outcome.unwrap().source,
            RetrievalSource::Isl { hops: 4 }
        );
    }

    #[test]
    fn fetch_result_helpers_classify_outcomes() {
        let (_, g, access) = setup();
        let user = Geodetic::ground(40.0, -3.7);
        let (overhead, _) = g.nearest_alive(user).unwrap();
        let hit = RetrievalRequest::new(user).execute(
            &g,
            &access,
            &[overhead].into_iter().collect(),
            None,
        );
        assert!(hit.space_hit());
        assert_eq!(hit.serving_sat(), Some(overhead));

        let miss = RetrievalRequest::new(user).execute(&g, &access, &BTreeSet::new(), None);
        assert!(!miss.space_hit());
        assert_eq!(miss.serving_sat(), None);
    }
}
