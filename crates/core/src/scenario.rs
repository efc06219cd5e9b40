//! Long-lived retrieval sessions.
//!
//! A [`Scenario`] owns everything a stream of fetches needs — the
//! network, the temporal fault schedule, the current epoch's topology
//! snapshot, the content-copy set, and the default retrieval policy — so
//! callers resolving many requests stop re-plumbing five arguments per
//! call. [`Scenario::advance_to`] moves simulated time: the snapshot is
//! rebuilt through the process-wide pool (so concurrent campaigns at the
//! same epoch share one graph) with the schedule lowered to the fault
//! plan of that instant.
//!
//! `Scenario::fetch` executes the same [`RetrievalRequest`] against the
//! same pooled graphs as a direct call, which the differential oracle
//! (`crates/core/tests/oracle.rs`) checks bit for bit on randomized
//! shells, schedules, and epochs.

use crate::network::LsnNetwork;
use crate::placement::PlacementSpec;
use crate::retrieval::{FetchResult, RetrievalRequest};
use spacecdn_content::policy::PolicyKind;
use spacecdn_geo::{DetRng, Geodetic, Latency, SimDuration, SimTime};
use spacecdn_lsn::{FaultSchedule, IslGraph};
use spacecdn_orbit::SatIndex;
use spacecdn_telemetry::LazyCounter;
use std::collections::BTreeSet;
use std::sync::Arc;

/// Session counters (stable: pure tallies of deterministic work).
static SCENARIO_FETCHES: LazyCounter = LazyCounter::stable("core.scenario.fetches");
static SCENARIO_ADVANCES: LazyCounter = LazyCounter::stable("core.scenario.epoch_advances");
static SCENARIO_MUTATIONS: LazyCounter = LazyCounter::stable("core.scenario.live_mutations");

/// A retrieval session: network + fault schedule + current snapshot +
/// copy set + default policy, reused across many requests.
///
/// Build one with [`Scenario::builder`], move time with
/// [`Scenario::advance_to`], and resolve fetches with
/// [`Scenario::fetch`] (explicit request) or [`Scenario::fetch_user`]
/// (session-default policy).
pub struct Scenario {
    net: LsnNetwork,
    schedule: FaultSchedule,
    epoch: SimTime,
    graph: Arc<IslGraph>,
    copies: BTreeSet<SatIndex>,
    escalation: Vec<u32>,
    ground_fallback_rtt: Latency,
    graceful: bool,
    cache_policy: PolicyKind,
    placement: Option<PlacementSpec>,
}

/// Builder for [`Scenario`] (see [`Scenario::builder`]).
pub struct ScenarioBuilder {
    net: LsnNetwork,
    schedule: FaultSchedule,
    copies: BTreeSet<SatIndex>,
    escalation: Vec<u32>,
    ground_fallback_rtt: Latency,
    graceful: bool,
    cache_policy: PolicyKind,
    placement: Option<PlacementSpec>,
}

impl ScenarioBuilder {
    /// Attach a temporal fault schedule (default: pristine fleet).
    #[must_use]
    pub fn schedule(mut self, schedule: FaultSchedule) -> Self {
        self.schedule = schedule;
        self
    }

    /// Seed the content-copy set (default: empty).
    #[must_use]
    pub fn copies(mut self, copies: BTreeSet<SatIndex>) -> Self {
        self.copies = copies;
        self
    }

    /// Default hop-budget escalation ladder for session fetches
    /// (default: the paper's 1 → 3 → 5 → 10).
    #[must_use]
    pub fn escalation(mut self, ladder: impl Into<Vec<u32>>) -> Self {
        self.escalation = ladder.into();
        self
    }

    /// Collapse the default ladder to a single rung.
    #[must_use]
    pub fn hop_budget(mut self, budget: u32) -> Self {
        self.escalation = vec![budget];
        self
    }

    /// Default ground-fallback RTT for session fetches (default: 160 ms).
    #[must_use]
    pub fn ground_fallback(mut self, rtt: Latency) -> Self {
        self.ground_fallback_rtt = rtt;
        self
    }

    /// Default gracefulness for session fetches (default: `true`).
    #[must_use]
    pub fn graceful(mut self, graceful: bool) -> Self {
        self.graceful = graceful;
        self
    }

    /// Default cache eviction/admission policy for traffic campaigns run
    /// over this session (default: the `SPACECDN_POLICY` knob).
    #[must_use]
    pub fn cache_policy(mut self, policy: PolicyKind) -> Self {
        self.cache_policy = policy;
        self
    }

    /// Default replica-placement spec for traffic campaigns run over this
    /// session (default: the `SPACECDN_PLACEMENT` knob; `None` disables
    /// pinned placement).
    #[must_use]
    pub fn placement(mut self, spec: Option<PlacementSpec>) -> Self {
        self.placement = spec;
        self
    }

    /// Build the session, constructing the opening snapshot at
    /// [`SimTime::EPOCH`].
    pub fn build(self) -> Scenario {
        let start = SimTime::EPOCH;
        let graph = self
            .net
            .snapshot(start, &self.schedule.plan_at(start))
            .graph_handle();
        Scenario {
            net: self.net,
            schedule: self.schedule,
            epoch: start,
            graph,
            copies: self.copies,
            escalation: self.escalation,
            ground_fallback_rtt: self.ground_fallback_rtt,
            graceful: self.graceful,
            cache_policy: self.cache_policy,
            placement: self.placement,
        }
    }
}

impl Scenario {
    /// Start building a session over `net`.
    pub fn builder(net: LsnNetwork) -> ScenarioBuilder {
        ScenarioBuilder {
            net,
            schedule: FaultSchedule::none(),
            copies: BTreeSet::new(),
            escalation: vec![1, 3, 5, 10],
            ground_fallback_rtt: Latency::from_ms(160.0),
            graceful: true,
            cache_policy: PolicyKind::from_env(),
            placement: PlacementSpec::from_env(),
        }
    }

    /// The owned network.
    pub fn network(&self) -> &LsnNetwork {
        &self.net
    }

    /// The session's fault schedule.
    pub fn schedule(&self) -> &FaultSchedule {
        &self.schedule
    }

    /// The epoch of the current snapshot.
    pub fn epoch(&self) -> SimTime {
        self.epoch
    }

    /// The current epoch's topology snapshot.
    pub fn graph(&self) -> &IslGraph {
        &self.graph
    }

    /// A shared handle to the current snapshot (e.g. for parallel request
    /// streams that outlive a later `advance_to`).
    pub fn graph_handle(&self) -> Arc<IslGraph> {
        Arc::clone(&self.graph)
    }

    /// The current content-copy set.
    pub fn copies(&self) -> &BTreeSet<SatIndex> {
        &self.copies
    }

    /// Mutable access to the copy set (warm, evict, invalidate).
    pub fn copies_mut(&mut self) -> &mut BTreeSet<SatIndex> {
        &mut self.copies
    }

    /// Replace the copy set wholesale.
    pub fn set_copies(&mut self, copies: BTreeSet<SatIndex>) {
        self.copies = copies;
    }

    /// Move the session to epoch `t`: lower the fault schedule to that
    /// instant and swap in the (pooled) topology snapshot. The outgoing
    /// epoch's graph seeds delta advancement (a CSR patch instead of a
    /// rebuild) unless `SPACECDN_NO_DELTA` turned that off — either
    /// way the resulting snapshot is bit-identical.
    pub fn advance_to(&mut self, t: SimTime) {
        SCENARIO_ADVANCES.incr();
        self.epoch = t;
        let prev = Arc::clone(&self.graph);
        self.graph = self
            .net
            .snapshot_from(t, &self.schedule.plan_at(t), Some(&prev))
            .graph_handle();
    }

    /// Advance through `epochs` topology epochs (`start + step·e`) and
    /// return each epoch's pooled snapshot handle. This is the batched
    /// front door for engines that shard work across threads: all
    /// snapshots are frozen up front by one owner, so worker shards share
    /// the `Arc`s instead of racing the snapshot pool. The scenario is
    /// left positioned at the final epoch. Long-lived sessions (the
    /// `spacecdn-serve` clock) freeze each burst from their running clock.
    pub fn freeze_epochs_from(
        &mut self,
        start: SimTime,
        epochs: usize,
        step: SimDuration,
    ) -> Vec<Arc<IslGraph>> {
        (0..epochs)
            .map(|e| {
                self.advance_to(start + step.mul(e as u64));
                self.graph_handle()
            })
            .collect()
    }

    /// Mutate the fault schedule of a live session and re-lower it at the
    /// current epoch: the snapshot is rebuilt (through the pool, delta
    /// path when available) against the updated plan, so subsequent
    /// fetches see the new fault state without the clock moving. This is
    /// the `spacecdn-serve` fault-injection hook.
    pub fn mutate_schedule(&mut self, f: impl FnOnce(&mut FaultSchedule)) {
        SCENARIO_MUTATIONS.incr();
        f(&mut self.schedule);
        self.refresh();
    }

    /// Rebuild the current epoch's snapshot from the session's (possibly
    /// mutated) schedule. Bit-identical to a fresh build at this epoch —
    /// the pool keys on the lowered fault plan's digest, so a changed
    /// schedule can never alias a stale graph.
    pub fn refresh(&mut self) {
        let prev = Arc::clone(&self.graph);
        self.graph = self
            .net
            .snapshot_from(self.epoch, &self.schedule.plan_at(self.epoch), Some(&prev))
            .graph_handle();
    }

    /// Swap the default hop-budget escalation ladder mid-session.
    pub fn set_escalation(&mut self, ladder: impl Into<Vec<u32>>) {
        SCENARIO_MUTATIONS.incr();
        self.escalation = ladder.into();
    }

    /// Swap the default ground-fallback RTT mid-session.
    pub fn set_ground_fallback(&mut self, rtt: Latency) {
        SCENARIO_MUTATIONS.incr();
        self.ground_fallback_rtt = rtt;
    }

    /// Swap the default gracefulness mid-session.
    pub fn set_graceful(&mut self, graceful: bool) {
        SCENARIO_MUTATIONS.incr();
        self.graceful = graceful;
    }

    /// The session's default cache eviction/admission policy (consumed by
    /// traffic campaigns building a [`crate::traffic::TrafficConfig`]).
    pub fn cache_policy(&self) -> PolicyKind {
        self.cache_policy
    }

    /// Swap the default cache policy mid-session: subsequent traffic
    /// bursts build their fleets under the new policy (cache contents are
    /// per-burst, so no live migration is involved). This is the
    /// `spacecdn-serve` `cache` mutation hook.
    pub fn set_cache_policy(&mut self, policy: PolicyKind) {
        SCENARIO_MUTATIONS.incr();
        self.cache_policy = policy;
    }

    /// The session's default replica-placement spec (consumed by traffic
    /// campaigns building a [`crate::traffic::TrafficConfig`]). `None`
    /// means no pinned placement — pure pull-through caching.
    pub fn placement(&self) -> Option<&PlacementSpec> {
        self.placement.as_ref()
    }

    /// Swap the default placement spec mid-session: subsequent traffic
    /// bursts rebuild their pinned replica plans under the new spec
    /// (pinned copies are per-burst, like cache contents, so no live
    /// migration is involved). This is the `spacecdn-serve` `place`
    /// mutation hook.
    pub fn set_placement(&mut self, spec: Option<PlacementSpec>) {
        SCENARIO_MUTATIONS.incr();
        self.placement = spec;
    }

    /// A request pre-filled with the session's default policy, ready for
    /// per-call overrides before [`Scenario::fetch`].
    pub fn request(&self, user: Geodetic) -> RetrievalRequest {
        RetrievalRequest::new(user)
            .escalation(self.escalation.clone())
            .ground_fallback(self.ground_fallback_rtt)
            .graceful(self.graceful)
    }

    /// Execute `req` against the current snapshot and copy set.
    pub fn fetch(&self, req: &RetrievalRequest, rng: Option<&mut DetRng>) -> FetchResult {
        SCENARIO_FETCHES.incr();
        req.execute(&self.graph, self.net.access(), &self.copies, rng)
    }

    /// Resolve a fetch for `user` under the session's default policy.
    pub fn fetch_user(&self, user: Geodetic, rng: Option<&mut DetRng>) -> FetchResult {
        let req = self.request(user);
        self.fetch(&req, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::{PlacementPlan, PlacementStrategy};
    use crate::retrieval::RetrievalSource;
    use spacecdn_geo::SimDuration;
    use spacecdn_lsn::{AccessModel, FaultPlan, IslGraph};
    use spacecdn_orbit::shell::shells;
    use spacecdn_orbit::Constellation;
    use spacecdn_terra::fiber::FiberModel;

    fn small_net() -> LsnNetwork {
        LsnNetwork::new(
            Constellation::new(shells::test_shell()),
            Vec::new(),
            AccessModel::default(),
            FiberModel::default(),
        )
    }

    #[test]
    fn session_fetch_matches_direct_request_execution() {
        let net = small_net();
        let c_len = net.constellation().len();
        let mut rng = DetRng::new(9, "scenario/copies");
        let copies: BTreeSet<_> = (0..4).map(|_| SatIndex(rng.index(c_len) as u32)).collect();
        let t = SimTime::from_secs(314);

        let direct_graph = IslGraph::build(net.constellation(), t, &FaultPlan::none());
        let user = Geodetic::ground(12.0, 34.0);
        let req = RetrievalRequest::new(user).ground_fallback(Latency::from_ms(120.0));
        let direct = req.execute(&direct_graph, net.access(), &copies, None);

        let mut sc = Scenario::builder(net)
            .copies(copies)
            .ground_fallback(Latency::from_ms(120.0))
            .build();
        sc.advance_to(t);
        let via_session = sc.fetch_user(user, None);
        assert_eq!(direct, via_session);
    }

    #[test]
    fn advance_to_applies_the_schedule() {
        let net = small_net();
        let all: Vec<_> = net.constellation().sat_indices().collect();
        let mut schedule = FaultSchedule::none();
        // Whole fleet out from t=100s onward: before that space serves,
        // after it every fetch is a dead zone.
        for &s in &all {
            schedule.sat_outage(s, SimTime::from_secs(100), None);
        }
        let copies: BTreeSet<_> = all.into_iter().collect();
        let mut sc = Scenario::builder(net)
            .schedule(schedule)
            .copies(copies)
            .build();
        let user = Geodetic::ground(10.0, 10.0);

        let before = sc.fetch_user(user, None);
        assert!(before.space_hit(), "pristine fleet must serve from space");

        sc.advance_to(SimTime::from_secs(100) + SimDuration::from_secs(1));
        let after = sc.fetch_user(user, None);
        assert_eq!(
            after.outcome.unwrap().source,
            RetrievalSource::Ground,
            "after the outage the fetch degrades to ground"
        );
        assert_eq!(after.attempts, 0);
    }

    #[test]
    fn session_request_carries_policy_defaults() {
        let net = small_net();
        let sc = Scenario::builder(net)
            .escalation(vec![2u32, 6])
            .ground_fallback(Latency::from_ms(90.0))
            .graceful(false)
            .build();
        let req = sc.request(Geodetic::ground(0.0, 0.0));
        assert_eq!(req.escalation, vec![2, 6]);
        assert_eq!(req.ground_fallback_rtt, Latency::from_ms(90.0));
        assert!(!req.graceful);
    }

    #[test]
    fn live_schedule_mutation_matches_fresh_session() {
        // Injecting an outage into a running session (mutate_schedule →
        // refresh at the current epoch) must be indistinguishable from a
        // session built with that schedule from the start.
        let t = SimTime::from_secs(250);
        let all: Vec<_> = small_net().constellation().sat_indices().collect();
        let copies: BTreeSet<_> = all.iter().copied().collect();
        let user = Geodetic::ground(10.0, 10.0);

        let mut live = Scenario::builder(small_net())
            .copies(copies.clone())
            .build();
        live.advance_to(t);
        assert!(live.fetch_user(user, None).space_hit());
        live.mutate_schedule(|schedule| {
            for &s in &all {
                schedule.sat_outage(s, SimTime::from_secs(200), None);
            }
        });
        assert_eq!(live.epoch(), t, "mutation must not move the clock");

        let mut from_scratch = FaultSchedule::none();
        for &s in &all {
            from_scratch.sat_outage(s, SimTime::from_secs(200), None);
        }
        let mut fresh = Scenario::builder(small_net())
            .schedule(from_scratch)
            .copies(copies)
            .build();
        fresh.advance_to(t);

        assert_eq!(live.fetch_user(user, None), fresh.fetch_user(user, None));
        assert_eq!(
            live.graph().csr(),
            fresh.graph().csr(),
            "mutated-then-refreshed graph must equal the fresh build"
        );
    }

    #[test]
    fn policy_setters_mirror_builder_defaults() {
        let mut sc = Scenario::builder(small_net()).build();
        sc.set_escalation(vec![2u32, 6]);
        sc.set_ground_fallback(Latency::from_ms(90.0));
        sc.set_graceful(false);
        let req = sc.request(Geodetic::ground(0.0, 0.0));
        assert_eq!(req.escalation, vec![2, 6]);
        assert_eq!(req.ground_fallback_rtt, Latency::from_ms(90.0));
        assert!(!req.graceful);
    }

    #[test]
    fn freeze_epochs_from_offsets_the_timeline() {
        let step = SimDuration::from_secs(30);
        let start = SimTime::from_secs(120);
        let mut offset = Scenario::builder(small_net()).build();
        let frozen = offset.freeze_epochs_from(start, 3, step);
        assert_eq!(frozen.len(), 3);
        assert_eq!(offset.epoch(), start + step.mul(2));

        // Each frozen snapshot equals a direct advance to the same instant.
        let mut direct = Scenario::builder(small_net()).build();
        for (e, graph) in frozen.iter().enumerate() {
            direct.advance_to(start + step.mul(e as u64));
            assert_eq!(graph.csr(), direct.graph().csr());
        }
    }

    #[test]
    fn copies_mut_roundtrips() {
        let net = small_net();
        let mut sc = Scenario::builder(net).build();
        assert!(sc.copies().is_empty());
        let placed = PlacementPlan::builder(PlacementStrategy::PerPlane { k: 1 })
            .seed(3)
            .build_single(sc.network().constellation())
            .materialize(sc.network().constellation());
        sc.set_copies(placed.clone());
        assert_eq!(sc.copies(), &placed);
        sc.copies_mut().clear();
        assert!(sc.copies().is_empty());
    }

    #[test]
    fn placement_setter_mirrors_builder_default() {
        let spec = PlacementSpec::parse("perplane-2:budget-64:coop").unwrap();
        let via_builder = Scenario::builder(small_net()).placement(Some(spec)).build();
        assert_eq!(via_builder.placement(), Some(&spec));

        let mut sc = Scenario::builder(small_net()).placement(None).build();
        assert_eq!(sc.placement(), None);
        sc.set_placement(Some(spec));
        assert_eq!(sc.placement(), Some(&spec));
        sc.set_placement(None);
        assert_eq!(sc.placement(), None);
    }
}
