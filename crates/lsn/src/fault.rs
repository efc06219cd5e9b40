//! Fault injection for satellites and ISLs.
//!
//! Real constellations always operate degraded: satellites deorbit, laser
//! terminals lose lock, and links near the orbital seam churn. Experiments
//! use a [`FaultPlan`] to knock out satellites or individual links and then
//! measure how routing and SpaceCDN retrieval degrade — the same style of
//! fault injection smoltcp builds into its examples.
//!
//! A [`FaultPlan`] is an *instantaneous* kill set. A [`FaultSchedule`] is a
//! deterministic *timeline* of fault events — satellite death and recovery
//! windows, ISL flaps with configurable up/down dwell, GSL (ground-link)
//! outages, seam-biased churn — that lowers to a `FaultPlan` at any epoch
//! via [`FaultSchedule::plan_at`]. The lowered plan carries the same
//! content [`FaultPlan::digest`] the engine's snapshot pool keys on, so
//! two schedule instants that degrade the fleet identically share one
//! built snapshot, and any instant that differs can never alias one.

use crate::topology::IslGraph;
use spacecdn_geo::{DetRng, SimDuration, SimTime};
use spacecdn_orbit::{Constellation, SatIndex};
use std::collections::HashSet;

/// A set of failed satellites and ISLs applied when building a topology
/// snapshot.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    failed_sats: HashSet<SatIndex>,
    /// Failed links, stored with endpoints ordered (min, max).
    failed_links: HashSet<(SatIndex, SatIndex)>,
    /// Satellites whose *ground* (user/gateway) link is down but whose
    /// laser terminals still relay — the inverse of an ISL failure.
    failed_gsls: HashSet<SatIndex>,
}

impl FaultPlan {
    /// A plan with no faults.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Mark a satellite as failed (all four of its ISLs and its user/gateway
    /// links go down).
    pub fn fail_sat(&mut self, sat: SatIndex) -> &mut Self {
        self.failed_sats.insert(sat);
        self
    }

    /// Mark one ISL as failed (direction-agnostic).
    pub fn fail_link(&mut self, a: SatIndex, b: SatIndex) -> &mut Self {
        self.failed_links.insert(Self::key(a, b));
        self
    }

    /// Mark a satellite's ground link (user/gateway radio) as failed. The
    /// satellite keeps relaying over its ISLs — it just cannot serve
    /// terminals or gateways until the GSL recovers.
    pub fn fail_gsl(&mut self, sat: SatIndex) -> &mut Self {
        self.failed_gsls.insert(sat);
        self
    }

    /// Fail a uniformly random fraction of satellites.
    pub fn fail_random_sats(&mut self, total: usize, fraction: f64, rng: &mut DetRng) -> &mut Self {
        let k = ((total as f64) * fraction.clamp(0.0, 1.0)).round() as usize;
        for idx in rng.sample_indices(total, k) {
            self.failed_sats.insert(SatIndex(idx as u32));
        }
        self
    }

    /// Is this satellite down?
    pub fn sat_failed(&self, sat: SatIndex) -> bool {
        self.failed_sats.contains(&sat)
    }

    /// Is this link down (either because it failed or an endpoint did)?
    pub fn link_failed(&self, a: SatIndex, b: SatIndex) -> bool {
        self.sat_failed(a) || self.sat_failed(b) || self.failed_links.contains(&Self::key(a, b))
    }

    /// Is this satellite's ground link down (because the GSL failed or the
    /// whole satellite did)?
    pub fn gsl_failed(&self, sat: SatIndex) -> bool {
        self.sat_failed(sat) || self.failed_gsls.contains(&sat)
    }

    /// Number of failed satellites.
    pub fn failed_sat_count(&self) -> usize {
        self.failed_sats.len()
    }

    /// Number of satellites with a failed ground link (not counting whole
    /// satellite failures).
    pub fn failed_gsl_count(&self) -> usize {
        self.failed_gsls.len()
    }

    /// True when the plan fails nothing at all.
    pub fn is_empty(&self) -> bool {
        self.failed_sats.is_empty() && self.failed_links.is_empty() && self.failed_gsls.is_empty()
    }

    /// Content digest of the plan, stable across processes and runs.
    ///
    /// Members are hashed in sorted order (the `HashSet`s iterate in an
    /// arbitrary, seed-dependent order), so two plans failing the same
    /// satellites and links always digest identically — the property the
    /// engine's snapshot pool keys rely on.
    pub fn digest(&self) -> u64 {
        let mut sats: Vec<u32> = self.failed_sats.iter().map(|s| s.0).collect();
        sats.sort_unstable();
        let mut links: Vec<(u32, u32)> =
            self.failed_links.iter().map(|&(a, b)| (a.0, b.0)).collect();
        links.sort_unstable();

        // FNV-1a, 64-bit: tiny, dependency-free, and stable by definition.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |word: u64| {
            for byte in word.to_le_bytes() {
                h ^= byte as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        mix(sats.len() as u64);
        for s in sats {
            mix(s as u64);
        }
        mix(links.len() as u64);
        for (a, b) in links {
            mix(((a as u64) << 32) | b as u64);
        }
        let mut gsls: Vec<u32> = self.failed_gsls.iter().map(|s| s.0).collect();
        gsls.sort_unstable();
        mix(gsls.len() as u64);
        for g in gsls {
            mix(g as u64);
        }
        h
    }

    /// Difference between this plan and `next`, as the sorted sets of
    /// satellites, explicit links and GSLs that newly fail or heal when
    /// stepping from `self` to `next`.
    ///
    /// The delta is *exact*: applying it to the masks derived from `self`
    /// reproduces the masks derived from `next` member-for-member, which is
    /// what lets [`IslGraph::apply_delta`] patch a snapshot instead of
    /// rebuilding it. Link entries are the explicit (min, max)-keyed kills
    /// only — edges implied by whole-satellite failures are carried by the
    /// sat sets.
    pub fn diff(&self, next: &FaultPlan) -> FaultPlanDelta {
        fn sat_diff(a: &HashSet<SatIndex>, b: &HashSet<SatIndex>) -> Vec<SatIndex> {
            let mut out: Vec<SatIndex> = b.difference(a).copied().collect();
            out.sort_unstable_by_key(|s| s.0);
            out
        }
        fn link_diff(
            a: &HashSet<(SatIndex, SatIndex)>,
            b: &HashSet<(SatIndex, SatIndex)>,
        ) -> Vec<(SatIndex, SatIndex)> {
            let mut out: Vec<(SatIndex, SatIndex)> = b.difference(a).copied().collect();
            out.sort_unstable_by_key(|&(x, y)| (x.0, y.0));
            out
        }
        FaultPlanDelta {
            failed_sats: sat_diff(&self.failed_sats, &next.failed_sats),
            healed_sats: sat_diff(&next.failed_sats, &self.failed_sats),
            failed_links: link_diff(&self.failed_links, &next.failed_links),
            healed_links: link_diff(&next.failed_links, &self.failed_links),
            failed_gsls: sat_diff(&self.failed_gsls, &next.failed_gsls),
            healed_gsls: sat_diff(&next.failed_gsls, &self.failed_gsls),
        }
    }

    fn key(a: SatIndex, b: SatIndex) -> (SatIndex, SatIndex) {
        if a.0 <= b.0 {
            (a, b)
        } else {
            (b, a)
        }
    }
}

/// Exact set difference between two [`FaultPlan`]s, produced by
/// [`FaultPlan::diff`]. All vectors are sorted by satellite index for
/// deterministic iteration.
#[derive(Debug, Clone, Default)]
pub struct FaultPlanDelta {
    /// Satellites failed in `next` but not in `prev`.
    pub failed_sats: Vec<SatIndex>,
    /// Satellites failed in `prev` but not in `next` (recovered).
    pub healed_sats: Vec<SatIndex>,
    /// Explicit (min, max)-keyed link kills added in `next`.
    pub failed_links: Vec<(SatIndex, SatIndex)>,
    /// Explicit link kills removed in `next`.
    pub healed_links: Vec<(SatIndex, SatIndex)>,
    /// Ground-link kills added in `next`.
    pub failed_gsls: Vec<SatIndex>,
    /// Ground-link kills removed in `next`.
    pub healed_gsls: Vec<SatIndex>,
}

impl FaultPlanDelta {
    /// True when the two plans are identical.
    pub fn is_empty(&self) -> bool {
        !self.is_structural() && self.failed_gsls.is_empty() && self.healed_gsls.is_empty()
    }

    /// True when the delta changes the ISL adjacency structure — any
    /// satellite or explicit link change. GSL-only deltas leave the CSR
    /// arrays untouched (only the servable mask moves).
    pub fn is_structural(&self) -> bool {
        !self.failed_sats.is_empty()
            || !self.healed_sats.is_empty()
            || !self.failed_links.is_empty()
            || !self.healed_links.is_empty()
    }
}

/// One event on a fault timeline. All events are *additive*: lowering a
/// schedule ORs every active event into the plan, so event order never
/// matters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultEvent {
    /// The satellite is down from `from` until `until` (forever when
    /// `None`): all four ISLs and the ground link go with it.
    SatOutage {
        /// The failing satellite.
        sat: SatIndex,
        /// First instant the satellite is down (inclusive).
        from: SimTime,
        /// First instant the satellite is back (exclusive end of the
        /// outage); `None` means it never recovers.
        until: Option<SimTime>,
    },
    /// The satellite's ground link is down for a window; its laser
    /// terminals keep relaying.
    GslOutage {
        /// The satellite losing its ground link.
        sat: SatIndex,
        /// First instant the GSL is down (inclusive).
        from: SimTime,
        /// Exclusive recovery instant; `None` means never.
        until: Option<SimTime>,
    },
    /// A flapping laser link: from `from` on, the link repeats an
    /// up-dwell of `up` followed by a down-dwell of `down`. Before `from`
    /// (and whenever `up + down` is zero) the link is healthy.
    IslFlap {
        /// One endpoint.
        a: SatIndex,
        /// The other endpoint (direction-agnostic).
        b: SatIndex,
        /// Phase origin of the flap cycle.
        from: SimTime,
        /// How long the link stays up each cycle.
        up: SimDuration,
        /// How long it stays down each cycle.
        down: SimDuration,
    },
}

impl FaultEvent {
    /// Is the event degrading the fleet at instant `t`?
    fn active_at(&self, t: SimTime) -> bool {
        match *self {
            FaultEvent::SatOutage { from, until, .. }
            | FaultEvent::GslOutage { from, until, .. } => {
                t.0 >= from.0 && until.is_none_or(|u| t.0 < u.0)
            }
            FaultEvent::IslFlap { from, up, down, .. } => {
                let period = up.0 + down.0;
                if t.0 < from.0 || period == 0 {
                    return false;
                }
                (t.0 - from.0) % period >= up.0
            }
        }
    }

    /// Canonical encoding for [`FaultSchedule::digest`]: a fixed-width
    /// word tuple whose ordering is content ordering.
    fn encode(&self) -> [u64; 5] {
        // `until: None` encodes as u64::MAX — unreachable as a real
        // SimTime in practice and ordered after every finite instant.
        let unbounded = u64::MAX;
        match *self {
            FaultEvent::SatOutage { sat, from, until } => {
                [0, sat.0 as u64, from.0, until.map_or(unbounded, |u| u.0), 0]
            }
            FaultEvent::GslOutage { sat, from, until } => {
                [1, sat.0 as u64, from.0, until.map_or(unbounded, |u| u.0), 0]
            }
            FaultEvent::IslFlap {
                a,
                b,
                from,
                up,
                down,
            } => {
                let (lo, hi) = if a.0 <= b.0 { (a.0, b.0) } else { (b.0, a.0) };
                [2, ((lo as u64) << 32) | hi as u64, from.0, up.0, down.0]
            }
        }
    }
}

/// A deterministic timeline of fault events.
///
/// Schedules are *value objects*: building one never touches a topology.
/// Experiments lower the schedule at each epoch with [`Self::plan_at`] and
/// hand the resulting [`FaultPlan`] to the snapshot layer; the plan's
/// digest keys the engine's snapshot pool, so repeating instants of a
/// periodic schedule (a flap cycle revisiting the same phase) reuse built
/// snapshots for free.
#[derive(Debug, Clone, Default)]
pub struct FaultSchedule {
    events: Vec<FaultEvent>,
}

impl FaultSchedule {
    /// An empty schedule: every instant lowers to [`FaultPlan::none`].
    pub fn none() -> Self {
        FaultSchedule::default()
    }

    /// Number of events on the timeline.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when the timeline has no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The raw events (diagnostic access).
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Append one event.
    pub fn push(&mut self, event: FaultEvent) -> &mut Self {
        self.events.push(event);
        self
    }

    /// A satellite outage window (`until: None` = permanent death).
    pub fn sat_outage(
        &mut self,
        sat: SatIndex,
        from: SimTime,
        until: Option<SimTime>,
    ) -> &mut Self {
        self.push(FaultEvent::SatOutage { sat, from, until })
    }

    /// A ground-link outage window.
    pub fn gsl_outage(
        &mut self,
        sat: SatIndex,
        from: SimTime,
        until: Option<SimTime>,
    ) -> &mut Self {
        self.push(FaultEvent::GslOutage { sat, from, until })
    }

    /// A flapping ISL with the given up/down dwell.
    pub fn isl_flap(
        &mut self,
        a: SatIndex,
        b: SatIndex,
        from: SimTime,
        up: SimDuration,
        down: SimDuration,
    ) -> &mut Self {
        self.push(FaultEvent::IslFlap {
            a,
            b,
            from,
            up,
            down,
        })
    }

    /// Kill a uniformly random `fraction` of `total` satellites at `at`,
    /// permanently.
    ///
    /// Selection truncates one seed-determined permutation, so the same
    /// `rng` seed/stream yields *nested* kill sets for increasing
    /// fractions — the property degradation sweeps rely on for monotone
    /// curves.
    pub fn random_sat_failures(
        &mut self,
        total: usize,
        fraction: f64,
        at: SimTime,
        rng: &mut DetRng,
    ) -> &mut Self {
        let k = ((total as f64) * fraction.clamp(0.0, 1.0)).round() as usize;
        for idx in rng.sample_indices(total, k) {
            self.sat_outage(SatIndex(idx as u32), at, None);
        }
        self
    }

    /// Give a random `fraction` of `total` satellites one outage window
    /// each: start uniform in `[0, horizon)`, duration exponential with
    /// the given mean (at least 1 ms). Satellites chosen first keep their
    /// windows as the fraction grows (nested selection, see
    /// [`Self::random_sat_failures`]).
    pub fn random_sat_outages(
        &mut self,
        total: usize,
        fraction: f64,
        horizon: SimDuration,
        mean_outage: SimDuration,
        rng: &mut DetRng,
    ) -> &mut Self {
        let k = ((total as f64) * fraction.clamp(0.0, 1.0)).round() as usize;
        for idx in rng.sample_indices(total, k) {
            let start = rng.uniform(0.0, horizon.0.max(1) as f64) as u64;
            let dwell = (rng.exponential(mean_outage.0 as f64) as u64).max(1);
            self.sat_outage(
                SatIndex(idx as u32),
                SimTime(start),
                Some(SimTime(start + dwell)),
            );
        }
        self
    }

    /// Give a random `fraction` of `total` satellites one GSL outage
    /// window each (same window model as [`Self::random_sat_outages`]).
    pub fn random_gsl_outages(
        &mut self,
        total: usize,
        fraction: f64,
        horizon: SimDuration,
        mean_outage: SimDuration,
        rng: &mut DetRng,
    ) -> &mut Self {
        let k = ((total as f64) * fraction.clamp(0.0, 1.0)).round() as usize;
        for idx in rng.sample_indices(total, k) {
            let start = rng.uniform(0.0, horizon.0.max(1) as f64) as u64;
            let dwell = (rng.exponential(mean_outage.0 as f64) as u64).max(1);
            self.gsl_outage(
                SatIndex(idx as u32),
                SimTime(start),
                Some(SimTime(start + dwell)),
            );
        }
        self
    }

    /// Flap a random `fraction` of the graph's undirected ISLs with the
    /// given dwell. Each flapped link gets a random phase origin within
    /// one cycle so the fleet's flaps desynchronise (lockstep flapping
    /// would alternate between two global topologies, which no real
    /// constellation does).
    pub fn random_isl_flaps(
        &mut self,
        graph: &IslGraph,
        fraction: f64,
        up: SimDuration,
        down: SimDuration,
        rng: &mut DetRng,
    ) -> &mut Self {
        let links = undirected_links(graph, |_, _| true);
        self.flap_selected(&links, fraction, up, down, rng)
    }

    /// Seam-biased churn: flap a `fraction` of the *seam* inter-plane
    /// links — the ones joining the first and last orbital planes, where
    /// Walker phasing makes pointing hardest and real constellations see
    /// the most link churn. Interior links are untouched.
    pub fn seam_churn(
        &mut self,
        graph: &IslGraph,
        constellation: &Constellation,
        fraction: f64,
        up: SimDuration,
        down: SimDuration,
        rng: &mut DetRng,
    ) -> &mut Self {
        let last = constellation.config().plane_count.saturating_sub(1);
        if last < 2 {
            return self; // no distinct seam with fewer than 3 planes
        }
        let links = undirected_links(graph, |a, b| {
            let (pa, pb) = (constellation.plane_of(a), constellation.plane_of(b));
            (pa == 0 && pb == last) || (pa == last && pb == 0)
        });
        self.flap_selected(&links, fraction, up, down, rng)
    }

    fn flap_selected(
        &mut self,
        links: &[(SatIndex, SatIndex)],
        fraction: f64,
        up: SimDuration,
        down: SimDuration,
        rng: &mut DetRng,
    ) -> &mut Self {
        let k = ((links.len() as f64) * fraction.clamp(0.0, 1.0)).round() as usize;
        let period = (up.0 + down.0).max(1);
        for idx in rng.sample_indices(links.len(), k) {
            let (a, b) = links[idx];
            let phase = rng.uniform(0.0, period as f64) as u64;
            self.isl_flap(a, b, SimTime(phase), up, down);
        }
        self
    }

    /// Lower the timeline to the instantaneous kill set at `t`.
    ///
    /// Events are additive, so the result is independent of event order;
    /// the returned plan's [`FaultPlan::digest`] is therefore a pure
    /// function of *what is degraded at `t`* — exactly what the engine's
    /// snapshot pool needs to share snapshots across repeating schedule
    /// phases and to never alias differing ones.
    pub fn plan_at(&self, t: SimTime) -> FaultPlan {
        let mut plan = FaultPlan::none();
        for event in &self.events {
            if !event.active_at(t) {
                continue;
            }
            match *event {
                FaultEvent::SatOutage { sat, .. } => {
                    plan.fail_sat(sat);
                }
                FaultEvent::GslOutage { sat, .. } => {
                    plan.fail_gsl(sat);
                }
                FaultEvent::IslFlap { a, b, .. } => {
                    plan.fail_link(a, b);
                }
            }
        }
        plan
    }

    /// Content digest of the timeline, stable across processes, clones
    /// and event insertion order (events commute, so the digest sorts
    /// their canonical encodings first).
    pub fn digest(&self) -> u64 {
        let mut rows: Vec<[u64; 5]> = self.events.iter().map(FaultEvent::encode).collect();
        rows.sort_unstable();
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |word: u64| {
            for byte in word.to_le_bytes() {
                h ^= byte as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        mix(rows.len() as u64);
        for row in rows {
            for word in row {
                mix(word);
            }
        }
        h
    }
}

/// Every undirected link of `graph` passing `keep`, in ascending
/// `(min, max)` endpoint order — a deterministic enumeration for the
/// random flap generators.
fn undirected_links(
    graph: &IslGraph,
    keep: impl Fn(SatIndex, SatIndex) -> bool,
) -> Vec<(SatIndex, SatIndex)> {
    let mut links = Vec::new();
    for i in 0..graph.len() as u32 {
        let a = SatIndex(i);
        for e in graph.neighbors(a) {
            if a.0 < e.to.0 && keep(a, e.to) {
                links.push((a, e.to));
            }
        }
    }
    links
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_fails_nothing() {
        let p = FaultPlan::none();
        assert!(!p.sat_failed(SatIndex(0)));
        assert!(!p.link_failed(SatIndex(0), SatIndex(1)));
        assert_eq!(p.failed_sat_count(), 0);
    }

    #[test]
    fn sat_failure_takes_links_down() {
        let mut p = FaultPlan::none();
        p.fail_sat(SatIndex(3));
        assert!(p.sat_failed(SatIndex(3)));
        assert!(p.link_failed(SatIndex(3), SatIndex(4)));
        assert!(p.link_failed(SatIndex(2), SatIndex(3)));
        assert!(!p.link_failed(SatIndex(1), SatIndex(2)));
    }

    #[test]
    fn link_failure_is_direction_agnostic() {
        let mut p = FaultPlan::none();
        p.fail_link(SatIndex(7), SatIndex(2));
        assert!(p.link_failed(SatIndex(2), SatIndex(7)));
        assert!(p.link_failed(SatIndex(7), SatIndex(2)));
        assert!(!p.sat_failed(SatIndex(7)));
    }

    #[test]
    fn random_failures_hit_requested_fraction() {
        let mut rng = DetRng::new(5, "faults");
        let mut p = FaultPlan::none();
        p.fail_random_sats(1000, 0.1, &mut rng);
        assert_eq!(p.failed_sat_count(), 100);
        // Deterministic for the same seed/stream.
        let mut rng2 = DetRng::new(5, "faults");
        let mut p2 = FaultPlan::none();
        p2.fail_random_sats(1000, 0.1, &mut rng2);
        for i in 0..1000u32 {
            assert_eq!(p.sat_failed(SatIndex(i)), p2.sat_failed(SatIndex(i)));
        }
    }

    #[test]
    fn digest_is_order_independent_and_content_sensitive() {
        let mut a = FaultPlan::none();
        a.fail_sat(SatIndex(9));
        a.fail_sat(SatIndex(2));
        a.fail_link(SatIndex(5), SatIndex(1));
        let mut b = FaultPlan::none();
        b.fail_link(SatIndex(1), SatIndex(5));
        b.fail_sat(SatIndex(2));
        b.fail_sat(SatIndex(9));
        assert_eq!(a.digest(), b.digest(), "same content must digest alike");
        assert_ne!(a.digest(), FaultPlan::none().digest());

        let mut c = FaultPlan::none();
        c.fail_sat(SatIndex(9));
        c.fail_sat(SatIndex(2));
        assert_ne!(a.digest(), c.digest(), "dropping a link must change it");
    }

    #[test]
    fn fraction_clamps() {
        let mut rng = DetRng::new(5, "faults");
        let mut p = FaultPlan::none();
        p.fail_random_sats(50, 2.0, &mut rng);
        assert_eq!(p.failed_sat_count(), 50);
    }

    #[test]
    fn gsl_failure_keeps_isls_up() {
        let mut p = FaultPlan::none();
        p.fail_gsl(SatIndex(3));
        assert!(p.gsl_failed(SatIndex(3)));
        assert!(!p.sat_failed(SatIndex(3)));
        assert!(!p.link_failed(SatIndex(3), SatIndex(4)));
        assert_eq!(p.failed_gsl_count(), 1);
        // A whole-satellite failure implies the GSL is down too.
        let mut q = FaultPlan::none();
        q.fail_sat(SatIndex(7));
        assert!(q.gsl_failed(SatIndex(7)));
        assert_eq!(q.failed_gsl_count(), 0);
    }

    #[test]
    fn gsl_failures_change_the_digest() {
        let mut a = FaultPlan::none();
        a.fail_sat(SatIndex(2));
        let mut b = a.clone();
        b.fail_gsl(SatIndex(9));
        assert_ne!(a.digest(), b.digest());
        let mut c = FaultPlan::none();
        c.fail_sat(SatIndex(2));
        c.fail_gsl(SatIndex(9));
        assert_eq!(b.digest(), c.digest());
    }

    #[test]
    fn outage_window_boundaries() {
        let mut s = FaultSchedule::none();
        s.sat_outage(
            SatIndex(5),
            SimTime::from_secs(100),
            Some(SimTime::from_secs(200)),
        );
        assert!(!s.plan_at(SimTime::from_secs(99)).sat_failed(SatIndex(5)));
        // Down from `from` (inclusive) until `until` (exclusive).
        assert!(s.plan_at(SimTime::from_secs(100)).sat_failed(SatIndex(5)));
        assert!(s.plan_at(SimTime::from_secs(199)).sat_failed(SatIndex(5)));
        assert!(!s.plan_at(SimTime::from_secs(200)).sat_failed(SatIndex(5)));
        // Permanent death never recovers.
        let mut p = FaultSchedule::none();
        p.sat_outage(SatIndex(6), SimTime::EPOCH, None);
        assert!(p
            .plan_at(SimTime::from_secs(1 << 30))
            .sat_failed(SatIndex(6)));
    }

    #[test]
    fn flap_cycles_through_up_and_down_dwell() {
        let (a, b) = (SatIndex(1), SatIndex(2));
        let mut s = FaultSchedule::none();
        s.isl_flap(
            a,
            b,
            SimTime::from_secs(10),
            SimDuration::from_secs(60),
            SimDuration::from_secs(20),
        );
        // Healthy before the phase origin.
        assert!(!s.plan_at(SimTime::from_secs(0)).link_failed(a, b));
        // Up dwell first: [10, 70) up, [70, 90) down, then repeat.
        assert!(!s.plan_at(SimTime::from_secs(10)).link_failed(a, b));
        assert!(!s.plan_at(SimTime::from_secs(69)).link_failed(a, b));
        assert!(s.plan_at(SimTime::from_secs(70)).link_failed(a, b));
        assert!(s.plan_at(SimTime::from_secs(89)).link_failed(a, b));
        assert!(!s.plan_at(SimTime::from_secs(90)).link_failed(a, b));
        assert!(s.plan_at(SimTime::from_secs(70 + 80)).link_failed(a, b));
        // Zero dwell = no flap at all.
        let mut z = FaultSchedule::none();
        z.isl_flap(a, b, SimTime::EPOCH, SimDuration(0), SimDuration(0));
        assert!(!z.plan_at(SimTime::from_secs(5)).link_failed(a, b));
    }

    #[test]
    fn gsl_outage_lowers_to_gsl_only_failure() {
        let mut s = FaultSchedule::none();
        s.gsl_outage(SatIndex(4), SimTime::EPOCH, Some(SimTime::from_secs(50)));
        let p = s.plan_at(SimTime::from_secs(10));
        assert!(p.gsl_failed(SatIndex(4)));
        assert!(!p.sat_failed(SatIndex(4)));
        assert!(!p.link_failed(SatIndex(4), SatIndex(5)));
        assert!(!s.plan_at(SimTime::from_secs(50)).gsl_failed(SatIndex(4)));
    }

    #[test]
    fn empty_schedule_lowers_to_pristine_plan() {
        let s = FaultSchedule::none();
        assert!(s.is_empty());
        let p = s.plan_at(SimTime::from_secs(123));
        assert!(p.is_empty());
        assert_eq!(p.digest(), FaultPlan::none().digest());
    }

    #[test]
    fn schedule_digest_order_insensitive_and_content_sensitive() {
        let mut a = FaultSchedule::none();
        a.sat_outage(SatIndex(1), SimTime::EPOCH, None);
        a.isl_flap(
            SatIndex(2),
            SatIndex(3),
            SimTime::EPOCH,
            SimDuration::from_secs(10),
            SimDuration::from_secs(5),
        );
        let mut b = FaultSchedule::none();
        b.isl_flap(
            SatIndex(3),
            SatIndex(2), // endpoint order is canonicalised too
            SimTime::EPOCH,
            SimDuration::from_secs(10),
            SimDuration::from_secs(5),
        );
        b.sat_outage(SatIndex(1), SimTime::EPOCH, None);
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a.digest(), a.clone().digest());
        let mut c = a.clone();
        c.gsl_outage(SatIndex(9), SimTime::EPOCH, None);
        assert_ne!(a.digest(), c.digest());
        assert_ne!(a.digest(), FaultSchedule::none().digest());
    }

    #[test]
    fn nested_failure_fractions_share_kill_sets() {
        // Same seed/stream ⇒ the 10 % kill set is a subset of the 20 % one.
        let plans: Vec<FaultPlan> = [0.1, 0.2]
            .iter()
            .map(|&f| {
                let mut rng = DetRng::new(11, "nested");
                let mut s = FaultSchedule::none();
                s.random_sat_failures(500, f, SimTime::EPOCH, &mut rng);
                s.plan_at(SimTime::from_secs(1))
            })
            .collect();
        assert_eq!(plans[0].failed_sat_count(), 50);
        assert_eq!(plans[1].failed_sat_count(), 100);
        for i in 0..500u32 {
            if plans[0].sat_failed(SatIndex(i)) {
                assert!(plans[1].sat_failed(SatIndex(i)), "kill sets not nested");
            }
        }
    }

    #[test]
    fn random_outage_windows_recover() {
        let mut rng = DetRng::new(3, "windows");
        let mut s = FaultSchedule::none();
        s.random_sat_outages(
            200,
            0.3,
            SimDuration::from_secs(1000),
            SimDuration::from_secs(120),
            &mut rng,
        );
        assert_eq!(s.len(), 60);
        // Far beyond every window, the fleet is pristine again.
        assert!(s.plan_at(SimTime::from_secs(1_000_000)).is_empty());
        // Somewhere inside the horizon, at least one outage is active.
        let active = (0..10u64)
            .map(|k| s.plan_at(SimTime::from_secs(k * 100)).failed_sat_count())
            .max()
            .unwrap();
        assert!(active > 0, "no outage ever active");
    }
}
