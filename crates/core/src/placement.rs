//! Cache copy placement on the constellation.
//!
//! §4 argues "with around 4 copies distributed within each plane, an object
//! can be reachable within 5 hops, even within a single orbital plane;
//! fewer copies would be needed if east-west ISLs across orbital planes are
//! also used." Placement strategies decide which satellites hold copies of
//! an object; the retrieval layer then measures how many hops a request
//! needs to reach one.
//!
//! The entry point is [`PlacementPlan`]: copies are computed per
//! **orbital-position slot** — the `(plane, slot-phase)` key of a satellite
//! within its shell. Satellites revisit the same ground track, so a plan
//! keyed by slot is stable across epochs and re-materializes to concrete
//! [`SatIndex`] values in O(copies) after every `advance_to`. Plans carry
//! their own seed; callers never thread a `&mut DetRng` through.

use spacecdn_geo::DetRng;
use spacecdn_orbit::{Constellation, SatIndex};
use std::collections::BTreeSet;

/// How cache copies of one object are distributed over the constellation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PlacementStrategy {
    /// `k` copies per orbital plane, evenly spaced within the plane
    /// (the paper's "4 copies within each plane" scheme).
    PerPlane {
        /// Copies per plane.
        k: u32,
    },
    /// A uniformly random fraction of all satellites holds a copy.
    RandomFraction {
        /// Fraction of the fleet in `[0, 1]`.
        fraction: f64,
    },
    /// Exactly `count` copies, placed uniformly at random.
    RandomCount {
        /// Number of copies.
        count: u32,
    },
    /// Enough random copies that the nearest copy is within `hops` ISL hops
    /// with high probability: the +Grid ball of radius `h` holds `2h²+2h+1`
    /// satellites, and `⌈2T / ball(h)⌉` random copies leave a point
    /// uncovered with probability ≈ e⁻² ≈ 13 %.
    CoverRadius {
        /// Target hop radius.
        hops: u32,
    },
}

/// Number of satellites within `h` hops on an (infinite) +Grid.
pub fn grid_ball_size(h: u32) -> u32 {
    2 * h * h + 2 * h + 1
}

/// Popularity-weighted copy allocation: split a global copy budget across a
/// catalog in proportion to each object's demand mass, with a floor of one
/// copy per cached object and a per-object cap.
///
/// This is how a real SpaceCDN would spend its storage: the Boca-vs-River
/// final gets hundreds of copies, the long tail gets one (or zero — objects
/// beyond the budget are left to the ground origin). `masses` need not be
/// normalised. Returns one copy count per object, preserving order;
/// objects that receive no copies get 0.
pub fn popularity_copy_allocation(
    masses: &[f64],
    copy_budget: usize,
    per_object_cap: u32,
) -> Vec<u32> {
    let total_mass: f64 = masses.iter().filter(|m| m.is_finite() && **m > 0.0).sum();
    if total_mass <= 0.0 || copy_budget == 0 {
        return vec![0; masses.len()];
    }
    let cap = per_object_cap.max(1);
    // Proportional shares, floored; then spend any remainder on the largest
    // fractional parts (largest-remainder method, deterministic ties by
    // index).
    let mut alloc: Vec<u32> = Vec::with_capacity(masses.len());
    let mut remainders: Vec<(f64, usize)> = Vec::with_capacity(masses.len());
    let mut spent: usize = 0;
    for (i, &m) in masses.iter().enumerate() {
        let share = if m.is_finite() && m > 0.0 {
            m / total_mass * copy_budget as f64
        } else {
            0.0
        };
        let floor = (share.floor() as u32).min(cap);
        alloc.push(floor);
        spent += floor as usize;
        if floor < cap {
            remainders.push((share - share.floor(), i));
        }
    }
    remainders.sort_by(|a, b| {
        b.0.partial_cmp(&a.0)
            .expect("finite shares")
            .then_with(|| a.1.cmp(&b.1))
    });
    for (_, i) in remainders {
        if spent >= copy_budget {
            break;
        }
        if alloc[i] < cap {
            alloc[i] += 1;
            spent += 1;
        }
    }
    alloc
}

/// The strategy kernel behind [`PlacementPlanBuilder::build_single`]:
/// selects slot keys for one object, drawing one `index` per plane for
/// `PerPlane` and one `sample_indices` for the random family.
fn strategy_slots(
    strategy: PlacementStrategy,
    plane_count: u16,
    sats_per_plane: u16,
    rng: &mut DetRng,
) -> Vec<(u16, u16)> {
    let planes = plane_count as usize;
    let per_plane = sats_per_plane as usize;
    let total = planes * per_plane;
    match strategy {
        PlacementStrategy::PerPlane { k } => {
            let k = k.min(sats_per_plane as u32).max(1) as usize;
            let mut slots = Vec::with_capacity(planes * k);
            // Random rotation per plane so copies don't align across
            // planes (aligned copies waste inter-plane reachability).
            for plane in 0..planes {
                let rot = rng.index(per_plane);
                for i in 0..k {
                    let slot = (rot + i * per_plane / k) % per_plane;
                    slots.push((plane as u16, slot as u16));
                }
            }
            slots
        }
        PlacementStrategy::RandomFraction { fraction } => {
            let count = ((total as f64) * fraction.clamp(0.0, 1.0)).round() as usize;
            sample_slots(total, count, per_plane, rng)
        }
        PlacementStrategy::RandomCount { count } => {
            sample_slots(total, count as usize, per_plane, rng)
        }
        PlacementStrategy::CoverRadius { hops } => {
            let ball = grid_ball_size(hops) as usize;
            let count = (2 * total).div_ceil(ball).max(1);
            sample_slots(total, count, per_plane, rng)
        }
    }
}

/// Uniform sample of `count` distinct slots, keyed plane-major the same way
/// `SatIndex` flattens `(plane, slot)`.
fn sample_slots(total: usize, count: usize, per_plane: usize, rng: &mut DetRng) -> Vec<(u16, u16)> {
    rng.sample_indices(total, count)
        .into_iter()
        .map(|i| ((i / per_plane) as u16, (i % per_plane) as u16))
        .collect()
}

impl PlacementStrategy {
    /// True for strategies that exploit orbital structure (deterministic
    /// slot geometry) rather than uniform-random sprinkling.
    pub fn is_orbit_aware(&self) -> bool {
        matches!(
            self,
            PlacementStrategy::PerPlane { .. } | PlacementStrategy::CoverRadius { .. }
        )
    }

    /// Number of copies this strategy will produce on the given
    /// constellation (exactly, before any dedup effects).
    pub fn copy_count(&self, constellation: &Constellation) -> usize {
        let total = constellation.len();
        match *self {
            PlacementStrategy::PerPlane { k } => {
                (k.min(constellation.config().sats_per_plane).max(1)
                    * constellation.config().plane_count) as usize
            }
            PlacementStrategy::RandomFraction { fraction } => {
                ((total as f64) * fraction.clamp(0.0, 1.0)).round() as usize
            }
            PlacementStrategy::RandomCount { count } => (count as usize).min(total),
            PlacementStrategy::CoverRadius { hops } => {
                (2 * total).div_ceil(grid_ball_size(hops) as usize).max(1)
            }
        }
    }
}

/// A deterministic, slot-keyed replica placement for one shell.
///
/// Copies are stored as `(plane, slot-phase)` keys, one list per catalog
/// object. The plan owns its seed: building the same plan twice yields the
/// same bytes, with no caller-supplied RNG to misuse. Because the keys are
/// orbital positions rather than `SatIndex` values bound to one epoch, the
/// plan survives `advance_to` unchanged and re-materializes in O(copies).
#[derive(Debug, Clone, PartialEq)]
pub struct PlacementPlan {
    strategy: PlacementStrategy,
    seed: u64,
    plane_count: u16,
    sats_per_plane: u16,
    object_slots: Vec<Vec<(u16, u16)>>,
}

/// Builder for [`PlacementPlan`]. All knobs have defaults; only the
/// strategy is mandatory.
#[derive(Debug, Clone, Copy)]
pub struct PlacementPlanBuilder {
    strategy: PlacementStrategy,
    seed: u64,
    copy_budget: usize,
    per_object_cap: u32,
}

impl PlacementPlanBuilder {
    /// Seed for every random draw the plan makes (default 0).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Global copy budget split across the catalog by
    /// [`popularity_copy_allocation`] (default 10 000). Ignored by
    /// [`build_single`](Self::build_single).
    #[must_use]
    pub fn copy_budget(mut self, budget: usize) -> Self {
        self.copy_budget = budget;
        self
    }

    /// Per-object copy cap for the popularity split (default 64).
    #[must_use]
    pub fn per_object_cap(mut self, cap: u32) -> Self {
        self.per_object_cap = cap;
        self
    }

    /// Plan for a single object, using the strategy's whole-fleet
    /// geometry. The RNG is derived from the builder seed under a fixed
    /// stream label, so equal seeds give bit-equal plans.
    pub fn build_single(self, constellation: &Constellation) -> PlacementPlan {
        let cfg = constellation.config();
        let (planes, per_plane) = (cfg.plane_count as u16, cfg.sats_per_plane as u16);
        let mut rng = DetRng::new(self.seed, "placement/plan");
        PlacementPlan {
            strategy: self.strategy,
            seed: self.seed,
            plane_count: planes,
            sats_per_plane: per_plane,
            object_slots: vec![strategy_slots(self.strategy, planes, per_plane, &mut rng)],
        }
    }

    /// Plan for a whole catalog: the copy budget is split over `masses`
    /// (demand weight per object, any scale) by
    /// [`popularity_copy_allocation`], then each object's copies are laid
    /// out by the strategy.
    ///
    /// Orbit-aware strategies place an object's `c` copies evenly spaced in
    /// plane-major slot order with a per-object seeded phase — consecutive
    /// copies land `total/c` positions apart, i.e. spread across planes the
    /// way the paper's intra-plane scheme spreads within one. Random
    /// strategies sample `c` distinct slots per object. Either way each
    /// object draws from its own derived RNG stream, so plans for different
    /// catalog sizes agree on their common prefix.
    pub fn build_for_catalog(self, constellation: &Constellation, masses: &[f64]) -> PlacementPlan {
        let cfg = constellation.config();
        let (planes, per_plane) = (cfg.plane_count as u16, cfg.sats_per_plane as u16);
        let total = planes as usize * per_plane as usize;
        let alloc = popularity_copy_allocation(masses, self.copy_budget, self.per_object_cap);
        let mut object_slots = Vec::with_capacity(alloc.len());
        for (r, &copies) in alloc.iter().enumerate() {
            let copies = (copies as usize).min(total);
            if copies == 0 {
                object_slots.push(Vec::new());
                continue;
            }
            let mut rng = DetRng::new(self.seed, &format!("placement/obj/{r}"));
            let slots = if self.strategy.is_orbit_aware() {
                let phase = rng.index(total);
                (0..copies)
                    .map(|i| {
                        let flat = (phase + i * total / copies) % total;
                        (
                            (flat / per_plane as usize) as u16,
                            (flat % per_plane as usize) as u16,
                        )
                    })
                    .collect()
            } else {
                sample_slots(total, copies, per_plane as usize, &mut rng)
            };
            object_slots.push(slots);
        }
        PlacementPlan {
            strategy: self.strategy,
            seed: self.seed,
            plane_count: planes,
            sats_per_plane: per_plane,
            object_slots,
        }
    }
}

impl PlacementPlan {
    /// Start a builder for `strategy`.
    pub fn builder(strategy: PlacementStrategy) -> PlacementPlanBuilder {
        PlacementPlanBuilder {
            strategy,
            seed: 0,
            copy_budget: 10_000,
            per_object_cap: 64,
        }
    }

    /// The strategy this plan was built from.
    pub fn strategy(&self) -> PlacementStrategy {
        self.strategy
    }

    /// The seed carried by the plan.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Number of catalog objects the plan covers.
    pub fn object_count(&self) -> usize {
        self.object_slots.len()
    }

    /// Slot keys holding copies of object `r` (empty past the catalog or
    /// for zero-copy tail objects).
    pub fn slots_of(&self, r: usize) -> &[(u16, u16)] {
        self.object_slots.get(r).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Total copies across all objects (duplicates within an object's list
    /// are possible only for the even-spread layout when `c > total`, which
    /// the builder clamps away — so this equals the spent budget).
    pub fn total_copies(&self) -> usize {
        self.object_slots.iter().map(Vec::len).sum()
    }

    /// Materialize object `r`'s slot keys to concrete satellites. Cheap:
    /// one wrap-around index computation per copy.
    pub fn sats_of(&self, r: usize, constellation: &Constellation) -> Vec<SatIndex> {
        self.slots_of(r)
            .iter()
            .map(|&(p, s)| constellation.sat_at(p as i64, s as i64))
            .collect()
    }

    /// Materialize a single-object plan as its set of copy-holding
    /// satellites.
    pub fn materialize(&self, constellation: &Constellation) -> BTreeSet<SatIndex> {
        self.sats_of(0, constellation).into_iter().collect()
    }
}

/// A parseable placement configuration: strategy plus budget/cap plus the
/// engine-integration toggles. This is the value carried by
/// `TrafficConfig::placement`, `Scenario::placement`, the
/// `SPACECDN_PLACEMENT` env knob, and the serve-protocol `place` op.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlacementSpec {
    /// Copy geometry.
    pub strategy: PlacementStrategy,
    /// Global copy budget split by popularity.
    pub copy_budget: usize,
    /// Per-object copy cap.
    pub per_object_cap: u32,
    /// Probe the four +Grid neighbors' caches before the escalation ladder.
    pub cooperative: bool,
    /// Route misses through the tiered ground `CacheHierarchy` instead of a
    /// flat fallback RTT.
    pub ground_tiers: bool,
}

impl PlacementSpec {
    /// Spec with default budget (10 000), cap (64), and both engine
    /// toggles off.
    pub fn new(strategy: PlacementStrategy) -> PlacementSpec {
        PlacementSpec {
            strategy,
            copy_budget: 10_000,
            per_object_cap: 64,
            cooperative: false,
            ground_tiers: false,
        }
    }

    /// Parse a colon-separated spec: a strategy token (`perplane-K`,
    /// `frac-F`, `rand-N`, `cover-H`) optionally followed by `budget-N`,
    /// `cap-N`, `coop`, and `tiers` in any order. Returns `None` on any
    /// unknown or malformed token. `parse(s.name())` round-trips.
    pub fn parse(s: &str) -> Option<PlacementSpec> {
        let mut parts = s.trim().split(':');
        let strategy = match parts.next()?.trim() {
            t if t.starts_with("perplane-") => PlacementStrategy::PerPlane {
                k: t["perplane-".len()..].parse().ok()?,
            },
            t if t.starts_with("frac-") => {
                let fraction: f64 = t["frac-".len()..].parse().ok()?;
                if !(0.0..=1.0).contains(&fraction) {
                    return None;
                }
                PlacementStrategy::RandomFraction { fraction }
            }
            t if t.starts_with("rand-") => PlacementStrategy::RandomCount {
                count: t["rand-".len()..].parse().ok()?,
            },
            t if t.starts_with("cover-") => PlacementStrategy::CoverRadius {
                hops: t["cover-".len()..].parse().ok()?,
            },
            _ => return None,
        };
        let mut spec = PlacementSpec::new(strategy);
        for tok in parts {
            match tok.trim() {
                "coop" => spec.cooperative = true,
                "tiers" => spec.ground_tiers = true,
                t if t.starts_with("budget-") => {
                    spec.copy_budget = t["budget-".len()..].parse().ok()?;
                }
                t if t.starts_with("cap-") => {
                    spec.per_object_cap = t["cap-".len()..].parse().ok()?;
                }
                _ => return None,
            }
        }
        Some(spec)
    }

    /// Canonical token form: strategy, budget, cap, then flags — the fixed
    /// order the serve protocol journals.
    pub fn name(&self) -> String {
        let strat = match self.strategy {
            PlacementStrategy::PerPlane { k } => format!("perplane-{k}"),
            PlacementStrategy::RandomFraction { fraction } => format!("frac-{fraction}"),
            PlacementStrategy::RandomCount { count } => format!("rand-{count}"),
            PlacementStrategy::CoverRadius { hops } => format!("cover-{hops}"),
        };
        let mut name = format!(
            "{strat}:budget-{}:cap-{}",
            self.copy_budget, self.per_object_cap
        );
        if self.cooperative {
            name.push_str(":coop");
        }
        if self.ground_tiers {
            name.push_str(":tiers");
        }
        name
    }

    /// Read `SPACECDN_PLACEMENT`. Unset, empty, or `off` means no
    /// placement; anything else must parse or we panic loudly rather than
    /// silently simulate the wrong scenario.
    pub fn from_env() -> Option<PlacementSpec> {
        match std::env::var("SPACECDN_PLACEMENT") {
            Ok(v) if v.is_empty() || v == "off" => None,
            Ok(v) => Some(
                PlacementSpec::parse(&v)
                    .unwrap_or_else(|| panic!("SPACECDN_PLACEMENT: unparseable spec {v:?}")),
            ),
            Err(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spacecdn_orbit::shell::shells;

    fn shell1() -> Constellation {
        Constellation::new(shells::starlink_shell1())
    }

    /// One object's copy-holding satellites under `strategy` and `seed`.
    fn placed_sats(
        strategy: PlacementStrategy,
        c: &Constellation,
        seed: u64,
    ) -> BTreeSet<SatIndex> {
        PlacementPlan::builder(strategy)
            .seed(seed)
            .build_single(c)
            .materialize(c)
    }

    #[test]
    fn ball_sizes() {
        assert_eq!(grid_ball_size(0), 1);
        assert_eq!(grid_ball_size(1), 5);
        assert_eq!(grid_ball_size(5), 61);
        assert_eq!(grid_ball_size(10), 221);
    }

    #[test]
    fn per_plane_places_k_per_plane() {
        let c = shell1();
        let set = placed_sats(PlacementStrategy::PerPlane { k: 4 }, &c, 1);
        assert_eq!(set.len(), 4 * 72);
        // Exactly 4 in each plane, evenly spread (gaps of 5 or 6 slots).
        for plane in 0..72u32 {
            let slots: Vec<u32> = set
                .iter()
                .filter(|s| c.plane_of(**s) == plane)
                .map(|s| c.slot_of(*s))
                .collect();
            assert_eq!(slots.len(), 4, "plane {plane}");
        }
    }

    #[test]
    fn per_plane_k_clamps_to_plane_size() {
        let c = shell1();
        let set = placed_sats(PlacementStrategy::PerPlane { k: 99 }, &c, 2);
        assert_eq!(set.len(), 22 * 72);
    }

    #[test]
    fn random_fraction_count() {
        let c = shell1();
        let half = placed_sats(PlacementStrategy::RandomFraction { fraction: 0.5 }, &c, 3);
        assert_eq!(half.len(), 792);
        let none = placed_sats(PlacementStrategy::RandomFraction { fraction: 0.0 }, &c, 3);
        assert!(none.is_empty());
        let all = placed_sats(PlacementStrategy::RandomFraction { fraction: 1.0 }, &c, 3);
        assert_eq!(all.len(), 1584);
    }

    #[test]
    fn cover_radius_count_matches_formula() {
        let c = shell1();
        for hops in [1u32, 3, 5, 10] {
            let set = placed_sats(PlacementStrategy::CoverRadius { hops }, &c, 4);
            let expected = (2 * 1584usize).div_ceil(grid_ball_size(hops) as usize);
            assert_eq!(set.len(), expected, "hops {hops}");
        }
    }

    #[test]
    fn copy_count_matches_placement() {
        let c = shell1();
        for strat in [
            PlacementStrategy::PerPlane { k: 4 },
            PlacementStrategy::RandomFraction { fraction: 0.3 },
            PlacementStrategy::RandomCount { count: 64 },
            PlacementStrategy::CoverRadius { hops: 5 },
        ] {
            let set = placed_sats(strat, &c, 5);
            assert_eq!(set.len(), strat.copy_count(&c), "{strat:?}");
        }
    }

    #[test]
    fn placements_deterministic_per_seed() {
        let c = shell1();
        let a = placed_sats(PlacementStrategy::RandomCount { count: 32 }, &c, 9);
        let b = placed_sats(PlacementStrategy::RandomCount { count: 32 }, &c, 9);
        assert_eq!(a, b);
    }

    #[test]
    fn popularity_allocation_spends_budget_proportionally() {
        // Zipf-ish masses over 5 objects.
        let masses = [8.0, 4.0, 2.0, 1.0, 1.0];
        let alloc = popularity_copy_allocation(&masses, 32, 100);
        assert_eq!(alloc.iter().sum::<u32>(), 32);
        assert!(alloc[0] > alloc[1] && alloc[1] > alloc[2]);
        assert_eq!(alloc[0], 16); // 8/16 of the budget
        assert_eq!(alloc[3], alloc[4]);
    }

    #[test]
    fn popularity_allocation_respects_cap() {
        let masses = [100.0, 1.0, 1.0];
        let alloc = popularity_copy_allocation(&masses, 30, 10);
        assert_eq!(alloc[0], 10, "head capped");
        // Remainder spills to the tail up to their caps.
        assert!(alloc[1] + alloc[2] > 0);
        assert!(alloc.iter().sum::<u32>() <= 30);
    }

    #[test]
    fn popularity_allocation_degenerate_inputs() {
        assert_eq!(popularity_copy_allocation(&[], 10, 4), Vec::<u32>::new());
        assert_eq!(popularity_copy_allocation(&[1.0, 2.0], 0, 4), vec![0, 0]);
        assert_eq!(
            popularity_copy_allocation(&[0.0, f64::NAN, -1.0], 10, 4),
            vec![0, 0, 0]
        );
        // A zero-mass object among live ones gets nothing.
        let alloc = popularity_copy_allocation(&[5.0, 0.0], 4, 10);
        assert_eq!(alloc[1], 0);
        assert_eq!(alloc[0], 4);
    }

    #[test]
    fn all_placed_sats_valid() {
        let c = shell1();
        let set = placed_sats(PlacementStrategy::CoverRadius { hops: 3 }, &c, 6);
        for s in set {
            assert!((s.as_usize()) < c.len());
        }
    }

    #[test]
    fn plan_is_slot_keyed_and_epoch_stable() {
        let c = shell1();
        let plan = PlacementPlan::builder(PlacementStrategy::PerPlane { k: 4 })
            .seed(11)
            .build_single(&c);
        // Slot keys materialize through sat_at, so every copy's (plane,
        // slot) round-trips.
        for &(p, s) in plan.slots_of(0) {
            let sat = c.sat_at(p as i64, s as i64);
            assert_eq!(c.plane_of(sat) as u16, p);
            assert_eq!(c.slot_of(sat) as u16, s);
        }
        // Rebuilding from the carried seed is reproducible.
        let again = PlacementPlan::builder(plan.strategy())
            .seed(plan.seed())
            .build_single(&c);
        assert_eq!(plan, again);
    }

    #[test]
    fn catalog_plan_spends_popularity_budget() {
        let c = shell1();
        let masses: Vec<f64> = (0..40).map(|r| 1.0 / (r + 1) as f64).collect();
        let plan = PlacementPlan::builder(PlacementStrategy::PerPlane { k: 4 })
            .seed(3)
            .copy_budget(200)
            .per_object_cap(32)
            .build_for_catalog(&c, &masses);
        assert_eq!(plan.object_count(), 40);
        assert_eq!(plan.total_copies(), 200);
        // Head objects get more copies than the tail.
        assert!(plan.slots_of(0).len() > plan.slots_of(39).len());
        assert!(plan.slots_of(0).len() <= 32);
        // Orbit-aware layout: distinct, evenly spread copies.
        let head: BTreeSet<_> = plan.slots_of(0).iter().collect();
        assert_eq!(head.len(), plan.slots_of(0).len(), "no duplicate slots");
    }

    #[test]
    fn catalog_plan_random_strategy_samples_distinct_slots() {
        let c = shell1();
        let masses = [4.0, 2.0, 1.0];
        let plan = PlacementPlan::builder(PlacementStrategy::RandomCount { count: 8 })
            .seed(5)
            .copy_budget(21)
            .per_object_cap(12)
            .build_for_catalog(&c, &masses);
        assert_eq!(plan.total_copies(), 21);
        for r in 0..3 {
            let distinct: BTreeSet<_> = plan.slots_of(r).iter().collect();
            assert_eq!(distinct.len(), plan.slots_of(r).len(), "object {r}");
        }
    }

    #[test]
    fn spec_parse_name_roundtrip() {
        for s in [
            "perplane-4:budget-10000:cap-64",
            "frac-0.25:budget-500:cap-8:coop",
            "rand-64:budget-10000:cap-64:coop:tiers",
            "cover-5:budget-2000:cap-16:tiers",
        ] {
            let spec = PlacementSpec::parse(s).expect(s);
            assert_eq!(spec.name(), s, "canonical form is the fixed order");
            assert_eq!(PlacementSpec::parse(&spec.name()), Some(spec));
        }
        // Defaults fill in for omitted tokens.
        let spec = PlacementSpec::parse("perplane-2").unwrap();
        assert_eq!(spec.copy_budget, 10_000);
        assert_eq!(spec.per_object_cap, 64);
        assert!(!spec.cooperative && !spec.ground_tiers);
    }

    #[test]
    fn spec_parse_rejects_garbage() {
        for s in [
            "",
            "lru",
            "perplane-",
            "perplane-x",
            "frac-1.5",
            "frac--0.1",
            "rand-3:bogus",
            "cover-2:budget-",
            "perplane-4:coop:wat",
        ] {
            assert_eq!(PlacementSpec::parse(s), None, "{s:?}");
        }
    }
}
