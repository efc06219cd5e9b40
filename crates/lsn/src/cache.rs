//! Epoch-scoped routing cache.
//!
//! Every routing query a campaign makes looks within a hop budget (the
//! Figure 6 ladder tops out at 10 ISL hops), so the cache holds one kind
//! of entry: a [`RoutingBall`], the satellites within a BFS radius of a
//! source, each with the entries the full single-source tables
//! ([`SourceTables`]) hold for it. The [`ball_members`] kernel builds it
//! for a fraction of the full pair's cost, and it is stored as just those
//! members, sorted by satellite — a few hundred entries where the full
//! tables hold one per satellite of the shell. Within one snapshot the
//! graph never changes, so a ball is a pure function of its query; the
//! cache memoizes one per source satellite behind an `RwLock`, so
//! concurrent experiment tasks share a single walk per source.
//!
//! A traffic burst's balls may also carry a [`FallbackCut`]: their walk
//! stops once no unsettled satellite can beat the ground fallback, so
//! they hold only the members settled before the cut fired. One reuse
//! rule serves every query: a cached ball answers a query whose radius
//! fits in its own (any radius, when the ball holds its source's whole
//! component) and, if the ball was cut, whose own cut fires at the km the
//! ball's walk stopped (so the query's walk would have settled no more);
//! anything else is computed, and replaces the cached ball unless that
//! one answers everything the new one does.
//!
//! The cache is owned by (and shares the lifetime of) one [`IslGraph`];
//! every new snapshot, whether built fresh or patched by
//! [`IslGraph::apply_delta`], starts from an empty cache, which is what
//! keeps entries trivially consistent — there is no invalidation, keys
//! live exactly as long as the topology they describe.
//! [`SourceTables::compute`] is the uncached full-table reference that
//! tests compare balls against.
//!
//! `std::sync::RwLock` is used rather than `parking_lot` because the
//! build environment is offline (no crates.io access; see `vendor/`) and
//! the lock is held only for a `HashMap` probe or insert — the uncontended
//! fast path is a compare-exchange either way.

use crate::routing::{ball_members, dijkstra_distances, hop_distances, BallMember, FallbackCut};
use crate::topology::IslGraph;
use spacecdn_orbit::SatIndex;
use spacecdn_telemetry::LazyCounter;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

/// Cache-wide registry counters, aggregated across every `RoutingCache`
/// instance in the process. Racy: two tasks racing on an uncached source
/// may both miss, so the hit/miss split depends on scheduling.
static CACHE_HIT: LazyCounter = LazyCounter::racy("lsn.routing_cache.hit");
static CACHE_MISS: LazyCounter = LazyCounter::racy("lsn.routing_cache.miss");

/// Full single-source routing tables for one source satellite in one
/// snapshot: the uncached reference a [`RoutingBall`] reads like.
#[derive(Debug, Clone, PartialEq)]
pub struct SourceTables {
    /// Per-destination `(kilometres, hop count)` of the cheapest-by-distance
    /// path, exactly as [`dijkstra_distances`] returns it.
    pub km: Vec<(f64, u32)>,
    /// Per-destination BFS hop levels, exactly as [`hop_distances`]
    /// returns them.
    pub hops: Vec<u32>,
}

impl SourceTables {
    /// Compute the tables directly.
    pub fn compute(graph: &IslGraph, src: SatIndex) -> Self {
        SourceTables {
            km: dijkstra_distances(graph, src),
            hops: hop_distances(graph, src),
        }
    }
}

/// Routing tables from one source satellite, exact within a BFS radius:
/// for every satellite at most `radius` hops away, the same entries
/// [`SourceTables`] holds; every other satellite reads as unreachable.
/// A ball built with a [`FallbackCut`] is exact only for the members
/// settled before the cut fired; the rest read as unreachable too.
///
/// A distinct type from [`SourceTables`] so that no full-table consumer
/// can be handed a truncated table. A ball holds the members a
/// [`ball_members`] walk settled, sorted by satellite; a wider (or less
/// cut) cached ball may back a narrower query (see
/// [`RoutingCache::ball_for`]). Every read masks by `radius`, so a ball
/// reads identically within the entries the query needs, whichever walk
/// backs it.
#[derive(Debug, Clone)]
pub struct RoutingBall {
    radius: u32,
    /// Ascending by satellite; exact for every satellite within `radius`
    /// hops (and possibly beyond, when a wider ball backs this one).
    members: Arc<Vec<BallMember>>,
}

impl RoutingBall {
    /// Compute the ball directly (the uncached path).
    pub fn compute(graph: &IslGraph, src: SatIndex, radius: u32, cut: Option<FallbackCut>) -> Self {
        RoutingBall {
            radius,
            members: Arc::new(ball_members(graph, src, radius, cut).0),
        }
    }

    /// The member for `sat` (its full-table entries), found by binary
    /// search, or `None` outside the ball.
    fn member(&self, sat: SatIndex) -> Option<BallMember> {
        let ms = &self.members;
        let m = ms[ms.binary_search_by_key(&sat, |m| m.sat).ok()?];
        (m.hops <= self.radius).then_some(m)
    }

    /// BFS hop level of `sat`, as [`SourceTables::hops`] holds it, or
    /// `u32::MAX` outside the ball. One binary search: a caller reading
    /// many satellites reads them with [`Self::lookup_sorted`].
    pub fn hops(&self, sat: SatIndex) -> u32 {
        self.member(sat).map_or(u32::MAX, |m| m.hops)
    }

    /// `(kilometres, route hop count)` of the cheapest path to `sat`, as
    /// [`SourceTables::km`] holds it, or `(f64::INFINITY, u32::MAX)`
    /// outside the ball.
    pub fn km(&self, sat: SatIndex) -> (f64, u32) {
        self.member(sat)
            .map_or((f64::INFINITY, u32::MAX), |m| (m.km, m.route_hops))
    }

    /// Call `f` on every member, in ascending satellite order.
    pub fn for_each_member(&self, mut f: impl FnMut(BallMember)) {
        for &m in self.members.iter().filter(|m| m.hops <= self.radius) {
            f(m);
        }
    }

    /// Call `f` on the member of each of `sats` that lies in the ball, in
    /// the order given. `sats` must be ascending: they are read in one
    /// merge pass over the members, not one search per satellite.
    pub fn lookup_sorted(
        &self,
        sats: impl IntoIterator<Item = SatIndex>,
        mut f: impl FnMut(BallMember),
    ) {
        let mut rest = self.members.iter();
        let mut next = rest.next();
        for sat in sats {
            while next.is_some_and(|m| m.sat < sat) {
                next = rest.next();
            }
            match next {
                None => return,
                Some(&m) if m.sat == sat && m.hops <= self.radius => f(m),
                Some(_) => {}
            }
        }
    }

    /// True when both balls read the same memoized members.
    pub fn ptr_eq(a: &Self, b: &Self) -> bool {
        Arc::ptr_eq(&a.members, &b.members)
    }
}

/// A memoized ball: the radius it answers (`u32::MAX` when it holds its
/// source's whole component) and the km its walk stopped at
/// (`f64::INFINITY` when no cut fired), with its members.
struct BallEntry {
    radius: u32,
    cut_km: f64,
    members: Arc<Vec<BallMember>>,
}

impl BallEntry {
    /// Does this ball hold every entry a query for `radius` cut by `cut`
    /// needs? An uncut ball answers any radius up to its own; a cut one
    /// only a cut query whose own test fires at the km this walk stopped
    /// at, since that query's walk stops there or sooner.
    fn answers(&self, radius: u32, cut: Option<FallbackCut>) -> bool {
        self.radius >= radius
            && (self.cut_km.is_infinite() || cut.is_some_and(|c| c.fires(self.cut_km)))
    }

    /// Does this ball answer every query `other` answers?
    fn covers(&self, other: &BallEntry) -> bool {
        self.radius >= other.radius && self.cut_km >= other.cut_km
    }
}

/// Per-snapshot memo of [`RoutingBall`]s, one per source satellite.
#[derive(Default)]
pub struct RoutingCache {
    balls: RwLock<HashMap<u32, BallEntry>>,
}

impl RoutingCache {
    /// Fresh, empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The [`RoutingBall`] of `radius` around `src`, cut by `cut` if
    /// given, served from the cached ball when that one answers the query
    /// (see the module docs), and otherwise computed and memoized —
    /// replacing the cached ball unless that one answers every query the
    /// new one does, so each source keeps one entry. Where a query reads
    /// more exact entries than its own walk would settle, those are exact
    /// too.
    ///
    /// Two tasks racing on an uncached source may both walk; the balls
    /// are pure functions of the graph, so either copy reads identically
    /// — the race costs duplicated work once, never divergent answers.
    pub fn ball_for(
        &self,
        graph: &IslGraph,
        src: SatIndex,
        radius: u32,
        cut: Option<FallbackCut>,
    ) -> RoutingBall {
        let view = |members| RoutingBall { radius, members };
        if let Some(ball) = self.balls.read().expect("cache lock poisoned").get(&src.0) {
            if ball.answers(radius, cut) {
                CACHE_HIT.incr();
                return view(Arc::clone(&ball.members));
            }
        }
        CACHE_MISS.incr();
        let (members, whole, cut_km) = ball_members(graph, src, radius, cut);
        let computed = BallEntry {
            // A ball holding its source's whole component holds every
            // satellite any wider walk would reach.
            radius: if whole { u32::MAX } else { radius },
            cut_km,
            members: Arc::new(members),
        };
        let mut writer = self.balls.write().expect("cache lock poisoned");
        let entry = match writer.entry(src.0) {
            Entry::Occupied(mut held) => {
                if !held.get().covers(&computed) {
                    held.insert(computed);
                }
                held.into_mut()
            }
            Entry::Vacant(slot) => slot.insert(computed),
        };
        view(Arc::clone(&entry.members))
    }
}

impl fmt::Debug for RoutingCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sources = self.balls.read().expect("cache lock poisoned").len();
        f.debug_struct("RoutingCache")
            .field("sources", &sources)
            .finish()
    }
}

/// In-process cache kill switch: 0 = follow the environment, 1 = forced
/// off, 2 = forced on.
static CACHE_OVERRIDE: AtomicU8 = AtomicU8::new(0);

/// Environment default, read once: `SPACECDN_NO_ROUTING_CACHE=1` disables
/// memoization (used to measure the pre-cache baseline).
fn env_cache_disabled() -> bool {
    static DISABLED: OnceLock<bool> = OnceLock::new();
    *DISABLED.get_or_init(|| {
        std::env::var("SPACECDN_NO_ROUTING_CACHE").is_ok_and(|v| v != "0" && !v.is_empty())
    })
}

/// Force the routing cache on or off for this process, overriding
/// `SPACECDN_NO_ROUTING_CACHE`. `None` restores environment behaviour.
/// Benchmarks use this to time cached vs uncached in a single run.
pub fn set_routing_cache_override(enabled: Option<bool>) {
    let code = match enabled {
        None => 0,
        Some(false) => 1,
        Some(true) => 2,
    };
    CACHE_OVERRIDE.store(code, Ordering::SeqCst);
}

/// Is table memoization active? Routing *answers* are identical either
/// way; only the amount of recomputation differs.
pub fn routing_cache_enabled() -> bool {
    match CACHE_OVERRIDE.load(Ordering::SeqCst) {
        1 => false,
        2 => true,
        _ => !env_cache_disabled(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use spacecdn_geo::{Latency, SimTime};
    use spacecdn_orbit::shell::shells;
    use spacecdn_orbit::Constellation;

    fn graph() -> IslGraph {
        let c = Constellation::new(shells::starlink_shell1());
        IslGraph::build(&c, SimTime::EPOCH, &FaultPlan::none())
    }

    fn small_graph() -> IslGraph {
        let c = Constellation::new(shells::test_shell());
        IslGraph::build(&c, SimTime::EPOCH, &FaultPlan::none())
    }

    /// Assert `ball` reads `full`'s entries for every satellite.
    fn assert_reads_full(ball: &RoutingBall, full: &SourceTables) {
        for i in 0..full.hops.len() {
            let s = SatIndex(i as u32);
            assert_eq!(ball.hops(s), full.hops[i], "hops at {i}");
            assert_eq!(ball.km(s), full.km[i], "km at {i}");
        }
    }

    fn entries(cache: &RoutingCache) -> usize {
        cache.balls.read().unwrap().len()
    }

    #[test]
    fn cached_tables_match_direct_computation() {
        let g = graph();
        let cache = RoutingCache::new();
        let src = SatIndex(123);
        // A whole-shell ball stays member-backed: one member per
        // satellite, reading exactly the full tables.
        let whole = cache.ball_for(&g, src, u32::MAX, None);
        assert_eq!(whole.members.len(), g.len());
        assert_reads_full(&whole, &SourceTables::compute(&g, src));
        assert_eq!(cache.balls.read().unwrap()[&src.0].radius, u32::MAX);
    }

    #[test]
    fn second_lookup_shares_the_allocation() {
        let g = graph();
        let cache = RoutingCache::new();
        let a = cache.ball_for(&g, SatIndex(7), 10, None);
        let b = cache.ball_for(&g, SatIndex(7), 10, None);
        assert!(RoutingBall::ptr_eq(&a, &b));
        assert_eq!(entries(&cache), 1);
    }

    #[test]
    fn distinct_sources_get_distinct_entries() {
        let g = graph();
        let cache = RoutingCache::new();
        cache.ball_for(&g, SatIndex(1), 10, None);
        cache.ball_for(&g, SatIndex(2), 10, None);
        assert_eq!(entries(&cache), 2);
    }

    #[test]
    fn override_toggles_enablement() {
        set_routing_cache_override(Some(false));
        assert!(!routing_cache_enabled());
        set_routing_cache_override(Some(true));
        assert!(routing_cache_enabled());
        set_routing_cache_override(None);
    }

    #[test]
    fn hops_between_symmetric_on_faulted_graph() {
        let c = Constellation::new(shells::starlink_shell1());
        let mut faults = FaultPlan::none();
        for s in [4u32, 90, 91, 700, 1200] {
            faults.fail_sat(SatIndex(s));
        }
        let g = IslGraph::build(&c, SimTime::from_secs(311), &faults);
        let cache = RoutingCache::new();
        for (a, b) in [(0u32, 1583u32), (5, 710), (89, 92), (700, 701)] {
            let (a, b) = (SatIndex(a), SatIndex(b));
            let fwd = hop_distances(&g, a)[b.as_usize()];
            let rev = hop_distances(&g, b)[a.as_usize()];
            assert_eq!(fwd, rev, "hop distance {a:?}<->{b:?} asymmetric");
            // Cached whole-shell balls read the same levels both ways.
            assert_eq!(cache.ball_for(&g, a, u32::MAX, None).hops(b), fwd);
            assert_eq!(cache.ball_for(&g, b, u32::MAX, None).hops(a), fwd);
        }
    }

    #[test]
    fn ball_lookups_follow_the_reuse_rule() {
        let g = graph();
        let cache = RoutingCache::new();
        let src = SatIndex(300);
        // A cached ball answers any radius up to its own.
        let five = cache.ball_for(&g, src, 5, None);
        let three = cache.ball_for(&g, src, 3, None);
        assert!(RoutingBall::ptr_eq(&five, &three));
        // A wider query replaces it, and then answers the narrower ones.
        let ten = cache.ball_for(&g, src, 10, None);
        assert!(!RoutingBall::ptr_eq(&five, &ten));
        assert!(RoutingBall::ptr_eq(&ten, &cache.ball_for(&g, src, 5, None)));
        assert_eq!(entries(&cache), 1);
        let twelve = cache.ball_for(&g, src, 12, None);
        let direct = RoutingBall::compute(&g, src, 12, None);
        for i in 0..g.len() as u32 {
            assert_eq!(twelve.hops(SatIndex(i)), direct.hops(SatIndex(i)));
            assert_eq!(twelve.km(SatIndex(i)), direct.km(SatIndex(i)));
        }
        // A ball holding the whole 64-satellite test shell stays
        // member-backed and answers any radius, reading the full tables.
        let small = small_graph();
        let cache = RoutingCache::new();
        let whole = cache.ball_for(&small, SatIndex(7), 10, None);
        assert_eq!(whole.members.len(), small.len());
        let any = cache.ball_for(&small, SatIndex(7), u32::MAX, None);
        assert!(RoutingBall::ptr_eq(&whole, &any));
        assert_reads_full(&any, &SourceTables::compute(&small, SatIndex(7)));
        assert_eq!(entries(&cache), 1);
    }

    #[test]
    fn cut_balls_never_answer_uncut_queries() {
        let g = graph();
        let src = SatIndex(700);
        let full = SourceTables::compute(&g, src);
        let cut = FallbackCut {
            user_prop: Latency::from_ms(4.0),
            fallback: Latency::from_ms(30.0),
        };
        let cache = RoutingCache::new();
        let bounded = cache.ball_for(&g, src, 10, Some(cut));
        // The cut dropped members, and kept every one it settled exact.
        let (mut kept, mut dropped) = (0, 0);
        for i in (0..g.len() as u32).filter(|&i| full.hops[i as usize] <= 10) {
            if bounded.hops(SatIndex(i)) == u32::MAX {
                assert!(cut.fires(full.km[i as usize].0));
                dropped += 1;
            } else {
                assert_eq!(bounded.km(SatIndex(i)), full.km[i as usize]);
                kept += 1;
            }
        }
        assert!(kept > 1 && dropped > 0, "kept {kept}, dropped {dropped}");
        // The same cut, or a tighter one, reads the cached ball.
        let tighter = FallbackCut {
            fallback: Latency::from_ms(20.0),
            ..cut
        };
        assert!(RoutingBall::ptr_eq(
            &bounded,
            &cache.ball_for(&g, src, 10, Some(cut))
        ));
        assert!(RoutingBall::ptr_eq(
            &bounded,
            &cache.ball_for(&g, src, 7, Some(tighter))
        ));
        // Uncut queries on the same graph see unbounded, exact tables.
        let uncut = cache.ball_for(&g, src, 10, None);
        assert!(!RoutingBall::ptr_eq(&bounded, &uncut));
        let direct = RoutingBall::compute(&g, src, 10, None);
        for i in (0..g.len() as u32).map(SatIndex) {
            assert_eq!(uncut.hops(i), direct.hops(i));
            assert_eq!(uncut.km(i), direct.km(i));
            let h = full.hops[i.as_usize()];
            if h <= 10 {
                assert_eq!(uncut.hops(i), h);
                assert_eq!(uncut.km(i), full.km[i.as_usize()]);
            }
        }
        // The uncut ball replaced the cut one, and answers a cut query.
        assert!(RoutingBall::ptr_eq(
            &uncut,
            &cache.ball_for(&g, src, 10, Some(cut))
        ));

        // The same through the graph's own cache: a cut lookup first,
        // then the ball lookups stay unbounded.
        let bounded = g.routing_tables_cut(src, 10, cut);
        assert!((0..g.len() as u32)
            .any(|i| { full.hops[i as usize] <= 10 && bounded.hops(SatIndex(i)) == u32::MAX }));
        let within = g.routing_tables_within(src, 10);
        assert!((0..g.len() as u32).all(|i| {
            let i = SatIndex(i);
            within.hops(i) == direct.hops(i) && within.km(i) == direct.km(i)
        }));
        assert_reads_full(&g.routing_tables_within(src, u32::MAX), &full);
        // A wider or looser query recomputes; a cut that never fires
        // leaves a whole-shell ball that answers uncut queries too.
        let looser = FallbackCut {
            fallback: Latency::from_ms(60.0),
            ..cut
        };
        let cache = RoutingCache::new();
        let narrow = cache.ball_for(&g, src, 10, Some(cut));
        assert!(!RoutingBall::ptr_eq(
            &narrow,
            &cache.ball_for(&g, src, 10, Some(looser))
        ));
        let small = small_graph();
        let never = FallbackCut {
            user_prop: Latency::from_ms(4.0),
            fallback: Latency::from_ms(200.0),
        };
        let cache = RoutingCache::new();
        let whole = cache.ball_for(&small, SatIndex(7), 10, Some(never));
        assert_eq!(whole.members.len(), small.len());
        assert!(RoutingBall::ptr_eq(
            &whole,
            &cache.ball_for(&small, SatIndex(7), u32::MAX, None)
        ));
    }

    #[test]
    fn concurrent_lookups_agree() {
        let g = graph();
        let cache = RoutingCache::new();
        let members = |ball: RoutingBall| {
            let mut out = Vec::new();
            ball.for_each_member(|m| out.push(m));
            out
        };
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| s.spawn(|| members(cache.ball_for(&g, SatIndex(55), 10, None))))
                .collect();
            let balls: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
            for b in &balls[1..] {
                assert_eq!(*b, balls[0]);
            }
        });
        assert_eq!(entries(&cache), 1);
    }
}
