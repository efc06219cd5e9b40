//! Epoch-scoped routing cache.
//!
//! Campaign code asks the same snapshot for full single-source routing
//! tables over and over: every synthetic RTT measurement from a city runs
//! a Dijkstra from that city's overhead satellite, and every retrieval
//! trial additionally wants BFS hop levels from the same source. Within
//! one snapshot the graph never changes, so those tables are pure
//! functions of (snapshot, source) — the cache memoizes them behind an
//! `RwLock` so concurrent experiment tasks share a single computation per
//! source satellite.
//!
//! Callers that only look within a hop budget (the Figure 6 ladder tops
//! out at 10 ISL hops) ask for a [`RoutingBall`] instead: the satellites
//! within a BFS radius, each with its full-table entries, built by the
//! [`ball_members`] kernel for a fraction of the full pair's cost and
//! stored as just those members, sorted by satellite — a few hundred
//! entries where the full tables hold one per satellite of the shell.
//! A traffic burst's balls may also carry a [`FallbackCut`]: their walk
//! stops once no unsettled satellite can beat the ground fallback, so
//! they hold only the members settled before the cut fired. A ball that
//! holds its source's whole component uncut *is* the full tables and is
//! densified into them. Balls are memoized beside the full tables under
//! one reuse rule — a cached full table answers any query; a cached ball
//! answers a query whose radius fits in its own and, if the ball was cut,
//! whose own cut fires at the km the ball's walk stopped (so the query's
//! walk would have settled no more); anything else is computed, and
//! replaces the cached ball unless that one answers everything the new
//! one does. Each satellite holds at most one ball entry.
//!
//! The cache is owned by (and shares the lifetime of) one [`IslGraph`];
//! rebuilding the snapshot for the next epoch starts from an empty cache,
//! which is what keeps entries trivially consistent — there is no
//! invalidation, keys live exactly as long as the topology they describe.
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
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

/// Cache-wide registry counters, aggregated across every `RoutingCache`
/// instance in the process. Racy: two tasks racing on an uncached source
/// may both miss, so the hit/miss split depends on scheduling.
static CACHE_HIT: LazyCounter = LazyCounter::racy("lsn.routing_cache.hit");
static CACHE_MISS: LazyCounter = LazyCounter::racy("lsn.routing_cache.miss");
static CACHE_REVERSE_HIT: LazyCounter = LazyCounter::racy("lsn.routing_cache.reverse_hit");
/// Misses answered with a carried hop table from the previous epoch's
/// cache (the BFS half skipped; only the Dijkstra half recomputed). Racy
/// for the same reason as the hit/miss split.
static CACHE_HOP_SEED: LazyCounter = LazyCounter::racy("lsn.routing_cache.hop_seed_hits");

/// Memoized single-source routing tables for one source satellite in one
/// snapshot.
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
    /// Compute the tables directly (the uncached path).
    pub fn compute(graph: &IslGraph, src: SatIndex) -> Self {
        SourceTables {
            km: dijkstra_distances(graph, src),
            hops: hop_distances(graph, src),
        }
    }

    /// The full tables of a ball that holds its source's whole component
    /// (every satellite outside it is unreachable from the source).
    fn from_members(n: usize, members: &[BallMember]) -> Self {
        let mut tables = SourceTables {
            km: vec![(f64::INFINITY, u32::MAX); n],
            hops: vec![u32::MAX; n],
        };
        for m in members {
            tables.km[m.sat.as_usize()] = (m.km, m.route_hops);
            tables.hops[m.sat.as_usize()] = m.hops;
        }
        tables
    }
}

/// Routing tables from one source satellite, exact within a BFS radius:
/// for every satellite at most `radius` hops away, the same entries
/// [`SourceTables`] holds; every other satellite reads as unreachable.
/// A ball built with a [`FallbackCut`] is exact only for the members
/// settled before the cut fired; the rest read as unreachable too.
///
/// A distinct type from [`SourceTables`] so that no full-table consumer
/// can be handed a truncated table. A ball is backed either by the
/// members a [`ball_members`] walk settled, sorted by satellite, or by
/// full tables; a wider (or less cut) ball or full tables may back a
/// narrower query (see [`RoutingCache::ball_for`]). Every read masks by
/// `radius`, so every backing reads identically within the entries the
/// query needs.
#[derive(Debug, Clone)]
pub struct RoutingBall {
    radius: u32,
    /// Exact for every satellite within `radius` hops (and possibly
    /// beyond, when a wider ball or the full tables back this one).
    backing: Backing,
}

#[derive(Debug, Clone)]
enum Backing {
    /// Full tables: a dense entry per satellite.
    Full(Arc<SourceTables>),
    /// A walk's members, ascending by satellite; nothing else is held.
    Members(Arc<Vec<BallMember>>),
}

impl RoutingBall {
    /// Compute the ball directly (the uncached path). A ball holding the
    /// source's whole component, uncut, is the full tables, and reads as
    /// such.
    pub fn compute(graph: &IslGraph, src: SatIndex, radius: u32, cut: Option<FallbackCut>) -> Self {
        Self::walk(graph, src, radius, cut).0
    }

    /// [`Self::compute`], plus the km at which the cut stopped the walk
    /// (`f64::INFINITY` when it never fired).
    fn walk(graph: &IslGraph, src: SatIndex, radius: u32, cut: Option<FallbackCut>) -> (Self, f64) {
        let (members, whole, cut_km) = ball_members(graph, src, radius, cut);
        let ball = if whole && cut_km.is_infinite() {
            Self::full(Arc::new(SourceTables::from_members(graph.len(), &members)))
        } else {
            RoutingBall {
                radius,
                backing: Backing::Members(Arc::new(members)),
            }
        };
        (ball, cut_km)
    }

    /// The full tables, read as a ball that covers every reachable
    /// satellite.
    pub fn full(tables: Arc<SourceTables>) -> Self {
        RoutingBall {
            radius: u32::MAX,
            backing: Backing::Full(tables),
        }
    }

    /// The member for `sat` (its full-table entries), or `None` outside
    /// the ball. A member-backed ball finds it by binary search.
    fn member(&self, sat: SatIndex) -> Option<BallMember> {
        let m = match &self.backing {
            Backing::Full(t) => Self::dense(t, sat)?,
            Backing::Members(ms) => ms[ms.binary_search_by_key(&sat, |m| m.sat).ok()?],
        };
        (m.hops <= self.radius).then_some(m)
    }

    /// BFS hop level of `sat`, as [`SourceTables::hops`] holds it, or
    /// `u32::MAX` outside the ball. One binary search on a member-backed
    /// ball: a caller reading many satellites reads them with
    /// [`Self::lookup_sorted`].
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
        match &self.backing {
            Backing::Full(t) => {
                for sat in (0..t.hops.len() as u32).map(SatIndex) {
                    if let Some(m) = Self::dense(t, sat).filter(|m| m.hops <= self.radius) {
                        f(m);
                    }
                }
            }
            Backing::Members(ms) => {
                for &m in ms.iter().filter(|m| m.hops <= self.radius) {
                    f(m);
                }
            }
        }
    }

    /// Call `f` on the member of each of `sats` that lies in the ball, in
    /// the order given. `sats` must be ascending: a member-backed ball
    /// reads them in one merge pass over its members, not one search per
    /// satellite.
    pub fn lookup_sorted(
        &self,
        sats: impl IntoIterator<Item = SatIndex>,
        mut f: impl FnMut(BallMember),
    ) {
        match &self.backing {
            Backing::Full(t) => {
                for sat in sats {
                    if let Some(m) = Self::dense(t, sat).filter(|m| m.hops <= self.radius) {
                        f(m);
                    }
                }
            }
            Backing::Members(ms) => {
                let mut rest = ms.iter();
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
        }
    }

    /// The full tables' entries for `sat`, or `None` when the source
    /// cannot reach it.
    #[inline]
    fn dense(t: &SourceTables, sat: SatIndex) -> Option<BallMember> {
        let hops = t.hops[sat.as_usize()];
        let (km, route_hops) = t.km[sat.as_usize()];
        (hops != u32::MAX && km.is_finite()).then_some(BallMember {
            sat,
            hops,
            km,
            route_hops,
        })
    }

    /// True when both balls read the same memoized tables or members.
    pub fn ptr_eq(a: &Self, b: &Self) -> bool {
        match (&a.backing, &b.backing) {
            (Backing::Full(x), Backing::Full(y)) => Arc::ptr_eq(x, y),
            (Backing::Members(x), Backing::Members(y)) => Arc::ptr_eq(x, y),
            _ => false,
        }
    }
}

/// A memoized ball: the radius and the km its walk stopped at
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

/// Per-snapshot memo of [`SourceTables`] and [`RoutingBall`]s keyed by
/// source satellite.
#[derive(Default)]
pub struct RoutingCache {
    tables: RwLock<HashMap<u32, Arc<SourceTables>>>,
    /// One ball per source.
    balls: RwLock<HashMap<u32, BallEntry>>,
    /// Hop tables inherited from the previous epoch's cache by
    /// [`IslGraph::apply_delta`] when the step changed edge *lengths* but
    /// not the adjacency structure. BFS levels depend only on structure,
    /// so a miss with a seed recomputes just the Dijkstra half and clones
    /// the seed's hop levels — bit-identical to a fresh BFS by definition.
    hop_seeds: HashMap<u32, Arc<SourceTables>>,
    /// Pairwise hop queries answered from the *destination*'s table (the
    /// +Grid is undirected, so BFS levels read the same both ways).
    reverse_hits: AtomicU64,
}

impl RoutingCache {
    /// Fresh, empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Cache seeded by delta advancement: `tables` are entries carried or
    /// repaired whole (both halves exact for the new snapshot), `hop_seeds`
    /// are entries whose *hop* half alone is still exact (see
    /// [`Self::hop_seeds`]).
    pub(crate) fn carried(
        tables: HashMap<u32, Arc<SourceTables>>,
        hop_seeds: HashMap<u32, Arc<SourceTables>>,
    ) -> Self {
        RoutingCache {
            tables: RwLock::new(tables),
            hop_seeds,
            ..Self::default()
        }
    }

    /// The memoized tables, for carrying into a successor cache.
    pub(crate) fn tables_snapshot(&self) -> HashMap<u32, Arc<SourceTables>> {
        self.tables.read().expect("cache lock poisoned").clone()
    }

    /// Every table whose *hop* half is valid for any snapshot with this
    /// cache's adjacency structure: memoized tables plus still-unconsumed
    /// seeds (so a chain of structure-preserving steps keeps carrying hop
    /// tables even across epochs where nothing was queried).
    pub(crate) fn hop_seed_snapshot(&self) -> HashMap<u32, Arc<SourceTables>> {
        let mut seeds = self.hop_seeds.clone();
        for (src, t) in self.tables.read().expect("cache lock poisoned").iter() {
            seeds.insert(*src, Arc::clone(t));
        }
        seeds
    }

    /// The tables for `src`, computing and memoizing them on first use.
    ///
    /// Two tasks racing on an uncached source may both compute the tables;
    /// the first insert wins and the duplicate is dropped. The result is a
    /// pure function of the graph, so either copy is identical — the race
    /// costs duplicated work once, never divergent answers.
    pub fn tables_for(&self, graph: &IslGraph, src: SatIndex) -> Arc<SourceTables> {
        if let Some(hit) = self.tables.read().expect("cache lock poisoned").get(&src.0) {
            CACHE_HIT.incr();
            return Arc::clone(hit);
        }
        CACHE_MISS.incr();
        self.memoize(src, Arc::new(self.compute_with_seed(graph, src)))
    }

    /// Insert full tables for `src` unless a racing task got there first;
    /// either copy is identical.
    fn memoize(&self, src: SatIndex, tables: Arc<SourceTables>) -> Arc<SourceTables> {
        let mut writer = self.tables.write().expect("cache lock poisoned");
        Arc::clone(writer.entry(src.0).or_insert(tables))
    }

    /// The [`RoutingBall`] of `radius` around `src`, cut by `cut` if
    /// given, served from the full tables or a cached ball that answers
    /// the query (see the module docs), and otherwise computed and
    /// memoized — replacing the cached ball unless that one answers every
    /// query the new one does, so each source keeps one ball entry.
    /// Every backing reads identically within the entries the query
    /// needs; where a cut query reads more exact entries than its own walk
    /// would settle, those are exact too.
    ///
    /// A ball that holds the source's whole component (every satellite of
    /// a small shell) and that the cut never stopped *is* the full
    /// tables, so it is memoized as them: it then carries across delta
    /// steps and seeds the next snapshot's hop tables like any full
    /// table. A carried hop seed shows that case up front, and then only
    /// the Dijkstra half is computed.
    pub fn ball_for(
        &self,
        graph: &IslGraph,
        src: SatIndex,
        radius: u32,
        cut: Option<FallbackCut>,
    ) -> RoutingBall {
        let view = |backing| RoutingBall { radius, backing };
        if let Some(full) = self.tables.read().expect("cache lock poisoned").get(&src.0) {
            CACHE_HIT.incr();
            return view(Backing::Full(Arc::clone(full)));
        }
        if let Some(ball) = self.balls.read().expect("cache lock poisoned").get(&src.0) {
            if ball.answers(radius, cut) {
                CACHE_HIT.incr();
                return view(Backing::Members(Arc::clone(&ball.members)));
            }
        }
        CACHE_MISS.incr();
        if let Some(seed) = self.hop_seeds.get(&src.0) {
            if seed.hops.iter().all(|&h| h <= radius || h == u32::MAX) {
                let full = self.memoize(src, Arc::new(self.compute_with_seed(graph, src)));
                return view(Backing::Full(full));
            }
        }
        let (ball, cut_km) = RoutingBall::walk(graph, src, radius, cut);
        let members = match ball.backing {
            Backing::Full(full) => return view(Backing::Full(self.memoize(src, full))),
            Backing::Members(members) => members,
        };
        let computed = BallEntry {
            radius,
            cut_km,
            members,
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
        view(Backing::Members(Arc::clone(&entry.members)))
    }

    /// [`SourceTables::compute`], except the BFS half is cloned from a
    /// carried hop seed when one exists (see [`Self::hop_seeds`]).
    fn compute_with_seed(&self, graph: &IslGraph, src: SatIndex) -> SourceTables {
        match self.hop_seeds.get(&src.0) {
            Some(seed) => {
                CACHE_HOP_SEED.incr();
                SourceTables {
                    km: dijkstra_distances(graph, src),
                    hops: seed.hops.clone(),
                }
            }
            None => SourceTables::compute(graph, src),
        }
    }

    /// Minimum hop count between `from` and `to`, exploiting
    /// undirectedness: BFS hop levels are integers and exactly symmetric on
    /// an undirected graph, so a table memoized for *either* endpoint
    /// answers the query — tables for `s` also serve queries *to* `s`, and
    /// pairwise sweeps stop computing both directions. Only when neither
    /// endpoint has a table yet is one computed (and memoized, for `from`).
    ///
    /// Kilometre tables get no such reverse path: a float path sum
    /// accumulated in the opposite edge order can differ in the final bits,
    /// and campaign output must stay byte-identical.
    pub fn hops_between(&self, graph: &IslGraph, from: SatIndex, to: SatIndex) -> u32 {
        {
            let reader = self.tables.read().expect("cache lock poisoned");
            if let Some(t) = reader.get(&from.0) {
                CACHE_HIT.incr();
                return t.hops[to.as_usize()];
            }
            if let Some(t) = reader.get(&to.0) {
                self.reverse_hits.fetch_add(1, Ordering::Relaxed);
                CACHE_REVERSE_HIT.incr();
                return t.hops[from.as_usize()];
            }
        }
        self.tables_for(graph, from).hops[to.as_usize()]
    }

    /// How many pairwise hop queries were served from the reverse table.
    pub fn reverse_hits(&self) -> u64 {
        self.reverse_hits.load(Ordering::Relaxed)
    }

    /// Number of source satellites with memoized tables.
    pub fn cached_sources(&self) -> usize {
        self.tables.read().expect("cache lock poisoned").len()
    }
}

impl fmt::Debug for RoutingCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RoutingCache")
            .field("cached_sources", &self.cached_sources())
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
    use spacecdn_geo::SimTime;
    use spacecdn_orbit::shell::shells;
    use spacecdn_orbit::Constellation;

    fn graph() -> IslGraph {
        let c = Constellation::new(shells::starlink_shell1());
        IslGraph::build(&c, SimTime::EPOCH, &FaultPlan::none())
    }

    #[test]
    fn cached_tables_match_direct_computation() {
        let g = graph();
        let cache = RoutingCache::new();
        let src = SatIndex(123);
        let cached = cache.tables_for(&g, src);
        let direct = SourceTables::compute(&g, src);
        assert_eq!(*cached, direct);
    }

    #[test]
    fn second_lookup_shares_the_allocation() {
        let g = graph();
        let cache = RoutingCache::new();
        let a = cache.tables_for(&g, SatIndex(7));
        let b = cache.tables_for(&g, SatIndex(7));
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.cached_sources(), 1);
    }

    #[test]
    fn distinct_sources_get_distinct_entries() {
        let g = graph();
        let cache = RoutingCache::new();
        cache.tables_for(&g, SatIndex(1));
        cache.tables_for(&g, SatIndex(2));
        assert_eq!(cache.cached_sources(), 2);
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
    fn hops_between_serves_reverse_queries_from_one_table() {
        let g = graph();
        let cache = RoutingCache::new();
        let (a, b) = (SatIndex(10), SatIndex(900));
        let forward = cache.hops_between(&g, a, b);
        assert_eq!(cache.cached_sources(), 1);
        assert_eq!(cache.reverse_hits(), 0);
        // The opposite direction reads a's table backwards: no new entry.
        let reverse = cache.hops_between(&g, b, a);
        assert_eq!(forward, reverse);
        assert_eq!(cache.cached_sources(), 1);
        assert_eq!(cache.reverse_hits(), 1);
        assert_eq!(forward, hop_distances(&g, a)[b.as_usize()]);
    }

    #[test]
    fn hops_between_symmetric_on_faulted_graph() {
        let c = Constellation::new(shells::starlink_shell1());
        let mut faults = FaultPlan::none();
        for s in [4u32, 90, 91, 700, 1200] {
            faults.fail_sat(SatIndex(s));
        }
        let g = IslGraph::build(&c, SimTime::from_secs(311), &faults);
        for (a, b) in [(0u32, 1583u32), (5, 710), (89, 92), (700, 701)] {
            let fwd = RoutingCache::new().hops_between(&g, SatIndex(a), SatIndex(b));
            let rev = RoutingCache::new().hops_between(&g, SatIndex(b), SatIndex(a));
            assert_eq!(fwd, rev, "hop distance {a}<->{b} asymmetric");
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
        assert_eq!(cache.balls.read().unwrap().len(), 1);
        // A cached full table answers any radius.
        let full = cache.tables_for(&g, src);
        let twelve = cache.ball_for(&g, src, 12, None);
        assert!(RoutingBall::ptr_eq(&twelve, &RoutingBall::full(full)));
        let direct = RoutingBall::compute(&g, src, 12, None);
        for i in 0..g.len() as u32 {
            assert_eq!(twelve.hops(SatIndex(i)), direct.hops(SatIndex(i)));
            assert_eq!(twelve.km(SatIndex(i)), direct.km(SatIndex(i)));
        }
        // A ball holding the whole 64-satellite test shell is its full
        // tables, memoized as such.
        let small = Constellation::new(shells::test_shell());
        let small = IslGraph::build(&small, SimTime::EPOCH, &FaultPlan::none());
        let cache = RoutingCache::new();
        cache.ball_for(&small, SatIndex(7), 10, None);
        assert_eq!(cache.cached_sources(), 1);
        assert!(cache.balls.read().unwrap().is_empty());
        assert_eq!(
            *cache.tables_for(&small, SatIndex(7)),
            SourceTables::compute(&small, SatIndex(7))
        );
    }

    #[test]
    fn cut_balls_never_answer_uncut_queries() {
        use spacecdn_geo::Latency;
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
        assert_eq!(*cache.tables_for(&g, src), full);

        // The same through the graph's own cache: a cut lookup first,
        // then the ball and full-table lookups stay unbounded.
        let bounded = g.routing_tables_cut(src, 10, cut);
        assert!((0..g.len() as u32)
            .any(|i| { full.hops[i as usize] <= 10 && bounded.hops(SatIndex(i)) == u32::MAX }));
        let within = g.routing_tables_within(src, 10);
        assert!((0..g.len() as u32).all(|i| {
            let i = SatIndex(i);
            within.hops(i) == direct.hops(i) && within.km(i) == direct.km(i)
        }));
        assert_eq!(*g.routing_tables(src), full);
        // A wider or looser query recomputes; a cut that never fires keeps
        // a whole-shell ball as the full tables.
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
        let small = Constellation::new(shells::test_shell());
        let small = IslGraph::build(&small, SimTime::EPOCH, &FaultPlan::none());
        let never = FallbackCut {
            user_prop: Latency::from_ms(4.0),
            fallback: Latency::from_ms(200.0),
        };
        let cache = RoutingCache::new();
        cache.ball_for(&small, SatIndex(7), 10, Some(never));
        assert_eq!(cache.cached_sources(), 1);
        assert!(cache.balls.read().unwrap().is_empty());
    }

    #[test]
    fn concurrent_lookups_agree() {
        let g = graph();
        let cache = RoutingCache::new();
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| s.spawn(|| cache.tables_for(&g, SatIndex(55))))
                .collect();
            let tables: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
            for t in &tables[1..] {
                assert_eq!(**t, *tables[0]);
            }
        });
        assert_eq!(cache.cached_sources(), 1);
    }
}
