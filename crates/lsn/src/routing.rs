//! Routing over the ISL graph.
//!
//! Two primitives cover every experiment in the paper:
//!
//! - **latency-weighted Dijkstra** for the bent-pipe backhaul (user's
//!   overhead satellite → satellite over the gateway), and for finding the
//!   *cheapest* cached copy;
//! - **hop-bounded BFS** for the §4 question "is a copy within n ISL
//!   hops?", where hops — not kilometres — are the budget.
//!
//! All kernels walk the graph's CSR rows (see [`IslGraph::csr`]) — three
//! flat arrays indexed by satellite — rather than per-node edge lists, and
//! share per-thread scratch working sets so steady-state walks allocate
//! only their output. The batched `_many` entry points additionally reuse
//! one scratch borrow across many sources.
//!
//! The full-table kernels ([`dijkstra_distances`], [`hop_distances`])
//! write one entry per satellite. The bounded ones write none: a routing
//! ball ([`ball_members`]) emits only its members, and [`dijkstra_walk`]
//! hands each settled satellite to its caller. Both keep their walk state
//! in the scratch and put back only the entries they wrote, so a walk
//! that stops early costs what it touched, not what the shell holds.

use crate::topology::IslGraph;
use spacecdn_geo::propagation::{propagation_delay, Medium};
use spacecdn_geo::{Km, Latency};
use spacecdn_orbit::SatIndex;
use spacecdn_telemetry::LazyCounter;
use std::cell::RefCell;
use std::collections::VecDeque;

/// Kernel invocation counters. Racy: the routing cache absorbs a
/// scheduling-dependent share of would-be runs (racing tasks may both
/// compute an uncached table), so run counts vary with thread interleaving.
static DIJKSTRA_RUNS: LazyCounter = LazyCounter::racy("lsn.dijkstra.runs");
static BFS_RUNS: LazyCounter = LazyCounter::racy("lsn.bfs.runs");
/// Scratch borrow outcomes: `reuse` = the thread-local working set served
/// the walk, `fresh` = a reentrant call fell back to new buffers.
static SCRATCH_REUSE: LazyCounter = LazyCounter::racy("lsn.scratch.reuse");
static SCRATCH_FRESH: LazyCounter = LazyCounter::racy("lsn.scratch.fresh");

/// A routed path through the constellation.
#[derive(Debug, Clone, PartialEq)]
pub struct IslPath {
    /// Satellites visited, source first, destination last. A single-element
    /// path means source == destination.
    pub sats: Vec<SatIndex>,
    /// Total geometric length of all hops.
    pub length: Km,
    /// One-way propagation delay over all hops (no processing).
    pub propagation: Latency,
}

impl IslPath {
    /// Number of ISL hops (satellites minus one).
    pub fn hop_count(&self) -> usize {
        self.sats.len().saturating_sub(1)
    }
}

/// Heap entry ordered by path cost, packed into one `u128` key: the cost's
/// raw IEEE-754 bit pattern in the high 64 bits, the satellite index in the
/// low 32. For non-negative finite floats the unsigned bit pattern is
/// monotonic in the value, so a plain integer compare of the packed key
/// orders by (cost, index-ascending) — exactly the pop order the original
/// `partial_cmp`-with-tie-break heap produced, in a single comparison.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct HeapItem(u128);

impl HeapItem {
    #[inline]
    fn new(cost: f64, sat: u32) -> Self {
        debug_assert!(cost >= 0.0, "negative path cost");
        HeapItem(((cost.to_bits() as u128) << 32) | sat as u128)
    }

    #[inline]
    fn cost(&self) -> f64 {
        f64::from_bits((self.0 >> 32) as u64)
    }

    #[inline]
    fn sat(&self) -> u32 {
        self.0 as u32
    }
}

/// Min-priority-queue over [`HeapItem`] keys, backed by the std max-heap
/// on the complemented key (`!key` reverses the unsigned order, so one
/// integer compare replaces the old cost-then-index two-step).
///
/// Dijkstra pushes each satellite only on a strict cost improvement, so
/// every live key is unique and any correct min-priority-queue pops the
/// identical sequence — the backing container is free to differ
/// structurally without affecting byte-identity.
struct MinHeap {
    inner: std::collections::BinaryHeap<u128>,
}

impl MinHeap {
    fn new() -> Self {
        MinHeap {
            inner: std::collections::BinaryHeap::new(),
        }
    }

    fn clear(&mut self) {
        self.inner.clear();
    }

    #[inline]
    fn push(&mut self, key: HeapItem) {
        self.inner.push(!key.0);
    }

    #[inline]
    fn pop(&mut self) -> Option<HeapItem> {
        self.inner.pop().map(|k| HeapItem(!k))
    }

    /// Empty the queue, yielding the satellite of every entry left in it.
    fn drain_sats(&mut self) -> impl Iterator<Item = u32> + '_ {
        self.inner.drain().map(|k| HeapItem(!k).sat())
    }
}

/// Sentinel in the scratch `prev` array: no predecessor recorded.
const NO_PREV: u32 = u32::MAX;

/// Reusable per-thread working memory for the graph walks below.
///
/// Campaigns run these routines millions of times; allocating `dist` /
/// `prev` / heap storage per call dominated their cost. The arrays are
/// epoch-stamped: `stamp[i] == epoch` means slot `i` was written during
/// the current walk, anything else reads as "unvisited" — so resetting
/// between walks is a single counter increment, not an O(n) fill.
struct Scratch {
    epoch: u32,
    stamp: Vec<u32>,
    dist: Vec<f64>,
    prev: Vec<u32>,
    heap: MinHeap,
    queue: VecDeque<(u32, u32)>,
    /// Walk state of the table-free kernels ([`ball_members`],
    /// [`dijkstra_walk`]), one entry per satellite: the BFS level and the
    /// Dijkstra `(km, route hops)`. At rest every entry reads unreached
    /// (`u32::MAX`, [`UNREACHED`]); a walk resets only what it wrote, so
    /// its cost follows the satellites it touched, not the shell.
    level: Vec<u32>,
    km: Vec<(f64, u32)>,
    /// Satellites the current BFS reached, level by level.
    order: Vec<u32>,
    /// Satellites the current walk popped as settled, plus the one that
    /// stopped it: with the heap's leftovers, every `km` entry it wrote.
    touched: Vec<u32>,
    /// One bit per satellite, all clear at rest: the ball's members, read
    /// out in satellite order.
    bits: Vec<u64>,
}

/// A `(km, route hops)` entry no walk has reached.
const UNREACHED: (f64, u32) = (f64::INFINITY, u32::MAX);

impl Scratch {
    fn new() -> Self {
        Scratch {
            epoch: 0,
            stamp: Vec::new(),
            dist: Vec::new(),
            prev: Vec::new(),
            heap: MinHeap::new(),
            queue: VecDeque::new(),
            level: Vec::new(),
            km: Vec::new(),
            order: Vec::new(),
            touched: Vec::new(),
            bits: Vec::new(),
        }
    }

    /// Size the walk state for a graph of `n` satellites. It only grows:
    /// entries past a smaller graph's end stay at rest, so a thread that
    /// alternates between shells never reallocates.
    fn fit_walk(&mut self, n: usize) {
        if self.km.len() < n {
            self.level.resize(n, u32::MAX);
            self.km.resize(n, UNREACHED);
            self.bits.resize(n.div_ceil(64), 0);
        }
    }

    /// Start a walk over a graph with `n` nodes.
    fn begin(&mut self, n: usize) {
        if self.stamp.len() != n {
            self.stamp = vec![0; n];
            self.dist = vec![f64::INFINITY; n];
            self.prev = vec![NO_PREV; n];
            self.epoch = 0;
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Stamp counter wrapped (once per ~4 billion walks): clear the
            // stale stamps so old epochs can't alias the new one.
            self.stamp.fill(0);
            self.epoch = 1;
        }
        self.heap.clear();
        self.queue.clear();
    }

    #[inline]
    fn visited(&self, i: usize) -> bool {
        self.stamp[i] == self.epoch
    }

    #[inline]
    fn dist(&self, i: usize) -> f64 {
        if self.visited(i) {
            self.dist[i]
        } else {
            f64::INFINITY
        }
    }

    #[inline]
    fn record(&mut self, i: usize, dist: f64, prev: u32) {
        self.stamp[i] = self.epoch;
        self.dist[i] = dist;
        self.prev[i] = prev;
    }

    /// Rebuild the node chain ending at `last` from the `prev` links.
    fn trace_path(&self, last: SatIndex) -> Vec<SatIndex> {
        let mut sats = vec![last];
        let mut cur = last;
        while self.prev[cur.as_usize()] != NO_PREV {
            cur = SatIndex(self.prev[cur.as_usize()]);
            sats.push(cur);
        }
        sats.reverse();
        sats
    }
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::new());
}

/// Run `f` with this thread's scratch buffers. A reentrant call (a BFS
/// target predicate invoking routing again) falls back to fresh buffers
/// instead of panicking on the `RefCell`.
fn with_scratch<R>(f: impl FnOnce(&mut Scratch) -> R) -> R {
    SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut scratch) => {
            SCRATCH_REUSE.incr();
            f(&mut scratch)
        }
        Err(_) => {
            SCRATCH_FRESH.incr();
            f(&mut Scratch::new())
        }
    })
}

/// Latency-weighted shortest path between two satellites. `None` when the
/// destination is unreachable (faults can partition the grid).
pub fn dijkstra(graph: &IslGraph, src: SatIndex, dst: SatIndex) -> Option<IslPath> {
    if !graph.is_alive(src) || !graph.is_alive(dst) {
        return None;
    }
    if src == dst {
        return Some(IslPath {
            sats: vec![src],
            length: Km::ZERO,
            propagation: Latency::ZERO,
        });
    }
    let (offsets, nbrs, lens) = graph.csr();
    DIJKSTRA_RUNS.incr();
    with_scratch(|s| {
        s.begin(graph.len());
        s.record(src.as_usize(), 0.0, NO_PREV);
        s.heap.push(HeapItem::new(0.0, src.0));

        while let Some(item) = s.heap.pop() {
            let cost = item.cost();
            let sat = item.sat() as usize;
            if cost > s.dist(sat) {
                continue;
            }
            if item.sat() == dst.0 {
                break;
            }
            let (lo, hi) = (offsets[sat] as usize, offsets[sat + 1] as usize);
            for (&to, &len) in nbrs[lo..hi].iter().zip(&lens[lo..hi]) {
                let next = cost + len;
                if next < s.dist(to as usize) {
                    s.record(to as usize, next, item.sat());
                    s.heap.push(HeapItem::new(next, to));
                }
            }
        }

        let total = s.dist(dst.as_usize());
        if total.is_infinite() {
            return None;
        }
        let sats = s.trace_path(dst);
        debug_assert_eq!(sats.first(), Some(&src));
        let length = Km(total);
        Some(IslPath {
            sats,
            length,
            propagation: spacecdn_geo::propagation::propagation_delay(
                length,
                spacecdn_geo::Medium::Vacuum,
            ),
        })
    })
}

/// The [`dijkstra_distances`] kernel against caller scratch and output:
/// [`settle_walk`] over `out`, run to the end.
fn dijkstra_distances_with(
    s: &mut Scratch,
    graph: &IslGraph,
    src: SatIndex,
    out: &mut Vec<(f64, u32)>,
) {
    out.clear();
    out.resize(graph.len(), UNREACHED);
    if graph.is_alive(src) {
        settle_walk(graph, src, out, &mut s.heap, &mut s.touched, |_, _| false);
    }
}

/// Dijkstra from `src` (alive) over `km`, every entry unreached on
/// entry, calling `stop` as each satellite settles with its (then final)
/// `(km, hops)` entry; returning true ends the walk. Every settled
/// satellite and the one that stopped the walk land in `touched`;
/// together with the heap's leftovers they are every entry the walk
/// wrote, which [`reset_walk`] puts back to rest when `km` is scratch
/// walk state.
fn settle_walk(
    graph: &IslGraph,
    src: SatIndex,
    km: &mut [(f64, u32)],
    heap: &mut MinHeap,
    touched: &mut Vec<u32>,
    mut stop: impl FnMut(usize, (f64, u32)) -> bool,
) {
    DIJKSTRA_RUNS.incr();
    heap.clear();
    touched.clear();
    km[src.as_usize()] = (0.0, 0);
    heap.push(HeapItem::new(0.0, src.0));
    let (offsets, nbrs, lens) = graph.csr();
    while let Some(item) = heap.pop() {
        let cost = item.cost();
        let sat = item.sat() as usize;
        if cost > km[sat].0 {
            continue;
        }
        touched.push(item.sat());
        if stop(sat, km[sat]) {
            break;
        }
        let hops = km[sat].1;
        let (lo, hi) = (offsets[sat] as usize, offsets[sat + 1] as usize);
        for (&to, &len) in nbrs[lo..hi].iter().zip(&lens[lo..hi]) {
            let next = cost + len;
            let slot = &mut km[to as usize];
            if next < slot.0 {
                *slot = (next, hops + 1);
                heap.push(HeapItem::new(next, to));
            }
        }
    }
}

/// Put every `km` entry a [`settle_walk`] wrote back to rest.
fn reset_walk(km: &mut [(f64, u32)], heap: &mut MinHeap, touched: &[u32]) {
    for &sat in touched {
        km[sat as usize] = UNREACHED;
    }
    for sat in heap.drain_sats() {
        km[sat as usize] = UNREACHED;
    }
}

/// Level-synchronous BFS from `src` (alive) over `level`, every entry
/// `u32::MAX` on entry, out to level `radius`. The wavefronts are
/// consecutive runs of `order`, which ends up holding every satellite
/// reached (the entries the walk wrote). Returns whether the walk ran out
/// of satellites before level `radius`.
fn bfs_levels(
    graph: &IslGraph,
    src: SatIndex,
    radius: u32,
    level: &mut [u32],
    order: &mut Vec<u32>,
) -> bool {
    BFS_RUNS.incr();
    order.clear();
    order.push(src.0);
    level[src.as_usize()] = 0;
    let (offsets, nbrs, _) = graph.csr();
    let (mut lo, mut depth) = (0, 0u32);
    while depth < radius && lo < order.len() {
        depth += 1;
        let hi = order.len();
        for i in lo..hi {
            let sat = order[i] as usize;
            let (a, b) = (offsets[sat] as usize, offsets[sat + 1] as usize);
            for &nb in &nbrs[a..b] {
                let slot = &mut level[nb as usize];
                if *slot == u32::MAX {
                    *slot = depth;
                    order.push(nb);
                }
            }
        }
        lo = hi;
    }
    lo == order.len()
}

/// The [`hop_distances`] kernel: [`bfs_levels`] over `out`, unbounded.
fn hop_distances_with(s: &mut Scratch, graph: &IslGraph, src: SatIndex, out: &mut Vec<u32>) {
    out.clear();
    out.resize(graph.len(), u32::MAX);
    if graph.is_alive(src) {
        bfs_levels(graph, src, u32::MAX, out, &mut s.order);
    }
}

/// The ground-fallback stop rule of a bounded walk (see [`ball_members`]):
/// a satellite `km` kilometres of ISL away costs at least
/// `user_prop + rt(km)` to fetch from — the user link's propagation
/// round trip plus the ISL path's — and a fetch is served from space only
/// when it beats `fallback`, so once that floor exceeds the fallback no
/// satellite the walk has yet to settle can win. The test is evaluated
/// with the same [`propagation_delay`] round trip and [`Latency`] adds
/// the fetch is priced with, so it never disagrees with the pricing in
/// the last bit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FallbackCut {
    /// The smallest user-link propagation round trip among the users the
    /// walk serves.
    pub user_prop: Latency,
    /// The largest ground-fallback RTT among those users.
    pub fallback: Latency,
}

impl FallbackCut {
    /// True when a satellite `km` kilometres away can no longer beat the
    /// fallback. Monotone in `km`.
    #[inline]
    pub fn fires(&self, km: f64) -> bool {
        self.user_prop + propagation_delay(Km(km), Medium::Vacuum).round_trip() > self.fallback
    }
}

/// One satellite of a routing ball (see [`ball_members`]), with the
/// entries the full tables hold for it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BallMember {
    /// The satellite.
    pub sat: SatIndex,
    /// Its BFS hop level, as [`hop_distances`] gives it.
    pub hops: u32,
    /// Kilometres of its cheapest-by-distance path, as
    /// [`dijkstra_distances`] gives them.
    pub km: f64,
    /// Hop count of that path, as [`dijkstra_distances`] gives it.
    pub route_hops: u32,
}

/// The [`ball_members`] kernel against caller scratch and output: the BFS
/// out to level `radius`, then the Dijkstra — over the whole graph, since
/// a km-shortest path to a member may leave the ball — step for step
/// until the last member settles or `cut` fires on the next satellite to
/// settle. Both walks run on the scratch walk state and put back only the
/// entries they wrote. Returns whether the BFS held the source's whole
/// component, and the km at which the cut stopped the walk
/// (`f64::INFINITY` when it never fired).
fn ball_members_with(
    s: &mut Scratch,
    graph: &IslGraph,
    src: SatIndex,
    radius: u32,
    cut: Option<FallbackCut>,
    out: &mut Vec<BallMember>,
) -> (bool, f64) {
    out.clear();
    if !graph.is_alive(src) {
        return (true, f64::INFINITY);
    }
    let n = graph.len();
    s.fit_walk(n);
    let Scratch {
        level,
        km,
        order,
        touched,
        bits,
        heap,
        ..
    } = s;

    let whole = bfs_levels(graph, src, radius, level, order);

    let mut unsettled = order.len();
    let mut cut_km = f64::INFINITY;
    let levels: &[u32] = level;
    settle_walk(graph, src, km, heap, touched, |sat, (dist, _)| {
        if cut.is_some_and(|c| c.fires(dist)) {
            cut_km = dist;
            return true;
        }
        if levels[sat] != u32::MAX {
            unsettled -= 1;
        }
        unsettled == 0
    });

    // Members: every BFS-reached satellite settled before the cut. A cut
    // leaves every unsettled satellite at or beyond the km it fired at
    // (the heap pops in km order), so `km < cut_km` is exactly "settled".
    let mut count = 0;
    for &sat in order.iter() {
        let sat = sat as usize;
        if km[sat].0 < cut_km {
            bits[sat / 64] |= 1 << (sat % 64);
            count += 1;
        }
    }
    out.reserve_exact(count);
    for (w, word) in bits[..n.div_ceil(64)].iter_mut().enumerate() {
        let mut b = std::mem::take(word);
        while b != 0 {
            let sat = w * 64 + b.trailing_zeros() as usize;
            b &= b - 1;
            let (dist, route_hops) = km[sat];
            out.push(BallMember {
                sat: SatIndex(sat as u32),
                hops: level[sat],
                km: dist,
                route_hops,
            });
        }
    }
    for &sat in order.iter() {
        level[sat as usize] = u32::MAX;
    }
    reset_walk(km, heap, touched);
    (whole, cut_km)
}

/// The routing ball of `src`: every satellite within `radius` BFS hops,
/// in ascending satellite order, each with the entries the full
/// ([`dijkstra_distances`], [`hop_distances`]) pair holds for it, bit for
/// bit. Nothing outside the ball is held. A radius at or above the
/// source's eccentricity yields the whole component; the flag is true
/// when the BFS ran out of satellites before level `radius`, which proves
/// that case.
///
/// With a `cut`, the walk also stops at the first satellite to settle
/// whose [`FallbackCut::fires`] — members at or beyond that km are then
/// left out too — and the last value is that km (`f64::INFINITY` when the
/// cut never fired, and always without one). Only a ball the cut never
/// stopped can be the whole component.
///
/// The BFS stops at level `radius` and the Dijkstra once every member has
/// settled; neither writes a shell-length table, so a ball costs what it
/// touches rather than what the shell holds.
pub fn ball_members(
    graph: &IslGraph,
    src: SatIndex,
    radius: u32,
    cut: Option<FallbackCut>,
) -> (Vec<BallMember>, bool, f64) {
    let mut members = Vec::new();
    let (whole, cut_km) =
        with_scratch(|s| ball_members_with(s, graph, src, radius, cut, &mut members));
    (members, whole, cut_km)
}

/// Latency-weighted Dijkstra from `src` that keeps no table: `visit` sees
/// each satellite as it settles, in settle order, with its final
/// `(km, route hops)` entry — bit-equal to [`dijkstra_distances`]' — and
/// ends the walk by returning true. Nothing is visited from a dead source.
/// The walk's state lives in per-thread scratch and only the entries it
/// wrote are put back, so an early stop costs what it settled.
pub fn dijkstra_walk(
    graph: &IslGraph,
    src: SatIndex,
    mut visit: impl FnMut(SatIndex, (f64, u32)) -> bool,
) {
    if !graph.is_alive(src) {
        return;
    }
    with_scratch(|s| {
        s.fit_walk(graph.len());
        let Scratch {
            km, heap, touched, ..
        } = s;
        settle_walk(graph, src, km, heap, touched, |sat, entry| {
            visit(SatIndex(sat as u32), entry)
        });
        reset_walk(km, heap, touched);
    });
}

/// Single-source shortest paths: for every satellite, the (kilometres,
/// hop-count) of the cheapest-by-distance path from `src`. Unreachable or
/// failed satellites get `(f64::INFINITY, u32::MAX)`. One call costs one
/// Dijkstra; use it when many destinations share a source (e.g. scoring all
/// gateways).
pub fn dijkstra_distances(graph: &IslGraph, src: SatIndex) -> Vec<(f64, u32)> {
    let mut out = Vec::new();
    dijkstra_distances_into(graph, src, &mut out);
    out
}

/// [`dijkstra_distances`] writing into a caller-owned buffer (cleared and
/// resized), so sweeps over many sources can recycle one allocation.
pub fn dijkstra_distances_into(graph: &IslGraph, src: SatIndex, out: &mut Vec<(f64, u32)>) {
    with_scratch(|s| dijkstra_distances_with(s, graph, src, out));
}

/// Hop distances (BFS levels) from `src` to every satellite; `u32::MAX`
/// marks unreachable or failed satellites.
pub fn hop_distances(graph: &IslGraph, src: SatIndex) -> Vec<u32> {
    let mut out = Vec::new();
    hop_distances_into(graph, src, &mut out);
    out
}

/// [`hop_distances`] writing into a caller-owned buffer (cleared and
/// resized), so sweeps over many sources can recycle one allocation.
pub fn hop_distances_into(graph: &IslGraph, src: SatIndex, out: &mut Vec<u32>) {
    with_scratch(|s| hop_distances_with(s, graph, src, out));
}

/// Batched [`hop_distances`] over many sources: one scratch borrow and one
/// pair of wavefront buffers serve the whole batch, so per-source setup is
/// just the output allocation. Results are identical to per-source calls.
pub fn hop_distances_many(graph: &IslGraph, sources: &[SatIndex]) -> Vec<Vec<u32>> {
    with_scratch(|s| {
        sources
            .iter()
            .map(|&src| {
                let mut out = Vec::new();
                hop_distances_with(s, graph, src, &mut out);
                out
            })
            .collect()
    })
}

/// BFS from `src` for the nearest satellite (in hops) satisfying
/// `is_target`, limited to `max_hops`. Returns the full path. Ties at equal
/// hop count resolve to the first target discovered in deterministic BFS
/// order. The source itself is considered (zero hops).
pub fn bfs_nearest(
    graph: &IslGraph,
    src: SatIndex,
    max_hops: u32,
    mut is_target: impl FnMut(SatIndex) -> bool,
) -> Option<IslPath> {
    if !graph.is_alive(src) {
        return None;
    }
    if is_target(src) {
        return Some(IslPath {
            sats: vec![src],
            length: Km::ZERO,
            propagation: Latency::ZERO,
        });
    }
    let (offsets, nbrs, _) = graph.csr();
    BFS_RUNS.incr();
    with_scratch(|s| {
        s.begin(graph.len());
        s.record(src.as_usize(), 0.0, NO_PREV);
        s.queue.push_back((src.0, 0u32));

        while let Some((sat, hops)) = s.queue.pop_front() {
            if hops >= max_hops {
                continue;
            }
            let (lo, hi) = (
                offsets[sat as usize] as usize,
                offsets[sat as usize + 1] as usize,
            );
            for &nb in &nbrs[lo..hi] {
                if s.visited(nb as usize) {
                    continue;
                }
                s.record(nb as usize, 0.0, sat);
                if is_target(SatIndex(nb)) {
                    // Reconstruct and measure the path.
                    let sats = s.trace_path(SatIndex(nb));
                    let mut length = Km::ZERO;
                    for w in sats.windows(2) {
                        length += graph.position(w[0]).distance(graph.position(w[1]));
                    }
                    return Some(IslPath {
                        sats,
                        length,
                        propagation: spacecdn_geo::propagation::propagation_delay(
                            length,
                            spacecdn_geo::Medium::Vacuum,
                        ),
                    });
                }
                s.queue.push_back((nb, hops + 1));
            }
        }
        None
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use spacecdn_geo::SimTime;
    use spacecdn_orbit::shell::shells;
    use spacecdn_orbit::Constellation;

    fn shell1_graph() -> (Constellation, IslGraph) {
        let c = Constellation::new(shells::starlink_shell1());
        let g = IslGraph::build(&c, SimTime::EPOCH, &FaultPlan::none());
        (c, g)
    }

    #[test]
    fn trivial_path_to_self() {
        let (_, g) = shell1_graph();
        let p = dijkstra(&g, SatIndex(7), SatIndex(7)).unwrap();
        assert_eq!(p.hop_count(), 0);
        assert_eq!(p.length, Km::ZERO);
    }

    #[test]
    fn single_hop_matches_edge_length() {
        let (c, g) = shell1_graph();
        let a = SatIndex(0);
        let b = c.sat_at(0, 1);
        let p = dijkstra(&g, a, b).unwrap();
        assert_eq!(p.hop_count(), 1);
        let edge_len = g.neighbors(a).iter().find(|e| e.to == b).unwrap().length.0;
        assert!((p.length.0 - edge_len).abs() < 1e-9);
    }

    #[test]
    fn path_is_connected_chain() {
        let (c, g) = shell1_graph();
        let p = dijkstra(&g, SatIndex(0), c.sat_at(36, 11)).unwrap();
        assert!(p.hop_count() >= 2);
        for w in p.sats.windows(2) {
            assert!(
                g.neighbors(w[0]).iter().any(|e| e.to == w[1]),
                "non-adjacent consecutive satellites"
            );
        }
    }

    #[test]
    fn dijkstra_prefers_short_inter_plane_hops() {
        // Walk the inter-plane neighbour chain three planes east; Dijkstra
        // to that satellite should use exactly those 3 cheap hops.
        let (c, g) = shell1_graph();
        let src = c.sat_at(0, 0);
        let mut cur = src;
        let mut expected_len = 0.0;
        for _ in 0..3 {
            let next = g
                .neighbors(cur)
                .iter()
                .find(|e| c.plane_of(e.to) == (c.plane_of(cur) + 1) % 72)
                .expect("east inter-plane link");
            expected_len += next.length.0;
            cur = next.to;
        }
        let p = dijkstra(&g, src, cur).unwrap();
        assert_eq!(p.hop_count(), 3);
        assert!(
            (p.length.0 - expected_len).abs() < 1e-6,
            "got {}",
            p.length.0
        );
        assert!(p.length.0 < 3.0 * 1500.0, "got {}", p.length.0);
    }

    #[test]
    fn dijkstra_symmetric_cost() {
        let (c, g) = shell1_graph();
        let a = c.sat_at(5, 3);
        let b = c.sat_at(40, 15);
        let ab = dijkstra(&g, a, b).unwrap();
        let ba = dijkstra(&g, b, a).unwrap();
        assert!((ab.length.0 - ba.length.0).abs() < 1e-6);
    }

    #[test]
    fn heap_item_bit_order_matches_float_order() {
        // The heap's integer ordering trick requires bit-pattern order to
        // agree with numeric order for every non-negative cost.
        let costs = [0.0, 1e-12, 0.5, 1.0, 550.0, 1970.5, 1e9, f64::INFINITY];
        for w in costs.windows(2) {
            assert!(w[0].to_bits() < w[1].to_bits(), "{} !< {}", w[0], w[1]);
        }
        let mut heap = MinHeap::new();
        heap.push(HeapItem::new(2.0, 9));
        heap.push(HeapItem::new(1.0, 7));
        heap.push(HeapItem::new(1.0, 3));
        assert_eq!(heap.pop().unwrap().sat(), 3, "min cost, min index first");
        assert_eq!(heap.pop().unwrap().sat(), 7);
        assert_eq!(heap.pop().unwrap().sat(), 9);
    }

    #[test]
    fn grid_is_fully_connected() {
        let (_, g) = shell1_graph();
        let d = hop_distances(&g, SatIndex(0));
        assert!(d.iter().all(|&h| h != u32::MAX));
        // Grid diameter of a 72×22 torus is 36 + 11 = 47.
        let max = *d.iter().max().unwrap();
        assert_eq!(max, 47, "unexpected diameter {max}");
    }

    #[test]
    fn hop_distances_match_bfs_nearest() {
        let (c, g) = shell1_graph();
        let src = c.sat_at(10, 10);
        let dst = c.sat_at(14, 12);
        let d = hop_distances(&g, src)[dst.as_usize()];
        let p = bfs_nearest(&g, src, 64, |s| s == dst).unwrap();
        assert_eq!(p.hop_count() as u32, d);
    }

    #[test]
    fn batched_kernels_match_single_source_calls() {
        let c = Constellation::new(shells::starlink_shell1());
        let mut faults = FaultPlan::none();
        faults.fail_sat(SatIndex(300));
        faults.fail_sat(SatIndex(301));
        let g = IslGraph::build(&c, SimTime::from_secs(77), &faults);
        let sources = [SatIndex(0), SatIndex(300), SatIndex(512), SatIndex(1583)];

        let hops_batch = hop_distances_many(&g, &sources);
        for (i, &src) in sources.iter().enumerate() {
            assert_eq!(hops_batch[i], hop_distances(&g, src), "hops for {src:?}");
        }
    }

    #[test]
    fn into_variants_recycle_buffers_across_graphs() {
        let big = Constellation::new(shells::starlink_shell1());
        let small = Constellation::new(shells::test_shell());
        let g1 = IslGraph::build(&big, SimTime::EPOCH, &FaultPlan::none());
        let g2 = IslGraph::build(&small, SimTime::EPOCH, &FaultPlan::none());
        let mut km = Vec::new();
        let mut hops = Vec::new();
        dijkstra_distances_into(&g1, SatIndex(9), &mut km);
        hop_distances_into(&g1, SatIndex(9), &mut hops);
        assert_eq!(km.len(), g1.len());
        assert_eq!(km, dijkstra_distances(&g1, SatIndex(9)));
        // Shrinking to a smaller graph must resize, not read stale slots.
        dijkstra_distances_into(&g2, SatIndex(9), &mut km);
        hop_distances_into(&g2, SatIndex(9), &mut hops);
        assert_eq!(km.len(), g2.len());
        assert_eq!(hops, hop_distances(&g2, SatIndex(9)));
    }

    #[test]
    fn bfs_respects_hop_budget() {
        let (c, g) = shell1_graph();
        let src = c.sat_at(0, 0);
        let dst = c.sat_at(10, 0); // 10 hops away
        assert!(bfs_nearest(&g, src, 9, |s| s == dst).is_none());
        assert!(bfs_nearest(&g, src, 10, |s| s == dst).is_some());
    }

    #[test]
    fn bfs_zero_hops_only_source() {
        let (_, g) = shell1_graph();
        let src = SatIndex(0);
        assert!(bfs_nearest(&g, src, 0, |s| s == src).is_some());
        assert!(bfs_nearest(&g, src, 0, |s| s == SatIndex(1)).is_none());
    }

    #[test]
    fn bfs_finds_nearest_of_many() {
        let (c, g) = shell1_graph();
        let src = c.sat_at(0, 0);
        let near = c.sat_at(2, 0); // 2 hops
        let far = c.sat_at(20, 0); // 20 hops
        let targets = [near, far];
        let p = bfs_nearest(&g, src, 30, |s| targets.contains(&s)).unwrap();
        assert_eq!(*p.sats.last().unwrap(), near);
        assert_eq!(p.hop_count(), 2);
    }

    #[test]
    fn routing_around_failures() {
        let c = Constellation::new(shells::starlink_shell1());
        let a = c.sat_at(0, 0);
        let b = c.sat_at(2, 0);
        let mid = c.sat_at(1, 0);
        let mut faults = FaultPlan::none();
        faults.fail_sat(mid);
        let g = IslGraph::build(&c, SimTime::EPOCH, &faults);
        let p = dijkstra(&g, a, b).unwrap();
        assert!(!p.sats.contains(&mid));
        assert!(p.hop_count() >= 3, "detour must be longer");
    }

    #[test]
    fn unreachable_with_dead_endpoint() {
        let c = Constellation::new(shells::starlink_shell1());
        let mut faults = FaultPlan::none();
        faults.fail_sat(SatIndex(5));
        let g = IslGraph::build(&c, SimTime::EPOCH, &faults);
        assert!(dijkstra(&g, SatIndex(0), SatIndex(5)).is_none());
        assert!(dijkstra(&g, SatIndex(5), SatIndex(0)).is_none());
        assert!(bfs_nearest(&g, SatIndex(5), 10, |_| true).is_none());
    }

    #[test]
    fn dijkstra_no_worse_than_bfs_path_length() {
        // Dijkstra optimises kilometres; its path length must be ≤ any
        // hop-minimal path's length.
        let (c, g) = shell1_graph();
        let src = c.sat_at(3, 5);
        let dst = c.sat_at(30, 16);
        let dj = dijkstra(&g, src, dst).unwrap();
        let bfs = bfs_nearest(&g, src, 64, |s| s == dst).unwrap();
        assert!(dj.length.0 <= bfs.length.0 + 1e-6);
    }
}
