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
//! one scratch borrow and one frontier buffer across many sources.

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
    /// Current/next BFS wavefronts for the frontier-swap kernel.
    frontier: Vec<u32>,
    next_front: Vec<u32>,
}

impl Scratch {
    fn new() -> Self {
        Scratch {
            epoch: 0,
            stamp: Vec::new(),
            dist: Vec::new(),
            prev: Vec::new(),
            heap: MinHeap::new(),
            queue: VecDeque::new(),
            frontier: Vec::new(),
            next_front: Vec::new(),
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

/// The [`dijkstra_distances`] kernel against caller scratch and output.
/// `stop` sees each satellite as it settles, with its (then final)
/// `(km, hops)` entry, and ends the walk by returning true; the full
/// kernel never stops.
fn dijkstra_distances_with(
    s: &mut Scratch,
    graph: &IslGraph,
    src: SatIndex,
    out: &mut Vec<(f64, u32)>,
    mut stop: impl FnMut(usize, (f64, u32)) -> bool,
) {
    let n = graph.len();
    out.clear();
    out.resize(n, (f64::INFINITY, u32::MAX));
    if !graph.is_alive(src) {
        return;
    }
    DIJKSTRA_RUNS.incr();
    out[src.as_usize()] = (0.0, 0);
    let (offsets, nbrs, lens) = graph.csr();
    s.begin(n);
    s.heap.push(HeapItem::new(0.0, src.0));
    while let Some(item) = s.heap.pop() {
        let cost = item.cost();
        let sat = item.sat() as usize;
        if cost > out[sat].0 {
            continue;
        }
        if stop(sat, out[sat]) {
            break;
        }
        let hops = out[sat].1;
        let (lo, hi) = (offsets[sat] as usize, offsets[sat + 1] as usize);
        // Zipped slice iteration: one bounds check per row, not per edge.
        for (&to, &len) in nbrs[lo..hi].iter().zip(&lens[lo..hi]) {
            let next = cost + len;
            let slot = &mut out[to as usize];
            if next < slot.0 {
                *slot = (next, hops + 1);
                s.heap.push(HeapItem::new(next, to));
            }
        }
    }
}

/// The [`hop_distances`] kernel: level-synchronous BFS swapping two
/// wavefront buffers instead of driving a deque of (node, depth) pairs.
/// The output array doubles as the visited set. The walk stops after
/// level `max_level`; returns how many satellites it reached, and whether
/// it ran out of satellites first (then `out` is the full BFS table).
fn hop_distances_with(
    s: &mut Scratch,
    graph: &IslGraph,
    src: SatIndex,
    max_level: u32,
    out: &mut Vec<u32>,
) -> (usize, bool) {
    let n = graph.len();
    out.clear();
    out.resize(n, u32::MAX);
    if !graph.is_alive(src) {
        return (0, true);
    }
    BFS_RUNS.incr();
    out[src.as_usize()] = 0;
    let mut reached = 1;
    let (offsets, nbrs, _) = graph.csr();
    // Disjoint borrows of the two wavefront buffers so the expansion loop
    // iterates one while pushing the other without per-index checks.
    let Scratch {
        frontier,
        next_front,
        ..
    } = s;
    frontier.clear();
    next_front.clear();
    frontier.push(src.0);
    let mut level = 0u32;
    while level < max_level && !frontier.is_empty() {
        level += 1;
        for &satu in frontier.iter() {
            let sat = satu as usize;
            let (lo, hi) = (offsets[sat] as usize, offsets[sat + 1] as usize);
            for &nb in &nbrs[lo..hi] {
                let slot = &mut out[nb as usize];
                if *slot == u32::MAX {
                    *slot = level;
                    next_front.push(nb);
                    reached += 1;
                }
            }
        }
        std::mem::swap(frontier, next_front);
        next_front.clear();
    }
    (reached, frontier.is_empty())
}

/// The ground-fallback stop rule of a bounded walk (see [`ball_tables`]):
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

/// The [`ball_tables`] kernel against caller scratch and outputs: the
/// BFS out to level `radius`, then the full Dijkstra — over the whole
/// graph, since a km-shortest path to a member may leave the ball — step
/// for step until the last member settles or `cut` fires on the next
/// satellite to settle. Settled entries are final, so every settled
/// member's bits match a full run; every other entry is reset to
/// unreachable. Returns whether the BFS held the source's whole
/// component, and the km at which the cut stopped the walk
/// (`f64::INFINITY` when it never fired).
fn ball_tables_with(
    s: &mut Scratch,
    graph: &IslGraph,
    src: SatIndex,
    radius: u32,
    cut: Option<FallbackCut>,
    km: &mut Vec<(f64, u32)>,
    hops: &mut Vec<u32>,
) -> (bool, f64) {
    let (members, whole) = hop_distances_with(s, graph, src, radius, hops);
    let mut unsettled = members;
    let mut cut_km = f64::INFINITY;
    dijkstra_distances_with(s, graph, src, km, |sat, (dist, _)| {
        if cut.is_some_and(|c| c.fires(dist)) {
            cut_km = dist;
            return true;
        }
        if hops[sat] != u32::MAX {
            unsettled -= 1;
        }
        unsettled == 0
    });
    // Tentative distances the walk left outside the ball read as
    // unreachable, like every other non-member. A cut leaves every
    // unsettled satellite at or beyond the km it fired at (the heap pops
    // in km order), and those read as non-members too.
    if members < km.len() || cut_km.is_finite() {
        for (entry, h) in km.iter_mut().zip(hops.iter_mut()) {
            if *h == u32::MAX || entry.0 >= cut_km {
                *entry = (f64::INFINITY, u32::MAX);
                *h = u32::MAX;
            }
        }
    }
    (whole, cut_km)
}

/// Routing tables from `src` exact out to `radius` BFS hops: the
/// ([`dijkstra_distances`], [`hop_distances`]) pair restricted to the
/// *ball* of satellites within `radius` hops. Every member's entries are
/// bit-equal to the full tables'; every non-member reads as unreachable
/// (`(f64::INFINITY, u32::MAX)` and `u32::MAX`). A radius at or above
/// the source's eccentricity returns exactly the full tables; the flag
/// is true when the BFS ran out of satellites before level `radius`,
/// which proves that case.
///
/// With a `cut`, the walk also stops at the first satellite to settle
/// whose [`FallbackCut::fires`] — members at or beyond that km then read
/// as non-members too — and the last value is that km (`f64::INFINITY`
/// when the cut never fired, and always without one). Only a ball the
/// cut never stopped can be the full tables.
///
/// The BFS stops at level `radius` and the Dijkstra once every member has
/// settled, so a ball costs a fraction of the full pair on a large
/// shell; one that covers the whole graph costs the same.
pub fn ball_tables(
    graph: &IslGraph,
    src: SatIndex,
    radius: u32,
    cut: Option<FallbackCut>,
) -> (RawSourceTables, bool, f64) {
    let mut km = Vec::new();
    let mut hops = Vec::new();
    let (whole, cut_km) =
        with_scratch(|s| ball_tables_with(s, graph, src, radius, cut, &mut km, &mut hops));
    ((km, hops), whole, cut_km)
}

/// [`dijkstra_distances`] that `stop` may end early: it sees each
/// satellite as it settles, with its final `(km, hops)` entry, and ends
/// the walk by returning true. Every satellite that settled before that
/// one holds its full-table entry bit for bit; the stopping satellite and
/// every satellite at or beyond its km read as unreachable. A walk `stop`
/// never ends is exactly [`dijkstra_distances`].
pub fn dijkstra_distances_until(
    graph: &IslGraph,
    src: SatIndex,
    mut stop: impl FnMut(SatIndex, (f64, u32)) -> bool,
) -> Vec<(f64, u32)> {
    let mut out = Vec::new();
    let mut cut_km = f64::INFINITY;
    with_scratch(|s| {
        dijkstra_distances_with(s, graph, src, &mut out, |sat, entry| {
            let stopped = stop(SatIndex(sat as u32), entry);
            if stopped {
                cut_km = entry.0;
            }
            stopped
        })
    });
    if cut_km.is_finite() {
        for entry in out.iter_mut().filter(|e| e.0 >= cut_km) {
            *entry = (f64::INFINITY, u32::MAX);
        }
    }
    out
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
    with_scratch(|s| dijkstra_distances_with(s, graph, src, out, |_, _| false));
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
    with_scratch(|s| {
        hop_distances_with(s, graph, src, u32::MAX, out);
    });
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
                hop_distances_with(s, graph, src, u32::MAX, &mut out);
                out
            })
            .collect()
    })
}

/// One source's routing tables as raw vectors: the `(km, hop-count)`
/// Dijkstra table and the BFS hop-level table.
pub type RawSourceTables = (Vec<(f64, u32)>, Vec<u32>);

/// Result of a successful [`repair_dijkstra_table`] call.
#[derive(Debug, Clone)]
pub struct RepairOutcome {
    /// The repaired `(km, hop-count)` table, bit-identical to a fresh
    /// [`dijkstra_distances`] run over the new graph.
    pub table: Vec<(f64, u32)>,
    /// How many vertices were re-relaxed (the dirty-region size).
    pub repaired: usize,
}

/// Sparse repair of a single-source `(km, hop-count)` table after a
/// *pure-removal* structural delta (edges only disappeared, none appeared,
/// and edge lengths are unchanged — i.e. a same-epoch fault step).
///
/// `removed_edges` lists every removed *directed* edge as
/// `(from, to, old_length_km)`. `old` is the table computed over
/// `old_graph`; `max_dirty` caps the affected region — when the dirty set
/// grows past it the repair declines (`None`) and the caller falls back to
/// a full recompute.
///
/// Bit-identity argument: a fresh Dijkstra's final entry for `v` is the
/// value-determined recurrence `out[v] = out[u*] + len(u*, v)` (that exact
/// float add), where `u*` is the minimum-`(dist, index)` member of
/// `argmin_u(out[u] + len)` — pop order plus strict-`<`
/// first-improvement-wins makes the earliest-popping tie parent the
/// writer. Removals never create shorter paths, so a vertex whose old
/// optimal (and tie-optimal) parents all survive keeps bit-identical
/// values. The dirty flood below marks the complement conservatively:
/// heads of removed edges that satisfied the recurrence *with float
/// equality*, then every vertex equality-parented through a dirty one
/// (supersets are safe — re-relaxing an unaffected vertex reproduces its
/// bits). Re-running Dijkstra seeded with every clean in-neighbour of the
/// dirty region replays exactly the relaxations the fresh run performs
/// into and inside that region, in the same `(dist, index)` pop order, so
/// every repaired entry — mantissas and hop counts — matches the fresh
/// run's. The timeline oracle and `properties.rs` proptests enforce this
/// end to end.
pub fn repair_dijkstra_table(
    old_graph: &IslGraph,
    new_graph: &IslGraph,
    src: SatIndex,
    removed_edges: &[(u32, u32, f64)],
    old: &[(f64, u32)],
    max_dirty: usize,
) -> Option<RepairOutcome> {
    let n = new_graph.len();
    debug_assert_eq!(old.len(), n);
    if !new_graph.is_alive(src) {
        // A dead source's fresh table is all-unreachable, including the
        // source slot itself (the kernel returns before seeding it).
        return Some(RepairOutcome {
            table: vec![(f64::INFINITY, u32::MAX); n],
            repaired: n,
        });
    }

    // Phase 1: flood the potentially-affected region over the *old* graph.
    let mut dirty = vec![false; n];
    let mut dirty_list: Vec<u32> = Vec::new();
    let push_dirty = |v: u32, dirty: &mut Vec<bool>, list: &mut Vec<u32>| {
        if !dirty[v as usize] && old[v as usize].0.is_finite() {
            dirty[v as usize] = true;
            list.push(v);
        }
    };
    for &(u, v, len) in removed_edges {
        if old[u as usize].0 + len == old[v as usize].0 {
            push_dirty(v, &mut dirty, &mut dirty_list);
        }
    }
    let (old_offsets, old_nbrs, old_lens) = old_graph.csr();
    let mut head = 0;
    while head < dirty_list.len() {
        if dirty_list.len() > max_dirty {
            return None;
        }
        let v = dirty_list[head] as usize;
        head += 1;
        let (lo, hi) = (old_offsets[v] as usize, old_offsets[v + 1] as usize);
        for (&w, &len) in old_nbrs[lo..hi].iter().zip(&old_lens[lo..hi]) {
            if old[v].0 + len == old[w as usize].0 {
                push_dirty(w, &mut dirty, &mut dirty_list);
            }
        }
    }
    if dirty_list.len() > max_dirty {
        return None;
    }
    if dirty_list.is_empty() {
        return Some(RepairOutcome {
            table: old.to_vec(),
            repaired: 0,
        });
    }

    // Phase 2: re-relax the dirty region over the *new* graph, seeded with
    // its clean boundary at their (final, hence fresh) distances.
    let mut out = old.to_vec();
    for &v in &dirty_list {
        out[v as usize] = (f64::INFINITY, u32::MAX);
    }
    let mut heap = MinHeap::new();
    let (offsets, nbrs, lens) = new_graph.csr();
    let mut seeded = vec![false; n];
    for &v in &dirty_list {
        let v = v as usize;
        let (lo, hi) = (offsets[v] as usize, offsets[v + 1] as usize);
        for &u in &nbrs[lo..hi] {
            let ui = u as usize;
            if !dirty[ui] && !seeded[ui] && out[ui].0.is_finite() {
                seeded[ui] = true;
                heap.push(HeapItem::new(out[ui].0, u));
            }
        }
    }
    if dirty[src.as_usize()] {
        // Defensive: the source's zero distance can never satisfy the
        // equality flood, but re-seed it exactly as the kernel would.
        out[src.as_usize()] = (0.0, 0);
        heap.push(HeapItem::new(0.0, src.0));
    }
    while let Some(item) = heap.pop() {
        let cost = item.cost();
        let sat = item.sat() as usize;
        if cost > out[sat].0 {
            continue;
        }
        let hops = out[sat].1;
        let (lo, hi) = (offsets[sat] as usize, offsets[sat + 1] as usize);
        for (&to, &len) in nbrs[lo..hi].iter().zip(&lens[lo..hi]) {
            let next = cost + len;
            let slot = &mut out[to as usize];
            if next < slot.0 {
                *slot = (next, hops + 1);
                heap.push(HeapItem::new(next, to));
            }
        }
    }
    Some(RepairOutcome {
        table: out,
        repaired: dirty_list.len(),
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
