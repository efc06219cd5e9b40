//! The +Grid ISL topology snapshot.
//!
//! Starlink v1.5+ satellites carry four laser terminals: two to the
//! neighbours fore and aft in the same plane, two to the nearest satellites
//! in the adjacent planes. The intra-plane links are geometrically constant;
//! the inter-plane links stretch and shrink with latitude (planes converge
//! towards the inclination limit). A snapshot freezes all link lengths at
//! one instant; experiments rebuild snapshots as simulated time advances.
//!
//! # Data layout
//!
//! Adjacency is stored in **CSR (compressed sparse row)** form as three
//! flat arrays — `offsets` (one entry per satellite plus a terminator),
//! `neighbours` and `lengths_km` (one entry per directed edge, structure
//! of arrays) — instead of a `Vec<Vec<Edge>>` of per-satellite heap
//! allocations. Routing kernels walk contiguous slices with no pointer
//! chasing; the [`IslEdge`] view survives as a cheap iterator
//! ([`Neighbors`]) so call sites keep their old shape.

use crate::cache::{routing_cache_enabled, RoutingBall, RoutingCache};
use crate::fault::FaultPlan;
use crate::routing::FallbackCut;
use crate::spatial::SpatialIndex;
use spacecdn_geo::propagation::{propagation_delay, Medium};
use spacecdn_geo::{Ecef, Geodetic, Km, Latency, SimTime};
use spacecdn_orbit::{Constellation, SatIndex};
use spacecdn_telemetry::{LazyCounter, LazyHistogram, Unit};
use std::sync::Arc;

/// Snapshot construction counters. Racy: the engine's snapshot pool
/// absorbs a scheduling-dependent share of would-be builds, and build
/// wall-clock is racy by nature.
static GRAPH_BUILDS: LazyCounter = LazyCounter::racy("lsn.graph.builds");
static GRAPH_BUILD_NS: LazyHistogram = LazyHistogram::racy("lsn.graph.build_ns", Unit::Nanos);
/// Delta-advancement counters, same racy classification (the snapshot pool
/// decides scheduling-dependently whether a patch happens at all).
static GRAPH_PATCHES: LazyCounter = LazyCounter::racy("lsn.graph.patches");
static GRAPH_PATCH_NS: LazyHistogram = LazyHistogram::racy("lsn.graph.patch_ns", Unit::Nanos);

/// One directed adjacency entry: a neighbour and the link length.
///
/// Materialised on the fly from the CSR arrays by [`Neighbors`]; not the
/// storage format.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IslEdge {
    /// The neighbouring satellite.
    pub to: SatIndex,
    /// Laser link length at the snapshot instant.
    pub length: Km,
}

/// Iterator over a satellite's outgoing ISLs, yielding [`IslEdge`]s
/// materialised from the CSR row.
///
/// Cheap to copy; offers `len`/`is_empty`/`iter` so code written against
/// the old `&[IslEdge]` slice API keeps compiling.
#[derive(Debug, Clone, Copy)]
pub struct Neighbors<'g> {
    to: &'g [u32],
    lengths: &'g [f64],
}

impl<'g> Neighbors<'g> {
    /// Number of (remaining) neighbours.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.to.len()
    }

    /// True when the satellite has no (remaining) ISLs.
    pub fn is_empty(&self) -> bool {
        self.to.is_empty()
    }

    /// Slice-API compatibility: a fresh iterator over the same row.
    pub fn iter(&self) -> Neighbors<'g> {
        *self
    }

    /// The `i`-th edge of the row, if present.
    pub fn get(&self, i: usize) -> Option<IslEdge> {
        Some(IslEdge {
            to: SatIndex(*self.to.get(i)?),
            length: Km(self.lengths[i]),
        })
    }
}

impl Iterator for Neighbors<'_> {
    type Item = IslEdge;

    fn next(&mut self) -> Option<IslEdge> {
        let (&to, rest) = self.to.split_first()?;
        let (&km, lrest) = self.lengths.split_first()?;
        self.to = rest;
        self.lengths = lrest;
        Some(IslEdge {
            to: SatIndex(to),
            length: Km(km),
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.to.len(), Some(self.to.len()))
    }
}

impl ExactSizeIterator for Neighbors<'_> {}

/// A frozen ISL connectivity graph at one instant.
///
/// Carries two epoch-scoped acceleration structures that share its
/// lifetime: a [`RoutingCache`] memoizing per-source routing balls
/// (shared across clones — the cache is a pure function of the frozen
/// topology, so clones may as well pool their work) and a
/// [`SpatialIndex`] over alive satellites for nearest-satellite queries.
#[derive(Debug, Clone)]
pub struct IslGraph {
    time: SimTime,
    positions: Vec<Ecef>,
    /// CSR row starts: edges of satellite `s` live at
    /// `offsets[s]..offsets[s+1]` in `neighbours`/`lengths_km`. The two
    /// structural arrays are `Arc`-shared: [`Self::apply_delta`] steps
    /// whose fault delta leaves the adjacency unchanged reuse them
    /// zero-copy (only `lengths_km` is re-derived per instant).
    offsets: Arc<Vec<u32>>,
    /// Flat neighbour indices, grouped by source satellite.
    neighbours: Arc<Vec<u32>>,
    /// Link lengths in km, parallel to `neighbours`.
    lengths_km: Vec<f64>,
    alive: Vec<bool>,
    /// Alive *and* ground link intact: the mask for serving user
    /// terminals and gateways. A GSL-failed satellite stays in `alive`
    /// (it relays ISLs) but leaves `servable`.
    servable: Vec<bool>,
    /// The plan this snapshot was lowered from; [`Self::apply_delta`]
    /// diffs the next epoch's plan against it.
    faults: FaultPlan,
    /// The phase-determined inter-plane slot offsets probed at build time
    /// (interior pairs, seam pair). Stored so a delta step can detect the
    /// rare near-tie flip that would change adjacency globally.
    interior_offset: i64,
    seam_offset: i64,
    cache: Arc<RoutingCache>,
    spatial: SpatialIndex,
}

/// What [`IslGraph::apply_delta`] did, for telemetry and the benches'
/// delta-vs-full accounting.
#[derive(Debug, Clone, Copy, Default)]
pub struct PatchStats {
    /// Directed edges in rewritten CSR rows (old edges dropped plus new
    /// edges emitted). Zero on structure-preserving steps.
    pub patched_edges: u64,
    /// CSR rows copied verbatim from the previous snapshot.
    pub carried_rows: u64,
    /// Did the step change adjacency structure at all?
    pub structural: bool,
    /// Did the spatial index hit its drift threshold and rebuild?
    pub spatial_rebuilt: bool,
}

/// Derive the alive/servable masks of a fresh snapshot.
fn fault_masks(constellation: &Constellation, faults: &FaultPlan) -> (Vec<bool>, Vec<bool>) {
    let n = constellation.len();
    let mut alive = vec![true; n];
    let mut servable = vec![true; n];
    for sat in constellation.sat_indices() {
        if faults.sat_failed(sat) {
            alive[sat.as_usize()] = false;
        }
        if faults.gsl_failed(sat) {
            servable[sat.as_usize()] = false;
        }
    }
    (alive, servable)
}

/// Phase-determined slot offsets of the nearest satellite one plane over:
/// `(interior, seam)`. See [`IslGraph::build`]. Shared by the full build
/// and the delta path so both lower the identical adjacency; the delta
/// path re-probes every step because a near-tie between two candidate
/// slots could flip the argmin as geometry evolves.
fn probe_offsets(constellation: &Constellation, positions: &[Ecef]) -> (i64, i64) {
    let plane_count = constellation.config().plane_count as i64;
    let sats_per_plane = constellation.config().sats_per_plane as i64;
    let nearest_slot_offset = |from_plane: i64| -> i64 {
        let probe = positions[constellation.sat_at(from_plane, 0).as_usize()];
        let mut best = (f64::INFINITY, 0i64);
        for s in 0..sats_per_plane {
            let d = probe
                .distance(positions[constellation.sat_at(from_plane + 1, s).as_usize()])
                .0;
            if d < best.0 {
                best = (d, s);
            }
        }
        best.1
    };
    let interior_offset = nearest_slot_offset(0);
    // With F = 0 every plane is identically phased, so the seam pair
    // (P-1, 0) is geometrically the same as any interior pair — no
    // second probe needed.
    let seam_offset = if plane_count > 1 && constellation.config().phase_factor != 0 {
        nearest_slot_offset(plane_count - 1)
    } else {
        interior_offset
    };
    (interior_offset, seam_offset)
}

/// The ≤4 +Grid candidate neighbours of `sat` in fixed aft/fore/left/right
/// order, given the probed inter-plane offsets. Factored out of the build
/// loop so [`IslGraph::apply_delta`] regenerates dirty rows with literally
/// the same code path.
fn grid_candidates(
    constellation: &Constellation,
    sat: SatIndex,
    interior_offset: i64,
    seam_offset: i64,
) -> [SatIndex; 4] {
    let plane_count = constellation.config().plane_count as i64;
    // Offset used when crossing from plane p to plane p+1.
    let offset_from = |p: i64| -> i64 {
        if p.rem_euclid(plane_count) == plane_count - 1 {
            seam_offset
        } else {
            interior_offset
        }
    };
    let plane = constellation.plane_of(sat) as i64;
    let slot = constellation.slot_of(sat) as i64;
    [
        constellation.sat_at(plane, slot - 1), // aft
        constellation.sat_at(plane, slot + 1), // fore
        constellation.sat_at(plane - 1, slot - offset_from(plane - 1)), // left
        constellation.sat_at(plane + 1, slot + offset_from(plane)), // right
    ]
}

impl IslGraph {
    /// Build the +Grid snapshot of `constellation` at `t`, excluding
    /// anything failed in `faults`.
    ///
    /// Inter-plane links attach to the *geometrically nearest* satellite in
    /// the adjacent plane. With Walker phasing the nearest slot is shifted
    /// by a constant offset (identical for every satellite and every
    /// instant, because the whole pattern co-rotates rigidly), so the offset
    /// is computed once per build and the resulting adjacency is symmetric.
    ///
    /// The CSR arrays are built in one pass over the satellites: each
    /// satellite's candidate neighbours are evaluated exactly once into a
    /// fixed-size stash, then flattened into exactly-sized flat arrays.
    pub fn build(constellation: &Constellation, t: SimTime, faults: &FaultPlan) -> Self {
        GRAPH_BUILDS.incr();
        let _span = GRAPH_BUILD_NS.timer();
        let n = constellation.len();
        let positions = constellation.snapshot_ecef(t);
        let (alive, servable) = fault_masks(constellation, faults);

        // Phase-determined slot offset of the nearest satellite one plane
        // over (see doc comment). The offset is uniform for all interior
        // plane pairs, but the wrap-around pair (P-1 → 0) can differ: Walker
        // phasing accumulates F·360/S degrees over a full revolution of
        // planes, which lands on a (possibly non-zero) whole-slot shift at
        // the seam.
        let (interior_offset, seam_offset) = probe_offsets(constellation, &positions);

        // One pass: evaluate each satellite's ≤4 candidate links exactly
        // once into a fixed-size stash, tracking the exact edge total.
        let mut stash: Vec<([u32; 4], [f64; 4], u8)> = vec![([0; 4], [0.0; 4], 0); n];
        let mut edge_total = 0usize;
        for sat in constellation.sat_indices() {
            if !alive[sat.as_usize()] {
                continue;
            }
            let candidates = grid_candidates(constellation, sat, interior_offset, seam_offset);
            let row = &mut stash[sat.as_usize()];
            for nb in candidates {
                if nb == sat || !alive[nb.as_usize()] || faults.link_failed(sat, nb) {
                    continue;
                }
                let length = positions[sat.as_usize()].distance(positions[nb.as_usize()]);
                let k = row.2 as usize;
                row.0[k] = nb.0;
                row.1[k] = length.0;
                row.2 += 1;
                edge_total += 1;
            }
        }

        // Flatten into exactly-sized CSR arrays.
        let mut offsets = Vec::with_capacity(n + 1);
        let mut neighbours = Vec::with_capacity(edge_total);
        let mut lengths_km = Vec::with_capacity(edge_total);
        offsets.push(0u32);
        for (tos, kms, deg) in &stash {
            let deg = *deg as usize;
            neighbours.extend_from_slice(&tos[..deg]);
            lengths_km.extend_from_slice(&kms[..deg]);
            offsets.push(neighbours.len() as u32);
        }

        let spatial = SpatialIndex::build(&positions, &servable);
        IslGraph {
            time: t,
            positions,
            offsets: Arc::new(offsets),
            neighbours: Arc::new(neighbours),
            lengths_km,
            alive,
            servable,
            faults: faults.clone(),
            interior_offset,
            seam_offset,
            cache: Arc::new(RoutingCache::new()),
            spatial,
        }
    }

    /// Advance this snapshot to `(t, faults)` by patching instead of
    /// rebuilding: the delta between the two fault plans determines which
    /// CSR rows are rewritten (everything else is carried — zero-copy via
    /// the shared `Arc`s when the structure is untouched), positions are
    /// refreshed with the hoisted-but-bit-identical
    /// [`Constellation::snapshot_ecef_into`], the spatial index is advanced
    /// with conservatively inflated bounds, and the new snapshot starts
    /// with an empty routing cache, as a fresh build does.
    ///
    /// `constellation` must be the one this snapshot was built from. The
    /// result is **bit-identical** to `IslGraph::build(constellation, t,
    /// faults)` in every observable: positions, CSR adjacency order, length
    /// mantissas, masks, routing balls and nearest-satellite answers —
    /// the timeline oracle and the `properties.rs` proptests enforce this.
    /// Only throughput telemetry and spatial pruning counters may differ.
    pub fn apply_delta(
        &self,
        constellation: &Constellation,
        t: SimTime,
        faults: &FaultPlan,
    ) -> (IslGraph, PatchStats) {
        let n = constellation.len();
        assert_eq!(n, self.len(), "apply_delta across different constellations");
        GRAPH_PATCHES.incr();
        let _span = GRAPH_PATCH_NS.timer();
        let mut stats = PatchStats::default();
        let delta = self.faults.diff(faults);
        let same_time = t == self.time;

        // Positions: carried bit-for-bit on a same-instant step, otherwise
        // refreshed by the hoisted kernel (bit-identical to a fresh
        // `snapshot_ecef` — pinned in the orbit crate's tests).
        let mut positions = Vec::new();
        if same_time {
            positions.clone_from(&self.positions);
        } else {
            constellation.snapshot_ecef_into(t, &mut positions);
        }
        let step_drift_km = if same_time {
            0.0
        } else {
            constellation.max_drift_km(t.as_secs_f64() - self.time.as_secs_f64())
        };

        // Masks: recompute exactly the entries the delta can have touched;
        // everything else is unchanged by the definition of the set diff.
        let mut alive = self.alive.clone();
        let mut servable = self.servable.clone();
        let mut touched: Vec<u32> = delta
            .failed_sats
            .iter()
            .chain(&delta.healed_sats)
            .chain(&delta.failed_gsls)
            .chain(&delta.healed_gsls)
            .map(|s| s.0)
            .collect();
        touched.sort_unstable();
        touched.dedup();
        let mut removed_servable: Vec<u32> = Vec::new();
        let mut added_servable: Vec<u32> = Vec::new();
        for &s in &touched {
            let sat = SatIndex(s);
            alive[s as usize] = !faults.sat_failed(sat);
            let was = self.servable[s as usize];
            let now = !faults.gsl_failed(sat);
            servable[s as usize] = now;
            if was && !now {
                removed_servable.push(s);
            } else if !was && now {
                added_servable.push(s);
            }
        }

        // Re-probe the inter-plane offsets at the new instant: the argmin
        // over slot distances could in principle flip on a near-tie
        // phasing, which would change adjacency globally — treat that as
        // an all-rows-dirty patch.
        let (interior_offset, seam_offset) = probe_offsets(constellation, &positions);
        let offsets_flipped =
            interior_offset != self.interior_offset || seam_offset != self.seam_offset;

        let structural = delta.is_structural() || offsets_flipped;
        stats.structural = structural;
        let (offsets, neighbours, lengths_km) = if !structural {
            // Structure untouched: share the flat arrays, re-derive only
            // the lengths (every inter-plane length moves with latitude).
            let lengths_km = if same_time {
                self.lengths_km.clone()
            } else {
                let mut lengths = Vec::with_capacity(self.lengths_km.len());
                for (sat, w) in self.offsets.windows(2).enumerate() {
                    let (lo, hi) = (w[0] as usize, w[1] as usize);
                    for &nb in &self.neighbours[lo..hi] {
                        lengths.push(positions[sat].distance(positions[nb as usize]).0);
                    }
                }
                lengths
            };
            stats.carried_rows = n as u64;
            (
                Arc::clone(&self.offsets),
                Arc::clone(&self.neighbours),
                lengths_km,
            )
        } else {
            // Dirty rows: every satellite whose candidate set can have
            // changed — the changed satellites themselves, their grid
            // candidates (the relation is symmetric, so these are exactly
            // the rows referencing them), and endpoints of explicit link
            // changes. An offset flip dirties everything.
            let mut dirty = vec![offsets_flipped; n];
            if !offsets_flipped {
                for &s in delta.failed_sats.iter().chain(&delta.healed_sats) {
                    dirty[s.as_usize()] = true;
                    for nb in grid_candidates(constellation, s, interior_offset, seam_offset) {
                        dirty[nb.as_usize()] = true;
                    }
                }
                for &(a, b) in delta.failed_links.iter().chain(&delta.healed_links) {
                    dirty[a.as_usize()] = true;
                    dirty[b.as_usize()] = true;
                }
            }

            let mut offsets_new = Vec::with_capacity(n + 1);
            let mut neighbours_new = Vec::with_capacity(self.neighbours.len() + 16);
            let mut lengths_new = Vec::with_capacity(self.lengths_km.len() + 16);
            offsets_new.push(0u32);
            for s in 0..n as u32 {
                let sat = SatIndex(s);
                if dirty[s as usize] {
                    let (old_row, _) = self.neighbor_row(s);
                    stats.patched_edges += old_row.len() as u64;
                    if alive[s as usize] {
                        for nb in grid_candidates(constellation, sat, interior_offset, seam_offset)
                        {
                            if nb == sat || !alive[nb.as_usize()] || faults.link_failed(sat, nb) {
                                continue;
                            }
                            neighbours_new.push(nb.0);
                            lengths_new.push(
                                positions[sat.as_usize()]
                                    .distance(positions[nb.as_usize()])
                                    .0,
                            );
                            stats.patched_edges += 1;
                        }
                    }
                } else {
                    stats.carried_rows += 1;
                    let (row, old_lens) = self.neighbor_row(s);
                    neighbours_new.extend_from_slice(row);
                    if same_time {
                        lengths_new.extend_from_slice(old_lens);
                    } else {
                        for &nb in row {
                            lengths_new
                                .push(positions[s as usize].distance(positions[nb as usize]).0);
                        }
                    }
                }
                offsets_new.push(neighbours_new.len() as u32);
            }
            (Arc::new(offsets_new), Arc::new(neighbours_new), lengths_new)
        };

        // Spatial index: advance with inflated-but-valid bounds, or rebuild
        // once the accumulated drift hits the threshold.
        let spatial =
            if removed_servable.is_empty() && added_servable.is_empty() && step_drift_km == 0.0 {
                self.spatial.clone()
            } else {
                match self.spatial.advanced(
                    &positions,
                    &removed_servable,
                    &added_servable,
                    step_drift_km,
                ) {
                    Some(s) => s,
                    None => {
                        stats.spatial_rebuilt = true;
                        SpatialIndex::build(&positions, &servable)
                    }
                }
            };

        let graph = IslGraph {
            time: t,
            positions,
            offsets,
            neighbours,
            lengths_km,
            alive,
            servable,
            faults: faults.clone(),
            interior_offset,
            seam_offset,
            cache: Arc::new(RoutingCache::new()),
            spatial,
        };
        (graph, stats)
    }

    /// Instant this snapshot was taken.
    pub fn time(&self) -> SimTime {
        self.time
    }

    /// Number of satellites (including failed ones, which have no edges).
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// True when the graph has no satellites.
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// Is the satellite operational in this snapshot? (Its ISLs relay;
    /// its ground link may still be down — see [`Self::gsl_alive`].)
    pub fn is_alive(&self, sat: SatIndex) -> bool {
        self.alive[sat.as_usize()]
    }

    /// Can the satellite serve ground radios (alive *and* GSL intact)?
    /// This is the mask [`Self::nearest_alive`] selects overhead and
    /// gateway satellites from; ISL relaying and cache *sourcing* only
    /// need [`Self::is_alive`].
    pub fn gsl_alive(&self, sat: SatIndex) -> bool {
        self.servable[sat.as_usize()]
    }

    /// Outgoing ISLs of a satellite (empty for failed satellites).
    pub fn neighbors(&self, sat: SatIndex) -> Neighbors<'_> {
        let (to, lengths) = self.neighbor_row(sat.0);
        Neighbors { to, lengths }
    }

    /// CSR row of a satellite: neighbour indices and link lengths (km) as
    /// parallel slices. The zero-cost view routing kernels iterate over.
    #[inline]
    pub fn neighbor_row(&self, sat: u32) -> (&[u32], &[f64]) {
        let lo = self.offsets[sat as usize] as usize;
        let hi = self.offsets[sat as usize + 1] as usize;
        (&self.neighbours[lo..hi], &self.lengths_km[lo..hi])
    }

    /// The raw CSR arrays `(offsets, neighbours, lengths_km)` for kernels
    /// that index rows directly.
    #[inline]
    pub fn csr(&self) -> (&[u32], &[u32], &[f64]) {
        (&self.offsets, &self.neighbours, &self.lengths_km)
    }

    /// Earth-fixed position of a satellite at the snapshot instant.
    pub fn position(&self, sat: SatIndex) -> Ecef {
        self.positions[sat.as_usize()]
    }

    /// One-way propagation delay across a single ISL.
    pub fn edge_delay(&self, edge: &IslEdge) -> Latency {
        propagation_delay(edge.length, Medium::Vacuum)
    }

    /// The *servable* satellite (alive with an intact ground link)
    /// nearest in slant range to a ground point. `None` if no satellite
    /// can serve ground at all.
    ///
    /// Answered from the snapshot's [`SpatialIndex`]; the result (winner
    /// and tie-break) is identical to [`Self::nearest_alive_linear`].
    pub fn nearest_alive(&self, ground: Geodetic) -> Option<(SatIndex, Km)> {
        if routing_cache_enabled() {
            self.spatial.nearest(&self.positions, ground.to_ecef())
        } else {
            self.nearest_alive_linear(ground)
        }
    }

    /// Reference implementation of [`Self::nearest_alive`]: a full scan
    /// over every satellite. Kept for equivalence tests, benchmarks, and
    /// the `SPACECDN_NO_ROUTING_CACHE` baseline mode.
    pub fn nearest_alive_linear(&self, ground: Geodetic) -> Option<(SatIndex, Km)> {
        let g = ground.to_ecef();
        let mut best: Option<(SatIndex, Km)> = None;
        for (i, pos) in self.positions.iter().enumerate() {
            if !self.servable[i] {
                continue;
            }
            let d = pos.distance(g);
            if best.is_none_or(|(_, bd)| d.0 < bd.0) {
                best = Some((SatIndex(i as u32), d));
            }
        }
        best
    }

    /// Routing tables from `src` exact out to `radius` BFS hops (see
    /// [`RoutingBall`]): what a caller that only looks within a hop budget
    /// needs, for a fraction of a full-table pair's cost on a large shell.
    /// Memoized per source: the cached ball answers any radius up to its
    /// own (any radius at all once it holds the source's whole component),
    /// and a wider query replaces it. With the cache disabled (see
    /// [`crate::cache::set_routing_cache_override`]) the ball is recomputed
    /// per call, which is the pre-cache baseline behaviour.
    pub fn routing_tables_within(&self, src: SatIndex, radius: u32) -> RoutingBall {
        self.routing_ball(src, radius, None)
    }

    /// [`Self::routing_tables_within`], with the walk also stopped once
    /// `cut` shows no unsettled satellite can beat the ground fallback:
    /// exact for every member settled before that, unreachable beyond
    /// (see [`crate::routing::ball_members`]). For a caller that serves
    /// from space only what beats the fallback, the dropped satellites
    /// could never have served. Memoized under the same reuse rule; a cut
    /// ball never answers an uncut query (see [`RoutingCache::ball_for`]).
    pub fn routing_tables_cut(&self, src: SatIndex, radius: u32, cut: FallbackCut) -> RoutingBall {
        self.routing_ball(src, radius, Some(cut))
    }

    fn routing_ball(&self, src: SatIndex, radius: u32, cut: Option<FallbackCut>) -> RoutingBall {
        if routing_cache_enabled() {
            self.cache.ball_for(self, src, radius, cut)
        } else {
            RoutingBall::compute(self, src, radius, cut)
        }
    }

    /// Total number of directed edges (diagnostic).
    pub fn edge_count(&self) -> usize {
        self.neighbours.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::SourceTables;
    use spacecdn_orbit::shell::shells;

    fn graph() -> IslGraph {
        let c = Constellation::new(shells::starlink_shell1());
        IslGraph::build(&c, SimTime::EPOCH, &FaultPlan::none())
    }

    #[test]
    fn every_satellite_has_four_links() {
        let g = graph();
        for i in 0..g.len() {
            assert_eq!(
                g.neighbors(SatIndex(i as u32)).len(),
                4,
                "sat {i} degree wrong"
            );
        }
        assert_eq!(g.edge_count(), 4 * 1584);
    }

    #[test]
    fn csr_rows_match_iterator_view() {
        let g = graph();
        let (offsets, neighbours, lengths) = g.csr();
        assert_eq!(offsets.len(), g.len() + 1);
        assert_eq!(neighbours.len(), lengths.len());
        for i in 0..g.len() {
            let (to, km) = g.neighbor_row(i as u32);
            let edges: Vec<IslEdge> = g.neighbors(SatIndex(i as u32)).collect();
            assert_eq!(edges.len(), to.len());
            for (k, e) in edges.iter().enumerate() {
                assert_eq!(e.to.0, to[k]);
                assert_eq!(e.length.0, km[k]);
                assert_eq!(g.neighbors(SatIndex(i as u32)).get(k).unwrap(), *e);
            }
        }
    }

    #[test]
    fn adjacency_is_symmetric() {
        let g = graph();
        for i in 0..g.len() {
            let sat = SatIndex(i as u32);
            for e in g.neighbors(sat) {
                assert!(
                    g.neighbors(e.to).iter().any(|back| back.to == sat),
                    "edge {i}->{} has no reverse",
                    e.to.0
                );
            }
        }
    }

    #[test]
    fn intra_plane_links_are_constant_length() {
        let c = Constellation::new(shells::starlink_shell1());
        let g0 = IslGraph::build(&c, SimTime::EPOCH, &FaultPlan::none());
        let g1 = IslGraph::build(&c, SimTime::from_secs(1200), &FaultPlan::none());
        // Fore neighbour of sat 0 is in the same plane: its link length is
        // time-invariant.
        let fore = c.sat_at(0, 1);
        let len = |g: &IslGraph| {
            g.neighbors(SatIndex(0))
                .iter()
                .find(|e| e.to == fore)
                .expect("fore link present")
                .length
                .0
        };
        assert!((len(&g0) - len(&g1)).abs() < 1e-6);
        assert!((1900.0..2000.0).contains(&len(&g0)), "got {}", len(&g0));
    }

    #[test]
    fn inter_plane_links_shorter_than_intra() {
        // For Shell 1 (72 planes vs 22 slots) adjacent planes are much
        // closer together than adjacent slots: every satellite's two
        // shortest links are its inter-plane ones.
        let c = Constellation::new(shells::starlink_shell1());
        let g = IslGraph::build(&c, SimTime::EPOCH, &FaultPlan::none());
        let sat = SatIndex(0);
        let fore = c.sat_at(0, 1);
        let intra_len = g
            .neighbors(sat)
            .iter()
            .find(|e| e.to == fore)
            .expect("fore link present")
            .length
            .0;
        let inter: Vec<f64> = g
            .neighbors(sat)
            .iter()
            .filter(|e| c.plane_of(e.to) != 0)
            .map(|e| e.length.0)
            .collect();
        assert_eq!(inter.len(), 2);
        for len in inter {
            assert!(len < intra_len, "{len} !< {intra_len}");
            assert!((300.0..1500.0).contains(&len), "inter-plane link {len} km");
        }
    }

    #[test]
    fn edge_delays_physical() {
        let g = graph();
        for e in g.neighbors(SatIndex(100)) {
            let d = g.edge_delay(&e).ms();
            // 400..2000 km at c: 1.3..6.7 ms one-way.
            assert!((0.5..8.0).contains(&d), "delay {d} ms");
        }
    }

    #[test]
    fn failed_sat_has_no_edges_and_neighbors_drop_it() {
        let c = Constellation::new(shells::starlink_shell1());
        let mut faults = FaultPlan::none();
        faults.fail_sat(SatIndex(50));
        let g = IslGraph::build(&c, SimTime::EPOCH, &faults);
        assert!(!g.is_alive(SatIndex(50)));
        assert!(g.neighbors(SatIndex(50)).is_empty());
        for i in 0..g.len() {
            assert!(
                g.neighbors(SatIndex(i as u32))
                    .iter()
                    .all(|e| e.to != SatIndex(50)),
                "someone still links to the dead satellite"
            );
        }
        assert_eq!(g.edge_count(), 4 * 1584 - 8);
    }

    #[test]
    fn failed_link_removed_both_ways() {
        let c = Constellation::new(shells::starlink_shell1());
        let a = SatIndex(0);
        let b = c.sat_at(0, 1);
        let mut faults = FaultPlan::none();
        faults.fail_link(a, b);
        let g = IslGraph::build(&c, SimTime::EPOCH, &faults);
        assert!(g.neighbors(a).iter().all(|e| e.to != b));
        assert!(g.neighbors(b).iter().all(|e| e.to != a));
        assert_eq!(g.neighbors(a).len(), 3);
    }

    #[test]
    fn nearest_alive_skips_failures() {
        let c = Constellation::new(shells::starlink_shell1());
        let city = Geodetic::ground(48.1, 11.6);
        let g = IslGraph::build(&c, SimTime::EPOCH, &FaultPlan::none());
        let (best, d) = g.nearest_alive(city).unwrap();
        assert!(d.0 < 1200.0);

        let mut faults = FaultPlan::none();
        faults.fail_sat(best);
        let g2 = IslGraph::build(&c, SimTime::EPOCH, &faults);
        let (second, d2) = g2.nearest_alive(city).unwrap();
        assert_ne!(second, best);
        assert!(d2.0 >= d.0);
    }

    #[test]
    fn gsl_failed_sat_relays_but_cannot_serve() {
        let c = Constellation::new(shells::starlink_shell1());
        let city = Geodetic::ground(48.1, 11.6);
        let g0 = IslGraph::build(&c, SimTime::EPOCH, &FaultPlan::none());
        let (overhead, _) = g0.nearest_alive(city).unwrap();

        let mut faults = FaultPlan::none();
        faults.fail_gsl(overhead);
        let g = IslGraph::build(&c, SimTime::EPOCH, &faults);
        // ISLs untouched: still alive, still four laser links, edges intact.
        assert!(g.is_alive(overhead));
        assert!(!g.gsl_alive(overhead));
        assert_eq!(g.neighbors(overhead).len(), 4);
        assert_eq!(g.edge_count(), g0.edge_count());
        // But it no longer serves ground: nearest moves on, both via the
        // spatial index and the linear reference scan.
        let (second, _) = g.nearest_alive(city).unwrap();
        assert_ne!(second, overhead);
        assert_eq!(g.nearest_alive(city), g.nearest_alive_linear(city));
    }

    #[test]
    fn time_only_step_shares_csr_structure() {
        let c = Constellation::new(shells::starlink_shell1());
        let plan = FaultPlan::none();
        let g0 = IslGraph::build(&c, SimTime::EPOCH, &plan);
        let (g1, stats) = g0.apply_delta(&c, SimTime::from_secs(5), &plan);
        assert!(!stats.structural);
        assert_eq!(stats.patched_edges, 0);
        // The adjacency arrays are the same allocation, not a copy.
        let (o0, n0, _) = g0.csr();
        let (o1, n1, l1) = g1.csr();
        assert!(std::ptr::eq(o0.as_ptr(), o1.as_ptr()));
        assert!(std::ptr::eq(n0.as_ptr(), n1.as_ptr()));
        // Lengths were re-derived for the new instant, bit-identical to a
        // fresh build.
        let fresh = IslGraph::build(&c, SimTime::from_secs(5), &plan);
        let (_, _, lf) = fresh.csr();
        for (a, b) in l1.iter().zip(lf) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// Assert `graph`'s cached whole-shell ball from `src` reads exactly
    /// `want`'s full tables.
    fn assert_ball_reads(graph: &IslGraph, src: SatIndex, want: &SourceTables) {
        let ball = graph.routing_tables_within(src, u32::MAX);
        for i in 0..graph.len() {
            let sat = SatIndex(i as u32);
            assert_eq!(ball.hops(sat), want.hops[i], "hops at {i}");
            let (km, route) = ball.km(sat);
            assert_eq!(km.to_bits(), want.km[i].0.to_bits(), "km bits at {i}");
            assert_eq!(route, want.km[i].1, "route hops at {i}");
        }
    }

    #[test]
    fn delta_steps_start_an_empty_cache() {
        let c = Constellation::new(shells::starlink_shell1());
        let g0 = IslGraph::build(&c, SimTime::EPOCH, &FaultPlan::none());
        let sources = [SatIndex(0), SatIndex(700)];
        let warmed: Vec<RoutingBall> = sources
            .iter()
            .map(|&src| g0.routing_tables_within(src, 10))
            .collect();
        // A GSL kill at the same instant touches no ISL edge, and a time
        // step only moves lengths; neither successor reads the previous
        // snapshot's balls.
        let mut faults = FaultPlan::none();
        faults.fail_gsl(SatIndex(50));
        for t in [SimTime::EPOCH, SimTime::from_secs(5)] {
            let (g1, stats) = g0.apply_delta(&c, t, &faults);
            assert!(!stats.structural);
            assert!(!g1.gsl_alive(SatIndex(50)));
            for (&src, old) in sources.iter().zip(&warmed) {
                let ball = g1.routing_tables_within(src, 10);
                assert!(!RoutingBall::ptr_eq(&ball, old));
                assert_ball_reads(&g1, src, &SourceTables::compute(&g1, src));
            }
        }
    }

    #[test]
    fn pure_removal_step_matches_fresh_build() {
        let c = Constellation::new(shells::starlink_shell1());
        let g0 = IslGraph::build(&c, SimTime::EPOCH, &FaultPlan::none());
        let sources = [SatIndex(3), SatIndex(911)];
        for &src in &sources {
            g0.routing_tables_within(src, u32::MAX);
        }
        let mut faults = FaultPlan::none();
        faults.fail_sat(SatIndex(400));
        let (g1, stats) = g0.apply_delta(&c, SimTime::EPOCH, &faults);
        assert!(stats.structural);
        assert!(stats.patched_edges > 0);
        let fresh = IslGraph::build(&c, SimTime::EPOCH, &faults);
        for src in sources {
            assert_ball_reads(&g1, src, &SourceTables::compute(&fresh, src));
        }
    }

    #[test]
    fn all_failed_yields_none() {
        let c = Constellation::new(shells::test_shell());
        let mut faults = FaultPlan::none();
        for s in c.sat_indices() {
            faults.fail_sat(s);
        }
        let g = IslGraph::build(&c, SimTime::EPOCH, &faults);
        assert!(g.nearest_alive(Geodetic::ground(0.0, 0.0)).is_none());
    }
}
