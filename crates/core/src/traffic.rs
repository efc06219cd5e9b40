//! The constellation-scale streaming traffic engine: request-driven
//! simulation of Zipf-distributed content demand against warm
//! per-satellite caches across every shell.
//!
//! Everything else in this crate resolves *one* fetch against a fixed
//! copy set. This module runs the workload the ROADMAP's million-user
//! north star needs — tens of millions of requests over the full
//! multi-shell constellation — in bounded memory and at ≥1M requests per
//! second. Three structural choices make that possible:
//!
//! - **Streaming arrivals.** A Poisson arrival process knows its next
//!   event analytically, so [`ArrivalStream`] generates each shard's
//!   arrivals lazily on the [`spacecdn_des::stream`] core (merged with
//!   the fixed epoch ticks) instead of materializing millions of queue
//!   entries. Per-shard memory is O(1) in the request count; the only
//!   per-request retention is the latency reservoir in the report.
//! - **Flat SoA cache state.** Per-satellite caches are one
//!   [`PolicyFleet`] (LRU+TTL, SIEVE, S3-FIFO or W-TinyLFU, selected by
//!   [`TrafficConfig::policy`]): parallel arrays indexed by a global
//!   satellite slot with intrusive policy links, not a map of small
//!   per-satellite caches (each policy proven decision-identical to a
//!   naive reference by the differential oracle in `spacecdn-content`).
//!   Holder lists — which satellites cache each object — are maintained
//!   *eagerly*: LRU evictions report their victims, TTL lapses are
//!   applied by a timer queue with lazy deletion, and epoch invalidations
//!   drain the wiped slots. The
//!   per-request candidate scan is therefore pure arithmetic over live
//!   holders, with no per-candidate freshness probing.
//! - **Batched retrieval per (epoch, source).** All requests a source
//!   issues within one topology epoch share the same overhead satellite,
//!   user-link geometry and routing tables per shell, on every shard. A
//!   burst resolves each pair's `BatchGeo` once before the shards start
//!   ([`resolve_overheads`] warms the tables, one task per distinct
//!   overhead satellite); shards only read it. The tables are
//!   [`RoutingBall`]s out to the ladder's top rung — a holder beyond it
//!   never wins a rung — whose walks also stop once no unsettled
//!   satellite can beat the source's ground fallback (one that cannot
//!   beat it never serves), memoized in each graph's routing cache under
//!   its reuse rule (see [`spacecdn_lsn::cache`]). A shard keeps just a
//!   `BatchCtx` per source it serves — the memo generation minted on
//!   first touch and a request count — and thousands of requests reuse it
//!   (`core.traffic.batch.*` telemetry tracks the amortization).
//!
//! # Determinism contract
//!
//! The catalog is partitioned into `streams` disjoint shards by content
//! id. Each shard runs as an independent task on
//! [`spacecdn_engine::par_map`] with two private `DetRng` streams —
//! `traffic/arrivals/{s}` feeding the arrival stream (inter-arrival gap,
//! source roll, object rank, in that pinned order per arrival) and
//! `traffic/service/{s}` for the one scheduling-jitter draw each
//! non-dead-zone request makes — its own event stream, and its own cache
//! fleet; shards only share the **read-only** per-epoch topology
//! snapshots and the burst's (epoch, source) geometry. Shard samplers
//! are built with [`ZipfSampler::over_ranks`], so the union of all
//! shards reproduces the global Zipf demand exactly while no mutable
//! state crosses a thread boundary. Reports merge in shard order. The
//! result: byte-identical output at any thread count, for the full
//! constellation, proven by `tests/determinism.rs`.

use crate::duty_cycle::DutyCycler;
use crate::placement::{PlacementPlan, PlacementSpec};
use crate::retrieval::{neighbor_probe_cost, space_segment_cost};
use crate::scenario::Scenario;
use spacecdn_content::catalog::{Catalog, ContentId};
use spacecdn_content::hierarchy::{CacheHierarchy, ServedBy, TierLatencies};
use spacecdn_content::policy::PolicyFleet;
pub use spacecdn_content::policy::PolicyKind;
use spacecdn_content::popularity::ZipfSampler;
use spacecdn_des::stream::{drive, EventStream, FixedTicks, Merged, MergedEvent};
use spacecdn_des::Percentiles;
use spacecdn_engine::{par_map, par_map_indices};
use spacecdn_geo::propagation::{propagation_delay, Medium};
use spacecdn_geo::{DetRng, Geodetic, Km, Latency, SimDuration, SimTime};
use spacecdn_lsn::{AccessModel, FallbackCut, IslGraph, RoutingBall};
use spacecdn_orbit::SatIndex;
use spacecdn_telemetry::{LazyCounter, LazyHistogram, LocalHistogram, Unit};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// Traffic counters (stable: per-stream work is deterministic and the
/// tallies are sums over streams, so they are identical at any thread
/// count).
static REQUESTS: LazyCounter = LazyCounter::stable("core.traffic.requests");
static HITS_OVERHEAD: LazyCounter = LazyCounter::stable("core.traffic.hits.overhead");
static HITS_ISL: LazyCounter = LazyCounter::stable("core.traffic.hits.isl");
static HITS_PINNED: LazyCounter = LazyCounter::stable("core.traffic.hits.pinned");
static HITS_NEIGHBOR: LazyCounter = LazyCounter::stable("core.traffic.hits.neighbor");
static ORIGIN_FETCHES: LazyCounter = LazyCounter::stable("core.traffic.origin_fetches");
static DEAD_ZONES: LazyCounter = LazyCounter::stable("core.traffic.dead_zones");
static INSERTS: LazyCounter = LazyCounter::stable("core.traffic.inserts");
static EVICTIONS: LazyCounter = LazyCounter::stable("core.traffic.evictions");
static TTL_EXPIRIES: LazyCounter = LazyCounter::stable("core.traffic.ttl_expiries");
static INVALIDATIONS: LazyCounter = LazyCounter::stable("core.traffic.invalidations");
/// Per-request served latency in microseconds (stable: latencies are
/// deterministic, so the log2 bucket tallies are thread-count-invariant).
static LATENCY_US: LazyHistogram = LazyHistogram::stable("core.traffic.latency_us", Unit::Count);

/// Batching counters (stable: batch contexts are built and reused by
/// each shard's deterministic event sequence, so the tallies are sums
/// over shards and thread-count-invariant). `formed` counts contexts
/// built — one per (source, epoch) pair a shard actually serves;
/// `table_reuses` counts requests that reused an existing context's
/// routing tables instead of re-resolving them.
static BATCHES_FORMED: LazyCounter = LazyCounter::stable("core.traffic.batch.formed");
static BATCH_TABLE_REUSES: LazyCounter = LazyCounter::stable("core.traffic.batch.table_reuses");
/// Requests amortized over each batch context, recorded at context
/// retirement (stable, same argument as the batch counters).
static BATCH_REQUESTS: LazyHistogram =
    LazyHistogram::stable("core.traffic.batch.requests", Unit::Count);
/// End-of-run cache occupancy of every satellite slot holding at least
/// one object, per shard (stable: each shard's final fleet state is
/// deterministic and slots are visited in slot order).
static CACHE_OCCUPANCY: LazyHistogram =
    LazyHistogram::stable("core.traffic.cache.occupancy_bytes", Unit::Bytes);

/// Wall time of each burst's [`resolve_overheads`] call — the overhead
/// search and the ladder-bounded table fan-out (racy: a clock reading).
static TABLE_WARM_NS: LazyHistogram =
    LazyHistogram::racy("core.traffic.table_warm_ns", Unit::Nanos);

/// Wall time of each burst's shard fan-out — every shard's simulation,
/// from the first shard's set-up to the last shard's telemetry flush
/// (racy: a clock reading).
static SHARD_FAN_OUT_NS: LazyHistogram =
    LazyHistogram::racy("core.traffic.shard_fan_out_ns", Unit::Nanos);

/// Ground-hierarchy sizing for the tiered fallback (placement spec
/// `tiers`): a handful of metro edges under one regional, the classic §2
/// tree. Capacities are per run and split across streams like the
/// satellite caches, so the partition is workload-invariant.
const GROUND_EDGES: usize = 8;
const GROUND_EDGE_BYTES: u64 = 16 << 30;
const GROUND_REGIONAL_BYTES: u64 = 256 << 30;

/// One demand source: a population point issuing requests.
#[derive(Debug, Clone)]
pub struct TrafficSource {
    /// Where the requests originate.
    pub position: Geodetic,
    /// Relative request weight (e.g. population in units of ~2M); must be
    /// ≥ 1.
    pub weight: u32,
    /// Ground-fallback RTT per epoch (bent pipe to the PoP plus anycast
    /// to the nearest CDN site, computed by the caller); must have one
    /// entry per simulated epoch.
    pub fallback_rtt: Vec<Latency>,
}

/// Workload parameters of a traffic run.
#[derive(Debug, Clone)]
pub struct TrafficConfig {
    /// Total requests across all streams.
    pub requests: u64,
    /// Catalog shards simulated as independent parallel streams. This is
    /// a *semantic* parameter (it fixes the partition and the RNG
    /// streams), not a thread count: output is byte-identical however
    /// many threads execute the shards.
    pub streams: usize,
    /// Topology epochs to simulate (the constellation rotates and the
    /// fault schedule lowers to a new plan at each).
    pub epochs: usize,
    /// Wall-clock spacing of topology epochs.
    pub epoch_step: SimDuration,
    /// Number of objects in the generated catalog.
    pub catalog_size: usize,
    /// Zipf exponent of demand.
    pub zipf_alpha: f64,
    /// Aggregate cache capacity per satellite, bytes (split evenly across
    /// streams).
    pub cache_bytes_per_sat: u64,
    /// Freshness lifetime of cached objects.
    pub ttl: SimDuration,
    /// Eviction/admission policy every shard fleet runs. Defaults to the
    /// `SPACECDN_POLICY` environment knob (LRU+TTL when unset).
    pub policy: PolicyKind,
    /// Fraction of satellites allowed to cache at any instant (Figure
    /// 8's thermal duty cycling); inserts on inactive satellites are
    /// skipped.
    pub duty_fraction: f64,
    /// Duty-cycle slot length.
    pub duty_slot: SimDuration,
    /// Hop-budget escalation ladder for every fetch.
    pub escalation: Vec<u32>,
    /// Orbit-aware replica placement: when set, a slot-keyed
    /// [`PlacementPlan`] pre-seeds pinned copies across the shells,
    /// optionally with cooperative +Grid neighbor lookup and a tiered
    /// ground fallback (see [`PlacementSpec`]). Defaults to the
    /// `SPACECDN_PLACEMENT` environment knob (`None` when unset).
    pub placement: Option<PlacementSpec>,
    /// Experiment seed.
    pub seed: u64,
    /// Virtual instant the run opens at: epochs freeze at
    /// `start + epoch_step·e` and arrivals spread over
    /// `(start, start + epoch_step·epochs]`. [`SimTime::EPOCH`] (the
    /// default) reproduces the classic batch timeline; long-lived
    /// sessions (`spacecdn-serve`) hand each burst their running clock.
    pub start: SimTime,
}

impl Default for TrafficConfig {
    fn default() -> Self {
        TrafficConfig {
            requests: 50_000,
            streams: 8,
            epochs: 3,
            epoch_step: SimDuration::from_secs(157),
            catalog_size: 10_000,
            zipf_alpha: 0.9,
            cache_bytes_per_sat: 8 << 30,
            ttl: SimDuration::from_mins(30),
            policy: PolicyKind::from_env(),
            duty_fraction: 1.0,
            duty_slot: SimDuration::from_mins(10),
            escalation: vec![1, 3, 5, 10],
            placement: PlacementSpec::from_env(),
            seed: 42,
            start: SimTime::EPOCH,
        }
    }
}

/// Per-shell slice of a traffic run's space-served outcomes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShellTraffic {
    /// Requests served by this shell's overhead satellite.
    pub overhead_hits: u64,
    /// Requests served over this shell's ISLs.
    pub isl_hits: u64,
    /// Pull-through fills landing on this shell.
    pub inserts: u64,
}

/// Aggregated outcome of a traffic run.
#[derive(Debug, Clone, Default)]
pub struct TrafficReport {
    /// Requests issued.
    pub requests: u64,
    /// Requests served by the overhead satellite's cache.
    pub overhead_hits: u64,
    /// Requests served over ISLs from a nearby satellite's cache.
    pub isl_hits: u64,
    /// Requests that fell back to the terrestrial origin/ground cache.
    pub origin_fetches: u64,
    /// Origin fetches caused by a dead zone (no servable satellite).
    pub dead_zones: u64,
    /// Pull-through cache fills.
    pub inserts: u64,
    /// Objects evicted under capacity pressure (LRU).
    pub evictions: u64,
    /// Objects dropped because their TTL lapsed.
    pub ttl_expiries: u64,
    /// Objects wiped because their satellite failed at an epoch boundary.
    pub invalidations: u64,
    /// Requests served from a plan-pinned replica (a subset of
    /// `overhead_hits + isl_hits`; zero without placement).
    pub pinned_hits: u64,
    /// Requests served by the cooperative +Grid neighbor rung (a subset
    /// of `isl_hits`; zero unless the placement spec enables `coop`).
    pub neighbor_hits: u64,
    /// Ground fetches absorbed by the hierarchy's edge tier (only when
    /// the placement spec enables `tiers`).
    pub ground_edge_hits: u64,
    /// Ground fetches absorbed by the regional tier.
    pub ground_regional_hits: u64,
    /// Ground fetches that went all the way to the origin over the WAN.
    pub ground_origin_hits: u64,
    /// Order-dependent FNV-1a fold of every request's decision tuple —
    /// (source, serving slot or `u32::MAX`, hops or `u32::MAX`, served
    /// RTT bits) — in arrival order per shard, combined in shard order.
    /// One u64 pins the full per-request decision trace for the
    /// differential oracle and the determinism suite without retaining
    /// per-request samples.
    pub decision_digest: u64,
    /// Bytes served from satellite caches.
    pub served_bytes: u64,
    /// Bytes fetched from the terrestrial origin.
    pub origin_bytes: u64,
    /// Per-request served latency (milliseconds).
    pub latencies: Percentiles,
    /// ISL-hit hop histogram: index = BFS hop distance of the serving
    /// satellite.
    pub hop_histogram: Vec<u64>,
    /// Space-served outcomes attributed to each shell, in shell order
    /// (one entry per scenario passed to [`run_traffic_multishell`]).
    pub per_shell: Vec<ShellTraffic>,
}

impl TrafficReport {
    /// Fraction of requests served from space (overhead + ISL).
    pub fn hit_ratio(&self) -> f64 {
        if self.requests == 0 {
            return 0.0;
        }
        (self.overhead_hits + self.isl_hits) as f64 / self.requests as f64
    }

    /// Fraction of delivered bytes that never touched the terrestrial
    /// origin — the quantity that decides whether in-orbit caching pays.
    pub fn origin_offload(&self) -> f64 {
        let total = self.served_bytes + self.origin_bytes;
        if total == 0 {
            return 0.0;
        }
        self.served_bytes as f64 / total as f64
    }

    /// Fold another report into this one — shard reduction within a run,
    /// and burst accumulation across a long-lived serve session.
    pub fn merge(&mut self, other: &TrafficReport) {
        self.requests += other.requests;
        self.overhead_hits += other.overhead_hits;
        self.isl_hits += other.isl_hits;
        self.origin_fetches += other.origin_fetches;
        self.dead_zones += other.dead_zones;
        self.inserts += other.inserts;
        self.evictions += other.evictions;
        self.ttl_expiries += other.ttl_expiries;
        self.invalidations += other.invalidations;
        self.pinned_hits += other.pinned_hits;
        self.neighbor_hits += other.neighbor_hits;
        self.ground_edge_hits += other.ground_edge_hits;
        self.ground_regional_hits += other.ground_regional_hits;
        self.ground_origin_hits += other.ground_origin_hits;
        // Order-dependent: shard reduction and burst accumulation both
        // merge in a fixed order, so the combined digest stays pinned.
        self.decision_digest = self.decision_digest.rotate_left(17) ^ other.decision_digest;
        self.served_bytes += other.served_bytes;
        self.origin_bytes += other.origin_bytes;
        self.latencies.merge(&other.latencies);
        if self.hop_histogram.len() < other.hop_histogram.len() {
            self.hop_histogram.resize(other.hop_histogram.len(), 0);
        }
        for (i, &n) in other.hop_histogram.iter().enumerate() {
            self.hop_histogram[i] += n;
        }
        if self.per_shell.len() < other.per_shell.len() {
            self.per_shell
                .resize(other.per_shell.len(), ShellTraffic::default());
        }
        for (i, s) in other.per_shell.iter().enumerate() {
            self.per_shell[i].overhead_hits += s.overhead_hits;
            self.per_shell[i].isl_hits += s.isl_hits;
            self.per_shell[i].inserts += s.inserts;
        }
    }
}

/// One generated request: which source issued it and which shard-local
/// object rank it wants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Index into the run's source list.
    pub source: u32,
    /// Shard-local popularity rank (index into the shard's id list).
    pub rank: u32,
}

/// Lazy Poisson arrival stream for one catalog shard.
///
/// Yields exactly `quota` arrivals with exponential inter-arrival gaps,
/// clamped to the horizon so every shard meets its quota. Per arrival the
/// RNG stream `traffic/arrivals/{shard}` is consumed in a pinned order —
/// inter-arrival gap, then source roll, then Zipf rank — which
/// `crates/core/tests/streaming.rs` proves identical to a materialized
/// reference generator (times, sources, ranks, and RNG consumption).
pub struct ArrivalStream<'a> {
    rng: DetRng,
    weight_cdf: &'a [u64],
    sampler: &'a ZipfSampler,
    horizon: SimTime,
    mean_interarrival_s: f64,
    prev: SimTime,
    issued: u64,
    quota: u64,
}

impl<'a> ArrivalStream<'a> {
    /// The arrival stream of shard `shard` under `seed`: `quota` requests
    /// spread over `(EPOCH, horizon]` with mean rate `quota / horizon`.
    pub fn new(
        seed: u64,
        shard: usize,
        weight_cdf: &'a [u64],
        sampler: &'a ZipfSampler,
        horizon: SimTime,
        quota: u64,
    ) -> Self {
        Self::starting_at(
            seed,
            shard,
            weight_cdf,
            sampler,
            SimTime::EPOCH,
            horizon,
            quota,
        )
    }

    /// [`Self::new`] from an arbitrary origin: `quota` requests spread
    /// over `(start, horizon]`. The RNG stream and per-arrival draw order
    /// are unchanged, so a stream starting at `start` is the `start`-shift
    /// of the one starting at [`SimTime::EPOCH`], gap for gap.
    #[allow(clippy::too_many_arguments)]
    pub fn starting_at(
        seed: u64,
        shard: usize,
        weight_cdf: &'a [u64],
        sampler: &'a ZipfSampler,
        start: SimTime,
        horizon: SimTime,
        quota: u64,
    ) -> Self {
        ArrivalStream {
            rng: DetRng::new(seed, &format!("traffic/arrivals/{shard}")),
            weight_cdf,
            sampler,
            horizon,
            mean_interarrival_s: horizon.since(start).as_secs_f64() / quota.max(1) as f64,
            prev: start,
            issued: 0,
            quota,
        }
    }

    /// The stream's RNG after the arrivals generated so far — lets the
    /// equivalence suite assert the exact consumption order.
    pub fn into_rng(self) -> DetRng {
        self.rng
    }
}

impl EventStream for ArrivalStream<'_> {
    type Event = Arrival;

    fn next_event(&mut self) -> Option<(SimTime, Arrival)> {
        if self.issued >= self.quota {
            return None;
        }
        self.issued += 1;
        let gap = SimDuration::from_secs_f64(self.rng.exponential(self.mean_interarrival_s));
        let at = (self.prev + gap).min(self.horizon);
        self.prev = at;
        let total = *self.weight_cdf.last().expect("non-empty sources");
        let roll = self.rng.index(total as usize) as u64;
        let source = self.weight_cdf.partition_point(|&c| c <= roll) as u32;
        let rank = self.sampler.sample(&mut self.rng) as u32;
        Some((at, Arrival { source, rank }))
    }
}

/// Marks a memoized serving candidate as a plan-pinned replica (bit 31 of
/// the stored global slot — slot counts stay far below 2³¹). Pinned
/// copies live outside the policy fleet, so the serve path must not
/// consult (or debug-assert against) the fleet for them.
const PIN_FLAG: u32 = 1 << 31;

/// FNV-1a fold of one request's decision tuple into the running digest.
/// Cheap enough for the ≥1M req/s hot path (four xor-multiplies).
#[inline]
fn fold_decision(digest: &mut u64, source: u32, slot: u32, hops: u32, rtt: Latency) {
    const PRIME: u64 = 0x0000_0100_0000_01B3;
    let mut h = *digest;
    for w in [source as u64, slot as u64, hops as u64, rtt.ms().to_bits()] {
        h = (h ^ w).wrapping_mul(PRIME);
    }
    *digest = h;
}

/// FNV-1a offset basis: each shard's digest starts here.
const DIGEST_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// Per-shell retrieval geometry of one (epoch, source) batch: the
/// overhead satellite (as a global slot), its user-link propagation
/// round trip, and the routing tables rooted at it, out to the ladder's
/// top rung and cut at the ground fallback (see [`resolve_overheads`]).
struct ShellGeo {
    overhead_slot: u32,
    user_prop: Latency,
    tables: RoutingBall,
    /// Cooperative-lookup targets: the overhead satellite's live +Grid
    /// neighbors as (global slot, full probe RTT = user link + two-way
    /// edge propagation, no switching charge). Empty unless the placement
    /// spec enables `coop`. At most four entries, scanned linearly.
    neighbors: Vec<(u32, Latency)>,
}

/// Memoized candidate scan for one (source, rank): the tags deciding
/// whether its per-rung bests (best base RTT with jitter excluded, hop
/// count, and serving slot per escalation rung, stored in the
/// [`MemoArena`]) are still valid. Holder lists are append-mostly —
/// pull-through only ever adds holders, and a new holder can only
/// *improve* the bests — so the memo folds in just the unseen tail
/// (`seen..len`) on reuse. Only an actual removal (eviction, TTL lapse,
/// invalidation) or a retired batch context forces a full rescan: `gen`
/// must match the source's live context and `removals` the rank's
/// removal count, both of which start above the memo's zeroed defaults.
#[derive(Default)]
struct RankMemo {
    gen: u32,
    removals: u32,
    seen: u32,
}

/// Per-rung best candidate: (base RTT, hops, global slot | [`PIN_FLAG`]).
type RungBest = Option<(Latency, u32, u32)>;

/// One shard's scan memos, stored only for the (source, rank) pairs its
/// requests actually touch. A burst touches at most one pair per
/// request, far fewer than `sources × ranks` on a large catalog, so the
/// dense part is a 4-byte index allocated zeroed: pages covering pairs
/// nobody requests are never written.
struct MemoArena {
    /// `source × ranks + rank` → 1 + arena position (0 = no memo yet).
    index: Vec<u32>,
    ranks: usize,
    /// Touched memos, in first-touch order.
    memos: Vec<RankMemo>,
    /// Per-rung bests of every memo, `stride` entries per memo in arena
    /// order.
    bests: Vec<RungBest>,
    /// Rungs per memo: the cooperative rung (if any) plus the ladder.
    stride: usize,
}

impl MemoArena {
    fn new(sources: usize, ranks: usize, stride: usize) -> Self {
        let pairs = sources * ranks;
        assert!(
            pairs < u32::MAX as usize,
            "memo index must address every (source, rank) pair"
        );
        MemoArena {
            index: vec![0; pairs],
            ranks,
            memos: Vec::new(),
            bests: Vec::new(),
            stride,
        }
    }

    /// Number of memos ever created (touched pairs).
    fn len(&self) -> usize {
        self.memos.len()
    }

    /// The memo of (`si`, `rank`) and its per-rung bests. A first touch
    /// appends a zeroed memo, whose `gen` matches no live context, so
    /// the caller rebuilds it exactly as it would a stale one.
    fn entry(&mut self, si: usize, rank: usize) -> (&mut RankMemo, &mut [RungBest]) {
        let slot = &mut self.index[si * self.ranks + rank];
        if *slot == 0 {
            self.memos.push(RankMemo::default());
            self.bests.resize(self.bests.len() + self.stride, None);
            *slot = self.memos.len() as u32;
        }
        let m = *slot as usize - 1;
        (
            &mut self.memos[m],
            &mut self.bests[m * self.stride..(m + 1) * self.stride],
        )
    }
}

/// Everything a source's requests share within one topology epoch, on
/// every shard: resolved once per burst before the shards start, then
/// read by all of them.
struct BatchGeo {
    shells: Vec<Option<ShellGeo>>,
    /// Pull-through target: the overhead slot with the smallest slant
    /// range across shells (`None` in a total dead zone).
    fill: Option<u32>,
}

impl BatchGeo {
    /// Assemble source `si`'s geometry from one epoch's per-shell graphs
    /// and their [`resolve_overheads`] rows.
    fn new(
        graphs: &[Arc<IslGraph>],
        overheads: &[Vec<Option<Overhead>>],
        si: usize,
        shell_offsets: &[u32],
        coop: bool,
    ) -> BatchGeo {
        let mut fill: Option<(u32, f64)> = None;
        let shells = graphs
            .iter()
            .zip(overheads)
            .enumerate()
            .map(|(k, (graph, row))| {
                let o = row[si].as_ref()?;
                let slot = shell_offsets[k] + o.sat.0;
                if fill.is_none_or(|(_, s)| o.slant.0 < s) {
                    fill = Some((slot, o.slant.0));
                }
                let user_prop = propagation_delay(o.slant, Medium::Vacuum).round_trip();
                // Cooperative probe targets: the CSR row already excludes
                // dead neighbors and failed links, so every entry is a
                // live one-hop fetch.
                let neighbors = if coop {
                    let (row, kms) = graph.neighbor_row(o.sat.0);
                    row.iter()
                        .zip(kms)
                        .map(|(&nb, &km)| {
                            (shell_offsets[k] + nb, user_prop + neighbor_probe_cost(km))
                        })
                        .collect()
                } else {
                    Vec::new()
                };
                Some(ShellGeo {
                    overhead_slot: slot,
                    user_prop,
                    tables: o.tables.clone(),
                    neighbors,
                })
            })
            .collect();
        BatchGeo {
            shells,
            fill: fill.map(|(slot, _)| slot),
        }
    }
}

/// A shard's live batch for one source in the current epoch: the shared
/// [`BatchGeo`] carries the geometry, this only what the shard's own
/// event sequence decides.
struct BatchCtx {
    /// Build generation, starting at 1, minted when the shard first
    /// serves the source this epoch: stamped into every memo entry this
    /// batch's scans produce, so retiring it (new epoch, new geometry)
    /// implicitly invalidates them all.
    gen: u32,
    requests: u64,
}

/// Mutable state of one catalog shard's simulation.
struct ShardWorld<'a> {
    service_rng: DetRng,
    fleet: PolicyFleet,
    /// Shard-local rank → global satellite slots holding a live copy.
    /// Maintained eagerly: pruned on eviction, TTL lapse, and epoch
    /// invalidation, so the serve-path scan needs no freshness probes.
    holders: Vec<Vec<u32>>,
    /// Shard-local rank → plan-pinned replica slots. Pinned copies live
    /// outside the policy fleet: they never evict, never expire, and
    /// survive outages (a dead pinned satellite is simply unreachable —
    /// its routing-table hops are `u32::MAX` — until it returns). Folded
    /// into a memo only on rebuild, since the lists never change.
    pinned: Vec<Vec<u32>>,
    /// Cooperative +Grid neighbor lookup enabled (placement spec `coop`).
    coop: bool,
    /// Tiered ground fallback (placement spec `tiers`): misses route
    /// through a per-shard [`CacheHierarchy`] and pay the tier surcharge
    /// on top of the source's flat fallback RTT.
    ground: Option<CacheHierarchy>,
    /// Latency surcharge over the flat fallback per serving tier
    /// (edge, regional, origin): the edge tier is the PoP the flat
    /// fallback already models, deeper tiers add their extra round trips.
    tier_surcharge: [Latency; 3],
    /// Per-rank count of holder *removals* (evictions, TTL lapses,
    /// invalidations), starting at 1; appends are tracked by list length
    /// instead, so scan memos survive them (see [`RankMemo`]).
    holder_removals: Vec<u32>,
    rank_of: HashMap<ContentId, u32>,
    /// TTL timer queue with lazy deletion: every insert pushes
    /// `(expiry, slot, content)`; records whose entry was refreshed,
    /// evicted, or invalidated in the meantime are skipped on pop.
    expiries: VecDeque<(SimTime, u32, ContentId)>,
    /// Per-source live batch of the current epoch (`None` until the
    /// shard first serves that source this epoch).
    ctxs: Vec<Option<BatchCtx>>,
    /// Scan memos of every touched (source, rank) pair (see
    /// [`RankMemo`]). The scheduling jitter is a common additive term on
    /// every candidate's RTT, so a memo is recomputed only when the
    /// rank's holder list or the source's batch geometry changes — which
    /// Zipf demand makes rare exactly where requests concentrate.
    memos: MemoArena,
    /// Generation for the next batch context (starts at 1; 0 marks
    /// freshly appended memos).
    next_gen: u32,
    /// Per-(source, candidate) cost cache, flat-indexed
    /// `source × dense_cap + dense id` and tagged with the context
    /// generation that computed it: `(gen, base RTT, hops)`, with
    /// `hops == u32::MAX` meaning unreachable from that source. A
    /// candidate's cost is rank-independent, so memo folds across all
    /// ranks reuse the same warm entries instead of re-reading scattered
    /// routing tables. Only slots that ever receive a pull-through fill
    /// can hold content, so candidates get *dense* ids as fills first
    /// touch them — at most one per (source, epoch) — keeping the whole
    /// cache small enough to stay cache-resident.
    slot_cost: Vec<(u32, Latency, u32)>,
    /// Global slot → dense candidate id (`u16::MAX` = never filled).
    dense_of: Vec<u16>,
    /// Next dense id to assign; bounded by `dense_cap`.
    next_dense: u16,
    /// Dense id capacity: `sources × epochs`, the exact upper bound on
    /// distinct fill targets.
    dense_cap: usize,
    epoch: usize,
    report: TrafficReport,
    /// Batch contexts formed this shard (flushed to telemetry once).
    batches_formed: u64,
    /// Per-request latency samples, folded into the registry histogram
    /// once per shard instead of two atomics per request.
    latency_local: LocalHistogram,
    // Scratch buffers (allocation-free steady state).
    dropped: Vec<ContentId>,
    // Shard demand model.
    shard_ids: &'a [ContentId],
    sizes: &'a [u64],
    catalog: &'a Catalog,
    // Shared read-only context.
    graphs: &'a [Vec<Arc<IslGraph>>],
    /// The burst's geometry, `[epoch][source]`.
    geos: &'a [Vec<BatchGeo>],
    shell_offsets: &'a [u32],
    shell_of: &'a [u8],
    sources: &'a [TrafficSource],
    duty: &'a DutyCycler,
    cfg: &'a TrafficConfig,
    access: &'a AccessModel,
}

impl ShardWorld<'_> {
    /// Drop `slot` from `content`'s holder list (order-insensitive) and
    /// invalidate every memo built over the old membership.
    fn prune_holder(
        holders: &mut [Vec<u32>],
        removals: &mut [u32],
        rank_of: &HashMap<ContentId, u32>,
        content: ContentId,
        slot: u32,
    ) {
        let rank = rank_of[&content] as usize;
        let hs = &mut holders[rank];
        if let Some(p) = hs.iter().position(|&g| g == slot) {
            hs.swap_remove(p);
            removals[rank] = removals[rank].wrapping_add(1);
        }
    }

    /// Apply every TTL lapse due by `t`, keeping holder lists exact.
    fn drain_expiries(&mut self, t: SimTime) {
        while self.expiries.front().is_some_and(|&(e, _, _)| e <= t) {
            let (_, slot, content) = self.expiries.pop_front().expect("checked front");
            if self.fleet.expire_if_due(slot, content) {
                Self::prune_holder(
                    &mut self.holders,
                    &mut self.holder_removals,
                    &self.rank_of,
                    content,
                    slot,
                );
            }
        }
    }

    /// Resolve a ground-served request: flat fallback RTT, plus the tier
    /// surcharge when the hierarchy fallback is enabled. Requests enter
    /// the hierarchy at the edge their source maps to (`si` mod edges),
    /// warming it by pull-through like any terrestrial CDN.
    fn ground_latency(&mut self, si: usize, content: ContentId, fallback: Latency) -> Latency {
        let Some(ground) = self.ground.as_mut() else {
            return fallback;
        };
        let outcome = ground.request(si, content, self.catalog);
        let tier = match outcome.served_by {
            ServedBy::Edge => {
                self.report.ground_edge_hits += 1;
                0
            }
            ServedBy::Regional => {
                self.report.ground_regional_hits += 1;
                1
            }
            ServedBy::Origin => {
                self.report.ground_origin_hits += 1;
                2
            }
        };
        fallback + self.tier_surcharge[tier]
    }

    /// Resolve one request at simulated time `t`.
    fn arrival(&mut self, t: SimTime, a: Arrival) {
        self.report.requests += 1;
        self.fleet.set_now(t);
        self.drain_expiries(t);

        let si = a.source as usize;
        let gen = match &mut self.ctxs[si] {
            Some(ctx) => {
                ctx.requests += 1;
                ctx.gen
            }
            None => {
                let gen = self.next_gen;
                self.next_gen = self.next_gen.wrapping_add(1);
                self.ctxs[si] = Some(BatchCtx { gen, requests: 1 });
                self.batches_formed += 1;
                gen
            }
        };
        let geos = self.geos;
        let geo = &geos[self.epoch][si];

        let rank = a.rank as usize;
        let content = self.shard_ids[rank];
        let size = self.sizes[rank];
        let fallback = self.sources[si].fallback_rtt[self.epoch];

        if geo.fill.is_none() {
            // Total dead zone: no shell has a visible satellite. Ground
            // serve at the fallback RTT (tiered when enabled), no jitter
            // draw.
            self.report.origin_fetches += 1;
            self.report.dead_zones += 1;
            self.report.origin_bytes += size;
            let latency = self.ground_latency(si, content, fallback);
            fold_decision(
                &mut self.report.decision_digest,
                a.source,
                u32::MAX,
                u32::MAX,
                latency,
            );
            self.report.latencies.add_latency(latency);
            self.latency_local.record((latency.ms() * 1000.0) as u64);
            return;
        }

        // One scheduling-jitter draw per servable request, shared by
        // every shell's user link (the Ka-band scheduler is at the user
        // terminal, not the satellite).
        let sched_ms = self.access.sched_overhead_ms_sample(&mut self.service_rng);
        let jitter = Latency::from_ms(sched_ms);

        // Candidate scan, memoized per (batch, rank). The jitter is the
        // same additive term on every candidate, so the per-rung winner
        // is decided by base RTT alone — the scan only reruns when the
        // holder list changes under this batch, which Zipf demand makes
        // rare exactly where requests concentrate.
        let ladder = &self.cfg.escalation;
        // With cooperative lookup on, rung 0 probes the overhead
        // satellite and its four +Grid neighbors (at digest-probe cost,
        // cheaper than the same hop through the ladder) *before* the
        // hop-budget escalation ladder, which follows shifted by one.
        let rungs0 = self.coop as usize;
        let hs = &self.holders[rank];
        let (memo, bests) = self.memos.entry(si, rank);
        let rebuilt = memo.gen != gen || memo.removals != self.holder_removals[rank];
        if rebuilt {
            bests.fill(None);
            memo.gen = gen;
            memo.removals = self.holder_removals[rank];
            memo.seen = 0;
        }
        if rebuilt || (memo.seen as usize) < hs.len() {
            // Fold candidates into the per-rung bests, in list order:
            // plan-pinned replicas first (only on a rebuild — their list
            // never changes, so a surviving memo already folded them),
            // then the unseen dynamic-holder tail. `bests` is
            // non-increasing in RTT across ladder rungs (wider budgets
            // admit supersets), so a candidate cascades upward until it
            // stops improving; strict `<` keeps the earliest candidate
            // on exact ties, making the scan order part of the
            // deterministic contract. Folding the tail of an unchanged
            // prefix is exactly a full scan of the whole list.
            let pinned_part: &[u32] = if rebuilt { &self.pinned[rank] } else { &[] };
            let tail = &hs[memo.seen as usize..];
            for (i, &g) in pinned_part.iter().chain(tail.iter()).enumerate() {
                let is_pinned = i < pinned_part.len();
                let gstore = if is_pinned { g | PIN_FLAG } else { g };
                let dense = self.dense_of[g as usize] as usize;
                debug_assert_ne!(dense, u16::MAX as usize, "holder without a dense id");
                let cached = &mut self.slot_cost[si * self.dense_cap + dense];
                if cached.0 != gen {
                    *cached = (gen, Latency::ZERO, u32::MAX);
                    let shell = self.shell_of[g as usize] as usize;
                    if let Some(sc) = geo.shells[shell].as_ref() {
                        if g == sc.overhead_slot {
                            *cached = (gen, sc.user_prop, 0);
                        } else {
                            let local = SatIndex(g - self.shell_offsets[shell]);
                            let h = sc.tables.hops(local);
                            let (dist_km, route_hops) = sc.tables.km(local);
                            if h != u32::MAX && dist_km.is_finite() {
                                let cost = space_segment_cost(self.access, dist_km, route_hops);
                                *cached = (gen, sc.user_prop + cost, h);
                            }
                        }
                    }
                }
                let (_, rtt, hops) = *cached;
                if hops == u32::MAX {
                    continue;
                }
                if rungs0 == 1 {
                    // Cooperative rung: overhead at its ladder cost, a
                    // +Grid neighbor at probe cost (no switching charge).
                    let cand = if hops == 0 {
                        Some((rtt, 0u32))
                    } else {
                        let shell = self.shell_of[g as usize] as usize;
                        geo.shells[shell].as_ref().and_then(|sc| {
                            sc.neighbors
                                .iter()
                                .find(|&&(n, _)| n == g)
                                .map(|&(_, probe)| (probe, 1))
                        })
                    };
                    if let Some((crtt, chops)) = cand {
                        match bests[0] {
                            Some((brtt, _, _)) if crtt >= brtt => {}
                            _ => bests[0] = Some((crtt, chops, gstore)),
                        }
                    }
                }
                let Some(j0) = ladder.iter().position(|&budget| hops <= budget) else {
                    continue;
                };
                for best in &mut bests[rungs0 + j0..] {
                    match *best {
                        Some((brtt, _, _)) if rtt >= brtt => break,
                        _ => *best = Some((rtt, hops, gstore)),
                    }
                }
            }
            memo.seen = hs.len() as u32;
        }

        // Serve at the first rung whose best beats the bent pipe —
        // exactly the resilient escalation ladder, collapsed to one scan
        // (with the cooperative neighborhood probed first when enabled).
        let served = bests
            .iter()
            .enumerate()
            .filter_map(|(j, b)| b.map(|(base, hops, g)| (j, base + jitter, hops, g)))
            .find(|&(_, rtt, _, _)| rtt <= fallback);

        let latency = match served {
            Some((rung, rtt, hops, gstore)) => {
                let slot = gstore & !PIN_FLAG;
                if gstore & PIN_FLAG != 0 {
                    // Pinned replicas live outside the policy fleet: no
                    // lookup, no recency touch, nothing to evict.
                    self.report.pinned_hits += 1;
                } else {
                    let hit = self.fleet.get(slot, content);
                    debug_assert!(hit, "holder index out of sync with the fleet");
                }
                if rungs0 == 1 && rung == 0 && hops == 1 {
                    self.report.neighbor_hits += 1;
                }

                let shell = self.shell_of[slot as usize] as usize;
                if hops == 0 {
                    self.report.overhead_hits += 1;
                    self.report.per_shell[shell].overhead_hits += 1;
                } else {
                    self.report.isl_hits += 1;
                    self.report.per_shell[shell].isl_hits += 1;
                    let h = hops as usize;
                    if self.report.hop_histogram.len() <= h {
                        self.report.hop_histogram.resize(h + 1, 0);
                    }
                    self.report.hop_histogram[h] += 1;
                }
                self.report.served_bytes += size;
                fold_decision(&mut self.report.decision_digest, a.source, slot, hops, rtt);
                rtt
            }
            None => {
                self.report.origin_fetches += 1;
                self.report.origin_bytes += size;
                // Pull-through fill: the lowest-slant overhead satellite
                // caches the object on the way down — when the duty
                // cycle lets it, and unless the plan already pins this
                // object there (a pinned copy never needs a dynamic
                // shadow).
                let fill = geo.fill.expect("non-dead-zone batch has a fill target");
                if self.duty.is_active(SatIndex(fill), t) && !self.pinned[rank].contains(&fill) {
                    self.dropped.clear();
                    if self
                        .fleet
                        .insert_collect(fill, content, size, &mut self.dropped)
                    {
                        self.report.inserts += 1;
                        let shell = self.shell_of[fill as usize] as usize;
                        self.report.per_shell[shell].inserts += 1;
                        if self.dense_of[fill as usize] == u16::MAX {
                            self.dense_of[fill as usize] = self.next_dense;
                            self.next_dense += 1;
                            debug_assert!((self.next_dense as usize) <= self.dense_cap);
                        }
                        let hs = &mut self.holders[rank];
                        if !hs.contains(&fill) {
                            hs.push(fill);
                        }
                        self.expiries.push_back((t + self.cfg.ttl, fill, content));
                    }
                    while let Some(victim) = self.dropped.pop() {
                        Self::prune_holder(
                            &mut self.holders,
                            &mut self.holder_removals,
                            &self.rank_of,
                            victim,
                            fill,
                        );
                    }
                }
                let latency = self.ground_latency(si, content, fallback);
                fold_decision(
                    &mut self.report.decision_digest,
                    a.source,
                    u32::MAX,
                    u32::MAX,
                    latency,
                );
                latency
            }
        };

        self.report.latencies.add_latency(latency);
        self.latency_local.record((latency.ms() * 1000.0) as u64);
    }

    /// Swap to epoch `e`: retire every batch context (their geometry is
    /// stale) and wipe caches of satellites the fault schedule killed,
    /// draining their holder entries in the same pass.
    fn epoch_start(&mut self, e: usize) {
        for slot in self.ctxs.iter_mut() {
            if let Some(ctx) = slot.take() {
                BATCH_REQUESTS.record(ctx.requests);
            }
        }
        self.epoch = e;
        for (shell, graph) in self.graphs[e].iter().enumerate() {
            let off = self.shell_offsets[shell];
            for local in 0..graph.len() {
                let g = off + local as u32;
                if self.fleet.len_of(g) > 0 && !graph.is_alive(SatIndex(local as u32)) {
                    let n = self.fleet.clear_sat(g, &mut self.dropped);
                    self.report.invalidations += n;
                    INVALIDATIONS.add(n);
                    while let Some(id) = self.dropped.pop() {
                        Self::prune_holder(
                            &mut self.holders,
                            &mut self.holder_removals,
                            &self.rank_of,
                            id,
                            g,
                        );
                    }
                }
            }
        }
    }
}

/// A ground point's overhead satellite on one snapshot — the servable
/// satellite nearest in slant range — with the routing tables rooted at
/// it.
pub struct Overhead {
    /// The overhead satellite (shell-local index).
    pub sat: SatIndex,
    /// Slant range from the ground point to it.
    pub slant: Km,
    /// Routing tables from it out to the requested radius, cut at the
    /// ground fallback of the users homed on it, shared with the graph's
    /// routing cache.
    pub tables: RoutingBall,
}

/// The [`Overhead`] of every ground point in `users` on every graph in
/// `graphs`, as `[graph][user]` (`None` where no satellite is servable),
/// with tables exact out to `radius` hops
/// ([`IslGraph::routing_tables_within`]; `u32::MAX` builds full tables).
///
/// `fallback(g, u)` is the ground-fallback RTT user `u`'s fetches on
/// graph `g` are served against (an infinite one keeps whole balls). A
/// fetch is served from space only when `base + jitter ≤ fallback`, where
/// the jitter is positive and `base ≥ user_prop + rt(km)` (every cost past
/// the user link's propagation round trip and the ISL path's is
/// non-negative, and a cooperative probe over an edge costs at least the
/// Dijkstra km to its neighbor). So each table's walk also stops once
/// `user_prop + rt(km)` of the next satellite to settle exceeds the
/// fallback ([`IslGraph::routing_tables_cut`]): nothing it drops could
/// ever serve, and every per-rung best, tie and decision stays the same.
/// A table serves every user homed on its satellite, so its cut takes
/// their smallest `user_prop` and largest fallback.
///
/// One [`IslGraph::nearest_alive`] pass per graph, then one [`par_map`]
/// task per *distinct* (graph, overhead satellite) pair, in graph-major
/// order. A table build costs far more than a search and users cluster
/// on few satellites, so per-satellite tasks keep every worker busy where
/// one task per graph left them waiting on the largest graph. Tables come
/// from (and stay in) each graph's routing cache, so they are bitwise the
/// tables an on-demand lookup with the same cut returns.
pub fn resolve_overheads(
    graphs: &[&IslGraph],
    users: &[Geodetic],
    radius: u32,
    fallback: impl Fn(usize, usize) -> Latency,
) -> Vec<Vec<Option<Overhead>>> {
    let nearest: Vec<Vec<Option<(SatIndex, Km)>>> = par_map(graphs, |_, g| {
        users.iter().map(|&user| g.nearest_alive(user)).collect()
    });
    // Sorted by (graph, satellite), so a binary search finds each task.
    let tasks: Vec<(usize, SatIndex)> = nearest
        .iter()
        .enumerate()
        .flat_map(|(gi, row)| {
            let mut sats: Vec<SatIndex> = row.iter().flatten().map(|&(sat, _)| sat).collect();
            sats.sort_unstable();
            sats.dedup();
            sats.into_iter().map(move |sat| (gi, sat))
        })
        .collect();
    let task_of = |gi: usize, sat: SatIndex| {
        tasks
            .binary_search(&(gi, sat))
            .expect("every overhead satellite has a task")
    };
    // Each task's cut: the smallest user-link round trip and the largest
    // fallback among the users homed on it.
    let mut cuts = vec![
        FallbackCut {
            user_prop: Latency(f64::INFINITY),
            fallback: Latency::ZERO,
        };
        tasks.len()
    ];
    for (gi, row) in nearest.iter().enumerate() {
        for (ui, hit) in row.iter().enumerate() {
            let Some((sat, slant)) = *hit else {
                continue;
            };
            let cut = &mut cuts[task_of(gi, sat)];
            let user_prop = propagation_delay(slant, Medium::Vacuum).round_trip();
            if user_prop < cut.user_prop {
                cut.user_prop = user_prop;
            }
            let fallback = fallback(gi, ui);
            if fallback > cut.fallback {
                cut.fallback = fallback;
            }
        }
    }
    let tables = par_map(&tasks, |t, &(gi, sat)| {
        graphs[gi].routing_tables_cut(sat, radius, cuts[t])
    });
    nearest
        .into_iter()
        .enumerate()
        .map(|(gi, row)| {
            row.into_iter()
                .map(|hit| {
                    let (sat, slant) = hit?;
                    Some(Overhead {
                        sat,
                        slant,
                        tables: tables[task_of(gi, sat)].clone(),
                    })
                })
                .collect()
        })
        .collect()
}

/// Validate the shared workload inputs (common to both entry points).
fn validate(sources: &[TrafficSource], cfg: &TrafficConfig) {
    assert!(!sources.is_empty(), "traffic needs at least one source");
    assert!(cfg.streams >= 1, "traffic needs at least one stream");
    assert!(cfg.epochs >= 1, "traffic needs at least one epoch");
    assert!(
        cfg.catalog_size >= cfg.streams,
        "catalog must have at least one object per stream"
    );
    for s in sources {
        assert!(s.weight >= 1, "source weights must be ≥ 1");
        assert_eq!(
            s.fallback_rtt.len(),
            cfg.epochs,
            "one fallback RTT per epoch required"
        );
    }
}

/// Drive `cfg.requests` Zipf-distributed requests from `sources` through
/// a multi-shell constellation — one scenario per shell, all advanced
/// through the same epochs — warming per-satellite LRU+TTL caches by
/// pull-through.
///
/// Each scenario provides one shell's network, fault schedule, and
/// pooled per-epoch snapshots (each is advanced through
/// `0..cfg.epochs × cfg.epoch_step` and left at the last epoch); the
/// access model is taken from the first scenario. Every request sees all
/// shells at once: candidates from every shell compete in one escalation
/// ladder (hop budgets compare across shells), the user link of each
/// shell uses that shell's overhead slant with one shared jitter draw,
/// and pull-through fills land on the lowest-slant overhead satellite
/// across shells. A request is a dead zone only when *no* shell has a
/// visible satellite. Fetches are graceful, so every request resolves.
///
/// # Panics
/// Panics on an empty scenario or source list, a zero weight, a source
/// whose `fallback_rtt` length differs from `cfg.epochs`, or a catalog
/// smaller than the stream count.
pub fn run_traffic_multishell(
    scenarios: &mut [Scenario],
    sources: &[TrafficSource],
    cfg: &TrafficConfig,
) -> TrafficReport {
    let mut merged = TrafficReport::default();
    for shard in run_shards(scenarios, sources, cfg) {
        debug_assert!(
            shard.memos as u64 <= shard.report.requests,
            "a memo is created only by a request touching its pair"
        );
        merged.merge(&shard.report);
    }
    merged
}

/// One catalog shard's finished simulation.
struct ShardRun {
    report: TrafficReport,
    /// Scan memos the shard created: its touched (source, rank) pairs.
    memos: usize,
}

/// The body of [`run_traffic_multishell`]: every shard's run, in shard
/// order, before the merge.
fn run_shards(
    scenarios: &mut [Scenario],
    sources: &[TrafficSource],
    cfg: &TrafficConfig,
) -> Vec<ShardRun> {
    assert!(
        !scenarios.is_empty(),
        "traffic needs at least one shell scenario"
    );
    validate(sources, cfg);

    // Per-epoch, per-shell snapshots, shared read-only by every stream
    // (built through the scenarios so the process-wide pool deduplicates
    // them across duty fractions and campaigns). Epoch-major layout.
    let per_shell: Vec<Vec<Arc<IslGraph>>> = scenarios
        .iter_mut()
        .map(|sc| sc.freeze_epochs_from(cfg.start, cfg.epochs, cfg.epoch_step))
        .collect();
    let shells = per_shell.len();
    debug_assert!(shells <= u8::MAX as usize, "shell ids are bytes");
    let graphs: Vec<Vec<Arc<IslGraph>>> = (0..cfg.epochs)
        .map(|e| per_shell.iter().map(|g| Arc::clone(&g[e])).collect())
        .collect();

    // Global satellite slots: shell k's satellite i lives at
    // `shell_offsets[k] + i`; `shell_of` inverts that in O(1).
    let mut shell_offsets = Vec::with_capacity(shells);
    let mut shell_of: Vec<u8> = Vec::new();
    let mut total_sats = 0u32;
    for (k, g) in graphs[0].iter().enumerate() {
        shell_offsets.push(total_sats);
        total_sats += g.len() as u32;
        shell_of.resize(total_sats as usize, k as u8);
    }
    let coop = cfg.placement.as_ref().is_some_and(|s| s.cooperative);

    // The burst's (epoch, source) geometry, resolved once for every
    // shard: the shards only read it, so no two of them repeat a
    // nearest-satellite search or race to build the same table.
    // A holder beyond the ladder's top rung never wins a rung, and the
    // cooperative rung only takes the overhead satellite or a one-hop
    // neighbor, so the tables need reach no further.
    let positions: Vec<Geodetic> = sources.iter().map(|s| s.position).collect();
    let all_graphs: Vec<&IslGraph> = graphs.iter().flatten().map(|g| &**g).collect();
    // Each walk also stops at its sources' ground fallback (see
    // [`resolve_overheads`]), except on the first scenario's final-epoch
    // graph: the burst leaves that scenario positioned there, and the
    // fetches a caller makes through it next (`Scenario::fetch`, the
    // serve session's `fetch`) read uncut tables, which a cut one cannot
    // answer. Built uncut here, in the fan-out, they are built once.
    let live_graph = (cfg.epochs - 1) * shells;
    let radius = cfg
        .escalation
        .iter()
        .copied()
        .max()
        .unwrap_or(0)
        .max(u32::from(coop));
    let overheads = {
        let _span = TABLE_WARM_NS.timer();
        resolve_overheads(&all_graphs, &positions, radius, |gi, si| {
            if gi == live_graph {
                Latency(f64::INFINITY)
            } else {
                sources[si].fallback_rtt[gi / shells]
            }
        })
    };
    let geos: Vec<Vec<BatchGeo>> = graphs
        .iter()
        .zip(overheads.chunks(shells))
        .map(|(epoch_graphs, per_shell)| {
            (0..sources.len())
                .map(|si| BatchGeo::new(epoch_graphs, per_shell, si, &shell_offsets, coop))
                .collect()
        })
        .collect();

    let catalog = Catalog::generate(
        cfg.catalog_size,
        &[],
        0.0,
        &mut DetRng::new(cfg.seed, "traffic/catalog"),
    );
    // Popularity rank → content id, decoupled from id order by one
    // seeded shuffle.
    let mut by_rank: Vec<ContentId> = catalog.objects().iter().map(|o| o.id).collect();
    DetRng::new(cfg.seed, "traffic/ranks").shuffle(&mut by_rank);

    // Orbit-aware placement: one slot-keyed plan per shell, materialized
    // to pinned global slots per popularity rank. An object belongs to
    // shell `rank % shells`; the copy budget is split across shells in
    // proportion to their demand mass (largest remainder, deterministic
    // ties by shell index), so equal budgets stay comparable across shell
    // counts. Built once on the calling thread and shared read-only.
    let pinned_global: Vec<Vec<u32>> = if let Some(spec) = &cfg.placement {
        let mass: Vec<f64> = (0..cfg.catalog_size)
            .map(|r| 1.0 / ((r + 1) as f64).powf(cfg.zipf_alpha))
            .collect();
        let shell_mass: Vec<f64> = (0..shells)
            .map(|k| mass.iter().skip(k).step_by(shells).sum())
            .collect();
        let total_mass: f64 = shell_mass.iter().sum();
        let share = |k: usize| spec.copy_budget as f64 * shell_mass[k] / total_mass;
        let mut budgets: Vec<usize> = (0..shells).map(|k| share(k).floor() as usize).collect();
        let mut left = spec.copy_budget.saturating_sub(budgets.iter().sum());
        let mut order: Vec<usize> = (0..shells).collect();
        order.sort_by(|&a, &b| {
            let (fa, fb) = (share(a) - share(a).floor(), share(b) - share(b).floor());
            fb.partial_cmp(&fa).expect("finite shares").then(a.cmp(&b))
        });
        for k in order {
            if left == 0 {
                break;
            }
            budgets[k] += 1;
            left -= 1;
        }
        let mut pinned: Vec<Vec<u32>> = vec![Vec::new(); cfg.catalog_size];
        for (k, sc) in scenarios.iter().enumerate() {
            let constellation = sc.network().constellation();
            let mut shell_masses = vec![0.0; cfg.catalog_size];
            for r in (k..cfg.catalog_size).step_by(shells) {
                shell_masses[r] = mass[r];
            }
            let plan = PlacementPlan::builder(spec.strategy)
                .seed(cfg.seed)
                .copy_budget(budgets[k])
                .per_object_cap(spec.per_object_cap)
                .build_for_catalog(constellation, &shell_masses);
            for r in (k..cfg.catalog_size).step_by(shells) {
                let mut slots: Vec<u32> = plan
                    .sats_of(r, constellation)
                    .into_iter()
                    .map(|sat| shell_offsets[k] + sat.0)
                    .collect();
                slots.sort_unstable();
                slots.dedup();
                pinned[r] = slots;
            }
        }
        pinned
    } else {
        Vec::new()
    };
    let ground_tiers = cfg.placement.as_ref().is_some_and(|s| s.ground_tiers);
    let tier_latencies = TierLatencies::typical();
    let tier_surcharge = [
        Latency::ZERO,
        tier_latencies.edge_to_regional,
        tier_latencies.edge_to_regional + tier_latencies.regional_to_origin,
    ];

    let weight_cdf: Vec<u64> = sources
        .iter()
        .scan(0u64, |acc, s| {
            *acc += u64::from(s.weight);
            Some(*acc)
        })
        .collect();

    let duty = DutyCycler::new(cfg.duty_fraction, cfg.duty_slot, cfg.seed);
    let cache_bytes = (cfg.cache_bytes_per_sat / cfg.streams as u64).max(1);
    let horizon = cfg.start + cfg.epoch_step.mul(cfg.epochs as u64);
    let access = scenarios[0].network().access();

    let _span = SHARD_FAN_OUT_NS.timer();
    par_map_indices(cfg.streams, |s| {
        // This stream's catalog shard: global ranks whose content id
        // falls in residue class `s`.
        let ranks: Vec<usize> = (0..cfg.catalog_size)
            .filter(|&r| by_rank[r].0 as usize % cfg.streams == s)
            .collect();
        let shard_ids: Vec<ContentId> = ranks.iter().map(|&r| by_rank[r]).collect();
        let sizes: Vec<u64> = shard_ids
            .iter()
            .map(|&id| catalog.get(id).expect("catalog id").size_bytes)
            .collect();
        let rank_of: HashMap<ContentId, u32> = shard_ids
            .iter()
            .enumerate()
            .map(|(i, &id)| (id, i as u32))
            .collect();
        let sampler = ZipfSampler::over_ranks(&ranks, cfg.zipf_alpha);
        let quota = cfg.requests / cfg.streams as u64
            + u64::from((s as u64) < cfg.requests % cfg.streams as u64);

        // This shard's slice of the pinned plan, in shard-rank order, and
        // dense candidate ids pre-assigned to every distinct pinned slot
        // (pinned replicas are serving candidates from request one, before
        // any pull-through fill would have minted their ids).
        let pinned: Vec<Vec<u32>> = if pinned_global.is_empty() {
            vec![Vec::new(); shard_ids.len()]
        } else {
            ranks.iter().map(|&r| pinned_global[r].clone()).collect()
        };
        let mut dense_of = vec![u16::MAX; total_sats as usize];
        let mut next_dense: u16 = 0;
        for list in &pinned {
            for &g in list {
                if dense_of[g as usize] == u16::MAX {
                    dense_of[g as usize] = next_dense;
                    next_dense += 1;
                }
            }
        }
        let dense_cap = sources.len() * cfg.epochs + next_dense as usize;
        assert!(
            dense_cap < u16::MAX as usize,
            "dense candidate ids must fit u16"
        );

        let mut world = ShardWorld {
            service_rng: DetRng::new(cfg.seed, &format!("traffic/service/{s}")),
            fleet: PolicyFleet::new(cfg.policy, total_sats as usize, cache_bytes, cfg.ttl),
            holders: vec![Vec::new(); shard_ids.len()],
            pinned,
            coop,
            ground: ground_tiers.then(|| {
                CacheHierarchy::new(
                    GROUND_EDGES,
                    (GROUND_EDGE_BYTES / cfg.streams as u64).max(1),
                    (GROUND_REGIONAL_BYTES / cfg.streams as u64).max(1),
                    tier_latencies,
                )
            }),
            tier_surcharge,
            holder_removals: vec![1; shard_ids.len()],
            rank_of,
            expiries: VecDeque::new(),
            ctxs: (0..sources.len()).map(|_| None).collect(),
            memos: MemoArena::new(
                sources.len(),
                shard_ids.len(),
                coop as usize + cfg.escalation.len(),
            ),
            next_gen: 1,
            slot_cost: vec![(0, Latency::ZERO, u32::MAX); sources.len() * dense_cap],
            dense_of,
            next_dense,
            dense_cap,
            epoch: 0,
            report: TrafficReport {
                per_shell: vec![ShellTraffic::default(); shells],
                decision_digest: DIGEST_BASIS,
                ..TrafficReport::default()
            },
            batches_formed: 0,
            latency_local: LocalHistogram::new(),
            dropped: Vec::new(),
            shard_ids: &shard_ids,
            sizes: &sizes,
            catalog: &catalog,
            graphs: &graphs,
            geos: &geos,
            shell_offsets: &shell_offsets,
            shell_of: &shell_of,
            sources,
            duty: &duty,
            cfg,
            access,
        };

        let arrivals = ArrivalStream::starting_at(
            cfg.seed,
            s,
            &weight_cdf,
            &sampler,
            cfg.start,
            horizon,
            quota,
        );
        let ticks = FixedTicks::new(cfg.start, cfg.epoch_step, 1, cfg.epochs as u64);
        // Epoch ticks are the tie-winning stream: a boundary and an
        // arrival at the same instant swap the snapshot first, matching
        // the heap scheduler's FIFO order when boundaries are scheduled
        // up front.
        let mut stream = Merged::new(ticks, arrivals);
        let fired = drive(&mut world, &mut stream, horizon, |w, t, ev| match ev {
            MergedEvent::First(e) => w.epoch_start(e as usize),
            MergedEvent::Second(a) => w.arrival(t, a),
        });
        debug_assert_eq!(
            fired,
            quota + cfg.epochs as u64 - 1,
            "stream {s} must meet its quota"
        );

        // End-of-stream accounting: retire the last epoch's batches,
        // sample final cache occupancy, and fold the fleet's eviction
        // and expiry counters into the report.
        for slot in world.ctxs.iter_mut() {
            if let Some(ctx) = slot.take() {
                BATCH_REQUESTS.record(ctx.requests);
            }
        }
        let mut occupied = Vec::new();
        world.fleet.occupied_into(&mut occupied);
        for (_, _, bytes) in occupied {
            CACHE_OCCUPANCY.record(bytes);
        }
        world.report.evictions = world.fleet.stats().evictions;
        world.report.ttl_expiries = world.fleet.expired_purges();

        // Telemetry flush: the hot loop only touches plain shard-local
        // tallies; the shared registry sees one bulk add per metric per
        // shard. Every arrival either formed a context or reused one.
        let r = &world.report;
        REQUESTS.add(r.requests);
        HITS_OVERHEAD.add(r.overhead_hits);
        HITS_ISL.add(r.isl_hits);
        HITS_PINNED.add(r.pinned_hits);
        HITS_NEIGHBOR.add(r.neighbor_hits);
        ORIGIN_FETCHES.add(r.origin_fetches);
        DEAD_ZONES.add(r.dead_zones);
        INSERTS.add(r.inserts);
        EVICTIONS.add(r.evictions);
        TTL_EXPIRIES.add(r.ttl_expiries);
        BATCHES_FORMED.add(world.batches_formed);
        BATCH_TABLE_REUSES.add(r.requests - world.batches_formed);
        LATENCY_US.merge_local(&world.latency_local);
        ShardRun {
            report: world.report,
            memos: world.memos.len(),
        }
    })
}

/// Single-shell convenience wrapper over [`run_traffic_multishell`]:
/// drive `cfg.requests` requests from `sources` through one scenario's
/// constellation and fault schedule.
///
/// # Panics
/// Panics on the same invalid inputs as [`run_traffic_multishell`].
pub fn run_traffic(
    scenario: &mut Scenario,
    sources: &[TrafficSource],
    cfg: &TrafficConfig,
) -> TrafficReport {
    run_traffic_multishell(std::slice::from_mut(scenario), sources, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::LsnNetwork;
    use spacecdn_lsn::{AccessModel, FaultSchedule};
    use spacecdn_orbit::shell::shells;
    use spacecdn_orbit::{Constellation, MultiConstellation};
    use spacecdn_terra::fiber::FiberModel;

    fn small_scenario(schedule: FaultSchedule) -> Scenario {
        Scenario::builder(LsnNetwork::new(
            Constellation::new(shells::starlink_shell1()),
            Vec::new(),
            AccessModel::default(),
            FiberModel::default(),
        ))
        .schedule(schedule)
        .build()
    }

    fn shell_scenarios() -> Vec<Scenario> {
        MultiConstellation::starlink_2024()
            .shells()
            .iter()
            .map(|shell| {
                Scenario::builder(LsnNetwork::new(
                    Constellation::new(*shell.config()),
                    Vec::new(),
                    AccessModel::default(),
                    FiberModel::default(),
                ))
                .build()
            })
            .collect()
    }

    fn test_sources(epochs: usize) -> Vec<TrafficSource> {
        [
            (40.4, -3.7, 6u32),
            (-25.97, 32.57, 2),
            (51.5, -0.13, 9),
            (-1.29, 36.82, 4),
            (35.68, 139.69, 10),
        ]
        .into_iter()
        .map(|(lat, lon, weight)| TrafficSource {
            position: Geodetic::ground(lat, lon),
            weight,
            fallback_rtt: vec![Latency::from_ms(140.0); epochs],
        })
        .collect()
    }

    fn quick_cfg() -> TrafficConfig {
        TrafficConfig {
            requests: 3_000,
            streams: 4,
            epochs: 2,
            catalog_size: 500,
            cache_bytes_per_sat: 256 << 20,
            ..TrafficConfig::default()
        }
    }

    #[test]
    fn caches_warm_and_hit_ratio_climbs() {
        let cfg = quick_cfg();
        let mut sc = small_scenario(FaultSchedule::none());
        let report = run_traffic(&mut sc, &test_sources(cfg.epochs), &cfg);
        assert_eq!(report.requests, cfg.requests);
        assert!(report.inserts > 0, "pull-through must fill caches");
        assert!(
            report.hit_ratio() > 0.2,
            "warm Zipf demand must hit: {}",
            report.hit_ratio()
        );
        assert!(report.origin_fetches > 0, "cold start must miss");
        assert_eq!(
            report.overhead_hits + report.isl_hits + report.origin_fetches,
            report.requests
        );
        assert_eq!(report.latencies.len() as u64, report.requests);
        assert!(report.origin_offload() > 0.0);
        assert_eq!(report.per_shell.len(), 1, "single shell, single slice");
        assert_eq!(report.per_shell[0].overhead_hits, report.overhead_hits);
        assert_eq!(report.per_shell[0].isl_hits, report.isl_hits);
        assert_eq!(report.per_shell[0].inserts, report.inserts);
    }

    #[test]
    fn capacity_pressure_causes_evictions() {
        let cfg = TrafficConfig {
            // Tiny caches: a handful of assets fill a satellite.
            cache_bytes_per_sat: 4 << 20,
            ..quick_cfg()
        };
        let mut sc = small_scenario(FaultSchedule::none());
        let report = run_traffic(&mut sc, &test_sources(cfg.epochs), &cfg);
        assert!(
            report.evictions > 0,
            "tiny caches must evict under Zipf load"
        );
    }

    #[test]
    fn short_ttl_expires_entries() {
        let cfg = TrafficConfig {
            ttl: SimDuration::from_secs(20),
            ..quick_cfg()
        };
        let mut sc = small_scenario(FaultSchedule::none());
        let report = run_traffic(&mut sc, &test_sources(cfg.epochs), &cfg);
        assert!(
            report.ttl_expiries > 0,
            "20s TTL over 314s must expire entries"
        );
        // Expiry forces re-fetch: a long-TTL run hits strictly more.
        let long = TrafficConfig {
            ttl: SimDuration::from_mins(60),
            ..quick_cfg()
        };
        let mut sc2 = small_scenario(FaultSchedule::none());
        let long_report = run_traffic(&mut sc2, &test_sources(long.epochs), &long);
        assert!(
            long_report.hit_ratio() > report.hit_ratio(),
            "long TTL {} must beat short TTL {}",
            long_report.hit_ratio(),
            report.hit_ratio()
        );
    }

    #[test]
    fn fault_schedule_invalidates_failed_satellites() {
        let cfg = quick_cfg();
        let mut rng = DetRng::new(5, "traffic/faults");
        let mut schedule = FaultSchedule::none();
        // A third of the fleet dies between epoch 0 and epoch 1.
        schedule.random_sat_outages(
            1584,
            0.33,
            SimDuration::from_secs(60),
            SimDuration::from_mins(30),
            &mut rng,
        );
        let mut sc = small_scenario(schedule);
        let report = run_traffic(&mut sc, &test_sources(cfg.epochs), &cfg);
        assert!(
            report.invalidations > 0,
            "failed satellites must drop their contents"
        );

        let mut pristine = small_scenario(FaultSchedule::none());
        let pristine_report = run_traffic(&mut pristine, &test_sources(cfg.epochs), &cfg);
        assert_eq!(pristine_report.invalidations, 0);
        assert!(
            pristine_report.hit_ratio() >= report.hit_ratio(),
            "faults must not improve the hit ratio: {} vs {}",
            pristine_report.hit_ratio(),
            report.hit_ratio()
        );
    }

    #[test]
    fn duty_cycle_throttles_cache_fills() {
        let full = quick_cfg();
        let mut sc = small_scenario(FaultSchedule::none());
        let full_report = run_traffic(&mut sc, &test_sources(full.epochs), &full);

        let throttled = TrafficConfig {
            duty_fraction: 0.2,
            ..quick_cfg()
        };
        let mut sc2 = small_scenario(FaultSchedule::none());
        let throttled_report = run_traffic(&mut sc2, &test_sources(throttled.epochs), &throttled);
        assert!(
            throttled_report.inserts < full_report.inserts,
            "20% duty cycle must skip fills: {} vs {}",
            throttled_report.inserts,
            full_report.inserts
        );
        assert!(
            throttled_report.hit_ratio() < full_report.hit_ratio(),
            "fewer fills must mean fewer hits: {} vs {}",
            throttled_report.hit_ratio(),
            full_report.hit_ratio()
        );
    }

    #[test]
    fn stream_count_changes_partition_not_totals() {
        // Different stream counts are different (valid) workload
        // partitions; both must meet the exact request quota.
        for streams in [1usize, 3] {
            let cfg = TrafficConfig {
                streams,
                requests: 1_000,
                epochs: 2,
                catalog_size: 300,
                ..TrafficConfig::default()
            };
            let mut sc = small_scenario(FaultSchedule::none());
            let report = run_traffic(&mut sc, &test_sources(cfg.epochs), &cfg);
            assert_eq!(report.requests, 1_000, "streams={streams}");
        }
    }

    #[test]
    fn full_constellation_attributes_traffic_to_shells() {
        let cfg = quick_cfg();
        let mut scs = shell_scenarios();
        let report = run_traffic_multishell(&mut scs, &test_sources(cfg.epochs), &cfg);
        assert_eq!(report.requests, cfg.requests);
        assert_eq!(report.per_shell.len(), 4, "Starlink 2024 has four shells");
        assert_eq!(
            report
                .per_shell
                .iter()
                .map(|s| s.overhead_hits)
                .sum::<u64>(),
            report.overhead_hits
        );
        assert_eq!(
            report.per_shell.iter().map(|s| s.isl_hits).sum::<u64>(),
            report.isl_hits
        );
        assert_eq!(
            report.per_shell.iter().map(|s| s.inserts).sum::<u64>(),
            report.inserts
        );
        assert!(
            report.per_shell.iter().filter(|s| s.inserts > 0).count() >= 2,
            "pull-through fills should land on multiple shells: {:?}",
            report.per_shell
        );
        assert!(
            report.hit_ratio() > 0.2,
            "four shells of caches must hit at least as well as one: {}",
            report.hit_ratio()
        );
    }

    #[test]
    fn more_shells_never_hurt_service() {
        // The same demand against the full constellation can only add
        // servable candidates relative to Shell 1 alone.
        let cfg = quick_cfg();
        let mut one = small_scenario(FaultSchedule::none());
        let single = run_traffic(&mut one, &test_sources(cfg.epochs), &cfg);
        let mut scs = shell_scenarios();
        let multi = run_traffic_multishell(&mut scs, &test_sources(cfg.epochs), &cfg);
        assert!(
            multi.dead_zones <= single.dead_zones,
            "extra shells cannot create dead zones: {} vs {}",
            multi.dead_zones,
            single.dead_zones
        );
    }

    #[test]
    fn memo_arena_grows_with_requests_not_pairs() {
        // 200 sources × a 20k catalog: a million (source, rank) pairs per
        // shard against a thousand requests. Every memo is a touched pair,
        // so no shard may hold more memos than it served requests.
        let sources: Vec<TrafficSource> = (0..200)
            .map(|i| TrafficSource {
                position: Geodetic::ground(
                    -55.0 + (i % 20) as f64 * 5.5,
                    -180.0 + (i / 20) as f64 * 36.0,
                ),
                weight: 1 + (i % 7) as u32,
                fallback_rtt: vec![Latency::from_ms(140.0); 2],
            })
            .collect();
        let cfg = TrafficConfig {
            requests: 4_000,
            catalog_size: 20_000,
            zipf_alpha: 0.7,
            cache_bytes_per_sat: 16 << 20,
            ..quick_cfg()
        };
        let mut sc = small_scenario(FaultSchedule::none());
        let shards = run_shards(std::slice::from_mut(&mut sc), &sources, &cfg);
        assert_eq!(shards.len(), cfg.streams);
        for (s, shard) in shards.iter().enumerate() {
            let served = shard.report.requests - shard.report.dead_zones;
            assert!(shard.memos > 0, "shard {s} touched no pair");
            assert!(
                shard.memos as u64 <= served,
                "shard {s}: {} memos for {served} servable requests",
                shard.memos
            );
        }

        // Repeated pairs reuse their memo instead of appending another.
        let cfg = quick_cfg();
        let mut sc = small_scenario(FaultSchedule::none());
        let shards = run_shards(std::slice::from_mut(&mut sc), &test_sources(2), &cfg);
        let memos: usize = shards.iter().map(|r| r.memos).sum();
        let served: u64 = shards
            .iter()
            .map(|r| r.report.requests - r.report.dead_zones)
            .sum();
        assert!(
            (memos as u64) < served,
            "hot pairs must share memos: {memos} memos for {served} requests"
        );
    }

    #[test]
    fn resolve_overheads_matches_on_demand_lookups() {
        use spacecdn_lsn::{FaultPlan, SourceTables};
        // Madrid twice: duplicate users share one overhead task.
        let mut users: Vec<Geodetic> = test_sources(1).iter().map(|s| s.position).collect();
        users.push(users[0]);
        let uncut = |_, _| Latency(f64::INFINITY);
        let check = |graphs: &[&IslGraph]| {
            let resolved = resolve_overheads(graphs, &users, 10, uncut);
            // Full tables for the same users: a cached full table then
            // answers the ball lookups above it.
            let full = resolve_overheads(graphs, &users, u32::MAX, uncut);
            assert_eq!(resolved.len(), graphs.len());
            for ((graph, row), full_row) in graphs.iter().zip(&resolved).zip(&full) {
                assert_eq!(row.len(), users.len());
                for ((&user, got), got_full) in users.iter().zip(row).zip(full_row) {
                    match (graph.nearest_alive(user), got) {
                        (Some((sat, slant)), Some(o)) => {
                            assert_eq!(o.sat, sat);
                            assert_eq!(o.slant.0.to_bits(), slant.0.to_bits());
                            let want = RoutingBall::compute(graph, sat, 10, None);
                            let full = SourceTables::compute(graph, sat);
                            let o_full = got_full.as_ref().expect("same overhead");
                            for s in (0..graph.len() as u32).map(SatIndex) {
                                assert_eq!(o.tables.hops(s), want.hops(s));
                                assert_eq!(o.tables.km(s), want.km(s));
                                assert_eq!(o_full.tables.hops(s), full.hops[s.as_usize()]);
                                assert_eq!(o_full.tables.km(s), full.km[s.as_usize()]);
                            }
                        }
                        (None, None) => {}
                        (want, got) => panic!(
                            "overhead mismatch: want {want:?}, got {:?}",
                            got.as_ref().map(|o| o.sat)
                        ),
                    }
                }
                if let (Some(first), Some(dup)) = (&row[0], &row[users.len() - 1]) {
                    assert!(RoutingBall::ptr_eq(&first.tables, &dup.tables));
                }
            }
            resolved
        };

        // Pristine, faulted, and a graph where no satellite can serve
        // ground, so every user is in a dead zone.
        let c = Constellation::new(shells::starlink_shell1());
        let pristine = IslGraph::build(&c, SimTime::EPOCH, &FaultPlan::none());
        let mut faults = FaultPlan::none();
        faults.fail_random_sats(c.len(), 0.2, &mut DetRng::new(3, "overheads"));
        let faulted = IslGraph::build(&c, SimTime::from_secs(97), &faults);
        let mut dark = FaultPlan::none();
        for sat in c.sat_indices() {
            dark.fail_gsl(sat);
        }
        let dark = IslGraph::build(&c, SimTime::EPOCH, &dark);
        let resolved = check(&[&pristine, &faulted, &dark]);
        assert!(resolved[0].iter().all(Option::is_some));
        assert!(resolved[2].iter().all(Option::is_none));

        // The 64-satellite test shell.
        let small = Constellation::new(shells::test_shell());
        let small = IslGraph::build(&small, SimTime::EPOCH, &FaultPlan::none());
        check(&[&small]);
    }

    #[test]
    fn fallback_cut_keeps_every_entry_that_could_serve() {
        use spacecdn_lsn::{FaultPlan, SourceTables};
        // Users spread over two continents, three of them homed together
        // (Madrid and two points beside it) with different fallbacks, so
        // one task's cut merges users; fallbacks from 25 ms up cut walks
        // hard.
        let mut users: Vec<Geodetic> = test_sources(1).iter().map(|s| s.position).collect();
        users.push(Geodetic::ground(40.41, -3.71));
        users.push(Geodetic::ground(40.39, -3.69));
        let fallback_of = |ui: usize| Latency::from_ms(25.0 + 17.0 * ui as f64);
        let c = Constellation::new(shells::starlink_shell1());
        let mut faults = FaultPlan::none();
        faults.fail_random_sats(c.len(), 0.1, &mut DetRng::new(5, "cut"));
        let mut dropped = 0usize;
        for (t, plan) in [(0u64, FaultPlan::none()), (211, faults)] {
            let graph = IslGraph::build(&c, SimTime::from_secs(t), &plan);
            let resolved = resolve_overheads(&[&graph], &users, 10, |_, ui| fallback_of(ui));
            for (ui, o) in resolved[0].iter().enumerate() {
                let o = o.as_ref().expect("Shell 1 covers every user");
                let user_prop = propagation_delay(o.slant, Medium::Vacuum).round_trip();
                let full = SourceTables::compute(&graph, o.sat);
                for s in (0..graph.len() as u32).map(SatIndex) {
                    let (km, route) = full.km[s.as_usize()];
                    let h = full.hops[s.as_usize()];
                    if h > 10 {
                        assert_eq!(o.tables.hops(s), u32::MAX);
                        continue;
                    }
                    let floor = user_prop + propagation_delay(Km(km), Medium::Vacuum).round_trip();
                    if o.tables.hops(s) == u32::MAX {
                        // Dropped: could never beat this user's fallback.
                        assert!(floor > fallback_of(ui), "user {ui} lost sat {s:?}");
                        assert_eq!(o.tables.km(s), (f64::INFINITY, u32::MAX));
                        dropped += 1;
                    } else {
                        assert_eq!(o.tables.hops(s), h);
                        assert_eq!(o.tables.km(s).0.to_bits(), km.to_bits());
                        assert_eq!(o.tables.km(s).1, route);
                    }
                }
            }
        }
        assert!(dropped > 0, "no fallback cut ever fired");
    }

    #[test]
    #[should_panic(expected = "one fallback RTT per epoch")]
    fn mismatched_fallback_length_panics() {
        let cfg = quick_cfg();
        let mut sc = small_scenario(FaultSchedule::none());
        let sources = test_sources(cfg.epochs + 1);
        run_traffic(&mut sc, &sources, &cfg);
    }

    use crate::placement::{PlacementSpec, PlacementStrategy};

    fn placed_cfg(spec: &str) -> TrafficConfig {
        TrafficConfig {
            placement: Some(PlacementSpec::parse(spec).expect("valid spec")),
            ..quick_cfg()
        }
    }

    #[test]
    fn pinned_replicas_serve_from_request_one() {
        let base = TrafficConfig {
            placement: None,
            ..quick_cfg()
        };
        let mut sc = small_scenario(FaultSchedule::none());
        let baseline = run_traffic(&mut sc, &test_sources(base.epochs), &base);

        let cfg = placed_cfg("perplane-4:budget-4000:cap-64");
        let mut sc2 = small_scenario(FaultSchedule::none());
        let placed = run_traffic(&mut sc2, &test_sources(cfg.epochs), &cfg);

        assert!(placed.pinned_hits > 0, "plan copies must serve");
        assert_eq!(
            placed.overhead_hits + placed.isl_hits + placed.origin_fetches,
            placed.requests
        );
        assert!(
            placed.pinned_hits <= placed.overhead_hits + placed.isl_hits,
            "pinned hits are a subset of space hits"
        );
        assert!(
            placed.hit_ratio() > baseline.hit_ratio(),
            "pre-seeded copies must beat a cold start: {} vs {}",
            placed.hit_ratio(),
            baseline.hit_ratio()
        );
        assert_eq!(baseline.pinned_hits, 0);
        assert_eq!(baseline.neighbor_hits, 0);
    }

    #[test]
    fn cooperative_lookup_serves_neighbor_probes() {
        let plain = placed_cfg("perplane-4:budget-4000:cap-64");
        let mut sc = small_scenario(FaultSchedule::none());
        let without = run_traffic(&mut sc, &test_sources(plain.epochs), &plain);

        let coop = placed_cfg("perplane-4:budget-4000:cap-64:coop");
        let mut sc2 = small_scenario(FaultSchedule::none());
        let with = run_traffic(&mut sc2, &test_sources(coop.epochs), &coop);

        assert_eq!(without.neighbor_hits, 0);
        assert!(with.neighbor_hits > 0, "the +Grid probe must serve");
        assert!(
            with.neighbor_hits <= with.isl_hits,
            "neighbor hits ride the ISL accounting"
        );
        // The probe only reprices one-hop fetches cheaper and reorders
        // nothing else, so space service cannot degrade.
        assert!(
            with.hit_ratio() >= without.hit_ratio(),
            "coop cannot lose hits: {} vs {}",
            with.hit_ratio(),
            without.hit_ratio()
        );
    }

    #[test]
    fn ground_tiers_partition_origin_fetches() {
        let cfg = placed_cfg("perplane-2:budget-500:cap-16:tiers");
        let mut sc = small_scenario(FaultSchedule::none());
        let report = run_traffic(&mut sc, &test_sources(cfg.epochs), &cfg);
        assert!(report.origin_fetches > 0);
        assert_eq!(
            report.ground_edge_hits + report.ground_regional_hits + report.ground_origin_hits,
            report.origin_fetches,
            "every ground serve lands on exactly one tier"
        );
        assert!(
            report.ground_edge_hits > 0,
            "warm ground edges must absorb repeats"
        );
        // Tier surcharges only ever add latency over the flat fallback.
        let flat = TrafficConfig {
            placement: Some(PlacementSpec::parse("perplane-2:budget-500:cap-16").unwrap()),
            ..quick_cfg()
        };
        let mut sc2 = small_scenario(FaultSchedule::none());
        let flat_report = run_traffic(&mut sc2, &test_sources(flat.epochs), &flat);
        let (mut a, mut b) = (report.latencies.clone(), flat_report.latencies.clone());
        assert!(
            a.quantile(1.0).unwrap() >= b.quantile(1.0).unwrap(),
            "tiers cannot serve faster than the flat fallback"
        );
    }

    #[test]
    fn decision_digest_pins_the_trace() {
        let cfg = placed_cfg("cover-3:budget-2000:cap-32:coop");
        let mut sc = small_scenario(FaultSchedule::none());
        let a = run_traffic(&mut sc, &test_sources(cfg.epochs), &cfg);
        let mut sc2 = small_scenario(FaultSchedule::none());
        let b = run_traffic(&mut sc2, &test_sources(cfg.epochs), &cfg);
        assert_eq!(a.decision_digest, b.decision_digest, "same run, same trace");
        assert_ne!(a.decision_digest, 0);

        let other = placed_cfg("cover-3:budget-2000:cap-32");
        let mut sc3 = small_scenario(FaultSchedule::none());
        let c = run_traffic(&mut sc3, &test_sources(other.epochs), &other);
        assert_ne!(
            a.decision_digest, c.decision_digest,
            "different decisions, different digest"
        );
    }

    #[test]
    fn placement_spec_strategies_all_run() {
        for strat in [
            PlacementStrategy::PerPlane { k: 2 },
            PlacementStrategy::RandomFraction { fraction: 0.1 },
            PlacementStrategy::RandomCount { count: 100 },
            PlacementStrategy::CoverRadius { hops: 4 },
        ] {
            let cfg = TrafficConfig {
                placement: Some(PlacementSpec {
                    copy_budget: 1_000,
                    ..PlacementSpec::new(strat)
                }),
                requests: 1_000,
                ..quick_cfg()
            };
            let mut sc = small_scenario(FaultSchedule::none());
            let report = run_traffic(&mut sc, &test_sources(cfg.epochs), &cfg);
            assert_eq!(report.requests, 1_000, "{strat:?}");
            assert!(report.pinned_hits > 0, "{strat:?} must serve pinned copies");
        }
    }

    #[test]
    fn multishell_placement_splits_budget_across_shells() {
        let cfg = TrafficConfig {
            placement: Some(PlacementSpec::parse("perplane-4:budget-6000:cap-64:coop").unwrap()),
            ..quick_cfg()
        };
        let mut scs = shell_scenarios();
        let report = run_traffic_multishell(&mut scs, &test_sources(cfg.epochs), &cfg);
        assert_eq!(report.requests, cfg.requests);
        assert!(report.pinned_hits > 0);
        assert_eq!(
            report.overhead_hits + report.isl_hits + report.origin_fetches,
            report.requests
        );
    }
}
