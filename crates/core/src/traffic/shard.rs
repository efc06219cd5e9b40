//! One catalog shard's simulation and the burst's shard fan-out.

use super::arrivals::{Arrival, ArrivalStream};
use super::geometry::{resolve_overheads, BatchGeo, CandidateTable, EpochGeo};
use super::{validate, ShellTraffic, TrafficConfig, TrafficReport, TrafficSource};
use crate::duty_cycle::DutyCycler;
use crate::ladder::{self, RungBest};
use crate::placement::PlacementPlan;
use crate::scenario::Scenario;
use spacecdn_content::catalog::{Catalog, ContentId};
use spacecdn_content::hierarchy::{CacheHierarchy, ServedBy, TierLatencies};
use spacecdn_content::policy::PolicyFleet;
use spacecdn_content::popularity::ZipfSampler;
use spacecdn_des::stream::{drive, FixedTicks, Merged, MergedEvent};
use spacecdn_engine::par_map_indices;
use spacecdn_geo::{DetRng, Geodetic, Latency, SimTime};
use spacecdn_lsn::{AccessModel, IslGraph};
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
/// `table_reuses` counts requests that reused an existing context
/// instead of forming one.
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

/// Wall time of each burst's geometry assembly — every (epoch, source)
/// [`BatchGeo`] and every epoch's candidate table, built from the
/// [`resolve_overheads`] rows (racy: a clock reading).
static GEOMETRY_NS: LazyHistogram = LazyHistogram::racy("core.traffic.geometry_ns", Unit::Nanos);

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
    /// order; their ids are global slots tagged with [`PIN_FLAG`].
    bests: Vec<RungBest<u32>>,
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
    fn entry(&mut self, si: usize, rank: usize) -> (&mut RankMemo, &mut [RungBest<u32>]) {
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

/// Shard-local rank → global satellite slots holding a live copy.
/// Maintained eagerly: pruned on eviction, TTL lapse, and epoch
/// invalidation, so the serve-path scan needs no freshness probes.
struct Holders {
    lists: Vec<Vec<u32>>,
    /// Per-rank count of holder *removals* (evictions, TTL lapses,
    /// invalidations), starting at 1; appends are tracked by list length
    /// instead, so scan memos survive them (see [`RankMemo`]).
    removals: Vec<u32>,
    rank_of: HashMap<ContentId, u32>,
}

impl Holders {
    /// Drop `slot` from `content`'s holder list (order-insensitive) and
    /// invalidate every memo built over the old membership.
    fn prune(&mut self, content: ContentId, slot: u32) {
        let rank = self.rank_of[&content] as usize;
        let hs = &mut self.lists[rank];
        if let Some(p) = hs.iter().position(|&g| g == slot) {
            hs.swap_remove(p);
            self.removals[rank] = self.removals[rank].wrapping_add(1);
        }
    }
}

/// Mutable state of one catalog shard's simulation.
struct ShardWorld<'a> {
    service_rng: DetRng,
    fleet: PolicyFleet,
    holders: Holders,
    /// Shard-local rank → plan-pinned replica slots. Pinned copies live
    /// outside the policy fleet: they never evict, never expire, and
    /// survive outages (a dead pinned satellite is simply unreachable —
    /// it has no candidate-table entry — until it returns). Folded
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
    /// The burst's geometry, per epoch.
    geos: &'a [EpochGeo],
    shell_offsets: &'a [u32],
    shell_of: &'a [u8],
    sources: &'a [TrafficSource],
    duty: &'a DutyCycler,
    cfg: &'a TrafficConfig,
    access: &'a AccessModel,
}

impl ShardWorld<'_> {
    /// Apply every TTL lapse due by `t`, keeping holder lists exact.
    fn drain_expiries(&mut self, t: SimTime) {
        while self.expiries.front().is_some_and(|&(e, _, _)| e <= t) {
            let (_, slot, content) = self.expiries.pop_front().expect("checked front");
            if self.fleet.expire_if_due(slot, content) {
                self.holders.prune(content, slot);
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
        let EpochGeo {
            batches,
            candidates,
        } = &geos[self.epoch];
        let geo = &batches[si];

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
        let escalation = &self.cfg.escalation;
        // With cooperative lookup on, rung 0 probes the overhead
        // satellite and its four +Grid neighbors (at digest-probe cost,
        // cheaper than the same hop through the ladder) *before* the
        // hop-budget escalation ladder, which follows shifted by one.
        let rungs0 = self.coop as usize;
        let hs = &self.holders.lists[rank];
        let (memo, bests) = self.memos.entry(si, rank);
        let rebuilt = memo.gen != gen || memo.removals != self.holders.removals[rank];
        if rebuilt {
            bests.fill(None);
            memo.gen = gen;
            memo.removals = self.holders.removals[rank];
            memo.seen = 0;
        }
        if rebuilt || (memo.seen as usize) < hs.len() {
            // Fold candidates into the per-rung bests, in list order:
            // plan-pinned replicas first (only on a rebuild — their list
            // never changes, so a surviving memo already folded them),
            // then the unseen dynamic-holder tail. The kernel keeps the
            // earliest candidate on exact ties, making the scan order
            // part of the deterministic contract, and folding the tail
            // of an unchanged prefix is exactly a full scan of the whole
            // list (see [`ladder::offer`]).
            let pinned_part: &[u32] = if rebuilt { &self.pinned[rank] } else { &[] };
            let tail = &hs[memo.seen as usize..];
            for (i, &g) in pinned_part.iter().chain(tail.iter()).enumerate() {
                let is_pinned = i < pinned_part.len();
                let gstore = if is_pinned { g | PIN_FLAG } else { g };
                let Some((rtt, hops)) = candidates.get(si, g) else {
                    continue;
                };
                if rungs0 == 1 {
                    // Cooperative rung: overhead at its ladder cost, a
                    // +Grid neighbor at probe cost (no switching charge).
                    let cand = if hops == 0 {
                        Some((rtt, 0u32))
                    } else {
                        let shell = self.shell_of[g as usize] as usize;
                        geo.neighbors[shell]
                            .iter()
                            .find(|&&(n, _)| n == g)
                            .map(|&(_, probe)| (probe, 1))
                    };
                    if let Some((crtt, chops)) = cand {
                        ladder::offer(ladder::NEIGHBOR_RUNG, &mut bests[..1], crtt, chops, gstore);
                    }
                }
                ladder::offer(escalation, &mut bests[rungs0..], rtt, hops, gstore);
            }
            memo.seen = hs.len() as u32;
        }

        // Serve at the first rung whose best beats the bent pipe —
        // exactly the resilient escalation ladder, collapsed to one scan
        // (with the cooperative neighborhood probed first when enabled).
        let served = ladder::first_within(bests, jitter, fallback);

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
                        let hs = &mut self.holders.lists[rank];
                        if !hs.contains(&fill) {
                            hs.push(fill);
                        }
                        self.expiries.push_back((t + self.cfg.ttl, fill, content));
                    }
                    while let Some(victim) = self.dropped.pop() {
                        self.holders.prune(victim, fill);
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

    /// Retire every batch context, recording its request count.
    fn retire_batches(&mut self) {
        for ctx in self.ctxs.iter_mut().filter_map(Option::take) {
            BATCH_REQUESTS.record(ctx.requests);
        }
    }

    /// Swap to epoch `e`: retire every batch context (their geometry is
    /// stale) and wipe caches of satellites the fault schedule killed,
    /// draining their holder entries in the same pass.
    fn epoch_start(&mut self, e: usize) {
        self.retire_batches();
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
                        self.holders.prune(id, g);
                    }
                }
            }
        }
    }
}

/// One catalog shard's finished simulation.
pub(super) struct ShardRun {
    pub(super) report: TrafficReport,
    /// Scan memos the shard created: its touched (source, rank) pairs.
    pub(super) memos: usize,
}

/// The body of [`run_traffic_multishell`]: every shard's run, in shard
/// order, before the merge.
pub(super) fn run_shards(
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
    let radius = cfg.escalation[cfg.escalation.len() - 1].max(u32::from(coop));
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
    let access = scenarios[0].network().access();
    // Built on this thread: the build reads every home's ball once and
    // is a few percent of a burst, and tables allocated in fan-out
    // workers and freed here left the next fetch measurably slower.
    let geos: Vec<EpochGeo> = {
        let _span = GEOMETRY_NS.timer();
        graphs
            .iter()
            .zip(overheads.chunks(shells))
            .map(|(epoch_graphs, per_shell)| EpochGeo {
                batches: (0..sources.len())
                    .map(|si| BatchGeo::new(epoch_graphs, per_shell, si, &shell_offsets, coop))
                    .collect(),
                candidates: CandidateTable::build(
                    epoch_graphs,
                    per_shell,
                    sources.len(),
                    &shell_offsets,
                    access,
                ),
            })
            .collect()
    };

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

        // This shard's slice of the pinned plan, in shard-rank order.
        let pinned: Vec<Vec<u32>> = if pinned_global.is_empty() {
            vec![Vec::new(); shard_ids.len()]
        } else {
            ranks.iter().map(|&r| pinned_global[r].clone()).collect()
        };

        let mut world = ShardWorld {
            service_rng: DetRng::new(cfg.seed, &format!("traffic/service/{s}")),
            fleet: PolicyFleet::new(cfg.policy, total_sats as usize, cache_bytes, cfg.ttl),
            holders: Holders {
                lists: vec![Vec::new(); shard_ids.len()],
                removals: vec![1; shard_ids.len()],
                rank_of,
            },
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
            expiries: VecDeque::new(),
            ctxs: (0..sources.len()).map(|_| None).collect(),
            memos: MemoArena::new(
                sources.len(),
                shard_ids.len(),
                coop as usize + cfg.escalation.len(),
            ),
            next_gen: 1,
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
        world.retire_batches();
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::tests::{quick_cfg, small_scenario, test_sources};
    use spacecdn_lsn::FaultSchedule;

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
}
