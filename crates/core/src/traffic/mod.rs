//! The constellation-scale streaming traffic engine: request-driven
//! simulation of Zipf-distributed content demand against warm
//! per-satellite caches across every shell.
//!
//! Everything else in this crate resolves *one* fetch against a fixed
//! copy set. This module runs tens of millions of requests over the full
//! multi-shell constellation in bounded memory and at ≥1M requests per
//! second. Three structural choices make that possible:
//!
//! - **Streaming arrivals.** A Poisson process knows its next event
//!   analytically, so [`ArrivalStream`] generates each shard's arrivals
//!   lazily on the [`spacecdn_des::stream`] core, merged with the epoch
//!   ticks: per-shard memory is O(1) in the request count.
//! - **Flat SoA cache state.** A shard's caches are one [`PolicyFleet`]
//!   (LRU+TTL, SIEVE, S3-FIFO or W-TinyLFU, per [`TrafficConfig::policy`],
//!   each proven decision-identical to a naive reference by the oracle in
//!   `spacecdn-content`) indexed by global satellite slot. Holder lists
//!   are kept exact eagerly (evictions report victims, TTL lapses run off
//!   a timer queue, invalidations drain wiped slots), so the candidate
//!   scan never probes freshness.
//! - **Batched retrieval per (epoch, source).** A source's requests in one
//!   epoch share its overhead satellites, user links and routing balls on
//!   every shard, so a burst resolves them once ([`resolve_overheads`]:
//!   member-sized [`RoutingBall`]s cut at the ladder's top rung and the
//!   ground fallback, memoized in each graph's [`spacecdn_lsn::cache`])
//!   and prices every serving candidate into a read-only `CandidateTable`:
//!   a shard's scan is one bit test per holder and no shard reads a
//!   routing table. A shard keeps a `BatchCtx` per source it serves, which
//!   thousands of requests reuse (`core.traffic.batch.*` telemetry), and
//!   per-rung bests memoized per (source, rank), decided by the crate's
//!   Figure 6 ladder kernel.
//!
//! Module map — `arrivals`: [`ArrivalStream`]; `geometry`: [`Overhead`],
//! [`resolve_overheads`], `BatchGeo`, `CandidateTable`, `EpochGeo`;
//! `shard`: the memo arena, `ShardWorld`, `run_shards`; this module:
//! config, sources, report and merge, `validate`, the entry points.
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
//!
//! [`PolicyFleet`]: spacecdn_content::policy::PolicyFleet
//! [`RoutingBall`]: spacecdn_lsn::RoutingBall
//! [`ZipfSampler::over_ranks`]: spacecdn_content::popularity::ZipfSampler::over_ranks

mod arrivals;
mod geometry;
mod shard;

pub use arrivals::{Arrival, ArrivalStream};
pub use geometry::{resolve_overheads, Overhead};

use crate::ladder;
use crate::placement::PlacementSpec;
use crate::scenario::Scenario;
use shard::run_shards;
pub use spacecdn_content::policy::PolicyKind;
use spacecdn_des::Percentiles;
use spacecdn_geo::{Geodetic, Latency, SimDuration, SimTime};

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
    /// Hop-budget escalation ladder for every fetch (non-empty, strictly
    /// ascending).
    pub escalation: Vec<u32>,
    /// Orbit-aware replica placement: when set, a slot-keyed
    /// [`PlacementPlan`] pre-seeds pinned copies across the shells,
    /// optionally with cooperative +Grid neighbor lookup and a tiered
    /// ground fallback (see [`PlacementSpec`]). Defaults to the
    /// `SPACECDN_PLACEMENT` environment knob (`None` when unset).
    ///
    /// [`PlacementPlan`]: crate::placement::PlacementPlan
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

/// Validate the shared workload inputs (common to both entry points).
fn validate(sources: &[TrafficSource], cfg: &TrafficConfig) {
    assert!(!sources.is_empty(), "traffic needs at least one source");
    ladder::check(&cfg.escalation);
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
/// whose `fallback_rtt` length differs from `cfg.epochs`, a catalog
/// smaller than the stream count, or an escalation ladder that is empty
/// or not strictly ascending.
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

/// Single-shell convenience wrapper over [`run_traffic_multishell`]:
/// drive `cfg.requests` requests from `sources` through one scenario's
/// constellation and fault schedule.
///
/// # Panics
/// Panics on the same invalid inputs as [`run_traffic_multishell`],
/// among them an escalation ladder that is empty or not strictly
/// ascending.
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
    use spacecdn_geo::DetRng;
    use spacecdn_lsn::{AccessModel, FaultSchedule};
    use spacecdn_orbit::shell::shells;
    use spacecdn_orbit::{Constellation, MultiConstellation};
    use spacecdn_terra::fiber::FiberModel;

    pub(super) fn small_scenario(schedule: FaultSchedule) -> Scenario {
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

    pub(super) fn test_sources(epochs: usize) -> Vec<TrafficSource> {
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

    pub(super) fn quick_cfg() -> TrafficConfig {
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
    fn many_sources_times_epochs_complete() {
        // 2,200 sources × 30 epochs = 66,000 (epoch, source) pairs, more
        // than a u16 can count, on the 64-satellite test shell.
        let epochs = 30;
        let sources: Vec<TrafficSource> = (0..2_200)
            .map(|i| TrafficSource {
                position: Geodetic::ground(
                    -50.0 + (i % 50) as f64 * 2.0,
                    -180.0 + (i / 50) as f64 * 8.0,
                ),
                weight: 1,
                fallback_rtt: vec![Latency::from_ms(140.0); epochs],
            })
            .collect();
        let cfg = TrafficConfig {
            requests: 400,
            streams: 2,
            epochs,
            epoch_step: SimDuration::from_secs(20),
            catalog_size: 200,
            ..TrafficConfig::default()
        };
        let mut sc = Scenario::builder(LsnNetwork::new(
            Constellation::new(shells::test_shell()),
            Vec::new(),
            AccessModel::default(),
            FiberModel::default(),
        ))
        .build();
        let report = run_traffic(&mut sc, &sources, &cfg);
        assert_eq!(report.requests, cfg.requests);
        assert_eq!(
            report.overhead_hits + report.isl_hits + report.origin_fetches,
            report.requests
        );
    }

    #[test]
    #[should_panic(expected = "one fallback RTT per epoch")]
    fn mismatched_fallback_length_panics() {
        let cfg = quick_cfg();
        let mut sc = small_scenario(FaultSchedule::none());
        let sources = test_sources(cfg.epochs + 1);
        run_traffic(&mut sc, &sources, &cfg);
    }

    #[test]
    #[should_panic(expected = "escalation ladder must be non-empty and ascending")]
    fn empty_escalation_ladder_panics() {
        let cfg = TrafficConfig {
            escalation: Vec::new(),
            ..quick_cfg()
        };
        let mut sc = small_scenario(FaultSchedule::none());
        run_traffic(&mut sc, &test_sources(cfg.epochs), &cfg);
    }

    #[test]
    #[should_panic(expected = "escalation ladder must be non-empty and ascending")]
    fn descending_escalation_ladder_panics() {
        let cfg = TrafficConfig {
            escalation: vec![5, 1],
            ..quick_cfg()
        };
        let mut sc = small_scenario(FaultSchedule::none());
        run_traffic(&mut sc, &test_sources(cfg.epochs), &cfg);
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
