//! Differential oracle for the placement-integrated traffic engine.
//!
//! The engine serves each request through heavily optimized machinery:
//! batched per-(source, epoch) geometry, jitter-invariant rank memoization
//! with append-only tail folds, a dense per-candidate cost cache, pinned
//! replicas living outside the policy fleet, and a cooperative +Grid
//! neighbor rung spliced in front of the escalation ladder. This suite
//! pins all of that against a deliberately naive reference that rescans
//! *every* candidate (plan-pinned copies first, then live pull-through
//! holders, in list order) from scratch on *every* request, reading the
//! routing tables directly.
//!
//! Both sides replay identical RNG streams (`traffic/catalog`,
//! `traffic/ranks`, `traffic/arrivals/0`, `traffic/service/0`), so with
//! `streams = 1` the engine's decision digest is an arrival-order FNV-1a
//! fold of every request's `(source, serving sat, hops, served-RTT bits)`
//! tuple — if any request is served from a different satellite, at a
//! different hop count, or with a single flipped RTT mantissa bit, the
//! digests diverge. Counters, byte tallies, the hop histogram, and the
//! raw latency samples (compared bit-for-bit) close the remaining gaps.
//!
//! The randomized sweep covers ≥200 cases across shell geometry (single
//! and dual shell), placement strategy (none / orbit-aware / random /
//! covering, with and without cooperative lookup), copy budgets and caps,
//! duty-cycle throttling, fault schedules (pristine, satellite outages,
//! GSL outages, total ground blackout), escalation ladders, epoch counts,
//! non-EPOCH start clocks, and randomized source geometry with per-epoch
//! fallback RTTs.
//!
//! The naive model keeps its holder lists in step with its own
//! `PolicyFleet`, driven by the same calls the engine makes (clock, hit
//! touch, fill, expiry, invalidation), so eviction and TTL lapses prune
//! holders without reimplementing eviction policies (those have their
//! own differential oracle in `spacecdn-content`). The randomized sweep
//! oversizes caches and TTLs, so holder lists change only by pull-through
//! appends and fault invalidations. A second, sparse sweep puts hundreds
//! of sources in front of a catalog of tens of thousands of objects with
//! small evicting caches, so nearly every (source, rank) memo the engine
//! serves from is created on first touch, then rebuilt and pruned.

use spacecdn_suite::content::catalog::{Catalog, ContentId};
use spacecdn_suite::content::policy::PolicyFleet;
use spacecdn_suite::content::popularity::ZipfSampler;
use spacecdn_suite::core::duty_cycle::DutyCycler;
use spacecdn_suite::core::network::LsnNetwork;
use spacecdn_suite::core::placement::{PlacementPlan, PlacementSpec};
use spacecdn_suite::core::retrieval::{neighbor_probe_cost, space_segment_cost};
use spacecdn_suite::core::scenario::Scenario;
use spacecdn_suite::core::traffic::{
    run_traffic_multishell, ArrivalStream, PolicyKind, TrafficConfig, TrafficReport, TrafficSource,
};
use spacecdn_suite::des::stream::EventStream;
use spacecdn_suite::geo::propagation::{propagation_delay, Medium};
use spacecdn_suite::geo::{DetRng, Geodetic, Latency, SimDuration, SimTime};
use spacecdn_suite::lsn::{AccessModel, FaultSchedule, IslGraph, SourceTables};
use spacecdn_suite::orbit::shell::{shells, ShellConfig};
use spacecdn_suite::orbit::{Constellation, SatIndex};
use spacecdn_suite::terra::fiber::FiberModel;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// FNV-1a parameters mirrored from the engine's decision digest.
const DIGEST_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const DIGEST_PRIME: u64 = 0x0000_0100_0000_01B3;

fn fold_decision(digest: &mut u64, source: u32, slot: u32, hops: u32, rtt: Latency) {
    let mut h = *digest;
    for w in [source as u64, slot as u64, hops as u64, rtt.ms().to_bits()] {
        h = (h ^ w).wrapping_mul(DIGEST_PRIME);
    }
    *digest = h;
}

/// A second small Walker shell so dual-shell cases exercise the global
/// slot mapping, per-shell budget split, and cross-shell ladder compare.
fn second_shell() -> ShellConfig {
    ShellConfig {
        altitude_km: 620.0,
        inclination_deg: 70.0,
        plane_count: 6,
        sats_per_plane: 6,
        phase_factor: 1,
    }
}

fn scenarios_for(configs: &[ShellConfig], schedules: &[FaultSchedule]) -> Vec<Scenario> {
    configs
        .iter()
        .zip(schedules)
        .map(|(cfg, schedule)| {
            Scenario::builder(LsnNetwork::new(
                Constellation::new(*cfg),
                Vec::new(),
                AccessModel::default(),
                FiberModel::default(),
            ))
            .schedule(schedule.clone())
            .build()
        })
        .collect()
}

/// Everything the naive reference tallies; the subset of the engine's
/// report that pins every per-request decision.
#[derive(Debug, Default, PartialEq)]
struct NaiveOutcome {
    digest: u64,
    overhead_hits: u64,
    isl_hits: u64,
    pinned_hits: u64,
    neighbor_hits: u64,
    origin_fetches: u64,
    dead_zones: u64,
    served_bytes: u64,
    origin_bytes: u64,
    inserts: u64,
    evictions: u64,
    ttl_expiries: u64,
    invalidations: u64,
    hop_histogram: Vec<u64>,
    latency_bits: Vec<u64>,
}

impl NaiveOutcome {
    fn of_report(r: &TrafficReport) -> NaiveOutcome {
        NaiveOutcome {
            digest: r.decision_digest,
            overhead_hits: r.overhead_hits,
            isl_hits: r.isl_hits,
            pinned_hits: r.pinned_hits,
            neighbor_hits: r.neighbor_hits,
            origin_fetches: r.origin_fetches,
            dead_zones: r.dead_zones,
            served_bytes: r.served_bytes,
            origin_bytes: r.origin_bytes,
            inserts: r.inserts,
            evictions: r.evictions,
            ttl_expiries: r.ttl_expiries,
            invalidations: r.invalidations,
            hop_histogram: r.hop_histogram.clone(),
            latency_bits: r.latencies.samples().iter().map(|l| l.to_bits()).collect(),
        }
    }
}

/// Replicate the engine's pinned-replica layout from the public plan API:
/// budget split across shells by demand mass (largest remainder), one
/// slot-keyed plan per shell, materialized to sorted global slots.
fn pinned_layout(
    spec: &PlacementSpec,
    constellations: &[&Constellation],
    shell_offsets: &[u32],
    cfg: &TrafficConfig,
) -> Vec<Vec<u32>> {
    let shells = constellations.len();
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
    for (k, constellation) in constellations.iter().enumerate() {
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
}

/// Per-shell geometry of one (source, epoch), recomputed from scratch.
struct NaiveShellCtx {
    overhead_slot: u32,
    user_prop: Latency,
    tables: Arc<SourceTables>,
    neighbors: Vec<(u32, Latency)>,
}

/// Drop `slot` from `holders` (order-insensitive, like the engine).
fn prune(holders: &mut Vec<u32>, slot: u32) {
    if let Some(p) = holders.iter().position(|&g| g == slot) {
        holders.swap_remove(p);
    }
}

/// The exhaustive reference: replay the engine's RNG streams and event
/// timeline, but resolve every request by a full candidate scan with no
/// memoization, no batching, and no cost caching.
fn naive_traffic(
    scenarios: &mut [Scenario],
    sources: &[TrafficSource],
    cfg: &TrafficConfig,
) -> NaiveOutcome {
    assert_eq!(cfg.streams, 1, "the oracle pins the single-stream digest");
    assert!(
        !cfg.placement.as_ref().is_some_and(|s| s.ground_tiers),
        "tiered ground fallback is covered by the hierarchy suite"
    );

    // Epoch-major topology snapshots, identical to the engine's freeze.
    let per_shell: Vec<Vec<Arc<IslGraph>>> = scenarios
        .iter_mut()
        .map(|sc| sc.freeze_epochs_from(cfg.start, cfg.epochs, cfg.epoch_step))
        .collect();
    let shells = per_shell.len();
    let graphs: Vec<Vec<Arc<IslGraph>>> = (0..cfg.epochs)
        .map(|e| per_shell.iter().map(|g| Arc::clone(&g[e])).collect())
        .collect();
    let mut shell_offsets = Vec::with_capacity(shells);
    let mut shell_of: Vec<u8> = Vec::new();
    let mut total_sats = 0u32;
    for (k, g) in graphs[0].iter().enumerate() {
        shell_offsets.push(total_sats);
        total_sats += g.len() as u32;
        shell_of.resize(total_sats as usize, k as u8);
    }

    // Demand model: same catalog, rank shuffle, shard sampler (one shard
    // holds everything at streams = 1), and arrival stream as the engine.
    let catalog = Catalog::generate(
        cfg.catalog_size,
        &[],
        0.0,
        &mut DetRng::new(cfg.seed, "traffic/catalog"),
    );
    let mut by_rank: Vec<ContentId> = catalog.objects().iter().map(|o| o.id).collect();
    DetRng::new(cfg.seed, "traffic/ranks").shuffle(&mut by_rank);
    let sizes: Vec<u64> = by_rank
        .iter()
        .map(|&id| catalog.get(id).expect("catalog id").size_bytes)
        .collect();
    let rank_of: HashMap<ContentId, usize> =
        by_rank.iter().enumerate().map(|(r, &id)| (id, r)).collect();
    let all_ranks: Vec<usize> = (0..cfg.catalog_size).collect();
    let sampler = ZipfSampler::over_ranks(&all_ranks, cfg.zipf_alpha);
    let weight_cdf: Vec<u64> = sources
        .iter()
        .scan(0u64, |acc, s| {
            *acc += u64::from(s.weight);
            Some(*acc)
        })
        .collect();
    let horizon = cfg.start + cfg.epoch_step.mul(cfg.epochs as u64);
    let mut arrivals = Vec::with_capacity(cfg.requests as usize);
    let mut stream = ArrivalStream::starting_at(
        cfg.seed,
        0,
        &weight_cdf,
        &sampler,
        cfg.start,
        horizon,
        cfg.requests,
    );
    while let Some(ev) = stream.next_event() {
        arrivals.push(ev);
    }

    let constellations: Vec<&Constellation> = scenarios
        .iter()
        .map(|sc| sc.network().constellation())
        .collect();
    let pinned: Vec<Vec<u32>> = match &cfg.placement {
        Some(spec) => pinned_layout(spec, &constellations, &shell_offsets, cfg),
        None => vec![Vec::new(); cfg.catalog_size],
    };
    let coop = cfg.placement.as_ref().is_some_and(|s| s.cooperative);
    let duty = DutyCycler::new(cfg.duty_fraction, cfg.duty_slot, cfg.seed);
    let access = scenarios[0].network().access();
    let mut service_rng = DetRng::new(cfg.seed, "traffic/service/0");

    let mut holders: Vec<Vec<u32>> = vec![Vec::new(); cfg.catalog_size];
    let mut fleet = PolicyFleet::new(
        cfg.policy,
        total_sats as usize,
        cfg.cache_bytes_per_sat,
        cfg.ttl,
    );
    let mut expiries: VecDeque<(SimTime, u32, ContentId)> = VecDeque::new();
    let mut dropped = Vec::new();
    let mut out = NaiveOutcome {
        digest: DIGEST_BASIS,
        ..NaiveOutcome::default()
    };
    let ladder = &cfg.escalation;
    let rungs0 = coop as usize;

    // Epoch boundaries tick at `start + step·e` for e in 1..epochs and
    // win ties against same-instant arrivals, exactly like the engine's
    // merged stream.
    let mut epoch = 0usize;
    let mut next_boundary = 1usize;
    for &(t, a) in &arrivals {
        while next_boundary < cfg.epochs
            && cfg.start + cfg.epoch_step.mul(next_boundary as u64) <= t
        {
            epoch = next_boundary;
            // Fault invalidation: dead satellites drop every held copy,
            // in ascending global slot order (list order matters — the
            // engine swap-removes).
            for (k, graph) in graphs[epoch].iter().enumerate() {
                for local in 0..graph.len() {
                    let g = shell_offsets[k] + local as u32;
                    if fleet.len_of(g) > 0 && !graph.is_alive(SatIndex(local as u32)) {
                        out.invalidations += fleet.clear_sat(g, &mut dropped);
                        dropped.clear();
                        for hs in holders.iter_mut() {
                            prune(hs, g);
                        }
                    }
                }
            }
            next_boundary += 1;
        }

        // TTL lapses due by now, oldest insert first.
        fleet.set_now(t);
        while expiries.front().is_some_and(|&(e, _, _)| e <= t) {
            let (_, slot, content) = expiries.pop_front().expect("checked front");
            if fleet.expire_if_due(slot, content) {
                prune(&mut holders[rank_of[&content]], slot);
            }
        }

        let si = a.source as usize;
        let rank = a.rank as usize;
        let size = sizes[rank];
        let fallback = sources[si].fallback_rtt[epoch];
        let pos = sources[si].position;

        // Retrieval geometry, rebuilt from scratch for every request.
        let mut ctx: Vec<Option<NaiveShellCtx>> = Vec::with_capacity(shells);
        let mut fill: Option<(u32, f64)> = None;
        for (k, graph) in graphs[epoch].iter().enumerate() {
            match graph.nearest_alive(pos) {
                Some((sat, slant)) => {
                    let slot = shell_offsets[k] + sat.0;
                    if fill.is_none_or(|(_, s)| slant.0 < s) {
                        fill = Some((slot, slant.0));
                    }
                    let user_prop = propagation_delay(slant, Medium::Vacuum).round_trip();
                    let neighbors = if coop {
                        let (row, kms) = graph.neighbor_row(sat.0);
                        row.iter()
                            .zip(kms)
                            .map(|(&nb, &km)| {
                                (shell_offsets[k] + nb, user_prop + neighbor_probe_cost(km))
                            })
                            .collect()
                    } else {
                        Vec::new()
                    };
                    ctx.push(Some(NaiveShellCtx {
                        overhead_slot: slot,
                        user_prop,
                        tables: graph.routing_tables(sat),
                        neighbors,
                    }));
                }
                None => ctx.push(None),
            }
        }

        let Some((fill, _)) = fill else {
            // Total dead zone: ground serve, no jitter draw.
            out.origin_fetches += 1;
            out.dead_zones += 1;
            out.origin_bytes += size;
            fold_decision(&mut out.digest, a.source, u32::MAX, u32::MAX, fallback);
            out.latency_bits.push(fallback.ms().to_bits());
            continue;
        };

        let jitter = Latency::from_ms(access.sched_overhead_ms_sample(&mut service_rng));

        // The exhaustive scan: every pinned copy, then every live holder,
        // each costed directly off the routing tables. Strict `<` keeps
        // the earliest candidate on ties, matching the engine's contract.
        let mut bests: Vec<Option<(Latency, u32, u32, bool)>> = vec![None; rungs0 + ladder.len()];
        let pinned_list = &pinned[rank];
        for (i, &g) in pinned_list.iter().chain(holders[rank].iter()).enumerate() {
            let is_pinned = i < pinned_list.len();
            let shell = shell_of[g as usize] as usize;
            let Some(sc) = ctx[shell].as_ref() else {
                continue;
            };
            let (rtt, hops) = if g == sc.overhead_slot {
                (sc.user_prop, 0u32)
            } else {
                let local = (g - shell_offsets[shell]) as usize;
                let h = sc.tables.hops[local];
                let (dist_km, route_hops) = sc.tables.km[local];
                if h == u32::MAX || !dist_km.is_finite() {
                    continue;
                }
                (
                    sc.user_prop + space_segment_cost(access, dist_km, route_hops),
                    h,
                )
            };
            if rungs0 == 1 {
                let cand = if hops == 0 {
                    Some((rtt, 0u32))
                } else {
                    sc.neighbors
                        .iter()
                        .find(|&&(n, _)| n == g)
                        .map(|&(_, probe)| (probe, 1))
                };
                if let Some((crtt, chops)) = cand {
                    match bests[0] {
                        Some((brtt, _, _, _)) if crtt >= brtt => {}
                        _ => bests[0] = Some((crtt, chops, g, is_pinned)),
                    }
                }
            }
            if let Some(j0) = ladder.iter().position(|&budget| hops <= budget) {
                for best in bests.iter_mut().skip(rungs0 + j0) {
                    match *best {
                        Some((brtt, _, _, _)) if rtt >= brtt => break,
                        _ => *best = Some((rtt, hops, g, is_pinned)),
                    }
                }
            }
        }

        let served = bests
            .iter()
            .enumerate()
            .filter_map(|(j, b)| b.map(|(base, hops, g, p)| (j, base + jitter, hops, g, p)))
            .find(|&(_, rtt, _, _, _)| rtt <= fallback);

        let latency = match served {
            Some((rung, rtt, hops, g, is_pinned)) => {
                if is_pinned {
                    out.pinned_hits += 1;
                } else {
                    assert!(fleet.get(g, by_rank[rank]), "holder not in the fleet");
                }
                if rungs0 == 1 && rung == 0 && hops == 1 {
                    out.neighbor_hits += 1;
                }
                if hops == 0 {
                    out.overhead_hits += 1;
                } else {
                    out.isl_hits += 1;
                    let h = hops as usize;
                    if out.hop_histogram.len() <= h {
                        out.hop_histogram.resize(h + 1, 0);
                    }
                    out.hop_histogram[h] += 1;
                }
                out.served_bytes += size;
                fold_decision(&mut out.digest, a.source, g, hops, rtt);
                rtt
            }
            None => {
                out.origin_fetches += 1;
                out.origin_bytes += size;
                if duty.is_active(SatIndex(fill), t) && !pinned[rank].contains(&fill) {
                    let content = by_rank[rank];
                    if fleet.insert_collect(fill, content, size, &mut dropped) {
                        out.inserts += 1;
                        let hs = &mut holders[rank];
                        if !hs.contains(&fill) {
                            hs.push(fill);
                        }
                        expiries.push_back((t + cfg.ttl, fill, content));
                    }
                    while let Some(victim) = dropped.pop() {
                        prune(&mut holders[rank_of[&victim]], fill);
                    }
                }
                fold_decision(&mut out.digest, a.source, u32::MAX, u32::MAX, fallback);
                fallback
            }
        };
        out.latency_bits.push(latency.ms().to_bits());
    }
    out.evictions = fleet.stats().evictions;
    out.ttl_expiries = fleet.expired_purges();
    out
}

/// One randomized case: drawn geometry, workload, faults, and placement.
fn run_case(case: usize, rng: &mut DetRng) -> (NaiveOutcome, NaiveOutcome, String) {
    let dual_shell = case % 3 == 2;
    let configs: Vec<ShellConfig> = if dual_shell {
        vec![shells::test_shell(), second_shell()]
    } else {
        vec![shells::test_shell()]
    };
    let epochs = 1 + rng.index(3);
    let epoch_step = SimDuration::from_secs([60, 157][rng.index(2)]);
    let start = if rng.chance(0.25) {
        SimTime::from_secs(900 + rng.index(5_000) as u64)
    } else {
        SimTime::EPOCH
    };

    // One schedule per shell, sized to that shell's fleet (fault events
    // index satellites within their own constellation).
    let mut schedules: Vec<FaultSchedule> = configs.iter().map(|_| FaultSchedule::none()).collect();
    let fault = match case % 5 {
        0 | 1 => "none",
        2 | 3 => {
            for (k, (cfg, schedule)) in configs.iter().zip(schedules.iter_mut()).enumerate() {
                let fleet = (cfg.plane_count * cfg.sats_per_plane) as usize;
                schedule.random_sat_outages(
                    fleet,
                    0.25,
                    epoch_step.mul(epochs as u64),
                    SimDuration::from_secs(120),
                    &mut rng.derive(&format!("oracle/faults/{case}/{k}")),
                );
                schedule.random_gsl_outages(
                    fleet,
                    0.15,
                    epoch_step.mul(epochs as u64),
                    SimDuration::from_secs(90),
                    &mut rng.derive(&format!("oracle/gsl/{case}/{k}")),
                );
            }
            "outage"
        }
        _ => {
            // Ground blackout: every GSL down forever — all requests are
            // dead zones, pinning the no-jitter ground path.
            for (cfg, schedule) in configs.iter().zip(schedules.iter_mut()) {
                for i in 0..cfg.plane_count * cfg.sats_per_plane {
                    schedule.gsl_outage(SatIndex(i), SimTime::EPOCH, None);
                }
            }
            "blackout"
        }
    };

    let catalog_size = 16 + rng.index(32);
    let budget = 20 + rng.index(200);
    let cap = [2usize, 4, 8, 64][rng.index(4)];
    let spec = match case % 7 {
        0 => None,
        1 => PlacementSpec::parse(&format!("perplane-2:budget-{budget}:cap-{cap}")),
        2 => PlacementSpec::parse(&format!("perplane-3:budget-{budget}:cap-{cap}:coop")),
        3 => PlacementSpec::parse(&format!("rand-24:budget-{budget}:cap-{cap}:coop")),
        4 => PlacementSpec::parse(&format!("cover-2:budget-{budget}:cap-{cap}")),
        5 => PlacementSpec::parse(&format!("frac-0.2:budget-{budget}:cap-{cap}:coop")),
        _ => PlacementSpec::parse(&format!("perplane-1:budget-{budget}:cap-{cap}:coop")),
    };
    assert!(
        case.is_multiple_of(7) || spec.is_some(),
        "case {case}: bad spec"
    );

    let source_count = 2 + rng.index(3);
    let sources: Vec<TrafficSource> = (0..source_count)
        .map(|_| TrafficSource {
            position: Geodetic::ground(rng.uniform(-55.0, 55.0), rng.uniform(-180.0, 180.0)),
            weight: 1 + rng.index(9) as u32,
            fallback_rtt: (0..epochs)
                .map(|_| Latency::from_ms(rng.uniform(25.0, 200.0)))
                .collect(),
        })
        .collect();

    let cfg = TrafficConfig {
        requests: 60 + rng.index(80) as u64,
        streams: 1,
        epochs,
        epoch_step,
        catalog_size,
        zipf_alpha: [0.7, 0.9, 1.1][rng.index(3)],
        // Oversized cache and TTL: holder lists change only by fills and
        // fault invalidations (see module docs).
        cache_bytes_per_sat: 1 << 40,
        ttl: SimDuration::from_mins(1 << 20),
        policy: PolicyKind::LruTtl,
        duty_fraction: [1.0, 0.65, 0.4][rng.index(3)],
        duty_slot: SimDuration::from_mins(10),
        escalation: if rng.chance(0.3) {
            vec![2, 6]
        } else {
            vec![1, 3, 5, 10]
        },
        placement: spec,
        seed: rng.index(1 << 30) as u64,
        start,
    };

    let label = format!(
        "case {case}: shells={} fault={fault} spec={} duty={} epochs={} requests={} seed={}",
        configs.len(),
        cfg.placement.map_or_else(|| "off".into(), |s| s.name()),
        cfg.duty_fraction,
        cfg.epochs,
        cfg.requests,
        cfg.seed,
    );

    let (engine, naive) = engine_and_naive(&configs, &schedules, &sources, &cfg);
    (engine, naive, label)
}

/// Run one case through the engine and the naive reference, each on
/// freshly built scenarios.
fn engine_and_naive(
    configs: &[ShellConfig],
    schedules: &[FaultSchedule],
    sources: &[TrafficSource],
    cfg: &TrafficConfig,
) -> (NaiveOutcome, NaiveOutcome) {
    let mut engine_scenarios = scenarios_for(configs, schedules);
    let report = run_traffic_multishell(&mut engine_scenarios, sources, cfg);
    let mut naive_scenarios = scenarios_for(configs, schedules);
    let naive = naive_traffic(&mut naive_scenarios, sources, cfg);
    (NaiveOutcome::of_report(&report), naive)
}

#[test]
fn engine_matches_exhaustive_naive_scan_over_randomized_cases() {
    const CASES: usize = 210;
    let mut rng = DetRng::new(0x04AC1E, "placement-oracle");
    let mut coop_hits = 0u64;
    let mut pinned_hits = 0u64;
    let mut dead = 0u64;
    let mut space = 0u64;
    for case in 0..CASES {
        let (engine, naive, label) = run_case(case, &mut rng);
        assert_eq!(engine, naive, "engine/naive divergence at {label}");
        coop_hits += engine.neighbor_hits;
        pinned_hits += engine.pinned_hits;
        dead += engine.dead_zones;
        space += engine.overhead_hits + engine.isl_hits;
    }
    // The sweep must actually exercise every pinned path, or the oracle
    // proves nothing.
    assert!(space > 0, "no case served from space");
    assert!(pinned_hits > 0, "no case served a plan-pinned replica");
    assert!(coop_hits > 0, "no case served a cooperative neighbor probe");
    assert!(dead > 0, "no case exercised the dead-zone ground path");
}

#[test]
fn engine_matches_naive_scan_when_pairs_dwarf_requests() {
    // Hundreds of sources × tens of thousands of ranks against a few
    // thousand requests: almost every request lands on a (source, rank)
    // pair nobody asked for before, and small caches under every policy
    // evict and expire holders underneath the memos built on them.
    const CASES: usize = 8;
    let mut rng = DetRng::new(0x5BA75E, "placement-oracle/sparse");
    let (mut evictions, mut expiries, mut space) = (0u64, 0u64, 0u64);
    for case in 0..CASES {
        let configs: Vec<ShellConfig> = if case % 2 == 1 {
            vec![shells::test_shell(), second_shell()]
        } else {
            vec![shells::test_shell()]
        };
        let epochs = 2 + rng.index(2);
        let epoch_step = SimDuration::from_secs(157);
        let mut schedules: Vec<FaultSchedule> =
            configs.iter().map(|_| FaultSchedule::none()).collect();
        let faulted = case % 4 >= 2;
        if faulted {
            for (k, (cfg, schedule)) in configs.iter().zip(schedules.iter_mut()).enumerate() {
                schedule.random_sat_outages(
                    (cfg.plane_count * cfg.sats_per_plane) as usize,
                    0.25,
                    epoch_step.mul(epochs as u64),
                    SimDuration::from_secs(120),
                    &mut rng.derive(&format!("oracle/sparse-faults/{case}/{k}")),
                );
            }
        }
        let budget = 50 + rng.index(200);
        let spec = match (case / 2) % 4 {
            0 => None,
            1 => PlacementSpec::parse(&format!("perplane-1:budget-{budget}:cap-4:coop")),
            2 => PlacementSpec::parse(&format!("rand-24:budget-{budget}:cap-8")),
            _ => PlacementSpec::parse(&format!("cover-2:budget-{budget}:cap-4:coop")),
        };
        let sources: Vec<TrafficSource> = (0..200 + rng.index(64))
            .map(|_| TrafficSource {
                position: Geodetic::ground(rng.uniform(-55.0, 55.0), rng.uniform(-180.0, 180.0)),
                weight: 1 + rng.index(9) as u32,
                fallback_rtt: (0..epochs)
                    .map(|_| Latency::from_ms(rng.uniform(25.0, 200.0)))
                    .collect(),
            })
            .collect();
        let cfg = TrafficConfig {
            requests: 2_000 + rng.index(2_000) as u64,
            streams: 1,
            epochs,
            epoch_step,
            catalog_size: 20_000 + rng.index(10_000),
            zipf_alpha: [0.6, 0.8][rng.index(2)],
            cache_bytes_per_sat: [1u64 << 20, 4 << 20, 64 << 20][rng.index(3)],
            ttl: if case % 3 != 0 {
                SimDuration::from_secs(20 + rng.index(60) as u64)
            } else {
                SimDuration::from_mins(1 << 20)
            },
            policy: PolicyKind::ALL[case % 4],
            duty_fraction: [1.0, 0.7][rng.index(2)],
            duty_slot: SimDuration::from_mins(10),
            escalation: vec![1, 3, 5, 10],
            placement: spec,
            seed: rng.index(1 << 30) as u64,
            start: SimTime::EPOCH,
        };
        let label = format!(
            "sparse case {case}: shells={} faulted={faulted} spec={} policy={} sources={} \
             catalog={} requests={} cache={} seed={}",
            configs.len(),
            cfg.placement.map_or_else(|| "off".into(), |s| s.name()),
            cfg.policy.name(),
            sources.len(),
            cfg.catalog_size,
            cfg.requests,
            cfg.cache_bytes_per_sat,
            cfg.seed,
        );
        let (engine, naive) = engine_and_naive(&configs, &schedules, &sources, &cfg);
        assert_eq!(engine, naive, "engine/naive divergence at {label}");
        evictions += engine.evictions;
        expiries += engine.ttl_expiries;
        space += engine.overhead_hits + engine.isl_hits;
    }
    // Memos must actually be pruned under the engine, or this sweep
    // proves nothing beyond the first one.
    assert!(evictions > 0, "no case evicted");
    assert!(expiries > 0, "no case expired a copy");
    assert!(space > 0, "no case served from space");
}

#[test]
fn engine_matches_naive_scan_when_cohomed_sources_straddle_the_fallback_cut() {
    // Each burst's routing walks stop once no unsettled satellite can beat
    // the ground fallback, one walk per overhead satellite serving every
    // source homed there, so the walk must be cut at the smallest
    // user-link round trip and the largest fallback among them. Here the
    // sources come in co-homed pairs (homed together at the first of two
    // epochs) on the sparse test shell: one right under a satellite, one
    // at the edge of that satellite's footprint, thousands of kilometres
    // of slant apart. The near source's fallback
    // sits a few ISL round trips above its own user link and the far
    // one's barely above its own, so a cut priced with the far source's
    // user link drops candidates the near source serves from, and one
    // priced with the far source's fallback drops them too.
    const CASES: usize = 6;
    let mut rng = DetRng::new(0xC07, "placement-oracle/cohomed");
    let (mut isl, mut pairs) = (0u64, 0usize);
    for case in 0..CASES {
        let configs = vec![shells::test_shell()];
        let schedules = vec![FaultSchedule::none()];
        let start = SimTime::from_secs(rng.index(6_000) as u64);
        let graph = IslGraph::build(&Constellation::new(configs[0]), start, &Default::default());
        let user_prop = |pos: Geodetic| {
            let (sat, slant) = graph.nearest_alive(pos).expect("test shell serves");
            (sat, propagation_delay(slant, Medium::Vacuum).round_trip())
        };
        let mut sources = Vec::new();
        for _ in 0..16 {
            let sat = SatIndex(rng.index(graph.len()) as u32);
            let sub = graph.position(sat).to_geodetic();
            let near = Geodetic::ground(sub.lat_deg, sub.lon_deg);
            if user_prop(near).0 != sat {
                continue;
            }
            // Walk away from the sub-satellite point until another
            // satellite takes over; the last point still homed here is
            // the far source.
            let bearing = rng.uniform(0.0, std::f64::consts::TAU);
            let mut far = near;
            for step in 1..200 {
                let d = 0.25 * step as f64;
                let lat = sub.lat_deg + d * bearing.sin();
                if lat.abs() > 85.0 {
                    break;
                }
                let pos = Geodetic::ground(lat, sub.lon_deg + d * bearing.cos());
                if user_prop(pos).0 != sat {
                    break;
                }
                far = pos;
            }
            let (near_prop, far_prop) = (user_prop(near).1, user_prop(far).1);
            pairs += 1;
            // Both epochs at the first one's fallbacks: the walks on the
            // final epoch are uncut anyway (the scenario stays there).
            let near_fallback = near_prop + Latency::from_ms(rng.uniform(15.0, 45.0));
            let far_fallback = far_prop + Latency::from_ms(rng.uniform(0.0, 4.0));
            sources.push(TrafficSource {
                position: near,
                weight: 4,
                fallback_rtt: vec![near_fallback; 2],
            });
            sources.push(TrafficSource {
                position: far,
                weight: 1,
                fallback_rtt: vec![far_fallback; 2],
            });
        }
        let budget = 40 + rng.index(80);
        let spec = match case % 3 {
            0 => PlacementSpec::parse(&format!("perplane-2:budget-{budget}:cap-8")),
            1 => PlacementSpec::parse(&format!("rand-24:budget-{budget}:cap-8:coop")),
            _ => PlacementSpec::parse(&format!("perplane-1:budget-{budget}:cap-8:coop")),
        };
        let cfg = TrafficConfig {
            requests: 3_000,
            streams: 1,
            epochs: 2,
            epoch_step: SimDuration::from_secs(157),
            catalog_size: 24,
            zipf_alpha: 0.9,
            cache_bytes_per_sat: 1 << 40,
            ttl: SimDuration::from_mins(1 << 20),
            policy: PolicyKind::LruTtl,
            // No pull-through fills: every request rides the ladder.
            duty_fraction: 0.0,
            duty_slot: SimDuration::from_mins(10),
            escalation: vec![1, 3, 5, 10],
            placement: spec,
            seed: rng.index(1 << 30) as u64,
            start,
        };
        let label = format!(
            "co-homed case {case}: spec={} start={start:?} seed={}",
            cfg.placement.map_or_else(|| "off".into(), |s| s.name()),
            cfg.seed,
        );
        let (engine, naive) = engine_and_naive(&configs, &schedules, &sources, &cfg);
        assert_eq!(engine, naive, "engine/naive divergence at {label}");
        isl += engine.isl_hits;
    }
    assert!(pairs >= CASES * 8, "only {pairs} co-homed pairs");
    assert!(isl > 0, "no case served over ISLs");
}
