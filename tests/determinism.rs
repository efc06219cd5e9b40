//! Determinism regression tests for the experiment engine and routing
//! caches: campaign outputs must be byte-identical regardless of thread
//! count, and memoized routing tables must match direct recomputation —
//! including on degraded topologies.
//!
//! These tests mutate process-global engine/cache overrides, so they are
//! serialised behind one mutex rather than relying on test-runner
//! ordering.

use spacecdn_suite::core::{clear_graph_pool, graph_pool_stats};
use spacecdn_suite::engine::{set_snapshot_pool_override, set_thread_override};
use spacecdn_suite::geo::{DetRng, SimTime};
use spacecdn_suite::lsn::{
    set_routing_cache_override, FaultPlan, FaultSchedule, IslGraph, SourceTables,
};
use spacecdn_suite::measure::aim::{AimCampaign, AimConfig};
use spacecdn_suite::measure::spacecdn::hop_bound_experiment;
use spacecdn_suite::orbit::shell::shells;
use spacecdn_suite::orbit::{Constellation, SatIndex};
use std::sync::Mutex;

/// Serialises tests that touch the global thread/cache overrides.
static OVERRIDE_LOCK: Mutex<()> = Mutex::new(());

fn with_thread_count<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    set_thread_override(Some(threads));
    let out = f();
    set_thread_override(None);
    out
}

#[test]
fn aim_campaign_identical_at_any_thread_count() {
    let _guard = OVERRIDE_LOCK.lock().unwrap();
    let cfg = AimConfig {
        epochs: 3,
        tests_per_epoch: 2,
        probes_per_test: 3,
        ..AimConfig::default()
    };
    let countries = ["MZ", "ES", "KE", "JP"];
    let sequential = with_thread_count(1, || {
        serde_json::to_string(AimCampaign::run_for(&cfg, &countries).records()).unwrap()
    });
    for threads in [2, 5] {
        let parallel = with_thread_count(threads, || {
            serde_json::to_string(AimCampaign::run_for(&cfg, &countries).records()).unwrap()
        });
        assert_eq!(
            sequential, parallel,
            "AIM records diverged at {threads} threads"
        );
    }
}

/// Flatten a Fig-7 sweep into a comparable string (Percentiles doesn't
/// expose its raw samples, so compare the full quantile ladder plus the
/// exact hop histogram and fallback count).
fn fig7_fingerprint() -> String {
    let mut out = String::new();
    for mut r in hop_bound_experiment(&[1, 3, 5], 60, 2, 23, &FaultSchedule::none()) {
        out.push_str(&format!(
            "bound={}:fallbacks={};",
            r.max_hops, r.ground_fallbacks
        ));
        out.push_str(&format!("hops={:?};", r.hop_histogram));
        for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0] {
            out.push_str(&format!("q{q}={:?};", r.latencies.quantile(q)));
        }
    }
    out
}

#[test]
fn fig7_sweep_identical_at_any_thread_count() {
    let _guard = OVERRIDE_LOCK.lock().unwrap();
    let sequential = with_thread_count(1, fig7_fingerprint);
    let parallel = with_thread_count(4, fig7_fingerprint);
    assert_eq!(sequential, parallel, "Fig-7 sweep depends on thread count");
}

#[test]
fn fig7_sweep_identical_with_and_without_snapshot_pool() {
    let _guard = OVERRIDE_LOCK.lock().unwrap();
    set_snapshot_pool_override(Some(false));
    clear_graph_pool();
    let unpooled = fig7_fingerprint();

    set_snapshot_pool_override(Some(true));
    clear_graph_pool();
    let (hits0, _, _) = graph_pool_stats();
    let pooled = fig7_fingerprint();
    // Re-running the sweep now reuses every epoch snapshot from the pool.
    let pooled_again = fig7_fingerprint();
    let (hits1, _, len) = graph_pool_stats();

    set_snapshot_pool_override(None);
    clear_graph_pool();

    assert_eq!(unpooled, pooled, "snapshot pool changes Fig-7 output");
    assert_eq!(pooled, pooled_again, "pooled rerun diverged");
    assert!(hits1 > hits0, "second pooled run never hit the pool");
    assert!(len > 0, "pool retained no snapshots");
}

#[test]
fn fig7_sweep_identical_with_and_without_metrics() {
    let _guard = OVERRIDE_LOCK.lock().unwrap();
    // Telemetry must be a pure observer: forcing it off and on around the
    // same campaign has to produce byte-identical results.
    spacecdn_suite::telemetry::set_metrics_override(Some(false));
    clear_graph_pool();
    let without = fig7_fingerprint();

    spacecdn_suite::telemetry::set_metrics_override(Some(true));
    clear_graph_pool();
    let with = fig7_fingerprint();

    spacecdn_suite::telemetry::set_metrics_override(None);
    clear_graph_pool();
    assert_eq!(without, with, "telemetry perturbs Fig-7 output");
}

#[test]
fn table_timers_observe_without_perturbing() {
    let _guard = OVERRIDE_LOCK.lock().unwrap();
    use spacecdn_suite::telemetry::{reset, set_metrics_override, snapshot};
    // The layer timers (the covered-city source table, the traffic
    // engine's per-burst table fan-out and shard fan-out, each fetch's
    // table lookup) are racy observers: outputs and Stable metrics are
    // identical with telemetry off and on, and only the run with
    // telemetry on records samples.
    let run = |enabled: bool| {
        set_metrics_override(Some(enabled));
        clear_graph_pool();
        reset();
        let outputs = (
            source_table_fingerprint(),
            traffic_fingerprint(),
            fig7_fingerprint(),
        );
        let report = snapshot();
        let samples = |name: &str| {
            report
                .histograms
                .iter()
                .find(|h| h.name == name)
                .map_or(0, |h| h.count)
        };
        let timed = [
            samples("measure.traffic.source_table_ns"),
            samples("core.traffic.table_warm_ns"),
            samples("core.traffic.shard_fan_out_ns"),
            samples("core.retrieval.table_ns"),
        ];
        (outputs, report.stable_fingerprint(), timed)
    };
    let off = run(false);
    let on = run(true);
    set_metrics_override(None);
    clear_graph_pool();
    assert_eq!(
        off.0, on.0,
        "telemetry perturbs source-table, traffic or Fig-7 output"
    );
    assert_eq!(off.1, on.1, "telemetry perturbs Stable metrics");
    assert_eq!(off.2, [0; 4], "timers recorded with telemetry off");
    assert!(
        on.2.iter().all(|&n| n >= 1),
        "layer timers recorded nothing: {:?}",
        on.2
    );
}

#[test]
fn stable_metrics_identical_at_any_thread_count() {
    let _guard = OVERRIDE_LOCK.lock().unwrap();
    // Metrics tagged `Determinism::Stable` count deterministic campaign
    // work (retrieval outcomes, trial counts, spatial queries), so their
    // values — unlike racy cache-hit splits or timings — must not depend
    // on how the work was scheduled. Reset the registry and the snapshot
    // pool before each run so each fingerprint covers exactly one sweep.
    spacecdn_suite::telemetry::set_metrics_override(Some(true));
    let fingerprint_at = |threads: usize| {
        with_thread_count(threads, || {
            clear_graph_pool();
            spacecdn_suite::telemetry::reset();
            let _ = fig7_fingerprint();
            spacecdn_suite::telemetry::snapshot().stable_fingerprint()
        })
    };
    let sequential = fingerprint_at(1);
    assert!(
        sequential.contains("core.retrieval."),
        "stable fingerprint missing retrieval metrics:\n{sequential}"
    );
    for threads in [2, 5] {
        let parallel = fingerprint_at(threads);
        assert_eq!(
            sequential, parallel,
            "stable metrics diverged at {threads} threads"
        );
    }
    spacecdn_suite::telemetry::set_metrics_override(None);
    clear_graph_pool();
}

/// The four weighted demand points every traffic fingerprint draws from,
/// with a flat 140 ms ground fallback per epoch.
fn fingerprint_sources(epochs: usize) -> Vec<spacecdn_suite::prelude::TrafficSource> {
    use spacecdn_suite::prelude::{Geodetic, Latency, TrafficSource};
    [
        (40.4, -3.7, 6u32),
        (-25.97, 32.57, 2),
        (51.5, -0.13, 9),
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

/// Flatten a traffic report into a comparable string: every counter
/// (placement and ground-tier splits included), the decision digest,
/// both byte tallies, the per-shell breakdown, the exact hop histogram,
/// and the full quantile ladder as raw bits.
fn report_fingerprint(r: &mut spacecdn_suite::prelude::TrafficReport) -> String {
    let mut out = format!(
        "req={};oh={};isl={};origin={};dead={};ins={};ev={};ttl={};inv={};pin={};nb={};ge={};gr={};go={};digest={:#018x};served={};ob={};hops={:?};shells={:?};",
        r.requests,
        r.overhead_hits,
        r.isl_hits,
        r.origin_fetches,
        r.dead_zones,
        r.inserts,
        r.evictions,
        r.ttl_expiries,
        r.invalidations,
        r.pinned_hits,
        r.neighbor_hits,
        r.ground_edge_hits,
        r.ground_regional_hits,
        r.ground_origin_hits,
        r.decision_digest,
        r.served_bytes,
        r.origin_bytes,
        r.hop_histogram,
        r.per_shell,
    );
    for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0] {
        out.push_str(&format!(
            "q{q}={:?};",
            r.latencies.quantile(q).map(f64::to_bits)
        ));
    }
    out
}

/// One full-constellation traffic-engine run, flattened by
/// [`report_fingerprint`].
/// Every covered city's per-epoch ground-fallback RTT bits, from the
/// bounded fallback search.
fn source_table_fingerprint() -> String {
    use spacecdn_suite::prelude::{covered_traffic_sources, FaultSchedule, SimDuration};
    let net = spacecdn_suite::core::network::LsnNetwork::starlink();
    covered_traffic_sources(&net, &FaultSchedule::none(), 2, SimDuration::from_secs(157))
        .iter()
        .map(|s| {
            format!(
                "{:?}",
                s.fallback_rtt
                    .iter()
                    .map(|r| r.0.to_bits())
                    .collect::<Vec<_>>()
            )
        })
        .collect::<Vec<_>>()
        .join(";")
}

fn traffic_fingerprint() -> String {
    use spacecdn_suite::prelude::{
        run_traffic_multishell, starlink_shell_scenarios, FaultSchedule, PolicyKind, TrafficConfig,
    };
    let mut scenarios = starlink_shell_scenarios(&[0, 1, 2, 3], &FaultSchedule::none());
    let cfg = TrafficConfig {
        requests: 4_000,
        streams: 5,
        epochs: 2,
        catalog_size: 600,
        cache_bytes_per_sat: 256 << 20,
        policy: PolicyKind::default(),
        placement: None,
        ..TrafficConfig::default()
    };
    let sources = fingerprint_sources(cfg.epochs);
    report_fingerprint(&mut run_traffic_multishell(&mut scenarios, &sources, &cfg))
}

#[test]
fn traffic_engine_identical_at_any_thread_count() {
    let _guard = OVERRIDE_LOCK.lock().unwrap();
    let sequential = with_thread_count(1, traffic_fingerprint);
    for threads in [2, 5, 8] {
        let parallel = with_thread_count(threads, traffic_fingerprint);
        assert_eq!(
            sequential, parallel,
            "traffic engine diverged at {threads} threads"
        );
    }
}

/// [`traffic_fingerprint`] with an orbit-aware placement plan pinned
/// under the pull-through fleets and cooperative neighbor lookup on:
/// covers the pre-seeded holder lists, the pinned/neighbor hit split,
/// the ground-tier counters and the per-request decision digest across
/// the parallelism grain.
fn traffic_placement_fingerprint() -> String {
    use spacecdn_suite::prelude::{
        run_traffic_multishell, starlink_shell_scenarios, FaultSchedule, PlacementSpec, PolicyKind,
        TrafficConfig,
    };
    let mut scenarios = starlink_shell_scenarios(&[0, 1], &FaultSchedule::none());
    let cfg = TrafficConfig {
        requests: 4_000,
        streams: 5,
        epochs: 2,
        catalog_size: 600,
        cache_bytes_per_sat: 256 << 20,
        policy: PolicyKind::default(),
        placement: Some(
            PlacementSpec::parse("perplane-4:budget-4000:cap-64:coop").expect("valid spec"),
        ),
        ..TrafficConfig::default()
    };
    let sources = fingerprint_sources(cfg.epochs);
    report_fingerprint(&mut run_traffic_multishell(&mut scenarios, &sources, &cfg))
}

/// All four shells, three streams sharing each epoch's geometry,
/// cooperative placement, and a satellite outage that opens between
/// epoch 1 (157 s) and epoch 2 (314 s): every other satellite index below
/// the smallest shell's size dies at 200 s in every shell, so the last
/// epoch resolves new overhead satellites and wipes the dead ones' caches.
fn traffic_outage_fingerprint() -> String {
    use spacecdn_suite::prelude::{
        run_traffic_multishell, starlink_shell_scenarios, FaultSchedule, PlacementSpec, PolicyKind,
        SatIndex, SimTime, TrafficConfig,
    };
    let mut schedule = FaultSchedule::none();
    for sat in (0..348).step_by(2) {
        schedule.sat_outage(SatIndex(sat), SimTime::from_secs(200), None);
    }
    let mut scenarios = starlink_shell_scenarios(&[0, 1, 2, 3], &schedule);
    let cfg = TrafficConfig {
        requests: 6_000,
        streams: 3,
        epochs: 3,
        catalog_size: 600,
        cache_bytes_per_sat: 64 << 20,
        policy: PolicyKind::default(),
        placement: Some(
            PlacementSpec::parse("perplane-2:budget-3000:cap-32:coop").expect("valid spec"),
        ),
        ..TrafficConfig::default()
    };
    let sources = fingerprint_sources(cfg.epochs);
    report_fingerprint(&mut run_traffic_multishell(&mut scenarios, &sources, &cfg))
}

/// [`traffic_fingerprint`] with the tiered ground fallback on: every
/// ground-served request walks the per-shard edge → regional → origin
/// `CacheHierarchy`, so the `ge`/`gr`/`go` split and the tier surcharges
/// in the latency ladder pin the hierarchy's hit/miss decisions. A thin
/// per-plane placement keeps most requests on the ground path.
fn traffic_tiers_fingerprint() -> String {
    use spacecdn_suite::prelude::{
        run_traffic_multishell, starlink_shell_scenarios, FaultSchedule, PlacementSpec, PolicyKind,
        TrafficConfig,
    };
    let mut scenarios = starlink_shell_scenarios(&[0, 1], &FaultSchedule::none());
    let cfg = TrafficConfig {
        requests: 4_000,
        streams: 5,
        epochs: 2,
        catalog_size: 600,
        cache_bytes_per_sat: 64 << 20,
        policy: PolicyKind::default(),
        placement: Some(
            PlacementSpec::parse("perplane-1:budget-200:cap-4:tiers").expect("valid spec"),
        ),
        ..TrafficConfig::default()
    };
    let sources = fingerprint_sources(cfg.epochs);
    report_fingerprint(&mut run_traffic_multishell(&mut scenarios, &sources, &cfg))
}

/// Exact outputs of the three traffic fingerprints, recorded before the
/// engine began sharing each burst's (epoch, source) geometry across
/// shards. Any change to how geometry, routing tables or memo validity
/// are computed must reproduce them bit for bit.
const GOLDEN_TRAFFIC: &str = "req=4000;oh=1244;isl=1266;origin=1490;dead=0;ins=1490;ev=448;ttl=0;inv=0;\
     pin=0;nb=0;ge=0;gr=0;go=0;digest=0x08ec57ec14773b41;served=4522890378;\
     ob=2286332287;hops=[0, 0, 487, 280, 0, 0, 11, 0, 61, 0, 427];\
     shells=[ShellTraffic { overhead_hits: 0, isl_hits: 0, inserts: 0 }, ShellTraffic { overhead_hits: 1237, isl_hits: 1255, inserts: 1426 }, ShellTraffic { overhead_hits: 7, isl_hits: 11, inserts: 64 }, ShellTraffic { overhead_hits: 0, isl_hits: 0, inserts: 0 }];\
     q0=Some(4620097712983766522);q0.1=Some(4623202598723663327);\
     q0.25=Some(4625555496874455665);q0.5=Some(4631736965018261107);\
     q0.75=Some(4639129828656676864);q0.9=Some(4639129828656676864);\
     q1=Some(4639129828656676864);";
const GOLDEN_PLACEMENT: &str = "req=4000;oh=262;isl=3151;origin=587;dead=0;ins=587;ev=19;ttl=0;inv=0;pin=3024;\
     nb=300;ge=0;gr=0;go=0;digest=0x6c12ca6a54a72f6f;served=5903737690;\
     ob=905484975;hops=[0, 300, 456, 483, 505, 457, 162, 176, 213, 193, 206];\
     shells=[ShellTraffic { overhead_hits: 23, isl_hits: 1582, inserts: 0 }, ShellTraffic { overhead_hits: 239, isl_hits: 1569, inserts: 587 }];\
     q0=Some(4620359224978397695);q0.1=Some(4626411262370422172);\
     q0.25=Some(4629726747073532322);q0.5=Some(4631834300615182399);\
     q0.75=Some(4635628821045229308);q0.9=Some(4639129828656676864);\
     q1=Some(4639129828656676864);";
const GOLDEN_OUTAGE: &str = "req=6000;oh=402;isl=4479;origin=1119;dead=0;ins=1119;ev=636;ttl=0;inv=27;\
     pin=4389;nb=432;ge=0;gr=0;go=0;digest=0x566a74aca6065482;served=9173940382;\
     ob=1702166211;hops=[0, 432, 843, 689, 634, 633, 335, 237, 263, 193, 220];\
     shells=[ShellTraffic { overhead_hits: 2, isl_hits: 1366, inserts: 0 }, ShellTraffic { overhead_hits: 322, isl_hits: 1251, inserts: 1097 }, ShellTraffic { overhead_hits: 30, isl_hits: 1061, inserts: 22 }, ShellTraffic { overhead_hits: 48, isl_hits: 801, inserts: 0 }];\
     q0=Some(4620936553691380785);q0.1=Some(4627184685980147286);\
     q0.25=Some(4630337067941460820);q0.5=Some(4633116070838132940);\
     q0.75=Some(4636774997614063844);q0.9=Some(4639129828656676864);\
     q1=Some(4639129828656676864);";

/// Exact output of [`traffic_tiers_fingerprint`]: the first pin with a
/// non-zero ground-tier split. Any change to the hierarchy's caches (edge
/// and regional LRU, pull-through installs) must reproduce it bit for bit.
const GOLDEN_TIERS: &str = "req=4000;oh=668;isl=1101;origin=2231;dead=0;ins=2231;ev=1900;ttl=0;inv=0;pin=590;\
     nb=0;ge=1032;gr=660;go=539;digest=0xd27eea0e64e844cb;served=3057568692;\
     ob=3751653973;hops=[0, 15, 199, 169, 67, 35, 97, 72, 123, 96, 228];\
     shells=[ShellTraffic { overhead_hits: 0, isl_hits: 204, inserts: 0 }, ShellTraffic { overhead_hits: 668, isl_hits: 897, inserts: 2231 }];\
     q0=Some(4620298956592580703);q0.1=Some(4624460188158597466);\
     q0.25=Some(4630987507917809870);q0.5=Some(4639129828656676864);\
     q0.75=Some(4640009437958897664);q0.9=Some(4643176031446892544);\
     q1=Some(4643176031446892544);";

#[test]
fn traffic_fingerprints_match_recorded_goldens() {
    let _guard = OVERRIDE_LOCK.lock().unwrap();
    assert_eq!(traffic_fingerprint(), GOLDEN_TRAFFIC);
    assert_eq!(traffic_placement_fingerprint(), GOLDEN_PLACEMENT);
    assert_eq!(traffic_outage_fingerprint(), GOLDEN_OUTAGE);
    assert_eq!(traffic_tiers_fingerprint(), GOLDEN_TIERS);
}

#[test]
fn placement_traffic_identical_at_any_thread_count() {
    let _guard = OVERRIDE_LOCK.lock().unwrap();
    let sequential = with_thread_count(1, traffic_placement_fingerprint);
    // The pin only means something if the placement path actually ran:
    // pinned replicas and the coop rung must both serve requests here.
    assert!(
        sequential.contains("pin=") && !sequential.contains("pin=0;"),
        "placement fingerprint served no pinned hits:\n{sequential}"
    );
    assert!(
        !sequential.contains("nb=0;"),
        "placement fingerprint served no cooperative neighbor hits:\n{sequential}"
    );
    for threads in [2, 5, 8] {
        let parallel = with_thread_count(threads, traffic_placement_fingerprint);
        assert_eq!(
            sequential, parallel,
            "placement-enabled traffic diverged at {threads} threads"
        );
    }
}

/// [`traffic_fingerprint`] under a specific cache policy, single shell,
/// with caches tight enough that every policy's eviction path runs hot.
fn traffic_policy_fingerprint(policy: spacecdn_suite::prelude::PolicyKind) -> String {
    use spacecdn_suite::prelude::{
        run_traffic_multishell, starlink_shell_scenarios, FaultSchedule, TrafficConfig,
    };
    let mut scenarios = starlink_shell_scenarios(&[0], &FaultSchedule::none());
    let cfg = TrafficConfig {
        requests: 4_000,
        streams: 5,
        epochs: 2,
        catalog_size: 600,
        cache_bytes_per_sat: 8 << 20,
        policy,
        ..TrafficConfig::default()
    };
    let sources = fingerprint_sources(cfg.epochs);
    report_fingerprint(&mut run_traffic_multishell(&mut scenarios, &sources, &cfg))
}

#[test]
fn traffic_engine_identical_at_any_thread_count_for_every_policy() {
    let _guard = OVERRIDE_LOCK.lock().unwrap();
    // Each policy's TrafficReport must be byte-identical at 1/2/5/8
    // worker threads: shard fleets are per-stream, so policy state must
    // never leak across the parallelism grain.
    let mut fingerprints = Vec::new();
    for policy in spacecdn_suite::prelude::PolicyKind::ALL {
        let sequential = with_thread_count(1, || traffic_policy_fingerprint(policy));
        for threads in [2, 5, 8] {
            let parallel = with_thread_count(threads, || traffic_policy_fingerprint(policy));
            assert_eq!(
                sequential,
                parallel,
                "{} policy diverged at {threads} threads",
                policy.name()
            );
        }
        fingerprints.push(sequential);
    }
    // Sanity: the knob actually reaches the engine — under eviction
    // pressure the policies cannot all tell the same story.
    fingerprints.dedup();
    assert!(
        fingerprints.len() > 1,
        "all policies produced identical reports — policy knob inert?"
    );
}

#[test]
fn traffic_engine_identical_with_delta_on_and_off_at_any_thread_count() {
    let _guard = OVERRIDE_LOCK.lock().unwrap();
    // Delta-aware epoch advancement patches the previous epoch's graph in
    // place instead of rebuilding; a full-constellation traffic report
    // must come out byte-identical either way, at every thread count.
    spacecdn_suite::core::set_delta_override(Some(false));
    clear_graph_pool();
    let canonical = with_thread_count(1, traffic_fingerprint);
    for delta in [false, true] {
        spacecdn_suite::core::set_delta_override(Some(delta));
        for threads in [1, 2, 5, 8] {
            clear_graph_pool();
            let fp = with_thread_count(threads, traffic_fingerprint);
            assert_eq!(
                canonical, fp,
                "traffic engine diverged with delta={delta} at {threads} threads"
            );
        }
    }
    spacecdn_suite::core::set_delta_override(None);
    clear_graph_pool();
}

#[test]
fn hop_distance_between_is_symmetric_and_reuses_tables() {
    let _guard = OVERRIDE_LOCK.lock().unwrap();
    let constellation = Constellation::new(shells::starlink_shell1());
    let mut rng = DetRng::new(79, "determinism-symmetry");
    let mut faults = FaultPlan::none();
    faults.fail_random_sats(constellation.len(), 0.1, &mut rng);
    let graph = IslGraph::build(&constellation, SimTime::from_secs(211), &faults);

    set_routing_cache_override(Some(true));
    let pairs = [(0u32, 900u32), (111, 1583), (700, 42)];
    for (a, b) in pairs {
        let (a, b) = (SatIndex(a), SatIndex(b));
        let forward = graph.hop_distance_between(a, b);
        // The reverse query must be answered from the same table (hops are
        // integer BFS levels — direction can't change them) without
        // computing b's table.
        let before = graph.reverse_table_hits();
        let backward = graph.hop_distance_between(b, a);
        assert_eq!(forward, backward, "hop distance asymmetric {a:?}↔{b:?}");
        assert!(
            graph.reverse_table_hits() > before,
            "reverse lookup recomputed instead of reusing {a:?}'s table"
        );
    }
    set_routing_cache_override(None);
}

#[test]
fn routing_cache_matches_direct_computation_on_faulted_graph() {
    let _guard = OVERRIDE_LOCK.lock().unwrap();
    let constellation = Constellation::new(shells::starlink_shell1());
    let mut rng = DetRng::new(77, "determinism-faults");
    let mut faults = FaultPlan::none();
    faults.fail_random_sats(constellation.len(), 0.15, &mut rng);
    let graph = IslGraph::build(&constellation, SimTime::from_secs(431), &faults);

    for src in [0u32, 111, 700, 1583] {
        let src = SatIndex(src);
        let direct = SourceTables::compute(&graph, src);

        set_routing_cache_override(Some(true));
        let cached = graph.routing_tables(src);
        assert_eq!(*cached, direct, "cached tables diverge for {src:?}");
        // A second lookup returns the same memoized entry.
        assert_eq!(*graph.routing_tables(src), direct);

        set_routing_cache_override(Some(false));
        let uncached = graph.routing_tables(src);
        assert_eq!(*uncached, direct, "kill switch changes answers for {src:?}");
    }
    set_routing_cache_override(None);
}

#[test]
fn link_load_totals_identical_across_instances() {
    // `LinkLoad` keeps loads in a `HashMap`, whose iteration order is
    // seeded per instance. Float addition is not associative, so summing
    // in iteration order made `total_link_work` (and `isl_load.json`)
    // drift in the last ulp between runs. Build the same load twice —
    // two maps, two seeds — and demand bit-identical aggregates.
    let constellation = Constellation::new(shells::starlink_shell1());
    let graph = IslGraph::build(&constellation, SimTime::EPOCH, &FaultPlan::none());
    let build = || {
        let mut load = spacecdn_suite::lsn::LinkLoad::new();
        for i in 0..400u32 {
            let src = SatIndex((i * 37) % constellation.len() as u32);
            let dst = SatIndex((i * 101 + 13) % constellation.len() as u32);
            // Demands with busy mantissas so any reordering of the sum
            // shows up in the low bits.
            load.route(&graph, src, dst, 0.1 * (f64::from(i) + 0.37));
        }
        load
    };
    let a = build();
    let b = build();
    assert_eq!(
        a.total_link_work().to_bits(),
        b.total_link_work().to_bits(),
        "total_link_work drifts across HashMap instances"
    );
    assert_eq!(a.mean_hops().to_bits(), b.mean_hops().to_bits());
    assert_eq!(a.max_link(), b.max_link());
    assert_eq!(a.loaded_links(), b.loaded_links());
}

#[test]
fn nearest_alive_spatial_matches_linear_on_faulted_graph() {
    let _guard = OVERRIDE_LOCK.lock().unwrap();
    let constellation = Constellation::new(shells::starlink_shell1());
    let mut rng = DetRng::new(78, "determinism-spatial");
    let mut faults = FaultPlan::none();
    faults.fail_random_sats(constellation.len(), 0.25, &mut rng);
    let graph = IslGraph::build(&constellation, SimTime::from_secs(97), &faults);

    set_routing_cache_override(Some(true));
    for lat in [-52.0, -10.0, 0.0, 33.0, 51.5] {
        for lon in [-170.0, -45.0, 0.0, 77.0, 139.0] {
            let g = spacecdn_suite::geo::Geodetic::ground(lat, lon);
            assert_eq!(
                graph.nearest_alive(g),
                graph.nearest_alive_linear(g),
                "spatial index diverges at lat={lat} lon={lon}"
            );
        }
    }
    set_routing_cache_override(None);
}
