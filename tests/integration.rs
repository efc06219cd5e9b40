//! Cross-crate integration tests: the full pipeline from orbital mechanics
//! through routing, caching, and measurement.

use spacecdn_suite::content::catalog::{Catalog, RegionTag};
use spacecdn_suite::content::fleet::FleetCache;
use spacecdn_suite::content::popularity::RegionalPopularity;
use spacecdn_suite::core::network::LsnNetwork;
use spacecdn_suite::core::placement::{PlacementPlan, PlacementStrategy};
use spacecdn_suite::des::{run_until, Scheduler};
use spacecdn_suite::geo::{DetRng, Latency, SimDuration, SimTime};
use spacecdn_suite::lsn::{FaultPlan, IslGraph};
use spacecdn_suite::orbit::shell::shells;
use spacecdn_suite::orbit::Constellation;
use spacecdn_suite::prelude::{RetrievalRequest, RetrievalSource};
use spacecdn_suite::terra::cdn::{anycast_select, cdn_sites};
use spacecdn_suite::terra::city::{cities, city_by_name};

#[test]
fn full_stack_fetch_pipeline() {
    // Orbit → topology → placement → retrieval, end to end.
    let net = LsnNetwork::starlink();
    let snap = net.snapshot(SimTime::from_secs(300), &FaultPlan::none());
    let caches = PlacementPlan::builder(PlacementStrategy::PerPlane { k: 4 })
        .seed(1)
        .build_single(net.constellation())
        .materialize(net.constellation());
    let mut served_from_space = 0;
    for city in ["Maputo", "London", "Tokyo", "Sao Paulo", "Nairobi"] {
        let c = city_by_name(city).unwrap();
        let out = RetrievalRequest::new(c.position())
            .hop_budget(5)
            .ground_fallback(Latency::from_ms(160.0))
            .graceful(false)
            .execute(snap.graph(), net.access(), &caches, None)
            .outcome
            .expect("constellation alive");
        assert!(
            out.rtt.ms() > 5.0 && out.rtt.ms() < 200.0,
            "{city}: {}",
            out.rtt
        );
        if out.source != RetrievalSource::Ground {
            served_from_space += 1;
        }
    }
    // 288 copies: virtually every mid-latitude fetch is served from space.
    assert!(
        served_from_space >= 4,
        "only {served_from_space} space hits"
    );
}

#[test]
fn des_drives_topology_rebuilds() {
    // A rebuild-every-minute event loop over the constellation: the clock,
    // scheduler and graph builder compose.
    let constellation = Constellation::new(shells::test_shell());
    let mut sched = Scheduler::new();
    sched.schedule_at(SimTime::EPOCH, ());
    let mut edge_counts = Vec::new();
    run_until(
        &mut edge_counts,
        &mut sched,
        SimTime::from_secs(600),
        |counts, sched, t, ()| {
            let graph = IslGraph::build(&constellation, t, &FaultPlan::none());
            counts.push(graph.edge_count());
            sched.schedule_after(SimDuration::from_secs(60), ());
        },
    );
    assert_eq!(edge_counts.len(), 11); // t = 0, 60, …, 600
    assert!(edge_counts.iter().all(|&e| e == edge_counts[0]));
}

#[test]
fn starlink_users_mapped_far_terrestrial_users_mapped_near() {
    // The paper's core mechanism as one assertion over the whole dataset:
    // for far-homed countries, Starlink's effective CDN is much farther
    // than the terrestrial one.
    let sites = cdn_sites();
    let net = LsnNetwork::starlink();
    for cc in ["MZ", "KE", "ZM"] {
        for city in cities().iter().filter(|c| c.cc == cc) {
            let (terr_site, _) =
                anycast_select(city.position(), city.region, &sites, net.fiber()).unwrap();
            let pop = spacecdn_suite::terra::starlink::home_pop(cc, city.position());
            let (star_site, _) =
                anycast_select(pop.position(), pop.city.region, &sites, net.fiber()).unwrap();
            let terr_km = city
                .position()
                .great_circle_distance(terr_site.position())
                .0;
            let star_km = city
                .position()
                .great_circle_distance(star_site.position())
                .0;
            assert!(
                star_km > terr_km + 2000.0,
                "{}: starlink CDN {star_km:.0} km vs terrestrial {terr_km:.0} km",
                city.name
            );
        }
    }
}

#[test]
fn regional_popularity_feeds_caches() {
    // Content pipeline: catalog → regional demand → LRU cache hit ratio
    // grows once the hot set is resident.
    let mut rng = DetRng::new(3, "integration-content");
    let tags = [RegionTag(0), RegionTag(1)];
    let catalog = Catalog::generate(1000, &tags, 0.5, &mut rng);
    let pop = RegionalPopularity::build(&catalog, 2, 1.0, 6.0, &mut rng);
    let mut cache = FleetCache::new(1, 200_000_000, FleetCache::UNEXPIRING_TTL);
    for &id in pop.hot_set(RegionTag(0), 300) {
        let obj = catalog.get(id).unwrap();
        if cache.used_bytes_of(0) + obj.size_bytes > cache.capacity_bytes_per_sat() {
            break;
        }
        cache.insert(0, id, obj.size_bytes);
    }
    let mut hits = 0;
    let n = 2000;
    for _ in 0..n {
        if cache.get(0, pop.sample(RegionTag(0), &mut rng)) {
            hits += 1;
        }
    }
    let ratio = hits as f64 / n as f64;
    assert!(
        ratio > 0.4,
        "hot-set cache should serve most demand: {ratio}"
    );
}

#[test]
fn faults_degrade_but_do_not_break() {
    let net = LsnNetwork::starlink();
    let mut rng = DetRng::new(9, "integration-faults");
    let mut faults = FaultPlan::none();
    faults.fail_random_sats(net.constellation().len(), 0.2, &mut rng);
    let snap = net.snapshot(SimTime::EPOCH, &faults);
    let maputo = city_by_name("Maputo").unwrap();
    let pop = snap.home_pop("MZ", maputo.position());
    let degraded = snap
        .starlink_rtt_to_pop(maputo.position(), &pop, None)
        .expect("path still resolves with 20% failures");
    let healthy = net
        .snapshot(SimTime::EPOCH, &FaultPlan::none())
        .starlink_rtt_to_pop(maputo.position(), &pop, None)
        .unwrap();
    assert!(degraded.rtt.ms() >= healthy.rtt.ms() - 5.0);
    assert!(degraded.rtt.ms() < 400.0, "got {}", degraded.rtt);
}

#[test]
fn whole_simulation_is_deterministic() {
    use spacecdn_suite::measure::aim::{AimCampaign, AimConfig};
    let cfg = AimConfig {
        epochs: 2,
        tests_per_epoch: 2,
        probes_per_test: 3,
        ..AimConfig::default()
    };
    let a = AimCampaign::run_for(&cfg, &["MZ", "ES"]);
    let b = AimCampaign::run_for(&cfg, &["MZ", "ES"]);
    let ja = serde_json::to_string(a.records()).unwrap();
    let jb = serde_json::to_string(b.records()).unwrap();
    assert_eq!(ja, jb, "bit-identical reruns");
}
