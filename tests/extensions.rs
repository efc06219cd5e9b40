//! Integration tests for the §5-extension subsystems, exercised through the
//! umbrella crate the way a downstream user would.

use spacecdn_suite::core::network::LsnNetwork;
use spacecdn_suite::core::simulation::{run_workload, WorkloadConfig};
use spacecdn_suite::core::spacevm::{plan_vm_service, VmServiceConfig};
use spacecdn_suite::core::wormhole::{find_transits, wormhole_capacity};
use spacecdn_suite::geo::{Geodetic, Km, SimDuration, SimTime};
use spacecdn_suite::lsn::{churn_report, route_samples, LinkLoad};
use spacecdn_suite::measure::geoblock::geoblock_survey;
use spacecdn_suite::measure::streaming::{simulate_session, PlayerConfig, StreamPath};
use spacecdn_suite::orbit::multishell::MultiConstellation;
use spacecdn_suite::orbit::shell::shells;
use spacecdn_suite::orbit::visibility::VisibilityMask;
use spacecdn_suite::orbit::Constellation;

#[test]
fn multishell_fleet_closes_the_polar_gap() {
    let fleet = MultiConstellation::starlink_2024();
    let pole = Geodetic::ground(82.0, 30.0);
    let full = fleet.coverage_fraction(pole, VisibilityMask::STARLINK, 12, 300);
    assert!(full > 0.8, "full fleet at 82°N: {full}");
    let shell1 = MultiConstellation::new(&[*fleet.shell(0).config()]);
    assert_eq!(
        shell1.coverage_fraction(pole, VisibilityMask::STARLINK, 12, 300),
        0.0
    );
}

#[test]
fn workload_plus_predictor_close_the_loop() {
    // The closed-loop dashboard sim serves mostly from space.
    let net = LsnNetwork::starlink();
    let report = run_workload(
        &net,
        &WorkloadConfig {
            duration: SimDuration::from_mins(5),
            mean_interarrival: SimDuration::from_millis(800),
            ..WorkloadConfig::default()
        },
    );
    assert!(report.space_hit_ratio() > 0.5);
}

#[test]
fn spacevm_and_streaming_share_the_window_math() {
    // The VM hand-off windows and the DASH stripes both ride the same
    // visibility machinery; a seamless VM plan implies stripes fit too.
    let c = Constellation::new(shells::starlink_shell1());
    let plan = plan_vm_service(
        &c,
        Geodetic::ground(48.1, 11.6),
        VisibilityMask::STARLINK,
        &VmServiceConfig::default(),
        SimTime::EPOCH,
        10,
    );
    assert_eq!(plan.seamless_fraction(), 1.0);

    let qoe = simulate_session(StreamPath::spacecdn_overhead(), PlayerConfig::default(), 1);
    assert_eq!(qoe.rebuffer_events, 0);
}

#[test]
fn wormhole_and_groundtrack_agree_on_drift_direction() {
    use spacecdn_suite::orbit::groundtrack::nodal_drift_deg_per_orbit;
    let c = Constellation::new(shells::starlink_shell1());
    // Tracks drift west ~24°/orbit…
    let drift = nodal_drift_deg_per_orbit(&c);
    assert!((23.0..25.0).contains(&drift));
    // …so the westward route has carriers and timing consistent with it.
    let transits = find_transits(
        &c,
        Geodetic::ground(50.0, 10.0),  // Europe
        Geodetic::ground(39.0, -77.0), // US East (westward!)
        Km(1500.0),
        SimTime::EPOCH,
        SimDuration::from_mins(240),
        SimDuration::from_secs(30),
    );
    let cap = wormhole_capacity(&transits, 1_000_000_000, SimDuration::from_mins(240));
    assert!(cap.carriers > 0, "westward freight must exist");
}

#[test]
fn geoblock_survey_consistent_with_homing() {
    let survey = geoblock_survey();
    for s in &survey {
        // National content is blocked exactly when the PoP sits in another
        // country.
        assert_eq!(s.national_content_blocked, s.cc != s.pop_cc, "{}", s.cc);
    }
}

#[test]
fn backbone_relief_is_an_order_of_magnitude() {
    use spacecdn_suite::core::placement::{PlacementPlan, PlacementStrategy};
    use spacecdn_suite::lsn::{bfs_nearest, FaultPlan};
    let net = LsnNetwork::starlink();
    let snap = net.snapshot(SimTime::EPOCH, &FaultPlan::none());
    let graph = snap.graph();
    let caches = PlacementPlan::builder(PlacementStrategy::PerPlane { k: 4 })
        .seed(3)
        .build_single(net.constellation())
        .materialize(net.constellation());

    let mut bent = LinkLoad::new();
    let mut space = LinkLoad::new();
    let frankfurt = Geodetic::ground(50.11, 8.68);
    let (fra_sat, _) = graph.nearest_alive(frankfurt).unwrap();
    for city in ["Maputo", "Nairobi", "Lusaka", "Kigali"] {
        let c = spacecdn_suite::terra::city::city_by_name(city).unwrap();
        let (up, _) = snap.overhead_sat(c.position()).unwrap();
        bent.route(graph, up, fra_sat, 1.0);
        let path = bfs_nearest(graph, up, 10, |s| caches.contains(&s)).unwrap();
        space.route(graph, up, *path.sats.last().unwrap(), 1.0);
    }
    assert!(
        bent.total_link_work() > 5.0 * space.total_link_work(),
        "bent {} vs space {}",
        bent.total_link_work(),
        space.total_link_work()
    );
}

#[test]
fn route_churn_visible_on_long_paths() {
    let c = Constellation::new(shells::starlink_shell1());
    let samples = route_samples(
        &c,
        Geodetic::ground(-1.29, 36.82), // Nairobi
        Geodetic::ground(50.11, 8.68),  // Frankfurt
        SimTime::EPOCH,
        SimDuration::from_mins(10),
        SimDuration::from_secs(30),
    );
    let report = churn_report(&samples, SimDuration::from_secs(30)).unwrap();
    assert!(report.route_changes >= 1);
    assert!(report.max_reroute_jump_ms < 50.0);
}
