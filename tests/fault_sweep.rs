//! The `fault_sweep` experiment's escalation check at reduced size: under
//! nested satellite kills, a fetch whose overhead satellite survives never
//! needs fewer escalation attempts at a heavier kill fraction. (The
//! aggregate mean attempts may dip: a user whose overhead satellite dies
//! re-homes, and its new neighbourhood may hold a closer copy.)

use spacecdn_suite::core::network::LsnNetwork;
use spacecdn_suite::geo::SimTime;
use spacecdn_suite::lsn::FaultSchedule;
use spacecdn_suite::measure::faults::{attempts_fell_on_same_overhead, sweep_fetches, SweepFetch};
use spacecdn_suite::terra::city::cities;
use spacecdn_suite::terra::starlink::covered_countries;

fn failure_point(net: &LsnNetwork, fraction: f64) -> Vec<SweepFetch> {
    let covered = covered_countries();
    let pool: Vec<_> = cities()
        .iter()
        .filter(|c| covered.contains(&c.cc))
        .collect();
    let n_sats = net.constellation().len();
    sweep_fetches(
        net,
        &pool,
        |kill| {
            let mut s = FaultSchedule::none();
            s.random_sat_failures(n_sats, fraction, SimTime::EPOCH, kill);
            s
        },
        "sweep/kill",
        &[0, 157],
        60,
    )
}

#[test]
fn attempts_never_fall_for_a_fetch_that_keeps_its_overhead_satellite() {
    let net = LsnNetwork::starlink();
    let points: Vec<Vec<SweepFetch>> = [0.0, 0.1, 0.2, 0.3, 0.4]
        .into_iter()
        .map(|f| failure_point(&net, f))
        .collect();
    for (i, lighter) in points.iter().enumerate() {
        for heavier in &points[i + 1..] {
            let fell = attempts_fell_on_same_overhead(lighter, heavier);
            assert!(fell.is_empty(), "attempts fell for fetches {fell:?}");
        }
    }
    // Not vacuous: most fetches keep their overhead satellite from 0 %
    // to 30 % dead, some re-home, and escalation does lengthen.
    let (pristine, heavy) = (&points[0], &points[3]);
    let kept = pristine
        .iter()
        .zip(heavy)
        .filter(|(a, b)| a.overhead == b.overhead)
        .count();
    assert!(
        kept > pristine.len() / 2,
        "only {kept} fetches kept their overhead"
    );
    assert!(kept < pristine.len(), "no fetch re-homed");
    assert!(pristine
        .iter()
        .zip(heavy)
        .any(|(a, b)| a.overhead == b.overhead && b.attempts > a.attempts));

    // The check catches a planted fall on an unchanged overhead.
    let i = pristine
        .iter()
        .zip(heavy)
        .position(|(a, b)| a.overhead == b.overhead)
        .expect("a kept overhead");
    let mut planted = heavy.clone();
    planted[i].attempts = pristine[i].attempts - 1;
    assert_eq!(attempts_fell_on_same_overhead(pristine, &planted), vec![i]);
}
