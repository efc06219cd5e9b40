//! The `fault_sweep` experiment's per-request checks at reduced size.
//! Under nested satellite kills, a fetch whose overhead satellite survives
//! never needs fewer escalation attempts at a heavier kill fraction. (The
//! aggregate mean attempts may dip: a user whose overhead satellite dies
//! re-homes, and its new neighbourhood may hold a closer copy.) Under the
//! Figure 7 kill schedule, a paired trial never gets cheaper.

use spacecdn_suite::core::network::LsnNetwork;
use spacecdn_suite::geo::{DetRng, Latency, SimTime};
use spacecdn_suite::lsn::FaultSchedule;
use spacecdn_suite::measure::faults::{attempts_fell_on_same_overhead, sweep_fetches, SweepFetch};
use spacecdn_suite::measure::spacecdn::{
    fig7_cheapened_trials, hop_bound_experiment, same_fig7_draw,
};
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

/// The Figure-7-under-faults check: a trial that draws the same city and
/// placement and keeps its overhead satellite never finds its ground
/// fallback or its best space copy cheaper under satellite kills. (The
/// aggregate fallback count may fall: a kill can raise the bent-pipe
/// fallback past the space path, a re-homed user starts from a new
/// neighbourhood, and the lazy jitter draw shifts later trials onto other
/// cities.)
#[test]
fn fig7_trials_never_get_cheaper_under_kills() {
    let n_sats = LsnNetwork::starlink().constellation().len();
    let bounds = [1u32, 5, 10];
    let pristine = hop_bound_experiment(&bounds, 60, 2, 41, &FaultSchedule::none());
    let mut kill = DetRng::new(17, "sweep/fig7-kill");
    let mut schedule = FaultSchedule::none();
    schedule.random_sat_failures(n_sats, 0.15, SimTime::EPOCH, &mut kill);
    let faulted = hop_bound_experiment(&bounds, 60, 2, 41, &schedule);
    let mut rose = (0, 0);
    for (p, f) in pristine.iter().zip(&faulted) {
        assert_eq!(p.trials.len(), 60);
        let cheapened = fig7_cheapened_trials(&p.trials, &f.trials);
        assert!(cheapened.is_empty(), "{} hops: {cheapened:?}", p.max_hops);
        for (a, b) in p.trials.iter().zip(&f.trials) {
            if same_fig7_draw(a, b) {
                rose.0 += usize::from(b.ground_rtt > a.ground_rtt);
                rose.1 += usize::from(b.best_space_rtt != a.best_space_rtt);
            }
        }
    }
    // Not vacuous: the kills raise both sides on paired trials.
    assert!(rose.0 > 0 && rose.1 > 0, "{rose:?}");

    // The check catches a planted cheaper fallback and a planted cheaper
    // space copy on a paired trial.
    let (p, f) = (&pristine[1].trials, &faulted[1].trials);
    let i = p
        .iter()
        .zip(f)
        .position(|(a, b)| same_fig7_draw(a, b) && a.best_space_rtt.is_some())
        .expect("a paired trial with a copy in budget");
    let mut planted = f.clone();
    planted[i].ground_rtt = p[i].ground_rtt - Latency::from_ms(0.001);
    assert_eq!(fig7_cheapened_trials(p, &planted), vec![i]);
    let mut planted = f.clone();
    planted[i].best_space_rtt = p[i].best_space_rtt.map(|r| r - Latency::from_ms(0.001));
    assert_eq!(fig7_cheapened_trials(p, &planted), vec![i]);
}
