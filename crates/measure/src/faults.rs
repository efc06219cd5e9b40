//! Availability under fault schedules: the fetch loop behind the
//! `fault_sweep` experiment, one record per fetch.
//!
//! Each sweep point resolves the same request stream (cities drawn from
//! a per-epoch RNG) against the same copy layout under a schedule that
//! only the sweep varies, so records pair up across points by index.
//! That pairing is what the failure sweep's check reads: with nested kill
//! sets, a fetch whose overhead satellite is the same at two fractions
//! can only lose copies and lengthen routes as the fraction grows, so it
//! never needs fewer escalation attempts. The *aggregate* mean attempts
//! carries no such guarantee — a user whose overhead satellite dies
//! re-homes to another, whose neighbourhood may hold a closer copy.

use spacecdn_core::network::LsnNetwork;
use spacecdn_core::placement::{PlacementPlan, PlacementStrategy};
use spacecdn_core::retrieval::{RetrievalRequest, RetrievalSource};
use spacecdn_geo::{DetRng, SimTime};
use spacecdn_lsn::FaultSchedule;
use spacecdn_orbit::SatIndex;
use spacecdn_terra::city::City;

/// One resolved fetch of a sweep point.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepFetch {
    /// The requesting city's overhead satellite (`None` in a dead zone).
    pub overhead: Option<SatIndex>,
    /// Escalation-ladder rungs the fetch tried.
    pub attempts: u32,
    /// Fetch RTT in milliseconds.
    pub rtt_ms: f64,
    /// Served from a satellite rather than the ground.
    pub space_hit: bool,
    /// The fetch degraded (dead zone or exhausted ladder).
    pub degraded: bool,
}

/// Resolve `trials` city fetches per epoch in `epochs` (seconds) with a
/// graceful [`RetrievalRequest`] (the paper's 1/3/5/10-hop ladder and
/// 160 ms ground fallback, no jitter) against the schedule
/// `schedule_at` builds from the `kill_stream` RNG, lowered at each
/// epoch. Request and copy randomness is keyed by epoch only, so across
/// sweep points only the faults vary and record `i` of one point is the
/// same request as record `i` of another. Copies are placed with
/// four per plane on the *intended* fleet; failures silently remove them.
pub fn sweep_fetches(
    net: &LsnNetwork,
    pool: &[&City],
    schedule_at: impl Fn(&mut DetRng) -> FaultSchedule,
    kill_stream: &str,
    epochs: &[u64],
    trials: usize,
) -> Vec<SweepFetch> {
    let mut fetches = Vec::with_capacity(epochs.len() * trials);
    for &t_secs in epochs {
        // The kill stream is shared across sweep points (the fraction is
        // applied *inside* `schedule_at`), so a heavier point's fault set
        // strictly extends a lighter one's.
        let mut kill = DetRng::new(17, kill_stream);
        let schedule = schedule_at(&mut kill);
        let t = SimTime::from_secs(t_secs);
        let snap = net.snapshot(t, &schedule.plan_at(t));
        let mut req = DetRng::new(19, &format!("sweep/req/{t_secs}"));
        let caches = PlacementPlan::builder(PlacementStrategy::PerPlane { k: 4 })
            .seed(23 ^ t_secs)
            .build_single(net.constellation())
            .materialize(net.constellation());
        for _ in 0..trials {
            let city = *req.choose(pool).expect("pool");
            let out = RetrievalRequest::new(city.position()).execute(
                snap.graph(),
                net.access(),
                &caches,
                None,
            );
            let outcome = out.outcome.expect("graceful fetch always resolves");
            fetches.push(SweepFetch {
                overhead: snap.overhead_sat(city.position()).map(|(sat, _)| sat),
                attempts: out.attempts,
                rtt_ms: outcome.rtt.ms(),
                space_hit: outcome.source != RetrievalSource::Ground,
                degraded: out.degraded.is_some(),
            });
        }
    }
    fetches
}

/// Indices of the fetches that needed fewer attempts under `heavier`
/// faults than under `lighter` ones while keeping the same overhead
/// satellite — empty whenever `heavier`'s kill set extends `lighter`'s.
///
/// # Panics
/// Panics when the two points resolved different numbers of fetches.
pub fn attempts_fell_on_same_overhead(
    lighter: &[SweepFetch],
    heavier: &[SweepFetch],
) -> Vec<usize> {
    assert_eq!(
        lighter.len(),
        heavier.len(),
        "sweep points must pair fetch for fetch"
    );
    lighter
        .iter()
        .zip(heavier)
        .enumerate()
        .filter(|(_, (a, b))| {
            a.overhead.is_some() && a.overhead == b.overhead && b.attempts < a.attempts
        })
        .map(|(i, _)| i)
        .collect()
}
