//! §4 simulation drivers: hop-bounded SpaceCDN retrieval (Figure 7) and
//! duty-cycled caches (Figure 8).

use spacecdn_core::duty_cycle::DutyCycler;
use spacecdn_core::network::{LsnNetwork, LsnSnapshot};
use spacecdn_core::placement::{PlacementPlan, PlacementStrategy};
use spacecdn_core::retrieval::{RetrievalRequest, RetrievalSource};
use spacecdn_des::Percentiles;
use spacecdn_engine::par_map;
use spacecdn_geo::{DetRng, Latency, SimDuration, SimTime};
use spacecdn_lsn::cache::routing_cache_enabled;
use spacecdn_lsn::FaultSchedule;
use spacecdn_orbit::SatIndex;
use spacecdn_telemetry::LazyCounter;
use spacecdn_terra::cdn::{anycast_select, cdn_sites};
use spacecdn_terra::city::{cities, City};
use spacecdn_terra::starlink::{covered_countries, home_pop};
use std::collections::HashSet;

/// Per-campaign trial counters (stable: trial counts are fixed by the
/// experiment parameters, not by scheduling).
static FIG7_TRIALS: LazyCounter = LazyCounter::stable("measure.fig7.trials");
static FIG8_TRIALS: LazyCounter = LazyCounter::stable("measure.fig8.trials");
/// Fig 8 fetches that were *relayed* over ISLs to an active cache — the
/// duty-cycling cost the figure measures (stable).
static FIG8_RELAYS: LazyCounter = LazyCounter::stable("measure.fig8.relays");

/// Figure 8's hop budget. Generous: with ≥30 % active a cache is
/// adjacent.
const FIG8_HOP_BUDGET: u32 = 12;

/// Result of one hop-bound sweep point.
#[derive(Debug)]
pub struct HopBoundResult {
    /// The ISL hop budget (the paper sweeps 1/3/5/10).
    pub max_hops: u32,
    /// Fetch-latency samples for requests satisfied within the budget.
    pub latencies: Percentiles,
    /// Requests that missed every in-budget copy (served from ground,
    /// excluded from `latencies` — the figure conditions on "found within
    /// n hops").
    pub ground_fallbacks: usize,
    /// Observed hop counts of satisfied requests.
    pub hop_histogram: Vec<u32>,
    /// Every trial's outcome, epoch-major in draw order.
    pub trials: Vec<Fig7Trial>,
}

/// One Figure 7 trial: who asked, and what each side of the Figure 6
/// decision would have cost.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig7Trial {
    /// Epoch index of the trial's snapshot.
    pub epoch: usize,
    /// The requesting city.
    pub city: &'static str,
    /// Seed of the trial's covering placement.
    pub plan_seed: u64,
    /// The city's overhead satellite (`None` in a dead zone).
    pub overhead: Option<SatIndex>,
    /// The cheapest copy within the hop budget, user link included,
    /// whether or not it beat the ground (`None` when no copy was in
    /// budget).
    pub best_space_rtt: Option<Latency>,
    /// The bent-pipe ground fallback the trial was priced against.
    pub ground_rtt: Latency,
    /// Served from space (otherwise from the ground).
    pub space_served: bool,
}

/// Result of one duty-cycle sweep point.
#[derive(Debug)]
pub struct DutyCycleResult {
    /// Active cache fraction.
    pub fraction: f64,
    /// Fetch-latency samples.
    pub latencies: Percentiles,
}

/// Population-weighted sampler over cities in Starlink-covered countries.
fn covered_city_sampler() -> Vec<&'static City> {
    let covered = covered_countries();
    let mut pool = Vec::new();
    for c in cities() {
        if covered.contains(&c.cc) {
            // Weight by population bucket: one entry per ~2M people,
            // at least one.
            let copies = (c.population_k / 2000).max(1);
            for _ in 0..copies {
                pool.push(c);
            }
        }
    }
    pool
}

/// Pre-warm one epoch snapshot's routing cache with every source its
/// trials can touch: the overhead satellites of the sampler's cities
/// (each trial routes from the requesting city's overhead satellite and
/// nowhere else), as [`RoutingBall`](spacecdn_lsn::RoutingBall)s out to
/// `radius`, the campaign's largest hop budget — every trial's table
/// lookup is a ball at most that wide, which the warmed one answers. The
/// ground-fallback pricing ([`LsnSnapshot::starlink_rtt_to_pop`]) runs
/// its own bounded walk and reads no cached table. Warmed balls are
/// bitwise identical to on-demand ones — this moves work, never changes
/// results — and the call is a no-op when the routing cache is disabled.
fn warm_epoch_sources(snap: &LsnSnapshot<'_>, pool: &[&'static City], radius: u32) {
    if !routing_cache_enabled() {
        return;
    }
    let mut seen_city = HashSet::new();
    let mut seen_sat = HashSet::new();
    for city in pool {
        if !seen_city.insert(city.name) {
            continue;
        }
        if let Some((sat, _)) = snap.overhead_sat(city.position()) {
            if seen_sat.insert(sat.0) {
                snap.graph().routing_tables_within(sat, radius);
            }
        }
    }
}

/// Figure 7: fetch-latency distributions when content is found within
/// `max_hops` ISL hops, for each budget in `hop_bounds`.
///
/// Per trial: a random covered city requests an object whose copies are
/// placed with [`PlacementStrategy::CoverRadius`] for the budget; the fetch
/// resolves via the Figure 6 logic. Ground fallbacks (the random placement
/// left a coverage hole) are counted but excluded from the latency CDF, as
/// the figure conditions on in-space hits.
///
/// The fleet is degraded by `schedule`: each epoch's snapshot is built
/// from `schedule.plan_at(t)`, so outages, flaps and GSL failures move
/// with simulated time. A city whose sky goes dark (no servable
/// satellite) counts as a ground fallback. Pristine campaigns pass
/// [`FaultSchedule::none()`] — an empty timeline lowers to the empty plan
/// at every epoch (same snapshot-pool keys, same graphs), so results are
/// byte-identical to the historical schedule-less entry point.
pub fn hop_bound_experiment(
    hop_bounds: &[u32],
    trials_per_bound: usize,
    epochs: usize,
    seed: u64,
    schedule: &FaultSchedule,
) -> Vec<HopBoundResult> {
    let net = LsnNetwork::starlink();
    let pool = covered_city_sampler();
    let sites = cdn_sites();

    // The topology depends only on the epoch, never the hop bound: build
    // each epoch's snapshot once and share it (and its routing cache)
    // across every bound's tasks. The old loop rebuilt it per (bound,
    // epoch).
    let snapshots: Vec<LsnSnapshot<'_>> = (0..epochs)
        .map(|epoch| {
            let t = SimTime::from_secs(epoch as u64 * 157);
            net.snapshot(t, &schedule.plan_at(t))
        })
        .collect();
    let widest = hop_bounds.iter().copied().max().unwrap_or(0);
    par_map(&snapshots, |_, snap| {
        warm_epoch_sources(snap, &pool, widest)
    });

    let mut tasks: Vec<(u32, usize)> = Vec::new();
    for &max_hops in hop_bounds {
        for epoch in 0..epochs {
            tasks.push((max_hops, epoch));
        }
    }
    // One task per (bound, epoch); RNG stream "fig7/{max_hops}/{epoch}" is
    // self-contained, so any thread interleaving reproduces the sequential
    // sample stream.
    let per_task = par_map(&tasks, |_, &(max_hops, epoch)| {
        let snap = &snapshots[epoch];
        let mut samples: Vec<f64> = Vec::new();
        let mut fallbacks = 0usize;
        let mut hops_seen: Vec<u32> = Vec::new();
        let mut trials: Vec<Fig7Trial> = Vec::new();
        let mut rng = DetRng::new(seed, &format!("fig7/{max_hops}/{epoch}"));
        for _ in 0..trials_per_bound.div_ceil(epochs) {
            let city = *rng.choose(&pool).expect("pool non-empty");
            // Per-trial plan seed drawn from the task stream, so each trial
            // samples a fresh covering placement deterministically.
            let plan_seed = rng.index(u32::MAX as usize) as u64;
            let caches = PlacementPlan::builder(PlacementStrategy::CoverRadius { hops: max_hops })
                .seed(plan_seed)
                .build_single(net.constellation())
                .materialize(net.constellation());
            // Ground fallback: the regular Starlink-CDN path.
            let pop = home_pop(city.cc, city.position());
            let fallback = snap
                .starlink_rtt_to_pop(city.position(), &pop, None)
                .map(|p| {
                    let (_, pop_to_site) =
                        anycast_select(pop.position(), pop.city.region, &sites, net.fiber())
                            .expect("sites non-empty");
                    p.rtt + pop_to_site
                })
                .unwrap_or(Latency::from_ms(300.0));
            let req = RetrievalRequest::new(city.position())
                .hop_budget(max_hops)
                .ground_fallback(fallback)
                .graceful(false);
            FIG7_TRIALS.incr();
            let fetched = req.execute(snap.graph(), net.access(), &caches, Some(&mut rng));
            trials.push(Fig7Trial {
                epoch,
                city: city.name,
                plan_seed,
                overhead: snap.overhead_sat(city.position()).map(|(sat, _)| sat),
                best_space_rtt: fetched.best_space_rtt,
                ground_rtt: fallback,
                space_served: fetched.space_hit(),
            });
            let Some(out) = fetched.outcome else {
                // Dead zone under the fault schedule: no satellite serves
                // the city at all, so the request rides the ground path.
                fallbacks += 1;
                continue;
            };
            match out.source {
                RetrievalSource::Ground => fallbacks += 1,
                RetrievalSource::Overhead => {
                    samples.push(out.rtt.ms());
                    hops_seen.push(0);
                }
                RetrievalSource::Isl { hops } => {
                    samples.push(out.rtt.ms());
                    hops_seen.push(hops);
                }
            }
        }
        (samples, fallbacks, hops_seen, trials)
    });

    // Reassemble per bound in task order (epoch-minor), matching the
    // sequential accumulation exactly.
    let mut results = Vec::new();
    for (b, &max_hops) in hop_bounds.iter().enumerate() {
        let mut latencies = Percentiles::new();
        let mut fallbacks = 0usize;
        let mut hops_seen = Vec::new();
        let mut trials = Vec::new();
        for (samples, f, hops, t) in &per_task[b * epochs..(b + 1) * epochs] {
            for &s in samples {
                latencies.add(s);
            }
            fallbacks += f;
            hops_seen.extend_from_slice(hops);
            trials.extend_from_slice(t);
        }
        results.push(HopBoundResult {
            max_hops,
            latencies,
            ground_fallbacks: fallbacks,
            hop_histogram: hops_seen,
            trials,
        });
    }
    results
}

/// Indices of the trials in which a side of the Figure 6 decision got
/// cheaper under `heavier` satellite kills than under `lighter` ones —
/// empty whenever `heavier`'s dead set extends `lighter`'s.
///
/// Only trials that drew the same city and placement at the same epoch
/// and kept the same overhead satellite are compared (a trial's jitter
/// draw is lazy, so the two runs' streams can drift apart, and a re-homed
/// user starts from a new neighbourhood). For those, killing satellites
/// only removes copies and routes: the ground fallback never falls, a
/// best space RTT never falls, and a space copy never appears from
/// nothing. The served side may still flip either way — a kill can raise
/// the bent-pipe fallback past the space path, so a faulted trial can be
/// served from space where the pristine one fell back to the ground.
///
/// # Panics
/// Panics when the two runs resolved different numbers of trials.
pub fn fig7_cheapened_trials(lighter: &[Fig7Trial], heavier: &[Fig7Trial]) -> Vec<usize> {
    assert_eq!(
        lighter.len(),
        heavier.len(),
        "runs must pair trial for trial"
    );
    lighter
        .iter()
        .zip(heavier)
        .enumerate()
        .filter(|(_, (a, b))| {
            same_fig7_draw(a, b)
                && (b.ground_rtt < a.ground_rtt
                    || match (a.best_space_rtt, b.best_space_rtt) {
                        (Some(ra), Some(rb)) => rb < ra,
                        (None, Some(_)) => true,
                        _ => false,
                    })
        })
        .map(|(i, _)| i)
        .collect()
}

/// Did two runs' trials draw the same city and placement at the same
/// epoch from the same overhead satellite?
pub fn same_fig7_draw(a: &Fig7Trial, b: &Fig7Trial) -> bool {
    a.epoch == b.epoch
        && a.city == b.city
        && a.plan_seed == b.plan_seed
        && a.overhead.is_some()
        && a.overhead == b.overhead
}

/// Figure 8: fetch latencies when only `fraction` of the fleet caches at a
/// time and the rest relay. Content is assumed resident on every *active*
/// cache (the figure isolates the relay-distance cost of duty cycling, not
/// content placement).
///
/// The fleet is degraded by `schedule` (see [`hop_bound_experiment`]); a
/// city with no servable satellite overhead is served at the
/// ground-fallback RTT. Pristine campaigns pass [`FaultSchedule::none()`].
pub fn duty_cycle_experiment(
    fractions: &[f64],
    trials_per_fraction: usize,
    epochs: usize,
    seed: u64,
    schedule: &FaultSchedule,
) -> Vec<DutyCycleResult> {
    let net = LsnNetwork::starlink();
    let pool = covered_city_sampler();

    // Snapshots are per-epoch only; share them across fractions.
    let snapshots: Vec<LsnSnapshot<'_>> = (0..epochs)
        .map(|epoch| {
            let t = SimTime::from_secs(epoch as u64 * 157);
            net.snapshot(t, &schedule.plan_at(t))
        })
        .collect();
    par_map(&snapshots, |_, snap| {
        warm_epoch_sources(snap, &pool, FIG8_HOP_BUDGET)
    });

    let mut tasks: Vec<(f64, usize)> = Vec::new();
    for &fraction in fractions {
        for epoch in 0..epochs {
            tasks.push((fraction, epoch));
        }
    }
    let per_task = par_map(&tasks, |_, &(fraction, epoch)| {
        let t = SimTime::from_secs(epoch as u64 * 157);
        let snap = &snapshots[epoch];
        let cycler = DutyCycler::new(fraction, SimDuration::from_mins(10), seed);
        let active = cycler.active_set(net.constellation(), t);
        let mut rng = DetRng::new(seed, &format!("fig8/{fraction}/{epoch}"));
        let fallback_rtt = Latency::from_ms(300.0);
        let mut samples: Vec<f64> = Vec::new();
        for _ in 0..trials_per_fraction.div_ceil(epochs) {
            let city = *rng.choose(&pool).expect("pool non-empty");
            let req = RetrievalRequest::new(city.position())
                .hop_budget(FIG8_HOP_BUDGET)
                .ground_fallback(fallback_rtt)
                .graceful(false);
            FIG8_TRIALS.incr();
            let Some(out) = req
                .execute(snap.graph(), net.access(), &active, Some(&mut rng))
                .outcome
            else {
                samples.push(fallback_rtt.ms());
                continue;
            };
            if matches!(out.source, RetrievalSource::Isl { .. }) {
                FIG8_RELAYS.incr();
            }
            samples.push(out.rtt.ms());
        }
        samples
    });

    let mut results = Vec::new();
    for (fi, &fraction) in fractions.iter().enumerate() {
        let mut latencies = Percentiles::new();
        for samples in &per_task[fi * epochs..(fi + 1) * epochs] {
            for &s in samples {
                latencies.add(s);
            }
        }
        results.push(DutyCycleResult {
            fraction,
            latencies,
        });
    }
    results
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig7_ordering_and_bands() {
        let mut results = hop_bound_experiment(&[1, 5, 10], 120, 2, 11, &FaultSchedule::none());
        assert_eq!(results.len(), 3);
        let medians: Vec<f64> = results
            .iter_mut()
            .map(|r| r.latencies.median().expect("samples"))
            .collect();
        // More hop budget ⇒ farther copies allowed ⇒ higher latency.
        assert!(medians[0] < medians[1], "{medians:?}");
        assert!(medians[1] < medians[2], "{medians:?}");
        // 1-hop fetches are near the pure user-link floor (~15-25 ms).
        assert!((10.0..30.0).contains(&medians[0]), "{medians:?}");
        // Even the 10-hop budget stays well under typical far-homed
        // Starlink-CDN latency (~140+ ms).
        assert!(medians[2] < 90.0, "{medians:?}");
    }

    #[test]
    fn fig7_hop_budget_respected() {
        let results = hop_bound_experiment(&[3], 80, 2, 13, &FaultSchedule::none());
        let r = &results[0];
        assert!(r.hop_histogram.iter().all(|&h| h <= 3));
        assert!(!r.hop_histogram.is_empty());
    }

    #[test]
    fn fig8_duty_cycle_ordering() {
        let mut results = duty_cycle_experiment(&[0.3, 0.8], 120, 2, 17, &FaultSchedule::none());
        let m30 = results[0].latencies.median().unwrap();
        let m80 = results[1].latencies.median().unwrap();
        // Fewer active caches ⇒ longer relays ⇒ higher latency.
        assert!(m30 > m80, "30% {m30} vs 80% {m80}");
        // Both stay in the tens of milliseconds (Fig 8's axis is 0-40 ms).
        assert!(m80 > 10.0 && m30 < 60.0, "m80 {m80} m30 {m30}");
    }

    #[test]
    fn empty_schedule_is_byte_identical_to_pristine() {
        // Pristine callers now pass `FaultSchedule::none()` where they
        // used to call a schedule-less entry point; this pins the property
        // that migration relies on — an empty timeline and a default one
        // lower to plans whose digests key the same pooled snapshots, so
        // reruns are byte-for-byte reproducible.
        let mut a = hop_bound_experiment(&[1, 5], 60, 2, 29, &FaultSchedule::none());
        let mut b = hop_bound_experiment(&[1, 5], 60, 2, 29, &FaultSchedule::default());
        for (x, y) in a.iter_mut().zip(b.iter_mut()) {
            assert_eq!(x.max_hops, y.max_hops);
            assert_eq!(x.ground_fallbacks, y.ground_fallbacks);
            assert_eq!(x.hop_histogram, y.hop_histogram);
            assert_eq!(
                x.latencies.median().map(f64::to_bits),
                y.latencies.median().map(f64::to_bits)
            );
        }
        let mut c = duty_cycle_experiment(&[0.5], 60, 2, 29, &FaultSchedule::none());
        let mut d = duty_cycle_experiment(&[0.5], 60, 2, 29, &FaultSchedule::default());
        assert_eq!(
            c[0].latencies.median().map(f64::to_bits),
            d[0].latencies.median().map(f64::to_bits)
        );
    }

    #[test]
    fn fig7_under_faults_degrades_gracefully() {
        let c =
            spacecdn_orbit::Constellation::new(spacecdn_orbit::shell::shells::starlink_shell1());
        let mut rng = DetRng::new(31, "fig7-faults");
        let mut schedule = FaultSchedule::none();
        schedule.random_sat_failures(c.len(), 0.2, SimTime::EPOCH, &mut rng);
        let pristine = hop_bound_experiment(&[3], 80, 2, 31, &FaultSchedule::none());
        let faulted = hop_bound_experiment(&[3], 80, 2, 31, &schedule);
        // A fifth of the fleet dead: never a panic, strictly more misses.
        assert!(
            faulted[0].ground_fallbacks > pristine[0].ground_fallbacks,
            "faulted {} vs pristine {}",
            faulted[0].ground_fallbacks,
            pristine[0].ground_fallbacks
        );
        assert!(faulted[0].hop_histogram.iter().all(|&h| h <= 3));
    }

    #[test]
    fn sampler_covers_many_cities() {
        let pool = covered_city_sampler();
        let distinct: std::collections::BTreeSet<_> = pool.iter().map(|c| c.name).collect();
        assert!(distinct.len() > 80, "got {}", distinct.len());
        // No uncovered countries leak in.
        assert!(pool.iter().all(|c| c.cc != "CN"));
    }
}
