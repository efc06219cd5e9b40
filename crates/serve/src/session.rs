//! Live scenario sessions: the daemon-side state one `create` command
//! brings into being.
//!
//! A session owns one [`Scenario`] per simulated shell, a continuous
//! virtual clock, and the workload parameters subsequent commands mutate.
//! Time only moves forward: `advance` steps the clock through a
//! [`Stepper`] over a [`Splice`] of refresh-instant streams (each `fault`
//! command splices the outage's start/end instants in, so the schedule is
//! re-lowered exactly when its plan changes), and each `traffic` burst
//! runs the batched engine from the current clock
//! (`TrafficConfig::start`) and leaves the clock at the burst horizon.
//!
//! Everything a session computes is a pure function of its creation
//! arguments and the ordered mutating commands applied to it — the
//! property the journal/replay layer turns into a differential oracle for
//! the whole daemon.

use crate::protocol::{json_f64, json_str, Command, CreateArgs};
use spacecdn_core::network::LsnNetwork;
use spacecdn_core::placement::{PlacementPlan, PlacementSpec, PlacementStrategy};
use spacecdn_core::retrieval::FetchResult;
use spacecdn_core::scenario::Scenario;
use spacecdn_core::traffic::{
    run_traffic_multishell, PolicyKind, TrafficConfig, TrafficReport, TrafficSource,
};
use spacecdn_des::stream::{EventStream, Splice, Stepper};
use spacecdn_geo::{DetRng, Geodetic, Latency, SimDuration, SimTime};
use spacecdn_lsn::AccessModel;
use spacecdn_measure::traffic::{starlink_shell_scenarios, CoveredCities};
use spacecdn_orbit::shell::shells;
use spacecdn_orbit::Constellation;
use spacecdn_telemetry::LazyCounter;
use spacecdn_terra::fiber::FiberModel;
use std::sync::OnceLock;

static SESSIONS_CREATED: LazyCounter = LazyCounter::stable("serve.sessions.created");
static SESSION_BURSTS: LazyCounter = LazyCounter::stable("serve.sessions.traffic_bursts");
static SESSION_FETCHES: LazyCounter = LazyCounter::stable("serve.sessions.fetches");
static SESSION_MUTATIONS: LazyCounter = LazyCounter::stable("serve.sessions.mutations");

/// A materialized stream of schedule-refresh instants, spliced into the
/// session clock whenever a `fault` command lands mid-run.
struct Instants {
    times: std::vec::IntoIter<SimTime>,
}

impl EventStream for Instants {
    type Event = ();
    fn next_event(&mut self) -> Option<(SimTime, ())> {
        self.times.next().map(|t| (t, ()))
    }
}

/// One live session (see module docs).
pub struct Session {
    args: CreateArgs,
    scenarios: Vec<Scenario>,
    /// Calibrated network the population-weighted source table rides
    /// (starlink sessions only; `None` for the synthetic test grid).
    source_net: Option<LsnNetwork>,
    /// The source table's epoch-independent half on `source_net`, built
    /// by the first burst and reused by every later one.
    covered: OnceLock<CoveredCities>,
    clock: SimTime,
    /// Pending schedule-refresh instants from injected faults, driven in
    /// time order by `advance`.
    refreshes: Stepper<Splice<()>>,
    fetch_rng: DetRng,
    /// Live-mutable burst parameters.
    duty_fraction: f64,
    cache_bytes_per_sat: u64,
    /// Accumulated results.
    bursts: u64,
    fetches: u64,
    fetch_space_hits: u64,
    fetch_degraded: u64,
    fetch_rtt_ms_sum: f64,
    traffic: TrafficReport,
    mutations: u64,
}

impl Session {
    /// Materialize a session from its creation arguments.
    ///
    /// # Errors
    /// Unknown constellation names and out-of-range shell indices are
    /// reported as strings (the server turns them into protocol errors).
    pub fn create(args: CreateArgs) -> Result<Session, String> {
        let (scenarios, source_net) = match args.constellation.as_str() {
            "test" => {
                let net = LsnNetwork::new(
                    Constellation::new(shells::test_shell()),
                    Vec::new(),
                    AccessModel::default(),
                    FiberModel::default(),
                );
                (vec![Scenario::builder(net).build()], None)
            }
            "starlink" => {
                let shell_idx: Vec<usize> = args.shells.iter().map(|&s| s as usize).collect();
                if shell_idx.iter().any(|&s| s >= 4) {
                    return Err(format!("starlink 2024 has shells 0..4, got {shell_idx:?}"));
                }
                let scenarios =
                    starlink_shell_scenarios(&shell_idx, &spacecdn_lsn::FaultSchedule::none());
                (scenarios, Some(LsnNetwork::starlink()))
            }
            other => return Err(format!("unknown constellation {other:?}")),
        };

        let mut scenarios = scenarios;
        if args.copies_per_plane > 0 {
            for (i, sc) in scenarios.iter_mut().enumerate() {
                // Per-shell seed offset decorrelates the plans the way the
                // old shared-RNG sweep did, while keeping each shell's plan
                // a pure function of (seed, shell index).
                let plan = PlacementPlan::builder(PlacementStrategy::PerPlane {
                    k: args.copies_per_plane,
                })
                .seed(args.seed.wrapping_add(i as u64))
                .build_single(sc.network().constellation());
                let copies = plan.materialize(sc.network().constellation());
                sc.set_copies(copies);
            }
        }

        SESSIONS_CREATED.incr();
        let fetch_rng = DetRng::new(args.seed, "serve/fetch");
        Ok(Session {
            scenarios,
            source_net,
            covered: OnceLock::new(),
            clock: SimTime::EPOCH,
            refreshes: Stepper::new(Splice::new()),
            fetch_rng,
            duty_fraction: args.duty,
            cache_bytes_per_sat: u64::from(args.cache_mb) << 20,
            bursts: 0,
            fetches: 0,
            fetch_space_hits: 0,
            fetch_degraded: 0,
            fetch_rtt_ms_sum: 0.0,
            traffic: TrafficReport::default(),
            mutations: 0,
            args,
        })
    }

    /// The session's name.
    pub fn name(&self) -> &str {
        &self.args.session
    }

    /// The current virtual clock (nanoseconds since epoch).
    pub fn clock(&self) -> SimTime {
        self.clock
    }

    /// Traffic bursts run so far.
    pub fn bursts(&self) -> u64 {
        self.bursts
    }

    /// Requests simulated so far (bursts + single fetches).
    pub fn requests(&self) -> u64 {
        self.traffic.requests + self.fetches
    }

    /// Reject a command this session cannot execute, before the server
    /// journals it: an `advance` whose `secs`, or a `traffic` burst whose
    /// `epochs × epoch_step_secs` (each at least 1, as [`Self::traffic`]
    /// runs them), would carry the clock past its `u64` nanosecond range.
    ///
    /// # Errors
    /// A human-readable reason, echoed back as a protocol error.
    pub fn check(&self, cmd: &Command) -> Result<(), String> {
        match *cmd {
            Command::Advance { secs, .. } => {
                secs.checked_mul(1_000_000_000)
                    .and_then(|ns| self.clock.0.checked_add(ns))
                    .ok_or_else(|| format!("advance by {secs} s overflows the session clock"))?;
            }
            Command::Traffic {
                epochs,
                epoch_step_secs,
                ..
            } => {
                epoch_step_secs
                    .max(1)
                    .checked_mul(1_000_000_000)
                    .and_then(|ns| ns.checked_mul(u64::from(epochs.max(1))))
                    .and_then(|ns| self.clock.0.checked_add(ns))
                    .ok_or_else(|| {
                        format!(
                            "a burst of {epochs} epochs of {epoch_step_secs} s overflows the session clock"
                        )
                    })?;
            }
            _ => {}
        }
        Ok(())
    }

    /// Move the clock forward by `secs`, firing any pending
    /// schedule-refresh instants in time order along the way (each
    /// re-lowers the fault plan and re-snapshots through the delta path).
    pub fn advance(&mut self, secs: u64) {
        let target = self.clock + SimDuration::from_secs(secs);
        let scenarios = &mut self.scenarios;
        self.refreshes.step_until(scenarios, target, |scs, t, ()| {
            for sc in scs.iter_mut() {
                if t >= sc.epoch() {
                    sc.advance_to(t);
                }
            }
        });
        for sc in scenarios.iter_mut() {
            if target >= sc.epoch() {
                sc.advance_to(target);
            }
        }
        self.clock = target;
    }

    /// Resolve one retrieval at the current clock against shell 0's
    /// scenario, consuming one slice of the session's fetch RNG stream.
    pub fn fetch(&mut self, lat: f64, lon: f64) -> FetchResult {
        SESSION_FETCHES.incr();
        let user = Geodetic::ground(lat, lon);
        let result = self.scenarios[0].fetch_user(user, Some(&mut self.fetch_rng));
        self.fetches += 1;
        if result.space_hit() {
            self.fetch_space_hits += 1;
        }
        if result.degraded.is_some() {
            self.fetch_degraded += 1;
        }
        if let Some(outcome) = &result.outcome {
            self.fetch_rtt_ms_sum += outcome.rtt.ms();
        }
        result
    }

    /// Run one batched traffic burst from the current clock: the engine
    /// freezes `epochs` epochs at `clock + step·e`, drives `requests`
    /// arrivals over `(clock, clock + step·epochs]`, and the clock lands
    /// on the burst horizon. Caches are warm *within* a burst (the
    /// engine's per-shard fleets); session state carries the workload
    /// parameters, not cache contents.
    pub fn traffic(&mut self, requests: u64, epochs: u32, epoch_step_secs: u64) -> TrafficReport {
        SESSION_BURSTS.incr();
        let step = SimDuration::from_secs(epoch_step_secs.max(1));
        let epochs = epochs.max(1) as usize;
        let start = self.clock;
        // Per-burst seed: decorrelate bursts without losing determinism.
        let seed = self
            .args
            .seed
            .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(self.bursts + 1));
        let cfg = TrafficConfig {
            requests,
            streams: (self.args.streams.max(1)) as usize,
            epochs,
            epoch_step: step,
            catalog_size: (self.args.catalog.max(self.args.streams.max(1))) as usize,
            zipf_alpha: self.args.zipf_alpha,
            cache_bytes_per_sat: self.cache_bytes_per_sat.max(1),
            policy: self.scenarios[0].cache_policy(),
            placement: self.scenarios[0].placement().copied(),
            duty_fraction: self.duty_fraction,
            seed,
            start,
            ..TrafficConfig::default()
        };
        let sources = self.sources_for(start, epochs, step);
        let report = run_traffic_multishell(&mut self.scenarios, &sources, &cfg);
        self.bursts += 1;
        self.clock = start + step.mul(epochs as u64);
        // Consume refresh instants the burst window covered; the engine
        // already lowered the plan at every frozen epoch, so stale
        // instants must not drag a scenario backward.
        let scenarios = &mut self.scenarios;
        self.refreshes
            .step_until(scenarios, self.clock, |scs, t, ()| {
                for sc in scs.iter_mut() {
                    if t >= sc.epoch() {
                        sc.advance_to(t);
                    }
                }
            });
        self.traffic.merge(&report);
        report
    }

    /// Inject an outage window into every shell's live schedule and
    /// splice its start/end instants into the clock's refresh stream.
    pub fn fault(&mut self, sats: &[u32], from_secs: u64, until_secs: Option<u64>, gsl: bool) {
        SESSION_MUTATIONS.incr();
        self.mutations += 1;
        let from = SimTime::from_secs(from_secs);
        let until = until_secs.map(SimTime::from_secs);
        for sc in self.scenarios.iter_mut() {
            let fleet = sc.network().constellation().len() as u32;
            sc.mutate_schedule(|schedule| {
                for &s in sats {
                    if s < fleet {
                        let sat = spacecdn_orbit::SatIndex(s);
                        if gsl {
                            schedule.gsl_outage(sat, from, until);
                        } else {
                            schedule.sat_outage(sat, from, until);
                        }
                    }
                }
            });
        }
        let mut times: Vec<SimTime> = [Some(from), until]
            .into_iter()
            .flatten()
            .filter(|&t| t > self.clock)
            .collect();
        times.sort();
        if !times.is_empty() {
            self.refreshes.stream_mut().splice(Instants {
                times: times.into_iter(),
            });
        }
    }

    /// Change the duty fraction consumed by subsequent bursts.
    pub fn set_duty(&mut self, fraction: f64) {
        SESSION_MUTATIONS.incr();
        self.mutations += 1;
        self.duty_fraction = fraction.clamp(0.0, 1.0);
    }

    /// Resize per-satellite caches for subsequent bursts.
    pub fn set_cache_bytes(&mut self, bytes_per_sat: u64) {
        SESSION_MUTATIONS.incr();
        self.mutations += 1;
        self.cache_bytes_per_sat = bytes_per_sat.max(1);
    }

    /// Swap the cache eviction/admission policy for subsequent bursts.
    /// Cache contents are per-burst, so the swap needs no live migration.
    pub fn set_cache_policy(&mut self, policy: PolicyKind) {
        SESSION_MUTATIONS.incr();
        self.mutations += 1;
        for sc in self.scenarios.iter_mut() {
            sc.set_cache_policy(policy);
        }
    }

    /// Swap (or disable) the replica-placement spec for subsequent bursts.
    /// Pinned replica plans are per-burst, like cache contents, so the
    /// swap needs no live migration.
    pub fn set_placement(&mut self, spec: Option<PlacementSpec>) {
        SESSION_MUTATIONS.incr();
        self.mutations += 1;
        for sc in self.scenarios.iter_mut() {
            sc.set_placement(spec);
        }
    }

    /// The per-burst source table: population-weighted covered cities for
    /// starlink sessions, a fixed synthetic grid for the test shell.
    fn sources_for(&self, start: SimTime, epochs: usize, step: SimDuration) -> Vec<TrafficSource> {
        if let Some(net) = &self.source_net {
            let covered = self.covered.get_or_init(|| CoveredCities::new(net));
            covered.sources(net, self.scenarios[0].schedule(), start, epochs, step)
        } else {
            // A deterministic city grid spanning latitudes the test shell
            // covers; fallback RTT fixed so reports are easy to reason
            // about in tests.
            const GRID: [(f64, f64, u32); 6] = [
                (-25.97, 32.58, 2),  // Maputo
                (50.11, 8.68, 8),    // Frankfurt
                (40.71, -74.01, 9),  // New York
                (1.29, 103.85, 6),   // Singapore
                (-33.87, 151.21, 5), // Sydney
                (19.08, 72.88, 12),  // Mumbai
            ];
            GRID.iter()
                .map(|&(lat, lon, weight)| TrafficSource {
                    position: Geodetic::ground(lat, lon),
                    weight,
                    fallback_rtt: vec![Latency::from_ms(200.0); epochs],
                })
                .collect()
        }
    }

    /// One-line summary for `list` responses.
    pub fn summary_json(&self) -> String {
        format!(
            r#"{{"session":{},"clock_ns":{},"bursts":{},"requests":{}}}"#,
            json_str(self.name()),
            self.clock.0,
            self.bursts,
            self.requests()
        )
    }

    /// The canonical final report: one compact JSON object capturing
    /// everything the session accumulated. Replaying the session's
    /// journal must reproduce these bytes exactly at any worker thread
    /// count — the daemon's determinism contract.
    pub fn report_json(&mut self) -> String {
        let [p50, p90, p99] = self
            .traffic
            .latencies
            .quantiles([0.50, 0.90, 0.99])
            .unwrap_or([0.0; 3]);
        let t = &self.traffic;
        format!(
            concat!(
                r#"{{"session":{},"seed":{},"clock_ns":{},"bursts":{},"mutations":{},"#,
                r#""fetches":{{"count":{},"space_hits":{},"degraded":{},"rtt_ms_sum":{}}},"#,
                r#""traffic":{{"requests":{},"overhead_hits":{},"isl_hits":{},"#,
                r#""origin_fetches":{},"dead_zones":{},"inserts":{},"evictions":{},"#,
                r#""ttl_expiries":{},"invalidations":{},"served_bytes":{},"origin_bytes":{},"#,
                r#""pinned_hits":{},"neighbor_hits":{},"decision_digest":{},"#,
                r#""p50_ms":{},"p90_ms":{},"p99_ms":{}}}}}"#
            ),
            json_str(self.name()),
            self.args.seed,
            self.clock.0,
            self.bursts,
            self.mutations,
            self.fetches,
            self.fetch_space_hits,
            self.fetch_degraded,
            json_f64(self.fetch_rtt_ms_sum),
            t.requests,
            t.overhead_hits,
            t.isl_hits,
            t.origin_fetches,
            t.dead_zones,
            t.inserts,
            t.evictions,
            t.ttl_expiries,
            t.invalidations,
            t.served_bytes,
            t.origin_bytes,
            t.pinned_hits,
            t.neighbor_hits,
            t.decision_digest,
            json_f64(p50),
            json_f64(p90),
            json_f64(p99),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_args(name: &str) -> CreateArgs {
        CreateArgs {
            session: name.to_string(),
            seed: 7,
            catalog: 200,
            streams: 2,
            ..CreateArgs::default()
        }
    }

    #[test]
    fn create_rejects_unknown_constellations() {
        let err = Session::create(CreateArgs {
            constellation: "kuiper".into(),
            ..quick_args("x")
        })
        .err()
        .expect("unknown constellation must be rejected");
        assert!(err.contains("kuiper"));
        let err = Session::create(CreateArgs {
            constellation: "starlink".into(),
            shells: vec![9],
            ..quick_args("x")
        })
        .err()
        .expect("out-of-range shell must be rejected");
        assert!(err.contains("shells"));
    }

    #[test]
    fn traffic_burst_moves_the_clock_to_the_horizon() {
        let mut s = Session::create(quick_args("clock")).unwrap();
        assert_eq!(s.clock(), SimTime::EPOCH);
        let report = s.traffic(500, 2, 60);
        assert_eq!(report.requests, 500);
        assert_eq!(s.clock(), SimTime::from_secs(120));
        assert_eq!(s.bursts(), 1);
        // A second burst continues from the new clock, not from zero.
        s.traffic(300, 1, 60);
        assert_eq!(s.clock(), SimTime::from_secs(180));
        assert_eq!(s.requests(), 800);
    }

    #[test]
    fn sessions_are_replay_deterministic() {
        // Same creation args + same command sequence → byte-identical
        // report, regardless of interleaved read-only queries.
        let run = || {
            let mut s = Session::create(quick_args("det")).unwrap();
            s.traffic(400, 2, 60);
            s.fault(&[3, 4, 5], 150, Some(400), false);
            s.advance(30);
            s.fetch(-25.97, 32.58);
            s.traffic(200, 1, 60);
            s.report_json()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
    }

    #[test]
    fn fault_injection_changes_subsequent_results() {
        let baseline = {
            let mut s = Session::create(quick_args("base")).unwrap();
            s.traffic(400, 1, 60);
            s.report_json()
        };
        let faulted = {
            let mut s = Session::create(quick_args("base")).unwrap();
            // Kill the whole test fleet before the burst window.
            let all: Vec<u32> = (0..64).collect();
            s.fault(&all, 0, None, false);
            s.traffic(400, 1, 60);
            s.report_json()
        };
        assert_ne!(baseline, faulted, "a fleet-wide outage must show up");
    }

    #[test]
    fn placement_mutation_changes_subsequent_bursts() {
        let baseline = {
            let mut s = Session::create(quick_args("pl")).unwrap();
            s.traffic(400, 1, 60);
            s.report_json()
        };
        let placed = {
            let mut s = Session::create(quick_args("pl")).unwrap();
            s.set_placement(PlacementSpec::parse("perplane-2:budget-400:cap-8:coop"));
            s.traffic(400, 1, 60);
            s.report_json()
        };
        assert_ne!(baseline, placed, "pinned placement must show up");
    }

    #[test]
    fn advance_fires_spliced_refresh_instants_in_order() {
        let mut s = Session::create(quick_args("adv")).unwrap();
        s.fault(&[1], 100, Some(200), false);
        s.fault(&[2], 50, None, false);
        s.advance(300);
        assert_eq!(s.clock(), SimTime::from_secs(300));
        assert_eq!(s.scenarios[0].epoch(), SimTime::from_secs(300));
    }
}
