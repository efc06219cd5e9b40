//! Generators shared by the differential oracles: randomized small shells
//! and mixed fault timelines.

#![allow(dead_code)] // each test binary uses its own subset

use spacecdn_geo::{DetRng, SimDuration, SimTime};
use spacecdn_lsn::{FaultSchedule, IslGraph};
use spacecdn_orbit::shell::ShellConfig;
use spacecdn_orbit::Constellation;

/// A random small Walker shell: 3–8 planes × 3–8 satellites.
pub fn small_shell(rng: &mut DetRng) -> ShellConfig {
    let planes = 3 + rng.index(6) as u32; // 3..=8
    let sats = 3 + rng.index(6) as u32; // 3..=8
    ShellConfig {
        altitude_km: 550.0,
        inclination_deg: 53.0,
        plane_count: planes,
        sats_per_plane: sats,
        phase_factor: (rng.index(3) as u32).min(planes - 1),
    }
}

/// A random fault timeline mixing every event family, built over the
/// pristine topology so flap selection can enumerate real links.
pub fn random_schedule(c: &Constellation, pristine: &IslGraph, rng: &mut DetRng) -> FaultSchedule {
    let horizon = SimDuration::from_secs(7200);
    let mut s = FaultSchedule::none();
    if rng.chance(0.45) {
        let at = SimTime(rng.uniform(0.0, horizon.0 as f64) as u64);
        s.random_sat_failures(c.len(), rng.uniform(0.0, 0.3), at, rng);
    }
    if rng.chance(0.55) {
        s.random_sat_outages(
            c.len(),
            rng.uniform(0.0, 0.4),
            horizon,
            SimDuration::from_secs(600),
            rng,
        );
    }
    if rng.chance(0.5) {
        s.random_gsl_outages(
            c.len(),
            rng.uniform(0.0, 0.4),
            horizon,
            SimDuration::from_secs(300),
            rng,
        );
    }
    if rng.chance(0.55) {
        s.random_isl_flaps(
            pristine,
            rng.uniform(0.0, 0.5),
            SimDuration::from_secs(rng.uniform(30.0, 300.0) as u64),
            SimDuration::from_secs(rng.uniform(10.0, 120.0) as u64),
            rng,
        );
    }
    if rng.chance(0.4) {
        s.seam_churn(
            pristine,
            c,
            rng.uniform(0.0, 0.8),
            SimDuration::from_secs(120),
            SimDuration::from_secs(30),
            rng,
        );
    }
    s
}
