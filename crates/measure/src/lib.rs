//! Measurement harnesses: synthetic substitutes for the paper's two data
//! sources, plus the §4/§5 simulation drivers.
//!
//! The paper's analysis pipeline consumes (a) Cloudflare AIM speed tests and
//! (b) NetMet browser telemetry. Neither dataset is reproducible from
//! scratch (crowdsourced clients, volunteer dishes, LEOScope probes), so
//! this crate *generates* statistically equivalent records from the
//! workspace's network models and then runs the same aggregations the paper
//! runs:
//!
//! - [`aim`] — speed-test campaigns over Starlink and terrestrial access,
//!   per-city min/median RTTs to the anycast-optimal CDN (Table 1, Fig 2,
//!   Fig 3);
//! - [`web`] — page-fetch timing (DNS/TCP/TLS/HTTP), HTTP response time
//!   and first-contentful-paint (Fig 4, Fig 5);
//! - [`spacecdn`] — the §4 simulation drivers: hop-bounded retrieval CDFs
//!   (Fig 7) and duty-cycled cache latencies (Fig 8);
//! - [`traffic`] — the steady-state traffic campaign: request-driven cache
//!   warm-up, hit ratio, origin offload and latency CDFs per duty fraction;
//! - [`faults`] — the fault sweep's fetch loop, one record per fetch, and
//!   its per-request escalation check;
//! - [`report`] — plain-text/JSON emitters shared by the experiment
//!   binaries.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aim;
pub mod faults;
pub mod geoblock;
pub mod report;
pub mod spacecdn;
pub mod streaming;
pub mod trace;
pub mod traffic;
pub mod web;

pub use aim::{AimCampaign, AimConfig, CountryStats, IspKind};
pub use report::{format_table, write_json};
pub use spacecdn::{duty_cycle_experiment, hop_bound_experiment};
pub use traffic::{
    starlink_shell_scenarios, traffic_campaign, traffic_campaign_each, TrafficCampaignConfig,
    TrafficPoint,
};
pub use web::{PageModel, WebConfig, WebMeasurement};
