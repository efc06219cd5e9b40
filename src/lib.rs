//! # spacecdn-suite
//!
//! Umbrella crate for the SpaceCDN reproduction — *"It's a bird? It's a
//! plane? It's CDN! Investigating Content Delivery Networks in the LEO
//! Satellite Networks Era"* (HotNets '24). Re-exports every workspace
//! crate under one namespace so examples, tests and downstream users
//! depend on a single crate.
//!
//! ```
//! use spacecdn_suite::core::network::LsnNetwork;
//! use spacecdn_suite::geo::SimTime;
//! use spacecdn_suite::lsn::FaultPlan;
//! use spacecdn_suite::terra::city::city_by_name;
//!
//! // The paper's headline path: a Maputo subscriber egresses in Frankfurt.
//! let net = LsnNetwork::starlink();
//! let snap = net.snapshot(SimTime::EPOCH, &FaultPlan::none());
//! let maputo = city_by_name("Maputo").unwrap();
//! let pop = snap.home_pop(maputo.cc, maputo.position());
//! assert_eq!(pop.city.name, "Frankfurt");
//!
//! let path = snap
//!     .starlink_rtt_to_pop(maputo.position(), &pop, None)
//!     .unwrap();
//! assert!(path.rtt.ms() > 100.0); // vs ~15 ms to the Maputo CDN terrestrially
//! ```
//!
//! The crates, bottom-up: [`geo`] (units/geodesy/RNG), [`orbit`]
//! (constellations), [`des`] (event scheduler + statistics), [`telemetry`]
//! (zero-dependency metrics registry), [`engine`] (deterministic parallel
//! experiment engine), [`lsn`] (ISL topology/routing/access + epoch-scoped
//! routing caches), [`terra`] (cities/fibre/CDN/PoPs), [`content`]
//! (catalogs/caches), [`core`] (SpaceCDN itself), [`measure`] (the
//! synthetic measurement campaigns), and [`serve`] (the long-lived
//! scenario daemon with record/replay). See `DESIGN.md` for the full
//! inventory and `EXPERIMENTS.md` for paper-vs-measured results.

#![forbid(unsafe_code)]

pub use spacecdn_content as content;
pub use spacecdn_core as core;
pub use spacecdn_des as des;
pub use spacecdn_engine as engine;
pub use spacecdn_geo as geo;
pub use spacecdn_lsn as lsn;
pub use spacecdn_measure as measure;
pub use spacecdn_orbit as orbit;
pub use spacecdn_serve as serve;
pub use spacecdn_telemetry as telemetry;
pub use spacecdn_terra as terra;

/// The post-redesign surface in one import: `use spacecdn_suite::prelude::*;`.
///
/// Everything here is the *current* API — the unified
/// [`RetrievalRequest`](crate::core::retrieval::RetrievalRequest) /
/// [`Scenario`](crate::core::scenario::Scenario) retrieval path, the
/// steady-state traffic engine and its campaign, and the units, RNG and
/// network types they take.
pub mod prelude {
    pub use spacecdn_content::catalog::{Catalog, ContentId};
    pub use spacecdn_content::fleet::FleetCache;
    pub use spacecdn_content::policy::{CachePolicy, CacheStats, PolicyFleet, PolicyKind};
    pub use spacecdn_content::popularity::ZipfSampler;
    pub use spacecdn_core::duty_cycle::DutyCycler;
    pub use spacecdn_core::network::{LsnNetwork, LsnSnapshot, PathBreakdown};
    pub use spacecdn_core::placement::{PlacementPlan, PlacementSpec, PlacementStrategy};
    pub use spacecdn_core::retrieval::{
        DegradeReason, FetchResult, RetrievalOutcome, RetrievalRequest, RetrievalSource,
    };
    pub use spacecdn_core::scenario::{Scenario, ScenarioBuilder};
    pub use spacecdn_core::traffic::{
        run_traffic, run_traffic_multishell, ShellTraffic, TrafficConfig, TrafficReport,
        TrafficSource,
    };
    pub use spacecdn_des::Percentiles;
    pub use spacecdn_geo::{DetRng, Geodetic, Km, Latency, SimDuration, SimTime};
    pub use spacecdn_lsn::{AccessModel, FaultPlan, FaultSchedule, IslGraph};
    pub use spacecdn_measure::spacecdn::{duty_cycle_experiment, hop_bound_experiment};
    pub use spacecdn_measure::traffic::{
        covered_traffic_sources, starlink_shell_scenarios, traffic_campaign, TrafficCampaignConfig,
        TrafficPoint,
    };
    pub use spacecdn_orbit::{Constellation, SatIndex};
    pub use spacecdn_serve::{Daemon, ServeConfig, Session};
    pub use spacecdn_terra::fiber::FiberModel;
}
