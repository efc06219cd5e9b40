//! The LEO satellite network substrate: ISL topology, routing, the Starlink
//! access model, and end-to-end path construction.
//!
//! This crate is the reproduction's stand-in for the parts of xeoverse the
//! paper relies on. It models:
//!
//! - the **+Grid ISL topology** ([`topology`]): every satellite keeps four
//!   laser links — fore/aft within its plane, left/right to the adjacent
//!   planes — the arrangement deployed on Starlink v1.5+ and assumed by the
//!   paper's "n ISL hops" experiments;
//! - **routing** over that graph ([`routing`]): latency-weighted Dijkstra
//!   and hop-bounded BFS (the "is a copy within n hops?" primitive of §4);
//! - the **bent-pipe access model** ([`access`]): user link scheduling,
//!   gateway and PoP processing, calibrated against the PoP-local latencies
//!   in the paper's Table 1 (Spain 33 ms, Japan 34 ms);
//! - **end-to-end paths** ([`path`]): user terminal → overhead satellite →
//!   ISL chain → gateway near the home PoP → PoP, the route every Starlink
//!   packet takes before it ever meets a CDN;
//! - **fault injection** ([`fault`]) and a **bufferbloat model**
//!   ([`bufferbloat`]) for loaded-latency experiments (§3.2 observes
//!   > 200 ms under active downloads).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod access;
pub mod bufferbloat;
pub mod cache;
pub mod dynamics;
pub mod fault;
pub mod load;
pub mod path;
pub mod routing;
pub mod spatial;
pub mod topology;

pub use access::AccessModel;
pub use bufferbloat::BufferbloatModel;
pub use cache::{set_routing_cache_override, RoutingBall, RoutingCache, SourceTables};
pub use dynamics::{churn_report, route_samples, ChurnReport};
pub use fault::{FaultEvent, FaultPlan, FaultPlanDelta, FaultSchedule};
pub use load::LinkLoad;
pub use path::{spacecdn_fetch_rtt, starlink_rtt_to_pop, StarlinkPath};
pub use routing::{
    ball_tables, bfs_nearest, dijkstra, dijkstra_distances, dijkstra_distances_into,
    dijkstra_distances_until, hop_distances, hop_distances_into, hop_distances_many,
    repair_dijkstra_table, FallbackCut, IslPath, RepairOutcome,
};
pub use spatial::SpatialIndex;
pub use topology::{IslEdge, IslGraph, Neighbors, PatchStats};
