//! Content substrate: catalogs, popularity models and caches.
//!
//! A CDN is, mechanically, a set of caches fed by skewed demand. This crate
//! provides the demand side of the reproduction:
//!
//! - a synthetic **catalog** of web objects and video segments
//!   ([`catalog`]),
//! - **Zipf** and **region-weighted** popularity ([`popularity`]) — the
//!   paper's "content bubbles" observation (§5) is that demand skew is
//!   *geographic*: a Boca Juniors match is hot in Argentina and cold in
//!   Finland;
//! - the **cache policy zoo** ([`policy`]): constellation-scale flat-SoA
//!   cache fleets — LRU+TTL ([`fleet`]), SIEVE ([`sieve`]), S3-FIFO
//!   ([`s3fifo`]) and W-TinyLFU with count-min admission ([`tinylfu`],
//!   [`sketch`]) — behind the [`policy::CachePolicy`] trait, sharing one
//!   entry arena and a unified evicted/expired/invalidated taxonomy
//!   ([`CacheStats`]), byte-capacity-accurate;
//! - the terrestrial edge → regional → origin **cache hierarchy**
//!   ([`hierarchy`]) of §2, built on the same LRU fleet;
//! - **video objects** ([`video`]): DASH-style segment groups ("stripes")
//!   that §4's striping design schedules across successive satellites.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arena;
pub mod catalog;
pub mod fleet;
pub mod hierarchy;
pub mod policy;
pub mod popularity;
pub mod s3fifo;
pub mod sieve;
pub mod sketch;
pub mod tinylfu;
pub mod video;

pub use catalog::{Catalog, ContentId, ContentKind, ContentObject, RegionTag};
pub use fleet::FleetCache;
pub use hierarchy::{
    CacheHierarchy, HierarchyOutcome, ServedBy, TierLatencies, TierLatenciesBuilder,
};
pub use policy::{CachePolicy, CacheStats, PolicyFleet, PolicyKind};
pub use popularity::{RegionalPopularity, ZipfSampler};
pub use s3fifo::S3FifoFleet;
pub use sieve::SieveFleet;
pub use sketch::FrequencySketch;
pub use tinylfu::TinyLfuFleet;
pub use video::{StripePlanInput, VideoObject};
