//! Zero-dependency observability for the SpaceCDN workspace.
//!
//! Without it the hot paths are only visible through a scatter of ad-hoc
//! counters (`SnapshotPool::hits`) and one-off bench prints. This crate
//! is the uniform answer to "what did this campaign actually do?": a
//! process-wide [`registry`] of named metrics every layer reports into, and
//! a deterministic JSON snapshot every experiment binary drops next to its
//! results (`results/METRICS_*.json`).
//!
//! # Metric types
//!
//! - [`Counter`] — a monotonically increasing `u64`, sharded across
//!   cache-line-padded relaxed atomics so concurrent experiment tasks never
//!   contend on one line;
//! - [`Histogram`] — fixed log2 buckets over `u64` samples (nanosecond
//!   timings, hop counts, byte sizes), again plain relaxed atomics;
//! - [`SpanTimer`] — an RAII guard recording its lifetime into a nanosecond
//!   histogram.
//!
//! Call sites hold [`LazyCounter`] / [`LazyHistogram`] statics: a `const`
//! name plus a `OnceLock`, so the registry map is consulted once per call
//! site per process and the steady-state cost of an increment is one
//! relaxed `fetch_add`.
//!
//! # Determinism contract
//!
//! Instrumentation never feeds back into campaign logic — campaign outputs
//! are byte-identical with telemetry enabled or disabled, at any thread
//! count (`tests/determinism.rs` enforces this). Metrics themselves split
//! into two classes, recorded at registration:
//!
//! - [`Determinism::Stable`] — counts that are a pure function of the
//!   campaign's (deterministic) work: retrieval outcomes, probe counts,
//!   spatial-index cell scans. Identical at 1 or N threads; the
//!   determinism suite diffs them across thread counts.
//! - [`Determinism::Racy`] — counts that depend on scheduling: cache
//!   hit/miss splits (two tasks racing on an uncached key may both miss),
//!   memoized-table computations, and every wall-clock histogram.
//!
//! # Disabled mode
//!
//! `SPACECDN_METRICS=0` (or [`set_metrics_override`]`(Some(false))`)
//! disables telemetry: span timers stop reading the clock, and snapshot
//! emission is skipped, so nothing is ever read back. Counters degrade to
//! bare relaxed `fetch_add`s on uncontended shards — there is no branch in
//! the increment path, and no synchronisation stronger than `Relaxed`
//! anywhere, so enabled-vs-disabled cannot perturb an experiment.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod metrics;
pub mod registry;

pub use metrics::{
    Counter, Determinism, Histogram, LazyCounter, LazyHistogram, LocalHistogram, SpanTimer, Unit,
};
pub use registry::{
    snapshot, snapshot_json, BucketSnapshot, CounterSnapshot, HistogramSnapshot, MetricsReport,
};

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// In-process telemetry kill switch: 0 = follow the environment, 1 =
/// forced off, 2 = forced on.
static METRICS_OVERRIDE: AtomicU8 = AtomicU8::new(0);

/// Environment default, read once: `SPACECDN_METRICS=0` (or `false`/`off`)
/// disables telemetry. Unset or any other value leaves it on.
fn env_metrics_disabled() -> bool {
    static DISABLED: OnceLock<bool> = OnceLock::new();
    *DISABLED.get_or_init(|| {
        std::env::var("SPACECDN_METRICS").is_ok_and(|v| matches!(v.as_str(), "0" | "false" | "off"))
    })
}

/// Force telemetry on or off for this process, overriding
/// `SPACECDN_METRICS`. `None` restores environment behaviour. Tests use
/// this to prove campaign outputs are byte-identical either way.
pub fn set_metrics_override(enabled: Option<bool>) {
    let code = match enabled {
        None => 0,
        Some(false) => 1,
        Some(true) => 2,
    };
    METRICS_OVERRIDE.store(code, Ordering::SeqCst);
}

/// Is telemetry active? Campaign *results* are identical either way; only
/// whether timers run and snapshots are emitted differs.
pub fn metrics_enabled() -> bool {
    match METRICS_OVERRIDE.load(Ordering::SeqCst) {
        1 => false,
        2 => true,
        _ => !env_metrics_disabled(),
    }
}

/// Zero every registered metric (names and kinds stay registered).
///
/// For tests and benchmarks that compare the metric deltas of two runs in
/// one process; production code never resets.
pub fn reset() {
    registry::reset();
}
