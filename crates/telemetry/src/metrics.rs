//! Metric primitives: sharded counters, log2 histograms, span timers, and
//! the lazy per-call-site handles that bind them to registry names.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Shards per [`Counter`]. Enough that the engine's worker pool (bounded
/// by core count) rarely doubles up on a shard; small enough that a
/// snapshot sum is trivial.
pub(crate) const COUNTER_SHARDS: usize = 16;

/// Histogram bucket count: bucket 0 holds exact zeros, bucket `i ≥ 1`
/// holds values in `[2^(i-1), 2^i)`, covering the full `u64` range.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// One cache line of counter state, padded so two shards never share a
/// line (the whole point of sharding).
#[repr(align(64))]
#[derive(Default)]
struct Shard(AtomicU64);

/// This thread's shard slot, assigned round-robin on first use so the
/// engine's worker threads spread across shards.
fn shard_of() -> usize {
    static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static SHARD: usize = NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % COUNTER_SHARDS;
    }
    SHARD.with(|s| *s)
}

/// Which determinism class a metric's *values* belong to (see the crate
/// docs). Recorded at registration and carried into every snapshot so the
/// determinism suite can diff exactly the stable subset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Determinism {
    /// A pure function of the campaign's deterministic work — identical at
    /// any thread count.
    Stable,
    /// Depends on scheduling (cache races, duplicated builds, wall-clock).
    Racy,
}

impl Determinism {
    /// Snapshot/JSON spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Determinism::Stable => "stable",
            Determinism::Racy => "racy",
        }
    }
}

/// What a histogram's samples measure (counters are always plain counts).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unit {
    /// Dimensionless counts.
    Count,
    /// Wall-clock nanoseconds (always [`Determinism::Racy`]).
    Nanos,
    /// ISL hop counts.
    Hops,
    /// Byte sizes.
    Bytes,
}

impl Unit {
    /// Snapshot/JSON spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Unit::Count => "count",
            Unit::Nanos => "ns",
            Unit::Hops => "hops",
            Unit::Bytes => "bytes",
        }
    }
}

/// A monotonically increasing counter, sharded across cache-line-padded
/// relaxed atomics. Increments are wait-free and never contend across the
/// engine's worker threads; reads sum the shards (snapshot-time only).
pub struct Counter {
    shards: [Shard; COUNTER_SHARDS],
}

impl Counter {
    /// A zeroed counter.
    pub fn new() -> Self {
        Counter {
            shards: std::array::from_fn(|_| Shard::default()),
        }
    }

    /// Add `n`. One relaxed `fetch_add` on this thread's shard.
    #[inline]
    pub fn add(&self, n: u64) {
        self.shards[shard_of()].0.fetch_add(n, Ordering::Relaxed);
    }

    /// Add one.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current total (sum over shards). Snapshot-time only — concurrent
    /// increments may or may not be included, exactly like any relaxed
    /// counter read.
    pub fn value(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }

    /// Zero every shard (test/bench support).
    pub(crate) fn reset(&self) {
        for s in &self.shards {
            s.0.store(0, Ordering::Relaxed);
        }
    }
}

impl Default for Counter {
    fn default() -> Self {
        Self::new()
    }
}

/// Bucket index of a sample: 0 for 0, else `64 - leading_zeros` (so bucket
/// `i` spans `[2^(i-1), 2^i)`).
#[inline]
fn bucket_of(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        64 - value.leading_zeros() as usize
    }
}

/// Inclusive `(lo, hi)` value range of bucket `i`.
pub(crate) fn bucket_bounds(i: usize) -> (u64, u64) {
    if i == 0 {
        (0, 0)
    } else if i >= 64 {
        (1u64 << 63, u64::MAX)
    } else {
        (1u64 << (i - 1), (1u64 << i) - 1)
    }
}

/// A fixed-bucket log2 histogram over `u64` samples. Each `record` is two
/// relaxed `fetch_add`s (bucket and sum); bucket boundaries are powers of
/// two, which is plenty of resolution for timings, hop counts and byte
/// sizes while keeping the snapshot deterministic and tiny.
pub struct Histogram {
    unit: Unit,
    sum: Counter,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl Histogram {
    /// An empty histogram measuring `unit`.
    pub fn new(unit: Unit) -> Self {
        Histogram {
            unit,
            sum: Counter::new(),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// What the samples measure.
    pub fn unit(&self) -> Unit {
        self.unit
    }

    /// Record one sample.
    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[bucket_of(value)].fetch_add(1, Ordering::Relaxed);
        self.sum.add(value);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Sum of all recorded samples.
    pub fn sum(&self) -> u64 {
        self.sum.value()
    }

    /// Per-bucket counts (snapshot support).
    pub(crate) fn bucket_counts(&self) -> [u64; HISTOGRAM_BUCKETS] {
        std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }

    /// Zero all buckets and the sum (test/bench support).
    pub(crate) fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.sum.reset();
    }

    /// Fold a locally accumulated histogram in: one `fetch_add` per
    /// non-empty bucket plus one for the sum, instead of two per sample.
    pub fn merge_local(&self, local: &LocalHistogram) {
        for (b, &n) in self.buckets.iter().zip(&local.buckets) {
            if n > 0 {
                b.fetch_add(n, Ordering::Relaxed);
            }
        }
        self.sum.add(local.sum);
    }
}

/// A plain, non-atomic accumulator with [`Histogram`]'s exact bucket
/// layout, for hot loops that record millions of samples: accumulate
/// locally (two plain adds per sample), then fold into the shared
/// registry histogram once via [`Histogram::merge_local`] /
/// [`LazyHistogram::merge_local`]. The merged totals are identical to
/// per-sample [`Histogram::record`] calls.
#[derive(Clone)]
pub struct LocalHistogram {
    buckets: [u64; HISTOGRAM_BUCKETS],
    sum: u64,
}

impl Default for LocalHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LocalHistogram {
    /// An empty accumulator.
    pub fn new() -> Self {
        LocalHistogram {
            buckets: [0; HISTOGRAM_BUCKETS],
            sum: 0,
        }
    }

    /// Record one sample (no atomics). The sum wraps on overflow,
    /// matching the shared histogram's relaxed `fetch_add` semantics.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.buckets[bucket_of(value)] += 1;
        self.sum = self.sum.wrapping_add(value);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Sum of all recorded samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }
}

/// A per-call-site counter handle: a `const` registry name resolved to its
/// [`Counter`] once, then cached. Declare as a `static`:
///
/// ```
/// use spacecdn_telemetry::LazyCounter;
/// static CACHE_HIT: LazyCounter = LazyCounter::racy("example.cache.hit");
/// CACHE_HIT.incr();
/// assert!(CACHE_HIT.value() >= 1);
/// ```
pub struct LazyCounter {
    name: &'static str,
    determinism: Determinism,
    cell: OnceLock<&'static Counter>,
}

impl LazyCounter {
    /// A handle for a [`Determinism::Stable`] counter named `name`.
    pub const fn stable(name: &'static str) -> Self {
        LazyCounter {
            name,
            determinism: Determinism::Stable,
            cell: OnceLock::new(),
        }
    }

    /// A handle for a [`Determinism::Racy`] counter named `name`.
    pub const fn racy(name: &'static str) -> Self {
        LazyCounter {
            name,
            determinism: Determinism::Racy,
            cell: OnceLock::new(),
        }
    }

    fn get(&self) -> &'static Counter {
        self.cell
            .get_or_init(|| crate::registry::counter(self.name, self.determinism))
    }

    /// The registry name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Add `n` to the underlying counter.
    #[inline]
    pub fn add(&self, n: u64) {
        self.get().add(n);
    }

    /// Add one.
    #[inline]
    pub fn incr(&self) {
        self.get().incr();
    }

    /// Current total.
    pub fn value(&self) -> u64 {
        self.get().value()
    }
}

/// A per-call-site histogram handle, mirroring [`LazyCounter`].
///
/// ```
/// use spacecdn_telemetry::{LazyHistogram, Unit};
/// static FETCH_HOPS: LazyHistogram = LazyHistogram::stable("example.fetch.hops", Unit::Hops);
/// FETCH_HOPS.record(3);
/// ```
pub struct LazyHistogram {
    name: &'static str,
    unit: Unit,
    determinism: Determinism,
    cell: OnceLock<&'static Histogram>,
}

impl LazyHistogram {
    /// A handle for a [`Determinism::Stable`] histogram (hop counts, byte
    /// sizes — never wall-clock).
    pub const fn stable(name: &'static str, unit: Unit) -> Self {
        LazyHistogram {
            name,
            unit,
            determinism: Determinism::Stable,
            cell: OnceLock::new(),
        }
    }

    /// A handle for a [`Determinism::Racy`] histogram. All [`Unit::Nanos`]
    /// histograms are racy by nature.
    pub const fn racy(name: &'static str, unit: Unit) -> Self {
        LazyHistogram {
            name,
            unit,
            determinism: Determinism::Racy,
            cell: OnceLock::new(),
        }
    }

    fn get(&self) -> &'static Histogram {
        self.cell
            .get_or_init(|| crate::registry::histogram(self.name, self.unit, self.determinism))
    }

    /// The registry name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Record one sample.
    #[inline]
    pub fn record(&self, value: u64) {
        self.get().record(value);
    }

    /// Fold a locally accumulated histogram in (see [`LocalHistogram`]).
    pub fn merge_local(&self, local: &LocalHistogram) {
        self.get().merge_local(local);
    }

    /// Start an RAII timer that records its lifetime (ns) into this
    /// histogram on drop. A no-op (no clock read at all) when telemetry is
    /// disabled.
    pub fn timer(&self) -> SpanTimer {
        SpanTimer::start(self)
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.get().count()
    }
}

/// RAII span timer: measures from [`LazyHistogram::timer`] to drop and
/// records the elapsed nanoseconds. When telemetry is disabled the clock
/// is never read and nothing is recorded — the guard is inert.
pub struct SpanTimer {
    hist: &'static Histogram,
    start: Option<Instant>,
}

impl SpanTimer {
    fn start(handle: &LazyHistogram) -> SpanTimer {
        let hist = handle.get();
        let start = crate::metrics_enabled().then(Instant::now);
        SpanTimer { hist, start }
    }
}

impl Drop for SpanTimer {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            self.hist.record(ns);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_histogram_merge_matches_per_sample_record() {
        let direct = Histogram::new(Unit::Count);
        let merged = Histogram::new(Unit::Count);
        let mut local = LocalHistogram::new();
        for v in [0u64, 1, 2, 3, 7, 8, 1 << 20, u64::MAX] {
            direct.record(v);
            local.record(v);
        }
        assert_eq!(local.count(), 8);
        merged.merge_local(&local);
        assert_eq!(merged.count(), direct.count());
        assert_eq!(merged.sum(), direct.sum());
        assert_eq!(merged.bucket_counts(), direct.bucket_counts());
    }

    #[test]
    fn counter_sums_across_threads() {
        let c = Counter::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        c.incr();
                    }
                });
            }
        });
        assert_eq!(c.value(), 8000);
        c.reset();
        assert_eq!(c.value(), 0);
    }

    #[test]
    fn bucket_indexing_is_log2() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), 64);
        // Bounds round-trip: every bucket's lo/hi map back to itself.
        for i in 0..HISTOGRAM_BUCKETS {
            let (lo, hi) = bucket_bounds(i);
            assert_eq!(bucket_of(lo), i, "lo of bucket {i}");
            assert_eq!(bucket_of(hi), i, "hi of bucket {i}");
        }
    }

    #[test]
    fn histogram_counts_and_sums() {
        let h = Histogram::new(Unit::Hops);
        for v in [0, 1, 1, 5, 9] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 16);
        let buckets = h.bucket_counts();
        assert_eq!(buckets[0], 1, "one zero");
        assert_eq!(buckets[1], 2, "two ones");
        assert_eq!(buckets[3], 1, "5 in [4,8)");
        assert_eq!(buckets[4], 1, "9 in [8,16)");
        h.reset();
        assert_eq!(h.count(), 0);
        assert_eq!(h.sum(), 0);
    }

    #[test]
    fn span_timer_records_only_when_enabled() {
        let _guard = crate::registry::test_guard();
        static TIMED: LazyHistogram = LazyHistogram::racy("telemetry.test.timer_ns", Unit::Nanos);
        crate::set_metrics_override(Some(false));
        drop(TIMED.timer());
        let disabled = TIMED.count();
        crate::set_metrics_override(Some(true));
        drop(TIMED.timer());
        let enabled = TIMED.count();
        crate::set_metrics_override(None);
        assert_eq!(disabled, 0, "disabled timer must not record");
        assert_eq!(enabled, 1, "enabled timer must record once");
    }
}
