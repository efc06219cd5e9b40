//! The process-wide metric registry and its deterministic snapshot.
//!
//! Metrics are registered on first use (via [`crate::LazyCounter`] /
//! [`crate::LazyHistogram`]) and live for the rest of the process — they
//! are leaked into `&'static` so call sites pay one map lookup ever.
//! [`snapshot`] renders everything registered so far into a sorted
//! [`MetricsReport`] that serialises to stable JSON.

use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use std::sync::{Mutex, OnceLock};

use crate::metrics::{bucket_bounds, Counter, Determinism, Histogram, Unit};

/// A registered metric: either kind, plus its determinism class.
enum Metric {
    Counter(&'static Counter, Determinism),
    Histogram(&'static Histogram, Determinism),
}

fn registry() -> &'static Mutex<BTreeMap<&'static str, Metric>> {
    static REGISTRY: OnceLock<Mutex<BTreeMap<&'static str, Metric>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(BTreeMap::new()))
}

/// Lock the registry, recovering from poisoning: registration panics (name
/// conflicts) fire while the guard is held, but never leave the map in an
/// inconsistent state, so the lock stays usable.
fn lock_registry() -> std::sync::MutexGuard<'static, BTreeMap<&'static str, Metric>> {
    registry().lock().unwrap_or_else(|e| e.into_inner())
}

/// The counter named `name`, registering it (with class `determinism`) on
/// first use.
///
/// # Panics
/// If `name` is already registered as a histogram, or with a different
/// determinism class — metric names are a process-wide contract and a
/// mismatch is a bug at the call site.
pub fn counter(name: &'static str, determinism: Determinism) -> &'static Counter {
    let mut map = lock_registry();
    match map
        .entry(name)
        .or_insert_with(|| Metric::Counter(Box::leak(Box::new(Counter::new())), determinism))
    {
        Metric::Counter(c, d) => {
            assert!(
                *d == determinism,
                "metric {name:?} registered as {} but requested as {}",
                d.as_str(),
                determinism.as_str()
            );
            c
        }
        Metric::Histogram(..) => panic!("metric {name:?} is a histogram, not a counter"),
    }
}

/// The histogram named `name`, registering it (with `unit` and class
/// `determinism`) on first use.
///
/// # Panics
/// If `name` is already registered as a counter, or with a different unit
/// or determinism class.
pub fn histogram(name: &'static str, unit: Unit, determinism: Determinism) -> &'static Histogram {
    let mut map = lock_registry();
    match map.entry(name).or_insert_with(|| {
        Metric::Histogram(Box::leak(Box::new(Histogram::new(unit))), determinism)
    }) {
        Metric::Histogram(h, d) => {
            assert!(
                h.unit() == unit,
                "metric {name:?} registered with unit {} but requested with {}",
                h.unit().as_str(),
                unit.as_str()
            );
            assert!(
                *d == determinism,
                "metric {name:?} registered as {} but requested as {}",
                d.as_str(),
                determinism.as_str()
            );
            h
        }
        Metric::Counter(..) => panic!("metric {name:?} is a counter, not a histogram"),
    }
}

/// Zero every registered metric, keeping names and kinds registered.
pub fn reset() {
    let map = lock_registry();
    for metric in map.values() {
        match metric {
            Metric::Counter(c, _) => c.reset(),
            Metric::Histogram(h, _) => h.reset(),
        }
    }
}

/// Point-in-time value of one counter.
#[derive(Debug, Clone)]
pub struct CounterSnapshot {
    /// Registry name (dotted, e.g. `lsn.routing_cache.hit`).
    pub name: String,
    /// Determinism class the counter was registered with.
    pub determinism: Determinism,
    /// Total at snapshot time.
    pub value: u64,
}

/// One non-empty log2 bucket of a histogram snapshot.
#[derive(Debug, Clone)]
pub struct BucketSnapshot {
    /// Smallest value the bucket holds.
    pub lo: u64,
    /// Largest value the bucket holds (inclusive).
    pub hi: u64,
    /// Samples recorded into the bucket.
    pub count: u64,
}

/// Point-in-time contents of one histogram (empty buckets omitted).
#[derive(Debug, Clone)]
pub struct HistogramSnapshot {
    /// Registry name.
    pub name: String,
    /// What the samples measure.
    pub unit: Unit,
    /// Determinism class the histogram was registered with.
    pub determinism: Determinism,
    /// Total sample count.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Non-empty buckets, in ascending value order.
    pub buckets: Vec<BucketSnapshot>,
}

/// A deterministic, name-sorted snapshot of every registered metric.
#[derive(Debug, Clone, Default)]
pub struct MetricsReport {
    /// All counters, sorted by name.
    pub counters: Vec<CounterSnapshot>,
    /// All histograms, sorted by name.
    pub histograms: Vec<HistogramSnapshot>,
}

/// Snapshot every metric registered so far. Sorted by name (the registry
/// is a `BTreeMap`), so two snapshots of identical state render
/// identically.
pub fn snapshot() -> MetricsReport {
    let map = lock_registry();
    let mut report = MetricsReport::default();
    for (name, metric) in map.iter() {
        match metric {
            Metric::Counter(c, d) => report.counters.push(CounterSnapshot {
                name: (*name).to_string(),
                determinism: *d,
                value: c.value(),
            }),
            Metric::Histogram(h, d) => {
                let counts = h.bucket_counts();
                let buckets = counts
                    .iter()
                    .enumerate()
                    .filter(|(_, &n)| n > 0)
                    .map(|(i, &n)| {
                        let (lo, hi) = bucket_bounds(i);
                        BucketSnapshot { lo, hi, count: n }
                    })
                    .collect();
                report.histograms.push(HistogramSnapshot {
                    name: (*name).to_string(),
                    unit: h.unit(),
                    determinism: *d,
                    count: counts.iter().sum(),
                    sum: h.sum(),
                    buckets,
                });
            }
        }
    }
    report
}

/// Render the current registry state straight to `spacecdn-metrics-v1`
/// JSON — the one serializer shared by `spacecdn_bench::emit_metrics`
/// (writing `results/METRICS_*.json`) and the `spacecdn-serve` socket
/// telemetry endpoint, so the two surfaces cannot drift apart.
/// Equivalent to `snapshot().to_json()`.
pub fn snapshot_json() -> String {
    snapshot().to_json()
}

impl MetricsReport {
    /// Value of the counter named `name`, if registered.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .binary_search_by(|c| c.name.as_str().cmp(name))
            .ok()
            .map(|i| self.counters[i].value)
    }

    /// A canonical line-per-metric rendering of only the
    /// [`Determinism::Stable`] metrics — counter values plus histogram
    /// counts/sums/buckets, never wall-clock. Two runs of the same
    /// deterministic campaign must produce identical fingerprints at any
    /// thread count.
    pub fn stable_fingerprint(&self) -> String {
        let mut out = String::new();
        for c in &self.counters {
            if c.determinism == Determinism::Stable {
                out.push_str(&format!("counter {} = {}\n", c.name, c.value));
            }
        }
        for h in &self.histograms {
            if h.determinism == Determinism::Stable {
                out.push_str(&format!(
                    "histogram {} count={} sum={}",
                    h.name, h.count, h.sum
                ));
                for b in &h.buckets {
                    out.push_str(&format!(" [{}..{}]={}", b.lo, b.hi, b.count));
                }
                out.push('\n');
            }
        }
        out
    }

    /// Render the report as pretty-printed JSON (schema
    /// `spacecdn-metrics-v1`). Hand-rolled so the telemetry crate stays
    /// dependency-free; output is deterministic for deterministic inputs.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(4096);
        s.push_str("{\n  \"schema\": \"spacecdn-metrics-v1\",\n  \"counters\": {");
        for (i, c) in self.counters.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "\n    {}: {{\"value\": {}, \"determinism\": \"{}\"}}",
                json_string(&c.name),
                c.value,
                c.determinism.as_str()
            ));
        }
        s.push_str("\n  },\n  \"histograms\": {");
        for (i, h) in self.histograms.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "\n    {}: {{\n      \"unit\": \"{}\", \"determinism\": \"{}\", \"count\": {}, \"sum\": {},\n      \"buckets\": [",
                json_string(&h.name),
                h.unit.as_str(),
                h.determinism.as_str(),
                h.count,
                h.sum
            ));
            for (j, b) in h.buckets.iter().enumerate() {
                if j > 0 {
                    s.push(',');
                }
                s.push_str(&format!(
                    "\n        {{\"lo\": {}, \"hi\": {}, \"count\": {}}}",
                    b.lo, b.hi, b.count
                ));
            }
            if !h.buckets.is_empty() {
                s.push_str("\n      ");
            }
            s.push_str("]\n    }");
        }
        s.push_str("\n  }\n}\n");
        s
    }

    /// Write [`Self::to_json`] to `path`, creating parent directories.
    pub fn write_json(&self, path: &Path) -> io::Result<()> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(path, self.to_json())
    }
}

/// Minimal JSON string escaping (metric names are ASCII identifiers, but
/// be correct anyway).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Serializes this crate's tests that register or bump metrics: a
/// snapshot taken while a sibling test registers one would differ from
/// the next.
#[cfg(test)]
pub(crate) fn test_guard() -> std::sync::MutexGuard<'static, ()> {
    static GUARD: Mutex<()> = Mutex::new(());
    GUARD.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{LazyCounter, LazyHistogram};

    #[test]
    fn snapshot_is_sorted_and_queryable() {
        let _guard = test_guard();
        static B: LazyCounter = LazyCounter::stable("telemetry.test.b_counter");
        static A: LazyCounter = LazyCounter::stable("telemetry.test.a_counter");
        static H: LazyHistogram = LazyHistogram::stable("telemetry.test.hops", Unit::Hops);
        B.add(2);
        A.incr();
        H.record(3);
        let report = snapshot();
        assert!(report.counter("telemetry.test.a_counter").unwrap() >= 1);
        assert!(report.counter("telemetry.test.b_counter").unwrap() >= 2);
        assert_eq!(report.counter("telemetry.test.nonexistent"), None);
        let names: Vec<_> = report.counters.iter().map(|c| c.name.clone()).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted, "counters sorted by name");
        let hist = report
            .histograms
            .iter()
            .find(|h| h.name == "telemetry.test.hops")
            .expect("histogram present");
        assert_eq!(hist.unit, Unit::Hops);
        assert!(hist.count >= 1);
    }

    #[test]
    fn stable_fingerprint_excludes_racy_metrics() {
        let _guard = test_guard();
        static STABLE: LazyCounter = LazyCounter::stable("telemetry.test.fp_stable");
        static RACY: LazyCounter = LazyCounter::racy("telemetry.test.fp_racy");
        STABLE.incr();
        RACY.incr();
        let fp = snapshot().stable_fingerprint();
        assert!(fp.contains("telemetry.test.fp_stable"));
        assert!(!fp.contains("telemetry.test.fp_racy"));
    }

    #[test]
    fn json_renders_and_escapes() {
        let _guard = test_guard();
        static C: LazyCounter = LazyCounter::stable("telemetry.test.json_counter");
        C.incr();
        let json = snapshot().to_json();
        assert!(json.starts_with("{\n  \"schema\": \"spacecdn-metrics-v1\""));
        assert!(json.contains("\"telemetry.test.json_counter\""));
        assert_eq!(json_string("a\"b\\c\nd"), r#""a\"b\\c\nd""#);
    }

    #[test]
    fn snapshot_json_is_snapshot_to_json() {
        let _guard = test_guard();
        static C: LazyCounter = LazyCounter::stable("telemetry.test.shared_serializer");
        C.incr();
        assert_eq!(snapshot_json(), snapshot().to_json());
    }

    /// Pins the `spacecdn-metrics-v1` byte format over a handcrafted
    /// report. `emit_metrics` consumers diff `METRICS_*.json` files across
    /// runs, so this rendering is a compatibility contract: changing it
    /// requires a schema bump, not a silent edit.
    #[test]
    fn v1_json_format_is_pinned_byte_for_byte() {
        let report = MetricsReport {
            counters: vec![
                CounterSnapshot {
                    name: "a.first".to_string(),
                    determinism: Determinism::Stable,
                    value: 7,
                },
                CounterSnapshot {
                    name: "b.second".to_string(),
                    determinism: Determinism::Racy,
                    value: 0,
                },
            ],
            histograms: vec![
                HistogramSnapshot {
                    name: "h.empty".to_string(),
                    unit: Unit::Count,
                    determinism: Determinism::Racy,
                    count: 0,
                    sum: 0,
                    buckets: vec![],
                },
                HistogramSnapshot {
                    name: "h.hops".to_string(),
                    unit: Unit::Hops,
                    determinism: Determinism::Stable,
                    count: 3,
                    sum: 9,
                    buckets: vec![
                        BucketSnapshot {
                            lo: 2,
                            hi: 3,
                            count: 2,
                        },
                        BucketSnapshot {
                            lo: 4,
                            hi: 7,
                            count: 1,
                        },
                    ],
                },
            ],
        };
        let want = concat!(
            "{\n",
            "  \"schema\": \"spacecdn-metrics-v1\",\n",
            "  \"counters\": {\n",
            "    \"a.first\": {\"value\": 7, \"determinism\": \"stable\"},\n",
            "    \"b.second\": {\"value\": 0, \"determinism\": \"racy\"}\n",
            "  },\n",
            "  \"histograms\": {\n",
            "    \"h.empty\": {\n",
            "      \"unit\": \"count\", \"determinism\": \"racy\", \"count\": 0, \"sum\": 0,\n",
            "      \"buckets\": []\n",
            "    },\n",
            "    \"h.hops\": {\n",
            "      \"unit\": \"hops\", \"determinism\": \"stable\", \"count\": 3, \"sum\": 9,\n",
            "      \"buckets\": [\n",
            "        {\"lo\": 2, \"hi\": 3, \"count\": 2},\n",
            "        {\"lo\": 4, \"hi\": 7, \"count\": 1}\n",
            "      ]\n",
            "    }\n",
            "  }\n",
            "}\n",
        );
        assert_eq!(report.to_json(), want);
    }

    #[test]
    fn kind_conflict_panics() {
        let _guard = test_guard();
        counter("telemetry.test.kind_conflict", Determinism::Stable);
        let err = std::panic::catch_unwind(|| {
            histogram(
                "telemetry.test.kind_conflict",
                Unit::Count,
                Determinism::Stable,
            )
        });
        assert!(
            err.is_err(),
            "re-registering a counter as a histogram must panic"
        );
    }

    #[test]
    fn determinism_conflict_panics() {
        let _guard = test_guard();
        counter("telemetry.test.det_conflict", Determinism::Stable);
        let err =
            std::panic::catch_unwind(|| counter("telemetry.test.det_conflict", Determinism::Racy));
        assert!(
            err.is_err(),
            "re-registering with a different class must panic"
        );
    }
}
