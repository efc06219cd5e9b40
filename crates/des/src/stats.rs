//! Statistics collectors shared by every experiment.
//!
//! The paper reports medians, percentile boxes (Figs 5, 8) and CDFs
//! (Figs 4, 7). These collectors are deliberately simple — exact quantiles
//! over retained samples, not streaming sketches — because experiment sample
//! counts are in the tens of thousands, where exactness is cheap and
//! reviewable.

use spacecdn_geo::Latency;

/// Streaming count/mean/variance/min/max via Welford's algorithm.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// An empty summary.
    pub fn new() -> Self {
        Summary {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Fold in one observation. Non-finite values are ignored (and counted
    /// nowhere): a NaN must never poison an experiment aggregate.
    pub fn add(&mut self, x: f64) {
        if !x.is_finite() {
            return;
        }
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations folded in.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0 with fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation (`None` when empty).
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation (`None` when empty).
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Merge another summary into this one (parallel-reduction friendly).
    pub fn merge(&mut self, other: &Summary) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Exact quantiles over retained samples.
#[derive(Debug, Clone, Default)]
pub struct Percentiles {
    samples: Vec<f64>,
    sorted: bool,
}

impl Percentiles {
    /// An empty collector.
    pub fn new() -> Self {
        Percentiles {
            samples: Vec::new(),
            sorted: true,
        }
    }

    /// Add one sample; non-finite values are discarded.
    pub fn add(&mut self, x: f64) {
        if x.is_finite() {
            self.samples.push(x);
            self.sorted = false;
        }
    }

    /// Add a latency sample in milliseconds.
    pub fn add_latency(&mut self, l: Latency) {
        self.add(l.ms());
    }

    /// Number of retained samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when no samples were retained.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.samples
                .sort_by(|a, b| a.partial_cmp(b).expect("non-finite filtered on add"));
            self.sorted = true;
        }
    }

    /// Quantile `q` in `[0, 1]` by linear interpolation between order
    /// statistics. `None` when empty.
    pub fn quantile(&mut self, q: f64) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        self.ensure_sorted();
        let q = q.clamp(0.0, 1.0);
        let pos = q * (self.samples.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let frac = pos - lo as f64;
        Some(self.samples[lo] * (1.0 - frac) + self.samples[hi] * frac)
    }

    /// [`Self::quantile`] at every `q` in `qs`, without a full sort: each
    /// lower order statistic is selected in `O(n)` on the part above the
    /// previous one, and the upper one is the minimum of what lies above
    /// it. Already-sorted samples are read directly. Bit-identical to
    /// `quantile` per `q`, because samples that compare equal are equal
    /// (unless both `0.0` and `-0.0` were added). Leaves unsorted samples
    /// in unspecified order.
    pub fn quantiles<const N: usize>(&mut self, qs: [f64; N]) -> Option<[f64; N]> {
        let n = self.samples.len();
        if n == 0 {
            return None;
        }
        let pos = qs.map(|q| q.clamp(0.0, 1.0) * (n - 1) as f64);
        let lows = pos.map(|p| p.floor() as usize);
        let mut order: [usize; N] = std::array::from_fn(|i| i);
        order.sort_unstable_by_key(|&i| lows[i]);
        let mut out = [0.0; N];
        // `samples[floor..]` holds exactly the order statistics `floor..`.
        let mut floor = 0;
        for i in order {
            let (lo, hi) = (lows[i], pos[i].ceil() as usize);
            let frac = pos[i] - lo as f64;
            let (lo_v, hi_v) = if self.sorted {
                (self.samples[lo], self.samples[hi])
            } else {
                self.samples[floor..].select_nth_unstable_by(lo - floor, |a, b| {
                    a.partial_cmp(b).expect("non-finite filtered on add")
                });
                floor = lo;
                let lo_v = self.samples[lo];
                let hi_v = if hi == lo {
                    lo_v
                } else {
                    self.samples[lo + 1..]
                        .iter()
                        .fold(f64::INFINITY, |m, &x| if x < m { x } else { m })
                };
                (lo_v, hi_v)
            };
            out[i] = lo_v * (1.0 - frac) + hi_v * frac;
        }
        Some(out)
    }

    /// The median (`None` when empty).
    pub fn median(&mut self) -> Option<f64> {
        self.quantile(0.5)
    }

    /// Min / Q1 / median / Q3 / max — the boxplot shape of Figs 5 and 8.
    pub fn five_number(&mut self) -> Option<FiveNumber> {
        if self.samples.is_empty() {
            return None;
        }
        Some(FiveNumber {
            min: self.quantile(0.0).expect("non-empty"),
            q1: self.quantile(0.25).expect("non-empty"),
            median: self.quantile(0.5).expect("non-empty"),
            q3: self.quantile(0.75).expect("non-empty"),
            max: self.quantile(1.0).expect("non-empty"),
        })
    }

    /// An empirical CDF with `points` evenly spaced probability steps.
    pub fn cdf(&mut self, points: usize) -> Cdf {
        self.ensure_sorted();
        let n = self.samples.len();
        if n == 0 || points == 0 {
            return Cdf { points: Vec::new() };
        }
        let steps = points.min(n).max(2);
        let mut out = Vec::with_capacity(steps);
        for i in 0..steps {
            let p = i as f64 / (steps - 1) as f64;
            let value = {
                let pos = p * (n - 1) as f64;
                let lo = pos.floor() as usize;
                let hi = pos.ceil() as usize;
                let frac = pos - lo as f64;
                self.samples[lo] * (1.0 - frac) + self.samples[hi] * frac
            };
            out.push((value, p));
        }
        Cdf { points: out }
    }

    /// Fraction of samples ≤ `x` (the empirical CDF evaluated at `x`).
    pub fn fraction_at_or_below(&mut self, x: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.ensure_sorted();
        let idx = self.samples.partition_point(|&s| s <= x);
        idx as f64 / self.samples.len() as f64
    }

    /// Merge another collector's samples.
    pub fn merge(&mut self, other: &Percentiles) {
        self.samples.extend_from_slice(&other.samples);
        self.sorted = false;
    }

    /// Immutable view of the retained samples (unsorted order unspecified).
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }
}

/// The boxplot five-number summary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FiveNumber {
    /// Minimum sample.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Maximum sample.
    pub max: f64,
}

/// An empirical CDF as `(value, cumulative probability)` points.
#[derive(Debug, Clone, Default)]
pub struct Cdf {
    /// Points sorted by value; probabilities rise from 0 to 1.
    pub points: Vec<(f64, f64)>,
}

impl Cdf {
    /// Value at probability `p` by scanning the stored points.
    pub fn value_at(&self, p: f64) -> Option<f64> {
        if self.points.is_empty() {
            return None;
        }
        let p = p.clamp(0.0, 1.0);
        for &(v, prob) in &self.points {
            if prob >= p {
                return Some(v);
            }
        }
        self.points.last().map(|&(v, _)| v)
    }
}

/// A fixed-width histogram over `[lo, hi)` with out-of-range overflow bins.
#[derive(Debug, Clone)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    bins: Vec<u64>,
    underflow: u64,
    overflow: u64,
}

impl Histogram {
    /// Create a histogram with `bins` equal-width bins spanning `[lo, hi)`.
    ///
    /// # Panics
    /// Panics if `bins == 0` or `hi <= lo` — a histogram with no range is a
    /// configuration bug, not a runtime condition.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0, "histogram needs at least one bin");
        assert!(hi > lo, "histogram range must be non-empty");
        Histogram {
            lo,
            hi,
            bins: vec![0; bins],
            underflow: 0,
            overflow: 0,
        }
    }

    /// Count one observation.
    pub fn add(&mut self, x: f64) {
        if !x.is_finite() {
            return;
        }
        if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let width = (self.hi - self.lo) / self.bins.len() as f64;
            let idx = ((x - self.lo) / width) as usize;
            let idx = idx.min(self.bins.len() - 1);
            self.bins[idx] += 1;
        }
    }

    /// Total observations including both overflow bins.
    pub fn total(&self) -> u64 {
        self.bins.iter().sum::<u64>() + self.underflow + self.overflow
    }

    /// Per-bin counts.
    pub fn bins(&self) -> &[u64] {
        &self.bins
    }

    /// Observations below the range.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Observations at or above the range's upper edge.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// The `(lower_edge, upper_edge, count)` rows, for printing.
    pub fn rows(&self) -> Vec<(f64, f64, u64)> {
        let width = (self.hi - self.lo) / self.bins.len() as f64;
        self.bins
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                (
                    self.lo + i as f64 * width,
                    self.lo + (i + 1) as f64 * width,
                    c,
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_basic_moments() {
        let mut s = Summary::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.add(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.std_dev() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
    }

    #[test]
    fn summary_ignores_non_finite() {
        let mut s = Summary::new();
        s.add(f64::NAN);
        s.add(f64::INFINITY);
        s.add(3.0);
        assert_eq!(s.count(), 1);
        assert_eq!(s.mean(), 3.0);
    }

    #[test]
    fn summary_empty_defaults() {
        let s = Summary::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
    }

    #[test]
    fn summary_merge_equals_sequential() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0 + 20.0).collect();
        let mut whole = Summary::new();
        data.iter().for_each(|&x| whole.add(x));

        let mut left = Summary::new();
        let mut right = Summary::new();
        data[..37].iter().for_each(|&x| left.add(x));
        data[37..].iter().for_each(|&x| right.add(x));
        left.merge(&right);

        assert_eq!(left.count(), whole.count());
        assert!((left.mean() - whole.mean()).abs() < 1e-9);
        assert!((left.variance() - whole.variance()).abs() < 1e-9);
    }

    #[test]
    fn percentiles_exact_on_known_data() {
        let mut p = Percentiles::new();
        for x in 1..=100 {
            p.add(x as f64);
        }
        assert_eq!(p.len(), 100);
        assert!((p.median().unwrap() - 50.5).abs() < 1e-9);
        assert!((p.quantile(0.0).unwrap() - 1.0).abs() < 1e-9);
        assert!((p.quantile(1.0).unwrap() - 100.0).abs() < 1e-9);
        assert!((p.quantile(0.25).unwrap() - 25.75).abs() < 1e-9);
    }

    #[test]
    fn quantiles_match_quantile_bit_for_bit() {
        let qs = [0.0, 0.5, 0.9, 0.99, 1.0];
        let mut rng = spacecdn_geo::DetRng::new(7, "stats/quantiles");
        let random: Vec<f64> = (0..1000).map(|_| rng.uniform(0.0, 500.0)).collect();
        let duplicates: Vec<f64> = (0..1000).map(|_| rng.index(4) as f64 * 2.5).collect();
        for samples in [random, duplicates, vec![42.0], vec![3.0, 1.0]] {
            let mut reference = Percentiles::new();
            let mut unsorted = Percentiles::new();
            for &x in &samples {
                reference.add(x);
                unsorted.add(x);
            }
            let want = qs.map(|q| reference.quantile(q).unwrap().to_bits());
            // Unsorted: selection.
            let got = unsorted.quantiles(qs).unwrap().map(f64::to_bits);
            assert_eq!(got, want, "unsorted n={}", samples.len());
            // Selection again on the permuted samples, with the
            // quantiles in descending order.
            let mut rev = qs;
            rev.reverse();
            let got = unsorted.quantiles(rev).unwrap().map(f64::to_bits);
            let mut want_rev = want;
            want_rev.reverse();
            assert_eq!(got, want_rev, "reversed n={}", samples.len());
            // Sorted (the reference sorted itself): read directly.
            let got = reference.quantiles(qs).unwrap().map(f64::to_bits);
            assert_eq!(got, want, "sorted n={}", samples.len());
        }
        assert_eq!(Percentiles::new().quantiles(qs), None);
    }

    #[test]
    fn percentiles_empty_is_none() {
        let mut p = Percentiles::new();
        assert_eq!(p.median(), None);
        assert!(p.five_number().is_none());
        assert!(p.cdf(10).points.is_empty());
    }

    #[test]
    fn percentiles_single_sample() {
        let mut p = Percentiles::new();
        p.add(42.0);
        assert_eq!(p.median(), Some(42.0));
        let f = p.five_number().unwrap();
        assert_eq!(f.min, 42.0);
        assert_eq!(f.max, 42.0);
    }

    #[test]
    fn five_number_ordering() {
        let mut p = Percentiles::new();
        for x in [9.0, 1.0, 5.0, 3.0, 7.0, 2.0, 8.0] {
            p.add(x);
        }
        let f = p.five_number().unwrap();
        assert!(f.min <= f.q1 && f.q1 <= f.median && f.median <= f.q3 && f.q3 <= f.max);
        assert_eq!(f.min, 1.0);
        assert_eq!(f.max, 9.0);
    }

    #[test]
    fn cdf_monotone_and_spans() {
        let mut p = Percentiles::new();
        for i in 0..1000 {
            p.add((i % 37) as f64);
        }
        let cdf = p.cdf(50);
        assert!(cdf.points.len() >= 2);
        for w in cdf.points.windows(2) {
            assert!(w[0].0 <= w[1].0, "values must be monotone");
            assert!(w[0].1 <= w[1].1, "probabilities must be monotone");
        }
        assert_eq!(cdf.points.first().unwrap().1, 0.0);
        assert_eq!(cdf.points.last().unwrap().1, 1.0);
    }

    #[test]
    fn cdf_value_at() {
        let mut p = Percentiles::new();
        for i in 1..=100 {
            p.add(i as f64);
        }
        let cdf = p.cdf(100);
        let v = cdf.value_at(0.5).unwrap();
        assert!((v - 50.5).abs() < 2.0, "got {v}");
        assert!(Cdf::default().value_at(0.5).is_none());
    }

    #[test]
    fn fraction_at_or_below() {
        let mut p = Percentiles::new();
        for i in 1..=10 {
            p.add(i as f64);
        }
        assert_eq!(p.fraction_at_or_below(5.0), 0.5);
        assert_eq!(p.fraction_at_or_below(0.0), 0.0);
        assert_eq!(p.fraction_at_or_below(100.0), 1.0);
    }

    #[test]
    fn percentiles_merge() {
        let mut a = Percentiles::new();
        let mut b = Percentiles::new();
        for i in 0..50 {
            a.add(i as f64);
        }
        for i in 50..100 {
            b.add(i as f64);
        }
        a.merge(&b);
        assert_eq!(a.len(), 100);
        assert!((a.median().unwrap() - 49.5).abs() < 1e-9);
    }

    #[test]
    fn latency_samples() {
        let mut p = Percentiles::new();
        p.add_latency(Latency::from_ms(30.0));
        p.add_latency(Latency::from_ms(50.0));
        assert_eq!(p.median(), Some(40.0));
    }

    #[test]
    fn histogram_binning() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        for x in [0.0, 0.5, 1.0, 5.5, 9.99] {
            h.add(x);
        }
        h.add(-1.0);
        h.add(10.0);
        h.add(f64::NAN);
        assert_eq!(h.total(), 7);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.bins()[0], 2); // 0.0 and 0.5
        assert_eq!(h.bins()[1], 1); // 1.0
        assert_eq!(h.bins()[5], 1); // 5.5
        assert_eq!(h.bins()[9], 1); // 9.99
    }

    #[test]
    fn histogram_rows_cover_range() {
        let h = Histogram::new(10.0, 20.0, 4);
        let rows = h.rows();
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[0].0, 10.0);
        assert!((rows[3].1 - 20.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one bin")]
    fn histogram_zero_bins_panics() {
        let _ = Histogram::new(0.0, 1.0, 0);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn histogram_empty_range_panics() {
        let _ = Histogram::new(1.0, 1.0, 4);
    }
}
