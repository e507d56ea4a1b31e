//! Counters and small statistics helpers used by run reports.

/// A saturating event counter.
///
/// Wraps a `u64` so that report code reads as `counter.add(n)` /
/// `counter.get()` and cannot be accidentally assigned.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Counter(u64);

impl Counter {
    /// A counter at zero.
    pub fn new() -> Self {
        Counter(0)
    }

    /// Adds `n` events (saturating).
    pub fn add(&mut self, n: u64) {
        self.0 = self.0.saturating_add(n);
    }

    /// Adds one event.
    pub fn incr(&mut self) {
        self.add(1);
    }

    /// Current count.
    pub fn get(self) -> u64 {
        self.0
    }

    /// Resets the counter to zero and returns the previous value.
    pub fn take(&mut self) -> u64 {
        std::mem::take(&mut self.0)
    }
}

impl std::fmt::Display for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Display::fmt(&self.0, f)
    }
}

impl std::ops::AddAssign<u64> for Counter {
    fn add_assign(&mut self, rhs: u64) {
        self.add(rhs);
    }
}

/// A sampled instantaneous quantity (queue depth, buffer fill, …).
///
/// Unlike [`Counter`], a gauge can go up and down; it remembers the last
/// value it was set to plus the running minimum and maximum. All accessors
/// return `None` until the first [`set`](Gauge::set).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Gauge {
    last: f64,
    min: f64,
    max: f64,
    samples: u64,
}

impl Gauge {
    /// A gauge with no samples yet.
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Records a new instantaneous value.
    pub fn set(&mut self, value: f64) {
        if self.samples == 0 {
            self.min = value;
            self.max = value;
        } else {
            if value < self.min {
                self.min = value;
            }
            if value > self.max {
                self.max = value;
            }
        }
        self.last = value;
        self.samples += 1;
    }

    /// The most recently set value.
    pub fn last(&self) -> Option<f64> {
        (self.samples > 0).then_some(self.last)
    }

    /// The smallest value ever set.
    pub fn min(&self) -> Option<f64> {
        (self.samples > 0).then_some(self.min)
    }

    /// The largest value ever set.
    pub fn max(&self) -> Option<f64> {
        (self.samples > 0).then_some(self.max)
    }

    /// How many times the gauge has been set.
    pub fn samples(&self) -> u64 {
        self.samples
    }
}

impl std::fmt::Display for Gauge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match (self.last(), self.min(), self.max()) {
            (Some(last), Some(min), Some(max)) => {
                write!(f, "last {last:.2} (min {min:.2}, max {max:.2})")
            }
            _ => write!(f, "no samples"),
        }
    }
}

/// Number of buckets in a [`Histogram`]: one for zero plus one per power
/// of two up to `u64::MAX`.
const HISTOGRAM_BUCKETS: usize = 65;

/// A log2-bucketed histogram of `u64` samples.
///
/// Bucket 0 counts exact zeros; bucket `i >= 1` counts values in
/// `[2^(i-1), 2^i - 1]`, so the full `u64` range fits in 65 buckets with
/// at most 2x relative error on
/// [`percentile_defined`](Histogram::percentile_defined).
/// The exact maximum and sum are tracked on the side, so
/// [`max`](Histogram::max) and [`mean`](Histogram::mean) are precise.
#[derive(Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl Histogram {
    /// Number of log2 buckets: one for zero plus one per power of two.
    ///
    /// Exposed so external shard-per-thread implementations (the
    /// `picl-obs` atomic histograms) can mirror the exact bucket layout
    /// and rebuild a `Histogram` via [`from_saved`](Histogram::from_saved).
    pub const BUCKETS: usize = HISTOGRAM_BUCKETS;

    /// An empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    fn bucket_index(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            64 - value.leading_zeros() as usize
        }
    }

    /// The bucket index `value` lands in (0 for zero, else
    /// `64 - leading_zeros`). Mirror of the private recording path, public
    /// for shard-per-thread histograms that keep their own atomic buckets.
    pub fn index_of(value: u64) -> usize {
        Self::bucket_index(value)
    }

    /// The inclusive upper bound of bucket `i` (saturating to
    /// `u64::MAX` for the top bucket). Public counterpart of the bound
    /// used by [`nonzero_buckets`](Histogram::nonzero_buckets).
    pub fn bound_of(i: usize) -> u64 {
        Self::bucket_bound(i.min(HISTOGRAM_BUCKETS - 1))
    }

    /// The inclusive upper bound of bucket `i`.
    fn bucket_bound(i: usize) -> u64 {
        if i == 0 {
            0
        } else if i >= 64 {
            u64::MAX
        } else {
            (1u64 << i) - 1
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_index(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        if value > self.max {
            self.max = value;
        }
    }

    /// Total number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// The exact largest sample, or `None` if empty.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Arithmetic mean of the samples, or `None` if empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// Whether no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The `p`-th percentile (0.0–100.0), the one estimator every report
    /// uses. It is total, so report code gets a number and not an
    /// `Option`:
    ///
    /// * empty histogram — `0.0` (nothing observed, report zero rather
    ///   than poisoning a table with NaN or a sentinel);
    /// * all samples in one bucket — the midpoint of that bucket's
    ///   max-clamped range. With no cross-bucket rank information,
    ///   interpolation would otherwise scale the rank across the bucket
    ///   and report a point (e.g. the upper bound at p99) that can sit a
    ///   factor of two away from every actual sample;
    /// * otherwise — each log2 bucket's samples are spread uniformly
    ///   across its `[2^(i-1), 2^i - 1]` range, the rank is interpolated
    ///   inside the bucket that holds it, and the result is clamped to the
    ///   exact observed maximum.
    pub fn percentile_defined(&self, p: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let range = |i: usize| {
            let lo = if i == 0 {
                0.0
            } else {
                (1u64 << (i - 1)) as f64
            };
            (lo, Self::bucket_bound(i).min(self.max) as f64)
        };
        let mut nonzero = self.buckets.iter().enumerate().filter(|(_, &n)| n > 0);
        let (first, _) = nonzero.next().expect("count > 0 implies a bucket");
        if nonzero.next().is_none() {
            let (lo, hi) = range(first);
            return (lo + hi) / 2.0;
        }
        let rank = ((p.clamp(0.0, 100.0) / 100.0) * self.count as f64).max(1.0);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if (seen + n) as f64 >= rank {
                let (lo, hi) = range(i);
                let frac = ((rank - seen as f64) / n as f64).clamp(0.0, 1.0);
                return (lo + (hi - lo) * frac).min(self.max as f64);
            }
            seen += n;
        }
        self.max as f64
    }

    /// Folds another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        if other.max > self.max {
            self.max = other.max;
        }
    }

    /// Non-empty buckets as `(inclusive upper bound, count)` pairs, in
    /// ascending bound order.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| (Self::bucket_bound(i), n))
    }

    /// Rebuilds a histogram from previously saved state: the
    /// [`nonzero_buckets`](Histogram::nonzero_buckets) pairs plus the
    /// exact `count`, `sum`, and `max`. The round trip
    /// `from_saved(h.nonzero_buckets(), h.count(), h.sum(), h.max())`
    /// reproduces `h` bit-identically — checkpoint resume depends on it.
    ///
    /// # Errors
    ///
    /// Returns a message if a bound is not a valid bucket upper bound or
    /// the bucket counts do not add up to `count`.
    pub fn from_saved(
        buckets: impl IntoIterator<Item = (u64, u64)>,
        count: u64,
        sum: u64,
        max: u64,
    ) -> Result<Histogram, String> {
        let mut h = Histogram {
            buckets: [0; HISTOGRAM_BUCKETS],
            count,
            sum,
            max,
        };
        let mut total = 0u64;
        for (bound, n) in buckets {
            let i = if bound == 0 {
                0
            } else {
                64 - bound.leading_zeros() as usize
            };
            if Self::bucket_bound(i) != bound {
                return Err(format!("{bound} is not a histogram bucket bound"));
            }
            h.buckets[i] += n;
            total += n;
        }
        if total != count {
            return Err(format!(
                "histogram bucket counts sum to {total}, expected {count}"
            ));
        }
        Ok(h)
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count)
            .field("sum", &self.sum)
            .field("max", &self.max)
            .field(
                "nonzero_buckets",
                &self.nonzero_buckets().collect::<Vec<_>>(),
            )
            .finish()
    }
}

impl std::fmt::Display for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match (self.mean(), self.max()) {
            (Some(mean), Some(max)) => {
                write!(f, "n={} mean={:.2} max={}", self.count, mean, max)
            }
            _ => write!(f, "empty"),
        }
    }
}

/// Geometric mean of strictly positive values; the paper reports GMean for
/// its normalized-execution figures.
///
/// Edge cases are handled as follows:
///
/// * an empty slice has no mean — returns `None`;
/// * a single value is its own geometric mean (up to floating-point
///   rounding through `ln`/`exp`);
/// * any zero, negative, NaN, or infinite value poisons the whole input —
///   returns `None` rather than a partial mean, so a bad normalization
///   baseline can't silently skew a reported figure.
pub fn geometric_mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut log_sum = 0.0f64;
    for &v in values {
        if !(v.is_finite() && v > 0.0) {
            return None;
        }
        log_sum += v.ln();
    }
    Some((log_sum / values.len() as f64).exp())
}

/// Arithmetic mean; the paper reports AMean for the log-size figure.
///
/// Returns `None` for an empty input.
pub fn arithmetic_mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    Some(values.iter().sum::<f64>() / values.len() as f64)
}

/// A ratio of two counters rendered as `f64`, with `0/0 = 0`.
pub fn ratio(numerator: u64, denominator: u64) -> f64 {
    if denominator == 0 {
        0.0
    } else {
        numerator as f64 / denominator as f64
    }
}

/// Formats a byte count with a binary-unit suffix (`1.5 MiB`).
pub fn format_bytes(bytes: u64) -> String {
    const UNITS: [&str; 5] = ["B", "KiB", "MiB", "GiB", "TiB"];
    let mut v = bytes as f64;
    let mut unit = 0;
    while v >= 1024.0 && unit < UNITS.len() - 1 {
        v /= 1024.0;
        unit += 1;
    }
    if unit == 0 {
        format!("{bytes} B")
    } else {
        format!("{:.2} {}", v, UNITS[unit])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_basics() {
        let mut c = Counter::new();
        c.incr();
        c.add(4);
        c += 5;
        assert_eq!(c.get(), 10);
        assert_eq!(c.to_string(), "10");
        assert_eq!(c.take(), 10);
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn counter_saturates() {
        let mut c = Counter::new();
        c.add(u64::MAX);
        c.incr();
        assert_eq!(c.get(), u64::MAX);
    }

    #[test]
    fn gauge_tracks_last_min_max() {
        let mut g = Gauge::new();
        assert_eq!(g.last(), None);
        assert_eq!(g.min(), None);
        assert_eq!(g.max(), None);
        assert_eq!(g.to_string(), "no samples");
        g.set(4.0);
        g.set(1.0);
        g.set(3.0);
        assert_eq!(g.last(), Some(3.0));
        assert_eq!(g.min(), Some(1.0));
        assert_eq!(g.max(), Some(4.0));
        assert_eq!(g.samples(), 3);
        assert_eq!(g.to_string(), "last 3.00 (min 1.00, max 4.00)");
    }

    #[test]
    fn gauge_handles_negative_first_sample() {
        let mut g = Gauge::new();
        g.set(-2.0);
        assert_eq!(g.min(), Some(-2.0));
        assert_eq!(g.max(), Some(-2.0));
    }

    #[test]
    fn histogram_empty() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.count(), 0);
        assert_eq!(h.max(), None);
        assert_eq!(h.mean(), None);
        assert_eq!(h.percentile_defined(50.0), 0.0);
        assert_eq!(h.to_string(), "empty");
    }

    #[test]
    fn histogram_buckets_by_log2() {
        let mut h = Histogram::new();
        for v in [0, 1, 2, 3, 4, 7, 8, 1024] {
            h.record(v);
        }
        assert_eq!(h.count(), 8);
        assert_eq!(h.sum(), 1049);
        assert_eq!(h.max(), Some(1024));
        assert!((h.mean().unwrap() - 1049.0 / 8.0).abs() < 1e-12);
        // 0 -> bucket 0; 1 -> [1,1]; 2,3 -> [2,3]; 4,7 -> [4,7]; 8 -> [8,15];
        // 1024 -> [1024,2047].
        let buckets: Vec<(u64, u64)> = h.nonzero_buckets().collect();
        assert_eq!(
            buckets,
            vec![(0, 1), (1, 1), (3, 2), (7, 2), (15, 1), (2047, 1)]
        );
    }

    #[test]
    fn percentiles_interpolate_and_clamp_to_the_max() {
        let mut h = Histogram::new();
        for _ in 0..99 {
            h.record(1);
        }
        h.record(1000);
        assert_eq!(h.percentile_defined(0.0), 1.0);
        assert_eq!(h.percentile_defined(50.0), 1.0);
        assert_eq!(h.percentile_defined(99.0), 1.0);
        // The top sample lands in bucket [512,1023]; the estimate is
        // clamped to the exact max.
        assert_eq!(h.percentile_defined(100.0), 1000.0);
        assert_eq!(h.to_string(), "n=100 mean=10.99 max=1000");
    }

    #[test]
    fn percentiles_land_inside_buckets() {
        let mut h = Histogram::new();
        // One sample per value of [64, 127] — exactly one log2 bucket.
        for v in 64..=127u64 {
            h.record(v);
        }
        let p50 = h.percentile_defined(50.0);
        // The median sits mid-bucket, not on the 127 bucket edge.
        assert!((95.0..=97.0).contains(&p50), "{p50}");

        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let [p50, p90, p99] = [50.0, 90.0, 99.0].map(|p| h.percentile_defined(p));
        assert!(p50 < p90 && p90 < p99, "{p50} {p90} {p99}");
        // True quantiles are 500/900/990; log2 interpolation stays within
        // the enclosing bucket (a factor of two).
        assert!((256.0..=1000.0).contains(&p50), "{p50}");
        assert!((512.0..=1000.0).contains(&p90), "{p90}");
        assert!(p99 <= 1000.0, "{p99}");
    }

    #[test]
    fn defined_percentiles_have_total_edge_cases() {
        // Empty: a defined zero.
        let h = Histogram::new();
        assert_eq!(h.percentile_defined(50.0), 0.0);
        assert_eq!(h.percentile_defined(99.9), 0.0);

        // All samples exactly zero: single bucket [0, 0] — midpoint 0.
        let mut h = Histogram::new();
        h.record(0);
        assert_eq!(h.percentile_defined(50.0), 0.0);
        h.record(0);
        assert_eq!(h.percentile_defined(99.0), 0.0);

        // One sample of 5 lands alone in bucket [4, 7], clamped to the
        // exact max: midpoint of [4, 5]. Every percentile reports it —
        // there is no rank information inside one bucket.
        let mut h = Histogram::new();
        h.record(5);
        assert_eq!(h.percentile_defined(1.0), 4.5);
        assert_eq!(h.percentile_defined(50.0), 4.5);
        assert_eq!(h.percentile_defined(99.9), 4.5);
        assert_eq!(h.percentile_defined(100.0), 4.5);

        // Many samples, still one bucket [64, 127]: midpoint, not the
        // rank-scaled point interpolation would pick.
        let mut h = Histogram::new();
        for _ in 0..1000 {
            h.record(100);
        }
        assert_eq!(h.percentile_defined(99.0), (64.0 + 100.0) / 2.0);

        // Two buckets: the rank is interpolated inside the one holding
        // it. p75 is rank 1.5, halfway through [512, 1000].
        let mut h = Histogram::new();
        h.record(1);
        h.record(1000);
        assert_eq!(h.percentile_defined(50.0), 1.0);
        assert_eq!(h.percentile_defined(75.0), 756.0);
    }

    #[test]
    fn bucket_helpers_mirror_recording() {
        for v in [0u64, 1, 2, 3, 7, 8, 1023, 1024, u64::MAX] {
            let mut h = Histogram::new();
            h.record(v);
            let (bound, n) = h.nonzero_buckets().next().unwrap();
            assert_eq!(n, 1);
            assert_eq!(Histogram::bound_of(Histogram::index_of(v)), bound);
            assert!(v <= bound);
        }
        // Out-of-range indexes clamp to the top bucket instead of panicking.
        assert_eq!(Histogram::bound_of(usize::MAX), u64::MAX);
    }

    #[test]
    fn merge_then_percentile_equals_aggregate_then_percentile() {
        use crate::rng::Rng;
        // Seeded samples with a heavy tail, split across four per-thread
        // shards. Merging the shard histograms must give bit-identical
        // percentiles to one histogram fed every sample: log2 buckets,
        // counts, sums, and maxes all add exactly.
        let mut rng = Rng::new(0x0b5e_55ed);
        let mut aggregate = Histogram::new();
        let mut shards = vec![Histogram::new(); 4];
        for i in 0..10_000u64 {
            let v = match rng.below(100) {
                0..=79 => rng.below(1_000),
                80..=98 => 1_000 + rng.below(100_000),
                _ => 1_000_000 + rng.below(1_000_000_000),
            };
            aggregate.record(v);
            shards[(i % 4) as usize].record(v);
        }
        let mut merged = Histogram::new();
        for s in &shards {
            merged.merge(s);
        }
        assert_eq!(merged, aggregate, "merge must reproduce full state");
        for p in [0.0, 10.0, 50.0, 90.0, 99.0, 99.9, 100.0] {
            assert_eq!(
                merged.percentile_defined(p),
                aggregate.percentile_defined(p)
            );
        }
    }

    #[test]
    fn histogram_merge_combines_everything() {
        let mut a = Histogram::new();
        a.record(1);
        a.record(5);
        let mut b = Histogram::new();
        b.record(100);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.sum(), 106);
        assert_eq!(a.max(), Some(100));
    }

    #[test]
    fn histogram_extreme_values() {
        let mut h = Histogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX);
        assert_eq!(h.max(), Some(u64::MAX));
        assert_eq!(h.sum(), u64::MAX, "sum saturates");
        // The top bucket is [2^63, u64::MAX]; its midpoint, without
        // overflowing.
        assert_eq!(
            h.percentile_defined(100.0),
            (2f64.powi(63) + u64::MAX as f64) / 2.0
        );
        h.record(1);
        assert_eq!(h.percentile_defined(100.0), u64::MAX as f64);
    }

    #[test]
    fn histogram_saved_state_round_trips() {
        let mut h = Histogram::new();
        for v in [0, 1, 3, 900, u64::MAX] {
            h.record(v);
        }
        let restored = Histogram::from_saved(
            h.nonzero_buckets().collect::<Vec<_>>(),
            h.count(),
            h.sum(),
            h.max().unwrap(),
        )
        .unwrap();
        assert_eq!(restored, h);

        assert!(
            Histogram::from_saved([(5, 1)], 1, 5, 5).is_err(),
            "5 is not a bound"
        );
        assert!(
            Histogram::from_saved([(1, 1)], 2, 1, 1).is_err(),
            "count mismatch"
        );
    }

    #[test]
    fn geomean() {
        let g = geometric_mean(&[1.0, 4.0]).unwrap();
        assert!((g - 2.0).abs() < 1e-12);
        assert!(geometric_mean(&[]).is_none());
        assert!(geometric_mean(&[1.0, 0.0]).is_none());
        assert!(geometric_mean(&[1.0, f64::NAN]).is_none());
    }

    #[test]
    fn geomean_edge_cases() {
        // A single value is its own geometric mean.
        let g = geometric_mean(&[3.5]).unwrap();
        assert!((g - 3.5).abs() < 1e-12);
        // Any non-finite or non-positive value poisons the whole input.
        assert!(geometric_mean(&[2.0, f64::INFINITY]).is_none());
        assert!(geometric_mean(&[2.0, f64::NEG_INFINITY]).is_none());
        assert!(geometric_mean(&[2.0, -1.0]).is_none());
        // Values below and above one balance out.
        let g = geometric_mean(&[0.5, 2.0]).unwrap();
        assert!((g - 1.0).abs() < 1e-12);
    }

    #[test]
    fn amean() {
        assert_eq!(arithmetic_mean(&[1.0, 3.0]), Some(2.0));
        assert!(arithmetic_mean(&[]).is_none());
    }

    #[test]
    fn ratio_handles_zero_denominator() {
        assert_eq!(ratio(5, 0), 0.0);
        assert_eq!(ratio(6, 3), 2.0);
    }

    #[test]
    fn byte_formatting() {
        assert_eq!(format_bytes(512), "512 B");
        assert_eq!(format_bytes(2048), "2.00 KiB");
        assert_eq!(format_bytes(5 * 1024 * 1024 + 512 * 1024), "5.50 MiB");
    }
}
