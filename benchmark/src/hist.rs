//! A log-linear latency histogram with bounded relative error.
//!
//! Each power of two is split into [`SUB`] equal-width sub-buckets, so a
//! bucket is never wider than 1/128 of its lower edge, and a percentile
//! lands inside the bucket holding its rank: within 0.8% of a sample in
//! that bucket, and off the power-of-two edges a log2 histogram reports
//! (which reads p99.9 as `2^k - 1` whatever the samples were).

const SUB_BITS: u32 = 7;
/// Linear sub-buckets per power of two.
pub const SUB: u64 = 1 << SUB_BITS;
/// Values below `SUB` get one exact bucket each; every power of two from
/// `SUB` up to `2^63` then gets `SUB` sub-buckets.
const BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUB as usize;

/// A mergeable histogram of `u64` samples (nanoseconds, by convention).
#[derive(Clone, PartialEq, Eq)]
pub struct LogHist {
    counts: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl std::fmt::Debug for LogHist {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LogHist")
            .field("count", &self.count)
            .field("min", &self.min)
            .field("max", &self.max)
            .finish_non_exhaustive()
    }
}

impl Default for LogHist {
    fn default() -> Self {
        LogHist {
            counts: vec![0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

fn index(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let shift = 63 - v.leading_zeros() - SUB_BITS;
    let mantissa = (v >> shift) - SUB;
    ((u64::from(shift) + 1) * SUB + mantissa) as usize
}

/// `[lo, hi]` (inclusive) of bucket `i`.
fn bounds(i: usize) -> (u64, u64) {
    let i = i as u64;
    if i < SUB {
        return (i, i);
    }
    let shift = i / SUB - 1;
    let mantissa = i % SUB + SUB;
    let lo = mantissa << shift;
    (lo, lo + ((1u64 << shift) - 1))
}

impl LogHist {
    /// An empty histogram.
    pub fn new() -> LogHist {
        LogHist::default()
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[index(v)] += 1;
        self.count += 1;
        self.sum += u128::from(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Folds `other` into this histogram.
    pub fn merge(&mut self, other: &LogHist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// The nearest-rank `p`-th percentile (0–100); 0 when empty.
    ///
    /// The estimate spreads the samples of the bucket holding that rank
    /// evenly across the bucket and takes the rank's position, so it
    /// stays inside the bucket (within 1/128 of any sample there) and
    /// moves continuously with the data rather than snapping to a fixed
    /// set of values.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((p.clamp(0.0, 100.0) / 100.0) * self.count as f64)
            .ceil()
            .max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &n) in self.counts.iter().enumerate() {
            if seen + n >= rank {
                let (lo, hi) = bounds(i);
                let width = (hi - lo) as f64 + 1.0;
                let at = if width > 1.0 {
                    lo as f64 + width * ((rank - seen) as f64 - 0.5) / n as f64
                } else {
                    lo as f64
                };
                return at.clamp(self.min as f64, self.max as f64);
            }
            seen += n;
        }
        self.max as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_tile_the_range() {
        let mut next = 0u64;
        for i in 0..BUCKETS {
            let (lo, hi) = bounds(i);
            assert_eq!(
                lo,
                next,
                "bucket {i} starts where {} ended",
                i.wrapping_sub(1)
            );
            assert_eq!(index(lo), i);
            assert_eq!(index(hi), i);
            next = hi.wrapping_add(1);
        }
        assert_eq!(next, 0, "the last bucket ends at u64::MAX");
    }

    #[test]
    fn bucket_width_is_bounded() {
        for i in SUB as usize..BUCKETS {
            let (lo, hi) = bounds(i);
            assert!((hi - lo + 1) as f64 / lo as f64 <= 1.0 / SUB as f64);
        }
    }
}
