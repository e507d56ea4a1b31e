//! The undo-buffer bloom filter (§III-B).
//!
//! Cache-driven logging creates an ordering dependency: a dirty line must
//! not be written in place while its undo entry is still volatile in the
//! on-chip buffer. PiCL guards the (rare) violation with a bloom filter
//! over the addresses of buffered entries: every LLC eviction probes the
//! filter, and a hit forces the buffer to flush first. The paper sizes it
//! at 4096 bits against a 32-entry buffer, making false positives
//! insignificant; the filter is cleared on every buffer flush.

use crate::LineAddr;

/// A fixed-size bloom filter over line addresses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BloomFilter {
    words: Vec<u64>,
    bits: usize,
    hashes: u32,
    insertions: u64,
}

impl BloomFilter {
    /// Creates a filter with `bits` bits (power of two) and `hashes` hash
    /// functions.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is not a nonzero multiple of 64 and power of two,
    /// or `hashes` is zero.
    pub fn new(bits: usize, hashes: u32) -> Self {
        assert!(
            bits >= 64 && bits.is_power_of_two(),
            "bits must be a power of two >= 64"
        );
        assert!(hashes > 0, "need at least one hash function");
        BloomFilter {
            words: vec![0; bits / 64],
            bits,
            hashes,
            insertions: 0,
        }
    }

    /// The paper's configuration: 4096 bits, 2 hash functions.
    pub fn paper_default() -> Self {
        BloomFilter::new(4096, 2)
    }

    fn bit_positions(&self, addr: LineAddr) -> impl Iterator<Item = usize> {
        // Double hashing: h1 + i·h2, each from a full SplitMix64 finalizer
        // so nearby addresses probe independent bit positions.
        let mix = |mut z: u64| {
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let h1 = mix(addr.raw().wrapping_add(0x9E37_79B9_7F4A_7C15));
        let h2 = mix(h1 ^ 0xD6E8_FEB8_6659_FD93) | 1;
        let mask = (self.bits - 1) as u64;
        // The iterator captures only copies, so `insert` can set bits
        // while walking it without collecting the positions first.
        (0..self.hashes)
            .map(move |i| (h1.wrapping_add(u64::from(i).wrapping_mul(h2)) & mask) as usize)
    }

    /// Records `addr` in the filter.
    pub fn insert(&mut self, addr: LineAddr) {
        for p in self.bit_positions(addr) {
            self.words[p / 64] |= 1u64 << (p % 64);
        }
        self.insertions += 1;
    }

    /// Whether `addr` *may* have been inserted since the last clear.
    /// Never returns `false` for an inserted address (no false negatives).
    pub fn maybe_contains(&self, addr: LineAddr) -> bool {
        self.bit_positions(addr)
            .all(|p| self.words[p / 64] & (1u64 << (p % 64)) != 0)
    }

    /// Clears the filter (done on every buffer flush).
    pub fn clear(&mut self) {
        self.words.fill(0);
        self.insertions = 0;
    }

    /// Number of insertions since the last clear.
    pub fn insertions(&self) -> u64 {
        self.insertions
    }

    /// Fraction of bits currently set; drives the false-positive estimate.
    pub fn fill_ratio(&self) -> f64 {
        let ones: u32 = self.words.iter().map(|w| w.count_ones()).sum();
        f64::from(ones) / self.bits as f64
    }

    /// Estimated false-positive probability at the current fill level.
    pub fn false_positive_estimate(&self) -> f64 {
        self.fill_ratio().powi(self.hashes as i32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_false_negatives() {
        let mut f = BloomFilter::paper_default();
        for i in 0..1000u64 {
            f.insert(LineAddr::new(i * 7919));
        }
        for i in 0..1000u64 {
            assert!(f.maybe_contains(LineAddr::new(i * 7919)));
        }
    }

    #[test]
    fn clear_empties_filter() {
        let mut f = BloomFilter::paper_default();
        f.insert(LineAddr::new(42));
        assert!(f.maybe_contains(LineAddr::new(42)));
        assert_eq!(f.insertions(), 1);
        f.clear();
        assert!(!f.maybe_contains(LineAddr::new(42)));
        assert_eq!(f.insertions(), 0);
        assert_eq!(f.fill_ratio(), 0.0);
    }

    #[test]
    fn paper_sizing_keeps_false_positives_insignificant() {
        // 32 entries (buffer capacity) into 4096 bits.
        let mut f = BloomFilter::paper_default();
        for i in 0..32u64 {
            f.insert(LineAddr::new(i.wrapping_mul(0xDEAD_BEEF_1234)));
        }
        // §III-B: false-positive rate is insignificant at this sizing.
        assert!(
            f.false_positive_estimate() < 0.001,
            "fp {}",
            f.false_positive_estimate()
        );
        // Empirical check over many non-inserted addresses.
        let fp = (1_000_000u64..1_020_000)
            .filter(|&i| f.maybe_contains(LineAddr::new(i)))
            .count();
        assert!(fp < 40, "observed {fp} false positives in 20k probes");
    }

    #[test]
    fn fill_ratio_grows_with_insertions() {
        let mut f = BloomFilter::new(256, 2);
        let r0 = f.fill_ratio();
        for i in 0..64u64 {
            f.insert(LineAddr::new(i * 31));
        }
        assert!(f.fill_ratio() > r0);
        assert!(f.false_positive_estimate() > 0.0);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_size_panics() {
        let _ = BloomFilter::new(100, 2);
    }

    #[test]
    #[should_panic(expected = "hash function")]
    fn zero_hashes_panics() {
        let _ = BloomFilter::new(128, 0);
    }
}
