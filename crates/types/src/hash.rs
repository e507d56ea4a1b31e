//! Fast deterministic hashing for simulator-internal maps.
//!
//! Simulation state lives in multi-million-entry hash maps keyed by line
//! addresses; the standard library's DoS-resistant SipHash costs more than
//! the rest of an access's work. [`FastMap`]/[`FastSet`] use a Fibonacci
//! multiplicative hash instead — keys are simulator-internal addresses, so
//! adversarial collisions are not a concern, and determinism across runs is
//! a feature (SipHash's random seed is not reproducible).

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A multiplicative hasher for integer-like keys.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    state: u64,
}

impl Hasher for FxHasher {
    fn finish(&self) -> u64 {
        self.state
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        // The rustc-hash recurrence: ends in a multiply, so the low bits
        // (hashbrown's bucket index) cycle distinctly for sequential keys.
        self.state = (self.state.rotate_left(5) ^ n).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }
}

/// The `BuildHasher` for [`FxHasher`].
pub type FxBuild = BuildHasherDefault<FxHasher>;

/// [`FxHasher`] with its product rotated, so that every bit of a key
/// reaches the low bits hashbrown picks a bucket with. FxHasher's low bits
/// depend only on the key's low bits, so keys on a power-of-two stride
/// crowd into a fraction of the buckets; a map of arbitrary cache lines
/// (the golden overlay) probes long runs without this.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpreadHasher(FxHasher);

impl Hasher for SpreadHasher {
    fn finish(&self) -> u64 {
        self.0.finish().rotate_left(26)
    }

    fn write(&mut self, bytes: &[u8]) {
        self.0.write(bytes);
    }

    fn write_u64(&mut self, n: u64) {
        self.0.write_u64(n);
    }
}

/// FNV-1a offset basis (64-bit).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime (64-bit).
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// 64-bit FNV-1a over a byte string.
///
/// Used where a *stable on-media* digest is needed (the `picl-store` file
/// layout checksums its superblock and log blocks with it): unlike
/// [`FxHasher`], the output is a specified function of the bytes alone, so
/// files written by one build verify under any other.
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// A `HashMap` with deterministic, fast hashing.
pub type FastMap<K, V> = HashMap<K, V, FxBuild>;

/// A `HashSet` with deterministic, fast hashing.
pub type FastSet<T> = HashSet<T, FxBuild>;

/// A [`FastMap`] for keys with no sequential pattern: see [`SpreadHasher`].
pub type SpreadMap<K, V> = HashMap<K, V, BuildHasherDefault<SpreadHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_round_trips() {
        let mut m: FastMap<u64, u64> = FastMap::default();
        for i in 0..10_000u64 {
            m.insert(i * 64, i);
        }
        for i in 0..10_000u64 {
            assert_eq!(m.get(&(i * 64)), Some(&i));
        }
        assert_eq!(m.len(), 10_000);
    }

    #[test]
    fn set_round_trips() {
        let mut s: FastSet<u64> = FastSet::default();
        assert!(s.insert(42));
        assert!(!s.insert(42));
        assert!(s.contains(&42));
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_64(b"foobar"), 0x85944171f73967e8);
        // Sensitivity: one flipped bit changes the digest.
        assert_ne!(fnv1a_64(b"foobas"), fnv1a_64(b"foobar"));
    }

    #[test]
    fn spread_hash_spreads_strided_keys() {
        // Lines 1024 apart: FxHasher puts them all on bucket indices with
        // ten low zero bits; the spread hash uses every low byte.
        fn low_bytes<H: Hasher + Default>() -> usize {
            let mut seen: FastSet<u64> = FastSet::default();
            for i in 0..256u64 {
                let mut h = H::default();
                h.write_u64(i << 10);
                seen.insert(h.finish() & 0xFF);
            }
            seen.len()
        }
        assert_eq!(low_bytes::<FxHasher>(), 1);
        let spread = low_bytes::<SpreadHasher>();
        assert!(spread > 128, "only {spread} distinct low bytes");
    }

    #[test]
    fn hash_spreads_sequential_keys() {
        // Sequential line addresses must not collide in low bits, or maps
        // degenerate into linked lists.
        let mut low_bits: FastSet<u64> = FastSet::default();
        for i in 0..256u64 {
            let mut h = FxHasher::default();
            h.write_u64(i);
            low_bits.insert(h.finish() & 0xFF);
        }
        assert!(
            low_bits.len() > 128,
            "only {} distinct low bytes",
            low_bits.len()
        );
    }
}
