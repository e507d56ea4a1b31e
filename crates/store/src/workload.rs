//! Seeded KV operations and the in-memory model oracle.
//!
//! [`Op`], [`Model`] and [`apply_to_model`] are the vocabulary every
//! workload shares: the serving layer's per-session streams and the crash
//! oracles that judge them. [`generate`] is the single-stream workload the
//! store-vs-simulator differential lowers to a trace; it is a pure
//! function of `(seed, op index)`, so both sides rebuild the identical
//! stream independently.

use std::collections::BTreeMap;

use picl_types::rng::Rng;

/// One logical KV operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// Insert or overwrite.
    Put(Vec<u8>, Vec<u8>),
    /// Remove if present.
    Delete(Vec<u8>),
    /// Lookup.
    Get(Vec<u8>),
}

/// The key a workload's `i`-th slot name maps to. Small keyspace on
/// purpose: overwrites and delete-then-reinsert are the interesting
/// undo-log cases.
fn key(idx: u64) -> Vec<u8> {
    format!("key-{idx:04}").into_bytes()
}

/// Generates `count` seeded operations over `key_space` distinct keys.
/// Mix: ~55% put, ~15% delete, ~30% get. Values encode `(seed, op index)`
/// so any torn or misplaced write is visible to the oracle. Values stay
/// within one slot's head capacity (the seed is folded to 24 bits) so
/// the store-vs-simulator differential sees exactly one dirty line per
/// op; spanning records are exercised by the serve-layer streams.
pub fn generate(seed: u64, count: u64, key_space: u64) -> Vec<Op> {
    assert!(key_space > 0, "need at least one key");
    let mut rng = Rng::new(seed ^ 0x9E37_79B9_7F4A_7C15);
    let mut ops = Vec::with_capacity(count as usize);
    for i in 0..count {
        let k = key(rng.below(key_space));
        let roll = rng.below(100);
        if roll < 55 {
            let v = format!("s{:06x}-i{i:06}", seed & 0xFF_FFFF).into_bytes();
            ops.push(Op::Put(k, v));
        } else if roll < 70 {
            ops.push(Op::Delete(k));
        } else {
            ops.push(Op::Get(k));
        }
    }
    ops
}

/// The in-memory reference state: what a correct KV holds after a prefix
/// of operations.
pub type Model = BTreeMap<Vec<u8>, Vec<u8>>;

/// Applies one operation to the model.
pub fn apply_to_model(model: &mut Model, op: &Op) {
    match op {
        Op::Put(k, v) => {
            model.insert(k.clone(), v.clone());
        }
        Op::Delete(k) => {
            model.remove(k);
        }
        Op::Get(_) => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = generate(7, 500, 32);
        let b = generate(7, 500, 32);
        assert_eq!(a, b);
        let c = generate(8, 500, 32);
        assert_ne!(a, c);
        assert_eq!(a.len(), 500);
    }

    #[test]
    fn mix_contains_all_op_kinds() {
        let ops = generate(1, 1000, 16);
        let puts = ops.iter().filter(|o| matches!(o, Op::Put(..))).count();
        let dels = ops.iter().filter(|o| matches!(o, Op::Delete(..))).count();
        let gets = ops.iter().filter(|o| matches!(o, Op::Get(..))).count();
        assert!(
            puts > 400 && dels > 50 && gets > 150,
            "{puts}/{dels}/{gets}"
        );
    }

    #[test]
    fn model_prefix_is_monotone_in_count() {
        // The first n ops never depend on how many were generated, so a
        // model replayed over a prefix is the model of that prefix.
        let full = generate(3, 200, 8);
        for n in [0, 50, 137, 200] {
            assert_eq!(generate(3, n, 8).as_slice(), &full[..n as usize]);
        }
    }
}
