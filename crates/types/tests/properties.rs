//! Property tests for the foundation types: EID tag reconstruction, RNG
//! bounds, Zipf domains, time conversion invariants, and the multi-undo
//! rollback.

use std::cell::Cell;
use std::collections::BTreeMap;

use proptest::prelude::*;

use picl_types::epoch::wraparound_safe;
use picl_types::rng::Zipf;
use picl_types::time::{ClockDomain, Picoseconds};
use picl_types::undo::{rollback, UndoEntry};
use picl_types::{EpochId, LineAddr, Rng};

/// A seeded multi-undo log in append order: up to 8 blocks of 1-4 entries
/// over 4 lines, each entry's value its position in the log, and each
/// block's max ValidTill at or above the previous block's (the entry that
/// reaches it sits anywhere in the block).
fn monotone_log(seed: u64) -> Vec<(EpochId, Vec<UndoEntry>)> {
    let mut rng = Rng::new(seed);
    let (mut max_till, mut value) = (1, 0);
    (0..rng.below(9))
        .map(|_| {
            max_till += rng.below(3);
            let mut block: Vec<UndoEntry> = (0..rng.range(1, 5))
                .map(|_| {
                    let till = rng.range(1, max_till + 1);
                    value += 1;
                    let addr = LineAddr::new(rng.below(4));
                    UndoEntry::new(addr, value, EpochId(rng.below(till)), EpochId(till))
                })
                .collect();
            let top = rng.below(block.len() as u64) as usize;
            block[top].valid_till = EpochId(max_till);
            (EpochId(max_till), block)
        })
        .collect()
}

proptest! {
    /// Any epoch within the tag window reconstructs exactly from its
    /// truncated tag plus a reference epoch at the window's head.
    #[test]
    fn tag_reconstruction_roundtrips(
        base in 0u64..1_000_000,
        offset_back in 0u64..15,
        bits in 4u32..=16,
    ) {
        let reference = EpochId(base + offset_back);
        let eid = EpochId(base);
        prop_assume!(wraparound_safe(eid, reference, bits));
        let tag = eid.tag(bits);
        prop_assert_eq!(tag.reconstruct(reference), eid);
    }

    /// `below` is always within bounds and `range` within its interval.
    #[test]
    fn rng_bounds(seed in any::<u64>(), bound in 1u64..u64::MAX, lo in 0u64..1000, width in 1u64..1000) {
        let mut rng = Rng::new(seed);
        prop_assert!(rng.below(bound) < bound);
        let v = rng.range(lo, lo + width);
        prop_assert!(v >= lo && v < lo + width);
        let u = rng.unit_f64();
        prop_assert!((0.0..1.0).contains(&u));
    }

    /// Identical seeds yield identical streams; forks differ from parents.
    #[test]
    fn rng_determinism(seed in any::<u64>()) {
        let mut a = Rng::new(seed);
        let mut b = Rng::new(seed);
        for _ in 0..32 {
            prop_assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut child = a.fork();
        // A fork almost surely diverges from the parent's next output.
        let parent_next = a.next_u64();
        let child_next = child.next_u64();
        prop_assert!(parent_next != child_next || seed == 0);
    }

    /// Zipf samples stay within the population for any skew.
    #[test]
    fn zipf_domain(n in 1u64..100_000, theta in 0.0f64..0.999, seed in any::<u64>()) {
        let z = Zipf::new(n, theta);
        let mut rng = Rng::new(seed);
        for _ in 0..64 {
            prop_assert!(z.sample(&mut rng) < n);
        }
    }

    /// Cycle conversion is monotone in duration and never truncates a
    /// nonzero duration to zero cycles.
    #[test]
    fn clock_conversion_monotone(mhz in 1u64..5000, a in 0u64..10_000_000, b in 0u64..10_000_000) {
        let clk = ClockDomain::from_mhz(mhz);
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let ca = clk.cycles(Picoseconds(lo));
        let cb = clk.cycles(Picoseconds(hi));
        prop_assert!(ca <= cb);
        if lo > 0 {
            prop_assert!(ca.raw() > 0, "nonzero duration truncated to zero cycles");
        }
    }

    /// The rollback leaves each line at its oldest covering entry (the
    /// brute-force answer over the whole log), and its scan stops at the
    /// first dead block: it yields exactly the live blocks newest first
    /// and pulls no block past the stop.
    #[test]
    fn rollback_applies_the_oldest_covering_entry(seed in any::<u64>(), persisted in 0u64..16) {
        let log = monotone_log(seed);
        let p = EpochId(persisted);
        let mut want = BTreeMap::new();
        for e in log.iter().flat_map(|(_, block)| block).filter(|e| e.covers(p)) {
            want.entry(e.addr).or_insert(e.value);
        }
        let pulled = Cell::new(0);
        let newest_first = log.iter().rev().map(|(max_till, block)| {
            pulled.set(pulled.get() + 1);
            (*max_till, block)
        });
        let (mut got, mut scanned) = (BTreeMap::new(), 0);
        for (_, patches) in rollback(newest_first, p) {
            scanned += 1;
            for e in patches {
                got.insert(e.addr, e.value);
            }
        }
        prop_assert_eq!(got, want);
        let live = log.iter().rev().take_while(|(max_till, _)| *max_till > p).count();
        prop_assert_eq!(scanned, live);
        prop_assert!(pulled.get() <= live + 1, "pulled {} blocks past the stop", pulled.get() - live - 1);
    }
}
