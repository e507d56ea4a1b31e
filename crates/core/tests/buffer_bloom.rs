//! Property tests for the undo-buffer / bloom-filter ordering guarantee
//! (§III-B): no in-place eviction may ever race a volatile undo entry.

use proptest::prelude::*;

use picl_types::BloomFilter;
use picl_types::UndoBuffer;
use picl_types::UndoEntry;
use picl_types::{EpochId, LineAddr};

#[derive(Debug, Clone)]
enum Action {
    /// Buffer an undo entry for this line.
    Log(u64),
    /// Evict this line (probe the filter; flush if it may conflict).
    Evict(u64),
}

fn action_strategy() -> impl Strategy<Value = Action> {
    prop_oneof![
        (0u64..5000).prop_map(Action::Log),
        (0u64..5000).prop_map(Action::Evict),
    ]
}

proptest! {
    /// The hardware protocol — probe on eviction, flush on a hit — never
    /// lets an eviction proceed while its undo entry is buffered, for any
    /// interleaving and any (power-of-two) filter size.
    #[test]
    fn eviction_never_races_buffered_entry(
        actions in proptest::collection::vec(action_strategy(), 1..300),
        bloom_bits_log2 in 6u32..13,
        capacity in 1usize..64,
    ) {
        let mut buffer = UndoBuffer::new(capacity, BloomFilter::new(1 << bloom_bits_log2, 2));
        let mut flushes = 0u64;
        for action in actions {
            match action {
                Action::Log(line) => {
                    let full = buffer.push(UndoEntry::new(
                        LineAddr::new(line),
                        line,
                        EpochId(1),
                        EpochId(2),
                    ));
                    if full {
                        buffer.drain();
                        flushes += 1;
                    }
                }
                Action::Evict(line) => {
                    if buffer.eviction_conflicts(LineAddr::new(line)) {
                        buffer.drain();
                        flushes += 1;
                    }
                    // The safety invariant: after the protocol, no
                    // volatile entry for this line remains.
                    prop_assert!(
                        !buffer.holds_entry_for(LineAddr::new(line)),
                        "eviction of line {} would race a buffered undo entry",
                        line
                    );
                }
            }
            prop_assert!(buffer.len() <= buffer.capacity());
        }
        let _ = flushes;
    }

    /// The filter is *useful*, not merely safe: with the paper's sizing,
    /// evictions of never-logged lines almost never force a flush.
    #[test]
    fn paper_sizing_rarely_false_positives(seed_lines in proptest::collection::vec(0u64..100_000, 32)) {
        let mut buffer = UndoBuffer::paper_default();
        for &line in &seed_lines {
            if buffer.len() < buffer.capacity() {
                buffer.push(UndoEntry::new(LineAddr::new(line), 0, EpochId(1), EpochId(2)));
            }
        }
        let mut false_hits = 0;
        let mut probes = 0;
        for candidate in 200_000u64..202_000 {
            if seed_lines.contains(&candidate) {
                continue;
            }
            probes += 1;
            if buffer.eviction_conflicts(LineAddr::new(candidate)) {
                false_hits += 1;
            }
        }
        // §III-B: "the false-positive rate is insignificant" at 4096 bits
        // vs 32 entries. Allow a generous margin over the analytic ~0.02 %.
        prop_assert!(
            f64::from(false_hits) / f64::from(probes) < 0.01,
            "{false_hits}/{probes} false positives"
        );
    }
}
