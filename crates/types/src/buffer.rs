//! The on-chip undo buffer (§III-B, §IV-A).
//!
//! Undo entries produced by cache-driven logging collect in a small on-chip
//! SRAM buffer (32 entries ≙ 2 KB) so they can be written to NVM as one
//! sequential bulk write instead of 32 random writes. Entries of *mixed*
//! epochs co-mingle freely ("there is no need to have separate buffers").
//!
//! The buffer carries its bloom filter (see [`crate::bloom`]): evictions
//! probe it, and a hit forces a flush to preserve the undo-before-in-place
//! ordering.

use crate::bloom::BloomFilter;
use crate::undo::{UndoEntry, ENTRY_BYTES};
use crate::LineAddr;

/// The on-chip coalescing buffer for undo entries with pre-images of type
/// `V` (see [`UndoEntry`]).
#[derive(Debug, Clone)]
pub struct UndoBuffer<V = u64> {
    entries: Vec<UndoEntry<V>>,
    capacity: usize,
    bloom: BloomFilter,
}

impl<V> UndoBuffer<V> {
    /// Creates a buffer holding `capacity` entries guarded by `bloom`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize, bloom: BloomFilter) -> Self {
        assert!(capacity > 0, "capacity must be nonzero");
        UndoBuffer {
            entries: Vec::with_capacity(capacity),
            capacity,
            bloom,
        }
    }

    /// The paper's configuration: 32 entries, 4096-bit bloom filter.
    pub fn paper_default() -> Self {
        UndoBuffer::new(32, BloomFilter::paper_default())
    }

    /// Appends an entry. Returns `true` if the buffer is now full and must
    /// be flushed.
    ///
    /// # Panics
    ///
    /// Panics if called while already full (the owner must flush first).
    pub fn push(&mut self, entry: UndoEntry<V>) -> bool {
        assert!(self.entries.len() < self.capacity, "undo buffer overfilled");
        self.bloom.insert(entry.addr);
        self.entries.push(entry);
        self.entries.len() == self.capacity
    }

    /// Whether an eviction of `addr` requires a flush first: a bloom-filter
    /// probe, which may rarely report a false positive but never misses a
    /// buffered entry.
    pub fn eviction_conflicts(&self, addr: LineAddr) -> bool {
        !self.entries.is_empty() && self.bloom.maybe_contains(addr)
    }

    /// Exact membership check — hardware does not do this; tests use it to
    /// prove the bloom probe never produced a false negative.
    pub fn holds_entry_for(&self, addr: LineAddr) -> bool {
        self.entries.iter().any(|e| e.addr == addr)
    }

    /// Takes all buffered entries for a flush and clears the bloom filter.
    pub fn drain(&mut self) -> Vec<UndoEntry<V>> {
        self.bloom.clear();
        std::mem::take(&mut self.entries)
    }

    /// Number of buffered entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the buffer holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Entry capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Size of a full flush in bytes (what the bulk NVM write transfers).
    pub fn flush_bytes(&self) -> u64 {
        self.capacity as u64 * ENTRY_BYTES
    }

    /// Bytes a flush of the *current* contents would transfer.
    pub fn pending_bytes(&self) -> u64 {
        self.entries.len() as u64 * ENTRY_BYTES
    }

    /// Read-only view of the buffered entries.
    pub fn entries(&self) -> &[UndoEntry<V>] {
        &self.entries
    }
}

impl<V> Default for UndoBuffer<V> {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EpochId;

    fn entry(i: u64) -> UndoEntry {
        UndoEntry::new(LineAddr::new(i), i * 10, EpochId(1), EpochId(2))
    }

    #[test]
    fn fills_to_capacity() {
        let mut b = UndoBuffer::new(4, BloomFilter::new(128, 2));
        assert!(!b.push(entry(1)));
        assert!(!b.push(entry(2)));
        assert!(!b.push(entry(3)));
        assert!(b.push(entry(4)), "4th push should signal full");
        assert_eq!(b.len(), 4);
        assert_eq!(b.pending_bytes(), 4 * ENTRY_BYTES);
    }

    #[test]
    #[should_panic(expected = "overfilled")]
    fn push_past_capacity_panics() {
        let mut b = UndoBuffer::new(1, BloomFilter::new(128, 2));
        b.push(entry(1));
        b.push(entry(2));
    }

    #[test]
    fn eviction_conflict_detection() {
        let mut b = UndoBuffer::paper_default();
        b.push(entry(100));
        assert!(b.eviction_conflicts(LineAddr::new(100)));
        assert!(b.holds_entry_for(LineAddr::new(100)));
        // Empty buffer never conflicts, regardless of bloom state.
        b.drain();
        assert!(!b.eviction_conflicts(LineAddr::new(100)));
    }

    #[test]
    fn drain_clears_bloom() {
        let mut b = UndoBuffer::paper_default();
        b.push(entry(7));
        let drained = b.drain();
        assert_eq!(drained.len(), 1);
        assert!(b.is_empty());
        assert!(!b.eviction_conflicts(LineAddr::new(7)));
        // New entries are tracked afresh.
        b.push(entry(8));
        assert!(b.eviction_conflicts(LineAddr::new(8)));
    }

    #[test]
    fn paper_default_is_2kb() {
        let b: UndoBuffer = UndoBuffer::paper_default();
        assert_eq!(b.capacity(), 32);
        assert_eq!(b.flush_bytes(), 2048);
    }

    #[test]
    fn mixed_epoch_entries_comingle() {
        let mut b = UndoBuffer::paper_default();
        b.push(UndoEntry::new(LineAddr::new(1), 1, EpochId(1), EpochId(3)));
        b.push(UndoEntry::new(LineAddr::new(2), 2, EpochId(2), EpochId(3)));
        b.push(UndoEntry::new(LineAddr::new(3), 3, EpochId(3), EpochId(4)));
        assert_eq!(b.entries().len(), 3);
    }
}
