//! Packed struct-of-arrays cache tables — the data-oriented hot path.
//!
//! [`SetAssocCache`](crate::set_assoc::SetAssocCache) keeps each line as an
//! `Option<Entry<T>>` (~48–56 bytes with the niche, the payload, and the
//! recency stamp interleaved), so a 4-way set probe walks four scattered
//! struct slots. [`PackedLineCache`] stores the same state as three
//! parallel flat `u64` arrays per slot — tag, packed metadata word, data
//! token — plus two words per set: the occupancy bitmap and the recency
//! order. A probe is then one bitmap word and up to `ways` adjacent tag
//! words, all in at most two cache lines, with no `Option` discriminants
//! and no payload bytes pulled in until the hit is known.
//!
//! # Recency order
//!
//! Nibble `p` of a set's order word holds the way at recency position
//! `p` (0 = most recent), so a set has at most [`MAX_WAYS`] ways. A touch
//! or an insert moves its way to position 0; the victim of a full set is
//! the way at position `ways - 1`. A removed way keeps its position until
//! an insert moves it to the front, so the resident ways are always in
//! order of last use.
//!
//! # Metadata word layout
//!
//! All per-line metadata the hierarchy needs packs into one `u64`:
//!
//! ```text
//!   bit 63      DIRTY    line differs from its canonical NVM copy
//!   bit 62      TAGGED   the EID field is meaningful (PiCL's per-line tag)
//!   bit 61      OWNED    LLC only: the slot is a directory pointer and the
//!                        field holds the owning core, not an EID
//!   bits 60..56 (zero)   reserved
//!   bits 55..0  FIELD    EID raw value (TAGGED) or owner core id (OWNED)
//! ```
//!
//! Invariant: when `TAGGED` (or `OWNED`) is clear the `FIELD` bits are
//! zero, so whole-word equality doubles as semantic equality and "did the
//! tag change?" is one XOR + mask.
//!
//! The table itself does not interpret the word beyond moving it around;
//! [`Hierarchy`](crate::hierarchy::Hierarchy) owns the encoding via
//! [`encode_line`]/[`decode_line`].

use picl_types::config::{MAX_WAYS, TOO_MANY_WAYS};
use picl_types::{EpochId, LineAddr};

use crate::line::CacheLineMeta;

/// Metadata word bit: the line is dirty.
pub const DIRTY: u64 = 1 << 63;
/// Metadata word bit: the `FIELD` bits carry an epoch-ID tag.
pub const TAGGED: u64 = 1 << 62;
/// Metadata word bit (LLC directory): the `FIELD` bits name the owning core.
pub const OWNED: u64 = 1 << 61;
/// Metadata word mask: the 56-bit EID / owner field.
pub const FIELD: u64 = (1 << 56) - 1;

/// Packs [`CacheLineMeta`] into a `(metadata word, value)` pair.
///
/// # Panics
///
/// Debug-asserts the EID fits the 56-bit field (at one epoch per
/// microsecond that is two millennia of simulated time).
#[inline]
pub fn encode_line(meta: &CacheLineMeta) -> (u64, u64) {
    let mut word = 0u64;
    if meta.dirty {
        word |= DIRTY;
    }
    if let Some(eid) = meta.eid {
        debug_assert!(eid.0 <= FIELD, "EID {} overflows the packed field", eid.0);
        word |= TAGGED | (eid.0 & FIELD);
    }
    (word, meta.value)
}

/// Unpacks a `(metadata word, value)` pair into [`CacheLineMeta`].
#[inline]
pub fn decode_line(word: u64, value: u64) -> CacheLineMeta {
    debug_assert_eq!(word & OWNED, 0, "directory word decoded as line metadata");
    CacheLineMeta {
        value,
        dirty: word & DIRTY != 0,
        eid: (word & TAGGED != 0).then_some(EpochId(word & FIELD)),
    }
}

/// A set-associative, LRU-replaced map from [`LineAddr`] to a packed
/// `(metadata word, value)` pair, stored struct-of-arrays.
///
/// Replacement semantics are identical to
/// [`SetAssocCache`](crate::set_assoc::SetAssocCache): recency moves only
/// on hits ([`touch`](Self::touch)) and inserts, and the victim of a full
/// set is its least recently used way, by use stamp there and by the
/// set's recency order here. The property test `packed_vs_struct` pins
/// the two structures victim-for-victim.
#[derive(Debug, Clone)]
pub struct PackedLineCache {
    /// Line address per slot; meaningful only where the occupancy bit is set.
    tags: Vec<u64>,
    /// Packed metadata word per slot (see module docs for the layout).
    words: Vec<u64>,
    /// Data token per slot.
    values: Vec<u64>,
    /// Per-set occupancy bitmap (bit `w` = slot `s*ways + w` occupied).
    occ: Vec<u64>,
    /// Per-set recency order: nibble `p` is the way at position `p`.
    order: Vec<u64>,
    sets: usize,
    ways: usize,
    len: usize,
}

impl PackedLineCache {
    /// Creates a table with `sets` sets of `ways` ways. Power-of-two set
    /// counts index by bit masking; other counts index by modulo.
    ///
    /// # Panics
    ///
    /// Panics if `sets` or `ways` is zero, or if `ways` exceeds
    /// [`MAX_WAYS`].
    pub fn new(sets: usize, ways: usize) -> Self {
        assert!(sets > 0, "sets must be nonzero");
        assert!(ways > 0, "ways must be nonzero");
        assert!(ways <= MAX_WAYS, "{TOO_MANY_WAYS}");
        let cap = sets * ways;
        PackedLineCache {
            tags: vec![0; cap],
            words: vec![0; cap],
            values: vec![0; cap],
            occ: vec![0; sets],
            order: vec![IDENTITY_ORDER; sets],
            sets,
            ways,
            len: 0,
        }
    }

    /// Associativity.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Total line capacity.
    pub fn capacity(&self) -> usize {
        self.sets * self.ways
    }

    /// Number of resident lines.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no lines are resident.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn set_index(&self, addr: LineAddr) -> usize {
        let n = self.sets;
        if n.is_power_of_two() {
            (addr.raw() as usize) & (n - 1)
        } else {
            (addr.raw() % n as u64) as usize
        }
    }

    /// Slot index of `addr`, if resident. No recency update — pair with
    /// [`touch`](Self::touch) on the hit path.
    #[inline]
    pub fn probe(&self, addr: LineAddr) -> Option<usize> {
        let si = self.set_index(addr);
        let base = si * self.ways;
        let raw = addr.raw();
        let mut occ = self.occ[si];
        while occ != 0 {
            let w = occ.trailing_zeros() as usize;
            occ &= occ - 1;
            if self.tags[base + w] == raw {
                return Some(base + w);
            }
        }
        None
    }

    /// Whether `addr` is resident (no recency update).
    pub fn contains(&self, addr: LineAddr) -> bool {
        self.probe(addr).is_some()
    }

    /// Marks `slot` most-recently used. Recency moves only here and on
    /// inserts: a missed probe must not age resident lines.
    #[inline]
    pub fn touch(&mut self, slot: usize) {
        let (si, w) = self.locate(slot);
        // Repeated hits to one line are common: nothing moves.
        if self.order[si] & 0xF != w as u64 {
            self.order[si] = to_front(self.order[si], w as u64);
        }
    }

    /// The set and way of `slot`.
    #[inline]
    fn locate(&self, slot: usize) -> (usize, usize) {
        let n = self.ways;
        if n.is_power_of_two() {
            (slot >> n.trailing_zeros(), slot & (n - 1))
        } else {
            (slot / n, slot % n)
        }
    }

    /// The metadata word in `slot`.
    #[inline]
    pub fn word(&self, slot: usize) -> u64 {
        self.words[slot]
    }

    /// The data token in `slot`.
    #[inline]
    pub fn value(&self, slot: usize) -> u64 {
        self.values[slot]
    }

    /// Overwrites the metadata word in `slot` (no recency update).
    #[inline]
    pub fn set_word(&mut self, slot: usize, word: u64) {
        self.words[slot] = word;
    }

    /// Overwrites both the metadata word and the value in `slot` (no
    /// recency update).
    #[inline]
    pub fn set_slot(&mut self, slot: usize, word: u64, value: u64) {
        self.words[slot] = word;
        self.values[slot] = value;
    }

    /// Inserts `addr` with `(word, value)`, making it most-recently used.
    #[inline]
    pub fn insert(&mut self, addr: LineAddr, word: u64, value: u64) -> PackedInsertion {
        if let Some(slot) = self.probe(addr) {
            self.touch(slot);
            let old = PackedInsertion::Replaced {
                word: self.words[slot],
                value: self.values[slot],
            };
            self.words[slot] = word;
            self.values[slot] = value;
            return old;
        }

        let si = self.set_index(addr);
        let base = si * self.ways;
        let free = !self.occ[si] & ((1 << self.ways) - 1);
        if free != 0 {
            let w = free.trailing_zeros() as usize;
            self.occ[si] |= 1 << w;
            self.len += 1;
            let slot = base + w;
            self.tags[slot] = addr.raw();
            self.words[slot] = word;
            self.values[slot] = value;
            self.touch(slot);
            return PackedInsertion::Fit;
        }

        // Set full: evict the way in the last recency position.
        let last = (self.order[si] >> (4 * (self.ways - 1))) & 0xF;
        let slot = base + last as usize;
        let victim = PackedInsertion::Evicted {
            addr: LineAddr::new(self.tags[slot]),
            word: self.words[slot],
            value: self.values[slot],
        };
        self.tags[slot] = addr.raw();
        self.words[slot] = word;
        self.values[slot] = value;
        self.touch(slot);
        victim
    }

    /// Removes `addr`, returning its `(word, value)` if it was resident.
    pub fn remove(&mut self, addr: LineAddr) -> Option<(u64, u64)> {
        let slot = self.probe(addr)?;
        Some(self.take_at(slot))
    }

    /// Removes the line in `slot` (which must be occupied), returning its
    /// `(word, value)`.
    #[inline]
    pub fn take_at(&mut self, slot: usize) -> (u64, u64) {
        let (si, w) = self.locate(slot);
        debug_assert!(self.occ[si] & (1 << w) != 0, "take_at on empty slot");
        self.occ[si] &= !(1 << w);
        self.len -= 1;
        (self.words[slot], self.values[slot])
    }

    /// Number of resident lines in the set that `addr` maps to.
    pub fn set_len(&self, addr: LineAddr) -> usize {
        self.occ[self.set_index(addr)].count_ones() as usize
    }

    /// Iterates over all resident `(addr, word, value)` triples in slot
    /// order (set-major — the deterministic scan order drains rely on).
    pub fn iter(&self) -> impl Iterator<Item = (LineAddr, u64, u64)> + '_ {
        (0..self.sets).flat_map(move |si| {
            let base = si * self.ways;
            let occ = self.occ[si];
            (0..self.ways)
                .filter(move |w| occ & (1 << w) != 0)
                .map(move |w| {
                    let slot = base + w;
                    (
                        LineAddr::new(self.tags[slot]),
                        self.words[slot],
                        self.values[slot],
                    )
                })
        })
    }

    /// Visits every resident line in slot order with mutable access to its
    /// metadata word and value.
    pub fn for_each_mut(&mut self, mut f: impl FnMut(LineAddr, &mut u64, &mut u64)) {
        for si in 0..self.sets {
            let base = si * self.ways;
            let mut occ = self.occ[si];
            while occ != 0 {
                let w = occ.trailing_zeros() as usize;
                occ &= occ - 1;
                let slot = base + w;
                f(
                    LineAddr::new(self.tags[slot]),
                    &mut self.words[slot],
                    &mut self.values[slot],
                );
            }
        }
    }

    /// Removes all entries.
    pub fn clear(&mut self) {
        for occ in &mut self.occ {
            *occ = 0;
        }
        self.len = 0;
    }
}

/// The starting order: way `p` at position `p`. Positions `ways` and up
/// hold values no way of the set has, so a search never stops there.
const IDENTITY_ORDER: u64 = 0xFEDC_BA98_7654_3210;

/// `order` with way `w` moved to position 0 and the ways in front of it
/// shifted back one position.
#[inline]
fn to_front(order: u64, w: u64) -> u64 {
    const ONES: u64 = 0x1111_1111_1111_1111;
    // The lowest zero nibble of `order ^ w` in every nibble is `w`'s
    // position (SWAR zero-nibble test; only the lowest flag is exact).
    let x = order ^ (w * ONES);
    let zero = x.wrapping_sub(ONES) & !x & (ONES << 3);
    let p = zero.trailing_zeros() / 4;
    // Nibbles 0..=p: wraps to all ones when p is 15.
    let upto = (16u64 << (4 * p)).wrapping_sub(1);
    (order & !upto) | ((order << 4) & upto) | w
}

/// Outcome of [`PackedLineCache::insert`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PackedInsertion {
    /// The line fit without displacing anything.
    Fit,
    /// The line was already resident; its old state is returned.
    Replaced {
        /// The displaced metadata word.
        word: u64,
        /// The displaced value.
        value: u64,
    },
    /// The set was full; the LRU victim is returned.
    Evicted {
        /// The victim's address.
        addr: LineAddr,
        /// The victim's metadata word.
        word: u64,
        /// The victim's value.
        value: u64,
    },
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn addr(i: u64) -> LineAddr {
        LineAddr::new(i)
    }

    #[test]
    fn encode_decode_roundtrip() {
        for meta in [
            CacheLineMeta::clean(7),
            CacheLineMeta::dirty(9, EpochId(0)),
            CacheLineMeta::dirty(u64::MAX, EpochId(FIELD)),
            CacheLineMeta {
                value: 3,
                dirty: false,
                eid: Some(EpochId(12)),
            },
        ] {
            let (w, v) = encode_line(&meta);
            assert_eq!(decode_line(w, v), meta);
        }
    }

    #[test]
    fn untagged_words_have_zero_field() {
        let (w, _) = encode_line(&CacheLineMeta::clean(5));
        assert_eq!(w & (TAGGED | FIELD), 0);
        let (w, _) = encode_line(&CacheLineMeta {
            value: 5,
            dirty: true,
            eid: None,
        });
        assert_eq!(w & (TAGGED | FIELD), 0);
        assert_eq!(w, DIRTY);
    }

    #[test]
    fn basic_insert_probe() {
        let mut c = PackedLineCache::new(4, 2);
        assert!(matches!(c.insert(addr(1), DIRTY, 10), PackedInsertion::Fit));
        let slot = c.probe(addr(1)).unwrap();
        assert_eq!(c.word(slot), DIRTY);
        assert_eq!(c.value(slot), 10);
        assert!(c.contains(addr(1)));
        assert!(!c.contains(addr(2)));
        assert_eq!(c.len(), 1);
        assert_eq!(c.capacity(), 8);
    }

    #[test]
    fn address_zero_is_a_real_line() {
        // Tag words for empty slots default to 0; the occupancy bitmap must
        // keep a probe for line 0 from matching them.
        let c = PackedLineCache::new(4, 2);
        assert!(!c.contains(addr(0)));
        let mut c = PackedLineCache::new(4, 2);
        c.insert(addr(0), 0, 42);
        assert_eq!(c.value(c.probe(addr(0)).unwrap()), 42);
        c.remove(addr(0)).unwrap();
        assert!(!c.contains(addr(0)), "removed line 0 still probes");
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = PackedLineCache::new(1, 2);
        c.insert(addr(0), 0, 100);
        c.insert(addr(1), 0, 101);
        let s = c.probe(addr(0)).unwrap();
        c.touch(s); // 1 becomes LRU
        match c.insert(addr(2), 0, 102) {
            PackedInsertion::Evicted { addr: a, value, .. } => {
                assert_eq!(a, addr(1));
                assert_eq!(value, 101);
            }
            other => panic!("expected eviction, got {other:?}"),
        }
        assert!(c.contains(addr(0)));
        assert!(c.contains(addr(2)));
    }

    #[test]
    fn probe_does_not_touch_lru() {
        let mut c = PackedLineCache::new(1, 2);
        c.insert(addr(0), 0, 0);
        c.insert(addr(1), 0, 1);
        c.probe(addr(0)); // no recency update: 0 stays LRU
        match c.insert(addr(2), 0, 2) {
            PackedInsertion::Evicted { addr: a, .. } => assert_eq!(a, addr(0)),
            other => panic!("expected eviction, got {other:?}"),
        }
    }

    #[test]
    fn replace_returns_old_state() {
        let mut c = PackedLineCache::new(2, 2);
        c.insert(addr(0), 1, 10);
        match c.insert(addr(0), 2, 20) {
            PackedInsertion::Replaced { word, value } => {
                assert_eq!(word, 1);
                assert_eq!(value, 10);
            }
            other => panic!("expected Replaced, got {other:?}"),
        }
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn full_set_reuses_freed_slots() {
        let mut c = PackedLineCache::new(1, 3);
        c.insert(addr(0), 0, 0);
        c.insert(addr(1), 0, 1);
        c.insert(addr(2), 0, 2);
        assert_eq!(c.set_len(addr(0)), 3);
        c.remove(addr(1));
        assert!(matches!(c.insert(addr(3), 0, 3), PackedInsertion::Fit));
        assert_eq!(c.len(), 3);
        let mut present: Vec<u64> = c.iter().map(|(a, _, _)| a.raw()).collect();
        present.sort_unstable();
        assert_eq!(present, vec![0, 2, 3]);
    }

    #[test]
    fn iter_and_for_each_mut_agree() {
        let mut c = PackedLineCache::new(4, 2);
        for i in 0..6 {
            c.insert(addr(i), i, i * 10);
        }
        let from_iter: Vec<_> = c.iter().collect();
        let mut from_visit = Vec::new();
        c.for_each_mut(|a, w, v| from_visit.push((a, *w, *v)));
        assert_eq!(from_iter, from_visit);
        c.for_each_mut(|_, w, _| *w |= DIRTY);
        assert!(c.iter().all(|(_, w, _)| w & DIRTY != 0));
    }

    #[test]
    fn clear_empties() {
        let mut c = PackedLineCache::new(2, 2);
        c.insert(addr(1), 0, 1);
        c.insert(addr(2), 0, 2);
        c.clear();
        assert!(c.is_empty());
        assert!(!c.contains(addr(1)));
        assert_eq!(c.iter().count(), 0);
    }

    #[test]
    fn non_power_of_two_sets_index_by_modulo() {
        let mut c = PackedLineCache::new(3, 1);
        c.insert(addr(0), 0, 0);
        c.insert(addr(1), 0, 1);
        c.insert(addr(2), 0, 2);
        assert_eq!(c.len(), 3);
        match c.insert(addr(3), 0, 3) {
            PackedInsertion::Evicted { addr: a, .. } => assert_eq!(a, addr(0)),
            other => panic!("expected eviction, got {other:?}"),
        }
    }
    #[test]
    #[should_panic(expected = "ways must be at most 16, the ways a set's recency order holds")]
    fn seventeen_ways_rejected() {
        PackedLineCache::new(1, 17);
    }

    #[derive(Debug, Clone)]
    enum Op {
        /// A probe that refreshes recency on a hit.
        Touch(u64),
        Insert(u64),
        Remove(u64),
    }

    /// One set's LRU kept the way the struct cache keeps it: a stamp per
    /// way from a clock that advances on touches and inserts.
    struct StampSet {
        ways: Vec<Option<(u64, u64)>>,
        clock: u64,
    }

    impl StampSet {
        fn find(&self, a: u64) -> Option<usize> {
            self.ways
                .iter()
                .position(|w| matches!(w, Some((x, _)) if *x == a))
        }

        fn stamp(&mut self, w: usize, a: u64) {
            self.clock += 1;
            self.ways[w] = Some((a, self.clock));
        }

        /// The evicted line, if the set was full.
        fn insert(&mut self, a: u64) -> Option<u64> {
            if let Some(w) = self.find(a) {
                self.stamp(w, a);
                return None;
            }
            if let Some(w) = self.ways.iter().position(Option::is_none) {
                self.stamp(w, a);
                return None;
            }
            let (w, victim) = (0..self.ways.len())
                .map(|w| (w, self.ways[w].unwrap()))
                .min_by_key(|&(_, (_, stamp))| stamp)
                .unwrap();
            self.stamp(w, a);
            Some(victim.0)
        }
    }

    fn ops() -> impl Strategy<Value = Vec<Op>> {
        let op = prop_oneof![
            (0u64..24).prop_map(Op::Touch),
            (0u64..24).prop_map(Op::Insert),
            (0u64..24).prop_map(Op::Remove),
        ];
        proptest::collection::vec(op, 1..300)
    }

    proptest! {
        #[test]
        fn recency_order_matches_stamps_at_every_width(ops in ops()) {
            for ways in 1..=MAX_WAYS {
                let mut packed = PackedLineCache::new(1, ways);
                let mut model = StampSet { ways: vec![None; ways], clock: 0 };
                for op in &ops {
                    match *op {
                        Op::Touch(a) => {
                            let slot = packed.probe(addr(a));
                            prop_assert_eq!(slot, model.find(a));
                            if let Some(slot) = slot {
                                packed.touch(slot);
                                model.stamp(slot, a);
                            }
                        }
                        Op::Insert(a) => {
                            let victim = match packed.insert(addr(a), 0, a) {
                                PackedInsertion::Evicted { addr, .. } => Some(addr.raw()),
                                _ => None,
                            };
                            prop_assert_eq!(victim, model.insert(a), "{} ways", ways);
                        }
                        Op::Remove(a) => {
                            let slot = model.find(a);
                            prop_assert_eq!(packed.remove(addr(a)).is_some(), slot.is_some());
                            if let Some(w) = slot {
                                model.ways[w] = None;
                            }
                        }
                    }
                }
            }
        }
    }
}
