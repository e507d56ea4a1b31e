//! The set-associative LRU table: one structure for the hierarchy's
//! caches and the baselines' translation tables.
//!
//! The paper configures its caches (Table IV) and the redo baselines'
//! translation tables (§VI-A: 6144 entries, 16-way; ThyNVM's 2048 block
//! and 4096 page entries) as the same thing, a set-associative array
//! with LRU replacement. [`SetAssocCache<T>`] is that array, generic over
//! the payload: the hierarchy stores a [`Line`](crate::line::Line) per
//! slot, the baselines their address-mapping entries.
//!
//! # Storage
//!
//! Set `s` occupies slots `[s * ways, (s + 1) * ways)` of two flat
//! arrays, the line tags and the payloads, plus two words per set: the
//! occupancy bitmap and the recency order. A probe reads the bitmap and
//! up to `ways` adjacent tags and touches no payload until the hit is
//! known. An empty slot holds `T::default()`: the calls that empty a
//! slot ([`take_at`](SetAssocCache::take_at), what is built on it, and
//! [`clear`](SetAssocCache::clear)) move or drop the payload, so a
//! payload that owns memory comes back whole and an empty slot owns none.
//!
//! # Recency order
//!
//! Nibble `p` of a set's order word holds the way at recency position
//! `p` (0 = most recent), so a set has at most [`MAX_WAYS`] ways. Recency
//! moves only on hits ([`touch`](SetAssocCache::touch), or
//! [`get`](SetAssocCache::get)) and inserts, which move the way to
//! position 0; the victim of a full set is the way at position
//! `ways - 1`. A removed way keeps its position until an insert moves it
//! to the front, so the resident ways are always in order of last use.
//! Free ways fill lowest first.

use picl_types::config::{MAX_WAYS, TOO_MANY_WAYS};
use picl_types::LineAddr;

/// A set-associative, LRU-replaced map from [`LineAddr`] to `T`.
#[derive(Debug, Clone)]
pub struct SetAssocCache<T> {
    /// Line address per slot; meaningful only where the occupancy bit is set.
    tags: Vec<u64>,
    /// Payload per slot; `T::default()` in a slot that was emptied.
    payloads: Vec<T>,
    /// Per-set occupancy bitmap (bit `w` = slot `s*ways + w` occupied).
    occ: Vec<u64>,
    /// Per-set recency order: nibble `p` is the way at position `p`.
    order: Vec<u64>,
    sets: usize,
    ways: usize,
    len: usize,
}

impl<T: Default> SetAssocCache<T> {
    /// Creates a table with `sets` sets of `ways` ways. Power-of-two set
    /// counts index by bit masking (hardware caches); other counts (the
    /// baselines' 384-set translation tables) index by modulo.
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
        let mut payloads = Vec::with_capacity(cap);
        payloads.resize_with(cap, T::default);
        SetAssocCache {
            tags: vec![0; cap],
            payloads,
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

    /// Slot index of `addr`, if resident. No recency update — pair with
    /// [`touch`](Self::touch) on a hit.
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

    /// The payload in `slot` (no recency update).
    #[inline]
    pub fn at(&self, slot: usize) -> &T {
        &self.payloads[slot]
    }

    /// The payload in `slot`, mutably (no recency update).
    #[inline]
    pub fn at_mut(&mut self, slot: usize) -> &mut T {
        &mut self.payloads[slot]
    }

    /// Looks up `addr`, updating recency on a hit.
    pub fn get(&mut self, addr: LineAddr) -> Option<&mut T> {
        let slot = self.probe(addr)?;
        self.touch(slot);
        Some(&mut self.payloads[slot])
    }

    /// Looks up `addr` without updating recency.
    pub fn peek(&self, addr: LineAddr) -> Option<&T> {
        self.probe(addr).map(|slot| &self.payloads[slot])
    }

    /// Looks up `addr` mutably without updating recency.
    pub fn peek_mut(&mut self, addr: LineAddr) -> Option<&mut T> {
        let slot = self.probe(addr)?;
        Some(&mut self.payloads[slot])
    }

    /// Inserts `addr` with `payload`, making it most-recently used.
    ///
    /// If `addr` was already resident its payload is replaced and returned
    /// as `Replaced`. If the set was full, the LRU victim is evicted and
    /// returned as `Evicted`.
    #[inline]
    pub fn insert(&mut self, addr: LineAddr, payload: T) -> Insertion<T> {
        if let Some(slot) = self.probe(addr) {
            self.touch(slot);
            return Insertion::Replaced(std::mem::replace(&mut self.payloads[slot], payload));
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
            self.payloads[slot] = payload;
            self.touch(slot);
            return Insertion::Fit;
        }

        // Set full: evict the way in the last recency position.
        let last = (self.order[si] >> (4 * (self.ways - 1))) & 0xF;
        let slot = base + last as usize;
        let victim = LineAddr::new(std::mem::replace(&mut self.tags[slot], addr.raw()));
        let payload = std::mem::replace(&mut self.payloads[slot], payload);
        self.touch(slot);
        Insertion::Evicted(victim, payload)
    }

    /// Removes `addr`, returning its payload if it was resident.
    pub fn remove(&mut self, addr: LineAddr) -> Option<T> {
        let slot = self.probe(addr)?;
        Some(self.take_at(slot))
    }

    /// Removes the line in `slot` (which must be occupied), returning its
    /// payload.
    #[inline]
    pub fn take_at(&mut self, slot: usize) -> T {
        let (si, w) = self.locate(slot);
        debug_assert!(self.occ[si] & (1 << w) != 0, "take_at on empty slot");
        self.occ[si] &= !(1 << w);
        self.len -= 1;
        std::mem::take(&mut self.payloads[slot])
    }

    /// Removes every entry for which `pred` returns true, yielding them in
    /// slot order.
    pub fn drain_filter(
        &mut self,
        mut pred: impl FnMut(LineAddr, &T) -> bool,
    ) -> Vec<(LineAddr, T)> {
        let mut out = Vec::new();
        for si in 0..self.sets {
            let mut occ = self.occ[si];
            while occ != 0 {
                let slot = si * self.ways + occ.trailing_zeros() as usize;
                occ &= occ - 1;
                let addr = LineAddr::new(self.tags[slot]);
                if pred(addr, &self.payloads[slot]) {
                    out.push((addr, self.take_at(slot)));
                }
            }
        }
        out
    }

    /// Number of resident lines in the set that `addr` maps to.
    pub fn set_len(&self, addr: LineAddr) -> usize {
        self.occ[self.set_index(addr)].count_ones() as usize
    }

    /// Iterates over the `(addr, payload)` pairs in the set `addr` maps
    /// to, in way order.
    pub fn set_entries(&self, addr: LineAddr) -> impl Iterator<Item = (LineAddr, &T)> {
        let si = self.set_index(addr);
        let span = si * self.ways..(si + 1) * self.ways;
        resident(self.occ[si], &self.tags[span.clone()], &self.payloads[span])
    }

    /// Iterates over all resident `(addr, payload)` pairs in slot order
    /// (set-major — the deterministic scan order drains rely on).
    pub fn iter(&self) -> impl Iterator<Item = (LineAddr, &T)> {
        let chunks = self
            .tags
            .chunks(self.ways)
            .zip(self.payloads.chunks(self.ways));
        self.occ
            .iter()
            .zip(chunks)
            .flat_map(|(&occ, (tags, payloads))| resident(occ, tags, payloads))
    }

    /// Iterates mutably over all resident `(addr, payload)` pairs in slot
    /// order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (LineAddr, &mut T)> {
        let chunks = self
            .tags
            .chunks(self.ways)
            .zip(self.payloads.chunks_mut(self.ways));
        self.occ
            .iter()
            .zip(chunks)
            .flat_map(|(&occ, (tags, payloads))| resident(occ, tags, payloads))
    }

    /// Removes all entries, dropping their payloads.
    pub fn clear(&mut self) {
        self.payloads.fill_with(T::default);
        self.occ.fill(0);
        self.len = 0;
    }
}

/// The occupied ways of one set, in way order: `occ` is the set's
/// bitmap, `payloads` its slots (shared or mutable).
fn resident<'a, P: 'a>(
    occ: u64,
    tags: &'a [u64],
    payloads: impl IntoIterator<Item = P> + 'a,
) -> impl Iterator<Item = (LineAddr, P)> + 'a {
    tags.iter()
        .zip(payloads)
        .enumerate()
        .filter(move |&(w, _)| occ & (1 << w) != 0)
        .map(|(_, (&tag, p))| (LineAddr::new(tag), p))
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

/// Outcome of [`SetAssocCache::insert`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Insertion<T> {
    /// The line fit without displacing anything.
    Fit,
    /// The line was already resident; its old payload is returned.
    Replaced(T),
    /// The set was full; the LRU `(addr, payload)` was evicted.
    Evicted(LineAddr, T),
}

impl<T> Insertion<T> {
    /// The evicted victim, if any.
    pub fn into_victim(self) -> Option<(LineAddr, T)> {
        match self {
            Insertion::Evicted(a, p) => Some((a, p)),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::line::Line;
    use proptest::prelude::*;

    fn addr(i: u64) -> LineAddr {
        LineAddr::new(i)
    }

    #[test]
    fn basic_insert_get() {
        let mut c = SetAssocCache::new(4, 2);
        assert!(matches!(c.insert(addr(1), "a"), Insertion::Fit));
        assert_eq!(c.get(addr(1)), Some(&mut "a"));
        assert_eq!(c.peek(addr(1)), Some(&"a"));
        assert!(c.contains(addr(1)));
        assert!(!c.contains(addr(2)));
        assert_eq!(c.len(), 1);
        assert_eq!(c.capacity(), 8);
    }

    #[test]
    fn basic_insert_probe() {
        let mut c = SetAssocCache::new(4, 2);
        assert!(matches!(c.insert(addr(1), 10), Insertion::Fit));
        let slot = c.probe(addr(1)).unwrap();
        assert_eq!(c.at(slot), &10);
        *c.at_mut(slot) = 11;
        assert_eq!(c.peek(addr(1)), Some(&11));
        assert_eq!(c.take_at(slot), 11);
        assert_eq!(c.probe(addr(1)), None);
        assert!(c.is_empty());
    }

    #[test]
    fn address_zero_is_a_real_line() {
        // Tag words for empty slots default to 0; the occupancy bitmap must
        // keep a probe for line 0 from matching them.
        let c = SetAssocCache::<u64>::new(4, 2);
        assert!(!c.contains(addr(0)));
        let mut c = SetAssocCache::new(4, 2);
        c.insert(addr(0), 42);
        assert_eq!(c.at(c.probe(addr(0)).unwrap()), &42);
        c.remove(addr(0)).unwrap();
        assert!(!c.contains(addr(0)), "removed line 0 still probes");
    }

    #[test]
    fn replace_returns_old_payload() {
        let mut c = SetAssocCache::new(2, 2);
        c.insert(addr(0), 1);
        match c.insert(addr(0), 2) {
            Insertion::Replaced(old) => assert_eq!(old, 1),
            other => panic!("expected Replaced, got {other:?}"),
        }
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = SetAssocCache::new(1, 2);
        c.insert(addr(0), "zero");
        c.insert(addr(1), "one");
        // Touch 0 so 1 becomes LRU.
        c.get(addr(0));
        match c.insert(addr(2), "two") {
            Insertion::Evicted(a, p) => {
                assert_eq!(a, addr(1));
                assert_eq!(p, "one");
            }
            other => panic!("expected eviction, got {other:?}"),
        }
        assert!(c.contains(addr(0)));
        assert!(c.contains(addr(2)));
    }

    #[test]
    fn peek_does_not_touch_lru() {
        let mut c = SetAssocCache::new(1, 2);
        c.insert(addr(0), 0);
        c.insert(addr(1), 1);
        c.peek(addr(0)); // no recency update: 0 stays LRU
        let victim = c.insert(addr(2), 2).into_victim().unwrap();
        assert_eq!(victim.0, addr(0));
    }

    #[test]
    fn probe_does_not_touch_lru() {
        let mut c = SetAssocCache::new(1, 2);
        c.insert(addr(0), 0);
        c.insert(addr(1), 1);
        c.probe(addr(0)); // no recency update: 0 stays LRU
        let victim = c.insert(addr(2), 2).into_victim().unwrap();
        assert_eq!(victim.0, addr(0));
    }

    #[test]
    fn missed_get_does_not_touch_lru() {
        // Only hits and inserts age a set: after a storm of misses, the
        // LRU victim must be exactly the line that was least-recently
        // *hit*, as if the misses never happened.
        let mut c = SetAssocCache::new(1, 2);
        c.insert(addr(0), "zero");
        c.insert(addr(1), "one");
        c.get(addr(0)); // 1 is now LRU
        let order_before_storm = c.order.clone();
        for miss in 100..1100 {
            assert!(c.get(addr(miss)).is_none());
        }
        assert_eq!(
            c.order, order_before_storm,
            "misses must not move the recency order"
        );
        let victim = c.insert(addr(2), "two").into_victim().unwrap();
        assert_eq!(victim.0, addr(1), "miss storm changed the LRU victim");
    }

    #[test]
    fn addresses_map_to_distinct_sets() {
        let mut c = SetAssocCache::new(4, 1);
        for i in 0..4 {
            assert!(matches!(c.insert(addr(i), i), Insertion::Fit));
        }
        assert_eq!(c.len(), 4);
        // Line 4 conflicts with line 0 (same low bits).
        let victim = c.insert(addr(4), 4).into_victim().unwrap();
        assert_eq!(victim.0, addr(0));
    }

    #[test]
    fn remove_and_clear() {
        let mut c = SetAssocCache::new(2, 2);
        c.insert(addr(1), 1);
        c.insert(addr(2), 2);
        assert_eq!(c.remove(addr(1)), Some(1));
        assert_eq!(c.remove(addr(1)), None);
        c.clear();
        assert!(c.is_empty());
    }

    #[test]
    fn clear_empties() {
        let payload = std::rc::Rc::new(7);
        let mut c = SetAssocCache::new(2, 2);
        c.insert(addr(1), std::rc::Rc::clone(&payload));
        c.insert(addr(2), std::rc::Rc::clone(&payload));
        c.clear();
        assert!(c.is_empty());
        assert!(!c.contains(addr(1)));
        assert_eq!(c.iter().count(), 0);
        assert_eq!(
            std::rc::Rc::strong_count(&payload),
            1,
            "clear dropped no payload"
        );
    }

    #[test]
    fn taken_payloads_leave_no_copy_behind() {
        let payload = std::rc::Rc::new(7);
        let mut c = SetAssocCache::new(2, 2);
        for i in 0..4 {
            c.insert(addr(i), std::rc::Rc::clone(&payload));
        }
        let removed = c.remove(addr(0)).unwrap();
        let drained = c.drain_filter(|a, _| a.raw() % 2 == 1);
        assert_eq!(drained.len(), 2);
        assert_eq!(std::rc::Rc::strong_count(&payload), 5);
        drop((removed, drained));
        assert_eq!(std::rc::Rc::strong_count(&payload), 2, "one line left");
    }

    #[test]
    fn iter_and_drain_filter() {
        let mut c = SetAssocCache::new(4, 2);
        for i in 0..6 {
            c.insert(addr(i), i as i32);
        }
        assert_eq!(c.iter().count(), 6);
        let drained = c.drain_filter(|_, v| v % 2 == 0);
        assert_eq!(drained.len(), 3);
        assert_eq!(c.len(), 3);
        for (_, v) in c.iter() {
            assert!(v % 2 == 1);
        }
    }

    #[test]
    fn iter_mut_mutates_in_place() {
        let mut c = SetAssocCache::new(2, 2);
        c.insert(addr(0), 1);
        for (_, v) in c.iter_mut() {
            *v += 10;
        }
        assert_eq!(c.peek(addr(0)), Some(&11));
    }

    #[test]
    fn iter_and_iter_mut_agree() {
        let mut c = SetAssocCache::new(4, 2);
        for i in 0..6 {
            c.insert(addr(i), i * 10);
        }
        c.remove(addr(2));
        let from_iter: Vec<_> = c.iter().map(|(a, v)| (a, *v)).collect();
        let from_iter_mut: Vec<_> = c.iter_mut().map(|(a, v)| (a, *v)).collect();
        assert_eq!(from_iter, from_iter_mut);
        // Set-major slot order: set 0 holds lines 0 and 4, set 1 lines 1
        // and 5, set 3 line 3.
        let order: Vec<u64> = from_iter.iter().map(|(a, _)| a.raw()).collect();
        assert_eq!(order, vec![0, 4, 1, 5, 3]);
    }

    #[test]
    fn non_power_of_two_sets_index_by_modulo() {
        let mut c = SetAssocCache::new(3, 1);
        c.insert(addr(0), "a");
        c.insert(addr(1), "b");
        c.insert(addr(2), "c");
        assert_eq!(c.len(), 3);
        // Line 3 maps to set 0, evicting line 0.
        let victim = c.insert(addr(3), "d").into_victim().unwrap();
        assert_eq!(victim.0, addr(0));
    }

    #[test]
    #[should_panic(expected = "sets must be nonzero")]
    fn zero_sets_panics() {
        let _ = SetAssocCache::<()>::new(0, 1);
    }

    #[test]
    #[should_panic(expected = "ways must be at most 16, the ways a set's recency order holds")]
    fn seventeen_ways_rejected() {
        SetAssocCache::<()>::new(1, 17);
    }

    #[test]
    fn peek_mut_does_not_touch_lru() {
        let mut c = SetAssocCache::new(1, 2);
        c.insert(addr(0), 0);
        c.insert(addr(1), 1);
        *c.peek_mut(addr(0)).unwrap() = 99;
        let victim = c.insert(addr(2), 2).into_victim().unwrap();
        assert_eq!(victim, (addr(0), 99));
    }

    #[test]
    fn full_set_reuses_freed_slots() {
        let mut c = SetAssocCache::new(1, 3);
        c.insert(addr(0), 0);
        c.insert(addr(1), 1);
        c.insert(addr(2), 2);
        assert_eq!(c.set_len(addr(0)), 3);
        c.remove(addr(1));
        assert!(matches!(c.insert(addr(3), 3), Insertion::Fit));
        assert_eq!(c.len(), 3);
        let present: Vec<u64> = c.set_entries(addr(0)).map(|(a, _)| a.raw()).collect();
        assert_eq!(
            present,
            vec![0, 3, 2],
            "way order: the freed way 1 took line 3"
        );
    }

    // The hierarchy's use of the table: `Line` payloads reached through
    // `probe`/`at`/`touch` slots rather than the map-style calls.

    fn line(word: u64, value: u64) -> Line {
        Line { word, value }
    }

    #[test]
    fn line_slots_lru_eviction_order() {
        let mut c = SetAssocCache::new(1, 2);
        c.insert(addr(0), line(0, 100));
        c.insert(addr(1), line(0, 101));
        let s = c.probe(addr(0)).unwrap();
        c.touch(s); // 1 becomes LRU
        match c.insert(addr(2), line(0, 102)) {
            Insertion::Evicted(a, old) => {
                assert_eq!(a, addr(1));
                assert_eq!(old.value, 101);
            }
            other => panic!("expected eviction, got {other:?}"),
        }
        assert!(c.contains(addr(0)));
        assert!(c.contains(addr(2)));
    }

    #[test]
    fn line_slots_replace_returns_old_state() {
        let mut c = SetAssocCache::new(2, 2);
        c.insert(addr(0), line(1, 10));
        match c.insert(addr(0), line(2, 20)) {
            Insertion::Replaced(old) => assert_eq!(old, line(1, 10)),
            other => panic!("expected Replaced, got {other:?}"),
        }
        assert_eq!(c.len(), 1);
        assert_eq!(c.at(c.probe(addr(0)).unwrap()), &line(2, 20));
    }

    #[test]
    fn line_slots_full_set_reuses_freed_slots() {
        let mut c = SetAssocCache::new(1, 3);
        for i in 0..3 {
            c.insert(addr(i), line(0, i));
        }
        assert_eq!(c.set_len(addr(0)), 3);
        let freed = c.probe(addr(1)).unwrap();
        assert_eq!(c.take_at(freed), line(0, 1));
        assert!(matches!(c.insert(addr(3), line(0, 3)), Insertion::Fit));
        assert_eq!(c.probe(addr(3)), Some(freed), "line 3 took the freed slot");
        assert_eq!(c.len(), 3);
        let mut present: Vec<u64> = c.iter().map(|(a, _)| a.raw()).collect();
        present.sort_unstable();
        assert_eq!(present, vec![0, 2, 3]);
    }

    #[test]
    fn line_slots_non_power_of_two_sets_index_by_modulo() {
        let mut c = SetAssocCache::new(3, 1);
        for i in 0..3 {
            c.insert(addr(i), line(0, i));
        }
        assert_eq!(c.len(), 3);
        // Line 3 maps to set 0, evicting line 0.
        match c.insert(addr(3), line(0, 3)) {
            Insertion::Evicted(a, old) => {
                assert_eq!(a, addr(0));
                assert_eq!(old.value, 0);
            }
            other => panic!("expected eviction, got {other:?}"),
        }
    }

    #[derive(Debug, Clone)]
    enum Op {
        /// A probe that refreshes recency on a hit.
        Touch(u64),
        Insert(u64),
        Remove(u64),
    }

    /// One set's LRU kept by use stamps: a stamp per way from a clock
    /// that advances on touches and inserts, the victim the least stamp.
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
                let mut table = SetAssocCache::new(1, ways);
                let mut model = StampSet { ways: vec![None; ways], clock: 0 };
                for op in &ops {
                    match *op {
                        Op::Touch(a) => {
                            let slot = table.probe(addr(a));
                            prop_assert_eq!(slot, model.find(a));
                            if let Some(slot) = slot {
                                table.touch(slot);
                                model.stamp(slot, a);
                            }
                        }
                        Op::Insert(a) => {
                            let victim = table.insert(addr(a), a).into_victim().map(|(v, _)| v.raw());
                            prop_assert_eq!(victim, model.insert(a), "{} ways", ways);
                        }
                        Op::Remove(a) => {
                            let slot = model.find(a);
                            prop_assert_eq!(table.remove(addr(a)).is_some(), slot.is_some());
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
