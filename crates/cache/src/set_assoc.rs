//! A set-associative cache array with LRU replacement.
//!
//! Generic over the per-line payload so the same structure backs private
//! caches (payload [`CacheLineMeta`](crate::line::CacheLineMeta)), the LLC
//! (a directory-augmented payload), and the baselines' translation tables
//! (address-mapping payloads) — the paper configures all of these as
//! set-associative arrays.
//!
//! Storage is one contiguous arena of `sets × ways` slots with a fixed
//! stride per set and a per-set occupancy bitmap, so a lookup touches one
//! cache-resident word plus at most `ways` adjacent entries — no per-set
//! allocations, no pointer chasing on the hit path.

use picl_types::LineAddr;

#[derive(Debug, Clone)]
struct Entry<T> {
    addr: LineAddr,
    payload: T,
    last_use: u64,
}

/// A set-associative, LRU-replaced map from [`LineAddr`] to `T`.
#[derive(Debug, Clone)]
pub struct SetAssocCache<T> {
    /// Contiguous slot arena; set `s` occupies `[s*ways, (s+1)*ways)`.
    slots: Vec<Option<Entry<T>>>,
    /// Per-set occupancy bitmap (bit `w` = slot `s*ways + w` occupied).
    occ: Vec<u64>,
    sets: usize,
    ways: usize,
    len: usize,
    use_clock: u64,
}

impl<T> SetAssocCache<T> {
    /// Creates a cache with `sets` sets of `ways` ways. Power-of-two set
    /// counts index by bit masking (hardware caches); other counts (the
    /// baselines' 384-set translation tables) index by modulo.
    ///
    /// # Panics
    ///
    /// Panics if `sets` or `ways` is zero, or if `ways` exceeds 64 (the
    /// occupancy word width).
    pub fn new(sets: usize, ways: usize) -> Self {
        assert!(sets > 0, "sets must be nonzero");
        assert!(ways > 0, "ways must be nonzero");
        assert!(ways <= 64, "ways must fit the occupancy word");
        let mut slots = Vec::new();
        slots.resize_with(sets * ways, || None);
        SetAssocCache {
            slots,
            occ: vec![0; sets],
            sets,
            ways,
            len: 0,
            use_clock: 0,
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

    fn set_index(&self, addr: LineAddr) -> usize {
        let n = self.sets;
        if n.is_power_of_two() {
            (addr.raw() as usize) & (n - 1)
        } else {
            (addr.raw() % n as u64) as usize
        }
    }

    /// Slot index of `addr` within its set's stride, if resident.
    fn find(&self, addr: LineAddr) -> Option<usize> {
        let si = self.set_index(addr);
        let base = si * self.ways;
        let mut occ = self.occ[si];
        while occ != 0 {
            let w = occ.trailing_zeros() as usize;
            occ &= occ - 1;
            let slot = base + w;
            if self.slots[slot]
                .as_ref()
                .expect("occupancy bit set for empty slot")
                .addr
                == addr
            {
                return Some(slot);
            }
        }
        None
    }

    /// Whether `addr` is resident (no LRU update).
    pub fn contains(&self, addr: LineAddr) -> bool {
        self.find(addr).is_some()
    }

    /// Looks up `addr`, updating recency. Returns the payload if resident.
    pub fn get(&mut self, addr: LineAddr) -> Option<&mut T> {
        let slot = self.find(addr)?;
        // The recency clock only advances on hits (and inserts): a miss
        // must not age the resident lines it never touched.
        self.use_clock += 1;
        let e = self.slots[slot].as_mut().expect("found slot is occupied");
        e.last_use = self.use_clock;
        Some(&mut e.payload)
    }

    /// Looks up `addr` without updating recency.
    pub fn peek(&self, addr: LineAddr) -> Option<&T> {
        let slot = self.find(addr)?;
        Some(&self.slots[slot].as_ref().expect("occupied").payload)
    }

    /// Looks up `addr` mutably without updating recency.
    pub fn peek_mut(&mut self, addr: LineAddr) -> Option<&mut T> {
        let slot = self.find(addr)?;
        Some(&mut self.slots[slot].as_mut().expect("occupied").payload)
    }

    /// Inserts `addr` with `payload`, making it most-recently used.
    ///
    /// If `addr` was already resident its payload is replaced and returned
    /// as `Replaced`. If the set was full, the LRU victim is evicted and
    /// returned as `Evicted`.
    pub fn insert(&mut self, addr: LineAddr, payload: T) -> Insertion<T> {
        self.use_clock += 1;
        let clock = self.use_clock;

        if let Some(slot) = self.find(addr) {
            let e = self.slots[slot].as_mut().expect("occupied");
            e.last_use = clock;
            let old = std::mem::replace(&mut e.payload, payload);
            return Insertion::Replaced(old);
        }

        let si = self.set_index(addr);
        let base = si * self.ways;
        let free = !self.occ[si] & Self::way_mask(self.ways);
        if free != 0 {
            let w = free.trailing_zeros() as usize;
            self.occ[si] |= 1 << w;
            self.len += 1;
            self.slots[base + w] = Some(Entry {
                addr,
                payload,
                last_use: clock,
            });
            return Insertion::Fit;
        }

        // Set full: evict the LRU way (use-clock values are unique, so the
        // minimum is unambiguous).
        let mut victim_w = 0;
        let mut victim_use = u64::MAX;
        for w in 0..self.ways {
            let lu = self.slots[base + w].as_ref().expect("full set").last_use;
            if lu < victim_use {
                victim_use = lu;
                victim_w = w;
            }
        }
        let victim = self.slots[base + victim_w]
            .replace(Entry {
                addr,
                payload,
                last_use: clock,
            })
            .expect("full set");
        Insertion::Evicted(victim.addr, victim.payload)
    }

    /// Removes `addr`, returning its payload if it was resident.
    pub fn remove(&mut self, addr: LineAddr) -> Option<T> {
        let slot = self.find(addr)?;
        let si = slot / self.ways;
        let w = slot % self.ways;
        self.occ[si] &= !(1 << w);
        self.len -= 1;
        Some(self.slots[slot].take().expect("occupied").payload)
    }

    fn way_mask(ways: usize) -> u64 {
        if ways == 64 {
            u64::MAX
        } else {
            (1u64 << ways) - 1
        }
    }

    /// Iterates over all resident `(addr, payload)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (LineAddr, &T)> {
        self.slots
            .iter()
            .filter_map(|s| s.as_ref().map(|e| (e.addr, &e.payload)))
    }

    /// Iterates mutably over all resident `(addr, payload)` pairs.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (LineAddr, &mut T)> {
        self.slots
            .iter_mut()
            .filter_map(|s| s.as_mut().map(|e| (e.addr, &mut e.payload)))
    }

    /// Removes every entry for which `pred` returns true, yielding them.
    pub fn drain_filter(
        &mut self,
        mut pred: impl FnMut(LineAddr, &T) -> bool,
    ) -> Vec<(LineAddr, T)> {
        let mut out = Vec::new();
        for slot in 0..self.slots.len() {
            let matched = match &self.slots[slot] {
                Some(e) => pred(e.addr, &e.payload),
                None => false,
            };
            if matched {
                let e = self.slots[slot].take().expect("checked occupied");
                let si = slot / self.ways;
                self.occ[si] &= !(1 << (slot % self.ways));
                self.len -= 1;
                out.push((e.addr, e.payload));
            }
        }
        out
    }

    /// Number of resident lines in the set that `addr` maps to.
    pub fn set_len(&self, addr: LineAddr) -> usize {
        self.occ[self.set_index(addr)].count_ones() as usize
    }

    /// Iterates over the `(addr, payload)` pairs in the set `addr` maps to.
    pub fn set_entries(&self, addr: LineAddr) -> impl Iterator<Item = (LineAddr, &T)> {
        let si = self.set_index(addr);
        self.slots[si * self.ways..(si + 1) * self.ways]
            .iter()
            .filter_map(|s| s.as_ref().map(|e| (e.addr, &e.payload)))
    }

    /// Removes all entries.
    pub fn clear(&mut self) {
        for slot in &mut self.slots {
            *slot = None;
        }
        for occ in &mut self.occ {
            *occ = 0;
        }
        self.len = 0;
    }
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
        // 1 set, 2 ways: lines 0, 4, 8 all map to set 0 (4 sets? no: 1 set).
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
    fn missed_get_does_not_touch_lru() {
        // Regression: `get` used to advance the use clock on misses. The
        // clock bump itself never reordered residents, but the contract is
        // that only hits and inserts age the set — pin it: after a storm
        // of misses, the LRU victim must be exactly the line that was
        // least-recently *hit*, as if the misses never happened.
        let mut c = SetAssocCache::new(1, 2);
        c.insert(addr(0), "zero");
        c.insert(addr(1), "one");
        c.get(addr(0)); // 1 is now LRU
        let clock_before_storm = c.use_clock;
        for miss in 100..1100 {
            assert!(c.get(addr(miss)).is_none());
        }
        assert_eq!(
            c.use_clock, clock_before_storm,
            "misses must not advance the recency clock"
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
        let present: Vec<u64> = {
            let mut v: Vec<u64> = c.set_entries(addr(0)).map(|(a, _)| a.raw()).collect();
            v.sort_unstable();
            v
        };
        assert_eq!(present, vec![0, 2, 3]);
    }
}
