//! The multicore L1/L2/LLC cache hierarchy.
//!
//! Geometry and latencies come from Table IV. Private L1 and L2 are
//! *exclusive* of each other (a line lives in exactly one of them), which
//! keeps a single authoritative copy of every line's metadata; the shared
//! LLC is *inclusive* of all private caches via directory slots. Each LLC
//! slot is either the line itself (data + metadata) or a directory pointer
//! naming the one core whose private caches hold it (single-owner
//! coherence; a second core's access recalls it, and an LLC eviction
//! back-invalidates it).
//!
//! All three levels are [`PackedLineCache`] tables: per-line state packs
//! into one metadata `u64` (dirty bit, PiCL's optional EID tag, and — for
//! LLC directory slots — the owner core; see [`crate::packed`] for the bit
//! layout), so the hot access path is a handful of contiguous word loads
//! instead of struct walks.
//!
//! Consistency-scheme hooks fire exactly where the paper's Figs. 7 and 8
//! put them: on every store (with pre-store metadata, wherever the line is
//! held) and on every dirty line leaving the LLC toward memory.
//!
//! # The epoch index
//!
//! The ACS pass ([`Hierarchy::take_lines_with_eid`]) and the baselines'
//! synchronous flushes ([`Hierarchy::take_dirty_lines`]) used to walk every
//! slot of every cache — O(capacity) per epoch regardless of how much work
//! an epoch actually dirtied. The hierarchy maintains a side-index of
//! *candidate* dirty lines, bucketed by EID tag, plus O(1) dirty counters:
//!
//! * every store that dirties a clean line, or moves a line to a new EID
//!   tag, appends the address to the bucket for its (new) tag;
//! * bucket entries are never eagerly removed — a drained, evicted, or
//!   re-tagged line simply leaves a *stale* candidate behind;
//! * at drain time each candidate is located through the inclusive LLC
//!   directory (O(1): its slot either holds the data or names the one
//!   owning core) and taken only if its authoritative metadata still
//!   matches the filter.
//!
//! The invariant that makes the fast path exact: **every dirty line tagged
//! `e` is a candidate in bucket `e`, and every untagged dirty line is a
//! candidate in the untagged bucket** — stale candidates are filtered, but
//! no dirty line can hide outside its bucket. Drains emit lines sorted by
//! address, so the NVM write order (and therefore every downstream timing)
//! is identical between the fast path and the full-scan reference path
//! ([`Hierarchy::set_reference_scan`]); [`Hierarchy::drain_work`] tells
//! which path served the drains.

use picl_nvm::{AccessClass, Nvm};
use picl_telemetry::{EventKind, Telemetry};
use picl_types::hash::FastMap;
use picl_types::{config::SystemConfig, stats::Counter, CoreId, Cycle, EpochId, LineAddr};

use crate::line::{CacheLineMeta, FlushLine};
use crate::packed::{decode_line, PackedInsertion, PackedLineCache, DIRTY, FIELD, OWNED, TAGGED};
use crate::scheme::{ConsistencyScheme, EvictRoute, EvictionEvent, StoreEvent};

/// Which level serviced an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HitLevel {
    /// Private L1 hit.
    L1,
    /// Private L2 hit.
    L2,
    /// Shared LLC hit (including a recall from another core).
    Llc,
    /// LLC miss serviced by main memory.
    Memory,
}

/// Result of one hierarchy access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessResult {
    /// Cycle at which the requested data is available to the core.
    pub data_ready: Cycle,
    /// Level that serviced the access.
    pub level: HitLevel,
}

/// Load or store, as presented to the hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessType {
    /// A load of the line's current value.
    Load,
    /// A store installing a new value token.
    Store {
        /// The token the store writes.
        new_value: u64,
    },
}

/// Hit/miss/traffic counters for the hierarchy.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HierarchyStats {
    /// L1 hits.
    pub l1_hits: Counter,
    /// L2 hits.
    pub l2_hits: Counter,
    /// LLC hits (including recalls).
    pub llc_hits: Counter,
    /// Accesses serviced by memory.
    pub memory_accesses: Counter,
    /// Dirty lines evicted from the LLC.
    pub dirty_evictions: Counter,
    /// Clean lines evicted from the LLC.
    pub clean_evictions: Counter,
    /// Lines recalled from another core's private caches.
    pub recalls: Counter,
    /// Private copies invalidated because their LLC slot was evicted.
    pub back_invalidations: Counter,
    /// Stores observed.
    pub stores: Counter,
    /// Loads observed.
    pub loads: Counter,
}

/// Drains served, and the lines their full scans examined. Kept apart
/// from [`HierarchyStats`], which must not differ between the two paths.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DrainWork {
    /// Calls to the `take_*` drains, whichever path served them.
    pub drains: u64,
    /// Resident lines the reference path's full scans examined.
    pub scanned_lines: u64,
}

/// The three-level hierarchy shared by all cores.
#[derive(Debug)]
pub struct Hierarchy {
    l1: Vec<PackedLineCache>,
    l2: Vec<PackedLineCache>,
    llc: PackedLineCache,
    l1_lat: Cycle,
    l2_lat: Cycle,
    llc_lat: Cycle,
    stats: HierarchyStats,
    telemetry: Telemetry,
    /// Candidate dirty lines per EID tag (lazily invalidated; see module
    /// docs for the invariant).
    epoch_index: FastMap<EpochId, Vec<LineAddr>>,
    /// Candidate dirty lines with no EID tag.
    untagged_dirty: Vec<LineAddr>,
    /// Exact count of dirty lines anywhere in the hierarchy.
    dirty_total: usize,
    /// Exact count of dirty lines carrying an EID tag.
    dirty_tagged: usize,
    /// When set, drains and counts use brute-force full scans (the
    /// pre-index behavior) instead of the epoch index.
    reference_scan: bool,
    drain_work: DrainWork,
}

/// LLC directory word naming `core` as the line's owner.
#[inline]
fn owned_word(core: usize) -> u64 {
    OWNED | core as u64
}

impl Hierarchy {
    /// Builds the hierarchy for a system configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid; validate it first with
    /// [`SystemConfig::validate`].
    pub fn new(cfg: &SystemConfig) -> Self {
        cfg.validate().expect("valid system configuration");
        let llc_cfg = cfg.llc_total();
        Hierarchy {
            l1: (0..cfg.cores)
                .map(|_| PackedLineCache::new(cfg.l1.sets(), cfg.l1.ways))
                .collect(),
            l2: (0..cfg.cores)
                .map(|_| PackedLineCache::new(cfg.l2.sets(), cfg.l2.ways))
                .collect(),
            llc: PackedLineCache::new(llc_cfg.sets(), llc_cfg.ways),
            l1_lat: cfg.l1.latency,
            l2_lat: cfg.l2.latency,
            llc_lat: cfg.llc_per_core.latency,
            stats: HierarchyStats::default(),
            telemetry: Telemetry::off(),
            epoch_index: FastMap::default(),
            untagged_dirty: Vec::new(),
            dirty_total: 0,
            dirty_tagged: 0,
            reference_scan: false,
            drain_work: DrainWork::default(),
        }
    }

    /// Routes hierarchy events (dirty write-backs) to `telemetry`.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// Switches drains and dirty counts to brute-force full scans — the
    /// differential reference for validating the epoch index. The index
    /// and counters are still maintained, so a reference hierarchy stays
    /// cheap to flip back.
    pub fn set_reference_scan(&mut self, reference: bool) {
        self.reference_scan = reference;
    }

    /// Drains served so far, and the lines their full scans examined.
    pub fn drain_work(&self) -> DrainWork {
        self.drain_work
    }

    /// Number of cores.
    pub fn cores(&self) -> usize {
        self.l1.len()
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &HierarchyStats {
        &self.stats
    }

    /// Performs one access for `core`; the scheme observes stores and
    /// evictions and may absorb or augment memory traffic.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn access(
        &mut self,
        core: CoreId,
        addr: LineAddr,
        access: AccessType,
        scheme: &mut dyn ConsistencyScheme,
        mem: &mut Nvm,
        now: Cycle,
    ) -> AccessResult {
        let c = core.index();
        assert!(c < self.l1.len(), "core {core} out of range");
        match access {
            AccessType::Load => self.stats.loads.incr(),
            AccessType::Store { .. } => self.stats.stores.incr(),
        }

        // L1 hit: the fast path — one probe, one recency stamp, and (for
        // stores) the metadata word updated in place.
        if let Some(slot) = self.l1[c].probe(addr) {
            self.stats.l1_hits.incr();
            self.l1[c].touch(slot);
            if let AccessType::Store { new_value } = access {
                let word = self.l1[c].word(slot);
                let value = self.l1[c].value(slot);
                let (word, value) =
                    self.apply_store(addr, word, value, new_value, scheme, mem, now);
                self.l1[c].set_slot(slot, word, value);
            }
            return AccessResult {
                data_ready: now + self.l1_lat,
                level: HitLevel::L1,
            };
        }

        // L2 hit: move the line up (exclusive L1/L2).
        let (word, value, level, data_ready) = if let Some(slot) = self.l2[c].probe(addr) {
            self.stats.l2_hits.incr();
            let (word, value) = self.l2[c].take_at(slot);
            (word, value, HitLevel::L2, now + self.l2_lat)
        } else if let Some(slot) = self.llc.probe(addr) {
            self.stats.llc_hits.incr();
            self.llc.touch(slot);
            let lword = self.llc.word(slot);
            if lword & OWNED != 0 {
                let owner = (lword & FIELD) as usize;
                assert!(
                    owner != c,
                    "line owned by {core} but missing from its private caches"
                );
                // Another core holds it: recall through the LLC.
                self.stats.recalls.incr();
                let (word, value) = self.recall_private(owner, addr);
                self.llc.set_word(slot, owned_word(c));
                (word, value, HitLevel::Llc, now + self.llc_lat)
            } else {
                let value = self.llc.value(slot);
                self.llc.set_word(slot, owned_word(c));
                (lword, value, HitLevel::Llc, now + self.llc_lat)
            }
        } else {
            // Miss: fetch from the scheme (redo forwarding) or NVM.
            self.stats.memory_accesses.incr();
            let (value, ready) = match scheme.forward_read(addr, mem, now) {
                Some(hit) => hit,
                None => mem.read(now, addr, AccessClass::DemandRead),
            };
            if let PackedInsertion::Evicted {
                addr: vaddr,
                word: vword,
                value: vvalue,
            } = self.llc.insert(addr, owned_word(c), 0)
            {
                self.dispose_llc_victim(vaddr, vword, vvalue, scheme, mem, now);
            }
            // A line filled from memory is clean and untagged: word 0.
            (0, value, HitLevel::Memory, ready)
        };

        let (word, value) = match access {
            AccessType::Store { new_value } => {
                self.apply_store(addr, word, value, new_value, scheme, mem, now)
            }
            AccessType::Load => (word, value),
        };
        self.fill_l1(c, addr, word, value);

        AccessResult { data_ready, level }
    }

    /// Applies a store to a line's packed state, firing the scheme hook
    /// with the pre-store metadata (Figs. 7/8 transitions) and keeping the
    /// epoch index coherent. Returns the post-store `(word, value)`.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    fn apply_store(
        &mut self,
        addr: LineAddr,
        word: u64,
        value: u64,
        new_value: u64,
        scheme: &mut dyn ConsistencyScheme,
        mem: &mut Nvm,
        now: Cycle,
    ) -> (u64, u64) {
        let was_dirty = word & DIRTY != 0;
        let was_tagged = word & TAGGED != 0;
        let ev = StoreEvent {
            addr,
            old_value: value,
            old_eid: if was_tagged {
                Some(EpochId(word & FIELD))
            } else {
                None
            },
            was_dirty,
        };
        let directive = scheme.on_store(&ev, mem, now);
        // No directive: the line keeps its old tag (or stays untagged).
        let new_word = match directive.new_eid {
            Some(eid) => {
                debug_assert!(eid.0 <= FIELD, "EID overflows the packed field");
                DIRTY | TAGGED | eid.0
            }
            None => DIRTY | (word & (TAGGED | FIELD)),
        };

        if !was_dirty {
            self.dirty_total += 1;
        }
        let now_tagged = new_word & TAGGED != 0;
        if now_tagged && !(was_dirty && was_tagged) {
            self.dirty_tagged += 1;
        }
        // A line enters a bucket when it turns dirty or changes tag; a
        // dirty line keeping its tag is already a candidate there. Untagged
        // words keep zero FIELD bits, so the XOR compares tags exactly.
        if !was_dirty || (new_word ^ word) & (TAGGED | FIELD) != 0 {
            if now_tagged {
                self.epoch_index
                    .entry(EpochId(new_word & FIELD))
                    .or_default()
                    .push(addr);
            } else {
                self.push_untagged(addr);
            }
        }
        (new_word, new_value)
    }

    /// Appends an untagged dirty candidate, compacting the bucket when
    /// stale entries dominate (schemes that never flush — Ideal — would
    /// otherwise grow it with one stale entry per re-dirtied eviction).
    fn push_untagged(&mut self, addr: LineAddr) {
        // Compact BEFORE pushing: during `apply_store` the stored line's
        // state is a detached copy not yet written back to the arrays, so a
        // post-push compaction would see it clean and drop it.
        if self.untagged_dirty.len() > 64 && self.untagged_dirty.len() > 4 * self.dirty_total {
            let mut keep = std::mem::take(&mut self.untagged_dirty);
            keep.sort_unstable();
            keep.dedup();
            keep.retain(|&a| matches!(self.locate(a), Some(m) if m.dirty && m.eid.is_none()));
            self.untagged_dirty = keep;
        }
        self.untagged_dirty.push(addr);
    }

    /// Installs a line into `core`'s L1, rippling victims down: L1 victim →
    /// L2; L2 victim → its (guaranteed-present) LLC slot.
    fn fill_l1(&mut self, c: usize, addr: LineAddr, word: u64, value: u64) {
        if let PackedInsertion::Evicted {
            addr: v1_addr,
            word: v1_word,
            value: v1_value,
        } = self.l1[c].insert(addr, word, value)
        {
            if let PackedInsertion::Evicted {
                addr: v2_addr,
                word: v2_word,
                value: v2_value,
            } = self.l2[c].insert(v1_addr, v1_word, v1_value)
            {
                // The L2 victim leaves the private caches: deposit its data
                // into its LLC directory slot. The slot must exist and be a
                // directory pointer — LLC evictions back-invalidate first.
                let slot = self
                    .llc
                    .probe(v2_addr)
                    .unwrap_or_else(|| panic!("private line {v2_addr} lost its LLC slot"));
                debug_assert!(
                    self.llc.word(slot) & OWNED != 0,
                    "private line {v2_addr} already present in LLC"
                );
                self.llc.set_slot(slot, v2_word, v2_value);
            }
        }
    }

    /// Removes a line from `owner`'s private caches, returning its
    /// authoritative packed state.
    fn recall_private(&mut self, owner: usize, addr: LineAddr) -> (u64, u64) {
        if let Some(slot) = self.l1[owner].probe(addr) {
            self.l1[owner].take_at(slot)
        } else if let Some(slot) = self.l2[owner].probe(addr) {
            self.l2[owner].take_at(slot)
        } else {
            panic!("directory says core {owner} holds {addr}, but it does not")
        }
    }

    /// Disposes of an evicted LLC slot: back-invalidate if owned, then let
    /// the scheme route the write-back if dirty.
    fn dispose_llc_victim(
        &mut self,
        addr: LineAddr,
        word: u64,
        value: u64,
        scheme: &mut dyn ConsistencyScheme,
        mem: &mut Nvm,
        now: Cycle,
    ) {
        let (word, value) = if word & OWNED != 0 {
            self.stats.back_invalidations.incr();
            self.recall_private((word & FIELD) as usize, addr)
        } else {
            (word, value)
        };
        if word & DIRTY != 0 {
            // The line leaves the hierarchy; its bucket candidate goes
            // stale and is filtered at the next drain.
            self.dirty_total -= 1;
            let tagged = word & TAGGED != 0;
            if tagged {
                self.dirty_tagged -= 1;
            }
            self.stats.dirty_evictions.incr();
            self.telemetry
                .record(now, None, EventKind::DirtyWriteback { addr });
            let ev = EvictionEvent {
                addr,
                value,
                eid: tagged.then_some(EpochId(word & FIELD)),
            };
            if scheme.on_dirty_eviction(&ev, mem, now) == EvictRoute::InPlace {
                mem.write(now, addr, value, AccessClass::WriteBack);
            }
        } else {
            self.stats.clean_evictions.incr();
        }
    }

    /// Extracts every dirty line in the hierarchy (private caches and LLC),
    /// marking them clean and untagged in place. This is the synchronous
    /// cache flush of prior-work schemes; the caller writes the returned
    /// lines wherever its scheme requires.
    pub fn take_dirty_lines(&mut self) -> Vec<FlushLine> {
        let mut out = Vec::new();
        self.take_dirty_lines_into(&mut out);
        out
    }

    /// [`Hierarchy::take_dirty_lines`] into a caller-owned scratch vector
    /// (cleared first), avoiding a fresh allocation per flush. Lines are
    /// returned sorted by address.
    pub fn take_dirty_lines_into(&mut self, out: &mut Vec<FlushLine>) {
        out.clear();
        self.drain_work.drains += 1;
        if self.reference_scan {
            self.take_matching_scan(|m| m.dirty, out);
            self.epoch_index.clear();
            self.untagged_dirty.clear();
        } else {
            let buckets: Vec<Vec<LineAddr>> =
                self.epoch_index.drain().map(|(_, addrs)| addrs).collect();
            for bucket in buckets {
                self.drain_candidates(&bucket, None, out);
            }
            let untagged = std::mem::take(&mut self.untagged_dirty);
            self.drain_candidates(&untagged, None, out);
            debug_assert_eq!(self.dirty_total, 0, "dirty line missed by the epoch index");
            debug_assert_eq!(self.dirty_tagged, 0, "tag count out of sync");
        }
        out.sort_unstable_by_key(|f| f.addr);
    }

    /// Extracts dirty lines tagged with exactly `eid`, marking them clean —
    /// the asynchronous cache scan (§III-C). Dirty private copies are
    /// snooped exactly as the paper describes.
    pub fn take_lines_with_eid(&mut self, eid: EpochId) -> Vec<FlushLine> {
        let mut out = Vec::new();
        self.take_lines_with_eid_into(eid, &mut out);
        out
    }

    /// [`Hierarchy::take_lines_with_eid`] into a caller-owned scratch
    /// vector (cleared first). Lines are returned sorted by address.
    pub fn take_lines_with_eid_into(&mut self, eid: EpochId, out: &mut Vec<FlushLine>) {
        out.clear();
        self.drain_work.drains += 1;
        if self.reference_scan {
            self.take_matching_scan(|m| m.dirty && m.eid == Some(eid), out);
            self.epoch_index.remove(&eid);
        } else if let Some(bucket) = self.epoch_index.remove(&eid) {
            self.drain_candidates(&bucket, Some(eid), out);
        }
        out.sort_unstable_by_key(|f| f.addr);
    }

    /// Validates each candidate against its authoritative metadata and
    /// grabs the survivors: locate through the inclusive LLC directory,
    /// take if dirty (and tagged `filter`, when given), mark clean.
    fn drain_candidates(
        &mut self,
        candidates: &[LineAddr],
        filter: Option<EpochId>,
        out: &mut Vec<FlushLine>,
    ) {
        for &addr in candidates {
            let Some(lslot) = self.llc.probe(addr) else {
                continue;
            };
            let lword = self.llc.word(lslot);
            let grabbed = if lword & OWNED != 0 {
                let o = (lword & FIELD) as usize;
                let (in_l1, slot) = match self.l1[o].probe(addr) {
                    Some(s) => (true, s),
                    None => (
                        false,
                        self.l2[o]
                            .probe(addr)
                            .expect("owned line missing from owner's private caches"),
                    ),
                };
                let table = if in_l1 {
                    &mut self.l1[o]
                } else {
                    &mut self.l2[o]
                };
                match grab_word(table.word(slot), table.value(slot), addr, filter, out) {
                    Some((cleared, was_tagged)) => {
                        table.set_word(slot, cleared);
                        Some(was_tagged)
                    }
                    None => None,
                }
            } else {
                match grab_word(lword, self.llc.value(lslot), addr, filter, out) {
                    Some((cleared, was_tagged)) => {
                        self.llc.set_word(lslot, cleared);
                        Some(was_tagged)
                    }
                    None => None,
                }
            };
            if let Some(was_tagged) = grabbed {
                self.dirty_total -= 1;
                if was_tagged {
                    self.dirty_tagged -= 1;
                }
            }
        }
    }

    /// The brute-force drain: walk every slot of every cache (the
    /// reference path the epoch index is checked against).
    fn take_matching_scan(
        &mut self,
        pred: impl Fn(&CacheLineMeta) -> bool,
        out: &mut Vec<FlushLine>,
    ) {
        let mut grabbed = 0usize;
        let mut tagged = 0usize;
        let mut examined = 0u64;
        {
            let mut grab = |addr: LineAddr, word: &mut u64, value: &mut u64| {
                examined += 1;
                if *word & OWNED != 0 {
                    return;
                }
                let meta = decode_line(*word, *value);
                if pred(&meta) {
                    out.push(FlushLine {
                        addr,
                        value: meta.value,
                        eid: meta.eid,
                    });
                    grabbed += 1;
                    if meta.eid.is_some() {
                        tagged += 1;
                    }
                    *word &= !(DIRTY | TAGGED | FIELD);
                }
            };
            for cache in self.l1.iter_mut().chain(self.l2.iter_mut()) {
                cache.for_each_mut(&mut grab);
            }
            self.llc.for_each_mut(&mut grab);
        }
        self.dirty_total -= grabbed;
        self.dirty_tagged -= tagged;
        self.drain_work.scanned_lines += examined;
    }

    /// Read-only full scan of every dirty line, sorted by address — the
    /// oracle the index coherence proptests compare drains against.
    pub fn reference_dirty_lines(&self) -> Vec<FlushLine> {
        self.scan_matching(|m| m.dirty)
    }

    /// Read-only full scan of dirty lines tagged `eid`, sorted by address.
    pub fn reference_lines_with_eid(&self, eid: EpochId) -> Vec<FlushLine> {
        self.scan_matching(|m| m.dirty && m.eid == Some(eid))
    }

    fn scan_matching(&self, pred: impl Fn(&CacheLineMeta) -> bool) -> Vec<FlushLine> {
        let mut out = Vec::new();
        {
            let mut scan = |(addr, word, value): (LineAddr, u64, u64)| {
                if word & OWNED != 0 {
                    return;
                }
                let meta = decode_line(word, value);
                if pred(&meta) {
                    out.push(FlushLine {
                        addr,
                        value: meta.value,
                        eid: meta.eid,
                    });
                }
            };
            for cache in self.l1.iter().chain(self.l2.iter()) {
                cache.iter().for_each(&mut scan);
            }
            self.llc.iter().for_each(&mut scan);
        }
        out.sort_unstable_by_key(|f| f.addr);
        out
    }

    /// Number of dirty lines currently in the hierarchy. O(1) from the
    /// maintained counter; a full recount in reference mode.
    pub fn dirty_line_count(&self) -> usize {
        if self.reference_scan {
            self.recount(|m| m.dirty)
        } else {
            self.dirty_total
        }
    }

    /// Number of dirty lines carrying an EID tag (the PiCL `lines_tagged`
    /// gauge). O(1) from the maintained counter; a recount in reference
    /// mode.
    pub fn tagged_dirty_count(&self) -> usize {
        if self.reference_scan {
            self.recount(|m| m.dirty && m.eid.is_some())
        } else {
            self.dirty_tagged
        }
    }

    fn recount(&self, pred: impl Fn(&CacheLineMeta) -> bool) -> usize {
        self.l1
            .iter()
            .chain(self.l2.iter())
            .chain(std::iter::once(&self.llc))
            .map(|c| {
                c.iter()
                    .filter(|&(_, w, v)| w & OWNED == 0 && pred(&decode_line(w, v)))
                    .count()
            })
            .sum()
    }

    /// Authoritative metadata of `addr` if resident anywhere, located in
    /// O(1) through the inclusive LLC directory.
    fn locate(&self, addr: LineAddr) -> Option<CacheLineMeta> {
        let slot = self.llc.probe(addr)?;
        let word = self.llc.word(slot);
        if word & OWNED != 0 {
            let o = (word & FIELD) as usize;
            let (table, slot) = match self.l1[o].probe(addr) {
                Some(s) => (&self.l1[o], s),
                None => (&self.l2[o], self.l2[o].probe(addr)?),
            };
            Some(decode_line(table.word(slot), table.value(slot)))
        } else {
            Some(decode_line(word, self.llc.value(slot)))
        }
    }

    /// The current cached value of `addr`, if resident anywhere.
    pub fn cached_value(&self, addr: LineAddr) -> Option<u64> {
        self.locate(addr).map(|m| m.value)
    }

    /// Simulates power loss: every volatile line disappears.
    pub fn invalidate_all(&mut self) {
        for cache in self.l1.iter_mut().chain(self.l2.iter_mut()) {
            cache.clear();
        }
        self.llc.clear();
        self.epoch_index.clear();
        self.untagged_dirty.clear();
        self.dirty_total = 0;
        self.dirty_tagged = 0;
    }

    /// Total lines resident in the LLC (data or directory slots).
    pub fn llc_len(&self) -> usize {
        self.llc.len()
    }
}

/// Takes a line's packed state if it is dirty (and tagged `filter`, when
/// given): pushes the flush record and returns the cleaned word plus
/// whether the grabbed line carried a tag. `None` if it did not match.
#[inline]
fn grab_word(
    word: u64,
    value: u64,
    addr: LineAddr,
    filter: Option<EpochId>,
    out: &mut Vec<FlushLine>,
) -> Option<(u64, bool)> {
    if word & DIRTY == 0 {
        return None;
    }
    let tagged = word & TAGGED != 0;
    let eid = tagged.then_some(EpochId(word & FIELD));
    if let Some(f) = filter {
        if eid != Some(f) {
            return None;
        }
    }
    out.push(FlushLine { addr, value, eid });
    Some((word & !(DIRTY | TAGGED | FIELD), tagged))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::{BoundaryOutcome, RecoveryOutcome, SchemeStats, StoreDirective};
    use picl_types::config::NvmConfig;
    use picl_types::time::ClockDomain;

    /// Minimal pass-through scheme recording hook invocations.
    #[derive(Debug, Default)]
    struct Probe {
        stores: Vec<StoreEvent>,
        evictions: Vec<EvictionEvent>,
        tag_with: Option<EpochId>,
    }

    impl ConsistencyScheme for Probe {
        fn name(&self) -> &'static str {
            "probe"
        }
        fn system_eid(&self) -> EpochId {
            EpochId(1)
        }
        fn persisted_eid(&self) -> EpochId {
            EpochId::ZERO
        }
        fn on_store(&mut self, ev: &StoreEvent, _: &mut Nvm, _: Cycle) -> StoreDirective {
            self.stores.push(*ev);
            StoreDirective {
                new_eid: self.tag_with,
            }
        }
        fn on_dirty_eviction(&mut self, ev: &EvictionEvent, _: &mut Nvm, _: Cycle) -> EvictRoute {
            self.evictions.push(*ev);
            EvictRoute::InPlace
        }
        fn on_epoch_boundary(
            &mut self,
            _: &mut Hierarchy,
            _: &mut Nvm,
            _: Cycle,
        ) -> BoundaryOutcome {
            BoundaryOutcome {
                committed: EpochId(1),
                stall_until: None,
            }
        }
        fn crash_recover(&mut self, _: &mut Nvm, now: Cycle) -> RecoveryOutcome {
            RecoveryOutcome {
                recovered_to: EpochId::ZERO,
                entries_applied: 0,
                completed_at: now,
            }
        }
        fn stats(&self) -> SchemeStats {
            SchemeStats::default()
        }
    }

    fn tiny_config(cores: usize) -> SystemConfig {
        let mut cfg = SystemConfig::paper_multicore(cores);
        cfg.l1 = picl_types::config::CacheConfig::new(1024, 2, Cycle(1)); // 8 sets
        cfg.l2 = picl_types::config::CacheConfig::new(4096, 4, Cycle(4)); // 16 sets
        cfg.llc_per_core = picl_types::config::CacheConfig::new(16384, 4, Cycle(30));
        cfg
    }

    fn rig(cores: usize) -> (Hierarchy, Probe, Nvm) {
        let cfg = tiny_config(cores);
        (
            Hierarchy::new(&cfg),
            Probe::default(),
            Nvm::new(NvmConfig::paper_nvm(), ClockDomain::from_mhz(2000)),
        )
    }

    fn load(
        h: &mut Hierarchy,
        s: &mut Probe,
        m: &mut Nvm,
        core: usize,
        line: u64,
        now: u64,
    ) -> AccessResult {
        h.access(
            CoreId(core),
            LineAddr::new(line),
            AccessType::Load,
            s,
            m,
            Cycle(now),
        )
    }

    fn store(
        h: &mut Hierarchy,
        s: &mut Probe,
        m: &mut Nvm,
        core: usize,
        line: u64,
        value: u64,
        now: u64,
    ) -> AccessResult {
        h.access(
            CoreId(core),
            LineAddr::new(line),
            AccessType::Store { new_value: value },
            s,
            m,
            Cycle(now),
        )
    }

    #[test]
    fn miss_then_hit_levels() {
        let (mut h, mut s, mut m) = rig(1);
        let r1 = load(&mut h, &mut s, &mut m, 0, 5, 0);
        assert_eq!(r1.level, HitLevel::Memory);
        let r2 = load(&mut h, &mut s, &mut m, 0, 5, 1000);
        assert_eq!(r2.level, HitLevel::L1);
        assert_eq!(r2.data_ready, Cycle(1001));
        assert_eq!(h.stats().l1_hits.get(), 1);
        assert_eq!(h.stats().memory_accesses.get(), 1);
    }

    #[test]
    fn store_fires_hook_with_pre_store_metadata() {
        let (mut h, mut s, mut m) = rig(1);
        m.set_line(LineAddr::new(9), 77);
        store(&mut h, &mut s, &mut m, 0, 9, 100, 0);
        assert_eq!(s.stores.len(), 1);
        let ev = s.stores[0];
        assert_eq!(ev.old_value, 77);
        assert_eq!(ev.old_eid, None);
        assert!(!ev.was_dirty);
        assert_eq!(h.cached_value(LineAddr::new(9)), Some(100));
    }

    #[test]
    fn second_store_sees_dirty_and_tag() {
        let (mut h, mut s, mut m) = rig(1);
        s.tag_with = Some(EpochId(4));
        store(&mut h, &mut s, &mut m, 0, 9, 1, 0);
        store(&mut h, &mut s, &mut m, 0, 9, 2, 10);
        let ev = s.stores[1];
        assert!(ev.was_dirty);
        assert_eq!(ev.old_eid, Some(EpochId(4)));
        assert_eq!(ev.old_value, 1);
    }

    #[test]
    fn dirty_lines_eventually_evict_in_place() {
        let (mut h, mut s, mut m) = rig(1);
        // Store to many distinct lines to overflow the small hierarchy.
        for i in 0..2000 {
            store(&mut h, &mut s, &mut m, 0, i, i + 1, i * 10);
        }
        assert!(!s.evictions.is_empty(), "no evictions observed");
        assert!(h.stats().dirty_evictions.get() > 0);
        // In-place routing updated canonical NVM state for evicted lines.
        let ev = s.evictions[0];
        assert_eq!(m.state().read_line(ev.addr), ev.value);
    }

    #[test]
    fn exclusive_l1_l2_no_duplicate_dirty() {
        let (mut h, mut s, mut m) = rig(1);
        for i in 0..64 {
            store(&mut h, &mut s, &mut m, 0, i, i + 1, i);
        }
        let flushed = h.take_dirty_lines();
        let mut addrs: Vec<_> = flushed.iter().map(|f| f.addr).collect();
        let before = addrs.len();
        addrs.sort_unstable();
        addrs.dedup();
        assert_eq!(before, addrs.len(), "duplicate dirty lines extracted");
        assert_eq!(h.dirty_line_count(), 0);
    }

    #[test]
    fn take_dirty_preserves_values() {
        let (mut h, mut s, mut m) = rig(1);
        store(&mut h, &mut s, &mut m, 0, 1, 11, 0);
        store(&mut h, &mut s, &mut m, 0, 2, 22, 1);
        let flushed = h.take_dirty_lines();
        assert_eq!(flushed.len(), 2);
        assert_eq!(flushed[0].value, 11);
        assert_eq!(flushed[1].value, 22);
        // Lines stay resident, now clean.
        assert_eq!(h.cached_value(LineAddr::new(1)), Some(11));
        assert!(h.take_dirty_lines().is_empty());
    }

    #[test]
    fn take_lines_with_eid_filters() {
        let (mut h, mut s, mut m) = rig(1);
        s.tag_with = Some(EpochId(1));
        store(&mut h, &mut s, &mut m, 0, 1, 10, 0);
        s.tag_with = Some(EpochId(2));
        store(&mut h, &mut s, &mut m, 0, 2, 20, 1);
        let got = h.take_lines_with_eid(EpochId(1));
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].addr, LineAddr::new(1));
        assert_eq!(h.dirty_line_count(), 1);
        let rest = h.take_lines_with_eid(EpochId(2));
        assert_eq!(rest.len(), 1);
        assert_eq!(h.dirty_line_count(), 0);
    }

    #[test]
    fn drains_are_sorted_by_address() {
        let (mut h, mut s, mut m) = rig(1);
        s.tag_with = Some(EpochId(1));
        // Store in descending order; the drain must still come out sorted.
        for i in (0..32u64).rev() {
            store(&mut h, &mut s, &mut m, 0, i, i + 1, (32 - i) * 3);
        }
        let flushed = h.take_dirty_lines();
        assert!(
            flushed.windows(2).all(|w| w[0].addr < w[1].addr),
            "flush order not sorted: {:?}",
            flushed.iter().map(|f| f.addr).collect::<Vec<_>>()
        );
    }

    #[test]
    fn fast_drain_matches_reference_scan() {
        let seq: &[(u64, Option<u64>)] = &[
            (1, Some(1)),
            (2, Some(1)),
            (3, Some(2)),
            (1, Some(2)), // re-tag line 1: stale candidate left in bucket 1
            (4, None),    // untagged dirty
        ];
        let run = |reference: bool| {
            let (mut h, mut s, mut m) = rig(1);
            h.set_reference_scan(reference);
            for (i, &(line, tag)) in seq.iter().enumerate() {
                s.tag_with = tag.map(EpochId);
                store(&mut h, &mut s, &mut m, 0, line, line * 10, i as u64);
            }
            let e1 = h.take_lines_with_eid(EpochId(1));
            let e2 = h.take_lines_with_eid(EpochId(2));
            let rest = h.take_dirty_lines();
            ((e1, e2, rest), h.drain_work())
        };
        let (fast, fast_work) = run(false);
        let (reference, reference_work) = run(true);
        assert_eq!(fast, reference);
        // Three drains each way; every reference scan examines the eight
        // resident copies of the four lines, the fast path none.
        assert_eq!(
            fast_work,
            DrainWork {
                drains: 3,
                scanned_lines: 0
            }
        );
        assert_eq!(
            reference_work,
            DrainWork {
                drains: 3,
                scanned_lines: 3 * 8
            }
        );
    }

    #[test]
    fn tagged_count_tracks_tags() {
        let (mut h, mut s, mut m) = rig(1);
        s.tag_with = None;
        store(&mut h, &mut s, &mut m, 0, 1, 10, 0);
        assert_eq!(h.dirty_line_count(), 1);
        assert_eq!(h.tagged_dirty_count(), 0);
        s.tag_with = Some(EpochId(3));
        store(&mut h, &mut s, &mut m, 0, 1, 11, 1);
        store(&mut h, &mut s, &mut m, 0, 2, 20, 2);
        assert_eq!(h.dirty_line_count(), 2);
        assert_eq!(h.tagged_dirty_count(), 2);
        h.take_lines_with_eid(EpochId(3));
        assert_eq!(h.tagged_dirty_count(), 0);
        assert_eq!(h.dirty_line_count(), 0);
    }

    #[test]
    fn cross_core_recall_moves_ownership() {
        let (mut h, mut s, mut m) = rig(2);
        store(&mut h, &mut s, &mut m, 0, 7, 42, 0);
        // Core 1 reads the same line: recall, not memory access.
        let r = load(&mut h, &mut s, &mut m, 1, 7, 100);
        assert_eq!(r.level, HitLevel::Llc);
        assert_eq!(h.stats().recalls.get(), 1);
        assert_eq!(h.cached_value(LineAddr::new(7)), Some(42));
        // Core 1 now hits in its own L1.
        let r2 = load(&mut h, &mut s, &mut m, 1, 7, 200);
        assert_eq!(r2.level, HitLevel::L1);
        // The dirty bit traveled with the line.
        assert_eq!(h.dirty_line_count(), 1);
    }

    #[test]
    fn recalled_line_still_drains_by_eid() {
        // A candidate recorded while core 0 held the line must still be
        // found after the line migrates to core 1's private caches.
        let (mut h, mut s, mut m) = rig(2);
        s.tag_with = Some(EpochId(5));
        store(&mut h, &mut s, &mut m, 0, 7, 42, 0);
        load(&mut h, &mut s, &mut m, 1, 7, 100);
        let got = h.take_lines_with_eid(EpochId(5));
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].addr, LineAddr::new(7));
        assert_eq!(got[0].value, 42);
        assert_eq!(h.dirty_line_count(), 0);
    }

    #[test]
    fn llc_eviction_back_invalidates_private_copy() {
        let (mut h, mut s, mut m) = rig(1);
        // Lines k·64 all map to LLC set 0 (64 sets), L1 set 0, L2 set 0.
        // The 4-way LLC set overflows while early lines still sit in the
        // private caches, forcing back-invalidations.
        for k in 0..12u64 {
            store(&mut h, &mut s, &mut m, 0, k * 64, k + 1, k * 5);
        }
        assert!(h.stats().back_invalidations.get() > 0);
        // Back-invalidated dirty lines were written in place.
        assert!(!s.evictions.is_empty());
        // Evicted lines left the dirty census; residents remain.
        assert_eq!(h.dirty_line_count(), h.reference_dirty_lines().len());
    }

    #[test]
    fn invalidate_all_clears_everything() {
        let (mut h, mut s, mut m) = rig(1);
        store(&mut h, &mut s, &mut m, 0, 3, 33, 0);
        assert!(h.llc_len() > 0);
        h.invalidate_all();
        assert_eq!(h.llc_len(), 0);
        assert_eq!(h.dirty_line_count(), 0);
        assert_eq!(h.cached_value(LineAddr::new(3)), None);
        assert!(h.take_dirty_lines().is_empty());
    }

    #[test]
    fn load_returns_memory_value() {
        let (mut h, mut s, mut m) = rig(1);
        m.set_line(LineAddr::new(50), 123);
        load(&mut h, &mut s, &mut m, 0, 50, 0);
        assert_eq!(h.cached_value(LineAddr::new(50)), Some(123));
    }

    #[test]
    fn clean_evictions_are_silent() {
        let (mut h, mut s, mut m) = rig(1);
        for i in 0..2000 {
            load(&mut h, &mut s, &mut m, 0, i, i * 3);
        }
        assert!(h.stats().clean_evictions.get() > 0);
        assert!(s.evictions.is_empty());
        assert_eq!(h.stats().dirty_evictions.get(), 0);
    }

    #[test]
    fn eviction_pressure_keeps_census_exact() {
        // Heavy conflict traffic (evictions, back-invalidations, stale
        // candidates) must leave the O(1) census equal to a recount.
        let (mut h, mut s, mut m) = rig(1);
        for i in 0..3000u64 {
            s.tag_with = (i % 3 != 0).then_some(EpochId(i / 500));
            store(&mut h, &mut s, &mut m, 0, (i * 7) % 600, i + 1, i * 2);
        }
        assert_eq!(h.dirty_line_count(), h.reference_dirty_lines().len());
        let tagged_ref = h
            .reference_dirty_lines()
            .iter()
            .filter(|f| f.eid.is_some())
            .count();
        assert_eq!(h.tagged_dirty_count(), tagged_ref);
        for e in 0..7 {
            let want = h.reference_lines_with_eid(EpochId(e));
            let got = h.take_lines_with_eid(EpochId(e));
            assert_eq!(got, want, "ACS drain diverged for epoch {e}");
        }
        let want = h.reference_dirty_lines();
        assert_eq!(h.take_dirty_lines(), want);
        assert_eq!(h.dirty_line_count(), 0);
    }
}
