//! Shadow Paging: page-granularity redo logging (§VI-A).
//!
//! Like Journaling, but the translation table tracks 4 KB pages. The first
//! dirty eviction into an untracked page triggers a copy-on-write of the
//! whole page into the shadow region; later evictions write into the shadow
//! copy. At commit, dirtied shadow pages are written back to their
//! canonical addresses as page-sized sequential writes.
//!
//! Both optimizations from §VI-A are implemented:
//!
//! 1. CoW copies happen *locally inside the memory module* (one bulk NVM
//!    operation, no link round-trip of the data through the CPU);
//! 2. table entries are **retained** after commit, so the next epoch's
//!    writes to the same page skip the CoW; retained-but-clean entries are
//!    silently replaceable, so only sets full of *dirty* pages force an
//!    early commit.
//!
//! Page granularity is great for sequential writers (one entry covers 64
//! lines) and terrible for scattered writers (a 4 KB copy per stray line) —
//! exactly the astar-vs-mcf contrast the paper describes.

use picl_cache::{
    BoundaryOutcome, ConsistencyScheme, EvictRoute, EvictionEvent, Hierarchy, RecoveryOutcome,
    SchemeStats, SetAssocCache, StoreDirective, StoreEvent,
};
use picl_nvm::{AccessClass, Nvm};
use picl_telemetry::{EventKind, Telemetry};
use picl_types::{
    config::TableConfig, stats::Counter, Cycle, EpochId, LineAddr, PageAddr, PAGE_BYTES,
};

use picl_types::EpochTracker;

/// Line index where the simulated shadow-page region begins.
pub const SHADOW_REGION_BASE_LINE: u64 = 1 << 42;

/// One tracked page: the lines overwritten since the page's data last
/// matched canonical memory.
#[derive(Debug, Clone, Default)]
struct ShadowEntry {
    /// line-index-in-page → value, for lines diverging from canonical.
    delta: picl_types::hash::FastMap<u64, u64>,
}

impl ShadowEntry {
    fn is_clean(&self) -> bool {
        self.delta.is_empty()
    }
}

/// The Shadow-Paging scheme.
#[derive(Debug)]
pub struct ShadowPaging {
    epochs: EpochTracker,
    table: SetAssocCache<ShadowEntry>,
    /// Lines whose page could not be tracked; drained by the forced commit.
    overflow: Vec<(LineAddr, u64)>,
    early_commit: bool,
    commits: Counter,
    forced_commits: Counter,
    cow_copies: Counter,
    page_writebacks: Counter,
    stall_cycles: Counter,
    shadow_bytes: Counter,
    telemetry: Telemetry,
    /// Reused across boundary flushes (one drain per epoch commit).
    flush_scratch: Vec<picl_cache::FlushLine>,
}

impl ShadowPaging {
    /// Creates the scheme with the paper's table geometry.
    pub fn new(table: &TableConfig) -> Self {
        table.validate().expect("valid table configuration");
        ShadowPaging {
            epochs: EpochTracker::new(16),
            table: SetAssocCache::new(table.entries / table.ways, table.ways),
            overflow: Vec::new(),
            early_commit: false,
            commits: Counter::new(),
            forced_commits: Counter::new(),
            cow_copies: Counter::new(),
            page_writebacks: Counter::new(),
            stall_cycles: Counter::new(),
            shadow_bytes: Counter::new(),
            telemetry: Telemetry::off(),
            flush_scratch: Vec::new(),
        }
    }

    /// Pages currently tracked (retained entries included).
    pub fn table_occupancy(&self) -> usize {
        self.table.len()
    }

    /// Copy-on-write page copies performed so far.
    pub fn cow_count(&self) -> u64 {
        self.cow_copies.get()
    }

    fn key(page: PageAddr) -> LineAddr {
        LineAddr::new(page.raw())
    }

    fn shadow_line(&self, page: PageAddr, index_in_page: u64) -> LineAddr {
        let slot = page.raw() % self.table.capacity() as u64;
        LineAddr::new(SHADOW_REGION_BASE_LINE + slot * (PAGE_BYTES / 64) + index_in_page)
    }

    /// Absorbs one line into its shadow page, allocating (with CoW) as
    /// needed. Returns the completion cycle; sets the early-commit flag on
    /// an untrackable page.
    fn absorb(&mut self, addr: LineAddr, value: u64, mem: &mut Nvm, now: Cycle) -> Cycle {
        let page = addr.page();
        let key = Self::key(page);
        let mut t = now;
        if self.table.peek(key).is_none() {
            // Translation write miss: try to allocate, CoW-ing the page.
            if self.table.set_len(key) == self.table.ways() {
                // Retained-but-clean entries are silently reclaimable.
                let clean_victim = self
                    .table
                    .set_entries(key)
                    .find(|(_, e)| e.is_clean())
                    .map(|(a, _)| a);
                match clean_victim {
                    Some(v) => {
                        self.table.remove(v);
                    }
                    None => {
                        self.overflow.push((addr, value));
                        self.early_commit = true;
                        return t;
                    }
                }
            }
            // Local CoW inside the memory module (§VI-A optimization 1).
            t = mem.write_bulk(
                t,
                self.shadow_line(page, 0),
                PAGE_BYTES,
                AccessClass::CowPageCopy,
            );
            self.cow_copies.incr();
            self.table.insert(key, ShadowEntry::default());
        }
        let t_write = mem.write(
            t,
            self.shadow_line(page, addr.index_in_page()),
            value,
            AccessClass::RedoLogWrite,
        );
        self.shadow_bytes.add(64);
        self.table
            .peek_mut(key)
            .expect("entry just ensured")
            .delta
            .insert(addr.index_in_page(), value);
        t_write
    }
}

impl ConsistencyScheme for ShadowPaging {
    fn name(&self) -> &'static str {
        "Shadow"
    }

    fn system_eid(&self) -> EpochId {
        self.epochs.system()
    }

    fn persisted_eid(&self) -> EpochId {
        self.epochs.persisted()
    }

    fn on_store(&mut self, _: &StoreEvent, _: &mut Nvm, _: Cycle) -> StoreDirective {
        StoreDirective::default()
    }

    fn on_dirty_eviction(&mut self, ev: &EvictionEvent, mem: &mut Nvm, now: Cycle) -> EvictRoute {
        self.absorb(ev.addr, ev.value, mem, now);
        EvictRoute::Absorbed
    }

    /// Reads of shadowed lines come from the shadow page.
    fn forward_read(&mut self, addr: LineAddr, mem: &mut Nvm, now: Cycle) -> Option<(u64, Cycle)> {
        let page = addr.page();
        let value = *self
            .table
            .peek(Self::key(page))?
            .delta
            .get(&addr.index_in_page())?;
        let line = self.shadow_line(page, addr.index_in_page());
        let (_, done) = mem.read(now, line, AccessClass::RedoForwardRead);
        Some((value, done))
    }

    fn wants_early_commit(&self) -> bool {
        self.early_commit
    }

    /// Commit: flush the dirty cache into shadow pages, then write every
    /// dirtied page back to its canonical address as one page-sized
    /// sequential write. Entries are retained with their deltas cleared.
    fn on_epoch_boundary(
        &mut self,
        hier: &mut Hierarchy,
        mem: &mut Nvm,
        now: Cycle,
    ) -> BoundaryOutcome {
        if self.early_commit {
            self.forced_commits.incr();
            self.early_commit = false;
        }
        let mut flushed = now;
        let mut scratch = std::mem::take(&mut self.flush_scratch);
        hier.take_dirty_lines_into(&mut scratch);
        for line in &scratch {
            flushed = flushed.max(self.absorb(line.addr, line.value, mem, now));
        }
        self.flush_scratch = scratch;
        // Page write-back of every dirtied page (concurrent across banks);
        // retain the entry.
        let dirty_pages: Vec<LineAddr> = self
            .table
            .iter()
            .filter(|(_, e)| !e.is_clean())
            .map(|(k, _)| k)
            .collect();
        let mut t = flushed;
        for key in dirty_pages {
            let page = PageAddr::new(key.raw());
            let done = mem.write_bulk(
                flushed,
                page.first_line(),
                PAGE_BYTES,
                AccessClass::ShadowPageWriteBack,
            );
            t = t.max(done);
            self.page_writebacks.incr();
            let entry = self.table.peek_mut(key).expect("listed above");
            for (idx, value) in entry.delta.drain() {
                mem.state_mut()
                    .write_line(LineAddr::new(page.first_line().raw() + idx), value);
            }
        }
        // Untracked overflow lines are applied directly.
        for (addr, value) in std::mem::take(&mut self.overflow) {
            t = t.max(mem.write(flushed, addr, value, AccessClass::RedoApplyWrite));
        }
        let committed = self.epochs.commit();
        self.epochs.persist(committed);
        self.commits.incr();
        self.stall_cycles.add(t.saturating_since(now).raw());
        self.telemetry
            .record(now, None, EventKind::EpochCommit { eid: committed });
        self.telemetry
            .record(t, None, EventKind::EpochPersist { eid: committed });
        // Overflow during the flush itself was drained above; the epoch
        // that just committed needs no further forced commit.
        self.early_commit = false;
        BoundaryOutcome {
            committed,
            stall_until: Some(t),
        }
    }

    /// Canonical memory holds the last commit; shadow pages and the table
    /// are discarded.
    fn crash_recover(&mut self, _: &mut Nvm, now: Cycle) -> RecoveryOutcome {
        self.table.clear();
        self.overflow.clear();
        self.early_commit = false;
        let persisted = self.epochs.persisted();
        self.epochs.resume_after_recovery();
        RecoveryOutcome {
            recovered_to: persisted,
            entries_applied: 0,
            completed_at: now,
        }
    }

    fn stats(&self) -> SchemeStats {
        SchemeStats {
            commits: self.commits.get(),
            forced_commits: self.forced_commits.get(),
            log_entries: self.cow_copies.get() + self.shadow_bytes.get() / 64,
            log_bytes_written: self.cow_copies.get() * PAGE_BYTES + self.shadow_bytes.get(),
            log_bytes_live: self.table.len() as u64 * PAGE_BYTES,
            buffer_flushes: 0,
            buffer_flushes_forced: 0,
            stall_cycles: self.stall_cycles.get(),
        }
    }

    fn attach_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    fn telemetry_gauges(&self) -> Vec<(&'static str, f64)> {
        vec![("shadow_table_occupancy", self.table.len() as f64)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use picl_types::config::NvmConfig;
    use picl_types::time::ClockDomain;
    use picl_types::SystemConfig;

    fn rig() -> (ShadowPaging, Hierarchy, Nvm) {
        (
            ShadowPaging::new(&TableConfig::paper_default()),
            Hierarchy::new(&SystemConfig::paper_single_core()),
            Nvm::new(NvmConfig::paper_nvm(), ClockDomain::from_mhz(2000)),
        )
    }

    fn evict(s: &mut ShadowPaging, m: &mut Nvm, line: u64, value: u64) {
        s.on_dirty_eviction(
            &EvictionEvent {
                addr: LineAddr::new(line),
                value,
                eid: None,
            },
            m,
            Cycle(0),
        );
    }

    #[test]
    fn first_eviction_cows_the_page() {
        let (mut s, _, mut m) = rig();
        evict(&mut s, &mut m, 5, 55);
        assert_eq!(s.cow_count(), 1);
        assert_eq!(m.stats().ops(AccessClass::CowPageCopy), 1);
        // Same page again: no new CoW.
        evict(&mut s, &mut m, 6, 66);
        assert_eq!(s.cow_count(), 1);
        assert_eq!(s.table_occupancy(), 1);
        // Canonical untouched.
        assert_eq!(m.state().read_line(LineAddr::new(5)), 0);
    }

    #[test]
    fn one_entry_covers_64_lines() {
        let (mut s, _, mut m) = rig();
        for i in 0..64 {
            evict(&mut s, &mut m, i, i);
        }
        assert_eq!(s.table_occupancy(), 1);
        assert_eq!(s.cow_count(), 1);
    }

    #[test]
    fn forward_read_sees_shadowed_lines_only() {
        let (mut s, _, mut m) = rig();
        evict(&mut s, &mut m, 5, 55);
        let (v, _) = s.forward_read(LineAddr::new(5), &mut m, Cycle(0)).unwrap();
        assert_eq!(v, 55);
        // Line 6 shares the page but was never overwritten.
        assert!(s.forward_read(LineAddr::new(6), &mut m, Cycle(0)).is_none());
    }

    #[test]
    fn commit_writes_pages_back_and_retains_entries() {
        let (mut s, mut h, mut m) = rig();
        evict(&mut s, &mut m, 5, 55);
        let out = s.on_epoch_boundary(&mut h, &mut m, Cycle(0));
        assert!(out.stall_until.is_some());
        assert_eq!(m.state().read_line(LineAddr::new(5)), 55);
        assert_eq!(s.table_occupancy(), 1, "entry retained after commit");
        // Next epoch write to the same page: no CoW again.
        evict(&mut s, &mut m, 7, 77);
        assert_eq!(s.cow_count(), 1);
    }

    #[test]
    fn full_set_of_dirty_pages_forces_commit() {
        let (mut s, _, mut m) = rig();
        let sets = 384u64;
        // 17 dirty pages in the same table set (page stride = sets).
        for k in 0..17u64 {
            evict(&mut s, &mut m, k * sets * 64, k);
        }
        assert!(s.wants_early_commit());
    }

    #[test]
    fn clean_retained_entries_are_reclaimable() {
        let (mut s, mut h, mut m) = rig();
        let sets = 384u64;
        for k in 0..16u64 {
            evict(&mut s, &mut m, k * sets * 64, k);
        }
        // Commit: all 16 entries retained but clean.
        s.on_epoch_boundary(&mut h, &mut m, Cycle(0));
        // A 17th page in the same set replaces a clean entry silently.
        evict(&mut s, &mut m, 16 * sets * 64, 99);
        assert!(!s.wants_early_commit());
        assert_eq!(s.stats().forced_commits, 0);
    }

    #[test]
    fn recovery_discards_uncommitted_shadows() {
        let (mut s, mut h, mut m) = rig();
        evict(&mut s, &mut m, 5, 55);
        s.on_epoch_boundary(&mut h, &mut m, Cycle(0));
        evict(&mut s, &mut m, 5, 56); // uncommitted epoch 2
        let out = s.crash_recover(&mut m, Cycle(10));
        assert_eq!(out.recovered_to, EpochId(1));
        assert_eq!(m.state().read_line(LineAddr::new(5)), 55);
        assert_eq!(s.table_occupancy(), 0);
    }
}
