//! ThyNVM: dual-granularity redo logging with checkpoint/execution overlap
//! (§II-B, §VI-A).
//!
//! ThyNVM tracks writes in two translation tables — block granularity
//! (64 B, 2048 entries) for scattered writes and page granularity (4 KB,
//! 4096 entries) for spatially local ones. Commit stalls only for the
//! synchronous cache flush into the redo buffer; the *apply* phase of the
//! previous checkpoint overlaps the next epoch's execution (overlap degree
//! one). The price: entries stay resident across two epochs awaiting their
//! background apply, roughly halving effective table capacity — the paper's
//! explanation for ThyNVM's overhead growing fastest with cache size
//! (Fig. 15).

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

/// Line index where the simulated ThyNVM redo region begins.
pub const THYNVM_REGION_BASE_LINE: u64 = 1 << 43;

/// A block-granularity redo entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct BlockEntry {
    value: u64,
    epoch: EpochId,
}

/// A page-granularity redo entry.
#[derive(Debug, Clone, Default)]
struct PageEntry {
    delta: picl_types::hash::FastMap<u64, u64>,
    epoch: EpochId,
}

/// The ThyNVM scheme.
#[derive(Debug)]
pub struct ThyNvm {
    epochs: EpochTracker,
    blocks: SetAssocCache<BlockEntry>,
    pages: SetAssocCache<PageEntry>,
    overflow: Vec<(LineAddr, u64)>,
    early_commit: bool,
    commits: Counter,
    forced_commits: Counter,
    redo_entries: Counter,
    redo_bytes: Counter,
    stall_cycles: Counter,
    telemetry: Telemetry,
    /// Reused across boundary flushes (one drain per epoch commit).
    flush_scratch: Vec<picl_cache::FlushLine>,
}

impl ThyNvm {
    /// Creates the scheme with the paper's dual-table geometry (2048 block
    /// + 4096 page entries, 16-way).
    pub fn new(table: &TableConfig) -> Self {
        table.validate().expect("valid table configuration");
        let ways = table.ways;
        ThyNvm {
            epochs: EpochTracker::new(16),
            blocks: SetAssocCache::new(table.thynvm_block_entries / ways, ways),
            pages: SetAssocCache::new(table.thynvm_page_entries / ways, ways),
            overflow: Vec::new(),
            early_commit: false,
            commits: Counter::new(),
            forced_commits: Counter::new(),
            redo_entries: Counter::new(),
            redo_bytes: Counter::new(),
            stall_cycles: Counter::new(),
            telemetry: Telemetry::off(),
            flush_scratch: Vec::new(),
        }
    }

    /// Block-table occupancy (includes entries awaiting background apply).
    pub fn block_occupancy(&self) -> usize {
        self.blocks.len()
    }

    /// Page-table occupancy.
    pub fn page_occupancy(&self) -> usize {
        self.pages.len()
    }

    fn redo_block_line(&self, addr: LineAddr) -> LineAddr {
        LineAddr::new(THYNVM_REGION_BASE_LINE + addr.raw() % self.blocks.capacity() as u64)
    }

    fn redo_page_line(&self, page: PageAddr, index: u64) -> LineAddr {
        let slot = page.raw() % self.pages.capacity() as u64;
        LineAddr::new(THYNVM_REGION_BASE_LINE + (1 << 20) + slot * 64 + index)
    }

    fn page_key(page: PageAddr) -> LineAddr {
        LineAddr::new(page.raw())
    }

    /// Absorbs a dirty eviction into one of the two tables. An entry left
    /// over from an already-committed epoch is applied to canonical memory
    /// first (its data is durable checkpoint state) before being reused.
    fn absorb(&mut self, addr: LineAddr, value: u64, mem: &mut Nvm, now: Cycle) -> Cycle {
        let sys = self.epochs.system();
        let page = addr.page();
        let pkey = Self::page_key(page);
        let mut t = now;

        if self.pages.contains(pkey) {
            let line = self.redo_page_line(page, addr.index_in_page());
            t = mem.write(t, line, value, AccessClass::RedoLogWrite);
            self.redo_entries.incr();
            self.redo_bytes.add(64);
            let committed_delta = {
                let e = self.pages.peek_mut(pkey).expect("contains");
                if e.epoch < sys && !e.delta.is_empty() {
                    let drained: Vec<(u64, u64)> = e.delta.drain().collect();
                    e.epoch = sys;
                    Some(drained)
                } else {
                    e.epoch = sys;
                    None
                }
            };
            if let Some(drained) = committed_delta {
                // Committed data displaced early: apply it now.
                for (idx, v) in drained {
                    let canon = LineAddr::new(page.first_line().raw() + idx);
                    t = mem.write(t, canon, v, AccessClass::RedoApplyWrite);
                }
            }
            self.pages
                .peek_mut(pkey)
                .expect("contains")
                .delta
                .insert(addr.index_in_page(), value);
            return t;
        }

        if self.blocks.contains(addr) {
            let line = self.redo_block_line(addr);
            t = mem.write(t, line, value, AccessClass::RedoLogWrite);
            self.redo_entries.incr();
            self.redo_bytes.add(64);
            let e = self.blocks.peek_mut(addr).expect("contains");
            if e.epoch < sys {
                let old = e.value;
                *e = BlockEntry { value, epoch: sys };
                t = mem.write(t, addr, old, AccessClass::RedoApplyWrite);
            } else {
                *e = BlockEntry { value, epoch: sys };
            }
            return t;
        }

        if self.blocks.set_len(addr) < self.blocks.ways() {
            t = mem.write(
                t,
                self.redo_block_line(addr),
                value,
                AccessClass::RedoLogWrite,
            );
            self.redo_entries.incr();
            self.redo_bytes.add(64);
            self.blocks.insert(addr, BlockEntry { value, epoch: sys });
            return t;
        }

        if self.pages.set_len(pkey) < self.pages.ways() {
            t = mem.write(
                t,
                self.redo_page_line(page, addr.index_in_page()),
                value,
                AccessClass::RedoLogWrite,
            );
            self.redo_entries.incr();
            self.redo_bytes.add(64);
            let mut entry = PageEntry {
                delta: picl_types::hash::FastMap::default(),
                epoch: sys,
            };
            entry.delta.insert(addr.index_in_page(), value);
            self.pages.insert(pkey, entry);
            return t;
        }

        self.overflow.push((addr, value));
        self.early_commit = true;
        t
    }

    /// Applies and frees every entry belonging to an already-committed
    /// epoch (the background apply of the previous checkpoint).
    fn apply_committed(&mut self, mem: &mut Nvm, now: Cycle) -> Cycle {
        let sys = self.epochs.system();
        let mut t = now;
        for (addr, e) in self.blocks.drain_filter(|_, e| e.epoch < sys) {
            let (_, tr) = mem.read(now, self.redo_block_line(addr), AccessClass::RedoApplyRead);
            t = t.max(mem.write(tr, addr, e.value, AccessClass::RedoApplyWrite));
        }
        for (key, e) in self.pages.drain_filter(|_, e| e.epoch < sys) {
            let page = PageAddr::new(key.raw());
            t = t.max(mem.write_bulk(
                now,
                page.first_line(),
                PAGE_BYTES,
                AccessClass::RedoApplyWrite,
            ));
            for (idx, v) in e.delta {
                mem.set_line(LineAddr::new(page.first_line().raw() + idx), v);
            }
        }
        t
    }
}

impl ConsistencyScheme for ThyNvm {
    fn name(&self) -> &'static str {
        "ThyNVM"
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

    /// Reads snoop both tables (freshest copy wins; page delta covers the
    /// block table by construction).
    fn forward_read(&mut self, addr: LineAddr, mem: &mut Nvm, now: Cycle) -> Option<(u64, Cycle)> {
        let page = addr.page();
        if let Some(e) = self.pages.peek(Self::page_key(page)) {
            if let Some(v) = e.delta.get(&addr.index_in_page()) {
                let line = self.redo_page_line(page, addr.index_in_page());
                let (_, done) = mem.read(now, line, AccessClass::RedoForwardRead);
                return Some((*v, done));
            }
        }
        let e = self.blocks.peek(addr)?;
        let value = e.value;
        let (_, done) = mem.read(
            now,
            self.redo_block_line(addr),
            AccessClass::RedoForwardRead,
        );
        Some((value, done))
    }

    fn wants_early_commit(&self) -> bool {
        self.early_commit
    }

    /// Commit: stall only for the cache flush into the redo tables; the
    /// previous checkpoint's apply is issued in the background after the
    /// stall point (single-commit overlap).
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
        // The previous checkpoint's background apply drains first: its
        // entries occupied the tables throughout the epoch that just ended
        // (the doubled-pressure effect), and its traffic is background NVM
        // work, not stall time.
        self.apply_committed(mem, now);
        let mut t = now;
        let mut scratch = std::mem::take(&mut self.flush_scratch);
        hier.take_dirty_lines_into(&mut scratch);
        for line in &scratch {
            t = t.max(self.absorb(line.addr, line.value, mem, now));
        }
        self.flush_scratch = scratch;
        for (addr, value) in std::mem::take(&mut self.overflow) {
            t = t.max(mem.write(now, addr, value, AccessClass::RedoApplyWrite));
        }
        let stall_end = t;
        let committed = self.epochs.commit();
        self.epochs.persist(committed);
        self.commits.incr();
        self.stall_cycles.add(stall_end.saturating_since(now).raw());
        self.telemetry
            .record(now, None, EventKind::EpochCommit { eid: committed });
        self.telemetry
            .record(stall_end, None, EventKind::EpochPersist { eid: committed });
        // Overflow during the flush itself was drained above; the epoch
        // that just committed needs no further forced commit.
        self.early_commit = false;
        BoundaryOutcome {
            committed,
            stall_until: Some(stall_end),
        }
    }

    /// The committed checkpoint's redo contents are durable; recovery
    /// finishes its apply. Current-epoch entries are discarded.
    fn crash_recover(&mut self, mem: &mut Nvm, now: Cycle) -> RecoveryOutcome {
        let persisted = self.epochs.persisted();
        let sys = self.epochs.system();
        let mut applied = 0;
        let mut t = now;
        for (addr, e) in self.blocks.drain_filter(|_, e| e.epoch < sys) {
            let (_, tr) = mem.read(t, self.redo_block_line(addr), AccessClass::RecoveryLogRead);
            t = mem.write(tr, addr, e.value, AccessClass::RecoveryPatchWrite);
            applied += 1;
        }
        for (key, e) in self.pages.drain_filter(|_, e| e.epoch < sys) {
            let page = PageAddr::new(key.raw());
            for (idx, v) in e.delta {
                let canon = LineAddr::new(page.first_line().raw() + idx);
                t = mem.write(t, canon, v, AccessClass::RecoveryPatchWrite);
                applied += 1;
            }
        }
        self.blocks.clear();
        self.pages.clear();
        self.overflow.clear();
        self.early_commit = false;
        self.epochs.resume_after_recovery();
        RecoveryOutcome {
            recovered_to: persisted,
            entries_applied: applied,
            completed_at: t,
        }
    }

    fn stats(&self) -> SchemeStats {
        SchemeStats {
            commits: self.commits.get(),
            forced_commits: self.forced_commits.get(),
            log_entries: self.redo_entries.get(),
            log_bytes_written: self.redo_bytes.get(),
            log_bytes_live: (self.blocks.len() + self.pages.len() * 64) as u64 * 64,
            buffer_flushes: 0,
            buffer_flushes_forced: 0,
            stall_cycles: self.stall_cycles.get(),
        }
    }

    fn attach_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    fn telemetry_gauges(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("block_table_occupancy", self.blocks.len() as f64),
            ("page_table_occupancy", self.pages.len() as f64),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use picl_types::config::NvmConfig;
    use picl_types::time::ClockDomain;
    use picl_types::SystemConfig;

    fn rig() -> (ThyNvm, Hierarchy, Nvm) {
        (
            ThyNvm::new(&TableConfig::paper_default()),
            Hierarchy::new(&SystemConfig::paper_single_core()),
            Nvm::new(NvmConfig::paper_nvm(), ClockDomain::from_mhz(2000)),
        )
    }

    fn evict(s: &mut ThyNvm, m: &mut Nvm, line: u64, value: u64) {
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
    fn scattered_writes_use_block_table() {
        let (mut s, _, mut m) = rig();
        evict(&mut s, &mut m, 1, 11);
        evict(&mut s, &mut m, 100_000, 22);
        assert_eq!(s.block_occupancy(), 2);
        assert_eq!(s.page_occupancy(), 0);
        assert_eq!(
            m.state().read_line(LineAddr::new(1)),
            0,
            "canonical untouched"
        );
    }

    #[test]
    fn block_set_overflow_falls_back_to_page_table() {
        let (mut s, _, mut m) = rig();
        let sets = 2048 / 16; // 128 block-table sets
        for k in 0..17u64 {
            evict(&mut s, &mut m, k * sets as u64, k);
        }
        assert_eq!(s.block_occupancy(), 16);
        assert_eq!(s.page_occupancy(), 1);
        assert!(!s.wants_early_commit());
    }

    #[test]
    fn forward_read_prefers_freshest() {
        let (mut s, _, mut m) = rig();
        evict(&mut s, &mut m, 5, 50);
        let (v, _) = s.forward_read(LineAddr::new(5), &mut m, Cycle(0)).unwrap();
        assert_eq!(v, 50);
        assert!(s.forward_read(LineAddr::new(6), &mut m, Cycle(0)).is_none());
    }

    #[test]
    fn commit_stalls_for_flush_only_and_applies_in_background() {
        let (mut s, mut h, mut m) = rig();
        evict(&mut s, &mut m, 5, 50);
        let out1 = s.on_epoch_boundary(&mut h, &mut m, Cycle(100));
        assert!(out1.stall_until.is_some());
        // Entry survives commit, occupying the table while its background
        // apply overlaps the next epoch.
        assert_eq!(s.block_occupancy(), 1);
        assert_eq!(
            m.state().read_line(LineAddr::new(5)),
            0,
            "apply not yet visible"
        );
        // By the next boundary the apply has drained it.
        let _out2 = s.on_epoch_boundary(&mut h, &mut m, Cycle(10_000));
        assert_eq!(s.block_occupancy(), 0);
        assert_eq!(m.state().read_line(LineAddr::new(5)), 50);
    }

    #[test]
    fn recovery_restores_committed_checkpoint() {
        let (mut s, mut h, mut m) = rig();
        // Commit epoch 1 with line 5 = 50.
        evict(&mut s, &mut m, 5, 50);
        s.on_epoch_boundary(&mut h, &mut m, Cycle(0));
        // Epoch 2 (uncommitted): line 5 = 51 absorbed.
        evict(&mut s, &mut m, 5, 51);
        let out = s.crash_recover(&mut m, Cycle(100));
        assert_eq!(out.recovered_to, EpochId(1));
        assert_eq!(m.state().read_line(LineAddr::new(5)), 50);
        assert_eq!(s.block_occupancy(), 0);
    }

    #[test]
    fn displaced_committed_entry_applies_first() {
        let (mut s, mut h, mut m) = rig();
        evict(&mut s, &mut m, 5, 50);
        s.on_epoch_boundary(&mut h, &mut m, Cycle(0));
        // Same line evicted again in epoch 2 before background apply ran
        // at its own boundary: the committed value 50 must reach canonical
        // before the slot is reused by 51.
        evict(&mut s, &mut m, 5, 51);
        assert_eq!(m.state().read_line(LineAddr::new(5)), 50);
        let out = s.crash_recover(&mut m, Cycle(100));
        assert_eq!(out.recovered_to, EpochId(1));
        assert_eq!(m.state().read_line(LineAddr::new(5)), 50);
    }

    #[test]
    fn dual_overflow_forces_early_commit() {
        let (mut s, _, mut m) = rig();
        let block_sets = 2048u64 / 16; // 128
        let page_sets = 4096u64 / 16; // 256
                                      // Fill one block set (16 lines, distinct pages aligned so their
                                      // pages also collide in one page set).
                                      // Block set index: line % 128 == 0 -> lines k*128*... choose lines
                                      // whose page index also ≡ 0 mod 256: page = line/64.
                                      // line = k * 64 * 256 => page = k*256 (page set 0); line % 128 == 0 ✓
        for k in 0..40u64 {
            evict(&mut s, &mut m, k * 64 * page_sets, k);
        }
        assert!(s.wants_early_commit(), "both tables' set 0 must overflow");
        let _ = block_sets;
    }
}
