//! Journaling: redo logging with a hardware translation table (§II-B,
//! §VI-A).
//!
//! Dirty evictions are absorbed into a redo buffer in NVM instead of being
//! written in place; a fixed-size, set-associative translation table maps
//! each absorbed line to its redo-buffer slot. Demand misses snoop the
//! table so reads see the freshest data. At commit the whole dirty cache is
//! flushed into the redo buffer and the buffer is *applied* — every entry
//! read back and written to its canonical address — all synchronously.
//!
//! The scalability problem the paper highlights: when a table **set** fills
//! up, the epoch must commit early, so workloads with large or scattered
//! write sets commit 6–64× more often than the epoch timer intends
//! (Fig. 11).

use std::collections::VecDeque;

use picl_cache::{
    BoundaryOutcome, ConsistencyScheme, EvictRoute, EvictionEvent, Hierarchy, RecoveryOutcome,
    SchemeStats, SetAssocCache, StoreDirective, StoreEvent,
};
use picl_nvm::{AccessClass, Nvm};
use picl_telemetry::{EventKind, Telemetry};
use picl_types::{config::TableConfig, stats::Counter, Cycle, EpochId, LineAddr};

use picl_types::EpochTracker;

/// Line index where the simulated redo-buffer region begins.
pub const REDO_REGION_BASE_LINE: u64 = 1 << 41;

/// A translation-table entry: the redo-buffer copy of one line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RedoSlot {
    value: u64,
}

/// The Journaling scheme.
#[derive(Debug)]
pub struct Journaling {
    epochs: EpochTracker,
    table: SetAssocCache<RedoSlot>,
    /// Entries that arrived while their table set was full; they force an
    /// early commit, which drains them.
    overflow: VecDeque<(LineAddr, u64)>,
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

impl Journaling {
    /// Creates the scheme with the paper's table geometry (6144 entries,
    /// 16-way).
    pub fn new(table: &TableConfig) -> Self {
        table.validate().expect("valid table configuration");
        let sets = table.entries / table.ways;
        Journaling {
            epochs: EpochTracker::new(16),
            table: SetAssocCache::new(sets, table.ways),
            overflow: VecDeque::new(),
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

    /// Lines currently tracked by the translation table.
    pub fn table_occupancy(&self) -> usize {
        self.table.len()
    }

    fn redo_line(&self, addr: LineAddr) -> LineAddr {
        LineAddr::new(REDO_REGION_BASE_LINE + addr.raw() % self.table.capacity() as u64)
    }

    /// Absorbs one line into the redo buffer, writing the NVM redo slot.
    /// Sets the early-commit flag if the table set was full.
    fn absorb(&mut self, addr: LineAddr, value: u64, mem: &mut Nvm, now: Cycle) -> Cycle {
        let done = mem.write(now, self.redo_line(addr), value, AccessClass::RedoLogWrite);
        self.redo_entries.incr();
        self.redo_bytes.add(64);
        if self.table.contains(addr) || self.table.set_len(addr) < self.table.ways() {
            self.table.insert(addr, RedoSlot { value });
        } else {
            // Set conflict: hardware cannot track this line — the epoch
            // must commit early. Hold the data aside until it does.
            self.overflow.push_back((addr, value));
            self.early_commit = true;
        }
        done
    }

    /// Applies all tracked redo entries to their canonical addresses and
    /// clears the table. Entries issue concurrently (the FCFS controller's
    /// banks provide the parallelism); each entry's canonical write chains
    /// after its own redo read. Returns the cycle the last write lands.
    fn apply_all(&mut self, mem: &mut Nvm, now: Cycle) -> Cycle {
        let mut done = now;
        let entries: Vec<(LineAddr, u64)> = self
            .table
            .iter()
            .map(|(a, s)| (a, s.value))
            .chain(self.overflow.iter().copied())
            .collect();
        for (addr, value) in entries {
            let (_, t_read) = mem.read(now, self.redo_line(addr), AccessClass::RedoApplyRead);
            done = done.max(mem.write(t_read, addr, value, AccessClass::RedoApplyWrite));
        }
        self.table.clear();
        self.overflow.clear();
        done
    }
}

impl ConsistencyScheme for Journaling {
    fn name(&self) -> &'static str {
        "Journaling"
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

    /// Dirty evictions divert into the redo buffer; canonical memory stays
    /// at the last committed state.
    fn on_dirty_eviction(&mut self, ev: &EvictionEvent, mem: &mut Nvm, now: Cycle) -> EvictRoute {
        self.absorb(ev.addr, ev.value, mem, now);
        EvictRoute::Absorbed
    }

    /// Reads must see redo-buffer contents ("this redo buffer is snooped on
    /// every memory access").
    fn forward_read(&mut self, addr: LineAddr, mem: &mut Nvm, now: Cycle) -> Option<(u64, Cycle)> {
        let value = self.table.peek(addr)?.value;
        let (_, done) = mem.read(now, self.redo_line(addr), AccessClass::RedoForwardRead);
        Some((value, done))
    }

    fn wants_early_commit(&self) -> bool {
        self.early_commit
    }

    /// Commit: synchronously flush the dirty cache into the redo buffer,
    /// then apply the whole buffer to canonical memory.
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
        let t = self.apply_all(mem, flushed);
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

    /// Canonical memory already holds the last committed state (the apply
    /// completed inside the commit stall); uncommitted redo entries are
    /// simply discarded.
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
            log_entries: self.redo_entries.get(),
            log_bytes_written: self.redo_bytes.get(),
            log_bytes_live: self.table.len() as u64 * 64,
            buffer_flushes: 0,
            buffer_flushes_forced: 0,
            stall_cycles: self.stall_cycles.get(),
        }
    }

    fn attach_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    fn telemetry_gauges(&self) -> Vec<(&'static str, f64)> {
        vec![("redo_table_occupancy", self.table.len() as f64)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use picl_types::config::NvmConfig;
    use picl_types::time::ClockDomain;
    use picl_types::SystemConfig;

    fn rig() -> (Journaling, Hierarchy, Nvm) {
        (
            Journaling::new(&TableConfig::paper_default()),
            Hierarchy::new(&SystemConfig::paper_single_core()),
            Nvm::new(NvmConfig::paper_nvm(), ClockDomain::from_mhz(2000)),
        )
    }

    fn evict(j: &mut Journaling, m: &mut Nvm, addr: u64, value: u64) -> EvictRoute {
        j.on_dirty_eviction(
            &EvictionEvent {
                addr: LineAddr::new(addr),
                value,
                eid: None,
            },
            m,
            Cycle(0),
        )
    }

    #[test]
    fn evictions_are_absorbed_not_in_place() {
        let (mut j, _, mut m) = rig();
        m.set_line(LineAddr::new(4), 40);
        assert_eq!(evict(&mut j, &mut m, 4, 41), EvictRoute::Absorbed);
        // Canonical memory unchanged; redo write issued.
        assert_eq!(m.state().read_line(LineAddr::new(4)), 40);
        assert_eq!(m.stats().ops(AccessClass::RedoLogWrite), 1);
        assert_eq!(j.table_occupancy(), 1);
    }

    #[test]
    fn forward_read_returns_redo_value() {
        let (mut j, _, mut m) = rig();
        evict(&mut j, &mut m, 4, 41);
        let (v, done) = j.forward_read(LineAddr::new(4), &mut m, Cycle(10)).unwrap();
        assert_eq!(v, 41);
        assert!(done > Cycle(10));
        assert!(j
            .forward_read(LineAddr::new(5), &mut m, Cycle(10))
            .is_none());
    }

    #[test]
    fn commit_applies_and_clears() {
        let (mut j, mut h, mut m) = rig();
        evict(&mut j, &mut m, 4, 41);
        evict(&mut j, &mut m, 6, 61);
        let out = j.on_epoch_boundary(&mut h, &mut m, Cycle(100));
        assert!(out.stall_until.unwrap() > Cycle(100));
        assert_eq!(m.state().read_line(LineAddr::new(4)), 41);
        assert_eq!(m.state().read_line(LineAddr::new(6)), 61);
        assert_eq!(j.table_occupancy(), 0);
        assert_eq!(j.persisted_eid(), EpochId(1));
    }

    #[test]
    fn set_conflict_forces_early_commit() {
        let (mut j, _, mut m) = rig();
        // 384 sets (6144 entries, 16-way): lines k·384 collide in set 0.
        let sets = 384u64;
        for k in 0..17u64 {
            evict(&mut j, &mut m, k * sets, k);
        }
        assert!(
            j.wants_early_commit(),
            "17th way must overflow a 16-way set"
        );
    }

    #[test]
    fn early_commit_counts_as_forced() {
        let (mut j, mut h, mut m) = rig();
        let sets = 384u64;
        for k in 0..17u64 {
            evict(&mut j, &mut m, k * sets, k + 100);
        }
        let out = j.on_epoch_boundary(&mut h, &mut m, Cycle(0));
        assert_eq!(out.committed, EpochId(1));
        assert_eq!(j.stats().forced_commits, 1);
        assert!(!j.wants_early_commit());
        // The overflowed line was applied too.
        assert_eq!(m.state().read_line(LineAddr::new(16 * sets)), 116);
    }

    #[test]
    fn recovery_discards_uncommitted_redo() {
        let (mut j, mut h, mut m) = rig();
        m.set_line(LineAddr::new(4), 40);
        // Commit epoch 1 with value 41.
        evict(&mut j, &mut m, 4, 41);
        j.on_epoch_boundary(&mut h, &mut m, Cycle(0));
        // Uncommitted epoch 2 eviction with value 42.
        evict(&mut j, &mut m, 4, 42);
        let out = j.crash_recover(&mut m, Cycle(10));
        assert_eq!(out.recovered_to, EpochId(1));
        assert_eq!(m.state().read_line(LineAddr::new(4)), 41);
        assert_eq!(j.table_occupancy(), 0);
        assert_eq!(j.system_eid(), EpochId(2));
    }
}
