//! FRM-style classic undo logging (§II-B, §VI-A).
//!
//! Representative of hardware high-frequency checkpointing designs: every
//! dirty eviction performs the **read-log-modify** access sequence — read
//! the pre-image from its canonical address, append it to the undo log as
//! an uncoalesced random write, then write the new data in place. At every
//! epoch boundary the whole dirty cache is flushed *synchronously* with the
//! same per-line sequence, and the epoch is durable the moment it commits
//! (single-undo: commit and persist are atomic).
//!
//! Both of PiCL's target pathologies live here: three NVM operations with
//! poor locality per eviction, and a stop-the-world flush whose latency
//! scales with cache size.

use picl_cache::{
    BoundaryOutcome, ConsistencyScheme, EvictRoute, EvictionEvent, Hierarchy, RecoveryOutcome,
    SchemeStats, StoreDirective, StoreEvent,
};
use picl_nvm::{AccessClass, Nvm};
use picl_telemetry::{EventKind, Telemetry};
use picl_types::{stats::Counter, Cycle, EpochId};

use picl::log::UndoLog;
use picl_types::EpochTracker;
use picl_types::UndoEntry;

/// The FRM undo-logging scheme.
#[derive(Debug)]
pub struct Frm {
    epochs: EpochTracker,
    log: UndoLog,
    commits: Counter,
    stall_cycles: Counter,
    telemetry: Telemetry,
    /// Reused across boundary flushes (one drain per epoch commit).
    flush_scratch: Vec<picl_cache::FlushLine>,
}

impl Frm {
    /// Creates the scheme. FRM needs no configuration beyond the epoch
    /// timer the simulator drives.
    pub fn new() -> Self {
        Frm {
            // Commit == persist, so the live window is one epoch: any tag
            // width works; use 16 bits for headroom in the shared tracker.
            epochs: EpochTracker::new(16),
            log: UndoLog::new(),
            commits: Counter::new(),
            stall_cycles: Counter::new(),
            telemetry: Telemetry::off(),
            flush_scratch: Vec::new(),
        }
    }

    /// The durable undo log (inspection and reports).
    pub fn log(&self) -> &UndoLog {
        &self.log
    }

    /// The read-log-modify sequence for one line: pre-image read, random
    /// log append. The caller then writes the new data in place. Returns
    /// the cycle the log append is durable.
    fn read_log(&mut self, addr: picl_types::LineAddr, mem: &mut Nvm, now: Cycle) -> Cycle {
        let (pre_image, t_read) = mem.read(now, addr, AccessClass::UndoPreimageRead);
        let entry = UndoEntry::new(
            addr,
            pre_image,
            self.epochs.persisted(),
            self.epochs.system(),
        );
        // FRM has no volatile undo buffer: the append is durable at the
        // same cycle as the eviction it covers, which the auditor's
        // same-cycle grace window recognises as legal.
        self.telemetry.record(
            now,
            None,
            EventKind::UndoEntryAppended {
                addr,
                valid_from: self.epochs.persisted(),
                valid_till: self.epochs.system(),
            },
        );
        self.log.append_single(entry, mem, t_read)
    }
}

impl Default for Frm {
    fn default() -> Self {
        Self::new()
    }
}

impl ConsistencyScheme for Frm {
    fn name(&self) -> &'static str {
        "FRM"
    }

    fn system_eid(&self) -> EpochId {
        self.epochs.system()
    }

    fn persisted_eid(&self) -> EpochId {
        self.epochs.persisted()
    }

    /// Stores are invisible to classic undo logging — all work happens at
    /// eviction time.
    fn on_store(&mut self, _: &StoreEvent, _: &mut Nvm, _: Cycle) -> StoreDirective {
        StoreDirective::default()
    }

    /// Read-log-modify: the pre-image must be durable in the log before the
    /// in-place write (which the hierarchy performs after we return).
    fn on_dirty_eviction(&mut self, ev: &EvictionEvent, mem: &mut Nvm, now: Cycle) -> EvictRoute {
        self.read_log(ev.addr, mem, now);
        EvictRoute::InPlace
    }

    /// Synchronous commit: flush every dirty line with read-log-modify,
    /// stalling until the last write lands; the epoch is then persisted.
    fn on_epoch_boundary(
        &mut self,
        hier: &mut Hierarchy,
        mem: &mut Nvm,
        now: Cycle,
    ) -> BoundaryOutcome {
        let mut t = now;
        let mut scratch = std::mem::take(&mut self.flush_scratch);
        hier.take_dirty_lines_into(&mut scratch);
        for line in &scratch {
            // Per line: pre-image read, log append, in-place write chain;
            // distinct lines proceed concurrently across banks.
            let logged = self.read_log(line.addr, mem, now);
            let done = mem.write(logged, line.addr, line.value, AccessClass::WriteBack);
            t = t.max(done);
        }
        self.flush_scratch = scratch;
        let committed = self.epochs.commit();
        self.epochs.persist(committed);
        self.log.garbage_collect(committed);
        self.commits.incr();
        self.stall_cycles.add(t.saturating_since(now).raw());
        self.telemetry
            .record(now, None, EventKind::EpochCommit { eid: committed });
        // Single-undo: the epoch is durable the moment the flush lands.
        self.telemetry
            .record(t, None, EventKind::EpochPersist { eid: committed });
        BoundaryOutcome {
            committed,
            stall_until: Some(t),
        }
    }

    /// Crash mid-epoch: in-place eviction writes from the uncommitted epoch
    /// are undone by replaying the log backward to the persisted epoch.
    fn crash_recover(&mut self, mem: &mut Nvm, now: Cycle) -> RecoveryOutcome {
        let persisted = self.epochs.persisted();
        let (applied, done) = self.log.recover(mem, persisted, now);
        self.log.truncate_after_recovery(persisted);
        self.epochs.resume_after_recovery();
        RecoveryOutcome {
            recovered_to: persisted,
            entries_applied: applied,
            completed_at: done,
        }
    }

    fn stats(&self) -> SchemeStats {
        let log = self.log.stats();
        SchemeStats {
            commits: self.commits.get(),
            forced_commits: 0,
            log_entries: log.entries_written,
            log_bytes_written: log.bytes_written,
            log_bytes_live: log.bytes_live,
            buffer_flushes: 0,
            buffer_flushes_forced: 0,
            stall_cycles: self.stall_cycles.get(),
        }
    }

    fn attach_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    fn telemetry_gauges(&self) -> Vec<(&'static str, f64)> {
        vec![("log_bytes_live", self.log.stats().bytes_live as f64)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use picl_types::config::NvmConfig;
    use picl_types::time::ClockDomain;
    use picl_types::{LineAddr, SystemConfig};

    fn rig() -> (Frm, Hierarchy, Nvm) {
        (
            Frm::new(),
            Hierarchy::new(&SystemConfig::paper_single_core()),
            Nvm::new(NvmConfig::paper_nvm(), ClockDomain::from_mhz(2000)),
        )
    }

    #[test]
    fn eviction_performs_read_log_modify() {
        let (mut f, _, mut m) = rig();
        m.state_mut().write_line(LineAddr::new(5), 50);
        let route = f.on_dirty_eviction(
            &EvictionEvent {
                addr: LineAddr::new(5),
                value: 51,
                eid: None,
            },
            &mut m,
            Cycle(0),
        );
        assert_eq!(route, EvictRoute::InPlace);
        assert_eq!(m.stats().ops(AccessClass::UndoPreimageRead), 1);
        assert_eq!(m.stats().ops(AccessClass::UndoLogRandom), 1);
        // The logged pre-image is the canonical (old) value.
        assert_eq!(f.log().iter_entries().next().unwrap().value, 50);
    }

    #[test]
    fn commit_stalls_until_flush_completes() {
        let (mut f, mut h, mut m) = rig();
        use picl_cache::hierarchy::AccessType;
        use picl_types::CoreId;
        for i in 0..10u64 {
            h.access(
                CoreId(0),
                LineAddr::new(i),
                AccessType::Store { new_value: i + 1 },
                &mut f,
                &mut m,
                Cycle(i),
            );
        }
        let out = f.on_epoch_boundary(&mut h, &mut m, Cycle(1000));
        let stall = out.stall_until.expect("FRM must stall");
        assert!(stall > Cycle(1000));
        assert_eq!(h.dirty_line_count(), 0);
        assert_eq!(f.persisted_eid(), EpochId(1));
        assert!(f.stats().stall_cycles > 0);
        // All ten lines are now in place in NVM.
        for i in 0..10u64 {
            assert_eq!(m.state().read_line(LineAddr::new(i)), i + 1);
        }
    }

    #[test]
    fn recovery_undoes_uncommitted_evictions() {
        let (mut f, _h, mut m) = rig();
        m.state_mut().write_line(LineAddr::new(3), 30);
        // Uncommitted epoch 1 eviction overwrites line 3 in place.
        f.on_dirty_eviction(
            &EvictionEvent {
                addr: LineAddr::new(3),
                value: 31,
                eid: None,
            },
            &mut m,
            Cycle(0),
        );
        m.state_mut().write_line(LineAddr::new(3), 31); // hierarchy's in-place write
        let out = f.crash_recover(&mut m, Cycle(100));
        assert_eq!(out.recovered_to, EpochId::ZERO);
        assert_eq!(out.entries_applied, 1);
        assert_eq!(m.state().read_line(LineAddr::new(3)), 30);
        assert_eq!(f.system_eid(), EpochId(1));
    }

    #[test]
    fn committed_epochs_survive_recovery() {
        let (mut f, mut h, mut m) = rig();
        use picl_cache::hierarchy::AccessType;
        use picl_types::CoreId;
        h.access(
            CoreId(0),
            LineAddr::new(9),
            AccessType::Store { new_value: 90 },
            &mut f,
            &mut m,
            Cycle(0),
        );
        f.on_epoch_boundary(&mut h, &mut m, Cycle(10));
        h.invalidate_all();
        let out = f.crash_recover(&mut m, Cycle(20));
        assert_eq!(out.recovered_to, EpochId(1));
        assert_eq!(m.state().read_line(LineAddr::new(9)), 90);
    }
}
