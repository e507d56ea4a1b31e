//! The PiCL consistency scheme: cache-driven logging, multi-undo logging,
//! and the asynchronous cache scan, wired into the
//! [`picl_cache::ConsistencyScheme`] interface.

use picl_cache::{
    BoundaryOutcome, ConsistencyScheme, EvictRoute, EvictionEvent, Hierarchy, RecoveryOutcome,
    SchemeStats, StoreDirective, StoreEvent,
};
use picl_nvm::{AccessClass, Nvm};
use picl_telemetry::{EventKind, Telemetry};
use picl_types::undo::{undo_range, ENTRY_BYTES};
use picl_types::{
    config::SystemConfig, stats::Counter, BloomFilter, Cycle, EpochId, EpochTracker, UndoBuffer,
    UndoEntry,
};

use crate::log::UndoLog;
use crate::os::LogAllocator;

/// The PiCL mechanism (§III–IV).
///
/// # Example
///
/// ```
/// use picl::Picl;
/// use picl_cache::ConsistencyScheme;
/// use picl_types::SystemConfig;
///
/// let picl = Picl::new(&SystemConfig::paper_single_core());
/// assert_eq!(picl.persisted_eid().raw(), 0);
/// ```
#[derive(Debug)]
pub struct Picl {
    epochs: EpochTracker,
    buffer: UndoBuffer,
    log: UndoLog,
    allocator: LogAllocator,
    acs_gap: u64,
    commits: Counter,
    forced_buffer_flushes: Counter,
    undo_entries: Counter,
    telemetry: Telemetry,
    /// Reused across ACS passes so each scan drains into the same
    /// allocation instead of building a fresh `Vec<FlushLine>`.
    acs_scratch: Vec<picl_cache::FlushLine>,
    /// Test-only sabotage: when set, the next buffer flush silently
    /// discards its entries instead of appending them to the durable log —
    /// the undo-before-eviction bug the protocol auditor exists to catch.
    #[cfg(test)]
    skip_next_drain: bool,
}

impl Picl {
    /// Builds PiCL for a system configuration (uses the `epoch` section:
    /// buffer capacity, bloom bits, EID width, ACS-gap).
    pub fn new(cfg: &SystemConfig) -> Self {
        let e = &cfg.epoch;
        Picl {
            epochs: EpochTracker::new(e.eid_bits),
            buffer: UndoBuffer::new(e.undo_buffer_entries, BloomFilter::new(e.bloom_bits, 2)),
            log: UndoLog::new(),
            allocator: LogAllocator::paper_default(),
            acs_gap: e.acs_gap,
            commits: Counter::new(),
            forced_buffer_flushes: Counter::new(),
            undo_entries: Counter::new(),
            telemetry: Telemetry::off(),
            acs_scratch: Vec::new(),
            #[cfg(test)]
            skip_next_drain: false,
        }
    }

    /// Arms the sabotage: the next [`flush_buffer`](Self::flush_buffer)
    /// throws its entries away without logging them or emitting
    /// `UndoDrain`.
    #[cfg(test)]
    fn sabotage_skip_next_drain(&mut self) {
        self.skip_next_drain = true;
    }

    /// The configured ACS-gap.
    pub fn acs_gap(&self) -> u64 {
        self.acs_gap
    }

    /// The durable undo log (inspection and reports).
    pub fn log(&self) -> &UndoLog {
        &self.log
    }

    /// The on-chip undo buffer (inspection and tests).
    pub fn buffer(&self) -> &UndoBuffer {
        &self.buffer
    }

    /// Flushes the on-chip undo buffer to the durable log as one bulk
    /// sequential write; returns when it completes (or `now` if empty).
    /// `forced` marks drains triggered by a bloom-filter hit on eviction.
    fn flush_buffer(&mut self, mem: &mut Nvm, now: Cycle, forced: bool) -> Cycle {
        if self.buffer.is_empty() {
            return now;
        }
        let entries = self.buffer.drain();
        #[cfg(test)]
        if std::mem::take(&mut self.skip_next_drain) {
            drop(entries);
            return now;
        }
        self.telemetry.record(
            now,
            None,
            EventKind::UndoDrain {
                entries: entries.len() as u64,
                bytes: entries.len() as u64 * ENTRY_BYTES,
                forced,
            },
        );
        let done = self.log.append_flush(entries, mem, now);
        self.allocator.ensure(self.log.stats().bytes_live);
        done
    }

    /// Bulk ACS (§IV-C extension): persist *every* committed epoch now by
    /// scanning the whole EID range in one pass, so pending I/O can be
    /// released early. Returns the newly persisted epoch, if any.
    pub fn bulk_acs(&mut self, hier: &mut Hierarchy, mem: &mut Nvm, now: Cycle) -> Option<EpochId> {
        let committed = self.epochs.committed()?;
        let mut t = self.flush_buffer(mem, now, false);
        let first = self.epochs.persisted().next();
        for e in first.raw()..=committed.raw() {
            t = self.acs_pass(hier, mem, EpochId(e), t);
        }
        self.epochs.persist(committed);
        self.log.garbage_collect(committed);
        self.telemetry
            .record(t, None, EventKind::EpochPersist { eid: committed });
        Some(committed)
    }

    /// One ACS pass: write back (in place) every dirty line tagged exactly
    /// `target`, snooping private copies, and make them clean.
    fn acs_pass(
        &mut self,
        hier: &mut Hierarchy,
        mem: &mut Nvm,
        target: EpochId,
        now: Cycle,
    ) -> Cycle {
        let mut t = now;
        let mut lines = 0u64;
        let mut scratch = std::mem::take(&mut self.acs_scratch);
        hier.take_lines_with_eid_into(target, &mut scratch);
        for line in &scratch {
            t = t.max(mem.write(now, line.addr, line.value, AccessClass::AcsWrite));
            lines += 1;
            self.telemetry
                .record(now, None, EventKind::AcsLineWriteback { addr: line.addr });
        }
        self.acs_scratch = scratch;
        self.telemetry.record(
            t,
            None,
            EventKind::AcsScan {
                target,
                lines,
                started: now,
            },
        );
        t
    }
}

impl ConsistencyScheme for Picl {
    fn name(&self) -> &'static str {
        "PiCL"
    }

    fn system_eid(&self) -> EpochId {
        self.epochs.system()
    }

    fn persisted_eid(&self) -> EpochId {
        self.epochs.persisted()
    }

    /// Cache-driven logging (Figs. 7/8): transient stores (tag already
    /// equals `SystemEID`) are free; stores to clean or committed-modified
    /// lines emit the pre-store data as an undo entry into the on-chip
    /// buffer. `ValidFrom` is the line's tag, or `PersistedEID` for clean
    /// lines; `ValidTill` is `SystemEID`.
    fn on_store(&mut self, ev: &StoreEvent, mem: &mut Nvm, now: Cycle) -> StoreDirective {
        let sys = self.epochs.system();
        let Some((valid_from, valid_till)) = undo_range(ev.old_eid, sys, self.epochs.persisted())
        else {
            // Transient modified: same-epoch overwrite, no undo needed.
            return StoreDirective { new_eid: Some(sys) };
        };
        let entry = UndoEntry::new(ev.addr, ev.old_value, valid_from, valid_till);
        self.undo_entries.incr();
        self.telemetry.record(
            now,
            None,
            EventKind::UndoEntryAppended {
                addr: ev.addr,
                valid_from,
                valid_till,
            },
        );
        if self.buffer.push(entry) {
            self.flush_buffer(mem, now, false);
        }
        StoreDirective { new_eid: Some(sys) }
    }

    /// Evictions write in place — but an eviction whose undo entry is still
    /// volatile in the on-chip buffer must flush the buffer first (§III-B's
    /// bloom-filter ordering check).
    fn on_dirty_eviction(&mut self, ev: &EvictionEvent, mem: &mut Nvm, now: Cycle) -> EvictRoute {
        let conflict = self.buffer.eviction_conflicts(ev.addr);
        self.telemetry.record(
            now,
            None,
            EventKind::BloomCheck {
                addr: ev.addr,
                hit: conflict,
            },
        );
        if conflict {
            self.forced_buffer_flushes.incr();
            self.flush_buffer(mem, now, true);
        }
        debug_assert!(
            !self.buffer.holds_entry_for(ev.addr),
            "in-place write would race a volatile undo entry for {}",
            ev.addr
        );
        EvictRoute::InPlace
    }

    /// Commit is instantaneous — no stall, no flush (§III-C). The epoch
    /// `ACS-gap` boundaries back is persisted by the asynchronous cache
    /// scan, whose write-backs proceed in the background (they occupy NVM
    /// banks but never stop the world).
    fn on_epoch_boundary(
        &mut self,
        hier: &mut Hierarchy,
        mem: &mut Nvm,
        now: Cycle,
    ) -> BoundaryOutcome {
        let committed = self.epochs.commit();
        self.commits.incr();
        self.telemetry
            .record(now, None, EventKind::EpochCommit { eid: committed });

        // Conservative per-§IV-A: flush the undo buffer on every ACS so
        // entries covering the persisting epoch are durable first.
        let t = self.flush_buffer(mem, now, false);

        if committed.raw() > self.acs_gap {
            let target = EpochId(committed.raw() - self.acs_gap);
            // After a bulk ACS or a crash recovery, persistence may already
            // be ahead of the trailing target; skip until it catches up.
            if target > self.epochs.persisted() {
                let done = self.acs_pass(hier, mem, target, t);
                self.epochs.persist(target);
                self.log.garbage_collect(target);
                self.telemetry
                    .record(done, None, EventKind::EpochPersist { eid: target });
            }
        }

        BoundaryOutcome {
            committed,
            stall_until: None,
        }
    }

    /// Power failure: the buffer and all cache state are gone; replay the
    /// durable multi-undo log backward onto main memory (§IV-B).
    fn crash_recover(&mut self, mem: &mut Nvm, now: Cycle) -> RecoveryOutcome {
        // Volatile loss.
        let _ = self.buffer.drain();
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
            log_entries: self.undo_entries.get(),
            log_bytes_written: log.bytes_written,
            log_bytes_live: log.bytes_live,
            buffer_flushes: log.flushes,
            buffer_flushes_forced: self.forced_buffer_flushes.get(),
            stall_cycles: 0,
        }
    }

    fn attach_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    fn telemetry_gauges(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("undo_buffer_fill", self.buffer.len() as f64),
            ("log_bytes_live", self.log.stats().bytes_live as f64),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use picl_types::config::NvmConfig;
    use picl_types::time::ClockDomain;
    use picl_types::LineAddr;

    fn rig() -> (Picl, Nvm) {
        let cfg = SystemConfig::paper_single_core();
        (
            Picl::new(&cfg),
            Nvm::new(NvmConfig::paper_nvm(), ClockDomain::from_mhz(2000)),
        )
    }

    fn store_ev(addr: u64, old_value: u64, old_eid: Option<u64>) -> StoreEvent {
        StoreEvent {
            addr: LineAddr::new(addr),
            old_value,
            old_eid: old_eid.map(EpochId),
            was_dirty: old_eid.is_some(),
        }
    }

    #[test]
    fn first_store_creates_undo_from_persisted() {
        let (mut p, mut m) = rig();
        let d = p.on_store(&store_ev(1, 42, None), &mut m, Cycle(0));
        assert_eq!(d.new_eid, Some(EpochId(1)));
        assert_eq!(p.buffer().len(), 1);
        let e = p.buffer().entries()[0];
        assert_eq!(e.value, 42);
        assert_eq!(e.valid_from, EpochId::ZERO);
        assert_eq!(e.valid_till, EpochId(1));
    }

    #[test]
    fn transient_store_is_free() {
        let (mut p, mut m) = rig();
        p.on_store(&store_ev(1, 42, None), &mut m, Cycle(0));
        // Second store in the same epoch: tag matches SystemEID.
        let d = p.on_store(&store_ev(1, 43, Some(1)), &mut m, Cycle(5));
        assert_eq!(d.new_eid, Some(EpochId(1)));
        assert_eq!(p.buffer().len(), 1, "transient store must not log");
    }

    #[test]
    fn cross_epoch_store_uses_tagged_eid() {
        let (mut p, mut m) = rig();
        let mut hier = Hierarchy::new(&SystemConfig::paper_single_core());
        p.on_store(&store_ev(1, 10, None), &mut m, Cycle(0));
        p.on_epoch_boundary(&mut hier, &mut m, Cycle(100));
        // Now SystemEID = 2; the line is committed-modified (tag 1).
        p.on_store(&store_ev(1, 11, Some(1)), &mut m, Cycle(200));
        // Buffer was flushed at the boundary; the new entry is buffered.
        let e = p.buffer().entries()[0];
        assert_eq!(e.value, 11);
        assert_eq!(e.valid_from, EpochId(1));
        assert_eq!(e.valid_till, EpochId(2));
    }

    #[test]
    fn buffer_full_triggers_bulk_flush() {
        let (mut p, mut m) = rig();
        for i in 0..32 {
            p.on_store(&store_ev(i, i, None), &mut m, Cycle(i));
        }
        assert!(p.buffer().is_empty(), "32nd entry must flush the buffer");
        assert_eq!(m.stats().ops(AccessClass::UndoLogBulk), 1);
        assert_eq!(p.stats().buffer_flushes, 1);
        assert_eq!(p.stats().log_bytes_written, 2048);
    }

    #[test]
    fn eviction_conflict_forces_flush() {
        let (mut p, mut m) = rig();
        p.on_store(&store_ev(7, 70, None), &mut m, Cycle(0));
        let route = p.on_dirty_eviction(
            &EvictionEvent {
                addr: LineAddr::new(7),
                value: 71,
                eid: Some(EpochId(1)),
            },
            &mut m,
            Cycle(10),
        );
        assert_eq!(route, EvictRoute::InPlace);
        assert_eq!(p.stats().buffer_flushes_forced, 1);
        assert!(p.buffer().is_empty());
    }

    #[test]
    fn unrelated_eviction_does_not_flush() {
        let (mut p, mut m) = rig();
        p.on_store(&store_ev(7, 70, None), &mut m, Cycle(0));
        p.on_dirty_eviction(
            &EvictionEvent {
                addr: LineAddr::new(900_001),
                value: 1,
                eid: Some(EpochId(1)),
            },
            &mut m,
            Cycle(10),
        );
        // Almost surely no bloom collision for one entry.
        assert_eq!(p.stats().buffer_flushes_forced, 0);
        assert_eq!(p.buffer().len(), 1);
    }

    #[test]
    fn boundary_never_stalls_and_acs_trails_by_gap() {
        let (mut p, mut m) = rig();
        let mut hier = Hierarchy::new(&SystemConfig::paper_single_core());
        for i in 0..5u64 {
            let out = p.on_epoch_boundary(&mut hier, &mut m, Cycle(i * 1000));
            assert_eq!(out.stall_until, None);
            assert_eq!(out.committed, EpochId(i + 1));
        }
        // Gap 3: after committing epoch 5, epochs through 2 are persisted.
        assert_eq!(p.persisted_eid(), EpochId(2));
        assert_eq!(p.system_eid(), EpochId(6));
    }

    #[test]
    fn recovery_resumes_after_persisted() {
        let (mut p, mut m) = rig();
        let mut hier = Hierarchy::new(&SystemConfig::paper_single_core());
        p.on_store(&store_ev(3, 30, None), &mut m, Cycle(0));
        for i in 0..6u64 {
            p.on_epoch_boundary(&mut hier, &mut m, Cycle(1000 + i));
        }
        let persisted = p.persisted_eid();
        let out = p.crash_recover(&mut m, Cycle(10_000));
        assert_eq!(out.recovered_to, persisted);
        assert_eq!(p.system_eid(), persisted.next());
        assert!(p.buffer().is_empty());
    }

    #[test]
    fn bulk_acs_persists_everything_committed() {
        let (mut p, mut m) = rig();
        let mut hier = Hierarchy::new(&SystemConfig::paper_single_core());
        assert_eq!(p.bulk_acs(&mut hier, &mut m, Cycle(0)), None);
        for i in 0..4u64 {
            p.on_epoch_boundary(&mut hier, &mut m, Cycle(i));
        }
        assert_eq!(p.persisted_eid(), EpochId(1));
        let persisted = p.bulk_acs(&mut hier, &mut m, Cycle(100)).unwrap();
        assert_eq!(persisted, EpochId(4));
        assert_eq!(p.persisted_eid(), EpochId(4));
    }

    #[test]
    fn telemetry_captures_commits_drains_and_scans() {
        let (mut p, mut m) = rig();
        let mut hier = Hierarchy::new(&SystemConfig::paper_single_core());
        let t = Telemetry::new(1, 4096);
        p.attach_telemetry(t.clone());
        p.on_store(&store_ev(1, 10, None), &mut m, Cycle(0));
        for i in 0..5u64 {
            p.on_epoch_boundary(&mut hier, &mut m, Cycle((i + 1) * 100));
        }
        let snap = t.snapshot();
        let count = |name: &str| snap.events.iter().filter(|e| e.kind.name() == name).count();
        assert_eq!(count("epoch_commit"), 5);
        assert!(count("undo_drain") >= 1, "boundary flush drains the buffer");
        // Gap 3: epochs 1 and 2 persisted, each via one ACS pass.
        assert_eq!(count("epoch_persist"), 2);
        assert_eq!(count("acs_scan"), 2);
        // Gauges report buffer fill and live log bytes.
        let names: Vec<&str> = p.telemetry_gauges().iter().map(|(n, _)| *n).collect();
        assert_eq!(names, vec!["undo_buffer_fill", "log_bytes_live"]);
    }

    #[test]
    fn audit_flags_exactly_the_sabotaged_drain() {
        use picl_audit::{AuditConfig, AuditHandle, Verdict, ViolationKind};

        let (mut p, mut m) = rig();
        let t = Telemetry::new(1, 4096);
        p.attach_telemetry(t.clone());
        let audit = AuditHandle::attach(&t, AuditConfig::default());
        t.record(Cycle(0), None, EventKind::EpochBegin { eid: EpochId(1) });

        p.on_store(&store_ev(7, 70, None), &mut m, Cycle(5));
        p.sabotage_skip_next_drain();
        // The eviction's bloom check hits and forces a flush — which the
        // sabotage silently discards, leaving line 7's pre-image only in
        // the (gone) volatile entry. The hierarchy records the write-back
        // event before invoking the scheme hook; mimic that here.
        t.record(
            Cycle(10),
            None,
            EventKind::DirtyWriteback {
                addr: LineAddr::new(7),
            },
        );
        p.on_dirty_eviction(
            &EvictionEvent {
                addr: LineAddr::new(7),
                value: 71,
                eid: Some(EpochId(1)),
            },
            &mut m,
            Cycle(10),
        );

        let report = audit.report();
        assert_eq!(report.verdict, Verdict::Fail, "{report}");
        assert_eq!(report.violations.len(), 1, "{report}");
        let v = &report.violations[0];
        assert_eq!(v.kind, ViolationKind::UndoBeforeEviction);
        assert_eq!((v.cycle, v.addr), (10, Some(7)));
    }

    #[test]
    fn audit_passes_the_honest_forced_flush() {
        use picl_audit::{AuditConfig, AuditHandle, Verdict};

        let (mut p, mut m) = rig();
        let t = Telemetry::new(1, 4096);
        p.attach_telemetry(t.clone());
        let audit = AuditHandle::attach(&t, AuditConfig::default());
        t.record(Cycle(0), None, EventKind::EpochBegin { eid: EpochId(1) });

        p.on_store(&store_ev(7, 70, None), &mut m, Cycle(5));
        // Same interleaving as the sabotage test, but the forced flush
        // actually drains: the same-cycle UndoDrain covers the write-back.
        t.record(
            Cycle(10),
            None,
            EventKind::DirtyWriteback {
                addr: LineAddr::new(7),
            },
        );
        p.on_dirty_eviction(
            &EvictionEvent {
                addr: LineAddr::new(7),
                value: 71,
                eid: Some(EpochId(1)),
            },
            &mut m,
            Cycle(10),
        );

        let report = audit.report();
        assert_eq!(report.verdict, Verdict::Pass, "{report}");
    }

    #[test]
    fn gc_reclaims_after_persist() {
        let (mut p, mut m) = rig();
        let mut hier = Hierarchy::new(&SystemConfig::paper_single_core());
        // Entry in epoch 1, expires once epoch 1 persists.
        p.on_store(&store_ev(1, 10, None), &mut m, Cycle(0));
        for i in 0..4u64 {
            p.on_epoch_boundary(&mut hier, &mut m, Cycle(i * 10));
        }
        // persisted = 1 now; the <0,1> entry has till=1 <= 1: reclaimed.
        assert_eq!(p.persisted_eid(), EpochId(1));
        assert_eq!(p.stats().log_bytes_live, 0);
        assert!(p.stats().log_bytes_written > 0);
    }
}
