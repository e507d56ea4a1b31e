//! The durable multi-undo log (§III-D, §IV-B).
//!
//! Undo entries of *different epochs* co-mingle in one contiguous,
//! append-only NVM region, written exclusively through bulk sequential
//! flushes of the on-chip undo buffer. The log is organized in blocks (one
//! per buffer flush); each block records the maximum `ValidTill` of its
//! entries, which — because `ValidTill` values are assigned from the
//! monotonically increasing `SystemEID` — is nondecreasing along the log.
//! That monotonicity gives both cheap garbage collection (drop expired
//! prefix blocks) and the paper's early-terminating backward recovery scan,
//! both shared with the store engine ([`LogWindow`], [`rollback`]); this
//! module adds the NVM traffic they cost.

use picl_nvm::{AccessClass, Nvm};
use picl_types::undo::{rollback, LogWindow, UndoEntry, ENTRY_BYTES};
use picl_types::{Cycle, EpochId, LineAddr};

/// Line index where the simulated log region begins — far above any
/// workload footprint so log traffic has its own rows and banks.
pub const LOG_REGION_BASE_LINE: u64 = 1 << 40;

#[derive(Debug, Clone, Default)]
struct LogBlock {
    entries: Vec<UndoEntry>,
    base: LineAddr,
    bytes: u64,
}

impl AsRef<[UndoEntry]> for LogBlock {
    fn as_ref(&self) -> &[UndoEntry] {
        &self.entries
    }
}

/// Statistics of log activity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LogStats {
    /// Total bytes ever appended.
    pub bytes_written: u64,
    /// Bytes currently live (not garbage collected).
    pub bytes_live: u64,
    /// Entries ever appended.
    pub entries_written: u64,
    /// Bytes reclaimed by garbage collection.
    pub bytes_reclaimed: u64,
    /// Buffer flushes (append operations).
    pub flushes: u64,
}

/// The durable undo log resident in NVM.
#[derive(Debug, Clone, Default)]
pub struct UndoLog {
    window: LogWindow<LogBlock>,
    cursor_line: u64,
    stats: LogStats,
}

impl UndoLog {
    /// An empty log whose region starts at [`LOG_REGION_BASE_LINE`].
    pub fn new() -> Self {
        UndoLog {
            window: LogWindow::default(),
            cursor_line: LOG_REGION_BASE_LINE,
            stats: LogStats::default(),
        }
    }

    /// Appends one buffer flush as a block, issuing the bulk sequential NVM
    /// write. Returns the cycle the flush is durable.
    ///
    /// Entries must arrive in creation order (nondecreasing `ValidTill`);
    /// this is guaranteed by the undo buffer's FIFO drain.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is empty or violates `ValidTill` monotonicity
    /// with respect to previously appended blocks.
    pub fn append_flush(&mut self, entries: Vec<UndoEntry>, mem: &mut Nvm, now: Cycle) -> Cycle {
        assert!(!entries.is_empty(), "flush of zero entries");
        let (base, bytes) = self.push(entries);
        mem.write_bulk(now, base, bytes, AccessClass::UndoLogBulk)
    }

    /// Appends one entry as its own (uncoalesced) log write — the access
    /// pattern of classic undo logging (FRM), which pays a random NVM write
    /// per entry instead of PiCL's bulk flush. Returns the completion cycle.
    pub fn append_single(&mut self, entry: UndoEntry, mem: &mut Nvm, now: Cycle) -> Cycle {
        let (base, _) = self.push(vec![entry]);
        mem.write(now, base, entry.value, AccessClass::UndoLogRandom)
    }

    /// Places `entries` as the next block at the log's cursor and accounts
    /// for them. Returns the block's first line and its size in bytes.
    fn push(&mut self, entries: Vec<UndoEntry>) -> (LineAddr, u64) {
        let max_till = entries.iter().map(|e| e.valid_till).max();
        let bytes = entries.len() as u64 * ENTRY_BYTES;
        let base = LineAddr::new(self.cursor_line);
        self.cursor_line += bytes.div_ceil(64);
        self.stats.bytes_written += bytes;
        self.stats.bytes_live += bytes;
        self.stats.entries_written += entries.len() as u64;
        self.stats.flushes += 1;
        let block = LogBlock {
            entries,
            base,
            bytes,
        };
        self.window.push(max_till.expect("nonempty"), block);
        (base, bytes)
    }

    /// Reclaims expired blocks: a block is dead once its newest entry's
    /// `ValidTill` is at or before the persisted epoch — no future recovery
    /// target can need it. Returns bytes freed.
    pub fn garbage_collect(&mut self, persisted: EpochId) -> u64 {
        let freed = self.window.expire(persisted).map(|b| b.bytes).sum();
        self.stats.bytes_live -= freed;
        self.stats.bytes_reclaimed += freed;
        freed
    }

    /// The paper's crash-recovery procedure (§IV-B, [`rollback`]) with its
    /// NVM traffic: one bulk read per scanned block, then one write per
    /// entry covering `persisted`.
    ///
    /// Returns `(entries_applied, completed_at)`.
    pub fn recover(&self, mem: &mut Nvm, persisted: EpochId, now: Cycle) -> (u64, Cycle) {
        let mut applied = 0;
        let mut t = now;
        for (block, patches) in rollback(self.window.iter().rev(), persisted) {
            t = mem.read_bulk(t, block.base, block.bytes, AccessClass::RecoveryLogRead);
            for entry in patches {
                t = mem.write(t, entry.addr, entry.value, AccessClass::RecoveryPatchWrite);
                applied += 1;
            }
        }
        (applied, t)
    }

    /// Truncates the log after a completed recovery rewound the executing
    /// epoch to `persisted + 1`.
    ///
    /// Every surviving entry is dead at this point: entries with
    /// `ValidTill <= persisted` can cover no future recovery target, and
    /// entries from the rolled-back epochs are superseded — any line they
    /// protect either still holds its rolled-back value in NVM, or the
    /// first post-recovery store to it logs a fresh pre-image before the
    /// line can be written in place (the bloom-filter ordering guarantee).
    /// Keeping rolled-back entries would be *unsound*: epoch numbers are
    /// reused after recovery, so a stale entry could alias a new-timeline
    /// range with an old-timeline value.
    pub fn truncate_after_recovery(&mut self, persisted: EpochId) {
        self.window = LogWindow::new(persisted);
        self.stats.bytes_reclaimed += self.stats.bytes_live;
        self.stats.bytes_live = 0;
    }

    /// Number of live blocks.
    pub fn blocks(&self) -> usize {
        self.window.iter().len()
    }

    /// Activity statistics.
    pub fn stats(&self) -> LogStats {
        self.stats
    }

    /// Iterates over all live entries in append order (tests and tools).
    pub fn iter_entries(&self) -> impl Iterator<Item = &UndoEntry> {
        self.window.iter().flat_map(|(_, b)| b.entries.iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use picl_types::config::NvmConfig;
    use picl_types::time::ClockDomain;

    fn mem() -> Nvm {
        Nvm::new(NvmConfig::paper_nvm(), ClockDomain::from_mhz(2000))
    }

    fn e(addr: u64, value: u64, from: u64, till: u64) -> UndoEntry {
        UndoEntry::new(LineAddr::new(addr), value, EpochId(from), EpochId(till))
    }

    #[test]
    fn append_accumulates_stats() {
        let mut log = UndoLog::new();
        let mut m = mem();
        log.append_flush(vec![e(1, 10, 1, 2), e(2, 20, 1, 2)], &mut m, Cycle(0));
        let s = log.stats();
        assert_eq!(s.entries_written, 2);
        assert_eq!(s.bytes_written, 128);
        assert_eq!(s.bytes_live, 128);
        assert_eq!(s.flushes, 1);
        assert_eq!(log.blocks(), 1);
        assert_eq!(m.stats().ops(AccessClass::UndoLogBulk), 1);
    }

    #[test]
    #[should_panic(expected = "zero entries")]
    fn empty_flush_panics() {
        UndoLog::new().append_flush(vec![], &mut mem(), Cycle(0));
    }

    #[test]
    #[should_panic(expected = "monotonicity")]
    fn out_of_order_flush_panics() {
        let mut log = UndoLog::new();
        let mut m = mem();
        log.append_flush(vec![e(1, 1, 1, 5)], &mut m, Cycle(0));
        log.append_flush(vec![e(2, 2, 1, 4)], &mut m, Cycle(0));
    }

    #[test]
    fn gc_drops_expired_prefix() {
        let mut log = UndoLog::new();
        let mut m = mem();
        log.append_flush(vec![e(1, 1, 1, 2)], &mut m, Cycle(0));
        log.append_flush(vec![e(2, 2, 2, 3)], &mut m, Cycle(0));
        log.append_flush(vec![e(3, 3, 3, 9)], &mut m, Cycle(0));
        let freed = log.garbage_collect(EpochId(3));
        assert_eq!(freed, 128);
        assert_eq!(log.blocks(), 1);
        assert_eq!(log.stats().bytes_live, 64);
        assert_eq!(log.stats().bytes_reclaimed, 128);
        // A second GC at the same epoch frees nothing more.
        assert_eq!(log.garbage_collect(EpochId(3)), 0);
    }

    #[test]
    fn recovery_applies_covering_entries() {
        let mut log = UndoLog::new();
        let mut m = mem();
        // Memory currently holds the epoch-3 value of line 7.
        m.set_line(LineAddr::new(7), 33);
        // Pre-image from epoch 1, overwritten in epoch 3.
        log.append_flush(vec![e(7, 11, 1, 3)], &mut m, Cycle(0));
        let (applied, done) = log.recover(&mut m, EpochId(2), Cycle(100));
        assert_eq!(applied, 1);
        assert!(done > Cycle(100));
        assert_eq!(m.state().read_line(LineAddr::new(7)), 11);
    }

    #[test]
    fn recovery_skips_non_covering_entries() {
        let mut log = UndoLog::new();
        let mut m = mem();
        m.set_line(LineAddr::new(7), 33);
        log.append_flush(vec![e(7, 11, 1, 3)], &mut m, Cycle(0));
        // Recovering to epoch 3 itself: the entry's range [1,3) excludes 3.
        let (applied, _) = log.recover(&mut m, EpochId(3), Cycle(0));
        assert_eq!(applied, 0);
        assert_eq!(m.state().read_line(LineAddr::new(7)), 33);
    }

    #[test]
    fn oldest_entry_wins_for_same_address() {
        // The paper: "there could be multiple undo entries for the same
        // address ... but only the oldest one is valid."
        let mut log = UndoLog::new();
        let mut m = mem();
        // Line 5 was A1 (epoch 1), evicted, rewritten twice in epoch 2.
        log.append_flush(vec![e(5, 100, 1, 2)], &mut m, Cycle(0));
        log.append_flush(vec![e(5, 200, 1, 2)], &mut m, Cycle(0));
        m.set_line(LineAddr::new(5), 300);
        let (applied, _) = log.recover(&mut m, EpochId(1), Cycle(0));
        assert_eq!(applied, 2);
        assert_eq!(
            m.state().read_line(LineAddr::new(5)),
            100,
            "oldest pre-image must win"
        );
    }

    #[test]
    fn backward_scan_stops_early() {
        let mut log = UndoLog::new();
        let mut m = mem();
        log.append_flush(vec![e(1, 1, 1, 2)], &mut m, Cycle(0));
        log.append_flush(vec![e(2, 2, 4, 9)], &mut m, Cycle(0));
        m.reset_stats();
        // Target 3: first (older) block has max_till=2 <= 3, so only one
        // block is read.
        let (_, _) = log.recover(&mut m, EpochId(3), Cycle(0));
        assert_eq!(m.stats().ops(AccessClass::RecoveryLogRead), 1);
    }

    #[test]
    fn multi_epoch_comingled_recovery() {
        // Reproduces the Fig. 6 example: A,B,C written in epoch 1; A again
        // in epoch 2; C in epoch 3.
        let mut log = UndoLog::new();
        let mut m = mem();
        let (a, b, c) = (LineAddr::new(10), LineAddr::new(11), LineAddr::new(12));
        // Epoch 1 stores create undos of the initial (epoch-0) values.
        log.append_flush(
            vec![e(10, 0, 0, 1), e(11, 0, 0, 1), e(12, 0, 0, 1)],
            &mut m,
            Cycle(0),
        );
        // Epoch 2: A modified again -> undo of A1 valid [1,2).
        log.append_flush(vec![e(10, 1, 1, 2)], &mut m, Cycle(0));
        // Epoch 3: C modified -> undo of C1 valid [1,3).
        log.append_flush(vec![e(12, 1, 1, 3)], &mut m, Cycle(0));
        // Memory state after some evictions: A2, B1, C3 in place.
        m.set_line(a, 2);
        m.set_line(b, 1);
        m.set_line(c, 3);

        // Recover to commit2: expect A2, B1, C1.
        let mut m2 = m.clone();
        log.recover(&mut m2, EpochId(2), Cycle(0));
        assert_eq!(m2.state().read_line(a), 2);
        assert_eq!(m2.state().read_line(b), 1);
        assert_eq!(m2.state().read_line(c), 1);

        // Recover to commit1: expect A1, B1, C1.
        let mut m1 = m.clone();
        log.recover(&mut m1, EpochId(1), Cycle(0));
        assert_eq!(m1.state().read_line(a), 1);
        assert_eq!(m1.state().read_line(b), 1);
        assert_eq!(m1.state().read_line(c), 1);
    }

    #[test]
    fn iter_entries_in_append_order() {
        let mut log = UndoLog::new();
        let mut m = mem();
        log.append_flush(vec![e(1, 1, 1, 2)], &mut m, Cycle(0));
        log.append_flush(vec![e(2, 2, 2, 3)], &mut m, Cycle(0));
        let addrs: Vec<u64> = log.iter_entries().map(|en| en.addr.raw()).collect();
        assert_eq!(addrs, vec![1, 2]);
    }
}
