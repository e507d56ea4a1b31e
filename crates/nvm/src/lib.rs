//! Nonvolatile main memory model.
//!
//! The paper evaluates against a byte-addressable NVM whose defining
//! property (§II-C) is that **random access is far slower than sequential
//! access**: a row-buffer miss costs 128 ns for reads and 368 ns for writes,
//! while streaming within an open 2 KB row proceeds at link bandwidth. Every
//! scheme's overhead story in the evaluation reduces to how many *extra*
//! random NVM operations it issues, so this crate carefully separates:
//!
//! * [`timing`] — when each access completes: per-bank open-row tracking,
//!   bank occupancy, shared-link occupancy, and bulk sequential writes that
//!   amortize one row activation over up to a full row of data.
//! * [`state`] — what memory *contains*: a functional line-value store
//!   ([`MainMemory`], paged at one host cache line) used for
//!   crash-injection and recovery-correctness testing; the NVM contents
//!   and every golden image the crash oracle builds share it.
//! * [`snapshot`] — the crash oracle's golden history ([`DeltaSnapshots`]):
//!   one delta per epoch commit, folded behind the persisted frontier into
//!   a base kept as an overlay on the functional contents.
//! * [`request`] — the access-class vocabulary ([`AccessClass`]) that lets
//!   the Fig. 12 harness split NVM traffic into sequential logging, random
//!   logging, and write-backs exactly as the paper does.
//!
//! [`Nvm`] bundles the three together as the single memory-system object the
//! cache hierarchy and the consistency schemes talk to, and holds the
//! golden history, if one is kept, over its contents: every functional
//! write goes through [`Nvm::set_line`], which keeps the history's
//! overlay in step.
//!
//! # Example
//!
//! ```
//! use picl_nvm::{Nvm, AccessClass};
//! use picl_types::{config::NvmConfig, time::ClockDomain, Cycle, LineAddr};
//!
//! let mut nvm = Nvm::new(NvmConfig::paper_nvm(), ClockDomain::from_mhz(2000));
//! let done = nvm.write(Cycle(0), LineAddr::new(4), 0xdead, AccessClass::WriteBack);
//! assert!(done > Cycle(0));
//! assert_eq!(nvm.state().read_line(LineAddr::new(4)), 0xdead);
//! ```

pub mod dram_buffer;
pub mod request;
pub mod snapshot;
pub mod state;
pub mod timing;

pub use dram_buffer::DramBuffer;
pub use request::{AccessClass, MemRequest, RequestKind, TrafficCategory};
pub use snapshot::DeltaSnapshots;
pub use state::MainMemory;
pub use timing::{NvmStats, NvmTiming};

use picl_telemetry::{EventKind, Telemetry};
use picl_types::time::ClockDomain;
use picl_types::{config::NvmConfig, Cycle, EpochId, LineAddr};

/// The complete memory system: timing model plus functional contents,
/// and optionally the crash oracle's golden history laid over them.
#[derive(Debug, Clone)]
pub struct Nvm {
    timing: NvmTiming,
    state: MainMemory,
    /// The golden history, whose base is an overlay on `state`; `None`
    /// unless [`Nvm::keep_golden_history`] was called.
    golden: Option<DeltaSnapshots>,
    telemetry: Telemetry,
}

impl Nvm {
    /// Creates a memory system from device parameters and the core clock.
    pub fn new(cfg: NvmConfig, clock: ClockDomain) -> Self {
        Nvm {
            timing: NvmTiming::new(cfg, clock),
            state: MainMemory::new(),
            golden: None,
            telemetry: Telemetry::off(),
        }
    }

    /// Routes request events (enqueue-to-completion spans) to `telemetry`.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    #[inline]
    fn trace_access(&self, now: Cycle, class: AccessClass, write: bool, bytes: u64, done: Cycle) {
        self.telemetry.record(
            now,
            None,
            EventKind::NvmAccess {
                class: class.name(),
                write,
                bytes,
                done,
            },
        );
    }

    /// Reads a line: returns its value and the cycle the data is available.
    pub fn read(&mut self, now: Cycle, line: LineAddr, class: AccessClass) -> (u64, Cycle) {
        let done = self.timing.access(now, &MemRequest::line_read(line, class));
        self.trace_access(now, class, false, picl_types::LINE_BYTES, done);
        (self.state.read_line(line), done)
    }

    /// Writes a line in place: updates contents, returns completion cycle.
    pub fn write(&mut self, now: Cycle, line: LineAddr, value: u64, class: AccessClass) -> Cycle {
        let done = self
            .timing
            .access(now, &MemRequest::line_write(line, class));
        self.trace_access(now, class, true, picl_types::LINE_BYTES, done);
        self.set_line(line, value);
        done
    }

    /// Sets a line's functional contents without timing an access
    /// (recovery patches, tests installing images), returning the
    /// previous value. Every functional write to the contents goes
    /// through here, so the golden history's overlay stays in step.
    #[inline]
    pub fn set_line(&mut self, line: LineAddr, value: u64) -> u64 {
        let old = self.state.write_line(line, value);
        if let Some(golden) = &mut self.golden {
            golden.contents_written(line, old, value);
        }
        old
    }

    /// Issues a bulk sequential write of `bytes` starting at `base`
    /// (for example a 2 KB undo-buffer flush). Counts as **one** NVM
    /// operation per the paper's Fig. 12 accounting. The caller is
    /// responsible for any functional contents (log payloads live in the
    /// scheme's durable log model).
    pub fn write_bulk(
        &mut self,
        now: Cycle,
        base: LineAddr,
        bytes: u64,
        class: AccessClass,
    ) -> Cycle {
        let done = self
            .timing
            .access(now, &MemRequest::bulk_write(base, bytes, class));
        self.trace_access(now, class, true, bytes, done);
        done
    }

    /// Issues a bulk sequential read (recovery log scans).
    pub fn read_bulk(
        &mut self,
        now: Cycle,
        base: LineAddr,
        bytes: u64,
        class: AccessClass,
    ) -> Cycle {
        let done = self
            .timing
            .access(now, &MemRequest::bulk_read(base, bytes, class));
        self.trace_access(now, class, false, bytes, done);
        done
    }

    /// Timing-only view (row-buffer state, occupancy, statistics).
    pub fn timing(&self) -> &NvmTiming {
        &self.timing
    }

    /// Functional contents of main memory.
    pub fn state(&self) -> &MainMemory {
        &self.state
    }

    /// Starts keeping the crash oracle's golden history over these
    /// contents, from the power-on image. Call before any write.
    pub fn keep_golden_history(&mut self) {
        self.golden = Some(DeltaSnapshots::new());
    }

    /// The golden history, or `None` if none is kept.
    #[inline]
    pub fn golden(&self) -> Option<&DeltaSnapshots> {
        self.golden.as_ref()
    }

    /// Records the commit of `epoch` in the golden history (see
    /// [`DeltaSnapshots::commit`]), then folds it through `fold_through`
    /// if given (see [`DeltaSnapshots::fold_through`]). A no-op with no
    /// history kept.
    pub fn commit_golden(
        &mut self,
        epoch: EpochId,
        delta: Vec<(LineAddr, u64)>,
        fold_through: Option<EpochId>,
    ) {
        if let Some(golden) = &mut self.golden {
            golden.commit(epoch, delta, &self.state);
            if let Some(frontier) = fold_through {
                golden.fold_through(frontier, &self.state);
            }
        }
    }

    /// Drops the golden history strictly after `epoch` (see
    /// [`DeltaSnapshots::truncate_after`]).
    pub fn truncate_golden_after(&mut self, epoch: EpochId) {
        if let Some(golden) = &mut self.golden {
            golden.truncate_after(epoch);
        }
    }

    /// The golden image of `epoch`, if reconstructible: always for
    /// [`EpochId::ZERO`] (the power-on image), and with a history kept,
    /// for every epoch it holds.
    pub fn golden_image(&self, epoch: EpochId) -> Option<MainMemory> {
        match &self.golden {
            Some(golden) => golden.reconstruct(epoch, &self.state),
            None => DeltaSnapshots::new().reconstruct(epoch, &self.state),
        }
    }

    /// The lines where the contents differ from [`Nvm::golden_image`] of
    /// `epoch`, sorted, or `None` where that image is.
    pub fn golden_mismatches(&self, epoch: EpochId) -> Option<Vec<LineAddr>> {
        match &self.golden {
            Some(golden) => golden.mismatches(epoch, &self.state),
            None => DeltaSnapshots::new().mismatches(epoch, &self.state),
        }
    }

    /// Accumulated access statistics.
    pub fn stats(&self) -> &NvmStats {
        self.timing.stats()
    }

    /// Resets statistics (e.g., after warm-up) without touching contents.
    pub fn reset_stats(&mut self) {
        self.timing.reset_stats();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nvm() -> Nvm {
        Nvm::new(NvmConfig::paper_nvm(), ClockDomain::from_mhz(2000))
    }

    #[test]
    fn write_then_read_round_trips() {
        let mut m = nvm();
        let t1 = m.write(Cycle(0), LineAddr::new(7), 99, AccessClass::WriteBack);
        let (v, t2) = m.read(t1, LineAddr::new(7), AccessClass::DemandRead);
        assert_eq!(v, 99);
        assert!(t2 > t1);
    }

    #[test]
    fn bulk_write_counts_one_op() {
        let mut m = nvm();
        m.write_bulk(Cycle(0), LineAddr::new(0), 2048, AccessClass::UndoLogBulk);
        assert_eq!(m.stats().ops(AccessClass::UndoLogBulk), 1);
    }

    #[test]
    fn stats_reset_preserves_contents() {
        let mut m = nvm();
        m.write(Cycle(0), LineAddr::new(1), 5, AccessClass::WriteBack);
        m.reset_stats();
        assert_eq!(m.stats().ops(AccessClass::WriteBack), 0);
        assert_eq!(m.state().read_line(LineAddr::new(1)), 5);
    }
}
