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
//! * [`state`] — what memory *contains*: a functional line-value store used
//!   for crash-injection and recovery-correctness testing, paged at one
//!   host cache line ([`CompactMemory`]) for the NVM contents and at 4 KB
//!   ([`MainMemory`]) for the full images the crash oracle builds.
//! * [`request`] — the access-class vocabulary ([`AccessClass`]) that lets
//!   the Fig. 12 harness split NVM traffic into sequential logging, random
//!   logging, and write-backs exactly as the paper does.
//!
//! [`Nvm`] bundles the three together as the single memory-system object the
//! cache hierarchy and the consistency schemes talk to.
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
pub use state::{CompactMemory, MainMemory};
pub use timing::{NvmStats, NvmTiming};

use picl_telemetry::{EventKind, Telemetry};
use picl_types::time::ClockDomain;
use picl_types::{config::NvmConfig, Cycle, LineAddr};

/// The complete memory system: timing model plus functional contents.
#[derive(Debug, Clone)]
pub struct Nvm {
    timing: NvmTiming,
    state: CompactMemory,
    telemetry: Telemetry,
}

impl Nvm {
    /// Creates a memory system from device parameters and the core clock.
    pub fn new(cfg: NvmConfig, clock: ClockDomain) -> Self {
        Nvm {
            timing: NvmTiming::new(cfg, clock),
            state: CompactMemory::new(),
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
        self.state.write_line(line, value);
        done
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
    pub fn state(&self) -> &CompactMemory {
        &self.state
    }

    /// Mutable functional contents; used by recovery to patch memory and by
    /// tests to install initial images.
    pub fn state_mut(&mut self) -> &mut CompactMemory {
        &mut self.state
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
