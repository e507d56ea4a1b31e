//! Common foundation types for the PiCL reproduction.
//!
//! This crate holds the vocabulary shared by every other crate in the
//! workspace:
//!
//! * [`addr`] — strongly-typed physical addresses at byte, cache-line,
//!   sub-block, and page granularity.
//! * [`epoch`] — epoch identifiers ([`EpochId`]), the 4-bit hardware tag
//!   analysis ([`epoch::TaggedEid`]), and Table I's epoch-state tracker
//!   ([`EpochTracker`]).
//! * [`undo`], [`buffer`], [`bloom`] — the PiCL protocol kernel shared by
//!   the simulator (`picl`) and the store engine (`picl-store`): the
//!   `(ValidFrom, ValidTill)` undo entry and its capture rule
//!   ([`undo::undo_range`]), the multi-undo rollback ([`undo::rollback`])
//!   and the live-log window with its ValidTill watermark and GC
//!   ([`undo::LogWindow`]), the coalescing undo buffer, and the bloom
//!   filter that guards in-place write-backs against volatile entries.
//! * [`time`] — simulation clock types ([`Cycle`]) and nanosecond/cycle
//!   conversion at a configured core frequency.
//! * [`config`] — the system configuration mirroring Table IV of the paper,
//!   with a builder for sensitivity sweeps.
//! * [`stats`] — counters and small numeric helpers (geometric mean etc.)
//!   used by run reports.
//! * [`rng`] — a deterministic, dependency-free PRNG (SplitMix64 seeded
//!   xoshiro256**) plus Zipf sampling, so identical seeds reproduce
//!   identical experiments bit-for-bit.
//!
//! # Example
//!
//! ```
//! use picl_types::{Address, LineAddr, config::SystemConfig};
//!
//! let cfg = SystemConfig::paper_single_core();
//! let a = Address::new(0x1040);
//! let line: LineAddr = a.line();
//! assert_eq!(line.base().raw(), 0x1040 & !63);
//! assert_eq!(cfg.cores, 1);
//! ```

pub mod addr;
pub mod bloom;
pub mod buffer;
pub mod config;
pub mod epoch;
pub mod hash;
pub mod rng;
pub mod stats;
pub mod time;
pub mod undo;

pub use addr::{
    Address, LineAddr, PageAddr, SubBlockAddr, LINE_BYTES, PAGE_BYTES, SUB_BLOCK_BYTES,
};
pub use bloom::BloomFilter;
pub use buffer::UndoBuffer;
pub use config::SystemConfig;
pub use epoch::{EpochId, EpochTracker};
pub use rng::Rng;
pub use time::Cycle;
pub use undo::UndoEntry;

/// Identifier of a core (hardware thread) in the simulated system.
///
/// Cores are numbered densely from zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct CoreId(pub usize);

impl CoreId {
    /// Returns the raw index of this core.
    pub fn index(self) -> usize {
        self.0
    }
}

impl std::fmt::Display for CoreId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "core{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn core_id_display() {
        assert_eq!(CoreId(3).to_string(), "core3");
        assert_eq!(CoreId(3).index(), 3);
    }

    #[test]
    fn core_id_ordering() {
        assert!(CoreId(0) < CoreId(1));
        assert_eq!(CoreId::default(), CoreId(0));
    }
}
