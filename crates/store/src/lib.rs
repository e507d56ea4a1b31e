//! `picl-store`: the PiCL protocol as an executable storage engine.
//!
//! The simulator crates model PiCL's hardware — cache epochs, the
//! multi-undo log, the ACS — to measure it. This crate *runs* it: the
//! same protocol implemented in software against a file standing in for
//! NVM, so crash consistency claims can be tortured with real `kill -9`
//! instead of simulated power failures.
//!
//! Layered bottom-up:
//!
//! - [`persist`] — the NVM medium abstraction. [`persist::PersistOps`]
//!   is the `clflush`/`sfence` seam: a real msync-backed file
//!   ([`persist::FileMedium`]), a latency-injecting wrapper
//!   ([`persist::LatencyMedium`], after Makalu's `emulate_latency_ns`),
//!   and an in-memory counting medium ([`persist::CountingMedium`]) that
//!   models adversarial power failure by dropping unfenced writes.
//! - [`layout`] — the on-media format: superblock, circular log of 4 KB
//!   blocks holding 88-byte `(ValidFrom, ValidTill)` undo entries, and
//!   the checksums that make torn writes detectable.
//! - [`engine`] — the protocol: per-line epoch tags, the 2 KB coalescing
//!   undo buffer, the background persister (the ACS), the in-order
//!   persist window, and multi-undo rollback recovery.
//! - [`slots`] — the slot-level record layout: open addressing with
//!   values spanning up to five slots via explicit continuation
//!   pointers, packed heads (only the pointers a record uses, the key at
//!   its own length, then value bytes, so an 11-byte key with a 100-byte
//!   value takes two lines), plus the optimistic (seqlock-style)
//!   concurrent lookup the serving layer builds on.
//! - [`kv`] — the KV table's public shapes ([`kv::KvPairs`], the size
//!   limits). The table lives entirely in the persistent region
//!   (software transparency: the KV layer does nothing for durability);
//!   its one front-end is `picl_serve::ServeKv`.
//! - [`workload`] — the KV operation vocabulary, the in-memory model
//!   oracle, and the seeded stream the store-vs-simulator differential
//!   runs.
//!
//! Telemetry speaks the same [`picl_telemetry::EventKind`] vocabulary as
//! the simulator, so `picl audit` checks the engine's event stream against the same
//! protocol invariants, and the crashlab differential oracle compares
//! store and simulator epoch-by-epoch.

pub mod engine;
pub mod kv;
pub mod layout;
pub mod obs;
pub mod persist;
pub mod slots;
pub mod workload;

pub use engine::{
    min_log_blocks, plan_recovery, CommitTicket, Engine, EngineConfig, EngineStats, LogPlan,
    OpenReport, StoreError,
};
pub use kv::{MAX_KEY_BYTES, MAX_VALUE_BYTES};
pub use layout::{Geometry, UndoEntry, UNDO_BUFFER_BYTES, UNDO_BUFFER_ENTRIES};
pub use obs::StoreObs;
pub use persist::{CountingMedium, FileMedium, LatencyMedium, PersistOps, PersistStats};
pub use slots::Lines;
pub use workload::{apply_to_model, generate, Model, Op};
