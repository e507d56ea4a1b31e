//! PiCL: a software-transparent, persistent cache log for NVMM.
//!
//! This crate is the paper's primary contribution: an epoch-based,
//! undo-logging checkpoint mechanism built from three ideas (§III):
//!
//! 1. **Cache-driven logging** ([`buffer`], [`bloom`]) — cache lines carry
//!    EID tags; a store to a line whose tag differs from `SystemEID` emits
//!    the pre-store data as an undo entry *from the cache*, eliminating the
//!    read-log-modify NVM access sequence. Entries coalesce in a 32-entry
//!    on-chip buffer flushed as a single 2 KB sequential NVM write; a bloom
//!    filter enforces the undo-before-eviction ordering dependency.
//! 2. **Multi-undo logging** ([`undo`], [`log`]) — undo entries carry a
//!    `(ValidFrom, ValidTill)` epoch range, so entries of multiple
//!    committed-but-unpersisted epochs co-mingle in one sequential log.
//!    [`log::UndoLog::recover`] implements the paper's backward-scan
//!    recovery, and super-block expiration drives garbage collection.
//! 3. **Asynchronous cache scan** ([`scheme`]) — at each epoch boundary the
//!    executing epoch commits without any stall; a background scan persists
//!    the epoch `ACS-gap` boundaries back by writing its still-dirty lines
//!    in place.
//!
//! The pure protocol kernel — [`epoch`] (Table I's epoch states), [`undo`]
//! (the entry and its capture rule, [`undo_range`]), [`buffer`] and
//! [`bloom`] — lives in `picl_types` so the executable store engine
//! (`picl-store`) runs the same code. This crate keeps what is specific to
//! the simulated hardware: [`scheme::Picl`] wires the kernel into the
//! [`ConsistencyScheme`](picl_cache::ConsistencyScheme) interface with cycle
//! timing, [`log`] models the durable log in simulated NVM, [`os`] models
//! the paper's OS responsibilities (log allocation, I/O buffering, the
//! epoch-boundary interrupt handler), and [`hw_cost`] reproduces the
//! Table III hardware-overhead accounting for the OpenPiton prototype.
//!
//! [`bloom`]: picl_types::bloom
//! [`buffer`]: picl_types::buffer
//! [`epoch`]: picl_types::epoch
//! [`undo`]: picl_types::undo
//! [`undo_range`]: picl_types::undo::undo_range
//!
//! # Example
//!
//! ```
//! use picl::scheme::Picl;
//! use picl_cache::ConsistencyScheme;
//! use picl_types::SystemConfig;
//!
//! let picl = Picl::new(&SystemConfig::paper_single_core());
//! assert_eq!(picl.name(), "PiCL");
//! assert_eq!(picl.system_eid().raw(), 1);
//! ```

pub mod hw_cost;
pub mod log;
pub mod os;
pub mod scheme;

pub use log::UndoLog;
pub use scheme::Picl;
