//! Cache hierarchy with epoch-ID metadata.
//!
//! Models the paper's three-level hierarchy (Table IV): private per-core L1
//! and L2 caches and a shared, inclusive last-level cache. PiCL's hardware
//! additions live in the metadata each line carries: a dirty bit and an
//! optional epoch-ID tag (§IV-A, Fig. 5b).
//!
//! * [`mod@line`] — cache-line metadata, including the EID tag.
//! * [`packed`] — the struct-of-arrays line table the hierarchy runs on:
//!   per-line state bitfield-packed into parallel flat `u64` arrays.
//! * [`set_assoc`] — the generic set-associative LRU cache array, retained
//!   as the baselines' translation tables and as the reference structure
//!   the packed table is property-tested against.
//! * [`hierarchy`] — the multicore L1/L2/LLC composition with an
//!   MESI-lite single-owner coherence model and inclusive back-
//!   invalidation; produces the store/eviction events consistency schemes
//!   hook (Figs. 7 and 8).
//! * [`scheme`] — the [`ConsistencyScheme`] trait: the seam between the
//!   hierarchy/simulator and PiCL or any of the prior-work baselines.
//!
//! # Coherence model
//!
//! The evaluation runs *multiprogrammed* (not shared-memory) mixes, so the
//! hierarchy implements single-owner coherence: a line resides in at most
//! one core's private caches at a time; a second core's access recalls it
//! through the LLC. This preserves every event the schemes care about
//! (store hits in private caches, LLC evictions, snooped write-backs)
//! without a full MESI state machine. Within one core the hierarchy is
//! inclusive: L1 ⊆ L2, and every private line has an LLC directory entry.

pub mod hierarchy;
pub mod line;
pub mod packed;
pub mod scheme;
pub mod set_assoc;

pub use hierarchy::{AccessResult, DrainWork, Hierarchy, HierarchyStats, HitLevel};
pub use line::{CacheLineMeta, FlushLine};
pub use packed::{PackedInsertion, PackedLineCache};
pub use scheme::{
    BoundaryOutcome, ConsistencyScheme, EvictRoute, EvictionEvent, RecoveryOutcome, SchemeStats,
    StoreDirective, StoreEvent,
};
pub use set_assoc::SetAssocCache;
