//! `picl-serve`: a concurrent serving front-end for `picl-store`, plus
//! the load harness that stresses it.
//!
//! PiCL's pitch is software-transparent crash consistency under real
//! application traffic, so the store needs to be *served*, not just
//! scripted. This crate layers three things over the engine:
//!
//! - [`session`] — the serving layer. [`session::ServeKv`] shares one
//!   engine between many client sessions: lookups run lock-free against
//!   the engine's per-line seqlocked image (optimistic, version-validated
//!   record assembly with a writer-exclusion fallback), while mutations take
//!   only their key's shard lock (one lock per engine image shard,
//!   escalating to all shards in index order when a record needs lines
//!   outside its home shard). Epoch commits are group commits: the
//!   mutation that trips the cadence becomes the leader, publishes the
//!   epoch boundary under all shard locks, and waits out the §IV-A
//!   in-order window only after the other writers have been released.
//!   [`session::FsyncKv`] is the fdatasync-per-mutation baseline the
//!   benchmark compares against.
//! - [`load`] — a YCSB-style load generator: zipfian key popularity over
//!   large key spaces, A/B/C-style read/write mixes, closed-loop or
//!   open-loop (Poisson and bursty square-wave) arrivals, per-op latency
//!   into the shared log2 histogram.
//! - [`stream`] — deterministic per-session operation streams for the
//!   kill -9 torture harness: disjoint key prefixes per session, so a
//!   recovered store can be judged session-by-session against a prefix
//!   of each stream (prefix consistency within the RPO bound), and a
//!   lone session's stream at the exact op count its epoch holds.

pub mod load;
pub mod obs;
pub mod session;
pub mod stream;

pub use load::{preload, run_load, Arrival, LoadReport, LoadSpec, MixPreset, SessionLoad};
pub use obs::ServeObs;
pub use session::{Backend, FsyncKv, ServeKv};
pub use stream::{ops_through_epoch, session_model_after, session_ops, session_prefix};
