//! The trace-driven multicore simulator and experiment runner.
//!
//! Reproduces the paper's methodology (§VI-A): in-order cores with CPI 1
//! for non-memory instructions drive memory traces through the
//! L1/L2/LLC hierarchy into the NVM model, with one of six consistency
//! schemes observing stores, evictions, and epoch boundaries.
//!
//! * [`machine`] — the core simulation loop: per-core clocks, epoch
//!   sequencing (timer and forced early commits), stall-the-world handling,
//!   OS epoch-boundary handler stores, golden-snapshot bookkeeping, and
//!   crash injection with recovery verification.
//! * [`report`] — the per-run result record ([`RunReport`]).
//! * [`report_json`] — a dependency-free JSON codec for [`RunReport`] with
//!   an exact (bit-identical) round trip, used by campaign checkpointing.
//! * [`runner`] — builder-style configuration ([`Simulation`]), the
//!   [`SchemeKind`] registry, and the experiment matrix used by every
//!   figure-regeneration binary, executed on the fault-isolated,
//!   resumable `picl-campaign` runner.
//!
//! # Example
//!
//! ```
//! use picl_sim::{Simulation, SchemeKind};
//! use picl_trace::spec::SpecBenchmark;
//! use picl_types::SystemConfig;
//!
//! let mut cfg = SystemConfig::paper_single_core();
//! cfg.epoch.epoch_len_instructions = 100_000;
//! let report = Simulation::builder(cfg)
//!     .scheme(SchemeKind::Picl)
//!     .workload(&[SpecBenchmark::Hmmer])
//!     .instructions_per_core(200_000)
//!     .seed(7)
//!     .run()
//!     .expect("valid configuration");
//! assert!(report.commits >= 1);
//! ```

pub mod machine;
pub mod report;
pub mod report_json;
pub mod runner;

pub use machine::{CrashReport, Machine};
pub use picl_campaign::{CampaignCell, CampaignOptions, CellOutcome};
pub use report::RunReport;
pub use report_json::{decode_report, encode_report};
pub use runner::{run_experiments_with, SchemeKind, Simulation, WorkloadSpec};
