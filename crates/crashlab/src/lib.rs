//! Systematic crash-injection and differential recovery validation.
//!
//! The simulator can crash a machine (`Machine::crash`) and schemes can
//! recover (`ConsistencyScheme::crash_recover`), but one crash at one
//! instant proves little: crash-consistency bugs live at *specific*
//! interleavings. This crate turns the single-crash primitive into a
//! campaign engine:
//!
//! - [`point`] — the crash-point scheduler. Samples a replayable mix of
//!   mid-epoch, boundary-aligned, and mid-flush-window instants from the
//!   seeded [`picl_types::Rng`].
//! - [`oracle`] — the differential oracle. Runs a scheme on a trace,
//!   cuts power at a scheduled instant, recovers, and compares NVM
//!   line-for-line against the golden epoch snapshot, recording
//!   epochs-lost (the RPO) and recovery latency.
//! - [`shrink`] — the shrinker. Bisects a failing trial down to the
//!   minimal instruction budget that still reproduces it and emits a
//!   one-line reproducer.
//! - [`campaign`] — the runner. Shards `(scheme × benchmark × point)`
//!   over the fault-isolated, checkpointed `picl-campaign` executor and
//!   folds verdicts into a pass/fail matrix; interrupted campaigns resume
//!   from their completed trials.
//! - [`torture`] — process torture: `kill -9` a live `picl serve run`
//!   child, recover its store file, and judge it per session — each
//!   session's slice of the image must equal its seeded model at an op
//!   count the commit stream allows (exactly one count for a one-session
//!   child) — within the RPO bound.
//! - [`storediff`] — the store-vs-simulator differential: one logical
//!   workload through both implementations of the protocol, per-epoch
//!   undo outcomes required to match line-for-line.
//!
//! Every artifact is deterministic: a campaign replays from
//! `(seed, config)`, a single trial from its reproducer line. (The
//! process-mode kill *instant* is inherently racy — the oracle there
//! must hold for every instant, which is the point.)

pub mod campaign;
pub mod oracle;
pub mod point;
pub mod scheme;
pub mod shrink;
pub mod storediff;
pub mod torture;

pub use campaign::{
    run_campaign, run_campaign_with, CampaignCell, CampaignConfig, CampaignFailure, CampaignReport,
};
pub use oracle::{TrialOutcome, TrialSpec};
pub use picl_campaign::CampaignOptions;
pub use point::{schedule, CrashPoint, ScheduleConfig};
pub use scheme::LabScheme;
pub use shrink::{shrink_failure, ShrunkFailure};
pub use storediff::{run_store_diff, StoreDiffReport, StoreDiffSpec};
pub use torture::{
    judge_recovery, parse_commit_line, run_torture_campaign, run_trial, Judgement, KillClass,
    TortureOutcome, TortureReport, TortureSpec, Victim,
};
