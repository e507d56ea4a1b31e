//! Engine-side observability: the persister and epoch-pipeline
//! instruments, registered into a [`picl_obs::MetricsRegistry`].
//!
//! The engine runs un-instrumented until [`crate::Engine::enable_obs`]
//! attaches a `StoreObs`; until then the hot paths pay one relaxed
//! `OnceLock` load per potential instrument touch.
//!
//! The protocol mutex carries wait and hold timers per call site. A
//! writer takes it on every line write, so writer acquisitions are timed
//! on a 1-in-8 sample per thread; commits and the persister take it a few
//! times per epoch and are timed every time.

use std::cell::Cell;

use picl_obs::{Counter, Gauge, Histo, MetricsRegistry, OpClock};

/// Writer acquisitions of the protocol mutex: one in this many is timed.
pub(crate) const WRITER_SAMPLE_EVERY: u64 = 8;

thread_local! {
    /// Per-thread decision counter for the writer timing sample.
    static WRITER_TICK: Cell<u64> = const { Cell::new(0) };
}

/// Where the protocol mutex is taken: the `site` label of
/// `picl_store_mutex_wait_ns` and `picl_store_mutex_hold_ns`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LockSite {
    /// A line write: the undo append, any drain it fills, the image update.
    Writer,
    /// A commit's phase one: the boundary drain and the epoch hand-off.
    Commit,
    /// The persister's bloom probe over its copied lines, with the seal on
    /// a hit.
    PersisterProbe,
    /// The persister reading the superblock's fields, and advancing the
    /// persist frontier once the superblock is durable.
    PersisterFrontier,
}

impl LockSite {
    /// Every site, in label order.
    pub(crate) const ALL: [LockSite; 4] = [
        LockSite::Writer,
        LockSite::Commit,
        LockSite::PersisterProbe,
        LockSite::PersisterFrontier,
    ];

    /// The `site` label value.
    pub(crate) fn label(self) -> &'static str {
        match self {
            LockSite::Writer => "writer",
            LockSite::Commit => "commit",
            LockSite::PersisterProbe => "persister_probe",
            LockSite::PersisterFrontier => "persister_frontier",
        }
    }
}

/// Wait and hold timers for one [`LockSite`].
pub(crate) struct MutexTimers {
    /// Time from asking for the mutex to holding it,
    /// `picl_store_mutex_wait_ns{site}`.
    pub(crate) wait_ns: Histo,
    /// Time the mutex was held, `picl_store_mutex_hold_ns{site}`. A
    /// condvar wait ends one hold; the reacquired mutex starts the next.
    pub(crate) hold_ns: Histo,
}

/// Handles for every engine instrument. One per engine, set once.
pub struct StoreObs {
    /// Wall time of one persister cycle (copy, probe, in-place writes,
    /// fences, superblock), `picl_store_persister_cycle_ns`.
    pub cycle_ns: Histo,
    /// Committed epochs retired per persister cycle (the backlog the
    /// batched fence amortizes over), `picl_store_persister_backlog_epochs`.
    pub backlog_epochs: Histo,
    /// In-place line write-backs, `picl_store_persister_lines_total`.
    pub lines_written: Counter,
    /// Media fences issued (drains + persist cycles),
    /// `picl_store_fences_total`.
    pub fences: Counter,
    /// Drains forced by a persister bloom hit,
    /// `picl_store_forced_drains_total`.
    pub forced_drains: Counter,
    /// Time a committer spent blocked on the §IV-A in-order window,
    /// `picl_store_window_wait_ns`.
    pub window_wait_ns: Histo,
    /// Epochs not yet persisted, including the executing one
    /// (executing minus persisted), `picl_store_open_epochs`.
    pub open_epochs: Gauge,
    /// Committed-but-unpersisted epochs (`committed - persisted`, the
    /// quantity the window bounds), `picl_store_window_occupancy`.
    pub window_occupancy: Gauge,
    /// Undo entries sitting in the volatile coalescing buffer,
    /// `picl_store_undo_buffer_fill`.
    pub undo_buffer_fill: Gauge,
    /// Live (un-GCed) log blocks, `picl_store_log_blocks_live`.
    pub log_blocks_live: Gauge,
    /// Cheap timestamps for the protocol-mutex timers.
    pub(crate) clock: OpClock,
    /// Protocol-mutex timers, indexed by [`LockSite`] in
    /// [`LockSite::ALL`] order.
    pub(crate) mutex: [MutexTimers; 4],
}

impl StoreObs {
    /// Registers the engine instrument set.
    pub fn register(reg: &MetricsRegistry) -> StoreObs {
        StoreObs {
            cycle_ns: reg.histogram(
                "picl_store_persister_cycle_ns",
                &[],
                "Wall time of one persister cycle (copy, probe, in-place writes, fences, superblock).",
            ),
            backlog_epochs: reg.histogram(
                "picl_store_persister_backlog_epochs",
                &[],
                "Committed epochs retired per persister cycle.",
            ),
            lines_written: reg.counter(
                "picl_store_persister_lines_total",
                &[],
                "In-place line write-backs by the persister.",
            ),
            fences: reg.counter(
                "picl_store_fences_total",
                &[],
                "Media fences issued by drains and persist cycles.",
            ),
            forced_drains: reg.counter(
                "picl_store_forced_drains_total",
                &[],
                "Undo-buffer drains forced by a persister bloom hit.",
            ),
            window_wait_ns: reg.histogram(
                "picl_store_window_wait_ns",
                &[],
                "Time committers spent blocked on the in-order window.",
            ),
            open_epochs: reg.gauge(
                "picl_store_open_epochs",
                &[],
                "Epochs not yet persisted, including the executing one.",
            ),
            window_occupancy: reg.gauge(
                "picl_store_window_occupancy",
                &[],
                "Committed-but-unpersisted epochs (bounded by the in-order window).",
            ),
            undo_buffer_fill: reg.gauge(
                "picl_store_undo_buffer_fill",
                &[],
                "Undo entries in the volatile coalescing buffer.",
            ),
            log_blocks_live: reg.gauge(
                "picl_store_log_blocks_live",
                &[],
                "Live (un-garbage-collected) undo log blocks.",
            ),
            clock: OpClock::calibrate(),
            mutex: LockSite::ALL.map(|site| MutexTimers {
                wait_ns: reg.histogram(
                    "picl_store_mutex_wait_ns",
                    &[("site", site.label())],
                    "Time spent waiting for the engine's protocol mutex, by call site \
                     (writer acquisitions sampled 1 in 8).",
                ),
                hold_ns: reg.histogram(
                    "picl_store_mutex_hold_ns",
                    &[("site", site.label())],
                    "Time the engine's protocol mutex was held, by call site \
                     (writer acquisitions sampled 1 in 8).",
                ),
            }),
        }
    }

    /// The timers for `site`.
    pub(crate) fn mutex(&self, site: LockSite) -> &MutexTimers {
        &self.mutex[site as usize]
    }

    /// Whether this acquisition at `site` is timed. Writers pay one
    /// thread-local bump and a mask test; every other site is timed.
    #[inline]
    pub(crate) fn sampled(&self, site: LockSite) -> bool {
        site != LockSite::Writer
            || WRITER_TICK.with(|t| {
                let v = t.get();
                t.set(v.wrapping_add(1));
                v % WRITER_SAMPLE_EVERY == 0
            })
    }
}
