//! Engine-side observability: the persister and epoch-pipeline
//! instruments, registered into a [`picl_obs::MetricsRegistry`].
//!
//! The engine runs un-instrumented until [`crate::Engine::enable_obs`]
//! attaches a `StoreObs`; until then the hot paths pay one relaxed
//! `OnceLock` load per potential instrument touch.

use picl_obs::{Counter, Gauge, Histo, MetricsRegistry};

/// Handles for every engine instrument. One per engine, set once.
pub struct StoreObs {
    /// Wall time of one persister cycle (snapshot + in-place writes +
    /// fences + superblock), `picl_store_persister_cycle_ns`.
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
}

impl StoreObs {
    /// Registers the engine instrument set.
    pub fn register(reg: &MetricsRegistry) -> StoreObs {
        StoreObs {
            cycle_ns: reg.histogram(
                "picl_store_persister_cycle_ns",
                &[],
                "Wall time of one persister cycle (snapshot, in-place writes, fences, superblock).",
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
        }
    }
}
