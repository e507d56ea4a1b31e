//! The streaming invariant checker: PiCL's protocol rules, validated one
//! event at a time.
//!
//! The checker consumes the normalized [`AuditEvent`] vocabulary (fed
//! either online through a telemetry sink or offline from a JSONL trace)
//! and accumulates typed [`Violation`]s with cycle/core/addr provenance.
//! Five invariant families are enforced:
//!
//! 1. **Epoch lifecycle monotonicity** (§IV-A): epoch begins and commits
//!    advance strictly by one, persists advance strictly and never pass
//!    the commit frontier.
//! 2. **Undo-before-eviction**: a dirty or ACS write-back of a line whose
//!    undo entry is still sitting *volatile* in the on-chip buffer
//!    (appended, never drained) would leave the pre-image unrecoverable.
//!    Same-cycle coverage is legal — a forced drain triggered by the very
//!    eviction lands at the same cycle, as does FRM's read-log-modify
//!    append — so a write-back is only condemned once an event strictly
//!    after its cycle (or end of stream) proves the drain never happened.
//! 3. **Multi-undo range ordering** (§III-B): every entry must satisfy
//!    `ValidFrom < ValidTill`, per-address `ValidTill` must never move
//!    backwards, and `ValidTill` must name the executing epoch.
//!    (`ValidFrom` may legally overlap downwards: a clean-line store logs
//!    from `PersistedEID`, which trails the previous entry's range.)
//! 4. **ACS-gap persist scheduling**: when configured with the PiCL
//!    `acs_gap`, the persisted frontier must trail the commit frontier by
//!    at most `gap` epochs once the warmup window has passed.
//! 5. **Recovery RPO bounds**: `RecoveryDone.recovered_to` must equal the
//!    last persisted epoch (when persists were observed) and never exceed
//!    the last committed epoch.
//!
//! The checker is deliberately lenient about what it has *not* seen: a
//! stream tapped mid-run (no initial `EpochBegin`) or a scheme that never
//! persists (the Ideal baseline) skips the checks that would need the
//! missing observations, rather than inventing violations.

use std::collections::HashMap;

use picl_telemetry::EventKind;

/// Checker configuration.
#[derive(Debug, Clone, Copy, Default)]
pub struct AuditConfig {
    /// PiCL's ACS gap: enables invariant family 4. `None` for schemes
    /// whose persist schedule is not gap-driven.
    pub acs_gap: Option<u64>,
}

/// The normalized event vocabulary the checker understands. Everything
/// else in the telemetry stream is ignored by the invariants (but not by
/// the analytics pass).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuditEvent {
    /// An epoch started executing.
    EpochBegin {
        /// The epoch now executing.
        eid: u64,
    },
    /// An epoch committed.
    EpochCommit {
        /// The committed epoch.
        eid: u64,
    },
    /// An epoch became durable.
    EpochPersist {
        /// The persisted epoch.
        eid: u64,
    },
    /// A volatile undo entry was created for a line.
    UndoEntryAppended {
        /// Covered line.
        addr: u64,
        /// Exclusive lower epoch bound.
        valid_from: u64,
        /// Inclusive upper epoch bound.
        valid_till: u64,
    },
    /// The volatile undo buffer drained (everything in it became durable).
    UndoDrain,
    /// A line was written back toward memory (dirty eviction or ACS pass).
    LineWriteback {
        /// The line written.
        addr: u64,
        /// Whether the ACS (rather than an eviction) wrote it.
        acs: bool,
    },
    /// Power failed.
    CrashInjected,
    /// Recovery started.
    RecoveryStart,
    /// Recovery finished.
    RecoveryDone {
        /// The epoch memory was restored to.
        recovered_to: u64,
    },
}

impl AuditEvent {
    /// Sink interest mask naming exactly the kinds [`AuditEvent::from_kind`]
    /// consumes; everything else is filtered before the audit lock.
    pub const INTEREST: u32 = EventKind::EPOCH_BEGIN_BIT
        | EventKind::EPOCH_COMMIT_BIT
        | EventKind::EPOCH_PERSIST_BIT
        | EventKind::UNDO_ENTRY_APPENDED_BIT
        | EventKind::UNDO_DRAIN_BIT
        | EventKind::DIRTY_WRITEBACK_BIT
        | EventKind::ACS_LINE_WRITEBACK_BIT
        | EventKind::CRASH_INJECTED_BIT
        | EventKind::RECOVERY_START_BIT
        | EventKind::RECOVERY_DONE_BIT;

    /// Maps a telemetry event into the audit vocabulary, or `None` for
    /// kinds the invariants do not consume.
    pub fn from_kind(kind: &EventKind) -> Option<AuditEvent> {
        Some(match *kind {
            EventKind::EpochBegin { eid } => AuditEvent::EpochBegin { eid: eid.raw() },
            EventKind::EpochCommit { eid } => AuditEvent::EpochCommit { eid: eid.raw() },
            EventKind::EpochPersist { eid } => AuditEvent::EpochPersist { eid: eid.raw() },
            EventKind::UndoEntryAppended {
                addr,
                valid_from,
                valid_till,
            } => AuditEvent::UndoEntryAppended {
                addr: addr.raw(),
                valid_from: valid_from.raw(),
                valid_till: valid_till.raw(),
            },
            EventKind::UndoDrain { .. } => AuditEvent::UndoDrain,
            EventKind::DirtyWriteback { addr } => AuditEvent::LineWriteback {
                addr: addr.raw(),
                acs: false,
            },
            EventKind::AcsLineWriteback { addr } => AuditEvent::LineWriteback {
                addr: addr.raw(),
                acs: true,
            },
            EventKind::CrashInjected => AuditEvent::CrashInjected,
            EventKind::RecoveryStart => AuditEvent::RecoveryStart,
            EventKind::RecoveryDone { recovered_to, .. } => AuditEvent::RecoveryDone {
                recovered_to: recovered_to.raw(),
            },
            _ => return None,
        })
    }
}

/// Which protocol rule a violation breaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViolationKind {
    /// An `EpochBegin` that is not the successor of the previous one.
    EpochBeginOutOfOrder,
    /// An `EpochCommit` out of sequence or of a non-executing epoch.
    CommitOutOfOrder,
    /// An `EpochPersist` that does not strictly advance the frontier.
    PersistOutOfOrder,
    /// An `EpochPersist` of an epoch that never committed.
    PersistBeforeCommit,
    /// A line written back while its undo entry was still volatile.
    UndoBeforeEviction,
    /// An undo entry with `valid_from >= valid_till`.
    UndoRangeInverted,
    /// A per-address `valid_till` that moved backwards.
    UndoRangeOutOfOrder,
    /// An undo entry whose `valid_till` is not the executing epoch.
    UndoRangeStale,
    /// The persisted frontier fell more than `acs_gap` behind the commits.
    AcsGapViolated,
    /// `recovered_to` disagrees with the persisted/committed frontiers.
    RpoViolated,
    /// A `RecoveryDone` with no preceding `RecoveryStart`.
    RecoveryWithoutStart,
}

impl ViolationKind {
    /// Stable snake_case name (JSON reports, CI grep).
    pub fn name(self) -> &'static str {
        match self {
            ViolationKind::EpochBeginOutOfOrder => "epoch_begin_out_of_order",
            ViolationKind::CommitOutOfOrder => "commit_out_of_order",
            ViolationKind::PersistOutOfOrder => "persist_out_of_order",
            ViolationKind::PersistBeforeCommit => "persist_before_commit",
            ViolationKind::UndoBeforeEviction => "undo_before_eviction",
            ViolationKind::UndoRangeInverted => "undo_range_inverted",
            ViolationKind::UndoRangeOutOfOrder => "undo_range_out_of_order",
            ViolationKind::UndoRangeStale => "undo_range_stale",
            ViolationKind::AcsGapViolated => "acs_gap_violated",
            ViolationKind::RpoViolated => "rpo_violated",
            ViolationKind::RecoveryWithoutStart => "recovery_without_start",
        }
    }
}

impl std::fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One protocol violation, with provenance.
#[derive(Debug, Clone)]
pub struct Violation {
    /// The broken rule.
    pub kind: ViolationKind,
    /// Cycle of the offending event.
    pub cycle: u64,
    /// Originating core, when attributable.
    pub core: Option<usize>,
    /// The line involved, for the per-address rules.
    pub addr: Option<u64>,
    /// Human-readable specifics.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] cycle {}", self.kind, self.cycle)?;
        if let Some(core) = self.core {
            write!(f, " core {core}")?;
        }
        if let Some(addr) = self.addr {
            write!(f, " line {addr}")?;
        }
        write!(f, ": {}", self.detail)
    }
}

/// The checker's judgement of a stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Every invariant held on everything observed.
    Pass,
    /// No violations, but ring overwrites dropped events — the stream is
    /// incomplete, so a clean bill of health would be a false pass.
    Inconclusive,
    /// At least one invariant was broken.
    Fail,
}

impl Verdict {
    /// Stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Pass => "pass",
            Verdict::Inconclusive => "inconclusive",
            Verdict::Fail => "fail",
        }
    }
}

impl std::fmt::Display for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// What an audit concluded.
#[derive(Debug, Clone)]
pub struct AuditReport {
    /// The overall judgement.
    pub verdict: Verdict,
    /// Every violation, in stream order.
    pub violations: Vec<Violation>,
    /// Audit-relevant events consumed.
    pub events_seen: u64,
    /// Events known to be lost to ring overwrites.
    pub dropped: u64,
}

impl std::fmt::Display for AuditReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "audit: {} ({} event(s), {} violation(s), {} dropped)",
            self.verdict,
            self.events_seen,
            self.violations.len(),
            self.dropped
        )?;
        for v in &self.violations {
            writeln!(f, "  {v}")?;
        }
        Ok(())
    }
}

/// A write-back awaiting its same-cycle grace window.
#[derive(Debug, Clone, Copy)]
struct PendingWriteback {
    addr: u64,
    cycle: u64,
    core: Option<usize>,
    acs: bool,
}

/// The streaming invariant checker.
#[derive(Debug, Clone, Default)]
pub struct Checker {
    cfg: AuditConfig,
    /// The executing epoch, from the last `EpochBegin`. `None` until one
    /// is seen (mid-run taps) and after a crash.
    current_epoch: Option<u64>,
    last_committed: Option<u64>,
    last_persisted: Option<u64>,
    recovery_started: bool,
    /// Lines whose undo entries are volatile (appended, not yet drained),
    /// mapped to the cycle of the *latest* append.
    volatile: HashMap<u64, u64>,
    /// Last `valid_till` observed per line.
    till_by_addr: HashMap<u64, u64>,
    /// Write-backs whose coverage verdict waits for the grace window.
    pending: Vec<PendingWriteback>,
    violations: Vec<Violation>,
    events_seen: u64,
    dropped: u64,
    finished: bool,
}

impl Checker {
    /// A fresh checker.
    pub fn new(cfg: AuditConfig) -> Self {
        Checker {
            cfg,
            ..Checker::default()
        }
    }

    fn violate(
        &mut self,
        kind: ViolationKind,
        cycle: u64,
        core: Option<usize>,
        addr: Option<u64>,
        detail: String,
    ) {
        self.violations.push(Violation {
            kind,
            cycle,
            core,
            addr,
            detail,
        });
    }

    /// Condemns every pending write-back whose cycle is strictly before
    /// `now` (or all of them when `now` is `None`, at end of stream) if
    /// its line is still volatile from an earlier cycle.
    fn resolve_pending(&mut self, now: Option<u64>) {
        let mut i = 0;
        while i < self.pending.len() {
            let p = self.pending[i];
            if now.is_some_and(|now| now <= p.cycle) {
                i += 1;
                continue;
            }
            if let Some(&since) = self.volatile.get(&p.addr) {
                if since < p.cycle {
                    let source = if p.acs { "ACS" } else { "eviction" };
                    self.violate(
                        ViolationKind::UndoBeforeEviction,
                        p.cycle,
                        p.core,
                        Some(p.addr),
                        format!(
                            "{source} write-back of line {} while its undo entry \
                             (appended at cycle {since}) was never drained",
                            p.addr
                        ),
                    );
                }
            }
            self.pending.swap_remove(i);
        }
    }

    /// Feeds one normalized event.
    pub fn observe(&mut self, cycle: u64, core: Option<usize>, ev: AuditEvent) {
        self.events_seen += 1;
        self.resolve_pending(Some(cycle));
        match ev {
            AuditEvent::EpochBegin { eid } => {
                if let Some(prev) = self.current_epoch {
                    if eid != prev + 1 {
                        self.violate(
                            ViolationKind::EpochBeginOutOfOrder,
                            cycle,
                            core,
                            None,
                            format!("epoch {eid} began after epoch {prev}"),
                        );
                    }
                }
                self.current_epoch = Some(eid);
            }
            AuditEvent::EpochCommit { eid } => {
                if let Some(prev) = self.last_committed {
                    if eid != prev + 1 {
                        self.violate(
                            ViolationKind::CommitOutOfOrder,
                            cycle,
                            core,
                            None,
                            format!("epoch {eid} committed after epoch {prev}"),
                        );
                    }
                }
                if let Some(cur) = self.current_epoch {
                    if eid != cur {
                        self.violate(
                            ViolationKind::CommitOutOfOrder,
                            cycle,
                            core,
                            None,
                            format!("epoch {eid} committed while epoch {cur} was executing"),
                        );
                    }
                }
                self.last_committed = Some(eid);
                if let Some(gap) = self.cfg.acs_gap {
                    if let Some(persisted) = self.last_persisted {
                        if eid > gap + 1 && persisted < eid - 1 - gap {
                            self.violate(
                                ViolationKind::AcsGapViolated,
                                cycle,
                                core,
                                None,
                                format!(
                                    "epoch {eid} committed with persist frontier at \
                                     {persisted} (ACS gap {gap} allows at most \
                                     {} open epochs)",
                                    gap + 1
                                ),
                            );
                        }
                    } else if eid > gap + 1 {
                        self.violate(
                            ViolationKind::AcsGapViolated,
                            cycle,
                            core,
                            None,
                            format!(
                                "epoch {eid} committed with no epoch persisted yet \
                                 (ACS gap {gap})"
                            ),
                        );
                    }
                }
            }
            AuditEvent::EpochPersist { eid } => {
                if let Some(prev) = self.last_persisted {
                    if eid <= prev {
                        self.violate(
                            ViolationKind::PersistOutOfOrder,
                            cycle,
                            core,
                            None,
                            format!("epoch {eid} persisted after epoch {prev}"),
                        );
                    }
                }
                match self.last_committed {
                    Some(committed) if eid > committed => self.violate(
                        ViolationKind::PersistBeforeCommit,
                        cycle,
                        core,
                        None,
                        format!("epoch {eid} persisted but only {committed} has committed"),
                    ),
                    None => self.violate(
                        ViolationKind::PersistBeforeCommit,
                        cycle,
                        core,
                        None,
                        format!("epoch {eid} persisted before any commit was observed"),
                    ),
                    _ => {}
                }
                self.last_persisted = Some(eid);
            }
            AuditEvent::UndoEntryAppended {
                addr,
                valid_from,
                valid_till,
            } => {
                if valid_from >= valid_till {
                    self.violate(
                        ViolationKind::UndoRangeInverted,
                        cycle,
                        core,
                        Some(addr),
                        format!("undo range ({valid_from}, {valid_till}] is empty"),
                    );
                }
                if let Some(&prev_till) = self.till_by_addr.get(&addr) {
                    if valid_till < prev_till {
                        self.violate(
                            ViolationKind::UndoRangeOutOfOrder,
                            cycle,
                            core,
                            Some(addr),
                            format!(
                                "valid_till {valid_till} moved backwards \
                                 (previous entry reached {prev_till})"
                            ),
                        );
                    }
                }
                if let Some(cur) = self.current_epoch {
                    if valid_till != cur {
                        self.violate(
                            ViolationKind::UndoRangeStale,
                            cycle,
                            core,
                            Some(addr),
                            format!(
                                "undo entry covers up to epoch {valid_till} but \
                                 epoch {cur} is executing"
                            ),
                        );
                    }
                }
                self.till_by_addr.insert(addr, valid_till);
                self.volatile.insert(addr, cycle);
            }
            AuditEvent::UndoDrain => {
                self.volatile.clear();
            }
            AuditEvent::LineWriteback { addr, acs } => {
                // Same-cycle coverage (a forced drain triggered by this
                // very eviction, or FRM's read-log-modify append) is
                // legal; park the verdict until the grace window closes.
                self.pending.push(PendingWriteback {
                    addr,
                    cycle,
                    core,
                    acs,
                });
            }
            AuditEvent::CrashInjected => {
                // Volatile state (including the undo buffer) is gone; the
                // recovery events that follow are judged on their own.
                self.volatile.clear();
                self.current_epoch = None;
            }
            AuditEvent::RecoveryStart => {
                self.recovery_started = true;
            }
            AuditEvent::RecoveryDone { recovered_to } => {
                if !self.recovery_started {
                    self.violate(
                        ViolationKind::RecoveryWithoutStart,
                        cycle,
                        core,
                        None,
                        "recovery finished without ever starting".into(),
                    );
                }
                self.recovery_started = false;
                match (self.last_persisted, self.last_committed) {
                    (Some(persisted), _) if recovered_to != persisted => self.violate(
                        ViolationKind::RpoViolated,
                        cycle,
                        core,
                        None,
                        format!(
                            "recovered to epoch {recovered_to} but the persisted \
                             frontier was {persisted}"
                        ),
                    ),
                    (None, Some(committed)) if recovered_to > committed => self.violate(
                        ViolationKind::RpoViolated,
                        cycle,
                        core,
                        None,
                        format!(
                            "recovered to epoch {recovered_to}, past the commit \
                             frontier {committed}"
                        ),
                    ),
                    _ => {}
                }
                // The rolled-back timeline's epoch numbers will be reused;
                // restart the lifecycle bookkeeping from the checkpoint.
                self.last_committed = Some(recovered_to);
                self.last_persisted = Some(recovered_to);
                self.till_by_addr.clear();
                self.volatile.clear();
            }
        }
    }

    /// Adds externally-known drop counts (ring overwrites). Nonzero drops
    /// downgrade a clean verdict to [`Verdict::Inconclusive`].
    pub fn note_dropped(&mut self, dropped: u64) {
        self.dropped += dropped;
    }

    /// Ends the stream: write-backs still inside their grace window are
    /// resolved now. Idempotent.
    pub fn finish(&mut self) {
        if self.finished {
            return;
        }
        self.finished = true;
        self.resolve_pending(None);
    }

    /// The verdict and violations so far. Call [`finish`](Checker::finish)
    /// first for end-of-stream resolution.
    pub fn report(&self) -> AuditReport {
        let verdict = if !self.violations.is_empty() {
            Verdict::Fail
        } else if self.dropped > 0 {
            Verdict::Inconclusive
        } else {
            Verdict::Pass
        };
        AuditReport {
            verdict,
            violations: self.violations.clone(),
            events_seen: self.events_seen,
            dropped: self.dropped,
        }
    }

    /// [`finish`](Checker::finish) on a clone, then
    /// [`report`](Checker::report): a point-in-time verdict that leaves
    /// the live checker open for more events.
    pub fn snapshot_report(&self) -> AuditReport {
        let mut probe = self.clone();
        probe.finish();
        probe.report()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interest_mask_names_exactly_the_consumed_kinds() {
        use picl_types::{Cycle, EpochId, LineAddr};
        // One representative of every EventKind variant.
        let samples = [
            EventKind::EpochBegin { eid: EpochId(1) },
            EventKind::EpochCommit { eid: EpochId(1) },
            EventKind::EpochPersist { eid: EpochId(1) },
            EventKind::BoundaryStall { until: Cycle(9) },
            EventKind::UndoEntryAppended {
                addr: LineAddr::new(1),
                valid_from: EpochId(0),
                valid_till: EpochId(1),
            },
            EventKind::UndoDrain {
                entries: 1,
                bytes: 64,
                forced: false,
            },
            EventKind::BloomCheck {
                addr: LineAddr::new(1),
                hit: false,
            },
            EventKind::AcsScan {
                target: EpochId(1),
                lines: 0,
                started: Cycle(0),
            },
            EventKind::AcsLineWriteback {
                addr: LineAddr::new(1),
            },
            EventKind::DirtyWriteback {
                addr: LineAddr::new(1),
            },
            EventKind::NvmAccess {
                class: "demand-read",
                write: false,
                bytes: 64,
                done: Cycle(9),
            },
            EventKind::CrashInjected,
            EventKind::RecoveryStart,
            EventKind::RecoveryDone {
                recovered_to: EpochId(1),
                entries: 0,
            },
            EventKind::Marker {
                name: "m",
                value: 0,
            },
        ];
        for kind in samples {
            assert_eq!(
                AuditEvent::from_kind(&kind).is_some(),
                AuditEvent::INTEREST & kind.mask_bit() != 0,
                "interest mask out of sync for {kind:?}"
            );
        }
    }

    fn run(cfg: AuditConfig, events: &[(u64, AuditEvent)]) -> AuditReport {
        let mut c = Checker::new(cfg);
        for &(cycle, ev) in events {
            c.observe(cycle, None, ev);
        }
        c.finish();
        c.report()
    }

    fn kinds(report: &AuditReport) -> Vec<ViolationKind> {
        report.violations.iter().map(|v| v.kind).collect()
    }

    #[test]
    fn clean_lifecycle_passes() {
        let report = run(
            AuditConfig::default(),
            &[
                (0, AuditEvent::EpochBegin { eid: 1 }),
                (100, AuditEvent::EpochCommit { eid: 1 }),
                (100, AuditEvent::EpochBegin { eid: 2 }),
                (150, AuditEvent::EpochPersist { eid: 1 }),
                (200, AuditEvent::EpochCommit { eid: 2 }),
                (200, AuditEvent::EpochBegin { eid: 3 }),
                (250, AuditEvent::EpochPersist { eid: 2 }),
            ],
        );
        assert_eq!(report.verdict, Verdict::Pass, "{report}");
        assert_eq!(report.events_seen, 7);
    }

    #[test]
    fn commit_gaps_and_regressions_are_flagged() {
        let report = run(
            AuditConfig::default(),
            &[
                (0, AuditEvent::EpochBegin { eid: 1 }),
                (100, AuditEvent::EpochCommit { eid: 1 }),
                (100, AuditEvent::EpochBegin { eid: 2 }),
                (200, AuditEvent::EpochCommit { eid: 3 }), // skips 2
            ],
        );
        assert_eq!(report.verdict, Verdict::Fail);
        assert!(kinds(&report).contains(&ViolationKind::CommitOutOfOrder));
    }

    #[test]
    fn persist_past_commit_frontier_is_flagged() {
        let report = run(
            AuditConfig::default(),
            &[
                (0, AuditEvent::EpochBegin { eid: 1 }),
                (100, AuditEvent::EpochCommit { eid: 1 }),
                (150, AuditEvent::EpochPersist { eid: 2 }),
            ],
        );
        assert_eq!(kinds(&report), vec![ViolationKind::PersistBeforeCommit]);
    }

    #[test]
    fn persist_regression_is_flagged() {
        let report = run(
            AuditConfig::default(),
            &[
                (100, AuditEvent::EpochCommit { eid: 1 }),
                (110, AuditEvent::EpochPersist { eid: 1 }),
                (200, AuditEvent::EpochCommit { eid: 2 }),
                (210, AuditEvent::EpochPersist { eid: 1 }),
            ],
        );
        assert!(kinds(&report).contains(&ViolationKind::PersistOutOfOrder));
    }

    #[test]
    fn undrained_entry_condemns_a_later_writeback() {
        let report = run(
            AuditConfig::default(),
            &[
                (0, AuditEvent::EpochBegin { eid: 1 }),
                (
                    10,
                    AuditEvent::UndoEntryAppended {
                        addr: 42,
                        valid_from: 0,
                        valid_till: 1,
                    },
                ),
                (
                    50,
                    AuditEvent::LineWriteback {
                        addr: 42,
                        acs: false,
                    },
                ),
                (60, AuditEvent::EpochCommit { eid: 1 }),
            ],
        );
        assert_eq!(kinds(&report), vec![ViolationKind::UndoBeforeEviction]);
        let v = &report.violations[0];
        assert_eq!(v.cycle, 50);
        assert_eq!(v.addr, Some(42));
    }

    #[test]
    fn same_cycle_forced_drain_is_legal() {
        // The PiCL forced-flush interleaving: writeback recorded first,
        // the drain it forces lands at the same cycle.
        let report = run(
            AuditConfig::default(),
            &[
                (0, AuditEvent::EpochBegin { eid: 1 }),
                (
                    10,
                    AuditEvent::UndoEntryAppended {
                        addr: 7,
                        valid_from: 0,
                        valid_till: 1,
                    },
                ),
                (
                    50,
                    AuditEvent::LineWriteback {
                        addr: 7,
                        acs: false,
                    },
                ),
                (50, AuditEvent::UndoDrain),
                (90, AuditEvent::EpochCommit { eid: 1 }),
            ],
        );
        assert_eq!(report.verdict, Verdict::Pass, "{report}");
    }

    #[test]
    fn same_cycle_append_is_legal() {
        // The FRM read-log-modify interleaving: the write-back and the
        // entry it is covered by land at the same cycle, and no drain
        // ever happens (the append itself is durable).
        let report = run(
            AuditConfig::default(),
            &[
                (0, AuditEvent::EpochBegin { eid: 1 }),
                (
                    50,
                    AuditEvent::LineWriteback {
                        addr: 9,
                        acs: false,
                    },
                ),
                (
                    50,
                    AuditEvent::UndoEntryAppended {
                        addr: 9,
                        valid_from: 0,
                        valid_till: 1,
                    },
                ),
                (
                    400,
                    AuditEvent::LineWriteback {
                        addr: 9,
                        acs: false,
                    },
                ),
                (
                    400,
                    AuditEvent::UndoEntryAppended {
                        addr: 9,
                        valid_from: 0,
                        valid_till: 1,
                    },
                ),
                (900, AuditEvent::EpochCommit { eid: 1 }),
            ],
        );
        assert_eq!(report.verdict, Verdict::Pass, "{report}");
    }

    #[test]
    fn writeback_at_stream_end_is_still_judged() {
        let mut c = Checker::new(AuditConfig::default());
        c.observe(
            10,
            None,
            AuditEvent::UndoEntryAppended {
                addr: 3,
                valid_from: 0,
                valid_till: 1,
            },
        );
        c.observe(50, None, AuditEvent::LineWriteback { addr: 3, acs: true });
        // No later event closes the grace window; finish() must.
        c.finish();
        assert_eq!(kinds(&c.report()), vec![ViolationKind::UndoBeforeEviction]);
    }

    #[test]
    fn undo_range_rules() {
        let report = run(
            AuditConfig::default(),
            &[
                (0, AuditEvent::EpochBegin { eid: 5 }),
                (
                    10,
                    AuditEvent::UndoEntryAppended {
                        addr: 1,
                        valid_from: 5,
                        valid_till: 5, // empty range
                    },
                ),
                (
                    20,
                    AuditEvent::UndoEntryAppended {
                        addr: 2,
                        valid_from: 2,
                        valid_till: 5,
                    },
                ),
                (
                    30,
                    AuditEvent::UndoEntryAppended {
                        addr: 2,
                        valid_from: 1,
                        valid_till: 4, // till moved backwards + stale
                    },
                ),
                (40, AuditEvent::UndoDrain),
            ],
        );
        let ks = kinds(&report);
        assert!(ks.contains(&ViolationKind::UndoRangeInverted), "{report}");
        assert!(ks.contains(&ViolationKind::UndoRangeOutOfOrder), "{report}");
        assert!(ks.contains(&ViolationKind::UndoRangeStale), "{report}");
    }

    #[test]
    fn downward_valid_from_overlap_is_legal() {
        // A clean-line store logs from PersistedEID, which can trail the
        // previous entry's valid_from (§III-B multi-undo).
        let report = run(
            AuditConfig::default(),
            &[
                (0, AuditEvent::EpochBegin { eid: 4 }),
                (
                    10,
                    AuditEvent::UndoEntryAppended {
                        addr: 6,
                        valid_from: 3,
                        valid_till: 4,
                    },
                ),
                (20, AuditEvent::UndoDrain),
                (100, AuditEvent::EpochCommit { eid: 4 }),
                (100, AuditEvent::EpochBegin { eid: 5 }),
                (
                    110,
                    AuditEvent::UndoEntryAppended {
                        addr: 6,
                        valid_from: 1, // below the previous from — legal
                        valid_till: 5,
                    },
                ),
                (120, AuditEvent::UndoDrain),
            ],
        );
        assert_eq!(report.verdict, Verdict::Pass, "{report}");
    }

    #[test]
    fn acs_gap_scheduling_is_enforced() {
        let gap = AuditConfig { acs_gap: Some(1) };
        // Persists trail commits by exactly the gap: fine.
        let ok = run(
            gap,
            &[
                (100, AuditEvent::EpochCommit { eid: 1 }),
                (200, AuditEvent::EpochCommit { eid: 2 }),
                (210, AuditEvent::EpochPersist { eid: 1 }),
                (300, AuditEvent::EpochCommit { eid: 3 }),
                (310, AuditEvent::EpochPersist { eid: 2 }),
            ],
        );
        assert_eq!(ok.verdict, Verdict::Pass, "{ok}");
        // The ACS never runs: epoch 3 commits with nothing persisted.
        let bad = run(
            gap,
            &[
                (100, AuditEvent::EpochCommit { eid: 1 }),
                (200, AuditEvent::EpochCommit { eid: 2 }),
                (300, AuditEvent::EpochCommit { eid: 3 }),
            ],
        );
        assert!(
            kinds(&bad).contains(&ViolationKind::AcsGapViolated),
            "{bad}"
        );
    }

    #[test]
    fn rpo_bounds_are_enforced() {
        let ok = run(
            AuditConfig::default(),
            &[
                (100, AuditEvent::EpochCommit { eid: 1 }),
                (110, AuditEvent::EpochPersist { eid: 1 }),
                (200, AuditEvent::CrashInjected),
                (200, AuditEvent::RecoveryStart),
                (300, AuditEvent::RecoveryDone { recovered_to: 1 }),
            ],
        );
        assert_eq!(ok.verdict, Verdict::Pass, "{ok}");

        let bad = run(
            AuditConfig::default(),
            &[
                (100, AuditEvent::EpochCommit { eid: 1 }),
                (110, AuditEvent::EpochPersist { eid: 1 }),
                (200, AuditEvent::CrashInjected),
                (200, AuditEvent::RecoveryStart),
                (300, AuditEvent::RecoveryDone { recovered_to: 0 }),
            ],
        );
        assert_eq!(kinds(&bad), vec![ViolationKind::RpoViolated]);

        let no_start = run(
            AuditConfig::default(),
            &[(300, AuditEvent::RecoveryDone { recovered_to: 0 })],
        );
        assert!(kinds(&no_start).contains(&ViolationKind::RecoveryWithoutStart));
    }

    #[test]
    fn commit_only_schemes_skip_persist_checks() {
        // The Ideal baseline never persists; recovery claiming the commit
        // frontier is within bounds.
        let report = run(
            AuditConfig::default(),
            &[
                (100, AuditEvent::EpochCommit { eid: 1 }),
                (200, AuditEvent::EpochCommit { eid: 2 }),
                (300, AuditEvent::CrashInjected),
                (300, AuditEvent::RecoveryStart),
                (310, AuditEvent::RecoveryDone { recovered_to: 2 }),
            ],
        );
        assert_eq!(report.verdict, Verdict::Pass, "{report}");
    }

    #[test]
    fn drops_downgrade_to_inconclusive() {
        let mut c = Checker::new(AuditConfig::default());
        c.observe(100, None, AuditEvent::EpochCommit { eid: 1 });
        c.note_dropped(5);
        c.finish();
        let report = c.report();
        assert_eq!(report.verdict, Verdict::Inconclusive);
        assert_eq!(report.dropped, 5);
    }

    #[test]
    fn violations_trump_inconclusive() {
        let mut c = Checker::new(AuditConfig::default());
        c.observe(100, None, AuditEvent::EpochCommit { eid: 1 });
        c.observe(200, None, AuditEvent::EpochCommit { eid: 5 });
        c.note_dropped(5);
        c.finish();
        assert_eq!(c.report().verdict, Verdict::Fail);
    }

    #[test]
    fn snapshot_report_leaves_the_checker_open() {
        let mut c = Checker::new(AuditConfig::default());
        c.observe(
            10,
            None,
            AuditEvent::UndoEntryAppended {
                addr: 3,
                valid_from: 0,
                valid_till: 1,
            },
        );
        c.observe(
            50,
            None,
            AuditEvent::LineWriteback {
                addr: 3,
                acs: false,
            },
        );
        // The snapshot resolves the pending write-back on a clone...
        assert_eq!(c.snapshot_report().verdict, Verdict::Fail);
        // ...but the live checker still honours a same-cycle drain.
        c.observe(50, None, AuditEvent::UndoDrain);
        c.finish();
        assert_eq!(c.report().verdict, Verdict::Pass);
    }
}
