//! The differential oracle: run a scheme on a workload, pull the plug at
//! a scheduled instant, and judge the recovery.
//!
//! Every trial is fully described by a [`TrialSpec`] — `(scheme,
//! benchmark, epoch parameters, seed, crash point)` — so any verdict can
//! be replayed from its one-line reproducer. Trials on the same
//! `(benchmark, seed)` see bit-identical traces regardless of scheme,
//! which is what makes cross-scheme comparison at one crash instant
//! *differential* rather than anecdotal.

use picl_sim::{Machine, WorkloadSpec};
use picl_telemetry::TelemetrySnapshot;
use picl_trace::spec::SpecBenchmark;
use picl_types::SystemConfig;

use crate::point::CrashPoint;
use crate::scheme::LabScheme;

/// A complete, replayable description of one crash trial.
#[derive(Debug, Clone, Copy)]
pub struct TrialSpec {
    /// Scheme under test.
    pub scheme: LabScheme,
    /// Single-core benchmark profile driving the trace.
    pub bench: SpecBenchmark,
    /// Epoch length in instructions.
    pub epoch_len: u64,
    /// PiCL ACS gap (ignored by other schemes).
    pub acs_gap: u64,
    /// Trace seed.
    pub seed: u64,
    /// Workload footprint scale (small scales maximize eviction churn).
    pub footprint_scale: f64,
    /// When to pull the plug.
    pub point: CrashPoint,
}

/// What one crash trial observed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrialOutcome {
    /// Instructions actually retired before the cut (>= the point's
    /// instant unless the workload ended early).
    pub instructions_run: u64,
    /// Whether recovered NVM matched the golden snapshot (`None` only if
    /// the recovered epoch was never snapshotted — itself a failure).
    pub consistent: Option<bool>,
    /// Mismatching lines after recovery.
    pub mismatch_count: usize,
    /// Epochs of committed work lost to the rollback (the RPO).
    pub epochs_lost: u64,
    /// The epoch the scheme rolled back to.
    pub recovered_to: u64,
    /// Log/table entries applied while patching memory.
    pub entries_applied: u64,
    /// Recovery latency in cycles (log scan + patching).
    pub recovery_cycles: u64,
    /// Protocol-invariant violations the online auditor observed across
    /// the run, the crash, and the recovery.
    pub violations: u64,
}

impl TrialOutcome {
    /// Whether the trial met the scheme's contract: exact recovery *and* a
    /// violation-free protocol for protected schemes, nothing asserted for
    /// unprotected ones. A scheme that recovers the right bytes while
    /// breaking the protocol (right answer by accident) fails.
    pub fn passed(&self, expects_consistency: bool) -> bool {
        !expects_consistency || (self.consistent == Some(true) && self.violations == 0)
    }
}

/// Outcomes checkpoint as one-line JSON; the round trip is exact, so a
/// resumed campaign folds the same verdicts as an uninterrupted one.
impl picl_campaign::CellPayload for TrialOutcome {
    fn encode(&self) -> String {
        let consistent = match self.consistent {
            None => "null",
            Some(true) => "true",
            Some(false) => "false",
        };
        format!(
            "{{\"instructions_run\": {}, \"consistent\": {consistent}, \
             \"mismatch_count\": {}, \"epochs_lost\": {}, \"recovered_to\": {}, \
             \"entries_applied\": {}, \"recovery_cycles\": {}, \"violations\": {}}}",
            self.instructions_run,
            self.mismatch_count,
            self.epochs_lost,
            self.recovered_to,
            self.entries_applied,
            self.recovery_cycles,
            self.violations
        )
    }

    fn decode(v: &picl_telemetry::json::Value) -> Result<TrialOutcome, String> {
        use picl_telemetry::json::Value;
        let consistent = match v.get("consistent") {
            Some(Value::Null) => None,
            Some(Value::Bool(b)) => Some(*b),
            _ => return Err("missing or non-boolean field \"consistent\"".into()),
        };
        Ok(TrialOutcome {
            instructions_run: v.field_u64("instructions_run")?,
            consistent,
            mismatch_count: v
                .get("mismatch_count")
                .and_then(Value::as_usize)
                .ok_or("missing or non-integer field \"mismatch_count\"")?,
            epochs_lost: v.field_u64("epochs_lost")?,
            recovered_to: v.field_u64("recovered_to")?,
            entries_applied: v.field_u64("entries_applied")?,
            recovery_cycles: v.field_u64("recovery_cycles")?,
            // Absent in checkpoints written before the auditor existed.
            violations: v.get("violations").and_then(Value::as_u64).unwrap_or(0),
        })
    }
}

/// Trials are campaign cells: the `Debug` rendering of the spec (scheme,
/// bench, epoch parameters, seed, crash point) is the content-hashed
/// checkpoint key, and executing the cell runs the oracle.
impl picl_campaign::CampaignCell for TrialSpec {
    type Payload = TrialOutcome;

    fn spec_string(&self) -> String {
        format!("{self:?}")
    }

    fn label(&self) -> String {
        format!(
            "{} {} {}",
            self.scheme.name(),
            self.bench.name(),
            self.point
        )
    }

    fn execute(&self) -> TrialOutcome {
        TrialSpec::execute(self)
    }
}

impl TrialSpec {
    /// Builds the machine this spec describes. Snapshots are on for a
    /// scheme that promises consistency, so its crashes are verifiable;
    /// Ideal always recovers to the power-on image, which needs no
    /// history.
    ///
    /// # Panics
    ///
    /// Panics if the derived configuration is invalid (campaign configs
    /// are validated before trials fan out).
    pub fn build_machine(&self) -> Machine {
        self.machine(self.scheme.expects_consistency())
    }

    fn machine(&self, snapshots: bool) -> Machine {
        let mut cfg = SystemConfig::paper_single_core();
        cfg.epoch.epoch_len_instructions = self.epoch_len;
        cfg.epoch.acs_gap = self.acs_gap;
        // LabScheme isn't a SchemeKind, so Simulation's builder can't carry
        // it; assemble the machine directly.
        let spec = WorkloadSpec::single(self.bench);
        cfg.cores = spec.cores();
        cfg.validate()
            .expect("campaign configuration must be valid");
        let scheme = self.scheme.build(&cfg);
        let traces = spec.build_traces(self.seed, self.footprint_scale);
        let label = spec.label().to_owned();
        Machine::new(cfg, scheme, traces, label, snapshots)
    }

    /// Runs the trial: execute to the crash instant, cut power, recover,
    /// and compare against the golden epoch snapshot.
    pub fn execute(&self) -> TrialOutcome {
        let mut machine = self.build_machine();
        self.run_to_verdict(&mut machine)
    }

    /// Like [`TrialSpec::execute`], but with telemetry on: returns the
    /// verdict plus the full event/series recording of the run, the crash,
    /// and the recovery (the `picl crashlab … --telemetry` path).
    pub fn execute_traced(
        &self,
        ring_capacity: usize,
        sample_interval: u64,
    ) -> (TrialOutcome, TelemetrySnapshot) {
        let mut machine = self.build_machine();
        let telemetry = machine.enable_telemetry(ring_capacity, sample_interval);
        let outcome = self.run_to_verdict(&mut machine);
        (outcome, telemetry.snapshot())
    }

    fn run_to_verdict(&self, machine: &mut Machine) -> TrialOutcome {
        // Every trial runs under the online protocol auditor: a scheme
        // that recovers the right bytes while violating the protocol
        // (ordering, lifecycle, RPO) still fails.
        let audit = machine.enable_audit();
        let instructions_run = machine.run_until(self.point.at());
        let committed = machine.scheme().system_eid().raw().saturating_sub(1);
        let crash_now = machine.now();
        let report = match self.point {
            CrashPoint::MidEpoch { .. } => machine.crash(),
            CrashPoint::MidBoundary { cores_done, .. } => machine.crash_mid_boundary(cores_done),
        };
        TrialOutcome {
            instructions_run,
            consistent: report.consistent,
            mismatch_count: report.mismatch_count,
            epochs_lost: committed.saturating_sub(report.outcome.recovered_to.raw()),
            recovered_to: report.outcome.recovered_to.raw(),
            entries_applied: report.outcome.entries_applied,
            recovery_cycles: report
                .outcome
                .completed_at
                .saturating_since(crash_now)
                .raw(),
            violations: audit.report().violations.len() as u64,
        }
    }

    /// The one-line reproducer: a complete `picl crashlab` invocation
    /// replaying exactly this trial.
    pub fn repro_command(&self) -> String {
        let boundary = match self.point.cores_done() {
            Some(done) => format!(" --boundary-cores {done}"),
            None => String::new(),
        };
        format!(
            "picl crashlab --schemes {} --bench {} --epoch {} --acs-gap {} \
             --seed {} --footprint-scale {} --crash-at {}{}",
            self.scheme.name(),
            self.bench.name(),
            self.epoch_len,
            self.acs_gap,
            self.seed,
            self.footprint_scale,
            self.point.at(),
            boundary
        )
    }

    /// The same spec with the crash instant moved to `at` (used by the
    /// shrinker; preserves the point class).
    pub fn with_crash_at(&self, at: u64) -> TrialSpec {
        let point = match self.point {
            CrashPoint::MidEpoch { .. } => CrashPoint::MidEpoch { at },
            CrashPoint::MidBoundary { cores_done, .. } => {
                CrashPoint::MidBoundary { at, cores_done }
            }
        };
        TrialSpec { point, ..*self }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use picl_sim::SchemeKind;
    use picl_types::EpochId;

    // gcc at footprint scale 0.05 keeps the LLC under enough conflict
    // pressure that dirty lines are evicted in-place mid-epoch — the
    // traffic an undo-based recovery must actually undo.
    fn spec(scheme: LabScheme, at: u64) -> TrialSpec {
        TrialSpec {
            scheme,
            bench: SpecBenchmark::Gcc,
            epoch_len: 25_000,
            acs_gap: 3,
            seed: 3,
            footprint_scale: 0.05,
            point: CrashPoint::MidEpoch { at },
        }
    }

    #[test]
    fn picl_trial_passes_mid_epoch() {
        let outcome = spec(LabScheme::Standard(SchemeKind::Picl), 90_000).execute();
        assert!(outcome.passed(true), "{outcome:?}");
        assert!(outcome.instructions_run >= 90_000);
    }

    #[test]
    fn broken_scheme_is_flagged() {
        // 1M instructions is 40 epochs: the golden history has folded
        // behind the persisted frontier, which must keep the claimed
        // epoch's image.
        for at in [120_000, 1_000_000] {
            let outcome = spec(LabScheme::BrokenNoUndo, at).execute();
            assert_eq!(
                outcome.consistent,
                Some(false),
                "oracle missed sabotage at {at}"
            );
            assert!(outcome.mismatch_count > 0);
        }
    }

    #[test]
    fn ideal_trial_keeps_no_history() {
        // Ideal's persisted frontier never moves, so a golden history
        // would never fold; it recovers to the power-on image, which
        // needs none, and the verdict is the one a full history gives.
        let s = spec(LabScheme::Standard(SchemeKind::Ideal), 120_000);
        let mut m = s.build_machine();
        m.run_until(120_000);
        assert!(m.scheme().system_eid().raw() > 2, "epochs committed");
        assert!(m.snapshot(EpochId(1)).is_none(), "an epoch image is held");
        assert!(m.snapshot(EpochId::ZERO).is_some());
        let lean = s.execute();
        let full = s.run_to_verdict(&mut s.machine(true));
        assert_eq!(lean, full);
        assert_eq!((lean.recovered_to, lean.consistent), (0, Some(false)));
        assert!(lean.mismatch_count > 0);
    }

    #[test]
    fn trials_are_deterministic() {
        let spec = spec(LabScheme::Standard(SchemeKind::Frm), 60_000);
        let a = spec.execute();
        let b = spec.execute();
        assert_eq!(a.instructions_run, b.instructions_run);
        assert_eq!(a.consistent, b.consistent);
        assert_eq!(a.recovered_to, b.recovered_to);
        assert_eq!(a.recovery_cycles, b.recovery_cycles);
    }

    #[test]
    fn traced_trial_matches_untraced_verdict() {
        use picl_telemetry::EventKind;
        let s = spec(LabScheme::Standard(SchemeKind::Picl), 90_000);
        let plain = s.execute();
        let (traced, snap) = s.execute_traced(1 << 16, 5_000);
        assert_eq!(plain.consistent, traced.consistent);
        assert_eq!(plain.recovered_to, traced.recovered_to);
        assert_eq!(plain.recovery_cycles, traced.recovery_cycles);
        assert!(snap
            .events
            .iter()
            .any(|e| matches!(e.kind, EventKind::CrashInjected)));
        assert!(snap
            .events
            .iter()
            .any(|e| matches!(e.kind, EventKind::RecoveryDone { .. })));
    }

    #[test]
    fn repro_command_roundtrips_fields() {
        let s = spec(LabScheme::BrokenNoUndo, 4242);
        let line = s.repro_command();
        assert!(line.contains("--schemes broken-noundo"), "{line}");
        assert!(line.contains("--crash-at 4242"), "{line}");
        assert!(!line.contains("--boundary-cores"), "{line}");
        let mid = TrialSpec {
            point: CrashPoint::MidBoundary {
                at: 7,
                cores_done: 1,
            },
            ..s
        };
        assert!(mid.repro_command().contains("--boundary-cores 1"));
    }
}
