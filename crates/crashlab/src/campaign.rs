//! The campaign runner: shards `(scheme × benchmark × crash point)`
//! trials over the fault-isolated `picl-campaign` executor and folds the
//! verdicts into a pass/fail matrix with per-scheme RPO and
//! recovery-latency figures.
//!
//! Every benchmark gets its own point schedule (derived from the campaign
//! seed and the benchmark's index), and all schemes face the *same*
//! schedule on that benchmark — the differential part of the oracle.
//!
//! Trials run under panic isolation with optional per-cell timeouts and a
//! durable checkpoint store ([`run_campaign_with`]): a crashed or killed
//! campaign resumes from its completed trials, and a panicking trial is
//! reported in [`CampaignReport::errors`] instead of killing the batch.

use picl_campaign::{run_cells, CampaignOptions, CellOutcome};
use picl_trace::spec::SpecBenchmark;

use crate::oracle::{TrialOutcome, TrialSpec};
use crate::point::{schedule, CrashPoint, ScheduleConfig};
use crate::scheme::LabScheme;
use crate::shrink::{shrink_failure, ShrunkFailure};

/// Everything a campaign needs; two campaigns with equal configs produce
/// identical reports.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Schemes to put under the crash gun.
    pub schemes: Vec<LabScheme>,
    /// Benchmark profiles to drive traces from.
    pub benches: Vec<SpecBenchmark>,
    /// Crash points per benchmark.
    pub points: usize,
    /// Campaign seed (drives both point schedules and trace generation).
    pub seed: u64,
    /// Run budget in retired instructions; crash points fall within it.
    pub budget: u64,
    /// Epoch length in instructions.
    pub epoch_len: u64,
    /// PiCL ACS gap.
    pub acs_gap: u64,
    /// Workload footprint scale.
    pub footprint_scale: f64,
    /// Worker threads (0 = one per available core).
    pub threads: usize,
    /// Whether to bisect each failure down to a minimal reproducer.
    pub shrink_failures: bool,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            schemes: LabScheme::PROTECTED.to_vec(),
            benches: vec![SpecBenchmark::Mcf, SpecBenchmark::Gcc, SpecBenchmark::Lbm],
            points: 64,
            seed: 1,
            budget: 200_000,
            epoch_len: 25_000,
            acs_gap: 3,
            // gcc's scaled footprint keeps the LLC under conflict pressure
            // at this scale, so crash points land on real in-flight state.
            footprint_scale: 0.05,
            threads: 0,
            shrink_failures: true,
        }
    }
}

/// One `(scheme, benchmark)` cell of the matrix.
#[derive(Debug, Clone)]
pub struct CampaignCell {
    /// Scheme of this cell.
    pub scheme: LabScheme,
    /// Benchmark of this cell.
    pub bench: SpecBenchmark,
    /// Crash points that recovered correctly (or were exempt).
    pub passed: usize,
    /// Crash points tried.
    pub total: usize,
    /// Worst epochs-lost across the cell's trials.
    pub max_epochs_lost: u64,
    /// Mean epochs-lost across the cell's trials.
    pub mean_epochs_lost: f64,
    /// Mean recovery latency in cycles.
    pub mean_recovery_cycles: f64,
    /// Worst recovery latency in cycles.
    pub max_recovery_cycles: u64,
    /// Protocol-invariant violations summed across the cell's trials.
    pub violations: u64,
}

/// A failing trial, with its (possibly shrunk) reproducer.
#[derive(Debug, Clone)]
pub struct CampaignFailure {
    /// The failing spec as originally scheduled.
    pub spec: TrialSpec,
    /// The outcome at the scheduled instant.
    pub outcome: TrialOutcome,
    /// The minimized failure, when shrinking was enabled.
    pub shrunk: Option<ShrunkFailure>,
}

impl CampaignFailure {
    /// The best available one-line reproducer (shrunk when possible).
    pub fn repro_command(&self) -> String {
        match &self.shrunk {
            Some(s) => s.repro_command(),
            None => self.spec.repro_command(),
        }
    }
}

/// The folded result of a campaign.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// The config that produced this report (replayability).
    pub config: CampaignConfig,
    /// Distinct crash points per benchmark: `config.points`, or fewer
    /// when the timeline holds fewer.
    pub points: usize,
    /// One cell per `(scheme, benchmark)` pair, scheme-major.
    pub cells: Vec<CampaignCell>,
    /// Every failing trial, with reproducers.
    pub failures: Vec<CampaignFailure>,
    /// Trials that produced no verdict at all — the oracle panicked, hit
    /// its wall-clock timeout, or was skipped by an early abort. These are
    /// executor errors, not consistency verdicts, so they are reported
    /// separately rather than folded into the cells.
    pub errors: Vec<String>,
}

impl CampaignReport {
    /// Whether every trial in every cell produced a verdict and passed.
    pub fn all_passed(&self) -> bool {
        self.failures.is_empty() && self.errors.is_empty()
    }

    /// The cell for `(scheme, bench)`, if it was part of the campaign.
    pub fn cell(&self, scheme: LabScheme, bench: SpecBenchmark) -> Option<&CampaignCell> {
        self.cells
            .iter()
            .find(|c| c.scheme == scheme && c.bench == bench)
    }
}

impl std::fmt::Display for CampaignReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "crash campaign: {} scheme(s) x {} benchmark(s) x {} point(s), seed {}",
            self.config.schemes.len(),
            self.config.benches.len(),
            self.points,
            self.config.seed
        )?;
        if self.points < self.config.points {
            let (k, n) = (self.points, self.config.points);
            writeln!(f, "{k} distinct crash points ({n} requested)")?;
        }
        writeln!(
            f,
            "{:<12} {:<8} {:>9} {:>8} {:>10} {:>12} {:>12} {:>6}",
            "scheme",
            "bench",
            "passed",
            "RPO.max",
            "RPO.mean",
            "rec.mean(cy)",
            "rec.max(cy)",
            "viol"
        )?;
        for cell in &self.cells {
            let verdict = if cell.passed == cell.total {
                "ok"
            } else {
                "FAIL"
            };
            writeln!(
                f,
                "{:<12} {:<8} {:>5}/{:<3} {:>8} {:>10.2} {:>12.0} {:>12} {:>6} {}",
                cell.scheme.name(),
                cell.bench.name(),
                cell.passed,
                cell.total,
                cell.max_epochs_lost,
                cell.mean_epochs_lost,
                cell.mean_recovery_cycles,
                cell.max_recovery_cycles,
                cell.violations,
                verdict
            )?;
        }
        for error in &self.errors {
            writeln!(f, "  trial error: {error}")?;
        }
        if self.failures.is_empty() && self.errors.is_empty() {
            writeln!(f, "all crash points recovered consistently")?;
        } else if self.failures.is_empty() {
            writeln!(
                f,
                "no inconsistencies, but {} trial error(s)",
                self.errors.len()
            )?;
        } else {
            writeln!(f, "{} failing trial(s):", self.failures.len())?;
            for failure in &self.failures {
                writeln!(
                    f,
                    "  {} {} {}: {} mismatching line(s)",
                    failure.spec.scheme.name(),
                    failure.spec.bench.name(),
                    failure.spec.point,
                    failure.outcome.mismatch_count
                )?;
                writeln!(f, "    repro: {}", failure.repro_command())?;
            }
        }
        Ok(())
    }
}

/// Runs the full campaign, sharding trials over `config.threads` workers.
///
/// # Panics
///
/// Panics if the config has no schemes, benchmarks, or points, or if the
/// derived system configuration is invalid.
pub fn run_campaign(config: &CampaignConfig) -> CampaignReport {
    let opts = CampaignOptions {
        threads: config.threads,
        ..CampaignOptions::default()
    };
    run_campaign_with(config, &opts).expect("campaign without a checkpoint store cannot fail")
}

/// Runs the full campaign under an explicit executor policy: checkpoint
/// directory (resume), per-trial wall-clock timeout, fail-fast,
/// progress reporting. `opts.threads` takes precedence over
/// `config.threads` when nonzero.
///
/// # Errors
///
/// Returns a message only if the checkpoint directory is unusable.
/// Per-trial panics and timeouts land in [`CampaignReport::errors`].
///
/// # Panics
///
/// Panics if the config has no schemes, benchmarks, or points, or if the
/// derived system configuration is invalid.
pub fn run_campaign_with(
    config: &CampaignConfig,
    opts: &CampaignOptions,
) -> Result<CampaignReport, String> {
    assert!(!config.schemes.is_empty(), "no schemes to test");
    assert!(!config.benches.is_empty(), "no benchmarks to test");
    assert!(config.points > 0, "no crash points to test");

    // One schedule per benchmark, shared by every scheme on it. Every
    // schedule has the same length: it depends on the timeline alone.
    let schedules: Vec<Vec<CrashPoint>> = config
        .benches
        .iter()
        .enumerate()
        .map(|(bi, _)| {
            schedule(
                config.seed.wrapping_add(bi as u64),
                &ScheduleConfig {
                    points: config.points,
                    budget: config.budget,
                    epoch_len: config.epoch_len,
                    cores: 1,
                },
            )
        })
        .collect();
    let points = schedules[0].len();

    let mut specs = Vec::with_capacity(config.schemes.len() * config.benches.len() * points);
    for &scheme in &config.schemes {
        for (bi, &bench) in config.benches.iter().enumerate() {
            for &point in &schedules[bi] {
                specs.push(TrialSpec {
                    scheme,
                    bench,
                    epoch_len: config.epoch_len,
                    acs_gap: config.acs_gap,
                    seed: config.seed,
                    footprint_scale: config.footprint_scale,
                    point,
                });
            }
        }
    }

    let mut opts = opts.clone();
    if opts.threads == 0 {
        opts.threads = config.threads;
    }
    let run = run_cells(&specs, &opts)?;

    // Trials without a verdict (panic, timeout, abort) become executor
    // errors; everything else folds into the pass/fail matrix as before.
    let mut errors = Vec::new();
    let mut outcomes: Vec<Option<TrialOutcome>> = Vec::with_capacity(specs.len());
    for (spec, outcome) in specs.iter().zip(run.outcomes) {
        match outcome {
            CellOutcome::Done(o) | CellOutcome::Cached(o) => outcomes.push(Some(o)),
            other => {
                errors.push(format!(
                    "{} {} {}: {}",
                    spec.scheme.name(),
                    spec.bench.name(),
                    spec.point,
                    other.failure_message().unwrap_or_default()
                ));
                outcomes.push(None);
            }
        }
    }

    // Fold trials into scheme-major cells.
    let mut cells = Vec::new();
    let mut failures = Vec::new();
    for &scheme in &config.schemes {
        for &bench in &config.benches {
            let trials: Vec<(&TrialSpec, &TrialOutcome)> = specs
                .iter()
                .zip(&outcomes)
                .filter(|(s, _)| s.scheme == scheme && s.bench == bench)
                .filter_map(|(s, o)| o.as_ref().map(|o| (s, o)))
                .collect();
            let total = trials.len();
            let expects = scheme.expects_consistency();
            let mut passed = 0usize;
            let mut rpo_sum = 0u64;
            let mut rpo_max = 0u64;
            let mut rec_sum = 0u64;
            let mut rec_max = 0u64;
            let mut violations = 0u64;
            for &(spec, outcome) in &trials {
                if outcome.passed(expects) {
                    passed += 1;
                } else {
                    failures.push(CampaignFailure {
                        spec: *spec,
                        outcome: *outcome,
                        shrunk: None,
                    });
                }
                rpo_sum += outcome.epochs_lost;
                rpo_max = rpo_max.max(outcome.epochs_lost);
                rec_sum += outcome.recovery_cycles;
                rec_max = rec_max.max(outcome.recovery_cycles);
                violations += outcome.violations;
            }
            cells.push(CampaignCell {
                scheme,
                bench,
                passed,
                total,
                max_epochs_lost: rpo_max,
                mean_epochs_lost: rpo_sum as f64 / total.max(1) as f64,
                mean_recovery_cycles: rec_sum as f64 / total.max(1) as f64,
                max_recovery_cycles: rec_max,
                violations,
            });
        }
    }

    if config.shrink_failures {
        for failure in &mut failures {
            failure.shrunk = Some(shrink_failure(&failure.spec, failure.outcome));
        }
    }

    Ok(CampaignReport {
        config: config.clone(),
        points,
        cells,
        failures,
        errors,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use picl_sim::SchemeKind;

    fn small(schemes: Vec<LabScheme>) -> CampaignConfig {
        CampaignConfig {
            schemes,
            benches: vec![SpecBenchmark::Mcf],
            points: 6,
            budget: 120_000,
            ..CampaignConfig::default()
        }
    }

    #[test]
    fn campaign_is_deterministic() {
        let cfg = small(vec![LabScheme::Standard(SchemeKind::Picl)]);
        let a = run_campaign(&cfg);
        let b = run_campaign(&cfg);
        assert_eq!(a.all_passed(), b.all_passed());
        for (ca, cb) in a.cells.iter().zip(&b.cells) {
            assert_eq!(ca.passed, cb.passed);
            assert_eq!(ca.max_epochs_lost, cb.max_epochs_lost);
            assert_eq!(ca.max_recovery_cycles, cb.max_recovery_cycles);
        }
    }

    #[test]
    fn protected_scheme_passes_small_campaign() {
        let report = run_campaign(&small(vec![LabScheme::Standard(SchemeKind::Journaling)]));
        assert!(report.all_passed(), "{report}");
        let cell = report
            .cell(
                LabScheme::Standard(SchemeKind::Journaling),
                SpecBenchmark::Mcf,
            )
            .unwrap();
        assert_eq!(cell.passed, cell.total);
        assert_eq!(cell.total, 6);
    }

    #[test]
    fn short_timeline_reports_fewer_points() {
        let mut cfg = small(vec![LabScheme::Standard(SchemeKind::Picl)]);
        (cfg.points, cfg.budget, cfg.epoch_len) = (16, 8, 4);
        let report = run_campaign(&cfg);
        assert_eq!((report.points, report.cells[0].total), (12, 12));
        let text = report.to_string();
        assert!(text.contains("12 distinct crash points (16 requested)"));
    }

    #[test]
    fn resumed_campaign_matches_uninterrupted_bit_for_bit() {
        let cfg = small(vec![LabScheme::Standard(SchemeKind::Picl)]);
        let baseline = run_campaign(&cfg);

        let dir = std::env::temp_dir().join(format!("picl_crashlab_resume_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let opts = CampaignOptions {
            checkpoint: Some(dir.clone()),
            ..CampaignOptions::default()
        };
        // First launch populates the store; second launch must serve every
        // trial from it and fold the exact same report.
        let first = run_campaign_with(&cfg, &opts).unwrap();
        let resumed = run_campaign_with(&cfg, &opts).unwrap();
        for report in [&first, &resumed] {
            assert!(report.errors.is_empty(), "{report}");
            for (a, b) in baseline.cells.iter().zip(&report.cells) {
                assert_eq!(a.passed, b.passed);
                assert_eq!(a.total, b.total);
                assert_eq!(a.max_epochs_lost, b.max_epochs_lost);
                assert_eq!(a.mean_epochs_lost, b.mean_epochs_lost);
                assert_eq!(a.mean_recovery_cycles, b.mean_recovery_cycles);
                assert_eq!(a.max_recovery_cycles, b.max_recovery_cycles);
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn single_threaded_matches_pooled() {
        let mut cfg = small(vec![LabScheme::Standard(SchemeKind::Frm)]);
        let pooled = run_campaign(&cfg);
        cfg.threads = 1;
        let serial = run_campaign(&cfg);
        for (a, b) in pooled.cells.iter().zip(&serial.cells) {
            assert_eq!(a.passed, b.passed);
            assert_eq!(a.mean_recovery_cycles, b.mean_recovery_cycles);
        }
    }
}
