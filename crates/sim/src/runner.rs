//! Simulation configuration and the experiment matrix.

use picl::Picl;
use picl_baselines::{Frm, IdealNvm, Journaling, ShadowPaging, ThyNvm};
use picl_cache::ConsistencyScheme;
use picl_trace::mixes::WorkloadMix;
use picl_trace::spec::SpecBenchmark;
use picl_trace::TraceSource;
use picl_types::{config::ConfigError, SystemConfig};

use crate::machine::Machine;
use crate::report::RunReport;

/// Byte spacing between per-core address spaces in multiprogram runs.
const CORE_ADDRESS_STRIDE: u64 = 1 << 34;

/// The six schemes the evaluation compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchemeKind {
    /// No crash consistency (normalization baseline).
    Ideal,
    /// Redo logging with a translation table.
    Journaling,
    /// Page-granularity copy-on-write redo.
    Shadow,
    /// Classic undo logging (read-log-modify).
    Frm,
    /// Dual-granularity redo with single-checkpoint overlap.
    ThyNvm,
    /// This paper's scheme.
    Picl,
}

impl SchemeKind {
    /// All schemes in the paper's figure order (Ideal first as baseline).
    pub const ALL: [SchemeKind; 6] = [
        SchemeKind::Ideal,
        SchemeKind::Journaling,
        SchemeKind::Shadow,
        SchemeKind::Frm,
        SchemeKind::ThyNvm,
        SchemeKind::Picl,
    ];

    /// Instantiates the scheme for a configuration.
    pub fn build(self, cfg: &SystemConfig) -> Box<dyn ConsistencyScheme + Send> {
        match self {
            SchemeKind::Ideal => Box::new(IdealNvm::new()),
            SchemeKind::Journaling => Box::new(Journaling::new(&cfg.table)),
            SchemeKind::Shadow => Box::new(ShadowPaging::new(&cfg.table)),
            SchemeKind::Frm => Box::new(Frm::new()),
            SchemeKind::ThyNvm => Box::new(ThyNvm::new(&cfg.table)),
            SchemeKind::Picl => Box::new(Picl::new(cfg)),
        }
    }

    /// Display name matching the paper's legends.
    pub fn name(self) -> &'static str {
        match self {
            SchemeKind::Ideal => "Ideal",
            SchemeKind::Journaling => "Journaling",
            SchemeKind::Shadow => "Shadow",
            SchemeKind::Frm => "FRM",
            SchemeKind::ThyNvm => "ThyNVM",
            SchemeKind::Picl => "PiCL",
        }
    }
}

impl std::fmt::Display for SchemeKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A cloneable description of what each core runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkloadSpec {
    label: String,
    benches: Vec<SpecBenchmark>,
}

impl WorkloadSpec {
    /// A single-program workload (one core).
    pub fn single(bench: SpecBenchmark) -> Self {
        WorkloadSpec {
            label: bench.name().to_owned(),
            benches: vec![bench],
        }
    }

    /// A Table V multiprogram mix (eight cores).
    pub fn mix(mix: &WorkloadMix) -> Self {
        WorkloadSpec {
            label: mix.name.to_owned(),
            benches: mix.programs.to_vec(),
        }
    }

    /// An explicit per-core benchmark assignment.
    ///
    /// # Panics
    ///
    /// Panics if `benches` is empty.
    pub fn per_core(label: impl Into<String>, benches: Vec<SpecBenchmark>) -> Self {
        assert!(!benches.is_empty(), "need at least one program");
        WorkloadSpec {
            label: label.into(),
            benches,
        }
    }

    /// Human-readable label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Number of cores this workload occupies.
    pub fn cores(&self) -> usize {
        self.benches.len()
    }

    /// Builds the per-core trace sources, each in a private address space.
    pub fn build_traces(
        &self,
        seed: u64,
        footprint_scale: f64,
    ) -> Vec<Box<dyn TraceSource + Send>> {
        self.benches
            .iter()
            .enumerate()
            .map(|(i, b)| {
                let profile = b.profile().scaled(footprint_scale);
                let gen = picl_trace::spec::ProfileGen::new(
                    profile,
                    seed ^ (i as u64).wrapping_mul(0xA5A5_A5A5_A5A5),
                )
                .with_base(i as u64 * CORE_ADDRESS_STRIDE);
                Box::new(gen) as Box<dyn TraceSource + Send>
            })
            .collect()
    }
}

/// Builder for one simulation run.
///
/// # Example
///
/// ```
/// use picl_sim::{Simulation, SchemeKind};
/// use picl_trace::spec::SpecBenchmark;
/// use picl_types::SystemConfig;
///
/// let mut cfg = SystemConfig::paper_single_core();
/// cfg.epoch.epoch_len_instructions = 50_000;
/// let report = Simulation::builder(cfg)
///     .scheme(SchemeKind::Frm)
///     .workload(&[SpecBenchmark::Povray])
///     .instructions_per_core(100_000)
///     .run()
///     .expect("valid configuration");
/// assert_eq!(report.scheme, "FRM");
/// ```
#[derive(Debug, Clone)]
pub struct Simulation {
    cfg: SystemConfig,
    scheme: SchemeKind,
    spec: WorkloadSpec,
    instructions_per_core: u64,
    seed: u64,
    footprint_scale: f64,
    keep_snapshots: bool,
    reference_mode: bool,
}

impl Simulation {
    /// Starts configuring a run on `cfg`.
    pub fn builder(cfg: SystemConfig) -> Simulation {
        Simulation {
            cfg,
            scheme: SchemeKind::Picl,
            spec: WorkloadSpec::single(SpecBenchmark::Bzip2),
            instructions_per_core: 1_000_000,
            seed: 0,
            footprint_scale: 1.0,
            keep_snapshots: false,
            reference_mode: false,
        }
    }

    /// Selects the consistency scheme (default: PiCL).
    pub fn scheme(mut self, scheme: SchemeKind) -> Simulation {
        self.scheme = scheme;
        self
    }

    /// Assigns one benchmark per core; the core count of the configuration
    /// is adjusted to match (default: one core of bzip2).
    pub fn workload(mut self, benches: &[SpecBenchmark]) -> Simulation {
        self.spec = WorkloadSpec::per_core(
            benches
                .iter()
                .map(|b| b.name())
                .collect::<Vec<_>>()
                .join("+"),
            benches.to_vec(),
        );
        self
    }

    /// Uses a prebuilt workload specification.
    pub fn workload_spec(mut self, spec: WorkloadSpec) -> Simulation {
        self.spec = spec;
        self
    }

    /// Instructions each core must retire (default: 1 M).
    pub fn instructions_per_core(mut self, n: u64) -> Simulation {
        self.instructions_per_core = n;
        self
    }

    /// Experiment seed (default: 0).
    pub fn seed(mut self, seed: u64) -> Simulation {
        self.seed = seed;
        self
    }

    /// Scales workload footprints (trade memory for speed; default 1.0).
    pub fn footprint_scale(mut self, scale: f64) -> Simulation {
        self.footprint_scale = scale;
        self
    }

    /// Keeps golden per-epoch snapshots for crash verification (off by
    /// default: snapshots of large footprints are memory-hungry).
    pub fn keep_snapshots(mut self, keep: bool) -> Simulation {
        self.keep_snapshots = keep;
        self
    }

    /// Runs on the unoptimized reference paths (full-scan drains, a golden
    /// chain that never folds). Reports must be identical either way;
    /// `picl bench` checks that, and the images of every epoch both
    /// machines hold.
    pub fn reference_mode(mut self, on: bool) -> Simulation {
        self.reference_mode = on;
        self
    }

    /// Builds the machine without running it (for crash-injection tests).
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if the system configuration is invalid.
    pub fn into_machine(self) -> Result<Machine, ConfigError> {
        let mut cfg = self.cfg;
        cfg.cores = self.spec.cores();
        cfg.validate()?;
        let scheme = self.scheme.build(&cfg);
        let traces = self.spec.build_traces(self.seed, self.footprint_scale);
        let mut machine = Machine::new(cfg, scheme, traces, self.spec.label(), self.keep_snapshots);
        if self.reference_mode {
            machine.set_reference_mode(true);
        }
        Ok(machine)
    }

    /// Runs the simulation to completion.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if the system configuration is invalid.
    pub fn run(self) -> Result<RunReport, ConfigError> {
        Ok(self.run_machine()?.report())
    }

    /// Runs the simulation to completion and returns the machine, for
    /// callers that inspect more than its report.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if the system configuration is invalid.
    pub fn run_machine(self) -> Result<Machine, ConfigError> {
        let budget = self.instructions_per_core;
        let mut machine = self.into_machine()?;
        machine.run(budget);
        Ok(machine)
    }
}

/// A simulation is a campaign cell: the `Debug` rendering of the whole
/// builder is the content-hashed spec (any field change re-runs the cell),
/// and the payload is the [`RunReport`] JSON codec.
impl picl_campaign::CampaignCell for Simulation {
    type Payload = RunReport;

    fn spec_string(&self) -> String {
        format!("{self:?}")
    }

    fn label(&self) -> String {
        format!("{} on {}", self.scheme.name(), self.spec.label())
    }

    fn execute(&self) -> RunReport {
        self.clone()
            .run()
            .expect("experiment configuration must be valid")
    }
}

/// Runs a batch of experiments under a campaign policy — worker threads,
/// checkpoint directory and resume, per-cell timeout, progress reporting
/// — returning reports in the input order. Cells are fault-isolated: one
/// panicking experiment does not kill its siblings.
///
/// # Errors
///
/// Returns an aggregate message naming every cell that failed, timed out,
/// or was skipped by an early abort; completed cells are still durable in
/// the checkpoint store (when one is configured), so a re-launch with the
/// same options re-runs only the missing cells.
pub fn run_experiments_with(
    experiments: &[Simulation],
    opts: &picl_campaign::CampaignOptions,
) -> Result<Vec<RunReport>, String> {
    picl_campaign::run_cells(experiments, opts)?.payloads()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> SystemConfig {
        let mut cfg = SystemConfig::paper_single_core();
        cfg.epoch.epoch_len_instructions = 20_000;
        cfg
    }

    #[test]
    fn scheme_kind_registry() {
        assert_eq!(SchemeKind::ALL.len(), 6);
        let cfg = SystemConfig::paper_single_core();
        for kind in SchemeKind::ALL {
            let scheme = kind.build(&cfg);
            assert_eq!(scheme.name(), kind.name());
            assert_eq!(kind.to_string(), kind.name());
        }
    }

    #[test]
    fn reference_mode_reports_identical() {
        // The end-to-end form of the differential guarantee `picl bench`
        // enforces per cell: optimized fast paths vs full-scan reference.
        for kind in SchemeKind::ALL {
            let run = |reference: bool| {
                Simulation::builder(quick_cfg())
                    .scheme(kind)
                    .workload(&[SpecBenchmark::Gcc])
                    .instructions_per_core(30_000)
                    .footprint_scale(0.05)
                    .keep_snapshots(true)
                    .reference_mode(reference)
                    .run()
                    .unwrap()
            };
            assert_eq!(run(false), run(true), "{kind:?} diverged");
        }
    }

    #[test]
    fn workload_spec_constructors() {
        let single = WorkloadSpec::single(SpecBenchmark::Mcf);
        assert_eq!(single.cores(), 1);
        assert_eq!(single.label(), "mcf");

        let mixes = picl_trace::mixes::table_v_mixes();
        let mix = WorkloadSpec::mix(&mixes[2]);
        assert_eq!(mix.cores(), 8);
        assert_eq!(mix.label(), "W2");
    }

    #[test]
    fn traces_live_in_disjoint_address_spaces() {
        let spec = WorkloadSpec::per_core("t", vec![SpecBenchmark::Gamess, SpecBenchmark::Gamess]);
        let mut traces = spec.build_traces(1, 0.01);
        let a = traces[0].next_event().addr.raw();
        let b = traces[1].next_event().addr.raw();
        assert!(b >= CORE_ADDRESS_STRIDE);
        assert!(a < CORE_ADDRESS_STRIDE);
    }

    #[test]
    fn builder_runs_end_to_end() {
        let report = Simulation::builder(quick_cfg())
            .scheme(SchemeKind::Picl)
            .workload(&[SpecBenchmark::Povray])
            .instructions_per_core(50_000)
            .footprint_scale(0.05)
            .seed(3)
            .run()
            .unwrap();
        assert_eq!(report.scheme, "PiCL");
        assert_eq!(report.workload, "povray");
        assert!(report.instructions >= 50_000);
        assert!(report.commits >= 1);
    }

    #[test]
    fn invalid_config_is_reported() {
        let mut cfg = quick_cfg();
        cfg.epoch.epoch_len_instructions = 0;
        let err = Simulation::builder(cfg)
            .workload(&[SpecBenchmark::Povray])
            .run()
            .unwrap_err();
        assert_eq!(err.component(), "epoch");
    }

    #[test]
    fn experiment_matrix_preserves_order() {
        let experiments: Vec<Simulation> = [SchemeKind::Ideal, SchemeKind::Picl, SchemeKind::Frm]
            .into_iter()
            .map(|scheme| {
                Simulation::builder(quick_cfg())
                    .scheme(scheme)
                    .workload(&[SpecBenchmark::Povray])
                    .instructions_per_core(30_000)
                    .seed(1)
                    .footprint_scale(0.05)
            })
            .collect();
        let opts = picl_campaign::CampaignOptions {
            threads: 3,
            ..picl_campaign::CampaignOptions::default()
        };
        let reports = run_experiments_with(&experiments, &opts).unwrap();
        assert_eq!(reports.len(), 3);
        assert_eq!(reports[0].scheme, "Ideal");
        assert_eq!(reports[1].scheme, "PiCL");
        assert_eq!(reports[2].scheme, "FRM");
        // Same trace, same instruction totals: normalization is valid.
        assert_eq!(reports[0].instructions, reports[1].instructions);
        assert_eq!(reports[0].instructions, reports[2].instructions);
    }

    #[test]
    fn multicore_mix_runs() {
        let mixes = picl_trace::mixes::table_v_mixes();
        let report = Simulation::builder(quick_cfg())
            .scheme(SchemeKind::Picl)
            .workload_spec(WorkloadSpec::mix(&mixes[0]))
            .instructions_per_core(5_000)
            .footprint_scale(0.01)
            .run()
            .unwrap();
        assert_eq!(report.cores, 8);
        assert!(report.instructions >= 40_000);
    }
}
