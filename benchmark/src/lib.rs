//! `picl-benchmark`: one repeatable benchmark for the PiCL store, its
//! serving stack and the simulator, with per-layer attribution.
//!
//! A run measures one [`Workload`] for a fixed time and returns an
//! [`Outcome`]: the end-to-end metrics in [`E2E`] (always from untraced
//! rounds), the per-layer metrics in [`PER_LAYER`] (from one extra traced
//! pass, when asked for), and the count of operations attempted and
//! failed by the workload's correctness checks.
//!
//! - [`kv`] drives the serving stack over an emulated-PCM medium;
//! - [`sim`] drives the trace-driven simulator;
//! - [`medium`] is the medium stack and the spans recorded at its seam;
//! - [`hist`] is the log-linear latency histogram;
//! - [`host`] is the host-speed reference end-to-end results are scaled
//!   by;
//! - [`compare`] judges two result files against the bounds in
//!   `BENCHMARK.json`.

use std::collections::BTreeMap;

pub mod compare;
pub mod hist;
pub mod host;
pub mod kv;
pub mod medium;
pub mod sim;

/// The benchmark's workloads. Names are fixed: result files and later
/// changes cite them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Workload {
    /// YCSB-A (50/50) over zipfian keys, one closed-loop session.
    KvUpdate,
    /// YCSB-B (95/5) over the same keys, one closed-loop session.
    KvRead,
    /// PiCL on the Table V W0 mix, 8 cores, 16 MB LLC, full footprint.
    SimPaper,
    /// PiCL on gcc, 1 core, a footprint that fits the modelled L2.
    SimSmall,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::KvUpdate,
        Workload::KvRead,
        Workload::SimPaper,
        Workload::SimSmall,
    ];

    /// The workload's fixed name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::KvUpdate => "kv-update",
            Workload::KvRead => "kv-read",
            Workload::SimPaper => "sim-paper",
            Workload::SimSmall => "sim-small",
        }
    }

    /// Why the workload is in the benchmark (one line).
    pub fn why(self) -> &'static str {
        match self {
            Workload::KvUpdate => {
                "write-heavy zipfian mix: the protocol mutex, undo drains, group commit and the persister all work"
            }
            Workload::KvRead => {
                "read-mostly mix: lock-free seqlock reads dominate; the bypass for write-path changes"
            }
            Workload::SimPaper => {
                "8-core paper config, large footprint: LLC misses, the NVM model, the ACS and snapshots dominate host time"
            }
            Workload::SimSmall => {
                "1-core working set inside the modelled L2: trace decode and the scheme's store hook dominate host time"
            }
        }
    }

    /// How strongly the workload's speed follows the host-speed reference
    /// (see [`host`]): its times go as the host factor to this power.
    /// Measured on the reference machine as the slope of log round time
    /// on log host factor, over 30–73 rounds per workload. The simulator
    /// misses the LLC more often than the reference's sort does, so it
    /// slows more on a busy host; a kv op spends part of its time in the
    /// emulated medium's fixed-time waits, which do not slow at all, and
    /// the put-heavy mix more of it.
    pub fn host_sensitivity(self) -> f64 {
        match self {
            Workload::KvUpdate => 0.7,
            Workload::KvRead => 0.9,
            Workload::SimPaper => 1.3,
            Workload::SimSmall => 1.25,
        }
    }

    /// How many times slower than at the reference host speed the
    /// workload ran in a stretch with host factor `factor`.
    pub fn host_scale(self, factor: f64) -> f64 {
        factor.powf(self.host_sensitivity())
    }

    /// Parses a workload name.
    ///
    /// # Errors
    ///
    /// Lists the known names on anything else.
    pub fn parse(name: &str) -> Result<Workload, String> {
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == name)
            .ok_or_else(|| {
                let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                format!(
                    "unknown workload {name:?} (want one of {})",
                    names.join(", ")
                )
            })
    }
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// How an end-to-end metric is brought to the reference host speed (see
/// [`host`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostScaling {
    /// A duration: divided by its round's host factor.
    Time,
    /// A rate: multiplied by it.
    Rate,
    /// Not a speed: reported as measured.
    Unscaled,
}

/// One metric's identity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricSpec {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// End-to-end metrics only: the share of the baseline's median by
    /// which the metric may worsen before a change counts as a regression.
    pub bound: Option<f64>,
    /// How the metric moves with host speed.
    pub scaling: HostScaling,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    scaling: HostScaling,
) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: Some(bound),
        scaling,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: None,
        scaling: HostScaling::Unscaled,
    }
}

use Better::{Higher, Lower};
use HostScaling::{Rate, Time, Unscaled};

/// End-to-end metrics, printed by every workload from untraced rounds.
/// Latency percentiles are per-layer: on a shared host their run-to-run
/// spread is wider than any useful bound (see the benchmark's README).
pub const E2E: [MetricSpec; 4] = [
    e2e("setup_s", "s", Lower, 0.25, Time),
    e2e("throughput_ops_s", "1/s", Higher, 0.25, Rate),
    e2e("cpu_us_per_op", "us", Lower, 0.25, Time),
    e2e("peak_rss_mb", "MB", Lower, 0.10, Unscaled),
];

/// Per-layer metrics. The load-generator, set-up and slice metrics come
/// from the untraced rounds; the rest from one traced pass. With
/// `--trace 1` every workload prints all of them, 0 for a layer it does
/// not run.
pub const PER_LAYER: [MetricSpec; 56] = [
    // load: the benchmark's own load generator.
    layer("load.get_samples", "count", Higher),
    layer("load.put_samples", "count", Higher),
    layer("load.get_p50_us", "us", Lower),
    layer("load.get_p99_us", "us", Lower),
    layer("load.get_p999_us", "us", Lower),
    layer("load.put_p50_us", "us", Lower),
    layer("load.put_p99_us", "us", Lower),
    layer("load.put_p999_us", "us", Lower),
    // serve: the session layer, from its obs registry.
    layer("serve.shard_lock_wait_p50_ns", "ns", Lower),
    layer("serve.shard_lock_wait_p99_ns", "ns", Lower),
    layer("serve.shard_lock_hold_ns_per_put", "ns/put", Lower),
    layer("serve.escalations_per_1k_puts", "per_1k", Lower),
    layer("serve.commit_publish_p99_us", "us", Lower),
    layer("serve.commit_window_frac", "ratio", Lower),
    layer("serve.commit_window_p99_us", "us", Lower),
    layer("serve.commit_ack_wait_p99_us", "us", Lower),
    layer("serve.leader_ns_per_put", "ns/put", Lower),
    // store: the engine.
    layer("store.engine_other_ns_per_put", "ns/put", Lower),
    layer("store.undo_entries_per_put", "per_put", Lower),
    layer("store.drains_per_1k_puts", "per_1k", Lower),
    layer("store.forced_drain_frac", "ratio", Lower),
    layer("store.log_blocks_per_1k_puts", "per_1k", Lower),
    layer("store.window_stalls_per_1k_commits", "per_1k", Lower),
    layer("store.persister_cycle_p50_us", "us", Lower),
    layer("store.persister_cycle_p99_us", "us", Lower),
    layer("store.persister_backlog_epochs_p50", "count", Lower),
    layer("store.writebacks_per_put", "per_put", Lower),
    layer("store.bloom_hit_frac", "ratio", Lower),
    layer("store.write_amp", "ratio", Lower),
    // medium: the Timed wrapper; fg = session threads, bg = persister.
    layer("medium.fg_fences_per_put", "per_put", Lower),
    layer("medium.fg_fence_ns_per_put", "ns/put", Lower),
    layer("medium.fg_bytes_per_put", "B/put", Lower),
    layer("medium.bg_fences_per_1k_puts", "per_1k", Lower),
    layer("medium.bg_busy_frac", "ratio", Lower),
    layer("medium.bg_bytes_per_put", "B/put", Lower),
    // setup: opening and preloading the store.
    layer("setup.preload_keys_per_s", "1/s", Higher),
    layer("setup.preload_fences_per_key", "per_key", Lower),
    layer("setup.drain_ms", "ms", Lower),
    // sim / trace / core: host time per simulated slice, and host time
    // split by pass differences.
    layer("sim.slice_p50_us", "us", Lower),
    layer("sim.slice_p99_us", "us", Lower),
    layer("trace.decode_ns_per_event", "ns", Lower),
    layer("sim.hier_nvm_ns_per_event", "ns", Lower),
    layer("core.scheme_ns_per_event", "ns", Lower),
    layer("sim.snapshot_ns_per_event", "ns", Lower),
    // Exact simulated counts: a speed-only change must not move these.
    layer("sim.cpi", "cycles/instr", Lower),
    layer("sim.overhead_vs_ideal", "ratio", Lower),
    layer("cache.l1_hit_rate", "ratio", Higher),
    layer("cache.llc_misses_per_kinstr", "per_kinstr", Lower),
    layer("cache.dirty_evictions_per_kinstr", "per_kinstr", Lower),
    layer("nvm.writes_per_kinstr", "per_kinstr", Lower),
    layer("core.log_bytes_per_kinstr", "B/kinstr", Lower),
    layer("core.commits", "count", Lower),
    layer("core.forced_flushes", "count", Lower),
    layer("core.stall_cycles_per_kinstr", "per_kinstr", Lower),
    // Every workload: the share of its end-to-end time the layers above
    // leave unexplained, and what the traced pass cost against the
    // untraced median.
    layer("remainder_frac", "ratio", Lower),
    layer("trace_overhead_frac", "ratio", Lower),
];

/// The `'static` name of the per-layer metric spelled `name`.
///
/// # Panics
///
/// Panics if [`PER_LAYER`] has no such metric.
pub fn layer_name(name: &str) -> &'static str {
    PER_LAYER
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.name)
        .unwrap_or_else(|| panic!("no per-layer metric {name}"))
}

/// How a run is set up.
#[derive(Debug, Clone)]
pub struct Settings {
    /// Seed for every generated input.
    pub seed: u64,
    /// Seconds the untraced rounds measure, in total.
    pub seconds: f64,
    /// Whether to add the traced pass and report per-layer metrics.
    pub trace: bool,
    /// Multiplies key counts, rates and instruction budgets. 1.0 in every
    /// real run; tests shrink it.
    pub scale: f64,
}

/// An end-to-end value with the spread of the rounds it summarizes.
#[derive(Debug, Clone, PartialEq)]
pub struct Stat {
    /// The reported value: the median over rounds, each at the reference
    /// host speed.
    pub value: f64,
    /// Smallest round value.
    pub min: f64,
    /// Largest round value.
    pub max: f64,
    /// Every round's value, in run order.
    pub rounds: Vec<f64>,
    /// The median over rounds as measured, before host-speed scaling.
    pub measured: f64,
    /// What the value rests on (rounds, sample counts).
    pub note: String,
}

impl Stat {
    /// The median of `rounds` with their min and max, for a metric that
    /// host speed does not move.
    ///
    /// # Panics
    ///
    /// Panics if `rounds` is empty.
    pub fn of_rounds(rounds: &[f64], note: String) -> Stat {
        assert!(!rounds.is_empty(), "a statistic needs at least one round");
        let mut sorted = rounds.to_vec();
        sorted.sort_by(f64::total_cmp);
        Stat {
            value: median_sorted(&sorted),
            min: sorted[0],
            max: sorted[sorted.len() - 1],
            rounds: rounds.to_vec(),
            measured: median_sorted(&sorted),
            note,
        }
    }

    /// End-to-end metric `name` of `workload` from its `measured` round
    /// values, each brought to the reference host speed by its round's
    /// host factor (raised to the workload's
    /// [`Workload::host_sensitivity`]) as the metric's [`HostScaling`]
    /// says.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not in [`E2E`], or the slices are empty or of
    /// different lengths.
    pub fn scaled(
        workload: Workload,
        name: &str,
        measured: &[f64],
        factors: &[f64],
        note: String,
    ) -> Stat {
        assert_eq!(measured.len(), factors.len(), "one host factor per round");
        let spec = E2E
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("no end-to-end metric {name}"));
        let rounds: Vec<f64> = measured
            .iter()
            .zip(factors)
            .map(|(&v, &k)| match spec.scaling {
                HostScaling::Time => v / workload.host_scale(k),
                HostScaling::Rate => v * workload.host_scale(k),
                HostScaling::Unscaled => v,
            })
            .collect();
        Stat {
            measured: median(measured),
            ..Stat::of_rounds(&rounds, note)
        }
    }
}

/// Median of a non-empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    median_sorted(&sorted)
}

/// Median of an already-sorted, non-empty slice.
fn median_sorted(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// What one workload run measured.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The workload.
    pub workload: Workload,
    /// Operations attempted (kv: gets and puts; sim: rounds).
    pub attempted: u64,
    /// Operations that failed a correctness check.
    pub failed: u64,
    /// Each untraced round's host factor (see [`host`]): how much slower
    /// than the reference the host ran.
    pub host_factors: Vec<f64>,
    /// End-to-end metrics by name, from untraced rounds.
    pub e2e: BTreeMap<&'static str, Stat>,
    /// Per-layer metrics by name: those the untraced rounds measure on
    /// every run, and with a traced pass all of them (0 for a layer the
    /// workload does not run).
    pub layers: BTreeMap<&'static str, f64>,
    /// The traced pass's span file, one JSON object per line.
    pub spans: Vec<String>,
}

impl Outcome {
    /// Whether every correctness check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// `failed / attempted`.
    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The human-readable report: one `workload metric value unit` line
    /// per metric, with the spread or sample count beside it.
    pub fn lines(&self) -> Vec<String> {
        let w = self.workload.name();
        let mut out = Vec::new();
        for m in &E2E {
            if let Some(s) = self.e2e.get(m.name) {
                out.push(format!(
                    "{w} {} {} {}  (min {} max {}; {}; measured {} at host factor {:.4})",
                    m.name,
                    fmt_num(s.value),
                    m.unit,
                    fmt_num(s.min),
                    fmt_num(s.max),
                    s.note,
                    fmt_num(s.measured),
                    median(&self.host_factors)
                ));
            }
        }
        out.push(format!(
            "{w} failed_frac {} ratio  ({} of {} ops failed)",
            fmt_num(self.failed_frac()),
            self.failed,
            self.attempted
        ));
        for m in &PER_LAYER {
            if let Some(v) = self.layers.get(m.name) {
                out.push(format!("{w} {} {} {}", m.name, fmt_num(*v), m.unit));
            }
        }
        out
    }

    /// The one-line result object: `correct`, `attempted`, `failed` and
    /// `metrics` (the end-to-end set, or the per-layer set when traced).
    pub fn result_json(&self, traced: bool) -> String {
        let metrics: Vec<String> = if traced {
            PER_LAYER
                .iter()
                .map(|m| metric_json(m, self.layers.get(m.name).copied().unwrap_or(0.0)))
                .collect()
        } else {
            E2E.iter()
                .map(|m| metric_json(m, self.e2e.get(m.name).map_or(0.0, |s| s.value)))
                .collect()
        };
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }

    /// The full record `run` collects per workload: every metric with its
    /// spread, for [`compare`].
    pub fn detail_json(&self) -> String {
        let e2e: Vec<String> = E2E
            .iter()
            .filter_map(|m| {
                let s = self.e2e.get(m.name)?;
                let rounds: Vec<String> = s.rounds.iter().map(|&r| json_num(r)).collect();
                Some(format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\", \"min\": {}, \"max\": {}, \
                     \"rounds\": [{}], \"measured\": {}, \"note\": \"{}\"}}",
                    m.name,
                    json_num(s.value),
                    m.unit,
                    json_num(s.min),
                    json_num(s.max),
                    rounds.join(", "),
                    json_num(s.measured),
                    picl_telemetry::json::escape(&s.note)
                ))
            })
            .collect();
        let layers: Vec<String> = PER_LAYER
            .iter()
            .filter_map(|m| Some(metric_json(m, *self.layers.get(m.name)?)))
            .collect();
        let factors: Vec<String> = self.host_factors.iter().map(|&k| json_num(k)).collect();
        format!(
            "{{\"workload\": \"{}\", \"correct\": {}, \"attempted\": {}, \"failed\": {}, \
             \"host_factors\": [{}], \"e2e\": {{{}}}, \"per_layer\": {{{}}}}}",
            self.workload.name(),
            self.correct(),
            self.attempted,
            self.failed,
            factors.join(", "),
            e2e.join(", "),
            layers.join(", ")
        )
    }
}

fn metric_json(m: &MetricSpec, value: f64) -> String {
    format!(
        "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
        m.name,
        json_num(value),
        m.unit
    )
}

/// A finite number as JSON, with every digit `f64` carries.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

/// A number for people: four decimals, or four significant digits in
/// scientific notation below 0.01.
pub fn fmt_num(v: f64) -> String {
    if v != 0.0 && v.abs() < 0.01 {
        format!("{v:.4e}")
    } else {
        format!("{v:.4}")
    }
}

/// Runs one workload.
///
/// # Errors
///
/// Reports a store or simulator failure that stopped the run (failed
/// correctness checks are counted in the outcome instead).
pub fn run_workload(workload: Workload, settings: &Settings) -> Result<Outcome, String> {
    let mut out = match workload {
        Workload::KvUpdate | Workload::KvRead => kv::run(workload, settings),
        Workload::SimPaper | Workload::SimSmall => sim::run(workload, settings),
    }?;
    if settings.trace {
        for m in &PER_LAYER {
            out.layers.entry(m.name).or_insert(0.0);
        }
    }
    Ok(out)
}

/// On-CPU nanoseconds of the calling thread, from
/// `/proc/thread-self/schedstat`; 0 where procfs is unavailable.
pub fn thread_cpu_ns() -> u64 {
    schedstat_ns("/proc/thread-self/schedstat")
}

/// On-CPU nanoseconds summed over this process's live threads. A thread
/// that exits between two readings drops out of the second, so callers
/// measure short-lived threads from inside with [`thread_cpu_ns`].
pub fn live_threads_cpu_ns() -> u64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .filter_map(Result::ok)
        .map(|t| schedstat_ns(t.path().join("schedstat")))
        .sum()
}

fn schedstat_ns(path: impl AsRef<std::path::Path>) -> u64 {
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// This process's peak resident set (`VmHWM`) in MB; 0 where procfs is
/// unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
