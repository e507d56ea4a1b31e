//! The simulator workloads.
//!
//! A round builds a fresh PiCL machine ([`SETUP_REPEATS`] times, timed
//! as set-up) and retires a fixed instruction budget in slices of
//! [`SLICE`] instructions, timing each slice (the slice percentiles are
//! per-layer metrics) with the host-speed reference interleaved (see
//! [`crate::host`]). Rounds repeat until the run's time is spent (at
//! least [`MIN_ROUNDS`]); every value reported is the median over rounds.
//!
//! The simulator is deterministic, so every round of one seed must end in
//! the same report. Correctness is an FNV-1a 64 digest of the encoded
//! report: all rounds must agree, and for seed 1 at full scale the digest
//! must equal the one recorded in [`SEED1_DIGESTS`]. A mismatch fails
//! every round.
//!
//! The traced passes split host time by running the same seeded trace
//! through progressively more of the simulator: decode alone, the Ideal
//! scheme without snapshots, PiCL without snapshots, and PiCL with
//! snapshots, each pass scaled by its own interleaved reference. Each
//! layer's cost is the difference between two passes;
//! the hierarchy and the NVM timing model run inside one call and cannot
//! be split from outside.

use std::collections::BTreeMap;
use std::time::Instant;

use picl_nvm::AccessClass;
use picl_sim::{encode_report, Machine, RunReport, SchemeKind, Simulation, WorkloadSpec};
use picl_trace::mixes::table_v_mixes;
use picl_trace::spec::SpecBenchmark;
use picl_trace::EventBatch;
use picl_types::hash::fnv1a_64;
use picl_types::SystemConfig;

use crate::hist::LogHist;
use crate::host::Meter;
use crate::{Outcome, Settings, Stat, Workload};

/// Simulated instructions (all cores together) per timed slice.
pub const SLICE: u64 = 100_000;
/// Rounds every run makes, however short its time.
pub const MIN_ROUNDS: usize = 3;
/// Machines each round builds and times before driving the last; the
/// round's set-up time is their median. One `sim-small` build takes under
/// 0.1 ms, so a single timing moves by a fifth with one page fault, and
/// the median of five still spread 27% between runs.
const SETUP_REPEATS: usize = 21;
/// Times the traced run repeats its four layer-split passes, interleaved,
/// taking each pass's median: single passes drift with the host.
const PASS_REPEATS: usize = 3;
/// Report digests for `--seed 1` at full scale. A change that moves one
/// changed what the simulator computes, not just how fast.
pub const SEED1_DIGESTS: [(Workload, u64); 2] = [
    (Workload::SimPaper, 0x22fb_d719_86c4_c220),
    (Workload::SimSmall, 0xd6e4_f1cf_886b_c093),
];

/// One simulator workload's configuration.
#[derive(Debug, Clone)]
pub struct SimSpec {
    cfg: SystemConfig,
    workload: WorkloadSpec,
    footprint: f64,
    /// Instructions per round, all cores together: enough for a round of
    /// at least 2 s at the reference host speed (see [`crate::host`]).
    instructions: u64,
}

fn spec(workload: Workload, scale: f64) -> SimSpec {
    let budget = |n: f64| ((n * scale) as u64).max(SLICE);
    match workload {
        Workload::SimPaper => {
            let mut cfg = SystemConfig::paper_multicore(8);
            cfg.epoch.epoch_len_instructions = 1_000;
            SimSpec {
                cfg,
                workload: WorkloadSpec::mix(&table_v_mixes()[0]),
                footprint: 1.0,
                instructions: budget(8.0 * 7e6),
            }
        }
        Workload::SimSmall => {
            let mut cfg = SystemConfig::paper_single_core();
            cfg.epoch.epoch_len_instructions = 10_000;
            SimSpec {
                cfg,
                workload: WorkloadSpec::single(SpecBenchmark::Gcc),
                footprint: 0.05,
                instructions: budget(85e6),
            }
        }
        _ => unreachable!("not a simulator workload: {workload:?}"),
    }
}

fn build(
    spec: &SimSpec,
    seed: u64,
    scheme: SchemeKind,
    snapshots: bool,
) -> Result<Machine, String> {
    Simulation::builder(spec.cfg.clone())
        .scheme(scheme)
        .workload_spec(spec.workload.clone())
        .seed(seed)
        .footprint_scale(spec.footprint)
        .keep_snapshots(snapshots)
        .into_machine()
        .map_err(|e| e.to_string())
}

/// Retires `total` instructions slice by slice, recording each slice's
/// host time into `slices` and `meter`.
fn drive(machine: &mut Machine, total: u64, slices: &mut LogHist, meter: &mut Meter) {
    let mut target = 0;
    while target < total {
        target = (target + SLICE).min(total);
        let t0 = Instant::now();
        machine.run_until(target);
        let ns = t0.elapsed().as_nanos() as u64;
        slices.record(ns);
        meter.add(ns);
    }
    meter.finish();
}

/// The digest every round of one seed must reproduce.
pub fn digest(report: &RunReport) -> u64 {
    fnv1a_64(encode_report(report).as_bytes())
}

/// Rounds whose digest is wrong: all of them if the rounds disagree, or
/// if `expected` is given and the rounds do not match it.
pub fn failed_rounds(digests: &[u64], expected: Option<u64>) -> u64 {
    let agree = digests.windows(2).all(|w| w[0] == w[1]);
    let matches = expected.is_none_or(|e| digests.first() == Some(&e));
    if agree && matches {
        0
    } else {
        digests.len() as u64
    }
}

/// The recorded digest for `workload`, when the run can be held to it.
fn expected_digest(workload: Workload, settings: &Settings) -> Option<u64> {
    (settings.seed == 1 && settings.scale == 1.0).then(|| {
        SEED1_DIGESTS
            .iter()
            .find(|(w, _)| *w == workload)
            .map(|&(_, d)| d)
            .expect("every simulator workload has a recorded digest")
    })
}

/// One measured round, before host-speed scaling.
struct Round {
    setup_secs: f64,
    drive_secs: f64,
    slices: LogHist,
    cpu_ns: u64,
    /// The round's host factor.
    factor: f64,
    report: RunReport,
}

fn round(spec: &SimSpec, seed: u64) -> Result<Round, String> {
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut machine = None;
    for _ in 0..SETUP_REPEATS {
        // Free the previous build outside the timed region.
        drop(machine.take());
        let t0 = Instant::now();
        let built = build(spec, seed, SchemeKind::Picl, true)?;
        setups.push(t0.elapsed().as_secs_f64());
        machine = Some(built);
    }
    let mut machine = machine.expect("a round builds at least one machine");
    let setup_secs = crate::median(&setups);
    let mut slices = LogHist::new();
    let mut meter = Meter::new();
    let cpu0 = crate::live_threads_cpu_ns();
    drive(&mut machine, spec.instructions, &mut slices, &mut meter);
    let cpu_ns = crate::live_threads_cpu_ns()
        .saturating_sub(cpu0)
        .saturating_sub(meter.ref_ns());
    Ok(Round {
        setup_secs,
        drive_secs: meter.work_secs(),
        slices,
        cpu_ns,
        factor: meter.factor(),
        report: machine.report(),
    })
}

/// The report digest one round of `workload` ends in.
///
/// # Errors
///
/// Reports an invalid simulator configuration.
pub fn round_digest(workload: Workload, seed: u64, scale: f64) -> Result<u64, String> {
    Ok(digest(&round(&spec(workload, scale), seed)?.report))
}

/// Host seconds, at the reference host speed, to decode the round's
/// instructions of the workload's traces, split evenly over its cores,
/// with no simulation behind them.
fn decode_pass(spec: &SimSpec, workload: Workload, seed: u64) -> f64 {
    let mut traces = spec.workload.build_traces(seed, spec.footprint);
    let per_core = spec.instructions / traces.len() as u64;
    let mut batch = EventBatch::with_capacity(1024);
    let mut meter = Meter::new();
    for trace in &mut traces {
        let mut done = 0u64;
        while done < per_core {
            let t0 = Instant::now();
            trace.fill(&mut batch, 1024);
            done += (0..batch.len())
                .map(|i| u64::from(batch.gap(i)) + 1)
                .sum::<u64>();
            std::hint::black_box(&batch);
            meter.add(t0.elapsed().as_nanos() as u64);
        }
    }
    meter.finish();
    meter.work_secs() / workload.host_scale(meter.factor())
}

/// One untimed-setup, timed-drive pass for the layer split; its seconds
/// are at the reference host speed.
fn pass(
    spec: &SimSpec,
    workload: Workload,
    seed: u64,
    scheme: SchemeKind,
    snapshots: bool,
) -> Result<(f64, RunReport), String> {
    let mut machine = build(spec, seed, scheme, snapshots)?;
    let mut meter = Meter::new();
    drive(
        &mut machine,
        spec.instructions,
        &mut LogHist::new(),
        &mut meter,
    );
    Ok((
        meter.work_secs() / workload.host_scale(meter.factor()),
        machine.report(),
    ))
}

fn per_kinstr(n: u64, r: &RunReport) -> f64 {
    n as f64 * 1e3 / r.instructions.max(1) as f64
}

fn ratio(a: u64, b: u64) -> f64 {
    a as f64 / b.max(1) as f64
}

/// The simulated counts; identical for every round of one seed.
fn count_metrics(picl: &RunReport, ideal: &RunReport, out: &mut BTreeMap<&'static str, f64>) {
    let h = &picl.hierarchy;
    let nvm_writes: u64 = AccessClass::all()
        .iter()
        .filter(|c| !c.name().contains("read"))
        .map(|&c| picl.nvm.ops(c))
        .sum();
    out.insert(
        "sim.cpi",
        picl.total_cycles.raw() as f64 * picl.cores as f64 / picl.instructions.max(1) as f64,
    );
    out.insert(
        "sim.overhead_vs_ideal",
        ratio(picl.total_cycles.raw(), ideal.total_cycles.raw()),
    );
    out.insert(
        "cache.l1_hit_rate",
        ratio(h.l1_hits.get(), h.loads.get() + h.stores.get()),
    );
    out.insert(
        "cache.llc_misses_per_kinstr",
        per_kinstr(h.memory_accesses.get(), picl),
    );
    out.insert(
        "cache.dirty_evictions_per_kinstr",
        per_kinstr(h.dirty_evictions.get(), picl),
    );
    out.insert("nvm.writes_per_kinstr", per_kinstr(nvm_writes, picl));
    out.insert(
        "core.log_bytes_per_kinstr",
        per_kinstr(picl.scheme_stats.log_bytes_written, picl),
    );
    out.insert("core.commits", picl.commits as f64);
    out.insert(
        "core.forced_flushes",
        picl.scheme_stats.buffer_flushes_forced as f64,
    );
    out.insert(
        "core.stall_cycles_per_kinstr",
        per_kinstr(picl.stall_cycles, picl),
    );
}

/// Runs one simulator workload.
pub(crate) fn run(workload: Workload, settings: &Settings) -> Result<Outcome, String> {
    let spec = spec(workload, settings.scale);
    let started = Instant::now();
    let mut rounds = Vec::new();
    while rounds.len() < MIN_ROUNDS || started.elapsed().as_secs_f64() < settings.seconds {
        rounds.push(round(&spec, settings.seed)?);
    }
    let digests: Vec<u64> = rounds.iter().map(|r| digest(&r.report)).collect();
    let failed = failed_rounds(&digests, expected_digest(workload, settings));

    let n = rounds.len();
    let each = |f: &dyn Fn(&Round) -> f64| rounds.iter().map(f).collect::<Vec<f64>>();
    let instructions = rounds[0].report.instructions as f64;
    let factors = each(&|r| r.factor);
    let mut e2e = BTreeMap::new();
    e2e.insert(
        "setup_s",
        Stat::scaled(
            workload,
            "setup_s",
            &each(&|r| r.setup_secs),
            &factors,
            format!("{n} rounds"),
        ),
    );
    e2e.insert(
        "throughput_ops_s",
        Stat::scaled(
            workload,
            "throughput_ops_s",
            &each(&|r| instructions / r.drive_secs),
            &factors,
            format!(
                "{n} rounds of {instructions} instructions; digest {:016x}",
                digests[0]
            ),
        ),
    );
    e2e.insert(
        "cpu_us_per_op",
        Stat::scaled(
            workload,
            "cpu_us_per_op",
            &each(&|r| r.cpu_ns as f64 / 1e3 / instructions),
            &factors,
            format!("{n} rounds"),
        ),
    );
    e2e.insert(
        "peak_rss_mb",
        Stat::of_rounds(&[crate::peak_rss_mb()], "VmHWM".into()),
    );

    let slice = |p: f64| crate::median(&each(&|r| r.slices.percentile(p) / 1e3));
    let mut layers = BTreeMap::new();
    layers.insert("sim.slice_p50_us", slice(50.0));
    layers.insert("sim.slice_p99_us", slice(99.0));
    let mut out = Outcome {
        workload,
        attempted: n as u64,
        failed,
        host_factors: factors,
        e2e,
        layers,
        spans: Vec::new(),
    };
    if settings.trace {
        trace_passes(&spec, settings, &rounds, &mut out)?;
    }
    Ok(out)
}

/// The four layer-split passes (repeated, interleaved) and the simulated
/// counts.
fn trace_passes(
    spec: &SimSpec,
    settings: &Settings,
    rounds: &[Round],
    out: &mut Outcome,
) -> Result<(), String> {
    let (seed, w) = (settings.seed, out.workload);
    let mut times: [Vec<f64>; 4] = Default::default();
    let mut reports = None;
    for _ in 0..PASS_REPEATS {
        times[0].push(decode_pass(spec, w, seed));
        let (ideal, ideal_report) = pass(spec, w, seed, SchemeKind::Ideal, false)?;
        let (picl, _) = pass(spec, w, seed, SchemeKind::Picl, false)?;
        let (full, full_report) = pass(spec, w, seed, SchemeKind::Picl, true)?;
        times[1].push(ideal);
        times[2].push(picl);
        times[3].push(full);
        reports = Some((ideal_report, full_report));
    }
    let (ideal_report, full_report) = reports.expect("at least one pass");
    let [decode, ideal, picl, full] = times.map(|t| crate::median(&t));
    let instructions = full_report.instructions as f64;
    let ns = |secs: f64| secs * 1e9 / instructions;
    let e2e_secs = instructions / out.e2e["throughput_ops_s"].value;

    let l = &mut out.layers;
    l.insert("trace.decode_ns_per_event", ns(decode));
    l.insert("sim.hier_nvm_ns_per_event", ns(ideal - decode));
    l.insert("core.scheme_ns_per_event", ns(picl - ideal));
    l.insert("sim.snapshot_ns_per_event", ns(full - picl));
    count_metrics(&rounds[0].report, &ideal_report, l);
    l.insert("remainder_frac", (e2e_secs - full) / e2e_secs);
    l.insert("trace_overhead_frac", (full - e2e_secs) / e2e_secs);
    if digest(&full_report) != digest(&rounds[0].report) {
        out.failed += 1;
    }
    out.attempted += 1;

    out.spans.push(format!(
        "{{\"type\": \"summary\", \"workload\": \"{}\", \"instructions\": {}, \"digest\": \"{:016x}\"}}",
        out.workload.name(),
        full_report.instructions,
        digest(&full_report)
    ));
    for (i, r) in rounds.iter().enumerate() {
        out.spans.push(format!(
            "{{\"type\": \"round\", \"index\": {i}, \"setup_ns\": {}, \"drive_ns\": {}, \
             \"slice_p50_ns\": {}, \"slice_p99_ns\": {}, \"host_factor\": {}}}",
            (r.setup_secs * 1e9) as u64,
            (r.drive_secs * 1e9) as u64,
            r.slices.percentile(50.0),
            r.slices.percentile(99.0),
            crate::json_num(r.factor)
        ));
    }
    for (name, secs) in [
        ("decode", decode),
        ("ideal_no_snapshots", ideal),
        ("picl_no_snapshots", picl),
        ("picl_snapshots", full),
    ] {
        out.spans.push(format!(
            "{{\"type\": \"pass\", \"name\": \"{name}\", \"ns\": {}}}",
            (secs * 1e9) as u64
        ));
    }
    Ok(())
}
