//! `picl bench` — the wall-clock performance harness.
//!
//! Runs a pinned scheme×workload matrix twice per cell: once on the
//! optimized fast paths (epoch-indexed drains, delta snapshots) and once
//! on the unoptimized reference paths (full-scan drains, eager deep-clone
//! snapshots), requiring the two [`RunReport`]s to be bit-identical — the
//! differential safety net for every hot-path optimization. Reports
//! events/sec (simulated instructions per wall-clock second), the
//! fast-vs-reference speedup, and peak RSS, and emits the results as a
//! `picl-bench-v1` JSON document so the repo carries a perf trajectory
//! (`BENCH_3.json`, `BENCH_8.json`).

use std::time::Instant;

use picl_campaign::{run_cells, CellPayload};
use picl_sim::{RunReport, SchemeKind, Simulation, WorkloadSpec};
use picl_telemetry::json::Value;
use picl_telemetry::json::{escape as json_escape, validate_json};
use picl_trace::mixes::table_v_mixes;
use picl_trace::spec::SpecBenchmark;
use picl_types::SystemConfig;

use crate::args::{ArgError, Args};
use crate::commands::campaign_options;

/// Instructions per core for each quick-matrix cell (before `--scale`).
const QUICK_INSTRUCTIONS: u64 = 1_000_000;
/// Epoch length for the quick matrix: short enough that drains and
/// snapshot commits — the optimized paths — dominate the reference run.
const QUICK_EPOCH_LEN: u64 = 10_000;
/// Instructions per core for the 8-core paper cell (before `--scale`).
const PAPER_INSTRUCTIONS: u64 = 400_000;
/// Epoch length for the paper cell.
const PAPER_EPOCH_LEN: u64 = 1_000;
/// A cell's fast-path events/sec may fall at most this far below the
/// committed number before `--check` fails (aggregated geometric mean).
const REGRESSION_FLOOR: f64 = 0.8;

/// One measured matrix cell.
#[derive(Debug, Clone)]
struct CellResult {
    label: String,
    scheme: String,
    workload: String,
    cores: usize,
    instructions: u64,
    /// Optimized-path events (instructions) per wall-clock second.
    events_per_sec: f64,
    /// Reference-path events per wall-clock second.
    reference_events_per_sec: f64,
    /// Growth of the process's peak RSS (`VmHWM`) while this cell ran, in
    /// kB. `VmHWM` is process-wide and monotone, so the *reading* cannot be
    /// attributed to a cell — but its growth during the cell can: a cell
    /// that allocated under the previous high-water mark reports 0.
    rss_delta_kb: u64,
}

impl CellResult {
    fn speedup(&self) -> f64 {
        self.events_per_sec / self.reference_events_per_sec.max(1e-9)
    }
}

/// Bench cells checkpoint their measurements; a resumed `picl bench`
/// reuses the recorded numbers verbatim instead of re-timing.
impl CellPayload for CellResult {
    fn encode(&self) -> String {
        format!(
            "{{\"label\": \"{}\", \"scheme\": \"{}\", \"workload\": \"{}\", \
             \"cores\": {}, \"instructions\": {}, \"events_per_sec\": {}, \
             \"reference_events_per_sec\": {}, \"rss_delta_kb\": {}}}",
            json_escape(&self.label),
            json_escape(&self.scheme),
            json_escape(&self.workload),
            self.cores,
            self.instructions,
            self.events_per_sec,
            self.reference_events_per_sec,
            self.rss_delta_kb
        )
    }

    fn decode(v: &Value) -> Result<CellResult, String> {
        let float = |key: &str| {
            v.get(key)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("missing or non-numeric field {key:?}"))
        };
        Ok(CellResult {
            label: v.field_str("label")?.to_owned(),
            scheme: v.field_str("scheme")?.to_owned(),
            workload: v.field_str("workload")?.to_owned(),
            cores: v
                .get("cores")
                .and_then(Value::as_usize)
                .ok_or("missing or non-integer field \"cores\"")?,
            instructions: v.field_u64("instructions")?,
            events_per_sec: float("events_per_sec")?,
            reference_events_per_sec: float("reference_events_per_sec")?,
            rss_delta_kb: v.field_u64("rss_delta_kb")?,
        })
    }
}

/// One schedulable bench cell: a label plus the pinned simulation.
#[derive(Clone)]
struct BenchCell {
    label: String,
    sim: Simulation,
}

impl picl_campaign::CampaignCell for BenchCell {
    type Payload = CellResult;

    fn spec_string(&self) -> String {
        format!("bench {} {:?}", self.label, self.sim)
    }

    fn label(&self) -> String {
        self.label.clone()
    }

    fn execute(&self) -> CellResult {
        run_cell(&self.label, &self.sim).unwrap_or_else(|e| panic!("{}", e))
    }
}

fn scaled(n: u64, scale: f64, floor: u64) -> u64 {
    ((n as f64 * scale) as u64).max(floor)
}

/// The quick matrix: every scheme on single-core gcc.
fn quick_cells(scale: f64) -> Vec<(String, Simulation)> {
    SchemeKind::ALL
        .iter()
        .map(|&kind| {
            let mut cfg = SystemConfig::paper_single_core();
            cfg.epoch.epoch_len_instructions = scaled(QUICK_EPOCH_LEN, scale, 1_000);
            let sim = Simulation::builder(cfg)
                .scheme(kind)
                .workload(&[SpecBenchmark::Gcc])
                .instructions_per_core(scaled(QUICK_INSTRUCTIONS, scale, 5_000))
                .seed(42)
                .footprint_scale(0.05)
                .keep_snapshots(true);
            (format!("{}/gcc x1", kind.name()), sim)
        })
        .collect()
}

/// The paper cell: PiCL on the W0 mix, 8 cores, 16 MB LLC, snapshots on —
/// the configuration the ≥3× acceptance target is measured on.
fn paper_cell(scale: f64) -> (String, Simulation) {
    let mut cfg = SystemConfig::paper_multicore(8);
    cfg.epoch.epoch_len_instructions = scaled(PAPER_EPOCH_LEN, scale, 1_000);
    let sim = Simulation::builder(cfg)
        .scheme(SchemeKind::Picl)
        .workload_spec(WorkloadSpec::mix(&table_v_mixes()[0]))
        .instructions_per_core(scaled(PAPER_INSTRUCTIONS, scale, 5_000))
        .seed(42)
        .footprint_scale(1.0)
        .keep_snapshots(true);
    ("PiCL/W0 x8 paper".to_owned(), sim)
}

/// Runs one cell on both paths, enforcing the differential check.
fn run_cell(label: &str, sim: &Simulation) -> Result<CellResult, ArgError> {
    let timed = |reference: bool| -> Result<(RunReport, f64), ArgError> {
        let started = Instant::now();
        let report = sim
            .clone()
            .reference_mode(reference)
            .run()
            .map_err(|e| ArgError(e.to_string()))?;
        Ok((report, started.elapsed().as_secs_f64().max(1e-9)))
    };
    // Best-of-3 for the fast path: it is the number the `--check`
    // regression gate compares, so squeeze out scheduler/allocator noise.
    // (Runs are deterministic, so repeats produce the same report.)
    let rss_before_kb = peak_rss_kb();
    let (fast, mut fast_secs) = timed(false)?;
    for _ in 0..2 {
        fast_secs = fast_secs.min(timed(false)?.1);
    }
    let (reference, reference_secs) = timed(true)?;
    if fast != reference {
        return Err(ArgError(format!(
            "differential check failed: {label} reports diverge between the \
             optimized and reference paths"
        )));
    }
    Ok(CellResult {
        label: label.to_owned(),
        scheme: fast.scheme.to_owned(),
        workload: fast.workload.clone(),
        cores: fast.cores,
        instructions: fast.instructions,
        events_per_sec: fast.instructions as f64 / fast_secs,
        reference_events_per_sec: fast.instructions as f64 / reference_secs,
        rss_delta_kb: peak_rss_kb().saturating_sub(rss_before_kb),
    })
}

/// Peak resident set size in kB (`VmHWM` from procfs; 0 if unavailable).
fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|line| line.starts_with("VmHWM:"))
                .and_then(|line| line.split_whitespace().nth(1)?.parse().ok())
        })
        .unwrap_or(0)
}

/// Renders the `picl-bench-v1` document.
fn to_json(mode: &str, cells: &[CellResult], total_seconds: f64) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"picl-bench-v1\",\n");
    out.push_str(&format!("  \"mode\": \"{mode}\",\n"));
    out.push_str("  \"cells\": [\n");
    for (i, cell) in cells.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"label\": \"{}\", \"scheme\": \"{}\", \"workload\": \"{}\", \
             \"cores\": {}, \"instructions\": {}, \"events_per_sec\": {:.1}, \
             \"reference_events_per_sec\": {:.1}, \"speedup\": {:.3}, \
             \"rss_delta_kb\": {}, \"identical\": true}}{}\n",
            json_escape(&cell.label),
            json_escape(&cell.scheme),
            json_escape(&cell.workload),
            cell.cores,
            cell.instructions,
            cell.events_per_sec,
            cell.reference_events_per_sec,
            cell.speedup(),
            cell.rss_delta_kb,
            if i + 1 == cells.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n");
    // VmHWM is process-wide and monotone: this is the whole run's peak
    // (resumed cells included), never a per-cell figure — those are the
    // per-cell rss_delta_kb entries above.
    out.push_str(&format!("  \"process_peak_rss_kb\": {},\n", peak_rss_kb()));
    out.push_str(&format!("  \"total_seconds\": {total_seconds:.3}\n"));
    out.push_str("}\n");
    out
}

/// Pulls `(label, events_per_sec)` pairs out of a committed
/// `picl-bench-v1` document.
fn committed_cells(json: &str) -> Result<Vec<(String, f64)>, String> {
    let doc = Value::parse(json).map_err(|e| format!("not valid JSON: {e}"))?;
    if doc.field_str("schema")? != "picl-bench-v1" {
        return Err("schema is not picl-bench-v1".into());
    }
    doc.get("cells")
        .and_then(Value::as_arr)
        .ok_or("no \"cells\" array")?
        .iter()
        .map(|cell| {
            let label = cell.field_str("label")?;
            let events_per_sec = cell
                .get("events_per_sec")
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("cell {label:?} has no numeric \"events_per_sec\""))?;
            Ok((label.to_owned(), events_per_sec))
        })
        .collect()
}

/// Fails if this run's events/sec regressed more than 20% (geometric mean
/// over the cells both runs share) below the committed numbers in `path`.
fn check_regression(path: &str, cells: &[CellResult]) -> Result<(), ArgError> {
    let committed =
        std::fs::read_to_string(path).map_err(|e| ArgError(format!("cannot read {path}: {e}")))?;
    let baseline = committed_cells(&committed).map_err(|e| ArgError(format!("{path}: {e}")))?;
    let mut log_ratio_sum = 0.0;
    let mut matched = 0usize;
    for cell in cells {
        let Some((_, base)) = baseline.iter().find(|(label, _)| *label == cell.label) else {
            continue;
        };
        if *base > 0.0 {
            log_ratio_sum += (cell.events_per_sec / base).ln();
            matched += 1;
        }
    }
    if matched == 0 {
        return Err(ArgError(format!(
            "{path} shares no cells with this run; cannot check for regressions"
        )));
    }
    let geomean = (log_ratio_sum / matched as f64).exp();
    if geomean < REGRESSION_FLOOR {
        return Err(ArgError(format!(
            "events/sec regressed: this run is {:.0}% of the committed numbers \
             in {path} over {matched} cell(s) (floor {:.0}%)",
            geomean * 100.0,
            REGRESSION_FLOOR * 100.0
        )));
    }
    println!(
        "regression check: {:.0}% of committed events/sec over {matched} cell(s) — ok",
        geomean * 100.0
    );
    Ok(())
}

/// `picl bench [--quick] [--out FILE] [--check FILE] [--scale F]
/// [--resume DIR] [--cell-timeout SECS] [--keep-going]`.
pub fn cmd_bench(args: &Args) -> Result<(), ArgError> {
    args.expect_only(&[
        "quick",
        "out",
        "check",
        "scale",
        "resume",
        "cell-timeout",
        "keep-going",
    ])?;
    let quick = args.is_set("quick");
    let scale = args.float_or("scale", 1.0)?;
    if scale.is_nan() || scale <= 0.0 {
        return Err(ArgError("--scale must be positive".into()));
    }
    let out_path = args.get_or("out", "BENCH_8.json");

    let mut matrix = quick_cells(scale);
    if !quick {
        matrix.push(paper_cell(scale));
    }
    let bench_cells: Vec<BenchCell> = matrix
        .into_iter()
        .map(|(label, sim)| BenchCell { label, sim })
        .collect();

    // One worker: cells time wall-clock, so they must not compete for
    // cores. The executor still adds panic isolation, the watchdog, and
    // checkpoint/resume.
    let mut opts = campaign_options(args)?;
    opts.threads = 1;

    let started = Instant::now();
    let run = run_cells(&bench_cells, &opts).map_err(ArgError)?;
    let total_seconds = started.elapsed().as_secs_f64();
    if run.cached > 0 {
        println!("resumed {} cell(s) from the checkpoint store", run.cached);
    }

    println!(
        "{:<22}{:>10}{:>14}{:>14}{:>9}",
        "cell", "instr", "events/s", "ref ev/s", "speedup"
    );
    let failures = run.failures();
    let cells: Vec<CellResult> = run
        .outcomes
        .into_iter()
        .filter_map(picl_campaign::CellOutcome::into_payload)
        .collect();
    for cell in &cells {
        println!(
            "{:<22}{:>10}{:>14.0}{:>14.0}{:>8.2}x",
            cell.label,
            cell.instructions,
            cell.events_per_sec,
            cell.reference_events_per_sec,
            cell.speedup()
        );
    }
    if !failures.is_empty() {
        let lines: Vec<String> = failures
            .iter()
            .map(|(i, m)| format!("  {}: {m}", bench_cells[*i].label))
            .collect();
        return Err(ArgError(format!(
            "{} bench cell(s) produced no measurement:\n{}",
            failures.len(),
            lines.join("\n")
        )));
    }

    let json = to_json(if quick { "quick" } else { "full" }, &cells, total_seconds);
    validate_json(&json).map_err(|e| ArgError(format!("emitted JSON invalid: {e}")))?;
    std::fs::write(out_path, &json)
        .map_err(|e| ArgError(format!("cannot write {out_path}: {e}")))?;
    println!(
        "wrote {out_path} ({} cells, {:.1}s total, process peak RSS {} kB)",
        cells.len(),
        total_seconds,
        peak_rss_kb()
    );

    if let Some(paper) = cells.iter().find(|c| c.label.contains("paper")) {
        println!(
            "paper 8-core cell: {:.2}x events/sec over the reference path",
            paper.speedup()
        );
    }

    if let Some(check) = args.get("check") {
        check_regression(check, &cells)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_cells_scan_recovers_pairs() {
        let json = to_json(
            "quick",
            &[
                CellResult {
                    label: "A/x x1".into(),
                    scheme: "A".into(),
                    workload: "x".into(),
                    cores: 1,
                    instructions: 10,
                    events_per_sec: 1000.0,
                    reference_events_per_sec: 250.0,
                    rss_delta_kb: 64,
                },
                CellResult {
                    label: "B/\"y\" x2".into(),
                    scheme: "B".into(),
                    workload: "y".into(),
                    cores: 2,
                    instructions: 20,
                    events_per_sec: 2000.0,
                    reference_events_per_sec: 500.0,
                    rss_delta_kb: 0,
                },
            ],
            1.0,
        );
        validate_json(&json).unwrap();
        let cells = committed_cells(&json).unwrap();
        assert_eq!(
            cells,
            vec![
                ("A/x x1".to_owned(), 1000.0),
                ("B/\"y\" x2".to_owned(), 2000.0)
            ]
        );
        assert!(committed_cells(&json.replace("picl-bench-v1", "other")).is_err());
    }

    #[test]
    fn cell_payload_round_trips() {
        let cell = CellResult {
            label: "PiCL/gcc x1".into(),
            scheme: "PiCL".into(),
            workload: "gcc".into(),
            cores: 1,
            instructions: 1_000_000,
            events_per_sec: 123_456.789,
            reference_events_per_sec: 98_765.432_1,
            rss_delta_kb: 2048,
        };
        let encoded = cell.encode();
        validate_json(&encoded).unwrap();
        let decoded = CellResult::decode(&Value::parse(&encoded).unwrap()).unwrap();
        assert_eq!(decoded.label, cell.label);
        assert_eq!(decoded.events_per_sec, cell.events_per_sec);
        assert_eq!(
            decoded.reference_events_per_sec,
            cell.reference_events_per_sec
        );
        assert_eq!(decoded.rss_delta_kb, cell.rss_delta_kb);
    }

    #[test]
    fn json_separates_run_peak_from_per_cell_deltas() {
        let json = to_json(
            "quick",
            &[CellResult {
                label: "A/x x1".into(),
                scheme: "A".into(),
                workload: "x".into(),
                cores: 1,
                instructions: 10,
                events_per_sec: 1000.0,
                reference_events_per_sec: 250.0,
                rss_delta_kb: 64,
            }],
            1.0,
        );
        // Per-cell: the high-water-mark *growth* during the cell.
        assert!(json.contains("\"rss_delta_kb\": 64"), "{json}");
        // Run level: the process-wide peak, labeled as such — the old
        // per-run "peak_rss_kb" name is gone.
        assert!(json.contains("\"process_peak_rss_kb\": "), "{json}");
        assert!(!json.contains("\n  \"peak_rss_kb\""), "{json}");
    }

    #[test]
    fn scaled_applies_floor() {
        assert_eq!(scaled(100_000, 0.001, 5_000), 5_000);
        assert_eq!(scaled(100_000, 0.5, 5_000), 50_000);
    }
}
