//! `picl bench` — the fast-vs-reference differential.
//!
//! Runs a pinned scheme×workload matrix twice per cell: once on the
//! optimized fast paths (epoch-indexed drains, delta snapshots) and once
//! on the unoptimized reference paths (full-scan drains, eager deep-clone
//! snapshots), requiring the two [`RunReport`]s to be bit-identical — the
//! differential safety net for every hot-path optimization. Reports
//! events/sec (simulated instructions per wall-clock second) for both
//! runs and emits them as a `picl-bench-v2` JSON document.
//!
//! Throughput regressions are judged by the paired runs of the
//! `benchmark/` package, not here. The one speed check this command
//! makes compares two runs of the same process: in full mode the paper
//! cell's fast path must beat its own reference run by
//! [`MIN_PAPER_SPEEDUP`], which catches a fast path that has silently
//! fallen back to the reference scan.

use std::time::Instant;

use picl_sim::{RunReport, SchemeKind, Simulation, WorkloadSpec};
use picl_telemetry::json::{escape as json_escape, validate_json};
use picl_trace::mixes::table_v_mixes;
use picl_trace::spec::SpecBenchmark;
use picl_types::SystemConfig;

use crate::args::{ArgError, Args};

/// Instructions per core for each quick-matrix cell (before `--scale`).
const QUICK_INSTRUCTIONS: u64 = 1_000_000;
/// Epoch length for the quick matrix: short enough that drains and
/// snapshot commits — the optimized paths — dominate the reference run.
const QUICK_EPOCH_LEN: u64 = 10_000;
/// Instructions per core for the 8-core paper cell (before `--scale`).
const PAPER_INSTRUCTIONS: u64 = 400_000;
/// Epoch length for the paper cell.
const PAPER_EPOCH_LEN: u64 = 1_000;
/// Label of the paper cell, the one the same-run speed check reads.
const PAPER_LABEL: &str = "PiCL/W0 x8 paper";
/// The paper cell's fast path must run at least this many times the
/// reference path's events/sec. Six `--scale 0.5` runs on a 2-vCPU host
/// measured 23–57×; a fast path that degraded to the full scan would sit
/// near 1×.
const MIN_PAPER_SPEEDUP: f64 = 10.0;

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
}

impl CellResult {
    fn speedup(&self) -> f64 {
        self.events_per_sec / self.reference_events_per_sec.max(1e-9)
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
/// the cell the same-run speed check reads.
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
    (PAPER_LABEL.to_owned(), sim)
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
    let (fast, fast_secs) = timed(false)?;
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
    })
}

/// The same-run speed check: in full mode, fails unless the paper cell's
/// fast path ran at least [`MIN_PAPER_SPEEDUP`]× its reference path, and
/// returns that speedup. Quick mode has no paper cell and passes.
fn check_paper_speedup(quick: bool, cells: &[CellResult]) -> Result<Option<f64>, ArgError> {
    if quick {
        return Ok(None);
    }
    let speedup = cells
        .iter()
        .find(|c| c.label == PAPER_LABEL)
        .ok_or_else(|| ArgError(format!("full matrix has no {PAPER_LABEL:?} cell")))?
        .speedup();
    if speedup < MIN_PAPER_SPEEDUP {
        return Err(ArgError(format!(
            "paper cell's fast path is only {speedup:.2}x its reference path \
             (need {MIN_PAPER_SPEEDUP}x)"
        )));
    }
    Ok(Some(speedup))
}

/// Renders the `picl-bench-v2` document.
fn to_json(mode: &str, cells: &[CellResult], total_seconds: f64) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"picl-bench-v2\",\n");
    out.push_str(&format!("  \"mode\": \"{mode}\",\n"));
    out.push_str("  \"cells\": [\n");
    for (i, cell) in cells.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"label\": \"{}\", \"scheme\": \"{}\", \"workload\": \"{}\", \
             \"cores\": {}, \"instructions\": {}, \"events_per_sec\": {:.1}, \
             \"reference_events_per_sec\": {:.1}, \"speedup\": {:.3}, \
             \"identical\": true}}{}\n",
            json_escape(&cell.label),
            json_escape(&cell.scheme),
            json_escape(&cell.workload),
            cell.cores,
            cell.instructions,
            cell.events_per_sec,
            cell.reference_events_per_sec,
            cell.speedup(),
            if i + 1 == cells.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!("  \"total_seconds\": {total_seconds:.3}\n"));
    out.push_str("}\n");
    out
}

/// `picl bench [--quick] [--out FILE] [--scale F]`.
///
/// Every cell is simulated on both paths in every run, one after the
/// other: cells time wall-clock, so they must not compete for cores, and
/// the differential is a gate, so no run may skip it.
pub fn cmd_bench(args: &Args) -> Result<(), ArgError> {
    args.expect_only(&["quick", "out", "scale"])?;
    let quick = args.is_set("quick");
    let scale = args.float_or("scale", 1.0)?;
    if scale.is_nan() || scale <= 0.0 {
        return Err(ArgError("--scale must be positive".into()));
    }

    let mut matrix = quick_cells(scale);
    if !quick {
        matrix.push(paper_cell(scale));
    }

    println!(
        "{:<22}{:>10}{:>14}{:>14}{:>9}",
        "cell", "instr", "events/s", "ref ev/s", "speedup"
    );
    let started = Instant::now();
    let mut cells = Vec::with_capacity(matrix.len());
    for (label, sim) in &matrix {
        let cell = run_cell(label, sim)?;
        println!(
            "{:<22}{:>10}{:>14.0}{:>14.0}{:>8.2}x",
            cell.label,
            cell.instructions,
            cell.events_per_sec,
            cell.reference_events_per_sec,
            cell.speedup()
        );
        cells.push(cell);
    }
    let total_seconds = started.elapsed().as_secs_f64();

    let json = to_json(if quick { "quick" } else { "full" }, &cells, total_seconds);
    validate_json(&json).map_err(|e| ArgError(format!("emitted JSON invalid: {e}")))?;
    if let Some(out_path) = args.get("out") {
        std::fs::write(out_path, &json)
            .map_err(|e| ArgError(format!("cannot write {out_path}: {e}")))?;
        println!(
            "wrote {out_path} ({} cells, {total_seconds:.1}s total)",
            cells.len()
        );
    }

    if let Some(speedup) = check_paper_speedup(quick, &cells)? {
        println!(
            "paper cell: fast path {speedup:.2}x its reference path \
             (floor {MIN_PAPER_SPEEDUP}x) — ok"
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use picl_telemetry::json::Value;

    fn cell(label: &str, events_per_sec: f64, reference_events_per_sec: f64) -> CellResult {
        CellResult {
            label: label.into(),
            scheme: "PiCL".into(),
            workload: "gcc".into(),
            cores: 1,
            instructions: 1_000_000,
            events_per_sec,
            reference_events_per_sec,
        }
    }

    #[test]
    fn paper_speedup_check_needs_ten_x_in_full_mode() {
        let quick_cell = cell("PiCL/gcc x1", 2_000.0, 1_000.0);
        let paper = |speedup: f64| cell(PAPER_LABEL, speedup * 1_000.0, 1_000.0);

        // Quick mode has no paper cell and nothing to check.
        assert_eq!(
            check_paper_speedup(true, std::slice::from_ref(&quick_cell)).unwrap(),
            None
        );
        // Full mode passes at or above the floor…
        assert_eq!(
            check_paper_speedup(false, &[quick_cell.clone(), paper(10.0)]).unwrap(),
            Some(10.0)
        );
        assert_eq!(
            check_paper_speedup(false, &[quick_cell.clone(), paper(35.0)]).unwrap(),
            Some(35.0)
        );
        // …and fails below it, or when the paper cell is missing.
        let err = check_paper_speedup(false, &[quick_cell.clone(), paper(9.5)]).unwrap_err();
        assert!(err.to_string().contains("9.50x"), "{err}");
        assert!(check_paper_speedup(false, &[quick_cell]).is_err());
    }

    #[test]
    fn json_reports_both_paths_per_cell() {
        let json = to_json("full", &[cell(PAPER_LABEL, 32_000.0, 1_000.0)], 1.0);
        validate_json(&json).unwrap();
        let doc = Value::parse(&json).unwrap();
        assert_eq!(doc.field_str("schema").unwrap(), "picl-bench-v2");
        let cells = doc.get("cells").and_then(Value::as_arr).unwrap();
        assert_eq!(cells.len(), 1);
        assert_eq!(cells[0].field_str("label").unwrap(), PAPER_LABEL);
        assert_eq!(cells[0].get("speedup").and_then(Value::as_f64), Some(32.0));
        assert!(json.contains("\"identical\": true"), "{json}");
    }

    #[test]
    fn scaled_applies_floor() {
        assert_eq!(scaled(100_000, 0.001, 5_000), 5_000);
        assert_eq!(scaled(100_000, 0.5, 5_000), 50_000);
    }
}
