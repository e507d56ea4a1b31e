//! `picl bench` — the fast-vs-reference differential.
//!
//! Runs a pinned scheme×workload matrix twice per cell: once on the
//! optimized fast paths (epoch-indexed drains, golden snapshots folded
//! through the persisted frontier) and once on the reference paths
//! (full-scan drains, a golden chain that never folds). A cell passes
//! only if the two [`RunReport`]s are bit-identical; the fast side's
//! drains examined no line by full scan while the reference side's
//! examined some (unless the scheme never drains, as Ideal does not);
//! every epoch the fast machine can still reconstruct has the same image
//! on the reference machine; and a scheme that drains has folded its
//! fast golden chain, so those images are built through the overlay on
//! the NVM contents. A cell that neither drains nor folds (Ideal) is
//! judged on report equality only: its two chains are built by the same
//! code. The scan counts are exact, so the gate needs no noise margin. Events/sec
//! (simulated instructions per wall-clock second) of both runs and their
//! ratio are reported, in a `picl-bench-v3` JSON document, but gate
//! nothing: throughput is judged by the paired runs of `benchmark/`.

use std::time::Instant;

use picl_cache::DrainWork;
use picl_nvm::Nvm;
use picl_sim::{Machine, RunReport, SchemeKind, Simulation, WorkloadSpec};
use picl_telemetry::json::{escape as json_escape, validate_json};
use picl_trace::mixes::table_v_mixes;
use picl_trace::spec::SpecBenchmark;
use picl_types::{EpochId, SystemConfig};

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
/// Label of the paper cell.
const PAPER_LABEL: &str = "PiCL/W0 x8 paper";

/// One measured matrix cell.
#[derive(Debug, Clone)]
struct CellResult {
    label: String,
    /// The fast side's report, identical to the reference side's.
    report: RunReport,
    /// Optimized-path events (instructions) per wall-clock second.
    events_per_sec: f64,
    /// Reference-path events per wall-clock second.
    reference_events_per_sec: f64,
    fast_work: DrainWork,
    reference_work: DrainWork,
    /// Epochs whose images the two machines were compared on; 0 for a
    /// cell judged on report equality only.
    epochs_compared: usize,
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

/// The paper cell: PiCL on the W0 mix, 8 cores, 16 MB LLC, snapshots on.
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

/// Runs one cell on both paths and judges it.
fn run_cell(label: &str, sim: &Simulation) -> Result<CellResult, ArgError> {
    let timed = |reference: bool| -> Result<(Machine, f64), ArgError> {
        let started = Instant::now();
        let machine = sim
            .clone()
            .reference_mode(reference)
            .run_machine()
            .map_err(|e| ArgError(e.to_string()))?;
        Ok((machine, started.elapsed().as_secs_f64().max(1e-9)))
    };
    let (fast, fast_secs) = timed(false)?;
    let (reference, reference_secs) = timed(true)?;
    let epochs_compared = judge_cell(label, &fast, &reference)?;
    let report = fast.report();
    Ok(CellResult {
        label: label.to_owned(),
        events_per_sec: report.instructions as f64 / fast_secs,
        reference_events_per_sec: report.instructions as f64 / reference_secs,
        report,
        fast_work: fast.drain_work(),
        reference_work: reference.drain_work(),
        epochs_compared,
    })
}

/// The differential gate on one cell's two finished machines: identical
/// reports, each side's drains on its own path, identical images.
/// Returns the number of epochs whose images were compared.
fn judge_cell(label: &str, fast: &Machine, reference: &Machine) -> Result<usize, ArgError> {
    if fast.report() != reference.report() {
        return Err(ArgError(format!(
            "differential check failed: {label} reports diverge between the \
             optimized and reference paths"
        )));
    }
    let (work, reference_work) = (fast.drain_work(), reference.drain_work());
    if work.scanned_lines > 0 {
        return Err(ArgError(format!(
            "{label}: the fast path's drains examined {} lines by full scan \
             instead of the epoch index",
            work.scanned_lines
        )));
    }
    if reference_work.drains > 0 && reference_work.scanned_lines == 0 {
        return Err(ArgError(format!(
            "{label}: the reference path's {} drains examined 0 lines by full \
             scan, so the differential compared the fast path with itself",
            reference_work.drains
        )));
    }
    compare_images(label, fast.memory(), reference.memory(), work.drains)
}

/// Fails unless every epoch `fast`'s golden chain can still reconstruct
/// has the same image in `reference`'s, an unfolded chain of the same
/// commits, and unless `fast`'s chain folded if its scheme served any of
/// `drains`. Returns the epochs compared: none if the scheme neither
/// drained nor folded, as the two chains are then built by the same code.
fn compare_images(
    label: &str,
    fast: &Nvm,
    reference: &Nvm,
    drains: u64,
) -> Result<usize, ArgError> {
    let (Some(chain), Some(reference_chain)) = (fast.golden(), reference.golden()) else {
        unreachable!("bench cells keep snapshots");
    };
    if reference_chain.horizon() != EpochId::ZERO {
        return Err(ArgError(format!(
            "{label}: the reference golden chain folded through {}, \
             so the image check would compare folded with folded",
            reference_chain.horizon()
        )));
    }
    if chain.horizon() == EpochId::ZERO {
        if drains > 0 {
            return Err(ArgError(format!(
                "{label}: the fast golden chain never folded although the \
                 scheme drained {drains} times, so the image check would \
                 compare unfolded with unfolded"
            )));
        }
        return Ok(0);
    }
    for epoch in chain.epochs() {
        let image = |nvm: &Nvm| nvm.golden_image(epoch).expect("a committed epoch");
        let lines = image(fast).diff(&image(reference));
        if let Some(first) = lines.first() {
            return Err(ArgError(format!(
                "{label}: the golden image of {epoch} differs from the \
                 reference's at {} lines, first line {}",
                lines.len(),
                first.raw()
            )));
        }
    }
    Ok(chain.epochs().count())
}

/// Renders the `picl-bench-v3` document.
fn to_json(mode: &str, cells: &[CellResult], total_seconds: f64) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"picl-bench-v3\",\n");
    out.push_str(&format!("  \"mode\": \"{mode}\",\n"));
    out.push_str("  \"cells\": [\n");
    for (i, cell) in cells.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"label\": \"{}\", \"scheme\": \"{}\", \"workload\": \"{}\", \
             \"cores\": {}, \"instructions\": {}, \"events_per_sec\": {:.1}, \
             \"reference_events_per_sec\": {:.1}, \"speedup\": {:.3}, \
             \"drains\": {}, \"fast_scanned_lines\": {}, \
             \"reference_scanned_lines\": {}, \"epochs_compared\": {}}}{}\n",
            json_escape(&cell.label),
            json_escape(cell.report.scheme),
            json_escape(&cell.report.workload),
            cell.report.cores,
            cell.report.instructions,
            cell.events_per_sec,
            cell.reference_events_per_sec,
            cell.speedup(),
            cell.reference_work.drains,
            cell.fast_work.scanned_lines,
            cell.reference_work.scanned_lines,
            cell.epochs_compared,
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
        "{:<22}{:>10}{:>14}{:>14}{:>9}{:>13}{:>8}",
        "cell", "instr", "events/s", "ref ev/s", "speedup", "ref scanned", "epochs"
    );
    let started = Instant::now();
    let mut cells = Vec::with_capacity(matrix.len());
    for (label, sim) in &matrix {
        let cell = run_cell(label, sim)?;
        let (epochs, note) = match cell.epochs_compared {
            0 => ("-".to_owned(), "  report equality only"),
            n => (n.to_string(), ""),
        };
        println!(
            "{:<22}{:>10}{:>14.0}{:>14.0}{:>8.2}x{:>13}{:>8}{note}",
            cell.label,
            cell.report.instructions,
            cell.events_per_sec,
            cell.reference_events_per_sec,
            cell.speedup(),
            cell.reference_work.scanned_lines,
            epochs
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
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use picl_cache::{HierarchyStats, SchemeStats};
    use picl_nvm::NvmStats;
    use picl_telemetry::json::Value;
    use picl_types::{Cycle, LineAddr};

    fn cell(label: &str, events_per_sec: f64, reference_events_per_sec: f64) -> CellResult {
        CellResult {
            label: label.into(),
            report: RunReport {
                scheme: "PiCL",
                workload: "gcc".into(),
                cores: 1,
                instructions: 1_000_000,
                total_cycles: Cycle::ZERO,
                commits: 0,
                forced_commits: 0,
                stall_cycles: 0,
                scheme_stats: SchemeStats::default(),
                nvm: NvmStats::default(),
                hierarchy: HierarchyStats::default(),
            },
            events_per_sec,
            reference_events_per_sec,
            fast_work: DrainWork {
                drains: 100,
                scanned_lines: 0,
            },
            reference_work: DrainWork {
                drains: 100,
                scanned_lines: 52_000,
            },
            epochs_compared: 4,
        }
    }

    /// Quick cell `cell` at a small scale (0 is Ideal, 5 PiCL), run with
    /// the fast and the reference side each on the given path.
    fn pair(
        cell: usize,
        fast_on_reference: bool,
        reference_on_reference: bool,
    ) -> (Machine, Machine) {
        let (_, sim) = quick_cells(0.02).swap_remove(cell);
        let run = |on: bool| sim.clone().reference_mode(on).run_machine().unwrap();
        (run(fast_on_reference), run(reference_on_reference))
    }

    #[test]
    fn gate_passes_a_true_pair() {
        let (fast, reference) = pair(5, false, true);
        let epochs = judge_cell("PiCL/gcc x1", &fast, &reference).unwrap();
        assert!(epochs >= 2, "{epochs} epochs compared");
        assert!(fast.drain_work().drains > 0);
        assert_eq!(fast.drain_work().drains, reference.drain_work().drains);
        // Ideal never drains, so neither side has a scan to count, and
        // never folds: its check is report equality only.
        let (fast, reference) = pair(0, false, true);
        assert_eq!(reference.drain_work(), DrainWork::default());
        assert_eq!(judge_cell("Ideal/gcc x1", &fast, &reference).unwrap(), 0);
    }

    /// A memory keeping a golden history with `writes(e)` committed at
    /// each epoch `e` of `epochs`, folded through `fold`.
    fn history(
        epochs: std::ops::RangeInclusive<u64>,
        writes: impl Fn(u64) -> Vec<(LineAddr, u64)>,
        fold: Option<EpochId>,
    ) -> Nvm {
        let mut nvm = Nvm::new(
            picl_types::config::NvmConfig::paper_nvm(),
            picl_types::time::ClockDomain::from_mhz(2000),
        );
        nvm.keep_golden_history();
        for epoch in epochs {
            nvm.commit_golden(EpochId(epoch), writes(epoch), fold);
        }
        nvm
    }

    #[test]
    fn gate_fails_a_fast_side_that_never_folded() {
        // A fast chain that never folded builds its images as the
        // reference does, so a scheme that drained must have folded.
        let writes = |epoch: u64| vec![(LineAddr::new(epoch), epoch)];
        let unfolded = history(1..=3, writes, None);
        let reference = history(1..=3, writes, None);
        let err = compare_images("cell", &unfolded, &reference, 12)
            .unwrap_err()
            .to_string();
        assert!(err.contains("never folded"), "{err}");
        assert!(err.contains("drained 12 times"), "{err}");
        // With no drain (Ideal) the cell is judged on its reports alone.
        assert_eq!(compare_images("cell", &unfolded, &reference, 0).unwrap(), 0);
        let folded = history(1..=3, writes, Some(EpochId(2)));
        assert_eq!(compare_images("cell", &folded, &reference, 12).unwrap(), 2);
    }

    #[test]
    fn gate_fails_a_fast_side_that_scanned() {
        // Both sides on the reference paths: reports and images agree,
        // but the "fast" side's drains took the full scan.
        let (fast, reference) = pair(5, true, true);
        let scanned = fast.drain_work().scanned_lines;
        assert!(scanned > 0);
        let err = judge_cell("PiCL/gcc x1", &fast, &reference)
            .unwrap_err()
            .to_string();
        assert!(err.contains("PiCL/gcc x1"), "{err}");
        assert!(err.contains(&format!("examined {scanned} lines")), "{err}");
    }

    #[test]
    fn gate_fails_a_reference_side_that_never_scanned() {
        // Both sides on the fast paths: the differential would compare
        // the fast path with itself.
        let (fast, reference) = pair(5, false, false);
        let err = judge_cell("PiCL/gcc x1", &fast, &reference)
            .unwrap_err()
            .to_string();
        assert!(err.contains("examined 0 lines"), "{err}");
        assert!(err.contains("with itself"), "{err}");
    }

    #[test]
    fn gate_fails_one_corrupted_folded_epoch() {
        let writes = |epoch: u64| -> Vec<(LineAddr, u64)> {
            (0..16)
                .map(|l| (LineAddr::new(l * 3), epoch * 100 + l))
                .collect()
        };
        // The fast side folds through epoch 2 at each commit.
        let fast = history(1..=4, writes, Some(EpochId(2)));
        let reference = history(1..=4, writes, None);
        assert_eq!(compare_images("cell", &fast, &reference, 1).unwrap(), 3);

        // Epoch 2 folds with one line that its commit never wrote.
        let corrupt = history(
            1..=4,
            |epoch| {
                let mut delta = writes(epoch);
                if epoch == 2 {
                    delta.push((LineAddr::new(1_000), 7));
                }
                delta
            },
            Some(EpochId(2)),
        );
        let err = compare_images("cell", &corrupt, &reference, 1)
            .unwrap_err()
            .to_string();
        assert!(err.contains("golden image of E2"), "{err}");
        assert!(err.contains("at 1 lines, first line 1000"), "{err}");

        // A reference chain that folded checks nothing.
        let err = compare_images("cell", &fast, &fast, 1)
            .unwrap_err()
            .to_string();
        assert!(err.contains("folded with folded"), "{err}");
    }

    #[test]
    fn json_reports_both_paths_per_cell() {
        let json = to_json("full", &[cell(PAPER_LABEL, 32_000.0, 1_000.0)], 1.0);
        validate_json(&json).unwrap();
        let doc = Value::parse(&json).unwrap();
        assert_eq!(doc.field_str("schema").unwrap(), "picl-bench-v3");
        let cells = doc.get("cells").and_then(Value::as_arr).unwrap();
        assert_eq!(cells.len(), 1);
        assert_eq!(cells[0].field_str("label").unwrap(), PAPER_LABEL);
        assert_eq!(cells[0].get("speedup").and_then(Value::as_f64), Some(32.0));
        let count = |field: &str| cells[0].get(field).and_then(Value::as_f64);
        assert_eq!(count("fast_scanned_lines"), Some(0.0));
        assert_eq!(count("reference_scanned_lines"), Some(52_000.0));
        assert_eq!(count("drains"), Some(100.0));
        assert_eq!(count("epochs_compared"), Some(4.0));
    }

    #[test]
    fn scaled_applies_floor() {
        assert_eq!(scaled(100_000, 0.001, 5_000), 5_000);
        assert_eq!(scaled(100_000, 0.5, 5_000), 50_000);
    }
}
