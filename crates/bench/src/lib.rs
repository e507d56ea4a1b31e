//! Shared infrastructure for the figure- and table-regeneration harness.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the paper's
//! evaluation (see DESIGN.md §4 for the index). This library provides the
//! common pieces: environment knobs, the standard experiment grids, and
//! plain-text table/bar rendering so results read like the paper's plots.
//!
//! # Environment knobs
//!
//! * `PICL_SCALE` — multiplies every instruction budget (default `1.0`;
//!   use e.g. `0.1` for a quick smoke pass).
//! * `PICL_THREADS` — worker threads for experiment grids (default: all
//!   available cores).
//! * `PICL_SEED` — experiment seed (default 42).
//! * `PICL_RESUME` — checkpoint directory: finished cells persist there,
//!   and a relaunch re-runs only the missing or failed ones.
//! * `PICL_CELL_TIMEOUT` — per-cell wall-clock watchdog in seconds.
//! * `PICL_KEEP_GOING` — set to `0` to abort a figure on the first
//!   failing cell (default: finish every sibling, then report).

use picl_sim::{
    run_experiments_with, CampaignOptions, RunReport, SchemeKind, Simulation, WorkloadSpec,
};
use picl_types::SystemConfig;

/// Default experiment seed.
pub const DEFAULT_SEED: u64 = 42;

/// Reads the `PICL_SCALE` budget multiplier.
pub fn scale() -> f64 {
    std::env::var("PICL_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|s: &f64| *s > 0.0)
        .unwrap_or(1.0)
}

/// Reads the `PICL_SEED` experiment seed.
pub fn seed() -> u64 {
    std::env::var("PICL_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(DEFAULT_SEED)
}

/// Reads the `PICL_THREADS` worker-thread count.
pub fn threads() -> usize {
    std::env::var("PICL_THREADS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
        })
}

/// Applies the scale knob to an instruction budget, keeping it nonzero.
pub fn scaled(instructions: u64) -> u64 {
    ((instructions as f64 * scale()) as u64).max(10_000)
}

/// The campaign policy from the environment knobs: `PICL_RESUME`,
/// `PICL_CELL_TIMEOUT`, `PICL_KEEP_GOING`, and `PICL_THREADS`.
pub fn campaign_options() -> CampaignOptions {
    CampaignOptions {
        threads: threads(),
        cell_timeout: std::env::var("PICL_CELL_TIMEOUT")
            .ok()
            .and_then(|s| s.parse().ok())
            .filter(|secs: &f64| secs.is_finite() && *secs > 0.0)
            .map(std::time::Duration::from_secs_f64),
        keep_going: !matches!(
            std::env::var("PICL_KEEP_GOING").as_deref(),
            Ok("0" | "false" | "no")
        ),
        checkpoint: std::env::var("PICL_RESUME")
            .ok()
            .filter(|dir| !dir.is_empty())
            .map(std::path::PathBuf::from),
        progress: true,
    }
}

/// Runs a figure's grid under the fault-isolated executor with the
/// environment policy: one bad cell no longer loses the whole figure.
///
/// # Panics
///
/// Panics with the aggregated per-cell failure list — but only after
/// every healthy sibling has finished (and, with `PICL_RESUME`, been
/// checkpointed), so a relaunch re-runs just the failed cells.
pub fn run_grid(experiments: &[Simulation]) -> Vec<RunReport> {
    run_experiments_with(experiments, &campaign_options())
        .unwrap_or_else(|message| panic!("figure campaign failed: {message}"))
}

/// Builds the standard `(workload × scheme)` grid with shared parameters.
pub fn grid(
    cfg: &SystemConfig,
    workloads: &[WorkloadSpec],
    schemes: &[SchemeKind],
    instructions_per_core: u64,
) -> Vec<Simulation> {
    let mut out = Vec::with_capacity(workloads.len() * schemes.len());
    for w in workloads {
        for &s in schemes {
            out.push(
                Simulation::builder(cfg.clone())
                    .scheme(s)
                    .workload_spec(w.clone())
                    .instructions_per_core(instructions_per_core)
                    .seed(seed()),
            );
        }
    }
    out
}

/// Groups a grid's reports (in grid order) into per-workload rows of
/// execution time normalized to the first scheme (the Ideal baseline).
///
/// Returns `(workload, normalized-per-scheme)` rows.
///
/// # Panics
///
/// Panics if `reports.len()` is not a multiple of `schemes`.
pub fn normalize_rows(reports: &[RunReport], schemes: usize) -> Vec<(String, Vec<f64>)> {
    assert!(
        schemes > 0 && reports.len().is_multiple_of(schemes),
        "ragged grid"
    );
    reports
        .chunks(schemes)
        .map(|chunk| {
            let baseline = &chunk[0];
            let row = chunk.iter().map(|r| r.normalized_to(baseline)).collect();
            (baseline.workload.clone(), row)
        })
        .collect()
}

/// Renders a header plus fixed-width numeric rows, with a geometric-mean
/// footer (the paper's GMean bars).
pub fn print_normalized_table(title: &str, schemes: &[SchemeKind], rows: &[(String, Vec<f64>)]) {
    println!("\n{title}");
    print!("{:<12}", "workload");
    for s in schemes {
        print!("{:>11}", s.name());
    }
    println!();
    let mut columns: Vec<Vec<f64>> = vec![Vec::new(); schemes.len()];
    for (name, values) in rows {
        print!("{name:<12}");
        for (i, v) in values.iter().enumerate() {
            print!("{v:>11.3}");
            columns[i].push(*v);
        }
        println!();
    }
    print!("{:<12}", "GMean");
    for col in &columns {
        let g = picl_types::stats::geometric_mean(col).unwrap_or(f64::NAN);
        print!("{g:>11.3}");
    }
    println!();
}

/// Renders one horizontal ASCII bar scaled so that `full` spans 40 cells.
pub fn bar(value: f64, full: f64) -> String {
    let cells = if full <= 0.0 {
        0
    } else {
        ((value / full) * 40.0).round().clamp(0.0, 60.0) as usize
    };
    "#".repeat(cells)
}

/// Prints the run banner (scale/seed/threads) so saved outputs are
/// self-describing.
pub fn banner(what: &str) {
    println!(
        "=== {what} === (PICL_SCALE={}, seed={}, threads={})",
        scale(),
        seed(),
        threads()
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use picl_sim::CampaignCell;
    use picl_trace::spec::SpecBenchmark;

    #[test]
    fn scaled_never_zero() {
        assert!(scaled(1) >= 10_000);
        assert_eq!(scaled(1_000_000), (1_000_000_f64 * scale()) as u64);
    }

    #[test]
    fn grid_shape() {
        let cfg = SystemConfig::paper_single_core();
        let ws = [
            WorkloadSpec::single(SpecBenchmark::Mcf),
            WorkloadSpec::single(SpecBenchmark::Lbm),
        ];
        let g = grid(&cfg, &ws, &SchemeKind::ALL, 1000);
        assert_eq!(g.len(), 12);
        assert_eq!(g[0].label(), "Ideal on mcf");
        assert_eq!(g[5].label(), "PiCL on mcf");
        assert_eq!(g[11].label(), "PiCL on lbm");
    }

    #[test]
    fn bar_scaling() {
        assert_eq!(bar(1.0, 1.0).len(), 40);
        assert_eq!(bar(0.5, 1.0).len(), 20);
        assert_eq!(bar(0.0, 1.0).len(), 0);
        assert_eq!(bar(10.0, 1.0).len(), 60, "clamped");
        assert_eq!(bar(1.0, 0.0).len(), 0);
    }
}
