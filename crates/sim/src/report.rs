//! Per-run result records.

use picl_cache::{HierarchyStats, SchemeStats};
use picl_nvm::NvmStats;
use picl_types::Cycle;

/// Everything a figure-regeneration harness needs from one simulation run.
///
/// Derives `PartialEq` so `picl bench` can require the optimized fast
/// paths and the full-scan reference produce bit-identical reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunReport {
    /// Scheme under test ("PiCL", "FRM", …).
    pub scheme: &'static str,
    /// Workload label (benchmark or mix name).
    pub workload: String,
    /// Cores simulated.
    pub cores: usize,
    /// Total instructions retired across all cores.
    pub instructions: u64,
    /// Wall-clock cycles: the slowest core's finishing time.
    pub total_cycles: Cycle,
    /// Epoch commits (including forced early commits).
    pub commits: u64,
    /// Commits forced by hardware-resource overflow.
    pub forced_commits: u64,
    /// Cycles lost to synchronous (stop-the-world) flushes.
    pub stall_cycles: u64,
    /// Scheme counters (log bytes, buffer flushes, …).
    pub scheme_stats: SchemeStats,
    /// NVM traffic statistics (for the Fig. 12 IOPS breakdown).
    pub nvm: NvmStats,
    /// Cache hierarchy statistics.
    pub hierarchy: HierarchyStats,
}

impl RunReport {
    /// Instructions per cycle, aggregated over all cores.
    pub fn ipc(&self) -> f64 {
        if self.total_cycles.raw() == 0 {
            0.0
        } else {
            self.instructions as f64 / self.total_cycles.raw() as f64
        }
    }

    /// Execution time normalized to a baseline run of the same workload
    /// (the y-axis of Figs. 9, 10, 15, 16).
    pub fn normalized_to(&self, baseline: &RunReport) -> f64 {
        assert_eq!(
            self.instructions, baseline.instructions,
            "normalizing across different workload lengths"
        );
        self.total_cycles.raw() as f64 / baseline.total_cycles.raw().max(1) as f64
    }

    /// Commits per `per_instructions` retired instructions (Fig. 11's
    /// commits-per-30M metric).
    pub fn commits_per(&self, per_instructions: u64) -> f64 {
        self.commits as f64 * per_instructions as f64 / self.instructions.max(1) as f64
    }

    /// Average observed epoch length in instructions (Fig. 14).
    pub fn observed_epoch_len(&self) -> f64 {
        self.instructions as f64 / self.commits.max(1) as f64
    }
}

impl std::fmt::Display for RunReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{} on {} ({} core{}):",
            self.scheme,
            self.workload,
            self.cores,
            if self.cores == 1 { "" } else { "s" }
        )?;
        writeln!(
            f,
            "  {} instructions in {} cycles (IPC {:.3})",
            self.instructions,
            self.total_cycles.raw(),
            self.ipc()
        )?;
        writeln!(
            f,
            "  commits: {} ({} forced), stall cycles: {}",
            self.commits, self.forced_commits, self.stall_cycles
        )?;
        writeln!(
            f,
            "  log: {} entries, {} written",
            self.scheme_stats.log_entries,
            picl_types::stats::format_bytes(self.scheme_stats.log_bytes_written)
        )?;
        let qd = &self.nvm.queue_depth;
        if qd.is_empty() {
            writeln!(f, "  NVM queue depth: {qd}")
        } else {
            let [p50, p90, p99] = [50.0, 90.0, 99.0].map(|p| qd.percentile_defined(p));
            writeln!(
                f,
                "  NVM queue depth: {qd} (p50 {p50:.1}, p90 {p90:.1}, p99 {p99:.1})"
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(cycles: u64, instructions: u64, commits: u64) -> RunReport {
        RunReport {
            scheme: "PiCL",
            workload: "test".to_owned(),
            cores: 1,
            instructions,
            total_cycles: Cycle(cycles),
            commits,
            forced_commits: 0,
            stall_cycles: 0,
            scheme_stats: SchemeStats::default(),
            nvm: NvmStats::new(),
            hierarchy: HierarchyStats::default(),
        }
    }

    #[test]
    fn ipc_and_normalization() {
        let base = report(1000, 2000, 1);
        let slow = report(1500, 2000, 1);
        assert!((base.ipc() - 2.0).abs() < 1e-12);
        assert!((slow.normalized_to(&base) - 1.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "different workload lengths")]
    fn normalizing_mismatched_runs_panics() {
        let a = report(10, 100, 1);
        let b = report(10, 200, 1);
        let _ = a.normalized_to(&b);
    }

    #[test]
    fn commit_metrics() {
        let r = report(1000, 60_000_000, 4);
        assert!((r.commits_per(30_000_000) - 2.0).abs() < 1e-12);
        assert!((r.observed_epoch_len() - 15_000_000.0).abs() < 1e-6);
    }

    #[test]
    fn display_contains_key_fields() {
        let s = report(10, 20, 1).to_string();
        assert!(s.contains("PiCL"));
        assert!(s.contains("IPC"));
    }
}
