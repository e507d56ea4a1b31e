//! Offline trace analytics: what the run spent its time on.
//!
//! Consumes the same parsed [`TraceLine`] stream as the offline auditor
//! and produces an aggregate [`Analytics`]: epoch critical-path breakdown
//! (execute time vs persist lag), boundary-stall attribution, NVM traffic
//! and bandwidth, and queue-depth percentiles from the interpolated
//! [`Histogram`] estimators.

use std::collections::HashMap;

use picl_types::stats::Histogram;

use crate::checker::AuditEvent;
use crate::trace::{TraceLine, TraceRecord};

/// Epoch critical-path breakdown: how long epochs took to execute
/// (begin → commit) and how far durability trailed (commit → persist).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EpochBreakdown {
    /// Epochs that began.
    pub begun: u64,
    /// Epochs that committed.
    pub committed: u64,
    /// Epochs that persisted.
    pub persisted: u64,
    /// Mean begin → commit cycles, over epochs with both endpoints.
    pub mean_execute_cycles: Option<f64>,
    /// Largest begin → commit span.
    pub max_execute_cycles: u64,
    /// Mean commit → persist cycles, over epochs with both endpoints.
    pub mean_persist_lag: Option<f64>,
    /// Largest commit → persist span.
    pub max_persist_lag: u64,
}

/// Boundary-stall attribution.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StallStats {
    /// Number of boundary stalls.
    pub count: u64,
    /// Cycles spent stalled, summed.
    pub total_cycles: u64,
    /// The longest single stall.
    pub max_cycles: u64,
}

impl StallStats {
    /// Stalled share of the run, in percent.
    pub fn share_of(&self, total_cycles: u64) -> f64 {
        if total_cycles == 0 {
            0.0
        } else {
            100.0 * self.total_cycles as f64 / total_cycles as f64
        }
    }
}

/// NVM traffic totals, plus a per-scheduling-class breakdown.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NvmStats {
    /// Read requests enqueued.
    pub reads: u64,
    /// Write requests enqueued.
    pub writes: u64,
    /// Bytes read.
    pub read_bytes: u64,
    /// Bytes written.
    pub write_bytes: u64,
    /// `(class, requests, bytes)` per scheduling class, in first-seen
    /// order.
    pub by_class: Vec<(String, u64, u64)>,
}

impl NvmStats {
    /// All bytes moved.
    pub fn total_bytes(&self) -> u64 {
        self.read_bytes + self.write_bytes
    }

    /// Average NVM bandwidth over the run in MB/s, at the given core
    /// clock. `None` for an empty run.
    pub fn bandwidth_mbps(&self, total_cycles: u64, clock_mhz: f64) -> Option<f64> {
        if total_cycles == 0 || clock_mhz <= 0.0 {
            return None;
        }
        let seconds = total_cycles as f64 / (clock_mhz * 1e6);
        Some(self.total_bytes() as f64 / 1e6 / seconds)
    }
}

/// Everything the analytics pass extracts from one trace.
#[derive(Debug, Clone, Default)]
pub struct Analytics {
    /// Highest cycle stamped on any line (run length).
    pub total_cycles: u64,
    /// Trace lines consumed.
    pub lines: u64,
    /// Epoch critical path.
    pub epochs: EpochBreakdown,
    /// Boundary stalls.
    pub stalls: StallStats,
    /// NVM traffic.
    pub nvm: NvmStats,
    /// Queue depth observed at each NVM enqueue.
    pub queue_depth: Histogram,
    /// ACS passes completed.
    pub acs_scans: u64,
    /// Lines the ACS wrote back, summed over passes.
    pub acs_lines: u64,
    /// Events lost to ring overwrites (from the accounting record).
    pub dropped: u64,
}

/// Runs the analytics pass over a parsed, cycle-sorted trace.
pub fn analyze(lines: &[TraceLine], clock_mhz: f64) -> Analytics {
    let mut out = Analytics {
        lines: lines.len() as u64,
        ..Analytics::default()
    };
    let _ = clock_mhz; // only Display converts; kept for call-site clarity

    let mut begin_at: HashMap<u64, u64> = HashMap::new();
    let mut commit_at: HashMap<u64, u64> = HashMap::new();
    let mut execute_sum = 0u64;
    let mut execute_n = 0u64;
    let mut lag_sum = 0u64;
    let mut lag_n = 0u64;
    let mut depth = 0u64;

    for line in lines {
        out.total_cycles = out.total_cycles.max(line.cycle);
        match &line.record {
            TraceRecord::Audit(ev) => match *ev {
                AuditEvent::EpochBegin { eid } => {
                    out.epochs.begun += 1;
                    begin_at.insert(eid, line.cycle);
                }
                AuditEvent::EpochCommit { eid } => {
                    out.epochs.committed += 1;
                    commit_at.insert(eid, line.cycle);
                    if let Some(&b) = begin_at.get(&eid) {
                        let span = line.cycle.saturating_sub(b);
                        execute_sum += span;
                        execute_n += 1;
                        out.epochs.max_execute_cycles = out.epochs.max_execute_cycles.max(span);
                    }
                }
                AuditEvent::EpochPersist { eid } => {
                    out.epochs.persisted += 1;
                    if let Some(&c) = commit_at.get(&eid) {
                        let span = line.cycle.saturating_sub(c);
                        lag_sum += span;
                        lag_n += 1;
                        out.epochs.max_persist_lag = out.epochs.max_persist_lag.max(span);
                    }
                }
                _ => {}
            },
            TraceRecord::StallBegin { until } => {
                let span = until.saturating_sub(line.cycle);
                out.stalls.count += 1;
                out.stalls.total_cycles += span;
                out.stalls.max_cycles = out.stalls.max_cycles.max(span);
                out.total_cycles = out.total_cycles.max(*until);
            }
            TraceRecord::StallEnd { .. } => {}
            TraceRecord::NvmEnqueue {
                class,
                write,
                bytes,
            } => {
                depth += 1;
                out.queue_depth.record(depth);
                if *write {
                    out.nvm.writes += 1;
                    out.nvm.write_bytes += bytes;
                } else {
                    out.nvm.reads += 1;
                    out.nvm.read_bytes += bytes;
                }
                match out.nvm.by_class.iter_mut().find(|(c, _, _)| c == class) {
                    Some((_, reqs, total)) => {
                        *reqs += 1;
                        *total += bytes;
                    }
                    None => out.nvm.by_class.push((class.clone(), 1, *bytes)),
                }
            }
            TraceRecord::NvmComplete { .. } => {
                depth = depth.saturating_sub(1);
            }
            TraceRecord::AcsScanStart { .. } => {}
            TraceRecord::AcsScanEnd { lines, .. } => {
                out.acs_scans += 1;
                out.acs_lines += lines;
            }
            TraceRecord::Dropped { dropped } => out.dropped += dropped,
            TraceRecord::Other => {}
        }
    }

    out.epochs.mean_execute_cycles = (execute_n > 0).then(|| execute_sum as f64 / execute_n as f64);
    out.epochs.mean_persist_lag = (lag_n > 0).then(|| lag_sum as f64 / lag_n as f64);
    out
}

/// Renders the analytics with cycle→wall-clock conversion at the given
/// core clock (MHz).
pub struct AnalyticsDisplay<'a> {
    analytics: &'a Analytics,
    clock_mhz: f64,
}

impl Analytics {
    /// A [`Display`](std::fmt::Display) adaptor at the given clock.
    pub fn display(&self, clock_mhz: f64) -> AnalyticsDisplay<'_> {
        AnalyticsDisplay {
            analytics: self,
            clock_mhz,
        }
    }
}

fn opt_f64(v: Option<f64>) -> String {
    match v {
        Some(x) => format!("{x:.1}"),
        None => "-".into(),
    }
}

impl std::fmt::Display for AnalyticsDisplay<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let a = self.analytics;
        writeln!(
            f,
            "trace: {} line(s) over {} cycle(s)",
            a.lines, a.total_cycles
        )?;
        let e = &a.epochs;
        writeln!(
            f,
            "epochs: {} begun, {} committed, {} persisted",
            e.begun, e.committed, e.persisted
        )?;
        writeln!(
            f,
            "  execute (begin->commit): mean {} cycles, max {}",
            opt_f64(e.mean_execute_cycles),
            e.max_execute_cycles
        )?;
        writeln!(
            f,
            "  persist lag (commit->persist): mean {} cycles, max {}",
            opt_f64(e.mean_persist_lag),
            e.max_persist_lag
        )?;
        writeln!(
            f,
            "stalls: {} boundary stall(s), {} cycles ({:.2}% of run), max {}",
            a.stalls.count,
            a.stalls.total_cycles,
            a.stalls.share_of(a.total_cycles),
            a.stalls.max_cycles
        )?;
        let bw = match a.nvm.bandwidth_mbps(a.total_cycles, self.clock_mhz) {
            Some(bw) => format!("{bw:.2} MB/s @ {:.0} MHz", self.clock_mhz),
            None => "no bandwidth (empty run)".into(),
        };
        writeln!(
            f,
            "nvm: {} read(s) ({} B), {} write(s) ({} B), {bw}",
            a.nvm.reads, a.nvm.read_bytes, a.nvm.writes, a.nvm.write_bytes
        )?;
        for (class, reqs, bytes) in &a.nvm.by_class {
            writeln!(f, "  class {class}: {reqs} request(s), {bytes} B")?;
        }
        if a.queue_depth.is_empty() {
            writeln!(f, "nvm queue depth: no samples")?;
        } else {
            let [p50, p90, p99] = [50.0, 90.0, 99.0].map(|p| a.queue_depth.percentile_defined(p));
            writeln!(
                f,
                "nvm queue depth: p50 {p50:.1} p90 {p90:.1} p99 {p99:.1} max {}",
                a.queue_depth.max().unwrap_or(0)
            )?;
        }
        writeln!(
            f,
            "acs: {} pass(es), {} line(s) written back",
            a.acs_scans, a.acs_lines
        )?;
        if a.dropped > 0 {
            writeln!(
                f,
                "warning: {} event(s) dropped by ring overwrites; figures are lower bounds",
                a.dropped
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::parse_trace;

    fn fixture() -> Vec<TraceLine> {
        parse_trace(
            "\
{\"cycle\":0,\"core\":null,\"event\":\"epoch_begin\",\"eid\":1}
{\"cycle\":10,\"core\":0,\"event\":\"nvm_enqueue\",\"class\":\"demand-read\",\"write\":false,\"bytes\":64}
{\"cycle\":20,\"core\":0,\"event\":\"nvm_enqueue\",\"class\":\"undo-log-write\",\"write\":true,\"bytes\":128}
{\"cycle\":90,\"core\":0,\"event\":\"nvm_complete\",\"class\":\"demand-read\",\"queued_at\":10}
{\"cycle\":100,\"core\":null,\"event\":\"epoch_commit\",\"eid\":1}
{\"cycle\":100,\"core\":null,\"event\":\"epoch_begin\",\"eid\":2}
{\"cycle\":120,\"core\":null,\"event\":\"acs_scan_start\",\"target\":1}
{\"cycle\":150,\"core\":null,\"event\":\"nvm_complete\",\"class\":\"undo-log-write\",\"queued_at\":20}
{\"cycle\":180,\"core\":null,\"event\":\"acs_scan_end\",\"target\":1,\"lines\":2}
{\"cycle\":185,\"core\":null,\"event\":\"epoch_persist\",\"eid\":1}
{\"cycle\":200,\"core\":null,\"event\":\"boundary_stall_begin\",\"until\":260}
{\"cycle\":250,\"core\":null,\"event\":\"epoch_commit\",\"eid\":2}
{\"cycle\":260,\"core\":null,\"event\":\"boundary_stall_end\",\"since\":200}
{\"cycle\":260,\"core\":null,\"event\":\"dropped_events\",\"dropped\":0,\"by_lane\":[0]}
",
        )
        .expect("fixture parses")
    }

    #[test]
    fn epoch_critical_path_breakdown() {
        let a = analyze(&fixture(), 2000.0);
        assert_eq!(a.epochs.begun, 2);
        assert_eq!(a.epochs.committed, 2);
        assert_eq!(a.epochs.persisted, 1);
        // Epoch 1 executes 0->100, epoch 2 executes 100->250.
        assert_eq!(a.epochs.mean_execute_cycles, Some(125.0));
        assert_eq!(a.epochs.max_execute_cycles, 150);
        // Epoch 1 persists at 185, 85 cycles after its commit at 100.
        assert_eq!(a.epochs.mean_persist_lag, Some(85.0));
        assert_eq!(a.epochs.max_persist_lag, 85);
    }

    #[test]
    fn stall_attribution_and_run_length() {
        let a = analyze(&fixture(), 2000.0);
        assert_eq!(a.stalls.count, 1);
        assert_eq!(a.stalls.total_cycles, 60);
        assert_eq!(a.stalls.max_cycles, 60);
        assert_eq!(a.total_cycles, 260);
        assert!((a.stalls.share_of(a.total_cycles) - 23.08).abs() < 0.01);
    }

    #[test]
    fn nvm_traffic_bandwidth_and_queue_depth() {
        let a = analyze(&fixture(), 2000.0);
        assert_eq!((a.nvm.reads, a.nvm.writes), (1, 1));
        assert_eq!((a.nvm.read_bytes, a.nvm.write_bytes), (64, 128));
        assert_eq!(
            a.nvm.by_class,
            vec![
                ("demand-read".to_string(), 1, 64),
                ("undo-log-write".to_string(), 1, 128)
            ]
        );
        // 192 bytes over 260 cycles at 2000 MHz = 192 B / 130 ns.
        let bw = a.nvm.bandwidth_mbps(a.total_cycles, 2000.0).unwrap();
        assert!((bw - 1476.9).abs() < 1.0, "bandwidth {bw}");
        // Depth went 1 (first enqueue) then 2 (second, before completion).
        assert_eq!(a.queue_depth.count(), 2);
        assert_eq!(a.queue_depth.max(), Some(2));
    }

    #[test]
    fn acs_and_drop_accounting() {
        let a = analyze(&fixture(), 2000.0);
        assert_eq!(a.acs_scans, 1);
        assert_eq!(a.acs_lines, 2);
        assert_eq!(a.dropped, 0);
    }

    #[test]
    fn display_renders_every_section() {
        let a = analyze(&fixture(), 2000.0);
        let text = a.display(2000.0).to_string();
        for needle in [
            "epochs: 2 begun, 2 committed, 1 persisted",
            "persist lag",
            "boundary stall",
            "MB/s @ 2000 MHz",
            "class demand-read",
            "nvm queue depth: p50",
            "acs: 1 pass(es), 2 line(s) written back",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
        assert!(!text.contains("warning"), "no drops, no warning");
    }

    #[test]
    fn empty_trace_analyzes_cleanly() {
        let a = analyze(&[], 2000.0);
        assert_eq!(a.total_cycles, 0);
        assert_eq!(a.nvm.bandwidth_mbps(0, 2000.0), None);
        let text = a.display(2000.0).to_string();
        assert!(text.contains("no samples"), "{text}");
    }
}
