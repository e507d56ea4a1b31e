//! The core simulation loop.
//!
//! A [`Machine`] owns the cache hierarchy, the NVM, one consistency scheme,
//! and one trace source per core. Cores advance on private clocks; the
//! laggard (smallest clock) executes next, which keeps shared-resource
//! contention causally ordered without a global event queue.
//!
//! Beyond timing, the machine tracks the values every store produced: each
//! epoch commit records the lines written since the previous one as a
//! golden snapshot ([`DeltaSnapshots`]), and the *logical* memory image is
//! derived from those snapshots on demand. Crash injection invalidates all
//! volatile state, runs the scheme's recovery, and compares NVM contents
//! against the golden snapshot of the epoch the scheme claims to have
//! recovered — the end-to-end crash-consistency check the paper's FPGA
//! prototype performed with micro-benchmarks (§V).
//!
//! After every commit the golden chain folds through the persisted
//! frontier, so it holds only the epochs still in flight, and its base is
//! an overlay on the NVM contents, which keep it. Reference mode
//! ([`Machine::set_reference_mode`]) leaves the chain unfolded, one entry
//! per store, so every committed epoch stays reconstructible from the
//! writes alone; `picl bench` compares the two machines' images.

use picl::os::boundary_handler_line;
use picl_cache::hierarchy::AccessType;
use picl_cache::{ConsistencyScheme, DrainWork, Hierarchy};
use picl_nvm::{DeltaSnapshots, MainMemory, Nvm};
use picl_telemetry::{EventKind, Sampler, Telemetry};
use picl_trace::{AccessKind, EventBatch, TraceEvent, TraceSource};
use picl_types::{CoreId, Cycle, EpochId, LineAddr, SystemConfig};

use crate::report::RunReport;

/// Lines at or above this index belong to scheme-internal regions (undo
/// log, redo buffers, shadow pages) and are excluded from consistency
/// comparisons.
const WORKLOAD_LINE_LIMIT: u64 = 1 << 40;

/// Events decoded per [`TraceSource::fill`] call. Large enough to amortize
/// the per-batch virtual dispatch, small enough that a core's decoded
/// batch stays a few tens of KiB.
const DECODE_CHUNK: usize = 1024;

struct Core {
    clock: Cycle,
    instructions: u64,
    src: Box<dyn TraceSource + Send>,
    batch: EventBatch,
    pos: usize,
}

impl Core {
    /// The next event of this core's stream, refilling the batch from the
    /// core's own source when the current one is exhausted.
    #[inline]
    fn next_event(&mut self) -> TraceEvent {
        if self.pos == self.batch.len() {
            self.refill();
        }
        let ev = self.batch.get(self.pos);
        self.pos += 1;
        ev
    }

    #[cold]
    fn refill(&mut self) {
        self.src.fill(&mut self.batch, DECODE_CHUNK);
        self.pos = 0;
    }
}

/// Result of an injected crash and recovery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrashReport {
    /// What the scheme recovered (target epoch, entries applied, time).
    pub outcome: picl_cache::RecoveryOutcome,
    /// Whether post-recovery NVM contents exactly match the golden
    /// snapshot of the recovered epoch; `None` if snapshots were disabled
    /// or the epoch was never snapshotted.
    pub consistent: Option<bool>,
    /// Total number of mismatching lines (the sample below is capped).
    pub mismatch_count: usize,
    /// Mismatching lines (up to 16, for diagnostics).
    pub mismatches: Vec<LineAddr>,
}

/// A configured, running simulation.
pub struct Machine {
    cfg: SystemConfig,
    hier: Hierarchy,
    mem: Nvm,
    scheme: Box<dyn ConsistencyScheme + Send>,
    cores: Vec<Core>,
    /// Reference mode: the hierarchy drains by full scans, and the golden
    /// chain never folds.
    reference: bool,
    /// `(line, token)` writes since the last commit — the next delta,
    /// moved whole into the snapshot store at the commit. A plain push
    /// list on the store fast path (duplicates fine: later pushes win),
    /// so a store needs no per-line lookup. Empty with snapshots off.
    pending_dirty: Vec<(LineAddr, u64)>,
    /// Instructions retired across all cores.
    retired: u64,
    token: u64,
    instr_since_boundary: u64,
    workload_label: String,
    telemetry: Telemetry,
    sampler: Option<Sampler>,
}

impl std::fmt::Debug for Machine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Machine")
            .field("scheme", &self.scheme.name())
            .field("workload", &self.workload_label)
            .field("cores", &self.cores.len())
            .finish()
    }
}

impl Machine {
    /// Builds a machine: one trace source per core.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid or the trace count does not
    /// match `cfg.cores`.
    pub fn new(
        cfg: SystemConfig,
        scheme: Box<dyn ConsistencyScheme + Send>,
        traces: Vec<Box<dyn TraceSource + Send>>,
        workload_label: impl Into<String>,
        keep_snapshots: bool,
    ) -> Self {
        cfg.validate().expect("valid system configuration");
        assert_eq!(traces.len(), cfg.cores, "one trace per core required");
        let hier = Hierarchy::new(&cfg);
        // Golden snapshots: one delta per commit, kept by the memory over
        // its contents. With snapshots off no history is kept and the
        // power-on image is the only golden snapshot. Epoch 0 (the
        // pre-execution, all-initial image) is implicit; nothing to record
        // up front.
        let mut mem = Nvm::new(cfg.nvm, cfg.clock());
        if keep_snapshots {
            mem.keep_golden_history();
        }
        Machine {
            mem,
            hier,
            scheme,
            cores: traces
                .into_iter()
                .map(|src| Core {
                    clock: Cycle::ZERO,
                    instructions: 0,
                    src,
                    batch: EventBatch::with_capacity(DECODE_CHUNK),
                    pos: 0,
                })
                .collect(),
            reference: false,
            pending_dirty: Vec::new(),
            retired: 0,
            token: 0,
            instr_since_boundary: 0,
            workload_label: workload_label.into(),
            telemetry: Telemetry::off(),
            sampler: None,
            cfg,
        }
    }

    /// Turns tracing on: events from the scheme, the hierarchy, and the
    /// NVM flow into per-core rings of `ring_capacity` events each, and
    /// gauges (undo-buffer fill, NVM queue depth, LLC dirty-line census,
    /// open-epoch count) are sampled every `sample_interval` cycles.
    ///
    /// Returns a handle the caller snapshots to drain the recording.
    pub fn enable_telemetry(&mut self, ring_capacity: usize, sample_interval: u64) -> Telemetry {
        let telemetry = Telemetry::new(self.cores.len(), ring_capacity);
        self.attach_telemetry(telemetry.clone());
        self.sampler = Some(Sampler::new(sample_interval));
        telemetry
    }

    /// Attaches the online protocol auditor: every telemetry event is fed,
    /// in emission order, into a `picl-audit` checker. For the PiCL scheme
    /// the ACS-gap persist-scheduling invariant is armed from the machine
    /// configuration; other schemes are checked against the scheme-neutral
    /// rules only.
    ///
    /// If telemetry is not yet enabled, a recorder is created just for the
    /// audit tap (no gauge sampler); the sink sees every event regardless
    /// of ring capacity, so auditing stays exact even when the rings are
    /// small. Call *before* running; read the verdict through the returned
    /// handle at any point.
    pub fn enable_audit(&mut self) -> picl_audit::AuditHandle {
        let audit_cfg = picl_audit::AuditConfig {
            acs_gap: (self.scheme.name() == "PiCL").then_some(self.cfg.epoch.acs_gap),
        };
        if self.telemetry.is_enabled() {
            return picl_audit::AuditHandle::attach(&self.telemetry, audit_cfg);
        }
        let telemetry = Telemetry::new(self.cores.len(), 64);
        // The sink must be in place before the initial EpochBegin is
        // recorded, or the auditor would tap mid-lifecycle.
        let handle = picl_audit::AuditHandle::attach(&telemetry, audit_cfg);
        self.attach_telemetry(telemetry);
        handle
    }

    /// Routes the hierarchy's, the memory's and the scheme's events into
    /// `telemetry` and records the open epoch as its first event.
    fn attach_telemetry(&mut self, telemetry: Telemetry) {
        self.hier.set_telemetry(telemetry.clone());
        self.mem.set_telemetry(telemetry.clone());
        self.scheme.attach_telemetry(telemetry.clone());
        telemetry.record(
            self.now(),
            None,
            EventKind::EpochBegin {
                eid: self.scheme.system_eid(),
            },
        );
        self.telemetry = telemetry;
    }

    /// Snapshots every gauge into the recorder's time series.
    fn sample_gauges(&self, now: Cycle) {
        self.telemetry.sample(
            "nvm_queue_depth",
            now,
            self.mem.timing().queue_depth(now) as f64,
        );
        self.telemetry
            .sample("llc_dirty_lines", now, self.hier.dirty_line_count() as f64);
        self.telemetry.sample(
            "picl_lines_tagged",
            now,
            self.hier.tagged_dirty_count() as f64,
        );
        let open = self
            .scheme
            .system_eid()
            .raw()
            .saturating_sub(self.scheme.persisted_eid().raw());
        self.telemetry.sample("open_epochs", now, open as f64);
        for (name, value) in self.scheme.telemetry_gauges() {
            self.telemetry.sample(name, now, value);
        }
    }

    /// The scheme under test.
    pub fn scheme(&self) -> &dyn ConsistencyScheme {
        self.scheme.as_ref()
    }

    /// The memory system.
    pub fn memory(&self) -> &Nvm {
        &self.mem
    }

    /// The logical (all-stores-applied) memory image: the image as of the
    /// latest commit plus the stores since. Derived on demand, so it costs
    /// O(footprint) per call; owned, not borrowed.
    ///
    /// # Panics
    ///
    /// Panics if the machine was built with snapshots off: it then keeps
    /// neither history nor pending writes to derive the image from.
    pub fn logical_memory(&self) -> MainMemory {
        let latest = self
            .golden_snapshots()
            .expect("the logical image needs snapshots on")
            .latest();
        let mut image = self
            .snapshot(latest)
            .expect("the latest commit is always reconstructible");
        for &(line, value) in &self.pending_dirty {
            image.write_line(line, value);
        }
        image
    }

    /// The golden memory image at `epoch`'s commit, if reconstructible:
    /// always for [`EpochId::ZERO`] (the power-on image); with snapshots
    /// off, for nothing else; with snapshots on, for every commit from
    /// the persisted frontier as of the last commit (so every epoch a
    /// correct recovery can target) onwards. Reconstructed on demand;
    /// owned, not borrowed.
    pub fn snapshot(&self, epoch: EpochId) -> Option<MainMemory> {
        self.mem.golden_image(epoch)
    }

    /// The golden history, or `None` with snapshots off. Its base is an
    /// overlay on [`Machine::memory`]'s contents.
    pub fn golden_snapshots(&self) -> Option<&DeltaSnapshots> {
        self.mem.golden()
    }

    /// Drains the hierarchy served, and the lines its full scans examined
    /// (none on the fast path).
    pub fn drain_work(&self) -> DrainWork {
        self.hier.drain_work()
    }

    /// Switches to the unoptimized reference paths: the hierarchy drains
    /// by full scans, and the golden chain stops folding, so it keeps
    /// every committed epoch. `picl bench` runs each cell both ways and
    /// requires identical reports and identical images of every epoch the
    /// fast machine still holds.
    ///
    /// Call before running.
    pub fn set_reference_mode(&mut self, on: bool) {
        self.hier.set_reference_scan(on);
        self.reference = on;
    }

    /// The value of `line` if it is resident anywhere in the hierarchy.
    pub fn hierarchy_cached_value(&self, line: LineAddr) -> Option<u64> {
        self.hier.cached_value(line)
    }

    /// Total instructions retired across all cores.
    pub fn instructions(&self) -> u64 {
        self.retired
    }

    /// Wall-clock time: the furthest core clock.
    pub fn now(&self) -> Cycle {
        self.cores
            .iter()
            .map(|c| c.clock)
            .fold(Cycle::ZERO, Cycle::max)
    }

    fn next_token(&mut self) -> u64 {
        self.token += 1;
        self.token
    }

    /// Queues a store for the next commit's delta; with snapshots off
    /// nothing would read it.
    #[inline]
    fn record_write(&mut self, line: LineAddr, token: u64) {
        if self.mem.golden().is_some() {
            self.pending_dirty.push((line, token));
        }
    }

    /// Executes one trace event on the core with the smallest clock among
    /// those with fewer than `budget_per_core` instructions. Returns
    /// `false` when every core has reached the budget.
    pub fn step(&mut self, budget_per_core: u64) -> bool {
        let idx = if self.cores.len() == 1 {
            // Single-core fast path: no laggard scan.
            if self.cores[0].instructions >= budget_per_core {
                return false;
            }
            0
        } else {
            let Some(idx) = self
                .cores
                .iter()
                .enumerate()
                .filter(|(_, c)| c.instructions < budget_per_core)
                .min_by_key(|(_, c)| c.clock)
                .map(|(i, _)| i)
            else {
                return false;
            };
            idx
        };

        let core = &mut self.cores[idx];
        let ev = core.next_event();
        core.clock += u64::from(ev.gap_instructions);
        core.instructions += ev.instructions();
        self.retired += ev.instructions();
        self.instr_since_boundary += ev.instructions();
        let issue_at = core.clock;

        let line = ev.addr.line();
        let access = match ev.kind {
            AccessKind::Load => AccessType::Load,
            AccessKind::Store => {
                let token = self.next_token();
                self.record_write(line, token);
                AccessType::Store { new_value: token }
            }
        };
        let result = self.hier.access(
            CoreId(idx),
            line,
            access,
            self.scheme.as_mut(),
            &mut self.mem,
            issue_at,
        );
        let core = &mut self.cores[idx];
        match ev.kind {
            // Loads block the in-order core until data returns.
            AccessKind::Load => core.clock = result.data_ready.max(core.clock + 1u64),
            // Stores retire through the store buffer (§IV-A).
            AccessKind::Store => core.clock += 1u64,
        }

        // The epoch timer is per-core work (a wall-clock proxy): with N
        // cores running concurrently, N x epoch_len instructions retire
        // per epoch interval.
        let epoch_budget = self.cfg.epoch.epoch_len_instructions * self.cores.len() as u64;
        if self.scheme.wants_early_commit() || self.instr_since_boundary >= epoch_budget {
            self.epoch_boundary();
        }

        if let Some(sampler) = &mut self.sampler {
            let now = self.cores[idx].clock;
            if sampler.due(now) {
                self.sample_gauges(now);
            }
        }
        true
    }

    /// Forces an epoch boundary now (the OS timer interrupt).
    pub fn epoch_boundary(&mut self) {
        self.checkpoint_registers(self.cores.len());
        let now = self.now();
        let outcome = self
            .scheme
            .on_epoch_boundary(&mut self.hier, &mut self.mem, now);
        if let Some(stall) = outcome.stall_until {
            if stall > now {
                self.telemetry
                    .record(now, None, EventKind::BoundaryStall { until: stall });
            }
            // Stop-the-world: every core resumes after the flush.
            for core in &mut self.cores {
                core.clock = core.clock.max(stall);
            }
        }
        self.telemetry.record(
            outcome.stall_until.unwrap_or(now).max(now),
            None,
            EventKind::EpochBegin {
                eid: self.scheme.system_eid(),
            },
        );
        let fold_through = (!self.reference).then(|| self.scheme.persisted_eid());
        self.mem.commit_golden(
            outcome.committed,
            std::mem::take(&mut self.pending_dirty),
            fold_through,
        );
        self.instr_since_boundary = 0;
    }

    /// Runs until every core has retired at least `budget_per_core`
    /// instructions.
    pub fn run(&mut self, budget_per_core: u64) {
        while self.step(budget_per_core) {}
    }

    /// Injects a power failure: all volatile state (caches, on-chip
    /// buffers) is lost, the scheme recovers main memory from durable
    /// state, and the result is compared against the golden image of the
    /// recovered epoch, on the lines where the two can differ (see
    /// [`DeltaSnapshots::mismatches`]), without building that image.
    pub fn crash(&mut self) -> CrashReport {
        let now = self.now();
        self.telemetry.record(now, None, EventKind::CrashInjected);
        self.hier.invalidate_all();
        self.telemetry.record(now, None, EventKind::RecoveryStart);
        let outcome = self.scheme.crash_recover(&mut self.mem, now);
        self.telemetry.record(
            outcome.completed_at,
            None,
            EventKind::RecoveryDone {
                recovered_to: outcome.recovered_to,
                entries: outcome.entries_applied,
            },
        );

        let (consistent, mismatch_count, mismatches) =
            match self.mem.golden_mismatches(outcome.recovered_to) {
                Some(mut diffs) => {
                    diffs.retain(|l| l.raw() < WORKLOAD_LINE_LIMIT);
                    let sample = diffs.iter().take(16).copied().collect();
                    (Some(diffs.is_empty()), diffs.len(), sample)
                }
                None => (None, 0, Vec::new()),
            };
        // Execution resumes from the recovered checkpoint: snapshots of the
        // rolled-back timeline and the uncommitted stores are dropped (their
        // epoch numbers will be reused by the new timeline), which rewinds
        // the logical image to the recovered epoch.
        self.mem.truncate_golden_after(outcome.recovered_to);
        self.pending_dirty.clear();
        self.instr_since_boundary = 0;
        CrashReport {
            outcome,
            consistent,
            mismatch_count,
            mismatches,
        }
    }

    /// Runs until at least `total_instructions` have retired across all
    /// cores (the crash-at-instant hook: overshoot is bounded by one trace
    /// event, so a crash point is reproducible from the instruction
    /// count alone). Returns the actual total retired.
    pub fn run_until(&mut self, total_instructions: u64) -> u64 {
        while self.retired < total_instructions && self.step(u64::MAX) {}
        self.retired
    }

    /// Injects a power failure *inside* the epoch-boundary flush window:
    /// the OS boundary handler has checkpointed the register files of the
    /// first `cores_done` cores (issuing their cacheable stores), but the
    /// commit itself — `on_epoch_boundary`, where prior-work schemes drain
    /// the cache and PiCL bumps `SystemEID` — has not happened. This is
    /// the mid-flush interleaving that point crash checks miss.
    pub fn crash_mid_boundary(&mut self, cores_done: usize) -> CrashReport {
        self.checkpoint_registers(cores_done.min(self.cores.len()));
        self.crash()
    }

    /// The OS boundary handler's first step for cores `0..cores`: each
    /// core checkpoints its register file with ordinary cacheable stores
    /// (§V-A), in core order, before the commit.
    fn checkpoint_registers(&mut self, cores: usize) {
        for i in 0..cores {
            let line = boundary_handler_line(CoreId(i));
            let token = self.next_token();
            self.record_write(line, token);
            let at = self.cores[i].clock;
            self.hier.access(
                CoreId(i),
                line,
                AccessType::Store { new_value: token },
                self.scheme.as_mut(),
                &mut self.mem,
                at,
            );
            self.cores[i].clock += 1u64;
        }
    }

    /// Produces the run report.
    pub fn report(&self) -> RunReport {
        let stats = self.scheme.stats();
        RunReport {
            scheme: self.scheme.name(),
            workload: self.workload_label.clone(),
            cores: self.cores.len(),
            instructions: self.instructions(),
            total_cycles: self.now(),
            commits: stats.commits,
            forced_commits: stats.forced_commits,
            stall_cycles: stats.stall_cycles,
            scheme_stats: stats,
            nvm: self.mem.stats().clone(),
            hierarchy: self.hier.stats().clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::SchemeKind;
    use picl_trace::event::ScriptedSource;
    use picl_trace::TraceEvent;
    use picl_types::Address;

    fn tiny_cfg() -> SystemConfig {
        let mut cfg = SystemConfig::paper_single_core();
        cfg.epoch.epoch_len_instructions = 1000;
        cfg
    }

    fn script() -> Box<dyn TraceSource + Send> {
        let events: Vec<TraceEvent> = (0..64)
            .map(|i| TraceEvent {
                gap_instructions: 3,
                kind: if i % 3 == 0 {
                    AccessKind::Store
                } else {
                    AccessKind::Load
                },
                addr: Address::new(i * 64),
            })
            .collect();
        Box::new(ScriptedSource::new("script", events))
    }

    fn machine(kind: SchemeKind) -> Machine {
        let cfg = tiny_cfg();
        let scheme = kind.build(&cfg);
        Machine::new(cfg, scheme, vec![script()], "script", true)
    }

    #[test]
    fn run_retires_budget() {
        let mut m = machine(SchemeKind::Picl);
        m.run(5000);
        assert!(m.instructions() >= 5000);
        assert!(m.now() > Cycle::ZERO);
        let r = m.report();
        assert_eq!(r.cores, 1);
        assert!(r.commits >= 4, "expected ~5 epochs, got {}", r.commits);
    }

    #[test]
    fn deterministic_across_runs() {
        let mut a = machine(SchemeKind::Picl);
        let mut b = machine(SchemeKind::Picl);
        a.run(3000);
        b.run(3000);
        assert_eq!(a.instructions(), b.instructions());
        assert_eq!(a.now(), b.now());
        assert_eq!(a.report().commits, b.report().commits);
    }

    #[test]
    fn instruction_count_is_scheme_independent() {
        let mut a = machine(SchemeKind::Picl);
        let mut b = machine(SchemeKind::Frm);
        a.run(3000);
        b.run(3000);
        assert_eq!(a.instructions(), b.instructions());
    }

    #[test]
    fn crash_recovery_is_consistent_for_picl() {
        let mut m = machine(SchemeKind::Picl);
        m.run(20_000);
        let crash = m.crash();
        assert_eq!(
            crash.consistent,
            Some(true),
            "PiCL recovery mismatched at {:?} (target {})",
            crash.mismatches,
            crash.outcome.recovered_to
        );
    }

    #[test]
    fn crash_recovery_is_consistent_for_all_protected_schemes() {
        for kind in [
            SchemeKind::Frm,
            SchemeKind::Journaling,
            SchemeKind::Shadow,
            SchemeKind::ThyNvm,
        ] {
            let mut m = machine(kind);
            m.run(20_000);
            let crash = m.crash();
            assert_eq!(
                crash.consistent,
                Some(true),
                "{kind:?} recovery mismatched at {:?}",
                crash.mismatches
            );
        }
    }

    #[test]
    fn stalls_advance_all_clocks() {
        let mut m = machine(SchemeKind::Frm);
        m.run(2000); // crosses at least one boundary
        assert!(m.report().stall_cycles > 0, "FRM must stall at commits");
    }

    #[test]
    fn run_until_stops_at_instant() {
        let mut m = machine(SchemeKind::Picl);
        let total = m.run_until(4321);
        assert!(total >= 4321, "stopped early at {total}");
        // Overshoot is bounded by one trace event (gap + the access).
        assert!(total < 4321 + 300, "overshot to {total}");
        assert_eq!(m.instructions(), total);
    }

    #[test]
    fn run_until_is_deterministic() {
        let mut a = machine(SchemeKind::Picl);
        let mut b = machine(SchemeKind::Picl);
        assert_eq!(a.run_until(7777), b.run_until(7777));
        assert_eq!(a.now(), b.now());
    }

    #[test]
    fn mid_boundary_crash_is_consistent_for_protected_schemes() {
        for kind in [
            SchemeKind::Picl,
            SchemeKind::Frm,
            SchemeKind::Journaling,
            SchemeKind::Shadow,
            SchemeKind::ThyNvm,
        ] {
            let mut m = machine(kind);
            m.run_until(10_500);
            let crash = m.crash_mid_boundary(1);
            assert_eq!(
                crash.consistent,
                Some(true),
                "{kind:?} mid-boundary recovery mismatched at {:?}",
                crash.mismatches
            );
        }
    }

    #[test]
    fn mismatch_count_reports_full_total() {
        // The unprotected baseline corrupts many lines under eviction
        // pressure; the capped sample must not hide the real total.
        let mut cfg = SystemConfig::paper_single_core();
        cfg.epoch.epoch_len_instructions = 30_000;
        let mut m = crate::runner::Simulation::builder(cfg)
            .scheme(SchemeKind::Ideal)
            .workload(&[picl_trace::spec::SpecBenchmark::Mcf])
            .footprint_scale(0.02)
            .seed(7)
            .keep_snapshots(true)
            .into_machine()
            .unwrap();
        m.run(200_000);
        let crash = m.crash();
        assert_eq!(crash.consistent, Some(false));
        assert!(crash.mismatch_count >= crash.mismatches.len());
        assert!(crash.mismatches.len() <= 16);
        if crash.mismatch_count > 16 {
            assert_eq!(crash.mismatches.len(), 16);
        }
    }

    /// PiCL on gcc, as `benchmark/`'s `sim-small` runs it.
    fn picl_on_gcc(snapshots: bool) -> Machine {
        let mut cfg = SystemConfig::paper_single_core();
        cfg.epoch.epoch_len_instructions = 10_000;
        crate::runner::Simulation::builder(cfg)
            .scheme(SchemeKind::Picl)
            .workload(&[picl_trace::spec::SpecBenchmark::Gcc])
            .footprint_scale(0.05)
            .seed(1)
            .keep_snapshots(snapshots)
            .into_machine()
            .unwrap()
    }

    #[test]
    fn golden_history_stays_bounded() {
        // After every commit the chain folds through the persisted
        // frontier: the base is exactly the frontier's image, and only
        // the epochs after it stay deltas. The base's overlay holds just
        // the lines where that image and the NVM contents differ: 281 to
        // 315 at these 20 commits, under MAX_OVERLAY_LINES, while the
        // contents grow from 958 to 14,615 lines. The NVM contents hold
        // no page without a touched line.
        const MAX_OVERLAY_LINES: usize = 400;
        let mut m = picl_on_gcc(true);
        for step in 1..=20u64 {
            m.run_until(step * 100_000);
            m.epoch_boundary();
            let persisted = m.scheme().persisted_eid();
            let deltas = m.golden_snapshots().expect("snapshots are on");
            assert_eq!(deltas.horizon(), persisted, "folded to the frontier");
            let frontier = m.snapshot(persisted).unwrap();
            assert_eq!(
                deltas.overlay_lines(),
                frontier.diff(m.memory().state()).len(),
                "the overlay is the frontier's image's difference at {} instructions",
                m.instructions()
            );
            assert!(
                (1..=MAX_OVERLAY_LINES).contains(&deltas.overlay_lines()),
                "{} overlay lines",
                deltas.overlay_lines()
            );
            let nvm = m.memory().state();
            assert!(
                (1..=nvm.touched_lines()).contains(&nvm.page_count()),
                "{} pages for {} touched lines",
                nvm.page_count(),
                nvm.touched_lines()
            );
            assert!(
                (1..persisted.raw()).all(|e| !deltas.contains(EpochId(e))),
                "an epoch behind the frontier is still held"
            );
        }
        let crash = m.crash();
        assert_eq!(crash.consistent, Some(true), "{:?}", crash.mismatches);
    }

    #[test]
    fn snapshots_off_keeps_no_history() {
        let mut m = picl_on_gcc(false);
        m.run_until(200_000);
        assert!(m.report().commits > 10);
        assert!(m.golden_snapshots().is_none());
        assert_eq!(m.pending_dirty.capacity(), 0, "a store was queued");
        assert!(m.snapshot(m.scheme().persisted_eid()).is_none());
        assert!(m.snapshot(EpochId::ZERO).is_some());
    }

    #[test]
    #[should_panic(expected = "needs snapshots on")]
    fn logical_memory_needs_snapshots() {
        let cfg = tiny_cfg();
        let scheme = SchemeKind::Picl.build(&cfg);
        let mut m = Machine::new(cfg, scheme, vec![script()], "script", false);
        m.run(100);
        let _ = m.logical_memory();
    }

    #[test]
    fn recovery_behind_the_horizon_fails_the_oracle() {
        // A scheme that claims an epoch older than the persisted frontier
        // is already wrong (recovery must reach the last persisted epoch);
        // once folded, that epoch has no golden image, so the crash must
        // not report a consistent recovery.
        let mut m = picl_on_gcc(true);
        m.run_until(2_000_000);
        let persisted = m.scheme().persisted_eid();
        let stale = EpochId(1);
        assert!(stale < persisted);
        assert!(m.snapshot(persisted).is_some(), "the frontier stays");
        assert!(m.snapshot(stale).is_none(), "epoch 1 was folded");
        assert!(m.snapshot(EpochId::ZERO).is_some());

        // Swap in a scheme whose recovery claims the folded epoch.
        struct Stale(EpochId);
        impl ConsistencyScheme for Stale {
            fn name(&self) -> &'static str {
                "stale"
            }
            fn system_eid(&self) -> EpochId {
                self.0.next()
            }
            fn persisted_eid(&self) -> EpochId {
                self.0
            }
            fn on_store(
                &mut self,
                _: &picl_cache::StoreEvent,
                _: &mut Nvm,
                _: Cycle,
            ) -> picl_cache::StoreDirective {
                picl_cache::StoreDirective::default()
            }
            fn on_dirty_eviction(
                &mut self,
                _: &picl_cache::EvictionEvent,
                _: &mut Nvm,
                _: Cycle,
            ) -> picl_cache::EvictRoute {
                picl_cache::EvictRoute::InPlace
            }
            fn on_epoch_boundary(
                &mut self,
                _: &mut Hierarchy,
                _: &mut Nvm,
                now: Cycle,
            ) -> picl_cache::BoundaryOutcome {
                picl_cache::BoundaryOutcome {
                    committed: self.0,
                    stall_until: Some(now),
                }
            }
            fn crash_recover(&mut self, _: &mut Nvm, now: Cycle) -> picl_cache::RecoveryOutcome {
                picl_cache::RecoveryOutcome {
                    recovered_to: self.0,
                    entries_applied: 0,
                    completed_at: now,
                }
            }
            fn stats(&self) -> picl_cache::SchemeStats {
                picl_cache::SchemeStats::default()
            }
        }
        m.scheme = Box::new(Stale(stale));
        let crash = m.crash();
        assert_eq!(crash.outcome.recovered_to, stale);
        assert_ne!(crash.consistent, Some(true));

        // The rewound machine keeps running and committing.
        m.scheme = Box::new(Stale(stale.next()));
        m.epoch_boundary();
        assert!(m.snapshot(stale.next()).is_some());
    }

    #[test]
    fn snapshots_taken_per_commit() {
        let mut m = machine(SchemeKind::Picl);
        m.run(3000);
        assert!(m.snapshot(EpochId::ZERO).is_some());
        assert!(m.snapshot(EpochId(1)).is_some());
    }
}
