//! `picl serve` / `picl ycsb` — concurrent serving and the YCSB-style
//! benchmark.
//!
//! Subcommands:
//!
//! - `serve run` — drive N deterministic per-session streams against one
//!   shared store; `--progress` streams flushed
//!   `commit <eid> ops <n0>,<n1>,...` lines (the kill -9 harness reads
//!   them to schedule its signal and to bound each session's recovered
//!   prefix).
//! - `serve torture` — spawn seeded `kill -9` children of 1–5 sessions
//!   and require every recovery to be prefix-consistent per session
//!   (at the exact op count for a lone session) within the RPO bound.
//! - `ycsb` — the load benchmark: zipfian key popularity, A/B/C mixes,
//!   closed- or open-loop arrivals. Runs a multi-session PiCL cell (plus,
//!   with `--baseline`, the fdatasync-per-mutation store) one after the
//!   other, audits the PiCL cell's event stream in-process on every run,
//!   and renders a `picl-serve-v2` JSON report (written with `--out`).

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use picl_crashlab::{run_torture_campaign, Judgement, KillClass};
use picl_obs::{MetricsRegistry, SnapValue};
use picl_serve::session::CommitHook;
use picl_serve::{
    preload, run_load, session_ops, Arrival, Backend, FsyncKv, LoadReport, LoadSpec, MixPreset,
    ServeKv,
};
use picl_store::workload::Op;
use picl_store::{EngineConfig, FileMedium, StoreError};
use picl_telemetry::export::jsonl_to_string;
use picl_telemetry::json::{escape as json_escape, validate_json};
use picl_telemetry::Telemetry;
use picl_types::stats::Histogram;

use crate::args::{ArgError, Args};

/// Usage text for `picl serve help`.
const SERVE_USAGE: &str = "\
usage: picl serve <run|torture|help> [--flag value]...

run flags:
  --path FILE           store file (required; created if absent)
  --seed N              per-session stream seed (default 1)
  --sessions N          concurrent client sessions (default 4)
  --ops-per-session N   operations per session (default 100)
  --key-space N         keys per session, under its own prefix (default 12)
  --ops-per-epoch N     mutations per epoch (default 8)
  --window N            in-order persist window = RPO bound (default 1)
  --lines N             data capacity in 64B lines when creating (default 1024);
                        the undo log is sized from --lines and --window
  --persist-stall-ms N  persister mid-epoch stall for the torture harness
  --progress            stream flushed `commit <eid> ops n0,n1,...` lines
  --telemetry PREFIX    export the engine's event stream (audit-ready)
  --metrics-addr H:P    serve live Prometheus text exposition (port 0 picks
                        a free port; prints `metrics listening on ADDR`)
  --linger-ms N         keep the metrics endpoint up N ms after the
                        workload finishes (default 0)
  --flight-recorder F   append JSONL registry snapshots to F (kill -9
                        safe: every line is flushed as written)
  --flight-interval-ms N  flight snapshot period (default 50)
  --flight-max-kb N     rotate the flight file past N KiB (default 256)
  --flight-max-files N  rotated generations to keep (default 3)

torture flags:
  --trials N            kill -9 trials of 1-5 session children, rotating
                        the crash classes mid-epoch / boundary / mid-drain
                        (default 30)
  --seed N              campaign seed (default 7)
  --dir DIR             scratch directory (default: the OS temp dir)
";

/// Dispatches `picl serve <sub>`.
///
/// # Errors
///
/// Returns an [`ArgError`] for unknown subcommands, bad flags, I/O
/// failures, or oracle verdicts (torture mismatches).
pub fn cmd_serve(args: &Args) -> Result<(), ArgError> {
    match args.subcommand() {
        Some("run") => serve_run(args),
        Some("torture") => serve_torture(args),
        Some("help") | None => {
            println!("{SERVE_USAGE}");
            Ok(())
        }
        Some(other) => Err(ArgError(format!(
            "unknown serve subcommand {other:?}; try `picl serve help`"
        ))),
    }
}

/// The engine configuration of a load run (`ycsb`, `obs overhead`): the
/// table holds every key at its spanning footprint at most half full, at
/// window 4, unless `--lines`/`--window` pin the geometry.
pub(crate) fn load_engine_config(
    args: &Args,
    keys: u64,
    value_bytes: usize,
) -> Result<EngineConfig, ArgError> {
    let auto_lines = keys
        .saturating_mul(slots_per_record(value_bytes))
        .saturating_mul(2)
        .max(1024);
    crate::store::engine_config(args, auto_lines, 4)
}

/// Applies one stream op through the serving backend, attributed to
/// `session`.
fn apply_serve_op(kv: &ServeKv, session: usize, op: &Op) -> Result<(), StoreError> {
    match op {
        Op::Put(k, v) => kv.put(session, k, v),
        Op::Delete(k) => kv.delete(session, k).map(|_| ()),
        Op::Get(k) => kv.get(session, k).map(|_| ()),
    }
}

/// What one load pass measured.
pub(crate) struct LoadPass {
    pub(crate) report: LoadReport,
    /// Wall-clock seconds the untimed preload took.
    pub(crate) preload_s: f64,
    /// Key-shard mutation locks the serving layer ran with (0 for fsync,
    /// which serializes on one table lock).
    pub(crate) shards: usize,
}

/// Preloads `spec`'s keys, untimed, then runs its timed load on `kv`.
fn load_pass(
    kv: &(dyn Backend + Sync),
    spec: &LoadSpec,
    shards: usize,
) -> Result<LoadPass, ArgError> {
    let preload_started = Instant::now();
    preload(kv, spec).map_err(|e| ArgError(format!("preload: {e}")))?;
    let preload_s = preload_started.elapsed().as_secs_f64();
    let report = run_load(kv, spec).map_err(|e| ArgError(format!("load: {e}")))?;
    Ok(LoadPass {
        report,
        preload_s,
        shards,
    })
}

/// Serves `spec` once on a fresh PiCL store at `path`, replacing any file
/// there: open, preload, the timed load, a final commit and close. With a
/// `registry`, the serving layer records its metrics into it.
pub(crate) fn fresh_store_pass(
    path: &Path,
    cfg: &EngineConfig,
    spec: &LoadSpec,
    ops_per_epoch: u64,
    telemetry: Telemetry,
    registry: Option<&MetricsRegistry>,
) -> Result<LoadPass, ArgError> {
    let _ = std::fs::remove_file(path);
    let medium = crate::store::open_medium(path, cfg)?;
    let (mut kv, _) = ServeKv::open(medium, cfg.clone(), telemetry, ops_per_epoch, spec.sessions)
        .map_err(|e| ArgError(format!("open store: {e}")))?;
    if let Some(registry) = registry {
        kv.enable_obs(registry);
    }
    // `preload` settles its own batched-epoch tail via `end_preload`,
    // so the timed phase starts from a clean epoch boundary.
    let pass = load_pass(&kv, spec, kv.shard_count())?;
    kv.commit()
        .map_err(|e| ArgError(format!("final commit: {e}")))?;
    kv.close().map_err(|e| ArgError(format!("close: {e}")))?;
    Ok(pass)
}

/// Writes one flushed `commit <eid> ops <n0>,<n1>,...` progress line: the
/// kill -9 harness reads this stream to schedule its signal and to bound
/// each session's recovered prefix.
fn progress_hook() -> CommitHook {
    Box::new(|eid, counts| {
        let joined = counts
            .iter()
            .map(u64::to_string)
            .collect::<Vec<_>>()
            .join(",");
        let mut stdout = std::io::stdout().lock();
        let _ = writeln!(stdout, "commit {eid} ops {joined}");
        let _ = stdout.flush();
    })
}

/// Opens (recovering if needed) the `--path` store for `sessions`
/// concurrent sessions, reports any recovery, and wires `--telemetry`
/// and `--progress`.
fn open_serve_kv(
    args: &Args,
    cfg: &EngineConfig,
    sessions: usize,
) -> Result<(ServeKv, Telemetry), ArgError> {
    let path = crate::store::required_path(args)?;
    let telemetry = match args.get("telemetry") {
        Some(_) => Telemetry::new(0, 1 << 18),
        None => Telemetry::off(),
    };
    let medium = crate::store::open_medium(&path, cfg)?;
    let ops_per_epoch = args.count_or("ops-per-epoch", 8)?;
    let (mut kv, report) = ServeKv::open(
        medium,
        cfg.clone(),
        telemetry.clone(),
        ops_per_epoch,
        sessions,
    )
    .map_err(|e| ArgError(format!("open store: {e}")))?;
    if report.recovered {
        println!(
            "recovered {} to epoch {} ({} undo entries replayed from {} log blocks, {:.3} ms)",
            path.display(),
            report.recovered_to,
            report.entries_applied,
            report.blocks_scanned,
            report.recovery_ns as f64 / 1e6
        );
    }
    if args.is_set("progress") {
        kv.set_commit_hook(progress_hook());
    }
    Ok((kv, telemetry))
}

fn serve_run(args: &Args) -> Result<(), ArgError> {
    args.expect_only(&[
        "path",
        "seed",
        "sessions",
        "ops-per-session",
        "key-space",
        "ops-per-epoch",
        "window",
        "lines",
        "persist-stall-ms",
        "progress",
        "telemetry",
        "metrics-addr",
        "linger-ms",
        "flight-recorder",
        "flight-interval-ms",
        "flight-max-kb",
        "flight-max-files",
    ])?;
    let cfg = crate::store::engine_config(args, 1024, 1)?;
    let sessions = args.count_or("sessions", 4)? as usize;
    let seed = args.count_or("seed", 1)?;
    let ops_per_session = args.count_or("ops-per-session", 100)?;
    let key_space = args.count_or("key-space", 12)?;
    let (mut kv, telemetry) = open_serve_kv(args, &cfg, sessions)?;
    // Metrics are opt-in: without either flag the serving layer keeps
    // its zero-instrumentation fast path.
    let registry = (args.get("metrics-addr").is_some() || args.get("flight-recorder").is_some())
        .then(picl_obs::MetricsRegistry::new);
    if let Some(reg) = &registry {
        kv.enable_obs(reg);
    }
    let metrics_server = match (args.get("metrics-addr"), &registry) {
        (Some(addr), Some(reg)) => {
            let srv = picl_obs::MetricsServer::spawn(reg.clone(), addr)
                .map_err(|e| ArgError(format!("metrics server on {addr}: {e}")))?;
            // Flushed so a parent process (CI, the docs walkthrough) can
            // discover the port when `--metrics-addr host:0` was given.
            let mut stdout = std::io::stdout().lock();
            let _ = writeln!(stdout, "metrics listening on {}", srv.local_addr());
            let _ = stdout.flush();
            drop(stdout);
            Some(srv)
        }
        _ => None,
    };
    let flight = match (args.get("flight-recorder"), &registry) {
        (Some(fpath), Some(reg)) => {
            let mut rc = picl_obs::RecorderConfig::new(fpath);
            rc.interval =
                std::time::Duration::from_millis(args.count_or("flight-interval-ms", 50)?);
            rc.max_bytes = args.count_or("flight-max-kb", 256)?.max(1) * 1024;
            rc.max_files = args.count_or("flight-max-files", 3)?.max(1) as usize;
            let recorder = picl_obs::FlightRecorder::spawn(reg.clone(), rc)
                .map_err(|e| ArgError(format!("flight recorder {fpath}: {e}")))?;
            Some(recorder)
        }
        _ => None,
    };
    let outcomes: Vec<Result<(), StoreError>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..sessions)
            .map(|sid| {
                let kv = &kv;
                s.spawn(move || {
                    for op in session_ops(seed, sid, ops_per_session, key_space) {
                        apply_serve_op(kv, sid, &op)?;
                    }
                    Ok(())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("session thread panicked"))
            .collect()
    });
    for outcome in outcomes {
        outcome.map_err(|e| ArgError(format!("serving: {e}")))?;
    }
    kv.commit()
        .map_err(|e| ArgError(format!("final commit: {e}")))?;

    let counts = kv.session_counts();
    let (_, committed, persisted) = kv.engine().frontiers();
    let live = kv.scan().map_err(|e| ArgError(format!("scan: {e}")))?.len();
    let stats = kv
        .close()
        .map_err(|e| ArgError(format!("close store: {e}")))?;
    println!(
        "served {} ops across {} sessions ({} live keys): {} epochs committed, \
         {} persisted (RPO bound {} epoch[s]), {} undo entries, {} forced drains, \
         {} window stalls",
        counts.iter().sum::<u64>(),
        sessions,
        live,
        committed,
        persisted,
        cfg.window,
        stats.undo_entries,
        stats.forced_drains,
        stats.window_stalls
    );
    if let Some(reg) = &registry {
        let snap = reg.snapshot();
        let ms = |name: &str, p: f64| {
            snap.histogram(name, &[])
                .map_or(0.0, |h| h.percentile_defined(p) / 1e6)
        };
        if let Some(publish) = snap.histogram("picl_serve_commit_publish_ns", &[]) {
            println!(
                "epoch-commit stall: publish p50 {:.3} ms, p99 {:.3} ms over {} commits; \
                 window wait p99 {:.3} ms",
                ms("picl_serve_commit_publish_ns", 50.0),
                ms("picl_serve_commit_publish_ns", 99.0),
                publish.count(),
                ms("picl_serve_commit_window_ns", 99.0)
            );
        }
    }
    if let Some(prefix) = args.get("telemetry") {
        crate::commands::export_telemetry(prefix, &telemetry.snapshot())?;
    }
    // Give scrapers a window onto the finished run before tearing the
    // endpoint down (CI scrapes here; operators use a long linger).
    let linger_ms = args.count_or("linger-ms", 0)?;
    if linger_ms > 0 && (metrics_server.is_some() || flight.is_some()) {
        std::thread::sleep(std::time::Duration::from_millis(linger_ms));
    }
    if let Some(recorder) = flight {
        let lines = recorder
            .stop()
            .map_err(|e| ArgError(format!("flight recorder: {e}")))?;
        println!("flight recorder wrote {lines} snapshot line(s)");
    }
    if let Some(mut srv) = metrics_server {
        srv.shutdown();
    }
    Ok(())
}

/// `picl serve torture`: one seeded kill -9 campaign against `serve run`
/// children, and its report.
fn serve_torture(args: &Args) -> Result<(), ArgError> {
    args.expect_only(&["trials", "seed", "dir"])?;
    let trials = args.count_or("trials", 30)?;
    if trials == 0 {
        return Err(ArgError("--trials must be at least 1".into()));
    }
    let binary = std::env::current_exe()
        .map_err(|e| ArgError(format!("cannot locate the picl binary: {e}")))?;
    let dir = match args.get("dir") {
        Some(d) => PathBuf::from(d),
        None => std::env::temp_dir().join(format!("picl-serve-torture-{}", std::process::id())),
    };
    std::fs::create_dir_all(&dir)
        .map_err(|e| ArgError(format!("cannot create {}: {e}", dir.display())))?;
    let report =
        run_torture_campaign(&binary, &dir, trials, args.count_or("seed", 7)?).map_err(ArgError)?;
    let by_class = KillClass::ALL.map(|c| report.count(|o| o.class == c));
    let inconsistent = report.count(|o| !o.judgement.consistent);
    let rpo_violations = report.count(|o| !o.judgement.rpo_ok);
    let flight_failures = report.count(|o| !o.flight_ok);
    let plan_mismatches = report.count(|o| !o.recovery_matches_plan());
    let judgements = || report.outcomes.iter().map(|o| &o.judgement);
    let worst_lost = judgements().map(Judgement::epochs_lost).max().unwrap_or(0);
    let total_replayed: u64 = judgements().map(|j| j.entries_replayed).sum();
    let max_recovery_ns = judgements().map(|j| j.recovery_ns).max().unwrap_or(0);
    let sessions_judged: usize = judgements().map(|j| j.sessions_consistent.len()).sum();
    let exact = judgements()
        .filter(|j| j.sessions_consistent.len() == 1)
        .count();
    let flight_lines: u64 = report.outcomes.iter().map(|o| o.flight_lines).sum();
    println!(
        "{} trials ({} mid-epoch, {} boundary, {} mid-drain), {} kill -9s delivered, \
         {sessions_judged} session verdicts ({exact} one-session trials judged at the exact \
         op count), in {:.2} s",
        report.outcomes.len(),
        by_class[0],
        by_class[1],
        by_class[2],
        report.count(|o| o.killed),
        report.elapsed.as_secs_f64()
    );
    println!(
        "oracle: {inconsistent} inconsistent, {rpo_violations} RPO violations, \
         {flight_failures} unreadable flight logs ({flight_lines} snapshot lines recovered), \
         {plan_mismatches} recoveries off their log's plan; worst epochs lost {worst_lost}, {total_replayed} undo entries replayed across all \
         recoveries, slowest recovery {:.3} ms",
        max_recovery_ns as f64 / 1e6
    );
    if report.passed() {
        println!(
            "serve torture: PASS (every session prefix-consistent within the RPO bound, \
             every flight log readable after the kill, every rollback as its log planned)"
        );
        Ok(())
    } else {
        Err(ArgError(format!(
            "serve torture: {inconsistent} inconsistent recoveries, \
             {rpo_violations} RPO violations, {flight_failures} unreadable flight logs, \
             {plan_mismatches} recoveries off their log's plan"
        )))
    }
}

// ---------------------------------------------------------------------------
// picl ycsb
// ---------------------------------------------------------------------------

/// Registry-derived operator summary of one PiCL cell (absent for the
/// fsync baseline, which runs without the instrumented serving layer).
#[derive(Debug)]
struct ObsSummary {
    /// Get sojourn percentiles in microseconds, merged across the
    /// hit/miss/contended outcome series.
    get_p50_us: f64,
    get_p99_us: f64,
    get_p999_us: f64,
    /// Put sojourn percentiles, merged across ok/escalated.
    put_p50_us: f64,
    put_p99_us: f64,
    put_p999_us: f64,
    /// Gets that fell back to the serialized read path.
    contended_gets: u64,
    /// Multi-shard mutations that escalated to lock-all.
    escalations: u64,
    /// Escalations per timed shard mutation.
    escalation_rate: f64,
    /// Background persister drain cycles observed.
    persister_cycles: u64,
    persister_cycle_p99_ms: f64,
    /// Persist fences issued (epoch batches + superblock updates).
    fences: u64,
    /// Group-commit leader's boundary publish under every shard lock.
    commit_publish_p99_us: f64,
    /// Leader's in-order-window stall, over commits that found the
    /// window full (0 when none did).
    commit_window_p99_us: f64,
}

impl ObsSummary {
    fn encode(&self) -> String {
        format!(
            "{{\"get_p50_us\": {}, \"get_p99_us\": {}, \"get_p999_us\": {}, \
             \"put_p50_us\": {}, \"put_p99_us\": {}, \"put_p999_us\": {}, \
             \"contended_gets\": {}, \"escalations\": {}, \"escalation_rate\": {}, \
             \"persister_cycles\": {}, \"persister_cycle_p99_ms\": {}, \"fences\": {}, \
             \"commit_publish_p99_us\": {}, \"commit_window_p99_us\": {}}}",
            self.get_p50_us,
            self.get_p99_us,
            self.get_p999_us,
            self.put_p50_us,
            self.put_p99_us,
            self.put_p999_us,
            self.contended_gets,
            self.escalations,
            self.escalation_rate,
            self.persister_cycles,
            self.persister_cycle_p99_ms,
            self.fences,
            self.commit_publish_p99_us,
            self.commit_window_p99_us
        )
    }
}

/// Builds the [`ObsSummary`] from a cell's final registry snapshot.
fn obs_summary(snap: &picl_obs::Snapshot) -> ObsSummary {
    // Merge one op's outcome label sets (hit/miss/contended, or
    // ok/escalated) into a single per-op sojourn distribution.
    let merged_op = |op: &str| {
        let mut h = Histogram::new();
        for e in &snap.entries {
            if e.name == "picl_serve_op_sojourn_ns"
                && e.labels.iter().any(|(k, v)| k == "op" && v == op)
            {
                if let SnapValue::Histogram(part) = &e.value {
                    h.merge(part);
                }
            }
        }
        h
    };
    let get = merged_op("get");
    let put = merged_op("put");
    let us = |h: &Histogram, p: f64| h.percentile_defined(p) / 1e3;
    let escalations = snap
        .counter("picl_serve_escalations_total", &[])
        .unwrap_or(0);
    let shard_ops = snap.counter_total("picl_serve_shard_ops_total");
    let cycles = snap.histogram("picl_store_persister_cycle_ns", &[]);
    let commit_p99_us = |name: &str| {
        snap.histogram(name, &[])
            .map_or(0.0, |h| h.percentile_defined(99.0) / 1e3)
    };
    ObsSummary {
        get_p50_us: us(&get, 50.0),
        get_p99_us: us(&get, 99.0),
        get_p999_us: us(&get, 99.9),
        put_p50_us: us(&put, 50.0),
        put_p99_us: us(&put, 99.0),
        put_p999_us: us(&put, 99.9),
        // Sojourn timers run on a 1-in-N sample; scale the sampled count
        // by the published rate so this estimates actual op counts.
        contended_gets: snap
            .histogram(
                "picl_serve_op_sojourn_ns",
                &[("op", "get"), ("outcome", "contended")],
            )
            .map_or(0, Histogram::count)
            .saturating_mul(
                snap.gauge("picl_serve_timing_sample_every", &[])
                    .unwrap_or(1)
                    .max(1),
            ),
        escalations,
        escalation_rate: escalations as f64 / shard_ops.max(1) as f64,
        persister_cycles: cycles.map_or(0, Histogram::count),
        persister_cycle_p99_ms: cycles.map_or(0.0, |h| h.percentile_defined(99.0) / 1e6),
        fences: snap.counter("picl_store_fences_total", &[]).unwrap_or(0),
        commit_publish_p99_us: commit_p99_us("picl_serve_commit_publish_ns"),
        commit_window_p99_us: commit_p99_us("picl_serve_commit_window_ns"),
    }
}

/// Per-session (tenant) slice of a cell's timed phase.
#[derive(Debug)]
struct TenantRow {
    session: usize,
    reads: u64,
    updates: u64,
    p50_us: f64,
    p99_us: f64,
    p999_us: f64,
}

impl TenantRow {
    fn encode(&self) -> String {
        format!(
            "{{\"session\": {}, \"reads\": {}, \"updates\": {}, \
             \"p50_us\": {}, \"p99_us\": {}, \"p999_us\": {}}}",
            self.session, self.reads, self.updates, self.p50_us, self.p99_us, self.p999_us
        )
    }
}

/// Tenant rows from a load report's per-session slices.
fn tenant_rows(report: &LoadReport) -> Vec<TenantRow> {
    report
        .per_session
        .iter()
        .enumerate()
        .map(|(session, s)| TenantRow {
            session,
            reads: s.reads,
            updates: s.updates,
            p50_us: s.latency_ns.percentile_defined(50.0) / 1e3,
            p99_us: s.latency_ns.percentile_defined(99.0) / 1e3,
            p999_us: s.latency_ns.percentile_defined(99.9) / 1e3,
        })
        .collect()
}

/// One measured YCSB cell.
#[derive(Debug)]
struct YcsbResult {
    label: String,
    backend: YcsbBackend,
    sessions: usize,
    ops: u64,
    reads: u64,
    updates: u64,
    preload_s: f64,
    /// Preload keys inserted per second (the untimed bulk-load phase has
    /// its own throughput now that it batches puts per epoch commit).
    preload_keys_per_s: f64,
    elapsed_s: f64,
    throughput: f64,
    p50_us: f64,
    p99_us: f64,
    p999_us: f64,
    /// See [`LoadPass::shards`].
    shards: usize,
    audit_events: u64,
    audit_dropped: u64,
    audit_violations: u64,
    /// Operator metrics from the cell's registry (None for fsync).
    obs: Option<ObsSummary>,
    /// Per-session timed-phase breakdown.
    tenants: Vec<TenantRow>,
}

impl YcsbResult {
    /// One cell of the `picl-serve-v2` report's `cells` array.
    fn encode(&self) -> String {
        let obs = self
            .obs
            .as_ref()
            .map_or_else(|| "null".to_owned(), ObsSummary::encode);
        let tenants = self
            .tenants
            .iter()
            .map(TenantRow::encode)
            .collect::<Vec<_>>()
            .join(", ");
        format!(
            "{{\"label\": \"{}\", \"backend\": \"{}\", \"sessions\": {}, \"ops\": {}, \
             \"reads\": {}, \"updates\": {}, \"preload_s\": {}, \
             \"preload_keys_per_s\": {}, \"elapsed_s\": {}, \
             \"throughput\": {}, \"p50_us\": {}, \"p99_us\": {}, \"p999_us\": {}, \
             \"shards\": {}, \"audit_events\": {}, \
             \"audit_dropped\": {}, \"audit_violations\": {}, \
             \"obs\": {obs}, \"tenants\": [{tenants}]}}",
            json_escape(&self.label),
            self.backend.name(),
            self.sessions,
            self.ops,
            self.reads,
            self.updates,
            self.preload_s,
            self.preload_keys_per_s,
            self.elapsed_s,
            self.throughput,
            self.p50_us,
            self.p99_us,
            self.p999_us,
            self.shards,
            self.audit_events,
            self.audit_dropped,
            self.audit_violations
        )
    }
}

/// The store a YCSB cell serves from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum YcsbBackend {
    /// The epoch-logged PiCL engine.
    Picl,
    /// The fdatasync-per-mutation baseline.
    Fsync,
}

impl YcsbBackend {
    /// The report's `"backend"` value.
    fn name(self) -> &'static str {
        match self {
            YcsbBackend::Picl => "picl",
            YcsbBackend::Fsync => "fsync",
        }
    }
}

/// One YCSB cell: a backend, its store file, and the load to run.
struct YcsbCell {
    label: String,
    backend: YcsbBackend,
    store_path: PathBuf,
    spec: LoadSpec,
    cfg: EngineConfig,
    ops_per_epoch: u64,
    /// Export prefix for this cell's telemetry, if requested.
    telemetry_prefix: Option<String>,
}

impl YcsbCell {
    fn run(&self) -> Result<YcsbResult, ArgError> {
        let _ = std::fs::remove_file(&self.store_path);
        let result = match self.backend {
            YcsbBackend::Picl => self.run_picl(),
            YcsbBackend::Fsync => self.run_fsync(),
        };
        let _ = std::fs::remove_file(&self.store_path);
        result
    }

    fn run_picl(&self) -> Result<YcsbResult, ArgError> {
        // Size the event ring so a smoke-scale run audits without drops;
        // a big run may overflow it, which the report calls out via
        // audit_dropped (the auditor's verdict is then inconclusive, not
        // clean — violations are still violations either way).
        let total_ops = self.spec.keys + self.spec.ops_per_session * self.spec.sessions as u64;
        let ring = usize::try_from((total_ops * 10).next_power_of_two())
            .unwrap_or(1 << 22)
            .clamp(1 << 12, 1 << 22);
        let telemetry = Telemetry::new(0, ring);
        // PiCL cells always run instrumented: the report's obs section is
        // part of the benchmark, and `picl obs overhead` gates the cost.
        let registry = MetricsRegistry::new();
        let pass = fresh_store_pass(
            &self.store_path,
            &self.cfg,
            &self.spec,
            self.ops_per_epoch,
            telemetry.clone(),
            Some(&registry),
        )?;

        // Audit the event stream in-process: the benchmark only counts if
        // the protocol invariants held under concurrency.
        let snap = telemetry.snapshot();
        let jsonl = jsonl_to_string(&snap);
        let lines = picl_audit::parse_trace(&jsonl)
            .map_err(|e| ArgError(format!("exported stream unparsable: {e}")))?;
        let audit = picl_audit::audit_trace(
            &lines,
            picl_audit::AuditConfig {
                acs_gap: Some(self.cfg.window),
            },
        );
        if let Some(prefix) = &self.telemetry_prefix {
            crate::commands::export_telemetry(prefix, &snap)?;
        }

        Ok(YcsbResult {
            audit_events: snap.events.len() as u64,
            audit_dropped: snap.dropped,
            audit_violations: audit.violations.len() as u64,
            // Snapshot after close so the persister's final drain cycles
            // and fence counts are included.
            obs: Some(obs_summary(&registry.snapshot())),
            ..self.result(&pass)
        })
    }

    fn run_fsync(&self) -> Result<YcsbResult, ArgError> {
        let lines = self.cfg.lines;
        let medium = FileMedium::open(&self.store_path, u64::from(lines) * 64)
            .map_err(|e| ArgError(format!("cannot open {}: {e}", self.store_path.display())))?;
        let kv = FsyncKv::open(Arc::new(medium), lines)
            .map_err(|e| ArgError(format!("open baseline: {e}")))?;
        Ok(self.result(&load_pass(&kv, &self.spec, 0)?))
    }

    /// The cell's result from its load pass alone, with no audit and no
    /// metrics.
    fn result(&self, pass: &LoadPass) -> YcsbResult {
        let report = &pass.report;
        let at = |p: f64| report.latency_ns.percentile_defined(p) / 1e3;
        YcsbResult {
            label: self.label.clone(),
            backend: self.backend,
            sessions: report.sessions,
            ops: report.ops,
            reads: report.reads,
            updates: report.updates,
            preload_s: pass.preload_s,
            preload_keys_per_s: self.spec.keys as f64 / pass.preload_s.max(1e-9),
            elapsed_s: report.elapsed.as_secs_f64(),
            throughput: report.throughput(),
            p50_us: at(50.0),
            p99_us: at(99.0),
            p999_us: at(99.9),
            shards: pass.shards,
            audit_events: 0,
            audit_dropped: 0,
            audit_violations: 0,
            obs: None,
            tenants: tenant_rows(report),
        }
    }
}

/// Slots one record of `value_bytes` occupies at most (head +
/// continuations): a key shorter than `MAX_KEY_BYTES` may take fewer.
pub(crate) fn slots_per_record(value_bytes: usize) -> u64 {
    1 + value_bytes
        .saturating_sub(picl_store::slots::HEAD_VALUE_BYTES)
        .div_ceil(picl_store::slots::CONT_VALUE_BYTES) as u64
}

/// Renders the `picl-serve-v2` document.
fn serve_report_json(spec: &LoadSpec, cells: &[YcsbResult]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"picl-serve-v2\",\n");
    out.push_str(&format!("  \"mix\": \"{}\",\n", spec.mix.label()));
    out.push_str(&format!(
        "  \"arrival\": \"{}\",\n",
        json_escape(&spec.arrival.label())
    ));
    out.push_str(&format!("  \"keys\": {},\n", spec.keys));
    out.push_str(&format!("  \"theta\": {},\n", spec.theta));
    out.push_str(&format!("  \"value_bytes\": {},\n", spec.value_bytes));
    out.push_str(&format!("  \"seed\": {},\n", spec.seed));
    out.push_str("  \"cells\": [\n");
    for (i, cell) in cells.iter().enumerate() {
        out.push_str(&format!(
            "    {}{}\n",
            cell.encode(),
            if i + 1 == cells.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n");
    // Top-level operator summary: the PiCL cell's registry view, so
    // dashboards don't have to dig through the cell array.
    let obs = cells
        .iter()
        .find_map(|c| c.obs.as_ref())
        .map_or_else(|| "null".to_owned(), ObsSummary::encode);
    out.push_str(&format!("  \"obs\": {obs}\n"));
    out.push_str("}\n");
    out
}

/// `picl ycsb` — run the benchmark matrix and emit the report.
///
/// # Errors
///
/// Returns an [`ArgError`] on bad flags, harness failures, or any audit
/// violation in a PiCL cell.
pub fn cmd_ycsb(args: &Args) -> Result<(), ArgError> {
    args.expect_only(&[
        "path",
        "sessions",
        "ops",
        "keys",
        "theta",
        "mix",
        "value-bytes",
        "seed",
        "arrival",
        "ops-per-epoch",
        "window",
        "lines",
        "out",
        "baseline",
        "telemetry",
    ])?;
    let sessions = args.count_or("sessions", 4)? as usize;
    if sessions == 0 {
        return Err(ArgError("--sessions must be at least 1".into()));
    }
    let total_ops = args.count_or("ops", 20_000)?;
    let keys = args.count_or("keys", 100_000)?;
    let value_bytes = args.count_or("value-bytes", 100)? as usize;
    let spec = LoadSpec {
        sessions,
        ops_per_session: (total_ops / sessions as u64).max(1),
        keys,
        theta: args.float_or("theta", 0.9)?,
        // Default to the read-mostly mix: lookups are the concurrent,
        // lock-free path. Mix A is update-bound — every mutation pays the
        // serialized undo-before-writeback drain — so it measures the
        // engine against the fsync baseline, not session scaling.
        mix: MixPreset::parse(args.get_or("mix", "b")).map_err(ArgError)?,
        value_bytes,
        seed: args.count_or("seed", 1)?,
        arrival: Arrival::parse(args.get_or("arrival", "closed")).map_err(ArgError)?,
    };
    spec.validate()
        .map_err(|e| ArgError(format!("load spec: {e}")))?;

    let cfg = load_engine_config(args, keys, value_bytes)?;
    let ops_per_epoch = args.count_or("ops-per-epoch", 64)?;
    if ops_per_epoch == 0 {
        return Err(ArgError("--ops-per-epoch must be at least 1".into()));
    }

    let base = match args.get("path") {
        Some(p) => PathBuf::from(p),
        None => std::env::temp_dir().join(format!("picl-ycsb-{}", std::process::id())),
    };
    if let Some(dir) = base.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)
                .map_err(|e| ArgError(format!("cannot create {}: {e}", dir.display())))?;
        }
    }
    let telemetry_prefix = args.get("telemetry").map(str::to_owned);

    let mut cells = vec![YcsbCell {
        label: format!("picl x{sessions}"),
        backend: YcsbBackend::Picl,
        store_path: base.with_extension("multi.store"),
        spec: spec.clone(),
        cfg: cfg.clone(),
        ops_per_epoch,
        telemetry_prefix,
    }];
    if args.is_set("baseline") {
        cells.push(YcsbCell {
            label: format!("fsync x{sessions}"),
            backend: YcsbBackend::Fsync,
            store_path: base.with_extension("fsync.store"),
            spec: spec.clone(),
            cfg: cfg.clone(),
            ops_per_epoch,
            telemetry_prefix: None,
        });
    }

    // One cell at a time: cells time wall-clock and spawn their own
    // session threads, and every run serves and audits afresh.
    println!(
        "{:<12}{:>9}{:>12}{:>12}{:>11}{:>11}{:>12}",
        "cell", "ops", "ops/s", "preload/s", "p50 us", "p99 us", "p99.9 us"
    );
    let mut results = Vec::with_capacity(cells.len());
    for cell in &cells {
        let r = cell
            .run()
            .map_err(|e| ArgError(format!("ycsb cell {}: {}", cell.label, e.0)))?;
        println!(
            "{:<12}{:>9}{:>12.0}{:>12.0}{:>11.1}{:>11.1}{:>12.1}",
            r.label, r.ops, r.throughput, r.preload_keys_per_s, r.p50_us, r.p99_us, r.p999_us
        );
        results.push(r);
    }

    let picl = results
        .iter()
        .find(|r| r.backend == YcsbBackend::Picl)
        .ok_or_else(|| ArgError("PiCL cell missing from results".into()))?;
    println!(
        "{}: {} audit events, {} dropped, {} violations",
        picl.label, picl.audit_events, picl.audit_dropped, picl.audit_violations
    );
    if !picl.tenants.is_empty() {
        println!("per-tenant breakdown ({}):", picl.label);
        println!(
            "{:<10}{:>9}{:>9}{:>11}{:>11}{:>12}",
            "session", "reads", "updates", "p50 us", "p99 us", "p99.9 us"
        );
        for t in &picl.tenants {
            println!(
                "{:<10}{:>9}{:>9}{:>11.1}{:>11.1}{:>12.1}",
                t.session, t.reads, t.updates, t.p50_us, t.p99_us, t.p999_us
            );
        }
    }
    if let Some(o) = &picl.obs {
        println!(
            "obs: get p99 {:.1} us, put p99 {:.1} us, {} escalations \
             ({:.4} per shard op), {} persister cycles (p99 {:.3} ms), {} fences, \
             commit publish p99 {:.1} us, window wait p99 {:.1} us",
            o.get_p99_us,
            o.put_p99_us,
            o.escalations,
            o.escalation_rate,
            o.persister_cycles,
            o.persister_cycle_p99_ms,
            o.fences,
            o.commit_publish_p99_us,
            o.commit_window_p99_us
        );
    }

    let json = serve_report_json(&spec, &results);
    validate_json(&json).map_err(|e| ArgError(format!("emitted JSON invalid: {e}")))?;
    if let Some(out_path) = args.get("out") {
        std::fs::write(out_path, &json)
            .map_err(|e| ArgError(format!("cannot write {out_path}: {e}")))?;
        println!("wrote {out_path} ({} cells)", results.len());
    }

    let violations: u64 = results.iter().map(|r| r.audit_violations).sum();
    if violations > 0 {
        return Err(ArgError(format!(
            "{violations} protocol-invariant violation(s) in the serving event stream"
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use picl_telemetry::json::Value;

    fn temp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("picl-cli-serve-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        let _ = std::fs::remove_file(&path);
        path
    }

    fn parse(raw: &[&str]) -> Args {
        Args::parse(raw.iter().copied()).unwrap()
    }

    #[test]
    fn serve_run_round_trips_and_recovers() {
        let path = temp_path("serve-run.store");
        let p = path.display().to_string();
        cmd_serve(&parse(&[
            "serve",
            "run",
            "--path",
            &p,
            "--seed",
            "9",
            "--sessions",
            "3",
            "--ops-per-session",
            "60",
            "--ops-per-epoch",
            "5",
        ]))
        .unwrap();
        // Reopening the same file recovers and serves again.
        cmd_serve(&parse(&[
            "serve",
            "run",
            "--path",
            &p,
            "--seed",
            "10",
            "--sessions",
            "2",
            "--ops-per-session",
            "20",
            "--ops-per-epoch",
            "5",
        ]))
        .unwrap();
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn serve_rejects_unknown_subcommand() {
        assert!(cmd_serve(&parse(&["serve", "frobnicate"])).is_err());
        cmd_serve(&parse(&["serve", "help"])).unwrap();
        cmd_serve(&parse(&["serve"])).unwrap();
        let err = cmd_serve(&parse(&[
            "serve",
            "run",
            "--path",
            "/nonexistent/s.store",
            "--log-blocks",
            "160",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("unknown flag"), "{err}");
    }

    #[test]
    fn ycsb_smoke_produces_valid_report() {
        let store = temp_path("ycsb-smoke");
        let out = temp_path("ycsb-smoke.json");
        let out_s = out.display().to_string();
        cmd_ycsb(&parse(&[
            "ycsb",
            "--path",
            &store.display().to_string(),
            "--sessions",
            "4",
            "--ops",
            "1200",
            "--keys",
            "800",
            "--value-bytes",
            "72",
            "--mix",
            "a",
            "--out",
            &out_s,
        ]))
        .unwrap();
        let json = std::fs::read_to_string(&out).unwrap();
        assert!(json.contains("\"schema\": \"picl-serve-v2\""), "{json}");
        assert!(json.contains("\"audit_violations\": 0"), "{json}");
        assert!(json.contains("\"shards\": 16"), "{json}");
        assert!(json.contains("picl x4"), "{json}");
        assert!(!json.contains("picl x1"), "{json}");

        // Schema check for the obs/tenants sections: every PiCL cell
        // carries an operator summary and one tenant row per session whose
        // reads and updates add up to the cell's ops.
        let doc = Value::parse(&json).unwrap();
        let top_obs = doc.get("obs").unwrap();
        for key in [
            "get_p50_us",
            "get_p99_us",
            "get_p999_us",
            "put_p50_us",
            "put_p99_us",
            "put_p999_us",
            "escalation_rate",
            "persister_cycle_p99_ms",
            "commit_publish_p99_us",
            "commit_window_p99_us",
        ] {
            assert!(
                top_obs.get(key).and_then(Value::as_f64).is_some(),
                "missing obs field {key}: {json}"
            );
        }
        assert!(top_obs.field_u64("persister_cycles").unwrap() > 0, "{json}");
        assert!(top_obs.field_u64("fences").unwrap() > 0, "{json}");
        // Mix A commits many epochs, so the leader's publish was timed.
        let publish = top_obs.get("commit_publish_p99_us").and_then(Value::as_f64);
        assert!(publish.is_some_and(|us| us > 0.0), "{json}");
        let cells = doc.get("cells").and_then(Value::as_arr).unwrap();
        assert_eq!(cells.len(), 1);
        for cell in cells {
            assert!(
                cell.get("obs").is_some_and(|o| !matches!(o, Value::Null)),
                "{json}"
            );
            let tenants = cell.get("tenants").and_then(Value::as_arr).unwrap();
            let sessions = cell.get("sessions").and_then(Value::as_usize).unwrap();
            assert_eq!(tenants.len(), sessions, "{json}");
            let tenant_ops: u64 = tenants
                .iter()
                .map(|t| t.field_u64("reads").unwrap() + t.field_u64("updates").unwrap())
                .sum();
            assert_eq!(tenant_ops, cell.field_u64("ops").unwrap(), "{json}");
        }
        let _ = std::fs::remove_file(&out);
    }

    #[test]
    fn ycsb_rejects_bad_mix_and_arrival() {
        assert!(cmd_ycsb(&parse(&["ycsb", "--mix", "z"])).is_err());
        assert!(cmd_ycsb(&parse(&["ycsb", "--arrival", "warp"])).is_err());
        assert!(cmd_ycsb(&parse(&["ycsb", "--sessions", "0"])).is_err());
        // The audit gate always runs: no flag replays or skips a cell.
        // Nor does any flag resize the log or stall the persister: the log
        // is sized from the lines and the window, and only the torture
        // harness's `serve run` children stall.
        for flags in [
            &["--resume", "/nonexistent"][..],
            &["--cell-timeout", "5"],
            &["--keep-going"],
            &["--log-blocks", "4096"],
            &["--persist-stall-ms", "4"],
        ] {
            let mut raw = vec!["ycsb"];
            raw.extend_from_slice(flags);
            let err = cmd_ycsb(&parse(&raw)).unwrap_err();
            assert!(err.to_string().contains("unknown flag"), "{err}");
        }
    }

    #[test]
    fn geometry_autosizing_stays_valid() {
        for (lines, window) in [("1024", "1"), ("1024", "8"), ("65536", "4"), ("23", "1")] {
            let args = parse(&["serve", "run", "--lines", lines, "--window", window]);
            let cfg = crate::store::engine_config(&args, 1024, 1).unwrap();
            // One epoch of headroom over the smallest log that cannot wedge.
            let min = picl_store::min_log_blocks(cfg.lines, cfg.window);
            assert!(u64::from(cfg.log_blocks) > min, "{cfg:?}");
        }
        let cfg = load_engine_config(&parse(&["ycsb"]), 2_000, 72).unwrap();
        assert_eq!((cfg.lines, cfg.window), (8_000, 4));
        assert!(load_engine_config(&parse(&["ycsb"]), u64::MAX, 100).is_err());
        assert!(crate::store::engine_config(&parse(&["ycsb", "--window", "0"]), 1024, 4).is_err());
        assert_eq!(slots_per_record(8), 1);
        assert_eq!(slots_per_record(16), 1);
        assert_eq!(slots_per_record(17), 2);
        assert_eq!(slots_per_record(100), 3);
        assert_eq!(slots_per_record(255), 5);
    }
}
