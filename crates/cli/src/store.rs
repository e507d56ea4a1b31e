//! `picl store` — drive the executable PiCL storage engine.
//!
//! Subcommands:
//!
//! - `run` — execute a workload (seeded or from a file) against a store
//!   file, printing epoch/RPO statistics; `--progress` streams flushed
//!   `commit <eid> ops <n0>,...` lines for the kill -9 harness.
//! - `dump` — print a store file's superblock and live undo log.
//! - `verify` — recover a store file and judge it against the seeded
//!   model oracle (nonzero exit on any inconsistency).
//! - `torture` — spawn N seeded `kill -9` children and require every one
//!   to recover within the one-epoch RPO bound.
//! - `simdiff` — run one workload through both the store and the
//!   simulator and diff epoch-level undo outcomes.

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use picl_crashlab::{
    run_store_diff, run_torture_campaign, Judgement, KillClass, StoreDiffSpec, Target, Victim,
};
use picl_serve::session::CommitHook;
use picl_store::layout::{decode_log_block, Geometry, Superblock, LOG_BLOCK_BYTES, SB_BYTES};
use picl_store::{
    apply_to_store, generate, min_log_blocks, parse_workload, EngineConfig, FileMedium, Kv,
    LatencyMedium, PersistOps,
};
use picl_telemetry::Telemetry;
use picl_types::EpochId;

use crate::args::{ArgError, Args};

/// Usage text for `picl store help`.
const STORE_USAGE: &str = "\
usage: picl store <run|dump|verify|torture|simdiff|help> [--flag value]...

run flags:
  --path FILE           store file (required; created if absent)
  --seed N              seeded workload (default 1; ignored with --workload)
  --ops N               operations to run (default 200)
  --ops-per-epoch N     epoch granularity in operations (default 8)
  --key-space N         distinct keys in the seeded workload (default 16)
  --window N            in-order persist window = RPO bound (default 1)
  --lines N             data capacity in 64B lines when creating (default 1024);
                        the undo log is sized from --lines and --window
  --persist-stall-ms N  persister mid-epoch stall, widens the mid-drain
                        crash window for torture (default 0)
  --workload FILE       run `put K V` / `del K` / `get K` lines instead of
                        the seeded workload
  --medium MODE         file | latency (latency injects Makalu-style NVM
                        delays: 340ns/persist, 500ns/fence; default file)
  --progress            stream flushed `commit <eid> ops n0,n1,...` lines
                        (ops applied per session) to stdout
  --telemetry PREFIX    export the engine's event stream (audit-ready)

dump flags:
  --path FILE           store file (required)

verify flags:
  --path FILE           store file (required)
  --seed N, --ops-per-epoch N, --key-space N, --window N
                        the workload contract to judge against
  --observed-commit N   last commit known reached (tightens the RPO check)

torture flags:
  --trials N            kill -9 trials, rotating the three crash classes
                        mid-epoch / boundary / mid-drain (default 51)
  --seed N              campaign seed (default 7)
  --dir DIR             scratch directory (default: the OS temp dir)

simdiff flags:
  --seed N, --ops N, --ops-per-epoch N, --key-space N
                        the workload both implementations execute
";

/// Dispatches `picl store <sub>`.
///
/// # Errors
///
/// Returns an [`ArgError`] for unknown subcommands, bad flags, I/O
/// failures, or failed verifications (torture mismatches, sim
/// divergence).
pub fn cmd_store(args: &Args) -> Result<(), ArgError> {
    match args.subcommand() {
        Some("run") => store_run(args),
        Some("dump") => store_dump(args),
        Some("verify") => store_verify(args),
        Some("torture") => torture(args, Target::Store, 51),
        Some("simdiff") => store_simdiff(args),
        Some("help") | None => {
            println!("{STORE_USAGE}");
            Ok(())
        }
        Some(other) => Err(ArgError(format!(
            "unknown store subcommand {other:?}; try `picl store help`"
        ))),
    }
}

pub(crate) fn required_path(args: &Args) -> Result<PathBuf, ArgError> {
    args.get("path")
        .map(PathBuf::from)
        .ok_or_else(|| ArgError("--path is required".into()))
}

/// The engine configuration of every command that creates a store:
/// `--lines` and `--window` (with the caller's defaults) and the torture
/// harness's `--persist-stall-ms`. The log is sized from the two with one
/// epoch of headroom over the minimum; an existing store keeps the
/// geometry recorded in its superblock.
pub(crate) fn engine_config(
    args: &Args,
    default_lines: u64,
    default_window: u64,
) -> Result<EngineConfig, ArgError> {
    let lines = args.count_or("lines", default_lines)?;
    let lines = u32::try_from(lines)
        .map_err(|_| ArgError(format!("{lines} lines overflow a 32-bit line index")))?;
    let window = args.count_or("window", default_window)?;
    let log_blocks = u32::try_from(min_log_blocks(lines, window.saturating_add(1)))
        .map_err(|_| ArgError(format!("window {window} needs a log past 2^32 blocks")))?;
    let cfg = EngineConfig {
        lines,
        log_blocks,
        window,
        persist_stall_ms: args.count_or("persist-stall-ms", 0)?,
        sabotage_skip_drain: false,
    };
    cfg.validate()
        .map_err(|e| ArgError(format!("store geometry: {e}")))?;
    Ok(cfg)
}

pub(crate) fn open_medium(
    path: &Path,
    cfg: &EngineConfig,
    mode: &str,
) -> Result<Arc<dyn PersistOps>, ArgError> {
    let geometry = Geometry {
        lines: cfg.lines,
        log_blocks: cfg.log_blocks,
    };
    let file = if path.exists() {
        FileMedium::open_existing(path)
    } else {
        FileMedium::open(path, geometry.total_len())
    }
    .map_err(|e| ArgError(format!("cannot open {}: {e}", path.display())))?;
    match mode {
        "file" => Ok(Arc::new(file)),
        // Makalu's emulate_latency_ns figures for PCM-class NVM.
        "latency" => Ok(Arc::new(LatencyMedium::new(file, 340, 500))),
        other => Err(ArgError(format!(
            "--medium must be file or latency, not {other:?}"
        ))),
    }
}

/// Writes one flushed `commit <eid> ops <n0>,<n1>,...` progress line: the
/// kill -9 harness reads this stream to schedule its signal and to bound
/// each session's recovered prefix.
fn write_commit_line(eid: u64, counts: &[u64]) -> std::io::Result<()> {
    let joined = counts
        .iter()
        .map(u64::to_string)
        .collect::<Vec<_>>()
        .join(",");
    let mut stdout = std::io::stdout().lock();
    writeln!(stdout, "commit {eid} ops {joined}")?;
    stdout.flush()
}

/// The `--progress` commit hook for `serve run`'s sessions.
pub(crate) fn progress_hook() -> CommitHook {
    Box::new(|eid, counts| {
        let _ = write_commit_line(eid, counts);
    })
}

fn store_run(args: &Args) -> Result<(), ArgError> {
    args.expect_only(&[
        "path",
        "seed",
        "ops",
        "ops-per-epoch",
        "key-space",
        "window",
        "lines",
        "persist-stall-ms",
        "workload",
        "medium",
        "progress",
        "telemetry",
    ])?;
    let path = required_path(args)?;
    let cfg = engine_config(args, 1024, 1)?;
    let ops_per_epoch = args.count_or("ops-per-epoch", 8)?;
    let medium = open_medium(&path, &cfg, args.get_or("medium", "file"))?;
    let telemetry = match args.get("telemetry") {
        Some(_) => Telemetry::new(0, 1 << 18),
        None => Telemetry::off(),
    };
    let (mut kv, report) = Kv::open(medium, cfg.clone(), telemetry.clone(), ops_per_epoch)
        .map_err(|e| ArgError(format!("open store: {e}")))?;
    if report.recovered {
        println!(
            "recovered {} to epoch {} ({} undo entries replayed, {} lines restored, {:.3} ms)",
            path.display(),
            report.recovered_to,
            report.entries_applied,
            report.lines_restored,
            report.recovery_ns as f64 / 1e6
        );
    }

    let ops = match args.get("workload") {
        Some(file) => {
            let text = std::fs::read_to_string(file)
                .map_err(|e| ArgError(format!("cannot read {file}: {e}")))?;
            parse_workload(&text).map_err(ArgError)?
        }
        None => generate(
            args.count_or("seed", 1)?,
            args.count_or("ops", 200)?,
            args.count_or("key-space", 16)?,
        ),
    };

    let progress = args.is_set("progress");
    for op in &ops {
        let before = kv.engine().frontiers().1;
        apply_to_store(&mut kv, op).map_err(|e| ArgError(format!("workload: {e}")))?;
        let after = kv.engine().frontiers().1;
        if progress && after != before {
            write_commit_line(after, &[kv.ops()]).map_err(|e| ArgError(format!("stdout: {e}")))?;
        }
    }
    let (_, committed, persisted) = kv.engine().frontiers();
    let live = kv.scan().map_err(|e| ArgError(format!("scan: {e}")))?.len();
    let stats = kv
        .close()
        .map_err(|e| ArgError(format!("close store: {e}")))?;
    println!(
        "ran {} ops ({} live keys): {} epochs committed, {} persisted (RPO bound {} epoch[s]), \
         {} undo entries, {} drains ({} forced), {} log blocks, {} line writebacks, \
         {} bloom hits, {} window stalls",
        ops.len(),
        live,
        committed,
        persisted,
        cfg.window,
        stats.undo_entries,
        stats.drains,
        stats.forced_drains,
        stats.log_blocks_written,
        stats.line_writebacks,
        stats.bloom_hits,
        stats.window_stalls
    );
    if let Some(prefix) = args.get("telemetry") {
        crate::commands::export_telemetry(prefix, &telemetry.snapshot())?;
    }
    Ok(())
}

fn store_dump(args: &Args) -> Result<(), ArgError> {
    args.expect_only(&["path"])?;
    let path = required_path(args)?;
    let medium = FileMedium::open_existing(&path)
        .map_err(|e| ArgError(format!("cannot open {}: {e}", path.display())))?;
    let mut head = [0u8; SB_BYTES as usize];
    medium
        .read(0, &mut head)
        .map_err(|e| ArgError(format!("read superblock: {e}")))?;
    let sb = Superblock::decode(&head).map_err(|e| ArgError(format!("{}: {e}", path.display())))?;
    println!(
        "{}: {} lines x 64 B data, {} x 4 KB log blocks, generation {}, \
         persisted epoch {}, log window [{}, {})",
        path.display(),
        sb.geometry.lines,
        sb.geometry.log_blocks,
        sb.generation,
        sb.persisted_eid,
        sb.log_start_seq,
        sb.log_head_seq
    );
    let mut buf = vec![0u8; LOG_BLOCK_BYTES as usize];
    let mut blocks = 0u64;
    let mut entries = 0u64;
    let mut undoable = 0u64;
    for slot in 0..sb.geometry.log_blocks {
        medium
            .read(sb.geometry.log_slot_off(u64::from(slot)), &mut buf)
            .map_err(|e| ArgError(format!("read log slot {slot}: {e}")))?;
        let Some(block) = decode_log_block(&buf, sb.generation) else {
            continue;
        };
        if block.seq < sb.log_start_seq {
            continue;
        }
        blocks += 1;
        entries += block.entries.len() as u64;
        undoable += block
            .entries
            .iter()
            .filter(|e| e.covers(EpochId(sb.persisted_eid)))
            .count() as u64;
    }
    println!(
        "log: {blocks} live blocks, {entries} undo entries, {undoable} covering the \
         persist frontier (would replay on recovery)"
    );
    Ok(())
}

fn store_verify(args: &Args) -> Result<(), ArgError> {
    args.expect_only(&[
        "path",
        "seed",
        "ops-per-epoch",
        "key-space",
        "window",
        "observed-commit",
    ])?;
    let path = required_path(args)?;
    let victim = Victim::Store {
        // The store judge's candidate op count is `recovered_to ×
        // ops_per_epoch`; it never reads `ops`.
        ops: 0,
        ops_per_epoch: args.count_or("ops-per-epoch", 8)?,
        key_space: args.count_or("key-space", 16)?,
    };
    let observed = (args.count_or("observed-commit", 0)?, Vec::new());
    let judgement = picl_crashlab::judge_recovery(
        &path,
        args.count_or("seed", 1)?,
        &victim,
        args.count_or("window", 1)?,
        &[observed],
    )
    .map_err(ArgError)?;
    println!(
        "{}: recovered to epoch {} ({} undo entries replayed, {:.3} ms), \
         prefix-consistent: {}, RPO ok: {}",
        path.display(),
        judgement.recovered_to,
        judgement.entries_replayed,
        judgement.recovery_ns as f64 / 1e6,
        judgement.consistent,
        judgement.rpo_ok
    );
    if judgement.consistent && judgement.rpo_ok {
        Ok(())
    } else {
        Err(ArgError("store failed verification".into()))
    }
}

/// `picl store torture` and `picl serve torture`: one seeded kill -9
/// campaign against `target` children, and its report.
pub(crate) fn torture(args: &Args, target: Target, default_trials: u64) -> Result<(), ArgError> {
    args.expect_only(&["trials", "seed", "dir"])?;
    let trials = args.count_or("trials", default_trials)?;
    if trials == 0 {
        return Err(ArgError("--trials must be at least 1".into()));
    }
    let binary = std::env::current_exe()
        .map_err(|e| ArgError(format!("cannot locate the picl binary: {e}")))?;
    let name = target.name();
    let dir = match args.get("dir") {
        Some(d) => PathBuf::from(d),
        None => std::env::temp_dir().join(format!("picl-{name}-torture-{}", std::process::id())),
    };
    std::fs::create_dir_all(&dir)
        .map_err(|e| ArgError(format!("cannot create {}: {e}", dir.display())))?;
    let report = run_torture_campaign(&binary, &dir, target, trials, args.count_or("seed", 7)?)
        .map_err(ArgError)?;
    let by_class = KillClass::ALL.map(|c| report.count(|o| o.class == c));
    let inconsistent = report.count(|o| !o.judgement.consistent);
    let rpo_violations = report.count(|o| !o.judgement.rpo_ok);
    let flight_failures = report.count(|o| o.flight_ok == Some(false));
    let judgements = || report.outcomes.iter().map(|o| &o.judgement);
    let worst_lost = judgements().map(Judgement::epochs_lost).max().unwrap_or(0);
    let total_replayed: u64 = judgements().map(|j| j.entries_replayed).sum();
    let max_recovery_ns = judgements().map(|j| j.recovery_ns).max().unwrap_or(0);
    let sessions_judged: usize = judgements().map(|j| j.sessions_consistent.len()).sum();
    let flight_lines: u64 = report.outcomes.iter().map(|o| o.flight_lines).sum();
    println!(
        "{} trials ({} mid-epoch, {} boundary, {} mid-drain), {} kill -9s delivered, \
         {sessions_judged} session verdicts, in {:.2} s",
        report.outcomes.len(),
        by_class[0],
        by_class[1],
        by_class[2],
        report.count(|o| o.killed),
        report.elapsed.as_secs_f64()
    );
    println!(
        "oracle: {inconsistent} inconsistent, {rpo_violations} RPO violations, \
         {flight_failures} unreadable flight logs ({flight_lines} snapshot lines recovered); \
         worst epochs lost {worst_lost}, {total_replayed} undo entries replayed across all \
         recoveries, slowest recovery {:.3} ms",
        max_recovery_ns as f64 / 1e6
    );
    if report.passed() {
        println!(
            "{name} torture: PASS (every session prefix-consistent within the RPO bound, \
             every flight log readable after the kill)"
        );
        Ok(())
    } else {
        Err(ArgError(format!(
            "{name} torture: {inconsistent} inconsistent recoveries, \
             {rpo_violations} RPO violations, {flight_failures} unreadable flight logs"
        )))
    }
}

fn store_simdiff(args: &Args) -> Result<(), ArgError> {
    args.expect_only(&["seed", "ops", "ops-per-epoch", "key-space"])?;
    let spec = StoreDiffSpec {
        seed: args.count_or("seed", 1)?,
        ops: args.count_or("ops", 120)?,
        ops_per_epoch: args.count_or("ops-per-epoch", 8)?,
        key_space: args.count_or("key-space", 12)?,
    };
    if spec.ops_per_epoch == 0 || spec.ops < spec.ops_per_epoch {
        return Err(ArgError(
            "need --ops >= --ops-per-epoch >= 1 for at least one whole epoch".into(),
        ));
    }
    let report = run_store_diff(&spec);
    println!(
        "store committed {} epochs, simulator {}; compared {}",
        report.store_commits, report.sim_commits, report.epochs_compared
    );
    if report.matches() {
        println!("simdiff: MATCH (identical per-epoch undo-logged line sets)");
        Ok(())
    } else {
        for (epoch, store_only, sim_only) in &report.mismatches {
            println!("epoch {epoch}: store-only lines {store_only:?}, sim-only lines {sim_only:?}");
        }
        Err(ArgError(format!(
            "simdiff: {} epoch(s) diverged",
            report.mismatches.len()
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_store(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("picl-cli-store-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        let _ = std::fs::remove_file(&path);
        path
    }

    fn parse(raw: &[&str]) -> Args {
        Args::parse(raw.iter().copied()).unwrap()
    }

    #[test]
    fn run_then_verify_then_dump_round_trip() {
        let path = temp_store("roundtrip.store");
        let p = path.display().to_string();
        cmd_store(&parse(&[
            "store",
            "run",
            "--path",
            &p,
            "--seed",
            "3",
            "--ops",
            "64",
            "--ops-per-epoch",
            "4",
        ]))
        .unwrap();
        cmd_store(&parse(&[
            "store",
            "verify",
            "--path",
            &p,
            "--seed",
            "3",
            "--ops-per-epoch",
            "4",
            "--observed-commit",
            "16",
        ]))
        .unwrap();
        cmd_store(&parse(&["store", "dump", "--path", &p])).unwrap();
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn verify_flags_a_wrong_seed() {
        let path = temp_store("wrongseed.store");
        let p = path.display().to_string();
        cmd_store(&parse(&[
            "store",
            "run",
            "--path",
            &p,
            "--seed",
            "3",
            "--ops",
            "64",
            "--ops-per-epoch",
            "4",
        ]))
        .unwrap();
        let err = cmd_store(&parse(&[
            "store",
            "verify",
            "--path",
            &p,
            "--seed",
            "4",
            "--ops-per-epoch",
            "4",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("failed verification"), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn workload_file_mode_runs() {
        let path = temp_store("file.store");
        let dir = path.parent().unwrap();
        let wl = dir.join("demo.workload");
        std::fs::write(&wl, "put a 1\nput b 2\nget a\ndel a\n").unwrap();
        cmd_store(&parse(&[
            "store",
            "run",
            "--path",
            &path.display().to_string(),
            "--workload",
            &wl.display().to_string(),
            "--ops-per-epoch",
            "2",
        ]))
        .unwrap();
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&wl);
    }

    #[test]
    fn simdiff_subcommand_matches() {
        cmd_store(&parse(&[
            "store",
            "simdiff",
            "--seed",
            "5",
            "--ops",
            "48",
            "--ops-per-epoch",
            "6",
        ]))
        .unwrap();
    }

    #[test]
    fn unknown_subcommand_and_missing_path_error() {
        assert!(cmd_store(&parse(&["store", "frobnicate"])).is_err());
        assert!(cmd_store(&parse(&["store", "dump"])).is_err());
        cmd_store(&parse(&["store", "help"])).unwrap();
        cmd_store(&parse(&["store"])).unwrap();
    }

    #[test]
    fn run_sizes_its_own_log() {
        let path = temp_store("log-blocks.store");
        let p = path.display().to_string();
        let err = cmd_store(&parse(&[
            "store",
            "run",
            "--path",
            &p,
            "--log-blocks",
            "160",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("unknown flag"), "{err}");
        assert!(!path.exists(), "a rejected flag must not create the store");
    }

    #[test]
    fn latency_medium_mode_runs() {
        let path = temp_store("latency.store");
        cmd_store(&parse(&[
            "store",
            "run",
            "--path",
            &path.display().to_string(),
            "--ops",
            "24",
            "--ops-per-epoch",
            "4",
            "--medium",
            "latency",
        ]))
        .unwrap();
        let _ = std::fs::remove_file(&path);
    }
}
