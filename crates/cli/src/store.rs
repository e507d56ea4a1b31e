//! `picl store` — inspect and judge the executable PiCL storage engine's
//! files. (`picl serve run` writes them.)
//!
//! Subcommands:
//!
//! - `dump` — print a store file's superblock and live undo log, and what
//!   recovery would scan and replay (`picl_store::plan_recovery`: the
//!   engine's own log scan and rollback, without writing anything).
//! - `verify` — recover a `serve run` store file and judge it against the
//!   run's seeded session streams (nonzero exit on any inconsistency).
//! - `simdiff` — run one workload through both the store and the
//!   simulator and diff epoch-level undo outcomes.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use picl_crashlab::{run_store_diff, StoreDiffSpec, Victim};
use picl_store::layout::Geometry;
use picl_store::{min_log_blocks, plan_recovery, EngineConfig, FileMedium, PersistOps};

use crate::args::{ArgError, Args};

/// Usage text for `picl store help`.
const STORE_USAGE: &str = "\
usage: picl store <dump|verify|simdiff|help> [--flag value]...

dump flags:
  --path FILE           store file (required)

verify flags:
  --path FILE           store file written by `picl serve run` (required)
  --seed N, --sessions N, --ops-per-session N, --ops-per-epoch N,
  --key-space N, --window N
                        the `serve run` contract to judge against (same
                        defaults); one session is judged at the exact op
                        count its recovered epoch holds
  --observed-commit N   last commit known reached (tightens the RPO check)

simdiff flags:
  --seed N, --ops N, --ops-per-epoch N, --key-space N
                        the workload both implementations execute; an
                        epoch here is N operations, gets included
";

/// Dispatches `picl store <sub>`.
///
/// # Errors
///
/// Returns an [`ArgError`] for unknown subcommands, bad flags, I/O
/// failures, or failed verifications (an inconsistent recovery, sim
/// divergence).
pub fn cmd_store(args: &Args) -> Result<(), ArgError> {
    match args.subcommand() {
        Some("dump") => store_dump(args),
        Some("verify") => store_verify(args),
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

/// Opens the store file at `path`, creating it at `cfg`'s geometry if
/// absent.
pub(crate) fn open_medium(
    path: &Path,
    cfg: &EngineConfig,
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
    Ok(Arc::new(file))
}

fn store_dump(args: &Args) -> Result<(), ArgError> {
    args.expect_only(&["path"])?;
    let path = required_path(args)?;
    let medium = FileMedium::open_existing(&path)
        .map_err(|e| ArgError(format!("cannot open {}: {e}", path.display())))?;
    let plan = plan_recovery(&medium).map_err(|e| ArgError(format!("{}: {e}", path.display())))?;
    let sb = plan.superblock;
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
    println!(
        "log: {} live blocks, {} undo entries; recovery would scan {} blocks \
         and would replay {} entries",
        plan.live_blocks, plan.entries, plan.blocks_scanned, plan.entries_replayed
    );
    Ok(())
}

fn store_verify(args: &Args) -> Result<(), ArgError> {
    args.expect_only(&[
        "path",
        "seed",
        "sessions",
        "ops-per-session",
        "ops-per-epoch",
        "key-space",
        "window",
        "observed-commit",
    ])?;
    let path = required_path(args)?;
    // `serve run`'s defaults, so a run and its verify take the same flags.
    let victim = Victim {
        sessions: args.count_or("sessions", 4)? as usize,
        ops_per_session: args.count_or("ops-per-session", 100)?,
        ops_per_epoch: args.count_or("ops-per-epoch", 8)?,
        key_space: args.count_or("key-space", 12)?,
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
        "{}: recovered to epoch {} ({} undo entries replayed from {} log blocks, \
         {:.3} ms), prefix-consistent: {}, RPO ok: {}",
        path.display(),
        judgement.recovered_to,
        judgement.entries_replayed,
        judgement.blocks_scanned,
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

    /// The contract flags `serve run` and `store verify` share: one
    /// session, seed 3, 64 ops, 4 mutations per epoch.
    const CONTRACT: [&str; 8] = [
        "--sessions",
        "1",
        "--seed",
        "3",
        "--ops-per-session",
        "64",
        "--ops-per-epoch",
        "4",
    ];

    fn serve_run(path: &str) {
        let mut raw = vec!["serve", "run", "--path", path];
        raw.extend(CONTRACT);
        crate::serve::cmd_serve(&parse(&raw)).unwrap();
    }

    #[test]
    fn run_then_verify_then_dump_round_trip() {
        let path = temp_store("roundtrip.store");
        let p = path.display().to_string();
        serve_run(&p);
        let mut raw = vec!["store", "verify", "--path", &p, "--observed-commit", "8"];
        raw.extend(CONTRACT);
        cmd_store(&parse(&raw)).unwrap();
        cmd_store(&parse(&["store", "dump", "--path", &p])).unwrap();
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn dump_rejects_an_impossible_log_entry() {
        use picl_store::layout::{encode_log_block, UndoEntry};
        let path = temp_store("impossible.store");
        let p = path.display().to_string();
        serve_run(&p);
        // A checksummed live block whose entry names a line past the data
        // region: recovery refuses it, so dump must not count it.
        let medium = FileMedium::open_existing(&path).unwrap();
        let sb = plan_recovery(&medium).unwrap().superblock;
        let entry = UndoEntry::new(
            picl_types::LineAddr::new(u64::from(sb.geometry.lines)),
            [7; 64],
            picl_types::EpochId(sb.persisted_eid),
            picl_types::EpochId(sb.persisted_eid + 1),
        );
        let block = encode_log_block(sb.generation, sb.log_head_seq, &[entry]);
        let off = sb.geometry.log_slot_off(sb.log_head_seq);
        medium.persist(off, &block).unwrap();
        medium.fence().unwrap();
        let err = cmd_store(&parse(&["store", "dump", "--path", &p])).unwrap_err();
        assert!(err.to_string().contains("impossible entry"), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn verify_flags_a_wrong_seed() {
        let path = temp_store("wrongseed.store");
        let p = path.display().to_string();
        serve_run(&p);
        let mut raw = vec!["store", "verify", "--path", &p];
        raw.extend(CONTRACT);
        let seed = raw.iter().position(|&flag| flag == "--seed").unwrap() + 1;
        raw[seed] = "4";
        let err = cmd_store(&parse(&raw)).unwrap_err();
        assert!(err.to_string().contains("failed verification"), "{err}");
        let _ = std::fs::remove_file(&path);
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
        assert!(cmd_store(&parse(&["store", "verify"])).is_err());
        cmd_store(&parse(&["store", "help"])).unwrap();
        cmd_store(&parse(&["store"])).unwrap();
    }

    #[test]
    fn run_sizes_its_own_log() {
        // The log is sized from `--lines` and `--window`; no flag sets it.
        let path = temp_store("log-blocks.store");
        let p = path.display().to_string();
        let err = crate::serve::cmd_serve(&parse(&[
            "serve",
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
}
