//! End-to-end torture of the real `picl` binary: spawn `picl serve run`
//! children of one and of several sessions, `kill -9` them, recover the
//! store file, and check the oracle — the full loop the CI smoke step
//! runs at scale.

use std::path::PathBuf;
use std::process::Command;

use picl_crashlab::{
    parse_commit_line, run_torture_campaign, run_trial, KillClass, TortureSpec, Victim,
};

fn picl_bin() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_picl"))
}

fn scratch() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("picl-e2e-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn spec(name: &str, seed: u64, victim: Victim, class: KillClass) -> TortureSpec {
    TortureSpec {
        binary: picl_bin(),
        store_path: scratch().join(format!("{name}.store")),
        seed,
        victim,
        window: 1,
        kill_after_commit: 3,
        class,
    }
}

#[test]
fn each_kill_class_recovers_within_the_rpo_bound() {
    let victims = [
        Victim {
            sessions: 1,
            ops_per_session: 300,
            ops_per_epoch: 4,
            key_space: 12,
        },
        Victim {
            sessions: 3,
            ops_per_session: 120,
            ops_per_epoch: 4,
            key_space: 12,
        },
    ];
    for (v, victim) in victims.into_iter().enumerate() {
        for (i, class) in KillClass::ALL.into_iter().enumerate() {
            let spec = spec(&format!("class-{v}-{i}"), 40 + i as u64, victim, class);
            let outcome = run_trial(&spec).expect("harness");
            assert!(
                outcome.passed(),
                "{victim:?} {} trial failed the oracle: {outcome:?}",
                class.name()
            );
            assert!(outcome.killed, "{victim:?} {}: no kill", class.name());
            assert!(
                outcome.judgement.epochs_lost() <= spec.window,
                "{victim:?} {}: lost {} epochs with window {}",
                class.name(),
                outcome.judgement.epochs_lost(),
                spec.window
            );
            let _ = std::fs::remove_file(&spec.store_path);
        }
    }
}

#[test]
fn a_child_that_dies_on_its_own_is_a_harness_error() {
    // `--key-space 0` panics in the stream generator before the first
    // commit: no kill is ever delivered, and the trial must not pass as a
    // clean shutdown.
    let victim = Victim {
        sessions: 1,
        ops_per_session: 40,
        ops_per_epoch: 4,
        key_space: 0,
    };
    let spec = spec("dies", 1, victim, KillClass::Boundary);
    let err = run_trial(&spec).expect_err("a dying child must be a harness error");
    assert!(err.contains("exit status"), "names the status: {err}");
    assert!(
        err.contains("need at least one key"),
        "quotes stderr: {err}"
    );
    let _ = std::fs::remove_file(&spec.store_path);
}

#[test]
fn a_small_seeded_campaign_passes_and_actually_kills() {
    let report = run_torture_campaign(&picl_bin(), &scratch(), 12, 11).expect("campaign harness");
    assert!(report.passed(), "campaign failed: {report:?}");
    assert_eq!(report.outcomes.len(), 12);
    assert!(
        report.count(|o| o.killed) >= 1,
        "a 12-trial campaign should deliver at least one SIGKILL"
    );
    assert!(
        report.count(|o| o.judgement.sessions_consistent.len() == 1) >= 1,
        "the campaign should draw a one-session child"
    );
}

#[test]
fn every_progress_line_parses_as_a_commit_line() {
    let dir = scratch();
    let runs = [
        ("serve run --sessions 1 --ops-per-session 60", 1),
        ("serve run --sessions 3 --ops-per-session 30", 3),
    ];
    for (i, (label, sessions)) in runs.into_iter().enumerate() {
        let store = dir.join(format!("progress-{i}.store"));
        let _ = std::fs::remove_file(&store);
        let out = Command::new(picl_bin())
            .args(label.split(' '))
            .args(["--ops-per-epoch", "4", "--progress", "--path"])
            .arg(&store)
            .output()
            .expect("spawn picl");
        assert!(
            out.status.success(),
            "{label} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
        let lines: Vec<&str> = stdout.lines().filter(|l| l.starts_with("commit")).collect();
        assert!(!lines.is_empty(), "{label} printed no commit lines");
        for line in lines {
            let (_, counts) =
                parse_commit_line(line).unwrap_or_else(|| panic!("{label}: unparsable {line:?}"));
            assert_eq!(counts.len(), sessions, "{label}: {line:?}");
        }
        let _ = std::fs::remove_file(&store);
    }
}

/// A one-session `serve run`'s exported engine event stream passes the
/// protocol audit.
#[test]
fn store_run_exports_an_audit_clean_event_stream() {
    let dir = scratch();
    let store = dir.join("audited.store");
    let prefix = dir.join("audited");
    let _ = std::fs::remove_file(&store);

    let run = Command::new(picl_bin())
        .args([
            "serve",
            "run",
            "--sessions",
            "1",
            "--path",
            store.to_str().unwrap(),
            "--seed",
            "9",
            "--ops-per-session",
            "120",
            "--ops-per-epoch",
            "6",
            "--telemetry",
            prefix.to_str().unwrap(),
        ])
        .output()
        .expect("spawn picl serve run");
    assert!(
        run.status.success(),
        "serve run failed: {}",
        String::from_utf8_lossy(&run.stderr)
    );

    let events = format!("{}.events.jsonl", prefix.display());
    let audit = Command::new(picl_bin())
        .args(["audit", "--trace", &events])
        .output()
        .expect("spawn picl audit");
    assert!(
        audit.status.success(),
        "audit of the store's event stream failed: {}{}",
        String::from_utf8_lossy(&audit.stdout),
        String::from_utf8_lossy(&audit.stderr)
    );

    let _ = std::fs::remove_file(&store);
    for suffix in [".trace.json", ".events.jsonl", ".series.csv"] {
        let _ = std::fs::remove_file(format!("{}{suffix}", prefix.display()));
    }
}
