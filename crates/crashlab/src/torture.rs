//! Process torture: `kill -9` a live `picl serve run` child and judge its
//! recovered store file.
//!
//! The simulator-side oracle ([`crate::oracle`]) cuts power in a model;
//! this module cuts it on a live process. The child runs a seeded KV
//! workload against a store *file* and prints one flushed progress line
//! per epoch commit, `commit <eid> ops <n0>,<n1>,...`, where `n_i` is a
//! lower bound on how many of session `i`'s ops epoch `eid` includes. The
//! parent watches that stream and kills the child with SIGKILL at a
//! scheduled point in one of three classes — mid-epoch, at a commit
//! boundary, or inside the persister's in-place write burst (held open by
//! `--persist-stall-ms`). It reads the killed file's log with
//! [`plan_recovery`], then recovers the file in-process and judges it with
//! [`judge_recovery`]: per-session prefix consistency, exact for a
//! one-session child, plus the RPO bound. The rollback must scan and
//! replay exactly the blocks and entries the plan predicted. Every child
//! also runs a flight recorder whose log must still parse after the kill.
//!
//! `kill -9` is a *process*-death model: writes the kernel already
//! accepted survive in the page cache, so it under-approximates power
//! failure. The adversarial unfenced-write-dropping model is covered by
//! `CountingMedium` in the serving layer's property suite; this harness
//! covers what that one cannot — real file I/O, real threads killed at an
//! arbitrary instruction, real recovery latency.

use std::io::{BufRead, BufReader, Read};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use picl_serve::stream::{first_matching_count, ops_through_epoch, session_ops};
use picl_store::{plan_recovery, slots, Engine, EngineConfig, FileMedium, LogPlan, Model};
use picl_telemetry::Telemetry;
use picl_types::Rng;

/// Persister stall a mid-drain child runs with; the kill lands halfway
/// through it.
const MID_DRAIN_STALL_MS: u64 = 6;

/// Stderr lines quoted when a child dies on its own.
const STDERR_TAIL_LINES: usize = 5;

/// When, relative to the child's commit stream, to deliver SIGKILL.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KillClass {
    /// A beat after a commit line: the child is executing ordinary
    /// operations inside the next epoch.
    MidEpoch,
    /// Immediately on reading a commit line: the persister is (or is
    /// about to be) writing that epoch back.
    Boundary,
    /// Partway through the persister's stalled in-place write burst.
    MidDrain,
}

impl KillClass {
    /// Every class, in trial-rotation order.
    pub const ALL: [KillClass; 3] = [
        KillClass::MidEpoch,
        KillClass::Boundary,
        KillClass::MidDrain,
    ];

    /// Cycles through the three classes for trial sharding.
    pub fn for_trial(index: u64) -> KillClass {
        Self::ALL[(index % 3) as usize]
    }

    /// Stable name for reports.
    pub fn name(self) -> &'static str {
        match self {
            KillClass::MidEpoch => "mid-epoch",
            KillClass::Boundary => "boundary",
            KillClass::MidDrain => "mid-drain",
        }
    }

    /// Pause between reading the arming commit line and the kill.
    fn delay(self) -> Duration {
        Duration::from_millis(match self {
            KillClass::Boundary => 0,
            // Let the child get a few ops into the next epoch.
            KillClass::MidEpoch => 2,
            KillClass::MidDrain => MID_DRAIN_STALL_MS / 2,
        })
    }
}

/// The `picl serve run` child a trial kills: the workload contract it
/// runs and the judge holds it to. `sessions` concurrent streams, each
/// owning the `s<N>-` key prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Victim {
    /// Concurrent sessions in the child.
    pub sessions: usize,
    /// Ops each session attempts.
    pub ops_per_session: u64,
    /// Mutations per epoch.
    pub ops_per_epoch: u64,
    /// Keys per session (under its own prefix).
    pub key_space: u64,
}

impl Victim {
    /// Which session owns `key`.
    fn owner(&self, key: &[u8]) -> Option<usize> {
        let rest = std::str::from_utf8(key).ok()?.strip_prefix('s')?;
        let sid: usize = rest[..rest.find('-')?].parse().ok()?;
        (sid < self.sessions).then_some(sid)
    }
}

/// Splits a recovered scan into one model per owning session. The flag
/// is false if any key was scanned twice or is owned by no session.
fn split_by_session(victim: &Victim, scan: Vec<(Vec<u8>, Vec<u8>)>) -> (Vec<Model>, bool) {
    let mut slices = vec![Model::new(); victim.sessions];
    let mut keys_ok = true;
    for (k, v) in scan {
        match victim.owner(&k) {
            Some(sid) => keys_ok &= slices[sid].insert(k, v).is_none(),
            None => keys_ok = false,
        }
    }
    (slices, keys_ok)
}

/// Parses a child's progress line `commit <eid> ops <n0>,<n1>,...` into
/// `(eid, per-session counts)`. A line without the `ops` field is not a
/// commit line.
pub fn parse_commit_line(line: &str) -> Option<(u64, Vec<u64>)> {
    let rest = line.trim().strip_prefix("commit ")?;
    let (eid, rest) = rest.split_once(" ops ")?;
    let eid = eid.trim().parse().ok()?;
    let counts = rest
        .trim()
        .split(',')
        .map(|t| t.trim().parse::<u64>())
        .collect::<Result<Vec<u64>, _>>()
        .ok()?;
    Some((eid, counts))
}

/// What [`judge_recovery`] concluded about a store file.
#[derive(Debug, Clone)]
pub struct Judgement {
    /// Last commit epoch the child reported.
    pub observed_commit: u64,
    /// Epoch the rollback landed on.
    pub recovered_to: u64,
    /// Undo entries applied.
    pub entries_replayed: u64,
    /// Log blocks the rollback scanned.
    pub blocks_scanned: u64,
    /// Recovery latency in nanoseconds.
    pub recovery_ns: u64,
    /// Per-session prefix-consistency verdicts.
    pub sessions_consistent: Vec<bool>,
    /// Every session consistent, and every key scanned once and owned.
    pub consistent: bool,
    /// `recovered_to + window >= observed_commit`.
    pub rpo_ok: bool,
}

impl Judgement {
    /// Committed epochs lost to the crash (observed - recovered).
    pub fn epochs_lost(&self) -> u64 {
        self.observed_commit.saturating_sub(self.recovered_to)
    }
}

/// Recovers `store_path` in-process and judges it against `victim`'s
/// seeded streams, given `commits` — the `(eid, counts)` lines observed
/// before the kill. Shared by the torture harness and `picl store verify`.
///
/// The recovered image is split by owning session; a key scanned twice or
/// owned by no session fails the trial. A session passes iff its slice
/// equals its seeded model at some op count in a candidate range:
///
/// - a lone session's stream is totally ordered, so the range is the
///   single point [`ops_through_epoch`] gives for the recovered epoch;
/// - concurrent sessions interleave nondeterministically, so the range
///   runs from the counts on the last commit line at or below the
///   recovered epoch up to the session's whole stream. The serve layer
///   bumps a session's count inside the mutation's shard critical
///   section, and the group-commit leader snapshots the counts while
///   holding every shard lock, so each count is a true lower bound.
///
/// Each session's range is searched in one replay of its stream
/// ([`first_matching_count`]), so judging is linear in `ops_per_session`.
///
/// The RPO check is `recovered_to + window >= observed_commit`, where
/// `observed_commit` is the last commit line's epoch.
///
/// # Errors
///
/// Returns a message if the file cannot be opened, recovered or scanned
/// (never for an oracle verdict).
pub fn judge_recovery(
    store_path: &Path,
    seed: u64,
    victim: &Victim,
    window: u64,
    commits: &[(u64, Vec<u64>)],
) -> Result<Judgement, String> {
    let medium = FileMedium::open_existing(store_path)
        .map_err(|e| format!("open {}: {e}", store_path.display()))?;
    let (engine, report) =
        Engine::open(Arc::new(medium), EngineConfig::default(), Telemetry::off())
            .map_err(|e| format!("recover {}: {e}", store_path.display()))?;
    let recovered_to = report.recovered_to;
    let observed_commit = commits.last().map_or(0, |(eid, _)| *eid);
    let scan = slots::scan(&engine).map_err(|e| format!("scan: {e}"))?;
    let (slices, keys_ok) = split_by_session(victim, scan);

    // Lower bounds: the counts from the last commit line the recovery
    // actually kept. Later lines describe epochs that were rolled back.
    let floors: &[u64] = commits
        .iter()
        .rev()
        .find(|(eid, _)| *eid <= recovered_to)
        .map_or(&[], |(_, counts)| counts);
    let exact = (victim.sessions == 1).then(|| {
        let ops = session_ops(seed, 0, victim.ops_per_session, victim.key_space);
        ops_through_epoch(&ops, victim.ops_per_epoch, recovered_to)
    });
    let sessions_consistent: Vec<bool> = slices
        .iter()
        .enumerate()
        .map(|(sid, slice)| {
            let counts = match exact {
                Some(n) => n..=n,
                None => floors.get(sid).copied().unwrap_or(0)..=victim.ops_per_session,
            };
            first_matching_count(seed, sid, victim.key_space, counts, slice).is_some()
        })
        .collect();
    let consistent = keys_ok && sessions_consistent.iter().all(|&ok| ok);

    Ok(Judgement {
        observed_commit,
        recovered_to,
        entries_replayed: report.entries_applied,
        blocks_scanned: report.blocks_scanned,
        recovery_ns: report.recovery_ns,
        sessions_consistent,
        consistent,
        rpo_ok: recovered_to + window >= observed_commit,
    })
}

/// One kill -9 trial, fully determined by its fields (the kill *instant*
/// is necessarily racy; the oracle must hold regardless).
#[derive(Debug, Clone)]
pub struct TortureSpec {
    /// Path of the `picl` binary to spawn.
    pub binary: PathBuf,
    /// Store file the child writes and the parent recovers. The child's
    /// flight log sits beside it with a `.flight.jsonl` extension.
    pub store_path: PathBuf,
    /// Workload seed (shared by child, judging parent, and reports).
    pub seed: u64,
    /// The child and its workload.
    pub victim: Victim,
    /// In-order window (the RPO bound).
    pub window: u64,
    /// Which commit (1-based) arms the kill; the child survives if it
    /// finishes first.
    pub kill_after_commit: u64,
    /// Kill class.
    pub class: KillClass,
}

impl TortureSpec {
    fn flight_path(&self) -> PathBuf {
        self.store_path.with_extension("flight.jsonl")
    }

    fn spawn(&self) -> std::io::Result<Child> {
        let v = self.victim;
        let flags = format!(
            "serve run --sessions {} --ops-per-session {} --ops-per-epoch {} --key-space {} \
             --seed {} --window {} --persist-stall-ms {} --progress",
            v.sessions,
            v.ops_per_session,
            v.ops_per_epoch,
            v.key_space,
            self.seed,
            self.window,
            if self.class == KillClass::MidDrain {
                MID_DRAIN_STALL_MS
            } else {
                0
            }
        );
        let mut cmd = Command::new(&self.binary);
        cmd.args(flags.split_whitespace())
            .arg("--path")
            .arg(&self.store_path)
            // A short interval so even a fast-killed child records a few
            // lines; the first snapshot is written synchronously at spawn.
            .arg("--flight-recorder")
            .arg(self.flight_path())
            .args(["--flight-interval-ms", "5"])
            // A panic's message, not its backtrace, belongs in the stderr
            // tail quoted when a child dies on its own.
            .env("RUST_BACKTRACE", "0")
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
    }

    /// Removes the store file and every flight-log generation (the
    /// recorder appends `.N` to the full path when it rotates).
    fn remove_artifacts(&self) {
        let _ = std::fs::remove_file(&self.store_path);
        let flight = self.flight_path();
        let _ = std::fs::remove_file(&flight);
        for generation in 1..8 {
            let mut rotated = flight.as_os_str().to_os_string();
            rotated.push(format!(".{generation}"));
            let _ = std::fs::remove_file(PathBuf::from(rotated));
        }
    }
}

/// Verdict of one trial.
#[derive(Debug, Clone)]
pub struct TortureOutcome {
    /// Kill class exercised.
    pub class: KillClass,
    /// Whether SIGKILL was actually delivered (the child may finish
    /// first; the trial then judges a clean shutdown).
    pub killed: bool,
    /// The recovery verdict.
    pub judgement: Judgement,
    /// Flight-recorder verdict: whether the killed child left a parseable
    /// JSONL log (a torn final line is fine; garbage or an empty file is
    /// not).
    pub flight_ok: bool,
    /// Complete snapshot lines recovered from the flight log.
    pub flight_lines: u64,
    /// The rollback [`plan_recovery`] read from the killed file before
    /// recovery opened it.
    pub plan: LogPlan,
}

impl TortureOutcome {
    /// Whether recovery scanned and replayed exactly what the plan read
    /// from the killed file predicted.
    pub fn recovery_matches_plan(&self) -> bool {
        self.plan.blocks_scanned == self.judgement.blocks_scanned
            && self.plan.entries_replayed == self.judgement.entries_replayed
    }

    /// Whether the trial met the PiCL contract.
    pub fn passed(&self) -> bool {
        self.judgement.consistent
            && self.judgement.rpo_ok
            && self.flight_ok
            && self.recovery_matches_plan()
    }
}

/// Runs one kill-and-recover trial end to end.
///
/// # Errors
///
/// Returns a message on harness failures — spawn or I/O errors, or a
/// child that exits unsuccessfully before the kill — never for an oracle
/// verdict, which lands in the outcome.
pub fn run_trial(spec: &TortureSpec) -> Result<TortureOutcome, String> {
    spec.remove_artifacts();
    let mut child = spec
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", spec.binary.display()))?;
    let stdout = child.stdout.take().ok_or("child stdout not captured")?;
    let mut stderr = child.stderr.take().ok_or("child stderr not captured")?;
    // Drained on its own thread so a chatty child never blocks on a full
    // pipe while the parent reads stdout.
    let stderr_reader = std::thread::spawn(move || {
        let mut text = String::new();
        let _ = stderr.read_to_string(&mut text);
        text
    });

    let mut commits: Vec<(u64, Vec<u64>)> = Vec::new();
    let mut killed = false;
    for line in BufReader::new(stdout).lines() {
        let line = line.map_err(|e| e.to_string())?;
        let Some((eid, counts)) = parse_commit_line(&line) else {
            continue;
        };
        commits.push((eid, counts));
        if eid >= spec.kill_after_commit {
            std::thread::sleep(spec.class.delay());
            child.kill().map_err(|e| format!("kill: {e}"))?;
            killed = true;
            break;
        }
    }
    let status = child.wait().map_err(|e| format!("wait: {e}"))?;
    let stderr = stderr_reader
        .join()
        .map_err(|_| "child stderr reader panicked".to_owned())?;
    if !killed && !status.success() {
        let lines: Vec<&str> = stderr.lines().collect();
        let tail = lines[lines.len().saturating_sub(STDERR_TAIL_LINES)..].join("\n");
        return Err(format!("child died on its own ({status}): {tail}"));
    }

    // Judge the flight recorder's crash tail before recovery: every
    // complete line must parse with strictly increasing seq; only a torn
    // final line (no newline) is excused.
    let text = std::fs::read_to_string(spec.flight_path()).unwrap_or_default();
    let (flight_ok, flight_lines) = match picl_obs::validate_flight_log(&text) {
        Ok(summary) => (true, summary.lines),
        Err(_) => (false, 0),
    };
    // Read the killed file's log before recovery rewrites it.
    let plan = FileMedium::open_existing(&spec.store_path)
        .map_err(|e| e.to_string())
        .and_then(|medium| plan_recovery(&medium).map_err(|e| e.to_string()))
        .map_err(|e| format!("plan {}: {e}", spec.store_path.display()))?;
    let judgement = judge_recovery(
        &spec.store_path,
        spec.seed,
        &spec.victim,
        spec.window,
        &commits,
    )?;
    Ok(TortureOutcome {
        class: spec.class,
        killed,
        judgement,
        flight_ok,
        flight_lines,
        plan,
    })
}

/// Outcomes of a seeded multi-trial campaign.
#[derive(Debug, Clone)]
pub struct TortureReport {
    /// All trial outcomes, in execution order.
    pub outcomes: Vec<TortureOutcome>,
    /// Wall-clock time of the whole campaign.
    pub elapsed: Duration,
}

impl TortureReport {
    /// Trials for which `pred` holds.
    pub fn count(&self, pred: impl Fn(&TortureOutcome) -> bool) -> usize {
        self.outcomes.iter().filter(|o| pred(o)).count()
    }

    /// At least one trial ran, and every trial met the contract.
    pub fn passed(&self) -> bool {
        !self.outcomes.is_empty() && self.outcomes.iter().all(TortureOutcome::passed)
    }
}

/// Runs `trials` seeded kill -9 trials against `picl serve run` children
/// of 1–5 sessions, rotating the three kill classes and varying the
/// workload and kill point per trial.
///
/// # Errors
///
/// Propagates harness (not oracle) failures from the first failing
/// trial.
pub fn run_torture_campaign(
    binary: &Path,
    scratch_dir: &Path,
    trials: u64,
    seed: u64,
) -> Result<TortureReport, String> {
    let mut rng = Rng::new(seed ^ 0x5E41_7E5E_5510_0000);
    let mut outcomes = Vec::new();
    let started = Instant::now();
    for t in 0..trials {
        let class = KillClass::for_trial(t);
        let trial_seed = rng.next_u64() & 0xFFFF;
        // Struct fields evaluate in source order, which fixes the draw
        // order a campaign seed replays.
        let victim = Victim {
            sessions: rng.range(1, 6) as usize,
            ops_per_session: rng.range(60, 160),
            key_space: rng.range(8, 17),
            ops_per_epoch: rng.range(3, 10),
        };
        let kill_after_commit = rng.range(1, 11);
        let spec = TortureSpec {
            binary: binary.to_path_buf(),
            store_path: scratch_dir.join(format!("serve-torture-{t}.store")),
            seed: trial_seed,
            victim,
            window: 1,
            kill_after_commit,
            class,
        };
        let outcome = run_trial(&spec).map_err(|e| format!("trial {t} ({}): {e}", class.name()))?;
        spec.remove_artifacts();
        outcomes.push(outcome);
    }
    Ok(TortureReport {
        outcomes,
        elapsed: started.elapsed(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use picl_serve::session::{Backend, ServeKv};
    use picl_serve::stream::session_model_after;
    use picl_store::layout::Geometry;
    use picl_store::workload::Op;
    use std::sync::Mutex;

    type CommitLog = Vec<(u64, Vec<u64>)>;

    const SERVE_OPS_PER_EPOCH: u64 = 7;

    fn serve(sessions: usize, ops_per_session: u64, key_space: u64) -> Victim {
        Victim {
            sessions,
            ops_per_session,
            ops_per_epoch: SERVE_OPS_PER_EPOCH,
            key_space,
        }
    }

    fn temp_store(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("picl-torture-judge-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        let _ = std::fs::remove_file(&path);
        path
    }

    fn create_medium(path: &Path, cfg: &EngineConfig) -> Arc<FileMedium> {
        let g = Geometry {
            lines: cfg.lines,
            log_blocks: cfg.log_blocks,
        };
        Arc::new(FileMedium::open(path, g.total_len()).unwrap())
    }

    /// Runs the seeded session streams through a real `ServeKv` — one
    /// thread per session when `concurrent`, else one session after
    /// another — commits the tail if `final_commit` (as `serve run`
    /// does), closes the store cleanly, and returns the commit lines its
    /// hook saw.
    fn serve_store(
        path: &Path,
        seed: u64,
        sessions: usize,
        ops_per_session: u64,
        key_space: u64,
        concurrent: bool,
        final_commit: bool,
    ) -> CommitLog {
        let cfg = EngineConfig::default();
        let medium = create_medium(path, &cfg);
        let (mut kv, _) =
            ServeKv::open(medium, cfg, Telemetry::off(), SERVE_OPS_PER_EPOCH, sessions).unwrap();
        let commits: Arc<Mutex<CommitLog>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&commits);
        kv.set_commit_hook(Box::new(move |eid, counts| {
            sink.lock().unwrap().push((eid, counts.to_vec()));
        }));
        let run = |sid: usize| {
            for op in session_ops(seed, sid, ops_per_session, key_space) {
                match &op {
                    Op::Put(k, v) => kv.put(sid, k, v).unwrap(),
                    Op::Delete(k) => kv.delete(sid, k).map(|_| ()).unwrap(),
                    Op::Get(k) => kv.get(sid, k).map(|_| ()).unwrap(),
                }
            }
        };
        if concurrent {
            let run = &run;
            std::thread::scope(|s| {
                for sid in 0..sessions {
                    s.spawn(move || run(sid));
                }
            });
        } else {
            (0..sessions).for_each(run);
        }
        if final_commit {
            kv.commit().unwrap();
        }
        kv.close().unwrap();
        let log = commits.lock().unwrap().clone();
        assert!(!log.is_empty(), "the run must cross epoch boundaries");
        log
    }

    #[test]
    fn commit_lines_parse() {
        assert_eq!(
            parse_commit_line("commit 7 ops 12,0,3\n"),
            Some((7, vec![12, 0, 3]))
        );
        assert_eq!(parse_commit_line("  commit 1 ops 5"), Some((1, vec![5])));
        assert_eq!(parse_commit_line("commit 7"), None, "ops field required");
        assert_eq!(parse_commit_line("commit 17\n"), None);
        assert_eq!(parse_commit_line("commit x ops 1"), None);
        assert_eq!(parse_commit_line("commit 7 ops 1,x"), None);
        assert_eq!(parse_commit_line("op 5"), None);
        assert_eq!(parse_commit_line(""), None);
    }

    #[test]
    fn kill_classes_rotate() {
        assert_eq!(KillClass::for_trial(0), KillClass::MidEpoch);
        assert_eq!(KillClass::for_trial(1), KillClass::Boundary);
        assert_eq!(KillClass::for_trial(2), KillClass::MidDrain);
        assert_eq!(KillClass::for_trial(3), KillClass::MidEpoch);
        assert_eq!(KillClass::MidDrain.name(), "mid-drain");
    }

    #[test]
    fn keys_map_to_their_sessions() {
        assert_eq!(serve(4, 1, 1).owner(b"s0-k001"), Some(0));
        assert_eq!(serve(4, 1, 1).owner(b"s3-k999"), Some(3));
        assert_eq!(serve(4, 1, 1).owner(b"s4-k000"), None, "out of range");
        assert_eq!(serve(16, 1, 1).owner(b"s12-k000"), Some(12));
        assert_eq!(serve(4, 1, 1).owner(b"key-0001"), None);
        assert_eq!(serve(4, 1, 1).owner(b"sx-k0"), None);
        assert_eq!(serve(1, 1, 1).owner(b"s1-k000"), None, "a lone session");

        // The split of a hand-built scan list fails on a key scanned twice
        // or a key no session owns.
        let split = |victim: Victim, keys: [&str; 2]| {
            let scan = keys.map(|k| (k.as_bytes().to_vec(), b"v".to_vec()));
            split_by_session(&victim, scan.to_vec())
        };
        let (slices, ok) = split(serve(2, 1, 1), ["s0-a", "s1-a"]);
        assert!(ok);
        assert_eq!((slices[0].len(), slices[1].len()), (1, 1));
        assert!(!split(serve(2, 1, 1), ["s0-a", "s0-a"]).1, "duplicate");
        assert!(!split(serve(2, 1, 1), ["s0-a", "s2-a"]).1, "foreign key");
        assert!(!split(serve(1, 1, 1), ["s0-a", "key-1"]).1, "unprefixed");
    }

    /// A lone session is judged at one exact op count, at the end of its
    /// stream as mid-stream.
    #[test]
    fn judgement_on_a_cleanly_closed_store() {
        let (seed, ops, key_space) = (5u64, 70u64, 10u64);
        let lone = serve(1, ops, key_space);
        let path = temp_store("clean.store");

        // Closed after the final commit: recovery holds the whole stream.
        let commits = serve_store(&path, seed, 1, ops, key_space, false, true);
        let j = judge_recovery(&path, seed, &lone, 1, &commits).unwrap();
        assert!(j.consistent && j.rpo_ok, "{j:?}");
        assert_eq!(j.recovered_to, commits.last().unwrap().0);
        assert_eq!(j.sessions_consistent, vec![true]);

        // Closed without it: the executing epoch is lost and recovery
        // lands on the last cadence commit, whose line carries exactly
        // the count the judge derives from the stream.
        std::fs::remove_file(&path).unwrap();
        let commits = serve_store(&path, seed, 1, ops, key_space, false, false);
        let j = judge_recovery(&path, seed, &lone, 1, &commits).unwrap();
        assert!(j.consistent && j.rpo_ok, "{j:?}");
        let stream = session_ops(seed, 0, ops, key_space);
        let n = ops_through_epoch(&stream, SERVE_OPS_PER_EPOCH, j.recovered_to);
        assert!(n < ops, "recovery landed mid-stream");
        assert_eq!(commits.last(), Some(&(j.recovered_to, vec![n])));

        // One point, not a range: a contract of one mutation fewer per
        // epoch puts the count earlier, where the model differs, and the
        // image must fail there even with no commit line to bound it.
        let shifted = Victim {
            ops_per_epoch: SERVE_OPS_PER_EPOCH - 1,
            ..lone
        };
        let earlier = ops_through_epoch(&stream, shifted.ops_per_epoch, j.recovered_to);
        let model = |n| session_model_after(seed, 0, n, key_space);
        assert_ne!(model(earlier), model(n));
        let j2 = judge_recovery(&path, seed, &shifted, 1, &[]).unwrap();
        assert!(!j2.consistent, "the wrong op count must fail");
        let _ = std::fs::remove_file(&path);
    }

    /// Sequential session streams make the store deterministic; the judge
    /// must accept it, and must not accept it vacuously.
    #[test]
    fn judgement_on_a_cleanly_closed_serve_store() {
        let path = temp_store("clean-serve.store");
        let (seed, sessions, ops_per_session, key_space) = (21u64, 3usize, 80u64, 10u64);
        let commits = serve_store(
            &path,
            seed,
            sessions,
            ops_per_session,
            key_space,
            false,
            true,
        );
        let victim = serve(sessions, ops_per_session, key_space);
        let j = judge_recovery(&path, seed, &victim, 1, &commits).unwrap();
        assert_eq!(
            j.recovered_to,
            commits.last().unwrap().0,
            "clean close loses nothing"
        );
        assert!(j.consistent, "verdicts: {:?}", j.sessions_consistent);
        assert!(j.rpo_ok);

        // An unsatisfiable lower bound (claiming a session ran further
        // than its whole stream) must fail that session.
        let mut impossible = commits.clone();
        if let Some((_, counts)) = impossible.last_mut() {
            counts[0] = ops_per_session + 1;
        }
        let j2 = judge_recovery(&path, seed, &victim, 1, &impossible).unwrap();
        assert!(
            !j2.sessions_consistent[0],
            "an unsatisfiable lower bound must fail"
        );

        // A stray key no session owns fails the trial even though every
        // session's slice still matches.
        let medium = Arc::new(FileMedium::open_existing(&path).unwrap());
        let (engine, _) = Engine::open(medium, EngineConfig::default(), Telemetry::off()).unwrap();
        slots::put(&engine, b"s9-k000", b"stray").unwrap();
        engine.commit_epoch().unwrap();
        engine.close().unwrap();
        let j3 = judge_recovery(&path, seed, &victim, 1, &commits).unwrap();
        assert!(j3.sessions_consistent.iter().all(|&ok| ok));
        assert!(!j3.consistent, "a foreign key must fail the trial");
        let _ = std::fs::remove_file(&path);
    }

    /// The same judge, but with the session streams running on real
    /// concurrent threads against the sharded write path — the
    /// interleaving is nondeterministic, group commits fire from
    /// whichever writer trips the cadence, and the hook's lower bounds
    /// must still let every session's recovered prefix be judged
    /// consistent.
    #[test]
    fn judgement_on_a_concurrently_written_serve_store() {
        let path = temp_store("concurrent.store");
        let (seed, sessions, ops_per_session, key_space) = (33u64, 4usize, 120u64, 12u64);
        let commits = serve_store(
            &path,
            seed,
            sessions,
            ops_per_session,
            key_space,
            true,
            true,
        );
        for pair in commits.windows(2) {
            assert!(pair[0].0 < pair[1].0, "commit eids must be ordered");
            for (a, b) in pair[0].1.iter().zip(&pair[1].1) {
                assert!(a <= b, "a session's lower bound regressed");
            }
        }
        let victim = serve(sessions, ops_per_session, key_space);
        let j = judge_recovery(&path, seed, &victim, 1, &commits).unwrap();
        assert!(j.consistent, "verdicts: {:?}", j.sessions_consistent);
        assert!(j.rpo_ok);
        let _ = std::fs::remove_file(&path);
    }
}
