//! `picl-campaign` — a fault-isolated, checkpointed, resumable batch
//! executor for experiment campaigns.
//!
//! The paper's evaluation is a large experiment matrix (29 benchmarks ×
//! 6 schemes, 8-core mixes, cache and latency sweeps). Before this crate,
//! both batch executors in the repo ran cells on bare scoped threads: one
//! panicking or hung cell aborted the whole batch and discarded every
//! completed report — an RPO of "everything", in a reproduction of a
//! crash-consistency paper. This executor gives campaigns the same
//! guarantees the simulated hardware gives memory:
//!
//! * **Fault isolation** — each cell runs under
//!   [`std::panic::catch_unwind`]; a panic becomes a per-cell
//!   [`CellOutcome::Failed`] instead of batch death.
//! * **A watchdog** — an optional per-cell wall-clock timeout
//!   ([`CampaignOptions::cell_timeout`]) turns a hung cell into
//!   [`CellOutcome::TimedOut`].
//! * **Durable checkpoints** — completed cells stream to a JSONL
//!   [`store::CheckpointStore`] keyed by a content hash of the cell spec;
//!   a re-launched campaign resumes and re-runs only missing or failed
//!   cells. Resumed results are bit-identical to an uninterrupted run
//!   (cells are deterministic; payload codecs round-trip exactly).
//! * **Progress** — a throttled stderr reporter (done/total, cells/sec,
//!   ETA, failures) replaces silent multi-minute runs.
//!
//! There is no retry: [`CampaignCell::execute`] is a pure function of the
//! cell, so a second attempt could only repeat the first one's panic.
//!
//! The executor is generic: `picl-sim` runs [`RunReport`] cells on it
//! (`run_experiments_with`), `picl-crashlab` runs crash trials, and the
//! `picl` CLI exposes it on `sweep` and `crashlab` as `--resume DIR`,
//! `--cell-timeout SECS`, and `--keep-going`.
//!
//! [`RunReport`]: https://docs.rs/picl-sim
//!
//! # Example
//!
//! ```
//! use picl_campaign::{run_cells, CampaignCell, CampaignOptions, CellPayload};
//!
//! #[derive(Clone)]
//! struct Square(u64);
//!
//! impl CampaignCell for Square {
//!     type Payload = u64;
//!     fn spec_string(&self) -> String {
//!         format!("square {}", self.0)
//!     }
//!     fn execute(&self) -> u64 {
//!         self.0 * self.0
//!     }
//! }
//!
//! let cells: Vec<Square> = (1..=4).map(Square).collect();
//! let run = run_cells(&cells, &CampaignOptions::default()).unwrap();
//! assert!(run.all_ok());
//! let squares: Vec<u64> = run.payloads().unwrap();
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! ```

pub mod json;
pub mod progress;
pub mod store;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use picl_telemetry::json::Value;
use progress::Progress;
use store::{CellKey, CheckpointStore, StoredStatus};

/// A result payload that can round-trip through the checkpoint store.
///
/// `encode` must emit one single-line JSON value and `decode(parse(encode))`
/// must reproduce the payload **bit-identically** — that equivalence is
/// what makes a resumed campaign's reports indistinguishable from an
/// uninterrupted run's.
pub trait CellPayload: Clone + Send + 'static {
    /// Encodes the payload as one single-line JSON value.
    fn encode(&self) -> String;

    /// Decodes a payload previously produced by [`CellPayload::encode`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed or missing field; the
    /// executor treats an undecodable checkpoint as a missing cell and
    /// re-runs it.
    fn decode(value: &Value) -> Result<Self, String>;
}

/// Primitive payload, handy for tests and simple counters.
impl CellPayload for u64 {
    fn encode(&self) -> String {
        self.to_string()
    }
    fn decode(value: &Value) -> Result<Self, String> {
        value.as_u64().ok_or_else(|| "expected a u64".into())
    }
}

/// One unit of batch work: a self-describing, deterministic cell.
///
/// Cells must be cheap to clone (the watchdog moves a clone into the
/// watchdog thread) and `execute` must be a pure function of the cell —
/// the resume contract assumes re-running a cell reproduces its payload.
pub trait CampaignCell: Clone + Send + Sync + 'static {
    /// The result this cell produces.
    type Payload: CellPayload;

    /// A canonical description of everything that determines the result
    /// (config, scheme, workload, seed, instructions). Content-hashed
    /// into the checkpoint key: two specs differing anywhere must return
    /// different strings.
    fn spec_string(&self) -> String;

    /// Short human-readable label for progress and failure reports.
    fn label(&self) -> String {
        let spec = self.spec_string();
        spec.chars().take(60).collect()
    }

    /// Runs the cell. May panic — the executor isolates it.
    fn execute(&self) -> Self::Payload;
}

/// Knobs for one campaign execution.
#[derive(Debug, Clone)]
pub struct CampaignOptions {
    /// Worker threads (0 = one per available core).
    pub threads: usize,
    /// Per-cell wall-clock timeout (None = no watchdog).
    pub cell_timeout: Option<Duration>,
    /// `true`: run every cell even after failures (record them per-cell).
    /// `false`: stop claiming new cells after the first failure; already
    /// running cells finish and are checkpointed.
    pub keep_going: bool,
    /// Checkpoint directory; `Some` enables the durable store and resume.
    pub checkpoint: Option<PathBuf>,
    /// Print progress lines to stderr.
    pub progress: bool,
}

impl Default for CampaignOptions {
    fn default() -> Self {
        CampaignOptions {
            threads: 0,
            cell_timeout: None,
            keep_going: true,
            checkpoint: None,
            progress: false,
        }
    }
}

/// What happened to one cell, in input order.
#[derive(Debug, Clone, PartialEq)]
pub enum CellOutcome<P> {
    /// Ran to completion in this launch.
    Done(P),
    /// Loaded from the checkpoint store (resume hit); not re-run.
    Cached(P),
    /// The cell panicked; the batch survived.
    Failed {
        /// The panic message.
        message: String,
    },
    /// The cell outlived the watchdog.
    TimedOut {
        /// The configured timeout.
        timeout: Duration,
    },
    /// Never claimed: an earlier failure aborted the campaign
    /// (`keep_going = false`).
    NotRun,
}

impl<P> CellOutcome<P> {
    /// The payload, when the cell completed (fresh or cached).
    pub fn payload(&self) -> Option<&P> {
        match self {
            CellOutcome::Done(p) | CellOutcome::Cached(p) => Some(p),
            _ => None,
        }
    }

    /// Consumes the outcome into its payload, if completed.
    pub fn into_payload(self) -> Option<P> {
        match self {
            CellOutcome::Done(p) | CellOutcome::Cached(p) => Some(p),
            _ => None,
        }
    }

    /// Whether the cell completed (fresh or cached).
    pub fn is_ok(&self) -> bool {
        matches!(self, CellOutcome::Done(_) | CellOutcome::Cached(_))
    }

    /// A short description of why the cell has no payload.
    pub fn failure_message(&self) -> Option<String> {
        match self {
            CellOutcome::Done(_) | CellOutcome::Cached(_) => None,
            CellOutcome::Failed { message } => Some(format!("failed: {message}")),
            CellOutcome::TimedOut { timeout } => {
                Some(format!("timed out after {:.1}s", timeout.as_secs_f64()))
            }
            CellOutcome::NotRun => Some("not run (campaign aborted early)".into()),
        }
    }
}

/// The folded result of one campaign launch.
#[derive(Debug)]
pub struct CampaignRun<P> {
    /// One outcome per input cell, in input order.
    pub outcomes: Vec<CellOutcome<P>>,
    /// Cells completed in this launch.
    pub done: usize,
    /// Cells served from the checkpoint store.
    pub cached: usize,
    /// Cells that panicked.
    pub failed: usize,
    /// Cells that outlived the watchdog.
    pub timed_out: usize,
    /// Cells never claimed (fail-fast abort).
    pub not_run: usize,
    /// Wall-clock duration of this launch.
    pub elapsed: Duration,
}

impl<P> CampaignRun<P> {
    /// Whether every cell has a payload.
    pub fn all_ok(&self) -> bool {
        self.failed == 0 && self.timed_out == 0 && self.not_run == 0
    }

    /// All payloads in input order, or an aggregate error naming every
    /// cell that has none.
    ///
    /// # Errors
    ///
    /// Returns one message listing each failed/timed-out/not-run cell.
    pub fn payloads(self) -> Result<Vec<P>, String> {
        let lines: Vec<String> = self
            .outcomes
            .iter()
            .enumerate()
            .filter_map(|(i, o)| o.failure_message().map(|m| format!("  cell #{i}: {m}")))
            .collect();
        if !lines.is_empty() {
            return Err(format!(
                "{} of {} cell(s) produced no result:\n{}",
                lines.len(),
                self.outcomes.len(),
                lines.join("\n")
            ));
        }
        Ok(self
            .outcomes
            .into_iter()
            .map(|o| o.into_payload().expect("checked above"))
            .collect())
    }
}

/// Runs `cell` once, isolated; with a timeout the cell runs on a
/// detached thread so the watchdog can give up on it. A timed-out thread
/// is abandoned (Rust threads cannot be killed); its eventual result is
/// discarded.
fn run_isolated<C: CampaignCell>(cell: &C, timeout: Option<Duration>) -> CellOutcome<C::Payload> {
    let failed = |panic: &(dyn std::any::Any + Send)| CellOutcome::Failed {
        message: panic_message(panic),
    };
    match timeout {
        None => match catch_unwind(AssertUnwindSafe(|| cell.execute())) {
            Ok(p) => CellOutcome::Done(p),
            Err(panic) => failed(panic.as_ref()),
        },
        Some(limit) => {
            let (tx, rx) = std::sync::mpsc::sync_channel(1);
            let clone = cell.clone();
            std::thread::spawn(move || {
                let result = catch_unwind(AssertUnwindSafe(|| clone.execute()));
                // The receiver may have given up; a send error is fine.
                let _ = tx.send(result);
            });
            match rx.recv_timeout(limit) {
                Ok(Ok(p)) => CellOutcome::Done(p),
                Ok(Err(panic)) => failed(panic.as_ref()),
                Err(_) => CellOutcome::TimedOut { timeout: limit },
            }
        }
    }
}

fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "cell panicked (non-string payload)".to_owned()
    }
}

/// Runs every cell under the campaign policy and returns outcomes in
/// input order. Deterministic: payloads are independent of thread count,
/// scheduling, and whether they were freshly run or resumed.
///
/// # Errors
///
/// Returns a message only for campaign-level problems (an unusable
/// checkpoint directory). Per-cell failures are *outcomes*, not errors.
pub fn run_cells<C: CampaignCell>(
    cells: &[C],
    opts: &CampaignOptions,
) -> Result<CampaignRun<C::Payload>, String> {
    let started = Instant::now();
    let keys: Vec<CellKey> = cells
        .iter()
        .map(|c| CellKey::of(&c.spec_string()))
        .collect();

    let mut store = match &opts.checkpoint {
        Some(dir) => Some(CheckpointStore::open(dir)?),
        None => None,
    };

    // Resume: serve every cell whose checkpoint decodes; queue the rest.
    let mut outcomes: Vec<Option<CellOutcome<C::Payload>>> = Vec::with_capacity(cells.len());
    let mut pending: Vec<usize> = Vec::new();
    for (i, key) in keys.iter().enumerate() {
        let cached = store.as_ref().and_then(|s| match s.lookup(*key) {
            Some(StoredStatus::Done(value)) => C::Payload::decode(value).ok(),
            _ => None,
        });
        match cached {
            Some(payload) => outcomes.push(Some(CellOutcome::Cached(payload))),
            None => {
                outcomes.push(None);
                pending.push(i);
            }
        }
    }
    let cached_count = cells.len() - pending.len();

    let progress = Progress::new(pending.len(), opts.progress);
    if let (Some(dir), true) = (&opts.checkpoint, cached_count > 0) {
        progress.announce_resume(cached_count, cells.len(), dir);
    }

    let workers = if opts.threads == 0 {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    } else {
        opts.threads
    }
    .min(pending.len().max(1));

    let next = AtomicUsize::new(0);
    let abort = AtomicBool::new(false);
    let results: Mutex<&mut Vec<Option<CellOutcome<C::Payload>>>> = Mutex::new(&mut outcomes);
    let shared_store = Mutex::new(store.as_mut());

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                if abort.load(Ordering::Relaxed) {
                    break;
                }
                let slot = next.fetch_add(1, Ordering::Relaxed);
                let Some(&idx) = pending.get(slot) else { break };
                let cell = &cells[idx];
                let key = keys[idx];
                let spec = cell.spec_string();

                let outcome = run_isolated(cell, opts.cell_timeout);

                // Checkpoint before publishing: a crash between the two
                // at worst re-runs one already-persisted cell.
                {
                    let mut guard = shared_store
                        .lock()
                        .unwrap_or_else(|poisoned| poisoned.into_inner());
                    if let Some(store) = guard.as_deref_mut() {
                        // Store I/O errors must not kill sibling cells;
                        // the cell's in-memory outcome is still returned.
                        let write = match &outcome {
                            CellOutcome::Done(p) => store.record_done(key, &spec, &p.encode()),
                            CellOutcome::Failed { message, .. } => {
                                store.record_failed(key, &spec, message)
                            }
                            CellOutcome::TimedOut { .. } => store.record_timeout(key, &spec),
                            CellOutcome::Cached(_) | CellOutcome::NotRun => Ok(()),
                        };
                        if let Err(e) = write {
                            eprintln!(
                                "campaign: checkpoint write failed for {}: {e}",
                                cell.label()
                            );
                        }
                    }
                }

                let ok = outcome.is_ok();
                if !ok {
                    if opts.progress {
                        eprintln!(
                            "campaign: cell {} {}",
                            cell.label(),
                            outcome.failure_message().unwrap_or_default()
                        );
                    }
                    if !opts.keep_going {
                        abort.store(true, Ordering::Relaxed);
                    }
                }
                results
                    .lock()
                    .unwrap_or_else(|poisoned| poisoned.into_inner())[idx] = Some(outcome);
                progress.cell_finished(ok);
            });
        }
    });

    let outcomes: Vec<CellOutcome<C::Payload>> = outcomes
        .into_iter()
        .map(|o| o.unwrap_or(CellOutcome::NotRun))
        .collect();

    let mut run = CampaignRun {
        done: 0,
        cached: 0,
        failed: 0,
        timed_out: 0,
        not_run: 0,
        elapsed: started.elapsed(),
        outcomes,
    };
    for o in &run.outcomes {
        match o {
            CellOutcome::Done(_) => run.done += 1,
            CellOutcome::Cached(_) => run.cached += 1,
            CellOutcome::Failed { .. } => run.failed += 1,
            CellOutcome::TimedOut { .. } => run.timed_out += 1,
            CellOutcome::NotRun => run.not_run += 1,
        }
    }
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A cell that squares, panics, or sleeps, per its spec.
    #[derive(Clone)]
    enum TestCell {
        Square(u64),
        Panic(&'static str),
        Sleep(u64),
    }

    impl CampaignCell for TestCell {
        type Payload = u64;
        fn spec_string(&self) -> String {
            match self {
                TestCell::Square(n) => format!("square {n}"),
                TestCell::Panic(msg) => format!("panic {msg}"),
                TestCell::Sleep(ms) => format!("sleep {ms}"),
            }
        }
        fn execute(&self) -> u64 {
            match self {
                TestCell::Square(n) => n * n,
                TestCell::Panic(msg) => panic!("{}", msg),
                TestCell::Sleep(ms) => {
                    std::thread::sleep(Duration::from_millis(*ms));
                    *ms
                }
            }
        }
    }

    #[test]
    fn ordering_is_preserved_across_threads() {
        let cells: Vec<TestCell> = (0..32).map(TestCell::Square).collect();
        let run = run_cells(
            &cells,
            &CampaignOptions {
                threads: 8,
                ..CampaignOptions::default()
            },
        )
        .unwrap();
        assert!(run.all_ok());
        assert_eq!(run.done, 32);
        let values = run.payloads().unwrap();
        assert_eq!(values, (0..32).map(|n| n * n).collect::<Vec<u64>>());
    }

    #[test]
    fn panicking_cell_is_isolated_and_siblings_complete() {
        let cells = vec![
            TestCell::Square(2),
            TestCell::Panic("injected fault"),
            TestCell::Square(3),
        ];
        let run = run_cells(&cells, &CampaignOptions::default()).unwrap();
        assert_eq!(run.done, 2);
        assert_eq!(run.failed, 1);
        assert_eq!(run.outcomes[0].payload(), Some(&4));
        assert_eq!(run.outcomes[2].payload(), Some(&9));
        match &run.outcomes[1] {
            CellOutcome::Failed { message } => {
                assert!(message.contains("injected fault"), "{message}");
            }
            other => panic!("unexpected: {other:?}"),
        }
        let err = run.payloads().unwrap_err();
        assert!(err.contains("cell #1"), "{err}");
    }

    #[test]
    fn fail_fast_aborts_later_cells_but_keeps_finished_ones() {
        // Single worker so ordering is fully serial and the abort is
        // observable deterministically.
        let cells = vec![
            TestCell::Square(2),
            TestCell::Panic("stop here"),
            TestCell::Square(3),
        ];
        let run = run_cells(
            &cells,
            &CampaignOptions {
                threads: 1,
                keep_going: false,
                ..CampaignOptions::default()
            },
        )
        .unwrap();
        assert_eq!(run.done, 1);
        assert_eq!(run.failed, 1);
        assert_eq!(run.not_run, 1);
        assert!(matches!(run.outcomes[2], CellOutcome::NotRun));
    }

    #[test]
    fn watchdog_trips_on_slow_cell() {
        let cells = vec![
            TestCell::Square(5),
            TestCell::Sleep(60_000),
            TestCell::Panic("watched fault"),
        ];
        let run = run_cells(
            &cells,
            &CampaignOptions {
                cell_timeout: Some(Duration::from_millis(50)),
                ..CampaignOptions::default()
            },
        )
        .unwrap();
        assert_eq!(run.done, 1);
        assert_eq!(run.timed_out, 1);
        assert!(matches!(run.outcomes[1], CellOutcome::TimedOut { .. }));
        // A panic on the watchdog's thread keeps its message.
        match &run.outcomes[2] {
            CellOutcome::Failed { message } => assert!(message.contains("watched fault")),
            other => panic!("unexpected: {other:?}"),
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("picl_campaign_exec_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn resume_skips_completed_cells_and_reruns_failed_ones() {
        let dir = temp_dir("resume");
        let opts = CampaignOptions {
            checkpoint: Some(dir.clone()),
            ..CampaignOptions::default()
        };

        // First launch: one cell fails.
        let first = vec![
            TestCell::Square(2),
            TestCell::Panic("flaky"),
            TestCell::Square(3),
        ];
        let run1 = run_cells(&first, &opts).unwrap();
        assert_eq!(run1.done, 2);
        assert_eq!(run1.failed, 1);

        // Second launch: same spec strings, but the failing cell is now
        // healthy (same spec string, different behavior — emulating a
        // transient fault).
        #[derive(Clone)]
        struct Healed(TestCell);
        impl CampaignCell for Healed {
            type Payload = u64;
            fn spec_string(&self) -> String {
                self.0.spec_string()
            }
            fn execute(&self) -> u64 {
                match &self.0 {
                    TestCell::Panic(_) => 777,
                    other => other.execute(),
                }
            }
        }
        let second: Vec<Healed> = first.iter().cloned().map(Healed).collect();
        let run2 = run_cells(&second, &opts).unwrap();
        assert_eq!(run2.cached, 2, "completed cells must not re-run");
        assert_eq!(run2.done, 1, "only the failed cell re-runs");
        assert_eq!(run2.outcomes[1].payload(), Some(&777));
        assert_eq!(run2.outcomes[0].payload(), Some(&4));
        assert_eq!(run2.outcomes[2].payload(), Some(&9));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resumed_payloads_are_bit_identical_to_uninterrupted() {
        let dir = temp_dir("identical");
        let cells: Vec<TestCell> = (0..10).map(TestCell::Square).collect();

        // Uninterrupted baseline.
        let baseline = run_cells(&cells, &CampaignOptions::default())
            .unwrap()
            .payloads()
            .unwrap();

        // Interrupted: first launch only sees a prefix (as if killed),
        // second launch resumes the full set.
        let opts = CampaignOptions {
            checkpoint: Some(dir.clone()),
            ..CampaignOptions::default()
        };
        run_cells(&cells[..4], &opts).unwrap();
        let resumed = run_cells(&cells, &opts).unwrap();
        assert_eq!(resumed.cached, 4);
        assert_eq!(resumed.done, 6);
        assert_eq!(resumed.payloads().unwrap(), baseline);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_campaign_is_a_noop() {
        let run = run_cells::<TestCell>(&[], &CampaignOptions::default()).unwrap();
        assert!(run.all_ok());
        assert!(run.outcomes.is_empty());
    }
}
