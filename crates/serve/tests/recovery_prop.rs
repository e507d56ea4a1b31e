//! Property: kill a one-session `ServeKv` at *every* persist-op boundary
//! of a seeded session stream; every death must recover to a
//! prefix-consistent epoch snapshot within the in-order-window RPO bound.
//!
//! "Prefix-consistent epoch snapshot" is the paper's §II guarantee made
//! executable: the recovered KV contents must equal the in-memory model
//! after exactly the ops the recovered epoch holds ([`ops_through_epoch`])
//! — never a torn mid-epoch state, never a reordering. The RPO bound is
//! §IV-A's window: `recovered_to >= last acknowledged commit - window`.
//!
//! The medium is `CountingMedium`, whose death drops every write not yet
//! fenced: the adversarial power-failure model a `kill -9` of a process
//! cannot reach.

use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use picl_serve::{ops_through_epoch, session_model_after, session_ops, Backend, ServeKv};
use picl_store::{
    apply_to_model, layout::Geometry, slots, CountingMedium, Engine, EngineConfig, Model, Op,
    PersistOps, PersistStats, StoreError,
};
use picl_telemetry::Telemetry;
use proptest::prelude::*;

const LINES: u32 = 64;
const LOG_BLOCKS: u32 = 32;
/// Few keys: each record spans up to five slots of the 64-line table.
const KEY_SPACE: u64 = 6;

const GEOMETRY: Geometry = Geometry {
    lines: LINES,
    log_blocks: LOG_BLOCKS,
};

fn cfg(window: u64) -> EngineConfig {
    EngineConfig {
        lines: LINES,
        log_blocks: LOG_BLOCKS,
        window,
        persist_stall_ms: 0,
    }
}

fn medium() -> Arc<CountingMedium> {
    Arc::new(CountingMedium::new(GEOMETRY.total_len()))
}

/// Sabotage: a medium that silently drops every persist into the undo
/// log region, so no drained entry ever becomes durable and a crash
/// cannot roll back an epoch's in-place writes.
struct LogDropping(Arc<CountingMedium>);

impl PersistOps for LogDropping {
    fn persist(&self, offset: u64, data: &[u8]) -> io::Result<()> {
        if offset >= GEOMETRY.log_slot_off(0) {
            return Ok(());
        }
        self.0.persist(offset, data)
    }

    fn fence(&self) -> io::Result<()> {
        self.0.fence()
    }

    fn read(&self, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        self.0.read(offset, buf)
    }

    fn len(&self) -> u64 {
        self.0.len()
    }

    fn stats(&self) -> PersistStats {
        self.0.stats()
    }
}

/// Serves session 0's stream on `m` until the medium dies (or the ops run
/// out, when the tail is committed as `serve run` does), then closes.
/// Returns the last commit the hook acknowledged.
fn serve_until_death(
    m: &Arc<CountingMedium>,
    cfg: EngineConfig,
    ops_per_epoch: u64,
    ops: &[Op],
    kill_at: Option<u64>,
    sabotage: bool,
) -> Result<u64, String> {
    let medium: Arc<dyn PersistOps> = if sabotage {
        Arc::new(LogDropping(Arc::clone(m)))
    } else {
        Arc::clone(m) as _
    };
    let (mut kv, _) = ServeKv::open(medium, cfg, Telemetry::off(), ops_per_epoch, 1)
        .map_err(|e| format!("open: {e}"))?;
    let acked = Arc::new(AtomicU64::new(0));
    let sink = Arc::clone(&acked);
    kv.set_commit_hook(Box::new(move |eid, _| sink.store(eid, Ordering::Release)));
    if let Some(op) = kill_at {
        m.kill_at_op(op);
    }
    let served = ops.iter().all(|op| {
        match op {
            Op::Put(k, v) => kv.put(0, k, v),
            Op::Delete(k) => kv.delete(0, k).map(|_| ()),
            Op::Get(k) => kv.get(0, k).map(|_| ()),
        }
        .is_ok()
    });
    let committed = if served {
        kv.commit().map(|_| ())
    } else {
        Ok(())
    };
    // The armed kill may fire during the final commit or close()'s
    // backlog drain — that is a crash-at-shutdown, not a harness error.
    match committed.and_then(|()| kv.close().map(|_| ())) {
        Err(_) if m.is_dead() => {}
        Err(e) => return Err(format!("clean shutdown: {e}")),
        Ok(()) => {}
    }
    Ok(acked.load(Ordering::Acquire))
}

/// One full kill-and-recover trial at medium-op index `kill_at`
/// (`None` = let the run finish cleanly). Returns an error message on
/// any oracle violation.
fn trial(
    seed: u64,
    count: u64,
    ops_per_epoch: u64,
    window: u64,
    kill_at: Option<u64>,
    sabotage: bool,
) -> Result<(), String> {
    let ops = session_ops(seed, 0, count, KEY_SPACE);
    let m = medium();
    let observed_commit =
        serve_until_death(&m, cfg(window), ops_per_epoch, &ops, kill_at, sabotage)?;
    let survivor = Arc::new(CountingMedium::from_image(m.surviving_image()));
    let (engine, report) = Engine::open(survivor, cfg(window), Telemetry::off())
        .map_err(|e| format!("recovery open: {e}"))?;
    let recovered_to = report.recovered_to;

    // RPO: at most `window` acknowledged epochs may be lost.
    if recovered_to + window < observed_commit {
        return Err(format!(
            "RPO violated: recovered to {recovered_to}, observed commit {observed_commit}, window {window}"
        ));
    }
    // Prefix consistency: recovered contents == the model at exactly the
    // recovered epoch boundary.
    let n = ops_through_epoch(&ops, ops_per_epoch, recovered_to);
    let want: Vec<(Vec<u8>, Vec<u8>)> = session_model_after(seed, 0, n, KEY_SPACE)
        .into_iter()
        .collect();
    let got = slots::scan(&engine).map_err(|e| format!("scan: {e}"))?;
    if got != want {
        return Err(format!(
            "state mismatch at recovered epoch {recovered_to} ({n} ops, kill_at {kill_at:?}): {} live keys, expected {}",
            got.len(),
            want.len()
        ));
    }
    Ok(())
}

/// Medium ops (persists + fences) a clean run of the trial issues.
fn clean_run_ops(seed: u64, count: u64, ops_per_epoch: u64, window: u64) -> u64 {
    let m = medium();
    let ops = session_ops(seed, 0, count, KEY_SPACE);
    serve_until_death(&m, cfg(window), ops_per_epoch, &ops, None, false).unwrap();
    m.stats().persists + m.stats().fences
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every persist-op boundary of a seeded run is a survivable crash
    /// point.
    #[test]
    fn every_kill_point_recovers_prefix_consistent(
        seed in 0u64..10_000,
        count in 24u64..56,
        ops_per_epoch in 1u64..6,
        window in 1u64..3,
    ) {
        let total_ops = clean_run_ops(seed, count, ops_per_epoch, window);
        prop_assert!(total_ops > 0);
        // Kill at every boundary (the persister interleaves differently
        // run to run, so each k probes a real, possibly novel, schedule).
        for k in 0..total_ops {
            if let Err(msg) = trial(seed, count, ops_per_epoch, window, Some(k), false) {
                return Err(TestCaseError::fail(format!("kill at op {k}/{total_ops}: {msg}")));
            }
        }
        // And the clean run recovers everything committed.
        if let Err(msg) = trial(seed, count, ops_per_epoch, window, None, false) {
            return Err(TestCaseError::fail(format!("clean run: {msg}")));
        }
    }
}

/// The oracle is not vacuous: a store whose undo log never becomes
/// durable (its medium drops every log persist) fails the
/// prefix-consistency check for some kill point.
#[test]
fn sabotaged_store_is_caught() {
    let (seed, count, ops_per_epoch) = (42, 48, 3);
    let total_ops = clean_run_ops(seed, count, ops_per_epoch, 1);
    // Caught by the prefix oracle itself, not by a harness error.
    let caught = (0..total_ops).any(|k| {
        matches!(trial(seed, count, ops_per_epoch, 1, Some(k), true),
            Err(msg) if msg.starts_with("state mismatch"))
    });
    assert!(
        caught,
        "no kill point caught the sabotaged (log-dropping) store"
    );
}

/// Deterministic spot-check of the oracle plumbing itself: at every
/// epoch boundary of a one-session stream, [`ops_through_epoch`] lands
/// just after the boundary's mutation, and the model there matches a
/// model built op by op.
#[test]
fn model_oracle_agrees_with_incremental_replay() {
    let (seed, ops_per_epoch) = (7, 4);
    let ops = session_ops(seed, 0, 60, KEY_SPACE);
    let mut model = Model::new();
    let mut mutations = 0;
    for (i, op) in ops.iter().enumerate() {
        apply_to_model(&mut model, op);
        if matches!(op, Op::Get(_)) {
            continue;
        }
        mutations += 1;
        if mutations % ops_per_epoch == 0 {
            let n = ops_through_epoch(&ops, ops_per_epoch, mutations / ops_per_epoch);
            assert_eq!(n, i as u64 + 1);
            assert_eq!(model, session_model_after(seed, 0, n, KEY_SPACE));
        }
    }
    assert!(mutations >= 2 * ops_per_epoch, "the stream spans epochs");
    // StoreError is part of the public surface the harness matches on.
    let e = StoreError::Io("x".into());
    assert!(e.to_string().contains("medium error"));
}
