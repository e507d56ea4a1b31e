//! The serving layer: many client sessions, one engine.
//!
//! [`ServeKv`] is the concurrent front-end over a [`picl_store::Engine`].
//! Mutations take one of N key-shard locks — the shard owning the key's
//! home line, reusing the engine's image sharding — so disjoint-key
//! writers proceed in parallel. A shard-confined writer only ever claims
//! free lines inside its own shard ([`slots::put_within`]); the rare
//! mutation that needs foreign lines (a spanning value overflowing its
//! shard, or an insert whose probe terminates elsewhere) escalates:
//! release, take *every* shard lock in index order, retry unconfined.
//! Lookups take *no* lock at all: they run the optimistic slot assembly
//! from [`picl_store::slots`] against the engine's sharded image, retry
//! on detected contention, and serialize against the key's shard lock
//! only if a writer keeps racing them.
//!
//! Epoch cadence is tracked by a global atomic mutation clock. The writer
//! whose mutation trips the cadence becomes the *group-commit leader*: it
//! acquires all shard locks (ordered, so it cannot deadlock against an
//! escalated writer), runs the engine's phase-one
//! [`picl_store::Engine::commit_epoch_async`] — publish the boundary,
//! hand dirty lines to the persister — and snapshots the per-session op
//! counters under that full exclusion, then *releases the shards before*
//! waiting out the in-order window (only when the window is actually
//! full). Followers run on into the next executing epoch while the
//! leader absorbs the rare persist stall; the engine's background
//! persister does its media I/O outside every lock throughout.
//!
//! Per-session completed-op counters feed the kill -9 oracle: the commit
//! hook reports, for each committed epoch, a safe lower bound of how far
//! each session's stream had executed. The bound survives sharding
//! because a mutation bumps its counters *inside* its shard critical
//! section and the leader snapshots while holding every shard lock — any
//! count the snapshot observes belongs to a mutation whose critical
//! section ended before the leader took the locks, hence before the
//! epoch boundary, hence inside the committed epoch. A parent that kills
//! the process judges the recovered store per session against those
//! bounds (see `picl-crashlab`'s serve mode).
//!
//! [`FsyncKv`] is the comparison baseline: the same slot table over a
//! plain file, with an `fdatasync` after every mutation and no undo log,
//! no epochs, and no crash-consistency story.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, RwLock};
use std::time::Instant;

use picl_store::engine::{Engine, EngineConfig, EngineStats, OpenReport, StoreError};
use picl_store::kv::KvPairs;
use picl_store::persist::PersistOps;
use picl_store::slots::{self, Deletion, Lines, Lookup, Placement};
use picl_telemetry::Telemetry;
use picl_types::LINE_BYTES;

use crate::obs::ServeObs;

const LINE: usize = LINE_BYTES as usize;

/// Optimistic lookup attempts before falling back to the shard lock.
const LOOKUP_RETRIES: usize = 64;

/// Preload puts per epoch commit. The serving cadence (often single-digit)
/// would pay one drain-and-fence commit stall every few keys; first-write-
/// per-line deduplication caps any epoch's undo traffic at `lines` entries,
/// which the validated log geometry always accommodates, so preload can
/// batch hundreds of puts into each epoch safely. The batch is kept
/// moderate on purpose: each preload epoch's dirty lines are what the
/// persister must retire before the in-order window reopens, so oversized
/// batches (thousands of multi-slot records) turn every preload commit
/// into a long window stall and dominate the commit-stall tail.
/// [`Backend::end_preload`] commits the tail so none of this batch debt
/// leaks into the timed phase.
pub const PRELOAD_BATCH: u64 = 256;

/// Called with every shard lock held after each epoch commit with
/// `(epoch id, per-session completed-op counts)`.
pub type CommitHook = Box<dyn Fn(u64, &[u64]) + Send + Sync>;

/// A KV backend the load harness can drive from many session threads.
pub trait Backend: Sync {
    /// Inserts or overwrites, attributed to `session`.
    ///
    /// # Errors
    ///
    /// Propagates store failures.
    fn put(&self, session: usize, key: &[u8], value: &[u8]) -> Result<(), StoreError>;
    /// Looks up, attributed to `session`.
    ///
    /// # Errors
    ///
    /// Propagates store failures.
    fn get(&self, session: usize, key: &[u8]) -> Result<Option<Vec<u8>>, StoreError>;
    /// Deletes if present, attributed to `session`.
    ///
    /// # Errors
    ///
    /// Propagates store failures.
    fn delete(&self, session: usize, key: &[u8]) -> Result<bool, StoreError>;
    /// Untimed bulk insert for the load phase (may relax per-op
    /// durability; [`FsyncKv`] skips its per-mutation fence here).
    ///
    /// # Errors
    ///
    /// Propagates store failures.
    fn preload(&self, key: &[u8], value: &[u8]) -> Result<(), StoreError>;
    /// Marks the preload/timed-phase boundary: settle whatever durability
    /// debt the relaxed [`Backend::preload`] path deferred, so the first
    /// timed-phase epoch (or fence) carries only timed-phase work.
    /// [`ServeKv`] commits the batched-epoch tail; [`FsyncKv`] issues the
    /// one fence it skipped per preload mutation.
    ///
    /// # Errors
    ///
    /// Propagates store failures.
    fn end_preload(&self) -> Result<(), StoreError> {
        Ok(())
    }
}

/// What a shard-confined mutation attempt decided.
enum Attempt<R> {
    /// Completed inside the shard.
    Done(R),
    /// Needs lines outside the shard; retry under every shard lock.
    Escalate,
}

/// How many contiguous line ranges the table is partitioned into for the
/// key-shard mutation locks ([`ServeKv::shard_of_line`]). The engine's
/// image takes no locks; sixteen keeps writer collisions rare at the
/// session counts a single store serves.
const KEY_SHARDS: usize = 16;

/// The concurrent serving front-end over one PiCL engine.
pub struct ServeKv {
    engine: Engine,
    mutations_per_epoch: u64,
    /// Key-shard mutation locks, one per contiguous line range of the
    /// table. A mutation holds the shard of its key's home line;
    /// cross-shard claims escalate to all locks in index order.
    shards: Vec<Mutex<()>>,
    /// Lines per key-shard range (the last range may be shorter).
    lines_per_shard: usize,
    /// Striped mutation counters, one per shard (contention-free stats;
    /// summed they equal total mutations executed).
    shard_mutations: Vec<AtomicU64>,
    /// Global mutation clock; the writer that trips the epoch cadence
    /// leads the group commit.
    mutations: AtomicU64,
    /// Preload-phase mutation clock ([`PRELOAD_BATCH`] cadence).
    preload_mutations: AtomicU64,
    /// Preload clock value already flushed by [`Backend::end_preload`]
    /// (makes the boundary flush idempotent).
    preload_flushed: AtomicU64,
    /// Mutations that needed every shard lock (cross-shard spanning
    /// allocations and foreign-probe inserts).
    escalations: AtomicU64,
    session_ops: Vec<AtomicU64>,
    commit_hook: Option<CommitHook>,
    /// Highest epoch acknowledged through the commit hook. Leaders ack
    /// strictly in eid order, and only after their in-order-window wait:
    /// an acknowledged epoch is therefore always within `window` of the
    /// durable frontier, which is the RPO bound the crash oracle holds a
    /// streamed `commit <eid>` line to.
    acked: Mutex<u64>,
    acked_cv: Condvar,
    /// Serving-layer instruments; `None` until [`ServeKv::enable_obs`].
    /// Hot paths gate every timer and record on this option, so the
    /// metrics-off cost is one branch per op.
    obs: Option<Arc<ServeObs>>,
}

impl std::fmt::Debug for ServeKv {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeKv")
            .field("sessions", &self.session_ops.len())
            .field("shards", &self.shards.len())
            .field("mutations_per_epoch", &self.mutations_per_epoch)
            .finish_non_exhaustive()
    }
}

impl ServeKv {
    /// Opens a store for serving. Epochs close every
    /// `mutations_per_epoch` *mutations* (lookups are lock-free and do
    /// not advance the epoch clock).
    ///
    /// # Errors
    ///
    /// Propagates engine open/recovery failures; rejects a zero epoch
    /// cadence or zero sessions.
    pub fn open(
        medium: Arc<dyn PersistOps>,
        cfg: EngineConfig,
        telemetry: Telemetry,
        mutations_per_epoch: u64,
        sessions: usize,
    ) -> Result<(ServeKv, OpenReport), StoreError> {
        if mutations_per_epoch == 0 {
            return Err(StoreError::Config(
                "mutations_per_epoch must be >= 1".into(),
            ));
        }
        if sessions == 0 {
            return Err(StoreError::Config("need at least one session".into()));
        }
        let (engine, report) = Engine::open(medium, cfg, telemetry)?;
        let lines = engine.geometry().lines as usize;
        let shard_count = KEY_SHARDS.min(lines);
        let (_, committed, _) = engine.frontiers();
        Ok((
            ServeKv {
                engine,
                mutations_per_epoch,
                shards: (0..shard_count).map(|_| Mutex::new(())).collect(),
                lines_per_shard: lines.div_ceil(KEY_SHARDS),
                shard_mutations: (0..shard_count).map(|_| AtomicU64::new(0)).collect(),
                mutations: AtomicU64::new(0),
                preload_mutations: AtomicU64::new(0),
                preload_flushed: AtomicU64::new(0),
                escalations: AtomicU64::new(0),
                session_ops: (0..sessions).map(|_| AtomicU64::new(0)).collect(),
                commit_hook: None,
                acked: Mutex::new(committed),
                acked_cv: Condvar::new(),
                obs: None,
            },
            report,
        ))
    }

    /// Installs the per-commit hook (before the store is shared).
    pub fn set_commit_hook(&mut self, hook: CommitHook) {
        self.commit_hook = Some(hook);
    }

    /// Attaches live metrics (before the store is shared): registers the
    /// serving-layer instruments and the engine's persister/pipeline
    /// instruments into `registry`. Per-op timers run on the default
    /// 1-in-[`crate::obs::DEFAULT_SAMPLE_EVERY`] sample; counters are
    /// exact.
    pub fn enable_obs(&mut self, registry: &picl_obs::MetricsRegistry) {
        self.enable_obs_sampled(registry, crate::obs::DEFAULT_SAMPLE_EVERY);
    }

    /// [`ServeKv::enable_obs`] with an explicit timing-sample rate
    /// (a power of two; 1 times every op — deterministic, for tests).
    pub fn enable_obs_sampled(&mut self, registry: &picl_obs::MetricsRegistry, every: u64) {
        self.engine.enable_obs(registry);
        self.obs = Some(Arc::new(ServeObs::register(
            registry,
            self.shards.len(),
            every,
        )));
    }

    /// The underlying engine (frontiers, stats).
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// How many key-shard mutation locks this store runs with.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Mutations executed per shard (striped counters, lock-free reads).
    pub fn shard_mutation_counts(&self) -> Vec<u64> {
        self.shard_mutations
            .iter()
            .map(|c| c.load(Ordering::Acquire))
            .collect()
    }

    /// Mutations that escalated to all shard locks.
    pub fn escalation_count(&self) -> u64 {
        self.escalations.load(Ordering::Acquire)
    }

    /// Completed operations per session (monotone, lock-free reads).
    pub fn session_counts(&self) -> Vec<u64> {
        self.session_ops
            .iter()
            .map(|c| c.load(Ordering::Acquire))
            .collect()
    }

    fn bump(&self, session: usize) {
        self.session_ops[session].fetch_add(1, Ordering::Release);
    }

    /// Which key shard owns `line`.
    ///
    /// # Panics
    ///
    /// Panics if `line` is out of range.
    pub fn shard_of_line(&self, line: u32) -> usize {
        assert!(line < self.engine.geometry().lines, "line out of range");
        line as usize / self.lines_per_shard
    }

    /// The `[start, end)` line range owned by `shard` (empty for the
    /// trailing shards of a table smaller than the shard count).
    fn shard_span(&self, shard: usize) -> (u32, u32) {
        let lines = self.engine.geometry().lines as usize;
        let per = self.lines_per_shard;
        let start = (shard * per).min(lines);
        let end = ((shard + 1) * per).min(lines);
        (start as u32, end as u32)
    }

    fn shard_of(&self, key: &[u8]) -> usize {
        self.shard_of_line(slots::home_line(self.engine.geometry().lines, key))
    }

    fn lock_shard(&self, shard: usize) -> MutexGuard<'_, ()> {
        self.shards[shard].lock().expect("serve shard poisoned")
    }

    /// Every shard lock, acquired in index order — the one global order
    /// shared with escalated writers, so leaders and escalations cannot
    /// deadlock.
    fn lock_all(&self) -> Vec<MutexGuard<'_, ()>> {
        self.shards
            .iter()
            .map(|m| m.lock().expect("serve shard poisoned"))
            .collect()
    }

    /// Group-commit leader path: closes the executing epoch. All shard
    /// locks are held across the engine's phase-one commit and the
    /// counter snapshot (the oracle's lower-bound rule), then released
    /// before the in-order-window wait so followers continue into the
    /// next executing epoch while the leader absorbs the stall.
    ///
    /// The commit hook fires only *after* the window wait, and strictly
    /// in eid order across pipelined leaders: an acknowledged epoch is
    /// always within `window` of the durable frontier (the counts it
    /// carries are still the boundary snapshot). Acknowledging at the
    /// boundary instead would let a crash during the wait lose more
    /// epochs than the RPO bound admits to an observer of the hook.
    ///
    /// With metrics on, the commit's own cost is recorded in two parts:
    /// the phase-one boundary publish (timed once the shard locks are
    /// held, so not the queueing behind in-flight mutations) and any
    /// in-order-window wait. The ack sequencing behind earlier leaders is
    /// timed separately.
    fn lead_commit(&self) -> Result<u64, StoreError> {
        let obs = self.obs.as_deref();
        let (ticket, counts) = {
            let _all = self.lock_all();
            let t0 = obs.map(|_| Instant::now());
            let ticket = self.engine.commit_epoch_async()?;
            let counts = self.commit_hook.is_some().then(|| self.session_counts());
            if let (Some(o), Some(t0)) = (obs, t0) {
                o.commit_publish_ns.record(t0.elapsed().as_nanos() as u64);
            }
            (ticket, counts)
        };
        let waited = if ticket.window_full {
            let w0 = obs.map(|_| Instant::now());
            let waited = self.engine.wait_window(ticket);
            if let (Some(o), Some(w0)) = (obs, w0) {
                o.commit_window_ns.record(w0.elapsed().as_nanos() as u64);
            }
            waited
        } else {
            Ok(())
        };
        {
            // Take the ack turn even on a dead engine — skipping it would
            // wedge every later leader behind a hole in the eid sequence.
            let a0 = obs.map(|_| Instant::now());
            let mut acked = self.acked.lock().expect("ack sequencer poisoned");
            while *acked + 1 != ticket.eid {
                acked = self.acked_cv.wait(acked).expect("ack sequencer poisoned");
            }
            if let (Some(o), Some(a0)) = (obs, a0) {
                o.commit_ack_wait_ns.record(a0.elapsed().as_nanos() as u64);
            }
            if waited.is_ok() {
                if let (Some(hook), Some(counts)) = (&self.commit_hook, &counts) {
                    hook(ticket.eid, counts);
                }
            }
            *acked = ticket.eid;
            self.acked_cv.notify_all();
        }
        waited?;
        Ok(ticket.eid)
    }

    /// Commits the executing epoch now (end-of-run flush, or a manual
    /// boundary).
    ///
    /// # Errors
    ///
    /// Propagates engine failures.
    pub fn commit(&self) -> Result<u64, StoreError> {
        self.lead_commit()
    }

    /// Runs one mutation under its key-shard lock (escalating to all
    /// locks when the op needs foreign lines), counts it on `clock`, and
    /// leads a group commit when the count trips `cadence`. Returns the
    /// op's result and whether it escalated.
    fn mutate_counted<R>(
        &self,
        session: usize,
        key: &[u8],
        clock: &AtomicU64,
        cadence: u64,
        op: impl Fn(&Engine, Option<(u32, u32)>) -> Result<Attempt<R>, StoreError>,
    ) -> Result<(R, bool), StoreError> {
        let shard = self.shard_of(key);
        let obs = self.obs.as_deref();
        let (out, count, escalated) = {
            // One sampling decision covers the wait and hold timers, so
            // a sampled mutation is timed end to end.
            let waited = obs.and_then(ServeObs::sample_timer);
            let guard = self.lock_shard(shard);
            let held = waited.map(|_| obs.expect("sampled implies obs").clock.now());
            if let (Some(o), Some(w), Some(h)) = (obs, waited, held) {
                o.shard_lock_wait_ns.record(o.clock.ns_between(w, h));
            }
            match op(&self.engine, Some(self.shard_span(shard)))? {
                Attempt::Done(out) => {
                    // Count while still holding the lock: a completed
                    // op's mutation is always included in any commit
                    // whose leader-held snapshot observes the count —
                    // exactly the lower-bound property the crash oracle
                    // needs.
                    self.shard_mutations[shard].fetch_add(1, Ordering::Relaxed);
                    self.bump(session);
                    let count = clock.fetch_add(1, Ordering::AcqRel) + 1;
                    if let Some(o) = obs {
                        o.shard_ops[shard].inc();
                        if let Some(h) = held {
                            // Scaled by the sample rate, so the counter's
                            // total stays an unbiased hold-time estimate.
                            o.shard_lock_hold_ns[shard]
                                .add(o.clock.elapsed_ns(h) * o.sample_every());
                        }
                    }
                    drop(guard);
                    (out, count, false)
                }
                Attempt::Escalate => {
                    // Release first: an escalated writer acquires the
                    // locks in index order from a clean slate, the same
                    // order the leader uses.
                    drop(guard);
                    let all = self.lock_all();
                    let held = waited.map(|_| obs.expect("sampled implies obs").clock.now());
                    self.escalations.fetch_add(1, Ordering::Relaxed);
                    let out = match op(&self.engine, None)? {
                        Attempt::Done(out) => out,
                        Attempt::Escalate => {
                            unreachable!("unconfined mutations never escalate")
                        }
                    };
                    self.shard_mutations[shard].fetch_add(1, Ordering::Relaxed);
                    self.bump(session);
                    let count = clock.fetch_add(1, Ordering::AcqRel) + 1;
                    if let Some(o) = obs {
                        o.escalations.inc();
                        o.shard_ops[shard].inc();
                        if let Some(h) = held {
                            o.shard_lock_hold_ns[shard]
                                .add(o.clock.elapsed_ns(h) * o.sample_every());
                        }
                    }
                    drop(all);
                    (out, count, true)
                }
            }
        };
        // Lead outside every shard lock: the leader re-acquires them all.
        if count.is_multiple_of(cadence) {
            self.lead_commit()?;
        }
        Ok((out, escalated))
    }

    fn mutate<R>(
        &self,
        session: usize,
        key: &[u8],
        op: impl Fn(&Engine, Option<(u32, u32)>) -> Result<Attempt<R>, StoreError>,
    ) -> Result<(R, bool), StoreError> {
        self.mutate_counted(session, key, &self.mutations, self.mutations_per_epoch, op)
    }

    /// All live pairs, sorted (takes every shard lock; not for hot
    /// paths).
    ///
    /// # Errors
    ///
    /// Propagates engine failures.
    pub fn scan(&self) -> Result<KvPairs, StoreError> {
        let _all = self.lock_all();
        slots::scan(&self.engine)
    }

    /// Closes the store (persists the committed backlog; the executing
    /// epoch's work stays volatile, as a crash would leave it).
    ///
    /// # Errors
    ///
    /// Propagates engine failures.
    pub fn close(self) -> Result<EngineStats, StoreError> {
        self.engine.close()
    }
}

/// Optimistic lookup with bounded retries, then one serialized retry
/// *under* the guard `fallback` returns (any guard that excludes the
/// key's writer). With the writer excluded the record cannot be
/// mid-mutation, so the serialized attempt is authoritative: a healthy
/// record is returned, and only a *still*-torn record is reported as
/// `Corrupt`. The flag in the result says whether the lookup had to
/// fall back to the serialized retry (the contended outcome).
fn lookup_with_fallback<L: Lines, G>(
    store: &L,
    key: &[u8],
    fallback: impl FnOnce() -> G,
) -> Result<(Option<Vec<u8>>, bool), StoreError> {
    for _ in 0..LOOKUP_RETRIES {
        match slots::lookup(store, key)? {
            Lookup::Found { value, .. } => return Ok((Some(value), false)),
            Lookup::Missing { .. } => return Ok((None, false)),
            Lookup::Contended => std::hint::spin_loop(),
        }
    }
    // A writer kept racing this record; serialize against it once and
    // re-run the lookup while the guard is held.
    let _guard = fallback();
    match slots::lookup(store, key)? {
        Lookup::Found { value, .. } => Ok((Some(value), true)),
        Lookup::Missing { .. } => Ok((None, true)),
        Lookup::Contended => Err(StoreError::Corrupt(
            "record stayed torn with the writer excluded".into(),
        )),
    }
}

impl Backend for ServeKv {
    fn put(&self, session: usize, key: &[u8], value: &[u8]) -> Result<(), StoreError> {
        let t0 = self.obs.as_deref().and_then(ServeObs::sample_timer);
        let ((), escalated) = self.mutate(session, key, |engine, range| {
            Ok(match slots::put_within(engine, key, value, range)? {
                Placement::Done(_) => Attempt::Done(()),
                Placement::Escalate => Attempt::Escalate,
            })
        })?;
        if let (Some(obs), Some(t0)) = (&self.obs, t0) {
            let h = if escalated {
                &obs.put_escalated
            } else {
                &obs.put_ok
            };
            h.record(obs.clock.elapsed_ns(t0));
        }
        Ok(())
    }

    fn get(&self, session: usize, key: &[u8]) -> Result<Option<Vec<u8>>, StoreError> {
        let t0 = self.obs.as_deref().and_then(ServeObs::sample_timer);
        // The key's shard lock excludes every writer that could mutate
        // this record (escalated writers hold all shards), so it is a
        // sufficient fallback guard.
        let (out, fell_back) =
            lookup_with_fallback(&self.engine, key, || self.lock_shard(self.shard_of(key)))?;
        self.bump(session);
        if let (Some(obs), Some(t0)) = (&self.obs, t0) {
            let h = if fell_back {
                &obs.get_contended
            } else if out.is_some() {
                &obs.get_hit
            } else {
                &obs.get_miss
            };
            h.record(obs.clock.elapsed_ns(t0));
        }
        Ok(out)
    }

    fn delete(&self, session: usize, key: &[u8]) -> Result<bool, StoreError> {
        let t0 = self.obs.as_deref().and_then(ServeObs::sample_timer);
        let (deleted, _) = self.mutate(session, key, |engine, _| {
            // Deletes only tombstone lines the record already owns, which
            // is safe from any shard's critical section.
            Ok(Attempt::Done(matches!(
                slots::delete(engine, key)?,
                Deletion::Deleted { .. }
            )))
        })?;
        if let (Some(obs), Some(t0)) = (&self.obs, t0) {
            let h = if deleted {
                &obs.delete_deleted
            } else {
                &obs.delete_missing
            };
            h.record(obs.clock.elapsed_ns(t0));
        }
        Ok(deleted)
    }

    fn preload(&self, key: &[u8], value: &[u8]) -> Result<(), StoreError> {
        // Same sharded put path, attributed to session 0, but on the
        // batched [`PRELOAD_BATCH`] epoch cadence: commits still happen
        // (the undo log needs them to recycle), just thousands of keys
        // apart instead of every few mutations.
        self.mutate_counted(
            0,
            key,
            &self.preload_mutations,
            PRELOAD_BATCH,
            |engine, range| {
                Ok(match slots::put_within(engine, key, value, range)? {
                    Placement::Done(_) => Attempt::Done(()),
                    Placement::Escalate => Attempt::Escalate,
                })
            },
        )
        .map(|(out, _)| out)
    }

    fn end_preload(&self) -> Result<(), StoreError> {
        // Commit the preload tail (anything since the last PRELOAD_BATCH
        // boundary) so the first timed-phase epoch carries only
        // timed-phase undo entries. Idempotent: an already-flushed clock
        // value (or a batch-aligned one) owes nothing.
        let count = self.preload_mutations.load(Ordering::Acquire);
        if !count.is_multiple_of(PRELOAD_BATCH)
            && self.preload_flushed.swap(count, Ordering::AcqRel) != count
        {
            self.lead_commit()?;
        }
        Ok(())
    }
}

/// The fdatasync-only baseline: the same slot table over a flat file,
/// one fence per mutation, no undo log, no epochs, no recovery. What a
/// legacy store does when you bolt durability on without PiCL.
pub struct FsyncKv {
    medium: Arc<dyn PersistOps>,
    lines: u32,
    image: RwLock<Vec<u8>>,
    /// Serializes mutations (and their fences).
    table: Mutex<()>,
}

impl std::fmt::Debug for FsyncKv {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FsyncKv")
            .field("lines", &self.lines)
            .finish_non_exhaustive()
    }
}

impl FsyncKv {
    /// Opens the baseline over `medium`, formatting `lines` empty slots
    /// (the baseline has no recovery story to preserve).
    ///
    /// # Errors
    ///
    /// Rejects a medium smaller than the table.
    pub fn open(medium: Arc<dyn PersistOps>, lines: u32) -> Result<FsyncKv, StoreError> {
        if lines == 0 {
            return Err(StoreError::Config("need at least one line".into()));
        }
        let needed = u64::from(lines) * LINE as u64;
        if medium.len() < needed {
            return Err(StoreError::Config(format!(
                "medium of {} bytes is too small for {lines} lines ({needed})",
                medium.len()
            )));
        }
        Ok(FsyncKv {
            medium,
            lines,
            image: RwLock::new(vec![0u8; lines as usize * LINE]),
            table: Mutex::new(()),
        })
    }

    fn fence(&self) -> Result<(), StoreError> {
        self.medium
            .fence()
            .map_err(|e| StoreError::Io(e.to_string()))
    }

    /// All live pairs, sorted.
    ///
    /// # Errors
    ///
    /// Propagates medium failures.
    pub fn scan(&self) -> Result<KvPairs, StoreError> {
        let _table = self.table.lock().expect("fsync table poisoned");
        slots::scan(self)
    }
}

impl Lines for FsyncKv {
    fn line_count(&self) -> u32 {
        self.lines
    }

    fn read_slot(&self, line: u32) -> Result<[u8; LINE], StoreError> {
        let image = self.image.read().expect("fsync image poisoned");
        let at = line as usize * LINE;
        let mut out = [0u8; LINE];
        out.copy_from_slice(&image[at..at + LINE]);
        Ok(out)
    }

    fn write_slot(&self, line: u32, data: &[u8; LINE]) -> Result<(), StoreError> {
        {
            let mut image = self.image.write().expect("fsync image poisoned");
            let at = line as usize * LINE;
            image[at..at + LINE].copy_from_slice(data);
        }
        self.medium
            .persist(u64::from(line) * LINE as u64, data)
            .map_err(|e| StoreError::Io(e.to_string()))
    }
}

impl Backend for FsyncKv {
    fn put(&self, _session: usize, key: &[u8], value: &[u8]) -> Result<(), StoreError> {
        let _table = self.table.lock().expect("fsync table poisoned");
        slots::put(self, key, value)?;
        self.fence()
    }

    fn get(&self, _session: usize, key: &[u8]) -> Result<Option<Vec<u8>>, StoreError> {
        lookup_with_fallback(self, key, || {
            self.table.lock().expect("fsync table poisoned")
        })
        .map(|(out, _)| out)
    }

    fn delete(&self, _session: usize, key: &[u8]) -> Result<bool, StoreError> {
        let _table = self.table.lock().expect("fsync table poisoned");
        let deleted = matches!(slots::delete(self, key)?, Deletion::Deleted { .. });
        self.fence()?;
        Ok(deleted)
    }

    fn preload(&self, key: &[u8], value: &[u8]) -> Result<(), StoreError> {
        let _table = self.table.lock().expect("fsync table poisoned");
        slots::put(self, key, value).map(|_| ())
    }

    fn end_preload(&self) -> Result<(), StoreError> {
        // One fence settles every preload put this backend skipped the
        // per-mutation fence for.
        self.fence()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use picl_store::layout::Geometry;
    use picl_store::persist::CountingMedium;
    use picl_types::stats::Histogram;

    fn open_serve(sessions: usize, mutations_per_epoch: u64) -> (ServeKv, Arc<CountingMedium>) {
        let cfg = EngineConfig {
            lines: 256,
            log_blocks: 64,
            ..EngineConfig::default()
        };
        let g = Geometry {
            lines: cfg.lines,
            log_blocks: cfg.log_blocks,
        };
        let medium = Arc::new(CountingMedium::new(g.total_len()));
        let (kv, _) = ServeKv::open(
            Arc::clone(&medium) as _,
            cfg,
            Telemetry::off(),
            mutations_per_epoch,
            sessions,
        )
        .unwrap();
        (kv, medium)
    }

    #[test]
    fn shard_spans_tile_the_table() {
        let (kv, _) = open_serve(1, 4);
        let lines = kv.engine().geometry().lines;
        let mut next = 0u32;
        for shard in 0..kv.shard_count() {
            let (start, end) = kv.shard_span(shard);
            assert_eq!(start, next, "spans must tile contiguously");
            assert!(end >= start);
            for line in start..end {
                assert_eq!(kv.shard_of_line(line), shard);
            }
            next = end;
        }
        assert_eq!(next, lines, "spans must cover every line");
        kv.close().unwrap();
    }

    #[test]
    fn sessions_share_one_table() {
        let (kv, _) = open_serve(2, 4);
        kv.put(0, b"from-zero", b"a").unwrap();
        kv.put(1, b"from-one", b"b").unwrap();
        assert_eq!(kv.get(1, b"from-zero").unwrap(), Some(b"a".to_vec()));
        assert_eq!(kv.get(0, b"from-one").unwrap(), Some(b"b".to_vec()));
        assert!(kv.delete(0, b"from-one").unwrap());
        assert_eq!(kv.get(1, b"from-one").unwrap(), None);
        assert_eq!(kv.session_counts(), vec![3, 3]);
        assert_eq!(kv.shard_mutation_counts().iter().sum::<u64>(), 3);
    }

    #[test]
    fn concurrent_sessions_settle_consistently() {
        // N writer sessions hammer disjoint keys while a reader session
        // spins lock-free lookups; the final scan must match the sum of
        // what the writers wrote.
        let (kv, _) = open_serve(4, 8);
        let per_session = 50u64;
        std::thread::scope(|s| {
            for sid in 0..3usize {
                let kv = &kv;
                s.spawn(move || {
                    for i in 0..per_session {
                        let key = format!("s{sid}-k{:02}", i % 10);
                        let val = format!("v{sid}-{i:03}-{}", "x".repeat((i as usize * 7) % 150));
                        kv.put(sid, key.as_bytes(), val.as_bytes()).unwrap();
                        if i % 7 == 0 {
                            kv.delete(sid, key.as_bytes()).unwrap();
                        }
                    }
                });
            }
            let kv = &kv;
            s.spawn(move || {
                for i in 0..200u64 {
                    let key = format!("s{}-k{:02}", i % 3, i % 10);
                    // Any consistent answer is fine; torn reads are not.
                    let _ = kv.get(3, key.as_bytes()).unwrap();
                }
            });
        });
        kv.commit().unwrap();
        let pairs = kv.scan().unwrap();
        for (k, v) in &pairs {
            let k = String::from_utf8_lossy(k);
            let v = String::from_utf8_lossy(v);
            assert!(v.starts_with(&format!("v{}", &k[1..2])), "{k} -> {v}");
        }
        let counts = kv.session_counts();
        assert!(counts[..3].iter().all(|&c| c >= per_session));
        assert_eq!(counts[3], 200);
        kv.close().unwrap();
    }

    #[test]
    fn commit_hook_reports_monotone_lower_bounds() {
        let (mut kv, _) = open_serve(2, 2);
        type CommitLog = Vec<(u64, Vec<u64>)>;
        let seen: Arc<Mutex<CommitLog>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        kv.set_commit_hook(Box::new(move |eid, counts| {
            sink.lock().unwrap().push((eid, counts.to_vec()));
        }));
        for i in 0..8u32 {
            kv.put((i % 2) as usize, format!("k{i}").as_bytes(), b"v")
                .unwrap();
        }
        let seen = seen.lock().unwrap();
        assert_eq!(seen.len(), 4, "8 mutations at cadence 2");
        let mut last_eid = 0;
        let mut last_total = 0;
        for (eid, counts) in seen.iter() {
            assert!(*eid > last_eid);
            let total: u64 = counts.iter().sum();
            assert!(total >= last_total, "counts are monotone");
            last_eid = *eid;
            last_total = total;
        }
    }

    #[test]
    fn spanning_values_escalate_across_shards_correctly() {
        // 64 lines over 16 shards = 4 lines per shard; a 255-byte value
        // needs 5 slots, so every spanning put must escalate and still
        // land correctly.
        let cfg = EngineConfig {
            lines: 64,
            log_blocks: 32,
            ..EngineConfig::default()
        };
        let g = Geometry {
            lines: cfg.lines,
            log_blocks: cfg.log_blocks,
        };
        let medium = Arc::new(CountingMedium::new(g.total_len()));
        let (kv, _) = ServeKv::open(medium, cfg, Telemetry::off(), 8, 1).unwrap();
        assert_eq!(kv.shard_count(), 16);
        let big = vec![0xAB_u8; 255];
        for i in 0..4u32 {
            kv.put(0, format!("span{i}").as_bytes(), &big).unwrap();
        }
        assert!(
            kv.escalation_count() >= 4,
            "4-line shards cannot hold a 5-slot record without escalating"
        );
        for i in 0..4u32 {
            assert_eq!(
                kv.get(0, format!("span{i}").as_bytes()).unwrap(),
                Some(big.clone())
            );
        }
        assert_eq!(kv.scan().unwrap().len(), 4);
        kv.close().unwrap();
    }

    /// A `Lines` whose reads of one record stay torn (version-skewed)
    /// until the fallback guard is taken — deterministic reproduction of
    /// a writer that outruns every optimistic retry.
    struct TornUntilExcluded {
        slots: Vec<[u8; LINE]>,
        cont_line: u32,
        calm: std::sync::atomic::AtomicBool,
    }

    impl TornUntilExcluded {
        fn calm_guard(&self) {
            self.calm.store(true, Ordering::Release);
        }
    }

    impl Lines for TornUntilExcluded {
        fn line_count(&self) -> u32 {
            self.slots.len() as u32
        }

        fn read_slot(&self, line: u32) -> Result<[u8; LINE], StoreError> {
            let mut out = self.slots[line as usize];
            if line == self.cont_line && !self.calm.load(Ordering::Acquire) {
                // Skew the continuation's version so assembly always
                // detects a (fake) racing writer.
                out[3] = out[3].wrapping_add(1);
            }
            Ok(out)
        }

        fn write_slot(&self, _line: u32, _data: &[u8; LINE]) -> Result<(), StoreError> {
            unreachable!("lookup never writes")
        }
    }

    #[test]
    fn contended_get_returns_value_once_writer_excluded() {
        // Build a real spanning record on a scratch table, then serve
        // reads through the torn wrapper.
        let scratch = {
            use std::cell::RefCell;
            struct Mem(RefCell<Vec<[u8; LINE]>>);
            impl Lines for Mem {
                fn line_count(&self) -> u32 {
                    self.0.borrow().len() as u32
                }
                fn read_slot(&self, line: u32) -> Result<[u8; LINE], StoreError> {
                    Ok(self.0.borrow()[line as usize])
                }
                fn write_slot(&self, line: u32, data: &[u8; LINE]) -> Result<(), StoreError> {
                    self.0.borrow_mut()[line as usize] = *data;
                    Ok(())
                }
            }
            let mem = Mem(RefCell::new(vec![[0u8; LINE]; 16]));
            slots::put(&mem, b"torn", &[7u8; 100]).unwrap();
            mem.0.into_inner()
        };
        let cont_line = scratch
            .iter()
            .position(|s| s[0] == slots::SLOT_CONT)
            .expect("a 100-byte value spans into one continuation") as u32;
        let store = TornUntilExcluded {
            slots: scratch,
            cont_line,
            calm: std::sync::atomic::AtomicBool::new(false),
        };
        // Every optimistic round sees the version skew; the fallback
        // guard "excludes the writer" (calms the skew), and the
        // serialized retry must then return the value — the pre-fix
        // helper returned Corrupt here without ever retrying.
        let (got, fell_back) =
            lookup_with_fallback(&store, b"torn", || store.calm_guard()).unwrap();
        assert_eq!(got, Some(vec![7u8; 100]));
        assert!(fell_back, "the optimistic rounds were all contended");
    }

    #[test]
    fn preload_tail_commits_at_the_phase_boundary() {
        let (kv, _) = open_serve(1, 4);
        for i in 0..10u32 {
            kv.preload(format!("pre{i}").as_bytes(), b"warm").unwrap();
        }
        let (_, committed_before, _) = kv.engine().frontiers();
        assert_eq!(committed_before, 0, "10 preloads sit below PRELOAD_BATCH");
        kv.end_preload().unwrap();
        let (_, committed, _) = kv.engine().frontiers();
        assert_eq!(committed, 1, "end_preload commits the tail");
        // Aligned preloads leave no tail: end_preload is then a no-op.
        kv.end_preload().unwrap();
        let (_, committed, _) = kv.engine().frontiers();
        assert_eq!(committed, 1);
        kv.close().unwrap();
    }

    #[test]
    fn obs_records_op_outcomes_and_shard_traffic() {
        let (mut kv, _) = open_serve(2, 4);
        let reg = picl_obs::MetricsRegistry::new();
        // Sample every op so the per-outcome counts below are exact.
        kv.enable_obs_sampled(&reg, 1);
        kv.put(0, b"seen", b"v").unwrap();
        kv.put(0, b"seen", b"v2").unwrap();
        assert_eq!(kv.get(1, b"seen").unwrap(), Some(b"v2".to_vec()));
        assert_eq!(kv.get(1, b"gone").unwrap(), None);
        assert!(kv.delete(0, b"seen").unwrap());
        assert!(!kv.delete(0, b"seen").unwrap());
        kv.commit().unwrap();
        let snap = reg.snapshot();
        let sojourn = |op: &str, outcome: &str| {
            snap.histogram(
                "picl_serve_op_sojourn_ns",
                &[("op", op), ("outcome", outcome)],
            )
            .map_or(0, Histogram::count)
        };
        assert_eq!(sojourn("put", "ok") + sojourn("put", "escalated"), 2);
        assert_eq!(sojourn("get", "hit") + sojourn("get", "contended"), 1);
        assert_eq!(sojourn("get", "miss"), 1);
        assert_eq!(sojourn("delete", "deleted"), 1);
        assert_eq!(sojourn("delete", "missing"), 1);
        // The 4 mutations all landed on some shard, and the engine-side
        // instruments came along for the ride.
        assert_eq!(snap.counter_total("picl_serve_shard_ops_total"), 4);
        assert!(snap.gauge("picl_store_open_epochs", &[]).is_some());
        assert!(
            snap.histogram("picl_serve_commit_publish_ns", &[])
                .is_some_and(|h| h.count() >= 1),
            "the explicit commit led at least one group commit"
        );
    }

    #[test]
    fn fsync_baseline_round_trips() {
        let medium = Arc::new(CountingMedium::new(64 * LINE as u64));
        let kv = FsyncKv::open(medium, 64).unwrap();
        kv.preload(b"warm", b"start").unwrap();
        kv.end_preload().unwrap();
        kv.put(0, b"a", &[7u8; 200]).unwrap();
        assert_eq!(kv.get(0, b"a").unwrap(), Some(vec![7u8; 200]));
        assert_eq!(kv.get(0, b"warm").unwrap(), Some(b"start".to_vec()));
        assert!(kv.delete(0, b"a").unwrap());
        assert_eq!(kv.get(0, b"a").unwrap(), None);
        assert_eq!(kv.scan().unwrap().len(), 1);
    }
}
