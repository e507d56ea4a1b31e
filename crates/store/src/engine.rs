//! The PiCL protocol as running software: epoch-tagged lines, a 2 KB
//! coalescing undo buffer, a circular multi-undo log, and a background
//! persister closing epochs on the §IV-A in-order window.
//!
//! # Protocol
//!
//! The protocol state is the simulator's kernel from `picl_types`: an
//! [`EpochTracker`] for the frontiers, the capture rule [`undo_range`],
//! an [`UndoBuffer`] of full-line [`UndoEntry`]s guarded by a
//! [`BloomFilter`], and a [`LogWindow`] of live log blocks that asserts
//! the ValidTill watermark at every seal and pops dead blocks for GC.
//!
//! The *volatile image* (a heap buffer) plays the cache hierarchy: every
//! write lands there immediately. The first write to a line in each epoch
//! appends a `(ValidFrom, ValidTill)` undo entry carrying the line's
//! pre-image to the coalescing buffer; a full buffer (or an epoch
//! boundary) drains as one bulk 4 KB log-block write, fenced before the
//! drain returns. The background persister is the ACS: it copies the dirty
//! lines of the committed epochs, probes the buffer's bloom filter and
//! forces a drain on a hit (the probe-before-eviction rule; a false
//! positive costs one extra drain), and writes the copies *in place* —
//! always ordered behind their undo entries.
//! Once every line of epoch `E` is in place it fences, advances the
//! superblock's persist frontier, and wakes writers stalled on the
//! in-order window (`committed - persisted <= window`), which is what
//! bounds the RPO to `window` epochs.
//!
//! # Recovery
//!
//! Open reads the superblock, loads the data region, scans the log for
//! valid blocks of the current generation ([`scan_log`]), and applies
//! every entry covering the persist frontier `P` (`ValidFrom <= P <
//! ValidTill`) — the simulator's multi-undo [`rollback`], which stops at
//! the first dead block (the superblock records the window's start before
//! a persist cycle's GC, so it may still list some). The restored lines
//! are persisted, then one superblock write bumps the *generation*,
//! atomically discarding the rolled-back timeline's log (its epoch
//! numbers are about to be reused). Execution resumes at epoch `P + 1`.
//!
//! # Concurrency
//!
//! The engine serves multiple front-end sessions at once. Protocol state
//! (frontiers, tags, the undo buffer, the log window) lives under one
//! *protocol mutex* with a logical tick clock — every telemetry emission
//! happens under it, so the exported event stream is totally ordered and
//! passes `picl audit` even with real threads racing. The volatile image
//! sits outside it, behind one seqlock per line: reads take no lock at
//! all (a copy that raced a write retries), writes take the protocol
//! mutex for the whole operation (the undo append and the image update
//! must be atomic against a commit, and the mutex is what serializes
//! image writers). Writer and commit drains persist and fence their log
//! block under the mutex. The persister holds it only for bookkeeping,
//! one cycle at a time:
//!
//! 1. *copy* every backlog line through its seqlock, with no lock held;
//! 2. *probe*, under the mutex once: bloom-probe each line and, on a hit,
//!    *seal* the buffer — take its entries and reserve their log sequence
//!    number;
//! 3. *block fence*, unlocked: persist and fence the sealed block;
//! 4. *line writes*, unlocked: write the copies in place and fence;
//! 5. *superblock*: read its fields under the mutex, persist and fence it
//!    unlocked, then relock to advance the persist frontier.
//!
//! Probing after copying keeps undo-before-writeback intact: a writer
//! pushes its undo entry under the mutex before updating the image, so
//! every entry behind a copied value is fenced or still buffered at the
//! probe, and a buffered one is fenced in step 3, before step 4. An image
//! write landing after the copy logs a pre-image that chains from the
//! copied value, so rollback to the advancing frontier is correct whether
//! or not those later entries survive. The protocol mutex is the only
//! lock: nothing is taken after it.

use std::collections::{BTreeSet, VecDeque};
use std::sync::atomic::{fence, AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};

use picl_telemetry::{EventKind, Telemetry};
use picl_types::undo::{rollback, undo_range, LogWindow};
use picl_types::{
    BloomFilter, Cycle, EpochId, EpochTracker, LineAddr, UndoBuffer, UndoEntry, LINE_BYTES,
};

use crate::layout::{
    decode_log_block, encode_log_block, log_block_span, Geometry, LogBlock, Superblock,
    DATA_OFFSET, ENTRIES_PER_BLOCK, LOG_BLOCK_BYTES, LOG_HEADER_BYTES, SB_BYTES,
    UNDO_BUFFER_ENTRIES,
};
use crate::obs::{LockSite, StoreObs};
use crate::persist::PersistOps;

const LINE: usize = LINE_BYTES as usize;

/// Epoch tag width. The engine's tags are full `EpochId`s, so the §IV-A
/// wraparound bound never binds; 63 keeps `1 << bits` in range.
const EID_BITS: u32 = 63;

/// Anything that can go wrong talking to a store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// The backing medium failed (for [`crate::persist::CountingMedium`],
    /// usually the injected power failure).
    Io(String),
    /// The file is not a valid store (bad magic/checksum/geometry).
    Corrupt(String),
    /// A configuration was rejected before any I/O.
    Config(String),
    /// A KV operation could not find room or fit its payload.
    Invalid(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(m) => write!(f, "medium error: {m}"),
            StoreError::Corrupt(m) => write!(f, "corrupt store: {m}"),
            StoreError::Config(m) => write!(f, "invalid configuration: {m}"),
            StoreError::Invalid(m) => write!(f, "invalid operation: {m}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> StoreError {
        StoreError::Io(e.to_string())
    }
}

/// Engine tuning knobs (geometry lives in the superblock once created).
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Data-region capacity in 64-byte lines (used only when creating).
    pub lines: u32,
    /// Log capacity in 4 KB blocks (used only when creating).
    pub log_blocks: u32,
    /// §IV-A in-order window: max committed-but-unpersisted epochs. The
    /// RPO bound. Must be >= 1.
    pub window: u64,
    /// Testing knob: make the persister sleep this long halfway through
    /// each epoch's in-place writes, holding the crash window open for
    /// the kill -9 harness. `0` disables.
    pub persist_stall_ms: u64,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            lines: 1024,
            log_blocks: 160,
            window: 1,
            persist_stall_ms: 0,
        }
    }
}

impl EngineConfig {
    /// Validates the knobs and derived geometry.
    ///
    /// # Errors
    ///
    /// Rejects degenerate geometry and a log too small to always make
    /// forward progress (the live window must fit `window + 2` epochs of
    /// worst-case undo traffic).
    pub fn validate(&self) -> Result<(), StoreError> {
        if self.lines == 0 {
            return Err(StoreError::Config("need at least one line".into()));
        }
        if self.window == 0 {
            return Err(StoreError::Config("window must be >= 1".into()));
        }
        let needed = min_log_blocks(self.lines, self.window);
        if u64::from(self.log_blocks) < needed {
            return Err(StoreError::Config(format!(
                "log of {} blocks can wedge: {} lines at window {} need >= {} blocks",
                self.log_blocks, self.lines, self.window, needed
            )));
        }
        Ok(())
    }
}

/// The smallest log, in 4 KB blocks, that always makes forward progress
/// for `lines` at `window`: the live window must fit `window + 2` epochs
/// of worst-case undo traffic (every line logged once per epoch).
pub fn min_log_blocks(lines: u32, window: u64) -> u64 {
    let blocks_per_epoch = u64::from(lines).div_ceil(UNDO_BUFFER_ENTRIES as u64) + 1;
    window
        .saturating_add(2)
        .saturating_mul(blocks_per_epoch)
        .saturating_add(2)
}

/// Protocol counters, monotone over the engine's life.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Undo entries appended (first-write-per-line-per-epoch).
    pub undo_entries: u64,
    /// Buffer drains (bulk log-block writes).
    pub drains: u64,
    /// Drains forced by the persister hitting a volatile line.
    pub forced_drains: u64,
    /// Log blocks written.
    pub log_blocks_written: u64,
    /// Epoch commits.
    pub commits: u64,
    /// Epoch persists (frontier advances).
    pub persists: u64,
    /// In-place line write-backs by the persister.
    pub line_writebacks: u64,
    /// Persister probes that found a volatile undo entry.
    pub bloom_hits: u64,
    /// Cycles (logical ticks) writers spent stalled on the in-order
    /// window.
    pub window_stalls: u64,
}

/// What `open` did: fresh format or a recovery, with its cost. The
/// default is the report of a fresh format.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpenReport {
    /// Whether an existing store was opened (vs freshly formatted).
    pub recovered: bool,
    /// The epoch execution resumed after (`0` for a fresh store).
    pub recovered_to: u64,
    /// Undo entries applied during rollback.
    pub entries_applied: u64,
    /// Log blocks the rollback scanned (it stops at the first dead one).
    pub blocks_scanned: u64,
    /// Distinct lines rolled back.
    pub lines_restored: u64,
    /// Wall-clock recovery latency in nanoseconds (data-region read +
    /// log scan + rollback + generation bump).
    pub recovery_ns: u64,
    /// The part of `recovery_ns` spent in [`scan_log`].
    pub log_scan_ns: u64,
}

struct EpochWork {
    eid: EpochId,
    lines: Vec<u32>,
}

/// Phase-one receipt from [`Engine::commit_epoch_async`]: the epoch is
/// committed and its dirty lines are queued for the persister.
#[derive(Debug, Clone, Copy)]
pub struct CommitTicket {
    /// The epoch that just committed.
    pub eid: u64,
    /// Whether `committed - persisted` exceeded the in-order window at
    /// the boundary; if so the committer owes an [`Engine::wait_window`]
    /// before the RPO bound covers further commits.
    pub window_full: bool,
}

/// 64-bit words per line.
const LINE_WORDS: usize = LINE / 8;

/// The volatile image: one seqlock per line, so reads never take a lock.
/// A line is 8 `AtomicU64` words guarded by an `AtomicU32` sequence
/// number that is odd while a write is in flight. Writers must be
/// serialized — they run under the protocol mutex, or during `open`
/// before the engine is shared.
struct Image {
    words: Box<[AtomicU64]>,
    seqs: Box<[AtomicU32]>,
}

impl Image {
    /// An image holding `bytes`, a whole number of lines.
    fn new(bytes: &[u8]) -> Image {
        debug_assert_eq!(bytes.len() % LINE, 0);
        let word = |b: &[u8]| AtomicU64::new(u64::from_le_bytes(b.try_into().expect("8 bytes")));
        Image {
            words: bytes.chunks_exact(8).map(word).collect(),
            seqs: (0..bytes.len() / LINE).map(|_| AtomicU32::new(0)).collect(),
        }
    }

    /// Reads one line: retries until it sees an even sequence number that
    /// is unchanged after the copy, so the copy is never torn.
    fn read(&self, line: u32) -> [u8; LINE] {
        let line = line as usize;
        let seq = &self.seqs[line];
        let words = &self.words[line * LINE_WORDS..(line + 1) * LINE_WORDS];
        let mut out = [0u8; LINE];
        loop {
            let before = seq.load(Ordering::Acquire);
            if before & 1 == 0 {
                for (bytes, word) in out.chunks_exact_mut(8).zip(words) {
                    bytes.copy_from_slice(&word.load(Ordering::Relaxed).to_le_bytes());
                }
                // Pairs with the writer's release fence: if any word came
                // from a later write, the odd sequence number it stored
                // first is visible to the re-check below.
                fence(Ordering::Acquire);
                if seq.load(Ordering::Relaxed) == before {
                    return out;
                }
            }
            std::hint::spin_loop();
        }
    }

    fn write(&self, line: u32, data: &[u8; LINE]) {
        let line = line as usize;
        let seq = &self.seqs[line];
        let words = &self.words[line * LINE_WORDS..(line + 1) * LINE_WORDS];
        let before = seq.load(Ordering::Relaxed);
        debug_assert!(before & 1 == 0, "concurrent image writers");
        seq.store(before.wrapping_add(1), Ordering::Relaxed);
        fence(Ordering::Release);
        for (word, bytes) in words.iter().zip(data.chunks_exact(8)) {
            let bytes = bytes.try_into().expect("8-byte chunk");
            word.store(u64::from_le_bytes(bytes), Ordering::Relaxed);
        }
        seq.store(before.wrapping_add(2), Ordering::Release);
    }
}

struct Inner {
    /// Executing and persisted epochs; committed is always the epoch
    /// before the executing one.
    epochs: EpochTracker,
    generation: u64,
    /// Lower bound for `ValidFrom` of lines with no tag (the persist
    /// frontier at open; their current value is at least that old).
    floor: EpochId,
    /// Per-line epoch tag: last epoch whose first write logged an undo
    /// entry for the line. `EpochId::ZERO` means untagged — no write is
    /// ever tagged with epoch 0 — which keeps a tag at 8 bytes.
    tags: Vec<EpochId>,
    /// The coalescing undo buffer with its bloom filter.
    buffer: UndoBuffer<[u8; LINE]>,
    /// Lines the executing epoch has logged, each once: a line is pushed
    /// only when its tag moves to the executing epoch.
    dirty_cur: Vec<u32>,
    queue: VecDeque<EpochWork>,
    log_head_seq: u64,
    log_start_seq: u64,
    /// Sequence numbers of the live log blocks, oldest first, for GC.
    window: LogWindow<u64>,
    tick: u64,
    stats: EngineStats,
    dead: Option<String>,
    shutdown: bool,
}

impl Inner {
    /// Protocol state for a store of `lines` lines resuming after the
    /// durable epoch `persisted`, with an empty log of `generation`.
    fn new(lines: u32, generation: u64, persisted: EpochId, tick: u64) -> Inner {
        Inner {
            epochs: EpochTracker::recovered(persisted, EID_BITS),
            generation,
            floor: persisted,
            tags: vec![EpochId::ZERO; lines as usize],
            buffer: UndoBuffer::new(UNDO_BUFFER_ENTRIES, BloomFilter::paper_default()),
            dirty_cur: Vec::new(),
            queue: VecDeque::new(),
            log_head_seq: 0,
            log_start_seq: 0,
            window: LogWindow::new(persisted),
            tick,
            stats: EngineStats::default(),
            dead: None,
            shutdown: false,
        }
    }

    /// The line's epoch tag, if it has one.
    fn tag(&self, line: u32) -> Option<EpochId> {
        Some(self.tags[line as usize]).filter(|&t| t != EpochId::ZERO)
    }
}

/// The protocol mutex taken at a labelled [`LockSite`]. A timed
/// acquisition records its wait on the way in and its hold on release.
struct Locked<'a> {
    /// `None` only in a `Locked` that [`Locked::wait`] moved out of.
    guard: Option<MutexGuard<'a, Inner>>,
    /// The obs set, the site, and the clock reading at acquisition, when
    /// this acquisition is timed.
    timer: Option<(&'a StoreObs, LockSite, u64)>,
}

impl Locked<'_> {
    /// Records the hold so far, if this acquisition is timed.
    fn end_hold(&self) {
        if let Some((obs, site, at)) = self.timer {
            obs.mutex(site).hold_ns.record(obs.clock.elapsed_ns(at));
        }
    }

    /// Ends this hold across a condvar wait; the reacquired mutex starts a
    /// fresh hold (the reacquisition is not counted as a wait).
    fn wait(mut self, cv: &Condvar) -> Self {
        self.end_hold();
        let timer = self.timer.take();
        let guard = self.guard.take().expect("protocol mutex held");
        let guard = cv.wait(guard).expect("store engine poisoned");
        Locked {
            guard: Some(guard),
            timer: timer.map(|(obs, site, _)| (obs, site, obs.clock.now())),
        }
    }
}

impl std::ops::Deref for Locked<'_> {
    type Target = Inner;
    fn deref(&self) -> &Inner {
        self.guard.as_ref().expect("protocol mutex held")
    }
}

impl std::ops::DerefMut for Locked<'_> {
    fn deref_mut(&mut self) -> &mut Inner {
        self.guard.as_mut().expect("protocol mutex held")
    }
}

impl Drop for Locked<'_> {
    fn drop(&mut self) {
        self.end_hold();
    }
}

/// An undo-buffer drain taken out of the buffer under the protocol
/// mutex, its log sequence number reserved and accounted, but not yet on
/// the medium: [`Shared::write_block`] persists and fences it.
struct Sealed {
    generation: u64,
    seq: u64,
    entries: Vec<UndoEntry<[u8; LINE]>>,
}

struct Shared {
    medium: Arc<dyn PersistOps>,
    geometry: Geometry,
    cfg: EngineConfig,
    telemetry: Telemetry,
    state: Mutex<Inner>,
    /// The volatile image; reads take no lock.
    image: Image,
    /// Mirrors `Inner::dead` so the read path can check for death
    /// without taking the protocol mutex.
    dead_flag: AtomicBool,
    /// Wakes the persister (new committed epoch, or shutdown).
    work: Condvar,
    /// Wakes writers (persist frontier advanced, log space freed, death).
    done: Condvar,
    /// Observability instruments, attached at most once by
    /// [`Engine::enable_obs`]. Hot paths pay one relaxed load when unset.
    obs: OnceLock<StoreObs>,
    /// Runs once between the persister's lock-free copy and its locked
    /// probe, so a test can race a write into that window.
    #[cfg(test)]
    after_copy: Mutex<Option<Box<dyn FnOnce() + Send>>>,
}

impl Shared {
    /// Takes the protocol mutex at `site`, timing the wait and the hold
    /// when obs is attached and the acquisition is sampled.
    fn lock_at(&self, site: LockSite) -> Locked<'_> {
        let obs = self.obs.get().filter(|obs| obs.sampled(site));
        let asked = obs.map(|obs| obs.clock.now());
        let guard = self.state.lock().expect("store engine poisoned");
        let timer = obs.zip(asked).map(|(obs, asked)| {
            let now = obs.clock.now();
            obs.mutex(site)
                .wait_ns
                .record(obs.clock.ns_between(asked, now));
            (obs, site, now)
        });
        Locked {
            guard: Some(guard),
            timer,
        }
    }

    fn emit(&self, st: &mut Inner, kind: EventKind) {
        st.tick += 1;
        self.telemetry.record(Cycle(st.tick), None, kind);
    }

    fn die(&self, st: &mut Inner, msg: String) -> StoreError {
        if st.dead.is_none() {
            st.dead = Some(msg.clone());
        }
        self.dead_flag.store(true, Ordering::Release);
        self.work.notify_all();
        self.done.notify_all();
        StoreError::Io(msg)
    }

    fn check_alive(&self, st: &Inner) -> Result<(), StoreError> {
        match &st.dead {
            Some(m) => Err(StoreError::Io(m.clone())),
            None => Ok(()),
        }
    }

    /// Pushes the epoch-pipeline gauges from the protocol state. Called
    /// at the boundaries that move them (commit, drain, persist cycle);
    /// one relaxed load when obs is not attached.
    fn publish_gauges(&self, st: &Inner) {
        if let Some(obs) = self.obs.get() {
            obs.open_epochs.set(st.epochs.in_flight() + 1);
            obs.window_occupancy.set(st.epochs.in_flight());
            obs.undo_buffer_fill.set(st.buffer.len() as u64);
            obs.log_blocks_live.set(st.log_head_seq - st.log_start_seq);
        }
    }

    /// Drops dead log blocks off the front of the live window.
    fn gc(&self, st: &mut Inner) {
        for seq in st.window.expire(st.epochs.persisted()) {
            debug_assert_eq!(seq, st.log_start_seq);
            st.log_start_seq = seq + 1;
        }
    }

    /// Takes the coalescing buffer's entries as one log block: reserves
    /// its sequence number and accounts for the drain, leaving the block
    /// for [`Shared::write_block`]. `None` when the buffer is empty.
    /// Caller must have reserved log space (writers gate on
    /// `log_blocks - 1`, leaving the last slot for the persister's forced
    /// drains).
    fn seal(&self, st: &mut Inner, forced: bool) -> Option<Sealed> {
        if st.buffer.is_empty() {
            return None;
        }
        let entries = st.buffer.drain();
        st.stats.drains += 1;
        debug_assert!(entries.len() <= ENTRIES_PER_BLOCK);
        let seq = st.log_head_seq;
        debug_assert!(
            seq - st.log_start_seq < u64::from(self.geometry.log_blocks),
            "log overrun: [{}, {seq}] in {} blocks",
            st.log_start_seq,
            self.geometry.log_blocks
        );
        let max_till = entries.iter().map(|e| e.valid_till).max();
        st.log_head_seq = seq + 1;
        st.window.push(max_till.expect("nonempty"), seq);
        if forced {
            st.stats.forced_drains += 1;
        }
        st.stats.log_blocks_written += 1;
        self.emit(
            st,
            EventKind::UndoDrain {
                entries: entries.len() as u64,
                bytes: LOG_BLOCK_BYTES,
                forced,
            },
        );
        if let Some(obs) = self.obs.get() {
            obs.fences.inc();
            if forced {
                obs.forced_drains.inc();
            }
        }
        self.publish_gauges(st);
        Some(Sealed {
            generation: st.generation,
            seq,
            entries,
        })
    }

    /// Persists and fences a sealed block. Needs no lock: the block's
    /// slot was reserved by [`Shared::seal`].
    fn write_block(&self, sealed: &Sealed) -> std::io::Result<()> {
        let block = encode_log_block(sealed.generation, sealed.seq, &sealed.entries);
        self.medium
            .persist(self.geometry.log_slot_off(sealed.seq), &block)?;
        self.medium.fence()
    }

    /// Drains the coalescing buffer under the protocol mutex: a seal and
    /// its block write, fenced before the drain returns.
    fn drain(&self, st: &mut Inner, forced: bool) -> Result<(), StoreError> {
        match self.seal(st, forced) {
            Some(sealed) => self
                .write_block(&sealed)
                .map_err(|e| self.die(st, e.to_string())),
            None => Ok(()),
        }
    }

    /// Persists a run of consecutive committed epochs. The protocol
    /// mutex covers only bookkeeping; every medium write and fence runs
    /// with it free, while the front end keeps executing:
    ///
    /// 1. *Copy*, no lock: read every backlog line through its seqlock.
    /// 2. *Probe*, locked once: bloom-probe the undo buffer for each
    ///    line. A hit *seals* the buffer (undo-before-eviction; a false
    ///    positive costs one extra drain).
    /// 3. *Block fence*, no lock: persist and fence the sealed block.
    /// 4. *Line writes*, no lock: write every copy in place and fence —
    ///    this is where the stall knob and the real media latency live.
    /// 5. *Superblock*: read its fields under the lock, persist and fence
    ///    it unlocked, then relock to advance the persist frontier and
    ///    wake stalled writers.
    ///
    /// Taking the whole queued backlog per cycle is the group-persist
    /// half of the serving layer's pipelined group commit: the line
    /// fence and the superblock fence amortize over every backlogged
    /// epoch, so when commits outrun the medium the frontier catches up
    /// in one cycle instead of paying two fences per epoch — which is
    /// what bounds a commit leader's in-order-window wait.
    ///
    /// Probing *after* the copy is what keeps the copies safe to write:
    /// a writer pushes its undo entry under the mutex before it updates
    /// the image, so every entry behind a copied value is, when the
    /// probe runs, either already fenced or still buffered — and a
    /// buffered one is sealed and fenced in step 3, before step 4 writes
    /// any line. An image write landing after the copy logs a pre-image
    /// chaining from the copied value, so recovery to any epoch in the
    /// run rolls the line to its end-of-epoch value whether or not those
    /// later entries survive the crash. Every block below the
    /// superblock's `log_head_seq` is fenced when its fields are read:
    /// writer drains fence under the mutex, and the only sealed block
    /// fenced off it is this cycle's, already fenced in step 3.
    fn persist_epochs(&self, works: Vec<EpochWork>) -> Result<(), StoreError> {
        let cycle_started = std::time::Instant::now();
        let batch: Vec<(u32, [u8; LINE])> = works
            .iter()
            .flat_map(|work| &work.lines)
            .map(|&line| (line, self.image.read(line)))
            .collect();
        #[cfg(test)]
        if let Some(pause) = self.after_copy.lock().expect("test hook").take() {
            pause();
        }
        // `(lines, probe tick)` per epoch, for the per-epoch events.
        let mut spans: Vec<(u64, u64)> = Vec::with_capacity(works.len());
        let sealed = {
            let mut st = self.lock_at(LockSite::PersisterProbe);
            self.check_alive(&st)?;
            let mut sealed = None;
            for (i, work) in works.iter().enumerate() {
                debug_assert_eq!(
                    work.eid.raw(),
                    st.epochs.persisted().raw() + 1 + i as u64,
                    "epochs persist in order"
                );
                let started = st.tick + 1;
                for &line in &work.lines {
                    let addr = LineAddr::new(u64::from(line));
                    if st.buffer.eviction_conflicts(addr) {
                        // The line's newest undo entry may still be
                        // volatile: writing the (possibly newer) copy in
                        // place first would break undo-before-eviction.
                        // A seal empties the buffer, so a cycle seals at
                        // most once.
                        self.emit(&mut st, EventKind::BloomCheck { addr, hit: true });
                        st.stats.bloom_hits += 1;
                        sealed = self.seal(&mut st, true);
                    }
                    st.stats.line_writebacks += 1;
                    self.emit(&mut st, EventKind::AcsLineWriteback { addr });
                }
                spans.push((work.lines.len() as u64, started));
            }
            sealed
        };
        let io = self.write_in_place(sealed.as_ref(), &batch);
        let (last, sb) = {
            let mut st = self.lock_at(LockSite::PersisterFrontier);
            if let Err(e) = io {
                return Err(self.die(&mut st, e.to_string()));
            }
            self.check_alive(&st)?;
            let last = works.last().map_or(st.epochs.persisted(), |w| w.eid);
            let sb = Superblock {
                geometry: self.geometry,
                persisted_eid: last.raw(),
                generation: st.generation,
                log_start_seq: st.log_start_seq,
                log_head_seq: st.log_head_seq,
            };
            (last, sb)
        };
        let sb_result = self
            .medium
            .persist(0, &sb.encode())
            .and_then(|()| self.medium.fence());
        let mut st = self.lock_at(LockSite::PersisterFrontier);
        if let Err(e) = sb_result {
            return Err(self.die(&mut st, e.to_string()));
        }
        self.check_alive(&st)?;
        // Only a durable superblock moves the frontier: the tracker
        // cannot move it back.
        st.epochs.persist(last);
        for (work, (lines, started)) in works.iter().zip(&spans) {
            st.stats.persists += 1;
            self.emit(
                &mut st,
                EventKind::AcsScan {
                    target: work.eid,
                    lines: *lines,
                    started: Cycle(*started),
                },
            );
            self.emit(&mut st, EventKind::EpochPersist { eid: work.eid });
        }
        self.gc(&mut st);
        if let Some(obs) = self.obs.get() {
            obs.cycle_ns
                .record(cycle_started.elapsed().as_nanos() as u64);
            obs.backlog_epochs.record(works.len() as u64);
            obs.lines_written.add(batch.len() as u64);
            // The line-batch fence plus the superblock fence (a sealed
            // block counted its own).
            obs.fences.add(2);
        }
        self.publish_gauges(&st);
        self.done.notify_all();
        Ok(())
    }

    /// Steps 3 and 4 of a persister cycle, with no lock held: the sealed
    /// block and its fence, then every copied line in place and one
    /// fence.
    fn write_in_place(
        &self,
        sealed: Option<&Sealed>,
        batch: &[(u32, [u8; LINE])],
    ) -> std::io::Result<()> {
        if let Some(sealed) = sealed {
            self.write_block(sealed)?;
        }
        let stall_at = batch.len() / 2;
        for (i, (line, data)) in batch.iter().enumerate() {
            self.medium.persist(self.geometry.data_off(*line), data)?;
            if self.cfg.persist_stall_ms > 0 && i + 1 == stall_at {
                // Hold the mid-persist crash window open (data partially
                // in place, frontier not yet advanced) for the kill
                // harness. The front end is NOT blocked: no locks held.
                std::thread::sleep(std::time::Duration::from_millis(self.cfg.persist_stall_ms));
            }
        }
        self.medium.fence()
    }

    fn persister_loop(self: &Arc<Self>) {
        loop {
            let works: Vec<EpochWork> = {
                let mut st = self.state.lock().expect("store engine poisoned");
                loop {
                    if st.dead.is_some() {
                        return;
                    }
                    if !st.queue.is_empty() {
                        break st.queue.drain(..).collect();
                    }
                    if st.shutdown {
                        return;
                    }
                    st = self.work.wait(st).expect("store engine poisoned");
                }
            };
            if self.persist_epochs(works).is_err() {
                return;
            }
        }
    }
}

/// The running engine: line-granularity reads/writes, epoch commits, and
/// a background persister. One per open store file.
pub struct Engine {
    shared: Arc<Shared>,
    persister: Option<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("geometry", &self.shared.geometry)
            .finish_non_exhaustive()
    }
}

impl Engine {
    /// Opens (formatting if blank, recovering if not) the store on
    /// `medium`, then starts the persister.
    ///
    /// # Errors
    ///
    /// Fails on invalid configuration, medium errors, or a corrupt
    /// superblock.
    pub fn open(
        medium: Arc<dyn PersistOps>,
        cfg: EngineConfig,
        telemetry: Telemetry,
    ) -> Result<(Engine, OpenReport), StoreError> {
        cfg.validate()?;
        let mut head = [0u8; SB_BYTES as usize];
        medium.read(0, &mut head)?;
        let blank = head.iter().all(|&b| b == 0);
        let started = std::time::Instant::now();
        let (geometry, generation, point, tick, image, report) = if blank {
            let geometry = Geometry {
                lines: cfg.lines,
                log_blocks: cfg.log_blocks,
            };
            if medium.len() < geometry.total_len() {
                return Err(StoreError::Config(format!(
                    "medium of {} bytes is too small for geometry needing {}",
                    medium.len(),
                    geometry.total_len()
                )));
            }
            let sb = Superblock {
                geometry,
                persisted_eid: 0,
                generation: 1,
                log_start_seq: 0,
                log_head_seq: 0,
            };
            medium.persist(0, &sb.encode())?;
            medium.fence()?;
            let image = Image::new(&vec![0u8; geometry.lines as usize * LINE]);
            (geometry, 1, EpochId::ZERO, 0, image, OpenReport::default())
        } else {
            let sb = Superblock::decode(&head).map_err(StoreError::Corrupt)?;
            let geometry = sb.geometry;
            if medium.len() < geometry.total_len() {
                return Err(StoreError::Corrupt(format!(
                    "medium of {} bytes truncates geometry needing {}",
                    medium.len(),
                    geometry.total_len()
                )));
            }
            let image = {
                let mut bytes = vec![0u8; geometry.lines as usize * LINE];
                medium.read(DATA_OFFSET, &mut bytes)?;
                Image::new(&bytes)
            };
            let scan_started = std::time::Instant::now();
            let blocks = scan_log(medium.as_ref(), &sb)?;
            let log_scan_ns = scan_started.elapsed().as_nanos() as u64;
            let point = EpochId(sb.persisted_eid);
            let mut tick = 1u64;
            telemetry.record(Cycle(tick), None, EventKind::RecoveryStart);
            let mut restored = BTreeSet::new();
            let (mut applied, mut scanned) = (0u64, 0u64);
            let newest_first = blocks.iter().rev().map(|b| (b.max_valid_till, &b.entries));
            for (_, patches) in rollback(newest_first, point) {
                scanned += 1;
                for entry in patches {
                    let line = entry.addr.raw() as u32;
                    image.write(line, &entry.value);
                    restored.insert(line);
                    applied += 1;
                }
            }
            // Persist the rollback, then bump the generation: one
            // superblock write atomically discards the dead timeline's
            // log. A crash anywhere in here redoes the same idempotent
            // rollback from the old generation's log.
            for &line in &restored {
                medium.persist(geometry.data_off(line), &image.read(line))?;
            }
            medium.fence()?;
            let new_sb = Superblock {
                geometry,
                persisted_eid: point.raw(),
                generation: sb.generation + 1,
                log_start_seq: 0,
                log_head_seq: 0,
            };
            medium.persist(0, &new_sb.encode())?;
            medium.fence()?;
            tick += 1;
            telemetry.record(
                Cycle(tick),
                None,
                EventKind::RecoveryDone {
                    recovered_to: point,
                    entries: applied,
                },
            );
            let report = OpenReport {
                recovered: true,
                recovered_to: point.raw(),
                entries_applied: applied,
                blocks_scanned: scanned,
                lines_restored: restored.len() as u64,
                recovery_ns: started.elapsed().as_nanos() as u64,
                log_scan_ns,
            };
            (geometry, new_sb.generation, point, tick, image, report)
        };
        let inner = Inner::new(geometry.lines, generation, point, tick + 1);
        let begin = EventKind::EpochBegin {
            eid: inner.epochs.system(),
        };
        telemetry.record(Cycle(inner.tick), None, begin);
        let shared = Arc::new(Shared {
            medium,
            geometry,
            cfg,
            telemetry,
            state: Mutex::new(inner),
            image,
            dead_flag: AtomicBool::new(false),
            work: Condvar::new(),
            done: Condvar::new(),
            obs: OnceLock::new(),
            #[cfg(test)]
            after_copy: Mutex::new(None),
        });
        let worker = Arc::clone(&shared);
        let persister = std::thread::Builder::new()
            .name("picl-store-persister".into())
            .spawn(move || worker.persister_loop())
            .map_err(|e| StoreError::Io(format!("cannot spawn persister: {e}")))?;
        Ok((
            Engine {
                shared,
                persister: Some(persister),
            },
            report,
        ))
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.shared.state.lock().expect("store engine poisoned")
    }

    /// Store geometry.
    pub fn geometry(&self) -> Geometry {
        self.shared.geometry
    }

    /// Reads one line from the volatile image. Takes no lock: the line's
    /// seqlock retries a copy that raced a write, so concurrent sessions
    /// read in parallel with writers and the persister and never see a
    /// torn line.
    ///
    /// # Errors
    ///
    /// Fails after the medium has died.
    ///
    /// # Panics
    ///
    /// Panics if `line` is out of range.
    pub fn read_line(&self, line: u32) -> Result<[u8; LINE], StoreError> {
        if self.shared.dead_flag.load(Ordering::Acquire) {
            let st = self.lock();
            self.shared.check_alive(&st)?;
        }
        Ok(self.shared.image.read(line))
    }

    /// Writes one line: logs the pre-image on the epoch's first touch,
    /// then updates the volatile image.
    ///
    /// # Errors
    ///
    /// Fails after the medium has died.
    ///
    /// # Panics
    ///
    /// Panics if `line` is out of range.
    pub fn write_line(&self, line: u32, data: &[u8; LINE]) -> Result<(), StoreError> {
        let mut st = self.shared.lock_at(LockSite::Writer);
        self.shared.check_alive(&st)?;
        // The epoch's first write to the line logs its pre-image. The
        // rule is re-evaluated after every wait: the epoch may have moved
        // on, or another writer may have logged the line meanwhile.
        while let Some((valid_from, valid_till)) =
            undo_range(st.tag(line), st.epochs.system(), st.floor)
        {
            // Gate on log space first, keeping one slot in reserve for
            // the persister's forced drains.
            self.shared.gc(&mut st);
            let live = st.log_head_seq - st.log_start_seq;
            if live >= u64::from(self.shared.geometry.log_blocks) - 1 {
                st = st.wait(&self.shared.done);
                self.shared.check_alive(&st)?;
                continue;
            }
            let addr = LineAddr::new(u64::from(line));
            let pre = self.shared.image.read(line);
            let entry = UndoEntry::new(addr, pre, valid_from, valid_till);
            let full = st.buffer.push(entry);
            debug_assert_ne!(st.tag(line), Some(valid_till), "line {line} logged twice");
            st.tags[line as usize] = valid_till;
            st.dirty_cur.push(line);
            st.stats.undo_entries += 1;
            self.shared.emit(
                &mut st,
                EventKind::UndoEntryAppended {
                    addr,
                    valid_from,
                    valid_till,
                },
            );
            if let Some(obs) = self.shared.obs.get() {
                obs.undo_buffer_fill.set(st.buffer.len() as u64);
            }
            if full {
                self.shared.drain(&mut st, false)?;
            }
            break;
        }
        // Still under the protocol mutex: the undo append and the image
        // update must be atomic against a commit boundary, or a crash
        // could recover a torn prefix.
        self.shared.image.write(line, data);
        Ok(())
    }

    /// Commits the executing epoch: drains the buffer, hands the epoch's
    /// dirty lines to the persister, begins the next epoch, and stalls on
    /// the in-order window. Returns the committed epoch id.
    ///
    /// This is [`Engine::commit_epoch_async`] followed by
    /// [`Engine::wait_window`] when the ticket says the window was full —
    /// callers that can overlap the stall with other work (the serving
    /// layer's group commit) use the two phases directly.
    ///
    /// # Errors
    ///
    /// Fails after the medium has died.
    pub fn commit_epoch(&self) -> Result<u64, StoreError> {
        let ticket = self.commit_epoch_async()?;
        if ticket.window_full {
            self.wait_window(ticket)?;
        }
        Ok(ticket.eid)
    }

    /// Phase one of a commit, entirely under the protocol mutex: drains
    /// the undo buffer (persisting and fencing its log block, if it holds
    /// any entries, before the mutex is released), publishes the epoch
    /// boundary, hands the epoch's dirty lines to the persister, and
    /// begins the next executing epoch. It never waits for the persister.
    /// The returned ticket says whether
    /// the §IV-A in-order window was full at the boundary — if so, a
    /// caller honoring the RPO bound must [`Engine::wait_window`] before
    /// treating the commit as flow-controlled, but it may do useful work
    /// (or let other writers run) first.
    ///
    /// # Errors
    ///
    /// Fails after the medium has died.
    pub fn commit_epoch_async(&self) -> Result<CommitTicket, StoreError> {
        let mut st = self.shared.lock_at(LockSite::Commit);
        self.shared.check_alive(&st)?;
        self.shared.drain(&mut st, false)?;
        let committed = st.epochs.commit();
        st.stats.commits += 1;
        self.shared
            .emit(&mut st, EventKind::EpochCommit { eid: committed });
        let mut lines = std::mem::take(&mut st.dirty_cur);
        lines.sort_unstable();
        st.queue.push_back(EpochWork {
            eid: committed,
            lines,
        });
        self.shared.work.notify_one();
        let begun = st.epochs.system();
        self.shared
            .emit(&mut st, EventKind::EpochBegin { eid: begun });
        let window_full = st.epochs.in_flight() > self.shared.cfg.window;
        self.shared.publish_gauges(&st);
        Ok(CommitTicket {
            eid: committed.raw(),
            window_full,
        })
    }

    /// Phase two of a commit: blocks until the in-order window has room
    /// again (`committed - persisted <= window`), i.e. until the persister
    /// has caught up enough that the RPO bound holds for further commits.
    /// Returns immediately if the persister already caught up since the
    /// ticket was issued.
    ///
    /// # Errors
    ///
    /// Fails after the medium has died.
    pub fn wait_window(&self, ticket: CommitTicket) -> Result<(), StoreError> {
        let mut st = self.lock();
        let mut waited: Option<std::time::Instant> = None;
        while st.epochs.in_flight() > self.shared.cfg.window && st.dead.is_none() {
            waited.get_or_insert_with(std::time::Instant::now);
            st.stats.window_stalls += 1;
            self.shared.emit(
                &mut st,
                EventKind::Marker {
                    name: "inorder_window_stall",
                    value: ticket.eid,
                },
            );
            st = self.shared.done.wait(st).expect("store engine poisoned");
        }
        if let (Some(obs), Some(t0)) = (self.shared.obs.get(), waited) {
            obs.window_wait_ns.record(t0.elapsed().as_nanos() as u64);
        }
        self.shared.check_alive(&st)
    }

    /// Attaches observability instruments: persister cycle timing,
    /// fence/line counters, window-wait histogram, protocol-mutex wait
    /// and hold histograms per `LockSite`, and the epoch-pipeline
    /// gauges (open epochs, window occupancy, undo-buffer fill, live log
    /// blocks). Idempotent per engine — the first
    /// registry wins; until called, instrumented paths cost one relaxed
    /// atomic load.
    pub fn enable_obs(&self, registry: &picl_obs::MetricsRegistry) {
        let _ = self.shared.obs.set(StoreObs::register(registry));
        self.shared.publish_gauges(&self.lock());
    }

    /// `(executing, committed, persisted)` epoch frontiers.
    pub fn frontiers(&self) -> (u64, u64, u64) {
        let st = self.lock();
        let (sys, persisted) = (st.epochs.system().raw(), st.epochs.persisted().raw());
        (sys, sys - 1, persisted)
    }

    /// Protocol counters so far.
    pub fn stats(&self) -> EngineStats {
        self.lock().stats
    }

    /// Blocks until every committed epoch has persisted (or the medium
    /// dies).
    ///
    /// # Errors
    ///
    /// Fails after the medium has died.
    pub fn drain_persister(&self) -> Result<(), StoreError> {
        let mut st = self.lock();
        while st.epochs.in_flight() > 0 && st.dead.is_none() {
            st = self.shared.done.wait(st).expect("store engine poisoned");
        }
        self.shared.check_alive(&st)
    }

    /// Stops the persister after it finishes the committed backlog, and
    /// returns the final counters. Work in the executing (uncommitted)
    /// epoch is deliberately left volatile — exactly what a crash would
    /// lose.
    ///
    /// # Errors
    ///
    /// Fails (after still shutting down) if the medium died.
    pub fn close(mut self) -> Result<EngineStats, StoreError> {
        let result = {
            let mut st = self.lock();
            st.shutdown = true;
            self.shared.work.notify_all();
            self.shared.check_alive(&st).map(|()| st.stats)
        };
        if let Some(handle) = self.persister.take() {
            let _ = handle.join();
        }
        // Death may have happened while the backlog drained.
        let st = self.lock();
        self.shared.check_alive(&st)?;
        result
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        if let Some(handle) = self.persister.take() {
            {
                let mut st = self.lock();
                st.shutdown = true;
                self.shared.work.notify_all();
            }
            let _ = handle.join();
        }
    }
}

/// What recovery would do with a store's log, read without changing the
/// medium: the live blocks [`scan_log`] finds, and the blocks and entries
/// the [`rollback`] to the persisted epoch would scan and replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogPlan {
    /// The superblock the log was read under.
    pub superblock: Superblock,
    /// Live log blocks.
    pub live_blocks: usize,
    /// Undo entries across the live blocks.
    pub entries: usize,
    /// Blocks the rollback would scan (it stops at the first dead one).
    pub blocks_scanned: u64,
    /// Undo entries the rollback would apply.
    pub entries_replayed: u64,
}

/// Reads `medium`'s superblock and log and plans the rollback
/// [`Engine::open`] would run on it. `picl store dump` prints the plan,
/// and the kill -9 torture checks each killed file's recovery against it.
///
/// # Errors
///
/// An unreadable superblock, or a log [`scan_log`] rejects, is
/// [`StoreError::Corrupt`]; read failures are [`StoreError::Io`].
pub fn plan_recovery(medium: &dyn PersistOps) -> Result<LogPlan, StoreError> {
    let mut head = [0u8; SB_BYTES as usize];
    medium.read(0, &mut head)?;
    let superblock = Superblock::decode(&head).map_err(StoreError::Corrupt)?;
    let blocks = scan_log(medium, &superblock)?;
    let newest_first = blocks.iter().rev().map(|b| (b.max_valid_till, &b.entries));
    let (mut blocks_scanned, mut entries_replayed) = (0, 0);
    for (_, patches) in rollback(newest_first, EpochId(superblock.persisted_eid)) {
        blocks_scanned += 1;
        entries_replayed += patches.count() as u64;
    }
    Ok(LogPlan {
        superblock,
        live_blocks: blocks.len(),
        entries: blocks.iter().map(|b| b.entries.len()).sum(),
        blocks_scanned,
        entries_replayed,
    })
}

/// Collects every valid log block of the superblock's generation whose
/// sequence number is still inside the live window, sorted by sequence:
/// the blocks recovery rolls back over. Each slot's header is read
/// first; only a header of this generation, inside the window and with
/// an entry count in range has the rest of its block read and checked.
///
/// # Errors
///
/// A live block that passed its checksum but holds an entry for a line
/// outside the data region, or with an empty validity range, is
/// [`StoreError::Corrupt`]: the engine never writes one.
pub fn scan_log(medium: &dyn PersistOps, sb: &Superblock) -> Result<Vec<LogBlock>, StoreError> {
    let mut blocks = Vec::new();
    let mut buf = vec![0u8; LOG_BLOCK_BYTES as usize];
    for slot in 0..sb.geometry.log_blocks {
        let off = sb.geometry.log_slot_off(u64::from(slot));
        medium.read(off, &mut buf[..LOG_HEADER_BYTES])?;
        let span = log_block_span(&buf, sb.generation).filter(|&(seq, _)| seq >= sb.log_start_seq);
        let Some((_, used)) = span else {
            continue;
        };
        medium.read(
            off + LOG_HEADER_BYTES as u64,
            &mut buf[LOG_HEADER_BYTES..used],
        )?;
        let Some(block) = decode_log_block(&buf, sb.generation) else {
            continue;
        };
        let lines = u64::from(sb.geometry.lines);
        let bad = |e: &&UndoEntry<_>| e.addr.raw() >= lines || e.valid_from >= e.valid_till;
        if let Some(e) = block.entries.iter().find(bad) {
            return Err(StoreError::Corrupt(format!(
                "log block {}: impossible entry for line {} of {lines}, valid {}..{}",
                block.seq,
                e.addr.raw(),
                e.valid_from,
                e.valid_till
            )));
        }
        blocks.push(block);
    }
    blocks.sort_by_key(|b| b.seq);
    Ok(blocks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::persist::{CountingMedium, PersistStats};
    use std::sync::mpsc;
    use std::time::Duration;

    fn small_cfg() -> EngineConfig {
        EngineConfig {
            lines: 64,
            log_blocks: 16,
            ..EngineConfig::default()
        }
    }

    fn medium_for(cfg: &EngineConfig) -> Arc<CountingMedium> {
        let g = Geometry {
            lines: cfg.lines,
            log_blocks: cfg.log_blocks,
        };
        Arc::new(CountingMedium::new(g.total_len()))
    }

    fn line_of(b: u8) -> [u8; LINE] {
        [b; LINE]
    }

    /// Pauses the persister's next cycle between its lock-free copy and
    /// its locked probe. The receiver hears the pause begin; a send on
    /// the sender ends it (so does a ten-second timeout, so a failing
    /// test never hangs).
    fn pause_after_copy(engine: &Engine) -> (mpsc::Receiver<()>, mpsc::Sender<()>) {
        let (paused_tx, paused_rx) = mpsc::channel();
        let (go_tx, go_rx) = mpsc::channel::<()>();
        *engine.shared.after_copy.lock().unwrap() = Some(Box::new(move || {
            paused_tx.send(()).unwrap();
            let _ = go_rx.recv_timeout(Duration::from_secs(10));
        }));
        (paused_rx, go_tx)
    }

    #[test]
    fn config_validation_rejects_wedgeable_logs() {
        assert!(EngineConfig::default().validate().is_ok());
        let tiny = EngineConfig {
            lines: 4096,
            log_blocks: 8,
            ..EngineConfig::default()
        };
        assert!(matches!(tiny.validate(), Err(StoreError::Config(_))));
        let no_window = EngineConfig {
            window: 0,
            ..EngineConfig::default()
        };
        assert!(no_window.validate().is_err());
    }

    #[test]
    fn fresh_store_reads_zeros_and_commits() {
        let cfg = small_cfg();
        let medium = medium_for(&cfg);
        let (engine, report) = Engine::open(medium, cfg, Telemetry::off()).unwrap();
        assert!(!report.recovered);
        assert_eq!(engine.read_line(7).unwrap(), [0u8; LINE]);
        engine.write_line(7, &line_of(0xAB)).unwrap();
        assert_eq!(engine.read_line(7).unwrap(), line_of(0xAB));
        let eid = engine.commit_epoch().unwrap();
        assert_eq!(eid, 1);
        engine.drain_persister().unwrap();
        let (sys, committed, persisted) = engine.frontiers();
        assert_eq!((sys, committed, persisted), (2, 1, 1));
        let stats = engine.close().unwrap();
        assert_eq!(stats.undo_entries, 1);
        assert_eq!(stats.commits, 1);
        assert_eq!(stats.persists, 1);
        assert_eq!(stats.line_writebacks, 1);
    }

    #[test]
    fn clean_reopen_recovers_everything_committed() {
        let cfg = small_cfg();
        let medium = medium_for(&cfg);
        {
            let (engine, _) =
                Engine::open(Arc::clone(&medium) as _, cfg.clone(), Telemetry::off()).unwrap();
            for e in 0..3u8 {
                engine.write_line(u32::from(e), &line_of(e + 1)).unwrap();
                engine.commit_epoch().unwrap();
            }
            engine.close().unwrap();
        }
        let survivor = Arc::new(CountingMedium::from_image(medium.surviving_image()));
        let (engine, report) = Engine::open(survivor, cfg, Telemetry::off()).unwrap();
        assert!(report.recovered);
        assert_eq!(report.recovered_to, 3);
        assert!(report.log_scan_ns > 0, "the log scan was not timed");
        assert!(report.log_scan_ns <= report.recovery_ns);
        for e in 0..3u8 {
            assert_eq!(engine.read_line(u32::from(e)).unwrap(), line_of(e + 1));
        }
        let (sys, _, persisted) = engine.frontiers();
        assert_eq!(sys, 4);
        assert_eq!(persisted, 3);
    }

    #[test]
    fn uncommitted_epoch_rolls_back_on_recovery() {
        let cfg = small_cfg();
        let medium = medium_for(&cfg);
        {
            let (engine, _) =
                Engine::open(Arc::clone(&medium) as _, cfg.clone(), Telemetry::off()).unwrap();
            engine.write_line(0, &line_of(1)).unwrap();
            engine.commit_epoch().unwrap();
            engine.drain_persister().unwrap();
            // Epoch 2 dirties line 0 again but never commits; the forced
            // persister writeback of epoch 1 already put epoch-2 bytes in
            // place, so recovery must roll them back via the undo log.
            engine.write_line(0, &line_of(9)).unwrap();
            // Force the entry durable so the crash has something to undo.
            let mut st = engine.lock();
            engine.shared.drain(&mut st, true).unwrap();
            drop(st);
            // Simulate the torn state: persist line 0's volatile (epoch 2)
            // bytes in place, as a later ACS pass would.
            engine
                .shared
                .medium
                .persist(engine.geometry().data_off(0), &line_of(9))
                .unwrap();
            engine.shared.medium.fence().unwrap();
            // Abandon without close: the kill.
        }
        let survivor = Arc::new(CountingMedium::from_image(medium.surviving_image()));
        let (engine, report) = Engine::open(survivor, cfg, Telemetry::off()).unwrap();
        assert!(report.recovered);
        assert_eq!(report.recovered_to, 1);
        assert!(report.entries_applied >= 1);
        assert_eq!(engine.read_line(0).unwrap(), line_of(1), "epoch 2 undone");
    }

    #[test]
    fn rollback_stops_at_a_dead_block_the_window_still_lists() {
        let cfg = small_cfg();
        let medium = medium_for(&cfg);
        {
            let (engine, _) =
                Engine::open(Arc::clone(&medium) as _, cfg.clone(), Telemetry::off()).unwrap();
            // Block 0 (max ValidTill 1) dies when epoch 1 persists, but
            // the superblock recorded the window's start before that GC.
            engine.write_line(0, &line_of(1)).unwrap();
            engine.write_line(1, &line_of(1)).unwrap();
            engine.commit_epoch().unwrap();
            engine.drain_persister().unwrap();
            // Block 1 (max ValidTill 2) protects an in-place epoch-2 write.
            engine.write_line(0, &line_of(9)).unwrap();
            let mut st = engine.lock();
            engine.shared.drain(&mut st, true).unwrap();
            drop(st);
            let off = engine.geometry().data_off(0);
            engine.shared.medium.persist(off, &line_of(9)).unwrap();
            engine.shared.medium.fence().unwrap();
        }
        let image = medium.surviving_image();
        let survivor = Arc::new(CountingMedium::from_image(image.clone()));
        let sb = Superblock::decode(&image[..SB_BYTES as usize]).unwrap();
        let blocks = scan_log(survivor.as_ref(), &sb).unwrap();
        assert_eq!(blocks.len(), 2, "the on-media window lists the dead block");
        // What a scan of every live block yields: each covering entry,
        // newest block first, each block's entries last to first.
        let point = EpochId(sb.persisted_eid);
        let mut want = image[DATA_OFFSET as usize..][..cfg.lines as usize * LINE].to_vec();
        for entry in blocks.iter().rev().flat_map(|b| b.entries.iter().rev()) {
            if entry.covers(point) {
                let at = entry.addr.raw() as usize * LINE;
                want[at..at + LINE].copy_from_slice(&entry.value);
            }
        }
        let (engine, report) = Engine::open(survivor, cfg.clone(), Telemetry::off()).unwrap();
        assert_eq!(report.recovered_to, 1);
        assert_eq!((report.blocks_scanned, report.entries_applied), (1, 1));
        for line in 0..cfg.lines {
            let at = line as usize * LINE;
            assert_eq!(engine.read_line(line).unwrap()[..], want[at..at + LINE]);
        }
        assert_eq!(engine.read_line(0).unwrap(), line_of(1), "epoch 2 undone");
    }

    /// A medium that counts the bytes read from it.
    struct ReadCounter {
        inner: CountingMedium,
        read: std::sync::atomic::AtomicU64,
    }

    impl PersistOps for ReadCounter {
        fn persist(&self, offset: u64, data: &[u8]) -> std::io::Result<()> {
            self.inner.persist(offset, data)
        }
        fn fence(&self) -> std::io::Result<()> {
            self.inner.fence()
        }
        fn read(&self, offset: u64, buf: &mut [u8]) -> std::io::Result<()> {
            self.read
                .fetch_add(buf.len() as u64, std::sync::atomic::Ordering::Relaxed);
            self.inner.read(offset, buf)
        }
        fn len(&self) -> u64 {
            self.inner.len()
        }
        fn stats(&self) -> PersistStats {
            self.inner.stats()
        }
    }

    #[test]
    fn a_reopen_reads_log_headers_and_only_live_spans() {
        let cfg = small_cfg();
        let medium = medium_for(&cfg);
        {
            let (engine, _) =
                Engine::open(Arc::clone(&medium) as _, cfg.clone(), Telemetry::off()).unwrap();
            // Epochs 1 and 2 persist, so epoch 1's block falls behind
            // the window; epoch 2's block stays in it, and uncommitted
            // epoch 3 forces three more.
            let drain = || {
                let mut st = engine.lock();
                engine.shared.drain(&mut st, true).unwrap();
            };
            for e in 1..=2u8 {
                for line in 0..8 {
                    engine.write_line(line, &line_of(e)).unwrap();
                }
                drain();
                engine.commit_epoch().unwrap();
                engine.drain_persister().unwrap();
            }
            for line in 0..6 {
                engine.write_line(line, &line_of(3)).unwrap();
                if line % 2 == 1 {
                    drain();
                }
            }
            engine.shared.medium.fence().unwrap();
        }
        let image = medium.surviving_image();
        let sb = Superblock::decode(&image[..SB_BYTES as usize]).unwrap();
        // A block of this generation behind the window: its header is
        // read, its entries are not.
        let behind = (0..u64::from(cfg.log_blocks))
            .filter_map(|slot| {
                log_block_span(
                    &image[sb.geometry.log_slot_off(slot) as usize..],
                    sb.generation,
                )
            })
            .filter(|&(seq, _)| seq < sb.log_start_seq)
            .count();
        assert_eq!(behind, 1);
        let counter = Arc::new(ReadCounter {
            inner: CountingMedium::from_image(image),
            read: Default::default(),
        });
        let blocks = scan_log(counter.as_ref(), &sb).unwrap();
        assert_eq!(blocks.len(), 4);
        let spans: u64 = blocks
            .iter()
            .map(|b| (b.entries.len() * crate::layout::ENTRY_BYTES) as u64)
            .sum();
        let headers = u64::from(cfg.log_blocks) * LOG_HEADER_BYTES as u64;
        let read = |c: &ReadCounter| c.read.swap(0, std::sync::atomic::Ordering::Relaxed);
        assert_eq!(read(&counter), headers + spans);
        // A reopen adds the superblock and the data region, nothing more.
        let (_engine, report) =
            Engine::open(Arc::clone(&counter) as _, cfg.clone(), Telemetry::off()).unwrap();
        assert!(report.recovered);
        let data = u64::from(cfg.lines) * LINE as u64;
        assert_eq!(read(&counter), SB_BYTES + data + headers + spans);
    }

    #[test]
    fn a_write_racing_the_copy_is_rolled_back() {
        // Line 3 ends epoch 1 holding 0x11. The persister copies it; then,
        // before the probe, epoch 2 overwrites it with 0x22. The probe
        // must find that write's entry buffered and fence it before the
        // line write, so a crash once epoch 1 has persisted still
        // recovers 0x11 — whichever value the copy caught.
        let cfg = small_cfg();
        let medium = medium_for(&cfg);
        let (engine, _) =
            Engine::open(Arc::clone(&medium) as _, cfg.clone(), Telemetry::off()).unwrap();
        engine.write_line(3, &line_of(0x11)).unwrap();
        let (paused, go) = pause_after_copy(&engine);
        engine.commit_epoch_async().unwrap();
        paused
            .recv_timeout(Duration::from_secs(10))
            .expect("the persister never copied epoch 1");
        engine.write_line(3, &line_of(0x22)).unwrap();
        go.send(()).unwrap();
        engine.drain_persister().unwrap();
        let stats = engine.stats();
        // The kill: only fenced bytes survive.
        let survivor = Arc::new(CountingMedium::from_image(medium.surviving_image()));
        drop(engine);
        let (engine, report) = Engine::open(survivor, cfg, Telemetry::off()).unwrap();
        assert_eq!(report.recovered_to, 1);
        assert_eq!(
            engine.read_line(3).unwrap(),
            line_of(0x11),
            "line 3 lost its end-of-epoch-1 value"
        );
        assert_eq!(stats.forced_drains, 1, "the probe missed the racing entry");
    }

    /// The persister fences a [`GatedMedium`] parks in.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Fenced {
        Block,
        Superblock,
    }

    #[derive(Default)]
    struct Gate {
        /// Fences still to park in, in order.
        armed: VecDeque<Fenced>,
        parked: Option<Fenced>,
        released: bool,
        /// Parks that ran out of time before the test released them.
        timed_out: Vec<Fenced>,
        /// The persister thread's medium ops: `Some(offset)` per persist,
        /// `None` per fence.
        ops: Vec<Option<u64>>,
    }

    /// A medium that parks the persister inside chosen fences until the
    /// test releases it, or three seconds pass.
    struct GatedMedium {
        inner: CountingMedium,
        /// Where the log region starts; the data region ends there.
        log_off: u64,
        gate: Mutex<Gate>,
        cv: Condvar,
    }

    impl GatedMedium {
        fn on_persister() -> bool {
            std::thread::current().name() == Some("picl-store-persister")
        }

        /// Blocks until the persister parks in `fence`.
        fn await_park(&self, fence: Fenced) {
            let gate = self.gate.lock().unwrap();
            let (gate, wait) = self
                .cv
                .wait_timeout_while(gate, Duration::from_secs(10), |g| g.parked != Some(fence))
                .unwrap();
            drop(gate);
            assert!(
                !wait.timed_out(),
                "the persister never reached its {fence:?} fence"
            );
        }

        fn release(&self) {
            self.gate.lock().unwrap().released = true;
            self.cv.notify_all();
        }
    }

    impl PersistOps for GatedMedium {
        fn persist(&self, offset: u64, data: &[u8]) -> std::io::Result<()> {
            if Self::on_persister() {
                self.gate.lock().unwrap().ops.push(Some(offset));
            }
            self.inner.persist(offset, data)
        }

        fn fence(&self) -> std::io::Result<()> {
            if Self::on_persister() {
                let mut gate = self.gate.lock().unwrap();
                let fence = match gate.ops.last() {
                    Some(Some(0)) => Some(Fenced::Superblock),
                    Some(Some(off)) if *off >= self.log_off => Some(Fenced::Block),
                    _ => None,
                };
                gate.ops.push(None);
                if fence.is_some() && gate.armed.front().copied() == fence {
                    gate.armed.pop_front();
                    gate.parked = fence;
                    self.cv.notify_all();
                    let (mut gate, wait) = self
                        .cv
                        .wait_timeout_while(gate, Duration::from_secs(3), |g| !g.released)
                        .unwrap();
                    if wait.timed_out() {
                        gate.timed_out.extend(fence);
                    }
                    gate.released = false;
                    gate.parked = None;
                }
            }
            self.inner.fence()
        }

        fn read(&self, offset: u64, buf: &mut [u8]) -> std::io::Result<()> {
            self.inner.read(offset, buf)
        }

        fn len(&self) -> u64 {
            self.inner.len()
        }

        fn stats(&self) -> PersistStats {
            self.inner.stats()
        }
    }

    #[test]
    fn persister_fences_run_with_the_mutex_free() {
        // The persister parks inside its forced block's fence, then inside
        // the superblock's; each time a write must complete before the
        // park is released. A write that needed the protocol mutex while
        // the persister held it would run the park out of time.
        let cfg = small_cfg();
        let geometry = Geometry {
            lines: cfg.lines,
            log_blocks: cfg.log_blocks,
        };
        let medium = Arc::new(GatedMedium {
            inner: CountingMedium::new(geometry.total_len()),
            log_off: geometry.log_slot_off(0),
            gate: Mutex::default(),
            cv: Condvar::new(),
        });
        let (engine, _) = Engine::open(Arc::clone(&medium) as _, cfg, Telemetry::off()).unwrap();
        for line in 0..4 {
            engine.write_line(line, &line_of(1)).unwrap();
        }
        medium
            .gate
            .lock()
            .unwrap()
            .armed
            .extend([Fenced::Block, Fenced::Superblock]);
        let (paused, go) = pause_after_copy(&engine);
        engine.commit_epoch_async().unwrap();
        paused
            .recv_timeout(Duration::from_secs(10))
            .expect("the persister never copied epoch 1");
        // Epoch 2 rewrites a copied line: the probe must seal its entry.
        engine.write_line(0, &line_of(2)).unwrap();
        go.send(()).unwrap();
        for (fence, line) in [(Fenced::Block, 10), (Fenced::Superblock, 11)] {
            medium.await_park(fence);
            engine.write_line(line, &line_of(3)).unwrap();
            medium.release();
        }
        engine.drain_persister().unwrap();
        let gate = medium.gate.lock().unwrap();
        assert!(
            gate.timed_out.is_empty(),
            "a write waited out the persister's {:?} fence: the protocol mutex was held across it",
            gate.timed_out
        );
        let block_fence = gate
            .ops
            .windows(2)
            .position(|w| matches!(w, [Some(off), None] if *off >= medium.log_off))
            .expect("the persister fenced no forced block")
            + 1;
        let line_writes: Vec<usize> = (0..gate.ops.len())
            .filter(|&i| matches!(gate.ops[i], Some(off) if (DATA_OFFSET..medium.log_off).contains(&off)))
            .collect();
        assert_eq!(line_writes.len(), 4, "ops: {:?}", gate.ops);
        assert!(
            line_writes.iter().all(|&i| i > block_fence),
            "a line was written in place before the sealed block's fence: {:?}",
            gate.ops
        );
        drop(gate);
        engine.close().unwrap();
    }

    #[test]
    fn mutex_timers_cover_every_site() {
        let cfg = small_cfg();
        let medium = medium_for(&cfg);
        let (engine, _) = Engine::open(medium, cfg, Telemetry::off()).unwrap();
        let registry = picl_obs::MetricsRegistry::new();
        engine.enable_obs(&registry);
        for e in 0..4u8 {
            for line in 0..16 {
                engine.write_line(line, &line_of(e)).unwrap();
            }
            engine.commit_epoch().unwrap();
        }
        engine.drain_persister().unwrap();
        let snap = registry.snapshot();
        let count = |name: &str, site: LockSite| {
            let h = snap.histogram(name, &[("site", site.label())]);
            h.unwrap_or_else(|| panic!("{name}{{site={}}} missing", site.label()))
                .count()
        };
        let timed = |site| {
            let waits = count("picl_store_mutex_wait_ns", site);
            assert_eq!(waits, count("picl_store_mutex_hold_ns", site), "{site:?}");
            waits
        };
        // 64 writes from one thread hold exactly 64 / 8 sampled ones.
        assert_eq!(
            timed(LockSite::Writer),
            64 / crate::obs::WRITER_SAMPLE_EVERY
        );
        assert_eq!(timed(LockSite::Commit), 4);
        let cycles = timed(LockSite::PersisterProbe);
        assert!((1..=4).contains(&cycles), "{cycles} persister cycles");
        assert_eq!(timed(LockSite::PersisterFrontier), 2 * cycles);
        engine.close().unwrap();
    }

    #[test]
    fn window_bounds_commit_minus_persist() {
        let cfg = EngineConfig {
            window: 2,
            log_blocks: 32,
            ..small_cfg()
        };
        let medium = medium_for(&cfg);
        let (engine, _) = Engine::open(medium, cfg, Telemetry::off()).unwrap();
        for e in 0..20u32 {
            engine.write_line(e % 8, &line_of(e as u8)).unwrap();
            engine.commit_epoch().unwrap();
            let (_, committed, persisted) = engine.frontiers();
            assert!(
                committed - persisted <= 2,
                "window violated: committed {committed}, persisted {persisted}"
            );
        }
        engine.close().unwrap();
    }

    #[test]
    fn async_commit_defers_the_window_wait() {
        let cfg = EngineConfig {
            window: 2,
            log_blocks: 32,
            persist_stall_ms: 20,
            ..small_cfg()
        };
        let medium = medium_for(&cfg);
        let (engine, _) = Engine::open(medium, cfg, Telemetry::off()).unwrap();
        // With the persister stalled 20 ms per epoch (the stall needs a
        // batch of at least two lines), phase-one commits must return
        // immediately and report when the window fills; only wait_window
        // blocks.
        let mut full_seen = false;
        for e in 0..6u32 {
            engine.write_line(e % 8, &line_of(e as u8)).unwrap();
            engine.write_line((e + 1) % 8, &line_of(e as u8)).unwrap();
            let t0 = std::time::Instant::now();
            let ticket = engine.commit_epoch_async().unwrap();
            assert_eq!(ticket.eid, u64::from(e) + 1);
            assert!(
                t0.elapsed() < std::time::Duration::from_millis(15),
                "phase one stalled on the persister"
            );
            if ticket.window_full {
                full_seen = true;
                engine.wait_window(ticket).unwrap();
                let (_, committed, persisted) = engine.frontiers();
                assert!(committed - persisted <= 2, "wait_window under-waited");
            }
        }
        assert!(full_seen, "a 20 ms persist stall never filled window 2");
        // A ticket whose window already drained returns immediately.
        engine.drain_persister().unwrap();
        let ticket = engine.commit_epoch_async().unwrap();
        engine.wait_window(ticket).unwrap();
        engine.close().unwrap();
    }

    #[test]
    fn image_holds_exactly_its_lines() {
        // 1000 lines split unevenly over the 16 key-shard partitions; both
        // the fresh and the recovered image hold one line's words and one
        // sequence number per line, and nothing more.
        let cfg = EngineConfig {
            lines: 1000,
            log_blocks: 160,
            ..EngineConfig::default()
        };
        let check = |engine: &Engine| {
            let image = &engine.shared.image;
            assert_eq!(image.words.len(), 1000 * LINE_WORDS);
            assert_eq!(std::mem::size_of_val(&*image.words), 1000 * LINE);
            assert_eq!(image.seqs.len(), 1000);
        };
        let medium = medium_for(&cfg);
        let (engine, _) =
            Engine::open(Arc::clone(&medium) as _, cfg.clone(), Telemetry::off()).unwrap();
        check(&engine);
        engine.close().unwrap();
        let survivor = Arc::new(CountingMedium::from_image(medium.surviving_image()));
        let (reopened, report) = Engine::open(survivor, cfg, Telemetry::off()).unwrap();
        assert!(report.recovered);
        check(&reopened);
    }

    #[test]
    fn concurrent_reads_never_see_a_torn_line() {
        let cfg = small_cfg();
        let medium = medium_for(&cfg);
        let (engine, _) = Engine::open(medium, cfg, Telemetry::off()).unwrap();
        engine.write_line(5, &line_of(0xAA)).unwrap();
        let done = AtomicBool::new(false);
        let start = std::sync::Barrier::new(3);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    start.wait();
                    loop {
                        let got = engine.read_line(5).unwrap();
                        assert!(got.iter().all(|&b| b == got[0]), "torn line: {got:?}");
                        if done.load(Ordering::Acquire) {
                            break;
                        }
                    }
                });
            }
            start.wait();
            // 2M writes: at 200k, an image with the seqlock re-check
            // removed passed three runs in four with optimizations on.
            for i in 0..2_000_000u32 {
                let fill = if i % 2 == 0 { 0x55 } else { 0xAA };
                engine.write_line(5, &line_of(fill)).unwrap();
            }
            done.store(true, Ordering::Release);
        });
        engine.close().unwrap();
    }

    #[test]
    fn medium_death_surfaces_as_errors_everywhere() {
        let cfg = small_cfg();
        let medium = medium_for(&cfg);
        let (engine, _) = Engine::open(Arc::clone(&medium) as _, cfg, Telemetry::off()).unwrap();
        engine.write_line(0, &line_of(1)).unwrap();
        engine.commit_epoch().unwrap();
        engine.drain_persister().unwrap();
        let ops_so_far = medium.stats().persists + medium.stats().fences;
        medium.kill_at_op(ops_so_far); // the very next medium op dies
        engine.write_line(1, &line_of(2)).unwrap();
        let err = engine.commit_epoch();
        // The commit itself (drain) or the persister hits the dead medium;
        // either way the engine is now wedged and says so.
        let wedged = err.is_err() || engine.drain_persister().is_err();
        assert!(wedged, "death not observed");
        assert!(matches!(engine.close(), Err(StoreError::Io(_))));
    }

    #[test]
    fn corrupt_superblock_is_rejected() {
        // Older superblocks are well formed, but a version-1 file's log
        // blocks carry the old checksum and would all read as torn
        // (opening it would silently skip the rollback), and a version-2
        // file's records would decode at the unpacked head's offsets.
        let older = |version: u32| {
            let mut sb = Superblock {
                geometry: Geometry {
                    lines: 64,
                    log_blocks: 16,
                },
                persisted_eid: 3,
                generation: 1,
                log_start_seq: 0,
                log_head_seq: 2,
            }
            .encode();
            sb[8..12].copy_from_slice(&version.to_le_bytes());
            let sum = picl_types::hash::fnv1a_64(&sb[..56]);
            sb[56..].copy_from_slice(&sum.to_le_bytes());
            sb
        };
        for head in [[0xFFu8; 64], older(1), older(2)] {
            let cfg = small_cfg();
            let medium = medium_for(&cfg);
            medium.persist(0, &head).unwrap();
            medium.fence().unwrap();
            let err = Engine::open(medium, cfg, Telemetry::off()).unwrap_err();
            assert!(matches!(err, StoreError::Corrupt(_)), "{err:?}");
        }
    }

    #[test]
    fn corrupt_log_entries_fail_recovery_as_corrupt() {
        // Checksummed blocks of the live generation holding entries the
        // engine never writes: a line past the 64-line data region, and
        // an empty validity range. Both cover the persist frontier.
        for (line, from, till) in [(1000, 0, 1), (3, 1, 1)] {
            let cfg = small_cfg();
            let medium = medium_for(&cfg);
            let (engine, _) =
                Engine::open(Arc::clone(&medium) as _, cfg.clone(), Telemetry::off()).unwrap();
            let geometry = engine.geometry();
            engine.close().unwrap();
            let entry = UndoEntry {
                addr: LineAddr::new(line),
                value: line_of(7),
                valid_from: EpochId(from),
                valid_till: EpochId(till),
            };
            let block = encode_log_block(1, 0, &[entry]);
            medium.persist(geometry.log_slot_off(0), &block).unwrap();
            medium.fence().unwrap();
            let survivor = Arc::new(CountingMedium::from_image(medium.surviving_image()));
            let err = Engine::open(survivor, cfg, Telemetry::off()).unwrap_err();
            assert!(
                matches!(err, StoreError::Corrupt(_)),
                "line {line} valid {from}..{till}: {err:?}"
            );
        }
    }

    #[test]
    fn telemetry_stream_is_ordered_and_complete() {
        let cfg = small_cfg();
        let medium = medium_for(&cfg);
        let telemetry = Telemetry::new(0, 1 << 14);
        let (engine, _) = Engine::open(medium, cfg, telemetry.clone()).unwrap();
        for e in 0..4u32 {
            engine.write_line(e, &line_of(1)).unwrap();
            engine.write_line(e, &line_of(2)).unwrap(); // second write: no new entry
            engine.commit_epoch().unwrap();
        }
        engine.drain_persister().unwrap();
        engine.close().unwrap();
        let snap = telemetry.snapshot();
        assert_eq!(snap.dropped, 0);
        let mut last = 0;
        for ev in &snap.events {
            assert!(ev.at.raw() > last, "ticks strictly increase");
            last = ev.at.raw();
        }
        let count = |pred: &dyn Fn(&EventKind) -> bool| {
            snap.events.iter().filter(|e| pred(&e.kind)).count()
        };
        assert_eq!(count(&|k| matches!(k, EventKind::EpochCommit { .. })), 4);
        assert_eq!(count(&|k| matches!(k, EventKind::EpochPersist { .. })), 4);
        assert_eq!(
            count(&|k| matches!(k, EventKind::UndoEntryAppended { .. })),
            4,
            "one entry per (line, epoch) despite double writes"
        );
    }
}
