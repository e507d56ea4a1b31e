//! The benchmark's medium stack and the spans recorded at its seam.
//!
//! Every kv workload stores onto `Timed<LatencyMedium<Shared>>`:
//! [`Shared`] keeps a handle on the in-memory [`CountingMedium`] so the
//! durability check can read back the fenced image, `LatencyMedium`
//! charges Makalu's emulated PCM costs, and [`Timed`] records each call
//! when a traced pass switches it on.
//!
//! A session thread marks the op it is running with [`begin_op`]; a
//! medium call on that thread becomes a child span of the op. Calls on
//! the store's persister thread hang off one `persister` root instead.

use std::cell::{Cell, RefCell};
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use picl_store::persist::{CountingMedium, PersistOps, PersistStats};

/// The name the store gives its background persister thread.
const PERSISTER_THREAD: &str = "picl-store-persister";

/// Spans kept per group: the slowest ops, and the slowest persister calls
/// under the `persister` root.
pub const KEEP_SLOWEST: usize = 1000;

/// Nanoseconds since the first call in this process: the one time base
/// every span shares.
pub fn clock_ns() -> u64 {
    static BASE: OnceLock<Instant> = OnceLock::new();
    BASE.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// A shared handle on the in-memory medium, so the benchmark can still
/// reach [`CountingMedium::surviving_image`] after the store takes the
/// medium stack.
#[derive(Debug, Clone)]
pub struct Shared(pub Arc<CountingMedium>);

impl PersistOps for Shared {
    fn persist(&self, offset: u64, data: &[u8]) -> io::Result<()> {
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

/// Which medium call a span records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallKind {
    /// `persist` (clflush of a range).
    Persist,
    /// `fence` (sfence + drain).
    Fence,
}

impl CallKind {
    /// Lower-case name for span files.
    pub fn name(self) -> &'static str {
        match self {
            CallKind::Persist => "persist",
            CallKind::Fence => "fence",
        }
    }
}

/// One recorded medium call.
#[derive(Debug, Clone, Copy)]
pub struct CallSpan {
    /// Persist or fence.
    pub kind: CallKind,
    /// Bytes persisted (0 for a fence).
    pub bytes: u64,
    /// Start, on the [`clock_ns`] time base.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

/// Totals of medium calls made by one group of threads.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CallTally {
    /// `persist` calls.
    pub persists: u64,
    /// `fence` calls.
    pub fences: u64,
    /// Bytes persisted.
    pub bytes: u64,
    /// Nanoseconds spent in `persist`.
    pub persist_ns: u64,
    /// Nanoseconds spent in `fence`.
    pub fence_ns: u64,
}

impl CallTally {
    fn add(&mut self, span: &CallSpan) {
        match span.kind {
            CallKind::Persist => {
                self.persists += 1;
                self.persist_ns += span.dur_ns;
            }
            CallKind::Fence => {
                self.fences += 1;
                self.fence_ns += span.dur_ns;
            }
        }
        self.bytes += span.bytes;
    }

    /// Folds `other` in.
    pub fn merge(&mut self, other: &CallTally) {
        self.persists += other.persists;
        self.fences += other.fences;
        self.bytes += other.bytes;
        self.persist_ns += other.persist_ns;
        self.fence_ns += other.fence_ns;
    }

    /// Time spent in the medium.
    pub fn busy_ns(&self) -> u64 {
        self.persist_ns + self.fence_ns
    }
}

thread_local! {
    /// The op this session thread is running (0 = none).
    static CURRENT_OP: Cell<u64> = const { Cell::new(0) };
    /// Medium calls made by the current op.
    static OP_CHILDREN: RefCell<Vec<CallSpan>> = const { RefCell::new(Vec::new()) };
    /// Medium calls made by this thread's ops since the last take.
    static FG_TALLY: Cell<CallTally> = Cell::new(CallTally::default());
}

/// Marks this thread as running op `id` (nonzero) and clears its child
/// spans.
pub fn begin_op(id: u64) {
    CURRENT_OP.with(|c| c.set(id));
    OP_CHILDREN.with(|c| c.borrow_mut().clear());
}

/// Marks this thread as idle again.
pub fn end_op() {
    CURRENT_OP.with(|c| c.set(0));
}

/// The medium calls the op most recently run on this thread made.
pub fn op_children() -> Vec<CallSpan> {
    OP_CHILDREN.with(|c| c.borrow().clone())
}

/// Returns and resets this thread's foreground tally.
pub fn take_fg_tally() -> CallTally {
    FG_TALLY.with(|t| t.replace(CallTally::default()))
}

/// The [`KEEP_SLOWEST`] slowest items offered, kept in amortized O(1):
/// items are collected up to twice that, then cut back, raising the
/// admission floor to the slowest item dropped.
#[derive(Debug, Clone)]
pub struct Slowest<T> {
    items: Vec<(u64, T)>,
    floor: u64,
}

impl<T> Default for Slowest<T> {
    fn default() -> Self {
        Slowest {
            items: Vec::new(),
            floor: 0,
        }
    }
}

impl<T> Slowest<T> {
    /// Whether an item lasting `dur_ns` could be kept (callers skip
    /// building items that could not).
    pub fn admits(&self, dur_ns: u64) -> bool {
        dur_ns > self.floor
    }

    /// Offers an item lasting `dur_ns`.
    pub fn push(&mut self, dur_ns: u64, item: T) {
        self.items.push((dur_ns, item));
        if self.items.len() >= 2 * KEEP_SLOWEST {
            self.cut();
            self.floor = self.items.last().map_or(0, |(d, _)| *d);
        }
    }

    /// Folds in another set's items.
    pub fn merge(&mut self, other: Slowest<T>) {
        self.items.extend(other.items);
        self.floor = self.floor.max(other.floor);
        self.cut();
    }

    fn cut(&mut self) {
        self.items.sort_by_key(|item| std::cmp::Reverse(item.0));
        self.items.truncate(KEEP_SLOWEST);
    }

    /// The kept items, slowest first.
    pub fn sorted(mut self) -> Vec<T> {
        self.cut();
        self.items.into_iter().map(|(_, item)| item).collect()
    }
}

/// What the persister thread did while recording was on.
#[derive(Debug, Clone, Default)]
pub struct BgRecord {
    /// Totals.
    pub tally: CallTally,
    /// The slowest calls.
    pub slowest: Slowest<CallSpan>,
}

/// The benchmark's [`PersistOps`] wrapper: forwards every call and, while
/// recording, times it and files the span under the running op or the
/// persister root.
#[derive(Debug)]
pub struct Timed<M> {
    inner: M,
    recording: AtomicBool,
    bg: Mutex<BgRecord>,
}

impl<M: PersistOps> Timed<M> {
    /// Wraps `inner`, not recording.
    pub fn new(inner: M) -> Timed<M> {
        Timed {
            inner,
            recording: AtomicBool::new(false),
            bg: Mutex::new(BgRecord::default()),
        }
    }

    /// Starts or stops recording spans.
    pub fn set_recording(&self, on: bool) {
        self.recording.store(on, Ordering::SeqCst);
    }

    /// The persister's record so far.
    pub fn bg_record(&self) -> BgRecord {
        self.bg.lock().expect("bg record poisoned").clone()
    }

    fn file(&self, span: CallSpan) {
        if CURRENT_OP.with(Cell::get) != 0 {
            OP_CHILDREN.with(|c| c.borrow_mut().push(span));
            FG_TALLY.with(|t| {
                let mut tally = t.get();
                tally.add(&span);
                t.set(tally);
            });
        } else if std::thread::current().name() == Some(PERSISTER_THREAD) {
            let mut bg = self.bg.lock().expect("bg record poisoned");
            bg.tally.add(&span);
            if bg.slowest.admits(span.dur_ns) {
                bg.slowest.push(span.dur_ns, span);
            }
        }
    }

    fn timed<T>(&self, kind: CallKind, bytes: u64, call: impl FnOnce() -> T) -> T {
        if !self.recording.load(Ordering::Relaxed) {
            return call();
        }
        let start_ns = clock_ns();
        let out = call();
        let dur_ns = clock_ns() - start_ns;
        self.file(CallSpan {
            kind,
            bytes,
            start_ns,
            dur_ns,
        });
        out
    }
}

impl<M: PersistOps> PersistOps for Timed<M> {
    fn persist(&self, offset: u64, data: &[u8]) -> io::Result<()> {
        self.timed(CallKind::Persist, data.len() as u64, || {
            self.inner.persist(offset, data)
        })
    }

    fn fence(&self) -> io::Result<()> {
        self.timed(CallKind::Fence, 0, || self.inner.fence())
    }

    fn read(&self, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        self.inner.read(offset, buf)
    }

    fn len(&self) -> u64 {
        self.inner.len()
    }

    fn stats(&self) -> PersistStats {
        self.inner.stats()
    }
}
