//! The persistence boundary: [`PersistOps`] and its three media.
//!
//! The engine never touches its backing medium directly; every durable
//! byte flows through this trait, which models the x86 persistence
//! primitives the paper assumes:
//!
//! * [`PersistOps::persist`] — `clflush`/`clwb` of a byte range: the write
//!   is *issued* but not yet guaranteed durable;
//! * [`PersistOps::fence`] — `sfence` + drain: everything persisted before
//!   the fence is durable once it returns.
//!
//! Three interchangeable media implement the trait:
//!
//! * [`FileMedium`] — a plain file: `persist` is a positioned write into
//!   the page cache, `fence` is `fdatasync`. The moral equivalent of an
//!   msync-backed mmap without requiring libc.
//! * [`LatencyMedium`] — wraps any medium and spin-waits a configured
//!   number of nanoseconds per operation, the way Makalu's
//!   `emulate_latency_ns` models PCM write latency on DRAM.
//! * [`CountingMedium`] — in-memory, counts every operation, and can be
//!   scheduled to *die* at an exact operation index. Writes issued after
//!   the last fence are discarded at death, which is the adversarial
//!   power-failure model: a kill between fences loses exactly the
//!   unfenced suffix. Recovery tests run against the surviving image.

use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Operation counters every medium keeps.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PersistStats {
    /// `persist` calls issued.
    pub persists: u64,
    /// `fence` calls issued.
    pub fences: u64,
    /// Bytes written across all persists.
    pub bytes_persisted: u64,
}

/// The pluggable `clflush`/`sfence` emulation layer.
pub trait PersistOps: Send + Sync {
    /// Issues a write of `data` at byte `offset`. Durability is only
    /// guaranteed after a subsequent [`PersistOps::fence`].
    ///
    /// # Errors
    ///
    /// Fails if the medium is dead or the backing store rejects the write.
    fn persist(&self, offset: u64, data: &[u8]) -> io::Result<()>;

    /// Drains all previously issued writes to durable media.
    ///
    /// # Errors
    ///
    /// Fails if the medium is dead or the sync fails.
    fn fence(&self) -> io::Result<()>;

    /// Reads `buf.len()` bytes at `offset` (used only at open/recovery).
    ///
    /// # Errors
    ///
    /// Fails if the medium is dead or the read is out of range.
    fn read(&self, offset: u64, buf: &mut [u8]) -> io::Result<()>;

    /// Total capacity in bytes.
    fn len(&self) -> u64;

    /// Whether the medium holds zero bytes.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Operation counters so far.
    fn stats(&self) -> PersistStats;
}

fn range_check(offset: u64, len: usize, cap: u64) -> io::Result<()> {
    let end = offset
        .checked_add(len as u64)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "offset overflow"))?;
    if end > cap {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("access [{offset}, {end}) beyond medium of {cap} bytes"),
        ));
    }
    Ok(())
}

/// A plain file as the NVM region: positioned writes + `fdatasync`.
#[derive(Debug)]
pub struct FileMedium {
    file: std::fs::File,
    len: u64,
    persists: AtomicU64,
    fences: AtomicU64,
    bytes: AtomicU64,
}

impl FileMedium {
    /// Opens (creating if absent) `path` and sizes it to exactly `len`
    /// bytes. A fresh file reads as zeros.
    ///
    /// # Errors
    ///
    /// Fails if the file cannot be opened or resized.
    pub fn open(path: &std::path::Path, len: u64) -> io::Result<FileMedium> {
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        if file.metadata()?.len() != len {
            file.set_len(len)?;
        }
        Ok(FileMedium {
            file,
            len,
            persists: AtomicU64::new(0),
            fences: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
        })
    }

    /// Opens an existing file at whatever size it has.
    ///
    /// # Errors
    ///
    /// Fails if the file does not exist or cannot be opened read-write.
    pub fn open_existing(path: &std::path::Path) -> io::Result<FileMedium> {
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)?;
        let len = file.metadata()?.len();
        Ok(FileMedium {
            file,
            len,
            persists: AtomicU64::new(0),
            fences: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
        })
    }
}

impl PersistOps for FileMedium {
    fn persist(&self, offset: u64, data: &[u8]) -> io::Result<()> {
        use std::os::unix::fs::FileExt;
        range_check(offset, data.len(), self.len)?;
        self.file.write_all_at(data, offset)?;
        self.persists.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(data.len() as u64, Ordering::Relaxed);
        Ok(())
    }

    fn fence(&self) -> io::Result<()> {
        self.file.sync_data()?;
        self.fences.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    fn read(&self, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        use std::os::unix::fs::FileExt;
        range_check(offset, buf.len(), self.len)?;
        self.file.read_exact_at(buf, offset)
    }

    fn len(&self) -> u64 {
        self.len
    }

    fn stats(&self) -> PersistStats {
        PersistStats {
            persists: self.persists.load(Ordering::Relaxed),
            fences: self.fences.load(Ordering::Relaxed),
            bytes_persisted: self.bytes.load(Ordering::Relaxed),
        }
    }
}

/// Injected NVM latencies, after Makalu's `emulate_latency_ns`: a spin
/// (not a sleep — sleeps have far coarser granularity than PCM writes)
/// charged per persist and per fence.
#[derive(Debug)]
pub struct LatencyMedium<M> {
    inner: M,
    /// Nanoseconds charged per `persist` (Makalu charges 340 ns per
    /// `clflush` in PCM mode).
    pub persist_ns: u64,
    /// Nanoseconds charged per `fence` (Makalu charges 500 ns per
    /// `mfence` in PCM mode).
    pub fence_ns: u64,
}

impl<M: PersistOps> LatencyMedium<M> {
    /// Wraps `inner`, charging the given latencies.
    pub fn new(inner: M, persist_ns: u64, fence_ns: u64) -> Self {
        LatencyMedium {
            inner,
            persist_ns,
            fence_ns,
        }
    }

    fn spin(ns: u64) {
        if ns == 0 {
            return;
        }
        let start = std::time::Instant::now();
        let target = std::time::Duration::from_nanos(ns);
        while start.elapsed() < target {
            std::hint::spin_loop();
        }
    }
}

impl<M: PersistOps> PersistOps for LatencyMedium<M> {
    fn persist(&self, offset: u64, data: &[u8]) -> io::Result<()> {
        self.inner.persist(offset, data)?;
        Self::spin(self.persist_ns);
        Ok(())
    }

    fn fence(&self) -> io::Result<()> {
        self.inner.fence()?;
        Self::spin(self.fence_ns);
        Ok(())
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

#[derive(Debug)]
struct CountingState {
    /// Durable image: reflects everything up to the last fence. Empty
    /// once [`CountingMedium::surviving_image`] has handed it over.
    image: Vec<u8>,
    /// Capacity in bytes, which outlives the image.
    len: u64,
    /// The bytes of every write issued since the last fence, back to
    /// back. Lost if the medium dies before the next fence.
    pending: Vec<u8>,
    /// Those writes in issue order: `(offset, start, len)`, where
    /// `start..start + len` indexes `pending`.
    spans: Vec<(usize, usize, usize)>,
    stats: PersistStats,
    /// Die when the (persist + fence) op counter reaches this value.
    kill_at_op: Option<u64>,
    dead: bool,
    /// Set once [`CountingMedium::surviving_image`] has moved `image` out.
    handed_over: bool,
}

impl CountingState {
    /// Power fails: the medium stops accepting work and every unfenced
    /// write is lost.
    fn die(&mut self) {
        self.dead = true;
        self.pending = Vec::new();
        self.spans = Vec::new();
    }

    fn check_alive(&self) -> io::Result<()> {
        if self.dead {
            return Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "medium is dead (injected power failure)",
            ));
        }
        Ok(())
    }
}

/// In-memory medium with exact operation counting and scheduled death.
///
/// Death semantics are the adversarial power-failure model: at the fatal
/// operation the medium stops accepting work *and discards every write
/// issued since the last completed fence*. [`CountingMedium::surviving_image`]
/// cuts the power itself and hands over what a recovery sees.
#[derive(Debug)]
pub struct CountingMedium {
    state: Mutex<CountingState>,
}

impl CountingMedium {
    /// A zero-filled medium of `len` bytes.
    pub fn new(len: u64) -> CountingMedium {
        CountingMedium::from_image(vec![0u8; len as usize])
    }

    /// A medium whose durable image starts as `image` (e.g. the survivor
    /// of an earlier death, for recovery testing). The medium keeps this
    /// allocation and writes fenced bytes into it.
    pub fn from_image(image: Vec<u8>) -> CountingMedium {
        CountingMedium {
            state: Mutex::new(CountingState {
                len: image.len() as u64,
                image,
                pending: Vec::new(),
                spans: Vec::new(),
                stats: PersistStats::default(),
                kill_at_op: None,
                dead: false,
                handed_over: false,
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, CountingState> {
        self.state.lock().expect("counting medium poisoned")
    }

    /// Schedules death at operation index `op` (0-based over the combined
    /// persist+fence sequence): the op that would be number `op` fails
    /// instead of executing, and unfenced writes are dropped.
    pub fn kill_at_op(&self, op: u64) {
        self.lock().kill_at_op = Some(op);
    }

    /// Whether the medium has died (by schedule or by
    /// [`CountingMedium::surviving_image`]).
    pub fn is_dead(&self) -> bool {
        self.lock().dead
    }

    /// Cuts the power and hands over the durable bytes: everything fenced
    /// before death or now. The medium dies if it has not already, its
    /// unfenced writes are dropped, and the image it was built on moves
    /// out without a copy; every later `persist`, `fence` and `read`
    /// fails.
    ///
    /// # Panics
    ///
    /// On a second call: the image was already handed over.
    pub fn surviving_image(&self) -> Vec<u8> {
        let mut state = self.lock();
        assert!(!state.handed_over, "surviving image already handed over");
        state.handed_over = true;
        state.die();
        std::mem::take(&mut state.image)
    }

    fn begin_op(state: &mut CountingState) -> io::Result<()> {
        state.check_alive()?;
        let op_index = state.stats.persists + state.stats.fences;
        if state.kill_at_op == Some(op_index) {
            state.die();
            return Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                format!("injected power failure at persist-op {op_index}"),
            ));
        }
        Ok(())
    }
}

impl PersistOps for CountingMedium {
    fn persist(&self, offset: u64, data: &[u8]) -> io::Result<()> {
        let mut state = self.lock();
        Self::begin_op(&mut state)?;
        range_check(offset, data.len(), state.len)?;
        let start = state.pending.len();
        state.pending.extend_from_slice(data);
        state.spans.push((offset as usize, start, data.len()));
        state.stats.persists += 1;
        state.stats.bytes_persisted += data.len() as u64;
        Ok(())
    }

    fn fence(&self) -> io::Result<()> {
        let mut state = self.lock();
        Self::begin_op(&mut state)?;
        let CountingState {
            image,
            pending,
            spans,
            ..
        } = &mut *state;
        for &(at, start, len) in spans.iter() {
            image[at..at + len].copy_from_slice(&pending[start..start + len]);
        }
        pending.clear();
        spans.clear();
        state.stats.fences += 1;
        Ok(())
    }

    fn read(&self, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        let state = self.lock();
        state.check_alive()?;
        range_check(offset, buf.len(), state.len)?;
        // Reads see issued-but-unfenced writes, like a CPU reading its own
        // store buffer; only *durability* waits for the fence.
        let at = offset as usize;
        buf.copy_from_slice(&state.image[at..at + buf.len()]);
        for &(woff, start, len) in &state.spans {
            let (ra, rb) = (at, at + buf.len());
            if woff + len <= ra || woff >= rb {
                continue;
            }
            let from = woff.max(ra);
            let to = (woff + len).min(rb);
            buf[from - ra..to - ra]
                .copy_from_slice(&state.pending[start + from - woff..start + to - woff]);
        }
        Ok(())
    }

    fn len(&self) -> u64 {
        self.lock().len
    }

    fn stats(&self) -> PersistStats {
        self.lock().stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_medium_fences_make_writes_durable() {
        // Power cut before the fence: the write is lost.
        let cut_early = CountingMedium::new(128);
        cut_early.persist(0, &[1, 2, 3]).unwrap();
        let image = cut_early.surviving_image();
        assert_eq!(image[0], 0, "unfenced write not durable");
        // Power cut after the fence: the write survives.
        let m = CountingMedium::new(128);
        m.persist(0, &[1, 2, 3]).unwrap();
        m.fence().unwrap();
        assert_eq!(
            m.stats(),
            PersistStats {
                persists: 1,
                fences: 1,
                bytes_persisted: 3
            }
        );
        assert_eq!(&m.surviving_image()[..3], &[1, 2, 3]);
    }

    #[test]
    fn counting_medium_death_drops_unfenced_suffix() {
        let m = CountingMedium::new(64);
        m.persist(0, &[7; 8]).unwrap();
        m.fence().unwrap();
        m.persist(8, &[9; 8]).unwrap();
        m.kill_at_op(3); // ops 0..=2 done; op 3 (the fence below) dies
        assert!(m.fence().is_err());
        assert!(m.is_dead());
        assert!(m.persist(0, &[0]).is_err(), "dead medium rejects work");
        let image = m.surviving_image();
        assert_eq!(&image[..8], &[7; 8], "fenced write survives");
        assert_eq!(&image[8..16], &[0; 8], "unfenced write dropped");
    }

    #[test]
    fn counting_medium_reads_see_pending_writes() {
        let m = CountingMedium::new(16);
        m.persist(4, &[5, 6]).unwrap();
        let mut buf = [0u8; 8];
        m.read(0, &mut buf).unwrap();
        assert_eq!(buf, [0, 0, 0, 0, 5, 6, 0, 0]);
        // Overlapping unfenced writes: the later one wins where they
        // overlap, over a fenced byte too, and the fence lands the same.
        m.fence().unwrap();
        m.persist(2, &[1, 1, 1, 1]).unwrap();
        m.persist(5, &[2, 2, 2]).unwrap();
        m.persist(3, &[3]).unwrap();
        let mut buf = [0u8; 10];
        m.read(0, &mut buf).unwrap();
        assert_eq!(buf, [0, 0, 1, 3, 1, 2, 2, 2, 0, 0]);
        let mut tail = [0u8; 3];
        m.read(4, &mut tail).unwrap();
        assert_eq!(tail, [1, 2, 2], "a read inside the writes");
        m.fence().unwrap();
        assert_eq!(&m.surviving_image()[..10], &buf);
    }

    #[test]
    fn surviving_image_hands_over_the_allocation_it_was_given() {
        let image = vec![0u8; 4096];
        let base = image.as_ptr();
        let m = CountingMedium::from_image(image);
        m.persist(0, &[1; 64]).unwrap();
        m.fence().unwrap();
        m.persist(4032, &[2; 64]).unwrap();
        m.fence().unwrap();
        let out = m.surviving_image();
        assert_eq!(out.as_ptr(), base, "the image was copied, not moved");
        assert_eq!(out.len(), 4096);
        assert_eq!((out[0], out[4095]), (1, 2));
    }

    #[test]
    fn a_handed_over_medium_is_dead() {
        let m = CountingMedium::new(64);
        m.persist(0, &[7; 8]).unwrap();
        m.fence().unwrap();
        m.persist(8, &[9; 8]).unwrap();
        let image = m.surviving_image();
        assert_eq!(&image[..8], &[7; 8], "fenced write survives");
        assert_eq!(&image[8..16], &[0; 8], "unfenced write dropped");
        assert!(m.is_dead());
        let dead = |r: io::Result<()>| r.unwrap_err().kind() == io::ErrorKind::BrokenPipe;
        assert!(dead(m.persist(0, &[1])));
        assert!(dead(m.fence()));
        assert!(dead(m.read(0, &mut [0u8; 8])));
        assert_eq!(m.len(), 64, "capacity outlives the image");
    }

    #[test]
    #[should_panic(expected = "surviving image already handed over")]
    fn a_second_hand_over_panics() {
        let m = CountingMedium::new(8);
        let _ = m.surviving_image();
        let _ = m.surviving_image();
    }

    #[test]
    fn counting_medium_rejects_out_of_range() {
        let m = CountingMedium::new(8);
        assert!(m.persist(4, &[0; 8]).is_err());
        let mut buf = [0u8; 16];
        assert!(m.read(0, &mut buf).is_err());
    }

    #[test]
    fn file_medium_round_trips_and_counts() {
        let dir = std::env::temp_dir().join("picl_store_persist_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("m.nvm");
        let m = FileMedium::open(&path, 256).unwrap();
        m.persist(10, b"hello").unwrap();
        m.fence().unwrap();
        let mut buf = [0u8; 5];
        m.read(10, &mut buf).unwrap();
        assert_eq!(&buf, b"hello");
        assert_eq!(m.stats().persists, 1);
        assert_eq!(m.stats().fences, 1);
        drop(m);
        let again = FileMedium::open_existing(&path).unwrap();
        assert_eq!(again.len(), 256);
        let mut buf = [0u8; 5];
        again.read(10, &mut buf).unwrap();
        assert_eq!(&buf, b"hello");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn latency_medium_delegates() {
        let m = LatencyMedium::new(CountingMedium::new(32), 100, 100);
        m.persist(0, &[1]).unwrap();
        m.fence().unwrap();
        let mut buf = [0u8; 1];
        m.read(0, &mut buf).unwrap();
        assert_eq!(buf[0], 1);
        assert_eq!(m.stats().persists, 1);
        assert!(!m.is_empty());
    }
}
