//! The host-speed reference.
//!
//! The machines this benchmark runs on are shared, and the same code runs
//! up to 40% faster or slower from one second to the next as neighbours'
//! load comes and goes: wider than any useful regression bound. The
//! slowdowns hit branchy code that touches memory — the simulator, the
//! store — and leave a tight integer loop alone, so a probe of the core's
//! clock cannot see them.
//!
//! A [`Meter`] therefore interleaves the measured work with a fixed piece
//! of the benchmark's own work that no repository change can touch:
//! sorting [`SORT_LEN`] pseudo-random integers, after every [`EVERY_NS`]
//! of measured work. The mean reference time over a round, against
//! [`REFERENCE_NS`], is the round's host factor: the round's times are
//! divided by it and its rates multiplied, each raised to the workload's
//! [`crate::Workload::host_sensitivity`], so every round reads at the
//! reference host speed. Measured on the reference machine, with the
//! simulator workloads interleaved with candidate references for four to
//! five minutes, a sort cut the spread between 10-second windows from
//! 20–25% to 5–7%, hash-map lookups to 10–14%, and a random-branch loop,
//! a pointer chase or an integer loop not below 15%.

use std::time::Instant;

/// Nanoseconds one reference takes at the reference host speed: a round
/// figure for the machine the benchmark was defined on (a 2-vCPU shared
/// Xeon VM, where it read 6–9 ms). Changing it rescales every reported
/// time and rate.
pub const REFERENCE_NS: f64 = 8.0e6;

/// Measured work between two references.
pub const EVERY_NS: u64 = 100_000_000;

/// Integers one sort orders: 1 MB, inside any current server core's L2.
const SORT_LEN: usize = 1 << 17;
/// Sorts one reference times.
const SORTS: usize = 2;

/// Measured work interleaved with the reference (see the module docs).
#[derive(Debug)]
pub struct Meter {
    data: Vec<u64>,
    rng: u64,
    ref_ns: u64,
    refs: u32,
    work_ns: u64,
    since_ref_ns: u64,
}

impl Default for Meter {
    fn default() -> Self {
        Meter::new()
    }
}

impl Meter {
    /// A meter that has timed the reference once.
    pub fn new() -> Meter {
        let mut meter = Meter {
            data: vec![0; SORT_LEN],
            rng: 0x2545_F491_4F6C_DD1D,
            ref_ns: 0,
            refs: 0,
            work_ns: 0,
            since_ref_ns: 0,
        };
        meter.reference();
        meter
    }

    /// Times the reference once. Refilling the array is not timed.
    fn reference(&mut self) {
        for _ in 0..SORTS {
            for v in &mut self.data {
                self.rng ^= self.rng << 13;
                self.rng ^= self.rng >> 7;
                self.rng ^= self.rng << 17;
                *v = self.rng;
            }
            let started = Instant::now();
            self.data.sort_unstable();
            std::hint::black_box(&self.data);
            self.ref_ns += started.elapsed().as_nanos() as u64;
        }
        self.refs += 1;
    }

    /// Counts `ns` of measured work, and times the reference once another
    /// [`EVERY_NS`] of it has accumulated.
    pub fn add(&mut self, ns: u64) {
        self.work_ns += ns;
        self.since_ref_ns += ns;
        if self.since_ref_ns >= EVERY_NS {
            self.since_ref_ns = 0;
            self.reference();
        }
    }

    /// Times the reference once more, so that work after the last one is
    /// bracketed too.
    pub fn finish(&mut self) {
        self.since_ref_ns = 0;
        self.reference();
    }

    /// Seconds of measured work.
    pub fn work_secs(&self) -> f64 {
        self.work_ns as f64 / 1e9
    }

    /// Nanoseconds spent in the reference.
    pub fn ref_ns(&self) -> u64 {
        self.ref_ns
    }

    /// How much slower than the reference host this meter's stretch ran
    /// (above 1 = slower).
    pub fn factor(&self) -> f64 {
        self.ref_ns as f64 / f64::from(self.refs.max(1)) / REFERENCE_NS
    }
}
