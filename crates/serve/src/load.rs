//! YCSB-style load generation against a [`Backend`].
//!
//! The harness mirrors the shape of the YCSB core workloads: a zipfian
//! key-popularity distribution over a large key space, read/update mixes
//! named after the classic A/B/C presets, and either closed-loop driving
//! (issue the next op the moment the last one returns) or open-loop
//! arrivals (Poisson, or a bursty square wave that concentrates the same
//! rate into half of each period). Open-loop latency is *sojourn* time —
//! measured from the op's scheduled arrival, not its issue time — so
//! queueing delay behind an epoch-persist stall shows up in the tail
//! instead of being silently absorbed.
//!
//! Everything is seeded: two runs with the same [`LoadSpec`] issue the
//! same ops from the same sessions (timing aside).

use std::time::{Duration, Instant};

use picl_store::engine::StoreError;
use picl_store::slots::MAX_VALUE_BYTES;
use picl_types::hash::fnv1a_64;
use picl_types::rng::{Rng, Zipf};
use picl_types::stats::Histogram;

use crate::session::Backend;

/// Read/update mixes named after the YCSB core workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MixPreset {
    /// Update-heavy: 50% reads / 50% updates.
    A,
    /// Read-mostly: 95% reads / 5% updates.
    B,
    /// Read-only: 100% reads.
    C,
}

impl MixPreset {
    /// Fraction of operations that are reads.
    pub fn read_fraction(self) -> f64 {
        match self {
            MixPreset::A => 0.50,
            MixPreset::B => 0.95,
            MixPreset::C => 1.00,
        }
    }

    /// The preset's letter, for reports.
    pub fn label(self) -> &'static str {
        match self {
            MixPreset::A => "A",
            MixPreset::B => "B",
            MixPreset::C => "C",
        }
    }

    /// Parses `a` / `b` / `c` (either case).
    ///
    /// # Errors
    ///
    /// Names the accepted presets on anything else.
    pub fn parse(text: &str) -> Result<MixPreset, String> {
        match text.to_ascii_lowercase().as_str() {
            "a" => Ok(MixPreset::A),
            "b" => Ok(MixPreset::B),
            "c" => Ok(MixPreset::C),
            other => Err(format!("unknown mix {other:?} (want a, b, or c)")),
        }
    }
}

/// How operations arrive at the store.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Arrival {
    /// Closed loop: each session issues its next op immediately.
    Closed,
    /// Open loop, Poisson arrivals at `rate` ops/sec aggregate across
    /// all sessions.
    Poisson {
        /// Aggregate arrival rate in ops/sec.
        rate: f64,
    },
    /// Open loop, the same aggregate `rate` but concentrated into the
    /// first half of each period — a square-wave burst pattern.
    Bursty {
        /// Aggregate arrival rate in ops/sec (averaged over the period).
        rate: f64,
        /// Burst period in milliseconds.
        period_ms: u64,
    },
}

impl Arrival {
    /// Parses `closed`, `poisson:RATE`, or `bursty:RATE:PERIOD_MS`.
    ///
    /// # Errors
    ///
    /// Describes the accepted forms on malformed input.
    pub fn parse(text: &str) -> Result<Arrival, String> {
        let mut parts = text.split(':');
        let kind = parts.next().unwrap_or_default().to_ascii_lowercase();
        let arrival = match kind.as_str() {
            "closed" => Arrival::Closed,
            "poisson" => {
                let rate = parse_rate(parts.next())?;
                Arrival::Poisson { rate }
            }
            "bursty" => {
                let rate = parse_rate(parts.next())?;
                let period_ms = parts
                    .next()
                    .unwrap_or("100")
                    .parse::<u64>()
                    .map_err(|e| format!("bad burst period: {e}"))?;
                if period_ms == 0 {
                    return Err("burst period must be >= 1 ms".into());
                }
                Arrival::Bursty { rate, period_ms }
            }
            other => {
                return Err(format!(
                "unknown arrival {other:?} (want closed, poisson:RATE, or bursty:RATE:PERIOD_MS)"
            ))
            }
        };
        if parts.next().is_some() {
            return Err(format!("trailing text in arrival spec {text:?}"));
        }
        Ok(arrival)
    }

    /// A short spec string for reports (`closed`, `poisson:5000`, ...).
    pub fn label(&self) -> String {
        match self {
            Arrival::Closed => "closed".into(),
            Arrival::Poisson { rate } => format!("poisson:{rate}"),
            Arrival::Bursty { rate, period_ms } => format!("bursty:{rate}:{period_ms}"),
        }
    }
}

fn parse_rate(token: Option<&str>) -> Result<f64, String> {
    let rate = token
        .ok_or_else(|| "open-loop arrival needs a rate".to_string())?
        .parse::<f64>()
        .map_err(|e| format!("bad arrival rate: {e}"))?;
    if !(rate.is_finite() && rate > 0.0) {
        return Err("arrival rate must be a positive number".into());
    }
    Ok(rate)
}

/// One benchmark's worth of knobs. Fully determines the op streams.
#[derive(Debug, Clone)]
pub struct LoadSpec {
    /// Concurrent client sessions (threads).
    pub sessions: usize,
    /// Timed operations each session issues.
    pub ops_per_session: u64,
    /// Distinct keys in the key space.
    pub keys: u64,
    /// Zipfian skew in `[0, 1)`; `0` is uniform, YCSB default is 0.99…
    /// we default to 0.9 to stay clearly inside the sampler's domain.
    pub theta: f64,
    /// Read/update mix preset.
    pub mix: MixPreset,
    /// Value payload size in bytes (1..=255; above 16 spans slots).
    pub value_bytes: usize,
    /// Seed for all per-session streams.
    pub seed: u64,
    /// Arrival process.
    pub arrival: Arrival,
}

impl Default for LoadSpec {
    fn default() -> Self {
        LoadSpec {
            sessions: 4,
            ops_per_session: 10_000,
            keys: 100_000,
            theta: 0.9,
            mix: MixPreset::A,
            value_bytes: 100,
            seed: 1,
            arrival: Arrival::Closed,
        }
    }
}

impl LoadSpec {
    /// Validates the knobs.
    ///
    /// # Errors
    ///
    /// Rejects empty dimensions, out-of-range skew, and oversized values.
    pub fn validate(&self) -> Result<(), StoreError> {
        if self.sessions == 0 {
            return Err(StoreError::Config("need at least one session".into()));
        }
        if self.keys == 0 {
            return Err(StoreError::Config("need at least one key".into()));
        }
        if !(0.0..1.0).contains(&self.theta) {
            return Err(StoreError::Config(format!(
                "zipfian theta {} out of range [0, 1)",
                self.theta
            )));
        }
        if self.value_bytes == 0 || self.value_bytes > MAX_VALUE_BYTES {
            return Err(StoreError::Config(format!(
                "value size {} out of range 1..={MAX_VALUE_BYTES}",
                self.value_bytes
            )));
        }
        Ok(())
    }
}

/// The key for logical id `id` (ids are `0..spec.keys`).
pub fn key_for_id(id: u64) -> Vec<u8> {
    format!("k{id:010}").into_bytes()
}

/// Maps a zipfian popularity rank to a key id. Rank 0 is the hottest
/// key; hashing scatters the hot set across the table instead of
/// clustering it in adjacent probe chains.
fn scramble(rank: u64, keys: u64) -> u64 {
    fnv1a_64(&rank.to_le_bytes()) % keys
}

/// A deterministic `len`-byte payload tagging writer and op index.
fn make_value(len: usize, session: usize, i: u64) -> Vec<u8> {
    let mut v = format!("u{session:02}-{i:08}-").into_bytes();
    v.resize(len, b'.');
    v.truncate(len);
    v
}

/// Inserts every key (ids `0..spec.keys`) with a `value_bytes`-sized
/// payload, via the backend's relaxed-durability path.
///
/// # Errors
///
/// Propagates store failures.
pub fn preload(backend: &dyn Backend, spec: &LoadSpec) -> Result<(), StoreError> {
    spec.validate()?;
    for id in 0..spec.keys {
        backend.preload(&key_for_id(id), &make_value(spec.value_bytes, 99, id))?;
    }
    // Settle the relaxed-durability debt (batched-epoch tail, skipped
    // fences) before the timed phase starts.
    backend.end_preload()
}

/// One session's (tenant's) share of a timed run.
#[derive(Debug, Clone)]
pub struct SessionLoad {
    /// Reads this session completed.
    pub reads: u64,
    /// Updates this session completed.
    pub updates: u64,
    /// This session's per-op latency in nanoseconds (same semantics as
    /// [`LoadReport::latency_ns`]).
    pub latency_ns: Histogram,
    /// Scheduler-accounted CPU nanoseconds this session's thread spent
    /// executing during the timed phase (`sum_exec_runtime`, which
    /// excludes run-queue waits and — with paravirt time accounting —
    /// hypervisor steal). 0 where `/proc` can't supply it (non-Linux).
    pub cpu_ns: u64,
}

/// This thread's cumulative on-CPU nanoseconds, from
/// `/proc/thread-self/schedstat`. `None` off Linux or if the read fails.
fn thread_cpu_ns() -> Option<u64> {
    let text = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    text.split_whitespace().next()?.parse().ok()
}

/// What one timed run measured.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Sessions that drove the load.
    pub sessions: usize,
    /// Total operations completed.
    pub ops: u64,
    /// Reads among them.
    pub reads: u64,
    /// Updates among them.
    pub updates: u64,
    /// Wall-clock duration of the timed phase.
    pub elapsed: Duration,
    /// Per-op latency in nanoseconds (closed loop: service time;
    /// open loop: sojourn time from scheduled arrival).
    pub latency_ns: Histogram,
    /// Open-loop pacing error: how late each op was *issued* relative to
    /// its scheduled arrival, in nanoseconds. Sojourn tails are only
    /// meaningful when this stays near zero; empty for closed loops.
    pub pacing_late_ns: Histogram,
    /// Per-session breakdown, indexed by session id. Merging the
    /// sessions' histograms reproduces [`LoadReport::latency_ns`].
    pub per_session: Vec<SessionLoad>,
}

impl LoadReport {
    /// Total session-thread CPU nanoseconds for the timed phase (see
    /// [`SessionLoad::cpu_ns`]); 0 when the platform can't supply it.
    pub fn cpu_ns(&self) -> u64 {
        self.per_session.iter().map(|s| s.cpu_ns).sum()
    }

    /// Aggregate throughput in ops/sec.
    pub fn throughput(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.ops as f64 / secs
        } else {
            0.0
        }
    }
}

/// Coarse sleeps are only millisecond-accurate (timer slack, scheduler
/// wakeup); inside this distance of the deadline, spin instead — the
/// same trade the engine's latency medium makes for `emulate_latency_ns`.
const SPIN_SLACK_NS: u64 = 1_000_000;

/// The time source the load driver schedules, issues and times ops on,
/// in nanoseconds from an arbitrary origin. [`run_load`] uses the wall
/// clock; a test can substitute a virtual one and assert an open-loop
/// schedule exactly.
trait Clock: Sync {
    /// The current time in nanoseconds.
    fn now_ns(&self) -> u64;
    /// Blocks until [`Clock::now_ns`] reaches `at`.
    fn pace_until(&self, at: u64);
}

/// Wall-clock nanoseconds since the wrapped instant.
struct WallClock(Instant);

impl Clock for WallClock {
    fn now_ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }

    /// Sleeps while the deadline is far, then yield-spins the final
    /// [`SPIN_SLACK_NS`] stretch so open-loop schedules hold to
    /// microseconds instead of drifting by whole milliseconds.
    fn pace_until(&self, at: u64) {
        loop {
            let now = self.now_ns();
            if now >= at {
                return;
            }
            let left = at - now;
            if left > SPIN_SLACK_NS {
                std::thread::sleep(Duration::from_nanos(left - SPIN_SLACK_NS));
            } else {
                // Yield, not a raw spin hint: paced sessions outnumber
                // cores in CI, and a hoarding spinner would add the very
                // scheduling-quantum lateness this path removes.
                std::thread::yield_now();
            }
        }
    }
}

/// When the op indexed `i` in a session's stream should arrive, in
/// nanoseconds from the run start. `None` means closed loop.
fn next_arrival_ns(arrival: Arrival, sessions: usize, prev_ns: u64, rng: &mut Rng) -> Option<u64> {
    let gap = |aggregate_rate: f64, rng: &mut Rng| -> u64 {
        // Exponential interarrival at this session's share of the rate.
        let rate = aggregate_rate / sessions as f64;
        let u = rng.unit_f64().min(1.0 - 1e-12);
        ((-(1.0 - u).ln()) / rate * 1e9) as u64
    };
    match arrival {
        Arrival::Closed => None,
        Arrival::Poisson { rate } => Some(prev_ns + gap(rate, rng)),
        Arrival::Bursty { rate, period_ms } => {
            // Sample at twice the rate, then fold every arrival into the
            // first half of its period: same average rate, square-wave
            // instantaneous rate.
            let mut t = prev_ns + gap(2.0 * rate, rng);
            let period = period_ms * 1_000_000;
            let pos = t % period;
            if pos >= period / 2 {
                t = t - pos + period;
            }
            Some(t)
        }
    }
}

/// Runs the timed load: `spec.sessions` threads, each issuing
/// `spec.ops_per_session` zipfian ops with the spec's mix and arrival
/// process, latencies merged into one histogram.
///
/// # Errors
///
/// Propagates the first store failure from any session.
pub fn run_load(backend: &(dyn Backend + Sync), spec: &LoadSpec) -> Result<LoadReport, StoreError> {
    run_load_on(backend, spec, &WallClock(Instant::now()))
}

/// Each session's RNG seed, derived from the spec's seed.
fn session_seeds(spec: &LoadSpec) -> Vec<u64> {
    let mut seeder = Rng::new(spec.seed ^ 0xC0DE_5EED_F00D_BAAD);
    (0..spec.sessions).map(|_| seeder.next_u64()).collect()
}

/// [`run_load`] on an explicit [`Clock`]. Every time the report holds
/// (schedule, lateness, latency, elapsed) is relative to the clock's
/// reading when the session threads start.
fn run_load_on(
    backend: &(dyn Backend + Sync),
    spec: &LoadSpec,
    clock: &dyn Clock,
) -> Result<LoadReport, StoreError> {
    spec.validate()?;
    let zipf = Zipf::new(spec.keys, spec.theta);
    let seeds = session_seeds(spec);
    let start = clock.now_ns();
    let since_start = || clock.now_ns().saturating_sub(start);
    type SessionOutcome = (Histogram, Histogram, u64, u64, u64);
    let outcomes: Vec<Result<SessionOutcome, StoreError>> = std::thread::scope(|s| {
        let handles: Vec<_> = seeds
            .iter()
            .enumerate()
            .map(|(sid, &seed)| {
                let zipf = &zipf;
                s.spawn(move || {
                    let mut rng = Rng::new(seed);
                    let mut latency = Histogram::new();
                    let mut pacing = Histogram::new();
                    let mut reads = 0u64;
                    let mut updates = 0u64;
                    let mut scheduled_ns = 0u64;
                    let cpu0 = thread_cpu_ns();
                    for i in 0..spec.ops_per_session {
                        let issue_base = match next_arrival_ns(
                            spec.arrival,
                            spec.sessions,
                            scheduled_ns,
                            &mut rng,
                        ) {
                            Some(at) => {
                                scheduled_ns = at;
                                clock.pace_until(start + at);
                                pacing.record(since_start().saturating_sub(at));
                                at
                            }
                            None => since_start(),
                        };
                        let key = key_for_id(scramble(zipf.sample(&mut rng), spec.keys));
                        if rng.chance(spec.mix.read_fraction()) {
                            backend.get(sid, &key)?;
                            reads += 1;
                        } else {
                            backend.put(sid, &key, &make_value(spec.value_bytes, sid, i))?;
                            updates += 1;
                        }
                        latency.record(since_start().saturating_sub(issue_base));
                    }
                    let cpu_ns = match (cpu0, thread_cpu_ns()) {
                        (Some(a), Some(b)) => b.saturating_sub(a),
                        _ => 0,
                    };
                    Ok((latency, pacing, reads, updates, cpu_ns))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("session thread panicked"))
            .collect()
    });
    let elapsed = Duration::from_nanos(since_start());
    let mut latency = Histogram::new();
    let mut pacing = Histogram::new();
    let mut reads = 0u64;
    let mut updates = 0u64;
    let mut per_session = Vec::with_capacity(spec.sessions);
    for outcome in outcomes {
        let (h, p, r, u, cpu_ns) = outcome?;
        latency.merge(&h);
        pacing.merge(&p);
        reads += r;
        updates += u;
        per_session.push(SessionLoad {
            reads: r,
            updates: u,
            latency_ns: h,
            cpu_ns,
        });
    }
    Ok(LoadReport {
        sessions: spec.sessions,
        ops: reads + updates,
        reads,
        updates,
        elapsed,
        latency_ns: latency,
        pacing_late_ns: pacing,
        per_session,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Mutex;

    /// An always-succeeding backend that counts traffic per key.
    #[derive(Default)]
    struct Probe {
        reads: AtomicU64,
        writes: AtomicU64,
        per_key: Mutex<HashMap<Vec<u8>, u64>>,
    }

    impl Backend for Probe {
        fn put(&self, _s: usize, key: &[u8], _v: &[u8]) -> Result<(), StoreError> {
            self.writes.fetch_add(1, Ordering::Relaxed);
            *self
                .per_key
                .lock()
                .unwrap()
                .entry(key.to_vec())
                .or_insert(0) += 1;
            Ok(())
        }
        fn get(&self, _s: usize, key: &[u8]) -> Result<Option<Vec<u8>>, StoreError> {
            self.reads.fetch_add(1, Ordering::Relaxed);
            *self
                .per_key
                .lock()
                .unwrap()
                .entry(key.to_vec())
                .or_insert(0) += 1;
            Ok(None)
        }
        fn delete(&self, _s: usize, _key: &[u8]) -> Result<bool, StoreError> {
            Ok(false)
        }
        fn preload(&self, _key: &[u8], _v: &[u8]) -> Result<(), StoreError> {
            Ok(())
        }
    }

    #[test]
    fn presets_and_arrivals_parse() {
        assert_eq!(MixPreset::parse("A").unwrap(), MixPreset::A);
        assert_eq!(MixPreset::parse("b").unwrap().read_fraction(), 0.95);
        assert!(MixPreset::parse("d").is_err());
        assert_eq!(Arrival::parse("closed").unwrap(), Arrival::Closed);
        assert_eq!(
            Arrival::parse("poisson:5000").unwrap(),
            Arrival::Poisson { rate: 5000.0 }
        );
        assert_eq!(
            Arrival::parse("bursty:1000:50").unwrap(),
            Arrival::Bursty {
                rate: 1000.0,
                period_ms: 50
            }
        );
        assert!(Arrival::parse("poisson").is_err());
        assert!(Arrival::parse("poisson:-3").is_err());
        assert!(Arrival::parse("steady").is_err());
        assert!(Arrival::parse("closed:extra").is_err());
    }

    #[test]
    fn closed_loop_respects_mix_and_skew() {
        let probe = Probe::default();
        let spec = LoadSpec {
            sessions: 3,
            ops_per_session: 2_000,
            keys: 10_000,
            theta: 0.9,
            mix: MixPreset::B,
            value_bytes: 40,
            seed: 42,
            arrival: Arrival::Closed,
        };
        let report = run_load(&probe, &spec).unwrap();
        assert_eq!(report.ops, 6_000);
        assert_eq!(report.reads + report.updates, report.ops);
        assert_eq!(report.reads, probe.reads.load(Ordering::Relaxed));
        let read_frac = report.reads as f64 / report.ops as f64;
        assert!((0.90..=0.99).contains(&read_frac), "{read_frac}");
        assert_eq!(report.latency_ns.count(), 6_000);
        // Zipfian skew: the single hottest key alone should take far
        // more than a uniform share (6000/10000 < 1 hit per key).
        let per_key = probe.per_key.lock().unwrap();
        let hottest = per_key.values().copied().max().unwrap();
        assert!(hottest > 60, "hottest key saw {hottest} ops");
        // ... but traffic still spreads over many keys.
        assert!(per_key.len() > 500, "only {} keys touched", per_key.len());
    }

    #[test]
    fn identical_specs_issue_identical_streams() {
        let spec = LoadSpec {
            sessions: 2,
            ops_per_session: 300,
            keys: 1_000,
            seed: 7,
            ..LoadSpec::default()
        };
        let a = Probe::default();
        let b = Probe::default();
        run_load(&a, &spec).unwrap();
        run_load(&b, &spec).unwrap();
        assert_eq!(
            *a.per_key.lock().unwrap(),
            *b.per_key.lock().unwrap(),
            "same spec, same key traffic"
        );
    }

    /// A virtual clock: pacing returns at once, moves time forward to
    /// the target, and logs it.
    #[derive(Default)]
    struct VirtualClock {
        now: AtomicU64,
        paced: Mutex<Vec<u64>>,
    }

    impl Clock for VirtualClock {
        fn now_ns(&self) -> u64 {
            self.now.load(Ordering::SeqCst)
        }
        fn pace_until(&self, at: u64) {
            self.now.fetch_max(at, Ordering::SeqCst);
            self.paced.lock().unwrap().push(at);
        }
    }

    #[test]
    fn open_loop_paces_arrivals() {
        let rate = 2_000.0;
        let spec = LoadSpec {
            sessions: 2,
            ops_per_session: 50,
            keys: 100,
            mix: MixPreset::C,
            arrival: Arrival::Poisson { rate },
            ..LoadSpec::default()
        };

        // The schedule, on a virtual clock: every op is paced to exactly
        // its session's Poisson arrival time. Rebuild those times from the
        // seed, drawing in the driver's order: interarrival gap, key, mix.
        let zipf = Zipf::new(spec.keys, spec.theta);
        let mut expected = Vec::new();
        for seed in session_seeds(&spec) {
            let mut rng = Rng::new(seed);
            let mut at = 0u64;
            for _ in 0..spec.ops_per_session {
                let u = rng.unit_f64().min(1.0 - 1e-12);
                at += (-(1.0 - u).ln() / (rate / spec.sessions as f64) * 1e9) as u64;
                zipf.sample(&mut rng);
                rng.chance(spec.mix.read_fraction());
                expected.push(at);
            }
        }
        let clock = VirtualClock::default();
        let report = run_load_on(&Probe::default(), &spec, &clock).unwrap();
        let mut paced = clock.paced.into_inner().unwrap();
        paced.sort_unstable();
        expected.sort_unstable();
        assert_eq!(
            paced, expected,
            "issue times differ from the seed's schedule"
        );
        assert_eq!(report.ops, 100);
        assert_eq!(report.elapsed, Duration::from_nanos(expected[99]));
        // Each session's share is 1000/s: its mean gap is ~1 ms.
        let mean_gap_ns = expected[99] as f64 / spec.ops_per_session as f64;
        assert!(
            (700_000.0..1_300_000.0).contains(&mean_gap_ns),
            "mean gap {mean_gap_ns} ns"
        );

        // On the wall clock: the run takes at least most of its ~50 ms
        // schedule (a closed loop over the no-op probe would finish in
        // microseconds), and every op records its pacing lateness.
        let report = run_load(&Probe::default(), &spec).unwrap();
        assert_eq!(report.ops, 100);
        assert!(
            report.elapsed >= Duration::from_millis(20),
            "elapsed {:?}",
            report.elapsed
        );
        assert_eq!(report.pacing_late_ns.count(), 100);
    }

    #[test]
    fn bursty_arrivals_land_in_burst_windows() {
        let mut rng = Rng::new(9);
        let arrival = Arrival::Bursty {
            rate: 10_000.0,
            period_ms: 10,
        };
        let period = 10_000_000u64;
        let mut t = 0u64;
        for _ in 0..200 {
            t = next_arrival_ns(arrival, 1, t, &mut rng).unwrap();
            assert!(t % period < period / 2, "arrival at {t} outside burst");
        }
    }

    #[test]
    fn bad_specs_are_rejected() {
        let ok = LoadSpec::default();
        assert!(ok.validate().is_ok());
        assert!(LoadSpec {
            sessions: 0,
            ..ok.clone()
        }
        .validate()
        .is_err());
        assert!(LoadSpec {
            keys: 0,
            ..ok.clone()
        }
        .validate()
        .is_err());
        assert!(LoadSpec {
            theta: 1.0,
            ..ok.clone()
        }
        .validate()
        .is_err());
        assert!(LoadSpec {
            value_bytes: 0,
            ..ok.clone()
        }
        .validate()
        .is_err());
        assert!(LoadSpec {
            value_bytes: 256,
            ..ok
        }
        .validate()
        .is_err());
    }
}
