//! The kv workloads: the serving stack over an emulated-PCM medium.
//!
//! Every store runs on `Timed<LatencyMedium<Shared>>` (340 ns per
//! persist, 500 ns per fence — Makalu's PCM costs) with one epoch every
//! 64 mutations and an in-order window of 4. Set-up opens the store,
//! preloads every key, commits the preload tail and drains the persister,
//! so the timed phase starts with no persist debt.
//!
//! The load generator is the benchmark's own: one closed-loop session on
//! the calling thread, whose op array is generated from the seed before
//! the clock starts, so the timed loop neither allocates nor formats. One
//! session, because the store's persister is a thread of its own: on the
//! two vCPUs of the reference machine, two sessions and the persister
//! oversubscribed the CPUs and throughput measured the scheduler (run
//! medians spread 13% against 3% with one session). Each `get`/`put` is
//! timed into a log-linear histogram. Each round runs on a fresh store for
//! a fixed time, with the host-speed reference interleaved (see
//! [`crate::host`]).
//!
//! Correctness: every get must return a well-formed value, every put must
//! succeed, and after each round the store is closed and reopened from
//! its fenced bytes alone; each key whose recovered value differs from
//! the pre-close scan is one failed op.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use picl_obs::MetricsRegistry;
use picl_serve::{Backend, ServeKv};
use picl_store::engine::{EngineConfig, EngineStats};
use picl_store::kv::KvPairs;
use picl_store::layout::{Geometry, UNDO_BUFFER_ENTRIES};
use picl_store::persist::{CountingMedium, LatencyMedium, PersistOps};
use picl_store::slots::{CONT_VALUE_BYTES, HEAD_VALUE_BYTES};
use picl_telemetry::Telemetry;
use picl_types::hash::fnv1a_64;
use picl_types::rng::{Rng, Zipf};

use crate::hist::LogHist;
use crate::host::{self, Meter};
use crate::medium::{self, clock_ns, CallSpan, CallTally, Shared, Slowest, Timed};
use crate::{median, Outcome, Settings, Stat, Workload};

/// Value size for every put and preload.
pub const VALUE_BYTES: usize = 100;
/// Epoch cadence in mutations.
const MUTATIONS_PER_EPOCH: u64 = 64;
/// The §IV-A in-order window.
const WINDOW: u64 = 4;
/// Emulated PCM cost of one persist (Makalu's `clflush` charge).
const PERSIST_NS: u64 = 340;
/// Emulated PCM cost of one fence (Makalu's `mfence` charge).
const FENCE_NS: u64 = 500;
/// Pre-built put payloads.
const POOL: usize = 64;
/// Ops generated; rounds cycle through them.
const OPS: usize = 1 << 20;
/// Rounds per run, each on a fresh store: enough set-ups for a median,
/// and rounds long enough to hold many epochs and persister cycles.
const ROUNDS: usize = 5;
/// The only session.
const SESSION: usize = 0;
/// Marks a get in an [`Op`]'s payload field.
const GET: u8 = u8::MAX;

/// How a kv workload drives the store.
#[derive(Debug, Clone)]
struct Spec {
    keys: u64,
    theta: f64,
    read_frac: f64,
}

fn spec(workload: Workload, scale: f64) -> Spec {
    let keys = ((25_000.0 * scale) as u64).max(64);
    match workload {
        Workload::KvUpdate => Spec {
            keys,
            theta: 0.9,
            read_frac: 0.5,
        },
        Workload::KvRead => Spec {
            keys,
            theta: 0.9,
            read_frac: 0.95,
        },
        _ => unreachable!("not a kv workload: {workload:?}"),
    }
}

/// Slots one `VALUE_BYTES` record occupies (head + continuations).
fn slots_per_record() -> u64 {
    1 + VALUE_BYTES
        .saturating_sub(HEAD_VALUE_BYTES)
        .div_ceil(CONT_VALUE_BYTES) as u64
}

/// The engine geometry for `keys` keys: every record at its spanning
/// footprint, the table at most half full, and the smallest log
/// [`EngineConfig::validate`] accepts for the window.
pub fn engine_config(keys: u64) -> EngineConfig {
    let lines = u32::try_from(keys * slots_per_record() * 2).expect("table fits 32-bit lines");
    let blocks_per_epoch = u64::from(lines).div_ceil(UNDO_BUFFER_ENTRIES as u64) + 1;
    let log_blocks = (WINDOW + 2) * blocks_per_epoch + 2;
    EngineConfig {
        lines,
        log_blocks: u32::try_from(log_blocks).expect("log fits 32-bit blocks"),
        window: WINDOW,
        ..EngineConfig::default()
    }
}

/// One pre-generated operation.
#[derive(Debug, Clone, Copy)]
struct Op {
    key: u32,
    /// Index into the payload pool, or [`GET`].
    payload: u8,
}

/// Everything the timed loop touches, generated from the seed up front.
struct Inputs {
    /// Key bytes by key id.
    keys: Vec<Vec<u8>>,
    /// Put payloads.
    pool: Vec<Vec<u8>>,
    /// The op stream.
    ops: Vec<Op>,
}

fn preload_value(key: &[u8]) -> Vec<u8> {
    let mut v = Vec::with_capacity(VALUE_BYTES);
    v.push(b'p');
    v.extend_from_slice(&key[1..]);
    v.push(b'-');
    v.resize(VALUE_BYTES, b'.');
    v
}

fn session_value(idx: usize) -> Vec<u8> {
    let mut v = format!("s{SESSION:02}-{idx:03}-").into_bytes();
    v.resize(VALUE_BYTES, b'.');
    v
}

/// Whether `value` is what a get of `key` may return: a preload value
/// naming this key, or a session's put payload.
pub fn well_formed(key: &[u8], value: &[u8]) -> bool {
    if value.len() != VALUE_BYTES {
        return false;
    }
    let tail_ok = |from: usize| value[from..].iter().all(|&b| b == b'.');
    let digits = |r: std::ops::Range<usize>| value[r].iter().all(u8::is_ascii_digit);
    match value[0] {
        b'p' => {
            let n = key.len();
            value[1..n] == key[1..] && value[n] == b'-' && tail_ok(n + 1)
        }
        b's' => digits(1..3) && value[3] == b'-' && digits(4..7) && value[7] == b'-' && tail_ok(8),
        _ => false,
    }
}

impl Inputs {
    fn generate(spec: &Spec, seed: u64) -> Inputs {
        let keys: Vec<Vec<u8>> = (0..spec.keys).map(picl_serve::load::key_for_id).collect();
        let zipf = (spec.theta > 0.0).then(|| Zipf::new(spec.keys, spec.theta));
        let mut rng = Rng::new(seed ^ 0x9E37_79B9_7F4A_7C15);
        let ops = (0..OPS)
            .map(|_| {
                // Zipf ranks are scattered over the key space, so the hot
                // set does not cluster in adjacent probe chains.
                let key = match &zipf {
                    Some(z) => fnv1a_64(&z.sample(&mut rng).to_le_bytes()) % spec.keys,
                    None => rng.below(spec.keys),
                };
                let payload = if rng.chance(spec.read_frac) {
                    GET
                } else {
                    rng.below(POOL as u64) as u8
                };
                Op {
                    key: key as u32,
                    payload,
                }
            })
            .collect();
        Inputs {
            keys,
            pool: (0..POOL).map(session_value).collect(),
            ops,
        }
    }
}

type Medium = Timed<LatencyMedium<Shared>>;

/// An open, preloaded store and the handles the benchmark keeps on it.
struct Store {
    kv: ServeKv,
    counting: Arc<CountingMedium>,
    timed: Arc<Medium>,
    cfg: EngineConfig,
}

/// What one set-up cost.
#[derive(Debug, Clone, Copy)]
struct SetupCost {
    secs: f64,
    preload_keys_per_s: f64,
    preload_fences_per_key: f64,
    drain_ms: f64,
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Makes a fresh medium and opens, preloads and drains a store on it.
/// Set-up time starts once the medium exists: faulting in its pages is
/// the host's cost, not the store's.
fn open_store(spec: &Spec, inputs: &Inputs) -> Result<(Store, SetupCost), String> {
    let cfg = engine_config(spec.keys);
    let geometry = Geometry {
        lines: cfg.lines,
        log_blocks: cfg.log_blocks,
    };
    // Fully resident from the start, as an NVM DIMM is: a lazily mapped
    // region would make the footprint depend on how far the log ring
    // got.
    // `vec![0; n]` would map the pages lazily; resizing writes them.
    #[allow(clippy::slow_vector_initialization)]
    let region = {
        let mut region = Vec::new();
        region.resize(geometry.total_len() as usize, 0u8);
        region
    };
    let counting = Arc::new(CountingMedium::from_image(region));
    let timed = Arc::new(Timed::new(LatencyMedium::new(
        Shared(Arc::clone(&counting)),
        PERSIST_NS,
        FENCE_NS,
    )));
    let started = Instant::now();
    let (kv, _) = ServeKv::open(
        Arc::clone(&timed) as Arc<dyn PersistOps>,
        cfg.clone(),
        Telemetry::off(),
        MUTATIONS_PER_EPOCH,
        1,
    )
    .map_err(err)?;
    let preload_started = Instant::now();
    let fences_before = counting.stats().fences;
    for key in &inputs.keys {
        kv.preload(key, &preload_value(key)).map_err(err)?;
    }
    kv.end_preload().map_err(err)?;
    kv.commit().map_err(err)?;
    let preload_secs = preload_started.elapsed().as_secs_f64();
    let preload_fences = counting.stats().fences - fences_before;
    let drain_started = Instant::now();
    kv.engine().drain_persister().map_err(err)?;
    let cost = SetupCost {
        secs: started.elapsed().as_secs_f64(),
        preload_keys_per_s: spec.keys as f64 / preload_secs,
        preload_fences_per_key: preload_fences as f64 / spec.keys as f64,
        drain_ms: drain_started.elapsed().as_secs_f64() * 1e3,
    };
    Ok((
        Store {
            kv,
            counting,
            timed,
            cfg,
        },
        cost,
    ))
}

/// Keys whose recovered value differs from `before` (both sorted by
/// key): missing, extra, or changed.
pub fn mismatches(before: &KvPairs, after: &KvPairs) -> u64 {
    let (mut i, mut j, mut bad) = (0, 0, 0u64);
    while i < before.len() || j < after.len() {
        match (before.get(i), after.get(j)) {
            (Some(a), Some(b)) if a.0 == b.0 => {
                bad += u64::from(a.1 != b.1);
                i += 1;
                j += 1;
            }
            (Some(a), Some(b)) if a.0 < b.0 => {
                bad += 1;
                i += 1;
            }
            (Some(_), None) => {
                bad += 1;
                i += 1;
            }
            _ => {
                bad += 1;
                j += 1;
            }
        }
    }
    bad
}

/// Reopens a store from `image` (fenced bytes only) and counts the keys
/// whose recovered value differs from `before`.
///
/// # Errors
///
/// Reports a store that cannot be reopened or scanned.
pub fn durability_mismatches(
    before: &KvPairs,
    image: Vec<u8>,
    cfg: &EngineConfig,
) -> Result<u64, String> {
    let medium = Arc::new(CountingMedium::from_image(image));
    let (kv, _) = ServeKv::open(
        medium,
        cfg.clone(),
        Telemetry::off(),
        MUTATIONS_PER_EPOCH,
        1,
    )
    .map_err(err)?;
    let mut after = kv.scan().map_err(err)?;
    kv.close().map_err(err)?;
    after.sort();
    Ok(mismatches(before, &after))
}

/// The untimed teardown: scan, commit, close, reopen from the surviving
/// image, and count the keys that did not survive intact.
fn teardown(store: Store) -> Result<u64, String> {
    let Store {
        kv,
        counting,
        timed,
        cfg,
    } = store;
    let mut before = kv.scan().map_err(err)?;
    before.sort();
    kv.commit().map_err(err)?;
    kv.close().map_err(err)?;
    let image = counting.surviving_image();
    // Free the live medium before reopening: the image is a full copy.
    drop((timed, counting));
    durability_mismatches(&before, image, &cfg)
}

/// One op of the traced pass, with the medium calls it made.
#[derive(Debug, Clone)]
struct OpSpan {
    index: u64,
    put: bool,
    start_ns: u64,
    dur_ns: u64,
    children: Vec<CallSpan>,
}

/// What the session measured.
#[derive(Debug, Default)]
struct Tally {
    get: LogHist,
    put: LogHist,
    failed: u64,
    /// Traced pass: the slowest ops with their medium calls.
    slowest: Slowest<OpSpan>,
    fg: CallTally,
}

impl Tally {
    fn ops(&self) -> u64 {
        self.get.count() + self.put.count()
    }

    fn merge(&mut self, other: Tally) {
        self.get.merge(&other.get);
        self.put.merge(&other.put);
        self.failed += other.failed;
        self.slowest.merge(other.slowest);
        self.fg.merge(&other.fg);
    }
}

/// Runs op `index` and records its latency; returns its end
/// ([`clock_ns`]).
fn run_op(kv: &ServeKv, inputs: &Inputs, index: u64, traced: bool, tally: &mut Tally) -> u64 {
    let op = inputs.ops[index as usize % inputs.ops.len()];
    let key = &inputs.keys[op.key as usize];
    if traced {
        medium::begin_op(index + 1);
    }
    let start = clock_ns();
    let ok = if op.payload == GET {
        matches!(kv.get(SESSION, key), Ok(Some(v)) if well_formed(key, &v))
    } else {
        kv.put(SESSION, key, &inputs.pool[op.payload as usize])
            .is_ok()
    };
    let end = clock_ns();
    let put = op.payload != GET;
    if put {
        tally.put.record(end - start);
    } else {
        tally.get.record(end - start);
    }
    tally.failed += u64::from(!ok);
    if traced {
        medium::end_op();
        if tally.slowest.admits(end - start) {
            let span = OpSpan {
                index,
                put,
                start_ns: start,
                dur_ns: end - start,
                children: medium::op_children(),
            };
            tally.slowest.push(end - start, span);
        }
    }
    end
}

/// What one round measured, before host-speed scaling.
#[derive(Debug, Clone, Copy)]
struct Round {
    ops_per_s: f64,
    cpu_us_per_op: f64,
    /// The round's host factor.
    factor: f64,
    /// Wall time, the reference included.
    wall_secs: f64,
}

/// Runs the session in a closed loop for `dur`, timing the reference
/// after every [`host::EVERY_NS`] of ops.
fn closed_round(store: &Store, inputs: &Inputs, dur: Duration, traced: bool) -> (Tally, Round) {
    let mut tally = Tally::default();
    let mut meter = Meter::new();
    // This thread and the persister.
    let cpu0 = crate::live_threads_cpu_ns();
    let started = clock_ns();
    let deadline = started + dur.as_nanos() as u64;
    let mut chunk_start = started;
    let mut i = 0u64;
    loop {
        let end = run_op(&store.kv, inputs, i, traced, &mut tally);
        i += 1;
        if end - chunk_start >= host::EVERY_NS {
            meter.add(end - chunk_start);
            chunk_start = clock_ns();
            if chunk_start >= deadline {
                break;
            }
        }
    }
    meter.finish();
    let cpu_ns = crate::live_threads_cpu_ns()
        .saturating_sub(cpu0)
        .saturating_sub(meter.ref_ns());
    tally.fg = medium::take_fg_tally();
    let ops = tally.ops().max(1) as f64;
    let round = Round {
        ops_per_s: ops / meter.work_secs(),
        cpu_us_per_op: cpu_ns as f64 / 1e3 / ops,
        factor: meter.factor(),
        wall_secs: (clock_ns() - started) as f64 / 1e9,
    };
    (tally, round)
}

/// What the traced pass adds: the obs registry and the engine counters
/// before the timed phase.
struct Traced {
    registry: MetricsRegistry,
    stats_before: EngineStats,
}

fn start_trace(store: &mut Store) -> Traced {
    let registry = MetricsRegistry::new();
    store.kv.enable_obs_sampled(&registry, 1);
    store.timed.set_recording(true);
    Traced {
        stats_before: store.kv.engine().stats(),
        registry,
    }
}

/// Per-layer metrics from the traced pass.
fn layer_metrics(
    store: &Store,
    traced: &Traced,
    tally: &Tally,
    wall_secs: f64,
    out: &mut BTreeMap<&'static str, f64>,
) {
    let snap = traced.registry.snapshot();
    let stats = store.kv.engine().stats();
    let before = traced.stats_before;
    let bg = store.timed.bg_record();
    let puts = tally.put.count().max(1) as f64;
    let hist = |name: &str| snap.histogram(name, &[]).cloned().unwrap_or_default();
    let pct = |h: &picl_types::stats::Histogram, p: f64| h.percentile_defined(p);

    let wait = hist("picl_serve_shard_lock_wait_ns");
    let hold_ns = snap.counter_total("picl_serve_shard_lock_hold_ns_total") as f64;
    let publish = hist("picl_serve_commit_publish_ns");
    let window = hist("picl_serve_commit_window_ns");
    let ack = hist("picl_serve_commit_ack_wait_ns");
    let leader_ns = (publish.sum() + window.sum() + ack.sum()) as f64;
    out.insert("serve.shard_lock_wait_p50_ns", pct(&wait, 50.0));
    out.insert("serve.shard_lock_wait_p99_ns", pct(&wait, 99.0));
    out.insert("serve.shard_lock_hold_ns_per_put", hold_ns / puts);
    out.insert(
        "serve.escalations_per_1k_puts",
        snap.counter_total("picl_serve_escalations_total") as f64 * 1e3 / puts,
    );
    out.insert("serve.commit_publish_p99_us", pct(&publish, 99.0) / 1e3);
    out.insert(
        "serve.commit_window_frac",
        window.count() as f64 / publish.count().max(1) as f64,
    );
    out.insert("serve.commit_window_p99_us", pct(&window, 99.0) / 1e3);
    out.insert("serve.commit_ack_wait_p99_us", pct(&ack, 99.0) / 1e3);
    out.insert("serve.leader_ns_per_put", leader_ns / puts);

    let fg = &tally.fg;
    let d = |f: fn(&EngineStats) -> u64| (f(&stats) - f(&before)) as f64;
    let commits = d(|s| s.commits).max(1.0);
    let cycles = hist("picl_store_persister_cycle_ns");
    out.insert(
        "store.engine_other_ns_per_put",
        (hold_ns + leader_ns - fg.busy_ns() as f64) / puts,
    );
    out.insert("store.undo_entries_per_put", d(|s| s.undo_entries) / puts);
    out.insert("store.drains_per_1k_puts", d(|s| s.drains) * 1e3 / puts);
    out.insert(
        "store.forced_drain_frac",
        d(|s| s.forced_drains) / d(|s| s.drains).max(1.0),
    );
    out.insert(
        "store.log_blocks_per_1k_puts",
        d(|s| s.log_blocks_written) * 1e3 / puts,
    );
    out.insert(
        "store.window_stalls_per_1k_commits",
        d(|s| s.window_stalls) * 1e3 / commits,
    );
    out.insert("store.persister_cycle_p50_us", pct(&cycles, 50.0) / 1e3);
    out.insert("store.persister_cycle_p99_us", pct(&cycles, 99.0) / 1e3);
    out.insert(
        "store.persister_backlog_epochs_p50",
        pct(&hist("picl_store_persister_backlog_epochs"), 50.0),
    );
    out.insert("store.writebacks_per_put", d(|s| s.line_writebacks) / puts);
    out.insert(
        "store.bloom_hit_frac",
        d(|s| s.bloom_hits) / d(|s| s.line_writebacks).max(1.0),
    );
    out.insert(
        "store.write_amp",
        (fg.bytes + bg.tally.bytes) as f64 / (puts * VALUE_BYTES as f64),
    );

    out.insert("medium.fg_fences_per_put", fg.fences as f64 / puts);
    out.insert("medium.fg_fence_ns_per_put", fg.fence_ns as f64 / puts);
    out.insert("medium.fg_bytes_per_put", fg.bytes as f64 / puts);
    out.insert(
        "medium.bg_fences_per_1k_puts",
        bg.tally.fences as f64 * 1e3 / puts,
    );
    out.insert(
        "medium.bg_busy_frac",
        bg.tally.busy_ns() as f64 / (wall_secs * 1e9),
    );
    out.insert("medium.bg_bytes_per_put", bg.tally.bytes as f64 / puts);

    // Where a put's time went: waiting for its shard lock, holding it,
    // and leading group commits; the rest is unexplained.
    let put_wall = tally.put.sum() as f64;
    let explained = wait.sum() as f64 + hold_ns + leader_ns;
    out.insert(
        "remainder_frac",
        if put_wall > 0.0 {
            (put_wall - explained) / put_wall
        } else {
            0.0
        },
    );
}

/// The span file: a summary line, the slowest ops with their medium
/// calls, and the persister root with its slowest calls.
fn span_lines(workload: Workload, store: &Store, tally: Tally) -> Vec<String> {
    let call = |c: &CallSpan| {
        format!(
            "{{\"kind\": \"{}\", \"bytes\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
            c.kind.name(),
            c.bytes,
            c.start_ns,
            c.start_ns + c.dur_ns
        )
    };
    let mut lines = Vec::new();
    let bg = store.timed.bg_record();
    lines.push(format!(
        "{{\"type\": \"summary\", \"workload\": \"{}\", \"gets\": {}, \"puts\": {}, \
         \"fg_medium_ns\": {}, \"bg_medium_ns\": {}}}",
        workload.name(),
        tally.get.count(),
        tally.put.count(),
        tally.fg.busy_ns(),
        bg.tally.busy_ns()
    ));
    for op in tally.slowest.sorted() {
        let child_ns: u64 = op.children.iter().map(|c| c.dur_ns).sum();
        let children: Vec<String> = op.children.iter().map(call).collect();
        lines.push(format!(
            "{{\"type\": \"op\", \"id\": \"{SESSION}.{}\", \"session\": {SESSION}, \
             \"kind\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}, \
             \"children\": [{}]}}",
            op.index,
            if op.put { "put" } else { "get" },
            op.start_ns,
            op.start_ns + op.dur_ns,
            op.dur_ns.saturating_sub(child_ns),
            children.join(", ")
        ));
    }
    let children: Vec<String> = bg.slowest.sorted().iter().map(call).collect();
    lines.push(format!(
        "{{\"type\": \"root\", \"name\": \"persister\", \"persists\": {}, \"fences\": {}, \
         \"bytes\": {}, \"busy_ns\": {}, \"children\": [{}]}}",
        bg.tally.persists,
        bg.tally.fences,
        bg.tally.bytes,
        bg.tally.busy_ns(),
        children.join(", ")
    ));
    lines
}

fn us(ns: f64) -> f64 {
    ns / 1e3
}

/// Runs one kv workload.
pub(crate) fn run(workload: Workload, settings: &Settings) -> Result<Outcome, String> {
    let spec = spec(workload, settings.scale);
    let inputs = Inputs::generate(&spec, settings.seed);
    let round_dur = Duration::from_secs_f64(settings.seconds / ROUNDS as f64);
    let mut out = Outcome {
        workload,
        attempted: 0,
        failed: 0,
        host_factors: Vec::new(),
        e2e: BTreeMap::new(),
        layers: BTreeMap::new(),
        spans: Vec::new(),
    };
    let mut setups = Vec::new();
    let mut rounds = Vec::new();
    let mut all = Tally::default();
    for _ in 0..ROUNDS {
        let (store, cost) = open_store(&spec, &inputs)?;
        let (tally, round) = closed_round(&store, &inputs, round_dur, false);
        out.attempted += tally.ops();
        out.failed += tally.failed + teardown(store)?;
        all.merge(tally);
        setups.push(cost);
        rounds.push(round);
    }
    let factors: Vec<f64> = rounds.iter().map(|r| r.factor).collect();
    let each = |f: fn(&Round) -> f64| rounds.iter().map(f).collect::<Vec<f64>>();
    let note = format!("{ROUNDS} rounds");
    let setup_secs: Vec<f64> = setups.iter().map(|c| c.secs).collect();
    out.e2e.insert(
        "setup_s",
        Stat::scaled(workload, "setup_s", &setup_secs, &factors, note.clone()),
    );
    out.e2e.insert(
        "throughput_ops_s",
        Stat::scaled(
            workload,
            "throughput_ops_s",
            &each(|r| r.ops_per_s),
            &factors,
            format!(
                "{note}; gets n={}, puts n={}",
                all.get.count(),
                all.put.count()
            ),
        ),
    );
    out.e2e.insert(
        "cpu_us_per_op",
        Stat::scaled(
            workload,
            "cpu_us_per_op",
            &each(|r| r.cpu_us_per_op),
            &factors,
            note,
        ),
    );
    out.e2e.insert(
        "peak_rss_mb",
        Stat::of_rounds(&[crate::peak_rss_mb()], "VmHWM".into()),
    );
    out.host_factors = factors;
    load_metrics(&setups, &all, &mut out.layers);
    if settings.trace {
        trace_pass(&spec, &inputs, round_dur, &mut out)?;
    }
    Ok(out)
}

/// The load generator's and set-up's per-layer metrics, all measured by
/// the untraced rounds.
fn load_metrics(setups: &[SetupCost], all: &Tally, l: &mut BTreeMap<&'static str, f64>) {
    l.insert("load.get_samples", all.get.count() as f64);
    l.insert("load.put_samples", all.put.count() as f64);
    for (name, h, p) in [
        ("load.get_p50_us", &all.get, 50.0),
        ("load.get_p99_us", &all.get, 99.0),
        ("load.get_p999_us", &all.get, 99.9),
        ("load.put_p50_us", &all.put, 50.0),
        ("load.put_p99_us", &all.put, 99.0),
        ("load.put_p999_us", &all.put, 99.9),
    ] {
        l.insert(name, us(h.percentile(p)));
    }
    let med = |f: fn(&SetupCost) -> f64| median(&setups.iter().map(f).collect::<Vec<f64>>());
    l.insert("setup.preload_keys_per_s", med(|c| c.preload_keys_per_s));
    l.insert(
        "setup.preload_fences_per_key",
        med(|c| c.preload_fences_per_key),
    );
    l.insert("setup.drain_ms", med(|c| c.drain_ms));
}

/// The traced pass: one more round on a fresh store with obs attached at
/// full sampling and the medium recording spans.
fn trace_pass(
    spec: &Spec,
    inputs: &Inputs,
    round_dur: Duration,
    out: &mut Outcome,
) -> Result<(), String> {
    let (mut store, _) = open_store(spec, inputs)?;
    let traced = start_trace(&mut store);
    let (tally, round) = closed_round(&store, inputs, round_dur, true);
    store.timed.set_recording(false);
    layer_metrics(&store, &traced, &tally, round.wall_secs, &mut out.layers);
    let e2e_tput = out.e2e["throughput_ops_s"].value;
    let traced_tput = round.ops_per_s * out.workload.host_scale(round.factor);
    out.layers
        .insert("trace_overhead_frac", (e2e_tput - traced_tput) / e2e_tput);
    out.attempted += tally.ops();
    out.failed += tally.failed;
    out.spans = span_lines(out.workload, &store, tally);
    out.failed += teardown(store)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn well_formed_accepts_only_tagged_values_of_the_right_key() {
        let key = picl_serve::load::key_for_id(42);
        let other = picl_serve::load::key_for_id(43);
        assert!(well_formed(&key, &preload_value(&key)));
        assert!(well_formed(&key, &session_value(7)));
        assert!(
            !well_formed(&key, &preload_value(&other)),
            "another key's value"
        );
        let mut short = session_value(7);
        short.pop();
        assert!(!well_formed(&key, &short), "wrong length");
        let mut torn = preload_value(&key);
        torn[60] = b'x';
        assert!(!well_formed(&key, &torn), "corrupted padding");
        assert!(!well_formed(&key, &[b'q'; VALUE_BYTES]), "unknown tag");
    }
}
