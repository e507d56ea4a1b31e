//! Concurrency torture for the sharded serving write path: the
//! contended-get regression, a seeded hot-shard hammer judged by a
//! scan-vs-model oracle, and the preload/timed-phase epoch boundary.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use picl_serve::load::{preload, LoadSpec};
use picl_serve::session::{Backend, FsyncKv, ServeKv, PRELOAD_BATCH};
use picl_store::engine::EngineConfig;
use picl_store::layout::Geometry;
use picl_store::persist::CountingMedium;
use picl_store::slots;
use picl_telemetry::{EventKind, Telemetry};
use picl_types::epoch::EpochId;
use picl_types::rng::Rng;

fn serve_kv(cfg: EngineConfig, cadence: u64, sessions: usize, telemetry: Telemetry) -> ServeKv {
    let g = Geometry {
        lines: cfg.lines,
        log_blocks: cfg.log_blocks,
    };
    let medium = Arc::new(CountingMedium::new(g.total_len()));
    let (kv, _) = ServeKv::open(medium, cfg, telemetry, cadence, sessions).unwrap();
    kv
}

/// Value lengths straddling the single-slot threshold so the writer keeps
/// rewriting continuation slots (the reads that can stay contended).
const HAMMER_LENS: [usize; 3] = [40, 100, 220];

/// Decrements the live-reader count when a hammer reader ends, by
/// return or by panic, so a failing reader stops the writer instead of
/// leaving the test spinning.
struct CheckOut<'a>(&'a AtomicUsize);

impl Drop for CheckOut<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Release);
    }
}

/// One writer hammers a single spanning key while readers burn through
/// their optimistic retries; every read must resolve to a whole value
/// the writer wrote (one of `HAMMER_LENS`, every byte equal) — never
/// `Corrupt`, and never a torn line or record. The pre-fix
/// `lookup_with_fallback` reported corruption whenever the optimistic
/// rounds were exhausted.
fn hammer_one_key(backend: &dyn Backend, readers: usize) {
    let key = b"hot-key";
    backend.put(0, key, &[1u8; 220]).unwrap();
    // The writer keeps rewriting until the last reader checks out.
    let live_readers = AtomicUsize::new(readers);
    std::thread::scope(|s| {
        let live_readers = &live_readers;
        s.spawn(move || {
            let mut i = 0usize;
            while live_readers.load(Ordering::Acquire) > 0 {
                let len = HAMMER_LENS[i % HAMMER_LENS.len()];
                backend.put(0, key, &vec![(i % 251) as u8; len]).unwrap();
                i += 1;
            }
        });
        for r in 0..readers {
            s.spawn(move || {
                let _checkout = CheckOut(live_readers);
                for _ in 0..2_000 {
                    let got = backend
                        .get(1 + r, key)
                        .expect("a racing writer must never surface as Corrupt");
                    let value = got.expect("the key is never deleted");
                    assert!(
                        HAMMER_LENS.contains(&value.len()),
                        "torn length {}",
                        value.len()
                    );
                    assert!(
                        value.iter().all(|&b| b == value[0]),
                        "torn value: {value:?}"
                    );
                }
            });
        }
    });
}

#[test]
fn contended_get_resolves_on_the_picl_backend() {
    let kv = serve_kv(
        EngineConfig {
            lines: 256,
            log_blocks: 64,
            ..EngineConfig::default()
        },
        64,
        4,
        Telemetry::off(),
    );
    hammer_one_key(&kv, 2);
    kv.commit().unwrap();
    kv.close().unwrap();
}

#[test]
fn contended_get_resolves_on_the_fsync_backend() {
    let medium = Arc::new(CountingMedium::new(256 * 128));
    let kv = FsyncKv::open(medium, 256).unwrap();
    hammer_one_key(&kv, 2);
}

/// Arrives at a rendezvous of `n` threads and waits for the rest. Panics
/// after ten seconds, so a thread that died before arriving fails the
/// test instead of hanging it.
fn rendezvous(arrived: &AtomicUsize, n: usize) {
    arrived.fetch_add(1, Ordering::AcqRel);
    let deadline = Instant::now() + Duration::from_secs(10);
    while arrived.load(Ordering::Acquire) < n {
        assert!(
            Instant::now() < deadline,
            "a thread never reached the rendezvous"
        );
        std::thread::yield_now();
    }
}

/// Seeded hot-shard hammer: every key of every session lives in ONE
/// image shard, so all writers fight over a single mutation lock while
/// group commits keep closing epochs around them. After close, the scan
/// restricted to a session's keys must equal that session's model, and
/// the commit-hook lower bounds must have been monotone per session.
#[test]
fn hot_shard_hammer_stays_consistent() {
    let cfg = EngineConfig {
        lines: 1024,
        log_blocks: 160,
        ..EngineConfig::default()
    };
    let mut kv = serve_kv(cfg, 16, 4, Telemetry::off());
    let hot_shard = 3usize;
    let lines = kv.engine().geometry().lines;
    // Collect, per session, keys whose home line lands in the hot shard.
    let keys_of = |sid: usize| -> Vec<Vec<u8>> {
        let mut keys = Vec::new();
        let mut n = 0u64;
        while keys.len() < 6 {
            let k = format!("w{sid}-{n:04}").into_bytes();
            if kv.shard_of_line(slots::home_line(lines, &k)) == hot_shard {
                keys.push(k);
            }
            n += 1;
        }
        keys
    };
    let session_keys: Vec<Vec<Vec<u8>>> = (0..4).map(keys_of).collect();

    type CommitLog = Vec<(u64, Vec<u64>)>;
    let commits: Arc<Mutex<CommitLog>> = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&commits);
    kv.set_commit_hook(Box::new(move |eid, counts| {
        sink.lock().unwrap().push((eid, counts.to_vec()));
    }));

    // Each session applies a seeded put/delete stream to its own keys;
    // replaying the same stream on a map gives the expected final state.
    // The stream opens by giving each of the session's keys a 220-byte
    // value, and no session goes on until all have: 24 live four-line
    // records cannot fit the 64-line hot shard, so some of those puts
    // escalate however the sessions interleave.
    let filled = AtomicUsize::new(0);
    let models: Vec<BTreeMap<Vec<u8>, Vec<u8>>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..4usize)
            .map(|sid| {
                let kv = &kv;
                let keys = &session_keys[sid];
                let filled = &filled;
                s.spawn(move || {
                    let mut rng = Rng::new(0xB0A7 ^ ((sid as u64) << 8));
                    let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
                    for i in 0..300u64 {
                        if let Some(key) = keys.get(i as usize) {
                            let mut val = format!("s{sid}i{i:04}:").into_bytes();
                            val.resize(220, b'.');
                            kv.put(sid, key, &val).unwrap();
                            model.insert(key.clone(), val);
                            if i as usize + 1 == keys.len() {
                                rendezvous(filled, 4);
                            }
                            continue;
                        }
                        let key = &keys[rng.below(keys.len() as u64) as usize];
                        if rng.below(100) < 70 {
                            let len = HAMMER_LENS[rng.below(3) as usize];
                            let mut val = format!("s{sid}i{i:04}:").into_bytes();
                            val.resize(len, b'.');
                            kv.put(sid, key, &val).unwrap();
                            model.insert(key.clone(), val);
                        } else {
                            kv.delete(sid, key).unwrap();
                            model.remove(key);
                        }
                    }
                    model
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("writer panicked"))
            .collect()
    });

    kv.commit().unwrap();
    let scanned: BTreeMap<Vec<u8>, Vec<u8>> = kv.scan().unwrap().into_iter().collect();
    for (sid, model) in models.iter().enumerate() {
        let prefix = format!("w{sid}-").into_bytes();
        let mine: BTreeMap<&Vec<u8>, &Vec<u8>> = scanned
            .iter()
            .filter(|(k, _)| k.starts_with(&prefix))
            .collect();
        let expect: BTreeMap<&Vec<u8>, &Vec<u8>> = model.iter().collect();
        assert_eq!(mine, expect, "session {sid} diverged from its model");
    }

    // The striped counters must account for every mutation, all of them
    // attributed to the hot shard (escalated spanning writes included).
    let stripes = kv.shard_mutation_counts();
    assert_eq!(stripes.iter().sum::<u64>(), 4 * 300);
    assert_eq!(stripes[hot_shard], 4 * 300, "all keys live in one shard");
    assert!(
        kv.escalation_count() > 0,
        "the opening 220-byte puts must overflow the 64-line hot shard"
    );

    // Commit-hook lower bounds: eids strictly increase, per-session
    // counts never decrease, and the final counts cover every op.
    let commits = commits.lock().unwrap();
    assert!(!commits.is_empty());
    let mut last_eid = 0u64;
    let mut last = vec![0u64; 4];
    for (eid, counts) in commits.iter() {
        assert!(*eid > last_eid, "commit eids must be ordered");
        for (s, (&now, then)) in counts.iter().zip(&last).enumerate() {
            assert!(now >= *then, "session {s} count regressed");
        }
        last_eid = *eid;
        last = counts.clone();
    }
    for (sid, &count) in last.iter().enumerate() {
        assert!(count <= 300, "session {sid} bound {count} overshoots");
    }
    kv.close().unwrap();
}

/// The preload/timed-phase boundary: after `preload` (which now ends
/// with `end_preload`), the first timed-phase epoch must carry only
/// timed-phase undo entries — the batched preload tail may not leak its
/// undo traffic into the measured epoch.
#[test]
fn first_timed_epoch_carries_only_timed_undo() {
    let telemetry = Telemetry::new(0, 1 << 16);
    let cfg = EngineConfig {
        lines: 4096,
        log_blocks: 1024,
        ..EngineConfig::default()
    };
    let kv = serve_kv(cfg, 64, 1, telemetry.clone());
    // A key count that is NOT batch-aligned, so a tail is left over that
    // only end_preload flushes.
    let keys = PRELOAD_BATCH + PRELOAD_BATCH / 2;
    let spec = LoadSpec {
        sessions: 1,
        ops_per_session: 1,
        keys,
        value_bytes: 8,
        ..LoadSpec::default()
    };
    preload(&kv, &spec).unwrap();
    let (_, committed_after_preload, _) = kv.engine().frontiers();
    assert_eq!(
        committed_after_preload,
        keys / PRELOAD_BATCH + 1,
        "per-batch commits plus the end_preload tail commit"
    );
    // Timed phase: a single put, then a commit closing the first timed
    // epoch.
    let first_timed = committed_after_preload + 1;
    kv.put(0, b"timed-op", b"x").unwrap();
    kv.commit().unwrap();
    kv.close().unwrap();

    let snapshot = telemetry.snapshot();
    assert_eq!(snapshot.dropped, 0, "ring too small for the run");
    let timed_undo = snapshot
        .events
        .iter()
        .filter(|ev| {
            matches!(
                ev.kind,
                EventKind::UndoEntryAppended { valid_till, .. }
                    if valid_till == EpochId(first_timed)
            )
        })
        .count();
    // One fresh single-slot put touches exactly one line; pre-fix, the
    // half-batch of uncommitted preload puts would all land here too.
    assert_eq!(
        timed_undo, 1,
        "preload undo traffic leaked into the first timed epoch"
    );
}
