//! Criterion micro-benchmarks for PiCL's hardware-path building blocks.
//!
//! These measure the *simulator's* data structures (not the modeled
//! hardware latencies): undo-buffer coalescing, bloom-filter probes, cache
//! array accesses, ACS scans, log recovery replay, and trace generation —
//! the per-event costs that dominate full-figure regeneration time.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use std::hint::black_box;

use picl::log::UndoLog;
use picl_cache::hierarchy::AccessType;
use picl_cache::{Hierarchy, SetAssocCache};
use picl_nvm::{DeltaSnapshots, MainMemory, Nvm};
use picl_sim::{Machine, SchemeKind};
use picl_trace::spec::SpecBenchmark;
use picl_trace::TraceSource;
use picl_types::time::ClockDomain;
use picl_types::BloomFilter;
use picl_types::UndoBuffer;
use picl_types::UndoEntry;
use picl_types::{config::NvmConfig, CoreId, Cycle, EpochId, LineAddr, SystemConfig};

fn nvm() -> Nvm {
    Nvm::new(NvmConfig::paper_nvm(), ClockDomain::from_mhz(2000))
}

fn bench_bloom(c: &mut Criterion) {
    let mut group = c.benchmark_group("bloom");
    group.throughput(Throughput::Elements(1));
    group.bench_function("insert", |b| {
        let mut filter = BloomFilter::paper_default();
        let mut i = 0u64;
        b.iter(|| {
            i = i.wrapping_add(0x9E3779B9);
            filter.insert(LineAddr::new(i));
        });
    });
    group.bench_function("probe_miss", |b| {
        let mut filter = BloomFilter::paper_default();
        for i in 0..32u64 {
            filter.insert(LineAddr::new(i * 977));
        }
        let mut i = 1_000_000u64;
        b.iter(|| {
            i += 1;
            black_box(filter.maybe_contains(LineAddr::new(i)));
        });
    });
    group.finish();
}

fn bench_undo_buffer(c: &mut Criterion) {
    let mut group = c.benchmark_group("undo_buffer");
    group.throughput(Throughput::Elements(32));
    group.bench_function("fill_and_flush_32", |b| {
        let mut mem = nvm();
        let mut log = UndoLog::new();
        let mut epoch = 1u64;
        b.iter(|| {
            let mut buf = UndoBuffer::paper_default();
            for i in 0..32u64 {
                let full = buf.push(UndoEntry::new(
                    LineAddr::new(epoch * 64 + i),
                    i,
                    EpochId(epoch),
                    EpochId(epoch + 1),
                ));
                if full {
                    log.append_flush(buf.drain(), &mut mem, Cycle(0));
                }
            }
            epoch += 1;
        });
    });
    group.finish();
}

fn bench_cache_array(c: &mut Criterion) {
    let mut group = c.benchmark_group("set_assoc");
    group.throughput(Throughput::Elements(1));
    group.bench_function("hit", |b| {
        let mut cache = SetAssocCache::new(4096, 8);
        for i in 0..4096u64 {
            cache.insert(LineAddr::new(i), i);
        }
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 1) % 4096;
            black_box(cache.get(LineAddr::new(i)));
        });
    });
    group.bench_function("insert_evict", |b| {
        let mut cache = SetAssocCache::new(4096, 8);
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            black_box(cache.insert(LineAddr::new(i), i));
        });
    });
    group.finish();
}

/// The packed SoA line table against the struct cache above, same shapes
/// and access patterns — the before/after pair for the data-oriented
/// hierarchy rewrite.
fn bench_packed_table(c: &mut Criterion) {
    use picl_cache::packed::{encode_line, DIRTY, TAGGED};
    use picl_cache::{CacheLineMeta, PackedLineCache};
    let mut group = c.benchmark_group("packed_table");
    group.throughput(Throughput::Elements(1));
    group.bench_function("probe_touch_hit", |b| {
        let mut cache = PackedLineCache::new(4096, 8);
        for i in 0..4096u64 {
            let (w, v) = encode_line(&CacheLineMeta::clean(i));
            cache.insert(LineAddr::new(i), w, v);
        }
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 1) % 4096;
            let slot = cache.probe(LineAddr::new(i)).expect("resident");
            cache.touch(slot);
            black_box(cache.value(slot));
        });
    });
    group.bench_function("insert_evict", |b| {
        let mut cache = PackedLineCache::new(4096, 8);
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let (w, v) = encode_line(&CacheLineMeta::clean(i));
            black_box(cache.insert(LineAddr::new(i), w, v));
        });
    });
    group.bench_function("store_retag", |b| {
        // The store fast path: probe, touch, set dirty + EID in the word.
        let mut cache = PackedLineCache::new(4096, 8);
        for i in 0..4096u64 {
            let (w, v) = encode_line(&CacheLineMeta::clean(i));
            cache.insert(LineAddr::new(i), w, v);
        }
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 1) % 4096;
            let slot = cache.probe(LineAddr::new(i)).expect("resident");
            cache.touch(slot);
            cache.set_word(slot, DIRTY | TAGGED | (i & 0xff));
        });
    });
    group.finish();
}

fn bench_hierarchy(c: &mut Criterion) {
    let mut group = c.benchmark_group("hierarchy");
    group.throughput(Throughput::Elements(1));
    group.bench_function("l1_hit_store", |b| {
        let cfg = SystemConfig::paper_single_core();
        let mut hier = Hierarchy::new(&cfg);
        let mut scheme = SchemeKind::Picl.build(&cfg);
        let mut mem = nvm();
        let mut v = 0u64;
        b.iter(|| {
            v += 1;
            hier.access(
                CoreId(0),
                LineAddr::new(7),
                AccessType::Store { new_value: v },
                scheme.as_mut(),
                &mut mem,
                Cycle(v),
            );
        });
    });
    group.bench_function("miss_path", |b| {
        let cfg = SystemConfig::paper_single_core();
        let mut hier = Hierarchy::new(&cfg);
        let mut scheme = SchemeKind::Picl.build(&cfg);
        let mut mem = nvm();
        let mut v = 0u64;
        b.iter(|| {
            v += 1;
            hier.access(
                CoreId(0),
                LineAddr::new(v * 67),
                AccessType::Store { new_value: v },
                scheme.as_mut(),
                &mut mem,
                Cycle(v),
            );
        });
    });
    group.finish();
}

fn bench_acs_pass(c: &mut Criterion) {
    // The ACS drain: collect every dirty line tagged with one EID. The
    // epoch-index fast path is O(lines drained); the reference full scan
    // is O(cache capacity) — the contrast is the point of this group.
    let mut group = c.benchmark_group("acs_pass");
    const TAGGED: u64 = 1024;
    group.throughput(Throughput::Elements(TAGGED));
    for reference in [false, true] {
        let label = if reference {
            "reference_scan"
        } else {
            "epoch_index"
        };
        group.bench_function(format!("drain_1024_tagged_{label}"), |b| {
            let cfg = SystemConfig::paper_single_core();
            let mut out = Vec::new();
            b.iter_batched(
                || {
                    let mut hier = Hierarchy::new(&cfg);
                    hier.set_reference_scan(reference);
                    let mut scheme = SchemeKind::Picl.build(&cfg);
                    let mut mem = nvm();
                    for i in 0..TAGGED {
                        hier.access(
                            CoreId(0),
                            LineAddr::new(i * 3),
                            AccessType::Store { new_value: i + 1 },
                            scheme.as_mut(),
                            &mut mem,
                            Cycle(i),
                        );
                    }
                    hier
                },
                |mut hier| {
                    hier.take_lines_with_eid_into(EpochId(1), &mut out);
                    black_box(out.len());
                },
                BatchSize::PerIteration,
            );
        });
    }
    group.finish();
}

fn bench_llc_hit(c: &mut Criterion) {
    // Steady-state loads over a working set larger than L1+L2 but smaller
    // than the LLC: every access walks the full miss path into the LLC
    // directory, recalls the line, and spills a victim back down.
    let mut group = c.benchmark_group("llc_hit");
    group.throughput(Throughput::Elements(1));
    group.bench_function("load_recall", |b| {
        let cfg = SystemConfig::paper_single_core();
        let mut hier = Hierarchy::new(&cfg);
        let mut scheme = SchemeKind::Ideal.build(&cfg);
        let mut mem = nvm();
        // 16 k lines: L1 holds 1 k, L2 8 k, LLC 32 k.
        const RANGE: u64 = 16_384;
        for i in 0..RANGE {
            hier.access(
                CoreId(0),
                LineAddr::new(i),
                AccessType::Load,
                scheme.as_mut(),
                &mut mem,
                Cycle(i),
            );
        }
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            black_box(hier.access(
                CoreId(0),
                LineAddr::new(i % RANGE),
                AccessType::Load,
                scheme.as_mut(),
                &mut mem,
                Cycle(RANGE + i),
            ));
        });
    });
    group.finish();
}

fn bench_epoch_snapshot(c: &mut Criterion) {
    // Epoch-commit snapshot cost over a 100k-line logical image with 1k
    // lines dirtied per epoch: copy-on-write delta vs eager deep clone.
    let mut group = c.benchmark_group("snapshot");
    const FOOTPRINT: u64 = 100_000;
    const DIRTY_PER_EPOCH: u64 = 1_000;
    let mut logical = MainMemory::new();
    for i in 0..FOOTPRINT {
        logical.write_line(LineAddr::new(i), i + 1);
    }
    group.throughput(Throughput::Elements(DIRTY_PER_EPOCH));
    group.bench_function("delta_commit_1k_dirty", |b| {
        let mut snaps = DeltaSnapshots::new();
        let mut epoch = 0u64;
        b.iter(|| {
            epoch += 1;
            // Bound chain growth so long calibration runs stay in memory.
            if epoch.is_multiple_of(256) {
                snaps = DeltaSnapshots::new();
            }
            let delta: picl_types::hash::FastMap<LineAddr, u64> = (0..DIRTY_PER_EPOCH)
                .map(|i| (LineAddr::new((epoch * 7 + i) % FOOTPRINT), epoch))
                .collect();
            snaps.commit(EpochId(epoch), delta);
        });
    });
    group.bench_function("full_clone_100k_lines", |b| {
        b.iter(|| black_box(logical.snapshot().touched_lines()));
    });
    group.finish();
}

fn bench_recovery(c: &mut Criterion) {
    let mut group = c.benchmark_group("recovery");
    // Replay a 10k-entry multi-undo log.
    group.throughput(Throughput::Elements(10_000));
    group.bench_function("replay_10k_entries", |b| {
        let mut mem = nvm();
        let mut log = UndoLog::new();
        for block in 0..(10_000 / 32) {
            let entries: Vec<UndoEntry> = (0..32)
                .map(|i| {
                    UndoEntry::new(
                        LineAddr::new(block * 32 + i),
                        i,
                        EpochId(1),
                        EpochId(2 + block / 100),
                    )
                })
                .collect();
            log.append_flush(entries, &mut mem, Cycle(0));
        }
        b.iter_batched(
            || mem.clone(),
            |mut m| {
                black_box(log.recover(&mut m, EpochId(1), Cycle(0)));
            },
            BatchSize::SmallInput,
        );
    });
    group.finish();
}

fn bench_trace_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("trace");
    group.throughput(Throughput::Elements(1));
    for bench in [
        SpecBenchmark::Mcf,
        SpecBenchmark::Libquantum,
        SpecBenchmark::Gamess,
    ] {
        group.bench_function(bench.name(), |b| {
            let mut gen = bench.trace(1);
            b.iter(|| black_box(gen.next_event()));
        });
    }
    group.finish();
}

fn bench_end_to_end(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulation");
    group.sample_size(10);
    // Whole-machine throughput: instructions simulated per second.
    for kind in [SchemeKind::Ideal, SchemeKind::Picl, SchemeKind::Frm] {
        group.throughput(Throughput::Elements(200_000));
        group.bench_function(format!("bzip2_200k_{}", kind.name()), |b| {
            b.iter_batched(
                || {
                    let mut cfg = SystemConfig::paper_single_core();
                    cfg.epoch.epoch_len_instructions = 100_000;
                    let scheme = kind.build(&cfg);
                    let trace: Box<dyn TraceSource + Send> =
                        Box::new(SpecBenchmark::Bzip2.trace(7));
                    Machine::new(cfg, scheme, vec![trace], "bzip2", false)
                },
                |mut machine| {
                    machine.run(200_000);
                    black_box(machine.instructions());
                },
                BatchSize::PerIteration,
            );
        });
    }
    group.finish();
}

fn bench_telemetry_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("telemetry");
    group.sample_size(10);
    // The zero-overhead-when-off claim: identical PiCL runs with the
    // recorder detached vs attached.
    group.throughput(Throughput::Elements(200_000));
    for enabled in [false, true] {
        let label = if enabled { "on" } else { "off" };
        group.bench_function(format!("bzip2_200k_picl_{label}"), |b| {
            b.iter_batched(
                || {
                    let mut cfg = SystemConfig::paper_single_core();
                    cfg.epoch.epoch_len_instructions = 100_000;
                    let scheme = SchemeKind::Picl.build(&cfg);
                    let trace: Box<dyn TraceSource + Send> =
                        Box::new(SpecBenchmark::Bzip2.trace(7));
                    let mut machine = Machine::new(cfg, scheme, vec![trace], "bzip2", false);
                    let telemetry = enabled.then(|| machine.enable_telemetry(64 * 1024, 10_000));
                    (machine, telemetry)
                },
                |(mut machine, telemetry)| {
                    machine.run(200_000);
                    black_box(machine.instructions());
                    if let Some(t) = telemetry {
                        black_box(t.snapshot().events.len());
                    }
                },
                BatchSize::PerIteration,
            );
        });
    }
    // The audit tap rides the same event stream: its cost over telemetry-on
    // is the per-event sink dispatch plus the checker's state updates.
    group.bench_function("bzip2_200k_picl_audit", |b| {
        b.iter_batched(
            || {
                let mut cfg = SystemConfig::paper_single_core();
                cfg.epoch.epoch_len_instructions = 100_000;
                let scheme = SchemeKind::Picl.build(&cfg);
                let trace: Box<dyn TraceSource + Send> = Box::new(SpecBenchmark::Bzip2.trace(7));
                let mut machine = Machine::new(cfg, scheme, vec![trace], "bzip2", false);
                machine.enable_telemetry(64 * 1024, 10_000);
                let audit = machine.enable_audit();
                (machine, audit)
            },
            |(mut machine, audit)| {
                machine.run(200_000);
                black_box(machine.instructions());
                black_box(audit.report().events_seen);
            },
            BatchSize::PerIteration,
        );
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_bloom,
    bench_undo_buffer,
    bench_cache_array,
    bench_packed_table,
    bench_hierarchy,
    bench_acs_pass,
    bench_llc_hit,
    bench_epoch_snapshot,
    bench_recovery,
    bench_trace_generation,
    bench_end_to_end,
    bench_telemetry_overhead
);
criterion_main!(benches);
