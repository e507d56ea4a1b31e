//! The store-vs-simulator differential: one logical workload, two
//! implementations of the same protocol, epoch-level outcomes compared.
//!
//! `picl-store` executes PiCL in software; `picl-sim` models it as
//! hardware. Both emit the shared telemetry vocabulary, so the check is
//! direct: run a seeded KV workload through the engine's slot table
//! (recording which slot line each operation touched), lower those
//! accesses to a single-core trace, run the simulated PiCL machine over
//! it with the epoch length matched op-for-instruction, and require that
//! every committed epoch logged undo entries for exactly the same set of
//! lines in both worlds.
//!
//! Alignment is exact by construction, not by luck: every trace event
//! accounts for [`INSTRUCTIONS_PER_OP`] instructions, the machine checks
//! the epoch budget after each event, and the budget is
//! `ops_per_epoch × INSTRUCTIONS_PER_OP` — so simulator epoch `N` spans
//! precisely the store's operations `(N-1)·ops_per_epoch .. N·ops_per_epoch`.
//! The store side therefore commits an epoch every `ops_per_epoch`
//! operations, gets included (an epoch is a slice of execution here, not
//! of mutations as in the serving layer).

use std::collections::BTreeMap;
use std::sync::Arc;

use picl::os::OS_REGION_BASE_LINE;
use picl_sim::{Machine, SchemeKind};
use picl_store::layout::Geometry;
use picl_store::slots::{self, Deletion, Lookup};
use picl_store::{generate, CountingMedium, Engine, EngineConfig, Op};
use picl_telemetry::{EventKind, Telemetry};
use picl_trace::event::ScriptedSource;
use picl_trace::{AccessKind, TraceEvent};
use picl_types::hash::FastSet;
use picl_types::{Address, SystemConfig, LINE_BYTES};

use crate::scheme::LabScheme;

/// Instructions each KV operation is worth in the lowered trace (one
/// memory access plus `INSTRUCTIONS_PER_OP - 1` of gap).
pub const INSTRUCTIONS_PER_OP: u64 = 10;

/// One logical access a store operation made: the slot line it landed on
/// and whether it wrote it.
#[derive(Debug, Clone, Copy)]
struct Access {
    /// Slot line the operation terminated at (a spanning record reports
    /// its head slot).
    line: u32,
    /// Whether the slot was written (put/delete) vs only probed (get, or
    /// a delete of an absent key).
    write: bool,
}

/// Parameters of one store-vs-sim differential run.
#[derive(Debug, Clone, Copy)]
pub struct StoreDiffSpec {
    /// Workload seed.
    pub seed: u64,
    /// Operation count (rounded down to a whole number of epochs for the
    /// comparison).
    pub ops: u64,
    /// Operations per epoch.
    pub ops_per_epoch: u64,
    /// Distinct keys in play.
    pub key_space: u64,
}

impl Default for StoreDiffSpec {
    fn default() -> Self {
        StoreDiffSpec {
            seed: 1,
            ops: 120,
            ops_per_epoch: 8,
            key_space: 12,
        }
    }
}

/// Epoch-by-epoch outcome of the differential.
#[derive(Debug, Clone)]
pub struct StoreDiffReport {
    /// Whole epochs compared.
    pub epochs_compared: u64,
    /// Epoch commits observed in the store's event stream.
    pub store_commits: u64,
    /// Epoch commits observed in the simulator's event stream.
    pub sim_commits: u64,
    /// Per-epoch divergences: `(epoch, lines only the store logged,
    /// lines only the simulator logged)`.
    pub mismatches: Vec<(u64, Vec<u64>, Vec<u64>)>,
}

impl StoreDiffReport {
    /// Whether every compared epoch agreed.
    pub fn matches(&self) -> bool {
        self.mismatches.is_empty() && self.epochs_compared > 0
    }
}

/// Groups undo-entry appends by their `valid_till` epoch, dropping the
/// core-private OS lines (epoch-boundary handler traffic), which exist
/// only in the simulator.
fn dirty_sets(events: &[picl_telemetry::Event]) -> BTreeMap<u64, FastSet<u64>> {
    let mut sets: BTreeMap<u64, FastSet<u64>> = BTreeMap::new();
    for ev in events {
        if let EventKind::UndoEntryAppended {
            addr, valid_till, ..
        } = ev.kind
        {
            if addr.raw() < OS_REGION_BASE_LINE {
                sets.entry(valid_till.raw()).or_default().insert(addr.raw());
            }
        }
    }
    sets
}

fn commit_count(events: &[picl_telemetry::Event]) -> u64 {
    events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::EpochCommit { .. }))
        .count() as u64
}

/// Runs the workload through `picl-store`'s slot table, committing every
/// `ops_per_epoch` operations, and returns its telemetry events and the
/// per-op slot accesses.
fn run_store(spec: &StoreDiffSpec, ops: &[Op]) -> (Vec<picl_telemetry::Event>, Vec<Access>) {
    let cfg = EngineConfig::default();
    let geometry = Geometry {
        lines: cfg.lines,
        log_blocks: cfg.log_blocks,
    };
    let medium = Arc::new(CountingMedium::new(geometry.total_len()));
    let telemetry = Telemetry::new(0, 1 << 16);
    let (engine, _) =
        Engine::open(medium, cfg, telemetry.clone()).expect("fresh in-memory store must open");
    let fail = "in-memory workload cannot fail";
    let mut accesses = Vec::with_capacity(ops.len());
    for (done, op) in (1u64..).zip(ops) {
        let access = match op {
            Op::Put(k, v) => Access {
                line: slots::put(&engine, k, v).expect(fail),
                write: true,
            },
            Op::Delete(k) => match slots::delete(&engine, k).expect(fail) {
                Deletion::Deleted { line } => Access { line, write: true },
                Deletion::Missing { line } => Access { line, write: false },
            },
            Op::Get(k) => match slots::lookup(&engine, k).expect(fail) {
                Lookup::Found { line, .. } | Lookup::Missing { line } => {
                    Access { line, write: false }
                }
                Lookup::Contended => panic!("torn record under an exclusive reader"),
            },
        };
        accesses.push(access);
        if done.is_multiple_of(spec.ops_per_epoch) {
            engine.commit_epoch().expect(fail);
        }
    }
    engine.close().expect("clean close");
    (telemetry.snapshot().events, accesses)
}

/// Replays the store's access sequence through the simulated PiCL
/// machine, returning its telemetry events.
fn run_sim(spec: &StoreDiffSpec, accesses: &[Access]) -> Vec<picl_telemetry::Event> {
    let events: Vec<TraceEvent> = accesses
        .iter()
        .map(|a| TraceEvent {
            gap_instructions: (INSTRUCTIONS_PER_OP - 1) as u32,
            kind: if a.write {
                AccessKind::Store
            } else {
                AccessKind::Load
            },
            addr: Address::new(u64::from(a.line) * LINE_BYTES),
        })
        .collect();
    let mut cfg = SystemConfig::paper_single_core();
    cfg.epoch.epoch_len_instructions = spec.ops_per_epoch * INSTRUCTIONS_PER_OP;
    cfg.cores = 1;
    cfg.validate().expect("differential config must be valid");
    let scheme = LabScheme::Standard(SchemeKind::Picl).build(&cfg);
    let source = ScriptedSource::new("storediff", events);
    let mut machine = Machine::new(cfg, scheme, vec![Box::new(source)], "storediff", false);
    let telemetry = machine.enable_telemetry(1 << 16, 5_000);
    machine.run_until(accesses.len() as u64 * INSTRUCTIONS_PER_OP);
    telemetry.snapshot().events
}

/// Runs the full differential: same seeded workload through the store
/// and the simulator, epoch-level undo outcomes diffed.
///
/// # Panics
///
/// Panics on degenerate parameters (`ops_per_epoch == 0`, workload too
/// short for a single epoch).
pub fn run_store_diff(spec: &StoreDiffSpec) -> StoreDiffReport {
    assert!(spec.ops_per_epoch > 0, "ops_per_epoch must be >= 1");
    let whole_ops = spec.ops - spec.ops % spec.ops_per_epoch;
    assert!(whole_ops > 0, "workload shorter than one epoch");
    let ops = generate(spec.seed, whole_ops, spec.key_space);
    let (store_events, accesses) = run_store(spec, &ops);
    let sim_events = run_sim(spec, &accesses);

    let store_sets = dirty_sets(&store_events);
    let sim_sets = dirty_sets(&sim_events);
    let store_commits = commit_count(&store_events);
    let sim_commits = commit_count(&sim_events);
    let epochs_compared = store_commits.min(sim_commits);

    let mut mismatches = Vec::new();
    let empty = FastSet::default();
    for epoch in 1..=epochs_compared {
        let s = store_sets.get(&epoch).unwrap_or(&empty);
        let m = sim_sets.get(&epoch).unwrap_or(&empty);
        if s != m {
            let mut store_only: Vec<u64> = s.difference(m).copied().collect();
            let mut sim_only: Vec<u64> = m.difference(s).copied().collect();
            store_only.sort_unstable();
            sim_only.sort_unstable();
            mismatches.push((epoch, store_only, sim_only));
        }
    }
    StoreDiffReport {
        epochs_compared,
        store_commits,
        sim_commits,
        mismatches,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_and_sim_agree_epoch_for_epoch() {
        let report = run_store_diff(&StoreDiffSpec::default());
        assert!(
            report.matches(),
            "epoch-level divergence: {:?}",
            report.mismatches
        );
        assert_eq!(report.store_commits, report.sim_commits);
        assert_eq!(report.epochs_compared, 120 / 8);
    }

    #[test]
    fn agreement_holds_across_seeds_and_epoch_lengths() {
        for (seed, ops, ope) in [(2, 60, 3), (9, 96, 12), (31, 50, 5)] {
            let report = run_store_diff(&StoreDiffSpec {
                seed,
                ops,
                ops_per_epoch: ope,
                key_space: 10,
            });
            assert!(
                report.matches(),
                "seed {seed} ope {ope}: {:?}",
                report.mismatches
            );
        }
    }

    #[test]
    fn access_log_records_one_entry_per_op() {
        let spec = StoreDiffSpec::default();
        let ops = [
            Op::Put(b"a".to_vec(), b"1".to_vec()),
            Op::Get(b"a".to_vec()),
            Op::Delete(b"a".to_vec()),
            Op::Get(b"a".to_vec()),
            Op::Delete(b"a".to_vec()),
        ];
        let (_, log) = run_store(&spec, &ops);
        let writes: Vec<bool> = log.iter().map(|a| a.write).collect();
        assert_eq!(writes, [true, false, true, false, false]);
        // The get and the delete find the put's slot.
        assert_eq!((log[1].line, log[2].line), (log[0].line, log[0].line));
    }

    #[test]
    fn diff_detects_a_perturbed_workload() {
        // Not vacuous: running the sim over a *shifted* access stream
        // must produce at least one epoch mismatch.
        let spec = StoreDiffSpec::default();
        let ops = generate(spec.seed, spec.ops, spec.key_space);
        let (store_events, mut accesses) = run_store(&spec, &ops);
        for a in accesses.iter_mut() {
            a.line += 1; // systematic skew: every access lands one line off
        }
        let sim_events = run_sim(&spec, &accesses);
        let store_sets = dirty_sets(&store_events);
        let sim_sets = dirty_sets(&sim_events);
        assert_ne!(store_sets, sim_sets, "skewed run should diverge");
    }
}
