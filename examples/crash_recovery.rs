//! Crash recovery demo: the paper's doubly-linked-list corruption example.
//!
//! The introduction's motivating failure: appending to a doubly linked
//! list updates two pointers in *different* cache lines. If a power
//! failure lands after one pointer reached NVM but not the other, memory
//! is irreversibly corrupted. This example drives exactly that workload,
//! pulls the plug, and compares:
//!
//! * **Ideal NVM** (no consistency) — post-crash memory matches *no*
//!   checkpoint the machine can still reconstruct: the list is torn.
//! * **PiCL** — recovery replays the multi-undo log and memory matches the
//!   persisted checkpoint bit-for-bit.
//!
//! ```sh
//! cargo run --release --example crash_recovery
//! ```

use picl_repro::sim::{Machine, SchemeKind};
use picl_repro::trace::{AccessKind, TraceEvent, TraceSource};
use picl_repro::types::{Address, EpochId, Rng, SystemConfig};

/// A writer appending nodes to a doubly linked list, with enough random
/// read traffic to force dirty lines out to NVM mid-epoch (the hazard).
struct ListAppender {
    rng: Rng,
    next_node: u64,
    pending: Vec<TraceEvent>,
}

impl ListAppender {
    fn new(seed: u64) -> Self {
        ListAppender {
            rng: Rng::new(seed),
            next_node: 1,
            pending: Vec::new(),
        }
    }
}

impl TraceSource for ListAppender {
    fn next_event(&mut self) -> TraceEvent {
        if let Some(ev) = self.pending.pop() {
            return ev;
        }
        // One append = store the new node's line (prev/next pointers) and
        // store the old tail's line (its next pointer): two lines, one
        // logical operation that must be atomic across crashes.
        let node_line = |n: u64| Address::new((1_000_000 + n) * 64);
        let n = self.next_node;
        self.next_node += 1;
        self.pending.push(TraceEvent {
            gap_instructions: 8,
            kind: AccessKind::Store,
            addr: node_line(n - 1), // old tail's next pointer
        });
        // Interleave cache-thrashing reads so dirty lines evict to NVM at
        // unpredictable times.
        for _ in 0..6 {
            self.pending.push(TraceEvent {
                gap_instructions: 2,
                kind: AccessKind::Load,
                addr: Address::new(self.rng.below(1 << 24) * 64),
            });
        }
        TraceEvent {
            gap_instructions: 8,
            kind: AccessKind::Store,
            addr: node_line(n), // new node's pointers
        }
    }

    fn label(&self) -> &str {
        "list-appender"
    }
}

fn run_and_crash(kind: SchemeKind) {
    let mut cfg = SystemConfig::paper_single_core();
    cfg.epoch.epoch_len_instructions = 50_000;
    let scheme = kind.build(&cfg);
    let mut machine = Machine::new(
        cfg,
        scheme,
        vec![Box::new(ListAppender::new(7))],
        "linked-list",
        true, // keep golden snapshots for the comparison
    );
    machine.run(400_000);

    println!("--- {} ---", kind.name());
    println!(
        "ran {} instructions, {} epochs committed; pulling the plug…",
        machine.instructions(),
        machine.scheme().system_eid().raw() - 1
    );
    let committed = machine.scheme().system_eid().raw() - 1;
    // The golden images the machine can still reconstruct: every commit
    // back to the persisted frontier, and the power-on image. Taken now,
    // because the crash rewinds the history to the recovered epoch.
    let checkpoints: Vec<_> = (0..=committed)
        .filter_map(|e| machine.snapshot(EpochId(e)))
        .collect();
    let crash = machine.crash();
    println!(
        "recovery: target {}, {} undo entries applied",
        crash.outcome.recovered_to, crash.outcome.entries_applied
    );
    match crash.consistent {
        Some(true) => println!(
            "memory matches the {} checkpoint exactly — the list is intact\n",
            crash.outcome.recovered_to
        ),
        _ => {
            // Show that no reconstructible checkpoint matches: the list is
            // torn.
            let matching = checkpoints
                .iter()
                .filter(|s| s.diff(machine.memory().state()).is_empty())
                .count();
            println!(
                "memory matches {} of the {} checkpoints the machine can still \
                 reconstruct — the list is corrupted\n",
                matching,
                checkpoints.len()
            );
        }
    }
}

fn main() {
    println!("Appending to a doubly linked list, then crashing mid-run.\n");
    run_and_crash(SchemeKind::Ideal);
    run_and_crash(SchemeKind::Picl);
}
