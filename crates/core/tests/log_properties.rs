//! Property tests for the multi-undo log: for arbitrary store histories,
//! backward-scan recovery reconstructs exactly the value each line held at
//! the target epoch.
//!
//! The test drives a reference timeline — per-line value histories across
//! epochs — through the capture rule both the simulator and the store
//! engine run ([`undo_range`]), with eviction-driven in-place writes
//! landing in NVM at arbitrary later points.

use proptest::prelude::*;

use picl::log::UndoLog;
use picl_nvm::Nvm;
use picl_types::time::ClockDomain;
use picl_types::undo::{undo_range, UndoEntry};
use picl_types::{config::NvmConfig, Cycle, EpochId, LineAddr};

fn mem() -> Nvm {
    Nvm::new(NvmConfig::paper_nvm(), ClockDomain::from_mhz(2000))
}

/// Applies one store of `value` to `line` in epoch `epoch` the way
/// cache-driven logging does: `lines` holds each line's (value, tag), and
/// the pre-image is logged iff the capture rule says so. Nothing persisted
/// before the history, so the floor for untagged lines is epoch 0.
fn store(
    lines: &mut [(u64, Option<EpochId>)],
    log: &mut UndoLog,
    m: &mut Nvm,
    line: u64,
    epoch: u64,
    value: u64,
) {
    let (old_value, tag) = lines[line as usize];
    if let Some((from, till)) = undo_range(tag, EpochId(epoch), EpochId::ZERO) {
        let entry = UndoEntry::new(LineAddr::new(line), old_value, from, till);
        log.append_flush(vec![entry], m, Cycle(0));
    }
    lines[line as usize] = (value, Some(EpochId(epoch)));
}

/// One store in the randomized history: (line, epoch) pairs, epochs
/// nondecreasing after sorting.
fn history_strategy() -> impl Strategy<Value = Vec<(u64, u64)>> {
    proptest::collection::vec(((0u64..12), (1u64..10)), 1..60).prop_map(|mut v| {
        v.sort_by_key(|&(_, e)| e);
        v
    })
}

proptest! {
    /// Build the log exactly as cache-driven logging would; then for every
    /// feasible recovery target, replay onto the *final* memory image and
    /// compare against the reference timeline.
    #[test]
    fn recovery_reconstructs_every_epoch(
        history in history_strategy(),
        target in 0u64..10,
    ) {
        let mut m = mem();
        let mut log = UndoLog::new();

        // Reference: value of each line at the end of each epoch.
        // Value tokens: the (1-based) index of the store that produced them.
        let max_epoch = 10u64;
        let lines: Vec<u64> = (0..12).collect();
        // value_at[line][epoch] = value after all stores of that epoch.
        let mut value_at = vec![vec![0u64; (max_epoch + 1) as usize]; lines.len()];

        // Track per-line (current value, epoch tag).
        let mut current: Vec<(u64, Option<EpochId>)> = vec![(0, None); lines.len()];
        let mut token = 0u64;
        for &(line, epoch) in &history {
            token += 1;
            store(&mut current, &mut log, &mut m, line, epoch, token);
            // Fill the reference table forward.
            for e in epoch..=max_epoch {
                value_at[line as usize][e as usize] = token;
            }
        }

        // Evictions: final values land in place (worst case — everything
        // dirty was written back before the crash).
        for (i, &(v, _)) in current.iter().enumerate() {
            m.state_mut().write_line(LineAddr::new(i as u64), v);
        }

        // Recover to the target epoch (any epoch, treating it as the
        // persisted checkpoint).
        let (_applied, _) = log.recover(&mut m, EpochId(target), Cycle(0));

        for (i, line) in lines.iter().enumerate() {
            let expected = value_at[i][target as usize];
            let got = m.state().read_line(LineAddr::new(*line));
            prop_assert_eq!(
                got, expected,
                "line {} at target epoch {}: got {}, want {}",
                line, target, got, expected
            );
        }
    }

    /// Garbage collection never discards a block still needed: recovery
    /// to any epoch at or after the GC point is unaffected.
    #[test]
    fn gc_preserves_recoverability(
        history in history_strategy(),
        gc_epoch in 0u64..10,
    ) {
        let mut m_with_gc = mem();
        let mut m_without = mem();
        let mut log = UndoLog::new();

        let mut current: Vec<(u64, Option<EpochId>)> = vec![(0, None); 12];
        let mut token = 0u64;
        for &(line, epoch) in &history {
            token += 1;
            store(&mut current, &mut log, &mut m_with_gc, line, epoch, token);
        }
        for (i, &(v, _)) in current.iter().enumerate() {
            m_with_gc.state_mut().write_line(LineAddr::new(i as u64), v);
            m_without.state_mut().write_line(LineAddr::new(i as u64), v);
        }

        let mut log_gc = log.clone();
        log_gc.garbage_collect(EpochId(gc_epoch));

        // Recover both to the GC epoch itself (the earliest target a
        // persisted system would ever use).
        log.recover(&mut m_without, EpochId(gc_epoch), Cycle(0));
        log_gc.recover(&mut m_with_gc, EpochId(gc_epoch), Cycle(0));

        for i in 0..12u64 {
            prop_assert_eq!(
                m_with_gc.state().read_line(LineAddr::new(i)),
                m_without.state().read_line(LineAddr::new(i)),
                "line {} diverged after GC at {}", i, gc_epoch
            );
        }
    }
}
