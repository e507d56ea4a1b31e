//! Copy-on-write golden snapshots.
//!
//! The machine used to deep-clone the entire logical [`MainMemory`] at
//! every epoch commit, making commit cost O(footprint) even when the
//! epoch wrote a handful of lines. [`DeltaSnapshots`] stores one forward
//! delta per committed epoch — the final value of every line written
//! since the previous commit — and reconstructs a full image only when a
//! crash actually needs one. Commit cost becomes O(lines written this
//! epoch); reconstruction is O(footprint + lines held in deltas), paid
//! only on the (rare) crash path.
//!
//! History is bounded by a *horizon*: [`DeltaSnapshots::fold_through`]
//! merges the oldest deltas into a base image, after which epochs before
//! the horizon are no longer reconstructible. A recovery can only ever
//! target the persisted frontier, so folding through it loses no image a
//! correct recovery needs, and the chain holds O(footprint) entries
//! however long the run.
//!
//! [`EpochId::ZERO`] is the empty power-on image: it is always
//! reconstructible and never stored.

use picl_types::hash::FastMap;
use picl_types::{EpochId, LineAddr};

use crate::state::MainMemory;

/// Fewest foldable entries [`DeltaSnapshots::fold_through`] merges at
/// once, so small images do not fold on every commit.
const MIN_FOLD_ENTRIES: usize = 4096;

/// A base image plus an ordered chain of per-epoch forward deltas over
/// [`MainMemory`].
#[derive(Debug, Clone, Default)]
pub struct DeltaSnapshots {
    /// The image as of `horizon`'s commit: every folded delta applied.
    base: MainMemory,
    /// The oldest reconstructible epoch besides [`EpochId::ZERO`].
    horizon: EpochId,
    /// Monotonically increasing epoch ids after `horizon`; `deltas[i].1`
    /// holds the final values of lines written between the previous
    /// commit and commit `deltas[i].0`.
    deltas: Vec<(EpochId, FastMap<LineAddr, u64>)>,
    /// Entries across `deltas`.
    held: usize,
}

impl DeltaSnapshots {
    /// An empty chain: only [`EpochId::ZERO`] is reconstructible.
    pub fn new() -> Self {
        DeltaSnapshots::default()
    }

    /// Records the commit of `epoch` with `delta` = the current values of
    /// every line written since the previous commit.
    ///
    /// Epochs must be committed in increasing order; re-committing the
    /// most recent epoch merges the new delta in (later writes win),
    /// matching an eager full clone taken at the later commit.
    pub fn commit(&mut self, epoch: EpochId, delta: FastMap<LineAddr, u64>) {
        // ZERO is the implicit power-on image: storing a delta under it
        // would silently shadow the empty image it always reconstructs to
        // (reachable after `truncate_after(EpochId::ZERO)` empties the
        // chain and disarms the monotonicity check below).
        assert!(
            epoch > EpochId::ZERO,
            "EpochId::ZERO is the implicit base snapshot and cannot be committed"
        );
        match self.deltas.last_mut() {
            Some((last, existing)) if *last == epoch => {
                self.held -= existing.len();
                existing.extend(delta);
                self.held += existing.len();
            }
            // The open epoch was folded already: merge into the base.
            None if epoch == self.horizon => {
                for (line, value) in delta {
                    self.base.write_line(line, value);
                }
            }
            last => {
                let last = last.map_or(self.horizon, |(e, _)| *e);
                assert!(last < epoch, "snapshot commits must be monotonic");
                self.held += delta.len();
                self.deltas.push((epoch, delta));
            }
        }
    }

    /// Merges every delta at or before `epoch` into the base, moving the
    /// horizon up to the newest of them — once they hold at least
    /// `max(base.touched_lines(), 4096)` entries. Folding only in batches
    /// that large keeps the held entries O(base) and the fold work
    /// amortized O(1) per entry.
    pub fn fold_through(&mut self, epoch: EpochId) {
        let foldable = self.deltas.partition_point(|(e, _)| *e <= epoch);
        let newer: usize = self.deltas[foldable..].iter().map(|(_, d)| d.len()).sum();
        let entries = self.held - newer;
        if foldable == 0 || entries < self.base.touched_lines().max(MIN_FOLD_ENTRIES) {
            return;
        }
        for (e, delta) in self.deltas.drain(..foldable) {
            for (line, value) in delta {
                self.base.write_line(line, value);
            }
            self.horizon = e;
        }
        self.held = newer;
    }

    /// Whether `epoch` can be reconstructed.
    pub fn contains(&self, epoch: EpochId) -> bool {
        epoch == EpochId::ZERO
            || epoch == self.horizon
            || self.deltas.iter().any(|(e, _)| *e == epoch)
    }

    /// The most recently committed epoch.
    pub fn latest(&self) -> EpochId {
        self.deltas.last().map_or(self.horizon, |(e, _)| *e)
    }

    /// Rebuilds the full memory image as of the commit of `epoch`, or
    /// `None` if that epoch was never committed or lies behind the
    /// horizon. `EpochId::ZERO` yields the power-on
    /// (all-[`MainMemory::INITIAL`]) image.
    pub fn reconstruct(&self, epoch: EpochId) -> Option<MainMemory> {
        if epoch == EpochId::ZERO {
            return Some(MainMemory::new());
        }
        if !self.contains(epoch) {
            return None;
        }
        let mut image = self.base.clone();
        for (_, delta) in self.deltas.iter().take_while(|(e, _)| *e <= epoch) {
            for (line, value) in delta {
                image.write_line(*line, *value);
            }
        }
        Some(image)
    }

    /// Drops every snapshot strictly after `epoch` (crash rewind).
    ///
    /// A rewind behind the horizon cannot be exact: the base already
    /// holds the rolled-back epochs' writes. The base is then kept,
    /// relabelled as `epoch`, so the new timeline's commits stay
    /// monotonic. A chain folded through the persisted frontier only
    /// rewinds there after a recovery the crash oracle failed (its golden
    /// image was `None`).
    pub fn truncate_after(&mut self, epoch: EpochId) {
        if epoch == EpochId::ZERO {
            *self = DeltaSnapshots::new();
            return;
        }
        let keep = self.deltas.partition_point(|(e, _)| *e <= epoch);
        self.held -= self.deltas[keep..]
            .iter()
            .map(|(_, d)| d.len())
            .sum::<usize>();
        self.deltas.truncate(keep);
        self.horizon = self.horizon.min(epoch);
    }

    /// Total delta entries held after the horizon (memory diagnostics).
    pub fn delta_lines(&self) -> usize {
        self.held
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn delta(pairs: &[(u64, u64)]) -> FastMap<LineAddr, u64> {
        pairs.iter().map(|(l, v)| (LineAddr::new(*l), *v)).collect()
    }

    #[test]
    fn zero_epoch_is_always_empty() {
        let snaps = DeltaSnapshots::new();
        assert!(snaps.contains(EpochId::ZERO));
        let image = snaps.reconstruct(EpochId::ZERO).unwrap();
        assert_eq!(image.touched_lines(), 0);
    }

    #[test]
    fn reconstruct_applies_deltas_in_order() {
        let mut snaps = DeltaSnapshots::new();
        snaps.commit(EpochId(1), delta(&[(1, 10), (2, 20)]));
        snaps.commit(EpochId(2), delta(&[(2, 21), (3, 30)]));

        let at1 = snaps.reconstruct(EpochId(1)).unwrap();
        assert_eq!(at1.read_line(LineAddr::new(1)), 10);
        assert_eq!(at1.read_line(LineAddr::new(2)), 20);
        assert_eq!(at1.read_line(LineAddr::new(3)), MainMemory::INITIAL);

        let at2 = snaps.reconstruct(EpochId(2)).unwrap();
        assert_eq!(at2.read_line(LineAddr::new(2)), 21);
        assert_eq!(at2.read_line(LineAddr::new(3)), 30);
    }

    #[test]
    fn uncommitted_epoch_is_none() {
        let mut snaps = DeltaSnapshots::new();
        snaps.commit(EpochId(2), delta(&[(1, 1)]));
        assert!(snaps.reconstruct(EpochId(1)).is_none());
        assert!(snaps.contains(EpochId(2)));
    }

    #[test]
    fn delta_matches_full_clone_reference() {
        // Differential check: replaying random-ish writes through both the
        // delta chain and eager full clones yields identical images.
        let mut snaps = DeltaSnapshots::new();
        let mut mem = MainMemory::new();
        let mut full: Vec<(EpochId, MainMemory)> = Vec::new();
        let mut pending: FastMap<LineAddr, u64> = FastMap::default();

        let mut x = 7u64;
        for epoch in 1..=6u64 {
            for _ in 0..40 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let line = LineAddr::new(x % 32);
                let value = (x >> 32) % 5; // 0 exercises the INITIAL-erase path
                mem.write_line(line, value);
                pending.insert(line, value);
            }
            snaps.commit(EpochId(epoch), std::mem::take(&mut pending));
            full.push((EpochId(epoch), mem.clone()));
        }

        for (epoch, image) in &full {
            assert_eq!(
                &snaps.reconstruct(*epoch).unwrap(),
                image,
                "epoch {epoch:?}"
            );
        }
    }

    #[test]
    fn truncate_rewinds_the_chain() {
        let mut snaps = DeltaSnapshots::new();
        snaps.commit(EpochId(1), delta(&[(1, 1)]));
        snaps.commit(EpochId(2), delta(&[(2, 2)]));
        snaps.commit(EpochId(3), delta(&[(3, 3)]));
        snaps.truncate_after(EpochId(1));
        assert!(snaps.contains(EpochId(1)));
        assert!(!snaps.contains(EpochId(2)));
        assert!(!snaps.contains(EpochId(3)));
        // Re-committing the truncated epochs is legal (monotonic again).
        snaps.commit(EpochId(2), delta(&[(2, 9)]));
        assert_eq!(
            snaps
                .reconstruct(EpochId(2))
                .unwrap()
                .read_line(LineAddr::new(2)),
            9
        );
    }

    #[test]
    fn truncate_after_zero_rewinds_to_power_on() {
        // Regression: a full crash rewind to the implicit base epoch must
        // empty the chain without panicking, keep ZERO reconstructible as
        // the power-on image, and leave the chain usable by the new
        // timeline (which reuses the dropped epoch numbers from 1).
        let mut snaps = DeltaSnapshots::new();
        snaps.commit(EpochId(1), delta(&[(1, 1)]));
        snaps.commit(EpochId(2), delta(&[(2, 2)]));
        snaps.truncate_after(EpochId::ZERO);

        assert_eq!(snaps.delta_lines(), 0, "every delta dropped");
        assert!(snaps.contains(EpochId::ZERO));
        assert!(!snaps.contains(EpochId(1)));
        assert!(snaps.reconstruct(EpochId(1)).is_none());
        let base = snaps.reconstruct(EpochId::ZERO).unwrap();
        assert_eq!(base.touched_lines(), 0, "ZERO is the power-on image");

        // The new timeline starts over at epoch 1 with fresh contents.
        snaps.commit(EpochId(1), delta(&[(7, 70)]));
        let at1 = snaps.reconstruct(EpochId(1)).unwrap();
        assert_eq!(at1.read_line(LineAddr::new(7)), 70);
        assert_eq!(at1.read_line(LineAddr::new(1)), MainMemory::INITIAL);

        // Truncating an already-empty chain is a no-op, not a panic.
        let mut empty = DeltaSnapshots::new();
        empty.truncate_after(EpochId::ZERO);
        assert!(empty.contains(EpochId::ZERO));
    }

    #[test]
    #[should_panic(expected = "implicit base snapshot")]
    fn committing_epoch_zero_is_rejected() {
        // After a rewind to ZERO the monotonicity assert is disarmed (the
        // chain is empty); without the explicit guard a ZERO commit would
        // shadow the power-on image.
        let mut snaps = DeltaSnapshots::new();
        snaps.truncate_after(EpochId::ZERO);
        snaps.commit(EpochId::ZERO, delta(&[(1, 1)]));
    }

    #[test]
    fn recommit_merges_into_open_epoch() {
        let mut snaps = DeltaSnapshots::new();
        snaps.commit(EpochId(1), delta(&[(1, 10)]));
        snaps.commit(EpochId(1), delta(&[(1, 11), (2, 20)]));
        let at1 = snaps.reconstruct(EpochId(1)).unwrap();
        assert_eq!(at1.read_line(LineAddr::new(1)), 11);
        assert_eq!(at1.read_line(LineAddr::new(2)), 20);
    }

    /// `n` distinct lines starting at `first`, all set to `value`.
    fn block(first: u64, n: u64, value: u64) -> FastMap<LineAddr, u64> {
        (first..first + n)
            .map(|l| (LineAddr::new(l), value))
            .collect()
    }

    #[test]
    fn fold_waits_for_enough_entries() {
        let mut snaps = DeltaSnapshots::new();
        snaps.commit(EpochId(1), block(0, 100, 1));
        snaps.commit(EpochId(2), block(0, 100, 2));
        snaps.fold_through(EpochId(2));
        // 200 entries < 4096: nothing folds, every epoch stays.
        assert_eq!(snaps.delta_lines(), 200);
        assert!(snaps.contains(EpochId(1)));
        assert_eq!(
            snaps
                .reconstruct(EpochId(1))
                .unwrap()
                .read_line(LineAddr::new(5)),
            1
        );
    }

    #[test]
    fn fold_moves_the_horizon() {
        let mut snaps = DeltaSnapshots::new();
        snaps.commit(EpochId(1), block(0, 3000, 1));
        snaps.commit(EpochId(2), block(1000, 3000, 2));
        snaps.commit(EpochId(3), block(0, 10, 3));
        snaps.fold_through(EpochId(2));

        assert_eq!(snaps.delta_lines(), 10, "only epoch 3 stays a delta");
        assert_eq!(snaps.latest(), EpochId(3));
        assert!(!snaps.contains(EpochId(1)));
        assert!(
            snaps.reconstruct(EpochId(1)).is_none(),
            "behind the horizon"
        );
        let zero = snaps.reconstruct(EpochId::ZERO).unwrap();
        assert_eq!(zero.touched_lines(), 0, "ZERO stays the power-on image");

        // Later writes won the fold.
        let at2 = snaps.reconstruct(EpochId(2)).unwrap();
        assert_eq!(at2.touched_lines(), 4000);
        assert_eq!(at2.read_line(LineAddr::new(999)), 1);
        assert_eq!(at2.read_line(LineAddr::new(1000)), 2);
        assert_eq!(at2.read_line(LineAddr::new(5)), 1);
        let at3 = snaps.reconstruct(EpochId(3)).unwrap();
        assert_eq!(at3.read_line(LineAddr::new(5)), 3);
        assert_eq!(at3.read_line(LineAddr::new(3999)), 2);

        // The next fold needs as many entries as the base holds (4000 < 4096
        // still applies the floor).
        snaps.commit(EpochId(4), block(0, 4085, 4));
        snaps.fold_through(EpochId(4));
        assert_eq!(snaps.delta_lines(), 4095, "4095 < 4096: no fold");
        snaps.commit(EpochId(5), block(9000, 1, 5));
        snaps.fold_through(EpochId(5));
        assert_eq!(snaps.delta_lines(), 0);
        assert_eq!(snaps.latest(), EpochId(5));
        assert_eq!(
            snaps
                .reconstruct(EpochId(5))
                .unwrap()
                .read_line(LineAddr::new(9000)),
            5
        );
    }

    #[test]
    fn recommit_after_fold_merges_into_base() {
        let mut snaps = DeltaSnapshots::new();
        snaps.commit(EpochId(1), block(0, 5000, 1));
        snaps.fold_through(EpochId(1));
        assert_eq!(snaps.delta_lines(), 0);
        snaps.commit(EpochId(1), block(0, 1, 7));
        let at1 = snaps.reconstruct(EpochId(1)).unwrap();
        assert_eq!(at1.read_line(LineAddr::new(0)), 7);
        assert_eq!(at1.read_line(LineAddr::new(1)), 1);
    }

    #[test]
    #[should_panic(expected = "monotonic")]
    fn committing_behind_the_horizon_is_rejected() {
        let mut snaps = DeltaSnapshots::new();
        snaps.commit(EpochId(2), block(0, 5000, 1));
        snaps.fold_through(EpochId(2));
        snaps.commit(EpochId(1), block(0, 1, 1));
    }

    #[test]
    fn rewind_behind_the_horizon_keeps_the_chain_usable() {
        let mut snaps = DeltaSnapshots::new();
        snaps.commit(EpochId(1), block(0, 10, 1));
        snaps.commit(EpochId(2), block(0, 5000, 2));
        snaps.commit(EpochId(3), block(0, 10, 3));
        snaps.fold_through(EpochId(2));
        assert!(snaps.reconstruct(EpochId(1)).is_none());

        snaps.truncate_after(EpochId(1));
        assert_eq!(snaps.delta_lines(), 0);
        assert_eq!(snaps.latest(), EpochId(1));
        // The new timeline reuses epoch 2 without tripping monotonicity.
        snaps.commit(EpochId(2), block(0, 1, 9));
        assert_eq!(
            snaps
                .reconstruct(EpochId(2))
                .unwrap()
                .read_line(LineAddr::new(0)),
            9
        );
    }

    #[test]
    fn folded_chain_matches_full_clones_at_and_after_the_horizon() {
        // Differential check with folding: every epoch at or after the
        // horizon reconstructs to the eager clone taken at its commit;
        // every epoch behind it (except ZERO) is gone.
        let mut snaps = DeltaSnapshots::new();
        let mut mem = MainMemory::new();
        let mut full: Vec<(EpochId, MainMemory)> = Vec::new();
        let mut x = 11u64;
        for epoch in 1..=40u64 {
            let mut pending: FastMap<LineAddr, u64> = FastMap::default();
            for _ in 0..900 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let line = LineAddr::new((x >> 20) % 6000);
                let value = (x >> 40) % 7;
                mem.write_line(line, value);
                pending.insert(line, value);
            }
            snaps.commit(EpochId(epoch), pending);
            full.push((EpochId(epoch), mem.clone()));
            // The persisted frontier lags the commit by three epochs.
            snaps.fold_through(EpochId(epoch.saturating_sub(3)));
            assert!(snaps.delta_lines() <= 2 * mem.touched_lines().max(4096) + 3 * 900);
        }
        let horizon = (1..=40).map(EpochId).find(|e| snaps.contains(*e)).unwrap();
        assert!(horizon > EpochId(1), "the chain folded at least once");
        for (epoch, image) in &full {
            match snaps.reconstruct(*epoch) {
                Some(got) => {
                    assert!(*epoch >= horizon);
                    assert_eq!(&got, image, "epoch {epoch:?}");
                }
                None => assert!(*epoch < horizon, "epoch {epoch:?} lost"),
            }
        }
    }

    #[test]
    fn delta_lines_counts_entries() {
        let mut snaps = DeltaSnapshots::new();
        assert_eq!(snaps.delta_lines(), 0);
        snaps.commit(EpochId(1), delta(&[(1, 1), (2, 2)]));
        snaps.commit(EpochId(2), delta(&[(3, 3)]));
        assert_eq!(snaps.delta_lines(), 3);
    }
}
