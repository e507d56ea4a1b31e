//! Copy-on-write golden snapshots.
//!
//! The machine used to deep-clone the entire logical [`MainMemory`] at
//! every epoch commit, making commit cost O(footprint) even when the
//! epoch wrote a handful of lines. [`DeltaSnapshots`] stores one forward
//! delta per committed epoch — every `(line, token)` write since the
//! previous commit, in program order, so the last write to a line is its
//! committed value — and reconstructs a full image only when a crash
//! actually needs one. Commit cost becomes O(writes this epoch);
//! reconstruction is O(footprint + writes held in deltas), paid only on
//! the (rare) crash path.
//!
//! History is bounded by a *horizon*: [`DeltaSnapshots::fold_through`]
//! merges every delta at or before an epoch into a base, after which
//! epochs before the horizon are no longer reconstructible. A recovery
//! can only ever target the persisted frontier, so folding through it
//! after every commit loses no image a correct recovery needs, and the
//! chain holds only the epochs still in flight however long the run.
//!
//! The base is a [`CompactMemory`], paged 8 lines at a time rather than
//! [`MainMemory`]'s 512: a sparse write set spreads over many 4 KB pages,
//! and a 4 KB page holds 512 tokens whether one line of it was written or
//! all of them.
//!
//! [`EpochId::ZERO`] is the empty power-on image: it is always
//! reconstructible and never stored.

use picl_types::{EpochId, LineAddr};

use crate::state::{CompactMemory, MainMemory};

/// A base image plus an ordered chain of per-epoch forward deltas over
/// [`MainMemory`].
#[derive(Debug, Clone, Default)]
pub struct DeltaSnapshots {
    /// The image as of `horizon`'s commit: every folded delta applied.
    base: CompactMemory,
    /// The oldest reconstructible epoch besides [`EpochId::ZERO`].
    horizon: EpochId,
    /// Monotonically increasing epoch ids after `horizon`; `deltas[i].1`
    /// holds, in order, the writes between the previous commit and
    /// commit `deltas[i].0` (a line may repeat; its last write wins).
    deltas: Vec<(EpochId, Vec<(LineAddr, u64)>)>,
    /// Writes across `deltas`.
    held: usize,
}

impl DeltaSnapshots {
    /// An empty chain: only [`EpochId::ZERO`] is reconstructible.
    pub fn new() -> Self {
        DeltaSnapshots::default()
    }

    /// Records the commit of `epoch` with `delta` = every write since the
    /// previous commit, in order (later writes to a line win).
    ///
    /// Epochs must be committed in increasing order; re-committing the
    /// most recent epoch appends the new writes, matching an eager full
    /// clone taken at the later commit.
    pub fn commit(&mut self, epoch: EpochId, delta: Vec<(LineAddr, u64)>) {
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
                self.held += delta.len();
                existing.extend(delta);
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

    /// Merges every delta at or before `epoch` into the base, in order,
    /// and moves the horizon up to the newest of them. The fold work is
    /// O(1) per write, paid once.
    pub fn fold_through(&mut self, epoch: EpochId) {
        let foldable = self.deltas.partition_point(|(e, _)| *e <= epoch);
        for (e, delta) in self.deltas.drain(..foldable) {
            self.held -= delta.len();
            for (line, value) in delta {
                self.base.write_line(line, value);
            }
            self.horizon = e;
        }
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

    /// The oldest reconstructible epoch besides [`EpochId::ZERO`]; every
    /// held delta is for a later epoch.
    pub fn horizon(&self) -> EpochId {
        self.horizon
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
        let mut image = MainMemory::new();
        for (line, value) in self.base.iter() {
            image.write_line(line, value);
        }
        for (_, delta) in self.deltas.iter().take_while(|(e, _)| *e <= epoch) {
            for &(line, value) in delta {
                image.write_line(line, value);
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

    /// Lines the base holds: the touched lines of the horizon's image
    /// (memory diagnostics).
    pub fn base_lines(&self) -> usize {
        self.base.touched_lines()
    }

    /// Writes held in deltas after the horizon (memory diagnostics).
    pub fn delta_lines(&self) -> usize {
        self.held
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn delta(pairs: &[(u64, u64)]) -> Vec<(LineAddr, u64)> {
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
        let mut pending: Vec<(LineAddr, u64)> = Vec::new();

        let mut x = 7u64;
        for epoch in 1..=6u64 {
            for _ in 0..40 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let line = LineAddr::new(x % 32);
                let value = (x >> 32) % 5; // 0 exercises the INITIAL-erase path
                mem.write_line(line, value);
                pending.push((line, value));
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
    fn block(first: u64, n: u64, value: u64) -> Vec<(LineAddr, u64)> {
        (first..first + n)
            .map(|l| (LineAddr::new(l), value))
            .collect()
    }

    #[test]
    fn fold_does_not_wait_for_a_batch() {
        // Two small epochs fold at once: there is no minimum batch.
        let mut snaps = DeltaSnapshots::new();
        snaps.commit(EpochId(1), block(0, 100, 1));
        snaps.commit(EpochId(2), block(0, 50, 2));
        snaps.fold_through(EpochId(2));
        assert_eq!(snaps.delta_lines(), 0);
        assert_eq!(snaps.horizon(), EpochId(2));
        assert!(!snaps.contains(EpochId(1)));
        let at2 = snaps.reconstruct(EpochId(2)).unwrap();
        assert_eq!(at2.read_line(LineAddr::new(5)), 2);
        assert_eq!(at2.read_line(LineAddr::new(75)), 1);
    }

    #[test]
    fn fold_moves_the_horizon() {
        // However small the deltas, a fold lands on the frontier it is
        // given and keeps only the deltas after it.
        let mut snaps = DeltaSnapshots::new();
        snaps.commit(EpochId(1), block(0, 3, 1));
        snaps.commit(EpochId(2), block(1, 3, 2));
        snaps.commit(EpochId(3), delta(&[(0, 3), (9, 3), (0, 4)]));
        snaps.fold_through(EpochId(2));

        assert_eq!(snaps.horizon(), EpochId(2));
        assert_eq!(snaps.delta_lines(), 3, "only epoch 3's writes stay");
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
        assert_eq!(at2.touched_lines(), 4);
        assert_eq!(at2.read_line(LineAddr::new(0)), 1);
        assert_eq!(at2.read_line(LineAddr::new(1)), 2);
        assert_eq!(at2.read_line(LineAddr::new(3)), 2);
        let at3 = snaps.reconstruct(EpochId(3)).unwrap();
        assert_eq!(at3.read_line(LineAddr::new(0)), 4, "last write wins");
        assert_eq!(at3.read_line(LineAddr::new(9)), 3);

        // A frontier between commits folds up to the newest commit at or
        // before it; a frontier behind the horizon folds nothing.
        snaps.commit(EpochId(5), block(20, 2, 5));
        snaps.fold_through(EpochId(4));
        assert_eq!(snaps.horizon(), EpochId(3));
        assert_eq!(snaps.delta_lines(), 2);
        snaps.fold_through(EpochId(1));
        assert_eq!(snaps.horizon(), EpochId(3));
        snaps.fold_through(EpochId(5));
        assert_eq!(snaps.horizon(), EpochId(5));
        assert_eq!(snaps.delta_lines(), 0);
        assert_eq!(
            snaps
                .reconstruct(EpochId(5))
                .unwrap()
                .read_line(LineAddr::new(21)),
            5
        );
    }

    #[test]
    fn base_holds_one_entry_per_touched_line() {
        // The base is the horizon's image: repeated writes to a line
        // count once, and a line written back to INITIAL counts none.
        let mut snaps = DeltaSnapshots::new();
        snaps.commit(EpochId(1), delta(&[(1, 1), (1, 2), (2, 2), (700, 7)]));
        snaps.commit(EpochId(2), delta(&[(2, MainMemory::INITIAL), (3, 3)]));
        snaps.fold_through(EpochId(2));
        assert_eq!(snaps.base_lines(), 3);
        let at2 = snaps.reconstruct(EpochId(2)).unwrap();
        assert_eq!(at2.touched_lines(), snaps.base_lines());
        assert_eq!(at2.read_line(LineAddr::new(1)), 2);
        assert_eq!(at2.read_line(LineAddr::new(2)), MainMemory::INITIAL);
        assert_eq!(at2.read_line(LineAddr::new(700)), 7);
    }

    #[test]
    fn recommit_after_fold_merges_into_base() {
        let mut snaps = DeltaSnapshots::new();
        snaps.commit(EpochId(1), block(0, 5, 1));
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
        snaps.commit(EpochId(2), block(0, 5, 1));
        snaps.fold_through(EpochId(2));
        snaps.commit(EpochId(1), block(0, 1, 1));
    }

    #[test]
    fn rewind_behind_the_horizon_keeps_the_chain_usable() {
        let mut snaps = DeltaSnapshots::new();
        snaps.commit(EpochId(1), block(0, 10, 1));
        snaps.commit(EpochId(2), block(0, 5, 2));
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
            let mut pending: Vec<(LineAddr, u64)> = Vec::new();
            for _ in 0..900 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let line = LineAddr::new((x >> 20) % 6000);
                let value = (x >> 40) % 7;
                mem.write_line(line, value);
                pending.push((line, value));
            }
            snaps.commit(EpochId(epoch), pending);
            full.push((EpochId(epoch), mem.clone()));
            // The persisted frontier lags the commit by three epochs.
            let frontier = EpochId(epoch.saturating_sub(3));
            snaps.fold_through(frontier);
            assert_eq!(snaps.horizon(), frontier);
            assert_eq!(snaps.delta_lines(), 900 * (epoch - frontier.raw()) as usize);
        }
        assert_eq!(snaps.horizon(), EpochId(37));
        for (epoch, image) in &full {
            match snaps.reconstruct(*epoch) {
                Some(got) => {
                    assert!(*epoch >= snaps.horizon());
                    assert_eq!(&got, image, "epoch {epoch:?}");
                }
                None => assert!(*epoch < snaps.horizon(), "epoch {epoch:?} lost"),
            }
        }
        let horizon_image = &full[36].1;
        assert_eq!(snaps.base_lines(), horizon_image.touched_lines());
    }

    #[test]
    fn delta_lines_counts_entries() {
        let mut snaps = DeltaSnapshots::new();
        assert_eq!(snaps.delta_lines(), 0);
        snaps.commit(EpochId(1), delta(&[(1, 1), (2, 2)]));
        snaps.commit(EpochId(2), delta(&[(3, 3), (3, 4)]));
        assert_eq!(snaps.delta_lines(), 4, "repeated writes each count");
    }
}
