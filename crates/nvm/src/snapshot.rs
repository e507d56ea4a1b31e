//! Copy-on-write golden snapshots.
//!
//! [`DeltaSnapshots`] stores one forward delta per committed epoch —
//! every `(line, token)` write since the previous commit, in program
//! order, so the last write to a line is its committed value — and
//! reconstructs a full [`MainMemory`] image only when a crash or a check
//! needs one. Commit cost is O(writes this epoch); reconstruction is a
//! clone of the NVM contents plus the base overlay and the held deltas,
//! paid only on that path.
//!
//! History is bounded by a *horizon*: [`DeltaSnapshots::fold_through`]
//! merges every delta at or before an epoch into a base, after which
//! epochs before the horizon are no longer reconstructible. A recovery
//! can only ever target the persisted frontier, so folding through it
//! after every commit loses no image a correct recovery needs, and the
//! chain holds only the epochs still in flight however long the run. A
//! chain that is never folded is the reference: it holds one entry per
//! store and can reconstruct every epoch it was given.
//!
//! # The base is an overlay on the NVM contents
//!
//! A scheme that writes each committed epoch back in place (PiCL's ACS,
//! §III) leaves the NVM contents equal to the persisted frontier's image
//! everywhere but on a few hundred lines: those written back since, and
//! hot lines whose frontier value went to the undo log instead. So the
//! base is not a second image: it is an *overlay*, a map holding exactly
//! the lines whose golden value differs from the contents, each with its
//! golden value. For every line `L`, `golden[L] = overlay[L]` if held,
//! else `contents[L]`. The [`crate::Nvm`] that holds the history sends
//! every functional write through [`crate::Nvm::set_line`], which keeps
//! that true; a fold sets golden values, holding a line only
//! while the contents disagree with it. An entry also keeps the value
//! the contents hold, so a fold reads the contents only for a line the
//! overlay does not hold yet.
//!
//! A chain that has never folded has no overlay: its base is the
//! power-on image. The first fold seeds the overlay with
//! [`MainMemory::INITIAL`] for each line the contents hold, once, so a
//! chain that never folds (Ideal's, whose frontier stays at zero, and the
//! reference chain) pays nothing on contents writes.
//!
//! [`EpochId::ZERO`] is the empty power-on image: it is always
//! reconstructible and never stored.

use std::collections::hash_map::Entry;

use picl_types::hash::SpreadMap;
use picl_types::{EpochId, LineAddr};

use crate::state::MainMemory;

/// The lines whose golden base value differs from the NVM contents.
type Overlay = SpreadMap<LineAddr, Differs>;

/// An overlay entry: a line's golden base value, and the contents' value
/// it differs from.
#[derive(Debug, Clone, Copy)]
struct Differs {
    golden: u64,
    /// Kept in step by `DeltaSnapshots::contents_written`, so that a
    /// fold compares with the contents without reading them.
    contents: u64,
}

/// A base overlay plus an ordered chain of per-epoch forward deltas.
#[derive(Debug, Clone, Default)]
pub struct DeltaSnapshots {
    /// The image as of `horizon`'s commit, as an overlay on the contents;
    /// `None` until the first fold, while the base is the power-on image.
    overlay: Option<Overlay>,
    /// The oldest reconstructible epoch besides [`EpochId::ZERO`].
    horizon: EpochId,
    /// Monotonically increasing epoch ids after `horizon`; `deltas[i].1`
    /// holds, in order, the writes between the previous commit and
    /// commit `deltas[i].0` (a line may repeat; its last write wins).
    deltas: Vec<(EpochId, Vec<(LineAddr, u64)>)>,
    /// Writes across `deltas`.
    held: usize,
}

/// Sets `line`'s golden base value to `value` over `contents`: held only
/// if the contents disagree.
#[inline]
fn set_golden(overlay: &mut Overlay, contents: &MainMemory, line: LineAddr, value: u64) {
    match overlay.entry(line) {
        Entry::Occupied(mut held) => {
            if held.get().contents == value {
                held.remove();
            } else {
                held.get_mut().golden = value;
            }
        }
        Entry::Vacant(slot) => {
            let now = contents.read_line(line);
            if now != value {
                slot.insert(Differs {
                    golden: value,
                    contents: now,
                });
            }
        }
    }
}

impl DeltaSnapshots {
    /// An empty chain: only [`EpochId::ZERO`] is reconstructible.
    pub fn new() -> Self {
        DeltaSnapshots::default()
    }

    /// Keeps the base unchanged across a write of `line` in the contents
    /// from `old` to `new`. Every functional write to the contents the
    /// history is laid over must be reported here.
    #[inline]
    pub(crate) fn contents_written(&mut self, line: LineAddr, old: u64, new: u64) {
        let Some(overlay) = &mut self.overlay else {
            return;
        };
        if old == new {
            return;
        }
        match overlay.entry(line) {
            Entry::Occupied(mut held) => {
                if held.get().golden == new {
                    held.remove();
                } else {
                    held.get_mut().contents = new;
                }
            }
            Entry::Vacant(slot) => {
                slot.insert(Differs {
                    golden: old,
                    contents: new,
                });
            }
        }
    }

    /// Records the commit of `epoch` with `delta` = every write since the
    /// previous commit, in order (later writes to a line win), over
    /// `contents`.
    ///
    /// Epochs must be committed in increasing order; re-committing the
    /// most recent epoch appends the new writes, matching an eager full
    /// clone taken at the later commit.
    pub fn commit(&mut self, epoch: EpochId, delta: Vec<(LineAddr, u64)>, contents: &MainMemory) {
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
            // The open epoch was folded already: merge into the base. A
            // horizon past ZERO was reached by a fold, which seeded the
            // overlay.
            None if epoch == self.horizon => {
                let overlay = self.overlay.as_mut().expect("a folded chain");
                for (line, value) in delta {
                    set_golden(overlay, contents, line, value);
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

    /// Merges every delta at or before `epoch` into the base over
    /// `contents`, in order, and moves the horizon up to the newest of
    /// them. The fold work is O(1) per write, paid once.
    pub fn fold_through(&mut self, epoch: EpochId, contents: &MainMemory) {
        let foldable = self.deltas.partition_point(|(e, _)| *e <= epoch);
        if foldable == 0 {
            return;
        }
        let overlay = self.overlay.get_or_insert_with(|| {
            contents
                .iter()
                .map(|(line, now)| {
                    let golden = MainMemory::INITIAL;
                    (
                        line,
                        Differs {
                            golden,
                            contents: now,
                        },
                    )
                })
                .collect()
        });
        for (e, delta) in self.deltas.drain(..foldable) {
            self.held -= delta.len();
            for (line, value) in delta {
                set_golden(overlay, contents, line, value);
            }
            self.horizon = e;
        }
    }

    /// Whether `epoch` can be reconstructed.
    pub fn contains(&self, epoch: EpochId) -> bool {
        epoch == EpochId::ZERO || self.epochs().any(|e| e == epoch)
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

    /// Every reconstructible epoch from the horizon to the latest commit,
    /// oldest first.
    pub fn epochs(&self) -> impl Iterator<Item = EpochId> + '_ {
        std::iter::once(self.horizon).chain(self.deltas.iter().map(|(e, _)| *e))
    }

    /// The base overlay of `epoch`'s image, or `None` where that base is
    /// the power-on image: before the first fold, and for
    /// [`EpochId::ZERO`].
    fn base(&self, epoch: EpochId) -> Option<&Overlay> {
        self.overlay.as_ref().filter(|_| epoch != EpochId::ZERO)
    }

    /// The writes of the held deltas at or before `epoch`, in order.
    fn writes_through(&self, epoch: EpochId) -> impl Iterator<Item = (LineAddr, u64)> + '_ {
        self.deltas
            .iter()
            .take_while(move |(e, _)| *e <= epoch)
            .flat_map(|(_, delta)| delta.iter().copied())
    }

    /// Rebuilds the full memory image as of the commit of `epoch` over
    /// `contents`, or `None` if that epoch was never committed or lies
    /// behind the horizon. `EpochId::ZERO` yields the power-on
    /// (all-[`MainMemory::INITIAL`]) image.
    pub fn reconstruct(&self, epoch: EpochId, contents: &MainMemory) -> Option<MainMemory> {
        if !self.contains(epoch) {
            return None;
        }
        let mut image = match self.base(epoch) {
            None => MainMemory::new(),
            Some(overlay) => {
                let mut image = contents.clone();
                for (&line, held) in overlay {
                    image.write_line(line, held.golden);
                }
                image
            }
        };
        for (line, value) in self.writes_through(epoch) {
            image.write_line(line, value);
        }
        Some(image)
    }

    /// Lines where `contents` differ from `epoch`'s image, in sorted
    /// order, or `None` if that epoch is not reconstructible: the crash
    /// oracle's mismatch list. Only the lines the base overlay and the
    /// deltas through `epoch` name can differ (every line the contents
    /// hold, while the base is the power-on image), so no image is built.
    pub fn mismatches(&self, epoch: EpochId, contents: &MainMemory) -> Option<Vec<LineAddr>> {
        if !self.contains(epoch) {
            return None;
        }
        let mut golden: SpreadMap<LineAddr, u64> = match self.base(epoch) {
            None => contents
                .iter()
                .map(|(line, _)| (line, MainMemory::INITIAL))
                .collect(),
            Some(overlay) => overlay.iter().map(|(&l, held)| (l, held.golden)).collect(),
        };
        golden.extend(self.writes_through(epoch));
        let mut lines: Vec<LineAddr> = golden
            .into_iter()
            .filter(|&(line, value)| contents.read_line(line) != value)
            .map(|(line, _)| line)
            .collect();
        lines.sort_unstable();
        Some(lines)
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

    /// Lines the base overlay holds: those whose golden base value the
    /// contents do not hold (memory diagnostics). 0 before the first fold.
    pub fn overlay_lines(&self) -> usize {
        self.overlay.as_ref().map_or(0, Overlay::len)
    }

    /// Writes held in deltas after the horizon (memory diagnostics).
    pub fn delta_lines(&self) -> usize {
        self.held
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn delta(pairs: &[(u64, u64)]) -> Vec<(LineAddr, u64)> {
        pairs.iter().map(|(l, v)| (LineAddr::new(*l), *v)).collect()
    }

    #[test]
    fn zero_epoch_is_always_empty() {
        let contents = MainMemory::new();
        let snaps = DeltaSnapshots::new();
        assert!(snaps.contains(EpochId::ZERO));
        let image = snaps.reconstruct(EpochId::ZERO, &contents).unwrap();
        assert_eq!(image.touched_lines(), 0);
    }

    #[test]
    fn reconstruct_applies_deltas_in_order() {
        let contents = MainMemory::new();
        let mut snaps = DeltaSnapshots::new();
        snaps.commit(EpochId(1), delta(&[(1, 10), (2, 20)]), &contents);
        snaps.commit(EpochId(2), delta(&[(2, 21), (3, 30)]), &contents);

        let at1 = snaps.reconstruct(EpochId(1), &contents).unwrap();
        assert_eq!(at1.read_line(LineAddr::new(1)), 10);
        assert_eq!(at1.read_line(LineAddr::new(2)), 20);
        assert_eq!(at1.read_line(LineAddr::new(3)), MainMemory::INITIAL);

        let at2 = snaps.reconstruct(EpochId(2), &contents).unwrap();
        assert_eq!(at2.read_line(LineAddr::new(2)), 21);
        assert_eq!(at2.read_line(LineAddr::new(3)), 30);
    }

    #[test]
    fn uncommitted_epoch_is_none() {
        let contents = MainMemory::new();
        let mut snaps = DeltaSnapshots::new();
        snaps.commit(EpochId(2), delta(&[(1, 1)]), &contents);
        assert!(snaps.reconstruct(EpochId(1), &contents).is_none());
        assert!(snaps.contains(EpochId(2)));
    }

    #[test]
    fn delta_matches_full_clone_reference() {
        let contents = MainMemory::new();
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
            snaps.commit(EpochId(epoch), std::mem::take(&mut pending), &contents);
            full.push((EpochId(epoch), mem.clone()));
        }

        for (epoch, image) in &full {
            assert_eq!(
                &snaps.reconstruct(*epoch, &contents).unwrap(),
                image,
                "epoch {epoch:?}"
            );
        }
    }

    #[test]
    fn truncate_rewinds_the_chain() {
        let contents = MainMemory::new();
        let mut snaps = DeltaSnapshots::new();
        snaps.commit(EpochId(1), delta(&[(1, 1)]), &contents);
        snaps.commit(EpochId(2), delta(&[(2, 2)]), &contents);
        snaps.commit(EpochId(3), delta(&[(3, 3)]), &contents);
        snaps.truncate_after(EpochId(1));
        assert!(snaps.contains(EpochId(1)));
        assert!(!snaps.contains(EpochId(2)));
        assert!(!snaps.contains(EpochId(3)));
        // Re-committing the truncated epochs is legal (monotonic again).
        snaps.commit(EpochId(2), delta(&[(2, 9)]), &contents);
        assert_eq!(
            snaps
                .reconstruct(EpochId(2), &contents)
                .unwrap()
                .read_line(LineAddr::new(2)),
            9
        );
    }

    #[test]
    fn truncate_after_zero_rewinds_to_power_on() {
        let contents = MainMemory::new();
        // Regression: a full crash rewind to the implicit base epoch must
        // empty the chain without panicking, keep ZERO reconstructible as
        // the power-on image, and leave the chain usable by the new
        // timeline (which reuses the dropped epoch numbers from 1).
        let mut snaps = DeltaSnapshots::new();
        snaps.commit(EpochId(1), delta(&[(1, 1)]), &contents);
        snaps.commit(EpochId(2), delta(&[(2, 2)]), &contents);
        snaps.truncate_after(EpochId::ZERO);

        assert_eq!(snaps.delta_lines(), 0, "every delta dropped");
        assert!(snaps.contains(EpochId::ZERO));
        assert!(!snaps.contains(EpochId(1)));
        assert!(snaps.reconstruct(EpochId(1), &contents).is_none());
        let base = snaps.reconstruct(EpochId::ZERO, &contents).unwrap();
        assert_eq!(base.touched_lines(), 0, "ZERO is the power-on image");

        // The new timeline starts over at epoch 1 with fresh contents.
        snaps.commit(EpochId(1), delta(&[(7, 70)]), &contents);
        let at1 = snaps.reconstruct(EpochId(1), &contents).unwrap();
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
        let contents = MainMemory::new();
        // After a rewind to ZERO the monotonicity assert is disarmed (the
        // chain is empty); without the explicit guard a ZERO commit would
        // shadow the power-on image.
        let mut snaps = DeltaSnapshots::new();
        snaps.truncate_after(EpochId::ZERO);
        snaps.commit(EpochId::ZERO, delta(&[(1, 1)]), &contents);
    }

    #[test]
    fn recommit_merges_into_open_epoch() {
        let contents = MainMemory::new();
        let mut snaps = DeltaSnapshots::new();
        snaps.commit(EpochId(1), delta(&[(1, 10)]), &contents);
        snaps.commit(EpochId(1), delta(&[(1, 11), (2, 20)]), &contents);
        let at1 = snaps.reconstruct(EpochId(1), &contents).unwrap();
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
        let contents = MainMemory::new();
        // Two small epochs fold at once: there is no minimum batch.
        let mut snaps = DeltaSnapshots::new();
        snaps.commit(EpochId(1), block(0, 100, 1), &contents);
        snaps.commit(EpochId(2), block(0, 50, 2), &contents);
        snaps.fold_through(EpochId(2), &contents);
        assert_eq!(snaps.delta_lines(), 0);
        assert_eq!(snaps.horizon(), EpochId(2));
        assert!(!snaps.contains(EpochId(1)));
        let at2 = snaps.reconstruct(EpochId(2), &contents).unwrap();
        assert_eq!(at2.read_line(LineAddr::new(5)), 2);
        assert_eq!(at2.read_line(LineAddr::new(75)), 1);
    }

    #[test]
    fn fold_moves_the_horizon() {
        let contents = MainMemory::new();
        // However small the deltas, a fold lands on the frontier it is
        // given and keeps only the deltas after it.
        let mut snaps = DeltaSnapshots::new();
        snaps.commit(EpochId(1), block(0, 3, 1), &contents);
        snaps.commit(EpochId(2), block(1, 3, 2), &contents);
        snaps.commit(EpochId(3), delta(&[(0, 3), (9, 3), (0, 4)]), &contents);
        snaps.fold_through(EpochId(2), &contents);

        assert_eq!(snaps.horizon(), EpochId(2));
        assert_eq!(snaps.epochs().collect::<Vec<_>>(), [EpochId(2), EpochId(3)]);
        assert_eq!(snaps.delta_lines(), 3, "only epoch 3's writes stay");
        assert_eq!(snaps.latest(), EpochId(3));
        assert!(!snaps.contains(EpochId(1)));
        assert!(
            snaps.reconstruct(EpochId(1), &contents).is_none(),
            "behind the horizon"
        );
        let zero = snaps.reconstruct(EpochId::ZERO, &contents).unwrap();
        assert_eq!(zero.touched_lines(), 0, "ZERO stays the power-on image");

        // Later writes won the fold.
        let at2 = snaps.reconstruct(EpochId(2), &contents).unwrap();
        assert_eq!(at2.touched_lines(), 4);
        assert_eq!(at2.read_line(LineAddr::new(0)), 1);
        assert_eq!(at2.read_line(LineAddr::new(1)), 2);
        assert_eq!(at2.read_line(LineAddr::new(3)), 2);
        let at3 = snaps.reconstruct(EpochId(3), &contents).unwrap();
        assert_eq!(at3.read_line(LineAddr::new(0)), 4, "last write wins");
        assert_eq!(at3.read_line(LineAddr::new(9)), 3);

        // A frontier between commits folds up to the newest commit at or
        // before it; a frontier behind the horizon folds nothing.
        snaps.commit(EpochId(5), block(20, 2, 5), &contents);
        snaps.fold_through(EpochId(4), &contents);
        assert_eq!(snaps.horizon(), EpochId(3));
        assert_eq!(snaps.delta_lines(), 2);
        snaps.fold_through(EpochId(1), &contents);
        assert_eq!(snaps.horizon(), EpochId(3));
        snaps.fold_through(EpochId(5), &contents);
        assert_eq!(snaps.horizon(), EpochId(5));
        assert_eq!(snaps.delta_lines(), 0);
        assert_eq!(
            snaps
                .reconstruct(EpochId(5), &contents)
                .unwrap()
                .read_line(LineAddr::new(21)),
            5
        );
    }

    #[test]
    fn base_holds_one_entry_per_touched_line() {
        let contents = MainMemory::new();
        // The base is the horizon's image: repeated writes to a line
        // count once, and a line written back to INITIAL counts none.
        let mut snaps = DeltaSnapshots::new();
        snaps.commit(
            EpochId(1),
            delta(&[(1, 1), (1, 2), (2, 2), (700, 7)]),
            &contents,
        );
        snaps.commit(
            EpochId(2),
            delta(&[(2, MainMemory::INITIAL), (3, 3)]),
            &contents,
        );
        snaps.fold_through(EpochId(2), &contents);
        assert_eq!(snaps.overlay_lines(), 3);
        let at2 = snaps.reconstruct(EpochId(2), &contents).unwrap();
        assert_eq!(at2.touched_lines(), snaps.overlay_lines());
        assert_eq!(at2.read_line(LineAddr::new(1)), 2);
        assert_eq!(at2.read_line(LineAddr::new(2)), MainMemory::INITIAL);
        assert_eq!(at2.read_line(LineAddr::new(700)), 7);
    }

    #[test]
    fn recommit_after_fold_merges_into_base() {
        let contents = MainMemory::new();
        let mut snaps = DeltaSnapshots::new();
        snaps.commit(EpochId(1), block(0, 5, 1), &contents);
        snaps.fold_through(EpochId(1), &contents);
        assert_eq!(snaps.delta_lines(), 0);
        snaps.commit(EpochId(1), block(0, 1, 7), &contents);
        let at1 = snaps.reconstruct(EpochId(1), &contents).unwrap();
        assert_eq!(at1.read_line(LineAddr::new(0)), 7);
        assert_eq!(at1.read_line(LineAddr::new(1)), 1);
    }

    #[test]
    #[should_panic(expected = "monotonic")]
    fn committing_behind_the_horizon_is_rejected() {
        let contents = MainMemory::new();
        let mut snaps = DeltaSnapshots::new();
        snaps.commit(EpochId(2), block(0, 5, 1), &contents);
        snaps.fold_through(EpochId(2), &contents);
        snaps.commit(EpochId(1), block(0, 1, 1), &contents);
    }

    #[test]
    fn rewind_behind_the_horizon_keeps_the_chain_usable() {
        let contents = MainMemory::new();
        let mut snaps = DeltaSnapshots::new();
        snaps.commit(EpochId(1), block(0, 10, 1), &contents);
        snaps.commit(EpochId(2), block(0, 5, 2), &contents);
        snaps.commit(EpochId(3), block(0, 10, 3), &contents);
        snaps.fold_through(EpochId(2), &contents);
        assert!(snaps.reconstruct(EpochId(1), &contents).is_none());

        snaps.truncate_after(EpochId(1));
        assert_eq!(snaps.delta_lines(), 0);
        assert_eq!(snaps.latest(), EpochId(1));
        // The new timeline reuses epoch 2 without tripping monotonicity.
        snaps.commit(EpochId(2), block(0, 1, 9), &contents);
        assert_eq!(
            snaps
                .reconstruct(EpochId(2), &contents)
                .unwrap()
                .read_line(LineAddr::new(0)),
            9
        );
    }

    #[test]
    fn folded_chain_matches_full_clones_at_and_after_the_horizon() {
        let contents = MainMemory::new();
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
            snaps.commit(EpochId(epoch), pending, &contents);
            full.push((EpochId(epoch), mem.clone()));
            // The persisted frontier lags the commit by three epochs.
            let frontier = EpochId(epoch.saturating_sub(3));
            snaps.fold_through(frontier, &contents);
            assert_eq!(snaps.horizon(), frontier);
            assert_eq!(snaps.delta_lines(), 900 * (epoch - frontier.raw()) as usize);
        }
        assert_eq!(snaps.horizon(), EpochId(37));
        for (epoch, image) in &full {
            match snaps.reconstruct(*epoch, &contents) {
                Some(got) => {
                    assert!(*epoch >= snaps.horizon());
                    assert_eq!(&got, image, "epoch {epoch:?}");
                }
                None => assert!(*epoch < snaps.horizon(), "epoch {epoch:?} lost"),
            }
        }
        let horizon_image = &full[36].1;
        assert_eq!(snaps.overlay_lines(), horizon_image.touched_lines());
    }

    #[test]
    fn delta_lines_counts_entries() {
        let contents = MainMemory::new();
        let mut snaps = DeltaSnapshots::new();
        assert_eq!(snaps.delta_lines(), 0);
        snaps.commit(EpochId(1), delta(&[(1, 1), (2, 2)]), &contents);
        snaps.commit(EpochId(2), delta(&[(3, 3), (3, 4)]), &contents);
        assert_eq!(snaps.delta_lines(), 4, "repeated writes each count");
    }

    /// What an [`Nvm`](crate::Nvm) keeping a golden history should hold,
    /// kept the plain way: the image of every reconstructible epoch, the
    /// horizon's among them, as an explicit [`MainMemory`].
    struct Model {
        images: std::collections::BTreeMap<u64, MainMemory>,
        horizon: u64,
        latest: u64,
        /// Every store since power-on or the last rewind.
        logical: MainMemory,
        pending: Vec<(LineAddr, u64)>,
    }

    impl Model {
        fn image(&self, epoch: EpochId) -> MainMemory {
            match epoch {
                EpochId::ZERO => MainMemory::new(),
                e => self.images[&e.raw()].clone(),
            }
        }
    }

    /// Lines over several regions, few enough that they repeat.
    fn op_line(raw: u64) -> LineAddr {
        LineAddr::new(raw % 40 * 97)
    }

    /// Replays `ops` on a real memory and on the [`Model`], checking
    /// every reconstructible epoch after each. An op is `(kind, line,
    /// value)`: kinds 0–3 store (the program's writes), 4–5 write the
    /// contents through [`crate::Nvm::write`] (write-backs), 6 commits a
    /// new epoch and folds through `value` epochs behind it, 7
    /// re-commits the latest epoch, 8 rewinds to an epoch `value` picks
    /// (as a crash does; one behind the horizon is among them), and 9
    /// writes the contents through [`crate::Nvm::set_line`] (recovery).
    fn replay(ops: &[(u64, u64, u64)]) -> Result<(), proptest::test_runner::TestCaseError> {
        use picl_types::{config::NvmConfig, time::ClockDomain, Cycle};
        let mut nvm = crate::Nvm::new(NvmConfig::paper_nvm(), ClockDomain::from_mhz(2000));
        nvm.keep_golden_history();
        let mut model = Model {
            images: [(0, MainMemory::new())].into(),
            horizon: 0,
            latest: 0,
            logical: MainMemory::new(),
            pending: Vec::new(),
        };
        for &(kind, raw, value) in ops {
            let line = op_line(raw);
            match kind {
                0..=3 => {
                    model.logical.write_line(line, value);
                    model.pending.push((line, value));
                }
                4 | 5 => {
                    nvm.write(Cycle(0), line, value, crate::AccessClass::WriteBack);
                }
                6 => {
                    model.latest += 1;
                    let frontier = model.latest.saturating_sub(value % 3);
                    let delta = std::mem::take(&mut model.pending);
                    nvm.commit_golden(EpochId(model.latest), delta, Some(EpochId(frontier)));
                    model.images.insert(model.latest, model.logical.clone());
                    // The newest epoch at or before the frontier becomes
                    // the horizon; a frontier behind it folds nothing.
                    if let Some((&folded, _)) = model.images.range(..=frontier).next_back() {
                        model.images.retain(|&e, _| e >= folded);
                        model.horizon = folded;
                    }
                }
                7 if model.latest > 0 => {
                    let delta = std::mem::take(&mut model.pending);
                    nvm.commit_golden(EpochId(model.latest), delta, None);
                    model.images.insert(model.latest, model.logical.clone());
                }
                8 => {
                    let mut targets: Vec<u64> = vec![0];
                    targets.extend(model.images.keys().filter(|&&e| e > 0));
                    if model.horizon > 1 {
                        targets.push(model.horizon - 1);
                    }
                    let target = targets[(value as usize) % targets.len()];
                    nvm.truncate_golden_after(EpochId(target));
                    if target >= model.horizon {
                        model.images.retain(|&e, _| e <= target);
                    } else {
                        // Behind the horizon: the base is kept, relabelled.
                        let base = model.images.remove(&model.horizon).unwrap();
                        let base = if target == 0 { MainMemory::new() } else { base };
                        model.images = [(target, base)].into();
                        model.horizon = target;
                    }
                    model.latest = target;
                    model.logical = model.images[&target].clone();
                    model.pending.clear();
                }
                _ => {
                    nvm.set_line(line, value);
                }
            }

            let golden = nvm.golden().unwrap();
            let epochs: Vec<u64> = golden.epochs().map(EpochId::raw).collect();
            prop_assert_eq!(&epochs, &model.images.keys().copied().collect::<Vec<_>>());
            for epoch in std::iter::once(EpochId::ZERO).chain(golden.epochs()) {
                let want = model.image(epoch);
                prop_assert_eq!(
                    nvm.golden_image(epoch).unwrap(),
                    want.clone(),
                    "{:?}",
                    epoch
                );
                let mismatches = nvm.golden_mismatches(epoch).unwrap();
                prop_assert_eq!(mismatches, want.diff(nvm.state()), "{:?}", epoch);
            }
            // The overlay holds exactly the lines where the horizon's
            // image and the contents differ (none before the first fold).
            let differing = match model.horizon {
                0 => 0,
                h => model.images[&h].diff(nvm.state()).len(),
            };
            prop_assert_eq!(golden.overlay_lines(), differing);
        }
        Ok(())
    }

    proptest! {
        #[test]
        fn overlay_matches_an_explicit_golden_model(
            ops in proptest::collection::vec(((0u64..10), (0u64..40), (0u64..4)), 0..160)
        ) {
            replay(&ops)?;
        }
    }
}
