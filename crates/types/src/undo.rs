//! Multi-undo log entries (Fig. 5a), the capture rule that creates them,
//! and the log window and rollback the simulator and the engine share.

use std::collections::VecDeque;

use crate::{EpochId, LineAddr};

/// On-NVM size of one undo entry in bytes: 64 B of line data plus packed
/// tag/EID metadata; 32 entries fill the 2 KB undo buffer (§IV-A).
pub const ENTRY_BYTES: u64 = 64;

/// The cache-driven logging capture rule (Figs. 7/8): whether a store to a
/// line tagged `tag` while `system` executes must log the line's pre-image,
/// and if so the entry's `(ValidFrom, ValidTill)` range.
///
/// A line already tagged `system` was logged by an earlier store of this
/// epoch (a transient overwrite), so no entry is needed. Otherwise the
/// pre-image was created in the tagged epoch — or, for an untagged line,
/// at the latest in `floor`, the persist frontier — and it stops being the
/// live value in `system`.
///
/// ```
/// use picl_types::undo::undo_range;
/// use picl_types::EpochId;
///
/// let (sys, floor) = (EpochId(5), EpochId(2));
/// assert_eq!(undo_range(Some(sys), sys, floor), None);
/// assert_eq!(undo_range(Some(EpochId(3)), sys, floor), Some((EpochId(3), sys)));
/// assert_eq!(undo_range(None, sys, floor), Some((floor, sys)));
/// ```
pub fn undo_range(
    tag: Option<EpochId>,
    system: EpochId,
    floor: EpochId,
) -> Option<(EpochId, EpochId)> {
    (tag != Some(system)).then(|| (tag.unwrap_or(floor), system))
}

/// One undo entry: the pre-image of a cache line together with the epoch
/// range in which that pre-image was the line's live value.
///
/// `valid_from` is the epoch the value was created in (or, for lines that
/// were clean when overwritten, conservatively the `PersistedEID` at entry
/// creation); `valid_till` is the epoch whose store overwrote it. The entry
/// must be applied when recovering to any epoch `P` with
/// `valid_from <= P < valid_till` — see [`UndoEntry::covers`].
///
/// The pre-image type `V` is a data token in the simulator and the full
/// 64-byte line in the store engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UndoEntry<V = u64> {
    /// The line whose pre-image this entry holds.
    pub addr: LineAddr,
    /// The pre-image.
    pub value: V,
    /// First epoch in which `value` was the line's live value (ValidFrom).
    pub valid_from: EpochId,
    /// The epoch whose store overwrote `value` (ValidTill).
    pub valid_till: EpochId,
}

impl<V> UndoEntry<V> {
    /// Creates an entry, checking the range is well-formed.
    ///
    /// # Panics
    ///
    /// Panics if `valid_from >= valid_till`.
    pub fn new(addr: LineAddr, value: V, valid_from: EpochId, valid_till: EpochId) -> Self {
        assert!(
            valid_from < valid_till,
            "undo validity range empty: {valid_from}..{valid_till}"
        );
        UndoEntry {
            addr,
            value,
            valid_from,
            valid_till,
        }
    }

    /// Whether this entry must be applied when recovering to `target`
    /// (§IV-B: entries "with ValidFrom and ValidTill range that covers this
    /// EID").
    pub fn covers(&self, target: EpochId) -> bool {
        self.valid_from <= target && target < self.valid_till
    }
}

impl std::fmt::Display for UndoEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "undo{{{} = {:#x} valid {}..{}}}",
            self.addr, self.value, self.valid_from, self.valid_till
        )
    }
}

/// The multi-undo rollback (§IV-B): scans a log's blocks newest first,
/// given as `(max ValidTill, block)`, and yields each scanned block with
/// its entries covering `persisted`, last to first, so applying them in
/// order leaves every line at its oldest covering pre-image. The scan
/// stops at the first block whose max ValidTill is at or below
/// `persisted`: max ValidTill never falls along the log
/// ([`LogWindow::push`]), so every older block covers nothing either.
pub fn rollback<'a, V: 'a, B: AsRef<[UndoEntry<V>]> + 'a>(
    newest_first: impl IntoIterator<Item = (EpochId, &'a B)>,
    persisted: EpochId,
) -> impl Iterator<Item = (&'a B, impl Iterator<Item = &'a UndoEntry<V>>)> {
    newest_first
        .into_iter()
        .take_while(move |&(max_till, _)| max_till > persisted)
        .map(move |(_, block)| {
            let patches = block.as_ref().iter().rev();
            (block, patches.filter(move |e| e.covers(persisted)))
        })
}

/// A log's live blocks, oldest first, each with its max ValidTill, which
/// never falls along the log (§III-D): ValidTill comes from the rising
/// SystemEID. So garbage collection pops a prefix and [`rollback`] can
/// stop early.
#[derive(Debug, Clone, Default)]
pub struct LogWindow<B> {
    blocks: VecDeque<(EpochId, B)>,
    watermark: EpochId,
}

impl<B> LogWindow<B> {
    /// An empty window whose blocks must reach at least `watermark` (after
    /// a recovery, the epoch it rolled back to: later epochs are reused).
    pub fn new(watermark: EpochId) -> Self {
        LogWindow {
            blocks: VecDeque::new(),
            watermark,
        }
    }

    /// Appends `block`, whose newest entry's ValidTill is `max_till`.
    ///
    /// # Panics
    ///
    /// Panics if `max_till` is below the last block's, or below the
    /// watermark of an empty window.
    pub fn push(&mut self, max_till: EpochId, block: B) {
        assert!(
            max_till >= self.watermark,
            "ValidTill monotonicity violated: {max_till} after {}",
            self.watermark
        );
        self.watermark = max_till;
        self.blocks.push_back((max_till, block));
    }

    /// Removes and yields the blocks no recovery to `persisted` or later
    /// can need: the prefix whose max ValidTill is at or below it.
    pub fn expire(&mut self, persisted: EpochId) -> impl Iterator<Item = B> + '_ {
        let dead = self.blocks.partition_point(|&(till, _)| till <= persisted);
        self.blocks.drain(..dead).map(|(_, block)| block)
    }

    /// The live blocks with their max ValidTill, oldest first.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = (EpochId, &B)> + ExactSizeIterator {
        self.blocks.iter().map(|(till, block)| (*till, block))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covers_is_half_open() {
        // The paper's example: undo for C tagged <1,3> is used when
        // reverting to commit1 or commit2 but not commit3.
        let e = UndoEntry::new(LineAddr::new(1), 5, EpochId(1), EpochId(3));
        assert!(e.covers(EpochId(1)));
        assert!(e.covers(EpochId(2)));
        assert!(!e.covers(EpochId(3)));
        assert!(!e.covers(EpochId::ZERO));
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_range_panics() {
        let _ = UndoEntry::new(LineAddr::new(0), 0, EpochId(2), EpochId(2));
    }

    #[test]
    #[should_panic(expected = "monotonicity")]
    fn window_rejects_a_falling_watermark() {
        let mut w = LogWindow::new(EpochId::ZERO);
        w.push(EpochId(5), ());
        w.push(EpochId(4), ());
    }

    #[test]
    fn window_expires_a_prefix() {
        let mut w = LogWindow::new(EpochId(1));
        for (seq, till) in [(0, 2), (1, 3), (2, 3), (3, 9)] {
            w.push(EpochId(till), seq);
        }
        assert_eq!(w.expire(EpochId(3)).collect::<Vec<_>>(), [0, 1, 2]);
        assert_eq!(w.expire(EpochId(3)).count(), 0);
        assert_eq!(w.iter().collect::<Vec<_>>(), [(EpochId(9), &3)]);
    }

    #[test]
    fn display_format() {
        let e = UndoEntry::new(LineAddr::new(2), 0xff, EpochId(1), EpochId(4));
        assert_eq!(e.to_string(), "undo{L0x2 = 0xff valid E1..E4}");
    }
}
