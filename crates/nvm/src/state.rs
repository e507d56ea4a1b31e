//! Functional contents of main memory.
//!
//! Every cache line carries a 64-bit *value token*: an opaque stand-in for
//! the line's 64 bytes of data. Tokens are enough to check crash-consistency
//! exactly — recovery is correct iff every line's token equals the token it
//! held at the persisted epoch boundary — while keeping snapshots cheap
//! enough to take at every epoch in property tests.
//!
//! Untouched lines hold [`MainMemory::INITIAL`], the memory image at power-on.
//!
//! # Layout
//!
//! The image is paged: a hash map from page number to a flat 512-token
//! array, so one hash lookup serves up to 512 neighbouring lines and the
//! per-line access inside the page is a plain indexed load. Small
//! footprints touch only hundreds of pages and the map stays
//! cache-resident; at footprint scale 1.0 the 8-core paper mix (W0, 56M
//! instructions) touches about 235k lines on about 10k pages — 40 MB of
//! token storage for the NVM contents, though only a median 17 of each
//! page's 512 lines are written — and a lookup is then a likely cache
//! miss. (The golden history keeps its long-lived base at line grain
//! for that reason; see [`crate::snapshot`].)
//! Diffs and clones become contiguous array sweeps instead of per-line
//! hash probes. Pages that decay to all-[`INITIAL`] may linger; equality
//! and iteration are defined over non-initial lines only.

use picl_types::hash::FastMap;
use picl_types::LineAddr;

/// Lines per page: 512 tokens = 4 KB of token storage per page.
const PAGE_SHIFT: u64 = 9;
const PAGE_LINES: usize = 1 << PAGE_SHIFT;
const PAGE_MASK: u64 = (PAGE_LINES as u64) - 1;

/// A sparse, paged map from cache line to its current value token.
#[derive(Debug, Clone, Default)]
pub struct MainMemory {
    pages: FastMap<u64, Box<[u64; PAGE_LINES]>>,
    touched: usize,
}

impl MainMemory {
    /// Value of any line that has never been written.
    pub const INITIAL: u64 = 0;

    /// An empty (all-[`INITIAL`](Self::INITIAL)) memory.
    pub fn new() -> Self {
        MainMemory {
            pages: FastMap::default(),
            touched: 0,
        }
    }

    #[inline]
    fn split(line: LineAddr) -> (u64, usize) {
        let raw = line.raw();
        (raw >> PAGE_SHIFT, (raw & PAGE_MASK) as usize)
    }

    #[inline]
    fn join(page: u64, idx: usize) -> LineAddr {
        LineAddr::new((page << PAGE_SHIFT) | idx as u64)
    }

    /// Reads a line's value token.
    #[inline]
    pub fn read_line(&self, line: LineAddr) -> u64 {
        let (pk, idx) = Self::split(line);
        match self.pages.get(&pk) {
            Some(page) => page[idx],
            None => Self::INITIAL,
        }
    }

    /// Writes a line's value token, returning the previous value.
    pub fn write_line(&mut self, line: LineAddr, value: u64) -> u64 {
        let (pk, idx) = Self::split(line);
        match self.pages.get_mut(&pk) {
            Some(page) => {
                let old = std::mem::replace(&mut page[idx], value);
                self.touched += usize::from(value != Self::INITIAL);
                self.touched -= usize::from(old != Self::INITIAL);
                old
            }
            None => {
                if value != Self::INITIAL {
                    let mut page = Box::new([Self::INITIAL; PAGE_LINES]);
                    page[idx] = value;
                    self.pages.insert(pk, page);
                    self.touched += 1;
                }
                Self::INITIAL
            }
        }
    }

    /// Number of lines holding a non-initial value.
    pub fn touched_lines(&self) -> usize {
        self.touched
    }

    /// Iterates over `(line, value)` pairs holding non-initial values.
    pub fn iter(&self) -> impl Iterator<Item = (LineAddr, u64)> + '_ {
        self.pages.iter().flat_map(|(&pk, page)| {
            page.iter()
                .enumerate()
                .filter(|(_, &v)| v != Self::INITIAL)
                .map(move |(i, &v)| (Self::join(pk, i), v))
        })
    }

    /// Lines whose values differ between two images, in sorted order.
    ///
    /// Used by tests to produce readable recovery-mismatch diagnostics.
    pub fn diff(&self, other: &MainMemory) -> Vec<LineAddr> {
        let mut out = Vec::new();
        self.diff_into(other, &mut out);
        out
    }

    /// [`diff`](Self::diff) writing into a caller-owned buffer, so hot
    /// callers (crash validation on every injected crash) can reuse one
    /// allocation. Clears `out` first.
    pub fn diff_into(&self, other: &MainMemory, out: &mut Vec<LineAddr>) {
        out.clear();
        for (&pk, page) in &self.pages {
            match other.pages.get(&pk) {
                Some(opage) => {
                    for i in 0..PAGE_LINES {
                        if page[i] != opage[i] {
                            out.push(Self::join(pk, i));
                        }
                    }
                }
                None => {
                    for i in 0..PAGE_LINES {
                        if page[i] != Self::INITIAL {
                            out.push(Self::join(pk, i));
                        }
                    }
                }
            }
        }
        for (&pk, opage) in &other.pages {
            if !self.pages.contains_key(&pk) {
                for i in 0..PAGE_LINES {
                    if opage[i] != Self::INITIAL {
                        out.push(Self::join(pk, i));
                    }
                }
            }
        }
        out.sort_unstable();
        out.dedup();
    }
}

/// Equality over non-initial lines: lingering all-[`MainMemory::INITIAL`]
/// pages do not distinguish images.
impl PartialEq for MainMemory {
    fn eq(&self, other: &Self) -> bool {
        if self.touched != other.touched {
            return false;
        }
        self.pages
            .iter()
            .all(|(pk, page)| match other.pages.get(pk) {
                Some(opage) => page[..] == opage[..],
                None => page.iter().all(|&v| v == Self::INITIAL),
            })
    }
}

impl Eq for MainMemory {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_default_to_initial() {
        let m = MainMemory::new();
        assert_eq!(m.read_line(LineAddr::new(1234)), MainMemory::INITIAL);
        assert_eq!(m.touched_lines(), 0);
    }

    #[test]
    fn write_returns_previous() {
        let mut m = MainMemory::new();
        assert_eq!(m.write_line(LineAddr::new(1), 10), MainMemory::INITIAL);
        assert_eq!(m.write_line(LineAddr::new(1), 20), 10);
        assert_eq!(m.read_line(LineAddr::new(1)), 20);
    }

    #[test]
    fn writing_initial_erases_entry() {
        let mut m = MainMemory::new();
        m.write_line(LineAddr::new(5), 9);
        assert_eq!(m.touched_lines(), 1);
        assert_eq!(m.write_line(LineAddr::new(5), MainMemory::INITIAL), 9);
        assert_eq!(m.touched_lines(), 0);
    }

    #[test]
    fn initial_write_to_untouched_page_allocates_nothing() {
        let mut m = MainMemory::new();
        assert_eq!(
            m.write_line(LineAddr::new(7), MainMemory::INITIAL),
            MainMemory::INITIAL
        );
        assert_eq!(m.touched_lines(), 0);
        assert!(m.iter().next().is_none());
    }

    #[test]
    fn snapshot_is_independent() {
        let mut m = MainMemory::new();
        m.write_line(LineAddr::new(2), 7);
        let snap = m.clone();
        m.write_line(LineAddr::new(2), 8);
        assert_eq!(snap.read_line(LineAddr::new(2)), 7);
        assert_eq!(m.read_line(LineAddr::new(2)), 8);
    }

    #[test]
    fn diff_lists_mismatches_sorted() {
        let mut a = MainMemory::new();
        let mut b = MainMemory::new();
        a.write_line(LineAddr::new(3), 1);
        b.write_line(LineAddr::new(1), 2);
        a.write_line(LineAddr::new(2), 5);
        b.write_line(LineAddr::new(2), 5);
        let d = a.diff(&b);
        assert_eq!(d, vec![LineAddr::new(1), LineAddr::new(3)]);
        assert!(b.diff(&b).is_empty());
    }

    #[test]
    fn diff_spans_distant_pages() {
        let mut a = MainMemory::new();
        let mut b = MainMemory::new();
        // Two lines on pages far apart (different hash-map entries).
        a.write_line(LineAddr::new(3), 1);
        a.write_line(LineAddr::new(1 << 30), 9);
        b.write_line(LineAddr::new(1 << 30), 9);
        b.write_line(LineAddr::new((1 << 40) + 17), 4);
        assert_eq!(
            a.diff(&b),
            vec![LineAddr::new(3), LineAddr::new((1 << 40) + 17)]
        );
    }

    #[test]
    fn iter_yields_touched_lines() {
        let mut m = MainMemory::new();
        m.write_line(LineAddr::new(9), 1);
        m.write_line(LineAddr::new(10), 2);
        let mut got: Vec<_> = m.iter().collect();
        got.sort_unstable();
        assert_eq!(got, vec![(LineAddr::new(9), 1), (LineAddr::new(10), 2)]);
    }

    #[test]
    fn equality_ignores_lingering_empty_pages() {
        let mut a = MainMemory::new();
        let b = MainMemory::new();
        // Write then erase: the page lingers all-INITIAL.
        a.write_line(LineAddr::new(100), 1);
        a.write_line(LineAddr::new(100), MainMemory::INITIAL);
        assert_eq!(a, b);
        assert_eq!(b, a);
        a.write_line(LineAddr::new(100), 2);
        assert_ne!(a, b);
    }
}
