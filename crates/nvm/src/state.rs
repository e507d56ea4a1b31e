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
//! An image ([`PagedImage`]) stores tokens in pages of `PAGE_LINES` lines.
//! A hash map keyed by a line's 512-line (4 KB of tokens) region holds the
//! region's pages in order, with a bitmap of which pages it holds. One
//! hash lookup serves every line of a region, the map has one entry per
//! touched region whatever the page width, and the access inside a page
//! is a plain indexed load. The page width is a const parameter; one
//! implementation serves two widths:
//!
//! * [`MainMemory`]: 512-line pages, one per region, for images built in
//!   full and then compared or cloned — golden reconstructions, the
//!   logical image, and reference mode's eager per-commit clones. Their
//!   diffs and clones are contiguous array sweeps.
//! * [`CompactMemory`]: 8-line (64-byte, one host cache line) pages, for
//!   the two long-lived, incrementally written images — the NVM contents
//!   ([`crate::Nvm::state`]) and the golden history's folded base (see
//!   [`crate::snapshot`]). Their writes are sparse: at footprint scale 1.0
//!   the 8-core paper mix (W0, 56M instructions) touches about 235k lines
//!   on about 10k regions, a median 17 of each region's 512 lines. At
//!   512-line pages that is 41 MB of token storage; at 8-line pages the
//!   same lines fill about 120k pages, 7.7 MB.
//!
//! A page is freed once all of its tokens are back to
//! [`MainMemory::INITIAL`], and a region once it holds no page, so two
//! images are equal iff their maps are. Images of different widths
//! compare with [`PagedImage::diff`].

use picl_types::hash::FastMap;
use picl_types::LineAddr;

/// The simulator's full-image width: 512 tokens = 4 KB per page.
pub type MainMemory = PagedImage<512>;

/// The long-lived images' width: 8 tokens = 64 bytes per page.
pub type CompactMemory = PagedImage<8>;

/// Lines per region, the hash map's unit: 512, so a region holds at most
/// 64 pages of the narrowest width and its bitmap fits a `u64`.
const REGION_SHIFT: u32 = 9;
const REGION_LINES: usize = 1 << REGION_SHIFT;

/// A sparse map from cache line to its current value token, paged
/// `PAGE_LINES` lines at a time: a power of two from 8 to 512.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PagedImage<const PAGE_LINES: usize> {
    regions: FastMap<u64, Region<PAGE_LINES>>,
    touched: usize,
}

/// The held pages of one region.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Region<const PAGE_LINES: usize> {
    /// Bit `i` is set iff page `i` of the region is held; never 0.
    held: u64,
    /// The held pages, in page order.
    pages: Box<[[u64; PAGE_LINES]]>,
}

impl<const PAGE_LINES: usize> Region<PAGE_LINES> {
    /// Index into `pages` of page `page`: `Ok` if held, else `Err` with
    /// the index it would be inserted at.
    #[inline]
    fn slot(&self, page: usize) -> Result<usize, usize> {
        let bit = 1u64 << page;
        let slot = (self.held & (bit - 1)).count_ones() as usize;
        if self.held & bit != 0 {
            Ok(slot)
        } else {
            Err(slot)
        }
    }

    /// The tokens of lines `start..start + len` of the region, which lie
    /// on one page, if that page is held.
    fn tokens(&self, start: usize, len: usize) -> Option<&[u64]> {
        let off = start % PAGE_LINES;
        self.slot(start / PAGE_LINES)
            .ok()
            .map(|s| &self.pages[s][off..off + len])
    }

    /// Holds `page` as `[slot]` of `pages`, where it is not held yet.
    fn insert(&mut self, page: usize, slot: usize, tokens: [u64; PAGE_LINES]) {
        let mut pages = std::mem::take(&mut self.pages).into_vec();
        pages.reserve_exact(1);
        pages.insert(slot, tokens);
        self.pages = pages.into_boxed_slice();
        self.held |= 1 << page;
    }

    /// Drops `page`, held as `[slot]` of `pages`.
    fn remove(&mut self, page: usize, slot: usize) {
        let mut pages = std::mem::take(&mut self.pages).into_vec();
        pages.remove(slot);
        self.pages = pages.into_boxed_slice();
        self.held &= !(1 << page);
    }
}

impl<const PAGE_LINES: usize> PagedImage<PAGE_LINES> {
    /// Value of any line that has never been written.
    pub const INITIAL: u64 = 0;

    const PAGE_SHIFT: u32 = {
        assert!(
            PAGE_LINES.is_power_of_two()
                && PAGE_LINES * 64 >= REGION_LINES
                && PAGE_LINES <= REGION_LINES,
            "a page is 2^k lines, 8 to 512"
        );
        PAGE_LINES.trailing_zeros()
    };

    /// An empty (all-[`INITIAL`](Self::INITIAL)) memory.
    pub fn new() -> Self {
        PagedImage {
            regions: FastMap::default(),
            touched: 0,
        }
    }

    /// A line's region, page within the region, and offset in the page.
    #[inline]
    fn split(line: LineAddr) -> (u64, usize, usize) {
        let raw = line.raw();
        let idx = (raw & (REGION_LINES as u64 - 1)) as usize;
        (
            raw >> REGION_SHIFT,
            idx >> Self::PAGE_SHIFT,
            idx & (PAGE_LINES - 1),
        )
    }

    #[inline]
    fn join(region: u64, idx: usize) -> LineAddr {
        LineAddr::new((region << REGION_SHIFT) | idx as u64)
    }

    /// Reads a line's value token.
    #[inline]
    pub fn read_line(&self, line: LineAddr) -> u64 {
        let (rk, page, off) = Self::split(line);
        self.regions
            .get(&rk)
            .and_then(|r| r.slot(page).ok().map(|s| r.pages[s][off]))
            .unwrap_or(Self::INITIAL)
    }

    /// Writes a line's value token, returning the previous value.
    pub fn write_line(&mut self, line: LineAddr, value: u64) -> u64 {
        let (rk, page, off) = Self::split(line);
        let tokens = || {
            let mut t = [Self::INITIAL; PAGE_LINES];
            t[off] = value;
            t
        };
        let Some(region) = self.regions.get_mut(&rk) else {
            if value != Self::INITIAL {
                let pages = Box::new([tokens()]);
                self.regions.insert(
                    rk,
                    Region {
                        held: 1 << page,
                        pages,
                    },
                );
                self.touched += 1;
            }
            return Self::INITIAL;
        };
        let slot = match region.slot(page) {
            Ok(slot) => slot,
            Err(slot) => {
                if value != Self::INITIAL {
                    region.insert(page, slot, tokens());
                    self.touched += 1;
                }
                return Self::INITIAL;
            }
        };
        let old = std::mem::replace(&mut region.pages[slot][off], value);
        self.touched += usize::from(value != Self::INITIAL);
        self.touched -= usize::from(old != Self::INITIAL);
        if value == Self::INITIAL
            && old != Self::INITIAL
            && region.pages[slot].iter().all(|&v| v == Self::INITIAL)
        {
            if region.pages.len() == 1 {
                self.regions.remove(&rk);
            } else {
                region.remove(page, slot);
            }
        }
        old
    }

    /// Number of lines holding a non-initial value.
    pub fn touched_lines(&self) -> usize {
        self.touched
    }

    /// Number of pages held: those with at least one non-initial line
    /// (memory diagnostics).
    pub fn page_count(&self) -> usize {
        self.regions.values().map(|r| r.pages.len()).sum()
    }

    /// Iterates over `(line, value)` pairs holding non-initial values.
    pub fn iter(&self) -> impl Iterator<Item = (LineAddr, u64)> + '_ {
        self.regions.iter().flat_map(|(&rk, region)| {
            (0..REGION_LINES / PAGE_LINES)
                .filter(|&p| region.held >> p & 1 == 1)
                .zip(region.pages.iter())
                .flat_map(move |(p, page)| {
                    page.iter()
                        .enumerate()
                        .filter(|(_, &v)| v != Self::INITIAL)
                        .map(move |(i, &v)| (Self::join(rk, p * PAGE_LINES + i), v))
                })
        })
    }

    /// Lines whose values differ between two images, in sorted order. The
    /// images may have different page widths.
    ///
    /// Used by tests to produce readable recovery-mismatch diagnostics.
    pub fn diff<const OTHER: usize>(&self, other: &PagedImage<OTHER>) -> Vec<LineAddr> {
        let mut out = Vec::new();
        self.diff_into(other, &mut out);
        out
    }

    /// [`diff`](Self::diff) writing into a caller-owned buffer, so hot
    /// callers (crash validation on every injected crash) can reuse one
    /// allocation. Clears `out` first.
    pub fn diff_into<const OTHER: usize>(
        &self,
        other: &PagedImage<OTHER>,
        out: &mut Vec<LineAddr>,
    ) {
        out.clear();
        self.diff_pass(other, true, out);
        other.diff_pass(self, false, out);
        out.sort_unstable();
    }

    /// Walks this image's held tokens in aligned chunks of
    /// `min(PAGE_LINES, OTHER)` lines, each on one page of either image,
    /// and pushes the lines that differ from `other`: in every chunk
    /// `other` does not hold, and — if `shared` — in those it does.
    fn diff_pass<const OTHER: usize>(
        &self,
        other: &PagedImage<OTHER>,
        shared: bool,
        out: &mut Vec<LineAddr>,
    ) {
        let chunk = PAGE_LINES.min(OTHER);
        for (&rk, region) in &self.regions {
            let theirs = other.regions.get(&rk);
            for start in (0..REGION_LINES).step_by(chunk) {
                let Some(mine) = region.tokens(start, chunk) else {
                    continue;
                };
                let theirs = theirs.and_then(|r| r.tokens(start, chunk));
                if theirs.is_some() && !shared {
                    continue;
                }
                for (i, &a) in mine.iter().enumerate() {
                    if a != theirs.map_or(Self::INITIAL, |t| t[i]) {
                        out.push(Self::join(rk, start + i));
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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
        // Write then erase: the emptied page is freed.
        a.write_line(LineAddr::new(100), 1);
        a.write_line(LineAddr::new(100), MainMemory::INITIAL);
        assert_eq!(a.page_count(), 0);
        assert_eq!(a, b);
        assert_eq!(b, a);
        a.write_line(LineAddr::new(100), 2);
        assert_ne!(a, b);
    }

    #[test]
    fn isolated_lines_cost_one_compact_page_each() {
        // Lines 512 apart: each sits alone in its region, and costs one
        // 8-token page in the compact store.
        let mut c = CompactMemory::new();
        for k in 0..16u64 {
            c.write_line(LineAddr::new(k * 512 + 3), k + 1);
        }
        assert_eq!(c.touched_lines(), 16);
        assert_eq!(c.page_count(), 16);
        // Eight neighbouring lines share one compact page; the ninth
        // opens the next.
        let mut d = CompactMemory::new();
        for l in 16..25u64 {
            d.write_line(LineAddr::new(l), l);
        }
        assert_eq!(d.page_count(), 2);
        assert_eq!(d.read_line(LineAddr::new(24)), 24);
        assert_eq!(d.read_line(LineAddr::new(25)), CompactMemory::INITIAL);
    }

    #[test]
    fn writing_initial_back_frees_the_page() {
        let mut c = CompactMemory::new();
        for l in 8..16u64 {
            c.write_line(LineAddr::new(l), l);
        }
        assert_eq!(c.page_count(), 1);
        for l in 8..15u64 {
            c.write_line(LineAddr::new(l), CompactMemory::INITIAL);
            assert_eq!(c.page_count(), 1, "line 15 still holds a token");
        }
        assert_eq!(c.write_line(LineAddr::new(15), CompactMemory::INITIAL), 15);
        assert_eq!(c.page_count(), 0);
        assert_eq!(c.touched_lines(), 0);
        // Equality is map equality: the emptied image is the empty image.
        assert_eq!(c, CompactMemory::new());
        // Rewriting INITIAL over INITIAL in a live page keeps the page.
        c.write_line(LineAddr::new(9), 4);
        c.write_line(LineAddr::new(10), CompactMemory::INITIAL);
        assert_eq!(c.page_count(), 1);
    }

    #[test]
    fn diff_crosses_page_widths() {
        let mut golden = MainMemory::new();
        let mut nvm = CompactMemory::new();
        golden.write_line(LineAddr::new(3), 1);
        golden.write_line(LineAddr::new(600), 2);
        nvm.write_line(LineAddr::new(600), 2);
        nvm.write_line(LineAddr::new(1 << 30), 5);
        nvm.write_line(LineAddr::new(7), 6);
        let want = vec![LineAddr::new(3), LineAddr::new(7), LineAddr::new(1 << 30)];
        assert_eq!(golden.diff(&nvm), want);
        assert_eq!(nvm.diff(&golden), want);
    }

    /// `writes` applied in order to an empty image of any width.
    fn build<const N: usize>(writes: &[(u64, u64)]) -> PagedImage<N> {
        let mut image = PagedImage::<N>::new();
        for &(line, value) in writes {
            image.write_line(LineAddr::new(line), value);
        }
        image
    }

    /// Writes over four regions, so images share some regions and pages
    /// and not others; values include INITIAL.
    fn writes() -> impl Strategy<Value = Vec<(u64, u64)>> {
        proptest::collection::vec(((0u64..2048), (0u64..4)), 0..120)
    }

    proptest! {
        #[test]
        fn cross_width_diff_matches_full_images(a in writes(), b in writes()) {
            let want = build::<512>(&a).diff(&build::<512>(&b));
            prop_assert_eq!(build::<8>(&a).diff(&build::<512>(&b)), want.clone());
            prop_assert_eq!(build::<512>(&a).diff(&build::<8>(&b)), want.clone());
            prop_assert_eq!(build::<8>(&a).diff(&build::<8>(&b)), want);
            let (full, compact) = (build::<512>(&a), build::<8>(&a));
            prop_assert_eq!(full.touched_lines(), compact.touched_lines());
            prop_assert!(compact.diff(&full).is_empty());
            let mut got: Vec<_> = compact.iter().collect();
            let mut all: Vec<_> = full.iter().collect();
            got.sort_unstable();
            all.sort_unstable();
            prop_assert_eq!(&got, &all);
            // Erasing every line frees every page and region.
            let mut erased = compact;
            for &(line, _) in &got {
                erased.write_line(line, CompactMemory::INITIAL);
            }
            prop_assert_eq!(erased.page_count(), 0);
            prop_assert_eq!(erased, CompactMemory::new());
        }
    }
}
