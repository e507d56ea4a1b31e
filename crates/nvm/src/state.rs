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
//! A [`MainMemory`] stores tokens in pages of 8 lines: 64 bytes, one host
//! cache line. A hash map keyed by a line's 512-line region holds the
//! region's pages in order, with a bitmap of which pages it holds. One
//! hash lookup serves every line of a region, the map has one entry per
//! touched region, and the access inside a page is a plain indexed load.
//!
//! Every image has this one width: the NVM contents ([`crate::Nvm::state`])
//! and the golden images reconstructed over them (see
//! [`crate::snapshot`]; the golden history's folded base is not an image
//! but an overlay of the few lines where it differs from the contents).
//! Their writes are sparse: at footprint scale
//! 1.0 the 8-core paper mix (W0, 56M instructions) touches about 235k
//! lines on about 10k regions, a median 17 of each region's 512 lines.
//! At 512-line pages that is 41 MB of token storage; at 8-line pages the
//! same lines fill about 120k pages, 7.7 MB.
//!
//! A page is freed once all of its tokens are back to
//! [`MainMemory::INITIAL`], and a region once it holds no page, so two
//! images are equal iff their maps are.

use picl_types::hash::FastMap;
use picl_types::LineAddr;

/// Lines per page: 8 tokens, 64 bytes.
const PAGE_LINES: usize = 8;
const PAGE_SHIFT: u32 = PAGE_LINES.trailing_zeros();

/// Lines per region, the hash map's unit: 512, so a region holds at most
/// 64 pages and its bitmap fits a `u64`.
const REGION_SHIFT: u32 = 9;
const REGION_LINES: usize = 1 << REGION_SHIFT;

type Page = [u64; PAGE_LINES];

/// A sparse map from cache line to its current value token, paged eight
/// lines at a time.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MainMemory {
    regions: FastMap<u64, Region>,
    touched: usize,
}

/// The held pages of one region.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Region {
    /// Bit `i` is set iff page `i` of the region is held; never 0.
    held: u64,
    /// The held pages, in page order.
    pages: Box<[Page]>,
}

impl Region {
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

    /// Page `page`'s tokens, if held.
    fn page(&self, page: usize) -> Option<&Page> {
        self.slot(page).ok().map(|s| &self.pages[s])
    }

    /// The held pages with their indices, in page order.
    fn held_pages(&self) -> impl Iterator<Item = (usize, &Page)> + '_ {
        (0..REGION_LINES / PAGE_LINES)
            .filter(|&p| self.held >> p & 1 == 1)
            .zip(self.pages.iter())
    }

    /// Holds `page` as `[slot]` of `pages`, where it is not held yet.
    fn insert(&mut self, page: usize, slot: usize, tokens: Page) {
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

impl MainMemory {
    /// Value of any line that has never been written.
    pub const INITIAL: u64 = 0;

    /// An empty (all-[`INITIAL`](Self::INITIAL)) memory.
    pub fn new() -> Self {
        MainMemory::default()
    }

    /// A line's region, page within the region, and offset in the page.
    #[inline]
    fn split(line: LineAddr) -> (u64, usize, usize) {
        let raw = line.raw();
        let idx = (raw & (REGION_LINES as u64 - 1)) as usize;
        (
            raw >> REGION_SHIFT,
            idx >> PAGE_SHIFT,
            idx & (PAGE_LINES - 1),
        )
    }

    #[inline]
    fn join(region: u64, page: usize, off: usize) -> LineAddr {
        LineAddr::new((region << REGION_SHIFT) | (page * PAGE_LINES + off) as u64)
    }

    /// Reads a line's value token.
    #[inline]
    pub fn read_line(&self, line: LineAddr) -> u64 {
        let (rk, page, off) = Self::split(line);
        self.regions
            .get(&rk)
            .and_then(|r| r.page(page).map(|p| p[off]))
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
            region.held_pages().flat_map(move |(p, page)| {
                page.iter()
                    .enumerate()
                    .filter(|(_, &v)| v != Self::INITIAL)
                    .map(move |(i, &v)| (Self::join(rk, p, i), v))
            })
        })
    }

    /// Lines whose values differ between two images, in sorted order:
    /// the crash oracle's mismatch list.
    pub fn diff(&self, other: &MainMemory) -> Vec<LineAddr> {
        let mut out = Vec::new();
        self.diff_pages(other, true, &mut out);
        other.diff_pages(self, false, &mut out);
        out.sort_unstable();
        out
    }

    /// Pushes the lines of this image's held pages that differ from
    /// `other`: on every page `other` does not hold, and — if `shared` —
    /// on those it does.
    fn diff_pages(&self, other: &MainMemory, shared: bool, out: &mut Vec<LineAddr>) {
        for (&rk, region) in &self.regions {
            let theirs = other.regions.get(&rk);
            for (p, mine) in region.held_pages() {
                let theirs = theirs.and_then(|r| r.page(p));
                if theirs.is_some() && !shared {
                    continue;
                }
                for (i, &a) in mine.iter().enumerate() {
                    if a != theirs.map_or(Self::INITIAL, |t| t[i]) {
                        out.push(Self::join(rk, p, i));
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
    use std::collections::{BTreeMap, BTreeSet};

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
        // 8-token page.
        let mut c = MainMemory::new();
        for k in 0..16u64 {
            c.write_line(LineAddr::new(k * 512 + 3), k + 1);
        }
        assert_eq!(c.touched_lines(), 16);
        assert_eq!(c.page_count(), 16);
        // Eight neighbouring lines share one page; the ninth opens the
        // next.
        let mut d = MainMemory::new();
        for l in 16..25u64 {
            d.write_line(LineAddr::new(l), l);
        }
        assert_eq!(d.page_count(), 2);
        assert_eq!(d.read_line(LineAddr::new(24)), 24);
        assert_eq!(d.read_line(LineAddr::new(25)), MainMemory::INITIAL);
    }

    #[test]
    fn writing_initial_back_frees_the_page() {
        let mut c = MainMemory::new();
        for l in 8..16u64 {
            c.write_line(LineAddr::new(l), l);
        }
        assert_eq!(c.page_count(), 1);
        for l in 8..15u64 {
            c.write_line(LineAddr::new(l), MainMemory::INITIAL);
            assert_eq!(c.page_count(), 1, "line 15 still holds a token");
        }
        assert_eq!(c.write_line(LineAddr::new(15), MainMemory::INITIAL), 15);
        assert_eq!(c.page_count(), 0);
        assert_eq!(c.touched_lines(), 0);
        // Equality is map equality: the emptied image is the empty image.
        assert_eq!(c, MainMemory::new());
        // Rewriting INITIAL over INITIAL in a live page keeps the page.
        c.write_line(LineAddr::new(9), 4);
        c.write_line(LineAddr::new(10), MainMemory::INITIAL);
        assert_eq!(c.page_count(), 1);
    }

    /// Named for the two page widths images once came in; with one width
    /// left it checks the two-sided diff over a page both images hold but
    /// disagree on (lines 3 and 7 of page 0), a page they agree on (600)
    /// and a region only one holds (`1 << 30`).
    #[test]
    fn diff_crosses_page_widths() {
        let mut golden = MainMemory::new();
        let mut nvm = MainMemory::new();
        golden.write_line(LineAddr::new(3), 1);
        golden.write_line(LineAddr::new(600), 2);
        nvm.write_line(LineAddr::new(600), 2);
        nvm.write_line(LineAddr::new(1 << 30), 5);
        nvm.write_line(LineAddr::new(7), 6);
        let want = vec![LineAddr::new(3), LineAddr::new(7), LineAddr::new(1 << 30)];
        assert_eq!(golden.diff(&nvm), want);
        assert_eq!(nvm.diff(&golden), want);
    }

    /// `writes` applied in order to an empty image, and to a line map
    /// that holds only non-initial values.
    fn build(writes: &[(u64, u64)]) -> (MainMemory, BTreeMap<u64, u64>) {
        let mut image = MainMemory::new();
        let mut model = BTreeMap::new();
        for &(line, value) in writes {
            image.write_line(LineAddr::new(line), value);
            if value == MainMemory::INITIAL {
                model.remove(&line);
            } else {
                model.insert(line, value);
            }
        }
        (image, model)
    }

    /// Writes over four regions, so images share some regions and pages
    /// and not others; values include INITIAL.
    fn writes() -> impl Strategy<Value = Vec<(u64, u64)>> {
        proptest::collection::vec(((0u64..2048), (0u64..4)), 0..120)
    }

    proptest! {
        #[test]
        fn image_matches_a_line_map_model(a in writes(), b in writes()) {
            let (image, model) = build(&a);
            let (other, other_model) = build(&b);
            prop_assert_eq!(image.touched_lines(), model.len());
            let mut got: Vec<_> = image.iter().map(|(l, v)| (l.raw(), v)).collect();
            got.sort_unstable();
            prop_assert_eq!(got, model.iter().map(|(&l, &v)| (l, v)).collect::<Vec<_>>());
            for line in (0..2048).step_by(7) {
                let want = model.get(&line).copied().unwrap_or(MainMemory::INITIAL);
                prop_assert_eq!(image.read_line(LineAddr::new(line)), want);
            }
            // A page is held iff one of its lines is non-initial.
            let pages: BTreeSet<u64> = model.keys().map(|l| l / 8).collect();
            prop_assert_eq!(image.page_count(), pages.len());

            // The diff is the sorted set of lines the two maps disagree on,
            // whichever side holds them.
            let want: Vec<LineAddr> = model
                .keys()
                .chain(other_model.keys())
                .collect::<BTreeSet<_>>()
                .into_iter()
                .filter(|l| model.get(l) != other_model.get(l))
                .map(|&l| LineAddr::new(l))
                .collect();
            prop_assert_eq!(image.diff(&other), want.clone());
            prop_assert_eq!(other.diff(&image), want);
            prop_assert!(image.diff(&image.clone()).is_empty());
            prop_assert_eq!(image == other, model == other_model);

            // Writing `b` over `a` and then restoring `a`'s values frees
            // every page and region `b` alone opened: map equality again.
            let mut restored = image.clone();
            for &(line, value) in &b {
                restored.write_line(LineAddr::new(line), value);
            }
            for &(line, _) in &b {
                let back = model.get(&line).copied().unwrap_or(MainMemory::INITIAL);
                restored.write_line(LineAddr::new(line), back);
            }
            prop_assert_eq!(&restored, &image);
            prop_assert_eq!(restored.page_count(), pages.len());

            // Erasing every line frees every page and region.
            let mut erased = image;
            for &line in model.keys() {
                erased.write_line(LineAddr::new(line), MainMemory::INITIAL);
            }
            prop_assert_eq!(erased.page_count(), 0);
            prop_assert_eq!(erased, MainMemory::new());
        }

        /// Named for the two page widths images once came in; with one
        /// width left it checks the sparse diff against a full line-by-line
        /// comparison of both images, and that an image rebuilt from its
        /// own lines in the reverse order equals it.
        #[test]
        fn cross_width_diff_matches_full_images(a in writes(), b in writes()) {
            let (image, _) = build(&a);
            let (other, _) = build(&b);
            let full: Vec<LineAddr> = (0..2048)
                .map(LineAddr::new)
                .filter(|&l| image.read_line(l) != other.read_line(l))
                .collect();
            prop_assert_eq!(image.diff(&other), full.clone());
            prop_assert_eq!(other.diff(&image), full);

            let mut lines: Vec<_> = image.iter().collect();
            lines.sort_unstable_by(|x, y| y.cmp(x));
            let mut rebuilt = MainMemory::new();
            for (line, value) in lines {
                rebuilt.write_line(line, value);
            }
            prop_assert!(rebuilt.diff(&image).is_empty());
            prop_assert_eq!(rebuilt, image);
        }
    }
}
