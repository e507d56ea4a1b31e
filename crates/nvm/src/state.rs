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
//! A [`MainMemory`] stores one token per line that holds a non-initial
//! value, and nothing for the others. A hash map keyed by a line's
//! 512-line region holds a 512-bit bitmap of the region's held lines and
//! their tokens in line order; a line's token sits at the popcount of the
//! bitmap below its bit. One hash lookup serves every line of a region,
//! and the map has one entry per touched region.
//!
//! The NVM contents ([`crate::Nvm::state`]) and the golden images
//! reconstructed over them (see [`crate::snapshot`]) share this layout.
//! Their writes are sparse: at footprint scale 1.0 the 8-core paper mix
//! (W0, 56M instructions) holds 235,134 written lines on 10,071 regions,
//! a median 17 of each region's 512 lines: 1.9 MB of tokens. Pages of 8
//! lines would hold the same lines in 119,808 pages, 7.7 MB, three
//! quarters of it `INITIAL`.
//!
//! A line written back to [`MainMemory::INITIAL`] is dropped, and a region
//! once it holds no line, so two images are equal iff their maps are.

use picl_types::hash::FastMap;
use picl_types::LineAddr;

/// Lines per region, the hash map's unit: 512, so a region's bitmap is
/// eight `u64` words.
const REGION_SHIFT: u32 = 9;
const REGION_LINES: usize = 1 << REGION_SHIFT;
const HELD_WORDS: usize = REGION_LINES / 64;

/// A sparse map from cache line to its current value token, held one
/// token per written line.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MainMemory {
    regions: FastMap<u64, Region>,
    touched: usize,
}

/// The held lines of one region.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Region {
    /// Bit `i % 64` of word `i / 64` is set iff line `i` of the region
    /// holds a non-initial token; never all zero.
    held: [u64; HELD_WORDS],
    /// The held lines' tokens, in line order.
    tokens: Box<[u64]>,
}

/// The set bits of `word`, lowest first.
fn bits(mut word: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (word != 0).then(|| {
            let bit = word.trailing_zeros() as usize;
            word &= word - 1;
            bit
        })
    })
}

impl Region {
    /// Index into `tokens` of line `idx`: `Ok` if held, else `Err` with
    /// the index it would be inserted at.
    #[inline]
    fn slot(&self, idx: usize) -> Result<usize, usize> {
        let (word, bit) = (idx / 64, 1u64 << (idx % 64));
        let below: u32 = self.held[..word].iter().map(|w| w.count_ones()).sum();
        let slot = (below + (self.held[word] & (bit - 1)).count_ones()) as usize;
        if self.held[word] & bit != 0 {
            Ok(slot)
        } else {
            Err(slot)
        }
    }

    /// Line `idx`'s token, if held.
    fn get(&self, idx: usize) -> Option<u64> {
        self.slot(idx).ok().map(|s| self.tokens[s])
    }

    /// The held lines' indices and tokens, in line order.
    fn lines(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.held
            .iter()
            .enumerate()
            .flat_map(|(w, &word)| bits(word).map(move |b| w * 64 + b))
            .zip(self.tokens.iter().copied())
    }

    /// Holds line `idx` as `[slot]` of `tokens`, where it is not held yet.
    fn insert(&mut self, idx: usize, slot: usize, value: u64) {
        let mut tokens = std::mem::take(&mut self.tokens).into_vec();
        tokens.reserve_exact(1);
        tokens.insert(slot, value);
        self.tokens = tokens.into_boxed_slice();
        self.held[idx / 64] |= 1 << (idx % 64);
    }

    /// Drops line `idx`, held as `[slot]` of `tokens`.
    fn remove(&mut self, idx: usize, slot: usize) {
        let mut tokens = std::mem::take(&mut self.tokens).into_vec();
        tokens.remove(slot);
        self.tokens = tokens.into_boxed_slice();
        self.held[idx / 64] &= !(1 << (idx % 64));
    }
}

impl MainMemory {
    /// Value of any line that has never been written.
    pub const INITIAL: u64 = 0;

    /// An empty (all-[`INITIAL`](Self::INITIAL)) memory.
    pub fn new() -> Self {
        MainMemory::default()
    }

    /// A line's region and index within the region.
    #[inline]
    fn split(line: LineAddr) -> (u64, usize) {
        let raw = line.raw();
        (raw >> REGION_SHIFT, raw as usize & (REGION_LINES - 1))
    }

    #[inline]
    fn join(region: u64, idx: usize) -> LineAddr {
        LineAddr::new((region << REGION_SHIFT) | idx as u64)
    }

    /// Reads a line's value token.
    #[inline]
    pub fn read_line(&self, line: LineAddr) -> u64 {
        let (rk, idx) = Self::split(line);
        self.regions
            .get(&rk)
            .and_then(|r| r.get(idx))
            .unwrap_or(Self::INITIAL)
    }

    /// Writes a line's value token, returning the previous value.
    pub fn write_line(&mut self, line: LineAddr, value: u64) -> u64 {
        let (rk, idx) = Self::split(line);
        let Some(region) = self.regions.get_mut(&rk) else {
            if value != Self::INITIAL {
                let mut region = Region::default();
                region.insert(idx, 0, value);
                self.regions.insert(rk, region);
                self.touched += 1;
            }
            return Self::INITIAL;
        };
        match region.slot(idx) {
            Err(slot) => {
                if value != Self::INITIAL {
                    region.insert(idx, slot, value);
                    self.touched += 1;
                }
                Self::INITIAL
            }
            Ok(slot) if value != Self::INITIAL => {
                std::mem::replace(&mut region.tokens[slot], value)
            }
            Ok(slot) => {
                let old = region.tokens[slot];
                if region.tokens.len() == 1 {
                    self.regions.remove(&rk);
                } else {
                    region.remove(idx, slot);
                }
                self.touched -= 1;
                old
            }
        }
    }

    /// Number of lines holding a non-initial value.
    pub fn touched_lines(&self) -> usize {
        self.touched
    }

    /// Iterates over `(line, value)` pairs holding non-initial values.
    pub fn iter(&self) -> impl Iterator<Item = (LineAddr, u64)> + '_ {
        self.regions
            .iter()
            .flat_map(|(&rk, region)| region.lines().map(move |(i, v)| (Self::join(rk, i), v)))
    }

    /// Lines whose values differ between two images, in sorted order:
    /// the crash oracle's mismatch list.
    pub fn diff(&self, other: &MainMemory) -> Vec<LineAddr> {
        let mut out = Vec::new();
        // Every line this image holds that `other` does not hold at the
        // same value...
        for (&rk, mine) in &self.regions {
            let theirs = other.regions.get(&rk);
            for (i, v) in mine.lines() {
                if theirs.and_then(|t| t.get(i)) != Some(v) {
                    out.push(Self::join(rk, i));
                }
            }
        }
        // ...and every line only `other` holds.
        for (&rk, theirs) in &other.regions {
            let mine = self.regions.get(&rk).map_or([0; HELD_WORDS], |r| r.held);
            for (w, (&t, m)) in theirs.held.iter().zip(mine).enumerate() {
                out.extend(bits(t & !m).map(|b| Self::join(rk, w * 64 + b)));
            }
        }
        out.sort_unstable();
        out
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
    fn equality_ignores_erased_lines() {
        let mut a = MainMemory::new();
        let b = MainMemory::new();
        // Write then erase: the emptied region is freed.
        a.write_line(LineAddr::new(100), 1);
        a.write_line(LineAddr::new(100), MainMemory::INITIAL);
        assert!(a.regions.is_empty());
        assert_eq!(a, b);
        assert_eq!(b, a);
        a.write_line(LineAddr::new(100), 2);
        assert_ne!(a, b);
    }

    /// Tokens held per region, by region key.
    fn tokens_per_region(m: &MainMemory) -> BTreeMap<u64, usize> {
        m.regions
            .iter()
            .map(|(&k, r)| (k, r.tokens.len()))
            .collect()
    }

    #[test]
    fn isolated_lines_cost_one_token_each() {
        // Lines 512 apart: each sits alone in its region, and costs one
        // token.
        let mut c = MainMemory::new();
        for k in 0..16u64 {
            c.write_line(LineAddr::new(k * 512 + 3), k + 1);
        }
        assert_eq!(c.touched_lines(), 16);
        assert_eq!(tokens_per_region(&c), (0..16).map(|k| (k, 1)).collect());
        // Nine neighbouring lines share one region and hold nine tokens,
        // whatever 8-line boundary they cross.
        let mut d = MainMemory::new();
        for l in 16..25u64 {
            d.write_line(LineAddr::new(l), l);
        }
        assert_eq!(tokens_per_region(&d), BTreeMap::from([(0, 9)]));
        assert_eq!(d.read_line(LineAddr::new(24)), 24);
        assert_eq!(d.read_line(LineAddr::new(25)), MainMemory::INITIAL);
    }

    #[test]
    fn writing_initial_back_frees_the_line() {
        let mut c = MainMemory::new();
        for l in 8..16u64 {
            c.write_line(LineAddr::new(l), l);
        }
        assert_eq!(tokens_per_region(&c), BTreeMap::from([(0, 8)]));
        for l in 8..15u64 {
            c.write_line(LineAddr::new(l), MainMemory::INITIAL);
            let left = (15 - l) as usize;
            assert_eq!(
                tokens_per_region(&c),
                BTreeMap::from([(0, left)]),
                "line 15 still holds a token"
            );
        }
        assert_eq!(c.write_line(LineAddr::new(15), MainMemory::INITIAL), 15);
        assert!(c.regions.is_empty());
        assert_eq!(c.touched_lines(), 0);
        // Equality is map equality: the emptied image is the empty image.
        assert_eq!(c, MainMemory::new());
        // Rewriting INITIAL over INITIAL in a live region holds nothing
        // new.
        c.write_line(LineAddr::new(9), 4);
        c.write_line(LineAddr::new(10), MainMemory::INITIAL);
        assert_eq!(tokens_per_region(&c), BTreeMap::from([(0, 1)]));
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

    /// Writes over four regions, so images share some regions and lines
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
            // A region holds one token per non-initial line, and no
            // region is held without one.
            let mut regions = BTreeMap::new();
            for l in model.keys() {
                *regions.entry(l / 512).or_insert(0) += 1;
            }
            prop_assert_eq!(tokens_per_region(&image), regions.clone());

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
            // every line and region `b` alone opened: map equality again.
            let mut restored = image.clone();
            for &(line, value) in &b {
                restored.write_line(LineAddr::new(line), value);
            }
            for &(line, _) in &b {
                let back = model.get(&line).copied().unwrap_or(MainMemory::INITIAL);
                restored.write_line(LineAddr::new(line), back);
            }
            prop_assert_eq!(&restored, &image);
            prop_assert_eq!(tokens_per_region(&restored), regions);

            // Erasing every line frees every region.
            let mut erased = image;
            for &line in model.keys() {
                erased.write_line(LineAddr::new(line), MainMemory::INITIAL);
            }
            prop_assert!(erased.regions.is_empty());
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

        /// One region written densely, across all eight bitmap words,
        /// then written back to INITIAL line by line until it is freed;
        /// after every write the image agrees with a line map.
        #[test]
        fn a_dense_region_fills_and_frees(
            fill in proptest::collection::vec(((0u64..512), (1u64..1000)), 64..200),
            order in any::<u64>(),
        ) {
            let mut image = MainMemory::new();
            let mut model = BTreeMap::new();
            let check = |image: &MainMemory, model: &BTreeMap<u64, u64>| -> Result<(), TestCaseError> {
                prop_assert_eq!(image.touched_lines(), model.len());
                let mut got: Vec<_> = image.iter().map(|(l, v)| (l.raw(), v)).collect();
                got.sort_unstable();
                prop_assert_eq!(got, model.iter().map(|(&l, &v)| (l, v)).collect::<Vec<_>>());
                for line in 0..512 {
                    let want = model.get(&line).copied().unwrap_or(MainMemory::INITIAL);
                    prop_assert_eq!(image.read_line(LineAddr::new(line)), want);
                }
                let lines: Vec<LineAddr> = model.keys().map(|&l| LineAddr::new(l)).collect();
                prop_assert_eq!(image.diff(&MainMemory::new()), lines.clone());
                prop_assert_eq!(MainMemory::new().diff(image), lines);
                // Map equality: the same lines written in line order.
                let (rebuilt, _) = build(&model.iter().map(|(&l, &v)| (l, v)).collect::<Vec<_>>());
                prop_assert_eq!(&rebuilt, image);
                Ok(())
            };
            // Every bitmap word holds at least one line.
            for (&(line, value), w) in fill.iter().zip((0..HELD_WORDS as u64).cycle()) {
                let line = w * 64 + line % 64;
                prop_assert_eq!(image.write_line(LineAddr::new(line), value), model.insert(line, value).unwrap_or(MainMemory::INITIAL));
                check(&image, &model)?;
            }
            let mut lines: Vec<u64> = model.keys().copied().collect();
            // Erase in a scrambled order, so removals hit every slot.
            lines.sort_unstable_by_key(|&l| (l.wrapping_mul(order | 1)).rotate_left(17));
            for line in lines {
                let old = model.remove(&line).unwrap();
                prop_assert_eq!(image.write_line(LineAddr::new(line), MainMemory::INITIAL), old);
                check(&image, &model)?;
            }
            prop_assert!(image.regions.is_empty());
            prop_assert_eq!(image, MainMemory::new());
        }
    }
}
