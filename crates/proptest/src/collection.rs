//! Collection strategies (`proptest::collection::vec`).

use std::ops::Range;

use crate::rng::TestRng;
use crate::strategy::Strategy;

/// A length specification: a half-open range or an exact count.
#[derive(Debug, Clone)]
pub struct SizeRange {
    min: usize,
    /// Exclusive upper bound.
    max: usize,
}

impl From<Range<usize>> for SizeRange {
    fn from(r: Range<usize>) -> Self {
        assert!(r.start < r.end, "empty vec size range");
        SizeRange {
            min: r.start,
            max: r.end,
        }
    }
}

impl From<usize> for SizeRange {
    fn from(exact: usize) -> Self {
        SizeRange {
            min: exact,
            max: exact + 1,
        }
    }
}

/// Generates `Vec`s whose length is drawn from `size` and whose elements
/// come from `element`.
pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
    VecStrategy {
        element,
        size: size.into(),
    }
}

/// See [`vec()`].
pub struct VecStrategy<S> {
    element: S,
    size: SizeRange,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;
    fn pick(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let width = (self.size.max - self.size.min) as u64;
        let len = self.size.min + rng.below(width) as usize;
        (0..len).map(|_| self.element.pick(rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn length_in_range_and_elements_valid() {
        let mut rng = TestRng::new(5);
        let s = vec(0u64..10, 2..7);
        for _ in 0..100 {
            let v = s.pick(&mut rng);
            assert!((2..7).contains(&v.len()));
            assert!(v.iter().all(|&e| e < 10));
        }
    }

    #[test]
    fn exact_size() {
        let mut rng = TestRng::new(8);
        let s = vec(0u64..10, 32usize);
        for _ in 0..10 {
            assert_eq!(s.pick(&mut rng).len(), 32);
        }
    }
}
