//! Collection strategies (`proptest::collection::vec`).

use crate::strategy::Strategy;
use crate::test_runner::TestRng;
use std::ops::{Range, RangeInclusive};

/// An inclusive-exclusive size specification for generated collections.
#[derive(Debug, Clone, Copy)]
pub struct SizeRange {
    lo: usize,
    hi_exclusive: usize,
}

impl From<Range<usize>> for SizeRange {
    fn from(r: Range<usize>) -> Self {
        assert!(r.start < r.end, "empty collection size range");
        SizeRange { lo: r.start, hi_exclusive: r.end }
    }
}

impl From<RangeInclusive<usize>> for SizeRange {
    fn from(r: RangeInclusive<usize>) -> Self {
        assert!(r.start() <= r.end(), "empty collection size range");
        SizeRange { lo: *r.start(), hi_exclusive: *r.end() + 1 }
    }
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        SizeRange { lo: n, hi_exclusive: n + 1 }
    }
}

/// The strategy returned by [`vec()`].
#[derive(Clone)]
pub struct VecStrategy<S> {
    element: S,
    size: SizeRange,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;

    fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let span = (self.size.hi_exclusive - self.size.lo) as u64;
        let len = self.size.lo + rng.below(span.max(1)) as usize;
        (0..len).map(|_| self.element.generate(rng)).collect()
    }
}

/// A strategy for `Vec`s whose elements come from `element` and whose
/// length is drawn from `size`.
pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
    VecStrategy { element, size: size.into() }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lengths_respect_bounds() {
        let mut rng = TestRng::from_seed(11);
        let s = vec(0u8..5, 2..7);
        for _ in 0..200 {
            let v = s.generate(&mut rng);
            assert!((2..7).contains(&v.len()));
            assert!(v.iter().all(|&x| x < 5));
        }
        let exact = vec(0u8..5, 3);
        assert_eq!(exact.generate(&mut rng).len(), 3);
    }
}
