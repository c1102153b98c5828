//! The two greedy cover constructions of §4 and the cover-to-partition
//! conversion.
//!
//! Both approximation algorithms share a two-phase shape:
//!
//! 1. **Cover** (`full_cover` for Theorem 4.1, `center` for Theorem 4.2) —
//!    run the classic greedy weighted set-cover heuristic over a candidate
//!    family, producing a `(k, ·)`-cover whose diameter sum approximates the
//!    optimal k-minimum diameter sum.
//! 2. **Reduce** (`reduce`) — repeatedly eliminate overlaps, never increasing
//!    the diameter sum, until the cover is a partition.
//!
//! The partition is then rounded to a suppressor by [`crate::rounding`].

pub mod arena;
pub mod center;
pub mod full_cover;
pub mod reduce;

pub use arena::CandidateArena;
pub use center::{center_greedy_cover, CenterConfig};
pub use full_cover::{full_greedy_cover, FullCoverConfig};
pub use reduce::reduce;

/// An exact rational ratio `num / den` used to order greedy candidates
/// without floating-point error. `den` must be positive.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Ratio {
    pub num: u64,
    pub den: u64,
}

impl Ratio {
    pub(crate) fn new(num: u64, den: u64) -> Self {
        debug_assert!(den > 0, "ratio denominator must be positive");
        Ratio { num, den }
    }
}

impl PartialOrd for Ratio {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Ratio {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // num1/den1 ? num2/den2  <=>  num1*den2 ? num2*den1 (dens positive).
        let lhs = u128::from(self.num) * u128::from(other.den);
        let rhs = u128::from(other.num) * u128::from(self.den);
        lhs.cmp(&rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::Ratio;

    #[test]
    fn ratio_ordering_is_exact() {
        assert!(Ratio::new(1, 3) < Ratio::new(1, 2));
        assert!(Ratio::new(2, 4) == Ratio::new(2, 4));
        assert_eq!(
            Ratio::new(2, 4).cmp(&Ratio::new(1, 2)),
            std::cmp::Ordering::Equal
        );
        assert!(Ratio::new(0, 5) < Ratio::new(1, 1000));
        // Values that would collide in f32: 16777217/1 vs 16777216/1.
        assert!(Ratio::new(16_777_216, 1) < Ratio::new(16_777_217, 1));
    }

    #[test]
    fn ratio_large_values_do_not_overflow() {
        let a = Ratio::new(u64::MAX, 1);
        let b = Ratio::new(u64::MAX - 1, 1);
        assert!(b < a);
    }
}
