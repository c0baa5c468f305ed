//! Closed real intervals.
//!
//! The paper works with intervals with real-valued endpoints.  Remark B.1
//! observes that we can assume all intervals are closed without loss of
//! generality, which is the convention adopted here.  Point intervals
//! `[p, p]` degenerate intersection joins to equality joins.

use crate::OrdF64;
use std::fmt;

/// Why [`Interval::try_new`] rejected its endpoints.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum IntervalError {
    /// The left endpoint exceeds the right endpoint.
    Reversed {
        /// The offending left endpoint.
        lo: f64,
        /// The offending right endpoint.
        hi: f64,
    },
    /// An endpoint is NaN or infinite.
    NonFinite {
        /// The offending endpoint value.
        value: f64,
    },
}

impl fmt::Display for IntervalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IntervalError::Reversed { lo, hi } => {
                write!(f, "invalid interval: lo {lo} exceeds hi {hi}")
            }
            IntervalError::NonFinite { value } => {
                write!(f, "invalid interval endpoint: {value} is not finite")
            }
        }
    }
}

impl std::error::Error for IntervalError {}

/// A closed interval `[lo, hi]` with `lo <= hi`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Interval {
    lo: OrdF64,
    hi: OrdF64,
}

impl Interval {
    /// Creates the closed interval `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or either endpoint is NaN.
    #[inline]
    pub fn new(lo: f64, hi: f64) -> Self {
        let lo = OrdF64::new(lo);
        let hi = OrdF64::new(hi);
        assert!(lo <= hi, "invalid interval: lo must not exceed hi");
        Interval { lo, hi }
    }

    /// Checked companion of [`Interval::new`] for data that comes from
    /// outside the type system (generators, parsers, user input): rejects
    /// reversed endpoints *and* non-finite endpoints instead of panicking.
    ///
    /// Unlike [`Interval::new`], which tolerates ±∞ (the extended reals used
    /// by [`Interval::all`]), `try_new` insists on finite endpoints — a
    /// generated workload interval must describe real data.
    ///
    /// ```
    /// use ij_segtree::{Interval, IntervalError};
    ///
    /// assert_eq!(Interval::try_new(1.0, 2.0), Ok(Interval::new(1.0, 2.0)));
    /// assert_eq!(
    ///     Interval::try_new(2.0, 1.0),
    ///     Err(IntervalError::Reversed { lo: 2.0, hi: 1.0 })
    /// );
    /// assert!(Interval::try_new(f64::NEG_INFINITY, 0.0).is_err());
    /// assert!(Interval::try_new(0.0, f64::NAN).is_err());
    /// ```
    #[inline]
    pub fn try_new(lo: f64, hi: f64) -> Result<Self, IntervalError> {
        if !lo.is_finite() {
            return Err(IntervalError::NonFinite { value: lo });
        }
        if !hi.is_finite() {
            return Err(IntervalError::NonFinite { value: hi });
        }
        if lo > hi {
            return Err(IntervalError::Reversed { lo, hi });
        }
        Ok(Interval {
            lo: OrdF64::new(lo),
            hi: OrdF64::new(hi),
        })
    }

    /// Creates the degenerate point interval `[p, p]`.
    #[inline]
    pub fn point(p: f64) -> Self {
        Interval::new(p, p)
    }

    /// The interval `(-inf, +inf)` (as a closed interval over the extended reals).
    #[inline]
    pub fn all() -> Self {
        Interval {
            lo: OrdF64::NEG_INFINITY,
            hi: OrdF64::INFINITY,
        }
    }

    /// Left endpoint.
    #[inline]
    pub fn lo(self) -> f64 {
        self.lo.get()
    }

    /// Right endpoint.
    #[inline]
    pub fn hi(self) -> f64 {
        self.hi.get()
    }

    /// Left endpoint with total order.
    #[inline]
    pub fn lo_ord(self) -> OrdF64 {
        self.lo
    }

    /// Right endpoint with total order.
    #[inline]
    pub fn hi_ord(self) -> OrdF64 {
        self.hi
    }

    /// Returns true if this is a point interval `[p, p]`.
    #[inline]
    pub fn is_point(self) -> bool {
        self.lo == self.hi
    }

    /// Interval length (`hi - lo`).
    #[inline]
    pub fn length(self) -> f64 {
        self.hi.get() - self.lo.get()
    }

    /// Returns true if the point `p` lies in the interval.
    #[inline]
    pub fn contains_point(self, p: f64) -> bool {
        let p = OrdF64::new(p);
        self.lo <= p && p <= self.hi
    }

    /// Returns true if `other` is contained in `self`.
    #[inline]
    pub fn contains(self, other: Interval) -> bool {
        self.lo <= other.lo && other.hi <= self.hi
    }

    /// Returns true if the two closed intervals intersect.
    #[inline]
    pub fn intersects(self, other: Interval) -> bool {
        self.lo <= other.hi && other.lo <= self.hi
    }

    /// The intersection of the two intervals, if non-empty.
    #[inline]
    pub fn intersection(self, other: Interval) -> Option<Interval> {
        let lo = self.lo.max(other.lo);
        let hi = self.hi.min(other.hi);
        if lo <= hi {
            Some(Interval { lo, hi })
        } else {
            None
        }
    }

    /// Intersection of a non-empty set of intervals (Section 4.1's
    /// intersection predicate).  Returns `None` for an empty input.
    pub fn intersect_all<I: IntoIterator<Item = Interval>>(intervals: I) -> Option<Interval> {
        let mut iter = intervals.into_iter();
        let mut acc = iter.next()?;
        for iv in iter {
            acc = acc.intersection(iv)?;
        }
        Some(acc)
    }

    /// Shifts both endpoints by `delta` (used by the distinct-left-endpoint
    /// transformation of Appendix G.1).
    #[inline]
    pub fn shift(self, delta_lo: f64, delta_hi: f64) -> Interval {
        Interval::new(self.lo.get() + delta_lo, self.hi.get() + delta_hi)
    }
}

impl fmt::Debug for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {}]", self.lo, self.hi)
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {}]", self.lo, self.hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_intervals_behave_like_points() {
        let p = Interval::point(3.0);
        assert!(p.is_point());
        assert_eq!(p.length(), 0.0);
        assert!(p.contains_point(3.0));
        assert!(!p.contains_point(3.0001));
    }

    #[test]
    fn intersection_of_overlapping_intervals() {
        let a = Interval::new(1.0, 4.0);
        let b = Interval::new(3.0, 6.0);
        assert!(a.intersects(b));
        assert_eq!(a.intersection(b), Some(Interval::new(3.0, 4.0)));
    }

    #[test]
    fn intersection_of_touching_intervals_is_a_point() {
        let a = Interval::new(1.0, 3.0);
        let b = Interval::new(3.0, 6.0);
        assert_eq!(a.intersection(b), Some(Interval::point(3.0)));
    }

    #[test]
    fn disjoint_intervals_do_not_intersect() {
        let a = Interval::new(1.0, 2.0);
        let b = Interval::new(2.5, 6.0);
        assert!(!a.intersects(b));
        assert_eq!(a.intersection(b), None);
    }

    #[test]
    fn intersect_all_matches_pairwise_folding() {
        let ivs = vec![
            Interval::new(0.0, 10.0),
            Interval::new(2.0, 8.0),
            Interval::new(5.0, 20.0),
        ];
        assert_eq!(Interval::intersect_all(ivs), Some(Interval::new(5.0, 8.0)));
        let empty = vec![
            Interval::new(0.0, 1.0),
            Interval::new(2.0, 3.0),
            Interval::new(0.0, 9.0),
        ];
        assert_eq!(Interval::intersect_all(empty), None);
        assert_eq!(Interval::intersect_all(Vec::new()), None);
    }

    #[test]
    fn containment() {
        let a = Interval::new(0.0, 10.0);
        let b = Interval::new(2.0, 3.0);
        assert!(a.contains(b));
        assert!(!b.contains(a));
    }

    #[test]
    fn unbounded_interval_contains_everything() {
        let all = Interval::all();
        assert!(all.contains(Interval::new(-1e300, 1e300)));
        assert!(all.intersects(Interval::point(0.0)));
    }

    #[test]
    #[should_panic(expected = "invalid interval")]
    fn reversed_endpoints_are_rejected() {
        let _ = Interval::new(2.0, 1.0);
    }

    #[test]
    fn try_new_accepts_exact_boundaries() {
        // Degenerate point interval: lo == hi is valid.
        assert_eq!(Interval::try_new(3.0, 3.0), Ok(Interval::point(3.0)));
        // Largest/smallest finite endpoints are valid.
        assert!(Interval::try_new(f64::MIN, f64::MAX).is_ok());
        // Negative zero equals positive zero under the total order.
        assert_eq!(Interval::try_new(-0.0, 0.0), Ok(Interval::point(0.0)));
        assert_eq!(Interval::try_new(0.0, -0.0), Ok(Interval::point(0.0)));
    }

    #[test]
    fn try_new_rejects_reversed_endpoints() {
        assert_eq!(
            Interval::try_new(1.0 + f64::EPSILON, 1.0),
            Err(IntervalError::Reversed {
                lo: 1.0 + f64::EPSILON,
                hi: 1.0,
            })
        );
    }

    #[test]
    fn try_new_rejects_non_finite_endpoints() {
        for (lo, hi) in [
            (f64::NEG_INFINITY, 0.0),
            (0.0, f64::INFINITY),
            (f64::NEG_INFINITY, f64::INFINITY),
            (f64::NAN, 0.0),
            (0.0, f64::NAN),
        ] {
            assert!(
                matches!(
                    Interval::try_new(lo, hi),
                    Err(IntervalError::NonFinite { .. })
                ),
                "expected NonFinite for [{lo}, {hi}]"
            );
        }
        // The non-finiteness check must fire before the ordering check, and
        // before NaN can reach `OrdF64::new` (which would panic).
        assert!(matches!(
            Interval::try_new(f64::NAN, f64::NAN),
            Err(IntervalError::NonFinite { .. })
        ));
    }

    #[test]
    fn try_new_agrees_with_new_on_valid_inputs() {
        for (lo, hi) in [(0.0, 1.0), (-5.5, -5.5), (1e300, 1e301)] {
            assert_eq!(Interval::try_new(lo, hi), Ok(Interval::new(lo, hi)));
        }
    }
}
