//! Axis-aligned bounding boxes used to *describe* clusters.
//!
//! Section 7.2: "we have chosen to describe a cluster by its smallest
//! bounding box" — centroids alone were found less meaningful to users.

use crate::interval::Interval;
use std::fmt;

/// The smallest axis-aligned box containing a set of points, borrowed from
/// the bounds an [`Acf`](crate::Acf) keeps at the end of its moment slab:
/// `lo, hi` per dimension of the home attribute set.
///
/// A box that has absorbed no point holds `(+∞, −∞)` on every dimension and
/// reports [`is_empty`](Self::is_empty).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoxRef<'a> {
    bounds: &'a [f64],
}

impl<'a> BoxRef<'a> {
    /// A view over `lo, hi` pairs. `bounds` must have even length.
    pub(crate) fn new(bounds: &'a [f64]) -> Self {
        debug_assert_eq!(bounds.len() % 2, 0);
        BoxRef { bounds }
    }

    /// Number of dimensions.
    pub fn dims(self) -> usize {
        self.bounds.len() / 2
    }

    /// Whether any point has been absorbed yet.
    pub fn is_empty(self) -> bool {
        is_empty(self.bounds)
    }

    /// Per-dimension intervals, in dimension order.
    pub fn intervals(self) -> impl ExactSizeIterator<Item = Interval> + 'a {
        self.bounds.chunks_exact(2).map(|b| Interval { lo: b[0], hi: b[1] })
    }

    /// The interval on dimension `d`.
    pub fn interval(self, d: usize) -> Interval {
        Interval { lo: self.bounds[2 * d], hi: self.bounds[2 * d + 1] }
    }

    /// Whether `point` lies inside the box (closed on all sides).
    pub fn contains(self, point: &[f64]) -> bool {
        !self.is_empty() && self.intervals().zip(point).all(|(iv, &v)| iv.contains(v))
    }

    /// Whether the two boxes have the same dimensionality and overlap on
    /// every dimension.
    pub fn overlaps(self, other: BoxRef<'_>) -> bool {
        self.dims() == other.dims()
            && self.intervals().zip(other.intervals()).all(|(a, b)| a.overlaps(&b))
    }
}

impl fmt::Display for BoxRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return write!(f, "∅");
        }
        for (i, iv) in self.intervals().enumerate() {
            if i > 0 {
                write!(f, "×")?;
            }
            write!(f, "{iv}")?;
        }
        Ok(())
    }
}

/// Resets `bounds` to the empty box: `(+∞, −∞)` on every dimension.
pub(crate) fn clear(bounds: &mut [f64]) {
    for b in bounds.chunks_exact_mut(2) {
        b[0] = f64::INFINITY;
        b[1] = f64::NEG_INFINITY;
    }
}

fn is_empty(bounds: &[f64]) -> bool {
    bounds.len() < 2 || bounds[0] > bounds[1]
}

/// Grows the box in `bounds` to include `point`.
pub(crate) fn extend(bounds: &mut [f64], point: &[f64]) {
    debug_assert_eq!(point.len() * 2, bounds.len());
    for (b, &v) in bounds.chunks_exact_mut(2).zip(point) {
        if v < b[0] {
            b[0] = v;
        }
        if v > b[1] {
            b[1] = v;
        }
    }
}

/// Grows the box in `bounds` to include all of the box in `other`.
pub(crate) fn merge(bounds: &mut [f64], other: &[f64]) {
    debug_assert_eq!(bounds.len(), other.len());
    if is_empty(other) {
        return;
    }
    if is_empty(bounds) {
        bounds.copy_from_slice(other);
        return;
    }
    for (a, b) in bounds.chunks_exact_mut(2).zip(other.chunks_exact(2)) {
        a[0] = a[0].min(b[0]);
        a[1] = a[1].max(b[1]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn empty(dims: usize) -> Vec<f64> {
        let mut b = vec![0.0; 2 * dims];
        clear(&mut b);
        b
    }

    #[test]
    fn empty_contains_nothing() {
        let b = empty(2);
        assert!(BoxRef::new(&b).is_empty());
        assert!(!BoxRef::new(&b).contains(&[0.0, 0.0]));
    }

    #[test]
    fn extend_and_contains() {
        let mut b = empty(2);
        extend(&mut b, &[1.0, 5.0]);
        extend(&mut b, &[3.0, 2.0]);
        let b = BoxRef::new(&b);
        assert!(!b.is_empty());
        assert!(b.contains(&[2.0, 3.0]));
        assert!(b.contains(&[1.0, 2.0]));
        assert!(!b.contains(&[0.0, 3.0]));
        assert_eq!(b.interval(0), Interval::new(1.0, 3.0));
        assert_eq!(b.interval(1), Interval::new(2.0, 5.0));
        assert_eq!(b.intervals().collect::<Vec<_>>(), vec![b.interval(0), b.interval(1)]);
    }

    #[test]
    fn merge_handles_empties() {
        let mut a = empty(1);
        let mut b = empty(1);
        extend(&mut b, &[2.0]);
        merge(&mut a, &b);
        assert_eq!(BoxRef::new(&a).interval(0), Interval::point(2.0));
        let c = empty(1);
        merge(&mut a, &c); // merging an empty box is a no-op
        assert_eq!(BoxRef::new(&a).interval(0), Interval::point(2.0));
    }

    #[test]
    fn merge_takes_hull() {
        let mut a = empty(2);
        extend(&mut a, &[0.0, 0.0]);
        let mut b = empty(2);
        extend(&mut b, &[2.0, -1.0]);
        merge(&mut a, &b);
        let a = BoxRef::new(&a);
        assert_eq!(a.interval(0), Interval::new(0.0, 2.0));
        assert_eq!(a.interval(1), Interval::new(-1.0, 0.0));
    }

    #[test]
    fn overlaps_needs_every_dimension() {
        let (mut a, mut b) = (empty(2), empty(2));
        extend(&mut a, &[0.0, 0.0]);
        extend(&mut a, &[2.0, 2.0]);
        extend(&mut b, &[1.0, 3.0]);
        assert!(!BoxRef::new(&a).overlaps(BoxRef::new(&b)));
        extend(&mut b, &[1.0, 2.0]);
        assert!(BoxRef::new(&a).overlaps(BoxRef::new(&b)));
        assert!(!BoxRef::new(&a).overlaps(BoxRef::new(&b[..2])));
    }

    #[test]
    fn display() {
        let mut b = empty(2);
        extend(&mut b, &[1.0, 2.0]);
        extend(&mut b, &[3.0, 2.0]);
        assert_eq!(BoxRef::new(&b).to_string(), "[1, 3]×[2]");
        assert_eq!(BoxRef::new(&empty(1)).to_string(), "∅");
    }
}
