//! Association Clustering Features (Section 6.1, Equation 7).
//!
//! An ACF extends the CF of a cluster `C_X` (kept on its *home* attribute set
//! `X`) with the moment pair `(Σ t_i[Y], Σ t_i[Y]²)` for **every other
//! attribute set** `Y` of the partitioning. With that, the *image* of the
//! cluster on any set — its centroid, diameter, and the inter-cluster
//! distances D1/D2 between images — can be computed from summaries alone.
//! This is the paper's ACF Representativity Theorem (Thm 6.1): the clustering
//! graph of Phase II never rescans the data.
//!
//! ACFs inherit CF additivity set-wise, so the BIRCH tree can merge and split
//! them exactly like CFs.

use crate::bbox::{self, BoxRef};
use crate::cf::CfRef;
use crate::error::CoreError;
use crate::schema::{Partitioning, SetId};
use std::ops::Range;
use std::sync::Arc;

/// The per-ACF charge [`AcfLayout::acf_heap_bytes`] adds for the struct
/// itself. It is the size the ACF had when the charge was calibrated (a
/// home id, a `Vec` of images and a `Vec` of intervals), frozen so the
/// charge does not move with the in-memory representation.
const NOMINAL_ACF_STRUCT_BYTES: usize = 56;

/// The shape of the ACFs for one [`Partitioning`]: how many dimensions each
/// attribute set has, and where each set sits in a flat row. All ACFs in
/// one mining run share a layout; cloning it is a reference-count bump.
///
/// A *flat row* is a tuple's projection onto every set, concatenated in
/// set order: set `s` occupies [`row_range(s)`](Self::row_range).
#[derive(Debug, Clone)]
pub struct AcfLayout {
    /// `starts[s]` is where set `s` begins in a flat row; the final entry
    /// is the total dimensionality.
    starts: Arc<[usize]>,
}

impl PartialEq for AcfLayout {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.starts, &other.starts) || self.starts == other.starts
    }
}

impl Eq for AcfLayout {}

impl AcfLayout {
    /// Derives the layout from a partitioning.
    pub fn from_partitioning(p: &Partitioning) -> Self {
        Self::new(p.sets().iter().map(|s| s.dims()).collect())
    }

    /// Builds a layout from explicit per-set dimensionalities.
    pub fn new(dims: Vec<usize>) -> Self {
        let mut starts = Vec::with_capacity(dims.len() + 1);
        starts.push(0);
        let mut at = 0;
        for d in dims {
            at += d;
            starts.push(at);
        }
        AcfLayout { starts: starts.into() }
    }

    /// Number of attribute sets.
    pub fn num_sets(&self) -> usize {
        self.starts.len() - 1
    }

    /// Dimensionality of set `set`.
    pub fn dims_of(&self, set: SetId) -> usize {
        self.starts[set + 1] - self.starts[set]
    }

    /// Per-set dimensionalities, in set order.
    pub fn dims(&self) -> impl ExactSizeIterator<Item = usize> + '_ {
        self.starts.windows(2).map(|w| w[1] - w[0])
    }

    /// Total dimensions across all sets — the length of a flat row.
    pub fn total_dims(&self) -> usize {
        self.starts[self.starts.len() - 1]
    }

    /// Where set `set` sits in a flat row.
    pub fn row_range(&self, set: SetId) -> Range<usize> {
        self.starts[set]..self.starts[set + 1]
    }

    /// Length of the slab of an ACF homed on `home`: LS and SS for every
    /// dimension, then `lo, hi` for every home dimension.
    fn slab_len(&self, home: SetId) -> usize {
        2 * self.total_dims() + 2 * self.dims_of(home)
    }

    /// The nominal per-ACF charge of the clustering engine's memory budget,
    /// in bytes: per set, 16 bytes per dimension plus two 24-byte vector
    /// headers; the home bounding box at 16 bytes per dimension of the
    /// widest set plus a vector header; and a 56-byte struct.
    ///
    /// This is a budget unit, not a measurement. It describes an ACF with
    /// one heap block per image, which is how ACFs were stored when the
    /// 5 MB cap was calibrated, and it is frozen at that value: the tree
    /// compares it with the cap to decide when to rebuild, so changing it
    /// would change every clustering and every answer. The real heap of
    /// the flat slab is smaller; measure it, don't read it from here.
    pub fn acf_heap_bytes(&self) -> usize {
        let moment_bytes: usize = self.dims().map(|d| 2 * 8 * d + 2 * 24).sum();
        let bbox_bytes = self.dims().max().unwrap_or(0) * 16 + 24;
        moment_bytes + bbox_bytes + NOMINAL_ACF_STRUCT_BYTES
    }
}

/// An association clustering feature: one tuple count shared by every
/// image, each set's moments, and the smallest bounding box on the home
/// set (used to describe clusters to users, Section 7.2).
///
/// The moments and the box live in one contiguous slab — one heap block
/// per ACF, none per image:
///
/// ```text
/// | LS[set 0] SS[set 0] | LS[set 1] SS[set 1] | … | lo hi per home dim |
/// ```
///
/// Set `s`'s moments start at `2 · row_range(s).start`, so a flat row and
/// the slab walk the sets in the same order and [`add_row`](Self::add_row)
/// is one linear pass. Images are borrowed [`CfRef`] views into the slab.
///
/// ```
/// use dar_core::{Acf, AcfLayout};
/// let layout = AcfLayout::new(vec![1, 2]);
/// // Flat rows: set 0's one value, then set 1's two.
/// let mut acf = Acf::from_row(&layout, 0, &[1.0, 10.0, 100.0]);
/// acf.add_row(&[3.0, 20.0, 200.0]);
/// assert_eq!(acf.n(), 2);
/// assert_eq!(acf.image(1).centroid().unwrap(), vec![15.0, 150.0]);
/// assert_eq!(acf.bbox().interval(0).hi, 3.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Acf {
    layout: AcfLayout,
    home: SetId,
    n: u64,
    slab: Box<[f64]>,
}

impl Acf {
    /// An empty ACF clustered on `home`.
    ///
    /// # Panics
    /// Panics if `home` is not a set of `layout`.
    pub fn empty(layout: &AcfLayout, home: SetId) -> Self {
        let mut slab = vec![0.0; layout.slab_len(home)].into_boxed_slice();
        bbox::clear(&mut slab[2 * layout.total_dims()..]);
        Acf { layout: layout.clone(), home, n: 0, slab }
    }

    /// The ACF of a single tuple given as a flat row (see [`AcfLayout`]).
    pub fn from_row(layout: &AcfLayout, home: SetId, row: &[f64]) -> Self {
        let mut acf = Acf::empty(layout, home);
        acf.add_row(row);
        acf
    }

    /// Reassembles an ACF from its raw slab (the deserialization path):
    /// the moments of every set in layout order, then the home box's
    /// `lo, hi` pairs.
    ///
    /// # Errors
    /// Rejects a `home` outside the layout and a slab of the wrong length.
    pub fn from_slab(
        layout: &AcfLayout,
        home: SetId,
        n: u64,
        slab: Vec<f64>,
    ) -> Result<Self, CoreError> {
        if home >= layout.num_sets() {
            return Err(CoreError::LayoutMismatch(format!(
                "home set {home} outside the {} sets of the layout",
                layout.num_sets()
            )));
        }
        if slab.len() != layout.slab_len(home) {
            return Err(CoreError::LayoutMismatch(format!(
                "slab has {} values but home set {home} of this layout needs {}",
                slab.len(),
                layout.slab_len(home)
            )));
        }
        Ok(Acf { layout: layout.clone(), home, n, slab: slab.into_boxed_slice() })
    }

    /// The layout this ACF was built over.
    pub fn layout(&self) -> &AcfLayout {
        &self.layout
    }

    /// The home attribute set (the one this cluster is "defined on").
    pub fn home(&self) -> SetId {
        self.home
    }

    /// Number of tuples summarized (`|C_X|`).
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Whether no tuples have been absorbed.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The CF of the cluster's image on `set` (`C[Y]` in the paper; for
    /// `set == home` this is the clustering CF itself), borrowed from the
    /// slab.
    pub fn image(&self, set: SetId) -> CfRef<'_> {
        let at = 2 * self.layout.starts[set];
        let d = self.layout.dims_of(set);
        CfRef::new(self.n, &self.slab[at..at + d], &self.slab[at + d..at + 2 * d])
    }

    /// The clustering CF on the home set.
    pub fn home_cf(&self) -> CfRef<'_> {
        self.image(self.home)
    }

    /// The LS and SS of every set, in slab order (see [`Acf`]).
    pub fn moments(&self) -> &[f64] {
        &self.slab[..2 * self.layout.total_dims()]
    }

    /// Smallest bounding box of the absorbed points on the home set.
    pub fn bbox(&self) -> BoxRef<'_> {
        BoxRef::new(&self.slab[2 * self.layout.total_dims()..])
    }

    /// Number of attribute sets in the layout.
    pub fn num_sets(&self) -> usize {
        self.layout.num_sets()
    }

    /// Absorbs one tuple, given as a flat row: its projection onto every
    /// set, concatenated in set order (see [`AcfLayout`]).
    pub fn add_row(&mut self, row: &[f64]) {
        let total = self.layout.total_dims();
        debug_assert_eq!(row.len(), total);
        self.n += 1;
        let (moments, bounds) = self.slab.split_at_mut(2 * total);
        if self.layout.dims().all(|d| d == 1) {
            // The paper's per-attribute partitioning: LS and SS alternate
            // dimension by dimension, so one loop over (LS, SS) pairs does
            // the work without slicing the slab per set.
            for (m, &v) in moments.chunks_exact_mut(2).zip(row) {
                m[0] += v;
                m[1] += v * v;
            }
        } else {
            for w in self.layout.starts.windows(2) {
                let (ls, ss) = moments[2 * w[0]..2 * w[1]].split_at_mut(w[1] - w[0]);
                for ((l, s), &v) in ls.iter_mut().zip(ss).zip(&row[w[0]..w[1]]) {
                    *l += v;
                    *s += v * v;
                }
            }
        }
        bbox::extend(bounds, &row[self.layout.row_range(self.home)]);
    }

    /// Rejects an `other` this ACF cannot be combined with.
    fn check_compatible(&self, other: &Acf, verb: &str) -> Result<(), CoreError> {
        if self.home != other.home {
            return Err(CoreError::LayoutMismatch(format!(
                "cannot {verb} ACFs with different home sets ({} vs {})",
                self.home, other.home
            )));
        }
        if self.layout != other.layout {
            return Err(CoreError::LayoutMismatch(format!(
                "cannot {verb} ACFs over different partitionings ({} vs {} sets)",
                self.num_sets(),
                other.num_sets()
            )));
        }
        Ok(())
    }

    /// ACF additivity (extension of the BIRCH Additivity Theorem): merges a
    /// disjoint cluster defined on the same home set.
    pub fn merge(&mut self, other: &Acf) -> Result<(), CoreError> {
        self.check_compatible(other, "merge")?;
        let m = 2 * self.layout.total_dims();
        self.n += other.n;
        let (moments, bounds) = self.slab.split_at_mut(m);
        for (a, b) in moments.iter_mut().zip(&other.slab[..m]) {
            *a += b;
        }
        bbox::merge(bounds, &other.slab[m..]);
        Ok(())
    }

    /// The inverse of [`merge`](Self::merge): removes a disjoint sub-cluster
    /// that was previously folded into this ACF, moment by moment (CF
    /// additivity runs both ways). The bounding box is left untouched — a
    /// bounding box cannot shrink from summaries alone, so subtraction is
    /// exact at the *moment* level (N, ΣY, ΣY², which is everything Phase II
    /// distances read) while the box stays a conservative cover.
    ///
    /// # Errors
    /// Rejects mismatched home sets or partitionings, and an `other` whose
    /// tuple count exceeds this cluster's (it cannot be a sub-cluster).
    pub fn unmerge(&mut self, other: &Acf) -> Result<(), CoreError> {
        self.check_compatible(other, "unmerge")?;
        if self.n < other.n {
            return Err(CoreError::LayoutMismatch(format!(
                "cannot unmerge {} tuples from a cluster of {}",
                other.n, self.n
            )));
        }
        let m = 2 * self.layout.total_dims();
        self.n -= other.n;
        for (a, b) in self.slab[..m].iter_mut().zip(&other.slab[..m]) {
            *a -= b;
        }
        Ok(())
    }

    /// Diameter (RMS average pairwise distance) of the home-set cluster —
    /// the density criterion `d(C_X[X]) ≤ d0^X` of Definition 4.2.
    pub fn diameter(&self) -> f64 {
        self.home_cf().diameter()
    }

    /// Diameter of the cluster's image on an arbitrary set — used by the
    /// Phase II pruning heuristic ("image clusters with large diameters are
    /// unlikely to contribute edges", Section 6.2).
    pub fn diameter_on(&self, set: SetId) -> f64 {
        self.image(set).diameter()
    }

    /// Centroid of the image on `set` (Eq. 4 applied to `C[Y]`).
    pub fn centroid_on(&self, set: SetId) -> Result<Vec<f64>, CoreError> {
        self.image(set).centroid()
    }

    /// D1 (Eq. 5) between this cluster's image and `other`'s image on `set`.
    pub fn d1_on(&self, set: SetId, other: &Acf) -> Result<f64, CoreError> {
        self.image(set).d1(other.image(set))
    }

    /// D2 (Eq. 6, RMS form) between the two clusters' images on `set`.
    pub fn d2_on(&self, set: SetId, other: &Acf) -> Result<f64, CoreError> {
        self.image(set).d2(other.image(set))
    }

    /// D0 (centroid Euclidean) between the two clusters' images on `set`.
    pub fn d0_on(&self, set: SetId, other: &Acf) -> Result<f64, CoreError> {
        self.image(set).d0(other.image(set))
    }

    /// The home-set diameter the merged cluster would have — the threshold
    /// test used by the tree before absorbing a point or entry.
    pub fn merged_home_diameter_sq(&self, other: &Acf) -> f64 {
        self.home_cf().merged_diameter_sq(other.home_cf())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::Metric;
    use crate::schema::{AttrSet, Schema};

    fn layout2() -> AcfLayout {
        // Two sets: set 0 = {attr0} (1-D), set 1 = {attr1, attr2} (2-D).
        let schema = Schema::interval_attrs(3);
        let p = Partitioning::new(
            &schema,
            vec![
                AttrSet { attrs: vec![0], metric: Metric::Euclidean },
                AttrSet { attrs: vec![1, 2], metric: Metric::Euclidean },
            ],
        )
        .unwrap();
        AcfLayout::from_partitioning(&p)
    }

    fn proj(a: f64, b: f64, c: f64) -> [f64; 3] {
        [a, b, c]
    }

    #[test]
    fn layout_shape() {
        let l = layout2();
        assert_eq!(l.num_sets(), 2);
        assert_eq!(l.dims_of(0), 1);
        assert_eq!(l.dims_of(1), 2);
        assert_eq!(l.total_dims(), 3);
        assert_eq!(l.row_range(1), 1..3);
        assert_eq!(l.dims().collect::<Vec<_>>(), vec![1, 2]);
    }

    #[test]
    fn acf_heap_bytes_is_the_frozen_budget_unit() {
        // The memory budget charges this nominal unit per leaf entry, so
        // these values decide when every tree rebuilds. They are the values
        // the unit had when the cap was calibrated; a change here changes
        // every clustering.
        assert_eq!(AcfLayout::new(vec![1; 30]).acf_heap_bytes(), 2016, "WBCD: 30 x 1-D");
        assert_eq!(layout2().acf_heap_bytes(), 256, "mixed 1-D + 2-D");
        assert_eq!(AcfLayout::new(vec![1, 2, 3]).acf_heap_bytes(), 368, "1-D + 2-D + 3-D");
    }

    #[test]
    fn from_slab_validates_and_roundtrips() {
        let l = layout2();
        let mut a = Acf::from_row(&l, 1, &proj(1.0, 2.0, 3.0));
        a.add_row(&proj(4.0, 5.0, 6.0));
        let slab: Vec<f64> = a
            .moments()
            .iter()
            .copied()
            .chain(a.bbox().intervals().flat_map(|iv| [iv.lo, iv.hi]))
            .collect();
        assert_eq!(Acf::from_slab(&l, 1, a.n(), slab.clone()).unwrap(), a);
        assert!(Acf::from_slab(&l, 2, a.n(), slab.clone()).is_err(), "home outside the layout");
        assert!(Acf::from_slab(&l, 0, a.n(), slab).is_err(), "home 0 has a 1-D box");
    }

    #[test]
    fn add_row_updates_all_images_and_bbox() {
        let l = layout2();
        let mut acf = Acf::empty(&l, 0);
        acf.add_row(&proj(1.0, 10.0, 100.0));
        acf.add_row(&proj(3.0, 20.0, 200.0));
        assert_eq!(acf.n(), 2);
        assert_eq!(acf.home(), 0);
        assert_eq!(acf.centroid_on(0).unwrap(), vec![2.0]);
        assert_eq!(acf.centroid_on(1).unwrap(), vec![15.0, 150.0]);
        assert_eq!(acf.bbox().interval(0).lo, 1.0);
        assert_eq!(acf.bbox().interval(0).hi, 3.0);
        // Home diameter of two points 1 and 3 is 2.
        assert!((acf.diameter() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn merge_requires_same_home_and_layout() {
        let l = layout2();
        let a = Acf::from_row(&l, 0, &proj(1.0, 2.0, 3.0));
        let mut b = Acf::from_row(&l, 1, &proj(1.0, 2.0, 3.0));
        assert!(b.merge(&a).is_err());
        let other_layout = AcfLayout::new(vec![1]);
        let mut c = Acf::empty(&other_layout, 0);
        assert!(c.merge(&a).is_err());
    }

    #[test]
    fn merge_is_additive() {
        let l = layout2();
        let mut a = Acf::from_row(&l, 1, &proj(1.0, 0.0, 0.0));
        let b = Acf::from_row(&l, 1, &proj(3.0, 2.0, 2.0));
        a.merge(&b).unwrap();
        assert_eq!(a.n(), 2);
        assert_eq!(a.centroid_on(0).unwrap(), vec![2.0]);
        assert_eq!(a.centroid_on(1).unwrap(), vec![1.0, 1.0]);
        // Home bbox covers both points on set 1.
        assert_eq!(a.bbox().interval(0).hi, 2.0);
        assert_eq!(a.bbox().interval(1).hi, 2.0);
    }

    #[test]
    fn unmerge_inverts_merge_at_the_moment_level() {
        let l = layout2();
        let mut a = Acf::from_row(&l, 0, &proj(1.0, 10.0, 100.0));
        a.add_row(&proj(3.0, 20.0, 200.0));
        let before = a.clone();
        let b = Acf::from_row(&l, 0, &proj(7.0, 30.0, 300.0));
        a.merge(&b).unwrap();
        a.unmerge(&b).unwrap();
        assert_eq!(a.n(), before.n());
        for set in 0..2 {
            assert_eq!(a.image(set).linear_sum(), before.image(set).linear_sum());
            assert_eq!(a.image(set).square_sum(), before.image(set).square_sum());
        }
    }

    #[test]
    fn unmerge_rejects_mismatches_and_oversized_subtrahends() {
        let l = layout2();
        let mut a = Acf::from_row(&l, 0, &proj(1.0, 2.0, 3.0));
        let other_home = Acf::from_row(&l, 1, &proj(1.0, 2.0, 3.0));
        assert!(a.unmerge(&other_home).is_err());
        let other_layout = AcfLayout::new(vec![1]);
        assert!(a.unmerge(&Acf::empty(&other_layout, 0)).is_err());
        let mut big = Acf::from_row(&l, 0, &proj(1.0, 2.0, 3.0));
        big.add_row(&proj(2.0, 3.0, 4.0));
        assert!(a.unmerge(&big).is_err(), "subtrahend larger than the cluster");
    }

    #[test]
    fn image_distances_match_cf_distances() {
        let l = layout2();
        let a = Acf::from_row(&l, 0, &proj(0.0, 0.0, 0.0));
        let b = Acf::from_row(&l, 0, &proj(5.0, 3.0, 4.0));
        assert!((a.d0_on(1, &b).unwrap() - 5.0).abs() < 1e-12);
        assert!((a.d1_on(1, &b).unwrap() - 7.0).abs() < 1e-12);
        assert!((a.d2_on(0, &b).unwrap() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn merged_home_diameter_predicts_merge() {
        let l = layout2();
        let mut a = Acf::from_row(&l, 0, &proj(0.0, 0.0, 0.0));
        let b = Acf::from_row(&l, 0, &proj(4.0, 0.0, 0.0));
        let predicted = a.merged_home_diameter_sq(&b);
        a.merge(&b).unwrap();
        assert!((predicted - a.home_cf().diameter_sq()).abs() < 1e-12);
    }
}
