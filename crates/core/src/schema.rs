//! Schemas, attribute kinds, and attribute partitionings.
//!
//! The paper's algorithms operate on "a single partitioning of the attributes
//! into disjoint sets `X_i` over which there is a meaningful distance metric"
//! (Section 4.3). [`Partitioning`] captures exactly that: each set carries the
//! attribute ids it covers and the [`Metric`] used to compare projections onto
//! it. Most often each set is a single attribute; multi-attribute sets (e.g.
//! latitude/longitude) are supported.

use crate::distance::Metric;
use crate::error::CoreError;

/// Index of an attribute within a [`Schema`].
pub type AttrId = usize;

/// Index of an attribute set within a [`Partitioning`].
pub type SetId = usize;

/// The measurement scale of an attribute, following Jain & Dubes' taxonomy
/// cited by the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttributeKind {
    /// Ordered data where the separation between values has meaning
    /// (salaries, ages, sensor readings). The subject of the paper.
    Interval,
    /// Ordered data where only the relative order matters (rankings).
    Ordinal,
    /// Unordered names; values are category codes compared with the
    /// discrete 0/1 metric.
    Nominal,
}

/// A named, typed attribute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attribute {
    /// Human-readable name used when describing clusters and rules.
    pub name: String,
    /// Measurement scale.
    pub kind: AttributeKind,
}

impl Attribute {
    /// Convenience constructor for an interval-scaled attribute.
    pub fn interval(name: impl Into<String>) -> Self {
        Attribute { name: name.into(), kind: AttributeKind::Interval }
    }

    /// Convenience constructor for an ordinal attribute.
    pub fn ordinal(name: impl Into<String>) -> Self {
        Attribute { name: name.into(), kind: AttributeKind::Ordinal }
    }

    /// Convenience constructor for a nominal attribute.
    pub fn nominal(name: impl Into<String>) -> Self {
        Attribute { name: name.into(), kind: AttributeKind::Nominal }
    }
}

/// An ordered list of attributes describing the columns of a [`Relation`].
///
/// [`Relation`]: crate::relation::Relation
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    attributes: Vec<Attribute>,
}

impl Schema {
    /// Builds a schema from a list of attributes.
    pub fn new(attributes: Vec<Attribute>) -> Self {
        Schema { attributes }
    }

    /// A schema of `n` interval attributes named `a0..a{n-1}`; handy in tests
    /// and generators.
    pub fn interval_attrs(n: usize) -> Self {
        Schema::new((0..n).map(|i| Attribute::interval(format!("a{i}"))).collect())
    }

    /// Number of attributes.
    pub fn arity(&self) -> usize {
        self.attributes.len()
    }

    /// The attribute at `id`.
    pub fn attribute(&self, id: AttrId) -> Result<&Attribute, CoreError> {
        self.attributes.get(id).ok_or(CoreError::UnknownAttribute(id))
    }

    /// Iterate over `(id, attribute)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (AttrId, &Attribute)> {
        self.attributes.iter().enumerate()
    }

    /// Finds an attribute id by name.
    pub fn attr_by_name(&self, name: &str) -> Option<AttrId> {
        self.attributes.iter().position(|a| a.name == name)
    }
}

/// One disjoint attribute set `X_i` of a [`Partitioning`], together with the
/// distance metric `δ_{X_i}` that is meaningful over it.
#[derive(Debug, Clone, PartialEq)]
pub struct AttrSet {
    /// Sorted, deduplicated attribute ids.
    pub attrs: Vec<AttrId>,
    /// Distance metric over projections onto this set.
    pub metric: Metric,
}

impl AttrSet {
    /// Number of dimensions in this set (`|X|` in the paper).
    pub fn dims(&self) -> usize {
        self.attrs.len()
    }
}

/// A user-supplied partitioning of a schema's attributes into disjoint sets,
/// each with a meaningful distance metric (Section 4.3 of the paper).
///
/// Attributes not mentioned in any set are simply not mined.
#[derive(Debug, Clone, PartialEq)]
pub struct Partitioning {
    sets: Vec<AttrSet>,
}

impl Partitioning {
    /// Builds a partitioning, validating disjointness and attribute ranges.
    pub fn new(schema: &Schema, sets: Vec<AttrSet>) -> Result<Self, CoreError> {
        let mut seen = vec![false; schema.arity()];
        let mut normalized = Vec::with_capacity(sets.len());
        for mut set in sets {
            if set.attrs.is_empty() {
                return Err(CoreError::InvalidPartitioning("empty attribute set".into()));
            }
            set.attrs.sort_unstable();
            set.attrs.dedup();
            for &a in &set.attrs {
                if a >= schema.arity() {
                    return Err(CoreError::UnknownAttribute(a));
                }
                if seen[a] {
                    return Err(CoreError::InvalidPartitioning(format!(
                        "attribute {a} appears in more than one set"
                    )));
                }
                seen[a] = true;
            }
            normalized.push(set);
        }
        Ok(Partitioning { sets: normalized })
    }

    /// One singleton set per attribute — the most common configuration, and
    /// the one the paper uses for the WBCD experiments ("a separate tree is
    /// maintained for each attribute").
    ///
    /// Interval/ordinal attributes get the `metric` supplied; nominal
    /// attributes get [`Metric::Discrete`].
    pub fn per_attribute(schema: &Schema, metric: Metric) -> Self {
        let sets = schema
            .iter()
            .map(|(id, attr)| AttrSet {
                attrs: vec![id],
                metric: match attr.kind {
                    AttributeKind::Nominal => Metric::Discrete,
                    _ => metric,
                },
            })
            .collect();
        // Per-attribute singleton sets are disjoint by construction.
        Partitioning { sets }
    }

    /// Number of attribute sets.
    pub fn num_sets(&self) -> usize {
        self.sets.len()
    }

    /// The set at index `id`.
    pub fn set(&self, id: SetId) -> &AttrSet {
        &self.sets[id]
    }

    /// All sets in order.
    pub fn sets(&self) -> &[AttrSet] {
        &self.sets
    }

    /// Total number of dimensions across all sets.
    pub fn total_dims(&self) -> usize {
        self.sets.iter().map(AttrSet::dims).sum()
    }

    /// Every mined attribute in flat-row order: set 0's attributes, then
    /// set 1's, and so on. Projecting a tuple onto these gives the flat row
    /// an [`Acf`](crate::Acf) absorbs.
    pub fn row_attrs(&self) -> Vec<AttrId> {
        self.sets.iter().flat_map(|s| s.attrs.iter().copied()).collect()
    }

    /// The set containing attribute `attr`, if any.
    pub fn set_of_attr(&self, attr: AttrId) -> Option<SetId> {
        self.sets.iter().position(|s| s.attrs.contains(&attr))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema3() -> Schema {
        Schema::new(vec![
            Attribute::nominal("job"),
            Attribute::interval("age"),
            Attribute::interval("salary"),
        ])
    }

    #[test]
    fn schema_lookup() {
        let s = schema3();
        assert_eq!(s.arity(), 3);
        assert_eq!(s.attr_by_name("salary"), Some(2));
        assert_eq!(s.attr_by_name("nope"), None);
        assert_eq!(s.attribute(1).unwrap().kind, AttributeKind::Interval);
        assert_eq!(s.attribute(9), Err(CoreError::UnknownAttribute(9)));
    }

    #[test]
    fn per_attribute_partitioning_uses_discrete_for_nominal() {
        let s = schema3();
        let p = Partitioning::per_attribute(&s, Metric::Euclidean);
        assert_eq!(p.num_sets(), 3);
        assert_eq!(p.set(0).metric, Metric::Discrete);
        assert_eq!(p.set(1).metric, Metric::Euclidean);
        assert_eq!(p.total_dims(), 3);
        assert_eq!(p.set_of_attr(2), Some(2));
    }

    #[test]
    fn partitioning_rejects_overlap() {
        let s = schema3();
        let sets = vec![
            AttrSet { attrs: vec![0, 1], metric: Metric::Euclidean },
            AttrSet { attrs: vec![1, 2], metric: Metric::Euclidean },
        ];
        assert!(matches!(Partitioning::new(&s, sets), Err(CoreError::InvalidPartitioning(_))));
    }

    #[test]
    fn partitioning_rejects_unknown_attr_and_empty_set() {
        let s = schema3();
        let sets = vec![AttrSet { attrs: vec![5], metric: Metric::Euclidean }];
        assert_eq!(Partitioning::new(&s, sets).unwrap_err(), CoreError::UnknownAttribute(5));
        let sets = vec![AttrSet { attrs: vec![], metric: Metric::Euclidean }];
        assert!(matches!(Partitioning::new(&s, sets), Err(CoreError::InvalidPartitioning(_))));
    }

    #[test]
    fn partitioning_sorts_and_dedups() {
        let s = schema3();
        let sets = vec![AttrSet { attrs: vec![2, 0, 2], metric: Metric::Manhattan }];
        let p = Partitioning::new(&s, sets).unwrap();
        assert_eq!(p.set(0).attrs, vec![0, 2]);
        // Attribute 1 is not covered; that's allowed.
        assert_eq!(p.set_of_attr(1), None);
    }

    #[test]
    fn subset_partitionings_are_allowed() {
        let s = schema3();
        let sets = vec![AttrSet { attrs: vec![1], metric: Metric::Euclidean }];
        let p = Partitioning::new(&s, sets).unwrap();
        assert_eq!(p.num_sets(), 1);
    }
}
