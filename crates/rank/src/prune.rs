//! Clustering-based redundancy pruning.
//!
//! Overlapping maximal cliques emit families of near-identical rules: same
//! antecedent/consequent *attribute sets*, cluster bounding boxes that
//! overlap interval-by-interval — to a consumer these are one insight
//! stated several times. Following the pruning-by-clustering literature,
//! rules are grouped into redundancy clusters (same attribute-set
//! signature, pairwise-overlapping member bounding boxes) and only the
//! best-ranked representative of each cluster is kept.
//!
//! The pass is greedy over the already-ranked rule list, so which rule
//! represents a cluster is exactly the one the active measure ranks
//! highest — and the output is a deterministic function of the ranked
//! input, preserving byte-identity across worker counts and shards.

use dar_core::ClusterSummary;
use mining::Dar;
use std::collections::HashMap;

/// The rules a pruning pass kept, plus its bookkeeping.
#[derive(Debug)]
pub struct PruneOutcome {
    /// Indices (into the ranked input) of the representatives, in input
    /// order.
    pub kept: Vec<usize>,
    /// Rules dropped as redundant.
    pub pruned: usize,
    /// Redundancy clusters that absorbed at least one duplicate.
    pub clusters: usize,
}

/// One representative: where its set-ordered members sit in the flat
/// member buffer, and the next representative of its signature.
struct Rep {
    /// Input index of the rule.
    rule: usize,
    /// Start of its members (antecedent then consequent, each ordered by
    /// attribute set) in the member buffer.
    start: usize,
    /// Position in `reps` of the next representative with the same
    /// signature, or `usize::MAX`.
    next: usize,
}

/// Whether two same-signature rules are redundant: their set-ordered
/// members (antecedent then consequent) have pairwise-overlapping
/// bounding boxes.
fn redundant(a: &[usize], b: &[usize], clusters: &[ClusterSummary]) -> bool {
    a.iter().zip(b).all(|(&x, &y)| clusters[x].bbox().overlaps(clusters[y].bbox()))
}

/// Appends `members` to `buf` ordered by attribute set, and their sets to
/// `sig`. Clique adjacency guarantees the member sets of one rule side
/// are pairwise distinct, so the ordering is total.
fn push_side(
    members: &[usize],
    clusters: &[ClusterSummary],
    buf: &mut Vec<usize>,
    sig: &mut Vec<usize>,
) {
    let start = buf.len();
    buf.extend_from_slice(members);
    buf[start..].sort_unstable_by_key(|&i| clusters[i].set);
    sig.extend(buf[start..].iter().map(|&i| clusters[i].set));
}

/// Greedy redundancy pruning over a ranked rule list: a rule that is
/// redundant with an earlier (better-ranked) representative is dropped,
/// otherwise it becomes a representative itself.
///
/// Two rules are redundant when they share an attribute-set signature
/// (the sorted sets of each side) and their members, matched by set, have
/// pairwise-overlapping bounding boxes on both sides. Each rule's
/// set-ordered members and signature are computed once into reused
/// buffers; one signature lookup (by slice, allocating only for a
/// signature not seen before) finds the chain of that signature's
/// representatives, which is scanned in place in the order they were
/// kept. A representative's members stay in one flat buffer; a pruned
/// rule's are discarded.
pub fn prune<'a>(
    rules: impl IntoIterator<Item = &'a Dar>,
    clusters: &[ClusterSummary],
) -> PruneOutcome {
    // Signature → (first, last) representative positions in `reps`;
    // signatures partition the rules, so only same-signature pairs are
    // ever compared.
    let mut groups: HashMap<Box<[usize]>, (usize, usize)> = HashMap::new();
    let mut reps: Vec<Rep> = Vec::new();
    let mut members: Vec<usize> = Vec::new();
    let mut sig: Vec<usize> = Vec::new();
    let mut kept = Vec::new();
    let mut absorbed: Vec<u64> = Vec::new();
    let mut pruned = 0;
    for (i, rule) in rules.into_iter().enumerate() {
        // The rule's members go at the end of the buffer; they stay only
        // if it becomes a representative.
        let start = members.len();
        sig.clear();
        push_side(&rule.antecedent, clusters, &mut members, &mut sig);
        sig.push(usize::MAX);
        push_side(&rule.consequent, clusters, &mut members, &mut sig);
        let len = members.len() - start;

        let mut absorber = None;
        match groups.get_mut(sig.as_slice()) {
            Some((first, last)) => {
                let mut r = *first;
                while r != usize::MAX {
                    let rep = &reps[r];
                    if redundant(&members[rep.start..rep.start + len], &members[start..], clusters)
                    {
                        absorber = Some(rep.rule);
                        break;
                    }
                    r = rep.next;
                }
                if absorber.is_none() {
                    reps[*last].next = reps.len();
                    *last = reps.len();
                }
            }
            None => {
                groups.insert(sig.as_slice().into(), (reps.len(), reps.len()));
            }
        }
        match absorber {
            Some(rep) => {
                members.truncate(start);
                pruned += 1;
                if absorbed.len() <= rep / 64 {
                    absorbed.resize(rep / 64 + 1, 0);
                }
                absorbed[rep / 64] |= 1 << (rep % 64);
            }
            None => {
                reps.push(Rep { rule: i, start, next: usize::MAX });
                kept.push(i);
            }
        }
    }
    let clusters = absorbed.iter().map(|w| w.count_ones() as usize).sum();
    PruneOutcome { kept, pruned, clusters }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dar_core::{Acf, AcfLayout, ClusterId};

    /// One single-attribute cluster per set, centered at `x` with ±0.5
    /// spread.
    fn cluster(id: u32, set: usize, x: f64) -> ClusterSummary {
        let layout = AcfLayout::new(vec![1, 1]);
        let mut acf = Acf::empty(&layout, set);
        acf.add_row(&[x - 0.5, x - 0.5]);
        acf.add_row(&[x + 0.5, x + 0.5]);
        ClusterSummary { id: ClusterId(id), set, acf }
    }

    fn rule(ant: Vec<usize>, cons: Vec<usize>, degree: f64) -> Dar {
        Dar { antecedent: ant, consequent: cons, degree, min_cluster_support: 2 }
    }

    #[test]
    fn overlapping_same_signature_rules_collapse_to_the_best() {
        // Clusters 0/2 (set 0) overlap; clusters 1/3 (set 1) overlap.
        let clusters = vec![
            cluster(0, 0, 10.0),
            cluster(1, 1, 20.0),
            cluster(2, 0, 10.4),
            cluster(3, 1, 20.4),
        ];
        let rules = vec![
            rule(vec![0], vec![1], 0.1),
            rule(vec![2], vec![3], 0.5),
            rule(vec![1], vec![0], 0.9),
        ];
        let out = prune(&rules, &clusters);
        // Rule 1 is redundant with rule 0; rule 2 has a different
        // signature (sides swapped) and survives.
        assert_eq!(out.kept, vec![0, 2]);
        assert_eq!(out.pruned, 1);
        assert_eq!(out.clusters, 1);
    }

    #[test]
    fn disjoint_boxes_are_not_redundant() {
        let clusters = vec![cluster(0, 0, 10.0), cluster(1, 1, 20.0), cluster(2, 0, 99.0)];
        let rules = vec![rule(vec![0], vec![1], 0.1), rule(vec![2], vec![1], 0.5)];
        let out = prune(&rules, &clusters);
        assert_eq!(out.kept, vec![0, 1]);
        assert_eq!(out.pruned, 0);
        assert_eq!(out.clusters, 0);
    }
}
