//! Property test for redundancy pruning: on random ranked rule lists over
//! random 1-D and 2-D cluster bounding boxes, `prune` keeps exactly the
//! representatives a brute-force reading of the definition keeps.
//!
//! The reference restates the definition directly: a rule is redundant
//! with an earlier kept rule when both have the same attribute-set
//! signature on each side and, for every set of the signature, the two
//! members on that set have overlapping bounding boxes in every
//! dimension. The first such kept rule absorbs it.

use dar_core::{Acf, AcfLayout, ClusterId, ClusterSummary};
use dar_rank::prune::prune;
use mining::Dar;
use proptest::prelude::*;
use proptest::TestRng;

/// A uniform draw from `0..n`.
fn below(rng: &mut TestRng, n: usize) -> usize {
    rng.index(n as u128) as usize
}

/// A cluster on `set` whose home bounding box spans `lo..lo + width` in
/// every dimension of the set.
fn cluster(id: usize, set: usize, layout: &AcfLayout, lo: &[f64], width: &[f64]) -> ClusterSummary {
    let mut acf = Acf::empty(layout, set);
    for corner in [0.0, 1.0] {
        let projections: Vec<Vec<f64>> = (0..layout.num_sets())
            .map(|s| {
                if s == set {
                    lo.iter().zip(width).map(|(l, w)| l + corner * w).collect()
                } else {
                    vec![0.0; layout.dims_of(s)]
                }
            })
            .collect();
        acf.add_row(&projections.concat());
    }
    ClusterSummary { id: ClusterId(id as u32), set, acf }
}

/// `k` members with pairwise-distinct sets drawn from `sets`, removing
/// the sets used.
fn side(rng: &mut TestRng, k: usize, sets: &mut Vec<usize>, by_set: &[Vec<usize>]) -> Vec<usize> {
    let mut members: Vec<usize> = (0..k)
        .map(|_| {
            let set = sets.swap_remove(below(rng, sets.len()));
            by_set[set][below(rng, by_set[set].len())]
        })
        .collect();
    members.sort_unstable();
    members
}

/// The sorted attribute sets of one rule side.
fn sets_of(members: &[usize], clusters: &[ClusterSummary]) -> Vec<usize> {
    let mut sets: Vec<usize> = members.iter().map(|&i| clusters[i].set).collect();
    sets.sort_unstable();
    sets
}

fn boxes_overlap(a: &ClusterSummary, b: &ClusterSummary) -> bool {
    let (ia, ib) = (a.bbox().intervals(), b.bbox().intervals());
    ia.len() == ib.len() && ia.zip(ib).all(|(x, y)| x.lo <= y.hi && y.lo <= x.hi)
}

/// Whether every set of a side's signature carries overlapping members.
fn side_overlaps(xs: &[usize], ys: &[usize], clusters: &[ClusterSummary]) -> bool {
    xs.iter().all(|&x| {
        let y = ys.iter().find(|&&y| clusters[y].set == clusters[x].set).expect("same signature");
        boxes_overlap(&clusters[x], &clusters[*y])
    })
}

/// Brute-force pruning: (kept, pruned, absorbing representatives, most
/// representatives sharing one signature).
fn reference(rules: &[Dar], clusters: &[ClusterSummary]) -> (Vec<usize>, usize, usize, usize) {
    let signature = |r: &Dar| (sets_of(&r.antecedent, clusters), sets_of(&r.consequent, clusters));
    let mut kept: Vec<usize> = Vec::new();
    let mut absorbing: Vec<usize> = Vec::new();
    let mut pruned = 0;
    for (i, rule) in rules.iter().enumerate() {
        let absorber = kept.iter().copied().find(|&k| {
            let rep = &rules[k];
            signature(rep) == signature(rule)
                && side_overlaps(&rep.antecedent, &rule.antecedent, clusters)
                && side_overlaps(&rep.consequent, &rule.consequent, clusters)
        });
        match absorber {
            Some(k) => {
                pruned += 1;
                if !absorbing.contains(&k) {
                    absorbing.push(k);
                }
            }
            None => kept.push(i),
        }
    }
    let most = kept
        .iter()
        .map(|&a| kept.iter().filter(|&&b| signature(&rules[a]) == signature(&rules[b])).count())
        .max()
        .unwrap_or(0);
    (kept, pruned, absorbing.len(), most)
}

#[test]
fn prune_matches_the_brute_force_definition() {
    let mut most_reps = 0;
    let mut total_pruned = 0;
    proptest!(|(seed in 0u64..u64::MAX, num_sets in 2usize..5, spread in 2.0f64..40.0)| {
        let mut rng = TestRng::with_seed(seed);
        // Each set is 1-D or 2-D; every set carries a few clusters.
        let dims: Vec<usize> = (0..num_sets).map(|_| 1 + below(&mut rng, 2)).collect();
        let layout = AcfLayout::new(dims.clone());
        let mut clusters = Vec::new();
        let mut by_set: Vec<Vec<usize>> = vec![Vec::new(); num_sets];
        for set in 0..num_sets {
            for _ in 0..2 + below(&mut rng, 6) {
                let lo: Vec<f64> = (0..dims[set]).map(|_| rng.unit() * spread).collect();
                let width: Vec<f64> = (0..dims[set]).map(|_| rng.unit() * 3.0).collect();
                by_set[set].push(clusters.len());
                clusters.push(cluster(clusters.len(), set, &layout, &lo, &width));
            }
        }
        let rules: Vec<Dar> = (0..below(&mut rng, 80))
            .map(|_| {
                let mut sets: Vec<usize> = (0..num_sets).collect();
                let ant_len = 1 + below(&mut rng, (num_sets - 1).min(2));
                let antecedent = side(&mut rng, ant_len, &mut sets, &by_set);
                let cons_len = 1 + below(&mut rng, sets.len().min(2));
                let consequent = side(&mut rng, cons_len, &mut sets, &by_set);
                Dar { antecedent, consequent, degree: rng.unit(), min_cluster_support: 2 }
            })
            .collect();

        let got = prune(&rules, &clusters);
        let (kept, pruned, absorbing, most) = reference(&rules, &clusters);
        prop_assert_eq!(&got.kept, &kept, "kept, seed {}", seed);
        prop_assert_eq!(got.pruned, pruned, "pruned, seed {}", seed);
        prop_assert_eq!(got.clusters, absorbing, "absorbing clusters, seed {}", seed);
        most_reps = most_reps.max(most);
        total_pruned += pruned;
    });
    // The generator must exercise long representative chains (many
    // non-overlapping rules of one signature) as well as absorption.
    assert!(most_reps >= 8, "at most {most_reps} representatives shared a signature");
    assert!(total_pruned > 0, "no rule was ever pruned");
}
