//! DAR generation from cliques (Section 6.2, Definitions 5.1–5.3).
//!
//! For a pair of cliques `Q1`, `Q2`, each consequent cluster `C_Yj ∈ Q2`
//! gets an association set
//! `assoc(C_Yj) = { C_Xi ∈ Q1 : D(C_Yj[Yj], C_Xi[Yj]) ≤ D0_Yj }`; every
//! non-empty `C_X' ⊆ ∩_j assoc(C_Yj)` with attribute sets disjoint from the
//! consequent's yields the DAR `C_X' ⇒ C_Y'`. Clique membership supplies
//! the mutual-closeness conditions among antecedent clusters and among
//! consequent clusters (the 2nd and 3rd conditions of Dfn 5.3), since all
//! clique members are pairwise adjacent in the clustering graph.

use crate::graph::{ClusterDistance, ClusteringGraph};
use dar_par::ThreadPool;

/// Configuration of rule generation.
#[derive(Debug, Clone, PartialEq)]
pub struct RuleConfig {
    /// The inter-cluster distance `D` (should match the graph's).
    pub metric: ClusterDistance,
    /// Per-set degree-of-association thresholds `D0` — the strength the
    /// consequent's projections must be matched with (Dfn 5.1), on the
    /// consequent set's own scale.
    pub degree_thresholds: Vec<f64>,
    /// Maximum clusters in an antecedent.
    pub max_antecedent: usize,
    /// Maximum clusters in a consequent.
    pub max_consequent: usize,
    /// Stop after this many distinct rules (0 = unbounded).
    pub max_rules: usize,
    /// Hard budget on clique-pair × consequent-subset combinations
    /// examined (0 = unbounded). "This process is repeated for all pairs
    /// of cliques" is quadratic in the clique count; on degenerate graphs
    /// with very many cliques this cap keeps Phase II bounded.
    pub max_pair_work: u64,
}

impl Default for RuleConfig {
    fn default() -> Self {
        RuleConfig {
            metric: ClusterDistance::D2,
            degree_thresholds: Vec::new(),
            max_antecedent: 3,
            max_consequent: 2,
            max_rules: 100_000,
            max_pair_work: 10_000_000,
        }
    }
}

/// A distance-based association rule over graph nodes.
#[derive(Debug, Clone, PartialEq)]
pub struct Dar {
    /// Antecedent cluster indices (into the graph's cluster slice), sorted.
    pub antecedent: Vec<usize>,
    /// Consequent cluster indices, sorted.
    pub consequent: Vec<usize>,
    /// Normalized degree of association: the worst (largest)
    /// `D(C_Yj[Yj], C_Xi[Yj]) / D0_Yj` over all antecedent–consequent
    /// pairs. Always ≤ 1 for emitted rules; lower is stronger.
    pub degree: f64,
    /// Smallest member-cluster support — a lower-bound proxy for how much
    /// data backs the rule (exact rule frequency needs the optional rescan,
    /// Section 6.2).
    pub min_cluster_support: u64,
}

/// Generates all DARs from the cliques of a clustering graph.
///
/// `cliques` is the output of
/// [`maximal_cliques`](crate::clique::maximal_cliques) over the same graph.
/// Returns rules sorted by (degree, antecedent, consequent); duplicates
/// arising from overlapping cliques are emitted once.
pub fn generate_dars(
    graph: &ClusteringGraph,
    cliques: &[Vec<usize>],
    config: &RuleConfig,
) -> Vec<Dar> {
    generate_dars_capped(graph, cliques, config).0
}

/// Like [`generate_dars`], additionally reporting whether the
/// `max_rules` / `max_pair_work` budgets truncated the enumeration.
pub fn generate_dars_capped(
    graph: &ClusteringGraph,
    cliques: &[Vec<usize>],
    config: &RuleConfig,
) -> (Vec<Dar>, bool) {
    generate_dars_capped_pooled(graph, cliques, config, &ThreadPool::serial())
}

/// [`generate_dars_capped`] parallelized over consequent cliques on the
/// `dar-par` pool. Output is byte-identical to the serial path at every
/// worker count (the serial entry point *is* this function with a serial
/// pool — there is no twin implementation to drift):
///
/// - The triple count per `Q2` (`|consequent subsets| × |cliques|`) is
///   data-independent, so the serial `max_pair_work` cutoff is reproduced
///   exactly from precomputed prefix offsets: task `i` examines at most
///   `max_pair_work − offsetᵢ` triples.
/// - Each task emits its candidates in serial enumeration order into a
///   task-local [`RuleSet`] (keep-first dedup); a `Dar`'s fields are fully
///   determined by its `(antecedent, consequent)` key, so dropping later
///   duplicates never changes a value.
/// - A sequential merge in `Q2` order moves each task's rules into one
///   global [`RuleSet`], re-applying the dedup and the `max_rules` cutoff
///   at exactly the rule where the serial loop stops: the answer is the
///   first `max_rules` unique rules in task order, then sorted.
///
/// Nothing is allocated per candidate: the antecedent subsets of a triple
/// are walked in one reused buffer and looked up by slice, so a rule costs
/// its two member vectors when it is new and nothing when it is not.
pub fn generate_dars_capped_pooled(
    graph: &ClusteringGraph,
    cliques: &[Vec<usize>],
    config: &RuleConfig,
    pool: &ThreadPool,
) -> (Vec<Dar>, bool) {
    // Consequent subsets of each Q2, enumerated once; antecedents come
    // from every clique Q1 (including Q2 itself).
    let consequents: Vec<Vec<Vec<usize>>> =
        cliques.iter().map(|q2| subsets_up_to(q2, config.max_consequent)).collect();
    let mut offsets: Vec<u64> = Vec::with_capacity(cliques.len());
    let mut total_work: u64 = 0;
    for cons in &consequents {
        offsets.push(total_work);
        total_work =
            total_work.saturating_add((cons.len() as u64).saturating_mul(cliques.len() as u64));
    }
    let mut truncated = config.max_pair_work != 0 && total_work > config.max_pair_work;

    let tasks = pool.map_indexed("rule_gen", cliques.len(), 1, |i| {
        let budget = if config.max_pair_work == 0 {
            u64::MAX
        } else {
            config.max_pair_work.saturating_sub(offsets[i])
        };
        q2_candidates(graph, cliques, &consequents[i], config, budget)
    });

    let mut out = RuleSet::new();
    'merge: for task in tasks {
        for dar in task {
            if !out.insert(dar) {
                continue;
            }
            if config.max_rules != 0 && out.len() >= config.max_rules {
                truncated = true;
                break 'merge;
            }
        }
    }
    let mut out = out.into_rules();
    sort_rules(&mut out);
    (out, truncated)
}

/// One rule-generation task: every `(Q1, consequent subset)` triple for a
/// fixed `Q2`, in serial enumeration order, stopping after `budget`
/// triples. The task-local dedup only drops duplicates the global merge
/// would drop anyway (keep-first order is the same).
fn q2_candidates(
    graph: &ClusteringGraph,
    cliques: &[Vec<usize>],
    consequents: &[Vec<usize>],
    config: &RuleConfig,
    budget: u64,
) -> Vec<Dar> {
    let mut out = RuleSet::new();
    let mut remaining = budget;
    'q1s: for q1 in cliques {
        for cons in consequents {
            if remaining == 0 {
                break 'q1s;
            }
            remaining -= 1;
            emit_pair(graph, q1, cons, config, &mut out);
        }
    }
    out.into_rules()
}

/// Appends the candidate rules of one clique pair `(Q1, Q2)`, given `Q2`'s
/// consequent subsets, to `out` in enumeration order, skipping rules
/// already in it. This is the sampling unit of the anytime mode in
/// `dar-rank`: the caller owns the set across pairs and the final
/// [`sort_rules`].
pub fn pair_candidates(
    graph: &ClusteringGraph,
    q1: &[usize],
    consequents: &[Vec<usize>],
    config: &RuleConfig,
    out: &mut RuleSet,
) {
    for cons in consequents {
        emit_pair(graph, q1, cons, config, out);
    }
}

/// All candidate consequent subsets of one clique, for use with
/// [`pair_candidates`].
pub fn consequent_subsets(clique: &[usize], max_consequent: usize) -> Vec<Vec<usize>> {
    subsets_up_to(clique, max_consequent)
}

/// Appends the rules of one `(Q1, consequent subset)` triple to `out`,
/// skipping keys already in it.
fn emit_pair(
    graph: &ClusteringGraph,
    q1: &[usize],
    cons: &[usize],
    config: &RuleConfig,
    out: &mut RuleSet,
) {
    let clusters = graph.clusters();
    // assoc(C_Yj) for each consequent member, intersected.
    let mut candidates = std::mem::take(&mut out.candidates);
    candidates.clear();
    candidates.extend(q1.iter().copied().filter(|&x| {
        !cons.contains(&x)
            && cons.iter().all(|&y| {
                if clusters[x].set == clusters[y].set {
                    return false;
                }
                let yset = clusters[y].set;
                let d = config
                    .metric
                    .between(&clusters[y].acf, &clusters[x].acf, yset)
                    .expect("graph clusters are non-empty");
                d <= config.degree_thresholds[yset]
            })
    }));
    candidates.sort_unstable();
    candidates.dedup();
    // Antecedent sets must also be pairwise disjoint with each other;
    // clique membership of Q1 guarantees distinct sets, but `candidates`
    // may be a subset of a clique — still pairwise adjacent, hence
    // distinct.
    let mut subset = std::mem::take(&mut out.subset);
    subset.clear();
    for_each_subset(&candidates, config.max_antecedent, &mut subset, &mut |ant| {
        if out.contains(ant, cons) {
            return;
        }
        let degree = rule_degree(graph, ant, cons, config);
        let min_cluster_support =
            ant.iter().chain(cons).map(|&i| clusters[i].support()).min().unwrap_or(0);
        out.insert(Dar {
            antecedent: ant.to_vec(),
            consequent: cons.to_vec(),
            degree,
            min_cluster_support,
        });
    });
    out.candidates = candidates;
    out.subset = subset;
}

/// Rules in first-seen order, deduplicated by identity
/// `(antecedent, consequent)`.
///
/// The dedup key is the flat sequence `(antecedent, usize::MAX,
/// consequent)`, hashed in place: an open-addressing table holds indices
/// into the rule list, and a probe compares the candidate slices against
/// the stored rule's own member vectors. Neither a lookup nor an insert
/// allocates a key, so a new rule costs exactly its two member vectors.
/// The set also carries the enumeration's reusable working buffers.
#[derive(Debug, Default)]
pub struct RuleSet {
    rules: Vec<Dar>,
    /// `hashes[i]` is the key hash of `rules[i]`, kept for regrowth.
    hashes: Vec<u64>,
    /// Rule index + 1 per slot (0 = empty); a power of two in length, at
    /// most half full.
    slots: Vec<u32>,
    /// The intersected `assoc` set of the current triple.
    candidates: Vec<usize>,
    /// The antecedent subset being walked.
    subset: Vec<usize>,
}

impl RuleSet {
    /// An empty set.
    pub fn new() -> RuleSet {
        RuleSet::default()
    }

    /// Number of distinct rules held.
    pub(crate) fn len(&self) -> usize {
        self.rules.len()
    }

    /// Whether a rule `antecedent ⇒ consequent` is held.
    pub(crate) fn contains(&self, antecedent: &[usize], consequent: &[usize]) -> bool {
        !self.slots.is_empty()
            && self.probe(key_hash(antecedent, consequent), antecedent, consequent).is_ok()
    }

    /// Adds `dar` unless a rule with its identity is already held; returns
    /// whether it was added.
    pub(crate) fn insert(&mut self, dar: Dar) -> bool {
        let hash = key_hash(&dar.antecedent, &dar.consequent);
        if (self.rules.len() + 1) * 2 > self.slots.len() {
            self.grow();
        }
        match self.probe(hash, &dar.antecedent, &dar.consequent) {
            Ok(_) => false,
            Err(slot) => {
                self.rules.push(dar);
                self.hashes.push(hash);
                self.slots[slot] = u32::try_from(self.rules.len()).expect("fewer than 2³² rules");
                true
            }
        }
    }

    /// The rules, in first-seen order.
    pub fn into_rules(self) -> Vec<Dar> {
        self.rules
    }

    /// `Ok(rule index)` of the rule with this key, or `Err(slot)` of the
    /// empty slot where it belongs.
    fn probe(&self, hash: u64, antecedent: &[usize], consequent: &[usize]) -> Result<usize, usize> {
        let mask = self.slots.len() - 1;
        let mut slot = (hash >> 32) as usize & mask;
        loop {
            let Some(i) = (self.slots[slot] as usize).checked_sub(1) else {
                return Err(slot);
            };
            let rule = &self.rules[i];
            if self.hashes[i] == hash
                && rule.antecedent == antecedent
                && rule.consequent == consequent
            {
                return Ok(i);
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Doubles the table and re-places every rule.
    fn grow(&mut self) {
        let len = (self.slots.len() * 2).max(16);
        self.slots.clear();
        self.slots.resize(len, 0);
        let mask = len - 1;
        for (i, &hash) in self.hashes.iter().enumerate() {
            let mut slot = (hash >> 32) as usize & mask;
            while self.slots[slot] != 0 {
                slot = (slot + 1) & mask;
            }
            self.slots[slot] = (i + 1) as u32;
        }
    }
}

/// Hash of the flat key `(antecedent, usize::MAX, consequent)`. The keys
/// are cluster indices the engine assigns, not input from outside, so a
/// fixed multiplicative hash is enough.
fn key_hash(antecedent: &[usize], consequent: &[usize]) -> u64 {
    antecedent
        .iter()
        .chain(&[usize::MAX])
        .chain(consequent)
        .fold(0, |h: u64, &x| (h.rotate_left(5) ^ x as u64).wrapping_mul(0x517c_c1b7_2722_0a95))
}

/// The canonical rule order: ascending degree, then rule identity. Every
/// artifact the engine serves is sorted this way before ranking, so the
/// output is independent of enumeration (and worker) order.
pub fn sort_rules(rules: &mut [Dar]) {
    rules.sort_by(|a, b| {
        a.degree
            .total_cmp(&b.degree)
            .then_with(|| a.antecedent.cmp(&b.antecedent))
            .then_with(|| a.consequent.cmp(&b.consequent))
    });
}

/// Normalized degree of a candidate rule: the worst pairwise
/// antecedent→consequent association relative to the per-set thresholds.
fn rule_degree(graph: &ClusteringGraph, ant: &[usize], cons: &[usize], config: &RuleConfig) -> f64 {
    let clusters = graph.clusters();
    let mut worst = 0.0f64;
    for &y in cons {
        let yset = clusters[y].set;
        let d0 = config.degree_thresholds[yset];
        for &x in ant {
            let d = config
                .metric
                .between(&clusters[y].acf, &clusters[x].acf, yset)
                .expect("graph clusters are non-empty");
            worst = worst.max(if d0 > 0.0 { d / d0 } else { f64::INFINITY });
        }
    }
    worst
}

/// All non-empty subsets of `items` with at most `max_len` elements, each
/// sorted ascending, in [`for_each_subset`] order. Enumerates combinations
/// directly (`Σ_k C(n,k)`), so large cliques with small arity caps stay
/// cheap.
fn subsets_up_to(items: &[usize], max_len: usize) -> Vec<Vec<usize>> {
    let mut sorted: Vec<usize> = items.to_vec();
    sorted.sort_unstable();
    let mut out = Vec::new();
    for_each_subset(&sorted, max_len, &mut Vec::with_capacity(max_len), &mut |s| {
        out.push(s.to_vec())
    });
    out
}

/// Calls `visit` on every non-empty subset of the ascending `sorted` with
/// at most `max_len` elements: depth first, each subset before its
/// extensions, so subsets arrive in lexicographic order. `current` is the
/// one buffer every subset is built in.
fn for_each_subset(
    sorted: &[usize],
    max_len: usize,
    current: &mut Vec<usize>,
    visit: &mut impl FnMut(&[usize]),
) {
    if current.len() == max_len {
        return;
    }
    for (i, &item) in sorted.iter().enumerate() {
        current.push(item);
        visit(current);
        for_each_subset(&sorted[i + 1..], max_len, current, visit);
        current.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clique::maximal_cliques;
    use crate::graph::GraphConfig;
    use dar_core::{Acf, AcfLayout, ClusterId, ClusterSummary};
    use proptest::prelude::*;
    use proptest::TestRng;

    /// Three attribute sets; clusters built from the *same* underlying
    /// tuples so that co-located clusters have coincident images.
    /// Tuples: 10 rows at (age≈44, dep≈3, claims≈12k).
    fn co_located_clusters() -> Vec<ClusterSummary> {
        let layout = AcfLayout::new(vec![1, 1, 1]);
        let mut acfs: Vec<Acf> = (0..3).map(|set| Acf::empty(&layout, set)).collect();
        for k in 0..10 {
            let jitter = 0.05 * k as f64;
            let projections = [44.0 + jitter, 3.0 + jitter * 0.1, 12_000.0 + jitter * 10.0];
            for acf in &mut acfs {
                acf.add_row(&projections);
            }
        }
        acfs.into_iter()
            .enumerate()
            .map(|(i, acf)| ClusterSummary { id: ClusterId(i as u32), set: i, acf })
            .collect()
    }

    fn mine(clusters: Vec<ClusterSummary>, d0: f64, degree: f64) -> (ClusteringGraph, Vec<Dar>) {
        let num_sets = 3;
        let gcfg = GraphConfig {
            metric: ClusterDistance::D2,
            density_thresholds: vec![d0; num_sets],
            prune_poor_density: false,
        };
        let graph = ClusteringGraph::build(clusters, &gcfg);
        let (cliques, _) = maximal_cliques(graph.adjacency(), 0);
        let rcfg = RuleConfig {
            metric: ClusterDistance::D2,
            degree_thresholds: vec![degree; num_sets],
            max_antecedent: 2,
            max_consequent: 2,
            max_rules: 0,
            max_pair_work: 0,
        };
        let rules = generate_dars(&graph, &cliques, &rcfg);
        (graph, rules)
    }

    #[test]
    fn co_located_clusters_yield_rules_of_all_arities() {
        let (graph, rules) = mine(co_located_clusters(), 5.0, 5.0);
        assert_eq!(graph.edges, 3, "triangle over the three sets");
        assert!(!rules.is_empty());
        // 1:1 rules both directions.
        assert!(rules.iter().any(|r| r.antecedent == vec![0] && r.consequent == vec![2]));
        assert!(rules.iter().any(|r| r.antecedent == vec![2] && r.consequent == vec![0]));
        // N:1 rule {age, dep} ⇒ claims.
        assert!(rules.iter().any(|r| r.antecedent == vec![0, 1] && r.consequent == vec![2]));
        // 1:N rule age ⇒ {dep, claims}.
        assert!(rules.iter().any(|r| r.antecedent == vec![0] && r.consequent == vec![1, 2]));
        // All degrees are within threshold and normalized.
        for r in &rules {
            assert!(r.degree <= 1.0 + 1e-9, "{r:?}");
            assert_eq!(r.min_cluster_support, 10);
        }
        // No duplicates.
        let mut keys: Vec<_> =
            rules.iter().map(|r| (r.antecedent.clone(), r.consequent.clone())).collect();
        let before = keys.len();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), before);
    }

    #[test]
    fn degree_threshold_gates_rules() {
        // With a tiny degree threshold nothing associates.
        let (_, rules) = mine(co_located_clusters(), 5.0, 1e-6);
        assert!(rules.is_empty());
    }

    #[test]
    fn arity_caps_are_respected() {
        let layoutless = co_located_clusters();
        let gcfg = GraphConfig {
            metric: ClusterDistance::D2,
            density_thresholds: vec![5.0; 3],
            prune_poor_density: false,
        };
        let graph = ClusteringGraph::build(layoutless, &gcfg);
        let (cliques, _) = maximal_cliques(graph.adjacency(), 0);
        let rcfg = RuleConfig {
            metric: ClusterDistance::D2,
            degree_thresholds: vec![5.0; 3],
            max_antecedent: 1,
            max_consequent: 1,
            max_rules: 0,
            max_pair_work: 0,
        };
        let rules = generate_dars(&graph, &cliques, &rcfg);
        assert!(rules.iter().all(|r| r.antecedent.len() == 1 && r.consequent.len() == 1));
        // 3 clusters × 2 directed pairs each = 6 1:1 rules.
        assert_eq!(rules.len(), 6);
    }

    #[test]
    fn max_rules_truncates() {
        let (graph, _) = mine(co_located_clusters(), 5.0, 5.0);
        let (cliques, _) = maximal_cliques(graph.adjacency(), 0);
        let rcfg = RuleConfig {
            metric: ClusterDistance::D2,
            degree_thresholds: vec![5.0; 3],
            max_antecedent: 2,
            max_consequent: 2,
            max_rules: 3,
            max_pair_work: 0,
        };
        let (rules, truncated) = generate_dars_capped(&graph, &cliques, &rcfg);
        assert_eq!(rules.len(), 3);
        assert!(truncated);
    }

    /// Several co-located groups far apart from each other: each group
    /// forms its own triangle in the clustering graph, so the clique list
    /// has one entry per group and the pooled rule generator gets real
    /// multi-task fan-out.
    fn multi_group_clusters(groups: usize) -> Vec<ClusterSummary> {
        let layout = AcfLayout::new(vec![1, 1, 1]);
        let mut out = Vec::new();
        for g in 0..groups {
            let base = 1_000.0 * g as f64;
            let mut acfs: Vec<Acf> = (0..3).map(|set| Acf::empty(&layout, set)).collect();
            for k in 0..10 {
                let jitter = 0.05 * k as f64;
                let projections =
                    [base + 44.0 + jitter, base + 3.0 + jitter * 0.1, base + 120.0 + jitter * 10.0];
                for acf in &mut acfs {
                    acf.add_row(&projections);
                }
            }
            out.extend(acfs.into_iter().enumerate().map(|(i, acf)| ClusterSummary {
                id: ClusterId((g * 3 + i) as u32),
                set: i,
                acf,
            }));
        }
        out
    }

    #[test]
    fn pooled_rule_generation_is_byte_identical_at_every_worker_count() {
        let gcfg = GraphConfig {
            metric: ClusterDistance::D2,
            density_thresholds: vec![55.0; 3],
            prune_poor_density: false,
        };
        let graph = ClusteringGraph::build(multi_group_clusters(4), &gcfg);
        let (cliques, _) = maximal_cliques(graph.adjacency(), 0);
        assert!(cliques.len() >= 4, "want one clique per group, got {}", cliques.len());
        let base = RuleConfig {
            metric: ClusterDistance::D2,
            degree_thresholds: vec![55.0; 3],
            max_antecedent: 2,
            max_consequent: 2,
            max_rules: 0,
            max_pair_work: 0,
        };
        // Uncapped, rules-capped, work-capped, and both caps at once: the
        // pooled path must reproduce the serial truncation point exactly.
        let configs = [
            base.clone(),
            RuleConfig { max_rules: 5, ..base.clone() },
            RuleConfig { max_pair_work: 3, ..base.clone() },
            RuleConfig { max_rules: 4, max_pair_work: 7, ..base.clone() },
        ];
        for config in &configs {
            let serial = generate_dars_capped(&graph, &cliques, config);
            for workers in [1usize, 2, 4, 8] {
                let pool = ThreadPool::new(workers);
                let pooled = generate_dars_capped_pooled(&graph, &cliques, config, &pool);
                assert_eq!(serial, pooled, "workers={workers} config={config:?}");
            }
        }
    }

    #[test]
    fn pair_candidates_cover_the_uncapped_enumeration() {
        // Union of per-pair candidates (with cross-pair dedup) equals the
        // full generator's output — the invariant the anytime sampler
        // relies on for full-budget convergence.
        let gcfg = GraphConfig {
            metric: ClusterDistance::D2,
            density_thresholds: vec![55.0; 3],
            prune_poor_density: false,
        };
        let graph = ClusteringGraph::build(multi_group_clusters(3), &gcfg);
        let (cliques, _) = maximal_cliques(graph.adjacency(), 0);
        let config = RuleConfig {
            metric: ClusterDistance::D2,
            degree_thresholds: vec![55.0; 3],
            max_antecedent: 2,
            max_consequent: 2,
            max_rules: 0,
            max_pair_work: 0,
        };
        let exact = generate_dars(&graph, &cliques, &config);
        let mut sampled = RuleSet::new();
        for q2 in &cliques {
            let consequents = consequent_subsets(q2, config.max_consequent);
            for q1 in &cliques {
                pair_candidates(&graph, q1, &consequents, &config, &mut sampled);
            }
        }
        let mut sampled = sampled.into_rules();
        sort_rules(&mut sampled);
        assert_eq!(exact, sampled);
    }

    #[test]
    fn subsets_enumeration() {
        let s = subsets_up_to(&[4, 7, 9], 2);
        assert_eq!(s.len(), 6); // 3 singletons + 3 pairs
        assert!(s.contains(&vec![4, 9]));
        assert!(subsets_up_to(&[], 2).is_empty());
        assert!(subsets_up_to(&[1], 0).is_empty());
    }

    #[test]
    fn subset_walk_visits_in_subsets_up_to_order() {
        proptest!(|(items in prop::collection::vec(0usize..40, 0..9), max_len in 0usize..5)| {
            let mut distinct = items.clone();
            distinct.sort_unstable();
            distinct.dedup();
            // Brute force: every subset by bitmask, kept if small enough,
            // in lexicographic order (a prefix before its extensions).
            let mut expected: Vec<Vec<usize>> = (1u32..1 << distinct.len())
                .map(|mask| {
                    (0..distinct.len()).filter(|i| mask >> i & 1 == 1).map(|i| distinct[i]).collect()
                })
                .filter(|s: &Vec<usize>| s.len() <= max_len)
                .collect();
            expected.sort();

            let mut walked = Vec::new();
            for_each_subset(&distinct, max_len, &mut Vec::new(), &mut |s| walked.push(s.to_vec()));
            prop_assert_eq!(&walked, &expected);
            let reversed: Vec<usize> = distinct.iter().rev().copied().collect();
            prop_assert_eq!(&subsets_up_to(&reversed, max_len), &expected);
        });
    }

    /// `count` clusters over `num_sets` 1-D sets, each ten rows around a
    /// random centre per set, so clusters with close centres associate.
    fn random_clusters(rng: &mut TestRng, num_sets: usize, count: usize) -> Vec<ClusterSummary> {
        let layout = AcfLayout::new(vec![1; num_sets]);
        (0..count)
            .map(|id| {
                let set = rng.index(num_sets as u128) as usize;
                let centre: Vec<f64> = (0..num_sets).map(|_| rng.unit() * 12.0).collect();
                let mut acf = Acf::empty(&layout, set);
                for k in 0..10 {
                    let jitter = 0.05 * k as f64;
                    let projections: Vec<f64> = centre.iter().map(|c| c + jitter).collect();
                    acf.add_row(&projections);
                }
                ClusterSummary { id: ClusterId(id as u32), set, acf }
            })
            .collect()
    }

    #[test]
    fn pooled_generation_matches_one_worker_on_random_graphs() {
        let (one, four) = (ThreadPool::new(1), ThreadPool::new(4));
        let mut rules_truncated = 0;
        proptest!(|(
            seed in 0u64..u64::MAX,
            (num_sets, count) in (2usize..5, 4usize..28),
            (d0, degree) in (1.0f64..8.0, 1.0f64..8.0),
            (max_rules, max_pair_work) in (0usize..40, 0u64..300),
        )| {
            let mut rng = TestRng::with_seed(seed);
            let gcfg = GraphConfig {
                metric: ClusterDistance::D2,
                density_thresholds: vec![d0; num_sets],
                prune_poor_density: false,
            };
            let graph = ClusteringGraph::build(random_clusters(&mut rng, num_sets, count), &gcfg);
            let (cliques, _) = maximal_cliques(graph.adjacency(), 0);
            let config = RuleConfig {
                metric: ClusterDistance::D2,
                degree_thresholds: vec![degree; num_sets],
                max_antecedent: 1 + rng.index(3) as usize,
                max_consequent: 1 + rng.index(2) as usize,
                // Half the cases uncapped, so both sides of each cap run.
                max_rules: if max_rules % 2 == 0 { 0 } else { max_rules },
                max_pair_work: if max_pair_work % 2 == 0 { 0 } else { max_pair_work },
            };
            let serial = generate_dars_capped_pooled(&graph, &cliques, &config, &one);
            let pooled = generate_dars_capped_pooled(&graph, &cliques, &config, &four);
            prop_assert_eq!(&serial, &pooled, "seed {} config {:?}", seed, config);
            if config.max_rules != 0 && serial.0.len() == config.max_rules && serial.1 {
                rules_truncated += 1;
            }
        });
        assert!(rules_truncated >= 5, "max_rules truncated only {rules_truncated} cases");
    }

    #[test]
    fn output_sorted_by_degree() {
        let (_, rules) = mine(co_located_clusters(), 5.0, 5.0);
        for w in rules.windows(2) {
            assert!(w[0].degree <= w[1].degree);
        }
    }
}
