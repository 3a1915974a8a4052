//! Anytime rule mining: sample clique pairs under a wall-clock budget.
//!
//! Rule generation is quadratic in the clique count; on degenerate graphs
//! a caller with a latency budget would rather have *most* of the answer
//! now than all of it late. Following the interval-pattern-sampling
//! literature, the sampler walks the clique-pair space in a fixed
//! low-discrepancy order (a golden-ratio stride, coprime with the pair
//! count, so early prefixes spread across the space instead of dwelling on
//! one consequent clique) and stops at the budget, reporting the exact
//! fraction of pairs it examined.
//!
//! The honesty contract mirrors `--allow-partial`: which pairs are
//! examined for a given coverage is deterministic, the answer is sorted in
//! canonical rule order, and the caller is told `coverage < 1.0` whenever
//! the enumeration was cut short — never a silently-partial answer. With
//! enough budget the sampler visits every pair and converges to the exact
//! rule set. In anytime mode the wall-clock budget *replaces*
//! `max_pair_work` as the work bound; `max_rules` still caps the final
//! (sorted) answer.

use crate::metrics::metrics;
use mining::{consequent_subsets, pair_candidates, sort_rules, ClusterDistance, Dar};
use mining::{Phase2Artifacts, RuleQuery, RuleSet};
use std::time::{Duration, Instant};

/// The result of one budgeted mining pass.
#[derive(Debug, Clone, PartialEq)]
pub struct AnytimeOutcome {
    /// The sampled rules, in canonical `(degree, identity)` order.
    pub rules: Vec<Dar>,
    /// Whether the answer is incomplete (budget cut the walk short, or
    /// `max_rules` truncated the sorted answer).
    pub truncated: bool,
    /// Fraction of clique pairs examined, in `(0, 1]`. `1.0` means every
    /// pair was seen and `rules` equals the exact uncapped answer.
    pub coverage: f64,
}

/// Mines rules from cached Phase II artifacts under a wall-clock budget.
///
/// At least one clique pair is always examined, so the coverage fraction
/// is strictly positive even under a zero budget.
pub fn mine_budgeted(
    artifacts: &Phase2Artifacts,
    metric: ClusterDistance,
    query: &RuleQuery,
    budget: Duration,
) -> AnytimeOutcome {
    let m = metrics();
    m.anytime_queries.inc();
    let config = query.rule_config(metric, &artifacts.density_thresholds);
    let cliques = &artifacts.cliques;
    let len = cliques.len();
    let total = len * len;
    if total == 0 {
        m.anytime_coverage_permille.observe(1000);
        return AnytimeOutcome { rules: Vec::new(), truncated: false, coverage: 1.0 };
    }
    let consequents: Vec<Vec<Vec<usize>>> =
        cliques.iter().map(|q2| consequent_subsets(q2, config.max_consequent)).collect();

    let stride = coprime_stride(total);
    let start = Instant::now();
    let mut sampled = RuleSet::new();
    let mut idx = 0usize;
    let mut processed = 0usize;
    for _ in 0..total {
        let (q2, q1) = (idx / len, idx % len);
        pair_candidates(&artifacts.graph, &cliques[q1], &consequents[q2], &config, &mut sampled);
        processed += 1;
        idx = (idx + stride) % total;
        if processed < total && start.elapsed() >= budget {
            break;
        }
    }
    m.anytime_pairs.add(processed as u64);

    let mut rules = sampled.into_rules();
    sort_rules(&mut rules);
    let mut truncated = processed < total;
    if query.max_rules != 0 && rules.len() > query.max_rules {
        rules.truncate(query.max_rules);
        truncated = true;
    }
    let coverage = processed as f64 / total as f64;
    m.anytime_coverage_permille.observe((coverage * 1000.0).round() as u64);
    AnytimeOutcome { rules, truncated, coverage }
}

/// A stride coprime with `total`, near the golden-ratio fraction of it, so
/// the walk `idx ← (idx + stride) mod total` visits every pair exactly
/// once with a well-spread prefix.
fn coprime_stride(total: usize) -> usize {
    if total <= 2 {
        return 1;
    }
    let mut stride = ((total as f64) * 0.618_033_988_749_894_9) as usize;
    stride = stride.max(1);
    while gcd(stride, total) != 1 {
        stride += 1;
    }
    stride
}

fn gcd(mut a: usize, mut b: usize) -> usize {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strides_are_coprime_and_spread() {
        for total in [1usize, 2, 3, 4, 9, 16, 100, 1024, 3600] {
            let s = coprime_stride(total);
            assert_eq!(gcd(s, total), 1, "total={total} stride={s}");
            // The walk is a permutation of 0..total.
            let mut seen = vec![false; total];
            let mut idx = 0;
            for _ in 0..total {
                assert!(!seen[idx]);
                seen[idx] = true;
                idx = (idx + s) % total;
            }
        }
    }
}
