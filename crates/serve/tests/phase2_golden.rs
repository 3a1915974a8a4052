//! Byte-identity pin for Phase II: rule generation, ranking and
//! redundancy pruning on the paper's WBCD workload.
//!
//! One engine is built over a WBCD-shaped relation with the paper's
//! configuration (30 per-attribute trees, 5 MB Phase I cap, 3% support).
//! A matrix of rank and budget knobs is queried against it, and every
//! `query` response line is folded into an FNV-1a digest. The digests and
//! byte lengths below are the wire output of the reference implementation;
//! any change to which rules are emitted, their order, their values or
//! their encoding moves them.

use birch::BirchConfig;
use dar_engine::{DarEngine, EngineConfig};
use dar_serve::protocol::query_response;
use mining::{DensitySpec, Measure, RuleQuery, MEASURES};

/// WBCD tuples ingested. Fewer tuples do not make the matrix cheaper:
/// under the 3% support floor a smaller relation keeps more, smaller
/// clusters, and so more cliques to pair.
const TUPLES: usize = 5_000;
const DATASET_SEED: u64 = 20_260_707;

/// The engine half of the paper's WBCD configuration (§7.2).
fn wbcd_engine_config() -> EngineConfig {
    EngineConfig {
        birch: BirchConfig {
            initial_threshold: 0.0,
            ..BirchConfig::with_total_budget(5 << 20, 30)
        },
        min_support_frac: 0.03,
        max_cliques: 10_000,
        threads: 1,
        ..EngineConfig::default()
    }
}

/// The query half of the paper's WBCD configuration, at a strict degree
/// factor: the uncapped answers hold about ten, two hundred and two
/// thousand rules at the three density factors, instead of the default
/// factor's tens of thousands, so the matrix stays cheap.
fn wbcd_query() -> RuleQuery {
    RuleQuery {
        density: DensitySpec::Auto { factor: 4.0 },
        degree_factor: 1.0,
        max_antecedent: 2,
        max_consequent: 1,
        max_pair_work: 1_000_000,
        ..RuleQuery::default()
    }
}

fn engine() -> DarEngine {
    let schema = datagen::wbcd::wbcd_schema();
    let partitioning = dar_core::Partitioning::per_attribute(&schema, dar_core::Metric::Euclidean);
    let mut engine = DarEngine::new(partitioning, wbcd_engine_config()).expect("engine");
    let relation = datagen::wbcd::wbcd_relation(TUPLES, 0.1, DATASET_SEED);
    let rows: Vec<Vec<f64>> = (0..relation.len()).map(|i| relation.row(i)).collect();
    engine.ingest(&rows).expect("ingest");
    engine
}

/// A running FNV-1a digest and byte count over response lines.
struct Digest {
    hash: u64,
    bytes: usize,
}

impl Digest {
    fn new() -> Digest {
        Digest { hash: 0xcbf2_9ce4_8422_2325, bytes: 0 }
    }

    fn line(&mut self, line: &str) {
        for b in line.bytes().chain(std::iter::once(b'\n')) {
            self.hash = (self.hash ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
        self.bytes += line.len() + 1;
    }
}

fn answer(engine: &mut DarEngine, query: &RuleQuery, digest: &mut Digest) {
    let outcome = engine.query(query).expect("query");
    digest.line(&query_response(&outcome).encode());
}

/// Every knob combination of one density factor: all five measures ×
/// {no prune, prune, prune + top 25} × {uncapped, 500 rules, 5000 pair
/// triples}.
fn knob_matrix(engine: &mut DarEngine, density: f64) -> Digest {
    let mut digest = Digest::new();
    for &measure in MEASURES {
        for (prune_redundant, top_k) in [(false, 0), (true, 0), (true, 25)] {
            for (max_rules, max_pair_work) in [(0, 0), (500, 0), (0, 5_000)] {
                let query = RuleQuery {
                    density: DensitySpec::Auto { factor: density },
                    measure,
                    prune_redundant,
                    top_k,
                    max_rules,
                    max_pair_work,
                    ..wbcd_query()
                };
                answer(engine, &query, &mut digest);
            }
        }
    }
    digest
}

#[test]
fn phase2_answers_match_the_pinned_digests() {
    let mut engine = engine();
    let mut got: Vec<(&str, u64, usize)> = Vec::new();
    for (name, density) in [("density 2.5", 2.5), ("density 3.3", 3.3), ("density 4.0", 4.0)] {
        let d = knob_matrix(&mut engine, density);
        got.push((name, d.hash, d.bytes));
    }

    // Wider arities walk deeper antecedent and consequent subsets.
    let mut d = Digest::new();
    for measure in [Measure::Degree, Measure::Lift] {
        for prune_redundant in [false, true] {
            let query = RuleQuery {
                density: DensitySpec::Auto { factor: 3.3 },
                max_antecedent: 3,
                max_consequent: 2,
                measure,
                prune_redundant,
                ..wbcd_query()
            };
            answer(&mut engine, &query, &mut d);
        }
    }
    got.push(("wide arity", d.hash, d.bytes));

    // A budget no run can exhaust: the sampler visits every clique pair,
    // so the answer is exact and carries no coverage keys.
    let mut d = Digest::new();
    let anytime = RuleQuery { budget_ms: 3_600_000, prune_redundant: true, ..wbcd_query() };
    answer(&mut engine, &anytime, &mut d);
    got.push(("anytime", d.hash, d.bytes));

    let pinned: Vec<(&str, u64, usize)> = vec![
        ("density 2.5", 0x27c0a7c6d67788f9, 34771),
        ("density 3.3", 0xc370969ca99a0875, 402513),
        ("density 4.0", 0x7da332d02f914f4a, 2155627),
        ("wide arity", 0xcfba39fe60e43894, 76730),
        ("anytime", 0xbea375f39a7455eb, 88254),
    ];
    assert_eq!(got, pinned, "Phase II wire output moved");
}
