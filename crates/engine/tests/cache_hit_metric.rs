//! The read-only query path counts its artifact-cache hits in
//! `dar_engine_cache_hits_total`, as the `&mut` path does. A served warm
//! query takes the read path, so without this the exposed hit count would
//! show only write-path hits.
//!
//! The metric registry is process-wide, so this file holds one test: no
//! other test in the process moves the counter between the two reads.

use dar_core::{Metric, Partitioning, Schema};
use dar_engine::{DarEngine, EngineConfig};
use mining::{DensitySpec, RuleQuery};

fn hits() -> u64 {
    dar_obs::global().counter("dar_engine_cache_hits_total").get()
}

#[test]
fn read_path_hits_increment_the_cache_hit_counter() {
    let partitioning = Partitioning::per_attribute(&Schema::interval_attrs(2), Metric::Euclidean);
    let mut config = EngineConfig::default();
    config.birch.initial_threshold = 1.0;
    config.min_support_frac = 0.1;
    let mut engine = DarEngine::new(partitioning, config).unwrap();
    let rows: Vec<Vec<f64>> =
        (0..40).map(|i| if i % 2 == 0 { vec![0.0, 100.0] } else { vec![50.0, 200.0] }).collect();
    engine.ingest(&rows).unwrap();
    let query = RuleQuery::default();
    engine.query(&query).unwrap();

    let before = hits();
    assert!(engine.query_cached(&query).unwrap().is_some());
    let retuned = RuleQuery { degree_factor: 3.0, ..RuleQuery::default() };
    assert!(engine.query_cached(&retuned).unwrap().is_some());
    assert_eq!(hits() - before, 2, "each read-path hit is counted once");

    // A miss on the read path declines without counting a hit.
    let unseen = RuleQuery { density: DensitySpec::Auto { factor: 9.0 }, ..RuleQuery::default() };
    assert!(engine.query_cached(&unseen).unwrap().is_none());
    assert_eq!(hits() - before, 2);
}
