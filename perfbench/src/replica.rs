//! The query path of `DarEngine::query`, rebuilt from public functions so
//! the traced replay can put a span around each layer's call: the epoch
//! close, the clustering graph, the maximal cliques, rule generation and
//! ranking. It keeps the same two memo tables the engine keeps per epoch
//! — Phase II artifacts by density, ranked answers by every knob — so a
//! replayed request does exactly the work the server did.

use crate::common;
use crate::trace::Tracer;
use dar_core::ClusterSummary;
use dar_engine::{DarEngine, EngineConfig, QueryOutcome};
use dar_serve::{json, protocol, Request};
use mining::{ClusteringGraph, GraphConfig, Phase2Artifacts, RuleQuery};
use std::collections::HashMap;
use std::sync::Arc;

/// One request as client and server handle it: the client encodes it,
/// the server decodes it and `serve` does the server's work (returning
/// the encoded response line), and the client decodes the response.
pub fn round_trip(
    t: &mut Tracer,
    request: Request,
    serve: impl FnOnce(&mut Tracer, Request) -> Result<String, String>,
) -> Result<String, String> {
    let line = t.span("serve.encode", |_| request.to_json().encode());
    drop(request);
    let base = common::base_query();
    let decoded = t.span("serve.decode", |_| {
        json::parse(&line)
            .map_err(|e| e.to_string())
            .and_then(|v| Request::from_json_with(&v, &base))
    })?;
    let response = serve(t, decoded)?;
    t.span("serve.decode", |_| json::parse(&response)).map_err(|e| e.to_string())?;
    Ok(response)
}

/// The server's half of a `query`: answer it and encode the response.
pub fn serve_query(
    t: &mut Tracer,
    phase2: &mut PhaseTwo,
    request: Request,
) -> Result<String, String> {
    let Request::Query { query } = request else {
        return Err("a replayed query decoded as another verb".into());
    };
    let outcome = phase2.answer(t, &query)?;
    Ok(t.span("serve.encode", |_| protocol::query_response(&outcome).encode()))
}

/// One memoized ranked answer.
struct Ranked {
    rules: Vec<mining::Dar>,
    values: Vec<f64>,
    truncated: bool,
    rules_in: usize,
    pruned: usize,
}

/// One closed epoch of an engine, answered span by span.
pub struct PhaseTwo {
    clusters: Vec<ClusterSummary>,
    tree_thresholds: Vec<f64>,
    num_sets: usize,
    s0: u64,
    tuples: u64,
    epoch: u64,
    config: EngineConfig,
    pool: dar_par::ThreadPool,
    artifacts: HashMap<Vec<u64>, Arc<Phase2Artifacts>>,
    ranked: HashMap<Vec<u64>, Arc<Ranked>>,
}

impl PhaseTwo {
    /// Closes `engine`'s epoch under the `engine.epoch_close` span and
    /// takes its clusters and tree thresholds from a snapshot (the engine
    /// exposes thresholds nowhere else; the snapshot is replay glue).
    pub fn open(engine: &mut DarEngine, tracer: &mut Tracer) -> Result<PhaseTwo, String> {
        tracer.span("engine.epoch_close", |_| {
            engine.clusters();
        });
        let pool = dar_par::ThreadPool::resolve(engine.config().threads);
        let bytes = engine.snapshot().map_err(|e| format!("replay snapshot: {e}"))?;
        let snap = dar_engine::snapshot::parse_snapshot_bytes(&bytes, &pool)
            .map_err(|e| format!("replay snapshot parse: {e}"))?;
        let config = engine.config().clone();
        let s0 = ((config.min_support_frac * snap.tuples as f64).ceil() as u64).max(1);
        Ok(PhaseTwo {
            clusters: snap.clusters,
            tree_thresholds: snap.thresholds,
            num_sets: snap.partitioning.num_sets(),
            s0,
            tuples: snap.tuples,
            epoch: snap.epoch,
            config,
            pool,
            artifacts: HashMap::new(),
            ranked: HashMap::new(),
        })
    }

    /// Answers one query as `DarEngine::query` would, with the engine's
    /// own bookkeeping under `engine.query` and each Phase II step in its
    /// layer's span.
    pub fn answer(
        &mut self,
        tracer: &mut Tracer,
        query: &RuleQuery,
    ) -> Result<QueryOutcome, String> {
        tracer.span("engine.query", |t| self.answer_inner(t, query))
    }

    fn answer_inner(&mut self, t: &mut Tracer, query: &RuleQuery) -> Result<QueryOutcome, String> {
        let density = query
            .density
            .resolve(&self.clusters, &self.tree_thresholds, self.num_sets)
            .map_err(|e| format!("density: {e}"))?;
        let key: Vec<u64> = density.iter().map(|d| d.to_bits()).collect();
        let (artifacts, cached) = match self.artifacts.get(&key) {
            Some(hit) => (Arc::clone(hit), true),
            None => {
                let frequent: Vec<ClusterSummary> =
                    self.clusters.iter().filter(|c| c.is_frequent(self.s0)).cloned().collect();
                let graph_config = GraphConfig {
                    metric: self.config.metric,
                    density_thresholds: density.clone(),
                    prune_poor_density: self.config.prune_poor_density,
                };
                let pool = &self.pool;
                let graph = t.span("mining.graph", |_| {
                    ClusteringGraph::build_pooled(frequent, &graph_config, pool)
                });
                let (cliques, cliques_truncated) = t.span("mining.cliques", |_| {
                    mining::maximal_cliques_pooled(graph.adjacency(), self.config.max_cliques, pool)
                });
                let artifacts = Arc::new(Phase2Artifacts {
                    density_thresholds: density,
                    graph,
                    cliques,
                    cliques_truncated,
                });
                self.artifacts.insert(key.clone(), Arc::clone(&artifacts));
                (artifacts, false)
            }
        };
        let rkey = rank_key(&key, query);
        let ranked = match self.ranked.get(&rkey) {
            Some(hit) => Arc::clone(hit),
            None => {
                let pool = &self.pool;
                let (raw, truncated) = t.span("mining.rules", |_| {
                    artifacts.mine_pooled(self.config.metric, query, pool)
                });
                let spec =
                    dar_rank::RankSpec::from_query(query, artifacts.graph.clusters(), self.tuples);
                let ranked = t.span("rank.rank", |_| dar_rank::rank(raw, &spec));
                let answer = Arc::new(Ranked {
                    rules: ranked.rules,
                    values: ranked.values,
                    truncated,
                    rules_in: ranked.rules_in,
                    pruned: ranked.pruned,
                });
                self.ranked.insert(rkey, Arc::clone(&answer));
                answer
            }
        };
        Ok(QueryOutcome {
            rules: ranked.rules.clone(),
            values: ranked.values.clone(),
            measure: query.measure,
            truncated: ranked.truncated,
            cached,
            artifacts,
            s0: self.s0,
            epoch: self.epoch,
            rules_in: ranked.rules_in,
            pruned: ranked.pruned,
            coverage: None,
        })
    }
}

/// The engine's ranked-answer memo key: resolved density bits plus every
/// knob that shapes rule generation and ranking.
fn rank_key(density_key: &[u64], query: &RuleQuery) -> Vec<u64> {
    let mut key = density_key.to_vec();
    key.push(query.degree_factor.to_bits());
    key.push(query.max_antecedent as u64);
    key.push(query.max_consequent as u64);
    key.push(query.max_rules as u64);
    key.push(query.max_pair_work);
    key.push(query.measure.discriminant());
    key.push(u64::from(query.min_measure.is_some()));
    key.push(query.min_measure.unwrap_or(0.0).to_bits());
    key.push(query.top_k as u64);
    key.push(u64::from(query.prune_redundant));
    key
}
