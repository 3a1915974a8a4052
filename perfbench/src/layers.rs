//! Per-layer figures shared by every workload's traced run: span self
//! times, per-layer allocation counts, and deltas of the program's own
//! `dar-obs` counters over the replayed window (Phase I, WAL, `dar-par`)
//! or over the wire run's window (serving and Phase II).

use crate::alloc;
use crate::common;
use crate::report::{Report, PER_LAYER};
use crate::stats::Samples;
use crate::trace::{Attribution, Layer, Tracer};
use std::time::Duration;

/// The `dar-obs` counters read around a window.
const COUNTERS: [&str; 7] = [
    "dar_birch_rebuilds_total",
    "dar_birch_threshold_raises_total",
    "dar_birch_outliers_paged_total",
    "dar_durable_wal_fsyncs_total",
    "dar_durable_wal_bytes_total",
    "dar_par_regions_total",
    "dar_par_tasks_total",
];

/// Counter and allocation readings at one instant.
#[derive(Debug, Clone)]
pub struct Mark {
    counters: [u64; COUNTERS.len()],
    allocs: [u64; alloc::SLOTS],
}

impl Mark {
    pub fn now() -> Mark {
        Mark { counters: COUNTERS.map(common::counter), allocs: std::array::from_fn(alloc::count) }
    }

    /// How much counter `name` grew from `self` to `later`.
    pub fn counter_delta(&self, later: &Mark, name: &str) -> u64 {
        let i = COUNTERS.iter().position(|c| *c == name).expect("a tracked counter");
        later.counters[i] - self.counters[i]
    }

    pub fn allocs_delta(&self, later: &Mark, layer: Layer) -> u64 {
        later.allocs[layer.slot()] - self.allocs[layer.slot()]
    }
}

/// Server-side figures read from the wire run's registry around its
/// measured window: the serving layer's request histogram and byte
/// counters, and the Phase II work counters the engine, mining and rank
/// crates export.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerSide {
    pub requests: u64,
    pub request_ns: u64,
    pub bytes_read: u64,
    pub bytes_written: u64,
    pub append_failures: u64,
    pub artifact_misses: u64,
    pub comparisons: u64,
    pub edges: u64,
    pub cliques: u64,
    pub rules_emitted: u64,
    pub rules_in: u64,
    pub pruned: u64,
}

impl ServerSide {
    pub fn read(verbs: &[&str]) -> ServerSide {
        let (requests, request_ns) = common::histogram("dar_serve_request_ns", verbs);
        ServerSide {
            requests,
            request_ns,
            bytes_read: common::verb_counter("dar_serve_bytes_read_total", verbs),
            bytes_written: common::verb_counter("dar_serve_bytes_written_total", verbs),
            append_failures: common::counter("dar_durable_wal_append_failures_total"),
            artifact_misses: common::counter("dar_engine_cache_misses_total"),
            comparisons: common::counter("dar_mining_graph_comparisons_total"),
            edges: common::counter("dar_mining_graph_edges_total"),
            cliques: common::counter("dar_mining_cliques_total"),
            rules_emitted: common::counter("dar_mining_rules_emitted_total"),
            rules_in: common::counter("dar_rank_rules_in_total"),
            pruned: common::counter("dar_rank_pruned_rules_total"),
        }
    }

    pub fn since(&self, earlier: &ServerSide) -> ServerSide {
        ServerSide {
            requests: self.requests - earlier.requests,
            request_ns: self.request_ns - earlier.request_ns,
            bytes_read: self.bytes_read - earlier.bytes_read,
            bytes_written: self.bytes_written - earlier.bytes_written,
            append_failures: self.append_failures - earlier.append_failures,
            artifact_misses: self.artifact_misses - earlier.artifact_misses,
            comparisons: self.comparisons - earlier.comparisons,
            edges: self.edges - earlier.edges,
            cliques: self.cliques - earlier.cliques,
            rules_emitted: self.rules_emitted - earlier.rules_emitted,
            rules_in: self.rules_in - earlier.rules_in,
            pruned: self.pruned - earlier.pruned,
        }
    }
}

/// The Phase II figures of the wire run's window, from the program's own
/// counters. `queries` is the number of window queries. The read path
/// that answers a cached density counts no hit in `dar-obs`, so every
/// window query that did not miss the artifact cache is a hit.
pub fn phase_two_figures(report: &mut Report, server: &ServerSide, queries: u64) {
    let hits = queries.saturating_sub(server.artifact_misses);
    report.line(format!(
        "phase II counters over the wire window: {queries} queries, {} artifact misses, \
         {} comparisons, {} edges, {} cliques, {} rules emitted, {} ranked, {} pruned",
        server.artifact_misses,
        server.comparisons,
        server.edges,
        server.cliques,
        server.rules_emitted,
        server.rules_in,
        server.pruned
    ));
    report.set("engine.artifact_hit_ratio", ratio(hits as f64, queries as f64));
    report.set("mining.edge_yield", ratio(server.edges as f64, server.comparisons as f64));
    report.set("mining.cliques", server.cliques as f64);
    report.set("mining.rules_emitted", server.rules_emitted as f64);
    report.set("rank.prune_ratio", ratio(server.pruned as f64, server.rules_in as f64));
    report.set("rank.rules_in_per_query", ratio(server.rules_in as f64, queries as f64));
}

/// Allocation counts are taken over this many leading window requests:
/// a fixed amount of work, so for a given seed they repeat exactly.
pub const COUNT_PREFIX: usize = 40;

/// One replay of a workload's window.
pub struct Replay {
    pub tracer: Tracer,
    /// Requests replayed in the window.
    pub requests: usize,
    pub wall: Duration,
    pub before: Mark,
    /// Taken after the first `COUNT_PREFIX` requests (or all of them).
    pub prefix: Mark,
    pub prefix_requests: usize,
    pub after: Mark,
}

impl Replay {
    /// Allocations one layer made over the counted prefix.
    pub fn prefix_allocs(&self, layer: Layer) -> u64 {
        self.before.allocs_delta(&self.prefix, layer)
    }
}

/// Marks the start of a replay's window; a traced replay counts
/// allocations from here until the prefix mark.
pub fn begin_window(tracer: &Tracer) -> Mark {
    alloc::set_counting(tracer.enabled());
    Mark::now()
}

/// Takes the prefix mark once `done` window requests have been replayed.
pub fn mark_prefix(done: usize, prefix: &mut Option<(usize, Mark)>) {
    if done == COUNT_PREFIX && prefix.is_none() {
        *prefix = Some((done, Mark::now()));
        alloc::set_counting(false);
    }
}

/// The prefix mark, or the end of the window when it was shorter.
pub fn prefix_or_end(
    prefix: Option<(usize, Mark)>,
    requests: usize,
    after: &Mark,
) -> (usize, Mark) {
    alloc::set_counting(false);
    prefix.unwrap_or_else(|| (requests, after.clone()))
}

/// The Phase I forest's own memory estimate (the quantity the 5 MB cap
/// bounds) after feeding `batches` to a fresh forest of the engine's
/// configuration, in MiB.
pub fn forest_mb(batches: impl Iterator<Item = Vec<Vec<f64>>>) -> f64 {
    let config = common::engine_config();
    let pool = dar_par::ThreadPool::resolve(config.threads);
    let mut forest = birch::AcfForest::new(common::partitioning(), &config.birch);
    for rows in batches {
        forest.insert_batch(&rows, &pool);
    }
    forest.stats().total_memory_bytes() as f64 / (1 << 20) as f64
}

/// Sets every per-layer metric to 0, so a layer the workload does not
/// exercise reads 0; the workload then sets what it measured.
pub fn zero(report: &mut Report) {
    for (name, _) in PER_LAYER {
        report.set(name, 0.0);
    }
}

/// The figures every workload derives the same way from its traced
/// replay. `untraced` are the untraced replays run before and after it,
/// so drift between them cancels out of the tracing overhead. `wire`
/// holds the untraced round trips of the window's client requests;
/// `server` the server-side registry delta over that window,
/// `client_requests` the number of client requests it covers.
pub fn common_figures(
    report: &mut Report,
    traced: &Replay,
    untraced: [&Replay; 2],
    wire: &Samples,
    server: &ServerSide,
    client_requests: u64,
) {
    let t = &traced.tracer;
    let per_request = |ms: f64| ms / traced.requests.max(1) as f64;
    for (metric, span) in [
        ("serve.decode_ms", "serve.decode"),
        ("serve.encode_ms", "serve.encode"),
        ("durable.wal_append_ms", "durable.wal_append"),
        ("engine.epoch_close_ms", "engine.epoch_close"),
        ("engine.query_ms", "engine.query"),
        ("engine.snapshot_encode_ms", "engine.snapshot_encode"),
        ("engine.snapshot_decode_ms", "engine.snapshot_decode"),
        ("mining.graph_ms", "mining.graph"),
        ("mining.cliques_ms", "mining.cliques"),
        ("mining.rules_ms", "mining.rules"),
        ("rank.rank_ms", "rank.rank"),
        ("cluster.ingest_ms", "cluster.ingest"),
        ("cluster.pull_ms", "cluster.pull"),
        ("cluster.merge_ms", "cluster.merge"),
    ] {
        report.set(metric, per_request(t.span_ms(span)));
    }
    for (metric, layer) in [
        ("serve.allocs_per_request", Layer::Serve),
        ("durable.allocs_per_request", Layer::Durable),
        ("birch.allocs_per_request", Layer::Birch),
        ("engine.allocs_per_request", Layer::Engine),
        ("rank.allocs_per_request", Layer::Rank),
        ("cluster.allocs_per_request", Layer::Cluster),
    ] {
        let allocs = traced.prefix_allocs(layer);
        report.set(metric, allocs as f64 / traced.prefix_requests.max(1) as f64);
    }
    let (before, after) = (&traced.before, &traced.after);
    for (metric, name) in [
        ("birch.rebuilds", "dar_birch_rebuilds_total"),
        ("birch.threshold_raises", "dar_birch_threshold_raises_total"),
        ("birch.outliers_paged", "dar_birch_outliers_paged_total"),
    ] {
        report.set(metric, before.counter_delta(after, name) as f64);
    }
    let regions = before.counter_delta(after, "dar_par_regions_total");
    let tasks = before.counter_delta(after, "dar_par_tasks_total");
    report.set("par.tasks_per_region", ratio(tasks as f64, regions as f64));

    if server.requests > 0 {
        let server_ms = server.request_ns as f64 / 1e6 / client_requests.max(1) as f64;
        report.set("serve.server_ms", server_ms);
        report.set("serve.outside_ms", wire.finite_mean() - server_ms);
        report.set("serve.request_bytes", ratio(server.bytes_read as f64, server.requests as f64));
        report.set(
            "serve.response_bytes",
            ratio(server.bytes_written as f64, server.requests as f64),
        );
    }
    report.set("durable.append_failures", server.append_failures as f64);

    let traced_s = traced.wall.as_secs_f64();
    let [before_s, after_s] = untraced.map(|r| r.wall.as_secs_f64());
    let untraced_s = (before_s + after_s) / 2.0;
    report.set("trace.overhead_frac", ratio(traced_s - untraced_s, untraced_s));
    report.line(format!(
        "tracing overhead: traced replay {traced_s:.3} s, untraced replays {before_s:.3} s \
         before and {after_s:.3} s after it, {} spans",
        t.spans()
    ));
}

/// Prints the attribution table and returns the residual fraction over
/// all of `kinds` together.
pub fn attribute(report: &mut Report, tracer: &Tracer, kinds: &[(&'static str, &Samples)]) -> f64 {
    let mut wall = 0.0;
    let mut residual = 0.0;
    report.line("attribution of the untraced round trip (wire) to layer self times (replay):");
    for (kind, samples) in kinds {
        if samples.is_empty() {
            continue;
        }
        let a = Attribution::new(tracer, kind, samples.len(), samples.finite_sum());
        wall += a.wall_ms;
        residual += a.residual_ms;
        for line in a.lines() {
            report.line(line);
        }
    }
    ratio(residual, wall)
}

pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}
