//! `dar serve`: the engine handler behind the shared [`Frontend`], serving
//! the newline-delimited JSON protocol over a [`SharedEngine`].
//!
//! The front end owns the sockets, the worker pool, backpressure and
//! shutdown; this module owns what a request means:
//!
//! * `query`/`stats` answer under the engine's read lock (cached Phase
//!   II), `ingest`/`snapshot` take the write lock, and every write that
//!   changes the engine goes through one apply-then-log WAL commit;
//! * `subscribe` takes the connection over and hands its writer to a
//!   pusher thread fed by the churn feed;
//! * per-instance accounting ([`ServerStats`](crate::ServerStats) and the
//!   `dar_serve_*` series) happens in the handler's hooks;
//! * an optional **snapshotter** thread persists the epoch to disk every
//!   `snapshot_interval`, and [`ServerHandle::join`] closes the epoch and
//!   writes a final snapshot once the front end has drained.

use crate::churn::{ChurnFeed, SubscriptionRx};
use crate::durability::{persist_snapshot, Durability};
use crate::frontend::{Frontend, Handler, Next, Reply};
use crate::json::Json;
use crate::protocol::{self, Request};
use crate::shared::SharedEngine;
use crate::stats::{ServerStats, StatsSnapshot};
use dar_durable::{DiskStorage, Storage};
use dar_stream::EngineBackend;
use mining::RuleQuery;
use std::io::{self, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::str::Utf8Error;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker pool size.
    pub threads: usize,
    /// Bounded accept queue depth; a full queue refuses new connections
    /// with a structured `overloaded` error.
    pub queue_depth: usize,
    /// Per-connection read timeout (an idle client is disconnected).
    pub read_timeout: Duration,
    /// Per-connection write timeout.
    pub write_timeout: Duration,
    /// Where `snapshot` requests, the periodic snapshotter, and the final
    /// shutdown snapshot write the epoch.
    pub snapshot_path: Option<PathBuf>,
    /// Periodic snapshot-to-disk interval (requires `snapshot_path`).
    pub snapshot_interval: Option<Duration>,
    /// Write-ahead log path. When set, every acknowledged ingest batch is
    /// appended (checksummed, fsynced) *before* the acknowledgement; a
    /// failed append flips the server to degraded read-only mode.
    pub wal_path: Option<PathBuf>,
    /// The storage backend the WAL and snapshot installs go through —
    /// [`DiskStorage`] in production, a fault-injecting double in tests.
    pub storage: Arc<dyn Storage>,
    /// Whether the wire verb `shutdown` may stop the server (on by
    /// default; operators driving the server from scripts need it).
    pub allow_remote_shutdown: bool,
    /// Optional Prometheus exposition address (e.g. `"127.0.0.1:9100"`).
    /// When set, a plain-TCP listener serves the global `dar-obs`
    /// registry in Prometheus text format to any scraper (or `nc`).
    pub metrics_addr: Option<String>,
    /// The server's default rule query: knobs a `query` request does not
    /// send fall back to these (set from CLI flags like `--measure` and
    /// `--top-k`), and rule-churn events mine and score the live horizon
    /// with them.
    pub base_query: RuleQuery,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            threads: 4,
            queue_depth: 64,
            read_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(30),
            snapshot_path: None,
            snapshot_interval: None,
            wal_path: None,
            storage: Arc::new(DiskStorage),
            allow_remote_shutdown: true,
            metrics_addr: None,
            base_query: RuleQuery::default(),
        }
    }
}

/// The engine handler: everything a worker needs to answer one request.
struct EngineHandler {
    shared: Arc<SharedEngine>,
    stats: Arc<ServerStats>,
    durability: Option<Arc<Durability>>,
    churn: Arc<ChurnFeed>,
    config: ServeConfig,
}

impl Handler for EngineHandler {
    fn handle(&self, line: Result<&str, Utf8Error>) -> Reply {
        match Request::from_line(line, &self.config.base_query) {
            Ok(request) => handle_request(request, self),
            Err((code, message)) => {
                Reply { response: error(self, code, &message), verb: "error", next: Next::Continue }
            }
        }
    }

    fn accepted(&self) {
        self.stats.connections.fetch_add(1, Ordering::Relaxed);
        crate::metrics::metrics().connections.inc();
    }

    fn refused(&self) {
        self.stats.rejected_connections.fetch_add(1, Ordering::Relaxed);
        crate::metrics::metrics().rejected_connections.inc();
    }

    fn served(&self, verb: &'static str, elapsed: Duration, bytes_read: u64, bytes_written: u64) {
        self.stats.record_latency(verb, elapsed);
        self.stats.record_io(verb, bytes_read, bytes_written);
    }
}

/// The running server's entry point.
pub struct Server;

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:7878"`, port 0 for ephemeral) and
    /// starts the front end over the engine handler and (if configured)
    /// the snapshotter. Returns immediately with a handle; the server runs
    /// on background threads until [`ServerHandle::shutdown`] or a wire
    /// `shutdown` request.
    ///
    /// # Errors
    /// Propagates bind failures and unrepairable durability artifacts.
    ///
    /// Note: the engine passed in should already be recovered (see
    /// [`crate::recover_backend`]); this constructor only reopens the
    /// durable store to position the WAL sequence counter. Accepts a plain
    /// [`dar_engine::DarEngine`], a sliding-window
    /// [`dar_stream::WindowedEngine`], or an [`EngineBackend`].
    pub fn start(
        engine: impl Into<EngineBackend>,
        addr: &str,
        config: ServeConfig,
    ) -> io::Result<ServerHandle> {
        let durability = if config.snapshot_path.is_some() || config.wal_path.is_some() {
            Some(Arc::new(Durability::open(
                Arc::clone(&config.storage),
                config.snapshot_path.as_deref(),
                config.wal_path.as_deref(),
            )?))
        } else {
            None
        };
        let handler = Arc::new(EngineHandler {
            shared: Arc::new(SharedEngine::new(engine)),
            stats: Arc::new(ServerStats::default()),
            durability,
            churn: Arc::new(ChurnFeed::new()),
            config,
        });
        let frontend = Frontend::start("dar-serve", addr, Arc::clone(&handler), &handler.config)?;

        let config = &handler.config;
        let snapshotter =
            match (&handler.durability, &config.snapshot_path, config.snapshot_interval) {
                (Some(durability), Some(_), Some(interval)) => {
                    let shared = Arc::clone(&handler.shared);
                    let stats = Arc::clone(&handler.stats);
                    let durability = Arc::clone(durability);
                    let shutdown = frontend.signal();
                    Some(std::thread::Builder::new().name("dar-serve-snapshotter".into()).spawn(
                        move || {
                            let mut last = Instant::now();
                            while !shutdown.is_set() {
                                std::thread::sleep(Duration::from_millis(25));
                                if last.elapsed() >= interval {
                                    let _ = persist_snapshot(&shared, &durability, &stats);
                                    last = Instant::now();
                                }
                            }
                        },
                    )?)
                }
                _ => None,
            };

        Ok(ServerHandle { frontend, handler, snapshotter })
    }
}

/// A handle to a running server: its address, shared state for
/// inspection, and the shutdown/join lifecycle.
pub struct ServerHandle {
    frontend: Frontend,
    handler: Arc<EngineHandler>,
    snapshotter: Option<JoinHandle<()>>,
}

/// What a graceful shutdown left behind.
#[derive(Debug, Clone)]
pub struct ServeSummary {
    /// Final server counters.
    pub stats: StatsSnapshot,
    /// Where the final epoch snapshot was written, if a path was
    /// configured.
    pub snapshot_path: Option<PathBuf>,
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.frontend.addr()
    }

    /// The shared engine, for in-process inspection alongside the server.
    pub fn shared(&self) -> &Arc<SharedEngine> {
        &self.handler.shared
    }

    /// A point-in-time copy of the server counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.handler.stats.snapshot()
    }

    /// This server's latency histogram — the exact population the `stats`
    /// verb derives p50/p99 from.
    pub fn latency_snapshot(&self) -> dar_obs::HistogramSnapshot {
        self.handler.stats.latency_snapshot()
    }

    /// Where the Prometheus exposition listener is bound, if enabled.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.frontend.metrics_addr()
    }

    /// Triggers graceful shutdown (idempotent): stop accepting, drain the
    /// queue, let in-flight connections finish.
    pub fn shutdown(&self) {
        self.frontend.shutdown();
    }

    /// Waits for every thread to exit, closes the epoch, writes the final
    /// snapshot (if a path is configured), and returns the final
    /// counters. Call [`ServerHandle::shutdown`] first — or let a wire
    /// `shutdown` request arrive — or this blocks until one happens.
    ///
    /// # Errors
    /// Propagates final-snapshot I/O failures (the threads are already
    /// down by then).
    pub fn join(self) -> io::Result<ServeSummary> {
        let ServerHandle { frontend, handler, snapshotter } = self;
        frontend.join();
        if let Some(snapshotter) = snapshotter {
            let _ = snapshotter.join();
        }
        // Disconnect every churn subscriber and join their threads.
        handler.churn.close();
        let snapshot_path = handler.config.snapshot_path.clone();
        if snapshot_path.is_some() {
            if let Some(durability) = &handler.durability {
                persist_snapshot(&handler.shared, durability, &handler.stats)?;
            }
        }
        Ok(ServeSummary { stats: handler.stats.snapshot(), snapshot_path })
    }
}

/// The long-lived half of a `subscribe` connection: pushes event lines as
/// the feed delivers them; a disconnect means either a server shutdown
/// (hang up silently) or a lagged cut (write the structured final frame
/// first). A client that stopped reading fails the write and is reaped by
/// the publisher on its next fan-out.
fn subscriber_loop(mut writer: BufWriter<TcpStream>, subscription: SubscriptionRx) {
    loop {
        match subscription.rx.recv() {
            Ok(line) => {
                if writeln!(writer, "{line}").and_then(|()| writer.flush()).is_err() {
                    return;
                }
            }
            Err(_) => {
                if subscription.cut.is_lagged() {
                    let line = protocol::lagged_frame(subscription.cut.epoch()).encode();
                    let _ = writeln!(writer, "{line}");
                    let _ = writer.flush();
                }
                return;
            }
        }
    }
}

/// Dispatches one decoded request; the reply carries the verb label its
/// latency is recorded under and what the connection does next.
fn handle_request(request: Request, ctx: &EngineHandler) -> Reply {
    let verb = request.verb();
    let count = |counter: &std::sync::atomic::AtomicU64| {
        counter.fetch_add(1, Ordering::Relaxed);
    };
    let mut next = Next::Continue;
    let response = match request {
        Request::Ingest { rows } => match commit_batch(ctx, &rows) {
            Ok(total) => {
                count(&ctx.stats.ingest_requests);
                protocol::ingest_response(rows.len() as u64, total)
            }
            Err(response) => response,
        },
        Request::Advance => match advance_window(ctx) {
            Ok(response) => {
                count(&ctx.stats.advance_requests);
                response
            }
            Err(response) => response,
        },
        Request::Subscribe { from_epoch } => {
            if ctx.shared.is_windowed() {
                count(&ctx.stats.subscribe_requests);
                // The connection stops being request/response: register
                // with the churn feed (handshake + catch-up under the
                // feed's lock, so no event falls in between); once the
                // front end has written the handshake, a dedicated pusher
                // thread takes the socket over and frees the worker.
                let subscription = ctx.churn.subscribe(from_epoch);
                let handshake =
                    protocol::subscribe_response(subscription.epoch, subscription.window_span);
                let churn = Arc::clone(&ctx.churn);
                let take_over = move |writer| {
                    let handle = std::thread::Builder::new()
                        .name("dar-serve-subscriber".into())
                        .spawn(move || subscriber_loop(writer, subscription))?;
                    churn.track(handle);
                    Ok(())
                };
                next = Next::TakeOver(Box::new(take_over));
                handshake
            } else {
                error(
                    ctx,
                    "unsupported",
                    "subscriptions require a windowed server (--window-batches)",
                )
            }
        }
        Request::ShardIngest { seq, rows } => {
            count(&ctx.stats.shard_ingest_requests);
            // Duplicate suppression: the coordinator retries at-least-once,
            // so a sequence at or below the watermark was already applied
            // (and, when a WAL is configured, committed) — acknowledge it
            // without touching the engine.
            if seq <= ctx.stats.shard_last_seq.load(Ordering::SeqCst) {
                count(&ctx.stats.shard_dup_batches);
                let total = ctx.shared.tuples();
                protocol::shard_ingest_response(seq, false, rows.len() as u64, total)
            } else {
                match commit_batch(ctx, &rows) {
                    Ok(total) => {
                        ctx.stats.shard_last_seq.fetch_max(seq, Ordering::SeqCst);
                        protocol::shard_ingest_response(seq, true, rows.len() as u64, total)
                    }
                    Err(response) => response,
                }
            }
        }
        Request::PullSnapshot => match ctx.shared.pull_snapshot() {
            Ok((bytes, epoch, tuples)) => {
                count(&ctx.stats.pull_snapshot_requests);
                let sealed = dar_durable::seal_bytes(
                    &bytes,
                    ctx.stats.shard_last_seq.load(Ordering::SeqCst),
                );
                protocol::pull_snapshot_response(epoch, tuples, &sealed)
            }
            Err(e) => error(ctx, "snapshot", &e.to_string()),
        },
        Request::ShardStats => {
            count(&ctx.stats.stats_requests);
            let (epoch, tuples, width) = ctx.shared.meta();
            protocol::shard_stats_response(
                epoch,
                tuples,
                width,
                ctx.stats.is_degraded(),
                ctx.stats.shard_last_seq.load(Ordering::SeqCst),
            )
        }
        Request::ShardRescan { clusters, rules } => match shard_rescan(ctx, &clusters, &rules) {
            Ok(response) => {
                count(&ctx.stats.shard_rescan_requests);
                response
            }
            Err((code, message)) => error(ctx, code, &message),
        },
        Request::Query { query } => match ctx.shared.query(&query) {
            Ok(outcome) => {
                count(&ctx.stats.query_requests);
                protocol::query_response(&outcome)
            }
            Err(e) => error(ctx, "bad-query", &e.to_string()),
        },
        Request::Clusters => {
            count(&ctx.stats.clusters_requests);
            let (epoch, clusters) = ctx.shared.clusters();
            protocol::clusters_response(epoch, &clusters)
        }
        Request::Metrics => {
            count(&ctx.stats.metrics_requests);
            protocol::metrics_response()
        }
        Request::Stats => {
            count(&ctx.stats.stats_requests);
            let (engine_stats, read_hits) = ctx.shared.stats();
            Json::obj(vec![
                ("ok", Json::Bool(true)),
                ("verb", Json::Str("stats".into())),
                ("server", ctx.stats.snapshot().to_json()),
                ("engine", protocol::engine_stats_json(&engine_stats, read_hits)),
            ])
        }
        Request::Snapshot => match (&ctx.durability, &ctx.config.snapshot_path) {
            (Some(durability), Some(path)) => {
                match persist_snapshot(&ctx.shared, durability, &ctx.stats) {
                    Ok((epoch, tuples)) => {
                        count(&ctx.stats.snapshot_requests);
                        let shown = path.display().to_string();
                        protocol::snapshot_response(epoch, tuples, Some(&shown))
                    }
                    Err(e) => error(ctx, "io", &e.to_string()),
                }
            }
            _ => match ctx.shared.snapshot() {
                Ok((_, epoch, tuples)) => {
                    count(&ctx.stats.snapshot_requests);
                    protocol::snapshot_response(epoch, tuples, None)
                }
                Err(e) => error(ctx, "snapshot", &e.to_string()),
            },
        },
        Request::Shutdown => {
            if ctx.config.allow_remote_shutdown {
                count(&ctx.stats.shutdown_requests);
                next = Next::Shutdown;
                protocol::shutdown_response()
            } else {
                error(ctx, "forbidden", "remote shutdown is disabled")
            }
        }
    };
    Reply { response, verb, next }
}

/// The durable write path every engine-changing verb goes through:
/// refuse in degraded mode, take the store lock before the engine lock,
/// `apply` to the engine, append the WAL frame `frame` names for the
/// applied outcome — its window tag (if any) and rows — and acknowledge
/// only after the append. A failed append degrades the server; `applied`
/// names what is now in memory but not on the log.
fn commit<'r, T>(
    ctx: &EngineHandler,
    applied: &str,
    apply: impl FnOnce(&SharedEngine) -> Result<T, dar_core::CoreError>,
    frame: impl FnOnce(&T) -> (Option<u64>, &'r [Vec<f64>]),
) -> Result<T, Json> {
    if ctx.stats.is_degraded() {
        return Err(error(
            ctx,
            "degraded",
            "write-ahead log unavailable; serving reads only — \
             restart with healthy storage to resume ingest",
        ));
    }
    // Store lock before engine lock: WAL commit order must equal engine
    // apply order, or recovery replays a different history than the one
    // that was acknowledged.
    let mut store =
        ctx.durability.as_ref().filter(|_| ctx.config.wal_path.is_some()).map(|d| d.lock());
    let outcome = apply(&ctx.shared).map_err(|e| error(ctx, "rejected", &e.to_string()))?;
    if let Some(store) = store.as_deref_mut() {
        // Apply-then-log: acknowledge only once the change is both in
        // memory and on the log.
        let (window, rows) = frame(&outcome);
        if let Err(e) = store.log_frame(window, rows) {
            ctx.stats.wal_append_failures.fetch_add(1, Ordering::Relaxed);
            ctx.stats.set_degraded();
            return Err(error(
                ctx,
                "degraded",
                &format!(
                    "{applied} in memory but not committed to the \
                     write-ahead log ({e}); entering read-only mode"
                ),
            ));
        }
        ctx.stats.wal_appends.fetch_add(1, Ordering::Relaxed);
    }
    Ok(outcome)
}

/// `ingest` and `shard_ingest`: commit one batch. A windowed backend's
/// batches are logged as *tagged* frames carrying the window sequence they
/// landed in, so recovery rebuilds the ring exactly; a batch that sealed a
/// window also publishes rule churn to subscribers (after the store lock
/// drops). Returns the engine's post-batch tuple total, or the structured
/// error response to send instead.
fn commit_batch(ctx: &EngineHandler, rows: &[Vec<f64>]) -> Result<u64, Json> {
    let (total, windowed) = commit(
        ctx,
        "batch applied",
        |shared| shared.ingest(rows),
        |(_, windowed)| (windowed.as_ref().map(|w| w.window_seq), rows),
    )?;
    if windowed.is_some_and(|w| w.advanced) {
        publish_churn(ctx);
    }
    Ok(total)
}

/// The `advance` verb: seal the open window explicitly (windowed backend
/// only), log an empty tagged frame as the advance marker so recovery
/// replays the seal at the same point in the batch order, and publish the
/// resulting rule churn.
fn advance_window(ctx: &EngineHandler) -> Result<Json, Json> {
    if !ctx.shared.is_windowed() {
        return Err(error(
            ctx,
            "unsupported",
            "advance requires a windowed server (--window-batches)",
        ));
    }
    // The empty frame is tagged with the freshly-opened window: replay
    // fast-forwards `open_seq` past the sealed window and ingests nothing.
    let outcome = commit(ctx, "window advanced", SharedEngine::advance, |outcome| {
        (Some(outcome.opened_seq), &[])
    })?;
    publish_churn(ctx);
    let span = ctx.shared.window_span().unwrap_or((0, outcome.opened_seq));
    Ok(protocol::advance_response(
        outcome.sealed_seq,
        outcome.opened_seq,
        outcome.retired_seq,
        span,
    ))
}

/// Mines the live horizon at the server's base query and hands the
/// encoded rule set to the churn feed, which diffs it against the
/// previous epoch and fans events out to subscribers. Each event rule
/// carries its value under the base query's measure, so downstream
/// consumers can filter on quality without re-querying. Called after a
/// window seal, with no locks held — the query takes the engine lock,
/// the feed its own.
fn publish_churn(ctx: &EngineHandler) {
    let Ok(outcome) = ctx.shared.query(&ctx.config.base_query) else {
        return; // a failed base query leaves subscribers at the old epoch
    };
    let rules: Vec<String> = outcome
        .rules
        .iter()
        .zip(&outcome.values)
        .map(|(rule, &value)| protocol::rule_json(rule, value).encode())
        .collect();
    ctx.churn.publish(outcome.epoch, ctx.shared.window_span(), rules);
}

/// The `shard_rescan` verb: re-read this shard's write-ahead log, assign
/// every retained tuple to its nearest coordinator-supplied cluster per
/// set, and count the tuples matching every position of each rule. The
/// scan is exact over the rows the WAL retains; `rows_scanned` lets the
/// coordinator detect a shard whose WAL no longer covers its whole
/// history (e.g. pruned by a snapshot install).
fn shard_rescan(
    ctx: &EngineHandler,
    clusters: &str,
    rules: &[Vec<usize>],
) -> Result<Json, (&'static str, String)> {
    let Some(wal_path) = &ctx.config.wal_path else {
        return Err(("no-wal", "shard_rescan needs a write-ahead log to re-read".into()));
    };
    let pool = dar_par::ThreadPool::resolve(ctx.shared.engine_threads());
    // Base64 persist-v2 is the wire format; raw v1 text (which contains
    // spaces, so it can never decode as base64) is the legacy fallback.
    let clusters = match crate::b64::decode(clusters) {
        Ok(bytes) => mining::persist::decode_clusters(&bytes, &pool)
            .map_err(|e| ("bad-request", format!("clusters: {e}")))?,
        Err(_) => mining::persist::read_clusters(clusters)
            .map_err(|e| ("bad-request", format!("clusters: {e}")))?,
    };
    for (i, rule) in rules.iter().enumerate() {
        if let Some(&pos) = rule.iter().find(|&&pos| pos >= clusters.len()) {
            return Err((
                "bad-request",
                format!("rule {i} references cluster {pos} of {}", clusters.len()),
            ));
        }
    }
    let (records, _) = dar_durable::wal::read_records(&*ctx.config.storage, wal_path)
        .map_err(|e| ("io", e.to_string()))?;
    let partitioning = ctx.shared.partitioning();
    let (_, _, width) = ctx.shared.meta();
    let mut builder = dar_core::RelationBuilder::new(dar_core::Schema::interval_attrs(width));
    for record in &records {
        let (_, rows) = dar_durable::decode_frame(&record.body)
            .map_err(|e| ("io", format!("WAL record {}: {e}", record.seq)))?;
        for row in &rows {
            builder.push_row(row).map_err(|e| ("io", format!("WAL record {}: {e}", record.seq)))?;
        }
    }
    let relation = builder.finish();
    // Each rule re-shaped as a candidate `Dar` (only the positions
    // matter to the rescan); degree/support are placeholders.
    let candidates: Vec<mining::Dar> = rules
        .iter()
        .map(|positions| mining::Dar {
            antecedent: positions.clone(),
            consequent: Vec::new(),
            degree: 0.0,
            min_cluster_support: 0,
        })
        .collect();
    let counts = mining::pipeline::rescan_frequencies_pooled(
        &relation,
        &partitioning,
        &clusters,
        &candidates,
        &pool,
    );
    Ok(protocol::shard_rescan_response(relation.len() as u64, &counts))
}

fn error(ctx: &EngineHandler, code: &str, message: &str) -> Json {
    ctx.stats.error_responses.fetch_add(1, Ordering::Relaxed);
    crate::metrics::metrics().errors.inc();
    protocol::error_response(code, message)
}
