//! The coordinator's handler behind the shared [`dar_serve::Frontend`]:
//! it speaks the ordinary `dar-serve` client protocol, so existing
//! clients point at a coordinator unchanged.
//!
//! The front end (acceptor, bounded queue, worker pool, timeouts,
//! shutdown) is the one `dar serve` runs; this module is only the
//! dispatch. Each request resolves against the [`Coordinator`] under a
//! mutex: the coordinator's own work per request is a round trip or two;
//! the heavy lifting happens on the shards and inside the merged engine.
//! The handler records no `dar_serve_*` series, so a process hosting both
//! a coordinator and its shards reports only the shards' traffic there.

use crate::coordinator::Coordinator;
use dar_serve::json::Json;
use dar_serve::protocol::{self, Request};
use dar_serve::{Frontend, Handler, Next, Reply, ServeConfig, ServerError};
use std::io;
use std::net::SocketAddr;
use std::str::Utf8Error;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

struct CoordinatorHandler {
    coordinator: Arc<Mutex<Coordinator>>,
    requests: AtomicU64,
    errors: AtomicU64,
    allow_remote_shutdown: bool,
    base_query: mining::RuleQuery,
}

impl Handler for CoordinatorHandler {
    fn handle(&self, line: Result<&str, Utf8Error>) -> Reply {
        self.requests.fetch_add(1, Ordering::Relaxed);
        match Request::from_line(line, &self.base_query) {
            Ok(request) => handle_request(request, self),
            Err((code, message)) => {
                Reply { response: error(self, code, &message), verb: "error", next: Next::Continue }
            }
        }
    }
}

/// The coordinator front-end's entry point.
pub struct CoordinatorServer;

impl CoordinatorServer {
    /// Binds `addr` and starts serving the client protocol over
    /// `coordinator` (which must already be connected to its shards).
    /// Returns immediately with a handle; the server runs on background
    /// threads until [`CoordinatorHandle::shutdown`] or a wire `shutdown`.
    ///
    /// # Errors
    /// Bind failures.
    pub fn start(coordinator: Coordinator, addr: &str) -> io::Result<CoordinatorHandle> {
        let cfg = coordinator.config();
        let front = ServeConfig {
            threads: cfg.threads,
            queue_depth: cfg.queue_depth,
            read_timeout: cfg.read_timeout,
            write_timeout: cfg.write_timeout,
            metrics_addr: cfg.metrics_addr.clone(),
            ..ServeConfig::default()
        };
        let handler = Arc::new(CoordinatorHandler {
            allow_remote_shutdown: cfg.allow_remote_shutdown,
            base_query: cfg.base_query.clone(),
            coordinator: Arc::new(Mutex::new(coordinator)),
            requests: AtomicU64::new(0),
            errors: AtomicU64::new(0),
        });
        let coordinator = Arc::clone(&handler.coordinator);
        let frontend = Frontend::start("dar-cluster", addr, handler, &front)?;
        Ok(CoordinatorHandle { frontend, coordinator })
    }
}

/// A handle to a running coordinator front-end.
pub struct CoordinatorHandle {
    frontend: Frontend,
    coordinator: Arc<Mutex<Coordinator>>,
}

impl CoordinatorHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.frontend.addr()
    }

    /// The coordinator, for in-process driving alongside the server.
    pub fn coordinator(&self) -> &Arc<Mutex<Coordinator>> {
        &self.coordinator
    }

    /// Triggers graceful shutdown (idempotent).
    pub fn shutdown(&self) {
        self.frontend.shutdown();
    }

    /// Waits for every thread to exit. Call [`CoordinatorHandle::shutdown`]
    /// first — or let a wire `shutdown` arrive — or this blocks.
    pub fn join(self) {
        self.frontend.join();
    }
}

fn handle_request(request: Request, ctx: &CoordinatorHandler) -> Reply {
    let verb = request.verb();
    let mut next = Next::Continue;
    let response = match request {
        Request::Ingest { rows } => {
            let count = rows.len() as u64;
            let result = lock(&ctx.coordinator).ingest(&rows);
            match result {
                Ok(total) => protocol::ingest_response(count, total),
                Err(e) => shard_error(ctx, &e),
            }
        }
        Request::Query { query } => {
            let mut coordinator = lock(&ctx.coordinator);
            match coordinator.query(&query) {
                Ok((outcome, coverage)) => {
                    let mut response = protocol::query_response(&outcome);
                    // The rescan rides along as *extra* keys so the base
                    // response stays byte-compatible with a single server
                    // when rescan is off. A degraded answer skips it: the
                    // SON pass needs every shard to be exact.
                    if coordinator.rescan_enabled() && !coverage.degraded {
                        match coordinator.rescan(&outcome) {
                            Ok((rows_rescanned, counts)) => {
                                if let Json::Obj(pairs) = &mut response {
                                    pairs.push((
                                        "rescan_rows".into(),
                                        Json::Num(rows_rescanned as f64),
                                    ));
                                    pairs.push((
                                        "rescan_counts".into(),
                                        Json::Arr(
                                            counts.iter().map(|&c| Json::Num(c as f64)).collect(),
                                        ),
                                    ));
                                }
                            }
                            Err(e) => return Reply { response: shard_error(ctx, &e), verb, next },
                        }
                    }
                    annotate(&mut response, &coverage);
                    response
                }
                Err(e) => shard_error(ctx, &e),
            }
        }
        Request::Clusters => match lock(&ctx.coordinator).clusters() {
            Ok((epoch, clusters, coverage)) => {
                let mut response = protocol::clusters_response(epoch, &clusters);
                annotate(&mut response, &coverage);
                response
            }
            Err(e) => shard_error(ctx, &e),
        },
        Request::Snapshot => match lock(&ctx.coordinator).snapshot() {
            Ok((_, epoch, tuples, coverage)) => {
                let mut response = protocol::snapshot_response(epoch, tuples, None);
                annotate(&mut response, &coverage);
                response
            }
            Err(e) => shard_error(ctx, &e),
        },
        Request::Stats => {
            let mut coordinator = lock(&ctx.coordinator);
            let (routed_batches, routed_tuples) = coordinator.routed();
            let rounds = coordinator.rounds();
            let live_shards = coordinator.live_shards();
            let shards = coordinator.shard_infos();
            drop(coordinator);
            let shard_items: Vec<Json> = shards
                .iter()
                .map(|s| {
                    Json::obj(vec![
                        ("addr", Json::Str(s.addr.clone())),
                        ("health", Json::Str(s.health.as_str().into())),
                        ("live", Json::Bool(s.live)),
                        ("tuples", Json::Num(s.tuples as f64)),
                        ("last_seq", Json::Num(s.last_seq as f64)),
                        ("degraded", Json::Bool(s.degraded)),
                        ("last_acked_seq", Json::Num(s.last_acked_seq as f64)),
                        ("expected_tuples", Json::Num(s.expected_tuples as f64)),
                    ])
                })
                .collect();
            Json::obj(vec![
                ("ok", Json::Bool(true)),
                ("verb", Json::Str("stats".into())),
                (
                    "coordinator",
                    Json::obj(vec![
                        ("shards", Json::Num(shard_items.len() as f64)),
                        ("live_shards", Json::Num(live_shards as f64)),
                        ("rounds", Json::Num(rounds as f64)),
                        ("routed_batches", Json::Num(routed_batches as f64)),
                        ("routed_tuples", Json::Num(routed_tuples as f64)),
                        ("requests", Json::Num(ctx.requests.load(Ordering::Relaxed) as f64)),
                        ("errors", Json::Num(ctx.errors.load(Ordering::Relaxed) as f64)),
                    ]),
                ),
                ("shards", Json::Arr(shard_items)),
            ])
        }
        Request::Advance => match lock(&ctx.coordinator).advance() {
            Ok(responses) => {
                let shard_items: Vec<Json> = responses
                    .into_iter()
                    .map(|(addr, mut response)| {
                        if let Json::Obj(pairs) = &mut response {
                            pairs.insert(0, ("addr".into(), Json::Str(addr)));
                        }
                        response
                    })
                    .collect();
                Json::obj(vec![
                    ("ok", Json::Bool(true)),
                    ("verb", Json::Str("advance".into())),
                    ("shards", Json::Arr(shard_items)),
                ])
            }
            Err(e) => shard_error(ctx, &e),
        },
        Request::Subscribe { .. } => error(
            ctx,
            "unsupported",
            "subscriptions attach to shards directly; the coordinator serves merged queries",
        ),
        Request::Metrics => protocol::metrics_response(),
        Request::Shutdown => {
            if ctx.allow_remote_shutdown {
                next = Next::Shutdown;
                protocol::shutdown_response()
            } else {
                error(ctx, "forbidden", "remote shutdown is disabled")
            }
        }
        Request::ShardIngest { .. }
        | Request::PullSnapshot
        | Request::ShardStats
        | Request::ShardRescan { .. } => {
            error(ctx, "bad-request", "shard verbs are spoken by shards; this is a coordinator")
        }
    };
    Reply { response, verb, next }
}

fn lock(coordinator: &Mutex<Coordinator>) -> std::sync::MutexGuard<'_, Coordinator> {
    coordinator.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Adds the coverage annotation to a degraded response; full-coverage
/// responses are left untouched (byte-identical to a healthy cluster's).
fn annotate(response: &mut Json, coverage: &crate::coordinator::Coverage) {
    if coverage.degraded {
        protocol::annotate_degraded(
            response,
            coverage.live_shards as u64,
            coverage.total_shards as u64,
            coverage.covered_tuples,
            coverage.expected_tuples,
        );
    }
}

/// Re-emits a shard's structured error verbatim (so a client sees the
/// same `degraded`/`rejected` codes it would talking to the shard
/// directly); wraps transport failures as `shard`.
fn shard_error(ctx: &CoordinatorHandler, e: &io::Error) -> Json {
    ctx.errors.fetch_add(1, Ordering::Relaxed);
    match ServerError::of(e) {
        Some(se) => protocol::error_response(&se.code, &se.message),
        None => protocol::error_response("shard", &e.to_string()),
    }
}

fn error(ctx: &CoordinatorHandler, code: &str, message: &str) -> Json {
    ctx.errors.fetch_add(1, Ordering::Relaxed);
    protocol::error_response(code, message)
}
