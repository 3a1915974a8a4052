//! `cluster`: a coordinator over 2 in-process shards (WAL on), preloaded
//! through the coordinator's own ingest path. Two clients then run side
//! by side: an open-loop stream of 500-row batches at a fixed rate below
//! capacity, each ack timed from its due time, and a closed-loop client
//! of ranked top-k queries, each sent once a batch it has not seen is
//! acknowledged. Every query therefore pulls the shard that moved,
//! decodes and merges the snapshots, closes a new epoch and builds Phase
//! II cold: writes beside reads, every read cold, and contention on the
//! coordinator's single mutex.

use crate::common::{self, batch, Probe, Reply, Tally, Wire, WorkDir};
use crate::layers::{self, Mark, Replay, ServerSide};
use crate::query::digest;
use crate::replica::{round_trip, serve_query, PhaseTwo};
use crate::report::Report;
use crate::stats::{median, Samples};
use crate::trace::{Layer, Tracer};
use crate::Opts;
use dar_cluster::{ClusterConfig, Coordinator, CoordinatorHandle, CoordinatorServer};
use dar_durable::{DiskStorage, DurableStore};
use dar_engine::snapshot::Snapshot;
use dar_engine::DarEngine;
use dar_serve::json::{self, Json};
use dar_serve::{protocol, Request, Server, ServerHandle};
use mining::{DensitySpec, Measure, RuleQuery};
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

const SHARDS: usize = 2;
const PRELOAD_STREAM: u64 = 3;
const LIVE_STREAM: u64 = 4;
const BATCH_ROWS: usize = 500;
const PRELOAD_BATCHES: u64 = 20;
const PRELOAD_TUPLES: u64 = PRELOAD_BATCHES * BATCH_ROWS as u64;
/// The open-loop ingest rate, batches per second: below the capacity of
/// one connection even while cold queries hold the coordinator.
const RATE: f64 = 2.7;
/// The tail percentile reported as `op_ms_tail` and for the ingest acks: a
/// window holds about `RATE · seconds` cold queries and acks, too few for
/// p90 to have 10 beyond it.
const TAIL: f64 = 70.0;

/// The ranked top-k knob sets the query client cycles through.
fn queries() -> Vec<RuleQuery> {
    let ranked = |degree_factor: f64, measure: Measure, top_k: usize| RuleQuery {
        density: DensitySpec::Auto { factor: 3.0 },
        degree_factor,
        measure,
        top_k,
        prune_redundant: true,
        ..common::base_query()
    };
    vec![
        ranked(2.0, Measure::Lift, 10),
        ranked(2.0, Measure::Conviction, 20),
        ranked(1.5, Measure::Leverage, 10),
        ranked(2.5, Measure::Degree, 25),
    ]
}

/// The final correctness query: the full unranked answer at a density no
/// window query used, so it is built cold whether or not a batch arrived
/// after the last window query.
fn final_query() -> RuleQuery {
    common::base_query()
}

fn knobs(seed: u64, j: usize) -> RuleQuery {
    let all = queries();
    all[(seed as usize + j) % all.len()].clone()
}

struct Instance {
    shards: Vec<ServerHandle>,
    front: CoordinatorHandle,
    first_query: Reply,
}

fn start(opts: &Opts, dir: &WorkDir, k: usize) -> Result<Instance, String> {
    let mut shards = Vec::new();
    for s in 0..SHARDS {
        let wal = dir.sub(&format!("set-up-{k}-shard-{s}")).map_err(|e| e.to_string())?;
        let engine = DarEngine::new(common::partitioning(), common::engine_config())
            .map_err(|e| format!("shard engine: {e}"))?;
        let config = common::serve_config(Some(wal.join("shard.wal")));
        shards
            .push(Server::start(engine, "127.0.0.1:0", config).map_err(|e| format!("shard: {e}"))?);
    }
    let config = ClusterConfig {
        shards: shards.iter().map(|h| h.addr().to_string()).collect(),
        timeout: common::TIMEOUT,
        engine: common::engine_config(),
        threads: common::threads(),
        read_timeout: common::TIMEOUT,
        write_timeout: common::TIMEOUT,
        base_query: common::base_query(),
        deadline: common::TIMEOUT,
        ..ClusterConfig::default()
    };
    let coordinator = Coordinator::connect(config).map_err(|e| format!("coordinator: {e}"))?;
    let front = CoordinatorServer::start(coordinator, "127.0.0.1:0")
        .map_err(|e| format!("coordinator front end: {e}"))?;
    {
        let mut coordinator =
            front.coordinator().lock().map_err(|_| "coordinator lock poisoned")?;
        for i in 0..PRELOAD_BATCHES {
            coordinator
                .ingest(&batch(opts.seed, PRELOAD_STREAM, i, BATCH_ROWS))
                .map_err(|e| format!("preload batch {i}: {e}"))?;
        }
    }
    let mut wire = Wire::connect(front.addr()).map_err(|e| format!("connect: {e}"))?;
    let first_query = wire
        .call(&Request::Query { query: knobs(opts.seed, 0) })
        .0
        .map_err(|e| format!("first query: {e}"))?;
    Ok(Instance { shards, front, first_query })
}

fn stop(instance: Instance) -> Result<(), String> {
    instance.front.shutdown();
    instance.front.join();
    for shard in instance.shards {
        shard.shutdown();
        shard.join().map_err(|e| format!("shard shutdown: {e}"))?;
    }
    Ok(())
}

/// How far the ingest stream has been acknowledged.
#[derive(Default)]
struct Progress {
    /// The coordinator's routed-tuple total in the latest ack.
    acked_total: u64,
}

/// The open-loop ingest client's record.
#[derive(Default)]
struct Stream {
    /// Ack latency from each batch's due time.
    from_due: Samples,
    /// Round trip from the actual send.
    round_trips: Samples,
    /// How late the generator sent each batch.
    lateness: Samples,
    /// Batches offered.
    batches: u64,
    /// Indices of the acknowledged live batches, in ack order (the order
    /// the coordinator assigned their sequence numbers).
    acked: Vec<u64>,
    tally: Tally,
    problems: Vec<String>,
}

/// One window query as the wire run saw it.
struct Seen {
    /// Which knob set the query sent.
    knob: usize,
    /// Acknowledged live batches the answer covered.
    live_batches: u64,
    digest: u64,
}

#[derive(Default)]
struct Reads {
    latencies: Samples,
    /// Heap in use once the first `COUNT_PREFIX` queries were answered.
    heap_mb: Option<f64>,
    seen: Vec<Seen>,
    tally: Tally,
    problems: Vec<String>,
}

/// Acknowledged live batches an answer covered, recovered from its `s0`
/// (the engine's `ceil(min_support_frac · tuples)`, which moves by 15 per
/// 500-row batch, so every prefix of the stream has its own value).
fn live_batches_from_s0(s0: u64, max_batches: u64) -> Option<u64> {
    let frac = common::engine_config().min_support_frac;
    (0..=max_batches).find(|k| {
        let tuples = PRELOAD_TUPLES + k * BATCH_ROWS as u64;
        ((frac * tuples as f64).ceil() as u64).max(1) == s0
    })
}

fn ingest_stream(
    opts: &Opts,
    addr: std::net::SocketAddr,
    started: Instant,
    deadline: Instant,
    progress: &(Mutex<Progress>, Condvar),
) -> Stream {
    let mut out = Stream::default();
    let mut wire = match Wire::connect(addr) {
        Ok(wire) => wire,
        Err(e) => {
            out.problems.push(format!("ingest client connect: {e}"));
            return out;
        }
    };
    let interval = Duration::from_secs_f64(1.0 / RATE);
    let mut i = 0u64;
    loop {
        let due = started + interval * i as u32;
        if due >= deadline {
            break;
        }
        let rows = batch(opts.seed, LIVE_STREAM, i, BATCH_ROWS);
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        let sent_at = Instant::now();
        out.lateness.push((sent_at - due).as_secs_f64() * 1e3);
        let (reply, round_trip) = wire.call(&Request::Ingest { rows });
        let acked_at = Instant::now();
        match reply {
            Ok(reply) => {
                out.from_due.push((acked_at - due).as_secs_f64() * 1e3);
                out.round_trips.push(round_trip.as_secs_f64() * 1e3);
                out.acked.push(i);
                let total = reply.value.get("total").and_then(Json::as_u64);
                let expected = PRELOAD_TUPLES + (out.acked.len() * BATCH_ROWS) as u64;
                if total != Some(expected) {
                    out.problems.push(format!(
                        "live batch {i}: the coordinator's total is {total:?}, {expected} were acked"
                    ));
                }
                let (lock, cv) = progress;
                lock.lock().expect("progress lock").acked_total = expected;
                cv.notify_all();
            }
            Err(_) => {
                out.from_due.push_failure();
                out.round_trips.push_failure();
            }
        }
        i += 1;
    }
    out.batches = i;
    out.tally = wire.tally;
    out
}

fn query_client(
    opts: &Opts,
    addr: std::net::SocketAddr,
    deadline: Instant,
    progress: &(Mutex<Progress>, Condvar),
) -> Reads {
    let mut out = Reads::default();
    let mut wire = match Wire::connect(addr) {
        Ok(wire) => wire,
        Err(e) => {
            out.problems.push(format!("query client connect: {e}"));
            return out;
        }
    };
    let max_batches = (RATE * opts.seconds as f64).ceil() as u64 + 1;
    let mut seen_total = PRELOAD_TUPLES;
    let mut j = 1;
    loop {
        // Wait for a batch the previous answer did not include.
        {
            let (lock, cv) = progress;
            let mut p = lock.lock().expect("progress lock");
            while p.acked_total <= seen_total {
                let now = Instant::now();
                if now >= deadline {
                    break;
                }
                p = cv.wait_timeout(p, deadline - now).expect("progress lock").0;
            }
            if Instant::now() >= deadline {
                break;
            }
            seen_total = p.acked_total;
        }
        let knob = j;
        j += 1;
        let (reply, elapsed) = wire.call(&Request::Query { query: knobs(opts.seed, knob) });
        match reply {
            Ok(reply) => {
                out.latencies.push(elapsed.as_secs_f64() * 1e3);
                if out.latencies.len() == layers::COUNT_PREFIX {
                    out.heap_mb = Some(common::heap_mb());
                }
                let s0 = reply.value.get("s0").and_then(Json::as_u64).unwrap_or(0);
                match live_batches_from_s0(s0, max_batches) {
                    Some(live) => {
                        seen_total = seen_total.max(PRELOAD_TUPLES + live * BATCH_ROWS as u64);
                        out.seen.push(Seen {
                            knob,
                            live_batches: live,
                            digest: digest(&reply.line),
                        });
                    }
                    None => out.problems.push(format!("query answered s0 {s0}, no acked prefix")),
                }
            }
            Err(_) => out.latencies.push_failure(),
        }
    }
    out.tally = wire.tally;
    out
}

pub fn run(opts: &Opts) -> Result<Report, String> {
    let dir = WorkDir::create("cluster").map_err(|e| e.to_string())?;
    let mut report = Report::default();
    layers::zero(&mut report);

    let (instance, setup_times) = common::set_up(|k| start(opts, &dir, k), stop)?;
    let first_line = instance.first_query.line.clone();

    // --- the measured window ------------------------------------------------
    let verbs = ["shard_ingest", "pull_snapshot"];
    let server_before = ServerSide::read(&verbs);
    let pulls_before = common::counter("dar_cluster_snapshot_pulls_total");
    let reuses_before = common::counter("dar_cluster_snapshot_reuses_total");
    let addr = instance.front.addr();
    let progress = (Mutex::new(Progress { acked_total: PRELOAD_TUPLES }), Condvar::new());
    let probe = Probe::start();
    let cpu_before = common::cpu_seconds() - probe.cpu_seconds();
    let started = Instant::now();
    let deadline = started + Duration::from_secs(opts.seconds);
    let (stream, reads) = std::thread::scope(|scope| {
        let writer = scope.spawn(|| ingest_stream(opts, addr, started, deadline, &progress));
        let reader = scope.spawn(|| query_client(opts, addr, deadline, &progress));
        (writer.join(), reader.join())
    });
    let stream = stream.map_err(|_| "the ingest client panicked")?;
    let reads = reads.map_err(|_| "the query client panicked")?;
    let window = started.elapsed();
    let cpu = common::cpu_seconds() - probe.cpu_seconds() - cpu_before;
    let probe_ms = probe.finish();
    let peak_rss_mb = common::peak_rss_mb();
    let server = ServerSide::read(&verbs).since(&server_before);
    let pulls = common::counter("dar_cluster_snapshot_pulls_total") - pulls_before;
    let reuses = common::counter("dar_cluster_snapshot_reuses_total") - reuses_before;

    let mut wire = Wire::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let final_reply = wire.call(&Request::Query { query: final_query() }).0;
    let final_reply = final_reply.map_err(|e| format!("final correctness query: {e}"))?;
    drop(wire);
    stop(instance)?;

    report.problems.extend(stream.problems.iter().cloned());
    report.problems.extend(reads.problems.iter().cloned());
    report.tally.absorb(&stream.tally);
    report.tally.absorb(&reads.tally);
    let live = reads.seen.iter().map(|s| s.live_batches);
    report.check(live.clone().zip(live.skip(1)).all(|(a, b)| a < b), || {
        "a window query saw no batch the previous one had not".into()
    });

    let latencies = &reads.latencies;
    let (p50, tail) = (latencies.percentile(50.0), latencies.percentile(TAIL));
    report.set("setup_s", median(&setup_times));
    report.set("op_ms_p50", p50.value);
    report.set("op_ms_mean", latencies.finite_mean());
    report.set("op_ms_tail", tail.value);
    report.set("ops_per_s", reads.seen.len() as f64 / window.as_secs_f64());
    // The ingest stream's CPU is charged to the queries it makes cold.
    report.set_cpu(cpu * 1e3 / reads.seen.len().max(1) as f64, probe_ms);
    let heap_mb = reads.heap_mb.unwrap_or_else(common::heap_mb);
    report.set("heap_mb", heap_mb);
    report.line(format!("heap in use {heap_mb:.3} MiB, peak RSS {peak_rss_mb:.3} MiB"));
    let (ack50, ack_tail) = (stream.from_due.percentile(50.0), stream.from_due.percentile(TAIL));
    let late90 = stream.lateness.percentile(90.0);
    report.line(format!(
        "cluster: {} cold queries in {:.3} s; mean {:.3} ms, p50 {:.3} ms, p{TAIL} {:.3} ms \
         ({} beyond p{TAIL}); set-up {setup_times:?} s",
        latencies.len(),
        window.as_secs_f64(),
        latencies.finite_mean(),
        p50.value,
        tail.value,
        tail.beyond
    ));
    report.line(format!(
        "  ingest stream: {} batches of {BATCH_ROWS} offered at {RATE}/s; ack from due p50 \
         {:.3} ms, p{TAIL} {:.3} ms ({} beyond); {:.0} acknowledged tuples/s",
        stream.batches,
        ack50.value,
        ack_tail.value,
        ack_tail.beyond,
        (stream.from_due.len() as u64 - stream.tally.failed) as f64 * BATCH_ROWS as f64
            / window.as_secs_f64()
    ));
    report.line(format!(
        "  generator lateness: p90 {:.3} ms, max {:.3} ms; {pulls} snapshot pulls, {reuses} reuses",
        late90.value,
        stream.lateness.max()
    ));
    if late90.value > 1e3 / RATE {
        report.line("WARNING: the open-loop generator fell behind its schedule (p90 lateness above one interval)");
    }
    if !tail.is_supported() || !ack_tail.is_supported() {
        report.line(
            "WARNING: fewer than 10 samples beyond a reported percentile; lengthen --seconds",
        );
    }

    let routed = PRELOAD_BATCHES + stream.acked.len() as u64;
    control(opts, &stream.acked, &final_reply, &mut report)?;
    if opts.trace {
        let history = History {
            first_line,
            reads: &reads,
            final_line: &final_reply.line,
            acked: &stream.acked,
        };
        let mut run = |name: &str, enabled: bool| -> Result<_, String> {
            let (replay, problems) = replay(opts, &dir, name, &history, enabled)?;
            report.problems.extend(problems);
            Ok(replay)
        };
        let ((first, _), (traced, pulled), (second, _)) =
            (run("untraced-1", false)?, run("traced", true)?, run("untraced-2", false)?);
        let front_requests = (stream.round_trips.len() + latencies.len()) as u64;
        let mut all = stream.round_trips.clone();
        all.extend(latencies);
        layers::common_figures(
            &mut report,
            &traced,
            [&first, &second],
            &all,
            &server,
            front_requests,
        );
        let queries = reads.seen.len().max(1) as f64;
        report.set("cluster.pulls_per_query", pulls as f64 / queries);
        report.set("cluster.reuse_ratio", layers::ratio(reuses as f64, (pulls + reuses) as f64));
        report.set("cluster.ingest_ack_ms_p50", ack50.value);
        report.set("cluster.ingest_ack_ms_p70", ack_tail.value);
        report.set("cluster.generator_late_ms_p90", late90.value);
        report.set("cluster.generator_late_ms_max", stream.lateness.max());
        layers::phase_two_figures(&mut report, &server, reads.seen.len() as u64);
        report
            .set("engine.snapshot_mb", pulled.1 as f64 / pulled.0.max(1) as f64 / (1 << 20) as f64);
        let mining_allocs = traced.before.allocs_delta(&traced.after, Layer::Mining);
        report.set("mining.allocs_per_query", mining_allocs as f64 / queries);
        let shard_mb: f64 = (0..SHARDS as u64)
            .map(|s| {
                layers::forest_mb(
                    (1..=routed)
                        .filter(|seq| (seq - 1) % SHARDS as u64 == s)
                        .map(|seq| routed_batch(opts, &stream.acked, seq)),
                )
            })
            .sum();
        report.set("birch.tree_mb", shard_mb);
        let tuples = (stream.acked.len() * BATCH_ROWS).max(1) as f64;
        let birch_allocs = traced.before.allocs_delta(&traced.after, Layer::Birch);
        report.set("birch.allocs_per_tuple", birch_allocs as f64 / tuples);
        report
            .set("birch.insert_us_per_tuple", traced.tracer.span_ms("birch.insert") * 1e3 / tuples);
        let (b, a) = (&traced.before, &traced.after);
        report.set(
            "durable.fsyncs_per_batch",
            layers::ratio(
                b.counter_delta(a, "dar_durable_wal_fsyncs_total") as f64,
                stream.acked.len() as f64,
            ),
        );
        report.set(
            "durable.wal_bytes_per_tuple",
            layers::ratio(b.counter_delta(a, "dar_durable_wal_bytes_total") as f64, tuples),
        );
        let ingest_frac =
            layers::attribute(&mut report, &traced.tracer, &[("ingest", &stream.round_trips)]);
        let query_frac = layers::attribute(&mut report, &traced.tracer, &[("query", latencies)]);
        report.set("residual.ingest_frac", ingest_frac);
        report.set("residual.query_frac", query_frac);
    }
    Ok(report)
}

/// The correctness control: per-shard engines fed the same routed batches
/// (global sequence `s` lives on shard `(s-1) mod n`), combined with
/// `DarEngine::merge_snapshots`, must answer the final query with the
/// coordinator's bytes. The comparison is not against one engine:
/// non-dyadic moment sums depend on summation order.
fn control(
    opts: &Opts,
    acked: &[u64],
    final_reply: &Reply,
    report: &mut Report,
) -> Result<(), String> {
    let mut shards: Vec<DarEngine> = (0..SHARDS)
        .map(|_| DarEngine::new(common::partitioning(), common::engine_config()))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("control engine: {e}"))?;
    let routed = PRELOAD_BATCHES + acked.len() as u64;
    for seq in 1..=routed {
        shards[((seq - 1) % SHARDS as u64) as usize]
            .ingest(&routed_batch(opts, acked, seq))
            .map_err(|e| e.to_string())?;
    }
    let bodies: Vec<Vec<u8>> = shards
        .iter_mut()
        .map(DarEngine::snapshot)
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    let epoch = final_reply.value.get("epoch").and_then(Json::as_u64).unwrap_or(0);
    let mut merged =
        DarEngine::merge_snapshots(&bodies, epoch.saturating_sub(1), common::engine_config())
            .map_err(|e| format!("control merge: {e}"))?;
    let outcome = merged.query(&final_query()).map_err(|e| e.to_string())?;
    let expected = protocol::query_response(&outcome).encode();
    report.check(expected == final_reply.line, || {
        format!(
            "final answer differs from per-shard engines fed the same {routed} routed batches and \
             merged ({} vs {} bytes)",
            final_reply.line.len(),
            expected.len()
        )
    });
    Ok(())
}

/// The batch the coordinator assigned global sequence `seq` (1-based):
/// the preload first, then the live stream.
fn routed_batch(opts: &Opts, acked: &[u64], seq: u64) -> Vec<Vec<f64>> {
    if seq <= PRELOAD_BATCHES {
        batch(opts.seed, PRELOAD_STREAM, seq - 1, BATCH_ROWS)
    } else {
        let live = acked[(seq - 1 - PRELOAD_BATCHES) as usize];
        batch(opts.seed, LIVE_STREAM, live, BATCH_ROWS)
    }
}

/// What the replay needs from the wire run.
struct History<'a> {
    first_line: String,
    reads: &'a Reads,
    final_line: &'a str,
    /// Indices of the acknowledged live batches, in ack order.
    acked: &'a [u64],
}

struct ShardReplica {
    engine: DarEngine,
    store: DurableStore,
    last_seq: u64,
}

/// The coordinator's state, rebuilt from public functions: routing, the
/// per-shard parsed-snapshot cache keyed by acked sequence, and merge
/// rounds.
struct CoordinatorReplica {
    shards: Vec<ShardReplica>,
    acked: Vec<u64>,
    cache: Vec<Option<(u64, Snapshot)>>,
    next_seq: u64,
    routed_tuples: u64,
    rounds: u64,
    merged: Option<PhaseTwo>,
    pool: dar_par::ThreadPool,
    /// Snapshots pulled and their total bytes.
    pulled: (u64, u64),
}

impl CoordinatorReplica {
    fn new(dir: &WorkDir, name: &str) -> Result<CoordinatorReplica, String> {
        let mut shards = Vec::new();
        for s in 0..SHARDS {
            let wal: PathBuf = dir
                .sub(&format!("replay-{name}-shard-{s}"))
                .map_err(|e| e.to_string())?
                .join("shard.wal");
            let (store, _) = DurableStore::open(Arc::new(DiskStorage), None, Some(wal))
                .map_err(|e| format!("replay WAL: {e}"))?;
            let engine = DarEngine::new(common::partitioning(), common::engine_config())
                .map_err(|e| format!("replay engine: {e}"))?;
            shards.push(ShardReplica { engine, store, last_seq: 0 });
        }
        Ok(CoordinatorReplica {
            shards,
            acked: vec![0; SHARDS],
            cache: (0..SHARDS).map(|_| None).collect(),
            next_seq: 1,
            routed_tuples: 0,
            rounds: 0,
            merged: None,
            pool: dar_par::ThreadPool::resolve(common::ENGINE_THREADS),
            pulled: (0, 0),
        })
    }

    /// One front-end `ingest`: client encode, coordinator decode, the
    /// routed `shard_ingest` round trip, coordinator encode, client decode.
    fn ingest(&mut self, t: &mut Tracer, rows: Vec<Vec<f64>>) -> Result<String, String> {
        round_trip(t, Request::Ingest { rows }, |t, request| {
            let Request::Ingest { rows } = request else {
                return Err("a replayed ingest decoded as another verb".into());
            };
            let seq = self.next_seq;
            let idx = ((seq - 1) % SHARDS as u64) as usize;
            let shard = &mut self.shards[idx];
            t.span("cluster.ingest", |t| {
                let forward = Request::ShardIngest { seq, rows: rows.clone() };
                round_trip(t, forward, |t, request| {
                    let Request::ShardIngest { seq, rows } = request else {
                        return Err("a replayed shard_ingest decoded as another verb".into());
                    };
                    t.span("birch.insert", |_| shard.engine.ingest(&rows))
                        .map_err(|e| e.to_string())?;
                    t.span("durable.wal_append", |_| shard.store.log_batch(&rows))
                        .map_err(|e| e.to_string())?;
                    shard.last_seq = shard.last_seq.max(seq);
                    let total = shard.engine.tuples();
                    Ok(t.span("serve.encode", |_| {
                        protocol::shard_ingest_response(seq, true, rows.len() as u64, total)
                            .encode()
                    }))
                })
            })?;
            self.acked[idx] = seq;
            self.next_seq += 1;
            self.routed_tuples += rows.len() as u64;
            // The merged view is now stale.
            self.merged = None;
            Ok(t.span("serve.encode", |_| {
                protocol::ingest_response(rows.len() as u64, self.routed_tuples).encode()
            }))
        })
    }

    /// One front-end `query`: client encode, coordinator decode, the merge
    /// round when ingest moved a shard, the merged engine's query path,
    /// coordinator encode, client decode.
    fn query(&mut self, t: &mut Tracer, query: RuleQuery) -> Result<String, String> {
        round_trip(t, Request::Query { query }, |t, request| {
            if self.merged.is_none() {
                self.merge(t)?;
            }
            serve_query(t, self.merged.as_mut().expect("merged above"), request)
        })
    }

    fn merge(&mut self, t: &mut Tracer) -> Result<(), String> {
        let mut fresh = Vec::new();
        for i in 0..SHARDS {
            if matches!(&self.cache[i], Some((seq, _)) if *seq == self.acked[i]) {
                continue;
            }
            let shard = &mut self.shards[i];
            let pool = &self.pool;
            let snap = t.span("cluster.pull", |t| -> Result<Snapshot, String> {
                t.span("engine.epoch_close", |_| {
                    shard.engine.clusters();
                });
                let body = t
                    .span("engine.snapshot_encode", |_| shard.engine.snapshot())
                    .map_err(|e| e.to_string())?;
                let sealed = dar_durable::seal_bytes(&body, shard.last_seq);
                let (epoch, tuples) = (shard.engine.epoch(), shard.engine.tuples());
                let wire = t.span("serve.encode", |_| {
                    protocol::pull_snapshot_response(epoch, tuples, &sealed).encode()
                });
                let received = t.span("serve.decode", |_| -> Result<Vec<u8>, String> {
                    let value = json::parse(&wire).map_err(|e| e.to_string())?;
                    let b64 = value.get("snapshot_b64").and_then(Json::as_str).ok_or("no body")?;
                    dar_serve::b64::decode(b64)
                })?;
                let (body, _) = dar_durable::unseal_bytes(&received)?;
                let size = body.len() as u64;
                let snap = t
                    .span("engine.snapshot_decode", |_| {
                        dar_engine::snapshot::parse_snapshot_bytes(body, pool)
                    })
                    .map_err(|e| e.to_string())?;
                self.pulled = (self.pulled.0 + 1, self.pulled.1 + size);
                Ok(snap)
            })?;
            fresh.push((i, snap));
        }
        for (i, snap) in fresh {
            self.cache[i] = Some((self.acked[i], snap));
        }
        let rounds = self.rounds;
        let cache = &self.cache;
        let mut merged = t
            .span("cluster.merge", |_| {
                let snaps: Vec<Snapshot> = cache
                    .iter()
                    .map(|c| c.as_ref().expect("every shard pulled").1.clone())
                    .collect();
                DarEngine::merge_parsed_snapshots(snaps, rounds, common::engine_config())
            })
            .map_err(|e| format!("replay merge: {e}"))?;
        self.rounds += 1;
        self.merged = Some(PhaseTwo::open(&mut merged, t)?);
        Ok(())
    }
}

type Replayed = ((Replay, (u64, u64)), Vec<String>);

/// Replays the coordinator's serialized history: the preload, the first
/// query, then each window query after exactly the live batches its
/// answer covered, then the final query. Every answer is compared with
/// the wire run's bytes.
fn replay(
    opts: &Opts,
    dir: &WorkDir,
    name: &str,
    h: &History,
    enabled: bool,
) -> Result<Replayed, String> {
    let mut problems = Vec::new();
    let mut tracer = Tracer::new(enabled);
    let mut c = CoordinatorReplica::new(dir, name)?;
    tracer.outside();
    for i in 0..PRELOAD_BATCHES {
        c.ingest(&mut tracer, batch(opts.seed, PRELOAD_STREAM, i, BATCH_ROWS))?;
    }
    if c.query(&mut tracer, knobs(opts.seed, 0))? != h.first_line {
        problems.push(format!("{name} replay: the first query differs from the coordinator's"));
    }

    let before = layers::begin_window(&tracer);
    let pulled_before = c.pulled;
    let started = Instant::now();
    let live_batch = |k: u64| batch(opts.seed, LIVE_STREAM, h.acked[k as usize], BATCH_ROWS);
    let mut live = 0u64;
    let mut requests = 0;
    let mut prefix = None;
    for (j, seen) in h.reads.seen.iter().enumerate() {
        tracer.request("ingest");
        while live < seen.live_batches {
            c.ingest(&mut tracer, live_batch(live))?;
            live += 1;
            requests += 1;
            layers::mark_prefix(requests, &mut prefix);
        }
        tracer.request("query");
        let line = c.query(&mut tracer, knobs(opts.seed, seen.knob))?;
        requests += 1;
        layers::mark_prefix(requests, &mut prefix);
        if digest(&line) != seen.digest {
            problems
                .push(format!("{name} replay: window query {j} differs from the coordinator's"));
        }
    }
    tracer.request("ingest");
    while live < h.acked.len() as u64 {
        c.ingest(&mut tracer, live_batch(live))?;
        live += 1;
        requests += 1;
        layers::mark_prefix(requests, &mut prefix);
    }
    let wall = started.elapsed();
    let after = Mark::now();
    let (prefix_requests, prefix) = layers::prefix_or_end(prefix, requests, &after);
    let pulled = (c.pulled.0 - pulled_before.0, c.pulled.1 - pulled_before.1);

    tracer.outside();
    if c.query(&mut tracer, final_query())? != h.final_line {
        problems.push(format!("{name} replay: the final answer differs from the coordinator's"));
    }
    let replay = Replay { tracer, requests, wall, before, prefix, prefix_requests, after };
    Ok(((replay, pulled), problems))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_reported_tail_has_ten_samples_beyond_it() {
        // One query per acknowledged batch: a full-length window holds
        // RATE · run_seconds cold queries.
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let spec = json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        let seconds = spec.get("run_seconds").and_then(Json::as_f64).expect("run_seconds");
        let queries = (RATE * seconds).floor() as usize;
        let latencies: Vec<f64> = (0..queries).map(|i| i as f64).collect();
        assert!(crate::stats::nearest_rank(&latencies, TAIL).is_supported());
        assert!(crate::stats::nearest_rank(&latencies, 50.0).is_supported());
    }

    #[test]
    fn every_stream_prefix_has_its_own_s0() {
        let frac = common::engine_config().min_support_frac;
        let s0 = |k: u64| {
            let tuples = PRELOAD_TUPLES + k * BATCH_ROWS as u64;
            ((frac * tuples as f64).ceil() as u64).max(1)
        };
        for k in 0..2000 {
            assert_eq!(live_batches_from_s0(s0(k), 2000), Some(k));
        }
    }
}
