//! `ingest`: one closed-loop client sends 1000-row WBCD batches over TCP
//! to one in-process `dar-serve` with the WAL on; no query until a final
//! correctness query. Phase I (`birch`), the WAL (`durable`) and wire
//! decode (`serve`) do almost all the work; `mining`, `rank` and
//! `cluster` do none, which makes this the control for Phase II changes.

use crate::common::{self, batch, Probe, Reply, Tally, Wire, WorkDir};
use crate::layers::{self, Mark, Replay, ServerSide};
use crate::replica;
use crate::report::Report;
use crate::stats::{median, Samples};
use crate::trace::Tracer;
use crate::Opts;
use dar_durable::{DiskStorage, DurableStore};
use dar_engine::DarEngine;
use dar_serve::json;
use dar_serve::{protocol, Request, Server, ServerHandle};
use std::sync::Arc;
use std::time::Instant;

/// Input stream id of this workload's batches.
const STREAM: u64 = 1;
/// Tuples per batch.
const BATCH_ROWS: usize = 1000;
/// Batches preloaded during set-up, so the measured window starts past
/// the forest's initial growth.
const WARMUP_BATCHES: u64 = 20;
/// The tail percentile reported as `op_ms_tail`.
const TAIL: f64 = 90.0;

struct Instance {
    handle: ServerHandle,
    wire: Wire,
}

/// Set-up: the preload is applied in-process and committed to the WAL
/// (the state a recovered server boots into), then the server starts over
/// both.
fn start(opts: &Opts, dir: &WorkDir, k: usize) -> Result<Instance, String> {
    let wal = dir.sub(&format!("server-{k}")).map_err(|e| e.to_string())?.join("ingest.wal");
    let (mut store, _) = DurableStore::open(Arc::new(DiskStorage), None, Some(wal.clone()))
        .map_err(|e| format!("WAL: {e}"))?;
    let mut engine = DarEngine::new(common::partitioning(), common::engine_config())
        .map_err(|e| format!("engine: {e}"))?;
    for i in 0..WARMUP_BATCHES {
        let rows = batch(opts.seed, STREAM, i, BATCH_ROWS);
        engine.ingest(&rows).map_err(|e| format!("preload batch {i}: {e}"))?;
        store.log_batch(&rows).map_err(|e| format!("preload batch {i}: {e}"))?;
    }
    drop(store);
    let handle = Server::start(engine, "127.0.0.1:0", common::serve_config(Some(wal)))
        .map_err(|e| format!("server: {e}"))?;
    let wire = Wire::connect(handle.addr()).map_err(|e| format!("connect: {e}"))?;
    Ok(Instance { handle, wire })
}

fn stop(instance: Instance) -> Result<(), String> {
    drop(instance.wire);
    instance.handle.shutdown();
    instance.handle.join().map(|_| ()).map_err(|e| format!("server shutdown: {e}"))
}

pub fn run(opts: &Opts) -> Result<Report, String> {
    let dir = WorkDir::create("ingest").map_err(|e| e.to_string())?;
    let mut report = Report::default();
    layers::zero(&mut report);

    let (mut instance, setup_times) = common::set_up(|k| start(opts, &dir, k), stop)?;
    instance.wire.tally = Tally::default();

    // --- the measured window ------------------------------------------------
    let server_before = ServerSide::read(&["ingest"]);
    let mut acks = Samples::default();
    // The acknowledged batches, by index, with the server's response.
    let mut acked: Vec<(u64, String)> = Vec::new();
    let mut next = WARMUP_BATCHES;
    let mut heap_mb = None;
    let probe = Probe::start();
    let cpu_before = common::cpu_seconds() - probe.cpu_seconds();
    let started = Instant::now();
    let deadline = started + std::time::Duration::from_secs(opts.seconds);
    while Instant::now() < deadline {
        if acks.len() == layers::COUNT_PREFIX {
            heap_mb = Some(common::settled_heap_mb());
        }
        let rows = batch(opts.seed, STREAM, next, BATCH_ROWS);
        let (reply, elapsed) = instance.wire.call(&Request::Ingest { rows });
        match reply {
            Ok(Reply { line, value }) => {
                acks.push(elapsed.as_secs_f64() * 1e3);
                acked.push((next, line));
                let total = value.get("total").and_then(json::Json::as_u64);
                let expected = (WARMUP_BATCHES + acked.len() as u64) * BATCH_ROWS as u64;
                report.check(total == Some(expected), || {
                    format!("batch {next}: the server's total is {total:?}, {expected} were acked")
                });
            }
            Err(_) => acks.push_failure(),
        }
        next += 1;
    }
    let window = started.elapsed();
    let cpu = common::cpu_seconds() - probe.cpu_seconds() - cpu_before;
    let probe_ms = probe.finish();
    let heap_mb = heap_mb.unwrap_or_else(common::heap_mb);
    let peak_rss_mb = common::peak_rss_mb();
    let server = ServerSide::read(&["ingest"]).since(&server_before);

    let (final_reply, _) = instance.wire.call(&Request::Query { query: common::full_answer() });
    let final_line = match final_reply {
        Ok(reply) => reply.line,
        Err(e) => return Err(format!("final correctness query: {e}")),
    };
    report.tally = instance.wire.tally.clone();
    stop(instance)?;

    report.set("setup_s", median(&setup_times));
    let p50 = acks.percentile(50.0);
    let p90 = acks.percentile(90.0);
    report.set("op_ms_p50", p50.value);
    report.set("op_ms_mean", acks.finite_mean());
    report.set("op_ms_tail", acks.percentile(TAIL).value);
    report.set("ops_per_s", acked.len() as f64 / window.as_secs_f64());
    report.set_cpu(cpu * 1e3 / acked.len().max(1) as f64, probe_ms);
    report.set("heap_mb", heap_mb);
    report.line(format!("heap in use {heap_mb:.3} MiB, peak RSS {peak_rss_mb:.3} MiB"));
    report.line(format!(
        "ingest: {} batches of {BATCH_ROWS} acknowledged in {:.3} s ({:.0} tuples/s); \
         ack mean {:.3} ms, p50 {:.3} ms, p90 {:.3} ms ({} samples, {} beyond p90); \
         set-up {:?} s",
        acks.len(),
        window.as_secs_f64(),
        (acked.len() * BATCH_ROWS) as f64 / window.as_secs_f64(),
        acks.finite_mean(),
        p50.value,
        p90.value,
        acks.len(),
        p90.beyond,
        setup_times
    ));
    if !p90.is_supported() {
        report.line("WARNING: fewer than 10 samples beyond p90; lengthen --seconds");
    }

    control(opts, &acked, &final_line, &mut report)?;
    if opts.trace {
        let mut run = |name: &str, enabled: bool| -> Result<Replay, String> {
            let (replay, problems) = replay(opts, &dir, name, &acked, &final_line, enabled)?;
            report.problems.extend(problems);
            Ok(replay)
        };
        let (first, traced, second) =
            (run("untraced-1", false)?, run("traced", true)?, run("untraced-2", false)?);
        layers::common_figures(
            &mut report,
            &traced,
            [&first, &second],
            &acks,
            &server,
            server.requests,
        );
        let tuples = (traced.requests * BATCH_ROWS) as f64;
        let birch_allocs = traced.prefix_allocs(crate::trace::Layer::Birch);
        report.set(
            "birch.allocs_per_tuple",
            birch_allocs as f64 / (traced.prefix_requests * BATCH_ROWS).max(1) as f64,
        );
        report.set(
            "birch.tree_mb",
            layers::forest_mb(applied(&acked).map(|i| batch(opts.seed, STREAM, i, BATCH_ROWS))),
        );
        report
            .set("birch.insert_us_per_tuple", traced.tracer.span_ms("birch.insert") * 1e3 / tuples);
        let (b, a) = (&traced.before, &traced.after);
        report.set(
            "durable.fsyncs_per_batch",
            layers::ratio(
                b.counter_delta(a, "dar_durable_wal_fsyncs_total") as f64,
                traced.requests as f64,
            ),
        );
        report.set(
            "durable.wal_bytes_per_tuple",
            layers::ratio(b.counter_delta(a, "dar_durable_wal_bytes_total") as f64, tuples),
        );
        let residual = layers::attribute(&mut report, &traced.tracer, &[("ingest", &acks)]);
        report.set("residual.ingest_frac", residual);
    }
    Ok(report)
}

/// Indices of every batch the server applied: the preload, then the
/// acknowledged window batches.
fn applied(acked: &[(u64, String)]) -> impl Iterator<Item = u64> + '_ {
    (0..WARMUP_BATCHES).chain(acked.iter().map(|(i, _)| *i))
}

/// The correctness control: an in-process engine fed the same batches
/// must answer the final query with the same bytes.
fn control(
    opts: &Opts,
    acked: &[(u64, String)],
    final_line: &str,
    report: &mut Report,
) -> Result<(), String> {
    let mut engine = DarEngine::new(common::partitioning(), common::engine_config())
        .map_err(|e| format!("control engine: {e}"))?;
    for i in applied(acked) {
        engine.ingest(&batch(opts.seed, STREAM, i, BATCH_ROWS)).map_err(|e| e.to_string())?;
    }
    let outcome = engine.query(&common::full_answer()).map_err(|e| e.to_string())?;
    let expected = protocol::query_response(&outcome).encode();
    report.check(expected == final_line, || {
        format!(
            "final answer differs from an in-process engine fed the same {} batches \
             ({} vs {} bytes)",
            WARMUP_BATCHES as usize + acked.len(),
            final_line.len(),
            expected.len()
        )
    });
    Ok(())
}

/// Replays the run's request sequence through the public functions the
/// server calls, in its order, with a span around each call; checks every
/// response against the wire run's.
fn replay(
    opts: &Opts,
    dir: &WorkDir,
    name: &str,
    acked: &[(u64, String)],
    final_line: &str,
    enabled: bool,
) -> Result<(Replay, Vec<String>), String> {
    let mut problems = Vec::new();
    let wal = dir.sub(&format!("replay-{name}")).map_err(|e| e.to_string())?.join("replay.wal");
    let (mut store, _) = DurableStore::open(Arc::new(DiskStorage), None, Some(wal))
        .map_err(|e| format!("replay WAL: {e}"))?;
    let mut engine = DarEngine::new(common::partitioning(), common::engine_config())
        .map_err(|e| format!("replay engine: {e}"))?;
    let mut tracer = Tracer::new(enabled);
    let mut one = |tracer: &mut Tracer, i: u64| {
        ingest_request(tracer, &mut engine, &mut store, batch(opts.seed, STREAM, i, BATCH_ROWS))
    };

    tracer.outside();
    for i in 0..WARMUP_BATCHES {
        one(&mut tracer, i)?;
    }
    tracer.request("ingest");
    let before = layers::begin_window(&tracer);
    let started = Instant::now();
    let mut prefix = None;
    for (j, (i, wire)) in acked.iter().enumerate() {
        let line = one(&mut tracer, *i)?;
        if &line != wire {
            problems.push(format!("replayed batch {i} answered {line}, the server {wire}"));
        }
        layers::mark_prefix(j + 1, &mut prefix);
    }
    let wall = started.elapsed();
    let after = Mark::now();
    let (prefix_requests, prefix) = layers::prefix_or_end(prefix, acked.len(), &after);

    let outcome = engine.query(&common::full_answer()).map_err(|e| e.to_string())?;
    if protocol::query_response(&outcome).encode() != final_line {
        problems.push(format!("{name} replay: final answer differs from the server's"));
    }
    let requests = acked.len();
    Ok((Replay { tracer, requests, wall, before, prefix, prefix_requests, after }, problems))
}

/// One `ingest` round trip: client encode, server decode, engine apply,
/// WAL commit, server encode, client decode.
fn ingest_request(
    tracer: &mut Tracer,
    engine: &mut DarEngine,
    store: &mut DurableStore,
    rows: Vec<Vec<f64>>,
) -> Result<String, String> {
    replica::round_trip(tracer, Request::Ingest { rows }, |t, request| {
        let Request::Ingest { rows } = request else {
            return Err("a replayed ingest decoded as another verb".into());
        };
        t.span("birch.insert", |_| engine.ingest(&rows)).map_err(|e| e.to_string())?;
        t.span("durable.wal_append", |_| store.log_batch(&rows)).map_err(|e| e.to_string())?;
        Ok(t.span("serve.encode", |_| {
            protocol::ingest_response(rows.len() as u64, engine.tuples()).encode()
        }))
    })
}
