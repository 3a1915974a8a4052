//! `query`: the server is preloaded during set-up (engine built
//! in-process, handed to `Server::start`, first cold query run), then one
//! closed-loop client sends a seeded query mix over a single epoch:
//! memoized dashboard knob sets, re-tuned rank knobs on cached artifacts,
//! first-time density factors built cold, and an occasional full unranked
//! answer of several MB. `mining`, `rank` and the `serve` encoder do the
//! work; Phase I, the WAL and epoch close do none, which makes this the
//! control for ingest-side changes.

use crate::common::{self, batch, Probe, Rng, Tally, Wire};
use crate::layers::{self, Mark, Replay, ServerSide};
use crate::replica::{self, PhaseTwo};
use crate::report::Report;
use crate::stats::{median, Samples};
use crate::trace::{Layer, Tracer};
use crate::Opts;
use dar_engine::DarEngine;
use dar_serve::{protocol, Request, Server, ServerHandle};
use mining::{DensitySpec, Measure, RuleQuery, MEASURES};
use std::time::{Duration, Instant};

/// Input stream id of the preload batches.
const STREAM: u64 = 2;
/// The preloaded relation is the same for every `--seed`: latency here is
/// a function of the one epoch's cluster structure, so a fixed relation
/// (the paper, too, used one WBCD dataset) keeps seed-to-seed spread down
/// to the mix and the machine. `--seed` drives the query mix.
const DATASET_SEED: u64 = 20_260_707;
const PRELOAD_BATCHES: u64 = 20;
const BATCH_ROWS: usize = 1000;
/// The density factor the dashboards and re-tuned queries share, so they
/// hit the artifact cache.
const DASHBOARD_DENSITY: f64 = 3.0;
/// Cold density factors are drawn from this calibrated range.
const COLD_DENSITY: (f64, f64) = (2.5, 4.0);
/// Re-tuned degree factors are drawn from this range.
const RETUNE_DEGREE: (f64, f64) = (1.5, 2.5);
/// The golden-ratio stride that spreads re-tuned degree factors and cold
/// density factors over their ranges. A query's cost climbs steeply with
/// either knob (a re-tune at degree factor 2.5 costs about 15 times one at
/// 1.5), so a run's knobs cover each range evenly whatever the seed, and
/// the seed does not move the run's figures through them.
const STRIDE: f64 = 0.618_033_988_749_894_9;
/// The tail percentile reported as `op_ms_tail`.
const TAIL: f64 = 90.0;

/// The four request classes of the mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Dashboard,
    Retune,
    Cold,
    Full,
}

impl Class {
    pub const ALL: [Class; 4] = [Class::Dashboard, Class::Retune, Class::Cold, Class::Full];

    /// This class's share of the mix.
    pub fn share(self) -> f64 {
        CYCLE.iter().filter(|c| **c == self).count() as f64 / CYCLE.len() as f64
    }

    pub fn kind(self) -> &'static str {
        match self {
            Class::Dashboard => "dashboard",
            Class::Retune => "retune",
            Class::Cold => "cold",
            Class::Full => "full",
        }
    }

    /// The per-layer metric holding this class's CPU time per query.
    pub fn cpu_metric(self) -> &'static str {
        match self {
            Class::Dashboard => "mix.dashboard_cpu_ms",
            Class::Retune => "mix.retune_cpu_ms",
            Class::Cold => "mix.cold_cpu_ms",
            Class::Full => "mix.full_cpu_ms",
        }
    }
}

/// One cycle of the mix: exact proportions, seeded order within a cycle.
/// The proportions (8 dashboards, 8 re-tunes, 3 cold, 1 full answer) are
/// this benchmark's assumption, not taken from a measured workload; the
/// run reports CPU time per class so no class's cost rests on them.
const CYCLE: [Class; 20] = {
    use Class::*;
    [
        Dashboard, Dashboard, Dashboard, Dashboard, Dashboard, Dashboard, Dashboard, Dashboard,
        Retune, Retune, Retune, Retune, Retune, Retune, Retune, Retune, Cold, Cold, Cold, Full,
    ]
};

fn ranked(density: f64, degree_factor: f64, measure: Measure, top_k: usize) -> RuleQuery {
    RuleQuery {
        density: DensitySpec::Auto { factor: density },
        degree_factor,
        measure,
        top_k,
        prune_redundant: true,
        ..common::base_query()
    }
}

/// The memoized dashboard knob sets.
fn dashboards() -> Vec<RuleQuery> {
    vec![
        ranked(DASHBOARD_DENSITY, 2.0, Measure::Lift, 10),
        ranked(DASHBOARD_DENSITY, 2.0, Measure::Conviction, 20),
        ranked(DASHBOARD_DENSITY, 1.5, Measure::Leverage, 10),
        ranked(DASHBOARD_DENSITY, 2.5, Measure::Degree, 25),
    ]
}

/// The full unranked answer (several MB) at the dashboards' density.
fn full() -> RuleQuery {
    common::full_answer()
}

/// The seeded query mix. Re-tuned degree factors and cold density
/// factors follow golden-ratio sequences from seeded starts, so every run
/// covers the same ranges evenly whatever the seed.
pub struct Mix {
    rng: Rng,
    slots: Vec<Class>,
    pos: usize,
    /// Positions in [0, 1) of the last re-tuned degree factor and the last
    /// cold density factor in their golden-ratio sequences.
    retune: f64,
    cold: f64,
    used_densities: Vec<u64>,
}

/// The next point of a golden-ratio sequence, mapped onto `(lo, hi)`.
fn advance(position: &mut f64, (lo, hi): (f64, f64)) -> f64 {
    *position = (*position + STRIDE).fract();
    lo + (hi - lo) * *position
}

impl Mix {
    pub fn new(seed: u64) -> Mix {
        let used = vec![DASHBOARD_DENSITY.to_bits()];
        let mut rng = Rng::new(seed ^ 0x5155_4552_5921);
        let (retune, cold) = (rng.unit(), rng.unit());
        Mix { rng, slots: Vec::new(), pos: 0, retune, cold, used_densities: used }
    }

    pub fn next_query(&mut self) -> (Class, RuleQuery) {
        if self.pos == self.slots.len() {
            self.slots = CYCLE.to_vec();
            self.rng.shuffle(&mut self.slots);
            self.pos = 0;
        }
        let class = self.slots[self.pos];
        self.pos += 1;
        let measure = MEASURES[self.rng.below(MEASURES.len())];
        let top_k = 5 + self.rng.below(46);
        let query = match class {
            Class::Dashboard => dashboards()[self.rng.below(4)].clone(),
            Class::Retune => {
                let degree_factor = advance(&mut self.retune, RETUNE_DEGREE);
                ranked(DASHBOARD_DENSITY, degree_factor, measure, top_k)
            }
            Class::Cold => {
                let mut density = DASHBOARD_DENSITY;
                while self.used_densities.contains(&density.to_bits()) {
                    density = advance(&mut self.cold, COLD_DENSITY);
                }
                self.used_densities.push(density.to_bits());
                ranked(density, 2.0, measure, top_k)
            }
            Class::Full => full(),
        };
        (class, query)
    }
}

/// FNV-1a digest of a response line: the wire run keeps digests, not
/// multi-MB lines, for the replay to compare against.
pub fn digest(line: &str) -> u64 {
    line.bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// The queries set-up sends after the preload: the first cold query (the
/// full answer), then one of each dashboard so they are memoized.
fn setup_queries() -> Vec<RuleQuery> {
    let mut queries = vec![full()];
    queries.extend(dashboards());
    queries
}

fn preload() -> Result<DarEngine, String> {
    let mut engine = DarEngine::new(common::partitioning(), common::engine_config())
        .map_err(|e| format!("engine: {e}"))?;
    for i in 0..PRELOAD_BATCHES {
        engine.ingest(&batch(DATASET_SEED, STREAM, i, BATCH_ROWS)).map_err(|e| e.to_string())?;
    }
    Ok(engine)
}

struct Instance {
    handle: ServerHandle,
    wire: Wire,
}

fn start() -> Result<Instance, String> {
    let engine = preload()?;
    let handle = Server::start(engine, "127.0.0.1:0", common::serve_config(None))
        .map_err(|e| format!("server: {e}"))?;
    let mut wire = Wire::connect(handle.addr()).map_err(|e| format!("connect: {e}"))?;
    for query in setup_queries() {
        wire.call(&Request::Query { query }).0.map_err(|e| format!("set-up query: {e}"))?;
    }
    Ok(Instance { handle, wire })
}

fn stop(instance: Instance) -> Result<(), String> {
    drop(instance.wire);
    instance.handle.shutdown();
    instance.handle.join().map(|_| ()).map_err(|e| format!("server shutdown: {e}"))
}

/// One window request as the wire run saw it.
struct Sent {
    class: Class,
    digest: Option<u64>,
}

pub fn run(opts: &Opts) -> Result<Report, String> {
    let mut report = Report::default();
    layers::zero(&mut report);

    let (mut instance, setup_times) = common::set_up(|_| start(), stop)?;
    instance.wire.tally = Tally::default();

    // --- the measured window ------------------------------------------------
    let server_before = ServerSide::read(&["query"]);
    let mut mix = Mix::new(opts.seed);
    let mut all = Samples::default();
    let mut by_class: Vec<Samples> = vec![Samples::default(); Class::ALL.len()];
    // CPU time (ms) the process spent during each request, by class: with
    // one closed-loop client, the CPU used around a request is that
    // request's.
    let mut cpu_by_class: Vec<Vec<f64>> = vec![Vec::new(); Class::ALL.len()];
    let mut sent = Vec::new();
    let mut heap_mb = None;
    // The program's CPU time: the process's, less the probe's.
    let probe = Probe::start();
    let program_cpu = || common::cpu_seconds() - probe.cpu_seconds();
    let cpu_before = program_cpu();
    let started = Instant::now();
    let deadline = started + Duration::from_secs(opts.seconds);
    while Instant::now() < deadline {
        if sent.len() == layers::COUNT_PREFIX {
            heap_mb = Some(common::settled_heap_mb());
        }
        let (class, query) = mix.next_query();
        let cpu_at = program_cpu();
        let (reply, elapsed) = instance.wire.call(&Request::Query { query });
        cpu_by_class[class as usize].push((program_cpu() - cpu_at) * 1e3);
        let samples = &mut by_class[class as usize];
        match reply {
            Ok(reply) => {
                let ms = elapsed.as_secs_f64() * 1e3;
                all.push(ms);
                samples.push(ms);
                sent.push(Sent { class, digest: Some(digest(&reply.line)) });
            }
            Err(_) => {
                all.push_failure();
                samples.push_failure();
                sent.push(Sent { class, digest: None });
            }
        }
    }
    let window = started.elapsed();
    let cpu = program_cpu() - cpu_before;
    let probe_ms = probe.finish();
    let heap_mb = heap_mb.unwrap_or_else(common::heap_mb);
    let peak_rss_mb = common::peak_rss_mb();
    let server = ServerSide::read(&["query"]).since(&server_before);

    let (final_reply, _) = instance.wire.call(&Request::Query { query: full() });
    let final_line = final_reply.map_err(|e| format!("final correctness query: {e}"))?.line;
    report.tally = instance.wire.tally.clone();
    stop(instance)?;

    let ok = sent.iter().filter(|s| s.digest.is_some()).count();
    report.set("setup_s", median(&setup_times));
    let (p50, p90) = (all.percentile(50.0), all.percentile(TAIL));
    report.set("op_ms_p50", p50.value);
    report.set("op_ms_mean", all.finite_mean());
    report.set("op_ms_tail", p90.value);
    report.set("ops_per_s", ok as f64 / window.as_secs_f64());
    // Per-class means weighted by the mix's shares, so a window that ends
    // part-way through a cycle does not move the figure. Means, not
    // medians: a class's queries differ in cost by 20 times, so its median
    // is one query's cost with all of that query's noise, while its mean
    // averages the noise away.
    let class_cpu_ms: Vec<f64> =
        cpu_by_class.iter().map(|v| v.iter().sum::<f64>() / v.len().max(1) as f64).collect();
    report.set_cpu(
        Class::ALL.iter().map(|c| c.share() * class_cpu_ms[*c as usize]).sum::<f64>(),
        probe_ms,
    );
    report.set("heap_mb", heap_mb);
    report.line(format!("heap in use {heap_mb:.3} MiB, peak RSS {peak_rss_mb:.3} MiB"));
    report.line(format!(
        "query: {} queries in {:.3} s; mean {:.3} ms, p50 {:.3} ms, p90 {:.3} ms \
         ({} beyond p90); set-up {:?} s",
        all.len(),
        window.as_secs_f64(),
        all.finite_mean(),
        p50.value,
        p90.value,
        p90.beyond,
        setup_times
    ));
    for class in Class::ALL {
        let s = &by_class[class as usize];
        let cpu_ms = class_cpu_ms[class as usize];
        report.set(class.cpu_metric(), cpu_ms);
        report.line(format!(
            "  {:<10} {:>4} queries, mean {:>9.3} ms, p50 {:>9.3} ms, cpu {:>9.3} ms/query",
            class.kind(),
            s.len(),
            s.finite_mean(),
            s.percentile(50.0).value,
            cpu_ms
        ));
    }
    let claimed: f64 = cpu_by_class.iter().flatten().sum::<f64>() / 1e3;
    report.line(format!(
        "  cpu charged to requests {claimed:.3} s of {cpu:.3} s in the window; \
         {:.3} ms per query overall",
        cpu * 1e3 / ok.max(1) as f64
    ));
    if !p90.is_supported() {
        report.line("WARNING: fewer than 10 samples beyond p90; lengthen --seconds");
    }

    control(opts, &sent, &final_line, &mut report)?;
    if opts.trace {
        let mut run = |enabled: bool| -> Result<Replay, String> {
            let (replay, problems) = replay(opts, &sent, &final_line, enabled)?;
            report.problems.extend(problems);
            Ok(replay)
        };
        let (first, traced, second) = (run(false)?, run(true)?, run(false)?);
        layers::common_figures(
            &mut report,
            &traced,
            [&first, &second],
            &all,
            &server,
            server.requests,
        );
        layers::phase_two_figures(&mut report, &server, sent.len() as u64);
        let mining_allocs = traced.prefix_allocs(Layer::Mining);
        report.set(
            "mining.allocs_per_query",
            mining_allocs as f64 / traced.prefix_requests.max(1) as f64,
        );
        report.set(
            "birch.tree_mb",
            layers::forest_mb(
                (0..PRELOAD_BATCHES).map(|i| batch(DATASET_SEED, STREAM, i, BATCH_ROWS)),
            ),
        );
        let kinds: Vec<(&'static str, &Samples)> =
            Class::ALL.iter().map(|c| (c.kind(), &by_class[*c as usize])).collect();
        let residual = layers::attribute(&mut report, &traced.tracer, &kinds);
        report.set("residual.query_frac", residual);
    }
    Ok(report)
}

/// The correctness control: an in-process engine fed the same preload and
/// the same queries (set-up's, the window's mix for the same seed, then
/// the final full answer) must produce every answer the server sent,
/// byte for byte.
fn control(
    opts: &Opts,
    sent: &[Sent],
    final_line: &str,
    report: &mut Report,
) -> Result<(), String> {
    let mut engine = preload()?;
    let mut answer = |query: &RuleQuery| -> Result<String, String> {
        let outcome = engine.query(query).map_err(|e| e.to_string())?;
        Ok(protocol::query_response(&outcome).encode())
    };
    for query in setup_queries() {
        answer(&query)?;
    }
    let mut mix = Mix::new(opts.seed);
    let mut differing = Vec::new();
    for (i, wire) in sent.iter().enumerate() {
        let (class, query) = mix.next_query();
        let line = answer(&query)?;
        if wire.digest.is_some_and(|expected| digest(&line) != expected) {
            differing.push(format!("{i} ({})", class.kind()));
        }
    }
    report.check(differing.is_empty(), || {
        format!(
            "{} of {} window answers differ from an in-process engine fed the same batches and \
             queries: {}",
            differing.len(),
            sent.len(),
            differing.iter().take(5).cloned().collect::<Vec<_>>().join(", ")
        )
    });
    let expected = answer(&full())?;
    report.check(expected == final_line, || {
        format!(
            "final answer differs from an in-process engine fed the same batches and queries \
             ({} vs {} bytes)",
            final_line.len(),
            expected.len()
        )
    });
    Ok(())
}

type Replayed = (Replay, Vec<String>);

/// Replays set-up and the window's queries through the query path's
/// public functions, checking each response digest against the wire's.
fn replay(opts: &Opts, sent: &[Sent], final_line: &str, enabled: bool) -> Result<Replayed, String> {
    let mut problems = Vec::new();
    let mut tracer = Tracer::new(enabled);
    tracer.outside();
    let mut engine = tracer.span("birch.insert", |_| preload())?;
    let mut phase2 = PhaseTwo::open(&mut engine, &mut tracer)?;
    for query in setup_queries() {
        query_request(&mut tracer, &mut phase2, query)?;
    }

    let mut mix = Mix::new(opts.seed);
    let before = layers::begin_window(&tracer);
    let started = Instant::now();
    let mut prefix = None;
    for (i, wire) in sent.iter().enumerate() {
        let (class, query) = mix.next_query();
        debug_assert_eq!(class, wire.class);
        tracer.request(class.kind());
        let line = query_request(&mut tracer, &mut phase2, query)?;
        if let Some(expected) = wire.digest {
            if digest(&line) != expected {
                problems.push(format!(
                    "replayed query {i} ({}) differs from the server's",
                    class.kind()
                ));
            }
        }
        layers::mark_prefix(i + 1, &mut prefix);
    }
    let wall = started.elapsed();
    let after = Mark::now();
    let (prefix_requests, prefix) = layers::prefix_or_end(prefix, sent.len(), &after);

    tracer.outside();
    let line = query_request(&mut tracer, &mut phase2, full())?;
    if line != final_line {
        problems.push("replay: final answer differs from the server's".into());
    }
    let requests = sent.len();
    let replay = Replay { tracer, requests, wall, before, prefix, prefix_requests, after };
    Ok((replay, problems))
}

/// One `query` round trip: client encode, server decode, the engine's
/// query path, server encode, client decode.
fn query_request(
    t: &mut Tracer,
    phase2: &mut PhaseTwo,
    query: RuleQuery,
) -> Result<String, String> {
    replica::round_trip(t, Request::Query { query }, |t, request| {
        replica::serve_query(t, phase2, request)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_cycle_has_the_same_proportions_and_the_knobs_cover_their_ranges() {
        let mut mix = Mix::new(11);
        let mut counts = [0usize; 4];
        let (mut densities, mut factors) = (Vec::new(), Vec::new());
        for _ in 0..CYCLE.len() * 5 {
            let (class, query) = mix.next_query();
            counts[class as usize] += 1;
            if class == Class::Cold {
                let DensitySpec::Auto { factor } = query.density else { panic!("auto density") };
                assert!((COLD_DENSITY.0..COLD_DENSITY.1).contains(&factor));
                densities.push(factor);
            }
            if class == Class::Retune {
                assert!((RETUNE_DEGREE.0..RETUNE_DEGREE.1).contains(&query.degree_factor));
                factors.push(query.degree_factor);
            }
        }
        assert_eq!(counts, [40, 40, 15, 5]);
        let distinct: std::collections::BTreeSet<u64> =
            densities.iter().map(|d| d.to_bits()).collect();
        assert_eq!(distinct.len(), densities.len(), "cold densities are first-time densities");
        // Each range is covered evenly: every fifth of it holds a fifth of
        // the knobs, give or take one.
        for (knobs, (lo, hi)) in [(&densities, COLD_DENSITY), (&factors, RETUNE_DEGREE)] {
            for fifth in 0..5 {
                let inside =
                    knobs.iter().filter(|k| ((*k - lo) / (hi - lo) * 5.0) as usize == fifth);
                let expected = knobs.len() / 5;
                assert!(inside.count().abs_diff(expected) <= 1, "fifth {fifth}: {knobs:?}");
            }
        }
    }

    #[test]
    fn the_mix_is_a_function_of_the_seed() {
        let (mut a, mut b, mut c) = (Mix::new(3), Mix::new(3), Mix::new(4));
        let take = |m: &mut Mix| (0..40).map(|_| m.next_query().1).collect::<Vec<_>>();
        assert_eq!(take(&mut a), take(&mut b));
        assert_ne!(take(&mut a), take(&mut c));
    }
}
