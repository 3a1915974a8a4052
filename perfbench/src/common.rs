//! What every workload shares: the paper's WBCD configuration, seeded
//! inputs, the wire client with failure accounting, registry deltas, and
//! the environment stamp.

use dar_core::{Metric, Partitioning};
use dar_engine::EngineConfig;
use dar_serve::json::{self, Json};
use dar_serve::{Client, Request, ServeConfig};
use mining::RuleQuery;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The paper's total Phase I memory cap (§7.2: 5 MB over 30 trees).
pub const MEMORY_CAP: usize = 5 << 20;

/// The paper's scaled workload adds 10% outliers.
pub const OUTLIER_FRAC: f64 = 0.1;

/// How often set-up is repeated; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 5;

/// Socket timeouts: long enough that no healthy request ever hits one.
pub const TIMEOUT: Duration = Duration::from_secs(120);

/// The WAL flush policy the server applies (not configurable).
pub const WAL_POLICY: &str = "fsync per acknowledged batch";

/// Connection workers for each server and the coordinator.
pub fn threads() -> usize {
    dar_par::available_parallelism()
}

/// `dar-par` workers for every engine, the coordinator's included. One, so
/// the engine's work runs on one thread: with two workers on two vCPUs,
/// the CPU time of the same parallel region rose by up to a fifth when
/// the host ran both vCPUs at once, against when it ran one (cross-core
/// traffic), and how often it does that moves with the neighbours' load.
/// CPU time, the gated measure, never shows a parallel speed-up anyway.
pub const ENGINE_THREADS: usize = 1;

/// The engine half of `dar_bench::wbcd_config`: the paper's Phase I/II
/// settings for the WBCD workload.
pub fn engine_config() -> EngineConfig {
    let d = dar_bench::wbcd_config(MEMORY_CAP);
    EngineConfig {
        birch: d.birch,
        initial_thresholds: d.initial_thresholds,
        min_support_frac: d.min_support_frac,
        metric: d.metric,
        prune_poor_density: d.prune_poor_density,
        max_cliques: d.max_cliques,
        refine_clusters: d.refine_clusters,
        threads: ENGINE_THREADS,
    }
}

/// The query half of `dar_bench::wbcd_config`.
pub fn base_query() -> RuleQuery {
    dar_bench::wbcd_config(MEMORY_CAP).query
}

/// The full unranked answer (several MB of JSON) at density factor 3.0.
pub fn full_answer() -> RuleQuery {
    RuleQuery { density: mining::DensitySpec::Auto { factor: 3.0 }, ..base_query() }
}

/// One tree per WBCD attribute, Euclidean.
pub fn partitioning() -> Partitioning {
    Partitioning::per_attribute(&datagen::wbcd::wbcd_schema(), Metric::Euclidean)
}

pub fn serve_config(wal_path: Option<PathBuf>) -> ServeConfig {
    ServeConfig {
        threads: threads(),
        read_timeout: TIMEOUT,
        write_timeout: TIMEOUT,
        wal_path,
        base_query: base_query(),
        ..ServeConfig::default()
    }
}

/// Batch `index` of input stream `stream`: `rows` fresh WBCD tuples drawn
/// from a generator seeded by `(seed, stream, index)`, so any batch can
/// be regenerated on its own.
pub fn batch(seed: u64, stream: u64, index: u64, rows: usize) -> Vec<Vec<f64>> {
    let mut rng = Rng::new(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f));
    let salt = rng.next_u64();
    let relation =
        datagen::wbcd::wbcd_relation(rows, OUTLIER_FRAC, salt ^ index.wrapping_mul(0x9e37_79b9));
    (0..relation.len()).map(|i| relation.row(i)).collect()
}

/// Sets up `SETUP_REPEATS` times, tearing down every instance but the
/// last; returns it with each set-up's wall time in seconds.
pub fn set_up<I>(
    mut start: impl FnMut(usize) -> Result<I, String>,
    mut stop: impl FnMut(I) -> Result<(), String>,
) -> Result<(I, Vec<f64>), String> {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut instance = None;
    for k in 0..SETUP_REPEATS {
        if let Some(previous) = instance.take() {
            stop(previous)?;
        }
        let t = Instant::now();
        instance = Some(start(k)?);
        times.push(t.elapsed().as_secs_f64());
    }
    Ok((instance.expect("SETUP_REPEATS is at least 1"), times))
}

/// SplitMix64: small, seeded, and the same on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Requests attempted and failed, with the first few failure reasons.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub reasons: Vec<String>,
}

impl Tally {
    pub fn absorb(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for r in &other.reasons {
            if self.reasons.len() < 5 {
                self.reasons.push(r.clone());
            }
        }
    }

    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// A successful reply: the raw response line and its decoded value.
pub struct Reply {
    pub line: String,
    pub value: Json,
}

/// One client connection, making requests the way the client library
/// does (encode, send, receive, decode) and counting every request that
/// fails or is refused.
pub struct Wire {
    addr: SocketAddr,
    client: Option<Client>,
    pub tally: Tally,
}

impl Wire {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Wire> {
        let client = Client::connect(addr, TIMEOUT)?;
        Ok(Wire { addr, client: Some(client), tally: Tally::default() })
    }

    /// Sends `request` and returns the reply with the round-trip time,
    /// or the failure reason. A structured `{"ok":false}` response —
    /// `overloaded` backpressure included — is a failure.
    pub fn call(&mut self, request: &Request) -> (Result<Reply, String>, Duration) {
        let started = Instant::now();
        let result = self.round_trip(request);
        let elapsed = started.elapsed();
        self.tally.attempted += 1;
        if let Err(reason) = &result {
            self.tally.failed += 1;
            if self.tally.reasons.len() < 5 {
                self.tally.reasons.push(reason.clone());
            }
        }
        (result, elapsed)
    }

    fn round_trip(&mut self, request: &Request) -> Result<Reply, String> {
        if self.client.is_none() {
            self.client = Some(Client::connect(self.addr, TIMEOUT).map_err(|e| e.to_string())?);
        }
        let client = self.client.as_mut().expect("connected above");
        let line = match client.round_trip_line(&request.to_json().encode()) {
            Ok(line) => line,
            Err(e) => {
                // The server hung up: dial again before the next request.
                self.client = None;
                return Err(format!("transport: {e}"));
            }
        };
        let value = json::parse(&line).map_err(|e| format!("undecodable response: {e}"))?;
        if value.get("ok").and_then(Json::as_bool) != Some(true) {
            let code = value.get("error").and_then(Json::as_str).unwrap_or("unknown");
            return Err(format!("refused: {code}"));
        }
        Ok(Reply { line, value })
    }
}

/// Sums every series of a counter family in the process-wide registry.
pub fn counter(name: &str) -> u64 {
    dar_obs::global()
        .snapshot()
        .into_iter()
        .filter(|m| m.name == name)
        .map(|m| match m.value {
            dar_obs::MetricValue::Counter(v) => v,
            _ => 0,
        })
        .sum()
}

/// Count and sum of one histogram family, summed over the series whose
/// `verb` label is in `verbs`.
pub fn histogram(name: &str, verbs: &[&str]) -> (u64, u64) {
    dar_obs::global()
        .snapshot()
        .into_iter()
        .filter(|m| m.name == name)
        .filter(|m| m.labels.iter().any(|(k, v)| k == "verb" && verbs.contains(&v.as_str())))
        .fold((0, 0), |(count, sum), m| match m.value {
            dar_obs::MetricValue::Histogram(h) => (count + h.count, sum + h.sum),
            _ => (count, sum),
        })
}

/// Sum of a counter family over the series whose `verb` label is in
/// `verbs`.
pub fn verb_counter(name: &str, verbs: &[&str]) -> u64 {
    dar_obs::global()
        .snapshot()
        .into_iter()
        .filter(|m| m.name == name)
        .filter(|m| m.labels.iter().any(|(k, v)| k == "verb" && verbs.contains(&v.as_str())))
        .map(|m| match m.value {
            dar_obs::MetricValue::Counter(v) => v,
            _ => 0,
        })
        .sum()
}

/// The C library's report of heap in use: `mallinfo2` from glibc.
#[repr(C)]
struct MallInfo2 {
    arena: usize,
    ordblks: usize,
    smblks: usize,
    hblks: usize,
    hblkhd: usize,
    usmblks: usize,
    fsmblks: usize,
    uordblks: usize,
    fordblks: usize,
    keepcost: usize,
}

extern "C" {
    fn mallinfo2() -> MallInfo2;
}

/// Heap bytes the program holds right now, in MiB: allocated chunks in
/// every malloc arena plus mmapped blocks. Unlike the resident set it
/// does not count memory the allocator keeps after a free, which varies
/// run to run with how threads landed on arenas.
pub fn heap_mb() -> f64 {
    // SAFETY: `mallinfo2` takes no arguments, has no preconditions and
    // returns a plain struct by value; the declaration matches glibc's
    // `struct mallinfo2` (ten `size_t` fields, glibc 2.33 and later).
    let info = unsafe { mallinfo2() };
    (info.uordblks + info.hblkhd) as f64 / (1 << 20) as f64
}

/// How long a closed-loop client waits before reading the heap.
const SETTLE: Duration = Duration::from_millis(100);

/// `heap_mb` once the process has gone quiet. A closed-loop client calls
/// it between requests, and it waits `SETTLE` first: memory a server
/// thread frees just after sending a reply (1 MiB in some `ingest` runs)
/// would otherwise be counted in some runs and not in others.
pub fn settled_heap_mb() -> f64 {
    std::thread::sleep(SETTLE);
    heap_mb()
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// Linux's per-process CPU-time clock.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
/// Linux's per-thread CPU-time clock.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

extern "C" {
    fn clock_gettime(clock: i32, now: *mut Timespec) -> i32;
}

/// CPU time the whole process has used so far (user plus system, every
/// thread), in seconds. Time the hypervisor steals from the VM is not
/// charged to it, so per-operation CPU time moves less than wall-clock
/// latency with the host's load, though it still rises when the host is
/// busy.
pub fn cpu_seconds() -> f64 {
    clock_seconds(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time the calling thread has used so far, in seconds.
pub fn thread_cpu_seconds() -> f64 {
    clock_seconds(CLOCK_THREAD_CPUTIME_ID)
}

fn clock_seconds(clock: i32) -> f64 {
    let mut now = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `now` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) that outlives the call, and the clock id is
    // one Linux defines.
    let rc = unsafe { clock_gettime(clock, &mut now) };
    assert_eq!(rc, 0, "the process and thread CPU-time clocks are always available on Linux");
    now.tv_sec as f64 + now.tv_nsec as f64 / 1e9
}

/// How often the host-speed probe runs during a window.
const PROBE_INTERVAL: Duration = Duration::from_millis(250);
/// Elements the probe sorts: 1 MiB of `u64`, so it touches memory beyond
/// the L1 and L2 caches as the program does.
const PROBE_LEN: usize = 1 << 17;

/// A fixed piece of CPU work that a thread of its own runs every
/// `PROBE_INTERVAL` of a window, to measure how fast the host is running.
/// On a shared host the CPU time of the same work moves by up to 1.7 times
/// from one minute to the next with the neighbours' load; dividing the
/// program's CPU time by the probe's, taken over the same window, cancels
/// most of that. The probe is the benchmark's own code, so a change to the
/// program cannot move it.
pub struct Probe {
    stop: Arc<AtomicBool>,
    /// CPU nanoseconds the probe has used so far.
    cpu_ns: Arc<AtomicU64>,
    runs: Arc<AtomicU64>,
    worker: Option<std::thread::JoinHandle<()>>,
}

impl Probe {
    pub fn start() -> Probe {
        let stop = Arc::new(AtomicBool::new(false));
        let cpu_ns = Arc::new(AtomicU64::new(0));
        let runs = Arc::new(AtomicU64::new(0));
        let worker = {
            let (stop, cpu_ns, runs) = (stop.clone(), cpu_ns.clone(), runs.clone());
            std::thread::spawn(move || {
                // Allocated once, so the probe moves neither `heap_mb` nor
                // the allocation counts.
                let mut values = vec![0u64; PROBE_LEN];
                while !stop.load(Ordering::Acquire) {
                    let before = thread_cpu_seconds();
                    std::hint::black_box(probe_work(&mut values, runs.load(Ordering::Relaxed)));
                    let ns = ((thread_cpu_seconds() - before) * 1e9) as u64;
                    cpu_ns.fetch_add(ns, Ordering::AcqRel);
                    runs.fetch_add(1, Ordering::AcqRel);
                    std::thread::park_timeout(PROBE_INTERVAL);
                }
            })
        };
        Probe { stop, cpu_ns, runs, worker: Some(worker) }
    }

    /// CPU seconds the probe has used so far, to leave out of the
    /// program's.
    pub fn cpu_seconds(&self) -> f64 {
        self.cpu_ns.load(Ordering::Acquire) as f64 / 1e9
    }

    /// Stops the probe and returns its mean CPU time per run, in
    /// milliseconds.
    pub fn finish(mut self) -> f64 {
        self.halt();
        self.cpu_seconds() * 1e3 / self.runs.load(Ordering::Acquire).max(1) as f64
    }

    fn halt(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(worker) = self.worker.take() {
            worker.thread().unpark();
            worker.join().expect("the probe thread does not panic");
        }
    }
}

impl Drop for Probe {
    fn drop(&mut self) {
        self.halt();
    }
}

/// The probe's work: sort 1 MiB of pseudo-random `u64`s, then walk them
/// with each read's address taken from the one before, so it waits on
/// memory as well as computing.
fn probe_work(values: &mut [u64], run: u64) -> u64 {
    let mut x = 0x9e37_79b9_7f4a_7c15 ^ run;
    for value in values.iter_mut() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *value = x;
    }
    values.sort_unstable();
    let mut at = 0usize;
    for _ in 0..values.len() {
        at = (values[at] as usize ^ at.wrapping_mul(31)) % values.len();
    }
    values[at]
}

/// The process's peak resident set, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1).and_then(|kb| kb.parse::<f64>().ok()))
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A scratch directory inside the working directory, removed on drop.
pub struct WorkDir {
    path: PathBuf,
}

impl WorkDir {
    pub fn create(name: &str) -> std::io::Result<WorkDir> {
        let path = Path::new(".bench_work").join(format!("{name}-{}", std::process::id()));
        if path.exists() {
            std::fs::remove_dir_all(&path)?;
        }
        std::fs::create_dir_all(&path)?;
        Ok(WorkDir { path })
    }

    /// A fresh subdirectory (emptied if it exists).
    pub fn sub(&self, name: &str) -> std::io::Result<PathBuf> {
        let path = self.path.join(name);
        if path.exists() {
            std::fs::remove_dir_all(&path)?;
        }
        std::fs::create_dir_all(&path)?;
        Ok(path)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        // Leave no empty parent behind either (fails harmlessly while
        // another run still uses it).
        let _ = std::fs::remove_dir(".bench_work");
    }
}

/// The commit of the checkout the benchmark runs in, read at run time,
/// with `-dirty` appended when tracked files differ from it. Outside a git
/// checkout (no `.git` at the repository root) it is `unknown`; git is not
/// asked then, so it never looks above the checkout.
pub fn git_commit() -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    if !root.join(".git").exists() {
        return "unknown (not a git checkout)".into();
    }
    let git = |args: &[&str]| {
        std::process::Command::new("git")
            .arg("-C")
            .arg(&root)
            .args(args)
            .output()
            .ok()
            .filter(|out| out.status.success())
            .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
    };
    let Some(commit) = git(&["rev-parse", "HEAD"]) else {
        return "unknown".into();
    };
    match git(&["--no-optional-locks", "status", "--porcelain", "--untracked-files=no"]) {
        Some(changes) if changes.is_empty() => commit,
        Some(_) => format!("{commit}-dirty"),
        None => format!("{commit} (status unknown)"),
    }
}

/// The environment every output is stamped with.
pub fn env_stamp(workload: &str, seed: u64, seconds: u64, trace: bool) -> Json {
    Json::obj(vec![
        ("workload", Json::Str(workload.into())),
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds as f64)),
        ("trace", Json::Bool(trace)),
        ("nproc", Json::Num(dar_par::available_parallelism() as f64)),
        ("rustc", Json::Str(env!("PERFBENCH_RUSTC").into())),
        ("profile", Json::Str(env!("PERFBENCH_PROFILE").into())),
        ("git_commit", Json::Str(git_commit())),
        ("engine_threads", Json::Num(ENGINE_THREADS as f64)),
        ("server_threads", Json::Num(threads() as f64)),
        ("coordinator_threads", Json::Num(threads() as f64)),
        ("wal_flush", Json::Str(WAL_POLICY.into())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use dar_engine::DarEngine;
    use dar_serve::Server;

    #[test]
    fn batches_regenerate_exactly() {
        assert_eq!(batch(7, 1, 3, 50), batch(7, 1, 3, 50));
        assert_ne!(batch(7, 1, 3, 50), batch(7, 1, 4, 50));
        assert_ne!(batch(7, 1, 3, 50), batch(8, 1, 3, 50));
        assert_eq!(batch(7, 1, 3, 50)[0].len(), 30);
    }

    #[test]
    fn refused_connections_count_as_failed_requests() {
        // One worker, one queue slot: a third connection is refused with
        // the structured `overloaded` error.
        let config = ServeConfig { threads: 1, queue_depth: 1, ..serve_config(None) };
        let engine = DarEngine::new(partitioning(), engine_config()).expect("engine");
        let handle = Server::start(engine, "127.0.0.1:0", config).expect("bind loopback");
        let addr = handle.addr();

        let mut busy = Wire::connect(addr).expect("first connection");
        let (first, _) = busy.call(&Request::Stats);
        assert!(first.is_ok(), "the worker now serves the first connection");
        let queued = Wire::connect(addr).expect("second connection");
        let t = Instant::now();
        while handle.stats().connections < 2 {
            assert!(t.elapsed() < Duration::from_secs(10), "second connection never queued");
            std::thread::sleep(Duration::from_millis(5));
        }

        let mut refused = Wire::connect(addr).expect("the acceptor still accepts");
        let (result, _) = refused.call(&Request::Stats);
        assert!(result.is_err(), "a refused connection is a failed request");
        assert_eq!(refused.tally.attempted, 1);
        assert_eq!(refused.tally.failed, 1);
        assert!(refused.tally.failed_frac() > 0.99);

        let mut total = Tally::default();
        total.absorb(&busy.tally);
        total.absorb(&refused.tally);
        assert_eq!((total.attempted, total.failed), (2, 1));
        assert!((total.failed_frac() - 0.5).abs() < 1e-12);
        assert!(handle.stats().rejected_connections >= 1);

        drop(busy);
        drop(queued);
        drop(refused);
        handle.shutdown();
        let summary = handle.join().expect("join");
        assert_eq!(summary.stats.rejected_connections, 1);
    }
}
