//! The metric catalogue and the result a run prints.
//!
//! Every run prints every end-to-end metric (untraced) or every per-layer
//! metric (traced), by name and with its unit; a metric a workload does
//! not exercise reads 0 in the traced catalogue. End-to-end metrics are
//! chosen so that none is ever 0.

use crate::common::Tally;
use dar_serve::json::Json;

/// End-to-end metrics, the gated set: `(name, unit)`. `cpu_per_op` is the
/// program's CPU time per measured operation in units of the host-speed
/// probe's CPU time per run (`common::Probe`), so the host's load moves it
/// far less than wall-clock or plain CPU time (see `UNGATED`).
pub const END_TO_END: [(&str, &str); 3] =
    [("setup_s", "s"), ("cpu_per_op", "probe"), ("heap_mb", "MB")];

/// Figures every run prints by name, with units, but that are not in the
/// result object. The wall-clock ones: on a shared 2-vCPU host their spread over ten
/// seeds reached 0.18 (`op_ms_p50`, `query`) and their median moved by 21%
/// between two sets of runs (`op_ms_p50`, `cluster`), too close to the
/// largest bound a metric may have (0.25). `op_ms_tail` is the highest
/// percentile every run of the workload supports with at least 10 samples
/// beyond it (see each workload's `TAIL`).
///
/// `cpu_ms_per_op` and `probe_ms`, the two parts of `cpu_per_op`: on that
/// host, from one `ingest` run to the next, they once rose by about 90%
/// and 70% as the neighbours' load changed, while their ratio rose by 14%.
pub const UNGATED: [(&str, &str); 6] = [
    ("op_ms_p50", "ms"),
    ("op_ms_mean", "ms"),
    ("op_ms_tail", "ms"),
    ("ops_per_s", "1/s"),
    ("cpu_ms_per_op", "ms"),
    ("probe_ms", "ms"),
];

/// Per-layer metrics from the traced run: `(name, unit)`. Layer names are
/// crate names; `_ms` figures are self time per measured request.
pub const PER_LAYER: [(&str, &str); 55] = [
    ("serve.decode_ms", "ms"),
    ("serve.encode_ms", "ms"),
    ("serve.server_ms", "ms"),
    ("serve.outside_ms", "ms"),
    ("serve.request_bytes", "B"),
    ("serve.response_bytes", "B"),
    ("serve.allocs_per_request", "count"),
    ("durable.wal_append_ms", "ms"),
    ("durable.fsyncs_per_batch", "count"),
    ("durable.wal_bytes_per_tuple", "B"),
    ("durable.append_failures", "count"),
    ("durable.allocs_per_request", "count"),
    ("birch.insert_us_per_tuple", "us"),
    ("birch.rebuilds", "count"),
    ("birch.threshold_raises", "count"),
    ("birch.outliers_paged", "count"),
    ("birch.tree_mb", "MB"),
    ("birch.allocs_per_tuple", "count"),
    ("birch.allocs_per_request", "count"),
    ("engine.epoch_close_ms", "ms"),
    ("engine.query_ms", "ms"),
    ("engine.artifact_hit_ratio", "ratio"),
    ("engine.snapshot_encode_ms", "ms"),
    ("engine.snapshot_decode_ms", "ms"),
    ("engine.snapshot_mb", "MB"),
    ("engine.allocs_per_request", "count"),
    ("mining.graph_ms", "ms"),
    ("mining.cliques_ms", "ms"),
    ("mining.rules_ms", "ms"),
    ("mining.edge_yield", "ratio"),
    ("mining.cliques", "count"),
    ("mining.rules_emitted", "count"),
    ("mining.allocs_per_query", "count"),
    ("rank.rank_ms", "ms"),
    ("rank.prune_ratio", "ratio"),
    ("rank.rules_in_per_query", "count"),
    ("rank.allocs_per_request", "count"),
    ("cluster.ingest_ms", "ms"),
    ("cluster.pull_ms", "ms"),
    ("cluster.merge_ms", "ms"),
    ("cluster.pulls_per_query", "count"),
    ("cluster.reuse_ratio", "ratio"),
    ("cluster.allocs_per_request", "count"),
    ("cluster.ingest_ack_ms_p50", "ms"),
    ("cluster.ingest_ack_ms_p70", "ms"),
    ("cluster.generator_late_ms_p90", "ms"),
    ("cluster.generator_late_ms_max", "ms"),
    ("mix.dashboard_cpu_ms", "ms"),
    ("mix.retune_cpu_ms", "ms"),
    ("mix.cold_cpu_ms", "ms"),
    ("mix.full_cpu_ms", "ms"),
    ("par.tasks_per_region", "count"),
    ("residual.ingest_frac", "frac"),
    ("residual.query_frac", "frac"),
    ("trace.overhead_frac", "frac"),
];

/// Per-layer figures that cannot be measured from outside the program in
/// this benchmark, with the reason, printed with every traced run.
pub const UNMEASURED: [(&str, &str); 2] = [
    (
        "par.region_ms",
        "dar-par regions run inside engine calls and dar-par records no region time; \
         only its region and task counters are visible from outside",
    ),
    (
        "lock wait (SharedEngine RwLock, coordinator Mutex, durable store Mutex)",
        "locks are taken inside the servers; their wait cannot be timed from outside, \
         so it lands in the residual",
    ),
];

/// What one run found.
#[derive(Debug, Default)]
pub struct Report {
    pub problems: Vec<String>,
    pub tally: Tally,
    pub metrics: Vec<(&'static str, f64)>,
    pub lines: Vec<String>,
}

impl Report {
    /// Records a failed correctness check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(&UNGATED).chain(&PER_LAYER).any(|(n, _)| *n == name),
            "{name} is not in the metric catalogue"
        );
        // An empty sum is -0.0; report it as 0.
        let value = value + 0.0;
        match self.metrics.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.metrics.push((name, value)),
        }
    }

    /// Sets the program's CPU time per measured operation, the probe's CPU
    /// time per run over the same window, and their ratio.
    pub fn set_cpu(&mut self, cpu_ms_per_op: f64, probe_ms: f64) {
        self.set("cpu_ms_per_op", cpu_ms_per_op);
        self.set("probe_ms", probe_ms);
        self.set("cpu_per_op", cpu_ms_per_op / probe_ms);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.metrics.iter().find(|(n, _)| *n == name).map_or(0.0, |(_, v)| *v)
    }

    pub fn line(&mut self, line: impl Into<String>) {
        self.lines.push(line.into());
    }

    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// The result object: the catalogue for the mode, each metric with
    /// its unit. A metric the run did not set is a bug in the benchmark.
    pub fn result(&self, traced: bool) -> Result<Json, String> {
        let catalogue: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
        let mut metrics = Vec::with_capacity(catalogue.len());
        for (name, unit) in catalogue {
            let value = self
                .metrics
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .ok_or_else(|| format!("the run did not measure {name}"))?;
            // A latency that every sample missed is reported as the
            // largest finite number, never as a non-number.
            let value = if value.is_finite() { value } else { f64::MAX };
            metrics.push((
                name.to_string(),
                Json::obj(vec![("value", Json::Num(value)), ("unit", Json::Str(unit.to_string()))]),
            ));
        }
        Ok(Json::obj(vec![
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.tally.attempted.max(1) as f64)),
            ("failed", Json::Num(self.tally.failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        dar_serve::json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn names_and_units(list: &Json) -> Vec<(String, String)> {
        list.as_array()
            .expect("a metric list")
            .iter()
            .map(|m| {
                let name = m.get("name").and_then(Json::as_str).expect("name");
                let unit = m.get("unit").and_then(Json::as_str).expect("unit");
                (name.to_string(), unit.to_string())
            })
            .collect()
    }

    fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let spec = benchmark_json();
        assert_eq!(
            names_and_units(spec.get("end_to_end").expect("end_to_end")),
            owned(&END_TO_END)
        );
        assert_eq!(names_and_units(spec.get("per_layer").expect("per_layer")), owned(&PER_LAYER));
        let workloads: Vec<&str> = spec
            .get("workloads")
            .and_then(Json::as_array)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("workload name"))
            .collect();
        assert_eq!(workloads, crate::WORKLOADS);
    }

    #[test]
    fn result_carries_every_catalogued_metric() {
        let mut report = Report::default();
        for (name, _) in END_TO_END {
            report.set(name, 1.5);
        }
        report.set("cpu_per_op", f64::INFINITY);
        report.tally.attempted = 10;
        report.tally.failed = 1;
        let line = report.result(false).expect("complete").encode();
        let parsed = dar_serve::json::parse(&line).expect("valid JSON");
        let metrics = parsed.get("metrics").expect("metrics");
        for (name, unit) in END_TO_END {
            let m = metrics.get(name).expect("every end-to-end metric");
            assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit));
            assert!(m.get("value").and_then(Json::as_f64).is_some(), "{name} is a number");
        }
        assert_eq!(parsed.get("failed").and_then(Json::as_u64), Some(1));
        assert!(report.result(true).is_err(), "per-layer metrics were never set");
    }

    #[test]
    fn a_failed_check_makes_the_run_incorrect() {
        let mut report = Report::default();
        report.check(true, || "fine".into());
        assert!(report.correct());
        report.check(false, || "mismatch".into());
        assert!(!report.correct());
    }
}
