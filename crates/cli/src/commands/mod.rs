//! The CLI subcommands.

pub mod cluster;
pub mod coordinator;
pub mod generate;
pub mod mine;
pub mod rules;
pub mod serve;
pub mod session;
pub mod stats;

pub(crate) use crate::data::{default_partitioning, load};

use crate::args::Args;
use crate::data::parse_cluster_metric;
use crate::CliError;
use dar_durable::{DiskStorage, Storage};
use dar_engine::EngineConfig;
use dar_serve::ServeConfig;
use mining::{Measure, RuleQuery, MEASURES};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Parses the flags `dar serve` and `dar cluster-coordinator` share, one
/// way, so an operator can copy one flag set to both sides of a cluster:
/// the engine flags (`--support`, `--metric`, `--threads`, `--memory-kb`,
/// `--initial-threshold`) into the engine configuration, and the rank
/// flags plus the front-end flags (`--threads`, `--queue`, `--timeout-ms`,
/// `--metrics-addr`) into the front-end part of a [`ServeConfig`].
pub(crate) fn engine_flags(args: &Args) -> Result<(EngineConfig, ServeConfig), CliError> {
    // `--threads` sizes both pools: the TCP connection workers and the
    // engine's data-parallel mining regions. 0 (the default) means the
    // host's available parallelism; mining output is byte-identical at
    // every setting.
    let threads = args.number::<usize>("threads", 0)?;
    let mut engine = EngineConfig {
        min_support_frac: args.number("support", 0.05)?,
        metric: parse_cluster_metric(args.optional("metric").unwrap_or("d2"))?,
        threads,
        ..EngineConfig::default()
    };
    engine.birch.memory_budget = args.number::<usize>("memory-kb", 1024)? << 10;
    if let Some(raw) = args.optional("initial-threshold") {
        let threshold: f64 = raw
            .parse()
            .map_err(|_| CliError::new(format!("--initial-threshold: cannot parse {raw:?}")))?;
        engine.birch.initial_threshold = threshold;
    }
    let mut base_query = RuleQuery::default();
    apply_rank_flags(args, &mut base_query)?;
    let timeout = Duration::from_millis(args.number::<u64>("timeout-ms", 30_000)?);
    let front = ServeConfig {
        threads: if threads == 0 { dar_par::available_parallelism() } else { threads },
        queue_depth: args.number::<usize>("queue", 64)?.max(1),
        read_timeout: timeout,
        write_timeout: timeout,
        metrics_addr: args.optional("metrics-addr").map(String::from),
        base_query,
        ..ServeConfig::default()
    };
    Ok((engine, front))
}

/// Applies the shared rule-quality flags onto a query: `--measure`
/// (degree, lift, conviction, leverage, jaccard), `--min-measure`,
/// `--top-k`, `--prune-redundant`, and `--budget-ms` (anytime mode).
/// Every command that mines rules accepts the same set, so one flag
/// vocabulary works from `dar mine` to `dar cluster-coordinator`.
pub(crate) fn apply_rank_flags(args: &Args, query: &mut RuleQuery) -> Result<(), CliError> {
    if let Some(name) = args.optional("measure") {
        query.measure = Measure::parse(name).ok_or_else(|| {
            let names: Vec<&str> = MEASURES.iter().map(|m| m.as_str()).collect();
            CliError::new(format!(
                "--measure: unknown measure {name:?} (one of {})",
                names.join(", ")
            ))
        })?;
    }
    if let Some(raw) = args.optional("min-measure") {
        let floor: f64 = raw
            .parse()
            .map_err(|_| CliError::new(format!("--min-measure: cannot parse {raw:?}")))?;
        query.min_measure = Some(floor);
    }
    query.top_k = args.number("top-k", query.top_k)?;
    if args.switch("prune-redundant") {
        query.prune_redundant = true;
    }
    query.budget_ms = args.number("budget-ms", query.budget_ms)?;
    Ok(())
}

/// Writes `text` to `path` atomically: tmp file, fsync, rename over the
/// target, directory fsync. A crash mid-write leaves either the old file
/// or the new one, never a torn mix.
pub(crate) fn atomic_write(path: impl AsRef<Path>, text: &str) -> Result<(), CliError> {
    let path = path.as_ref();
    let storage = DiskStorage;
    let mut tmp = PathBuf::from(path.as_os_str().to_os_string());
    tmp.as_mut_os_string().push(".tmp");
    let step = |op: &str, e: std::io::Error| CliError::new(format!("{op} {}: {e}", path.display()));
    storage.write(&tmp, text.as_bytes()).map_err(|e| step("write", e))?;
    storage.sync_file(&tmp).map_err(|e| step("sync", e))?;
    storage.rename(&tmp, path).map_err(|e| step("rename", e))?;
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        storage.sync_dir(dir).map_err(|e| step("sync dir", e))?;
    }
    Ok(())
}
