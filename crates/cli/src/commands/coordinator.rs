//! `dar cluster-coordinator` — run the distributed front-end: fan ingest
//! batches across `dar serve` shards and serve Phase II from the merged
//! ACF summary.
//!
//! ```text
//! dar serve --addr 127.0.0.1:7001 --attrs 3 --wal-path shard0.wal &
//! dar serve --addr 127.0.0.1:7002 --attrs 3 --wal-path shard1.wal &
//! dar cluster-coordinator --addr 127.0.0.1:7878 \
//!     --shards 127.0.0.1:7001,127.0.0.1:7002
//! ```
//!
//! The engine flags (`--support`, `--metric`, `--memory-kb`,
//! `--initial-threshold`, `--threads`) must match the shards' — the
//! partitioning itself travels inside the shard snapshots, so there is
//! no `--attrs` here. The
//! coordinator mines the merged summary under this configuration, and the
//! distributed-equality guarantee (same rules as one `dar serve` over the
//! same batches) only holds when every engine agrees. With `--rescan`
//! (requires shards started with `--wal-path`), each query's rules carry
//! exact global frequencies computed the SON way: every shard re-reads
//! its own write-ahead log against the merged clusters and the
//! coordinator sums the disjoint counts.
//!
//! Fault-tolerance flags: `--allow-partial` serves degraded (coverage-
//! annotated) answers from the live shards while others are down;
//! `--deadline-ms` bounds one shard request including every retry (the
//! blackhole bound); `--down-after` sets how many consecutive transport
//! failures demote a shard to fast-fail; `--probe-interval-ms` /
//! `--probe-timeout-ms` tune the background prober that verifies
//! recovered shards before they serve again.

use crate::args::Args;
use crate::CliError;
use dar_cluster::{ClusterConfig, Coordinator, CoordinatorServer};
use std::time::Duration;

/// Runs the command: connect to every shard, serve until a wire
/// `shutdown`, then report.
pub fn run(args: &Args) -> Result<String, CliError> {
    let addr = args.required("addr")?.to_string();
    let config = build(args)?;
    let shard_count = config.shards.len();
    let coordinator =
        Coordinator::connect(config).map_err(|e| CliError::new(format!("shard handshake: {e}")))?;
    let handle = CoordinatorServer::start(coordinator, &addr)
        .map_err(|e| CliError::new(format!("bind {addr}: {e}")))?;
    // Announce on stderr immediately — stdout is the post-shutdown report.
    eprintln!("dar cluster-coordinator: listening on {} ({shard_count} shards)", handle.addr());
    let coordinator = std::sync::Arc::clone(handle.coordinator());
    handle.join();
    let (batches, tuples) = {
        let guard = coordinator.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
        guard.routed()
    };
    let rounds = {
        let guard = coordinator.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
        guard.rounds()
    };
    Ok(format!(
        "cluster-coordinator: {batches} batches ({tuples} tuples) routed across \
         {shard_count} shards, {rounds} merge rounds\n"
    ))
}

/// Builds the cluster configuration from the flags. The engine flags are
/// parsed by the same [`crate::commands::engine_flags`] as `dar serve`'s.
pub fn build(args: &Args) -> Result<ClusterConfig, CliError> {
    let shards: Vec<String> = args
        .required("shards")?
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(String::from)
        .collect();
    if shards.is_empty() {
        return Err(CliError::new("--shards needs at least one host:port"));
    }

    let (engine, front) = crate::commands::engine_flags(args)?;
    let defaults = ClusterConfig::default();
    Ok(ClusterConfig {
        shards,
        timeout: front.read_timeout,
        rescan: args.switch("rescan"),
        engine,
        threads: front.threads,
        queue_depth: front.queue_depth,
        read_timeout: front.read_timeout,
        write_timeout: front.write_timeout,
        metrics_addr: front.metrics_addr,
        allow_partial: args.switch("allow-partial"),
        probe_interval: Duration::from_millis(
            args.number::<u64>("probe-interval-ms", defaults.probe_interval.as_millis() as u64)?,
        ),
        probe_timeout: Duration::from_millis(
            args.number::<u64>("probe-timeout-ms", defaults.probe_timeout.as_millis() as u64)?,
        ),
        deadline: Duration::from_millis(
            args.number::<u64>("deadline-ms", defaults.deadline.as_millis() as u64)?,
        ),
        down_after: args.number::<u32>("down-after", defaults.down_after)?.max(1),
        base_query: front.base_query,
        ..defaults
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::parse;

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn build_parses_shard_list_and_engine_flags() {
        let args = parse(&argv(&[
            "--shards",
            "127.0.0.1:7001, 127.0.0.1:7002,",
            "--support",
            "0.2",
            "--metric",
            "d0",
            "--threads",
            "2",
            "--timeout-ms",
            "500",
            "--rescan",
            "--measure",
            "jaccard",
            "--min-measure",
            "0.25",
        ]))
        .unwrap();
        let config = build(&args).unwrap();
        assert_eq!(config.shards, vec!["127.0.0.1:7001", "127.0.0.1:7002"]);
        assert_eq!(config.engine.min_support_frac, 0.2);
        assert_eq!(config.threads, 2);
        assert_eq!(config.timeout, Duration::from_millis(500));
        assert!(config.rescan);
        assert_eq!(config.base_query.measure, mining::Measure::Jaccard);
        assert_eq!(config.base_query.min_measure, Some(0.25));
        // Fault-tolerance knobs keep their library defaults when unset.
        let defaults = ClusterConfig::default();
        assert!(!config.allow_partial);
        assert_eq!(config.probe_interval, defaults.probe_interval);
        assert_eq!(config.probe_timeout, defaults.probe_timeout);
        assert_eq!(config.deadline, defaults.deadline);
        assert_eq!(config.down_after, defaults.down_after);
    }

    #[test]
    fn build_parses_the_fault_tolerance_flags() {
        let args = parse(&argv(&[
            "--shards",
            "127.0.0.1:7001",
            "--allow-partial",
            "--probe-interval-ms",
            "100",
            "--probe-timeout-ms",
            "50",
            "--deadline-ms",
            "1500",
            "--down-after",
            "2",
        ]))
        .unwrap();
        let config = build(&args).unwrap();
        assert!(config.allow_partial);
        assert_eq!(config.probe_interval, Duration::from_millis(100));
        assert_eq!(config.probe_timeout, Duration::from_millis(50));
        assert_eq!(config.deadline, Duration::from_millis(1500));
        assert_eq!(config.down_after, 2);
    }

    #[test]
    fn build_rejects_an_empty_shard_list() {
        let args = parse(&argv(&["--shards", " ,,"])).unwrap();
        assert!(build(&args).is_err());
        let args = parse(&argv(&[])).unwrap();
        assert!(build(&args).is_err(), "--shards is required");
    }
}
