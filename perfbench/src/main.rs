//! The repository benchmark: drives WBCD-shaped data (the paper's §7
//! workload: 30 per-attribute sets, 5 MB Phase I cap) through the engine,
//! the TCP server and the sharded coordinator, checks every answer, and
//! prints end-to-end metrics (untraced) or per-layer metrics (traced).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload ingest|query|cluster --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; the lines before it are the
//! human-readable report and the environment stamp. The process exits
//! non-zero when a correctness check fails.

mod alloc;
mod cluster;
mod common;
mod ingest;
mod layers;
mod query;
mod replica;
mod report;
mod stats;
mod trace;

use report::Report;
use std::process::ExitCode;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["ingest", "query", "cluster"];

/// Command-line options.
#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts { workload: String::new(), seed: 1, seconds: 10, trace: false };
    let mut i = 0;
    while i < args.len() {
        let value = args.get(i + 1).ok_or_else(|| format!("{} needs a value", args[i]))?;
        match args[i].as_str() {
            "--workload" => opts.workload = value.clone(),
            "--seed" => opts.seed = value.parse().map_err(|_| format!("bad --seed {value:?}"))?,
            "--seconds" => {
                opts.seconds = value.parse().map_err(|_| format!("bad --seconds {value:?}"))?;
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                };
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
        i += 2;
    }
    if !WORKLOADS.contains(&opts.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if opts.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match opts.workload.as_str() {
        "ingest" => ingest::run(&opts),
        "query" => query::run(&opts),
        _ => cluster::run(&opts),
    };
    let report = match outcome {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", opts.workload);
            return ExitCode::from(1);
        }
    };
    finish(&opts, &report)
}

fn finish(opts: &Opts, report: &Report) -> ExitCode {
    let result = match report.result(opts.trace) {
        Ok(result) => result,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    for line in &report.lines {
        println!("{line}");
    }
    println!(
        "ops_failed_frac {:.6} ({} of {} requests failed or were refused)",
        report.tally.failed_frac(),
        report.tally.failed,
        report.tally.attempted
    );
    for reason in &report.tally.reasons {
        println!("  failure: {reason}");
    }
    for problem in &report.problems {
        println!("CORRECTNESS FAILURE: {problem}");
    }
    if opts.trace {
        for (name, why) in report::UNMEASURED {
            println!("not measured: {name}: {why}");
        }
    }
    let catalogue: &[(&str, &str)] =
        if opts.trace { &report::PER_LAYER } else { &report::END_TO_END };
    for (name, unit) in report::UNGATED.iter().chain(catalogue) {
        println!("{name:<30} {:>16.6} {unit}", report.get(name));
    }
    println!(
        "env {}",
        common::env_stamp(&opts.workload, opts.seed, opts.seconds, opts.trace).encode()
    );
    println!("{}", result.encode());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_full_command_line() {
        let o = parse(&args("--workload query --seed 42 --seconds 7 --trace 1")).unwrap();
        assert_eq!((o.workload.as_str(), o.seed, o.seconds, o.trace), ("query", 42, 7, true));
    }

    #[test]
    fn rejects_unknown_workloads_and_flags() {
        assert!(parse(&args("--workload nope")).is_err());
        assert!(parse(&args("--workload ingest --trace 2")).is_err());
        assert!(parse(&args("--workload ingest --bogus 1")).is_err());
        assert!(parse(&args("--workload ingest --seconds 0")).is_err());
    }
}
