//! The Daisy benchmark.
//!
//! ```text
//! cargo run --release --manifest-path daisybench/Cargo.toml -- \
//!     --workload <explore_rules|explore_joins|durable_service> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints the resolved configuration, one line per metric, and as the last
//! line a JSON object `{"correct", "attempted", "failed", "metrics"}`:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`.  See `daisybench/README.md` for the workloads and metrics.

mod durable;
mod explore;
mod inputs;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use daisy_common::{DurabilityMode, Result};

/// Rows of `lineorder` in `explore_rules`, and its chain length.
const RULES_ROWS: usize = 2_000;
const RULES_QUERIES: usize = 60;
/// Rows of `lineorder` in `explore_joins`, and its chain length.
const JOINS_ROWS: usize = 4_000;
const JOINS_QUERIES: usize = 48;
/// Initial rows of `lineorder` in `durable_service`, script steps per
/// client and rows per ingest batch.
const SERVICE_ROWS: usize = 2_000;
const SERVICE_STEPS: usize = 60;
const SERVICE_BATCH: usize = 8;

/// The end-to-end metrics every untraced run prints, with their units.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("workload_s", "s"),
    ("request_p50_ms", "ms"),
    ("request_tail_ms", "ms"),
    ("peak_rss_mb", "MiB"),
    ("requests_per_s", "1/s"),
];

/// The per-layer metrics every traced run prints, with their units.  A
/// layer a workload does not cross reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("query.parse_ms", "ms"),
    ("query.filter_ms", "ms"),
    ("query.filter_rows_in", "rows"),
    ("query.filter_rows_out", "rows"),
    ("query.aggregate_ms", "ms"),
    ("query.join_ms", "ms"),
    ("storage.snapshot_build_ms", "ms"),
    ("storage.probabilistic_cells", "count"),
    ("storage.candidates_total", "count"),
    ("storage.candidates_per_row", "count"),
    ("core.execute_ms", "ms"),
    ("core.plan_ms", "ms"),
    ("core.fd_index_build_ms", "ms"),
    ("core.fd_dirty_groups", "count"),
    ("core.fd_mean_candidates", "count"),
    ("core.relax_ms", "ms"),
    ("core.extra_tuples", "count"),
    ("core.relaxation_iterations", "count"),
    ("core.useful_ratio", "ratio"),
    ("core.theta_build_ms", "ms"),
    ("core.theta_check_ms", "ms"),
    ("core.pairs_compared", "count"),
    ("core.violations", "count"),
    ("core.dc_repair_ms", "ms"),
    ("core.errors_repaired", "count"),
    ("core.cells_updated", "count"),
    ("core.switch_query", "count"),
    ("core.restore_ms", "ms"),
    ("session.execute_ms", "ms"),
    ("session.commit_ms", "ms"),
    ("session.causes.clean", "count"),
    ("session.causes.footprint_clean", "count"),
    ("session.causes.delta_recheck", "count"),
    ("session.causes.full_rebase", "count"),
    ("session.rebase_ratio", "ratio"),
    ("service.commits_per_s", "1/s"),
    ("service.recovery_s", "s"),
    ("service.disk_bytes_per_commit", "B"),
    ("wal.log_bytes_per_commit", "B"),
    ("wal.checkpoint_bytes", "B"),
    ("wal.fsyncs", "count"),
    ("wal.checkpoints", "count"),
    ("wal.append_ms", "ms"),
    ("wal.fsync_ms", "ms"),
    ("wal.open_ms", "ms"),
    ("wal.replayed", "count"),
    ("exec.morsels", "count"),
    ("exec.steals", "count"),
    ("exec.imbalance", "ratio"),
    ("offline.clean_s", "s"),
    ("scale.growth_per_doubling", "ratio"),
    ("trace.overhead_ratio", "ratio"),
];

/// One measured figure: its name (as listed in `END_TO_END` or
/// `PER_LAYER`, which hold the units) and its value.
pub type Metric = (&'static str, f64);

/// What a workload run reports: requests attempted and failed (errors plus
/// failed output checks), the metrics, and free-form lines for the log.
pub struct Outcome {
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Vec<Metric>,
    pub notes: Vec<String>,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> std::result::Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => match value.as_str() {
                "0" | "1" => trace = Some(value == "1"),
                _ => return Err(format!("--trace {value}: expected 0 or 1")),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// The checkout's git revision, read from `.git` in the working directory
/// without running git; "unknown" outside a git checkout.
fn git_revision() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(head) => head.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(Path::new(".git").join(reference))
            .map(|rev| rev.trim().to_string())
            .unwrap_or_else(|_| format!("unknown ({reference})")),
        None => head,
    }
}

/// Builds one explore workload's inputs: (seed, rows, queries).
type ExploreMaker = fn(u64, usize, usize) -> Result<inputs::ExploreInputs>;

fn run_explore(
    args: &Args,
    threads: usize,
    make: ExploreMaker,
    rows: usize,
    queries: usize,
    trace_path: &Path,
) -> Result<Outcome> {
    let full = make(args.seed, rows, queries)?;
    println!("config: {:?}", explore::config(threads));
    if args.trace {
        let half = make(args.seed, rows / 2, queries)?;
        explore::run_traced(&full, &half, args.seconds, threads, trace_path)
    } else {
        explore::run(&full, args.seconds, threads)
    }
}

fn run(args: &Args, threads: usize) -> Result<Outcome> {
    let trace_path = PathBuf::from("daisybench/traces")
        .join(format!("{}-seed{}.jsonl", args.workload, args.seed));
    match args.workload.as_str() {
        "explore_rules" => run_explore(
            args,
            threads,
            inputs::explore_rules,
            RULES_ROWS,
            RULES_QUERIES,
            &trace_path,
        ),
        "explore_joins" => run_explore(
            args,
            threads,
            inputs::explore_joins,
            JOINS_ROWS,
            JOINS_QUERIES,
            &trace_path,
        ),
        "durable_service" => {
            let inputs = inputs::durable_service(
                args.seed,
                SERVICE_ROWS,
                threads,
                SERVICE_STEPS,
                SERVICE_BATCH,
            )?;
            let cfg = durable::config(DurabilityMode::Commit);
            println!("config: {cfg:?}");
            println!(
                "flush policy: durability={:?} (fsync per commit), checkpoint every {} commits",
                cfg.durability, cfg.checkpoint_interval
            );
            // Stores live inside the checkout, under a directory of this run
            // that is removed when the run ends.
            let scratch = durable::ScratchDir::new(PathBuf::from(format!(
                "daisybench/.scratch-{}",
                std::process::id()
            )))?;
            if args.trace {
                durable::run_traced(&inputs, scratch.path(), args.seconds, &trace_path)
            } else {
                durable::run(&inputs, scratch.path(), args.seconds)
            }
        }
        other => Err(daisy_common::DaisyError::Execution(format!(
            "unknown workload {other} (explore_rules, explore_joins, durable_service)"
        ))),
    }
}

fn main() -> ExitCode {
    let pinned: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("DAISY_"))
        .collect();
    if !pinned.is_empty() {
        eprintln!(
            "refusing to run: DAISY_* variables change the engine's configuration: {pinned:?}"
        );
        return ExitCode::from(2);
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("usage: --workload <name> --seed <n> --seconds <s> --trace <0|1>: {e}");
            return ExitCode::from(2);
        }
    };
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "daisybench workload={} seed={} seconds={} trace={} nproc={threads} git={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        git_revision()
    );
    let outcome = match run(&args, threads) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            return ExitCode::from(1);
        }
    };
    for note in &outcome.notes {
        println!("  {note}");
    }
    let wanted = if args.trace { PER_LAYER } else { END_TO_END };
    let mut fields = Vec::new();
    for &(name, unit) in wanted {
        let value = outcome
            .metrics
            .iter()
            .find(|m| m.0 == name)
            .map_or(0.0, |m| m.1);
        println!("  {name:<34} {value:>16.6} {unit}");
        fields.push(format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    let error_rate = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    println!(
        "  error_rate {error_rate} ({} failed of {} attempted)",
        outcome.failed, outcome.attempted
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted.max(1),
        outcome.failed,
        fields.join(", ")
    );
    ExitCode::SUCCESS
}
