//! `explore_rules` and `explore_joins`: one analyst sends a fixed chain of
//! queries to a fresh engine over the dirty tables.  A run repeats the chain
//! on fresh engines until its time is up, then checks every chain against a
//! serial, single-worker replay of the same inputs.

use std::collections::HashSet;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use daisy_common::{DaisyConfig, DaisyError, Result};
use daisy_core::clean_dc::repair_dc_violations;
use daisy_core::clean_select::clean_select_fd_with;
use daisy_core::index::id_index;
use daisy_core::theta::ThetaMatrix;
use daisy_core::{CleaningPlan, CleaningStrategy, DaisyEngine, FdIndex};
use daisy_exec::{ExecContext, MorselCounters};
use daisy_offline::full::{offline_clean_dc, offline_clean_fd};
use daisy_query::physical::{
    aggregate, filter_selection, filter_tuples, hash_join_coded, AggregateSpec, PredicateMode,
};
use daisy_query::{execute, parse_query, AggregateFunc, Catalog, LogicalPlan, Query, SelectItem};
use daisy_storage::{ColumnSnapshot, Tuple};

use crate::inputs::ExploreInputs;
use crate::stats::{chain_tail, median, peak_rss_mb, ratio, result_digest, world_bytes};
use crate::trace::Tracer;
use crate::Outcome;

/// Fresh engines built (and dropped) before the measured chains, on top of
/// the one each chain builds, so `setup_s` is a median of several.
const EXTRA_SETUPS: usize = 16;

/// The engine configuration: the defaults plus the worker-thread count.
pub fn config(threads: usize) -> DaisyConfig {
    DaisyConfig::default().with_worker_threads(threads)
}

/// Set-up: engine construction plus table and rule registration.
fn build_engine(inputs: &ExploreInputs, config: DaisyConfig) -> Result<DaisyEngine> {
    let mut engine = DaisyEngine::new(config)?;
    for table in &inputs.tables {
        engine.register_table(table.clone());
    }
    for (fd, name) in &inputs.fds {
        engine.add_fd(fd, name);
    }
    for dc in &inputs.dcs {
        engine.add_constraint(dc.clone());
    }
    Ok(engine)
}

/// What one chain produced: its timings and everything the checks compare.
struct Chain {
    setup_s: f64,
    request_ms: Vec<f64>,
    digests: Vec<Option<u64>>,
    world: Vec<u8>,
}

impl Chain {
    fn workload_s(&self) -> f64 {
        self.request_ms.iter().sum::<f64>() / 1e3
    }
}

/// The final tables plus provenance of an engine, canonically encoded.
fn world_of(engine: &DaisyEngine, inputs: &ExploreInputs) -> Result<Vec<u8>> {
    let mut tables = Vec::new();
    let mut provenance = Vec::new();
    for table in &inputs.tables {
        tables.push(engine.table(table.name())?.clone());
        if let Some(store) = engine.provenance(table.name()) {
            provenance.push((table.name().to_string(), store.clone()));
        }
    }
    Ok(world_bytes(0, tables, provenance))
}

/// Runs the chain on a fresh engine, timing each `execute_sql` call.
fn run_chain(inputs: &ExploreInputs, config: DaisyConfig) -> Result<Chain> {
    let start = Instant::now();
    let mut engine = build_engine(inputs, config)?;
    let setup_s = start.elapsed().as_secs_f64();
    let mut request_ms = Vec::with_capacity(inputs.requests.len());
    let mut digests = Vec::with_capacity(inputs.requests.len());
    for sql in &inputs.requests {
        let start = Instant::now();
        let outcome = engine.execute_sql(sql);
        request_ms.push(start.elapsed().as_secs_f64() * 1e3);
        digests.push(outcome.ok().map(|o| result_digest(&o.result)));
    }
    Ok(Chain {
        setup_s,
        request_ms,
        digests,
        world: world_of(&engine, inputs)?,
    })
}

/// Chains until `deadline` (at least one).
fn chains_until(inputs: &ExploreInputs, threads: usize, deadline: Instant) -> Result<Vec<Chain>> {
    let mut chains = Vec::new();
    loop {
        chains.push(run_chain(inputs, config(threads))?);
        if Instant::now() >= deadline {
            return Ok(chains);
        }
    }
}

/// Failed requests of `chains` against the serial single-worker reference:
/// errors and digest mismatches, plus one per chain whose final world
/// differs.
fn check(chains: &[&Chain], reference: &Chain) -> usize {
    chains
        .iter()
        .map(|chain| {
            let bad_requests = chain
                .digests
                .iter()
                .zip(&reference.digests)
                .filter(|(got, want)| got.is_none() || got != want)
                .count();
            bad_requests + usize::from(chain.world != reference.world)
        })
        .sum()
}

/// The untraced run: the end-to-end metrics.
pub fn run(inputs: &ExploreInputs, seconds: f64, threads: usize) -> Result<Outcome> {
    let mut setups = Vec::new();
    for _ in 0..EXTRA_SETUPS {
        let start = Instant::now();
        drop(build_engine(inputs, config(threads))?);
        setups.push(start.elapsed().as_secs_f64());
    }
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    // The peak is read after the first chain: later chains start from the
    // same state, and reading after them would make the figure depend on
    // how many fitted in the run.
    let mut chains = vec![run_chain(inputs, config(threads))?];
    let peak_rss = peak_rss_mb();
    if Instant::now() < deadline {
        chains.extend(chains_until(inputs, threads, deadline)?);
    }

    let reference = run_chain(inputs, config(1))?;
    let attempted = chains.len() * inputs.requests.len();
    let failed = check(&chains.iter().collect::<Vec<_>>(), &reference);

    setups.extend(chains.iter().map(|c| c.setup_s));
    let workloads: Vec<f64> = chains.iter().map(Chain::workload_s).collect();
    let latencies: Vec<f64> = chains.iter().flat_map(|c| c.request_ms.clone()).collect();
    let (tail_ms, tail_note) = chain_tail(
        &chains
            .iter()
            .map(|c| c.request_ms.clone())
            .collect::<Vec<_>>(),
        "chain",
    );
    let measured_s: f64 = workloads.iter().sum();
    Ok(Outcome {
        attempted,
        failed,
        metrics: vec![
            ("setup_s", median(&setups)),
            ("workload_s", median(&workloads)),
            ("request_p50_ms", median(&latencies)),
            ("request_tail_ms", tail_ms),
            ("peak_rss_mb", peak_rss),
            ("requests_per_s", latencies.len() as f64 / measured_s),
        ],
        notes: vec![
            format!(
                "chains={} requests_per_chain={}",
                chains.len(),
                inputs.requests.len()
            ),
            tail_note,
        ],
    })
}

/// Counters of the exec layer, summed over the probes of one traced run.
#[derive(Default)]
struct ExecTotals {
    morsels: u64,
    steals: u64,
    per_worker: Vec<u64>,
}

impl ExecTotals {
    fn absorb(&mut self, counters: &MorselCounters) {
        self.morsels += counters.morsels();
        self.steals += counters.steals();
        let per_worker = counters.per_worker();
        if self.per_worker.len() < per_worker.len() {
            self.per_worker.resize(per_worker.len(), 0);
        }
        for (total, n) in self.per_worker.iter_mut().zip(per_worker) {
            *total += n;
        }
    }

    /// Max over mean morsels per worker (1.0 = perfectly balanced).
    fn imbalance(&self) -> f64 {
        let workers = self.per_worker.len().max(1) as f64;
        let mean = self.per_worker.iter().sum::<u64>() as f64 / workers;
        let max = self.per_worker.iter().copied().max().unwrap_or(0) as f64;
        if mean > 0.0 {
            max / mean
        } else {
            0.0
        }
    }
}

/// Side-effect-free probes of the layers a query is about to cross, run on
/// clones of the engine's live state before the query executes.
fn probe_before(
    engine: &DaisyEngine,
    inputs: &ExploreInputs,
    query: &Query,
    done: &HashSet<u64>,
    tracer: &mut Tracer,
    exec: &mut ExecTotals,
    id: u64,
) -> Result<CleaningPlan> {
    let from = query.from.as_str();
    let table = engine.table(from)?;
    let schema = Arc::new(table.schema().qualify(from));
    let cfg = engine.config();

    let mut catalog = Catalog::new();
    for t in &inputs.tables {
        catalog.add(engine.table(t.name())?.clone());
    }
    let plan = tracer.time("core.plan", id, || {
        CleaningPlan::build(query, engine.constraints(), &catalog, cfg)
    })?;
    let snapshot = tracer.time("storage.snapshot_build", id, || {
        ColumnSnapshot::build(table)
    })?;

    let counters = MorselCounters::new();
    let ctx = ExecContext::new(cfg.worker_threads)
        .with_data_partitions(cfg.data_partitions)
        .with_morsel_counters(Arc::clone(&counters));
    let positions = tracer.time("query.filter", id, || {
        filter_selection(
            &ctx,
            &schema,
            table.tuples(),
            &snapshot,
            None,
            &query.filter,
            PredicateMode::Possible,
        )
    })?;
    tracer.count("query.filter_rows_in", id, table.len() as f64);
    tracer.count("query.filter_rows_out", id, positions.len() as f64);
    let answer: Vec<Tuple> = positions
        .iter()
        .map(|&p| table.tuples()[p].clone())
        .collect();

    for step in plan.steps_for(from) {
        if done.contains(&step.rule.raw()) {
            continue;
        }
        let mut provenance = engine.provenance(from).cloned().unwrap_or_default();
        match &step.fd {
            Some(fd) => {
                let index = tracer.time("core.fd_index_build", id, || {
                    FdIndex::build_with_provenance(table, fd, &provenance)
                })?;
                tracer.count("core.fd_dirty_groups", id, index.dirty_group_count() as f64);
                tracer.count("core.fd_mean_candidates", id, index.mean_candidates());
                tracer.time("core.relax", id, || {
                    clean_select_fd_with(
                        &ctx,
                        step.rule,
                        &index,
                        &answer,
                        table.tuples(),
                        step.filter_target,
                        cfg.max_relaxation_iterations,
                        &mut provenance,
                        Some(&snapshot),
                    )
                })?;
            }
            None => {
                let rule = engine
                    .constraints()
                    .rule(step.rule)
                    .cloned()
                    .ok_or_else(|| DaisyError::Plan("plan names an unknown rule".into()))?;
                let mut matrix = tracer.time("core.theta_build", id, || {
                    ThetaMatrix::build_with_strategy_snap(
                        &schema,
                        table.tuples(),
                        &rule,
                        cfg.theta_blocks_per_side(),
                        step.detection,
                        Some(&snapshot),
                    )
                })?;
                let (violations, stats) = tracer.time("core.theta_check", id, || {
                    matrix.check_all_with(&ctx, &schema, table.tuples(), Some(&snapshot))
                })?;
                tracer.count("core.pairs_compared", id, stats.pairs_compared as f64);
                tracer.count("core.violations", id, violations.len() as f64);
                let by_id = id_index(&ctx, table.tuples());
                tracer.time("core.dc_repair", id, || {
                    repair_dc_violations(&ctx, &schema, &rule, &violations, &by_id, &mut provenance)
                })?;
            }
        }
    }
    exec.absorb(&counters);
    Ok(plan)
}

/// Probes of the operators above the cleaning steps, run on the state the
/// query left behind: the coded hash join and the aggregate.
fn probe_after(engine: &DaisyEngine, query: &Query, tracer: &mut Tracer, id: u64) -> Result<()> {
    let cfg = engine.config();
    let ctx = ExecContext::new(cfg.worker_threads).with_data_partitions(cfg.data_partitions);
    let from = query.from.as_str();
    let table = engine.table(from)?;
    let schema = table.schema().qualify(from);
    let rows = filter_tuples(
        &ctx,
        &schema,
        table.tuples(),
        &query.filter,
        PredicateMode::Possible,
    )?;
    for join in &query.joins {
        let right = engine.table(&join.table)?;
        let right_schema = right.schema().qualify(&join.table);
        let snapshot = ColumnSnapshot::build(right)?;
        tracer.time("query.join", id, || {
            hash_join_coded(
                &ctx,
                &schema,
                &rows,
                None,
                &right_schema,
                right.tuples(),
                None,
                &snapshot,
                &join.left_key,
                &join.right_key,
            )
        })?;
    }
    if query.is_aggregate() && query.joins.is_empty() {
        let mut group_by = query.group_by.clone();
        let mut specs = Vec::new();
        for item in &query.select {
            match item {
                SelectItem::Aggregate { func, column } => {
                    specs.push(AggregateSpec::new(*func, column.as_deref()))
                }
                SelectItem::Column(c) if !group_by.contains(c) => group_by.push(c.clone()),
                _ => {}
            }
        }
        if specs.is_empty() {
            specs.push(AggregateSpec::new(AggregateFunc::Count, None));
        }
        tracer.time("query.aggregate", id, || {
            aggregate(&ctx, &schema, &rows, &group_by, &specs)
        })?;
    }
    Ok(())
}

/// One traced chain: spans around parse and execute, probes around them,
/// and the engine's own report counters.
fn run_traced_chain(
    inputs: &ExploreInputs,
    threads: usize,
    chain: u64,
    tracer: &mut Tracer,
    exec: &mut ExecTotals,
) -> Result<Chain> {
    let start = Instant::now();
    let mut engine = build_engine(inputs, config(threads))?;
    let setup_s = start.elapsed().as_secs_f64();
    let mut done: HashSet<u64> = HashSet::new();
    let mut request_ms = Vec::new();
    let mut digests = Vec::new();
    for (i, sql) in inputs.requests.iter().enumerate() {
        let id = chain * 100_000 + i as u64;
        let root = tracer.begin("request", id);
        let parse_start = Instant::now();
        let query = tracer.time("query.parse", id, || parse_query(sql));
        let parse_ms = parse_start.elapsed().as_secs_f64() * 1e3;
        let query = query?;
        let plan = probe_before(&engine, inputs, &query, &done, tracer, exec, id)?;
        let exec_start = Instant::now();
        let outcome = tracer.time("core.execute", id, || engine.execute(&query));
        request_ms.push(parse_ms + exec_start.elapsed().as_secs_f64() * 1e3);
        match outcome {
            Ok(outcome) => {
                let r = &outcome.report;
                tracer.count("core.result_tuples", id, r.result_tuples as f64);
                tracer.count("core.extra_tuples", id, r.extra_tuples as f64);
                tracer.count(
                    "core.relaxation_iterations",
                    id,
                    r.relaxation_iterations as f64,
                );
                tracer.count("core.errors_repaired", id, r.errors_repaired as f64);
                tracer.count("core.cells_updated", id, r.cells_updated as f64);
                if r.strategy == CleaningStrategy::FullRemaining {
                    done.extend(plan.steps_for(&query.from).iter().map(|s| s.rule.raw()));
                }
                digests.push(Some(result_digest(&outcome.result)));
                probe_after(&engine, &query, tracer, id)?;
            }
            Err(_) => digests.push(None),
        }
        tracer.end(root);
    }
    let end_id = chain * 100_000 + 99_999;
    let (mut cells, mut candidates, mut rows) = (0usize, 0usize, 0usize);
    for t in &inputs.tables {
        let table = engine.table(t.name())?;
        cells += table
            .tuples()
            .iter()
            .flat_map(|tuple| tuple.cells.iter())
            .filter(|c| c.is_probabilistic())
            .count();
        candidates += table.total_candidates();
        rows += table.len();
    }
    tracer.count("storage.probabilistic_cells", end_id, cells as f64);
    tracer.count("storage.candidates_total", end_id, candidates as f64);
    tracer.count(
        "storage.candidates_per_row",
        end_id,
        candidates as f64 / rows.max(1) as f64,
    );
    let switch = engine
        .session()
        .switch_point()
        .map_or(0.0, |q| q as f64 + 1.0);
    tracer.count("core.switch_query", end_id, switch);
    Ok(Chain {
        setup_s,
        request_ms,
        digests,
        world: world_of(&engine, inputs)?,
    })
}

/// The paper's baseline: clean every table offline under every rule, then
/// run the same queries over the cleaned catalog.
fn offline_clean_s(inputs: &ExploreInputs, threads: usize) -> Result<f64> {
    let start = Instant::now();
    let mut catalog = Catalog::new();
    for table in &inputs.tables {
        let mut cleaned = table.clone();
        for (fd, _) in &inputs.fds {
            if fd.attributes().iter().all(|a| cleaned.schema().contains(a)) {
                offline_clean_fd(&mut cleaned, fd)?;
            }
        }
        for dc in &inputs.dcs {
            if dc.attributes().iter().all(|a| cleaned.schema().contains(a)) {
                offline_clean_dc(&mut cleaned, dc)?;
            }
        }
        catalog.add(cleaned);
    }
    let ctx = ExecContext::new(threads);
    for sql in &inputs.requests {
        let plan = LogicalPlan::from_query(&parse_query(sql)?)?;
        execute(&ctx, &catalog, &plan, PredicateMode::Possible)?;
    }
    Ok(start.elapsed().as_secs_f64())
}

/// The traced run: per-layer metrics from spans and probes, the tracing
/// overhead, the half-size growth diagnostic and the offline baseline.
pub fn run_traced(
    inputs: &ExploreInputs,
    half: &ExploreInputs,
    seconds: f64,
    threads: usize,
    trace_path: &Path,
) -> Result<Outcome> {
    // Untraced, traced and half-size chains take turns, so drift in the
    // host's speed hits all three alike and cancels out of
    // `trace.overhead_ratio` and `scale.growth_per_doubling`.
    let mut tracer = Tracer::new(Instant::now());
    let mut exec = ExecTotals::default();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let (mut untraced, mut traced, mut half_chains) = (Vec::new(), Vec::new(), Vec::new());
    loop {
        untraced.push(run_chain(inputs, config(threads))?);
        let chain = traced.len() as u64;
        traced.push(run_traced_chain(
            inputs,
            threads,
            chain,
            &mut tracer,
            &mut exec,
        )?);
        half_chains.push(run_chain(half, config(threads))?);
        if Instant::now() >= deadline {
            break;
        }
    }

    let full_s = median(&untraced.iter().map(Chain::workload_s).collect::<Vec<_>>());
    let half_s = median(
        &half_chains
            .iter()
            .map(Chain::workload_s)
            .collect::<Vec<_>>(),
    );
    let growth = (full_s / inputs.rows as f64) / (half_s / half.rows as f64);
    let offline_s = offline_clean_s(inputs, threads)?;

    let reference = run_chain(inputs, config(1))?;
    let all: Vec<&Chain> = untraced.iter().chain(&traced).collect();
    let attempted = all.len() * inputs.requests.len() + half_chains.len() * half.requests.len();
    let failed = check(&all, &reference);
    let half_reference = run_chain(half, config(1))?;
    let failed = failed + check(&half_chains.iter().collect::<Vec<_>>(), &half_reference);

    tracer
        .write_jsonl(trace_path)
        .map_err(|e| DaisyError::Execution(format!("writing {}: {e}", trace_path.display())))?;

    let n = traced.len() as f64;
    let per_chain = |name: &str| tracer.sum(name) / n;
    let per_chain_ms = |name: &str| tracer.total_ms(name) / n;
    let med = |name: &str| median(&tracer.durations(name));
    let med_count = |name: &str| median(&tracer.values(name));
    let result = tracer.sum("core.result_tuples");
    let extras = tracer.sum("core.extra_tuples");
    let traced_s = median(&traced.iter().map(Chain::workload_s).collect::<Vec<_>>());

    let metrics = vec![
        ("query.parse_ms", med("query.parse")),
        ("query.filter_ms", med("query.filter")),
        ("query.filter_rows_in", med_count("query.filter_rows_in")),
        ("query.filter_rows_out", med_count("query.filter_rows_out")),
        ("query.aggregate_ms", med("query.aggregate")),
        ("query.join_ms", med("query.join")),
        ("storage.snapshot_build_ms", med("storage.snapshot_build")),
        (
            "storage.probabilistic_cells",
            per_chain("storage.probabilistic_cells"),
        ),
        (
            "storage.candidates_total",
            per_chain("storage.candidates_total"),
        ),
        (
            "storage.candidates_per_row",
            per_chain("storage.candidates_per_row"),
        ),
        ("core.execute_ms", med("core.execute")),
        ("core.plan_ms", med("core.plan")),
        (
            "core.fd_index_build_ms",
            per_chain_ms("core.fd_index_build"),
        ),
        ("core.fd_dirty_groups", med_count("core.fd_dirty_groups")),
        (
            "core.fd_mean_candidates",
            med_count("core.fd_mean_candidates"),
        ),
        ("core.relax_ms", per_chain_ms("core.relax")),
        ("core.extra_tuples", per_chain("core.extra_tuples")),
        (
            "core.relaxation_iterations",
            per_chain("core.relaxation_iterations"),
        ),
        ("core.useful_ratio", ratio(result, result + extras)),
        ("core.theta_build_ms", per_chain_ms("core.theta_build")),
        ("core.theta_check_ms", per_chain_ms("core.theta_check")),
        ("core.pairs_compared", per_chain("core.pairs_compared")),
        ("core.violations", per_chain("core.violations")),
        ("core.dc_repair_ms", per_chain_ms("core.dc_repair")),
        ("core.errors_repaired", per_chain("core.errors_repaired")),
        ("core.cells_updated", per_chain("core.cells_updated")),
        ("core.switch_query", per_chain("core.switch_query")),
        ("exec.morsels", exec.morsels as f64 / n),
        ("exec.steals", exec.steals as f64 / n),
        ("exec.imbalance", exec.imbalance()),
        ("offline.clean_s", offline_s),
        ("scale.growth_per_doubling", growth),
        ("trace.overhead_ratio", traced_s / full_s),
    ];
    let mut notes = vec![format!(
        "untraced chains={} traced chains={} half-size rows={} workload_s={half_s:.4}",
        untraced.len(),
        traced.len(),
        half.rows,
    )];
    notes.extend(
        tracer
            .self_times()
            .into_iter()
            .map(|(name, ms)| format!("self time {name}: {:.3} ms per chain", ms / n)),
    );
    notes.push(format!("peak_rss_mb (traced run) {:.1}", peak_rss_mb()));
    Ok(Outcome {
        attempted,
        failed,
        metrics,
        notes,
    })
}
