//! `durable_service`: closed-loop clients share one dirty `lineorder`
//! through a persistent `CleaningService` at `commit` durability.  A run
//! repeats rounds (fresh store, every client runs its script, reopen and
//! time recovery) until its time is up.  Every round checks the recovered
//! world against the live one and both against a serial in-memory replay
//! of the requests in their recorded commit order.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use daisy_common::{DaisyConfig, DaisyError, DurabilityMode, Result};
use daisy_core::{CommitCause, DaisyEngine, EngineShared};
use daisy_query::parse_query;
use daisy_service::{CleaningService, ServiceRequest};
use daisy_wal::{CommitLog, LoggedCommit, PersistedWorld, RealVfs, WalStore, LOG_FILE};

use crate::inputs::{ServiceInputs, ServiceOp};
use crate::stats::{chain_tail, median, peak_rss_mb, ratio, result_digest, world_bytes};
use crate::trace::Tracer;
use crate::Outcome;

/// Stores opened (and discarded) before the measured rounds, on top of the
/// one each round opens, so `setup_s` is a median of several.
const EXTRA_SETUPS: usize = 16;

/// Recoveries timed per round; the median is reported.
const RECOVERIES: usize = 3;

/// The service configuration: the defaults plus one engine worker thread,
/// one scheduler worker per request and the durability policy.
pub fn config(durability: DurabilityMode) -> DaisyConfig {
    DaisyConfig::default()
        .with_worker_threads(1)
        .with_service_workers(1)
        .with_durability(durability)
}

/// The bootstrap engine: the initial table and its rule.
fn build_engine(inputs: &ServiceInputs, config: DaisyConfig) -> Result<DaisyEngine> {
    let mut engine = DaisyEngine::new(config)?;
    engine.register_table(inputs.table.clone());
    engine.add_fd(&inputs.fd, "phi");
    Ok(engine)
}

/// A directory under the benchmark's scratch root, removed on drop.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn new(path: PathBuf) -> Result<ScratchDir> {
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(ScratchDir(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Set-up: engine construction, registration and opening the fresh store.
fn open_service(inputs: &ServiceInputs, dir: &Path) -> Result<(CleaningService, f64)> {
    let start = Instant::now();
    let engine = build_engine(inputs, config(DurabilityMode::Commit))?;
    let service = CleaningService::with_persistence(engine, dir)?;
    Ok((service, start.elapsed().as_secs_f64()))
}

fn request(session: &str, op: &ServiceOp) -> ServiceRequest {
    match op {
        ServiceOp::Select(sql) => ServiceRequest::new(session, sql.clone()),
        ServiceOp::Ingest(rows) => ServiceRequest::ingest(session, "lineorder", rows.clone()),
    }
}

/// One acknowledged request: which script step it was, the version its
/// commit produced and a digest of its committed result.
struct Acked {
    client: usize,
    step: usize,
    version: u64,
    digest: u64,
}

/// The live world of a shared core, canonically encoded.
fn live_world(shared: &EngineShared) -> Result<Vec<u8>> {
    let mut tables = Vec::new();
    let mut provenance = Vec::new();
    for name in shared.table_names() {
        tables.push((*shared.table(&name)?).clone());
        if let Some(store) = shared.provenance(&name) {
            provenance.push((name, (*store).clone()));
        }
    }
    Ok(world_bytes(shared.version(), tables, provenance))
}

/// Bytes on disk under `dir`: (commit log, checkpoints).
fn disk_bytes(dir: &Path) -> Result<(u64, u64)> {
    let (mut log, mut checkpoints) = (0, 0);
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let len = entry.metadata()?.len();
        if entry.file_name() == LOG_FILE {
            log += len;
        } else {
            checkpoints += len;
        }
    }
    Ok((log, checkpoints))
}

/// What one round measured.
struct Round {
    setup_s: f64,
    wall_s: f64,
    latencies_ms: Vec<f64>,
    acked: Vec<Acked>,
    failed: usize,
    recovery_s: f64,
    log_bytes: u64,
    checkpoint_bytes: u64,
    fsyncs: u64,
    checkpoints: u64,
}

impl Round {
    fn commits(&self) -> f64 {
        self.acked.len() as f64
    }

    fn commits_per_s(&self) -> f64 {
        self.commits() / self.wall_s
    }

    fn disk_bytes_per_commit(&self) -> f64 {
        (self.log_bytes + self.checkpoint_bytes) as f64 / self.commits().max(1.0)
    }
}

/// The median of `f` over `rounds`.
fn median_of(rounds: &[Round], f: impl Fn(&Round) -> f64) -> f64 {
    median(&rounds.iter().map(f).collect::<Vec<_>>())
}

/// Drives every client's script through the service (or, traced, through
/// the session API the service is built on).
fn drive(
    service: &CleaningService,
    inputs: &ServiceInputs,
    origin: Instant,
    tracers: Option<&Mutex<Vec<Tracer>>>,
) -> (Vec<f64>, Vec<Acked>, usize) {
    let results = Mutex::new((Vec::new(), Vec::new(), 0usize));
    std::thread::scope(|scope| {
        for (client, script) in inputs.scripts.iter().enumerate() {
            let results = &results;
            scope.spawn(move || {
                let mut tracer = tracers.map(|_| Tracer::new(origin));
                let mut latencies = Vec::with_capacity(script.len());
                let mut acked = Vec::with_capacity(script.len());
                let mut failed = 0;
                for (step, op) in script.iter().enumerate() {
                    let start = Instant::now();
                    let committed = match tracer.as_mut() {
                        None => {
                            let report = service.run(std::slice::from_ref(&request(
                                &format!("client-{client}"),
                                op,
                            )));
                            report.outcomes.into_iter().next().and_then(|o| {
                                Some((o.committed_version?, result_digest(&o.outcome.ok()?.result)))
                            })
                        }
                        Some(tracer) => traced_request(service.shared(), client, step, op, tracer),
                    };
                    latencies.push(start.elapsed().as_secs_f64() * 1e3);
                    match committed {
                        Some((version, digest)) => acked.push(Acked {
                            client,
                            step,
                            version,
                            digest,
                        }),
                        None => failed += 1,
                    }
                }
                let mut all = results.lock().expect("results lock");
                all.0.extend(latencies);
                all.1.extend(acked);
                all.2 += failed;
                if let (Some(tracers), Some(tracer)) = (tracers, tracer) {
                    tracers.lock().expect("tracer lock").push(tracer);
                }
            });
        }
    });
    results.into_inner().expect("results lock")
}

/// One request through `EngineShared::session` → execute/ingest → commit,
/// with spans around each call.
fn traced_request(
    shared: &Arc<EngineShared>,
    client: usize,
    step: usize,
    op: &ServiceOp,
    tracer: &mut Tracer,
) -> Option<(u64, u64)> {
    let id = (client as u64) << 32 | step as u64;
    let root = tracer.begin("request", id);
    let mut session = shared.session_named(&format!("client-{client}"));
    let executed = match op {
        ServiceOp::Select(sql) => {
            let query = tracer.time("query.parse", id, || parse_query(sql)).ok()?;
            tracer.time("session.execute", id, || session.execute(&query))
        }
        ServiceOp::Ingest(rows) => tracer.time("session.execute", id, || {
            session.ingest_rows("lineorder", rows.clone())
        }),
    };
    let committed = executed
        .ok()
        .and_then(|_| tracer.time("session.commit", id, || session.commit()).ok());
    tracer.end(root);
    let receipt = committed?;
    let cause = match receipt.cause {
        CommitCause::Clean => "session.causes.clean",
        CommitCause::FootprintClean => "session.causes.footprint_clean",
        CommitCause::DeltaRecheck => "session.causes.delta_recheck",
        CommitCause::FullRebase => "session.causes.full_rebase",
    };
    tracer.count(cause, id, 1.0);
    let outcome = receipt.outcomes.last()?;
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
    Some((receipt.version, result_digest(&outcome.result)))
}

/// Failed checks of a finished round: per-request digests and the final
/// world of a serial in-memory replay in commit order must match the live
/// run, and so must the recovered world.
fn check_round(
    inputs: &ServiceInputs,
    acked: &mut [Acked],
    live: &[u8],
    recovered: &[u8],
) -> Result<usize> {
    acked.sort_by_key(|a| a.version);
    let mut failed = usize::from(live != recovered);
    failed += acked
        .iter()
        .enumerate()
        .filter(|(i, a)| a.version != *i as u64 + 1)
        .count();
    // One lane, so admission keeps the commit order.
    let ordered: Vec<ServiceRequest> = acked
        .iter()
        .map(|a| request("replay", &inputs.scripts[a.client][a.step]))
        .collect();
    let serial = CleaningService::new(build_engine(inputs, config(DurabilityMode::Off))?);
    let report = serial.run_serial(&ordered);
    failed += acked
        .iter()
        .zip(&report.outcomes)
        .filter(|(a, o)| match &o.outcome {
            Ok(q) => result_digest(&q.result) != a.digest,
            Err(_) => true,
        })
        .count();
    failed += usize::from(live_world(serial.shared())? != live);
    Ok(failed)
}

/// One round in a fresh store at `dir`: every client runs its script, then
/// the store is reopened (recovery timed) and the round is checked.
fn run_round(
    inputs: &ServiceInputs,
    dir: &Path,
    tracers: Option<&Mutex<Vec<Tracer>>>,
    origin: Instant,
) -> Result<Round> {
    let (service, setup_s) = open_service(inputs, dir)?;
    let before = service.shared().persistence_stats().unwrap_or_default();
    let start = Instant::now();
    let (latencies_ms, mut acked, failed) = drive(&service, inputs, origin, tracers);
    let wall_s = start.elapsed().as_secs_f64();
    let after = service.shared().persistence_stats().unwrap_or_default();
    let live = live_world(service.shared())?;
    drop(service);
    let (log_bytes, checkpoint_bytes) = disk_bytes(dir)?;

    let mut recoveries = Vec::new();
    let mut recovered = Vec::new();
    for _ in 0..RECOVERIES {
        let engine = build_engine(inputs, config(DurabilityMode::Commit))?;
        let start = Instant::now();
        let shared = EngineShared::recover(engine, dir)?;
        recoveries.push(start.elapsed().as_secs_f64());
        recovered = live_world(&shared)?;
    }
    let failed = failed + check_round(inputs, &mut acked, &live, &recovered)?;
    Ok(Round {
        setup_s,
        wall_s,
        latencies_ms,
        acked,
        failed,
        recovery_s: median(&recoveries),
        log_bytes,
        checkpoint_bytes,
        fsyncs: after.fsyncs - before.fsyncs,
        checkpoints: after.checkpoints - before.checkpoints,
    })
}

/// Rounds until `deadline` (at least one), each in its own store under
/// `root`.  The last round's store is kept for probes; the others are
/// removed as soon as their round ends.
fn rounds_until(
    inputs: &ServiceInputs,
    root: &Path,
    tag: &str,
    deadline: Instant,
    tracers: Option<&Mutex<Vec<Tracer>>>,
    origin: Instant,
) -> Result<(Vec<Round>, ScratchDir)> {
    let mut rounds = Vec::new();
    loop {
        let dir = ScratchDir::new(root.join(format!("{tag}-{}", rounds.len())))?;
        rounds.push(run_round(inputs, dir.path(), tracers, origin)?);
        if Instant::now() >= deadline {
            return Ok((rounds, dir));
        }
    }
}

fn attempted(rounds: &[Round]) -> usize {
    rounds.iter().map(|r| r.latencies_ms.len()).sum()
}

fn failed(rounds: &[Round]) -> usize {
    rounds.iter().map(|r| r.failed).sum()
}

/// The untraced run: the end-to-end metrics.
pub fn run(inputs: &ServiceInputs, root: &Path, seconds: f64) -> Result<Outcome> {
    let mut setups = Vec::new();
    for i in 0..EXTRA_SETUPS {
        let dir = ScratchDir::new(root.join(format!("setup-{i}")))?;
        setups.push(open_service(inputs, dir.path())?.1);
    }
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    // The peak is read after the first round, as in the explore workloads.
    let mut rounds = rounds_until(inputs, root, "first", Instant::now(), None, Instant::now())?.0;
    let peak_rss = peak_rss_mb();
    if Instant::now() < deadline {
        rounds.extend(rounds_until(inputs, root, "round", deadline, None, Instant::now())?.0);
    }

    setups.extend(rounds.iter().map(|r| r.setup_s));
    let latencies: Vec<f64> = rounds.iter().flat_map(|r| r.latencies_ms.clone()).collect();
    let (tail_ms, tail_note) = chain_tail(
        &rounds
            .iter()
            .map(|r| r.latencies_ms.clone())
            .collect::<Vec<_>>(),
        "round",
    );
    Ok(Outcome {
        attempted: attempted(&rounds),
        failed: failed(&rounds),
        metrics: vec![
            ("setup_s", median(&setups)),
            ("workload_s", median_of(&rounds, |r| r.wall_s)),
            ("request_p50_ms", median(&latencies)),
            ("request_tail_ms", tail_ms),
            ("peak_rss_mb", peak_rss),
            ("requests_per_s", median_of(&rounds, Round::commits_per_s)),
        ],
        notes: vec![
            format!(
                "rounds={} clients={} commits_per_round={}",
                rounds.len(),
                inputs.scripts.len(),
                median_of(&rounds, Round::commits)
            ),
            tail_note
                .replace("chains", "rounds")
                .replace("chain", "round"),
            format!(
                "commits_per_s {:.3} 1/s (every request commits)",
                median_of(&rounds, Round::commits_per_s)
            ),
            format!("recovery_s {:.6} s", median_of(&rounds, |r| r.recovery_s)),
            format!(
                "disk_bytes_per_commit {:.1} B",
                median_of(&rounds, Round::disk_bytes_per_commit)
            ),
        ],
    })
}

/// Re-appends `commits` to a fresh commit log under `mode`; returns the
/// total seconds.
fn reappend(commits: &[LoggedCommit], dir: &Path, mode: DurabilityMode) -> Result<f64> {
    let mut log = CommitLog::create(Arc::new(RealVfs), &dir.join(LOG_FILE), 0)?;
    let start = Instant::now();
    for commit in commits {
        log.append(commit, mode)?;
    }
    Ok(start.elapsed().as_secs_f64())
}

/// The traced run: session and WAL layer metrics.
pub fn run_traced(
    inputs: &ServiceInputs,
    root: &Path,
    seconds: f64,
    trace_path: &Path,
) -> Result<Outcome> {
    // Untraced and traced rounds take turns, so drift in the host's speed
    // cancels out of `trace.overhead_ratio`.
    let origin = Instant::now();
    let deadline = origin + Duration::from_secs_f64(seconds);
    let tracers = Mutex::new(Vec::new());
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let dir = loop {
        let dir = ScratchDir::new(root.join("untraced"))?;
        untraced.push(run_round(inputs, dir.path(), None, origin)?);
        drop(dir);
        let dir = ScratchDir::new(root.join(format!("traced-{}", traced.len())))?;
        traced.push(run_round(inputs, dir.path(), Some(&tracers), origin)?);
        if Instant::now() >= deadline {
            break dir;
        }
    };
    let last = traced.last().expect("at least one traced round");

    // Probes on the last traced round's store and its logged records.
    let shared = EngineShared::recover(
        build_engine(inputs, config(DurabilityMode::Commit))?,
        dir.path(),
    )?;
    let logged = shared.deltas_between(0..shared.version())?;
    let table = (*shared.table("lineorder")?).clone();
    drop(shared);
    let seed = PersistedWorld {
        version: 0,
        tables: vec![inputs.table.clone()],
        provenance: Vec::new(),
    };
    let cfg = config(DurabilityMode::Commit);
    let start = Instant::now();
    let (store, recovered) = WalStore::open(
        Arc::new(RealVfs),
        dir.path(),
        cfg.durability,
        cfg.checkpoint_interval,
        &seed,
    )?;
    let open_s = start.elapsed().as_secs_f64();
    drop(store);
    let scratch = ScratchDir::new(root.join("reappend-off"))?;
    let append_s = reappend(&logged, scratch.path(), DurabilityMode::Off)?;
    let scratch = ScratchDir::new(root.join("reappend-commit"))?;
    let synced_s = reappend(&logged, scratch.path(), DurabilityMode::Commit)?;
    let records = logged.len().max(1) as f64;

    let mut tracer = Tracer::new(origin);
    for t in tracers.into_inner().expect("tracer lock") {
        tracer.absorb(t);
    }
    tracer
        .write_jsonl(trace_path)
        .map_err(|e| DaisyError::Execution(format!("writing {}: {e}", trace_path.display())))?;

    let n = traced.len() as f64;
    let commits: f64 = traced.iter().map(Round::commits).sum();
    let per_round = |name: &str| tracer.sum(name) / n;
    let med = |name: &str| median(&tracer.durations(name));
    let result = tracer.sum("core.result_tuples");
    let extras = tracer.sum("core.extra_tuples");
    let candidates = table.total_candidates() as f64;
    let cells = table
        .tuples()
        .iter()
        .flat_map(|t| t.cells.iter())
        .filter(|c| c.is_probabilistic())
        .count() as f64;
    let metrics = vec![
        ("query.parse_ms", med("query.parse")),
        ("storage.probabilistic_cells", cells),
        ("storage.candidates_total", candidates),
        (
            "storage.candidates_per_row",
            candidates / table.len().max(1) as f64,
        ),
        ("core.extra_tuples", per_round("core.extra_tuples")),
        (
            "core.relaxation_iterations",
            per_round("core.relaxation_iterations"),
        ),
        ("core.useful_ratio", ratio(result, result + extras)),
        ("core.errors_repaired", per_round("core.errors_repaired")),
        ("core.cells_updated", per_round("core.cells_updated")),
        ("core.restore_ms", (last.recovery_s - open_s).max(0.0) * 1e3),
        ("session.execute_ms", med("session.execute")),
        ("session.commit_ms", med("session.commit")),
        ("session.causes.clean", per_round("session.causes.clean")),
        (
            "session.causes.footprint_clean",
            per_round("session.causes.footprint_clean"),
        ),
        (
            "session.causes.delta_recheck",
            per_round("session.causes.delta_recheck"),
        ),
        (
            "session.causes.full_rebase",
            per_round("session.causes.full_rebase"),
        ),
        (
            "session.rebase_ratio",
            ratio(tracer.sum("session.causes.full_rebase"), commits),
        ),
        (
            "service.commits_per_s",
            median_of(&traced, Round::commits_per_s),
        ),
        ("service.recovery_s", median_of(&traced, |r| r.recovery_s)),
        (
            "service.disk_bytes_per_commit",
            median_of(&traced, Round::disk_bytes_per_commit),
        ),
        (
            "wal.log_bytes_per_commit",
            last.log_bytes as f64 / last.commits().max(1.0),
        ),
        ("wal.checkpoint_bytes", last.checkpoint_bytes as f64),
        ("wal.fsyncs", median_of(&traced, |r| r.fsyncs as f64)),
        (
            "wal.checkpoints",
            median_of(&traced, |r| r.checkpoints as f64),
        ),
        ("wal.append_ms", append_s * 1e3 / records),
        (
            "wal.fsync_ms",
            (synced_s - append_s).max(0.0) * 1e3 / records,
        ),
        ("wal.open_ms", open_s * 1e3),
        ("wal.replayed", recovered.replayed as f64),
        (
            "trace.overhead_ratio",
            median_of(&traced, |r| r.wall_s) / median_of(&untraced, |r| r.wall_s),
        ),
    ];
    let mut notes = vec![format!(
        "untraced rounds={} traced rounds={}",
        untraced.len(),
        traced.len()
    )];
    notes.extend(
        tracer
            .self_times()
            .into_iter()
            .map(|(name, ms)| format!("self time {name}: {:.3} ms per round", ms / n)),
    );
    Ok(Outcome {
        attempted: attempted(&untraced) + attempted(&traced),
        failed: failed(&untraced) + failed(&traced),
        metrics,
        notes,
    })
}
