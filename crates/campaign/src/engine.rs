//! Campaign execution: recipe → fingerprinted cells → retrying,
//! deadline-aware, crash-survivable threadpool run → artifact.
//!
//! The engine layers on the `shadow-bench` per-cell runner: each cell
//! runs behind `catch_unwind` (plus an optional wall-clock deadline)
//! with bounded deterministic-backoff retries drawing from a
//! campaign-wide [`RetryBudget`] pool. A cell that exhausts its retries
//! is **quarantined** — recorded, reported, and set aside — instead of
//! wedging the queue. Completed cells checkpoint to the JSONL manifest
//! as they finish, so a `kill -9` loses at most the in-flight cells and
//! a re-run restores the rest bit-identically. SIGINT/SIGTERM request a
//! cooperative drain: in-flight cells finish and flush, queued cells are
//! recorded as skipped, and the exit code says "resume me".

use crate::recipe::{CampaignCell, EventsOut, Recipe};
use crate::signals;
use shadow_bench::json::{report_to_json, Json};
use shadow_bench::runner::{
    append_checkpoint, fingerprint, load_manifest, open_manifest_appender, CellOutcome, CellRunner,
    EventSink, RetryBudget, RetryOutcome, SweepEvent,
};
use shadow_bench::{
    host_cpus, run_parallel, try_timed_run, BenchError, Cell, CellResult, RunOptions,
};
use shadow_conformance::Fault;
use shadow_memsys::Engine;
use std::collections::HashMap;
use std::fmt;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Why a campaign could not run (distinct from cells *failing*, which
/// the campaign absorbs and reports).
#[derive(Debug)]
pub enum CampaignError {
    /// The recipe failed to parse or validate.
    Recipe(crate::recipe::RecipeError),
    /// The manifest could not be read or opened.
    Bench(BenchError),
    /// An artifact or event file could not be written.
    Io {
        /// The offending path.
        path: PathBuf,
        /// The underlying error.
        why: String,
    },
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::Recipe(e) => write!(f, "{e}"),
            CampaignError::Bench(e) => write!(f, "{e}"),
            CampaignError::Io { path, why } => write!(f, "{}: {why}", path.display()),
        }
    }
}

impl std::error::Error for CampaignError {}

impl From<crate::recipe::RecipeError> for CampaignError {
    fn from(e: crate::recipe::RecipeError) -> Self {
        CampaignError::Recipe(e)
    }
}

impl From<BenchError> for CampaignError {
    fn from(e: BenchError) -> Self {
        CampaignError::Bench(e)
    }
}

/// How one campaign cell ended.
#[derive(Debug, Clone, PartialEq)]
pub enum CellStatus {
    /// Completed; `restored` marks checkpoint-manifest hits.
    Ok {
        /// Restored from the manifest rather than executed.
        restored: bool,
    },
    /// Exhausted its retries (or the campaign retry pool) and was set
    /// aside. `reason` is the terminal outcome label; `error` the last
    /// failure's diagnosis; `diverged` flags a reference-probe success
    /// (a fast-path/reference divergence, reported loudly).
    Quarantined {
        /// Terminal outcome label (`"panicked"` / `"stalled"` /
        /// `"timed-out"`).
        reason: &'static str,
        /// The last failure's diagnosis.
        error: String,
        /// The reference-engine probe *succeeded* — an engine bug
        /// signal, not a recovery.
        diverged: bool,
    },
    /// The cell could not be constructed (unknown workload, invalid
    /// config). Never retried.
    Invalid {
        /// The construction error.
        error: String,
    },
    /// Never dispatched: a drain was requested while it was queued.
    Skipped,
}

impl CellStatus {
    /// Machine-readable label used in the artifact and summary.
    pub fn label(&self) -> &'static str {
        match self {
            CellStatus::Ok { restored: false } => "ok",
            CellStatus::Ok { restored: true } => "restored",
            CellStatus::Quarantined { .. } => "quarantined",
            CellStatus::Invalid { .. } => "invalid",
            CellStatus::Skipped => "skipped",
        }
    }
}

/// The full record of one campaign cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellRecord {
    /// Scenario the cell came from.
    pub scenario: String,
    /// Workload name.
    pub workload: String,
    /// Scheme display name.
    pub scheme: &'static str,
    /// Configuration fingerprint (the manifest key).
    pub fingerprint: u64,
    /// How the cell ended.
    pub status: CellStatus,
    /// Fast-path attempts consumed (0 for restores and skips).
    pub attempts: u32,
    /// Wall-clock seconds of the winning attempt (original run's for
    /// restores; 0 for skips).
    pub wall_secs: f64,
    /// The simulation report, for completed cells.
    pub result: Option<CellResult>,
}

/// Per-status tally of a finished campaign.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CampaignSummary {
    /// Cells executed to completion this run.
    pub ok: usize,
    /// Cells restored from the checkpoint manifest.
    pub restored: usize,
    /// Cells quarantined after retry exhaustion.
    pub quarantined: usize,
    /// Cells that could not be constructed.
    pub invalid: usize,
    /// Cells skipped by a graceful drain.
    pub skipped: usize,
    /// Quarantined cells whose reference probe succeeded (fast-path
    /// divergences).
    pub diverged: usize,
}

impl fmt::Display for CampaignSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ok ({} restored), {} quarantined, {} invalid, {} skipped",
            self.ok + self.restored,
            self.restored,
            self.quarantined,
            self.invalid,
            self.skipped
        )?;
        if self.diverged > 0 {
            write!(
                f,
                " ({} recovered on the reference engine — fast-path divergence!)",
                self.diverged
            )?;
        }
        Ok(())
    }
}

/// The result of a campaign run.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    /// Campaign name from the recipe.
    pub name: String,
    /// One record per expanded cell, in expansion order.
    pub cells: Vec<CellRecord>,
    /// Per-status tally.
    pub summary: CampaignSummary,
    /// FNV-1a digest over the completed cells' `(fingerprint, report)`
    /// pairs in cell order — the bit-identity witness the crash-resume
    /// tests compare. Wall-clock is deliberately excluded.
    pub digest: u64,
    /// Whether a graceful drain cut the campaign short.
    pub drained: bool,
    /// Retry tokens drawn from the campaign pool.
    pub retries_spent: u64,
}

impl CampaignReport {
    /// Process exit code: `0` all cells completed, `1` quarantined or
    /// invalid cells, `130` drained (resumable).
    pub fn exit_code(&self) -> i32 {
        if self.drained {
            130
        } else if self.summary.quarantined > 0 || self.summary.invalid > 0 {
            1
        } else {
            0
        }
    }

    /// Serializes the artifact JSON.
    pub fn to_json(&self) -> Json {
        let cells = self
            .cells
            .iter()
            .map(|c| {
                let mut fields = vec![
                    ("scenario".to_string(), Json::str(&c.scenario)),
                    ("workload".to_string(), Json::str(&c.workload)),
                    ("scheme".to_string(), Json::str(c.scheme)),
                    ("fp".to_string(), Json::u64(c.fingerprint)),
                    ("status".to_string(), Json::str(c.status.label())),
                    ("attempts".to_string(), Json::u64(u64::from(c.attempts))),
                    ("wall_secs".to_string(), Json::f64(c.wall_secs)),
                ];
                match &c.status {
                    CellStatus::Quarantined {
                        error, diverged, ..
                    } => {
                        fields.push(("error".into(), Json::str(error)));
                        fields.push(("diverged".into(), Json::Bool(*diverged)));
                    }
                    CellStatus::Invalid { error } => {
                        fields.push(("error".into(), Json::str(error)));
                    }
                    _ => {}
                }
                if let Some(r) = &c.result {
                    fields.push(("report".into(), report_to_json(&r.report)));
                }
                Json::Obj(fields)
            })
            .collect();
        Json::Obj(vec![
            ("campaign".to_string(), Json::str(&self.name)),
            ("drained".to_string(), Json::Bool(self.drained)),
            ("digest".to_string(), Json::u64(self.digest)),
            (
                "summary".to_string(),
                Json::Obj(vec![
                    ("ok".to_string(), Json::u64(self.summary.ok as u64)),
                    (
                        "restored".to_string(),
                        Json::u64(self.summary.restored as u64),
                    ),
                    (
                        "quarantined".to_string(),
                        Json::u64(self.summary.quarantined as u64),
                    ),
                    (
                        "invalid".to_string(),
                        Json::u64(self.summary.invalid as u64),
                    ),
                    (
                        "skipped".to_string(),
                        Json::u64(self.summary.skipped as u64),
                    ),
                    ("retries".to_string(), Json::u64(self.retries_spent)),
                ]),
            ),
            ("cells".to_string(), Json::Arr(cells)),
        ])
    }
}

/// One observable campaign moment, streamed as JSONL. Cell-level moments
/// wrap the runner's [`SweepEvent`]s; the campaign adds lifecycle
/// brackets and quarantine/drain notices.
#[derive(Debug, Clone, PartialEq)]
pub enum CampaignEvent {
    /// The campaign began.
    Started {
        /// Campaign name.
        name: String,
        /// Expanded cell count.
        cells: usize,
        /// Cells already satisfied by the checkpoint manifest.
        restored: usize,
    },
    /// A cell-level runner event.
    Sweep(SweepEvent),
    /// A graceful drain began (in-flight cells finishing).
    Draining,
    /// The campaign ended.
    Finished {
        /// Summary label (the [`CampaignSummary`] display form).
        summary: String,
        /// The artifact digest.
        digest: u64,
        /// The process exit code the run will report.
        exit_code: i32,
    },
}

impl CampaignEvent {
    /// Serializes to one JSON object (one JSONL line).
    pub fn to_json(&self) -> Json {
        match self {
            CampaignEvent::Started {
                name,
                cells,
                restored,
            } => Json::Obj(vec![
                ("event".to_string(), Json::str("campaign-started")),
                ("campaign".to_string(), Json::str(name)),
                ("cells".to_string(), Json::u64(*cells as u64)),
                ("restored".to_string(), Json::u64(*restored as u64)),
            ]),
            CampaignEvent::Sweep(ev) => ev.to_json(),
            CampaignEvent::Draining => {
                Json::Obj(vec![("event".to_string(), Json::str("campaign-draining"))])
            }
            CampaignEvent::Finished {
                summary,
                digest,
                exit_code,
            } => Json::Obj(vec![
                ("event".to_string(), Json::str("campaign-finished")),
                ("summary".to_string(), Json::str(summary)),
                ("digest".to_string(), Json::u64(*digest)),
                ("exit_code".to_string(), Json::u64(*exit_code as u64)),
            ]),
        }
    }
}

/// Observer for [`CampaignEvent`]s. Called from worker threads; sinks
/// must serialize internally.
pub type CampaignSink = Arc<dyn Fn(&CampaignEvent) + Send + Sync>;

/// A sink that drops every event.
pub fn null_campaign_sink() -> CampaignSink {
    Arc::new(|_| {})
}

/// A sink writing one JSONL line per event to `out` (shared, locked).
pub fn jsonl_sink(out: Arc<Mutex<dyn Write + Send>>) -> CampaignSink {
    Arc::new(move |ev: &CampaignEvent| {
        let line = ev.to_json().to_json();
        let mut w = out.lock().expect("event writer poisoned");
        let _ = writeln!(w, "{line}");
        let _ = w.flush();
    })
}

/// Caller-side knobs layered over the recipe (CLI flags win).
#[derive(Debug, Clone, Default)]
pub struct CampaignOptions {
    /// Worker-thread override (default: the recipe's `threads`, then the
    /// host CPU count).
    pub threads: Option<usize>,
    /// Checkpoint-manifest override.
    pub manifest: Option<PathBuf>,
    /// Base directory for relative recipe paths (manifest, artifact,
    /// event files). Default: the process working directory.
    pub base_dir: Option<PathBuf>,
    /// Replay every executed cell's command trace through the conformance
    /// oracle; a protocol violation fails the cell. Restored cells are not
    /// replayed.
    pub oracle: bool,
}

fn resolve(base: Option<&Path>, p: &Path) -> PathBuf {
    match base {
        Some(b) if p.is_relative() => b.join(p),
        _ => p.to_path_buf(),
    }
}

/// Creates the directory `p` sits in, if `p` names one.
fn create_parent(p: &Path) -> Result<(), CampaignError> {
    match p.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => {
            std::fs::create_dir_all(dir).map_err(|e| CampaignError::Io {
                path: dir.to_path_buf(),
                why: e.to_string(),
            })
        }
        _ => Ok(()),
    }
}

/// Builds the cell runner: [`try_timed_run`] with the campaign's oracle
/// switch, plus the injected fault for cells named by a `[[fault]]` spec.
/// A fault fires on the fast path, and on the reference probe only when
/// its spec says `in_reference`. Cells without a fault entry run exactly
/// as in a fault-free campaign, so a fault-injected campaign's healthy
/// cells stay bit-identical to it (pinned by the campaign tests).
fn build_runner(recipe: &Recipe, cells: &[CampaignCell], oracle: bool) -> CellRunner {
    let faults: HashMap<u64, (Fault, bool)> = recipe
        .faults
        .iter()
        .map(|f| (cells[f.cell].fingerprint, (f.fault, f.in_reference)))
        .collect();
    Arc::new(move |cell: Cell, engine| {
        let fault = match faults.get(&fingerprint(&cell)) {
            Some(&(fault, in_reference)) if engine == Engine::Fast || in_reference => Some(fault),
            _ => None,
        };
        let (cfg, workload, scheme) = cell;
        let opts = RunOptions {
            engine,
            oracle,
            fault,
        };
        try_timed_run(cfg, &workload, scheme, opts)
    })
}

/// FNV-1a over the completed cells' `(fingerprint, report JSON)` pairs in
/// cell order — wall-clock excluded, so an interrupted-and-resumed
/// campaign digests identically to an uninterrupted one.
fn artifact_digest(records: &[CellRecord]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for r in records {
        eat(&r.fingerprint.to_le_bytes());
        match &r.result {
            Some(res) => eat(report_to_json(&res.report).to_json().as_bytes()),
            None => eat(r.status.label().as_bytes()),
        }
    }
    h
}

/// Runs a campaign to completion (or graceful drain).
///
/// # Errors
///
/// [`CampaignError`] only for infrastructure failures — unreadable
/// manifest, unwritable artifact. Cell failures are *absorbed*: they
/// come back as quarantined/invalid records and a nonzero
/// [`CampaignReport::exit_code`].
pub fn run_campaign(
    recipe: &Recipe,
    opts: &CampaignOptions,
    sink: &CampaignSink,
) -> Result<CampaignReport, CampaignError> {
    let cells = recipe.expand();
    let base = opts.base_dir.as_deref();
    let threads = opts
        .threads
        .or(recipe.exec.threads)
        .unwrap_or_else(host_cpus);
    let manifest_path = opts
        .manifest
        .clone()
        .or_else(|| recipe.reporting.manifest.clone())
        .map(|p| resolve(base, &p));
    let restored: HashMap<u64, CellResult> = match &manifest_path {
        Some(p) if p.exists() => load_manifest(p)?,
        _ => HashMap::new(),
    };
    let appender = match &manifest_path {
        Some(p) => {
            create_parent(p)?;
            Some(Mutex::new(open_manifest_appender(p)?))
        }
        None => None,
    };
    let restored_hits = cells
        .iter()
        .filter(|c| restored.contains_key(&c.fingerprint))
        .count();
    sink(&CampaignEvent::Started {
        name: recipe.name.clone(),
        cells: cells.len(),
        restored: restored_hits,
    });

    let pool = match recipe.exec.max_total_retries {
        Some(n) => RetryBudget::new(n),
        None => RetryBudget::unlimited(),
    };
    let pool_start = pool.remaining();
    let runner = build_runner(recipe, &cells, opts.oracle);
    let policy = recipe.exec.retry;
    let deadline = recipe.exec.cell_deadline_secs;
    let drain_announced = Mutex::new(false);

    let sweep_sink: EventSink = {
        let sink = sink.clone();
        Arc::new(move |ev: &SweepEvent| sink(&CampaignEvent::Sweep(ev.clone())))
    };

    let jobs: Vec<_> = cells
        .iter()
        .enumerate()
        .map(|(index, cc)| {
            let cc = cc.clone();
            let restored = &restored;
            let appender = appender.as_ref();
            let pool = &pool;
            let runner = &runner;
            let sweep_sink = &sweep_sink;
            let drain_announced = &drain_announced;
            move || -> CellRecord {
                let mut record = CellRecord {
                    scenario: cc.scenario.clone(),
                    workload: cc.cell.1.clone(),
                    scheme: cc.cell.2.name(),
                    fingerprint: cc.fingerprint,
                    status: CellStatus::Skipped,
                    attempts: 0,
                    wall_secs: 0.0,
                    result: None,
                };
                if let Some(prev) = restored.get(&cc.fingerprint) {
                    sink(&CampaignEvent::Sweep(SweepEvent::CellFinished {
                        index,
                        fingerprint: cc.fingerprint,
                        outcome: "restored",
                        wall_secs: prev.wall_secs,
                        restored: true,
                    }));
                    record.status = CellStatus::Ok { restored: true };
                    record.wall_secs = prev.wall_secs;
                    record.result = Some(prev.clone());
                    return record;
                }
                if signals::drain_requested() {
                    let mut announced = drain_announced.lock().expect("drain flag");
                    if !*announced {
                        *announced = true;
                        sink(&CampaignEvent::Draining);
                    }
                    return record; // Skipped
                }
                let (outcome, attempts) = shadow_bench::runner::run_cell_with_retry(
                    index, &cc.cell, deadline, &policy, pool, runner, sweep_sink,
                );
                record.attempts = attempts;
                let diverged = matches!(outcome.retry(), Some(RetryOutcome::Recovered(_)));
                match outcome {
                    CellOutcome::Ok(result) => {
                        if let Some(file) = appender {
                            append_checkpoint(file, &cc.cell, &result);
                        }
                        sink(&CampaignEvent::Sweep(SweepEvent::CellFinished {
                            index,
                            fingerprint: cc.fingerprint,
                            outcome: "ok",
                            wall_secs: result.wall_secs,
                            restored: false,
                        }));
                        record.status = CellStatus::Ok { restored: false };
                        record.wall_secs = result.wall_secs;
                        record.result = Some(result);
                    }
                    CellOutcome::Invalid { error } => {
                        sink(&CampaignEvent::Sweep(SweepEvent::CellFinished {
                            index,
                            fingerprint: cc.fingerprint,
                            outcome: "invalid",
                            wall_secs: 0.0,
                            restored: false,
                        }));
                        record.status = CellStatus::Invalid { error };
                    }
                    failed => {
                        let reason = failed.label();
                        let error = match &failed {
                            CellOutcome::Panicked { message, .. } => message.clone(),
                            CellOutcome::Stalled { snapshot, .. } => snapshot.brief(),
                            CellOutcome::TimedOut { deadline_secs } => {
                                format!("exceeded the {deadline_secs}s cell deadline")
                            }
                            _ => unreachable!("Ok/Invalid handled above"),
                        };
                        sink(&CampaignEvent::Sweep(SweepEvent::CellQuarantined {
                            index,
                            fingerprint: cc.fingerprint,
                            attempts,
                            reason,
                        }));
                        sink(&CampaignEvent::Sweep(SweepEvent::CellFinished {
                            index,
                            fingerprint: cc.fingerprint,
                            outcome: reason,
                            wall_secs: 0.0,
                            restored: false,
                        }));
                        record.status = CellStatus::Quarantined {
                            reason,
                            error,
                            diverged,
                        };
                    }
                }
                record
            }
        })
        .collect();
    let records = run_parallel(jobs, threads);

    let mut summary = CampaignSummary::default();
    for r in &records {
        match &r.status {
            CellStatus::Ok { restored: true } => summary.restored += 1,
            CellStatus::Ok { restored: false } => summary.ok += 1,
            CellStatus::Quarantined { diverged, .. } => {
                summary.quarantined += 1;
                if *diverged {
                    summary.diverged += 1;
                }
            }
            CellStatus::Invalid { .. } => summary.invalid += 1,
            CellStatus::Skipped => summary.skipped += 1,
        }
    }
    let report = CampaignReport {
        name: recipe.name.clone(),
        digest: artifact_digest(&records),
        cells: records,
        summary,
        drained: signals::drain_requested(),
        retries_spent: pool_start.saturating_sub(pool.remaining()),
    };

    if let Some(p) = &recipe.reporting.artifact {
        let p = resolve(base, p);
        create_parent(&p)?;
        std::fs::write(&p, report.to_json().to_json() + "\n").map_err(|e| CampaignError::Io {
            path: p.clone(),
            why: e.to_string(),
        })?;
    }
    sink(&CampaignEvent::Finished {
        summary: report.summary.to_string(),
        digest: report.digest,
        exit_code: report.exit_code(),
    });
    Ok(report)
}

/// Builds the event sink the recipe's `[reporting] events` names.
///
/// # Errors
///
/// [`CampaignError::Io`] when an event file cannot be created.
pub fn sink_for(
    events: &EventsOut,
    base_dir: Option<&Path>,
) -> Result<CampaignSink, CampaignError> {
    Ok(match events {
        EventsOut::Silent => null_campaign_sink(),
        EventsOut::Stderr => jsonl_sink(Arc::new(Mutex::new(std::io::stderr()))),
        EventsOut::Stdout => jsonl_sink(Arc::new(Mutex::new(std::io::stdout()))),
        EventsOut::File(p) => {
            let p = resolve(base_dir, p);
            let file = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(&p)
                .map_err(|e| CampaignError::Io {
                    path: p.clone(),
                    why: e.to_string(),
                })?;
            jsonl_sink(Arc::new(Mutex::new(file)))
        }
    })
}
