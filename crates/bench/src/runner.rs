//! Per-cell execution machinery for the campaign engine
//! (`shadow_campaign::run_campaign`, the one sweep executor).
//!
//! [`run_cell_with_retry`] runs one cell behind `catch_unwind` (and
//! optionally a wall-clock deadline), with bounded deterministic-backoff
//! fast-path retries drawing from a shared [`RetryBudget`]. A cell whose
//! retries are exhausted gets one probe on the reference engine — every
//! fast path defeated, exactly the [`run_uncached`](crate::run_uncached)
//! configuration. A probe that *succeeds* is the smoking gun of a
//! fast-path/reference divergence and is reported as such
//! ([`RetryOutcome::Recovered`]) rather than silently papering over an
//! engine bug.
//!
//! The checkpoint manifest is one JSONL line per completed cell
//! ([`append_checkpoint`]), keyed by a [`fingerprint`] of the full cell
//! configuration. [`load_manifest`] reloads it on resume; malformed lines
//! — the signature of a kill mid-write — are skipped, not fatal.

use crate::json::{report_from_json, report_to_json, Json};
use crate::{panic_message, BenchError, Cell, CellResult};
use shadow_memsys::{Engine, SimError, StallSnapshot};
use std::collections::HashMap;
use std::io::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::{mpsc, Arc, Mutex};

/// The function that actually executes one cell. The default is
/// [`crate::try_timed_run`]; the fault-injection tests substitute a
/// runner that wraps the cell's mitigation in a
/// `shadow_conformance::FaultyMitigation`, proving the isolation and
/// retry paths against *manufactured* failures. `Arc` because
/// deadline-guarded attempts run the cell on a dedicated thread.
pub type CellRunner = Arc<dyn Fn(Cell, Engine) -> Result<CellResult, BenchError> + Send + Sync>;

/// The production cell runner: [`crate::try_timed_run`].
pub fn default_runner() -> CellRunner {
    Arc::new(|(cfg, workload, scheme), mode| crate::try_timed_run(cfg, &workload, scheme, mode))
}

/// What happened to the once-only reference-engine retry of a failed cell.
/// Timeouts carry none: the reference engine is strictly slower than the
/// fast path that already blew the deadline.
#[derive(Debug, Clone, PartialEq)]
pub enum RetryOutcome {
    /// The reference engine completed the cell the fast path failed —
    /// a fast-path/reference divergence worth a bug report. The recovered
    /// result is carried for comparison with a fault-free run.
    Recovered(Box<CellResult>),
    /// The reference engine failed too (message attached): the fault is in
    /// the cell, not the fast path.
    AlsoFailed(String),
}

/// The terminal outcome of one cell's attempts ([`run_cell_with_retry`]).
///
/// `Ok` dwarfs the failure variants, but it is also the overwhelmingly
/// common case and an outcome lives only until the engine records it, so
/// boxing it would pessimize every healthy sweep to slim a rare one.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum CellOutcome {
    /// The cell completed on the fast path.
    Ok(CellResult),
    /// The cell panicked; `message` is the panic payload.
    Panicked {
        /// The panic message.
        message: String,
        /// What the reference-engine retry did.
        retry: RetryOutcome,
    },
    /// The forward-progress watchdog aborted the cell.
    Stalled {
        /// The structured snapshot of the *last* failed attempt; its
        /// `Display` form is the full per-bank diagnosis.
        snapshot: Box<StallSnapshot>,
        /// What the reference-engine retry did.
        retry: RetryOutcome,
    },
    /// The cell blew its wall-clock deadline; its worker thread was
    /// abandoned.
    TimedOut {
        /// The deadline it exceeded, in seconds.
        deadline_secs: f64,
    },
    /// The cell could not even be constructed (invalid config, unknown
    /// workload). Not retried — the reference engine validates the same
    /// way.
    Invalid {
        /// The construction error.
        error: String,
    },
}

impl CellOutcome {
    /// Short machine-readable label (`"ok"`, `"panicked"`, …) used in
    /// summary lines and progress events.
    pub fn label(&self) -> &'static str {
        match self {
            CellOutcome::Ok(_) => "ok",
            CellOutcome::Panicked { .. } => "panicked",
            CellOutcome::Stalled { .. } => "stalled",
            CellOutcome::TimedOut { .. } => "timed-out",
            CellOutcome::Invalid { .. } => "invalid",
        }
    }

    /// The reference-engine retry outcome, for the failure variants that
    /// carry one.
    pub fn retry(&self) -> Option<&RetryOutcome> {
        match self {
            CellOutcome::Panicked { retry, .. } | CellOutcome::Stalled { retry, .. } => Some(retry),
            _ => None,
        }
    }
}

/// Bounded-retry policy with deterministic exponential backoff: retry
/// `n` (counting from 1) sleeps `base_delay_ms << (n-1)` milliseconds,
/// capped at `max_delay_ms`. No jitter — campaigns must replay their
/// retry schedule bit-for-bit (pinned by the campaign tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Fast-path re-attempts after the first failure (0: fail straight
    /// to the once-only reference probe, the pre-campaign behaviour).
    pub budget: u32,
    /// First retry delay, in milliseconds.
    pub base_delay_ms: u64,
    /// Backoff ceiling, in milliseconds.
    pub max_delay_ms: u64,
}

impl RetryPolicy {
    /// No retries (the PR4 behaviour): fail → reference probe → report.
    pub const NONE: RetryPolicy = RetryPolicy {
        budget: 0,
        base_delay_ms: 0,
        max_delay_ms: 0,
    };

    /// The deterministic backoff before retry `n` (1-based): exponential
    /// doubling from `base_delay_ms`, saturating at `max_delay_ms`.
    pub fn delay_ms(&self, retry_n: u32) -> u64 {
        if retry_n == 0 {
            return 0;
        }
        let shift = (retry_n - 1).min(62);
        self.base_delay_ms
            .saturating_mul(1u64 << shift)
            .min(self.max_delay_ms)
    }
}

/// A campaign-wide pool of retries shared across every cell: each retry
/// draws one token, and an exhausted pool quarantines failing cells
/// immediately instead of letting one pathological recipe spend unbounded
/// wall-clock re-running doomed cells.
#[derive(Debug)]
pub struct RetryBudget {
    remaining: AtomicI64,
}

impl RetryBudget {
    /// A pool of `n` total retries.
    pub fn new(n: u32) -> Self {
        RetryBudget {
            remaining: AtomicI64::new(i64::from(n)),
        }
    }

    /// No campaign-wide cap (per-cell budgets still apply).
    pub fn unlimited() -> Self {
        RetryBudget {
            remaining: AtomicI64::new(i64::MAX),
        }
    }

    /// Draws one retry token; `false` means the pool is dry.
    pub fn try_draw(&self) -> bool {
        self.remaining.fetch_sub(1, Ordering::Relaxed) > 0
    }

    /// Tokens left (never negative).
    pub fn remaining(&self) -> u64 {
        self.remaining.load(Ordering::Relaxed).max(0) as u64
    }
}

/// One observable moment in a sweep/campaign, streamed as JSONL by the
/// campaign service so long-running sweeps are watchable while they run.
#[derive(Debug, Clone, PartialEq)]
pub enum SweepEvent {
    /// A cell attempt began (attempts count from 1; retries re-emit this).
    CellStarted {
        /// Position in the expanded cell list.
        index: usize,
        /// The cell's configuration fingerprint.
        fingerprint: u64,
        /// Workload name.
        workload: String,
        /// Scheme display name.
        scheme: &'static str,
        /// 1-based attempt number.
        attempt: u32,
    },
    /// A failed attempt is being retried after a deterministic backoff.
    CellRetried {
        /// Position in the expanded cell list.
        index: usize,
        /// The cell's configuration fingerprint.
        fingerprint: u64,
        /// The attempt that just failed (1-based).
        attempt: u32,
        /// Backoff slept before the next attempt, in milliseconds.
        delay_ms: u64,
        /// Failure class (`"panicked"` / `"stalled"`).
        reason: &'static str,
        /// Compact stall diagnosis, when the failure was a watchdog stall
        /// ([`StallSnapshot::brief`]).
        stall_brief: Option<String>,
    },
    /// A cell exhausted its retries and was set aside so the rest of the
    /// queue keeps flowing.
    CellQuarantined {
        /// Position in the expanded cell list.
        index: usize,
        /// The cell's configuration fingerprint.
        fingerprint: u64,
        /// Fast-path attempts consumed (first try + retries).
        attempts: u32,
        /// Final failure class.
        reason: &'static str,
    },
    /// A cell reached a terminal outcome.
    CellFinished {
        /// Position in the expanded cell list.
        index: usize,
        /// The cell's configuration fingerprint.
        fingerprint: u64,
        /// Terminal outcome label ([`CellOutcome::label`], or
        /// `"restored"` for checkpoint hits).
        outcome: &'static str,
        /// Wall-clock seconds of the winning attempt (0 for restores).
        wall_secs: f64,
        /// Whether the result was restored from the checkpoint manifest.
        restored: bool,
    },
}

impl SweepEvent {
    /// The `event` discriminator used in the JSONL form.
    pub fn kind(&self) -> &'static str {
        match self {
            SweepEvent::CellStarted { .. } => "cell-started",
            SweepEvent::CellRetried { .. } => "cell-retried",
            SweepEvent::CellQuarantined { .. } => "cell-quarantined",
            SweepEvent::CellFinished { .. } => "cell-finished",
        }
    }

    /// Serializes to one JSON object (the campaign service emits one per
    /// line).
    pub fn to_json(&self) -> Json {
        let mut fields = vec![("event".to_string(), Json::str(self.kind()))];
        match self {
            SweepEvent::CellStarted {
                index,
                fingerprint,
                workload,
                scheme,
                attempt,
            } => {
                fields.push(("cell".into(), Json::u64(*index as u64)));
                fields.push(("fp".into(), Json::u64(*fingerprint)));
                fields.push(("workload".into(), Json::str(workload)));
                fields.push(("scheme".into(), Json::str(*scheme)));
                fields.push(("attempt".into(), Json::u64(u64::from(*attempt))));
            }
            SweepEvent::CellRetried {
                index,
                fingerprint,
                attempt,
                delay_ms,
                reason,
                stall_brief,
            } => {
                fields.push(("cell".into(), Json::u64(*index as u64)));
                fields.push(("fp".into(), Json::u64(*fingerprint)));
                fields.push(("attempt".into(), Json::u64(u64::from(*attempt))));
                fields.push(("delay_ms".into(), Json::u64(*delay_ms)));
                fields.push(("reason".into(), Json::str(*reason)));
                if let Some(brief) = stall_brief {
                    fields.push(("stall".into(), Json::str(brief)));
                }
            }
            SweepEvent::CellQuarantined {
                index,
                fingerprint,
                attempts,
                reason,
            } => {
                fields.push(("cell".into(), Json::u64(*index as u64)));
                fields.push(("fp".into(), Json::u64(*fingerprint)));
                fields.push(("attempts".into(), Json::u64(u64::from(*attempts))));
                fields.push(("reason".into(), Json::str(*reason)));
            }
            SweepEvent::CellFinished {
                index,
                fingerprint,
                outcome,
                wall_secs,
                restored,
            } => {
                fields.push(("cell".into(), Json::u64(*index as u64)));
                fields.push(("fp".into(), Json::u64(*fingerprint)));
                fields.push(("outcome".into(), Json::str(*outcome)));
                fields.push(("wall_secs".into(), Json::f64(*wall_secs)));
                fields.push(("restored".into(), Json::Bool(*restored)));
            }
        }
        Json::Obj(fields)
    }
}

/// Observer for [`SweepEvent`]s. Called from worker threads — sinks must
/// serialize internally (the campaign service locks its writer).
pub type EventSink = Arc<dyn Fn(&SweepEvent) + Send + Sync>;

/// FNV-1a fingerprint of a cell's full configuration (config `Debug`
/// repr, workload name, scheme). Keys the checkpoint manifest: any config
/// field change — geometry, timing, targets, watchdog — changes the
/// fingerprint, so stale checkpoints can never be resumed into a
/// different sweep.
pub fn fingerprint(cell: &Cell) -> u64 {
    let (cfg, workload, scheme) = cell;
    let repr = format!("{cfg:?}|{workload}|{scheme:?}");
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in repr.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Reads a checkpoint manifest into `fingerprint → completed result`.
///
/// A missing file is an empty manifest (first run). Malformed lines —
/// typically one truncated tail line from a mid-write kill — are skipped
/// with a note on stderr; a later rerun simply recomputes those cells.
pub fn load_manifest(path: &PathBuf) -> Result<HashMap<u64, CellResult>, BenchError> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(HashMap::new()),
        Err(e) => {
            return Err(BenchError::Io {
                path: path.display().to_string(),
                why: e.to_string(),
            })
        }
    };
    let mut map = HashMap::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let entry = match parse_manifest_line(line) {
            Ok(e) => e,
            Err(e) => {
                eprintln!(
                    "[resume] {}:{}: skipping unreadable checkpoint line ({e})",
                    path.display(),
                    lineno + 1
                );
                continue;
            }
        };
        if let Some((fp, result)) = entry {
            map.insert(fp, result);
        }
    }
    Ok(map)
}

/// Parses one manifest line; `Ok(None)` for well-formed non-`ok` entries.
fn parse_manifest_line(line: &str) -> Result<Option<(u64, CellResult)>, BenchError> {
    let v = Json::parse(line).map_err(|e| BenchError::Io {
        path: "manifest line".into(),
        why: e.to_string(),
    })?;
    let io = |e: crate::json::JsonError| BenchError::Io {
        path: "manifest line".into(),
        why: e.to_string(),
    };
    if v.field("status").map_err(io)?.as_str().map_err(io)? != "ok" {
        return Ok(None);
    }
    let fp = v.field("fp").map_err(io)?.as_u64().map_err(io)?;
    let wall_secs = v.field("wall_secs").map_err(io)?.as_f64().map_err(io)?;
    let report = report_from_json(v.field("report").map_err(io)?).map_err(io)?;
    Ok(Some((fp, CellResult { report, wall_secs })))
}

/// Opens the checkpoint manifest for appending, repairing a torn tail
/// first: a kill mid-write leaves the last line truncated *without* a
/// trailing newline, and a plain append would then concatenate the next
/// checkpoint onto the torn fragment — corrupting a *good* line and
/// silently losing that cell's checkpoint on the next resume. Detecting
/// the missing newline and starting a fresh line confines the damage to
/// the torn line itself, which the tolerant reloader already skips.
pub fn open_manifest_appender(path: &PathBuf) -> Result<std::fs::File, BenchError> {
    let io_err = |e: std::io::Error| BenchError::Io {
        path: path.display().to_string(),
        why: e.to_string(),
    };
    let torn_tail = match std::fs::read(path) {
        Ok(bytes) => !bytes.is_empty() && bytes[bytes.len() - 1] != b'\n',
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => false,
        Err(e) => return Err(io_err(e)),
    };
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(io_err)?;
    if torn_tail {
        eprintln!(
            "[resume] {}: torn trailing checkpoint line (crash mid-write); \
             starting a fresh line — the interrupted cell will re-run",
            path.display()
        );
        file.write_all(b"\n").map_err(io_err)?;
    }
    Ok(file)
}

/// Appends one completed cell to an open manifest as a single `write_all`
/// (line + newline in one syscall), minimizing the window in which a kill
/// can tear the line. Append errors are reported, not fatal: the result
/// is already in memory, only resumability of this cell is lost.
pub fn append_checkpoint(file: &Mutex<std::fs::File>, cell: &Cell, result: &CellResult) {
    let mut line = manifest_line(cell, result);
    line.push('\n');
    let mut file = file.lock().expect("manifest writer");
    if let Err(e) = file.write_all(line.as_bytes()) {
        eprintln!("[resume] checkpoint append failed: {e}");
    }
}

/// Formats one completed cell as a manifest JSONL line (no newline).
pub fn manifest_line(cell: &Cell, result: &CellResult) -> String {
    Json::Obj(vec![
        ("fp".into(), Json::u64(fingerprint(cell))),
        ("workload".into(), Json::str(&cell.1)),
        ("scheme".into(), Json::str(cell.2.name())),
        ("status".into(), Json::str("ok")),
        ("wall_secs".into(), Json::f64(result.wall_secs)),
        ("report".into(), report_to_json(&result.report)),
    ])
    .to_json()
}

/// How one guarded execution attempt ended.
#[allow(clippy::large_enum_variant)] // same trade-off as `CellOutcome`
enum Attempt {
    Done(Result<CellResult, BenchError>),
    Panicked(String),
    TimedOut,
}

/// Runs one cell under `catch_unwind`, optionally on a deadline thread.
fn attempt(cell: &Cell, mode: Engine, deadline_secs: Option<f64>, run: &CellRunner) -> Attempt {
    match deadline_secs {
        None => match catch_unwind(AssertUnwindSafe(|| run(cell.clone(), mode))) {
            Ok(res) => Attempt::Done(res),
            Err(payload) => Attempt::Panicked(panic_message(payload.as_ref())),
        },
        Some(secs) => {
            let (cell, run) = (cell.clone(), Arc::clone(run));
            let (tx, rx) = mpsc::channel();
            // A dedicated thread per attempt: Rust threads cannot be
            // killed, so on timeout the runaway thread is abandoned (it
            // still finishes its simulation eventually; its result goes
            // nowhere).
            std::thread::spawn(move || {
                let out = catch_unwind(AssertUnwindSafe(|| run(cell, mode)));
                let _ = tx.send(out);
            });
            match rx.recv_timeout(std::time::Duration::from_secs_f64(secs)) {
                Ok(Ok(res)) => Attempt::Done(res),
                Ok(Err(payload)) => Attempt::Panicked(panic_message(payload.as_ref())),
                Err(_) => Attempt::TimedOut,
            }
        }
    }
}

/// Once-only reference-engine retry of a failed cell.
fn retry_reference(cell: &Cell, deadline_secs: Option<f64>, run: &CellRunner) -> RetryOutcome {
    match attempt(cell, Engine::Reference, deadline_secs, run) {
        Attempt::Done(Ok(r)) => RetryOutcome::Recovered(Box::new(r)),
        Attempt::Done(Err(e)) => RetryOutcome::AlsoFailed(e.to_string()),
        Attempt::Panicked(m) => RetryOutcome::AlsoFailed(format!("reference retry panicked: {m}")),
        Attempt::TimedOut => RetryOutcome::AlsoFailed("reference retry timed out".to_string()),
    }
}

/// A retriable fast-path failure (timeouts and invalid configs are
/// terminal: the deadline already burned once, and validation is
/// deterministic).
enum FailedAttempt {
    Panicked(String),
    Stalled(Box<StallSnapshot>),
}

impl FailedAttempt {
    fn reason(&self) -> &'static str {
        match self {
            FailedAttempt::Panicked(_) => "panicked",
            FailedAttempt::Stalled(_) => "stalled",
        }
    }
}

/// Executes one cell with isolation, the optional deadline, bounded
/// fast-path retries with deterministic exponential backoff, and the
/// once-only reference probe once retries are exhausted.
///
/// Each retry draws one token from the shared campaign `pool`; a dry pool
/// stops retrying immediately so one pathological recipe cannot spend
/// unbounded wall-clock re-running doomed cells. Every attempt and retry
/// is reported to `sink` (with the structured stall brief when the
/// failure was a watchdog abort — the snapshot itself rides on the final
/// [`CellOutcome::Stalled`]). Backoff sleeps happen on the calling worker
/// thread: with per-cell retry budgets in the low single digits that is a
/// bounded, observable pause, not a scheduler.
pub fn run_cell_with_retry(
    index: usize,
    cell: &Cell,
    deadline_secs: Option<f64>,
    policy: &RetryPolicy,
    pool: &RetryBudget,
    run: &CellRunner,
    sink: &EventSink,
) -> (CellOutcome, u32) {
    let fp = fingerprint(cell);
    let mut attempt_no: u32 = 1;
    loop {
        sink(&SweepEvent::CellStarted {
            index,
            fingerprint: fp,
            workload: cell.1.clone(),
            scheme: cell.2.name(),
            attempt: attempt_no,
        });
        let failed = match attempt(cell, Engine::Fast, deadline_secs, run) {
            Attempt::Done(Ok(r)) => return (CellOutcome::Ok(r), attempt_no),
            Attempt::Done(Err(BenchError::Sim(SimError::Stalled(snap)))) => {
                FailedAttempt::Stalled(snap)
            }
            Attempt::Done(Err(e)) => {
                return (
                    CellOutcome::Invalid {
                        error: e.to_string(),
                    },
                    attempt_no,
                )
            }
            Attempt::Panicked(message) => FailedAttempt::Panicked(message),
            Attempt::TimedOut => {
                return (
                    CellOutcome::TimedOut {
                        deadline_secs: deadline_secs.expect("timeout implies a deadline"),
                    },
                    attempt_no,
                )
            }
        };
        let retries_done = attempt_no - 1;
        if retries_done < policy.budget && pool.try_draw() {
            let delay_ms = policy.delay_ms(retries_done + 1);
            sink(&SweepEvent::CellRetried {
                index,
                fingerprint: fp,
                attempt: attempt_no,
                delay_ms,
                reason: failed.reason(),
                stall_brief: match &failed {
                    FailedAttempt::Stalled(snap) => Some(snap.brief()),
                    FailedAttempt::Panicked(_) => None,
                },
            });
            if delay_ms > 0 {
                std::thread::sleep(std::time::Duration::from_millis(delay_ms));
            }
            attempt_no += 1;
            continue;
        }
        // Retries exhausted (or the campaign pool is dry): one reference
        // probe for the divergence diagnosis, then report.
        let retry = retry_reference(cell, deadline_secs, run);
        let outcome = match failed {
            FailedAttempt::Panicked(message) => CellOutcome::Panicked { message, retry },
            FailedAttempt::Stalled(snapshot) => CellOutcome::Stalled { snapshot, retry },
        };
        return (outcome, attempt_no);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scheme;
    use shadow_memsys::SystemConfig;

    fn tiny_cell(workload: &str) -> Cell {
        let mut cfg = SystemConfig::tiny();
        cfg.target_requests = 200;
        (cfg, workload.to_string(), Scheme::Baseline)
    }

    #[test]
    fn fingerprint_keys_on_every_cell_dimension() {
        let a = tiny_cell("random-stream");
        let mut b = a.clone();
        b.0.target_requests += 1;
        let c = (a.0, a.1.clone(), Scheme::Shadow);
        let d = tiny_cell("mix-random-1");
        assert_ne!(fingerprint(&a), fingerprint(&b));
        assert_ne!(fingerprint(&a), fingerprint(&c));
        assert_ne!(fingerprint(&a), fingerprint(&d));
        assert_eq!(fingerprint(&a), fingerprint(&a.clone()));
    }

    /// Runs `cell` once through [`run_cell_with_retry`] with a retry budget
    /// of 3, returning the outcome and the attempts it took.
    fn run_with_budget(cell: &Cell) -> (CellOutcome, u32) {
        let policy = RetryPolicy {
            budget: 3,
            base_delay_ms: 0,
            max_delay_ms: 0,
        };
        let sink: EventSink = Arc::new(|_| {});
        let pool = RetryBudget::unlimited();
        run_cell_with_retry(0, cell, None, &policy, &pool, &default_runner(), &sink)
    }

    #[test]
    fn invalid_cell_is_reported_not_retried() {
        let mut cell = tiny_cell("random-stream");
        cell.0.mlp = 0;
        match run_with_budget(&cell) {
            (CellOutcome::Invalid { error }, 1) => assert!(error.contains("mlp"), "{error}"),
            other => panic!("expected Invalid after one attempt, got {other:?}"),
        }
    }

    #[test]
    fn unknown_workload_is_invalid_outcome() {
        let cell = tiny_cell("not-a-workload");
        match run_with_budget(&cell) {
            (CellOutcome::Invalid { error }, 1) => {
                assert!(error.contains("not-a-workload"), "{error}")
            }
            other => panic!("expected Invalid after one attempt, got {other:?}"),
        }
    }

    #[test]
    fn reference_probe_recovers_a_fast_path_only_failure() {
        // Broken on the fast path only: the reference probe completes the
        // cell, and what it recovers is the fault-free result.
        let cell = tiny_cell("random-stream");
        let run: CellRunner = Arc::new(|(cfg, workload, scheme), mode| {
            assert!(mode == Engine::Reference, "fast path broken");
            crate::try_timed_run(cfg, &workload, scheme, mode)
        });
        let sink: EventSink = Arc::new(|_| {});
        let pool = RetryBudget::unlimited();
        match run_cell_with_retry(0, &cell, None, &RetryPolicy::NONE, &pool, &run, &sink) {
            (
                CellOutcome::Panicked {
                    message,
                    retry: RetryOutcome::Recovered(recovered),
                },
                1,
            ) => {
                assert!(message.contains("fast path broken"), "{message}");
                let clean = crate::timed_run(cell.0, &cell.1, cell.2);
                assert_eq!(recovered.report, clean.report);
            }
            other => panic!("expected a recovered panic, got {other:?}"),
        }
    }

    #[test]
    fn manifest_line_round_trips() {
        let cell = tiny_cell("random-stream");
        let result = crate::timed_run(cell.0, &cell.1, cell.2);
        let line = manifest_line(&cell, &result);
        let (fp, restored) = parse_manifest_line(&line)
            .expect("parses")
            .expect("status ok");
        assert_eq!(fp, fingerprint(&cell));
        assert_eq!(restored.report, result.report);
    }

    #[test]
    fn backoff_schedule_is_deterministic_exponential() {
        let p = RetryPolicy {
            budget: 5,
            base_delay_ms: 100,
            max_delay_ms: 350,
        };
        assert_eq!(p.delay_ms(1), 100);
        assert_eq!(p.delay_ms(2), 200);
        assert_eq!(p.delay_ms(3), 350, "capped at max_delay_ms");
        assert_eq!(p.delay_ms(64), 350, "shift saturates, no overflow");
        assert_eq!(RetryPolicy::NONE.delay_ms(1), 0);
    }

    #[test]
    fn retry_budget_pool_draws_to_zero() {
        let pool = RetryBudget::new(2);
        assert_eq!(pool.remaining(), 2);
        assert!(pool.try_draw());
        assert!(pool.try_draw());
        assert!(!pool.try_draw(), "pool of 2 yields exactly 2 tokens");
        assert!(!pool.try_draw(), "stays dry");
        assert_eq!(pool.remaining(), 0);
        assert!(RetryBudget::unlimited().try_draw());
    }

    #[test]
    fn torn_manifest_tail_is_repaired_before_append() {
        let dir = std::env::temp_dir().join(format!("shadow-torn-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("torn.jsonl");
        let cell_a = tiny_cell("random-stream");
        let result_a = crate::timed_run(cell_a.0, &cell_a.1, cell_a.2);
        let good = manifest_line(&cell_a, &result_a);
        // A crash mid-write: complete line, then a torn fragment with NO
        // trailing newline.
        std::fs::write(&path, format!("{good}\n{}", &good[..good.len() / 3])).expect("write");

        // Appending through the repairing opener must not concatenate the
        // new checkpoint onto the torn fragment.
        let cell_b = tiny_cell("mix-random-1");
        let result_b = crate::timed_run(cell_b.0, &cell_b.1, cell_b.2);
        let file = Mutex::new(open_manifest_appender(&path).expect("opens"));
        append_checkpoint(&file, &cell_b, &result_b);
        drop(file);

        let map = load_manifest(&path).expect("loads");
        assert_eq!(map.len(), 2, "both real checkpoints survive the tear");
        assert!(map.contains_key(&fingerprint(&cell_a)));
        assert!(
            map.contains_key(&fingerprint(&cell_b)),
            "checkpoint appended after the tear must land on its own line"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sweep_events_serialize_with_discriminator() {
        let ev = SweepEvent::CellRetried {
            index: 3,
            fingerprint: 42,
            attempt: 1,
            delay_ms: 100,
            reason: "stalled",
            stall_brief: Some("starvation at cycle 9 (0 completed, 7 queued)".into()),
        };
        let line = ev.to_json().to_json();
        assert!(line.contains("\"event\":\"cell-retried\""), "{line}");
        assert!(line.contains("\"delay_ms\":100"), "{line}");
        assert!(line.contains("starvation"), "{line}");
        let parsed = Json::parse(&line).expect("round-trips");
        assert_eq!(parsed.field("cell").unwrap().as_u64().unwrap(), 3);
    }

    #[test]
    fn malformed_manifest_lines_are_skipped() {
        let dir = std::env::temp_dir().join(format!("shadow-resume-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("truncated.jsonl");
        let cell = tiny_cell("random-stream");
        let result = crate::timed_run(cell.0, &cell.1, cell.2);
        let good = manifest_line(&cell, &result);
        let truncated = &good[..good.len() / 2];
        // A line nested 100 000 deep must be skipped too, not overflow the
        // reader's stack.
        let deep = "[".repeat(100_000);
        std::fs::write(&path, format!("{good}\n{truncated}\n{deep}\n")).expect("write");
        let map = load_manifest(&path).expect("loads");
        assert_eq!(
            map.len(),
            1,
            "good line kept, truncated and deep lines skipped"
        );
        assert!(map.contains_key(&fingerprint(&cell)));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
