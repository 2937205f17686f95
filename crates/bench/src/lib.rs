//! # shadow-bench
//!
//! Shared machinery for the benchmark harness that regenerates every table
//! and figure of the paper's evaluation (the per-experiment index lives in
//! DESIGN.md §3). Each `benches/*.rs` target is a plain `harness = false`
//! binary that runs the experiment and prints the paper's rows/series;
//! `cargo bench --workspace` therefore reproduces the whole evaluation.
//!
//! Environment knobs:
//!
//! * `SHADOW_BENCH_REQS` — completed-request target per simulation run
//!   (default 60 000; raise for tighter confidence).
//! * `SHADOW_BENCH_CORES` — cores per multiprogrammed mix (default 14).
//! * `SHADOW_BENCH_TIME_SCALE` — down-scaling of window-relative
//!   thresholds (default 1/16; see [`time_scale`]).
//! * `SHADOW_BENCH_THREADS` — sweep worker threads (default and `0`:
//!   available parallelism). Results are bit-identical at any thread
//!   count: every cell is an independent simulation with its own fixed
//!   seed, and [`run_parallel`] returns results in job order regardless
//!   of which worker finished first.
//! * `SHADOW_BENCH_WATCHDOG` — forward-progress watchdog window in
//!   cycles for cells whose config leaves
//!   `SystemConfig::watchdog_window` at 0 (default: off). A stalled
//!   cell then fails fast with `SimError::Stalled` and a diagnostic
//!   snapshot instead of burning to `max_cycles`.
//! * `SHADOW_BENCH_RESUME` — path to a JSONL checkpoint manifest for the
//!   figure sweeps (`fig8_perf`, `fig10_blast`, `fig11_sim`,
//!   `prac_frontier`); completed cells are appended and restored on
//!   re-run, so an interrupted sweep resumes bit-identically (see
//!   EXPERIMENTS.md "Failure handling & resume"). Retries and per-cell
//!   deadlines are the recipe's `[campaign]` keys, not env knobs.
//! * `SHADOW_BENCH_ORACLE` — a flag: any non-empty value other than `0`
//!   replays every run's command trace through the conformance oracle
//!   (see [`oracle_enabled`]).
//!
//! The valued knobs are parsed with [`env_parsed`]: unset falls back to
//! the default, but a *set-and-malformed* value is a typed [`BenchError`]
//! naming the variable — never a silent fallback.

#![warn(missing_docs)]

pub mod json;
pub mod runner;

use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use shadow_core::bank::ShadowConfig;
use shadow_core::timing::ShadowTiming;
use shadow_memsys::{Engine, MemSystem, SimError, SimReport, SystemConfig};
use shadow_mitigations::{
    BlockHammer, Dapper, Drr, Filtered, Graphene, Mithril, MithrilClass, Mitigation, NoMitigation,
    Panopticon, Para, Parfm, Prac, Rrs, ShadowMitigation,
};
use shadow_rh::RhParams;
use shadow_workloads::graph::GraphStream;
use shadow_workloads::stencil::StencilStream;
use shadow_workloads::stream::RandomStream;
use shadow_workloads::{mix, AppProfile, ProfileStream, RequestStream};

/// Every scheme the evaluation compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// No protection (normalization reference).
    Baseline,
    /// The paper's contribution.
    Shadow,
    /// PARA-with-RFM.
    Parfm,
    /// Mithril, performance-optimized (10 KB/bank CAM).
    MithrilPerf,
    /// Mithril, area-optimized (RAAIMT = 32).
    MithrilArea,
    /// BlockHammer throttling.
    BlockHammer,
    /// Randomized Row-Swap.
    Rrs,
    /// Double refresh rate.
    Drr,
    /// Classic PARA.
    Para,
    /// MC-side Misra–Gries TRR (§IX).
    Graphene,
    /// Per-row-counter in-DRAM TRR (§IX).
    Panopticon,
    /// SHADOW behind the §VIII D-CBF RFM filter.
    ShadowFiltered,
    /// JEDEC PRAC: per-row counters, rank-scope ABO recovery (RFMAB).
    Prac,
    /// PRACtical: batched PRAC counters, bank-scope recovery (RFMSB).
    Practical,
    /// DAPPER: performance-attack-resilient decrement tracker on RFM.
    Dapper,
}

impl Scheme {
    /// Display name matching the paper's figure legends.
    pub fn name(self) -> &'static str {
        match self {
            Scheme::Baseline => "Baseline",
            Scheme::Shadow => "SHADOW",
            Scheme::Parfm => "PARFM",
            Scheme::MithrilPerf => "Mithril-perf",
            Scheme::MithrilArea => "Mithril-area",
            Scheme::BlockHammer => "BlockHammer",
            Scheme::Rrs => "RRS",
            Scheme::Drr => "DRR",
            Scheme::Para => "PARA",
            Scheme::Graphene => "Graphene",
            Scheme::Panopticon => "Panopticon",
            Scheme::ShadowFiltered => "SHADOW+filter",
            Scheme::Prac => "PRAC",
            Scheme::Practical => "PRACtical",
            Scheme::Dapper => "DAPPER",
        }
    }

    /// Every scheme, in report order.
    pub fn all() -> &'static [Scheme] {
        &[
            Scheme::Baseline,
            Scheme::Shadow,
            Scheme::ShadowFiltered,
            Scheme::Parfm,
            Scheme::MithrilPerf,
            Scheme::MithrilArea,
            Scheme::BlockHammer,
            Scheme::Rrs,
            Scheme::Drr,
            Scheme::Para,
            Scheme::Graphene,
            Scheme::Panopticon,
            Scheme::Prac,
            Scheme::Practical,
            Scheme::Dapper,
        ]
    }

    /// Parses a scheme from its display name (case-insensitive).
    pub fn from_name(name: &str) -> Option<Scheme> {
        Scheme::all()
            .iter()
            .copied()
            .find(|s| s.name().eq_ignore_ascii_case(name))
    }
}

/// Why a bench-harness operation failed.
///
/// Everything a sweep can hit short of a hard panic: malformed environment
/// knobs, unknown workload names, simulation errors (bad config, watchdog
/// stall), and checkpoint-manifest I/O. The per-cell runner
/// ([`runner::run_cell_with_retry`]) maps these into per-cell outcomes so
/// one bad cell cannot kill a batch.
#[derive(Debug, Clone, PartialEq)]
pub enum BenchError {
    /// An environment knob is set to something unparseable.
    Env {
        /// The variable name.
        var: &'static str,
        /// What was wrong and what a valid value looks like.
        why: String,
    },
    /// A workload name did not resolve.
    Workload {
        /// The requested name.
        name: String,
        /// Why it failed, and what names are valid.
        why: String,
    },
    /// The simulation itself failed (invalid config or watchdog stall).
    Sim(SimError),
    /// Checkpoint-manifest I/O failed.
    Io {
        /// The path involved.
        path: String,
        /// The underlying error.
        why: String,
    },
}

impl fmt::Display for BenchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BenchError::Env { var, why } => write!(f, "environment variable {var}: {why}"),
            BenchError::Workload { name, why } => write!(f, "workload `{name}`: {why}"),
            BenchError::Sim(e) => write!(f, "{e}"),
            BenchError::Io { path, why } => write!(f, "{path}: {why}"),
        }
    }
}

impl std::error::Error for BenchError {}

impl From<SimError> for BenchError {
    fn from(e: SimError) -> Self {
        BenchError::Sim(e)
    }
}

/// Parses env knob `var`, returning `default` when unset.
///
/// A *set but malformed* value is an error naming the variable — silently
/// falling back to the default (the old behaviour) made a typo'd
/// `SHADOW_BENCH_REQS=60k` run a completely different experiment than
/// asked.
pub fn env_parsed<T>(var: &'static str, default: T) -> Result<T, BenchError>
where
    T: std::str::FromStr,
    T::Err: fmt::Display,
{
    match std::env::var(var) {
        Err(_) => Ok(default),
        Ok(raw) => raw.parse().map_err(|e| BenchError::Env {
            var,
            why: format!("`{raw}` did not parse: {e}"),
        }),
    }
}

/// Completed-request target per run (env-tunable).
///
/// # Panics
///
/// Panics with the variable name if `SHADOW_BENCH_REQS` is set but
/// malformed (use [`try_request_target`] for the fallible form).
pub fn request_target() -> u64 {
    try_request_target().unwrap_or_else(|e| panic!("{e}"))
}

/// [`request_target`] without the panic.
pub fn try_request_target() -> Result<u64, BenchError> {
    env_parsed("SHADOW_BENCH_REQS", 60_000)
}

/// Down-scaling factor for *window-relative* thresholds (RRS's swap
/// threshold and BlockHammer's blacklist are defined per tREFW ≈ 85M
/// cycles, but a bench run simulates a few-M-cycle slice). Thresholds and
/// windows are multiplied by this factor so the schemes operate at the
/// same per-window trigger rates they would over a full window — the
/// standard time-dilation used when simulating window-scoped mechanisms on
/// short slices (documented in DESIGN.md §2). Override with
/// `SHADOW_BENCH_TIME_SCALE` (set to 1.0 for full-window runs).
pub fn time_scale() -> f64 {
    env_parsed("SHADOW_BENCH_TIME_SCALE", 1.0 / 16.0).unwrap_or_else(|e| panic!("{e}"))
}

/// Cores per multiprogrammed mix (env-tunable; default matches the
/// Table IV machine's 14 cores).
///
/// # Panics
///
/// Panics with the variable name if `SHADOW_BENCH_CORES` is set but
/// malformed or zero.
pub fn mix_cores() -> usize {
    let cores: usize = env_parsed("SHADOW_BENCH_CORES", 14).unwrap_or_else(|e| panic!("{e}"));
    if cores == 0 {
        panic!("environment variable SHADOW_BENCH_CORES: a mix needs at least one core");
    }
    cores
}

/// Builds the mitigation for `scheme` sized for `cfg` and its `rh.h_cnt`,
/// with an optional blast-radius override for Fig. 10.
pub fn build_mitigation(scheme: Scheme, cfg: &SystemConfig) -> Box<dyn Mitigation> {
    let banks = cfg.geometry.total_banks() as usize;
    let rh = cfg.rh;
    let rows_sa = cfg.geometry.rows_per_subarray;
    match scheme {
        Scheme::Baseline => Box::new(NoMitigation::new()),
        Scheme::Shadow => {
            let scfg = ShadowConfig {
                subarrays: cfg.geometry.subarrays_per_bank,
                rows_per_subarray: rows_sa,
            };
            Box::new(ShadowMitigation::new(
                banks,
                scfg,
                ShadowMitigation::raaimt_for(rh.h_cnt),
                &cfg.timing,
                &ShadowTiming::paper_default(),
                0xD1CE,
            ))
        }
        Scheme::Parfm => Box::new(
            Parfm::new(
                banks,
                rh,
                Parfm::raaimt_for(rh.h_cnt, rh.blast_radius),
                0xFA11,
            )
            .with_rows_per_subarray(rows_sa),
        ),
        Scheme::MithrilPerf => {
            Box::new(Mithril::new(banks, MithrilClass::Perf, rh).with_rows_per_subarray(rows_sa))
        }
        Scheme::MithrilArea => {
            Box::new(Mithril::new(banks, MithrilClass::Area, rh).with_rows_per_subarray(rows_sa))
        }
        Scheme::BlockHammer => {
            let scale = time_scale();
            let scaled = RhParams::new(((rh.h_cnt as f64 * scale) as u64).max(64), rh.blast_radius);
            let window = ((cfg.timing.t_refw as f64 * scale) as u64).max(1);
            Box::new(BlockHammer::new(banks, scaled, window))
        }
        Scheme::Rrs => {
            let scale = time_scale();
            let scaled = RhParams::new(((rh.h_cnt as f64 * scale) as u64).max(64), rh.blast_radius);
            Box::new(Rrs::new(
                banks,
                cfg.geometry.rows_per_bank(),
                scaled,
                0x5A5A,
            ))
        }
        Scheme::Drr => Box::new(Drr::new()),
        Scheme::Para => Box::new(Para::for_h_cnt(rh, 0xBEEF).with_rows_per_subarray(rows_sa)),
        Scheme::Graphene => {
            let scale = time_scale();
            let scaled = RhParams::new(((rh.h_cnt as f64 * scale) as u64).max(64), rh.blast_radius);
            Box::new(Graphene::new(banks, scaled).with_rows_per_subarray(rows_sa))
        }
        Scheme::Panopticon => {
            let scale = time_scale();
            let scaled = RhParams::new(((rh.h_cnt as f64 * scale) as u64).max(64), rh.blast_radius);
            Box::new(
                Panopticon::new(banks, cfg.geometry.rows_per_bank(), scaled)
                    .with_rows_per_subarray(rows_sa),
            )
        }
        Scheme::Prac => {
            let scale = time_scale();
            let scaled = RhParams::new(((rh.h_cnt as f64 * scale) as u64).max(64), rh.blast_radius);
            Box::new(Prac::new(
                banks,
                cfg.geometry.rows_per_bank(),
                rows_sa,
                scaled,
            ))
        }
        Scheme::Practical => {
            let scale = time_scale();
            let scaled = RhParams::new(((rh.h_cnt as f64 * scale) as u64).max(64), rh.blast_radius);
            Box::new(Prac::practical(
                banks,
                cfg.geometry.rows_per_bank(),
                rows_sa,
                scaled,
            ))
        }
        Scheme::Dapper => {
            let scale = time_scale();
            let scaled = RhParams::new(((rh.h_cnt as f64 * scale) as u64).max(64), rh.blast_radius);
            Box::new(Dapper::new(banks, scaled).with_rows_per_subarray(rows_sa))
        }
        Scheme::ShadowFiltered => {
            let scfg = ShadowConfig {
                subarrays: cfg.geometry.subarrays_per_bank,
                rows_per_subarray: rows_sa,
            };
            let inner = ShadowMitigation::new(
                banks,
                scfg,
                ShadowMitigation::raaimt_for(rh.h_cnt),
                &cfg.timing,
                &ShadowTiming::paper_default(),
                0xD1CE,
            );
            let scale = time_scale();
            let watch = Filtered::<ShadowMitigation>::watch_threshold_for(
                ((rh.h_cnt as f64 * scale) as u64).max(64),
            );
            let window = ((cfg.timing.t_refw as f64 * scale) as u64).max(1);
            Box::new(Filtered::new(inner, banks, watch, window))
        }
    }
}

/// Named workload factories (rebuilt per run so every scheme sees an
/// identical, independently seeded stream set).
///
/// # Panics
///
/// Panics on an unknown name ([`try_workload`] is the fallible form the
/// campaign engine uses).
pub fn workload(name: &str, cfg: &SystemConfig, seed: u64) -> Vec<Box<dyn RequestStream>> {
    try_workload(name, cfg, seed).unwrap_or_else(|e| panic!("{e}"))
}

/// [`workload`] returning a typed error for unknown names / malformed
/// `mix-random-N` suffixes instead of panicking.
pub fn try_workload(
    name: &str,
    cfg: &SystemConfig,
    seed: u64,
) -> Result<Vec<Box<dyn RequestStream>>, BenchError> {
    let cap = cfg.capacity_bytes().max(1 << 30);
    let cores = mix_cores();
    Ok(match name {
        "spec-high" => AppProfile::spec_high()
            .iter()
            .map(|p| Box::new(ProfileStream::new(*p, cap, seed)) as Box<dyn RequestStream>)
            .collect(),
        "spec-med" => AppProfile::spec_med()
            .iter()
            .map(|p| Box::new(ProfileStream::new(*p, cap, seed)) as Box<dyn RequestStream>)
            .collect(),
        "spec-low" => AppProfile::spec_low()
            .iter()
            .map(|p| Box::new(ProfileStream::new(*p, cap, seed)) as Box<dyn RequestStream>)
            .collect(),
        "gapbs" => (0..cores.min(4))
            .map(|i| {
                Box::new(GraphStream::new("bfs", 1 << 22, cap, seed + i as u64))
                    as Box<dyn RequestStream>
            })
            .collect(),
        "npb" => (0..cores.min(4))
            .map(|i| {
                Box::new(StencilStream::class_c("cg", cap, seed + i as u64))
                    as Box<dyn RequestStream>
            })
            .collect(),
        "mix-high" => mix::mix_high(cores, cap, seed),
        "mix-blend" => mix::mix_blend(cores, cap, seed),
        "random-stream" => {
            vec![Box::new(RandomStream::new(cap, seed)) as Box<dyn RequestStream>]
        }
        other => {
            if let Some(rest) = other.strip_prefix("mix-random-") {
                let idx: u64 = rest.parse().map_err(|e| BenchError::Workload {
                    name: other.to_string(),
                    why: format!("the mix-random-<N> suffix must be an integer (`{rest}`: {e})"),
                })?;
                mix::mix_random(cores, cap, seed ^ (idx.wrapping_mul(0x9E37)))
            } else if let Some(p) = AppProfile::by_name(other) {
                vec![Box::new(ProfileStream::new(p, cap, seed)) as Box<dyn RequestStream>]
            } else {
                return Err(BenchError::Workload {
                    name: other.to_string(),
                    why: "unknown name; valid: spec-high/med/low, gapbs, npb, mix-high, \
                          mix-blend, mix-random-<N>, random-stream, or a profile name"
                        .to_string(),
                });
            }
        }
    })
}

/// Whether `SHADOW_BENCH_ORACLE` asks sweep runs to record their command
/// trace and replay it through the conformance oracle (any non-empty
/// value other than `0`). Off by default: tracing is cheap but the replay
/// is a full second pass over the command stream.
pub fn oracle_enabled() -> bool {
    std::env::var("SHADOW_BENCH_ORACLE").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// Replays `sys`'s recorded trace through the JEDEC oracle, panicking
/// with full context on any violation. Skips (with a note on stderr) if
/// the ring dropped records — a truncated replay would start from
/// fabricated state and report noise.
fn oracle_check(sys: &mut MemSystem, cfg: &SystemConfig, scheme: Scheme, workload_name: &str) {
    let trace = sys.device().trace().expect("oracle mode enables tracing");
    if !trace.is_complete() {
        eprintln!(
            "[oracle] {}/{workload_name}: trace dropped {} records, skipping replay",
            scheme.name(),
            trace.dropped()
        );
        return;
    }
    // `Filtered` suppresses RAA counting for unwatched rows, so exact
    // overflow accounting only applies to the unfiltered schemes.
    let raa_exact = scheme != Scheme::ShadowFiltered;
    let oracle = shadow_conformance::oracle_for(sys, cfg, raa_exact);
    let records = sys.take_trace().expect("oracle mode enables tracing");
    let violations = oracle.replay(&records);
    assert!(
        violations.is_empty(),
        "[oracle] {}/{workload_name}: {} protocol violation(s); first: {}",
        scheme.name(),
        violations.len(),
        violations[0]
    );
}

/// Trace depth for oracle-enabled runs: deep enough that the default
/// request target fits without eviction.
const ORACLE_TRACE_DEPTH: usize = 1 << 22;

/// Runs `workload_name` under `scheme` on `cfg`. With
/// `SHADOW_BENCH_ORACLE` set, also records the command trace and replays
/// it through the conformance oracle, panicking on any protocol
/// violation.
pub fn run(cfg: SystemConfig, workload_name: &str, scheme: Scheme) -> SimReport {
    let mut cfg = cfg;
    let oracle = oracle_enabled();
    if oracle && cfg.trace_depth == 0 {
        cfg.trace_depth = ORACLE_TRACE_DEPTH;
    }
    let streams = workload(
        workload_name,
        &cfg,
        0xACE0_0000 + workload_name.len() as u64,
    );
    let mitigation = build_mitigation(scheme, &cfg);
    let mut sys = MemSystem::new(cfg, streams, mitigation);
    let report = sys.run();
    if oracle {
        oracle_check(&mut sys, &cfg, scheme, workload_name);
    }
    report
}

/// Like [`run`] but on [`Engine::Reference`], the pre-optimization engine
/// with every runtime-switchable fast path defeated: a translation per
/// lookup and the full O(total banks) scan with no frontier memo. The
/// FR-FCFS queue walk and the Row Hammer ledgers are the same code on
/// both engines. The table-driven
/// PRINCE core has no runtime switch — it is pinned to the published test
/// vectors instead. Must produce a report identical to [`run`]; the
/// determinism tests and the `hotpath_profile` bench both lean on that.
pub fn run_uncached(cfg: SystemConfig, workload_name: &str, scheme: Scheme) -> SimReport {
    let mut cfg = cfg;
    cfg.engine = Engine::Reference;
    run(cfg, workload_name, scheme)
}

/// Host CPU count visible to the process. Recorded in the bench JSON
/// artifacts so thread-scaling numbers carry their hardware context.
pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Sweep worker threads: `SHADOW_BENCH_THREADS`, else available
/// parallelism. An explicit `0` also means "auto-detect host CPUs".
///
/// # Panics
///
/// Panics with the variable name if `SHADOW_BENCH_THREADS` is set but
/// malformed.
pub fn bench_threads() -> usize {
    let threads: usize =
        env_parsed("SHADOW_BENCH_THREADS", host_cpus()).unwrap_or_else(|e| panic!("{e}"));
    if threads == 0 {
        host_cpus()
    } else {
        threads
    }
}

/// The fig8-shaped 12-cell sweep slice the `hotpath_profile` bench
/// measures: {spec-high, mix-high, random-stream} × {Baseline, SHADOW,
/// RRS, PARFM} on the DDR4 system, so its cycles/sec numbers stay
/// comparable across artifacts.
pub fn engine_sweep_cells() -> Vec<Cell> {
    let mut cfg = SystemConfig::ddr4_actual_system();
    cfg.target_requests = request_target();
    let schemes = [Scheme::Baseline, Scheme::Shadow, Scheme::Rrs, Scheme::Parfm];
    ["spec-high", "mix-high", "random-stream"]
        .iter()
        .flat_map(|&w| schemes.iter().map(move |&s| (cfg, w.to_string(), s)))
        .collect()
}

/// Runs independent `jobs` across `threads` scoped worker threads and
/// returns their results **in job order**.
///
/// Workers claim jobs through an atomic cursor, so which thread runs which
/// job is nondeterministic — but each job is self-contained and results are
/// written to the job's own slot, so the returned vector is identical to
/// running the jobs serially. `threads <= 1` (or a single job) short-cuts
/// to a plain serial loop.
pub fn run_parallel<T, F>(jobs: Vec<F>, threads: usize) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    if threads <= 1 || jobs.len() <= 1 {
        return jobs.into_iter().map(|f| f()).collect();
    }
    let n = jobs.len();
    let slots: Vec<Mutex<Option<F>>> = jobs.into_iter().map(|f| Mutex::new(Some(f))).collect();
    let results: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..threads.min(n) {
            s.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let job = slots[i]
                    .lock()
                    .expect("job slot")
                    .take()
                    .expect("claimed once");
                let out = job();
                *results[i].lock().expect("result slot") = Some(out);
            });
        }
    });
    results
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("worker panicked")
                .expect("every job ran")
        })
        .collect()
}

/// Extracts the human-readable message from a panic payload (the `&str` /
/// `String` forms `panic!` produces; anything else gets a placeholder).
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// One sweep cell: a (config, workload, scheme) simulation.
pub type Cell = (SystemConfig, String, Scheme);

/// One cell's outcome plus its wall-clock cost.
///
/// `PartialEq` delegates to the report's (wall-clock excluded): two cell
/// results are equal when their *simulated* outcomes are.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// The simulation outcome (identical to a serial [`run`]).
    pub report: SimReport,
    /// Wall-clock seconds this cell took on its worker thread.
    pub wall_secs: f64,
}

impl PartialEq for CellResult {
    fn eq(&self, other: &Self) -> bool {
        self.report == other.report
    }
}

impl CellResult {
    /// Engine throughput for this cell: simulated cycles per wall second.
    pub fn cycles_per_sec(&self) -> f64 {
        if self.wall_secs > 0.0 {
            self.report.cycles as f64 / self.wall_secs
        } else {
            0.0
        }
    }
}

/// [`run`] with per-cell wall-clock measurement.
pub fn timed_run(cfg: SystemConfig, workload_name: &str, scheme: Scheme) -> CellResult {
    let t0 = std::time::Instant::now();
    let report = run(cfg, workload_name, scheme);
    CellResult {
        report,
        wall_secs: t0.elapsed().as_secs_f64(),
    }
}

/// Fallible, watchdog-aware [`timed_run`]: typed errors instead of
/// panics for unknown workloads, invalid configs, and watchdog stalls.
///
/// When the config leaves the watchdog off, `SHADOW_BENCH_WATCHDOG`
/// (cycles) arms it sweep-wide; cells that configure their own window keep
/// it. [`Engine::Reference`] runs the cell on the reference engine exactly
/// like [`run_uncached`] — the per-cell runner probes a failed cell there:
/// if the retry succeeds, the fast path diverged from the reference engine
/// and the cell result says so. [`Engine::Fast`] keeps the cell's own
/// engine.
pub fn try_timed_run(
    cfg: SystemConfig,
    workload_name: &str,
    scheme: Scheme,
    mode: Engine,
) -> Result<CellResult, BenchError> {
    let mut cfg = cfg;
    if cfg.watchdog_window == 0 {
        cfg.watchdog_window = env_parsed("SHADOW_BENCH_WATCHDOG", 0)?;
    }
    let oracle = oracle_enabled();
    if oracle && cfg.trace_depth == 0 {
        cfg.trace_depth = ORACLE_TRACE_DEPTH;
    }
    if mode == Engine::Reference {
        cfg.engine = Engine::Reference;
    }
    let streams = try_workload(
        workload_name,
        &cfg,
        0xACE0_0000 + workload_name.len() as u64,
    )?;
    let mitigation = build_mitigation(scheme, &cfg);
    let t0 = std::time::Instant::now();
    let mut sys = MemSystem::try_new(cfg, streams, mitigation)?;
    let report = sys.run_checked()?;
    let wall_secs = t0.elapsed().as_secs_f64();
    if oracle {
        oracle_check(&mut sys, &cfg, scheme, workload_name);
    }
    Ok(CellResult { report, wall_secs })
}

/// Fans `cells` over `threads` workers via [`timed_run`]; results come
/// back in cell order and are bit-identical to running each cell serially
/// (each cell re-derives its streams from the same fixed per-cell seed
/// [`run`] uses).
pub fn run_cells_with(threads: usize, cells: Vec<Cell>) -> Vec<CellResult> {
    let jobs: Vec<_> = cells
        .into_iter()
        .map(|(cfg, wname, scheme)| move || timed_run(cfg, &wname, scheme))
        .collect();
    run_parallel(jobs, threads)
}

/// The workspace root, anchored from this crate's manifest (benches run
/// with the crate directory as cwd).
pub fn workspace_root() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Runs `cmd args…` and returns its trimmed stdout, or `None` on any
/// failure (missing binary, non-zero exit, non-UTF-8 output).
fn command_stdout(cmd: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(cmd)
        .args(args)
        .current_dir(workspace_root())
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    String::from_utf8(out.stdout)
        .ok()
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
}

/// The provenance block every bench JSON artifact embeds: which
/// commit, host, and toolchain produced the numbers, and the exact bench
/// invocation — so the recorded perf trajectory is auditable across PRs
/// instead of a bare figure. Serialized via [`json::Json`], so shell
/// arguments with quotes survive. Fields degrade to `"unknown"` rather
/// than failing the bench (e.g. a source tarball without `.git`).
pub fn provenance_json() -> String {
    let unknown = || "unknown".to_string();
    let git_rev = command_stdout("git", &["rev-parse", "HEAD"])
        .map(|rev| {
            // A rev only identifies the numbers if the tree matched it.
            match command_stdout("git", &["status", "--porcelain"]) {
                None => rev,
                Some(_) => format!("{rev}-dirty"),
            }
        })
        .unwrap_or_else(unknown);
    let rustc_bin = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let rustc = command_stdout(&rustc_bin, &["--version"]).unwrap_or_else(unknown);
    let invocation = std::env::args().collect::<Vec<_>>().join(" ");
    json::Json::Obj(vec![
        ("git_rev".into(), json::Json::str(git_rev)),
        ("host_cpus".into(), json::Json::u64(host_cpus() as u64)),
        ("rustc".into(), json::Json::str(rustc)),
        ("invocation".into(), json::Json::str(invocation)),
    ])
    .to_json()
}

/// Prints a header for a bench report.
pub fn banner(title: &str) {
    println!("\n=== {title} ===");
}

/// A result table that prints to stdout *and* lands as a CSV artifact
/// under `target/bench-results/`, so reproduction runs leave diffable
/// records (EXPERIMENTS.md is compiled from these).
#[derive(Debug)]
pub struct ResultTable {
    name: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl ResultTable {
    /// Creates a table with the artifact `name` (file stem) and columns.
    pub fn new(name: &str, header: &[&str]) -> Self {
        ResultTable {
            name: name.to_string(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row (stringified cells).
    pub fn push(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Writes `target/bench-results/<name>.csv` (under the workspace
    /// target directory) and reports the path. I/O errors are reported but
    /// non-fatal (stdout already has the data).
    pub fn save(&self) {
        let dir = workspace_root().join("target/bench-results");
        if let Err(e) = std::fs::create_dir_all(&dir) {
            eprintln!("(bench-results dir unavailable: {e})");
            return;
        }
        let path = dir.join(format!("{}.csv", self.name));
        let mut out = self.header.join(",") + "\n";
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        match std::fs::write(&path, out) {
            Ok(()) => println!("[csv] {}", path.display()),
            Err(e) => eprintln!("(csv write failed: {e})"),
        }
    }
}

/// Formats a relative-performance cell.
pub fn cell(v: f64) -> String {
    format!("{v:>7.3}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_scheme_constructs() {
        let cfg = SystemConfig::tiny();
        for &s in Scheme::all() {
            let m = build_mitigation(s, &cfg);
            assert_eq!(m.name(), s.name());
        }
    }

    #[test]
    fn scheme_names_parse_back() {
        for &s in Scheme::all() {
            assert_eq!(Scheme::from_name(s.name()), Some(s));
            assert_eq!(Scheme::from_name(&s.name().to_lowercase()), Some(s));
        }
        assert_eq!(Scheme::from_name("nope"), None);
    }

    #[test]
    fn workloads_resolve() {
        let cfg = SystemConfig::ddr4_actual_system();
        for name in [
            "spec-high",
            "spec-med",
            "spec-low",
            "gapbs",
            "npb",
            "mix-high",
            "mix-blend",
            "random-stream",
            "mix-random-3",
            "mcf",
        ] {
            let streams = workload(name, &cfg, 1);
            assert!(!streams.is_empty(), "{name} produced no streams");
        }
    }

    #[test]
    #[should_panic]
    fn unknown_workload_panics() {
        let cfg = SystemConfig::tiny();
        let _ = workload("not-a-workload", &cfg, 1);
    }

    #[test]
    fn run_parallel_preserves_job_order() {
        for threads in [1, 2, 7] {
            let jobs: Vec<_> = (0..23u64).map(|i| move || i * i).collect();
            assert_eq!(
                run_parallel(jobs, threads),
                (0..23u64).map(|i| i * i).collect::<Vec<_>>(),
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn run_parallel_empty_and_single() {
        let none: Vec<fn() -> u32> = Vec::new();
        assert!(run_parallel(none, 4).is_empty());
        assert_eq!(run_parallel(vec![|| 7u32], 4), vec![7]);
    }

    #[test]
    fn bench_threads_is_positive() {
        assert!(bench_threads() >= 1);
    }

    #[test]
    fn cell_throughput_math() {
        let mut cfg = SystemConfig::tiny();
        cfg.target_requests = 200;
        let cell = timed_run(cfg, "random-stream", Scheme::Baseline);
        assert!(cell.wall_secs > 0.0);
        assert!(cell.cycles_per_sec() > 0.0);
    }

    #[test]
    fn uncached_run_matches_cached() {
        let mut cfg = SystemConfig::tiny();
        cfg.target_requests = 500;
        assert_eq!(
            run(cfg, "random-stream", Scheme::Shadow),
            run_uncached(cfg, "random-stream", Scheme::Shadow),
        );
    }

    #[test]
    fn tiny_end_to_end_relative_run() {
        let mut cfg = SystemConfig::tiny();
        cfg.target_requests = 500;
        let base = run(cfg, "random-stream", Scheme::Baseline);
        let rel = run(cfg, "random-stream", Scheme::Shadow).relative_performance(&base);
        assert!(rel > 0.3 && rel <= 1.05, "relative perf {rel}");
    }
}
