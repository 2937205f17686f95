//! # shadow-bench
//!
//! Shared machinery for the benchmark harness that regenerates every table
//! and figure of the paper's evaluation (the per-experiment index lives in
//! DESIGN.md §3). Each `benches/*.rs` target is a plain `harness = false`
//! binary that runs the experiment and prints the paper's rows/series;
//! `cargo bench --workspace` therefore reproduces the whole evaluation.
//!
//! Every experiment input lives in a recipe, a [`SystemConfig`] or the
//! command line; nothing is read from the process environment. The bench
//! targets that simulate take one argv grammar, [`BenchArgs`]:
//! `cargo bench -p shadow-bench --bench fig8_perf -- --requests 2000`.
//! Worker threads come from the recipe's `threads`, else the host CPU
//! count ([`host_cpus`]). Results are bit-identical at any thread count:
//! every cell is an independent simulation with its own fixed seed
//! ([`stream_seed`]), and [`run_parallel`] returns results in job order
//! regardless of which worker finished first.
//!
//! [`try_timed_run`] is the one function that runs a cell. The schemes it
//! runs come from the registry in `shadow-memsys` ([`Scheme`],
//! [`build_mitigation`], [`TIME_SCALE`]), re-exported here.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod json;
pub mod runner;

pub use shadow_memsys::{build_mitigation, Scheme, TIME_SCALE};

use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use shadow_conformance::{Fault, FaultyMitigation};
use shadow_memsys::{Engine, MemSystem, SimError, SimReport, SystemConfig};
use shadow_workloads::graph::GraphStream;
use shadow_workloads::stencil::StencilStream;
use shadow_workloads::stream::RandomStream;
use shadow_workloads::{mix, AppProfile, ProfileStream, RequestStream};

/// Why a bench-harness operation failed.
///
/// Everything a sweep can hit short of a hard panic: unknown workload
/// names, simulation errors (bad config, watchdog stall), and
/// checkpoint-manifest I/O or key-version mismatches. The per-cell runner
/// ([`runner::run_cell_with_retry`]) maps these into per-cell outcomes so
/// one bad cell cannot kill a batch.
#[derive(Debug, Clone, PartialEq)]
pub enum BenchError {
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
    /// A well-formed checkpoint-manifest line carries a missing or foreign
    /// [`runner::KEY_VERSION`]: its fingerprints were computed by another
    /// key, so none of its cells could ever be restored.
    KeyVersion {
        /// The manifest.
        path: String,
        /// 1-based line number of the first offending line.
        line: usize,
        /// The version the line records (`None`: no version).
        found: Option<u64>,
    },
}

impl fmt::Display for BenchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BenchError::Workload { name, why } => write!(f, "workload `{name}`: {why}"),
            BenchError::Sim(e) => write!(f, "{e}"),
            BenchError::Io { path, why } => write!(f, "{path}: {why}"),
            BenchError::KeyVersion { path, line, found } => write!(
                f,
                "{path}:{line}: checkpoint key version {}, but this build keys checkpoints \
                 with version {}; move the manifest aside to start afresh",
                found.map_or("none".into(), |v| v.to_string()),
                runner::KEY_VERSION
            ),
        }
    }
}

impl std::error::Error for BenchError {}

impl From<SimError> for BenchError {
    fn from(e: SimError) -> Self {
        BenchError::Sim(e)
    }
}

/// Completed-request target of a bench run without `--requests`.
pub const DEFAULT_REQUESTS: u64 = 60_000;

/// Cores per multiprogrammed mix: the Table IV machine's 14.
pub const MIX_CORES: usize = 14;

/// The stream seed every cell of `workload` runs with, so each scheme
/// sees an identical stream set.
pub fn stream_seed(workload: &str) -> u64 {
    0xACE0_0000 + workload.len() as u64
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
        "gapbs" => (0..4)
            .map(|i| {
                Box::new(GraphStream::new("bfs", 1 << 22, cap, seed + i as u64))
                    as Box<dyn RequestStream>
            })
            .collect(),
        "npb" => (0..4)
            .map(|i| {
                Box::new(StencilStream::class_c("cg", cap, seed + i as u64))
                    as Box<dyn RequestStream>
            })
            .collect(),
        "mix-high" => mix::mix_high(MIX_CORES, cap, seed),
        "mix-blend" => mix::mix_blend(MIX_CORES, cap, seed),
        "random-stream" => {
            vec![Box::new(RandomStream::new(cap, seed)) as Box<dyn RequestStream>]
        }
        other => {
            if let Some(rest) = other.strip_prefix("mix-random-") {
                let idx: u64 = rest.parse().map_err(|e| BenchError::Workload {
                    name: other.to_string(),
                    why: format!("the mix-random-<N> suffix must be an integer (`{rest}`: {e})"),
                })?;
                mix::mix_random(MIX_CORES, cap, seed ^ (idx.wrapping_mul(0x9E37)))
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
    let oracle = shadow_conformance::oracle_for(sys, cfg, scheme.raa_exact());
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

/// Host CPU count visible to the process. Recorded in the bench JSON
/// artifacts so thread-scaling numbers carry their hardware context.
pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The fig8-shaped 12-cell sweep slice the `hotpath_profile` bench
/// measures: {spec-high, mix-high, random-stream} × {Baseline, SHADOW,
/// RRS, PARFM} on the DDR4 system at `requests` per cell, so its
/// cycles/sec numbers stay comparable across artifacts.
pub fn engine_sweep_cells(requests: u64) -> Vec<Cell> {
    let mut cfg = SystemConfig::ddr4_actual_system();
    cfg.target_requests = requests;
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
    /// The simulation outcome.
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

/// Trace depth for oracle-enabled runs: deep enough that the default
/// request target fits without eviction.
const ORACLE_TRACE_DEPTH: usize = 1 << 22;

/// What a run adds to its cell's config.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RunOptions {
    /// [`Engine::Reference`] runs the cell on the reference engine (every
    /// runtime-switchable fast path defeated); [`Engine::Fast`] keeps the
    /// cell's own engine.
    pub engine: Engine,
    /// Record the command trace and replay it through the conformance
    /// oracle, panicking with full context on any protocol violation.
    /// Off by default: tracing is cheap but the replay is a full second
    /// pass over the command stream.
    pub oracle: bool,
    /// Wrap the cell's mitigation in a [`FaultyMitigation`]: the
    /// deterministic fault injection behind `[[fault]]` recipe entries.
    pub fault: Option<Fault>,
}

/// Runs one cell — `workload_name` under `scheme` on `cfg`, with the
/// streams of [`stream_seed`] — and times it. The one function that runs
/// a cell: the campaign engine, the benches and the tests all come here.
///
/// The wall time covers `MemSystem::try_new` and the run, not the stream
/// and mitigation builds.
///
/// # Errors
///
/// Typed errors instead of panics for unknown workloads, invalid configs,
/// and watchdog stalls (armed by the config's `watchdog_window`).
pub fn try_timed_run(
    cfg: SystemConfig,
    workload_name: &str,
    scheme: Scheme,
    opts: RunOptions,
) -> Result<CellResult, BenchError> {
    let mut cfg = cfg;
    if opts.oracle && cfg.trace_depth == 0 {
        cfg.trace_depth = ORACLE_TRACE_DEPTH;
    }
    if opts.engine == Engine::Reference {
        cfg.engine = Engine::Reference;
    }
    let streams = try_workload(workload_name, &cfg, stream_seed(workload_name))?;
    let mut mitigation = build_mitigation(scheme, &cfg);
    if let Some(fault) = opts.fault {
        mitigation = Box::new(FaultyMitigation::new(mitigation, fault));
    }
    let t0 = std::time::Instant::now();
    let mut sys = MemSystem::try_new(cfg, streams, mitigation)?;
    let report = sys.run_checked()?;
    let wall_secs = t0.elapsed().as_secs_f64();
    if opts.oracle {
        oracle_check(&mut sys, &cfg, scheme, workload_name);
    }
    Ok(CellResult { report, wall_secs })
}

/// The arguments a simulating bench target takes after cargo's `--`:
/// `[--requests N] [--manifest PATH] [--oracle]`, each bench taking only
/// the flags it honours. Cargo appends `--bench` to a `harness = false`
/// target's arguments; it is accepted and ignored.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BenchArgs {
    /// `--requests N`: completed-request target per run; replaces a
    /// figure recipe's `requests`.
    pub requests: Option<u64>,
    /// `--manifest PATH`: the figure sweeps' JSONL checkpoint manifest.
    /// Completed cells are appended and restored on re-run, so an
    /// interrupted sweep resumes bit-identically. A relative PATH is
    /// resolved against the workspace root ([`BenchArgs::manifest_path`]).
    pub manifest: Option<PathBuf>,
    /// `--oracle`: replay every run's command trace through the
    /// conformance oracle (`hotpath_profile` and the figure sweeps).
    pub oracle: bool,
}

/// The flags [`BenchArgs`] knows, with their usage forms.
const BENCH_FLAGS: [(&str, &str); 3] = [
    ("--requests", "[--requests N]"),
    (
        "--manifest",
        "[--manifest PATH (relative to the workspace root)]",
    ),
    ("--oracle", "[--oracle]"),
];

impl BenchArgs {
    /// Every flag: what the figure sweeps honour.
    pub const ALL: &'static [&'static str] = &["--requests", "--manifest", "--oracle"];

    /// Parses `args` (the program name already stripped) for the bench
    /// `bench`, which honours the flags `honoured`.
    ///
    /// # Errors
    ///
    /// A message naming the unknown argument, the malformed value, or the
    /// known flag that `bench` does not honour.
    pub fn parse(
        bench: &str,
        honoured: &[&str],
        args: impl IntoIterator<Item = String>,
    ) -> Result<BenchArgs, String> {
        let mut out = BenchArgs::default();
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            if Self::ALL.contains(&arg.as_str()) && !honoured.contains(&arg.as_str()) {
                return Err(format!("{bench} does not honour `{arg}`"));
            }
            let mut value = || it.next().ok_or(format!("{arg} needs a value"));
            match arg.as_str() {
                "--bench" => {}
                "--oracle" => out.oracle = true,
                "--requests" => {
                    let v = value()?;
                    let n = v.parse().map_err(|e| format!("--requests `{v}`: {e}"))?;
                    out.requests = Some(n);
                }
                "--manifest" => out.manifest = Some(PathBuf::from(value()?)),
                _ => return Err(format!("unknown argument `{arg}`")),
            }
        }
        Ok(out)
    }

    /// The process's own arguments for the bench `bench`, which honours
    /// the flags `honoured`; a malformed command line, or a flag `bench`
    /// does not honour, prints the error and the usage and exits with
    /// status 2.
    pub fn from_args(bench: &str, honoured: &[&str]) -> BenchArgs {
        BenchArgs::parse(bench, honoured, std::env::args().skip(1)).unwrap_or_else(|e| {
            let flags: Vec<&str> = BENCH_FLAGS
                .iter()
                .filter(|(flag, _)| honoured.contains(flag))
                .map(|(_, usage)| *usage)
                .collect();
            eprintln!(
                "{e}\nusage: cargo bench --bench {bench} -- {}",
                flags.join(" ")
            );
            std::process::exit(2)
        })
    }

    /// `--manifest`, a relative path resolved against [`workspace_root`]
    /// (where `recipes/` and `target/` live), not the working directory,
    /// which cargo sets to the bench's package directory.
    pub fn manifest_path(&self) -> Option<PathBuf> {
        self.manifest.as_ref().map(|p| workspace_root().join(p))
    }

    /// `--requests`, else [`DEFAULT_REQUESTS`].
    pub fn requests(&self) -> u64 {
        self.requests.unwrap_or(DEFAULT_REQUESTS)
    }
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

    // The registry lives in shadow-memsys; these pin it as this crate
    // re-exports it to the benches, the campaign engine and the CLI.
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

    fn run(cfg: SystemConfig, scheme: Scheme, engine: Engine) -> CellResult {
        let opts = RunOptions {
            engine,
            ..RunOptions::default()
        };
        try_timed_run(cfg, "random-stream", scheme, opts).expect("cell runs")
    }

    #[test]
    fn cell_throughput_math() {
        let mut cfg = SystemConfig::tiny();
        cfg.target_requests = 200;
        let cell = run(cfg, Scheme::Baseline, Engine::Fast);
        assert!(cell.wall_secs > 0.0);
        assert!(cell.cycles_per_sec() > 0.0);
    }

    #[test]
    fn uncached_run_matches_cached() {
        let mut cfg = SystemConfig::tiny();
        cfg.target_requests = 500;
        assert_eq!(
            run(cfg, Scheme::Shadow, Engine::Fast),
            run(cfg, Scheme::Shadow, Engine::Reference),
        );
    }

    #[test]
    fn tiny_end_to_end_relative_run() {
        let mut cfg = SystemConfig::tiny();
        cfg.target_requests = 500;
        let base = run(cfg, Scheme::Baseline, Engine::Fast).report;
        let rel = run(cfg, Scheme::Shadow, Engine::Fast)
            .report
            .relative_performance(&base);
        assert!(rel > 0.3 && rel <= 1.05, "relative perf {rel}");
    }

    #[test]
    fn bench_args_take_cargos_bench_flag() {
        let args =
            |a: &str| BenchArgs::parse("b", BenchArgs::ALL, a.split_whitespace().map(String::from));
        let want = BenchArgs {
            requests: Some(2000),
            manifest: Some(PathBuf::from("m")),
            oracle: true,
        };
        assert_eq!(
            args("--requests 2000 --oracle --manifest m --bench"),
            Ok(want)
        );
        assert_eq!(args("--bench").map(|a| a.requests()), Ok(DEFAULT_REQUESTS));
        for bad in ["--requests", "--requests 60k", "--threads 2"] {
            let flag = bad.split(' ').next().unwrap();
            assert!(args(bad).is_err_and(|e| e.contains(flag)), "{bad}");
        }
    }

    #[test]
    fn bench_args_refuse_flags_the_bench_ignores() {
        let args = |honoured: &[&str], a: &str| {
            BenchArgs::parse(
                "fig9_trcd",
                honoured,
                a.split_whitespace().map(String::from),
            )
        };
        let requests_only = &["--requests"];
        assert_eq!(
            args(requests_only, "--requests 10 --bench").map(|a| a.requests()),
            Ok(10)
        );
        for flag in ["--oracle", "--manifest m"] {
            let e = args(requests_only, flag).expect_err(flag);
            let name = flag.split(' ').next().unwrap();
            assert!(e.contains(name) && e.contains("fig9_trcd"), "{e}");
        }
        let e = args(&["--requests", "--oracle"], "--oracle --manifest m").expect_err("manifest");
        assert!(e.contains("--manifest"), "{e}");
    }

    #[test]
    fn relative_manifest_resolves_against_workspace_root() {
        let args = |m: &str| BenchArgs {
            manifest: Some(PathBuf::from(m)),
            ..BenchArgs::default()
        };
        let rel = args("target/m.jsonl").manifest_path().expect("set");
        assert_eq!(rel, workspace_root().join("target/m.jsonl"));
        assert!(rel.parent().expect("dir").join("../recipes").is_dir());
        assert_eq!(
            args("/abs/m.jsonl").manifest_path(),
            Some(PathBuf::from("/abs/m.jsonl"))
        );
        assert_eq!(BenchArgs::default().manifest_path(), None);
    }
}
