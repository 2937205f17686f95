//! Runs the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     [--workload W] [--seed S] [--seconds T] [--trace 0|1] [--sets N]
//! ```
//!
//! With one `--workload` (and one set) the workload runs in this process
//! and the last line of standard output is a JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`, both without
//! `--trace`. Otherwise every selected workload runs in a child process of
//! its own, one after another, `--sets` times; with two or more sets the
//! medians of each set are compared against each metric's bound.

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use shadow_bench::json::Json;
use shadow_benchmark::metrics::END_TO_END;
use shadow_benchmark::run::{run, Metric, Options, Outcome};
use shadow_benchmark::workload::{Plan, Size, Workload, DEFAULT_SEED};

/// Default `--seconds`: the timed passes of one workload.
const DEFAULT_SECONDS: f64 = 10.0;

const USAGE: &str =
    "usage: shadow-benchmark [--workload fig8-dense|sparse-spec|low-hcnt|campaign-grid] \
                     [--seed S] [--seconds T] [--trace 0|1] [--sets N]";

#[derive(Debug)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    sets: usize,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: None,
        sets: 1,
    };
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                args.workload =
                    Some(Workload::from_name(v).ok_or(format!("unknown workload `{v}`"))?);
            }
            "--seed" => {
                let v = value()?;
                let parsed = match v.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => v.parse(),
                };
                args.seed = parsed.map_err(|e| format!("--seed `{v}`: {e}"))?;
            }
            "--seconds" => {
                let v = value()?;
                args.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or(format!("--seconds `{v}`: expected a non-negative number"))?;
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace `{v}`: expected 0 or 1")),
                });
            }
            "--sets" => {
                let v = value()?;
                args.sets = v
                    .parse()
                    .ok()
                    .filter(|&n: &usize| n >= 1)
                    .ok_or(format!("--sets `{v}`: expected a positive integer"))?;
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match args.workload {
        Some(w) if args.sets == 1 => run_here(w, &args),
        _ => run_children(&args),
    }
}

/// Where this crate keeps what it writes: results and campaign scratch.
fn target_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target")
}

/// Runs one workload in this process and prints its result line.
fn run_here(workload: Workload, args: &Args) -> ExitCode {
    let opts = Options {
        seconds: args.seconds,
        per_layer: args.trace != Some(false),
    };
    let scratch = target_dir().join(format!(
        "campaign-{}-{}",
        workload.name(),
        std::process::id()
    ));
    let result = Plan::new(workload, args.seed, Size::Full)
        .and_then(|plan| run(&plan, &opts, &scratch).map(|outcome| (plan, outcome)));
    let (plan, outcome) = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{}: {e}", workload.name());
            return ExitCode::from(2);
        }
    };
    print_outcome(&plan, &outcome);
    match write_results(&plan, &outcome, args) {
        Ok(path) => println!("[results] {}", path.display()),
        Err(e) => eprintln!("[results] not written: {e}"),
    }
    let reported: Vec<&Metric> = match args.trace {
        Some(false) => outcome.end_to_end.iter().collect(),
        Some(true) => outcome.per_layer.iter().collect(),
        None => outcome
            .end_to_end
            .iter()
            .chain(&outcome.per_layer)
            .collect(),
    };
    let metrics = reported
        .iter()
        .map(|m| {
            let value = Json::Obj(vec![
                ("value".into(), Json::f64(m.value)),
                ("unit".into(), Json::str(m.unit)),
            ]);
            (m.name.to_string(), value)
        })
        .collect();
    let line = Json::Obj(vec![
        ("correct".into(), Json::Bool(outcome.failures.is_empty())),
        ("attempted".into(), Json::u64(outcome.attempted)),
        ("failed".into(), Json::u64(outcome.failures.len() as u64)),
        ("metrics".into(), Json::Obj(metrics)),
    ]);
    println!("{}", line.to_json());
    if outcome.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn print_outcome(plan: &Plan, outcome: &Outcome) {
    println!(
        "== {}  seed {:#x}  {} cells x {} timed passes ==",
        plan.workload.name(),
        plan.seed,
        plan.cells.len(),
        outcome.timed_passes
    );
    for m in outcome.end_to_end.iter().chain(&outcome.per_layer) {
        let spread = match m.quartiles {
            Some((q1, q3)) => format!("median of {} passes, q1 {q1:.6} q3 {q3:.6}", m.samples),
            None if m.samples > 1 => format!("across {} cells' medians", m.samples),
            None => String::new(),
        };
        println!("  {:<38} {:>18.6} {:<9} {spread}", m.name, m.value, m.unit);
    }
    let failed = outcome.failures.len();
    println!(
        "  {:<38} {:>18.6} {:<9} {failed} of {} cell runs",
        "failed_cell_ratio",
        failed as f64 / outcome.attempted.max(1) as f64,
        "ratio",
        outcome.attempted
    );
    for f in &outcome.failures {
        println!("  FAILED {f}");
    }
}

/// Writes the run's result, with provenance, under `target/results/`.
fn write_results(plan: &Plan, outcome: &Outcome, args: &Args) -> Result<PathBuf, String> {
    let dir = target_dir().join("results");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let stamp = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let path = dir.join(format!(
        "{}-seed{:x}-{stamp}-{}.json",
        plan.workload.name(),
        plan.seed,
        std::process::id()
    ));
    let provenance =
        Json::parse(&shadow_bench::provenance_json()).map_err(|e| format!("provenance: {e}"))?;
    let metric = |m: &Metric| {
        let mut fields = vec![
            ("value".to_string(), Json::f64(m.value)),
            ("unit".to_string(), Json::str(m.unit)),
            ("n".to_string(), Json::u64(m.samples as u64)),
        ];
        if let Some((q1, q3)) = m.quartiles {
            fields.push(("q1".to_string(), Json::f64(q1)));
            fields.push(("q3".to_string(), Json::f64(q3)));
        }
        (m.name.to_string(), Json::Obj(fields))
    };
    let doc = Json::Obj(vec![
        ("workload".into(), Json::str(plan.workload.name())),
        ("seed".into(), Json::u64(plan.seed)),
        ("recipe".into(), Json::str(&plan.recipe)),
        ("cells".into(), Json::u64(plan.cells.len() as u64)),
        (
            "requests_per_cell".into(),
            Json::u64(plan.cells.first().map_or(0, |c| c.cell.0.target_requests)),
        ),
        (
            "timed_passes".into(),
            Json::u64(outcome.timed_passes as u64),
        ),
        ("seconds".into(), Json::f64(args.seconds)),
        ("nproc".into(), Json::u64(shadow_bench::host_cpus() as u64)),
        ("provenance".into(), provenance),
        ("attempted".into(), Json::u64(outcome.attempted)),
        (
            "failures".into(),
            Json::Arr(outcome.failures.iter().map(Json::str).collect()),
        ),
        (
            "digests".into(),
            Json::Arr(
                outcome
                    .digests
                    .iter()
                    .map(|d| d.map_or(Json::Null, |d| Json::str(format!("{d:016x}"))))
                    .collect(),
            ),
        ),
        (
            "end_to_end".into(),
            Json::Obj(outcome.end_to_end.iter().map(metric).collect()),
        ),
        (
            "per_layer".into(),
            Json::Obj(outcome.per_layer.iter().map(metric).collect()),
        ),
    ]);
    std::fs::write(&path, doc.to_json() + "\n").map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

/// Runs each selected workload in a child process, `--sets` times, and
/// with two or more sets checks every end-to-end median against its bound.
fn run_children(args: &Args) -> ExitCode {
    let workloads = args.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("cannot locate this executable: {e}");
            return ExitCode::from(2);
        }
    };
    let mut ok = true;
    // medians[set][workload] = the child's metrics, if it reported any.
    let mut medians: Vec<Vec<Option<Json>>> = Vec::new();
    for set in 1..=args.sets {
        let mut row = Vec::new();
        for &w in &workloads {
            println!("-- set {set}/{}: {} --", args.sets, w.name());
            let (success, last) = run_child(&exe, w, args);
            ok &= success;
            row.push(last.and_then(|l| Json::parse(&l).ok()));
        }
        medians.push(row);
    }
    if args.sets >= 2 {
        ok &= compare_sets(&workloads, &medians);
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs one child, echoing its output; returns whether it exited 0 and
/// its last line of output.
fn run_child(exe: &PathBuf, w: Workload, args: &Args) -> (bool, Option<String>) {
    let mut cmd = Command::new(exe);
    cmd.arg("--workload")
        .arg(w.name())
        .arg("--seed")
        .arg(args.seed.to_string())
        .arg("--seconds")
        .arg(args.seconds.to_string())
        .stdout(Stdio::piped());
    if let Some(t) = args.trace {
        cmd.arg("--trace").arg(if t { "1" } else { "0" });
    }
    let mut child = match cmd.spawn() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{}: cannot start: {e}", w.name());
            return (false, None);
        }
    };
    let mut last = None;
    if let Some(out) = child.stdout.take() {
        for line in BufReader::new(out).lines().map_while(Result::ok) {
            println!("{line}");
            last = Some(line);
        }
    }
    match child.wait() {
        Ok(status) if status.success() => (true, last),
        Ok(status) => {
            eprintln!("{}: child exited with {status}", w.name());
            (false, last)
        }
        Err(e) => {
            eprintln!("{}: wait failed: {e}", w.name());
            (false, last)
        }
    }
}

/// Prints each set's median of every (workload, end-to-end metric) pair
/// and whether the later sets stay within the metric's bound of the first.
fn compare_sets(workloads: &[Workload], medians: &[Vec<Option<Json>>]) -> bool {
    println!("\n== repeat check: each set's median vs set 1, against the metric's bound ==");
    let mut ok = true;
    for (wi, w) in workloads.iter().enumerate() {
        for def in &END_TO_END {
            let values: Vec<Option<f64>> = medians
                .iter()
                .map(|set| {
                    set[wi]
                        .as_ref()?
                        .get("metrics")?
                        .get(def.name)?
                        .get("value")?
                        .as_f64()
                        .ok()
                })
                .collect();
            let shown: Vec<String> = values
                .iter()
                .map(|v| v.map_or("-".to_string(), |v| format!("{v:.6}")))
                .collect();
            let worst = match values.as_slice() {
                [Some(base), rest @ ..] if rest.iter().all(Option::is_some) => rest
                    .iter()
                    .flatten()
                    .map(|&v| def.better.worsening(*base, v))
                    .fold(f64::NEG_INFINITY, f64::max),
                _ => f64::INFINITY,
            };
            let pass = worst <= def.bound;
            ok &= pass;
            println!(
                "  {:<14} {:<20} {:<40} worst {:>+7.2}%  bound {:>5.1}%  {}",
                w.name(),
                def.name,
                shown.join("  "),
                worst * 100.0,
                def.bound * 100.0,
                if pass { "PASS" } else { "FAIL" }
            );
        }
    }
    ok
}
