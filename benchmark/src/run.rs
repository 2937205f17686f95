//! One workload, start to finish: a warm-up pass, timed passes and the
//! traced section, with every cell's outcome checked.

use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use shadow_bench::json::{report_from_json, report_to_json, Json};
use shadow_campaign::Recipe;

use crate::metrics::{END_TO_END, PER_LAYER};
use crate::pass::{campaign_pass, direct_pass, Drive, OracleStats, Pass};
use crate::stats::{outcome_digest, percentile, Summary};
use crate::trace::{Clock, Ledger, MITIGATION_METHODS};
use crate::workload::Plan;

/// Fewest timed passes a run makes, whatever `--seconds` says: every
/// per-pass median and every cell's median cost rests on at least this many.
pub const MIN_PASSES: usize = 9;

/// Timed calls the clock calibration makes.
const CLOCK_CALIBRATION_CALLS: u32 = 200_000;

/// What to measure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Options {
    /// Keep making timed passes until this long has passed.
    pub seconds: f64,
    /// Run the traced section and report the per-layer metrics.
    pub per_layer: bool,
}

/// A measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// The value: a median over passes, or a percentile across cells.
    pub value: f64,
    /// Samples behind `value`: passes, or cells.
    pub samples: usize,
    /// Quartiles over passes, where the value is a median over passes.
    pub quartiles: Option<(f64, f64)>,
}

/// What a run measured and found.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Cell executions made, every pass included.
    pub attempted: u64,
    /// One line per failed cell execution.
    pub failures: Vec<String>,
    /// Timed passes made.
    pub timed_passes: usize,
    /// The reference digest of each cell (`None` where no pass completed it).
    pub digests: Vec<Option<u64>>,
    /// End-to-end metrics, in [`END_TO_END`] order.
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (empty unless asked for).
    pub per_layer: Vec<Metric>,
}

/// Tallies attempted and failed cell executions against reference digests.
struct Checker<'a> {
    plan: &'a Plan,
    attempted: u64,
    failures: Vec<String>,
}

impl Checker<'_> {
    /// Checks every cell of `pass`: it completed, reached its request
    /// target, and (where `expected` has one) matched its digest.
    fn check(&mut self, what: &str, pass: &Pass, expected: &[Option<u64>]) {
        for (i, cell) in pass.cells.iter().enumerate() {
            self.attempted += 1;
            let label = self.plan.label(i);
            let failure = match cell {
                Err(e) => Some(e.clone()),
                Ok(c) => {
                    let target = self.plan.cells[i].cell.0.target_requests;
                    let digest = outcome_digest(&c.report);
                    if c.report.total_completed() < target {
                        Some(format!(
                            "completed {} of {target} requests",
                            c.report.total_completed()
                        ))
                    } else {
                        match expected.get(i).copied().flatten() {
                            Some(want) if want != digest => Some(format!(
                                "outcome digest {digest:016x}, expected {want:016x}"
                            )),
                            _ => None,
                        }
                    }
                }
            };
            if let Some(why) = failure {
                self.failures.push(format!("{what}: {label}: {why}"));
            }
        }
    }
}

/// Digests of a pass's completed cells.
fn digests(pass: &Pass) -> Vec<Option<u64>> {
    pass.cells
        .iter()
        .map(|c| c.as_ref().ok().map(|c| outcome_digest(&c.report)))
        .collect()
}

/// One untraced pass of the kind the workload times.
fn timed_pass(plan: &Plan, dir: &Path) -> Result<Pass, String> {
    if plan.workload.is_campaign() {
        fresh_dir(dir)?;
        Ok(campaign_pass(plan, dir)?.pass)
    } else {
        Ok(direct_pass(plan, Drive::Plain))
    }
}

fn fresh_dir(dir: &Path) -> Result<(), String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(kb * 1024.0 / 1e6)
}

/// Runs `plan`: a discarded warm-up pass, then timed passes until
/// `opts.seconds` have passed (at least [`MIN_PASSES`]), then the traced
/// section when asked for. `dir` holds the campaign engine's files and is
/// removed at the end.
///
/// # Errors
///
/// The campaign directory could not be prepared, or a campaign could not
/// run at all (cell failures are not errors: they land in
/// [`Outcome::failures`]).
pub fn run(plan: &Plan, opts: &Options, dir: &Path) -> Result<Outcome, String> {
    let outcome = measure(plan, opts, dir);
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    outcome
}

fn measure(plan: &Plan, opts: &Options, dir: &Path) -> Result<Outcome, String> {
    let mut checker = Checker {
        plan,
        attempted: 0,
        failures: Vec::new(),
    };
    let warm_up = timed_pass(plan, dir)?;
    let golden: Option<Vec<Option<u64>>> = plan
        .golden
        .as_ref()
        .map(|g| g.iter().copied().map(Some).collect());
    let reference = match &golden {
        Some(g) if plan.direct_matches_campaign() => g.clone(),
        _ => digests(&warm_up),
    };
    checker.check("warm-up", &warm_up, &reference);

    let mut passes = Vec::new();
    let start = Instant::now();
    let budget = Duration::from_secs_f64(opts.seconds.max(0.0));
    while passes.len() < MIN_PASSES || start.elapsed() < budget {
        let pass = timed_pass(plan, dir)?;
        checker.check(&format!("pass {}", passes.len() + 1), &pass, &reference);
        passes.push(pass);
    }
    let peak_rss = peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?;

    let per_layer = if opts.per_layer {
        // The campaign engine runs the default-seed cells whatever the seed.
        let campaign_reference = match golden {
            _ if plan.direct_matches_campaign() => reference.clone(),
            Some(g) => g,
            None => vec![None; plan.cells.len()],
        };
        let layers = traced_section(
            plan,
            dir,
            &passes,
            &reference,
            &campaign_reference,
            &mut checker,
        )?;
        PER_LAYER
            .iter()
            .map(|&(name, unit, _)| Metric {
                name,
                unit,
                value: layers
                    .iter()
                    .find(|(n, _)| n == name)
                    .unwrap_or_else(|| panic!("per-layer metric {name} was not measured"))
                    .1,
                samples: 1,
                quartiles: None,
            })
            .collect()
    } else {
        Vec::new()
    };

    Ok(Outcome {
        attempted: checker.attempted,
        failures: checker.failures,
        timed_passes: passes.len(),
        digests: reference,
        end_to_end: end_to_end(&passes, peak_rss),
        per_layer,
    })
}

/// The end-to-end metrics over the timed passes.
fn end_to_end(passes: &[Pass], peak_rss: f64) -> Vec<Metric> {
    let per_pass = |f: &dyn Fn(&Pass) -> f64| passes.iter().map(f).collect::<Vec<f64>>();
    let over_passes = |samples: Vec<f64>| {
        let s = Summary::of(&samples).expect("at least one timed pass");
        (s.median, s.n, Some((s.q1, s.q3)))
    };
    // Each cell's median cost over the passes: host noise in a single cell
    // run is larger than the spread between cells, so pooling the runs
    // would make the upper percentiles measure the noise.
    let cells = passes.first().map_or(0, |p| p.cells.len());
    let cell_medians: Vec<f64> = (0..cells)
        .filter_map(|i| {
            let runs: Vec<f64> = passes
                .iter()
                .filter_map(|p| p.cells[i].as_ref().ok())
                .map(|c| c.sim_s * 1e9 / c.report.total_completed().max(1) as f64)
                .collect();
            percentile(&runs, 50.0)
        })
        .collect();
    let across_cells = |p: f64| {
        (
            percentile(&cell_medians, p).unwrap_or(0.0),
            cell_medians.len(),
            None,
        )
    };
    let values = [
        over_passes(per_pass(&|p| p.wall_s)),
        over_passes(per_pass(&|p| p.cycles() as f64 / p.wall_s)),
        across_cells(50.0),
        across_cells(90.0),
        over_passes(per_pass(&|p| p.setup_s)),
        (peak_rss, 1, None),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(def, (value, samples, quartiles))| Metric {
            name: def.name,
            unit: def.unit,
            value,
            samples,
            quartiles,
        })
        .collect()
}

/// The traced section: the recipe through the campaign engine (cold, then
/// resumed); one directly driven pass with timing wrappers around the
/// streams and the mitigation, whose reports then round-trip through JSON;
/// and the oracle check pass.
fn traced_section(
    plan: &Plan,
    dir: &Path,
    passes: &[Pass],
    reference: &[Option<u64>],
    campaign_reference: &[Option<u64>],
    checker: &mut Checker,
) -> Result<Vec<(String, f64)>, String> {
    let mut m = Vec::new();

    let recipe = Recipe::parse(&plan.recipe).map_err(|e| e.to_string())?;
    let t = Instant::now();
    std::hint::black_box(recipe.expand());
    let expand_s = t.elapsed().as_secs_f64();

    fresh_dir(dir)?;
    let cold = campaign_pass(plan, dir)?;
    checker.check("campaign", &cold.pass, campaign_reference);
    let file_bytes = |name: &str| std::fs::metadata(dir.join(name)).map_or(0, |md| md.len());
    let manifest_bytes = file_bytes("manifest.jsonl");
    let artifact_bytes = file_bytes("artifact.json");
    let resumed = campaign_pass(plan, dir)?;
    checker.check("campaign resume", &resumed.pass, campaign_reference);
    if resumed.restored != plan.cells.len() {
        checker.failures.push(format!(
            "campaign resume: restored {} of {} cells",
            resumed.restored,
            plan.cells.len()
        ));
    }

    let clock = Clock::calibrate(CLOCK_CALIBRATION_CALLS);
    let ledger = Arc::new(Mutex::new(Ledger::default()));
    let traced = direct_pass(plan, Drive::Traced(&ledger));
    checker.check("traced", &traced, reference);
    let (mitigation_stats, streams) = {
        let ledger = ledger.lock().expect("ledger poisoned");
        (ledger.mitigation, ledger.next_request)
    };

    let mut encode_s = 0.0;
    let mut decode_s = 0.0;
    for (i, cell) in traced.cells.iter().enumerate() {
        let Ok(cell) = cell else { continue };
        let t = Instant::now();
        let text = report_to_json(&cell.report).to_json();
        encode_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let decoded = Json::parse(&text).and_then(|j| report_from_json(&j));
        decode_s += t.elapsed().as_secs_f64();
        if decoded.as_ref() != Ok(&cell.report) {
            checker.failures.push(format!(
                "report JSON round trip: {}: decoded report differs",
                plan.label(i)
            ));
        }
    }

    let mut oracle = OracleStats::default();
    let check = direct_pass(plan, Drive::Oracle(&mut oracle));
    checker.check("oracle check", &check, reference);

    let ph = traced.phases;
    let mut calls = 0;
    let mut recorded_ns = 0;
    let mut mitigation_self_s = 0.0;
    for (name, stats) in MITIGATION_METHODS.iter().zip(mitigation_stats) {
        calls += stats.calls;
        recorded_ns += stats.recorded_ns;
        mitigation_self_s += stats.self_s(&clock);
        m.push((format!("mitigations.{name}.calls"), stats.calls as f64));
        m.push((format!("mitigations.{name}.self_s"), stats.self_s(&clock)));
    }
    calls += streams.calls;
    recorded_ns += streams.recorded_ns;
    let workloads_self_s = streams.self_s(&clock);
    // Each timed call costs `call_ns` around the wrapped work, of which
    // `read_ns` shows up inside the recorded durations.
    let wrapped_s = (recorded_ns as f64 - calls as f64 * clock.read_ns) / 1e9;
    let memsys_self_s = ph.run_s - wrapped_s - calls as f64 * clock.call_ns / 1e9;
    let sim_self_s = memsys_self_s + mitigation_self_s + workloads_self_s;

    let reports: Vec<_> = traced.ok().map(|c| &c.report).collect();
    let sum =
        |f: &dyn Fn(&shadow_memsys::SimReport) -> u64| reports.iter().map(|r| f(r)).sum::<u64>();
    let cycles = sum(&|r| r.cycles);
    let sched_passes = sum(&|r| r.sched_passes);
    let pass_cycles = sum(&|r| r.pass_cycles);
    let acts = sum(&|r| r.commands.get("ACT"));
    let cas = sum(&|r| r.commands.get("RD") + r.commands.get("WR"));
    let busy = sum(&|r| r.channel_busy_cycles.iter().sum());
    let channel_cycles = sum(&|r| r.cycles * r.channel_busy_cycles.len() as u64);
    let untraced_cell_s = Summary::of(&passes.iter().map(Pass::cell_s).collect::<Vec<_>>())
        .expect("at least one timed pass")
        .median;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };

    let named = [
        ("memsys.run_s", ph.run_s),
        ("memsys.self_s", memsys_self_s),
        ("memsys.share", ratio(memsys_self_s, sim_self_s)),
        ("memsys.build_s", ph.system_s),
        ("memsys.sched_passes", sched_passes as f64),
        (
            "memsys.ns_per_pass",
            ratio(memsys_self_s * 1e9, sched_passes as f64),
        ),
        (
            "memsys.passes_per_kcycle",
            ratio(sched_passes as f64 * 1e3, cycles as f64),
        ),
        (
            "memsys.skipped_cycle_ratio",
            1.0 - ratio(pass_cycles as f64, cycles as f64),
        ),
        ("memsys.gate_bus_skips", sum(&|r| r.gate_bus_skips) as f64),
        (
            "memsys.gate_rank_skips",
            sum(&|r| r.gate_rank_skips.iter().sum()) as f64,
        ),
        ("memsys.acts", acts as f64),
        (
            "memsys.rfms",
            sum(&|r| r.commands.get("RFM") + r.commands.get("RFMAB") + r.commands.get("RFMSB"))
                as f64,
        ),
        (
            "memsys.commands",
            sum(&|r| r.commands.iter().map(|(_, n)| n).sum()) as f64,
        ),
        ("memsys.abo_events", sum(&|r| r.abo_events) as f64),
        (
            "memsys.abo_recovery_cycles",
            sum(&|r| r.abo_recovery_cycles) as f64,
        ),
        (
            "memsys.channel_blocked_cycles",
            sum(&|r| r.channel_blocked_cycles) as f64,
        ),
        (
            "memsys.row_hit_rate",
            (1.0 - ratio(acts as f64, cas as f64)).max(0.0),
        ),
        (
            "memsys.bus_busy_share",
            ratio(busy as f64, channel_cycles as f64),
        ),
        (
            "rh.flips",
            reports.iter().map(|r| r.total_flips()).sum::<usize>() as f64,
        ),
        ("mitigations.build_s", ph.mitigation_s),
        ("mitigations.self_s", mitigation_self_s),
        ("mitigations.share", ratio(mitigation_self_s, sim_self_s)),
        ("workloads.build_s", ph.streams_s),
        ("workloads.next_request.calls", streams.calls as f64),
        ("workloads.self_s", workloads_self_s),
        ("workloads.share", ratio(workloads_self_s, sim_self_s)),
        ("campaign.parse_s", cold.phases.parse_s),
        ("campaign.expand_s", expand_s),
        ("campaign.start_s", cold.phases.start_s),
        ("campaign.cell_overhead_s", cold.phases.cell_overhead_s),
        ("campaign.finish_s", cold.phases.finish_s),
        ("campaign.resume_s", resumed.pass.wall_s),
        ("campaign.manifest_bytes", manifest_bytes as f64),
        ("campaign.artifact_bytes", artifact_bytes as f64),
        ("bench.report_encode_s", encode_s),
        ("bench.report_decode_s", decode_s),
        ("conformance.replay_s", oracle.replay_s),
        ("conformance.records", oracle.records as f64),
        ("conformance.violations", oracle.violations as f64),
        (
            "trace.overhead_ratio",
            ratio(traced.cell_s(), untraced_cell_s),
        ),
        ("trace.clock_cost_ns", clock.call_ns),
    ];
    m.extend(named.into_iter().map(|(n, v)| (n.to_string(), v)));
    Ok(m)
}
