//! One pass over a workload's cells, built directly from the public crate
//! functions or handed to the campaign engine.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use shadow_bench::runner::SweepEvent;
use shadow_bench::{build_mitigation, panic_message, try_workload, Scheme};
use shadow_campaign::{
    run_campaign, sink_for, CampaignEvent, CampaignOptions, CampaignSink, CellStatus, Recipe,
};
use shadow_conformance::oracle_for;
use shadow_memsys::{MemSystem, SimReport};
use shadow_workloads::RequestStream;

use crate::trace::{SharedLedger, TimedMitigation, TimedStream};
use crate::workload::Plan;

/// Command-trace depth of the oracle check pass: deep enough that no
/// cell's trace drops a record.
const ORACLE_TRACE_DEPTH: usize = 1 << 22;

/// One completed cell.
#[derive(Debug, Clone)]
pub struct CellTiming {
    /// The simulation outcome.
    pub report: SimReport,
    /// Seconds the cell's completed requests are charged to: `run_checked`
    /// when driven directly, the campaign's `CellRecord::wall_secs`
    /// (`MemSystem::try_new` + `run_checked`) otherwise.
    pub sim_s: f64,
    /// `MemSystem::try_new` + `run_checked`, in seconds: the span both
    /// drives can time, used to compare a traced pass with an untraced one.
    pub cell_s: f64,
}

/// Summed set-up and simulation phases of a directly driven pass.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Phases {
    /// `try_workload`.
    pub streams_s: f64,
    /// `build_mitigation`.
    pub mitigation_s: f64,
    /// `MemSystem::try_new`.
    pub system_s: f64,
    /// `MemSystem::run_checked`.
    pub run_s: f64,
}

/// One pass over every cell of a plan.
#[derive(Debug, Clone)]
pub struct Pass {
    /// Host seconds from the first cell's set-up to the last cell's end.
    pub wall_s: f64,
    /// Host seconds of set-up: the [`Phases`] before `run_checked` when
    /// driven directly; `wall_s` less every cell's `wall_secs` through the
    /// campaign engine.
    pub setup_s: f64,
    /// Per-phase sums (zero through the campaign engine, which does not
    /// expose them).
    pub phases: Phases,
    /// Per cell, in cell order: its timing, or why it failed.
    pub cells: Vec<Result<CellTiming, String>>,
}

impl Pass {
    /// Simulated cycles across the completed cells.
    pub fn cycles(&self) -> u64 {
        self.ok().map(|c| c.report.cycles).sum()
    }

    /// Summed [`CellTiming::cell_s`] of the completed cells.
    pub fn cell_s(&self) -> f64 {
        self.ok().map(|c| c.cell_s).sum()
    }

    /// The completed cells.
    pub fn ok(&self) -> impl Iterator<Item = &CellTiming> {
        self.cells.iter().filter_map(|c| c.as_ref().ok())
    }
}

/// Conformance totals of an oracle check pass.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OracleStats {
    /// Seconds in `TimingOracle::replay`.
    pub replay_s: f64,
    /// Command records replayed.
    pub records: u64,
    /// Violations found.
    pub violations: u64,
}

/// How a direct pass treats each cell.
#[derive(Debug)]
pub enum Drive<'a> {
    /// Build and run, nothing else.
    Plain,
    /// Wrap the streams and the mitigation in timing wrappers that report
    /// into the ledger.
    Traced(&'a SharedLedger),
    /// Record the command trace and replay it through the JEDEC timing
    /// oracle; a violation or a truncated trace fails the cell.
    Oracle(&'a mut OracleStats),
}

/// Runs every cell of `plan` directly, one after another.
pub fn direct_pass(plan: &Plan, mut drive: Drive) -> Pass {
    let mut phases = Phases::default();
    let start = Instant::now();
    let cells = plan
        .cells
        .iter()
        .map(|cc| {
            let (cfg, stream, scheme) = &cc.cell;
            let seed = plan.stream_seed(stream);
            catch_unwind(AssertUnwindSafe(|| {
                direct_cell(*cfg, stream, *scheme, seed, &mut drive, &mut phases)
            }))
            .unwrap_or_else(|payload| Err(format!("panicked: {}", panic_message(&*payload))))
        })
        .collect();
    Pass {
        wall_s: start.elapsed().as_secs_f64(),
        setup_s: phases.streams_s + phases.mitigation_s + phases.system_s,
        phases,
        cells,
    }
}

fn direct_cell(
    mut cfg: shadow_memsys::SystemConfig,
    stream: &str,
    scheme: Scheme,
    seed: u64,
    drive: &mut Drive,
    phases: &mut Phases,
) -> Result<CellTiming, String> {
    if matches!(drive, Drive::Oracle(_)) {
        cfg.trace_depth = ORACLE_TRACE_DEPTH;
    }
    let t = Instant::now();
    let mut streams = try_workload(stream, &cfg, seed).map_err(|e| e.to_string())?;
    phases.streams_s += t.elapsed().as_secs_f64();
    let t = Instant::now();
    let mut mitigation = build_mitigation(scheme, &cfg);
    phases.mitigation_s += t.elapsed().as_secs_f64();
    if let Drive::Traced(ledger) = drive {
        streams = streams
            .into_iter()
            .map(|s| Box::new(TimedStream::new(s, Arc::clone(ledger))) as Box<dyn RequestStream>)
            .collect();
        mitigation = Box::new(TimedMitigation::new(mitigation, Arc::clone(ledger)));
    }
    let t = Instant::now();
    let mut sys = MemSystem::try_new(cfg, streams, mitigation).map_err(|e| e.to_string())?;
    let system_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let report = sys.run_checked().map_err(|e| e.to_string())?;
    let run_s = t.elapsed().as_secs_f64();
    phases.system_s += system_s;
    phases.run_s += run_s;
    if let Drive::Oracle(stats) = drive {
        let trace = sys.device().trace().ok_or("the command trace is off")?;
        if !trace.is_complete() {
            return Err(format!("command trace dropped {} records", trace.dropped()));
        }
        // `Filtered` suppresses RAA counting for unwatched rows, so exact
        // overflow accounting holds only for the unfiltered schemes.
        let oracle = oracle_for(&sys, &cfg, scheme != Scheme::ShadowFiltered);
        let records = sys.take_trace().ok_or("the command trace is off")?;
        let t = Instant::now();
        let violations = oracle.replay(&records);
        stats.replay_s += t.elapsed().as_secs_f64();
        stats.records += records.len() as u64;
        stats.violations += violations.len() as u64;
        if let Some(first) = violations.first() {
            return Err(format!(
                "{} timing violation(s); first: {first}",
                violations.len()
            ));
        }
    }
    Ok(CellTiming {
        report,
        sim_s: run_s,
        cell_s: system_s + run_s,
    })
}

/// Host seconds of the campaign engine's phases, from its event stream.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CampaignPhases {
    /// `Recipe::parse`.
    pub parse_s: f64,
    /// `run_campaign` call to its `Started` event: manifest load and
    /// appender set-up.
    pub start_s: f64,
    /// `Started` to the last cell's `CellFinished`, less every cell's
    /// `wall_secs`: stream and mitigation builds, isolation and retry
    /// bookkeeping, and checkpoint appends.
    pub cell_overhead_s: f64,
    /// Last `CellFinished` to `run_campaign`'s return: digest and artifact.
    pub finish_s: f64,
}

/// A pass through `run_campaign`.
#[derive(Debug, Clone)]
pub struct CampaignPass {
    /// The pass, cell by cell.
    pub pass: Pass,
    /// Cells the engine restored from the manifest.
    pub restored: usize,
    /// Where the pass's time went.
    pub phases: CampaignPhases,
}

#[derive(Debug, Clone, Copy)]
enum Stamp {
    Started,
    CellFinished,
}

/// Parses `plan`'s recipe and runs it through `run_campaign`, with the
/// manifest, artifact and event stream in `dir`. An existing manifest in
/// `dir` is resumed from.
///
/// # Errors
///
/// The recipe failed to parse or the engine could not write to `dir`.
pub fn campaign_pass(plan: &Plan, dir: &Path) -> Result<CampaignPass, String> {
    let opts = CampaignOptions {
        base_dir: Some(dir.to_path_buf()),
        ..CampaignOptions::default()
    };
    let start = Instant::now();
    let recipe = Recipe::parse(&plan.recipe).map_err(|e| e.to_string())?;
    let parse_s = start.elapsed().as_secs_f64();
    let events = sink_for(&recipe.reporting.events, Some(dir)).map_err(|e| e.to_string())?;
    let stamps: Arc<Mutex<Vec<(Instant, Stamp)>>> = Arc::default();
    let sink: CampaignSink = {
        let stamps = Arc::clone(&stamps);
        Arc::new(move |ev: &CampaignEvent| {
            let stamp = match ev {
                CampaignEvent::Started { .. } => Some(Stamp::Started),
                CampaignEvent::Sweep(SweepEvent::CellFinished { .. }) => Some(Stamp::CellFinished),
                _ => None,
            };
            if let Some(stamp) = stamp {
                stamps
                    .lock()
                    .expect("stamp log poisoned")
                    .push((Instant::now(), stamp));
            }
            events(ev);
        })
    };
    let called = Instant::now();
    let report = run_campaign(&recipe, &opts, &sink).map_err(|e| e.to_string())?;
    let returned = Instant::now();
    let wall_s = (returned - start).as_secs_f64();

    let cells: Vec<Result<CellTiming, String>> = report
        .cells
        .iter()
        .map(|rec| match (&rec.status, &rec.result) {
            (CellStatus::Ok { .. }, Some(r)) => Ok(CellTiming {
                report: r.report.clone(),
                sim_s: r.wall_secs,
                cell_s: r.wall_secs,
            }),
            (CellStatus::Quarantined { error, .. } | CellStatus::Invalid { error }, _) => {
                Err(format!("{}: {error}", rec.status.label()))
            }
            (status, _) => Err(status.label().to_string()),
        })
        .collect();
    let cell_wall_s: f64 = cells.iter().flatten().map(|c| c.cell_s).sum();

    let stamps = stamps.lock().expect("stamp log poisoned");
    let started = stamps
        .iter()
        .find(|(_, s)| matches!(s, Stamp::Started))
        .map_or(called, |(t, _)| *t);
    let last_cell = stamps
        .iter()
        .rev()
        .find(|(_, s)| matches!(s, Stamp::CellFinished))
        .map_or(started, |(t, _)| *t);
    let phases = CampaignPhases {
        parse_s,
        start_s: (started - called).as_secs_f64(),
        cell_overhead_s: (last_cell - started).as_secs_f64() - cell_wall_s,
        finish_s: (returned - last_cell).as_secs_f64(),
    };
    Ok(CampaignPass {
        pass: Pass {
            wall_s,
            setup_s: wall_s - cell_wall_s,
            phases: Phases::default(),
            cells,
        },
        restored: report.summary.restored,
        phases,
    })
}
