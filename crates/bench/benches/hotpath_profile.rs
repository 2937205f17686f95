//! Hot-path profile: measures (and records as
//! `target/bench-results/hotpath_profile.json`) what the scheduling-engine
//! work buys on the 12-cell fig8-shaped sweep slice [`engine_sweep_cells`],
//! in three legs timed **interleaved** rep for rep, so host drift hits
//! every leg equally and each comparison is a contemporaneous A/B, not a
//! cross-commit one:
//!
//! 1. **fast engine** — the default `Engine::Fast`: incremental per-bank
//!    event calendar over the memoized frontier (plus the batched PRINCE
//!    keystream and translation cache) — the headline
//!    `sim_cycles_per_sec.serial_calendar` number;
//! 2. **reference engine** — `Engine::Reference`: every runtime-switchable
//!    fast path defeated, required bit-identical to leg 1
//!    (`speedup.calendar_vs_reference`);
//! 3. **phase breakdown** — the fast sweep again with
//!    `SystemConfig::profile` set, which splits wall time into schedule /
//!    translate / ledger / rng / device / calendar phases; its wall time
//!    against leg 1 is the profiler's own residual overhead. Phase timing
//!    is *sampled* (roughly one entry in [`SAMPLE_RATE`] reads the clock;
//!    every entry is counted) and the per-phase time is reconstructed via
//!    [`PhaseProfile::estimated_nanos`]; the artifact records the nominal
//!    rate and the realized timed/hit counts next to the shares they
//!    scale. The profiled run must still compare equal to the unprofiled
//!    one (`SimReport` equality ignores the profile).
//!
//! The fast leg also records the engine's work-avoidance counters:
//! scheduling passes per simulated kilocycle, the skipped-cycle ratio
//! (fraction of simulated cycles no pass examined at all), and the
//! hoisted-gate skip counters (bank visits short-circuited by the
//! per-pass rank gate, passes short-circuited by the channel bus gate).
//!
//! Takes `-- [--requests N] [--oracle]`: `--requests` sizes the slice
//! (the CI smoke run uses 2000; the default is 60 000), and `--oracle`
//! replays every cell of every leg through the protocol oracle.

use std::time::Instant;

use shadow_bench::json::Json;
use shadow_bench::{
    banner, engine_sweep_cells, host_cpus, provenance_json, try_timed_run, workspace_root,
    BenchArgs, Cell, CellResult, RunOptions,
};
use shadow_memsys::Engine;
use shadow_sim::profiler::{Phase, PhaseProfile, SAMPLE_RATE};

/// Interleaved rounds per leg; each leg reports its best (minimum) wall
/// time — the standard low-noise estimator on shared hosts.
const REPEATS: usize = 2;

/// One serial, wall-clock-timed run of `cells`.
fn timed_sweep(cells: &[Cell], opts: RunOptions) -> (Vec<CellResult>, f64) {
    let t0 = Instant::now();
    let out = cells
        .iter()
        .map(|(cfg, w, s)| try_timed_run(*cfg, w, *s, opts).unwrap_or_else(|e| panic!("{w}: {e}")))
        .collect();
    (out, t0.elapsed().as_secs_f64())
}

/// Runs every leg once per round, in turn, for [`REPEATS`] rounds; returns
/// each leg's outputs and best wall time. Outputs are deterministic, so
/// the rounds differ only in wall time.
fn best_of_interleaved<const N: usize>(
    legs: [&[Cell]; N],
    opts: RunOptions,
) -> [(Vec<CellResult>, f64); N] {
    let mut best = legs.map(|leg| timed_sweep(leg, opts));
    for _ in 1..REPEATS {
        for (leg, b) in legs.iter().zip(&mut best) {
            b.1 = b.1.min(timed_sweep(leg, opts).1);
        }
    }
    best
}

/// `cells` with `edit` applied to every config.
fn with_cfg(cells: &[Cell], edit: impl Fn(&mut shadow_memsys::SystemConfig)) -> Vec<Cell> {
    cells
        .iter()
        .cloned()
        .map(|(mut cfg, w, s)| {
            edit(&mut cfg);
            (cfg, w, s)
        })
        .collect()
}

/// A finite number, else `null` (JSON has no NaN or infinity).
fn num(v: f64) -> Json {
    if v.is_finite() {
        Json::f64(v)
    } else {
        Json::Null
    }
}

/// An object from `(key, value)` pairs, in order.
fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

fn main() {
    banner("Hot-path profile: fast engine vs reference engine");
    let args = BenchArgs::from_args("hotpath_profile", &["--requests", "--oracle"]);
    let opts = RunOptions {
        oracle: args.oracle,
        ..RunOptions::default()
    };
    let cells = engine_sweep_cells(args.requests());
    println!(
        "sweep: {} cells ({} requests each), serial, {} host CPU(s)",
        cells.len(),
        args.requests(),
        host_cpus(),
    );
    println!("(best of {REPEATS} interleaved repetitions per leg)");

    let reference_cells = with_cfg(&cells, |cfg| cfg.engine = Engine::Reference);
    let profiled_cells = with_cfg(&cells, |cfg| cfg.profile = true);

    // Warm-up: one cell outside any measurement, so process start-up
    // (page-in, CPU governor ramp) lands on nobody's clock.
    let _ = timed_sweep(&cells[..1], opts);

    let [(calendar, calendar_secs), (reference, reference_secs), (profiled, profiled_secs)] =
        best_of_interleaved([&cells, &reference_cells, &profiled_cells], opts);

    // Fidelity gates: neither the engine nor the profiler may change a
    // single outcome.
    for (i, ((c, r), p)) in calendar.iter().zip(&reference).zip(&profiled).enumerate() {
        assert_eq!(
            c.report, r.report,
            "fast path changed outcome of cell {i} ({:?})",
            cells[i]
        );
        assert_eq!(
            p.report, c.report,
            "profiling changed outcome of cell {i} ({:?})",
            cells[i]
        );
    }
    println!(
        "fidelity: all {} cells bit-identical across fast, reference and profiled",
        cells.len()
    );
    let mut phases = PhaseProfile::new();
    for c in &profiled {
        phases.merge(c.report.profile.as_ref().expect("profiled run"));
    }

    let sim_cycles: u64 = calendar.iter().map(|c| c.report.cycles).sum();
    let sched_passes: u64 = calendar.iter().map(|c| c.report.sched_passes).sum();
    let pass_cycles: u64 = calendar.iter().map(|c| c.report.pass_cycles).sum();
    // Hoisted-gate skip counters, element-wise across cells (every gate
    // cell runs the same ddr4 geometry, so the per-rank vectors align).
    let mut gate_rank_skips: Vec<u64> = Vec::new();
    let mut gate_bus_skips: u64 = 0;
    for c in &calendar {
        if gate_rank_skips.len() < c.report.gate_rank_skips.len() {
            gate_rank_skips.resize(c.report.gate_rank_skips.len(), 0);
        }
        for (acc, &s) in gate_rank_skips.iter_mut().zip(&c.report.gate_rank_skips) {
            *acc += s;
        }
        gate_bus_skips += c.report.gate_bus_skips;
    }
    let gate_rank_skips_total: u64 = gate_rank_skips.iter().sum();
    let passes_per_kcycle = sched_passes as f64 * 1000.0 / sim_cycles.max(1) as f64;
    let skipped_ratio = 1.0 - pass_cycles as f64 / sim_cycles.max(1) as f64;
    let calendar_cps = sim_cycles as f64 / calendar_secs;
    let reference_cps = sim_cycles as f64 / reference_secs;
    let speedup = reference_secs / calendar_secs;
    let overhead = (profiled_secs / calendar_secs - 1.0) * 100.0;
    let timed_total: u64 = Phase::ALL.iter().map(|&ph| phases.timed(ph)).sum();
    let hits_total: u64 = Phase::ALL.iter().map(|&ph| phases.hits(ph)).sum();
    let total = phases.total_estimated_nanos().max(1);
    let share = |ph: Phase| phases.estimated_nanos(ph) as f64 / total as f64;

    println!("serial reference : {reference_secs:>8.2} s  ({reference_cps:>12.1} cycles/s)");
    println!("fast (calendar)  : {calendar_secs:>8.2} s  ({calendar_cps:>12.1} cycles/s)");
    println!("speedup          : {speedup:.2}x vs reference (interleaved A/B)");
    println!(
        "engine work      : {passes_per_kcycle:.2} passes/kilocycle, \
         {:.1}% of simulated cycles skipped entirely",
        skipped_ratio * 100.0
    );
    println!(
        "hoisted gates    : {gate_rank_skips_total} bank visits skipped by the rank gate, \
         {gate_bus_skips} passes skipped by the bus gate"
    );
    println!(
        "profiler         : {overhead:.1}% residual wall overhead, 1-in-{SAMPLE_RATE} \
         nominal sampling ({timed_total} of {hits_total} entries timed)"
    );
    println!(
        "phase breakdown (sampled time scaled to estimates; schedule is gross and \
         contains the sub-phases):"
    );
    for ph in Phase::ALL {
        println!(
            "  {:<9} {:>10.3} s  {:>5.1}%  ({} hits, {} timed)",
            ph.name(),
            phases.estimated_nanos(ph) as f64 / 1e9,
            share(ph) * 100.0,
            phases.hits(ph),
            phases.timed(ph)
        );
    }

    let phase_json = Phase::ALL
        .iter()
        .map(|&ph| {
            let row = obj(vec![
                ("sampled_nanos", Json::u64(phases.nanos(ph))),
                ("estimated_nanos", Json::u64(phases.estimated_nanos(ph))),
                ("hits", Json::u64(phases.hits(ph))),
                ("timed", Json::u64(phases.timed(ph))),
                ("share", num(share(ph))),
            ]);
            (ph.name(), row)
        })
        .collect();
    let provenance = Json::parse(&provenance_json()).expect("provenance block is valid JSON");
    let doc = obj(vec![
        ("sweep_cells", Json::u64(cells.len() as u64)),
        ("requests_per_cell", Json::u64(args.requests())),
        ("host_cpus", Json::u64(host_cpus() as u64)),
        ("sim_cycles_total", Json::u64(sim_cycles)),
        (
            "wall_secs",
            obj(vec![
                ("serial_reference", num(reference_secs)),
                ("serial_calendar", num(calendar_secs)),
                ("serial_calendar_profiled", num(profiled_secs)),
            ]),
        ),
        (
            "sim_cycles_per_sec",
            obj(vec![
                ("serial_reference", num(reference_cps)),
                ("serial_calendar", num(calendar_cps)),
            ]),
        ),
        (
            "sched",
            obj(vec![
                ("passes", Json::u64(sched_passes)),
                ("pass_cycles", Json::u64(pass_cycles)),
                ("passes_per_kilocycle", num(passes_per_kcycle)),
                ("skipped_cycle_ratio", num(skipped_ratio)),
                (
                    "gate_rank_skips",
                    Json::Arr(gate_rank_skips.iter().map(|&s| Json::u64(s)).collect()),
                ),
                ("gate_rank_skips_total", Json::u64(gate_rank_skips_total)),
                ("gate_bus_skips", Json::u64(gate_bus_skips)),
            ]),
        ),
        (
            "speedup",
            obj(vec![("calendar_vs_reference", num(speedup))]),
        ),
        ("profiler_overhead_pct", num(overhead)),
        (
            "sampling",
            obj(vec![
                ("nominal_rate", Json::u64(SAMPLE_RATE)),
                ("entries", Json::u64(hits_total)),
                ("timed_entries", Json::u64(timed_total)),
                (
                    "realized_rate",
                    num(hits_total as f64 / timed_total.max(1) as f64),
                ),
            ]),
        ),
        ("phases", obj(phase_json)),
        ("provenance", provenance),
        ("bit_identical", Json::Bool(true)),
    ]);
    let dir = workspace_root().join("target/bench-results");
    let path = dir.join("hotpath_profile.json");
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, doc.to_json() + "\n")) {
        Ok(()) => println!("[json] {}", path.display()),
        Err(e) => eprintln!("(artifact write failed: {e})"),
    }
}
