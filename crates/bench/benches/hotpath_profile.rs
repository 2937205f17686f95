//! Hot-path profile: measures (and records as `BENCH_hotpath.json` at the
//! workspace root) what the scheduling-engine work buys on the same
//! 12-cell fig8-shaped sweep slice `engine_speedup` uses:
//!
//! 1. **fast engine** — the default `Engine::Fast`: incremental per-bank
//!    event calendar over the memoized frontier (plus the batched PRINCE
//!    keystream and translation cache) — the headline
//!    `sim_cycles_per_sec.serial_calendar` number;
//! 2. **reference engine** — `Engine::Reference`: every runtime-switchable
//!    fast path defeated, measured **interleaved** with leg 1 rep for rep
//!    so host drift hits both sides equally — `calendar_vs_reference` is a
//!    contemporaneous A/B, not a cross-commit comparison — and required
//!    bit-identical to it;
//! 3. **phase breakdown** — with the `profiler` feature compiled in, a
//!    profiled sweep splits wall time into schedule / translate / ledger /
//!    rng / device / calendar phases and measures the profiler's own
//!    residual overhead. Phase timing is *sampled* (roughly one entry in
//!    [`SAMPLE_RATE`] reads the clock; every entry is counted) and the
//!    per-phase time is reconstructed via
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
//! Without `--features profiler` the bench still runs legs 1–2 and records
//! `"profiler_compiled": false` with a null phase table. Tune the slice
//! with `SHADOW_BENCH_REQS` (the CI smoke run uses 2000; the checked-in
//! artifact uses the default 60 000).

use std::time::Instant;

use shadow_bench::{
    banner, engine_sweep_cells, host_cpus, provenance_json, request_target, run_cells_with,
    workspace_root,
};
use shadow_memsys::Engine;
use shadow_sim::profiler::{profiler_compiled, Phase, PhaseProfile, SAMPLE_RATE};

/// PR1's recorded `sim_cycles_per_sec.serial_cached` from
/// `BENCH_engine.json` — kept for cross-PR context in the artifact. Wall
/// clock is only comparable on the same host at the same time, so
/// reproduction runs should re-measure the old engine and pass the result
/// through `SHADOW_BENCH_BASELINE_CPS`; within this binary the reference
/// leg is the A/B, so the headline comparison needs no environment at all.
const PR1_SERIAL_CACHED_CPS: f64 = 1_250_031.425_1;

/// Returns the cross-commit baseline cycles/sec plus a provenance tag for
/// the JSON artifact (`SHADOW_BENCH_BASELINE_CPS` override, else the PR1
/// artifact constant).
fn baseline_cps() -> (f64, &'static str) {
    match std::env::var("SHADOW_BENCH_BASELINE_CPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&c: &f64| c > 0.0)
    {
        Some(c) => (c, "SHADOW_BENCH_BASELINE_CPS (contemporaneous re-measure)"),
        None => (PR1_SERIAL_CACHED_CPS, "PR1 BENCH_engine.json artifact"),
    }
}

/// Repetitions per measurement (`SHADOW_BENCH_REPEATS`, default 2); the
/// best (minimum) wall time is reported, as in `engine_speedup`.
fn repeats() -> usize {
    std::env::var("SHADOW_BENCH_REPEATS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&r| r >= 1)
        .unwrap_or(2)
}

fn best_of<T>(mut measure: impl FnMut() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = measure();
    let mut best = t0.elapsed().as_secs_f64();
    for _ in 1..repeats() {
        let t0 = Instant::now();
        let _ = measure();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    (out, best)
}

/// Interleaved A/B: alternates one timed rep of `a` and one of `b` per
/// round so thermal ramps, frequency steps, and background load land on
/// both sides; returns each side's outputs and best (minimum) wall time.
fn best_of_ab<T>(mut a: impl FnMut() -> T, mut b: impl FnMut() -> T) -> ((T, f64), (T, f64)) {
    let t0 = Instant::now();
    let out_a = a();
    let mut best_a = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let out_b = b();
    let mut best_b = t0.elapsed().as_secs_f64();
    for _ in 1..repeats() {
        let t0 = Instant::now();
        let _ = a();
        best_a = best_a.min(t0.elapsed().as_secs_f64());
        let t0 = Instant::now();
        let _ = b();
        best_b = best_b.min(t0.elapsed().as_secs_f64());
    }
    ((out_a, best_a), (out_b, best_b))
}

fn json_f(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.4}")
    } else {
        "null".to_string()
    }
}

fn main() {
    banner("Hot-path profile: fast engine vs reference engine");
    let cells = engine_sweep_cells();
    println!(
        "sweep: {} cells ({} requests each), serial, {} host CPU(s), profiler {}",
        cells.len(),
        request_target(),
        host_cpus(),
        if profiler_compiled() {
            "compiled"
        } else {
            "not compiled (build with --features profiler for the phase table)"
        }
    );
    println!("(best of {} interleaved repetitions per engine)", repeats());

    let reference_cells: Vec<_> = cells
        .iter()
        .cloned()
        .map(|(mut cfg, w, s)| {
            cfg.engine = Engine::Reference;
            (cfg, w, s)
        })
        .collect();

    // Warm-up: one cell outside any measurement, so process start-up
    // (page-in, CPU governor ramp) lands on nobody's clock even at
    // `SHADOW_BENCH_REPEATS=1`.
    let _ = run_cells_with(1, vec![cells[0].clone()]);

    // 1+2. Fast vs reference engine, interleaved rep for rep.
    let ((calendar, calendar_secs), (reference, reference_secs)) = best_of_ab(
        || run_cells_with(1, cells.clone()),
        || run_cells_with(1, reference_cells.clone()),
    );

    // Fidelity gate: the engines must not change a single outcome.
    for (i, (c, r)) in calendar.iter().zip(&reference).enumerate() {
        assert_eq!(
            c.report, r.report,
            "fast path changed outcome of cell {i} ({:?})",
            cells[i]
        );
    }
    println!(
        "fidelity: all {} cells bit-identical across fast and reference",
        cells.len()
    );

    // 3. Profiled fast sweep (feature-gated): phase breakdown plus the
    //    profiler's own overhead.
    let mut profiled_secs = None;
    let mut phases: Option<PhaseProfile> = None;
    if profiler_compiled() {
        let profiled_cells: Vec<_> = cells
            .iter()
            .cloned()
            .map(|(mut cfg, w, s)| {
                cfg.profile = true;
                (cfg, w, s)
            })
            .collect();
        let (profiled, secs) = best_of(|| run_cells_with(1, profiled_cells.clone()));
        for (i, (p, f)) in profiled.iter().zip(&calendar).enumerate() {
            assert_eq!(
                p.report, f.report,
                "profiling changed outcome of cell {i} ({:?})",
                cells[i]
            );
        }
        println!("fidelity: profiled sweep bit-identical to unprofiled");
        let mut merged = PhaseProfile::new();
        for c in &profiled {
            merged.merge(c.report.profile.as_ref().expect("profiled run"));
        }
        profiled_secs = Some(secs);
        phases = Some(merged);
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
    let (baseline, baseline_source) = baseline_cps();
    println!("serial reference : {reference_secs:>8.2} s  ({reference_cps:>12.1} cycles/s)");
    println!("fast (calendar)  : {calendar_secs:>8.2} s  ({calendar_cps:>12.1} cycles/s)");
    println!(
        "speedup          : {:.2}x vs reference (interleaved A/B), {:.2}x vs PR1 \
         serial_cached ({baseline:.1} cycles/s)",
        reference_secs / calendar_secs,
        calendar_cps / baseline
    );
    println!(
        "engine work      : {passes_per_kcycle:.2} passes/kilocycle, \
         {:.1}% of simulated cycles skipped entirely",
        skipped_ratio * 100.0
    );
    println!(
        "hoisted gates    : {gate_rank_skips_total} bank visits skipped by the rank gate, \
         {gate_bus_skips} passes skipped by the bus gate"
    );
    if let (Some(secs), Some(p)) = (profiled_secs, &phases) {
        let overhead = (secs / calendar_secs - 1.0) * 100.0;
        let timed_total: u64 = Phase::ALL.iter().map(|&ph| p.timed(ph)).sum();
        let hits_total: u64 = Phase::ALL.iter().map(|&ph| p.hits(ph)).sum();
        println!(
            "profiler         : {overhead:.1}% residual wall overhead, 1-in-{SAMPLE_RATE} \
             nominal sampling ({timed_total} of {hits_total} entries timed)"
        );
        let total = p.total_estimated_nanos().max(1);
        println!(
            "phase breakdown (sampled time scaled to estimates; schedule is gross and \
             contains the sub-phases):"
        );
        for ph in Phase::ALL {
            println!(
                "  {:<9} {:>10.3} s  {:>5.1}%  ({} hits, {} timed)",
                ph.name(),
                p.estimated_nanos(ph) as f64 / 1e9,
                p.estimated_nanos(ph) as f64 * 100.0 / total as f64,
                p.hits(ph),
                p.timed(ph)
            );
        }
    }

    // Hand-rolled JSON artifact (the workspace carries no serde).
    let phase_json = match &phases {
        Some(p) => {
            let total = p.total_estimated_nanos().max(1);
            let rows: Vec<String> = Phase::ALL
                .iter()
                .map(|&ph| {
                    format!(
                        "    \"{}\": {{ \"sampled_nanos\": {}, \"estimated_nanos\": {}, \
                         \"hits\": {}, \"timed\": {}, \"share\": {} }}",
                        ph.name(),
                        p.nanos(ph),
                        p.estimated_nanos(ph),
                        p.hits(ph),
                        p.timed(ph),
                        json_f(p.estimated_nanos(ph) as f64 / total as f64)
                    )
                })
                .collect();
            format!("{{\n{}\n  }}", rows.join(",\n"))
        }
        None => "null".to_string(),
    };
    let sampling_json = match &phases {
        Some(p) => {
            let timed: u64 = Phase::ALL.iter().map(|&ph| p.timed(ph)).sum();
            let hits: u64 = Phase::ALL.iter().map(|&ph| p.hits(ph)).sum();
            format!(
                "{{ \"nominal_rate\": {SAMPLE_RATE}, \"entries\": {hits}, \
                 \"timed_entries\": {timed}, \"realized_rate\": {} }}",
                json_f(hits as f64 / timed.max(1) as f64)
            )
        }
        None => "null".to_string(),
    };
    let gate_rank_json = gate_rank_skips
        .iter()
        .map(u64::to_string)
        .collect::<Vec<_>>()
        .join(", ");
    let json = format!(
        "{{\n  \"sweep_cells\": {},\n  \"requests_per_cell\": {},\n  \"host_cpus\": {},\n  \
         \"profiler_compiled\": {},\n  \"sim_cycles_total\": {},\n  \"wall_secs\": {{\n    \
         \"serial_reference\": {},\n    \
         \"serial_calendar\": {},\n    \"serial_calendar_profiled\": {}\n  \
         }},\n  \"sim_cycles_per_sec\": {{\n    \"serial_reference\": {},\n    \
         \"serial_calendar\": {}\n  \
         }},\n  \"sched\": {{\n    \"passes\": {},\n    \"pass_cycles\": {},\n    \
         \"passes_per_kilocycle\": {},\n    \"skipped_cycle_ratio\": {},\n    \
         \"gate_rank_skips\": [{}],\n    \"gate_rank_skips_total\": {},\n    \
         \"gate_bus_skips\": {}\n  \
         }},\n  \"baseline\": {{ \"name\": \"pr1_serial_cached\", \"cycles_per_sec\": {}, \
         \"source\": \"{}\" }},\n  \
         \"speedup\": {{\n    \
         \"calendar_vs_reference\": {},\n    \"calendar_vs_pr1_serial_cached\": {}\n  \
         }},\n  \
         \"profiler_overhead_pct\": {},\n  \"sampling\": {},\n  \"phases\": {},\n  \
         \"provenance\": {},\n  \
         \"bit_identical\": true\n}}\n",
        cells.len(),
        request_target(),
        host_cpus(),
        profiler_compiled(),
        sim_cycles,
        json_f(reference_secs),
        json_f(calendar_secs),
        profiled_secs.map_or("null".to_string(), json_f),
        json_f(reference_cps),
        json_f(calendar_cps),
        sched_passes,
        pass_cycles,
        json_f(passes_per_kcycle),
        json_f(skipped_ratio),
        gate_rank_json,
        gate_rank_skips_total,
        gate_bus_skips,
        json_f(baseline),
        baseline_source,
        json_f(reference_secs / calendar_secs),
        json_f(calendar_cps / baseline),
        profiled_secs.map_or("null".to_string(), |s| {
            json_f((s / calendar_secs - 1.0) * 100.0)
        }),
        sampling_json,
        phase_json,
        provenance_json(),
    );
    let path = workspace_root().join("BENCH_hotpath.json");
    match std::fs::write(&path, json) {
        Ok(()) => println!("[json] {}", path.display()),
        Err(e) => eprintln!("(artifact write failed: {e})"),
    }
}
