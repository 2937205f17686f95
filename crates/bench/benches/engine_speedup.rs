//! Engine-speedup measurement: quantifies (and records as
//! `BENCH_engine.json` at the workspace root) what the fast-path work
//! buys, on a fig8-shaped sweep slice:
//!
//! 1. **engine fast paths** — serial sweep on the reference engine
//!    ([`run_uncached`]: remap-epoch cache defeated, full-bank scan and
//!    frontier recompute forced, eager Row Hammer ledger — i.e. the
//!    pre-optimization data plane) vs the fast engine, identical results
//!    required;
//! 2. **parallel sweep runner** — the cached sweep on one thread vs
//!    [`scaling_threads`] workers (`SHADOW_BENCH_THREADS` override),
//!    cell-for-cell identical results required. The artifact records
//!    `host_cpus` so the scaling number carries its hardware bound.
//!
//! Parallelism lives only across cells: each simulation runs on one
//! thread (see README "Parallelism model").
//!
//! The combined speedup (uncached-serial → cached-parallel) is the
//! headline number. Tune the slice with `SHADOW_BENCH_REQS` (the CI smoke
//! run uses 2000).

use std::time::Instant;

use shadow_bench::{
    banner, engine_sweep_cells, host_cpus, request_target, run_cells_with, run_uncached,
    scaling_threads, workspace_root,
};

fn json_f(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.4}")
    } else {
        "null".to_string()
    }
}

/// Repetitions per engine measurement (`SHADOW_BENCH_REPEATS`, default 2).
/// The best (minimum) wall time of the repetitions is reported — the
/// standard low-noise estimator on shared hosts.
fn repeats() -> usize {
    std::env::var("SHADOW_BENCH_REPEATS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&r| r >= 1)
        .unwrap_or(2)
}

/// Runs `measure` `repeats()` times; returns (first run's results, best
/// wall seconds). Results are deterministic, so repetitions only differ in
/// wall time.
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

fn main() {
    banner("Engine speedup: remap-epoch translation cache + parallel sweep runner");
    let cells = engine_sweep_cells();
    let threads = scaling_threads();
    let cpus = host_cpus();
    println!(
        "sweep: {} cells ({} requests each), {} worker threads on {} host CPU(s)",
        cells.len(),
        request_target(),
        threads,
        cpus
    );

    println!("(best of {} repetitions per engine)", repeats());

    // 1. Serial on the reference engine (no translation cache, full-bank
    //    scan) — the pre-optimization cost model.
    let (uncached, uncached_secs) = best_of(|| {
        cells
            .iter()
            .map(|(cfg, w, s)| run_uncached(*cfg, w, *s))
            .collect::<Vec<_>>()
    });

    // 2. Serial, cached.
    let (serial, serial_secs) = best_of(|| run_cells_with(1, cells.clone()));

    // 3. Parallel, cached.
    let (parallel, parallel_secs) = best_of(|| run_cells_with(threads, cells.clone()));

    // Fidelity gate: the fast paths must not change a single outcome.
    for (i, (u, s)) in uncached.iter().zip(&serial).enumerate() {
        assert_eq!(
            u, &s.report,
            "cache changed outcome of cell {i} ({:?})",
            cells[i]
        );
    }
    for (i, (s, p)) in serial.iter().zip(&parallel).enumerate() {
        assert_eq!(
            s.report, p.report,
            "parallelism changed outcome of cell {i} ({:?})",
            cells[i]
        );
    }
    println!(
        "fidelity: all {} cells bit-identical across engines",
        cells.len()
    );

    let sim_cycles: u64 = serial.iter().map(|c| c.report.cycles).sum();
    let cache_speedup = uncached_secs / serial_secs;
    let thread_speedup = serial_secs / parallel_secs;
    let combined = uncached_secs / parallel_secs;
    println!("serial uncached : {uncached_secs:>8.2} s");
    println!(
        "serial cached   : {serial_secs:>8.2} s  ({cache_speedup:.2}x from engine fast paths)"
    );
    println!(
        "parallel cached : {parallel_secs:>8.2} s  ({thread_speedup:.2}x from {threads} threads)"
    );
    if cpus < threads {
        println!("(thread scaling is bounded by the {cpus} host CPU(s) — the runner oversubscribes deliberately; see the host_cpus field)");
    }
    println!("combined        : {combined:.2}x");
    println!(
        "engine throughput: {:.1} Msim-cycles/s (parallel, wall)",
        sim_cycles as f64 / parallel_secs / 1e6
    );

    // Hand-rolled JSON (the workspace carries no serde): the throughput
    // artifact reproduction runs diff against. `host_cpus` contextualizes
    // the parallel_runner number: scaling cannot exceed the host's CPU
    // count no matter how many workers the sweep spawns.
    let channels = cells[0].0.geometry.channels;
    let json = format!(
        "{{\n  \"sweep_cells\": {},\n  \"requests_per_cell\": {},\n  \"threads\": {},\n  \
         \"channels\": {},\n  \"host_cpus\": {},\n  \
         \"sim_cycles_total\": {},\n  \"wall_secs\": {{\n    \"serial_uncached\": {},\n    \
         \"serial_cached\": {},\n    \"parallel_cached\": {}\n  \
         }},\n  \"speedup\": {{\n    \
         \"engine_fast_paths\": {},\n    \"parallel_runner\": {},\n    \"combined\": {}\n  }},\n  \
         \"sim_cycles_per_sec\": {{\n    \"serial_uncached\": {},\n    \"serial_cached\": {},\n    \
         \"parallel_cached\": {}\n  }},\n  \
         \"provenance\": {},\n  \
         \"bit_identical\": true\n}}\n",
        cells.len(),
        request_target(),
        threads,
        channels,
        cpus,
        sim_cycles,
        json_f(uncached_secs),
        json_f(serial_secs),
        json_f(parallel_secs),
        json_f(cache_speedup),
        json_f(thread_speedup),
        json_f(combined),
        json_f(sim_cycles as f64 / uncached_secs),
        json_f(sim_cycles as f64 / serial_secs),
        json_f(sim_cycles as f64 / parallel_secs),
        shadow_bench::provenance_json(),
    );
    let path = workspace_root().join("BENCH_engine.json");
    match std::fs::write(&path, json) {
        Ok(()) => println!("[json] {}", path.display()),
        Err(e) => eprintln!("(artifact write failed: {e})"),
    }
}
