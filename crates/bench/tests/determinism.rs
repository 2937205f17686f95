//! Fidelity gates for the engine fast paths.
//!
//! The remap-epoch translation cache, the O(active-bank) scheduler, the
//! memoized frontier, the lazy Row Hammer ledger, and the parallel sweep
//! runner are pure performance work: none may change a single simulated
//! outcome. These tests pin that, field for field, against the reference
//! engine ([`run_uncached`]: translate-every-time, the original full-bank
//! scan with per-bank frontier recompute, the linear FR-FCFS walk, and
//! the eager ledger) on runs
//! where the fast paths are actually exercised — SHADOW and RRS remap
//! rows *mid-run*, so a stale cache entry would steer FR-FCFS at the
//! first shuffle or swap.

use shadow_bench::{run, run_cells_with, run_uncached, Cell, Scheme};
use shadow_memsys::{Engine, MemSystem, SystemConfig};

fn small_cfg() -> SystemConfig {
    let mut cfg = SystemConfig::tiny();
    cfg.target_requests = 3_000;
    cfg
}

/// Cached translation must equal translate-every-time for SHADOW, whose
/// RFM shuffles remap two rows per bank mid-run.
#[test]
fn cached_translation_matches_reference_shadow() {
    let cached = run(small_cfg(), "random-stream", Scheme::Shadow);
    let reference = run_uncached(small_cfg(), "random-stream", Scheme::Shadow);
    assert!(
        cached.commands.get("RFM") > 0,
        "run too small: no RFMs, so no shuffles exercised the cache"
    );
    assert_eq!(
        cached, reference,
        "translation cache changed a SHADOW outcome"
    );
}

/// Same gate for RRS, whose threshold-triggered swaps rewrite the row
/// indirection table (and block the channel) mid-run.
#[test]
fn cached_translation_matches_reference_rrs() {
    let cached = run(small_cfg(), "random-stream", Scheme::Rrs);
    let reference = run_uncached(small_cfg(), "random-stream", Scheme::Rrs);
    assert!(
        cached.channel_blocked_cycles > 0,
        "run too small: no swaps fired, so no remap exercised the cache"
    );
    assert_eq!(
        cached, reference,
        "translation cache changed an RRS outcome"
    );
}

/// Static-translation schemes ride the cache at a constant epoch.
#[test]
fn cached_translation_matches_reference_static_schemes() {
    for scheme in [Scheme::Baseline, Scheme::Parfm, Scheme::BlockHammer] {
        assert_eq!(
            run(small_cfg(), "random-stream", scheme),
            run_uncached(small_cfg(), "random-stream", scheme),
            "cache changed a {} outcome",
            scheme.name()
        );
    }
}

/// The parallel sweep must equal the serial sweep cell for cell, at any
/// thread count.
#[test]
fn parallel_sweep_equals_serial() {
    let cells: Vec<Cell> = [Scheme::Baseline, Scheme::Shadow, Scheme::Rrs, Scheme::Parfm]
        .iter()
        .flat_map(|&s| {
            ["random-stream", "mix-blend"]
                .iter()
                .map(move |&w| (small_cfg(), w.to_string(), s))
        })
        .collect();
    let serial = run_cells_with(1, cells.clone());
    for threads in [2, 4] {
        let parallel = run_cells_with(threads, cells.clone());
        assert_eq!(serial.len(), parallel.len());
        for (i, (s, p)) in serial.iter().zip(&parallel).enumerate() {
            assert_eq!(
                s.report, p.report,
                "cell {i} ({:?}) diverged at {threads} threads",
                cells[i]
            );
        }
    }
}

/// The channel-sharded engine is pure performance work too: at any worker
/// count it must produce the byte-identical report *and* command trace of
/// the serial engine. Exercised on the 4-channel DDR4 config with the two
/// schemes that remap rows mid-run (a stale per-channel mitigation piece
/// or a mis-ordered merge would diverge within one tREFI) plus the
/// PRAC-era schemes, whose per-channel pieces carry live counter/tracker
/// state and whose ABO recovery drain must replay identically through the
/// sharded coordinator's record/apply split.
#[test]
fn sharded_engine_equals_serial_at_any_thread_count() {
    let mut cfg = SystemConfig::ddr4_actual_system();
    cfg.target_requests = 2_000;
    cfg.trace_depth = 1 << 20;
    for scheme in [
        Scheme::Shadow,
        Scheme::Rrs,
        Scheme::Prac,
        Scheme::Practical,
        Scheme::Dapper,
    ] {
        let run_with = |shard_threads: Option<usize>| {
            let mut cfg = cfg;
            if let Some(t) = shard_threads {
                cfg.shard_channels = true;
                cfg.shard_threads = t;
            }
            let streams = shadow_bench::workload("random-stream", &cfg, 0xACE0_000D);
            let mut sys =
                MemSystem::new(cfg, streams, shadow_bench::build_mitigation(scheme, &cfg));
            assert_eq!(sys.sharding_active(), shard_threads.is_some());
            let report = sys.run();
            (report, sys.take_trace().expect("tracing enabled"))
        };
        let (serial_report, serial_trace) = run_with(None);
        for threads in [1, 2, 4] {
            let (report, trace) = run_with(Some(threads));
            assert_eq!(
                serial_report,
                report,
                "{} report diverged at {threads} shard worker(s)",
                scheme.name()
            );
            assert_eq!(
                serial_trace,
                trace,
                "{} command trace diverged at {threads} shard worker(s)",
                scheme.name()
            );
        }
    }
}

/// The fast engine (the default) is pure performance work: its event
/// calendar's lazy heap — stale entries discarded on pop, seq-counter
/// invalidation, monotone-later couplings left unrepaired — must produce
/// the byte-identical report *and* command trace of the reference engine.
/// Exercised on the two schemes that remap rows mid-run, where a stale
/// frontier event landing one cycle late would steer FR-FCFS at the first
/// shuffle or swap, plus DAPPER, whose decrement-on-RFM tracker ties
/// eviction state to exact RFM cycles. (PRAC/PRACtical get the same
/// agreement check, with ABO recovery actually firing, in
/// `crates/memsys/tests/properties.rs::prac_abo_recovery_engines_agree` —
/// this config's spread stream never trips a per-row counter.)
#[test]
fn fast_engine_equals_reference_with_traces() {
    let mut cfg = small_cfg();
    cfg.trace_depth = 1 << 20;
    for scheme in [Scheme::Shadow, Scheme::Rrs, Scheme::Dapper] {
        let run_with = |engine: Engine| {
            let mut cfg = cfg;
            cfg.engine = engine;
            let streams = shadow_bench::workload("random-stream", &cfg, 0xACE0_00CA);
            let mut sys =
                MemSystem::new(cfg, streams, shadow_bench::build_mitigation(scheme, &cfg));
            let report = sys.run();
            (report, sys.take_trace().expect("tracing enabled"))
        };
        let (fast_report, fast_trace) = run_with(Engine::Fast);
        let (reference_report, reference_trace) = run_with(Engine::Reference);
        assert!(
            fast_report.commands.get("RFM") > 0 || fast_report.channel_blocked_cycles > 0,
            "run too small: no mid-run remaps exercised the calendar"
        );
        assert_eq!(
            fast_report,
            reference_report,
            "fast engine diverged from reference under {}",
            scheme.name()
        );
        assert_eq!(
            fast_trace,
            reference_trace,
            "fast engine trace diverged from reference under {}",
            scheme.name()
        );
    }
}

/// The command-trace recorder is observation only: a run with the ring
/// buffer enabled must produce the identical report, field for field, to
/// the same run with recording off.
#[test]
fn trace_recorder_does_not_change_outcomes() {
    for scheme in [Scheme::Baseline, Scheme::Shadow, Scheme::Rrs] {
        let off = run(small_cfg(), "random-stream", scheme);
        let mut recorded_cfg = small_cfg();
        recorded_cfg.trace_depth = 1 << 20;
        let on = run(recorded_cfg, "random-stream", scheme);
        assert_eq!(off, on, "recorder changed a {} outcome", scheme.name());
    }
}

/// The lazy stamp-based Row Hammer ledger (fast engine) must equal the
/// eager ledger (reference engine) on schemes that lean on every ledger
/// entry point: SHADOW's shuffles deposit + restore, RRS swaps restore
/// pairs, PARA's probabilistic refreshes restore single rows, and refresh
/// sweeps drive the aligned `restore_block` fast path everywhere.
#[test]
fn lazy_ledger_matches_eager_reference() {
    for scheme in [Scheme::Baseline, Scheme::Shadow, Scheme::Rrs, Scheme::Para] {
        let lazy = run(small_cfg(), "random-stream", scheme);
        let mut eager_cfg = small_cfg();
        eager_cfg.engine = Engine::Reference;
        let eager = run(eager_cfg, "random-stream", scheme);
        assert_eq!(
            lazy,
            eager,
            "lazy ledger changed a {} outcome",
            scheme.name()
        );
    }
}

/// The phase profiler is observation only: a run with
/// `SystemConfig::profile` set must produce a report identical (under
/// `SimReport` equality, which ignores the wall-clock profile) to the
/// same run without it — whether or not the `profiler` feature is
/// compiled in. With the feature on, also pin that the profile actually
/// populated, so a silently dead profiler cannot pass for a cheap one.
#[test]
fn profiler_does_not_change_outcomes() {
    for scheme in [Scheme::Baseline, Scheme::Shadow, Scheme::Rrs] {
        let off = run(small_cfg(), "random-stream", scheme);
        let mut profiled_cfg = small_cfg();
        profiled_cfg.profile = true;
        let on = run(profiled_cfg, "random-stream", scheme);
        assert_eq!(off, on, "profiler changed a {} outcome", scheme.name());
        if shadow_sim::profiler::profiler_compiled() {
            let p = on.profile.as_ref().expect("profiled run records phases");
            assert!(
                p.hits(shadow_sim::profiler::Phase::Schedule) > 0,
                "profiler compiled + enabled but recorded nothing"
            );
        } else {
            assert!(on.profile.is_none(), "profile populated without feature");
        }
    }
}

/// Same gate at the `MemSystem` layer: the recorder must also not perturb
/// a run that exercises refresh postponement and urgent drains.
#[test]
fn trace_recorder_invisible_to_memsys() {
    let build = |trace_depth: usize| {
        let mut cfg = SystemConfig::tiny();
        cfg.target_requests = 2_000;
        cfg.trace_depth = trace_depth;
        let streams = shadow_bench::workload("mix-blend", &cfg, 0xACE0_0009);
        MemSystem::new(
            cfg,
            streams,
            Box::new(shadow_mitigations::NoMitigation::new()),
        )
        .run()
    };
    assert_eq!(
        build(0),
        build(1 << 20),
        "recorder changed a MemSystem outcome"
    );
}
