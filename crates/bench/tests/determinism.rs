//! Fidelity gates for the engine fast paths.
//!
//! The remap-epoch translation cache, the O(active-bank) scheduler, the
//! memoized frontier, and the parallel sweep runner are pure performance
//! work: none may change a single simulated outcome. These tests pin
//! that, field for field, against the reference engine
//! ([`run_uncached`]: translate-every-time, the original full-bank scan
//! with per-bank frontier recompute) on runs
//! where the fast paths are actually exercised — SHADOW and RRS remap
//! rows *mid-run*, so a stale cache entry would steer FR-FCFS at the
//! first shuffle or swap.

use shadow_bench::{run, run_cells_with, run_uncached, Cell, Scheme};
use shadow_memsys::{Engine, MemSystem, SystemConfig};
use shadow_sim::profiler::Phase;

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

/// Sweeps shard cells, not channels: each cell's whole system — its
/// per-bank PRINCE sources and mitigation state included — runs on one
/// [`shadow_bench::run_parallel`] worker. At any worker count that must
/// give the byte-identical report *and* command trace of the same run on
/// the calling thread. Exercised on the 4-channel DDR4 config with the two
/// schemes that remap rows mid-run plus the PRAC-era schemes, whose
/// counter/tracker state is the largest a worker carries.
#[test]
fn sweep_workers_equal_calling_thread_with_traces() {
    let mut cfg = SystemConfig::ddr4_actual_system();
    cfg.target_requests = 2_000;
    cfg.trace_depth = 1 << 20;
    let schemes = [
        Scheme::Shadow,
        Scheme::Rrs,
        Scheme::Prac,
        Scheme::Practical,
        Scheme::Dapper,
    ];
    let run_all = |threads: usize| {
        let jobs: Vec<_> = schemes
            .iter()
            .map(|&scheme| {
                move || {
                    let streams = shadow_bench::workload("random-stream", &cfg, 0xACE0_005D);
                    let mut sys =
                        MemSystem::new(cfg, streams, shadow_bench::build_mitigation(scheme, &cfg));
                    let report = sys.run();
                    (report, sys.take_trace().expect("tracing enabled"))
                }
            })
            .collect();
        shadow_bench::run_parallel(jobs, threads)
    };
    let serial = run_all(1);
    for threads in [2, 4] {
        let parallel = run_all(threads);
        for (i, ((sr, st), (pr, pt))) in serial.iter().zip(&parallel).enumerate() {
            let name = schemes[i].name();
            assert_eq!(
                sr, pr,
                "{name} report diverged at {threads} sweep worker(s)"
            );
            assert_eq!(
                st, pt,
                "{name} command trace diverged at {threads} sweep worker(s)"
            );
        }
    }
}

/// The fast engine (the default) is pure performance work: its event
/// calendar's lazy heap — stale entries discarded on pop, seq-counter
/// invalidation, monotone-later couplings left unrepaired — must produce
/// the byte-identical report *and* command trace of the reference engine.
///
/// Two inputs. The tiny config runs the two schemes that remap rows
/// mid-run, where a stale frontier event landing one cycle late would
/// steer FR-FCFS at the first shuffle or swap, plus DAPPER, whose
/// decrement-on-RFM tracker ties eviction state to exact RFM cycles. The
/// 4-channel DDR4 config adds PRAC and PRACtical and exercises the
/// channel-ordered command merge and the cross-channel cadence fallback.
/// (ABO recovery actually firing is pinned in
/// `crates/memsys/tests/properties.rs::prac_abo_recovery_engines_agree` —
/// these spread streams never trip a per-row counter.)
#[test]
fn fast_engine_equals_reference_with_traces() {
    let mut tiny = small_cfg();
    tiny.trace_depth = 1 << 20;
    let mut ddr4 = SystemConfig::ddr4_actual_system();
    ddr4.target_requests = 2_000;
    ddr4.trace_depth = 1 << 20;
    let inputs: [(SystemConfig, u64, &[Scheme]); 2] = [
        (
            tiny,
            0xACE0_00CA,
            &[Scheme::Shadow, Scheme::Rrs, Scheme::Dapper],
        ),
        (
            ddr4,
            0xACE0_000D,
            &[
                Scheme::Shadow,
                Scheme::Rrs,
                Scheme::Prac,
                Scheme::Practical,
                Scheme::Dapper,
            ],
        ),
    ];
    for (cfg, seed, schemes) in inputs {
        let channels = cfg.geometry.channels;
        for &scheme in schemes {
            let run_with = |engine: Engine| {
                let mut cfg = cfg;
                cfg.engine = engine;
                let streams = shadow_bench::workload("random-stream", &cfg, seed);
                let mut sys =
                    MemSystem::new(cfg, streams, shadow_bench::build_mitigation(scheme, &cfg));
                let report = sys.run();
                (report, sys.take_trace().expect("tracing enabled"))
            };
            let (fast_report, fast_trace) = run_with(Engine::Fast);
            let (reference_report, reference_trace) = run_with(Engine::Reference);
            if channels == 1 {
                assert!(
                    fast_report.commands.get("RFM") > 0 || fast_report.channel_blocked_cycles > 0,
                    "run too small: no mid-run remaps exercised the calendar"
                );
            }
            assert_eq!(
                fast_report,
                reference_report,
                "fast engine diverged from reference under {} ({channels} channel(s))",
                scheme.name()
            );
            assert_eq!(
                fast_trace,
                reference_trace,
                "fast engine trace diverged from reference under {} ({channels} channel(s))",
                scheme.name()
            );
        }
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

/// The fast engine must equal the reference engine on schemes that lean
/// on every Row Hammer ledger entry point and churn the remap epoch:
/// SHADOW's shuffles deposit + restore, RRS swaps restore pairs, PARA's
/// probabilistic refreshes restore single rows, and refresh sweeps drive
/// `restore_block` everywhere. Both engines share the ledger, so this
/// pins the scheduler and translation cache around it.
#[test]
fn fast_engine_equals_reference_on_ledger_heavy_schemes() {
    for scheme in [Scheme::Baseline, Scheme::Shadow, Scheme::Rrs, Scheme::Para] {
        let fast = run(small_cfg(), "random-stream", scheme);
        let mut reference_cfg = small_cfg();
        reference_cfg.engine = Engine::Reference;
        let reference = run(reference_cfg, "random-stream", scheme);
        assert_eq!(
            fast,
            reference,
            "fast engine diverged from reference on a ledger-heavy {} run",
            scheme.name()
        );
    }
}

/// The phase profiler is observation only: on either engine, a run with
/// `SystemConfig::profile` set must produce a report identical (under
/// `SimReport` equality, which ignores the wall-clock profile) to the
/// same run without it, and an unprofiled run carries no profile. Also
/// pin that every phase the engine enters was counted, so a silently dead
/// timer site cannot pass for a cheap one: all six on the fast engine,
/// and all but `Calendar` on the reference engine, whose full scan never
/// touches the event calendar.
#[test]
fn profiler_does_not_change_outcomes() {
    for engine in [Engine::Fast, Engine::Reference] {
        for scheme in [Scheme::Baseline, Scheme::Shadow, Scheme::Rrs] {
            let mut cfg = small_cfg();
            cfg.engine = engine;
            let off = run(cfg, "random-stream", scheme);
            assert!(off.profile.is_none(), "unprofiled run carries a profile");
            cfg.profile = true;
            let on = run(cfg, "random-stream", scheme);
            let name = scheme.name();
            assert_eq!(off, on, "profiler changed a {name} outcome on {engine:?}");
            let p = on.profile.as_ref().expect("profiled run records phases");
            for phase in Phase::ALL {
                let entered = engine == Engine::Fast || phase != Phase::Calendar;
                assert_eq!(
                    p.hits(phase) > 0,
                    entered,
                    "{name} on {engine:?}: {} phase has {} hits",
                    phase.name(),
                    p.hits(phase)
                );
            }
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
