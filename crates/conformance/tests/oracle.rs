//! Oracle integration: the real engine's traces must replay clean on a
//! Fig. 8-shaped sweep slice for every scheme, and a deliberately weakened
//! engine must get caught.

use shadow_conformance::{oracle_for, TimingKind, TimingOracle, ViolationKind};
use shadow_dram::geometry::DramGeometry;
use shadow_dram::timing::TimingParams;
use shadow_memsys::{build_mitigation, MemSystem, Scheme, SystemConfig};
use shadow_rh::RhParams;
use shadow_workloads::stream::RandomStream;
use shadow_workloads::{AppProfile, ProfileStream, RequestStream};

fn fig8_streams(cap: u64, seed: u64) -> Vec<Box<dyn RequestStream>> {
    let mut streams: Vec<Box<dyn RequestStream>> = AppProfile::spec_high()
        .iter()
        .map(|p| Box::new(ProfileStream::new(*p, cap, seed)) as Box<dyn RequestStream>)
        .collect();
    streams.push(Box::new(RandomStream::new(cap, seed ^ 0x5EED)));
    streams
}

/// Every scheme of the registry, on the Fig. 8 DDR4 actual-system
/// configuration, produces an oracle-clean command trace.
#[test]
fn fig8_slice_is_oracle_clean_for_every_scheme() {
    let mut cfg = SystemConfig::ddr4_actual_system();
    cfg.target_requests = 2_500;
    cfg.trace_depth = 1 << 20;
    for &scheme in Scheme::all() {
        let mitigation = build_mitigation(scheme, &cfg);
        let mut sys = MemSystem::new(cfg, fig8_streams(cfg.capacity_bytes(), 0xF168), mitigation);
        let report = sys.run();
        assert!(
            report.total_completed() > 0,
            "{}: no requests completed",
            scheme.name()
        );
        let trace = sys.device().trace().expect("tracing enabled");
        assert!(trace.is_complete(), "{}: trace truncated", scheme.name());
        let oracle = oracle_for(&sys, &cfg, scheme.raa_exact());
        let records = sys.take_trace().expect("tracing enabled");
        assert!(!records.is_empty(), "{}: empty trace", scheme.name());
        let violations = oracle.replay(&records);
        assert!(
            violations.is_empty(),
            "{}: {} violations; first: {}",
            scheme.name(),
            violations.len(),
            violations[0]
        );
    }
}

/// Negative control: run the engine with tFAW weakened to near-nothing,
/// then replay the trace against the datasheet tFAW. The oracle must
/// catch the violation — otherwise a timing regression in the engine
/// would sail through the clean-trace tests above.
#[test]
fn oracle_catches_engine_with_weakened_tfaw() {
    let geometry = DramGeometry {
        channels: 1,
        ranks_per_channel: 1,
        bank_groups: 2,
        banks_per_group: 4,
        subarrays_per_bank: 4,
        rows_per_subarray: 16,
        // 128 columns: row-region-aligned stream addresses then spread
        // across banks instead of aliasing onto bank 0.
        columns: 128,
        column_bytes: 64,
    };
    let mut weak = TimingParams::tiny();
    weak.t_rrd_s = 1;
    weak.t_rrd_l = 1;
    weak.t_faw = 2; // the weakened engine packs ACTs almost back-to-back
    weak.validate().expect("weak timing internally consistent");

    let cfg = SystemConfig {
        geometry,
        timing: weak,
        rh: RhParams::new(256, 2),
        mlp: 8,
        target_requests: 800,
        max_cycles: 2_000_000,
        raaimt_override: None,
        page_policy: shadow_memsys::PagePolicy::Closed,
        posted_writes: false,
        engine: shadow_memsys::Engine::Fast,
        trace_depth: 1 << 20,
        profile: false,
        watchdog_window: 0,
    };
    let streams: Vec<Box<dyn RequestStream>> = (0..4)
        .map(|i| {
            Box::new(RandomStream::new(cfg.capacity_bytes(), 0xBAD_FA0 + i))
                as Box<dyn RequestStream>
        })
        .collect();
    let mut sys = MemSystem::new(cfg, streams, build_mitigation(Scheme::Baseline, &cfg));
    sys.run();
    let records = sys.take_trace().expect("tracing enabled");

    // The engine honored its own weak tFAW...
    let lenient = TimingOracle::new(*sys.device().geometry(), *sys.device().timing());
    assert!(
        lenient.replay(&records).is_empty(),
        "engine violated even its own weak timing"
    );

    // ...but not the datasheet's.
    let mut strict_tp = *sys.device().timing();
    strict_tp.t_faw = 24;
    let strict = TimingOracle::new(*sys.device().geometry(), strict_tp);
    let violations = strict.replay(&records);
    assert!(
        violations.iter().any(|v| matches!(
            v.kind,
            ViolationKind::Timing {
                param: TimingKind::Tfaw,
                ..
            }
        )),
        "strict oracle found no tFAW violation in {} records ({} violations total)",
        records.len(),
        violations.len()
    );
}

/// A seeded state-machine violation is also caught end-to-end: truncating
/// the trace ring must be reported rather than silently verified.
#[test]
fn truncated_trace_is_reported_not_verified() {
    let mut cfg = SystemConfig::tiny();
    cfg.trace_depth = 8; // far smaller than the command count
    let mut sys = MemSystem::new(
        cfg,
        vec![Box::new(RandomStream::new(1 << 20, 7)) as Box<dyn RequestStream>],
        build_mitigation(Scheme::Baseline, &cfg),
    );
    sys.run();
    let oracle = oracle_for(&sys, &cfg, true);
    let trace = sys.device().trace().expect("tracing enabled");
    let violations = oracle.check(trace);
    assert!(
        matches!(
            violations.first().map(|v| v.kind),
            Some(ViolationKind::Truncated { .. })
        ),
        "{violations:?}"
    );
}
