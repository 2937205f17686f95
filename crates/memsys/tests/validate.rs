//! `SystemConfig::validate` on hostile values: oversized geometries are
//! named `InvalidConfig` errors (not arithmetic-overflow panics or silently
//! wrapped products), and no combination of field values makes it panic.
//!
//! Systems are never built here: builds allocate in proportion to the rows
//! a run touches, so `validate` is the only place an overflowing geometry
//! is caught before it is used.
//!
//! Inputs come from the workspace's deterministic `Xoshiro256` generator
//! (fixed seed); the case count honors `PROPTEST_CASES`.

use shadow_memsys::{SimError, SystemConfig};
use shadow_sim::rng::Xoshiro256;

fn geometry_error(cfg: &SystemConfig) -> String {
    match cfg.validate() {
        Err(SimError::InvalidConfig {
            what: "geometry",
            why,
        }) => why,
        other => panic!("expected a geometry InvalidConfig, got {other:?}"),
    }
}

#[test]
fn bank_count_overflow_is_an_error() {
    let mut cfg = SystemConfig::ddr4_actual_system();
    cfg.geometry.channels = 1 << 16;
    cfg.geometry.ranks_per_channel = 1 << 16;
    assert!(geometry_error(&cfg).contains("overflows"));
}

#[test]
fn rows_per_bank_overflow_is_an_error() {
    let mut cfg = SystemConfig::ddr4_actual_system();
    cfg.geometry.subarrays_per_bank = 1 << 20;
    cfg.geometry.rows_per_subarray = 1 << 13;
    assert!(geometry_error(&cfg).contains("rows per bank"));
}

#[test]
fn extra_row_per_subarray_overflow_is_an_error() {
    // 2^15 × (2^17 - 1) rows fit in u32, but not with SHADOW's extra row
    // per subarray; and `rows_per_subarray + 1` itself overflows at
    // u32::MAX.
    let mut cfg = SystemConfig::ddr4_actual_system();
    cfg.geometry.subarrays_per_bank = 1 << 15;
    cfg.geometry.rows_per_subarray = (1 << 17) - 2;
    assert!(cfg.validate().is_ok());
    cfg.geometry.rows_per_subarray = (1 << 17) - 1;
    assert!(geometry_error(&cfg).contains("extra row"));
    cfg.geometry.subarrays_per_bank = 1;
    cfg.geometry.rows_per_subarray = u32::MAX;
    assert!(geometry_error(&cfg).contains("extra row"));
}

#[test]
fn capacity_overflow_is_an_error() {
    let mut cfg = SystemConfig::ddr4_actual_system();
    cfg.geometry.columns = u32::MAX;
    cfg.geometry.column_bytes = u32::MAX;
    assert!(geometry_error(&cfg).contains("capacity"));
}

#[test]
fn timing_sum_overflow_is_an_error() {
    let mut cfg = SystemConfig::ddr4_actual_system();
    cfg.timing.t_ras = u64::MAX;
    cfg.timing.t_rp = 2;
    assert!(matches!(
        cfg.validate(),
        Err(SimError::InvalidConfig { what: "timing", .. })
    ));
}

#[test]
fn zero_hammer_threshold_is_an_error() {
    let mut cfg = SystemConfig::tiny();
    cfg.rh.h_cnt = 0;
    assert!(matches!(
        cfg.validate(),
        Err(SimError::InvalidConfig { what: "rh", .. })
    ));
}

/// A value drawn to hit the edges: zero, one, powers of two around the
/// overflow points, the maximum, or anything at all.
fn edgy_u64(gen: &mut Xoshiro256, max: u64) -> u64 {
    match gen.gen_index(6) {
        0 => 0,
        1 => 1,
        2 => (1u64 << gen.gen_range(0, 64)).min(max),
        3 => max,
        4 => max - gen.gen_range(0, 4).min(max),
        _ => gen.next_u64() & max,
    }
}

fn edgy_u32(gen: &mut Xoshiro256) -> u32 {
    edgy_u64(gen, u32::MAX as u64) as u32
}

#[test]
fn validate_never_panics_on_arbitrary_fields() {
    let cases: u64 = std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(20_000);
    let mut gen = Xoshiro256::seed_from_u64(0x7A11_DA7E);
    let presets = [
        SystemConfig::ddr4_actual_system(),
        SystemConfig::ddr5_sim(),
        SystemConfig::tiny(),
    ];
    let mut accepted = 0u64;
    for _ in 0..cases {
        let mut c = presets[gen.gen_index(presets.len())];
        let g = &mut c.geometry;
        for f in [
            &mut g.channels,
            &mut g.ranks_per_channel,
            &mut g.bank_groups,
            &mut g.banks_per_group,
            &mut g.subarrays_per_bank,
            &mut g.rows_per_subarray,
            &mut g.columns,
            &mut g.column_bytes,
        ] {
            if gen.gen_bool(0.3) {
                *f = edgy_u32(&mut gen);
            }
        }
        let t = &mut c.timing;
        for f in [
            &mut t.t_cl,
            &mut t.t_rcd,
            &mut t.t_rcd_extra,
            &mut t.t_rp,
            &mut t.t_ras,
            &mut t.t_rc,
            &mut t.t_ccd_l,
            &mut t.t_ccd_s,
            &mut t.t_rrd_l,
            &mut t.t_rrd_s,
            &mut t.t_faw,
            &mut t.t_wr,
            &mut t.t_rtp,
            &mut t.t_cwl,
            &mut t.t_bl,
            &mut t.t_wtr_l,
            &mut t.t_wtr_s,
            &mut t.t_rfc,
            &mut t.t_refi,
            &mut t.t_refw,
            &mut t.t_rfm,
        ] {
            if gen.gen_bool(0.1) {
                *f = edgy_u64(&mut gen, u64::MAX);
            }
        }
        for f in [
            &mut c.rh.h_cnt,
            &mut c.target_requests,
            &mut c.max_cycles,
            &mut c.watchdog_window,
        ] {
            if gen.gen_bool(0.2) {
                *f = edgy_u64(&mut gen, u64::MAX);
            }
        }
        if gen.gen_bool(0.2) {
            c.rh.blast_radius = edgy_u32(&mut gen);
        }
        if gen.gen_bool(0.2) {
            c.mlp = edgy_u64(&mut gen, usize::MAX as u64) as usize;
        }
        if gen.gen_bool(0.2) {
            c.trace_depth = edgy_u64(&mut gen, usize::MAX as u64) as usize;
        }
        if gen.gen_bool(0.2) {
            c.raaimt_override = gen.gen_bool(0.5).then(|| edgy_u32(&mut gen));
        }
        if c.validate().is_ok() {
            accepted += 1;
            // An accepted geometry's products are all representable.
            let g = c.geometry;
            assert!(g.total_banks() > 0 && g.rows_per_bank() > 0);
            assert!(g
                .subarrays_per_bank
                .checked_mul(g.rows_per_subarray + 1)
                .is_some());
        }
    }
    assert!(accepted > 0, "the generator never produced a valid config");
}
