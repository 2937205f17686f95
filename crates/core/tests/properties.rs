//! Randomized property tests on the SHADOW mechanism: the bank
//! controller's PA→DA mapping must remain a bijection under any
//! interleaving of activations and RFMs, and the security model must
//! respect its structural bounds.
//!
//! Inputs come from the workspace's deterministic `Xoshiro256` generator
//! (fixed seeds), so every failure is reproducible without an external
//! property-testing framework.

use shadow_core::bank::{ShadowBank, ShadowConfig};
use shadow_core::remap::RemapTable;
use shadow_core::security::{SecurityModel, SecurityParams};
use shadow_crypto::PrinceRng;
use shadow_sim::rng::Xoshiro256;

/// Any ACT/RFM interleaving leaves every subarray's remapping table a
/// valid bijection, with forward and reverse translations consistent.
#[test]
fn shadow_bank_mapping_stays_bijective() {
    let mut gen = Xoshiro256::seed_from_u64(0xC04E_0001);
    for _ in 0..40 {
        let seed = gen.next_u64();
        let ops = 1 + gen.gen_index(399);
        let cfg = ShadowConfig {
            subarrays: 4,
            rows_per_subarray: 32,
        };
        let total_rows = cfg.subarrays * cfg.rows_per_subarray;
        let mut bank = ShadowBank::new(cfg, Box::new(PrinceRng::new(seed, !seed)));
        for _ in 0..ops {
            let row_sel = gen.next_u32() as u16;
            bank.note_activate(row_sel as u32 % total_rows);
            if gen.gen_bool(0.5) {
                let out = bank.on_rfm();
                assert!(out.target_subarray < cfg.subarrays);
                assert!(out.incremental_refresh_da < bank.da_rows());
            }
        }
        assert!(bank.check_invariants().is_ok());
        for pa in 0..total_rows {
            let da = bank.translate(pa);
            assert!(da < bank.da_rows());
            assert_eq!(bank.reverse(da), Some(pa));
        }
    }
}

/// Remapping tables exist only for subarrays an RFM has shuffled. A dense
/// model — one identity `RemapTable` per subarray, replaying each RFM's
/// reported shuffle — must agree with the bank on every PA row's
/// translation, every DA slot's reverse translation and every incremental
/// refresh, whether the row's subarray has a table yet or not.
#[test]
fn lazy_tables_match_dense_model() {
    let mut gen = Xoshiro256::seed_from_u64(0xC04E_0003);
    for _ in 0..40 {
        let seed = gen.next_u64();
        let cfg = ShadowConfig {
            subarrays: 16,
            rows_per_subarray: 8,
        };
        let per = cfg.rows_per_subarray;
        let mut bank = ShadowBank::new(cfg, Box::new(PrinceRng::new(seed, 7)));
        let mut dense: Vec<RemapTable> = (0..cfg.subarrays).map(|_| RemapTable::new(per)).collect();
        // ACTs fall in a few hot subarrays, so most never get a table.
        let hot: Vec<u32> = (0..3).map(|_| gen.gen_range(0, 16) as u32).collect();
        for _ in 0..gen.gen_range(1, 200) {
            let sa = hot[gen.gen_index(hot.len())];
            bank.note_activate(sa * per + gen.gen_range(0, per as u64) as u32);
            if gen.gen_bool(0.3) {
                let out = bank.on_rfm();
                let t = &mut dense[out.target_subarray as usize];
                let base = out.target_subarray * (per + 1);
                assert_eq!(out.incremental_refresh_da, base + t.advance_incr_ptr());
                t.shuffle(out.shuffled_pa.0 % per, out.shuffled_pa.1 % per);
            }
        }
        assert!(bank.check_invariants().is_ok());
        for sa in 0..cfg.subarrays {
            assert_eq!(
                bank.table(sa).is_some(),
                dense[sa as usize].shuffles() > 0,
                "subarray {sa} has a table iff it was shuffled"
            );
            for idx in 0..per {
                let pa = sa * per + idx;
                let da = bank.translate(pa);
                assert_eq!(da, sa * (per + 1) + dense[sa as usize].da_of(idx));
                assert_eq!(bank.reverse(da), Some(pa));
            }
            for slot in 0..=per {
                let expect = dense[sa as usize].pa_of(slot).map(|i| sa * per + i);
                assert_eq!(bank.reverse(sa * (per + 1) + slot), expect);
            }
        }
    }
}

/// Shuffles stay inside the aggressor's subarray: the DA of any row in
/// another subarray is untouched by an RFM.
#[test]
fn shuffles_confined_to_target_subarray() {
    let mut gen = Xoshiro256::seed_from_u64(0xC04E_0002);
    for _ in 0..100 {
        let seed = gen.next_u64();
        let aggr = gen.gen_range(0, 32) as u32;
        let cfg = ShadowConfig {
            subarrays: 4,
            rows_per_subarray: 32,
        };
        let mut bank = ShadowBank::new(cfg, Box::new(PrinceRng::new(seed, 99)));
        let before: Vec<u32> = (0..128).map(|pa| bank.translate(pa)).collect();
        bank.note_activate(aggr); // subarray 0
        let out = bank.on_rfm();
        assert_eq!(out.target_subarray, 0);
        for pa in 32..128u32 {
            assert_eq!(bank.translate(pa), before[pa as usize], "row {pa} moved");
        }
    }
}

/// The analytic rank-year probability is a valid probability for any
/// plausible configuration.
#[test]
fn security_report_is_probability() {
    for raaimt_exp in 4u32..9 {
        for hcnt_exp in 10u32..15 {
            let raaimt = 1u32 << raaimt_exp;
            let h_cnt = 1u64 << hcnt_exp;
            let r = SecurityModel::new(SecurityParams::table2(raaimt, h_cnt)).report();
            for p in [r.p1_window, r.p2_window, r.p3_window, r.rank_year] {
                assert!((0.0..=1.0).contains(&p), "out-of-range probability {p}");
                assert!(!p.is_nan());
            }
        }
    }
}

/// Doubling W_sum (a stronger blast) never improves protection.
#[test]
fn security_monotone_in_wsum() {
    for raaimt_exp in 5u32..8 {
        let raaimt = 1u32 << raaimt_exp;
        let mut weak = SecurityParams::table2(raaimt, 4096);
        weak.w_sum = 2.0;
        let mut strong = weak;
        strong.w_sum = 4.0;
        let pw = SecurityModel::new(weak).report().rank_year;
        let ps = SecurityModel::new(strong).report().rank_year;
        assert!(
            ps >= pw * (1.0 - 1e-12),
            "stronger blast lowered risk: {ps} < {pw}"
        );
    }
}
