//! Row state that is materialised on first touch must behave exactly like
//! the dense per-row arrays it replaces.
//!
//! * RRS stores only displaced rows: its translation must stay a
//!   bijection equal to a dense swap-by-swap model, with no identity
//!   entries and at most two entries per swap.
//! * PRAC/PRACtical and Panopticon page their per-row counters by
//!   subarray: their alert and TRR sequences must equal a flat `Vec<u32>`
//!   counter model on random ACT, recovery and refresh-block streams.
//!
//! Inputs come from the workspace's deterministic `Xoshiro256` generator
//! (fixed seeds); the case count honors `PROPTEST_CASES`.

use shadow_mitigations::{victims_of, Mitigation, Panopticon, Prac, RfmAction, Rrs};
use shadow_rh::RhParams;
use shadow_sim::rng::Xoshiro256;
use std::collections::VecDeque;

fn cases(default: u64) -> u64 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// A row drawn mostly from a few hot rows, so counters cross their
/// thresholds, and otherwise from anywhere in the bank.
fn pick_row(gen: &mut Xoshiro256, hot: &[u32], rows: u32) -> u32 {
    if gen.gen_bool(0.8) {
        hot[gen.gen_index(hot.len())]
    } else {
        gen.gen_range(0, rows as u64) as u32
    }
}

#[test]
fn rrs_sparse_indirection_matches_dense_model() {
    let (banks, rows) = (2usize, 256u32);
    for case in 0..cases(24) {
        let mut gen = Xoshiro256::seed_from_u64(0x5A5A_0000 + case);
        let mut rrs = Rrs::new(banks, rows, RhParams::new(60, 1), case);
        let mut dense: Vec<Vec<u32>> = vec![(0..rows).collect(); banks];
        let hot: Vec<u32> = (0..4)
            .map(|_| gen.gen_range(0, rows as u64) as u32)
            .collect();
        for step in 0..3000u64 {
            let bank = gen.gen_index(banks);
            let row = pick_row(&mut gen, &hot, rows);
            let resp = rrs.on_activate(bank, row, step);
            if let Some(&(da_a, da_b)) = resp.copies.first() {
                let fwd = &mut dense[bank];
                let pa_a = fwd.iter().position(|&d| d == da_a).expect("DA in use");
                let pa_b = fwd.iter().position(|&d| d == da_b).expect("DA in use");
                fwd.swap(pa_a, pa_b);
            }
        }
        assert!(rrs.swap_count() > 0, "case {case}: no swap happened");
        for (bank, fwd) in dense.iter().enumerate() {
            let mut seen = vec![false; rows as usize];
            let mut moved = 0;
            for pa in 0..rows {
                let da = rrs.translate(bank, pa);
                assert_eq!(da, fwd[pa as usize], "case {case} bank {bank} row {pa}");
                assert!(
                    !std::mem::replace(&mut seen[da as usize], true),
                    "DA {da} twice"
                );
                moved += usize::from(da != pa);
            }
            // Every stored entry is a displaced row: no identity entries.
            assert_eq!(rrs.displaced_rows(bank), moved, "case {case} bank {bank}");
            // The per-bank epoch counts that bank's swaps.
            assert!(rrs.displaced_rows(bank) as u64 <= 2 * rrs.remap_epoch(bank));
        }
    }
}

/// The flat reference for PRAC: one counter per row of every bank.
struct FlatPrac {
    counters: Vec<Vec<u32>>,
    alerted: Vec<VecDeque<u32>>,
    threshold: u32,
    radius: u32,
    rows_per_subarray: u32,
}

impl FlatPrac {
    fn act(&mut self, bank: usize, row: u32) -> bool {
        let c = &mut self.counters[bank][row as usize];
        *c += 1;
        if *c < self.threshold {
            return false;
        }
        *c = 0;
        self.alerted[bank].push_back(row);
        true
    }

    fn recovery(&mut self, bank: usize) -> RfmAction {
        match self.alerted[bank].pop_front() {
            Some(row) => RfmAction {
                refreshes: victims_of(row, self.radius, self.rows_per_subarray),
                ..RfmAction::default()
            },
            None => RfmAction::default(),
        }
    }
}

#[test]
fn prac_paged_counters_match_flat_model() {
    let (banks, rows, rps) = (3usize, 512u32, 64u32);
    for case in 0..cases(24) {
        let mut gen = Xoshiro256::seed_from_u64(0x94AC_0000 + case);
        let rh = RhParams::new(64, 1 + gen.gen_range(0, 3) as u32);
        let mut prac = if case % 2 == 0 {
            Prac::new(banks, rows, rps, rh)
        } else {
            Prac::practical(banks, rows, rps, rh)
        };
        let mut flat = FlatPrac {
            counters: vec![vec![0; rows as usize]; banks],
            alerted: vec![VecDeque::new(); banks],
            threshold: prac.abo().expect("PRAC uses ABO").threshold,
            radius: rh.blast_radius,
            rows_per_subarray: rps,
        };
        let hot: Vec<u32> = (0..6)
            .map(|_| gen.gen_range(0, rows as u64) as u32)
            .collect();
        let mut alerts = 0;
        for step in 0..4000 {
            let bank = gen.gen_index(banks);
            if gen.gen_bool(0.9) {
                let row = pick_row(&mut gen, &hot, rows);
                let alert = prac.on_act_issued(bank, row);
                assert_eq!(alert, flat.act(bank, row), "case {case} step {step}");
                alerts += u64::from(alert);
            } else {
                assert_eq!(
                    prac.on_recovery_rfm(bank),
                    flat.recovery(bank),
                    "case {case} step {step}"
                );
            }
        }
        assert!(alerts > 0, "case {case}: no alert fired");
        assert_eq!(prac.alerts(), alerts);
    }
}

#[test]
fn panopticon_paged_counters_match_flat_model() {
    let (banks, rows, rps) = (2usize, 1024u32, 128u32);
    for case in 0..cases(24) {
        let mut gen = Xoshiro256::seed_from_u64(0x9A40_0000 + case);
        let rh = RhParams::new(64, 1 + gen.gen_range(0, 3) as u32);
        let mut pan = Panopticon::new(banks, rows, rh).with_rows_per_subarray(rps);
        let threshold = pan.threshold();
        let mut counters = vec![vec![0u32; rows as usize]; banks];
        let hot: Vec<u32> = (0..6)
            .map(|_| gen.gen_range(0, rows as u64) as u32)
            .collect();
        let mut trrs = 0;
        for step in 0..4000u64 {
            let bank = gen.gen_index(banks);
            if gen.gen_bool(0.95) {
                let row = pick_row(&mut gen, &hot, rows);
                let c = &mut counters[bank][row as usize];
                *c += 1;
                let expect = if *c >= threshold {
                    *c = 0;
                    trrs += 1;
                    victims_of(row, rh.blast_radius, rps)
                } else {
                    Vec::new()
                };
                let got = pan.on_activate(bank, row, step).refreshes;
                assert_eq!(got, expect, "case {case} step {step}");
            } else {
                // Refresh blocks, aligned or ragged, some past the bank end.
                let start = gen.gen_range(0, rows as u64 + 16) as u32;
                let count = gen.gen_range(1, 300) as u32;
                pan.on_refresh_block(bank, start, count);
                let end = (start + count).min(rows) as usize;
                if (start as usize) < end {
                    counters[bank][start as usize..end].fill(0);
                }
            }
        }
        assert!(trrs > 0, "case {case}: no TRR fired");
        assert_eq!(pan.trr_count(), trrs);
    }
}
