//! Property tests: the paged [`HammerLedger`] must be observationally
//! bit-identical to a flat model — one `f64` accumulator per row, every
//! restore applied at once — under arbitrary interleavings of activations
//! and restores.
//!
//! The model is written here from the ledger's contract alone: an ACT
//! zeroes its own row and adds `weight(d)` to every row at distance
//! `1..=blast_radius` inside the aggressor's subarray, and a victim flips
//! on the deposit that lifts it from below `H_cnt` to at or above it.
//!
//! Inputs come from the workspace's deterministic `Xoshiro256` generator
//! (fixed seeds), keeping every failure reproducible without an external
//! property-testing framework. Case count honors `PROPTEST_CASES`.

use shadow_rh::{BitFlip, HammerLedger, RhParams};
use shadow_sim::rng::Xoshiro256;

fn cases(default: u32) -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// The flat reference: one accumulator per row of the bank.
struct FlatLedger {
    params: RhParams,
    rows_per_subarray: u32,
    pressure: Vec<f64>,
    flips: Vec<BitFlip>,
    acts_seen: u64,
}

impl FlatLedger {
    fn new(rows: u32, rows_per_subarray: u32, params: RhParams) -> Self {
        FlatLedger {
            params,
            rows_per_subarray,
            pressure: vec![0.0; rows as usize],
            flips: Vec::new(),
            acts_seen: 0,
        }
    }

    fn on_activate(&mut self, row: u32) {
        self.acts_seen += 1;
        let rps = self.rows_per_subarray;
        let (sa_lo, idx) = (row - row % rps, row % rps);
        let h_cnt = self.params.h_cnt as f64;
        self.pressure[row as usize] = 0.0;
        for d in 1..=self.params.blast_radius {
            let w = self.params.weight(d);
            let below = idx.checked_sub(d);
            let above = Some(idx + d).filter(|&i| i < rps);
            for i in [below, above].into_iter().flatten() {
                let victim = sa_lo + i;
                let p = &mut self.pressure[victim as usize];
                let before = *p;
                *p += w;
                if before < h_cnt && *p >= h_cnt {
                    self.flips.push(BitFlip {
                        victim,
                        at_act: self.acts_seen,
                    });
                }
            }
        }
    }

    fn restore_block(&mut self, start: u32, count: u32) {
        let end = start.saturating_add(count).min(self.pressure.len() as u32);
        if start < end {
            self.pressure[start as usize..end as usize].fill(0.0);
        }
    }

    /// `Iterator::max_by` over every row: ties go to the highest index.
    fn hottest(&self) -> (u32, f64) {
        let (r, &p) = self
            .pressure
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .expect("ledger has rows");
        (r as u32, p)
    }
}

/// Asserts every observable of the ledger matches the model, bit for bit.
fn assert_same(ledger: &HammerLedger, flat: &FlatLedger, ctx: &str) {
    assert_eq!(ledger.acts_seen(), flat.acts_seen, "{ctx}: acts_seen");
    assert_eq!(ledger.flips(), &flat.flips[..], "{ctx}: flip ledger");
    let (hot_row, hot_p) = ledger.hottest();
    let (flat_row, flat_p) = flat.hottest();
    assert_eq!(
        (hot_row, hot_p.to_bits()),
        (flat_row, flat_p.to_bits()),
        "{ctx}: hottest"
    );
    for (r, p) in flat.pressure.iter().enumerate() {
        // f64 bit-identity, not approximate equality: the ledger must
        // perform the same additions in the same order.
        assert_eq!(
            ledger.pressure(r as u32).to_bits(),
            p.to_bits(),
            "{ctx}: pressure of row {r}"
        );
    }
}

/// One randomized episode: a stream of ACTs, single restores, block
/// restores (aligned and ragged), and full restores, applied to the
/// ledger and the model in lockstep with observations compared after
/// every step.
fn run_episode(seed: u64, rows: u32, rows_per_subarray: u32, params: RhParams, ops: u32) {
    let mut gen = Xoshiro256::seed_from_u64(seed);
    let mut ledger = HammerLedger::new(rows, rows_per_subarray, params);
    let mut flat = FlatLedger::new(rows, rows_per_subarray, params);
    // The steady-state refresh granule this episode will mostly use.
    let granule = 1 << gen.gen_range(1, 5); // 2..=16
    for step in 0..ops {
        let ctx = format!("seed {seed:#x} step {step}");
        match gen.gen_range(0, 100) {
            // ACTs dominate, as in a real command stream.
            0..=69 => {
                let row = gen.gen_range(0, rows as u64) as u32;
                ledger.on_activate(row, step as u64);
                flat.on_activate(row);
            }
            70..=79 => {
                let row = gen.gen_range(0, rows as u64) as u32;
                ledger.restore(row);
                flat.restore_block(row, 1);
            }
            80..=89 => {
                // Aligned block restore: one REF's refresh granule.
                let blocks = rows / granule;
                let start = gen.gen_range(0, blocks as u64) as u32 * granule;
                ledger.restore_block(start, granule);
                flat.restore_block(start, granule);
            }
            90..=94 => {
                // Ragged block restore, possibly running past the bank.
                let start = gen.gen_range(0, rows as u64) as u32;
                let count = gen.gen_range(1, 2 * rows as u64) as u32;
                ledger.restore_block(start, count);
                flat.restore_block(start, count);
            }
            95..=97 => {
                ledger.restore_all();
                flat.restore_block(0, rows);
            }
            _ => {
                ledger.clear_flips();
                flat.flips.clear();
            }
        }
        assert_same(&ledger, &flat, &ctx);
    }
}

#[test]
fn lazy_matches_eager_small_geometry() {
    for case in 0..cases(64) as u64 {
        run_episode(0x1ed6_e400 + case, 64, 16, RhParams::new(50, 3), 400);
    }
}

#[test]
fn lazy_matches_eager_wide_subarrays() {
    for case in 0..cases(32) as u64 {
        run_episode(0x1ed6_e500 + case, 256, 64, RhParams::new(120, 2), 600);
    }
}

#[test]
fn lazy_matches_eager_single_subarray() {
    // One subarray spanning the whole bank: every ACT can reach every row.
    for case in 0..cases(32) as u64 {
        run_episode(0x1ed6_e600 + case, 32, 32, RhParams::new(20, 4), 300);
    }
}

/// The refresh-engine shape specifically: periodic aligned block restores
/// sweeping the bank, as `MemSystem` drives them, with heavy hammering in
/// between.
#[test]
fn lazy_matches_eager_refresh_sweep() {
    for case in 0..cases(16) as u64 {
        let seed = 0x1ed6_e700 + case;
        let mut gen = Xoshiro256::seed_from_u64(seed);
        let (rows, rps) = (512, 64);
        let params = RhParams::new(200, 3);
        let mut ledger = HammerLedger::new(rows, rps, params);
        let mut flat = FlatLedger::new(rows, rps, params);
        let granule = 8;
        let mut ptr = 0u32;
        for sweep in 0..(rows / granule) * 2 {
            for _ in 0..40 {
                let row = gen.gen_range(0, rows as u64) as u32;
                ledger.on_activate(row, sweep as u64);
                flat.on_activate(row);
            }
            ledger.restore_block(ptr, granule);
            flat.restore_block(ptr, granule);
            ptr = (ptr + granule) % rows;
            assert_same(&ledger, &flat, &format!("seed {seed:#x} sweep {sweep}"));
        }
    }
}
