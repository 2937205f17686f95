//! Randomized Row-Swap (Saileshwar et al., ASPLOS 2022) — the prior
//! row-shuffle baseline SHADOW is measured against.
//!
//! RRS tracks activations MC-side with a Misra–Gries table; when a row
//! crosses the swap threshold (configured favorably at `H_cnt/6`, §VII-C)
//! it is *swapped* with a uniformly random row of the same bank through a
//! row-indirection table. Unlike SHADOW's in-DRAM copies, the swap streams
//! both rows' data through the memory controller, blocking the channel for
//! ~4 µs per swap (§III-A) — the latency SHADOW's in-subarray copies avoid.
//!
//! The indirection table starts as the identity and a swap moves two rows,
//! so the simulator stores only the displaced rows: a per-bank map from PA
//! to DA with no identity entries (a row that returns home is dropped).
//! A bank never swapped holds an empty map, and a bank after `k` swaps
//! holds at most `2k` entries. [`Rrs::table_cost`] still prices the
//! chip's full one-entry-per-row table.

use crate::traits::{ActResponse, Mitigation};
use crate::{bank_stream_seed, SeedDomain};
use shadow_rh::RhParams;
use shadow_sim::rng::Xoshiro256;
use shadow_sim::time::Cycle;
use shadow_trackers::{MisraGries, TrackerCost};
use std::collections::HashMap;

/// Channel blocking time per swap, in nanoseconds (§III-A: "4,000
/// nanoseconds or more").
pub const SWAP_BLOCK_NS: f64 = 4000.0;

/// The RRS mitigation.
#[derive(Debug)]
pub struct Rrs {
    trackers: Vec<MisraGries>,
    /// Per-bank PA→DA indirection (the Row Indirection Table), displaced
    /// rows only: a PA with no entry maps to itself.
    fwd: Vec<HashMap<u32, u32>>,
    threshold: u64,
    rows_per_bank: u32,
    /// Per-bank swap-partner streams (disjoint PRINCE counter windows via
    /// [`crate::bank_stream_seed`]): a bank's partner sequence is
    /// independent of other banks' activity.
    rngs: Vec<Xoshiro256>,
    swaps: u64,
    /// Per-bank remap epoch: bumped on every swap of that bank so the
    /// simulator's translation cache invalidates exactly when it must.
    epochs: Vec<u64>,
    tracker_entries: usize,
}

impl Rrs {
    /// Creates RRS for `banks` banks of `rows_per_bank` rows.
    ///
    /// Swap threshold follows the paper's favorable configuration:
    /// `H_cnt / 6`. The Misra–Gries table is sized so its error bound stays
    /// below the threshold over a refresh window of activity
    /// (`entries ≈ acts_per_window / threshold`), which is where RRS's
    /// 43 KB/bank SRAM figure comes from.
    pub fn new(banks: usize, rows_per_bank: u32, rh: RhParams, seed: u64) -> Self {
        let threshold = (rh.h_cnt / 6).max(1);
        // ~2M ACTs per bank per 64 ms window at full tilt.
        let entries = ((2_097_152 / threshold).clamp(64, 8192)) as usize;
        Rrs {
            trackers: (0..banks).map(|_| MisraGries::new(entries)).collect(),
            fwd: (0..banks).map(|_| HashMap::new()).collect(),
            threshold,
            rows_per_bank,
            rngs: (0..banks)
                .map(|b| Xoshiro256::seed_from_u64(bank_stream_seed(seed, SeedDomain::Rrs, b)))
                .collect(),
            swaps: 0,
            epochs: vec![0; banks],
            tracker_entries: entries,
        }
    }

    /// The swap threshold (`H_cnt / 6`).
    pub fn threshold(&self) -> u64 {
        self.threshold
    }

    /// Number of swaps performed.
    pub fn swap_count(&self) -> u64 {
        self.swaps
    }

    /// Per-bank SRAM cost: the Misra–Gries CAM plus the row indirection
    /// table (one DA entry per row).
    pub fn table_cost(&self) -> TrackerCost {
        let row_bits = 32 - (self.rows_per_bank - 1).leading_zeros();
        TrackerCost::cam_table(self.tracker_entries, 17, 16).plus(&TrackerCost::sram_counters(
            self.rows_per_bank as usize,
            row_bits,
        ))
    }

    /// Rows of `bank` currently away from their home DA.
    pub fn displaced_rows(&self, bank: usize) -> usize {
        self.fwd[bank].len()
    }

    fn da_of(&self, bank: usize, pa_row: u32) -> u32 {
        debug_assert!(pa_row < self.rows_per_bank, "PA row {pa_row} out of range");
        self.fwd[bank].get(&pa_row).copied().unwrap_or(pa_row)
    }

    fn swap_rows(&mut self, bank: usize, pa_a: u32, pa_b: u32) -> (u32, u32) {
        let da_a = self.da_of(bank, pa_a);
        let da_b = self.da_of(bank, pa_b);
        for (pa, da) in [(pa_a, da_b), (pa_b, da_a)] {
            if pa == da {
                self.fwd[bank].remove(&pa);
            } else {
                self.fwd[bank].insert(pa, da);
            }
        }
        self.swaps += 1;
        self.epochs[bank] += 1;
        (da_a, da_b)
    }
}

impl Mitigation for Rrs {
    fn name(&self) -> &'static str {
        "RRS"
    }

    fn translate(&mut self, bank: usize, pa_row: u32) -> u32 {
        self.da_of(bank, pa_row)
    }

    fn remap_epoch(&self, bank: usize) -> u64 {
        self.epochs[bank]
    }

    fn on_activate(&mut self, bank: usize, pa_row: u32, _cycle: Cycle) -> ActResponse {
        let est = self.trackers[bank].observe(pa_row as u64);
        if est < self.threshold {
            return ActResponse::default();
        }
        // Threshold crossed: swap with a random partner and reset tracking.
        self.trackers[bank].reset_key(pa_row as u64);
        let partner = self.rngs[bank].gen_range(0, self.rows_per_bank as u64) as u32;
        if partner == pa_row {
            return ActResponse::default();
        }
        let (da_a, da_b) = self.swap_rows(bank, pa_row, partner);
        ActResponse {
            delay_cycles: 0,
            refreshes: Vec::new(),
            // Both rows are rewritten through the MC: model as two copies
            // (restores both destinations) plus the channel block.
            copies: vec![(da_a, da_b), (da_b, da_a)],
            channel_block_ns: SWAP_BLOCK_NS,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rrs() -> Rrs {
        Rrs::new(2, 1024, RhParams::new(600, 3), 11)
    }

    #[test]
    fn threshold_is_hcnt_over_6() {
        assert_eq!(rrs().threshold(), 100);
    }

    #[test]
    fn swap_triggers_at_threshold_and_blocks_channel() {
        let mut m = rrs();
        let mut blocked = None;
        for i in 0..200u64 {
            let r = m.on_activate(0, 7, i);
            if r.channel_block_ns > 0.0 {
                blocked = Some((i, r));
                break;
            }
        }
        let (when, r) = blocked.expect("no swap by 200 ACTs of threshold-100 row");
        assert!(when >= 99, "swap too early at {when}");
        assert_eq!(r.channel_block_ns, SWAP_BLOCK_NS);
        assert_eq!(r.copies.len(), 2);
        assert_eq!(m.swap_count(), 1);
    }

    #[test]
    fn translation_changes_after_swap() {
        let mut m = rrs();
        assert_eq!(m.translate(0, 7), 7);
        for i in 0..200u64 {
            m.on_activate(0, 7, i);
        }
        assert!(m.swap_count() >= 1);
        // Indirection is a bijection: forward of everything is unique.
        let mut seen = vec![false; 1024];
        for pa in 0..1024 {
            let da = m.translate(0, pa) as usize;
            assert!(!seen[da], "duplicate DA {da}");
            seen[da] = true;
        }
    }

    #[test]
    fn banks_have_independent_tables() {
        let mut m = rrs();
        for i in 0..200u64 {
            m.on_activate(0, 7, i);
        }
        assert_eq!(m.translate(1, 7), 7, "bank 1 should be untouched");
    }

    #[test]
    fn swaps_repeat_under_sustained_hammering() {
        let mut m = rrs();
        for i in 0..2000u64 {
            m.on_activate(0, 7, i);
        }
        assert!(
            m.swap_count() >= 5,
            "only {} swaps in 2000 ACTs",
            m.swap_count()
        );
    }

    #[test]
    fn cost_in_tens_of_kb_per_bank() {
        // RRS at very low thresholds needs a large table (§III-B: 43 KB).
        let m = Rrs::new(1, 65536, RhParams::new(600, 3), 1);
        let kb = m.table_cost().total_bytes() as f64 / 1024.0;
        assert!(kb > 30.0, "RRS table only {kb} KB");
    }

    #[test]
    fn not_rfm_based() {
        assert!(!rrs().uses_rfm());
    }

    #[test]
    fn epoch_bumps_exactly_on_swaps() {
        let mut m = rrs();
        assert_eq!(m.remap_epoch(0), 0);
        for i in 0..2000u64 {
            m.on_activate(0, 7, i);
        }
        assert_eq!(m.remap_epoch(0), m.swap_count(), "all swaps hit bank 0");
        assert_eq!(m.remap_epoch(1), 0, "bank 1 never swapped");
    }
}
