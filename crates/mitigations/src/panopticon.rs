//! Panopticon (Bennett et al., DRAMSec 2021) — the per-row-counter
//! in-DRAM TRR baseline (paper §IX).
//!
//! Panopticon stores one activation counter *per DRAM row* (in modified MAT
//! structures inside the subarray), increments it on every ACT, and queues
//! a targeted refresh of the row's neighbours when the counter crosses a
//! threshold, resetting the counter. Tracking is exact, so (unlike the
//! probabilistic and summary-based schemes) no access pattern evades it —
//! but, as the paper notes, its TRR action still refreshes *victims*, so a
//! blast-attack forces `2 × radius` refreshes per trigger, which is where
//! SHADOW's shuffle-based action wins (§IX: "its TRR-based RH mitigation
//! scheme is inefficient against blast-attacks compared to row-shuffle").
//!
//! The counters live in DRAM cells (one MAT column pair), so capacity — not
//! SRAM — pays for them; [`Panopticon::capacity_overhead`] reports it.
//! The simulator allocates a subarray's counters on its first ACT; an
//! untouched subarray's counters read zero and cost nothing.

use crate::traits::{ActResponse, Mitigation};
use crate::victims_of;
use shadow_rh::RhParams;
use shadow_sim::time::Cycle;
use shadow_sim::Paged;

/// The Panopticon mitigation.
#[derive(Debug)]
pub struct Panopticon {
    /// Per-bank, per-row activation counters, one page per subarray.
    counters: Vec<Paged<u32>>,
    threshold: u32,
    rh: RhParams,
    rows_per_subarray: u32,
    trr_count: u64,
}

impl Panopticon {
    /// Counter width in bits (per row), as in the original proposal.
    pub const COUNTER_BITS: u32 = 16;

    /// Creates Panopticon for `banks` banks of `rows_per_bank` rows.
    ///
    /// The threshold is `H_cnt / (2 · W_sum)`: exact per-row counts let it
    /// sit right at the safety boundary with margin for blast aggregation.
    pub fn new(banks: usize, rows_per_bank: u32, rh: RhParams) -> Self {
        let threshold = ((rh.h_cnt as f64 / (2.0 * rh.w_sum())).floor() as u32).max(1);
        Panopticon {
            counters: Self::pages(banks, rows_per_bank, 512),
            threshold,
            rh,
            rows_per_subarray: 512,
            trr_count: 0,
        }
    }

    fn pages(banks: usize, rows_per_bank: u32, rows_per_subarray: u32) -> Vec<Paged<u32>> {
        (0..banks)
            .map(|_| Paged::new(rows_per_bank, rows_per_subarray))
            .collect()
    }

    /// Overrides the subarray size (tests use small geometries). Starts
    /// from zeroed counters, so call it before the first ACT.
    ///
    /// # Panics
    ///
    /// Panics if `rows == 0`.
    #[must_use]
    pub fn with_rows_per_subarray(mut self, rows: u32) -> Self {
        let rows_per_bank = self.counters.first().map_or(0, Paged::len);
        self.counters = Self::pages(self.counters.len(), rows_per_bank, rows);
        self.rows_per_subarray = rows;
        self
    }

    /// The trigger threshold.
    pub fn threshold(&self) -> u32 {
        self.threshold
    }

    /// TRR events fired.
    pub fn trr_count(&self) -> u64 {
        self.trr_count
    }

    /// DRAM capacity fraction consumed by the per-row counters
    /// (`COUNTER_BITS` per 8 KB row).
    pub fn capacity_overhead(&self) -> f64 {
        Self::COUNTER_BITS as f64 / (8.0 * 8192.0)
    }

    /// Clears the counters of a refreshed block (auto-refresh restores the
    /// rows, so their hammer budget restarts); subarrays never activated
    /// are skipped.
    pub fn on_refresh_block(&mut self, bank: usize, start: u32, count: u32) {
        self.counters[bank].reset_range(start, start.saturating_add(count));
    }
}

impl Mitigation for Panopticon {
    fn name(&self) -> &'static str {
        "Panopticon"
    }

    fn on_activate(&mut self, bank: usize, pa_row: u32, _cycle: Cycle) -> ActResponse {
        let c = self.counters[bank].materialize(pa_row);
        *c += 1;
        if *c < self.threshold {
            return ActResponse::default();
        }
        *c = 0;
        self.trr_count += 1;
        ActResponse {
            refreshes: victims_of(pa_row, self.rh.blast_radius, self.rows_per_subarray),
            ..ActResponse::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pan() -> Panopticon {
        Panopticon::new(2, 1024, RhParams::new(4096, 3)).with_rows_per_subarray(512)
    }

    #[test]
    fn exact_tracking_fires_at_threshold() {
        let mut p = pan();
        let th = p.threshold();
        for i in 0..(th - 1) {
            assert!(
                p.on_activate(0, 9, i as u64).refreshes.is_empty(),
                "early fire at {i}"
            );
        }
        let r = p.on_activate(0, 9, th as u64);
        assert_eq!(r.refreshes, victims_of(9, 3, 512));
        assert_eq!(p.trr_count(), 1);
    }

    #[test]
    fn no_pattern_evades_exact_counters() {
        // Interleave 50 rows; every one of them fires after exactly
        // `threshold` of its own ACTs, regardless of interleaving.
        let mut p = pan();
        let th = p.threshold() as u64;
        let mut fires = 0;
        for round in 0..th {
            for row in 0..50u32 {
                if !p.on_activate(0, row, round).refreshes.is_empty() {
                    fires += 1;
                }
            }
        }
        assert_eq!(fires, 50, "every hammered row must be caught exactly once");
    }

    #[test]
    fn counter_resets_after_fire() {
        let mut p = pan();
        let th = p.threshold();
        for i in 0..th {
            p.on_activate(0, 5, i as u64);
        }
        // Needs another full threshold to fire again.
        for i in 0..(th - 1) {
            assert!(p.on_activate(0, 5, i as u64).refreshes.is_empty());
        }
        assert!(!p.on_activate(0, 5, 0).refreshes.is_empty());
    }

    #[test]
    fn refresh_block_clears_budget() {
        let mut p = pan();
        let th = p.threshold();
        for i in 0..(th - 1) {
            p.on_activate(0, 7, i as u64);
        }
        p.on_refresh_block(0, 0, 16);
        // Budget restarted: one more ACT does not fire.
        assert!(p.on_activate(0, 7, 0).refreshes.is_empty());
    }

    #[test]
    fn capacity_overhead_under_one_percent() {
        let p = pan();
        assert!(p.capacity_overhead() < 0.01);
        assert!(p.capacity_overhead() > 0.0);
    }

    #[test]
    fn trr_cost_scales_with_blast_radius() {
        let fire = |radius: u32| -> usize {
            let mut p =
                Panopticon::new(1, 1024, RhParams::new(4096, radius)).with_rows_per_subarray(512);
            for i in 0.. {
                let r = p.on_activate(0, 50, i);
                if !r.refreshes.is_empty() {
                    return r.refreshes.len();
                }
            }
            unreachable!("exact counters always fire eventually")
        };
        // Radius-r TRR refreshes 2r victims per event: the §III-A cost.
        assert_eq!(fire(1), 2);
        assert_eq!(fire(5), 10);
    }
}
