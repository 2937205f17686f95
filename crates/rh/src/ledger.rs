//! The disturbance ledger: per-row accumulation and bit-flip detection.
//!
//! One [`HammerLedger`] models one bank. Every ACT deposits
//! distance-weighted disturbance on the victims inside the aggressor's
//! subarray (threat-model item 3: disturbance never crosses subarrays).
//! Any charge-restoring event — auto-refresh, TRR, SHADOW's incremental
//! refresh, or an activation of the row itself (ACT-PRE restores the row) —
//! resets that row's accumulator. A victim whose accumulator reaches
//! `H_cnt` is recorded as a [`BitFlip`].
//!
//! The ledger works in *device* row addresses (DA): mitigations that remap
//! rows (SHADOW, RRS) translate PA→DA before calling in, which is exactly
//! how physical adjacency works on a real part.
//!
//! ## Paged rows
//!
//! A row the run never touches holds zero disturbance, so the ledger keeps
//! its per-row accumulators in one page per subarray
//! ([`Paged`]), allocated on the first ACT into that
//! subarray. A victim always shares its aggressor's subarray, so one ACT
//! touches one page. A row whose page does not exist reads as zero, and a
//! restore of such a row is a no-op. Memory follows the subarrays a run
//! touches (8 B per row of a touched subarray), not the size of the bank.
//!
//! ## Restores
//!
//! Every restore zeroes its rows at once, in the pages that exist: a REF's
//! [`restore_block`](HammerLedger::restore_block) clears the slice of the
//! one or two pages its rows fall in, and
//! [`restore_all`](HammerLedger::restore_all) clears every allocated page.
//! A row's pressure is therefore the left-to-right `f64` sum of the
//! deposits since its last restore.
//!
//! A row needs no "already flipped" flag: pressure only grows between
//! restores and starts below `H_cnt` (which is positive), so a row has
//! flipped since its last restore exactly when its pressure is at or above
//! `H_cnt`, and a flip is recorded on the deposit that crosses it.

use crate::model::RhParams;
use shadow_sim::Paged;

/// A recorded Row Hammer bit-flip.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BitFlip {
    /// The victim row (device address).
    pub victim: u32,
    /// Ledger-local event index (ACT sequence number) when it flipped.
    pub at_act: u64,
}

/// Per-bank Row Hammer disturbance state.
#[derive(Debug, Clone)]
pub struct HammerLedger {
    params: RhParams,
    rows: u32,
    rows_per_subarray: u32,
    /// Per-row accumulated disturbance since the last restore, one page
    /// per subarray, allocated on first deposit.
    pressure: Paged<f64>,
    flips: Vec<BitFlip>,
    acts_seen: u64,
}

impl HammerLedger {
    /// Creates a ledger for a bank of `rows` rows in subarrays of
    /// `rows_per_subarray`.
    ///
    /// # Panics
    ///
    /// Panics if `rows == 0`, `rows_per_subarray == 0`, or `rows` is not a
    /// multiple of `rows_per_subarray`.
    pub fn new(rows: u32, rows_per_subarray: u32, params: RhParams) -> Self {
        assert!(rows > 0 && rows_per_subarray > 0, "ledger needs rows");
        assert_eq!(rows % rows_per_subarray, 0, "rows must tile into subarrays");
        HammerLedger {
            params,
            rows,
            rows_per_subarray,
            pressure: Paged::new(rows, rows_per_subarray),
            flips: Vec::new(),
            acts_seen: 0,
        }
    }

    /// The model parameters.
    pub fn params(&self) -> &RhParams {
        &self.params
    }

    /// Subarrays whose rows have been materialized so far.
    pub fn subarrays_touched(&self) -> usize {
        self.pressure.pages_allocated()
    }

    /// Records an activation of `row` (DA). `_cycle` tags flips for reports.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    pub fn on_activate(&mut self, row: u32, _cycle: u64) {
        assert!(row < self.rows, "row {row} out of range");
        self.acts_seen += 1;
        let rps = self.rows_per_subarray;
        let sa_lo = row - row % rps;
        let idx = row - sa_lo;
        let h_cnt = self.params.h_cnt as f64;
        let at_act = self.acts_seen;
        let flips = &mut self.flips;
        let page = self.pressure.materialize_page(row / rps);
        // Activation restores the aggressor row itself.
        page[idx as usize] = 0.0;
        let mut deposit = |i: u32, w: f64| {
            let p = &mut page[i as usize];
            let before = *p;
            *p += w;
            if before < h_cnt && *p >= h_cnt {
                flips.push(BitFlip {
                    victim: sa_lo + i,
                    at_act,
                });
            }
        };
        for d in 1..=self.params.blast_radius {
            let w = self.params.weight(d);
            // Victim below.
            if idx >= d {
                deposit(idx - d, w);
            }
            // Victim above.
            if idx + d < rps {
                deposit(idx + d, w);
            }
        }
    }

    /// Restores `row` (refresh / TRR / incremental refresh / own ACT):
    /// clears its accumulator and re-arms flip detection. A no-op for a
    /// row whose subarray was never touched.
    pub fn restore(&mut self, row: u32) {
        if let Some(p) = self.pressure.get_mut(row) {
            *p = 0.0;
        }
    }

    /// Restores a contiguous block of rows (one REF command's coverage),
    /// clamped to the bank. Only the pages the block overlaps are touched.
    pub fn restore_block(&mut self, start: u32, count: u32) {
        self.pressure
            .reset_range(start, start.saturating_add(count));
    }

    /// Restores every row (a full refresh window has elapsed).
    pub fn restore_all(&mut self) {
        for page in self.pressure.pages_mut() {
            page.fill(0.0);
        }
    }

    /// All recorded bit-flips.
    pub fn flips(&self) -> &[BitFlip] {
        &self.flips
    }

    /// Clears the flip record (keeps accumulated pressure).
    pub fn clear_flips(&mut self) {
        self.flips.clear();
    }

    /// Current accumulated disturbance of `row`.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    pub fn pressure(&self, row: u32) -> f64 {
        self.pressure.get(row)
    }

    /// The highest-pressure row and its accumulator value.
    ///
    /// Ties break to the highest row index, and an all-zero ledger reports
    /// the last row — the `Iterator::max_by` behaviour of a full scan.
    /// Only the pages that exist are scanned: every other row reads zero.
    pub fn hottest(&self) -> (u32, f64) {
        let mut best = (self.rows - 1, 0.0f64);
        for (first, page) in self.pressure.pages() {
            for (r, &p) in (first..).zip(page) {
                if p > best.1 || (p == best.1 && r > best.0) {
                    best = (r, p);
                }
            }
        }
        best
    }

    /// Total ACTs observed.
    pub fn acts_seen(&self) -> u64 {
        self.acts_seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ledger() -> HammerLedger {
        HammerLedger::new(64, 16, RhParams::new(100, 3))
    }

    #[test]
    fn single_sided_flips_adjacent_first() {
        let mut l = ledger();
        for _ in 0..100 {
            l.on_activate(8, 0);
        }
        let victims: Vec<u32> = l.flips().iter().map(|f| f.victim).collect();
        assert!(
            victims.contains(&7) && victims.contains(&9),
            "victims {victims:?}"
        );
        // Distance-2 rows only accumulated 50.
        assert!(!victims.contains(&6) && !victims.contains(&10));
        assert_eq!(l.pressure(6), 50.0);
    }

    #[test]
    fn double_sided_flips_middle_twice_as_fast() {
        let mut l = ledger();
        // Alternate aggressors 7 and 9; victim 8 gets weight 1 from each,
        // so 100 total ACTs (50 per side) reach H_cnt = 100.
        for i in 0..100 {
            l.on_activate(if i % 2 == 0 { 7 } else { 9 }, 0);
        }
        assert!(
            l.flips().iter().any(|f| f.victim == 8),
            "50+50 ACTs should flip row 8"
        );
    }

    #[test]
    fn blast_attack_reaches_distance_three() {
        let mut l = ledger();
        for _ in 0..400 {
            l.on_activate(8, 0);
        }
        // Row 11 (distance 3, weight .25) accumulates 100 = H_cnt.
        assert!(l.flips().iter().any(|f| f.victim == 11));
    }

    #[test]
    fn refresh_resets_accumulation() {
        let mut l = ledger();
        for _ in 0..99 {
            l.on_activate(8, 0);
        }
        l.restore(7);
        l.on_activate(8, 0);
        // Row 7 was reset at 99, so only 1 unit of pressure now.
        assert_eq!(l.pressure(7), 1.0);
        assert!(l.flips().iter().all(|f| f.victim != 7));
        // Row 9 was not reset and flipped.
        assert!(l.flips().iter().any(|f| f.victim == 9));
    }

    #[test]
    fn own_activation_restores_row() {
        let mut l = ledger();
        for _ in 0..99 {
            l.on_activate(8, 0); // row 9 at 99 pressure
        }
        l.on_activate(9, 0); // activating 9 restores it...
        assert_eq!(l.pressure(9), 0.0);
        // ...but hammers its own neighbours 8 and 10. Row 10 held
        // 99 × weight(2) = 49.5 from the row-8 hammering, plus 1 now.
        assert_eq!(l.pressure(10), 99.0 * 0.5 + 1.0);
    }

    #[test]
    fn disturbance_confined_to_subarray() {
        let mut l = ledger();
        // Row 15 is the last row of subarray 0; rows 16+ are subarray 1.
        for _ in 0..1000 {
            l.on_activate(15, 0);
        }
        assert_eq!(l.pressure(16), 0.0, "cross-subarray disturbance");
        assert_eq!(l.pressure(17), 0.0);
        assert!(l.flips().iter().all(|f| f.victim < 16));
    }

    #[test]
    fn edge_rows_have_one_sided_victims() {
        let mut l = ledger();
        for _ in 0..100 {
            l.on_activate(0, 0);
        }
        assert!(l.flips().iter().any(|f| f.victim == 1));
        assert!(l.flips().iter().all(|f| f.victim <= 3));
    }

    #[test]
    fn restore_block_covers_range() {
        let mut l = ledger();
        for _ in 0..60 {
            l.on_activate(8, 0);
        }
        l.restore_block(0, 16);
        for r in 0..16 {
            assert_eq!(l.pressure(r), 0.0);
        }
    }

    #[test]
    fn restore_all_rearms_flips() {
        let mut l = ledger();
        for _ in 0..100 {
            l.on_activate(8, 0);
        }
        let n = l.flips().len();
        assert!(n > 0);
        l.restore_all();
        l.clear_flips();
        for _ in 0..100 {
            l.on_activate(8, 0);
        }
        assert_eq!(l.flips().len(), n, "flips should re-arm after restore");
    }

    #[test]
    fn hottest_tracks_max_pressure() {
        let mut l = ledger();
        for _ in 0..10 {
            l.on_activate(8, 0);
        }
        let (row, p) = l.hottest();
        assert!(row == 7 || row == 9);
        assert_eq!(p, 10.0);
    }

    #[test]
    fn no_duplicate_flip_until_restored() {
        let mut l = ledger();
        for _ in 0..200 {
            l.on_activate(8, 0);
        }
        let count7 = l.flips().iter().filter(|f| f.victim == 7).count();
        assert_eq!(count7, 1);
    }

    #[test]
    #[should_panic]
    fn rows_must_tile() {
        let _ = HammerLedger::new(60, 16, RhParams::new(10, 1));
    }

    #[test]
    fn lazy_restore_all_defers_but_reads_zero() {
        let mut l = ledger();
        for _ in 0..50 {
            l.on_activate(8, 0);
        }
        l.restore_all();
        for r in 0..64 {
            assert_eq!(l.pressure(r), 0.0);
        }
        assert_eq!(l.hottest(), (63, 0.0));
    }

    #[test]
    fn lazy_restore_block_unaligned_falls_back() {
        let mut l = ledger();
        for _ in 0..50 {
            l.on_activate(8, 0);
        }
        // Unaligned start: must still zero the covered range.
        l.restore_block(5, 7);
        for r in 5..12 {
            assert_eq!(l.pressure(r), 0.0, "row {r}");
        }
    }

    #[test]
    fn lazy_block_then_single_restore_interleave() {
        let mut l = ledger();
        for _ in 0..30 {
            l.on_activate(8, 0);
        }
        l.restore_block(0, 16); // one REF's block
        for _ in 0..5 {
            l.on_activate(8, 0); // re-deposits on restored rows
        }
        assert_eq!(l.pressure(7), 5.0);
        assert_eq!(l.pressure(9), 5.0);
        l.restore(7); // single-row restore after the block
        assert_eq!(l.pressure(7), 0.0);
        assert_eq!(l.pressure(9), 5.0);
    }

    #[test]
    fn pages_follow_touched_subarrays() {
        let mut l = ledger();
        assert_eq!(l.subarrays_touched(), 0);
        // A restore of an untouched subarray allocates nothing.
        l.restore(40);
        l.restore_block(0, 64);
        assert_eq!(l.subarrays_touched(), 0);
        assert_eq!(l.hottest(), (63, 0.0));
        // An ACT touches exactly its own subarray's page.
        l.on_activate(20, 0);
        assert_eq!(l.subarrays_touched(), 1);
        assert_eq!(l.pressure(19), 1.0);
        assert_eq!(l.pressure(40), 0.0);
    }

    #[test]
    fn hottest_ties_break_to_highest_index_like_full_scan() {
        // Rows 7 and 9 tie; a full scan (Iterator::max_by) keeps the last
        // maximum, so the page scan must report row 9.
        let mut l = ledger();
        for _ in 0..10 {
            l.on_activate(8, 0);
        }
        assert_eq!(l.hottest(), (9, 10.0));
    }
}
