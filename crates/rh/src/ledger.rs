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
//! its per-row state in one page per subarray
//! ([`Paged`](shadow_sim::Paged)), allocated on the first ACT into that
//! subarray. A victim always shares its aggressor's subarray, so one ACT
//! touches one page. A row whose page does not exist reads as zero, and a
//! restore of such a row is a no-op. Memory follows the subarrays a run
//! touches (16 B per row of a touched subarray), not the size of the bank.
//!
//! ## Lazy restores
//!
//! Restores only ever *zero* state, so they commute with each other and
//! can be deferred until the next time a row is touched. The ledger
//! exploits this: [`restore_all`](HammerLedger::restore_all) and aligned
//! [`restore_block`](HammerLedger::restore_block) calls are O(1) stamp
//! bumps on a monotone restore clock, and each row records the clock value
//! at which its accumulator was last materialized. A row whose stamp is
//! older than the newest restore covering it reads as zero; the zeroing is
//! applied physically on the next deposit. Because a row's pressure is
//! always the same left-to-right `f64` sum of the deposits since its last
//! covering restore, the lazy ledger is *bit-identical* to the eager one —
//! pressures, flip records, flip order, and `at_act` tags all match.
//!
//! A row needs no "already flipped" flag: pressure only grows between
//! restores and starts below `H_cnt` (which is positive), so a row has
//! flipped since its last restore exactly when its pressure is at or above
//! `H_cnt`, and a flip is recorded on the deposit that crosses it.
//!
//! A construction-time eager mode ([`HammerLedger::new_eager`]) applies
//! every restore at once (to the pages that exist) as a differential
//! reference; the equivalence tests below and the conformance fuzzer's
//! `eager-ledger` leg pin lazy == eager.

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

/// One row's disturbance state.
#[derive(Debug, Clone, Copy, Default)]
struct RowState {
    /// Accumulated effective disturbance since the last restore.
    pressure: f64,
    /// Restore-clock value at which `pressure` was last materialized.
    stamp: u64,
}

/// The deferred-restore clock and the stamps it writes.
#[derive(Debug, Clone, Default)]
struct RestoreClock {
    /// Monotone restore clock: bumped by every deferred restore.
    now: u64,
    /// Clock value of the latest `restore_all`.
    all: u64,
    /// Block granule for deferred `restore_block` stamps (0 = not yet
    /// fixed; adopts the first aligned block size it sees).
    block_size: u32,
    /// Clock value of the latest deferred restore covering each granule.
    blocks: Vec<u64>,
}

impl RestoreClock {
    /// Clock value of the newest deferred restore covering `row`.
    #[inline]
    fn restored_at(&self, row: u32) -> u64 {
        let block = row
            .checked_div(self.block_size)
            .and_then(|b| self.blocks.get(b as usize));
        block.map_or(self.all, |&b| b.max(self.all))
    }

    /// `state`'s pressure with any deferred restore covering `row` applied.
    #[inline]
    fn effective(&self, row: u32, state: RowState) -> f64 {
        if self.restored_at(row) > state.stamp {
            0.0
        } else {
            state.pressure
        }
    }
}

/// Per-bank Row Hammer disturbance state.
#[derive(Debug, Clone)]
pub struct HammerLedger {
    params: RhParams,
    rows: u32,
    rows_per_subarray: u32,
    /// Per-row state, one page per subarray, allocated on first deposit.
    state: Paged<RowState>,
    clock: RestoreClock,
    /// Eager reference mode: restores zero immediately — the
    /// pre-optimization implementation, kept for differential testing.
    force_eager: bool,
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
        Self::with_mode(rows, rows_per_subarray, params, false)
    }

    /// Creates a ledger in eager reference mode: every restore is applied
    /// immediately. Must be observationally bit-identical to the default
    /// lazy mode.
    pub fn new_eager(rows: u32, rows_per_subarray: u32, params: RhParams) -> Self {
        Self::with_mode(rows, rows_per_subarray, params, true)
    }

    fn with_mode(rows: u32, rows_per_subarray: u32, params: RhParams, force_eager: bool) -> Self {
        assert!(rows > 0 && rows_per_subarray > 0, "ledger needs rows");
        assert_eq!(rows % rows_per_subarray, 0, "rows must tile into subarrays");
        HammerLedger {
            params,
            rows,
            rows_per_subarray,
            state: Paged::new(rows, rows_per_subarray),
            clock: RestoreClock::default(),
            force_eager,
            flips: Vec::new(),
            acts_seen: 0,
        }
    }

    /// The model parameters.
    pub fn params(&self) -> &RhParams {
        &self.params
    }

    /// Whether this ledger runs in the eager reference mode.
    pub fn is_eager(&self) -> bool {
        self.force_eager
    }

    /// Subarrays whose rows have been materialized so far.
    pub fn subarrays_touched(&self) -> usize {
        self.state.pages_allocated()
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
        let clock = &self.clock;
        let flips = &mut self.flips;
        let page = self.state.materialize_page(row / rps);
        // Activation restores the aggressor row itself.
        page[idx as usize] = RowState {
            pressure: 0.0,
            stamp: clock.now,
        };
        let mut deposit = |i: u32, w: f64| {
            let victim = sa_lo + i;
            let s = &mut page[i as usize];
            let at = clock.restored_at(victim);
            if at > s.stamp {
                *s = RowState {
                    pressure: 0.0,
                    stamp: at,
                };
            }
            let before = s.pressure;
            s.pressure += w;
            if before < h_cnt && s.pressure >= h_cnt {
                flips.push(BitFlip { victim, at_act });
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
        let now = self.clock.now;
        if let Some(s) = self.state.get_mut(row) {
            // Supersede any pending deferred restore (they all zero too,
            // so this only saves the resolve work later).
            *s = RowState {
                pressure: 0.0,
                stamp: now,
            };
        }
    }

    /// Restores a contiguous block of rows (one REF command's coverage).
    ///
    /// Aligned calls (the steady-state refresh pattern: `start` a multiple
    /// of a fixed `count`) are O(1) deferred stamps; anything irregular
    /// falls back to the eager per-row loop.
    pub fn restore_block(&mut self, start: u32, count: u32) {
        let end = (start + count).min(self.rows);
        if start >= end {
            return;
        }
        if self.force_eager {
            for r in start..end {
                self.restore(r);
            }
            return;
        }
        if start == 0 && end == self.rows {
            self.restore_all();
            return;
        }
        let c = &mut self.clock;
        // Adopt the first aligned granule we see as the block size.
        if c.block_size == 0 && count > 0 && start.is_multiple_of(count) {
            c.block_size = count;
            let granules = (self.rows as usize).div_ceil(count as usize);
            c.blocks = vec![0; granules];
        }
        let bs = c.block_size;
        if bs != 0
            && start.is_multiple_of(bs)
            && ((end - start).is_multiple_of(bs) || end == self.rows)
        {
            c.now += 1;
            let first = (start / bs) as usize;
            let last = (end as usize).div_ceil(bs as usize);
            for b in first..last {
                c.blocks[b] = c.now;
            }
        } else {
            // Irregular span: restore eagerly (rare; tests and ad-hoc
            // callers only).
            for r in start..end {
                self.restore(r);
            }
        }
    }

    /// Restores every row (a full refresh window has elapsed).
    pub fn restore_all(&mut self) {
        if self.force_eager {
            for page in self.state.pages_mut() {
                page.iter_mut().for_each(|s| s.pressure = 0.0);
            }
        } else {
            self.clock.now += 1;
            self.clock.all = self.clock.now;
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
        self.clock.effective(row, self.state.get(row))
    }

    /// The highest-pressure row and its accumulator value.
    ///
    /// Ties break to the highest row index, and an all-zero ledger reports
    /// the last row — the `Iterator::max_by` behaviour of a full scan.
    /// Only the pages that exist are scanned: every other row reads zero.
    pub fn hottest(&self) -> (u32, f64) {
        let mut best = (self.rows - 1, 0.0f64);
        for (first, page) in self.state.pages() {
            for (r, &s) in (first..).zip(page) {
                let p = self.clock.effective(r, s);
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
        l.restore_block(0, 16); // deferred stamp
        for _ in 0..5 {
            l.on_activate(8, 0); // re-deposits on restored rows
        }
        assert_eq!(l.pressure(7), 5.0);
        assert_eq!(l.pressure(9), 5.0);
        l.restore(7); // eager single restore after the stamp
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
        let mut lazy = ledger();
        let mut eager = HammerLedger::new_eager(64, 16, RhParams::new(100, 3));
        for _ in 0..10 {
            lazy.on_activate(8, 0);
            eager.on_activate(8, 0);
        }
        assert_eq!(lazy.hottest(), (9, 10.0));
        assert_eq!(lazy.hottest(), eager.hottest());
    }
}
