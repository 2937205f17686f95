//! DAPPER — a performance-attack-resilient activation tracker.
//!
//! SRAM aggressor trackers have a second attack surface besides Row Hammer
//! itself: an adversary can spray distinct rows to *thrash the tracker*,
//! evicting true aggressors (losing protection) or forcing worst-case
//! replacement work and spurious mitigations (losing performance). DAPPER's
//! answer is a decrement-based frequent-item table (Misra–Gries style):
//! when the table is full, a miss decrements *every* resident counter
//! instead of displacing a victim entry. A sprayed one-shot row can only
//! shave one count off each resident — a true aggressor with hundreds of
//! activations survives thousands of distinct-row misses — so the attacker
//! cannot purge hot rows, and the number of entries actually evicted
//! (counters decremented to zero) is a direct, reportable measure of
//! tracker pressure.
//!
//! The scheme rides the standard RFM interface: each RFM slot refreshes
//! the victims of the currently hottest tracked row and retires its entry.
//! Everything is per-bank owned data with no RNG.

use crate::traits::{ActResponse, Mitigation, RfmAction};
use crate::victims_of;
use shadow_rh::RhParams;
use shadow_sim::time::Cycle;

/// One bank's decrement-based frequent-item table.
///
/// Entries are kept in insertion order in a plain `Vec`, making every
/// operation — including which entries die on a decrement sweep —
/// deterministic, unlike a hash-table tracker whose iteration order leaks
/// the hasher seed.
#[derive(Debug, Clone)]
struct DecrementTable {
    entries: Vec<(u32, u32)>, // (row, count), insertion order
    capacity: usize,
    evictions: u64,
}

impl DecrementTable {
    fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "tracker needs at least one entry");
        DecrementTable {
            entries: Vec::with_capacity(capacity),
            capacity,
            evictions: 0,
        }
    }

    /// Observes one activation of `row`.
    fn observe(&mut self, row: u32) {
        if let Some(e) = self.entries.iter_mut().find(|e| e.0 == row) {
            e.1 += 1;
            return;
        }
        if self.entries.len() < self.capacity {
            self.entries.push((row, 1));
            return;
        }
        // Full-table miss: the Misra–Gries step. Decrement everyone and
        // drop the entries that reach zero; the missing row is NOT
        // admitted, which is exactly what blunts spray attacks.
        let before = self.entries.len();
        for e in &mut self.entries {
            e.1 -= 1;
        }
        self.entries.retain(|e| e.1 > 0);
        self.evictions += (before - self.entries.len()) as u64;
    }

    /// The hottest tracked row (ties break toward the smallest row id), or
    /// `None` when the table is empty.
    fn hottest(&self) -> Option<u32> {
        self.entries
            .iter()
            .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))
            .map(|e| e.0)
    }

    /// Retires `row`'s entry after it has been mitigated.
    fn retire(&mut self, row: u32) {
        self.entries.retain(|e| e.0 != row);
    }
}

/// The DAPPER mitigation: one `DecrementTable` per bank, serviced
/// through the JEDEC RFM interface.
#[derive(Debug)]
pub struct Dapper {
    tables: Vec<DecrementTable>,
    rh: RhParams,
    rows_per_subarray: u32,
    raaimt: u32,
    capacity: usize,
}

impl Dapper {
    /// Creates DAPPER for `banks` banks at threshold `rh`.
    pub fn new(banks: usize, rh: RhParams) -> Self {
        assert!(banks > 0, "need at least one bank");
        let capacity = Self::capacity_for(rh.h_cnt);
        Dapper {
            tables: (0..banks).map(|_| DecrementTable::new(capacity)).collect(),
            rh,
            rows_per_subarray: 512,
            raaimt: Self::raaimt_for(rh.h_cnt, rh.blast_radius),
            capacity,
        }
    }

    /// Overrides the subarray size (tests use small geometries).
    #[must_use]
    pub fn with_rows_per_subarray(mut self, rows: u32) -> Self {
        self.rows_per_subarray = rows;
        self
    }

    /// Table entries per bank: a Misra–Gries table with `k` entries bounds
    /// the undercount of any row by `N/(k+1)` over `N` observed ACTs, so
    /// the table scales inversely with how early a hot row must be caught.
    pub fn capacity_for(h_cnt: u64) -> usize {
        (2048 / h_cnt.max(1)).clamp(8, 512) as usize * 4
    }

    /// RFM cadence: mitigate well before any tracked row can reach
    /// `h_cnt`, with a wider blast radius splitting the budget.
    pub fn raaimt_for(h_cnt: u64, blast_radius: u32) -> u32 {
        (h_cnt / (4 * blast_radius.max(1) as u64)).clamp(8, 256) as u32
    }

    /// Configured per-bank table capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

impl Mitigation for Dapper {
    fn name(&self) -> &'static str {
        "DAPPER"
    }

    fn on_activate(&mut self, bank: usize, pa_row: u32, _cycle: Cycle) -> ActResponse {
        self.tables[bank].observe(pa_row);
        ActResponse::default()
    }

    fn on_rfm(&mut self, bank: usize) -> RfmAction {
        let Some(row) = self.tables[bank].hottest() else {
            return RfmAction::default();
        };
        self.tables[bank].retire(row);
        RfmAction {
            refreshes: victims_of(row, self.rh.blast_radius, self.rows_per_subarray),
            copies: Vec::new(),
            channel_block_ns: 0.0,
        }
    }

    fn uses_rfm(&self) -> bool {
        true
    }

    fn raaimt(&self) -> Option<u32> {
        Some(self.raaimt)
    }

    fn tracker_evictions(&self) -> u64 {
        self.tables.iter().map(|t| t.evictions).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dapper() -> Dapper {
        Dapper::new(2, RhParams::new(4096, 2)).with_rows_per_subarray(512)
    }

    #[test]
    fn rfm_refreshes_hottest_rows_victims() {
        let mut d = dapper();
        for _ in 0..50 {
            d.on_activate(0, 100, 0);
        }
        for _ in 0..10 {
            d.on_activate(0, 7, 0);
        }
        let a = d.on_rfm(0);
        assert_eq!(a.refreshes, victims_of(100, 2, 512));
        // Entry retired: next RFM serves the runner-up.
        let b = d.on_rfm(0);
        assert_eq!(b.refreshes, victims_of(7, 2, 512));
    }

    #[test]
    fn spray_cannot_purge_a_heavy_hitter() {
        let mut d = Dapper::new(1, RhParams::new(4096, 1));
        let cap = d.capacity() as u32;
        for _ in 0..10_000 {
            d.on_activate(0, 1, 0);
        }
        // Spray: distinct one-shot rows, several times the table size.
        for r in 0..(cap * 8) {
            d.on_activate(0, 1000 + r, 0);
        }
        assert_eq!(
            d.on_rfm(0).refreshes,
            victims_of(1, 1, 512),
            "heavy hitter must survive the spray"
        );
        assert!(
            d.tracker_evictions() > 0,
            "spray must register as evictions"
        );
    }

    #[test]
    fn eviction_counter_counts_zeroed_entries() {
        let mut d = Dapper::new(1, RhParams::new(4096, 1));
        let cap = d.capacity() as u32;
        // Fill the table with singletons, then one miss decrements all of
        // them to zero: every entry evicts at once.
        for r in 0..cap {
            d.on_activate(0, r, 0);
        }
        assert_eq!(d.tracker_evictions(), 0);
        d.on_activate(0, 999_999, 0);
        assert_eq!(d.tracker_evictions(), cap as u64);
    }

    #[test]
    fn empty_table_rfm_is_noop() {
        let mut d = dapper();
        assert_eq!(d.on_rfm(1), RfmAction::default());
    }

    #[test]
    fn sizing_tracks_h_cnt() {
        assert!(Dapper::capacity_for(64) > Dapper::capacity_for(4096));
        assert!(Dapper::raaimt_for(512, 1) > Dapper::raaimt_for(512, 4));
        let d = dapper();
        assert!(d.uses_rfm());
        assert!(d.raaimt().is_some());
        assert!(d.abo().is_none(), "DAPPER is RFM-based, not ABO");
    }
}
