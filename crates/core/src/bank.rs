//! The per-bank SHADOW controller (paper §V-C, Fig. 5 and Fig. 6).
//!
//! Responsibilities, mirroring the hardware:
//!
//! * **PA→DA translation** on every ACT: the row address from the MC indexes
//!   the target subarray's remapping-row (held in the *paired* subarray);
//!   the returned DA drives the local row decoder.
//! * **Aggressor sampling**: `Row_aggr` is chosen uniformly among the ACTs
//!   of the current RFM interval with a single latch + random number
//!   (reservoir-of-one; no SRAM/CAM table).
//! * **On RFM** (Fig. 6(b)): read the remapping-row, perform the
//!   DA-round-robin incremental refresh (§IV-C), execute the two-row-copy
//!   shuffle, and write the remapping-row back.
//!
//! A subarray's remapping table is created by the first RFM that shuffles
//! that subarray; before then its mapping is the identity, which
//! [`ShadowBank::translate`] and [`ShadowBank::reverse`] answer without a
//! table. A bank that RFMs never reached holds no tables at all.
//!
//! The controller is pure mechanism: all timing is modelled by
//! [`crate::timing::ShadowTiming`] and charged by the memory-system
//! simulator; all disturbance effects are reported through [`RfmOutcome`]
//! for the fault model to apply.

use crate::remap::{RemapTable, ShuffleOps};
use shadow_crypto::RandomSource;
use shadow_trackers::ReservoirSampler;

/// Static configuration of one SHADOW bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShadowConfig {
    /// Subarrays in the bank.
    pub subarrays: u32,
    /// MC-visible rows per subarray (512 in the paper).
    pub rows_per_subarray: u32,
}

impl ShadowConfig {
    /// The paper's configuration: 128 subarrays × 512 rows.
    pub fn paper_default() -> Self {
        ShadowConfig {
            subarrays: 128,
            rows_per_subarray: 512,
        }
    }
}

/// What one RFM did, for the fault model and statistics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RfmOutcome {
    /// Subarray the mitigation targeted (the sampled aggressor's subarray).
    pub target_subarray: u32,
    /// DA row (bank-relative, including empty-row slots) refreshed by the
    /// incremental refresh.
    pub incremental_refresh_da: u32,
    /// The shuffle's physical copies, in bank-relative DA space.
    pub shuffle: ShuffleOps,
    /// The PA rows that were shuffled (aggressor, random partner).
    pub shuffled_pa: (u32, u32),
}

/// Per-bank SHADOW state: one remapping table per subarray plus the
/// controller's sampling latches and RNG buffer.
///
/// A subarray's remapping-row holds the identity mapping until the first
/// RFM shuffles that subarray (§IV-B), so its [`RemapTable`] is created
/// then; until it exists, translation is the identity and the empty row
/// sits in slot `rows_per_subarray`. State therefore follows the subarrays
/// RFMs reach, not the size of the bank.
#[derive(Debug)]
pub struct ShadowBank {
    cfg: ShadowConfig,
    /// One table per subarray, `None` while the mapping is the identity.
    tables: Vec<Option<Box<RemapTable>>>,
    sampler: ReservoirSampler,
    rng: Box<dyn RandomSource>,
    rfms: u64,
    shuffles: u64,
}

impl ShadowBank {
    /// Creates a bank with identity mappings (no table is allocated).
    ///
    /// # Panics
    ///
    /// Panics if the configuration has zero subarrays or rows.
    pub fn new(cfg: ShadowConfig, rng: Box<dyn RandomSource>) -> Self {
        assert!(
            cfg.subarrays > 0 && cfg.rows_per_subarray > 0,
            "empty geometry"
        );
        ShadowBank {
            cfg,
            tables: (0..cfg.subarrays).map(|_| None).collect(),
            sampler: ReservoirSampler::new(),
            rng,
            rfms: 0,
            shuffles: 0,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &ShadowConfig {
        &self.cfg
    }

    /// Physical DA rows per subarray (ordinary + empty).
    pub fn da_rows_per_subarray(&self) -> u32 {
        self.cfg.rows_per_subarray + 1
    }

    /// Total physical DA rows in the bank.
    pub fn da_rows(&self) -> u32 {
        self.cfg.subarrays * self.da_rows_per_subarray()
    }

    /// Translates an MC (PA) row to the bank-relative device (DA) row.
    ///
    /// DA rows are numbered with `rows_per_subarray + 1` slots per subarray,
    /// so the empty rows occupy real addresses and physical adjacency is
    /// faithful.
    ///
    /// # Panics
    ///
    /// Panics if `pa_row` is out of range.
    pub fn translate(&self, pa_row: u32) -> u32 {
        let sa = pa_row / self.cfg.rows_per_subarray;
        assert!(sa < self.cfg.subarrays, "PA row {pa_row} out of range");
        let idx = pa_row % self.cfg.rows_per_subarray;
        let slot = match &self.tables[sa as usize] {
            Some(t) => t.da_of(idx),
            None => idx,
        };
        sa * self.da_rows_per_subarray() + slot
    }

    /// Reverse translation: which PA row currently lives at a DA row
    /// (`None` for empty slots).
    pub fn reverse(&self, da_row: u32) -> Option<u32> {
        let per = self.da_rows_per_subarray();
        let sa = da_row / per;
        assert!(sa < self.cfg.subarrays, "DA row {da_row} out of range");
        let slot = da_row % per;
        let idx = match &self.tables[sa as usize] {
            Some(t) => t.pa_of(slot),
            None => (slot < self.cfg.rows_per_subarray).then_some(slot),
        };
        idx.map(|idx| sa * self.cfg.rows_per_subarray + idx)
    }

    /// Records an ACT of `pa_row` for aggressor sampling (one reservoir
    /// draw; called by the MC model alongside the real ACT).
    pub fn note_activate(&mut self, pa_row: u32) {
        // One buffered random word supplies the reservoir draw.
        let r = (self.rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        self.sampler.observe(pa_row as u64, r);
    }

    /// Executes the RFM sequence of Fig. 6(b) and reports what happened.
    ///
    /// If no ACT occurred in the interval, a uniformly random row stands in
    /// as the "aggressor" (the hardware always shuffles on RFM).
    pub fn on_rfm(&mut self) -> RfmOutcome {
        self.rfms += 1;
        let total_rows = self.cfg.subarrays * self.cfg.rows_per_subarray;
        let aggr_pa = self
            .sampler
            .take()
            .map(|v| v as u32)
            .unwrap_or_else(|| self.rng.gen_below(total_rows as u64) as u32);
        let sa = aggr_pa / self.cfg.rows_per_subarray;
        let aggr_idx = aggr_pa % self.cfg.rows_per_subarray;
        let rows = self.cfg.rows_per_subarray;
        let table = self.tables[sa as usize].get_or_insert_with(|| Box::new(RemapTable::new(rows)));

        // (2) Incremental refresh at the DA pointer (§IV-C).
        let refreshed_slot = table.advance_incr_ptr();

        // (3) Row-shuffle with a fresh random partner row.
        let rand_idx = self.rng.gen_below(self.cfg.rows_per_subarray as u64) as u32;
        let ops = table.shuffle(aggr_idx, rand_idx);
        self.shuffles += 1;

        let base = sa * self.da_rows_per_subarray();
        RfmOutcome {
            target_subarray: sa,
            incremental_refresh_da: base + refreshed_slot,
            shuffle: ShuffleOps {
                copy_rand: (base + ops.copy_rand.0, base + ops.copy_rand.1),
                copy_aggr: (base + ops.copy_aggr.0, base + ops.copy_aggr.1),
                new_empty: base + ops.new_empty,
            },
            shuffled_pa: (aggr_pa, sa * self.cfg.rows_per_subarray + rand_idx),
        }
    }

    /// RFMs processed.
    pub fn rfm_count(&self) -> u64 {
        self.rfms
    }

    /// Shuffles performed.
    pub fn shuffle_count(&self) -> u64 {
        self.shuffles
    }

    /// A subarray's remapping table, or `None` while no RFM has shuffled
    /// it (its mapping is then the identity).
    ///
    /// # Panics
    ///
    /// Panics if `sa` is out of range.
    pub fn table(&self, sa: u32) -> Option<&RemapTable> {
        self.tables[sa as usize].as_deref()
    }

    /// Verifies the mapping invariant of every subarray that has a table
    /// (the others hold the identity, which satisfies it).
    ///
    /// # Errors
    ///
    /// Reports the first subarray whose table is inconsistent.
    pub fn check_invariants(&self) -> Result<(), String> {
        for (i, t) in self.tables.iter().enumerate() {
            let Some(t) = t else { continue };
            t.check_invariants()
                .map_err(|e| format!("subarray {i}: {e}"))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shadow_crypto::PrinceRng;

    fn bank() -> ShadowBank {
        let cfg = ShadowConfig {
            subarrays: 4,
            rows_per_subarray: 16,
        };
        ShadowBank::new(cfg, Box::new(PrinceRng::new(7, 9)))
    }

    #[test]
    fn identity_translation_initially() {
        let b = bank();
        // PA rows map into a DA space with one extra slot per subarray.
        assert_eq!(b.translate(0), 0);
        assert_eq!(b.translate(15), 15);
        assert_eq!(b.translate(16), 17); // subarray 1 starts at DA 17
        assert_eq!(b.da_rows(), 4 * 17);
    }

    #[test]
    fn tables_appear_on_first_shuffle_only() {
        let mut b = bank();
        assert!((0..4).all(|sa| b.table(sa).is_none()));
        assert_eq!(b.reverse(16), None, "slot 16 of subarray 0 is empty");
        assert_eq!(b.reverse(17), Some(16));
        b.note_activate(20); // subarray 1
        b.on_rfm();
        assert!(b.table(1).is_some());
        assert!([0, 2, 3].iter().all(|&sa| b.table(sa).is_none()));
        assert!(b.check_invariants().is_ok());
    }

    #[test]
    fn reverse_matches_forward() {
        let mut b = bank();
        for _ in 0..50 {
            b.note_activate(5);
            b.on_rfm();
        }
        for pa in 0..64u32 {
            assert_eq!(b.reverse(b.translate(pa)), Some(pa), "pa {pa}");
        }
    }

    #[test]
    fn rfm_targets_sampled_aggressors_subarray() {
        let mut b = bank();
        b.note_activate(20); // subarray 1 (rows 16..32)
        let out = b.on_rfm();
        assert_eq!(out.target_subarray, 1);
        assert_eq!(out.shuffled_pa.0, 20);
    }

    #[test]
    fn aggressor_relocates_after_shuffle() {
        let mut b = bank();
        let before = b.translate(20);
        b.note_activate(20);
        b.on_rfm();
        assert_ne!(b.translate(20), before, "aggressor kept its DA slot");
    }

    #[test]
    fn rfm_without_acts_still_shuffles() {
        let mut b = bank();
        let out = b.on_rfm();
        assert_eq!(b.shuffle_count(), 1);
        assert!(out.target_subarray < 4);
    }

    #[test]
    fn incremental_refresh_round_robins_in_da_space() {
        let mut b = bank();
        // Force all RFMs at subarray 0 by always activating row 0.
        let mut seen = Vec::new();
        for _ in 0..17 {
            b.note_activate(0);
            seen.push(b.on_rfm().incremental_refresh_da);
        }
        assert_eq!(seen, (0..17).collect::<Vec<u32>>());
        // 18th wraps.
        b.note_activate(0);
        assert_eq!(b.on_rfm().incremental_refresh_da, 0);
    }

    #[test]
    fn invariants_hold_under_stress() {
        let mut b = bank();
        for i in 0..5000u32 {
            b.note_activate(i % 64);
            if i % 3 == 0 {
                b.on_rfm();
            }
        }
        assert!(b.check_invariants().is_ok());
    }

    #[test]
    fn mapping_diverges_from_identity() {
        let mut b = bank();
        for i in 0..500u32 {
            b.note_activate(i % 64);
            b.on_rfm();
        }
        let moved = (0..64)
            .filter(|&pa| b.translate(pa) != pa + pa / 16)
            .count();
        // Initial layout maps pa -> pa + subarray offset; most rows should
        // have moved after 500 shuffles over 4 subarrays.
        assert!(moved > 32, "only {moved}/64 moved");
    }

    #[test]
    fn shuffle_ops_reference_target_subarray_slots() {
        let mut b = bank();
        b.note_activate(40); // subarray 2 (rows 32..48), DA base 34
        let out = b.on_rfm();
        let base = 2 * 17;
        for da in out.shuffle.activations() {
            assert!(
                (base..base + 17).contains(&da),
                "copy touched DA {da} outside subarray"
            );
        }
    }

    #[test]
    fn outcome_counts_advance() {
        let mut b = bank();
        b.on_rfm();
        b.on_rfm();
        assert_eq!(b.rfm_count(), 2);
        assert_eq!(b.shuffle_count(), 2);
    }
}
