//! SHADOW adapted to the [`Mitigation`] trait.
//!
//! Wraps one [`ShadowBank`] controller per bank (each with its own
//! PRINCE-CTR stream, as each chip carries its own RNG unit) and converts
//! [`RfmOutcome`](shadow_core::bank::RfmOutcome)s into the simulator's
//! [`RfmAction`] currency:
//! the incremental refresh restores one DA row, and the shuffle's two row
//! copies both restore and (mildly) disturb the four involved rows.

use crate::traits::{ActResponse, Mitigation, RfmAction};
use shadow_core::bank::{ShadowBank, ShadowConfig};
use shadow_core::timing::ShadowTiming;
use shadow_crypto::{Lfsr, PrinceRng};
use shadow_dram::timing::TimingParams;
use shadow_sim::time::Cycle;

/// SHADOW behind the common mitigation interface.
#[derive(Debug)]
pub struct ShadowMitigation {
    banks: Vec<ShadowBank>,
    raaimt: u32,
    t_rcd_extra: Cycle,
}

impl ShadowMitigation {
    /// Creates SHADOW for `banks` banks of `cfg`-shaped subarrays.
    ///
    /// `raaimt` should come from the Table II security analysis for the
    /// target `H_cnt` (e.g. 64 at 4K). `timing`/`st` determine the tRD_RM
    /// penalty in cycles.
    pub fn new(
        banks: usize,
        cfg: ShadowConfig,
        raaimt: u32,
        timing: &TimingParams,
        st: &ShadowTiming,
        seed: u64,
    ) -> Self {
        let t_rcd_extra = timing.clock.ns_to_cycles(st.t_rd_rm_ns(timing));
        ShadowMitigation {
            banks: (0..banks)
                .map(|b| ShadowBank::new(cfg, Box::new(PrinceRng::new(seed, b as u64))))
                .collect(),
            raaimt,
            t_rcd_extra,
        }
    }

    /// The recommended RAAIMT for a given `H_cnt`, following Table II's
    /// secure diagonal (RAAIMT = H_cnt / 64, clamped to [16, 256]).
    pub fn raaimt_for(h_cnt: u64) -> u32 {
        ((h_cnt / 64).clamp(16, 256)) as u32
    }

    /// Like [`ShadowMitigation::new`] but with the §VIII low-area LFSR as
    /// the per-bank RNG instead of the PRINCE CSPRNG (ablation #5).
    pub fn new_with_lfsr(
        banks: usize,
        cfg: ShadowConfig,
        raaimt: u32,
        timing: &TimingParams,
        st: &ShadowTiming,
        seed: u64,
    ) -> Self {
        let t_rcd_extra = timing.clock.ns_to_cycles(st.t_rd_rm_ns(timing));
        ShadowMitigation {
            banks: (0..banks)
                .map(|b| {
                    ShadowBank::new(
                        cfg,
                        Box::new(Lfsr::new(
                            seed ^ (b as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                        )),
                    )
                })
                .collect(),
            raaimt,
            t_rcd_extra,
        }
    }

    /// Access to a bank controller (for invariant checks in tests).
    pub fn bank(&self, b: usize) -> &ShadowBank {
        &self.banks[b]
    }

    /// Total shuffles across all banks.
    pub fn total_shuffles(&self) -> u64 {
        self.banks.iter().map(|b| b.shuffle_count()).sum()
    }
}

impl Mitigation for ShadowMitigation {
    fn name(&self) -> &'static str {
        "SHADOW"
    }

    fn translate(&mut self, bank: usize, pa_row: u32) -> u32 {
        self.banks[bank].translate(pa_row)
    }

    fn remap_epoch(&self, bank: usize) -> u64 {
        // Every shuffle moves exactly two PA rows of this bank, so the
        // per-bank shuffle count is a perfect epoch: it bumps iff the
        // mapping changed.
        self.banks[bank].shuffle_count()
    }

    fn on_activate(&mut self, bank: usize, pa_row: u32, _cycle: Cycle) -> ActResponse {
        self.banks[bank].note_activate(pa_row);
        ActResponse::default()
    }

    fn on_rfm(&mut self, bank: usize) -> RfmAction {
        let out = self.banks[bank].on_rfm();
        RfmAction {
            refreshes: vec![out.incremental_refresh_da],
            copies: vec![out.shuffle.copy_rand, out.shuffle.copy_aggr],
            channel_block_ns: 0.0,
        }
    }

    fn uses_rfm(&self) -> bool {
        true
    }

    fn raaimt(&self) -> Option<u32> {
        Some(self.raaimt)
    }

    fn t_rcd_extra_cycles(&self) -> Cycle {
        self.t_rcd_extra
    }

    fn da_rows_per_subarray(&self, rows_per_subarray: u32) -> u32 {
        rows_per_subarray + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shadow() -> ShadowMitigation {
        let cfg = ShadowConfig {
            subarrays: 4,
            rows_per_subarray: 16,
        };
        let tp = TimingParams::ddr4_2666();
        ShadowMitigation::new(2, cfg, 64, &tp, &ShadowTiming::paper_default(), 42)
    }

    #[test]
    fn trcd_extra_is_paper_6_cycles() {
        // 4.0-ish ns at 0.75 ns/tCK -> 6 tCK, giving tRCD' = 25 (paper).
        let m = shadow();
        assert_eq!(m.t_rcd_extra_cycles(), 6);
    }

    #[test]
    fn rfm_produces_refresh_and_two_copies() {
        let mut m = shadow();
        m.on_activate(0, 5, 0);
        let a = m.on_rfm(0);
        assert_eq!(a.refreshes.len(), 1);
        assert_eq!(a.copies.len(), 2);
        assert_eq!(a.channel_block_ns, 0.0);
    }

    #[test]
    fn banks_are_independent() {
        let mut m = shadow();
        m.on_activate(0, 5, 0);
        m.on_rfm(0);
        // Bank 1 was never touched: still identity.
        assert_eq!(m.translate(1, 5), 5);
        assert!(m.bank(1).check_invariants().is_ok());
    }

    #[test]
    fn translation_diverges_under_rfms() {
        let mut m = shadow();
        for i in 0..100 {
            m.on_activate(0, i % 64, 0);
            m.on_rfm(0);
        }
        let moved = (0..64)
            .filter(|&pa| m.translate(0, pa) != pa + pa / 16)
            .count();
        assert!(moved > 16, "mapping barely moved: {moved}");
        assert!(m.bank(0).check_invariants().is_ok());
    }

    #[test]
    fn raaimt_for_follows_table2_diagonal() {
        assert_eq!(ShadowMitigation::raaimt_for(8192), 128);
        assert_eq!(ShadowMitigation::raaimt_for(4096), 64);
        assert_eq!(ShadowMitigation::raaimt_for(2048), 32);
        assert_eq!(ShadowMitigation::raaimt_for(16384), 256);
        assert_eq!(ShadowMitigation::raaimt_for(512), 16); // clamped
    }

    #[test]
    fn da_space_includes_empty_rows() {
        let m = shadow();
        assert_eq!(m.da_rows_per_subarray(512), 513);
    }

    #[test]
    fn lfsr_variant_shuffles_equivalently() {
        let cfg = ShadowConfig {
            subarrays: 4,
            rows_per_subarray: 16,
        };
        let tp = TimingParams::ddr4_2666();
        let mut m =
            ShadowMitigation::new_with_lfsr(2, cfg, 64, &tp, &ShadowTiming::paper_default(), 42);
        for i in 0..100 {
            m.on_activate(0, i % 64, 0);
            m.on_rfm(0);
        }
        assert_eq!(m.total_shuffles(), 100);
        assert!(m.bank(0).check_invariants().is_ok());
        let moved = (0..64)
            .filter(|&pa| m.translate(0, pa) != pa + pa / 16)
            .count();
        assert!(moved > 16, "LFSR SHADOW barely shuffled: {moved}");
    }

    #[test]
    fn epoch_tracks_per_bank_shuffles() {
        let mut m = shadow();
        assert_eq!(m.remap_epoch(0), 0);
        assert_eq!(m.remap_epoch(1), 0);
        for i in 0..10 {
            m.on_activate(0, i % 64, 0);
            m.on_rfm(0);
        }
        assert_eq!(m.remap_epoch(0), 10, "one shuffle per RFM");
        assert_eq!(m.remap_epoch(1), 0, "bank 1 never remapped");
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = shadow();
        let mut b = shadow();
        for i in 0..50 {
            a.on_activate(0, i % 64, 0);
            b.on_activate(0, i % 64, 0);
            assert_eq!(a.on_rfm(0), b.on_rfm(0));
        }
    }
}
