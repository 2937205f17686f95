//! PARFM: PARA-with-RFM (paper §VII-C).
//!
//! The natural RFM port of PARA (Kim et al., ISCA'14): on every RFM the
//! device refreshes the victims of one aggressor sampled uniformly from the
//! interval's activations — the same tracker-less reservoir sampling SHADOW
//! uses, but with TRR as the mitigating action instead of a shuffle.
//!
//! Under a blast radius `B` each mitigation must refresh `2B` victims, so
//! PARFM's per-RFM work (and its required RAAIMT for a security target)
//! degrades as the radius grows — the §III-A weakness SHADOW avoids.

use crate::traits::{ActResponse, Mitigation, RfmAction};
use crate::{bank_stream_seed, victims_of, SeedDomain};
use shadow_rh::RhParams;
use shadow_sim::rng::Xoshiro256;
use shadow_sim::time::Cycle;
use shadow_trackers::ReservoirSampler;

/// The PARFM mitigation.
///
/// Reservoir draws come from per-bank RNG substreams (disjoint PRINCE
/// counter windows, [`crate::bank_stream_seed`]) so each bank's sampling
/// sequence is independent of cross-bank ACT interleaving.
#[derive(Debug)]
pub struct Parfm {
    samplers: Vec<ReservoirSampler>,
    rngs: Vec<Xoshiro256>,
    rh: RhParams,
    rows_per_subarray: u32,
    raaimt: u32,
}

impl Parfm {
    /// Creates PARFM for `banks` banks.
    ///
    /// `raaimt` follows the paper's 1%-per-rank-year sizing for the target
    /// `H_cnt`; [`Parfm::raaimt_for`] provides the sizing rule.
    pub fn new(banks: usize, rh: RhParams, raaimt: u32, seed: u64) -> Self {
        Parfm {
            samplers: vec![ReservoirSampler::new(); banks],
            rngs: (0..banks)
                .map(|b| Xoshiro256::seed_from_u64(bank_stream_seed(seed, SeedDomain::Parfm, b)))
                .collect(),
            rh,
            rows_per_subarray: 512,
            raaimt,
        }
    }

    /// Overrides the subarray size (tests use small geometries).
    #[must_use]
    pub fn with_rows_per_subarray(mut self, rows: u32) -> Self {
        self.rows_per_subarray = rows;
        self
    }

    /// RAAIMT giving PARA-class 1%-per-rank-year protection at `h_cnt`.
    ///
    /// PARA's refresh probability per ACT scales as `~1/H_cnt`, and a wider
    /// blast radius means each sampled aggressor threatens more victims, so
    /// the sampling rate (RFM frequency) must rise proportionally. At the
    /// paper's default radius of 3 this lands PARFM moderately below
    /// SHADOW's RAAIMT (denser RFMs), matching the Fig. 8 ordering.
    pub fn raaimt_for(h_cnt: u64, blast_radius: u32) -> u32 {
        ((h_cnt * 3) / (85 * blast_radius.max(1) as u64)).clamp(8, 256) as u32
    }
}

impl Mitigation for Parfm {
    fn name(&self) -> &'static str {
        "PARFM"
    }

    fn on_activate(&mut self, bank: usize, pa_row: u32, _cycle: Cycle) -> ActResponse {
        let r = self.rngs[bank].gen_f64();
        self.samplers[bank].observe(pa_row as u64, r);
        ActResponse::default()
    }

    fn on_rfm(&mut self, bank: usize) -> RfmAction {
        let Some(aggr) = self.samplers[bank].take() else {
            return RfmAction::default();
        };
        RfmAction {
            refreshes: victims_of(aggr as u32, self.rh.blast_radius, self.rows_per_subarray),
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn refreshes_blast_range_victims() {
        let mut m = Parfm::new(1, RhParams::new(4096, 3), 64, 1);
        m.on_activate(0, 100, 0);
        let a = m.on_rfm(0);
        assert_eq!(a.refreshes.len(), 6); // ±1, ±2, ±3
        assert!(a.refreshes.contains(&97) && a.refreshes.contains(&103));
        assert!(a.copies.is_empty());
    }

    #[test]
    fn rfm_without_acts_is_noop() {
        let mut m = Parfm::new(1, RhParams::new(4096, 3), 64, 1);
        assert_eq!(m.on_rfm(0), RfmAction::default());
    }

    #[test]
    fn sampler_resets_each_interval() {
        let mut m = Parfm::new(1, RhParams::new(4096, 1), 64, 1);
        m.on_activate(0, 10, 0);
        m.on_rfm(0);
        // Next interval: only row 20 observed.
        m.on_activate(0, 20, 0);
        let a = m.on_rfm(0);
        assert_eq!(a.refreshes, vec![19, 21]);
    }

    #[test]
    fn raaimt_shrinks_with_blast_radius() {
        let r1 = Parfm::raaimt_for(4096, 1);
        let r3 = Parfm::raaimt_for(4096, 3);
        let r5 = Parfm::raaimt_for(4096, 5);
        assert!(r1 > r3 && r3 > r5, "{r1} {r3} {r5}");
    }

    #[test]
    fn banks_sample_independently() {
        let mut m = Parfm::new(2, RhParams::new(4096, 1), 64, 1);
        m.on_activate(0, 10, 0);
        m.on_activate(1, 30, 0);
        assert_eq!(m.on_rfm(1).refreshes, vec![29, 31]);
        assert_eq!(m.on_rfm(0).refreshes, vec![9, 11]);
    }
}
