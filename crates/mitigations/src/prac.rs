//! PRAC and PRACtical — the DDR5 per-row-activation-counter era.
//!
//! **PRAC** (JEDEC DDR5 Per Row Activation Counting) stores an activation
//! counter alongside every DRAM row, updated as part of the row cycle. When
//! a counter crosses its threshold the device asserts the ALERTn pin —
//! the *Alert Back-Off* (ABO) flow — and the controller must stop
//! activating the rank and issue all-bank recovery RFMs (`RFMab`), during
//! which the device refreshes the victims of the row that crossed. The
//! in-row counter update lengthens the row cycle, modeled here as one
//! extra tRCD cycle.
//!
//! **PRACtical** (PAPERS.md, arXiv 2507.18581) keeps the same per-row
//! counters but batches counter updates at the subarray level — hiding the
//! update latency, so no tRCD penalty — and isolates recovery at bank
//! granularity (`RFMsb`): one bank's recovery no longer stalls its
//! siblings, which is where PRAC loses most of its performance.
//!
//! Both schemes are deterministic and RNG-free: per-bank per-row counters
//! with no cross-channel state. The counters of a subarray are allocated
//! on its first ACT; an untouched subarray's counters read zero.

use crate::traits::{AboScope, AboSpec, Mitigation, RfmAction};
use crate::victims_of;
use shadow_rh::RhParams;
use shadow_sim::time::Cycle;
use shadow_sim::Paged;
use std::collections::VecDeque;

/// Which PRAC-era variant this instance models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PracMode {
    /// JEDEC PRAC: rank-scope recovery, in-row counter-update latency.
    Prac,
    /// PRACtical: batched counter updates, bank-scope recovery.
    Practical,
}

/// Per-row activation counters with the Alert Back-Off recovery flow.
#[derive(Debug)]
pub struct Prac {
    mode: PracMode,
    threshold: u32,
    rfms_per_alert: u32,
    blast_radius: u32,
    rows_per_subarray: u32,
    /// Per-bank per-DA-row activation counters (they live in the rows, so
    /// they count committed ACTs, not controller-side consults), one page
    /// per subarray.
    counters: Vec<Paged<u32>>,
    /// Per-bank queue of rows whose counters crossed, awaiting their
    /// recovery refresh.
    alerted: Vec<VecDeque<u32>>,
    alerts: u64,
}

impl Prac {
    /// JEDEC PRAC for `banks` banks of `rows_per_bank` DA rows each.
    pub fn new(banks: usize, rows_per_bank: u32, rows_per_subarray: u32, rh: RhParams) -> Self {
        Self::build(PracMode::Prac, banks, rows_per_bank, rows_per_subarray, rh)
    }

    /// PRACtical: same counters, batched updates, bank-isolated recovery.
    pub fn practical(
        banks: usize,
        rows_per_bank: u32,
        rows_per_subarray: u32,
        rh: RhParams,
    ) -> Self {
        Self::build(
            PracMode::Practical,
            banks,
            rows_per_bank,
            rows_per_subarray,
            rh,
        )
    }

    fn build(
        mode: PracMode,
        banks: usize,
        rows_per_bank: u32,
        rows_per_subarray: u32,
        rh: RhParams,
    ) -> Self {
        assert!(banks > 0, "need at least one bank");
        assert!(rows_per_bank > 0, "need at least one row");
        assert!(rows_per_subarray > 0, "need at least one row per subarray");
        Prac {
            mode,
            threshold: Self::threshold_for(rh.h_cnt, rh.blast_radius),
            rfms_per_alert: 2,
            blast_radius: rh.blast_radius,
            rows_per_subarray,
            counters: (0..banks)
                .map(|_| Paged::new(rows_per_bank, rows_per_subarray))
                .collect(),
            alerted: vec![VecDeque::new(); banks],
            alerts: 0,
        }
    }

    /// Alert threshold for `h_cnt`: fire with enough margin that the
    /// recovery refresh lands before any victim accumulates `h_cnt`
    /// disturbances (a wider blast radius splits the budget across more
    /// victims, mirroring the sizing rule the other trackers use).
    pub fn threshold_for(h_cnt: u64, blast_radius: u32) -> u32 {
        (h_cnt / (4 * blast_radius.max(1) as u64)).max(4) as u32
    }

    /// Total ABO alerts asserted so far.
    pub fn alerts(&self) -> u64 {
        self.alerts
    }
}

impl Mitigation for Prac {
    fn name(&self) -> &'static str {
        match self.mode {
            PracMode::Prac => "PRAC",
            PracMode::Practical => "PRACtical",
        }
    }

    fn abo(&self) -> Option<AboSpec> {
        Some(AboSpec {
            threshold: self.threshold,
            rfms_per_alert: self.rfms_per_alert,
            scope: match self.mode {
                PracMode::Prac => AboScope::Rank,
                PracMode::Practical => AboScope::Bank,
            },
        })
    }

    fn on_act_issued(&mut self, bank: usize, da_row: u32) -> bool {
        let c = self.counters[bank].materialize(da_row);
        *c += 1;
        if *c >= self.threshold {
            *c = 0;
            self.alerted[bank].push_back(da_row);
            self.alerts += 1;
            true
        } else {
            false
        }
    }

    fn on_recovery_rfm(&mut self, bank: usize) -> RfmAction {
        let Some(row) = self.alerted[bank].pop_front() else {
            return RfmAction::default();
        };
        RfmAction {
            refreshes: victims_of(row, self.blast_radius, self.rows_per_subarray),
            copies: Vec::new(),
            channel_block_ns: 0.0,
        }
    }

    fn t_rcd_extra_cycles(&self) -> Cycle {
        // PRAC's in-row counter update lengthens the row cycle; PRACtical's
        // subarray-batched update hides it.
        match self.mode {
            PracMode::Prac => 1,
            PracMode::Practical => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::AboScope;

    fn prac() -> Prac {
        Prac::new(2, 64, 16, RhParams::new(64, 1))
    }

    #[test]
    fn alert_fires_at_threshold_and_resets() {
        let mut p = prac();
        let th = p.abo().unwrap().threshold;
        for i in 1..th {
            assert!(!p.on_act_issued(0, 5), "premature alert at {i}");
        }
        assert!(p.on_act_issued(0, 5), "no alert at threshold {th}");
        assert_eq!(p.alerts(), 1);
        // Counter reset on the crossing: the next ACT starts from 1.
        assert!(!p.on_act_issued(0, 5));
    }

    #[test]
    fn recovery_refreshes_crossing_rows_victims() {
        let mut p = prac();
        let th = p.abo().unwrap().threshold;
        for _ in 0..th {
            p.on_act_issued(1, 5);
        }
        let a = p.on_recovery_rfm(1);
        assert_eq!(a.refreshes, victims_of(5, 1, 16));
        // Queue drained: further recovery slots are no-ops.
        assert_eq!(p.on_recovery_rfm(1), RfmAction::default());
    }

    #[test]
    fn scopes_and_trcd_differ_between_modes() {
        let p = Prac::new(1, 64, 16, RhParams::new(64, 1));
        let q = Prac::practical(1, 64, 16, RhParams::new(64, 1));
        assert_eq!(p.abo().unwrap().scope, AboScope::Rank);
        assert_eq!(q.abo().unwrap().scope, AboScope::Bank);
        assert_eq!(p.t_rcd_extra_cycles(), 1);
        assert_eq!(q.t_rcd_extra_cycles(), 0);
        assert_eq!(p.name(), "PRAC");
        assert_eq!(q.name(), "PRACtical");
        assert!(!p.uses_rfm(), "ABO flow, not the RAA/RFM interface");
    }

    #[test]
    fn threshold_scales_down_with_blast_radius() {
        assert!(Prac::threshold_for(512, 1) > Prac::threshold_for(512, 2));
        assert_eq!(Prac::threshold_for(4, 8), 4, "floor holds");
    }
}
