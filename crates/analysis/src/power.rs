//! DRAM + system power model (paper §VII-D, Fig. 12).
//!
//! Follows the Micron power-calculator methodology: each command class has
//! an energy cost derived from IDD currents, background power accrues with
//! time, and the system-level figure adds the CPU's TDP (the paper treats
//! the i9-7940X's 165 W TDP as the processor's power). Per-scheme extras
//! model what the mitigation adds:
//!
//! * SHADOW: one short-bitline remapping-row access per ACT (the isolation
//!   transistor makes this ~100× cheaper in bitline charge than a normal
//!   ACT — the paper finds total power dominated by these accesses), plus
//!   shuffle work (incremental refresh + two row copies + remapping-row
//!   write) per RFM.
//! * PARFM / Mithril: `2 × blast_radius` victim-row refreshes per RFM.
//! * DRR: the doubled REF count shows up directly in the command counts.

use shadow_memsys::{Scheme, SimReport};

/// Per-command and background energy parameters (one rank).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerModel {
    /// Energy of one ACT+PRE pair, in nJ (all chips of the rank).
    pub e_act_pre_nj: f64,
    /// Energy of one RD burst, in nJ.
    pub e_rd_nj: f64,
    /// Energy of one WR burst, in nJ.
    pub e_wr_nj: f64,
    /// Energy of one all-bank REF, in nJ.
    pub e_ref_nj: f64,
    /// Background (standby + peripheral) power per rank, in W.
    pub background_w: f64,
    /// Clock period in ns (to convert cycles to time).
    pub t_ck_ns: f64,
    /// CPU TDP added for system-level power, in W.
    pub cpu_tdp_w: f64,
}

impl PowerModel {
    /// DDR4-2666 constants (Micron 8 Gb ×8 DDR4 class, 8-chip rank).
    pub fn ddr4_2666() -> Self {
        PowerModel {
            e_act_pre_nj: 20.0,
            e_rd_nj: 14.0,
            e_wr_nj: 15.0,
            e_ref_nj: 1400.0,
            background_w: 1.2,
            t_ck_ns: 0.75,
            cpu_tdp_w: 165.0, // i9-7940X TDP (Table IV machine)
        }
    }

    /// DDR5-4800 constants (16 Gb class).
    pub fn ddr5_4800() -> Self {
        PowerModel {
            e_act_pre_nj: 17.0,
            e_rd_nj: 11.0,
            e_wr_nj: 12.0,
            e_ref_nj: 1800.0,
            background_w: 1.5,
            t_ck_ns: 0.417,
            cpu_tdp_w: 165.0,
        }
    }
}

/// Per-scheme energy extras.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SchemeEnergy {
    /// Extra energy per ACT, in nJ (SHADOW's remapping-row access).
    pub per_act_nj: f64,
    /// Energy per RFM, in nJ (shuffles / TRR victims).
    pub per_rfm_nj: f64,
}

impl SchemeEnergy {
    /// No extras (baseline, DRR, BlockHammer).
    pub fn none() -> Self {
        Self::default()
    }

    /// SHADOW: remapping-row access ≈ 1% of an ACT+PRE (100× smaller
    /// bitline charge plus decoder overhead); per RFM: incremental refresh
    /// (1 ACT) + two row copies (2 ACTs each) + remapping-row write (~2
    /// short accesses).
    pub fn shadow(pm: &PowerModel) -> Self {
        let remap_access = pm.e_act_pre_nj * 0.012;
        SchemeEnergy {
            per_act_nj: remap_access,
            per_rfm_nj: 5.0 * pm.e_act_pre_nj + 2.0 * remap_access,
        }
    }

    /// TRR-based RFM schemes (PARFM, Mithril): `2 × blast_radius` victim
    /// refreshes, each an ACT+PRE.
    pub fn trr(pm: &PowerModel, blast_radius: u32) -> Self {
        SchemeEnergy {
            per_act_nj: 0.0,
            per_rfm_nj: 2.0 * blast_radius as f64 * pm.e_act_pre_nj,
        }
    }

    /// The extras `scheme` adds at blast radius `blast_radius`: the one
    /// scheme-to-energy mapping of the power figures. RRS swaps and the
    /// PRAC-era schemes' RFMs carry no extra here.
    pub fn for_scheme(pm: &PowerModel, scheme: Scheme, blast_radius: u32) -> Self {
        match scheme {
            Scheme::Shadow | Scheme::ShadowFiltered => Self::shadow(pm),
            Scheme::Parfm
            | Scheme::MithrilPerf
            | Scheme::MithrilArea
            | Scheme::Para
            | Scheme::Graphene
            | Scheme::Panopticon => Self::trr(pm, blast_radius),
            Scheme::Baseline
            | Scheme::BlockHammer
            | Scheme::Rrs
            | Scheme::Drr
            | Scheme::Prac
            | Scheme::Practical
            | Scheme::Dapper => Self::none(),
        }
    }

    /// RRS: each swap streams two 8 KB rows through the MC — 2 × 128
    /// RD + WR bursts plus 4 ACT/PRE pairs. Reported per *swap*; callers
    /// convert using the swap count.
    pub fn rrs_swap_nj(pm: &PowerModel) -> f64 {
        2.0 * 128.0 * (pm.e_rd_nj + pm.e_wr_nj) + 4.0 * pm.e_act_pre_nj
    }
}

/// Power computed from one simulation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerReport {
    /// DRAM power in W (per simulated memory system).
    pub dram_w: f64,
    /// DRAM + CPU TDP.
    pub system_w: f64,
    /// RFM commands per REF command (the secondary series of Fig. 12).
    pub rfm_per_ref: f64,
}

impl PowerReport {
    /// Computes power for a run under `pm` with `extra` scheme energies and
    /// `ranks` ranks of background power.
    pub fn from_report(pm: &PowerModel, extra: &SchemeEnergy, r: &SimReport, ranks: u32) -> Self {
        let time_s = r.cycles as f64 * pm.t_ck_ns * 1e-9;
        let acts = r.commands.get("ACT") as f64;
        let rds = r.commands.get("RD") as f64;
        let wrs = r.commands.get("WR") as f64;
        let refs = r.commands.get("REF") as f64;
        let rfms = r.commands.get("RFM") as f64;
        let dynamic_nj = acts * (pm.e_act_pre_nj + extra.per_act_nj)
            + rds * pm.e_rd_nj
            + wrs * pm.e_wr_nj
            + refs * pm.e_ref_nj
            + rfms * extra.per_rfm_nj;
        let dram_w = if time_s > 0.0 {
            dynamic_nj * 1e-9 / time_s + pm.background_w * ranks as f64
        } else {
            pm.background_w * ranks as f64
        };
        PowerReport {
            dram_w,
            system_w: dram_w + pm.cpu_tdp_w,
            rfm_per_ref: if refs > 0.0 { rfms / refs } else { 0.0 },
        }
    }

    /// System power relative to a baseline run.
    pub fn relative_to(&self, base: &PowerReport) -> f64 {
        self.system_w / base.system_w
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shadow_sim::stats::Counter;

    fn report(act: u64, rd: u64, refs: u64, rfm: u64, cycles: u64) -> SimReport {
        let mut commands = Counter::new();
        commands.add("ACT", act);
        commands.add("PRE", act);
        commands.add("RD", rd);
        commands.add("REF", refs);
        commands.add("RFM", rfm);
        SimReport {
            scheme: "t".into(),
            cycles,
            core_names: vec![],
            completed: vec![],
            commands,
            flips: vec![],
            channel_blocked_cycles: 0,
            throttle_cycles: 0,
            latency: shadow_sim::stats::Histogram::new(16, 256),
            abo_events: 0,
            abo_recovery_cycles: 0,
            tracker_evictions: 0,
            channel_busy_cycles: vec![],
            sched_passes: 0,
            pass_cycles: 0,
            gate_rank_skips: vec![],
            gate_bus_skips: 0,
            profile: None,
        }
    }

    #[test]
    fn dram_power_in_plausible_range() {
        // ~1M ACTs + reads over 10M cycles (7.5 ms) on 8 ranks.
        let pm = PowerModel::ddr4_2666();
        let r = report(1_000_000, 1_500_000, 1000, 0, 10_000_000);
        let p = PowerReport::from_report(&pm, &SchemeEnergy::none(), &r, 8);
        assert!(
            p.dram_w > 5.0 && p.dram_w < 50.0,
            "DRAM power {} W",
            p.dram_w
        );
        assert!(p.system_w > pm.cpu_tdp_w);
    }

    #[test]
    fn shadow_power_overhead_is_sub_percent() {
        // The paper's claim: < 0.63% system power overhead even at 2K H_cnt.
        let pm = PowerModel::ddr4_2666();
        let base_run = report(1_000_000, 1_500_000, 1000, 0, 10_000_000);
        // SHADOW run: same work plus an RFM per 32 ACTs.
        let shadow_run = report(1_000_000, 1_500_000, 1000, 31_250, 10_000_000);
        let base = PowerReport::from_report(&pm, &SchemeEnergy::none(), &base_run, 8);
        let sh = PowerReport::from_report(&pm, &SchemeEnergy::shadow(&pm), &shadow_run, 8);
        let rel = sh.relative_to(&base);
        assert!(rel > 1.0, "SHADOW cannot cost nothing");
        assert!(rel < 1.01, "system overhead {rel} above the paper's band");
    }

    #[test]
    fn remap_access_dominates_shuffle_energy() {
        // Paper §VII-D: power is dominated by remapping-row accesses, not
        // the shuffles, because ACTs outnumber RFMs by RAAIMT.
        let pm = PowerModel::ddr4_2666();
        let e = SchemeEnergy::shadow(&pm);
        let acts_per_rfm = 64.0;
        let remap_total = e.per_act_nj * acts_per_rfm;
        let shuffle_total = e.per_rfm_nj;
        // Same order of magnitude, with neither below 10% of the other.
        let ratio = remap_total / shuffle_total;
        assert!(ratio > 0.05 && ratio < 20.0, "ratio {ratio}");
    }

    #[test]
    fn trr_energy_scales_with_blast() {
        let pm = PowerModel::ddr4_2666();
        let b1 = SchemeEnergy::trr(&pm, 1).per_rfm_nj;
        let b3 = SchemeEnergy::trr(&pm, 3).per_rfm_nj;
        assert!((b3 / b1 - 3.0).abs() < 1e-9);
    }

    #[test]
    fn rrs_swap_far_pricier_than_shadow_shuffle() {
        let pm = PowerModel::ddr4_2666();
        let swap = SchemeEnergy::rrs_swap_nj(&pm);
        let shuffle = SchemeEnergy::shadow(&pm).per_rfm_nj;
        assert!(swap > 10.0 * shuffle, "swap {swap} vs shuffle {shuffle}");
    }

    #[test]
    fn rfm_per_ref_ratio() {
        let pm = PowerModel::ddr4_2666();
        let r = report(100, 100, 50, 25, 1000);
        let p = PowerReport::from_report(&pm, &SchemeEnergy::none(), &r, 1);
        assert!((p.rfm_per_ref - 0.5).abs() < 1e-12);
    }

    #[test]
    fn zero_cycles_degenerates_gracefully() {
        let pm = PowerModel::ddr4_2666();
        let r = report(0, 0, 0, 0, 0);
        let p = PowerReport::from_report(&pm, &SchemeEnergy::none(), &r, 2);
        assert_eq!(p.dram_w, 2.0 * pm.background_w);
    }
}
