//! The scheme registry: every mitigation the evaluation compares, and the
//! one place each is built for a [`SystemConfig`].
//!
//! The benches, the campaign engine, the conformance oracle and
//! differential fuzzer, the CLI and the examples all name a scheme by
//! [`Scheme`] and build it with [`build_mitigation`], so every consumer
//! runs the same constructor parameters and seeds, and a scheme added
//! here is swept by all of them with no further edit.

use shadow_core::bank::ShadowConfig;
use shadow_core::timing::ShadowTiming;
use shadow_mitigations::{
    BlockHammer, Dapper, Drr, Filtered, Graphene, Mithril, MithrilClass, Mitigation, NoMitigation,
    Panopticon, Para, Parfm, Prac, Rrs, ShadowMitigation,
};
use shadow_rh::RhParams;

use crate::SystemConfig;

/// Every scheme the evaluation compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// No protection (normalization reference).
    Baseline,
    /// The paper's contribution.
    Shadow,
    /// PARA-with-RFM.
    Parfm,
    /// Mithril, performance-optimized (10 KB/bank CAM).
    MithrilPerf,
    /// Mithril, area-optimized (RAAIMT = 32).
    MithrilArea,
    /// BlockHammer throttling.
    BlockHammer,
    /// Randomized Row-Swap.
    Rrs,
    /// Double refresh rate.
    Drr,
    /// Classic PARA.
    Para,
    /// MC-side Misra–Gries TRR (§IX).
    Graphene,
    /// Per-row-counter in-DRAM TRR (§IX).
    Panopticon,
    /// SHADOW behind the §VIII D-CBF RFM filter.
    ShadowFiltered,
    /// JEDEC PRAC: per-row counters, rank-scope ABO recovery (RFMAB).
    Prac,
    /// PRACtical: batched PRAC counters, bank-scope recovery (RFMSB).
    Practical,
    /// DAPPER: performance-attack-resilient decrement tracker on RFM.
    Dapper,
}

impl Scheme {
    /// Display name matching the paper's figure legends.
    pub fn name(self) -> &'static str {
        match self {
            Scheme::Baseline => "Baseline",
            Scheme::Shadow => "SHADOW",
            Scheme::Parfm => "PARFM",
            Scheme::MithrilPerf => "Mithril-perf",
            Scheme::MithrilArea => "Mithril-area",
            Scheme::BlockHammer => "BlockHammer",
            Scheme::Rrs => "RRS",
            Scheme::Drr => "DRR",
            Scheme::Para => "PARA",
            Scheme::Graphene => "Graphene",
            Scheme::Panopticon => "Panopticon",
            Scheme::ShadowFiltered => "SHADOW+filter",
            Scheme::Prac => "PRAC",
            Scheme::Practical => "PRACtical",
            Scheme::Dapper => "DAPPER",
        }
    }

    /// Every scheme, in report order.
    pub fn all() -> &'static [Scheme] {
        &[
            Scheme::Baseline,
            Scheme::Shadow,
            Scheme::ShadowFiltered,
            Scheme::Parfm,
            Scheme::MithrilPerf,
            Scheme::MithrilArea,
            Scheme::BlockHammer,
            Scheme::Rrs,
            Scheme::Drr,
            Scheme::Para,
            Scheme::Graphene,
            Scheme::Panopticon,
            Scheme::Prac,
            Scheme::Practical,
            Scheme::Dapper,
        ]
    }

    /// Parses a scheme from its display name (case-insensitive).
    pub fn from_name(name: &str) -> Option<Scheme> {
        Scheme::all()
            .iter()
            .copied()
            .find(|s| s.name().eq_ignore_ascii_case(name))
    }

    /// Whether every ACT counts toward RFM, so the protocol oracle can
    /// check RAA overflow exactly (its `raa_exact`). Only SHADOW+filter
    /// says no: `Filtered` keeps unwatched rows' ACTs off the RAA count.
    pub fn raa_exact(self) -> bool {
        self != Scheme::ShadowFiltered
    }
}

/// Down-scaling factor for *window-relative* thresholds (RRS's swap
/// threshold and BlockHammer's blacklist are defined per tREFW ≈ 85M
/// cycles, but a bench run simulates a few-M-cycle slice). Thresholds and
/// windows are multiplied by this factor so the schemes operate at the
/// same per-window trigger rates they would over a full window — the
/// standard time-dilation used when simulating window-scoped mechanisms on
/// short slices (documented in DESIGN.md §8).
pub const TIME_SCALE: f64 = 1.0 / 16.0;

/// Builds the mitigation for `scheme` sized for `cfg` and its `rh`
/// (`h_cnt` and blast radius), with the evaluation's fixed seeds.
pub fn build_mitigation(scheme: Scheme, cfg: &SystemConfig) -> Box<dyn Mitigation> {
    let banks = cfg.geometry.total_banks() as usize;
    let rh = cfg.rh;
    let rows_sa = cfg.geometry.rows_per_subarray;
    let scaled_h_cnt = ((rh.h_cnt as f64 * TIME_SCALE) as u64).max(64);
    let scaled = || RhParams::new(scaled_h_cnt, rh.blast_radius);
    let scaled_window = ((cfg.timing.t_refw as f64 * TIME_SCALE) as u64).max(1);
    let shadow = || {
        let scfg = ShadowConfig {
            subarrays: cfg.geometry.subarrays_per_bank,
            rows_per_subarray: rows_sa,
        };
        ShadowMitigation::new(
            banks,
            scfg,
            ShadowMitigation::raaimt_for(rh.h_cnt),
            &cfg.timing,
            &ShadowTiming::paper_default(),
            0xD1CE,
        )
    };
    match scheme {
        Scheme::Baseline => Box::new(NoMitigation::new()),
        Scheme::Shadow => Box::new(shadow()),
        Scheme::Parfm => Box::new(
            Parfm::new(
                banks,
                rh,
                Parfm::raaimt_for(rh.h_cnt, rh.blast_radius),
                0xFA11,
            )
            .with_rows_per_subarray(rows_sa),
        ),
        Scheme::MithrilPerf => {
            Box::new(Mithril::new(banks, MithrilClass::Perf, rh).with_rows_per_subarray(rows_sa))
        }
        Scheme::MithrilArea => {
            Box::new(Mithril::new(banks, MithrilClass::Area, rh).with_rows_per_subarray(rows_sa))
        }
        Scheme::BlockHammer => Box::new(BlockHammer::new(banks, scaled(), scaled_window)),
        Scheme::Rrs => Box::new(Rrs::new(
            banks,
            cfg.geometry.rows_per_bank(),
            scaled(),
            0x5A5A,
        )),
        Scheme::Drr => Box::new(Drr::new()),
        Scheme::Para => Box::new(Para::for_h_cnt(rh, 0xBEEF).with_rows_per_subarray(rows_sa)),
        Scheme::Graphene => {
            Box::new(Graphene::new(banks, scaled()).with_rows_per_subarray(rows_sa))
        }
        Scheme::Panopticon => Box::new(
            Panopticon::new(banks, cfg.geometry.rows_per_bank(), scaled())
                .with_rows_per_subarray(rows_sa),
        ),
        Scheme::Prac => Box::new(Prac::new(
            banks,
            cfg.geometry.rows_per_bank(),
            rows_sa,
            scaled(),
        )),
        Scheme::Practical => Box::new(Prac::practical(
            banks,
            cfg.geometry.rows_per_bank(),
            rows_sa,
            scaled(),
        )),
        Scheme::Dapper => Box::new(Dapper::new(banks, scaled()).with_rows_per_subarray(rows_sa)),
        Scheme::ShadowFiltered => {
            let watch = Filtered::<ShadowMitigation>::watch_threshold_for(scaled_h_cnt);
            Box::new(Filtered::new(shadow(), banks, watch, scaled_window))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_scheme_builds_on_tiny() {
        let cfg = SystemConfig::tiny();
        for &s in Scheme::all() {
            let m = build_mitigation(s, &cfg);
            // RFM-based schemes must resolve a RAAIMT one way or another.
            if m.uses_rfm() {
                assert!(
                    cfg.raaimt_override.or(m.raaimt()).is_some(),
                    "{} uses RFM without a RAAIMT",
                    s.name()
                );
            }
        }
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<_> = Scheme::all().iter().map(|s| s.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Scheme::all().len());
    }
}
