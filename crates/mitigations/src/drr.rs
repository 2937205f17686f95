//! Double refresh rate (DRR) — the vendor stop-gap baseline of Fig. 8.
//!
//! Halving tREFI refreshes every row twice per nominal window, halving the
//! time an aggressor has to accumulate `H_cnt` activations. It is cheap to
//! deploy but costs steady-state bandwidth and power regardless of attack
//! activity, and it stops helping once `H_cnt` drops below what a doubled
//! rate can cover — the paper uses it as the "what deployment does today"
//! reference.

use crate::traits::Mitigation;

/// The double-refresh-rate mitigation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Drr {
    multiplier: u32,
}

impl Drr {
    /// Standard DRR: 2× refresh rate.
    pub fn new() -> Self {
        Drr { multiplier: 2 }
    }

    /// Generalized rate multiplier (4× etc. for sensitivity studies).
    ///
    /// # Panics
    ///
    /// Panics if `multiplier == 0`.
    pub fn with_multiplier(multiplier: u32) -> Self {
        assert!(multiplier > 0, "refresh multiplier must be positive");
        Drr { multiplier }
    }
}

impl Default for Drr {
    fn default() -> Self {
        Self::new()
    }
}

impl Mitigation for Drr {
    fn name(&self) -> &'static str {
        "DRR"
    }

    fn refresh_rate_multiplier(&self) -> u32 {
        self.multiplier
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn doubles_refresh_rate() {
        assert_eq!(Drr::new().refresh_rate_multiplier(), 2);
        assert_eq!(Drr::with_multiplier(4).refresh_rate_multiplier(), 4);
    }

    #[test]
    fn otherwise_inert() {
        let mut m = Drr::new();
        assert!(!m.uses_rfm());
        assert_eq!(m.translate(0, 5), 5);
        assert_eq!(m.t_rcd_extra_cycles(), 0);
    }

    #[test]
    #[should_panic]
    fn zero_multiplier_rejected() {
        let _ = Drr::with_multiplier(0);
    }
}
