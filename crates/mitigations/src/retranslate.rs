//! [`Retranslate`]: a wrapper that defeats the simulator's translation
//! cache, forcing a fresh [`Mitigation::translate`] call on every lookup.
//!
//! The memory system caches translated DA rows tagged with the bank's
//! [`remap_epoch`](Mitigation::remap_epoch) and only re-translates when the
//! epoch moves. `Retranslate` reports a different epoch on every query, so
//! every cached entry is always stale and the simulator falls back to
//! translate-per-scan — the pre-cache behaviour. Because `translate` is
//! required to be a pure lookup, a simulation run behind `Retranslate`
//! must be *bit-identical* to the cached run; the determinism tests pin
//! exactly that. The memory system's reference engine wraps every
//! mitigation in it, which makes that engine the uncached baseline the
//! benches measure the cache's speedup against.

use crate::traits::{ActResponse, Mitigation, RfmAction};
use shadow_sim::time::Cycle;
use std::cell::Cell;

/// A mitigation whose remap epoch never repeats, so translation caching
/// is effectively disabled.
#[derive(Debug)]
pub struct Retranslate<M> {
    inner: M,
    // Interior mutability: remap_epoch is `&self` by design (it is a
    // query, not an event), but the wrapper must return a fresh value
    // per call to keep every cache entry stale.
    ticks: Cell<u64>,
}

impl<M: Mitigation> Retranslate<M> {
    /// Wraps `inner`, defeating the simulator's translation cache.
    pub fn new(inner: M) -> Self {
        Retranslate {
            inner,
            ticks: Cell::new(0),
        }
    }

    /// The wrapped mitigation.
    pub fn inner(&self) -> &M {
        &self.inner
    }
}

impl<M: Mitigation> Mitigation for Retranslate<M> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn translate(&mut self, bank: usize, pa_row: u32) -> u32 {
        self.inner.translate(bank, pa_row)
    }

    fn remap_epoch(&self, _bank: usize) -> u64 {
        let t = self.ticks.get().wrapping_add(1);
        self.ticks.set(t);
        t
    }

    fn on_activate(&mut self, bank: usize, pa_row: u32, cycle: Cycle) -> ActResponse {
        self.inner.on_activate(bank, pa_row, cycle)
    }

    fn on_rfm(&mut self, bank: usize) -> RfmAction {
        self.inner.on_rfm(bank)
    }

    fn uses_rfm(&self) -> bool {
        self.inner.uses_rfm()
    }

    fn raaimt(&self) -> Option<u32> {
        self.inner.raaimt()
    }

    fn t_rcd_extra_cycles(&self) -> Cycle {
        self.inner.t_rcd_extra_cycles()
    }

    fn da_rows_per_subarray(&self, rows_per_subarray: u32) -> u32 {
        self.inner.da_rows_per_subarray(rows_per_subarray)
    }

    fn refresh_rate_multiplier(&self) -> u32 {
        self.inner.refresh_rate_multiplier()
    }

    fn counts_toward_rfm(&mut self, bank: usize, pa_row: u32) -> bool {
        self.inner.counts_toward_rfm(bank, pa_row)
    }

    fn abo(&self) -> Option<crate::traits::AboSpec> {
        self.inner.abo()
    }

    fn on_act_issued(&mut self, bank: usize, da_row: u32) -> bool {
        self.inner.on_act_issued(bank, da_row)
    }

    fn on_recovery_rfm(&mut self, bank: usize) -> RfmAction {
        self.inner.on_recovery_rfm(bank)
    }

    fn tracker_evictions(&self) -> u64 {
        self.inner.tracker_evictions()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::none::NoMitigation;
    use crate::parfm::Parfm;
    use shadow_rh::RhParams;

    #[test]
    fn epoch_never_repeats() {
        let m = Retranslate::new(NoMitigation::new());
        let a = m.remap_epoch(0);
        let b = m.remap_epoch(0);
        let c = m.remap_epoch(3);
        assert!(a != b && b != c && a != c, "epochs repeated: {a} {b} {c}");
    }

    #[test]
    fn everything_else_delegates() {
        let inner = Parfm::new(2, RhParams::new(4096, 3), 64, 1);
        let mut m = Retranslate::new(inner);
        assert_eq!(m.name(), "PARFM");
        assert!(m.uses_rfm());
        assert_eq!(m.raaimt(), Some(64));
        assert_eq!(m.translate(0, 42), 42);
        m.on_activate(0, 100, 0);
        assert_eq!(m.on_rfm(0).refreshes.len(), 6);
    }
}
