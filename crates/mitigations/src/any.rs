//! Devirtualized mitigation dispatch: [`AnyMitigation`].
//!
//! The scheduler's hot loop consults the mitigation on every bank visit
//! (`translate`, `remap_epoch`) and every activation (`on_activate`,
//! `on_act_issued`). Through `Box<dyn Mitigation>` each of those is an
//! indirect call the compiler can neither inline nor specialize. This
//! module wraps every built-in scheme in one enum implementing
//! [`Mitigation`] by match-dispatch, so the per-ACT path monomorphizes: a
//! `NoMitigation` translate folds to the identity, a `ShadowMitigation`
//! translate inlines its table lookup, and the branch itself is a
//! predictable jump on a tag the simulator holds in cache anyway.
//!
//! External and test-harness mitigations (the [`EpochCheck`] /
//! [`Retranslate`](crate::Retranslate) wrappers, fault injectors, ad-hoc
//! test schemes) land in the [`AnyMitigation::Dyn`] fallback arm and keep
//! the old virtual-call behaviour — same results, just without the
//! devirtualization win. Conversion is by type id
//! (`From<Box<dyn Mitigation>>`), so every existing construction site
//! keeps building boxed schemes and the simulator devirtualizes at the
//! boundary.

use std::any::{Any, TypeId};

use crate::{
    AboSpec, ActResponse, BlockHammer, Dapper, Drr, Filtered, Graphene, Mithril, Mitigation,
    NoMitigation, Panopticon, Para, Parfm, Prac, RfmAction, Rrs, ShadowMitigation,
};
use shadow_sim::time::Cycle;

/// Enum-dispatch wrapper over the built-in mitigation schemes.
///
/// Implements [`Mitigation`] by matching on the scheme tag, so calls from
/// monomorphic code (the simulator stores `AnyMitigation` directly)
/// devirtualize and inline. Build one with
/// `AnyMitigation::from(boxed_scheme)`; unknown types fall back to
/// [`AnyMitigation::Dyn`].
#[derive(Debug)]
pub enum AnyMitigation {
    /// The do-nothing baseline.
    NoMitigation(NoMitigation),
    /// SHADOW intra-subarray row shuffling.
    Shadow(ShadowMitigation),
    /// SHADOW behind the §VIII D-CBF activation filter.
    ShadowFiltered(Filtered<ShadowMitigation>),
    /// PARA-with-RFM.
    Parfm(Parfm),
    /// Mithril CbS tracker (perf or area class).
    Mithril(Mithril),
    /// BlockHammer blacklist throttling.
    BlockHammer(BlockHammer),
    /// Randomized Row-Swap.
    Rrs(Rrs),
    /// Double refresh rate.
    Drr(Drr),
    /// Classic probabilistic PARA.
    Para(Para),
    /// Graphene Misra–Gries tracker.
    Graphene(Graphene),
    /// Panopticon per-row counters.
    Panopticon(Panopticon),
    /// JEDEC PRAC / PRACtical per-row counters with Alert Back-Off.
    Prac(Prac),
    /// DAPPER decrement-on-RFM tracker.
    Dapper(Dapper),
    /// Fallback: any other [`Mitigation`] behind the original virtual
    /// dispatch (test wrappers, fault injectors, external schemes).
    Dyn(Box<dyn Mitigation>),
}

impl From<Box<dyn Mitigation>> for AnyMitigation {
    fn from(m: Box<dyn Mitigation>) -> Self {
        // Sniff the concrete type through the `Any` supertrait *before*
        // upcasting: once the box is a `Box<dyn Any>` there is no way back
        // to `Box<dyn Mitigation>` for the fallback arm.
        let id = {
            let any: &dyn Any = &*m;
            any.type_id()
        };
        macro_rules! devirt {
            ($ty:ty, $variant:ident) => {
                if id == TypeId::of::<$ty>() {
                    let any: Box<dyn Any> = m;
                    return AnyMitigation::$variant(
                        *any.downcast::<$ty>().expect("type id just matched"),
                    );
                }
            };
        }
        devirt!(NoMitigation, NoMitigation);
        devirt!(ShadowMitigation, Shadow);
        devirt!(Filtered<ShadowMitigation>, ShadowFiltered);
        devirt!(Parfm, Parfm);
        devirt!(Mithril, Mithril);
        devirt!(BlockHammer, BlockHammer);
        devirt!(Rrs, Rrs);
        devirt!(Drr, Drr);
        devirt!(Para, Para);
        devirt!(Graphene, Graphene);
        devirt!(Panopticon, Panopticon);
        devirt!(Prac, Prac);
        devirt!(Dapper, Dapper);
        AnyMitigation::Dyn(m)
    }
}

impl AnyMitigation {
    /// Whether the scheme devirtualized into a concrete arm (`false` for
    /// the [`Dyn`](Self::Dyn) fallback). Diagnostic only.
    pub fn is_devirtualized(&self) -> bool {
        !matches!(self, AnyMitigation::Dyn(_))
    }
}

/// Dispatches `$call` on the concrete scheme in every arm, so each arm's
/// call is a direct (inlinable) invocation.
macro_rules! dispatch {
    ($self:ident, $m:ident => $call:expr) => {
        match $self {
            AnyMitigation::NoMitigation($m) => $call,
            AnyMitigation::Shadow($m) => $call,
            AnyMitigation::ShadowFiltered($m) => $call,
            AnyMitigation::Parfm($m) => $call,
            AnyMitigation::Mithril($m) => $call,
            AnyMitigation::BlockHammer($m) => $call,
            AnyMitigation::Rrs($m) => $call,
            AnyMitigation::Drr($m) => $call,
            AnyMitigation::Para($m) => $call,
            AnyMitigation::Graphene($m) => $call,
            AnyMitigation::Panopticon($m) => $call,
            AnyMitigation::Prac($m) => $call,
            AnyMitigation::Dapper($m) => $call,
            AnyMitigation::Dyn($m) => $call,
        }
    };
}

impl Mitigation for AnyMitigation {
    fn name(&self) -> &'static str {
        dispatch!(self, m => m.name())
    }

    #[inline]
    fn translate(&mut self, bank: usize, pa_row: u32) -> u32 {
        dispatch!(self, m => m.translate(bank, pa_row))
    }

    #[inline]
    fn remap_epoch(&self, bank: usize) -> u64 {
        dispatch!(self, m => m.remap_epoch(bank))
    }

    #[inline]
    fn on_activate(&mut self, bank: usize, pa_row: u32, cycle: Cycle) -> ActResponse {
        dispatch!(self, m => m.on_activate(bank, pa_row, cycle))
    }

    #[inline]
    fn on_rfm(&mut self, bank: usize) -> RfmAction {
        dispatch!(self, m => m.on_rfm(bank))
    }

    fn uses_rfm(&self) -> bool {
        dispatch!(self, m => m.uses_rfm())
    }

    fn raaimt(&self) -> Option<u32> {
        dispatch!(self, m => m.raaimt())
    }

    fn t_rcd_extra_cycles(&self) -> Cycle {
        dispatch!(self, m => m.t_rcd_extra_cycles())
    }

    fn da_rows_per_subarray(&self, rows_per_subarray: u32) -> u32 {
        dispatch!(self, m => m.da_rows_per_subarray(rows_per_subarray))
    }

    fn refresh_rate_multiplier(&self) -> u32 {
        dispatch!(self, m => m.refresh_rate_multiplier())
    }

    #[inline]
    fn counts_toward_rfm(&mut self, bank: usize, pa_row: u32) -> bool {
        dispatch!(self, m => m.counts_toward_rfm(bank, pa_row))
    }

    fn abo(&self) -> Option<AboSpec> {
        dispatch!(self, m => m.abo())
    }

    #[inline]
    fn on_act_issued(&mut self, bank: usize, da_row: u32) -> bool {
        dispatch!(self, m => m.on_act_issued(bank, da_row))
    }

    fn on_recovery_rfm(&mut self, bank: usize) -> RfmAction {
        dispatch!(self, m => m.on_recovery_rfm(bank))
    }

    fn tracker_evictions(&self) -> u64 {
        dispatch!(self, m => m.tracker_evictions())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EpochCheck;

    #[test]
    fn builtins_devirtualize() {
        let m: Box<dyn Mitigation> = Box::new(NoMitigation::new());
        let any = AnyMitigation::from(m);
        assert!(any.is_devirtualized());
        assert!(matches!(any, AnyMitigation::NoMitigation(_)));

        let m: Box<dyn Mitigation> = Box::new(Drr::new());
        let any = AnyMitigation::from(m);
        assert!(matches!(any, AnyMitigation::Drr(_)));
        assert_eq!(any.name(), "DRR");
    }

    #[test]
    fn wrappers_fall_back_to_dyn() {
        let inner: Box<dyn Mitigation> = Box::new(NoMitigation::new());
        let m: Box<dyn Mitigation> = Box::new(EpochCheck::new(inner));
        let any = AnyMitigation::from(m);
        assert!(!any.is_devirtualized());
        assert!(matches!(any, AnyMitigation::Dyn(_)));
    }

    #[test]
    fn dispatch_matches_direct_calls() {
        let mut direct = Drr::new();
        let mut any = AnyMitigation::from(Box::new(Drr::new()) as Box<dyn Mitigation>);
        assert_eq!(any.name(), direct.name());
        assert_eq!(any.translate(0, 42), direct.translate(0, 42));
        assert_eq!(any.remap_epoch(0), direct.remap_epoch(0));
        assert_eq!(any.on_activate(0, 42, 7), direct.on_activate(0, 42, 7));
        assert_eq!(
            any.refresh_rate_multiplier(),
            direct.refresh_rate_multiplier()
        );
        assert_eq!(any.uses_rfm(), direct.uses_rfm());
        assert_eq!(any.abo(), direct.abo());
    }

    #[test]
    fn dyn_arm_still_behaves() {
        #[derive(Debug)]
        struct Offset;
        impl Mitigation for Offset {
            fn name(&self) -> &'static str {
                "offset"
            }
            fn translate(&mut self, _bank: usize, pa_row: u32) -> u32 {
                pa_row + 1
            }
        }
        let mut any = AnyMitigation::from(Box::new(Offset) as Box<dyn Mitigation>);
        assert_eq!(any.name(), "offset");
        assert_eq!(any.translate(0, 41), 42);
    }
}
