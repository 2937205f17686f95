//! # shadow-mitigations
//!
//! Every Row Hammer mitigation the paper evaluates, behind one trait, so the
//! memory-system simulator (and the benchmark harness regenerating
//! Figures 8–12) can swap schemes freely:
//!
//! | Scheme | Paper role | Mechanism |
//! |---|---|---|
//! | [`NoMitigation`] | baseline | nothing |
//! | [`ShadowMitigation`] | the contribution | RFM-triggered intra-subarray row-shuffle + incremental refresh (`shadow-core`) |
//! | [`Parfm`] | RFM baseline (§VII-C) | PARA-with-RFM: TRR of a sampled aggressor's victims on every RFM |
//! | [`Mithril`] | RFM baseline | CbS CAM tracker; TRR of the hottest row's victims on RFM (`perf` / `area` configs) |
//! | [`BlockHammer`] | throttling baseline | dual counting Bloom filter blacklist + ACT throttling |
//! | [`Rrs`] | row-shuffle baseline | Misra–Gries tracker + channel-blocking row swaps |
//! | [`Drr`] | naive baseline | double refresh rate |
//! | [`Para`] | classic probabilistic | TRR with probability p on every ACT |
//! | [`Graphene`] | tracker baseline (§IX) | MC-side Misra–Gries + inline TRR |
//! | [`Panopticon`] | per-row-counter baseline (§IX) | exact in-DRAM counters + TRR |
//! | [`Filtered`] | §VIII optimization | D-CBF pre-filter suppressing unnecessary RFMs |
//! | [`Prac`] | PRAC-era frontier | JEDEC per-row activation counters + Alert Back-Off recovery (`PRAC` / `PRACtical` modes) |
//! | [`Dapper`] | PRAC-era frontier | performance-attack-resilient decrement tracker on the RFM interface |
//! | [`Retranslate`] | test/bench harness | wrapper defeating the simulator's translation cache (uncached reference) |
//! | [`EpochCheck`] | test harness | wrapper asserting the remap-epoch contract on every translation |
//!
//! The trait surface mirrors the three places a mitigation can act in a real
//! system: translating addresses (row indirection), reacting to ACTs
//! (tracking / throttling / probabilistic TRR), and consuming RFM slack
//! (in-DRAM mitigation work). All victim refreshes honor the configured
//! blast radius — the cost amplification §III-A describes.
//!
//! ## Example
//!
//! ```
//! use shadow_mitigations::{Mitigation, Parfm};
//! use shadow_rh::RhParams;
//!
//! let mut m = Parfm::new(4, RhParams::new(4096, 3), 64, 1);
//! m.on_activate(0, 100, 0);
//! let action = m.on_rfm(0);
//! // PARFM refreshes the sampled aggressor's victims out to the blast radius.
//! assert_eq!(action.refreshes.len(), 6);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![warn(missing_debug_implementations)]

pub mod blockhammer;
pub mod dapper;
pub mod drr;
pub mod epoch_check;
pub mod filtered;
pub mod graphene;
pub mod mithril;
pub mod none;
pub mod panopticon;
pub mod para;
pub mod parfm;
pub mod prac;
pub mod retranslate;
pub mod rrs;
pub mod shadow;
pub mod traits;

pub use blockhammer::BlockHammer;
pub use dapper::Dapper;
pub use drr::Drr;
pub use epoch_check::EpochCheck;
pub use filtered::Filtered;
pub use graphene::Graphene;
pub use mithril::{Mithril, MithrilClass};
pub use none::NoMitigation;
pub use panopticon::Panopticon;
pub use para::Para;
pub use parfm::Parfm;
pub use prac::Prac;
pub use retranslate::Retranslate;
pub use rrs::Rrs;
pub use shadow::ShadowMitigation;
pub use traits::{AboScope, AboSpec, ActResponse, Mitigation, RfmAction};

/// Seed-derivation domain separating the schemes that draw per-bank
/// randomness, so PARA/PARFM/RRS built from the same experiment seed still
/// observe independent streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeedDomain {
    /// PARA's per-ACT coin flips.
    Para,
    /// PARFM's reservoir-sampling draws.
    Parfm,
    /// RRS's swap-partner selection.
    Rrs,
}

/// Derives the RNG seed for `global_bank`'s substream of `seed`.
///
/// One PRINCE-CTR block from the bank's reserved counter window
/// ([`shadow_crypto::substream_counter_range`]) keys the bank's fast
/// generator. Distinct banks consume disjoint PRINCE counter ranges, so a
/// bank's draws do not depend on how ACTs interleave across banks. This
/// per-bank RNG model is part of every simulated outcome: the benchmark's
/// golden report digests pin it.
pub fn bank_stream_seed(seed: u64, domain: SeedDomain, global_bank: usize) -> u64 {
    use shadow_crypto::RandomSource;
    let k1 = match domain {
        SeedDomain::Para => 0x5041_5241,
        SeedDomain::Parfm => 0x5041_5246,
        SeedDomain::Rrs => 0x5252_5300,
    };
    shadow_crypto::PrinceRng::bank_substream(seed, k1, global_bank as u64).next_u64()
}

/// The victim rows of `row` out to `radius`, clamped to the subarray
/// containing `row` (threat-model item 3). Rows are bank-relative DA.
pub fn victims_of(row: u32, radius: u32, rows_per_subarray: u32) -> Vec<u32> {
    let sa_lo = (row / rows_per_subarray) * rows_per_subarray;
    let sa_hi = sa_lo + rows_per_subarray;
    let mut v = Vec::with_capacity(2 * radius as usize);
    for d in 1..=radius {
        if row >= sa_lo + d {
            v.push(row - d);
        }
        if row + d < sa_hi {
            v.push(row + d);
        }
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn victims_symmetric_interior() {
        let v = victims_of(100, 2, 512);
        assert_eq!(v, vec![99, 101, 98, 102]);
    }

    #[test]
    fn victims_clamped_at_subarray_edges() {
        assert_eq!(victims_of(0, 2, 512), vec![1, 2]);
        let v = victims_of(511, 2, 512);
        assert_eq!(v, vec![510, 509]);
        // Row 512 is the first row of subarray 1.
        let v = victims_of(512, 2, 512);
        assert_eq!(v, vec![513, 514]);
    }

    #[test]
    fn victims_radius_one() {
        assert_eq!(victims_of(5, 1, 16), vec![4, 6]);
    }
}
