//! # shadow-crypto
//!
//! The in-DRAM random-number substrate of SHADOW (paper §V-C and §VIII).
//!
//! SHADOW's controller consumes random row indices to pick `Row_aggr` and
//! `Row_rand` for every RFM-triggered shuffle. The paper's default source is a
//! cryptographically secure PRNG built from the **PRINCE** block cipher
//! (Borghoff et al., ASIACRYPT 2012) running in counter mode, chosen because
//! PRINCE sustains >1 Gbit/s even at slow DRAM core clocks while SHADOW only
//! demands 126 Mbit/s per chip at `H_cnt` = 4K. A periodically re-seeded
//! **LFSR** is offered as the low-area alternative (§VIII).
//!
//! This crate implements both, from scratch:
//!
//! * [`prince`] — the full 64-bit-block, 128-bit-key FX-construction cipher,
//!   validated against the five published test vectors.
//! * [`PrinceRng`] — PRINCE-CTR keystream generator.
//! * [`Lfsr`] — 64-bit maximal-length Galois LFSR with reseed support.
//! * [`RandomSource`] — the object-safe trait the SHADOW controller draws
//!   from, so protection experiments can swap RNGs (ablation #5 in DESIGN.md).
//!
//! ## Example
//!
//! ```
//! use shadow_crypto::{PrinceRng, RandomSource};
//!
//! let mut rng = PrinceRng::new(0x0123_4567_89ab_cdef, 0xfedc_ba98_7654_3210);
//! let row = rng.gen_below(512);
//! assert!(row < 512);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![warn(missing_debug_implementations)]

pub mod lfsr;
pub mod prince;
pub mod source;

pub use lfsr::Lfsr;
pub use prince::Prince;
pub use source::{
    substream_counter_range, PrinceRng, RandomSource, KEYSTREAM_BUF_BLOCKS, SEED_SUBSTREAM_BLOCKS,
};
