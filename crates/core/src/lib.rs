//! # shadow-core
//!
//! The paper's primary contribution: **SHADOW** (Shuffling Aggressor DRAM
//! Rows), an in-DRAM Row Hammer mitigation that dynamically randomizes the
//! PA→DA mapping inside each subarray on every RFM command (paper §IV–VI).
//!
//! Components:
//!
//! * [`remap`] — the per-subarray **remapping-row**: a 513-entry PA→DA table
//!   (512 ordinary rows + 1 empty row) plus the incremental-refresh pointer,
//!   exactly the 513 × 9 bit + 9 bit layout of §V-A, with the two-row-copy
//!   shuffle protocol of §IV-B implemented as a verified permutation update.
//! * [`bank`] — the per-bank **SHADOW controller** (§V-C): reservoir
//!   aggressor sampling over each RFM interval, `Row_rand` selection from
//!   the buffered CSPRNG, the RFM sequence of Fig. 6(b) (remapping-row read
//!   → incremental refresh → row-shuffle → remapping-row write), and PA→DA
//!   translation on every ACT.
//! * [`timing`] — the §VI timing model: `tRCD' = tRCD + tRD_RM`, the
//!   row-shuffle latency `tRD_RM + tRAS + tRP + 3.1·tRAS + 2·tRP` (with the
//!   SPICE-calibrated 0.55 factor of §VII-B), and the subarray-pairing /
//!   isolation-transistor ablations.
//! * [`rowimage`] — the bit-level 1 KB remapping-row encoding (513 10-bit
//!   fields + pointer + checksum) with corruption detection.
//! * [`security`] — the Appendix XI analytics: bit-flip probabilities for
//!   attack Scenarios I, II and III, their maximum, and the expansion to a
//!   DDR5 rank-year (Table II).
//!
//! ## Example
//!
//! ```
//! use shadow_core::bank::{ShadowBank, ShadowConfig};
//! use shadow_crypto::PrinceRng;
//!
//! let cfg = ShadowConfig { subarrays: 4, rows_per_subarray: 512 };
//! let mut bank = ShadowBank::new(cfg, Box::new(PrinceRng::new(1, 2)));
//!
//! // Before any shuffle the mapping is the identity.
//! assert_eq!(bank.translate(100), 100);
//! bank.note_activate(100);
//! let outcome = bank.on_rfm();
//! // The shuffle targeted the sampled aggressor's subarray.
//! assert_eq!(outcome.target_subarray, 0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![warn(missing_debug_implementations)]

pub mod bank;
pub mod math;
pub mod remap;
pub mod rowimage;
pub mod security;
pub mod timing;

pub use bank::{RfmOutcome, ShadowBank, ShadowConfig};
pub use remap::{RemapTable, ShuffleOps};
pub use security::{SecurityModel, SecurityParams};
pub use timing::ShadowTiming;
