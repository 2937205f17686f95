//! # shadow-trackers
//!
//! Streaming frequent-item trackers — the SRAM/CAM counter structures that
//! the paper's baseline mitigations are built on (§III-B, §IX), plus the
//! tracker-less reservoir sampler that SHADOW uses instead (§IV-B).
//!
//! * [`MisraGries`] — the deterministic heavy-hitter summary used by
//!   Graphene and RRS.
//! * [`CounterSummary`] — the Counter-based Summary (CbS, a Space-Saving
//!   variant) used by Mithril.
//! * [`CountingBloom`] / [`DualBloom`] — the dual counting Bloom filter used
//!   by BlockHammer to blacklist rapidly-accessed rows.
//! * [`GroupCountTable`] — Hydra's two-level group/row counter (§VIII lists
//!   it as an alternative RFM pre-filter).
//! * [`ReservoirSampler`] — uniform reservoir-of-one sampling over a window;
//!   SHADOW's way of picking `Row_aggr` among the last RAAIMT activations
//!   with nothing but a latch and a random number.
//!
//! All trackers also report their hardware cost through
//! [`TrackerCost`], which feeds the area model in `shadow-analysis`
//! (the paper's headline scalability argument: these structures grow with
//! `1/H_cnt` while SHADOW stays flat).
//!
//! ## Example
//!
//! ```
//! use shadow_trackers::MisraGries;
//! let mut mg = MisraGries::new(2);
//! for row in [7u64, 7, 7, 9, 9, 3] {
//!     mg.observe(row);
//! }
//! let (top_row, _count) = mg.max_entry().unwrap();
//! assert_eq!(top_row, 7);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![warn(missing_debug_implementations)]

pub mod bloom;
pub mod cbs;
pub mod cost;
pub mod gct;
pub mod misra_gries;
pub mod reservoir;

pub use bloom::{CountingBloom, DualBloom};
pub use cbs::CounterSummary;
pub use cost::TrackerCost;
pub use gct::GroupCountTable;
pub use misra_gries::MisraGries;
pub use reservoir::ReservoirSampler;
