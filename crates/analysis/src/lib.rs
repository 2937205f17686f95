//! # shadow-analysis
//!
//! The paper's analysis models, built as substitutes for the proprietary
//! tooling the authors used (substitutions documented in DESIGN.md §2):
//!
//! * [`power`] — a Micron-power-calculator-style energy model: per-command
//!   energies × the command counts a simulation produced, plus per-scheme
//!   extras (SHADOW's remapping-row access on every ACT, shuffle energy per
//!   RFM). Drives the Fig. 12 reproduction.
//! * [`area`] — a parametric area accounting model for the SHADOW logic
//!   (§VII-D: 0.35 mm², 0.47% of a DDR5 chip, 0.6% capacity) and for the
//!   counter structures of the baselines, exposing the headline scaling
//!   argument: tracker area grows as `H_cnt` falls, SHADOW stays flat.
//! * [`rc_timing`] — a first-order RC charge-sharing model standing in for
//!   the paper's SPICE simulation (Table III): bitline/cell capacitance
//!   ratios, the isolation transistor's ~100× capacitance reduction, and
//!   distributed-RC wire delay for the paired-subarray DA traversal.
//! * [`montecarlo`] — a fast abstract simulation of the SHADOW shuffle
//!   game, cross-checking the Appendix XI analytic probabilities at
//!   down-scaled parameters where events are frequent enough to measure.
//! * [`templating`] — quantifies §III-A's templating-defeat claim: how fast
//!   an attacker's learned PA→DA knowledge decays under shuffling.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![warn(missing_debug_implementations)]

pub mod area;
pub mod montecarlo;
pub mod power;
pub mod rc_timing;
pub mod templating;

pub use area::{AreaModel, AreaReport};
pub use montecarlo::{McParams, MonteCarlo};
pub use power::{PowerModel, PowerReport, SchemeEnergy};
pub use rc_timing::RcTimingModel;
pub use templating::TemplatingDecay;
