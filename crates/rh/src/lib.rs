//! # shadow-rh
//!
//! The Row Hammer fault model and attack-pattern generators for the SHADOW
//! reproduction — the paper's threat model (§II-D) made executable.
//!
//! * [`model`] — disturbance parameters: hammer threshold `H_cnt`, blast
//!   radius with distance-halved weights (threat-model item 2), the
//!   aggregate victim weight `W_sum` (Appendix XI, default 3.5).
//! * [`ledger`] — [`HammerLedger`]: per-bank
//!   accumulation of effective disturbance per row, reset by any
//!   charge-restoring event (refresh, activation of the row itself), with a
//!   bit-flip record when accumulated disturbance crosses `H_cnt` inside one
//!   refresh window.
//! * [`attack`] — generators for the access patterns the evaluation uses:
//!   single-/double-/many-sided hammering, blast patterns, and the paper's
//!   adversarial Scenarios I–III against SHADOW (Appendix XI).
//!
//! ## Example
//!
//! ```
//! use shadow_rh::model::RhParams;
//! use shadow_rh::ledger::HammerLedger;
//!
//! let params = RhParams::new(1000, 2); // H_cnt = 1000, blast radius 2
//! let mut ledger = HammerLedger::new(64, 16, params); // 64 rows, 16-row subarrays
//! for _ in 0..1000 {
//!     ledger.on_activate(8, 0);
//! }
//! // Distance-1 victims have accumulated weight 1.0 each per ACT.
//! assert!(ledger.flips().iter().any(|f| f.victim == 7 || f.victim == 9));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![warn(missing_debug_implementations)]

pub mod attack;
pub mod ledger;
pub mod model;

pub use attack::{AttackPattern, HammerKind};
pub use ledger::{BitFlip, HammerLedger};
pub use model::RhParams;
