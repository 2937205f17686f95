//! # shadow-repro
//!
//! A from-scratch Rust reproduction of **SHADOW: Preventing Row Hammer in
//! DRAM with Intra-Subarray Row Shuffling** (Wi, Park, Ko, Kim, Kim, Lee,
//! Ahn — HPCA 2023).
//!
//! This umbrella crate re-exports the workspace's public surface and hosts
//! the runnable examples and cross-crate integration tests. See:
//!
//! * `DESIGN.md` — system inventory, substitutions, per-experiment index;
//! * `EXPERIMENTS.md` — paper-vs-measured results for every table/figure;
//! * `README.md` — install, quickstart, architecture overview.
//!
//! ## Crate map
//!
//! | Re-export | Crate | Contents |
//! |---|---|---|
//! | [`sim`] | `shadow-sim` | deterministic clock/RNG/stats/event kernel |
//! | [`crypto`] | `shadow-crypto` | PRINCE cipher, CSPRNG, LFSR |
//! | [`trackers`] | `shadow-trackers` | Misra–Gries, CbS, counting Bloom filters, reservoir |
//! | [`dram`] | `shadow-dram` | cycle-level DRAM device, timing, RFM, mapping |
//! | [`rh`] | `shadow-rh` | Row Hammer fault model and attack patterns |
//! | [`core`] | `shadow-core` | the SHADOW mechanism + Appendix XI security model |
//! | [`mitigations`] | `shadow-mitigations` | all baselines behind one trait |
//! | [`workloads`] | `shadow-workloads` | SPEC/GAPBS/NPB-class generators, mixes |
//! | [`memsys`] | `shadow-memsys` | the full-system simulator |
//! | [`analysis`] | `shadow-analysis` | power / area / RC-timing / Monte-Carlo models |
//!
//! ## Quickstart
//!
//! ```
//! use shadow_repro::memsys::{MemSystem, SystemConfig};
//! use shadow_repro::mitigations::NoMitigation;
//! use shadow_repro::workloads::{RandomStream, RequestStream};
//!
//! let cfg = SystemConfig::tiny();
//! let streams: Vec<Box<dyn RequestStream>> =
//!     vec![Box::new(RandomStream::new(1 << 20, 42))];
//! let report = MemSystem::new(cfg, streams, Box::new(NoMitigation::new())).run();
//! assert!(report.total_completed() > 0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use shadow_analysis as analysis;
pub use shadow_core as core;
pub use shadow_crypto as crypto;
pub use shadow_dram as dram;
pub use shadow_memsys as memsys;
pub use shadow_mitigations as mitigations;
pub use shadow_rh as rh;
pub use shadow_sim as sim;
pub use shadow_trackers as trackers;
pub use shadow_workloads as workloads;
