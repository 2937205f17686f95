//! # shadow-memsys
//!
//! The full-system memory simulator: multi-core front-end, FR-FCFS memory
//! controller, JEDEC refresh + RFM engines, pluggable Row Hammer
//! mitigation, and the disturbance fault model — everything Figures 8–12 of
//! the paper are measured on.
//!
//! Data flow per simulated memory request:
//!
//! ```text
//!  CpuCore ──(PA)──► AddressMapper ──(bank, PA row)──► per-bank queue
//!      ▲                                                    │ FR-FCFS
//!      │ completion                                         ▼
//!      └──────────── DramDevice ◄─(ACT w/ DA row)── Mitigation::translate
//!                        │                                  │
//!                        └── HammerLedger (disturbance, DA space)
//! ```
//!
//! RFM follows JEDEC DDR5: per-bank RAA counters in the controller trigger
//! an RFM once RAAIMT activations accumulate; the mitigation consumes the
//! tRFM slack (SHADOW shuffles, PARFM/Mithril TRR). Auto-refresh drains a
//! rank and blocks it for tRFC every tREFI (halved under DRR). BlockHammer
//! delays ACTs; RRS blocks whole channels during swaps. Every mitigating
//! action is applied to the same [`HammerLedger`](shadow_rh::HammerLedger)
//! the attacker hits, so protection and performance come from one mechanism.
//!
//! [`schemes`] is the registry of the evaluated schemes: [`Scheme`] names
//! one and [`build_mitigation`] builds it for a [`SystemConfig`].
//!
//! ## Example
//!
//! ```
//! use shadow_memsys::{MemSystem, SystemConfig};
//! use shadow_mitigations::NoMitigation;
//! use shadow_workloads::{ProfileStream, AppProfile};
//!
//! let cfg = SystemConfig::tiny();
//! let streams: Vec<Box<dyn shadow_workloads::RequestStream>> = vec![
//!     Box::new(ProfileStream::new(
//!         AppProfile::spec_high()[0],
//!         cfg.capacity_bytes().max(1 << 20),
//!         1,
//!     )),
//! ];
//! let mut sys = MemSystem::new(cfg, streams, Box::new(NoMitigation::new()));
//! let report = sys.run();
//! assert!(report.total_completed() > 0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![warn(missing_debug_implementations)]

pub mod active;
pub mod attacker;
pub mod config;
pub mod cpu;
pub mod error;
pub mod report;
pub mod schemes;
mod shard;
pub mod system;

pub use attacker::AttackerCore;
pub use config::{Engine, PagePolicy, SystemConfig};
pub use error::{BankStall, SimError, StallKind, StallSnapshot};
pub use report::SimReport;
pub use schemes::{build_mitigation, Scheme, TIME_SCALE};
pub use system::MemSystem;
