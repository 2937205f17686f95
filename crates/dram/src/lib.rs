//! # shadow-dram
//!
//! A cycle-level DRAM device model built from scratch for the SHADOW
//! reproduction: the substrate on which every performance experiment in the
//! paper (Figures 8–12) runs.
//!
//! The model covers exactly what the paper's evaluation exercises:
//!
//! * **Geometry** ([`geometry`]) — channel / rank / bank-group / bank /
//!   subarray / row / column hierarchy (paper Fig. 1), with the 512-row
//!   subarrays the SHADOW shuffle is confined to.
//! * **Timing** ([`timing`]) — JEDEC timing sets for DDR4-2666 (the paper's
//!   actual-system configuration, Table IV: 19-19-19, tRFC 467, tREFI 10400)
//!   and DDR5-4800 (the architectural-simulation configuration), including
//!   the RFM parameters (RAAIMT, tRFM) introduced in DDR5.
//! * **Commands** ([`command`]) — ACT / PRE / RD / WR / REF / RFM.
//! * **State machines** ([`bank`], [`rank`]) — per-bank ready-time tracking
//!   (tRCD, tRAS, tRP, tRC, tRTP, tWR), rank-level tRRD / tFAW windows and
//!   the auto-refresh engine, channel data-bus occupancy (tCCD / burst).
//! * **Device** ([`device`]) — assembles the above, validates command
//!   legality, and counts every command for the power model of Fig. 12.
//! * **RFM interface** ([`rfm`]) — per-bank Rolling Accumulated ACT (RAA)
//!   counters as specified by JEDEC DDR5: the memory controller issues an
//!   RFM once a bank accumulates RAAIMT activations.
//! * **Address mapping** ([`mapping`]) — PA → (channel, rank, bank, row,
//!   column) interleaving with optional XOR bank hashing (§II-B).
//! * **sPPR** ([`sppr`]) — the JEDEC runtime row-repair resource the paper
//!   points to as DRAM's existing low-latency relocation path (§VIII).
//! * **Command tracing** ([`trace`]) — an off-by-default recorder capturing
//!   every committed command for the `shadow-conformance` timing oracle.
//!
//! ## Example
//!
//! ```
//! use shadow_dram::geometry::DramGeometry;
//! use shadow_dram::timing::TimingParams;
//! use shadow_dram::device::DramDevice;
//! use shadow_dram::command::DramCommand;
//!
//! let geo = DramGeometry::ddr4_single_rank();
//! let timing = TimingParams::ddr4_2666();
//! let mut dev = DramDevice::new(geo, timing);
//!
//! // Activate row 5 of bank 0, then read column 3.
//! let bank = dev.geometry().bank_id(0, 0, 0);
//! let t_act = dev.earliest_act(bank, 0);
//! dev.issue(DramCommand::Act { bank, row: 5 }, t_act);
//! let t_rd = dev.earliest_rd(bank, t_act);
//! assert!(t_rd >= t_act + dev.timing().t_rcd);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![warn(missing_debug_implementations)]

pub mod bank;
pub mod command;
pub mod device;
pub mod geometry;
pub mod lane;
pub mod lut;
pub mod mapping;
pub mod rank;
pub mod rfm;
pub mod sppr;
pub mod timing;
pub mod trace;

pub use command::DramCommand;
pub use device::DramDevice;
pub use geometry::{BankId, DramGeometry, RowId, SubarrayId};
pub use lane::ChannelLane;
pub use lut::GeometryLut;
pub use mapping::AddressMapper;
pub use rfm::RaaCounters;
pub use sppr::SpprResources;
pub use timing::TimingParams;
pub use trace::{CommandRecord, CommandTrace};
