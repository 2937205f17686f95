//! # shadow-conformance
//!
//! Protocol oracle and differential conformance harness for the simulation
//! engine.
//!
//! The engine earns trust two ways here, both independent of the machinery
//! under test:
//!
//! * [`oracle`] — a JEDEC timing oracle that replays the engine's recorded
//!   command trace (`SystemConfig::trace_depth`) against an independent
//!   shadow model of bank/rank/channel state, flagging every timing,
//!   state-machine, refresh-postponement, and DDR5 RFM/RAA violation;
//! * [`fuzz`] — a differential fuzzer generating randomized (geometry,
//!   timing, workload, mitigation) cells and asserting that the fast
//!   engine, the `Retranslate`d fast engine, the reference engine, and the
//!   channel-sharded engine produce bit-identical reports and command
//!   streams, each oracle-clean, with `EpochCheck` policing the
//!   remap-epoch contract the translation cache relies on.
//!
//! [`schemes`] carries the mitigation recipes (mirroring the bench
//! harness) so the suite sweeps the same configurations the evaluation
//! runs.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod fault;
pub mod fuzz;
pub mod oracle;
pub mod schemes;

pub use fault::{Fault, FaultyMitigation, FaultyStream};
pub use fuzz::{gen_case, proptest_cases, run_differential, FuzzCase};
pub use oracle::{oracle_for, TimingKind, TimingOracle, Violation, ViolationKind};
pub use schemes::ConfScheme;
