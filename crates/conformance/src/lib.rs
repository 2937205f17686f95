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
//!   engine, the `Retranslate`d fast engine, and the reference engine
//!   produce bit-identical reports and command streams, each
//!   oracle-clean, with `EpochCheck` policing the
//!   remap-epoch contract the translation cache relies on.
//!
//! Both sweep every scheme of the evaluation's registry
//! (`shadow_memsys::Scheme::all()`, built by
//! `shadow_memsys::build_mitigation`), so the suite checks exactly the
//! configurations the evaluation runs, and a scheme added there is
//! oracle-replayed and fuzzed with no edit here.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![warn(missing_debug_implementations)]

pub mod fault;
pub mod fuzz;
pub mod oracle;

pub use fault::{Fault, FaultyMitigation, FaultyStream};
pub use fuzz::{gen_case, proptest_cases, run_differential, FuzzCase};
pub use oracle::{oracle_for, TimingKind, TimingOracle, Violation, ViolationKind};
