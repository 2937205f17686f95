//! # shadow-sim
//!
//! Deterministic discrete-time simulation kernel used by every other crate in
//! the SHADOW reproduction workspace.
//!
//! The kernel deliberately avoids threads and wall-clock entropy: every
//! experiment in the paper's evaluation (performance, security, power) must be
//! reproducible bit-for-bit from a seed, so all stochastic behaviour flows
//! through the seeded generators in [`rng`] and all time flows through the
//! explicit [`time`] types.
//!
//! Contents:
//!
//! * [`time`] — picosecond-precision clock specifications and cycle math for
//!   JEDEC-style synchronous interfaces.
//! * [`rng`] — `SplitMix64` and `Xoshiro256**` deterministic generators.
//! * [`stats`] — counters, histograms, and running summary statistics used by
//!   the experiment harnesses.
//! * [`events`] — a stable-order binary-heap event queue for
//!   discrete-event components.
//! * [`calendar`] — a lazy-deletion event calendar (generation-stamped
//!   per-index timers) for incremental schedulers.
//! * [`paged`] — fixed-length arrays whose pages are allocated on first
//!   write, for per-row state that is zero on rows a run never touches.
//! * [`ring`] — a bounded, drop-counting append log for cheap always-on
//!   recorders (command traces, scheduler debugging).
//! * [`profiler`] — sampled hot-path phase timing, on for a run that
//!   asks for it (`SystemConfig::profile`).
//!
//! ## Example
//!
//! ```
//! use shadow_sim::rng::Xoshiro256;
//! use shadow_sim::time::ClockSpec;
//!
//! // DDR4-2666: 0.75 ns clock.
//! let clk = ClockSpec::from_freq_mhz(1333.0);
//! assert_eq!(clk.ns_to_cycles(13.75), 19); // tRCD 13.75 ns = 19 tCK (ceil)
//!
//! let mut rng = Xoshiro256::seed_from_u64(42);
//! let x = rng.gen_range(0, 512);
//! assert!(x < 512);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![warn(missing_debug_implementations)]

pub mod calendar;
pub mod events;
pub mod paged;
pub mod profiler;
pub mod ring;
pub mod rng;
pub mod stats;
pub mod time;

pub use calendar::EventCalendar;
pub use paged::Paged;
pub use profiler::{Phase, PhaseProfile, PhaseTimer};
pub use ring::RingLog;
pub use rng::{SplitMix64, Xoshiro256};
pub use stats::{Counter, Histogram, RunningStats};
pub use time::{ClockSpec, Cycle, Picos};
