//! # shadow-workloads
//!
//! The synthetic workload suite standing in for the paper's SPEC CPU2017 /
//! GAPBS / NPB binaries (§VII-C methodology; substitution documented in
//! DESIGN.md §2).
//!
//! Each workload is a [`RequestStream`]: an infinite, deterministic,
//! seeded generator of memory requests with inter-request compute gaps.
//! What matters for the paper's experiments is not instruction semantics
//! but the *memory behaviour* that drives DRAM timing and RFM pressure:
//!
//! * memory intensity (mean compute gap between misses),
//! * row-buffer locality (how often consecutive accesses hit the open row),
//! * footprint (how many rows/banks the access stream touches),
//! * read/write mix.
//!
//! [`profile::AppProfile`] captures those four knobs; the SPEC CPU2017
//! applications are modelled per the paper's grouping (spec-high /
//! spec-med / spec-low), GAPBS as a Zipf-distributed graph walk
//! ([`graph::GraphStream`]), NPB as array-sweeping stencil kernels
//! ([`stencil::StencilStream`]), and the §VII-C adversarial microbenchmark
//! as a zero-locality random row stream ([`stream::RandomStream`]).
//!
//! [`mix`] assembles the multiprogrammed mixes (mix-high, mix-blend,
//! mix-random) used by Figures 8–12.
//!
//! ## Example
//!
//! ```
//! use shadow_workloads::{profile::AppProfile, stream::ProfileStream, RequestStream};
//!
//! let mut s = ProfileStream::new(AppProfile::spec_high()[0], 1 << 30, 42);
//! let r = s.next_request();
//! assert!(r.pa < (1 << 30));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![warn(missing_debug_implementations)]

pub mod graph;
pub mod mix;
pub mod profile;
pub mod stencil;
pub mod stream;
pub mod trace;

pub use profile::{AppProfile, ProfileError};
pub use stream::{ProfileStream, RandomStream, Request};
pub use trace::TraceStream;

/// An infinite, deterministic source of memory requests.
pub trait RequestStream: std::fmt::Debug {
    /// Produces the next request.
    fn next_request(&mut self) -> Request;

    /// Workload name for reports.
    fn name(&self) -> &str;
}
