//! Recipe-driven sweep campaigns as a long-running service.
//!
//! This crate turns the `shadow-bench` harness from "run one figure"
//! into infrastructure that fields sweep traffic: declarative
//! TOML/JSON **recipes** ([`recipe`]) describe scenarios × parameter
//! grids × reporting; the **engine** ([`engine`]) expands them into
//! fingerprinted cells and executes them on an async-free threadpool
//! with bounded deterministic-backoff retries, a campaign-wide retry
//! budget, per-cell wall-clock deadlines, and quarantine for
//! repeatedly-failing cells; the JSONL checkpoint manifest makes every
//! campaign crash-survivable (`kill -9` included — a torn trailing
//! manifest line is skipped, not fatal); and **serve** ([`serve`])
//! accepts recipe submissions over a Unix socket or stdin and streams
//! JSONL progress events.
//!
//! The binary surface is `shadow-bench campaign run <recipe>` /
//! `campaign expand <recipe>` / `campaign serve` (see `main.rs`).
//! Robustness is the headline feature; the fault-injection facility
//! (`[[fault]]` recipe entries driving
//! [`FaultyMitigation`](shadow_conformance::FaultyMitigation)) exists
//! so every failure path is exercised deterministically in CI.
//!
//! The engine is the workspace's one sweep executor: the figure benches
//! are thin launchers of checked-in recipes ([`figure`]).

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod engine;
pub mod figure;
pub mod recipe;
pub mod serve;
// Installs the drain handler through POSIX signal(2): the crate's one
// foreign call.
#[allow(unsafe_code)]
pub mod signals;

pub use engine::{
    jsonl_sink, null_campaign_sink, run_campaign, sink_for, CampaignError, CampaignEvent,
    CampaignOptions, CampaignReport, CampaignSink, CampaignSummary, CellRecord, CellStatus,
};
pub use recipe::{CampaignCell, Preset, Recipe, RecipeError, Scenario};
