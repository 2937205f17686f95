//! Simulation configuration.

use crate::error::SimError;
use shadow_dram::geometry::DramGeometry;
use shadow_dram::timing::TimingParams;
use shadow_rh::RhParams;
use shadow_sim::time::Cycle;

/// Row-buffer management policy of the memory controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PagePolicy {
    /// Leave rows open until a conflicting request arrives (FR-FCFS
    /// default; rewards row-buffer locality).
    #[default]
    Open,
    /// Precharge as soon as no queued request hits the open row (trades
    /// hit latency for conflict latency; used as a scheduler ablation).
    Closed,
}

/// Which scheduling engine a [`MemSystem`](crate::MemSystem) runs.
///
/// Simulated outcomes — reports and command traces — are bit-identical
/// either way (pinned by the determinism suite and the conformance
/// fuzzer); the engines differ only in how much work they do to decide.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Engine {
    /// Every fast path on: the event calendar over memoized per-bank
    /// frontiers, row-indexed FR-FCFS hit selection, the lazy Row Hammer
    /// ledger, and the remap-epoch translation cache.
    #[default]
    Fast,
    /// Every fast path off: the full O(total banks) scan recomputing every
    /// frontier each pass, the linear FR-FCFS queue walk, eager ledgers,
    /// and a translation per lookup (the mitigation is wrapped in
    /// [`Retranslate`](shadow_mitigations::Retranslate)).
    Reference,
}

/// Configuration of a [`MemSystem`](crate::MemSystem) run.
///
/// Passive data: fields are public.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SystemConfig {
    /// Logical (MC-visible) DRAM geometry. The physical geometry may gain
    /// extra rows per subarray from the mitigation (SHADOW's empty rows).
    pub geometry: DramGeometry,
    /// Timing parameters (mitigation tRCD extension applied at build).
    pub timing: TimingParams,
    /// Row Hammer model parameters.
    pub rh: RhParams,
    /// Per-core maximum outstanding memory requests (MLP window).
    pub mlp: usize,
    /// Stop after this many completed requests across all cores (0 = no
    /// request target; run to `max_cycles`).
    pub target_requests: u64,
    /// Hard cycle limit.
    pub max_cycles: Cycle,
    /// Whether the RFM interface is active (RAA counters + RFM commands).
    /// Set automatically when the mitigation uses RFM.
    pub raaimt_override: Option<u32>,
    /// Row-buffer management policy.
    pub page_policy: PagePolicy,
    /// Posted (buffered) writes: stores complete at the controller
    /// immediately and drain to DRAM asynchronously — cores never stall on
    /// write bandwidth, as on real systems with deep write buffers.
    pub posted_writes: bool,
    /// Scheduling engine. [`Engine::Fast`] in every preset; the benches
    /// and the isolated runner switch to [`Engine::Reference`] to measure
    /// what the fast paths buy and to re-run a failed cell without them.
    pub engine: Engine,
    /// Command-trace ring depth. `0` (the default in every preset) disables
    /// tracing; non-zero retains the last `trace_depth` committed DRAM
    /// commands for the conformance oracle. Tracing never changes simulated
    /// behaviour (pinned by the determinism suite).
    pub trace_depth: usize,
    /// Collect the hot-path phase profile ([`SimReport::profile`]
    /// (crate::SimReport::profile)). Only effective when the crate is built
    /// with the `profiler` feature; observation-only either way — report
    /// equality ignores the profile and simulated behaviour is unchanged.
    pub profile: bool,
    /// Forward-progress watchdog window, in cycles. `0` (every preset's
    /// default) disables the watchdog. When non-zero,
    /// [`MemSystem::run_checked`](crate::MemSystem::run_checked) aborts
    /// with [`SimError::Stalled`] once no request has completed for a full
    /// window while requests sit queued — catching scheduler livelock and
    /// throttling starvation instead of silently burning to `max_cycles`.
    /// Observation-only on the non-stalling path: enabling it never
    /// changes a simulated outcome (pinned by the determinism suite).
    /// Size it well above the longest legitimate completion gap of the
    /// workload (compute gaps, refresh storms) — a few tREFI is a good
    /// floor.
    pub watchdog_window: Cycle,
}

impl SystemConfig {
    /// The paper's Table IV actual-system configuration (DDR4-2666,
    /// 4 channels) scaled for simulation.
    pub fn ddr4_actual_system() -> Self {
        SystemConfig {
            geometry: DramGeometry::ddr4_4ch(),
            timing: TimingParams::ddr4_2666(),
            rh: RhParams::paper_default(),
            mlp: 8,
            target_requests: 200_000,
            max_cycles: 200_000_000,
            raaimt_override: None,
            page_policy: PagePolicy::Open,
            posted_writes: false,
            engine: Engine::Fast,
            trace_depth: 0,
            profile: false,
            watchdog_window: 0,
        }
    }

    /// The DDR5-4800 architectural-simulation configuration (Fig. 11).
    pub fn ddr5_sim() -> Self {
        SystemConfig {
            geometry: DramGeometry::ddr5_4ch(),
            timing: TimingParams::ddr5_4800(),
            rh: RhParams::paper_default(),
            mlp: 8,
            target_requests: 200_000,
            max_cycles: 400_000_000,
            raaimt_override: None,
            page_policy: PagePolicy::Open,
            posted_writes: false,
            engine: Engine::Fast,
            trace_depth: 0,
            profile: false,
            watchdog_window: 0,
        }
    }

    /// A miniature configuration for fast tests.
    pub fn tiny() -> Self {
        SystemConfig {
            geometry: DramGeometry::tiny(),
            timing: TimingParams::tiny(),
            rh: RhParams::new(64, 2),
            mlp: 4,
            target_requests: 2_000,
            max_cycles: 2_000_000,
            raaimt_override: Some(16),
            page_policy: PagePolicy::Open,
            posted_writes: false,
            engine: Engine::Fast,
            trace_depth: 0,
            profile: false,
            watchdog_window: 0,
        }
    }

    /// MC-visible capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.geometry.capacity_bytes()
    }

    /// Checks every field the engine would otherwise trip over mid-run.
    ///
    /// [`MemSystem::try_new`](crate::MemSystem::try_new) calls this, so a
    /// bad sweep cell fails fast with a message naming the knob instead of
    /// panicking cycles into the simulation.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidConfig`] naming the first offending field.
    pub fn validate(&self) -> Result<(), SimError> {
        if self.geometry.total_banks() == 0 {
            return Err(SimError::invalid(
                "geometry",
                "no banks (channels × ranks × bank groups × banks must be ≥ 1)",
            ));
        }
        if self.geometry.rows_per_subarray == 0 || self.geometry.subarrays_per_bank == 0 {
            return Err(SimError::invalid(
                "geometry",
                "banks need at least one subarray with at least one row",
            ));
        }
        if self.geometry.columns == 0 || self.geometry.column_bytes == 0 {
            return Err(SimError::invalid(
                "geometry",
                "rows need at least one column of at least one byte",
            ));
        }
        self.timing
            .validate()
            .map_err(|why| SimError::InvalidConfig {
                what: "timing",
                why,
            })?;
        if self.mlp == 0 {
            return Err(SimError::invalid(
                "mlp",
                "cores need at least one outstanding request (mlp ≥ 1)",
            ));
        }
        if self.max_cycles == 0 {
            return Err(SimError::invalid(
                "max_cycles",
                "the cycle limit must be positive",
            ));
        }
        if self.raaimt_override == Some(0) {
            return Err(SimError::invalid(
                "raaimt_override",
                "RAAIMT must be ≥ 1 (use None to defer to the mitigation)",
            ));
        }
        if self.watchdog_window > 0 && self.watchdog_window >= self.max_cycles {
            return Err(SimError::invalid(
                "watchdog_window",
                format!(
                    "window ({}) must be below max_cycles ({}) to ever fire; \
                     use 0 to disable the watchdog",
                    self.watchdog_window, self.max_cycles
                ),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_consistent() {
        for c in [
            SystemConfig::ddr4_actual_system(),
            SystemConfig::ddr5_sim(),
            SystemConfig::tiny(),
        ] {
            assert!(c.timing.validate().is_ok());
            assert!(c.capacity_bytes() > 0);
            assert!(c.mlp > 0);
        }
    }

    #[test]
    fn tiny_is_actually_tiny() {
        assert!(SystemConfig::tiny().capacity_bytes() < (1 << 20));
    }
}
