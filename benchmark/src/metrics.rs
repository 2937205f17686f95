//! The benchmark's metrics: names, units, directions and bounds.
//! `BENCHMARK.json` at the repository root lists the same tables (a test
//! keeps them equal).

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// How much worse `new` is than `base`, as a share of `base` (negative
    /// when it is better).
    pub fn worsening(self, base: f64, new: f64) -> f64 {
        let change = (new - base) / base.abs();
        match self {
            Better::Lower => change,
            Better::Higher => -change,
        }
    }
}

/// An end-to-end metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen before
    /// a change counts as a regression.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// End-to-end metrics, measured with tracing off.
pub const END_TO_END: [EndToEnd; 6] = [
    e2e("wall_s", "s", Better::Lower, 0.25),
    e2e("sim_cycles_per_s", "cycles/s", Better::Higher, 0.25),
    e2e("cell_ns_per_req_p50", "ns", Better::Lower, 0.25),
    e2e("cell_ns_per_req_p90", "ns", Better::Lower, 0.25),
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.05),
];

/// Per-layer metrics from the traced section and the oracle check pass,
/// as `(name, unit, direction)`. They carry no bound.
pub const PER_LAYER: [(&str, &str, Better); 53] = [
    ("memsys.run_s", "s", Better::Lower),
    ("memsys.self_s", "s", Better::Lower),
    ("memsys.share", "ratio", Better::Lower),
    ("memsys.build_s", "s", Better::Lower),
    ("memsys.sched_passes", "count", Better::Lower),
    ("memsys.ns_per_pass", "ns", Better::Lower),
    ("memsys.passes_per_kcycle", "1/kcycle", Better::Lower),
    ("memsys.skipped_cycle_ratio", "ratio", Better::Higher),
    ("memsys.gate_bus_skips", "count", Better::Higher),
    ("memsys.gate_rank_skips", "count", Better::Higher),
    ("memsys.acts", "count", Better::Lower),
    ("memsys.rfms", "count", Better::Lower),
    ("memsys.commands", "count", Better::Lower),
    ("memsys.abo_events", "count", Better::Lower),
    ("memsys.abo_recovery_cycles", "cycles", Better::Lower),
    ("memsys.channel_blocked_cycles", "cycles", Better::Lower),
    ("memsys.row_hit_rate", "ratio", Better::Higher),
    ("memsys.bus_busy_share", "ratio", Better::Higher),
    ("rh.flips", "count", Better::Lower),
    ("mitigations.build_s", "s", Better::Lower),
    ("mitigations.self_s", "s", Better::Lower),
    ("mitigations.share", "ratio", Better::Lower),
    ("mitigations.translate.calls", "count", Better::Lower),
    ("mitigations.remap_epoch.calls", "count", Better::Lower),
    ("mitigations.on_activate.calls", "count", Better::Lower),
    ("mitigations.on_rfm.calls", "count", Better::Lower),
    (
        "mitigations.counts_toward_rfm.calls",
        "count",
        Better::Lower,
    ),
    ("mitigations.on_act_issued.calls", "count", Better::Lower),
    ("mitigations.on_recovery_rfm.calls", "count", Better::Lower),
    ("mitigations.translate.self_s", "s", Better::Lower),
    ("mitigations.remap_epoch.self_s", "s", Better::Lower),
    ("mitigations.on_activate.self_s", "s", Better::Lower),
    ("mitigations.on_rfm.self_s", "s", Better::Lower),
    ("mitigations.counts_toward_rfm.self_s", "s", Better::Lower),
    ("workloads.build_s", "s", Better::Lower),
    ("workloads.next_request.calls", "count", Better::Lower),
    ("workloads.self_s", "s", Better::Lower),
    ("workloads.share", "ratio", Better::Lower),
    ("campaign.parse_s", "s", Better::Lower),
    ("campaign.expand_s", "s", Better::Lower),
    ("campaign.start_s", "s", Better::Lower),
    ("campaign.cell_overhead_s", "s", Better::Lower),
    ("campaign.finish_s", "s", Better::Lower),
    ("campaign.resume_s", "s", Better::Lower),
    ("campaign.manifest_bytes", "bytes", Better::Lower),
    ("campaign.artifact_bytes", "bytes", Better::Lower),
    ("bench.report_encode_s", "s", Better::Lower),
    ("bench.report_decode_s", "s", Better::Lower),
    ("conformance.replay_s", "s", Better::Lower),
    ("conformance.records", "count", Better::Lower),
    ("conformance.violations", "count", Better::Lower),
    ("trace.overhead_ratio", "ratio", Better::Lower),
    ("trace.clock_cost_ns", "ns", Better::Lower),
];
