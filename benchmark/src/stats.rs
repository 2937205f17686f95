//! Order statistics and the outcome digest.

use shadow_memsys::SimReport;

/// Nearest-rank percentile: the smallest sample with at least `p` percent
/// of the samples at or below it. `None` for an empty slice.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// A sample set reduced to its count, median and quartiles (nearest rank).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Summary {
    /// Summarises `samples`; `None` when there are none.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        Some(Summary {
            n: samples.len(),
            q1: percentile(samples, 25.0)?,
            median: percentile(samples, 50.0)?,
            q3: percentile(samples, 75.0)?,
        })
    }
}

/// FNV-1a over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Digest of a report's simulated outcome: exactly the fields
/// `SimReport`'s `PartialEq` compares. The engine diagnostics (pass and
/// gate counters) and the wall-clock profile are left out, so two engines
/// or a traced and an untraced run of one cell digest alike. The campaign
/// engine's artifact digest hashes those diagnostics too, which is why the
/// benchmark keeps its own.
pub fn outcome_digest(r: &SimReport) -> u64 {
    // Destructured so that a new `SimReport` field fails to compile here
    // until it is classified as outcome or diagnostic.
    let SimReport {
        scheme,
        cycles,
        core_names,
        completed,
        commands,
        flips,
        channel_blocked_cycles,
        throttle_cycles,
        latency,
        abo_events,
        abo_recovery_cycles,
        tracker_evictions,
        channel_busy_cycles,
        sched_passes: _,
        pass_cycles: _,
        gate_rank_skips: _,
        gate_bus_skips: _,
        profile: _,
    } = r;
    let repr = format!(
        "{scheme:?}|{cycles:?}|{core_names:?}|{completed:?}|{commands:?}|{flips:?}|\
         {channel_blocked_cycles:?}|{throttle_cycles:?}|{latency:?}|{abo_events:?}|\
         {abo_recovery_cycles:?}|{tracker_evictions:?}|{channel_busy_cycles:?}"
    );
    fnv1a(repr.as_bytes())
}
