//! Simulation results and the weighted-speedup metrics (§VII-C).

use shadow_rh::BitFlip;
use shadow_sim::profiler::PhaseProfile;
use shadow_sim::stats::{Counter, Histogram};
use shadow_sim::time::Cycle;

/// The outcome of one [`MemSystem`](crate::MemSystem) run.
///
/// `PartialEq` compares every *simulated* field; the engine's determinism
/// tests lean on it to assert two runs are bit-identical. The wall-clock
/// [`profile`](Self::profile) is deliberately excluded — it measures the
/// host, not the simulation, and a profiled run must compare equal to an
/// unprofiled one.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Scheme name the run used.
    pub scheme: String,
    /// Cycles simulated.
    pub cycles: Cycle,
    /// Per-core workload names.
    pub core_names: Vec<String>,
    /// Per-core completed requests.
    pub completed: Vec<u64>,
    /// Device command counts (ACT/PRE/RD/WR/REF/RFM).
    pub commands: Counter,
    /// Bit-flips recorded per bank.
    pub flips: Vec<Vec<BitFlip>>,
    /// Total cycles channels spent blocked by mitigation actions (RRS).
    pub channel_blocked_cycles: Cycle,
    /// Total ACT delay cycles imposed by throttling (BlockHammer).
    pub throttle_cycles: Cycle,
    /// Memory-request latency (enqueue to data completion), in cycles.
    pub latency: Histogram,
    /// ABO alerts asserted by a PRAC-style mitigation (0 for schemes
    /// without an [`abo`](shadow_mitigations::Mitigation::abo) contract).
    pub abo_events: u64,
    /// Total cycles spent inside ABO recovery RFM commands (tRFM per
    /// RFMAB/RFMSB issued) — the PRAC-era performance tax, separated from
    /// ordinary RFM and REF time.
    pub abo_recovery_cycles: Cycle,
    /// Tracker-entry evictions the mitigation reported
    /// ([`tracker_evictions`](shadow_mitigations::Mitigation::tracker_evictions));
    /// DAPPER's tracker-pressure / performance-attack-resilience metric.
    pub tracker_evictions: u64,
    /// Per-channel count of cycles in which that channel's command bus
    /// issued a command (at most one per channel per cycle, so this is both
    /// a command count and a busy-cycle count). Indexed by channel; the
    /// utilization view behind [`channel_busy_shares`]
    /// (Self::channel_busy_shares).
    pub channel_busy_cycles: Vec<u64>,
    /// Scheduling passes the run loop executed. Engine diagnostics, not
    /// simulation state: the count depends on which engine ran (the
    /// reference engine repeats same-cycle passes the fast one skips), so
    /// it is excluded from `PartialEq` like [`profile`](Self::profile).
    pub sched_passes: u64,
    /// Distinct cycles at which at least one scheduling pass ran. With
    /// [`cycles`](Self::cycles) this yields the skipped-cycle ratio
    /// (`1 - pass_cycles / cycles`), the jump engine's efficiency metric.
    /// Excluded from `PartialEq` like [`profile`](Self::profile).
    pub pass_cycles: u64,
    /// Per-rank count of scheduler bank visits short-circuited by the
    /// hoisted rank-scope gate (refresh urgency / pending ABO recovery),
    /// flattened in global rank order (channel-major). Engine diagnostics
    /// like the pass counters — the count depends on which engine ran —
    /// so excluded from `PartialEq`.
    pub gate_rank_skips: Vec<u64>,
    /// Scheduling passes short-circuited whole by the hoisted channel-scope
    /// bus gate (command bus claimed or channel blocked). Engine
    /// diagnostics; excluded from `PartialEq`.
    pub gate_bus_skips: u64,
    /// Hot-path phase profile: populated only when the run asked for it
    /// (`SystemConfig::profile`). Wall-clock observation only — excluded
    /// from `PartialEq`.
    pub profile: Option<PhaseProfile>,
}

impl PartialEq for SimReport {
    fn eq(&self, other: &Self) -> bool {
        // Every field except `profile` and the pass counters (engine
        // diagnostics, not simulation state). Destructure so adding a
        // field breaks this visibly.
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
        } = self;
        *scheme == other.scheme
            && *cycles == other.cycles
            && *core_names == other.core_names
            && *completed == other.completed
            && *commands == other.commands
            && *flips == other.flips
            && *channel_blocked_cycles == other.channel_blocked_cycles
            && *throttle_cycles == other.throttle_cycles
            && *latency == other.latency
            && *abo_events == other.abo_events
            && *abo_recovery_cycles == other.abo_recovery_cycles
            && *tracker_evictions == other.tracker_evictions
            && *channel_busy_cycles == other.channel_busy_cycles
    }
}

impl SimReport {
    /// Total completed requests.
    pub fn total_completed(&self) -> u64 {
        self.completed.iter().sum()
    }

    /// Per-core throughput in requests per kilocycle.
    pub fn throughputs(&self) -> Vec<f64> {
        let c = self.cycles.max(1) as f64;
        self.completed
            .iter()
            .map(|&r| r as f64 * 1000.0 / c)
            .collect()
    }

    /// Total bit-flips across all banks.
    pub fn total_flips(&self) -> usize {
        self.flips.iter().map(|b| b.len()).sum()
    }

    /// Weighted speedup of this run relative to a baseline run of the same
    /// workload mix: `Σ tput_i / Σ_base tput_i` averaged per core
    /// (the relative weighted-speedup normalization of Figures 8–11).
    ///
    /// # Panics
    ///
    /// Panics if the runs have different core counts.
    pub fn relative_performance(&self, baseline: &SimReport) -> f64 {
        assert_eq!(
            self.completed.len(),
            baseline.completed.len(),
            "mismatched core counts"
        );
        let mine = self.throughputs();
        let base = baseline.throughputs();
        let ratios: Vec<f64> = mine
            .iter()
            .zip(&base)
            .map(|(m, b)| if *b > 0.0 { m / b } else { 1.0 })
            .collect();
        ratios.iter().sum::<f64>() / ratios.len().max(1) as f64
    }

    /// The paper's weighted-speedup metric (§VII-C, ref 18):
    /// `WS = Σ_i IPC_i^shared / IPC_i^alone`, with per-core throughput as
    /// the IPC proxy. `alone` holds each core's throughput from a solo run
    /// of its stream on the unprotected baseline.
    ///
    /// # Panics
    ///
    /// Panics if `alone` has the wrong length or a zero entry.
    pub fn weighted_speedup(&self, alone: &[f64]) -> f64 {
        assert_eq!(alone.len(), self.completed.len(), "mismatched core counts");
        self.throughputs()
            .iter()
            .zip(alone)
            .map(|(t, &a)| {
                assert!(a > 0.0, "alone throughput must be positive");
                t / a
            })
            .sum()
    }

    /// Row-buffer hit rate: fraction of CAS commands served without a new
    /// activation, `1 - ACT/(RD+WR)` (clamped at 0 for pathological runs).
    pub fn row_hit_rate(&self) -> f64 {
        let cas = self.commands.get("RD") + self.commands.get("WR");
        if cas == 0 {
            return 0.0;
        }
        (1.0 - self.commands.get("ACT") as f64 / cas as f64).max(0.0)
    }

    /// Per-channel command-bus utilization: the fraction of simulated
    /// cycles each channel spent issuing a command. A strongly skewed
    /// vector means channel sharding has little to parallelize (one shard
    /// does all the work); a flat one means near-ideal shard balance.
    pub fn channel_busy_shares(&self) -> Vec<f64> {
        let c = self.cycles.max(1) as f64;
        self.channel_busy_cycles
            .iter()
            .map(|&b| b as f64 / c)
            .collect()
    }

    /// ACTs per RFM actually observed (sanity metric for RAAIMT behaviour).
    pub fn acts_per_rfm(&self) -> Option<f64> {
        let rfm = self.commands.get("RFM");
        if rfm == 0 {
            None
        } else {
            Some(self.commands.get("ACT") as f64 / rfm as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(completed: Vec<u64>, cycles: Cycle) -> SimReport {
        SimReport {
            scheme: "test".into(),
            cycles,
            core_names: completed.iter().map(|_| "w".into()).collect(),
            completed,
            commands: Counter::new(),
            flips: Vec::new(),
            channel_blocked_cycles: 0,
            throttle_cycles: 0,
            latency: Histogram::new(16, 256),
            abo_events: 0,
            abo_recovery_cycles: 0,
            tracker_evictions: 0,
            channel_busy_cycles: Vec::new(),
            sched_passes: 0,
            pass_cycles: 0,
            gate_rank_skips: Vec::new(),
            gate_bus_skips: 0,
            profile: None,
        }
    }

    #[test]
    fn busy_shares_normalize_by_cycles() {
        let mut r = report(vec![10], 1000);
        r.channel_busy_cycles = vec![250, 500];
        let shares = r.channel_busy_shares();
        assert!((shares[0] - 0.25).abs() < 1e-12);
        assert!((shares[1] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn profile_is_ignored_by_equality() {
        let a = report(vec![10], 100);
        let mut b = a.clone();
        let mut p = PhaseProfile::new();
        p.record(shadow_sim::profiler::Phase::Schedule, 123);
        b.profile = Some(p);
        assert_eq!(a, b, "wall-clock profile must not break bit-identity");
    }

    #[test]
    fn pass_counters_are_ignored_by_equality() {
        // Pass pacing differs between the fast and reference engines; the
        // counters are diagnostics and must not break bit-identity.
        let a = report(vec![10], 100);
        let mut b = a.clone();
        b.sched_passes = 42;
        b.pass_cycles = 17;
        assert_eq!(a, b, "pass counters must not break bit-identity");
    }

    #[test]
    fn gate_counters_are_ignored_by_equality() {
        // Gate-skip tallies depend on which engine ran (the full-scan
        // reference never takes the hoisted gates); diagnostics only.
        let a = report(vec![10], 100);
        let mut b = a.clone();
        b.gate_rank_skips = vec![3, 9];
        b.gate_bus_skips = 27;
        assert_eq!(a, b, "gate-skip counters must not break bit-identity");
    }

    #[test]
    fn throughput_math() {
        let r = report(vec![1000, 2000], 1_000_000);
        let t = r.throughputs();
        assert!((t[0] - 1.0).abs() < 1e-12);
        assert!((t[1] - 2.0).abs() < 1e-12);
        assert_eq!(r.total_completed(), 3000);
    }

    #[test]
    fn relative_performance_identity() {
        let a = report(vec![1000, 2000], 1_000_000);
        assert!((a.relative_performance(&a) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn relative_performance_detects_slowdown() {
        let base = report(vec![1000, 1000], 1_000_000);
        let slow = report(vec![900, 950], 1_000_000);
        let rel = slow.relative_performance(&base);
        assert!((rel - 0.925).abs() < 1e-12);
    }

    #[test]
    fn same_requests_longer_time_is_slowdown() {
        let base = report(vec![1000], 1_000_000);
        let slow = report(vec![1000], 1_100_000);
        assert!(slow.relative_performance(&base) < 1.0);
    }

    #[test]
    #[should_panic]
    fn mismatched_cores_panic() {
        let a = report(vec![1], 10);
        let b = report(vec![1, 2], 10);
        let _ = a.relative_performance(&b);
    }

    #[test]
    fn acts_per_rfm_none_without_rfm() {
        assert!(report(vec![1], 10).acts_per_rfm().is_none());
    }

    #[test]
    fn row_hit_rate_math() {
        let mut r = report(vec![10], 100);
        r.commands.add("RD", 80);
        r.commands.add("WR", 20);
        r.commands.add("ACT", 25);
        assert!((r.row_hit_rate() - 0.75).abs() < 1e-12);
        let empty = report(vec![1], 10);
        assert_eq!(empty.row_hit_rate(), 0.0);
    }

    #[test]
    fn weighted_speedup_sums_per_core_ratios() {
        let r = report(vec![1000, 500], 1_000_000); // tputs 1.0 and 0.5
        let ws = r.weighted_speedup(&[2.0, 1.0]); // 0.5 + 0.5
        assert!((ws - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn weighted_speedup_rejects_zero_alone() {
        let r = report(vec![10], 100);
        let _ = r.weighted_speedup(&[0.0]);
    }
}
