//! Differential fuzzing: randomized (geometry, timing, workload,
//! mitigation) cells run through three engine variants that must agree
//! bit-for-bit, each with an oracle-clean command trace.
//!
//! The variants cover the engine's fast paths from both sides:
//!
//! 1. **fast** — [`Engine::Fast`], with the mitigation wrapped in
//!    [`EpochCheck`] so any remap-epoch contract violation (the soundness
//!    precondition of the translation cache) panics at the offending
//!    call;
//! 2. **retranslate** — [`Engine::Fast`] with the mitigation wrapped in
//!    [`Retranslate`], which reports a fresh epoch on every query: the
//!    event calendar stays on while every lookup re-translates;
//! 3. **reference** — [`Engine::Reference`]: the original O(total banks)
//!    scan with no frontier memo and a translation per lookup.
//!
//! All three find FR-FCFS hits with the same linear queue walk and build
//! the same Row Hammer ledgers.
//!
//! Any divergence in [`SimReport`] or in the committed command stream
//! between variants is an engine bug; any oracle violation in any variant
//! is a protocol bug. Case count is environment-tunable via
//! `PROPTEST_CASES` (the same knob the proptest suites honor) so CI can
//! run a reduced sweep.

use crate::oracle::oracle_for;
use crate::schemes::ConfScheme;
use shadow_dram::geometry::DramGeometry;
use shadow_dram::timing::TimingParams;
use shadow_dram::trace::CommandRecord;
use shadow_memsys::{Engine, MemSystem, PagePolicy, SimReport, SystemConfig};
use shadow_mitigations::{EpochCheck, Mitigation, Retranslate};
use shadow_rh::RhParams;
use shadow_sim::rng::Xoshiro256;
use shadow_workloads::stream::RandomStream;
use shadow_workloads::{AppProfile, ProfileStream, RequestStream};

/// Fuzz-case count: `PROPTEST_CASES` env override, else `default`.
pub fn proptest_cases(default: usize) -> usize {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// One randomized conformance cell. Streams are rebuilt from the stored
/// seeds for every engine variant, so every run sees identical input.
#[derive(Debug, Clone)]
pub struct FuzzCase {
    /// System configuration (geometry, timing, policies) for the cell.
    pub cfg: SystemConfig,
    /// Mitigation under test.
    pub scheme: ConfScheme,
    /// Per-core stream recipes: `(use_profile, seed)`.
    pub streams: Vec<(bool, u64)>,
}

/// Derives a randomized case from `case_seed`. Every generated timing set
/// satisfies [`TimingParams::validate`]; every geometry is small enough
/// that a cell simulates in milliseconds.
pub fn gen_case(case_seed: u64) -> FuzzCase {
    let mut rng = Xoshiro256::seed_from_u64(case_seed);

    let geometry = DramGeometry {
        channels: rng.gen_range(1, 3) as u32,
        ranks_per_channel: rng.gen_range(1, 3) as u32,
        bank_groups: rng.gen_range(1, 3) as u32,
        banks_per_group: rng.gen_range(1, 3) as u32,
        subarrays_per_bank: [2, 4][rng.gen_index(2)],
        rows_per_subarray: [8, 16, 32][rng.gen_index(3)],
        // Mix column counts: with 8, row-region-aligned streams alias onto
        // few banks (single-bank stress); with 128 they spread across
        // banks (rank/channel-level timing stress).
        columns: [8, 128][rng.gen_index(2)],
        column_bytes: 64,
    };

    let mut tp = TimingParams::tiny();
    tp.t_cl = rng.gen_range(2, 5);
    tp.t_rcd = rng.gen_range(2, 5);
    tp.t_rp = rng.gen_range(2, 5);
    tp.t_ras = tp.t_rcd + rng.gen_range(2, 6);
    tp.t_rc = tp.t_ras + tp.t_rp + rng.gen_range(0, 3);
    tp.t_ccd_s = rng.gen_range(1, 3);
    tp.t_ccd_l = tp.t_ccd_s + rng.gen_range(0, 3);
    tp.t_rrd_s = rng.gen_range(1, 3);
    tp.t_rrd_l = tp.t_rrd_s + rng.gen_range(0, 3);
    tp.t_faw = tp.t_rrd_s + rng.gen_range(2, 10);
    tp.t_wr = rng.gen_range(2, 5);
    tp.t_rtp = rng.gen_range(1, 4);
    tp.t_cwl = rng.gen_range(2, 4);
    tp.t_bl = [2, 4][rng.gen_index(2)];
    tp.t_wtr_s = rng.gen_range(1, 3);
    tp.t_wtr_l = tp.t_wtr_s + rng.gen_range(0, 2);
    tp.t_rfc = rng.gen_range(10, 40);
    tp.t_refi = tp.t_rfc + rng.gen_range(200, 1500);
    tp.t_refw = tp.t_refi * rng.gen_range(4, 16);
    tp.t_rfm = rng.gen_range(5, 25);
    tp.validate()
        .unwrap_or_else(|e| panic!("generated timing invalid ({case_seed:#x}): {e}"));

    let scheme = *ConfScheme::all()
        .get(rng.gen_index(ConfScheme::all().len()))
        .expect("non-empty");
    let cfg = SystemConfig {
        geometry,
        timing: tp,
        rh: RhParams::new(rng.gen_range(64, 512), rng.gen_range(1, 3) as u32),
        mlp: rng.gen_range(1, 9) as usize,
        target_requests: rng.gen_range(200, 800),
        max_cycles: 3_000_000,
        raaimt_override: if rng.gen_bool(0.5) {
            Some(rng.gen_range(4, 32) as u32)
        } else {
            None
        },
        page_policy: if rng.gen_bool(0.5) {
            PagePolicy::Open
        } else {
            PagePolicy::Closed
        },
        posted_writes: rng.gen_bool(0.5),
        engine: Engine::Fast,
        trace_depth: 1 << 20,
        profile: false,
        watchdog_window: 0,
    };

    let cores = rng.gen_range(1, 4) as usize;
    let streams = (0..cores)
        .map(|_| (rng.gen_bool(0.5), rng.next_u64()))
        .collect();
    FuzzCase {
        cfg,
        scheme,
        streams,
    }
}

/// Builds the case's request streams (deterministic: same case, same
/// streams, every time).
fn build_streams(case: &FuzzCase) -> Vec<Box<dyn RequestStream>> {
    // Streams require ≥ 1 MiB of PA space; the mapper wraps addresses
    // beyond the (possibly tiny) geometry, so a floor is safe.
    let cap = case.cfg.capacity_bytes().max(1 << 20);
    case.streams
        .iter()
        .map(|&(use_profile, seed)| {
            if use_profile {
                let profiles = AppProfile::spec_high();
                let p = profiles[(seed % profiles.len() as u64) as usize];
                Box::new(ProfileStream::new(p, cap, seed)) as Box<dyn RequestStream>
            } else {
                Box::new(RandomStream::new(cap, seed)) as Box<dyn RequestStream>
            }
        })
        .collect()
}

/// Engine variants compared by [`run_differential`].
const VARIANTS: [&str; 3] = ["fast", "retranslate", "reference"];

/// Runs one cell through all three engine variants.
///
/// # Errors
///
/// Describes the first divergence found: an incomplete trace, an oracle
/// violation (with the leading violations), a report mismatch, or a
/// command-stream mismatch between variants.
pub fn run_differential(case: &FuzzCase) -> Result<(), String> {
    let mut reports: Vec<SimReport> = Vec::new();
    let mut traces: Vec<Vec<CommandRecord>> = Vec::new();
    for (variant, name) in VARIANTS.iter().enumerate() {
        let mut cfg = case.cfg;
        let base = case.scheme.build(&cfg);
        let mitigation: Box<dyn Mitigation> = match variant {
            0 => Box::new(EpochCheck::new(base)),
            1 => Box::new(Retranslate::new(base)),
            _ => {
                cfg.engine = Engine::Reference;
                base
            }
        };
        let mut sys = MemSystem::new(cfg, build_streams(case), mitigation);
        let report = sys.run();
        let trace = sys.device().trace().expect("tracing enabled");
        if !trace.is_complete() {
            return Err(format!(
                "{name}: trace dropped {} records; raise trace_depth",
                trace.dropped()
            ));
        }
        // Every fuzzed scheme counts every ACT toward RFM (none filter
        // demand the way `Filtered` does), so exact RAA accounting
        // applies; ABO schemes additionally get the oracle's zero-grace
        // recovery model via the system's captured contract.
        let oracle = oracle_for(&sys, &cfg, true);
        let records = sys.take_trace().expect("tracing enabled");
        let violations = oracle.replay(&records);
        if !violations.is_empty() {
            let shown: Vec<String> = violations.iter().take(5).map(|v| v.to_string()).collect();
            return Err(format!(
                "{name}: {} oracle violation(s) under {}; first: {}",
                violations.len(),
                case.scheme.name(),
                shown.join(" | ")
            ));
        }
        reports.push(report);
        traces.push(records);
    }
    for i in 1..VARIANTS.len() {
        if reports[i] != reports[0] {
            return Err(format!(
                "report mismatch under {}: {} vs {}\n{:?}\n{:?}",
                case.scheme.name(),
                VARIANTS[0],
                VARIANTS[i],
                reports[0],
                reports[i]
            ));
        }
        if traces[i] != traces[0] {
            let at = traces[0]
                .iter()
                .zip(&traces[i])
                .position(|(a, b)| a != b)
                .unwrap_or_else(|| traces[0].len().min(traces[i].len()));
            return Err(format!(
                "command-stream mismatch under {} at record {at}: {} has {:?}, {} has {:?}",
                case.scheme.name(),
                VARIANTS[0],
                traces[0].get(at),
                VARIANTS[i],
                traces[i].get(at)
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_cases_are_deterministic() {
        let a = gen_case(42);
        let b = gen_case(42);
        assert_eq!(a.cfg, b.cfg);
        assert_eq!(a.scheme, b.scheme);
        assert_eq!(a.streams, b.streams);
    }

    #[test]
    fn generated_timing_always_validates() {
        for seed in 0..200 {
            let case = gen_case(seed);
            assert!(case.cfg.timing.validate().is_ok(), "seed {seed}");
            assert!(case.cfg.geometry.total_banks() > 0);
        }
    }

    #[test]
    fn one_cell_runs_clean() {
        run_differential(&gen_case(7)).unwrap();
    }
}
