//! Differential conformance sweep: randomized cells, three engine
//! variants (fast, retranslate, reference), bit-identical
//! reports and command streams, all oracle-clean.
//!
//! Case count honors `PROPTEST_CASES` (CI runs a reduced sweep); the
//! default is 64 cells.

use shadow_conformance::{gen_case, proptest_cases, run_differential};
use shadow_memsys::Scheme;
use shadow_rh::RhParams;

#[test]
fn randomized_cells_agree_across_engine_variants() {
    let cases = proptest_cases(64);
    let mut scheme_seen = std::collections::BTreeSet::new();
    let mut multi_channel = 0usize;
    for i in 0..cases as u64 {
        let case = gen_case(0xC0DE_0000 + i);
        scheme_seen.insert(case.scheme.name());
        multi_channel += usize::from(case.cfg.geometry.channels > 1);
        run_differential(&case).unwrap_or_else(|e| {
            panic!(
                "cell {i} diverged (scheme {}, geometry {:?}): {e}",
                case.scheme.name(),
                case.cfg.geometry
            )
        });
    }
    // With ≥ 32 cells the sweep should exercise a healthy spread of
    // schemes; a collapsed distribution means the generator regressed.
    if cases >= 32 {
        assert!(
            scheme_seen.len() >= 5,
            "only {scheme_seen:?} covered in {cases} cells"
        );
        // Only multi-channel cells exercise the channel-ordered merge and
        // the cross-channel cadence fallback; the generator must keep
        // producing enough of them to pin both.
        assert!(
            multi_channel >= cases / 4,
            "only {multi_channel}/{cases} cells were multi-channel"
        );
    }
}

/// PRAC-era slice: the same differential harness, but every
/// cell pinned to one of the ABO schemes (PRAC, PRACtical) or DAPPER.
/// The random draw in [`gen_case`] only lands on them ~3/15 of the time,
/// so CI's reduced sweeps could otherwise pass with the Alert Back-Off
/// recovery path (and the oracle's zero-grace ABO rules) barely
/// exercised. Cells keep their randomized geometry/timing/workload; only
/// the scheme is overridden, round-robin across the three.
#[test]
fn prac_era_cells_agree_across_engine_variants() {
    const SCHEMES: [Scheme; 3] = [Scheme::Prac, Scheme::Practical, Scheme::Dapper];
    let cases = proptest_cases(24);
    for i in 0..cases as u64 {
        let mut case = gen_case(0xAB0_0000 + i);
        case.scheme = SCHEMES[(i % 3) as usize];
        run_differential(&case).unwrap_or_else(|e| {
            panic!(
                "PRAC-era cell {i} diverged (scheme {}, geometry {:?}): {e}",
                case.scheme.name(),
                case.cfg.geometry
            )
        });
    }
}

/// Remap-churn and ABO-drain slice: the same differential harness, pinned
/// to the two nastiest invalidation sources instead of the fuzzer's
/// uniform draw —
///
/// * **remap churn**: SHADOW's intra-subarray shuffle and RRS's row swaps
///   move the remap epoch mid-run, so memoized frontiers go stale via
///   `touch_bank`/seq bumps while cached translations age out;
/// * **ABO recovery drains**: PRAC / PRACtical alert storms arm per-scope
///   recovery RFM debt, flipping the hoisted rank and bank gates every
///   visit must re-check.
///
/// Aggressive Row Hammer thresholds (h_cnt 16–48 vs the fuzzer's 64–512)
/// make both events frequent within a short cell.
#[test]
fn remap_churn_and_abo_drain_cells_agree_across_engine_variants() {
    const SCHEMES: [Scheme; 4] = [Scheme::Shadow, Scheme::Rrs, Scheme::Prac, Scheme::Practical];
    let cases = proptest_cases(16);
    for i in 0..cases as u64 {
        let mut case = gen_case(0x5EED_0000 + i);
        case.scheme = SCHEMES[(i % 4) as usize];
        case.cfg.rh = RhParams::new(16 + (i % 3) * 16, case.cfg.rh.blast_radius);
        run_differential(&case).unwrap_or_else(|e| {
            panic!(
                "churn cell {i} diverged (scheme {}, geometry {:?}): {e}",
                case.scheme.name(),
                case.cfg.geometry
            )
        });
    }
}
