//! Pins the per-bank randomness contract: PRINCE seed-derivation
//! substreams of distinct banks occupy disjoint counter windows, so the
//! words a bank draws depend only on its own seed, nonce and index. The
//! golden digests rest on this: a channel's banks (a contiguous,
//! channel-major range) draw the same words whatever the other channels
//! do.

use shadow_conformance::proptest_cases;
use shadow_crypto::{substream_counter_range, PrinceRng, RandomSource, SEED_SUBSTREAM_BLOCKS};
use shadow_sim::rng::Xoshiro256;

#[test]
fn per_channel_substream_windows_are_disjoint() {
    let mut rng = Xoshiro256::seed_from_u64(0x5EED_0D15);
    for case in 0..proptest_cases(64) as u64 {
        // A random channel-major layout: channel `ch` owns global banks
        // [ch * bpc, (ch + 1) * bpc) — the numbering the engine uses.
        let channels = rng.gen_range(2, 9);
        let bpc = rng.gen_range(1, 17);
        let windows: Vec<Vec<(u64, u64)>> = (0..channels)
            .map(|ch| {
                (0..bpc)
                    .map(|b| substream_counter_range(ch * bpc + b))
                    .collect()
            })
            .collect();
        // Every window is well-formed and exactly one refill wide.
        for w in windows.iter().flatten() {
            assert!(w.0 < w.1, "case {case}: empty window {w:?}");
            assert_eq!(w.1 - w.0, SEED_SUBSTREAM_BLOCKS);
        }
        // Windows of distinct channels never overlap (half-open ranges).
        for a in 0..channels as usize {
            for b in (a + 1)..channels as usize {
                for wa in &windows[a] {
                    for wb in &windows[b] {
                        assert!(
                            wa.1 <= wb.0 || wb.1 <= wa.0,
                            "case {case}: channel {a} window {wa:?} \
                             overlaps channel {b} window {wb:?}"
                        );
                    }
                }
            }
        }
        // And a substream that drains its full budget consumes counters
        // from its own window only (refills included).
        let bank = rng.gen_range(0, channels * bpc);
        let (start, end) = substream_counter_range(bank);
        let mut s = PrinceRng::bank_substream(0xC0FF_EE00 ^ case, case, bank);
        for _ in 0..SEED_SUBSTREAM_BLOCKS {
            let _ = s.next_u64();
            assert!(s.blocks_generated() > start && s.blocks_generated() <= end);
        }
    }
}
