//! Manifest robustness: `load_manifest`, the one resume reader, never
//! panics on a damaged checkpoint manifest.
//!
//! A deterministic mutation loop takes a manifest written by a real tiny
//! campaign, inserts, deletes and splices bytes, and loads each mutant.
//! The load must return `Ok` or `Err` — a panic fails the test with the
//! offending mutant printed — and every result it keeps must be a report
//! that round-trips through `report_to_json`/`report_from_json`. The
//! mutant count honors `PROPTEST_CASES` (default 1024).

use std::panic::{self, AssertUnwindSafe};
use std::path::{Path, PathBuf};

use shadow_bench::json::{report_from_json, report_to_json};
use shadow_bench::runner::load_manifest;
use shadow_campaign::engine::{run_campaign, CampaignOptions};
use shadow_campaign::null_campaign_sink;
use shadow_campaign::recipe::Recipe;

/// SplitMix64, as in `recipe_fuzz.rs`: the mutation stream is fixed by
/// its seed alone.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// Fragments worth inserting: JSON syntax, manifest keys, and numeric
/// edge values the report decoder must reject or bound.
const TOKENS: &[&str] = &[
    "{",
    "}",
    "[",
    "]",
    "\"",
    ",",
    ":",
    "\n",
    "\\",
    "\\u",
    "null",
    "0",
    "-1",
    "1e999",
    "18446744073709551616",
    "340282366920938463463374607431768211456",
    "\"fp\":",
    "\"status\":\"ok\"",
    "\"report\":{}",
    "\"completed\":[]",
    "\"wall_secs\":-0.0",
];

fn cases() -> usize {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1024)
}

/// Applies 1–4 random edits: insert a token or a random byte, delete a
/// span, or splice in a span copied from elsewhere in `base`.
fn mutate(rng: &mut Rng, base: &[u8]) -> Vec<u8> {
    let mut m = base.to_vec();
    for _ in 0..1 + rng.below(4) {
        let at = rng.below(m.len() + 1);
        match rng.below(4) {
            0 => {
                let t = TOKENS[rng.below(TOKENS.len())].as_bytes();
                m.splice(at..at, t.iter().copied());
            }
            1 => m.insert(at, rng.next() as u8),
            2 => {
                let end = (at + 1 + rng.below(64)).min(m.len());
                m.drain(at..end);
            }
            _ => {
                let from = rng.below(base.len());
                let to = (from + 1 + rng.below(256)).min(base.len());
                m.splice(at..at, base[from..to].iter().copied());
            }
        }
    }
    m
}

/// Writes a manifest from a real 2-cell campaign into `dir`.
fn seed_manifest(dir: &Path) -> Vec<u8> {
    let path = dir.join("seed.jsonl");
    let _ = std::fs::remove_file(&path);
    let recipe = Recipe::parse(
        "[campaign]\nname = \"seed\"\n[[scenario]]\npreset = \"tiny\"\n\
         workloads = [\"random-stream\"]\nschemes = [\"baseline\", \"shadow\"]\nrequests = [200]\n",
    )
    .expect("recipe parses");
    let opts = CampaignOptions {
        manifest: Some(path.clone()),
        ..CampaignOptions::default()
    };
    let report = run_campaign(&recipe, &opts, &null_campaign_sink()).expect("campaign runs");
    assert_eq!(report.summary.ok, 2);
    std::fs::read(&path).expect("manifest written")
}

#[test]
fn mutated_manifests_never_panic() {
    let dir = std::env::temp_dir().join(format!("shadow-manifest-fuzz-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let seed = seed_manifest(&dir);
    let path: PathBuf = dir.join("mutant.jsonl");
    let mut rng = Rng(0x5EED_F00D);
    let mut kept = 0usize;
    for case in 0..cases() {
        let mutant = mutate(&mut rng, &seed);
        std::fs::write(&path, &mutant).expect("write mutant");
        let text = String::from_utf8_lossy(&mutant);
        let loaded = panic::catch_unwind(AssertUnwindSafe(|| load_manifest(&path)))
            .unwrap_or_else(|_| panic!("case {case}: load_manifest panicked on:\n{text}"));
        let Ok(map) = loaded else { continue };
        for result in map.values() {
            let decoded = report_from_json(&report_to_json(&result.report))
                .unwrap_or_else(|e| panic!("case {case}: kept report does not decode: {e}"));
            assert_eq!(decoded, result.report, "case {case}");
        }
        kept += map.len();
    }
    // The loop must exercise the decoder, not only the rejection path.
    assert!(kept > 0, "no mutant kept a single checkpoint");
    let _ = std::fs::remove_dir_all(&dir);
}
