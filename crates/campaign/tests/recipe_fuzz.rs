//! Recipe robustness: malformed recipes produce a named [`RecipeError`],
//! never a panic.
//!
//! A deterministic mutation loop takes every checked-in `recipes/*.toml`,
//! plus each of them lowered to a JSON recipe, inserts, deletes and
//! splices bytes, and feeds each mutant through [`Recipe::parse`] and,
//! when it parses, [`Recipe::expand`]. The JSON seeds drive `Json::parse`
//! and [`Recipe::from_json`] over arbitrary bytes the way the TOML seeds
//! drive the TOML lowering. Any step panicking fails the test with the
//! offending mutant printed. The mutant count honors `PROPTEST_CASES`
//! (default 4096 per seed).
//!
//! Fixed regression inputs pin the scenario axes that used to slip past
//! `parse` and then panic (or silently wrap) in `expand`.

use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;

use shadow_campaign::recipe::{self, Recipe};

/// SplitMix64: a tiny self-contained generator, so the mutation stream is
/// fixed by its seed alone.
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

/// Fragments worth inserting: recipe syntax, keys, and the numeric edge
/// values the scenario axes must reject or bound.
const TOKENS: &[&str] = &[
    "0",
    "1",
    "-1",
    "4294967296",
    "18446744073709551615",
    "99999999999999999999",
    "1.5",
    "[",
    "]",
    "[[scenario]]",
    "[campaign]",
    "[reporting]",
    "[[fault]]",
    "{",
    "}",
    "\"",
    "=",
    ",",
    ".",
    "#",
    "\n",
    "\\",
    "h_cnt = [0]",
    "blast = [0]",
    "requests = []",
    "threads = 0",
    "mlp = 0",
    "engine = [\"reference\"]",
];

fn cases() -> usize {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4096)
}

fn seed_recipes() -> Vec<(String, Vec<u8>)> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../recipes");
    let mut out: Vec<(String, Vec<u8>)> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("reading {}: {e}", dir.display()))
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "toml"))
        .map(|p| {
            let bytes = std::fs::read(&p).expect("readable recipe");
            (p.file_name().unwrap().to_string_lossy().into_owned(), bytes)
        })
        .collect();
    out.sort();
    assert!(!out.is_empty(), "no recipes/*.toml to mutate");
    let json: Vec<(String, Vec<u8>)> = out
        .iter()
        .map(|(name, bytes)| {
            let text = std::str::from_utf8(bytes).expect("UTF-8 recipe");
            let tree = recipe::toml_to_json(text).unwrap_or_else(|e| panic!("{name}: {e}"));
            let lowered = tree.to_json();
            assert_eq!(
                Recipe::parse(&lowered).is_ok(),
                Recipe::parse(text).is_ok(),
                "{name}: the JSON form must parse exactly when the TOML does"
            );
            (format!("{name} as JSON"), lowered.into_bytes())
        })
        .collect();
    out.extend(json);
    out
}

/// Applies 1–4 random edits: insert a token or a random byte, delete a
/// span, or splice in a span copied from `donor`.
fn mutate(rng: &mut Rng, base: &[u8], donor: &[u8]) -> Vec<u8> {
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
                let end = (at + 1 + rng.below(16)).min(m.len());
                m.drain(at..end);
            }
            _ => {
                let from = rng.below(donor.len());
                let to = (from + 1 + rng.below(64)).min(donor.len());
                m.splice(at..at, donor[from..to].iter().copied());
            }
        }
    }
    m
}

/// Parses `text` and expands it when it parses. Returns the panic message
/// if either step panicked.
fn parse_and_expand(text: &str) -> Result<(), String> {
    panic::catch_unwind(AssertUnwindSafe(|| {
        if let Ok(recipe) = Recipe::parse(text) {
            let _ = recipe.expand();
        }
    }))
    .map_err(|p| {
        p.downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| p.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic".into())
    })
}

const BASE: &str = "[campaign]\nname = \"r\"\n[[scenario]]\npreset = \"tiny\"\n\
                    workloads = [\"random-stream\"]\nschemes = [\"baseline\"]\n";

#[test]
fn zero_or_oversized_rh_axes_are_named_errors() {
    for (line, key) in [
        ("h_cnt = [0]", "h_cnt[]"),
        ("h_cnt = [4096, 0]", "h_cnt[]"),
        ("blast = [0]", "blast[]"),
        ("blast = [4294967296]", "blast[]"),
        ("blast = [4294967297]", "blast[]"),
    ] {
        let text = format!("{BASE}{line}\n");
        parse_and_expand(&text).unwrap_or_else(|p| panic!("`{line}` panicked: {p}"));
        let e = Recipe::parse(&text).expect_err(line);
        assert!(
            e.0.contains(&format!("[[scenario]] #0.{key}")),
            "`{line}`: {e}"
        );
    }
}

#[test]
fn mutated_recipes_never_panic() {
    let recipes = seed_recipes();
    let n = cases();
    let mut rng = Rng(0x5EC1_9E00);
    let mut parsed = 0usize;
    for (ri, (name, base)) in recipes.iter().enumerate() {
        let donor = &recipes[(ri + 1) % recipes.len()].1;
        for case in 0..n {
            let mutant = mutate(&mut rng, base, donor);
            let text = String::from_utf8_lossy(&mutant);
            if let Err(p) = parse_and_expand(&text) {
                panic!("{name} mutant {case} panicked: {p}\n--- mutant ---\n{text}\n---");
            }
            parsed += usize::from(Recipe::parse(&text).is_ok());
        }
    }
    // A loop whose every mutant fails to parse would only ever exercise
    // the lexer; make sure `expand` saw real work too.
    if n >= 256 {
        assert!(
            parsed > 0,
            "no mutant parsed; the mutation loop is too destructive"
        );
    }
}
