//! The checked-in figure recipes stay launchable: each parses, expands to
//! the cell count its figure bench is built around, and pairs every
//! scheme cell with exactly one Baseline cell of equal config and
//! workload (what `figure::launch` normalises against).

use std::path::PathBuf;

use shadow_campaign::figure::baseline_partners;
use shadow_campaign::recipe::Recipe;

/// Every `recipes/fig*.toml` plus `prac_frontier.toml`, with the cell
/// count it must expand to.
const FIGURES: &[(&str, usize)] = &[
    // 7 workloads × (Baseline + 5 schemes).
    ("fig8.toml", 42),
    // The Figure 8 slice run by `campaign run`: 3 × 4 + 2 × 2 × 2.
    ("fig8-slice.toml", 20),
    // 2 mixes × (Baseline + 3 schemes) × 5 blast radii.
    ("fig10.toml", 40),
    // (2 mixes + 3 random draws) × (Baseline + 3 schemes) × 4 H_cnt.
    ("fig11.toml", 80),
    // 2 workloads × (Baseline + 5 schemes).
    ("prac_frontier.toml", 12),
];

fn recipes_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../recipes")
}

#[test]
fn every_figure_recipe_is_listed() {
    let mut on_disk: Vec<String> = std::fs::read_dir(recipes_dir())
        .expect("recipes dir")
        .map(|e| {
            e.expect("dir entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .filter(|n| n.ends_with(".toml") && (n.starts_with("fig") || n == "prac_frontier.toml"))
        .collect();
    on_disk.sort();
    let mut listed: Vec<String> = FIGURES.iter().map(|(n, _)| n.to_string()).collect();
    listed.sort();
    assert_eq!(on_disk, listed);
}

#[test]
fn figure_recipes_expand_and_pair_with_baselines() {
    for &(name, count) in FIGURES {
        let path = recipes_dir().join(name);
        let text = std::fs::read_to_string(&path).expect("readable recipe");
        let recipe = Recipe::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        let cells = recipe.expand();
        assert_eq!(cells.len(), count, "{name}: cell count");
        let partners = baseline_partners(&cells).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(
            partners.iter().any(Option::is_some),
            "{name}: no scheme cells to normalise"
        );
    }
}
