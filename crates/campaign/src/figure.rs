//! Figure launchers: the sweep benches (`fig8_perf`, `fig10_blast`,
//! `fig11_sim`, `prac_frontier`) each run a checked-in recipe
//! (`recipes/<name>.toml`) through [`run_campaign`] and normalise every
//! scheme cell against the Baseline cell of the same configuration and
//! workload. Isolation, retries, deadlines and checkpoint/resume are the
//! campaign engine's; a launcher only formats the table.

use crate::engine::{run_campaign, sink_for, CampaignOptions, CellStatus};
use crate::recipe::{CampaignCell, Recipe, RecipeError};
use shadow_bench::{request_target, Cell, CellResult, Scheme};
use std::path::PathBuf;

/// One scheme cell of a finished figure sweep, relative to its Baseline.
#[derive(Debug, Clone)]
pub struct Relative {
    /// The (config, workload, scheme) cell.
    pub cell: Cell,
    /// Performance relative to the Baseline cell of equal config and
    /// workload ([`shadow_memsys::SimReport::relative_performance`]).
    pub rel: f64,
    /// The cell's own result.
    pub result: CellResult,
}

/// For every cell, the index of its Baseline partner: the Baseline cell
/// with an equal config and workload (`None` for Baseline cells).
///
/// # Errors
///
/// [`RecipeError`] naming the first scheme cell with no Baseline partner
/// or with more than one.
pub fn baseline_partners(cells: &[CampaignCell]) -> Result<Vec<Option<usize>>, RecipeError> {
    cells
        .iter()
        .enumerate()
        .map(|(i, cc)| {
            let (cfg, workload, scheme) = &cc.cell;
            if *scheme == Scheme::Baseline {
                return Ok(None);
            }
            let mut partners = cells.iter().enumerate().filter(|(_, b)| {
                b.cell.2 == Scheme::Baseline && b.cell.1 == *workload && b.cell.0 == *cfg
            });
            match (partners.next(), partners.next()) {
                (Some((j, _)), None) => Ok(Some(j)),
                (found, _) => Err(RecipeError(format!(
                    "cell {i} ({workload}/{}): {} Baseline cells with an equal config",
                    scheme.name(),
                    if found.is_some() { "several" } else { "no" }
                ))),
            }
        })
        .collect()
}

/// The distinct items of `items`, in first-appearance order (a figure's
/// rows and columns, read off the expanded recipe).
pub fn distinct<T: PartialEq>(items: impl IntoIterator<Item = T>) -> Vec<T> {
    let mut out = Vec::new();
    for item in items {
        if !out.contains(&item) {
            out.push(item);
        }
    }
    out
}

/// Runs `recipes/<name>.toml` for a figure bench and returns its scheme
/// cells, in expansion order, relative to their Baseline partners.
///
/// `SHADOW_BENCH_REQS`, when set, replaces every scenario's `requests`;
/// `SHADOW_BENCH_RESUME` names the checkpoint manifest; worker threads
/// come from the recipe, else `SHADOW_BENCH_THREADS`.
///
/// # Panics
///
/// Panics when the recipe cannot be read, parsed or paired, or the
/// campaign cannot run. When any cell fails, prints each failed cell's
/// diagnosis and exits the process with the campaign's exit code.
pub fn launch(name: &str) -> Vec<Relative> {
    let dir = shadow_bench::workspace_root().join("recipes");
    let path = dir.join(format!("{name}.toml"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let mut recipe = Recipe::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    if std::env::var_os("SHADOW_BENCH_REQS").is_some() {
        let requests = request_target();
        for s in &mut recipe.scenarios {
            s.requests = vec![requests];
        }
    }
    let cells = recipe.expand();
    let partners = baseline_partners(&cells).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    // A relative SHADOW_BENCH_RESUME path means the working directory, not
    // the recipe directory that `base_dir` resolves recipe paths against.
    let manifest = std::env::var_os("SHADOW_BENCH_RESUME")
        .map(|p| std::path::absolute(PathBuf::from(p)).expect("current directory"));
    let opts = CampaignOptions {
        threads: None,
        manifest,
        base_dir: Some(dir),
    };
    let sink = sink_for(&recipe.reporting.events, opts.base_dir.as_deref())
        .unwrap_or_else(|e| panic!("{e}"));
    let report = run_campaign(&recipe, &opts, &sink).unwrap_or_else(|e| panic!("{e}"));
    if report.exit_code() != 0 {
        eprintln!("[sweep] {}", report.summary);
        for (i, c) in report.cells.iter().enumerate() {
            let why = match &c.status {
                CellStatus::Ok { .. } => continue,
                CellStatus::Quarantined { reason, error, .. } => format!("{reason}: {error}"),
                CellStatus::Invalid { error } => format!("invalid: {error}"),
                CellStatus::Skipped => "skipped".to_string(),
            };
            eprintln!("[sweep] cell {i} ({}/{}) {why}", c.workload, c.scheme);
        }
        std::process::exit(report.exit_code());
    }
    let result = |i: usize| {
        report.cells[i]
            .result
            .clone()
            .expect("every cell completed")
    };
    cells
        .into_iter()
        .zip(partners)
        .enumerate()
        .filter_map(|(i, (cc, partner))| {
            let base = result(partner?);
            let result = result(i);
            Some(Relative {
                cell: cc.cell,
                rel: result.report.relative_performance(&base.report),
                result,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recipe(schemes: &str, extra: &str) -> Vec<CampaignCell> {
        Recipe::parse(&format!(
            "[campaign]\nname = \"p\"\n[[scenario]]\npreset = \"tiny\"\n\
             workloads = [\"random-stream\", \"mix-high\"]\nschemes = [{schemes}]\n{extra}\n"
        ))
        .expect("parses")
        .expand()
    }

    #[test]
    fn partners_match_config_and_workload() {
        let cells = recipe("\"baseline\", \"shadow\"", "h_cnt = [1024, 2048]");
        let partners = baseline_partners(&cells).expect("pairs");
        for (i, p) in partners.iter().enumerate() {
            match p {
                None => assert_eq!(cells[i].cell.2, Scheme::Baseline),
                Some(j) => {
                    assert_eq!(cells[*j].cell.2, Scheme::Baseline);
                    assert_eq!(cells[*j].cell.1, cells[i].cell.1);
                    assert_eq!(cells[*j].cell.0, cells[i].cell.0);
                }
            }
        }
    }

    #[test]
    fn missing_or_ambiguous_baseline_is_a_named_error() {
        let e = baseline_partners(&recipe("\"shadow\"", "")).expect_err("no baseline");
        assert!(e.0.contains("no Baseline"), "{e}");
        let mut twice = recipe("\"baseline\", \"shadow\"", "");
        twice.push(twice[0].clone());
        let e = baseline_partners(&twice).expect_err("two baselines");
        assert!(e.0.contains("several Baseline"), "{e}");
    }

    #[test]
    fn distinct_keeps_first_appearance_order() {
        assert_eq!(distinct([3, 1, 3, 2, 1]), vec![3, 1, 2]);
    }
}
