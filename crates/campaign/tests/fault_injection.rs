//! Crash-isolation acceptance tests: injected faults in a multi-cell
//! campaign must cost exactly the faulted cell, nothing else.
//!
//! The faults are `[[fault]]` recipe entries, which wrap the cell's
//! mitigation in a `shadow_conformance::FaultyMitigation`; every other
//! cell takes the production path, so the machinery under test
//! (catch_unwind isolation, ordered results, reference probe, deadlines)
//! is exactly what a real campaign runs.

use shadow_campaign::engine::{run_campaign, CampaignOptions};
use shadow_campaign::recipe::Recipe;
use shadow_campaign::{null_campaign_sink, CampaignReport, CellStatus};

/// Runs a 32-cell tiny campaign over distinguishable request targets,
/// with `faults` appended to the recipe.
fn campaign(faults: &str) -> CampaignReport {
    let requests: Vec<String> = (0..32u64).map(|i| (200 + i * 7).to_string()).collect();
    let recipe = Recipe::parse(&format!(
        "[campaign]\nname = \"isolation\"\nthreads = 4\n[[scenario]]\n\
         preset = \"tiny\"\nworkloads = [\"random-stream\"]\nschemes = [\"baseline\"]\n\
         requests = [{}]\n{faults}",
        requests.join(", ")
    ))
    .expect("recipe parses");
    run_campaign(&recipe, &CampaignOptions::default(), &null_campaign_sink()).expect("runs")
}

#[test]
fn panic_in_one_of_32_cells_costs_exactly_that_cell() {
    let faulty_idx = 13;
    let clean = campaign("");
    assert_eq!(clean.exit_code(), 0, "clean campaign all Ok");

    // The fault fires on both engines: the cell is broken, not the fast
    // path.
    let faulted = campaign(&format!(
        "[[fault]]\ncell = {faulty_idx}\nkind = \"panic-at-act\"\nat = 50\n"
    ));
    assert_eq!(faulted.cells.len(), 32, "complete result set");
    assert_eq!((faulted.summary.ok, faulted.summary.quarantined), (31, 1));
    for (i, (got, want)) in faulted.cells.iter().zip(&clean.cells).enumerate() {
        if i == faulty_idx {
            match &got.status {
                CellStatus::Quarantined {
                    reason,
                    error,
                    diverged,
                } => {
                    assert_eq!(*reason, "panicked");
                    assert!(error.contains("injected fault"), "{error}");
                    assert!(!diverged, "the reference probe hits the same fault");
                }
                other => panic!("cell {i} should have panicked, got {other:?}"),
            }
        } else {
            assert_eq!(
                got.result.as_ref().expect("healthy cell ran").report,
                want.result.as_ref().expect("clean cell ran").report,
                "cell {i} must be bit-identical to the fault-free campaign"
            );
        }
    }
}

#[test]
fn stalled_cell_recovers_on_reference_and_reports_divergence() {
    // The fault fires only on the fast path: the reference probe then
    // *succeeds*, which the campaign must flag as a divergence rather than
    // silently adopting the result.
    let recipe = Recipe::parse(
        "[campaign]\nname = \"diverge\"\n[[scenario]]\npreset = \"tiny\"\n\
         workloads = [\"random-stream\"]\nschemes = [\"baseline\"]\nrequests = [400]\n\
         watchdog_window = 100000\n\
         [[fault]]\ncell = 0\nkind = \"stall-at-act\"\nat = 30\nin_reference = false\n",
    )
    .expect("recipe parses");
    let report =
        run_campaign(&recipe, &CampaignOptions::default(), &null_campaign_sink()).expect("runs");
    match &report.cells[0].status {
        CellStatus::Quarantined {
            reason,
            error,
            diverged,
        } => {
            assert_eq!(*reason, "stalled");
            assert!(
                error.contains("at cycle"),
                "stall diagnosis missing: {error}"
            );
            assert!(diverged, "reference probe succeeded: a divergence");
        }
        other => panic!("expected a stalled quarantine, got {other:?}"),
    }
    assert_eq!(report.summary.diverged, 1);
    assert!(
        report.summary.to_string().contains("fast-path divergence"),
        "{}",
        report.summary
    );
}

#[test]
fn deadline_turns_runaway_cell_into_timeout() {
    // A cell with no request target runs to its cycle limit; a tight
    // wall-clock deadline must cut it loose as timed out while the
    // healthy sibling cell completes.
    let recipe = Recipe::parse(
        "[campaign]\nname = \"deadline\"\nthreads = 2\ncell_deadline_secs = 0.25\n\
         [[scenario]]\npreset = \"ddr4\"\nworkloads = [\"random-stream\"]\n\
         schemes = [\"baseline\"]\nrequests = [0]\n\
         [[scenario]]\npreset = \"tiny\"\nworkloads = [\"random-stream\"]\n\
         schemes = [\"baseline\"]\nrequests = [200]\n",
    )
    .expect("recipe parses");
    let report =
        run_campaign(&recipe, &CampaignOptions::default(), &null_campaign_sink()).expect("runs");
    match &report.cells[0].status {
        CellStatus::Quarantined { reason, error, .. } => {
            assert_eq!(*reason, "timed-out");
            assert!(error.contains("0.25s cell deadline"), "{error}");
        }
        other => panic!("runaway cell should time out, got {other:?}"),
    }
    assert_eq!(
        report.cells[1].status,
        CellStatus::Ok { restored: false },
        "quick cell unaffected by the timeout"
    );
}
