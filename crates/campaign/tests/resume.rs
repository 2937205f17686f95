//! Checkpoint/resume acceptance tests: a campaign resumed from its JSONL
//! manifest must restore completed cells without running them and
//! reproduce the uninterrupted campaign bit-identically. Executions are
//! counted as `CellStarted` events: a restored cell never starts.

use shadow_bench::runner::SweepEvent;
use shadow_campaign::engine::{run_campaign, CampaignEvent, CampaignOptions, CampaignSink};
use shadow_campaign::recipe::Recipe;
use shadow_campaign::{null_campaign_sink, CampaignReport};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// A tiny Baseline campaign with one cell per request target.
fn recipe(requests: &[u64]) -> Recipe {
    let requests: Vec<String> = requests.iter().map(u64::to_string).collect();
    Recipe::parse(&format!(
        "[campaign]\nname = \"resume\"\nthreads = 2\n[[scenario]]\npreset = \"tiny\"\n\
         workloads = [\"random-stream\"]\nschemes = [\"baseline\"]\nrequests = [{}]\n",
        requests.join(", ")
    ))
    .expect("recipe parses")
}

/// Request targets of an `n`-cell sweep of distinguishable cells.
fn targets(n: u64) -> Vec<u64> {
    (0..n).map(|i| 200 + i * 11).collect()
}

fn tmp_manifest(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("shadow-resume-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let path = dir.join(format!("{name}.jsonl"));
    let _ = std::fs::remove_file(&path);
    path
}

fn with_manifest(path: &Path) -> CampaignOptions {
    CampaignOptions {
        manifest: Some(path.to_path_buf()),
        ..CampaignOptions::default()
    }
}

/// Runs `recipe` and returns its report plus how many cells started.
fn run_counting(recipe: &Recipe, opts: &CampaignOptions) -> (CampaignReport, usize) {
    let started = Arc::new(AtomicUsize::new(0));
    let counter = Arc::clone(&started);
    let sink: CampaignSink = Arc::new(move |ev: &CampaignEvent| {
        if matches!(ev, CampaignEvent::Sweep(SweepEvent::CellStarted { .. })) {
            counter.fetch_add(1, Ordering::Relaxed);
        }
    });
    let report = run_campaign(recipe, opts, &sink).expect("campaign runs");
    (report, started.load(Ordering::Relaxed))
}

/// Asserts every cell of `got` completed with `want`'s report.
fn assert_same_reports(got: &CampaignReport, want: &CampaignReport) {
    assert_eq!(got.cells.len(), want.cells.len());
    for (i, (g, w)) in got.cells.iter().zip(&want.cells).enumerate() {
        assert_eq!(
            g.result.as_ref().expect("cell completed").report,
            w.result.as_ref().expect("reference cell completed").report,
            "cell {i} diverged after resume"
        );
    }
    assert_eq!(got.digest, want.digest);
}

#[test]
fn interrupted_sweep_resumes_skipping_completed_cells() {
    let full = recipe(&targets(8));
    let manifest = tmp_manifest("interrupted");

    // The reference artifact: a straight-through campaign, no manifest.
    let reference = run_campaign(&full, &CampaignOptions::default(), &null_campaign_sink())
        .expect("reference campaign");

    // "Interrupted" first run: only the first 5 cells before the kill.
    let opts = with_manifest(&manifest);
    let first =
        run_campaign(&recipe(&targets(5)), &opts, &null_campaign_sink()).expect("partial campaign");
    assert_eq!(first.exit_code(), 0);

    // Resume: the full campaign against the same manifest runs only the 3
    // missing cells...
    let (resumed, started) = run_counting(&full, &opts);
    assert_eq!(started, 3, "resume must skip the 5 checkpointed cells");
    assert_eq!((resumed.summary.restored, resumed.summary.ok), (5, 3));

    // ...and the final artifact is bit-identical to the straight-through
    // campaign, restored cells included.
    assert_same_reports(&resumed, &reference);
    let _ = std::fs::remove_file(&manifest);
}

#[test]
fn completed_sweep_resumes_as_pure_replay() {
    let r = recipe(&targets(4));
    let manifest = tmp_manifest("complete");
    let opts = with_manifest(&manifest);
    let first = run_campaign(&r, &opts, &null_campaign_sink()).expect("first campaign");

    let (replay, started) = run_counting(&r, &opts);
    assert_eq!(started, 0, "nothing re-executes");
    assert_eq!(replay.summary.restored, 4);
    assert_same_reports(&replay, &first);
    let _ = std::fs::remove_file(&manifest);
}

#[test]
fn config_change_invalidates_checkpoints() {
    // Same workload and scheme, different config: the fingerprint must
    // miss, and the cell must re-execute rather than restore a stale
    // result.
    let manifest = tmp_manifest("invalidate");
    let opts = with_manifest(&manifest);
    let mut requests = targets(2);
    run_campaign(&recipe(&requests), &opts, &null_campaign_sink()).expect("first campaign");

    requests[0] += 1;
    let (second, started) = run_counting(&recipe(&requests), &opts);
    assert_eq!(started, 1, "only the changed cell re-executes");
    assert_eq!((second.summary.restored, second.summary.ok), (1, 1));
    assert_eq!(second.exit_code(), 0);
    let _ = std::fs::remove_file(&manifest);
}
