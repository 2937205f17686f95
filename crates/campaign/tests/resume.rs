//! Checkpoint/resume acceptance tests: a campaign resumed from its JSONL
//! manifest must restore completed cells without running them and
//! reproduce the uninterrupted campaign bit-identically. Executions are
//! counted as `CellStarted` events: a restored cell never starts.
//!
//! The manifest key holds exactly the inputs that change a report: a
//! manifest written at another `h_cnt` or request target restores
//! nothing, one written at another watchdog window restores everything,
//! and one written under another key version is refused by name.

use shadow_bench::runner::{SweepEvent, KEY_VERSION};
use shadow_bench::BenchError;
use shadow_campaign::engine::{run_campaign, CampaignEvent, CampaignOptions, CampaignSink};
use shadow_campaign::recipe::Recipe;
use shadow_campaign::{null_campaign_sink, CampaignError, CampaignReport};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// The text of a tiny Baseline campaign with one cell per request
/// target, plus `extra` scenario lines.
fn recipe_text(requests: &[u64], extra: &str) -> String {
    let requests: Vec<String> = requests.iter().map(u64::to_string).collect();
    format!(
        "[campaign]\nname = \"resume\"\nthreads = 2\n[[scenario]]\npreset = \"tiny\"\n\
         workloads = [\"random-stream\"]\nschemes = [\"baseline\"]\nrequests = [{}]\n{extra}\n",
        requests.join(", ")
    )
}

/// A tiny Baseline campaign with one cell per request target.
fn recipe(requests: &[u64]) -> Recipe {
    recipe_with(requests, "")
}

/// [`recipe`] plus `extra` scenario lines.
fn recipe_with(requests: &[u64], extra: &str) -> Recipe {
    Recipe::parse(&recipe_text(requests, extra)).expect("recipe parses")
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

#[test]
fn manifest_at_another_h_cnt_or_requests_restores_nothing() {
    let manifest = tmp_manifest("outcome-inputs");
    let opts = with_manifest(&manifest);
    let first = run_campaign(
        &recipe_with(&targets(2), "h_cnt = [1024]"),
        &opts,
        &null_campaign_sink(),
    )
    .expect("first campaign");
    assert_eq!(first.summary.ok, 2);

    for (requests, extra) in [
        (targets(2), "h_cnt = [2048]"),
        (vec![301, 312], "h_cnt = [1024]"),
    ] {
        let (other, started) = run_counting(&recipe_with(&requests, extra), &opts);
        assert_eq!(
            started, 2,
            "`{extra}` at {requests:?} restored a stale checkpoint"
        );
        assert_eq!((other.summary.restored, other.summary.ok), (0, 2));
    }
    let _ = std::fs::remove_file(&manifest);
}

#[test]
fn manifest_at_another_watchdog_window_restores_every_cell() {
    let manifest = tmp_manifest("watchdog");
    let opts = with_manifest(&manifest);
    let first =
        run_campaign(&recipe(&targets(3)), &opts, &null_campaign_sink()).expect("first campaign");

    let watched = recipe_with(&targets(3), "watchdog_window = 1000000");
    let (replay, started) = run_counting(&watched, &opts);
    assert_eq!(started, 0, "the watchdog window does not change a report");
    assert_eq!(replay.summary.restored, 3);
    assert_same_reports(&replay, &first);
    let _ = std::fs::remove_file(&manifest);
}

#[test]
fn foreign_or_missing_key_version_is_a_named_error() {
    let dir = std::env::temp_dir().join(format!("shadow-key-version-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let manifest = dir.join("versioned.jsonl");
    let _ = std::fs::remove_file(&manifest);
    let r = recipe(&targets(2));
    run_campaign(&r, &with_manifest(&manifest), &null_campaign_sink()).expect("first campaign");
    let written = std::fs::read_to_string(&manifest).expect("manifest written");
    let stamp = format!("\"key_version\":{KEY_VERSION},");
    assert!(written.contains(&stamp), "{written}");

    for (replacement, want) in [("\"key_version\":1,", Some(1)), ("", None)] {
        let stale = dir.join(format!("stale-{}.jsonl", want.unwrap_or(0)));
        std::fs::write(&stale, written.replace(&stamp, replacement)).expect("write");
        match run_campaign(&r, &with_manifest(&stale), &null_campaign_sink()) {
            Err(CampaignError::Bench(BenchError::KeyVersion { line, found, .. })) => {
                assert_eq!((line, found), (1, want));
            }
            other => panic!("expected a key-version error, got {other:?}"),
        }

        // The CLI refuses the same manifest: exit 3, naming the manifest
        // and both versions.
        let recipe_path = dir.join("versioned.toml");
        let text = recipe_text(&targets(2), "")
            + &format!("[reporting]\nmanifest = \"{}\"\n", stale.display());
        std::fs::write(&recipe_path, text).expect("write recipe");
        let out = Command::new(env!("CARGO_BIN_EXE_shadow-bench"))
            .args(["campaign", "run"])
            .arg(&recipe_path)
            .arg("--quiet")
            .output()
            .expect("campaign binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(3), "{stderr}");
        let found = want.map_or("none".to_string(), |v| v.to_string());
        for needle in [
            stale.display().to_string(),
            format!("key version {found}"),
            format!("version {KEY_VERSION}"),
        ] {
            assert!(stderr.contains(&needle), "missing `{needle}` in: {stderr}");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
