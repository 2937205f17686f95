//! Crash-isolation acceptance tests: injected faults in a multi-cell
//! sweep must cost exactly the faulted cell, nothing else.
//!
//! The fault is manufactured with `shadow_conformance::FaultyMitigation`
//! through a substitute [`CellRunner`], so the sweep machinery under test
//! (catch_unwind isolation, ordered results, reference retry, deadlines)
//! is exactly the production path.

use shadow_bench::runner::{
    fingerprint, run_cells_isolated, run_cells_isolated_with, CellOutcome, CellRunner,
    RetryOutcome, RetryPolicy, SweepOptions,
};
use shadow_bench::{
    build_mitigation, run_parallel_isolated, try_workload, BenchError, Cell, CellResult, Scheme,
};
use shadow_conformance::{Fault, FaultyMitigation};
use shadow_memsys::{Engine, MemSystem, SystemConfig};
use shadow_mitigations::Mitigation;
use std::sync::Arc;

/// Mirrors `try_timed_run`, optionally wrapping the mitigation in a
/// fault injector. `fault_in_reference` controls whether the injected
/// fault also fires on the reference-engine retry.
fn run_with_fault(
    cell: Cell,
    mode: Engine,
    fault: Option<Fault>,
    fault_in_reference: bool,
) -> Result<CellResult, BenchError> {
    let (mut cfg, workload, scheme) = cell;
    if mode == Engine::Reference {
        cfg.engine = Engine::Reference;
    }
    let streams = try_workload(&workload, &cfg, 0xACE0_0000 + workload.len() as u64)?;
    let mut mitigation: Box<dyn Mitigation> = build_mitigation(scheme, &cfg);
    if let Some(f) = fault {
        if mode == Engine::Fast || fault_in_reference {
            mitigation = Box::new(FaultyMitigation::new(mitigation, f));
        }
    }
    let t0 = std::time::Instant::now();
    let mut sys = MemSystem::try_new(cfg, streams, mitigation)?;
    let report = sys.run_checked()?;
    Ok(CellResult {
        report,
        wall_secs: t0.elapsed().as_secs_f64(),
    })
}

/// A runner injecting `fault` into the single cell whose fingerprint is
/// `target_fp`.
fn faulty_runner(target_fp: u64, fault: Fault, fault_in_reference: bool) -> CellRunner {
    Arc::new(move |cell: Cell, mode| {
        let f = (fingerprint(&cell) == target_fp).then_some(fault);
        run_with_fault(cell, mode, f, fault_in_reference)
    })
}

/// A 32-cell sweep over distinguishable tiny cells.
fn sweep_cells() -> Vec<Cell> {
    (0..32u64)
        .map(|i| {
            let mut cfg = SystemConfig::tiny();
            cfg.target_requests = 200 + i * 7;
            (cfg, "random-stream".to_string(), Scheme::Baseline)
        })
        .collect()
}

const OPTS: SweepOptions = SweepOptions {
    threads: Some(4),
    deadline_secs: None,
    manifest: None,
    retry: RetryPolicy::NONE,
};

#[test]
fn panic_in_one_of_32_cells_costs_exactly_that_cell() {
    let cells = sweep_cells();
    let faulty_idx = 13;
    let clean = run_cells_isolated(cells.clone(), &OPTS).expect("clean sweep");
    assert!(clean.iter().all(CellOutcome::is_ok), "clean sweep all Ok");

    let runner = faulty_runner(
        fingerprint(&cells[faulty_idx]),
        Fault::PanicAtAct(50),
        true, // the cell is broken on both engines
    );
    let faulted =
        run_cells_isolated_with(cells.clone(), &OPTS, runner).expect("sweep survives the panic");
    assert_eq!(faulted.len(), cells.len(), "complete result set");
    for (i, (got, want)) in faulted.iter().zip(&clean).enumerate() {
        if i == faulty_idx {
            match got {
                CellOutcome::Panicked { message, retry } => {
                    assert!(message.contains("injected fault"), "{message}");
                    assert!(
                        matches!(retry, RetryOutcome::AlsoFailed(m) if m.contains("injected fault")),
                        "reference retry should hit the same injected fault: {retry:?}"
                    );
                }
                other => panic!("cell {i} should have panicked, got {other:?}"),
            }
        } else {
            let got = got.result().unwrap_or_else(|| panic!("cell {i} not Ok"));
            let want = want.result().expect("clean cell");
            assert_eq!(
                got.report, want.report,
                "cell {i} must be bit-identical to the fault-free sweep"
            );
        }
    }
}

#[test]
fn stalled_cell_recovers_on_reference_and_reports_divergence() {
    // The fault fires only on the fast path: the reference retry then
    // *succeeds*, which the runner must surface as a divergence
    // (RetryOutcome::Recovered) rather than silently adopting the result.
    let mut cfg = SystemConfig::tiny();
    cfg.target_requests = 400;
    cfg.watchdog_window = 100_000;
    let cell: Cell = (cfg, "random-stream".to_string(), Scheme::Baseline);

    let runner = faulty_runner(fingerprint(&cell), Fault::StallAtAct(30), false);
    let outcomes =
        run_cells_isolated_with(vec![cell.clone()], &OPTS, runner).expect("sweep survives");
    match &outcomes[0] {
        CellOutcome::Stalled { error, retry, .. } => {
            assert!(
                error.contains("stalled at cycle"),
                "stall diagnosis missing: {error}"
            );
            match retry {
                RetryOutcome::Recovered(reference) => {
                    let clean =
                        run_with_fault(cell, Engine::Fast, None, false).expect("fault-free run");
                    assert_eq!(
                        reference.report, clean.report,
                        "recovered reference result must match a fault-free run"
                    );
                }
                other => panic!("expected Recovered, got {other:?}"),
            }
        }
        other => panic!("expected Stalled, got {other:?}"),
    }
}

#[test]
fn deadline_turns_runaway_cell_into_timeout() {
    // A cell with no request target runs to its (large) cycle limit; a
    // tight wall-clock deadline must cut it loose as TimedOut while the
    // healthy sibling cell completes.
    let mut runaway = SystemConfig::tiny();
    runaway.target_requests = 0; // no target: run to max_cycles
    runaway.max_cycles = 40_000_000;
    let mut quick = SystemConfig::tiny();
    quick.target_requests = 200;
    let cells: Vec<Cell> = vec![
        (runaway, "random-stream".to_string(), Scheme::Baseline),
        (quick, "random-stream".to_string(), Scheme::Baseline),
    ];
    let opts = SweepOptions {
        threads: Some(2),
        deadline_secs: Some(0.25),
        ..Default::default()
    };
    let outcomes = run_cells_isolated(cells, &opts).expect("sweep survives");
    assert!(
        matches!(
            outcomes[0],
            CellOutcome::TimedOut { deadline_secs } if deadline_secs == 0.25
        ),
        "runaway cell should time out, got {:?}",
        outcomes[0]
    );
    assert!(outcomes[1].is_ok(), "quick cell unaffected by the timeout");
}

#[test]
fn run_parallel_isolated_one_panic_n_minus_one_ordered_successes() {
    // The satellite contract: one panicking job yields one failed outcome
    // and N−1 successes, in job order — no poisoned mutex, no abort.
    let jobs: Vec<Box<dyn FnOnce() -> u64 + Send>> = (0..8u64)
        .map(|i| {
            Box::new(move || {
                assert!(i != 3, "boom at job {i}");
                i * 10
            }) as Box<dyn FnOnce() -> u64 + Send>
        })
        .collect();
    let results = run_parallel_isolated(jobs, 4);
    assert_eq!(results.len(), 8);
    for (i, r) in results.iter().enumerate() {
        if i == 3 {
            let err = r.as_ref().expect_err("job 3 panicked");
            assert!(err.contains("boom at job 3"), "{err}");
        } else {
            assert_eq!(r.as_ref().copied(), Ok(i as u64 * 10), "job {i}");
        }
    }
}
