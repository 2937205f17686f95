//! Checks of the benchmark's drivers, outcome digest, percentile helper,
//! timing wrappers, and the agreement of `BENCHMARK.json` and `golden.json`
//! with the code.

use std::sync::{Arc, Mutex};

use shadow_bench::json::Json;
use shadow_bench::{build_mitigation, try_workload, Scheme};
use shadow_benchmark::metrics::{END_TO_END, PER_LAYER};
use shadow_benchmark::run::{run, Options, MIN_PASSES};
use shadow_benchmark::stats::{outcome_digest, percentile};
use shadow_benchmark::trace::{Ledger, TimedMitigation, TimedStream, MITIGATION_METHODS};
use shadow_benchmark::workload::{Plan, Size, Workload, DEFAULT_SEED};
use shadow_memsys::{MemSystem, SimReport, SystemConfig};
use shadow_workloads::RequestStream;

#[test]
fn tiny_smoke_of_every_driver() {
    for w in Workload::ALL {
        let plan = Plan::new(w, DEFAULT_SEED, Size::Tiny).expect("plan");
        let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(w.name());
        let opts = Options {
            seconds: 0.0,
            per_layer: true,
        };
        let out = run(&plan, &opts, &dir).expect("run");
        assert!(out.failures.is_empty(), "{}: {:?}", w.name(), out.failures);
        assert!(!dir.exists(), "{}: campaign scratch left behind", w.name());
        assert_eq!(out.timed_passes, MIN_PASSES);

        let e2e: Vec<(&str, &str)> = out.end_to_end.iter().map(|m| (m.name, m.unit)).collect();
        let want: Vec<(&str, &str)> = END_TO_END.iter().map(|d| (d.name, d.unit)).collect();
        assert_eq!(e2e, want, "{}", w.name());
        let layers: Vec<(&str, &str)> = out.per_layer.iter().map(|m| (m.name, m.unit)).collect();
        let want: Vec<(&str, &str)> = PER_LAYER.iter().map(|&(n, u, _)| (n, u)).collect();
        assert_eq!(layers, want, "{}", w.name());
        for m in out.end_to_end.iter().chain(&out.per_layer) {
            assert!(
                m.value.is_finite(),
                "{}: {} = {}",
                w.name(),
                m.name,
                m.value
            );
        }

        for m in &out.end_to_end {
            match m.name {
                "cell_ns_per_req_p50" | "cell_ns_per_req_p90" => {
                    assert_eq!(m.samples, plan.cells.len(), "{}", m.name);
                }
                "peak_rss_mb" => assert_eq!(m.samples, 1),
                _ => {
                    assert_eq!(m.samples, MIN_PASSES, "{}", m.name);
                    assert!(m.quartiles.is_some(), "{}", m.name);
                }
            }
            assert!(m.value > 0.0, "{}: {} is not positive", w.name(), m.name);
        }
    }
}

fn tiny_report() -> SimReport {
    let mut cfg = SystemConfig::tiny();
    cfg.target_requests = 400;
    let streams = try_workload("random-stream", &cfg, 7).expect("workload");
    let mitigation = build_mitigation(Scheme::Shadow, &cfg);
    MemSystem::try_new(cfg, streams, mitigation)
        .expect("system")
        .run_checked()
        .expect("run")
}

#[test]
fn digest_ignores_engine_diagnostics_but_catches_cycles() {
    let report = tiny_report();
    let digest = outcome_digest(&report);

    let mut diagnostics = report.clone();
    diagnostics.sched_passes += 1;
    diagnostics.pass_cycles += 1;
    diagnostics.gate_bus_skips += 1;
    diagnostics.gate_rank_skips.push(3);
    assert_eq!(outcome_digest(&diagnostics), digest);

    let mut cycles = report.clone();
    cycles.cycles += 1;
    assert_ne!(outcome_digest(&cycles), digest);
}

#[test]
fn percentile_is_nearest_rank() {
    let samples = [35.0, 20.0, 15.0, 50.0, 40.0];
    assert_eq!(percentile(&samples, 5.0), Some(15.0));
    assert_eq!(percentile(&samples, 30.0), Some(20.0));
    assert_eq!(percentile(&samples, 40.0), Some(20.0));
    assert_eq!(percentile(&samples, 50.0), Some(35.0));
    assert_eq!(percentile(&samples, 100.0), Some(50.0));
    assert_eq!(percentile(&samples, 0.0), Some(15.0));
    assert_eq!(percentile(&[], 50.0), None);
}

#[test]
fn traced_prac_cell_matches_untraced() {
    let mut cfg = SystemConfig::tiny();
    cfg.target_requests = 2_000;
    let build = || {
        let streams = try_workload("random-stream", &cfg, 11).expect("workload");
        (streams, build_mitigation(Scheme::Prac, &cfg))
    };

    let (streams, mitigation) = build();
    let plain = MemSystem::try_new(cfg, streams, mitigation)
        .expect("system")
        .run_checked()
        .expect("run");

    let ledger = Arc::new(Mutex::new(Ledger::default()));
    let (streams, mitigation) = build();
    let streams = streams
        .into_iter()
        .map(|s| Box::new(TimedStream::new(s, Arc::clone(&ledger))) as Box<dyn RequestStream>)
        .collect();
    let mitigation = Box::new(TimedMitigation::new(mitigation, Arc::clone(&ledger)));
    let traced = MemSystem::try_new(cfg, streams, mitigation)
        .expect("system")
        .run_checked()
        .expect("run");

    assert!(plain.abo_events > 0, "the cell must raise ABO alerts");
    assert_eq!(traced, plain);
    let ledger = ledger.lock().expect("ledger");
    let calls = |name: &str| {
        let i = MITIGATION_METHODS
            .iter()
            .position(|m| *m == name)
            .expect("method");
        ledger.mitigation[i].calls
    };
    assert!(calls("on_act_issued") > 0);
    assert!(calls("on_recovery_rfm") > 0);
    assert!(ledger.next_request.calls >= plain.total_completed());
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn field<'a>(j: &'a Json, key: &str) -> &'a str {
    j.get(key)
        .and_then(|v| v.as_str().ok())
        .unwrap_or_else(|| panic!("missing `{key}`"))
}

#[test]
fn benchmark_json_matches_the_code() {
    let doc = benchmark_json();
    let list = |key: &str| doc.get(key).and_then(|v| v.as_arr().ok()).expect(key);

    let workloads: Vec<&str> = list("workloads").iter().map(|w| field(w, "name")).collect();
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, names);

    let e2e = list("end_to_end");
    assert_eq!(e2e.len(), END_TO_END.len());
    for (j, def) in e2e.iter().zip(&END_TO_END) {
        assert_eq!(field(j, "name"), def.name);
        assert_eq!(field(j, "unit"), def.unit);
        assert_eq!(field(j, "better"), def.better.as_str());
        let bound = j.get("bound").and_then(|b| b.as_f64().ok()).expect("bound");
        assert_eq!(bound, def.bound, "{}", def.name);
    }

    let layers = list("per_layer");
    assert_eq!(layers.len(), PER_LAYER.len());
    for (j, (name, unit, better)) in layers.iter().zip(PER_LAYER) {
        assert_eq!(field(j, "name"), name);
        assert_eq!(field(j, "unit"), unit);
        assert_eq!(field(j, "better"), better.as_str());
    }
}

#[test]
fn golden_covers_every_workload() {
    for w in Workload::ALL {
        let plan = Plan::new(w, DEFAULT_SEED, Size::Full).expect("plan");
        let golden = plan.golden.expect("golden.json has the workload");
        assert_eq!(golden.len(), plan.cells.len(), "{}", w.name());
    }
}
