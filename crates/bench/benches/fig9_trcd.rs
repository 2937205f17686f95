//! Figure 9 — tRCD sensitivity of SHADOW: weighted speedup with
//! tRCD' ∈ {23, 25, 27} tCK versus H_cnt from 16K to 2K on mix-high and
//! mix-blend, normalized to the tRCD = 19 unprotected baseline.
//!
//! Each grid cell builds its own baseline + SHADOW pair, so the whole grid
//! fans out as closures over one worker per host CPU via
//! [`run_parallel`] — the closure-shaped escape hatch for sweeps that
//! override timing parameters instead of going through [`Scheme`] cells.

use shadow_bench::{
    banner, build_mitigation, cell, host_cpus, run_parallel, workload, BenchArgs, Scheme,
};
use shadow_memsys::{MemSystem, SystemConfig};

fn run_at_trcd(cfg: SystemConfig, wname: &str, trcd: u64, h_cnt: u64) -> f64 {
    let mut cfg = cfg;
    cfg.rh.h_cnt = h_cnt;
    // Baseline at stock tRCD (19 tCK).
    let base = MemSystem::new(
        cfg,
        workload(wname, &cfg, 0xF19),
        build_mitigation(Scheme::Baseline, &cfg),
    )
    .run();
    // The system adds SHADOW's own tRCD extension (tRD_RM, 6 tCK) to the
    // config's tRCD, so the base tRCD absorbs the difference and tRCD'
    // lands on the label, also below 19 + 6.
    let mitigation = build_mitigation(Scheme::Shadow, &cfg);
    let mut shadow_cfg = cfg;
    shadow_cfg.timing.t_rcd = trcd - mitigation.t_rcd_extra_cycles();
    let mut sys = MemSystem::new(shadow_cfg, workload(wname, &shadow_cfg, 0xF19), mitigation);
    assert_eq!(sys.device().timing().t_rcd_effective(), trcd, "tRCD'");
    sys.run().relative_performance(&base)
}

fn main() {
    banner("Figure 9: SHADOW tRCD sensitivity (normalized to tRCD19 baseline)");
    let args = BenchArgs::from_args("fig9_trcd", &["--requests"]);
    println!("({} worker threads)", host_cpus());
    let mut cfg = SystemConfig::ddr4_actual_system();
    cfg.target_requests = args.requests();

    let trcds = [23u64, 25, 27]; // tRCD' in tCK
    let hcnts = [16384u64, 8192, 4096, 2048];
    let workloads = ["mix-high", "mix-blend"];

    // Fan the full (workload × H_cnt × tRCD') grid out in row-major order.
    let mut jobs: Vec<Box<dyn FnOnce() -> f64 + Send>> = Vec::new();
    for wname in workloads {
        for h in hcnts {
            for trcd in trcds {
                jobs.push(Box::new(move || run_at_trcd(cfg, wname, trcd, h)));
            }
        }
    }
    let grid = run_parallel(jobs, host_cpus());

    let mut it = grid.into_iter();
    for wname in workloads {
        println!("\n[{wname}]");
        print!("{:<10}", "H_cnt");
        for trcd in trcds {
            print!(" {:>10}", format!("tRCD{trcd}"));
        }
        println!();
        for h in hcnts {
            print!("{h:<10}");
            for _ in trcds {
                print!(" {:>10}", cell(it.next().expect("grid complete")));
            }
            println!();
        }
    }

    println!(
        "\nExpected shape (paper): visible tRCD spread at H_cnt = 16K (few RFMs,\n\
         latency-dominated), shrinking as H_cnt falls and RFM frequency takes over;\n\
         all cells above 0.96."
    );
}
