//! §VIII optimization: the D-CBF filter in front of SHADOW's RAA counters.
//!
//! On benign workloads most activations hit cold rows; filtering them out
//! of the RAA count suppresses unnecessary RFMs (and their shuffles)
//! without weakening protection — attack traffic is concentrated by
//! necessity and passes the filter at full rate.

use shadow_bench::{banner, build_mitigation, workload, BenchArgs, Scheme};
use shadow_memsys::{MemSystem, SystemConfig};

fn main() {
    let args = BenchArgs::from_args("rfm_filter", &["--requests"]);
    banner("RFM filtering (paper §VIII): plain SHADOW vs SHADOW+filter");
    println!(
        "{:<12} {:>8} | {:>10} {:>10} | {:>10} {:>10}",
        "workload", "H_cnt", "RFMs", "RFMs+f", "rel perf", "rel perf+f"
    );
    for wname in ["mix-high", "mix-blend", "random-stream"] {
        for h in [4096u64, 2048] {
            let mut cfg = SystemConfig::ddr4_actual_system();
            cfg.target_requests = args.requests();
            cfg.rh.h_cnt = h;

            let base = MemSystem::new(
                cfg,
                workload(wname, &cfg, 0xF17),
                build_mitigation(Scheme::Baseline, &cfg),
            )
            .run();
            let plain = MemSystem::new(
                cfg,
                workload(wname, &cfg, 0xF17),
                build_mitigation(Scheme::Shadow, &cfg),
            )
            .run();
            let filtered = MemSystem::new(
                cfg,
                workload(wname, &cfg, 0xF17),
                build_mitigation(Scheme::ShadowFiltered, &cfg),
            )
            .run();
            println!(
                "{:<12} {:>8} | {:>10} {:>10} | {:>10.4} {:>10.4}",
                wname,
                h,
                plain.commands.get("RFM"),
                filtered.commands.get("RFM"),
                plain.relative_performance(&base),
                filtered.relative_performance(&base),
            );
        }
    }
    println!(
        "\nExpected shape: the filter removes the bulk of benign-traffic RFMs and\n\
         recovers most of SHADOW's residual overhead; the adversarial random\n\
         stream (every row cold) sheds nearly all RFMs — and would still charge\n\
         full rate the moment any row turns hot."
    );
}
