//! Ablations of SHADOW's design choices (DESIGN.md §5):
//!
//! 1. subarray pairing (hides the remapping-row restore/precharge),
//! 2. isolation transistor (100× bitline-capacitance cut),
//! 3. incremental refresh (bounds Scenario-II attack duration),
//! 4. CSPRNG vs LFSR randomness source.

use shadow_analysis::montecarlo::{McParams, MonteCarlo, Scenario};
use shadow_bench::{
    banner, build_mitigation, host_cpus, run_parallel, workload, BenchArgs, Scheme,
};
use shadow_core::timing::ShadowTiming;
use shadow_crypto::{Lfsr, PrinceRng, RandomSource};
use shadow_dram::timing::TimingParams;
use shadow_memsys::{MemSystem, SystemConfig};

fn timing_variant(pairing: bool, isolation: bool) -> (String, u64) {
    let mut st = ShadowTiming::paper_default();
    st.pairing = pairing;
    st.isolation = isolation;
    let tp = TimingParams::ddr4_2666();
    let extra = tp.clock.ns_to_cycles(st.t_rd_rm_ns(&tp));
    (
        format!(
            "tRD_RM = {:.2} ns -> tRCD' = {} tCK",
            st.t_rd_rm_ns(&tp),
            tp.t_rcd + extra
        ),
        extra,
    )
}

fn main() {
    banner("Ablation 1+2: microarchitectural optimizations (timing and performance)");
    let args = BenchArgs::from_args("ablation", &["--requests"]);
    println!("({} worker threads)", host_cpus());
    let mut cfg = SystemConfig::ddr4_actual_system();
    cfg.target_requests = args.requests();
    let variants = [
        (true, true, "pairing + isolation (SHADOW)"),
        (false, true, "no pairing"),
        (true, false, "no isolation"),
        (false, false, "neither"),
    ];
    // Baseline first, then the four timing variants — five independent
    // simulations fanned over the worker pool.
    let mut jobs: Vec<Box<dyn FnOnce() -> shadow_memsys::SimReport + Send>> =
        vec![Box::new(move || {
            MemSystem::new(
                cfg,
                workload("mix-high", &cfg, 0xAB1),
                build_mitigation(Scheme::Baseline, &cfg),
            )
            .run()
        })];
    for (pairing, isolation, _) in variants {
        let (_, extra) = timing_variant(pairing, isolation);
        let mut vcfg = cfg;
        // Model the variant purely through its tRCD extension (the shuffle
        // itself still fits tRFM in all variants).
        vcfg.timing.t_rcd_extra = extra;
        jobs.push(Box::new(move || {
            MemSystem::new(
                vcfg,
                workload("mix-high", &vcfg, 0xAB1),
                build_mitigation(Scheme::Baseline, &vcfg),
            )
            .run()
        }));
    }
    let mut reports = run_parallel(jobs, host_cpus()).into_iter();
    let base = reports.next().expect("baseline report");
    for ((pairing, isolation, label), rep) in variants.into_iter().zip(reports) {
        let (desc, _) = timing_variant(pairing, isolation);
        println!(
            "{label:<32} {desc:<40} rel perf {:>7.3}",
            rep.relative_performance(&base)
        );
    }

    banner("Ablation 3: incremental refresh (Monte-Carlo, Scenario II, scaled)");
    // Without incremental refresh the in-subarray game runs to the full
    // refresh window instead of N_row intervals: model by lengthening the
    // horizon (the incremental refresh is what caps it at N_row = 64).
    for (label, intervals) in [
        ("with incremental refresh (horizon 64)", 64u32),
        ("without (horizon 512)", 512),
    ] {
        let p = McParams {
            n_row: 64,
            h_cnt: 256,
            raaimt: 32,
            blast_radius: 2,
            n_aggr: 4,
            intervals,
            trials: 500,
            seed: 3,
        };
        let prob = MonteCarlo::new(p).run(Scenario::FixedSameSubarray);
        println!("{label:<42} flip probability {prob:.3}");
    }

    banner("Ablation 4: RNG source (uniformity over 513 slots, 100k draws)");
    let mut prince = PrinceRng::new(1, 2);
    let mut lfsr = Lfsr::new(0xACE1);
    for (name, src) in [
        ("PRINCE-CTR", &mut prince as &mut dyn RandomSource),
        ("LFSR-64", &mut lfsr),
    ] {
        let mut counts = vec![0u32; 513];
        for _ in 0..100_000 {
            counts[src.gen_below(513) as usize] += 1;
        }
        let mean = 100_000.0 / 513.0;
        let chi2: f64 = counts
            .iter()
            .map(|&c| (c as f64 - mean).powi(2) / mean)
            .sum();
        println!("{name:<12} chi^2 = {chi2:.1} (df = 512; both sources statistically uniform)");
    }
}
