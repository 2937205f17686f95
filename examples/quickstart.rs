//! Quickstart: build a DDR4 memory system, run a SPEC-like workload with
//! and without SHADOW, and print performance + protection statistics.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use shadow_repro::memsys::{build_mitigation, MemSystem, Scheme, SystemConfig};
use shadow_repro::workloads::{AppProfile, ProfileStream, RequestStream};

fn streams(cfg: &SystemConfig) -> Vec<Box<dyn RequestStream>> {
    AppProfile::spec_high()
        .iter()
        .enumerate()
        .map(|(i, p)| {
            Box::new(ProfileStream::new(*p, cfg.capacity_bytes(), 100 + i as u64))
                as Box<dyn RequestStream>
        })
        .collect()
}

fn main() {
    // The paper's Table IV system: DDR4-2666, 4 channels, H_cnt = 4K.
    let mut cfg = SystemConfig::ddr4_actual_system();
    cfg.target_requests = 50_000;

    println!("simulating {} spec-high cores on DDR4-2666 x4ch ...", 5);

    // 1. Unprotected baseline.
    let run = |scheme| MemSystem::new(cfg, streams(&cfg), build_mitigation(scheme, &cfg)).run();
    let base = run(Scheme::Baseline);

    // 2. SHADOW as the evaluation builds it: the Table II secure
    //    configuration for 4K (RAAIMT = 64).
    let protected = run(Scheme::Shadow);

    println!("\n{:<22} {:>12} {:>12}", "", "baseline", "SHADOW");
    println!(
        "{:<22} {:>12} {:>12}",
        "cycles", base.cycles, protected.cycles
    );
    println!(
        "{:<22} {:>12} {:>12}",
        "ACT commands",
        base.commands.get("ACT"),
        protected.commands.get("ACT")
    );
    println!(
        "{:<22} {:>12} {:>12}",
        "RFM commands",
        base.commands.get("RFM"),
        protected.commands.get("RFM")
    );
    println!(
        "{:<22} {:>12} {:>12.4}",
        "relative performance",
        1.0,
        protected.relative_performance(&base)
    );
    println!(
        "\nSHADOW cost: tRCD 19 -> 25 tCK plus one shuffle per {} activations per bank.",
        protected.acts_per_rfm().map(|v| v as u64).unwrap_or(0)
    );
}
