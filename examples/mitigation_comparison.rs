//! Side-by-side comparison of every implemented mitigation on one
//! memory-intensive mix: performance, commands, power, and hardware cost.
//!
//! ```sh
//! cargo run --release --example mitigation_comparison
//! ```

use shadow_repro::analysis::area::{AreaModel, AreaReport};
use shadow_repro::analysis::power::{PowerModel, PowerReport, SchemeEnergy};
use shadow_repro::memsys::{build_mitigation, MemSystem, Scheme, SystemConfig};
use shadow_repro::rh::RhParams;
use shadow_repro::workloads::{mix, RequestStream};

fn streams(cfg: &SystemConfig) -> Vec<Box<dyn RequestStream>> {
    mix::mix_high(8, cfg.capacity_bytes(), 0xC0FFEE)
}

fn main() {
    let mut cfg = SystemConfig::ddr4_actual_system();
    cfg.target_requests = 40_000;
    cfg.rh = RhParams::new(4096, 3);

    let pm = PowerModel::ddr4_2666();
    let area = AreaModel::paper_default();
    let area_row = AreaReport::for_h_cnt(&area, cfg.rh.h_cnt);

    println!("mix-high on DDR4-2666, H_cnt = 4K\n");
    println!(
        "{:<14} {:>9} {:>8} {:>8} {:>10} {:>12}",
        "scheme", "rel perf", "RFMs", "flips", "P_sys rel", "area mm^2"
    );

    let run = |scheme| MemSystem::new(cfg, streams(&cfg), build_mitigation(scheme, &cfg)).run();
    let base = run(Scheme::Baseline);
    let base_power = PowerReport::from_report(&pm, &SchemeEnergy::none(), &base, 8);

    for &scheme in Scheme::all() {
        let rep = if scheme == Scheme::Baseline {
            base.clone()
        } else {
            run(scheme)
        };
        let energy = SchemeEnergy::for_scheme(&pm, scheme, cfg.rh.blast_radius);
        let power = PowerReport::from_report(&pm, &energy, &rep, 8);
        let area_mm2 = match scheme {
            Scheme::Shadow => area_row.shadow_mm2,
            Scheme::MithrilPerf => area_row.mithril_perf_mm2,
            Scheme::MithrilArea => area_row.mithril_area_mm2,
            Scheme::Rrs => area_row.rrs_mm2,
            _ => 0.0,
        };
        println!(
            "{:<14} {:>9.3} {:>8} {:>8} {:>10.4} {:>12.3}",
            scheme.name(),
            rep.relative_performance(&base),
            rep.commands.get("RFM"),
            rep.total_flips(),
            power.relative_to(&base_power),
            area_mm2,
        );
    }
    println!("\n(benign workload: zero flips everywhere; the area column is the per-chip");
    println!(" logic/table cost — SHADOW's is fixed, trackers grow as H_cnt falls)");
}
