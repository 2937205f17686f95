//! Figure 10 — blast-radius sensitivity: relative performance of SHADOW,
//! PARFM and Mithril as the blast radius grows from 1 to 5.
//!
//! SHADOW's mitigating action (a shuffle) is radius-independent, while the
//! TRR schemes must refresh `2 × radius` victims per RFM and tighten their
//! RAAIMT, so their cost grows with the radius — the paper's crossover is
//! at radius ≈ 2. The sweep is `recipes/fig10.toml`, run through the
//! campaign engine. Takes `-- [--requests N] [--manifest PATH] [--oracle]`.

use shadow_bench::{banner, cell, BenchArgs};
use shadow_campaign::figure::{distinct, launch};

fn main() {
    banner("Figure 10: blast-radius sensitivity (relative performance, DDR4-2666, H_cnt = 4K)");
    let series = launch(
        "fig10",
        &BenchArgs::from_args("fig10_blast", BenchArgs::ALL),
    );
    let schemes = distinct(series.iter().map(|r| r.cell.2));
    let radii = distinct(series.iter().map(|r| r.cell.0.rh.blast_radius));

    for wname in distinct(series.iter().map(|r| r.cell.1.as_str())) {
        println!("\n[{wname}]");
        print!("{:<8}", "radius");
        for s in &schemes {
            print!(" {:>12}", s.name());
        }
        println!();
        for &radius in &radii {
            print!("{radius:<8}");
            for r in series
                .iter()
                .filter(|r| r.cell.1 == wname && r.cell.0.rh.blast_radius == radius)
            {
                print!(" {:>12}", cell(r.rel));
            }
            println!();
        }
    }

    println!(
        "\nExpected shape (paper): SHADOW flat across radii; PARFM and Mithril degrade\n\
         as the radius grows, with SHADOW ahead for radius > 2."
    );
}
