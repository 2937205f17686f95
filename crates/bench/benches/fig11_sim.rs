//! Figure 11 — architectural simulation (DDR5-4800): SHADOW versus
//! BlockHammer and RRS on mix-high, mix-blend and mix-random while sweeping
//! H_cnt from 16K down to 2K.
//!
//! The paper's claim: RRS collapses at low H_cnt (channel-blocking swaps
//! fire constantly at threshold H_cnt/6) and BlockHammer's delays explode,
//! while SHADOW's in-DRAM shuffles ride the chip-internal bandwidth.
//!
//! The sweep is `recipes/fig11.toml`, run through the campaign engine:
//! every (workload, H_cnt, scheme) cell fans out over the worker threads,
//! bit-identical to the serial sweep. Takes
//! `-- [--requests N] [--manifest PATH] [--oracle]`.

use shadow_bench::{banner, cell, BenchArgs, ResultTable};
use shadow_campaign::figure::{distinct, launch};
use shadow_sim::stats::geomean;

/// The figure row a workload belongs to: the `mix-random-<i>` draws are
/// averaged (geomean) into one `mix-random` row.
fn row_of(workload: &str) -> &str {
    if workload.starts_with("mix-random-") {
        "mix-random"
    } else {
        workload
    }
}

fn main() {
    banner("Figure 11: DDR5-4800 architectural simulation (relative weighted speedup)");
    let series = launch("fig11", &BenchArgs::from_args("fig11_sim", BenchArgs::ALL));
    let schemes = distinct(series.iter().map(|r| r.cell.2));
    let hcnts = distinct(series.iter().map(|r| r.cell.0.rh.h_cnt));

    let mut header = vec!["workload", "h_cnt"];
    header.extend(schemes.iter().map(|s| s.name()));
    header.extend(["wall_secs", "sim_mcycles_per_sec"]);
    let mut table = ResultTable::new("fig11_sim", &header);
    for wname in distinct(series.iter().map(|r| row_of(&r.cell.1))) {
        println!("\n[{wname}]");
        print!("{:<10}", "H_cnt");
        for s in &schemes {
            print!(" {:>12}", s.name());
        }
        println!();
        for &h in &hcnts {
            print!("{h:<10}");
            let mut row = vec![wname.to_string(), h.to_string()];
            let in_row: Vec<_> = series
                .iter()
                .filter(|r| row_of(&r.cell.1) == wname && r.cell.0.rh.h_cnt == h)
                .collect();
            for &s in &schemes {
                let rels: Vec<f64> = in_row
                    .iter()
                    .filter(|r| r.cell.2 == s)
                    .map(|r| r.rel)
                    .collect();
                let v = if let [one] = rels[..] {
                    one
                } else {
                    geomean(&rels)
                };
                print!(" {:>12}", cell(v));
                row.push(format!("{v:.4}"));
            }
            let wall: f64 = in_row.iter().map(|r| r.result.wall_secs).sum();
            let cycles: f64 = in_row.iter().map(|r| r.result.report.cycles as f64).sum();
            let mcps = if wall > 0.0 { cycles / wall / 1e6 } else { 0.0 };
            row.push(format!("{wall:.3}"));
            row.push(format!("{mcps:.2}"));
            println!();
            table.push(&row);
        }
    }
    table.save();

    println!(
        "\nExpected shape (paper): SHADOW roughly flat down to 2K; BlockHammer and RRS\n\
         degrade sharply below 4K, with SHADOW clearly ahead at 2K."
    );
}
