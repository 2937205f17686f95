//! Figure 8 — relative performance of SHADOW, PARFM, Mithril-perf,
//! Mithril-area, and DRR versus the unprotected baseline on single-threaded
//! SPEC CPU2017 groups, multi-threaded GAPBS/NPB, and multiprogrammed
//! mixes (actual-system substitute; DDR4-2666, H_cnt = 4K).
//!
//! The sweep is `recipes/fig8.toml`, run through the campaign engine: every
//! (workload × scheme) cell fans out over the worker threads, bit-identical
//! to a serial sweep. Takes `-- [--requests N] [--manifest PATH] [--oracle]`.

use shadow_bench::{banner, cell, BenchArgs, ResultTable};
use shadow_campaign::figure::{distinct, launch};

fn main() {
    banner("Figure 8: relative performance vs unprotected baseline (DDR4-2666, H_cnt = 4K)");
    let series = launch("fig8", &BenchArgs::from_args("fig8_perf", BenchArgs::ALL));
    let schemes = distinct(series.iter().map(|r| r.cell.2));
    let workloads = distinct(series.iter().map(|r| r.cell.1.as_str()));

    print!("{:<12}", "workload");
    for s in &schemes {
        print!(" {:>12}", s.name());
    }
    print!(" {:>9} {:>9}", "wall_s", "Mcyc/s");
    println!();
    println!("{}", "-".repeat(12 + 13 * schemes.len() + 20));

    let mut header = vec!["workload"];
    header.extend(schemes.iter().map(|s| s.name()));
    header.extend(["wall_secs", "sim_mcycles_per_sec"]);
    let mut table = ResultTable::new("fig8_perf", &header);
    for w in workloads {
        let row_cells: Vec<_> = series.iter().filter(|r| r.cell.1 == w).collect();
        print!("{w:<12}");
        let mut row = vec![w.to_string()];
        for r in &row_cells {
            print!(" {:>12}", cell(r.rel));
            row.push(format!("{:.4}", r.rel));
        }
        // Wall-clock observability: total worker-seconds the row's scheme
        // cells cost, and the aggregate engine throughput across them.
        let wall: f64 = row_cells.iter().map(|r| r.result.wall_secs).sum();
        let cycles: f64 = row_cells
            .iter()
            .map(|r| r.result.report.cycles as f64)
            .sum();
        let mcps = if wall > 0.0 { cycles / wall / 1e6 } else { 0.0 };
        print!(" {wall:>9.2} {mcps:>9.1}");
        row.push(format!("{wall:.3}"));
        row.push(format!("{mcps:.2}"));
        println!();
        table.push(&row);
    }
    table.save();

    println!(
        "\nExpected shape (paper): all schemes within a few % of 1.0 on single-threaded\n\
         groups; SHADOW within ~3% even on memory-intensive mixes, comparable to\n\
         Mithril and ahead of DRR's refresh-bandwidth loss."
    );
}
