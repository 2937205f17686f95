//! PRAC-era mitigation frontier — PRAC, PRACtical, and DAPPER against the
//! paper's SHADOW and RRS on the fig8/fig9-shaped actual-system
//! configuration (DDR4-2666, H_cnt = 4K).
//!
//! Two workload extremes bracket the schemes:
//!
//! * the §VII-C **adversarial random stream** (zero locality, maximum ACT
//!   pressure) — the tracker-thrash pattern: it maximizes DAPPER
//!   evictions and RFM-side overhead but spreads ACTs too thin to trip
//!   any per-row counter;
//! * a **SPEC-like multiprogrammed group** (`spec-high`) — hot-row reuse
//!   is what actually crosses the ABO threshold, so this is where PRAC's
//!   rank-scope recovery and PRACtical's bank-scope isolation separate.
//!
//! Besides relative performance, each cell reports the PRAC-era columns of
//! [`SimReport`]: ABO alerts, cycles spent in recovery RFMs, and tracker
//! evictions (DAPPER's performance-attack-resilience metric).
//!
//! The sweep is `recipes/prac_frontier.toml`, run through the campaign
//! engine.

use shadow_bench::{banner, bench_threads, cell, ResultTable};
use shadow_campaign::figure::{distinct, launch};

fn main() {
    banner(
        "PRAC-era frontier: PRAC / PRACtical / DAPPER vs SHADOW and RRS (DDR4-2666, H_cnt = 4K)",
    );
    println!("({} worker threads)", bench_threads());
    let series = launch("prac_frontier");

    let mut header = vec!["workload", "scheme", "rel_perf"];
    header.extend(["abo_events", "abo_recovery_cycles", "tracker_evictions"]);
    let mut table = ResultTable::new("prac_frontier", &header);
    for w in distinct(series.iter().map(|r| r.cell.1.as_str())) {
        println!("\n[{w}]");
        println!(
            "{:<12} {:>9} {:>11} {:>14} {:>12}",
            "scheme", "rel_perf", "abo_events", "recovery_cyc", "evictions"
        );
        for r in series.iter().filter(|r| r.cell.1 == w) {
            let (s, rel, report) = (r.cell.2, r.rel, &r.result.report);
            println!(
                "{:<12} {:>9} {:>11} {:>14} {:>12}",
                s.name(),
                cell(rel),
                report.abo_events,
                report.abo_recovery_cycles,
                report.tracker_evictions
            );
            table.push(&[
                w.to_string(),
                s.name().to_string(),
                format!("{rel:.4}"),
                report.abo_events.to_string(),
                report.abo_recovery_cycles.to_string(),
                report.tracker_evictions.to_string(),
            ]);
        }
    }
    table.save();

    println!(
        "\nExpected shape: PRACtical at or above PRAC everywhere, widest where ABO\n\
         fires (bank-scope recovery stalls one bank where PRAC stalls the rank);\n\
         counters trip under hot-row reuse (spec-high), not the spread random\n\
         stream; DAPPER pays Mithril-class RFM overhead and its evictions expose\n\
         tracker pressure, peaking under the random thrash stream; SHADOW and RRS\n\
         as in Figure 8."
    );
}
