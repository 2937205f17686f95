//! `shadow-cli` — command-line driver for one-off experiments.
//!
//! ```sh
//! shadow-cli --workload mix-high --scheme SHADOW --hcnt 4096
//! shadow-cli --workload gapbs --scheme RRS --ddr5 --requests 100000
//! shadow-cli --list
//! ```
//!
//! Runs the workload under the chosen scheme *and* the unprotected
//! baseline, then prints performance, command mix, power, and flips.

use shadow_bench::{build_mitigation, workload, Scheme};
use shadow_repro::analysis::power::{PowerModel, PowerReport, SchemeEnergy};
use shadow_repro::memsys::{MemSystem, PagePolicy, SystemConfig};
use shadow_repro::rh::RhParams;

#[derive(Debug)]
struct Args {
    workload: String,
    scheme: Scheme,
    h_cnt: u64,
    blast: u32,
    requests: u64,
    ddr5: bool,
    closed_page: bool,
}

const USAGE: &str = "\
shadow-cli — SHADOW reproduction experiment driver

USAGE:
    shadow-cli [OPTIONS]

OPTIONS:
    --workload <name>   workload (default mix-high); see --list
    --scheme <name>     mitigation (default SHADOW); see --list
    --hcnt <n>          hammer threshold (default 4096)
    --blast <n>         blast radius (default 3)
    --requests <n>      completed-request target (default 60000)
    --ddr5              DDR5-4800 system instead of DDR4-2666
    --closed-page       closed-page controller policy
    --list              list workloads and schemes
    --help              this text
";

fn parse_args() -> Result<Option<Args>, String> {
    parse_from(std::env::args().skip(1))
}

fn parse_from(args_iter: impl Iterator<Item = String>) -> Result<Option<Args>, String> {
    let mut args = Args {
        workload: "mix-high".into(),
        scheme: Scheme::Shadow,
        h_cnt: 4096,
        blast: 3,
        requests: 60_000,
        ddr5: false,
        closed_page: false,
    };
    let mut it = args_iter;
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--workload" => args.workload = value("--workload")?,
            "--scheme" => {
                let v = value("--scheme")?;
                args.scheme = Scheme::from_name(&v)
                    .ok_or_else(|| format!("unknown scheme '{v}' (try --list)"))?;
            }
            "--hcnt" => {
                args.h_cnt = value("--hcnt")?
                    .parse()
                    .map_err(|_| "bad --hcnt".to_string())?
            }
            "--blast" => {
                args.blast = value("--blast")?
                    .parse()
                    .map_err(|_| "bad --blast".to_string())?
            }
            "--requests" => {
                args.requests = value("--requests")?
                    .parse()
                    .map_err(|_| "bad --requests".to_string())?
            }
            "--ddr5" => args.ddr5 = true,
            "--closed-page" => args.closed_page = true,
            "--list" => {
                println!("workloads: spec-high spec-med spec-low gapbs npb mix-high mix-blend");
                println!("           mix-random-<n> random-stream <any SPEC app name>");
                print!("schemes:  ");
                for s in Scheme::all() {
                    print!(" {}", s.name());
                }
                println!();
                return Ok(None);
            }
            "--help" | "-h" => {
                print!("{USAGE}");
                return Ok(None);
            }
            other => return Err(format!("unknown flag '{other}' (try --help)")),
        }
    }
    Ok(Some(args))
}

fn main() {
    let args = match parse_args() {
        Ok(Some(a)) => a,
        Ok(None) => return,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };

    let mut cfg = if args.ddr5 {
        SystemConfig::ddr5_sim()
    } else {
        SystemConfig::ddr4_actual_system()
    };
    cfg.rh = RhParams::new(args.h_cnt, args.blast);
    cfg.target_requests = args.requests;
    if args.closed_page {
        cfg.page_policy = PagePolicy::Closed;
    }

    eprintln!(
        "running {} under {} ({} H_cnt={} blast={} requests={})",
        args.workload,
        args.scheme.name(),
        if args.ddr5 { "DDR5-4800" } else { "DDR4-2666" },
        args.h_cnt,
        args.blast,
        args.requests
    );

    let base = MemSystem::new(
        cfg,
        workload(&args.workload, &cfg, 0xC11),
        build_mitigation(Scheme::Baseline, &cfg),
    )
    .run();
    let rep = MemSystem::new(
        cfg,
        workload(&args.workload, &cfg, 0xC11),
        build_mitigation(args.scheme, &cfg),
    )
    .run();

    let pm = if args.ddr5 {
        PowerModel::ddr5_4800()
    } else {
        PowerModel::ddr4_2666()
    };
    let energy = SchemeEnergy::for_scheme(&pm, args.scheme, args.blast);
    let ranks = cfg.geometry.total_ranks();
    let p_base = PowerReport::from_report(&pm, &SchemeEnergy::none(), &base, ranks);
    let p_rep = PowerReport::from_report(&pm, &energy, &rep, ranks);

    println!("\n{:<24} {:>14} {:>14}", "", "baseline", args.scheme.name());
    println!("{:<24} {:>14} {:>14}", "cycles", base.cycles, rep.cycles);
    for cmd in ["ACT", "PRE", "RD", "WR", "REF", "RFM"] {
        println!(
            "{:<24} {:>14} {:>14}",
            cmd,
            base.commands.get(cmd),
            rep.commands.get(cmd)
        );
    }
    println!(
        "{:<24} {:>14} {:>14}",
        "bit flips",
        base.total_flips(),
        rep.total_flips()
    );
    println!(
        "{:<24} {:>14} {:>14.4}",
        "relative performance",
        1.0,
        rep.relative_performance(&base)
    );
    println!(
        "{:<24} {:>14.2} {:>14.2}",
        "DRAM power (W)", p_base.dram_w, p_rep.dram_w
    );
    println!(
        "{:<24} {:>14} {:>14.4}",
        "system power rel",
        1.0,
        p_rep.relative_to(&p_base)
    );
    if let Some(apr) = rep.acts_per_rfm() {
        println!("{:<24} {:>14} {:>14.1}", "ACTs per RFM", "-", apr);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Result<Option<Args>, String> {
        parse_from(words.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults() {
        let a = parse(&[]).unwrap().unwrap();
        assert_eq!(a.workload, "mix-high");
        assert_eq!(a.scheme, Scheme::Shadow);
        assert_eq!(a.h_cnt, 4096);
        assert!(!a.ddr5);
    }

    #[test]
    fn full_flag_set() {
        let a = parse(&[
            "--workload",
            "gapbs",
            "--scheme",
            "rrs",
            "--hcnt",
            "2048",
            "--blast",
            "5",
            "--requests",
            "1000",
            "--ddr5",
            "--closed-page",
        ])
        .unwrap()
        .unwrap();
        assert_eq!(a.workload, "gapbs");
        assert_eq!(a.scheme, Scheme::Rrs);
        assert_eq!(a.h_cnt, 2048);
        assert_eq!(a.blast, 5);
        assert_eq!(a.requests, 1000);
        assert!(a.ddr5 && a.closed_page);
    }

    #[test]
    fn unknown_flag_rejected() {
        assert!(parse(&["--bogus"]).is_err());
    }

    #[test]
    fn missing_value_rejected() {
        assert!(parse(&["--hcnt"]).is_err());
    }

    #[test]
    fn bad_scheme_rejected() {
        assert!(parse(&["--scheme", "magic"]).is_err());
    }

    #[test]
    fn help_short_circuits() {
        assert_eq!(parse(&["--help"]).unwrap().map(|_| ()), None);
    }
}
