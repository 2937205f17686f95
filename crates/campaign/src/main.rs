//! `shadow-bench` — the campaign service CLI.
//!
//! ```text
//! shadow-bench campaign run <recipe.(toml|json)> [--threads N] [--manifest PATH] [--oracle] [--quiet]
//! shadow-bench campaign expand <recipe>
//! shadow-bench campaign serve (--socket PATH | --stdin) [--max-campaigns N]
//! ```
//!
//! Exit codes: `0` every cell completed · `1` quarantined or invalid
//! cells · `2` usage error · `3` recipe, I/O or checkpoint key-version
//! error · `130` graceful drain (SIGINT/SIGTERM) — resumable, a hint is
//! printed.

use shadow_campaign::engine::{run_campaign, sink_for, CampaignOptions};
use shadow_campaign::recipe::Recipe;
use shadow_campaign::serve::{serve_stdin, serve_unix, ServeOptions};
use shadow_campaign::signals;
use shadow_campaign::CellStatus;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "shadow-bench — recipe-driven sweep campaign service

USAGE:
  shadow-bench campaign run <recipe.(toml|json)> [--threads N] [--manifest PATH] [--oracle] [--quiet]
  shadow-bench campaign expand <recipe>
  shadow-bench campaign serve (--socket PATH | --stdin) [--max-campaigns N] [--base-dir DIR]

COMMANDS:
  campaign run      Execute a recipe: expand the scenario grids, run every
                    cell with retry/deadline/quarantine handling, checkpoint
                    to the manifest, write the artifact.
  campaign expand   Parse a recipe and print its expanded cell list (one
                    JSONL line per cell) without running anything.
  campaign serve    Accept recipe submissions over a Unix socket (one
                    recipe per connection, half-close to submit) or stdin,
                    streaming JSONL progress events back.

FLAGS (run):
  --threads N       Override worker threads (default: recipe, then host).
  --manifest PATH   Override the checkpoint manifest (enables resume).
  --oracle          Replay every executed cell's command trace through the
                    JEDEC protocol oracle; a violation fails the cell.
  --quiet           Suppress the recipe's event stream.

FLAGS (serve):
  --max-campaigns N Exit after serving N submissions (default: unlimited).
  --base-dir DIR    Resolve submitted recipes' relative manifest/artifact/
                    events paths against DIR (default: the server's cwd).

EXIT CODES:
  0    every cell completed
  1    quarantined or invalid cells (details in the summary)
  2    usage error
  3    recipe parse, I/O or checkpoint key-version error
  130  graceful drain after SIGINT/SIGTERM (resumable from the manifest)
";

fn usage() -> ExitCode {
    eprint!("{USAGE}");
    ExitCode::from(2)
}

fn read_recipe(path: &str) -> Result<Recipe, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Recipe::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn cmd_run(args: &[String]) -> ExitCode {
    let mut recipe_path: Option<String> = None;
    let mut opts = CampaignOptions::default();
    let mut quiet = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--threads" => match it.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n > 0 => opts.threads = Some(n),
                _ => return usage(),
            },
            "--manifest" => match it.next() {
                Some(p) => opts.manifest = Some(PathBuf::from(p)),
                None => return usage(),
            },
            "--oracle" => opts.oracle = true,
            "--quiet" => quiet = true,
            p if !p.starts_with('-') && recipe_path.is_none() => {
                recipe_path = Some(p.to_string());
            }
            _ => return usage(),
        }
    }
    let Some(path) = recipe_path else {
        return usage();
    };
    let recipe = match read_recipe(&path) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("[campaign] {e}");
            return ExitCode::from(3);
        }
    };
    opts.base_dir = PathBuf::from(&path).parent().map(|p| p.to_path_buf());
    signals::install();
    let sink = if quiet {
        shadow_campaign::null_campaign_sink()
    } else {
        match sink_for(&recipe.reporting.events, opts.base_dir.as_deref()) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("[campaign] {e}");
                return ExitCode::from(3);
            }
        }
    };
    let report = match run_campaign(&recipe, &opts, &sink) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("[campaign] {e}");
            return ExitCode::from(3);
        }
    };
    println!(
        "[campaign] {}: {} (digest {:016x}, {} retries)",
        report.name, report.summary, report.digest, report.retries_spent
    );
    for cell in &report.cells {
        if let CellStatus::Quarantined {
            reason,
            error,
            diverged,
        } = &cell.status
        {
            println!(
                "[campaign]   quarantined {}/{}/{} after {} attempts ({reason}): {error}{}",
                cell.scenario,
                cell.workload,
                cell.scheme,
                cell.attempts,
                if *diverged {
                    " [reference probe succeeded — fast-path divergence]"
                } else {
                    ""
                }
            );
        }
    }
    if report.drained {
        let manifest = opts
            .manifest
            .or(recipe.reporting.manifest)
            .map(|p| p.display().to_string())
            .unwrap_or_else(|| "<no manifest configured — completed work was lost>".to_string());
        eprintln!(
            "[campaign] drained: {} cells skipped; re-run `shadow-bench campaign run {path}` \
             to resume from {manifest}",
            report.summary.skipped
        );
    }
    ExitCode::from(u8::try_from(report.exit_code()).unwrap_or(1))
}

fn cmd_expand(args: &[String]) -> ExitCode {
    let [path] = args else {
        return usage();
    };
    let recipe = match read_recipe(path) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("[campaign] {e}");
            return ExitCode::from(3);
        }
    };
    for (i, c) in recipe.expand().iter().enumerate() {
        use shadow_bench::json::Json;
        let line = Json::Obj(vec![
            ("cell".to_string(), Json::u64(i as u64)),
            ("fp".to_string(), Json::u64(c.fingerprint)),
            ("scenario".to_string(), Json::str(&c.scenario)),
            ("workload".to_string(), Json::str(&c.cell.1)),
            ("scheme".to_string(), Json::str(c.cell.2.name())),
            ("requests".to_string(), Json::u64(c.cell.0.target_requests)),
            ("h_cnt".to_string(), Json::u64(c.cell.0.rh.h_cnt)),
            (
                "blast".to_string(),
                Json::u64(u64::from(c.cell.0.rh.blast_radius)),
            ),
        ]);
        println!("{}", line.to_json());
    }
    ExitCode::SUCCESS
}

fn cmd_serve(args: &[String]) -> ExitCode {
    let mut opts = ServeOptions::default();
    let mut stdin_mode = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--socket" => match it.next() {
                Some(p) => opts.socket = Some(PathBuf::from(p)),
                None => return usage(),
            },
            "--stdin" => stdin_mode = true,
            "--max-campaigns" => match it.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) => opts.max_campaigns = Some(n),
                None => return usage(),
            },
            "--base-dir" => match it.next() {
                Some(p) => opts.base_dir = Some(PathBuf::from(p)),
                None => return usage(),
            },
            _ => return usage(),
        }
    }
    if stdin_mode == opts.socket.is_some() {
        // exactly one transport must be chosen
        return usage();
    }
    signals::install();
    let code = if stdin_mode {
        serve_stdin(&opts)
    } else {
        serve_unix(&opts)
    };
    ExitCode::from(u8::try_from(code).unwrap_or(1))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.split_first() {
        Some((cmd, rest)) if cmd == "campaign" => match rest.split_first() {
            Some((sub, rest)) if sub == "run" => cmd_run(rest),
            Some((sub, rest)) if sub == "expand" => cmd_expand(rest),
            Some((sub, rest)) if sub == "serve" => cmd_serve(rest),
            _ => usage(),
        },
        Some((cmd, _)) if cmd == "--help" || cmd == "-h" || cmd == "help" => {
            print!("{USAGE}");
            ExitCode::SUCCESS
        }
        _ => usage(),
    }
}
