//! The four named workloads and the recipe each one runs.
//!
//! Every workload is written as a campaign recipe, so its cell list comes
//! from `Recipe::parse` + `Recipe::expand` exactly as a campaign's would.
//! The three direct-drive workloads then build each cell themselves from
//! the seeded streams; `campaign-grid` hands the recipe to `run_campaign`.

use shadow_bench::json::Json;
use shadow_campaign::{CampaignCell, Recipe};

/// Default `--seed`: with it, every direct-drive cell gets the stream seed
/// the figure benches and the campaign engine use (`0xACE0_0000` plus the
/// workload name's length).
pub const DEFAULT_SEED: u64 = 0xACE0_0000;

/// Forward-progress watchdog window of every cell, in cycles: far above
/// any legitimate completion gap, far below `max_cycles`, so a livelocked
/// cell fails in well under a second instead of running to the limit. The
/// recipes set no `cell_deadline_secs`: the campaign engine would then run
/// each cell on a fresh thread, and the allocator's per-thread arenas make
/// the peak resident set double at random from one run to the next.
const WATCHDOG_CYCLES: u64 = 1_000_000;

/// Digests of every cell's outcome at the default seed and full size.
const GOLDEN: &str = include_str!("../golden.json");

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The Fig 8 gate slice: a saturated bus, so the scheduler dominates.
    Fig8Dense,
    /// Low-intensity SPEC cells: almost every cycle is skipped.
    SparseSpec,
    /// H_cnt 512: RFM-, ABO- and swap-heavy mitigation callbacks.
    LowHcnt,
    /// A 48-cell recipe through the campaign engine, recipe to artifact.
    CampaignGrid,
}

/// Cell sizes: the measured configuration, or a miniature one for tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The DDR4 `ddr4_actual_system` preset at the benchmark's request counts.
    Full,
    /// The `tiny` preset at a few hundred requests per cell.
    Tiny,
}

impl Workload {
    /// Every workload, in run order.
    pub const ALL: [Workload; 4] = [
        Workload::Fig8Dense,
        Workload::SparseSpec,
        Workload::LowHcnt,
        Workload::CampaignGrid,
    ];

    /// The workload's name on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig8Dense => "fig8-dense",
            Workload::SparseSpec => "sparse-spec",
            Workload::LowHcnt => "low-hcnt",
            Workload::CampaignGrid => "campaign-grid",
        }
    }

    /// Parses a workload name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the timed passes run through `run_campaign` rather than
    /// building each cell directly.
    pub fn is_campaign(self) -> bool {
        self == Workload::CampaignGrid
    }

    /// The workload's recipe. Only `campaign-grid` depends on the seed:
    /// the campaign engine fixes every stream seed itself, so the seed
    /// picks which random mix the grid's fourth workload is. The direct-drive
    /// workloads take the seed through their streams instead
    /// ([`Plan::stream_seed`]).
    pub fn recipe(self, seed: u64, size: Size) -> String {
        let (workloads, schemes, h_cnt, full_requests): (Vec<String>, &[&str], &[u64], u64) =
            match self {
                Workload::Fig8Dense => (
                    names(&["spec-high", "mix-high", "random-stream"]),
                    &["baseline", "shadow", "rrs", "parfm"],
                    &[4096],
                    30_000,
                ),
                Workload::SparseSpec => (
                    names(&["spec-low", "spec-med", "gcc", "xz"]),
                    &["baseline", "shadow", "parfm"],
                    &[4096],
                    30_000,
                ),
                Workload::LowHcnt => (
                    names(&["spec-high", "random-stream"]),
                    &[
                        "shadow",
                        "prac",
                        "practical",
                        "dapper",
                        "rrs",
                        "mithril-perf",
                    ],
                    &[512],
                    30_000,
                ),
                Workload::CampaignGrid => {
                    let mut w = names(&["spec-high", "mix-blend", "random-stream"]);
                    w.push(format!("mix-random-{}", seed % 1000));
                    (
                        w,
                        &[
                            "baseline",
                            "shadow",
                            "parfm",
                            "rrs",
                            "practical",
                            "mithril-perf",
                        ],
                        &[4096, 1024],
                        8_000,
                    )
                }
            };
        let (preset, requests) = match size {
            Size::Full => ("ddr4", full_requests),
            Size::Tiny => ("tiny", 300),
        };
        let list = |items: &[String]| {
            items
                .iter()
                .map(|s| format!("\"{s}\""))
                .collect::<Vec<_>>()
                .join(", ")
        };
        let schemes: Vec<String> = schemes.iter().map(|s| s.to_string()).collect();
        let h_cnt: Vec<String> = h_cnt.iter().map(u64::to_string).collect();
        format!(
            "[campaign]\n\
             name = \"{name}\"\n\
             threads = 1\n\
             \n\
             [[scenario]]\n\
             name = \"{name}\"\n\
             preset = \"{preset}\"\n\
             workloads = [{workloads}]\n\
             schemes = [{schemes}]\n\
             requests = [{requests}]\n\
             h_cnt = [{h_cnt}]\n\
             watchdog_window = {WATCHDOG_CYCLES}\n\
             \n\
             [reporting]\n\
             manifest = \"manifest.jsonl\"\n\
             artifact = \"artifact.json\"\n\
             events = \"events.jsonl\"\n",
            name = self.name(),
            workloads = list(&workloads),
            schemes = list(&schemes),
            h_cnt = h_cnt.join(", "),
        )
    }
}

fn names(items: &[&str]) -> Vec<String> {
    items.iter().map(|s| s.to_string()).collect()
}

/// Stream seed the campaign engine gives a cell (see
/// `shadow_bench::try_timed_run`).
fn campaign_stream_seed(stream: &str) -> u64 {
    DEFAULT_SEED + stream.len() as u64
}

/// One workload at one seed and size: its recipe, its cells, and the
/// digests its outcomes must match.
#[derive(Debug, Clone)]
pub struct Plan {
    /// The workload.
    pub workload: Workload,
    /// The `--seed`.
    pub seed: u64,
    /// The recipe text.
    pub recipe: String,
    /// The recipe's cells, in expansion order.
    pub cells: Vec<CampaignCell>,
    /// Golden digests of the cells the campaign engine runs for this
    /// recipe (default stream seeds), when `golden.json` covers them.
    pub golden: Option<Vec<u64>>,
}

impl Plan {
    /// Builds the plan: renders and expands the recipe, and looks up the
    /// golden digests.
    ///
    /// # Errors
    ///
    /// The recipe or `golden.json` failed to parse.
    pub fn new(workload: Workload, seed: u64, size: Size) -> Result<Plan, String> {
        let recipe = workload.recipe(seed, size);
        let cells = Recipe::parse(&recipe).map_err(|e| e.to_string())?.expand();
        // Golden digests cover the default-seed cells, which is what the
        // campaign engine runs for a direct-drive recipe at any seed.
        let golden_applies =
            size == Size::Full && (!workload.is_campaign() || seed == DEFAULT_SEED);
        let golden = if golden_applies {
            golden_digests(workload)?
        } else {
            None
        };
        if let Some(g) = &golden {
            if g.len() != cells.len() {
                return Err(format!(
                    "golden.json lists {} digests for {}, whose recipe has {} cells",
                    g.len(),
                    workload.name(),
                    cells.len()
                ));
            }
        }
        Ok(Plan {
            workload,
            seed,
            recipe,
            cells,
            golden,
        })
    }

    /// Seed of the streams of a direct-drive cell named `stream`. The
    /// `campaign-grid` cells keep the campaign engine's seeds, so its traced
    /// and checked direct passes reproduce the campaign's outcomes.
    pub fn stream_seed(&self, stream: &str) -> u64 {
        if self.workload.is_campaign() {
            campaign_stream_seed(stream)
        } else {
            self.seed.wrapping_add(stream.len() as u64)
        }
    }

    /// Whether the direct-drive passes run the cells the campaign engine
    /// runs for this recipe, so that the golden digests apply to them too.
    pub fn direct_matches_campaign(&self) -> bool {
        self.workload.is_campaign() || self.seed == DEFAULT_SEED
    }

    /// `scheme/workload` label of cell `i`.
    pub fn label(&self, i: usize) -> String {
        let (_, stream, scheme) = &self.cells[i].cell;
        format!("{}/{stream}", scheme.name())
    }
}

/// Golden digests for `workload`, in cell order, if `golden.json` has them.
fn golden_digests(workload: Workload) -> Result<Option<Vec<u64>>, String> {
    let bad = |e: shadow_bench::json::JsonError| format!("golden.json: {e}");
    let tree = Json::parse(GOLDEN).map_err(bad)?;
    let Some(list) = tree.get(workload.name()) else {
        return Ok(None);
    };
    list.as_arr()
        .map_err(bad)?
        .iter()
        .map(|d| {
            let hex = d.as_str().map_err(bad)?;
            u64::from_str_radix(hex, 16).map_err(|e| format!("golden.json: `{hex}`: {e}"))
        })
        .collect::<Result<Vec<u64>, String>>()
        .map(Some)
}
