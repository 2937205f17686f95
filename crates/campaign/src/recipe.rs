//! Declarative campaign recipes: a hand-rolled TOML subset (or JSON)
//! describing scenarios × parameter grids × reporting, expanded into the
//! fingerprinted cell list the engine executes.
//!
//! The format follows the recipes/scenarios/reporting split of the
//! `sd-bench` exemplar: a `[campaign]` header with execution knobs,
//! one or more `[[scenario]]` grids (preset × workloads × schemes ×
//! requests × h_cnt × blast × engine), a `[reporting]` table naming the
//! checkpoint manifest / artifact / event stream, and optional
//! `[[fault]]` entries — the deterministic fault-injection facility the
//! robustness tests and the CI campaign job drive.
//!
//! The TOML parser is deliberately a *subset*: tables `[a.b]`,
//! arrays-of-tables `[[a]]`, bare/quoted keys, strings, integers,
//! floats, booleans, homogeneous inline arrays, and `#` comments.
//! Everything a recipe needs, nothing more; unknown keys are **errors**
//! (a typo'd knob must not silently run a different campaign). Both
//! syntaxes lower to the same [`Json`] tree — a document starting with
//! `{` is parsed as JSON directly, so programmatic submitters (the
//! `serve` socket) can skip TOML entirely.

use shadow_bench::json::{Json, MAX_DEPTH};
use shadow_bench::runner::{fingerprint, RetryPolicy};
use shadow_bench::{Cell, Scheme};
use shadow_conformance::Fault;
use shadow_memsys::{Engine, SystemConfig};
use shadow_rh::RhParams;
use std::fmt;
use std::path::PathBuf;

/// A recipe that could not be parsed or validated. The message carries
/// the line number (TOML) or key path (model) of the offence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecipeError(pub String);

impl fmt::Display for RecipeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "recipe error: {}", self.0)
    }
}

impl std::error::Error for RecipeError {}

fn err<T>(msg: impl Into<String>) -> Result<T, RecipeError> {
    Err(RecipeError(msg.into()))
}

// ---------------------------------------------------------------------------
// TOML subset → Json
// ---------------------------------------------------------------------------

/// Strips a `#` comment from a line, respecting double-quoted strings.
fn strip_comment(line: &str) -> &str {
    let bytes = line.as_bytes();
    let mut in_str = false;
    let mut escaped = false;
    for (i, &b) in bytes.iter().enumerate() {
        if in_str {
            if escaped {
                escaped = false;
            } else if b == b'\\' {
                escaped = true;
            } else if b == b'"' {
                in_str = false;
            }
        } else if b == b'"' {
            in_str = true;
        } else if b == b'#' {
            return &line[..i];
        }
    }
    line
}

/// Splits a dotted table header (`a.b."c d"`) into path segments.
fn split_path(raw: &str, line_no: usize) -> Result<Vec<String>, RecipeError> {
    let mut segs = Vec::new();
    let mut rest = raw.trim();
    loop {
        rest = rest.trim_start();
        if let Some(stripped) = rest.strip_prefix('"') {
            let end = stripped
                .find('"')
                .ok_or_else(|| RecipeError(format!("line {line_no}: unterminated quoted key")))?;
            segs.push(stripped[..end].to_string());
            rest = stripped[end + 1..].trim_start();
        } else {
            let end = rest.find('.').unwrap_or(rest.len());
            let seg = rest[..end].trim();
            if seg.is_empty() {
                return err(format!("line {line_no}: empty key segment in `{raw}`"));
            }
            segs.push(seg.to_string());
            rest = &rest[end..];
        }
        if segs.len() > MAX_DEPTH {
            return err(format!(
                "line {line_no}: table header nests deeper than {MAX_DEPTH} levels"
            ));
        }
        if rest.is_empty() {
            return Ok(segs);
        }
        rest = rest
            .strip_prefix('.')
            .ok_or_else(|| RecipeError(format!("line {line_no}: malformed key `{raw}`")))?;
        if rest.trim().is_empty() {
            return err(format!("line {line_no}: trailing `.` in `{raw}`"));
        }
    }
}

/// Navigates (creating as needed) to the table at `path`, descending into
/// the *last element* of any array-of-tables encountered on the way.
fn table_at<'a>(
    root: &'a mut Json,
    path: &[String],
    line_no: usize,
) -> Result<&'a mut Vec<(String, Json)>, RecipeError> {
    let mut cur = root;
    for seg in path {
        let fields = match cur {
            Json::Obj(fields) => fields,
            _ => return err(format!("line {line_no}: `{seg}` is not a table")),
        };
        if !fields.iter().any(|(k, _)| k == seg) {
            fields.push((seg.clone(), Json::Obj(Vec::new())));
        }
        let slot = &mut fields
            .iter_mut()
            .find(|(k, _)| k == seg)
            .expect("just inserted")
            .1;
        cur = match slot {
            Json::Obj(_) => slot,
            Json::Arr(items) => items
                .last_mut()
                .ok_or_else(|| RecipeError(format!("line {line_no}: `{seg}` is an empty array")))?,
            _ => return err(format!("line {line_no}: `{seg}` is not a table")),
        };
    }
    match cur {
        Json::Obj(fields) => Ok(fields),
        _ => err(format!("line {line_no}: path does not name a table")),
    }
}

/// Recursive-descent parser for a TOML value (string / number / bool /
/// inline array). `pos` is advanced past the value; trailing garbage is
/// the caller's problem. Arrays nest at most [`MAX_DEPTH`] deep, so a
/// line of `[[[…` is an error rather than a stack overflow.
fn parse_value(
    b: &[u8],
    pos: &mut usize,
    line_no: usize,
    depth: usize,
) -> Result<Json, RecipeError> {
    while *pos < b.len() && (b[*pos] == b' ' || b[*pos] == b'\t') {
        *pos += 1;
    }
    if *pos >= b.len() {
        return err(format!("line {line_no}: missing value"));
    }
    match b[*pos] {
        b'"' => {
            *pos += 1;
            let mut s = String::new();
            while *pos < b.len() {
                match b[*pos] {
                    b'"' => {
                        *pos += 1;
                        return Ok(Json::Str(s));
                    }
                    b'\\' => {
                        *pos += 1;
                        if *pos >= b.len() {
                            break;
                        }
                        match b[*pos] {
                            b'n' => s.push('\n'),
                            b't' => s.push('\t'),
                            b'\\' => s.push('\\'),
                            b'"' => s.push('"'),
                            other => {
                                return err(format!(
                                    "line {line_no}: unsupported escape `\\{}`",
                                    other as char
                                ))
                            }
                        }
                        *pos += 1;
                    }
                    c => {
                        s.push(c as char);
                        *pos += 1;
                    }
                }
            }
            err(format!("line {line_no}: unterminated string"))
        }
        b'[' if depth >= MAX_DEPTH => err(format!(
            "line {line_no}: arrays nest deeper than {MAX_DEPTH} levels"
        )),
        b'[' => {
            *pos += 1;
            let mut items = Vec::new();
            loop {
                while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b',') {
                    *pos += 1;
                }
                if *pos >= b.len() {
                    return err(format!("line {line_no}: unterminated array"));
                }
                if b[*pos] == b']' {
                    *pos += 1;
                    return Ok(Json::Arr(items));
                }
                items.push(parse_value(b, pos, line_no, depth + 1)?);
            }
        }
        _ => {
            let start = *pos;
            while *pos < b.len() && !matches!(b[*pos], b',' | b']' | b' ' | b'\t') {
                *pos += 1;
            }
            let token: String = std::str::from_utf8(&b[start..*pos])
                .map_err(|_| RecipeError(format!("line {line_no}: non-UTF8 value")))?
                .replace('_', "");
            match token.as_str() {
                "true" => Ok(Json::Bool(true)),
                "false" => Ok(Json::Bool(false)),
                "" => err(format!("line {line_no}: missing value")),
                t if t.parse::<f64>().is_ok() => Ok(Json::Num(t.to_string())),
                t => err(format!("line {line_no}: unrecognised value `{t}`")),
            }
        }
    }
}

/// Parses the supported TOML subset into a [`Json`] object tree.
///
/// # Errors
///
/// [`RecipeError`] with a line number for syntax errors, unsupported
/// constructs (dotted keys in assignments, multi-line strings), or
/// structural misuse (redefining a table as a value).
pub fn toml_to_json(text: &str) -> Result<Json, RecipeError> {
    let mut root = Json::Obj(Vec::new());
    let mut path: Vec<String> = Vec::new();
    for (i, raw_line) in text.lines().enumerate() {
        let line_no = i + 1;
        let line = strip_comment(raw_line).trim();
        if line.is_empty() {
            continue;
        }
        if let Some(header) = line.strip_prefix("[[") {
            let Some(header) = header.strip_suffix("]]") else {
                return err(format!("line {line_no}: malformed array-of-tables header"));
            };
            let segs = split_path(header, line_no)?;
            let (parent, leaf) = segs.split_at(segs.len() - 1);
            let fields = table_at(&mut root, parent, line_no)?;
            let leaf = &leaf[0];
            if !fields.iter().any(|(k, _)| k == leaf) {
                fields.push((leaf.clone(), Json::Arr(Vec::new())));
            }
            let slot = &mut fields
                .iter_mut()
                .find(|(k, _)| k == leaf)
                .expect("just inserted")
                .1;
            match slot {
                Json::Arr(items) => items.push(Json::Obj(Vec::new())),
                _ => {
                    return err(format!(
                        "line {line_no}: `{leaf}` is not an array of tables"
                    ))
                }
            }
            path = segs;
        } else if let Some(header) = line.strip_prefix('[') {
            let Some(header) = header.strip_suffix(']') else {
                return err(format!("line {line_no}: malformed table header"));
            };
            let segs = split_path(header, line_no)?;
            table_at(&mut root, &segs, line_no)?;
            path = segs;
        } else if let Some(eq) = line.find('=') {
            let key = line[..eq].trim();
            if key.is_empty() {
                return err(format!("line {line_no}: empty key"));
            }
            let key = key.trim_matches('"').to_string();
            if key.contains('.') {
                return err(format!(
                    "line {line_no}: dotted keys are not supported; use a [table] header"
                ));
            }
            let value_src = line[eq + 1..].trim();
            let b = value_src.as_bytes();
            let mut pos = 0;
            let value = parse_value(b, &mut pos, line_no, 0)?;
            while pos < b.len() && matches!(b[pos], b' ' | b'\t') {
                pos += 1;
            }
            if pos < b.len() {
                return err(format!(
                    "line {line_no}: trailing characters after value: `{}`",
                    &value_src[pos..]
                ));
            }
            let fields = table_at(&mut root, &path, line_no)?;
            if fields.iter().any(|(k, _)| *k == key) {
                return err(format!("line {line_no}: duplicate key `{key}`"));
            }
            fields.push((key, value));
        } else {
            return err(format!(
                "line {line_no}: expected `key = value` or `[table]`"
            ));
        }
    }
    Ok(root)
}

// ---------------------------------------------------------------------------
// Recipe model
// ---------------------------------------------------------------------------

/// Which [`SystemConfig`] preset a scenario starts from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Preset {
    /// [`SystemConfig::tiny`] — the CI-sized geometry.
    Tiny,
    /// [`SystemConfig::ddr4_actual_system`].
    Ddr4,
    /// [`SystemConfig::ddr5_sim`].
    Ddr5,
}

impl Preset {
    fn from_name(name: &str) -> Option<Preset> {
        match name {
            "tiny" => Some(Preset::Tiny),
            "ddr4" => Some(Preset::Ddr4),
            "ddr5" => Some(Preset::Ddr5),
            _ => None,
        }
    }

    /// Instantiates the preset.
    pub fn config(self) -> SystemConfig {
        match self {
            Preset::Tiny => SystemConfig::tiny(),
            Preset::Ddr4 => SystemConfig::ddr4_actual_system(),
            Preset::Ddr5 => SystemConfig::ddr5_sim(),
        }
    }
}

/// Parses a scenario `engine` axis value; `None` for unknown names. Both
/// engines are outcome-identical (pinned bit-for-bit by the conformance
/// fuzzer) — the axis exists so a campaign can compare their throughput
/// on real workload grids.
fn engine_from_name(name: &str) -> Option<Engine> {
    match name {
        "fast" => Some(Engine::Fast),
        "reference" => Some(Engine::Reference),
        _ => None,
    }
}

/// One scenario grid: every combination of `workloads × schemes ×
/// requests × h_cnt × blast × engine` becomes a cell (in exactly that
/// nesting order — the expansion is part of the resume contract, since
/// cell indices appear in events and fault specs).
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Scenario label (carried into cell records and the artifact).
    pub name: String,
    /// Base configuration.
    pub preset: Preset,
    /// Workload names (validated at run time by the workload registry).
    pub workloads: Vec<String>,
    /// Mitigation schemes.
    pub schemes: Vec<Scheme>,
    /// `target_requests` grid (empty: the preset's default, one cell).
    pub requests: Vec<u64>,
    /// `RhParams::h_cnt` grid (empty: preset default).
    pub h_cnt: Vec<u64>,
    /// `RhParams::blast_radius` grid (empty: preset default).
    pub blast: Vec<u32>,
    /// Scheduling-engine grid (empty: the preset's [`Engine::Fast`], one
    /// cell). Outcome-identical across choices; sweeps engine modes.
    pub engine: Vec<Engine>,
    /// Forward-progress watchdog window in cycles (0: disabled). Stall
    /// faults are only detectable with a window armed.
    pub watchdog_window: u64,
    /// MLP override (`None`: preset default).
    pub mlp: Option<usize>,
}

/// Where progress events go.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum EventsOut {
    /// Drop events.
    Silent,
    /// One JSONL line per event on stderr (the default for `campaign
    /// run` — stdout stays clean for the summary).
    #[default]
    Stderr,
    /// JSONL on stdout.
    Stdout,
    /// JSONL appended to a file.
    File(PathBuf),
}

/// The `[reporting]` table: persistence and observability outputs.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Reporting {
    /// JSONL checkpoint manifest (fingerprint-keyed; enables resume).
    pub manifest: Option<PathBuf>,
    /// Final campaign artifact (JSON: summary + per-cell records).
    pub artifact: Option<PathBuf>,
    /// Progress event stream.
    pub events: EventsOut,
}

/// A deterministic fault injected into one expanded cell — the testing
/// facility behind the retry/quarantine CI gate. `cell` indexes the
/// expanded cell list ([`Recipe::expand`] order).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// Index into the expanded cell list.
    pub cell: usize,
    /// The fault ([`Fault::PanicAtAct`] / [`Fault::StallAtAct`]).
    pub fault: Fault,
    /// Whether the fault also fires on the reference-engine probe
    /// (`false` manufactures a fast-path/reference divergence).
    pub in_reference: bool,
}

/// Campaign-level execution knobs from the `[campaign]` table.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecConfig {
    /// Worker threads (`None`: [`shadow_bench::host_cpus`]).
    pub threads: Option<usize>,
    /// Per-cell fast-path retry policy.
    pub retry: RetryPolicy,
    /// Campaign-wide retry token pool (`None`: unlimited).
    pub max_total_retries: Option<u32>,
    /// Per-cell wall-clock deadline in seconds.
    pub cell_deadline_secs: Option<f64>,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            threads: None,
            retry: RetryPolicy {
                budget: 0,
                base_delay_ms: 1_000,
                max_delay_ms: 60_000,
            },
            max_total_retries: None,
            cell_deadline_secs: None,
        }
    }
}

/// A parsed, validated campaign recipe.
#[derive(Debug, Clone, PartialEq)]
pub struct Recipe {
    /// Campaign name (from `[campaign] name`).
    pub name: String,
    /// Execution knobs.
    pub exec: ExecConfig,
    /// Scenario grids, expanded in order.
    pub scenarios: Vec<Scenario>,
    /// Persistence and observability outputs.
    pub reporting: Reporting,
    /// Injected faults (testing facility; empty for real campaigns).
    pub faults: Vec<FaultSpec>,
}

/// One expanded cell: the scenario it came from, the runnable cell, and
/// its configuration fingerprint (the manifest/resume key).
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignCell {
    /// Name of the scenario that produced this cell.
    pub scenario: String,
    /// The runnable (config, workload, scheme) triple.
    pub cell: Cell,
    /// [`fingerprint`] of `cell`.
    pub fingerprint: u64,
}

// --- Json accessors with path-carrying errors ---

fn want_str(v: &Json, at: &str) -> Result<String, RecipeError> {
    v.as_str()
        .map(str::to_string)
        .map_err(|_| RecipeError(format!("{at}: expected a string")))
}

fn want_u64(v: &Json, at: &str) -> Result<u64, RecipeError> {
    v.as_u64()
        .map_err(|_| RecipeError(format!("{at}: expected a non-negative integer")))
}

fn want_f64(v: &Json, at: &str) -> Result<f64, RecipeError> {
    v.as_f64()
        .map_err(|_| RecipeError(format!("{at}: expected a number")))
}

fn want_bool(v: &Json, at: &str) -> Result<bool, RecipeError> {
    match v {
        Json::Bool(b) => Ok(*b),
        _ => err(format!("{at}: expected a boolean")),
    }
}

fn want_arr<'a>(v: &'a Json, at: &str) -> Result<&'a [Json], RecipeError> {
    v.as_arr()
        .map_err(|_| RecipeError(format!("{at}: expected an array")))
}

/// Checks every key of `obj` against `allowed`, so a typo'd knob is an
/// error rather than a silently different campaign.
fn check_keys(obj: &Json, at: &str, allowed: &[&str]) -> Result<(), RecipeError> {
    let Json::Obj(fields) = obj else {
        return err(format!("{at}: expected a table"));
    };
    for (k, _) in fields {
        if !allowed.contains(&k.as_str()) {
            return err(format!(
                "{at}: unknown key `{k}` (allowed: {})",
                allowed.join(", ")
            ));
        }
    }
    Ok(())
}

impl Recipe {
    /// Parses recipe text: JSON when it starts with `{`, the TOML subset
    /// otherwise.
    ///
    /// # Errors
    ///
    /// [`RecipeError`] for syntax errors and for model violations
    /// (missing `[campaign] name`, unknown scheme, out-of-range fault
    /// index, …).
    pub fn parse(text: &str) -> Result<Recipe, RecipeError> {
        let tree = if text.trim_start().starts_with('{') {
            Json::parse(text).map_err(|e| RecipeError(format!("JSON recipe: {e}")))?
        } else {
            toml_to_json(text)?
        };
        Recipe::from_json(&tree)
    }

    /// Builds the model from a lowered [`Json`] tree.
    ///
    /// # Errors
    ///
    /// [`RecipeError`] naming the offending key path.
    pub fn from_json(tree: &Json) -> Result<Recipe, RecipeError> {
        check_keys(
            tree,
            "recipe",
            &["campaign", "scenario", "reporting", "fault"],
        )?;
        let campaign = tree
            .get("campaign")
            .ok_or_else(|| RecipeError("missing [campaign] table".into()))?;
        check_keys(
            campaign,
            "[campaign]",
            &[
                "name",
                "threads",
                "retry_budget",
                "retry_base_ms",
                "retry_max_ms",
                "max_total_retries",
                "cell_deadline_secs",
            ],
        )?;
        let name = want_str(
            campaign
                .get("name")
                .ok_or_else(|| RecipeError("[campaign]: missing `name`".into()))?,
            "[campaign].name",
        )?;
        let mut exec = ExecConfig::default();
        if let Some(v) = campaign.get("threads") {
            let t = want_u64(v, "[campaign].threads")?;
            if t == 0 {
                return err("[campaign].threads: must be positive");
            }
            exec.threads = Some(t as usize);
        }
        if let Some(v) = campaign.get("retry_budget") {
            exec.retry.budget = want_u64(v, "[campaign].retry_budget")? as u32;
        }
        if let Some(v) = campaign.get("retry_base_ms") {
            exec.retry.base_delay_ms = want_u64(v, "[campaign].retry_base_ms")?;
        }
        if let Some(v) = campaign.get("retry_max_ms") {
            exec.retry.max_delay_ms = want_u64(v, "[campaign].retry_max_ms")?;
        }
        if let Some(v) = campaign.get("max_total_retries") {
            exec.max_total_retries = Some(want_u64(v, "[campaign].max_total_retries")? as u32);
        }
        if let Some(v) = campaign.get("cell_deadline_secs") {
            let d = want_f64(v, "[campaign].cell_deadline_secs")?;
            if d <= 0.0 {
                return err("[campaign].cell_deadline_secs: must be positive");
            }
            exec.cell_deadline_secs = Some(d);
        }

        let scenarios_json = tree
            .get("scenario")
            .ok_or_else(|| RecipeError("missing [[scenario]] tables".into()))?;
        let mut scenarios = Vec::new();
        for (si, s) in want_arr(scenarios_json, "[[scenario]]")?.iter().enumerate() {
            let at = format!("[[scenario]] #{si}");
            check_keys(
                s,
                &at,
                &[
                    "name",
                    "preset",
                    "workloads",
                    "schemes",
                    "requests",
                    "h_cnt",
                    "blast",
                    "engine",
                    "watchdog_window",
                    "mlp",
                ],
            )?;
            let sname = match s.get("name") {
                Some(v) => want_str(v, &format!("{at}.name"))?,
                None => format!("scenario-{si}"),
            };
            let preset_name = want_str(
                s.get("preset")
                    .ok_or_else(|| RecipeError(format!("{at}: missing `preset`")))?,
                &format!("{at}.preset"),
            )?;
            let preset = Preset::from_name(&preset_name).ok_or_else(|| {
                RecipeError(format!(
                    "{at}.preset: unknown preset `{preset_name}` (tiny, ddr4, ddr5)"
                ))
            })?;
            let workloads: Vec<String> = want_arr(
                s.get("workloads")
                    .ok_or_else(|| RecipeError(format!("{at}: missing `workloads`")))?,
                &format!("{at}.workloads"),
            )?
            .iter()
            .map(|v| want_str(v, &format!("{at}.workloads[]")))
            .collect::<Result<_, _>>()?;
            let schemes: Vec<Scheme> = want_arr(
                s.get("schemes")
                    .ok_or_else(|| RecipeError(format!("{at}: missing `schemes`")))?,
                &format!("{at}.schemes"),
            )?
            .iter()
            .map(|v| {
                let n = want_str(v, &format!("{at}.schemes[]"))?;
                Scheme::from_name(&n)
                    .ok_or_else(|| RecipeError(format!("{at}.schemes: unknown scheme `{n}`")))
            })
            .collect::<Result<_, _>>()?;
            if workloads.is_empty() || schemes.is_empty() {
                return err(format!("{at}: `workloads` and `schemes` must be non-empty"));
            }
            let num_list = |key: &str| -> Result<Vec<u64>, RecipeError> {
                match s.get(key) {
                    None => Ok(Vec::new()),
                    Some(v) => want_arr(v, &format!("{at}.{key}"))?
                        .iter()
                        .map(|n| want_u64(n, &format!("{at}.{key}[]")))
                        .collect(),
                }
            };
            let requests = num_list("requests")?;
            // `RhParams::new` asserts both axes positive, and the blast
            // radius is a u32: reject here rather than panic or wrap in
            // `expand`.
            let h_cnt = num_list("h_cnt")?;
            if h_cnt.contains(&0) {
                return err(format!("{at}.h_cnt[]: must be positive"));
            }
            let blast = num_list("blast")?
                .into_iter()
                .map(|b| match u32::try_from(b) {
                    Ok(b) if b > 0 => Ok(b),
                    _ => err(format!("{at}.blast[]: must be in 1..={}", u32::MAX)),
                })
                .collect::<Result<Vec<u32>, _>>()?;
            let engine: Vec<Engine> = match s.get("engine") {
                None => Vec::new(),
                Some(v) => want_arr(v, &format!("{at}.engine"))?
                    .iter()
                    .map(|e| {
                        let n = want_str(e, &format!("{at}.engine[]"))?;
                        engine_from_name(&n).ok_or_else(|| {
                            RecipeError(format!(
                                "{at}.engine: unknown engine `{n}` (fast, reference)"
                            ))
                        })
                    })
                    .collect::<Result<_, _>>()?,
            };
            let watchdog_window = match s.get("watchdog_window") {
                None => 0,
                Some(v) => want_u64(v, &format!("{at}.watchdog_window"))?,
            };
            let mlp = match s.get("mlp") {
                None => None,
                Some(v) => Some(want_u64(v, &format!("{at}.mlp"))? as usize),
            };
            scenarios.push(Scenario {
                name: sname,
                preset,
                workloads,
                schemes,
                requests,
                h_cnt,
                blast,
                engine,
                watchdog_window,
                mlp,
            });
        }
        if scenarios.is_empty() {
            return err("recipe declares no scenarios");
        }

        let mut reporting = Reporting::default();
        if let Some(r) = tree.get("reporting") {
            check_keys(r, "[reporting]", &["manifest", "artifact", "events"])?;
            if let Some(v) = r.get("manifest") {
                reporting.manifest = Some(PathBuf::from(want_str(v, "[reporting].manifest")?));
            }
            if let Some(v) = r.get("artifact") {
                reporting.artifact = Some(PathBuf::from(want_str(v, "[reporting].artifact")?));
            }
            if let Some(v) = r.get("events") {
                let e = want_str(v, "[reporting].events")?;
                reporting.events = match e.as_str() {
                    "none" | "silent" => EventsOut::Silent,
                    "stderr" => EventsOut::Stderr,
                    "stdout" => EventsOut::Stdout,
                    path => EventsOut::File(PathBuf::from(path)),
                };
            }
        }

        let mut faults = Vec::new();
        if let Some(fs) = tree.get("fault") {
            for (fi, f) in want_arr(fs, "[[fault]]")?.iter().enumerate() {
                let at = format!("[[fault]] #{fi}");
                check_keys(f, &at, &["cell", "kind", "at", "in_reference"])?;
                let cell = want_u64(
                    f.get("cell")
                        .ok_or_else(|| RecipeError(format!("{at}: missing `cell`")))?,
                    &format!("{at}.cell"),
                )? as usize;
                let kind = want_str(
                    f.get("kind")
                        .ok_or_else(|| RecipeError(format!("{at}: missing `kind`")))?,
                    &format!("{at}.kind"),
                )?;
                let act = want_u64(
                    f.get("at")
                        .ok_or_else(|| RecipeError(format!("{at}: missing `at`")))?,
                    &format!("{at}.at"),
                )?;
                let fault = match kind.as_str() {
                    "panic-at-act" => Fault::PanicAtAct(act),
                    "stall-at-act" => Fault::StallAtAct(act),
                    other => {
                        return err(format!(
                            "{at}.kind: unknown fault `{other}` (panic-at-act, stall-at-act)"
                        ))
                    }
                };
                let in_reference = match f.get("in_reference") {
                    None => true,
                    Some(v) => want_bool(v, &format!("{at}.in_reference"))?,
                };
                faults.push(FaultSpec {
                    cell,
                    fault,
                    in_reference,
                });
            }
        }

        let recipe = Recipe {
            name,
            exec,
            scenarios,
            reporting,
            faults,
        };
        let n_cells = recipe.cell_count();
        for f in &recipe.faults {
            if f.cell >= n_cells {
                return err(format!(
                    "[[fault]].cell: index {} out of range (recipe expands to {n_cells} cells)",
                    f.cell
                ));
            }
        }
        Ok(recipe)
    }

    /// Number of cells this recipe expands to.
    pub fn cell_count(&self) -> usize {
        self.scenarios
            .iter()
            .map(|s| {
                s.workloads.len()
                    * s.schemes.len()
                    * s.requests.len().max(1)
                    * s.h_cnt.len().max(1)
                    * s.blast.len().max(1)
                    * s.engine.len().max(1)
            })
            .sum()
    }

    /// Expands the scenario grids into the flat, ordered, fingerprinted
    /// cell list. The order — scenarios in declaration order, then
    /// `workloads × schemes × requests × h_cnt × blast × engine` with the
    /// rightmost axis fastest — is a stable contract: cell indices
    /// appear in fault specs, progress events, and resume records. The
    /// `engine` axis was appended *rightmost* so recipes without it keep
    /// their pre-existing indices.
    pub fn expand(&self) -> Vec<CampaignCell> {
        fn axis<T: Copy>(v: &[T]) -> Vec<Option<T>> {
            if v.is_empty() {
                vec![None]
            } else {
                v.iter().copied().map(Some).collect()
            }
        }
        let mut cells = Vec::with_capacity(self.cell_count());
        for s in &self.scenarios {
            for workload in &s.workloads {
                for &scheme in &s.schemes {
                    for req in axis(&s.requests) {
                        for h in axis(&s.h_cnt) {
                            for blast in axis(&s.blast) {
                                for eng in axis(&s.engine) {
                                    let mut cfg = s.preset.config();
                                    if let Some(r) = req {
                                        cfg.target_requests = r;
                                    }
                                    if h.is_some() || blast.is_some() {
                                        cfg.rh = RhParams::new(
                                            h.unwrap_or(cfg.rh.h_cnt),
                                            blast.unwrap_or(cfg.rh.blast_radius),
                                        );
                                    }
                                    if let Some(e) = eng {
                                        cfg.engine = e;
                                    }
                                    cfg.watchdog_window = s.watchdog_window;
                                    if let Some(m) = s.mlp {
                                        cfg.mlp = m;
                                    }
                                    let cell: Cell = (cfg, workload.clone(), scheme);
                                    let fp = fingerprint(&cell);
                                    cells.push(CampaignCell {
                                        scenario: s.name.clone(),
                                        cell,
                                        fingerprint: fp,
                                    });
                                }
                            }
                        }
                    }
                }
            }
        }
        cells
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn toml_subset_round_trips_tables_arrays_and_scalars() {
        let tree = toml_to_json(
            r#"
# header comment
[campaign]
name = "smoke"   # trailing comment
threads = 2
retry_base_ms = 1_000

[[scenario]]
name = "a"
preset = "tiny"
workloads = ["random-stream", "hammer-single"]
schemes = ["baseline"]
requests = [100, 200]

[reporting]
events = "none"
"#,
        )
        .expect("parses");
        let name = tree.get("campaign").unwrap().get("name").unwrap();
        assert_eq!(name.as_str().unwrap(), "smoke");
        let threads = tree.get("campaign").unwrap().get("threads").unwrap();
        assert_eq!(threads.as_u64().unwrap(), 2);
        let base = tree.get("campaign").unwrap().get("retry_base_ms").unwrap();
        assert_eq!(base.as_u64().unwrap(), 1000, "underscore separator");
        let scenarios = tree.get("scenario").unwrap().as_arr().unwrap();
        assert_eq!(scenarios.len(), 1);
        let wl = scenarios[0].get("workloads").unwrap().as_arr().unwrap();
        assert_eq!(wl.len(), 2);
        assert_eq!(wl[1].as_str().unwrap(), "hammer-single");
    }

    #[test]
    fn toml_errors_carry_line_numbers() {
        for (src, needle) in [
            ("x 3", "line 1"),
            ("[t]\nk = ", "line 2: missing value"),
            ("k = \"unterminated", "unterminated string"),
            ("k = [1, 2", "unterminated array"),
            ("k = nope", "unrecognised value"),
            ("k = 1\nk = 2", "duplicate key"),
            ("a.b = 1", "dotted keys"),
        ] {
            let e = toml_to_json(src).expect_err(src);
            assert!(e.0.contains(needle), "`{src}` → {e}");
        }
    }

    #[test]
    fn deep_nesting_is_a_named_error_not_a_stack_overflow() {
        let deep = "[".repeat(100_000);
        for (src, needle) in [
            (format!("name = {deep}"), "arrays nest deeper than 128"),
            (
                format!("[{}]", "a.".repeat(100_000) + "a"),
                "nests deeper than 128",
            ),
            (
                format!("[[{}]]", "a.".repeat(100_000) + "a"),
                "nests deeper than 128",
            ),
            (format!("{{\"campaign\": {deep}"), "nesting deeper than 128"),
        ] {
            let e = Recipe::parse(&src).expect_err("too deep");
            assert!(e.0.contains(needle), "{e}");
        }
    }

    #[test]
    fn recipe_rejects_unknown_keys_and_bad_values() {
        let base = |extra: &str| {
            format!(
                "[campaign]\nname = \"x\"\n{extra}\n[[scenario]]\npreset = \"tiny\"\n\
                 workloads = [\"random-stream\"]\nschemes = [\"baseline\"]\n"
            )
        };
        assert!(Recipe::parse(&base("")).is_ok());
        let e = Recipe::parse(&base("typo_knob = 1")).expect_err("unknown key");
        assert!(e.0.contains("unknown key `typo_knob`"), "{e}");
        let e = Recipe::parse(&base("threads = 0")).expect_err("zero threads");
        assert!(e.0.contains("threads"), "{e}");
        let bad_scheme = base("").replace("baseline", "no-such-scheme");
        let e = Recipe::parse(&bad_scheme).expect_err("unknown scheme");
        assert!(e.0.contains("unknown scheme"), "{e}");
    }

    #[test]
    fn json_recipes_are_sniffed_and_equivalent() {
        let toml = r#"
[campaign]
name = "eq"
retry_budget = 2
[[scenario]]
name = "s"
preset = "tiny"
workloads = ["random-stream"]
schemes = ["baseline", "shadow"]
requests = [300]
"#;
        let json = r#"{
  "campaign": {"name": "eq", "retry_budget": 2},
  "scenario": [{"name": "s", "preset": "tiny",
                "workloads": ["random-stream"],
                "schemes": ["baseline", "shadow"],
                "requests": [300]}]
}"#;
        let a = Recipe::parse(toml).expect("toml");
        let b = Recipe::parse(json).expect("json");
        assert_eq!(a, b);
        assert_eq!(a.expand(), b.expand());
    }

    #[test]
    fn expansion_order_is_the_documented_grid_nesting() {
        let r = Recipe::parse(
            r#"
[campaign]
name = "grid"
[[scenario]]
name = "g"
preset = "tiny"
workloads = ["random-stream", "hammer-single"]
schemes = ["baseline"]
requests = [100, 200]
h_cnt = [1000]
"#,
        )
        .expect("parses");
        assert_eq!(r.cell_count(), 4);
        let cells = r.expand();
        assert_eq!(cells.len(), 4);
        // workloads outermost, requests inner: rs100, rs200, hs100, hs200.
        assert_eq!(cells[0].cell.1, "random-stream");
        assert_eq!(cells[0].cell.0.target_requests, 100);
        assert_eq!(cells[1].cell.1, "random-stream");
        assert_eq!(cells[1].cell.0.target_requests, 200);
        assert_eq!(cells[2].cell.1, "hammer-single");
        assert_eq!(cells[2].cell.0.target_requests, 100);
        assert!(cells.iter().all(|c| c.cell.0.rh.h_cnt == 1000));
        assert_eq!(cells[3].fingerprint, fingerprint(&cells[3].cell));
        // Distinct configurations → distinct fingerprints.
        let mut fps: Vec<u64> = cells.iter().map(|c| c.fingerprint).collect();
        fps.sort_unstable();
        fps.dedup();
        assert_eq!(fps.len(), 4);
    }

    #[test]
    fn engine_axis_expands_rightmost_and_sets_engine() {
        let r = Recipe::parse(
            r#"
[campaign]
name = "engines"
[[scenario]]
name = "e"
preset = "tiny"
workloads = ["random-stream"]
schemes = ["baseline"]
requests = [100, 200]
engine = ["fast", "reference"]
"#,
        )
        .expect("parses");
        assert_eq!(r.cell_count(), 4);
        let cells = r.expand();
        // Engine is the rightmost (fastest) axis: fast100, reference100,
        // fast200, reference200.
        for (i, c) in cells.iter().enumerate() {
            assert_eq!(c.cell.0.target_requests, if i < 2 { 100 } else { 200 });
        }
        for group in cells.chunks(2) {
            assert_eq!(group[0].cell.0.engine, Engine::Fast);
            assert_eq!(group[1].cell.0.engine, Engine::Reference);
        }
        // Engine choices are distinct configurations → distinct
        // fingerprints (resume keys never collide across the axis).
        let mut fps: Vec<u64> = cells.iter().map(|c| c.fingerprint).collect();
        fps.sort_unstable();
        fps.dedup();
        assert_eq!(fps.len(), 4);
    }

    #[test]
    fn zero_or_oversized_rh_axes_are_named_errors() {
        let recipe = |line: &str| {
            format!(
                "[campaign]\nname = \"rh\"\n[[scenario]]\npreset = \"tiny\"\n\
                 workloads = [\"random-stream\"]\nschemes = [\"baseline\"]\n{line}\n"
            )
        };
        // Blast values above u32::MAX must not wrap (4294967297 → 1).
        for (line, key) in [
            ("h_cnt = [4096, 0]", "h_cnt[]"),
            ("blast = [0]", "blast[]"),
            ("blast = [4294967296]", "blast[]"),
            ("blast = [4294967297]", "blast[]"),
        ] {
            let e = Recipe::parse(&recipe(line)).expect_err(line);
            assert!(
                e.0.contains(&format!("[[scenario]] #0.{key}")),
                "{line}: {e}"
            );
        }
        let r = Recipe::parse(&recipe("blast = [4294967295]")).expect("u32::MAX fits");
        assert_eq!(r.expand()[0].cell.0.rh.blast_radius, u32::MAX);
    }

    #[test]
    fn unknown_engine_is_a_named_error() {
        // The retired engine names are unknown too.
        for name in ["warp-drive", "calendar", "frontier_walk", "full_scan"] {
            let e = Recipe::parse(&format!(
                "[campaign]\nname = \"bad\"\n[[scenario]]\npreset = \"tiny\"\n\
                 workloads = [\"random-stream\"]\nschemes = [\"baseline\"]\n\
                 engine = [\"{name}\"]\n"
            ))
            .expect_err("unknown engine");
            assert!(e.0.contains(&format!("unknown engine `{name}`")), "{e}");
            assert!(e.0.contains("(fast, reference)"), "{e}");
        }
    }

    #[test]
    fn fault_specs_parse_and_validate_range() {
        let r = Recipe::parse(
            r#"
[campaign]
name = "faulty"
retry_budget = 2
[[scenario]]
preset = "tiny"
workloads = ["random-stream"]
schemes = ["baseline", "shadow"]
[[fault]]
cell = 1
kind = "panic-at-act"
at = 50
[[fault]]
cell = 0
kind = "stall-at-act"
at = 30
in_reference = false
"#,
        )
        .expect("parses");
        assert_eq!(r.faults.len(), 2);
        assert_eq!(r.faults[0].cell, 1);
        assert_eq!(r.faults[0].fault, Fault::PanicAtAct(50));
        assert!(r.faults[0].in_reference);
        assert_eq!(r.faults[1].fault, Fault::StallAtAct(30));
        assert!(!r.faults[1].in_reference);

        let out_of_range = r#"
[campaign]
name = "bad"
[[scenario]]
preset = "tiny"
workloads = ["random-stream"]
schemes = ["baseline"]
[[fault]]
cell = 5
kind = "panic-at-act"
at = 1
"#;
        let e = Recipe::parse(out_of_range).expect_err("out of range");
        assert!(e.0.contains("out of range"), "{e}");
    }
}
