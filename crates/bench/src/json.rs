//! Minimal lossless JSON for the checkpoint manifest.
//!
//! The resumable sweep runner ([`crate::runner`]) persists one completed
//! cell per JSONL line and must reconstruct each [`SimReport`]
//! *bit-identically* on resume — the acceptance test diffs a resumed
//! artifact against a straight-through run. That rules out `f64`-backed
//! JSON numbers (a `u64` cycle count or `u128` histogram sum does not
//! survive a double round-trip), so [`Json::Num`] keeps the raw decimal
//! token and the typed accessors parse it exactly. No external
//! serialization crate is used by design: the workspace is
//! dependency-free and the schema is one struct.

use shadow_memsys::SimReport;
use shadow_rh::BitFlip;
use shadow_sim::stats::{Counter, Histogram};
use std::fmt;

/// A parse or schema error, with enough context to locate the bad input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError(pub String);

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json: {}", self.0)
    }
}

impl std::error::Error for JsonError {}

fn err<T>(msg: impl Into<String>) -> Result<T, JsonError> {
    Err(JsonError(msg.into()))
}

/// A JSON value. Numbers keep their raw decimal token (see module docs);
/// objects keep insertion order so emitted manifests are stable.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, as its raw token (`"18446744073709551615"` stays exact).
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Wraps an unsigned integer losslessly.
    pub fn u64(v: u64) -> Json {
        Json::Num(v.to_string())
    }

    /// Wraps a `u128` losslessly (the histogram sum).
    pub fn u128(v: u128) -> Json {
        Json::Num(v.to_string())
    }

    /// Wraps an `f64` (wall-clock seconds; exactness not required there).
    pub fn f64(v: f64) -> Json {
        // `{:?}` is Rust's shortest round-trippable float form.
        Json::Num(format!("{v:?}"))
    }

    /// Wraps a string.
    pub fn str(v: impl Into<String>) -> Json {
        Json::Str(v.into())
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Required object field, as an error instead of `None`.
    pub fn field(&self, key: &str) -> Result<&Json, JsonError> {
        self.get(key)
            .ok_or_else(|| JsonError(format!("missing field `{key}`")))
    }

    /// Exact `u64` accessor.
    pub fn as_u64(&self) -> Result<u64, JsonError> {
        match self {
            Json::Num(t) => t.parse().map_err(|e| JsonError(format!("`{t}`: {e}"))),
            _ => err("expected an unsigned integer"),
        }
    }

    /// Exact `u128` accessor.
    pub fn as_u128(&self) -> Result<u128, JsonError> {
        match self {
            Json::Num(t) => t.parse().map_err(|e| JsonError(format!("`{t}`: {e}"))),
            _ => err("expected an unsigned integer"),
        }
    }

    /// Exact `u32` accessor.
    pub fn as_u32(&self) -> Result<u32, JsonError> {
        match self {
            Json::Num(t) => t.parse().map_err(|e| JsonError(format!("`{t}`: {e}"))),
            _ => err("expected an unsigned integer"),
        }
    }

    /// `f64` accessor.
    pub fn as_f64(&self) -> Result<f64, JsonError> {
        match self {
            Json::Num(t) => t.parse().map_err(|e| JsonError(format!("`{t}`: {e}"))),
            _ => err("expected a number"),
        }
    }

    /// String accessor.
    pub fn as_str(&self) -> Result<&str, JsonError> {
        match self {
            Json::Str(s) => Ok(s),
            _ => err("expected a string"),
        }
    }

    /// Array accessor.
    pub fn as_arr(&self) -> Result<&[Json], JsonError> {
        match self {
            Json::Arr(v) => Ok(v),
            _ => err("expected an array"),
        }
    }

    /// Serializes to a single-line JSON string.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(t) => out.push_str(t),
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses one JSON document (trailing garbage is an error).
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let bytes = input.as_bytes();
        let mut pos = 0;
        let v = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return err(format!("trailing characters at byte {pos}"));
        }
        Ok(v)
    }
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), JsonError> {
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        err(format!("expected `{}` at byte {}", c as char, *pos))
    }
}

/// Deepest array/object nesting [`Json::parse`] accepts. The parser
/// recurses once per level, so an unbounded depth lets a few kilobytes of
/// `[` overflow the stack and abort the process; no manifest line,
/// report or recipe comes near this.
pub const MAX_DEPTH: usize = 128;

fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    skip_ws(b, pos);
    if matches!(b.get(*pos), Some(b'[' | b'{')) && depth >= MAX_DEPTH {
        return err(format!(
            "nesting deeper than {MAX_DEPTH} levels at byte {}",
            *pos
        ));
    }
    match b.get(*pos) {
        None => err("unexpected end of input"),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos, depth + 1)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return err(format!("expected `,` or `]` at byte {}", *pos)),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                skip_ws(b, pos);
                expect(b, pos, b':')?;
                let val = parse_value(b, pos, depth + 1)?;
                fields.push((key, val));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return err(format!("expected `,` or `}}` at byte {}", *pos)),
                }
            }
        }
        Some(c) if c.is_ascii_digit() || *c == b'-' => {
            let start = *pos;
            if b[*pos] == b'-' {
                *pos += 1;
            }
            while *pos < b.len()
                && (b[*pos].is_ascii_digit() || matches!(b[*pos], b'.' | b'e' | b'E' | b'+' | b'-'))
            {
                *pos += 1;
            }
            let token = std::str::from_utf8(&b[start..*pos])
                .map_err(|_| JsonError("non-utf8 number".into()))?;
            // Validate it parses as *some* number now, so garbage fails at
            // parse time instead of at first access.
            token
                .parse::<f64>()
                .map_err(|_| JsonError(format!("bad number `{token}`")))?;
            Ok(Json::Num(token.to_string()))
        }
        Some(c) => err(format!("unexpected `{}` at byte {}", *c as char, *pos)),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Json) -> Result<Json, JsonError> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        err(format!("bad literal at byte {}", *pos))
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return err("unterminated string"),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| JsonError("truncated \\u escape".into()))?;
                        let hex = std::str::from_utf8(hex)
                            .map_err(|_| JsonError("non-utf8 \\u escape".into()))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| JsonError(format!("bad \\u escape `{hex}`")))?;
                        out.push(
                            char::from_u32(code)
                                .ok_or_else(|| JsonError(format!("invalid codepoint {code}")))?,
                        );
                        *pos += 4;
                    }
                    _ => return err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (multi-byte sequences pass
                // through unescaped).
                let s = std::str::from_utf8(&b[*pos..])
                    .map_err(|_| JsonError("non-utf8 string".into()))?;
                let c = s.chars().next().expect("non-empty");
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

/// Encodes a [`SimReport`] (minus the host-only wall-clock profile, which
/// report equality ignores anyway).
pub fn report_to_json(r: &SimReport) -> Json {
    let commands = Json::Obj(
        r.commands
            .iter()
            .map(|(k, v)| (k.to_string(), Json::u64(v)))
            .collect(),
    );
    let flips = Json::Arr(
        r.flips
            .iter()
            .map(|bank| {
                Json::Arr(
                    bank.iter()
                        .map(|f| Json::Arr(vec![Json::u64(f.victim as u64), Json::u64(f.at_act)]))
                        .collect(),
                )
            })
            .collect(),
    );
    let (width, buckets, overflow, count, sum, max) = r.latency.to_parts();
    let latency = Json::Obj(vec![
        ("width".into(), Json::u64(width)),
        (
            "buckets".into(),
            Json::Arr(buckets.iter().map(|&b| Json::u64(b)).collect()),
        ),
        ("overflow".into(), Json::u64(overflow)),
        ("count".into(), Json::u64(count)),
        ("sum".into(), Json::u128(sum)),
        ("max".into(), Json::u64(max)),
    ]);
    Json::Obj(vec![
        ("scheme".into(), Json::str(&r.scheme)),
        ("cycles".into(), Json::u64(r.cycles)),
        (
            "core_names".into(),
            Json::Arr(r.core_names.iter().map(Json::str).collect()),
        ),
        (
            "completed".into(),
            Json::Arr(r.completed.iter().map(|&c| Json::u64(c)).collect()),
        ),
        ("commands".into(), commands),
        ("flips".into(), flips),
        (
            "channel_blocked_cycles".into(),
            Json::u64(r.channel_blocked_cycles),
        ),
        ("throttle_cycles".into(), Json::u64(r.throttle_cycles)),
        ("latency".into(), latency),
        ("abo_events".into(), Json::u64(r.abo_events)),
        (
            "abo_recovery_cycles".into(),
            Json::u64(r.abo_recovery_cycles),
        ),
        ("tracker_evictions".into(), Json::u64(r.tracker_evictions)),
        (
            "channel_busy_cycles".into(),
            Json::Arr(
                r.channel_busy_cycles
                    .iter()
                    .map(|&b| Json::u64(b))
                    .collect(),
            ),
        ),
        ("sched_passes".into(), Json::u64(r.sched_passes)),
        ("pass_cycles".into(), Json::u64(r.pass_cycles)),
        (
            "gate_rank_skips".into(),
            Json::Arr(r.gate_rank_skips.iter().map(|&s| Json::u64(s)).collect()),
        ),
        ("gate_bus_skips".into(), Json::u64(r.gate_bus_skips)),
    ])
}

/// Decodes a [`SimReport`] encoded by [`report_to_json`]. The decoded
/// report compares equal (`PartialEq`, which skips the profile) to the
/// original — the resume path's bit-identity rests on this round trip.
pub fn report_from_json(j: &Json) -> Result<SimReport, JsonError> {
    let mut commands = Counter::new();
    match j.field("commands")? {
        Json::Obj(fields) => {
            for (k, v) in fields {
                commands.add_interned(k, v.as_u64()?);
            }
        }
        _ => return err("`commands` must be an object"),
    }
    let flips = j
        .field("flips")?
        .as_arr()?
        .iter()
        .map(|bank| {
            bank.as_arr()?
                .iter()
                .map(|f| {
                    let pair = f.as_arr()?;
                    if pair.len() != 2 {
                        return err("flip must be a [victim, at_act] pair");
                    }
                    Ok(BitFlip {
                        victim: pair[0].as_u32()?,
                        at_act: pair[1].as_u64()?,
                    })
                })
                .collect::<Result<Vec<_>, _>>()
        })
        .collect::<Result<Vec<_>, _>>()?;
    let lat = j.field("latency")?;
    let latency = Histogram::from_parts(
        lat.field("width")?.as_u64()?,
        lat.field("buckets")?
            .as_arr()?
            .iter()
            .map(Json::as_u64)
            .collect::<Result<Vec<_>, _>>()?,
        lat.field("overflow")?.as_u64()?,
        lat.field("count")?.as_u64()?,
        lat.field("sum")?.as_u128()?,
        lat.field("max")?.as_u64()?,
    );
    Ok(SimReport {
        scheme: j.field("scheme")?.as_str()?.to_string(),
        cycles: j.field("cycles")?.as_u64()?,
        core_names: j
            .field("core_names")?
            .as_arr()?
            .iter()
            .map(|n| Ok(n.as_str()?.to_string()))
            .collect::<Result<Vec<_>, JsonError>>()?,
        completed: j
            .field("completed")?
            .as_arr()?
            .iter()
            .map(Json::as_u64)
            .collect::<Result<Vec<_>, _>>()?,
        commands,
        flips,
        channel_blocked_cycles: j.field("channel_blocked_cycles")?.as_u64()?,
        throttle_cycles: j.field("throttle_cycles")?.as_u64()?,
        latency,
        // PRAC-era fields, absent in checkpoints from before the schemes
        // existed; those manifests only hold non-ABO runs, where 0 is the
        // value the run would have reported anyway.
        abo_events: match j.field("abo_events") {
            Ok(v) => v.as_u64()?,
            Err(_) => 0,
        },
        abo_recovery_cycles: match j.field("abo_recovery_cycles") {
            Ok(v) => v.as_u64()?,
            Err(_) => 0,
        },
        tracker_evictions: match j.field("tracker_evictions") {
            Ok(v) => v.as_u64()?,
            Err(_) => 0,
        },
        // Absent in checkpoints written before the field existed; an empty
        // vector keeps those resumable (their cells re-run rather than
        // silently comparing unequal mid-sweep).
        channel_busy_cycles: match j.field("channel_busy_cycles") {
            Ok(v) => v
                .as_arr()?
                .iter()
                .map(Json::as_u64)
                .collect::<Result<Vec<_>, _>>()?,
            Err(_) => Vec::new(),
        },
        // Diagnostics, excluded from report equality; default 0 keeps
        // checkpoints from before the counters existed resumable.
        sched_passes: match j.field("sched_passes") {
            Ok(v) => v.as_u64()?,
            Err(_) => 0,
        },
        pass_cycles: match j.field("pass_cycles") {
            Ok(v) => v.as_u64()?,
            Err(_) => 0,
        },
        // Gate-skip diagnostics, absent in checkpoints from before the
        // hoisted gates existed; zero-defaults keep those resumable.
        gate_rank_skips: match j.field("gate_rank_skips") {
            Ok(v) => v
                .as_arr()?
                .iter()
                .map(Json::as_u64)
                .collect::<Result<Vec<_>, _>>()?,
            Err(_) => Vec::new(),
        },
        gate_bus_skips: match j.field("gate_bus_skips") {
            Ok(v) => v.as_u64()?,
            Err(_) => 0,
        },
        profile: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{try_timed_run, RunOptions, Scheme};
    use shadow_memsys::SystemConfig;

    fn report(cfg: SystemConfig, scheme: Scheme) -> SimReport {
        try_timed_run(cfg, "random-stream", scheme, RunOptions::default())
            .expect("cell runs")
            .report
    }

    #[test]
    fn scalar_round_trips() {
        for src in [
            "null",
            "true",
            "false",
            "0",
            "18446744073709551615",
            "340282366920938463463374607431768211455",
            "-3.5",
            "\"hi \\\"there\\\"\\n\"",
            "[1,2,[3]]",
            "{\"a\":1,\"b\":{\"c\":[]}}",
        ] {
            let v = Json::parse(src).unwrap_or_else(|e| panic!("{src}: {e}"));
            assert_eq!(Json::parse(&v.to_json()), Ok(v.clone()), "{src}");
        }
    }

    #[test]
    fn u64_and_u128_are_exact() {
        assert_eq!(Json::u64(u64::MAX).as_u64(), Ok(u64::MAX));
        assert_eq!(Json::u128(u128::MAX).as_u128(), Ok(u128::MAX));
    }

    #[test]
    fn malformed_inputs_error() {
        for src in ["", "{", "[1,", "\"open", "{\"a\" 1}", "tru", "1 2", "nan"] {
            assert!(Json::parse(src).is_err(), "`{src}` should not parse");
        }
    }

    #[test]
    fn deep_nesting_is_a_named_error_not_a_stack_overflow() {
        let nest = |open: &str, close: &str, n: usize| open.repeat(n) + &close.repeat(n);
        assert!(Json::parse(&nest("[", "]", MAX_DEPTH)).is_ok());
        for src in [
            nest("[", "]", MAX_DEPTH + 1),
            "[".repeat(100_000),
            "{\"a\":".repeat(100_000),
        ] {
            let e = Json::parse(&src).expect_err("too deep");
            assert!(e.0.contains("nesting deeper than 128"), "{e}");
        }
    }

    #[test]
    fn missing_field_is_a_named_error() {
        let v = Json::parse("{\"a\":1}").unwrap();
        let e = v.field("cycles").unwrap_err();
        assert!(e.to_string().contains("cycles"), "{e}");
    }

    #[test]
    fn report_round_trip_is_bit_identical() {
        let mut cfg = SystemConfig::tiny();
        cfg.target_requests = 300;
        // A scheme with flips and RFMs so every report field is non-trivial.
        let r = report(cfg, Scheme::Parfm);
        let encoded = report_to_json(&r).to_json();
        let decoded = report_from_json(&Json::parse(&encoded).expect("parses")).expect("decodes");
        assert_eq!(r, decoded);
    }

    #[test]
    fn prac_report_round_trips_abo_fields() {
        let mut cfg = SystemConfig::tiny();
        cfg.target_requests = 1_000;
        // The aggressive tiny threshold makes alerts certain, so the ABO
        // fields round-trip with non-trivial values.
        cfg.rh = shadow_rh::RhParams::new(16, 1);
        let r = report(cfg, Scheme::Practical);
        assert!(r.abo_events > 0, "cell produced no alerts to round-trip");
        assert!(r.abo_recovery_cycles > 0);
        let decoded =
            report_from_json(&Json::parse(&report_to_json(&r).to_json()).expect("parses"))
                .expect("decodes");
        assert_eq!(r, decoded);
        assert_eq!(decoded.abo_events, r.abo_events);
        assert_eq!(decoded.abo_recovery_cycles, r.abo_recovery_cycles);
        assert_eq!(decoded.tracker_evictions, r.tracker_evictions);
    }

    #[test]
    fn pre_prac_checkpoints_decode_with_zero_abo_fields() {
        let mut cfg = SystemConfig::tiny();
        cfg.target_requests = 300;
        let r = report(cfg, Scheme::Baseline);
        // Strip the PRAC-era fields, emulating a manifest written before
        // they existed.
        let Json::Obj(fields) = report_to_json(&r) else {
            panic!("report encodes as an object");
        };
        let legacy = Json::Obj(
            fields
                .into_iter()
                .filter(|(k, _)| {
                    !matches!(
                        k.as_str(),
                        "abo_events" | "abo_recovery_cycles" | "tracker_evictions"
                    )
                })
                .collect(),
        );
        let decoded = report_from_json(&legacy).expect("legacy manifest decodes");
        assert_eq!(decoded.abo_events, 0);
        assert_eq!(decoded.abo_recovery_cycles, 0);
        assert_eq!(decoded.tracker_evictions, 0);
        // A baseline run reports zeros anyway, so equality still holds.
        assert_eq!(r, decoded);
    }

    #[test]
    fn gate_skip_counters_round_trip_and_zero_default() {
        let mut cfg = SystemConfig::tiny();
        cfg.target_requests = 300;
        let r = report(cfg, Scheme::Baseline);
        assert!(
            !r.gate_rank_skips.is_empty(),
            "a run reports one rank-skip counter per rank"
        );
        let decoded =
            report_from_json(&Json::parse(&report_to_json(&r).to_json()).expect("parses"))
                .expect("decodes");
        assert_eq!(decoded.gate_rank_skips, r.gate_rank_skips);
        assert_eq!(decoded.gate_bus_skips, r.gate_bus_skips);
        // A manifest from before the hoisted gates existed decodes with
        // zero-default counters (and still compares equal — the counters
        // are engine diagnostics outside report equality).
        let Json::Obj(fields) = report_to_json(&r) else {
            panic!("report encodes as an object");
        };
        let legacy = Json::Obj(
            fields
                .into_iter()
                .filter(|(k, _)| !matches!(k.as_str(), "gate_rank_skips" | "gate_bus_skips"))
                .collect(),
        );
        let decoded = report_from_json(&legacy).expect("legacy manifest decodes");
        assert!(decoded.gate_rank_skips.is_empty());
        assert_eq!(decoded.gate_bus_skips, 0);
        assert_eq!(r, decoded);
    }
}
