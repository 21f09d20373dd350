//! `BENCHMARK.json`: parsing and the self-check (`check-manifest`).
//!
//! The check mirrors the contract the manifest is held to: exactly six
//! top-level keys, names and units from a fixed alphabet, 2–8 workloads,
//! 1–16 end-to-end metrics with a `setup_s` among them and bounds of at
//! most 0.25, 1–128 per-layer metrics, a whole `run_seconds` of 1–60, a
//! command that stays inside `paths`. On top of that it compares the
//! manifest with the tables in [`crate::metrics`] and
//! [`crate::workloads`], so a metric a workload prints but the manifest
//! does not declare (or the reverse) is caught before a single run.
//! Every error names the offending key.

use std::collections::BTreeSet;
use std::path::Path;

use obs::json::Value;

use crate::metrics::{MetricDef, END_TO_END, PER_LAYER};
use crate::workloads::Workload;

/// The largest manifest accepted, bytes.
pub const MAX_MANIFEST_BYTES: usize = 64 * 1024;
/// The largest regression bound a metric may carry.
pub const MAX_BOUND: f64 = 0.25;

/// One end-to-end metric as declared.
#[derive(Debug, Clone, PartialEq)]
pub struct Declared {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// `lower` or `higher`.
    pub better: String,
    /// Share of the parent's median the metric may worsen by (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

/// A validated manifest.
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    /// The benchmark command.
    pub command: Vec<String>,
    /// Directories that hold the benchmark.
    pub paths: Vec<String>,
    /// Seconds one run measures.
    pub run_seconds: u64,
    /// Workload names.
    pub workloads: Vec<String>,
    /// End-to-end metrics.
    pub end_to_end: Vec<Declared>,
    /// Per-layer metrics.
    pub per_layer: Vec<Declared>,
}

/// Whether `s` is a legal workload or metric name.
pub fn is_name(s: &str) -> bool {
    (1..=64).contains(&s.len())
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

/// Whether `s` is a legal unit.
pub fn is_unit(s: &str) -> bool {
    (1..=16).contains(&s.len())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

fn is_path(s: &str) -> bool {
    (1..=200).contains(&s.len())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-/".contains(c))
        && !s.starts_with('/')
        && !s.split('/').any(|part| part == "..")
}

fn keys_exactly(v: &Value, at: &str, want: &[&str]) -> Result<(), String> {
    let Value::Obj(map) = v else {
        return Err(format!("{at}: expected an object"));
    };
    for key in want {
        if !map.contains_key(*key) {
            return Err(format!("{at}: missing key {key:?}"));
        }
    }
    for key in map.keys() {
        if !want.contains(&key.as_str()) {
            return Err(format!("{at}: unexpected key {key:?}"));
        }
    }
    Ok(())
}

fn string(v: &Value, at: &str) -> Result<String, String> {
    v.as_str()
        .map(str::to_string)
        .ok_or_else(|| format!("{at}: expected a string"))
}

/// The string member `key` of object `v`, whose presence `keys_exactly`
/// has already checked.
fn member(v: &Value, at: &str, key: &str) -> Result<String, String> {
    string(v.get(key).unwrap_or(&Value::Null), &format!("{at}.{key}"))
}

fn array<'a>(v: &'a Value, at: &str, min: usize, max: usize) -> Result<&'a [Value], String> {
    let items = v
        .as_arr()
        .ok_or_else(|| format!("{at}: expected an array"))?;
    if !(min..=max).contains(&items.len()) {
        return Err(format!(
            "{at}: has {} entries, allowed are {min} to {max}",
            items.len()
        ));
    }
    Ok(items)
}

fn metric(v: &Value, at: &str, with_bound: bool) -> Result<Declared, String> {
    let keys: &[&str] = if with_bound {
        &["name", "unit", "better", "bound"]
    } else {
        &["name", "unit", "better"]
    };
    keys_exactly(v, at, keys)?;
    let name = member(v, at, "name")?;
    if !is_name(&name) {
        return Err(format!("{at}.name: {name:?} is not a legal name"));
    }
    let at = format!("{at} ({name})");
    let unit = member(v, &at, "unit")?;
    if !is_unit(&unit) {
        return Err(format!("{at}.unit: {unit:?} is not a legal unit"));
    }
    let better = member(v, &at, "better")?;
    if better != "lower" && better != "higher" {
        return Err(format!(
            "{at}.better: {better:?} is neither \"lower\" nor \"higher\""
        ));
    }
    let bound = if with_bound {
        let b = v
            .get("bound")
            .and_then(Value::as_num)
            .ok_or_else(|| format!("{at}.bound: expected a number"))?;
        if !(b > 0.0 && b <= MAX_BOUND) {
            return Err(format!("{at}.bound: {b} is outside (0, {MAX_BOUND}]"));
        }
        Some(b)
    } else {
        None
    };
    Ok(Declared {
        name,
        unit,
        better,
        bound,
    })
}

/// Parses and validates manifest text against the contract's schema.
/// Does not touch the file system and does not know this benchmark's
/// metric tables; see [`check`] for those.
pub fn parse(text: &str) -> Result<Manifest, String> {
    if text.len() > MAX_MANIFEST_BYTES {
        return Err(format!(
            "manifest: {} bytes, allowed are {MAX_MANIFEST_BYTES}",
            text.len()
        ));
    }
    let doc = obs::json::parse(text).map_err(|e| format!("manifest: not JSON: {e}"))?;
    keys_exactly(
        &doc,
        "manifest",
        &[
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer",
        ],
    )?;
    let field = |key: &str| doc.get(key).expect("presence checked by keys_exactly");

    let mut paths = Vec::new();
    for (i, p) in array(field("paths"), "paths", 1, 16)?.iter().enumerate() {
        let p = string(p, &format!("paths[{i}]"))?;
        if !is_path(&p) {
            return Err(format!(
                "paths[{i}]: {p:?} is not a relative path of legal characters"
            ));
        }
        paths.push(p);
    }

    let mut command = Vec::new();
    for (i, arg) in array(field("command"), "command", 1, 32)?
        .iter()
        .enumerate()
    {
        let arg = string(arg, &format!("command[{i}]"))?;
        if arg.is_empty() || arg.len() > 200 {
            return Err(format!(
                "command[{i}]: length {} is outside 1 to 200",
                arg.len()
            ));
        }
        if arg.starts_with('/') || arg.split('/').any(|part| part == "..") {
            return Err(format!(
                "command[{i}]: {arg:?} is absolute or leaves the repo"
            ));
        }
        let inside = |p: &String| {
            let p = p.trim_end_matches('/');
            arg == p || arg.starts_with(&format!("{p}/"))
        };
        if arg.contains('/') && !paths.iter().any(inside) {
            return Err(format!(
                "command[{i}]: {arg:?} names a file outside `paths`"
            ));
        }
        command.push(arg);
    }

    let run_seconds = field("run_seconds")
        .as_num()
        .filter(|s| s.fract() == 0.0 && (1.0..=60.0).contains(s))
        .ok_or("run_seconds: expected a whole number from 1 to 60")? as u64;

    let mut names = BTreeSet::new();
    let mut unique = |name: &str, at: &str| {
        if names.insert(name.to_string()) {
            Ok(())
        } else {
            Err(format!("{at}: name {name:?} is used twice"))
        }
    };

    let mut workloads = Vec::new();
    for (i, w) in array(field("workloads"), "workloads", 2, 8)?
        .iter()
        .enumerate()
    {
        let at = format!("workloads[{i}]");
        keys_exactly(w, &at, &["name", "why"])?;
        let name = member(w, &at, "name")?;
        if !is_name(&name) {
            return Err(format!("{at}.name: {name:?} is not a legal name"));
        }
        let why = member(w, &at, "why")?;
        if why.is_empty() || why.len() > 200 || why.contains('\n') {
            return Err(format!("{at}.why: must be one line of 1 to 200 characters"));
        }
        unique(&name, &at)?;
        workloads.push(name);
    }

    let mut end_to_end = Vec::new();
    for (i, m) in array(field("end_to_end"), "end_to_end", 1, 16)?
        .iter()
        .enumerate()
    {
        let at = format!("end_to_end[{i}]");
        let m = metric(m, &at, true)?;
        unique(&m.name, &at)?;
        end_to_end.push(m);
    }
    match end_to_end.iter().find(|m| m.name == "setup_s") {
        Some(m) if m.unit == "s" && m.better == "lower" => {}
        Some(_) => {
            return Err("end_to_end (setup_s): must have unit \"s\" and better \"lower\"".into())
        }
        None => return Err("end_to_end: no metric named \"setup_s\"".into()),
    }

    let mut per_layer = Vec::new();
    for (i, m) in array(field("per_layer"), "per_layer", 1, 128)?
        .iter()
        .enumerate()
    {
        let at = format!("per_layer[{i}]");
        let m = metric(m, &at, false)?;
        unique(&m.name, &at)?;
        per_layer.push(m);
    }

    Ok(Manifest {
        command,
        paths,
        run_seconds,
        workloads,
        end_to_end,
        per_layer,
    })
}

fn same_metrics(at: &str, declared: &[Declared], defs: &[MetricDef]) -> Result<(), String> {
    for d in defs {
        match declared.iter().find(|m| m.name == d.name) {
            None => {
                return Err(format!(
                    "{at}: the benchmark reports {:?}, which is not declared",
                    d.name
                ))
            }
            Some(m) if m.unit != d.unit || m.better != d.better => {
                return Err(format!(
                    "{at} ({}): declared {}/{}, the benchmark reports {}/{}",
                    d.name, m.unit, m.better, d.unit, d.better
                ))
            }
            Some(_) => {}
        }
    }
    for m in declared {
        if !defs.iter().any(|d| d.name == m.name) {
            return Err(format!(
                "{at} ({}): declared, but no workload reports it",
                m.name
            ));
        }
    }
    Ok(())
}

/// Validates the schema and then checks the manifest against this
/// binary: workloads, metric tables, and that every `paths` entry is a
/// directory under `root`.
pub fn check(text: &str, root: &Path) -> Result<Manifest, String> {
    let m = parse(text)?;
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    for w in &ours {
        if !m.workloads.iter().any(|d| d == w) {
            return Err(format!(
                "workloads: the benchmark has {w:?}, which is not declared"
            ));
        }
    }
    for w in &m.workloads {
        if !ours.contains(&w.as_str()) {
            return Err(format!(
                "workloads ({w}): declared, but the benchmark has no such workload"
            ));
        }
    }
    same_metrics("end_to_end", &m.end_to_end, END_TO_END)?;
    same_metrics("per_layer", &m.per_layer, PER_LAYER)?;
    for (i, p) in m.paths.iter().enumerate() {
        if !root.join(p).is_dir() {
            return Err(format!("paths[{i}]: {p:?} is not a directory"));
        }
    }
    Ok(m)
}

/// Reads and checks `<root>/BENCHMARK.json`.
pub fn load(root: &Path) -> Result<Manifest, String> {
    let path = root.join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    check(&text, root)
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = r#"{
      "command": ["bash", "benchmark/run.sh"],
      "paths": ["benchmark"],
      "run_seconds": 10,
      "workloads": [
        {"name": "hit", "why": "repeated keys"},
        {"name": "miss", "why": "distinct keys"}
      ],
      "end_to_end": [
        {"name": "latency_ms", "unit": "ms", "better": "lower", "bound": 0.1},
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}
      ],
      "per_layer": [
        {"name": "cache_hits", "unit": "count", "better": "higher"}
      ]
    }"#;

    fn rejects(edit: impl Fn(&str) -> String, needle: &str) {
        let text = edit(GOOD);
        assert_ne!(text, GOOD, "the edit for {needle:?} changed nothing");
        let err = parse(&text).expect_err(needle);
        assert!(err.contains(needle), "wanted {needle:?} in {err:?}");
    }

    #[test]
    fn the_contract_example_parses() {
        let m = parse(GOOD).expect("valid");
        assert_eq!(m.run_seconds, 10);
        assert_eq!(m.end_to_end[0].bound, Some(0.1));
        assert_eq!(m.workloads, ["hit", "miss"]);
    }

    #[test]
    fn each_class_of_malformed_manifest_is_rejected_with_its_key() {
        rejects(
            |g| g.replace("\"run_seconds\": 10,", ""),
            "missing key \"run_seconds\"",
        );
        rejects(
            |g| g.replace("\"run_seconds\": 10,", "\"run_seconds\": 10, \"extra\": 1,"),
            "unexpected key \"extra\"",
        );
        rejects(
            |g| g.replace("\"run_seconds\": 10", "\"run_seconds\": 61"),
            "run_seconds",
        );
        rejects(
            |g| g.replace("\"run_seconds\": 10", "\"run_seconds\": 2.5"),
            "run_seconds",
        );
        rejects(|g| g.replace("\"hit\"", "\"-hit\""), "workloads[0].name");
        rejects(|g| g.replace("\"hit\"", "\"h it\""), "workloads[0].name");
        rejects(|g| g.replace("\"miss\"", "\"hit\""), "used twice");
        rejects(
            |g| g.replace("\"cache_hits\"", "\"latency_ms\""),
            "used twice",
        );
        rejects(
            |g| g.replace("{\"name\": \"miss\", \"why\": \"distinct keys\"}", ""),
            "not JSON",
        );
        rejects(
            |g| {
                g.replace(
                    ",\n        {\"name\": \"miss\", \"why\": \"distinct keys\"}",
                    "",
                )
            },
            "workloads: has 1 entries",
        );
        rejects(
            |g| g.replace("\"why\": \"repeated keys\"", "\"why\": \"\""),
            "workloads[0].why",
        );
        rejects(
            |g| g.replace("\"unit\": \"ms\"", "\"unit\": \"m s\""),
            "end_to_end[0] (latency_ms).unit",
        );
        rejects(
            |g| g.replace("\"bound\": 0.1", "\"bound\": 0.3"),
            "end_to_end[0] (latency_ms).bound",
        );
        rejects(
            |g| g.replace(", \"bound\": 0.1", ""),
            "missing key \"bound\"",
        );
        rejects(
            |g| g.replace("\"better\": \"higher\"", "\"better\": \"more\""),
            "per_layer[0] (cache_hits).better",
        );
        rejects(
            |g| {
                g.replace(
                    "\"better\": \"higher\"}",
                    "\"better\": \"higher\", \"bound\": 0.1}",
                )
            },
            "unexpected key \"bound\"",
        );
        rejects(
            |g| g.replace("\"setup_s\"", "\"set_up_s\""),
            "no metric named \"setup_s\"",
        );
        rejects(
            |g| g.replace("\"unit\": \"s\"", "\"unit\": \"ms\""),
            "setup_s",
        );
        rejects(
            |g| g.replace("[\"benchmark\"]", "[\"../benchmark\"]"),
            "paths[0]",
        );
        rejects(
            |g| g.replace("[\"benchmark\"]", "[\"/benchmark\"]"),
            "paths[0]",
        );
        rejects(
            |g| g.replace("[\"benchmark\"]", "[]"),
            "paths: has 0 entries",
        );
        rejects(
            |g| g.replace("benchmark/run.sh", "scripts/verify.sh"),
            "command[1]",
        );
        rejects(
            |g| g.replace("benchmark/run.sh", "/usr/bin/env"),
            "command[1]",
        );
        let many: String = (0..129)
            .map(|i| format!("{{\"name\": \"m{i}\", \"unit\": \"count\", \"better\": \"lower\"}}"))
            .collect::<Vec<_>>()
            .join(",");
        rejects(
            |g| {
                g.replace(
                    "{\"name\": \"cache_hits\", \"unit\": \"count\", \"better\": \"higher\"}",
                    &many,
                )
            },
            "per_layer: has 129 entries",
        );
    }

    #[test]
    fn the_check_compares_the_manifest_with_the_binary() {
        // The contract example is schema-valid but describes another benchmark.
        let err = check(GOOD, Path::new(".")).expect_err("foreign manifest");
        assert!(err.contains("exec_batch"), "{err}");
    }

    #[test]
    fn the_committed_manifest_passes() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
        let m = load(&root).expect("BENCHMARK.json passes check-manifest");
        assert_eq!(m.paths, ["benchmark"]);
        assert_eq!(m.workloads.len(), Workload::ALL.len());
    }
}
