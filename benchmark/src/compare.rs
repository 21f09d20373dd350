//! `result.json` files: writing them (`all`), reading them back, and
//! comparing two of them metric by metric against the manifest's bounds.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use obs::json::Value;

use crate::manifest::Manifest;
use crate::report::metrics_json;
use crate::stats;

/// Per-layer counts that must repeat exactly between two runs of the
/// same code; `compare` flags any difference.
pub const EXACT: [&str; 7] = [
    "archsim.sim_instructions",
    "archsim.counters_digest",
    "engines.jit.final_ops",
    "engines.jit.op_visits",
    "engines.jit.code_bytes",
    "engines.aot.artifact_bytes",
    "wacc.module_bytes",
];

/// One run as recorded in a result file.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRow {
    /// Workload name.
    pub workload: String,
    /// 0 = untraced (end-to-end metrics), 1 = traced (per-layer).
    pub trace: u8,
    /// Seed the run used.
    pub seed: u64,
    /// Which repetition of the set this run belongs to.
    pub repeat: usize,
    /// The run's own verdict.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// What the run reported.
    pub metrics: Metrics,
}

/// Metric name → (value, unit).
pub type Metrics = BTreeMap<String, (f64, String)>;

/// Reads the `metrics` object of a result line or of a run row.
fn parse_metrics(owner: &Value) -> Result<Metrics, String> {
    let Some(Value::Obj(map)) = owner.get("metrics") else {
        return Err("no \"metrics\" object".into());
    };
    map.iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(Value::as_num);
            let unit = m.get("unit").and_then(Value::as_str);
            match (value, unit) {
                (Some(value), Some(unit)) => Ok((name.clone(), (value, unit.to_string()))),
                _ => Err(format!("metric {name:?} lacks value or unit")),
            }
        })
        .collect()
}

/// Parses the one-line JSON object a run ends its output with.
pub fn parse_final_line(line: &str) -> Result<(bool, u64, u64, Metrics), String> {
    let v = obs::json::parse(line).map_err(|e| format!("result line is not JSON: {e}"))?;
    let correct = matches!(v.get("correct"), Some(Value::Bool(true)));
    let count = |key: &str| {
        v.get(key)
            .and_then(Value::as_num)
            .map(|n| n as u64)
            .ok_or_else(|| format!("result line: no {key:?}"))
    };
    Ok((
        correct,
        count("attempted")?,
        count("failed")?,
        parse_metrics(&v)?,
    ))
}

/// Median and quartiles of one metric on one workload over the runs of
/// a result file.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Workload name.
    pub workload: String,
    /// 0 or 1.
    pub trace: u8,
    /// Metric name.
    pub metric: String,
    /// Unit.
    pub unit: String,
    /// The values, one per run.
    pub values: Vec<f64>,
}

impl Summary {
    /// Median over the runs.
    pub fn median(&self) -> f64 {
        stats::median(&self.values)
    }
    /// Inter-quartile range as a share of the median.
    pub fn spread(&self) -> f64 {
        stats::spread(&self.values)
    }
}

/// Groups runs by (workload, trace, metric), in first-seen workload order.
pub fn summarize(runs: &[RunRow]) -> Vec<Summary> {
    let mut out: Vec<Summary> = Vec::new();
    for run in runs {
        for (metric, (value, unit)) in &run.metrics {
            match out
                .iter_mut()
                .find(|s| s.workload == run.workload && s.trace == run.trace && s.metric == *metric)
            {
                Some(s) => s.values.push(*value),
                None => out.push(Summary {
                    workload: run.workload.clone(),
                    trace: run.trace,
                    metric: metric.clone(),
                    unit: unit.clone(),
                    values: vec![*value],
                }),
            }
        }
    }
    out
}

/// Renders a result file: the settings, every run, and the summary.
pub fn result_json(settings: &[(&str, f64)], runs: &[RunRow]) -> String {
    let mut s = String::from("{\n  \"schema\": \"wabench-benchmark-result v1\",\n");
    for (k, v) in settings {
        let _ = writeln!(s, "  \"{k}\": {v},");
    }
    let rows: Vec<String> = runs
        .iter()
        .map(|r| {
            format!(
                "    {{\"workload\": \"{}\", \"trace\": {}, \"seed\": {}, \"repeat\": {}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
                r.workload,
                r.trace,
                r.seed,
                r.repeat,
                r.correct,
                r.attempted,
                r.failed,
                metrics_json(r.metrics.iter().map(|(name, (value, unit))| (name.as_str(), *value, unit.as_str())))
            )
        })
        .collect();
    let _ = writeln!(s, "  \"runs\": [\n{}\n  ],", rows.join(",\n"));
    let summary: Vec<String> = summarize(runs)
        .iter()
        .map(|m| {
            let [q1, q2, q3] = stats::quartiles(&m.values);
            format!(
                "    {{\"workload\": \"{}\", \"trace\": {}, \"metric\": \"{}\", \"unit\": \"{}\", \"n\": {}, \"median\": {q2}, \"q1\": {q1}, \"q3\": {q3}, \"spread\": {}}}",
                m.workload, m.trace, m.metric, m.unit, m.values.len(), m.spread()
            )
        })
        .collect();
    let _ = writeln!(s, "  \"summary\": [\n{}\n  ]\n}}", summary.join(",\n"));
    s
}

/// Reads the runs of a result file back.
pub fn parse_result(text: &str) -> Result<Vec<RunRow>, String> {
    let doc = obs::json::parse(text).map_err(|e| format!("not JSON: {e}"))?;
    let runs = doc
        .get("runs")
        .and_then(Value::as_arr)
        .ok_or("no \"runs\" array")?;
    runs.iter()
        .map(|r| {
            let num = |key: &str| {
                r.get(key)
                    .and_then(Value::as_num)
                    .ok_or_else(|| format!("run without {key:?}"))
            };
            Ok(RunRow {
                workload: r
                    .get("workload")
                    .and_then(Value::as_str)
                    .ok_or("run without \"workload\"")?
                    .to_string(),
                trace: num("trace")? as u8,
                seed: num("seed")? as u64,
                repeat: num("repeat")? as usize,
                correct: matches!(r.get("correct"), Some(Value::Bool(true))),
                attempted: num("attempted")? as u64,
                failed: num("failed")? as u64,
                metrics: parse_metrics(r)?,
            })
        })
        .collect()
}

/// The verdict on one (metric, workload) row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowVerdict {
    /// B's median is no worse than A's by more than the bound.
    Ok,
    /// B's median is worse than A's by more than the bound.
    Regressed,
    /// Either side's run-to-run spread exceeds the bound, so the
    /// comparison cannot tell.
    Unresolved,
    /// A count that must repeat exactly differs.
    Differs,
}

/// How much worse B is than A as a share of A, in the metric's bad direction.
pub fn worsening(a: f64, b: f64, better: &str) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    match better {
        "higher" => (a - b) / a.abs(),
        _ => (b - a) / a.abs(),
    }
}

/// Judges one end-to-end row.
pub fn judge(a: &Summary, b: &Summary, better: &str, bound: f64) -> RowVerdict {
    if a.spread().max(b.spread()) > bound {
        RowVerdict::Unresolved
    } else if worsening(a.median(), b.median(), better) > bound {
        RowVerdict::Regressed
    } else {
        RowVerdict::Ok
    }
}

/// Compares two sets of runs row by row. Returns the table and whether
/// every row is `ok`.
pub fn compare(a: &[RunRow], b: &[RunRow], manifest: &Manifest) -> (String, bool) {
    let (sa, sb) = (summarize(a), summarize(b));
    let mut out = format!(
        "{:<14} {:<36} {:>14} {:>14} {:>9} {:>7} {:>8} {:>8}  verdict\n",
        "workload", "metric", "A median", "B median", "B/A", "bound", "A spread", "B spread"
    );
    let mut all_ok = true;
    for ra in &sa {
        let Some(rb) = sb
            .iter()
            .find(|r| r.workload == ra.workload && r.trace == ra.trace && r.metric == ra.metric)
        else {
            continue;
        };
        let declared = manifest.end_to_end.iter().find(|d| d.name == ra.metric);
        let (bound, verdict) = match declared {
            Some(d) if ra.trace == 0 => {
                let bound = d.bound.unwrap_or(0.0);
                (format!("{bound}"), Some(judge(ra, rb, &d.better, bound)))
            }
            _ if EXACT.contains(&ra.metric.as_str()) => (
                "exact".to_string(),
                Some(
                    if ra
                        .values
                        .iter()
                        .chain(&rb.values)
                        .all(|v| *v == ra.values[0])
                    {
                        RowVerdict::Ok
                    } else {
                        RowVerdict::Differs
                    },
                ),
            ),
            _ => ("-".to_string(), None),
        };
        all_ok &= matches!(verdict, None | Some(RowVerdict::Ok));
        let ratio = if ra.median() == 0.0 {
            0.0
        } else {
            rb.median() / ra.median()
        };
        let _ = writeln!(
            out,
            "{:<14} {:<36} {:>14.6} {:>14.6} {:>9.4} {:>7} {:>8.4} {:>8.4}  {}",
            ra.workload,
            format!("{} [{}]", ra.metric, ra.unit),
            ra.median(),
            rb.median(),
            ratio,
            bound,
            ra.spread(),
            rb.spread(),
            match verdict {
                Some(RowVerdict::Ok) => "ok",
                Some(RowVerdict::Regressed) => "regressed",
                Some(RowVerdict::Unresolved) => "unresolved",
                Some(RowVerdict::Differs) => "differs",
                None => "",
            }
        );
    }
    for side in [a, b] {
        for r in side.iter().filter(|r| !r.correct) {
            all_ok = false;
            let _ = writeln!(
                out,
                "{}: a run was not correct ({} of {} failed)",
                r.workload, r.failed, r.attempted
            );
        }
    }
    (out, all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(values: &[f64]) -> Summary {
        Summary {
            workload: "w".into(),
            trace: 0,
            metric: "m".into(),
            unit: "ms".into(),
            values: values.to_vec(),
        }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let a = summary(&[100.0, 101.0, 99.0, 100.0, 100.5]);
        assert_eq!(
            judge(
                &a,
                &summary(&[104.0, 104.5, 103.5, 104.0, 104.2]),
                "lower",
                0.05
            ),
            RowVerdict::Ok
        );
        assert_eq!(
            judge(
                &a,
                &summary(&[107.0, 107.5, 106.5, 107.0, 107.2]),
                "lower",
                0.05
            ),
            RowVerdict::Regressed
        );
        // Lower is a gain when lower is better, a loss when higher is.
        assert_eq!(
            judge(&a, &summary(&[90.0, 90.5, 89.5, 90.0, 90.2]), "lower", 0.05),
            RowVerdict::Ok
        );
        assert_eq!(
            judge(
                &a,
                &summary(&[90.0, 90.5, 89.5, 90.0, 90.2]),
                "higher",
                0.05
            ),
            RowVerdict::Regressed
        );
        // A side noisier than the bound cannot be judged.
        assert_eq!(
            judge(
                &a,
                &summary(&[90.0, 110.0, 100.0, 120.0, 80.0]),
                "lower",
                0.05
            ),
            RowVerdict::Unresolved
        );
        assert!((worsening(200.0, 150.0, "higher") - 0.25).abs() < 1e-12);
    }

    #[test]
    fn result_files_round_trip() {
        let (correct, attempted, failed, metrics) = parse_final_line(
            r#"{"correct": true, "attempted": 10, "failed": 0, "metrics": {"setup_s": {"value": 0.5, "unit": "s"}}}"#,
        )
        .expect("parses");
        assert!(correct && attempted == 10 && failed == 0);
        let runs = vec![RunRow {
            workload: "exec_batch".into(),
            trace: 0,
            seed: 12,
            repeat: 1,
            correct,
            attempted,
            failed,
            metrics,
        }];
        let text = result_json(&[("seed", 12.0)], &runs);
        assert_eq!(parse_result(&text).expect("own file parses"), runs);
        assert!(parse_final_line("{}").is_err());
    }
}
