//! What a run is given, what it produces, and how that is printed and
//! written to `benchmark/out/`.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use obs::json::escape;

use crate::analyze::{CellRow, Verdict};
use crate::metrics::{MetricDef, Values, END_TO_END, PER_LAYER};
use crate::trace::{SelfTime, LAYERS};
use crate::workloads::Workload;

/// Arguments of one run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Which workload.
    pub workload: Workload,
    /// Seed for job order, arrivals and trace ids.
    pub seed: u64,
    /// Seconds to measure.
    pub seconds: f64,
    /// Traced run (per-layer metrics) or untraced (end-to-end metrics).
    pub trace: bool,
    /// The `wabench-served` binary.
    pub served: PathBuf,
    /// Directory for result files, traces and scratch space. Relative,
    /// so the socket paths under it stay short.
    pub out: PathBuf,
}

impl RunArgs {
    /// A scratch directory unique to this process and `tag`.
    pub fn scratch(&self, tag: &str) -> PathBuf {
        self.out.join(format!("tmp-{}-{tag}", std::process::id()))
    }
}

/// What a run produced.
#[derive(Debug)]
pub struct Outcome {
    /// Attempted/failed counts and the first failures.
    pub verdict: Verdict,
    /// End-to-end values (untraced run) or per-layer values (traced run).
    pub values: Values,
    /// Facts about the run that are not metrics: rounds, job counts,
    /// frozen rates, sample counts.
    pub facts: Vec<(&'static str, f64)>,
    /// Per-cell table.
    pub rows: Vec<CellRow>,
    /// Self-time table (traced run).
    pub table: Option<SelfTime>,
}

/// Cores available to the benchmark.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The metric table a run of this kind must fill.
pub fn defs(trace: bool) -> &'static [MetricDef] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// A `metrics` object: `{"name": {"value": v, "unit": "u"}, …}`.
pub fn metrics_json<'a>(metrics: impl Iterator<Item = (&'a str, f64, &'a str)>) -> String {
    let fields: Vec<String> = metrics
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                num(value)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn declared_json(defs: &[MetricDef], values: &Values) -> String {
    metrics_json(defs.iter().map(|d| (d.name, values[d.name], d.unit)))
}

/// The one-line JSON object that ends a run's standard output.
pub fn final_line(args: &RunArgs, outcome: &Outcome) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.verdict.failed == 0,
        outcome.verdict.attempted.max(1),
        outcome.verdict.failed,
        declared_json(defs(args.trace), &outcome.values)
    )
}

/// Prints every metric as `name value unit`, then the self-time table.
pub fn print_human(args: &RunArgs, outcome: &Outcome) {
    println!(
        "# {} seed={} seconds={} trace={} nproc={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        nproc()
    );
    for (name, value) in &outcome.facts {
        println!("# {name} = {}", num(*value));
    }
    for d in defs(args.trace) {
        println!("{} {} {}", d.name, num(outcome.values[d.name]), d.unit);
    }
    if let Some(table) = &outcome.table {
        print!("{}", table.render(args.workload.name()));
    }
    println!(
        "attempted {} failed {} failed_share {}",
        outcome.verdict.attempted,
        outcome.verdict.failed,
        num(outcome.verdict.failed as f64 / outcome.verdict.attempted.max(1) as f64)
    );
    for p in &outcome.verdict.problems {
        eprintln!("FAILED: {p}");
    }
}

/// Validates `trace` the way `wabench-trace-check` does and writes it to
/// `trace_<workload>.json` in the output directory.
pub fn write_chrome_trace(args: &RunArgs, trace: &obs::trace::Trace) -> Result<(), String> {
    let chrome = obs::chrome::export_string(trace);
    obs::chrome::validate(&chrome).map_err(|e| format!("own Chrome trace is invalid: {e}"))?;
    let path = args
        .out
        .join(format!("trace_{}.json", args.workload.name()));
    std::fs::write(&path, chrome).map_err(|e| format!("{}: {e}", path.display()))
}

/// Path of the result file of a run.
pub fn result_path(out: &Path, workload: Workload, trace: bool) -> PathBuf {
    out.join(format!("run_{}_t{}.json", workload.name(), u8::from(trace)))
}

/// The full record of a run as a JSON document.
pub fn run_json(args: &RunArgs, outcome: &Outcome) -> String {
    let mut s = String::from("{\n");
    let _ = writeln!(s, "  \"schema\": \"wabench-benchmark-run v1\",");
    let _ = writeln!(s, "  \"workload\": \"{}\",", args.workload.name());
    let _ = writeln!(s, "  \"seed\": {},", args.seed);
    let _ = writeln!(s, "  \"seconds\": {},", num(args.seconds));
    let _ = writeln!(s, "  \"trace\": {},", u8::from(args.trace));
    let _ = writeln!(s, "  \"nproc\": {},", nproc());
    let _ = writeln!(s, "  \"correct\": {},", outcome.verdict.failed == 0);
    let _ = writeln!(s, "  \"attempted\": {},", outcome.verdict.attempted);
    let _ = writeln!(s, "  \"failed\": {},", outcome.verdict.failed);
    let problems: Vec<String> = outcome
        .verdict
        .problems
        .iter()
        .map(|p| format!("\"{}\"", escape(p)))
        .collect();
    let _ = writeln!(s, "  \"problems\": [{}],", problems.join(", "));
    let facts: Vec<String> = outcome
        .facts
        .iter()
        .map(|(k, v)| format!("\"{k}\": {}", num(*v)))
        .collect();
    let _ = writeln!(s, "  \"facts\": {{{}}},", facts.join(", "));
    let _ = writeln!(
        s,
        "  \"metrics\": {},",
        declared_json(defs(args.trace), &outcome.values)
    );
    if let Some(t) = &outcome.table {
        let row = |xs: &[f64; 6]| {
            let fields: Vec<String> = LAYERS
                .iter()
                .zip(xs)
                .map(|(l, x)| format!("\"{l}\": {}", num(*x)))
                .collect();
            format!("{{{}}}", fields.join(", "))
        };
        let _ = writeln!(
            s,
            "  \"self_time\": {{\"jobs\": {}, \"tail_percentile\": {}, \"p50_ms\": {}, \"tail_ms\": {}, \"share_of_p50_pct\": {}, \"share_of_tail_pct\": {}}},",
            t.jobs,
            num(t.tail_percentile),
            num(t.p50_ms),
            num(t.tail_ms),
            row(&t.p50_share),
            row(&t.tail_share)
        );
    }
    let rows: Vec<String> = outcome
        .rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"cell\": \"{}\", \"jobs\": {}, \"wall_ms_geomean\": {}, \"wall_ms_min\": {}}}",
                escape(&r.cell),
                r.jobs,
                num(r.wall_ms_geomean),
                num(r.wall_ms_min)
            )
        })
        .collect();
    let _ = writeln!(s, "  \"cells\": [\n{}\n  ]", rows.join(",\n"));
    s.push_str("}\n");
    s
}
