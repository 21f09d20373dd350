//! Turning finished jobs into verdicts and metric values: the output
//! oracle, the end-to-end numbers every workload shares, and the
//! per-layer numbers that come from a workload's own jobs and spans.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use archsim::Counters;
use engines::EngineKind;
use svc::job::{JobMode, JobResult, JobSpec, Outcome, Scale};

use crate::drive::{Done, RoundMark};
use crate::metrics::{Values, PER_LAYER};
use crate::stats;
use crate::trace::{self, layer_index, JobRecord, Layout, Phase, SelfTime};

/// Counts and messages of everything that went wrong in a run.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Operations attempted: jobs submitted plus oracle checks.
    pub attempted: u64,
    /// Operations that failed, were degraded, were lost in transport or
    /// returned a wrong answer.
    pub failed: u64,
    /// The first few failures, for the log.
    pub problems: Vec<String>,
}

impl Verdict {
    /// Share of attempted operations that did not fail.
    pub fn ok_share(&self) -> f64 {
        1.0 - self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Records one failed operation.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.problems.len() < 10 {
            self.problems.push(what);
        }
    }
}

/// Expected outputs: the `suite` native mirror's checksum for every
/// (program, scale) a workload runs, computed once before measuring.
pub struct Oracle {
    expected: HashMap<(String, u8), i32>,
}

impl Oracle {
    /// Runs the native mirror for each distinct (program, scale) in `cells`.
    pub fn for_cells(cells: &[JobSpec]) -> Oracle {
        let mut expected = HashMap::new();
        for cell in cells {
            let key = (cell.benchmark.clone(), cell.scale.byte());
            if let Some(b) = suite::by_name(&cell.benchmark) {
                expected
                    .entry(key)
                    .or_insert_with(|| (b.native)(cell.scale.arg(b)));
            }
        }
        Oracle { expected }
    }

    /// Checks one job's result against the cell it ran.
    pub fn check(&self, cell: &JobSpec, res: &JobResult) -> Result<(), String> {
        match res.outcome() {
            Outcome::Clean => {}
            Outcome::Degraded => return Err(format!("{cell}: degraded (interpreter fallback)")),
            Outcome::Failed => return Err(format!("{cell}: {:?}", res.status)),
        }
        if res.spec != *cell {
            return Err(format!("{cell}: result is for another job ({})", res.spec));
        }
        let want = self
            .expected
            .get(&(cell.benchmark.clone(), cell.scale.byte()));
        match cell.mode {
            // The native baseline runs no checksummed guest code.
            JobMode::ProfiledNative => {}
            _ if res.checksum.is_some() && res.checksum == want.copied() => {}
            _ => {
                return Err(format!(
                    "{cell}: checksum {:?}, native mirror says {want:?}",
                    res.checksum
                ))
            }
        }
        let profiled = matches!(cell.mode, JobMode::Profiled | JobMode::ProfiledNative);
        if profiled != res.counters.is_some() {
            return Err(format!(
                "{cell}: simulated counters present={}",
                res.counters.is_some()
            ));
        }
        Ok(())
    }

    /// Checks every finished job and counts lost ones.
    pub fn check_all(&self, cells: &[JobSpec], done: &[Done], lost: u64, verdict: &mut Verdict) {
        verdict.attempted += done.len() as u64 + lost;
        for _ in 0..lost {
            verdict.fail("job lost to a protocol error".into());
        }
        for d in done {
            if let Err(e) = self.check(&cells[d.rec.cell], &d.res) {
                verdict.fail(e);
            }
        }
    }
}

/// The independent oracle: for each distinct program of `cells`, one
/// test-scale job on the cell's engine must agree with both the native
/// mirror and the WaCC reference evaluator.
pub fn evaluator_check(cells: &[JobSpec], verdict: &mut Verdict) {
    let env = svc::exec::ExecEnv::new(None);
    let mut seen = BTreeSet::new();
    for cell in cells {
        if !seen.insert(cell.benchmark.clone()) {
            continue;
        }
        verdict.attempted += 1;
        let Some(b) = suite::by_name(&cell.benchmark) else {
            verdict.fail(format!("{}: not in the suite", cell.benchmark));
            continue;
        };
        let n = b.sizes.test;
        let job = svc::exec::execute(
            &JobSpec {
                scale: Scale::Test,
                mode: JobMode::Exec,
                warm: false,
                ..cell.clone()
            },
            &env,
        );
        let native = (b.native)(n);
        match b.checksum_via_evaluator(n) {
            Ok(v) if v == native && job.checksum == Some(v) => {}
            Ok(v) => verdict.fail(format!(
                "{}: evaluator {v}, native mirror {native}, {} {:?}",
                b.name,
                cell.engine.name(),
                job.checksum
            )),
            Err(e) => verdict.fail(format!("{}: evaluator failed: {e}", b.name)),
        }
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// First send to last result over `done`, seconds.
pub fn span_s(done: &[&Done]) -> f64 {
    let first = done.iter().map(|d| d.rec.send_ns).min().unwrap_or(0);
    let last = done.iter().map(|d| d.rec.result_ns).max().unwrap_or(0);
    last.saturating_sub(first) as f64 / 1e9
}

/// Jobs grouped by round, in round order. A round cut short (the tail
/// of an open-loop phase) is dropped: it holds less than half the jobs
/// of the fullest round.
pub fn by_round<'a>(done: &[&'a Done]) -> Vec<Vec<&'a Done>> {
    let mut rounds: BTreeMap<u64, Vec<&Done>> = BTreeMap::new();
    for d in done {
        rounds.entry(d.rec.round).or_default().push(d);
    }
    let fullest = rounds.values().map(Vec::len).max().unwrap_or(0);
    rounds
        .into_values()
        .filter(|r| r.len() * 2 > fullest)
        .collect()
}

/// The median over rounds of `f` applied to each round's jobs. Timings
/// are reported this way so that a burst of interference, which spoils
/// a round or two, does not move the run's value.
pub fn round_median(done: &[&Done], f: impl Fn(&[&Done]) -> f64) -> f64 {
    stats::median(&by_round(done).iter().map(|r| f(r)).collect::<Vec<_>>())
}

/// The 90th-percentile latency, ms: consecutive rounds are pooled until
/// a group holds at least 100 jobs — so ten samples lie beyond the
/// percentile — and the median over the groups is reported.
pub fn latency_p90_ms(done: &[&Done]) -> f64 {
    let mut groups: Vec<Vec<&Done>> = Vec::new();
    let mut open: Vec<&Done> = Vec::new();
    for round in by_round(done) {
        open.extend(round);
        if open.len() >= 100 {
            groups.push(std::mem::take(&mut open));
        }
    }
    if groups.is_empty() {
        groups.push(open);
    }
    stats::median(
        &groups
            .iter()
            .map(|g| latency_ms(g, 90.0))
            .collect::<Vec<_>>(),
    )
}

/// Geometric mean of in-job wall time, ms.
pub fn job_geomean_ms(done: &[&Done]) -> f64 {
    stats::geomean(&done.iter().map(|d| d.res.wall_s * 1e3).collect::<Vec<_>>())
}

/// A percentile of client-observed latency from the intended send
/// instant, ms.
pub fn latency_ms(done: &[&Done], p: f64) -> f64 {
    stats::percentile(
        &done
            .iter()
            .map(|d| ms(d.rec.latency_ns()))
            .collect::<Vec<_>>(),
        p,
    )
}

/// Seconds each round took: the gap from its start to the next round's
/// start, the last one ending at `end_ns`.
pub fn round_durations_s(marks: &[RoundMark], end_ns: u64) -> Vec<f64> {
    marks
        .iter()
        .enumerate()
        .map(|(i, m)| {
            let end = marks.get(i + 1).map_or(end_ns, |n| n.start_ns);
            end.saturating_sub(m.start_ns) as f64 / 1e9
        })
        .collect()
}

/// One row of the per-cell table in the result file.
#[derive(Debug, Clone)]
pub struct CellRow {
    /// `program|engine|level|mode`.
    pub cell: String,
    /// Jobs measured.
    pub jobs: usize,
    /// Geometric mean of in-job wall time, ms.
    pub wall_ms_geomean: f64,
    /// Fastest in-job wall time, ms.
    pub wall_ms_min: f64,
}

/// Per-cell rows, in cell order.
pub fn cell_rows(cells: &[JobSpec], done: &[&Done]) -> Vec<CellRow> {
    let mut walls: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for d in done {
        walls
            .entry(d.rec.cell)
            .or_default()
            .push(d.res.wall_s * 1e3);
    }
    walls
        .into_iter()
        .map(|(i, w)| CellRow {
            cell: format!(
                "{}|{}|{}|{:?}",
                cells[i].benchmark,
                cells[i].engine.name(),
                cells[i].level,
                cells[i].mode
            ),
            jobs: w.len(),
            wall_ms_geomean: stats::geomean(&w),
            wall_ms_min: w.iter().copied().fold(f64::INFINITY, f64::min),
        })
        .collect()
}

/// The metric-name spelling of an engine (`wasmer` covers every Wasmer
/// backend).
pub fn engine_key(e: EngineKind) -> &'static str {
    match e {
        EngineKind::Wasmtime => "wasmtime",
        EngineKind::Wavm => "wavm",
        EngineKind::Wasmer(_) => "wasmer",
        EngineKind::Wasm3 => "wasm3",
        EngineKind::Wamr => "wamr",
    }
}

/// A per-layer value set with every declared name present and 0.
pub fn zeroed_layers() -> Values {
    PER_LAYER.iter().map(|d| (d.name, 0.0)).collect()
}

/// Sets a declared metric; an undeclared name is a bug in the benchmark.
pub fn set(values: &mut Values, name: &str, value: f64) {
    let slot = values
        .get_mut(name)
        .unwrap_or_else(|| panic!("metric {name:?} is not in the metric tables"));
    *slot = if value.is_finite() { value } else { 0.0 };
}

/// Throughput lost to tracing, percent: rounds alternate untraced and
/// traced, each round's duration is the gap to the next round's start
/// (the last round ends at `end_ns`), and the medians of the two kinds
/// are compared.
pub fn trace_overhead_pct(marks: &[RoundMark], end_ns: u64) -> f64 {
    let durations = round_durations_s(marks, end_ns);
    let of = |traced: bool| -> Vec<f64> {
        marks
            .iter()
            .zip(&durations)
            .filter(|(m, _)| m.traced == traced)
            .map(|(_, d)| *d)
            .collect()
    };
    let (off, on) = (of(false), of(true));
    if off.is_empty() || on.is_empty() {
        return 0.0;
    }
    // throughput ∝ 1/duration, so (thr_off − thr_on)/thr_off = 1 − off/on.
    100.0 * (1.0 - stats::median(&off) / stats::median(&on))
}

/// Fills the span- and job-derived per-layer metrics.
///
/// `idle` are the jobs of the least loaded phase (pickup latency is read
/// there), `busy` those of the most loaded one (queue wait, self time);
/// closed-loop workloads pass the same jobs for both.
pub fn span_layers(
    values: &mut Values,
    idle: &[&Done],
    busy: &[&Done],
    offset_ns: i64,
) -> SelfTime {
    let layouts: Vec<Layout> = busy
        .iter()
        .map(|d| trace::layout(&d.rec, offset_ns))
        .collect();
    let p50_ns = |name: &str| {
        let i = layer_index(name);
        stats::median(
            &layouts
                .iter()
                .map(|l| l.self_ns(i) as f64)
                .collect::<Vec<_>>(),
        )
    };
    set(
        values,
        "span.client_submit_us_p50",
        p50_ns("client.submit") / 1e3,
    );
    set(
        values,
        "span.compile_or_load_ms_p50",
        p50_ns("compile_or_load") / 1e6,
    );
    set(values, "span.execute_ms_p50", p50_ns("execute") / 1e6);
    set(values, "span.svc_reply_us_p50", p50_ns("svc.reply") / 1e3);
    let overhead: Vec<f64> = busy.iter().map(|d| us(d.rec.overhead_ns())).collect();
    set(values, "svc.exec.overhead_us_p50", stats::median(&overhead));
    let pickup: Vec<f64> = idle.iter().map(|d| us(d.rec.queue_ns())).collect();
    set(
        values,
        "svc.scheduler.submit_pickup_us_p50",
        stats::median(&pickup),
    );
    let wait: Vec<f64> = busy.iter().map(|d| ms(d.rec.queue_ns())).collect();
    set(
        values,
        "svc.scheduler.queue_wait_ms_p50",
        stats::median(&wait),
    );
    set(
        values,
        "svc.scheduler.queue_wait_ms_tail",
        stats::percentile(&wait, stats::tail_percentile(wait.len())),
    );

    let table = trace::self_time(layouts);
    for (i, name) in trace::LAYERS.iter().enumerate() {
        let key = name.replace('.', "_");
        set(
            values,
            &format!("selftime.{key}.p50_pct"),
            table.p50_share[i],
        );
        set(
            values,
            &format!("selftime.{key}.tail_pct"),
            table.tail_share[i],
        );
    }

    for e in EngineKind::all() {
        let exec: Vec<f64> = busy
            .iter()
            .filter(|d| engine_key(d.res.spec.engine) == engine_key(e) && d.res.exec_s > 0.0)
            .map(|d| d.res.exec_s * 1e3)
            .collect();
        set(
            values,
            &format!("engines.{}.exec_ms_geomean", engine_key(e)),
            stats::geomean(&exec),
        );
    }
    table
}

fn counter_fields(c: &Counters) -> [u64; 11] {
    [
        c.instructions,
        c.cycles,
        c.branches,
        c.branch_misses,
        c.cache_references,
        c.cache_misses,
        c.l1d_accesses,
        c.l1d_misses,
        c.l1i_accesses,
        c.l1i_misses,
        c.checks_skipped,
    ]
}

/// Fills the `archsim.*` metrics from profiled jobs and checks that the
/// simulator is deterministic: every repetition of a cell must return
/// the counters its first run returned. `wall_s` is the measured wall
/// the jobs ran in.
pub fn archsim_layers(
    values: &mut Values,
    cells: &[JobSpec],
    done: &[&Done],
    wall_s: f64,
    verdict: &mut Verdict,
) {
    let mut first: BTreeMap<usize, Counters> = BTreeMap::new();
    let mut total_instr = 0u64;
    let mut total_wall_ns = 0u64;
    for d in done {
        let Some(c) = d.res.counters else { continue };
        total_instr += c.instructions;
        total_wall_ns += d.rec.wall_ns;
        let seen = first.entry(d.rec.cell).or_insert(c);
        if *seen != c {
            verdict.attempted += 1;
            verdict.fail(format!(
                "{}: simulated counters differ between rounds",
                cells[d.rec.cell]
            ));
        }
    }
    if first.is_empty() {
        return;
    }
    let mut digest_bytes = Vec::new();
    let mut per_engine: BTreeMap<&'static str, Counters> = BTreeMap::new();
    let mut round_instr = 0u64;
    for (i, c) in &first {
        digest_bytes.extend_from_slice(&(*i as u64).to_le_bytes());
        for f in counter_fields(c) {
            digest_bytes.extend_from_slice(&f.to_le_bytes());
        }
        round_instr += c.instructions;
        let key = match cells[*i].mode {
            JobMode::ProfiledNative => "native",
            _ => engine_key(cells[*i].engine),
        };
        per_engine.entry(key).or_default().accumulate(c);
    }
    set(values, "archsim.sim_instructions", round_instr as f64);
    // 52 bits, so the digest survives the trip through an f64 exactly.
    set(
        values,
        "archsim.counters_digest",
        (svc::hash::fnv64(&digest_bytes) >> 12) as f64,
    );
    set(
        values,
        "archsim.sim_minstr_s",
        total_instr as f64 / 1e6 / wall_s,
    );
    set(
        values,
        "archsim.host_ns_per_sim_instr",
        total_wall_ns as f64 / total_instr as f64,
    );
    for (key, c) in per_engine {
        set(values, &format!("archsim.ipc.{key}"), c.ipc());
        set(
            values,
            &format!("archsim.branch_mpki.{key}"),
            c.branch_mpki(),
        );
    }
}

/// Jobs of one phase.
pub fn of_phase(done: &[Done], phase: Phase) -> Vec<&Done> {
    done.iter().filter(|d| d.rec.phase == phase).collect()
}

/// The records of `done`, for the trace export.
pub fn records(done: &[&Done]) -> Vec<JobRecord> {
    done.iter().map(|d| d.rec.clone()).collect()
}
