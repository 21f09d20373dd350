//! The benchmark's own span recorder.
//!
//! Every job the benchmark drives leaves one [`JobRecord`]: the client's
//! timestamps around submit and result, the [`svc::TraceDigest`] the
//! scheduler stamped on the job and the three durations a
//! [`svc::JobResult`] carries. From those, [`layout`] reconstructs a
//! root span `job` and six children that partition it, so a layer's self
//! time is simply its child's duration. Records stay in memory during
//! the run; [`chrome_trace`] and [`self_time`] turn them into the Chrome
//! trace and the self-time table once measuring has ended.
//!
//! Only the *durations* inside the service interval are measured
//! (`compile_s`, `exec_s`, `wall_s`); their order inside it is drawn
//! schematically — the remainder first, then compile or load, then
//! execute. Spans recorded inside the program are a later change.

use obs::trace::{SpanEvent, ThreadTrace, Trace};

use crate::stats;

/// Child span names, in the order they are laid out inside `job`.
pub const LAYERS: [&str; 6] = [
    "client.submit",
    "svc.queue",
    "svc.job.other",
    "compile_or_load",
    "execute",
    "svc.reply",
];

/// Position of a layer in [`LAYERS`] and in [`Layout::children`].
///
/// - `client.submit`: client encode, socket write, reactor decode,
///   `Scheduler::submit`.
/// - `svc.queue`: enqueue until a worker picks the job up.
/// - `svc.job.other`: service time outside compile and execute — WaCC,
///   store get/put, AOT precompile for the store, the native-mirror
///   checksum.
/// - `compile_or_load`: decode + validate + tier compile, or artifact
///   load on a store hit.
/// - `execute`: instantiate + run.
/// - `svc.reply`: job done until the client holds the result.
pub fn layer_index(name: &str) -> usize {
    LAYERS
        .iter()
        .position(|l| *l == name)
        .unwrap_or_else(|| panic!("no layer named {name:?}"))
}

/// Which part of a run a job belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Closed loop.
    Sat,
    /// Open loop at the lower frozen rate.
    Lo,
    /// Open loop at the higher frozen rate.
    Hi,
}

/// Everything the benchmark records about one job.
#[derive(Debug, Clone)]
pub struct JobRecord {
    /// Index into the workload's cell list.
    pub cell: usize,
    /// Run phase.
    pub phase: Phase,
    /// Round the job belongs to (one pass over the cell list).
    pub round: u64,
    /// Deterministic trace id (`load::traces::trace_ids`).
    pub trace_id: u64,
    /// Whether the program's own tracing was on while the job ran.
    pub traced: bool,
    /// When the job was due (open loop) or sent (closed loop), client clock.
    pub intended_ns: u64,
    /// Just before submit, client clock.
    pub send_ns: u64,
    /// Result in hand, client clock.
    pub result_ns: u64,
    /// Server clock: job entered the queue.
    pub enqueue_ns: u64,
    /// Server clock: a worker picked the job up.
    pub start_ns: u64,
    /// Server clock: job finished.
    pub done_ns: u64,
    /// `compile_s` plus `aot_compile_s`, nanoseconds.
    pub compile_ns: u64,
    /// `exec_s`, nanoseconds.
    pub exec_ns: u64,
    /// `wall_s`, nanoseconds.
    pub wall_ns: u64,
}

impl JobRecord {
    /// Client-observed latency from the intended send instant.
    pub fn latency_ns(&self) -> u64 {
        self.result_ns.saturating_sub(self.intended_ns)
    }

    /// How late the generator sent the job.
    pub fn lateness_ns(&self) -> u64 {
        self.send_ns.saturating_sub(self.intended_ns)
    }

    /// Time in queue, from the digest.
    pub fn queue_ns(&self) -> u64 {
        self.start_ns.saturating_sub(self.enqueue_ns)
    }

    /// In-job time outside compile and execute.
    pub fn overhead_ns(&self) -> u64 {
        self.wall_ns.saturating_sub(self.compile_ns + self.exec_ns)
    }
}

/// A reconstructed span tree: the root interval and its six children as
/// `(start, end)` on the client clock, in [`LAYERS`] order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Layout {
    /// The `job` span.
    pub root: (u64, u64),
    /// The children; consecutive, covering the root exactly.
    pub children: [(u64, u64); 6],
}

impl Layout {
    /// Root duration.
    pub fn total_ns(&self) -> u64 {
        self.root.1 - self.root.0
    }

    /// Duration of child `i`, which is also its self time.
    pub fn self_ns(&self, i: usize) -> u64 {
        self.children[i].1 - self.children[i].0
    }
}

/// Estimates `server clock − client clock` from the jobs themselves: the
/// server stamps `enqueue_ns` somewhere between the client's `send_ns`
/// and the submit acknowledgement, and `done_ns` before `result_ns`, so
/// each job bounds the offset from both sides. The midpoint of the
/// tightest pair of bounds is the estimate. In-process runs share one
/// clock and must pass 0 instead.
pub fn clock_offset_ns(records: &[JobRecord]) -> i64 {
    let lower = records
        .iter()
        .map(|r| r.done_ns as i64 - r.result_ns as i64)
        .max();
    let upper = records
        .iter()
        .map(|r| r.enqueue_ns as i64 - r.send_ns as i64)
        .min();
    match (lower, upper) {
        (Some(lo), Some(hi)) => lo + (hi - lo) / 2,
        _ => 0,
    }
}

/// Lays out one job's spans. Server timestamps are shifted by
/// `offset_ns` (server − client) and clamped so the cut points are
/// monotone inside `[send, result]`.
pub fn layout(rec: &JobRecord, offset_ns: i64) -> Layout {
    let t0 = rec.send_ns;
    let t_end = rec.result_ns.max(t0);
    let shift = |server_ns: u64| obs::stitch::to_client_ns(server_ns, offset_ns);
    let enq = shift(rec.enqueue_ns).clamp(t0, t_end);
    let start = shift(rec.start_ns).clamp(enq, t_end);
    let done = shift(rec.done_ns).clamp(start, t_end);
    let service = done - start;
    let inner = rec.compile_ns + rec.exec_ns;
    // compile and execute are measured inside the job; if clamping
    // shrank the interval below them, scale both to fit.
    let (compile, exec) = if inner > service {
        let compile = (rec.compile_ns as u128 * service as u128 / inner as u128) as u64;
        (compile, service - compile)
    } else {
        (rec.compile_ns, rec.exec_ns)
    };
    let compile_at = done - exec - compile;
    let exec_at = done - exec;
    Layout {
        root: (t0, t_end),
        children: [
            (t0, enq),
            (enq, start),
            (start, compile_at),
            (compile_at, exec_at),
            (exec_at, done),
            (done, t_end),
        ],
    }
}

/// Each layer's share of job time among the jobs around the median and
/// among the jobs in the tail.
#[derive(Debug, Clone, PartialEq)]
pub struct SelfTime {
    /// Jobs the table was computed over.
    pub jobs: usize,
    /// The tail percentile used (highest with ten samples beyond it).
    pub tail_percentile: f64,
    /// Median job time, ms.
    pub p50_ms: f64,
    /// Tail job time, ms.
    pub tail_ms: f64,
    /// Per layer: percent of job time for jobs between the 45th and 55th
    /// percentile of job time.
    pub p50_share: [f64; 6],
    /// Per layer: percent of job time for jobs at or beyond the tail
    /// percentile.
    pub tail_share: [f64; 6],
}

fn shares(band: &[Layout]) -> [f64; 6] {
    let total: u64 = band.iter().map(Layout::total_ns).sum();
    let mut out = [0.0; 6];
    if total == 0 {
        return out;
    }
    for (i, share) in out.iter_mut().enumerate() {
        let layer: u64 = band.iter().map(|l| l.self_ns(i)).sum();
        *share = 100.0 * layer as f64 / total as f64;
    }
    out
}

/// Builds the self-time table from laid-out jobs.
pub fn self_time(mut layouts: Vec<Layout>) -> SelfTime {
    layouts.sort_by_key(Layout::total_ns);
    let n = layouts.len();
    let totals: Vec<f64> = layouts.iter().map(|l| l.total_ns() as f64 / 1e6).collect();
    let tail_percentile = stats::tail_percentile(n);
    let band = |from: f64, to: f64| {
        let lo = (n as f64 * from / 100.0).floor() as usize;
        let hi = ((n as f64 * to / 100.0).ceil() as usize).clamp(lo, n);
        &layouts[lo.min(n)..hi]
    };
    SelfTime {
        jobs: n,
        tail_percentile,
        p50_ms: stats::median(&totals),
        tail_ms: stats::percentile(&totals, tail_percentile),
        p50_share: shares(band(45.0, 55.0)),
        tail_share: shares(band(tail_percentile, 100.0)),
    }
}

impl SelfTime {
    /// The table as text, one row per layer.
    pub fn render(&self, workload: &str) -> String {
        let mut out = format!(
            "self time, {workload}: {} jobs, p50 {:.3} ms, p{} {:.3} ms\n{:<18} {:>10} {:>10}\n",
            self.jobs,
            self.p50_ms,
            self.tail_percentile,
            self.tail_ms,
            "layer",
            "% of p50",
            "% of tail"
        );
        for (i, name) in LAYERS.iter().enumerate() {
            out += &format!(
                "{:<18} {:>10.2} {:>10.2}\n",
                name, self.p50_share[i], self.tail_share[i]
            );
        }
        out
    }
}

/// Jobs exported to the Chrome trace; later jobs only feed the table.
pub const MAX_EXPORTED_JOBS: usize = 2000;

/// Builds a Chrome-exportable trace: jobs that overlap in time go to
/// different lanes, so every lane nests properly.
pub fn chrome_trace(records: &[JobRecord], offset_ns: i64) -> Trace {
    let mut order: Vec<&JobRecord> = records.iter().collect();
    order.sort_by_key(|r| (r.send_ns, r.trace_id));
    order.truncate(MAX_EXPORTED_JOBS);
    let mut lanes: Vec<(u64, Vec<SpanEvent>)> = Vec::new();
    for rec in order {
        let l = layout(rec, offset_ns);
        let lane = match lanes
            .iter()
            .position(|(busy_until, _)| *busy_until <= l.root.0)
        {
            Some(i) => i,
            None => {
                lanes.push((0, Vec::new()));
                lanes.len() - 1
            }
        };
        let (busy_until, events) = &mut lanes[lane];
        *busy_until = l.root.1;
        events.push(SpanEvent {
            name: "job",
            attr: Some(
                format!(
                    "trace_id={:016x} cell={} phase={:?}",
                    rec.trace_id, rec.cell, rec.phase
                )
                .into_boxed_str(),
            ),
            start_ns: l.root.0,
            dur_ns: l.total_ns(),
            depth: 0,
            counters: None,
        });
        for (i, name) in LAYERS.iter().enumerate() {
            if l.self_ns(i) == 0 {
                continue;
            }
            events.push(SpanEvent {
                name,
                attr: None,
                start_ns: l.children[i].0,
                dur_ns: l.self_ns(i),
                depth: 1,
                counters: None,
            });
        }
    }
    Trace {
        threads: lanes
            .into_iter()
            .enumerate()
            .map(|(i, (_, events))| ThreadTrace {
                tid: i as u64 + 1,
                name: format!("jobs lane {}", i + 1),
                dropped: 0,
                events,
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(send: u64, result: u64) -> JobRecord {
        JobRecord {
            cell: 0,
            phase: Phase::Sat,
            round: 0,
            trace_id: send + 1,
            traced: true,
            intended_ns: send,
            send_ns: send,
            result_ns: result,
            enqueue_ns: send + 10,
            start_ns: send + 30,
            done_ns: result - 5,
            compile_ns: 100,
            exec_ns: 400,
            wall_ns: 600,
        }
    }

    #[test]
    fn children_partition_the_parent() {
        for rec in [
            record(1_000, 2_000),
            // compile + exec longer than the service interval: scaled.
            JobRecord {
                compile_ns: 4_000,
                exec_ns: 4_000,
                ..record(1_000, 2_000)
            },
            // A digest that lies outside the client's interval: clamped.
            JobRecord {
                enqueue_ns: 0,
                start_ns: 50_000,
                done_ns: 60_000,
                ..record(1_000, 2_000)
            },
        ] {
            let l = layout(&rec, 0);
            assert_eq!(l.children[0].0, l.root.0);
            assert_eq!(l.children[5].1, l.root.1);
            for pair in l.children.windows(2) {
                assert_eq!(pair[0].1, pair[1].0, "children are consecutive");
            }
            let sum: u64 = (0..6).map(|i| l.self_ns(i)).sum();
            assert_eq!(sum, l.total_ns(), "self times add up to the root");
        }
        let l = layout(&record(1_000, 2_000), 0);
        let of = |name| l.self_ns(layer_index(name));
        assert_eq!(of("client.submit"), 10);
        assert_eq!(of("svc.queue"), 20);
        assert_eq!(of("compile_or_load"), 100);
        assert_eq!(of("execute"), 400);
        assert_eq!(of("svc.reply"), 5);
        assert_eq!(of("svc.job.other"), 1_000 - 10 - 20 - 100 - 400 - 5);
    }

    #[test]
    fn shares_add_up_to_one_hundred() {
        let layouts: Vec<Layout> = (0..200u64)
            .map(|i| layout(&record(i * 10_000, i * 10_000 + 1_000 + i), 0))
            .collect();
        let table = self_time(layouts);
        assert_eq!(table.jobs, 200);
        assert_eq!(table.tail_percentile, 95.0);
        for shares in [table.p50_share, table.tail_share] {
            let sum: f64 = shares.iter().sum();
            assert!((sum - 100.0).abs() < 1e-6, "{sum}");
        }
        assert!(table.render("x").contains("compile_or_load"));
    }

    #[test]
    fn clock_offset_is_recovered_from_the_jobs() {
        // Server clock runs 1_000_000 ns ahead of the client's.
        let recs: Vec<JobRecord> = (0..10u64)
            .map(|i| {
                let mut r = record(i * 10_000, i * 10_000 + 1_000);
                r.enqueue_ns += 1_000_000;
                r.start_ns += 1_000_000;
                r.done_ns += 1_000_000;
                r
            })
            .collect();
        let off = clock_offset_ns(&recs);
        assert!((off - 1_000_000).abs() <= 10, "{off}");
    }

    #[test]
    fn overlapping_jobs_get_their_own_lane_and_the_export_validates() {
        let recs = vec![
            record(1_000, 2_000),
            record(1_500, 2_500),
            record(2_100, 3_000),
        ];
        let trace = chrome_trace(&recs, 0);
        assert_eq!(trace.threads.len(), 2);
        obs::chrome::validate(&obs::chrome::export_string(&trace)).expect("valid chrome trace");
    }
}
