//! Load generation: the seeded job feed, the closed-loop client and the
//! open-loop submitter/collector pair. At most two generator threads and
//! two connections exist at any time.

use std::collections::VecDeque;
use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};

use svc::job::{JobResult, JobSpec, TraceCtx};
use svc::server::Client;
use svc::Scheduler;

use crate::trace::{JobRecord, Phase};
use crate::workloads::round_order;

/// Something jobs can be submitted to and awaited on.
pub trait Target {
    /// Enqueues a job; returns its id.
    fn submit(&mut self, spec: JobSpec, ctx: TraceCtx) -> Result<u64, String>;
    /// Blocks until job `id` is done.
    fn wait(&mut self, id: u64) -> Result<JobResult, String>;
}

impl Target for &Scheduler {
    fn submit(&mut self, spec: JobSpec, ctx: TraceCtx) -> Result<u64, String> {
        Ok(self.submit_traced(spec, ctx))
    }
    fn wait(&mut self, id: u64) -> Result<JobResult, String> {
        Ok(Scheduler::wait(self, id))
    }
}

impl Target for Client {
    fn submit(&mut self, spec: JobSpec, ctx: TraceCtx) -> Result<u64, String> {
        self.submit_traced(spec, ctx).map_err(|e| e.to_string())
    }
    fn wait(&mut self, id: u64) -> Result<JobResult, String> {
        Client::wait(self, id).map_err(|e| e.to_string())
    }
}

/// Round number of set-up rounds (store priming, warm-up), far from the
/// numbers measured rounds count up from 0, so their job orders and
/// trace ids never coincide.
pub const SETUP_ROUND: u64 = 1 << 40;

/// Whether a run's jobs carry a trace context and run with the program's
/// span sink on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tracing {
    /// Untraced: the default context, the null sink.
    Off,
    /// Traced throughout.
    On,
    /// Even rounds run untraced and odd rounds traced, so one run yields
    /// both throughputs under the same conditions. The feed flips the
    /// in-process `obs` sink at each round boundary.
    Alternate,
}

/// A job handed to a client.
#[derive(Debug, Clone, Copy)]
pub struct Ticket {
    /// Index into the cell list.
    pub cell: usize,
    /// Round the job belongs to.
    pub round: u64,
    /// Deterministic trace id.
    pub trace_id: u64,
    /// Whether this job is traced.
    pub traced: bool,
}

/// Whether to end after `rounds_done` whole rounds took `elapsed`: true
/// once stopping lands nearer the budget than one more round would.
pub fn nearer_to_stop(elapsed: Duration, rounds_done: u64, budget: Duration) -> bool {
    let per_round = elapsed.div_f64(rounds_done.max(1) as f64);
    elapsed + per_round / 2 >= budget
}

/// Start time and tracing state of one round.
#[derive(Debug, Clone, Copy)]
pub struct RoundMark {
    /// `obs::trace::now_ns` when the round's first job was handed out.
    pub start_ns: u64,
    /// Whether the round ran traced.
    pub traced: bool,
    /// Resident set of the process under test when the round started,
    /// MiB (0 without a probe).
    pub rss_mb: f64,
}

struct FeedState {
    round: u64,
    order: Vec<usize>,
    trace_ids: Vec<u64>,
    pos: usize,
    started: Option<Instant>,
    marks: Vec<RoundMark>,
    done: bool,
}

/// Hands out the jobs of consecutive rounds to however many clients ask.
/// Each round is the full cell list in an order drawn from `(seed,
/// round)`. The feed only ever ends at a round boundary, so every run
/// measures whole rounds and job counts per round repeat exactly.
pub struct Feed {
    cells: usize,
    seed: u64,
    first_round: u64,
    max_rounds: u64,
    budget: Duration,
    tracing: Tracing,
    rss_status: Option<String>,
    state: Mutex<FeedState>,
}

impl Feed {
    /// A feed over `cells` cells that runs whole rounds, numbered from
    /// `first_round`, until `budget` is (nearly) used or `max_rounds`
    /// rounds were handed out.
    pub fn new(
        cells: usize,
        seed: u64,
        first_round: u64,
        max_rounds: u64,
        budget: Duration,
        tracing: Tracing,
    ) -> Feed {
        Feed {
            cells,
            seed,
            first_round,
            max_rounds,
            budget,
            tracing,
            rss_status: None,
            state: Mutex::new(FeedState {
                round: first_round,
                order: Vec::new(),
                trace_ids: Vec::new(),
                pos: 0,
                started: None,
                marks: Vec::new(),
                done: false,
            }),
        }
    }

    /// Samples `VmRSS` from this `/proc/<pid>/status` file at the start
    /// of every round.
    pub fn sampling_rss(mut self, status_path: String) -> Feed {
        self.rss_status = Some(status_path);
        self
    }

    fn round_traced(&self, round: u64) -> bool {
        match self.tracing {
            Tracing::Off => false,
            Tracing::On => true,
            Tracing::Alternate => round % 2 == 1,
        }
    }

    /// The next job, or `None` once the feed has ended.
    pub fn next(&self) -> Option<Ticket> {
        let mut st = self.state.lock().expect("feed lock");
        if st.done {
            return None;
        }
        if st.pos == st.order.len() {
            // Round boundary: decide whether another round starts.
            let rounds_done = st.marks.len() as u64;
            let started = *st.started.get_or_insert_with(Instant::now);
            if rounds_done >= self.max_rounds
                || (rounds_done > 0 && nearer_to_stop(started.elapsed(), rounds_done, self.budget))
            {
                st.done = true;
                return None;
            }
            let round = self.first_round + rounds_done;
            st.round = round;
            st.order = round_order(self.seed, round, self.cells);
            st.trace_ids = load::traces::trace_ids(self.seed, round, self.cells);
            st.pos = 0;
            let traced = self.round_traced(round);
            if self.tracing == Tracing::Alternate {
                obs::trace::install(if traced {
                    obs::trace::Sink::Ring
                } else {
                    obs::trace::Sink::Null
                });
            }
            let rss_mb = self
                .rss_status
                .as_deref()
                .and_then(|path| crate::daemon::status_mb(path, "VmRSS"))
                .unwrap_or(0.0);
            st.marks.push(RoundMark {
                start_ns: obs::trace::now_ns(),
                traced,
                rss_mb,
            });
        }
        let pos = st.pos;
        st.pos += 1;
        Some(Ticket {
            cell: st.order[pos],
            round: st.round,
            trace_id: st.trace_ids[pos],
            traced: self.round_traced(st.round),
        })
    }

    /// The rounds handed out so far.
    pub fn marks(&self) -> Vec<RoundMark> {
        self.state.lock().expect("feed lock").marks.clone()
    }
}

/// One finished job: what the client saw and what the service returned.
#[derive(Debug, Clone)]
pub struct Done {
    /// Timestamps and durations.
    pub rec: JobRecord,
    /// The service's record.
    pub res: JobResult,
}

/// What one generator thread produced.
#[derive(Debug, Default)]
pub struct ClientLog {
    /// Finished jobs.
    pub done: Vec<Done>,
    /// Submits or waits that failed in transport; each is a lost job.
    pub protocol_errors: u64,
}

impl ClientLog {
    /// Merges another client's log into this one.
    pub fn absorb(&mut self, other: ClientLog) {
        self.done.extend(other.done);
        self.protocol_errors += other.protocol_errors;
    }
}

fn ns(seconds: f64) -> u64 {
    (seconds * 1e9) as u64
}

struct InFlight {
    id: u64,
    ticket: Ticket,
    intended_ns: u64,
    send_ns: u64,
}

fn finish(p: InFlight, phase: Phase, res: JobResult) -> Done {
    Done {
        rec: JobRecord {
            cell: p.ticket.cell,
            phase,
            round: p.ticket.round,
            trace_id: p.ticket.trace_id,
            traced: p.ticket.traced,
            intended_ns: p.intended_ns,
            send_ns: p.send_ns,
            result_ns: obs::trace::now_ns(),
            enqueue_ns: res.trace.enqueue_ns,
            start_ns: res.trace.start_ns,
            done_ns: res.trace.done_ns,
            compile_ns: ns(res.compile_s + res.aot_compile_s.unwrap_or(0.0)),
            exec_ns: ns(res.exec_s),
            wall_ns: ns(res.wall_s),
        },
        res,
    }
}

fn ctx_for(ticket: Ticket, send_ns: u64) -> TraceCtx {
    if ticket.traced {
        TraceCtx {
            trace_id: ticket.trace_id,
            origin_ns: send_ns,
        }
    } else {
        TraceCtx::default()
    }
}

/// A closed-loop client: keeps `in_flight` jobs outstanding on `target`,
/// sending the next only when the oldest has completed, until the feed
/// ends.
pub fn closed_loop<T: Target>(
    target: &mut T,
    cells: &[JobSpec],
    feed: &Feed,
    in_flight: usize,
) -> ClientLog {
    let mut log = ClientLog::default();
    let mut pending: VecDeque<InFlight> = VecDeque::new();
    loop {
        while pending.len() < in_flight {
            let Some(ticket) = feed.next() else { break };
            let send_ns = obs::trace::now_ns();
            match target.submit(cells[ticket.cell].clone(), ctx_for(ticket, send_ns)) {
                Ok(id) => pending.push_back(InFlight {
                    id,
                    ticket,
                    intended_ns: send_ns,
                    send_ns,
                }),
                Err(_) => log.protocol_errors += 1,
            }
        }
        let Some(oldest) = pending.pop_front() else {
            break;
        };
        match target.wait(oldest.id) {
            Ok(res) => log.done.push(finish(oldest, Phase::Sat, res)),
            Err(_) => log.protocol_errors += 1,
        }
    }
    log
}

/// One open-loop phase over a socket: this thread sleeps until each
/// intended send instant and submits on `submitter` without waiting for
/// earlier jobs; a second thread collects results on `collector` in
/// submission order. Latency is later taken from the intended instant.
#[allow(clippy::too_many_arguments)]
pub fn open_loop(
    submitter: &mut Client,
    collector: &mut Client,
    cells: &[JobSpec],
    order: &[usize],
    schedule: &[Duration],
    trace_ids: &[u64],
    traced: bool,
    phase: Phase,
) -> ClientLog {
    let (tx, rx) = mpsc::channel::<InFlight>();
    std::thread::scope(|scope| {
        let collect = scope.spawn(move || {
            let mut log = ClientLog::default();
            for p in rx {
                match Target::wait(collector, p.id) {
                    Ok(res) => log.done.push(finish(p, phase, res)),
                    Err(_) => log.protocol_errors += 1,
                }
            }
            log
        });
        let mut submit_errors = 0;
        let t0 = Instant::now();
        let t0_ns = obs::trace::now_ns();
        for (i, offset) in schedule.iter().enumerate() {
            let due = t0 + *offset;
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let ticket = Ticket {
                cell: order[i % order.len()],
                round: (i / order.len()) as u64,
                trace_id: trace_ids[i],
                traced,
            };
            let send_ns = obs::trace::now_ns();
            match Target::submit(
                submitter,
                cells[ticket.cell].clone(),
                ctx_for(ticket, send_ns),
            ) {
                Ok(id) => {
                    // The collector only goes away by panicking, which
                    // the join below reports.
                    let _ = tx.send(InFlight {
                        id,
                        ticket,
                        intended_ns: t0_ns + offset.as_nanos() as u64,
                        send_ns,
                    });
                }
                Err(_) => submit_errors += 1,
            }
        }
        drop(tx);
        let mut log = collect.join().expect("collector thread");
        log.protocol_errors += submit_errors;
        log
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn feed_hands_out_whole_rounds_in_seeded_order() {
        let feed = Feed::new(5, 12, 0, 2, Duration::from_secs(3600), Tracing::Off);
        let cells: Vec<usize> = std::iter::from_fn(|| feed.next()).map(|t| t.cell).collect();
        assert_eq!(cells.len(), 10, "two whole rounds");
        assert_eq!(cells[..5], round_order(12, 0, 5)[..]);
        assert_eq!(cells[5..], round_order(12, 1, 5)[..]);
        assert!(feed.next().is_none(), "stays ended");
        assert_eq!(feed.marks().len(), 2);

        let again = Feed::new(5, 12, 0, 2, Duration::from_secs(3600), Tracing::Off);
        let ids_a: Vec<u64> = std::iter::from_fn(|| again.next())
            .map(|t| t.trace_id)
            .collect();
        let other = Feed::new(5, 13, 0, 2, Duration::from_secs(3600), Tracing::Off);
        let ids_b: Vec<u64> = std::iter::from_fn(|| other.next())
            .map(|t| t.trace_id)
            .collect();
        assert_ne!(ids_a, ids_b, "another seed, another job list");
    }

    #[test]
    fn feed_stops_at_the_boundary_nearest_the_budget() {
        assert!(!nearer_to_stop(
            Duration::from_secs(4),
            4,
            Duration::from_secs(10)
        ));
        assert!(!nearer_to_stop(
            Duration::from_secs(9),
            9,
            Duration::from_secs(10)
        ));
        assert!(nearer_to_stop(
            Duration::from_millis(9_600),
            10,
            Duration::from_secs(10)
        ));
        assert!(nearer_to_stop(
            Duration::from_secs(8),
            2,
            Duration::from_secs(10)
        ));
        // A zero budget still measures one round.
        let feed = Feed::new(3, 1, 0, u64::MAX, Duration::ZERO, Tracing::Off);
        assert_eq!(std::iter::from_fn(|| feed.next()).count(), 3);
    }

    #[test]
    fn alternate_tracing_traces_odd_rounds() {
        let feed = Feed::new(2, 1, 6, 4, Duration::from_secs(3600), Tracing::Alternate);
        let traced: Vec<bool> = std::iter::from_fn(|| feed.next())
            .map(|t| t.traced)
            .collect();
        assert_eq!(traced, [false, false, true, true, false, false, true, true]);
        obs::trace::install(obs::trace::Sink::Null);
    }
}
