//! Job and result types: the unit of work the service schedules.

use engines::EngineKind;
use obs::stitch::ServerPhases;
use serde::{Deserialize, Serialize};
use suite::Benchmark;
use wacc::OptLevel;

/// Workload scale: which of a benchmark's three sizes a job runs at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Scale {
    /// Tiny (CI / smoke).
    Test,
    /// Medium (the harness default).
    Profile,
    /// Large (timing runs).
    Timing,
}

impl Scale {
    /// The benchmark's scale argument at this scale.
    pub fn arg(self, b: &Benchmark) -> i32 {
        match self {
            Scale::Test => b.sizes.test,
            Scale::Profile => b.sizes.profile,
            Scale::Timing => b.sizes.timing,
        }
    }

    /// Stable wire byte.
    pub fn byte(self) -> u8 {
        match self {
            Scale::Test => 0,
            Scale::Profile => 1,
            Scale::Timing => 2,
        }
    }

    /// Decodes a wire byte.
    pub fn from_byte(b: u8) -> Option<Scale> {
        Some(match b {
            0 => Scale::Test,
            1 => Scale::Profile,
            2 => Scale::Timing,
            _ => return None,
        })
    }

    /// Parses a CLI spelling.
    pub fn parse(s: &str) -> Option<Scale> {
        Some(match s {
            "test" => Scale::Test,
            "profile" => Scale::Profile,
            "timing" => Scale::Timing,
            _ => return None,
        })
    }
}

/// What measurement a job takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum JobMode {
    /// Compile + instantiate + run, wall-clock split (fig1/fig2/fig4
    /// semantics — always a fresh compile unless the spec is `warm`).
    Exec,
    /// AOT: precompile (timed), load artifact (timed), run (fig3).
    ExecAot,
    /// Compile + run under the architectural simulator (fig6–fig9);
    /// fully deterministic counters.
    Profiled,
    /// The native-baseline simulated run (best-code tier, no compile
    /// events).
    ProfiledNative,
    /// Test-only: panics inside the job ("injected checksum mismatch").
    SelfTestPanic,
    /// Test-only: sleeps ~2s to exercise the per-job timeout.
    SelfTestHang,
    /// Test-only: panics on the first attempt, succeeds on any retry —
    /// exercises the scheduler's retry policy end to end.
    SelfTestFlaky,
}

impl JobMode {
    /// Stable wire byte.
    pub fn byte(self) -> u8 {
        match self {
            JobMode::Exec => 0,
            JobMode::ExecAot => 1,
            JobMode::Profiled => 2,
            JobMode::ProfiledNative => 3,
            JobMode::SelfTestPanic => 4,
            JobMode::SelfTestHang => 5,
            JobMode::SelfTestFlaky => 6,
        }
    }

    /// Decodes a wire byte.
    pub fn from_byte(b: u8) -> Option<JobMode> {
        Some(match b {
            0 => JobMode::Exec,
            1 => JobMode::ExecAot,
            2 => JobMode::Profiled,
            3 => JobMode::ProfiledNative,
            4 => JobMode::SelfTestPanic,
            5 => JobMode::SelfTestHang,
            6 => JobMode::SelfTestFlaky,
            _ => return None,
        })
    }
}

/// One schedulable unit: which benchmark, on which engine, compiled how,
/// at what scale, measured how.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct JobSpec {
    /// Registered benchmark name (`suite::by_name`).
    pub benchmark: String,
    /// Engine to run on (ignored by `ProfiledNative`).
    pub engine: EngineKind,
    /// WaCC optimization level.
    pub level: OptLevel,
    /// Workload scale.
    pub scale: Scale,
    /// Measurement mode.
    pub mode: JobMode,
    /// Service mode: consult the artifact store for AOT artifacts in
    /// `Exec` jobs (warm hits load instead of compiling). Off for
    /// measurement-fidelity runs, where compiles must be fresh.
    pub warm: bool,
}

impl JobSpec {
    /// A fresh-compile `Exec` job (the measurement-fidelity default).
    pub fn exec(benchmark: &str, engine: EngineKind, level: OptLevel, scale: Scale) -> JobSpec {
        JobSpec {
            benchmark: benchmark.to_string(),
            engine,
            level,
            scale,
            mode: JobMode::Exec,
            warm: false,
        }
    }
}

impl std::fmt::Display for JobSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} on {} at {} ({:?}, {:?}{})",
            self.benchmark,
            self.engine.name(),
            self.level,
            self.scale,
            self.mode,
            if self.warm { ", warm" } else { "" }
        )
    }
}

/// Client-originated trace context carried alongside a submit.
///
/// `trace_id == 0` means "untraced" (callers that do not stitch); the
/// scheduler still records a digest, it just cannot be joined against
/// client spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceCtx {
    /// 64-bit trace id minted by the client (the stitch join key).
    pub trace_id: u64,
    /// The request's intended-arrival time on the client's trace clock
    /// (`obs::trace::now_ns`), for client-side bookkeeping. The server
    /// echoes it untouched; it is meaningless on the server clock.
    pub origin_ns: u64,
}

/// The compact per-job span digest the scheduler stamps on every
/// [`JobResult`]: where the request's wall time went, on the *server's*
/// trace clock ([`obs::trace::now_ns`] in the server process), plus the
/// echoed client context. Together with a clock-offset estimate this is
/// enough to place queue-wait/compile/execute spans on the client's
/// timeline (`obs::stitch`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceDigest {
    /// Echoed client trace id (0 = untraced submit).
    pub trace_id: u64,
    /// Echoed client origin timestamp.
    pub origin_ns: u64,
    /// Server trace clock when the job entered the queue.
    pub enqueue_ns: u64,
    /// Server trace clock when a worker picked the job up.
    pub start_ns: u64,
    /// Server trace clock when the job finished.
    pub done_ns: u64,
}

impl TraceDigest {
    /// Nanoseconds the job waited in queue.
    pub fn queue_ns(&self) -> u64 {
        self.start_ns.saturating_sub(self.enqueue_ns)
    }
}

/// How a job ended.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum JobStatus {
    /// Completed with a verified checksum.
    Ok,
    /// Failed cleanly (unknown benchmark, compile error, trap, ...).
    Failed(String),
    /// The job panicked (e.g. checksum mismatch); the panic was caught
    /// at the job boundary and the fleet kept running.
    Panicked(String),
    /// The job exceeded the scheduler's per-job timeout.
    TimedOut,
}

/// What the resilience layer did to get a job to completion. Attached
/// to every [`JobResult`]; a default value means "clean first-attempt
/// run, nothing recovered".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Recovery {
    /// Attempts the scheduler made (1 = no retries).
    pub attempts: u32,
    /// The JIT compile failed and the job fell back to the interpreter
    /// tier — the result is correct but its timings measure the wrong
    /// tier, so callers must treat the cell as degraded.
    pub compile_fallback: bool,
    /// Corrupt store entries this job detected, recompiled, and wrote
    /// back in place.
    pub store_repairs: u32,
}

impl Default for Recovery {
    fn default() -> Recovery {
        Recovery {
            attempts: 1,
            compile_fallback: false,
            store_repairs: 0,
        }
    }
}

impl Recovery {
    /// Retries beyond the first attempt.
    pub fn retries(&self) -> u32 {
        self.attempts.saturating_sub(1)
    }
}

/// The three-way verdict callers branch on: a job is either clean,
/// correct-but-degraded, or failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Succeeded with full measurement fidelity (retries and store
    /// repairs reproduce identical values, so they stay clean).
    Clean,
    /// Succeeded, but through a fallback that changes what the timings
    /// measure; the checksum is still verified.
    Degraded,
    /// Did not produce a usable result.
    Failed,
}

/// The structured record a completed job produces.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobResult {
    /// Scheduler-assigned id (submission order; results sorted by id
    /// reproduce serial order).
    pub id: u64,
    /// The spec that ran.
    pub spec: JobSpec,
    /// Outcome.
    pub status: JobStatus,
    /// The i32 checksum the run produced (matches the native mirror).
    pub checksum: Option<i32>,
    /// FNV-1a of the compiled wasm bytes the job ran (0 if it never got
    /// that far). Lets callers key caches without re-hashing.
    pub bytes_hash: u64,
    /// Seconds in decode+validate+compile/translate (or artifact load
    /// when `warm_artifact`).
    pub compile_s: f64,
    /// Seconds executing (instantiate + run).
    pub exec_s: f64,
    /// AOT precompilation seconds (`ExecAot` only).
    pub aot_compile_s: Option<f64>,
    /// Simulated counters (`Profiled` / `ProfiledNative` only).
    pub counters: Option<archsim::Counters>,
    /// Whether `compile_s` measured a warm artifact-store load rather
    /// than a cold compile.
    pub warm_artifact: bool,
    /// End-to-end wall seconds inside the job.
    pub wall_s: f64,
    /// What the resilience layer did (retries, fallbacks, repairs).
    pub recovery: Recovery,
    /// Span digest: phase timestamps on the server trace clock plus the
    /// echoed client trace context (zero for untraced submits).
    pub trace: TraceDigest,
}

impl JobResult {
    /// A zeroed result for `spec` with `status`.
    pub fn new(spec: &JobSpec, status: JobStatus) -> JobResult {
        JobResult {
            id: 0,
            spec: spec.clone(),
            status,
            checksum: None,
            bytes_hash: 0,
            compile_s: 0.0,
            exec_s: 0.0,
            aot_compile_s: None,
            counters: None,
            warm_artifact: false,
            wall_s: 0.0,
            recovery: Recovery::default(),
            trace: TraceDigest::default(),
        }
    }

    /// Whether the job completed successfully.
    pub fn ok(&self) -> bool {
        self.status == JobStatus::Ok
    }

    /// Whether the result is correct but measured through a degradation
    /// path (currently: interpreter fallback after a JIT compile
    /// failure).
    pub fn degraded(&self) -> bool {
        self.ok() && self.recovery.compile_fallback
    }

    /// The clean/degraded/failed verdict.
    pub fn outcome(&self) -> Outcome {
        if !self.ok() {
            Outcome::Failed
        } else if self.degraded() {
            Outcome::Degraded
        } else {
            Outcome::Clean
        }
    }

    /// The job's server timeline as the stitcher and the exemplar
    /// buffer read it: the span digest's timestamps, the compile and
    /// execute durations, and what recovery did. The scheduler's worker
    /// and every client build it from the same result.
    pub fn phases(&self) -> ServerPhases {
        ServerPhases {
            trace_id: self.trace.trace_id,
            enqueue_ns: self.trace.enqueue_ns,
            start_ns: self.trace.start_ns,
            done_ns: self.trace.done_ns,
            compile_ns: (self.compile_s.max(0.0) * 1e9) as u64,
            exec_ns: (self.exec_s.max(0.0) * 1e9) as u64,
            attempts: self.recovery.attempts,
            compile_fallback: self.recovery.compile_fallback,
            store_repairs: self.recovery.store_repairs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_and_mode_bytes_round_trip() {
        for s in [Scale::Test, Scale::Profile, Scale::Timing] {
            assert_eq!(Scale::from_byte(s.byte()), Some(s));
        }
        assert_eq!(Scale::from_byte(7), None);
        for m in [
            JobMode::Exec,
            JobMode::ExecAot,
            JobMode::Profiled,
            JobMode::ProfiledNative,
            JobMode::SelfTestPanic,
            JobMode::SelfTestHang,
            JobMode::SelfTestFlaky,
        ] {
            assert_eq!(JobMode::from_byte(m.byte()), Some(m));
        }
        assert_eq!(JobMode::from_byte(99), None);
    }

    #[test]
    fn spec_displays_readably() {
        let spec = JobSpec::exec("crc32", EngineKind::Wasmtime, OptLevel::O2, Scale::Test);
        let s = format!("{spec}");
        assert!(s.contains("crc32") && s.contains("Wasmtime") && s.contains("-O2"));
    }
}
