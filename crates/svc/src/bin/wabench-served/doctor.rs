//! `wabench-served doctor` — live-service diagnosis.
//!
//! Reads a live server over its socket (`Health`, `Series`,
//! `TraceDump`), correlates the evidence — armed fault sites,
//! resilience counters, breaker trips, queue saturation, the hottest
//! profile phase, slowest exemplars — and prints a ranked diagnosis:
//! one human paragraph followed by machine-readable
//! `finding rank=N kind=... ` lines scripts can grep.
//!
//! Exit code 0 when nothing looks wrong, 1 when there is at least one
//! finding, 2 on usage errors and on a socket nothing answers on — so a
//! caller can tell "findings" from "no diagnosis at all" with
//! `rc -gt 1`.

use std::cmp::Reverse;
use std::path::Path;
use std::process::exit;

use obs::cli::{self, Args, Command, Flag};
use obs::series::Window;
use svc::server::Client;

#[rustfmt::skip]
pub const COMMAND: Command = Command::new("doctor", &[
    crate::SOCKET,
    Flag::value("--top", "N", "cap the number of findings printed").default("8"),
]);

/// The newest series points the profile finding reads: 16 s at the
/// `serve` default 250 ms cadence.
const PROFILE_POINTS: usize = 64;

/// Everything the ranker looks at, normalized from the server's
/// replies.
#[derive(Debug, Default)]
struct Evidence {
    source: String,
    /// `(site, configured rate, injected count)`.
    faults: Vec<(String, f64, u64)>,
    retries: u64,
    compile_fallbacks: u64,
    store_repairs: u64,
    breaker_fast_fails: u64,
    queue_depth: u64,
    peak_queue_depth: u64,
    /// `(engine, state, trips)` for breakers not currently closed or
    /// with at least one trip.
    breakers: Vec<(String, String, u64)>,
    /// `(stack, share of the series tail's self-time)`, hottest first:
    /// the last [`PROFILE_POINTS`] points.
    profile: Vec<(String, f64)>,
    /// `(label, total_ns)` slow exemplars, slowest first.
    exemplars: Vec<(String, u64)>,
}

/// One ranked diagnosis entry: a machine `kind=.. key=val` tail plus a
/// human sentence.
struct Finding {
    severity: u8,
    kind: &'static str,
    machine: String,
    human: String,
}

fn evidence_from_socket(path: &Path) -> Result<Evidence, String> {
    let mut client =
        Client::connect(path).map_err(|e| format!("connect {}: {e}", path.display()))?;
    let health = client.health().map_err(|e| format!("health: {e}"))?;
    let mut ev = Evidence {
        source: format!("live {}", path.display()),
        retries: health.resilience.retries,
        compile_fallbacks: health.resilience.compile_fallbacks,
        store_repairs: health.resilience.store_repairs,
        breaker_fast_fails: health.resilience.breaker_fast_fails,
        queue_depth: health.queue_depth,
        peak_queue_depth: health.peak_queue_depth,
        ..Evidence::default()
    };
    ev.faults = health
        .faults
        .iter()
        .map(|(code, rate, injected)| {
            let site = fault::Site::from_code(*code).map_or("unknown", fault::Site::key);
            (site.to_string(), *rate, *injected)
        })
        .collect();
    ev.breakers = health
        .breakers
        .iter()
        .filter(|(_, b)| b.state != fault::BreakerState::Closed || b.trips > 0)
        .map(|(code, b)| {
            let name = engines::EngineKind::from_code(*code)
                .map_or_else(|| format!("engine#{code}"), |k| k.name().to_string());
            (name, b.state.name().to_string(), b.trips)
        })
        .collect();
    // Per-shard extras. A wabench-router target refuses them with a
    // `router:`-prefixed Err (see PROTOCOL.md) and the sections stay
    // empty; say so — the diagnosis then covers fleet aggregates only.
    let mut router_refusals = 0u32;
    let mut note_refusal = |e: std::io::Error| {
        if e.to_string().contains("router:") {
            router_refusals += 1;
        }
    };
    match client.series() {
        Ok(s) => {
            let tail = s.points.len().saturating_sub(PROFILE_POINTS);
            ev.profile = Window::over(&s.points[tail..]).shares(svc::telemetry::engine_name);
            ev.profile.sort_by(|a, b| b.1.total_cmp(&a.1));
        }
        Err(e) => note_refusal(e),
    }
    match client.trace_dump() {
        Ok(t) => {
            ev.exemplars = t
                .exemplars
                .iter()
                .map(|rec| (rec.label.clone(), rec.phases.total_ns()))
                .collect();
            ev.exemplars.sort_by_key(|(_, ns)| Reverse(*ns));
        }
        Err(e) => note_refusal(e),
    }
    if router_refusals > 0 {
        obs::warn!(
            "target is a router: {router_refusals} per-shard request(s) \
             (series/trace) were refused; diagnosing fleet aggregates only — \
             point --socket at a shard for full detail (see docs/DEPLOYMENT.md)"
        );
    }
    Ok(ev)
}

/// The ranked correlation pass. Severity buckets (higher = earlier):
/// armed faults actually injecting (4) > fallback and repair counters
/// (3) > breaker / retry / queue pressure (2) > profile hot-spot
/// context (1).
fn diagnose(ev: &Evidence) -> Vec<Finding> {
    let mut findings = Vec::new();
    for (site, rate, injected) in &ev.faults {
        if *injected > 0 {
            findings.push(Finding {
                severity: 4,
                kind: "fault",
                machine: format!("site={site} rate={rate} injected={injected}"),
                human: format!(
                    "fault injection at `{site}` (rate {rate}) has fired {injected} times — \
                     the most likely root cause of any latency or failure"
                ),
            });
        }
    }
    if ev.compile_fallbacks > 0 {
        findings.push(Finding {
            severity: 3,
            kind: "fallback",
            machine: format!("compile_fallbacks={}", ev.compile_fallbacks),
            human: format!(
                "{} job(s) degraded to the interpreter tier after JIT compile failures — \
                 expect an order-of-magnitude execution slowdown on those jobs",
                ev.compile_fallbacks
            ),
        });
    }
    if ev.store_repairs > 0 {
        findings.push(Finding {
            severity: 3,
            kind: "store",
            machine: format!("store_repairs={}", ev.store_repairs),
            human: format!(
                "{} corrupt artifact(s) were recompiled in place — check the store volume",
                ev.store_repairs
            ),
        });
    }
    for (engine, state, trips) in &ev.breakers {
        findings.push(Finding {
            severity: 2,
            kind: "breaker",
            machine: format!("engine={engine} state={state} trips={trips}"),
            human: format!(
                "circuit breaker for `{engine}` is {state} ({trips} trip(s)); \
                 {} fast-fail(s) were rejected without running",
                ev.breaker_fast_fails
            ),
        });
    }
    if ev.retries > 0 {
        findings.push(Finding {
            severity: 2,
            kind: "retries",
            machine: format!("retries={}", ev.retries),
            human: format!("{} retry attempt(s) beyond first tries", ev.retries),
        });
    }
    if ev.queue_depth > 0 && ev.queue_depth >= ev.peak_queue_depth.max(1) / 2 {
        findings.push(Finding {
            severity: 2,
            kind: "queue",
            machine: format!(
                "queue_depth={} peak_queue_depth={}",
                ev.queue_depth, ev.peak_queue_depth
            ),
            human: format!(
                "queue depth {} is at or near its high-water mark {} — arrivals are \
                 outrunning service capacity",
                ev.queue_depth, ev.peak_queue_depth
            ),
        });
    }
    if let Some((stack, share)) = ev.profile.first() {
        if findings.iter().any(|f| f.severity >= 3) {
            findings.push(Finding {
                severity: 1,
                kind: "profile",
                machine: format!("phase={stack} share={share:.3}"),
                human: format!(
                    "the engine × phase profile puts {:.1}% of recent self-time in `{stack}`",
                    share * 100.0
                ),
            });
        }
    }
    findings.sort_by_key(|f| Reverse(f.severity));
    findings
}

/// `doctor`: gathers the evidence, ranks it, prints the diagnosis.
pub fn run(a: &Args) {
    let top: usize = a.get("--top", "a positive integer", cli::positive);
    let socket = a.get("--socket", "a path", cli::path);
    let ev = evidence_from_socket(&socket).unwrap_or_else(|e| {
        obs::error!("{e}");
        exit(2);
    });

    println!("doctor: {}", ev.source);
    let findings = diagnose(&ev);
    if findings.is_empty() {
        println!("diagnosis: healthy — no injected faults, fallbacks, or saturation");
        exit(0);
    }
    println!(
        "diagnosis: {} finding(s), most severe first",
        findings.len()
    );
    for (rank, f) in findings.iter().take(top).enumerate() {
        println!("  {}. {}", rank + 1, f.human);
    }
    if findings.len() > top {
        println!("  ... {} more (raise --top)", findings.len() - top);
    }
    if let Some((label, total_ns)) = ev.exemplars.first() {
        println!(
            "slowest exemplar: {} at {:.2}ms end-to-end",
            label,
            *total_ns as f64 / 1e6
        );
    }
    for (rank, f) in findings.iter().take(top).enumerate() {
        println!("finding rank={} kind={} {}", rank + 1, f.kind, f.machine);
    }
    exit(1);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Evidence with one finding in every severity bucket, and a
    /// recorded profile.
    fn troubled() -> Evidence {
        Evidence {
            faults: vec![("delay".to_string(), 1.0, 12)],
            retries: 2,
            compile_fallbacks: 1,
            store_repairs: 1,
            breaker_fast_fails: 3,
            queue_depth: 4,
            peak_queue_depth: 4,
            breakers: vec![("wasm3".to_string(), "open".to_string(), 1)],
            profile: vec![("wasm3;exec".to_string(), 0.9), ("wasm3;compile".to_string(), 0.1)],
            exemplars: vec![("crc32/wasm3".to_string(), 21_000_000)],
            ..Evidence::default()
        }
    }

    #[test]
    fn diagnosis_ranks_the_fault_site_first_and_the_profile_last() {
        let findings = diagnose(&troubled());
        let kinds: Vec<&str> = findings.iter().map(|f| f.kind).collect();
        assert_eq!(
            kinds,
            ["fault", "fallback", "store", "breaker", "retries", "queue", "profile"]
        );
        assert!(
            findings[0].machine.contains("site=delay"),
            "the injected fault site must be named: {}",
            findings[0].machine
        );
    }

    #[test]
    fn profile_context_names_the_hottest_phase() {
        let findings = diagnose(&troubled());
        let prof = findings.iter().find(|f| f.kind == "profile").expect("profile finding");
        assert!(prof.machine.contains("phase=wasm3;exec"));
        assert!(prof.machine.contains("share=0.900"));
    }

    /// Pressure alone (severity 2) gets no profile context.
    #[test]
    fn profile_context_needs_a_severe_finding() {
        let ev = Evidence {
            retries: 2,
            profile: troubled().profile,
            ..Evidence::default()
        };
        let kinds: Vec<&str> = diagnose(&ev).iter().map(|f| f.kind).collect();
        assert_eq!(kinds, ["retries"]);
    }

    #[test]
    fn healthy_evidence_yields_no_findings() {
        let ev = Evidence {
            peak_queue_depth: 4,
            profile: troubled().profile,
            exemplars: troubled().exemplars,
            ..Evidence::default()
        };
        assert!(diagnose(&ev).is_empty());
    }
}
