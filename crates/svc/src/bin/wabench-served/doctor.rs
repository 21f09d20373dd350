//! `wabench-served doctor` — postmortem and live-service diagnosis.
//!
//! Reads either a flight-recorder bundle (written by `serve` when an
//! alert starts firing, `--postmortem-dir`) or a live server over its
//! socket, correlates the evidence — firing alerts, armed fault sites,
//! resilience counters, breaker trips, queue saturation, the hottest
//! profile phase, slowest exemplars — and prints a ranked diagnosis:
//! one human paragraph followed by machine-readable
//! `finding rank=N kind=... ` lines scripts can grep.
//!
//! Exit code 0 when nothing looks wrong, 1 when there is at least one
//! finding, 2 on usage errors and on evidence it cannot read (a missing
//! or malformed bundle, a socket nothing answers on) — so a caller can
//! tell "findings" from "no diagnosis at all" with `rc -gt 1`.

use std::cmp::Reverse;
use std::path::Path;
use std::process::exit;

use obs::cli::{self, Args, Command, Flag};
use obs::json::Value;
use obs::series::Window;
use svc::scheduler::POSTMORTEM_SERIES_TAIL;
use svc::server::Client;

#[rustfmt::skip]
pub const COMMAND: Command = Command::new("doctor", &[
    Flag::value("--bundle", "FILE", "diagnose a flight-recorder bundle written by serve"),
    Flag::value("--socket", "PATH", "diagnose a live server over its socket"),
    Flag::value("--top", "N", "cap the number of findings printed").default("8"),
]);

/// Everything the ranker looks at, normalized from either source.
#[derive(Debug, Default)]
struct Evidence {
    source: String,
    /// The transition that triggered the snapshot (bundles only).
    alert: Option<Firing>,
    firing: Vec<Firing>,
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
    /// the last `POSTMORTEM_SERIES_TAIL` points, bundle or live.
    profile: Vec<(String, f64)>,
    /// `(label, total_ns)` slow exemplars, slowest first.
    exemplars: Vec<(String, u64)>,
}

#[derive(Debug, Clone, Default)]
struct Firing {
    rule: String,
    value: f64,
    threshold: f64,
    detail: String,
}

/// One ranked diagnosis entry: a machine `kind=.. key=val` tail plus a
/// human sentence.
struct Finding {
    severity: u8,
    kind: &'static str,
    machine: String,
    human: String,
}

fn num(v: &Value, key: &str) -> f64 {
    v.get(key).and_then(Value::as_num).unwrap_or(0.0)
}

fn text(v: &Value, key: &str) -> String {
    v.get(key)
        .and_then(Value::as_str)
        .unwrap_or_default()
        .to_string()
}

fn firing_of(v: &Value) -> Firing {
    Firing {
        rule: text(v, "rule"),
        value: num(v, "value"),
        threshold: num(v, "threshold"),
        detail: text(v, "detail"),
    }
}

/// Hottest-first shares parsed from a collapsed-stack body
/// (`stack weight` per line).
fn shares_of_folded(folded: &str) -> Vec<(String, f64)> {
    let mut phases: Vec<(String, u64)> = folded
        .lines()
        .filter_map(|line| {
            let (stack, weight) = line.rsplit_once(' ')?;
            Some((stack.to_string(), weight.parse().ok()?))
        })
        .collect();
    let total: u64 = phases.iter().map(|(_, w)| *w).sum();
    if total == 0 {
        return Vec::new();
    }
    phases.sort_by_key(|(_, w)| Reverse(*w));
    phases
        .into_iter()
        .map(|(stack, w)| (stack, w as f64 / total as f64))
        .collect()
}

fn evidence_from_bundle(path: &Path) -> Result<Evidence, String> {
    let body = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    evidence_from_json(&path.display().to_string(), &body)
}

/// Normalizes a postmortem bundle's JSON text; `source` names where it
/// came from in messages.
fn evidence_from_json(source: &str, body: &str) -> Result<Evidence, String> {
    let root = obs::json::parse(body).map_err(|e| format!("{source}: {e}"))?;
    if text(&root, "schema") != "wabench-postmortem" {
        return Err(format!("{source}: not a wabench-postmortem bundle"));
    }
    let mut ev = Evidence {
        source: format!("bundle {source}"),
        ..Evidence::default()
    };
    ev.alert = root.get("alert").map(firing_of);
    if let Some(arr) = root.get("firing").and_then(Value::as_arr) {
        ev.firing = arr.iter().map(firing_of).collect();
    }
    if let Some(h) = root.get("health") {
        ev.retries = num(h, "retries") as u64;
        ev.compile_fallbacks = num(h, "compile_fallbacks") as u64;
        ev.store_repairs = num(h, "store_repairs") as u64;
        ev.breaker_fast_fails = num(h, "breaker_fast_fails") as u64;
        ev.queue_depth = num(h, "queue_depth") as u64;
        ev.peak_queue_depth = num(h, "peak_queue_depth") as u64;
        if let Some(arr) = h.get("faults").and_then(Value::as_arr) {
            ev.faults = arr
                .iter()
                .map(|f| (text(f, "site"), num(f, "rate"), num(f, "injected") as u64))
                .collect();
        }
        if let Some(arr) = h.get("breakers").and_then(Value::as_arr) {
            ev.breakers = arr
                .iter()
                .map(|b| {
                    let code = num(b, "engine") as u8;
                    let name = engines::EngineKind::from_code(code)
                        .map_or_else(|| format!("engine#{code}"), |k| k.name().to_string());
                    (name, text(b, "state"), num(b, "trips") as u64)
                })
                .filter(|(_, state, trips)| state != "closed" || *trips > 0)
                .collect();
        }
    }
    if let Some(p) = root.get("profile") {
        ev.profile = shares_of_folded(&text(p, "folded"));
    }
    if let Some(arr) = root.get("exemplars").and_then(Value::as_arr) {
        ev.exemplars = arr
            .iter()
            .map(|e| (text(e, "label"), num(e, "total_ns") as u64))
            .collect();
        ev.exemplars.sort_by_key(|(_, ns)| Reverse(*ns));
    }
    Ok(ev)
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
    match client.alert_log() {
        Ok(a) => {
            ev.firing = a
                .firing
                .iter()
                .map(|f| Firing {
                    rule: f.rule.clone(),
                    value: f.value,
                    threshold: f.threshold,
                    detail: f.detail.clone(),
                })
                .collect();
        }
        Err(e) => note_refusal(e),
    }
    match client.series() {
        Ok(s) => {
            // The span a postmortem bundle's profile covers.
            let tail = s.points.len().saturating_sub(POSTMORTEM_SERIES_TAIL as usize);
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
             (alerts/series/trace) were refused; diagnosing fleet aggregates only — \
             point --socket at a shard for full detail (see docs/DEPLOYMENT.md)"
        );
    }
    Ok(ev)
}

/// The ranked correlation pass. Severity buckets (higher = earlier):
/// firing alerts (5) > armed faults actually injecting (4) > fallback
/// and repair counters (3) > breaker / retry / queue pressure (2) >
/// profile hot-spot context (1).
fn diagnose(ev: &Evidence) -> Vec<Finding> {
    let mut findings = Vec::new();
    for f in &ev.firing {
        findings.push(Finding {
            severity: 5,
            kind: "alert",
            machine: format!(
                "rule={} value={:.4} threshold={:.4}",
                f.rule, f.value, f.threshold
            ),
            human: format!(
                "alert `{}` is firing: value {:.4} vs threshold {:.4} ({})",
                f.rule, f.value, f.threshold, f.detail
            ),
        });
    }
    for (site, rate, injected) in &ev.faults {
        if *injected > 0 {
            findings.push(Finding {
                severity: 4,
                kind: "fault",
                machine: format!("site={site} rate={rate} injected={injected}"),
                human: format!(
                    "fault injection at `{site}` (rate {rate}) has fired {injected} times — \
                     the most likely root cause of any latency or failure alert"
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
        if !ev.firing.is_empty() || findings.iter().any(|f| f.severity >= 3) {
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
    let bundle = a.opt("--bundle", "a file", cli::path);
    let ev = match (bundle, a.opt("--socket", "a path", cli::path)) {
        (Some(path), None) => evidence_from_bundle(&path),
        (None, Some(path)) => evidence_from_socket(&path),
        _ => a.fail("exactly one of --bundle or --socket is required"),
    }
    .unwrap_or_else(|e| {
        obs::error!("{e}");
        exit(2);
    });

    println!("doctor: {}", ev.source);
    if let Some(a) = &ev.alert {
        println!(
            "snapshot trigger: `{}` fired at value {:.4} vs threshold {:.4} ({})",
            a.rule, a.value, a.threshold, a.detail
        );
    }
    let findings = diagnose(&ev);
    if findings.is_empty() {
        println!("diagnosis: healthy — no firing alerts, injected faults, fallbacks, or saturation");
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

    fn bundle_evidence(body: &str) -> Evidence {
        evidence_from_json("test bundle", body).expect("parse bundle")
    }

    const BUNDLE: &str = r#"{
        "schema": "wabench-postmortem", "version": 2,
        "alert": {"seq": 3, "t_ns": 9, "rule": "p99", "value": 0.02, "threshold": 0.005, "detail": "p99 over ceiling"},
        "firing": [{"rule": "p99", "since_ns": 5, "value": 0.02, "threshold": 0.005, "detail": "p99 over ceiling"}],
        "series": [], "exemplars": [{"label": "crc32/wasm3", "total_ns": 21000000, "attempts": 1, "compile_fallback": false}],
        "profile": {"first_seq": 2, "last_seq": 9, "folded": "wasm3;compile 100\nwasm3;exec 900\n"},
        "health": {"retries": 0, "compile_fallbacks": 0, "store_repairs": 0, "breaker_fast_fails": 0,
                   "queue_depth": 0, "peak_queue_depth": 4, "breakers": [],
                   "faults": [{"site": "delay", "rate": 1.0, "injected": 12}]}
    }"#;

    #[test]
    fn bundle_diagnosis_ranks_the_firing_alert_then_the_fault_site() {
        let ev = bundle_evidence(BUNDLE);
        assert_eq!(ev.alert.as_ref().map(|a| a.rule.as_str()), Some("p99"));
        let findings = diagnose(&ev);
        assert!(findings.len() >= 2, "alert + fault at minimum");
        assert_eq!(findings[0].kind, "alert");
        assert!(findings[0].machine.contains("rule=p99"));
        assert_eq!(findings[1].kind, "fault");
        assert!(
            findings[1].machine.contains("site=delay"),
            "the injected fault site must be named: {}",
            findings[1].machine
        );
    }

    #[test]
    fn profile_context_names_the_hottest_phase() {
        let ev = bundle_evidence(BUNDLE);
        assert_eq!(ev.profile.first().map(|(s, _)| s.as_str()), Some("wasm3;exec"));
        let findings = diagnose(&ev);
        let prof = findings.iter().find(|f| f.kind == "profile").expect("profile finding");
        assert!(prof.machine.contains("phase=wasm3;exec"));
        assert!(prof.machine.contains("share=0.900"));
    }

    #[test]
    fn healthy_evidence_yields_no_findings() {
        let ev = bundle_evidence(
            r#"{"schema": "wabench-postmortem", "version": 2, "firing": [], "series": [],
                "exemplars": [], "profile": null,
                "health": {"retries": 0, "compile_fallbacks": 0, "store_repairs": 0,
                           "breaker_fast_fails": 0, "queue_depth": 0, "peak_queue_depth": 0,
                           "breakers": [], "faults": []}}"#,
        );
        assert!(diagnose(&ev).is_empty());
    }

    #[test]
    fn non_bundle_json_is_rejected() {
        let err = evidence_from_json("other.json", r#"{"schema": "something-else"}"#)
            .expect_err("must reject");
        assert!(err.contains("not a wabench-postmortem bundle"));
    }

    #[test]
    fn folded_shares_sort_hottest_first_and_skip_garbage_lines() {
        let shares = shares_of_folded("a;x 100\nnot-a-line\nb;y 300\n");
        assert_eq!(shares[0].0, "b;y");
        assert!((shares[0].1 - 0.75).abs() < 1e-9);
        assert_eq!(shares.len(), 2);
    }
}
