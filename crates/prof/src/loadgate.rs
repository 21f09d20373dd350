//! The throughput/SLO regression gate behind `wabench-prof diff` for
//! BENCH trajectory artifacts.
//!
//! Baselines gate single-execution cells; BENCH artifacts gate the
//! *serving* behavior: sustained QPS, per engine×level tail latency,
//! and failure/protocol-error counts from an open-loop `wabench-load`
//! run. Latency under load is noisy, so the p99 rule needs both a
//! relative increase and an absolute floor before it fires — a 2×
//! slowdown on a 40µs cell is scheduler jitter, on a 4ms cell it is a
//! regression. Failures and protocol errors are exact counts and gate
//! on any increase.

use load::bench::BenchArtifact;

use crate::diff::DiffReport;

/// Thresholds for [`diff_load`].
#[derive(Debug, Clone, Copy)]
pub struct LoadRule {
    /// Relative sustained-QPS drop required to fire (0.20 = −20%).
    pub qps_drop_rel: f64,
    /// Relative per-cell p99 increase required to fire (1.0 = 2×).
    pub p99_rel: f64,
    /// Absolute p99 increase floor in ns — both must hold.
    pub p99_abs_ns: u64,
}

impl Default for LoadRule {
    fn default() -> LoadRule {
        LoadRule {
            qps_drop_rel: 0.20,
            p99_rel: 0.75,
            p99_abs_ns: 250_000,
        }
    }
}

/// Compares a current BENCH artifact against a baseline one.
///
/// Comparing runs with different configs (seed, mix, scale, rate,
/// driver) is meaningless, so config drift is a hard regression, not a
/// note.
pub fn diff_load(base: &BenchArtifact, cur: &BenchArtifact, rule: &LoadRule) -> DiffReport {
    let mut report = DiffReport::default();

    // The trajectory is only comparable point-to-point under one config.
    let (bc, cc) = (&base.config, &cur.config);
    for (what, b, c) in [
        ("mix", &bc.mix, &cc.mix),
        ("scale", &bc.scale, &cc.scale),
        ("driver", &bc.driver, &cc.driver),
        ("phases", &bc.phases, &cc.phases),
    ] {
        if b != c {
            report.regressions.push(format!(
                "config mismatch: {what} {b:?} (baseline) vs {c:?} (current) — runs are not comparable"
            ));
        }
    }
    if bc.seed != cc.seed || bc.jobs != cc.jobs || (bc.qps - cc.qps).abs() > f64::EPSILON {
        report.regressions.push(format!(
            "config mismatch: seed/jobs/qps {}:{}:{} (baseline) vs {}:{}:{} (current) — runs are not comparable",
            bc.seed, bc.jobs, bc.qps, cc.seed, cc.jobs, cc.qps
        ));
    }
    if !report.regressions.is_empty() {
        return report;
    }

    let (bt, ct) = (&base.totals, &cur.totals);
    if bt.qps > 0.0 && ct.qps < bt.qps * (1.0 - rule.qps_drop_rel) {
        report.regressions.push(format!(
            "sustained QPS {:.1} → {:.1} ({:+.1}%)",
            bt.qps,
            ct.qps,
            (ct.qps / bt.qps - 1.0) * 100.0
        ));
    }
    if ct.failed > bt.failed {
        report.regressions.push(format!(
            "failed jobs {} → {} (same seed: every job is the same job)",
            bt.failed, ct.failed
        ));
    }
    if ct.protocol_errors > bt.protocol_errors {
        report.regressions.push(format!(
            "protocol errors {} → {}",
            bt.protocol_errors, ct.protocol_errors
        ));
    }
    if ct.degraded > bt.degraded {
        report.notes.push(format!(
            "degraded jobs {} → {} (correct but measured through fallback)",
            bt.degraded, ct.degraded
        ));
    }

    for c in &cur.cells {
        let Some(b) = base.cell(&c.cell) else {
            report.notes.push(format!("{}: new cell (no baseline)", c.cell));
            continue;
        };
        report.checked += 1;
        let threshold =
            (b.p99_ns as f64 * (1.0 + rule.p99_rel)).max(b.p99_ns as f64 + rule.p99_abs_ns as f64);
        if (c.p99_ns as f64) > threshold {
            report.regressions.push(format!(
                "{}: p99 {} → {} ({:+.1}%)",
                c.cell,
                obs::metrics::fmt_ns(b.p99_ns),
                obs::metrics::fmt_ns(c.p99_ns),
                (c.p99_ns as f64 / b.p99_ns.max(1) as f64 - 1.0) * 100.0
            ));
        }
    }
    for b in &base.cells {
        if cur.cell(&b.cell).is_none() {
            report
                .notes
                .push(format!("{}: in baseline but not in current run", b.cell));
        }
    }
    // Live-telemetry context: a run against a sampling
    // server embeds its series window. Purely informational — the
    // gate's signal stays the end-of-run quantiles — but the note makes
    // a flagged regression attributable to a burst vs. a level shift.
    if !cur.series.is_empty() {
        let peak_p99 = cur.series.iter().map(|p| p.p99_ns).max().unwrap_or(0);
        let peak_queue = cur.series.iter().map(|p| p.queue_depth).max().unwrap_or(0);
        report.notes.push(format!(
            "live series: {} intervals, peak interval p99 {}, peak sampled queue {}",
            cur.series.len(),
            obs::metrics::fmt_ns(peak_p99),
            peak_queue
        ));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use load::bench::{BenchCell, BenchConfig, BenchTotals};

    fn artifact() -> BenchArtifact {
        BenchArtifact {
            config: BenchConfig {
                seed: 7,
                mix: "fig1".into(),
                scale: "test".into(),
                qps: 200.0,
                jobs: 40,
                driver: "socket".into(),
                workers: 4,
                faults: String::new(),
                phases: "cold,warm".into(),
            },
            totals: BenchTotals {
                submitted: 80,
                completed: 80,
                ok: 80,
                degraded: 0,
                failed: 0,
                protocol_errors: 0,
                shed: 0,
                wall_s: 0.4,
                qps: 200.0,
                peak_queue_depth: 5,
            },
            cells: vec![
                BenchCell {
                    cell: "Wasmtime/-O2".into(),
                    count: 40,
                    mean_ns: 1_000_000,
                    p50_ns: 800_000,
                    p95_ns: 2_000_000,
                    p99_ns: 3_000_000,
                    max_ns: 3_500_000,
                },
                BenchCell {
                    cell: "Wasm3/-O2".into(),
                    count: 40,
                    mean_ns: 2_000_000,
                    p50_ns: 1_500_000,
                    p95_ns: 4_000_000,
                    p99_ns: 6_000_000,
                    max_ns: 7_000_000,
                },
            ],
            series: Vec::new(),
            backends: Vec::new(),
        }
    }

    #[test]
    fn clean_vs_clean_passes() {
        let a = artifact();
        let report = diff_load(&a, &a.clone(), &LoadRule::default());
        assert!(report.ok(), "{:?}", report.regressions);
        assert_eq!(report.checked, 2);
    }

    #[test]
    fn synthetic_2x_slowdown_of_one_cell_fails_and_names_it() {
        let base = artifact();
        let mut cur = artifact();
        cur.cells[0].p99_ns *= 2;
        let report = diff_load(&base, &cur, &LoadRule::default());
        assert!(!report.ok());
        assert_eq!(report.regressions.len(), 1, "{:?}", report.regressions);
        assert!(
            report.regressions[0].contains("Wasmtime/-O2"),
            "{:?}",
            report.regressions
        );
    }

    #[test]
    fn tiny_absolute_increases_do_not_fire() {
        // 2× relative but under the absolute floor: jitter, not signal.
        let mut base = artifact();
        base.cells[0].p99_ns = 40_000;
        let mut cur = base.clone();
        cur.cells[0].p99_ns = 80_000;
        let report = diff_load(&base, &cur, &LoadRule::default());
        assert!(report.ok(), "{:?}", report.regressions);
    }

    #[test]
    fn qps_drop_and_new_failures_fail() {
        let base = artifact();
        let mut cur = artifact();
        cur.totals.qps = 120.0;
        cur.totals.failed = 2;
        cur.totals.protocol_errors = 1;
        let report = diff_load(&base, &cur, &LoadRule::default());
        let all = report.regressions.join("\n");
        assert!(all.contains("QPS"), "{all}");
        assert!(all.contains("failed jobs"), "{all}");
        assert!(all.contains("protocol errors"), "{all}");
    }

    #[test]
    fn config_drift_is_a_hard_error() {
        let base = artifact();
        let mut cur = artifact();
        cur.config.seed = 8;
        let report = diff_load(&base, &cur, &LoadRule::default());
        assert!(!report.ok());
        assert!(report.regressions[0].contains("not comparable"));
        // Config errors short-circuit: no cells were compared.
        assert_eq!(report.checked, 0);
    }

    #[test]
    fn series_window_is_a_note_not_a_gate() {
        use load::bench::BenchSeriesPoint;
        let base = artifact();
        let mut cur = artifact();
        cur.series = vec![BenchSeriesPoint {
            seq: 1,
            t_ns: 0,
            interval_ns: 250_000_000,
            completed: 40,
            failed: 0,
            queue_depth: 9,
            p50_ns: 800_000,
            p99_ns: 4_000_000,
        }];
        let report = diff_load(&base, &cur, &LoadRule::default());
        assert!(report.ok(), "{:?}", report.regressions);
        let all = report.notes.join("\n");
        assert!(all.contains("live series: 1 intervals"), "{all}");
        assert!(all.contains("peak sampled queue 9"), "{all}");
    }

    #[test]
    fn missing_and_new_cells_are_notes() {
        let base = artifact();
        let mut cur = artifact();
        cur.cells[1].cell = "WAVM/-O2".into();
        let report = diff_load(&base, &cur, &LoadRule::default());
        assert!(report.ok(), "{:?}", report.regressions);
        assert_eq!(report.notes.len(), 2, "{:?}", report.notes);
    }
}
