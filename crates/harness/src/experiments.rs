//! The experiment drivers: one function per table/figure in the paper's
//! evaluation (Figures 1–10 plus appendix Figures 11–14, Tables 4–5).

use crate::matrix;
use crate::report::{pct, ratio, secs, Report};
use crate::runner::{self, Scale};
use crate::stats::geomean;
use suite::{Benchmark, Group};
use wacc::OptLevel;

fn group_benches(group: Group) -> Vec<&'static Benchmark> {
    suite::all().iter().filter(|b| b.group == group).collect()
}

/// Figure 1: normalized execution time of every benchmark on every
/// runtime (baseline: native execution).
pub fn fig1(scale: Scale) -> Vec<Report> {
    let engines = matrix::engines("fig1");
    let mut header = vec!["benchmark".to_string()];
    header.extend(engines.iter().map(|e| e.name().to_string()));
    let mut report = Report::new(
        "Figure 1",
        "Normalized execution time vs native (lower is better)",
        header,
    );
    let mut per_engine: Vec<Vec<f64>> = vec![Vec::new(); engines.len()];
    let mut slow_max: (f64, String) = (0.0, String::new());
    let mut slow_min: (f64, String) = (f64::INFINITY, String::new());
    for b in suite::all() {
        let n = scale.arg(b);
        let native_s = crate::stats::time_secs(
            || {
                std::hint::black_box((b.native)(n));
            },
            0.05,
            5,
        );
        let mut row = vec![b.name.to_string()];
        for (i, kind) in engines.iter().enumerate() {
            let t = runner::run_engine(b, *kind, OptLevel::O2, scale).total();
            let r = t / native_s;
            per_engine[i].push(r);
            row.push(ratio(r));
            if r > slow_max.0 {
                slow_max = (r, format!("{} on {}", b.name, kind.name()));
            }
            if r < slow_min.0 {
                slow_min = (r, format!("{} on {}", b.name, kind.name()));
            }
        }
        report.row(row);
    }
    let mut geo = vec!["geomean".to_string()];
    for v in &per_engine {
        geo.push(ratio(geomean(v)));
    }
    report.row(geo);
    report.note(format!(
        "extremes: max {} ({}), min {} ({})",
        ratio(slow_max.0),
        slow_max.1,
        ratio(slow_min.0),
        slow_min.1
    ));
    report.note(
        "paper (Finding 1): average slowdown 1.67x (Wasmtime), 3.54x (WAVM), \
         1.59x (Wasmer), 6.99x (Wasm3), 9.57x (WAMR); max 135.11x (WAVM/jpeg), \
         min 1.01x (WAVM/adi)",
    );
    vec![report]
}

/// Figure 2 (+ Figure 11 detail): Wasmer's three JIT backends, normalized
/// to SinglePass.
pub fn fig2(scale: Scale) -> Vec<Report> {
    let backends = matrix::engines("fig2");
    let mut detail = Report::new(
        "Figure 11",
        "Wasmer backends per benchmark (normalized to SinglePass)",
        vec![
            "benchmark".into(),
            "SinglePass".into(),
            "Cranelift".into(),
            "LLVM".into(),
        ],
    );
    // group -> per-backend ratios
    let mut grouped: Vec<(String, Vec<Vec<f64>>)> = Vec::new();
    for group in Group::all() {
        let mut per_backend: Vec<Vec<f64>> = vec![Vec::new(); 3];
        for b in group_benches(group) {
            let times: Vec<f64> = backends
                .iter()
                .map(|kind| runner::run_engine(b, *kind, OptLevel::O2, scale).total())
                .collect();
            let base = times[0];
            let mut row = vec![b.name.to_string()];
            for (i, t) in times.iter().enumerate() {
                per_backend[i].push(t / base);
                row.push(ratio(t / base));
            }
            detail.row(row);
        }
        grouped.push((group.name().to_string(), per_backend));
    }
    let mut summary = Report::new(
        "Figure 2",
        "Wasmer backends, geometric means per suite (normalized to SinglePass)",
        vec![
            "suite".into(),
            "SinglePass".into(),
            "Cranelift".into(),
            "LLVM".into(),
        ],
    );
    let mut all_cl = Vec::new();
    let mut all_ll = Vec::new();
    for (name, per_backend) in &grouped {
        summary.row(vec![
            name.clone(),
            ratio(geomean(&per_backend[0])),
            ratio(geomean(&per_backend[1])),
            ratio(geomean(&per_backend[2])),
        ]);
        all_cl.extend_from_slice(&per_backend[1]);
        all_ll.extend_from_slice(&per_backend[2]);
    }
    summary.row(vec![
        "overall".into(),
        ratio(1.0),
        ratio(geomean(&all_cl)),
        ratio(geomean(&all_ll)),
    ]);
    summary.note(
        "paper (Finding 2): vs SinglePass, Cranelift 1.74x speedup (0.58x time), \
         LLVM 1.43x speedup (0.70x time); Cranelift best on the suites, LLVM best \
         on most whole applications",
    );
    vec![summary, detail]
}

/// Figure 3 (+ Figure 12) and Table 4: AOT compilation.
pub fn fig3_table4(scale: Scale) -> Vec<Report> {
    let jits = matrix::engines("fig3");
    let mut detail = Report::new(
        "Figure 12",
        "AOT speedup per benchmark (baseline: same engine without AOT)",
        vec![
            "benchmark".into(),
            "Wasmtime".into(),
            "WAVM".into(),
            "Wasmer".into(),
        ],
    );
    let mut table4 = Report::new(
        "Table 4",
        "AOT compilation times (and % of no-AOT total execution time)",
        vec![
            "workload".into(),
            "Wasmtime".into(),
            "WAVM".into(),
            "Wasmer".into(),
        ],
    );
    struct Acc {
        speedups: [Vec<f64>; 3],
        aot_s: [Vec<f64>; 3],
        aot_pct: [Vec<f64>; 3],
    }
    let mut per_group: Vec<(String, Acc)> = Vec::new();
    for group in Group::all() {
        let mut acc = Acc {
            speedups: [Vec::new(), Vec::new(), Vec::new()],
            aot_s: [Vec::new(), Vec::new(), Vec::new()],
            aot_pct: [Vec::new(), Vec::new(), Vec::new()],
        };
        for b in group_benches(group) {
            let mut row = vec![b.name.to_string()];
            let mut t4: [String; 3] = Default::default();
            for (i, kind) in jits.iter().enumerate() {
                let jit = runner::run_engine(b, *kind, OptLevel::O2, scale);
                let (aot_compile, aot) = runner::run_engine_aot(b, *kind, OptLevel::O2, scale);
                let speedup = jit.total() / aot.total();
                acc.speedups[i].push(speedup);
                acc.aot_s[i].push(aot_compile);
                acc.aot_pct[i].push(aot_compile / jit.total());
                row.push(ratio(speedup));
                t4[i] = format!("{} ({})", secs(aot_compile), pct(aot_compile / jit.total()));
            }
            detail.row(row);
            if group == Group::Apps {
                table4.row(vec![b.name.to_string(), t4[0].clone(), t4[1].clone(), t4[2].clone()]);
            }
        }
        per_group.push((group.name().to_string(), acc));
    }
    // Table 4 rows for suite groups (prepend) and average.
    let mut t4_rows: Vec<Vec<String>> = Vec::new();
    let mut avg = [(0.0, 0.0); 3];
    let mut count = 0usize;
    for (name, acc) in &per_group {
        if name != "Whole Applications" {
            let mut row = vec![name.clone()];
            for i in 0..3 {
                row.push(format!(
                    "{} ({})",
                    secs(crate::stats::mean(&acc.aot_s[i])),
                    pct(crate::stats::mean(&acc.aot_pct[i]))
                ));
            }
            t4_rows.push(row);
        }
        for (i, a) in avg.iter_mut().enumerate() {
            a.0 += acc.aot_s[i].iter().sum::<f64>();
            a.1 += acc.aot_pct[i].iter().sum::<f64>();
        }
        count += acc.aot_s[0].len();
    }
    for (idx, row) in t4_rows.into_iter().enumerate() {
        table4.rows.insert(idx, row);
    }
    let mut avg_row = vec!["Average".to_string()];
    for a in avg {
        avg_row.push(format!(
            "{} ({})",
            secs(a.0 / count as f64),
            pct(a.1 / count as f64)
        ));
    }
    table4.row(avg_row);
    table4.note(
        "paper: averages 0.09s (0.67%) Wasmtime, 0.93s (9.52%) WAVM, 0.06s (0.48%) Wasmer",
    );

    let mut fig3 = Report::new(
        "Figure 3",
        "AOT speedup, geometric means per suite (baseline: no AOT)",
        vec![
            "suite".into(),
            "Wasmtime".into(),
            "WAVM".into(),
            "Wasmer".into(),
        ],
    );
    let mut all: [Vec<f64>; 3] = [Vec::new(), Vec::new(), Vec::new()];
    for (name, acc) in &per_group {
        fig3.row(vec![
            name.clone(),
            ratio(geomean(&acc.speedups[0])),
            ratio(geomean(&acc.speedups[1])),
            ratio(geomean(&acc.speedups[2])),
        ]);
        for (i, a) in all.iter_mut().enumerate() {
            a.extend_from_slice(&acc.speedups[i]);
        }
    }
    fig3.row(vec![
        "overall".into(),
        ratio(geomean(&all[0])),
        ratio(geomean(&all[1])),
        ratio(geomean(&all[2])),
    ]);
    fig3.note(
        "paper (Finding 3): AOT speedup 1.02x Wasmtime, 1.73x WAVM, 1.02x Wasmer; \
         up to 14.19x (WAVM/facedetection)",
    );
    vec![fig3, table4, detail]
}

/// Figure 4: impact of compiler optimization levels (-O0..-O3).
pub fn fig4(scale: Scale) -> Vec<Report> {
    let levels = matrix::levels("fig4");
    let engines = matrix::engines("fig4");
    let mut report = Report::new(
        "Figure 4",
        "Speedup from compiler optimization levels (baseline: -O0, geomean over WABench)",
        vec![
            "configuration".into(),
            "-O0".into(),
            "-O1".into(),
            "-O2".into(),
            "-O3".into(),
        ],
    );
    // Engine rows.
    for kind in engines {
        let mut per_level: Vec<Vec<f64>> = vec![Vec::new(); 4];
        for b in suite::all() {
            let t0 = runner::run_engine(b, kind, levels[0], scale).total();
            for (li, level) in levels.iter().enumerate() {
                let t = runner::run_engine(b, kind, *level, scale).total();
                per_level[li].push(t0 / t);
            }
        }
        let mut row = vec![kind.name().to_string()];
        for v in &per_level {
            row.push(ratio(geomean(v)));
        }
        report.row(row);
    }
    // Native row: the reference evaluator executing the AST optimized at
    // each level (stand-in for natively compiling the same source at -OX).
    let mut per_level: Vec<Vec<f64>> = vec![Vec::new(); 4];
    for b in suite::all() {
        let n = b.sizes.test;
        let src = b.full_source();
        let times: Vec<f64> = levels
            .iter()
            .map(|level| {
                let program = wacc::frontend(&src, *level).expect("frontend");
                crate::stats::time_secs(
                    || {
                        let mut ev = wacc::eval::Evaluator::new(&program);
                        let _ = std::hint::black_box(
                            ev.call("run", &[wacc::eval::V::I32(n)]).expect("eval"),
                        );
                    },
                    0.02,
                    3,
                )
            })
            .collect();
        for (li, t) in times.iter().enumerate() {
            per_level[li].push(times[0] / t);
        }
    }
    let mut row = vec!["native (evaluator proxy)".to_string()];
    for v in &per_level {
        row.push(ratio(geomean(v)));
    }
    report.row(row);
    report.note(
        "paper (Finding 4): -O2 vs -O0 speedups 1.44x-3.57x across runtimes \
         (3.57x Wasm3); native gains more (1.94x at -O2) than JIT runtimes",
    );
    vec![report]
}

/// Figure 5 (+ Figure 13): normalized maximum resident set sizes.
pub fn fig5(scale: Scale) -> Vec<Report> {
    let engines = runner::engines();
    let mut header = vec!["benchmark".to_string()];
    header.extend(engines.iter().map(|e| e.name().to_string()));
    let mut detail = Report::new(
        "Figure 13",
        "Normalized MRSS per benchmark (baseline: native footprint)",
        header.clone(),
    );
    let mut summary = Report::new(
        "Figure 5",
        "Normalized MRSS, geometric means per suite + whole applications",
        header,
    );
    let mut per_engine_all: Vec<Vec<f64>> = vec![Vec::new(); engines.len()];
    let mut app_rows: Vec<Vec<String>> = Vec::new();
    for group in Group::all() {
        let mut per_engine: Vec<Vec<f64>> = vec![Vec::new(); engines.len()];
        for b in group_benches(group) {
            let n = scale.arg(b);
            let bytes = runner::wasm_bytes(b, OptLevel::O2);
            let native_peak = (b.native_footprint)(n) + runner::NATIVE_BASE_RSS;
            let mut row = vec![b.name.to_string()];
            for (i, kind) in engines.iter().enumerate() {
                let r = runner::run_memory(*kind, &bytes, n);
                let norm = r.normalized_to_native(native_peak);
                per_engine[i].push(norm);
                per_engine_all[i].push(norm);
                row.push(ratio(norm));
            }
            detail.row(row.clone());
            if group == Group::Apps {
                app_rows.push(row);
            }
        }
        if group != Group::Apps {
            let mut row = vec![group.name().to_string()];
            for v in &per_engine {
                row.push(ratio(geomean(v)));
            }
            summary.row(row);
        }
    }
    for row in app_rows {
        summary.row(row);
    }
    let mut geo = vec!["geomean".to_string()];
    for v in &per_engine_all {
        geo.push(ratio(geomean(v)));
    }
    summary.row(geo);
    summary.note(
        "paper (Finding 5): runtimes consume 1.26x-5.50x the native MRSS; WAVM \
         consumes the most (31.66x on JetStream2), Wasm3 the least (1.55x)",
    );
    vec![summary, detail]
}

fn arch_normalized(
    id: &str,
    title: &str,
    paper_note: &str,
    scale: Scale,
    metric: impl Fn(&archsim::Counters) -> f64,
) -> Vec<Report> {
    let engines = matrix::engines("arch");
    let mut header = vec!["benchmark".to_string()];
    header.extend(engines.iter().map(|e| e.name().to_string()));
    let mut report = Report::new(id, title, header);
    let mut per_engine: Vec<Vec<f64>> = vec![Vec::new(); engines.len()];
    for b in suite::all() {
        let native = metric(&runner::run_native_profiled(b, OptLevel::O2, scale)).max(1.0);
        let mut row = vec![b.name.to_string()];
        for (i, kind) in engines.iter().enumerate() {
            let c = runner::run_profiled(b, *kind, OptLevel::O2, scale);
            let r = metric(&c) / native;
            per_engine[i].push(r);
            row.push(ratio(r));
        }
        report.row(row);
    }
    let mut geo = vec!["geomean".to_string()];
    for v in &per_engine {
        geo.push(ratio(geomean(v)));
    }
    report.row(geo);
    report.note(paper_note);
    vec![report]
}

/// Figure 6 (+14): normalized dynamically executed instructions.
pub fn fig6(scale: Scale) -> Vec<Report> {
    arch_normalized(
        "Figure 6",
        "Normalized dynamic instructions (baseline: native)",
        "paper (Finding 6): runtimes execute 2.03x-14.61x the native instructions; \
         interpreters far above the JIT runtimes",
        scale,
        |c| c.instructions as f64,
    )
}

/// Figure 7: instructions per cycle.
pub fn fig7(scale: Scale) -> Vec<Report> {
    let engines = matrix::engines("arch");
    let mut header = vec!["benchmark".to_string(), "Native".to_string()];
    header.extend(engines.iter().map(|e| e.name().to_string()));
    let mut report = Report::new("Figure 7", "Instructions per cycle (IPC)", header);
    let mut native_all = Vec::new();
    let mut per_engine: Vec<Vec<f64>> = vec![Vec::new(); engines.len()];
    for b in suite::all() {
        let native = runner::run_native_profiled(b, OptLevel::O2, scale).ipc();
        native_all.push(native);
        let mut row = vec![b.name.to_string(), format!("{native:.2}")];
        for (i, kind) in engines.iter().enumerate() {
            let ipc = runner::run_profiled(b, *kind, OptLevel::O2, scale).ipc();
            per_engine[i].push(ipc);
            row.push(format!("{ipc:.2}"));
        }
        report.row(row);
    }
    let mut geo = vec![
        "geomean".to_string(),
        format!("{:.2}", geomean(&native_all)),
    ];
    for v in &per_engine {
        geo.push(format!("{:.2}", geomean(v)));
    }
    report.row(geo);
    report.note(
        "paper (Finding 6): IPC > 1 nearly everywhere; runtime IPC generally \
         above native (more work per cycle available)",
    );
    vec![report]
}

/// Figure 8 + Table 5: branch prediction misses and miss ratios.
pub fn fig8_table5(scale: Scale) -> Vec<Report> {
    let mut out = arch_normalized(
        "Figure 8",
        "Normalized branch prediction misses (baseline: native)",
        "paper (Finding 7): misses 1.52x (Wasmtime), 8.99x (WAVM), 1.56x (Wasmer), \
         12.64x (Wasm3), 8.14x (WAMR) of native",
        scale,
        |c| c.branch_misses as f64,
    );
    let engines = matrix::engines("arch");
    let mut header = vec!["benchmark".to_string(), "Native".to_string()];
    header.extend(engines.iter().map(|e| e.name().to_string()));
    let mut t5 = Report::new("Table 5", "Branch prediction miss ratios", header);
    let mut native_all = Vec::new();
    let mut per_engine: Vec<Vec<f64>> = vec![Vec::new(); engines.len()];
    for b in suite::all() {
        let native = runner::run_native_profiled(b, OptLevel::O2, scale).branch_miss_ratio();
        native_all.push(native.max(1e-6));
        let mut row = vec![b.name.to_string(), pct(native)];
        for (i, kind) in engines.iter().enumerate() {
            let r = runner::run_profiled(b, *kind, OptLevel::O2, scale).branch_miss_ratio();
            per_engine[i].push(r.max(1e-6));
            row.push(pct(r));
        }
        t5.row(row);
    }
    let mut geo = vec!["geomean".to_string(), pct(geomean(&native_all))];
    for v in &per_engine {
        geo.push(pct(geomean(v)));
    }
    t5.row(geo);
    t5.note(
        "paper: geomeans 1.01% native, 0.77% Wasmtime, 1.69% WAVM, 0.92% Wasmer, \
         0.76% Wasm3, 0.53% WAMR — ratios close to native despite many more misses",
    );
    out.push(t5);
    out
}

/// Figures 9 and 10: cache misses (normalized) and miss ratios.
pub fn fig9_fig10(scale: Scale) -> Vec<Report> {
    let mut out = arch_normalized(
        "Figure 9",
        "Normalized cache misses (baseline: native)",
        "paper (Finding 8): 1.91x, 4.60x, 1.73x, 1.39x, 1.60x for Wasmtime, WAVM, \
         Wasmer, Wasm3, WAMR",
        scale,
        |c| c.cache_misses as f64,
    );
    let engines = matrix::engines("arch");
    let mut header = vec!["benchmark".to_string(), "Native".to_string()];
    header.extend(engines.iter().map(|e| e.name().to_string()));
    let mut f10 = Report::new("Figure 10", "Cache miss ratios (LLC)", header);
    let mut native_all = Vec::new();
    let mut per_engine: Vec<Vec<f64>> = vec![Vec::new(); engines.len()];
    for b in suite::all() {
        let native = runner::run_native_profiled(b, OptLevel::O2, scale).cache_miss_ratio();
        native_all.push(native.max(1e-6));
        let mut row = vec![b.name.to_string(), pct(native)];
        for (i, kind) in engines.iter().enumerate() {
            let r = runner::run_profiled(b, *kind, OptLevel::O2, scale).cache_miss_ratio();
            per_engine[i].push(r.max(1e-6));
            row.push(pct(r));
        }
        f10.row(row);
    }
    let mut geo = vec!["geomean".to_string(), pct(geomean(&native_all))];
    for v in &per_engine {
        geo.push(pct(geomean(v)));
    }
    f10.row(geo);
    f10.note(
        "paper: average miss ratios 11.13% native vs 12.98%, 5.57%, 13.26%, 7.97%, \
         8.99% for the runtimes — similar to native",
    );
    out.push(f10);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    // The experiment drivers are exercised end-to-end (at tiny scale) by
    // the integration tests; here we only check pure helpers.
    #[test]
    fn groups_cover_all_benchmarks() {
        let total: usize = Group::all().iter().map(|g| group_benches(*g).len()).sum();
        assert_eq!(total, suite::all().len());
    }
}
