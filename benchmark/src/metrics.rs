//! The metric tables: every name the benchmark can print, with its unit
//! and direction. `BENCHMARK.json` must declare exactly these
//! (`check-manifest` compares the two), and a run fails loudly if a
//! workload reports a name that is not here or leaves one out.

use std::collections::BTreeMap;

/// One declared metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Manifest name.
    pub name: &'static str,
    /// Manifest unit.
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
}

const fn def(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// What a user of the system sees; reported with `--trace 0` by every
/// workload, never 0.
pub const END_TO_END: &[MetricDef] = &[
    def("setup_s", "s", "lower"),
    def("throughput_jobs_s", "jobs/s", "higher"),
    def("job_geomean_ms", "ms", "lower"),
    def("lat_p50_ms", "ms", "lower"),
    def("lat_p90_ms", "ms", "lower"),
];

/// Single layers; reported with `--trace 1` by every workload. A value
/// of 0 means the workload has no such event (no simulated instructions
/// outside `arch_profiled`, no open-loop phase outside `serve_warm`, …).
pub const PER_LAYER: &[MetricDef] = &[
    // ---- from the workload's own jobs and spans ----
    def("span.client_submit_us_p50", "us", "lower"),
    def("span.compile_or_load_ms_p50", "ms", "lower"),
    def("span.execute_ms_p50", "ms", "lower"),
    def("span.svc_reply_us_p50", "us", "lower"),
    def("svc.exec.overhead_us_p50", "us", "lower"),
    def("svc.scheduler.submit_pickup_us_p50", "us", "lower"),
    def("svc.scheduler.queue_wait_ms_p50", "ms", "lower"),
    def("svc.scheduler.queue_wait_ms_tail", "ms", "lower"),
    def("svc.scheduler.peak_queue_depth", "count", "lower"),
    def("selftime.client_submit.p50_pct", "%", "lower"),
    def("selftime.svc_queue.p50_pct", "%", "lower"),
    def("selftime.svc_job_other.p50_pct", "%", "lower"),
    def("selftime.compile_or_load.p50_pct", "%", "lower"),
    def("selftime.execute.p50_pct", "%", "lower"),
    def("selftime.svc_reply.p50_pct", "%", "lower"),
    def("selftime.client_submit.tail_pct", "%", "lower"),
    def("selftime.svc_queue.tail_pct", "%", "lower"),
    def("selftime.svc_job_other.tail_pct", "%", "lower"),
    def("selftime.compile_or_load.tail_pct", "%", "lower"),
    def("selftime.execute.tail_pct", "%", "lower"),
    def("selftime.svc_reply.tail_pct", "%", "lower"),
    def("svc.store.hit_ratio", "ratio", "higher"),
    def("svc.store.puts", "count", "lower"),
    def("svc.store.evictions", "count", "lower"),
    def("engines.wasmtime.exec_ms_geomean", "ms", "lower"),
    def("engines.wavm.exec_ms_geomean", "ms", "lower"),
    def("engines.wasmer.exec_ms_geomean", "ms", "lower"),
    def("engines.wasm3.exec_ms_geomean", "ms", "lower"),
    def("engines.wamr.exec_ms_geomean", "ms", "lower"),
    def("archsim.sim_instructions", "count", "lower"),
    def("archsim.sim_minstr_s", "Minstr/s", "higher"),
    def("archsim.host_ns_per_sim_instr", "ns", "lower"),
    def("archsim.counters_digest", "count", "lower"),
    def("archsim.ipc.wasmtime", "ratio", "higher"),
    def("archsim.ipc.wavm", "ratio", "higher"),
    def("archsim.ipc.wasmer", "ratio", "higher"),
    def("archsim.ipc.wasm3", "ratio", "higher"),
    def("archsim.ipc.wamr", "ratio", "higher"),
    def("archsim.ipc.native", "ratio", "higher"),
    def("archsim.branch_mpki.wasmtime", "1/kinstr", "lower"),
    def("archsim.branch_mpki.wavm", "1/kinstr", "lower"),
    def("archsim.branch_mpki.wasmer", "1/kinstr", "lower"),
    def("archsim.branch_mpki.wasm3", "1/kinstr", "lower"),
    def("archsim.branch_mpki.wamr", "1/kinstr", "lower"),
    def("archsim.branch_mpki.native", "1/kinstr", "lower"),
    def("svc.reactor.rtt_us_p50", "us", "lower"),
    def("svc.reactor.rtt_us_p99", "us", "lower"),
    def("load.lat_p50_ms_lo", "ms", "lower"),
    def("load.lat_tail_ms_lo", "ms", "lower"),
    def("load.lat_p50_ms_hi", "ms", "lower"),
    def("load.lat_tail_ms_hi", "ms", "lower"),
    def("load.tail_percentile", "%", "higher"),
    def("load.gen_lateness_ms_p99", "ms", "lower"),
    def("load.slo_max_rate_qps", "1/s", "higher"),
    def("obs.trace_overhead_pct", "%", "lower"),
    def("proc.rss_mb", "MiB", "lower"),
    def("proc.peak_rss_mb", "MiB", "lower"),
    // ---- probes: the same calls on every workload ----
    def("wacc.compile_us_p50", "us", "lower"),
    def("wacc.module_bytes", "bytes", "lower"),
    def("wasm-core.decode_us_p50", "us", "lower"),
    def("wasm-core.validate_us_p50", "us", "lower"),
    def("wasm-core.decode_mb_s", "MB/s", "higher"),
    def("engines.singlepass.compile_us_p50", "us", "lower"),
    def("engines.cranelift.compile_us_p50", "us", "lower"),
    def("engines.llvm.compile_us_p50", "us", "lower"),
    def("engines.wasm3.translate_us_p50", "us", "lower"),
    def("engines.wamr.prepare_us_p50", "us", "lower"),
    def("engines.jit.final_ops", "count", "lower"),
    def("engines.jit.op_visits", "count", "lower"),
    def("engines.jit.code_bytes", "bytes", "lower"),
    def("engines.aot.precompile_us_p50", "us", "lower"),
    def("engines.aot.load_us_p50", "us", "lower"),
    def("engines.aot.artifact_bytes", "bytes", "lower"),
    def("engines.instantiate_us_p50", "us", "lower"),
    def("svc.proto.encode_ns_p50", "ns", "lower"),
    def("svc.proto.decode_ns_p50", "ns", "lower"),
    def("svc.wire.frame_ns_p50", "ns", "lower"),
    def("svc.store.get_hit_us_p50", "us", "lower"),
    def("svc.store.get_miss_us_p50", "us", "lower"),
    def("svc.store.put_us_p50", "us", "lower"),
    def("router.ring.lookup_ns_p50", "ns", "lower"),
];

/// A set of reported values, keyed by metric name.
pub type Values = BTreeMap<&'static str, f64>;

/// Checks that `values` holds exactly the names of `defs`; returns the
/// first name missing or undeclared.
pub fn check_complete(defs: &[MetricDef], values: &Values) -> Result<(), String> {
    for d in defs {
        if !values.contains_key(d.name) {
            return Err(format!(
                "metric {:?} is declared but was not reported",
                d.name
            ));
        }
    }
    for name in values.keys() {
        if !defs.iter().any(|d| d.name == *name) {
            return Err(format!("metric {name:?} was reported but is not declared"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(seen.insert(d.name), "duplicate {}", d.name);
            assert!(crate::manifest::is_name(d.name), "{}", d.name);
            assert!(
                crate::manifest::is_unit(d.unit),
                "{} unit {}",
                d.name,
                d.unit
            );
            assert!(matches!(d.better, "lower" | "higher"));
        }
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s"));
    }

    #[test]
    fn completeness_check_names_the_offender() {
        let mut v = Values::new();
        for d in END_TO_END {
            v.insert(d.name, 1.0);
        }
        assert!(check_complete(END_TO_END, &v).is_ok());
        v.remove("lat_p50_ms");
        assert!(check_complete(END_TO_END, &v)
            .unwrap_err()
            .contains("lat_p50_ms"));
        v.insert("lat_p50_ms", 1.0);
        v.insert("bogus", 1.0);
        assert!(check_complete(END_TO_END, &v)
            .unwrap_err()
            .contains("bogus"));
    }
}
