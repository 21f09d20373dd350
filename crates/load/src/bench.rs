//! The versioned `BENCH_<timestamp>.json` trajectory artifact.
//!
//! One artifact per load run: the run configuration (including the
//! seed, so any trajectory point can be reproduced exactly), sustained
//! throughput and outcome totals, and per engine×level cell latency
//! quantiles. Artifacts are the input to `wabench-prof diff`'s
//! throughput/SLO gate, so the format is versioned and parsed strictly:
//! readers reject schemas and versions they do not understand.
//!
//! The workspace builds offline with no serialization framework, so the
//! writer is hand-rolled and the reader goes through [`obs::json`],
//! like the `prof` baseline store.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use obs::json::{self, Value};

/// Schema tag every artifact carries — how `wabench-prof diff` sniffs a
/// BENCH file apart from a baseline file.
pub const BENCH_SCHEMA: &str = "wabench-bench";

/// Artifact layout version this build writes.
pub const BENCH_VERSION: u64 = 1;

/// The run configuration, echoed into the artifact.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BenchConfig {
    /// The arrival/mix seed.
    pub seed: u64,
    /// Mix preset name (`fig1`, `arch`, ...).
    pub mix: String,
    /// Workload scale spelling (`test`/`profile`/`timing`).
    pub scale: String,
    /// Target arrival rate, jobs per second.
    pub qps: f64,
    /// Jobs per phase.
    pub jobs: u64,
    /// How the stack was driven: `inproc` or `socket`.
    pub driver: String,
    /// Worker threads (in-process driver; 0 when unknown over a socket).
    pub workers: u64,
    /// Fault plan spec, empty when none was armed.
    pub faults: String,
    /// Comma-joined phase names, in run order (`cold,warm`).
    pub phases: String,
}

/// Run-level outcome totals.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct BenchTotals {
    /// Jobs submitted across all phases.
    pub submitted: u64,
    /// Jobs whose results were collected.
    pub completed: u64,
    /// ... of which clean.
    pub ok: u64,
    /// ... correct but degraded (e.g. interpreter fallback).
    pub degraded: u64,
    /// ... failed/panicked/timed out.
    pub failed: u64,
    /// Transport-level errors talking to the service (0 in-process).
    pub protocol_errors: u64,
    /// Submits the target refused with a `Busy` reply
    /// (router admission control). Refused work, not errors: the run
    /// keeps going and the artifact records how much was turned away.
    pub shed: u64,
    /// Wall seconds from first intended arrival to last collection.
    pub wall_s: f64,
    /// Sustained throughput: completed / wall_s.
    pub qps: f64,
    /// Peak scheduler queue depth (from `Health`; 0 if unknown).
    pub peak_queue_depth: u64,
}

/// Latency summary for one engine×level cell, nanoseconds, measured
/// from *intended* arrival to collected completion.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BenchCell {
    /// `engine/level` key, e.g. `Wasmtime/-O2`.
    pub cell: String,
    /// Collected completions in the cell.
    pub count: u64,
    /// Mean latency.
    pub mean_ns: u64,
    /// Median.
    pub p50_ns: u64,
    /// 95th percentile.
    pub p95_ns: u64,
    /// 99th percentile.
    pub p99_ns: u64,
    /// Worst observation.
    pub max_ns: u64,
}

/// One live-telemetry sample interval, echoed from the server's
/// `Series` window into the artifact (optional: present
/// only when the run's target was sampling).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct BenchSeriesPoint {
    /// Monotone sample number since the server's sampler started.
    pub seq: u64,
    /// Sample time on the server trace clock, ns.
    pub t_ns: u64,
    /// Nanoseconds the sample covers.
    pub interval_ns: u64,
    /// Jobs completed during the interval.
    pub completed: u64,
    /// ... of which failed.
    pub failed: u64,
    /// Queue depth at sample time.
    pub queue_depth: u64,
    /// Interval job-latency median, ns (0 when idle).
    pub p50_ns: u64,
    /// Interval job-latency p99, ns (0 when idle).
    pub p99_ns: u64,
}

/// Per-shard attribution when the run's target was a `wabench-router`
/// socket, echoed from the `Backends` reply (optional:
/// plain `wabench-served` targets have no routing table and the
/// section stays absent).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BenchBackend {
    /// Shard name from the router config.
    pub name: String,
    /// Whether the shard's last health probe succeeded.
    pub healthy: bool,
    /// Jobs the router forwarded to this shard.
    pub forwarded: u64,
    /// Jobs diverted off this shard to a ring replica.
    pub failovers: u64,
}

/// One complete trajectory point.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BenchArtifact {
    /// Run configuration.
    pub config: BenchConfig,
    /// Outcome totals.
    pub totals: BenchTotals,
    /// Per-cell latency summaries, sorted by cell key.
    pub cells: Vec<BenchCell>,
    /// The server's live sample window over the run (empty — and
    /// omitted from the JSON — when the target ran without a sampler,
    /// so v1 artifacts from older writers parse unchanged).
    pub series: Vec<BenchSeriesPoint>,
    /// Per-shard routing attribution (empty — and omitted from the
    /// JSON — when the target was not a router).
    pub backends: Vec<BenchBackend>,
}

impl BenchArtifact {
    /// Serializes the artifact as a single JSON document. `{}` on f64
    /// prints the shortest round-tripping representation.
    pub fn to_json(&self) -> String {
        let c = &self.config;
        let t = &self.totals;
        let mut s = format!(
            "{{\"schema\":\"{BENCH_SCHEMA}\",\"v\":{BENCH_VERSION},\n\
             \"config\":{{\"seed\":{},\"mix\":\"{}\",\"scale\":\"{}\",\"qps\":{},\"jobs\":{},\"driver\":\"{}\",\"workers\":{},\"faults\":\"{}\",\"phases\":\"{}\"}},\n",
            c.seed,
            json::escape(&c.mix),
            json::escape(&c.scale),
            c.qps,
            c.jobs,
            json::escape(&c.driver),
            c.workers,
            json::escape(&c.faults),
            json::escape(&c.phases),
        );
        let _ = writeln!(
            s,
            "\"totals\":{{\"submitted\":{},\"completed\":{},\"ok\":{},\"degraded\":{},\"failed\":{},\"protocol_errors\":{},\"shed\":{},\"wall_s\":{},\"qps\":{},\"peak_queue_depth\":{}}},",
            t.submitted,
            t.completed,
            t.ok,
            t.degraded,
            t.failed,
            t.protocol_errors,
            t.shed,
            t.wall_s,
            t.qps,
            t.peak_queue_depth,
        );
        s.push_str("\"cells\":[");
        let mut sorted: BTreeMap<&str, &BenchCell> = BTreeMap::new();
        for cell in &self.cells {
            sorted.insert(&cell.cell, cell);
        }
        for (i, cell) in sorted.values().enumerate() {
            if i > 0 {
                s.push_str(",\n");
            }
            let _ = write!(
                s,
                "{{\"cell\":\"{}\",\"count\":{},\"mean_ns\":{},\"p50_ns\":{},\"p95_ns\":{},\"p99_ns\":{},\"max_ns\":{}}}",
                json::escape(&cell.cell),
                cell.count,
                cell.mean_ns,
                cell.p50_ns,
                cell.p95_ns,
                cell.p99_ns,
                cell.max_ns,
            );
        }
        s.push(']');
        if !self.series.is_empty() {
            s.push_str(",\n\"series\":[");
            for (i, p) in self.series.iter().enumerate() {
                if i > 0 {
                    s.push_str(",\n");
                }
                let _ = write!(
                    s,
                    "{{\"seq\":{},\"t_ns\":{},\"interval_ns\":{},\"completed\":{},\"failed\":{},\"queue_depth\":{},\"p50_ns\":{},\"p99_ns\":{}}}",
                    p.seq,
                    p.t_ns,
                    p.interval_ns,
                    p.completed,
                    p.failed,
                    p.queue_depth,
                    p.p50_ns,
                    p.p99_ns,
                );
            }
            s.push(']');
        }
        if !self.backends.is_empty() {
            s.push_str(",\n\"backends\":[");
            for (i, b) in self.backends.iter().enumerate() {
                if i > 0 {
                    s.push_str(",\n");
                }
                let _ = write!(
                    s,
                    "{{\"name\":\"{}\",\"healthy\":{},\"forwarded\":{},\"failovers\":{}}}",
                    json::escape(&b.name),
                    b.healthy,
                    b.forwarded,
                    b.failovers,
                );
            }
            s.push(']');
        }
        s.push_str("}\n");
        s
    }

    /// Parses an artifact document.
    ///
    /// # Errors
    ///
    /// A message on malformed JSON, a wrong schema tag, an unsupported
    /// version, or a missing field.
    pub fn parse(doc: &str) -> Result<BenchArtifact, String> {
        let v = json::parse(doc)?;
        match v.get("schema").and_then(Value::as_str) {
            Some(BENCH_SCHEMA) => {}
            Some(other) => return Err(format!("not a BENCH artifact (schema {other:?})")),
            None => return Err("not a BENCH artifact (no schema tag)".to_string()),
        }
        let version = num(&v, "v")? as u64;
        if version == 0 || version > BENCH_VERSION {
            return Err(format!(
                "unsupported BENCH version {version} (this build reads up to v{BENCH_VERSION})"
            ));
        }
        let c = v.get("config").ok_or("missing config object")?;
        let t = v.get("totals").ok_or("missing totals object")?;
        let cells_v = v
            .get("cells")
            .and_then(Value::as_arr)
            .ok_or("missing cells array")?;
        let mut cells = Vec::with_capacity(cells_v.len());
        for cv in cells_v {
            cells.push(BenchCell {
                cell: str_field(cv, "cell")?,
                count: num(cv, "count")? as u64,
                mean_ns: num(cv, "mean_ns")? as u64,
                p50_ns: num(cv, "p50_ns")? as u64,
                p95_ns: num(cv, "p95_ns")? as u64,
                p99_ns: num(cv, "p99_ns")? as u64,
                max_ns: num(cv, "max_ns")? as u64,
            });
        }
        // `backends` is optional: absent (non-router targets, older
        // writers) means empty.
        let mut backends = Vec::new();
        if let Some(backends_v) = v.get("backends").and_then(Value::as_arr) {
            for bv in backends_v {
                backends.push(BenchBackend {
                    name: str_field(bv, "name")?,
                    healthy: matches!(bv.get("healthy"), Some(Value::Bool(true))),
                    forwarded: num(bv, "forwarded")? as u64,
                    failovers: num(bv, "failovers")? as u64,
                });
            }
        }
        // `series` is optional: absent (pre-telemetry writers, sampler
        // off) means empty.
        let mut series = Vec::new();
        if let Some(series_v) = v.get("series").and_then(Value::as_arr) {
            for sv in series_v {
                series.push(BenchSeriesPoint {
                    seq: num(sv, "seq")? as u64,
                    t_ns: num(sv, "t_ns")? as u64,
                    interval_ns: num(sv, "interval_ns")? as u64,
                    completed: num(sv, "completed")? as u64,
                    failed: num(sv, "failed")? as u64,
                    queue_depth: num(sv, "queue_depth")? as u64,
                    p50_ns: num(sv, "p50_ns")? as u64,
                    p99_ns: num(sv, "p99_ns")? as u64,
                });
            }
        }
        Ok(BenchArtifact {
            config: BenchConfig {
                seed: num(c, "seed")? as u64,
                mix: str_field(c, "mix")?,
                scale: str_field(c, "scale")?,
                qps: num(c, "qps")?,
                jobs: num(c, "jobs")? as u64,
                driver: str_field(c, "driver")?,
                workers: num(c, "workers")? as u64,
                faults: str_field(c, "faults")?,
                phases: str_field(c, "phases")?,
            },
            totals: BenchTotals {
                submitted: num(t, "submitted")? as u64,
                completed: num(t, "completed")? as u64,
                ok: num(t, "ok")? as u64,
                degraded: num(t, "degraded")? as u64,
                failed: num(t, "failed")? as u64,
                protocol_errors: num(t, "protocol_errors")? as u64,
                // Absent in artifacts written before routed serving.
                shed: t.get("shed").and_then(Value::as_num).unwrap_or(0.0) as u64,
                wall_s: num(t, "wall_s")?,
                qps: num(t, "qps")?,
                peak_queue_depth: num(t, "peak_queue_depth")? as u64,
            },
            cells,
            series,
            backends,
        })
    }

    /// Reads an artifact file.
    ///
    /// # Errors
    ///
    /// I/O failures and parse errors, both prefixed with the path.
    pub fn read_file(path: &Path) -> Result<BenchArtifact, String> {
        let doc =
            std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        BenchArtifact::parse(&doc).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Whether a document looks like a BENCH artifact (cheap sniff for
    /// `wabench-prof diff`, which also accepts JSON-lines baselines).
    pub fn sniff(doc: &str) -> bool {
        doc.trim_start()
            .starts_with(&format!("{{\"schema\":\"{BENCH_SCHEMA}\""))
    }

    /// The latency summary for `cell`, if recorded.
    pub fn cell(&self, cell: &str) -> Option<&BenchCell> {
        self.cells.iter().find(|c| c.cell == cell)
    }
}

fn num(v: &Value, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Value::as_num)
        .ok_or_else(|| format!("missing numeric field {key:?}"))
}

fn str_field(v: &Value, key: &str) -> Result<String, String> {
    Ok(v.get(key)
        .and_then(Value::as_str)
        .ok_or_else(|| format!("missing string field {key:?}"))?
        .to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BenchArtifact {
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
                ok: 78,
                degraded: 1,
                failed: 1,
                protocol_errors: 0,
                shed: 0,
                wall_s: 0.4125,
                qps: 193.9,
                peak_queue_depth: 9,
            },
            cells: vec![
                BenchCell {
                    cell: "wasm3/-O2".into(),
                    count: 41,
                    mean_ns: 900_000,
                    p50_ns: 800_000,
                    p95_ns: 2_000_000,
                    p99_ns: 3_500_000,
                    max_ns: 4_000_000,
                },
                BenchCell {
                    cell: "wasmtime/-O2".into(),
                    count: 39,
                    mean_ns: 500_000,
                    p50_ns: 400_000,
                    p95_ns: 1_000_000,
                    p99_ns: 1_500_000,
                    max_ns: 1_600_000,
                },
            ],
            series: Vec::new(),
            backends: Vec::new(),
        }
    }

    #[test]
    fn artifacts_round_trip_exactly() {
        let a = sample();
        assert_eq!(BenchArtifact::parse(&a.to_json()).expect("parses"), a);
    }

    #[test]
    fn series_window_round_trips_and_is_omitted_when_empty() {
        let mut a = sample();
        assert!(
            !a.to_json().contains("\"series\""),
            "empty window stays off the wire for v1 compatibility"
        );
        a.series = vec![
            BenchSeriesPoint {
                seq: 3,
                t_ns: 1_000_000,
                interval_ns: 250_000_000,
                completed: 40,
                failed: 1,
                queue_depth: 6,
                p50_ns: 700_000,
                p99_ns: 3_000_000,
            },
            BenchSeriesPoint {
                seq: 4,
                t_ns: 251_000_000,
                interval_ns: 250_000_000,
                completed: 38,
                failed: 0,
                queue_depth: 2,
                p50_ns: 650_000,
                p99_ns: 2_100_000,
            },
        ];
        let back = BenchArtifact::parse(&a.to_json()).expect("parses");
        assert_eq!(back, a);
        assert_eq!(back.series.len(), 2);
    }

    #[test]
    fn backends_section_round_trips_and_is_omitted_when_absent() {
        let mut a = sample();
        assert!(
            !a.to_json().contains("\"backends\""),
            "non-router runs must not grow a backends section"
        );
        a.totals.shed = 3;
        a.backends = vec![
            BenchBackend {
                name: "shard-0".into(),
                healthy: true,
                forwarded: 50,
                failovers: 0,
            },
            BenchBackend {
                name: "shard-1".into(),
                healthy: false,
                forwarded: 27,
                failovers: 3,
            },
        ];
        let back = BenchArtifact::parse(&a.to_json()).expect("parses");
        assert_eq!(back, a);
        assert_eq!(back.totals.shed, 3);
        assert!(!back.backends[1].healthy);
    }

    #[test]
    fn pre_router_totals_without_shed_still_parse() {
        let doc = sample().to_json().replace("\"shed\":0,", "");
        let back = BenchArtifact::parse(&doc).expect("old artifact parses");
        assert_eq!(back.totals.shed, 0);
    }

    #[test]
    fn sniff_separates_artifacts_from_baselines() {
        assert!(BenchArtifact::sniff(&sample().to_json()));
        assert!(!BenchArtifact::sniff("{\"v\":2,\"bench\":\"crc32\"}"));
        assert!(!BenchArtifact::sniff("not json"));
    }

    #[test]
    fn wrong_schema_and_future_versions_are_rejected() {
        let doc = sample().to_json().replace(BENCH_SCHEMA, "other-schema");
        let err = BenchArtifact::parse(&doc).expect_err("must reject");
        assert!(err.contains("schema"), "{err}");
        let doc = sample().to_json().replace("\"v\":1", "\"v\":99");
        let err = BenchArtifact::parse(&doc).expect_err("must reject");
        assert!(err.contains("version 99"), "{err}");
    }

    #[test]
    fn cells_serialize_sorted_by_key() {
        let mut a = sample();
        a.cells.reverse();
        let back = BenchArtifact::parse(&a.to_json()).expect("parses");
        assert_eq!(back.cells[0].cell, "wasm3/-O2");
        assert_eq!(back.cells[1].cell, "wasmtime/-O2");
        assert!(back.cell("wasmtime/-O2").is_some());
        assert!(back.cell("wavm/-O2").is_none());
    }
}
