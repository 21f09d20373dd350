//! Per-layer probes: each layer's public functions timed from outside on
//! fixed inputs (the 34 light programs), independent of the workload.
//! Every `p50` is over at least [`MIN_CALLS`] calls; the counts (module
//! bytes, ops, code bytes, artifact bytes) must repeat exactly.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use engines::{Backend, Engine, EngineKind};
use router::ring::Ring;
use svc::job::{JobMode, JobResult, JobSpec, JobStatus, Recovery, Scale, TraceCtx, TraceDigest};
use svc::proto::{Request, Response};
use svc::store::{ArtifactKey, ArtifactStore, GetOutcome};
use wacc::OptLevel;
use wasi_rt::WasiCtx;

use crate::analyze::set;
use crate::metrics::Values;
use crate::stats;
use crate::workloads::light_programs;

/// Fewest calls behind any probe's median.
pub const MIN_CALLS: usize = 200;

/// Times `f` once, in the given unit per second (1e6 = µs, 1e9 = ns).
fn timed<R>(per_second: f64, f: impl FnOnce() -> R) -> (f64, R) {
    let t = Instant::now();
    let out = black_box(f());
    (t.elapsed().as_secs_f64() * per_second, out)
}

/// Median time of `f` over every input, with enough passes over the
/// inputs that at least [`MIN_CALLS`] calls are timed.
fn p50_over<T>(per_second: f64, inputs: &[T], mut f: impl FnMut(&T)) -> f64 {
    let passes = MIN_CALLS.div_ceil(inputs.len().max(1));
    let mut samples = Vec::with_capacity(passes * inputs.len());
    for _ in 0..passes {
        for input in inputs {
            samples.push(timed(per_second, || f(black_box(input))).0);
        }
    }
    stats::median(&samples)
}

/// Median per-call time of a nanosecond-scale `f`, timed in batches of
/// 64 calls so the clock reads do not dominate.
fn p50_ns_batched(mut f: impl FnMut()) -> f64 {
    const BATCH: usize = 64;
    let samples: Vec<f64> = (0..MIN_CALLS)
        .map(|_| {
            timed(1e9, || {
                for _ in 0..BATCH {
                    f();
                }
            })
            .0 / BATCH as f64
        })
        .collect();
    stats::median(&samples)
}

fn sample_result() -> JobResult {
    JobResult {
        id: 7,
        spec: JobSpec {
            benchmark: "gemm".into(),
            engine: EngineKind::Wasmtime,
            level: OptLevel::O2,
            scale: Scale::Test,
            mode: JobMode::Exec,
            warm: true,
        },
        status: JobStatus::Ok,
        checksum: Some(-1_234_567),
        bytes_hash: 0x1234_5678_9abc_def0,
        compile_s: 0.000_31,
        exec_s: 0.000_52,
        aot_compile_s: None,
        counters: None,
        warm_artifact: true,
        wall_s: 0.001_1,
        recovery: Recovery::default(),
        trace: TraceDigest {
            trace_id: 0xfeed,
            origin_ns: 1,
            enqueue_ns: 2,
            start_ns: 3,
            done_ns: 4,
        },
    }
}

/// Runs every probe and fills its metrics. `scratch` is an empty
/// directory for the store probes; it is removed afterwards.
pub fn run(values: &mut Values, scratch: &Path) -> Result<(), String> {
    let programs: Vec<&suite::Benchmark> = light_programs()
        .into_iter()
        .map(|n| suite::by_name(n).expect("light programs come from the suite"))
        .collect();

    // wacc: source → wasm bytes at three levels.
    let levels = [OptLevel::O0, OptLevel::O2, OptLevel::O3];
    let sources: Vec<(&suite::Benchmark, OptLevel)> = programs
        .iter()
        .flat_map(|b| levels.map(|l| (*b, l)))
        .collect();
    set(
        values,
        "wacc.compile_us_p50",
        p50_over(1e6, &sources, |(b, level)| {
            black_box(b.compile(*level).expect("suite programs compile"));
        }),
    );
    let modules: Vec<Vec<u8>> = sources
        .iter()
        .map(|(b, level)| b.compile(*level).map_err(|e| format!("{}: {e}", b.name)))
        .collect::<Result<_, _>>()?;
    let module_bytes: usize = modules.iter().map(Vec::len).sum();
    set(values, "wacc.module_bytes", module_bytes as f64);

    // wasm-core: decode and validate those modules.
    let t = Instant::now();
    let mut decoded_bytes = 0usize;
    let decode_us = p50_over(1e6, &modules, |bytes| {
        decoded_bytes += bytes.len();
        black_box(wasm_core::decode::decode(bytes).expect("wacc output decodes"));
    });
    let decode_s = t.elapsed().as_secs_f64();
    set(values, "wasm-core.decode_us_p50", decode_us);
    set(
        values,
        "wasm-core.decode_mb_s",
        decoded_bytes as f64 / 1e6 / decode_s,
    );
    let parsed: Vec<wasm_core::Module> = modules
        .iter()
        .map(|b| wasm_core::decode::decode(b).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    set(
        values,
        "wasm-core.validate_us_p50",
        p50_over(1e6, &parsed, |m| {
            wasm_core::validate::validate(m).expect("wacc output validates");
        }),
    );

    // engines: each tier's compile (or translate/prepare) on the -O2 modules.
    let o2: Vec<&Vec<u8>> = sources
        .iter()
        .zip(&modules)
        .filter(|((_, level), _)| *level == OptLevel::O2)
        .map(|(_, m)| m)
        .collect();
    let tiers = [
        (
            "engines.singlepass.compile_us_p50",
            EngineKind::Wasmer(Backend::Singlepass),
        ),
        ("engines.cranelift.compile_us_p50", EngineKind::Wasmtime),
        ("engines.llvm.compile_us_p50", EngineKind::Wavm),
        ("engines.wasm3.translate_us_p50", EngineKind::Wasm3),
        ("engines.wamr.prepare_us_p50", EngineKind::Wamr),
    ];
    for (name, kind) in tiers {
        let engine = Engine::new(kind);
        let p50 = p50_over(1e6, &o2, |bytes| {
            black_box(engine.compile(bytes).expect("suite modules compile"));
        });
        set(values, name, p50);
    }
    let (mut final_ops, mut op_visits, mut code_bytes) = (0usize, 0u64, 0usize);
    for kind in [
        EngineKind::Wasmer(Backend::Singlepass),
        EngineKind::Wasmtime,
        EngineKind::Wavm,
    ] {
        for bytes in &o2 {
            let c = Engine::new(kind)
                .compile(bytes)
                .map_err(|e| e.to_string())?;
            final_ops += c.compile_stats().final_ops;
            op_visits += c.compile_stats().passes.op_visits;
            code_bytes += c.code_bytes();
        }
    }
    set(values, "engines.jit.final_ops", final_ops as f64);
    set(values, "engines.jit.op_visits", op_visits as f64);
    set(values, "engines.jit.code_bytes", code_bytes as f64);

    // engines: AOT precompile and load, and instantiate, on Wasmtime.
    let engine = Engine::new(EngineKind::Wasmtime);
    set(
        values,
        "engines.aot.precompile_us_p50",
        p50_over(1e6, &o2, |bytes| {
            black_box(engine.precompile(bytes).expect("precompile"));
        }),
    );
    let artifacts: Vec<Vec<u8>> = o2
        .iter()
        .map(|b| engine.precompile(b).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    set(
        values,
        "engines.aot.artifact_bytes",
        artifacts.iter().map(Vec::len).sum::<usize>() as f64,
    );
    set(
        values,
        "engines.aot.load_us_p50",
        p50_over(1e6, &artifacts, |a| {
            black_box(engine.load_artifact(a).expect("own artifact loads"));
        }),
    );
    let loaded: Vec<engines::CompiledModule> = artifacts
        .iter()
        .map(|a| engine.load_artifact(a).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    let imports = wasi_rt::imports();
    set(
        values,
        "engines.instantiate_us_p50",
        p50_over(1e6, &loaded, |c| {
            black_box(
                c.instantiate(&imports, Box::new(WasiCtx::new()))
                    .expect("instantiate"),
            );
        }),
    );

    // svc::proto and svc::wire: one submit and one result, there and back.
    let result = sample_result();
    let request = Request::Submit(
        result.spec.clone(),
        TraceCtx {
            trace_id: 0xfeed,
            origin_ns: 1,
        },
    );
    let response = Response::Result(result);
    set(
        values,
        "svc.proto.encode_ns_p50",
        p50_ns_batched(|| {
            black_box(black_box(&request).encode());
            black_box(black_box(&response).encode());
        }),
    );
    let (req_bytes, resp_bytes) = (request.encode(), response.encode());
    set(
        values,
        "svc.proto.decode_ns_p50",
        p50_ns_batched(|| {
            black_box(Request::decode(black_box(&req_bytes)).expect("own frame decodes"));
            black_box(Response::decode(black_box(&resp_bytes)).expect("own frame decodes"));
        }),
    );
    let mut framed = Vec::with_capacity(resp_bytes.len() + 8);
    set(
        values,
        "svc.wire.frame_ns_p50",
        p50_ns_batched(|| {
            framed.clear();
            svc::wire::write_frame(&mut framed, black_box(&resp_bytes)).expect("write to a Vec");
            let mut reader = framed.as_slice();
            black_box(svc::wire::read_frame(&mut reader).expect("own frame reads"));
        }),
    );

    // svc::store: put, hit and miss on a directory of its own, capped so
    // that the puts evict.
    std::fs::create_dir_all(scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let total: usize = artifacts.iter().map(Vec::len).sum();
    let mut store = ArtifactStore::open(scratch.join("store"), (total / 2) as u64)
        .map_err(|e| format!("store probe: {e}"))?;
    let keyed: Vec<(ArtifactKey, &Vec<u8>)> = o2
        .iter()
        .zip(&artifacts)
        .map(|(wasm, art)| {
            (
                ArtifactKey::aot(wasm, OptLevel::O2, EngineKind::Wasmtime),
                art,
            )
        })
        .collect();
    set(
        values,
        "svc.store.put_us_p50",
        p50_over(1e6, &keyed, |(key, art)| {
            store.put(*key, art).expect("store put");
        }),
    );
    // The cap kept the most recent half; those hit, the rest miss.
    let (mut hits, mut misses) = (Vec::new(), Vec::new());
    for _ in 0..MIN_CALLS.div_ceil(keyed.len() / 2) {
        for (key, _) in &keyed {
            let (us, outcome) = timed(1e6, || store.get_outcome(key));
            match outcome {
                GetOutcome::Hit(_) => hits.push(us),
                GetOutcome::Miss => misses.push(us),
                GetOutcome::Corrupt => return Err("store probe: entry corrupt".into()),
            }
        }
    }
    if hits.len() < MIN_CALLS / 2 || misses.len() < MIN_CALLS / 2 {
        return Err(format!(
            "store probe: {} hits, {} misses",
            hits.len(),
            misses.len()
        ));
    }
    set(values, "svc.store.get_hit_us_p50", stats::median(&hits));
    set(values, "svc.store.get_miss_us_p50", stats::median(&misses));
    drop(store);
    std::fs::remove_dir_all(scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;

    // router::ring: primary lookup on a two-shard ring.
    let ring = Ring::new(&["shard-a".to_string(), "shard-b".to_string()]);
    let keys: Vec<String> = programs
        .iter()
        .map(|b| format!("{}|-O2|Wasmtime", b.name))
        .collect();
    let mut i = 0;
    set(
        values,
        "router.ring.lookup_ns_p50",
        p50_ns_batched(|| {
            i = (i + 1) % keys.len();
            black_box(ring.primary(black_box(keys[i].as_bytes())));
        }),
    );
    Ok(())
}
