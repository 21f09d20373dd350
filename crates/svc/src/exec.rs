//! Job execution: one [`JobSpec`] in, one [`JobResult`] out.
//!
//! Engine state (`CompiledModule`, instances) is `Rc`-based and not
//! `Send`; everything here is built and dropped on the calling thread.
//! Only `Send` data enters and leaves: the spec, shared wasm bytes
//! (`Arc<[u8]>`), the artifact store behind a `Mutex`, and the result.
//!
//! [`execute`] is the workspace's one measurement kernel: the harness
//! calls it inline for every figure cell, a scheduler worker calls it
//! for every job, so a number means the same thing wherever it was
//! taken. A non-`warm` `Exec` job times a *fresh* compile; a `warm` job
//! is the serving path: it consults the artifact store and times the
//! artifact *load* instead when a valid artifact exists.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use engines::faultpoint::ScopedCompileFault;
use engines::{Engine, EngineKind, VerifiedArtifacts};
use fault::{FaultPlan, Site};
use suite::Benchmark;
use wacc::OptLevel;
use wasi_rt::WasiCtx;
use wasm_core::types::Value;

use crate::hash::fnv64;
use crate::job::{JobMode, JobResult, JobSpec, JobStatus, Recovery};
use crate::store::{ArtifactKey, ArtifactStore, GetOutcome};

/// One (benchmark, level)'s compiled wasm, filled exactly once by
/// whichever worker asks first while the others wait on the cell.
type BytesCell = Arc<OnceLock<Result<Arc<[u8]>, String>>>;

/// Compiled-wasm cache shared by all workers, keyed (benchmark, level).
type BytesCache = Mutex<HashMap<(String, OptLevel), BytesCell>>;

/// Shared, thread-safe execution environment.
#[derive(Debug)]
pub struct ExecEnv {
    /// Optional on-disk artifact store.
    pub store: Option<Mutex<ArtifactStore>>,
    /// In-memory compiled-wasm cache shared by all workers, single-flight
    /// per key. `Arc<[u8]>` so a hit hands out a refcount bump, never a
    /// byte copy.
    bytes_cache: BytesCache,
    /// Artifacts whose proofs a warm load already re-derived: a repeat
    /// warm hit on the same bytes skips that step. Only
    /// [`exec_job`]'s store-hit branch consults it, so every other
    /// load (Figure 3's `ExecAot` cells included) pays the full check.
    verified: VerifiedArtifacts,
    /// Optional fault-injection plan. Only jobs executed through this
    /// environment see injected faults — the harness's inline environment
    /// never installs one, which is what keeps its recomputations clean.
    pub faults: Option<Arc<FaultPlan>>,
}

impl ExecEnv {
    /// A store-less environment.
    pub fn new(store: Option<ArtifactStore>) -> ExecEnv {
        ExecEnv::with_faults(store, None)
    }

    /// An environment with a fault plan threaded through job execution
    /// and the artifact store.
    pub fn with_faults(store: Option<ArtifactStore>, faults: Option<Arc<FaultPlan>>) -> ExecEnv {
        let store = store.map(|mut s| {
            s.set_faults(faults.clone());
            Mutex::new(s)
        });
        ExecEnv {
            store,
            bytes_cache: Mutex::new(HashMap::new()),
            verified: VerifiedArtifacts::new(),
            faults,
        }
    }

    /// Compiled wasm bytes for a benchmark, via cache → store → WaCC.
    pub fn wasm_bytes(&self, b: &Benchmark, level: OptLevel) -> Result<Arc<[u8]>, String> {
        self.wasm_bytes_recovering(b, level, &mut Recovery::default())
    }

    /// [`wasm_bytes`](Self::wasm_bytes) that additionally records store
    /// repairs (corrupt entry detected → recompiled → written back) into
    /// `rec`.
    ///
    /// Single-flight: workers missing on the same key together wait for
    /// one fill instead of compiling it twice. A failed fill leaves the
    /// cache, so the scheduler's retry compiles afresh.
    pub fn wasm_bytes_recovering(
        &self,
        b: &Benchmark,
        level: OptLevel,
        rec: &mut Recovery,
    ) -> Result<Arc<[u8]>, String> {
        let key = (b.name.to_string(), level);
        let cell = {
            let mut cache = self.bytes_cache.lock().expect("bytes cache lock");
            match cache.get(&key) {
                Some(cell) => Arc::clone(cell),
                None => Arc::clone(cache.entry(key.clone()).or_default()),
            }
        };
        let filled = cell.get_or_init(|| self.fill_bytes(b, level, rec));
        if filled.is_err() {
            let mut cache = self.bytes_cache.lock().expect("bytes cache lock");
            if cache.get(&key).is_some_and(|c| Arc::ptr_eq(c, &cell)) {
                cache.remove(&key);
            }
        }
        filled.clone()
    }

    /// A bytes-cache miss: store → WaCC. The store lock is held for the
    /// lookup and the write-back only, never across the compile.
    fn fill_bytes(
        &self,
        b: &Benchmark,
        level: OptLevel,
        rec: &mut Recovery,
    ) -> Result<Arc<[u8]>, String> {
        let Some(store) = &self.store else {
            return Ok(b.compile(level).map_err(|e| e.to_string())?.into());
        };
        let skey = ArtifactKey::wasm(&b.full_source(), level);
        let outcome = store.lock().expect("store lock").get_outcome(&skey);
        let repair = match outcome {
            GetOutcome::Hit(payload) => return Ok(payload.into()),
            GetOutcome::Miss => false,
            GetOutcome::Corrupt => true,
        };
        let fresh = b.compile(level).map_err(|e| e.to_string())?;
        // Best effort: a full disk must not fail the job.
        if store.lock().expect("store lock").put(skey, &fresh).is_ok() && repair {
            rec.store_repairs += 1;
        }
        Ok(fresh.into())
    }
}

/// Executes a job on the current thread. Never panics for *failures*
/// (they become [`JobStatus::Failed`]); a checksum mismatch panics by
/// design and is caught at the scheduler's job boundary.
pub fn execute(spec: &JobSpec, env: &ExecEnv) -> JobResult {
    execute_attempt(spec, env, 1)
}

/// [`execute`] with the scheduler's attempt number (1-based) threaded
/// in, so self-test modes and transient fault draws can distinguish a
/// first run from a retry. `res.recovery.attempts` is set by the
/// scheduler, not here.
pub fn execute_attempt(spec: &JobSpec, env: &ExecEnv, attempt: u32) -> JobResult {
    let mut span = obs::span!(
        "svc.job.exec",
        bench = spec.benchmark,
        engine = spec.engine.name(),
        level = spec.level,
        mode = format_args!("{:?}", spec.mode)
    );
    // With a fault plan active, JIT compiles in this job may be vetoed
    // deterministically (keyed by module bytes × engine, so a retry
    // hits the same verdict and the fallback path must engage). The
    // hook is thread-local and scoped to this job.
    let _hook = env.faults.as_ref().map(|plan| {
        let plan = Arc::clone(plan);
        ScopedCompileFault::install(move |kind, bytes| {
            (kind.tier().is_some()
                && plan.keyed(Site::CompileFail, fnv64(bytes) ^ kind.code() as u64))
            .then(|| format!("injected compile failure ({})", kind.name()))
        })
    });
    let t0 = Instant::now();
    let mut res = JobResult::new(spec, JobStatus::Ok);
    if let Err(msg) = run(spec, env, attempt, &mut res) {
        res.status = JobStatus::Failed(msg);
    }
    res.wall_s = t0.elapsed().as_secs_f64();
    // A profiled job's simulator started cold inside this span, so its
    // totals are exactly the span's delta, and the attributed engine
    // spans below (profiled compile + execute) partition it.
    if let Some(c) = res.counters {
        span.set_counters(c.into());
    }
    res
}

fn run(spec: &JobSpec, env: &ExecEnv, attempt: u32, res: &mut JobResult) -> Result<(), String> {
    match spec.mode {
        JobMode::SelfTestPanic => panic!("injected failure (svc self-test)"),
        JobMode::SelfTestHang => {
            std::thread::sleep(std::time::Duration::from_secs(2));
            return Ok(());
        }
        JobMode::SelfTestFlaky => {
            if attempt == 1 {
                panic!("injected flaky failure (svc self-test, attempt 1)");
            }
            return Ok(());
        }
        _ => {}
    }
    // Injected worker panic: transient, so the scheduler's retry draws
    // afresh and normally clears it. Caught at the job boundary like
    // any other panic.
    if let Some(plan) = &env.faults {
        if plan.transient(Site::WorkerPanic) {
            panic!("injected worker panic (fault plan, attempt {attempt})");
        }
    }
    let b = suite::by_name(&spec.benchmark)
        .ok_or_else(|| format!("unknown benchmark {:?}", spec.benchmark))?;
    let n = spec.scale.arg(b);
    let bytes = env.wasm_bytes_recovering(b, spec.level, &mut res.recovery)?;
    res.bytes_hash = fnv64(&bytes);
    match spec.mode {
        JobMode::Exec => exec_job(spec, b, n, &bytes, env, res),
        JobMode::ExecAot => exec_aot_job(spec, b, n, &bytes, res),
        JobMode::Profiled => profiled_job(spec, b, n, &bytes, res),
        JobMode::ProfiledNative => profiled_native_job(b, n, &bytes, res),
        JobMode::SelfTestPanic | JobMode::SelfTestHang | JobMode::SelfTestFlaky => {
            unreachable!("handled above")
        }
    }
}

fn invoke_checked(
    compiled: &engines::CompiledModule,
    b: &Benchmark,
    n: i32,
) -> Result<(i32, f64), String> {
    let t = Instant::now();
    let mut inst = compiled
        .instantiate(&wasi_rt::imports(), Box::new(WasiCtx::new()))
        .map_err(|e| format!("instantiate: {e}"))?;
    let out = inst
        .invoke("run", &[Value::I32(n)])
        .map_err(|e| format!("run: {e}"))?;
    let exec_s = t.elapsed().as_secs_f64();
    let got = match out {
        Some(Value::I32(v)) => v,
        other => return Err(format!("run() returned {other:?}")),
    };
    let expected = (b.native)(n);
    // A wrong checksum means the measurement is meaningless — panic. The
    // scheduler catches it at the job boundary: this job fails, the
    // fleet keeps running; an inline harness measurement aborts the run.
    assert_eq!(
        got, expected,
        "{} checksum mismatch on {}",
        b.name,
        compiled.kind().name()
    );
    Ok((got, exec_s))
}

fn exec_job(
    spec: &JobSpec,
    b: &Benchmark,
    n: i32,
    bytes: &Arc<[u8]>,
    env: &ExecEnv,
    res: &mut JobResult,
) -> Result<(), String> {
    let engine = Engine::new(spec.engine);
    let akey = ArtifactKey::aot(bytes, spec.level, spec.engine);
    let mut compiled = None;
    // A corrupt store entry (detected by checksum at the store, or by
    // the semantic RegCode::try_new re-validation at load) is *repaired*:
    // the cold path below recompiles and puts a fresh artifact back
    // under the same key.
    let mut repair_needed = false;
    if spec.warm && spec.engine.tier().is_some() {
        if let Some(store) = &env.store {
            let outcome = store.lock().expect("store lock").get_outcome(&akey);
            match outcome {
                GetOutcome::Hit(artifact) => {
                    let t = Instant::now();
                    // A checksum-valid but semantically corrupt artifact
                    // is rejected here by the untrusted RegCode::try_new
                    // path; fall back to a cold compile + repair. Proofs
                    // are re-derived unless these exact bytes passed
                    // before.
                    if let Ok(c) = engine.load_artifact_in(&artifact, &env.verified) {
                        res.compile_s = t.elapsed().as_secs_f64();
                        res.warm_artifact = true;
                        compiled = Some(c);
                    } else {
                        repair_needed = true;
                    }
                }
                GetOutcome::Corrupt => repair_needed = true,
                GetOutcome::Miss => {}
            }
        }
    }
    let compiled = match compiled {
        Some(c) => c,
        None => {
            let t = Instant::now();
            let c = match engine.compile(bytes) {
                Ok(c) => c,
                // Graceful degradation: a JIT whose compile fails hands
                // the job to the interpreter tier. The checksum is still
                // verified, but the timings now measure the wrong tier —
                // the result is flagged degraded so callers can tell.
                Err(e) if spec.engine.tier().is_some() => {
                    let fallback = Engine::new(EngineKind::Wasm3);
                    match fallback.compile(bytes) {
                        Ok(c) => {
                            res.recovery.compile_fallback = true;
                            obs::warn!(
                                "{}: compile failed on {} ({e}); degraded to {}",
                                spec.benchmark,
                                spec.engine.name(),
                                fallback.kind().name()
                            );
                            c
                        }
                        Err(_) => return Err(format!("compile: {e}")),
                    }
                }
                Err(e) => return Err(format!("compile: {e}")),
            };
            res.compile_s = t.elapsed().as_secs_f64();
            // The stored artifact is the code just compiled, serialized
            // outside the compile timer: a cold job compiles once.
            if spec.warm && spec.engine.tier().is_some() && !res.recovery.compile_fallback {
                if let Some(store) = &env.store {
                    if let Ok(artifact) = c.artifact() {
                        let repaired = store
                            .lock()
                            .expect("store lock")
                            .put(akey, &artifact)
                            .is_ok();
                        if repaired && repair_needed {
                            res.recovery.store_repairs += 1;
                        }
                    }
                }
            }
            c
        }
    };
    let (sum, exec_s) = invoke_checked(&compiled, b, n)?;
    res.checksum = Some(sum);
    res.exec_s = exec_s;
    Ok(())
}

fn exec_aot_job(
    spec: &JobSpec,
    b: &Benchmark,
    n: i32,
    bytes: &Arc<[u8]>,
    res: &mut JobResult,
) -> Result<(), String> {
    let engine = Engine::new(spec.engine);
    let t = Instant::now();
    let artifact = engine
        .precompile(bytes)
        .map_err(|e| format!("precompile: {e}"))?;
    res.aot_compile_s = Some(t.elapsed().as_secs_f64());
    let t = Instant::now();
    let compiled = engine
        .load_artifact(&artifact)
        .map_err(|e| format!("load artifact: {e}"))?;
    res.compile_s = t.elapsed().as_secs_f64();
    let (sum, exec_s) = invoke_checked(&compiled, b, n)?;
    res.checksum = Some(sum);
    res.exec_s = exec_s;
    Ok(())
}

fn profiled_job(
    spec: &JobSpec,
    b: &Benchmark,
    n: i32,
    bytes: &Arc<[u8]>,
    res: &mut JobResult,
) -> Result<(), String> {
    let mut sim = archsim::ArchSim::new();
    let engine = Engine::new(spec.engine);
    let t = Instant::now();
    let compiled = engine
        .compile_profiled(bytes, &mut sim)
        .map_err(|e| format!("compile: {e}"))?;
    res.compile_s = t.elapsed().as_secs_f64();
    let mut inst = compiled
        .instantiate(&wasi_rt::imports(), Box::new(WasiCtx::new()))
        .map_err(|e| format!("instantiate: {e}"))?;
    let t = Instant::now();
    let out = inst
        .invoke_profiled("run", &[Value::I32(n)], &mut sim)
        .map_err(|e| format!("run: {e}"))?;
    res.exec_s = t.elapsed().as_secs_f64();
    if let Some(Value::I32(got)) = out {
        assert_eq!(
            got,
            (b.native)(n),
            "{} checksum mismatch on {} (profiled)",
            b.name,
            spec.engine.name()
        );
        res.checksum = Some(got);
    }
    res.counters = Some(sim.counters());
    Ok(())
}

fn profiled_native_job(
    _b: &Benchmark,
    n: i32,
    bytes: &Arc<[u8]>,
    res: &mut JobResult,
) -> Result<(), String> {
    let mut sim = archsim::ArchSim::new();
    let engine = Engine::new(engines::EngineKind::Wavm);
    let t = Instant::now();
    let compiled = engine.compile(bytes).map_err(|e| format!("compile: {e}"))?;
    res.compile_s = t.elapsed().as_secs_f64();
    let mut inst = compiled
        .instantiate(&wasi_rt::imports(), Box::new(WasiCtx::new()))
        .map_err(|e| format!("instantiate: {e}"))?;
    let t = Instant::now();
    inst.invoke_profiled("run", &[Value::I32(n)], &mut sim)
        .map_err(|e| format!("run: {e}"))?;
    res.exec_s = t.elapsed().as_secs_f64();
    res.counters = Some(sim.counters());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::Scale;
    use engines::EngineKind;

    #[test]
    fn exec_job_produces_native_checksum() {
        let env = ExecEnv::new(None);
        let spec = JobSpec::exec("crc32", EngineKind::Wasmtime, OptLevel::O2, Scale::Test);
        let res = execute(&spec, &env);
        assert!(res.ok(), "{:?}", res.status);
        let b = suite::by_name("crc32").unwrap();
        assert_eq!(res.checksum, Some((b.native)(b.sizes.test)));
        assert!(res.compile_s > 0.0 && res.exec_s > 0.0);
        assert_ne!(res.bytes_hash, 0);
    }

    #[test]
    fn profiled_job_times_its_compile_and_run() {
        let env = ExecEnv::new(None);
        let spec = JobSpec {
            mode: JobMode::Profiled,
            ..JobSpec::exec("crc32", EngineKind::Wasm3, OptLevel::O2, Scale::Test)
        };
        let res = execute(&spec, &env);
        assert!(res.ok(), "{:?}", res.status);
        assert!(res.counters.is_some());
        assert!(res.compile_s > 0.0 && res.exec_s > 0.0);
    }

    #[test]
    fn unknown_benchmark_fails_cleanly() {
        let env = ExecEnv::new(None);
        let spec = JobSpec::exec("no-such", EngineKind::Wasm3, OptLevel::O0, Scale::Test);
        let res = execute(&spec, &env);
        assert!(matches!(res.status, JobStatus::Failed(_)));
    }

    #[test]
    fn bytes_cache_shares_one_compile() {
        let env = ExecEnv::new(None);
        let b = suite::by_name("crc32").unwrap();
        let first = env.wasm_bytes(b, OptLevel::O2).unwrap();
        let second = env.wasm_bytes(b, OptLevel::O2).unwrap();
        assert!(Arc::ptr_eq(&first, &second), "hit must not copy");
    }

    /// A store-backed environment on a fresh temp dir (removed on drop).
    struct StoreEnv {
        env: ExecEnv,
        dir: std::path::PathBuf,
    }

    impl StoreEnv {
        fn new(tag: &str) -> StoreEnv {
            let dir =
                std::env::temp_dir().join(format!("wabench-exec-{tag}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let store = ArtifactStore::open(&dir, 64 << 20).unwrap();
            StoreEnv {
                env: ExecEnv::new(Some(store)),
                dir,
            }
        }
    }

    impl Drop for StoreEnv {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.dir);
        }
    }

    #[test]
    fn warm_miss_compiles_once_and_stores_what_precompile_would() {
        use engines::Backend;
        use std::cell::Cell;
        use std::rc::Rc;

        let compiles = Rc::new(Cell::new(0u32));
        let _hook = {
            let compiles = Rc::clone(&compiles);
            ScopedCompileFault::install(move |_, _| {
                compiles.set(compiles.get() + 1);
                None
            })
        };
        let s = StoreEnv::new("compile-once");
        let b = suite::by_name("crc32").unwrap();
        let bytes = s.env.wasm_bytes(b, OptLevel::O2).unwrap();
        for kind in [
            EngineKind::Wasmtime,
            EngineKind::Wavm,
            EngineKind::Wasmer(Backend::Singlepass),
        ] {
            let spec = JobSpec {
                warm: true,
                ..JobSpec::exec("crc32", kind, OptLevel::O2, Scale::Test)
            };
            compiles.set(0);
            let cold = execute(&spec, &s.env);
            assert!(cold.ok(), "{kind}: {:?}", cold.status);
            assert!(!cold.warm_artifact, "{kind}: empty store cannot hit");
            assert_eq!(compiles.get(), 1, "{kind}: a warm miss compiles once");

            let stored = s
                .env
                .store
                .as_ref()
                .unwrap()
                .lock()
                .unwrap()
                .get(&ArtifactKey::aot(&bytes, OptLevel::O2, kind))
                .expect("warm miss puts the artifact");
            let precompiled = Engine::new(kind).precompile(&bytes).unwrap();
            assert!(
                stored == precompiled,
                "{kind}: stored bytes differ from precompile"
            );

            compiles.set(0);
            let warm = execute(&spec, &s.env);
            assert!(warm.ok(), "{kind}: {:?}", warm.status);
            assert!(warm.warm_artifact, "{kind}: second run loads the artifact");
            assert_eq!(warm.checksum, cold.checksum, "{kind}");
            assert_eq!(compiles.get(), 0, "{kind}: a warm hit compiles nothing");
        }
    }

    #[test]
    fn bytes_cache_is_single_flight() {
        let s = StoreEnv::new("single-flight");
        let b = suite::by_name("crc32").unwrap();
        let barrier = std::sync::Barrier::new(2);
        let (first, second) = std::thread::scope(|scope| {
            let fetch = || {
                barrier.wait();
                s.env.wasm_bytes(b, OptLevel::O2).unwrap()
            };
            let one = scope.spawn(fetch);
            let two = scope.spawn(fetch);
            (one.join().unwrap(), two.join().unwrap())
        });
        assert!(Arc::ptr_eq(&first, &second), "both callers share one fill");
        let stats = s.env.store.as_ref().unwrap().lock().unwrap().stats();
        assert_eq!((stats.puts, stats.hits), (1, 0), "{stats:?}");
    }
}
