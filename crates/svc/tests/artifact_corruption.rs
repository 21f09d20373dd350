//! Corrupt and truncated AOT artifacts must be rejected through
//! `Engine::load_artifact` (the untrusted `RegCode::try_new` path), and
//! a warm service job holding a checksum-valid but semantically corrupt
//! artifact must fall back to a cold compile instead of executing it.
//! A remembered proof verdict (`VerifiedArtifacts`) must never cover
//! bytes other than the ones that were checked.

use std::time::Duration;

use analysis::range::{Fact, Interval};
use engines::jit::aot::{from_bytes, to_bytes};
use engines::{Engine, EngineKind, VerifiedArtifacts};
use svc::job::{JobMode, JobSpec, Scale};
use svc::scheduler::{Config, Scheduler};
use svc::store::{ArtifactKey, ArtifactStore};
use wacc::OptLevel;

fn wasm_bytes() -> Vec<u8> {
    suite::by_name("crc32")
        .expect("crc32 registered")
        .compile(OptLevel::O2)
        .expect("compile")
}

/// A well-framed artifact whose register code fails validation: every
/// function claims a zero-register frame while its ops still name
/// registers.
fn semantically_corrupt_artifact(engine: &Engine, bytes: &[u8]) -> Vec<u8> {
    let good = engine.precompile(bytes).expect("precompile");
    let (mut code, tier) = from_bytes(&good).expect("decode own artifact");
    for f in &mut code.funcs {
        f.nregs = 0;
    }
    to_bytes(&code, tier)
}

/// A checksum-valid artifact that passes every structural check but
/// whose first proof claims a widened, unsafe address range: the tamper
/// only proof re-derivation catches. The edit sits in the proofs, past
/// the header and the embedded module.
fn widened_proof_artifact(engine: &Engine, bytes: &[u8]) -> Vec<u8> {
    let good = engine.precompile(bytes).expect("precompile");
    let (mut code, tier) = from_bytes(&good).expect("decode own artifact");
    let proof = code
        .funcs
        .iter_mut()
        .find_map(|f| f.proofs.first_mut())
        .expect("crc32 carries at least one elimination proof");
    proof.fact = Fact::Int(Interval::new(0, i32::MAX as i64));
    let evil = to_bytes(&code, tier);
    let common = good.iter().zip(&evil).take_while(|(a, b)| a == b).count();
    assert!(common >= 1024, "edit should sit past the module, at byte {common}");
    let err = engine.load_artifact(&evil).expect_err("widened proof must not load");
    assert!(err.to_string().contains("proof"), "{err}");
    evil
}

#[test]
fn semantically_corrupt_artifact_is_rejected() {
    let bytes = wasm_bytes();
    let engine = Engine::new(EngineKind::Wasmtime);
    let evil = semantically_corrupt_artifact(&engine, &bytes);
    let err = engine.load_artifact(&evil);
    assert!(err.is_err(), "zero-frame artifact must not validate");
}

#[test]
fn truncated_and_mangled_artifacts_are_rejected() {
    let bytes = wasm_bytes();
    let engine = Engine::new(EngineKind::Wavm);
    let artifact = engine.precompile(&bytes).expect("precompile");
    // Round-trips when intact.
    assert!(engine.load_artifact(&artifact).is_ok());
    // Truncated at any of a few cut points: rejected, never panics.
    for cut in [0, 3, artifact.len() / 2, artifact.len() - 1] {
        assert!(
            engine.load_artifact(&artifact[..cut]).is_err(),
            "truncation at {cut} accepted"
        );
    }
    // Bad magic: rejected.
    let mut mangled = artifact.clone();
    mangled[0] ^= 0xff;
    assert!(engine.load_artifact(&mangled).is_err());
}

/// Regression test for store repair: an artifact that rots *on disk*
/// (bit-flip or truncation) must be detected at the next warm lookup,
/// evicted, recompiled, and written back under the same key — and the
/// warm pass after the repair must hit the store again.
#[test]
fn rotten_artifact_is_detected_evicted_and_repaired_in_place() {
    let dir = std::env::temp_dir().join(format!(
        "wabench-svc-repair-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);

    let sched = Scheduler::start(Config {
        workers: 1,
        timeout: Duration::from_secs(120),
        store_dir: Some(dir.clone()),
        store_cap_bytes: 256 << 20,
        ..Config::default()
    })
    .expect("start");
    let warm_spec = |kind: EngineKind| JobSpec {
        benchmark: "crc32".to_string(),
        engine: kind,
        level: OptLevel::O2,
        scale: Scale::Test,
        mode: JobMode::Exec,
        warm: true,
    };
    let bytes = wasm_bytes();

    // Two corruption shapes, one engine each: a flipped payload byte
    // (checksum mismatch) and a truncated file (length mismatch).
    type Mangle = fn(&mut Vec<u8>);
    let rot: [(EngineKind, Mangle); 2] = [
        (EngineKind::Wasmtime, |file| {
            let last = file.len() - 1;
            file[last] ^= 0x40;
        }),
        (EngineKind::Wavm, |file| {
            file.truncate(file.len() / 2);
        }),
    ];
    for (kind, mangle) in rot {
        // Cold warm-mode job: populates the AOT entry.
        let res = sched.wait(sched.submit(warm_spec(kind)));
        assert!(res.ok(), "{:?}", res.status);
        assert!(!res.warm_artifact, "first run is cold");

        // Rot the artifact on disk, keeping the store open — a reopen
        // would drop the bad file during reindexing and turn the
        // corruption into a plain miss.
        let path = dir.join(format!(
            "{}.art",
            ArtifactKey::aot(&bytes, OptLevel::O2, kind).file_stem()
        ));
        let mut file = std::fs::read(&path).expect("artifact file on disk");
        mangle(&mut file);
        std::fs::write(&path, &file).expect("write rotten artifact");

        // Next warm job: detects, evicts, recompiles, repairs in place.
        let res = sched.wait(sched.submit(warm_spec(kind)));
        assert!(res.ok(), "{:?}", res.status);
        assert!(!res.warm_artifact, "repair run compiles cold");
        assert_eq!(
            res.recovery.store_repairs, 1,
            "repair must be surfaced in the result ({})",
            kind.name()
        );

        // The repaired entry serves warm again.
        let res = sched.wait(sched.submit(warm_spec(kind)));
        assert!(res.ok(), "{:?}", res.status);
        assert!(res.warm_artifact, "repaired entry must hit");
        assert_eq!(res.recovery.store_repairs, 0);
    }
    let stats = sched.stats();
    let store = stats.store.expect("store attached");
    assert!(store.corrupt_rejected >= 2, "both rotten reads detected");
    assert_eq!(sched.resilience().store_repairs, 2);
    drop(sched);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn warm_job_falls_back_to_cold_compile_on_corrupt_artifact() {
    let dir = std::env::temp_dir().join(format!(
        "wabench-svc-corrupt-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);

    // Seed the store with a store-checksum-valid but semantically
    // corrupt artifact under exactly the key a warm job will look up.
    let bytes = wasm_bytes();
    let kind = EngineKind::Wasmtime;
    let engine = Engine::new(kind);
    let evil = semantically_corrupt_artifact(&engine, &bytes);
    {
        let mut store = ArtifactStore::open(&dir, 256 << 20).expect("open store");
        store
            .put(ArtifactKey::aot(&bytes, OptLevel::O2, kind), &evil)
            .expect("seed store");
    }

    let sched = Scheduler::start(Config {
        workers: 1,
        timeout: Duration::from_secs(120),
        store_dir: Some(dir.clone()),
        store_cap_bytes: 256 << 20,
        ..Config::default()
    })
    .expect("start");
    let id = sched.submit(JobSpec {
        benchmark: "crc32".to_string(),
        engine: kind,
        level: OptLevel::O2,
        scale: Scale::Test,
        mode: JobMode::Exec,
        warm: true,
    });
    let res = sched.wait(id);
    assert!(res.ok(), "{:?}", res.status);
    assert!(
        !res.warm_artifact,
        "corrupt artifact must not count as a warm load"
    );
    let b = suite::by_name("crc32").unwrap();
    assert_eq!(res.checksum, Some((b.native)(b.sizes.test)));
    drop(sched);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The verdict memo: a second load of the same bytes skips proof
/// re-derivation, an edited artifact never does, and the memo keeps at
/// most `CAP` artifacts, dropping the oldest.
#[test]
fn verified_artifacts_reuse_only_identical_bytes_and_stay_bounded() {
    let bytes = wasm_bytes();
    let engine = Engine::new(EngineKind::Wasmtime);
    let good = engine.precompile(&bytes).expect("precompile");
    let memo = VerifiedArtifacts::new();

    engine.load_artifact_in(&good, &memo).expect("first load verifies");
    assert_eq!((memo.len(), memo.hits()), (1, 0));
    // A byte-equal copy elsewhere in memory: proofs are not re-derived.
    engine.load_artifact_in(&good.clone(), &memo).expect("second load reuses");
    assert_eq!((memo.len(), memo.hits()), (1, 1), "two loads, one re-derivation");

    // Same module, same length class, edited proof: re-derived, rejected,
    // and never remembered.
    let evil = widened_proof_artifact(&engine, &bytes);
    assert!(engine.load_artifact_in(&evil, &memo).is_err());
    assert_eq!((memo.len(), memo.hits()), (1, 1));
    // The tier check still runs on a remembered artifact.
    assert!(Engine::new(EngineKind::Wavm).load_artifact_in(&good, &memo).is_err());

    // Fill past the cap with distinct tiny artifacts.
    for i in 0..VerifiedArtifacts::CAP + 8 {
        let mut b = wasm_core::builder::ModuleBuilder::new();
        let f = b.begin_func(wasm_core::types::FuncType::new(
            &[],
            &[wasm_core::types::ValType::I32],
        ));
        b.emit(wasm_core::instr::Instr::I32Const(i as i32));
        b.finish_func();
        b.export_func("f", f);
        let tiny = engine.precompile(&wasm_core::encode::encode(&b.build())).expect("tiny");
        engine.load_artifact_in(&tiny, &memo).expect("tiny loads");
    }
    assert_eq!(memo.len(), VerifiedArtifacts::CAP);
    // The crc32 artifact was the oldest entry, so it was evicted: the
    // next load re-derives its proofs instead of hitting.
    let hits = memo.hits();
    engine.load_artifact_in(&good, &memo).expect("reload verifies again");
    assert_eq!(memo.hits(), hits, "an evicted artifact must be re-checked");
}

/// An artifact rewritten in place under a store key whose previous bytes
/// were verified must be checked afresh: the memo is keyed by the bytes,
/// not by the key, and the edited artifact lands in its original's hash
/// bucket, so only byte equality can turn it away.
#[test]
fn edited_artifact_under_a_verified_key_is_rechecked_and_repaired() {
    let dir = std::env::temp_dir().join(format!(
        "wabench-svc-memo-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let sched = Scheduler::start(Config {
        workers: 1,
        timeout: Duration::from_secs(120),
        store_dir: Some(dir.clone()),
        store_cap_bytes: 256 << 20,
        ..Config::default()
    })
    .expect("start");
    let kind = EngineKind::Wasmtime;
    let spec = JobSpec {
        benchmark: "crc32".to_string(),
        engine: kind,
        level: OptLevel::O2,
        scale: Scale::Test,
        mode: JobMode::Exec,
        warm: true,
    };
    let bytes = wasm_bytes();

    let cold = sched.wait(sched.submit(spec.clone()));
    assert!(cold.ok() && !cold.warm_artifact, "{:?}", cold.status);
    // Warm hit: the stored artifact is verified and its verdict kept.
    let warm = sched.wait(sched.submit(spec.clone()));
    assert!(warm.ok() && warm.warm_artifact, "{:?}", warm.status);

    // Rewrite the entry with a checksum-valid artifact whose proof was
    // widened, through a second handle on the same directory.
    let evil = widened_proof_artifact(&Engine::new(kind), &bytes);
    ArtifactStore::open(&dir, 256 << 20)
        .expect("second store handle")
        .put(ArtifactKey::aot(&bytes, OptLevel::O2, kind), &evil)
        .expect("rewrite entry");

    let res = sched.wait(sched.submit(spec.clone()));
    assert!(res.ok(), "{:?}", res.status);
    assert!(!res.warm_artifact, "an edited artifact must not load on an old verdict");
    assert_eq!(res.recovery.store_repairs, 1, "the edited entry is repaired");

    // The repaired entry holds the original bytes again and serves warm.
    let res = sched.wait(sched.submit(spec));
    assert!(res.ok() && res.warm_artifact, "{:?}", res.status);
    drop(sched);
    let _ = std::fs::remove_dir_all(&dir);
}
