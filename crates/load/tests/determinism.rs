//! The determinism contract: a run's arrival schedule and job mix are a
//! pure function of `--seed`, like `wabench-fault` plans — so any run
//! can be reproduced exactly from its printed seed, mix and rate.

use load::arrivals;
use load::mix::Mix;

#[test]
fn same_seed_produces_identical_schedule_and_mix() {
    for preset in harness::matrix::PRESETS {
        let mix = Mix::preset(preset).expect("preset resolves");
        for phase in 0..2u64 {
            assert_eq!(
                arrivals::schedule(7, phase, 100, 250.0),
                arrivals::schedule(7, phase, 100, 250.0),
                "{preset} phase {phase}: schedules must match"
            );
            assert_eq!(
                mix.sample(7, phase, 100),
                mix.sample(7, phase, 100),
                "{preset} phase {phase}: mixes must match"
            );
        }
    }
}

#[test]
fn different_seeds_diverge() {
    let mix = Mix::preset("fig1").unwrap();
    assert_ne!(
        arrivals::schedule(7, 0, 100, 250.0),
        arrivals::schedule(8, 0, 100, 250.0)
    );
    assert_ne!(mix.sample(7, 0, 100), mix.sample(8, 0, 100));
}

#[test]
fn warm_and_cold_phases_use_distinct_streams() {
    // Phases salt the stream: the warm phase must not replay the cold
    // phase's arrivals (that would correlate store hits with arrival
    // bursts), but both stay deterministic per seed.
    let mix = Mix::preset("fig1").unwrap();
    assert_ne!(
        arrivals::schedule(7, 0, 100, 250.0),
        arrivals::schedule(7, 1, 100, 250.0)
    );
    assert_ne!(mix.sample(7, 0, 100), mix.sample(7, 1, 100));
}

#[test]
fn schedule_is_independent_of_execution_order() {
    // The schedule is computed up front from the seed alone — nothing
    // about it depends on wall-clock time, so two computations any
    // distance apart agree. (The run loop *sleeps* to these offsets; it
    // never derives them from observed completions.)
    let first = arrivals::schedule(42, 0, 500, 1000.0);
    std::thread::sleep(std::time::Duration::from_millis(20));
    assert_eq!(first, arrivals::schedule(42, 0, 500, 1000.0));
}
