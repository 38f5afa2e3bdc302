//! The engine's two load-bearing guarantees, asserted end-to-end:
//!
//! 1. **Determinism** — parallel execution produces `RunReport`s
//!    bit-identical to direct serial `Simulator::run_program` calls for
//!    the same keys, regardless of worker count or batch composition, and
//! 2. **Deduplication** — identical keys simulate exactly once per
//!    engine, across batches and across experiment functions
//!    (counter-based assertions on `Engine::simulated_runs`).
//!
//! Every test pins the worker count to 4 (via the rayon global-pool
//! setting — an atomic, not environment mutation) so the cross-thread
//! path is exercised even on single-core CI hosts.

use std::sync::{Arc, Barrier};

use cfr_sim::core::{
    table2, table5, Engine, ExperimentScale, ItlbChoice, RunKey, ScenarioConfig, ScenarioProc,
    Simulator, StrategyKind, TlbMode,
};
use cfr_sim::types::{AddressingMode, TlbOrganization};

fn four_workers() {
    let _ = rayon::ThreadPoolBuilder::new()
        .num_threads(4)
        .build_global();
}

fn tiny() -> ExperimentScale {
    ExperimentScale {
        max_commits: 15_000,
        seed: 0x5EED,
    }
}

/// A key mix spanning strategies, modes, and iTLB shapes — with
/// deliberate duplicates.
fn sample_keys(scale: &ExperimentScale) -> Vec<RunKey> {
    let small_itlb = ItlbChoice::Mono(TlbOrganization::fully_associative(8));
    vec![
        RunKey::new("177.mesa", scale, StrategyKind::Base, AddressingMode::ViPt),
        RunKey::new("177.mesa", scale, StrategyKind::Ia, AddressingMode::ViPt),
        RunKey::new("254.gap", scale, StrategyKind::SoCA, AddressingMode::ViVt),
        RunKey::new("254.gap", scale, StrategyKind::Base, AddressingMode::PiPt),
        RunKey::new("177.mesa", scale, StrategyKind::Base, AddressingMode::ViPt), // dup
        RunKey::new("186.crafty", scale, StrategyKind::HoA, AddressingMode::ViPt)
            .with_itlb(small_itlb),
        RunKey::new("186.crafty", scale, StrategyKind::HoA, AddressingMode::ViPt), // not a dup
    ]
}

/// Parallel engine output must be bit-identical to serial simulation of
/// freshly generated programs (also proving the engine builds its
/// executables from unmodified programs).
#[test]
fn parallel_reports_match_serial_runs() {
    four_workers();
    let scale = tiny();
    let engine = Engine::new();
    let keys = sample_keys(&scale);
    let parallel = engine.run_many(&keys);
    assert_eq!(parallel.len(), keys.len());
    for (key, report) in keys.iter().zip(&parallel) {
        let profile = engine
            .profiles()
            .iter()
            .find(|p| p.name == key.profile)
            .expect("sample keys use canonical profiles");
        let program = profile.generate();
        let serial = Simulator::run_program(&program, &key.config(), key.strategy, key.mode);
        assert_eq!(
            **report, serial,
            "parallel diverged from serial for {key:?}"
        );
    }
}

/// Duplicated keys — inside a batch and across batches — simulate once.
#[test]
fn duplicate_keys_simulate_once() {
    four_workers();
    let scale = tiny();
    let engine = Engine::new();
    let keys = sample_keys(&scale);
    let unique = {
        let mut u = keys.clone();
        u.sort_by_key(|k| format!("{k:?}"));
        u.dedup();
        u.len() as u64
    };
    let first = engine.run_many(&keys);
    assert_eq!(engine.simulated_runs(), unique);
    // Re-requesting the whole batch (any order) touches the simulator
    // zero times and returns the same shared reports.
    let mut reversed = keys.clone();
    reversed.reverse();
    let second = engine.run_many(&reversed);
    assert_eq!(engine.simulated_runs(), unique);
    for (a, b) in first.iter().zip(second.iter().rev()) {
        assert!(Arc::ptr_eq(a, b));
    }
    // Each binary's executable was built exactly once, however many runs
    // shared it, from one program per profile: mesa, gap and crafty each
    // generated theirs once, though mesa and gap each run a plain and an
    // instrumented binary.
    assert_eq!(engine.store_summary().programs.cold, 3);
}

/// Concurrent `run_many` and `run_scenarios` callers with overlapping
/// batches must still simulate each unique key exactly once (in-flight
/// claims, not just a result cache) and all observe identical reports.
#[test]
fn concurrent_batches_simulate_each_key_once() {
    four_workers();
    let scale = tiny();
    let engine = Engine::new();
    let keys = sample_keys(&scale);
    let unique = {
        let mut u = keys.clone();
        u.sort_by_key(|k| format!("{k:?}"));
        u.dedup();
        u.len() as u64
    };
    let batches: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..4).map(|_| s.spawn(|| engine.run_many(&keys))).collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(engine.simulated_runs(), unique);
    for batch in &batches[1..] {
        for (a, b) in batches[0].iter().zip(batch) {
            assert!(Arc::ptr_eq(a, b), "all callers share one report");
        }
    }

    // Four scenario callers released together over two unique configs
    // (each requested twice per batch).
    let cfgs: Vec<ScenarioConfig> = [TlbMode::Asid, TlbMode::Flush, TlbMode::Asid, TlbMode::Flush]
        .into_iter()
        .map(|tlb_mode| {
            let procs = vec![ScenarioProc::new("177.mesa"), ScenarioProc::new("254.gap")];
            let mut cfg = ScenarioConfig::new(procs, scale, StrategyKind::Ia, AddressingMode::ViPt);
            cfg.quantum = 4_000;
            cfg.tlb_mode = tlb_mode;
            cfg
        })
        .collect();
    let start = Barrier::new(4);
    let batches: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                s.spawn(|| {
                    start.wait();
                    engine.run_scenarios(&cfgs)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(engine.store_summary().scenarios.cold, 2);
    for batch in &batches {
        for (a, b) in batches[0].iter().zip(batch) {
            assert!(Arc::ptr_eq(a, b), "all callers share one scenario report");
        }
    }
}

/// Experiment plans sharing an engine dedup against each other: table5's
/// base VI-PT runs are a subset of table2's, so running both costs
/// exactly table2's runs.
#[test]
fn experiments_dedup_across_each_other() {
    four_workers();
    let scale = tiny();
    let engine = Engine::new();
    let t2 = table2(&engine, &scale);
    let after_table2 = engine.simulated_runs();
    assert_eq!(after_table2, 12, "six profiles × (VI-PT, VI-VT) base runs");
    let t5 = table5(&engine, &scale);
    assert_eq!(
        engine.simulated_runs(),
        after_table2,
        "table5 re-uses table2's base VI-PT runs"
    );
    assert_eq!(t2.len(), 6);
    assert_eq!(t5.len(), 6);
}

/// The same plan evaluated on a cold engine and on a warm, shared engine
/// yields identical rows — the property that makes `all_experiments`'
/// output independent of table order and cache state.
#[test]
fn shared_engine_matches_cold_engine() {
    four_workers();
    let scale = tiny();
    let shared = Engine::new();
    let _ = table2(&shared, &scale); // warm the cache with overlapping runs
    let warm_rows = table5(&shared, &scale);
    let cold_rows = table5(&Engine::new(), &scale);
    assert_eq!(format!("{warm_rows:?}"), format!("{cold_rows:?}"));
}
