//! Shared pipelines, end to end: the engine simulates one run per
//! distinct pipeline and replays the other runs' translators against it —
//! within a batch, and against the runs earlier batches simulated — and
//! every report must still equal the solo simulation of its key, floats
//! to the bit.
//!
//! The plan is a reduced paper plan: two profiles, all six strategies ×
//! three addressing modes, each under Table 6's four iTLBs and Fig. 6's
//! two-level and 128-entry choices, at two seeds. It is resolved in one
//! `run_many` and in seven, one per iTLB. The reference is
//! `Simulator::run_traced`, or `Simulator::run_interp` under
//! `CFR_BACKEND=interp`, the backend the engine itself runs.

use std::collections::HashSet;
use std::sync::OnceLock;

use cfr_sim::core::{
    compiler, table6_itlbs, Engine, ExecBackend, ExperimentScale, ItlbChoice, RunKey, RunReport,
    Simulator, StrategyKind,
};
use cfr_sim::types::{AddressingMode, RecordWriter, TlbOrganization};
use cfr_sim::workload::compile_trace;

const PROFILES: [&str; 2] = ["252.eon", "254.gap"];
const SEEDS: [u64; 2] = [1, 24301];
const MODES: [AddressingMode; 3] = [
    AddressingMode::PiPt,
    AddressingMode::ViPt,
    AddressingMode::ViVt,
];

/// Table 6's four monolithic iTLBs, Fig. 6's two two-level ones and its
/// 128-entry monolith.
fn itlbs() -> Vec<ItlbChoice> {
    let fa = TlbOrganization::fully_associative;
    let mut itlbs: Vec<ItlbChoice> = table6_itlbs()
        .into_iter()
        .map(|(_, org)| ItlbChoice::Mono(org))
        .collect();
    itlbs.push(ItlbChoice::TwoLevel(fa(1), fa(32), 1));
    itlbs.push(ItlbChoice::TwoLevel(fa(32), fa(96), 1));
    itlbs.push(ItlbChoice::Mono(fa(128)));
    itlbs
}

fn plan() -> Vec<RunKey> {
    let mut keys = Vec::new();
    for seed in SEEDS {
        let scale = ExperimentScale {
            max_commits: 20_000,
            seed,
        };
        for profile in PROFILES {
            for kind in StrategyKind::ALL {
                for mode in MODES {
                    for itlb in itlbs() {
                        keys.push(RunKey::new(profile, &scale, kind, mode).with_itlb(itlb));
                    }
                }
            }
        }
    }
    keys
}

/// Every field of a report, floats as their exact bits.
fn bits(report: &RunReport) -> String {
    let mut w = RecordWriter::new();
    report.to_record(&mut w);
    w.finish()
}

/// `key` simulated on its own, on the engine's backend.
fn solo(engine: &Engine, key: &RunKey) -> RunReport {
    let program = engine.program(key.profile);
    let cfg = key.config();
    let laid = compiler::compile_for(&program, cfg.cpu.geometry, key.strategy);
    match ExecBackend::from_env() {
        ExecBackend::Compiled => {
            Simulator::run_traced(&compile_trace(&laid), &cfg, key.strategy, key.mode)
        }
        ExecBackend::Interp => Simulator::run_interp(&laid, &cfg, key.strategy, key.mode),
    }
}

/// Resolves `batches` in order on one fresh engine, checks every report
/// against its key's solo simulation, and returns the engine.
fn resolve_checked(batches: &[Vec<RunKey>]) -> Engine {
    let engine = Engine::new();
    for keys in batches {
        let reports = engine.run_many(keys);
        for (key, report) in keys.iter().zip(&reports) {
            let solo = solo(&engine, key);
            assert_eq!(**report, solo, "{key:?}");
            assert_eq!(bits(report), bits(&solo), "{key:?}");
        }
    }
    engine
}

/// The plan resolved in one batch: its pipelines simulated and runs
/// replayed.
fn one_batch() -> (u64, u64) {
    static COUNTS: OnceLock<(u64, u64)> = OnceLock::new();
    *COUNTS.get_or_init(|| {
        let engine = resolve_checked(&[plan()]);
        let replayed = engine.replayed_runs();
        (engine.simulated_runs() - replayed, replayed)
    })
}

#[test]
fn every_shared_report_equals_its_solo_simulation() {
    let keys = plan();
    let (pipelines, replayed) = one_batch();

    // Both paths ran: some runs were replayed, and some replays were
    // rejected, so more pipelines were simulated than the batch has
    // distinct pipeline identities (binary, mode, configuration without
    // the iTLB).
    assert!(replayed > 0, "no replay was accepted");
    assert!(pipelines > 0, "nothing was simulated");
    assert_eq!(
        pipelines + replayed,
        keys.len() as u64,
        "every key is cold and unique"
    );
    let identities: HashSet<_> = keys
        .iter()
        .map(|k| {
            let class = compiler::wants_instrumented(k.strategy);
            (k.profile, k.scale.seed, k.mode, class)
        })
        .collect();
    assert!(
        pipelines > identities.len() as u64,
        "no replay was rejected: {pipelines} pipelines simulated for {} identities",
        identities.len()
    );
}

#[test]
fn one_batch_per_itlb_simulates_no_more_pipelines_than_one_batch() {
    let batches: Vec<Vec<RunKey>> = itlbs()
        .into_iter()
        .map(|itlb| plan().into_iter().filter(|k| k.itlb == itlb).collect())
        .collect();
    let engine = resolve_checked(&batches);
    let replayed = engine.replayed_runs();
    assert_eq!(engine.simulated_runs(), plan().len() as u64);
    let (pipelines, _) = one_batch();
    assert!(
        engine.simulated_runs() - replayed <= pipelines,
        "{} pipelines simulated in seven batches, {pipelines} in one",
        engine.simulated_runs() - replayed
    );
}

#[test]
fn a_run_of_an_earlier_batchs_pipeline_is_replayed() {
    let scale = ExperimentScale {
        max_commits: 20_000,
        seed: 1,
    };
    let run = |kind| RunKey::new("254.gap", &scale, kind, AddressingMode::ViPt);
    let engine = resolve_checked(&[vec![run(StrategyKind::Base)], vec![run(StrategyKind::HoA)]]);
    assert_eq!(engine.simulated_runs(), 2);
    assert_eq!(engine.replayed_runs(), 1, "HoA replayed against Base's run");
    assert_eq!(engine.retained_logs().logs, 1);
}
