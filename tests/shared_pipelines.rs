//! Shared pipelines, end to end: the engine simulates one run per
//! distinct pipeline of a batch and replays the sibling runs' translators
//! against it, and every report must still equal the solo simulation of
//! its key, floats to the bit.
//!
//! The batch is a reduced paper plan in one `run_many`: two profiles, all
//! six strategies × three addressing modes, each under Table 6's four
//! iTLBs and Fig. 6's two-level and 128-entry choices, at two seeds. The
//! reference is `Simulator::run_traced`, or `Simulator::run_interp` under
//! `CFR_BACKEND=interp`, the backend the engine itself runs.

use std::collections::HashSet;

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

#[test]
fn every_shared_report_equals_its_solo_simulation() {
    let engine = Engine::new();
    let keys = plan();
    let reports = engine.run_many(&keys);

    let backend = ExecBackend::from_env();
    for (key, report) in keys.iter().zip(&reports) {
        let program = engine.program(key.profile);
        let cfg = key.config();
        let laid = compiler::compile_for(&program, cfg.cpu.geometry, key.strategy);
        let solo = match backend {
            ExecBackend::Compiled => {
                Simulator::run_traced(&compile_trace(&laid), &cfg, key.strategy, key.mode)
            }
            ExecBackend::Interp => Simulator::run_interp(&laid, &cfg, key.strategy, key.mode),
        };
        assert_eq!(**report, solo, "{key:?}");
        assert_eq!(bits(report), bits(&solo), "{key:?}");
    }

    // Both paths ran: some runs were replayed, and some replays were
    // rejected, so more pipelines were simulated than the batch has
    // distinct pipeline identities (binary, mode, configuration without
    // the iTLB).
    let (computed, replayed) = (engine.simulated_runs(), engine.replayed_runs());
    assert_eq!(computed, keys.len() as u64, "every key is cold and unique");
    assert!(replayed > 0, "no replay was accepted");
    assert!(replayed < computed, "nothing was simulated");
    let identities: HashSet<_> = keys
        .iter()
        .map(|k| {
            let class = (
                compiler::wants_instrumented(k.strategy),
                k.strategy == StrategyKind::SoLA,
            );
            (k.profile, k.scale.seed, k.mode, class)
        })
        .collect();
    assert!(
        computed - replayed > identities.len() as u64,
        "no replay was rejected: {} pipelines simulated for {} identities",
        computed - replayed,
        identities.len()
    );
}
