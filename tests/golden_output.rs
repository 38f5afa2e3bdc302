//! Golden-output regression: the optimized simulator must reproduce the
//! recorded pre-optimization reports **field by field**.
//!
//! The golden records below were captured (via `examples/golden_dump.rs`)
//! from the simulator *before* the hot-loop overhaul — monomorphized
//! pipeline, event-gated issue/completion, MRU TLB/cache fast paths,
//! open-addressed page table. Every one of those changes claims to be
//! observationally invisible; this test is the claim's enforcement: a
//! small engine plan re-simulates each golden key cold and asserts every
//! field of every [`RunReport`] — cycles, all TLB/cache counters, every
//! energy component to the exact f64 bit — equals the recording. The
//! plan also runs twice to pin engine-level determinism.
//!
//! If a PR *intentionally* changes the model (not just its speed), rerun
//! `cargo run --release --example golden_dump` and refresh the records —
//! and say so in the PR, because it moves every experiment.

use cfr_sim::core::{Engine, ItlbChoice, RunKey, RunReport, StrategyKind};
use cfr_sim::types::{AddressingMode, RecordReader, TlbOrganization};
use cfr_sim::workload::profiles;

/// `(golden record, key)` pairs, in `examples/golden_dump.rs` order.
fn golden() -> Vec<(&'static str, RunKey)> {
    let scale = cfr_sim::core::ExperimentScale {
        max_commits: 60_000,
        seed: 0x5EED,
    };
    let two_level = ItlbChoice::TwoLevel(
        TlbOrganization::fully_associative(1),
        TlbOrganization::fully_associative(32),
        1,
    );
    vec![
        (
            "report base vipt 60000 62269 tlbstats2 66318 66313 5 0 0 meter 2 itlb_access comp 66318 0x417a96a9733314f0 itlb_refill comp 5 0x40a3b4cccccccccc breakdown 61976 4342 cpustats 62269 60000 60065 6253 5933 603 0 1059 0 cachestats 66318 66146 172 0 cachestats 17131 7469 9662 5605 cachestats 15439 10864 4575 1 tlbstats2 17131 17041 90 0 0 9783 7790",
            RunKey::new("177.mesa", &scale, StrategyKind::Base, AddressingMode::ViPt),
        ),
        (
            "report ia vipt 60000 61957 tlbstats2 1678 1673 5 0 0 meter 4 cfr_compare comp 6110 0x40edd58000000000 cfr_read comp 64712 0x41122b2cccccd072 itlb_access comp 1678 0x4125872e66666723 itlb_refill comp 5 0x40a3b4cccccccccc breakdown 1 1677 cpustats 61957 60000 60065 6325 5933 604 0 1059 0 cachestats 66390 66241 149 0 cachestats 17131 7469 9662 5605 cachestats 15416 10842 4574 1 tlbstats2 17131 17041 90 0 0 9792 7795",
            RunKey::new("177.mesa", &scale, StrategyKind::Ia, AddressingMode::ViPt),
        ),
        (
            "report hoa pipt 60000 62586 tlbstats2 1130 1125 5 0 0 meter 4 cfr_compare comp 66170 0x4124318800000000 cfr_read comp 65040 0x411242c000000322 itlb_access comp 1130 0x411cfeb00000009f itlb_refill comp 5 0x40a3b4cccccccccc breakdown 1 1129 cpustats 62586 60000 60065 6105 5933 601 0 1059 0 cachestats 66170 65996 174 0 cachestats 17131 7469 9662 5605 cachestats 15441 10864 4577 1 tlbstats2 17131 17041 90 0 0 9783 7783",
            RunKey::new("177.mesa", &scale, StrategyKind::HoA, AddressingMode::PiPt),
        ),
        (
            "report sola vivt 60000 106109 tlbstats2 161 153 8 0 0 meter 3 cfr_read comp 413 0x409daf33333332f7 itlb_access comp 161 0x40f086466666666f itlb_refill comp 8 0x40af87ae147ae147 breakdown 106 55 cpustats 106109 60000 60071 5701 4636 534 3 391 3 cachestats 65772 65198 574 0 cachestats 20640 9071 11569 3118 cachestats 15261 9994 5267 50 tlbstats2 20640 20524 116 0 0 15695 5237",
            RunKey::new("254.gap", &scale, StrategyKind::SoLA, AddressingMode::ViVt),
        ),
        (
            "report opt vipt 60000 105628 tlbstats2 440 432 8 0 0 meter 5 cfr_read comp 65288 0x41125493333335f2 itlb_l1_access comp 440 0x40bff80000000048 itlb_l1_refill comp 440 0x40c32e6666666645 itlb_l2_access comp 440 0x4106947fffffffcd itlb_l2_refill comp 8 0x40af87ae147ae147 breakdown 5 435 cpustats 105628 60000 60068 5660 4633 536 0 391 3 cachestats 65728 65155 573 0 cachestats 20640 9073 11567 3117 cachestats 15257 9992 5265 50 tlbstats2 20640 20524 116 0 0 15705 5236",
            RunKey::new("254.gap", &scale, StrategyKind::Opt, AddressingMode::ViPt)
                .with_itlb(two_level),
        ),
        (
            "report soca vipt 60000 113337 tlbstats2 2796 2791 5 0 0 meter 3 cfr_read comp 62835 0x4111a44400000694 itlb_access comp 2796 0x4131ef8e6666669e itlb_refill comp 5 0x40a3b4cccccccccc breakdown 1 2795 cpustats 113337 60000 60071 5560 4633 536 0 359 0 cachestats 65631 64565 1066 0 cachestats 20638 8487 12151 3188 cachestats 16405 9151 7254 704 tlbstats2 20638 20591 47 0 0 15704 5240",
            RunKey::new("254.gap", &scale, StrategyKind::SoCA, AddressingMode::ViPt)
                .with_il1_bytes(2048)
                .with_page_bytes(16384),
        ),
    ]
}

fn parse(record: &str) -> RunReport {
    let mut r = RecordReader::new(record);
    let report = RunReport::from_record(&mut r).expect("golden record parses");
    r.finish().expect("no trailing golden tokens");
    report
}

/// Asserts every field of `got` equals `want`, naming the field (and the
/// run) in the failure message — far more diagnosable than one big
/// `assert_eq!` over the whole struct.
fn assert_report_fields(ctx: &str, got: &RunReport, want: &RunReport) {
    assert_eq!(got.strategy, want.strategy, "{ctx}: strategy");
    assert_eq!(got.mode, want.mode, "{ctx}: mode");
    assert_eq!(got.committed, want.committed, "{ctx}: committed");
    assert_eq!(got.cycles, want.cycles, "{ctx}: cycles");
    assert_eq!(got.itlb, want.itlb, "{ctx}: iTLB counters");
    assert_eq!(got.breakdown, want.breakdown, "{ctx}: lookup breakdown");
    assert_eq!(got.cpu.fetched, want.cpu.fetched, "{ctx}: fetched");
    assert_eq!(
        got.cpu.wrong_path_fetched, want.cpu.wrong_path_fetched,
        "{ctx}: wrong-path fetched"
    );
    assert_eq!(got.cpu.branches, want.cpu.branches, "{ctx}: branches");
    assert_eq!(
        got.cpu.mispredicts, want.cpu.mispredicts,
        "{ctx}: mispredicts"
    );
    assert_eq!(got.cpu.loads, want.cpu.loads, "{ctx}: loads");
    assert_eq!(got.cpu.stores, want.cpu.stores, "{ctx}: stores");
    assert_eq!(got.cpu.il1, want.cpu.il1, "{ctx}: iL1 counters");
    assert_eq!(got.cpu.dl1, want.cpu.dl1, "{ctx}: dL1 counters");
    assert_eq!(got.cpu.l2, want.cpu.l2, "{ctx}: L2 counters");
    assert_eq!(got.cpu.dtlb, want.cpu.dtlb, "{ctx}: dTLB counters");
    assert_eq!(
        got.cpu.crossings_branch, want.cpu.crossings_branch,
        "{ctx}: branch crossings"
    );
    assert_eq!(
        got.cpu.crossings_boundary, want.cpu.crossings_boundary,
        "{ctx}: boundary crossings"
    );
    // Energy: every component present, event-for-event and bit-for-bit.
    for (name, want_c) in want.energy.iter() {
        assert_eq!(
            got.energy.events(name),
            want_c.events,
            "{ctx}: energy events for {name}"
        );
        assert_eq!(
            got.energy.component_pj(name).to_bits(),
            want_c.total_pj.to_bits(),
            "{ctx}: exact energy bits for {name}"
        );
    }
    assert_eq!(got.energy, want.energy, "{ctx}: full energy meter");
    // Belt and braces: full struct equality after the field-wise walk.
    assert_eq!(got, want, "{ctx}: full report");
}

#[test]
fn optimized_simulator_reproduces_recorded_seed_reports() {
    let cases = golden();
    let keys: Vec<RunKey> = cases.iter().map(|(_, k)| *k).collect();
    // No store: the goldens must be *simulated*, never read warm.
    let engine = Engine::new();
    let first = engine.run_many(&keys);
    assert_eq!(engine.store_summary().runs.warm, 0, "plan ran cold");
    for ((record, key), got) in cases.iter().zip(&first) {
        let want = parse(record);
        assert_report_fields(&format!("{key:?}"), got, &want);
    }
    // The same plan on a second engine is bit-identical (determinism is
    // what makes the goldens meaningful at all).
    let second = Engine::new().run_many(&keys);
    for ((a, b), (_, key)) in first.iter().zip(&second).zip(&cases) {
        assert_eq!(**a, **b, "second engine diverged for {key:?}");
    }
}

#[test]
fn golden_keys_cover_the_feature_matrix() {
    // The golden set must keep covering all three addressing modes, a
    // two-level iTLB, both config overrides, and several strategies — so
    // a hot-path regression in any of those paths trips the goldens.
    let cases = golden();
    let modes: std::collections::HashSet<_> = cases.iter().map(|(_, k)| k.mode).collect();
    assert_eq!(modes.len(), 3, "all addressing modes covered");
    assert!(cases
        .iter()
        .any(|(_, k)| matches!(k.itlb, ItlbChoice::TwoLevel(..))));
    assert!(cases.iter().any(|(_, k)| k.il1_bytes.is_some()));
    assert!(cases.iter().any(|(_, k)| k.page_bytes.is_some()));
    let profiles_used: std::collections::HashSet<_> =
        cases.iter().map(|(_, k)| k.profile).collect();
    assert!(profiles_used.len() >= 2);
    for name in &profiles_used {
        assert!(
            profiles::all().iter().any(|p| p.name == *name),
            "golden profile {name} is registered"
        );
    }
}
