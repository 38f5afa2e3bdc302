//! The store key of every stored namespace, pinned byte for byte.
//!
//! A key is its record's address in the artifact store and the daemon: a
//! change to its text, however small (a number printed another way, a
//! token renamed), turns every existing store cold without a word. So
//! each key text is written out here in full, and a change to one must be
//! made on purpose, together with this file.

use cfr_sim::core::{
    ExperimentScale, ItlbChoice, RunKey, ScenarioConfig, ScenarioProc, StrategyKind, TlbMode,
};
use cfr_sim::types::{AddressingMode, PageGeometry, TlbOrganization};
use cfr_sim::workload::{profiles, walk_store_key, BenchmarkProfile, GeneratorParams};

fn scale() -> ExperimentScale {
    ExperimentScale {
        max_commits: 60_000,
        seed: 24_301,
    }
}

#[test]
fn a_default_run_key() {
    let key = RunKey::new(
        "177.mesa",
        &scale(),
        StrategyKind::Base,
        AddressingMode::ViPt,
    );
    assert_eq!(
        key.store_key(),
        "runkey 177.mesa scale 60000 24301 base vipt mono torg 32 32 default default"
    );
}

#[test]
fn a_run_key_with_overrides_and_a_two_level_itlb() {
    let itlb = ItlbChoice::TwoLevel(
        TlbOrganization::fully_associative(1),
        TlbOrganization::set_associative(16, 2),
        3,
    );
    let key = RunKey::new(
        "254.gap",
        &scale(),
        StrategyKind::SoLA,
        AddressingMode::ViVt,
    )
    .with_itlb(itlb)
    .with_il1_bytes(2048)
    .with_page_bytes(65_536);
    assert_eq!(
        key.store_key(),
        "runkey 254.gap scale 60000 24301 sola vivt two torg 1 1 torg 16 2 3 2048 65536"
    );
}

#[test]
fn a_walk_key() {
    // Every generator knob is spelled out, so recalibrating a registered
    // profile cannot move this key: only a change to the key's encoding
    // (including the fingerprint's number formatting) can.
    let profile = BenchmarkProfile {
        name: "000.pinned",
        params: GeneratorParams {
            seed: 0xC0FF_EE00_1234,
            functions: 90,
            hot_functions: 5,
            blocks_per_function: (40, 80),
            block_len: (3, 11),
            loop_prob: 0.3,
            loop_len: (2, 5),
            loop_bias: 0.875,
            outer_loop_prob: 0.6,
            outer_bias: 0.55,
            loop_call: 0.6,
            loop_icall: 0.08,
            plain_fallthrough: 0.1,
            w_cond: 0.55,
            w_jump: 0.08,
            w_call: 0.27,
            w_indirect: 0.1,
            indirect_local: 0.6,
            fwd_bias: 0.08,
            weak_fraction: 0.12,
            weak_bias: 0.6,
            call_hot_locality: 0.92,
            leaf_fraction: 0.4,
            call_leaf: 0.7,
            leaf_blocks: (2, 6),
            load_frac: 0.25,
            store_frac: 0.1,
            fp_frac: 0.05,
            mul_frac: 0.02,
            region_stack: 0.5,
            region_global: 0.3,
            global_pages: 8,
            heap_arrays: 4,
            heap_array_pages: 16,
        },
        // The paper's numbers are not part of the key.
        paper: profiles::mesa().paper,
    };
    let key = walk_store_key(&profile, PageGeometry::default_4k(), false, 60_000, 24_301);
    assert_eq!(
        key,
        "walk 000.pinned bd70f17e01a2c40c 4096 plain 60000 24301"
    );
}

#[test]
fn a_scenario_key() {
    let mut cfg = ScenarioConfig::new(
        vec![
            ScenarioProc::new("177.mesa"),
            ScenarioProc::new("254.gap").with_page_bytes(8192),
        ],
        scale(),
        StrategyKind::Ia,
        AddressingMode::ViPt,
    );
    cfg.tlb_mode = TlbMode::Flush;
    cfg.quantum = 20_000;
    assert_eq!(
        cfg.store_key(),
        "scenario 2 177.mesa default 254.gap 8192 scale 60000 24301 ia vipt flush 16 20000 0 0 0 0"
    );
}
