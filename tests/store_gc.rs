//! Integration tests of the store's garbage collection and compaction:
//! byte budgets evict oldest-first, compaction preserves surviving
//! records bit-for-bit, a concurrent reader of a mid-compaction store
//! degrades to a miss (never a wrong answer), and a capped engine store
//! stays correct — just colder.

use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

use cfr_sim::core::{Engine, ExperimentScale, GcPolicy, RunKey, Store, StrategyKind};
use cfr_sim::types::{AddressingMode, ArtifactStore, StoreBackend, NS_RUNS};

fn temp_store(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cfr-gc-it-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Filling a capped store past `max_bytes` evicts oldest-first: the
/// survivors are a contiguous suffix of the insertion order, and the
/// files stay under the cap.
#[test]
fn filling_past_the_cap_evicts_oldest_first() {
    let dir = temp_store("fill");
    let cap = 4000u64;
    let store = ArtifactStore::open(
        &dir,
        GcPolicy {
            max_bytes: Some(cap),
            max_age_secs: None,
        },
    )
    .unwrap();
    let payload = "p".repeat(150);
    for i in 0..60u64 {
        store.save_stamped(NS_RUNS, &format!("run-{i:02}"), &payload, 5000 + i);
    }
    assert!(
        store.file_bytes() <= cap,
        "budget held: {}",
        store.file_bytes()
    );
    assert!(store.evicted_records() > 0);
    let alive: Vec<u64> = (0..60)
        .filter(|i| store.load(NS_RUNS, &format!("run-{i:02}")).is_some())
        .collect();
    assert!(!alive.is_empty(), "the newest records survive");
    let oldest_alive = alive[0];
    assert!(oldest_alive > 0, "the oldest record was evicted");
    assert_eq!(
        alive,
        (oldest_alive..60).collect::<Vec<_>>(),
        "survivors are exactly the newest (contiguous) suffix"
    );
    // A fresh scan of the compacted shards agrees byte-for-byte.
    let reopened = ArtifactStore::open(&dir, GcPolicy::unbounded()).unwrap();
    for i in alive {
        assert_eq!(
            reopened.load(NS_RUNS, &format!("run-{i:02}")).as_deref(),
            Some(payload.as_str()),
            "post-compaction read of run-{i:02} is byte-identical"
        );
    }
    let _ = fs::remove_dir_all(&dir);
}

/// Compaction drops superseded (dead) bytes while preserving every
/// surviving record's exact bytes — including float bit patterns.
#[test]
fn compaction_preserves_survivors_bit_for_bit() {
    let dir = temp_store("compact");
    let store = ArtifactStore::open(&dir, GcPolicy::unbounded()).unwrap();
    let exact = "fstats 1 2 3 0x3fb999999999999a 0xc000000000000000";
    store.save(NS_RUNS, "stable", exact);
    for i in 0..50 {
        store.save(NS_RUNS, "churn", &format!("version {i}"));
    }
    let before = store.file_bytes();
    let report = store.gc();
    assert!(report.dead_bytes_dropped > 0);
    assert!(report.shards_rewritten > 0);
    assert!(store.file_bytes() < before);
    assert_eq!(store.file_bytes(), store.live_bytes(), "no dead bytes left");
    assert_eq!(store.load(NS_RUNS, "stable").as_deref(), Some(exact));
    assert_eq!(store.load(NS_RUNS, "churn").as_deref(), Some("version 49"));
    let _ = fs::remove_dir_all(&dir);
}

/// A reader holding a pre-compaction index while another handle compacts
/// the store must degrade to misses (and repair itself on the next
/// save), never serve bytes from the wrong offset as a value.
#[test]
fn concurrent_reader_of_a_mid_compaction_store_misses() {
    let dir = temp_store("racing");
    let reader = ArtifactStore::open(&dir, GcPolicy::unbounded()).unwrap();
    // Several records per shard so compaction shifts offsets.
    for i in 0..40 {
        reader.save(NS_RUNS, &format!("k{i}"), &format!("value number {i}"));
    }
    // A second handle (a concurrent process) supersedes some records and
    // compacts, invalidating the reader's offsets.
    let compactor = ArtifactStore::open(&dir, GcPolicy::unbounded()).unwrap();
    for i in 0..20 {
        compactor.save(NS_RUNS, &format!("k{i}"), "superseded!");
    }
    let report = compactor.gc();
    assert!(report.dead_bytes_dropped > 0);
    // The reader's stale index: every load is either a miss or the true
    // current value (when the offset happened to survive) — never a torn
    // or foreign value.
    for i in 0..40 {
        let got = reader.load(NS_RUNS, &format!("k{i}"));
        let valid = [
            None,
            Some(format!("value number {i}")),
            Some("superseded!".to_string()),
        ];
        assert!(valid.contains(&got), "k{i}: unexpected read {got:?}");
    }
    // Misses repair on save: the reader can write through again.
    reader.save(NS_RUNS, "k0", "repaired");
    assert_eq!(reader.load(NS_RUNS, "k0").as_deref(), Some("repaired"));
    let _ = fs::remove_dir_all(&dir);
}

/// An engine over a tightly-capped store stays *correct* — evicted runs
/// simply re-simulate — and the store never outgrows its budget.
#[test]
fn capped_engine_store_is_correct_just_colder() {
    let dir = temp_store("engine");
    let scale = ExperimentScale {
        max_commits: 15_000,
        seed: 0x5EED,
    };
    let keys: Vec<RunKey> = [StrategyKind::Base, StrategyKind::Ia, StrategyKind::HoA]
        .into_iter()
        .map(|k| RunKey::new("177.mesa", &scale, k, AddressingMode::ViPt))
        .collect();
    // Budget fits roughly one run record, so the engine constantly
    // evicts; results must still be bit-identical to an uncapped engine.
    let cap = GcPolicy {
        max_bytes: Some(3000),
        max_age_secs: None,
    };
    let reference = Engine::new();
    let expected = reference.run_many(&keys);

    let artifacts = Arc::new(ArtifactStore::open(&dir, cap).unwrap());
    let backend: Arc<dyn StoreBackend> = artifacts.clone();
    let capped = Engine::new().with_store(Store::over(backend));
    let got = capped.run_many(&keys);
    for (a, b) in expected.iter().zip(&got) {
        assert_eq!(**a, **b);
    }
    assert!(
        artifacts.file_bytes() <= 3000,
        "budget held under engine traffic: {}",
        artifacts.file_bytes()
    );
    // A second engine re-simulates whatever was evicted — correctness
    // never depends on what survived.
    let second = Engine::new().with_store(Store::open_with_policy(&dir, cap).unwrap());
    let again = second.run_many(&keys);
    for (a, b) in expected.iter().zip(&again) {
        assert_eq!(**a, **b);
    }
    let runs = second.store_summary().runs;
    assert!(runs.warm + runs.cold == keys.len() as u64);
    let _ = fs::remove_dir_all(&dir);
}
