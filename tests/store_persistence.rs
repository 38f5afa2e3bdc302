//! End-to-end tests of the persistent cross-process artifact store: a
//! second engine over the same directory (standing in for a second
//! process) computes nothing — in *any* namespace — and reproduces
//! bit-identical results; corruption, torn writes, format bumps, and
//! stale codecs degrade to recomputation, never a crash.

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use cfr_sim::core::{
    fig4, fig6, table2, table3, table4, table5, table6, table7, table8, ArtifactStore,
    ClaimOutcome, Engine, ExecBackend, ExperimentScale, GcPolicy, RunKey, RunReport, Store,
    StoreBackend, StrategyKind, NS_PROGRAMS, NS_TRACES, STORE_FORMAT_VERSION,
};
use cfr_sim::types::AddressingMode;
use cfr_sim::workload::{params_fingerprint, profiles};

fn temp_store(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cfr-store-it-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn tiny() -> ExperimentScale {
    ExperimentScale {
        max_commits: 15_000,
        seed: 0x5EED,
    }
}

fn sample_keys(scale: &ExperimentScale) -> Vec<RunKey> {
    vec![
        RunKey::new("177.mesa", scale, StrategyKind::Base, AddressingMode::ViPt),
        RunKey::new("177.mesa", scale, StrategyKind::Ia, AddressingMode::ViPt),
        RunKey::new("254.gap", scale, StrategyKind::SoCA, AddressingMode::ViVt),
    ]
}

fn shard_files(dir: &PathBuf) -> Vec<PathBuf> {
    fs::read_dir(dir)
        .unwrap()
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .is_some_and(|n| n.to_string_lossy().starts_with("shard-"))
        })
        .collect()
}

/// The headline behaviour: everything a first engine simulates, a second
/// engine over the same store serves warm, bit-identically — and the
/// directory holds O(shards) files, not O(runs).
#[test]
fn second_engine_simulates_nothing() {
    let dir = temp_store("warm");
    let scale = tiny();
    let keys = sample_keys(&scale);

    let cold = Engine::new().with_store(Store::open(&dir).unwrap());
    let cold_reports = cold.run_many(&keys);
    assert_eq!(cold.simulated_runs(), keys.len() as u64);
    let runs = cold.store_summary().runs;
    assert_eq!((runs.warm, runs.cold), (0, keys.len() as u64));
    assert_eq!(
        cold.store().unwrap().record_count(),
        keys.len(),
        "one live record per unique key"
    );
    assert!(
        fs::read_dir(&dir).unwrap().count() <= cfr_sim::core::SHARD_COUNT as usize,
        "packed layout: O(shards) files"
    );

    let warm = Engine::new().with_store(Store::open(&dir).unwrap());
    let warm_reports = warm.run_many(&keys);
    assert_eq!(warm.simulated_runs(), 0, "everything came from disk");
    let summary = warm.store_summary();
    assert_eq!(
        (summary.runs.warm, summary.runs.cold),
        (keys.len() as u64, 0)
    );
    assert_eq!(summary.programs.cold, 0, "warm runs need no programs");
    for (a, b) in cold_reports.iter().zip(&warm_reports) {
        assert_eq!(**a, **b, "warm reports are bit-identical");
    }
    let _ = fs::remove_dir_all(&dir);
}

/// A whole experiment plan (Table 2) is warm on the second engine, and
/// produces identical rows.
#[test]
fn table2_is_warm_on_second_run() {
    let dir = temp_store("table2");
    let scale = tiny();

    let cold = Engine::new().with_store(Store::open(&dir).unwrap());
    let cold_rows = table2(&cold, &scale);
    assert!(cold.simulated_runs() > 0);
    assert_eq!(
        cold.store_summary().programs.cold,
        6,
        "one program generated per binary run: each profile's plain one"
    );

    let warm = Engine::new().with_store(Store::open(&dir).unwrap());
    let warm_rows = table2(&warm, &scale);
    assert_eq!(warm.simulated_runs(), 0, "0 cold runs on the second pass");
    for (a, b) in cold_rows.iter().zip(&warm_rows) {
        assert_eq!(a.name, b.name);
        assert_eq!(a.vipt_cycles, b.vipt_cycles);
        assert_eq!(a.vipt_energy_mj.to_bits(), b.vipt_energy_mj.to_bits());
        assert_eq!(a.vivt_cycles, b.vivt_cycles);
        assert_eq!(a.vivt_energy_mj.to_bits(), b.vivt_energy_mj.to_bits());
    }
    let _ = fs::remove_dir_all(&dir);
}

/// Table 4 exercises the non-pipeline namespace: a cold run persists walk
/// measurements — measured once per engine, however often the table is
/// asked for, each walk on a program it generates; a warm run reads the
/// walks back — 0 cold in *every* namespace, without touching the
/// generator.
#[test]
fn table4_walks_are_warm_on_second_run() {
    let dir = temp_store("table4");
    let scale = tiny();

    let cold = Engine::new().with_store(Store::open(&dir).unwrap());
    let cold_rows = table4(&cold, &scale);
    let again = table4(&cold, &scale);
    assert_eq!(format!("{cold_rows:?}"), format!("{again:?}"));
    let s = cold.store_summary();
    assert_eq!(s.runs.cold, 0, "table4 needs no pipeline runs");
    assert_eq!(
        s.walks,
        cfr_sim::core::NamespaceTraffic { warm: 0, cold: 6 }
    );
    assert_eq!(s.programs.cold, 6, "each walk generated its program");

    let warm = Engine::new().with_store(Store::open(&dir).unwrap());
    let warm_rows = table4(&warm, &scale);
    let s = warm.store_summary();
    assert_eq!(
        s.walks,
        cfr_sim::core::NamespaceTraffic { warm: 6, cold: 0 }
    );
    assert_eq!(
        (s.runs.cold, s.programs.cold),
        (0, 0),
        "0 cold in all namespaces"
    );
    assert_eq!(
        s.programs.warm, 0,
        "warm walks never even load the programs"
    );
    for (a, b) in cold_rows.iter().zip(&warm_rows) {
        assert_eq!(a.name, b.name);
        assert_eq!(a.static_total, b.static_total);
        assert_eq!(a.dyn_total, b.dyn_total);
        assert_eq!(a.dyn_in_page, b.dyn_in_page);
    }
    let _ = fs::remove_dir_all(&dir);
}

/// A store backend that counts every request it sees in the `programs`
/// and `traces` namespaces: loads, batched or not, claims, waits and
/// saves.
#[derive(Debug)]
struct ArtifactCounter {
    inner: Arc<ArtifactStore>,
    requests: AtomicU64,
}

impl ArtifactCounter {
    fn see(&self, ns: &str) {
        if ns == NS_PROGRAMS || ns == NS_TRACES {
            self.requests.fetch_add(1, Ordering::Relaxed);
        }
    }
}

impl StoreBackend for ArtifactCounter {
    fn load(&self, ns: &str, key: &str) -> Option<String> {
        self.see(ns);
        self.inner.load(ns, key)
    }

    fn save(&self, ns: &str, key: &str, value: &str) {
        self.see(ns);
        self.inner.save(ns, key, value);
    }

    fn load_many(&self, items: &[(String, String)]) -> Vec<Option<String>> {
        for (ns, _) in items {
            self.see(ns);
        }
        StoreBackend::load_many(self.inner.as_ref(), items)
    }

    fn claim(&self, ns: &str, key: &str, lease: Duration) -> ClaimOutcome {
        self.see(ns);
        self.inner.claim(ns, key, lease)
    }

    fn wait_for(&self, ns: &str, key: &str, timeout: Duration) -> Option<String> {
        self.see(ns);
        self.inner.wait_for(ns, key, timeout)
    }

    fn write_errors(&self) -> u64 {
        self.inner.write_errors()
    }

    fn namespace_records(&self, ns: &str) -> usize {
        self.inner.namespace_records(ns)
    }

    fn describe(&self) -> String {
        self.inner.describe()
    }
}

/// The nine `all_experiments` tables and figures (`fig5` is a panel of
/// `fig4`), each rendered as its rows' debug text.
fn nine_experiments(engine: &Engine, scale: &ExperimentScale) -> Vec<String> {
    vec![
        format!("{:?}", table2(engine, scale)),
        format!("{:?}", fig4(engine, scale)),
        format!("{:?}", table3(engine, scale)),
        format!("{:?}", table4(engine, scale)),
        format!("{:?}", table5(engine, scale)),
        format!("{:?}", table6(engine, scale)),
        format!("{:?}", table7(engine, scale)),
        format!("{:?}", fig6(engine, scale)),
        format!("{:?}", table8(engine, scale)),
    ]
}

/// The engine's loads, batched or not, read only the namespaces whose
/// records it uses: it remakes programs and traces in every process, so
/// it never loads, claims or saves a `programs` or `traces` record and
/// the store ends up holding none. Checked on a cold nine-experiment pass
/// over an empty store and on a pass with a new seed over the store the
/// first filled (new runs and walks, the same binaries). Each pass
/// computes what an engine without a store computes.
#[test]
fn prefetch_reads_only_artifacts_the_engine_uses() {
    let dir = temp_store("prefetch");
    let store = Arc::new(ArtifactStore::open(&dir, GcPolicy::unbounded()).unwrap());
    for seed in [0x5EED, 0xBEEF] {
        let scale = ExperimentScale {
            max_commits: 5_000,
            seed,
        };
        let counter = Arc::new(ArtifactCounter {
            inner: Arc::clone(&store),
            requests: AtomicU64::new(0),
        });
        let engine = Engine::new().with_store(Store::over(counter.clone()));
        let outputs = nine_experiments(&engine, &scale);
        assert_eq!(
            outputs,
            nine_experiments(&Engine::new(), &scale),
            "seed {seed:#x}: the store changes no output"
        );
        assert_eq!(
            counter.requests.load(Ordering::Relaxed),
            0,
            "seed {seed:#x}: no program or trace request reached the store"
        );
        let s = engine.store_summary();
        assert!(s.runs.cold > 0, "seed {seed:#x}: the runs are new");
        assert!(s.programs.cold > 0, "seed {seed:#x}: programs remade");
        assert_eq!(
            (s.programs.warm, s.traces.warm),
            (0, 0),
            "seed {seed:#x}: no artifact served from the store"
        );
    }
    assert_eq!(store.namespace_records(NS_PROGRAMS), 0);
    assert_eq!(store.namespace_records(NS_TRACES), 0);
    let _ = fs::remove_dir_all(&dir);
}

/// A `programs` or `traces` record an older build left in the store, here
/// garbage under the keys those builds used, is never read: the engine
/// regenerates the program and recompiles the trace of every binary it
/// runs, computes what an engine without a store computes, and leaves
/// the records as it found them.
#[test]
fn invalid_program_and_trace_records_are_recomputed() {
    let dir = temp_store("artifacts");
    let store = Arc::new(ArtifactStore::open(&dir, GcPolicy::unbounded()).unwrap());
    let mesa = profiles::mesa();
    let id = format!("{} {:016x}", mesa.name, params_fingerprint(&mesa.params));
    let program_key = format!("program {id}");
    // Base runs the plain binary; IA runs the instrumented one, which
    // carries SoLA's in-page marks.
    let trace_keys = ["plain unmarked", "instr marked"].map(|c| format!("trace {id} 4096 {c}"));
    store.save(NS_PROGRAMS, &program_key, "not a program");
    for key in &trace_keys {
        store.save(NS_TRACES, key, "not a trace");
    }
    let scale = ExperimentScale {
        max_commits: 5_000,
        seed: 0x5EED,
    };
    let keys = [StrategyKind::Base, StrategyKind::Ia]
        .map(|s| RunKey::new("177.mesa", &scale, s, AddressingMode::ViPt));
    let counter = Arc::new(ArtifactCounter {
        inner: Arc::clone(&store),
        requests: AtomicU64::new(0),
    });
    let engine = Engine::new().with_store(Store::over(counter.clone()));
    let storeless = Engine::new();
    for key in keys {
        assert_eq!(*engine.run(key), *storeless.run(key), "{key:?}");
    }
    assert_eq!(counter.requests.load(Ordering::Relaxed), 0);
    let traced = u64::from(ExecBackend::from_env() == ExecBackend::Compiled);
    let s = engine.store_summary();
    assert_eq!(
        (s.programs.warm, s.programs.cold),
        (0, 2),
        "both regenerated"
    );
    assert_eq!(
        (s.traces.warm, s.traces.cold),
        (0, 2 * traced),
        "recompiled"
    );
    assert_eq!(
        store.load(NS_PROGRAMS, &program_key).as_deref(),
        Some("not a program")
    );
    for key in &trace_keys {
        assert_eq!(store.load(NS_TRACES, key).as_deref(), Some("not a trace"));
    }
    let _ = fs::remove_dir_all(&dir);
}

/// Corrupt and torn shard files degrade to re-simulation and are
/// repaired in place; the run's result is unaffected.
#[test]
fn corruption_resimulates_and_repairs() {
    let dir = temp_store("corrupt");
    let scale = tiny();
    let key = RunKey::new("177.mesa", &scale, StrategyKind::Base, AddressingMode::ViPt);

    let first = Engine::new().with_store(Store::open(&dir).unwrap());
    let original: Arc<RunReport> = first.run(key);

    for vandalism in [
        "complete garbage".to_string(),
        String::new(), // zero-length (crash between create and write)
        "rec 2 runs 0 424242 424242\ntorn".to_string(), // torn length-prefixed tail
    ] {
        for shard in shard_files(&dir) {
            fs::write(&shard, &vandalism).unwrap();
        }
        let engine = Engine::new().with_store(Store::open(&dir).unwrap());
        let report = engine.run(key);
        assert_eq!(engine.simulated_runs(), 1, "corrupt record re-simulates");
        assert_eq!(*report, *original, "result is rebuilt, not garbage");
        // The overwrite repaired the store: next engine is warm again.
        let repaired = Engine::new().with_store(Store::open(&dir).unwrap());
        let again = repaired.run(key);
        assert_eq!(repaired.simulated_runs(), 0, "repaired record serves warm");
        assert_eq!(*again, *original);
    }
    let _ = fs::remove_dir_all(&dir);
}

/// Bumping the record-framing version invalidates every record: a reader
/// built against a different version re-simulates everything (here
/// simulated by rewriting the version token of stored records, which is
/// equivalent).
#[test]
fn format_bump_forces_full_resimulation() {
    let dir = temp_store("format");
    let scale = tiny();
    let keys = sample_keys(&scale);

    let cold = Engine::new().with_store(Store::open(&dir).unwrap());
    let _ = cold.run_many(&keys);

    // Rewrite every record as if it had been framed by an older version.
    let mut rewrote = false;
    for shard in shard_files(&dir) {
        let text = fs::read_to_string(&shard).unwrap();
        let stale = text.replace(
            &format!("rec {STORE_FORMAT_VERSION} "),
            &format!("rec {} ", STORE_FORMAT_VERSION + 1),
        );
        rewrote |= stale != text;
        fs::write(&shard, stale).unwrap();
    }
    assert!(rewrote, "every record starts with the framing version");

    let reader = Engine::new().with_store(Store::open(&dir).unwrap());
    let _ = reader.run_many(&keys);
    assert_eq!(
        reader.simulated_runs(),
        keys.len() as u64,
        "version-mismatched records are all misses"
    );
    // ... and the overwrite re-stamped them with the current version.
    let warm = Engine::new().with_store(Store::open(&dir).unwrap());
    let _ = warm.run_many(&keys);
    assert_eq!(warm.simulated_runs(), 0);
    let _ = fs::remove_dir_all(&dir);
}

/// Engines *without* a store keep PR 1's exact behaviour: every unique
/// key simulates, and the store counters read zero warm.
#[test]
fn storeless_engine_unchanged() {
    let scale = tiny();
    let keys = sample_keys(&scale);
    let engine = Engine::new();
    assert!(engine.store().is_none());
    let _ = engine.run_many(&keys);
    assert_eq!(engine.simulated_runs(), keys.len() as u64);
    let summary = engine.store_summary();
    assert_eq!(
        (summary.runs.warm, summary.runs.cold),
        (0, keys.len() as u64)
    );
    assert_eq!(summary.walks.warm, 0);
    assert_eq!(summary.programs.warm, 0);
    assert!(engine.summary_line().starts_with("store: disabled"));
}
