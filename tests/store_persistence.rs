//! End-to-end tests of the persistent cross-process artifact store: a
//! second engine over the same directory (standing in for a second
//! process) computes nothing — in *any* namespace — and reproduces
//! bit-identical results; corruption, torn writes, format bumps, and
//! stale codecs degrade to recomputation, never a crash.

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use cfr_sim::core::{
    fig4, fig6, table2, table3, table4, table5, table6, table7, table8, ArtifactStore, Engine,
    ExecBackend, ExperimentScale, GcPolicy, RunKey, RunReport, Store, StoreBackend, StrategyKind,
    NS_PROGRAMS, NS_TRACES, STORE_FORMAT_VERSION,
};
use cfr_sim::types::{AddressingMode, PageGeometry};
use cfr_sim::workload::{profiles, program_store_key, trace_store_key};

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
    assert!(
        cold.store_summary().programs.cold > 0,
        "cold run generated (and persisted) programs"
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

/// Table 4 exercises the two non-pipeline namespaces: a cold run
/// persists programs and walk measurements — measured once per engine,
/// however often the table is asked for; a warm run reads the walks
/// back — 0 cold in *every* namespace, without touching the generator.
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
    assert_eq!(s.programs.cold, 6, "walking required the programs");

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

/// A store backend that counts the `programs` and `traces` values its
/// batched loads return.
#[derive(Debug)]
struct ArtifactCounter {
    inner: Arc<ArtifactStore>,
    found: AtomicU64,
}

impl StoreBackend for ArtifactCounter {
    fn load(&self, ns: &str, key: &str) -> Option<String> {
        self.inner.load(ns, key)
    }

    fn save(&self, ns: &str, key: &str, value: &str) {
        self.inner.save(ns, key, value);
    }

    fn load_many(&self, items: &[(String, String)]) -> Vec<Option<String>> {
        let values = StoreBackend::load_many(self.inner.as_ref(), items);
        let found = items
            .iter()
            .zip(&values)
            .filter(|((ns, _), value)| value.is_some() && (ns == NS_PROGRAMS || ns == NS_TRACES))
            .count();
        self.found.fetch_add(found as u64, Ordering::Relaxed);
        values
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

/// The engine probes only programs and traces it does not already hold,
/// so every program or trace record a batched load returns is one the
/// engine then uses warm. Checked on a cold
/// nine-experiment pass over an empty store (nothing to find, nothing
/// used) and on a pass with a new seed over the filled store (new runs,
/// reused artifacts).
#[test]
fn prefetch_reads_only_artifacts_the_engine_uses() {
    let dir = temp_store("prefetch");
    let store = Arc::new(ArtifactStore::open(&dir, GcPolicy::unbounded()).unwrap());
    for (seed, filled) in [(0x5EED, false), (0xBEEF, true)] {
        let scale = ExperimentScale {
            max_commits: 5_000,
            seed,
        };
        let counter = Arc::new(ArtifactCounter {
            inner: Arc::clone(&store),
            found: AtomicU64::new(0),
        });
        let engine = Engine::new().with_store(Store::over(counter.clone()));
        let _ = table2(&engine, &scale);
        let _ = fig4(&engine, &scale);
        let _ = table3(&engine, &scale);
        let _ = table4(&engine, &scale);
        let _ = table5(&engine, &scale);
        let _ = table6(&engine, &scale);
        let _ = table7(&engine, &scale);
        let _ = fig6(&engine, &scale);
        let _ = table8(&engine, &scale);
        let s = engine.store_summary();
        assert!(s.runs.cold > 0, "seed {seed:#x}: the runs are new");
        assert_eq!(
            s.programs.warm > 0,
            filled,
            "seed {seed:#x}: programs reused"
        );
        assert_eq!(
            s.traces.warm > 0,
            filled && ExecBackend::from_env() == ExecBackend::Compiled,
            "seed {seed:#x}: traces reused"
        );
        assert_eq!(
            counter.found.load(Ordering::Relaxed),
            s.programs.warm + s.traces.warm,
            "seed {seed:#x}: every artifact record read is used"
        );
    }
    let _ = fs::remove_dir_all(&dir);
}

/// A stored program or trace record that does not parse, or parses but
/// fails validation — a function without a terminator, a trace whose
/// shape does not match its layout — is a miss: the engine regenerates
/// the program and recompiles the trace, and the overwrite serves the
/// next engine warm.
#[test]
fn invalid_program_and_trace_records_are_recomputed() {
    let dir = temp_store("artifacts");
    let store = Arc::new(ArtifactStore::open(&dir, GcPolicy::unbounded()).unwrap());
    let mesa = profiles::mesa();
    let program_key = program_store_key(&mesa);
    // IA runs the instrumented binary, which carries SoLA's in-page marks.
    let trace_key = trace_store_key(&mesa, PageGeometry::default_4k(), true);
    let traced = u64::from(ExecBackend::from_env() == ExecBackend::Compiled);
    let ia = |seed| {
        let scale = ExperimentScale {
            max_commits: 5_000,
            seed,
        };
        RunKey::new("177.mesa", &scale, StrategyKind::Ia, AddressingMode::ViPt)
    };
    // Each round runs at new seeds, so its runs are cold and need the
    // artifacts.
    for (round, program, trace) in [
        (0, "not a program", "not a trace"),
        (
            1,
            "program 1 1 1 functions 1 0 1 blocks 1 1 ialu - - -",
            "trace 4096 4194304 0 1 1 1 itargets 0 slots 1 ialu - - -",
        ),
    ] {
        store.save(NS_PROGRAMS, &program_key, program);
        store.save(NS_TRACES, &trace_key, trace);
        let engine = Engine::new().with_store(Store::over(store.clone()));
        let _ = engine.run(ia(2 * round + 1));
        let s = engine.store_summary();
        assert_eq!((s.programs.warm, s.programs.cold), (0, 1), "{program}");
        assert_eq!((s.traces.warm, s.traces.cold), (0, traced), "{trace}");
        assert_eq!(*engine.program("177.mesa"), mesa.generate());

        let repaired = Engine::new().with_store(Store::over(store.clone()));
        let _ = repaired.run(ia(2 * round + 2));
        let s = repaired.store_summary();
        assert_eq!((s.programs.warm, s.programs.cold), (1, 0), "{program}");
        assert_eq!((s.traces.warm, s.traces.cold), (traced, 0), "{trace}");
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
