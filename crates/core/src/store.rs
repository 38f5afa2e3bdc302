//! The engine's handle on the persistent artifact store.
//!
//! The storage engine is [`cfr_types::store::ArtifactStore`]: a
//! **sharded, packed, garbage-collected** `(namespace, key) → value`
//! store shared by every persisted layer. A [`Store`] opens the backend
//! the environment asks for and hands it to the
//! [`Engine`](crate::Engine), whose one job pipeline does all typed
//! traffic. Each job kind — runs, scenarios, walks — names its
//! namespace, its canonical key record and its value codec. Programs and
//! traces are remade in each process, never stored. The contract is the
//! same in every namespace:
//!
//! - the store **key** is the job key's canonical record (for a run,
//!   [`RunKey::store_key`](crate::RunKey::store_key)) — equal keys
//!   produce byte-equal records, and the artifact store verifies a
//!   loaded record's key byte-for-byte, so collisions and stale entries
//!   degrade to misses;
//! - the store **value** is the result's record (floats as exact
//!   IEEE-754 bits), so a warm read reproduces byte-identical experiment
//!   output;
//! - a value that fails to parse as a current-codec record (e.g. one
//!   written before a codec change) is a **miss** — recomputed and
//!   overwritten, never a crash.
//!
//! # Local vs. networked storage
//!
//! The handle holds a [`StoreBackend`] trait object, not the concrete
//! [`ArtifactStore`], so the same engine runs over
//!
//! - the machine-local sharded store (the default),
//! - a [`RemoteStore`](cfr_types::RemoteStore) client of the
//!   `cfr-store-serve` daemon, or
//! - the [`LayeredStore`](cfr_types::LayeredStore) stack of both —
//!   remote first, local fallback on a remote miss.
//!
//! [`Store::open_default`] picks the backend from the environment: when
//! `CFR_STORE_ADDR` names a daemon, every engine and binary transparently
//! becomes a network client with **zero call-site changes**; unset or
//! blank, the shards are opened directly. Either way the failure contract is
//! identical: anything that cannot produce the exact stored bytes —
//! including a dead daemon — is a miss, and the job goes cold.

use std::io;
use std::sync::Arc;

use cfr_types::net::store_addr_from_env;
use cfr_types::{
    ArtifactStore, ChaosBackend, FaultPlan, GcPolicy, LayeredStore, RemoteStore, StoreBackend,
    NS_RUNS,
};

/// An opened persistent store: any [`StoreBackend`] (local shards, the
/// store daemon, or the layered stack of both), ready to attach to an
/// [`Engine`](crate::Engine).
#[derive(Debug)]
pub struct Store {
    backend: Arc<dyn StoreBackend>,
}

impl Store {
    /// Opens (creating if needed) a store rooted at `dir`, with the
    /// environment's GC policy (`CFR_STORE_MAX_BYTES` /
    /// `CFR_STORE_MAX_AGE`).
    ///
    /// # Errors
    ///
    /// Errors if the directory cannot be created.
    pub fn open(dir: impl Into<std::path::PathBuf>) -> io::Result<Self> {
        Ok(Self::over(Arc::new(ArtifactStore::open(
            dir,
            GcPolicy::from_env(),
        )?)))
    }

    /// Opens a store with an explicit GC policy (tests and tooling; the
    /// environment is shared state a parallel test run must not mutate).
    ///
    /// # Errors
    ///
    /// Errors if the directory cannot be created.
    pub fn open_with_policy(
        dir: impl Into<std::path::PathBuf>,
        policy: GcPolicy,
    ) -> io::Result<Self> {
        Ok(Self::over(Arc::new(ArtifactStore::open(dir, policy)?)))
    }

    /// Opens the environment's default store. With `CFR_STORE_ADDR` set
    /// (`host:port` of a `cfr-store-serve` daemon) this is the **layered
    /// networked store**: the daemon first, the machine-local shards
    /// (`$CFR_STORE_DIR`, else [`cfr_types::DEFAULT_STORE_DIR`]) as a
    /// read-mostly fallback. Unset, it is the machine-local store alone.
    /// A blank variable counts as unset.
    ///
    /// An unreachable daemon is not an error — the client reconnects
    /// with backoff and every operation degrades to a miss meanwhile.
    ///
    /// # Errors
    ///
    /// Errors if the local store directory cannot be created (local
    /// mode only; in remote mode a failed local open just drops the
    /// fallback layer).
    pub fn open_default() -> io::Result<Self> {
        let (backend, shard_dir): (Arc<dyn StoreBackend>, Option<std::path::PathBuf>) =
            if let Some(addr) = store_addr_from_env() {
                let local = ArtifactStore::open_default().ok().map(Arc::new);
                let dir = local.as_ref().map(|l| l.dir().to_path_buf());
                (
                    Arc::new(LayeredStore::new(RemoteStore::new(addr), local)),
                    dir,
                )
            } else {
                let local = Arc::new(ArtifactStore::open_default()?);
                let dir = local.dir().to_path_buf();
                (local, Some(dir))
            };
        // Deterministic fault injection (`CFR_CHAOS_SEED` /
        // `CFR_CHAOS_PLAN`): the chaos layer wraps whichever backend the
        // environment picked, so injected misses, torn appends, and
        // dropped saves exercise the exact degradation paths production
        // failures would — without touching any call site.
        if let Some(plan) = FaultPlan::from_env() {
            let mut chaos = ChaosBackend::new(backend, plan);
            if let Some(dir) = shard_dir {
                chaos = chaos.with_shard_dir(dir);
            }
            return Ok(Self::over(Arc::new(chaos)));
        }
        Ok(Self::over(backend))
    }

    /// Wraps an already-open backend (an `Arc<ArtifactStore>` coerces
    /// directly).
    #[must_use]
    pub fn over(backend: Arc<dyn StoreBackend>) -> Self {
        Self { backend }
    }

    /// The underlying namespaced store backend, which the engine's job
    /// pipeline reads and writes.
    #[must_use]
    pub fn backend(&self) -> Arc<dyn StoreBackend> {
        Arc::clone(&self.backend)
    }

    /// Human-readable identity of the backend — a directory path, a
    /// `tcp://` address, or both (layered).
    #[must_use]
    pub fn describe(&self) -> String {
        self.backend.describe()
    }

    /// Best-effort writes that failed anywhere in the backend
    /// (diagnostics only; a failed write costs a future process one
    /// recomputation, nothing else).
    #[must_use]
    pub fn write_errors(&self) -> u64 {
        self.backend.write_errors()
    }

    /// Number of live run records currently on disk (diagnostics/tests).
    #[must_use]
    pub fn record_count(&self) -> usize {
        self.backend.namespace_records(NS_RUNS)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, RunKey};
    use crate::experiment::ExperimentScale;
    use crate::scenario::{ScenarioConfig, ScenarioProc};
    use crate::simulator::ItlbChoice;
    use crate::strategy::StrategyKind;
    use cfr_types::{
        AddressingMode, PageGeometry, TlbOrganization, NS_SCENARIOS, NS_WALKS, SHARD_COUNT,
    };
    use cfr_workload::{profiles, walk_store_key};
    use std::fs;
    use std::path::PathBuf;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cfr-store-unit-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn scale() -> ExperimentScale {
        ExperimentScale {
            max_commits: 5_000,
            seed: 7,
        }
    }

    fn sample_key() -> RunKey {
        RunKey::new("177.mesa", &scale(), StrategyKind::Ia, AddressingMode::ViPt)
    }

    #[test]
    fn different_keys_have_distinct_records() {
        let dir = temp_dir("addressing");
        let store = Store::open(&dir).unwrap();
        let a = sample_key();
        let b = a.with_itlb(ItlbChoice::Mono(TlbOrganization::fully_associative(8)));
        let c = a.with_il1_bytes(2048);
        let d = a.with_page_bytes(16384);
        let records: Vec<_> = [a, b, c, d].iter().map(RunKey::store_key).collect();
        for (i, p) in records.iter().enumerate() {
            for q in &records[i + 1..] {
                assert_ne!(p, q);
            }
        }
        // Each key is its own record; storing all four keeps all four.
        for record in &records {
            store.backend().save(NS_RUNS, record, "value");
        }
        assert_eq!(store.record_count(), 4);
        // ... in O(shards) files.
        assert!(fs::read_dir(&dir).unwrap().count() <= SHARD_COUNT as usize);
        let _ = fs::remove_dir_all(&dir);
    }

    /// A value from some future codec — parseable framing, unparseable
    /// value — is a miss in every job namespace: the engine recomputes
    /// it and the overwrite serves the next engine warm.
    #[test]
    fn stale_codec_value_is_a_miss() {
        let dir = temp_dir("stalecodec");
        let run = sample_key();
        let scenario = ScenarioConfig::new(
            vec![ScenarioProc::new("177.mesa")],
            scale(),
            StrategyKind::Ia,
            AddressingMode::ViPt,
        );
        let walk = walk_store_key(
            &profiles::mesa(),
            PageGeometry::default_4k(),
            false,
            scale().max_commits,
            scale().seed,
        );
        let store = Store::open(&dir).unwrap();
        for (ns, key) in [
            (NS_RUNS, run.store_key()),
            (NS_SCENARIOS, scenario.store_key()),
            (NS_WALKS, walk),
        ] {
            store.backend().save(ns, &key, "report2 whatever");
        }

        let stale = Engine::new().with_store(store);
        let report = stale.run(run);
        let scen = stale.run_scenario(&scenario);
        let walked = stale.walk_measurements(&["177.mesa"], &scale());
        let s = stale.store_summary();
        for traffic in [s.runs, s.scenarios, s.walks] {
            assert_eq!((traffic.warm, traffic.cold), (0, 1), "stale values miss");
        }

        let repaired = Engine::new().with_store(Store::open(&dir).unwrap());
        assert_eq!(*repaired.run(run), *report);
        assert_eq!(*repaired.run_scenario(&scenario), *scen);
        assert_eq!(repaired.walk_measurements(&["177.mesa"], &scale()), walked);
        let s = repaired.store_summary();
        for traffic in [s.runs, s.scenarios, s.walks] {
            assert_eq!(
                (traffic.warm, traffic.cold),
                (1, 0),
                "overwrite repaired it"
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }
}
