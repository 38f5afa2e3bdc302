//! The typed run-report view of the persistent artifact store.
//!
//! PR 2 introduced a content-addressed, one-file-per-key run store here;
//! the storage engine has since moved down to
//! [`cfr_types::store::ArtifactStore`] — a **sharded, packed,
//! garbage-collected** `(namespace, key) → value` store shared by every
//! persisted layer (pipeline reports, walk measurements, generated
//! programs). This module keeps the typed `RunKey → RunReport` surface
//! the engine uses, over the `runs` namespace:
//!
//! - the store **key** is the [`RunKey`]'s canonical record string
//!   ([`Store::key_record`]) — equal keys produce byte-equal records, and
//!   the artifact store verifies a loaded record's key byte-for-byte, so
//!   collisions and stale entries degrade to misses;
//! - the store **value** is the [`RunReport`]'s record (floats as exact
//!   IEEE-754 bits), so a warm read reproduces byte-identical experiment
//!   output;
//! - a value that fails to parse as a current-codec report (e.g. one
//!   written before a codec change) is a **miss** — re-simulated and
//!   overwritten, never a crash.
//!
//! # Local vs. networked storage
//!
//! The facade holds a [`StoreBackend`] trait object, not the concrete
//! [`ArtifactStore`], so the same typed surface runs over
//!
//! - the machine-local sharded store (the default),
//! - a [`RemoteStore`](cfr_types::RemoteStore) client of the
//!   `cfr-store-serve` daemon, or
//! - the [`LayeredStore`](cfr_types::LayeredStore) stack of both —
//!   remote first, local fallback on a remote miss.
//!
//! [`Store::open_default`] picks the backend from the environment: when
//! `CFR_STORE_ADDR` names a daemon, every engine and binary transparently
//! becomes a network client with **zero call-site changes**; unset, the
//! shards are opened directly as before. Either way the failure contract
//! is identical: anything that cannot produce the exact stored bytes —
//! including a dead daemon — is a miss, and the run goes cold.

use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use cfr_types::net::{claim_lease, STORE_ADDR_ENV};
use cfr_types::{
    ArtifactStore, ChaosBackend, ClaimOutcome, FaultPlan, GcPolicy, LayeredStore, RecordReader,
    RecordWriter, RemoteStore, StoreBackend, NS_RUNS,
};

use crate::engine::RunKey;
use crate::simulator::RunReport;

/// What [`Store::claim_run`] resolved a cold key to: a report another
/// client published while we raced it, or the exclusive right (local
/// stores: the unconditional duty) to compute it ourselves.
#[derive(Clone, Debug, PartialEq)]
pub enum RunClaim {
    /// Another client simulated the key first; this is its published
    /// report, served warm. Boxed: a report is ~300 bytes and the
    /// common variant is the empty `Compute`.
    Warm(Box<RunReport>),
    /// Simulate locally (claim granted, unsupported by the backend, or
    /// every degraded outcome — a failure is always a miss, never a
    /// stall).
    Compute,
}

/// A typed, crash-tolerant cache of [`RunReport`]s keyed by [`RunKey`],
/// over any [`StoreBackend`] (local shards, the store daemon, or the
/// layered stack of both).
#[derive(Debug)]
pub struct Store {
    backend: Arc<dyn StoreBackend>,
    hits: AtomicU64,
    misses: AtomicU64,
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
            if let Some(addr) = std::env::var(STORE_ADDR_ENV)
                .ok()
                .map(|a| a.trim().to_string())
                .filter(|a| !a.is_empty())
            {
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
        Self {
            backend,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The underlying namespaced store backend (shared with the program
    /// cache and the walk-measurement path).
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

    /// Loads served from disk ("warm" runs).
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Loads that fell through to simulation ("cold" runs) — absent,
    /// stale-codec, corrupt, or mismatched records all count here.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Best-effort writes that failed anywhere in the backend
    /// (diagnostics only; a failed write costs a future process one
    /// re-simulation, nothing else).
    #[must_use]
    pub fn write_errors(&self) -> u64 {
        self.backend.write_errors()
    }

    /// The canonical record identifying `key` — the store's content
    /// address within the `runs` namespace.
    #[must_use]
    pub fn key_record(key: &RunKey) -> String {
        let mut w = RecordWriter::new();
        key.to_record(&mut w);
        w.finish()
    }

    /// Parses a stored run record; any failure is a miss.
    fn parse_report(text: &str) -> Option<RunReport> {
        let mut r = RecordReader::new(text);
        let report = RunReport::from_record(&mut r).ok()?;
        r.finish().ok()?;
        Some(report)
    }

    /// Looks `key` up on disk. Any failure — absent, torn, corrupt,
    /// stale codec, colliding key — is a miss (`None`); the caller
    /// re-simulates and overwrites.
    #[must_use]
    pub fn load(&self, key: &RunKey) -> Option<RunReport> {
        let report = self
            .backend
            .load(NS_RUNS, &Self::key_record(key))
            .and_then(|text| Self::parse_report(&text));
        match &report {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        report
    }

    /// Looks a whole batch of keys up in **one** backend probe
    /// (networked backends collapse it into a single pipelined `MGET`
    /// exchange; the local store reads shard-by-shard as before).
    /// Per-slot semantics — parse failures as misses, hit/miss
    /// accounting — are identical to [`Store::load`] in a loop.
    #[must_use]
    pub fn load_many(&self, keys: &[RunKey]) -> Vec<Option<RunReport>> {
        let items: Vec<(String, String)> = keys
            .iter()
            .map(|key| (NS_RUNS.to_string(), Self::key_record(key)))
            .collect();
        let mut values = self.backend.load_many(&items);
        // A backend must answer slot-for-slot; pad defensively so a
        // short reply degrades to misses rather than a panic.
        values.resize_with(keys.len(), || None);
        values
            .into_iter()
            .map(|value| {
                let report = value.and_then(|text| Self::parse_report(&text));
                match &report {
                    Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
                    None => self.misses.fetch_add(1, Ordering::Relaxed),
                };
                report
            })
            .collect()
    }

    /// Claims the right to simulate a cold `key`, deduplicating the
    /// computation **globally** when the backend has a coordinator (the
    /// store daemon): if another client already published the report —
    /// or holds the claim and publishes within its lease — the report
    /// comes back [`RunClaim::Warm`] (counted as a hit) and nothing is
    /// simulated here. Every other outcome — grant, unsupported
    /// backend, lapsed claim, unreachable daemon, corrupt published
    /// record — degrades to [`RunClaim::Compute`]: simulate locally and
    /// overwrite, preserving every-failure-is-a-miss.
    #[must_use]
    pub fn claim_run(&self, key: &RunKey) -> RunClaim {
        let record = Self::key_record(key);
        let lease = claim_lease();
        match self.backend.claim(NS_RUNS, &record, lease) {
            ClaimOutcome::Hit(text) => self.claim_warm(&text),
            ClaimOutcome::Granted | ClaimOutcome::Unsupported => RunClaim::Compute,
            ClaimOutcome::Busy => match self.backend.wait_for(NS_RUNS, &record, lease) {
                Some(text) => self.claim_warm(&text),
                None => RunClaim::Compute,
            },
        }
    }

    /// A claim resolved to a published value: warm if it parses (the
    /// batched probe already counted this key's miss, so a warm claim
    /// nets out as one hit), else recompute and overwrite.
    fn claim_warm(&self, text: &str) -> RunClaim {
        match Self::parse_report(text) {
            Some(report) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                RunClaim::Warm(Box::new(report))
            }
            None => RunClaim::Compute,
        }
    }

    /// Persists `key → report`. Best-effort: an I/O failure is counted
    /// (see [`Store::write_errors`]) but never propagated — the report is
    /// already in memory and the run merely stays cold for the next
    /// process.
    pub fn save(&self, key: &RunKey, report: &RunReport) {
        let mut w = RecordWriter::new();
        report.to_record(&mut w);
        self.backend
            .save(NS_RUNS, &Self::key_record(key), &w.finish());
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
    use crate::experiment::ExperimentScale;
    use crate::simulator::ItlbChoice;
    use crate::strategy::StrategyKind;
    use cfr_types::{AddressingMode, TlbOrganization, SHARD_COUNT};
    use std::fs;
    use std::path::PathBuf;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cfr-store-unit-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample_key() -> RunKey {
        RunKey::new(
            "177.mesa",
            &ExperimentScale {
                max_commits: 1000,
                seed: 7,
            },
            StrategyKind::Ia,
            AddressingMode::ViPt,
        )
    }

    fn sample_report() -> RunReport {
        use cfr_energy::EnergyMeter;
        let mut energy = EnergyMeter::new();
        energy.charge_n("itlb_access", 42, 440.5);
        RunReport {
            strategy: StrategyKind::Ia,
            mode: AddressingMode::ViPt,
            committed: 1000,
            cycles: 1234,
            itlb: cfr_mem::TlbStats {
                accesses: 42,
                hits: 40,
                misses: 2,
                invalidations: 0,
                protection_faults: 0,
            },
            energy,
            breakdown: crate::strategy::LookupBreakdown {
                boundary: 1,
                branch: 1,
            },
            cpu: cfr_cpu::CpuStats::default(),
        }
    }

    #[test]
    fn save_then_load_round_trips() {
        let dir = temp_dir("roundtrip");
        let store = Store::open(&dir).unwrap();
        let (key, report) = (sample_key(), sample_report());
        assert_eq!(store.load(&key), None, "cold store");
        store.save(&key, &report);
        assert_eq!(store.load(&key).as_ref(), Some(&report));
        assert_eq!(store.hits(), 1);
        assert_eq!(store.misses(), 1);
        assert_eq!(store.write_errors(), 0);
        assert_eq!(store.record_count(), 1);
        // A second store over the same directory sees it too.
        let other = Store::open(&dir).unwrap();
        assert_eq!(other.load(&key).as_ref(), Some(&report));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn batched_loads_match_serial_semantics() {
        let dir = temp_dir("batched");
        let store = Store::open(&dir).unwrap();
        let warm_key = sample_key();
        let cold_key = warm_key.with_il1_bytes(2048);
        store.save(&warm_key, &sample_report());
        let got = store.load_many(&[warm_key, cold_key, warm_key]);
        assert_eq!(got[0].as_ref(), Some(&sample_report()));
        assert_eq!(got[1], None);
        assert_eq!(got[2].as_ref(), Some(&sample_report()));
        assert_eq!((store.hits(), store.misses()), (2, 1));
        // The local backend has no claim coordinator: every claim says
        // "compute it yourself", exactly like the pre-claim protocol.
        assert_eq!(store.claim_run(&cold_key), RunClaim::Compute);
        assert_eq!(store.claim_run(&warm_key), RunClaim::Compute);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn different_keys_have_distinct_records() {
        let dir = temp_dir("addressing");
        let store = Store::open(&dir).unwrap();
        let a = sample_key();
        let b = a.with_itlb(ItlbChoice::Mono(TlbOrganization::fully_associative(8)));
        let c = a.with_il1_bytes(2048);
        let d = a.with_page_bytes(16384);
        let records: Vec<_> = [a, b, c, d].iter().map(Store::key_record).collect();
        for (i, p) in records.iter().enumerate() {
            for q in &records[i + 1..] {
                assert_ne!(p, q);
            }
        }
        // Each key is its own record; storing all four keeps all four.
        for k in [a, b, c, d] {
            store.save(&k, &sample_report());
        }
        assert_eq!(store.record_count(), 4);
        // ... in O(shards) files.
        assert!(fs::read_dir(&dir).unwrap().count() <= SHARD_COUNT as usize);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corruption_and_stale_records_are_misses() {
        let dir = temp_dir("corruption");
        let store = Store::open(&dir).unwrap();
        let (key, report) = (sample_key(), sample_report());
        store.save(&key, &report);

        // Vandalize every shard file in turn; each kind of damage must
        // read as a miss on a fresh store, never a crash or wrong report.
        let shards: Vec<PathBuf> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(Result::ok)
            .map(|e| e.path())
            .collect();
        for vandalism in ["garbage", "", "rec 2 runs 0 99999 99999\ntorn"] {
            for shard in &shards {
                fs::write(shard, vandalism).unwrap();
            }
            let victim = Store::open(&dir).unwrap();
            assert_eq!(victim.load(&key), None, "{vandalism:?} must miss");
            // Overwriting repairs it.
            victim.save(&key, &report);
            assert_eq!(victim.load(&key).as_ref(), Some(&report));
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_codec_value_is_a_miss() {
        let dir = temp_dir("stalecodec");
        let store = Store::open(&dir).unwrap();
        let key = sample_key();
        // A value from some future codec: parseable framing, unparseable
        // report.
        store.backend().save(
            cfr_types::NS_RUNS,
            &Store::key_record(&key),
            "report2 whatever",
        );
        assert_eq!(store.load(&key), None);
        store.save(&key, &sample_report());
        assert_eq!(store.load(&key).as_ref(), Some(&sample_report()));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn run_key_record_round_trips() {
        let resolve = |name: &str| {
            cfr_workload::profiles::all()
                .into_iter()
                .map(|p| p.name)
                .find(|n| *n == name)
        };
        let scale = ExperimentScale {
            max_commits: 123,
            seed: 99,
        };
        let keys = [
            RunKey::new("177.mesa", &scale, StrategyKind::Base, AddressingMode::PiPt),
            RunKey::new("254.gap", &scale, StrategyKind::SoLA, AddressingMode::ViVt).with_itlb(
                ItlbChoice::TwoLevel(
                    TlbOrganization::fully_associative(1),
                    TlbOrganization::fully_associative(32),
                    1,
                ),
            ),
            RunKey::new("252.eon", &scale, StrategyKind::Opt, AddressingMode::ViPt)
                .with_il1_bytes(2048)
                .with_page_bytes(65536),
        ];
        for key in keys {
            let record = Store::key_record(&key);
            let mut r = RecordReader::new(&record);
            assert_eq!(RunKey::from_record(&mut r, resolve).unwrap(), key);
            r.finish().unwrap();
        }
        // Unknown profile names fail rather than fabricate a key.
        let record = Store::key_record(&keys[0]).replacen("177.mesa", "000.nope", 1);
        assert!(RunKey::from_record(&mut RecordReader::new(&record), resolve).is_err());
    }
}
