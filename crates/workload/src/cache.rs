//! Memoized — and optionally persistent — program generation.
//!
//! Generating a [`BenchmarkProfile`]'s program is deterministic (the
//! profile's [`GeneratorParams`] embed the seed) but not cheap, and the
//! experiment harness historically regenerated the same six programs for
//! every (strategy, mode, iTLB) combination. A [`ProgramCache`] generates
//! each profile **once** and shares the result via [`Arc`], so concurrent
//! simulations of the same benchmark borrow one immutable program.
//!
//! With a persistent store attached ([`ProgramCache::attach_store`]),
//! the memoization extends **across processes**: a first-miss consults the
//! store's `programs` namespace before generating, and a fresh generation
//! is written back. The cache talks to the [`StoreBackend`] trait, so the
//! store may be the machine-local sharded [`ArtifactStore`], a
//! `RemoteStore` speaking to the `cfr-store-serve` daemon, or the layered
//! stack of both — the cache neither knows nor cares. Loaded programs are
//! re-validated ([`Program::validate`]) before use, so a corrupt or stale
//! record degrades to regeneration, never a bad program.
//!
//! [`ArtifactStore`]: cfr_types::ArtifactStore
//! [`GeneratorParams`]: crate::GeneratorParams

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use cfr_types::{RecordReader, RecordWriter, StoreBackend, NS_PROGRAMS};

use crate::codec::program_store_key;
use crate::profiles::BenchmarkProfile;
use crate::program::Program;

/// A by-name memo of generated programs, optionally backed by the
/// persistent artifact store.
///
/// Profiles are identified by their `name`: two profiles sharing a name
/// are assumed to share [`GeneratorParams`] (true of the canonical
/// [`profiles`](crate::profiles) set, whose names are unique). The
/// *store* key additionally fingerprints the full parameter set, so a
/// recalibrated profile misses instead of loading a stale program.
///
/// [`GeneratorParams`]: crate::GeneratorParams
#[derive(Debug, Default)]
pub struct ProgramCache {
    programs: Mutex<HashMap<&'static str, Arc<Program>>>,
    store: Mutex<Option<Arc<dyn StoreBackend>>>,
    /// Store-probe answers delivered ahead of time by a batched prefetch
    /// ([`ProgramCache::prime`]), keyed by store key: `Some(text)` is the
    /// stored record, `None` a definite miss. Consumed by the next
    /// [`ProgramCache::get`] in place of its own per-key store probe.
    pending: Mutex<HashMap<String, Option<String>>>,
    generated: AtomicU64,
    loaded: AtomicU64,
}

impl ProgramCache {
    /// An empty, in-memory-only cache.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Backs this cache with a persistent store (local, remote, or
    /// layered — any [`StoreBackend`]): first requests consult the
    /// store's `programs` namespace before generating, and fresh
    /// generations are written back.
    pub fn attach_store(&self, store: Arc<dyn StoreBackend>) {
        *self.store.lock().expect("program cache poisoned") = Some(store);
    }

    /// The store key a batched prefetch should probe for `profile` (see
    /// [`Self::prime`]), or `None` when the program is already memoized
    /// and a primed answer would never be consumed.
    ///
    /// # Panics
    ///
    /// Panics if the cache mutex is poisoned.
    #[must_use]
    pub fn prefetch_key(&self, profile: &BenchmarkProfile) -> Option<String> {
        let programs = self.programs.lock().expect("program cache poisoned");
        (!programs.contains_key(profile.name)).then(|| program_store_key(profile))
    }

    /// Hands the cache the result of a batched store probe for
    /// `store_key` (see [`Self::prefetch_key`]): `Some(text)` is the
    /// stored record, `None` a definite miss. The next [`Self::get`]
    /// whose profile maps to that key consumes the answer instead of
    /// issuing its own store round trip; a corrupt primed record
    /// regenerates exactly as a corrupt loaded record would.
    ///
    /// # Panics
    ///
    /// Panics if the cache mutex is poisoned.
    pub fn prime(&self, store_key: String, value: Option<String>) {
        self.pending
            .lock()
            .expect("program cache poisoned")
            .insert(store_key, value);
    }

    /// The program for `profile`, from (in order) the in-memory memo, the
    /// attached store, or the generator — always returning the shared
    /// copy afterwards.
    ///
    /// # Panics
    ///
    /// Panics if a cache mutex is poisoned (a previous generation
    /// panicked).
    #[must_use]
    pub fn get(&self, profile: &BenchmarkProfile) -> Arc<Program> {
        let mut programs = self.programs.lock().expect("program cache poisoned");
        if let Some(program) = programs.get(profile.name) {
            return Arc::clone(program);
        }
        let store = self.store.lock().expect("program cache poisoned").clone();
        let store_key = program_store_key(profile);
        let primed = self
            .pending
            .lock()
            .expect("program cache poisoned")
            .remove(&store_key);
        let warm = match primed {
            // A batched prefetch already probed the store for this key;
            // a primed `None` is a definite miss, so skip the re-probe.
            Some(answer) => answer.and_then(|text| Self::parse_stored(&text)),
            None => store
                .as_deref()
                .and_then(|s| s.load(NS_PROGRAMS, &store_key))
                .and_then(|text| Self::parse_stored(&text)),
        };
        let program = match warm {
            Some(warm) => {
                self.loaded.fetch_add(1, Ordering::Relaxed);
                warm
            }
            None => {
                self.generated.fetch_add(1, Ordering::Relaxed);
                let fresh = profile.generate();
                if let Some(store) = &store {
                    let mut w = RecordWriter::new();
                    fresh.to_record(&mut w);
                    store.save(NS_PROGRAMS, &store_key, &w.finish());
                }
                fresh
            }
        };
        let program = Arc::new(program);
        programs.insert(profile.name, Arc::clone(&program));
        program
    }

    /// Parses and re-validates a stored program record; any parse or
    /// validation failure is a miss (the caller regenerates and
    /// overwrites).
    fn parse_stored(text: &str) -> Option<Program> {
        let mut r = RecordReader::new(text);
        let program = Program::from_record(&mut r).ok()?;
        r.finish().ok()?;
        program.validate().ok()?;
        Some(program)
    }

    /// How many programs this cache actually generated (in-memory *and*
    /// store misses); the memoization guarantee asserted by tests.
    #[must_use]
    pub fn generated(&self) -> u64 {
        self.generated.load(Ordering::Relaxed)
    }

    /// How many programs were served from the persistent store instead of
    /// being generated (0 without a store).
    #[must_use]
    pub fn loaded(&self) -> u64 {
        self.loaded.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles;
    use cfr_types::{ArtifactStore, GcPolicy};
    use std::path::PathBuf;

    #[test]
    fn generates_each_profile_once() {
        let cache = ProgramCache::new();
        let a = cache.get(&profiles::mesa());
        let b = cache.get(&profiles::mesa());
        assert!(Arc::ptr_eq(&a, &b), "second get must share the first Arc");
        assert_eq!(cache.generated(), 1);
        let _ = cache.get(&profiles::gap());
        assert_eq!(cache.generated(), 2);
        assert_eq!(cache.loaded(), 0, "no store attached");
    }

    #[test]
    fn cached_program_equals_fresh_generation() {
        let cache = ProgramCache::new();
        let profile = profiles::crafty();
        let cached = cache.get(&profile);
        assert_eq!(
            *cached,
            profile.generate(),
            "memoization must not change the program"
        );
    }

    fn temp_store(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cfr-progcache-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn store_serves_programs_across_caches() {
        let dir = temp_store("warm");
        let profile = profiles::mesa();

        let cold = ProgramCache::new();
        cold.attach_store(Arc::new(
            ArtifactStore::open(&dir, GcPolicy::unbounded()).unwrap(),
        ));
        let generated = cold.get(&profile);
        assert_eq!((cold.generated(), cold.loaded()), (1, 0));

        // A fresh cache over the same directory (= a fresh process) loads
        // instead of generating, and the program is identical.
        let warm = ProgramCache::new();
        warm.attach_store(Arc::new(
            ArtifactStore::open(&dir, GcPolicy::unbounded()).unwrap(),
        ));
        let loaded = warm.get(&profile);
        assert_eq!((warm.generated(), warm.loaded()), (0, 1));
        assert_eq!(*loaded, *generated);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn primed_answers_replace_per_key_store_probes() {
        let profile = profiles::mesa();
        let mut w = cfr_types::RecordWriter::new();
        profile.generate().to_record(&mut w);
        let record = w.finish();

        // A primed hit serves warm with no store attached at all — proof
        // the cache consumed the prefetched answer, not a store probe.
        let cache = ProgramCache::new();
        assert_eq!(
            cache.prefetch_key(&profile),
            Some(program_store_key(&profile))
        );
        cache.prime(program_store_key(&profile), Some(record));
        let program = cache.get(&profile);
        assert_eq!((cache.generated(), cache.loaded()), (0, 1));
        assert_eq!(*program, profile.generate());
        assert_eq!(
            cache.prefetch_key(&profile),
            None,
            "memoized programs are not probed"
        );

        // A primed definite miss generates without consulting the store.
        let cold = ProgramCache::new();
        cold.prime(program_store_key(&profile), None);
        let _ = cold.get(&profile);
        assert_eq!((cold.generated(), cold.loaded()), (1, 0));

        // A corrupt primed record degrades to regeneration, like any
        // corrupt stored record.
        let corrupt = ProgramCache::new();
        corrupt.prime(program_store_key(&profile), Some("not a program".into()));
        let regenerated = corrupt.get(&profile);
        assert_eq!((corrupt.generated(), corrupt.loaded()), (1, 0));
        assert_eq!(*regenerated, profile.generate());
    }

    #[test]
    fn corrupt_stored_program_regenerates() {
        let dir = temp_store("corrupt");
        let profile = profiles::mesa();
        let store: Arc<dyn StoreBackend> =
            Arc::new(ArtifactStore::open(&dir, GcPolicy::unbounded()).unwrap());
        // A parseable-but-invalid program (a function whose last block
        // has no terminator) and plain garbage both regenerate.
        for vandalism in [
            "program 1 1 1 functions 1 0 1 blocks 1 1 ialu - - -",
            "not a program",
        ] {
            store.save(NS_PROGRAMS, &program_store_key(&profile), vandalism);
            let cache = ProgramCache::new();
            cache.attach_store(Arc::clone(&store));
            let program = cache.get(&profile);
            assert_eq!(cache.generated(), 1, "bad record regenerates: {vandalism}");
            assert_eq!(*program, profile.generate());
        }
        // The regeneration repaired the store.
        let repaired = ProgramCache::new();
        repaired.attach_store(Arc::clone(&store));
        let _ = repaired.get(&profile);
        assert_eq!((repaired.generated(), repaired.loaded()), (0, 1));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
