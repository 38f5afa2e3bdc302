//! The parallel experiment engine.
//!
//! Every table and figure in the paper's evaluation is a set of
//! *(benchmark, strategy, addressing mode, iTLB)* simulation runs at some
//! [`ExperimentScale`] — and the sets overlap heavily (`table2`,
//! `table5`, `fig4`, and `table8` all need the base VI-PT run of every
//! benchmark, for example). Run serially and independently, the full
//! evaluation pays for the same simulations many times over.
//!
//! The [`Engine`] replaces that with keyed jobs. There are three kinds —
//! pipeline runs ([`RunKey`] → [`RunReport`]), multiprogrammed scenarios
//! ([`ScenarioConfig`] → [`ScenarioReport`]) and Table 4's functional
//! walks (→ [`WalkMeasurement`]) — and every kind goes through the same
//! pipeline, `Engine::resolve`:
//!
//! 1. **claim** the requested keys that are neither done nor being
//!    computed by a concurrent batch, so each unique key is computed at
//!    most once per engine — within a batch, across calls, across
//!    experiments and across threads;
//! 2. **probe** the optional persistent [`Store`] ([`Engine::with_store`])
//!    for the claimed keys in one batched load, extending the dedup
//!    across processes;
//! 3. **prefetch**, in one more batched load, the program and trace
//!    records the cold keys need that the engine does not hold yet;
//! 4. **prepare** each cold key's compiled binaries serially, through
//!    the memoized program, layout and trace caches;
//! 5. **compute** the cold keys in parallel (rayon), each first claimed
//!    in the store — against the store daemon, racing processes compute
//!    every key once globally — and saved as soon as it is computed;
//! 6. **publish** the values, returned as cheap [`Arc`] handles in
//!    request order.
//!
//! Parallel execution is **deterministic**: a job's outcome depends only
//! on its key (the simulator is seeded, single-threaded per run, and
//! shares nothing mutable), and the engine reassembles results in input
//! order, so the reports are bit-identical to serial
//! [`Simulator::run_program`] calls regardless of worker scheduling.

use std::collections::{HashMap, HashSet};
use std::fmt::Debug;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

use cfr_types::net::claim_lease;
use cfr_types::{
    AddressingMode, ClaimOutcome, PageGeometry, RecordError, RecordReader, RecordWriter,
    StoreBackend, NS_PROGRAMS, NS_RUNS, NS_SCENARIOS, NS_TRACES, NS_WALKS,
};
use cfr_workload::{
    measure_walk, walk_store_key, BenchmarkProfile, LaidProgram, Program, ProgramCache, TraceCache,
    WalkMeasurement,
};
use rayon::prelude::*;

use crate::compiler;
use crate::experiment::ExperimentScale;
use crate::scenario::{self, ScenarioBinary, ScenarioConfig, ScenarioReport};
use crate::simulator::{ExecBackend, ItlbChoice, RunReport, SimConfig, Simulator};
use crate::store::Store;
use crate::strategy::StrategyKind;

/// Identity of one compiled (laid-out) binary: benchmark, page size, and
/// the compilation class — whether boundary instrumentation ran and
/// whether the SoLA in-page marking pass ran. Strategies within a class
/// execute the *same* binary, so the engine compiles it once.
type LaidKey = (&'static str, u64, bool, bool);

/// The identity of one simulation run. Two runs with equal keys produce
/// bit-identical [`RunReport`]s, which is what makes engine-level
/// deduplication — and the cross-process persistent [`Store`] — sound.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct RunKey {
    /// Benchmark profile name (e.g. `"177.mesa"`), resolved against the
    /// engine's registered profiles.
    pub profile: &'static str,
    /// Run length and walker seed.
    pub scale: ExperimentScale,
    /// CFR strategy.
    pub strategy: StrategyKind,
    /// iL1 addressing mode.
    pub mode: AddressingMode,
    /// iTLB structure.
    pub itlb: ItlbChoice,
    /// iL1 capacity override in bytes (`None` = the paper's 8 KB) — the
    /// iL1-sensitivity sweep runs through the engine like everything else.
    pub il1_bytes: Option<u64>,
    /// Page size override in bytes (`None` = the paper's 4 KB), for the
    /// page-size sweep.
    pub page_bytes: Option<u64>,
}

impl RunKey {
    /// A key for the default iTLB (the paper's 32-entry fully-associative
    /// monolith) at the paper's default iL1 capacity and page size.
    #[must_use]
    pub fn new(
        profile: &'static str,
        scale: &ExperimentScale,
        strategy: StrategyKind,
        mode: AddressingMode,
    ) -> Self {
        Self {
            profile,
            scale: *scale,
            strategy,
            mode,
            itlb: ItlbChoice::default_mono(),
            il1_bytes: None,
            page_bytes: None,
        }
    }

    /// The same run with a different iTLB structure.
    #[must_use]
    pub fn with_itlb(mut self, itlb: ItlbChoice) -> Self {
        self.itlb = itlb;
        self
    }

    /// The same run with an iL1 capacity override (power of two, bytes).
    /// The default capacity canonicalizes to "no override", so a sweep's
    /// default column shares its key — its in-memory cache entry *and*
    /// its store record — with the non-sweep runs of the same
    /// configuration.
    #[must_use]
    pub fn with_il1_bytes(mut self, bytes: u64) -> Self {
        let default = cfr_mem::CacheConfig::default_il1().organization.size_bytes;
        self.il1_bytes = (bytes != default).then_some(bytes);
        self
    }

    /// The same run with a page-size override (power of two, bytes); the
    /// default page size canonicalizes to "no override" (see
    /// [`RunKey::with_il1_bytes`]).
    #[must_use]
    pub fn with_page_bytes(mut self, bytes: u64) -> Self {
        let default = PageGeometry::default_4k().page_bytes();
        self.page_bytes = (bytes != default).then_some(bytes);
        self
    }

    /// The full simulator configuration this key denotes.
    ///
    /// # Panics
    ///
    /// Panics if a page-size override is not a power of two.
    #[must_use]
    pub fn config(&self) -> SimConfig {
        let mut cfg = self.scale.config();
        cfg.itlb = self.itlb;
        if let Some(bytes) = self.il1_bytes {
            cfg.cpu.il1.organization.size_bytes = bytes;
        }
        if let Some(bytes) = self.page_bytes {
            cfg.cpu.geometry = PageGeometry::new(bytes).expect("page size must be a power of two");
        }
        cfg
    }

    /// Serializes every identity field (persistent run store codec). The
    /// record doubles as the store's content address: equal keys produce
    /// byte-equal records, and the store verifies a loaded record against
    /// the requested key byte-for-byte, so a hash collision or stale
    /// file degrades to a miss.
    pub fn to_record(&self, w: &mut RecordWriter) {
        w.token("runkey");
        w.token(self.profile);
        self.scale.to_record(w);
        self.strategy.to_record(w);
        self.mode.to_record(w);
        self.itlb.to_record(w);
        for over in [self.il1_bytes, self.page_bytes] {
            match over {
                None => w.token("default"),
                Some(bytes) => w.u64(bytes),
            }
        }
    }

    /// Parses a [`Self::to_record`] stream. `resolve` maps a profile name
    /// back to its registered `&'static str` (e.g. via
    /// [`Engine::profiles`]); an unknown profile is an error.
    ///
    /// # Errors
    ///
    /// Errors on a malformed stream or an unresolvable profile name.
    pub fn from_record(
        r: &mut RecordReader<'_>,
        resolve: impl Fn(&str) -> Option<&'static str>,
    ) -> Result<Self, RecordError> {
        r.expect("runkey")?;
        let name = r.token()?;
        let profile = resolve(name)
            .ok_or_else(|| RecordError::new(format!("unknown benchmark profile {name:?}")))?;
        let scale = ExperimentScale::from_record(r)?;
        let strategy = StrategyKind::from_record(r)?;
        let mode = AddressingMode::from_record(r)?;
        let itlb = ItlbChoice::from_record(r)?;
        let mut overrides = [None, None];
        for slot in &mut overrides {
            *slot = match r.token()? {
                "default" => None,
                bytes => Some(bytes.parse::<u64>().map_err(|_| {
                    RecordError::new(format!("malformed override token {bytes:?}"))
                })?),
            };
        }
        Ok(Self {
            profile,
            scale,
            strategy,
            mode,
            itlb,
            il1_bytes: overrides[0],
            page_bytes: overrides[1],
        })
    }

    /// The record string — the run's store key in the `runs` namespace
    /// (see [`Self::to_record`]).
    #[must_use]
    pub fn store_key(&self) -> String {
        let mut w = RecordWriter::new();
        self.to_record(&mut w);
        w.finish()
    }
}

/// A multiprogrammed scenario, identified by its config record: as unique
/// as the config (the record serializes every identity field) and several
/// times cheaper to hash and clone in the memo tables.
#[derive(Clone, Debug)]
struct Scenario {
    cfg: ScenarioConfig,
    store_key: String,
}

impl PartialEq for Scenario {
    fn eq(&self, other: &Self) -> bool {
        self.store_key == other.store_key
    }
}

impl Eq for Scenario {}

impl Hash for Scenario {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.store_key.hash(state);
    }
}

/// One functional walk of a profile's plain (uninstrumented) 4 KB layout
/// at one scale: Table 4's input, persisted in the `walks` namespace.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct Walk {
    profile: &'static str,
    scale: ExperimentScale,
    /// The store key, which fingerprints the profile's generator
    /// parameters.
    store_key: String,
}

impl Walk {
    fn new(profile: &BenchmarkProfile, scale: ExperimentScale) -> Self {
        let geom = PageGeometry::default_4k();
        Self {
            profile: profile.name,
            scale,
            store_key: walk_store_key(profile, geom, false, scale.max_commits, scale.seed),
        }
    }
}

/// A compiled binary a job needs: `profile`'s program laid out at `geom`
/// for `strategy`'s compilation class.
#[derive(Clone, Copy)]
struct Binary {
    profile: &'static str,
    geom: PageGeometry,
    strategy: StrategyKind,
}

impl Binary {
    fn instrumented(&self) -> bool {
        compiler::wants_instrumented(self.strategy)
    }

    fn sola_marked(&self) -> bool {
        self.strategy == StrategyKind::SoLA
    }

    fn class(&self) -> LaidKey {
        let page = self.geom.page_bytes();
        (self.profile, page, self.instrumented(), self.sola_marked())
    }
}

/// One kind of keyed engine job. [`Engine::resolve`] drives every kind
/// through the same pipeline; an implementation supplies only what
/// differs per kind.
trait Job: Clone + Eq + Hash + Debug + Send + Sync {
    /// The computed result, memoized in [`Job::table`] and persisted in
    /// [`Job::NS`].
    type Value: Debug + Send + Sync;
    /// The store namespace holding this kind's values.
    const NS: &'static str;
    /// Writes a value's record: the namespace's value codec.
    const WRITE: fn(&Self::Value, &mut RecordWriter);
    /// Parses a [`Job::WRITE`] record.
    const READ: fn(&mut RecordReader<'_>) -> Result<Self::Value, RecordError>;
    /// Whether a cold key executes its binaries — and so, under the
    /// compiled backend, needs their pre-decoded traces — rather than
    /// only walking their layout.
    const EXECUTES: bool;

    /// This kind's memo table on `engine`.
    fn table(engine: &Engine) -> &JobTable<Self>;

    /// The canonical store key: equal keys give byte-equal records, and
    /// the store verifies a loaded record's key byte-for-byte.
    fn key_record(&self) -> String;

    /// The compiled binaries a cold key needs. The prepare step resolves
    /// them in this order — memoized, so strategies sharing a
    /// compilation class share one binary — and hands them to
    /// [`Job::compute`].
    fn binaries(&self) -> Vec<Binary>;

    /// Computes the key's value from its prepared binaries.
    fn compute(&self, bins: &[ScenarioBinary], backend: ExecBackend) -> Self::Value;

    /// Parses a stored value. Anything but exactly one current-codec
    /// record — torn, corrupt, written by another codec — is a miss.
    fn decode(text: &str) -> Option<Self::Value> {
        let mut r = RecordReader::new(text);
        let value = Self::READ(&mut r).ok()?;
        r.finish().ok()?;
        Some(value)
    }
}

impl Job for RunKey {
    type Value = RunReport;
    const NS: &'static str = NS_RUNS;
    const WRITE: fn(&RunReport, &mut RecordWriter) = RunReport::to_record;
    const READ: fn(&mut RecordReader<'_>) -> Result<RunReport, RecordError> =
        RunReport::from_record;
    const EXECUTES: bool = true;

    fn table(engine: &Engine) -> &JobTable<Self> {
        &engine.runs
    }

    fn key_record(&self) -> String {
        self.store_key()
    }

    fn binaries(&self) -> Vec<Binary> {
        vec![Binary {
            profile: self.profile,
            geom: self.config().cpu.geometry,
            strategy: self.strategy,
        }]
    }

    fn compute(&self, bins: &[ScenarioBinary], _: ExecBackend) -> RunReport {
        let cfg = self.config();
        match &bins[0].trace {
            Some(trace) => Simulator::run_traced(trace, &cfg, self.strategy, self.mode),
            None => Simulator::run_interp(&bins[0].laid, &cfg, self.strategy, self.mode),
        }
    }
}

impl Job for Scenario {
    type Value = ScenarioReport;
    const NS: &'static str = NS_SCENARIOS;
    const WRITE: fn(&ScenarioReport, &mut RecordWriter) = ScenarioReport::to_record;
    const READ: fn(&mut RecordReader<'_>) -> Result<ScenarioReport, RecordError> =
        ScenarioReport::from_record;
    const EXECUTES: bool = true;

    fn table(engine: &Engine) -> &JobTable<Self> {
        &engine.scenarios
    }

    fn key_record(&self) -> String {
        self.store_key.clone()
    }

    fn binaries(&self) -> Vec<Binary> {
        let cfg = &self.cfg;
        (0..cfg.procs.len())
            .map(|i| Binary {
                profile: cfg.procs[i].profile,
                geom: cfg.proc_config(i).cpu.geometry,
                strategy: cfg.strategy,
            })
            .collect()
    }

    fn compute(&self, bins: &[ScenarioBinary], backend: ExecBackend) -> ScenarioReport {
        scenario::simulate(&self.cfg, bins, backend)
    }
}

impl Job for Walk {
    type Value = WalkMeasurement;
    const NS: &'static str = NS_WALKS;
    const WRITE: fn(&WalkMeasurement, &mut RecordWriter) = WalkMeasurement::to_record;
    const READ: fn(&mut RecordReader<'_>) -> Result<WalkMeasurement, RecordError> =
        WalkMeasurement::from_record;
    const EXECUTES: bool = false;

    fn table(engine: &Engine) -> &JobTable<Self> {
        &engine.walks
    }

    fn key_record(&self) -> String {
        self.store_key.clone()
    }

    fn binaries(&self) -> Vec<Binary> {
        vec![Binary {
            profile: self.profile,
            geom: PageGeometry::default_4k(),
            strategy: StrategyKind::Base,
        }]
    }

    fn compute(&self, bins: &[ScenarioBinary], _: ExecBackend) -> WalkMeasurement {
        measure_walk(&bins[0].laid, self.scale.max_commits, self.scale.seed)
    }
}

/// One job kind's memo: a slot per key some batch has claimed, and the
/// kind's warm/cold counts.
#[derive(Debug)]
struct JobTable<J: Job> {
    /// Claiming a key's slot under this lock is what makes concurrent
    /// batches compute each key once.
    slots: Mutex<HashMap<J, Slot<J::Value>>>,
    /// Signalled whenever a batch publishes values or releases its
    /// claims, so callers waiting on another batch's keys re-check.
    resolved: Condvar,
    /// Values served from the persistent store.
    warm: AtomicU64,
    /// Values computed in this process.
    cold: AtomicU64,
}

/// A claimed key: still being computed by some batch, or done.
#[derive(Debug)]
enum Slot<V> {
    InFlight,
    Done(Arc<V>),
}

impl<J: Job> Default for JobTable<J> {
    fn default() -> Self {
        Self {
            slots: Mutex::new(HashMap::new()),
            resolved: Condvar::new(),
            warm: AtomicU64::new(0),
            cold: AtomicU64::new(0),
        }
    }
}

impl<J: Job> JobTable<J> {
    fn lock(&self) -> MutexGuard<'_, HashMap<J, Slot<J::Value>>> {
        self.slots.lock().expect("engine job table poisoned")
    }

    fn traffic(&self) -> NamespaceTraffic {
        NamespaceTraffic {
            warm: self.warm.load(Ordering::Relaxed),
            cold: self.cold.load(Ordering::Relaxed),
        }
    }
}

/// Releases a batch's unpublished claims even if a computation panics,
/// so concurrent callers waiting on those keys wake up and re-claim them
/// instead of blocking forever.
struct Release<'a, J: Job> {
    table: &'a JobTable<J>,
    keys: &'a [&'a J],
}

impl<J: Job> Drop for Release<'_, J> {
    fn drop(&mut self) {
        // A panic here, while a failed batch unwinds, would abort the
        // process. Every update of the slot map is a single insert or
        // remove, so a poisoned map is still consistent.
        let mut slots = self
            .table
            .slots
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        for &key in self.keys {
            if matches!(slots.get(key), Some(Slot::InFlight)) {
                slots.remove(key);
            }
        }
        drop(slots);
        self.table.resolved.notify_all();
    }
}

/// Gates a cold key on the store's claim coordinator. `Some` is the
/// value another client published while we raced it; `None` means
/// compute it here — claim granted, no coordinator (local stores), or
/// any degraded outcome: a failure is always a miss, never a stall.
fn published_elsewhere(store: &dyn StoreBackend, ns: &str, key: &str) -> Option<String> {
    let lease = claim_lease();
    match store.claim(ns, key, lease) {
        ClaimOutcome::Hit(text) => Some(text),
        ClaimOutcome::Granted | ClaimOutcome::Unsupported => None,
        ClaimOutcome::Busy => store.wait_for(ns, key, lease),
    }
}

/// A deduplicating, memoizing, parallel executor of simulation runs,
/// multiprogrammed scenarios and functional walks.
///
/// One engine should be shared across every experiment of a session (the
/// `all_experiments` binary shares a single engine across all ten
/// tables/figures); its caches are what turn the evaluation's overlapping
/// run sets into single simulations.
#[derive(Debug)]
pub struct Engine {
    profiles: Vec<BenchmarkProfile>,
    programs: ProgramCache,
    /// Memoized pre-decoded traces for the compiled execution backend
    /// (`traces` store namespace; warm across processes like `programs`).
    traces: TraceCache,
    /// Memoized compiled binaries (layout + instrumentation + marking):
    /// one compilation per [`LaidKey`] no matter how many jobs execute
    /// it. A batch holds this lock across its prefetch and prepare
    /// steps, so every artifact answer it primes is consumed by that
    /// same batch.
    laid: Mutex<HashMap<LaidKey, Arc<LaidProgram>>>,
    runs: JobTable<RunKey>,
    scenarios: JobTable<Scenario>,
    walks: JobTable<Walk>,
    /// Persistent cross-process result store, consulted before computing
    /// and written after (see [`Store`]). `None` = in-memory only.
    store: Option<Store>,
}

/// Warm (store-served) and cold (computed) request counts for one store
/// namespace.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NamespaceTraffic {
    /// Requests served from the persistent store.
    pub warm: u64,
    /// Requests that had to be computed in-process.
    pub cold: u64,
}

/// Per-namespace warm/cold accounting for every persisted layer (see
/// [`Engine::store_summary`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreSummary {
    /// Pipeline run reports (`runs` namespace).
    pub runs: NamespaceTraffic,
    /// Functional walk measurements (`walks`).
    pub walks: NamespaceTraffic,
    /// Generated programs (`programs`).
    pub programs: NamespaceTraffic,
    /// Pre-decoded execution traces (`traces`). Cold = compiled in this
    /// process; all zero under the interpreter backend.
    pub traces: NamespaceTraffic,
    /// Multiprogrammed scenario reports (`scenarios`); all zero unless
    /// [`Engine::run_scenarios`] was used.
    pub scenarios: NamespaceTraffic,
}

impl Engine {
    /// An engine over the six canonical benchmark profiles.
    #[must_use]
    pub fn new() -> Self {
        Self::with_profiles(cfr_workload::profiles::all())
    }

    /// An engine over a custom profile set.
    ///
    /// # Panics
    ///
    /// Panics if two profiles share a name (names are the cache identity).
    #[must_use]
    pub fn with_profiles(profiles: Vec<BenchmarkProfile>) -> Self {
        let mut names = HashSet::new();
        for p in &profiles {
            assert!(names.insert(p.name), "duplicate profile name {:?}", p.name);
        }
        Self {
            profiles,
            programs: ProgramCache::new(),
            traces: TraceCache::new(),
            laid: Mutex::new(HashMap::new()),
            runs: JobTable::default(),
            scenarios: JobTable::default(),
            walks: JobTable::default(),
            store: None,
        }
    }

    /// Attaches a persistent [`Store`]: every job key is looked up in it
    /// before computing, and every fresh value is written back, so a key
    /// computes once *per machine* rather than once per process. The
    /// same store backs the program and trace caches, so a fully-warm
    /// invocation generates, compiles and walks nothing either.
    #[must_use]
    pub fn with_store(mut self, store: Store) -> Self {
        self.programs.attach_store(store.backend());
        self.traces.attach_store(store.backend());
        self.store = Some(store);
        self
    }

    /// An engine backed by the environment's default store: the
    /// `cfr-store-serve` daemon at `$CFR_STORE_ADDR` (layered over the
    /// local shards) when that variable is set, else the machine-shared
    /// local store (`$CFR_STORE_DIR`, default `target/cfr-store`, GC
    /// policy from `CFR_STORE_MAX_BYTES`/`CFR_STORE_MAX_AGE`). If the
    /// store cannot be opened the engine still works, just without
    /// cross-process caching (a warning goes to stderr).
    #[must_use]
    pub fn with_default_store() -> Self {
        match Store::open_default() {
            Ok(store) => Self::new().with_store(store),
            Err(err) => {
                eprintln!("warning: persistent artifact store disabled: {err}");
                Self::new()
            }
        }
    }

    /// The attached persistent store, if any.
    #[must_use]
    pub fn store(&self) -> Option<&Store> {
        self.store.as_ref()
    }

    /// The functional walk measurement of each profile's laid-out
    /// program: the non-pipeline path behind Table 4 and the calibration
    /// tooling. Walks are jobs like runs: memoized, probed in one batched
    /// store exchange, and — when cold — measured on the engine's
    /// memoized plain-class layout and written back.
    ///
    /// # Panics
    ///
    /// Panics if any profile is not registered.
    #[must_use]
    pub fn walk_measurements(
        &self,
        profiles: &[&str],
        scale: &ExperimentScale,
    ) -> Vec<WalkMeasurement> {
        let keys: Vec<Walk> = profiles
            .iter()
            .map(|name| Walk::new(self.profile(name), *scale))
            .collect();
        self.resolve(&keys).iter().map(|m| **m).collect()
    }

    /// Warm/cold traffic per persisted namespace. "Warm" = served from
    /// the store; "cold" = computed this process (every request, when no
    /// store is attached).
    #[must_use]
    pub fn store_summary(&self) -> StoreSummary {
        StoreSummary {
            runs: self.runs.traffic(),
            walks: self.walks.traffic(),
            programs: NamespaceTraffic {
                warm: self.programs.loaded(),
                cold: self.programs.generated(),
            },
            traces: NamespaceTraffic {
                warm: self.traces.loaded(),
                cold: self.traces.compiled(),
            },
            scenarios: self.scenarios.traffic(),
        }
    }

    /// The one-line store accounting every binary prints on stderr:
    /// per-namespace warm/cold traffic and the store identity (directory
    /// path, daemon address, or both when layered), or the in-process
    /// counts when no store is attached.
    #[must_use]
    pub fn summary_line(&self) -> String {
        let s = self.store_summary();
        // The scenarios segment only appears when scenarios ran, so the
        // line stays byte-identical for every pre-existing binary.
        let scen = if s.scenarios.warm + s.scenarios.cold > 0 {
            format!(
                "; scenarios {} warm / {} cold",
                s.scenarios.warm, s.scenarios.cold
            )
        } else {
            String::new()
        };
        match &self.store {
            Some(store) => format!(
                "store: runs {} warm / {} cold; walks {} warm / {} cold; \
                 programs {} warm / {} cold; traces {} warm / {} cold{} ({})",
                s.runs.warm,
                s.runs.cold,
                s.walks.warm,
                s.walks.cold,
                s.programs.warm,
                s.programs.cold,
                s.traces.warm,
                s.traces.cold,
                scen,
                store.describe(),
            ),
            None => format!(
                "store: disabled ({} runs simulated, {} walks measured, \
                 {} programs generated, {} traces compiled in-process{})",
                s.runs.cold,
                s.walks.cold,
                s.programs.cold,
                s.traces.cold,
                if s.scenarios.cold > 0 {
                    format!(", {} scenarios simulated", s.scenarios.cold)
                } else {
                    String::new()
                },
            ),
        }
    }

    /// The registered profiles, in registration (paper table) order.
    #[must_use]
    pub fn profiles(&self) -> &[BenchmarkProfile] {
        &self.profiles
    }

    /// The registered profile named `name`.
    fn profile(&self, name: &str) -> &BenchmarkProfile {
        self.profiles
            .iter()
            .find(|p| p.name == name)
            .unwrap_or_else(|| panic!("unknown benchmark profile {name:?}"))
    }

    /// The generated program for a registered profile, memoized.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not a registered profile.
    #[must_use]
    pub fn program(&self, name: &str) -> Arc<Program> {
        self.programs.get(self.profile(name))
    }

    /// How many simulations have actually executed. Without a store,
    /// deduplication makes this equal to the number of *unique* keys ever
    /// requested; with a store attached, warm keys are served from it
    /// and do not count here (see [`Engine::store_summary`]).
    #[must_use]
    pub fn simulated_runs(&self) -> u64 {
        self.runs.cold.load(Ordering::Relaxed)
    }

    /// Executes one run (cached like any other).
    ///
    /// # Panics
    ///
    /// Panics if the key names an unregistered profile.
    #[must_use]
    pub fn run(&self, key: RunKey) -> Arc<RunReport> {
        self.run_many(&[key])
            .pop()
            .expect("one key in, one report out")
    }

    /// Executes a batch of runs, returning reports in request order.
    ///
    /// Keys already simulated (by any earlier call) are served from the
    /// result cache; the remaining *unique* keys run in parallel. Results
    /// are bit-identical to serial [`Simulator::run_program`] calls with
    /// the same key, in any batch composition or order.
    ///
    /// Safe to call from several threads at once: overlapping keys are
    /// claimed atomically, so each unique key still simulates exactly
    /// once — later callers block until the claiming batch publishes the
    /// result.
    ///
    /// # Panics
    ///
    /// Panics if a key names an unregistered profile, or if a previous
    /// batch panicked mid-update (poisoned cache).
    #[must_use]
    pub fn run_many(&self, keys: &[RunKey]) -> Vec<Arc<RunReport>> {
        self.resolve(keys)
    }

    /// Executes one multiprogrammed scenario (cached like any other).
    ///
    /// # Panics
    ///
    /// Panics if the config names an unregistered profile (see
    /// [`Engine::run_scenarios`]).
    #[must_use]
    pub fn run_scenario(&self, cfg: &ScenarioConfig) -> Arc<ScenarioReport> {
        self.run_scenarios(std::slice::from_ref(cfg))
            .pop()
            .expect("one config in, one report out")
    }

    /// Executes a batch of scenarios, returning reports in request order.
    ///
    /// A scenario's identity is its full config: equal configs
    /// deduplicate in-process (within and across batches and threads)
    /// and across processes through the `scenarios` store namespace,
    /// exactly like plain runs, and warm replays are byte-identical.
    /// Per-process binaries and pre-decoded traces resolve through the
    /// same memoized compilation caches (and store namespaces) runs use.
    ///
    /// # Panics
    ///
    /// Panics if a config names an unregistered profile, asks for zero
    /// processes, or sets a zero quantum or ASID count.
    #[must_use]
    pub fn run_scenarios(&self, cfgs: &[ScenarioConfig]) -> Vec<Arc<ScenarioReport>> {
        let keys: Vec<Scenario> = cfgs
            .iter()
            .map(|cfg| Scenario {
                cfg: cfg.clone(),
                store_key: cfg.store_key(),
            })
            .collect();
        self.resolve(&keys)
    }

    /// The job pipeline (see the module docs): resolves `keys` to values
    /// in request order, computing each unique cold key once. Safe to
    /// call from several threads at once: overlapping keys are claimed
    /// atomically, and later callers block until the claiming batch
    /// publishes.
    fn resolve<J: Job>(&self, keys: &[J]) -> Vec<Arc<J::Value>> {
        let table = J::table(self);
        loop {
            // 1. Claim every requested key no batch has claimed yet.
            let claimed: Vec<&J> = {
                let mut slots = table.lock();
                let mut claimed = Vec::new();
                for key in keys {
                    if !slots.contains_key(key) {
                        slots.insert(key.clone(), Slot::InFlight);
                        claimed.push(key);
                    }
                }
                claimed
            };
            if !claimed.is_empty() {
                let release = Release {
                    table,
                    keys: &claimed,
                };
                let values = self.compute_claimed(&claimed);
                // 6. Publish, then wake waiters.
                let mut slots = table.lock();
                for (&key, value) in claimed.iter().zip(values) {
                    *slots.get_mut(key).expect("a claimed key keeps its slot") = Slot::Done(value);
                }
                drop(slots);
                drop(release);
            }
            // Collect — waiting out keys a concurrent batch is still
            // computing. A key without a slot was released by a batch
            // that panicked: loop back and claim it.
            let mut slots = table.lock();
            loop {
                let mut values = Vec::with_capacity(keys.len());
                let mut orphaned = false;
                for key in keys {
                    match slots.get(key) {
                        Some(Slot::Done(value)) => values.push(Arc::clone(value)),
                        Some(Slot::InFlight) => {}
                        None => orphaned = true,
                    }
                }
                if values.len() == keys.len() {
                    return values;
                }
                if orphaned {
                    break; // re-claim in the outer loop
                }
                slots = table
                    .resolved
                    .wait(slots)
                    .expect("engine job table poisoned");
            }
        }
    }

    /// Steps 2–5 of [`Engine::resolve`] for a batch of claimed keys,
    /// returning their values in order.
    fn compute_claimed<J: Job>(&self, claimed: &[&J]) -> Vec<Arc<J::Value>> {
        let table = J::table(self);
        let store = self.store.as_ref().map(Store::backend);
        let items: Vec<(String, String)> = claimed
            .iter()
            .map(|key| (J::NS.to_string(), key.key_record()))
            .collect();
        // 2. Probe the store for the whole claimed set in ONE batched
        // load (a networked backend answers it in one round trip), so a
        // fully-warm batch touches neither the caches nor a worker pool.
        let mut values: Vec<Option<J::Value>> = match &store {
            Some(store) => store
                .load_many(&items)
                .into_iter()
                .map(|value| value.and_then(|text| J::decode(&text)))
                .collect(),
            None => Vec::new(),
        };
        // A backend must answer slot-for-slot; pad defensively so a short
        // reply degrades to cold keys, not lost values.
        values.resize_with(claimed.len(), || None);
        let cold: Vec<usize> = (0..claimed.len())
            .filter(|&i| values[i].is_none())
            .collect();
        table
            .warm
            .fetch_add((claimed.len() - cold.len()) as u64, Ordering::Relaxed);
        if cold.is_empty() {
            return values.into_iter().flatten().map(Arc::new).collect();
        }

        // 3–4. Prefetch and prepare the cold keys' binaries.
        let backend = ExecBackend::from_env();
        let cold_keys: Vec<&J> = cold.iter().map(|&i| claimed[i]).collect();
        let jobs: Vec<(usize, Vec<ScenarioBinary>)> = cold
            .iter()
            .copied()
            .zip(self.prepare(&cold_keys, backend))
            .collect();

        // 5. Compute the cold keys in parallel. With a coordinating
        // backend each key is first claimed, so N processes racing the
        // same cold plan compute each key once globally: losers get the
        // winner's published value back warm. Each value is saved as
        // soon as it exists (one append per record; concurrent binaries
        // sharing the store resync past torn bytes and read them as
        // misses), which also wakes the daemon's waiters on that key.
        let fresh: Vec<(usize, J::Value)> = jobs
            .par_iter()
            .map(|(i, bins)| {
                let record = &items[*i].1;
                if let Some(store) = &store {
                    let elsewhere = published_elsewhere(store.as_ref(), J::NS, record);
                    if let Some(value) = elsewhere.and_then(|text| J::decode(&text)) {
                        table.warm.fetch_add(1, Ordering::Relaxed);
                        return (*i, value);
                    }
                }
                let value = claimed[*i].compute(bins, backend);
                table.cold.fetch_add(1, Ordering::Relaxed);
                if let Some(store) = &store {
                    let mut w = RecordWriter::new();
                    J::WRITE(&value, &mut w);
                    store.save(J::NS, record, &w.finish());
                }
                (*i, value)
            })
            .collect();
        for (i, value) in fresh {
            values[i] = Some(value);
        }
        values
            .into_iter()
            .map(|value| Arc::new(value.expect("every claimed key resolved")))
            .collect()
    }

    /// Steps 3–4 of [`Engine::resolve`]: one batched store probe for the
    /// program and trace records the cold keys need that the caches do
    /// not hold yet, primed into the caches; then each key's binaries,
    /// resolved serially through the memoized caches — which consume
    /// every primed answer — so parallel workers share one immutable
    /// `Arc` per compilation class.
    fn prepare<J: Job>(&self, cold: &[&J], backend: ExecBackend) -> Vec<Vec<ScenarioBinary>> {
        let traced = J::EXECUTES && backend == ExecBackend::Compiled;
        // Resolve profiles before taking the layout lock, so an unknown
        // name panics without poisoning it for every later batch.
        let wanted: Vec<Vec<(Binary, &BenchmarkProfile)>> = cold
            .iter()
            .map(|key| {
                let bins = key.binaries().into_iter();
                bins.map(|bin| (bin, self.profile(bin.profile))).collect()
            })
            .collect();
        let mut laid = self.laid.lock().expect("layout cache poisoned");
        if let Some(store) = &self.store {
            let mut items: Vec<(String, String)> = Vec::new();
            for &(bin, profile) in wanted.iter().flatten() {
                let trace = traced
                    .then(|| {
                        let (instrumented, marked) = (bin.instrumented(), bin.sola_marked());
                        self.traces
                            .prefetch_key(profile, bin.geom, instrumented, marked)
                    })
                    .flatten();
                let probes = [
                    (NS_PROGRAMS, self.programs.prefetch_key(profile)),
                    (NS_TRACES, trace),
                ];
                for (ns, key) in probes {
                    let Some(key) = key else { continue };
                    let item = (ns.to_string(), key);
                    if !items.contains(&item) {
                        items.push(item);
                    }
                }
            }
            if !items.is_empty() {
                let mut values = store.backend().load_many(&items);
                values.resize_with(items.len(), || None);
                for ((ns, key), value) in items.into_iter().zip(values) {
                    if ns == NS_PROGRAMS {
                        self.programs.prime(key, value);
                    } else {
                        self.traces.prime(key, value);
                    }
                }
            }
        }
        wanted
            .into_iter()
            .map(|bins| {
                bins.into_iter()
                    .map(|(bin, profile)| self.binary(&mut laid, bin, profile, traced))
                    .collect()
            })
            .collect()
    }

    /// One binary a job needs: its layout, memoized per [`LaidKey`] in
    /// `laid`, plus — when `traced` — its pre-decoded trace, memoized
    /// per compilation class and warm across processes through the
    /// store's `traces` namespace.
    fn binary(
        &self,
        laid: &mut HashMap<LaidKey, Arc<LaidProgram>>,
        bin: Binary,
        profile: &BenchmarkProfile,
        traced: bool,
    ) -> ScenarioBinary {
        let layout = laid.entry(bin.class()).or_insert_with(|| {
            let program = self.programs.get(profile);
            Arc::new(compiler::compile_for(&program, bin.geom, bin.strategy))
        });
        let layout = Arc::clone(layout);
        let trace = traced.then(|| self.traces.get(profile, &layout, bin.sola_marked()));
        ScenarioBinary {
            laid: layout,
            trace,
        }
    }
}

impl Default for Engine {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExperimentScale {
        ExperimentScale {
            max_commits: 10_000,
            seed: 0x5EED,
        }
    }

    #[test]
    fn dedup_simulates_unique_keys_once() {
        let engine = Engine::new();
        let scale = tiny();
        let a = RunKey::new("177.mesa", &scale, StrategyKind::Base, AddressingMode::ViPt);
        let b = RunKey::new("177.mesa", &scale, StrategyKind::Ia, AddressingMode::ViPt);
        let reports = engine.run_many(&[a, b, a, a, b]);
        assert_eq!(reports.len(), 5);
        assert_eq!(engine.simulated_runs(), 2, "two unique keys");
        assert!(Arc::ptr_eq(&reports[0], &reports[2]));
        // A later batch re-requesting a key hits the cache.
        let again = engine.run(a);
        assert_eq!(engine.simulated_runs(), 2);
        assert!(Arc::ptr_eq(&again, &reports[0]));
        // Each benchmark's program was generated once.
        assert_eq!(engine.store_summary().programs.cold, 1);
    }

    #[test]
    fn parallel_matches_serial() {
        let engine = Engine::new();
        let scale = tiny();
        let keys: Vec<RunKey> = [StrategyKind::Base, StrategyKind::Ia, StrategyKind::HoA]
            .into_iter()
            .map(|k| RunKey::new("254.gap", &scale, k, AddressingMode::ViPt))
            .collect();
        let parallel = engine.run_many(&keys);
        for (key, report) in keys.iter().zip(&parallel) {
            let program = engine.program(key.profile);
            let serial = Simulator::run_program(&program, &key.config(), key.strategy, key.mode);
            assert_eq!(**report, serial, "{key:?}");
        }
    }

    #[test]
    fn itlb_override_is_part_of_the_key() {
        let engine = Engine::new();
        let scale = tiny();
        let base = RunKey::new("177.mesa", &scale, StrategyKind::Base, AddressingMode::ViPt);
        let one_entry = base.with_itlb(ItlbChoice::Mono(
            cfr_types::TlbOrganization::fully_associative(1),
        ));
        assert_ne!(base, one_entry);
        // The default-iTLB override is the *same* key as the plain one.
        assert_eq!(base, base.with_itlb(ItlbChoice::default_mono()));
        let _ = engine.run_many(&[base, one_entry, base.with_itlb(ItlbChoice::default_mono())]);
        assert_eq!(engine.simulated_runs(), 2);
    }

    #[test]
    fn store_makes_runs_warm_across_engines() {
        let dir =
            std::env::temp_dir().join(format!("cfr-store-engine-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let scale = tiny();
        let keys = [
            RunKey::new("177.mesa", &scale, StrategyKind::Base, AddressingMode::ViPt),
            RunKey::new("177.mesa", &scale, StrategyKind::Ia, AddressingMode::ViPt),
        ];

        let cold = Engine::new().with_store(Store::open(&dir).unwrap());
        let cold_reports = cold.run_many(&keys);
        assert_eq!(cold.simulated_runs(), 2);
        let runs = cold.store_summary().runs;
        assert_eq!((runs.warm, runs.cold), (0, 2));

        // A fresh engine (= a fresh process, as far as caching goes) over
        // the same directory serves everything from disk, bit-identically.
        let warm = Engine::new().with_store(Store::open(&dir).unwrap());
        let warm_reports = warm.run_many(&keys);
        assert_eq!(warm.simulated_runs(), 0, "all served from the store");
        assert_eq!(warm.store_summary().runs.warm, 2);
        for (a, b) in cold_reports.iter().zip(&warm_reports) {
            assert_eq!(**a, **b);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn config_overrides_apply() {
        let scale = tiny();
        let base = RunKey::new("177.mesa", &scale, StrategyKind::Base, AddressingMode::ViPt);
        assert_eq!(base.config().cpu.il1.organization.size_bytes, 8 * 1024);
        assert_eq!(base.config().cpu.geometry.page_bytes(), 4096);
        let swept = base.with_il1_bytes(2048).with_page_bytes(16384);
        assert_ne!(base, swept, "overrides are part of the identity");
        assert_eq!(swept.config().cpu.il1.organization.size_bytes, 2048);
        assert_eq!(swept.config().cpu.geometry.page_bytes(), 16384);
        // Default-valued overrides canonicalize to the plain key, so a
        // sweep's default column deduplicates against non-sweep runs.
        assert_eq!(base.with_il1_bytes(8 * 1024).with_page_bytes(4096), base);
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
                    cfr_types::TlbOrganization::fully_associative(1),
                    cfr_types::TlbOrganization::fully_associative(32),
                    1,
                ),
            ),
            RunKey::new("252.eon", &scale, StrategyKind::Opt, AddressingMode::ViPt)
                .with_il1_bytes(2048)
                .with_page_bytes(65536),
        ];
        for key in keys {
            let record = key.store_key();
            let mut r = RecordReader::new(&record);
            assert_eq!(RunKey::from_record(&mut r, resolve).unwrap(), key);
            r.finish().unwrap();
        }
        // Unknown profile names fail rather than fabricate a key.
        let record = keys[0].store_key().replacen("177.mesa", "000.nope", 1);
        assert!(RunKey::from_record(&mut RecordReader::new(&record), resolve).is_err());
    }

    #[test]
    fn scenarios_dedup_and_persist() {
        use crate::scenario::{ScenarioProc, TlbMode};
        let dir =
            std::env::temp_dir().join(format!("cfr-store-scenario-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut cfg = ScenarioConfig::new(
            vec![ScenarioProc::new("177.mesa"), ScenarioProc::new("254.gap")],
            tiny(),
            StrategyKind::Ia,
            AddressingMode::ViPt,
        );
        cfg.quantum = 4_000;
        cfg.tlb_mode = TlbMode::Flush;

        let cold = Engine::new().with_store(Store::open(&dir).unwrap());
        let a = cold.run_scenarios(&[cfg.clone(), cfg.clone()]);
        assert!(
            Arc::ptr_eq(&a[0], &a[1]),
            "duplicate configs share one report"
        );
        let s = cold.store_summary().scenarios;
        assert_eq!((s.warm, s.cold), (0, 1), "one unique scenario simulated");
        assert!(a[0].context_switches > 0);

        // A fresh engine over the same directory replays warm,
        // byte-identically (the differential suite pins this end to end).
        let warm = Engine::new().with_store(Store::open(&dir).unwrap());
        let b = warm.run_scenario(&cfg);
        let s = warm.store_summary().scenarios;
        assert_eq!((s.warm, s.cold), (1, 0), "served from the store");
        assert_eq!(*b, *a[0], "warm replay is field-identical");
        assert!(
            warm.summary_line().contains("scenarios 1 warm / 0 cold"),
            "summary line grows a scenarios segment: {}",
            warm.summary_line()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn summary_line_has_no_scenario_segment_without_scenarios() {
        let engine = Engine::new();
        let _ = engine.run(RunKey::new(
            "177.mesa",
            &tiny(),
            StrategyKind::Base,
            AddressingMode::ViPt,
        ));
        assert!(
            !engine.summary_line().contains("scenario"),
            "pre-existing binaries' store lines must stay byte-identical"
        );
    }

    #[test]
    #[should_panic(expected = "unknown benchmark profile")]
    fn unknown_profile_panics() {
        let engine = Engine::new();
        let _ = engine.run(RunKey::new(
            "000.nope",
            &tiny(),
            StrategyKind::Base,
            AddressingMode::ViPt,
        ));
    }

    #[test]
    fn a_panicking_batch_releases_its_claims() {
        use std::panic::AssertUnwindSafe;
        let engine = Engine::new();
        let scale = tiny();
        let good = RunKey::new("177.mesa", &scale, StrategyKind::Base, AddressingMode::ViPt);
        let bad = RunKey::new("000.nope", &scale, StrategyKind::Base, AddressingMode::ViPt);
        let batch = std::panic::catch_unwind(AssertUnwindSafe(|| engine.run_many(&[good, bad])));
        assert!(batch.is_err(), "an unknown profile panics the batch");
        // The batch claimed `good` before panicking. Its claim is gone, so
        // the next caller re-claims and computes it instead of waiting on
        // it forever.
        assert!(engine.runs.lock().is_empty(), "no slot outlives the batch");
        let _ = engine.run(good);
        assert_eq!(engine.simulated_runs(), 1);
    }
}
