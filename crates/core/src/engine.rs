//! The parallel experiment engine.
//!
//! Every table and figure in the paper's evaluation is a set of
//! *(benchmark, strategy, addressing mode, iTLB)* simulation runs at some
//! [`ExperimentScale`] — and the sets overlap heavily (`table2`,
//! `table5`, `fig4`, and `table8` all need the base VI-PT run of every
//! benchmark, for example). Run serially and independently, the full
//! evaluation pays for the same simulations many times over.
//!
//! The [`Engine`] replaces that with keyed jobs. There are five kinds —
//! pipeline runs ([`RunKey`] → [`RunReport`]), multiprogrammed scenarios
//! ([`ScenarioConfig`] → [`ScenarioReport`]), Table 4's functional walks
//! (→ [`WalkMeasurement`]), and the artifacts those three execute:
//! generated programs (→ [`Program`]) and pre-decoded traces (→
//! [`CompiledTrace`]). Every kind goes through the same pipeline,
//! `Engine::resolve`, which is the only code that reads or writes a
//! store record:
//!
//! 1. **claim** the requested keys that are neither done nor being
//!    computed by a concurrent batch, so each unique key is computed at
//!    most once per engine — within a batch, across calls, across
//!    experiments and across threads;
//! 2. **probe** the optional persistent [`Store`] ([`Engine::with_store`])
//!    for the claimed keys in one batched load, extending the dedup
//!    across processes;
//! 3. **prepare** each cold key's compiled binaries: the programs of
//!    layouts the engine lacks resolve as one nested job batch, the
//!    layouts compile once per compilation class, and — under the
//!    compiled backend — their traces resolve as a second nested batch;
//! 4. **compute** the cold keys in parallel (rayon), each first claimed
//!    in the store — against the store daemon, racing processes compute
//!    every key once globally — and saved as soon as it is computed.
//!    Cold runs that drive the same pipeline share one worker, which
//!    simulates one of them and replays the others' translators against
//!    it, verified call by call (`cfr_cpu::TranslationLog`);
//! 5. **publish** the values, returned as cheap [`Arc`] handles in
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
    NS_PROGRAMS, NS_RUNS, NS_SCENARIOS, NS_TRACES, NS_WALKS,
};
use cfr_workload::{
    compile_trace, measure_walk, program_store_key, trace_store_key, walk_store_key,
    BenchmarkProfile, CompiledTrace, LaidProgram, Program, WalkMeasurement,
};
use rayon::prelude::*;

use crate::compiler;
use crate::experiment::ExperimentScale;
use crate::scenario::{self, ScenarioBinary, ScenarioConfig, ScenarioReport};
use crate::simulator::{ExecBackend, ItlbChoice, Recorded, RunReport, SimConfig, Simulator};
use crate::store::Store;
use crate::strategy::StrategyKind;

/// Identity of one compiled (laid-out) binary: benchmark, page size, and
/// the compilation class — whether boundary instrumentation ran and
/// whether the SoLA in-page marking pass ran. Strategies within a class
/// execute the *same* binary, so the engine compiles it once.
type LaidKey = (&'static str, u64, bool, bool);

/// What a run's pipeline depends on besides its translator: the binary
/// and the key with its translator — strategy and iTLB — erased, which
/// leaves the addressing mode and the configuration without its iTLB.
/// Cold runs with equal identities in one batch form a partition, and
/// one worker simulates one of them and replays the others against it
/// (see [`Simulator::replay`]).
type PipelineId = (LaidKey, RunKey);

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

/// A job identified by its store key: what to compute, and the key
/// record, which serializes every identity field — as unique as the
/// input and several times cheaper to hash than it.
#[derive(Clone, Debug)]
struct Keyed<T> {
    input: T,
    store_key: String,
}

impl<T> PartialEq for Keyed<T> {
    fn eq(&self, other: &Self) -> bool {
        self.store_key == other.store_key
    }
}

impl<T> Eq for Keyed<T> {}

impl<T> Hash for Keyed<T> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.store_key.hash(state);
    }
}

/// A multiprogrammed scenario, keyed by its config record.
type Scenario = Keyed<ScenarioConfig>;

/// A profile's generated program, keyed by [`program_store_key`], which
/// fingerprints the generator parameters.
type Generation = Keyed<BenchmarkProfile>;

impl Generation {
    fn of(profile: &BenchmarkProfile) -> Self {
        Self {
            store_key: program_store_key(profile),
            input: profile.clone(),
        }
    }
}

/// The pre-decoded trace of one compiled binary's layout, keyed by
/// [`trace_store_key`].
type TraceCompile = Keyed<Arc<LaidProgram>>;

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
    const EXECUTES: bool = false;

    /// This kind's memo table on `engine`.
    fn table(engine: &Engine) -> &JobTable<Self>;

    /// The canonical store key: equal keys give byte-equal records, and
    /// the store verifies a loaded record's key byte-for-byte.
    fn key_record(&self) -> String;

    /// The compiled binaries a cold key needs. The prepare step resolves
    /// them in this order — memoized, so strategies sharing a
    /// compilation class share one binary — and hands them to
    /// [`Job::compute`]. Programs and traces need none.
    fn binaries(&self) -> Vec<Binary> {
        Vec::new()
    }

    /// Computes the key's value from its prepared binaries. When
    /// `record`, a kind that shares pipelines also returns the run for the
    /// rest of its partition to [`Job::follow`].
    fn compute(
        &self,
        bins: &[ScenarioBinary],
        backend: ExecBackend,
        record: bool,
    ) -> (Self::Value, Option<Recorded>);

    /// The pipeline a cold key drives, for a kind whose keys can replay a
    /// sibling's recorded run; `None` — every kind but runs — computes
    /// the key on its own.
    fn pipeline(&self) -> Option<PipelineId> {
        None
    }

    /// The key's value replayed against a partition sibling's recorded
    /// run, or `None` when the replay is rejected.
    fn follow(&self, recorded: &Recorded) -> Option<Self::Value> {
        let _ = recorded;
        None
    }

    /// Parses a stored value for this key. Anything but exactly one
    /// current-codec record — torn, corrupt, written by another codec —
    /// is a miss, and so is a value the kind's own checks reject.
    fn decode(&self, text: &str) -> Option<Self::Value> {
        parse(text, Self::READ)
    }
}

/// Exactly one `read` record in `text`, or `None`.
fn parse<V>(text: &str, read: fn(&mut RecordReader<'_>) -> Result<V, RecordError>) -> Option<V> {
    let mut r = RecordReader::new(text);
    let value = read(&mut r).ok()?;
    r.finish().ok()?;
    Some(value)
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

    fn compute(
        &self,
        bins: &[ScenarioBinary],
        _: ExecBackend,
        record: bool,
    ) -> (RunReport, Option<Recorded>) {
        Simulator::run_binary(&bins[0], &self.config(), self.strategy, self.mode, record)
    }

    fn pipeline(&self) -> Option<PipelineId> {
        let erased = RunKey {
            strategy: StrategyKind::Base,
            itlb: ItlbChoice::default_mono(),
            ..*self
        };
        Some((self.binaries()[0].class(), erased))
    }

    fn follow(&self, recorded: &Recorded) -> Option<RunReport> {
        Simulator::replay(recorded, &self.config(), self.strategy, self.mode).ok()
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
        let cfg = &self.input;
        (0..cfg.procs.len())
            .map(|i| Binary {
                profile: cfg.procs[i].profile,
                geom: cfg.proc_config(i).cpu.geometry,
                strategy: cfg.strategy,
            })
            .collect()
    }

    fn compute(
        &self,
        bins: &[ScenarioBinary],
        backend: ExecBackend,
        _: bool,
    ) -> (ScenarioReport, Option<Recorded>) {
        (scenario::simulate(&self.input, bins, backend), None)
    }
}

impl Job for Walk {
    type Value = WalkMeasurement;
    const NS: &'static str = NS_WALKS;
    const WRITE: fn(&WalkMeasurement, &mut RecordWriter) = WalkMeasurement::to_record;
    const READ: fn(&mut RecordReader<'_>) -> Result<WalkMeasurement, RecordError> =
        WalkMeasurement::from_record;

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

    fn compute(
        &self,
        bins: &[ScenarioBinary],
        _: ExecBackend,
        _: bool,
    ) -> (WalkMeasurement, Option<Recorded>) {
        let walk = measure_walk(&bins[0].laid, self.scale.max_commits, self.scale.seed);
        (walk, None)
    }
}

impl Job for Generation {
    type Value = Program;
    const NS: &'static str = NS_PROGRAMS;
    const WRITE: fn(&Program, &mut RecordWriter) = Program::to_record;
    const READ: fn(&mut RecordReader<'_>) -> Result<Program, RecordError> = Program::from_record;

    fn table(engine: &Engine) -> &JobTable<Self> {
        &engine.programs
    }

    fn key_record(&self) -> String {
        self.store_key.clone()
    }

    fn compute(
        &self,
        _: &[ScenarioBinary],
        _: ExecBackend,
        _: bool,
    ) -> (Program, Option<Recorded>) {
        (self.input.generate(), None)
    }

    /// A stored program must also pass [`Program::validate`].
    fn decode(&self, text: &str) -> Option<Program> {
        parse(text, Self::READ).filter(|program| program.validate().is_ok())
    }
}

impl Job for TraceCompile {
    type Value = CompiledTrace;
    const NS: &'static str = NS_TRACES;
    const WRITE: fn(&CompiledTrace, &mut RecordWriter) = CompiledTrace::to_record;
    const READ: fn(&mut RecordReader<'_>) -> Result<CompiledTrace, RecordError> =
        CompiledTrace::from_record;

    fn table(engine: &Engine) -> &JobTable<Self> {
        &engine.traces
    }

    fn key_record(&self) -> String {
        self.store_key.clone()
    }

    fn compute(
        &self,
        _: &[ScenarioBinary],
        _: ExecBackend,
        _: bool,
    ) -> (CompiledTrace, Option<Recorded>) {
        (compile_trace(&self.input), None)
    }

    /// A stored trace must also pass [`CompiledTrace::validate`] and
    /// match its layout's shape: geometry, base, instrumentation and
    /// slot count.
    fn decode(&self, text: &str) -> Option<CompiledTrace> {
        let laid = &self.input;
        parse(text, Self::READ).filter(|trace| {
            trace.validate().is_ok()
                && trace.geom == laid.geom
                && trace.base == laid.base
                && trace.instrumented == laid.instrumented
                && trace.len() == laid.slots.len()
        })
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
    /// The cold values computed by replaying a partition sibling's
    /// recorded run instead of simulating.
    replayed: AtomicU64,
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
            replayed: AtomicU64::new(0),
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

/// A deduplicating, memoizing, parallel executor of simulation runs,
/// multiprogrammed scenarios and functional walks, and of the programs
/// and traces they execute.
///
/// One engine should be shared across every experiment of a session (the
/// `all_experiments` binary shares a single engine across all ten
/// tables/figures); its caches are what turn the evaluation's overlapping
/// run sets into single simulations.
#[derive(Debug)]
pub struct Engine {
    profiles: Vec<BenchmarkProfile>,
    /// Memoized compiled binaries (layout + instrumentation + marking):
    /// one compilation per [`LaidKey`] no matter how many jobs execute
    /// it. The lock covers layout compilation only; no nested job batch
    /// runs under it.
    laid: Mutex<HashMap<LaidKey, Arc<LaidProgram>>>,
    runs: JobTable<RunKey>,
    scenarios: JobTable<Scenario>,
    walks: JobTable<Walk>,
    /// Generated programs, the input of every layout.
    programs: JobTable<Generation>,
    /// Pre-decoded traces, which only the compiled backend executes.
    traces: JobTable<TraceCompile>,
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
            laid: Mutex::new(HashMap::new()),
            runs: JobTable::default(),
            scenarios: JobTable::default(),
            walks: JobTable::default(),
            programs: JobTable::default(),
            traces: JobTable::default(),
            store: None,
        }
    }

    /// Attaches a persistent [`Store`]: every job key is looked up in it
    /// before computing, and every fresh value is written back, so a key
    /// computes once *per machine* rather than once per process. Programs
    /// and traces are jobs too, so a fully-warm invocation generates,
    /// compiles and walks nothing either.
    #[must_use]
    pub fn with_store(mut self, store: Store) -> Self {
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
            programs: self.programs.traffic(),
            traces: self.traces.traffic(),
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

    /// The generated program for a registered profile: a one-key job
    /// batch, memoized and persisted like any other.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not a registered profile.
    #[must_use]
    pub fn program(&self, name: &str) -> Arc<Program> {
        let job = Generation::of(self.profile(name));
        self.resolve(&[job])
            .pop()
            .expect("one key in, one program out")
    }

    /// How many simulations have actually executed. Without a store,
    /// deduplication makes this equal to the number of *unique* keys ever
    /// requested; with a store attached, warm keys are served from it
    /// and do not count here (see [`Engine::store_summary`]).
    #[must_use]
    pub fn simulated_runs(&self) -> u64 {
        self.runs.cold.load(Ordering::Relaxed)
    }

    /// How many of the [`Engine::simulated_runs`] were computed by
    /// replaying their translator against another run of the same
    /// pipeline instead of simulating it (see [`Engine::run_many`]).
    #[must_use]
    pub fn replayed_runs(&self) -> u64 {
        self.runs.replayed.load(Ordering::Relaxed)
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
    /// result cache; the remaining *unique* keys run in parallel. Keys
    /// that drive the same pipeline — the same binary, addressing mode
    /// and configuration, differing only in strategy or iTLB — go to one
    /// worker, which simulates one and replays the others' translators
    /// against it; a replay that would drive a different pipeline is
    /// rejected, and that key is simulated. Results are bit-identical to
    /// serial [`Simulator::run_program`] calls with the same key, in any
    /// batch composition or order.
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
    /// Per-process binaries resolve through the same program and trace
    /// jobs and layout memo runs use.
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
                input: cfg.clone(),
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
                // 5. Publish, then wake waiters.
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

    /// Steps 2–4 of [`Engine::resolve`] for a batch of claimed keys,
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
        // fully-warm batch touches neither a layout nor a worker pool.
        let mut values: Vec<Option<J::Value>> = match &store {
            Some(store) => store
                .load_many(&items)
                .into_iter()
                .zip(claimed)
                .map(|(value, key)| value.and_then(|text| key.decode(&text)))
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

        // 3. Prepare the cold keys' binaries.
        let backend = ExecBackend::from_env();
        let cold_keys: Vec<&J> = cold.iter().map(|&i| claimed[i]).collect();
        let jobs: Vec<(usize, Vec<ScenarioBinary>)> = cold
            .iter()
            .copied()
            .zip(self.prepare(&cold_keys, backend))
            .collect();

        // 4. Compute the cold keys in parallel, one partition per worker:
        // the cold keys that drive one pipeline ([`Job::pipeline`]), in
        // batch order; every other key is a partition of its own.
        let mut partitions: Vec<Vec<&(usize, Vec<ScenarioBinary>)>> = Vec::new();
        let mut of_pipeline: HashMap<PipelineId, usize> = HashMap::new();
        for job in &jobs {
            let shared = claimed[job.0].pipeline().map(|id| {
                *of_pipeline.entry(id).or_insert_with(|| {
                    partitions.push(Vec::new());
                    partitions.len() - 1
                })
            });
            match shared {
                Some(p) => partitions[p].push(job),
                None => partitions.push(vec![job]),
            }
        }
        let fresh: Vec<Vec<(usize, J::Value)>> = partitions
            .par_iter()
            .map(|part| self.compute_partition(part, claimed, &items, backend))
            .collect();
        for (i, value) in fresh.into_iter().flatten() {
            values[i] = Some(value);
        }
        values
            .into_iter()
            .map(|value| Arc::new(value.expect("every claimed key resolved")))
            .collect()
    }

    /// Step 4 of [`Engine::resolve`] for one partition of cold keys,
    /// `(index into claimed, binaries)` in batch order. The first key is
    /// simulated — recorded, when keys follow it — and each later key is
    /// replayed against that recording ([`Job::follow`]); the keys whose
    /// replay is rejected form the next round, led by the first of them.
    /// A partition of one is simulated exactly as a lone key.
    ///
    /// Each key is settled on its own: claimed in the store before it is
    /// simulated or once its replay is accepted, and saved as soon as it
    /// exists.
    fn compute_partition<J: Job>(
        &self,
        part: &[&(usize, Vec<ScenarioBinary>)],
        claimed: &[&J],
        items: &[(String, String)],
        backend: ExecBackend,
    ) -> Vec<(usize, J::Value)> {
        let table = J::table(self);
        let mut done = Vec::with_capacity(part.len());
        let mut round = part.to_vec();
        while !round.is_empty() {
            let mut leader: Option<Recorded> = None;
            let mut rejected = Vec::new();
            for (n, &job) in round.iter().enumerate() {
                let (i, bins) = (job.0, &job.1);
                let (key, record) = (claimed[i], &items[i].1);
                let value = if let Some(recorded) = &leader {
                    let Some(value) = key.follow(recorded) else {
                        rejected.push(job);
                        continue;
                    };
                    self.settle(key, record, || {
                        table.replayed.fetch_add(1, Ordering::Relaxed);
                        value
                    })
                } else {
                    let followed = n + 1 < round.len();
                    self.settle(key, record, || {
                        let (value, recorded) = key.compute(bins, backend, followed);
                        leader = recorded;
                        value
                    })
                };
                done.push((i, value));
            }
            round = rejected;
        }
        done
    }

    /// Settles one cold key, whose store key is `record`. With a
    /// coordinating backend the key is first claimed, so N processes
    /// racing the same cold plan compute each key once globally: losers
    /// get the winner's published value back warm. Otherwise — claim
    /// granted, no coordinator (local stores), or any degraded outcome:
    /// a failure is always a miss, never a stall — `compute` makes the
    /// value, which is saved as soon as it exists (one append per record;
    /// concurrent binaries sharing the store resync past torn bytes and
    /// read them as misses), which also wakes the daemon's waiters on
    /// that key.
    fn settle<J: Job>(
        &self,
        key: &J,
        record: &str,
        compute: impl FnOnce() -> J::Value,
    ) -> J::Value {
        let table = J::table(self);
        let store = self.store.as_ref().map(Store::backend);
        if let Some(store) = &store {
            let lease = claim_lease();
            let elsewhere = match store.claim(J::NS, record, lease) {
                ClaimOutcome::Hit(text) => Some(text),
                ClaimOutcome::Granted | ClaimOutcome::Unsupported => None,
                ClaimOutcome::Busy => store.wait_for(J::NS, record, lease),
            };
            if let Some(value) = elsewhere.and_then(|text| key.decode(&text)) {
                table.warm.fetch_add(1, Ordering::Relaxed);
                return value;
            }
        }
        let value = compute();
        table.cold.fetch_add(1, Ordering::Relaxed);
        if let Some(store) = &store {
            let mut w = RecordWriter::new();
            J::WRITE(&value, &mut w);
            store.save(J::NS, record, &w.finish());
        }
        value
    }

    /// Step 3 of [`Engine::resolve`]: each cold key's binaries, one
    /// immutable `Arc` per compilation class for the parallel workers to
    /// share. The programs of classes not laid out yet resolve as one job
    /// batch, the layouts compile under the `laid` lock, and — when the
    /// keys execute under the compiled backend — the layouts' traces
    /// resolve as a second job batch. No lock is held across either
    /// batch, and neither kind depends on a claimed key, so nested claims
    /// never wait on each other.
    fn prepare<J: Job>(&self, cold: &[&J], backend: ExecBackend) -> Vec<Vec<ScenarioBinary>> {
        // Resolve profiles first, so an unknown name panics before the
        // layout lock is taken and poisoned for every later batch.
        let wanted: Vec<Vec<(Binary, &BenchmarkProfile)>> = cold
            .iter()
            .map(|key| {
                let bins = key.binaries().into_iter();
                bins.map(|bin| (bin, self.profile(bin.profile))).collect()
            })
            .collect();
        let missing: Vec<Generation> = {
            let laid = self.laid.lock().expect("layout cache poisoned");
            let mut names = HashSet::new();
            wanted
                .iter()
                .flatten()
                .filter(|(bin, _)| !laid.contains_key(&bin.class()) && names.insert(bin.profile))
                .map(|(_, profile)| Generation::of(profile))
                .collect()
        };
        let programs: HashMap<&str, Arc<Program>> = missing
            .iter()
            .map(|job| job.input.name)
            .zip(self.resolve(&missing))
            .collect();
        let layouts: Vec<Vec<Arc<LaidProgram>>> = {
            let mut laid = self.laid.lock().expect("layout cache poisoned");
            let mut lay_out = |bin: &Binary| {
                let layout = laid.entry(bin.class()).or_insert_with(|| {
                    let program = &programs[bin.profile];
                    Arc::new(compiler::compile_for(program, bin.geom, bin.strategy))
                });
                Arc::clone(layout)
            };
            wanted
                .iter()
                .map(|bins| bins.iter().map(|(bin, _)| lay_out(bin)).collect())
                .collect()
        };
        let traced = J::EXECUTES && backend == ExecBackend::Compiled;
        let traces: Vec<TraceCompile> = if traced {
            let bins = wanted.iter().flatten().zip(layouts.iter().flatten());
            bins.map(|(&(bin, profile), laid)| TraceCompile {
                store_key: trace_store_key(
                    profile,
                    bin.geom,
                    bin.instrumented(),
                    bin.sola_marked(),
                ),
                input: Arc::clone(laid),
            })
            .collect()
        } else {
            Vec::new()
        };
        let mut traces = self.resolve(&traces).into_iter();
        layouts
            .into_iter()
            .map(|bins| {
                bins.into_iter()
                    .map(|laid| ScenarioBinary {
                        laid,
                        trace: traces.next(),
                    })
                    .collect()
            })
            .collect()
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
        // Each benchmark's program was generated once, and each
        // compilation class's trace — Base's plain binary and IA's
        // instrumented one — compiled once, under the compiled backend.
        let s = engine.store_summary();
        assert_eq!(s.programs.cold, 1);
        let traced = ExecBackend::from_env() == ExecBackend::Compiled;
        assert_eq!(s.traces.cold, if traced { 2 } else { 0 });
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
    fn a_sibling_run_replays_against_its_partition_leader_and_is_saved() {
        let dir =
            std::env::temp_dir().join(format!("cfr-store-replay-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let scale = tiny();
        let one = ItlbChoice::Mono(cfr_types::TlbOrganization::fully_associative(1));
        let run = |kind| RunKey::new("177.mesa", &scale, kind, AddressingMode::ViPt).with_itlb(one);
        // Base and OPT share a binary and, with a 1-entry iTLB, walk and
        // stall at the same fetches; IA runs another binary.
        let keys = [
            run(StrategyKind::Base),
            run(StrategyKind::Opt),
            run(StrategyKind::Ia),
        ];
        let engine = Engine::new().with_store(Store::open(&dir).unwrap());
        let reports = engine.run_many(&keys);
        assert_eq!(engine.simulated_runs(), 3);
        assert_eq!(engine.replayed_runs(), 1, "OPT replayed against Base");
        for (key, report) in keys.iter().zip(&reports) {
            let program = engine.program(key.profile);
            let solo = Simulator::run_program(&program, &key.config(), key.strategy, key.mode);
            assert_eq!(**report, solo, "{key:?}");
        }
        // The replayed run was saved like any other.
        let warm = Engine::new().with_store(Store::open(&dir).unwrap());
        let _ = warm.run_many(&keys);
        assert_eq!(warm.store_summary().runs.warm, 3);
        assert_eq!((warm.simulated_runs(), warm.replayed_runs()), (0, 0));
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
