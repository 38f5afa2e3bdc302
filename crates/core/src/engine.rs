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
//! walks (→ [`WalkMeasurement`]). Every kind goes through the same
//! pipeline, `Engine::resolve`, which is the only code that reads or
//! writes a store record:
//!
//! 1. **claim** the requested keys that are neither done nor being
//!    computed by a concurrent batch, so each unique key is computed at
//!    most once per engine — within a batch, across calls, across
//!    experiments and across threads;
//! 2. **probe** the optional persistent [`Store`] ([`Engine::with_store`])
//!    for the claimed keys in one batched load, extending the dedup
//!    across processes;
//! 3. **prepare** the executables of each cold key's binaries. The engine
//!    keeps one per binary, built once: one worker per profile generates
//!    the program, lays out each of the batch's binaries of that profile
//!    and, under the compiled backend, compiles each layout's
//!    [`CompiledTrace`](cfr_workload::CompiledTrace), keeping only what
//!    the backend runs. Programs and traces are cheaper to remake than to
//!    store and load, so no store record holds one. A walk generates and
//!    lays out its own program;
//! 4. **compute** the cold keys in parallel (rayon), each first claimed
//!    in the store — against the store daemon, racing processes compute
//!    every key once globally — and saved as soon as it is computed.
//!    Cold runs that drive the same pipeline share one worker. It first
//!    replays their translators against the runs of that pipeline earlier
//!    batches simulated, then simulates one of the rest and replays the
//!    others against it, each replay verified call by call
//!    (`cfr_cpu::TranslationLog`). The batch's simulated runs are kept
//!    for later batches in partition order, under a byte budget;
//! 5. **publish** the values, returned as cheap [`Arc`] handles in
//!    request order.
//!
//! A claimed key is hashed once per phase: claimed through the map's
//! `entry`, published, collected. Every map and set of the engine uses
//! its own deterministic word-at-a-time hasher (`FastHasher`). Their keys
//! are built in this process and none is iterated for output, so std's
//! keyed SipHash, which guards against crafted collisions, buys nothing
//! here; in a warm replay, which only claims, probes and publishes, it
//! took a seventh of the CPU. The artifact store's index keeps std's
//! hasher, because the daemon's clients choose its keys.
//!
//! Parallel execution is **deterministic**: a job's outcome depends only
//! on its key (the simulator is seeded, single-threaded per run, and
//! shares nothing mutable), and the engine reassembles results in input
//! order, so the reports are bit-identical to serial
//! [`Simulator::run_program`] calls regardless of worker scheduling.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::fmt::Debug;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

use cfr_types::net::claim_lease;
use cfr_types::{
    AddressingMode, ClaimOutcome, PageGeometry, RecordError, RecordReader, RecordWriter, NS_RUNS,
    NS_SCENARIOS, NS_WALKS,
};
use cfr_workload::{
    compile_trace, measure_walk, walk_store_key, BenchmarkProfile, Program, WalkMeasurement,
};
use rayon::prelude::*;

use crate::compiler;
use crate::experiment::ExperimentScale;
use crate::scenario::{self, Executable, ScenarioConfig, ScenarioReport};
use crate::simulator::{ExecBackend, ItlbChoice, Recorded, RunReport, SimConfig, Simulator};
use crate::store::Store;
use crate::strategy::StrategyKind;

/// Identity of one compiled (laid-out) binary: benchmark, page size, and
/// the compilation class — whether the boundary instrumentation and
/// in-page marking passes ran, which they do together (see
/// [`compiler::compile_for`]). Strategies within a class — Base, OPT and
/// HoA; SoCA, SoLA and IA — execute the *same* binary, so the engine
/// builds its executable once.
type LaidKey = (&'static str, u64, bool);

/// What a run's pipeline depends on besides its translator: the binary
/// and the key with its translator — strategy and iTLB — erased, which
/// leaves the addressing mode and the configuration without its iTLB.
/// Cold runs with equal identities in one batch form a partition, which
/// one worker computes by replaying against the retained runs of that
/// identity, then simulating one run and replaying the others against
/// it (see [`Simulator::replay`]). Simulated runs are retained under
/// their identity.
type PipelineId = (LaidKey, RunKey);

/// The byte budget of an engine's retained runs: their logs' bytes plus
/// their page tables' (see [`Engine::retained_logs`]). The paper plan
/// keeps all of its 120–127 simulated runs in under 10 MB at 60k
/// commits; at 1M commits the budget fills after 74.
const LOG_BUDGET: u64 = 64 << 20;

/// The map type of the engine's job tables, retained logs, partitions
/// and executable memo: it hashes with [`FastHasher`], for the reasons the
/// module docs give.
type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;

/// A [`FastMap`] set.
type FastSet<K> = HashSet<K, BuildHasherDefault<FastHasher>>;

/// A deterministic word-at-a-time hasher (the multiply-rotate scheme of
/// rustc's `FxHasher`): one multiply per integer field or 8-byte word.
#[derive(Clone, Copy, Debug, Default)]
struct FastHasher(u64);

impl FastHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for FastHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            let word: [u8; 8] = word.try_into().expect("an 8-byte chunk");
            self.add(u64::from_le_bytes(word));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut word = [0; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }

    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    fn finish(&self) -> u64 {
        // The table picks a bucket by the low bits, which a multiply
        // mixes least: bring the well-mixed high bits down.
        self.0.rotate_left(26)
    }
}

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
#[derive(Clone, Copy, Debug)]
struct Binary {
    profile: &'static str,
    geom: PageGeometry,
    strategy: StrategyKind,
}

impl Binary {
    fn class(&self) -> LaidKey {
        let instrumented = compiler::wants_instrumented(self.strategy);
        (self.profile, self.geom.page_bytes(), instrumented)
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

    /// This kind's memo table on `engine`.
    fn table(engine: &Engine) -> &JobTable<Self>;

    /// The canonical store key: equal keys give byte-equal records, and
    /// the store verifies a loaded record's key byte-for-byte.
    fn key_record(&self) -> String;

    /// The compiled binaries a cold key executes. The prepare step gets
    /// their executables in this order from the engine's memo, so
    /// strategies sharing a compilation class share one, and hands them
    /// to [`Job::compute`]. Walks execute none.
    fn binaries(&self) -> Vec<Binary> {
        Vec::new()
    }

    /// Computes the key's value on `engine` from its binaries'
    /// executables. When `record`, a kind that shares pipelines also
    /// returns the run for later keys of its pipeline to [`Job::follow`].
    fn compute(
        &self,
        engine: &Engine,
        exes: &[Executable],
        record: bool,
    ) -> (Self::Value, Option<Recorded>);

    /// The pipeline a cold key drives, for a kind whose keys can replay a
    /// recorded run of it; `None` — every kind but runs — computes the
    /// key on its own.
    fn pipeline(&self) -> Option<PipelineId> {
        None
    }

    /// The key's value replayed against a recorded run of its pipeline,
    /// or `None` when the replay is rejected.
    fn follow(&self, recorded: &Recorded) -> Option<Self::Value> {
        let _ = recorded;
        None
    }
}

/// Exactly one `read` record in `text`, or `None`: anything else — torn,
/// corrupt, written by another codec — is a miss.
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
        _: &Engine,
        exes: &[Executable],
        record: bool,
    ) -> (RunReport, Option<Recorded>) {
        Simulator::run_binary(&exes[0], &self.config(), self.strategy, self.mode, record)
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
        _: &Engine,
        exes: &[Executable],
        _: bool,
    ) -> (ScenarioReport, Option<Recorded>) {
        (scenario::run(&self.input, exes), None)
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

    /// Generates the program and lays out the plain binary it walks,
    /// dropping the program before the walk and the layout after it, so
    /// a walk batch holds at most one of each per worker.
    fn compute(
        &self,
        engine: &Engine,
        _: &[Executable],
        _: bool,
    ) -> (WalkMeasurement, Option<Recorded>) {
        let program = engine.generate(engine.profile(self.profile));
        let geom = PageGeometry::default_4k();
        let laid = compiler::compile_for(&program, geom, StrategyKind::Base);
        drop(program);
        let walk = measure_walk(&laid, self.scale.max_commits, self.scale.seed);
        (walk, None)
    }
}

/// One job kind's memo: a slot per key some batch has claimed, and the
/// kind's warm/cold counts.
#[derive(Debug)]
struct JobTable<J: Job> {
    /// Claiming a key's slot under this lock is what makes concurrent
    /// batches compute each key once.
    slots: Mutex<FastMap<J, Slot<J::Value>>>,
    /// Signalled whenever a batch publishes values or releases its
    /// claims, so callers waiting on another batch's keys re-check.
    resolved: Condvar,
    /// Values served from the persistent store.
    warm: AtomicU64,
    /// Values computed in this process.
    cold: AtomicU64,
    /// The cold values computed by replaying a recorded run of their
    /// pipeline instead of simulating.
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
            slots: Mutex::new(FastMap::default()),
            resolved: Condvar::new(),
            warm: AtomicU64::new(0),
            cold: AtomicU64::new(0),
            replayed: AtomicU64::new(0),
        }
    }
}

impl<J: Job> JobTable<J> {
    fn lock(&self) -> MutexGuard<'_, FastMap<J, Slot<J::Value>>> {
        self.slots.lock().expect("engine job table poisoned")
    }

    fn traffic(&self) -> NamespaceTraffic {
        NamespaceTraffic {
            warm: self.warm.load(Ordering::Relaxed),
            cold: self.cold.load(Ordering::Relaxed),
        }
    }
}

/// A batch's claims until it publishes them. Dropped unpublished — a
/// computation panicked — it releases them, so concurrent callers waiting
/// on those keys wake up and re-claim them instead of blocking forever.
/// Either way it wakes the waiters.
struct Release<'a, J: Job> {
    table: &'a JobTable<J>,
    /// The claims still to release: all of them until they are published.
    keys: &'a [&'a J],
}

impl<J: Job> Release<'_, J> {
    /// Publishes each claimed key's value, in claim order.
    fn publish(mut self, values: Vec<Arc<J::Value>>) {
        let mut slots = self.table.lock();
        for (&key, value) in self.keys.iter().zip(values) {
            *slots.get_mut(key).expect("a claimed key keeps its slot") = Slot::Done(value);
        }
        self.keys = &[];
    }
}

impl<J: Job> Drop for Release<'_, J> {
    fn drop(&mut self) {
        if !self.keys.is_empty() {
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
        }
        self.table.resolved.notify_all();
    }
}

/// The simulated runs an engine keeps for later batches to replay
/// against, by pipeline identity: every run a batch simulated, added in
/// partition order, until one does not fit the budget. Nothing is
/// evicted.
#[derive(Debug)]
struct Logs {
    by_pipeline: FastMap<PipelineId, Vec<Arc<Recorded>>>,
    kept: RetainedLogs,
    budget: u64,
    /// Set by the first run that did not fit; no run is kept after it.
    full: bool,
}

impl Logs {
    fn new(budget: u64) -> Self {
        Self {
            by_pipeline: FastMap::default(),
            kept: RetainedLogs::default(),
            budget,
            full: false,
        }
    }

    /// Keeps `recorded` under `id`, if it fits the budget.
    fn keep(&mut self, id: PipelineId, recorded: Arc<Recorded>) {
        let bytes = recorded.heap_bytes() as u64;
        self.full |= self.kept.bytes + bytes > self.budget;
        if !self.full {
            self.kept.logs += 1;
            self.kept.bytes += bytes;
            self.by_pipeline.entry(id).or_default().push(recorded);
        }
    }
}

/// The simulated runs an engine keeps for replays (see
/// [`Engine::retained_logs`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RetainedLogs {
    /// Runs kept.
    pub logs: u64,
    /// Their translation logs' and page tables' heap bytes.
    pub bytes: u64,
}

/// The cold keys of one batch that one worker computes: their indices
/// into the claimed keys and their binaries, in batch order, and for keys
/// that drive one pipeline, its identity and retained runs.
struct Partition<'a> {
    jobs: Vec<&'a (usize, Vec<Executable>)>,
    pipeline: Option<PipelineId>,
    retained: Vec<Arc<Recorded>>,
}

/// What one worker computed for a [`Partition`]: each key's value by its
/// index into the claimed keys, and the runs it recorded.
type Computed<V> = (Vec<(usize, V)>, Vec<Arc<Recorded>>);

/// A batch's recorded runs by partition, filed as each partition is
/// done, and the first partition whose runs are not yet retained.
struct Unretained {
    next: usize,
    runs: Vec<Option<Vec<Arc<Recorded>>>>,
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
    /// The backend every job executes on, read once, so the executable
    /// memo holds only what this backend runs.
    backend: ExecBackend,
    /// One executable per binary: its pre-decoded trace under the
    /// compiled backend, its layout under the interpreter. The lock only
    /// finds or inserts a binary's cell; whichever batch reaches an empty
    /// cell first builds it outside the lock, and concurrent batches
    /// wait on the cell.
    exes: Mutex<FastMap<LaidKey, Arc<OnceLock<Executable>>>>,
    runs: JobTable<RunKey>,
    scenarios: JobTable<Scenario>,
    walks: JobTable<Walk>,
    /// Programs generated: one per profile per batch that builds that
    /// profile's executables, one per walk.
    generated: AtomicU64,
    /// Traces compiled: one per executable built under the compiled
    /// backend.
    compiled: AtomicU64,
    /// Simulated runs kept for later batches' replays.
    logs: Mutex<Logs>,
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

/// Per-namespace warm/cold accounting (see [`Engine::store_summary`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreSummary {
    /// Pipeline run reports (`runs` namespace).
    pub runs: NamespaceTraffic,
    /// Functional walk measurements (`walks`).
    pub walks: NamespaceTraffic,
    /// Programs generated in this process (cold): one per profile per
    /// batch that builds that profile's executables, and one per walk
    /// computed. No program is stored, so warm is always 0.
    pub programs: NamespaceTraffic,
    /// Pre-decoded traces compiled in this process (cold): one per
    /// executable built under the compiled backend, none under the
    /// interpreter. No trace is stored, so warm is always 0.
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
        let mut names = FastSet::default();
        for p in &profiles {
            assert!(names.insert(p.name), "duplicate profile name {:?}", p.name);
        }
        Self {
            profiles,
            backend: ExecBackend::from_env(),
            exes: Mutex::new(FastMap::default()),
            runs: JobTable::default(),
            scenarios: JobTable::default(),
            walks: JobTable::default(),
            generated: AtomicU64::new(0),
            compiled: AtomicU64::new(0),
            logs: Mutex::new(Logs::new(LOG_BUDGET)),
            store: None,
        }
    }

    /// Attaches a persistent [`Store`]: every job key is looked up in it
    /// before computing, and every fresh value is written back, so a key
    /// computes once *per machine* rather than once per process. Only cold
    /// keys need executables, so a fully-warm invocation generates,
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
    /// store exchange, and — when cold — measured on a plain layout each
    /// walk builds from a program it generates, and written back.
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

    /// Warm/cold traffic per namespace. "Warm" = served from the store;
    /// "cold" = computed this process (every request, when no store is
    /// attached). Programs and traces are never stored: their cold counts
    /// are the programs generated and traces compiled.
    #[must_use]
    pub fn store_summary(&self) -> StoreSummary {
        let made = |count: &AtomicU64| NamespaceTraffic {
            warm: 0,
            cold: count.load(Ordering::Relaxed),
        };
        StoreSummary {
            runs: self.runs.traffic(),
            walks: self.walks.traffic(),
            programs: made(&self.generated),
            traces: made(&self.compiled),
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

    /// The simulated runs the engine keeps for later batches to replay
    /// against, and their bytes. Every simulated run is kept until one no
    /// longer fits a fixed 64 MiB budget; after that, none is.
    #[must_use]
    pub fn retained_logs(&self) -> RetainedLogs {
        self.logs.lock().expect("retained logs poisoned").kept
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
    /// worker, which replays their translators against the runs of that
    /// pipeline earlier batches simulated, then simulates one of the rest
    /// and replays the others against it; a replay that would drive a
    /// different pipeline is rejected, and that key is simulated. Results
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
    /// Per-process binaries come from the same executable memo runs use.
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
            // 1. Claim every requested key no batch has claimed yet. Each
            // phase — claim, publish, collect — hashes a key once.
            let claimed: Vec<&J> = {
                let mut slots = table.lock();
                keys.iter()
                    .filter(|&key| match slots.entry(key.clone()) {
                        Entry::Vacant(slot) => {
                            slot.insert(Slot::InFlight);
                            true
                        }
                        Entry::Occupied(_) => false,
                    })
                    .collect()
            };
            if !claimed.is_empty() {
                let release = Release {
                    table,
                    keys: &claimed,
                };
                let values = self.compute_claimed(&claimed);
                // 5. Publish, then wake waiters.
                release.publish(values);
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
                .map(|value| value.and_then(|text| parse(&text, J::READ)))
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

        // 3. Prepare the cold keys' executables.
        let cold_keys: Vec<&J> = cold.iter().map(|&i| claimed[i]).collect();
        let jobs: Vec<(usize, Vec<Executable>)> =
            cold.iter().copied().zip(self.prepare(&cold_keys)).collect();

        // 4. Compute the cold keys in parallel, one partition per worker:
        // the cold keys that drive one pipeline ([`Job::pipeline`]), in
        // batch order, with the runs of it the engine retained; every
        // other key is a partition of its own.
        let mut partitions: Vec<Partition<'_>> = Vec::new();
        let mut of_pipeline: FastMap<PipelineId, usize> = FastMap::default();
        let logs = self.logs.lock().expect("retained logs poisoned");
        for job in &jobs {
            let pipeline = claimed[job.0].pipeline();
            let shared = pipeline.map(|id| {
                *of_pipeline.entry(id).or_insert_with(|| {
                    let retained = logs.by_pipeline.get(&id).cloned();
                    partitions.push(Partition {
                        jobs: Vec::new(),
                        pipeline,
                        retained: retained.unwrap_or_default(),
                    });
                    partitions.len() - 1
                })
            });
            match shared {
                Some(p) => partitions[p].jobs.push(job),
                None => partitions.push(Partition {
                    jobs: vec![job],
                    pipeline,
                    retained: Vec::new(),
                }),
            }
        }
        // Whether the budget has room decides, for the whole batch,
        // whether a run nothing in its partition follows is recorded.
        let record_all = !logs.full;
        drop(logs);
        let unretained = Mutex::new(Unretained {
            next: 0,
            runs: vec![None; partitions.len()],
        });
        let indices: Vec<usize> = (0..partitions.len()).collect();
        let fresh: Vec<Vec<(usize, J::Value)>> = indices
            .into_par_iter()
            .map(|p| {
                let part = &partitions[p];
                let (values, recorded) = self.compute_partition(part, record_all, claimed, &items);
                self.retain_in_order(&partitions, &unretained, p, recorded);
                values
            })
            .collect();
        for (i, value) in fresh.into_iter().flatten() {
            values[i] = Some(value);
        }
        values
            .into_iter()
            .map(|value| Arc::new(value.expect("every claimed key resolved")))
            .collect()
    }

    /// Step 4 of [`Engine::resolve`] for one partition of cold keys. Each
    /// key is first replayed against the partition's retained runs
    /// ([`Job::follow`]). Of the keys no replay accepted, the first is
    /// simulated — recorded, when keys follow it or `record_all` — and
    /// each later one is replayed against that recording; the keys whose
    /// replay is rejected form the next round, led by the first of them.
    /// A partition of one with nothing retained is simulated exactly as
    /// a lone key. Returns the values and the runs recorded.
    ///
    /// Each key is settled on its own: claimed in the store before it is
    /// simulated or once its replay is accepted, and saved as soon as it
    /// exists.
    fn compute_partition<J: Job>(
        &self,
        part: &Partition<'_>,
        record_all: bool,
        claimed: &[&J],
        items: &[(String, String)],
    ) -> Computed<J::Value> {
        let table = J::table(self);
        let mut done = Vec::with_capacity(part.jobs.len());
        let mut recorded = Vec::new();
        // The runs the pending keys replay against: the retained ones,
        // then each round's leader's.
        let mut leaders = part.retained.clone();
        let mut pending = part.jobs.clone();
        while !pending.is_empty() {
            let mut rejected = Vec::new();
            for &job in &pending {
                let (key, record) = (claimed[job.0], &items[job.0].1);
                match leaders.iter().find_map(|leader| key.follow(leader)) {
                    Some(value) => {
                        let value = self.settle::<J>(record, || {
                            table.replayed.fetch_add(1, Ordering::Relaxed);
                            value
                        });
                        done.push((job.0, value));
                    }
                    None => rejected.push(job),
                }
            }
            let Some((&&(i, ref exes), rest)) = rejected.split_first() else {
                break;
            };
            let record = !rest.is_empty() || record_all;
            let mut leader = None;
            let value = self.settle::<J>(&items[i].1, || {
                let (value, run) = claimed[i].compute(self, exes, record);
                leader = run.map(Arc::new);
                value
            });
            done.push((i, value));
            leaders = leader.iter().cloned().collect();
            recorded.extend(leader);
            pending = rest.to_vec();
        }
        (done, recorded)
    }

    /// Files partition `p`'s recorded runs, then offers the retained logs,
    /// in partition order, the runs of every filed partition whose
    /// predecessors have offered theirs. So which runs are kept does not
    /// depend on the worker count, and a run the budget refuses is
    /// dropped as soon as its turn comes, not when the batch ends.
    fn retain_in_order(
        &self,
        partitions: &[Partition<'_>],
        unretained: &Mutex<Unretained>,
        p: usize,
        recorded: Vec<Arc<Recorded>>,
    ) {
        let mut unretained = unretained.lock().expect("unretained runs poisoned");
        let Unretained { next, runs } = &mut *unretained;
        runs[p] = Some(recorded);
        let mut logs = self.logs.lock().expect("retained logs poisoned");
        while let Some(done) = runs.get_mut(*next).and_then(Option::take) {
            let pipeline = partitions[*next].pipeline;
            for run in done {
                logs.keep(pipeline.expect("only pipelines record"), run);
            }
            *next += 1;
        }
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
    fn settle<J: Job>(&self, record: &str, compute: impl FnOnce() -> J::Value) -> J::Value {
        let table = J::table(self);
        let store = self.store.as_ref().map(Store::backend);
        if let Some(store) = &store {
            let lease = claim_lease();
            let elsewhere = match store.claim(J::NS, record, lease) {
                ClaimOutcome::Hit(text) => Some(text),
                ClaimOutcome::Granted | ClaimOutcome::Unsupported => None,
                ClaimOutcome::Busy => store.wait_for(J::NS, record, lease),
            };
            if let Some(value) = elsewhere.and_then(|text| parse(&text, J::READ)) {
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

    /// Step 3 of [`Engine::resolve`]: the executables of each cold key's
    /// binaries, from the memo. A binary new to the memo gets an empty
    /// cell under the lock; the batch then builds its distinct empty
    /// cells outside the lock, one worker per profile, and waits on any
    /// cell a concurrent batch is building instead of building it again.
    /// A worker generates its profile's program once, when it first finds
    /// a cell still empty, and drops it after the profile's last layout.
    fn prepare<J: Job>(&self, cold: &[&J]) -> Vec<Vec<Executable>> {
        // Resolve profiles first, so an unknown name panics before any
        // cell is inserted.
        let wanted: Vec<Vec<(Binary, &BenchmarkProfile)>> = cold
            .iter()
            .map(|key| {
                let bins = key.binaries().into_iter();
                bins.map(|bin| (bin, self.profile(bin.profile))).collect()
            })
            .collect();
        let cells: Vec<Arc<OnceLock<Executable>>> = {
            let mut memo = self.exes.lock().expect("executable memo poisoned");
            let bins = wanted.iter().flatten();
            bins.map(|(bin, _)| Arc::clone(memo.entry(bin.class()).or_default()))
                .collect()
        };
        let mut classes = FastSet::default();
        let mut groups: Vec<(&BenchmarkProfile, Vec<_>)> = Vec::new();
        for (&(bin, profile), cell) in wanted.iter().flatten().zip(&cells) {
            if cell.get().is_some() || !classes.insert(bin.class()) {
                continue;
            }
            match groups.iter_mut().find(|(p, _)| p.name == profile.name) {
                Some((_, group)) => group.push((bin, cell)),
                None => groups.push((profile, vec![(bin, cell)])),
            }
        }
        groups.into_par_iter().for_each(|(profile, group)| {
            let mut program = None;
            for (bin, cell) in group {
                cell.get_or_init(|| {
                    self.build(program.get_or_insert_with(|| self.generate(profile)), bin)
                });
            }
        });
        let mut exes = cells
            .iter()
            .map(|cell| cell.get().expect("every cell is built").clone());
        wanted
            .iter()
            .map(|bins| exes.by_ref().take(bins.len()).collect())
            .collect()
    }

    /// Builds `bin`'s executable from its profile's `program`: lays it out
    /// and, under the compiled backend, compiles the layout's trace,
    /// keeping only what the backend runs.
    fn build(&self, program: &Program, bin: Binary) -> Executable {
        let laid = compiler::compile_for(program, bin.geom, bin.strategy);
        match self.backend {
            ExecBackend::Interp => Executable::Laid(Arc::new(laid)),
            ExecBackend::Compiled => {
                self.compiled.fetch_add(1, Ordering::Relaxed);
                Executable::Traced(Arc::new(compile_trace(&laid)))
            }
        }
    }

    /// `profile`'s program, generated afresh and counted.
    fn generate(&self, profile: &BenchmarkProfile) -> Program {
        self.generated.fetch_add(1, Ordering::Relaxed);
        profile.generate()
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
        // Each compilation class's executable — Base's plain binary and
        // IA's instrumented one — was built once, both from one program
        // generated for the batch, and is a compiled trace under the
        // compiled backend.
        let s = engine.store_summary();
        assert_eq!(s.programs.cold, 1);
        let traced = engine.backend == ExecBackend::Compiled;
        assert_eq!(s.traces.cold, if traced { 2 } else { 0 });
    }

    #[test]
    fn a_compiled_engine_keeps_no_layout() {
        let engine = Engine::new();
        let scale = tiny();
        let keys = [StrategyKind::Base, StrategyKind::Ia]
            .map(|kind| RunKey::new("177.mesa", &scale, kind, AddressingMode::ViPt));
        let reports = engine.run_many(&keys);
        let walks = engine.walk_measurements(&["177.mesa"], &scale);
        // The engine keeps one executable per binary and no program: the
        // two binaries were built from one program, dropped once both
        // were built, and the walk generated its own, which it also lays
        // out. Under the compiled backend an executable is the trace, and
        // its layout was dropped too; under the interpreter it is the
        // layout.
        let traced = engine.backend == ExecBackend::Compiled;
        let memo = engine.exes.lock().unwrap();
        assert_eq!(memo.len(), 2, "one executable per binary");
        for cell in memo.values() {
            let exe = cell.get().expect("every executable is built");
            assert_eq!(matches!(exe, Executable::Traced(_)), traced);
        }
        drop(memo);
        let s = engine.store_summary();
        assert_eq!((s.programs.warm, s.programs.cold), (0, 2));
        let compiled = if traced { 2 } else { 0 };
        assert_eq!((s.traces.warm, s.traces.cold), (0, compiled));
        let program = cfr_workload::profiles::mesa().generate();
        for (key, report) in keys.iter().zip(&reports) {
            let cfg = key.config();
            let laid = compiler::compile_for(&program, cfg.cpu.geometry, key.strategy);
            let solo = Simulator::run_traced(&compile_trace(&laid), &cfg, key.strategy, key.mode);
            assert_eq!(**report, solo, "{key:?}");
        }
        let plain = compiler::compile_for(&program, PageGeometry::default_4k(), StrategyKind::Base);
        let walk = measure_walk(&plain, scale.max_commits, scale.seed);
        assert_eq!(walks, [walk]);
    }

    #[test]
    fn a_batch_generates_each_profile_once() {
        let engine = Engine::new();
        let scale = tiny();
        let keys: Vec<RunKey> = [4096, 8192]
            .into_iter()
            .flat_map(|bytes| {
                [StrategyKind::Base, StrategyKind::Ia].map(|kind| {
                    RunKey::new("177.mesa", &scale, kind, AddressingMode::ViPt)
                        .with_page_bytes(bytes)
                })
            })
            .collect();
        let _ = engine.run_many(&keys);
        // Two page sizes × both compilation classes: four binaries, all
        // built from one program.
        assert_eq!(engine.exes.lock().unwrap().len(), 4);
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
        let program = cfr_workload::profiles::gap().generate();
        for (key, report) in keys.iter().zip(&parallel) {
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
        let program = cfr_workload::profiles::mesa().generate();
        for (key, report) in keys.iter().zip(&reports) {
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
    fn runs_are_retained_until_the_budget_is_full() {
        let scale = tiny();
        let run = |kind| RunKey::new("177.mesa", &scale, kind, AddressingMode::ViPt);
        // Two pipelines, each run by Base and then by HoA, which replays
        // against Base's run when that run was retained.
        let (base, hoa) = (run(StrategyKind::Base), run(StrategyKind::HoA));
        let batches = [
            base,
            base.with_il1_bytes(4096),
            hoa,
            hoa.with_il1_bytes(4096),
        ];
        let unbounded = Engine::new();
        let first = unbounded.run(batches[0]);
        let one_log = unbounded.retained_logs();
        assert_eq!(one_log.logs, 1, "a lone simulated run is retained");
        let reports: Vec<_> = batches.iter().map(|&key| unbounded.run(key)).collect();
        assert!(Arc::ptr_eq(&first, &reports[0]));
        assert_eq!(unbounded.retained_logs().logs, 2);
        assert_eq!(unbounded.replayed_runs(), 2);

        // Room for the first run's log only: the second is refused, so
        // the second HoA run is simulated, and no run after it is kept.
        let engine = Engine::new();
        engine.logs.lock().unwrap().budget = one_log.bytes;
        for (&key, report) in batches.iter().zip(&reports) {
            assert_eq!(*engine.run(key), **report, "{key:?}");
        }
        assert_eq!(engine.retained_logs(), one_log);
        assert!(engine.logs.lock().unwrap().full);
        assert_eq!(engine.replayed_runs(), 1, "HoA replayed against Base only");
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
