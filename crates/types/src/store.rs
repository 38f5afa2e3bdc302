//! The sharded, packed, garbage-collected artifact store.
//!
//! PR 2's run store wrote **one file per key** — simple, but it scales to
//! thousands of records, never evicts, and only ever held pipeline
//! reports. This module replaces that layout with a generic, namespaced
//! artifact store the engine persists its results into: pipeline reports
//! (`runs`), functional walk measurements (`walks`) and multiprogrammed
//! scenario reports (`scenarios`). Typed codecs live with their types;
//! this store only moves opaque `(namespace, key) → value` record strings.
//!
//! # Layout
//!
//! The store directory holds a fixed number of **shard files**
//! (`shard-00.cfr` … `shard-15.cfr`; [`SHARD_COUNT`] total — O(shards)
//! files no matter how many records). A record's shard is the FNV-1a hash
//! of its `namespace + key` modulo [`SHARD_COUNT`]. Each shard file is an
//! append-only sequence of length-prefixed text records:
//!
//! ```text
//! rec <format-version> <namespace> <stamp> <key-bytes> <value-bytes>\n
//! <key>\n
//! <value>\n
//! ```
//!
//! `stamp` is the record's write time (Unix seconds) and drives age-based
//! GC; `<key>`/`<value>` are single-line record strings produced by the
//! `to_record` codecs. The **last** record for a `(namespace, key)` pair
//! in a shard wins; earlier ones are dead bytes until compaction.
//!
//! An in-memory index (`(namespace, key) → shard/offset/length`) is built
//! by scanning every shard once at open. Next to it the store holds one
//! open handle per shard, so a load is one positioned read of the record
//! and a save is one append through the same handle; a shard is opened by
//! path only to acquire that handle or to re-acquire it once the held
//! file is no longer the shard. That happens in two ways: this process's
//! GC renamed a compacted file over the shard (the handle is dropped
//! right there), or another process did, which leaves the held file with
//! no name (link count 0). The second is checked once per shard touched
//! by each `load`, `load_many` or `save` call, before the shard is read
//! or appended to, so a save never lands in an unlinked file.
//! [`ArtifactStore::load_many`] serves a whole batch under one
//! acquisition of the index lock.
//!
//! Loads verify the stored namespace, key and length byte-for-byte
//! before returning the value, so a stale index entry, hash collision, or
//! mid-compaction racing reader degrades to a **miss**, never a wrong
//! answer.
//!
//! # Garbage collection
//!
//! [`GcPolicy`] carries two knobs, read from the environment by
//! [`GcPolicy::from_env`]:
//!
//! - `CFR_STORE_MAX_BYTES` — total on-disk budget; when the shard files
//!   exceed it, live records are evicted **oldest first** (by stamp, then
//!   file order) until the live set fits.
//! - `CFR_STORE_MAX_AGE` — maximum record age in seconds; older records
//!   are evicted regardless of the byte budget.
//!
//! [`ArtifactStore::gc`] (run automatically at open and whenever a save
//! pushes the store over budget) drops dead and evicted records by
//! **compacting** each dirty shard: surviving record bytes are copied
//! verbatim into a temp file that is atomically renamed over the shard,
//! so post-compaction reads are byte-identical and a crashed compaction
//! leaves the old shard intact. Bytes another process appended past this
//! process's last-known shard size are copied through (and indexed) too,
//! so a compaction never erases appends it merely hadn't seen; only an
//! append racing the rewrite itself remains best-effort — which is the
//! window the store daemon (`cfr_types::net`) closes entirely by being
//! the directory's sole writer.
//!
//! # Robustness rules
//!
//! Inherited from PR 2 and still load-bearing:
//!
//! - **Appends are single `write` calls** on `O_APPEND` descriptors; a
//!   torn or interleaved append is skipped by the scanner's resync (it
//!   searches for the next `\nrec ` boundary) and costs one future
//!   recomputation, nothing else.
//! - **Every read failure is a miss** — absent, torn, stale-format,
//!   mismatched, or non-UTF-8 records all mean "recompute and overwrite".
//! - **Format versioning**: records framed with a different
//!   [`STORE_FORMAT_VERSION`] are dead on scan; bump it whenever the
//!   framing changes.

use std::collections::HashMap;
use std::ffi::OsString;
use std::fmt;
use std::fs::{self, OpenOptions};
use std::io::{self, Seek, Write};
use std::os::unix::fs::{FileExt, MetadataExt};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{SystemTime, UNIX_EPOCH};

use crate::record::fnv1a64;

/// Version of the shard-file record framing. Bumping it invalidates every
/// record (they read as dead and are recomputed).
pub const STORE_FORMAT_VERSION: u32 = 2;

/// Number of shard files per store. The directory holds O(`SHARD_COUNT`)
/// files regardless of how many records live in the store.
pub const SHARD_COUNT: u32 = 16;

/// Environment variable overriding the store directory.
pub const STORE_DIR_ENV: &str = "CFR_STORE_DIR";

/// Default store directory, relative to the working directory.
pub const DEFAULT_STORE_DIR: &str = "target/cfr-store";

/// The store directory the environment names: [`STORE_DIR_ENV`], or
/// [`DEFAULT_STORE_DIR`] when it is unset or blank.
#[must_use]
pub fn store_dir_from_env() -> PathBuf {
    dir_or_default(std::env::var_os(STORE_DIR_ENV))
}

/// A [`STORE_DIR_ENV`] value as a directory: unset or blank means
/// [`DEFAULT_STORE_DIR`].
fn dir_or_default(value: Option<OsString>) -> PathBuf {
    match value {
        Some(dir) if !dir.to_string_lossy().trim().is_empty() => PathBuf::from(dir),
        _ => PathBuf::from(DEFAULT_STORE_DIR),
    }
}

/// Environment variable capping the store's total on-disk bytes.
pub const STORE_MAX_BYTES_ENV: &str = "CFR_STORE_MAX_BYTES";

/// Environment variable capping record age, in seconds.
pub const STORE_MAX_AGE_ENV: &str = "CFR_STORE_MAX_AGE";

/// Environment variable selecting the shard-append durability policy:
/// `never` (default), `commit`, or `always` — see [`FsyncPolicy`].
pub const STORE_FSYNC_ENV: &str = "CFR_STORE_FSYNC";

/// Namespace holding pipeline run reports (`RunKey → RunReport`).
pub const NS_RUNS: &str = "runs";

/// Namespace holding functional walk measurements.
pub const NS_WALKS: &str = "walks";

/// Namespace that held generated benchmark programs. Nothing writes it
/// any more: the engine regenerates programs, which is cheaper than
/// storing them. It stays because stores written by older builds still
/// hold such records, which maintenance output counts and a GC cap ages
/// out, and because the repo benchmark's store probe names it.
pub const NS_PROGRAMS: &str = "programs";

/// Namespace that held pre-decoded compiled traces. Nothing writes it
/// any more, for the reasons [`NS_PROGRAMS`] gives.
pub const NS_TRACES: &str = "traces";

/// Namespace holding multiprogrammed scenario reports
/// (`ScenarioConfig → ScenarioReport`).
pub const NS_SCENARIOS: &str = "scenarios";

/// Every namespace the stack persists into, in the order maintenance
/// output lists them.
pub const NAMESPACES: [&str; 5] = [NS_RUNS, NS_WALKS, NS_PROGRAMS, NS_TRACES, NS_SCENARIOS];

/// Live-record counts per namespace, indexed like [`NAMESPACES`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NamespaceCounts(pub [u64; NAMESPACES.len()]);

impl NamespaceCounts {
    /// The count for `ns`; 0 for a namespace outside [`NAMESPACES`].
    #[must_use]
    pub fn get(&self, ns: &str) -> u64 {
        NAMESPACES
            .iter()
            .position(|n| *n == ns)
            .map_or(0, |i| self.0[i])
    }
}

/// `N runs / N walks / N programs / N traces / N scenarios`.
impl fmt::Display for NamespaceCounts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, (ns, count)) in NAMESPACES.iter().zip(self.0).enumerate() {
            if i > 0 {
                f.write_str(" / ")?;
            }
            write!(f, "{count} {ns}")?;
        }
        Ok(())
    }
}

fn now_secs() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_secs())
}

/// The namespaced `(namespace, key) → value` surface every persisted
/// layer (run reports, scenario reports, walk measurements) talks to.
///
/// Implemented by the on-disk [`ArtifactStore`], by the TCP
/// [`RemoteStore`](crate::net::RemoteStore) client, and by the
/// [`LayeredStore`](crate::net::LayeredStore) that stacks the two — so
/// the engine's one job pipeline selects local vs. remote storage
/// without any call-site changes.
///
/// The contract inherited from the store itself: **every failure is a
/// miss**. A `load` that cannot produce the exact bytes that were saved
/// (absent, torn, disconnected, stale) returns `None` and the caller
/// recomputes; a `save` is best-effort and never propagates an error.
pub trait StoreBackend: Send + Sync + std::fmt::Debug {
    /// Looks `(ns, key)` up; any failure is a miss (`None`).
    fn load(&self, ns: &str, key: &str) -> Option<String>;

    /// Persists `(ns, key) → value`, best-effort.
    fn save(&self, ns: &str, key: &str, value: &str);

    /// Looks a whole batch of `(ns, key)` pairs up; one `Option` per
    /// pair, in order. Networked backends serve the whole batch in one
    /// round trip (`MGET`), the on-disk store under one index lock; the
    /// default delegates to [`Self::load`] one by one, so every backend
    /// supports the batched surface.
    fn load_many(&self, items: &[(String, String)]) -> Vec<Option<String>> {
        items.iter().map(|(ns, key)| self.load(ns, key)).collect()
    }

    /// Persists a whole batch of `(ns, key, value)` records,
    /// best-effort; delegates to [`Self::save`] one by one.
    fn save_many(&self, items: &[(String, String, String)]) {
        for (ns, key, value) in items {
            self.save(ns, key, value);
        }
    }

    /// Asks for the exclusive right to compute a missing `(ns, key)`.
    /// Only backends with a global coordinator (the store daemon)
    /// implement this; the default is [`ClaimOutcome::Unsupported`],
    /// which callers treat exactly like `Granted` minus the dedup — they
    /// compute locally, preserving every-failure-is-a-miss.
    fn claim(&self, _ns: &str, _key: &str, _lease: std::time::Duration) -> ClaimOutcome {
        ClaimOutcome::Unsupported
    }

    /// Parks until another client publishes `(ns, key)`, its claim
    /// lapses, or `timeout` elapses; `None` means "compute it yourself".
    /// Meaningful only after a [`ClaimOutcome::Busy`]; the default never
    /// waits.
    fn wait_for(&self, _ns: &str, _key: &str, _timeout: std::time::Duration) -> Option<String> {
        None
    }

    /// Best-effort writes that failed (diagnostics only).
    fn write_errors(&self) -> u64;

    /// Live records in one namespace, as far as this backend can tell
    /// (diagnostics/tests; a remote backend asks the daemon).
    fn namespace_records(&self, ns: &str) -> usize;

    /// Human-readable identity for the `store:` summary line — a
    /// directory path, a `tcp://` address, or both.
    fn describe(&self) -> String;
}

/// What a [`StoreBackend::claim`] returned.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ClaimOutcome {
    /// The value is already stored — no computation needed.
    Hit(String),
    /// The exclusive compute right is this client's for the lease:
    /// compute, then `save` (which publishes to any waiters).
    Granted,
    /// Another live client holds the claim: `wait_for` the value
    /// instead of duplicating the computation.
    Busy,
    /// This backend has no claim coordination (local store, or a daemon
    /// that errored or is unreachable): compute locally.
    Unsupported,
}

impl StoreBackend for ArtifactStore {
    fn load(&self, ns: &str, key: &str) -> Option<String> {
        ArtifactStore::load(self, ns, key)
    }

    fn save(&self, ns: &str, key: &str, value: &str) {
        ArtifactStore::save(self, ns, key, value);
    }

    fn load_many(&self, items: &[(String, String)]) -> Vec<Option<String>> {
        ArtifactStore::load_many(self, items)
    }

    fn write_errors(&self) -> u64 {
        ArtifactStore::write_errors(self)
    }

    fn namespace_records(&self, ns: &str) -> usize {
        ArtifactStore::namespace_records(self, ns)
    }

    fn describe(&self) -> String {
        self.dir().display().to_string()
    }
}

/// Size/age bounds a store enforces at GC time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GcPolicy {
    /// Total on-disk byte budget across all shard files (`None` =
    /// unbounded).
    pub max_bytes: Option<u64>,
    /// Maximum record age in seconds (`None` = records never expire).
    pub max_age_secs: Option<u64>,
}

impl GcPolicy {
    /// No bounds: records live until explicitly compacted away.
    #[must_use]
    pub fn unbounded() -> Self {
        Self::default()
    }

    /// Reads [`STORE_MAX_BYTES_ENV`] and [`STORE_MAX_AGE_ENV`];
    /// unset or unparsable values mean unbounded.
    #[must_use]
    pub fn from_env() -> Self {
        let parse = |name: &str| {
            std::env::var(name)
                .ok()
                .and_then(|v| v.trim().parse::<u64>().ok())
        };
        Self {
            max_bytes: parse(STORE_MAX_BYTES_ENV),
            max_age_secs: parse(STORE_MAX_AGE_ENV),
        }
    }

    /// Whether either bound is set.
    #[must_use]
    pub fn bounded(&self) -> bool {
        self.max_bytes.is_some() || self.max_age_secs.is_some()
    }
}

/// Where one live record sits on disk.
#[derive(Clone, Copy, Debug)]
struct Slot {
    shard: u32,
    offset: u64,
    bytes: u64,
    stamp: u64,
}

#[derive(Debug)]
struct Index {
    map: HashMap<(String, String), Slot>,
    /// Physical size of each shard file as last observed by this process.
    file_bytes: Vec<u64>,
    /// Shards whose scanned tail was not a complete record (a torn write
    /// from a crashed process). Appending directly after such a tail
    /// would fuse the new record onto the garbage (`...tornrec ...` has
    /// no `\nrec ` boundary to resync to), so the next append to a dirty
    /// shard is prefixed with a newline guard.
    dirty_tail: Vec<bool>,
    /// This process's read + append handle on each shard file; `None`
    /// until first use and after this process's GC replaced the file.
    handles: Vec<Option<fs::File>>,
}

impl Index {
    fn new() -> Self {
        Self {
            map: HashMap::new(),
            file_bytes: vec![0; SHARD_COUNT as usize],
            dirty_tail: vec![false; SHARD_COUNT as usize],
            handles: (0..SHARD_COUNT).map(|_| None).collect(),
        }
    }

    fn live_bytes(&self) -> u64 {
        self.map.values().map(|s| s.bytes).sum()
    }

    fn total_file_bytes(&self) -> u64 {
        self.file_bytes.iter().sum()
    }
}

/// The shards whose held handle one `load`, `load_many`, `save` or
/// `verify_records` call has already validated: each shard's file is
/// checked for replacement once per call, not once per record.
#[derive(Default)]
struct ShardsChecked([bool; SHARD_COUNT as usize]);

/// One record parsed out of a shard byte buffer.
struct ParsedRecord<'a> {
    ns: &'a str,
    stamp: u64,
    key: &'a str,
    value: &'a str,
    /// Total framed length (header line + key line + value line).
    bytes: u64,
}

/// Parses the record starting at `pos`, or `None` if the bytes there are
/// not one complete, current-version, UTF-8 record.
fn parse_record_at(data: &[u8], pos: usize) -> Option<ParsedRecord<'_>> {
    let rest = data.get(pos..)?;
    if !rest.starts_with(b"rec ") {
        return None;
    }
    let nl = rest.iter().position(|&b| b == b'\n')?;
    let header = core::str::from_utf8(&rest[..nl]).ok()?;
    let mut t = header.split_ascii_whitespace();
    if t.next()? != "rec" || t.next()?.parse::<u32>().ok()? != STORE_FORMAT_VERSION {
        return None;
    }
    let ns = t.next()?;
    let stamp = t.next()?.parse::<u64>().ok()?;
    let klen: usize = t.next()?.parse().ok()?;
    let vlen: usize = t.next()?.parse().ok()?;
    if t.next().is_some() {
        return None;
    }
    let key_start = nl + 1;
    let key_end = key_start.checked_add(klen)?;
    let val_start = key_end.checked_add(1)?;
    let val_end = val_start.checked_add(vlen)?;
    // Fully checked arithmetic: a corrupt length header (e.g. lengths
    // summing near usize::MAX) must be a miss, never an overflow panic.
    let total = val_end.checked_add(1)?;
    if total > rest.len() || rest[key_end] != b'\n' || rest[val_end] != b'\n' {
        return None;
    }
    Some(ParsedRecord {
        ns,
        stamp,
        key: core::str::from_utf8(&rest[key_start..key_end]).ok()?,
        value: core::str::from_utf8(&rest[val_start..val_end]).ok()?,
        bytes: total as u64,
    })
}

/// Reads the record `slot` points at with one positioned read, verifying
/// the stored namespace, key and length byte-for-byte against the
/// request, so stale offsets and collisions degrade to misses instead of
/// serving a wrong value.
fn read_slot(file: &fs::File, ns: &str, key: &str, slot: Slot) -> Option<String> {
    let mut buf = vec![0u8; usize::try_from(slot.bytes).ok()?];
    file.read_exact_at(&mut buf, slot.offset).ok()?;
    let rec = parse_record_at(&buf, 0)?;
    (rec.bytes == slot.bytes && rec.ns == ns && rec.key == key).then(|| rec.value.to_string())
}

fn find_subsequence(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack
        .windows(needle.len())
        .position(|window| window == needle)
}

/// Per-shard occupancy figures (diagnostics / `store_gc`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardOccupancy {
    /// Shard number.
    pub shard: u32,
    /// Physical file size in bytes.
    pub file_bytes: u64,
    /// Live (latest-per-key) records in this shard.
    pub live_records: u64,
    /// Bytes those live records occupy.
    pub live_bytes: u64,
}

/// What one [`ArtifactStore::gc`] pass did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Live records after the pass.
    pub live_records: u64,
    /// Bytes those records occupy (equals the shard files' total size
    /// after a clean pass).
    pub live_bytes: u64,
    /// Dead (superseded or unparseable) bytes dropped by compaction.
    pub dead_bytes_dropped: u64,
    /// Records evicted because they exceeded `max_age_secs`.
    pub evicted_age: u64,
    /// Records evicted (oldest first) to fit under `max_bytes`.
    pub evicted_size: u64,
    /// Shard files rewritten.
    pub shards_rewritten: u32,
}

/// When shard appends are flushed to stable storage.
///
/// The store's crash-safety story does not *depend* on fsync — a torn
/// tail is resynced past at the next open and the record recomputed —
/// so the default trades durability of the last few appends for append
/// throughput. The daemon raises the bar for shared stores.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Never fsync; the OS flushes when it pleases. A machine crash can
    /// tear the last appends (recovered as misses at next open).
    #[default]
    Never,
    /// Fsync before compaction renames — appends still ride the OS
    /// cache.
    Commit,
    /// Fsync after every append. Maximum durability, slowest saves.
    Always,
}

impl FsyncPolicy {
    /// Reads [`STORE_FSYNC_ENV`]; unset or unrecognized means `Never`.
    #[must_use]
    pub fn from_env() -> Self {
        match std::env::var(STORE_FSYNC_ENV).as_deref().map(str::trim) {
            Ok("commit") => Self::Commit,
            Ok("always") => Self::Always,
            _ => Self::Never,
        }
    }
}

/// A sharded, packed, garbage-collected `(namespace, key) → value` store
/// of record strings, shared by every process on the machine.
#[derive(Debug)]
pub struct ArtifactStore {
    dir: PathBuf,
    policy: GcPolicy,
    fsync: FsyncPolicy,
    index: Mutex<Index>,
    write_errors: AtomicU64,
    evicted: AtomicU64,
    tmp_counter: AtomicU64,
}

/// Name of the advisory lock file a serving daemon holds exclusively
/// inside its store directory.
pub const LOCK_FILE_NAME: &str = "daemon.lock";

/// The exclusive advisory lock a store-serving daemon holds on its
/// directory (see [`ArtifactStore::open_exclusive`]). Dropping it
/// releases the lock.
#[derive(Debug)]
pub struct StoreLock {
    _file: fs::File,
}

/// The error returned when a store directory is held by a daemon.
fn daemon_locked_error(dir: &Path) -> io::Error {
    io::Error::new(
        io::ErrorKind::WouldBlock,
        format!(
            "store directory {} is exclusively locked by a cfr-store-serve daemon; \
             go through it by setting {} (or stop the daemon first)",
            dir.display(),
            crate::net::STORE_ADDR_ENV,
        ),
    )
}

/// Opens (creating if missing) the directory's lock file.
fn open_lock_file(dir: &Path) -> io::Result<fs::File> {
    OpenOptions::new()
        .create(true)
        .read(true)
        .write(true)
        .truncate(false)
        .open(dir.join(LOCK_FILE_NAME))
}

impl ArtifactStore {
    /// Opens (creating if needed) a store rooted at `dir`, applying
    /// `policy`'s bounds once.
    ///
    /// # Errors
    ///
    /// Errors if the directory cannot be created, or if a
    /// `cfr-store-serve` daemon holds the directory's exclusive lock —
    /// the daemon must be the sole shard owner for its compaction to be
    /// loss-free, so local opens are refused while it runs (clients go
    /// through `$CFR_STORE_ADDR` instead). Unreadable shard files are
    /// not errors — they read as empty/cold.
    pub fn open(dir: impl Into<PathBuf>, policy: GcPolicy) -> io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        // Probe the daemon lock without holding it: a held probe would
        // in turn refuse the daemon.
        let probe = open_lock_file(&dir)?;
        match probe.try_lock() {
            Ok(()) => drop(probe), // releases the probe lock
            Err(fs::TryLockError::WouldBlock) => return Err(daemon_locked_error(&dir)),
            Err(fs::TryLockError::Error(e)) => return Err(e),
        }
        Ok(Self::open_scanned(dir, policy))
    }

    /// Opens the store while taking the directory's **exclusive advisory
    /// lock** — the daemon entry point. Concurrent [`ArtifactStore::open`]
    /// calls (and other daemons) are refused for as long as the returned
    /// [`StoreLock`] lives.
    ///
    /// # Errors
    ///
    /// Errors if the directory cannot be created or another process
    /// already holds the lock.
    pub fn open_exclusive(
        dir: impl Into<PathBuf>,
        policy: GcPolicy,
    ) -> io::Result<(Self, StoreLock)> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let file = open_lock_file(&dir)?;
        match file.try_lock() {
            Ok(()) => {}
            Err(fs::TryLockError::WouldBlock) => return Err(daemon_locked_error(&dir)),
            Err(fs::TryLockError::Error(e)) => return Err(e),
        }
        let store = Self::open_scanned(dir, policy);
        Ok((store, StoreLock { _file: file }))
    }

    fn open_scanned(dir: PathBuf, policy: GcPolicy) -> Self {
        let mut index = Index::new();
        for shard in 0..SHARD_COUNT {
            scan_shard(&dir, shard, &mut index);
        }
        let store = Self {
            dir,
            policy,
            fsync: FsyncPolicy::from_env(),
            index: Mutex::new(index),
            write_errors: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
            tmp_counter: AtomicU64::new(0),
        };
        if store.policy.bounded() {
            let _ = store.gc();
        }
        store
    }

    /// Opens the machine-shared default store: `$CFR_STORE_DIR` if set
    /// and not blank, else [`DEFAULT_STORE_DIR`], with the environment's
    /// GC policy.
    ///
    /// # Errors
    ///
    /// Errors if the directory cannot be created.
    pub fn open_default() -> io::Result<Self> {
        Self::open(store_dir_from_env(), GcPolicy::from_env())
    }

    /// The store's root directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The GC bounds this store enforces.
    #[must_use]
    pub fn policy(&self) -> GcPolicy {
        self.policy
    }

    /// Overrides the environment's [`FsyncPolicy`] — for daemons and
    /// tests that pick durability explicitly instead of mutating the
    /// process environment.
    #[must_use]
    pub fn with_fsync(mut self, policy: FsyncPolicy) -> Self {
        self.fsync = policy;
        self
    }

    /// The durability policy shard appends run under.
    #[must_use]
    pub fn fsync_policy(&self) -> FsyncPolicy {
        self.fsync
    }

    /// Best-effort writes that failed (diagnostics only; a failed write
    /// costs a future process one recomputation, nothing else).
    #[must_use]
    pub fn write_errors(&self) -> u64 {
        self.write_errors.load(Ordering::Relaxed)
    }

    /// Records evicted by GC over this store's lifetime.
    #[must_use]
    pub fn evicted_records(&self) -> u64 {
        self.evicted.load(Ordering::Relaxed)
    }

    fn shard_of(&self, ns: &str, key: &str) -> u32 {
        // '\n' can never appear inside a record string, so it is a safe
        // separator: ("a", "bc") and ("ab", "c") hash differently.
        (fnv1a64(&format!("{ns}\n{key}")) % u64::from(SHARD_COUNT)) as u32
    }

    fn shard_path(&self, shard: u32) -> PathBuf {
        self.dir.join(format!("shard-{shard:02}.cfr"))
    }

    /// Looks `(ns, key)` up. Any failure — absent, torn, compacted away
    /// underneath us, colliding bytes — is a miss (`None`); the caller
    /// recomputes and overwrites.
    ///
    /// The index lock is held across the file read, so loads serialize
    /// with this process's saves and GC passes: a load can never observe
    /// a compaction mid-rewrite. That linearizability is what lets the
    /// store daemon (the sole shard owner) promise read-your-writes and
    /// loss-free compaction to its clients; only an *external* process
    /// rewriting the shards (no daemon, multi-process mode) can still
    /// produce the stale-read miss the verification below degrades.
    #[must_use]
    pub fn load(&self, ns: &str, key: &str) -> Option<String> {
        let mut index = self.index.lock().expect("store index poisoned");
        self.load_locked(&mut index, &mut ShardsChecked::default(), ns, key)
    }

    /// [`ArtifactStore::load`] for a whole batch of `(ns, key)` pairs:
    /// one `Option` per pair, in order, under one acquisition of the
    /// index lock, checking each touched shard's handle once.
    #[must_use]
    pub fn load_many(&self, items: &[(String, String)]) -> Vec<Option<String>> {
        let mut index = self.index.lock().expect("store index poisoned");
        let mut checked = ShardsChecked::default();
        items
            .iter()
            .map(|(ns, key)| self.load_locked(&mut index, &mut checked, ns, key))
            .collect()
    }

    fn load_locked(
        &self,
        index: &mut Index,
        checked: &mut ShardsChecked,
        ns: &str,
        key: &str,
    ) -> Option<String> {
        let map_key = (ns.to_string(), key.to_string());
        let slot = index.map.get(&map_key).copied()?;
        let value = self
            .checked_handle(&mut index.handles, checked, slot.shard)
            .and_then(|file| read_slot(file, ns, key, slot));
        if value.is_none() {
            // The shard changed underneath the index (another process
            // compacted it). Drop the stale entry so a later save can
            // repair it.
            index.map.remove(&map_key);
        }
        value
    }

    /// The held handle a read of `shard` goes through, validated at most
    /// once per call (see [`ShardsChecked`]); `None` if the shard file
    /// cannot be opened, which includes not existing.
    fn checked_handle<'a>(
        &self,
        handles: &'a mut [Option<fs::File>],
        checked: &mut ShardsChecked,
        shard: u32,
    ) -> Option<&'a fs::File> {
        let held = &mut handles[shard as usize];
        if std::mem::replace(&mut checked.0[shard as usize], true) {
            held.as_ref()
        } else {
            self.shard_handle(held, shard, false).ok()
        }
    }

    /// `held` if it still names `shard`'s file, else a handle opened by
    /// path in its place. Another process's compaction renames a new file
    /// over the shard, leaving the held one with no name (link count 0):
    /// reading it would serve superseded bytes, appending to it would
    /// lose the record. Only a save (`create`) makes a missing shard file.
    fn shard_handle<'a>(
        &self,
        held: &'a mut Option<fs::File>,
        shard: u32,
        create: bool,
    ) -> io::Result<&'a fs::File> {
        if held
            .as_ref()
            .is_some_and(|f| !f.metadata().is_ok_and(|m| m.nlink() > 0))
        {
            *held = None;
        }
        match held {
            Some(file) => Ok(file),
            None => {
                let file = OpenOptions::new()
                    .read(true)
                    .append(true)
                    .create(create)
                    .open(self.shard_path(shard))?;
                Ok(held.insert(file))
            }
        }
    }

    /// Persists `(ns, key) → value`, stamped with the current time.
    /// Best-effort: an I/O failure is counted (see
    /// [`ArtifactStore::write_errors`]) but never propagated.
    pub fn save(&self, ns: &str, key: &str, value: &str) {
        self.save_stamped(ns, key, value, now_secs());
    }

    /// [`ArtifactStore::save`] with an explicit stamp — used by GC
    /// tests/tooling.
    ///
    /// # Panics
    ///
    /// Panics if `ns` is not a single whitespace-free token or if `key`
    /// or `value` contain a newline (the framing's record separator).
    pub fn save_stamped(&self, ns: &str, key: &str, value: &str, stamp: u64) {
        assert!(
            !ns.is_empty() && !ns.contains(char::is_whitespace),
            "namespace must be one token: {ns:?}"
        );
        assert!(
            !key.contains('\n') && !value.contains('\n') && !key.is_empty(),
            "keys and values are single-line record strings"
        );
        if self.try_save(ns, key, value, stamp).is_err() {
            self.write_errors.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn try_save(&self, ns: &str, key: &str, value: &str, stamp: u64) -> io::Result<()> {
        // The record is framed behind one spare newline: a shard whose
        // scanned tail was torn gets it as a guard in front of the
        // record, restoring the `\nrec ` boundary scanners resync to (the
        // guard byte is dead and compacts away later); any other shard
        // gets the record alone.
        let framed = format!(
            "\nrec {STORE_FORMAT_VERSION} {ns} {stamp} {} {}\n{key}\n{value}\n",
            key.len(),
            value.len(),
        );
        let record_bytes = framed.len() as u64 - 1;
        let shard = self.shard_of(ns, key);
        let mut index = self.index.lock().expect("store index poisoned");
        let buf = if index.dirty_tail[shard as usize] {
            &framed[..]
        } else {
            &framed[1..]
        };
        let mut f = self.shard_handle(&mut index.handles[shard as usize], shard, true)?;
        // One write call: concurrent appenders from other processes can
        // only interleave whole records (and a torn tail is resynced past
        // by the scanner).
        f.write_all(buf.as_bytes())?;
        if self.fsync == FsyncPolicy::Always {
            f.sync_all()?;
        }
        let end = f.stream_position()?;
        index.file_bytes[shard as usize] = end;
        index.dirty_tail[shard as usize] = false;
        index.map.insert(
            (ns.to_string(), key.to_string()),
            Slot {
                shard,
                offset: end - record_bytes,
                bytes: record_bytes,
                stamp,
            },
        );
        if let Some(cap) = self.policy.max_bytes {
            if index.total_file_bytes() > cap {
                self.gc_locked(&mut index, self.policy);
            }
        }
        Ok(())
    }

    /// Applies the GC policy and compacts: drops dead bytes, evicts
    /// expired records, then evicts oldest-first until the live set fits
    /// the byte budget. Dirty shards are rewritten via atomic rename;
    /// surviving records keep their exact bytes.
    pub fn gc(&self) -> GcReport {
        self.gc_with(self.policy)
    }

    /// [`ArtifactStore::gc`] under an explicit policy, independent of the
    /// one the store was opened with. This is how the store daemon moves
    /// GC **off the save path**: it opens the store unbounded (so saves
    /// never compact inline) and applies the real age/size policy from a
    /// background thread and the `GC` protocol command.
    pub fn gc_with(&self, policy: GcPolicy) -> GcReport {
        let mut index = self.index.lock().expect("store index poisoned");
        self.gc_locked(&mut index, policy)
    }

    #[allow(clippy::cast_possible_truncation)]
    fn gc_locked(&self, index: &mut Index, policy: GcPolicy) -> GcReport {
        let now = now_secs();
        let mut report = GcReport::default();

        // Age eviction.
        if let Some(age) = policy.max_age_secs {
            let expired: Vec<(String, String)> = index
                .map
                .iter()
                .filter(|(_, s)| s.stamp.saturating_add(age) < now)
                .map(|(k, _)| k.clone())
                .collect();
            report.evicted_age = expired.len() as u64;
            for k in expired {
                index.map.remove(&k);
            }
        }

        // Size eviction: oldest first (stamp, then shard file order).
        if let Some(cap) = policy.max_bytes {
            let mut live = index.live_bytes();
            if live > cap {
                let mut order: Vec<((String, String), Slot)> =
                    index.map.iter().map(|(k, s)| (k.clone(), *s)).collect();
                order.sort_by_key(|(_, s)| (s.stamp, s.shard, s.offset));
                for (k, s) in order {
                    if live <= cap {
                        break;
                    }
                    live -= s.bytes;
                    index.map.remove(&k);
                    report.evicted_size += 1;
                }
            }
        }

        // Compact every shard whose file holds more than its live bytes.
        for shard in 0..SHARD_COUNT {
            let mut survivors: Vec<((String, String), Slot)> = index
                .map
                .iter()
                .filter(|(_, s)| s.shard == shard)
                .map(|(k, s)| (k.clone(), *s))
                .collect();
            survivors.sort_by_key(|(_, s)| s.offset);
            let live_bytes: u64 = survivors.iter().map(|(_, s)| s.bytes).sum();
            let file_bytes = index.file_bytes[shard as usize];
            if live_bytes == file_bytes {
                continue;
            }
            report.dead_bytes_dropped += file_bytes.saturating_sub(live_bytes);
            let path = self.shard_path(shard);
            let data = fs::read(&path).unwrap_or_default();
            let mut out = Vec::with_capacity(live_bytes as usize);
            let mut moved = Vec::with_capacity(survivors.len());
            for (k, s) in survivors {
                let start = s.offset as usize;
                let end = start + s.bytes as usize;
                // Copy the surviving record bytes *verbatim*, so a
                // post-compaction read is byte-identical to the original.
                if end <= data.len() {
                    let new_offset = out.len() as u64;
                    out.extend_from_slice(&data[start..end]);
                    moved.push((
                        k,
                        Slot {
                            shard,
                            offset: new_offset,
                            bytes: s.bytes,
                            stamp: s.stamp,
                        },
                    ));
                } else {
                    // The file shrank underneath us (external change):
                    // the record is lost; drop it from the index.
                    index.map.remove(&k);
                }
            }
            // Bytes beyond our last-known size were appended by another
            // process (a degraded-mode daemon client, or a non-daemon
            // binary sharing the directory) after we last looked. They
            // are not ours to drop: copy them verbatim after the
            // survivors and index whatever parses, so one process's
            // compaction never erases another's fresh appends. (An
            // append landing *during* the read-rename window below is
            // still best-effort, as before — the daemon's value is that
            // nothing else writes while it owns the directory.)
            let mut foreign_tail_torn = false;
            if data.len() as u64 > file_bytes {
                let tail_start = out.len();
                out.extend_from_slice(&data[file_bytes as usize..]);
                let mut pos = tail_start;
                while pos < out.len() {
                    if let Some(rec) = parse_record_at(&out, pos) {
                        moved.push((
                            (rec.ns.to_string(), rec.key.to_string()),
                            Slot {
                                shard,
                                offset: pos as u64,
                                bytes: rec.bytes,
                                stamp: rec.stamp,
                            },
                        ));
                        pos += rec.bytes as usize;
                    } else {
                        match find_subsequence(&out[pos + 1..], b"\nrec ") {
                            Some(i) => pos = pos + 1 + i + 1,
                            None => {
                                foreign_tail_torn = true;
                                break;
                            }
                        }
                    }
                }
            }
            let tmp = self.dir.join(format!(
                "shard-{shard:02}.tmp.{}.{}",
                std::process::id(),
                self.tmp_counter.fetch_add(1, Ordering::Relaxed),
            ));
            // Under a durability policy the tmp file is synced *before*
            // the rename, so a crash right after the rename can never
            // leave a shard pointing at unflushed data.
            let written = fs::write(&tmp, &out)
                .and_then(|()| {
                    if self.fsync == FsyncPolicy::Never {
                        Ok(())
                    } else {
                        fs::File::open(&tmp).and_then(|f| f.sync_all())
                    }
                })
                .and_then(|()| fs::rename(&tmp, &path));
            if written.is_err() {
                let _ = fs::remove_file(&tmp);
                self.write_errors.fetch_add(1, Ordering::Relaxed);
                continue; // old shard file intact; index offsets still valid
            }
            // The held handle names the file the rename just unlinked.
            index.handles[shard as usize] = None;
            for (k, s) in moved {
                index.map.insert(k, s);
            }
            index.file_bytes[shard as usize] = out.len() as u64;
            index.dirty_tail[shard as usize] = foreign_tail_torn;
            report.shards_rewritten += 1;
        }

        report.live_records = index.map.len() as u64;
        report.live_bytes = index.live_bytes();
        self.evicted
            .fetch_add(report.evicted_age + report.evicted_size, Ordering::Relaxed);
        report
    }

    /// Live (latest-per-key) records across all namespaces.
    #[must_use]
    pub fn live_records(&self) -> usize {
        self.index.lock().expect("store index poisoned").map.len()
    }

    /// Live records in one namespace.
    #[must_use]
    pub fn namespace_records(&self, ns: &str) -> usize {
        self.index
            .lock()
            .expect("store index poisoned")
            .map
            .keys()
            .filter(|(n, _)| n == ns)
            .count()
    }

    /// Live records in every namespace of [`NAMESPACES`], in one pass.
    #[must_use]
    pub fn namespace_counts(&self) -> NamespaceCounts {
        let mut counts = NamespaceCounts::default();
        for (ns, _) in self.index.lock().expect("store index poisoned").map.keys() {
            if let Some(i) = NAMESPACES.iter().position(|n| n == ns) {
                counts.0[i] += 1;
            }
        }
        counts
    }

    /// Bytes the live records occupy.
    #[must_use]
    pub fn live_bytes(&self) -> u64 {
        self.index
            .lock()
            .expect("store index poisoned")
            .live_bytes()
    }

    /// Total physical size of the shard files (live + dead bytes).
    #[must_use]
    pub fn file_bytes(&self) -> u64 {
        self.index
            .lock()
            .expect("store index poisoned")
            .total_file_bytes()
    }

    /// Fsyncs every shard file, unconditionally — the drain path's last
    /// act before the daemon releases its lock, regardless of policy.
    /// Best-effort: a shard that cannot be opened or synced is skipped
    /// (its tail recovers as a miss, like any torn write).
    pub fn sync_shards(&self) {
        let mut index = self.index.lock().expect("store index poisoned");
        for (shard, held) in (0..SHARD_COUNT).zip(&mut index.handles) {
            if let Ok(f) = self.shard_handle(held, shard, false) {
                let _ = f.sync_all();
            }
        }
    }

    /// Re-reads every indexed record from disk and verifies it
    /// byte-for-byte (namespace, key, framing), returning
    /// `(readable, corrupt)` counts. The chaos soak's recovery proof:
    /// after an adversarial run plus a fresh open (whose scan resyncs
    /// past torn tails), `corrupt` must be zero — every record that
    /// *survived* is exactly what was written.
    #[must_use]
    pub fn verify_records(&self) -> (u64, u64) {
        let mut guard = self.index.lock().expect("store index poisoned");
        let index = &mut *guard;
        let mut checked = ShardsChecked::default();
        let mut readable = 0;
        let mut corrupt = 0;
        for ((ns, key), slot) in &index.map {
            let file = self.checked_handle(&mut index.handles, &mut checked, slot.shard);
            if file.and_then(|f| read_slot(f, ns, key, *slot)).is_some() {
                readable += 1;
            } else {
                corrupt += 1;
            }
        }
        (readable, corrupt)
    }

    /// Per-shard occupancy, in shard order.
    #[must_use]
    pub fn shard_occupancy(&self) -> Vec<ShardOccupancy> {
        let index = self.index.lock().expect("store index poisoned");
        let mut out: Vec<ShardOccupancy> = (0..SHARD_COUNT)
            .map(|shard| ShardOccupancy {
                shard,
                file_bytes: index.file_bytes[shard as usize],
                live_records: 0,
                live_bytes: 0,
            })
            .collect();
        for slot in index.map.values() {
            let o = &mut out[slot.shard as usize];
            o.live_records += 1;
            o.live_bytes += slot.bytes;
        }
        out
    }
}

fn scan_shard(dir: &Path, shard: u32, index: &mut Index) {
    let path = dir.join(format!("shard-{shard:02}.cfr"));
    let Ok(data) = fs::read(&path) else {
        index.file_bytes[shard as usize] = 0;
        return;
    };
    index.file_bytes[shard as usize] = data.len() as u64;
    let mut pos = 0usize;
    while pos < data.len() {
        if let Some(rec) = parse_record_at(&data, pos) {
            // Later records win: append order is write order.
            index.map.insert(
                (rec.ns.to_string(), rec.key.to_string()),
                Slot {
                    shard,
                    offset: pos as u64,
                    bytes: rec.bytes,
                    stamp: rec.stamp,
                },
            );
            pos += rec.bytes as usize;
        } else {
            // Corrupt or foreign bytes: resync to the next plausible
            // record boundary; everything skipped is dead.
            match find_subsequence(&data[pos + 1..], b"\nrec ") {
                Some(i) => pos = pos + 1 + i + 1,
                None => {
                    // The tail is garbage: the next append must restore
                    // the record boundary with a newline guard.
                    index.dirty_tail[shard as usize] = true;
                    break;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_blank_store_dir_means_the_default() {
        let default = PathBuf::from(DEFAULT_STORE_DIR);
        for blank in [None, Some(""), Some("   "), Some("\t\n")] {
            assert_eq!(dir_or_default(blank.map(OsString::from)), default);
        }
        let dir = dir_or_default(Some(OsString::from("store-ci")));
        assert_eq!(dir, PathBuf::from("store-ci"));
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("cfr-artifact-unit-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn open(dir: &Path) -> ArtifactStore {
        ArtifactStore::open(dir, GcPolicy::unbounded()).unwrap()
    }

    #[test]
    fn exclusive_lock_refuses_concurrent_opens() {
        let dir = temp_dir("lock");
        let (store, lock) = ArtifactStore::open_exclusive(&dir, GcPolicy::unbounded()).unwrap();
        store.save("runs", "k", "v 1");
        // While the daemon holds the lock, a local open is refused with
        // an error that names the daemon and the way around it.
        let err = ArtifactStore::open(&dir, GcPolicy::unbounded()).unwrap_err();
        assert!(err.to_string().contains("cfr-store-serve"), "{err}");
        assert!(
            err.to_string().contains(crate::net::STORE_ADDR_ENV),
            "{err}"
        );
        // A second daemon over the same directory is refused too.
        assert!(ArtifactStore::open_exclusive(&dir, GcPolicy::unbounded()).is_err());
        drop(lock);
        // Releasing the lock re-admits local opens, data intact.
        let reopened = ArtifactStore::open(&dir, GcPolicy::unbounded()).unwrap();
        assert_eq!(reopened.load("runs", "k").as_deref(), Some("v 1"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn plain_opens_do_not_exclude_each_other() {
        // The probe must not leave the lock held: two sequential opens
        // and a daemon start after a plain open all succeed.
        let dir = temp_dir("lock-probe");
        let a = ArtifactStore::open(&dir, GcPolicy::unbounded()).unwrap();
        a.save("runs", "k", "v 1");
        let b = ArtifactStore::open(&dir, GcPolicy::unbounded()).unwrap();
        assert_eq!(b.load("runs", "k").as_deref(), Some("v 1"));
        let daemon = ArtifactStore::open_exclusive(&dir, GcPolicy::unbounded());
        assert!(daemon.is_ok(), "probe must release the advisory lock");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn save_then_load_round_trips() {
        let dir = temp_dir("roundtrip");
        let store = open(&dir);
        assert_eq!(store.load("runs", "key a"), None, "cold store");
        store.save("runs", "key a", "value 1 2 3");
        assert_eq!(store.load("runs", "key a").as_deref(), Some("value 1 2 3"));
        // A second store over the same directory (= a fresh process)
        // rebuilds the index from the shard files.
        let other = open(&dir);
        assert_eq!(other.load("runs", "key a").as_deref(), Some("value 1 2 3"));
        assert_eq!(other.live_records(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn namespaces_are_disjoint() {
        let dir = temp_dir("namespaces");
        let store = open(&dir);
        store.save("runs", "shared-key", "a run");
        store.save("walks", "shared-key", "a walk");
        assert_eq!(store.load("runs", "shared-key").as_deref(), Some("a run"));
        assert_eq!(store.load("walks", "shared-key").as_deref(), Some("a walk"));
        assert_eq!(store.load("programs", "shared-key"), None);
        assert_eq!(store.namespace_records("runs"), 1);
        assert_eq!(store.namespace_records("walks"), 1);
        assert_eq!(store.namespace_records("programs"), 0);
        store.save(NS_SCENARIOS, "k", "a scenario");
        store.save("elsewhere", "k", "outside NAMESPACES");
        let counts = store.namespace_counts();
        assert_eq!(counts, NamespaceCounts([1, 1, 0, 0, 1]));
        assert_eq!(counts.get(NS_SCENARIOS), 1);
        assert_eq!(counts.get("elsewhere"), 0);
        assert_eq!(
            counts.to_string(),
            "1 runs / 1 walks / 0 programs / 0 traces / 1 scenarios"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn last_write_wins_and_leaves_dead_bytes() {
        let dir = temp_dir("lastwins");
        let store = open(&dir);
        store.save("runs", "k", "old");
        store.save("runs", "k", "new");
        assert_eq!(store.load("runs", "k").as_deref(), Some("new"));
        assert_eq!(store.live_records(), 1);
        assert!(
            store.file_bytes() > store.live_bytes(),
            "old record is dead"
        );
        // A rescan agrees.
        let other = open(&dir);
        assert_eq!(other.load("runs", "k").as_deref(), Some("new"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn directory_holds_o_shards_files() {
        let dir = temp_dir("files");
        let store = open(&dir);
        for i in 0..200 {
            store.save("runs", &format!("key-{i}"), "v");
        }
        let files = fs::read_dir(&dir)
            .unwrap()
            .filter_map(Result::ok)
            .filter(|e| e.file_name() != LOCK_FILE_NAME)
            .count();
        assert!(
            files <= SHARD_COUNT as usize,
            "200 records must not mean 200 files: {files}"
        );
        assert_eq!(store.live_records(), 200);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_tail_and_garbage_resync() {
        let dir = temp_dir("resync");
        let store = open(&dir);
        store.save("runs", "a", "first");
        // Append garbage (a torn write from a crashed process), then a
        // valid record after it via a fresh handle.
        let shard = store.shard_path(store.shard_of("runs", "a"));
        let mut f = OpenOptions::new().append(true).open(&shard).unwrap();
        f.write_all(b"rec 2 runs 0 999 999\ntorn").unwrap();
        drop(f);
        let second = open(&dir);
        assert_eq!(
            second.load("runs", "a").as_deref(),
            Some("first"),
            "record before the tear survives"
        );
        second.save("runs", "b", "after");
        let third = open(&dir);
        assert_eq!(third.load("runs", "b").as_deref(), Some("after"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn append_after_torn_tail_restores_the_record_boundary() {
        let dir = temp_dir("dirtytail");
        let store = open(&dir);
        store.save("runs", "k", "v1");
        // A crashed writer left a torn tail with no trailing newline.
        let shard = store.shard_path(store.shard_of("runs", "k"));
        let mut f = OpenOptions::new().append(true).open(&shard).unwrap();
        f.write_all(b"complete garbage with no newline").unwrap();
        drop(f);
        // A fresh handle saves the same key — which appends to the *same*
        // shard, right after the garbage. Without the newline guard the
        // new record would fuse onto the tail and be unrecoverable.
        let second = open(&dir);
        assert_eq!(second.load("runs", "k").as_deref(), Some("v1"));
        second.save("runs", "k", "v2");
        assert_eq!(second.load("runs", "k").as_deref(), Some("v2"));
        let third = open(&dir);
        assert_eq!(third.load("runs", "k").as_deref(), Some("v2"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn absurd_length_headers_are_misses_not_panics() {
        // A corrupt length header whose spans land exactly on usize::MAX
        // must fail the checked bounds (a miss), not overflow-panic the
        // scanner. Solve for vlen so that val_end == usize::MAX.
        let dir = temp_dir("absurd");
        let store = open(&dir);
        store.save("runs", "k", "v");
        let shard = store.shard_path(store.shard_of("runs", "k"));
        let mut vlen = usize::MAX - 40;
        for _ in 0..4 {
            let prefix = format!("rec {STORE_FORMAT_VERSION} runs 0 1 {vlen}\n");
            vlen = usize::MAX - prefix.len() - 2;
        }
        fs::write(
            &shard,
            format!("rec {STORE_FORMAT_VERSION} runs 0 1 {vlen}\nK\n"),
        )
        .unwrap();
        let reopened = open(&dir); // the scan must survive
        assert_eq!(reopened.load("runs", "k"), None, "corrupt header = miss");
        reopened.save("runs", "k", "repaired");
        assert_eq!(reopened.load("runs", "k").as_deref(), Some("repaired"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn wrong_format_version_is_dead() {
        let dir = temp_dir("version");
        let store = open(&dir);
        store.save("runs", "k", "v");
        let shard = store.shard_path(store.shard_of("runs", "k"));
        let text = fs::read_to_string(&shard).unwrap();
        let stale = text.replacen(
            &format!("rec {STORE_FORMAT_VERSION} "),
            &format!("rec {} ", STORE_FORMAT_VERSION + 1),
            1,
        );
        assert_ne!(stale, text);
        fs::write(&shard, stale).unwrap();
        let reader = open(&dir);
        assert_eq!(reader.load("runs", "k"), None, "future format is a miss");
        let _ = fs::remove_dir_all(&dir);
    }

    /// `a` indexes two records; a second handle then supersedes one and
    /// compacts the store underneath `a`, shifting the other's offset.
    /// `a`'s index predates both the new record and the compaction, so
    /// its loads must miss, never return garbage or superseded bytes.
    /// With `reader_loaded_first`, `a` has already read both records
    /// through the shard handles it holds on the pre-compaction files.
    fn stale_reader_case(tag: &str, reader_loaded_first: bool) {
        let dir = temp_dir(tag);
        let a = open(&dir);
        a.save("runs", "k1", "value one with some length");
        a.save("runs", "k2", "value two");
        if reader_loaded_first {
            assert_eq!(
                a.load("runs", "k1").as_deref(),
                Some("value one with some length")
            );
            assert_eq!(a.load("runs", "k2").as_deref(), Some("value two"));
        }
        let b = open(&dir);
        b.save("runs", "k1", "replacement");
        let report = b.gc();
        assert!(report.dead_bytes_dropped > 0);
        for key in ["k1", "k2"] {
            let got = a.load("runs", key);
            assert!(
                got.is_none() || got.as_deref() == Some("value two"),
                "stale read must be a miss or the true record: {got:?}"
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_index_offset_degrades_to_a_miss() {
        stale_reader_case("stale", false);
    }

    #[test]
    fn held_handle_on_a_compacted_shard_degrades_to_a_miss() {
        stale_reader_case("stale-held", true);
    }

    #[test]
    fn save_after_another_instances_compaction_reaches_the_live_file() {
        // `a` holds its handle on the shard; `b` then compacts that shard,
        // renaming a new file over it. `a`'s next save must land in the
        // new file, not in the unlinked one it still holds.
        let dir = temp_dir("save-after-gc");
        let a = open(&dir);
        a.save("runs", "k", "v1");
        let b = open(&dir);
        b.save("runs", "k", "v2");
        assert!(b.gc().shards_rewritten > 0);
        a.save("runs", "k", "v3");
        assert_eq!(a.load("runs", "k").as_deref(), Some("v3"));
        assert_eq!(open(&dir).load("runs", "k").as_deref(), Some("v3"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_deleted_shard_reads_as_a_miss_and_a_read_does_not_recreate_it() {
        let dir = temp_dir("deleted");
        let store = open(&dir);
        store.save("runs", "k", "v1");
        assert_eq!(store.load("runs", "k").as_deref(), Some("v1"));
        let shard = store.shard_path(store.shard_of("runs", "k"));
        fs::remove_file(&shard).unwrap();
        assert_eq!(store.load("runs", "k"), None, "the held file is gone");
        assert!(!shard.exists(), "a read never creates a shard file");
        store.save("runs", "k", "v2");
        assert_eq!(open(&dir).load("runs", "k").as_deref(), Some("v2"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_drops_dead_bytes_and_keeps_exact_values() {
        let dir = temp_dir("compact");
        let store = open(&dir);
        for i in 0..20 {
            store.save("runs", "hot", &format!("version {i}"));
        }
        store.save("walks", "cool", "unchanged 0x3fb999999999999a");
        let before = store.file_bytes();
        let report = store.gc();
        assert!(report.dead_bytes_dropped > 0);
        assert!(store.file_bytes() < before);
        assert_eq!(store.file_bytes(), store.live_bytes());
        assert_eq!(store.load("runs", "hot").as_deref(), Some("version 19"));
        assert_eq!(
            store.load("walks", "cool").as_deref(),
            Some("unchanged 0x3fb999999999999a"),
            "post-compaction reads are byte-identical"
        );
        // A fresh scan of the compacted files agrees.
        let other = open(&dir);
        assert_eq!(other.load("runs", "hot").as_deref(), Some("version 19"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_preserves_another_processes_fresh_appends() {
        // The loss mode carried since PR 3: process A compacts a shard
        // while process B's append (which A's index has never seen) sits
        // at its tail — A's rewrite used to truncate B's record. The
        // tail must survive the compaction verbatim and become visible
        // to A immediately.
        let dir = temp_dir("foreign");
        let a = open(&dir);
        a.save("runs", "mine", "v1");
        a.save("runs", "mine", "v2"); // dead bytes so the shard compacts
        let shard = a.shard_of("runs", "mine");
        let foreign_key = (0..)
            .map(|i| format!("foreign-{i}"))
            .find(|k| a.shard_of("runs", k) == shard)
            .expect("some key shares the shard");
        // "Process B": a fresh handle appends after A last looked.
        let b = open(&dir);
        b.save("runs", &foreign_key, "foreign value");
        let report = a.gc();
        assert!(report.dead_bytes_dropped > 0, "the v1 record was dead");
        assert_eq!(a.load("runs", "mine").as_deref(), Some("v2"));
        assert_eq!(
            a.load("runs", &foreign_key).as_deref(),
            Some("foreign value"),
            "B's fresh append survives A's compaction and is indexed"
        );
        // A fresh scan of the rewritten shard agrees byte-for-byte.
        let c = open(&dir);
        assert_eq!(c.load("runs", "mine").as_deref(), Some("v2"));
        assert_eq!(
            c.load("runs", &foreign_key).as_deref(),
            Some("foreign value")
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn size_cap_evicts_oldest_first() {
        let dir = temp_dir("evict");
        let payload = "x".repeat(200);
        let store = ArtifactStore::open(
            &dir,
            GcPolicy {
                max_bytes: Some(3000),
                max_age_secs: None,
            },
        )
        .unwrap();
        for i in 0..30u64 {
            store.save_stamped("runs", &format!("key-{i:02}"), &payload, 1000 + i);
        }
        assert!(
            store.file_bytes() <= 3000,
            "auto-GC keeps the store under budget: {}",
            store.file_bytes()
        );
        assert!(store.evicted_records() > 0);
        // The survivors are exactly the newest records: a contiguous
        // suffix of the insertion order.
        let alive: Vec<bool> = (0..30u64)
            .map(|i| store.load("runs", &format!("key-{i:02}")).is_some())
            .collect();
        let first_alive = alive.iter().position(|a| *a).expect("someone survives");
        assert!(first_alive > 0, "the oldest record must be evicted");
        assert!(
            alive[first_alive..].iter().all(|a| *a),
            "eviction is oldest-first: {alive:?}"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn age_cap_expires_old_records() {
        let dir = temp_dir("age");
        let store = ArtifactStore::open(
            &dir,
            GcPolicy {
                max_bytes: None,
                max_age_secs: Some(3600),
            },
        )
        .unwrap();
        store.save_stamped("runs", "ancient", "v", 12); // 1970
        store.save("runs", "fresh", "v");
        let report = store.gc();
        assert_eq!(report.evicted_age, 1);
        assert_eq!(store.load("runs", "ancient"), None);
        assert_eq!(store.load("runs", "fresh").as_deref(), Some("v"));
        // Open applies the policy too.
        let reopened = ArtifactStore::open(
            &dir,
            GcPolicy {
                max_bytes: None,
                max_age_secs: Some(3600),
            },
        )
        .unwrap();
        assert_eq!(reopened.load("runs", "fresh").as_deref(), Some("v"));
        assert_eq!(reopened.live_records(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn shard_addressing_is_stable() {
        let dir = temp_dir("addressing");
        let store = open(&dir);
        let a = store.shard_of("runs", "some key");
        assert_eq!(store.shard_of("runs", "some key"), a, "deterministic");
        assert!(a < SHARD_COUNT);
        // Namespace participates in the address.
        let spread: std::collections::HashSet<u32> = (0..64)
            .map(|i| store.shard_of("runs", &format!("key-{i}")))
            .collect();
        assert!(spread.len() > 4, "keys spread across shards: {spread:?}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn occupancy_accounts_every_live_record() {
        let dir = temp_dir("occupancy");
        let store = open(&dir);
        for i in 0..50 {
            store.save("runs", &format!("k{i}"), "v");
        }
        let occ = store.shard_occupancy();
        assert_eq!(occ.len(), SHARD_COUNT as usize);
        assert_eq!(occ.iter().map(|o| o.live_records).sum::<u64>(), 50);
        assert_eq!(
            occ.iter().map(|o| o.live_bytes).sum::<u64>(),
            store.live_bytes()
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_with_applies_an_external_policy() {
        // A store opened *unbounded* (the daemon's configuration: saves
        // never compact inline) still enforces an explicit policy when
        // told to — the background-GC path.
        let dir = temp_dir("gcwith");
        let store = open(&dir);
        store.save_stamped("runs", "ancient", "v", 12);
        store.save("runs", "fresh", "v");
        let report = store.gc_with(GcPolicy {
            max_bytes: None,
            max_age_secs: Some(3600),
        });
        assert_eq!(report.evicted_age, 1);
        assert_eq!(store.load("runs", "ancient"), None);
        assert_eq!(store.load("runs", "fresh").as_deref(), Some("v"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn artifact_store_implements_the_backend_trait() {
        let dir = temp_dir("backend");
        let store = open(&dir);
        let backend: &dyn StoreBackend = &store;
        assert_eq!(backend.load("runs", "k"), None);
        backend.save("runs", "k", "v");
        assert_eq!(backend.load("runs", "k").as_deref(), Some("v"));
        let probes = [
            ("runs".into(), "k".into()),
            ("runs".into(), "absent".into()),
        ];
        assert_eq!(backend.load_many(&probes), vec![Some("v".into()), None]);
        assert_eq!(backend.namespace_records("runs"), 1);
        assert_eq!(backend.write_errors(), 0);
        assert_eq!(backend.describe(), dir.display().to_string());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn policy_from_env_shapes() {
        // Only shape-checks the parser (the env itself is shared state we
        // must not mutate in a parallel test run).
        let p = GcPolicy::unbounded();
        assert!(!p.bounded());
        let q = GcPolicy {
            max_bytes: Some(1),
            max_age_secs: None,
        };
        assert!(q.bounded());
    }

    #[test]
    fn fsync_policies_preserve_record_contents() {
        // Every policy must produce byte-identical records and survive
        // the drain-sync entry point.
        for (tag, policy) in [
            ("fs-never", FsyncPolicy::Never),
            ("fs-commit", FsyncPolicy::Commit),
            ("fs-always", FsyncPolicy::Always),
        ] {
            let dir = temp_dir(tag);
            let store = open(&dir).with_fsync(policy);
            assert_eq!(store.fsync_policy(), policy);
            store.save("runs", "k", "v 1");
            store.save("walks", "k2", "v 2");
            store.sync_shards();
            assert_eq!(store.load("runs", "k").as_deref(), Some("v 1"));
            assert_eq!(store.load("walks", "k2").as_deref(), Some("v 2"));
            let _ = fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn verify_records_counts_live_and_corrupt() {
        let dir = temp_dir("verify");
        let store = open(&dir);
        for i in 0..20 {
            store.save("runs", &format!("k{i}"), &format!("value {i}"));
        }
        assert_eq!(store.verify_records(), (20, 0));
        // Truncate one shard mid-record behind the index's back: the
        // damaged record now fails byte-for-byte verification.
        let occupied: Vec<u32> = store
            .shard_occupancy()
            .into_iter()
            .filter(|o| o.live_records > 0)
            .map(|o| o.shard)
            .collect();
        let victim = dir.join(format!("shard-{:02}.cfr", occupied[0]));
        let bytes = fs::read(&victim).unwrap();
        fs::write(&victim, &bytes[..bytes.len() - 3]).unwrap();
        let (readable, corrupt) = store.verify_records();
        assert!(corrupt >= 1, "truncation must surface as corruption");
        assert_eq!(readable + corrupt, 20);
        let _ = fs::remove_dir_all(&dir);
    }
}
