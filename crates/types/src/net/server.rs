//! The store daemon: one blocking thread per connection.
//!
//! One acceptor thread starts a thread for each accepted connection.
//! That thread reads a frame, serves it and writes the reply, so replies
//! keep request order. Clients send each batch as one frame (`MGET`), so
//! the daemon has read a whole request before it writes the reply, and a
//! reply never waits on a client that is still writing. A parked `WAIT`
//! blocks only its own connection's thread. One housekeeping thread
//! sweeps lapsed claim leases and runs the background GC.

use std::collections::HashMap;
use std::io::{self, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use crate::store::{ArtifactStore, GcPolicy, SHARD_COUNT};

use super::frame::FrameReader;
use super::proto::{HealthReport, Request, Response, StoreStats};

/// Longest lease/park a client may ask for; larger requests clamp here
/// so one bad client cannot park resources for hours.
const MAX_LEASE: Duration = Duration::from_secs(600);

/// Longest housekeeping tick: the upper bound on how late a lapsed
/// claim lease frees its waiters.
const HOUSEKEEPING_TICK: Duration = Duration::from_millis(100);

/// How long a drain waits for connections to answer what they already
/// received before it cuts off those still blocked writing to a peer
/// that will not read. Responsive clients drain at once.
const DRAIN_GRACE: Duration = Duration::from_secs(2);

/// How the daemon runs its store.
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    /// Age/size policy applied by the housekeeping thread's GC and the
    /// `GC` command — **not** by saves (the daemon's store is opened
    /// unbounded, which is what moves GC off the save path).
    pub gc_policy: GcPolicy,
    /// Background GC cadence (`None` = only on explicit `GC` commands).
    pub gc_interval: Option<Duration>,
    /// Ignored: the daemon runs one thread per connection. The field
    /// stays until the repo benchmark, which still sets it, next changes.
    pub workers: usize,
    /// Socket read and write timeout. A connection stalled mid-frame, or
    /// not reading its replies, longer than this is closed. Idle
    /// connections at a frame boundary are never timed out. Must be
    /// positive.
    pub read_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            gc_policy: GcPolicy::unbounded(),
            gc_interval: Some(Duration::from_secs(60)),
            workers: 4,
            read_timeout: Duration::from_secs(10),
        }
    }
}

// ---------------------------------------------------------------------------
// Service counters
// ---------------------------------------------------------------------------

#[derive(Debug, Default)]
struct ServerCounters {
    active_connections: AtomicU64,
    batched_keys: AtomicU64,
    max_batch: AtomicU64,
    claims_granted: AtomicU64,
    claims_expired: AtomicU64,
}

impl ServerCounters {
    fn note_batch(&self, keys: usize) {
        self.batched_keys.fetch_add(keys as u64, Ordering::Relaxed);
        self.max_batch.fetch_max(keys as u64, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------------
// Claims
// ---------------------------------------------------------------------------

/// Where a parked `WAIT` learns its reply: `hit` when the value is
/// published, `miss` when the claim lapses or is released unpublished,
/// `err` when the daemon drains.
#[derive(Debug, Default)]
struct WaitCell {
    outcome: Mutex<Option<Response>>,
    resolved: Condvar,
}

impl WaitCell {
    fn resolve(&self, outcome: Response) {
        let mut slot = self.outcome.lock().unwrap_or_else(PoisonError::into_inner);
        if slot.is_none() {
            *slot = Some(outcome);
            self.resolved.notify_all();
        }
    }

    /// Blocks until the cell resolves; `miss` once `timeout` passes.
    fn wait(&self, timeout: Duration) -> Response {
        let slot = self.outcome.lock().unwrap_or_else(PoisonError::into_inner);
        let (slot, _) = self
            .resolved
            .wait_timeout_while(slot, timeout, |slot| slot.is_none())
            .unwrap_or_else(PoisonError::into_inner);
        slot.clone().unwrap_or(Response::Miss)
    }
}

fn draining_error() -> Response {
    Response::Error {
        message: "daemon draining".to_string(),
    }
}

#[derive(Debug)]
struct ClaimEntry {
    owner: u64,
    deadline: Instant,
    waiters: Vec<Arc<WaitCell>>,
}

impl ClaimEntry {
    /// Resolves every waiter with its own `outcome()`: a published value
    /// is copied per waiter, not once per claim.
    fn resolve_waiters(&mut self, outcome: impl Fn() -> Response) {
        for w in self.waiters.drain(..) {
            w.resolve(outcome());
        }
    }
}

/// The daemon-global claim table: `(ns, key) → exclusive computer`.
/// Lifted from the engine's in-process in-flight map so N *processes*
/// racing one cold key simulate it once globally.
#[derive(Debug, Default)]
struct ClaimTable {
    state: Mutex<ClaimState>,
}

#[derive(Debug, Default)]
struct ClaimState {
    entries: HashMap<(String, String), ClaimEntry>,
    /// Set by the drain, which failed every parked waiter: no `WAIT`
    /// parks after it.
    closed: bool,
}

impl ClaimTable {
    fn lock(&self) -> MutexGuard<'_, ClaimState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Serves a `CLAIM`: hit if published, granted if the claim is now
    /// (or already was) `owner`'s, busy if another live claim holds it.
    /// An expired claim is taken over — its waiters degrade to `miss`.
    fn claim(
        &self,
        store: &ArtifactStore,
        counters: &ServerCounters,
        ns: &str,
        key: &str,
        owner: u64,
        lease: Duration,
    ) -> Response {
        if let Some(value) = store.load(ns, key) {
            return Response::Hit { value };
        }
        let now = Instant::now();
        let mut state = self.lock();
        match state.entries.get_mut(&(ns.to_string(), key.to_string())) {
            Some(entry) if entry.owner == owner => {
                entry.deadline = now + lease; // re-claim extends the lease
                Response::Granted
            }
            Some(entry) if entry.deadline > now => Response::Busy,
            Some(entry) => {
                // Expired: the holder died or stalled. Its waiters
                // compute locally; the key changes hands.
                counters.claims_expired.fetch_add(1, Ordering::Relaxed);
                entry.resolve_waiters(|| Response::Miss);
                entry.owner = owner;
                entry.deadline = now + lease;
                counters.claims_granted.fetch_add(1, Ordering::Relaxed);
                Response::Granted
            }
            None => {
                state.entries.insert(
                    (ns.to_string(), key.to_string()),
                    ClaimEntry {
                        owner,
                        deadline: now + lease,
                        waiters: Vec::new(),
                    },
                );
                counters.claims_granted.fetch_add(1, Ordering::Relaxed);
                Response::Granted
            }
        }
    }

    /// Serves a `WAIT`: immediate hit if published, immediate miss if no
    /// live claim is active (nothing to wait for — compute), else parks
    /// the calling thread until the cell resolves or `timeout` passes.
    fn wait(
        &self,
        store: &ArtifactStore,
        counters: &ServerCounters,
        ns: &str,
        key: &str,
        timeout: Duration,
    ) -> Response {
        if let Some(value) = store.load(ns, key) {
            return Response::Hit { value };
        }
        let now = Instant::now();
        let cell = {
            let mut state = self.lock();
            if state.closed {
                return draining_error();
            }
            let slot = (ns.to_string(), key.to_string());
            match state.entries.get_mut(&slot) {
                None => return Response::Miss,
                Some(entry) if entry.deadline <= now => {
                    counters.claims_expired.fetch_add(1, Ordering::Relaxed);
                    entry.resolve_waiters(|| Response::Miss);
                    state.entries.remove(&slot);
                    return Response::Miss;
                }
                Some(entry) => {
                    let cell = Arc::new(WaitCell::default());
                    entry.waiters.push(Arc::clone(&cell));
                    cell
                }
            }
        };
        cell.wait(timeout)
    }

    /// A value landed: the claim (if any) is fulfilled, every waiter
    /// gets the value.
    fn publish(&self, ns: &str, key: &str, value: &str) {
        let mut state = self.lock();
        if let Some(mut entry) = state.entries.remove(&(ns.to_string(), key.to_string())) {
            entry.resolve_waiters(|| Response::Hit {
                value: value.to_string(),
            });
        }
    }

    /// Drops every claim `lapsed` selects: counted as expired, its
    /// waiters degrade to `miss` and compute locally.
    fn expire(&self, counters: &ServerCounters, lapsed: impl Fn(&ClaimEntry) -> bool) {
        self.lock().entries.retain(|_, entry| {
            if !lapsed(entry) {
                return true;
            }
            counters.claims_expired.fetch_add(1, Ordering::Relaxed);
            entry.resolve_waiters(|| Response::Miss);
            false
        });
    }

    /// A connection ended: its unpublished claims are released so other
    /// clients stop waiting and compute locally.
    fn release_owner(&self, counters: &ServerCounters, owner: u64) {
        self.expire(counters, |entry| entry.owner == owner);
    }

    /// Expiry for claims nobody touches: the housekeeping tick runs it,
    /// so a dead holder's lease lapses even under zero traffic.
    fn sweep(&self, counters: &ServerCounters) {
        let now = Instant::now();
        self.expire(counters, |entry| entry.deadline <= now);
    }

    /// The drain: fails every parked waiter with `err` and refuses new
    /// parks.
    fn close(&self) {
        let mut state = self.lock();
        state.closed = true;
        for entry in state.entries.values_mut() {
            entry.resolve_waiters(draining_error);
        }
    }
}

// ---------------------------------------------------------------------------
// The server
// ---------------------------------------------------------------------------

/// The store daemon: exclusively owns an [`ArtifactStore`] and serves it
/// over TCP, one thread per connection. See the module docs for the
/// protocol; see `cfr-store-serve` for the CLI wrapper.
#[derive(Debug)]
pub struct StoreServer {
    accept: Option<JoinHandle<()>>,
    housekeeping: Option<JoinHandle<()>>,
    shared: Arc<Shared>,
}

struct Shared {
    store: Arc<ArtifactStore>,
    config: ServerConfig,
    /// Set once, under the `conns` lock, when the drain begins: stop
    /// accepting, answer what is already received, fail parked waiters
    /// with `err`, close.
    draining: AtomicBool,
    started: Instant,
    counters: ServerCounters,
    claims: ClaimTable,
    server_addr: SocketAddr,
    /// Claim owner id of the next connection.
    next_owner: AtomicU64,
    conns: Mutex<Connections>,
    /// Signalled whenever a connection thread exits.
    conn_exited: Condvar,
}

impl Shared {
    /// Every lock in the daemon guards data that each update leaves
    /// valid (a map entry added or removed, a slot set once), so a lock
    /// poisoned by a panicking connection thread is recovered: the
    /// teardown, which also runs in `Drop`, must not panic.
    fn conns(&self) -> MutexGuard<'_, Connections> {
        self.conns.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The live connections and the threads serving them.
#[derive(Default)]
struct Connections {
    /// A handle on each live connection's socket, by owner id, so the
    /// drain can shut it down under its thread.
    live: HashMap<u64, TcpStream>,
    threads: Vec<JoinHandle<()>>,
}

/// Flips the daemon into drain mode (idempotent): fails every parked
/// waiter, shuts the read half of every live connection — its thread
/// answers the frames it already received, then sees EOF — and
/// unblocks the acceptor.
fn begin_drain(shared: &Shared) {
    let conns = shared.conns();
    if shared.draining.swap(true, Ordering::SeqCst) {
        return;
    }
    shared.claims.close();
    for stream in conns.live.values() {
        let _ = stream.shutdown(Shutdown::Read);
    }
    drop(conns);
    let _ = TcpStream::connect(shared.server_addr); // unblock accept()
}

impl StoreServer {
    /// Binds `addr` (use port `0` for an ephemeral port; read the real
    /// one back from [`StoreServer::addr`]) and starts serving `store`:
    /// one acceptor thread, one housekeeping thread, and one thread per
    /// connection.
    ///
    /// # Errors
    ///
    /// `InvalidInput` if `config.read_timeout` is zero (sockets cannot
    /// take it), or the error binding the listener.
    pub fn bind(store: Arc<ArtifactStore>, addr: &str, config: ServerConfig) -> io::Result<Self> {
        if config.read_timeout.is_zero() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "the daemon's read timeout must be positive",
            ));
        }
        let listener = TcpListener::bind(addr)?;
        let shared = Arc::new(Shared {
            store,
            config,
            draining: AtomicBool::new(false),
            started: Instant::now(),
            counters: ServerCounters::default(),
            claims: ClaimTable::default(),
            server_addr: listener.local_addr()?,
            next_owner: AtomicU64::new(1),
            conns: Mutex::new(Connections::default()),
            conn_exited: Condvar::new(),
        });
        let accept = {
            let shared = Arc::clone(&shared);
            thread::spawn(move || accept_loop(&shared, &listener))
        };
        let housekeeping = {
            let shared = Arc::clone(&shared);
            thread::spawn(move || housekeeping(&shared))
        };
        Ok(Self {
            accept: Some(accept),
            housekeeping: Some(housekeeping),
            shared,
        })
    }

    /// The address the daemon is actually listening on.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.shared.server_addr
    }

    /// The store this daemon owns.
    #[must_use]
    pub fn store(&self) -> &Arc<ArtifactStore> {
        &self.shared.store
    }

    /// Blocks until a client sends `SHUTDOWN`, then tears down cleanly.
    pub fn wait(mut self) {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        self.stop();
    }

    /// Stops the daemon from this process — via the same graceful drain
    /// the `SHUTDOWN` verb takes: stop accepting, answer in-flight
    /// frames, fail parked waiters with `err`, then tear down. After
    /// this returns no thread serves the store — a client's next request
    /// definitively fails (and degrades to a miss on its side).
    pub fn shutdown(mut self) {
        self.stop();
    }

    /// Begins draining without blocking: the acceptor stops, connections
    /// answer what is in flight and parked waiters fail fast. Call
    /// [`StoreServer::shutdown`] (or drop) to join the teardown.
    pub fn drain(&self) {
        begin_drain(&self.shared);
    }

    /// Whether the daemon is draining (or already stopped).
    #[must_use]
    pub fn draining(&self) -> bool {
        self.shared.draining.load(Ordering::SeqCst)
    }

    fn stop(&mut self) {
        begin_drain(&self.shared);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        let (mut conns, _) = self
            .shared
            .conn_exited
            .wait_timeout_while(self.shared.conns(), DRAIN_GRACE, |c| !c.live.is_empty())
            .unwrap_or_else(PoisonError::into_inner);
        // Past the grace: whoever is left is blocked writing to a peer
        // that will not read.
        for stream in conns.live.values() {
            let _ = stream.shutdown(Shutdown::Both);
        }
        let threads = std::mem::take(&mut conns.threads);
        drop(conns);
        for conn in threads {
            let _ = conn.join();
        }
        if let Some(housekeeping) = self.housekeeping.take() {
            housekeeping.thread().unpark();
            let _ = housekeeping.join();
        }
    }
}

impl Drop for StoreServer {
    fn drop(&mut self) {
        self.stop();
    }
}

impl std::fmt::Debug for Shared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shared")
            .field("server_addr", &self.server_addr)
            .finish_non_exhaustive()
    }
}

fn accept_loop(shared: &Arc<Shared>, listener: &TcpListener) {
    loop {
        let accepted = listener.accept();
        if shared.draining.load(Ordering::SeqCst) {
            return; // the drain's wake-up connection, or a racer
        }
        match accepted {
            Ok((stream, _)) => adopt(shared, stream),
            // Transient accept error — e.g. EMFILE, which returns
            // immediately and repeatedly. Throttle instead of spinning
            // a core.
            Err(_) => thread::sleep(Duration::from_millis(20)),
        }
    }
}

/// Starts the thread serving `stream`, unless the daemon is draining.
/// That check runs under the lock the drain takes, so no connection
/// escapes the drain.
fn adopt(shared: &Arc<Shared>, stream: TcpStream) {
    let timeout = Some(shared.config.read_timeout);
    if stream.set_read_timeout(timeout).is_err() || stream.set_write_timeout(timeout).is_err() {
        return;
    }
    let _ = stream.set_nodelay(true);
    let Ok(handle) = stream.try_clone() else {
        return;
    };
    let owner = shared.next_owner.fetch_add(1, Ordering::Relaxed);
    let mut conns = shared.conns();
    if shared.draining.load(Ordering::SeqCst) {
        return; // dropping the stream closes it
    }
    // A long run opens thousands of short connections one after
    // another: join the threads that already finished.
    let (finished, running): (Vec<_>, Vec<_>) = std::mem::take(&mut conns.threads)
        .into_iter()
        .partition(JoinHandle::is_finished);
    conns.threads = running;
    for conn in finished {
        let _ = conn.join();
    }
    // A failed spawn drops the stream with its closure: the peer sees EOF.
    let worker = Arc::clone(shared);
    if let Ok(thread) =
        thread::Builder::new().spawn(move || serve_connection(&worker, stream, owner))
    {
        conns.live.insert(owner, handle);
        conns.threads.push(thread);
        shared
            .counters
            .active_connections
            .fetch_add(1, Ordering::Relaxed);
    }
}

/// The housekeeping thread: every tick (the shorter of
/// [`HOUSEKEEPING_TICK`] and the GC interval) it sweeps lapsed claims,
/// and every GC interval it runs GC, until the drain begins.
fn housekeeping(shared: &Shared) {
    let interval = shared.config.gc_interval;
    let tick = interval.map_or(HOUSEKEEPING_TICK, |i| i.min(HOUSEKEEPING_TICK));
    let mut last_gc = Instant::now();
    while !shared.draining.load(Ordering::SeqCst) {
        thread::park_timeout(tick);
        shared.claims.sweep(&shared.counters);
        if interval.is_some_and(|i| last_gc.elapsed() >= i) {
            let _ = shared.store.gc_with(shared.config.gc_policy);
            last_gc = Instant::now();
        }
    }
}

fn stats_of(shared: &Shared) -> StoreStats {
    let store = &shared.store;
    let c = &shared.counters;
    StoreStats {
        live_records: store.live_records() as u64,
        live_bytes: store.live_bytes(),
        file_bytes: store.file_bytes(),
        namespaces: store.namespace_counts(),
        active_connections: c.active_connections.load(Ordering::Relaxed),
        batched_keys: c.batched_keys.load(Ordering::Relaxed),
        max_batch: c.max_batch.load(Ordering::Relaxed),
        claims_granted: c.claims_granted.load(Ordering::Relaxed),
        claims_expired: c.claims_expired.load(Ordering::Relaxed),
    }
}

fn health_of(shared: &Shared) -> HealthReport {
    let store = &shared.store;
    let shards_occupied = store
        .shard_occupancy()
        .iter()
        .filter(|o| o.live_records > 0)
        .count();
    HealthReport {
        uptime_secs: shared.started.elapsed().as_secs(),
        draining: shared.draining.load(Ordering::SeqCst),
        shards_occupied: u32::try_from(shards_occupied).unwrap_or(SHARD_COUNT),
        shard_count: SHARD_COUNT,
        live_records: store.live_records() as u64,
        file_bytes: store.file_bytes(),
    }
}

/// Serves one decoded request for the connection whose claims `owner`
/// identifies. A `WAIT` blocks here while it is parked. `SHUTDOWN` is
/// acknowledged; the caller begins the drain.
fn serve(shared: &Shared, owner: u64, req: Request) -> Response {
    match req {
        Request::Put { ns, key, value } => {
            // Request decoding enforced the store's input shapes, so
            // this cannot trip the store's assertions.
            shared.store.save(&ns, &key, &value);
            shared.claims.publish(&ns, &key, &value);
            Response::Done
        }
        Request::MGet { items } => {
            shared.counters.note_batch(items.len());
            Response::MGot {
                values: shared.store.load_many(&items),
            }
        }
        Request::Claim { ns, key, lease_ms } => {
            let lease = Duration::from_millis(lease_ms).min(MAX_LEASE);
            shared
                .claims
                .claim(&shared.store, &shared.counters, &ns, &key, owner, lease)
        }
        Request::Wait {
            ns,
            key,
            timeout_ms,
        } => {
            let timeout = Duration::from_millis(timeout_ms).min(MAX_LEASE);
            shared
                .claims
                .wait(&shared.store, &shared.counters, &ns, &key, timeout)
        }
        Request::Stats => Response::Stats(stats_of(shared)),
        Request::Health => Response::Health(health_of(shared)),
        Request::Gc => Response::Gc(shared.store.gc_with(shared.config.gc_policy)),
        Request::Shutdown => Response::Done,
    }
}

/// One connection's thread: read a frame, serve it, write the reply,
/// until EOF, an error or a timeout ends the connection. Its claims are
/// released on the way out.
fn serve_connection(shared: &Shared, mut stream: TcpStream, owner: u64) {
    let mut reader = FrameReader::new();
    loop {
        let request = match reader.read_frame(&mut stream) {
            // Decoding copies what the request needs, so the frame (MBs
            // for a trace `PUT`) is freed before the request is served.
            Ok(Some(payload)) => Request::decode(&payload),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            // A read timeout while idle at a frame boundary: keep
            // waiting. Inside a frame it ends the connection below.
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) && reader.buffered_bytes() == 0 =>
            {
                continue
            }
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                // Bytes that can never become a frame (garbage, a
                // foreign protocol, or an oversized length header):
                // error-reply, then disconnect.
                let reply = Response::Error {
                    message: "malformed frame".to_string(),
                };
                let _ = stream.write_all(&reply.to_frame());
                break;
            }
            // EOF, a peer stalled mid-frame, or a reset.
            Ok(None) | Err(_) => break,
        };
        let shutdown = matches!(request, Ok(Request::Shutdown));
        // A well-framed but malformed request gets a clean error reply;
        // the connection survives.
        let response = match request {
            Ok(req) => serve(shared, owner, req),
            Err(message) => Response::Error { message },
        };
        // A write timeout closes a peer that stops reading its replies.
        let sent = stream.write_all(&response.to_frame());
        if shutdown {
            begin_drain(shared); // nothing after a shutdown ack is served
        }
        if shutdown || sent.is_err() {
            break;
        }
    }
    shared.claims.release_owner(&shared.counters, owner);
    let mut conns = shared.conns();
    conns.live.remove(&owner);
    shared
        .counters
        .active_connections
        .fetch_sub(1, Ordering::Relaxed);
    shared.conn_exited.notify_all();
}

#[cfg(test)]
mod tests {
    use super::super::client::{LayeredStore, RemoteStore};
    use super::super::frame::{encode_frame, FrameReader};
    use super::*;
    use crate::store::{StoreBackend, NS_RUNS};
    use std::fs;
    use std::io::Read;
    use std::path::PathBuf;

    /// Reads and decodes one reply frame from a hand-rolled connection.
    fn read_reply(reader: &mut FrameReader, stream: &mut TcpStream) -> Result<Response, String> {
        let payload = reader.read_frame(stream).unwrap().expect("a reply frame");
        Response::decode(&payload)
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cfr-net-unit-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn serve_dir(dir: &std::path::Path, config: ServerConfig) -> StoreServer {
        let store = Arc::new(ArtifactStore::open(dir, GcPolicy::unbounded()).unwrap());
        StoreServer::bind(store, "127.0.0.1:0", config).unwrap()
    }

    fn no_gc() -> ServerConfig {
        ServerConfig {
            gc_interval: None,
            ..ServerConfig::default()
        }
    }

    #[test]
    fn server_serves_get_put_stats_gc() {
        let dir = temp_dir("serve");
        let server = serve_dir(&dir, no_gc());
        let client = RemoteStore::new(server.addr().to_string());
        assert_eq!(client.load("runs", "k"), None, "cold daemon misses");
        client.save("runs", "k", "value 1 2 3");
        assert_eq!(client.load("runs", "k").as_deref(), Some("value 1 2 3"));
        // Overwrite leaves dead bytes; GC compacts them; the value
        // survives byte-for-byte.
        client.save("runs", "k", "value 4 5 6");
        let stats = client.stats().unwrap();
        assert_eq!(stats.namespaces.get(NS_RUNS), 1);
        assert!(stats.file_bytes > stats.live_bytes);
        assert!(stats.active_connections >= 1);
        let report = client.gc().unwrap();
        assert!(report.dead_bytes_dropped > 0);
        assert_eq!(client.load("runs", "k").as_deref(), Some("value 4 5 6"));
        assert_eq!(client.remote_hits(), 2);
        assert_eq!(client.remote_misses(), 1);
        assert_eq!(client.namespace_records("runs"), 1);
        server.shutdown();
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn batched_mget_round_trip_and_count() {
        let dir = temp_dir("batch");
        let server = serve_dir(&dir, no_gc());
        let client = RemoteStore::new(server.addr().to_string());
        for i in 0..20 {
            client.save("runs", &format!("key {i}"), &format!("value {i}"));
        }
        let probes: Vec<(String, String)> = (0..25)
            .map(|i| ("runs".to_string(), format!("key {i}")))
            .collect();
        let got = client.load_many(&probes);
        assert_eq!(got.len(), 25);
        for (i, slot) in got.iter().enumerate() {
            if i < 20 {
                assert_eq!(slot.as_deref(), Some(format!("value {i}").as_str()));
            } else {
                assert_eq!(slot.as_deref(), None);
            }
        }
        let stats = client.stats().unwrap();
        assert_eq!(stats.batched_keys, 25, "one 25-key MGET");
        assert_eq!(stats.max_batch, 25);
        // A 300-key probe from a fresh client is one MGET frame: a
        // single round trip.
        let fresh = RemoteStore::new(server.addr().to_string());
        let probes: Vec<(String, String)> = (0..300)
            .map(|i| ("runs".to_string(), format!("key {i}")))
            .collect();
        assert_eq!(fresh.load_many(&probes).len(), 300);
        assert_eq!(fresh.round_trips(), 1);
        server.shutdown();
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn pipelined_requests_reply_in_order_on_one_connection() {
        let dir = temp_dir("pipeline");
        let server = serve_dir(&dir, no_gc());
        // Hand-rolled client: write N requests before reading anything.
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        let mut blob = Vec::new();
        for i in 0..50 {
            let req = Request::Put {
                ns: "runs".into(),
                key: format!("k{i}"),
                value: format!("v{i}"),
            };
            blob.extend_from_slice(&encode_frame(&req.encode()));
        }
        for i in 0..50 {
            let req = Request::MGet {
                items: vec![("runs".into(), format!("k{i}"))],
            };
            blob.extend_from_slice(&encode_frame(&req.encode()));
        }
        stream.write_all(&blob).unwrap();
        let mut reader = FrameReader::new();
        for _ in 0..50 {
            assert_eq!(read_reply(&mut reader, &mut stream), Ok(Response::Done));
        }
        for i in 0..50 {
            assert_eq!(
                read_reply(&mut reader, &mut stream),
                Ok(Response::MGot {
                    values: vec![Some(format!("v{i}"))]
                }),
                "pipelined replies must arrive in request order"
            );
        }
        server.shutdown();
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn claim_grant_busy_publish_wait_cycle() {
        let dir = temp_dir("claim");
        let server = serve_dir(&dir, no_gc());
        let a = RemoteStore::new(server.addr().to_string());
        let b = RemoteStore::new(server.addr().to_string());
        // A claims the cold key; B's claim is busy.
        assert_eq!(
            a.claim("runs", "cold", Duration::from_secs(5)),
            crate::store::ClaimOutcome::Granted
        );
        assert_eq!(
            b.claim("runs", "cold", Duration::from_secs(5)),
            crate::store::ClaimOutcome::Busy
        );
        // Re-claim by the owner extends, still granted.
        assert_eq!(
            a.claim("runs", "cold", Duration::from_secs(5)),
            crate::store::ClaimOutcome::Granted
        );
        // B waits on a helper thread; A publishes; B gets the value.
        let waiter = {
            let addr = server.addr().to_string();
            thread::spawn(move || {
                let b2 = RemoteStore::new(addr);
                b2.wait_for("runs", "cold", Duration::from_secs(10))
            })
        };
        thread::sleep(Duration::from_millis(100));
        a.save("runs", "cold", "published value");
        assert_eq!(waiter.join().unwrap().as_deref(), Some("published value"));
        // A later claim on the now-stored key is an immediate hit.
        assert_eq!(
            b.claim("runs", "cold", Duration::from_secs(5)),
            crate::store::ClaimOutcome::Hit("published value".into())
        );
        let stats = a.stats().unwrap();
        assert_eq!(stats.claims_granted, 1);
        assert_eq!(stats.claims_expired, 0);
        server.shutdown();
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn dead_claim_holder_releases_on_disconnect() {
        let dir = temp_dir("claim-drop");
        let server = serve_dir(&dir, no_gc());
        let holder = RemoteStore::new(server.addr().to_string());
        assert_eq!(
            holder.claim("runs", "cold", Duration::from_secs(600)),
            crate::store::ClaimOutcome::Granted
        );
        let waiter = {
            let addr = server.addr().to_string();
            thread::spawn(move || {
                let w = RemoteStore::new(addr);
                w.wait_for("runs", "cold", Duration::from_secs(30))
            })
        };
        thread::sleep(Duration::from_millis(100));
        drop(holder); // connection drops → claim released unpublished
        assert_eq!(
            waiter.join().unwrap(),
            None,
            "waiter degrades to a miss and computes locally"
        );
        let probe = RemoteStore::new(server.addr().to_string());
        let stats = probe.stats().unwrap();
        assert_eq!(stats.claims_expired, 1);
        // The key is claimable again.
        assert_eq!(
            probe.claim("runs", "cold", Duration::from_secs(5)),
            crate::store::ClaimOutcome::Granted
        );
        server.shutdown();
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn expired_claim_lease_degrades_waiters_to_miss() {
        let dir = temp_dir("claim-lease");
        let server = serve_dir(&dir, no_gc());
        let holder = RemoteStore::new(server.addr().to_string());
        assert_eq!(
            holder.claim("runs", "cold", Duration::from_millis(150)),
            crate::store::ClaimOutcome::Granted
        );
        // Holder stays *connected* but never publishes: only the lease
        // can release the waiters.
        let w = RemoteStore::new(server.addr().to_string());
        let t0 = Instant::now();
        assert_eq!(w.wait_for("runs", "cold", Duration::from_secs(30)), None);
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "lease expiry must release the waiter, not the 30 s timeout"
        );
        let stats = w.stats().unwrap();
        assert!(stats.claims_expired >= 1);
        drop(holder);
        server.shutdown();
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stalled_mid_frame_connection_is_closed_but_idle_survives() {
        let dir = temp_dir("stall");
        let server = serve_dir(
            &dir,
            ServerConfig {
                read_timeout: Duration::from_millis(200),
                ..no_gc()
            },
        );
        // Idle at a frame boundary: stays connected well past the
        // timeout.
        let mut idle = TcpStream::connect(server.addr()).unwrap();
        // Stalled mid-frame: closed once the progress timeout passes.
        let mut stalled = TcpStream::connect(server.addr()).unwrap();
        let mut partial = Request::Stats.to_frame();
        partial.pop(); // incomplete frame
        stalled.write_all(&partial).unwrap();
        thread::sleep(Duration::from_millis(600));
        let mut probe = [0u8; 8];
        stalled
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        assert!(
            matches!(stalled.read(&mut probe), Ok(0) | Err(_)),
            "stalled connection must be dropped by the daemon"
        );
        idle.write_all(&Request::Stats.to_frame()).unwrap();
        let mut reader = FrameReader::new();
        assert!(
            matches!(read_reply(&mut reader, &mut idle), Ok(Response::Stats(_))),
            "idle connection must survive the progress timeout"
        );
        server.shutdown();
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn dead_daemon_degrades_to_misses_with_backoff() {
        // Nothing listens here (bind-then-drop reserves a dead port).
        let port = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().port()
        };
        let client = RemoteStore::new(format!("127.0.0.1:{port}"));
        assert_eq!(client.load("runs", "k"), None);
        client.save("runs", "k", "v"); // must not panic or block long
        assert_eq!(client.load("runs", "k"), None);
        assert!(client.write_errors() >= 1);
        assert!(client.stats().is_none());
        assert_eq!(client.namespace_records("runs"), 0);
        // Batched surfaces degrade identically.
        assert_eq!(client.load_many(&[("runs".into(), "k".into())]), vec![None]);
        assert_eq!(
            client.claim("runs", "k", Duration::from_secs(1)),
            crate::store::ClaimOutcome::Unsupported
        );
    }

    #[test]
    fn shutdown_request_stops_the_daemon() {
        let dir = temp_dir("shutdown");
        let server = serve_dir(&dir, ServerConfig::default());
        let addr = server.addr().to_string();
        let client = RemoteStore::new(addr.clone());
        client.save("runs", "k", "v");
        assert!(client.shutdown());
        server.wait(); // returns because the client asked for shutdown
                       // The daemon is gone; a fresh client degrades to misses.
        let after = RemoteStore::new(addr);
        assert_eq!(after.load("runs", "k"), None);
        // ... but the record survives on disk for the next daemon.
        let reopened = ArtifactStore::open(&dir, GcPolicy::unbounded()).unwrap();
        assert_eq!(
            ArtifactStore::load(&reopened, "runs", "k").as_deref(),
            Some("v")
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn garbage_bytes_get_an_error_reply_and_the_daemon_survives() {
        let dir = temp_dir("garbage");
        let server = serve_dir(&dir, no_gc());
        // Raw garbage: the reply must be an err frame, then disconnect.
        let mut raw = TcpStream::connect(server.addr()).unwrap();
        raw.write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();
        let mut reader = FrameReader::new();
        assert!(matches!(
            read_reply(&mut reader, &mut raw),
            Ok(Response::Error { .. })
        ));
        assert!(
            matches!(reader.read_frame(&mut raw), Ok(None) | Err(_)),
            "the daemon disconnects after the error reply"
        );
        // A malformed-but-framed request keeps the connection alive.
        let mut framed = TcpStream::connect(server.addr()).unwrap();
        framed
            .write_all(&encode_frame(b"frobnicate the store"))
            .unwrap();
        let mut reader = FrameReader::new();
        assert!(matches!(
            read_reply(&mut reader, &mut framed),
            Ok(Response::Error { .. })
        ));
        framed.write_all(&Request::Stats.to_frame()).unwrap();
        assert!(matches!(
            read_reply(&mut reader, &mut framed),
            Ok(Response::Stats(_))
        ));
        // And the daemon still serves fresh connections.
        let client = RemoteStore::new(server.addr().to_string());
        client.save("runs", "k", "v");
        assert_eq!(client.load("runs", "k").as_deref(), Some("v"));
        server.shutdown();
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn layered_store_prefers_remote_and_falls_back_to_local() {
        let daemon_dir = temp_dir("layer-daemon");
        let local_dir = temp_dir("layer-local");
        let local = Arc::new(ArtifactStore::open(&local_dir, GcPolicy::unbounded()).unwrap());
        ArtifactStore::save(&local, "runs", "legacy", "from the pre-daemon store");

        let server = serve_dir(&daemon_dir, ServerConfig::default());
        let layered = LayeredStore::new(
            RemoteStore::new(server.addr().to_string()),
            Some(Arc::clone(&local)),
        );
        // Saves go to the daemon, not the local layer.
        layered.save("runs", "fresh", "daemon copy");
        assert_eq!(ArtifactStore::load(&local, "runs", "fresh"), None);
        assert_eq!(
            layered.load("runs", "fresh").as_deref(),
            Some("daemon copy")
        );
        // A remote miss falls back to the local layer — and backfills
        // nothing into the daemon.
        assert_eq!(
            layered.load("runs", "legacy").as_deref(),
            Some("from the pre-daemon store")
        );
        assert_eq!(server.store().load("runs", "legacy"), None);
        assert!(layered.describe().starts_with("tcp://"));
        // Batched loads stitch remote hits and local fills together.
        let got = layered.load_many(&[
            ("runs".into(), "fresh".into()),
            ("runs".into(), "legacy".into()),
            ("runs".into(), "absent".into()),
        ]);
        assert_eq!(
            got,
            vec![
                Some("daemon copy".into()),
                Some("from the pre-daemon store".into()),
                None
            ]
        );

        // Daemon gone: loads of daemon-only records miss, saves land in
        // the local fallback, nothing panics.
        server.shutdown();
        assert_eq!(layered.load("runs", "fresh"), None, "daemon-only record");
        layered.save("runs", "degraded", "local copy");
        assert_eq!(
            ArtifactStore::load(&local, "runs", "degraded").as_deref(),
            Some("local copy")
        );
        assert_eq!(
            layered.load("runs", "degraded").as_deref(),
            Some("local copy")
        );
        let _ = fs::remove_dir_all(&daemon_dir);
        let _ = fs::remove_dir_all(&local_dir);
    }

    #[test]
    fn background_gc_compacts_without_dropping_fresh_appends() {
        let dir = temp_dir("bg-gc");
        let server = serve_dir(
            &dir,
            ServerConfig {
                gc_interval: Some(Duration::from_millis(1)),
                ..ServerConfig::default()
            },
        );
        let client = RemoteStore::new(server.addr().to_string());
        // Constant overwrites generate dead bytes for the 1 ms GC to
        // compact while we keep appending; nothing may be lost.
        for i in 0..200 {
            client.save("runs", "hot", &format!("version {i}"));
            client.save("runs", &format!("cold-{i}"), "stable value");
        }
        assert_eq!(client.load("runs", "hot").as_deref(), Some("version 199"));
        for i in 0..200 {
            assert_eq!(
                client.load("runs", &format!("cold-{i}")).as_deref(),
                Some("stable value"),
                "cold-{i} must survive background compaction"
            );
        }
        server.shutdown();
        // The records survive on disk for a fresh scan, too.
        let reopened = ArtifactStore::open(&dir, GcPolicy::unbounded()).unwrap();
        assert_eq!(
            ArtifactStore::load(&reopened, "runs", "hot").as_deref(),
            Some("version 199")
        );
        assert_eq!(ArtifactStore::namespace_records(&reopened, "runs"), 201);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn drain_answers_inflight_frames_and_fails_parked_waiters() {
        let dir = temp_dir("drain");
        let server = serve_dir(&dir, no_gc());
        // A holder claims the cold key so the waiter below parks.
        let holder = RemoteStore::new(server.addr().to_string());
        assert_eq!(
            holder.claim("runs", "cold", Duration::from_secs(600)),
            crate::store::ClaimOutcome::Granted
        );
        let waiter = {
            let addr = server.addr().to_string();
            thread::spawn(move || {
                let w = RemoteStore::new(addr);
                let t0 = Instant::now();
                (
                    w.wait_for("runs", "cold", Duration::from_secs(30)),
                    t0.elapsed(),
                )
            })
        };
        thread::sleep(Duration::from_millis(150)); // waiter is parked
                                                   // In-flight work: a pipelined PUT + MGET written right before
                                                   // the drain begins must still be answered.
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        let mut blob = Request::Put {
            ns: "runs".into(),
            key: "inflight".into(),
            value: "survives the drain".into(),
        }
        .to_frame();
        blob.extend_from_slice(
            &Request::MGet {
                items: vec![("runs".into(), "inflight".into())],
            }
            .to_frame(),
        );
        stream.write_all(&blob).unwrap();
        thread::sleep(Duration::from_millis(100)); // conn adopted, frames sent
        server.drain();
        assert!(server.draining());
        // The in-flight frames drew real replies, not a slammed door.
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut reader = FrameReader::new();
        assert_eq!(read_reply(&mut reader, &mut stream), Ok(Response::Done));
        assert_eq!(
            read_reply(&mut reader, &mut stream),
            Ok(Response::MGot {
                values: vec![Some("survives the drain".into())]
            })
        );
        // The parked waiter was failed fast with an err reply — it did
        // not ride out its 30 s park.
        let (got, waited) = waiter.join().unwrap();
        assert_eq!(got, None, "drain fails parked waiters to local compute");
        assert!(
            waited < Duration::from_secs(5),
            "drain must release the waiter promptly, waited {waited:?}"
        );
        drop(holder);
        server.shutdown();
        // The in-flight PUT is durable: a fresh scan still sees it.
        let reopened = ArtifactStore::open(&dir, GcPolicy::unbounded()).unwrap();
        assert_eq!(
            ArtifactStore::load(&reopened, "runs", "inflight").as_deref(),
            Some("survives the drain")
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn idle_tick_sweeps_expired_leases_without_traffic() {
        let dir = temp_dir("idle-sweep");
        let server = serve_dir(&dir, no_gc());
        let holder = RemoteStore::new(server.addr().to_string());
        assert_eq!(
            holder.claim("runs", "cold", Duration::from_millis(150)),
            crate::store::ClaimOutcome::Granted
        );
        // Zero traffic while the lease lapses: only the housekeeping
        // tick can expire it. The holder stays connected, so the
        // disconnect path cannot release the claim either.
        thread::sleep(Duration::from_millis(500));
        let probe = RemoteStore::new(server.addr().to_string());
        let stats = probe.stats().unwrap();
        assert!(
            stats.claims_expired >= 1,
            "idle tick must have swept the lapsed lease before any request arrived"
        );
        assert_eq!(
            probe.claim("runs", "cold", Duration::from_secs(5)),
            crate::store::ClaimOutcome::Granted,
            "the key is claimable again"
        );
        drop(holder);
        server.shutdown();
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn large_batches_round_trip_in_one_frame() {
        let dir = temp_dir("one-frame");
        let server = serve_dir(&dir, no_gc());
        let client = RemoteStore::new(server.addr().to_string());
        // 300 keys in one MGET frame: every value must round trip.
        for i in 0..300 {
            client.save("runs", &format!("key {i}"), &format!("value {i}"));
        }
        assert_eq!(client.write_errors(), 0);
        let probes: Vec<(String, String)> = (0..300)
            .map(|i| ("runs".to_string(), format!("key {i}")))
            .collect();
        let got = client.load_many(&probes);
        assert_eq!(got.len(), 300);
        for (i, slot) in got.iter().enumerate() {
            assert_eq!(
                slot.as_deref(),
                Some(format!("value {i}").as_str()),
                "key {i} must survive the one-frame round trip"
            );
        }
        server.shutdown();
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn health_probe_reports_occupancy_and_draining() {
        let dir = temp_dir("health");
        let server = serve_dir(&dir, no_gc());
        let client = RemoteStore::new(server.addr().to_string());
        client.save("runs", "k", "one live record");
        let health = client.health().unwrap();
        assert!(!health.draining);
        assert_eq!(health.live_records, 1);
        assert_eq!(health.shards_occupied, 1);
        assert_eq!(health.shard_count, SHARD_COUNT);
        assert!(health.file_bytes > 0);
        server.shutdown();
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_peer_that_stops_reading_is_closed_and_its_claims_released() {
        let dir = temp_dir("no-reader");
        let server = serve_dir(
            &dir,
            ServerConfig {
                read_timeout: Duration::from_millis(200),
                ..no_gc()
            },
        );
        // Each MGET of this 1 MiB record draws a 1 MiB reply.
        let client = RemoteStore::new(server.addr().to_string());
        client.save("runs", "big", &"x".repeat(1 << 20));
        let mut idle = TcpStream::connect(server.addr()).unwrap();
        let mut peer = TcpStream::connect(server.addr()).unwrap();
        let claim = Request::Claim {
            ns: "runs".into(),
            key: "cold".into(),
            lease_ms: 600_000,
        };
        peer.write_all(&claim.to_frame()).unwrap();
        let mut reader = FrameReader::new();
        assert_eq!(read_reply(&mut reader, &mut peer), Ok(Response::Granted));
        // 64 MiB of replies outgrow both socket buffers; the peer never
        // reads them, so the daemon's write times out.
        let probe = Request::MGet {
            items: vec![("runs".into(), "big".into())],
        };
        peer.write_all(&probe.to_frame().repeat(64)).unwrap();
        let other = RemoteStore::new(server.addr().to_string());
        let t0 = Instant::now();
        while other.claim("runs", "cold", Duration::from_secs(5))
            != crate::store::ClaimOutcome::Granted
        {
            assert!(
                t0.elapsed() < Duration::from_secs(5),
                "a peer that stops reading must be closed and its claim released"
            );
            thread::sleep(Duration::from_millis(50));
        }
        assert_eq!(other.stats().unwrap().claims_expired, 1);
        idle.write_all(&Request::Stats.to_frame()).unwrap();
        let mut reader = FrameReader::new();
        assert!(
            matches!(read_reply(&mut reader, &mut idle), Ok(Response::Stats(_))),
            "an idle connection must survive beside it"
        );
        drop(peer);
        server.shutdown();
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn bind_rejects_a_zero_read_timeout() {
        let dir = temp_dir("zero-timeout");
        let store = Arc::new(ArtifactStore::open(&dir, GcPolicy::unbounded()).unwrap());
        let config = ServerConfig {
            read_timeout: Duration::ZERO,
            ..no_gc()
        };
        let err = StoreServer::bind(store, "127.0.0.1:0", config).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        let _ = fs::remove_dir_all(&dir);
    }
}
