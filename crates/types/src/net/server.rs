//! The store daemon: a fixed worker pool multiplexing many nonblocking
//! connections over a readiness loop.
//!
//! One acceptor thread hands each new connection to a worker
//! (round-robin); each worker owns a set of connections and drives them
//! through per-connection state machines — read bytes, decode frames,
//! serve requests, queue replies, flush — so a thousand clients cost
//! `workers` threads, not a thousand. Requests are served as they
//! decode (**pipelining**): a client may write its whole batch before
//! reading anything, and replies come back in request order because the
//! out-queue is FIFO and a parked `WAIT` blocks the replies behind it
//! (never other connections).
//!
//! Readiness comes from `poll(2)` on Linux (declared directly — no
//! external crates); elsewhere a short sleep substitutes, which stays
//! correct (merely less efficient) because every socket operation is
//! nonblocking. Cross-worker wakeups (a `PUT` publishing a value some
//! other worker's connection is parked on) are a byte written to a
//! per-worker loopback socket pair.

use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use crate::store::{ArtifactStore, GcPolicy, SHARD_COUNT};

use super::frame::{decode_frame, FrameDecode};
use super::proto::{HealthReport, Request, Response, StoreStats};

/// Longest lease/park a client may ask for; larger requests clamp here
/// so one bad client cannot park resources for hours.
const MAX_LEASE: Duration = Duration::from_secs(600);

/// Worker poll-loop tick: the upper bound on how stale a shutdown
/// check, claim-expiry sweep, or read-timeout check can be.
const WORKER_TICK: Duration = Duration::from_millis(100);

/// How long a draining worker keeps flushing replies to connections
/// that will not read them before giving up and closing anyway. The
/// normal case — responsive clients — drains in one or two ticks.
const DRAIN_GRACE: Duration = Duration::from_secs(2);

/// How the daemon runs its store.
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    /// Age/size policy applied by the background GC thread and the `GC`
    /// command — **not** by saves (the daemon's store is opened
    /// unbounded, which is what moves GC off the save path).
    pub gc_policy: GcPolicy,
    /// Background GC cadence (`None` = only on explicit `GC` commands).
    pub gc_interval: Option<Duration>,
    /// Worker threads multiplexing the connections.
    pub workers: usize,
    /// Per-connection progress timeout: a connection stalled mid-frame
    /// (or with replies it will not read) longer than this is closed so
    /// it cannot pin worker resources. Idle connections at a frame
    /// boundary are never timed out.
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
// Readiness
// ---------------------------------------------------------------------------

#[cfg(target_os = "linux")]
mod readiness {
    use std::os::fd::RawFd;

    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }

    const POLLIN: i16 = 0x001;
    const POLLOUT: i16 = 0x004;
    // POLLERR/POLLHUP/POLLNVAL are reported regardless of `events`; a
    // closed peer surfaces as readable (read returns 0) so folding them
    // into "ready" is sufficient.
    const POLLERR: i16 = 0x008;
    const POLLHUP: i16 = 0x010;

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: u64, timeout: i32) -> i32;
    }

    /// Blocks until a registered fd is ready or `timeout` elapses.
    /// Returns per-fd `(readable, writable)`, in registration order.
    pub(super) fn wait(fds: &[(RawFd, bool)], timeout: std::time::Duration) -> Vec<(bool, bool)> {
        let mut pollfds: Vec<PollFd> = fds
            .iter()
            .map(|&(fd, want_write)| PollFd {
                fd,
                events: POLLIN | if want_write { POLLOUT } else { 0 },
                revents: 0,
            })
            .collect();
        let timeout_ms = i32::try_from(timeout.as_millis()).unwrap_or(i32::MAX);
        let rc = unsafe { poll(pollfds.as_mut_ptr(), pollfds.len() as u64, timeout_ms) };
        if rc < 0 {
            // EINTR or similar: claim nothing ready; the caller's next
            // loop iteration retries.
            return vec![(false, false); fds.len()];
        }
        pollfds
            .iter()
            .map(|p| {
                let err = p.revents & (POLLERR | POLLHUP) != 0;
                (
                    p.revents & POLLIN != 0 || err,
                    p.revents & POLLOUT != 0 || err,
                )
            })
            .collect()
    }
}

#[cfg(not(target_os = "linux"))]
mod readiness {
    use std::os::fd::RawFd;

    /// Portability fallback: sleep briefly and claim everything ready.
    /// Correct (all socket ops are nonblocking and tolerate spurious
    /// readiness) at the cost of a 1 ms duty cycle.
    pub(super) fn wait(fds: &[(RawFd, bool)], _timeout: std::time::Duration) -> Vec<(bool, bool)> {
        std::thread::sleep(std::time::Duration::from_millis(1));
        vec![(true, true); fds.len()]
    }
}

// ---------------------------------------------------------------------------
// Service counters
// ---------------------------------------------------------------------------

#[derive(Debug, Default)]
struct ServerCounters {
    active_connections: AtomicU64,
    pipeline_hwm: AtomicU64,
    batched_keys: AtomicU64,
    max_batch: AtomicU64,
    claims_granted: AtomicU64,
    claims_expired: AtomicU64,
}

impl ServerCounters {
    fn raise(cell: &AtomicU64, sample: u64) {
        cell.fetch_max(sample, Ordering::Relaxed);
    }

    fn note_batch(&self, keys: usize) {
        self.batched_keys.fetch_add(keys as u64, Ordering::Relaxed);
        Self::raise(&self.max_batch, keys as u64);
    }
}

// ---------------------------------------------------------------------------
// Claims
// ---------------------------------------------------------------------------

/// Where a parked `WAIT` learns its fate. `None` in the slot = still
/// parked; `Some(None)` = the claim lapsed unpublished (reply `miss`);
/// `Some(Some(v))` = published (reply `hit`).
#[derive(Debug, Default)]
struct WaitCell {
    outcome: Mutex<Option<Option<String>>>,
}

impl WaitCell {
    fn resolve(&self, outcome: Option<String>) {
        let mut slot = self.outcome.lock().expect("wait cell poisoned");
        if slot.is_none() {
            *slot = Some(outcome);
        }
    }

    fn peek(&self) -> Option<Option<String>> {
        self.outcome.lock().expect("wait cell poisoned").clone()
    }
}

#[derive(Debug)]
struct ClaimEntry {
    owner: u64,
    deadline: Instant,
    waiters: Vec<Arc<WaitCell>>,
}

/// The daemon-global claim table: `(ns, key) → exclusive computer`.
/// Lifted from the engine's in-process in-flight map so N *processes*
/// racing one cold key simulate it once globally.
#[derive(Debug, Default)]
struct ClaimTable {
    entries: Mutex<HashMap<(String, String), ClaimEntry>>,
}

enum WaitDisposition {
    Immediate(Response),
    Park(Arc<WaitCell>),
}

impl ClaimTable {
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
        let mut entries = self.entries.lock().expect("claim table poisoned");
        match entries.get_mut(&(ns.to_string(), key.to_string())) {
            Some(entry) if entry.owner == owner => {
                entry.deadline = now + lease; // re-claim extends the lease
                Response::Granted
            }
            Some(entry) if entry.deadline > now => Response::Busy,
            Some(entry) => {
                // Expired: the holder died or stalled. Its waiters
                // compute locally; the key changes hands.
                counters.claims_expired.fetch_add(1, Ordering::Relaxed);
                for w in entry.waiters.drain(..) {
                    w.resolve(None);
                }
                entry.owner = owner;
                entry.deadline = now + lease;
                counters.claims_granted.fetch_add(1, Ordering::Relaxed);
                Response::Granted
            }
            None => {
                entries.insert(
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
    /// live claim is active (nothing to wait for — compute), else parks.
    fn wait(
        &self,
        store: &ArtifactStore,
        counters: &ServerCounters,
        ns: &str,
        key: &str,
    ) -> WaitDisposition {
        if let Some(value) = store.load(ns, key) {
            return WaitDisposition::Immediate(Response::Hit { value });
        }
        let now = Instant::now();
        let mut entries = self.entries.lock().expect("claim table poisoned");
        let slot = (ns.to_string(), key.to_string());
        match entries.get_mut(&slot) {
            None => WaitDisposition::Immediate(Response::Miss),
            Some(entry) if entry.deadline <= now => {
                counters.claims_expired.fetch_add(1, Ordering::Relaxed);
                for w in entry.waiters.drain(..) {
                    w.resolve(None);
                }
                entries.remove(&slot);
                WaitDisposition::Immediate(Response::Miss)
            }
            Some(entry) => {
                let cell = Arc::new(WaitCell::default());
                entry.waiters.push(Arc::clone(&cell));
                WaitDisposition::Park(cell)
            }
        }
    }

    /// A value landed: the claim (if any) is fulfilled, every waiter
    /// gets the value.
    fn publish(&self, ns: &str, key: &str, value: &str) {
        let mut entries = self.entries.lock().expect("claim table poisoned");
        if let Some(entry) = entries.remove(&(ns.to_string(), key.to_string())) {
            for w in entry.waiters {
                w.resolve(Some(value.to_string()));
            }
        }
    }

    /// A connection died: its unpublished claims are released so other
    /// clients stop waiting and compute locally.
    fn release_owner(&self, counters: &ServerCounters, owner: u64) {
        let mut entries = self.entries.lock().expect("claim table poisoned");
        entries.retain(|_, entry| {
            if entry.owner != owner {
                return true;
            }
            counters.claims_expired.fetch_add(1, Ordering::Relaxed);
            for w in entry.waiters.drain(..) {
                w.resolve(None);
            }
            false
        });
    }

    /// Lazy expiry for claims nobody touches: overdue entries resolve
    /// their waiters to `miss` and vanish.
    fn sweep(&self, counters: &ServerCounters) {
        let now = Instant::now();
        let mut entries = self.entries.lock().expect("claim table poisoned");
        entries.retain(|_, entry| {
            if entry.deadline > now {
                return true;
            }
            counters.claims_expired.fetch_add(1, Ordering::Relaxed);
            for w in entry.waiters.drain(..) {
                w.resolve(None);
            }
            false
        });
    }
}

// ---------------------------------------------------------------------------
// Wakeups
// ---------------------------------------------------------------------------

/// A connected loopback socket pair: `TcpListener` bind + connect +
/// accept. The read side sits in a worker's poll set; a byte written to
/// the write side wakes that worker out of `poll`.
fn socket_pair() -> io::Result<(TcpStream, TcpStream)> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let write_side = TcpStream::connect(listener.local_addr()?)?;
    let (read_side, _) = listener.accept()?;
    read_side.set_nonblocking(true)?;
    // Nonblocking writes: a full wake buffer means unread wake bytes are
    // already pending, so a dropped extra byte loses nothing.
    write_side.set_nonblocking(true)?;
    Ok((write_side, read_side))
}

#[derive(Debug)]
struct Wakers {
    write_sides: Vec<TcpStream>,
}

impl Wakers {
    fn wake(&self, worker: usize) {
        let _ = (&self.write_sides[worker]).write(&[1]);
    }

    fn wake_all(&self) {
        for i in 0..self.write_sides.len() {
            self.wake(i);
        }
    }
}

// ---------------------------------------------------------------------------
// Per-connection state machine
// ---------------------------------------------------------------------------

/// One queued reply slot. The out-queue is FIFO, so pipelined replies
/// keep request order; a `Waiting` head blocks only its own connection.
enum OutSlot {
    /// Encoded reply bytes, ready to flush.
    Ready(Vec<u8>),
    /// A parked `WAIT`: resolves to a reply when its cell is published,
    /// released, or `deadline` passes (client-requested timeout).
    Waiting {
        cell: Arc<WaitCell>,
        deadline: Instant,
    },
}

struct ConnState {
    stream: TcpStream,
    rbuf: Vec<u8>,
    out: VecDeque<OutSlot>,
    /// Bytes of the head `Ready` slot already written.
    written: usize,
    owner: u64,
    last_progress: Instant,
    /// Flush what is queued, then drop the connection (protocol error
    /// or shutdown handshake).
    close_after_flush: bool,
}

impl ConnState {
    /// Whether the head of the out-queue is flushable right now
    /// (resolving a due `Waiting` head on the way).
    fn flushable(&mut self) -> bool {
        loop {
            match self.out.front() {
                None => return false,
                Some(OutSlot::Ready(_)) => return true,
                Some(OutSlot::Waiting { cell, deadline }) => {
                    let outcome = match cell.peek() {
                        Some(outcome) => outcome,
                        None if Instant::now() >= *deadline => None, // timed out: miss
                        None => return false,                        // still parked
                    };
                    let response = match outcome {
                        Some(value) => Response::Hit { value },
                        None => Response::Miss,
                    };
                    self.out[0] = OutSlot::Ready(response.to_frame());
                }
            }
        }
    }

    /// True while the peer owes us bytes (mid-frame) or we owe the peer
    /// bytes — the states the progress timeout applies to.
    fn awaiting_progress(&self) -> bool {
        !self.rbuf.is_empty() || !self.out.is_empty()
    }
}

// ---------------------------------------------------------------------------
// The server
// ---------------------------------------------------------------------------

/// The store daemon: exclusively owns an [`ArtifactStore`] and serves it
/// over TCP from a fixed worker pool. See the module docs for the
/// protocol; see `cfr-store-serve` for the CLI wrapper.
#[derive(Debug)]
pub struct StoreServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    gc_thread: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    wakers: Arc<Wakers>,
    store: Arc<ArtifactStore>,
    shared: Arc<Shared>,
}

struct Shared {
    store: Arc<ArtifactStore>,
    config: ServerConfig,
    shutdown: Arc<AtomicBool>,
    /// The graceful half of teardown: set first, it stops the acceptor
    /// and puts every worker into drain mode — answer what is already
    /// in flight, fail parked waiters with `err`, flush, close. The
    /// hard `shutdown` flag is only set once draining finished.
    draining: AtomicBool,
    started: Instant,
    counters: ServerCounters,
    claims: ClaimTable,
    server_addr: SocketAddr,
}

/// Flips the daemon into drain mode (idempotent) and unblocks the
/// acceptor and every worker so they notice immediately.
fn begin_drain(shared: &Shared, wakers: &Wakers) {
    if shared.draining.swap(true, Ordering::SeqCst) {
        return;
    }
    let _ = TcpStream::connect(shared.server_addr); // unblock accept()
    wakers.wake_all();
}

impl StoreServer {
    /// Binds `addr` (use port `0` for an ephemeral port; read the real
    /// one back from [`StoreServer::addr`]) and starts serving `store`:
    /// one acceptor thread, `config.workers` connection workers, and —
    /// when `config.gc_interval` is set — one GC thread.
    ///
    /// # Errors
    ///
    /// Errors if the listener cannot bind or the worker wake channels
    /// cannot be set up.
    pub fn bind(store: Arc<ArtifactStore>, addr: &str, config: ServerConfig) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let worker_count = config.workers.max(1);

        let shared = Arc::new(Shared {
            store: Arc::clone(&store),
            config,
            shutdown: Arc::clone(&shutdown),
            draining: AtomicBool::new(false),
            started: Instant::now(),
            counters: ServerCounters::default(),
            claims: ClaimTable::default(),
            server_addr: local_addr,
        });

        let mut write_sides = Vec::with_capacity(worker_count);
        let mut inboxes = Vec::with_capacity(worker_count);
        let mut workers = Vec::with_capacity(worker_count);
        let mut pairs = Vec::with_capacity(worker_count);
        for _ in 0..worker_count {
            let (write_side, read_side) = socket_pair()?;
            write_sides.push(write_side);
            pairs.push(read_side);
        }
        let wakers = Arc::new(Wakers { write_sides });
        for read_side in pairs {
            let (tx, rx) = mpsc::channel::<TcpStream>();
            inboxes.push(tx);
            let shared = Arc::clone(&shared);
            let wakers = Arc::clone(&wakers);
            workers.push(thread::spawn(move || {
                worker_loop(&shared, &wakers, read_side, &rx);
            }));
        }

        let accept = {
            let shared = Arc::clone(&shared);
            let shutdown = Arc::clone(&shutdown);
            let wakers = Arc::clone(&wakers);
            thread::spawn(move || {
                let stopping = |shared: &Shared| {
                    shared.draining.load(Ordering::SeqCst) || shutdown.load(Ordering::SeqCst)
                };
                let mut next = 0usize;
                loop {
                    let Ok((stream, _)) = listener.accept() else {
                        if stopping(&shared) {
                            return;
                        }
                        // Transient accept error — e.g. EMFILE, which
                        // returns immediately and repeatedly. Throttle
                        // instead of spinning a core.
                        thread::sleep(Duration::from_millis(20));
                        continue;
                    };
                    if stopping(&shared) {
                        return; // the wake-up connection, or a racer
                    }
                    let worker = next % inboxes.len();
                    next = next.wrapping_add(1);
                    if inboxes[worker].send(stream).is_ok() {
                        wakers.wake(worker);
                    }
                }
            })
        };
        let gc_thread = config.gc_interval.map(|interval| {
            let store = Arc::clone(&store);
            let shutdown = Arc::clone(&shutdown);
            thread::spawn(move || gc_loop(&store, config.gc_policy, interval, &shutdown))
        });
        Ok(Self {
            addr: local_addr,
            shutdown,
            accept: Some(accept),
            gc_thread,
            workers,
            wakers,
            store,
            shared,
        })
    }

    /// The address the daemon is actually listening on.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The store this daemon owns.
    #[must_use]
    pub fn store(&self) -> &Arc<ArtifactStore> {
        &self.store
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
    /// frames, fail parked waiters with `err`, flush, then tear down.
    /// After this returns no thread serves the store — a client's next
    /// request definitively fails (and degrades to a miss on its side).
    pub fn shutdown(mut self) {
        self.stop();
    }

    /// Begins draining without blocking: the acceptor stops, workers
    /// answer what is in flight and fail parked waiters fast. Call
    /// [`StoreServer::shutdown`] (or drop) to join the teardown.
    pub fn drain(&self) {
        begin_drain(&self.shared, &self.wakers);
    }

    /// Whether the daemon is draining (or already stopped).
    #[must_use]
    pub fn draining(&self) -> bool {
        self.shared.draining.load(Ordering::SeqCst)
    }

    fn stop(&mut self) {
        // Graceful first: drain answers in-flight frames and resolves
        // parked waiters instead of abandoning them mid-queue.
        begin_drain(&self.shared, &self.wakers);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        // Only now flip the hard flag (stops the GC thread; also the
        // terminal state `draining` paired with no served socket).
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(gc) = self.gc_thread.take() {
            let _ = gc.join();
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

fn gc_loop(
    store: &Arc<ArtifactStore>,
    policy: GcPolicy,
    interval: Duration,
    shutdown: &Arc<AtomicBool>,
) {
    let tick = interval.min(Duration::from_millis(20));
    let mut last = Instant::now();
    while !shutdown.load(Ordering::SeqCst) {
        thread::sleep(tick);
        if last.elapsed() >= interval {
            let _ = store.gc_with(policy);
            last = Instant::now();
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
        pipeline_hwm: c.pipeline_hwm.load(Ordering::Relaxed),
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

/// Serves one decoded request (`Shutdown` is intercepted by the caller,
/// which owns teardown). Returns the reply slot to queue; the caller
/// owns write-out.
fn serve(shared: &Shared, wakers: &Wakers, conn_owner: u64, req: Request) -> OutSlot {
    let response = match req {
        Request::Get { ns, key } => match shared.store.load(&ns, &key) {
            Some(value) => Response::Hit { value },
            None => Response::Miss,
        },
        Request::Put { ns, key, value } => {
            // Request decoding enforced the store's input shapes, so
            // this cannot trip the store's assertions.
            shared.store.save(&ns, &key, &value);
            shared.claims.publish(&ns, &key, &value);
            wakers.wake_all(); // parked WAITs may live on any worker
            Response::Done
        }
        Request::MGet { items } => {
            shared.counters.note_batch(items.len());
            let values = items
                .iter()
                .map(|(ns, key)| shared.store.load(ns, key))
                .collect();
            Response::MGot { values }
        }
        Request::MPut { items } => {
            shared.counters.note_batch(items.len());
            for (ns, key, value) in &items {
                shared.store.save(ns, key, value);
                shared.claims.publish(ns, key, value);
            }
            // A served batch is a durability commit point: under
            // `CFR_STORE_FSYNC=commit` the whole batch hits stable
            // storage before the client sees `ok`.
            shared.store.commit_batch();
            if !items.is_empty() {
                wakers.wake_all();
            }
            Response::Done
        }
        Request::Claim { ns, key, lease_ms } => {
            let lease = Duration::from_millis(lease_ms).min(MAX_LEASE);
            shared.claims.claim(
                &shared.store,
                &shared.counters,
                &ns,
                &key,
                conn_owner,
                lease,
            )
        }
        Request::Wait {
            ns,
            key,
            timeout_ms,
        } => {
            let timeout = Duration::from_millis(timeout_ms).min(MAX_LEASE);
            match shared
                .claims
                .wait(&shared.store, &shared.counters, &ns, &key)
            {
                WaitDisposition::Immediate(response) => response,
                WaitDisposition::Park(cell) => {
                    return OutSlot::Waiting {
                        cell,
                        deadline: Instant::now() + timeout,
                    }
                }
            }
        }
        Request::Stats => Response::Stats(stats_of(shared)),
        Request::Health => Response::Health(health_of(shared)),
        Request::Gc => Response::Gc(shared.store.gc_with(shared.config.gc_policy)),
        Request::Shutdown => Response::Done, // caller handles teardown
    };
    OutSlot::Ready(response.to_frame())
}

fn worker_loop(
    shared: &Shared,
    wakers: &Wakers,
    mut wake_rx: TcpStream,
    inbox: &mpsc::Receiver<TcpStream>,
) {
    use std::os::fd::AsRawFd;
    let mut conns: Vec<ConnState> = Vec::new();
    let mut owner_seq = u64::from(wake_rx.local_addr().map_or(0, |a| a.port())) << 32;
    let mut drain_since: Option<Instant> = None;
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let draining = shared.draining.load(Ordering::SeqCst);
        if draining {
            if drain_since.is_none() {
                drain_since = Some(Instant::now());
            }
            // Refuse connections that raced into the inbox after the
            // drain began — dropping the stream closes them.
            while inbox.try_recv().is_ok() {}
        } else {
            // Adopt newly accepted connections.
            while let Ok(stream) = inbox.try_recv() {
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                let _ = stream.set_nodelay(true);
                owner_seq += 1;
                shared
                    .counters
                    .active_connections
                    .fetch_add(1, Ordering::Relaxed);
                conns.push(ConnState {
                    stream,
                    rbuf: Vec::new(),
                    out: VecDeque::new(),
                    written: 0,
                    owner: owner_seq,
                    last_progress: Instant::now(),
                    close_after_flush: false,
                });
            }
        }

        // Expire overdue claims so their waiters unpark. Running here —
        // on every poll tick, not on request arrival — is what lets a
        // dead holder's lease lapse even when the daemon receives zero
        // traffic: waiters parked on other connections unblock within
        // one WORKER_TICK of the deadline.
        shared.claims.sweep(&shared.counters);

        // Readiness: the wake socket plus every connection (write
        // interest only while something is flushable).
        let mut fds = Vec::with_capacity(conns.len() + 1);
        fds.push((wake_rx.as_raw_fd(), false));
        for conn in &mut conns {
            let want_write = conn.flushable();
            fds.push((conn.stream.as_raw_fd(), want_write));
        }
        let ready = readiness::wait(&fds, WORKER_TICK);
        if ready[0].0 {
            let mut drain = [0u8; 64];
            while matches!(wake_rx.read(&mut drain), Ok(n) if n > 0) {}
        }

        let mut drain_requested = false;
        for (i, conn) in conns.iter_mut().enumerate() {
            let (readable, writable) = ready[i + 1];
            let mut dead = false;
            if readable && !conn.close_after_flush {
                dead = pump_reads(shared, wakers, conn, &mut drain_requested);
            }
            if draining && !dead {
                // Drain mode: every frame already received got its
                // reply above; parked waiters fail fast with `err`
                // instead of hanging until the client-side timeout,
                // and the connection closes once its queue flushes.
                for slot in &mut conn.out {
                    if let OutSlot::Waiting { .. } = slot {
                        let reply = Response::Error {
                            message: "daemon draining".to_string(),
                        };
                        *slot = OutSlot::Ready(reply.to_frame());
                    }
                }
                conn.close_after_flush = true;
            }
            // Opportunistic flush: freshly queued replies usually fit
            // the socket buffer without waiting for a POLLOUT round.
            if !dead && (writable || conn.flushable()) {
                dead = pump_writes(conn);
            }
            if !dead && draining && conn.out.is_empty() {
                dead = true; // nothing left to answer: close now
            }
            if !dead
                && conn.awaiting_progress()
                && conn.last_progress.elapsed() > shared.config.read_timeout
                && !conn
                    .out
                    .iter()
                    .any(|s| matches!(s, OutSlot::Waiting { .. }))
            {
                // Stalled mid-frame or not reading its replies: drop it.
                // (A parked WAIT is progress pending on *us*, not the
                // peer — exempt.)
                dead = true;
            }
            if dead {
                shared.claims.release_owner(&shared.counters, conn.owner);
                shared
                    .counters
                    .active_connections
                    .fetch_sub(1, Ordering::Relaxed);
                conn.close_after_flush = true;
                conn.owner = 0; // released
                conn.out.clear();
                conn.rbuf.clear();
                conn.written = usize::MAX; // marker: remove below
            }
        }
        conns.retain(|c| c.written != usize::MAX);

        if drain_requested {
            // A client sent `SHUTDOWN`: its `ok` is queued; the daemon
            // now drains instead of dropping everyone mid-queue.
            begin_drain(shared, wakers);
        }
        if draining
            && (conns.is_empty() || drain_since.is_some_and(|since| since.elapsed() > DRAIN_GRACE))
        {
            break;
        }
    }
    // Teardown: release every connection's claims so cross-process
    // waiters parked on other workers degrade to misses promptly.
    for conn in &conns {
        if conn.owner != 0 {
            shared.claims.release_owner(&shared.counters, conn.owner);
            shared
                .counters
                .active_connections
                .fetch_sub(1, Ordering::Relaxed);
        }
    }
}

/// Reads until `WouldBlock`, decoding and serving every complete frame.
/// Returns `true` when the connection is finished (EOF or fatal error).
fn pump_reads(
    shared: &Shared,
    wakers: &Wakers,
    conn: &mut ConnState,
    drain_requested: &mut bool,
) -> bool {
    let mut chunk = [0u8; 16 * 1024];
    loop {
        match conn.stream.read(&mut chunk) {
            Ok(0) => return true, // EOF
            Ok(n) => {
                conn.rbuf.extend_from_slice(&chunk[..n]);
                conn.last_progress = Instant::now();
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return true,
        }
        // Serve every complete frame already buffered before reading
        // more: pipelined requests drain without waiting for the socket.
        loop {
            let (request, consumed) = match decode_frame(&conn.rbuf) {
                FrameDecode::Incomplete => break,
                FrameDecode::Invalid => {
                    // Bytes that can never become a frame (garbage, a
                    // foreign protocol, or an oversized length header):
                    // error-reply, then disconnect after flushing.
                    let reply = Response::Error {
                        message: "malformed frame".to_string(),
                    };
                    conn.out.push_back(OutSlot::Ready(reply.to_frame()));
                    conn.rbuf.clear();
                    conn.close_after_flush = true;
                    return false;
                }
                FrameDecode::Frame { payload, consumed } => (Request::decode(payload), consumed),
            };
            conn.rbuf.drain(..consumed);
            let slot = match request {
                // A well-framed but malformed request gets a clean error
                // reply; the connection survives.
                Err(message) => OutSlot::Ready(Response::Error { message }.to_frame()),
                Ok(Request::Shutdown) => {
                    *drain_requested = true;
                    conn.close_after_flush = true;
                    OutSlot::Ready(Response::Done.to_frame())
                }
                Ok(req) => serve(shared, wakers, conn.owner, req),
            };
            conn.out.push_back(slot);
            ServerCounters::raise(&shared.counters.pipeline_hwm, conn.out.len() as u64);
            if conn.close_after_flush {
                // Nothing after a shutdown ack is served.
                conn.rbuf.clear();
                return false;
            }
        }
    }
    false
}

/// Flushes ready replies until `WouldBlock` or the queue blocks on a
/// parked `WAIT`. Returns `true` when the connection is finished.
fn pump_writes(conn: &mut ConnState) -> bool {
    while conn.flushable() {
        let Some(OutSlot::Ready(bytes)) = conn.out.front() else {
            unreachable!("flushable() leaves a Ready head");
        };
        match conn.stream.write(&bytes[conn.written..]) {
            Ok(0) => return true,
            Ok(n) => {
                conn.written += n;
                conn.last_progress = Instant::now();
                if conn.written == bytes.len() {
                    conn.out.pop_front();
                    conn.written = 0;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return false,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return true,
        }
    }
    // Fully flushed: a connection marked close-after-flush ends here.
    conn.out.is_empty() && conn.close_after_flush
}

#[cfg(test)]
mod tests {
    use super::super::client::{LayeredStore, RemoteStore};
    use super::super::frame::{encode_frame, FrameReader};
    use super::*;
    use crate::store::{StoreBackend, NS_RUNS};
    use std::fs;
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
    fn batched_mget_mput_round_trip_and_count() {
        let dir = temp_dir("batch");
        let server = serve_dir(&dir, no_gc());
        let client = RemoteStore::new(server.addr().to_string());
        let items: Vec<(String, String, String)> = (0..20)
            .map(|i| ("runs".to_string(), format!("key {i}"), format!("value {i}")))
            .collect();
        client.save_many(&items);
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
        assert_eq!(stats.batched_keys, 45, "20 MPUT keys + 25 MGET keys");
        assert_eq!(stats.max_batch, 25);
        // A 300-key probe from a fresh client is three MGET frames
        // (128/127/45 keys) pipelined into a single round trip.
        let fresh = RemoteStore::new(server.addr().to_string());
        let probes: Vec<(String, String)> = (0..300)
            .map(|i| ("runs".to_string(), format!("key {i}")))
            .collect();
        assert_eq!(fresh.load_many(&probes).len(), 300);
        assert_eq!(fresh.round_trips(), 1);
        assert_eq!(fresh.requests_sent(), 3);
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
            let req = Request::Get {
                ns: "runs".into(),
                key: format!("k{i}"),
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
                Ok(Response::Hit {
                    value: format!("v{i}")
                }),
                "pipelined replies must arrive in request order"
            );
        }
        let client = RemoteStore::new(server.addr().to_string());
        assert!(client.stats().unwrap().pipeline_hwm >= 1);
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
                                                   // In-flight work: a pipelined PUT + GET written right before the
                                                   // drain begins must still be answered.
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        let mut blob = Request::Put {
            ns: "runs".into(),
            key: "inflight".into(),
            value: "survives the drain".into(),
        }
        .to_frame();
        blob.extend_from_slice(
            &Request::Get {
                ns: "runs".into(),
                key: "inflight".into(),
            }
            .to_frame(),
        );
        stream.write_all(&blob).unwrap();
        thread::sleep(Duration::from_millis(100)); // conn adopted, frames queued
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
            Ok(Response::Hit {
                value: "survives the drain".into()
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
        // Zero traffic while the lease lapses: only the worker's idle
        // poll tick can expire it. The holder stays connected, so the
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
    fn large_batches_round_trip_across_alternating_chunks() {
        let dir = temp_dir("alt-chunks");
        let server = serve_dir(&dir, no_gc());
        let client = RemoteStore::new(server.addr().to_string());
        // 300 items span three chunks (128/127/45) — no two adjacent
        // chunks share a length, and every value must round trip.
        let items: Vec<(String, String, String)> = (0..300)
            .map(|i| ("runs".to_string(), format!("key {i}"), format!("value {i}")))
            .collect();
        assert!(client.try_save_many(&items));
        let probes: Vec<(String, String)> = (0..300)
            .map(|i| ("runs".to_string(), format!("key {i}")))
            .collect();
        let got = client.load_many(&probes);
        assert_eq!(got.len(), 300);
        for (i, slot) in got.iter().enumerate() {
            assert_eq!(
                slot.as_deref(),
                Some(format!("value {i}").as_str()),
                "key {i} must survive the chunked round trip"
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
}
