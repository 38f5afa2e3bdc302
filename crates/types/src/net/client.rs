//! The store clients: [`RemoteStore`] (TCP, reconnect-with-backoff,
//! one-frame batches, claim/wait) and [`LayeredStore`] (remote over a
//! machine-local fallback).

use std::io::{self, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::store::{ArtifactStore, ClaimOutcome, GcReport, StoreBackend};

use super::frame::FrameReader;
use super::proto::{HealthReport, Request, Response, StoreStats};
use crate::chaos::SplitMix64;
use crate::record::fnv1a64;

/// Read/write timeout on client sockets: a stalled daemon degrades to
/// misses rather than hanging an experiment.
const CLIENT_IO_TIMEOUT: Duration = Duration::from_secs(10);

/// Timeout for establishing a connection.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(2);

/// First reconnect delay after a failure; doubles per consecutive
/// failure up to [`BACKOFF_MAX`].
const BACKOFF_BASE: Duration = Duration::from_millis(50);

/// Longest reconnect delay.
const BACKOFF_MAX: Duration = Duration::from_secs(2);

/// Whether `resp` is a reply kind `req` can legally draw. An `err`
/// reply is always legal (any request may fail server-side); anything
/// else must match the request's verb, so a desynchronized reply
/// stream (duplicated or dropped frames between here and the daemon)
/// poisons the exchange instead of being misread as data.
fn reply_matches(req: &Request, resp: &Response) -> bool {
    if matches!(resp, Response::Error { .. }) {
        return true;
    }
    match req {
        Request::Wait { .. } => matches!(resp, Response::Hit { .. } | Response::Miss),
        Request::Put { .. } | Request::Shutdown => matches!(resp, Response::Done),
        Request::MGet { .. } => matches!(resp, Response::MGot { .. }),
        Request::Claim { .. } => {
            matches!(
                resp,
                Response::Hit { .. } | Response::Granted | Response::Busy
            )
        }
        Request::Stats => matches!(resp, Response::Stats(_)),
        Request::Health => matches!(resp, Response::Health(_)),
        Request::Gc => matches!(resp, Response::Gc(_)),
    }
}

/// Whether replaying `req` after an indeterminate failure is safe.
/// Reads and probes are; anything that mutates daemon state (`PUT`,
/// `CLAIM`, `GC`, `SHUTDOWN`) or parks (`WAIT`) is not — a lost ack
/// does not prove the daemon never acted on the frame.
fn idempotent(req: &Request) -> bool {
    matches!(req, Request::MGet { .. } | Request::Stats | Request::Health)
}

#[derive(Debug)]
struct Conn {
    stream: TcpStream,
    reader: FrameReader,
}

#[derive(Debug, Default)]
struct ClientState {
    conn: Option<Conn>,
    consecutive_failures: u32,
    retry_at: Option<Instant>,
}

/// A [`StoreBackend`] over a TCP connection to a
/// [`StoreServer`](super::StoreServer).
///
/// Failure semantics — the store's "failure = cold run" contract, over
/// the network:
///
/// - every I/O failure (connect refused, reset, timeout, malformed
///   reply) degrades the operation to a **miss** (loads), a counted
///   best-effort failure (saves), or `Unsupported` (claims); nothing
///   propagates;
/// - after a failure the client **backs off** (50 ms doubling to 2 s):
///   operations inside the backoff window return misses immediately
///   instead of hammering a dead daemon, and the next operation past the
///   window reconnects transparently.
///
/// One connection is shared (mutex-serialized) by all threads of the
/// process. [`RemoteStore::load_many`] sends its whole batch as one
/// `MGET` frame — one round trip for an entire plan's keys — which is
/// why serialization is not the bottleneck. The exception is
/// [`RemoteStore::wait_for`], which parks server-side: it uses a
/// dedicated throwaway connection so a parked wait never blocks the
/// shared one.
#[derive(Debug)]
pub struct RemoteStore {
    addr: String,
    state: Mutex<ClientState>,
    hits: AtomicU64,
    misses: AtomicU64,
    put_errors: AtomicU64,
    round_trips: AtomicU64,
}

impl RemoteStore {
    /// A client of the daemon at `addr` (`host:port`). No connection is
    /// attempted until the first operation.
    #[must_use]
    pub fn new(addr: impl Into<String>) -> Self {
        Self {
            addr: addr.into(),
            state: Mutex::new(ClientState::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            put_errors: AtomicU64::new(0),
            round_trips: AtomicU64::new(0),
        }
    }

    /// The daemon address this client talks to.
    #[must_use]
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Loads served by the daemon.
    #[must_use]
    pub fn remote_hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Loads the daemon missed on — including every load made while the
    /// daemon was unreachable.
    #[must_use]
    pub fn remote_misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Completed request/reply exchanges — network round trips. A
    /// batch of any size counts **one**.
    #[must_use]
    pub fn round_trips(&self) -> u64 {
        self.round_trips.load(Ordering::Relaxed)
    }

    fn connect(addr: &str, read_timeout: Duration) -> io::Result<TcpStream> {
        let sock = addr.to_socket_addrs()?.next().ok_or_else(|| {
            io::Error::new(io::ErrorKind::NotFound, "address resolves to nothing")
        })?;
        let stream = TcpStream::connect_timeout(&sock, CONNECT_TIMEOUT)?;
        stream.set_read_timeout(Some(read_timeout))?;
        stream.set_write_timeout(Some(CLIENT_IO_TIMEOUT))?;
        let _ = stream.set_nodelay(true);
        Ok(stream)
    }

    fn note_failure(&self, state: &mut ClientState) {
        state.conn = None;
        state.consecutive_failures = state.consecutive_failures.saturating_add(1);
        let shift = state.consecutive_failures.saturating_sub(1).min(8);
        let base = BACKOFF_BASE
            .checked_mul(1 << shift)
            .map_or(BACKOFF_MAX, |d| d.min(BACKOFF_MAX));
        // Half fixed, half jittered, so a fleet of clients that lost the
        // same daemon at the same instant does not reconnect in
        // lockstep. The jitter is drawn from a PRNG seeded by (address,
        // failure count) — deterministic, so runs stay reproducible.
        let seed = fnv1a64(&self.addr).wrapping_add(u64::from(state.consecutive_failures));
        let frac = SplitMix64::new(seed).next_f64();
        let delay = base.div_f64(2.0).mul_f64(1.0 + frac).min(BACKOFF_MAX);
        state.retry_at = Some(Instant::now() + delay);
    }

    /// Writes a request's `frame`, then reads one reply and validates
    /// its kind against the request's, `req`. Each read of the reply
    /// times out after [`CLIENT_IO_TIMEOUT`].
    fn run_exchange(conn: &mut Conn, frame: &[u8], req: &Request) -> io::Result<Response> {
        conn.stream.write_all(frame)?;
        let payload = conn.reader.read_frame(&mut conn.stream)?.ok_or_else(|| {
            io::Error::new(io::ErrorKind::UnexpectedEof, "daemon closed the connection")
        })?;
        let response = Response::decode(&payload)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        if !reply_matches(req, &response) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "reply kind does not match the request",
            ));
        }
        Ok(response)
    }

    /// One request/reply exchange. `None` covers every failure: not
    /// connected and inside the backoff window, connect/write/read
    /// failure, an undecodable reply, or a reply whose kind does not
    /// match the request.
    ///
    /// An idempotent request (a read or a probe) is retried once on a
    /// fresh connection before the failure counts against the backoff;
    /// a mutation or park is never replayed — a lost ack does not prove
    /// the daemon never applied the frame.
    #[must_use]
    pub fn request(&self, req: &Request) -> Option<Response> {
        self.exchange(&req.to_frame(), req)
    }

    /// [`Self::request`] of a request already encoded as `frame`, which
    /// a retry sends again as it is. `req` is a request of the same kind:
    /// its kind picks the reply kind expected and whether a retry is safe.
    fn exchange(&self, frame: &[u8], req: &Request) -> Option<Response> {
        let mut state = self.state.lock().expect("remote store poisoned");
        // A reply stream that over-delivered (more frames than the last
        // exchange requested) leaves bytes parked in the frame buffer;
        // pairing them with *this* exchange's request would misfile
        // every reply by one. Poisoned — reconnect.
        if state
            .conn
            .as_ref()
            .is_some_and(|c| c.reader.buffered_bytes() > 0)
        {
            state.conn = None;
        }
        let mut attempts = if idempotent(req) { 2 } else { 1 };
        loop {
            if state.conn.is_none() {
                if let Some(at) = state.retry_at {
                    if Instant::now() < at {
                        return None; // back off: degrade to a miss immediately
                    }
                }
                match Self::connect(&self.addr, CLIENT_IO_TIMEOUT) {
                    Ok(stream) => {
                        state.conn = Some(Conn {
                            stream,
                            reader: FrameReader::new(),
                        });
                    }
                    Err(_) => {
                        self.note_failure(&mut state);
                        return None;
                    }
                }
            }
            let conn = state.conn.as_mut().expect("connected above");
            match Self::run_exchange(conn, frame, req) {
                Ok(reply) => {
                    // Only a completed exchange proves the daemon healthy.
                    // Resetting on connect alone would pin the backoff at its
                    // base against a daemon that accepts (the kernel
                    // completes handshakes from the backlog) but never
                    // replies — each request would burn the full I/O timeout
                    // forever instead of backing off.
                    state.consecutive_failures = 0;
                    state.retry_at = None;
                    self.round_trips.fetch_add(1, Ordering::Relaxed);
                    return Some(reply);
                }
                Err(_) => {
                    // The connection is indeterminate either way: drop it.
                    state.conn = None;
                    attempts -= 1;
                    if attempts == 0 {
                        self.note_failure(&mut state);
                        return None;
                    }
                }
            }
        }
    }

    /// Saves over the wire; `true` iff the daemon acknowledged.
    pub fn try_save(&self, ns: &str, key: &str, value: &str) -> bool {
        let acked = matches!(
            self.request(&Request::Put {
                ns: ns.to_string(),
                key: key.to_string(),
                value: value.to_string(),
            }),
            Some(Response::Done)
        );
        if !acked {
            self.put_errors.fetch_add(1, Ordering::Relaxed);
        }
        acked
    }

    /// The daemon's occupancy report, if reachable.
    #[must_use]
    pub fn stats(&self) -> Option<StoreStats> {
        match self.request(&Request::Stats) {
            Some(Response::Stats(s)) => Some(s),
            _ => None,
        }
    }

    /// The daemon's liveness report, if reachable. Cheaper than
    /// [`Self::stats`] and safe to poll.
    #[must_use]
    pub fn health(&self) -> Option<HealthReport> {
        match self.request(&Request::Health) {
            Some(Response::Health(h)) => Some(h),
            _ => None,
        }
    }

    /// Asks the daemon for a GC pass now; its report, if reachable.
    #[must_use]
    pub fn gc(&self) -> Option<GcReport> {
        match self.request(&Request::Gc) {
            Some(Response::Gc(r)) => Some(r),
            _ => None,
        }
    }

    /// Asks the daemon to exit; `true` iff it acknowledged.
    pub fn shutdown(&self) -> bool {
        matches!(self.request(&Request::Shutdown), Some(Response::Done))
    }
}

impl StoreBackend for RemoteStore {
    fn load(&self, ns: &str, key: &str) -> Option<String> {
        self.load_many(&[(ns.to_string(), key.to_string())])
            .pop()
            .flatten()
    }

    fn save(&self, ns: &str, key: &str, value: &str) {
        let _ = self.try_save(ns, key, value);
    }

    fn load_many(&self, items: &[(String, String)]) -> Vec<Option<String>> {
        if items.is_empty() {
            return Vec::new();
        }
        // One MGET frame for the whole batch, encoded from the borrowed
        // pairs (an empty `MGET` stands in for its kind): one round trip.
        // A lost exchange, an error reply or a reply with the wrong slot
        // count degrades the batch to misses.
        let kind = Request::MGet { items: Vec::new() };
        let out = match self.exchange(&Request::mget_frame(items), &kind) {
            Some(Response::MGot { values }) if values.len() == items.len() => values,
            _ => vec![None; items.len()],
        };
        let hit_count = out.iter().filter(|v| v.is_some()).count() as u64;
        self.hits.fetch_add(hit_count, Ordering::Relaxed);
        self.misses
            .fetch_add(items.len() as u64 - hit_count, Ordering::Relaxed);
        out
    }

    fn claim(&self, ns: &str, key: &str, lease: Duration) -> ClaimOutcome {
        let lease_ms = u64::try_from(lease.as_millis()).unwrap_or(u64::MAX);
        match self.request(&Request::Claim {
            ns: ns.to_string(),
            key: key.to_string(),
            lease_ms,
        }) {
            Some(Response::Hit { value }) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                ClaimOutcome::Hit(value)
            }
            Some(Response::Granted) => ClaimOutcome::Granted,
            Some(Response::Busy) => ClaimOutcome::Busy,
            // Error reply or unreachable daemon: the caller computes
            // locally — a failure is never more than a miss.
            _ => ClaimOutcome::Unsupported,
        }
    }

    fn wait_for(&self, ns: &str, key: &str, timeout: Duration) -> Option<String> {
        // A parked WAIT would block the shared mutex-serialized
        // connection for every other thread; use a throwaway connection
        // whose read timeout outlives the server-side park.
        let exchange = || -> io::Result<Option<String>> {
            let mut stream =
                Self::connect(&self.addr, timeout.saturating_add(Duration::from_secs(5)))?;
            let timeout_ms = u64::try_from(timeout.as_millis()).unwrap_or(u64::MAX);
            let req = Request::Wait {
                ns: ns.to_string(),
                key: key.to_string(),
                timeout_ms,
            };
            stream.write_all(&req.to_frame())?;
            let mut reader = FrameReader::new();
            let payload = reader.read_frame(&mut stream)?.ok_or_else(|| {
                io::Error::new(io::ErrorKind::UnexpectedEof, "daemon closed the connection")
            })?;
            match Response::decode(&payload) {
                Ok(Response::Hit { value }) => Ok(Some(value)),
                _ => Ok(None),
            }
        };
        exchange().ok().flatten()
    }

    fn write_errors(&self) -> u64 {
        self.put_errors.load(Ordering::Relaxed)
    }

    fn namespace_records(&self, ns: &str) -> usize {
        self.stats().map_or(0, |stats| {
            usize::try_from(stats.namespaces.get(ns)).unwrap_or(usize::MAX)
        })
    }

    fn describe(&self) -> String {
        format!("tcp://{}", self.addr)
    }
}

/// Remote-first storage with a machine-local fallback.
///
/// - **Load**: the daemon is asked first; a remote miss (or an
///   unreachable daemon) falls back to the local store. A remote hit
///   backfills nothing locally and a local hit pushes nothing to the
///   daemon — the daemon stays the single source of truth, the local
///   layer a read-only legacy of pre-daemon runs plus a degraded-mode
///   spill. Batched loads probe the daemon in one round trip, then fill
///   only the missed slots locally.
/// - **Save**: goes to the daemon; only while the daemon is unreachable
///   does it land in the local store instead, so degraded runs stay warm
///   for the next local process.
/// - **Claim/wait**: daemon-global (that is the point); an unreachable
///   daemon degrades claims to `Unsupported`, i.e. local compute.
#[derive(Debug)]
pub struct LayeredStore {
    remote: RemoteStore,
    local: Option<Arc<ArtifactStore>>,
}

impl LayeredStore {
    /// Stacks `remote` over an optional machine-local fallback.
    #[must_use]
    pub fn new(remote: RemoteStore, local: Option<Arc<ArtifactStore>>) -> Self {
        Self { remote, local }
    }

    /// The remote layer.
    #[must_use]
    pub fn remote(&self) -> &RemoteStore {
        &self.remote
    }

    /// The local fallback layer, if any.
    #[must_use]
    pub fn local(&self) -> Option<&Arc<ArtifactStore>> {
        self.local.as_ref()
    }
}

impl StoreBackend for LayeredStore {
    fn load(&self, ns: &str, key: &str) -> Option<String> {
        if let Some(value) = self.remote.load(ns, key) {
            return Some(value);
        }
        self.local.as_ref().and_then(|l| l.load(ns, key))
    }

    fn save(&self, ns: &str, key: &str, value: &str) {
        if self.remote.try_save(ns, key, value) {
            return;
        }
        if let Some(local) = &self.local {
            local.save(ns, key, value);
        }
    }

    fn load_many(&self, items: &[(String, String)]) -> Vec<Option<String>> {
        let mut out = self.remote.load_many(items);
        if let Some(local) = &self.local {
            for (slot, (ns, key)) in out.iter_mut().zip(items) {
                if slot.is_none() {
                    *slot = local.load(ns, key);
                }
            }
        }
        out
    }

    fn claim(&self, ns: &str, key: &str, lease: Duration) -> ClaimOutcome {
        match self.remote.claim(ns, key, lease) {
            // The daemon missed but the local layer may still be warm —
            // a legacy local hit must stay a hit, not a recompute.
            ClaimOutcome::Granted => match self.local.as_ref().and_then(|l| l.load(ns, key)) {
                Some(value) => ClaimOutcome::Hit(value),
                None => ClaimOutcome::Granted,
            },
            outcome => outcome,
        }
    }

    fn wait_for(&self, ns: &str, key: &str, timeout: Duration) -> Option<String> {
        self.remote.wait_for(ns, key, timeout)
    }

    fn write_errors(&self) -> u64 {
        self.remote.write_errors()
            + self
                .local
                .as_ref()
                .map_or(0, |l| ArtifactStore::write_errors(l))
    }

    fn namespace_records(&self, ns: &str) -> usize {
        let remote = self.remote.namespace_records(ns);
        if remote > 0 {
            return remote;
        }
        self.local
            .as_ref()
            .map_or(0, |l| ArtifactStore::namespace_records(l, ns))
    }

    fn describe(&self) -> String {
        match &self.local {
            Some(local) => format!("tcp://{} + {}", self.remote.addr(), local.dir().display()),
            None => self.remote.describe(),
        }
    }
}
