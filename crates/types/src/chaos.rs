//! Deterministic fault injection for the store stack.
//!
//! The store's robustness story — "every failure is a miss" — is easy
//! to assert and hard to trust. This module makes it *demonstrable*
//! under adversarial schedules while keeping every run reproducible:
//!
//! - [`FaultPlan`] — a seeded schedule of faults. Every decision is a
//!   pure function of `(seed, domain, operation index)` via
//!   [`SplitMix64`], so the same seed injects the same faults at the
//!   same operations, run after run.
//! - [`ChaosBackend`] — wraps any [`StoreBackend`] and injects local
//!   faults: missing loads, delayed returns, corrupted record bytes,
//!   dropped saves, and torn (crash-mid-append) shard tails.
//! - [`ChaosProxy`] — a TCP shim between [`RemoteStore`] and the
//!   daemon that injects network faults: connection resets mid-frame,
//!   byte-level truncation, stalls past the client's read timeout,
//!   duplicated frames, and garbage bytes.
//!
//! Both injectors are selected via [`CHAOS_SEED_ENV`] /
//! [`CHAOS_PLAN_ENV`] (see [`FaultPlan::from_env`]) so tests and the
//! `chaos_soak` harness can turn the screws without code changes.
//!
//! Fault decisions are deterministic by operation count. Network chunk
//! boundaries, however, depend on OS timing, so a [`ChaosProxy`]
//! schedule is deterministic *per chunk sequence*, not bit-for-bit
//! per run — which is fine, because the invariant the soak harness
//! checks is stronger: the simulation's stdout must be byte-identical
//! to a fault-free run *no matter where* the faults land.
//!
//! [`RemoteStore`]: crate::net::RemoteStore

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::record::fnv1a64;
use crate::store::{ClaimOutcome, StoreBackend, SHARD_COUNT, STORE_FORMAT_VERSION};

/// Environment variable holding the chaos seed. When set (to a `u64`),
/// `cfr_core::Store::open_default` wraps its backend in a
/// [`ChaosBackend`] driven by [`FaultPlan::from_env`].
pub const CHAOS_SEED_ENV: &str = "CFR_CHAOS_SEED";

/// Environment variable tuning fault rates on top of the seed, as a
/// lenient `key=value,key=value` list (see [`FaultPlan::with`]).
pub const CHAOS_PLAN_ENV: &str = "CFR_CHAOS_PLAN";

/// SplitMix64 — the same tiny, high-quality PRNG the workload crate
/// uses for trace generation, copied here (the dependency arrow points
/// workload → types) so fault schedules are seeded identically across
/// crates.
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A generator whose whole future is determined by `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// The next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform draw in `[0, 1)` with 53 bits of precision.
    #[allow(clippy::cast_precision_loss)]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// A local (in-process) fault injected by [`ChaosBackend`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BackendFault {
    /// The load reports a miss even though the record may exist.
    Miss,
    /// The operation returns late (models a slow disk / contended lock).
    Delay,
    /// The loaded value comes back corrupted (models bit rot that
    /// slipped past the framing checks).
    Corrupt,
    /// The save is dropped (models a full disk / EIO on append).
    SaveErr,
    /// The save crashes mid-append, leaving a torn record at the shard
    /// tail (models power loss; recovery must resync past it).
    Torn,
}

/// A network fault injected by [`ChaosProxy`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProxyFault {
    /// The connection is reset mid-frame.
    Reset,
    /// The chunk is truncated byte-level, then the connection drops.
    Truncate,
    /// The chunk is delayed past the peer's read timeout.
    Stall,
    /// The chunk is delivered twice, then the connection drops (the
    /// reset bounds how long a desynchronized reply stream can be
    /// misread — the client's reply validation catches the rest).
    Duplicate,
    /// Garbage bytes replace the chunk, then the connection drops.
    Garbage,
}

/// A seeded, deterministic fault schedule.
///
/// Rates are probabilities in `[0, 1]` per operation (backend) or per
/// forwarded chunk (proxy). The decision for operation `n` is a pure
/// function of `(seed, domain, n)`, so two runs with the same seed and
/// the same operation sequence inject identical faults.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan {
    /// The seed every decision derives from.
    pub seed: u64,
    /// Backend: probability a load reports a miss.
    pub miss: f64,
    /// Backend: probability an operation is delayed by [`Self::delay_ms`].
    pub delay: f64,
    /// Backend: probability a loaded value is corrupted.
    pub corrupt: f64,
    /// Backend: probability a save is dropped.
    pub save_err: f64,
    /// Backend: probability a save tears mid-append.
    pub torn: f64,
    /// Proxy: probability a chunk triggers a connection reset.
    pub reset: f64,
    /// Proxy: probability a chunk is truncated.
    pub truncate: f64,
    /// Proxy: probability a chunk stalls for [`Self::stall_ms`].
    pub stall: f64,
    /// Proxy: probability a chunk is duplicated.
    pub dup: f64,
    /// Proxy: probability a chunk is replaced with garbage.
    pub garbage: f64,
    /// Milliseconds a [`BackendFault::Delay`] sleeps.
    pub delay_ms: u64,
    /// Milliseconds a [`ProxyFault::Stall`] sleeps.
    pub stall_ms: u64,
}

/// Domain tag mixed into the per-operation seed so backend and proxy
/// schedules are independent streams off one seed.
const DOMAIN_BACKEND: u64 = 1;
const DOMAIN_PROXY: u64 = 2;

impl FaultPlan {
    /// The default chaos mix: every fault class enabled at low rates —
    /// enough to exercise each recovery path over a few thousand
    /// operations without drowning the run in retries.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            miss: 0.01,
            delay: 0.01,
            corrupt: 0.005,
            save_err: 0.01,
            torn: 0.002,
            reset: 0.01,
            truncate: 0.005,
            stall: 0.002,
            dup: 0.005,
            garbage: 0.002,
            delay_ms: 2,
            stall_ms: 50,
        }
    }

    /// A plan with every rate at zero — a no-op injector that tests
    /// enable one fault at a time on (see [`Self::with`]).
    #[must_use]
    pub fn quiet(seed: u64) -> Self {
        Self {
            seed,
            miss: 0.0,
            delay: 0.0,
            corrupt: 0.0,
            save_err: 0.0,
            torn: 0.0,
            reset: 0.0,
            truncate: 0.0,
            stall: 0.0,
            dup: 0.0,
            garbage: 0.0,
            delay_ms: 2,
            stall_ms: 50,
        }
    }

    /// Applies a lenient `key=value,key=value` spec on top of this
    /// plan. Keys are the rate field names (`miss`, `delay`, `corrupt`,
    /// `save_err`, `torn`, `reset`, `truncate`, `stall`, `dup`,
    /// `garbage`) plus `delay_ms`/`stall_ms`; unknown keys and
    /// unparseable values are ignored, rates are clamped to `[0, 1]`.
    #[must_use]
    pub fn with(mut self, spec: &str) -> Self {
        for pair in spec.split(',') {
            let Some((key, value)) = pair.split_once('=') else {
                continue;
            };
            let key = key.trim();
            let value = value.trim();
            if let Ok(ms) = value.parse::<u64>() {
                match key {
                    "delay_ms" => {
                        self.delay_ms = ms;
                        continue;
                    }
                    "stall_ms" => {
                        self.stall_ms = ms;
                        continue;
                    }
                    _ => {}
                }
            }
            let Ok(rate) = value.parse::<f64>() else {
                continue;
            };
            let rate = rate.clamp(0.0, 1.0);
            match key {
                "miss" => self.miss = rate,
                "delay" => self.delay = rate,
                "corrupt" => self.corrupt = rate,
                "save_err" => self.save_err = rate,
                "torn" => self.torn = rate,
                "reset" => self.reset = rate,
                "truncate" => self.truncate = rate,
                "stall" => self.stall = rate,
                "dup" => self.dup = rate,
                "garbage" => self.garbage = rate,
                _ => {}
            }
        }
        self
    }

    /// The plan the environment selects: `Some` iff [`CHAOS_SEED_ENV`]
    /// holds a `u64`, with [`CHAOS_PLAN_ENV`] applied on top when set.
    #[must_use]
    pub fn from_env() -> Option<Self> {
        let seed = std::env::var(CHAOS_SEED_ENV)
            .ok()?
            .trim()
            .parse::<u64>()
            .ok()?;
        let plan = Self::new(seed);
        match std::env::var(CHAOS_PLAN_ENV) {
            Ok(spec) => Some(plan.with(&spec)),
            Err(_) => Some(plan),
        }
    }

    /// One uniform draw for operation `op` in `domain` — pure in
    /// `(seed, domain, op)`, independent across domains.
    fn draw(&self, domain: u64, op: u64) -> f64 {
        let mixed = self
            .seed
            .wrapping_add(domain.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(op.wrapping_mul(0xBF58_476D_1CE4_E5B9));
        SplitMix64::new(mixed).next_f64()
    }

    /// The backend fault (if any) scheduled for operation `op`.
    #[must_use]
    pub fn backend_fault(&self, op: u64) -> Option<BackendFault> {
        let x = self.draw(DOMAIN_BACKEND, op);
        let mut edge = 0.0;
        let table = [
            (self.miss, BackendFault::Miss),
            (self.delay, BackendFault::Delay),
            (self.corrupt, BackendFault::Corrupt),
            (self.save_err, BackendFault::SaveErr),
            (self.torn, BackendFault::Torn),
        ];
        for (rate, fault) in table {
            edge += rate;
            if x < edge {
                return Some(fault);
            }
        }
        None
    }

    /// The proxy fault (if any) scheduled for forwarded chunk `op`.
    #[must_use]
    pub fn proxy_fault(&self, op: u64) -> Option<ProxyFault> {
        let x = self.draw(DOMAIN_PROXY, op);
        let mut edge = 0.0;
        let table = [
            (self.reset, ProxyFault::Reset),
            (self.truncate, ProxyFault::Truncate),
            (self.stall, ProxyFault::Stall),
            (self.dup, ProxyFault::Duplicate),
            (self.garbage, ProxyFault::Garbage),
        ];
        for (rate, fault) in table {
            edge += rate;
            if x < edge {
                return Some(fault);
            }
        }
        None
    }
}

// ------------------------------------------------------- ChaosBackend

/// A [`StoreBackend`] decorator that injects [`BackendFault`]s on a
/// deterministic schedule.
///
/// Each operation consumes one schedule slot; a fault class that does
/// not apply to the operation's kind is a no-op for that slot
/// (`Miss`/`Corrupt` on a save, `SaveErr`/`Torn` on a load), which
/// keeps the schedule aligned with the operation count regardless of
/// the load/save mix.
///
/// Every injected fault is *inside* the store contract: a missing or
/// corrupted load is a miss (corrupt values fail the typed record
/// parse upstream), a dropped save is a write error, a torn append is
/// exactly what the open-time scan resyncs past. The simulation's
/// outputs must therefore be byte-identical with or without the
/// injector — that is the invariant `chaos_soak` proves.
#[derive(Debug)]
pub struct ChaosBackend {
    inner: Arc<dyn StoreBackend>,
    plan: FaultPlan,
    ops: AtomicU64,
    shard_dir: Option<PathBuf>,
    injected: AtomicU64,
    dropped_saves: AtomicU64,
}

impl ChaosBackend {
    /// Wraps `inner` with the fault schedule in `plan`.
    #[must_use]
    pub fn new(inner: Arc<dyn StoreBackend>, plan: FaultPlan) -> Self {
        Self {
            inner,
            plan,
            ops: AtomicU64::new(0),
            shard_dir: None,
            injected: AtomicU64::new(0),
            dropped_saves: AtomicU64::new(0),
        }
    }

    /// Points torn-append injection at a real shard directory. Without
    /// it, [`BackendFault::Torn`] degrades to a dropped save (there is
    /// no tail to tear when the inner backend is remote).
    #[must_use]
    pub fn with_shard_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.shard_dir = Some(dir.into());
        self
    }

    /// Total faults injected so far (diagnostics / soak report).
    #[must_use]
    pub fn injected_faults(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    /// The fault (if any) for the next operation slot.
    fn next_fault(&self) -> Option<BackendFault> {
        let op = self.ops.fetch_add(1, Ordering::Relaxed);
        let fault = self.plan.backend_fault(op);
        if fault.is_some() {
            self.injected.fetch_add(1, Ordering::Relaxed);
        }
        fault
    }

    /// Appends a torn record (header + key + half the value, no
    /// trailing newline) to the key's shard file — the exact on-disk
    /// state a crash mid-append leaves behind.
    fn tear_append(&self, ns: &str, key: &str, value: &str) -> bool {
        let Some(dir) = &self.shard_dir else {
            return false;
        };
        let shard = fnv1a64(&format!("{ns}\n{key}")) % u64::from(SHARD_COUNT);
        let path = dir.join(format!("shard-{shard:02}.cfr"));
        let record = format!(
            "rec {STORE_FORMAT_VERSION} {ns} 0 {} {}\n{key}\n{value}\n",
            key.len(),
            value.len()
        );
        let cut = record.len() - value.len() / 2 - 2;
        let Ok(mut f) = std::fs::OpenOptions::new().append(true).open(&path) else {
            return false;
        };
        f.write_all(&record.as_bytes()[..cut]).is_ok()
    }
}

impl StoreBackend for ChaosBackend {
    fn load(&self, ns: &str, key: &str) -> Option<String> {
        match self.next_fault() {
            Some(BackendFault::Miss) => return None,
            Some(BackendFault::Delay) => {
                std::thread::sleep(Duration::from_millis(self.plan.delay_ms));
            }
            Some(BackendFault::Corrupt) => {
                // A corrupt prefix breaks every typed record codec's
                // leading tag, so the caller's parse fails and the
                // load degrades to a miss — modelling rot that slipped
                // past framing. Single line, so text framing holds.
                return self.inner.load(ns, key).map(|v| format!("corrupt!{v}"));
            }
            _ => {}
        }
        self.inner.load(ns, key)
    }

    fn save(&self, ns: &str, key: &str, value: &str) {
        match self.next_fault() {
            Some(BackendFault::SaveErr) => {
                self.dropped_saves.fetch_add(1, Ordering::Relaxed);
            }
            Some(BackendFault::Torn) => {
                self.dropped_saves.fetch_add(1, Ordering::Relaxed);
                self.tear_append(ns, key, value);
            }
            Some(BackendFault::Delay) => {
                std::thread::sleep(Duration::from_millis(self.plan.delay_ms));
                self.inner.save(ns, key, value);
            }
            _ => self.inner.save(ns, key, value),
        }
    }

    fn load_many(&self, items: &[(String, String)]) -> Vec<Option<String>> {
        items.iter().map(|(ns, key)| self.load(ns, key)).collect()
    }

    fn claim(&self, ns: &str, key: &str, lease: Duration) -> ClaimOutcome {
        match self.next_fault() {
            // A faulted claim degrades exactly like a coordinator-less
            // backend: compute locally, no dedup.
            Some(BackendFault::Miss) => ClaimOutcome::Unsupported,
            Some(BackendFault::Delay) => {
                std::thread::sleep(Duration::from_millis(self.plan.delay_ms));
                self.inner.claim(ns, key, lease)
            }
            _ => self.inner.claim(ns, key, lease),
        }
    }

    fn wait_for(&self, ns: &str, key: &str, timeout: Duration) -> Option<String> {
        match self.next_fault() {
            Some(BackendFault::Miss) => None,
            _ => self.inner.wait_for(ns, key, timeout),
        }
    }

    fn write_errors(&self) -> u64 {
        self.inner.write_errors() + self.dropped_saves.load(Ordering::Relaxed)
    }

    fn namespace_records(&self, ns: &str) -> usize {
        self.inner.namespace_records(ns)
    }

    fn describe(&self) -> String {
        format!("chaos(seed={})+{}", self.plan.seed, self.inner.describe())
    }
}

// --------------------------------------------------------- ChaosProxy

/// A TCP shim between a store client and the daemon that injects
/// [`ProxyFault`]s on a deterministic per-chunk schedule.
///
/// Point the client at [`ChaosProxy::addr`] instead of the daemon.
/// Each accepted connection gets two pump threads (client→daemon and
/// daemon→client) sharing one operation counter, so fault decisions
/// stay globally sequenced. Faults that break the stream
/// (`Reset`/`Truncate`/`Duplicate`/`Garbage`) drop *that* connection;
/// the client's reconnect machinery takes it from there.
#[derive(Debug)]
pub struct ChaosProxy {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    injected: Arc<AtomicU64>,
}

/// How long a proxy pump blocks in `read` before re-checking the stop
/// flag — bounds shutdown latency without busy-waiting.
const PUMP_TICK: Duration = Duration::from_millis(50);

impl ChaosProxy {
    /// Starts a proxy on an ephemeral localhost port forwarding to
    /// `upstream`, injecting faults per `plan`.
    ///
    /// # Errors
    /// Fails only if the listener cannot bind.
    pub fn start(upstream: SocketAddr, plan: FaultPlan) -> std::io::Result<Self> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let injected = Arc::new(AtomicU64::new(0));
        let ops = Arc::new(AtomicU64::new(0));

        let accept = {
            let stop = Arc::clone(&stop);
            let injected = Arc::clone(&injected);
            std::thread::spawn(move || {
                let mut pumps: Vec<JoinHandle<()>> = Vec::new();
                for conn in listener.incoming() {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(client) = conn else { continue };
                    let Ok(server) = TcpStream::connect(upstream) else {
                        let _ = client.shutdown(Shutdown::Both);
                        continue;
                    };
                    let _ = client.set_read_timeout(Some(PUMP_TICK));
                    let _ = server.set_read_timeout(Some(PUMP_TICK));
                    let (Ok(c2), Ok(s2)) = (client.try_clone(), server.try_clone()) else {
                        continue;
                    };
                    let up = PumpSide {
                        from: client,
                        to: server,
                        plan: plan.clone(),
                        ops: Arc::clone(&ops),
                        stop: Arc::clone(&stop),
                        injected: Arc::clone(&injected),
                    };
                    let down = PumpSide {
                        from: s2,
                        to: c2,
                        plan: plan.clone(),
                        ops: Arc::clone(&ops),
                        stop: Arc::clone(&stop),
                        injected: Arc::clone(&injected),
                    };
                    pumps.push(std::thread::spawn(move || up.run()));
                    pumps.push(std::thread::spawn(move || down.run()));
                }
                for pump in pumps {
                    let _ = pump.join();
                }
            })
        };

        Ok(Self {
            addr,
            stop,
            accept: Some(accept),
            injected,
        })
    }

    /// The address clients should connect to.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Total network faults injected so far.
    #[must_use]
    pub fn injected_faults(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    /// Stops accepting, drops every live pump, and joins the threads.
    pub fn stop(&mut self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock the acceptor with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        self.stop();
    }
}

/// One direction of a proxied connection.
struct PumpSide {
    from: TcpStream,
    to: TcpStream,
    plan: FaultPlan,
    ops: Arc<AtomicU64>,
    stop: Arc<AtomicBool>,
    injected: Arc<AtomicU64>,
}

impl PumpSide {
    /// Forwards chunks until EOF, error, stop, or a stream-breaking
    /// fault; tears both stream halves down on exit so the sibling
    /// pump unblocks too.
    fn run(self) {
        let PumpSide {
            mut from,
            mut to,
            plan,
            ops,
            stop,
            injected,
        } = self;
        let mut buf = [0u8; 16 * 1024];
        loop {
            if stop.load(Ordering::SeqCst) {
                break;
            }
            let n = match from.read(&mut buf) {
                Ok(0) => break,
                Ok(n) => n,
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    continue;
                }
                Err(_) => break,
            };
            let op = ops.fetch_add(1, Ordering::Relaxed);
            let fault = plan.proxy_fault(op);
            if fault.is_some() {
                injected.fetch_add(1, Ordering::Relaxed);
            }
            match fault {
                None => {
                    if to.write_all(&buf[..n]).is_err() {
                        break;
                    }
                }
                Some(ProxyFault::Stall) => {
                    std::thread::sleep(Duration::from_millis(plan.stall_ms));
                    if to.write_all(&buf[..n]).is_err() {
                        break;
                    }
                }
                Some(ProxyFault::Truncate) => {
                    let _ = to.write_all(&buf[..n / 2]);
                    break;
                }
                Some(ProxyFault::Reset) => break,
                Some(ProxyFault::Duplicate) => {
                    let _ = to.write_all(&buf[..n]);
                    let _ = to.write_all(&buf[..n]);
                    break;
                }
                Some(ProxyFault::Garbage) => {
                    let _ = to.write_all(b"\xffchaos garbage\xff");
                    break;
                }
            }
        }
        let _ = from.shutdown(Shutdown::Both);
        let _ = to.shutdown(Shutdown::Both);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::ArtifactStore;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cfr-chaos-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn same_seed_means_same_schedule() {
        let a = FaultPlan::new(42);
        let b = FaultPlan::new(42);
        for op in 0..10_000 {
            assert_eq!(a.backend_fault(op), b.backend_fault(op));
            assert_eq!(a.proxy_fault(op), b.proxy_fault(op));
        }
    }

    #[test]
    fn domains_are_independent_streams() {
        let plan = FaultPlan::new(7).with("miss=0.5,reset=0.5");
        let backend: Vec<_> = (0..256).map(|op| plan.backend_fault(op)).collect();
        let proxy: Vec<_> = (0..256).map(|op| plan.proxy_fault(op)).collect();
        let backend_hits = backend.iter().filter(|f| f.is_some()).count();
        let proxy_hits = proxy.iter().filter(|f| f.is_some()).count();
        assert!(backend_hits > 64 && backend_hits < 192);
        assert!(proxy_hits > 64 && proxy_hits < 192);
        // The two schedules must not be the same sequence in disguise.
        let aligned = backend
            .iter()
            .zip(&proxy)
            .filter(|(b, p)| b.is_some() == p.is_some())
            .count();
        assert!(aligned < 256);
    }

    #[test]
    fn plan_spec_parses_leniently() {
        let plan = FaultPlan::quiet(1).with("miss=0.25, torn = 1.5, junk=oops, stall_ms=125,,");
        assert!((plan.miss - 0.25).abs() < 1e-12);
        assert!((plan.torn - 1.0).abs() < 1e-12, "rates clamp to [0,1]");
        assert_eq!(plan.stall_ms, 125);
        assert!((plan.reset - 0.0).abs() < 1e-12);
    }

    #[test]
    fn forced_miss_hides_every_record() {
        let dir = temp_dir("forced-miss");
        let store =
            Arc::new(ArtifactStore::open(&dir, crate::store::GcPolicy::unbounded()).unwrap());
        store.save("runs", "k", "v");
        let chaos = ChaosBackend::new(store, FaultPlan::quiet(3).with("miss=1"));
        for _ in 0..32 {
            assert_eq!(chaos.load("runs", "k"), None);
        }
        assert!(chaos.injected_faults() >= 32);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn forced_corrupt_prefixes_the_value() {
        let dir = temp_dir("forced-corrupt");
        let store =
            Arc::new(ArtifactStore::open(&dir, crate::store::GcPolicy::unbounded()).unwrap());
        store.save("runs", "k", "v");
        let chaos = ChaosBackend::new(store, FaultPlan::quiet(3).with("corrupt=1"));
        assert_eq!(chaos.load("runs", "k"), Some("corrupt!v".to_string()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dropped_saves_count_as_write_errors() {
        let dir = temp_dir("dropped-saves");
        let store =
            Arc::new(ArtifactStore::open(&dir, crate::store::GcPolicy::unbounded()).unwrap());
        let chaos = ChaosBackend::new(Arc::clone(&store) as Arc<dyn StoreBackend>, {
            FaultPlan::quiet(9).with("save_err=1")
        });
        chaos.save("runs", "k", "v");
        assert_eq!(chaos.write_errors(), 1);
        assert_eq!(store.load("runs", "k"), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn quiet_proxy_passes_bytes_through() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let upstream = listener.local_addr().unwrap();
        let echo = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            let mut buf = [0u8; 64];
            let n = conn.read(&mut buf).unwrap();
            conn.write_all(&buf[..n]).unwrap();
        });
        let mut proxy = ChaosProxy::start(upstream, FaultPlan::quiet(5)).unwrap();
        let mut conn = TcpStream::connect(proxy.addr()).unwrap();
        conn.write_all(b"ping").unwrap();
        let mut reply = [0u8; 4];
        conn.read_exact(&mut reply).unwrap();
        assert_eq!(&reply, b"ping");
        assert_eq!(proxy.injected_faults(), 0);
        proxy.stop();
        echo.join().unwrap();
    }

    #[test]
    fn reset_proxy_drops_the_connection() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let upstream = listener.local_addr().unwrap();
        let sink = std::thread::spawn(move || {
            if let Ok((mut conn, _)) = listener.accept() {
                let mut buf = [0u8; 64];
                while matches!(conn.read(&mut buf), Ok(n) if n > 0) {}
            }
        });
        let mut proxy = ChaosProxy::start(upstream, FaultPlan::quiet(5).with("reset=1")).unwrap();
        let mut conn = TcpStream::connect(proxy.addr()).unwrap();
        conn.write_all(b"doomed").unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut buf = [0u8; 16];
        // The proxy never forwards and tears the conn down: EOF or error.
        assert!(!matches!(conn.read(&mut buf), Ok(n) if n > 0));
        proxy.stop();
        sink.join().unwrap();
    }

    #[test]
    fn from_env_requires_a_seed() {
        // Never mutates the environment (set_var is unsafe in this
        // edition and racy under the parallel test harness) — just
        // documents that absent/garbage seeds disable chaos entirely.
        if std::env::var(CHAOS_SEED_ENV).is_err() {
            assert_eq!(FaultPlan::from_env(), None);
        }
    }
}
