//! Spans and counters at the store boundary.
//!
//! The engine is opaque to the benchmark except where it calls into the
//! store, so the benchmark wraps the store backend it hands the engine in
//! a [`Probe`]: every record the engine persists or probes passes through
//! here, which yields exact per-namespace work counts (programs generated,
//! traces compiled, runs simulated, …) and, in a traced run, one span per
//! store call.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use cfr_core::{ClaimOutcome, RunReport, StoreBackend};
use cfr_types::{RecordReader, NS_PROGRAMS, NS_RUNS, NS_SCENARIOS, NS_TRACES, NS_WALKS};

use crate::layers::cell_index;

/// One timed call into a layer.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    /// The span that caused this one (0 for a pass's root span).
    pub parent: u64,
    /// The root span of the pass this span belongs to.
    pub pass: u64,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    #[must_use]
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// In-memory span recorder; spans are written out when the run ends.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next: AtomicU64,
    /// Innermost open span on the driving thread: the parent of store
    /// calls, which the engine may make from its worker threads.
    current: AtomicU64,
    pass: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    #[must_use]
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            next: AtomicU64::new(1),
            current: AtomicU64::new(0),
            pass: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`, nested under the current span
    /// (or opening a new pass when `root`).
    pub fn span<R>(&self, name: &str, root: bool, f: impl FnOnce() -> R) -> R {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let parent = if root {
            self.pass.store(id, Ordering::Relaxed);
            0
        } else {
            self.current.load(Ordering::Relaxed)
        };
        let pass = self.pass.load(Ordering::Relaxed);
        let outer = self.current.swap(id, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.current.store(outer, Ordering::Relaxed);
        self.push(Span {
            id,
            parent,
            pass,
            name: name.to_string(),
            start_ns,
            end_ns,
        });
        out
    }

    /// Records a finished leaf span under the current span (used from
    /// worker threads, where the timing is taken around the call).
    fn leaf(&self, name: &str, start: Instant, end: Instant) {
        let to_ns =
            |t: Instant| u64::try_from(t.duration_since(self.epoch).as_nanos()).unwrap_or(0);
        self.push(Span {
            id: self.next.fetch_add(1, Ordering::Relaxed),
            parent: self.current.load(Ordering::Relaxed),
            pass: self.pass.load(Ordering::Relaxed),
            name: name.to_string(),
            start_ns: to_ns(start),
            end_ns: to_ns(end),
        });
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("span log poisoned").push(span);
    }

    /// Every span recorded so far, in completion order.
    #[must_use]
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span log poisoned").clone()
    }

    /// The spans as JSON lines.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in self.spans() {
            let _ = writeln!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"pass\": {}, \"name\": \"{}\", \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                s.id, s.parent, s.pass, s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

/// Self time of `span`: its duration minus the part of it that its
/// children's (possibly overlapping) intervals cover.
#[must_use]
pub fn self_seconds(span: &Span, all: &[Span]) -> f64 {
    let mut kids: Vec<(u64, u64)> = all
        .iter()
        .filter(|s| s.parent == span.id)
        .map(|s| (s.start_ns.max(span.start_ns), s.end_ns.min(span.end_ns)))
        .filter(|(a, b)| a < b)
        .collect();
    kids.sort_unstable();
    let mut covered = 0u64;
    let mut reach = span.start_ns;
    for (a, b) in kids {
        let a = a.max(reach);
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    (span.end_ns - span.start_ns - covered) as f64 / 1e9
}

/// Per-namespace record counts.
#[derive(Debug, Default)]
pub struct NsCounts {
    pub runs: AtomicU64,
    pub walks: AtomicU64,
    pub programs: AtomicU64,
    pub traces: AtomicU64,
    pub scenarios: AtomicU64,
}

impl NsCounts {
    fn bump(&self, ns: &str) {
        let counter = match ns {
            NS_RUNS => &self.runs,
            NS_WALKS => &self.walks,
            NS_PROGRAMS => &self.programs,
            NS_TRACES => &self.traces,
            NS_SCENARIOS => &self.scenarios,
            _ => return,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

/// A [`StoreBackend`] that forwards every call to `inner` and counts what
/// crosses it. Counting is always on (a few atomic adds per batched call,
/// plus one report decode per simulated run); spans only with a tracer.
#[derive(Debug)]
pub struct Probe {
    inner: Arc<dyn StoreBackend>,
    tracer: Option<Arc<Tracer>>,
    /// Records written, per namespace: the engine persists each artifact
    /// it computes exactly once, so on a cold store these are its work
    /// counts.
    pub saved: NsCounts,
    /// Items probed and items found.
    pub probed: AtomicU64,
    pub found: AtomicU64,
    /// Calls that go to the backend (each is one wire exchange when the
    /// backend is remote).
    pub calls: AtomicU64,
    /// Key and value bytes sent, value bytes received.
    pub bytes: AtomicU64,
    /// Committed instructions and simulated cycles of the run reports
    /// saved.
    pub committed: AtomicU64,
    pub sim_cycles: AtomicU64,
    /// Committed instructions of the saved run reports, by
    /// [`crate::layers::cell_index`].
    pub committed_by_cell: [[AtomicU64; 3]; 6],
    /// Wall time inside backend calls, and each call's latency (traced
    /// runs only).
    busy_ns: AtomicU64,
    latencies: Mutex<Vec<f64>>,
}

impl Probe {
    #[must_use]
    pub fn new(inner: Arc<dyn StoreBackend>, tracer: Option<Arc<Tracer>>) -> Self {
        Self {
            inner,
            tracer,
            saved: NsCounts::default(),
            probed: AtomicU64::new(0),
            found: AtomicU64::new(0),
            calls: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            committed: AtomicU64::new(0),
            sim_cycles: AtomicU64::new(0),
            committed_by_cell: Default::default(),
            busy_ns: AtomicU64::new(0),
            latencies: Mutex::new(Vec::new()),
        }
    }

    #[must_use]
    pub fn count(&self, counter: &AtomicU64) -> u64 {
        counter.load(Ordering::Relaxed)
    }

    /// Seconds spent inside backend calls (traced runs only).
    #[must_use]
    pub fn busy_s(&self) -> f64 {
        self.busy_ns.load(Ordering::Relaxed) as f64 / 1e9
    }

    /// Latency of each backend call, in milliseconds (traced runs only).
    #[must_use]
    pub fn latencies_ms(&self) -> Vec<f64> {
        self.latencies.lock().expect("latency log poisoned").clone()
    }

    fn timed<R>(&self, name: &str, f: impl FnOnce() -> R) -> R {
        self.calls.fetch_add(1, Ordering::Relaxed);
        let Some(tracer) = &self.tracer else {
            return f();
        };
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        let took = end - start;
        self.busy_ns.fetch_add(
            u64::try_from(took.as_nanos()).unwrap_or(u64::MAX),
            Ordering::Relaxed,
        );
        self.latencies
            .lock()
            .expect("latency log poisoned")
            .push(took.as_secs_f64() * 1e3);
        tracer.leaf(name, start, end);
        out
    }

    fn note_save(&self, ns: &str, key: &str, value: &str) {
        self.saved.bump(ns);
        self.bytes
            .fetch_add((key.len() + value.len()) as u64, Ordering::Relaxed);
        if ns == NS_RUNS {
            let mut r = RecordReader::new(value);
            if let Ok(report) = RunReport::from_record(&mut r) {
                self.committed
                    .fetch_add(report.committed, Ordering::Relaxed);
                self.sim_cycles.fetch_add(report.cycles, Ordering::Relaxed);
                let (si, mi) = cell_index(report.strategy, report.mode);
                self.committed_by_cell[si][mi].fetch_add(report.committed, Ordering::Relaxed);
            }
        }
    }

    fn note_loads(&self, keys: &[&str], values: &[Option<String>]) {
        self.probed.fetch_add(keys.len() as u64, Ordering::Relaxed);
        let mut bytes: usize = keys.iter().map(|k| k.len()).sum();
        for v in values.iter().flatten() {
            self.found.fetch_add(1, Ordering::Relaxed);
            bytes += v.len();
        }
        self.bytes.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

impl StoreBackend for Probe {
    fn load(&self, ns: &str, key: &str) -> Option<String> {
        let value = self.timed("types.store.load", || self.inner.load(ns, key));
        self.note_loads(&[key], std::slice::from_ref(&value));
        value
    }

    fn save(&self, ns: &str, key: &str, value: &str) {
        self.timed("types.store.save", || self.inner.save(ns, key, value));
        self.note_save(ns, key, value);
    }

    fn load_many(&self, items: &[(String, String)]) -> Vec<Option<String>> {
        let values = self.timed("types.store.load_many", || self.inner.load_many(items));
        let keys: Vec<&str> = items.iter().map(|(_, k)| k.as_str()).collect();
        self.note_loads(&keys, &values);
        values
    }

    fn save_many(&self, items: &[(String, String, String)]) {
        self.timed("types.store.save_many", || self.inner.save_many(items));
        for (ns, key, value) in items {
            self.note_save(ns, key, value);
        }
    }

    fn claim(&self, ns: &str, key: &str, lease: Duration) -> ClaimOutcome {
        self.timed("types.store.claim", || self.inner.claim(ns, key, lease))
    }

    fn wait_for(&self, ns: &str, key: &str, timeout: Duration) -> Option<String> {
        self.timed("types.store.wait_for", || {
            self.inner.wait_for(ns, key, timeout)
        })
    }

    fn write_errors(&self) -> u64 {
        self.inner.write_errors()
    }

    fn namespace_records(&self, ns: &str) -> usize {
        self.inner.namespace_records(ns)
    }

    fn describe(&self) -> String {
        self.inner.describe()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            pass: 1,
            name: String::new(),
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let all = vec![
            span(1, 0, 0, 100),
            span(2, 1, 10, 30),
            span(3, 1, 20, 50),  // overlaps span 2
            span(4, 1, 90, 120), // runs past the parent's end
            span(5, 2, 12, 14),  // grandchild: already inside span 2
        ];
        let covered = (50 - 10) + (100 - 90);
        assert!((self_seconds(&all[0], &all) - (100 - covered) as f64 / 1e9).abs() < 1e-15);
    }

    #[test]
    fn nested_spans_share_the_pass_id() {
        let t = Tracer::new();
        t.span("pass", true, || {
            t.span("core.experiment.table2", false, || {})
        });
        let spans = t.spans();
        let (inner, outer) = (&spans[0], &spans[1]);
        assert_eq!(inner.parent, outer.id);
        assert_eq!(inner.pass, outer.id);
        assert_eq!(outer.pass, outer.id);
        assert!(t.to_jsonl().lines().count() == 2);
    }
}
