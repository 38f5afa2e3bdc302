//! The three workloads: timed cold passes and warm replays, with every
//! output checked against the run's first pass.

use std::cell::Cell;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use cfr_core::{
    ArtifactStore, Engine, ExperimentScale, GcPolicy, RemoteStore, ScenarioReport, ServerConfig,
    Store, StoreBackend as _, StoreServer, StoreSummary,
};
use cfr_types::fnv1a64;

use crate::hostspeed::{self, cpu_seconds};
use crate::plan::{os_sweep, paper_errors, Output, Pass, Plan};
use crate::probe::{Probe, Span, Tracer};
use crate::stats::{Tally, P90_MIN_SAMPLES};

/// Workload names, as `--workload` takes them.
pub const WORKLOADS: [&str; 3] = ["paper-cold", "paper-warm", "os-scenarios"];

/// Fewest timed passes a run makes, however short `--seconds` is.
const MIN_PASSES: usize = 3;
/// Shortest batch of warm replays timed as one sample: long against the
/// reference kernel runs that bracket it.
const REPLAY_BATCH_S: f64 = 0.05;
/// Share of the cold workloads' time spent on warm replays. Each pass is
/// followed by its own replays, so that the replay samples span the whole
/// run as the pass samples do.
const REPLAY_SHARE: f64 = 0.3;
/// Extra set-ups the cold workloads time before each pass, so that
/// `setup_s` is a median of many samples spread over the whole run.
const EXTRA_SETUPS: usize = 10;
/// Set-ups `paper-warm` makes (each a daemon plus a populate pass); the
/// run reports their median and replays against the last.
const WARM_SETUPS: usize = 3;

/// Fresh directories under one root, removed with it.
pub struct Scratch {
    root: PathBuf,
    next: Cell<u32>,
}

impl Scratch {
    /// # Errors
    ///
    /// Errors if `root` cannot be created.
    pub fn new(root: PathBuf) -> io::Result<Self> {
        std::fs::create_dir_all(&root)?;
        Ok(Self {
            root,
            next: Cell::new(0),
        })
    }

    /// A new, empty directory.
    ///
    /// # Errors
    ///
    /// Errors if it cannot be created.
    pub fn fresh(&self, tag: &str) -> io::Result<PathBuf> {
        let n = self.next.get();
        self.next.set(n + 1);
        let dir = self.root.join(format!("{tag}-{n}"));
        std::fs::create_dir_all(&dir)?;
        Ok(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
        // The shared parent goes too once no other run is using it.
        if let Some(parent) = self.root.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// How a run is driven.
pub struct Ctx<'a> {
    pub scale: ExperimentScale,
    pub seconds: f64,
    pub trace: bool,
    pub threads: usize,
    pub scratch: &'a Scratch,
}

/// What one traced pass showed.
pub struct PassObs {
    pub wall_s: f64,
    pub cpu_s: f64,
    pub summary: StoreSummary,
    pub simulated: u64,
    pub probe: Arc<Probe>,
    pub spans: Vec<Span>,
    pub scenarios: Vec<ScenarioReport>,
    pub round_trips: u64,
}

/// What a run measured.
#[derive(Default)]
pub struct Outcome {
    pub tally: Tally,
    pub setup: Vec<f64>,
    /// Wall time of each timed pass (each warm replay on `paper-warm`), and
    /// whether it was traced.
    pub wall: Vec<(f64, bool)>,
    /// Seconds of each timed pass at nominal host speed; on `paper-warm`,
    /// of one warm replay, averaged over each batch.
    pub pass_s: Vec<f64>,
    /// Simulated million instructions per `pass_s` second.
    pub minstr: Vec<f64>,
    /// Host speed over each pass or batch (see [`hostspeed`]).
    pub speed: Vec<f64>,
    /// Wall milliseconds of each warm replay.
    pub replay_ms: Vec<f64>,
    /// Milliseconds of one warm replay at nominal host speed, averaged over
    /// each batch.
    pub replay_norm_ms: Vec<f64>,
    /// Simulated figures and counts that are not gated metrics.
    pub info: Vec<(&'static str, f64, &'static str)>,
    /// FNV-1a of every simulated statistic the first pass produced.
    pub digest: u64,
    /// Process high-water mark after the first pass (or set-up), in MB:
    /// what one reproduction costs, before later passes fragment the heap.
    pub peak_rss_mb: f64,
    /// Traced passes (traced runs only).
    pub traced: Vec<PassObs>,
    pub tracer: Option<Arc<Tracer>>,
    /// Threads doing a pass's work: the engine's pool, plus the daemon's
    /// workers on `paper-warm`.
    pub threads: usize,
}

impl Outcome {
    fn new(ctx: &Ctx) -> Self {
        Self {
            tracer: ctx.trace.then(|| Arc::new(Tracer::new())),
            threads: ctx.threads,
            ..Self::default()
        }
    }

    /// In a traced run every other pass is traced; the rest measure the
    /// tracing overhead.
    fn tracer_for(&self, pass: usize) -> Option<Arc<Tracer>> {
        self.tracer.clone().filter(|_| pass.is_multiple_of(2))
    }

    /// Records a timed pass: its wall time always, and what the traced
    /// run needs when the pass was traced.
    #[allow(clippy::too_many_arguments)]
    fn observe(
        &mut self,
        tracer: Option<&Arc<Tracer>>,
        wall_s: f64,
        cpu_s: f64,
        engine: &Engine,
        probe: &Arc<Probe>,
        scenarios: Vec<ScenarioReport>,
        round_trips: u64,
    ) {
        self.wall.push((wall_s, tracer.is_some()));
        let Some(tracer) = tracer else { return };
        let spans = tracer.spans();
        let pass = spans.last().map_or(0, |s| s.pass);
        self.traced.push(PassObs {
            wall_s,
            cpu_s,
            summary: engine.store_summary(),
            simulated: engine.simulated_runs(),
            probe: Arc::clone(probe),
            spans: spans.into_iter().filter(|s| s.pass == pass).collect(),
            scenarios,
            round_trips,
        });
    }
}

/// Peak resident set (`VmHWM`) in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn open_local(dir: &Path) -> io::Result<Arc<ArtifactStore>> {
    Ok(Arc::new(ArtifactStore::open(dir, GcPolicy::unbounded())?))
}

/// Checks each call of a pass against the run's first pass, one operation
/// per call; the first pass becomes the reference.
fn check_calls(tally: &mut Tally, outputs: &[Output], reference: &mut Option<Vec<Output>>) {
    let reference = reference.get_or_insert_with(|| outputs.to_vec());
    for (i, out) in outputs.iter().enumerate() {
        tally.record(out.is_some() && reference.get(i) == Some(out));
    }
}

/// A warm replay is good when it reproduces the reference outputs byte for
/// byte and computed nothing: every namespace 0 cold.
#[must_use]
fn replay_ok(reference: &[Output], outputs: &[Output], s: &StoreSummary) -> bool {
    let cold = s.runs.cold + s.walks.cold + s.programs.cold + s.traces.cold + s.scenarios.cold;
    outputs.len() == reference.len()
        && outputs
            .iter()
            .zip(reference)
            .all(|(o, r)| o.is_some() && o == r)
        && cold == 0
}

fn digest_of(outputs: &[Output]) -> u64 {
    let joined: Vec<&str> = outputs.iter().map(|o| o.as_deref().unwrap_or("")).collect();
    fnv1a64(&joined.join("\n"))
}

/// Times [`EXTRA_SETUPS`] throwaway set-ups of a cold pass: a fresh
/// directory, store and engine.
fn extra_setups(ctx: &Ctx, out: &mut Outcome) -> io::Result<()> {
    for _ in 0..EXTRA_SETUPS {
        let t = Instant::now();
        let dir = ctx.scratch.fresh("setup")?;
        let engine = Engine::new().with_store(Store::over(open_local(&dir)?));
        out.setup.push(t.elapsed().as_secs_f64());
        drop(engine);
        std::fs::remove_dir_all(dir)?;
    }
    Ok(())
}

fn keep_going(pass: usize, start: Instant, budget: f64) -> bool {
    pass < MIN_PASSES || start.elapsed().as_secs_f64() < budget
}

fn replays_wanted(replays: usize, start: Instant, budget: f64) -> bool {
    replays < P90_MIN_SAMPLES || start.elapsed().as_secs_f64() < budget
}

/// Runs `workload` for `ctx.seconds`.
///
/// # Errors
///
/// Errors if a store directory cannot be created or opened, or the daemon
/// cannot bind a loopback port.
pub fn run(ctx: &Ctx, workload: &str) -> io::Result<Outcome> {
    match workload {
        "paper-warm" => paper_warm(ctx),
        "paper-cold" => cold(ctx, &Plan::Paper(ctx.scale)),
        _ => cold(ctx, &Plan::Scenarios(os_sweep(&ctx.scale))),
    }
}

/// Notes what only the run's first pass needs to report.
fn first_pass(out: &mut Outcome, pass: &Pass) {
    out.peak_rss_mb = peak_rss_mb();
    out.digest = digest_of(&pass.outputs);
    if let Some(rows) = &pass.fig4 {
        let [vipt, vivt, ia] = paper_errors(rows);
        out.info.push(("paper_err_fig4_vipt_pp", vipt, "pp"));
        out.info.push(("paper_err_fig4_vivt_pp", vivt, "pp"));
        out.info.push(("paper_err_fig5_ia_pp", ia, "pp"));
    }
    if !pass.scenarios.is_empty() {
        let switches = pass
            .scenarios
            .iter()
            .map(|r| r.context_switches)
            .sum::<u64>();
        out.info
            .push(("context_switches", switches as f64, "count"));
    }
}

/// `paper-cold` and `os-scenarios`: `plan` on a fresh engine over a fresh,
/// empty local store, pass after pass; after each pass, warm replays of
/// its store, each a fresh engine over the reopened store.
fn cold(ctx: &Ctx, plan: &Plan) -> io::Result<Outcome> {
    let mut out = Outcome::new(ctx);
    let mut reference = None;
    let mut last = None;
    let start = Instant::now();
    let mut pass = 0;
    while keep_going(pass, start, ctx.seconds) {
        extra_setups(ctx, &mut out)?;
        let tracer = out.tracer_for(pass);
        let t = Instant::now();
        let dir = ctx.scratch.fresh("cold")?;
        let store = open_local(&dir)?;
        let probe = Arc::new(Probe::new(store.clone(), tracer.clone()));
        let engine = Engine::new().with_store(Store::over(probe.clone()));
        out.setup.push(t.elapsed().as_secs_f64());
        let (timed, result) = hostspeed::time(|| plan.run(&engine, tracer.as_deref()));
        check_calls(&mut out.tally, &result.outputs, &mut reference);
        out.tally.record(probe.write_errors() == 0);
        if pass == 0 {
            first_pass(&mut out, &result);
        }
        let scenario_instr: u64 = result.scenarios.iter().map(|r| r.machine.committed).sum();
        let instr = probe.count(&probe.committed) + scenario_instr;
        out.pass_s.push(timed.norm_s());
        out.minstr.push(instr as f64 / timed.norm_s() / 1e6);
        out.speed.push(timed.speed);
        out.observe(
            tracer.as_ref(),
            timed.wall_s,
            timed.cpu_s,
            &engine,
            &probe,
            result.scenarios,
            0,
        );
        if !ctx.trace {
            let budget = timed.wall_s * REPLAY_SHARE / (1.0 - REPLAY_SHARE);
            let t = Instant::now();
            while t.elapsed().as_secs_f64() < budget {
                replay_batch(plan, &store, reference.as_deref(), &mut out);
            }
        }
        if let Some((old, _)) = last.replace((dir, store)) {
            let _ = std::fs::remove_dir_all(old);
        }
        pass += 1;
    }
    let (_, store) = last.expect("at least one pass");
    while !ctx.trace && out.replay_ms.len() < P90_MIN_SAMPLES {
        replay_batch(plan, &store, reference.as_deref(), &mut out);
    }
    Ok(out)
}

/// A batch of warm replays of `plan`, timed as one sample of at least
/// [`REPLAY_BATCH_S`]: each a fresh engine over the local store a cold pass
/// filled. The store stays open between replays, as the daemon's does on
/// `paper-warm`; `types.store.open_s` times the open on its own.
fn replay_batch(
    plan: &Plan,
    store: &Arc<ArtifactStore>,
    reference: Option<&[Output]>,
    out: &mut Outcome,
) {
    let (timed, n) = hostspeed::time(|| {
        let batch = Instant::now();
        let mut n = 0u32;
        while n == 0 || batch.elapsed().as_secs_f64() < REPLAY_BATCH_S {
            let t = Instant::now();
            let engine = Engine::new().with_store(Store::over(store.clone()));
            let result = plan.run(&engine, None);
            out.replay_ms.push(t.elapsed().as_secs_f64() * 1e3);
            let ok =
                reference.is_some_and(|r| replay_ok(r, &result.outputs, &engine.store_summary()));
            out.tally.record(ok);
            n += 1;
        }
        n
    });
    out.replay_norm_ms.push(timed.norm_s() / f64::from(n) * 1e3);
}

/// `paper-warm`: the plan replayed through an in-process store daemon that
/// a cold pass filled during set-up; each replay is a fresh engine over a
/// fresh client connection.
fn paper_warm(ctx: &Ctx) -> io::Result<Outcome> {
    let plan = Plan::Paper(ctx.scale);
    let mut out = Outcome::new(ctx);
    let mut reference = None;
    let mut server: Option<StoreServer> = None;
    let mut committed = 0;
    let config = ServerConfig {
        workers: ctx.threads,
        gc_interval: None,
        ..ServerConfig::default()
    };
    out.threads += config.workers;
    for setup in 0..WARM_SETUPS {
        let t = Instant::now();
        let dir = ctx.scratch.fresh("warm")?;
        let daemon = StoreServer::bind(open_local(&dir)?, "127.0.0.1:0", config)?;
        let client = Arc::new(RemoteStore::new(daemon.addr().to_string()));
        let probe = Arc::new(Probe::new(client, None));
        let engine = Engine::new().with_store(Store::over(probe.clone()));
        let populate = plan.run(&engine, None);
        out.setup.push(t.elapsed().as_secs_f64());
        check_calls(&mut out.tally, &populate.outputs, &mut reference);
        out.tally.record(probe.write_errors() == 0);
        if setup == 0 {
            first_pass(&mut out, &populate);
            committed = probe.count(&probe.committed);
        }
        drop(engine);
        if let Some(old) = server.replace(daemon) {
            old.shutdown();
        }
    }
    let server = server.expect("at least one set-up");
    let addr = server.addr().to_string();
    let reference = reference.unwrap_or_default();
    let start = Instant::now();
    let mut trips = Vec::new();
    let mut replay = 0;
    while replays_wanted(replay, start, ctx.seconds) {
        let (timed, n) = hostspeed::time(|| {
            let batch = Instant::now();
            let mut n = 0;
            while n == 0 || batch.elapsed().as_secs_f64() < REPLAY_BATCH_S {
                let tracer = out.tracer_for(replay + n);
                let client = Arc::new(RemoteStore::new(addr.clone()));
                let probe = Arc::new(Probe::new(client.clone(), tracer.clone()));
                let cpu = cpu_seconds();
                let t = Instant::now();
                let engine = Engine::new().with_store(Store::over(probe.clone()));
                let result = plan.run(&engine, tracer.as_deref());
                let (wall_s, cpu_s) = (t.elapsed().as_secs_f64(), cpu_seconds() - cpu);
                out.tally.record(replay_ok(
                    &reference,
                    &result.outputs,
                    &engine.store_summary(),
                ));
                out.replay_ms.push(wall_s * 1e3);
                let trips_now = client.round_trips();
                trips.push(trips_now);
                out.observe(
                    tracer.as_ref(),
                    wall_s,
                    cpu_s,
                    &engine,
                    &probe,
                    Vec::new(),
                    trips_now,
                );
                n += 1;
            }
            n
        });
        let replay_s = timed.norm_s() / n as f64;
        out.pass_s.push(replay_s);
        out.minstr.push(committed as f64 / replay_s / 1e6);
        out.speed.push(timed.speed);
        out.replay_norm_ms.push(replay_s * 1e3);
        replay += n;
    }
    out.info
        .push(("round_trips_per_replay", trips[0] as f64, "count"));
    out.tally.record(trips.iter().all(|&t| t == trips[0]));
    server.shutdown();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfr_core::NamespaceTraffic;

    #[test]
    fn an_injected_replay_mismatch_counts_as_failed() {
        let reference = vec![
            Some("table2 rows".to_string()),
            Some("fig4 rows".to_string()),
        ];
        let warm = StoreSummary {
            runs: NamespaceTraffic { warm: 210, cold: 0 },
            ..StoreSummary::default()
        };
        let mut tally = Tally::default();
        tally.record(replay_ok(&reference, &reference, &warm));
        let mut tampered = reference.clone();
        tampered[1] = Some("fig4 rows, one bit off".to_string());
        tally.record(replay_ok(&reference, &tampered, &warm));
        assert_eq!((tally.attempted, tally.failed), (2, 1));
        assert_eq!(tally.failed_frac(), 0.5);

        // Byte-identical output that still simulated something is a miss.
        let recomputed = StoreSummary {
            runs: NamespaceTraffic { warm: 209, cold: 1 },
            ..StoreSummary::default()
        };
        assert!(!replay_ok(&reference, &reference, &recomputed));
        // So is a panicked call, even against a panicked reference.
        assert!(!replay_ok(&[None], &[None], &warm));
    }

    #[test]
    fn cold_pass_checks_compare_against_the_first_pass() {
        let mut tally = Tally::default();
        let mut reference = None;
        let out = |s: &str| Some(s.to_string());
        check_calls(&mut tally, &[out("a"), out("b")], &mut reference);
        check_calls(&mut tally, &[out("a"), out("c")], &mut reference);
        check_calls(&mut tally, &[None, out("b")], &mut reference);
        assert_eq!((tally.attempted, tally.failed), (6, 2));
    }
}
