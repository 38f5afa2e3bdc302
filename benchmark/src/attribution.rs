//! Per-layer metrics of a traced run: the engine's own work counts (read
//! at the store boundary) times each layer's unit cost (from the layer
//! cells), span times, and the share of the pass nothing accounts for.

use crate::layers::{LayerCells, UnitCosts};
use crate::plan::EXPERIMENTS;
use crate::probe::self_seconds;
use crate::stats::{median, Metric};
use crate::workloads::{Outcome, PassObs};

fn sum(xs: impl Iterator<Item = f64>) -> f64 {
    xs.fold(0.0, |a, b| a + b)
}

/// Where one traced pass's time went, in CPU seconds per layer.
struct Attribution {
    /// `(stage, units, seconds)` for generate, layout, trace compile, walk.
    stages: [(&'static str, u64, f64); 4],
    pipeline_s: f64,
    scenario_s: f64,
    codec_s: f64,
    store_s: f64,
}

impl Attribution {
    fn of(o: &PassObs, c: &UnitCosts) -> Self {
        let (p, s) = (&o.probe, &o.summary);
        let stages = [
            ("generate", s.programs.cold, c.generate_s),
            ("layout", s.traces.cold + s.walks.cold, c.layout_s),
            ("trace_compile", s.traces.cold, c.trace_compile_s),
            ("walk", s.walks.cold, c.walk_s),
        ]
        .map(|(stage, units, unit_s)| (stage, units, units as f64 * unit_s));
        let pipeline_s = sum(p
            .committed_by_cell
            .iter()
            .enumerate()
            .flat_map(|(si, row)| {
                row.iter()
                    .enumerate()
                    .map(move |(mi, n)| p.count(n) as f64 * c.pipeline_s_per_instr[si][mi])
            }));
        let scen_committed = sum(o.scenarios.iter().map(|r| r.machine.committed as f64));
        let saved = |counter| p.count(counter) as f64;
        let codec_s = p.count(&p.found) as f64 * c.decode_run_s
            + (saved(&p.saved.runs) + saved(&p.saved.scenarios) + saved(&p.saved.walks))
                * c.encode_run_s
            + saved(&p.saved.programs) * c.encode_program_s
            + saved(&p.saved.traces) * c.encode_trace_s;
        Self {
            stages,
            pipeline_s,
            scenario_s: scen_committed * c.scenario_s_per_instr,
            codec_s,
            store_s: p.busy_s(),
        }
    }

    fn covered_s(&self) -> f64 {
        sum(self.stages.iter().map(|(_, _, s)| *s))
            + self.pipeline_s
            + self.scenario_s
            + self.codec_s
            + self.store_s
    }
}

/// The traced pass with the median wall time.
fn representative(traced: &[PassObs]) -> &PassObs {
    let mut by_wall: Vec<&PassObs> = traced.iter().collect();
    by_wall.sort_by(|a, b| a.wall_s.total_cmp(&b.wall_s));
    by_wall[by_wall.len() / 2]
}

/// Every per-layer metric: the layer cells' own, plus those read from the
/// run's traced passes. Counts and span times come from the traced pass
/// with the median wall time; idle and unexplained shares pool every
/// traced pass, because a warm replay is shorter than one CPU-clock tick.
#[must_use]
pub fn per_layer(out: &Outcome, cells: LayerCells) -> Vec<Metric> {
    let c = cells.costs;
    let o = representative(&out.traced);
    let (p, s) = (&o.probe, &o.summary);
    let at = Attribution::of(o, &c);
    let mut m = cells.metrics;
    let mut put = |name: &str, value: f64, unit: &'static str| {
        m.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    };

    for (stage, units, busy) in at.stages {
        put(&format!("workload.{stage}.count"), units as f64, "count");
        put(&format!("workload.{stage}.busy_s"), busy, "s");
    }
    put("cpu.pipeline.busy_s", at.pipeline_s, "s");
    put(
        "cpu.pipeline.committed",
        p.count(&p.committed) as f64,
        "count",
    );
    put(
        "cpu.pipeline.sim_cycles",
        p.count(&p.sim_cycles) as f64,
        "count",
    );

    let experiments: Vec<_> = o
        .spans
        .iter()
        .filter(|sp| sp.name.starts_with("core.experiment."))
        .collect();
    for name in EXPERIMENTS {
        let span = format!("core.experiment.{name}");
        let busy = sum(experiments
            .iter()
            .filter(|sp| sp.name == span)
            .map(|sp| sp.seconds()));
        put(&format!("{span}.busy_s"), busy, "s");
    }
    let self_s = sum(experiments.iter().map(|sp| self_seconds(sp, &o.spans)));
    put("core.experiment.self_s", self_s, "s");
    put("core.engine.runs_simulated", o.simulated as f64, "count");
    put("core.engine.runs_warm", s.runs.warm as f64, "count");
    let cpu_s = sum(out.traced.iter().map(|o| o.cpu_s));
    let wall_s = sum(out.traced.iter().map(|o| o.wall_s));
    let covered = sum(out
        .traced
        .iter()
        .map(|o| Attribution::of(o, &c).covered_s()));
    put(
        "core.engine.core_idle_frac",
        1.0 - cpu_s / (out.threads as f64 * wall_s),
        "ratio",
    );
    let unexplained = if cpu_s > 0.0 {
        1.0 - covered / cpu_s
    } else {
        0.0
    };
    put("core.engine.unexplained_frac", unexplained, "ratio");
    put("core.scenario.busy_s", at.scenario_s, "s");
    let switches = sum(o.scenarios.iter().map(|r| r.context_switches as f64));
    put("core.scenario.context_switches", switches, "count");

    let probed = p.count(&p.probed);
    let hit_ratio = if probed == 0 {
        0.0
    } else {
        p.count(&p.found) as f64 / probed as f64
    };
    put("types.store.hit_ratio", hit_ratio, "ratio");
    put("types.store.busy_s", at.store_s, "s");

    // Only a pass through the daemon has a wire.
    let wire = |x: f64| if o.round_trips > 0 { x } else { 0.0 };
    let latencies = p.latencies_ms();
    let exchange_ms = if latencies.is_empty() {
        0.0
    } else {
        median(&latencies)
    };
    put(
        "types.net.round_trips_per_replay",
        o.round_trips as f64,
        "count",
    );
    put("types.net.exchange_ms_p50", wire(exchange_ms), "ms");
    put(
        "types.net.bytes_per_replay",
        wire(p.count(&p.bytes) as f64),
        "bytes",
    );
    let redone = p.count(&p.calls).saturating_sub(o.round_trips);
    put("types.net.retries", wire(redone as f64), "count");

    let walls = |traced: bool| -> Vec<f64> {
        out.wall
            .iter()
            .filter(|(_, t)| *t == traced)
            .map(|(w, _)| *w)
            .collect()
    };
    let (on, off) = (walls(true), walls(false));
    let overhead = if on.is_empty() || off.is_empty() {
        0.0
    } else {
        median(&on) / median(&off) - 1.0
    };
    put("trace.overhead_frac", overhead, "ratio");
    let spans = out.tracer.as_ref().map_or(0, |t| t.spans().len());
    put("trace.spans", spans as f64, "count");
    m
}
