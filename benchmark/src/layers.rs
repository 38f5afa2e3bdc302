//! Per-layer cells: each layer's public entry points timed on their own,
//! over inputs built here, repeated and reported as medians. The traced
//! run multiplies these unit costs by the engine's own work counts to
//! attribute a pass's time to layers.

use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use cfr_core::scenario::simulate;
use cfr_core::{
    compiler, ExecBackend, ExperimentScale, RunReport, ScenarioBinary, ScenarioReport, Simulator,
    StrategyKind,
};
use cfr_mem::{AccessKind, Cache, CacheConfig, PageTable, Tlb, TlbConfig};
use cfr_types::{
    AddressingMode, ArtifactStore, GcPolicy, PageGeometry, Protection, RecordReader, RecordWriter,
    VirtAddr, NS_RUNS,
};
use cfr_workload::{
    compile_trace, measure_walk, profiles, CompiledTrace, GeneratorParams, Program, TraceWalker,
};

use crate::plan::os_sweep;
use crate::stats::{median, spread, Metric};

/// Repetitions of each timed cell; the cell reports their median.
const REPS: usize = 5;
/// The `bench_report` matrix runs over the least and the most
/// TLB-intensive of the six benchmarks.
const MATRIX_PROFILES: [&str; 2] = ["177.mesa", "254.gap"];
const MODES: [(AddressingMode, &str); 3] = [
    (AddressingMode::PiPt, "pipt"),
    (AddressingMode::ViPt, "vipt"),
    (AddressingMode::ViVt, "vivt"),
];
/// Instructions replayed into the memory models.
const MEM_STEPS: u64 = 200_000;
/// Records written and read back by the store cell.
const STORE_RECORDS: usize = 1_000;

/// `bench_report`'s L2-pressure workload: 254.gap's control flow with 4 MB
/// of heap arrays (4x the modelled L2) and data references dominating, so
/// most loads walk dTLB + dL1 + L2 (+DRAM).
fn l2_pressure_params(base: &GeneratorParams) -> GeneratorParams {
    let mut p = base.clone();
    p.heap_arrays = 32;
    p.heap_array_pages = 32;
    p.load_frac = 0.34;
    p.store_frac = 0.14;
    p.region_stack = 0.10;
    p.region_global = 0.08;
    p
}

fn seconds(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64()
}

/// Median of [`REPS`] timings of `f`.
fn timed(mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..REPS).map(|_| seconds(&mut f)).collect();
    median(&samples)
}

/// Operations per second of `op`, batching calls until a sample lasts at
/// least 20 ms, median of [`REPS`] samples.
fn rate(mut op: impl FnMut()) -> f64 {
    let mut batch = 1u64;
    while seconds(|| (0..batch).for_each(|_| op())) < 0.02 {
        batch *= 2;
    }
    let samples: Vec<f64> = (0..REPS)
        .map(|_| batch as f64 / seconds(|| (0..batch).for_each(|_| op())))
        .collect();
    median(&samples)
}

/// The compilation class a strategy executes: plain, boundary-instrumented,
/// or instrumented with SoLA's in-page marks.
fn class_of(kind: StrategyKind) -> usize {
    if kind == StrategyKind::SoLA {
        2
    } else {
        usize::from(compiler::wants_instrumented(kind))
    }
}
const CLASS_KINDS: [StrategyKind; 3] = [StrategyKind::Base, StrategyKind::SoCA, StrategyKind::SoLA];

/// One benchmark's program in every compilation class.
struct Built {
    name: &'static str,
    program: Program,
    traces: Vec<CompiledTrace>,
}

/// Mean seconds per unit of work of the layers the engine drives.
#[derive(Clone, Copy, Debug, Default)]
pub struct UnitCosts {
    pub generate_s: f64,
    pub layout_s: f64,
    pub trace_compile_s: f64,
    pub walk_s: f64,
    /// Per committed instruction, by `[strategy][mode]` index.
    pub pipeline_s_per_instr: [[f64; 3]; 6],
    pub scenario_s_per_instr: f64,
    pub encode_run_s: f64,
    pub decode_run_s: f64,
    pub encode_program_s: f64,
    pub encode_trace_s: f64,
}

/// Everything the layer cells measured.
pub struct LayerCells {
    pub metrics: Vec<Metric>,
    pub costs: UnitCosts,
}

/// Collects metrics in the order the cells produce them.
#[derive(Default)]
struct Sink(Vec<Metric>);

impl Sink {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }
}

/// Runs every layer cell. `scratch` is an empty directory the store cell
/// may use.
pub fn run(scale: &ExperimentScale, scratch: &Path) -> LayerCells {
    let mut m = Sink::default();
    let mut costs = UnitCosts::default();
    let built = workload_cells(scale, &mut costs);
    let run = cpu_cells(scale, &built, &mut m, &mut costs);
    mem_cells(scale, &built[0].traces[0], &mut m);
    let scen = scenario_cell(scale, &mut m, &mut costs);
    record_cells(&run, &scen, &built[0], &mut m, &mut costs);
    store_cells(&run, scratch, &mut m);
    LayerCells {
        metrics: m.0,
        costs,
    }
}

/// `workload`: generate, layout, trace compile and walk, per program, over
/// all six profiles. Returns each profile's program in every compilation
/// class.
fn workload_cells(scale: &ExperimentScale, costs: &mut UnitCosts) -> Vec<Built> {
    let geom = PageGeometry::default_4k();
    let mut built = Vec::new();
    let (mut gen, mut lay, mut comp, mut walk) = (0.0, 0.0, 0.0, 0.0);
    for p in profiles::all() {
        gen += timed(|| drop(black_box(p.generate())));
        let program = p.generate();
        let mut traces = Vec::new();
        for kind in CLASS_KINDS {
            lay += timed(|| drop(black_box(compiler::compile_for(&program, geom, kind))));
            let laid = compiler::compile_for(&program, geom, kind);
            comp += timed(|| drop(black_box(compile_trace(&laid))));
            if kind == StrategyKind::Base {
                walk += timed(|| {
                    black_box(measure_walk(&laid, scale.max_commits, scale.seed));
                });
            }
            traces.push(compile_trace(&laid));
        }
        built.push(Built {
            name: p.name,
            program,
            traces,
        });
    }
    let n = built.len() as f64;
    costs.generate_s = gen / n;
    costs.layout_s = lay / (3.0 * n);
    costs.trace_compile_s = comp / (3.0 * n);
    costs.walk_s = walk / n;
    built
}

/// `cpu`: the `bench_report` strategy × mode matrix in [`REPS`]
/// interleaved rounds, then the L2-pressure program. Returns one of the
/// matrix's reports.
fn cpu_cells(
    scale: &ExperimentScale,
    built: &[Built],
    m: &mut Sink,
    costs: &mut UnitCosts,
) -> RunReport {
    let cfg = scale.config();
    let matrix: Vec<&Built> = built
        .iter()
        .filter(|b| MATRIX_PROFILES.contains(&b.name))
        .collect();
    let mut cells = vec![Vec::new(); StrategyKind::ALL.len() * MODES.len()];
    let mut sample = None;
    for _ in 0..REPS {
        for (si, kind) in StrategyKind::ALL.iter().enumerate() {
            for (mi, (mode, _)) in MODES.iter().enumerate() {
                let mut committed = 0;
                let t = Instant::now();
                for b in &matrix {
                    let r = Simulator::run_traced(&b.traces[class_of(*kind)], &cfg, *kind, *mode);
                    committed += r.committed;
                    sample.get_or_insert(r);
                }
                cells[si * MODES.len() + mi].push(committed as f64 / t.elapsed().as_secs_f64());
            }
        }
    }
    let mut spreads = Vec::new();
    for (si, kind) in StrategyKind::ALL.iter().enumerate() {
        for (mi, (_, mode)) in MODES.iter().enumerate() {
            let samples = &cells[si * MODES.len() + mi];
            let per_s = median(samples);
            costs.pipeline_s_per_instr[si][mi] = 1.0 / per_s;
            spreads.push(spread(samples));
            let name = format!("cpu.pipeline.minstr_per_s.{}.{mode}", kind.name());
            m.put(name, per_s / 1e6, "Minstr/s");
        }
    }
    let gap = profiles::gap();
    let params = l2_pressure_params(&gap.params);
    let laid = compiler::compile_for(
        &cfr_workload::generate(&params),
        PageGeometry::default_4k(),
        StrategyKind::Base,
    );
    let trace = compile_trace(&laid);
    let l2: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            let r = Simulator::run_traced(&trace, &cfg, StrategyKind::Base, AddressingMode::PiPt);
            r.committed as f64 / t.elapsed().as_secs_f64()
        })
        .collect();
    spreads.push(spread(&l2));
    m.put(
        "cpu.pipeline.minstr_per_s.l2_pressure",
        median(&l2) / 1e6,
        "Minstr/s",
    );
    m.put("cpu.pipeline.spread_frac", median(&spreads), "ratio");
    sample.expect("the matrix ran")
}

/// `mem`: an address stream recorded from `trace` with [`TraceWalker`]
/// (fetch PCs and data addresses), replayed into the caches, the TLBs and
/// the page table.
fn mem_cells(scale: &ExperimentScale, trace: &CompiledTrace, m: &mut Sink) {
    let geom = PageGeometry::default_4k();
    let mut walker = TraceWalker::new(trace, scale.seed);
    let mut fetches = Vec::new();
    let mut data = Vec::new();
    for _ in 0..MEM_STEPS {
        let step = walker.step();
        fetches.push(step.addr);
        data.extend(step.mem_addr);
    }
    let probes = (fetches.len() + data.len()) as f64;
    let mut hits = 0u64;
    let cache_s = timed(|| {
        let mut il1 = Cache::new(CacheConfig::default_il1());
        let mut dl1 = Cache::new(CacheConfig::default_dl1());
        let hit = |cache: &mut Cache, a: &VirtAddr| {
            u64::from(cache.access(a.raw(), AccessKind::Read).hit)
        };
        hits = fetches.iter().map(|a| hit(&mut il1, a)).sum::<u64>()
            + data.iter().map(|a| hit(&mut dl1, a)).sum::<u64>();
    });
    m.put("mem.cache.probes_per_s", probes / cache_s, "1/s");
    m.put("mem.cache.hit_ratio", hits as f64 / probes, "ratio");
    let tlb_s = timed(|| {
        let mut pt = PageTable::new();
        let mut itlb = Tlb::new(TlbConfig::default_itlb());
        let mut dtlb = Tlb::new(TlbConfig::default_dtlb());
        let mut hit = |tlb: &mut Tlb, a: &VirtAddr, prot| {
            u64::from(tlb.lookup(geom.vpn(*a), &mut pt, prot).hit)
        };
        hits = fetches
            .iter()
            .map(|a| hit(&mut itlb, a, Protection::code()))
            .sum::<u64>()
            + data
                .iter()
                .map(|a| hit(&mut dtlb, a, Protection::data()))
                .sum::<u64>();
    });
    m.put("mem.tlb.lookups_per_s", probes / tlb_s, "1/s");
    m.put("mem.tlb.hit_ratio", hits as f64 / probes, "ratio");
    let pt_s = timed(|| {
        let mut pt = PageTable::new();
        for a in &fetches {
            black_box(pt.translate(geom.vpn(*a), Protection::code()));
        }
        for a in &data {
            black_box(pt.translate(geom.vpn(*a), Protection::data()));
        }
    });
    m.put("mem.page_table.translates_per_s", probes / pt_s, "1/s");
}

/// `core.scenario`: one `table_os` cell (10k quantum, 16 ASIDs) through
/// `scenario::simulate`. Returns its report.
fn scenario_cell(scale: &ExperimentScale, m: &mut Sink, costs: &mut UnitCosts) -> ScenarioReport {
    let geom = PageGeometry::default_4k();
    let all = profiles::all();
    let cell = os_sweep(scale).swap_remove(1);
    let bins: Vec<ScenarioBinary> = cell
        .procs
        .iter()
        .map(|p| {
            let profile = all
                .iter()
                .find(|q| q.name == p.profile)
                .expect("mix names are paper profiles");
            let laid = compiler::compile_for(&profile.generate(), geom, cell.strategy);
            let trace = compile_trace(&laid);
            ScenarioBinary {
                laid: Arc::new(laid),
                trace: Some(Arc::new(trace)),
            }
        })
        .collect();
    let mut report = None;
    let took = timed(|| report = Some(simulate(&cell, &bins, ExecBackend::Compiled)));
    let report = report.expect("the scenario cell ran");
    let instr = report.machine.committed as f64;
    costs.scenario_s_per_instr = took / instr;
    m.put("core.scenario.minstr_per_s", instr / took / 1e6, "Minstr/s");
    report
}

/// `types.record`: encode and decode rate, and size, of each persisted
/// record kind.
fn record_cells(
    run: &RunReport,
    scen: &ScenarioReport,
    mesa: &Built,
    m: &mut Sink,
    costs: &mut UnitCosts,
) {
    let mut codec = |label: &str, encode: &dyn Fn(&mut RecordWriter), decode: &dyn Fn(&str)| {
        let mut w = RecordWriter::new();
        encode(&mut w);
        let text = w.finish();
        let enc = rate(|| {
            let mut w = RecordWriter::new();
            encode(&mut w);
            black_box(w.finish());
        });
        let dec = rate(|| decode(black_box(&text)));
        m.put(format!("types.record.{label}.encode_per_s"), enc, "1/s");
        m.put(format!("types.record.{label}.decode_per_s"), dec, "1/s");
        m.put(
            format!("types.record.{label}.bytes"),
            text.len() as f64,
            "bytes",
        );
        (1.0 / enc, 1.0 / dec)
    };
    (costs.encode_run_s, costs.decode_run_s) = codec("RunReport", &|w| run.to_record(w), &|t| {
        drop(black_box(RunReport::from_record(&mut RecordReader::new(t))));
    });
    codec("ScenarioReport", &|w| scen.to_record(w), &|t| {
        drop(black_box(ScenarioReport::from_record(
            &mut RecordReader::new(t),
        )));
    });
    (costs.encode_program_s, _) = codec("Program", &|w| mesa.program.to_record(w), &|t| {
        drop(black_box(Program::from_record(&mut RecordReader::new(t))));
    });
    (costs.encode_trace_s, _) = codec("CompiledTrace", &|w| mesa.traces[0].to_record(w), &|t| {
        drop(black_box(CompiledTrace::from_record(
            &mut RecordReader::new(t),
        )));
    });
}

/// `types.store`: shard appends and loads of [`STORE_RECORDS`] run records
/// into a fresh store, and the open-time index scan of the filled store.
fn store_cells(run: &RunReport, scratch: &Path, m: &mut Sink) {
    let mut w = RecordWriter::new();
    run.to_record(&mut w);
    let value = w.finish();
    let keys: Vec<String> = (0..STORE_RECORDS)
        .map(|i| format!("bench-key {i}"))
        .collect();
    let (mut appends, mut loads) = (Vec::new(), Vec::new());
    let mut dir = scratch.to_path_buf();
    for rep in 0..REPS {
        dir = scratch.join(format!("store-{rep}"));
        let store = ArtifactStore::open(&dir, GcPolicy::unbounded()).expect("store cell opens");
        appends.push(seconds(|| {
            keys.iter().for_each(|k| store.save(NS_RUNS, k, &value))
        }));
        let mut found = 0;
        loads.push(seconds(|| {
            found = keys
                .iter()
                .filter(|k| store.load(NS_RUNS, k).is_some())
                .count()
        }));
        assert_eq!(found, STORE_RECORDS, "every appended record loads back");
    }
    let open_s = timed(|| {
        drop(black_box(
            ArtifactStore::open(&dir, GcPolicy::unbounded()).expect("store cell reopens"),
        ));
    });
    let n = STORE_RECORDS as f64;
    m.put("types.store.append_per_s", n / median(&appends), "1/s");
    m.put("types.store.load_per_s", n / median(&loads), "1/s");
    m.put("types.store.open_s", open_s, "s");
}

/// Index of `kind` in [`StrategyKind::ALL`] and of `mode` in the mode
/// order of [`UnitCosts::pipeline_s_per_instr`].
#[must_use]
pub fn cell_index(kind: StrategyKind, mode: AddressingMode) -> (usize, usize) {
    let si = StrategyKind::ALL
        .iter()
        .position(|k| *k == kind)
        .expect("every strategy is in ALL");
    let mi = MODES
        .iter()
        .position(|(m, _)| *m == mode)
        .expect("every mode is measured");
    (si, mi)
}
