//! End-to-end simulation: program → compiler → pipeline → report.

use cfr_cpu::{
    CpuConfig, CpuStats, ExecutionBackend, FetchTranslator as _, Mismatch, Pipeline, Recorder,
    TranslationLog,
};
use cfr_energy::{EnergyMeter, EnergyModel};
use cfr_mem::{PageTable, TlbConfig, TlbStats, TwoLevelTlb};
use cfr_types::{AddressingMode, RecordError, RecordReader, RecordWriter, TlbOrganization};
use cfr_workload::{compile_trace, CompiledTrace, Program};

use crate::compiler;
use crate::scenario::Executable;
use crate::strategy::{ItlbModel, LookupBreakdown, Strategy, StrategyKind};

/// Environment variable selecting the execution backend (`compiled`,
/// the default, or `interp`).
pub const BACKEND_ENV: &str = "CFR_BACKEND";

/// Which execution backend drives the pipeline.
///
/// Both backends are byte-identical by construction (the compiled trace
/// is a pure representation change; the golden tests and the
/// backend-equivalence property test enforce it), so this is purely a
/// performance/diagnostics switch.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ExecBackend {
    /// Pre-decoded compiled-trace backend (the default fast path).
    Compiled,
    /// Reference interpreter over the laid-out program.
    Interp,
}

impl ExecBackend {
    /// Reads `$CFR_BACKEND`: `interp` selects the reference interpreter;
    /// `compiled`, unset, or anything else selects the compiled-trace
    /// backend.
    #[must_use]
    pub fn from_env() -> Self {
        match std::env::var(BACKEND_ENV) {
            Ok(v) if v.eq_ignore_ascii_case("interp") => ExecBackend::Interp,
            _ => ExecBackend::Compiled,
        }
    }

    /// Stable lower-case name (`compiled` / `interp`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ExecBackend::Compiled => "compiled",
            ExecBackend::Interp => "interp",
        }
    }
}

/// Which iTLB structure a run models.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ItlbChoice {
    /// A monolithic TLB of the given shape.
    Mono(TlbOrganization),
    /// A serial two-level TLB (level-1 shape, level-2 shape, level-2
    /// latency in cycles).
    TwoLevel(TlbOrganization, TlbOrganization, u32),
}

impl ItlbChoice {
    /// The paper's default: 32-entry fully associative.
    #[must_use]
    pub fn default_mono() -> Self {
        ItlbChoice::Mono(TlbOrganization::fully_associative(32))
    }

    /// Serializes as `mono <org>` or `two <l1-org> <l2-org> <latency>`
    /// (persistent run store codec).
    pub fn to_record(&self, w: &mut RecordWriter) {
        match self {
            ItlbChoice::Mono(org) => {
                w.token("mono");
                org.to_record(w);
            }
            ItlbChoice::TwoLevel(l1, l2, latency) => {
                w.token("two");
                l1.to_record(w);
                l2.to_record(w);
                w.u64(u64::from(*latency));
            }
        }
    }

    /// Parses a [`Self::to_record`] stream.
    ///
    /// # Errors
    ///
    /// Errors on a malformed stream.
    pub fn from_record(r: &mut RecordReader<'_>) -> Result<Self, RecordError> {
        match r.token()? {
            "mono" => Ok(ItlbChoice::Mono(TlbOrganization::from_record(r)?)),
            "two" => Ok(ItlbChoice::TwoLevel(
                TlbOrganization::from_record(r)?,
                TlbOrganization::from_record(r)?,
                r.u32()?,
            )),
            other => Err(RecordError::new(format!("unknown iTLB choice {other:?}"))),
        }
    }

    pub(crate) fn build(self, miss_penalty: u32) -> ItlbModel {
        match self {
            ItlbChoice::Mono(org) => ItlbModel::Mono(cfr_mem::Tlb::new(TlbConfig {
                organization: org,
                miss_penalty,
            })),
            ItlbChoice::TwoLevel(l1, l2, lat) => ItlbModel::TwoLevel(TwoLevelTlb::new(
                TlbConfig {
                    organization: l1,
                    miss_penalty,
                },
                TlbConfig {
                    organization: l2,
                    miss_penalty,
                },
                lat,
            )),
        }
    }
}

/// Everything a single simulation run needs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SimConfig {
    /// Core + memory-hierarchy configuration (Table 1).
    pub cpu: CpuConfig,
    /// iTLB structure.
    pub itlb: ItlbChoice,
    /// iTLB miss (page-walk) penalty in cycles.
    pub itlb_miss_penalty: u32,
    /// Committed instructions to simulate. The paper ran 250 M; the default
    /// here is 1/100 of that (rates are stationary, see the README's
    /// "Reproducing the paper").
    pub max_commits: u64,
    /// Walker seed (same seed ⇒ identical instruction stream).
    pub seed: u64,
}

impl SimConfig {
    /// The paper's default configuration at 1/100 scale.
    #[must_use]
    pub fn default_config() -> Self {
        Self {
            cpu: CpuConfig::default_config(),
            itlb: ItlbChoice::default_mono(),
            itlb_miss_penalty: 50,
            max_commits: 2_500_000,
            seed: 0x5EED,
        }
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        Self::default_config()
    }
}

/// The result of one run.
#[derive(Clone, Debug, PartialEq)]
pub struct RunReport {
    /// Strategy that ran.
    pub strategy: StrategyKind,
    /// iL1 addressing mode.
    pub mode: AddressingMode,
    /// Committed instructions.
    pub committed: u64,
    /// Total cycles.
    pub cycles: u64,
    /// iTLB behavioural counters.
    pub itlb: TlbStats,
    /// Translation-path energy accounting (iTLB accesses/refills, CFR
    /// reads, comparators).
    pub energy: EnergyMeter,
    /// Lookup cause breakdown (Table 3).
    pub breakdown: LookupBreakdown,
    /// Full pipeline statistics.
    pub cpu: CpuStats,
}

impl RunReport {
    /// Total translation-path energy in millijoules.
    #[must_use]
    pub fn itlb_energy_mj(&self) -> f64 {
        self.energy.total_mj()
    }

    /// Energy normalized against a base run (Figure 4's y-axis).
    #[must_use]
    pub fn energy_vs(&self, base: &RunReport) -> f64 {
        self.itlb_energy_mj() / base.itlb_energy_mj()
    }

    /// Cycles normalized against a base run (Figure 5's y-axis).
    #[must_use]
    pub fn cycles_vs(&self, base: &RunReport) -> f64 {
        self.cycles as f64 / base.cycles as f64
    }

    /// Serializes the full report — every counter and every energy
    /// component, floats as exact bits — so a warm store read reproduces
    /// byte-identical experiment output (persistent run store codec).
    pub fn to_record(&self, w: &mut RecordWriter) {
        w.token("report");
        self.strategy.to_record(w);
        self.mode.to_record(w);
        w.u64(self.committed);
        w.u64(self.cycles);
        self.itlb.to_record(w);
        self.energy.to_record(w);
        self.breakdown.to_record(w);
        self.cpu.to_record(w);
    }

    /// Parses a [`Self::to_record`] stream.
    ///
    /// # Errors
    ///
    /// Errors on a malformed stream — the store treats any error as a
    /// cache miss and re-simulates.
    pub fn from_record(r: &mut RecordReader<'_>) -> Result<Self, RecordError> {
        r.expect("report")?;
        Ok(Self {
            strategy: StrategyKind::from_record(r)?,
            mode: AddressingMode::from_record(r)?,
            committed: r.u64()?,
            cycles: r.u64()?,
            itlb: TlbStats::from_record(r)?,
            energy: EnergyMeter::from_record(r)?,
            breakdown: crate::strategy::LookupBreakdown::from_record(r)?,
            cpu: CpuStats::from_record(r)?,
        })
    }
}

/// A simulated run kept for the runs that drive the same pipeline — the
/// same binary, addressing mode and configuration up to the iTLB — to
/// replay their translators against (see [`Simulator::replay`]).
#[derive(Debug)]
pub(crate) struct Recorded {
    /// The pipeline's statistics.
    cpu: CpuStats,
    /// Every translator call, with the outputs the pipeline consumed.
    log: TranslationLog,
    /// The page table as the run left it.
    page_table: PageTable,
}

impl Recorded {
    /// The heap bytes the recording holds: its log and its page table.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.log.heap_bytes() + self.page_table.heap_bytes()
    }
}

/// Room a recorded run's log starts with, in bytes per committed
/// instruction. The paper's profiles log 0.5–1.3 bytes per commit, and a
/// finished log gives back the room it did not use.
const LOG_BYTES_PER_COMMIT: u64 = 2;

/// The top-level runner.
#[derive(Clone, Copy, Debug, Default)]
pub struct Simulator;

impl Simulator {
    /// Compiles `program` for `kind` and runs it to completion under the
    /// environment-selected [`ExecBackend`]. The [`crate::Engine`]
    /// memoizes each binary's pre-decoded trace (its layout, under the
    /// interpreter) across runs instead; callers holding a compiled
    /// program should use
    /// [`Simulator::run_traced`] or [`Simulator::run_interp`] directly.
    #[must_use]
    pub fn run_program(
        program: &Program,
        cfg: &SimConfig,
        kind: StrategyKind,
        mode: AddressingMode,
    ) -> RunReport {
        let laid = compiler::compile_for(program, cfg.cpu.geometry, kind);
        match ExecBackend::from_env() {
            ExecBackend::Compiled => Self::run_traced(&compile_trace(&laid), cfg, kind, mode),
            ExecBackend::Interp => Self::run_interp(&laid, cfg, kind, mode),
        }
    }

    /// Runs a compiled program on the reference interpreter backend,
    /// regardless of `$CFR_BACKEND`.
    #[must_use]
    pub fn run_interp(
        laid: &cfr_workload::LaidProgram,
        cfg: &SimConfig,
        kind: StrategyKind,
        mode: AddressingMode,
    ) -> RunReport {
        Self::run_pipeline(
            Pipeline::new(laid, cfg.cpu, cfg.seed),
            cfg,
            kind,
            mode,
            false,
        )
        .0
    }

    /// Runs a pre-decoded trace on the compiled-trace backend, regardless
    /// of `$CFR_BACKEND`. `trace` must be [`compile_trace`]'s output for
    /// the binary this `kind` and `cfg.cpu.geometry` denote.
    #[must_use]
    pub fn run_traced(
        trace: &CompiledTrace,
        cfg: &SimConfig,
        kind: StrategyKind,
        mode: AddressingMode,
    ) -> RunReport {
        Self::run_pipeline(
            Pipeline::compiled(trace, cfg.cpu, cfg.seed),
            cfg,
            kind,
            mode,
            false,
        )
        .0
    }

    /// Runs a binary's executable — its pre-decoded trace or its layout —
    /// exactly as [`Simulator::run_traced`] or [`Simulator::run_interp`]
    /// would. When `record`, the run is also kept for
    /// [`Simulator::replay`].
    pub(crate) fn run_binary(
        exe: &Executable,
        cfg: &SimConfig,
        kind: StrategyKind,
        mode: AddressingMode,
        record: bool,
    ) -> (RunReport, Option<Recorded>) {
        match exe {
            Executable::Traced(trace) => Self::run_pipeline(
                Pipeline::compiled(trace, cfg.cpu, cfg.seed),
                cfg,
                kind,
                mode,
                record,
            ),
            Executable::Laid(laid) => Self::run_pipeline(
                Pipeline::new(laid, cfg.cpu, cfg.seed),
                cfg,
                kind,
                mode,
                record,
            ),
        }
    }

    /// The report of the run (`cfg`, `kind`, `mode`) over the recorded
    /// run's binary, obtained by replaying only its translator against
    /// the recording ([`TranslationLog::replay`]): the recorded pipeline
    /// statistics plus this translator's iTLB counters, energy and lookup
    /// causes. Bit-identical to simulating it, which is what the replay
    /// checks call by call. `cfg` must equal the recorded run's
    /// configuration up to its iTLB, and the recorded run must be a plain
    /// run of the same binary and addressing mode.
    ///
    /// # Errors
    ///
    /// The first call at which this translator would have driven a
    /// different pipeline; the run must then be simulated.
    pub(crate) fn replay(
        recorded: &Recorded,
        cfg: &SimConfig,
        kind: StrategyKind,
        mode: AddressingMode,
    ) -> Result<RunReport, Mismatch> {
        let mut strategy = Self::strategy(cfg, kind, mode);
        let mut page_table = recorded.page_table.clone();
        recorded.log.replay(&mut strategy, &mut page_table)?;
        Ok(Self::report(&strategy, recorded.cpu, kind, mode))
    }

    fn strategy(cfg: &SimConfig, kind: StrategyKind, mode: AddressingMode) -> Strategy {
        Strategy::with_itlb(
            kind,
            mode,
            cfg.cpu.geometry,
            cfg.itlb.build(cfg.itlb_miss_penalty),
            EnergyModel::default(),
        )
    }

    fn report(
        strategy: &Strategy,
        cpu: CpuStats,
        kind: StrategyKind,
        mode: AddressingMode,
    ) -> RunReport {
        RunReport {
            strategy: kind,
            mode,
            committed: cpu.committed,
            cycles: cpu.cycles,
            itlb: strategy.itlb_stats(),
            energy: strategy.meter().clone(),
            breakdown: strategy.breakdown(),
            cpu,
        }
    }

    fn run_pipeline<B: ExecutionBackend>(
        mut pipe: Pipeline<B>,
        cfg: &SimConfig,
        kind: StrategyKind,
        mode: AddressingMode,
        record: bool,
    ) -> (RunReport, Option<Recorded>) {
        let mut strategy = Self::strategy(cfg, kind, mode);
        let log = if record {
            let bytes = cfg.max_commits.saturating_mul(LOG_BYTES_PER_COMMIT);
            let mut recorder = Recorder::new(&mut strategy, usize::try_from(bytes).unwrap_or(0));
            pipe.run(&mut recorder, cfg.max_commits);
            Some(recorder.finish())
        } else {
            pipe.run(&mut strategy, cfg.max_commits);
            None
        };
        let cpu = *pipe.stats();
        let recorded = log.map(|log| Recorded {
            cpu,
            log,
            page_table: pipe.page_table().clone(),
        });
        (Self::report(&strategy, cpu, kind, mode), recorded)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfr_workload::{generate, GeneratorParams};

    fn quick_cfg() -> SimConfig {
        let mut cfg = SimConfig::default_config();
        cfg.max_commits = 30_000;
        cfg
    }

    fn quick_report(kind: StrategyKind, mode: AddressingMode) -> RunReport {
        let program = generate(&GeneratorParams::small_test());
        Simulator::run_program(&program, &quick_cfg(), kind, mode)
    }

    #[test]
    fn base_vipt_charges_itlb_per_fetch() {
        let r = quick_report(StrategyKind::Base, AddressingMode::ViPt);
        assert_eq!(r.committed, 30_000);
        // Every fetch (right and wrong path) accessed the iTLB.
        let fetches = r.cpu.fetched + r.cpu.wrong_path_fetched;
        assert_eq!(r.itlb.accesses, fetches);
        assert!(r.itlb_energy_mj() > 0.0);
    }

    #[test]
    fn ia_saves_most_of_the_energy() {
        let base = quick_report(StrategyKind::Base, AddressingMode::ViPt);
        let ia = quick_report(StrategyKind::Ia, AddressingMode::ViPt);
        let ratio = ia.energy_vs(&base);
        assert!(ratio < 0.25, "IA should cut >75% of iTLB energy: {ratio}");
    }

    #[test]
    fn ordering_matches_figure4() {
        let cfg = quick_cfg();
        let program = generate(&GeneratorParams::small_test());
        let run = |k| Simulator::run_program(&program, &cfg, k, AddressingMode::ViPt);
        let base = run(StrategyKind::Base);
        let opt = run(StrategyKind::Opt);
        let hoa = run(StrategyKind::HoA);
        let soca = run(StrategyKind::SoCA);
        let sola = run(StrategyKind::SoLA);
        let ia = run(StrategyKind::Ia);
        // OPT is the floor; SoCA the worst of the four schemes; everything
        // beats base by a lot.
        let e = |r: &RunReport| r.itlb_energy_mj();
        assert!(e(&opt) <= e(&ia));
        assert!(e(&ia) <= e(&sola) * 1.05, "IA ~ SoLA or better");
        assert!(e(&sola) < e(&soca), "static analysis must help");
        assert!(e(&hoa) < e(&soca), "SoCA is the most conservative");
        for r in [&opt, &hoa, &soca, &sola, &ia] {
            assert!(e(r) < 0.6 * e(&base), "{} vs base", r.strategy);
        }
    }

    #[test]
    fn vivt_base_consumes_far_less_than_vipt_base() {
        let vipt = quick_report(StrategyKind::Base, AddressingMode::ViPt);
        let vivt = quick_report(StrategyKind::Base, AddressingMode::ViVt);
        assert!(
            vivt.itlb_energy_mj() < 0.3 * vipt.itlb_energy_mj(),
            "VI-VT translates only on iL1 misses"
        );
        assert!(vivt.cycles >= vipt.cycles, "VI-VT pays miss-path latency");
    }

    #[test]
    fn pipt_base_is_slowest_and_ia_repairs_it() {
        let pipt_base = quick_report(StrategyKind::Base, AddressingMode::PiPt);
        let pipt_ia = quick_report(StrategyKind::Ia, AddressingMode::PiPt);
        let vipt_base = quick_report(StrategyKind::Base, AddressingMode::ViPt);
        assert!(
            pipt_base.cycles > vipt_base.cycles,
            "serial iTLB must cost cycles"
        );
        assert!(
            pipt_ia.cycles < pipt_base.cycles,
            "the CFR pulls the iTLB off the critical path"
        );
    }

    #[test]
    fn same_seed_same_stream() {
        let a = quick_report(StrategyKind::Base, AddressingMode::ViPt);
        let b = quick_report(StrategyKind::Base, AddressingMode::ViPt);
        assert_eq!(a, b);
    }

    #[test]
    fn two_level_base_vs_mono_ia_energy() {
        // Fig 6, 32-entry flavour: two-level (1 + 32) base consumes more
        // energy than monolithic 32 with IA.
        let program = generate(&GeneratorParams::small_test());
        let mut cfg = quick_cfg();
        cfg.itlb = ItlbChoice::TwoLevel(
            TlbOrganization::fully_associative(1),
            TlbOrganization::fully_associative(32),
            1,
        );
        let two_level_base =
            Simulator::run_program(&program, &cfg, StrategyKind::Base, AddressingMode::ViPt);
        let mut mono_cfg = quick_cfg();
        mono_cfg.itlb = ItlbChoice::default_mono();
        let mono_ia =
            Simulator::run_program(&program, &mono_cfg, StrategyKind::Ia, AddressingMode::ViPt);
        assert!(
            two_level_base.itlb_energy_mj() > mono_ia.itlb_energy_mj(),
            "filter TLB still pays a per-fetch comparison; the CFR does not"
        );
        assert!(
            two_level_base.cycles >= mono_ia.cycles,
            "two-level pays the serial L2 lookup on filter misses"
        );
    }

    #[test]
    fn run_report_record_round_trips() {
        // A real (tiny) run exercises every field, energy floats included.
        let report = quick_report(StrategyKind::Ia, AddressingMode::ViPt);
        let mut w = RecordWriter::new();
        report.to_record(&mut w);
        let record = w.finish();
        let mut r = RecordReader::new(&record);
        let back = RunReport::from_record(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back, report, "bit-exact round trip");
        // Truncation and tag damage are errors, never mis-parses.
        assert!(
            RunReport::from_record(&mut RecordReader::new(&record[..record.len() - 8])).is_err()
        );
        let damaged = record.replacen("report", "repork", 1);
        assert!(RunReport::from_record(&mut RecordReader::new(&damaged)).is_err());
    }

    #[test]
    fn itlb_choice_record_round_trips() {
        for choice in [
            ItlbChoice::default_mono(),
            ItlbChoice::Mono(TlbOrganization::set_associative(16, 2)),
            ItlbChoice::TwoLevel(
                TlbOrganization::fully_associative(1),
                TlbOrganization::fully_associative(32),
                1,
            ),
        ] {
            let mut w = RecordWriter::new();
            choice.to_record(&mut w);
            let record = w.finish();
            let mut r = RecordReader::new(&record);
            assert_eq!(ItlbChoice::from_record(&mut r).unwrap(), choice);
            r.finish().unwrap();
        }
    }

    #[test]
    fn a_walk_the_stall_hides_rejects_the_replay_of_an_identical_pipeline() {
        // With `itlb_miss_penalty: 0` a 1-entry iTLB misses far more often
        // than the default 32-entry one, yet no stall or frame shows it:
        // both runs drive the same pipeline. Only the walk check tells
        // them apart, and it rejects the replay.
        let gap = cfr_workload::profiles::all()
            .into_iter()
            .find(|p| p.name == "254.gap")
            .expect("a canonical profile");
        let mut cfg = quick_cfg();
        cfg.itlb_miss_penalty = 0;
        let laid = compiler::compile_for(&gap.generate(), cfg.cpu.geometry, StrategyKind::Base);
        let bin = Executable::Laid(std::sync::Arc::new(laid));
        let (kind, mode) = (StrategyKind::Base, AddressingMode::ViPt);
        let (big, recorded) = Simulator::run_binary(&bin, &cfg, kind, mode, true);
        let recorded = recorded.expect("a recorded run");
        let mut one_entry = cfg;
        one_entry.itlb = ItlbChoice::Mono(TlbOrganization::fully_associative(1));
        let (small, _) = Simulator::run_binary(&bin, &one_entry, kind, mode, false);
        assert_eq!(small.cpu, big.cpu, "one pipeline");
        assert!(small.itlb.misses > big.itlb.misses);
        let mismatch = Simulator::replay(&recorded, &one_entry, kind, mode).unwrap_err();
        assert_eq!(mismatch.output, cfr_cpu::Consumed::Walks);
        // The recorded run's own translator replays to its own report.
        let again = Simulator::replay(&recorded, &cfg, kind, mode);
        assert_eq!(again, Ok(big));
    }

    #[test]
    fn soca_breakdown_has_both_causes() {
        let r = quick_report(StrategyKind::SoCA, AddressingMode::ViPt);
        assert!(r.breakdown.branch > 0);
        // The tiny test program may or may not execute boundary branches;
        // the sum must equal the iTLB access count either way.
        assert_eq!(r.breakdown.branch + r.breakdown.boundary, r.itlb.accesses);
    }
}
