//! Reproduction of every table and figure in the paper's evaluation
//! (§4), as reusable functions: the `cfr-bench` binaries print these rows,
//! and the integration tests assert their shapes at reduced scale.
//!
//! Every function here is a *thin plan* over the [`Engine`]: it declares
//! the [`RunKey`]s it needs, lets the engine simulate the missing ones in
//! parallel (deduplicated against everything already simulated), and then
//! assembles rows from the cached reports. Sharing one engine across
//! several tables — as `all_experiments` does — means overlapping runs
//! (e.g. the base VI-PT runs that Table 2, Table 5, Figure 4, and Table 8
//! all need) are simulated exactly once.

use cfr_types::{AddressingMode, TlbOrganization};

use crate::engine::{Engine, RunKey};
use crate::simulator::{ItlbChoice, RunReport, SimConfig};
use crate::strategy::StrategyKind;

/// How big to run each experiment. The paper simulated 250 M committed
/// instructions; smaller runs are compared by their normalized results,
/// which are not all stationary at 1 M (README, "Reproducing the paper",
/// tables `254.gap`'s BOUNDARY share by run length and walker seed).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ExperimentScale {
    /// Committed instructions per run.
    pub max_commits: u64,
    /// Walker seed.
    pub seed: u64,
}

impl ExperimentScale {
    /// The default reproduction scale (1/100 of the paper's 250 M).
    #[must_use]
    pub fn full() -> Self {
        Self {
            max_commits: 2_500_000,
            seed: 0x5EED,
        }
    }

    /// A fast scale for CI and integration tests.
    #[must_use]
    pub fn quick() -> Self {
        Self {
            max_commits: 120_000,
            seed: 0x5EED,
        }
    }

    /// Scale factor to extrapolate absolute numbers to the paper's 250 M
    /// instructions (energies and cycles scale linearly in instructions).
    #[must_use]
    pub fn to_paper_factor(&self) -> f64 {
        250e6 / self.max_commits as f64
    }

    /// The simulator configuration this scale denotes (default iTLB).
    #[must_use]
    pub fn config(&self) -> SimConfig {
        let mut cfg = SimConfig::default_config();
        cfg.max_commits = self.max_commits;
        cfg.seed = self.seed;
        cfg
    }

    /// Serializes as `scale <max_commits> <seed>` (persistent run store
    /// codec).
    pub fn to_record(&self, w: &mut cfr_types::RecordWriter) {
        w.token("scale");
        w.u64(self.max_commits);
        w.u64(self.seed);
    }

    /// Parses a [`Self::to_record`] stream.
    ///
    /// # Errors
    ///
    /// Errors on a malformed stream.
    pub fn from_record(
        r: &mut cfr_types::RecordReader<'_>,
    ) -> Result<Self, cfr_types::RecordError> {
        r.expect("scale")?;
        Ok(Self {
            max_commits: r.u64()?,
            seed: r.u64()?,
        })
    }
}

// ---------------------------------------------------------------- Table 2

/// One row of Table 2: benchmark characteristics under the default
/// configuration. Energies in mJ, cycles in raw counts; the bench binary
/// extrapolates to the paper's 250 M-instruction scale for display.
#[derive(Clone, Debug)]
pub struct Table2Row {
    /// Benchmark name.
    pub name: &'static str,
    /// Base VI-PT cycles.
    pub vipt_cycles: u64,
    /// Base VI-PT iTLB energy (mJ).
    pub vipt_energy_mj: f64,
    /// Base VI-VT cycles.
    pub vivt_cycles: u64,
    /// Base VI-VT iTLB energy (mJ).
    pub vivt_energy_mj: f64,
    /// iL1 miss rate.
    pub il1_miss_rate: f64,
    /// Dynamic branches.
    pub branches: u64,
    /// Branches / committed.
    pub branch_fraction: f64,
    /// BOUNDARY page crossings.
    pub crossings_boundary: u64,
    /// BRANCH page crossings.
    pub crossings_branch: u64,
}

/// Reproduces Table 2.
#[must_use]
pub fn table2(engine: &Engine, scale: &ExperimentScale) -> Vec<Table2Row> {
    let keys: Vec<RunKey> = engine
        .profiles()
        .iter()
        .flat_map(|p| {
            [
                RunKey::new(p.name, scale, StrategyKind::Base, AddressingMode::ViPt),
                RunKey::new(p.name, scale, StrategyKind::Base, AddressingMode::ViVt),
            ]
        })
        .collect();
    let reports = engine.run_many(&keys);
    engine
        .profiles()
        .iter()
        .zip(reports.chunks_exact(2))
        .map(|(p, pair)| {
            let (vipt, vivt) = (&pair[0], &pair[1]);
            Table2Row {
                name: p.name,
                vipt_cycles: vipt.cycles,
                vipt_energy_mj: vipt.itlb_energy_mj(),
                vivt_cycles: vivt.cycles,
                vivt_energy_mj: vivt.itlb_energy_mj(),
                il1_miss_rate: vipt.cpu.il1.miss_rate(),
                branches: vipt.cpu.branches,
                branch_fraction: vipt.cpu.branches as f64 / vipt.committed as f64,
                crossings_boundary: vipt.cpu.crossings_boundary,
                crossings_branch: vipt.cpu.crossings_branch,
            }
        })
        .collect()
}

// ------------------------------------------------------------ Figures 4/5

/// One benchmark's normalized results for one addressing mode: energy (and
/// cycles) of each scheme relative to the base case (Figure 4's bars, and
/// Figure 5's when `mode == ViVt`).
#[derive(Clone, Debug)]
pub struct Fig4Row {
    /// Benchmark name.
    pub name: &'static str,
    /// Addressing mode.
    pub mode: AddressingMode,
    /// Normalized iTLB energy per scheme, base = 1.0:
    /// `[HoA, SoCA, SoLA, IA, OPT]`.
    pub energy: [f64; 5],
    /// Normalized execution cycles per scheme, same order.
    pub cycles: [f64; 5],
}

/// The scheme order used by [`Fig4Row`].
pub const FIG4_SCHEMES: [StrategyKind; 5] = [
    StrategyKind::HoA,
    StrategyKind::SoCA,
    StrategyKind::SoLA,
    StrategyKind::Ia,
    StrategyKind::Opt,
];

/// Reproduces Figure 4 (both the VI-PT and VI-VT panels).
#[must_use]
pub fn fig4(engine: &Engine, scale: &ExperimentScale) -> Vec<Fig4Row> {
    fig4_panels(engine, scale, &[AddressingMode::ViPt, AddressingMode::ViVt])
}

/// The shared plan behind [`fig4`] and [`fig5`]: one row per
/// (mode, benchmark), simulating only the requested panels.
fn fig4_panels(engine: &Engine, scale: &ExperimentScale, modes: &[AddressingMode]) -> Vec<Fig4Row> {
    let mut keys = Vec::new();
    for &mode in modes {
        for p in engine.profiles() {
            keys.push(RunKey::new(p.name, scale, StrategyKind::Base, mode));
            for kind in FIG4_SCHEMES {
                keys.push(RunKey::new(p.name, scale, kind, mode));
            }
        }
    }
    let reports = engine.run_many(&keys);
    keys.chunks_exact(6)
        .zip(reports.chunks_exact(6))
        .map(|(group, runs)| {
            let base = &runs[0];
            let mut energy = [0.0; 5];
            let mut cycles = [0.0; 5];
            for (i, r) in runs[1..].iter().enumerate() {
                energy[i] = r.energy_vs(base);
                cycles[i] = r.cycles_vs(base);
            }
            Fig4Row {
                name: group[0].profile,
                mode: group[0].mode,
                energy,
                cycles,
            }
        })
        .collect()
}

/// Reproduces Figure 5: normalized execution cycles for VI-VT (the VI-VT
/// panel of [`fig4`], exposed separately to mirror the paper's figure
/// list — and planned separately, so a standalone Figure 5 run simulates
/// only the VI-VT keys).
#[must_use]
pub fn fig5(engine: &Engine, scale: &ExperimentScale) -> Vec<Fig4Row> {
    fig4_panels(engine, scale, &[AddressingMode::ViVt])
}

// ---------------------------------------------------------------- Table 3

/// Dynamic iTLB lookups for the software schemes, split by cause (VI-PT).
#[derive(Clone, Debug)]
pub struct Table3Row {
    /// Benchmark name.
    pub name: &'static str,
    /// `[SoCA, SoLA, IA]` × (boundary lookups, branch lookups).
    pub lookups: [(u64, u64); 3],
}

/// Reproduces Table 3.
#[must_use]
pub fn table3(engine: &Engine, scale: &ExperimentScale) -> Vec<Table3Row> {
    const KINDS: [StrategyKind; 3] = [StrategyKind::SoCA, StrategyKind::SoLA, StrategyKind::Ia];
    let keys: Vec<RunKey> = engine
        .profiles()
        .iter()
        .flat_map(|p| KINDS.map(|k| RunKey::new(p.name, scale, k, AddressingMode::ViPt)))
        .collect();
    let reports = engine.run_many(&keys);
    engine
        .profiles()
        .iter()
        .zip(reports.chunks_exact(3))
        .map(|(p, runs)| {
            let mut lookups = [(0, 0); 3];
            for (slot, r) in lookups.iter_mut().zip(runs) {
                *slot = (r.breakdown.boundary, r.breakdown.branch);
            }
            Table3Row {
                name: p.name,
                lookups,
            }
        })
        .collect()
}

// ---------------------------------------------------------------- Table 4

/// Static and dynamic branch statistics.
#[derive(Clone, Debug)]
pub struct Table4Row {
    /// Benchmark name.
    pub name: &'static str,
    /// Static branch sites.
    pub static_total: u64,
    /// Static analyzable sites.
    pub static_analyzable: u64,
    /// Static analyzable sites crossing a page.
    pub static_crossing: u64,
    /// Static analyzable sites staying in-page.
    pub static_in_page: u64,
    /// Dynamic branch instances.
    pub dyn_total: u64,
    /// Dynamic analyzable instances.
    pub dyn_analyzable: u64,
    /// Dynamic analyzable instances crossing a page.
    pub dyn_crossing: u64,
    /// Dynamic analyzable instances staying in-page.
    pub dyn_in_page: u64,
}

/// Reproduces Table 4 (functional walk; no pipeline needed). The walks
/// go through [`Engine::walk_measurements`] — one batched probe of the
/// `walks` namespace for the whole benchmark set — so with a store
/// attached a warm invocation reads every measurement in a single
/// exchange, touching neither the program generator nor the walker.
#[must_use]
pub fn table4(engine: &Engine, scale: &ExperimentScale) -> Vec<Table4Row> {
    let names: Vec<&str> = engine.profiles().iter().map(|p| p.name).collect();
    let measurements = engine.walk_measurements(&names, scale);
    engine
        .profiles()
        .iter()
        .zip(measurements)
        .map(|(p, m)| {
            let (st, dynamic) = (&m.static_branches, &m.functional);
            Table4Row {
                name: p.name,
                static_total: st.total,
                static_analyzable: st.analyzable,
                static_crossing: st.analyzable_crossing,
                static_in_page: st.analyzable_in_page,
                dyn_total: dynamic.branches,
                dyn_analyzable: dynamic.analyzable,
                dyn_crossing: dynamic.analyzable_crossing,
                dyn_in_page: dynamic.analyzable_in_page,
            }
        })
        .collect()
}

// ---------------------------------------------------------------- Table 5

/// Reproduces Table 5: branch predictor accuracy per benchmark (from the
/// base VI-PT pipeline run, over all branch kinds).
#[must_use]
pub fn table5(engine: &Engine, scale: &ExperimentScale) -> Vec<(&'static str, f64)> {
    let keys: Vec<RunKey> = engine
        .profiles()
        .iter()
        .map(|p| RunKey::new(p.name, scale, StrategyKind::Base, AddressingMode::ViPt))
        .collect();
    let reports = engine.run_many(&keys);
    engine
        .profiles()
        .iter()
        .zip(reports)
        .map(|(p, r)| (p.name, r.cpu.predictor_accuracy()))
        .collect()
}

// ------------------------------------------------------------- Tables 6/7

/// The four monolithic iTLB configurations of Table 6, in paper order.
#[must_use]
pub fn table6_itlbs() -> [(&'static str, TlbOrganization); 4] {
    [
        ("1", TlbOrganization::fully_associative(1)),
        ("8,FA", TlbOrganization::fully_associative(8)),
        ("16,2w", TlbOrganization::set_associative(16, 2)),
        ("32,FA", TlbOrganization::fully_associative(32)),
    ]
}

/// One benchmark × one iTLB configuration of Table 6.
#[derive(Clone, Debug)]
pub struct Table6Row {
    /// Benchmark name.
    pub name: &'static str,
    /// iTLB label (`"1"`, `"8,FA"`, `"16,2w"`, `"32,FA"`).
    pub itlb: &'static str,
    /// VI-PT energies (mJ): `[Base, OPT, IA]`.
    pub vipt_energy_mj: [f64; 3],
    /// VI-VT energies (mJ): `[Base, OPT, IA]`.
    pub vivt_energy_mj: [f64; 3],
    /// VI-VT cycles: `[Base, OPT, IA]`.
    pub vivt_cycles: [u64; 3],
    /// VI-PT cycles for IA (feeds Table 7).
    pub vipt_ia_cycles: u64,
}

/// Reproduces Table 6 (and supplies Table 7's column).
#[must_use]
pub fn table6(engine: &Engine, scale: &ExperimentScale) -> Vec<Table6Row> {
    const KINDS: [StrategyKind; 3] = [StrategyKind::Base, StrategyKind::Opt, StrategyKind::Ia];
    let mut keys = Vec::new();
    for (_, org) in table6_itlbs() {
        for p in engine.profiles() {
            for kind in KINDS {
                for mode in [AddressingMode::ViPt, AddressingMode::ViVt] {
                    keys.push(
                        RunKey::new(p.name, scale, kind, mode).with_itlb(ItlbChoice::Mono(org)),
                    );
                }
            }
        }
    }
    let reports = engine.run_many(&keys);
    let mut rows = Vec::new();
    let mut runs = reports.chunks_exact(6);
    for (label, _) in table6_itlbs() {
        for p in engine.profiles() {
            // Chunk layout: [Base×(PT,VT), OPT×(PT,VT), IA×(PT,VT)].
            let chunk = runs.next().expect("one chunk per (itlb, profile)");
            let mut vipt_energy = [0.0; 3];
            let mut vivt_energy = [0.0; 3];
            let mut vivt_cycles = [0; 3];
            for i in 0..3 {
                let (rp, rv) = (&chunk[2 * i], &chunk[2 * i + 1]);
                vipt_energy[i] = rp.itlb_energy_mj();
                vivt_energy[i] = rv.itlb_energy_mj();
                vivt_cycles[i] = rv.cycles;
            }
            rows.push(Table6Row {
                name: p.name,
                itlb: label,
                vipt_energy_mj: vipt_energy,
                vivt_energy_mj: vivt_energy,
                vivt_cycles,
                vipt_ia_cycles: chunk[4].cycles,
            });
        }
    }
    rows
}

/// Reproduces Table 7: IA (VI-PT) execution cycles across iTLB sizes.
/// Returns `(benchmark, [cycles for 1, 8FA, 16x2, 32FA])`.
#[must_use]
pub fn table7(engine: &Engine, scale: &ExperimentScale) -> Vec<(&'static str, [u64; 4])> {
    let rows = table6(engine, scale);
    engine
        .profiles()
        .iter()
        .map(|p| {
            let mut cycles = [0u64; 4];
            for (i, (label, _)) in table6_itlbs().iter().enumerate() {
                cycles[i] = rows
                    .iter()
                    .find(|r| r.name == p.name && r.itlb == *label)
                    .expect("table6 covers the matrix")
                    .vipt_ia_cycles;
            }
            (p.name, cycles)
        })
        .collect()
}

// ---------------------------------------------------------------- Fig 6

/// One benchmark's two-level-vs-monolithic comparison (Figure 6).
#[derive(Clone, Debug)]
pub struct Fig6Row {
    /// Benchmark name.
    pub name: &'static str,
    /// Configuration label (`"1+32"` or `"32+96"`).
    pub config: &'static str,
    /// Two-level base energy normalized to the monolithic-IA reference.
    pub energy_ratio: f64,
    /// Two-level base cycles normalized to the monolithic-IA reference.
    pub cycle_ratio: f64,
}

/// Reproduces Figure 6: serial two-level iTLBs (base execution) against
/// monolithic iTLBs running IA — (1+32) vs mono-32+IA, and (32+96) vs
/// mono-128+IA. Evaluated on VI-PT, where the iTLB is exercised per fetch.
#[must_use]
pub fn fig6(engine: &Engine, scale: &ExperimentScale) -> Vec<Fig6Row> {
    let combos = [
        (
            "1+32",
            ItlbChoice::TwoLevel(
                TlbOrganization::fully_associative(1),
                TlbOrganization::fully_associative(32),
                1,
            ),
            TlbOrganization::fully_associative(32),
        ),
        (
            "32+96",
            ItlbChoice::TwoLevel(
                TlbOrganization::fully_associative(32),
                TlbOrganization::fully_associative(96),
                1,
            ),
            TlbOrganization::fully_associative(128),
        ),
    ];
    let mut keys = Vec::new();
    for (_, two_level, mono) in combos {
        for p in engine.profiles() {
            keys.push(
                RunKey::new(p.name, scale, StrategyKind::Base, AddressingMode::ViPt)
                    .with_itlb(two_level),
            );
            keys.push(
                RunKey::new(p.name, scale, StrategyKind::Ia, AddressingMode::ViPt)
                    .with_itlb(ItlbChoice::Mono(mono)),
            );
        }
    }
    let reports = engine.run_many(&keys);
    let mut rows = Vec::new();
    let mut runs = reports.chunks_exact(2);
    for (label, _, _) in combos {
        for p in engine.profiles() {
            let pair = runs.next().expect("one pair per (combo, profile)");
            let (two, reference) = (&pair[0], &pair[1]);
            rows.push(Fig6Row {
                name: p.name,
                config: label,
                energy_ratio: two.itlb_energy_mj() / reference.itlb_energy_mj(),
                cycle_ratio: two.cycles as f64 / reference.cycles as f64,
            });
        }
    }
    rows
}

// ---------------------------------------------------------------- Table 8

/// One benchmark's PI-PT study (Table 8): energy (mJ) and cycles for the
/// four configurations the paper compares.
#[derive(Clone, Debug)]
pub struct Table8Row {
    /// Benchmark name.
    pub name: &'static str,
    /// Base PI-PT (energy mJ, cycles).
    pub pipt_base: (f64, u64),
    /// PI-PT with IA.
    pub pipt_ia: (f64, u64),
    /// Base VI-PT.
    pub vipt_base: (f64, u64),
    /// Base VI-VT.
    pub vivt_base: (f64, u64),
}

/// Reproduces Table 8.
#[must_use]
pub fn table8(engine: &Engine, scale: &ExperimentScale) -> Vec<Table8Row> {
    let keys: Vec<RunKey> = engine
        .profiles()
        .iter()
        .flat_map(|p| {
            [
                RunKey::new(p.name, scale, StrategyKind::Base, AddressingMode::PiPt),
                RunKey::new(p.name, scale, StrategyKind::Ia, AddressingMode::PiPt),
                RunKey::new(p.name, scale, StrategyKind::Base, AddressingMode::ViPt),
                RunKey::new(p.name, scale, StrategyKind::Base, AddressingMode::ViVt),
            ]
        })
        .collect();
    let reports = engine.run_many(&keys);
    engine
        .profiles()
        .iter()
        .zip(reports.chunks_exact(4))
        .map(|(p, runs)| {
            let e = |r: &RunReport| (r.itlb_energy_mj(), r.cycles);
            Table8Row {
                name: p.name,
                pipt_base: e(&runs[0]),
                pipt_ia: e(&runs[1]),
                vipt_base: e(&runs[2]),
                vivt_base: e(&runs[3]),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    // Experiments over the six full profiles are exercised (at quick scale)
    // by the integration tests in `tests/`; here we keep one smoke test per
    // shape helper that doesn't need a pipeline.

    #[test]
    fn scale_factors() {
        let s = ExperimentScale::full();
        assert!((s.to_paper_factor() - 100.0).abs() < 1e-9);
        assert!(ExperimentScale::quick().max_commits < s.max_commits);
    }

    #[test]
    fn table6_itlb_list_matches_paper() {
        let list = table6_itlbs();
        assert_eq!(list.len(), 4);
        assert_eq!(list[0].1.entries, 1);
        assert_eq!(list[2].1.associativity, 2);
        assert_eq!(list[3].1.entries, 32);
    }

    #[test]
    fn table4_runs_without_pipeline() {
        let engine = Engine::new();
        let rows = table4(
            &engine,
            &ExperimentScale {
                max_commits: 20_000,
                seed: 1,
            },
        );
        assert_eq!(rows.len(), 6);
        assert_eq!(engine.simulated_runs(), 0, "table4 needs no pipeline runs");
        for r in rows {
            assert!(r.static_analyzable <= r.static_total);
            assert_eq!(r.static_in_page + r.static_crossing, r.static_analyzable);
            assert_eq!(r.dyn_in_page + r.dyn_crossing, r.dyn_analyzable);
        }
    }
}
