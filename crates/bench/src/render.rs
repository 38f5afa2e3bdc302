//! One renderer per experiment. Each renders its experiment's section of
//! the `all_experiments` document from a shared [`Engine`]: measured
//! values next to the paper's published numbers. The experiment binaries
//! print exactly their renderer's section ([`crate::print_section`]), so a
//! binary's output and its `all_experiments` section cannot drift apart.
//!
//! Every section of [`ALL`] after the first opens with the blank line
//! that separates it from the one before, so the document is the header
//! followed by the sections' plain concatenation.

use std::fmt;

use cfr_core::{
    Engine, ExperimentScale, RunKey, ScenarioConfig, ScenarioProc, StrategyKind, TlbMode,
    FIG4_SCHEMES,
};
use cfr_types::AddressingMode;
use cfr_workload::profiles;

use crate::pct;

/// An experiment's renderer.
pub type Render = fn(&Engine, &ExperimentScale) -> String;

/// The paper's tables and figures, in the order `all_experiments` prints
/// them.
pub const ALL: [Render; 10] = [
    table2, fig4, fig5, table3, table4, table5, table6, table7, fig6, table8,
];

/// A section's text. `write!` and `writeln!` call this inherent
/// `write_fmt`, which cannot fail, so the renderers need no error
/// plumbing.
#[derive(Default)]
struct Section(String);

impl Section {
    fn write_fmt(&mut self, args: fmt::Arguments) {
        fmt::Write::write_fmt(&mut self.0, args).expect("formatting into a String cannot fail");
    }
}

/// Table 2: benchmark characteristics under the default configuration
/// (Table 1), base execution.
#[must_use]
pub fn table2(engine: &Engine, scale: &ExperimentScale) -> String {
    let f = scale.to_paper_factor();
    let rows = cfr_core::table2(engine, scale);
    let mut out = Section::default();
    writeln!(out, "## Table 2 — benchmark characteristics (base runs)\n");
    writeln!(out, "| benchmark | VI-PT cycles M (paper) | VI-PT E mJ (paper) | VI-VT cycles M (paper) | VI-VT E mJ (paper) | iL1 miss (paper) | BOUNDARY share (paper) |");
    writeln!(out, "|---|---|---|---|---|---|---|");
    for (r, p) in rows.iter().zip(profiles::all()) {
        let t = &p.paper;
        writeln!(
            out,
            "| {} | {:.1} ({:.1}) | {:.1} ({:.1}) | {:.1} ({:.1}) | {:.2} ({:.2}) | {:.4} ({:.4}) | {:.1}% ({:.1}%) |",
            r.name,
            r.vipt_cycles as f64 * f / 1e6,
            t.vipt_cycles_m,
            r.vipt_energy_mj * f,
            t.vipt_energy_mj,
            r.vivt_cycles as f64 * f / 1e6,
            t.vivt_cycles_m,
            r.vivt_energy_mj * f,
            t.vivt_energy_mj,
            r.il1_miss_rate,
            t.il1_miss_rate,
            100.0 * r.crossings_boundary as f64
                / (r.crossings_boundary + r.crossings_branch).max(1) as f64,
            100.0 * t.boundary_share,
        );
    }
    out.0
}

/// The Figure 4/5 table header: one column per scheme of [`FIG4_SCHEMES`].
fn scheme_header(out: &mut Section) {
    write!(out, "| benchmark |");
    for k in FIG4_SCHEMES {
        write!(out, " {} |", k.name());
    }
    writeln!(out, "\n|---|---|---|---|---|---|");
}

/// Figure 4: normalized iTLB energy of HoA/SoCA/SoLA/IA/OPT relative to
/// base, for VI-PT (top panel) and VI-VT (bottom panel).
#[must_use]
pub fn fig4(engine: &Engine, scale: &ExperimentScale) -> String {
    let rows = cfr_core::fig4(engine, scale);
    let mut out = Section::default();
    for mode in [AddressingMode::ViPt, AddressingMode::ViVt] {
        writeln!(
            out,
            "\n## Figure 4 ({mode}) — normalized iTLB energy, base = 100%\n"
        );
        scheme_header(&mut out);
        let mode_rows: Vec<_> = rows.iter().filter(|r| r.mode == mode).collect();
        let mut avg = [0.0f64; 5];
        for r in &mode_rows {
            write!(out, "| {} |", r.name);
            for (i, e) in r.energy.iter().enumerate() {
                avg[i] += e;
                write!(out, " {:.2}% |", e * 100.0);
            }
            writeln!(out);
        }
        write!(out, "| **average** |");
        for a in avg {
            write!(out, " **{:.2}%** |", a * 100.0 / mode_rows.len() as f64);
        }
        writeln!(out);
        let paper = match mode {
            AddressingMode::ViPt => [5.69, 12.24, 5.01, 3.82, 3.20],
            _ => [15.23, 36.83, 16.39, 14.04, 12.74],
        };
        write!(out, "| *paper avg* |");
        for p in paper {
            write!(out, " *{p:.2}%* |");
        }
        writeln!(out);
    }
    out.0
}

/// Figure 5: normalized execution cycles for VI-VT. On a fresh engine it
/// simulates only the VI-VT runs; after [`fig4`] it simulates nothing.
#[must_use]
pub fn fig5(engine: &Engine, scale: &ExperimentScale) -> String {
    let rows = cfr_core::fig5(engine, scale);
    let mut out = Section::default();
    writeln!(
        out,
        "\n## Figure 5 (VI-VT) — normalized execution cycles, base = 100%\n"
    );
    scheme_header(&mut out);
    for r in &rows {
        write!(out, "| {} |", r.name);
        for c in r.cycles {
            write!(out, " {:.2}% |", c * 100.0);
        }
        writeln!(out);
    }
    writeln!(out, "| *paper* | — | — | — | *94.5–98% (avg 96.45%)* | — |");
    out.0
}

/// Table 3: dynamic iTLB lookups for SoCA/SoLA/IA, split into the
/// BOUNDARY and BRANCH cases (VI-PT).
#[must_use]
pub fn table3(engine: &Engine, scale: &ExperimentScale) -> String {
    let rows = cfr_core::table3(engine, scale);
    let mut out = Section::default();
    writeln!(
        out,
        "\n## Table 3 — dynamic iTLB lookups by cause (VI-PT)\n"
    );
    writeln!(
        out,
        "| benchmark | SoCA bnd/branch | SoLA bnd/branch | IA bnd/branch |"
    );
    writeln!(out, "|---|---|---|---|");
    for r in rows {
        write!(out, "| {} |", r.name);
        for (b, br) in r.lookups {
            write!(out, " {b}/{br} |");
        }
        writeln!(out);
    }
    writeln!(
        out,
        "\nPaper shape: the BRANCH column shrinks SoCA → SoLA → IA while BOUNDARY is constant."
    );
    out.0
}

/// Table 4: static and dynamic branch statistics — how many branches are
/// statically analyzable, and how many of those stay in-page.
#[must_use]
pub fn table4(engine: &Engine, scale: &ExperimentScale) -> String {
    let rows = cfr_core::table4(engine, scale);
    let mut out = Section::default();
    writeln!(out, "\n## Table 4 — branch statistics\n");
    writeln!(out, "| benchmark | static total | static analyzable | static in-page | dyn analyzable % (paper) | dyn in-page % (paper) |");
    writeln!(out, "|---|---|---|---|---|---|");
    for (r, p) in rows.iter().zip(profiles::all()) {
        writeln!(
            out,
            "| {} | {} | {} | {} | {:.1}% ({:.1}%) | {:.1}% ({:.1}%) |",
            r.name,
            r.static_total,
            r.static_analyzable,
            r.static_in_page,
            100.0 * r.dyn_analyzable as f64 / r.dyn_total.max(1) as f64,
            100.0 * p.paper.analyzable_fraction,
            100.0 * r.dyn_in_page as f64 / r.dyn_analyzable.max(1) as f64,
            100.0 * p.paper.in_page_fraction,
        );
    }
    out.0
}

/// Table 5: branch predictor accuracy.
#[must_use]
pub fn table5(engine: &Engine, scale: &ExperimentScale) -> String {
    let rows = cfr_core::table5(engine, scale);
    let mut out = Section::default();
    writeln!(out, "\n## Table 5 — branch predictor accuracy\n");
    writeln!(out, "| benchmark | measured | paper |");
    writeln!(out, "|---|---|---|");
    for ((name, acc), p) in rows.iter().zip(profiles::all()) {
        writeln!(
            out,
            "| {} | {:.2}% | {:.2}% |",
            name,
            acc * 100.0,
            p.paper.predictor_accuracy * 100.0
        );
    }
    out.0
}

/// Table 6: Base/OPT/IA across four monolithic iTLB configurations,
/// averaged over the six benchmarks to keep the table readable.
#[must_use]
pub fn table6(engine: &Engine, scale: &ExperimentScale) -> String {
    let t6 = cfr_core::table6(engine, scale);
    let mut out = Section::default();
    writeln!(
        out,
        "\n## Table 6 — iTLB sweep (per-config averages over the six benchmarks)\n"
    );
    writeln!(
        out,
        "| iTLB | VI-PT OPT/base | VI-PT IA/base | VI-VT IA cycles/base |"
    );
    writeln!(out, "|---|---|---|---|");
    for (label, _) in cfr_core::table6_itlbs() {
        let rows: Vec<_> = t6.iter().filter(|r| r.itlb == label).collect();
        let n = rows.len() as f64;
        let opt: f64 = rows
            .iter()
            .map(|r| r.vipt_energy_mj[1] / r.vipt_energy_mj[0])
            .sum::<f64>()
            / n;
        let ia: f64 = rows
            .iter()
            .map(|r| r.vipt_energy_mj[2] / r.vipt_energy_mj[0])
            .sum::<f64>()
            / n;
        let cyc: f64 = rows
            .iter()
            .map(|r| r.vivt_cycles[2] as f64 / r.vivt_cycles[0] as f64)
            .sum::<f64>()
            / n;
        writeln!(
            out,
            "| {label} | {:.2}% | {:.2}% | {:.2}% |",
            opt * 100.0,
            ia * 100.0,
            cyc * 100.0
        );
    }
    writeln!(
        out,
        "\nPaper shape: percentages shrink with iTLB size; VI-VT cycle savings are"
    );
    writeln!(
        out,
        "largest at 1 entry (81.9% of base, i.e. 18.1% saved) and smallest at 32 (96.45%)."
    );
    out.0
}

/// Table 7: IA (VI-PT) execution cycles across iTLB sizes — IA lets even
/// a tiny iTLB perform acceptably, and a large one perform best.
#[must_use]
pub fn table7(engine: &Engine, scale: &ExperimentScale) -> String {
    let f = scale.to_paper_factor();
    let rows = cfr_core::table7(engine, scale);
    let mut out = Section::default();
    writeln!(
        out,
        "\n## Table 7 — IA (VI-PT) cycles across iTLB sizes (millions, 250M scale)\n"
    );
    writeln!(out, "| benchmark | 1 | 8 FA | 16 2w | 32 FA |");
    writeln!(out, "|---|---|---|---|---|");
    for (name, c) in rows {
        writeln!(
            out,
            "| {} | {:.1} | {:.1} | {:.1} | {:.1} |",
            name,
            c[0] as f64 * f / 1e6,
            c[1] as f64 * f / 1e6,
            c[2] as f64 * f / 1e6,
            c[3] as f64 * f / 1e6
        );
    }
    out.0
}

/// Figure 6: two-level iTLB configurations (base execution) against
/// monolithic iTLBs running IA.
#[must_use]
pub fn fig6(engine: &Engine, scale: &ExperimentScale) -> String {
    let rows = cfr_core::fig6(engine, scale);
    let mut out = Section::default();
    writeln!(
        out,
        "\n## Figure 6 — two-level iTLB (base) vs monolithic + IA\n"
    );
    writeln!(out, "| benchmark | config | energy ratio | cycle ratio |");
    writeln!(out, "|---|---|---|---|");
    for r in rows {
        writeln!(
            out,
            "| {} | {} | {:.1}% | {:.2}% |",
            r.name,
            r.config,
            r.energy_ratio * 100.0,
            r.cycle_ratio * 100.0
        );
    }
    writeln!(
        out,
        "\nPaper shape: (1+32) base ≈ 155% of mono-32+IA energy, 102–110% of its cycles."
    );
    out.0
}

/// Table 8: the PI-PT study — base PI-PT, PI-PT with IA, base VI-PT, base
/// VI-VT.
#[must_use]
pub fn table8(engine: &Engine, scale: &ExperimentScale) -> String {
    let f = scale.to_paper_factor();
    let rows = cfr_core::table8(engine, scale);
    let p = |(e, c): (f64, u64)| format!("{:.2} / {:.1}", e * f, c as f64 * f / 1e6);
    let mut out = Section::default();
    writeln!(
        out,
        "\n## Table 8 — PI-PT study (E mJ / cycles M, 250M scale)\n"
    );
    writeln!(
        out,
        "| benchmark | PI-PT base | PI-PT IA | VI-PT base | VI-VT base |"
    );
    writeln!(out, "|---|---|---|---|---|");
    for r in rows {
        writeln!(
            out,
            "| {} | {} | {} | {} | {} |",
            r.name,
            p(r.pipt_base),
            p(r.pipt_ia),
            p(r.vipt_base),
            p(r.vivt_base)
        );
    }
    out.0
}

/// Extension (paper §4.4): iL1-configuration sensitivity for VI-VT. "The
/// benefits of IA are more significant at smaller or less associative iL1
/// configurations, since these incur more misses."
#[must_use]
pub fn fig_il1sweep(engine: &Engine, scale: &ExperimentScale) -> String {
    let sizes = [2048u64, 4096, 8192, 16384];
    // One (base, IA) pair per benchmark per iL1 capacity, planned as run
    // keys so the engine deduplicates, parallelizes, and persists them.
    let mut keys = Vec::new();
    for p in engine.profiles() {
        for bytes in sizes {
            for kind in [StrategyKind::Base, StrategyKind::Ia] {
                keys.push(
                    RunKey::new(p.name, scale, kind, AddressingMode::ViVt).with_il1_bytes(bytes),
                );
            }
        }
    }
    let reports = engine.run_many(&keys);
    let mut pairs = reports.chunks_exact(2);
    let mut out = Section::default();
    writeln!(
        out,
        "iL1 sweep — IA normalized cycles and energy (VI-VT, base = 100%)\n"
    );
    writeln!(
        out,
        "{:<12} {:>24} {:>24} {:>24} {:>24}",
        "benchmark", "2K cyc/E", "4K cyc/E", "8K cyc/E", "16K cyc/E"
    );
    for p in engine.profiles() {
        write!(out, "{:<12}", p.name);
        for _ in sizes {
            let pair = pairs.next().expect("one (base, IA) pair per size");
            let (base, ia) = (&pair[0], &pair[1]);
            write!(
                out,
                " {:>11}/{:<12}",
                pct(ia.cycles_vs(base)),
                pct(ia.energy_vs(base))
            );
        }
        writeln!(out);
    }
    writeln!(
        out,
        "\npaper shape: the cycle savings (100% - value) grow as the iL1 shrinks"
    );
    out.0
}

/// Extension (paper §4.4): page-size sensitivity. "A larger page size
/// provides better coverage of the CFR, thus improving the iTLB energy
/// savings." The detailed results lived in the authors' tech report [19];
/// this regenerates the sweep.
#[must_use]
pub fn fig_pagesize(engine: &Engine, scale: &ExperimentScale) -> String {
    let sizes = [1024u64, 4096, 16384, 65536];
    // One (base, IA) pair per benchmark per page size, planned as run
    // keys so the engine deduplicates, parallelizes, and persists them.
    let mut keys = Vec::new();
    for p in engine.profiles() {
        for bytes in sizes {
            for kind in [StrategyKind::Base, StrategyKind::Ia] {
                keys.push(
                    RunKey::new(p.name, scale, kind, AddressingMode::ViPt).with_page_bytes(bytes),
                );
            }
        }
    }
    let reports = engine.run_many(&keys);
    let mut pairs = reports.chunks_exact(2);
    let mut out = Section::default();
    writeln!(
        out,
        "Page-size sweep — IA normalized iTLB energy (VI-PT, base = 100%)\n"
    );
    write!(out, "{:<12}", "benchmark");
    for s in sizes {
        write!(out, " {:>9}", format!("{}K", s / 1024));
    }
    writeln!(out);
    for p in engine.profiles() {
        write!(out, "{:<12}", p.name);
        for _ in sizes {
            let pair = pairs.next().expect("one (base, IA) pair per size");
            let (base, ia) = (&pair[0], &pair[1]);
            write!(out, " {:>9}", pct(ia.energy_vs(base)));
        }
        writeln!(out);
    }
    writeln!(
        out,
        "\npaper shape: the normalized energy falls monotonically as pages grow"
    );
    writeln!(out, "(fewer page crossings => fewer CFR refills)");
    out.0
}

/// OS cost constants shared by every scenario cell (cycles).
const SWITCH_PENALTY: u32 = 400;
const SHOOTDOWN_PER_ENTRY: u32 = 2;
const FAULT_LATENCY: u32 = 300;
const DEMAND_FAULT_PENALTY: u32 = 800;

/// Extension (paper §3.2, quantified): multiprogrammed OS scenarios.
/// The paper notes the CFR is invalidated on a context switch but never
/// costs the switches; this table time-slices a four-program mix over one
/// core and sweeps the OS knobs — scheduling quantum, TLB mode
/// (ASID-tagged vs flush-on-switch), and hardware ASID count — reporting
/// whole-machine CPI and translation-path energy for each point.
#[must_use]
pub fn table_os(engine: &Engine, scale: &ExperimentScale) -> String {
    let names = profiles::mix(scale.seed, 4);
    let quanta = [10_000u64, 50_000, 250_000];
    let mut cells: Vec<(u64, TlbMode, u16)> = Vec::new();
    for &quantum in &quanta {
        for asids in [2u16, 16] {
            cells.push((quantum, TlbMode::Asid, asids));
        }
        cells.push((quantum, TlbMode::Flush, 1));
    }
    let cfgs: Vec<ScenarioConfig> = cells
        .iter()
        .map(|&(quantum, tlb_mode, asid_count)| {
            let mut cfg = ScenarioConfig::new(
                names.iter().map(|n| ScenarioProc::new(n)).collect(),
                *scale,
                StrategyKind::Ia,
                AddressingMode::ViPt,
            );
            cfg.quantum = quantum;
            cfg.tlb_mode = tlb_mode;
            cfg.asid_count = asid_count;
            cfg.switch_penalty = SWITCH_PENALTY;
            cfg.shootdown_per_entry = SHOOTDOWN_PER_ENTRY;
            cfg.fault_latency = FAULT_LATENCY;
            cfg.demand_fault_penalty = DEMAND_FAULT_PENALTY;
            cfg
        })
        .collect();
    let reports = engine.run_scenarios(&cfgs);
    let mut out = Section::default();
    writeln!(
        out,
        "Multiprogrammed OS table — 4-program mix, IA strategy, VI-PT"
    );
    writeln!(out, "mix: {}\n", names.join(", "));
    writeln!(
        out,
        "{:>9} {:>6} {:>6} {:>7} {:>12} {:>9} {:>9} {:>10} {:>7}",
        "quantum",
        "mode",
        "asids",
        "cpi",
        "energy-mJ",
        "switches",
        "flushed",
        "shootdowns",
        "faults"
    );
    for ((quantum, mode, asids), r) in cells.iter().zip(&reports) {
        writeln!(
            out,
            "{:>9} {:>6} {:>6} {:>7.3} {:>12.4} {:>9} {:>9} {:>10} {:>7}",
            quantum,
            mode.name(),
            asids,
            r.cpi(),
            r.machine.itlb_energy_mj(),
            r.context_switches,
            r.itlb_flushed + r.dtlb_flushed,
            r.shootdowns,
            r.machine.itlb.protection_faults + r.demand_faults,
        );
    }
    writeln!(
        out,
        "\nshape: shorter quanta switch more; flush mode re-misses both TLBs"
    );
    writeln!(
        out,
        "after every switch, while ASID tagging only pays on ASID reuse"
    );
    out.0
}

/// Extension (paper §3.2, quantified): context-switch frequency curves.
/// Energy and CPI versus scheduling quantum for ASID-tagged vs
/// flush-on-switch TLBs, over a mixed-page-size program set (two 4 KB
/// processes and two 2 MB processes) — the superpage half of the mix
/// crosses pages far less often, so its CFR survives longer between
/// switches.
#[must_use]
pub fn fig_switch(engine: &Engine, scale: &ExperimentScale) -> String {
    let names = profiles::mix(scale.seed, 4);
    // Half the mix runs on 2 MB superpages: the 4K/2M page-mix axis.
    let procs: Vec<ScenarioProc> = names
        .iter()
        .enumerate()
        .map(|(i, n)| {
            let p = ScenarioProc::new(n);
            if i % 2 == 1 {
                p.with_page_bytes(2 * 1024 * 1024)
            } else {
                p
            }
        })
        .collect();
    let quanta = [5_000u64, 20_000, 80_000, 320_000];
    let modes = [TlbMode::Asid, TlbMode::Flush];
    let mut cfgs: Vec<ScenarioConfig> = Vec::new();
    for &quantum in &quanta {
        for &tlb_mode in &modes {
            let mut cfg = ScenarioConfig::new(
                procs.clone(),
                *scale,
                StrategyKind::Ia,
                AddressingMode::ViPt,
            );
            cfg.quantum = quantum;
            cfg.tlb_mode = tlb_mode;
            cfg.asid_count = 16;
            cfg.switch_penalty = SWITCH_PENALTY;
            cfg.shootdown_per_entry = SHOOTDOWN_PER_ENTRY;
            cfgs.push(cfg);
        }
    }
    let reports = engine.run_scenarios(&cfgs);
    let mut out = Section::default();
    writeln!(
        out,
        "Context-switch sweep — 4-program 4K/2M mix, IA strategy, VI-PT"
    );
    writeln!(
        out,
        "mix: {}\n",
        procs
            .iter()
            .map(|p| match p.page_bytes {
                Some(_) => format!("{} (2M)", p.profile),
                None => format!("{} (4K)", p.profile),
            })
            .collect::<Vec<_>>()
            .join(", ")
    );
    writeln!(
        out,
        "{:>9} {:>10} {:>11} {:>12} {:>13}",
        "quantum", "asid-cpi", "flush-cpi", "asid-mJ", "flush-mJ"
    );
    for (qi, &quantum) in quanta.iter().enumerate() {
        let asid = &reports[qi * 2];
        let flush = &reports[qi * 2 + 1];
        writeln!(
            out,
            "{:>9} {:>10.3} {:>11.3} {:>12.4} {:>13.4}",
            quantum,
            asid.cpi(),
            flush.cpi(),
            asid.machine.itlb_energy_mj(),
            flush.machine.itlb_energy_mj(),
        );
    }
    writeln!(
        out,
        "\nshape: both curves improve as the quantum grows (fewer switches);"
    );
    writeln!(
        out,
        "the flush curve sits above the ASID curve at every point"
    );
    out.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scale() -> ExperimentScale {
        ExperimentScale {
            max_commits: 5_000,
            seed: 0x5EED,
        }
    }

    /// The `all_experiments` document without its header.
    fn document(engine: &Engine) -> String {
        ALL.iter().map(|render| render(engine, &scale())).collect()
    }

    #[test]
    fn sections_follow_the_paper_in_document_order() {
        let doc = document(&Engine::new());
        let headings: Vec<&str> = doc.lines().filter(|l| l.starts_with("## ")).collect();
        let expected = [
            "## Table 2 ",
            "## Figure 4 (VI-PT) ",
            "## Figure 4 (VI-VT) ",
            "## Figure 5 ",
            "## Table 3 ",
            "## Table 4 ",
            "## Table 5 ",
            "## Table 6 ",
            "## Table 7 ",
            "## Figure 6 ",
            "## Table 8 ",
        ];
        assert_eq!(headings.len(), expected.len(), "{headings:#?}");
        for (heading, prefix) in headings.iter().zip(expected) {
            assert!(heading.starts_with(prefix), "{heading:?} is not {prefix:?}");
        }
    }

    #[test]
    fn every_table_row_has_its_header_cell_count() {
        let doc = document(&Engine::new());
        let (mut tables, mut header_cells) = (0, None);
        for line in doc.lines() {
            if !line.starts_with('|') {
                header_cells = None;
                continue;
            }
            let cells = line.matches('|').count() - 1;
            match header_cells {
                None => {
                    tables += 1;
                    header_cells = Some(cells);
                }
                Some(n) => assert_eq!(cells, n, "{line:?}"),
            }
        }
        assert_eq!(tables, 11, "one table per heading");
    }

    #[test]
    fn rerendering_on_one_engine_is_identical_and_simulates_nothing() {
        let engine = Engine::new();
        let first = document(&engine);
        let simulated = engine.simulated_runs();
        assert!(simulated > 0);
        assert_eq!(document(&engine), first);
        assert_eq!(engine.simulated_runs(), simulated);
    }

    #[test]
    fn fig5_alone_equals_fig5_after_fig4() {
        let alone = Engine::new();
        let fig5_alone = fig5(&alone, &scale());
        // Base plus the five schemes, VI-VT only, for each benchmark.
        assert_eq!(alone.simulated_runs(), 6 * 6);
        let after = Engine::new();
        let _ = fig4(&after, &scale());
        let simulated = after.simulated_runs();
        assert_eq!(fig5(&after, &scale()), fig5_alone);
        assert_eq!(after.simulated_runs(), simulated, "fig4 planned every run");
    }
}
