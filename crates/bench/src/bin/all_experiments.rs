//! Runs every experiment and emits a Markdown paper-vs-measured summary.

use cfr_bench::{engine_with_store, print_store_summary, scale_from_args};
use cfr_core::{fig4, fig6, table2, table3, table4, table5, table6, table7, table8, FIG4_SCHEMES};
use cfr_types::AddressingMode;
use cfr_workload::profiles;

fn main() {
    let scale = scale_from_args();
    let engine = engine_with_store();
    let f = scale.to_paper_factor();
    println!("# EXPERIMENTS — paper vs. measured\n");
    println!(
        "All runs: {} committed instructions per (benchmark, strategy, mode); \
         absolute values extrapolated ×{:.0} to the paper's 250M-instruction scale. \
         The substrate is a synthetic-workload simulator (README, \"Reproducing the paper\"), so the \
         comparison targets *shape* — orderings, ratios, crossovers — not absolute \
         equality.\n",
        scale.max_commits, f
    );

    // ---- Table 2.
    println!("## Table 2 — benchmark characteristics (base runs)\n");
    println!("| benchmark | VI-PT cycles M (paper) | VI-PT E mJ (paper) | VI-VT cycles M (paper) | VI-VT E mJ (paper) | iL1 miss (paper) | BOUNDARY share (paper) |");
    println!("|---|---|---|---|---|---|---|");
    for (r, p) in table2(&engine, &scale).iter().zip(profiles::all()) {
        let t = &p.paper;
        println!(
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

    // ---- Figure 4 + 5.
    let rows = fig4(&engine, &scale);
    for mode in [AddressingMode::ViPt, AddressingMode::ViVt] {
        println!("\n## Figure 4 ({mode}) — normalized iTLB energy, base = 100%\n");
        print!("| benchmark |");
        for k in FIG4_SCHEMES {
            print!(" {} |", k.name());
        }
        println!("\n|---|---|---|---|---|---|");
        let mode_rows: Vec<_> = rows.iter().filter(|r| r.mode == mode).collect();
        let mut avg = [0.0f64; 5];
        for r in &mode_rows {
            print!("| {} |", r.name);
            for (i, e) in r.energy.iter().enumerate() {
                avg[i] += e;
                print!(" {:.2}% |", e * 100.0);
            }
            println!();
        }
        print!("| **average** |");
        for a in avg {
            print!(" **{:.2}%** |", a * 100.0 / mode_rows.len() as f64);
        }
        println!();
        let paper = match mode {
            AddressingMode::ViPt => [5.69, 12.24, 5.01, 3.82, 3.20],
            _ => [15.23, 36.83, 16.39, 14.04, 12.74],
        };
        print!("| *paper avg* |");
        for p in paper {
            print!(" *{p:.2}%* |");
        }
        println!();
    }
    println!("\n## Figure 5 (VI-VT) — normalized execution cycles, base = 100%\n");
    print!("| benchmark |");
    for k in FIG4_SCHEMES {
        print!(" {} |", k.name());
    }
    println!("\n|---|---|---|---|---|---|");
    for r in rows.iter().filter(|r| r.mode == AddressingMode::ViVt) {
        print!("| {} |", r.name);
        for c in r.cycles {
            print!(" {:.2}% |", c * 100.0);
        }
        println!();
    }
    println!("| *paper* | — | — | — | *94.5–98% (avg 96.45%)* | — |");

    // ---- Table 3.
    println!("\n## Table 3 — dynamic iTLB lookups by cause (VI-PT)\n");
    println!("| benchmark | SoCA bnd/branch | SoLA bnd/branch | IA bnd/branch |");
    println!("|---|---|---|---|");
    for r in table3(&engine, &scale) {
        print!("| {} |", r.name);
        for (b, br) in r.lookups {
            print!(" {b}/{br} |");
        }
        println!();
    }
    println!(
        "\nPaper shape: the BRANCH column shrinks SoCA → SoLA → IA while BOUNDARY is constant."
    );

    // ---- Table 4.
    println!("\n## Table 4 — branch statistics\n");
    println!("| benchmark | static total | static analyzable | static in-page | dyn analyzable % (paper) | dyn in-page % (paper) |");
    println!("|---|---|---|---|---|---|");
    for (r, p) in table4(&engine, &scale).iter().zip(profiles::all()) {
        println!(
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

    // ---- Table 5.
    println!("\n## Table 5 — branch predictor accuracy\n");
    println!("| benchmark | measured | paper |");
    println!("|---|---|---|");
    for ((name, acc), p) in table5(&engine, &scale).iter().zip(profiles::all()) {
        println!(
            "| {} | {:.2}% | {:.2}% |",
            name,
            acc * 100.0,
            p.paper.predictor_accuracy * 100.0
        );
    }

    // ---- Table 6 (averaged view to keep the summary readable).
    println!("\n## Table 6 — iTLB sweep (per-config averages over the six benchmarks)\n");
    println!("| iTLB | VI-PT OPT/base | VI-PT IA/base | VI-VT IA cycles/base |");
    println!("|---|---|---|---|");
    let t6 = table6(&engine, &scale);
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
        println!(
            "| {label} | {:.2}% | {:.2}% | {:.2}% |",
            opt * 100.0,
            ia * 100.0,
            cyc * 100.0
        );
    }
    println!("\nPaper shape: percentages shrink with iTLB size; VI-VT cycle savings are");
    println!("largest at 1 entry (81.9% of base, i.e. 18.1% saved) and smallest at 32 (96.45%).");

    // ---- Table 7.
    println!("\n## Table 7 — IA (VI-PT) cycles across iTLB sizes (millions, 250M scale)\n");
    println!("| benchmark | 1 | 8 FA | 16 2w | 32 FA |");
    println!("|---|---|---|---|---|");
    for (name, c) in table7(&engine, &scale) {
        println!(
            "| {} | {:.1} | {:.1} | {:.1} | {:.1} |",
            name,
            c[0] as f64 * f / 1e6,
            c[1] as f64 * f / 1e6,
            c[2] as f64 * f / 1e6,
            c[3] as f64 * f / 1e6
        );
    }

    // ---- Fig 6.
    println!("\n## Figure 6 — two-level iTLB (base) vs monolithic + IA\n");
    println!("| benchmark | config | energy ratio | cycle ratio |");
    println!("|---|---|---|---|");
    for r in fig6(&engine, &scale) {
        println!(
            "| {} | {} | {:.1}% | {:.2}% |",
            r.name,
            r.config,
            r.energy_ratio * 100.0,
            r.cycle_ratio * 100.0
        );
    }
    println!("\nPaper shape: (1+32) base ≈ 155% of mono-32+IA energy, 102–110% of its cycles.");

    // ---- Table 8.
    println!("\n## Table 8 — PI-PT study (E mJ / cycles M, 250M scale)\n");
    println!("| benchmark | PI-PT base | PI-PT IA | VI-PT base | VI-VT base |");
    println!("|---|---|---|---|---|");
    for r in table8(&engine, &scale) {
        let p = |(e, c): (f64, u64)| format!("{:.2} / {:.1}", e * f, c as f64 * f / 1e6);
        println!(
            "| {} | {} | {} | {} | {} |",
            r.name,
            p(r.pipt_base),
            p(r.pipt_ia),
            p(r.vipt_base),
            p(r.vivt_base)
        );
    }

    // Engine accounting goes to stderr so stdout stays a byte-stable
    // Markdown document.
    eprintln!(
        "engine: {} unique runs simulated across all tables/figures, \
         {} programs generated",
        engine.simulated_runs(),
        engine.store_summary().programs.cold
    );
    print_store_summary(&engine);
}
