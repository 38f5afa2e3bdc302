//! Runs every experiment and emits a Markdown paper-vs-measured summary:
//! a header, then each section of [`render::ALL`] in order.

use cfr_bench::{print_store_summary, render, scale_from_args};
use cfr_core::Engine;

fn main() {
    let scale = scale_from_args();
    let engine = Engine::with_default_store();
    println!("# EXPERIMENTS — paper vs. measured\n");
    println!(
        "All runs: {} committed instructions per (benchmark, strategy, mode); \
         absolute values extrapolated ×{:.0} to the paper's 250M-instruction scale. \
         The substrate is a synthetic-workload simulator (README, \"Reproducing the paper\"), so the \
         comparison targets *shape* — orderings, ratios, crossovers — not absolute \
         equality.\n",
        scale.max_commits,
        scale.to_paper_factor()
    );

    for section in render::ALL {
        print!("{}", section(&engine, &scale));
    }

    // Engine accounting goes to stderr so stdout stays a byte-stable
    // Markdown document.
    let retained = engine.retained_logs();
    eprintln!(
        "engine: {} unique runs computed across all tables/figures \
         ({} pipelines simulated, {} runs replayed), {} programs generated, \
         {} translation logs retained ({:.1} MB)",
        engine.simulated_runs(),
        engine.simulated_runs() - engine.replayed_runs(),
        engine.replayed_runs(),
        engine.store_summary().programs.cold,
        retained.logs,
        retained.bytes as f64 / 1e6
    );
    print_store_summary(&engine);
}
