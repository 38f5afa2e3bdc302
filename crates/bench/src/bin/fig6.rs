//! Reproduces **Figure 6**: two-level iTLBs against monolithic + IA.
//! Prints exactly its `all_experiments` section; see [`cfr_bench::render::fig6`].

fn main() {
    cfr_bench::print_section(cfr_bench::render::fig6);
}
