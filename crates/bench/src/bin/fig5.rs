//! Reproduces **Figure 5**: normalized execution cycles for VI-VT.
//! Prints exactly its `all_experiments` section; see [`cfr_bench::render::fig5`].

fn main() {
    cfr_bench::print_section(cfr_bench::render::fig5);
}
