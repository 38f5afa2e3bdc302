//! Reproduces **Figure 4**: normalized iTLB energy, VI-PT and VI-VT panels.
//! Prints exactly its `all_experiments` section; see [`cfr_bench::render::fig4`].

fn main() {
    cfr_bench::print_section(cfr_bench::render::fig4);
}
