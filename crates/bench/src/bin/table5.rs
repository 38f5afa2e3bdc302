//! Reproduces **Table 5**: branch predictor accuracy.
//! Prints exactly its `all_experiments` section; see [`cfr_bench::render::table5`].

fn main() {
    cfr_bench::print_section(cfr_bench::render::table5);
}
