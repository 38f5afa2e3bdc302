//! Reproduces **Table 8**: the PI-PT study.
//! Prints exactly its `all_experiments` section; see [`cfr_bench::render::table8`].

fn main() {
    cfr_bench::print_section(cfr_bench::render::table8);
}
