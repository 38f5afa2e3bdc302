//! Reproduces **Table 6**: the iTLB configuration sweep.
//! Prints exactly its `all_experiments` section; see [`cfr_bench::render::table6`].

fn main() {
    cfr_bench::print_section(cfr_bench::render::table6);
}
