//! Reproduces **Table 7**: IA (VI-PT) cycles across iTLB sizes.
//! Prints exactly its `all_experiments` section; see [`cfr_bench::render::table7`].

fn main() {
    cfr_bench::print_section(cfr_bench::render::table7);
}
