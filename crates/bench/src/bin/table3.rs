//! Reproduces **Table 3**: dynamic iTLB lookups by cause (VI-PT).
//! Prints exactly its `all_experiments` section; see [`cfr_bench::render::table3`].

fn main() {
    cfr_bench::print_section(cfr_bench::render::table3);
}
