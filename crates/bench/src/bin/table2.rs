//! Reproduces **Table 2**: benchmark characteristics, base runs.
//! Prints exactly its `all_experiments` section; see [`cfr_bench::render::table2`].

fn main() {
    cfr_bench::print_section(cfr_bench::render::table2);
}
