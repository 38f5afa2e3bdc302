//! Reproduces **Table 4**: static and dynamic branch statistics.
//! Prints exactly its `all_experiments` section; see [`cfr_bench::render::table4`].

fn main() {
    cfr_bench::print_section(cfr_bench::render::table4);
}
