//! Extension (paper §4.4): iL1-configuration sensitivity for VI-VT.
//! See [`cfr_bench::render::fig_il1sweep`].

fn main() {
    cfr_bench::print_section(cfr_bench::render::fig_il1sweep);
}
