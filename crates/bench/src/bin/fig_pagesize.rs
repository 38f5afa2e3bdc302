//! Extension (paper §4.4): page-size sensitivity.
//! See [`cfr_bench::render::fig_pagesize`].

fn main() {
    cfr_bench::print_section(cfr_bench::render::fig_pagesize);
}
