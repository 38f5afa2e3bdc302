//! Extension (paper §3.2, quantified): multiprogrammed OS scenarios.
//! See [`cfr_bench::render::table_os`].

fn main() {
    cfr_bench::print_section(cfr_bench::render::table_os);
}
