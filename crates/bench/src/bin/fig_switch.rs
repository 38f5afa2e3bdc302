//! Extension (paper §3.2, quantified): context-switch frequency curves.
//! See [`cfr_bench::render::fig_switch`].

fn main() {
    cfr_bench::print_section(cfr_bench::render::fig_switch);
}
