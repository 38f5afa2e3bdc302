//! The six benchmark profiles, calibrated to the paper's Tables 2, 4, 5.
//!
//! Each profile carries (a) [`GeneratorParams`] tuned so the generated
//! program's *measured* statistics approximate the paper's, and (b) the
//! paper's published numbers ([`PaperTargets`]) so experiments can print
//! paper-vs-measured side by side and tests can assert calibration bands.
//! The `calibrate` example regenerates the measured column.
//!
//! The paper picked these six because "they stress the iTLB more than the
//! others due to the relatively worse instruction locality".

use crate::generate::{generate, GeneratorParams};
use crate::program::Program;

/// The paper's published characteristics for one benchmark.
///
/// Fractions are in `[0, 1]`; cycle counts in millions of cycles for 250 M
/// committed instructions; energies in millijoules.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PaperTargets {
    /// Dynamic branches / committed instructions (Table 2 col 7).
    pub branch_fraction: f64,
    /// Analyzable dynamic branches / dynamic branches (Table 4).
    pub analyzable_fraction: f64,
    /// In-page instances / analyzable instances (Table 4).
    pub in_page_fraction: f64,
    /// Branch predictor accuracy (Table 5).
    pub predictor_accuracy: f64,
    /// iL1 miss rate (Table 2 col 6).
    pub il1_miss_rate: f64,
    /// BOUNDARY crossings / all crossings (Table 2, last columns).
    pub boundary_share: f64,
    /// All page crossings / committed instructions (Table 2).
    pub crossing_fraction: f64,
    /// Base VI-PT execution cycles, millions (Table 2 col 2).
    pub vipt_cycles_m: f64,
    /// Base VI-PT iTLB energy, mJ (Table 2 col 3).
    pub vipt_energy_mj: f64,
    /// Base VI-VT execution cycles, millions (Table 2 col 4).
    pub vivt_cycles_m: f64,
    /// Base VI-VT iTLB energy, mJ (Table 2 col 5).
    pub vivt_energy_mj: f64,
}

/// A named benchmark: generator parameters plus the paper's numbers.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchmarkProfile {
    /// SPEC2000 name, e.g. `"177.mesa"`.
    pub name: &'static str,
    /// Calibrated generator parameters.
    pub params: GeneratorParams,
    /// The paper's published characteristics.
    pub paper: PaperTargets,
}

impl BenchmarkProfile {
    /// Generates this profile's program.
    #[must_use]
    pub fn generate(&self) -> Program {
        generate(&self.params)
    }
}

fn base_params(seed: u64) -> GeneratorParams {
    GeneratorParams {
        seed,
        functions: 120,
        hot_functions: 6,
        blocks_per_function: (60, 110),
        block_len: (4, 12),
        loop_prob: 0.30,
        loop_len: (2, 4),
        loop_bias: 0.90,
        outer_loop_prob: 0.60,
        outer_bias: 0.55,
        loop_call: 0.60,
        loop_icall: 0.08,
        plain_fallthrough: 0.10,
        w_cond: 0.55,
        w_jump: 0.08,
        w_call: 0.27,
        w_indirect: 0.10,
        indirect_local: 0.60,
        fwd_bias: 0.08,
        weak_fraction: 0.12,
        weak_bias: 0.60,
        call_hot_locality: 0.92,
        leaf_fraction: 0.55,
        call_leaf: 0.85,
        leaf_blocks: (3, 6),
        load_frac: 0.24,
        store_frac: 0.10,
        fp_frac: 0.10,
        mul_frac: 0.04,
        region_stack: 0.40,
        region_global: 0.30,
        global_pages: 16,
        heap_arrays: 8,
        heap_array_pages: 16,
    }
}

/// 177.mesa — FP graphics library; few branches, superb iL1 locality.
#[must_use]
pub fn mesa() -> BenchmarkProfile {
    let mut p = base_params(0x6D65_7361);
    p.block_len = (5, 12);
    p.plain_fallthrough = 0.08;
    p.functions = 60;
    p.hot_functions = 8;
    p.blocks_per_function = (40, 70);
    p.loop_call = 0.90;
    p.loop_len = (2, 4);
    p.leaf_blocks = (3, 4);
    p.outer_loop_prob = 0.85;
    p.outer_bias = 0.80;
    p.call_hot_locality = 0.98;
    p.loop_prob = 0.25;
    p.loop_bias = 0.93;
    p.w_cond = 0.45;
    p.w_jump = 0.06;
    p.w_call = 0.37;
    p.w_indirect = 0.12;
    p.indirect_local = 0.50;
    p.weak_fraction = 0.04;
    p.fwd_bias = 0.05;
    p.fp_frac = 0.45;
    BenchmarkProfile {
        name: "177.mesa",
        params: p,
        paper: PaperTargets {
            branch_fraction: 0.089,
            analyzable_fraction: 0.811,
            in_page_fraction: 0.730,
            predictor_accuracy: 0.9414,
            il1_miss_rate: 0.002,
            boundary_share: 0.0177,
            crossing_fraction: 0.0224,
            vipt_cycles_m: 188.1,
            vipt_energy_mj: 109.075,
            vivt_cycles_m: 196.1,
            vivt_energy_mj: 3.345,
        },
    }
}

/// 186.crafty — chess; branchy integer code, moderate locality.
#[must_use]
pub fn crafty() -> BenchmarkProfile {
    let mut p = base_params(0x6372_6166);
    p.block_len = (4, 12);
    p.functions = 110;
    p.hot_functions = 8;
    p.loop_call = 0.85;
    p.loop_len = (2, 5);
    p.outer_loop_prob = 0.75;
    p.outer_bias = 0.80;
    p.call_hot_locality = 0.85;
    p.loop_prob = 0.18;
    p.loop_bias = 0.93;
    p.weak_fraction = 0.03;
    p.fwd_bias = 0.05;
    p.w_cond = 0.58;
    p.w_jump = 0.04;
    p.w_indirect = 0.06;
    p.w_call = 0.33;
    p.fp_frac = 0.02;
    BenchmarkProfile {
        name: "186.crafty",
        params: p,
        paper: PaperTargets {
            branch_fraction: 0.126,
            analyzable_fraction: 0.876,
            in_page_fraction: 0.759,
            predictor_accuracy: 0.9116,
            il1_miss_rate: 0.014,
            boundary_share: 0.0109,
            crossing_fraction: 0.0322,
            vipt_cycles_m: 331.7,
            vipt_energy_mj: 124.110,
            vivt_cycles_m: 350.5,
            vivt_energy_mj: 8.385,
        },
    }
}

/// 191.fma3d — FP crash simulation; branchiest of the six, loop-dominated.
#[must_use]
pub fn fma3d() -> BenchmarkProfile {
    let mut p = base_params(0x666D_6133);
    p.block_len = (2, 7);
    p.plain_fallthrough = 0.02;
    p.functions = 140;
    p.hot_functions = 7;
    p.call_hot_locality = 0.94;
    p.loop_prob = 0.30;
    p.loop_len = (4, 8);
    p.loop_bias = 0.95;
    p.loop_call = 0.70;
    p.outer_loop_prob = 0.70;
    p.weak_fraction = 0.02;
    p.fwd_bias = 0.05;
    p.w_cond = 0.54;
    p.w_indirect = 0.02;
    p.w_call = 0.35;
    p.outer_loop_prob = 0.80;
    p.outer_bias = 0.85;
    p.fp_frac = 0.40;
    BenchmarkProfile {
        name: "191.fma3d",
        params: p,
        paper: PaperTargets {
            branch_fraction: 0.186,
            analyzable_fraction: 0.879,
            in_page_fraction: 0.709,
            predictor_accuracy: 0.9582,
            il1_miss_rate: 0.011,
            boundary_share: 0.0011,
            crossing_fraction: 0.0487,
            vipt_cycles_m: 169.3,
            vipt_energy_mj: 112.685,
            vivt_cycles_m: 176.6,
            vivt_energy_mj: 3.040,
        },
    }
}

/// 252.eon — C++ ray tracer; virtual dispatch (indirect-heavy), weakest
/// predictor accuracy of the six.
#[must_use]
pub fn eon() -> BenchmarkProfile {
    let mut p = base_params(0x6565_6F6E);
    p.block_len = (3, 10);
    p.functions = 180;
    p.hot_functions = 10;
    p.call_hot_locality = 0.85;
    p.loop_prob = 0.25;
    p.loop_bias = 0.88;
    p.loop_call = 0.70;
    p.loop_icall = 0.50;
    p.outer_loop_prob = 0.80;
    p.outer_bias = 0.75;
    p.w_cond = 0.40;
    p.w_jump = 0.06;
    p.w_indirect = 0.22;
    p.indirect_local = 0.30;
    p.w_call = 0.32;
    p.weak_fraction = 0.10;
    p.weak_bias = 0.58;
    p.fp_frac = 0.20;
    BenchmarkProfile {
        name: "252.eon",
        params: p,
        paper: PaperTargets {
            branch_fraction: 0.123,
            analyzable_fraction: 0.745,
            in_page_fraction: 0.698,
            predictor_accuracy: 0.8523,
            il1_miss_rate: 0.010,
            boundary_share: 0.0199,
            crossing_fraction: 0.0626,
            vipt_cycles_m: 263.1,
            vipt_energy_mj: 134.544,
            vivt_cycles_m: 274.7,
            vivt_energy_mj: 5.221,
        },
    }
}

/// 254.gap — group theory interpreter; long straight-line runs, the highest
/// BOUNDARY share of the six.
#[must_use]
pub fn gap() -> BenchmarkProfile {
    let mut p = base_params(0x6761_7070);
    p.block_len = (4, 9);
    p.plain_fallthrough = 0.50;
    p.blocks_per_function = (250, 400);
    p.functions = 60;
    p.hot_functions = 4;
    p.call_hot_locality = 0.93;
    p.loop_prob = 0.08;
    p.loop_len = (6, 12);
    p.loop_call = 0.25;
    p.loop_bias = 0.92;
    p.outer_loop_prob = 0.85;
    p.outer_bias = 0.85;
    p.weak_fraction = 0.05;
    p.weak_fraction = 0.16;
    p.w_cond = 0.66;
    p.w_jump = 0.04;
    p.w_call = 0.06;
    p.w_indirect = 0.07;
    p.fp_frac = 0.03;
    BenchmarkProfile {
        name: "254.gap",
        params: p,
        paper: PaperTargets {
            branch_fraction: 0.073,
            analyzable_fraction: 0.902,
            in_page_fraction: 0.592,
            predictor_accuracy: 0.8955,
            il1_miss_rate: 0.006,
            boundary_share: 0.1131,
            crossing_fraction: 0.0255,
            vipt_cycles_m: 161.3,
            vipt_energy_mj: 112.205,
            vivt_cycles_m: 165.6,
            vivt_energy_mj: 2.005,
        },
    }
}

/// 255.vortex — object database; the largest instruction footprint and
/// highest iL1 miss rate of the six, superbly predictable branches.
#[must_use]
pub fn vortex() -> BenchmarkProfile {
    let mut p = base_params(0x766F_7274);
    p.block_len = (2, 6);
    p.plain_fallthrough = 0.12;
    p.functions = 200;
    p.hot_functions = 30;
    p.blocks_per_function = (140, 240);
    p.call_hot_locality = 0.35;
    p.call_leaf = 0.75;
    p.loop_prob = 0.12;
    p.loop_call = 0.55;
    p.outer_loop_prob = 0.50;
    p.outer_bias = 0.90;
    p.loop_bias = 0.96;
    p.fwd_bias = 0.03;
    p.weak_fraction = 0.02;
    p.w_cond = 0.50;
    p.w_call = 0.22;
    p.w_indirect = 0.06;
    p.fp_frac = 0.02;
    BenchmarkProfile {
        name: "255.vortex",
        params: p,
        paper: PaperTargets {
            branch_fraction: 0.166,
            analyzable_fraction: 0.877,
            in_page_fraction: 0.734,
            predictor_accuracy: 0.9738,
            il1_miss_rate: 0.027,
            boundary_share: 0.0575,
            crossing_fraction: 0.0402,
            vipt_cycles_m: 293.9,
            vipt_energy_mj: 108.424,
            vivt_cycles_m: 310.5,
            vivt_energy_mj: 6.345,
        },
    }
}

/// All six profiles, in the paper's table order.
#[must_use]
pub fn all() -> Vec<BenchmarkProfile> {
    vec![mesa(), crafty(), fma3d(), eon(), gap(), vortex()]
}

/// A deterministic per-seed mix of `n` profile names for a
/// multiprogrammed scenario: the same `(seed, n)` always yields the same
/// mix, across processes and platforms. The mix cycles a seed-shuffled
/// order of the six profiles, so any window of up to six processes has no
/// duplicates.
#[must_use]
pub fn mix(seed: u64, n: usize) -> Vec<&'static str> {
    let mut names: Vec<&'static str> = all().iter().map(|p| p.name).collect();
    // splitmix64-driven Fisher–Yates: stable, dependency-free shuffling.
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    for i in (1..names.len()).rev() {
        #[allow(clippy::cast_possible_truncation)]
        let j = (next() % (i as u64 + 1)) as usize;
        names.swap(i, j);
    }
    (0..n).map(|i| names[i % names.len()]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::LaidProgram;
    use crate::measure::measure;
    use cfr_types::PageGeometry;

    #[test]
    fn six_profiles_with_unique_names() {
        let ps = all();
        assert_eq!(ps.len(), 6);
        let mut names: Vec<_> = ps.iter().map(|p| p.name).collect();
        names.dedup();
        assert_eq!(names.len(), 6);
    }

    #[test]
    fn mix_is_deterministic_and_duplicate_free_per_window() {
        assert_eq!(mix(7, 4), mix(7, 4), "same seed, same mix");
        assert_ne!(mix(7, 6), mix(8, 6), "different seeds shuffle differently");
        let m = mix(0x5EED, 6);
        let mut uniq: Vec<_> = m.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), 6, "a six-wide window has no duplicates: {m:?}");
        assert_eq!(mix(3, 8)[0], mix(3, 8)[6], "the mix cycles past six");
    }

    #[test]
    fn all_profiles_generate_valid_programs() {
        for p in all() {
            let prog = p.generate();
            assert_eq!(prog.validate(), Ok(()), "{}", p.name);
            assert!(prog.static_instructions() > 1000, "{}", p.name);
        }
    }

    /// Calibration bands: measured statistics must land within a tolerance
    /// of the paper's targets. These are the substitution's load-bearing
    /// guarantees (README, "Reproducing the paper").
    #[test]
    fn profiles_hit_calibration_bands() {
        for p in all() {
            let prog = p.generate();
            let laid = LaidProgram::lay_out(&prog, PageGeometry::default_4k(), false);
            let s = measure(&laid, 400_000, 1);
            let t = &p.paper;

            let bf = s.branch_fraction();
            assert!(
                (bf - t.branch_fraction).abs() < 0.03,
                "{}: branch fraction {bf:.3} vs target {:.3}",
                p.name,
                t.branch_fraction
            );
            let af = s.analyzable_fraction();
            assert!(
                (af - t.analyzable_fraction).abs() < 0.10,
                "{}: analyzable {af:.3} vs {:.3}",
                p.name,
                t.analyzable_fraction
            );
            // In-page fraction is the loosest band: the synthetic CFG keeps
            // loop bodies more page-local than real SPEC code (see
            // README, "Reproducing the paper"); orderings are asserted
            // separately below.
            let ip = s.in_page_fraction();
            assert!(
                ip >= t.in_page_fraction - 0.05 && ip < 0.99,
                "{}: in-page {ip:.3} vs {:.3}",
                p.name,
                t.in_page_fraction
            );
            let mr = s.il1_miss_rate();
            assert!(
                (mr - t.il1_miss_rate).abs() < 0.025,
                "{}: iL1 miss rate {mr:.4} vs {:.4}",
                p.name,
                t.il1_miss_rate
            );
            let cf = s.crossing_fraction();
            assert!(
                cf > 0.005 && (cf - t.crossing_fraction).abs() < 0.04,
                "{}: crossing fraction {cf:.4} vs {:.4}",
                p.name,
                t.crossing_fraction
            );
        }
    }

    /// Ordering properties the experiments rely on (who is branchiest, who
    /// misses most) must match the paper even where absolute values drift.
    #[test]
    fn cross_profile_orderings() {
        let stats: Vec<_> = all()
            .into_iter()
            .map(|p| {
                let prog = p.generate();
                let laid = LaidProgram::lay_out(&prog, PageGeometry::default_4k(), false);
                (p.name, measure(&laid, 300_000, 2))
            })
            .collect();
        let get = |name: &str| {
            stats
                .iter()
                .find(|(n, _)| n.contains(name))
                .map(|(_, s)| s)
                .unwrap()
        };
        // gap has the fewest branches; fma3d/vortex the most.
        assert!(get("gap").branch_fraction() < get("fma3d").branch_fraction());
        assert!(get("gap").branch_fraction() < get("vortex").branch_fraction());
        // vortex has the worst iL1 locality of the six.
        for other in ["mesa", "gap"] {
            assert!(
                get("vortex").il1_miss_rate() > get(other).il1_miss_rate(),
                "vortex should miss more than {other}"
            );
        }
        // gap and vortex are the BOUNDARY-heavy benchmarks of the six
        // (paper: 11.3% and 5.8% vs ≈1–2% elsewhere); their exact rank is
        // seed-sensitive but they clearly dominate the loop-tight codes.
        for heavy in ["gap", "vortex"] {
            for light in ["mesa", "crafty"] {
                assert!(
                    get(heavy).boundary_share() > get(light).boundary_share(),
                    "{heavy} should out-BOUNDARY {light}"
                );
            }
        }
    }
}
