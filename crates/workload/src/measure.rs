//! Functional (non-cycle-accurate) measurement of workload statistics.
//!
//! Used to calibrate generated programs against the paper's Tables 2, 4 and
//! 5 without paying for the full out-of-order pipeline: a fast walk that
//! classifies page crossings, tracks analyzable/in-page branch instances,
//! runs a direct-mapped iL1 alongside, and scores a bimodal direction
//! predictor. The cycle-level numbers come from `cfr-cpu`/`cfr-core`.

use cfr_mem::{AccessKind, Cache, CacheConfig};

use crate::isa::BranchKind;
use crate::layout::LaidProgram;
use crate::walk::Walker;

/// Dynamic statistics from a functional walk.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FunctionalStats {
    /// Instructions executed.
    pub committed: u64,
    /// Dynamic branches (including boundary branches).
    pub branches: u64,
    /// Dynamic taken branches.
    pub taken: u64,
    /// Dynamic boundary-branch executions (instrumented layouts only).
    pub boundary_branch_execs: u64,
    /// Dynamic instances of statically-analyzable branches (paper Table 4).
    pub analyzable: u64,
    /// ... whose target is on the branch's own page.
    pub analyzable_in_page: u64,
    /// ... whose target is on a different page.
    pub analyzable_crossing: u64,
    /// Page crossings caused by taken branches (paper Table 2 BRANCH).
    pub crossings_branch: u64,
    /// Sequential page crossings (paper Table 2 BOUNDARY). Boundary-branch
    /// hops to the next page count here: they *are* the sequential crossing,
    /// made explicit by the compiler.
    pub crossings_boundary: u64,
    /// iL1 accesses (one per instruction, as in sim-outorder).
    pub il1_accesses: u64,
    /// iL1 misses.
    pub il1_misses: u64,
    /// Dynamic conditional branches.
    pub cond_branches: u64,
    /// Conditionals whose direction a 2-bit bimodal predicted correctly.
    pub cond_predicted: u64,
    /// Dynamic jumps (including boundary branches).
    pub jumps: u64,
    /// Dynamic calls.
    pub calls: u64,
    /// Dynamic returns.
    pub returns: u64,
    /// Dynamic indirect jumps.
    pub indirects: u64,
}

impl FunctionalStats {
    /// Branches as a fraction of committed instructions.
    #[must_use]
    pub fn branch_fraction(&self) -> f64 {
        ratio(self.branches, self.committed)
    }

    /// Analyzable instances as a fraction of dynamic branches.
    #[must_use]
    pub fn analyzable_fraction(&self) -> f64 {
        ratio(self.analyzable, self.branches)
    }

    /// In-page instances as a fraction of analyzable instances.
    #[must_use]
    pub fn in_page_fraction(&self) -> f64 {
        ratio(self.analyzable_in_page, self.analyzable)
    }

    /// iL1 miss rate.
    #[must_use]
    pub fn il1_miss_rate(&self) -> f64 {
        ratio(self.il1_misses, self.il1_accesses)
    }

    /// Total page crossings.
    #[must_use]
    pub fn crossings(&self) -> u64 {
        self.crossings_branch + self.crossings_boundary
    }

    /// BOUNDARY share of all crossings.
    #[must_use]
    pub fn boundary_share(&self) -> f64 {
        ratio(self.crossings_boundary, self.crossings())
    }

    /// Crossings as a fraction of committed instructions.
    #[must_use]
    pub fn crossing_fraction(&self) -> f64 {
        ratio(self.crossings(), self.committed)
    }

    /// Bimodal direction accuracy over conditionals.
    #[must_use]
    pub fn bimodal_accuracy(&self) -> f64 {
        ratio(self.cond_predicted, self.cond_branches)
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// A 2-bit saturating-counter bimodal predictor (SimpleScalar's `bimod`).
#[derive(Clone, Debug)]
pub struct Bimodal {
    counters: Vec<u8>,
}

impl Bimodal {
    /// Creates a table of `entries` 2-bit counters, initialized weakly
    /// taken.
    ///
    /// # Panics
    ///
    /// Panics unless `entries` is a power of two.
    #[must_use]
    pub fn new(entries: usize) -> Self {
        assert!(entries.is_power_of_two(), "bimodal size must be 2^k");
        Self {
            counters: vec![2; entries],
        }
    }

    #[inline]
    fn index(&self, addr: u64) -> usize {
        ((addr >> 2) as usize) & (self.counters.len() - 1)
    }

    /// Predicted direction for the branch at `addr`.
    #[must_use]
    pub fn predict(&self, addr: u64) -> bool {
        self.counters[self.index(addr)] >= 2
    }

    /// Trains the counter with the actual direction.
    pub fn update(&mut self, addr: u64, taken: bool) {
        let idx = self.index(addr);
        let c = &mut self.counters[idx];
        if taken {
            *c = (*c + 1).min(3);
        } else {
            *c = c.saturating_sub(1);
        }
    }
}

/// Walks `n` instructions and gathers [`FunctionalStats`].
///
/// The iL1 modeled alongside is the paper's default (8 KB direct-mapped,
/// 32-byte blocks), accessed once per instruction with the *virtual* address
/// (its miss rate is index-scheme independent for a given stream).
#[must_use]
pub fn measure(prog: &LaidProgram, n: u64, seed: u64) -> FunctionalStats {
    let mut stats = FunctionalStats::default();
    let mut walker = Walker::new(prog, seed);
    let mut il1 = Cache::new(CacheConfig::default_il1());
    let mut bimodal = Bimodal::new(2048);

    for _ in 0..n {
        let step = walker.step();
        stats.committed += 1;
        stats.il1_accesses += 1;
        if !il1.access(step.addr.raw(), AccessKind::Read).hit {
            stats.il1_misses += 1;
        }

        let this_page = prog.geom.vpn(step.addr);
        let next_page = prog.geom.vpn(prog.addr_of(step.next_slot));
        let crossed = this_page != next_page;

        if let Some(exec) = step.branch {
            stats.branches += 1;
            if exec.taken {
                stats.taken += 1;
            }
            if step.is_boundary {
                stats.boundary_branch_execs += 1;
            }
            let spec = prog.slots[step.slot]
                .instr
                .branch
                .as_ref()
                .expect("branch step has spec");
            if spec.kind.analyzable() && !step.is_boundary {
                stats.analyzable += 1;
                let target = prog
                    .direct_target_addr(step.slot)
                    .expect("analyzable branch has a direct target");
                if prog.geom.same_page(step.addr, target) {
                    stats.analyzable_in_page += 1;
                } else {
                    stats.analyzable_crossing += 1;
                }
            }
            match spec.kind {
                BranchKind::Conditional => {
                    stats.cond_branches += 1;
                    if bimodal.predict(step.addr.raw()) == exec.taken {
                        stats.cond_predicted += 1;
                    }
                    bimodal.update(step.addr.raw(), exec.taken);
                }
                BranchKind::Jump => stats.jumps += 1,
                BranchKind::Call => stats.calls += 1,
                BranchKind::Return => stats.returns += 1,
                BranchKind::IndirectJump | BranchKind::IndirectCall => stats.indirects += 1,
            }
            if crossed {
                // A boundary branch's hop is the sequential crossing made
                // explicit; a real taken branch to another page is BRANCH.
                if exec.taken && !step.is_boundary {
                    stats.crossings_branch += 1;
                } else {
                    stats.crossings_boundary += 1;
                }
            }
        } else if crossed {
            stats.crossings_boundary += 1;
        }
    }
    stats
}

/// Static branch statistics over a laid-out program (paper Table 4, left
/// half). Boundary branches are excluded: the paper's static numbers come
/// from the uninstrumented source.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StaticBranchStats {
    /// Static branch sites.
    pub total: u64,
    /// ... with statically-analyzable targets.
    pub analyzable: u64,
    /// Analyzable sites whose target is on the same page.
    pub analyzable_in_page: u64,
    /// Analyzable sites whose target is on a different page.
    pub analyzable_crossing: u64,
}

/// Everything one functional walk of a laid-out program produces: the
/// dynamic [`FunctionalStats`] plus the layout's [`StaticBranchStats`] —
/// the unit the persistent artifact store caches under its `walks`
/// namespace (Table 4 and the calibration paths consume exactly this
/// pair, so a warm read makes them instruction-count-free).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct WalkMeasurement {
    /// Dynamic statistics from the walk.
    pub functional: FunctionalStats,
    /// Static branch statistics of the layout walked.
    pub static_branches: StaticBranchStats,
}

/// Walks `n` instructions and bundles the dynamic statistics with the
/// layout's static branch statistics (see [`WalkMeasurement`]).
#[must_use]
pub fn measure_walk(prog: &LaidProgram, n: u64, seed: u64) -> WalkMeasurement {
    WalkMeasurement {
        functional: measure(prog, n, seed),
        static_branches: static_branch_stats(prog),
    }
}

/// Computes [`StaticBranchStats`] from a layout.
#[must_use]
pub fn static_branch_stats(prog: &LaidProgram) -> StaticBranchStats {
    let mut s = StaticBranchStats::default();
    for (i, slot) in prog.slots.iter().enumerate() {
        let Some(spec) = &slot.instr.branch else {
            continue;
        };
        if spec.boundary {
            continue;
        }
        s.total += 1;
        if spec.kind.analyzable() {
            s.analyzable += 1;
            let addr = prog.addr_of(i);
            let target = prog
                .direct_target_addr(i)
                .expect("analyzable branch has a direct target");
            if prog.geom.same_page(addr, target) {
                s.analyzable_in_page += 1;
            } else {
                s.analyzable_crossing += 1;
            }
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{generate, GeneratorParams};
    use cfr_types::PageGeometry;

    fn laid(instrumented: bool) -> LaidProgram {
        let prog = generate(&GeneratorParams::small_test());
        LaidProgram::lay_out(&prog, PageGeometry::default_4k(), instrumented)
    }

    #[test]
    fn measure_counts_are_consistent() {
        let p = laid(false);
        let s = measure(&p, 50_000, 7);
        assert_eq!(s.committed, 50_000);
        assert!(s.branches > 0);
        assert!(s.taken <= s.branches);
        assert_eq!(s.analyzable, s.analyzable_in_page + s.analyzable_crossing);
        assert!(s.analyzable <= s.branches);
        assert!(s.il1_misses <= s.il1_accesses);
        assert!(s.cond_predicted <= s.cond_branches);
        assert_eq!(s.boundary_branch_execs, 0, "uninstrumented has none");
    }

    #[test]
    fn measure_is_deterministic() {
        let p = laid(false);
        assert_eq!(measure(&p, 20_000, 3), measure(&p, 20_000, 3));
    }

    #[test]
    fn instrumented_layout_converts_boundary_to_branches() {
        let p_plain = laid(false);
        let p_inst = laid(true);
        let a = measure(&p_plain, 100_000, 5);
        let b = measure(&p_inst, 100_000, 5);
        // Instrumented: no silent sequential crossings remain; every
        // crossing happens at a branch (boundary or real).
        assert!(b.boundary_branch_execs > 0 || a.crossings_boundary == 0);
        // Crossing totals per instruction stay in the same ballpark.
        let ca = a.crossing_fraction();
        let cb = b.crossing_fraction();
        assert!((ca - cb).abs() < 0.02, "crossing fractions {ca} vs {cb}");
    }

    #[test]
    fn instrumented_boundary_crossings_happen_at_branches_only() {
        let p = laid(true);
        // Walk manually: any sequential (non-branch) step must stay on-page.
        let mut w = Walker::new(&p, 11);
        for _ in 0..100_000 {
            let step = w.step();
            if step.branch.is_none() {
                assert!(
                    p.geom.same_page(step.addr, p.addr_of(step.next_slot)),
                    "sequential crossing survived instrumentation at slot {}",
                    step.slot
                );
            }
        }
    }

    #[test]
    fn static_stats_sum() {
        let p = laid(false);
        let s = static_branch_stats(&p);
        assert!(s.total > 0);
        assert_eq!(s.analyzable, s.analyzable_in_page + s.analyzable_crossing);
        assert!(s.analyzable <= s.total);
    }

    #[test]
    fn static_stats_ignore_boundary_branches() {
        let a = static_branch_stats(&laid(false));
        let b = static_branch_stats(&laid(true));
        assert_eq!(a.total, b.total);
        assert_eq!(a.analyzable, b.analyzable);
    }

    #[test]
    fn bimodal_learns_a_steady_branch() {
        let mut b = Bimodal::new(64);
        for _ in 0..10 {
            b.update(0x100, true);
        }
        assert!(b.predict(0x100));
        for _ in 0..10 {
            b.update(0x100, false);
        }
        assert!(!b.predict(0x100));
    }

    #[test]
    fn bimodal_hysteresis() {
        let mut b = Bimodal::new(64);
        for _ in 0..10 {
            b.update(0x100, true);
        }
        b.update(0x100, false); // one blip
        assert!(b.predict(0x100), "2-bit counter survives one blip");
    }

    #[test]
    #[should_panic(expected = "2^k")]
    fn bimodal_size_checked() {
        let _ = Bimodal::new(100);
    }
}
