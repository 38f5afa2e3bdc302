//! The compiler support the software strategies need (paper §3.3.2–§3.3.4).
//!
//! Two passes over a laid-out program:
//!
//! 1. **Boundary-branch insertion** — performed during layout
//!    (`LaidProgram::lay_out(_, _, instrumented = true)`); this module
//!    decides which strategies need it.
//! 2. **In-page branch marking** ([`mark_in_page_branches`]) — the SoLA
//!    pass: set the extra instruction bit on every *statically analyzable*
//!    branch whose target lies on the branch's own page.
//!
//! [`compile_for`] runs both passes for all three compiler-assisted
//! schemes. Only SoLA reads the in-page bit — SoCA and IA never do — so
//! SoCA, SoLA and IA run one binary, and their runs of one configuration
//! drive one pipeline.

use cfr_types::PageGeometry;
use cfr_workload::{LaidProgram, Program};

use crate::strategy::StrategyKind;

/// Whether a strategy runs the boundary-instrumented binary.
///
/// HoA and the Base/OPT references run the original binary; the three
/// compiler-assisted schemes run the instrumented one.
#[must_use]
pub fn wants_instrumented(kind: StrategyKind) -> bool {
    matches!(
        kind,
        StrategyKind::SoCA | StrategyKind::SoLA | StrategyKind::Ia
    )
}

/// The SoLA marking pass: sets `in_page_hint` on every direct branch whose
/// target is on the same page. Returns how many branches were marked.
///
/// The paper: *"We use an extra bit in branch instructions to differentiate
/// between in-page branches and the others."* Only statically-analyzable
/// targets can be marked; returns and indirect jumps are left untouched.
pub fn mark_in_page_branches(prog: &mut LaidProgram) -> u64 {
    let mut marked = 0;
    for i in 0..prog.slots.len() {
        let Some(target) = prog.direct_target_addr(i) else {
            continue;
        };
        let addr = prog.addr_of(i);
        let spec = prog.slots[i]
            .instr
            .branch
            .as_mut()
            .expect("direct target implies a branch");
        if spec.boundary {
            // A boundary branch's target is by definition on the next page.
            continue;
        }
        if prog.geom.same_page(addr, target) {
            spec.in_page_hint = true;
            marked += 1;
        }
    }
    marked
}

/// Compiles `program` for `kind`: the plain layout for Base, OPT and HoA;
/// for the compiler-assisted schemes, the instrumented layout with its
/// in-page branches marked (see the module docs).
#[must_use]
pub fn compile_for(program: &Program, geom: PageGeometry, kind: StrategyKind) -> LaidProgram {
    let instrumented = wants_instrumented(kind);
    let mut laid = LaidProgram::lay_out(program, geom, instrumented);
    if instrumented {
        mark_in_page_branches(&mut laid);
    }
    laid
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfr_workload::{generate, BranchTarget, GeneratorParams};

    fn program() -> Program {
        generate(&GeneratorParams::small_test())
    }

    #[test]
    fn instrumentation_choice() {
        assert!(!wants_instrumented(StrategyKind::Base));
        assert!(!wants_instrumented(StrategyKind::Opt));
        assert!(!wants_instrumented(StrategyKind::HoA));
        assert!(wants_instrumented(StrategyKind::SoCA));
        assert!(wants_instrumented(StrategyKind::SoLA));
        assert!(wants_instrumented(StrategyKind::Ia));
    }

    #[test]
    fn marking_sets_only_same_page_direct_branches() {
        let p = program();
        let mut laid = LaidProgram::lay_out(&p, PageGeometry::default_4k(), true);
        let marked = mark_in_page_branches(&mut laid);
        assert!(marked > 0, "test program must have in-page branches");
        for (i, slot) in laid.slots.iter().enumerate() {
            let Some(spec) = &slot.instr.branch else {
                continue;
            };
            if spec.in_page_hint {
                let target = laid.direct_target_addr(i).expect("marked implies direct");
                assert!(laid.geom.same_page(laid.addr_of(i), target));
                assert!(!spec.boundary, "boundary branches are never in-page");
            } else if !spec.boundary && matches!(spec.target, BranchTarget::Block(_)) {
                let target = laid.direct_target_addr(i).expect("direct");
                assert!(
                    !laid.geom.same_page(laid.addr_of(i), target),
                    "unmarked direct branch at slot {i} is actually in-page"
                );
            }
        }
    }

    #[test]
    fn marking_is_idempotent() {
        let p = program();
        let mut laid = LaidProgram::lay_out(&p, PageGeometry::default_4k(), true);
        let a = mark_in_page_branches(&mut laid);
        let b = mark_in_page_branches(&mut laid);
        assert_eq!(a, b);
    }

    #[test]
    fn compile_for_sola_marks() {
        let p = program();
        let laid = compile_for(&p, PageGeometry::default_4k(), StrategyKind::SoLA);
        assert!(laid.instrumented);
        assert!(laid
            .slots
            .iter()
            .any(|s| s.instr.branch.as_ref().is_some_and(|b| b.in_page_hint)));
    }

    #[test]
    fn soca_sola_and_ia_compile_to_one_binary() {
        let p = program();
        let geom = PageGeometry::default_4k();
        let sola = compile_for(&p, geom, StrategyKind::SoLA);
        assert_eq!(compile_for(&p, geom, StrategyKind::SoCA), sola);
        assert_eq!(compile_for(&p, geom, StrategyKind::Ia), sola);
    }

    #[test]
    fn compile_for_base_is_plain() {
        let p = program();
        let laid = compile_for(&p, PageGeometry::default_4k(), StrategyKind::Base);
        assert!(!laid.instrumented);
        assert_eq!(laid.boundary_branches, 0);
    }

    #[test]
    fn larger_pages_mark_more_branches() {
        let p = program();
        let mut small = LaidProgram::lay_out(&p, PageGeometry::new(1024).unwrap(), true);
        let mut large = LaidProgram::lay_out(&p, PageGeometry::new(16384).unwrap(), true);
        let a = mark_in_page_branches(&mut small);
        let b = mark_in_page_branches(&mut large);
        assert!(b >= a, "bigger pages cover more targets: {a} vs {b}");
    }
}
