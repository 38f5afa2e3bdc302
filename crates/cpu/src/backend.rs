//! Execution backends: the pipeline's view of the program being run.
//!
//! The out-of-order core needs two things from a workload: static layout
//! queries (slot ↔ address mapping, per-slot decode metadata) and the
//! architectural oracle (`step`). [`ExecutionBackend`] abstracts both, so
//! the same pipeline runs over either representation:
//!
//! - [`InterpBackend`] — the reference model: reads each [`LaidProgram`]
//!   slot's `Instruction` on every fetch and steps the original
//!   [`Walker`]. Decode metadata (class, operands, branch kind, page
//!   number) is re-derived per fetch.
//! - [`CompiledBackend`] — the fast path: runs a [`CompiledTrace`] whose
//!   per-slot metadata was pre-decoded once at compile time, stepping the
//!   trace's own [`TraceWalker`].
//!
//! Both walkers are driven by the same `SplitMix64` stream in the same
//! order, so the two backends are *byte-identical*: every statistic and
//! every energy figure must match exactly (the compiled-vs-interpreter
//! pipeline test and the repo's golden tests enforce this).

use cfr_types::VirtAddr;
use cfr_workload::{CompiledTrace, DecodedInstr, LaidProgram, StepInfo, TraceWalker, Walker};

/// A program representation plus its architectural oracle.
///
/// Static queries (`addr_of`, `decoded`, …) may be called for any slot —
/// the fetch engine runs down predicted wrong paths — while [`step`]
/// advances the architectural (right-path) walker only.
///
/// [`step`]: ExecutionBackend::step
pub trait ExecutionBackend {
    /// Number of instruction slots in the program.
    fn slot_count(&self) -> usize;

    /// Virtual address of slot `slot`.
    fn addr_of(&self, slot: usize) -> VirtAddr;

    /// Slot index at `addr`, if it names an instruction.
    fn slot_of(&self, addr: VirtAddr) -> Option<usize>;

    /// Virtual page number of slot `slot`'s address.
    fn page_of(&self, slot: usize) -> u64;

    /// Decode metadata for slot `slot`.
    fn decoded(&self, slot: usize) -> DecodedInstr;

    /// The program's entry slot.
    fn entry_slot(&self) -> usize;

    /// Executes one architectural instruction.
    fn step(&mut self) -> StepInfo;

    /// Slot the architectural walker will execute next.
    fn current_slot(&self) -> usize;
}

/// The reference backend: per-fetch decode straight out of the
/// [`LaidProgram`]'s instruction slots, stepped by the original
/// [`Walker`].
pub struct InterpBackend<'p> {
    prog: &'p LaidProgram,
    walker: Walker<'p>,
}

impl<'p> InterpBackend<'p> {
    /// Builds the backend over a laid-out program; `seed` drives the
    /// architectural walker.
    #[must_use]
    pub fn new(prog: &'p LaidProgram, seed: u64) -> Self {
        Self {
            prog,
            walker: Walker::new(prog, seed),
        }
    }
}

impl ExecutionBackend for InterpBackend<'_> {
    #[inline]
    fn slot_count(&self) -> usize {
        self.prog.slots.len()
    }

    #[inline]
    fn addr_of(&self, slot: usize) -> VirtAddr {
        self.prog.addr_of(slot)
    }

    #[inline]
    fn slot_of(&self, addr: VirtAddr) -> Option<usize> {
        self.prog.slot_of(addr)
    }

    #[inline]
    fn page_of(&self, slot: usize) -> u64 {
        self.prog.geom.vpn(self.prog.addr_of(slot)).raw()
    }

    #[inline]
    fn decoded(&self, slot: usize) -> DecodedInstr {
        let instr = &self.prog.slots[slot].instr;
        let spec = instr.branch.as_ref();
        DecodedInstr {
            class: instr.class,
            srcs: instr.srcs,
            dst: instr.dst,
            latency: instr.latency(),
            branch: spec.map(|s| s.kind),
            in_page_hint: spec.is_some_and(|s| s.in_page_hint),
            boundary: spec.is_some_and(|s| s.boundary),
            page: self.page_of(slot),
        }
    }

    #[inline]
    fn entry_slot(&self) -> usize {
        self.prog.entry_slot()
    }

    #[inline]
    fn step(&mut self) -> StepInfo {
        self.walker.step()
    }

    #[inline]
    fn current_slot(&self) -> usize {
        self.walker.current_slot()
    }
}

/// The pre-decoded backend: flat per-slot metadata copied straight out of
/// a [`CompiledTrace`], stepped by its [`TraceWalker`].
pub struct CompiledBackend<'t> {
    trace: &'t CompiledTrace,
    walker: TraceWalker<'t>,
}

impl<'t> CompiledBackend<'t> {
    /// Builds the backend over a compiled trace; `seed` drives the
    /// architectural walker.
    #[must_use]
    pub fn new(trace: &'t CompiledTrace, seed: u64) -> Self {
        Self {
            trace,
            walker: TraceWalker::new(trace, seed),
        }
    }
}

impl ExecutionBackend for CompiledBackend<'_> {
    #[inline]
    fn slot_count(&self) -> usize {
        self.trace.len()
    }

    #[inline]
    fn addr_of(&self, slot: usize) -> VirtAddr {
        self.trace.addr_of(slot)
    }

    #[inline]
    fn slot_of(&self, addr: VirtAddr) -> Option<usize> {
        self.trace.slot_of(addr)
    }

    #[inline]
    fn page_of(&self, slot: usize) -> u64 {
        self.trace.decoded[slot].page
    }

    #[inline]
    fn decoded(&self, slot: usize) -> DecodedInstr {
        self.trace.decoded[slot]
    }

    #[inline]
    fn entry_slot(&self) -> usize {
        self.trace.entry_slot()
    }

    // Inlined into each copy of the fetch loop, one per translator type
    // (see `Pipeline::run_slice`).
    #[inline(always)]
    fn step(&mut self) -> StepInfo {
        self.walker.step()
    }

    #[inline]
    fn current_slot(&self) -> usize {
        self.walker.current_slot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfr_types::PageGeometry;
    use cfr_workload::{compile_trace, generate, GeneratorParams};

    #[test]
    fn backends_agree_on_layout_and_decode() {
        let prog = generate(&GeneratorParams::small_test());
        let laid = LaidProgram::lay_out(&prog, PageGeometry::default_4k(), true);
        let trace = compile_trace(&laid);
        let interp = InterpBackend::new(&laid, 7);
        let compiled = CompiledBackend::new(&trace, 7);
        assert_eq!(interp.slot_count(), compiled.slot_count());
        assert_eq!(interp.entry_slot(), compiled.entry_slot());
        for slot in 0..interp.slot_count() {
            assert_eq!(interp.addr_of(slot), compiled.addr_of(slot));
            assert_eq!(interp.page_of(slot), compiled.page_of(slot));
            let a = interp.decoded(slot);
            let b = compiled.decoded(slot);
            assert_eq!(a, b, "decode metadata diverged at slot {slot}");
            assert_eq!(interp.slot_of(interp.addr_of(slot)), Some(slot));
            assert_eq!(compiled.slot_of(compiled.addr_of(slot)), Some(slot));
        }
    }

    #[test]
    fn backends_step_identically() {
        let prog = generate(&GeneratorParams::small_test());
        let laid = LaidProgram::lay_out(&prog, PageGeometry::default_4k(), false);
        let trace = compile_trace(&laid);
        let mut interp = InterpBackend::new(&laid, 0x5EED);
        let mut compiled = CompiledBackend::new(&trace, 0x5EED);
        for i in 0..10_000 {
            assert_eq!(interp.current_slot(), compiled.current_slot());
            assert_eq!(interp.step(), compiled.step(), "diverged at step {i}");
        }
    }
}
