//! Code layout: placing a [`Program`]'s blocks at virtual addresses.
//!
//! Layout is where the paper's BOUNDARY case is born: two successive
//! instructions on opposite sides of a page boundary. The *instrumented*
//! layout is the SoCA/SoLA/IA compiler's output — it guarantees that the
//! last instruction slot of every code page holds an **unconditional**
//! branch (inserting a boundary branch to "the very next instruction" when
//! the natural instruction stream would have crossed sequentially), so page
//! changes can only ever happen at branch targets.

use cfr_types::{PageGeometry, VirtAddr, INSTRUCTION_BYTES};

use crate::isa::{BranchSpec, BranchTarget, Instruction};
use crate::program::{BlockId, Program};

/// One laid-out instruction.
#[derive(Clone, Debug, PartialEq)]
pub struct Slot {
    /// The instruction (a copy; compiler passes may rewrite its branch
    /// metadata, e.g. the SoLA in-page bit).
    pub instr: Instruction,
    /// The block this instruction came from, or `None` for a
    /// compiler-inserted boundary branch.
    pub block: Option<BlockId>,
}

/// A program placed in virtual memory.
#[derive(Clone, Debug, PartialEq)]
pub struct LaidProgram {
    /// Page geometry used for layout.
    pub geom: PageGeometry,
    /// Address of slot 0 (page-aligned).
    pub base: VirtAddr,
    /// All instructions in address order; slot `i` lives at `base + 4*i`.
    pub slots: Vec<Slot>,
    /// Slot index of each block's first instruction, indexed by `BlockId`.
    pub block_start: Vec<u32>,
    /// Number of boundary branches the layout inserted (0 when not
    /// instrumented).
    pub boundary_branches: u32,
    /// Whether this is the SoCA/SoLA/IA compiler's instrumented layout.
    pub instrumented: bool,
    /// Data-region shape, copied from the program for the walker.
    pub global_pages: u16,
    /// Number of heap arrays.
    pub heap_arrays: u16,
    /// Pages per heap array.
    pub heap_array_pages: u16,
}

/// Default load address for program text (page-aligned).
pub const TEXT_BASE: u64 = 0x0040_0000;

impl LaidProgram {
    /// Lays out `prog` starting at [`TEXT_BASE`].
    ///
    /// With `instrumented = true`, applies the boundary-branch pass: no
    /// conditional branch or fall-through instruction ever occupies the last
    /// slot of a page.
    ///
    /// # Panics
    ///
    /// Panics if the program fails [`Program::validate`].
    #[must_use]
    pub fn lay_out(prog: &Program, geom: PageGeometry, instrumented: bool) -> Self {
        if let Err(e) = prog.validate() {
            panic!("cannot lay out invalid program: {e}");
        }
        let base = VirtAddr::new(TEXT_BASE);
        let mut slots: Vec<Slot> = Vec::with_capacity(prog.static_instructions());
        let mut block_start = vec![0u32; prog.blocks.len()];
        let mut boundary_branches = 0u32;

        for (bi, block) in prog.blocks.iter().enumerate() {
            block_start[bi] = slots.len() as u32;
            for instr in &block.instrs {
                if instrumented {
                    let addr = base.add(slots.len() as u64 * INSTRUCTION_BYTES);
                    if geom.is_last_slot(addr) && !may_end_page(instr) {
                        slots.push(Slot {
                            instr: Instruction::branch(BranchSpec::boundary(), None),
                            block: None,
                        });
                        boundary_branches += 1;
                    }
                }
                slots.push(Slot {
                    instr: instr.clone(),
                    block: Some(BlockId(bi as u32)),
                });
            }
        }

        Self {
            geom,
            base,
            slots,
            block_start,
            boundary_branches,
            instrumented,
            global_pages: prog.global_pages,
            heap_arrays: prog.heap_arrays,
            heap_array_pages: prog.heap_array_pages,
        }
    }

    /// Address of slot `i`.
    #[inline]
    #[must_use]
    pub fn addr_of(&self, slot: usize) -> VirtAddr {
        self.base.add(slot as u64 * INSTRUCTION_BYTES)
    }

    /// Slot index at `addr`, if it names an instruction of this program.
    #[must_use]
    pub fn slot_of(&self, addr: VirtAddr) -> Option<usize> {
        let a = addr.raw();
        let b = self.base.raw();
        if a < b || !(a - b).is_multiple_of(INSTRUCTION_BYTES) {
            return None;
        }
        let idx = ((a - b) / INSTRUCTION_BYTES) as usize;
        (idx < self.slots.len()).then_some(idx)
    }

    /// First slot of block `b`.
    #[inline]
    #[must_use]
    pub fn block_slot(&self, b: BlockId) -> usize {
        self.block_start[b.0 as usize] as usize
    }

    /// The program's entry slot (first instruction of `main`).
    #[must_use]
    pub fn entry_slot(&self) -> usize {
        0
    }

    /// For a *direct* branch at `slot`, its taken-target address.
    /// `None` for non-branches, returns, and indirect jumps.
    #[must_use]
    pub fn direct_target_addr(&self, slot: usize) -> Option<VirtAddr> {
        let spec = self.slots[slot].instr.branch.as_ref()?;
        match &spec.target {
            BranchTarget::Block(b) => Some(self.addr_of(self.block_slot(*b))),
            BranchTarget::NextSlot => Some(self.addr_of(slot + 1)),
            BranchTarget::Indirect(_) | BranchTarget::CallerReturn => None,
        }
    }

    /// Number of pages the text occupies.
    #[must_use]
    pub fn code_pages(&self) -> u64 {
        let bytes = self.slots.len() as u64 * INSTRUCTION_BYTES;
        bytes.div_ceil(self.geom.page_bytes())
    }

    /// Verifies the instrumented invariant: every last-slot-of-page holds an
    /// unconditional branch. Used by tests and debug assertions.
    #[must_use]
    pub fn boundary_invariant_holds(&self) -> bool {
        if !self.instrumented {
            return true;
        }
        self.slots.iter().enumerate().all(|(i, s)| {
            let addr = self.addr_of(i);
            // The very last instruction of the program is exempt: there is
            // no successor to fall into.
            if !self.geom.is_last_slot(addr) || i + 1 == self.slots.len() {
                return true;
            }
            may_end_page(&s.instr)
        })
    }
}

/// Whether an instruction may legally occupy the last slot of a page in the
/// instrumented layout: only branches that never fall through.
fn may_end_page(instr: &Instruction) -> bool {
    match &instr.branch {
        Some(spec) => !spec.kind.conditional(),
        None => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{generate, GeneratorParams};
    use crate::isa::OpClass;
    use crate::program::{Block, Function};

    fn nop() -> Instruction {
        Instruction::alu(OpClass::IntAlu, [None, None], None)
    }

    /// A program with one huge straight-line block so layout must cross
    /// pages, ending in a jump back to block 0.
    fn straightline(n: usize) -> Program {
        let mut instrs = vec![nop(); n];
        instrs.push(Instruction::branch(BranchSpec::jump(BlockId(0)), None));
        Program {
            blocks: vec![Block { instrs }],
            functions: vec![Function {
                first_block: 0,
                n_blocks: 1,
            }],
            global_pages: 1,
            heap_arrays: 1,
            heap_array_pages: 1,
        }
    }

    #[test]
    fn uninstrumented_layout_is_dense() {
        let p = straightline(3000);
        let laid = LaidProgram::lay_out(&p, PageGeometry::default_4k(), false);
        assert_eq!(laid.slots.len(), 3001);
        assert_eq!(laid.boundary_branches, 0);
        assert!(laid.boundary_invariant_holds());
    }

    #[test]
    fn instrumented_layout_inserts_boundary_branches() {
        let p = straightline(3000);
        let laid = LaidProgram::lay_out(&p, PageGeometry::default_4k(), true);
        // 3001 instructions over 1024-instruction pages: crossings at slots
        // 1023 and 2047 (the natural instructions there are nops).
        assert!(laid.boundary_branches >= 2);
        assert_eq!(laid.slots.len(), 3001 + laid.boundary_branches as usize);
        assert!(laid.boundary_invariant_holds());
        // The inserted slots are boundary jumps at page-final addresses.
        let page_instrs = laid.geom.instructions_per_page() as usize;
        let s = &laid.slots[page_instrs - 1];
        assert!(s.instr.branch.as_ref().unwrap().boundary);
        assert_eq!(s.block, None);
    }

    #[test]
    fn addresses_and_slots_round_trip() {
        let p = straightline(100);
        let laid = LaidProgram::lay_out(&p, PageGeometry::default_4k(), false);
        for i in [0usize, 1, 50, 100] {
            assert_eq!(laid.slot_of(laid.addr_of(i)), Some(i));
        }
        assert_eq!(laid.slot_of(VirtAddr::new(TEXT_BASE - 4)), None);
        assert_eq!(laid.slot_of(VirtAddr::new(TEXT_BASE + 2)), None);
        assert_eq!(laid.slot_of(laid.addr_of(101)), None);
    }

    #[test]
    fn direct_target_resolution() {
        let p = straightline(10);
        let laid = LaidProgram::lay_out(&p, PageGeometry::default_4k(), false);
        // The jump at slot 10 targets block 0 = slot 0.
        assert_eq!(laid.direct_target_addr(10), Some(laid.addr_of(0)));
        assert_eq!(laid.direct_target_addr(0), None, "nop has no target");
    }

    #[test]
    fn boundary_branch_targets_next_slot() {
        let p = straightline(3000);
        let laid = LaidProgram::lay_out(&p, PageGeometry::default_4k(), true);
        let page_instrs = laid.geom.instructions_per_page() as usize;
        let b = page_instrs - 1;
        assert_eq!(laid.direct_target_addr(b), Some(laid.addr_of(b + 1)));
    }

    #[test]
    fn code_pages_counts() {
        let p = straightline(1023); // exactly one page with the jump
        let laid = LaidProgram::lay_out(&p, PageGeometry::default_4k(), false);
        assert_eq!(laid.code_pages(), 1);
        let p2 = straightline(1024);
        let laid2 = LaidProgram::lay_out(&p2, PageGeometry::default_4k(), false);
        assert_eq!(laid2.code_pages(), 2);
    }

    #[test]
    #[should_panic(expected = "invalid program")]
    fn layout_rejects_invalid() {
        let p = Program {
            blocks: vec![Block {
                instrs: vec![nop()],
            }],
            functions: vec![Function {
                first_block: 0,
                n_blocks: 1,
            }],
            global_pages: 0,
            heap_arrays: 0,
            heap_array_pages: 0,
        };
        let _ = LaidProgram::lay_out(&p, PageGeometry::default_4k(), false);
    }

    #[test]
    fn generated_program_invariant_holds() {
        let prog = generate(&GeneratorParams::small_test());
        let laid = LaidProgram::lay_out(&prog, PageGeometry::default_4k(), true);
        assert!(laid.boundary_invariant_holds());
        // Block starts shift but stay consistent.
        for (bi, &start) in laid.block_start.iter().enumerate() {
            let slot = &laid.slots[start as usize];
            assert_eq!(slot.block, Some(BlockId(bi as u32)));
        }
    }
}
