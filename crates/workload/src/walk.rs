//! The architectural control-flow walker: the oracle execution of a laid-out
//! program.
//!
//! The cycle-level CPU is *trace-driven in the sim-outorder style*: the
//! walker supplies the architecturally-correct path (branch outcomes, branch
//! targets, data addresses), while the CPU fetches speculatively — possibly
//! down wrong paths — and squashes back to the walker's path on mispredict
//! recovery. The walker is deterministic given `(program, seed)`, so every
//! strategy in an experiment sees the *same* dynamic instruction stream.

use cfr_types::VirtAddr;

use crate::isa::{BranchKind, BranchTarget, DataRegion, OpClass};
use crate::layout::LaidProgram;
use crate::rng::SplitMix64;

/// Maximum modeled call depth; deeper calls overwrite the top frame
/// (tail-call-like), which keeps the walker total-memory bounded without
/// ever stopping execution.
pub const MAX_CALL_DEPTH: usize = 128;

/// Base of the stack data region (grows down).
pub const STACK_BASE: u64 = 0x7FFF_F000;
/// Base of the global data region.
pub const GLOBAL_BASE: u64 = 0x1000_0000;
/// Base of the heap data region.
pub const HEAP_BASE: u64 = 0x2000_0000;
/// Modeled stack frame size in bytes.
pub const FRAME_BYTES: u64 = 256;

/// Outcome of a branch's architectural execution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BranchExec {
    /// Whether the branch was taken.
    pub taken: bool,
    /// Where execution actually goes next (taken target, or fall-through).
    pub next_addr: VirtAddr,
}

/// One architecturally-executed instruction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StepInfo {
    /// Slot index of the executed instruction.
    pub slot: usize,
    /// Its address.
    pub addr: VirtAddr,
    /// Functional class.
    pub class: OpClass,
    /// Slot index of the architectural successor.
    pub next_slot: usize,
    /// Branch outcome, for branches.
    pub branch: Option<BranchExec>,
    /// Effective data address, for loads/stores.
    pub mem_addr: Option<VirtAddr>,
    /// Whether this was a compiler-inserted boundary branch.
    pub is_boundary: bool,
}

/// Deterministic architectural executor.
#[derive(Clone, Debug)]
pub struct Walker<'p> {
    prog: &'p LaidProgram,
    cur: usize,
    stack: Vec<usize>,
    rng: SplitMix64,
    heap_cursor: Vec<u64>,
    steps: u64,
}

impl<'p> Walker<'p> {
    /// Creates a walker at the program entry.
    #[must_use]
    pub fn new(prog: &'p LaidProgram, seed: u64) -> Self {
        Self {
            prog,
            cur: prog.entry_slot(),
            stack: Vec::with_capacity(MAX_CALL_DEPTH),
            rng: SplitMix64::new(seed),
            heap_cursor: vec![0; prog.heap_arrays as usize],
            steps: 0,
        }
    }

    /// Slot the walker will execute next.
    #[must_use]
    pub fn current_slot(&self) -> usize {
        self.cur
    }

    /// Current call depth.
    #[must_use]
    pub fn call_depth(&self) -> usize {
        self.stack.len()
    }

    /// Instructions executed so far.
    #[must_use]
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Executes the current instruction and advances.
    #[inline]
    pub fn step(&mut self) -> StepInfo {
        let slot = self.cur;
        let s = &self.prog.slots[slot];
        let addr = self.prog.addr_of(slot);
        self.steps += 1;

        let mut branch = None;
        let mut mem_addr = None;

        let next_slot = match s.instr.class {
            OpClass::Branch => {
                let spec = s.instr.branch.as_ref().expect("branch has spec");
                let (taken, next) = match (&spec.kind, &spec.target) {
                    (BranchKind::Conditional, BranchTarget::Block(b)) => {
                        if self.rng.chance(spec.taken_bias) {
                            (true, self.prog.block_slot(*b))
                        } else {
                            (false, slot + 1)
                        }
                    }
                    (BranchKind::Jump, BranchTarget::Block(b)) => (true, self.prog.block_slot(*b)),
                    (BranchKind::Jump, BranchTarget::NextSlot) => (true, slot + 1),
                    (BranchKind::Call, BranchTarget::Block(b)) => {
                        let ret = slot + 1;
                        if self.stack.len() < MAX_CALL_DEPTH {
                            self.stack.push(ret);
                        } else {
                            *self.stack.last_mut().expect("depth > 0") = ret;
                        }
                        (true, self.prog.block_slot(*b))
                    }
                    (BranchKind::Return, BranchTarget::CallerReturn) => {
                        match self.stack.pop() {
                            Some(ret) => (true, ret),
                            // Returning from main: the run restarts — the
                            // outermost driver loop of the workload.
                            None => (true, self.prog.entry_slot()),
                        }
                    }
                    (BranchKind::IndirectJump, BranchTarget::Indirect(ts)) => {
                        let pick = self.rng.below(ts.len() as u64) as usize;
                        (true, self.prog.block_slot(ts[pick]))
                    }
                    (BranchKind::IndirectCall, BranchTarget::Indirect(ts)) => {
                        let ret = slot + 1;
                        if self.stack.len() < MAX_CALL_DEPTH {
                            self.stack.push(ret);
                        } else {
                            *self.stack.last_mut().expect("depth > 0") = ret;
                        }
                        let pick = self.rng.below(ts.len() as u64) as usize;
                        (true, self.prog.block_slot(ts[pick]))
                    }
                    (kind, target) => {
                        unreachable!("inconsistent branch: {kind:?} with {target:?}")
                    }
                };
                branch = Some(BranchExec {
                    taken,
                    next_addr: self.prog.addr_of(next),
                });
                next
            }
            OpClass::Load | OpClass::Store => {
                mem_addr = Some(self.data_address(s.instr.region.expect("memory op has a region")));
                slot + 1
            }
            _ => slot + 1,
        };

        // Falling off the very end of the text restarts at the entry (the
        // generator always terminates functions, so this only guards the
        // final slot).
        let next_slot = if next_slot >= self.prog.slots.len() {
            self.prog.entry_slot()
        } else {
            next_slot
        };

        self.cur = next_slot;
        StepInfo {
            slot,
            addr,
            class: s.instr.class,
            next_slot,
            branch,
            mem_addr,
            is_boundary: s.instr.branch.as_ref().is_some_and(|b| b.boundary),
        }
    }

    fn data_address(&mut self, region: DataRegion) -> VirtAddr {
        let page = self.prog.geom.page_bytes();
        match region {
            DataRegion::Stack => {
                let depth = self.stack.len() as u64;
                let frame_base = STACK_BASE - (depth + 1) * FRAME_BYTES;
                let off = self.rng.below(FRAME_BYTES / 8) * 8;
                VirtAddr::new(frame_base + off)
            }
            DataRegion::Global(g) => {
                let g = u64::from(g) % u64::from(self.prog.global_pages.max(1));
                let off = self.rng.below(page / 8) * 8;
                VirtAddr::new(GLOBAL_BASE + g * page + off)
            }
            DataRegion::Heap(h) => {
                let h = usize::from(h) % self.heap_cursor.len().max(1);
                let array_bytes = u64::from(self.prog.heap_array_pages) * page;
                let cur = &mut self.heap_cursor[h];
                // Wrap-by-subtract; identical to the old `% size` because
                // the cursor stays below the size and strides by 64.
                let wrap = array_bytes.max(64);
                *cur += 64;
                if *cur >= wrap {
                    *cur -= wrap;
                }
                VirtAddr::new(HEAP_BASE + h as u64 * array_bytes + *cur)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{generate, GeneratorParams};
    use crate::isa::{BranchSpec, Instruction, OpClass, RegId};
    use crate::layout::LaidProgram;
    use crate::program::{Block, BlockId, Function, Program};
    use cfr_types::PageGeometry;

    fn nop() -> Instruction {
        Instruction::alu(OpClass::IntAlu, [None, None], None)
    }

    /// main: b0 calls f (b2); b1 jumps back to b0. f: b2 returns.
    fn call_program() -> Program {
        Program {
            blocks: vec![
                Block {
                    instrs: vec![
                        nop(),
                        Instruction::branch(BranchSpec::call(BlockId(2)), None),
                    ],
                },
                Block {
                    instrs: vec![Instruction::branch(BranchSpec::jump(BlockId(0)), None)],
                },
                Block {
                    instrs: vec![
                        Instruction::load(DataRegion::Stack, RegId(1), RegId(2)),
                        Instruction::branch(BranchSpec::ret(), None),
                    ],
                },
            ],
            functions: vec![
                Function {
                    first_block: 0,
                    n_blocks: 2,
                },
                Function {
                    first_block: 2,
                    n_blocks: 1,
                },
            ],
            global_pages: 2,
            heap_arrays: 2,
            heap_array_pages: 4,
        }
    }

    fn laid() -> LaidProgram {
        LaidProgram::lay_out(&call_program(), PageGeometry::default_4k(), false)
    }

    #[test]
    fn call_and_return_follow_the_stack() {
        let p = laid();
        let mut w = Walker::new(&p, 1);
        let s0 = w.step(); // nop
        assert_eq!(s0.slot, 0);
        let s1 = w.step(); // call
        assert!(s1.branch.unwrap().taken);
        assert_eq!(s1.next_slot, 3, "callee entry");
        assert_eq!(w.call_depth(), 1);
        let s2 = w.step(); // load in callee
        assert!(s2.mem_addr.is_some());
        let s3 = w.step(); // return
        assert_eq!(s3.next_slot, 2, "back to call fall-through");
        assert_eq!(w.call_depth(), 0);
        let s4 = w.step(); // jump to b0
        assert_eq!(s4.next_slot, 0);
    }

    #[test]
    fn return_from_main_restarts() {
        let p = LaidProgram::lay_out(
            &Program {
                blocks: vec![Block {
                    instrs: vec![nop(), Instruction::branch(BranchSpec::ret(), None)],
                }],
                functions: vec![Function {
                    first_block: 0,
                    n_blocks: 1,
                }],
                global_pages: 1,
                heap_arrays: 1,
                heap_array_pages: 1,
            },
            PageGeometry::default_4k(),
            false,
        );
        let mut w = Walker::new(&p, 1);
        w.step();
        let r = w.step();
        assert_eq!(r.next_slot, 0, "empty-stack return restarts at entry");
    }

    #[test]
    fn walker_is_deterministic() {
        let prog = generate(&GeneratorParams::small_test());
        let p = LaidProgram::lay_out(&prog, PageGeometry::default_4k(), false);
        let mut a = Walker::new(&p, 99);
        let mut b = Walker::new(&p, 99);
        for _ in 0..10_000 {
            assert_eq!(a.step(), b.step());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let prog = generate(&GeneratorParams::small_test());
        let p = LaidProgram::lay_out(&prog, PageGeometry::default_4k(), false);
        let mut a = Walker::new(&p, 1);
        let mut b = Walker::new(&p, 2);
        let diverged = (0..10_000).any(|_| a.step() != b.step());
        assert!(diverged);
    }

    #[test]
    fn walker_never_leaves_text() {
        let prog = generate(&GeneratorParams::small_test());
        let p = LaidProgram::lay_out(&prog, PageGeometry::default_4k(), true);
        let mut w = Walker::new(&p, 7);
        for _ in 0..50_000 {
            let s = w.step();
            assert!(s.slot < p.slots.len());
            assert!(s.next_slot < p.slots.len());
        }
    }

    #[test]
    fn data_addresses_stay_in_their_regions() {
        let p = laid();
        let mut w = Walker::new(&p, 3);
        for _ in 0..1000 {
            let s = w.step();
            if let Some(a) = s.mem_addr {
                let a = a.raw();
                let in_stack = (STACK_BASE - 64 * FRAME_BYTES..STACK_BASE).contains(&a);
                let in_global = (GLOBAL_BASE..GLOBAL_BASE + 0x1000_0000).contains(&a);
                let in_heap = (HEAP_BASE..HEAP_BASE + 0x1000_0000).contains(&a);
                assert!(in_stack || in_global || in_heap, "stray address {a:#x}");
            }
        }
    }

    #[test]
    fn boundary_branches_flagged() {
        // A straight-line block long enough to cross a page, instrumented.
        let mut instrs = vec![nop(); 2000];
        instrs.push(Instruction::branch(BranchSpec::jump(BlockId(0)), None));
        let prog = Program {
            blocks: vec![Block { instrs }],
            functions: vec![Function {
                first_block: 0,
                n_blocks: 1,
            }],
            global_pages: 1,
            heap_arrays: 1,
            heap_array_pages: 1,
        };
        let p = LaidProgram::lay_out(&prog, PageGeometry::default_4k(), true);
        let mut w = Walker::new(&p, 1);
        let mut boundaries = 0;
        for _ in 0..p.slots.len() {
            let s = w.step();
            if s.is_boundary {
                boundaries += 1;
                let b = s.branch.unwrap();
                assert!(b.taken);
                assert_eq!(b.next_addr, p.addr_of(s.slot + 1));
            }
        }
        assert!(boundaries >= 1);
    }
}
