//! Program structure: functions made of basic blocks.

use crate::isa::{BranchTarget, Instruction};

/// Index of a basic block in [`Program::blocks`] (global across functions).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockId(pub u32);

/// Index of a function in [`Program::functions`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FunctionId(pub u32);

/// A basic block: straight-line instructions, the last of which may be a
/// branch. Blocks without a terminating branch fall through to the next
/// block in layout order.
#[derive(Clone, Debug, PartialEq)]
pub struct Block {
    /// The instructions, in order.
    pub instrs: Vec<Instruction>,
}

impl Block {
    /// The terminating branch, if the block ends in one.
    #[must_use]
    pub fn terminator(&self) -> Option<&Instruction> {
        self.instrs.last().filter(|i| i.is_branch())
    }
}

/// A function: a contiguous run of blocks; the first is the entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Function {
    /// Global index of the first (entry) block.
    pub first_block: u32,
    /// Number of blocks (laid out contiguously).
    pub n_blocks: u32,
}

impl Function {
    /// The entry block.
    #[must_use]
    pub fn entry(&self) -> BlockId {
        BlockId(self.first_block)
    }

    /// Whether `b` belongs to this function.
    #[must_use]
    pub fn contains(&self, b: BlockId) -> bool {
        (self.first_block..self.first_block + self.n_blocks).contains(&b.0)
    }
}

/// A whole program: the static artifact that the generator produces, the
/// layout engine places on pages, and the compiler passes rewrite.
#[derive(Clone, Debug, PartialEq)]
pub struct Program {
    /// All blocks, grouped by function, in layout order.
    pub blocks: Vec<Block>,
    /// All functions; `functions[0]` is `main` (execution entry).
    pub functions: Vec<Function>,
    /// Number of global data pages the program references.
    pub global_pages: u16,
    /// Number of heap arrays the program references.
    pub heap_arrays: u16,
    /// Pages per heap array.
    pub heap_array_pages: u16,
}

impl Program {
    /// Total static instruction count.
    #[must_use]
    pub fn static_instructions(&self) -> usize {
        self.blocks.iter().map(|b| b.instrs.len()).sum()
    }

    /// Total static branch count.
    #[must_use]
    pub fn static_branches(&self) -> usize {
        self.blocks
            .iter()
            .flat_map(|b| &b.instrs)
            .filter(|i| i.is_branch())
            .count()
    }

    /// The function owning block `b`.
    ///
    /// # Panics
    ///
    /// Panics if `b` is out of range.
    #[must_use]
    pub fn function_of(&self, b: BlockId) -> FunctionId {
        let idx = self
            .functions
            .partition_point(|f| f.first_block + f.n_blocks <= b.0);
        assert!(
            idx < self.functions.len() && self.functions[idx].contains(b),
            "block {b:?} not in any function"
        );
        FunctionId(idx as u32)
    }

    /// Validates internal consistency: functions tile the block array,
    /// every branch target names a real block, every function's last block
    /// terminates (so execution cannot run off a function's end), and only
    /// final instructions are branches.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violation.
    pub fn validate(&self) -> Result<(), String> {
        let mut expected = 0u32;
        for (i, f) in self.functions.iter().enumerate() {
            if f.first_block != expected {
                return Err(format!("function {i} does not start at block {expected}"));
            }
            if f.n_blocks == 0 {
                return Err(format!("function {i} is empty"));
            }
            // Untrusted inputs (records loaded from the persistent store)
            // reach this check: a function table overrunning the block
            // array must be an error, never an out-of-bounds panic.
            expected = match f.first_block.checked_add(f.n_blocks) {
                Some(end) if (end as usize) <= self.blocks.len() => end,
                _ => return Err(format!("function {i} extends past the block array")),
            };
            let last = &self.blocks[expected as usize - 1];
            match last.terminator() {
                Some(t) => {
                    let spec = t.branch.as_ref().expect("branch has spec");
                    if spec.kind.conditional() {
                        return Err(format!(
                            "function {i} ends with a conditional (can fall off the end)"
                        ));
                    }
                }
                None => {
                    return Err(format!("function {i} last block has no terminator"));
                }
            }
        }
        if expected as usize != self.blocks.len() {
            return Err("functions do not tile the block array".into());
        }
        for (bi, b) in self.blocks.iter().enumerate() {
            if b.instrs.is_empty() {
                return Err(format!("block {bi} is empty"));
            }
            for (ii, inst) in b.instrs.iter().enumerate() {
                let is_last = ii + 1 == b.instrs.len();
                if inst.is_branch() && !is_last {
                    return Err(format!("block {bi} has a branch mid-block at {ii}"));
                }
                if let Some(spec) = &inst.branch {
                    let targets: &[BlockId] = match &spec.target {
                        BranchTarget::Block(t) => std::slice::from_ref(t),
                        BranchTarget::Indirect(ts) => ts,
                        BranchTarget::NextSlot | BranchTarget::CallerReturn => &[],
                    };
                    for t in targets {
                        if t.0 as usize >= self.blocks.len() {
                            return Err(format!("block {bi} targets nonexistent {t:?}"));
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{BranchSpec, OpClass};

    fn nop() -> Instruction {
        Instruction::alu(OpClass::IntAlu, [None, None], None)
    }

    fn tiny_program() -> Program {
        // main: b0 (falls through) -> b1 (jumps to b0)
        Program {
            blocks: vec![
                Block {
                    instrs: vec![nop(), nop()],
                },
                Block {
                    instrs: vec![
                        nop(),
                        Instruction::branch(BranchSpec::jump(BlockId(0)), None),
                    ],
                },
            ],
            functions: vec![Function {
                first_block: 0,
                n_blocks: 2,
            }],
            global_pages: 1,
            heap_arrays: 1,
            heap_array_pages: 1,
        }
    }

    #[test]
    fn counts() {
        let p = tiny_program();
        assert_eq!(p.static_instructions(), 4);
        assert_eq!(p.static_branches(), 1);
        assert!(p.validate().is_ok());
    }

    #[test]
    fn function_of_blocks() {
        let p = tiny_program();
        assert_eq!(p.function_of(BlockId(0)), FunctionId(0));
        assert_eq!(p.function_of(BlockId(1)), FunctionId(0));
    }

    #[test]
    fn validate_rejects_fall_off_end() {
        let mut p = tiny_program();
        p.blocks[1] = Block {
            instrs: vec![nop()],
        };
        assert!(p.validate().is_err());
    }

    #[test]
    fn validate_rejects_mid_block_branch() {
        let mut p = tiny_program();
        p.blocks[0] = Block {
            instrs: vec![
                Instruction::branch(BranchSpec::jump(BlockId(0)), None),
                nop(),
            ],
        };
        assert!(p.validate().is_err());
    }

    #[test]
    fn validate_rejects_dangling_target() {
        let mut p = tiny_program();
        p.blocks[1] = Block {
            instrs: vec![Instruction::branch(BranchSpec::jump(BlockId(9)), None)],
        };
        assert!(p.validate().is_err());
    }

    #[test]
    fn validate_rejects_empty_block() {
        let mut p = tiny_program();
        p.blocks[0] = Block { instrs: vec![] };
        assert!(p.validate().is_err());
    }

    #[test]
    fn validate_rejects_function_overrunning_blocks() {
        let mut p = tiny_program();
        p.functions[0].n_blocks = 5;
        assert!(p.validate().is_err(), "no panic on an overrunning table");
        p.functions[0].first_block = u32::MAX;
        assert!(p.validate().is_err(), "no overflow panic either");
    }

    #[test]
    fn validate_rejects_conditional_function_end() {
        let mut p = tiny_program();
        p.blocks[1] = Block {
            instrs: vec![Instruction::branch(
                BranchSpec::conditional(BlockId(0), 0.5),
                None,
            )],
        };
        assert!(p.validate().is_err());
    }
}
