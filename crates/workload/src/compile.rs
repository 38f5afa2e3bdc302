//! Pre-decoded trace compilation: the compiled execution backend's input.
//!
//! A [`LaidProgram`] is immutable once the compiler passes have run, yet
//! the interpreting pipeline re-inspects `Instruction` structs — branch
//! spec enums, operand options, region lookups — on every fetch of every
//! cycle. This module compiles a laid-out program **once** into a
//! [`CompiledTrace`]: two flat per-slot arrays ([`DecodedInstr`], 8 bytes
//! of fetch/decode metadata, and [`TraceOp`], 16 bytes of architectural
//! semantics) with every branch target pre-resolved to a slot index and
//! every data region pre-folded to its concrete page/array. Nothing
//! derivable is stored: a slot's page is its address shifted
//! ([`CompiledTrace::page_of`]), and its latency and registers are bytes.
//!
//! [`TraceWalker`] replays a trace with **bit-identical** behaviour to
//! [`Walker`](crate::walk::Walker): the same RNG draws in the same order,
//! the same call-stack push/overwrite rules, the same end-of-text wrap.
//! The golden-output suite holds both backends to the same recorded
//! reports, so the trace is an optimization, never a second model.
//!
//! The `cfr-core` engine compiles each binary's trace once per process
//! and keeps it as the binary's only executable: it drops the layout
//! once the trace exists, and stores no trace, since compiling one is
//! cheaper than encoding and decoding its record. The record codec
//! ([`CompiledTrace::to_record`], checked by [`CompiledTrace::validate`])
//! stays for the round-trip tests and the repo benchmark's codec cell.

use cfr_types::{
    PageGeometry, RecordError, RecordReader, RecordWriter, VirtAddr, INSTRUCTION_BYTES,
};

use crate::codec::{opt_reg_from_record, opt_reg_to_record, record_bool};
use crate::isa::{BranchKind, BranchTarget, DataRegion, Instruction, OpClass, RegId};
use crate::layout::LaidProgram;
use crate::rng::SplitMix64;
use crate::walk::{
    BranchExec, StepInfo, FRAME_BYTES, GLOBAL_BASE, HEAP_BASE, MAX_CALL_DEPTH, STACK_BASE,
};

/// Everything the pipeline's fetch/decode stages need about one slot,
/// pre-extracted so the hot loop never touches an [`Instruction`]
/// (`Vec`-carrying branch specs included), in 8 bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DecodedInstr {
    /// Functional class.
    pub class: OpClass,
    /// Source register numbers, [`DecodedInstr::NO_REG`] where absent.
    pub srcs: [u8; 2],
    /// Destination register number, [`DecodedInstr::NO_REG`] if none.
    pub dst: u8,
    /// Execution latency in cycles once issued.
    pub latency: u8,
    /// Branch kind (present iff `class == Branch`).
    pub branch: Option<BranchKind>,
    /// The SoLA in-page bit.
    pub in_page_hint: bool,
    /// True for compiler-inserted page-boundary branches.
    pub boundary: bool,
}

impl DecodedInstr {
    /// The register number of an absent operand: one past the last
    /// register, so a scoreboard with one spare slot can index it.
    pub const NO_REG: u8 = RegId::COUNT as u8;

    /// Decodes one instruction.
    #[must_use]
    pub fn new(instr: &Instruction) -> Self {
        let spec = instr.branch.as_ref();
        Self {
            class: instr.class,
            srcs: instr.srcs.map(reg_byte),
            dst: reg_byte(instr.dst),
            latency: instr.class.latency(),
            branch: spec.map(|s| s.kind),
            in_page_hint: spec.is_some_and(|s| s.in_page_hint),
            boundary: spec.is_some_and(|s| s.boundary),
        }
    }
}

/// A register as its [`DecodedInstr`] byte.
fn reg_byte(reg: Option<RegId>) -> u8 {
    reg.map_or(DecodedInstr::NO_REG, |r| r.0)
}

/// The register a [`DecodedInstr`] byte names.
fn byte_reg(byte: u8) -> Option<RegId> {
    (byte != DecodedInstr::NO_REG).then_some(RegId(byte))
}

/// The architectural semantics of one slot, with targets pre-resolved to
/// slot indices and data regions pre-folded to their concrete page/array.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TraceOp {
    /// Falls through to `slot + 1`; no RNG, no memory.
    Plain,
    /// Stack access: address depends on the live call depth.
    MemStack,
    /// Global access to the (pre-folded) global page index.
    MemGlobal {
        /// Global page index, already reduced modulo the page count.
        page: u64,
    },
    /// Heap access walking the (pre-folded) array's cursor.
    MemHeap {
        /// Heap array index, already reduced modulo the array count.
        array: u32,
    },
    /// Conditional branch: taken with probability `bias`.
    Cond {
        /// Per-site taken probability.
        bias: f64,
        /// Taken-target slot.
        target: u32,
    },
    /// Unconditional direct jump (boundary branches' `NextSlot` targets
    /// are resolved to `slot + 1` at compile time).
    Jump {
        /// Target slot.
        target: u32,
    },
    /// Direct call; pushes `slot + 1` as the return slot.
    Call {
        /// Callee entry slot.
        target: u32,
    },
    /// Return; pops the call stack (entry slot when empty).
    Return,
    /// Indirect jump over `count` candidates starting at `start` in the
    /// trace's flat target pool.
    IndirectJump {
        /// First candidate index in [`CompiledTrace::indirect_targets`].
        start: u32,
        /// Number of candidates.
        count: u32,
    },
    /// Indirect call: pushes a return slot like [`TraceOp::Call`], then
    /// picks a candidate like [`TraceOp::IndirectJump`].
    IndirectCall {
        /// First candidate index in [`CompiledTrace::indirect_targets`].
        start: u32,
        /// Number of candidates.
        count: u32,
    },
}

/// A [`LaidProgram`] compiled to flat pre-decoded arrays — the compiled
/// execution backend's program representation.
#[derive(Clone, Debug, PartialEq)]
pub struct CompiledTrace {
    /// Page geometry used for layout.
    pub geom: PageGeometry,
    /// Address of slot 0.
    pub base: VirtAddr,
    /// Per-slot fetch/decode metadata.
    pub decoded: Vec<DecodedInstr>,
    /// Per-slot architectural semantics (parallel to `decoded`).
    pub ops: Vec<TraceOp>,
    /// Flat pool of pre-resolved indirect-branch target slots.
    pub indirect_targets: Vec<u32>,
    /// Whether the source layout was instrumented (boundary branches).
    pub instrumented: bool,
    /// Number of global data pages.
    pub global_pages: u16,
    /// Number of heap arrays.
    pub heap_arrays: u16,
    /// Pages per heap array.
    pub heap_array_pages: u16,
}

/// The branch kind a [`TraceOp`] encodes, if any.
fn branch_kind_of(op: &TraceOp) -> Option<BranchKind> {
    match op {
        TraceOp::Cond { .. } => Some(BranchKind::Conditional),
        TraceOp::Jump { .. } => Some(BranchKind::Jump),
        TraceOp::Call { .. } => Some(BranchKind::Call),
        TraceOp::Return => Some(BranchKind::Return),
        TraceOp::IndirectJump { .. } => Some(BranchKind::IndirectJump),
        TraceOp::IndirectCall { .. } => Some(BranchKind::IndirectCall),
        TraceOp::Plain
        | TraceOp::MemStack
        | TraceOp::MemGlobal { .. }
        | TraceOp::MemHeap { .. } => None,
    }
}

/// Compiles `laid` into its flat pre-decoded trace.
///
/// # Panics
///
/// Panics on an inconsistent branch spec (a kind paired with a target
/// shape the walker could not execute) — impossible for any program that
/// passes [`Program::validate`](crate::program::Program::validate).
#[must_use]
#[allow(clippy::cast_possible_truncation)]
pub fn compile_trace(laid: &LaidProgram) -> CompiledTrace {
    let n = laid.slots.len();
    let mut decoded = Vec::with_capacity(n);
    let mut ops = Vec::with_capacity(n);
    let mut indirect_targets = Vec::new();
    for (slot, s) in laid.slots.iter().enumerate() {
        let instr = &s.instr;
        let op = match instr.class {
            OpClass::Branch => {
                let spec = instr.branch.as_ref().expect("branch has spec");
                match (&spec.kind, &spec.target) {
                    (BranchKind::Conditional, BranchTarget::Block(b)) => TraceOp::Cond {
                        bias: spec.taken_bias,
                        target: laid.block_slot(*b) as u32,
                    },
                    (BranchKind::Jump, BranchTarget::Block(b)) => TraceOp::Jump {
                        target: laid.block_slot(*b) as u32,
                    },
                    (BranchKind::Jump, BranchTarget::NextSlot) => TraceOp::Jump {
                        target: (slot + 1) as u32,
                    },
                    (BranchKind::Call, BranchTarget::Block(b)) => TraceOp::Call {
                        target: laid.block_slot(*b) as u32,
                    },
                    (BranchKind::Return, BranchTarget::CallerReturn) => TraceOp::Return,
                    (BranchKind::IndirectJump, BranchTarget::Indirect(ts)) => {
                        let start = indirect_targets.len() as u32;
                        indirect_targets.extend(ts.iter().map(|b| laid.block_slot(*b) as u32));
                        TraceOp::IndirectJump {
                            start,
                            count: ts.len() as u32,
                        }
                    }
                    (BranchKind::IndirectCall, BranchTarget::Indirect(ts)) => {
                        let start = indirect_targets.len() as u32;
                        indirect_targets.extend(ts.iter().map(|b| laid.block_slot(*b) as u32));
                        TraceOp::IndirectCall {
                            start,
                            count: ts.len() as u32,
                        }
                    }
                    (kind, target) => {
                        unreachable!("inconsistent branch: {kind:?} with {target:?}")
                    }
                }
            }
            OpClass::Load | OpClass::Store => match instr.region.expect("memory op has a region") {
                DataRegion::Stack => TraceOp::MemStack,
                DataRegion::Global(g) => TraceOp::MemGlobal {
                    page: u64::from(g) % u64::from(laid.global_pages.max(1)),
                },
                DataRegion::Heap(h) => TraceOp::MemHeap {
                    array: u32::from(h) % u32::from(laid.heap_arrays.max(1)),
                },
            },
            OpClass::IntAlu | OpClass::IntMul | OpClass::FpAlu | OpClass::FpMul => TraceOp::Plain,
        };
        decoded.push(DecodedInstr::new(instr));
        ops.push(op);
    }
    CompiledTrace {
        geom: laid.geom,
        base: laid.base,
        decoded,
        ops,
        indirect_targets,
        instrumented: laid.instrumented,
        global_pages: laid.global_pages,
        heap_arrays: laid.heap_arrays,
        heap_array_pages: laid.heap_array_pages,
    }
}

impl CompiledTrace {
    /// Number of instruction slots.
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        self.decoded.len()
    }

    /// Whether the trace has no slots (never true for a valid trace).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.decoded.is_empty()
    }

    /// Address of slot `i`.
    #[inline]
    #[must_use]
    pub fn addr_of(&self, slot: usize) -> VirtAddr {
        self.base.add(slot as u64 * INSTRUCTION_BYTES)
    }

    /// Virtual page number of slot `i`'s address.
    #[inline]
    #[must_use]
    pub fn page_of(&self, slot: usize) -> u64 {
        self.geom.vpn(self.addr_of(slot)).raw()
    }

    /// Slot index at `addr`, if it names an instruction of this trace.
    #[must_use]
    pub fn slot_of(&self, addr: VirtAddr) -> Option<usize> {
        let a = addr.raw();
        let b = self.base.raw();
        if a < b || !(a - b).is_multiple_of(INSTRUCTION_BYTES) {
            return None;
        }
        let idx = ((a - b) / INSTRUCTION_BYTES) as usize;
        (idx < self.decoded.len()).then_some(idx)
    }

    /// The program's entry slot.
    #[must_use]
    pub fn entry_slot(&self) -> usize {
        0
    }

    /// Structural validation for decoded traces: every target in bounds,
    /// every op consistent with its slot's class, every pre-folded region
    /// index reduced. Any failure means the record is corrupt or stale.
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistency found.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.decoded.len();
        if n == 0 {
            return Err("trace has no slots".into());
        }
        if self.ops.len() != n {
            return Err(format!("{} ops for {n} slots", self.ops.len()));
        }
        if self.heap_arrays == 0 {
            return Err("trace has no heap arrays".into());
        }
        for (i, &t) in self.indirect_targets.iter().enumerate() {
            if t as usize >= n {
                return Err(format!("indirect target {i} = {t} out of range"));
            }
        }
        for (slot, (d, op)) in self.decoded.iter().zip(&self.ops).enumerate() {
            let err = |msg: &str| Err(format!("slot {slot}: {msg}"));
            let class_ok = match op {
                TraceOp::Plain => matches!(
                    d.class,
                    OpClass::IntAlu | OpClass::IntMul | OpClass::FpAlu | OpClass::FpMul
                ),
                TraceOp::MemStack | TraceOp::MemGlobal { .. } | TraceOp::MemHeap { .. } => {
                    matches!(d.class, OpClass::Load | OpClass::Store)
                }
                _ => d.class == OpClass::Branch,
            };
            if !class_ok {
                return err("op inconsistent with class");
            }
            if d.branch != branch_kind_of(op) {
                return err("branch kind inconsistent with op");
            }
            match *op {
                TraceOp::Cond { bias, target } => {
                    if !(0.0..=1.0).contains(&bias) {
                        return err("conditional bias out of [0, 1]");
                    }
                    if target as usize >= n {
                        return err("conditional target out of range");
                    }
                }
                // A final-slot boundary/fall-through jump may legally
                // target one-past-the-end (the walker wraps it to entry).
                TraceOp::Jump { target } => {
                    if target as usize > n {
                        return err("jump target out of range");
                    }
                }
                TraceOp::Call { target } => {
                    if target as usize >= n {
                        return err("call target out of range");
                    }
                }
                TraceOp::IndirectJump { start, count } | TraceOp::IndirectCall { start, count } => {
                    if count == 0 {
                        return err("indirect branch with no targets");
                    }
                    let end = start as usize + count as usize;
                    if end > self.indirect_targets.len() {
                        return err("indirect range out of the target pool");
                    }
                }
                TraceOp::MemGlobal { page } => {
                    if page >= u64::from(self.global_pages.max(1)) {
                        return err("global page not pre-folded");
                    }
                }
                TraceOp::MemHeap { array } => {
                    if array >= u32::from(self.heap_arrays) {
                        return err("heap array not pre-folded");
                    }
                }
                TraceOp::Plain | TraceOp::MemStack | TraceOp::Return => {}
            }
        }
        Ok(())
    }

    /// Serializes the trace (record codec). Per-slot latency and branch
    /// kind are derived on load rather than stored.
    pub fn to_record(&self, w: &mut RecordWriter) {
        w.token("trace");
        w.u64(self.geom.page_bytes());
        w.u64(self.base.raw());
        w.u64(u64::from(self.instrumented));
        w.u64(u64::from(self.global_pages));
        w.u64(u64::from(self.heap_arrays));
        w.u64(u64::from(self.heap_array_pages));
        w.token("itargets");
        w.u64(self.indirect_targets.len() as u64);
        for t in &self.indirect_targets {
            w.u64(u64::from(*t));
        }
        w.token("slots");
        w.u64(self.decoded.len() as u64);
        for (d, op) in self.decoded.iter().zip(&self.ops) {
            w.token(match d.class {
                OpClass::IntAlu => "ialu",
                OpClass::IntMul => "imul",
                OpClass::FpAlu => "falu",
                OpClass::FpMul => "fmul",
                OpClass::Load => "ld",
                OpClass::Store => "st",
                OpClass::Branch => "br",
            });
            match *op {
                TraceOp::Plain => {}
                TraceOp::MemStack => w.token("stack"),
                TraceOp::MemGlobal { page } => {
                    w.token("g");
                    w.u64(page);
                }
                TraceOp::MemHeap { array } => {
                    w.token("h");
                    w.u64(u64::from(array));
                }
                TraceOp::Cond { bias, target } => {
                    w.token("cond");
                    w.f64(bias);
                    w.u64(u64::from(target));
                }
                TraceOp::Jump { target } => {
                    w.token("jmp");
                    w.u64(u64::from(target));
                }
                TraceOp::Call { target } => {
                    w.token("call");
                    w.u64(u64::from(target));
                }
                TraceOp::Return => w.token("ret"),
                TraceOp::IndirectJump { start, count } => {
                    w.token("ij");
                    w.u64(u64::from(start));
                    w.u64(u64::from(count));
                }
                TraceOp::IndirectCall { start, count } => {
                    w.token("ic");
                    w.u64(u64::from(start));
                    w.u64(u64::from(count));
                }
            }
            if d.class == OpClass::Branch {
                w.u64(u64::from(d.in_page_hint));
                w.u64(u64::from(d.boundary));
            }
            opt_reg_to_record(byte_reg(d.srcs[0]), w);
            opt_reg_to_record(byte_reg(d.srcs[1]), w);
            opt_reg_to_record(byte_reg(d.dst), w);
        }
    }

    /// Parses a [`Self::to_record`] stream. Callers loading untrusted
    /// bytes should additionally run [`Self::validate`] on the result.
    ///
    /// # Errors
    ///
    /// Errors on a malformed stream.
    pub fn from_record(r: &mut RecordReader<'_>) -> Result<Self, RecordError> {
        r.expect("trace")?;
        let page_bytes = r.u64()?;
        let geom = PageGeometry::new(page_bytes)
            .map_err(|e| RecordError::new(format!("bad trace geometry: {e}")))?;
        let base = VirtAddr::new(r.u64()?);
        let instrumented = record_bool(r)?;
        let scalar = |r: &mut RecordReader<'_>| -> Result<u16, RecordError> {
            let v = r.u64()?;
            u16::try_from(v).map_err(|_| RecordError::new(format!("scalar {v} exceeds u16")))
        };
        let global_pages = scalar(r)?;
        let heap_arrays = scalar(r)?;
        let heap_array_pages = scalar(r)?;
        r.expect("itargets")?;
        let n_targets = r.usize()?;
        let mut indirect_targets = Vec::with_capacity(n_targets.min(1 << 20));
        for _ in 0..n_targets {
            indirect_targets.push(r.u32()?);
        }
        r.expect("slots")?;
        let n_slots = r.usize()?;
        let mut decoded = Vec::with_capacity(n_slots.min(1 << 22));
        let mut ops = Vec::with_capacity(n_slots.min(1 << 22));
        for _ in 0..n_slots {
            let class = match r.token()? {
                "ialu" => OpClass::IntAlu,
                "imul" => OpClass::IntMul,
                "falu" => OpClass::FpAlu,
                "fmul" => OpClass::FpMul,
                "ld" => OpClass::Load,
                "st" => OpClass::Store,
                "br" => OpClass::Branch,
                other => return Err(RecordError::new(format!("unknown op class {other:?}"))),
            };
            let op = match class {
                OpClass::Load | OpClass::Store => match r.token()? {
                    "stack" => TraceOp::MemStack,
                    "g" => TraceOp::MemGlobal { page: r.u64()? },
                    "h" => TraceOp::MemHeap { array: r.u32()? },
                    other => {
                        return Err(RecordError::new(format!("unknown trace region {other:?}")))
                    }
                },
                OpClass::Branch => match r.token()? {
                    "cond" => TraceOp::Cond {
                        bias: r.f64()?,
                        target: r.u32()?,
                    },
                    "jmp" => TraceOp::Jump { target: r.u32()? },
                    "call" => TraceOp::Call { target: r.u32()? },
                    "ret" => TraceOp::Return,
                    "ij" => TraceOp::IndirectJump {
                        start: r.u32()?,
                        count: r.u32()?,
                    },
                    "ic" => TraceOp::IndirectCall {
                        start: r.u32()?,
                        count: r.u32()?,
                    },
                    other => return Err(RecordError::new(format!("unknown trace op {other:?}"))),
                },
                _ => TraceOp::Plain,
            };
            let (in_page_hint, boundary) = if class == OpClass::Branch {
                (record_bool(r)?, record_bool(r)?)
            } else {
                (false, false)
            };
            decoded.push(DecodedInstr {
                class,
                srcs: [
                    reg_byte(opt_reg_from_record(r)?),
                    reg_byte(opt_reg_from_record(r)?),
                ],
                dst: reg_byte(opt_reg_from_record(r)?),
                latency: class.latency(),
                branch: branch_kind_of(&op),
                in_page_hint,
                boundary,
            });
            ops.push(op);
        }
        Ok(Self {
            geom,
            base,
            decoded,
            ops,
            indirect_targets,
            instrumented,
            global_pages,
            heap_arrays,
            heap_array_pages,
        })
    }
}

/// Deterministic architectural executor over a [`CompiledTrace`] —
/// bit-identical to [`Walker`](crate::walk::Walker) over the trace's
/// source program for any seed.
#[derive(Clone, Debug)]
pub struct TraceWalker<'t> {
    trace: &'t CompiledTrace,
    cur: usize,
    stack: Vec<usize>,
    rng: SplitMix64,
    heap_cursor: Vec<u64>,
    steps: u64,
}

impl<'t> TraceWalker<'t> {
    /// Creates a walker at the trace's entry slot.
    #[must_use]
    pub fn new(trace: &'t CompiledTrace, seed: u64) -> Self {
        Self {
            trace,
            cur: trace.entry_slot(),
            stack: Vec::with_capacity(MAX_CALL_DEPTH),
            rng: SplitMix64::new(seed),
            heap_cursor: vec![0; trace.heap_arrays as usize],
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

    #[inline]
    fn push_return(&mut self, ret: usize) {
        if self.stack.len() < MAX_CALL_DEPTH {
            self.stack.push(ret);
        } else {
            *self.stack.last_mut().expect("depth > 0") = ret;
        }
    }

    /// Executes the current instruction and advances.
    // Inlined into each copy of the pipeline's fetch loop, one per
    // translator type (see `cfr_cpu::Pipeline::run_slice`).
    #[inline(always)]
    pub fn step(&mut self) -> StepInfo {
        let slot = self.cur;
        let t = self.trace;
        let addr = t.addr_of(slot);
        self.steps += 1;

        let mut branch = None;
        let mut mem_addr = None;

        let next_slot = match t.ops[slot] {
            TraceOp::Plain => slot + 1,
            TraceOp::MemStack => {
                let depth = self.stack.len() as u64;
                let frame_base = STACK_BASE - (depth + 1) * FRAME_BYTES;
                let off = self.rng.below(FRAME_BYTES / 8) * 8;
                mem_addr = Some(VirtAddr::new(frame_base + off));
                slot + 1
            }
            TraceOp::MemGlobal { page } => {
                let bytes = t.geom.page_bytes();
                let off = self.rng.below(bytes / 8) * 8;
                mem_addr = Some(VirtAddr::new(GLOBAL_BASE + page * bytes + off));
                slot + 1
            }
            TraceOp::MemHeap { array } => {
                let array = array as usize;
                let array_bytes = u64::from(t.heap_array_pages) * t.geom.page_bytes();
                let cur = &mut self.heap_cursor[array];
                // Wrap-by-subtract: the cursor stays below the array size
                // and strides by 64, so this equals the old `% size`
                // without a hardware divide on every heap access.
                let wrap = array_bytes.max(64);
                *cur += 64;
                if *cur >= wrap {
                    *cur -= wrap;
                }
                mem_addr = Some(VirtAddr::new(HEAP_BASE + array as u64 * array_bytes + *cur));
                slot + 1
            }
            TraceOp::Cond { bias, target } => {
                let (taken, next) = if self.rng.chance(bias) {
                    (true, target as usize)
                } else {
                    (false, slot + 1)
                };
                branch = Some(BranchExec {
                    taken,
                    next_addr: t.addr_of(next),
                });
                next
            }
            TraceOp::Jump { target } => {
                let next = target as usize;
                branch = Some(BranchExec {
                    taken: true,
                    next_addr: t.addr_of(next),
                });
                next
            }
            TraceOp::Call { target } => {
                self.push_return(slot + 1);
                let next = target as usize;
                branch = Some(BranchExec {
                    taken: true,
                    next_addr: t.addr_of(next),
                });
                next
            }
            TraceOp::Return => {
                let next = self.stack.pop().unwrap_or_else(|| t.entry_slot());
                branch = Some(BranchExec {
                    taken: true,
                    next_addr: t.addr_of(next),
                });
                next
            }
            TraceOp::IndirectJump { start, count } => {
                let pick = self.rng.below(u64::from(count)) as usize;
                let next = t.indirect_targets[start as usize + pick] as usize;
                branch = Some(BranchExec {
                    taken: true,
                    next_addr: t.addr_of(next),
                });
                next
            }
            TraceOp::IndirectCall { start, count } => {
                self.push_return(slot + 1);
                let pick = self.rng.below(u64::from(count)) as usize;
                let next = t.indirect_targets[start as usize + pick] as usize;
                branch = Some(BranchExec {
                    taken: true,
                    next_addr: t.addr_of(next),
                });
                next
            }
        };

        // Falling off the very end of the text restarts at the entry
        // (same wrap as `Walker::step`; the `next_addr` above is the
        // unwrapped successor, also matching the interpreter).
        let next_slot = if next_slot >= t.len() {
            t.entry_slot()
        } else {
            next_slot
        };

        self.cur = next_slot;
        let d = &t.decoded[slot];
        StepInfo {
            slot,
            addr,
            class: d.class,
            next_slot,
            branch,
            mem_addr,
            is_boundary: d.boundary,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{generate, GeneratorParams};
    use crate::walk::Walker;

    fn small_laid(instrumented: bool) -> LaidProgram {
        let prog = generate(&GeneratorParams::small_test());
        LaidProgram::lay_out(&prog, PageGeometry::default_4k(), instrumented)
    }

    #[test]
    fn trace_walker_matches_walker_step_for_step() {
        for instrumented in [false, true] {
            let laid = small_laid(instrumented);
            let trace = compile_trace(&laid);
            for seed in [1u64, 0x5EED, 24301] {
                let mut interp = Walker::new(&laid, seed);
                let mut compiled = TraceWalker::new(&trace, seed);
                for i in 0..20_000 {
                    assert_eq!(
                        interp.step(),
                        compiled.step(),
                        "step {i} (instrumented={instrumented}, seed={seed})"
                    );
                }
                assert_eq!(interp.current_slot(), compiled.current_slot());
                assert_eq!(interp.call_depth(), compiled.call_depth());
                assert_eq!(interp.steps(), compiled.steps());
            }
        }
    }

    #[test]
    fn trace_walker_matches_walker_on_large_pages() {
        // The golden set overrides page size to 16 KB; the pre-folded
        // global/heap addresses must track the geometry.
        let prog = generate(&GeneratorParams::small_test());
        let geom = PageGeometry::new(16384).unwrap();
        let laid = LaidProgram::lay_out(&prog, geom, true);
        let trace = compile_trace(&laid);
        let mut interp = Walker::new(&laid, 7);
        let mut compiled = TraceWalker::new(&trace, 7);
        for _ in 0..20_000 {
            assert_eq!(interp.step(), compiled.step());
        }
    }

    #[test]
    fn trace_mirrors_layout_metadata() {
        let laid = small_laid(true);
        let trace = compile_trace(&laid);
        assert_eq!(trace.len(), laid.slots.len());
        assert!(trace.validate().is_ok());
        for i in [0usize, 1, trace.len() - 1] {
            assert_eq!(trace.addr_of(i), laid.addr_of(i));
            assert_eq!(trace.slot_of(trace.addr_of(i)), Some(i));
            let d = &trace.decoded[i];
            let instr = &laid.slots[i].instr;
            assert_eq!(*d, DecodedInstr::new(instr));
            assert_eq!(trace.page_of(i), laid.geom.vpn(laid.addr_of(i)).raw());
        }
        assert_eq!(trace.slot_of(VirtAddr::new(trace.base.raw() - 4)), None);
        assert_eq!(trace.slot_of(trace.addr_of(trace.len())), None);
    }

    #[test]
    fn a_decoded_slot_fits_in_twelve_bytes() {
        assert!(std::mem::size_of::<DecodedInstr>() <= 12);
    }

    #[test]
    fn the_profiles_traces_cost_at_most_28_bytes_per_slot() {
        for profile in crate::profiles::all() {
            let prog = profile.generate();
            for instrumented in [false, true] {
                let laid = LaidProgram::lay_out(&prog, PageGeometry::default_4k(), instrumented);
                let trace = compile_trace(&laid);
                let bytes = trace.decoded.capacity() * std::mem::size_of::<DecodedInstr>()
                    + trace.ops.capacity() * std::mem::size_of::<TraceOp>();
                let per_slot = bytes as f64 / trace.len() as f64;
                assert!(
                    per_slot <= 28.0,
                    "{} (instrumented = {instrumented}): {per_slot:.1} B per slot",
                    profile.name
                );
            }
        }
    }

    #[test]
    fn record_round_trips_exactly() {
        for instrumented in [false, true] {
            let trace = compile_trace(&small_laid(instrumented));
            let mut w = RecordWriter::new();
            trace.to_record(&mut w);
            let record = w.finish();
            assert!(!record.contains('\n'), "store values are single-line");
            let mut r = RecordReader::new(&record);
            let back = CompiledTrace::from_record(&mut r).unwrap();
            r.finish().unwrap();
            assert_eq!(back, trace, "bit-exact round trip (biases included)");
            assert!(back.validate().is_ok());
        }
    }

    #[test]
    fn corrupt_trace_records_are_errors() {
        let trace = compile_trace(&small_laid(false));
        let mut w = RecordWriter::new();
        trace.to_record(&mut w);
        let record = w.finish();
        // Truncation.
        assert!(
            CompiledTrace::from_record(&mut RecordReader::new(&record[..record.len() / 2]))
                .is_err()
        );
        // Damaged tag.
        let damaged = record.replacen("trace", "trance", 1);
        assert!(CompiledTrace::from_record(&mut RecordReader::new(&damaged)).is_err());
        // A bogus op class in the middle.
        let bogus = record.replacen(" ialu ", " zalu ", 1);
        assert_ne!(bogus, record);
        assert!(CompiledTrace::from_record(&mut RecordReader::new(&bogus)).is_err());
    }

    #[test]
    fn validate_rejects_out_of_range_shapes() {
        let mut trace = compile_trace(&small_laid(false));
        assert!(trace.validate().is_ok());
        let n = trace.len() as u32;
        // An out-of-range direct target.
        let cond_slot = trace
            .ops
            .iter()
            .position(|op| matches!(op, TraceOp::Cond { .. }))
            .expect("generated program has conditionals");
        let good = trace.ops[cond_slot];
        trace.ops[cond_slot] = TraceOp::Cond {
            bias: 0.5,
            target: n + 1,
        };
        assert!(trace.validate().is_err());
        trace.ops[cond_slot] = good;
        assert!(trace.validate().is_ok());
        // An op/class mismatch.
        let plain_slot = trace
            .ops
            .iter()
            .position(|op| matches!(op, TraceOp::Plain))
            .expect("generated program has plain ops");
        trace.ops[plain_slot] = TraceOp::Return;
        assert!(trace.validate().is_err());
    }
}
