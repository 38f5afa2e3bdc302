//! Pre-decoded trace compilation: the compiled execution backend's input.
//!
//! A [`LaidProgram`] is immutable once the compiler passes have run, yet
//! the interpreting pipeline re-inspects `Instruction` structs — branch
//! spec enums, operand options, region lookups — on every fetch of every
//! cycle. This module compiles a laid-out program **once** into a
//! [`CompiledTrace`]: two flat per-slot arrays ([`DecodedInstr`] for the
//! fetch/decode metadata, [`TraceOp`] for the architectural semantics)
//! with every branch target pre-resolved to a slot index, every data
//! region pre-folded to its concrete page/array, and every slot's virtual
//! page number pre-computed.
//!
//! [`TraceWalker`] replays a trace with **bit-identical** behaviour to
//! [`Walker`](crate::walk::Walker): the same RNG draws in the same order,
//! the same call-stack push/overwrite rules, the same end-of-text wrap.
//! The golden-output suite holds both backends to the same recorded
//! reports, so the trace is an optimization, never a second model.
//!
//! Traces persist in the artifact store under the `traces` namespace
//! (keys fingerprint the generator params, page geometry, layout
//! instrumentation, and SoLA marking), so a warm process skips the
//! compile entirely. Loaded traces are structurally re-validated; any
//! parse or validation failure degrades to a cold recompile.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use cfr_types::{
    PageGeometry, RecordError, RecordReader, RecordWriter, StoreBackend, VirtAddr,
    INSTRUCTION_BYTES, NS_TRACES,
};

use crate::codec::{opt_reg_from_record, opt_reg_to_record, record_bool, trace_store_key};
use crate::isa::{BranchKind, BranchTarget, DataRegion, OpClass, RegId};
use crate::layout::LaidProgram;
use crate::profiles::BenchmarkProfile;
use crate::rng::SplitMix64;
use crate::walk::{
    BranchExec, StepInfo, FRAME_BYTES, GLOBAL_BASE, HEAP_BASE, MAX_CALL_DEPTH, STACK_BASE,
};

/// Everything the pipeline's fetch/decode stages need about one slot,
/// pre-extracted so the hot loop never touches an [`Instruction`]
/// (`Vec`-carrying branch specs included).
///
/// [`Instruction`]: crate::isa::Instruction
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DecodedInstr {
    /// Functional class.
    pub class: OpClass,
    /// Source registers.
    pub srcs: [Option<RegId>; 2],
    /// Destination register.
    pub dst: Option<RegId>,
    /// Execution latency in cycles once issued.
    pub latency: u32,
    /// Branch kind (present iff `class == Branch`).
    pub branch: Option<BranchKind>,
    /// The SoLA in-page bit.
    pub in_page_hint: bool,
    /// True for compiler-inserted page-boundary branches.
    pub boundary: bool,
    /// Virtual page number of this slot's address.
    pub page: u64,
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

/// Execution latency of a class (mirrors `Instruction::latency`).
fn class_latency(class: OpClass) -> u32 {
    match class {
        OpClass::IntAlu | OpClass::Branch => 1,
        OpClass::IntMul => 3,
        OpClass::FpAlu => 2,
        OpClass::FpMul => 4,
        OpClass::Load | OpClass::Store => 1,
    }
}

/// The branch kind a [`TraceOp`] encodes, if any.
fn branch_kind_of(op: &TraceOp) -> Option<BranchKind> {
    match op {
        TraceOp::Cond { bias, .. } => Some(BranchKind::Conditional { taken_bias: *bias }),
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
                    (BranchKind::Conditional { taken_bias }, BranchTarget::Block(b)) => {
                        TraceOp::Cond {
                            bias: *taken_bias,
                            target: laid.block_slot(*b) as u32,
                        }
                    }
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
        let spec = instr.branch.as_ref();
        decoded.push(DecodedInstr {
            class: instr.class,
            srcs: instr.srcs,
            dst: instr.dst,
            latency: instr.latency(),
            branch: spec.map(|s| s.kind),
            in_page_hint: spec.is_some_and(|s| s.in_page_hint),
            boundary: spec.is_some_and(|s| s.boundary),
            page: laid.geom.vpn(laid.addr_of(slot)).raw(),
        });
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

    /// Structural validation for traces loaded from the store: every
    /// target in bounds, every op consistent with its slot's class, every
    /// pre-folded region index reduced. Any failure means the record is
    /// corrupt or stale and the caller recompiles.
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

    /// Serializes the trace (persistent artifact store codec). Per-slot
    /// latency, page number, and branch kind are derived on load rather
    /// than stored.
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
            opt_reg_to_record(d.srcs[0], w);
            opt_reg_to_record(d.srcs[1], w);
            opt_reg_to_record(d.dst, w);
        }
    }

    /// Parses a [`Self::to_record`] stream. Callers loading untrusted
    /// bytes (the trace cache) should additionally run
    /// [`Self::validate`] on the result.
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
        for slot in 0..n_slots {
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
                srcs: [opt_reg_from_record(r)?, opt_reg_from_record(r)?],
                dst: opt_reg_from_record(r)?,
                latency: class_latency(class),
                branch: branch_kind_of(&op),
                in_page_hint,
                boundary,
                page: geom.vpn(base.add(slot as u64 * INSTRUCTION_BYTES)).raw(),
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

/// Memo key: profile name plus everything that changes the compiled
/// trace — page geometry, layout instrumentation, SoLA marking.
type TraceKey = (&'static str, u64, bool, bool);

/// A memo of compiled traces, optionally backed by the persistent
/// artifact store's `traces` namespace — the compiled-backend sibling of
/// [`ProgramCache`](crate::cache::ProgramCache).
#[derive(Debug, Default)]
pub struct TraceCache {
    traces: Mutex<HashMap<TraceKey, Arc<CompiledTrace>>>,
    store: Mutex<Option<Arc<dyn StoreBackend>>>,
    /// Store-probe answers delivered ahead of time by a batched prefetch
    /// ([`TraceCache::prime`]), keyed by store key: `Some(text)` is the
    /// stored record, `None` a definite miss. Consumed by the next
    /// [`TraceCache::get`] in place of its own per-key store probe.
    pending: Mutex<HashMap<String, Option<String>>>,
    compiled: AtomicU64,
    loaded: AtomicU64,
}

impl TraceCache {
    /// An empty, in-memory-only cache.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Backs this cache with a persistent store: first requests consult
    /// the store's `traces` namespace before compiling, and fresh
    /// compilations are written back.
    pub fn attach_store(&self, store: Arc<dyn StoreBackend>) {
        *self.store.lock().expect("trace cache poisoned") = Some(store);
    }

    /// The compiled trace for `laid` (the layout of `profile`'s program,
    /// with `sola_marked` naming whether the SoLA in-page pass ran), from
    /// (in order) the in-memory memo, the attached store, or
    /// [`compile_trace`].
    ///
    /// # Panics
    ///
    /// Panics if a cache mutex is poisoned.
    #[must_use]
    pub fn get(
        &self,
        profile: &BenchmarkProfile,
        laid: &LaidProgram,
        sola_marked: bool,
    ) -> Arc<CompiledTrace> {
        let key: TraceKey = (
            profile.name,
            laid.geom.page_bytes(),
            laid.instrumented,
            sola_marked,
        );
        let mut traces = self.traces.lock().expect("trace cache poisoned");
        if let Some(trace) = traces.get(&key) {
            return Arc::clone(trace);
        }
        let store = self.store.lock().expect("trace cache poisoned").clone();
        let store_key = trace_store_key(profile, laid.geom, laid.instrumented, sola_marked);
        let primed = self
            .pending
            .lock()
            .expect("trace cache poisoned")
            .remove(&store_key);
        let warm = match primed {
            // A batched prefetch already probed the store for this key;
            // a primed `None` is a definite miss, so skip the re-probe.
            Some(answer) => answer.and_then(|text| Self::parse_stored(&text, laid)),
            None => store
                .as_deref()
                .and_then(|s| s.load(NS_TRACES, &store_key))
                .and_then(|text| Self::parse_stored(&text, laid)),
        };
        let trace = match warm {
            Some(warm) => {
                self.loaded.fetch_add(1, Ordering::Relaxed);
                warm
            }
            None => {
                self.compiled.fetch_add(1, Ordering::Relaxed);
                let fresh = compile_trace(laid);
                if let Some(store) = &store {
                    let mut w = RecordWriter::new();
                    fresh.to_record(&mut w);
                    store.save(NS_TRACES, &store_key, &w.finish());
                }
                fresh
            }
        };
        let trace = Arc::new(trace);
        traces.insert(key, Arc::clone(&trace));
        trace
    }

    /// The store key a batched prefetch should probe for the trace of
    /// `profile` laid out at `geom` (see [`trace_store_key`]), or `None`
    /// when that trace is already memoized and a primed answer would
    /// never be consumed.
    ///
    /// # Panics
    ///
    /// Panics if the cache mutex is poisoned.
    #[must_use]
    pub fn prefetch_key(
        &self,
        profile: &BenchmarkProfile,
        geom: PageGeometry,
        instrumented: bool,
        sola_marked: bool,
    ) -> Option<String> {
        let key: TraceKey = (profile.name, geom.page_bytes(), instrumented, sola_marked);
        let traces = self.traces.lock().expect("trace cache poisoned");
        (!traces.contains_key(&key))
            .then(|| trace_store_key(profile, geom, instrumented, sola_marked))
    }

    /// Hands the cache the result of a batched store probe for
    /// `store_key` (see [`Self::prefetch_key`]): `Some(text)` is the
    /// stored record, `None` a definite miss. The next [`Self::get`] whose
    /// layout maps to that key consumes the answer instead of issuing
    /// its own store round trip; the primed record passes the exact same
    /// validation a loaded one would, so corruption still degrades to a
    /// recompile.
    ///
    /// # Panics
    ///
    /// Panics if the cache mutex is poisoned.
    pub fn prime(&self, store_key: String, value: Option<String>) {
        self.pending
            .lock()
            .expect("trace cache poisoned")
            .insert(store_key, value);
    }

    /// Parses and re-validates a stored trace record; any parse,
    /// validation, or shape mismatch against the live layout is a miss
    /// (the caller recompiles and overwrites).
    fn parse_stored(text: &str, laid: &LaidProgram) -> Option<CompiledTrace> {
        let mut r = RecordReader::new(text);
        let trace = CompiledTrace::from_record(&mut r).ok()?;
        r.finish().ok()?;
        trace.validate().ok()?;
        (trace.geom == laid.geom
            && trace.base == laid.base
            && trace.instrumented == laid.instrumented
            && trace.decoded.len() == laid.slots.len())
        .then_some(trace)
    }

    /// How many traces this cache actually compiled (in-memory *and*
    /// store misses).
    #[must_use]
    pub fn compiled(&self) -> u64 {
        self.compiled.load(Ordering::Relaxed)
    }

    /// How many traces were served from the persistent store instead of
    /// being compiled (0 without a store).
    #[must_use]
    pub fn loaded(&self) -> u64 {
        self.loaded.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{generate, GeneratorParams};
    use crate::profiles;
    use crate::walk::Walker;
    use cfr_types::{ArtifactStore, GcPolicy};
    use std::path::PathBuf;

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
            assert_eq!(d.class, instr.class);
            assert_eq!(d.latency, instr.latency());
            assert_eq!(d.page, laid.geom.vpn(laid.addr_of(i)).raw());
        }
        assert_eq!(trace.slot_of(VirtAddr::new(trace.base.raw() - 4)), None);
        assert_eq!(trace.slot_of(trace.addr_of(trace.len())), None);
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

    fn temp_store(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cfr-tracecache-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn cache_compiles_each_layout_once() {
        let cache = TraceCache::new();
        let profile = profiles::mesa();
        let laid = LaidProgram::lay_out(&profile.generate(), PageGeometry::default_4k(), false);
        let a = cache.get(&profile, &laid, false);
        let b = cache.get(&profile, &laid, false);
        assert!(Arc::ptr_eq(&a, &b), "second get must share the first Arc");
        assert_eq!(cache.compiled(), 1);
        // A different layout flavour is a different trace.
        let instr = LaidProgram::lay_out(&profile.generate(), PageGeometry::default_4k(), true);
        let c = cache.get(&profile, &instr, false);
        assert_eq!(cache.compiled(), 2);
        assert_ne!(*c, *a);
        assert_eq!(cache.loaded(), 0, "no store attached");
    }

    #[test]
    fn store_serves_traces_across_caches() {
        let dir = temp_store("warm");
        let profile = profiles::mesa();
        let laid = LaidProgram::lay_out(&profile.generate(), PageGeometry::default_4k(), true);

        let cold = TraceCache::new();
        cold.attach_store(Arc::new(
            ArtifactStore::open(&dir, GcPolicy::unbounded()).unwrap(),
        ));
        let compiled = cold.get(&profile, &laid, false);
        assert_eq!((cold.compiled(), cold.loaded()), (1, 0));

        // A fresh cache over the same directory (= a fresh process) loads
        // instead of compiling, and the trace is identical.
        let warm = TraceCache::new();
        warm.attach_store(Arc::new(
            ArtifactStore::open(&dir, GcPolicy::unbounded()).unwrap(),
        ));
        let loaded = warm.get(&profile, &laid, false);
        assert_eq!((warm.compiled(), warm.loaded()), (0, 1));
        assert_eq!(*loaded, *compiled);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn primed_answers_replace_per_key_store_probes() {
        let profile = profiles::mesa();
        let laid = LaidProgram::lay_out(&profile.generate(), PageGeometry::default_4k(), false);
        let mut w = RecordWriter::new();
        compile_trace(&laid).to_record(&mut w);
        let record = w.finish();
        let key = trace_store_key(&profile, laid.geom, laid.instrumented, false);

        // A primed hit serves warm with no store attached at all — proof
        // the cache consumed the prefetched answer, not a store probe.
        let cache = TraceCache::new();
        let prefetch = |cache: &TraceCache| cache.prefetch_key(&profile, laid.geom, false, false);
        assert_eq!(prefetch(&cache).as_ref(), Some(&key));
        cache.prime(key.clone(), Some(record));
        let trace = cache.get(&profile, &laid, false);
        assert_eq!((cache.compiled(), cache.loaded()), (0, 1));
        assert_eq!(*trace, compile_trace(&laid));
        assert_eq!(prefetch(&cache), None, "memoized traces are not probed");

        // A primed definite miss compiles without consulting the store.
        let cold = TraceCache::new();
        cold.prime(key.clone(), None);
        let _ = cold.get(&profile, &laid, false);
        assert_eq!((cold.compiled(), cold.loaded()), (1, 0));

        // A corrupt primed record degrades to a recompile, like any
        // corrupt stored record.
        let corrupt = TraceCache::new();
        corrupt.prime(key, Some("not a trace".into()));
        let recompiled = corrupt.get(&profile, &laid, false);
        assert_eq!((corrupt.compiled(), corrupt.loaded()), (1, 0));
        assert_eq!(*recompiled, compile_trace(&laid));
    }

    #[test]
    fn corrupt_stored_trace_recompiles() {
        let dir = temp_store("corrupt");
        let profile = profiles::mesa();
        let laid = LaidProgram::lay_out(&profile.generate(), PageGeometry::default_4k(), false);
        let store: Arc<dyn StoreBackend> =
            Arc::new(ArtifactStore::open(&dir, GcPolicy::unbounded()).unwrap());
        let key = trace_store_key(&profile, laid.geom, laid.instrumented, false);
        // A parseable-but-invalid trace (no slots), a parseable trace
        // whose shape mismatches the live layout, and plain garbage: all
        // three degrade to a cold recompile, never wrong output.
        for vandalism in [
            "trace 4096 4194304 0 1 1 1 itargets 0 slots 0",
            "trace 4096 4194304 0 1 1 1 itargets 0 slots 1 ialu - - -",
            "not a trace",
        ] {
            store.save(NS_TRACES, &key, vandalism);
            let cache = TraceCache::new();
            cache.attach_store(Arc::clone(&store));
            let trace = cache.get(&profile, &laid, false);
            assert_eq!(cache.compiled(), 1, "bad record recompiles: {vandalism}");
            assert_eq!(*trace, compile_trace(&laid));
        }
        // The recompile repaired the store.
        let repaired = TraceCache::new();
        repaired.attach_store(Arc::clone(&store));
        let _ = repaired.get(&profile, &laid, false);
        assert_eq!((repaired.compiled(), repaired.loaded()), (0, 1));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
