//! The synthetic program generator.
//!
//! Emits a whole program — functions, basic blocks, loops, calls, indirect
//! jumps, memory references — whose *dynamic* statistics under the
//! [`crate::Walker`] land on the paper's per-benchmark calibration targets
//! (see [`crate::profiles`]). Every knob maps to an observable the paper
//! reports: block length ⇒ dynamic branch fraction; indirect/call weights ⇒
//! statically-analyzable fraction; function span ⇒ in-page-target fraction;
//! hot-set size, call locality and loop dwell ⇒ iL1 miss rate; taken-bias
//! mixture ⇒ branch-predictor accuracy.
//!
//! # Control-flow shape
//!
//! Each function is a forward-flowing chain of basic blocks ending in a
//! return, with **explicit loop segments**: consecutive block runs whose
//! last block conditionally branches back to the segment start. Loop trip
//! counts are geometric with parameterized bias, so dwell time per function
//! visit is bounded in expectation and execution provably keeps reaching
//! calls and returns (no accidental near-infinite nests, which a naive
//! random-back-edge CFG produces).

use crate::isa::{BranchSpec, DataRegion, Instruction, OpClass, RegId};
use crate::program::{Block, BlockId, Function, Program};
use crate::rng::SplitMix64;

/// All generator knobs. See module docs for the observable each drives.
#[derive(Clone, Debug, PartialEq)]
pub struct GeneratorParams {
    /// RNG seed for program *structure* (execution has its own seed).
    pub seed: u64,
    /// Number of functions; function 0 is `main`.
    pub functions: u32,
    /// The first `hot_functions` functions form the hot set.
    pub hot_functions: u32,
    /// Blocks per function, inclusive range.
    pub blocks_per_function: (u32, u32),
    /// Non-terminator instructions per block, inclusive range.
    pub block_len: (u32, u32),
    /// Probability a block starts a loop segment (bounded geometric dwell).
    pub loop_prob: f64,
    /// Loop segment length in blocks, inclusive range.
    pub loop_len: (u32, u32),
    /// Taken bias of loop back-edges; expected trips = 1/(1-bias).
    pub loop_bias: f64,
    /// Probability a function gets an outer loop re-running its whole body.
    pub outer_loop_prob: f64,
    /// Taken bias of the outer back-edge.
    pub outer_bias: f64,
    /// Probability a loop body contains a call site (executed every trip —
    /// the dominant source of dynamic call/return traffic and of the
    /// paper's BRANCH-case page crossings).
    pub loop_call: f64,
    /// Probability that a loop's call site is an *indirect* call (virtual
    /// dispatch in a hot loop — the eon pattern).
    pub loop_icall: f64,
    /// Probability a non-loop, non-final block has *no* terminator.
    pub plain_fallthrough: f64,
    /// Terminator-kind weights for non-loop blocks
    /// (forward conditional, forward jump, call, indirect).
    pub w_cond: f64,
    /// Weight of unconditional forward jumps.
    pub w_jump: f64,
    /// Weight of calls.
    pub w_call: f64,
    /// Weight of indirect jumps.
    pub w_indirect: f64,
    /// Fraction of indirect-jump table entries that stay within the
    /// function (the rest dispatch to other functions' entries).
    pub indirect_local: f64,
    /// Taken bias of forward conditionals (low: error paths rarely taken).
    pub fwd_bias: f64,
    /// Fraction of conditionals given a weak (hard-to-predict) bias.
    pub weak_fraction: f64,
    /// The weak bias value (≈ 0.5–0.65 hurts a bimodal predictor).
    pub weak_bias: f64,
    /// Probability a call targets the hot set.
    pub call_hot_locality: f64,
    /// Fraction of functions that are *leaves* (no outgoing calls, smaller
    /// bodies). Keeps the dynamic call tree subcritical so calls actually
    /// return — without leaves, call chains pin the stack at its depth cap
    /// and returns never execute.
    pub leaf_fraction: f64,
    /// Probability a call site targets a leaf function.
    pub call_leaf: f64,
    /// Blocks per *leaf* function, inclusive range. Leaf dwell time sets the
    /// dynamic call rate: a hot caller loop executes one call per trip, so
    /// `instructions ≈ caller body + leaf dwell` elapse between calls.
    pub leaf_blocks: (u32, u32),
    /// Fraction of instructions that are loads.
    pub load_frac: f64,
    /// Fraction of instructions that are stores.
    pub store_frac: f64,
    /// Fraction of computational instructions that are FP.
    pub fp_frac: f64,
    /// Fraction of computational instructions that are multiplies.
    pub mul_frac: f64,
    /// Memory-reference region mix: probability of stack.
    pub region_stack: f64,
    /// Probability of global (the rest is heap).
    pub region_global: f64,
    /// Global data pages.
    pub global_pages: u16,
    /// Heap arrays.
    pub heap_arrays: u16,
    /// Pages per heap array.
    pub heap_array_pages: u16,
}

impl GeneratorParams {
    /// A small, fast configuration for unit tests: a few functions, small
    /// blocks, every branch kind present.
    #[must_use]
    pub fn small_test() -> Self {
        Self {
            seed: 0xC0FFEE,
            functions: 8,
            hot_functions: 3,
            blocks_per_function: (6, 12),
            block_len: (2, 8),
            loop_prob: 0.25,
            loop_len: (2, 4),
            loop_bias: 0.85,
            outer_loop_prob: 0.3,
            outer_bias: 0.5,
            loop_call: 0.4,
            loop_icall: 0.15,
            plain_fallthrough: 0.2,
            w_cond: 0.5,
            w_jump: 0.1,
            w_call: 0.3,
            w_indirect: 0.1,
            indirect_local: 0.6,
            fwd_bias: 0.12,
            weak_fraction: 0.2,
            weak_bias: 0.6,
            call_hot_locality: 0.8,
            leaf_fraction: 0.5,
            call_leaf: 0.8,
            leaf_blocks: (3, 6),
            load_frac: 0.22,
            store_frac: 0.10,
            fp_frac: 0.2,
            mul_frac: 0.05,
            region_stack: 0.4,
            region_global: 0.3,
            global_pages: 8,
            heap_arrays: 4,
            heap_array_pages: 8,
        }
    }
}

/// Generates a program from `params`.
///
/// The result always passes [`Program::validate`]: functions tile the block
/// array, every function ends in a return, branches only terminate blocks.
///
/// # Panics
///
/// Panics if ranges are empty or weights are all zero.
#[must_use]
pub fn generate(params: &GeneratorParams) -> Program {
    assert!(params.functions >= 1, "need at least main");
    assert!(
        params.blocks_per_function.0 >= 3,
        "functions need >= 3 blocks (body + outer-loop slot + return)"
    );
    let mut rng = SplitMix64::new(params.seed);
    let hot = params.hot_functions.clamp(1, params.functions);

    // Pass 0: classify functions. `main` (0) is never a leaf.
    let is_leaf: Vec<bool> = (0..params.functions)
        .map(|f| f > 0 && rng.chance(params.leaf_fraction))
        .collect();

    // Pass 1: decide block counts so call targets resolve immediately.
    let block_counts: Vec<u32> = (0..params.functions)
        .map(|f| {
            let (lo, hi) = if is_leaf[f as usize] {
                (params.leaf_blocks.0.max(3), params.leaf_blocks.1.max(3))
            } else {
                params.blocks_per_function
            };
            rng.range_inclusive(u64::from(lo), u64::from(hi)) as u32
        })
        .collect();
    let mut first_block = Vec::with_capacity(block_counts.len());
    let mut acc = 0u32;
    for &n in &block_counts {
        first_block.push(acc);
        acc += n;
    }
    let total_blocks = acc;

    // The hot set is *scattered* across the text, as real hot functions
    // are: linkers do not co-locate a program's hot code on one page, and
    // the paper's BRANCH-case page crossings depend on calls leaving the
    // page.
    // Split the hot set into leaves and non-leaves so call sites can always
    // find the kind they want. Positions are scattered: each hot function is
    // the nearest function of the right kind to an evenly-spaced anchor.
    let nearest_of_kind = |anchor: u32, leaf: bool| -> Option<u32> {
        (0..params.functions).find_map(|d| {
            [
                anchor.saturating_sub(d),
                (anchor + d).min(params.functions - 1),
            ]
            .into_iter()
            .find(|&cand| cand > 0 && is_leaf[cand as usize] == leaf)
        })
    };
    let mut hot_leaves = Vec::new();
    let mut hot_nonleaves = Vec::new();
    for i in 0..hot {
        let anchor = (1 + i * (params.functions - 1).max(1) / hot).min(params.functions - 1);
        if let Some(f) = nearest_of_kind(anchor, i % 2 == 0) {
            if i % 2 == 0 {
                hot_leaves.push(f);
            } else {
                hot_nonleaves.push(f);
            }
        }
    }
    if hot_leaves.is_empty() {
        hot_leaves = hot_nonleaves.clone();
    }
    if hot_nonleaves.is_empty() {
        hot_nonleaves = hot_leaves.clone();
    }

    // `force_leaf`: hot in-loop call sites always target leaves — their
    // calls execute once per trip, so letting them recurse into other
    // callers makes the dynamic call tree supercritical (depth pins at the
    // walker's cap and call/return counts diverge).
    let pick_callee = |rng: &mut SplitMix64, caller: u32, force_leaf: bool| -> u32 {
        // Prefer leaves (subcritical call tree) and the hot set; never self
        // (avoids trivial self-recursion; cycles through other functions
        // remain possible and are depth-capped by the walker).
        let want_leaf = force_leaf || rng.chance(params.call_leaf);
        for _ in 0..16 {
            let f = if rng.chance(params.call_hot_locality) {
                let list = if want_leaf {
                    &hot_leaves
                } else {
                    &hot_nonleaves
                };
                list[rng.below(list.len() as u64) as usize]
            } else {
                rng.below(u64::from(params.functions)) as u32
            };
            if f != caller && (f as usize) < is_leaf.len() {
                return f;
            }
        }
        (caller + 1) % params.functions
    };

    let mut blocks = Vec::with_capacity(total_blocks as usize);
    let mut functions = Vec::with_capacity(params.functions as usize);

    for (f, &nb) in block_counts.iter().enumerate() {
        let f = f as u32;
        functions.push(Function {
            first_block: first_block[f as usize],
            n_blocks: nb,
        });
        let global_id = |l: u32| BlockId(first_block[f as usize] + l);
        // Leaves are quick kernels: no whole-body outer loop, at most one
        // inner loop, and bounded trip counts — their dwell time is what
        // sets the program's dynamic call rate.
        let leaf = is_leaf[f as usize];
        let has_outer = !leaf && rng.chance(params.outer_loop_prob);
        // Reserve the last block for the return, and (optionally) the one
        // before it for the outer back-edge.
        let body_end = if has_outer && nb >= 3 { nb - 2 } else { nb - 1 };

        // Choose loop segments within [0, body_end).
        // loop_back_to[l] = Some(start) if block l closes a loop to `start`;
        // segment_end[l] = Some(end) if block l is *inside* a segment whose
        // back-edge is at `end` (interior control flow stays confined so
        // loops really iterate).
        let mut loop_back_to = vec![None::<u32>; nb as usize];
        let mut segment_end = vec![None::<u32>; nb as usize];
        #[derive(Clone, Copy, PartialEq)]
        enum Forced {
            No,
            Call,
            IndirectCall,
        }
        let mut forced_call = vec![Forced::No; nb as usize];
        let mut loops_placed = 0u32;
        let mut l = 0u32;
        while l + 1 < body_end {
            if leaf && loops_placed >= 1 {
                break;
            }
            let max_len = (body_end - l).min(params.loop_len.1);
            if max_len >= params.loop_len.0.max(2) && rng.chance(params.loop_prob) {
                let len = rng
                    .range_inclusive(u64::from(params.loop_len.0.max(2)), u64::from(max_len))
                    as u32;
                let end = l + len - 1;
                loop_back_to[end as usize] = Some(l);
                loops_placed += 1;
                for inner in l..end {
                    segment_end[inner as usize] = Some(end);
                }
                // Hot call site inside the loop body, executed every trip.
                if !leaf && rng.chance(params.loop_call) {
                    let site = l + rng.below(u64::from(len - 1)) as u32;
                    forced_call[site as usize] = if rng.chance(params.loop_icall) {
                        Forced::IndirectCall
                    } else {
                        Forced::Call
                    };
                }
                l += len;
            } else {
                l += 1;
            }
        }

        for local in 0..nb {
            let body_len = rng
                .range_inclusive(u64::from(params.block_len.0), u64::from(params.block_len.1))
                as usize;
            let mut instrs = Vec::with_capacity(body_len + 1);
            for _ in 0..body_len {
                instrs.push(gen_body_instr(&mut rng, params));
            }

            let terminator: Option<BranchSpec> = if local == nb - 1 {
                Some(BranchSpec::ret())
            } else if has_outer && local == nb - 2 {
                // Outer loop: re-run the whole function body.
                Some(BranchSpec::conditional(global_id(0), params.outer_bias))
            } else if let Some(start) = loop_back_to[local as usize] {
                // Loop back-edge, with per-site jitter so loops differ.
                // Leaf kernels get bounded trip counts (their dwell sets
                // the dynamic call rate).
                let jitter = (rng.next_f64() - 0.5) * 0.06;
                let cap = if leaf { 0.85 } else { 0.98 };
                let bias = (params.loop_bias + jitter).clamp(0.5, cap);
                Some(BranchSpec::conditional(global_id(start), bias))
            } else if forced_call[local as usize] != Forced::No {
                if forced_call[local as usize] == Forced::IndirectCall {
                    let n_targets = rng.range_inclusive(2, 5) as usize;
                    let ts = (0..n_targets)
                        .map(|_| {
                            let callee = pick_callee(&mut rng, f, true);
                            BlockId(first_block[callee as usize])
                        })
                        .collect();
                    Some(BranchSpec::indirect_call(ts))
                } else {
                    let callee = pick_callee(&mut rng, f, true);
                    Some(BranchSpec::call(BlockId(first_block[callee as usize])))
                }
            } else if rng.chance(params.plain_fallthrough) {
                None
            } else {
                // Leaves make no calls; their indirect dispatch stays local.
                let weights = if leaf {
                    [
                        params.w_cond + params.w_call,
                        params.w_jump,
                        0.0,
                        params.w_indirect,
                    ]
                } else {
                    [
                        params.w_cond,
                        params.w_jump,
                        params.w_call,
                        params.w_indirect,
                    ]
                };
                // Forward targets skip the fall-through block so a taken
                // branch actually moves. Inside a loop segment they stay
                // confined to it (a `continue`-like hop); elsewhere they
                // range over the rest of the function.
                let seg_end = segment_end[local as usize];
                let fwd = |rng: &mut SplitMix64| -> u32 {
                    let hi = seg_end.unwrap_or(nb - 1);
                    let lo = (local + 2).min(hi);
                    rng.range_inclusive(u64::from(lo), u64::from(hi)) as u32
                };
                Some(match rng.pick_weighted(&weights) {
                    0 => {
                        let bias = if rng.chance(params.weak_fraction) {
                            params.weak_bias
                        } else {
                            params.fwd_bias
                        };
                        BranchSpec::conditional(global_id(fwd(&mut rng)), bias)
                    }
                    1 => BranchSpec::jump(global_id(fwd(&mut rng))),
                    2 => {
                        let callee = pick_callee(&mut rng, f, false);
                        BranchSpec::call(BlockId(first_block[callee as usize]))
                    }
                    _ => {
                        // Indirect control: either a local switch dispatch
                        // (indirect jump over forward blocks) or a virtual
                        // call over candidate function entries.
                        let n_targets = rng.range_inclusive(2, 5) as usize;
                        if leaf || rng.chance(params.indirect_local) {
                            let ts = (0..n_targets).map(|_| global_id(fwd(&mut rng))).collect();
                            BranchSpec::indirect(ts)
                        } else {
                            let ts = (0..n_targets)
                                .map(|_| {
                                    let callee = pick_callee(&mut rng, f, false);
                                    BlockId(first_block[callee as usize])
                                })
                                .collect();
                            BranchSpec::indirect_call(ts)
                        }
                    }
                })
            };

            if let Some(spec) = terminator {
                let cond_src = spec.kind.conditional().then(|| RegId(rng.below(32) as u8));
                instrs.push(Instruction::branch(spec, cond_src));
            }
            blocks.push(Block { instrs });
        }
    }

    let program = Program {
        blocks,
        functions,
        global_pages: params.global_pages,
        heap_arrays: params.heap_arrays,
        heap_array_pages: params.heap_array_pages,
    };
    debug_assert_eq!(program.validate(), Ok(()));
    program
}

fn gen_body_instr(rng: &mut SplitMix64, p: &GeneratorParams) -> Instruction {
    let r = rng.next_f64();
    if r < p.load_frac {
        let region = gen_region(rng, p);
        Instruction::load(
            region,
            RegId(rng.below(32) as u8),
            RegId(rng.below(32) as u8),
        )
    } else if r < p.load_frac + p.store_frac {
        let region = gen_region(rng, p);
        Instruction::store(
            region,
            RegId(rng.below(32) as u8),
            RegId(rng.below(32) as u8),
        )
    } else {
        let fp = rng.chance(p.fp_frac);
        let mul = rng.chance(p.mul_frac);
        let class = match (fp, mul) {
            (false, false) => OpClass::IntAlu,
            (false, true) => OpClass::IntMul,
            (true, false) => OpClass::FpAlu,
            (true, true) => OpClass::FpMul,
        };
        let base = if fp { 32 } else { 0 };
        let reg = |rng: &mut SplitMix64| RegId(base + rng.below(32) as u8);
        Instruction::alu(class, [Some(reg(rng)), Some(reg(rng))], Some(reg(rng)))
    }
}

fn gen_region(rng: &mut SplitMix64, p: &GeneratorParams) -> DataRegion {
    let r = rng.next_f64();
    if r < p.region_stack {
        DataRegion::Stack
    } else if r < p.region_stack + p.region_global {
        DataRegion::Global(rng.below(u64::from(p.global_pages.max(1))) as u16)
    } else {
        DataRegion::Heap(rng.below(u64::from(p.heap_arrays.max(1))) as u16)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{BranchKind, BranchTarget};

    #[test]
    fn generated_program_validates() {
        let p = generate(&GeneratorParams::small_test());
        assert_eq!(p.validate(), Ok(()));
        assert_eq!(p.functions.len(), 8);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate(&GeneratorParams::small_test());
        let b = generate(&GeneratorParams::small_test());
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let mut params = GeneratorParams::small_test();
        let a = generate(&params);
        params.seed += 1;
        let b = generate(&params);
        assert_ne!(a, b);
    }

    #[test]
    fn every_function_ends_with_return() {
        let p = generate(&GeneratorParams::small_test());
        for f in &p.functions {
            let last = &p.blocks[(f.first_block + f.n_blocks - 1) as usize];
            let t = last.terminator().expect("terminator");
            assert_eq!(t.branch.as_ref().unwrap().kind, BranchKind::Return);
        }
    }

    #[test]
    fn calls_never_target_self_entry() {
        let p = generate(&GeneratorParams::small_test());
        for (bi, b) in p.blocks.iter().enumerate() {
            if let Some(t) = b.terminator() {
                let spec = t.branch.as_ref().unwrap();
                if spec.kind == BranchKind::Call {
                    let caller = p.function_of(BlockId(bi as u32));
                    if let BranchTarget::Block(target) = &spec.target {
                        let callee = p.function_of(*target);
                        assert_ne!(caller, callee, "self-recursive call generated");
                    }
                }
            }
        }
    }

    #[test]
    fn all_branch_kinds_appear() {
        let p = generate(&GeneratorParams::small_test());
        let mut cond = false;
        let mut jump = false;
        let mut call = false;
        let mut ret = false;
        let mut ind = false;
        for b in &p.blocks {
            if let Some(t) = b.terminator() {
                match t.branch.as_ref().unwrap().kind {
                    BranchKind::Conditional => cond = true,
                    BranchKind::Jump => jump = true,
                    BranchKind::Call => call = true,
                    BranchKind::Return => ret = true,
                    BranchKind::IndirectJump | BranchKind::IndirectCall => ind = true,
                }
            }
        }
        assert!(cond && jump && call && ret && ind, "missing a branch kind");
    }

    /// Back-edges only arise from the explicit loop machinery, and loops
    /// never overlap: each back-edge jumps to a block no earlier than the
    /// previous loop's end.
    #[test]
    fn loops_are_well_nested_segments() {
        let p = generate(&GeneratorParams::small_test());
        for f in &p.functions {
            let mut prev_end = f.first_block;
            for l in 0..f.n_blocks {
                let b = &p.blocks[(f.first_block + l) as usize];
                let Some(t) = b.terminator() else { continue };
                let spec = t.branch.as_ref().unwrap();
                if let (BranchKind::Conditional, BranchTarget::Block(target)) =
                    (&spec.kind, &spec.target)
                {
                    if target.0 <= f.first_block + l {
                        // A back-edge: target must not reach into an earlier
                        // loop (segments are disjoint), except the outer
                        // loop which targets the entry.
                        assert!(
                            target.0 == f.first_block || target.0 >= prev_end,
                            "overlapping loops"
                        );
                        prev_end = f.first_block + l + 1;
                    }
                }
            }
        }
    }

    #[test]
    fn memory_mix_roughly_matches_fractions() {
        let p = generate(&GeneratorParams::small_test());
        let total = p.static_instructions() as f64;
        let loads = p
            .blocks
            .iter()
            .flat_map(|b| &b.instrs)
            .filter(|i| i.class == OpClass::Load)
            .count() as f64;
        let f = loads / total;
        assert!((0.1..0.35).contains(&f), "load fraction {f}");
    }

    #[test]
    #[should_panic(expected = "at least main")]
    fn zero_functions_panics() {
        let mut p = GeneratorParams::small_test();
        p.functions = 0;
        let _ = generate(&p);
    }
}
