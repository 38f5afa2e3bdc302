//! The cycle-level out-of-order pipeline.
//!
//! Trace-driven in the sim-outorder style: the [`Walker`] supplies the
//! architectural path; the fetch engine follows *predictions*, running down
//! wrong paths (which cost real iL1/iTLB energy) until the mispredicted
//! branch resolves, then flushes and redirects.
//!
//! Modeling notes (fidelity matches what the paper measures):
//!
//! - One iL1 access and one translation event per fetched instruction, as
//!   sim-outorder charges them.
//! - The iL1 is behaviourally indexed by virtual address in all three
//!   addressing modes; PI-PT/VI-PT/VI-VT differ in *when the translation
//!   happens and what it costs* (latency/energy via [`FetchTranslator`]),
//!   not in hit/miss behaviour — the paper's mechanisms "do not affect iL1
//!   and L2 hits or misses".
//! - Register dependencies use an infinite-rename scoreboard (ready-cycle
//!   per architectural register); memory dependencies are not modeled.
//! - Two memory ports (sim-outorder's default; the paper's Table 1 lists
//!   only the ALU mix).
//!
//! The RUU is one window of [`WINDOW`] entries: the instruction decoded
//! `seq`-th lives at slot `seq % 64` until it commits or is flushed. Two
//! `u64` masks hold one bit per slot, `pending` for the entries still to
//! issue and `inflight` for the issued ones still executing; the issue and
//! completion passes walk their mask oldest-first by rotating it so the
//! head's slot is bit 0. A pass costs one step per set bit, and most
//! cycles skip both passes behind their wake-time gates.

use cfr_mem::{AccessKind, Cache, Dram, PageTable, Tlb};

use cfr_types::{PageGeometry, Protection, VirtAddr, INSTRUCTION_BYTES};
use cfr_workload::{BranchKind, CompiledTrace, DecodedInstr, LaidProgram, OpClass, RegId};

use crate::backend::{CompiledBackend, ExecutionBackend, InterpBackend};
use crate::bpred::BranchPredictor;
use crate::config::CpuConfig;
use crate::ring::Ring;
use crate::stats::CpuStats;
use crate::translate::{FetchEvent, FetchKind, FetchTranslator, TranslationOutcome};

/// Memory ports (sim-outorder default, not in the paper's Table 1).
const MEM_PORTS: u32 = 2;

/// Safety valve: a run may take at most this many cycles per committed
/// instruction before the pipeline declares itself wedged.
const MAX_CPI: u64 = 1000;

/// Capacity of the instruction window, one bit of a `u64` mask per slot:
/// [`Pipeline::with_backend`] rejects a larger `ruu_size`.
const WINDOW: usize = 64;

/// Why a [`Pipeline::run_slice`] call returned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SliceEnd {
    /// The commit target was reached; this process is done.
    Finished,
    /// The quantum expired first; the pipeline is frozen mid-flight and
    /// another `run_slice` call resumes it exactly where it stopped.
    Quantum,
}

/// What a right-path branch carries from fetch to its resolution, so
/// predictor training never re-reads the instruction slot.
#[derive(Clone, Copy, Debug)]
struct FetchedBranch {
    pc: VirtAddr,
    target: VirtAddr,
    recovery_slot: usize,
    mispredicted: bool,
    taken: bool,
    kind: BranchKind,
}

/// Sentinel for [`FetchedInstr::mem_addr`]: no data address travels with
/// this instruction. Real addresses stay below the region bases
/// (`< 2^60`), so the all-ones value never collides — and the raw `u64`
/// keeps the record 8 bytes slimmer than an `Option<VirtAddr>`.
const NO_MEM_ADDR: u64 = u64::MAX;

/// One fetched instruction: the slot's decode metadata, read at fetch,
/// plus what the architectural step added. The [`FetchedBranch`] payload
/// of a right-path branch rides in a parallel side ring
/// ([`Pipeline::fq_branches`]): ~80% of instructions are not branches.
#[derive(Clone, Copy, Debug)]
struct FetchedInstr {
    d: DecodedInstr,
    wrong_path: bool,
    /// Right-path branch: a [`FetchedBranch`] record travels in lockstep
    /// through [`Pipeline::fq_branches`]. (Wrong-path branches are
    /// predicted but never recorded — they can never resolve.)
    has_branch: bool,
    /// Data address of a right-path load/store, or [`NO_MEM_ADDR`].
    mem_addr: u64,
}

/// [`Ring`] and window fill placeholder — an arbitrary dead value, never
/// read.
const NO_INSTR: FetchedInstr = FetchedInstr {
    d: DecodedInstr {
        class: OpClass::IntAlu,
        srcs: [DecodedInstr::NO_REG; 2],
        dst: DecodedInstr::NO_REG,
        latency: 0,
        branch: None,
        in_page_hint: false,
        boundary: false,
    },
    wrong_path: false,
    has_branch: false,
    mem_addr: NO_MEM_ADDR,
};

/// [`Ring`] and window fill placeholder for branch payloads.
const NO_BRANCH: FetchedBranch = FetchedBranch {
    pc: VirtAddr::new(0),
    target: VirtAddr::new(0),
    recovery_slot: 0,
    mispredicted: false,
    taken: false,
    kind: BranchKind::Jump,
};

/// One RUU entry.
#[derive(Clone, Copy, Debug)]
struct Entry {
    instr: FetchedInstr,
    /// While pending: a provable earliest cycle this entry could issue.
    /// Operand ready times can only move it *earlier* when a
    /// shorter-latency writer overwrites `reg_ready`; [`Pipeline::issue`]
    /// detects that (rare) decrease and clamps every wake time, so a
    /// sleeping entry is never checked later than an every-cycle scan
    /// would have issued it.
    wake_at: u64,
    /// The cycle the result is ready: set at issue (and at decode, for a
    /// branch placeholder).
    done_at: u64,
    /// Complete: the result is ready at `done_at`.
    done: bool,
    /// The payload of a right-path branch (`instr.has_branch`), else
    /// [`NO_BRANCH`].
    branch: FetchedBranch,
}

/// [`Pipeline::window`] fill placeholder.
const NO_ENTRY: Entry = Entry {
    instr: NO_INSTR,
    wake_at: 0,
    done_at: 0,
    done: false,
    branch: NO_BRANCH,
};

/// The window slot of the entry decoded `seq`-th.
#[inline(always)]
fn slot(seq: u64) -> usize {
    (seq % WINDOW as u64) as usize
}

/// `slot(seq)`'s bit in a window mask.
#[inline(always)]
fn bit(seq: u64) -> u64 {
    1 << slot(seq)
}

/// The entries whose bits are set in `mask`, as sequence numbers, oldest
/// first: rotating the mask by the head's slot puts the head at bit 0.
#[inline(always)]
fn oldest_first(mask: u64, head_seq: u64) -> impl Iterator<Item = u64> {
    let mut ages = mask.rotate_right(slot(head_seq) as u32);
    std::iter::from_fn(move || {
        (ages != 0).then(|| {
            let age = ages.trailing_zeros();
            ages &= ages - 1;
            head_seq + u64::from(age)
        })
    })
}

#[inline(always)]
fn is_mem(class: OpClass) -> bool {
    matches!(class, OpClass::Load | OpClass::Store)
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum PendingKind {
    Sequential,
    BranchTarget {
        in_page_marked: bool,
        from_boundary: bool,
    },
    Recovery,
}

/// The out-of-order core, generic over its [`ExecutionBackend`] — the
/// per-fetch decode and architectural-step calls are direct (and
/// inlinable) per backend, never virtual.
pub struct Pipeline<B: ExecutionBackend> {
    backend: B,
    cfg: CpuConfig,
    geom: PageGeometry,
    predictor: BranchPredictor,
    il1: Cache,
    dl1: Cache,
    l2: Cache,
    dram: Dram,
    dtlb: Tlb,
    page_table: PageTable,

    fetch_q: Ring<FetchedInstr>,
    /// Branch payloads of fetch-queue entries with
    /// [`FetchedInstr::has_branch`], in fetch (FIFO) order — decode
    /// consumes the front record when it dequeues a branch-carrying
    /// instruction. Cleared together with `fetch_q` on flush.
    fq_branches: Ring<FetchedBranch>,
    /// The RUU: entry `seq` at `slot(seq)`, for `head_seq <= seq <
    /// tail_seq`.
    window: Box<[Entry; WINDOW]>,
    /// Sequence number of the oldest entry.
    head_seq: u64,
    /// Sequence number the next decoded entry gets.
    tail_seq: u64,
    /// Slots of the entries that have not issued.
    pending: u64,
    /// Slots of the issued entries that have not completed.
    inflight: u64,
    /// Earliest `done_at` among in-flight entries (`u64::MAX` when none):
    /// the completion pass runs only on cycles that can complete
    /// something, so quiet cycles are O(1). May be stale-low after a
    /// flush, which only costs one empty recheck.
    next_done_at: u64,
    /// Issue gate: no cycle before this can issue anything, so the issue
    /// pass is skipped entirely. Sound because operand readiness
    /// (`reg_ready`) changes only inside [`Pipeline::issue`] itself, and
    /// a pass that issued nothing left every functional unit free — so a
    /// blocked window stays blocked until the earliest wake time that
    /// pass observed. Newly decoded entries re-arm the gate.
    next_issue_at: u64,
    lsq_used: usize,
    /// Ready cycle per architectural register, plus one extra sentinel
    /// slot (index [`DecodedInstr::NO_REG`]) that stays 0 forever —
    /// absent operands read it, keeping the readiness check branchless.
    reg_ready: [u64; RegId::COUNT + 1],

    fetch_slot: usize,
    wrong_path: bool,
    fetch_stall_until: u64,
    pending_kind: PendingKind,
    /// Virtual page number of the most recently fetched PC.
    last_fetch_page: u64,

    cycle: u64,
    stats: CpuStats,
}

impl<'p> Pipeline<InterpBackend<'p>> {
    /// Builds a pipeline over a laid-out program (the reference
    /// interpreter backend). `seed` drives the architectural walker
    /// (branch outcomes, data addresses) — the same seed across
    /// strategies compares them on the identical instruction stream.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.ruu_size` exceeds the 64-entry window.
    #[must_use]
    pub fn new(prog: &'p LaidProgram, cfg: CpuConfig, seed: u64) -> Self {
        Self::with_backend(InterpBackend::new(prog, seed), cfg)
    }
}

impl<'t> Pipeline<CompiledBackend<'t>> {
    /// Builds a pipeline over a pre-decoded compiled trace. Byte-identical
    /// to [`Pipeline::new`] over the trace's source program with the same
    /// seed and config.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.ruu_size` exceeds the 64-entry window.
    #[must_use]
    pub fn compiled(trace: &'t CompiledTrace, cfg: CpuConfig, seed: u64) -> Self {
        Self::with_backend(CompiledBackend::new(trace, seed), cfg)
    }
}

impl<B: ExecutionBackend> Pipeline<B> {
    /// Builds a pipeline over an arbitrary execution backend.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.ruu_size` exceeds the 64-entry window.
    #[must_use]
    pub fn with_backend(backend: B, cfg: CpuConfig) -> Self {
        assert!(
            cfg.ruu_size <= WINDOW,
            "ruu_size {} exceeds the {WINDOW}-entry instruction window",
            cfg.ruu_size
        );
        let entry = backend.entry_slot();
        let entry_page = backend.page_of(entry);
        Self {
            backend,
            geom: cfg.geometry,
            predictor: BranchPredictor::new(cfg.predictor),
            il1: Cache::new(cfg.il1),
            dl1: Cache::new(cfg.dl1),
            l2: Cache::new(cfg.l2),
            dram: Dram::new(cfg.dram),
            dtlb: Tlb::new(cfg.dtlb),
            page_table: PageTable::new(),
            fetch_q: Ring::with_capacity(cfg.fetch_queue, NO_INSTR),
            fq_branches: Ring::with_capacity(cfg.fetch_queue, NO_BRANCH),
            window: Box::new([NO_ENTRY; WINDOW]),
            head_seq: 0,
            tail_seq: 0,
            pending: 0,
            inflight: 0,
            next_done_at: u64::MAX,
            next_issue_at: 0,
            lsq_used: 0,
            reg_ready: [0; RegId::COUNT + 1],
            fetch_slot: entry,
            wrong_path: false,
            fetch_stall_until: 0,
            pending_kind: PendingKind::Sequential,
            last_fetch_page: entry_page,
            cycle: 0,
            cfg,
            stats: CpuStats::default(),
        }
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> &CpuStats {
        &self.stats
    }

    /// Current cycle.
    #[must_use]
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// The page table the fetch path and the dTLB walk.
    #[must_use]
    pub fn page_table(&self) -> &PageTable {
        &self.page_table
    }

    /// Runs until `max_commits` instructions have committed.
    ///
    /// Generic over the translator so every concrete strategy gets its own
    /// monomorphized copy of the fetch loop — the per-fetch
    /// [`FetchTranslator::on_fetch`] call is direct (and inlinable)
    /// instead of virtual. `T` may be unsized, so callers holding a
    /// `&mut dyn FetchTranslator` pass it straight in.
    ///
    /// # Panics
    ///
    /// Panics if the pipeline wedges (cycles exceed `1000 × max_commits`),
    /// which indicates a simulator bug rather than a slow workload.
    pub fn run<T: FetchTranslator + ?Sized>(&mut self, translator: &mut T, max_commits: u64) {
        self.run_slice(translator, max_commits, u64::MAX);
        self.finalize_stats();
    }

    /// Runs until `max_commits` instructions have committed **or** the
    /// cycle clock reaches `quantum_end`, whichever comes first — the
    /// scheduling primitive a time-sliced multiprogrammed scenario needs.
    /// All pipeline state (fetch queue, RUU, in-flight memory ops, branch
    /// history) is preserved across slices, exactly as a context switch
    /// freezes a core; resuming simply continues the loop. With
    /// `quantum_end == u64::MAX` this is [`Pipeline::run`] minus the final
    /// stats snapshot (call [`Pipeline::finalize_stats`] after the last
    /// slice).
    ///
    /// # Panics
    ///
    /// Panics if the pipeline wedges (see [`Pipeline::run`]).
    pub fn run_slice<T: FetchTranslator + ?Sized>(
        &mut self,
        translator: &mut T,
        max_commits: u64,
        quantum_end: u64,
    ) -> SliceEnd {
        let cycle_cap = self
            .cycle
            .saturating_add(
                (max_commits - self.stats.committed.min(max_commits)).saturating_mul(MAX_CPI),
            )
            .saturating_add(1_000_000);
        while self.stats.committed < max_commits && self.cycle < quantum_end {
            // Every stage is inlined here, into each translator's copy of
            // the loop. The stages that do not depend on the translator
            // are `#[inline(always)]`: once a second translator type
            // instantiates the loop (a recorded run's `Recorder`), the
            // compiler would otherwise call them out of line, which made
            // a scenario sweep about 7% slower.
            let did_commit = self.commit(max_commits);
            if self.stats.committed >= max_commits {
                break;
            }
            let did_resolve = self.resolve_completions(translator);
            let did_issue = self.issue();
            let did_decode = self.decode();
            let did_fetch = self.fetch(translator);
            if did_commit || did_resolve || did_issue || did_decode || did_fetch {
                self.cycle += 1;
            } else {
                // Nothing moved this cycle, and by induction nothing can
                // move until one of the stage wake times arrives: commit
                // waits on the head's completion, resolution on
                // `next_done_at`, issue on its gate, fetch on its stall —
                // and decode only ever becomes able after one of those
                // acts. Jump straight there; every subsequent action lands
                // on the same cycle number it would have, so statistics
                // (including `cycles`) are byte-identical. Stall-heavy
                // runs (DRAM waits, 50-cycle TLB walks) skip the idle
                // cycles entirely instead of re-checking five gates each.
                let mut wake = u64::MAX;
                let head = &self.window[slot(self.head_seq)];
                if self.head_seq != self.tail_seq && head.done {
                    wake = wake.min(head.done_at);
                }
                if self.inflight != 0 {
                    wake = wake.min(self.next_done_at);
                }
                if self.pending != 0 {
                    wake = wake.min(self.next_issue_at);
                }
                if self.fetch_q.len() < self.cfg.fetch_queue {
                    wake = wake.min(self.fetch_stall_until);
                }
                // `wake == u64::MAX` means a wedged pipeline; fall back to
                // single-stepping so the cycle-cap assert below reports it.
                // A quantum boundary caps the jump: the slice ends exactly
                // at `quantum_end`, never beyond it (the loop condition
                // guarantees `quantum_end > cycle`, so progress holds).
                self.cycle = wake
                    .max(self.cycle + 1)
                    .min(self.cycle + MAX_CPI)
                    .min(quantum_end);
            }
            assert!(
                self.cycle < cycle_cap,
                "pipeline wedged: {} commits in {} cycles",
                self.stats.committed,
                self.cycle
            );
        }
        if self.stats.committed >= max_commits {
            SliceEnd::Finished
        } else {
            SliceEnd::Quantum
        }
    }

    /// Snapshots the memory-hierarchy counters (and the final cycle count)
    /// into [`Pipeline::stats`]. [`Pipeline::run`] does this implicitly; a
    /// slice-driven caller does it once, after the last slice.
    pub fn finalize_stats(&mut self) {
        self.stats.cycles = self.cycle;
        self.stats.il1 = *self.il1.stats();
        self.stats.dl1 = *self.dl1.stats();
        self.stats.l2 = *self.l2.stats();
        self.stats.dtlb = *self.dtlb.stats();
    }

    /// Advances the pipeline's cycle clock to (at least) `cycle` — how a
    /// scheduler accounts wall-clock that passed while this pipeline was
    /// switched out (other processes' slices, context-switch and shootdown
    /// penalties). Monotonic: never moves the clock backwards.
    pub fn set_cycle(&mut self, cycle: u64) {
        self.cycle = self.cycle.max(cycle);
    }

    /// Mutable access to the dTLB — a scheduler migrates the (single,
    /// shared) hardware dTLB between per-process pipelines on a context
    /// switch, applying its ASID or flush policy in between.
    pub fn dtlb_mut(&mut self) -> &mut Tlb {
        &mut self.dtlb
    }

    // ---- commit ------------------------------------------------------

    /// Returns whether anything committed this cycle.
    #[inline(always)]
    fn commit(&mut self, max_commits: u64) -> bool {
        let before = self.stats.committed;
        for _ in 0..self.cfg.commit_width {
            if self.stats.committed >= max_commits || self.head_seq == self.tail_seq {
                break;
            }
            let seq = self.head_seq;
            let e = &self.window[slot(seq)];
            if !e.done || e.done_at > self.cycle {
                break;
            }
            debug_assert!(!e.instr.wrong_path, "wrong-path instruction at commit");
            debug_assert_eq!(self.inflight & bit(seq), 0, "in-flight entry at commit");
            let d = e.instr.d;
            // A branch placeholder is complete from decode on, so it may
            // commit without ever having issued.
            self.pending &= !bit(seq);
            self.head_seq += 1;
            if is_mem(d.class) {
                self.lsq_used -= 1;
            }
            if d.boundary {
                self.stats.boundary_branches += 1;
            }
            self.stats.committed += 1;
        }
        self.stats.committed != before
    }

    // ---- execute completion & branch resolution ----------------------

    /// Returns whether the completion pass ran (conservatively `true`
    /// whenever the quiet-cycle gate opened, even if a stale-low
    /// `next_done_at` meant nothing actually completed).
    fn resolve_completions<T: FetchTranslator + ?Sized>(&mut self, translator: &mut T) -> bool {
        // Quiet-cycle gate: nothing in flight can complete before
        // `next_done_at`, so most cycles return here in O(1).
        if self.next_done_at > self.cycle || self.inflight == 0 {
            return false;
        }
        let cycle = self.cycle;
        let mut next_done = u64::MAX;
        let mut mispredicted = None;
        // Process completions oldest-first: predictor training order is
        // architectural state, and the oldest mispredict wins.
        for seq in oldest_first(self.inflight, self.head_seq) {
            let e = &mut self.window[slot(seq)];
            if e.done_at > cycle {
                next_done = next_done.min(e.done_at);
                continue;
            }
            self.inflight &= !bit(seq);
            e.done = true;
            if e.instr.has_branch {
                // Train the predictor at resolution.
                let b = e.branch;
                self.predictor.update(b.pc, b.kind, b.taken, b.target);
                if b.mispredicted && mispredicted.is_none() {
                    mispredicted = Some(seq);
                }
            }
        }
        self.next_done_at = next_done;
        if let Some(seq) = mispredicted {
            let e = &self.window[slot(seq)];
            let (done_at, recovery) = (e.done_at, e.branch.recovery_slot);
            // Flush everything younger (by construction it is
            // wrong-path), freeing its LSQ slots.
            let mut flushed = 0;
            for young in seq + 1..self.tail_seq {
                flushed |= bit(young);
                if is_mem(self.window[slot(young)].instr.d.class) {
                    self.lsq_used -= 1;
                }
            }
            self.pending &= !flushed;
            self.inflight &= !flushed;
            self.tail_seq = seq + 1;
            self.fetch_q.clear();
            self.fq_branches.clear();
            self.wrong_path = false;
            self.fetch_slot = recovery;
            self.pending_kind = PendingKind::Recovery;
            self.fetch_stall_until = self
                .fetch_stall_until
                .max(done_at + u64::from(self.cfg.mispredict_penalty));
            translator.on_mispredict();
        }
        true
    }

    // ---- issue -------------------------------------------------------

    /// Returns whether anything issued this cycle.
    #[inline(always)]
    fn issue(&mut self) -> bool {
        // Event gate: a previous pass proved nothing can issue before
        // `next_issue_at` (see the field's invariant).
        if self.cycle < self.next_issue_at {
            return false;
        }
        let mut issued = 0usize;
        let mut hit_width_limit = false;
        // Earliest wake among entries that stay pending — only
        // meaningful when nothing issues.
        let mut next_wake = u64::MAX;
        // Set when a shorter-latency writer moved a register's ready time
        // *backwards*: cached wake times may now be too late.
        let mut ready_decreased = false;
        let mut fu = [0u32; 5]; // IntAlu, IntMul, FpAlu, FpMul, Mem
        let cycle = self.cycle;
        // The pending entries in age order: sleeping entries cost a
        // single compare, the rest keep an updated wake time.
        for seq in oldest_first(self.pending, self.head_seq) {
            if issued >= self.cfg.issue_width {
                hit_width_limit = true;
                break;
            }
            let e = &mut self.window[slot(seq)];
            if e.wake_at > cycle {
                next_wake = next_wake.min(e.wake_at);
                continue;
            }
            let d = e.instr.d;
            let ready_at =
                self.reg_ready[usize::from(d.srcs[0])].max(self.reg_ready[usize::from(d.srcs[1])]);
            if ready_at > cycle {
                next_wake = next_wake.min(ready_at);
                e.wake_at = ready_at;
                continue;
            }
            let (fu_idx, fu_limit) = match d.class {
                OpClass::IntAlu | OpClass::Branch => (0, self.cfg.int_alu),
                OpClass::IntMul => (1, self.cfg.int_mul),
                OpClass::FpAlu => (2, self.cfg.fp_alu),
                OpClass::FpMul => (3, self.cfg.fp_mul),
                OpClass::Load | OpClass::Store => (4, MEM_PORTS),
            };
            if fu[fu_idx] >= fu_limit {
                // Units free up next cycle; retry then.
                next_wake = next_wake.min(cycle + 1);
                e.wake_at = cycle + 1;
                continue;
            }
            fu[fu_idx] += 1;
            self.pending &= !bit(seq);

            let mem_addr = e.instr.mem_addr;
            let base_latency = u32::from(d.latency);
            let latency = match d.class {
                OpClass::Load if mem_addr != NO_MEM_ADDR => {
                    base_latency + self.data_access(VirtAddr::new(mem_addr), AccessKind::Read)
                }
                OpClass::Store if mem_addr != NO_MEM_ADDR => {
                    // Stores retire through a write buffer: the dL1/dTLB are
                    // exercised (energy/behaviour) but the store does not
                    // stall the pipeline beyond address generation.
                    let _ = self.data_access(VirtAddr::new(mem_addr), AccessKind::Write);
                    base_latency
                }
                _ => base_latency,
            };

            let done_at = cycle + u64::from(latency);
            let e = &mut self.window[slot(seq)];
            e.done_at = done_at;
            if !e.done {
                self.inflight |= bit(seq);
                self.next_done_at = self.next_done_at.min(done_at);
            }
            if d.dst != DecodedInstr::NO_REG {
                let slot = &mut self.reg_ready[usize::from(d.dst)];
                if done_at < *slot {
                    ready_decreased = true;
                }
                *slot = done_at;
            }
            match d.class {
                OpClass::Load => self.stats.loads += 1,
                OpClass::Store => self.stats.stores += 1,
                _ => {}
            }
            issued += 1;
        }
        if ready_decreased {
            // Cached wake times assumed ready times only move later;
            // clamp them so every sleeper is rechecked promptly.
            for seq in oldest_first(self.pending, self.head_seq) {
                let e = &mut self.window[slot(seq)];
                e.wake_at = e.wake_at.min(cycle + 1);
            }
            next_wake = cycle + 1;
        }
        // Arm the gate. A pass that issued something (or stopped at the
        // issue width) may free units or wake dependents next cycle; only
        // a clean nothing-issued pass proves a longer quiet window.
        self.next_issue_at = if issued > 0 || hit_width_limit {
            cycle + 1
        } else {
            next_wake
        };
        issued > 0
    }

    /// dTLB + dL1 (+L2, +DRAM) access for a data reference; returns the
    /// added latency in cycles.
    fn data_access(&mut self, addr: VirtAddr, kind: AccessKind) -> u32 {
        let vpn = self.geom.vpn(addr);
        let t = self
            .dtlb
            .lookup(vpn, &mut self.page_table, Protection::data());
        let mut latency = t.penalty; // 0 on hit, 50 on miss
        if t.fault {
            // A protection fault traps to the OS handler: the access still
            // completes (the simulator has no architectural kill path) but
            // the configured handler latency is charged, so faults cost
            // cycles instead of just incrementing a counter.
            latency += self.cfg.fault_latency;
        }
        let pa = self.geom.join(t.pfn, self.geom.offset(addr));
        let r = self.dl1.access(addr.raw(), kind);
        if r.hit {
            latency += self.dl1.hit_latency() - 1; // first cycle counted in issue latency
        } else {
            let l2r = self.l2.access(pa.raw(), AccessKind::Read);
            latency += self.l2.hit_latency();
            if !l2r.hit {
                latency += self.dram.access(pa.raw());
            }
            if let Some(wb) = l2r.writeback {
                self.dram.access(wb);
            }
        }
        if let Some(wb) = r.writeback {
            // Dirty dL1 eviction drains to L2 off the critical path.
            let wbl2 = self.l2.access(wb, AccessKind::Write);
            if let Some(wb2) = wbl2.writeback {
                self.dram.access(wb2);
            }
        }
        latency
    }

    // ---- decode ------------------------------------------------------

    /// Returns whether anything decoded this cycle.
    #[inline(always)]
    fn decode(&mut self) -> bool {
        let mut decoded = false;
        for _ in 0..self.cfg.decode_width {
            if self.tail_seq - self.head_seq >= self.cfg.ruu_size as u64 {
                break;
            }
            let Some(&f) = self.fetch_q.front() else {
                break;
            };
            let is_mem = is_mem(f.d.class);
            if is_mem && self.lsq_used >= self.cfg.lsq_size {
                break;
            }
            self.fetch_q.drop_front();
            if is_mem {
                self.lsq_used += 1;
            }
            // Wrong-path branches never record a payload (they can never
            // resolve), so the flag alone decides resolution duty.
            debug_assert!(!(f.has_branch && f.wrong_path));
            let branch = if f.has_branch {
                let b = *self
                    .fq_branches
                    .front()
                    .expect("branch payload in lockstep");
                self.fq_branches.drop_front();
                b
            } else {
                NO_BRANCH
            };
            // A fresh entry is an issue candidate from the next cycle on.
            self.next_issue_at = self.next_issue_at.min(self.cycle + 1);
            let seq = self.tail_seq;
            self.window[slot(seq)] = Entry {
                instr: f,
                wake_at: self.cycle + 1,
                done_at: self.cycle,
                // A wrong-path branch is a placeholder, complete from
                // decode on.
                done: f.d.class == OpClass::Branch && !f.has_branch,
                branch,
            };
            self.pending |= bit(seq);
            self.tail_seq += 1;
            decoded = true;
        }
        decoded
    }

    // ---- fetch -------------------------------------------------------

    /// Returns whether anything was fetched this cycle.
    fn fetch<T: FetchTranslator + ?Sized>(&mut self, translator: &mut T) -> bool {
        if self.cycle < self.fetch_stall_until {
            return false;
        }
        let mut group_stall: u32 = 0;
        let mut fetched_any = false;
        for _ in 0..self.cfg.fetch_width {
            if self.fetch_q.len() >= self.cfg.fetch_queue {
                break;
            }
            // `fetch_slot` only leaves [0, slot_count) by running
            // sequentially off the end, so the wrap is almost never
            // taken — guard the hardware divide instead of paying it on
            // every fetch.
            let slot = if self.fetch_slot >= self.backend.slot_count() {
                self.fetch_slot % self.backend.slot_count()
            } else {
                self.fetch_slot
            };
            let pc = self.backend.addr_of(slot);
            let page = self.backend.page_of(slot);
            let d = self.backend.decoded(slot);

            // Translation event for this fetch.
            let kind = match self.pending_kind {
                PendingKind::Sequential => FetchKind::Sequential {
                    page_crossed: page != self.last_fetch_page,
                },
                PendingKind::BranchTarget {
                    in_page_marked,
                    from_boundary,
                } => FetchKind::BranchTarget {
                    in_page_marked,
                    from_boundary,
                },
                PendingKind::Recovery => FetchKind::Recovery,
            };
            let ev = FetchEvent {
                pc,
                kind,
                wrong_path: self.wrong_path,
            };
            let out = translator.on_fetch(&ev, &mut self.page_table);
            group_stall = group_stall.max(out.stall);

            // iL1 (virtually keyed; see module docs).
            let il1_missed = !self.il1.access(pc.raw(), AccessKind::Read).hit;
            if il1_missed {
                let miss_out: TranslationOutcome =
                    translator.on_il1_miss(&ev, &mut self.page_table);
                let pfn = miss_out
                    .pfn
                    .expect("il1 miss translation must produce a frame");
                let pa = self.geom.join(pfn, self.geom.offset(pc));
                let l2r = self.l2.access(pa.raw(), AccessKind::Read);
                let mut miss_stall = miss_out.stall + self.l2.hit_latency();
                if !l2r.hit {
                    miss_stall += self.dram.access(pa.raw());
                }
                group_stall = group_stall.max(miss_stall);
            }

            // Instruction + prediction + oracle. Everything decode needs
            // came from the backend's pre-extracted metadata — the hot
            // loop never touches an `Instruction` (whose branch spec
            // carries a heap-allocated target set).
            self.pending_kind = PendingKind::Sequential;
            self.last_fetch_page = page;

            let mut fetched = FetchedInstr {
                d,
                wrong_path: self.wrong_path,
                has_branch: false,
                mem_addr: NO_MEM_ADDR,
            };
            let mut break_after = il1_missed;

            if self.wrong_path {
                self.stats.wrong_path_fetched += 1;
                // Follow predictions blindly; nothing here resolves.
                if let Some(bk) = d.branch {
                    let pred = self.predictor.predict(pc, bk, pc.add(INSTRUCTION_BYTES));
                    translator.on_branch_predicted(pc, pred.target);
                    if pred.taken {
                        if let Some(t) = pred.target {
                            self.fetch_slot = self
                                .backend
                                .slot_of(t)
                                .unwrap_or((slot + 1) % self.backend.slot_count());
                            self.pending_kind = PendingKind::BranchTarget {
                                in_page_marked: d.in_page_hint,
                                from_boundary: d.boundary,
                            };
                            break_after = true;
                        } else {
                            self.fetch_slot = slot + 1;
                        }
                    } else {
                        self.fetch_slot = slot + 1;
                    }
                } else {
                    self.fetch_slot = slot + 1;
                }
            } else {
                self.stats.fetched += 1;
                debug_assert_eq!(
                    self.backend.current_slot(),
                    slot,
                    "fetch engine diverged from the architectural walker"
                );
                let step = self.backend.step();
                fetched.mem_addr = step.mem_addr.map_or(NO_MEM_ADDR, |a| a.raw());

                // Page-crossing statistics (Table 2), on the architectural
                // stream.
                if page != self.backend.page_of(step.next_slot) {
                    match step.branch {
                        Some(b) if b.taken && !step.is_boundary => {
                            self.stats.crossings_branch += 1;
                        }
                        _ => self.stats.crossings_boundary += 1,
                    }
                }

                if let Some(exec) = step.branch {
                    self.stats.branches += 1;
                    let bk = d.branch.expect("branch step has decoded kind");
                    let pred = self.predictor.predict(pc, bk, pc.add(INSTRUCTION_BYTES));
                    translator.on_branch_predicted(pc, pred.target);

                    let predicted_next = if pred.taken {
                        pred.target
                            .and_then(|t| self.backend.slot_of(t))
                            .unwrap_or(slot + 1)
                    } else {
                        slot + 1
                    };
                    let mispredicted = predicted_next != step.next_slot;
                    if mispredicted {
                        self.stats.mispredicts += 1;
                        self.wrong_path = true;
                    }
                    fetched.has_branch = true;
                    self.fq_branches.push_back(FetchedBranch {
                        pc,
                        target: exec.next_addr,
                        recovery_slot: step.next_slot,
                        mispredicted,
                        taken: exec.taken,
                        kind: bk,
                    });
                    self.fetch_slot = predicted_next;
                    if pred.taken && pred.target.is_some() {
                        self.pending_kind = PendingKind::BranchTarget {
                            in_page_marked: d.in_page_hint,
                            from_boundary: d.boundary,
                        };
                        // Fetch breaks on predicted-taken branches.
                        break_after = true;
                    }
                } else {
                    self.fetch_slot = step.next_slot;
                }
            }

            self.fetch_q.push_back(fetched);
            fetched_any = true;
            if break_after {
                break;
            }
        }
        if fetched_any {
            self.fetch_stall_until = self.cycle + 1 + u64::from(group_stall);
        }
        fetched_any
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::translate::NullTranslator;
    use cfr_workload::{generate, GeneratorParams, LaidProgram};

    fn laid() -> LaidProgram {
        let prog = generate(&GeneratorParams::small_test());
        LaidProgram::lay_out(&prog, PageGeometry::default_4k(), false)
    }

    fn run_for(laid: &LaidProgram, n: u64) -> CpuStats {
        let mut pipe = Pipeline::new(laid, CpuConfig::default_config(), 42);
        let mut t = NullTranslator::default();
        pipe.run(&mut t, n);
        *pipe.stats()
    }

    #[test]
    fn compiled_backend_matches_interpreter_exactly() {
        // The tentpole invariant: the pre-decoded trace backend is a pure
        // representation change — every statistic the interpreter backend
        // produces must match bit-for-bit, plain and instrumented alike.
        for instrumented in [false, true] {
            let prog = generate(&GeneratorParams::small_test());
            let p = LaidProgram::lay_out(&prog, PageGeometry::default_4k(), instrumented);
            let trace = cfr_workload::compile_trace(&p);
            let mut interp = Pipeline::new(&p, CpuConfig::default_config(), 42);
            let mut ti = NullTranslator::default();
            interp.run(&mut ti, 30_000);
            let mut compiled = Pipeline::compiled(&trace, CpuConfig::default_config(), 42);
            let mut tc = NullTranslator::default();
            compiled.run(&mut tc, 30_000);
            assert_eq!(
                interp.stats(),
                compiled.stats(),
                "backends diverged (instrumented = {instrumented})"
            );
            assert_eq!(interp.cycle(), compiled.cycle());
        }
    }

    #[test]
    #[should_panic(expected = "ruu_size 65 exceeds the 64-entry instruction window")]
    fn an_ruu_over_64_entries_is_rejected() {
        let p = laid();
        let mut cfg = CpuConfig::default_config();
        cfg.ruu_size = 65;
        let _ = Pipeline::new(&p, cfg, 42);
    }

    #[test]
    fn commits_exactly_requested() {
        let p = laid();
        let s = run_for(&p, 20_000);
        assert_eq!(s.committed, 20_000);
        assert!(s.cycles > 0);
    }

    #[test]
    fn ipc_is_physical() {
        let p = laid();
        let s = run_for(&p, 20_000);
        let ipc = s.ipc();
        assert!(ipc > 0.1, "pipeline far too slow: IPC {ipc}");
        assert!(ipc <= 4.0, "IPC cannot exceed commit width: {ipc}");
    }

    #[test]
    fn deterministic_across_runs() {
        let p = laid();
        let a = run_for(&p, 10_000);
        let b = run_for(&p, 10_000);
        assert_eq!(a, b);
    }

    #[test]
    fn sliced_run_is_transparent() {
        // A single process chopped into quantum slices (with nothing
        // happening between slices) must be indistinguishable from one
        // uninterrupted run: `run_slice` freezes and resumes the pipeline
        // exactly, so every statistic — cycles included — is identical.
        let p = laid();
        let whole = run_for(&p, 15_000);
        for quantum in [1u64, 7, 100, 4096] {
            let mut pipe = Pipeline::new(&p, CpuConfig::default_config(), 42);
            let mut t = NullTranslator::default();
            let mut slices = 0u64;
            loop {
                let end = pipe.cycle().saturating_add(quantum);
                slices += 1;
                if pipe.run_slice(&mut t, 15_000, end) == SliceEnd::Finished {
                    break;
                }
            }
            pipe.finalize_stats();
            assert_eq!(*pipe.stats(), whole, "quantum {quantum} diverged");
            assert!(slices > 1, "quantum {quantum} never actually sliced");
        }
    }

    #[test]
    fn set_cycle_is_monotonic_and_charges_idle_time() {
        let p = laid();
        let mut pipe = Pipeline::new(&p, CpuConfig::default_config(), 42);
        let mut t = NullTranslator::default();
        pipe.run_slice(&mut t, 1_000, u64::MAX);
        let at = pipe.cycle();
        pipe.set_cycle(at + 500); // switched out for 500 cycles
        assert_eq!(pipe.cycle(), at + 500);
        pipe.set_cycle(at); // never backwards
        assert_eq!(pipe.cycle(), at + 500);
    }

    #[test]
    fn fault_latency_charges_faulting_data_accesses() {
        // Wire check for `CpuConfig::fault_latency`: a data access whose
        // dTLB translation protection-faults costs the handler latency on
        // top of the TLB penalty. The page is pre-allocated as *code* so
        // the data access (wanting read/write) faults.
        let p = laid();
        let addr = VirtAddr::new(0x3000_0000);
        let mut costs = [0u32; 2];
        for (i, fault_latency) in [0u32, 900].into_iter().enumerate() {
            let mut cfg = CpuConfig::default_config();
            cfg.fault_latency = fault_latency;
            let mut pipe = Pipeline::new(&p, cfg, 42);
            let vpn = pipe.geom.vpn(addr);
            pipe.page_table.translate(vpn, Protection::code());
            costs[i] = pipe.data_access(addr, AccessKind::Read);
            assert_eq!(pipe.dtlb.stats().protection_faults, 1);
        }
        assert_eq!(costs[1], costs[0] + 900, "handler latency not charged");
    }

    #[test]
    fn branches_and_mispredicts_counted() {
        let p = laid();
        let s = run_for(&p, 50_000);
        assert!(s.branches > 1000, "branches {}", s.branches);
        assert!(s.mispredicts > 0);
        assert!(s.mispredicts < s.branches);
        let acc = s.predictor_accuracy();
        assert!((0.5..1.0).contains(&acc), "accuracy {acc}");
    }

    #[test]
    fn wrong_path_fetches_happen() {
        let p = laid();
        let s = run_for(&p, 50_000);
        assert!(s.wrong_path_fetched > 0, "no speculative wrong-path fetch");
        // Wrong-path work is bounded by mispredicts x window.
        assert!(s.wrong_path_fetched < s.fetched);
    }

    #[test]
    fn memory_system_exercised() {
        let p = laid();
        let s = run_for(&p, 50_000);
        assert!(s.il1.accesses >= s.fetched);
        assert!(s.dl1.accesses > 0);
        assert!(s.dtlb.accesses > 0);
        assert!(s.loads + s.stores >= s.dl1.accesses);
    }

    #[test]
    fn page_crossings_match_functional_measure() {
        // The pipeline's architectural crossing counts must agree with the
        // functional walker's (same seed, same stream).
        let p = laid();
        let s = run_for(&p, 30_000);
        let f = cfr_workload::measure::measure(&p, 30_000, 42);
        let total_pipe = s.crossings();
        let total_func = f.crossings();
        // The pipeline counts at fetch; at most a window of drift remains
        // in flight at the end.
        let drift = (total_pipe as i64 - total_func as i64).unsigned_abs();
        assert!(
            drift <= 80,
            "crossings diverged: pipeline {total_pipe} vs functional {total_func}"
        );
    }

    #[test]
    fn higher_latency_translator_slows_the_core() {
        // A PI-PT-like translator that stalls every fetch group must cost
        // cycles vs the free translator.
        struct SlowTranslator(NullTranslator);
        impl FetchTranslator for SlowTranslator {
            fn addressing_mode(&self) -> cfr_types::AddressingMode {
                cfr_types::AddressingMode::PiPt
            }
            fn on_fetch(&mut self, ev: &FetchEvent, pt: &mut PageTable) -> TranslationOutcome {
                let mut o = self.0.on_il1_miss(ev, pt);
                o.stall = 1;
                o
            }
            fn on_il1_miss(&mut self, ev: &FetchEvent, pt: &mut PageTable) -> TranslationOutcome {
                self.0.on_il1_miss(ev, pt)
            }
            fn meter(&self) -> &cfr_energy::EnergyMeter {
                self.0.meter()
            }
            fn itlb_stats(&self) -> cfr_mem::TlbStats {
                cfr_mem::TlbStats::default()
            }
            fn name(&self) -> &'static str {
                "slow"
            }
        }
        let p = laid();
        let mut fast_pipe = Pipeline::new(&p, CpuConfig::default_config(), 42);
        let mut fast = NullTranslator::default();
        fast_pipe.run(&mut fast, 20_000);
        let mut slow_pipe = Pipeline::new(&p, CpuConfig::default_config(), 42);
        let mut slow = SlowTranslator(NullTranslator::default());
        slow_pipe.run(&mut slow, 20_000);
        assert!(
            slow_pipe.stats().cycles > fast_pipe.stats().cycles,
            "serial translation latency must cost cycles: {} vs {}",
            slow_pipe.stats().cycles,
            fast_pipe.stats().cycles
        );
    }

    #[test]
    fn instrumented_layout_commits_boundary_branches() {
        let prog = generate(&GeneratorParams::small_test());
        let p = LaidProgram::lay_out(&prog, PageGeometry::default_4k(), true);
        let s = run_for(&p, 100_000);
        // small_test programs are compact; boundary branches exist but may
        // be cold. At minimum the counter must be consistent.
        assert!(s.boundary_branches <= s.committed);
    }

    #[test]
    fn smaller_il1_misses_more() {
        let p = laid();
        let mut small_cfg = CpuConfig::default_config();
        small_cfg.il1.organization.size_bytes = 512;
        let mut small_pipe = Pipeline::new(&p, small_cfg, 42);
        let mut t1 = NullTranslator::default();
        small_pipe.run(&mut t1, 20_000);
        let mut big_pipe = Pipeline::new(&p, CpuConfig::default_config(), 42);
        let mut t2 = NullTranslator::default();
        big_pipe.run(&mut t2, 20_000);
        assert!(
            small_pipe.stats().il1.miss_rate() > big_pipe.stats().il1.miss_rate(),
            "512B iL1 should miss more than 8KB"
        );
        assert!(small_pipe.stats().cycles > big_pipe.stats().cycles);
    }
}
