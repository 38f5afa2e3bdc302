//! The fetch-translation interface: where the paper's strategies plug into
//! the pipeline.
//!
//! The fetch engine calls [`FetchTranslator::on_fetch`] for **every**
//! instruction fetch (right-path and wrong-path — speculative fetches cost
//! real iTLB energy, exactly as in sim-outorder) and
//! [`FetchTranslator::on_il1_miss`] when a fetch misses the iL1 and a
//! physical address is needed for the (PI-PT) L2. The strategy decides what
//! each event costs: an iTLB CAM search, a CFR register read, a comparator
//! activation, nothing at all — and how many serial stall cycles the fetch
//! group pays.
//!
//! # What the pipeline consumes
//!
//! Of everything a translator does, the pipeline sees only three things:
//! the stall of each [`FetchTranslator::on_fetch`], the stall and frame of
//! each [`FetchTranslator::on_il1_miss`], and the page-table walks either
//! call makes (a walk of a page nothing touched yet allocates its frame,
//! which moves the frames of every later first touch, data pages
//! included). Energy, iTLB counters and lookup causes stay inside the
//! translator. So two runs of one binary under one configuration whose
//! translators differ — another strategy, another iTLB — often drive
//! exactly the same pipeline.
//!
//! A [`Recorder`] logs every call of one run with those consumed outputs,
//! reading walks as the translator's iTLB miss count. Another translator
//! then runs against the log ([`TranslationLog::replay`]) instead of a
//! pipeline, on a copy of the recorded run's final page table: it gets the
//! same calls with the same arguments, and the replay is accepted only if
//! its stall, frame and walk count match the log at every call.
//!
//! An accepted replay is exact, by induction over the calls. Up to call
//! *i* both translators saw the same calls and produced the same consumed
//! outputs, so the replayed translator's own run would have driven the
//! identical pipeline to call *i*, and made call *i* with the same
//! arguments. Its outputs at call *i* match, so that stays true after it.
//! The frames it read on the final page table are the ones its own run
//! would have read, because a plain run's page table only grows — no
//! remap, no unmap, no demand fault. A walk the recorded run also made at
//! that call is for the same page (both translators walk only the page of
//! the event they were called with), so it returns the frame that run got;
//! any other walk changes the walk count and is rejected. Hence the
//! replayed translator's counters and energy equal those of its own run,
//! and that run's pipeline statistics are the recorded run's.
//!
//! The argument needs every walk a translator makes to count as an iTLB
//! miss, as it does for every strategy with an iTLB; [`NullTranslator`]
//! walks without counting, so its replays prove nothing.

use cfr_energy::EnergyMeter;
use cfr_mem::{PageTable, TlbStats};
use cfr_types::{AddressingMode, Pfn, VirtAddr};

/// Why this instruction is being fetched.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FetchKind {
    /// Next sequential instruction. `page_crossed` marks the BOUNDARY case:
    /// the previous instruction was on a different page.
    Sequential {
        /// Whether this sequential fetch crossed a page boundary.
        page_crossed: bool,
    },
    /// First instruction at a predicted-taken branch's target.
    BranchTarget {
        /// The source branch carried SoLA's in-page bit.
        in_page_marked: bool,
        /// The source branch was a compiler-inserted boundary branch.
        from_boundary: bool,
    },
    /// First instruction after a mispredict recovery (the iTLB lookup the
    /// paper's Figure 3 charges at return points B and D).
    Recovery,
}

/// One instruction-fetch event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FetchEvent {
    /// Address being fetched.
    pub pc: VirtAddr,
    /// Why it is being fetched.
    pub kind: FetchKind,
    /// Whether the fetch engine is currently on a mispredicted path.
    pub wrong_path: bool,
}

/// What a translation event produced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TranslationOutcome {
    /// The frame, when the addressing mode required translating here
    /// (`None` for VI-VT's `on_fetch`, which defers to the miss path).
    pub pfn: Option<Pfn>,
    /// Serial stall cycles charged to this fetch group (PI-PT's in-front
    /// lookup, VI-VT's miss-path lookup, or a 50-cycle iTLB miss).
    pub stall: u32,
}

impl TranslationOutcome {
    /// A free, translation-less outcome.
    #[must_use]
    pub fn none() -> Self {
        Self {
            pfn: None,
            stall: 0,
        }
    }
}

/// The strategy interface (Base, OPT, HoA, SoCA, SoLA, IA live in
/// `cfr-core`).
pub trait FetchTranslator {
    /// Which iL1 addressing scheme this run models.
    fn addressing_mode(&self) -> AddressingMode;

    /// Called once per instruction fetch, before/parallel-to the iL1.
    fn on_fetch(&mut self, ev: &FetchEvent, pt: &mut PageTable) -> TranslationOutcome;

    /// Called when the fetch misses iL1 and the physical address is needed
    /// for L2 (the VI-VT translation point; PI-PT/VI-PT strategies return
    /// the already-translated frame for free).
    fn on_il1_miss(&mut self, ev: &FetchEvent, pt: &mut PageTable) -> TranslationOutcome;

    /// A branch was fetched and predicted — IA's CFR-vs-BTB comparison
    /// point (Figure 2). `predicted_target` is the predicted target when
    /// the front end has one (BTB hit, or the return-address stack for
    /// returns — the paper generalizes: "wait until a branch target address
    /// is available and then perform a comparison").
    fn on_branch_predicted(&mut self, branch_pc: VirtAddr, predicted_target: Option<VirtAddr>) {
        let _ = (branch_pc, predicted_target);
    }

    /// A right-path branch mispredicted; the next fetch will be
    /// [`FetchKind::Recovery`].
    fn on_mispredict(&mut self) {}

    /// Energy accounting for the translation path.
    fn meter(&self) -> &EnergyMeter;

    /// iTLB behavioural counters.
    fn itlb_stats(&self) -> TlbStats;

    /// Short display name.
    fn name(&self) -> &'static str;
}

/// A translator that translates for free with no iTLB at all: used to unit
/// test the pipeline in isolation and as the "no translation cost" control.
#[derive(Debug, Default)]
pub struct NullTranslator {
    meter: EnergyMeter,
}

impl FetchTranslator for NullTranslator {
    fn addressing_mode(&self) -> AddressingMode {
        AddressingMode::ViPt
    }

    fn on_fetch(&mut self, _ev: &FetchEvent, _pt: &mut PageTable) -> TranslationOutcome {
        TranslationOutcome::none()
    }

    fn on_il1_miss(&mut self, ev: &FetchEvent, pt: &mut PageTable) -> TranslationOutcome {
        // Translation is still functionally required for the L2's physical
        // address; it just costs nothing here.
        let geom = cfr_types::PageGeometry::default_4k();
        let (pfn, _) = pt.translate(geom.vpn(ev.pc), cfr_types::Protection::code());
        TranslationOutcome {
            pfn: Some(pfn),
            stall: 0,
        }
    }

    fn meter(&self) -> &EnergyMeter {
        &self.meter
    }

    fn itlb_stats(&self) -> TlbStats {
        TlbStats::default()
    }

    fn name(&self) -> &'static str {
        "null"
    }
}

/// One logged translator call: its arguments and the outputs the pipeline
/// consumed from it (see the module docs). `walks` is how many page-table
/// walks the call made.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Call {
    /// [`FetchTranslator::on_fetch`].
    Fetch {
        ev: FetchEvent,
        stall: u32,
        walks: u32,
    },
    /// [`FetchTranslator::on_il1_miss`]. The pipeline makes it right
    /// after the `Fetch` of the same event, which [`Recorder`] asserts, so
    /// the entry does not repeat the event.
    Il1Miss { pfn: Pfn, stall: u32, walks: u32 },
    /// [`FetchTranslator::on_branch_predicted`].
    BranchPredicted {
        pc: VirtAddr,
        target: Option<VirtAddr>,
    },
    /// [`FetchTranslator::on_mispredict`].
    Mispredict,
}

/// Every translator call of one pipeline run, in order, with the outputs
/// the pipeline consumed: what [`TranslationLog::replay`] checks another
/// translator against.
///
/// The log is a string of entries. Most calls are *plain fetches*: a
/// fetch at the previous fetch's PC + 4, on the same path, that crosses no
/// page, stalls for nothing and walks nothing. One entry stands for a run
/// of them. Every other call is an entry of its own: a tag byte, then
/// varints — the PC as a delta from the previous fetch's PC + 4, the
/// stall, walks, frame and branch target. A pipeline run of one of the
/// paper's profiles logs 0.5–1.3 bytes per committed instruction, where
/// a plain list of its calls took 32 bytes for each of the 1.2–1.4 calls
/// it makes per commit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TranslationLog {
    bytes: Vec<u8>,
}

/// The first logged call at which a replayed translator's consumed
/// outputs left the log.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Mismatch {
    /// Index of the call in the log, counting each fetch of a run.
    pub call: usize,
    /// Which output differed.
    pub output: Consumed,
}

/// The outputs a replay checks, in the order it checks them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Consumed {
    /// The stall of a fetch or of an iL1 miss.
    Stall,
    /// The frame of an iL1 miss.
    Frame,
    /// The number of page-table walks.
    Walks,
}

impl TranslationLog {
    /// Replays the log's calls into `translator` over `pt`, which should
    /// be a copy of the recorded run's final page table. `Ok` means every
    /// consumed output and walk count matched at every call: `translator`
    /// now holds exactly the counters and energy its own run of the
    /// recorded pipeline would have left (see the module docs).
    ///
    /// # Errors
    ///
    /// The first call whose outputs differ; the replay stops there.
    pub fn replay<T: FetchTranslator + ?Sized>(
        &self,
        translator: &mut T,
        pt: &mut PageTable,
    ) -> Result<(), Mismatch> {
        let mut walks = WalkCount::new(&*translator);
        let mut fetch = None;
        for (call, entry) in self.calls().enumerate() {
            // A fetch's frame is not consumed, so only a miss checks one.
            let (out, stall, frame, logged_walks) = match entry {
                Call::Fetch { ev, stall, walks } => {
                    fetch = Some(ev);
                    (translator.on_fetch(&ev, pt), stall, None, walks)
                }
                Call::Il1Miss { pfn, stall, walks } => {
                    let ev = fetch.expect("a logged iL1 miss follows its fetch");
                    (translator.on_il1_miss(&ev, pt), stall, Some(pfn), walks)
                }
                Call::BranchPredicted { pc, target } => {
                    translator.on_branch_predicted(pc, target);
                    continue;
                }
                Call::Mispredict => {
                    translator.on_mispredict();
                    continue;
                }
            };
            let output = if out.stall != stall {
                Consumed::Stall
            } else if frame.is_some_and(|pfn| out.pfn != Some(pfn)) {
                Consumed::Frame
            } else if walks.since_last(&*translator) != logged_walks {
                Consumed::Walks
            } else {
                continue;
            };
            return Err(Mismatch { call, output });
        }
        Ok(())
    }

    /// The heap bytes the log holds.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        self.bytes.capacity()
    }

    /// The logged calls, in order.
    fn calls(&self) -> Calls<'_> {
        Calls {
            bytes: &self.bytes,
            last: START,
            run: 0,
        }
    }
}

/// An entry's kind: the low three bits of its tag byte. The other five
/// bits hold the kind's flags, or a run's length.
const KIND: u8 = 0b111;
/// A run of plain fetches. Its tag holds the length when it is below 32,
/// else 0 and a varint length follows.
const RUN: u8 = 0;
/// A fetch: its [`kind_code`] in tag bits 3–5, [`WRONG_PATH`] and
/// [`LOUD`]; then the PC delta, and stall and walks when loud.
const FETCH: u8 = 1;
/// An iL1 miss: [`STALLED`] and [`WALKED`]; then the frame, and the stall
/// and walks each when its flag is set.
const MISS: u8 = 2;
/// A predicted branch: [`TARGETED`]; then the PC's delta from the last
/// fetch's, and the target's from the PC when there is one.
const BRANCH: u8 = 3;
/// A mispredict: the tag alone.
const MISPREDICT: u8 = 4;
const WRONG_PATH: u8 = 1 << 6;
const LOUD: u8 = 1 << 7;
const STALLED: u8 = 1 << 3;
const WALKED: u8 = 1 << 4;
const TARGETED: u8 = 1 << 3;

/// The fetch before a log's first one, which its encoder and decoder
/// both start from.
const START: FetchEvent = FetchEvent {
    pc: VirtAddr::new(0),
    kind: PLAIN,
    wrong_path: false,
};
const PLAIN: FetchKind = FetchKind::Sequential {
    page_crossed: false,
};

/// The plain fetch after `ev`.
fn successor(ev: FetchEvent) -> FetchEvent {
    FetchEvent {
        pc: VirtAddr::new(ev.pc.raw().wrapping_add(cfr_types::INSTRUCTION_BYTES)),
        kind: PLAIN,
        wrong_path: ev.wrong_path,
    }
}

fn kind_code(kind: FetchKind) -> u8 {
    match kind {
        FetchKind::Sequential { page_crossed } => u8::from(page_crossed),
        FetchKind::Recovery => 2,
        FetchKind::BranchTarget {
            in_page_marked,
            from_boundary,
        } => 4 | u8::from(in_page_marked) << 1 | u8::from(from_boundary),
    }
}

fn kind_of(code: u8) -> FetchKind {
    match code {
        0 | 1 => FetchKind::Sequential {
            page_crossed: code == 1,
        },
        2 => FetchKind::Recovery,
        _ => FetchKind::BranchTarget {
            in_page_marked: code & 2 != 0,
            from_boundary: code & 1 != 0,
        },
    }
}

/// Writes a log's entries, folding runs of plain fetches.
#[derive(Debug)]
struct Encoder {
    bytes: Vec<u8>,
    /// The last fetch pushed.
    last: FetchEvent,
    /// Plain fetches pushed since the last entry, not yet written.
    run: u64,
    /// Whether the last call pushed was a fetch.
    after_fetch: bool,
}

impl Encoder {
    fn new(bytes: usize) -> Self {
        Self {
            bytes: Vec::with_capacity(bytes),
            last: START,
            run: 0,
            after_fetch: false,
        }
    }

    /// Logs `call`: a plain fetch extends the pending run.
    #[inline]
    fn push(&mut self, call: Call) {
        self.after_fetch = matches!(call, Call::Fetch { .. });
        if let Call::Fetch {
            ev,
            stall: 0,
            walks: 0,
        } = call
        {
            if ev == successor(self.last) {
                self.last = ev;
                self.run += 1;
                return;
            }
        }
        self.push_entry(call);
    }

    /// Writes `call` as an entry of its own, after the pending run.
    #[inline(never)]
    fn push_entry(&mut self, call: Call) {
        self.end_run();
        match call {
            Call::Fetch { ev, stall, walks } => {
                let loud = stall != 0 || walks != 0;
                let flags = kind_code(ev.kind) << 3
                    | if ev.wrong_path { WRONG_PATH } else { 0 }
                    | if loud { LOUD } else { 0 };
                self.bytes.push(FETCH | flags);
                self.signed(ev.pc.raw(), successor(self.last).pc.raw());
                if loud {
                    self.varint(u64::from(stall));
                    self.varint(u64::from(walks));
                }
                self.last = ev;
            }
            Call::Il1Miss { pfn, stall, walks } => {
                let flags =
                    if stall != 0 { STALLED } else { 0 } | if walks != 0 { WALKED } else { 0 };
                self.bytes.push(MISS | flags);
                self.varint(pfn.raw());
                for n in [stall, walks] {
                    if n != 0 {
                        self.varint(u64::from(n));
                    }
                }
            }
            Call::BranchPredicted { pc, target } => {
                self.bytes
                    .push(BRANCH | if target.is_some() { TARGETED } else { 0 });
                self.signed(pc.raw(), self.last.pc.raw());
                if let Some(target) = target {
                    self.signed(target.raw(), pc.raw());
                }
            }
            Call::Mispredict => self.bytes.push(MISPREDICT),
        }
    }

    /// Writes the pending run, if any.
    fn end_run(&mut self) {
        match std::mem::take(&mut self.run) {
            0 => {}
            n @ 1..=31 => self.bytes.push(RUN | (n as u8) << 3),
            n => {
                self.bytes.push(RUN);
                self.varint(n);
            }
        }
    }

    /// `value`'s difference from `base`, zigzag-encoded.
    fn signed(&mut self, value: u64, base: u64) {
        let delta = value.wrapping_sub(base) as i64;
        self.varint(((delta << 1) ^ (delta >> 63)) as u64);
    }

    fn varint(&mut self, mut n: u64) {
        while n >= 0x80 {
            self.bytes.push(n as u8 | 0x80);
            n >>= 7;
        }
        self.bytes.push(n as u8);
    }

    fn finish(mut self) -> TranslationLog {
        self.end_run();
        self.bytes.shrink_to_fit();
        TranslationLog { bytes: self.bytes }
    }
}

/// A log's calls: its entries read back, each run as its fetches.
struct Calls<'a> {
    bytes: &'a [u8],
    last: FetchEvent,
    /// Plain fetches left in the current run.
    run: u64,
}

impl Calls<'_> {
    fn varint(&mut self) -> u64 {
        let bytes = self.bytes;
        let mut n = 0;
        for (i, &byte) in bytes.iter().enumerate() {
            n |= u64::from(byte & 0x7f) << (7 * i);
            if byte < 0x80 {
                self.bytes = &bytes[i + 1..];
                return n;
            }
        }
        unreachable!("a log ends with a whole entry")
    }

    fn u32(&mut self) -> u32 {
        u32::try_from(self.varint()).expect("a log holds u32 stalls and walks")
    }

    fn signed(&mut self, base: u64) -> u64 {
        let n = self.varint();
        base.wrapping_add(((n >> 1) as i64 ^ -((n & 1) as i64)) as u64)
    }
}

impl Iterator for Calls<'_> {
    type Item = Call;

    #[inline]
    fn next(&mut self) -> Option<Call> {
        if self.run == 0 {
            let (&tag, rest) = self.bytes.split_first()?;
            self.bytes = rest;
            let call = match tag & KIND {
                RUN => {
                    self.run = match tag >> 3 {
                        0 => self.varint(),
                        n => u64::from(n),
                    };
                    return self.next();
                }
                FETCH => {
                    let pc = self.signed(successor(self.last).pc.raw());
                    let ev = FetchEvent {
                        pc: VirtAddr::new(pc),
                        kind: kind_of(tag >> 3 & 0b111),
                        wrong_path: tag & WRONG_PATH != 0,
                    };
                    let (stall, walks) = if tag & LOUD == 0 {
                        (0, 0)
                    } else {
                        (self.u32(), self.u32())
                    };
                    self.last = ev;
                    Call::Fetch { ev, stall, walks }
                }
                MISS => {
                    let pfn = Pfn::new(self.varint());
                    let stall = if tag & STALLED == 0 { 0 } else { self.u32() };
                    let walks = if tag & WALKED == 0 { 0 } else { self.u32() };
                    Call::Il1Miss { pfn, stall, walks }
                }
                BRANCH => {
                    let pc = self.signed(self.last.pc.raw());
                    let target = (tag & TARGETED != 0).then(|| VirtAddr::new(self.signed(pc)));
                    Call::BranchPredicted {
                        pc: VirtAddr::new(pc),
                        target,
                    }
                }
                MISPREDICT => Call::Mispredict,
                _ => unreachable!("a log holds only entries its encoder wrote"),
            };
            return Some(call);
        }
        self.run -= 1;
        self.last = successor(self.last);
        Some(Call::Fetch {
            ev: self.last,
            stall: 0,
            walks: 0,
        })
    }
}

/// Reads a translator's page-table walks call by call, as its iTLB miss
/// count.
#[derive(Debug)]
struct WalkCount {
    misses: u64,
}

impl WalkCount {
    fn new<T: FetchTranslator + ?Sized>(translator: &T) -> Self {
        Self {
            misses: translator.itlb_stats().misses,
        }
    }

    /// Walks since the previous reading.
    fn since_last<T: FetchTranslator + ?Sized>(&mut self, translator: &T) -> u32 {
        let misses = translator.itlb_stats().misses;
        let walks = misses - self.misses;
        self.misses = misses;
        u32::try_from(walks).expect("one call walks a handful of times at most")
    }
}

/// A translator that forwards every call to the one it wraps and logs it,
/// with the outputs the pipeline consumed, into a [`TranslationLog`].
/// Everything else — energy, counters, the name — is the wrapped
/// translator's.
#[derive(Debug)]
pub struct Recorder<'a, T: ?Sized> {
    inner: &'a mut T,
    log: Encoder,
    walks: WalkCount,
}

impl<'a, T: FetchTranslator + ?Sized> Recorder<'a, T> {
    /// Starts recording `inner`'s calls, with room for `bytes` of log
    /// before it grows.
    pub fn new(inner: &'a mut T, bytes: usize) -> Self {
        Self {
            walks: WalkCount::new(&*inner),
            inner,
            log: Encoder::new(bytes),
        }
    }

    /// The log of every call so far.
    #[must_use]
    pub fn finish(self) -> TranslationLog {
        self.log.finish()
    }
}

impl<T: FetchTranslator + ?Sized> FetchTranslator for Recorder<'_, T> {
    fn addressing_mode(&self) -> AddressingMode {
        self.inner.addressing_mode()
    }

    fn on_fetch(&mut self, ev: &FetchEvent, pt: &mut PageTable) -> TranslationOutcome {
        let out = self.inner.on_fetch(ev, pt);
        self.log.push(Call::Fetch {
            ev: *ev,
            stall: out.stall,
            walks: self.walks.since_last(&*self.inner),
        });
        out
    }

    fn on_il1_miss(&mut self, ev: &FetchEvent, pt: &mut PageTable) -> TranslationOutcome {
        assert!(
            self.log.after_fetch && self.log.last == *ev,
            "an iL1 miss is logged for the event of the fetch before it"
        );
        let out = self.inner.on_il1_miss(ev, pt);
        self.log.push(Call::Il1Miss {
            pfn: out.pfn.expect("il1 miss translation must produce a frame"),
            stall: out.stall,
            walks: self.walks.since_last(&*self.inner),
        });
        out
    }

    fn on_branch_predicted(&mut self, branch_pc: VirtAddr, predicted_target: Option<VirtAddr>) {
        self.inner.on_branch_predicted(branch_pc, predicted_target);
        self.log.push(Call::BranchPredicted {
            pc: branch_pc,
            target: predicted_target,
        });
    }

    fn on_mispredict(&mut self) {
        self.inner.on_mispredict();
        self.log.push(Call::Mispredict);
    }

    fn meter(&self) -> &EnergyMeter {
        self.inner.meter()
    }

    fn itlb_stats(&self) -> TlbStats {
        self.inner.itlb_stats()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CpuConfig, CpuStats, Pipeline};
    use cfr_mem::{Tlb, TlbConfig};
    use cfr_types::{PageGeometry, Protection, TlbOrganization};
    use cfr_workload::{profiles, LaidProgram};

    #[test]
    fn null_translator_costs_nothing() {
        let mut t = NullTranslator::default();
        let mut pt = PageTable::new();
        let ev = FetchEvent {
            pc: VirtAddr::new(0x40_0000),
            kind: FetchKind::Sequential {
                page_crossed: false,
            },
            wrong_path: false,
        };
        let out = t.on_fetch(&ev, &mut pt);
        assert_eq!(out, TranslationOutcome::none());
        let miss = t.on_il1_miss(&ev, &mut pt);
        assert_eq!(miss.stall, 0);
        assert!(miss.pfn.is_some());
        assert_eq!(t.meter().total_pj(), 0.0);
    }

    /// A translator over one real iTLB. Under VI-PT every fetch looks it
    /// up and stalls for the miss penalty, and an iL1 miss reuses the
    /// fetch's frame; under VI-VT only an iL1 miss looks it up.
    struct TlbTranslator {
        tlb: Tlb,
        mode: AddressingMode,
        pfn: Option<Pfn>,
        meter: EnergyMeter,
    }

    impl TlbTranslator {
        fn new(entries: u32, miss_penalty: u32) -> Self {
            Self::in_mode(AddressingMode::ViPt, entries, miss_penalty)
        }

        fn in_mode(mode: AddressingMode, entries: u32, miss_penalty: u32) -> Self {
            Self {
                tlb: Tlb::new(TlbConfig {
                    organization: TlbOrganization::fully_associative(entries),
                    miss_penalty,
                }),
                mode,
                pfn: None,
                meter: EnergyMeter::new(),
            }
        }

        fn lookup(&mut self, ev: &FetchEvent, pt: &mut PageTable) -> TranslationOutcome {
            let vpn = PageGeometry::default_4k().vpn(ev.pc);
            let r = self.tlb.lookup(vpn, pt, Protection::code());
            self.pfn = Some(r.pfn);
            TranslationOutcome {
                pfn: self.pfn,
                stall: r.penalty,
            }
        }
    }

    impl FetchTranslator for TlbTranslator {
        fn addressing_mode(&self) -> AddressingMode {
            self.mode
        }

        fn on_fetch(&mut self, ev: &FetchEvent, pt: &mut PageTable) -> TranslationOutcome {
            match self.mode {
                AddressingMode::ViVt => TranslationOutcome::none(),
                _ => self.lookup(ev, pt),
            }
        }

        fn on_il1_miss(&mut self, ev: &FetchEvent, pt: &mut PageTable) -> TranslationOutcome {
            match self.mode {
                AddressingMode::ViVt => self.lookup(ev, pt),
                _ => TranslationOutcome {
                    pfn: self.pfn,
                    stall: 0,
                },
            }
        }

        fn meter(&self) -> &EnergyMeter {
            &self.meter
        }

        fn itlb_stats(&self) -> TlbStats {
            *self.tlb.stats()
        }

        fn name(&self) -> &'static str {
            "tlb"
        }
    }

    /// A translator that keeps, unencoded, every call it gets with the
    /// outputs it gave: what a [`Recorder`] wrapping it must log.
    struct Spy {
        inner: TlbTranslator,
        calls: Vec<Call>,
    }

    impl Spy {
        fn walks_of(
            &mut self,
            call: impl FnOnce(&mut TlbTranslator) -> TranslationOutcome,
        ) -> (TranslationOutcome, u32) {
            let before = self.inner.itlb_stats().misses;
            let out = call(&mut self.inner);
            let walks = self.inner.itlb_stats().misses - before;
            (out, u32::try_from(walks).unwrap())
        }
    }

    impl FetchTranslator for Spy {
        fn addressing_mode(&self) -> AddressingMode {
            self.inner.addressing_mode()
        }

        fn on_fetch(&mut self, ev: &FetchEvent, pt: &mut PageTable) -> TranslationOutcome {
            let (out, walks) = self.walks_of(|t| t.on_fetch(ev, pt));
            let stall = out.stall;
            self.calls.push(Call::Fetch {
                ev: *ev,
                stall,
                walks,
            });
            out
        }

        fn on_il1_miss(&mut self, ev: &FetchEvent, pt: &mut PageTable) -> TranslationOutcome {
            let (out, walks) = self.walks_of(|t| t.on_il1_miss(ev, pt));
            let (pfn, stall) = (out.pfn.unwrap(), out.stall);
            self.calls.push(Call::Il1Miss { pfn, stall, walks });
            out
        }

        fn on_branch_predicted(&mut self, pc: VirtAddr, target: Option<VirtAddr>) {
            self.calls.push(Call::BranchPredicted { pc, target });
        }

        fn on_mispredict(&mut self) {
            self.calls.push(Call::Mispredict);
        }

        fn meter(&self) -> &EnergyMeter {
            self.inner.meter()
        }

        fn itlb_stats(&self) -> TlbStats {
            self.inner.itlb_stats()
        }

        fn name(&self) -> &'static str {
            "spy"
        }
    }

    /// A recorded pipeline run of `translator` over `profile` for
    /// `commits` instructions: its log, final page table and pipeline
    /// statistics.
    fn record_profile<T: FetchTranslator>(
        profile: &cfr_workload::BenchmarkProfile,
        translator: &mut T,
        commits: u64,
    ) -> (TranslationLog, PageTable, CpuStats) {
        let prog = profile.generate();
        let laid = LaidProgram::lay_out(&prog, PageGeometry::default_4k(), false);
        let mut pipe = Pipeline::new(&laid, CpuConfig::default_config(), 42);
        let mut recorder = Recorder::new(translator, 0);
        pipe.run(&mut recorder, commits);
        (recorder.finish(), pipe.page_table().clone(), *pipe.stats())
    }

    /// A recorded run of `translator` over 254.gap.
    fn record(translator: &mut TlbTranslator) -> (TranslationLog, PageTable, CpuStats) {
        let gap = profiles::all().into_iter().find(|p| p.name == "254.gap");
        record_profile(&gap.expect("a canonical profile"), translator, 20_000)
    }

    /// Replays a fresh `entries`-entry translator against `log`.
    fn replay(
        log: &TranslationLog,
        pt: &PageTable,
        entries: u32,
        penalty: u32,
    ) -> Result<(), Mismatch> {
        log.replay(&mut TlbTranslator::new(entries, penalty), &mut pt.clone())
    }

    /// `log`'s calls, decoded.
    fn calls(log: &TranslationLog) -> Vec<Call> {
        log.calls().collect()
    }

    /// The log of `calls`, encoded as a [`Recorder`] encodes them.
    fn encode(calls: &[Call]) -> TranslationLog {
        let mut log = Encoder::new(0);
        for &call in calls {
            log.push(call);
        }
        log.finish()
    }

    /// The index of the first call `pick` selects.
    fn find(calls: &[Call], pick: impl Fn(&Call) -> bool) -> usize {
        calls
            .iter()
            .position(pick)
            .expect("the run makes such a call")
    }

    #[test]
    fn a_log_replays_its_own_translator_to_the_same_counters() {
        let mut recorded = TlbTranslator::new(8, 50);
        let (log, pt, _) = record(&mut recorded);
        let calls = calls(&log);
        let kinds: [fn(&Call) -> bool; 4] = [
            |c| matches!(c, Call::Fetch { .. }),
            |c| matches!(c, Call::Il1Miss { .. }),
            |c| matches!(c, Call::BranchPredicted { .. }),
            |c| matches!(c, Call::Mispredict),
        ];
        for kind in kinds {
            find(&calls, kind);
        }
        let mut again = TlbTranslator::new(8, 50);
        log.replay(&mut again, &mut pt.clone())
            .expect("a run matches its own log");
        assert_eq!(again.itlb_stats(), recorded.itlb_stats());
    }

    #[test]
    fn a_decoded_log_is_the_calls_the_recorder_forwarded() {
        for profile in profiles::all() {
            for mode in [AddressingMode::ViPt, AddressingMode::ViVt] {
                let mut spy = Spy {
                    inner: TlbTranslator::in_mode(mode, 8, 50),
                    calls: Vec::new(),
                };
                let (log, _, _) = record_profile(&profile, &mut spy, 20_000);
                let decoded = calls(&log);
                assert!(decoded == spy.calls, "{} {mode:?}", profile.name);
                assert_eq!(encode(&decoded), log, "{} {mode:?}", profile.name);
            }
        }
    }

    #[test]
    fn a_log_takes_under_two_bytes_per_commit() {
        // Measured at 20k commits: 0.55–1.25 bytes per commit over the six
        // profiles under VI-PT and VI-VT, against 32 bytes per call (1.2–1.4
        // calls per commit) for an unencoded log.
        let commits = 20_000;
        for profile in profiles::all() {
            for mode in [AddressingMode::ViPt, AddressingMode::ViVt] {
                let mut tlb = TlbTranslator::in_mode(mode, 8, 50);
                let (log, _, _) = record_profile(&profile, &mut tlb, commits);
                let per_commit = log.heap_bytes() as f64 / commits as f64;
                assert!(
                    per_commit < 2.0,
                    "{} {mode:?}: {per_commit:.2} B",
                    profile.name
                );
            }
        }
    }

    #[test]
    fn an_altered_fetch_stall_is_rejected_at_that_call() {
        let (log, pt, _) = record(&mut TlbTranslator::new(8, 50));
        let mut calls = calls(&log);
        let call = find(&calls, |c| matches!(c, Call::Fetch { stall: 0, .. }));
        let Call::Fetch { stall, .. } = &mut calls[call] else {
            unreachable!()
        };
        *stall = 1;
        let output = Consumed::Stall;
        assert_eq!(
            replay(&encode(&calls), &pt, 8, 50),
            Err(Mismatch { call, output })
        );
    }

    #[test]
    fn a_stall_at_a_fetch_inside_a_run_is_rejected_at_that_fetch() {
        let (log, pt, _) = record(&mut TlbTranslator::new(8, 50));
        let mut calls = calls(&log);
        let plain_after = |prev: &Call, call: &Call| match (prev, call) {
            (&Call::Fetch { ev: last, .. }, &Call::Fetch { ev, stall, walks }) => {
                ev == successor(last) && stall == 0 && walks == 0
            }
            _ => false,
        };
        // The middle fetch of the first three plain fetches in a row,
        // after the first thousand calls.
        let call = (1_000..calls.len() - 1)
            .find(|&i| {
                plain_after(&calls[i - 1], &calls[i]) && plain_after(&calls[i], &calls[i + 1])
            })
            .expect("the run fetches straight-line code");
        let Call::Fetch { stall, .. } = &mut calls[call] else {
            unreachable!()
        };
        *stall = 1;
        let tampered = encode(&calls);
        assert!(
            tampered.heap_bytes() > log.heap_bytes(),
            "the run was split"
        );
        let output = Consumed::Stall;
        assert_eq!(
            replay(&tampered, &pt, 8, 50),
            Err(Mismatch { call, output })
        );
    }

    #[test]
    fn an_altered_miss_frame_is_rejected_at_that_call() {
        let (log, pt, _) = record(&mut TlbTranslator::new(8, 50));
        let mut calls = calls(&log);
        let call = find(&calls, |c| matches!(c, Call::Il1Miss { .. }));
        let Call::Il1Miss { pfn, .. } = &mut calls[call] else {
            unreachable!()
        };
        *pfn = Pfn::new(pfn.raw() + 1);
        let output = Consumed::Frame;
        assert_eq!(
            replay(&encode(&calls), &pt, 8, 50),
            Err(Mismatch { call, output })
        );
    }

    #[test]
    fn an_altered_walk_count_is_rejected_at_that_call() {
        let (log, pt, _) = record(&mut TlbTranslator::new(8, 50));
        let mut calls = calls(&log);
        let call = find(&calls, |c| matches!(c, Call::Fetch { walks: 1, .. }));
        let Call::Fetch { walks, .. } = &mut calls[call] else {
            unreachable!()
        };
        *walks = 2;
        let output = Consumed::Walks;
        assert_eq!(
            replay(&encode(&calls), &pt, 8, 50),
            Err(Mismatch { call, output })
        );
    }

    #[test]
    fn a_walk_the_stall_hides_is_caught_by_the_walk_check_alone() {
        // With a free page walk, a 1-entry iTLB misses far more often than
        // a 32-entry one without a single stall or frame showing it.
        let (big, pt, big_stats) = record(&mut TlbTranslator::new(32, 0));
        let (small, _, small_stats) = record(&mut TlbTranslator::new(1, 0));
        let without_walks = |log: &TranslationLog| -> Vec<Call> {
            let mut calls = calls(log);
            for call in &mut calls {
                if let Call::Fetch { walks, .. } | Call::Il1Miss { walks, .. } = call {
                    *walks = 0;
                }
            }
            calls
        };
        assert!(without_walks(&big) == without_walks(&small));
        assert_eq!(big_stats, small_stats, "the two runs drive one pipeline");
        assert!(big != small, "the walks differ");
        let Err(mismatch) = replay(&big, &pt, 1, 0) else {
            panic!("the 1-entry iTLB replayed against the 32-entry one's log");
        };
        assert_eq!(mismatch.output, Consumed::Walks);
    }
}
