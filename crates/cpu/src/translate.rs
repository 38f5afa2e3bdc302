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

    /// Host-side hint that `pc` is about to be translated: pull the iTLB
    /// metadata for it toward the host's caches. Architecturally a no-op —
    /// implementations must read only `&self` and charge nothing — so the
    /// default empty body is always correct; strategies with an iTLB
    /// override it to join the fetch group's [`crate::LookupBatch`].
    fn prefetch_translation(&self, pc: VirtAddr) {
        let _ = pc;
    }

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
/// translator against. About 32 bytes per call, and a run makes about 1.3
/// calls per committed instruction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TranslationLog {
    calls: Vec<Call>,
}

/// The first logged call at which a replayed translator's consumed
/// outputs left the log.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Mismatch {
    /// Index of the call in the log.
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
        for (call, entry) in self.calls.iter().enumerate() {
            // A fetch's frame is not consumed, so only a miss checks one.
            let (out, stall, frame, logged_walks) = match *entry {
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
    log: TranslationLog,
    walks: WalkCount,
}

impl<'a, T: FetchTranslator + ?Sized> Recorder<'a, T> {
    /// Starts recording `inner`'s calls, with room for `calls` of them
    /// before the log grows.
    pub fn new(inner: &'a mut T, calls: usize) -> Self {
        Self {
            walks: WalkCount::new(&*inner),
            inner,
            log: TranslationLog {
                calls: Vec::with_capacity(calls),
            },
        }
    }

    /// The log of every call so far.
    #[must_use]
    pub fn finish(self) -> TranslationLog {
        self.log
    }
}

impl<T: FetchTranslator + ?Sized> FetchTranslator for Recorder<'_, T> {
    fn addressing_mode(&self) -> AddressingMode {
        self.inner.addressing_mode()
    }

    fn on_fetch(&mut self, ev: &FetchEvent, pt: &mut PageTable) -> TranslationOutcome {
        let out = self.inner.on_fetch(ev, pt);
        self.log.calls.push(Call::Fetch {
            ev: *ev,
            stall: out.stall,
            walks: self.walks.since_last(&*self.inner),
        });
        out
    }

    fn on_il1_miss(&mut self, ev: &FetchEvent, pt: &mut PageTable) -> TranslationOutcome {
        assert!(
            matches!(self.log.calls.last(), Some(Call::Fetch { ev: fetched, .. }) if fetched == ev),
            "an iL1 miss is logged for the event of the fetch before it"
        );
        let out = self.inner.on_il1_miss(ev, pt);
        self.log.calls.push(Call::Il1Miss {
            pfn: out.pfn.expect("il1 miss translation must produce a frame"),
            stall: out.stall,
            walks: self.walks.since_last(&*self.inner),
        });
        out
    }

    fn on_branch_predicted(&mut self, branch_pc: VirtAddr, predicted_target: Option<VirtAddr>) {
        self.inner.on_branch_predicted(branch_pc, predicted_target);
        self.log.calls.push(Call::BranchPredicted {
            pc: branch_pc,
            target: predicted_target,
        });
    }

    fn on_mispredict(&mut self) {
        self.inner.on_mispredict();
        self.log.calls.push(Call::Mispredict);
    }

    fn prefetch_translation(&self, pc: VirtAddr) {
        self.inner.prefetch_translation(pc);
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

    /// A VI-PT translator over one real iTLB: every fetch looks it up and
    /// stalls for the miss penalty; an iL1 miss reuses the fetch's frame.
    struct TlbTranslator {
        tlb: Tlb,
        pfn: Option<Pfn>,
        meter: EnergyMeter,
    }

    impl TlbTranslator {
        fn new(entries: u32, miss_penalty: u32) -> Self {
            Self {
                tlb: Tlb::new(TlbConfig {
                    organization: TlbOrganization::fully_associative(entries),
                    miss_penalty,
                }),
                pfn: None,
                meter: EnergyMeter::new(),
            }
        }
    }

    impl FetchTranslator for TlbTranslator {
        fn addressing_mode(&self) -> AddressingMode {
            AddressingMode::ViPt
        }

        fn on_fetch(&mut self, ev: &FetchEvent, pt: &mut PageTable) -> TranslationOutcome {
            let vpn = PageGeometry::default_4k().vpn(ev.pc);
            let r = self.tlb.lookup(vpn, pt, Protection::code());
            self.pfn = Some(r.pfn);
            TranslationOutcome {
                pfn: self.pfn,
                stall: r.penalty,
            }
        }

        fn on_il1_miss(&mut self, _: &FetchEvent, _: &mut PageTable) -> TranslationOutcome {
            TranslationOutcome {
                pfn: self.pfn,
                stall: 0,
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

    /// A pipeline run of `translator`, recorded: its log, final page
    /// table and pipeline statistics.
    fn record(translator: &mut TlbTranslator) -> (TranslationLog, PageTable, CpuStats) {
        let gap = profiles::all().into_iter().find(|p| p.name == "254.gap");
        let prog = gap.expect("a canonical profile").generate();
        let laid = LaidProgram::lay_out(&prog, PageGeometry::default_4k(), false);
        let mut pipe = Pipeline::new(&laid, CpuConfig::default_config(), 42);
        let mut recorder = Recorder::new(translator, 0);
        pipe.run(&mut recorder, 20_000);
        (recorder.finish(), pipe.page_table().clone(), *pipe.stats())
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

    /// The index of the first call `pick` selects.
    fn find(log: &TranslationLog, pick: impl Fn(&Call) -> bool) -> usize {
        log.calls
            .iter()
            .position(pick)
            .expect("the run makes such a call")
    }

    #[test]
    fn a_log_replays_its_own_translator_to_the_same_counters() {
        let mut recorded = TlbTranslator::new(8, 50);
        let (log, pt, _) = record(&mut recorded);
        assert!(
            std::mem::size_of::<Call>() <= 32,
            "a log entry stays compact"
        );
        let kinds: [fn(&Call) -> bool; 4] = [
            |c| matches!(c, Call::Fetch { .. }),
            |c| matches!(c, Call::Il1Miss { .. }),
            |c| matches!(c, Call::BranchPredicted { .. }),
            |c| matches!(c, Call::Mispredict),
        ];
        for kind in kinds {
            find(&log, kind);
        }
        let mut again = TlbTranslator::new(8, 50);
        log.replay(&mut again, &mut pt.clone())
            .expect("a run matches its own log");
        assert_eq!(again.itlb_stats(), recorded.itlb_stats());
    }

    #[test]
    fn an_altered_fetch_stall_is_rejected_at_that_call() {
        let (mut log, pt, _) = record(&mut TlbTranslator::new(8, 50));
        let call = find(&log, |c| matches!(c, Call::Fetch { stall: 0, .. }));
        let Call::Fetch { stall, .. } = &mut log.calls[call] else {
            unreachable!()
        };
        *stall = 1;
        let output = Consumed::Stall;
        assert_eq!(replay(&log, &pt, 8, 50), Err(Mismatch { call, output }));
    }

    #[test]
    fn an_altered_miss_frame_is_rejected_at_that_call() {
        let (mut log, pt, _) = record(&mut TlbTranslator::new(8, 50));
        let call = find(&log, |c| matches!(c, Call::Il1Miss { .. }));
        let Call::Il1Miss { pfn, .. } = &mut log.calls[call] else {
            unreachable!()
        };
        *pfn = Pfn::new(pfn.raw() + 1);
        let output = Consumed::Frame;
        assert_eq!(replay(&log, &pt, 8, 50), Err(Mismatch { call, output }));
    }

    #[test]
    fn an_altered_walk_count_is_rejected_at_that_call() {
        let (mut log, pt, _) = record(&mut TlbTranslator::new(8, 50));
        let call = find(&log, |c| matches!(c, Call::Fetch { walks: 1, .. }));
        let Call::Fetch { walks, .. } = &mut log.calls[call] else {
            unreachable!()
        };
        *walks = 2;
        let output = Consumed::Walks;
        assert_eq!(replay(&log, &pt, 8, 50), Err(Mismatch { call, output }));
    }

    #[test]
    fn a_walk_the_stall_hides_is_caught_by_the_walk_check_alone() {
        // With a free page walk, a 1-entry iTLB misses far more often than
        // a 32-entry one without a single stall or frame showing it.
        let (big, pt, big_stats) = record(&mut TlbTranslator::new(32, 0));
        let (small, _, small_stats) = record(&mut TlbTranslator::new(1, 0));
        let without_walks = |log: &TranslationLog| -> Vec<Call> {
            let mut calls = log.calls.clone();
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
