//! The six fetch-translation strategies (paper §3.3).
//!
//! All six share one skeleton: a translation *demand* (every fetch for
//! PI-PT/VI-PT; every iL1 miss for VI-VT) is served by the CFR when it is
//! trusted and by an iTLB lookup (which refills the CFR) when it is not.
//! The strategies differ only in **how trust is established**:
//!
//! - *Base* never trusts (it has no CFR);
//! - *OPT* trusts by oracle (exactly when the page truly has not changed);
//! - *HoA* pays a comparator on every fetch to check;
//! - *SoCA* distrusts after **every** branch target and boundary branch;
//! - *SoLA* like SoCA, except branches the compiler marked in-page keep
//!   trust;
//! - *IA* distrusts after boundary branches, after mispredict recoveries
//!   (Figure 3's return points B and D), and after predicted branches whose
//!   BTB target page differs from the CFR (point C) — point A (predicted,
//!   same page) keeps trust and costs only the BTB-side comparator.

use cfr_energy::{EnergyMeter, EnergyModel, MeterSlot};
use cfr_mem::{PageTable, Tlb, TlbConfig, TlbStats, TwoLevelTlb};
use cfr_types::{AddressingMode, PageGeometry, Pfn, Protection, VirtAddr, Vpn};

use cfr_cpu::{FetchEvent, FetchKind, FetchTranslator, TranslationOutcome};

use crate::cfr::Cfr;

/// Which of the paper's mechanisms a [`Strategy`] implements.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum StrategyKind {
    /// No CFR; iTLB on every translation demand (the paper's *base*).
    Base,
    /// Oracle: iTLB energy only on a true page change (the paper's *OPT*).
    Opt,
    /// Hardware-only approach (§3.3.1): comparator on every fetch.
    HoA,
    /// Software-only conservative approach (§3.3.2).
    SoCA,
    /// Software-only less conservative approach (§3.3.3).
    SoLA,
    /// Integrated hardware–software approach (§3.3.4).
    Ia,
}

impl StrategyKind {
    /// All six, in the paper's presentation order.
    pub const ALL: [StrategyKind; 6] = [
        StrategyKind::Base,
        StrategyKind::Opt,
        StrategyKind::HoA,
        StrategyKind::SoCA,
        StrategyKind::SoLA,
        StrategyKind::Ia,
    ];

    /// The four proposed schemes (what Figures 4/5 plot against Base/OPT).
    pub const PROPOSED: [StrategyKind; 4] = [
        StrategyKind::HoA,
        StrategyKind::SoCA,
        StrategyKind::SoLA,
        StrategyKind::Ia,
    ];

    /// Display name as the paper abbreviates it.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            StrategyKind::Base => "Base",
            StrategyKind::Opt => "OPT",
            StrategyKind::HoA => "HoA",
            StrategyKind::SoCA => "SoCA",
            StrategyKind::SoLA => "SoLA",
            StrategyKind::Ia => "IA",
        }
    }

    /// Serializes as a single lowercase kind token (persistent run store
    /// codec).
    pub fn to_record(&self, w: &mut cfr_types::RecordWriter) {
        w.token(match self {
            StrategyKind::Base => "base",
            StrategyKind::Opt => "opt",
            StrategyKind::HoA => "hoa",
            StrategyKind::SoCA => "soca",
            StrategyKind::SoLA => "sola",
            StrategyKind::Ia => "ia",
        });
    }

    /// Parses a [`Self::to_record`] token.
    ///
    /// # Errors
    ///
    /// Errors on an unknown kind token.
    pub fn from_record(
        r: &mut cfr_types::RecordReader<'_>,
    ) -> Result<Self, cfr_types::RecordError> {
        match r.token()? {
            "base" => Ok(StrategyKind::Base),
            "opt" => Ok(StrategyKind::Opt),
            "hoa" => Ok(StrategyKind::HoA),
            "soca" => Ok(StrategyKind::SoCA),
            "sola" => Ok(StrategyKind::SoLA),
            "ia" => Ok(StrategyKind::Ia),
            other => Err(cfr_types::RecordError::new(format!(
                "unknown strategy kind {other:?}"
            ))),
        }
    }
}

impl core::fmt::Display for StrategyKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

/// The iTLB the strategy consults on a lookup: monolithic or two-level
/// serial (§4.3.2).
// Deliberately unboxed: the variant is matched on every instruction
// fetch, and one `Strategy` exists per run — the size gap costs a few
// hundred bytes once, where a `Box` would cost a pointer chase per
// lookup.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum ItlbModel {
    /// One TLB structure.
    Mono(Tlb),
    /// Serial two-level structure.
    TwoLevel(TwoLevelTlb),
}

/// Cached [`MeterSlot`]s for every hot charge site, so the per-event
/// energy accounting skips the by-name component lookup.
#[derive(Debug, Default)]
struct MeterSlots {
    cfr_read: MeterSlot,
    cfr_compare: MeterSlot,
    itlb_access: MeterSlot,
    itlb_refill: MeterSlot,
    itlb_l1_access: MeterSlot,
    itlb_l2_access: MeterSlot,
    itlb_l1_refill: MeterSlot,
    itlb_l2_refill: MeterSlot,
    fault_trap: MeterSlot,
}

/// Per-event iTLB energies, precomputed once at construction: the CACTI
/// formulas are pure functions of the (fixed) organization, so
/// re-evaluating the f64 arithmetic on every fetch only burned time on
/// the hottest path. Values are bit-identical to what the formulas
/// produce inline.
#[derive(Clone, Copy, Debug, Default)]
struct ItlbEnergies {
    /// L1 (or monolithic) access / refill.
    access_pj: f64,
    refill_pj: f64,
    /// Second level, two-level models only.
    l2_access_pj: f64,
    l2_refill_pj: f64,
}

impl ItlbEnergies {
    fn of(itlb: &ItlbModel, model: &EnergyModel) -> Self {
        match itlb {
            ItlbModel::Mono(tlb) => {
                let org = tlb.organization();
                Self {
                    access_pj: model.tlb_access_pj(&org),
                    refill_pj: model.tlb_refill_pj(&org),
                    ..Self::default()
                }
            }
            ItlbModel::TwoLevel(two) => {
                let l1 = two.l1().organization();
                let l2 = two.l2().organization();
                Self {
                    access_pj: model.tlb_access_pj(&l1),
                    refill_pj: model.tlb_refill_pj(&l1),
                    l2_access_pj: model.tlb_access_pj(&l2),
                    l2_refill_pj: model.tlb_refill_pj(&l2),
                }
            }
        }
    }
}

impl ItlbModel {
    fn lookup(
        &mut self,
        vpn: Vpn,
        pt: &mut PageTable,
        meter: &mut EnergyMeter,
        slots: &mut MeterSlots,
        energies: ItlbEnergies,
    ) -> (Pfn, Protection, u32, bool) {
        match self {
            ItlbModel::Mono(tlb) => {
                meter.charge_cached(&mut slots.itlb_access, "itlb_access", energies.access_pj);
                let r = tlb.lookup(vpn, pt, Protection::code());
                if !r.hit {
                    meter.charge_cached(&mut slots.itlb_refill, "itlb_refill", energies.refill_pj);
                }
                (r.pfn, r.prot, r.penalty, r.fault)
            }
            ItlbModel::TwoLevel(two) => {
                meter.charge_cached(
                    &mut slots.itlb_l1_access,
                    "itlb_l1_access",
                    energies.access_pj,
                );
                let r = two.lookup(vpn, pt, Protection::code());
                if !r.l1_hit {
                    meter.charge_cached(
                        &mut slots.itlb_l2_access,
                        "itlb_l2_access",
                        energies.l2_access_pj,
                    );
                    meter.charge_cached(
                        &mut slots.itlb_l1_refill,
                        "itlb_l1_refill",
                        energies.refill_pj,
                    );
                    if r.l2_hit == Some(false) {
                        meter.charge_cached(
                            &mut slots.itlb_l2_refill,
                            "itlb_l2_refill",
                            energies.l2_refill_pj,
                        );
                    }
                }
                (r.pfn, r.prot, r.penalty, r.fault)
            }
        }
    }

    fn stats(&self) -> TlbStats {
        match self {
            ItlbModel::Mono(t) => *t.stats(),
            ItlbModel::TwoLevel(t) => {
                // Aggregate: accesses at L1; misses are full misses.
                let l1 = *t.l1().stats();
                let l2 = *t.l2().stats();
                TlbStats {
                    accesses: l1.accesses,
                    hits: l1.hits + l2.hits,
                    misses: l2.misses,
                    invalidations: l1.invalidations + l2.invalidations,
                    protection_faults: l1.protection_faults + l2.protection_faults,
                }
            }
        }
    }

    fn invalidate(&mut self, vpn: Vpn) {
        match self {
            ItlbModel::Mono(t) => {
                t.invalidate(vpn);
            }
            ItlbModel::TwoLevel(t) => t.invalidate(vpn),
        }
    }

    fn invalidate_all(&mut self) -> u64 {
        match self {
            ItlbModel::Mono(t) => t.invalidate_all(),
            ItlbModel::TwoLevel(t) => t.invalidate_all(),
        }
    }

    fn invalidate_asid(&mut self, asid: u16) -> u64 {
        match self {
            ItlbModel::Mono(t) => t.invalidate_asid(asid),
            ItlbModel::TwoLevel(t) => t.invalidate_asid(asid),
        }
    }

    fn set_asid(&mut self, asid: u16) {
        match self {
            ItlbModel::Mono(t) => t.set_asid(asid),
            ItlbModel::TwoLevel(t) => t.set_asid(asid),
        }
    }

    fn set_demand_fault_penalty(&mut self, cycles: u32) {
        match self {
            ItlbModel::Mono(t) => t.set_demand_fault_penalty(cycles),
            ItlbModel::TwoLevel(t) => t.set_demand_fault_penalty(cycles),
        }
    }

    fn demand_faults(&self) -> u64 {
        match self {
            ItlbModel::Mono(t) => t.demand_faults(),
            ItlbModel::TwoLevel(t) => t.demand_faults(),
        }
    }
}

/// Per-run lookup cause breakdown (paper Table 3).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LookupBreakdown {
    /// Lookups triggered at boundary-branch targets or sequential page
    /// crossings (the BOUNDARY case).
    pub boundary: u64,
    /// Lookups triggered at ordinary branch targets and mispredict
    /// recoveries (the BRANCH case).
    pub branch: u64,
}

impl LookupBreakdown {
    /// Serializes as `breakdown <boundary> <branch>` (persistent run
    /// store codec).
    pub fn to_record(&self, w: &mut cfr_types::RecordWriter) {
        w.token("breakdown");
        w.u64(self.boundary);
        w.u64(self.branch);
    }

    /// Parses a [`Self::to_record`] stream.
    ///
    /// # Errors
    ///
    /// Errors on a malformed stream.
    pub fn from_record(
        r: &mut cfr_types::RecordReader<'_>,
    ) -> Result<Self, cfr_types::RecordError> {
        r.expect("breakdown")?;
        Ok(Self {
            boundary: r.u64()?,
            branch: r.u64()?,
        })
    }
}

/// A [`StrategyKind`] bound to an addressing mode, an iTLB, a CFR, and an
/// energy model — a complete `FetchTranslator` for the pipeline.
#[derive(Debug)]
pub struct Strategy {
    kind: StrategyKind,
    mode: AddressingMode,
    geom: PageGeometry,
    itlb: ItlbModel,
    cfr: Cfr,
    meter: EnergyMeter,
    model: EnergyModel,
    /// Frame produced by this fetch's `on_fetch` (handed back for free on
    /// the same fetch's iL1 miss under PI-PT/VI-PT).
    last_pfn: Option<Pfn>,
    breakdown: LookupBreakdown,
    slots: MeterSlots,
    /// Precomputed per-event iTLB energies (see [`ItlbEnergies`]).
    energies: ItlbEnergies,
    context_switches: u64,
    /// Cycles an iTLB protection fault spends trapping to the OS handler
    /// (0 = faults are counted but free, the paper's implicit setting).
    fault_latency: u32,
}

impl Strategy {
    /// Builds a strategy over a monolithic iTLB.
    #[must_use]
    pub fn new(
        kind: StrategyKind,
        mode: AddressingMode,
        geom: PageGeometry,
        itlb: TlbConfig,
        model: EnergyModel,
    ) -> Self {
        Self::with_itlb(kind, mode, geom, ItlbModel::Mono(Tlb::new(itlb)), model)
    }

    /// Builds a strategy over an explicit iTLB model (e.g. two-level for
    /// the Figure 6 comparison).
    #[must_use]
    pub fn with_itlb(
        kind: StrategyKind,
        mode: AddressingMode,
        geom: PageGeometry,
        itlb: ItlbModel,
        model: EnergyModel,
    ) -> Self {
        let energies = ItlbEnergies::of(&itlb, &model);
        Self {
            kind,
            mode,
            geom,
            itlb,
            cfr: Cfr::new(),
            meter: EnergyMeter::new(),
            model,
            last_pfn: None,
            breakdown: LookupBreakdown::default(),
            slots: MeterSlots::default(),
            energies,
            context_switches: 0,
            fault_latency: 0,
        }
    }

    /// The strategy kind.
    #[must_use]
    pub fn kind(&self) -> StrategyKind {
        self.kind
    }

    /// Lookup-cause breakdown (Table 3).
    #[must_use]
    pub fn breakdown(&self) -> LookupBreakdown {
        self.breakdown
    }

    /// Read access to the CFR (tests, OS tooling).
    #[must_use]
    pub fn cfr(&self) -> &Cfr {
        &self.cfr
    }

    /// OS hook (§3.2): context switch — the CFR is saved/restored process
    /// context; within this single-address-space model that means it is
    /// invalidated and must be re-established by an iTLB lookup.
    pub fn on_context_switch(&mut self) {
        self.cfr.invalidate();
        self.context_switches += 1;
    }

    /// OS hook (§3.2): the page holding `vpn` was evicted or remapped; the
    /// OS must invalidate both the iTLB entry and the CFR.
    pub fn on_page_evicted(&mut self, vpn: Vpn) {
        self.cfr.on_page_evicted(vpn);
        self.itlb.invalidate(vpn);
    }

    /// Number of context switches injected.
    #[must_use]
    pub fn context_switches(&self) -> u64 {
        self.context_switches
    }

    /// OS hook: cycles an iTLB protection fault spends trapping to the OS
    /// handler. Nonzero values make `TlbStats::protection_faults` cost
    /// cycles *and* energy (a `fault_trap` meter component).
    pub fn set_fault_latency(&mut self, cycles: u32) {
        self.fault_latency = cycles;
    }

    /// OS hook: the address-space identifier tag folded into every iTLB
    /// entry from now on (ASID-tagged TLB mode; 0 is the boot/default
    /// space and is tag-identical to an untagged TLB).
    pub fn set_asid(&mut self, asid: u16) {
        self.itlb.set_asid(asid);
    }

    /// OS hook: flush-on-switch TLB mode — invalidate every iTLB entry
    /// (both levels under the two-level model). Returns the number of
    /// entries flushed.
    pub fn flush_itlb(&mut self) -> u64 {
        self.itlb.invalidate_all()
    }

    /// OS hook: shoot down every iTLB entry tagged with `asid` (an exiting
    /// process's space being recycled). Returns the number of entries shot.
    pub fn shootdown_asid(&mut self, asid: u16) -> u64 {
        self.itlb.invalidate_asid(asid)
    }

    /// OS hook: switch the fetch path to the incoming process's page
    /// geometry (4 KB vs 2 MB mixes in the scenario layer).
    pub fn set_geometry(&mut self, geom: PageGeometry) {
        self.geom = geom;
    }

    /// OS hook: cycles a demand fault (first touch of an unmapped page)
    /// adds to the iTLB miss penalty. 0 disables the page-table probe.
    pub fn set_demand_fault_penalty(&mut self, cycles: u32) {
        self.itlb.set_demand_fault_penalty(cycles);
    }

    /// Demand faults taken by the iTLB (first touches of unmapped pages);
    /// counted only when a demand-fault penalty is configured.
    #[must_use]
    pub fn demand_faults(&self) -> u64 {
        self.itlb.demand_faults()
    }

    fn charge_cfr_read(&mut self) {
        self.meter.charge_cached(
            &mut self.slots.cfr_read,
            "cfr_read",
            self.model.cfr_read_pj(),
        );
    }

    fn charge_compare(&mut self) {
        self.meter.charge_cached(
            &mut self.slots.cfr_compare,
            "cfr_compare",
            self.model.cfr_compare_pj(),
        );
    }

    fn count_lookup_cause(&mut self, ev: &FetchEvent) {
        match ev.kind {
            FetchKind::Sequential { .. } => self.breakdown.boundary += 1,
            FetchKind::BranchTarget {
                from_boundary: true,
                ..
            } => self.breakdown.boundary += 1,
            FetchKind::BranchTarget { .. } | FetchKind::Recovery => self.breakdown.branch += 1,
        }
    }

    /// Full iTLB lookup + CFR refill.
    fn lookup_and_refill(&mut self, ev: &FetchEvent, pt: &mut PageTable) -> (Pfn, u32) {
        let vpn = self.geom.vpn(ev.pc);
        self.count_lookup_cause(ev);
        let mut meter = std::mem::take(&mut self.meter);
        let (pfn, prot, mut penalty, fault) =
            self.itlb
                .lookup(vpn, pt, &mut meter, &mut self.slots, self.energies);
        if fault && self.fault_latency > 0 {
            // A protection fault traps to the OS handler: the fetch stalls
            // for the handler's latency and the trap's pipeline activity is
            // charged to its own meter component. With `fault_latency == 0`
            // (the default) faults are counted but cost nothing, keeping the
            // fault-free model byte-identical.
            penalty += self.fault_latency;
            meter.charge_cached(
                &mut self.slots.fault_trap,
                "fault_trap",
                self.model.fault_trap_pj(self.fault_latency),
            );
        }
        self.meter = meter;
        self.cfr.load(vpn, pfn, prot);
        (pfn, penalty)
    }

    /// Processes software invalidation triggers carried by the fetch kind.
    fn apply_software_triggers(&mut self, ev: &FetchEvent) {
        match self.kind {
            StrategyKind::SoCA => {
                if matches!(
                    ev.kind,
                    FetchKind::BranchTarget { .. } | FetchKind::Recovery
                ) {
                    self.cfr.invalidate();
                }
            }
            StrategyKind::SoLA => match ev.kind {
                FetchKind::BranchTarget { in_page_marked, .. } if in_page_marked => {}
                FetchKind::BranchTarget { .. } | FetchKind::Recovery => self.cfr.invalidate(),
                FetchKind::Sequential { .. } => {}
            },
            StrategyKind::Ia => match ev.kind {
                // BOUNDARY handled by the compiler; ordinary predicted
                // targets were already filtered by the BTB-vs-CFR compare
                // in `on_branch_predicted`. Recovery is Figure 3's B/D.
                FetchKind::BranchTarget {
                    from_boundary: true,
                    ..
                }
                | FetchKind::Recovery => self.cfr.invalidate(),
                _ => {}
            },
            _ => {}
        }
    }

    /// Serves a translation demand: CFR when trusted, else iTLB.
    fn demand(&mut self, ev: &FetchEvent, pt: &mut PageTable) -> Served {
        let vpn = self.geom.vpn(ev.pc);
        let trusted = match self.kind {
            StrategyKind::Base => false,
            // OPT's oracle and HoA's comparator both check the actual page;
            // the software schemes trust validity alone (on the
            // architectural path the layout invariant guarantees the page
            // matches; on wrong paths a stale frame may be used — those
            // fetches are squashed, exactly as in hardware).
            StrategyKind::Opt | StrategyKind::HoA => self.cfr.matches(vpn),
            StrategyKind::SoCA | StrategyKind::SoLA | StrategyKind::Ia => self.cfr.is_valid(),
        };
        if trusted {
            self.charge_cfr_read();
            Served {
                pfn: self.cfr.pfn(),
                penalty: 0,
                by_cfr: true,
            }
        } else {
            let (pfn, penalty) = self.lookup_and_refill(ev, pt);
            Served {
                pfn,
                penalty,
                by_cfr: false,
            }
        }
    }
}

/// How a translation demand was served.
struct Served {
    pfn: Pfn,
    penalty: u32,
    by_cfr: bool,
}

impl FetchTranslator for Strategy {
    fn addressing_mode(&self) -> AddressingMode {
        self.mode
    }

    fn on_fetch(&mut self, ev: &FetchEvent, pt: &mut PageTable) -> TranslationOutcome {
        // HoA's comparator runs on every instruction fetch when the fetch
        // path demands a translation (PI-PT/VI-PT) — that is its energy
        // cost over OPT. Under VI-VT no translation is needed until an iL1
        // miss, so the comparison folds into the miss path (charged in
        // `on_il1_miss`); without this gating HoA's comparator alone would
        // dwarf VI-VT's per-miss base energy, which contradicts the paper's
        // Figure 4 bottom panel (HoA ≈ 15% of base).
        if self.kind == StrategyKind::HoA && self.mode != AddressingMode::ViVt {
            self.charge_compare();
        }
        self.apply_software_triggers(ev);

        if self.mode == AddressingMode::ViVt {
            // Translation is demanded only on an iL1 miss.
            self.last_pfn = None;
            return TranslationOutcome::none();
        }

        let served = self.demand(ev, pt);
        self.last_pfn = Some(served.pfn);
        let stall = match self.mode {
            // Serial lookup in front of the iL1: one cycle whenever the
            // iTLB (not the CFR) had to produce the translation.
            AddressingMode::PiPt => {
                if served.by_cfr {
                    0
                } else {
                    1 + served.penalty
                }
            }
            // Parallel lookup: only an iTLB *miss* stalls.
            AddressingMode::ViPt => served.penalty,
            AddressingMode::ViVt => unreachable!("handled above"),
        };
        TranslationOutcome {
            pfn: Some(served.pfn),
            stall,
        }
    }

    fn on_il1_miss(&mut self, ev: &FetchEvent, pt: &mut PageTable) -> TranslationOutcome {
        if self.mode != AddressingMode::ViVt {
            // Already translated in on_fetch; the frame is reused for free.
            return TranslationOutcome {
                pfn: self.last_pfn,
                stall: 0,
            };
        }
        if self.kind == StrategyKind::HoA {
            // The miss-path CFR comparison (see `on_fetch`).
            self.charge_compare();
        }
        let served = self.demand(ev, pt);
        // The serial iTLB lookup on the miss path costs one cycle (plus the
        // walk on an iTLB miss); a CFR hit avoids it entirely — that is the
        // paper's VI-VT cycle savings.
        let stall = if served.by_cfr { 0 } else { 1 + served.penalty };
        TranslationOutcome {
            pfn: Some(served.pfn),
            stall,
        }
    }

    fn prefetch_translation(&self, pc: VirtAddr) {
        // Host-side hint only: pull the iTLB's key/LRU rows for this page
        // toward the host caches so the pipeline's fetch batch overlaps
        // this probe's host miss with the iL1 tag probe. Reads nothing
        // architecturally visible and charges no energy.
        let vpn = self.geom.vpn(pc);
        match &self.itlb {
            ItlbModel::Mono(t) => t.prefetch(vpn),
            ItlbModel::TwoLevel(t) => t.prefetch(vpn),
        }
    }

    fn on_branch_predicted(&mut self, _branch_pc: VirtAddr, btb_target: Option<VirtAddr>) {
        if self.kind != StrategyKind::Ia {
            return;
        }
        // Figure 2: the BTB's predicted target page is compared against the
        // CFR as soon as it is available. Under VI-VT the comparison result
        // is only consumed on the iL1 miss path, so its energy folds there
        // (the paper's IA lands within ~1% of OPT on VI-VT, which rules out
        // a per-branch comparator charge).
        if let Some(target) = btb_target {
            if self.mode != AddressingMode::ViVt {
                self.charge_compare();
            }
            if !self.cfr.matches(self.geom.vpn(target)) {
                // Page change predicted: the target fetch will look up the
                // iTLB (Figure 3 return point C).
                self.cfr.invalidate();
            }
        }
    }

    fn on_mispredict(&mut self) {
        // Figure 3 return points B and D: after a misprediction the CFR is
        // re-established via the iTLB on the corrected path. The Recovery
        // fetch kind performs the invalidation; nothing to do here beyond
        // the hooks the kinds already handle.
    }

    fn meter(&self) -> &EnergyMeter {
        &self.meter
    }

    fn itlb_stats(&self) -> TlbStats {
        self.itlb.stats()
    }

    fn name(&self) -> &'static str {
        self.kind.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfr_energy::EnergyModel;
    use cfr_mem::PageTable;

    fn strategy(kind: StrategyKind, mode: AddressingMode) -> Strategy {
        Strategy::new(
            kind,
            mode,
            PageGeometry::default_4k(),
            TlbConfig::default_itlb(),
            EnergyModel::default(),
        )
    }

    fn seq(pc: u64) -> FetchEvent {
        FetchEvent {
            pc: VirtAddr::new(pc),
            kind: FetchKind::Sequential {
                page_crossed: false,
            },
            wrong_path: false,
        }
    }

    fn branch_target(pc: u64, marked: bool, boundary: bool) -> FetchEvent {
        FetchEvent {
            pc: VirtAddr::new(pc),
            kind: FetchKind::BranchTarget {
                in_page_marked: marked,
                from_boundary: boundary,
            },
            wrong_path: false,
        }
    }

    #[test]
    fn fault_latency_charges_trap_cycles_and_energy() {
        // Map the fetch page data-only so fetching (Protection::code) faults.
        let mut pt = PageTable::new();
        let geom = PageGeometry::default_4k();
        pt.translate(geom.vpn(VirtAddr::new(0x40_0000)), Protection::data());

        // Latency 0 (the default): the fault is counted but free, and no
        // trap meter component materializes — byte-identical to the
        // fault-free model.
        let mut s0 = strategy(StrategyKind::Base, AddressingMode::ViPt);
        let out0 = s0.on_fetch(&seq(0x40_0000), &mut pt);
        assert_eq!(s0.itlb_stats().protection_faults, 1);
        assert_eq!(s0.meter().events("fault_trap"), 0);

        // Nonzero latency: the same fetch stalls the handler's cycles on
        // top and charges a fault_trap energy event.
        let mut s1 = strategy(StrategyKind::Base, AddressingMode::ViPt);
        s1.set_fault_latency(900);
        let out1 = s1.on_fetch(&seq(0x40_0000), &mut pt);
        assert_eq!(s1.itlb_stats().protection_faults, 1);
        assert_eq!(out1.stall, out0.stall + 900);
        assert_eq!(s1.meter().events("fault_trap"), 1);
        let trap_pj = EnergyModel::default().fault_trap_pj(900);
        assert!((s1.meter().total_pj() - s0.meter().total_pj() - trap_pj).abs() < 1e-9);
    }

    #[test]
    fn asid_and_flush_hooks_reach_the_itlb() {
        let mut pt = PageTable::new();
        let mut s = strategy(StrategyKind::Base, AddressingMode::ViPt);
        for i in 0..4 {
            s.on_fetch(&seq(0x40_0000 + i * 0x1000), &mut pt);
        }
        assert_eq!(s.itlb_stats().misses, 4);
        // Re-fetch under a new ASID: nothing resident under that tag.
        s.set_asid(7);
        s.on_fetch(&seq(0x40_0000), &mut pt);
        assert_eq!(s.itlb_stats().misses, 5, "asid 7 cannot see asid 0 entries");
        // Shoot down the new space only, then flush everything.
        assert_eq!(s.shootdown_asid(7), 1);
        assert_eq!(s.flush_itlb(), 4);
        assert_eq!(s.flush_itlb(), 0);
    }

    #[test]
    fn base_vipt_accesses_itlb_every_fetch() {
        let mut s = strategy(StrategyKind::Base, AddressingMode::ViPt);
        let mut pt = PageTable::new();
        for i in 0..100 {
            let out = s.on_fetch(&seq(0x40_0000 + i * 4), &mut pt);
            assert!(out.pfn.is_some());
        }
        assert_eq!(s.itlb_stats().accesses, 100);
        assert_eq!(s.meter().events("itlb_access"), 100);
        assert_eq!(s.meter().events("cfr_read"), 0);
    }

    #[test]
    fn opt_accesses_itlb_only_on_page_change() {
        let mut s = strategy(StrategyKind::Opt, AddressingMode::ViPt);
        let mut pt = PageTable::new();
        for i in 0..100 {
            s.on_fetch(&seq(0x40_0000 + i * 4), &mut pt);
        }
        assert_eq!(s.itlb_stats().accesses, 1, "one cold lookup only");
        // Cross to the next page.
        s.on_fetch(&seq(0x40_1000), &mut pt);
        assert_eq!(s.itlb_stats().accesses, 2);
        assert_eq!(s.meter().events("cfr_read"), 99, "all but the two lookups");
    }

    #[test]
    fn hoa_pays_comparator_every_fetch() {
        let mut s = strategy(StrategyKind::HoA, AddressingMode::ViPt);
        let mut pt = PageTable::new();
        for i in 0..50 {
            s.on_fetch(&seq(0x40_0000 + i * 4), &mut pt);
        }
        assert_eq!(s.meter().events("cfr_compare"), 50);
        assert_eq!(s.itlb_stats().accesses, 1);
    }

    #[test]
    fn hoa_detects_page_change_without_software() {
        let mut s = strategy(StrategyKind::HoA, AddressingMode::ViPt);
        let mut pt = PageTable::new();
        s.on_fetch(&seq(0x40_0000), &mut pt);
        // A sequential BOUNDARY crossing — no branch, no software trigger.
        s.on_fetch(
            &FetchEvent {
                pc: VirtAddr::new(0x40_1000),
                kind: FetchKind::Sequential { page_crossed: true },
                wrong_path: false,
            },
            &mut pt,
        );
        assert_eq!(s.itlb_stats().accesses, 2, "comparator caught the change");
    }

    #[test]
    fn soca_looks_up_at_every_branch_target() {
        let mut s = strategy(StrategyKind::SoCA, AddressingMode::ViPt);
        let mut pt = PageTable::new();
        s.on_fetch(&seq(0x40_0000), &mut pt); // cold lookup
        s.on_fetch(&seq(0x40_0004), &mut pt); // CFR
                                              // In-page branch target: SoCA is conservative and looks up anyway.
        s.on_fetch(&branch_target(0x40_0040, false, false), &mut pt);
        assert_eq!(s.itlb_stats().accesses, 2);
        assert_eq!(s.breakdown().branch, 1);
        // Boundary branch target counts in the BOUNDARY column.
        s.on_fetch(&branch_target(0x40_1000, false, true), &mut pt);
        assert_eq!(s.breakdown().boundary, 2, "cold + boundary");
    }

    #[test]
    fn sola_skips_marked_in_page_targets() {
        let mut s = strategy(StrategyKind::SoLA, AddressingMode::ViPt);
        let mut pt = PageTable::new();
        s.on_fetch(&seq(0x40_0000), &mut pt);
        s.on_fetch(&branch_target(0x40_0040, true, false), &mut pt);
        assert_eq!(s.itlb_stats().accesses, 1, "marked target uses the CFR");
        s.on_fetch(&branch_target(0x40_0080, false, false), &mut pt);
        assert_eq!(s.itlb_stats().accesses, 2, "unmarked target looks up");
    }

    #[test]
    fn ia_trusts_btb_page_match() {
        let mut s = strategy(StrategyKind::Ia, AddressingMode::ViPt);
        let mut pt = PageTable::new();
        s.on_fetch(&seq(0x40_0000), &mut pt);
        // Predicted branch whose BTB target stays on the page: point A.
        s.on_branch_predicted(VirtAddr::new(0x40_0010), Some(VirtAddr::new(0x40_0040)));
        s.on_fetch(&branch_target(0x40_0040, false, false), &mut pt);
        assert_eq!(s.itlb_stats().accesses, 1, "no lookup on same-page target");
        assert_eq!(s.meter().events("cfr_compare"), 1);
        // Predicted branch leaving the page: point C.
        s.on_branch_predicted(VirtAddr::new(0x40_0044), Some(VirtAddr::new(0x40_2000)));
        s.on_fetch(&branch_target(0x40_2000, false, false), &mut pt);
        assert_eq!(s.itlb_stats().accesses, 2);
    }

    #[test]
    fn ia_looks_up_on_recovery() {
        let mut s = strategy(StrategyKind::Ia, AddressingMode::ViPt);
        let mut pt = PageTable::new();
        s.on_fetch(&seq(0x40_0000), &mut pt);
        s.on_mispredict();
        s.on_fetch(
            &FetchEvent {
                pc: VirtAddr::new(0x40_0100),
                kind: FetchKind::Recovery,
                wrong_path: false,
            },
            &mut pt,
        );
        assert_eq!(s.itlb_stats().accesses, 2, "B/D points force a lookup");
        assert_eq!(s.breakdown().branch, 1);
    }

    #[test]
    fn vivt_defers_to_il1_miss() {
        let mut s = strategy(StrategyKind::Base, AddressingMode::ViVt);
        let mut pt = PageTable::new();
        let out = s.on_fetch(&seq(0x40_0000), &mut pt);
        assert_eq!(out, TranslationOutcome::none());
        assert_eq!(s.itlb_stats().accesses, 0);
        let miss = s.on_il1_miss(&seq(0x40_0000), &mut pt);
        assert!(miss.pfn.is_some());
        assert!(miss.stall >= 1, "serial lookup on the miss path");
        assert_eq!(s.itlb_stats().accesses, 1);
    }

    #[test]
    fn vivt_cfr_hit_avoids_miss_path_latency() {
        let mut s = strategy(StrategyKind::Opt, AddressingMode::ViVt);
        let mut pt = PageTable::new();
        s.on_fetch(&seq(0x40_0000), &mut pt);
        let first = s.on_il1_miss(&seq(0x40_0000), &mut pt);
        assert!(first.stall >= 1, "cold: lookup + walk");
        let second = s.on_il1_miss(&seq(0x40_0008), &mut pt);
        assert_eq!(second.stall, 0, "CFR covers the page: no serial lookup");
        assert_eq!(s.itlb_stats().accesses, 1);
    }

    #[test]
    fn pipt_serial_stall_only_without_cfr() {
        let mut base = strategy(StrategyKind::Base, AddressingMode::PiPt);
        let mut pt = PageTable::new();
        base.on_fetch(&seq(0x40_0000), &mut pt);
        let out = base.on_fetch(&seq(0x40_0004), &mut pt);
        assert_eq!(out.stall, 1, "base PI-PT always pays the serial lookup");

        let mut ia = strategy(StrategyKind::Ia, AddressingMode::PiPt);
        ia.on_fetch(&seq(0x40_0000), &mut pt);
        let out = ia.on_fetch(&seq(0x40_0004), &mut pt);
        assert_eq!(out.stall, 0, "CFR keeps the iTLB off the critical path");
    }

    #[test]
    fn itlb_miss_penalty_propagates() {
        let mut s = Strategy::new(
            StrategyKind::Base,
            AddressingMode::ViPt,
            PageGeometry::default_4k(),
            TlbConfig {
                organization: cfr_types::TlbOrganization::fully_associative(1),
                miss_penalty: 50,
            },
            EnergyModel::default(),
        );
        let mut pt = PageTable::new();
        let a = s.on_fetch(&seq(0x40_0000), &mut pt);
        assert_eq!(a.stall, 50, "cold miss walks the page table");
        let b = s.on_fetch(&seq(0x40_0004), &mut pt);
        assert_eq!(b.stall, 0, "now resident");
        let c = s.on_fetch(&seq(0x40_1000), &mut pt);
        assert_eq!(c.stall, 50, "1-entry TLB thrashes across pages");
    }

    #[test]
    fn os_hooks_invalidate() {
        let mut s = strategy(StrategyKind::Ia, AddressingMode::ViPt);
        let mut pt = PageTable::new();
        s.on_fetch(&seq(0x40_0000), &mut pt);
        assert!(s.cfr().is_valid());
        s.on_context_switch();
        assert!(!s.cfr().is_valid());
        assert_eq!(s.context_switches(), 1);
        s.on_fetch(&seq(0x40_0004), &mut pt);
        assert_eq!(s.itlb_stats().accesses, 2, "re-established after switch");

        let vpn = PageGeometry::default_4k().vpn(VirtAddr::new(0x40_0004));
        s.on_page_evicted(vpn);
        assert!(!s.cfr().is_valid());
        s.on_fetch(&seq(0x40_0008), &mut pt);
        assert_eq!(s.itlb_stats().misses, 2, "eviction also shot down the iTLB");
    }

    #[test]
    fn wrong_path_fetches_charged() {
        let mut s = strategy(StrategyKind::Base, AddressingMode::ViPt);
        let mut pt = PageTable::new();
        s.on_fetch(
            &FetchEvent {
                pc: VirtAddr::new(0x40_0000),
                kind: FetchKind::Sequential {
                    page_crossed: false,
                },
                wrong_path: true,
            },
            &mut pt,
        );
        assert_eq!(s.itlb_stats().accesses, 1);
    }

    #[test]
    fn two_level_charges_both_levels_on_l1_miss() {
        let mut s = Strategy::with_itlb(
            StrategyKind::Base,
            AddressingMode::ViPt,
            PageGeometry::default_4k(),
            ItlbModel::TwoLevel(TwoLevelTlb::fig6_small()),
            EnergyModel::default(),
        );
        let mut pt = PageTable::new();
        s.on_fetch(&seq(0x40_0000), &mut pt); // cold: l1 miss, l2 miss
        assert_eq!(s.meter().events("itlb_l1_access"), 1);
        assert_eq!(s.meter().events("itlb_l2_access"), 1);
        s.on_fetch(&seq(0x40_0004), &mut pt); // l1 (1-entry) hit
        assert_eq!(s.meter().events("itlb_l1_access"), 2);
        assert_eq!(s.meter().events("itlb_l2_access"), 1);
    }

    #[test]
    fn strategy_kind_display() {
        assert_eq!(StrategyKind::Ia.to_string(), "IA");
        assert_eq!(StrategyKind::ALL.len(), 6);
        assert_eq!(StrategyKind::PROPOSED.len(), 4);
    }
}
