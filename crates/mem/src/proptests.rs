//! Property-based cross-checks of the hot-path fast paths against
//! straightforward reference models.
//!
//! The optimized structures — the SoA, MRU-fast-pathed [`Tlb`] and
//! [`Cache`] (bitmask [`SetState`](crate::cache::SetState) per set), and
//! the open-addressed [`PageTable`] — must be *observationally identical*
//! to the pre-optimization implementations. [`RefTlb`] and [`RefCache`]
//! below are deliberately **retained AoS models**: one struct per
//! way/entry, a plain linear scan, explicit invalid-then-LRU victim
//! choice, no memoized last-hit entry — the layout the SoA refactor
//! replaced. Each property drives an optimized instance and its reference
//! through the same randomized operation sequence and asserts every
//! result (hit/miss, translation, writeback address — which pins the
//! victim choice) and every counter agrees at every step.
//!
//! Runs on the vendored `proptest` shim (seeded, deterministic; see
//! `vendor/README.md`).

use proptest::prelude::*;

use cfr_types::{Pfn, Protection, TlbOrganization, Vpn};

use crate::cache::{AccessKind, Cache, CacheConfig};
use crate::page_table::reference::HashPageTable;
use crate::page_table::PageTable;
use crate::tlb::{Tlb, TlbConfig};
use cfr_types::CacheOrganization;

// ---- reference models -------------------------------------------------

/// The pre-MRU TLB: linear way scan on every access, explicit
/// invalid-then-LRU victim choice, no last-hit memo.
#[derive(Clone, Debug, Default, Copy)]
struct RefTlbEntry {
    vpn: Vpn,
    pfn: Pfn,
    prot: Protection,
    valid: bool,
    lru: u64,
}

#[derive(Clone, Debug)]
struct RefTlb {
    entries: Vec<RefTlbEntry>,
    ways: usize,
    sets: u64,
    tick: u64,
    accesses: u64,
    hits: u64,
    misses: u64,
}

impl RefTlb {
    fn new(org: TlbOrganization) -> Self {
        let ways = org.associativity as usize;
        let sets = u64::from(org.sets());
        Self {
            entries: vec![RefTlbEntry::default(); ways * sets as usize],
            ways,
            sets,
            tick: 0,
            accesses: 0,
            hits: 0,
            misses: 0,
        }
    }

    fn set_of(&self, vpn: Vpn) -> usize {
        (vpn.raw() % self.sets) as usize
    }

    fn access(&mut self, vpn: Vpn) -> Option<(Pfn, Protection)> {
        self.tick += 1;
        self.accesses += 1;
        let base = self.set_of(vpn) * self.ways;
        let tick = self.tick;
        if let Some(e) = self.entries[base..base + self.ways]
            .iter_mut()
            .find(|e| e.valid && e.vpn == vpn)
        {
            e.lru = tick;
            self.hits += 1;
            Some((e.pfn, e.prot))
        } else {
            self.misses += 1;
            None
        }
    }

    fn install(&mut self, vpn: Vpn, pfn: Pfn, prot: Protection) {
        self.tick += 1;
        let base = self.set_of(vpn) * self.ways;
        let tick = self.tick;
        let ways = &mut self.entries[base..base + self.ways];
        if let Some(e) = ways.iter_mut().find(|e| e.valid && e.vpn == vpn) {
            e.pfn = pfn;
            e.prot = prot;
            e.lru = tick;
            return;
        }
        let victim = match ways.iter().position(|e| !e.valid) {
            Some(i) => i,
            None => {
                let mut min = 0;
                for (i, e) in ways.iter().enumerate().skip(1) {
                    if e.lru < ways[min].lru {
                        min = i;
                    }
                }
                min
            }
        };
        ways[victim] = RefTlbEntry {
            vpn,
            pfn,
            prot,
            valid: true,
            lru: tick,
        };
    }

    fn invalidate(&mut self, vpn: Vpn) -> bool {
        let base = self.set_of(vpn) * self.ways;
        if let Some(e) = self.entries[base..base + self.ways]
            .iter_mut()
            .find(|e| e.valid && e.vpn == vpn)
        {
            e.valid = false;
            true
        } else {
            false
        }
    }
}

/// The pre-MRU cache: set/tag by division, linear way scan, no last-hit
/// block memo.
#[derive(Clone, Copy, Debug, Default)]
struct RefWay {
    tag: u64,
    valid: bool,
    dirty: bool,
    lru: u64,
}

#[derive(Clone, Debug)]
struct RefCache {
    ways: Vec<RefWay>,
    assoc: usize,
    sets: u64,
    block_bits: u32,
    tick: u64,
    accesses: u64,
    hits: u64,
    misses: u64,
    writebacks: u64,
}

impl RefCache {
    fn new(org: CacheOrganization) -> Self {
        let sets = org.sets();
        let assoc = org.associativity as usize;
        Self {
            ways: vec![RefWay::default(); sets as usize * assoc],
            assoc,
            sets,
            block_bits: org.block_bytes.trailing_zeros(),
            tick: 0,
            accesses: 0,
            hits: 0,
            misses: 0,
            writebacks: 0,
        }
    }

    fn access(&mut self, addr: u64, kind: AccessKind) -> (bool, Option<u64>) {
        self.tick += 1;
        self.accesses += 1;
        let block = addr >> self.block_bits;
        let set = (block % self.sets) as usize;
        let tag = block / self.sets;
        let base = set * self.assoc;
        let tick = self.tick;
        let sets = self.sets;
        let block_bits = self.block_bits;
        let ways = &mut self.ways[base..base + self.assoc];
        if let Some(w) = ways.iter_mut().find(|w| w.valid && w.tag == tag) {
            w.lru = tick;
            if kind == AccessKind::Write {
                w.dirty = true;
            }
            self.hits += 1;
            return (true, None);
        }
        self.misses += 1;
        let victim_idx = match ways.iter().position(|w| !w.valid) {
            Some(i) => i,
            None => {
                let mut min = 0;
                for (i, w) in ways.iter().enumerate().skip(1) {
                    if w.lru < ways[min].lru {
                        min = i;
                    }
                }
                min
            }
        };
        let victim = &mut ways[victim_idx];
        let writeback = if victim.valid && victim.dirty {
            self.writebacks += 1;
            Some(((victim.tag * sets) + set as u64) << block_bits)
        } else {
            None
        };
        victim.tag = tag;
        victim.valid = true;
        victim.dirty = kind == AccessKind::Write;
        victim.lru = tick;
        (false, writeback)
    }
}

// ---- properties -------------------------------------------------------

fn tlb_org(shape: u64) -> TlbOrganization {
    // A spread of small shapes: FA 1/2/8, and 2-way set-associative 8.
    match shape % 4 {
        0 => TlbOrganization::fully_associative(1),
        1 => TlbOrganization::fully_associative(2),
        2 => TlbOrganization::fully_associative(8),
        _ => TlbOrganization::set_associative(8, 2),
    }
}

proptest! {
    /// The MRU-fast-pathed TLB agrees with the linear-scan reference on
    /// every lookup result and every counter, across lookups (with page
    /// table), probe-style accesses, installs, and invalidations.
    #[test]
    fn tlb_fast_path_matches_reference(
        shape in 0u64..4,
        ops in proptest::collection::vec((0u64..4, 0u64..12), 1..300),
    ) {
        let org = tlb_org(shape);
        let mut fast = Tlb::new(TlbConfig { organization: org, miss_penalty: 50 });
        let mut reference = RefTlb::new(org);
        let mut pt = PageTable::new();
        for &(op, page) in &ops {
            let vpn = Vpn::new(page);
            match op {
                0 | 1 => {
                    // lookup == access + refill-on-miss, against the same
                    // page table the reference consults.
                    let got = fast.lookup(vpn, &mut pt, Protection::code());
                    let want = match reference.access(vpn) {
                        Some((pfn, prot)) => (true, pfn, prot),
                        None => {
                            let (pfn, prot) = pt.translate(vpn, Protection::code());
                            reference.install(vpn, pfn, prot);
                            (false, pfn, prot)
                        }
                    };
                    prop_assert_eq!((got.hit, got.pfn, got.prot), want);
                }
                2 => {
                    let got = fast.access(vpn);
                    let want = reference.access(vpn);
                    prop_assert_eq!(got, want);
                }
                _ => {
                    let got = fast.invalidate(vpn);
                    let want = reference.invalidate(vpn);
                    prop_assert_eq!(got, want);
                }
            }
            prop_assert_eq!(fast.stats().accesses, reference.accesses);
            prop_assert_eq!(fast.stats().hits, reference.hits);
            prop_assert_eq!(fast.stats().misses, reference.misses);
        }
        // Final residency agrees entry-for-entry.
        for page in 0..12 {
            let vpn = Vpn::new(page);
            let resident = reference
                .entries
                .iter()
                .find(|e| e.valid && e.vpn == vpn)
                .map(|e| e.pfn);
            prop_assert_eq!(fast.probe(vpn), resident);
        }
    }

    /// The MRU-fast-pathed cache agrees with the divide-and-scan
    /// reference on every hit/miss, every writeback address, and every
    /// counter, for direct-mapped and set-associative shapes — including
    /// 16 ways, the widest the packed per-set bitmasks admit (the
    /// `full_mask` all-ones edge case).
    #[test]
    fn cache_fast_path_matches_reference(
        assoc_sel in 0u64..4,
        ops in proptest::collection::vec(
            (0u64..0x400, proptest::bool::ANY),
            1..400,
        ),
    ) {
        let assoc = [1u32, 2, 4, 16][assoc_sel as usize];
        let org = CacheOrganization {
            size_bytes: u64::from(64 * assoc), // 4 sets x 16-byte blocks
            associativity: assoc,
            block_bytes: 16,
        };
        let mut fast = Cache::new(CacheConfig { organization: org, hit_latency: 1 });
        let mut reference = RefCache::new(org);
        for &(addr, write) in &ops {
            let kind = if write { AccessKind::Write } else { AccessKind::Read };
            let got = fast.access(addr, kind);
            let (hit, writeback) = reference.access(addr, kind);
            prop_assert_eq!(got.hit, hit, "addr {:#x}", addr);
            prop_assert_eq!(got.writeback, writeback, "addr {:#x}", addr);
            prop_assert_eq!(fast.stats().accesses, reference.accesses);
            prop_assert_eq!(fast.stats().hits, reference.hits);
            prop_assert_eq!(fast.stats().misses, reference.misses);
            prop_assert_eq!(fast.stats().writebacks, reference.writebacks);
        }
    }

    /// An ASID-tagged TLB holding a **single** address space is
    /// step-identical to the untagged reference model: with one ASID the
    /// tag bits are a constant fold into every key, so hits, misses,
    /// victim choice, counters, and residency must all be unchanged —
    /// whichever ASID value that is.
    #[test]
    fn single_asid_tlb_matches_untagged_reference(
        shape in 0u64..4,
        asid in 0u64..0x10000,
        ops in proptest::collection::vec((0u64..4, 0u64..12), 1..300),
    ) {
        let org = tlb_org(shape);
        let mut tagged = Tlb::new(TlbConfig { organization: org, miss_penalty: 50 });
        tagged.set_asid(asid as u16);
        let mut reference = RefTlb::new(org);
        let mut pt = PageTable::new();
        for &(op, page) in &ops {
            let vpn = Vpn::new(page);
            match op {
                0 | 1 => {
                    let got = tagged.lookup(vpn, &mut pt, Protection::code());
                    let want = match reference.access(vpn) {
                        Some((pfn, prot)) => (true, pfn, prot),
                        None => {
                            let (pfn, prot) = pt.translate(vpn, Protection::code());
                            reference.install(vpn, pfn, prot);
                            (false, pfn, prot)
                        }
                    };
                    prop_assert_eq!((got.hit, got.pfn, got.prot), want);
                }
                2 => {
                    prop_assert_eq!(tagged.access(vpn), reference.access(vpn));
                }
                _ => {
                    prop_assert_eq!(tagged.invalidate(vpn), reference.invalidate(vpn));
                }
            }
            prop_assert_eq!(tagged.stats().accesses, reference.accesses);
            prop_assert_eq!(tagged.stats().hits, reference.hits);
            prop_assert_eq!(tagged.stats().misses, reference.misses);
        }
        for page in 0..12 {
            let vpn = Vpn::new(page);
            let resident = reference
                .entries
                .iter()
                .find(|e| e.valid && e.vpn == vpn)
                .map(|e| e.pfn);
            prop_assert_eq!(tagged.probe(vpn), resident);
        }
    }

    /// Flush-on-switch never serves a pre-switch translation: after
    /// `invalidate_all`, nothing is resident, and the incoming process's
    /// first lookup of every page misses and returns a translation from
    /// *its own* page table — observable because the outgoing process
    /// allocated its pages as code and the incoming one allocates data,
    /// and the page table's first touch wins.
    #[test]
    fn flush_on_switch_never_serves_a_pre_switch_translation(
        shape in 0u64..4,
        warmup in proptest::collection::vec(0u64..12, 1..100),
        probes in proptest::collection::vec(0u64..12, 1..50),
    ) {
        let org = tlb_org(shape);
        let mut tlb = Tlb::new(TlbConfig { organization: org, miss_penalty: 50 });
        let mut pt_out = PageTable::new();
        for &page in &warmup {
            tlb.lookup(Vpn::new(page), &mut pt_out, Protection::code());
        }

        // Context switch, flush mode: every resident entry is shot down.
        tlb.invalidate_all();
        prop_assert_eq!(tlb.resident_entries(), 0);
        for page in 0..12 {
            prop_assert!(tlb.probe(Vpn::new(page)).is_none());
        }

        // The incoming process (own page table, data pages): its first
        // lookup of each page must miss and must carry the incoming
        // process's protection — a stale pre-switch entry would hit with
        // the outgoing process's code protection.
        let mut pt_in = PageTable::new();
        let mut seen = std::collections::HashSet::new();
        for &page in &probes {
            let got = tlb.lookup(Vpn::new(page), &mut pt_in, Protection::data());
            if seen.insert(page) {
                prop_assert!(!got.hit, "pre-switch translation served for page {}", page);
            }
            prop_assert_eq!(got.prot, Protection::data());
        }
    }

    /// The open-addressed page table agrees with the `HashMap` reference
    /// across interleaved translate / probe / remap / unmap sequences,
    /// including tombstone reuse and growth.
    #[test]
    fn page_table_matches_hashmap_reference(
        ops in proptest::collection::vec((0u64..4, 0u64..48, proptest::bool::ANY), 1..500),
    ) {
        let mut fast = PageTable::new();
        let mut reference = HashPageTable::new();
        for &(op, page, as_code) in &ops {
            let vpn = Vpn::new(page);
            let prot = if as_code { Protection::code() } else { Protection::data() };
            match op {
                0 | 1 => {
                    prop_assert_eq!(fast.translate(vpn, prot), reference.translate(vpn, prot));
                }
                2 => {
                    prop_assert_eq!(fast.remap(vpn), reference.remap(vpn));
                }
                _ => {
                    prop_assert_eq!(fast.unmap(vpn), reference.unmap(vpn));
                }
            }
            prop_assert_eq!(fast.probe(vpn), reference.probe(vpn));
            prop_assert_eq!(fast.mapped_pages(), reference.mapped_pages());
        }
        // Every page the reference still maps is found with the right
        // translation, and no unmapped page is.
        for page in 0..48 {
            let vpn = Vpn::new(page);
            prop_assert_eq!(fast.probe(vpn), reference.probe(vpn));
        }
    }
}

/// The packed per-set record is the unit the hot loop streams over — one
/// per set, adjacent in a dense array. Growing it past a cache line (64
/// bytes) would defeat the point of packing it; today it is 6 bytes
/// (valid/dirty 16-way bitmasks + MRU/LRU way bytes).
#[test]
fn per_set_record_stays_within_a_cache_line() {
    let size = std::mem::size_of::<crate::cache::SetState>();
    assert!(size <= 64, "SetState grew to {size} bytes");
}
