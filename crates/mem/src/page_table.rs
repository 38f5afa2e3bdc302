//! A deterministic virtual→physical page mapping.
//!
//! Frames are allocated on first touch. The VPN→PFN assignment is a
//! scrambled (but reproducible) bijection of the allocation order, so
//! physically-indexed structures see realistic frame scatter rather than an
//! identity mapping, while runs remain bit-for-bit repeatable.
//!
//! The map itself is a hand-rolled **open-addressed table** (Fibonacci
//! hash of the VPN, linear probing, tombstoned deletion) rather than
//! `std::collections::HashMap`: the page table sits on the simulator's
//! hot path (every TLB miss, every VI-VT iL1 miss), and SipHash plus the
//! std map's per-lookup overhead are measurable there. The table is fully
//! deterministic — no random hasher state — and its behaviour is
//! cross-checked against a `HashMap` reference model by the property
//! suite.

use cfr_types::{Pfn, Protection, Vpn};

/// Multiplying an odd constant modulo 2^k is a bijection, so truncating the
/// product to `FRAME_BITS` still yields unique frames for up to 2^FRAME_BITS
/// allocations.
const FRAME_SCRAMBLE: u64 = 0x9E37_79B1;
const FRAME_BITS: u32 = 28;

/// Fibonacci multiplier (2^64 / φ, forced odd) for the VPN hash.
const HASH_SCRAMBLE: u64 = 0x9E37_79B9_7F4A_7C15;

/// Initial slot-array size; always a power of two.
const INITIAL_CAPACITY: usize = 64;

/// Key of a never-used slot: a probe chain may stop here. Real VPNs stay
/// below both sentinels (page numbers are addresses shifted right by the
/// page bits, so `< 2^52` for any page size the simulator models).
const EMPTY_KEY: u64 = u64::MAX;

/// Key of a deleted slot: a probe chain must continue past, but inserts
/// may reuse it.
const TOMBSTONE_KEY: u64 = u64::MAX - 1;

/// The OS page table: allocates and remembers translations, and supports the
/// eviction/remap hooks the paper's §3.2 OS support needs.
///
/// Layout is structure-of-arrays: probe chains walk a dense `u64` key
/// array (8 bytes per slot, with [`EMPTY_KEY`]/[`TOMBSTONE_KEY`] encoding
/// slot state in the key itself — the same key-mirror pattern as the TLB
/// and cache), and the frame/protection payload lives in a parallel array
/// read only on a key match. A chain over the old `enum Slot` walked
/// 32-byte variants; here it streams one host cache line per eight slots.
#[derive(Clone, Debug, Default)]
pub struct PageTable {
    /// Power-of-two key array (empty until the first insert).
    keys: Vec<u64>,
    /// Payload per slot, parallel to `keys`; meaningful iff the key is a
    /// real VPN.
    frames: Vec<(Pfn, Protection)>,
    /// Live (VPN-keyed) slots.
    live: usize,
    /// Occupied (live + tombstone) slots — what load factor is
    /// measured against, so long tombstone chains trigger a rebuild.
    used: usize,
    allocations: u64,
}

impl PageTable {
    /// Creates an empty page table.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn fresh_pfn(&mut self) -> Pfn {
        let n = self.allocations;
        self.allocations += 1;
        Pfn::new(n.wrapping_mul(FRAME_SCRAMBLE) & ((1 << FRAME_BITS) - 1))
    }

    /// Home slot of `vpn` in a table of `cap` slots (`cap` a power of two).
    #[inline]
    fn home(vpn: Vpn, cap: usize) -> usize {
        // Fibonacci hashing: take the top bits of the scrambled VPN, which
        // mixes high and low VPN bits into the index (pure masking would
        // degenerate for the simulator's contiguous page ranges).
        (vpn.raw().wrapping_mul(HASH_SCRAMBLE) >> (64 - cap.trailing_zeros())) as usize
    }

    /// Grows (or initially allocates) the slot arrays and rehashes every
    /// live entry. Tombstones are dropped, so `used == live` afterwards.
    fn grow(&mut self) {
        let new_cap = (self.keys.len() * 2).max(INITIAL_CAPACITY);
        let old_keys = std::mem::replace(&mut self.keys, vec![EMPTY_KEY; new_cap]);
        let old_frames = std::mem::replace(
            &mut self.frames,
            vec![(Pfn::default(), Protection::default()); new_cap],
        );
        self.used = self.live;
        for (key, payload) in old_keys.into_iter().zip(old_frames) {
            if key < TOMBSTONE_KEY {
                let mut i = Self::home(Vpn::new(key), new_cap);
                loop {
                    if self.keys[i] == EMPTY_KEY {
                        self.keys[i] = key;
                        self.frames[i] = payload;
                        break;
                    }
                    i = (i + 1) & (new_cap - 1);
                }
            }
        }
    }

    /// Index of the live slot holding `vpn`, if any.
    #[inline]
    fn find(&self, vpn: Vpn) -> Option<usize> {
        if self.keys.is_empty() {
            return None;
        }
        let key = vpn.raw();
        let mask = self.keys.len() - 1;
        let mut i = Self::home(vpn, self.keys.len());
        loop {
            let k = self.keys[i];
            if k == key {
                return Some(i);
            }
            if k == EMPTY_KEY {
                return None;
            }
            i = (i + 1) & mask;
        }
    }

    /// Translates `vpn`, allocating a frame with `prot` protection on first
    /// touch. Subsequent calls return the same frame (until a
    /// [`remap`](Self::remap)).
    #[inline]
    pub fn translate(&mut self, vpn: Vpn, prot: Protection) -> (Pfn, Protection) {
        debug_assert!(vpn.raw() < TOMBSTONE_KEY, "VPN collides with sentinels");
        // Keep at least one `Empty` slot per probe chain: grow at 7/8
        // occupancy (tombstones included, so deletions cannot degrade
        // probing indefinitely).
        if self.keys.is_empty() || (self.used + 1) * 8 > self.keys.len() * 7 {
            self.grow();
        }
        let key = vpn.raw();
        let mask = self.keys.len() - 1;
        let mut i = Self::home(vpn, self.keys.len());
        let mut reuse: Option<usize> = None;
        loop {
            let k = self.keys[i];
            if k == key {
                return self.frames[i];
            }
            if k == EMPTY_KEY {
                break;
            }
            if k == TOMBSTONE_KEY && reuse.is_none() {
                reuse = Some(i);
            }
            i = (i + 1) & mask;
        }
        let pfn = self.fresh_pfn();
        match reuse {
            Some(t) => {
                self.keys[t] = key;
                self.frames[t] = (pfn, prot);
            }
            None => {
                self.keys[i] = key;
                self.frames[i] = (pfn, prot);
                self.used += 1;
            }
        }
        self.live += 1;
        (pfn, prot)
    }

    /// Looks up an existing translation without allocating.
    #[must_use]
    pub fn probe(&self, vpn: Vpn) -> Option<(Pfn, Protection)> {
        self.find(vpn).map(|i| self.frames[i])
    }

    /// Moves `vpn` to a fresh frame (page migration / swap-in at a new
    /// location). Returns the new frame, or `None` if the page was never
    /// mapped. Any cached copy of the old translation — in a TLB *or in the
    /// CFR* — is now stale; the paper requires the OS to invalidate both.
    pub fn remap(&mut self, vpn: Vpn) -> Option<Pfn> {
        let i = self.find(vpn)?;
        let pfn = self.fresh_pfn();
        self.frames[i].0 = pfn;
        Some(pfn)
    }

    /// Removes the mapping for `vpn` (page evicted to backing store).
    pub fn unmap(&mut self, vpn: Vpn) -> Option<Pfn> {
        let i = self.find(vpn)?;
        let pfn = self.frames[i].0;
        self.keys[i] = TOMBSTONE_KEY;
        self.live -= 1;
        Some(pfn)
    }

    /// Number of live mappings.
    #[must_use]
    pub fn mapped_pages(&self) -> usize {
        self.live
    }

    /// The heap bytes the table's slot arrays hold.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        self.keys.capacity() * std::mem::size_of::<u64>()
            + self.frames.capacity() * std::mem::size_of::<(Pfn, Protection)>()
    }
}

#[cfg(test)]
pub(crate) mod reference {
    //! The pre-optimization `HashMap`-backed page table, kept as the
    //! reference model the property suite cross-checks the open-addressed
    //! table against.

    use std::collections::HashMap;

    use cfr_types::{Pfn, Protection, Vpn};

    use super::{FRAME_BITS, FRAME_SCRAMBLE};

    /// `HashMap`-backed reference page table (identical observable
    /// behaviour, slower).
    #[derive(Clone, Debug, Default)]
    pub struct HashPageTable {
        map: HashMap<Vpn, (Pfn, Protection)>,
        allocations: u64,
    }

    impl HashPageTable {
        pub fn new() -> Self {
            Self::default()
        }

        fn fresh_pfn(&mut self) -> Pfn {
            let n = self.allocations;
            self.allocations += 1;
            Pfn::new(n.wrapping_mul(FRAME_SCRAMBLE) & ((1 << FRAME_BITS) - 1))
        }

        pub fn translate(&mut self, vpn: Vpn, prot: Protection) -> (Pfn, Protection) {
            if let Some(&entry) = self.map.get(&vpn) {
                return entry;
            }
            let pfn = self.fresh_pfn();
            self.map.insert(vpn, (pfn, prot));
            (pfn, prot)
        }

        pub fn probe(&self, vpn: Vpn) -> Option<(Pfn, Protection)> {
            self.map.get(&vpn).copied()
        }

        pub fn remap(&mut self, vpn: Vpn) -> Option<Pfn> {
            if !self.map.contains_key(&vpn) {
                return None;
            }
            let pfn = self.fresh_pfn();
            let entry = self.map.get_mut(&vpn).expect("checked above");
            entry.0 = pfn;
            Some(pfn)
        }

        pub fn unmap(&mut self, vpn: Vpn) -> Option<Pfn> {
            self.map.remove(&vpn).map(|(pfn, _)| pfn)
        }

        pub fn mapped_pages(&self) -> usize {
            self.map.len()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn translation_is_stable() {
        let mut pt = PageTable::new();
        let (a, _) = pt.translate(Vpn::new(5), Protection::code());
        let (b, _) = pt.translate(Vpn::new(5), Protection::code());
        assert_eq!(a, b);
        assert_eq!(pt.mapped_pages(), 1);
    }

    #[test]
    fn distinct_pages_get_distinct_frames() {
        let mut pt = PageTable::new();
        let mut seen = std::collections::HashSet::new();
        for i in 0..10_000 {
            let (pfn, _) = pt.translate(Vpn::new(i), Protection::data());
            assert!(seen.insert(pfn), "duplicate frame for page {i}");
        }
        assert_eq!(pt.mapped_pages(), 10_000, "growth preserves every entry");
        for i in 0..10_000 {
            assert!(pt.probe(Vpn::new(i)).is_some(), "page {i} lost in growth");
        }
    }

    #[test]
    fn frames_are_scrambled_not_identity() {
        let mut pt = PageTable::new();
        let (a, _) = pt.translate(Vpn::new(0), Protection::code());
        let (b, _) = pt.translate(Vpn::new(1), Protection::code());
        assert_ne!(b.raw(), a.raw() + 1, "frames should not be sequential");
    }

    #[test]
    fn protection_is_remembered() {
        let mut pt = PageTable::new();
        pt.translate(Vpn::new(9), Protection::data());
        let (_, prot) = pt.translate(Vpn::new(9), Protection::code());
        assert_eq!(prot, Protection::data(), "first touch wins");
    }

    #[test]
    fn probe_does_not_allocate() {
        let mut pt = PageTable::new();
        assert_eq!(pt.probe(Vpn::new(1)), None);
        assert_eq!(pt.mapped_pages(), 0);
        pt.translate(Vpn::new(1), Protection::code());
        assert!(pt.probe(Vpn::new(1)).is_some());
    }

    #[test]
    fn remap_changes_frame() {
        let mut pt = PageTable::new();
        let (old, _) = pt.translate(Vpn::new(3), Protection::code());
        let new = pt.remap(Vpn::new(3)).unwrap();
        assert_ne!(old, new);
        let (cur, _) = pt.translate(Vpn::new(3), Protection::code());
        assert_eq!(cur, new);
        assert_eq!(pt.remap(Vpn::new(999)), None);
    }

    #[test]
    fn unmap_removes() {
        let mut pt = PageTable::new();
        pt.translate(Vpn::new(3), Protection::code());
        assert!(pt.unmap(Vpn::new(3)).is_some());
        assert_eq!(pt.probe(Vpn::new(3)), None);
        assert_eq!(pt.unmap(Vpn::new(3)), None);
    }

    #[test]
    fn unmap_then_translate_reuses_the_chain() {
        // Tombstone handling: a VPN whose probe chain crosses a deleted
        // slot must still be findable, and a re-translate must not
        // duplicate it.
        let mut pt = PageTable::new();
        for i in 0..100 {
            pt.translate(Vpn::new(i), Protection::code());
        }
        for i in (0..100).step_by(2) {
            assert!(pt.unmap(Vpn::new(i)).is_some());
        }
        assert_eq!(pt.mapped_pages(), 50);
        for i in (1..100).step_by(2) {
            assert!(pt.probe(Vpn::new(i)).is_some(), "survivor {i} lost");
        }
        for i in (0..100).step_by(2) {
            pt.translate(Vpn::new(i), Protection::data());
        }
        assert_eq!(pt.mapped_pages(), 100);
    }

    #[test]
    fn heavy_churn_stays_bounded_and_correct() {
        // Repeated unmap/translate cycles must not wedge probing or leak
        // occupancy (tombstones are reclaimed on growth).
        let mut pt = PageTable::new();
        for round in 0..50u64 {
            for i in 0..64 {
                pt.translate(Vpn::new(round * 64 + i), Protection::data());
            }
            for i in 0..64 {
                assert!(pt.unmap(Vpn::new(round * 64 + i)).is_some());
            }
        }
        assert_eq!(pt.mapped_pages(), 0);
        pt.translate(Vpn::new(7), Protection::code());
        assert_eq!(pt.mapped_pages(), 1);
    }

    #[test]
    fn determinism_across_instances() {
        let mut a = PageTable::new();
        let mut b = PageTable::new();
        for i in [5u64, 1, 9, 2] {
            assert_eq!(
                a.translate(Vpn::new(i), Protection::code()),
                b.translate(Vpn::new(i), Protection::code())
            );
        }
    }
}
