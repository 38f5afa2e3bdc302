//! Set-associative, true-LRU, write-back/write-allocate blocking cache.
//!
//! The cache is deliberately *address-space agnostic*: it indexes and tags
//! whatever `u64` key the caller supplies. The paper's PI-PT / VI-PT / VI-VT
//! distinction is about **which** address (virtual or physical, for index
//! and for tag) reaches a cache — that policy lives with the fetch engine,
//! not here. A VI-VT iL1 is this cache fed virtual addresses; a PI-PT iL1 is
//! this cache fed physical ones.

use cfr_types::{CacheOrganization, RecordError, RecordReader, RecordWriter};

/// Configuration of one cache level.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Geometry (capacity, ways, block size).
    pub organization: CacheOrganization,
    /// Latency of a hit, in cycles.
    pub hit_latency: u32,
}

impl CacheConfig {
    /// The paper's default iL1: 8 KB direct-mapped, 32-byte blocks, 1 cycle.
    #[must_use]
    pub fn default_il1() -> Self {
        Self {
            organization: CacheOrganization {
                size_bytes: 8 * 1024,
                associativity: 1,
                block_bytes: 32,
            },
            hit_latency: 1,
        }
    }

    /// The paper's default dL1: 8 KB 2-way, 32-byte blocks, 1 cycle.
    #[must_use]
    pub fn default_dl1() -> Self {
        Self {
            organization: CacheOrganization {
                size_bytes: 8 * 1024,
                associativity: 2,
                block_bytes: 32,
            },
            hit_latency: 1,
        }
    }

    /// The paper's default unified L2: 1 MB 2-way, 128-byte blocks, 10
    /// cycles.
    #[must_use]
    pub fn default_l2() -> Self {
        Self {
            organization: CacheOrganization {
                size_bytes: 1024 * 1024,
                associativity: 2,
                block_bytes: 128,
            },
            hit_latency: 10,
        }
    }
}

/// Read or write access.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A load or an instruction fetch.
    Read,
    /// A store (write-allocate).
    Write,
}

/// Outcome of one cache access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AccessResult {
    /// Whether the block was present.
    pub hit: bool,
    /// Block-aligned address of a dirty block evicted by this access, if
    /// any. The caller owns writing it back to the next level.
    pub writeback: Option<u64>,
}

/// Hit/miss/writeback counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total accesses.
    pub accesses: u64,
    /// Hits.
    pub hits: u64,
    /// Misses.
    pub misses: u64,
    /// Dirty evictions handed to the caller.
    pub writebacks: u64,
}

impl CacheStats {
    /// Miss rate in [0, 1]; 0 for an untouched cache.
    #[must_use]
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }

    /// Serializes as `cachestats <accesses> <hits> <misses> <writebacks>`
    /// (persistent run store codec).
    pub fn to_record(&self, w: &mut RecordWriter) {
        w.token("cachestats");
        w.u64(self.accesses);
        w.u64(self.hits);
        w.u64(self.misses);
        w.u64(self.writebacks);
    }

    /// Parses a [`Self::to_record`] stream.
    ///
    /// # Errors
    ///
    /// Errors on a malformed stream.
    pub fn from_record(r: &mut RecordReader<'_>) -> Result<Self, RecordError> {
        r.expect("cachestats")?;
        Ok(Self {
            accesses: r.u64()?,
            hits: r.u64()?,
            misses: r.u64()?,
            writebacks: r.u64()?,
        })
    }
}

/// Sentinel for [`Cache::mru_block`]: no last-hit block to fast-path
/// through. Real block addresses are `addr >> block_bits < 2^60`, so the
/// all-ones value can never collide with one.
const NO_MRU_BLOCK: u64 = u64::MAX;

/// Key-mirror value for an invalid way. Real tags are block addresses
/// divided by the set count (`< 2^60`, see [`NO_MRU_BLOCK`]), so the
/// all-ones value can never collide with one — a single dense scan of
/// the key row therefore answers "valid way holding this tag" with no
/// separate validity check.
const NO_TAG: u64 = u64::MAX;

/// Sentinel for [`SetState::lru_way`]: the set's LRU way is not cached
/// and the next victim choice must scan the stamp row.
const UNKNOWN_LRU: u8 = u8::MAX;

/// Packed per-set hot state: everything a lookup touches besides the key
/// and stamp rows, in one ≤ 64-byte record (pinned by a size test) so a
/// set probe pulls a single host cache line of bookkeeping.
#[derive(Clone, Copy, Debug)]
pub(crate) struct SetState {
    /// Bitmask of valid ways (bit `w` = way `w`; associativity ≤ 16, so
    /// the whole record is 6 bytes and a 1 MB L2's per-set array fits in
    /// ~48 KB of host memory instead of ~200 KB).
    valid: u16,
    /// Bitmask of dirty ways.
    dirty: u16,
    /// MRU hint: the way most recently touched in this set. The way scan
    /// probes it first — a cross-set access pattern defeats the global
    /// last-block fast path but usually re-lands on the same way per set.
    /// Purely an ordering hint; never affects results.
    mru_way: u8,
    /// LRU summary: the way the victim rule would evict from a full set,
    /// or [`UNKNOWN_LRU`]. Maintained exactly: a scan caches the
    /// runner-up stamp's way (which becomes LRU once the victim is
    /// restamped), and any touch of the cached way invalidates it — so a
    /// full-set miss streak pays for every *other* stamp-row scan.
    lru_way: u8,
}

impl Default for SetState {
    fn default() -> Self {
        Self {
            valid: 0,
            dirty: 0,
            mru_way: 0,
            lru_way: UNKNOWN_LRU,
        }
    }
}

impl SetState {
    /// Picks the replacement victim: the first invalid way if any, else
    /// the true-LRU way (the pinned preference order; the old
    /// `min_by_key(lru + 1)` encoding wrapped if `lru == u64::MAX`).
    ///
    /// Stamps are unique — each is a distinct tick — so the minimum is
    /// unambiguous. A full-set scan also caches the runner-up in
    /// [`SetState::lru_way`]: once the caller restamps the victim, the
    /// runner-up *is* the set's LRU, so the next miss (absent an
    /// intervening touch of that way) skips the scan.
    #[inline]
    fn victim(&mut self, assoc: usize, lru_row: &[u64]) -> usize {
        debug_assert_eq!(self.valid, full_mask(assoc), "caller handles invalid ways");
        if self.lru_way != UNKNOWN_LRU {
            let way = self.lru_way as usize;
            // The victim is about to become MRU and the runner-up is
            // unknown without a scan; re-arm lazily.
            self.lru_way = UNKNOWN_LRU;
            return way;
        }
        let mut min = 0;
        for (i, &stamp) in lru_row.iter().enumerate().skip(1) {
            if stamp < lru_row[min] {
                min = i;
            }
        }
        let mut second = usize::from(min == 0);
        for (i, &stamp) in lru_row.iter().enumerate() {
            if i != min && stamp < lru_row[second] {
                second = i;
            }
        }
        self.lru_way = second as u8;
        min
    }
}

/// Valid-mask value of a fully-populated set.
#[inline]
fn full_mask(assoc: usize) -> u16 {
    match assoc {
        16 => u16::MAX,
        _ => (1u16 << assoc) - 1,
    }
}

/// A blocking, set-associative, true-LRU, write-back/write-allocate cache.
///
/// Metadata is laid out **structure-of-arrays**: a dense tag-key row per
/// set (`u64` each, [`NO_TAG`] = invalid — the same key-mirror pattern the
/// TLB proved), a dense LRU-stamp row, and one packed [`SetState`] record
/// of per-set hot state. A tag walk or victim scan streams one or two
/// host cache lines instead of striding over 32-byte way structs — on the
/// modeled 1 MB L2, whose way metadata is larger than the host L1, that
/// is the difference between one host miss per probe and several.
///
/// Accesses check the **last-hit block first** (an MRU fast path):
/// with a 32-byte block, eight consecutive instruction fetches land on
/// the same block, so most accesses — especially on the direct-mapped
/// iL1 — skip the set/tag decomposition and the way scan entirely. The
/// fast path performs exactly the bookkeeping the scan would (tick, LRU
/// stamp, dirty bit, hit counter), so replacement behaviour and
/// statistics are bit-identical.
#[derive(Clone, Debug)]
pub struct Cache {
    cfg: CacheConfig,
    /// Tag per way ([`NO_TAG`] = invalid), `sets * associativity`,
    /// row-major by set.
    keys: Vec<u64>,
    /// LRU stamp per way, parallel to `keys`. Compared only between valid
    /// ways, whose stamps are distinct ticks. **Empty for associativity
    /// ≤ 2**: a direct-mapped set has one victim candidate, and a 2-way
    /// set's true-LRU way is always the one [`SetState::mru_way`] does
    /// *not* name — so the paper's entire Table 1 hierarchy (DM iL1,
    /// 2-way dL1, 2-way L2) runs with zero stamp traffic.
    lru: Vec<u64>,
    /// One packed hot-state record per set.
    set_state: Vec<SetState>,
    assoc: usize,
    sets: u64,
    /// `(sets - 1, log2(sets))` when the set count is a power of two (the
    /// common case), letting [`Cache::set_and_tag`] mask and shift instead
    /// of dividing.
    set_mask_shift: Option<(u64, u32)>,
    /// Block address (`addr >> block_bits`) of the most recently hit or
    /// refilled block; [`NO_MRU_BLOCK`] when invalid.
    mru_block: u64,
    /// Set and way (within the set) of that block (valid iff `mru_block`
    /// is).
    mru_set: usize,
    mru_way: usize,
    block_bits: u32,
    tick: u64,
    stats: CacheStats,
}

impl Cache {
    /// Builds a cache.
    ///
    /// # Panics
    ///
    /// Panics if the organization is degenerate (see
    /// [`CacheOrganization::sets`]).
    #[must_use]
    pub fn new(cfg: CacheConfig) -> Self {
        let sets = cfg.organization.sets();
        let assoc = cfg.organization.associativity as usize;
        assert!(
            (1..=16).contains(&assoc),
            "associativity {assoc} exceeds the 16-way per-set bitmasks \
             (wide CAM-style structures belong in `Tlb`)"
        );
        Self {
            cfg,
            keys: vec![NO_TAG; sets as usize * assoc],
            lru: if assoc > 2 {
                vec![0; sets as usize * assoc]
            } else {
                Vec::new()
            },
            set_state: vec![SetState::default(); sets as usize],
            assoc,
            sets,
            set_mask_shift: sets
                .is_power_of_two()
                .then(|| (sets - 1, sets.trailing_zeros())),
            mru_block: NO_MRU_BLOCK,
            mru_set: 0,
            mru_way: 0,
            block_bits: cfg.organization.block_bytes.trailing_zeros(),
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    /// The configuration this cache was built with.
    #[must_use]
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Hit latency in cycles.
    #[must_use]
    pub fn hit_latency(&self) -> u32 {
        self.cfg.hit_latency
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    #[inline]
    fn set_and_tag(&self, addr: u64) -> (usize, u64) {
        let block = addr >> self.block_bits;
        match self.set_mask_shift {
            Some((mask, shift)) => ((block & mask) as usize, block >> shift),
            None => ((block % self.sets) as usize, block / self.sets),
        }
    }

    /// The one place hit-path and refill LRU bookkeeping lives: records
    /// `way` as the set's MRU and — only for associativity > 2, where
    /// stamps exist — stamps it at the current tick, dropping the cached
    /// LRU summary if this touch outdated it. For associativity ≤ 2 the
    /// MRU hint alone determines replacement, so a touch is one `u16`
    /// store into the packed set record.
    #[inline]
    fn touch(&mut self, set: usize, way: usize) {
        self.set_state[set].mru_way = way as u8;
        if self.assoc > 2 {
            self.lru[set * self.assoc + way] = self.tick;
            let st = &mut self.set_state[set];
            if st.lru_way == way as u8 {
                st.lru_way = UNKNOWN_LRU;
            }
        }
    }

    /// Picks the replacement victim for `set` (the pinned preference
    /// order: first invalid way by index, else the true-LRU way).
    #[inline]
    fn pick_victim(&mut self, set: usize) -> usize {
        let valid = self.set_state[set].valid;
        if valid != full_mask(self.assoc) {
            return (!valid).trailing_zeros() as usize;
        }
        match self.assoc {
            // Direct-mapped: the only way.
            1 => 0,
            // 2-way true LRU: the way not touched most recently. Exactly
            // the stamp argmin — within a full set both stamps are
            // distinct ticks and `mru_way` holds the later one.
            2 => 1 - self.set_state[set].mru_way as usize,
            _ => {
                let base = set * self.assoc;
                self.set_state[set].victim(self.assoc, &self.lru[base..base + self.assoc])
            }
        }
    }

    /// Accesses `addr`, allocating on a miss. Returns hit/miss and any dirty
    /// eviction the caller must write back.
    #[inline]
    pub fn access(&mut self, addr: u64, kind: AccessKind) -> AccessResult {
        self.tick += 1;
        self.stats.accesses += 1;
        let block = addr >> self.block_bits;
        // MRU fast path: same block as the last hit — no set/tag split,
        // no way scan.
        if block == self.mru_block {
            self.touch(self.mru_set, self.mru_way);
            if kind == AccessKind::Write {
                self.set_state[self.mru_set].dirty |= 1 << self.mru_way;
            }
            self.stats.hits += 1;
            return AccessResult {
                hit: true,
                writeback: None,
            };
        }
        let (set, tag) = self.set_and_tag(addr);
        debug_assert!(tag < NO_TAG, "tag collides with the invalid sentinel");
        let base = set * self.assoc;

        // Way lookup: the set's MRU-hint way first, then the dense key
        // row (at most one way can hold the tag, so order never changes
        // the result).
        let keys_row = &self.keys[base..base + self.assoc];
        let hint = self.set_state[set].mru_way as usize;
        let found = if hint < self.assoc && keys_row[hint] == tag {
            Some(hint)
        } else {
            keys_row.iter().position(|&k| k == tag)
        };
        if let Some(way) = found {
            self.touch(set, way);
            if kind == AccessKind::Write {
                self.set_state[set].dirty |= 1 << way;
            }
            self.mru_block = block;
            self.mru_set = set;
            self.mru_way = way;
            self.stats.hits += 1;
            return AccessResult {
                hit: true,
                writeback: None,
            };
        }

        self.stats.misses += 1;
        let victim = self.pick_victim(set);
        let vbit = 1u16 << victim;
        let st = &mut self.set_state[set];
        let writeback = if st.valid & st.dirty & vbit != 0 {
            self.stats.writebacks += 1;
            Some(((self.keys[base + victim] * self.sets) + set as u64) << self.block_bits)
        } else {
            None
        };
        st.valid |= vbit;
        if kind == AccessKind::Write {
            st.dirty |= vbit;
        } else {
            st.dirty &= !vbit;
        }
        self.touch(set, victim);
        self.keys[base + victim] = tag;
        self.mru_block = block;
        self.mru_set = set;
        self.mru_way = victim;
        AccessResult {
            hit: false,
            writeback,
        }
    }

    /// Whether `addr` is resident, without touching LRU state or stats.
    #[must_use]
    pub fn probe(&self, addr: u64) -> bool {
        let (set, tag) = self.set_and_tag(addr);
        let base = set * self.assoc;
        self.keys[base..base + self.assoc].contains(&tag)
    }

    /// Invalidates everything (e.g., on an address-space switch for a
    /// virtually-tagged cache without ASIDs).
    pub fn invalidate_all(&mut self) {
        self.mru_block = NO_MRU_BLOCK;
        self.keys.fill(NO_TAG);
        self.set_state.fill(SetState::default());
    }

    /// Number of resident blocks.
    #[must_use]
    pub fn resident_blocks(&self) -> usize {
        self.set_state
            .iter()
            .map(|s| s.valid.count_ones() as usize)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_stats_record_round_trips() {
        let stats = CacheStats {
            accesses: u64::MAX,
            hits: 3,
            misses: 2,
            writebacks: 1,
        };
        let mut w = RecordWriter::new();
        stats.to_record(&mut w);
        let record = w.finish();
        let mut r = RecordReader::new(&record);
        assert_eq!(CacheStats::from_record(&mut r).unwrap(), stats);
        r.finish().unwrap();
        assert!(CacheStats::from_record(&mut RecordReader::new("tlbstats 1 2 3 4")).is_err());
    }

    fn tiny(assoc: u32) -> Cache {
        // 4 sets x assoc ways x 16-byte blocks.
        Cache::new(CacheConfig {
            organization: CacheOrganization {
                size_bytes: u64::from(64 * assoc),
                associativity: assoc,
                block_bytes: 16,
            },
            hit_latency: 1,
        })
    }

    #[test]
    fn default_configs_match_table1() {
        let il1 = Cache::new(CacheConfig::default_il1());
        assert_eq!(il1.config().organization.sets(), 256);
        let dl1 = Cache::new(CacheConfig::default_dl1());
        assert_eq!(dl1.config().organization.sets(), 128);
        let l2 = Cache::new(CacheConfig::default_l2());
        assert_eq!(l2.config().organization.sets(), 4096);
        assert_eq!(l2.hit_latency(), 10);
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = tiny(1);
        assert!(!c.access(0x100, AccessKind::Read).hit);
        assert!(c.access(0x100, AccessKind::Read).hit);
        assert!(c.access(0x10F, AccessKind::Read).hit, "same block");
        assert!(!c.access(0x110, AccessKind::Read).hit, "next block");
        assert_eq!(c.stats().accesses, 4);
        assert_eq!(c.stats().hits, 2);
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn direct_mapped_conflict() {
        let mut c = tiny(1); // 4 sets, 16B blocks: addresses 64 apart conflict
        c.access(0x000, AccessKind::Read);
        c.access(0x040, AccessKind::Read); // same set, evicts
        assert!(!c.access(0x000, AccessKind::Read).hit);
    }

    #[test]
    fn two_way_holds_two_conflicting_blocks() {
        let mut c = tiny(2);
        c.access(0x000, AccessKind::Read);
        c.access(0x040, AccessKind::Read);
        assert!(c.access(0x000, AccessKind::Read).hit);
        assert!(c.access(0x040, AccessKind::Read).hit);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny(2);
        c.access(0x000, AccessKind::Read); // way A
        c.access(0x040, AccessKind::Read); // way B
        c.access(0x000, AccessKind::Read); // touch A -> B is LRU
        c.access(0x080, AccessKind::Read); // evicts B
        assert!(c.access(0x000, AccessKind::Read).hit);
        assert!(!c.access(0x040, AccessKind::Read).hit);
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = tiny(1);
        c.access(0x000, AccessKind::Write);
        let r = c.access(0x040, AccessKind::Read); // evicts dirty 0x000
        assert_eq!(r.writeback, Some(0x000));
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn clean_eviction_no_writeback() {
        let mut c = tiny(1);
        c.access(0x000, AccessKind::Read);
        let r = c.access(0x040, AccessKind::Read);
        assert_eq!(r.writeback, None);
    }

    #[test]
    fn write_hit_marks_dirty() {
        let mut c = tiny(1);
        c.access(0x000, AccessKind::Read);
        c.access(0x000, AccessKind::Write);
        let r = c.access(0x040, AccessKind::Read);
        assert_eq!(r.writeback, Some(0x000));
    }

    #[test]
    fn writeback_address_is_block_aligned() {
        let mut c = tiny(1);
        c.access(0x137, AccessKind::Write);
        let r = c.access(0x177, AccessKind::Read); // same set (0x130>>4=19, %4=3; 0x170>>4=23,%4=3)
        assert_eq!(r.writeback, Some(0x130));
    }

    #[test]
    fn probe_does_not_disturb() {
        let mut c = tiny(1);
        c.access(0x000, AccessKind::Read);
        let before = *c.stats();
        assert!(c.probe(0x00F));
        assert!(!c.probe(0x040));
        assert_eq!(*c.stats(), before);
    }

    #[test]
    fn invalidate_all_empties() {
        let mut c = tiny(2);
        c.access(0x000, AccessKind::Write);
        c.access(0x040, AccessKind::Read);
        assert_eq!(c.resident_blocks(), 2);
        c.invalidate_all();
        assert_eq!(c.resident_blocks(), 0);
        assert!(!c.access(0x000, AccessKind::Read).hit);
        // Dirty state must not leak a writeback after invalidation.
        assert!(c.access(0x040, AccessKind::Read).writeback.is_none());
    }

    #[test]
    fn post_flush_access_cannot_hit_via_last_hit_fast_path() {
        // Regression (flush-on-switch): the last-hit block fast path must
        // be cleared by `invalidate_all` — an access right after a flush
        // must miss even on the block the fast path was parked on.
        let mut c = tiny(2);
        for _ in 0..8 {
            c.access(0x000, AccessKind::Read); // park the MRU block fast path
        }
        let hits_before = c.stats().hits;
        c.invalidate_all();
        let after = c.access(0x000, AccessKind::Read);
        assert!(!after.hit, "stale last-hit block served after flush");
        assert_eq!(c.stats().hits, hits_before);
    }

    #[test]
    fn miss_rate() {
        let mut c = tiny(1);
        c.access(0x000, AccessKind::Read);
        c.access(0x000, AccessKind::Read);
        assert!((c.stats().miss_rate() - 0.5).abs() < 1e-12);
        assert_eq!(CacheStats::default().miss_rate(), 0.0);
    }
}
