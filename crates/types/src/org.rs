//! Shape descriptors for hardware structures (TLBs, caches).
//!
//! These live in `cfr-types` because both the energy model (`cfr-energy`)
//! and the behavioural models (`cfr-mem`) are parameterized by the same
//! shapes — per-access energy and hit/miss behaviour must always describe
//! the *same* structure.

/// Shape of a TLB: entry count and associativity.
///
/// `associativity == entries` means fully associative (a CAM);
/// `entries == 1` degenerates to a register + comparator, which is how the
/// paper's 1-entry configuration is built (its §4.3.2 notes that even a
/// 1-entry level-1 TLB "needs a comparison to check whether the translation
/// exists").
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TlbOrganization {
    /// Total number of entries.
    pub entries: u32,
    /// Ways per set.
    pub associativity: u32,
}

impl TlbOrganization {
    /// A fully-associative TLB of `entries` entries.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is zero.
    #[must_use]
    pub fn fully_associative(entries: u32) -> Self {
        assert!(entries > 0, "a TLB needs at least one entry");
        Self {
            entries,
            associativity: entries,
        }
    }

    /// A set-associative TLB.
    ///
    /// # Panics
    ///
    /// Panics if arguments are zero, `ways > entries`, or `entries` is not a
    /// multiple of `ways`.
    #[must_use]
    pub fn set_associative(entries: u32, ways: u32) -> Self {
        assert!(entries > 0 && ways > 0, "zero-sized TLB");
        assert!(ways <= entries, "more ways than entries");
        assert!(
            entries.is_multiple_of(ways),
            "entries must be a multiple of ways"
        );
        Self {
            entries,
            associativity: ways,
        }
    }

    /// Whether this organization is a CAM (fully associative, > 1 entry).
    #[must_use]
    pub fn is_cam(&self) -> bool {
        self.entries > 1 && self.associativity == self.entries
    }

    /// Number of sets.
    #[must_use]
    pub fn sets(&self) -> u32 {
        self.entries / self.associativity
    }
}

/// Shape of a cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CacheOrganization {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Ways per set.
    pub associativity: u32,
    /// Block (line) size in bytes.
    pub block_bytes: u32,
}

impl CacheOrganization {
    /// Number of sets.
    ///
    /// # Panics
    ///
    /// Panics if the organization is degenerate (zero block size or more
    /// way-bytes than capacity, or non-power-of-two geometry).
    #[must_use]
    pub fn sets(&self) -> u64 {
        let way_bytes = u64::from(self.block_bytes) * u64::from(self.associativity);
        assert!(
            way_bytes > 0 && way_bytes <= self.size_bytes,
            "degenerate cache"
        );
        assert!(
            self.size_bytes.is_power_of_two() && self.block_bytes.is_power_of_two(),
            "cache geometry must be powers of two"
        );
        self.size_bytes / way_bytes
    }
}

/// How the L1 instruction cache is indexed and tagged (paper §2).
///
/// The paper's three viable combinations; PI-VT is "not really in much use"
/// and excluded, exactly as in the paper. L2 is always PI-PT.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AddressingMode {
    /// Physically indexed, physically tagged: the iTLB sits *before* the
    /// iL1 index on the critical path; translation is needed on every fetch.
    PiPt,
    /// Virtually indexed, physically tagged: iTLB looked up in parallel with
    /// iL1 indexing — off the critical path, but still an energy cost on
    /// every fetch.
    ViPt,
    /// Virtually indexed, virtually tagged: the iTLB is consulted only on an
    /// iL1 miss, serially before the (physical) L2 — power-efficient but the
    /// lookup adds latency on the miss path.
    ViVt,
}

impl AddressingMode {
    /// All three modes, in the paper's presentation order.
    pub const ALL: [AddressingMode; 3] = [
        AddressingMode::PiPt,
        AddressingMode::ViPt,
        AddressingMode::ViVt,
    ];

    /// Whether a fetch demands a translation even on an iL1 hit.
    #[must_use]
    pub fn translates_every_fetch(self) -> bool {
        !matches!(self, AddressingMode::ViVt)
    }

    /// Whether the iTLB lookup is serial with (in front of) the iL1 access.
    #[must_use]
    pub fn itlb_serial_with_il1(self) -> bool {
        matches!(self, AddressingMode::PiPt)
    }
}

impl core::fmt::Display for AddressingMode {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            AddressingMode::PiPt => "PI-PT",
            AddressingMode::ViPt => "VI-PT",
            AddressingMode::ViVt => "VI-VT",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fa_tlb_is_cam() {
        let fa = TlbOrganization::fully_associative(32);
        assert!(fa.is_cam());
        assert_eq!(fa.sets(), 1);
    }

    #[test]
    fn set_associative_sets() {
        let sa = TlbOrganization::set_associative(16, 2);
        assert!(!sa.is_cam());
        assert_eq!(sa.sets(), 8);
    }

    #[test]
    fn single_entry_is_not_cam() {
        assert!(!TlbOrganization::fully_associative(1).is_cam());
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_entries_panics() {
        let _ = TlbOrganization::fully_associative(0);
    }

    #[test]
    #[should_panic(expected = "multiple of ways")]
    fn ragged_panics() {
        let _ = TlbOrganization::set_associative(10, 4);
    }

    #[test]
    fn cache_sets() {
        let c = CacheOrganization {
            size_bytes: 8192,
            associativity: 2,
            block_bytes: 32,
        };
        assert_eq!(c.sets(), 128);
    }

    #[test]
    #[should_panic(expected = "powers of two")]
    fn cache_non_pow2_panics() {
        let c = CacheOrganization {
            size_bytes: 3000,
            associativity: 1,
            block_bytes: 32,
        };
        let _ = c.sets();
    }

    #[test]
    fn addressing_mode_properties() {
        assert!(AddressingMode::PiPt.translates_every_fetch());
        assert!(AddressingMode::ViPt.translates_every_fetch());
        assert!(!AddressingMode::ViVt.translates_every_fetch());
        assert!(AddressingMode::PiPt.itlb_serial_with_il1());
        assert!(!AddressingMode::ViPt.itlb_serial_with_il1());
        assert_eq!(format!("{}", AddressingMode::ViVt), "VI-VT");
        assert_eq!(AddressingMode::ALL.len(), 3);
    }
}
