//! The Current Frame Register.

use cfr_types::{Pfn, Protection, Vpn};

/// The Current Frame Register: one `<VPN, PFN, protection>` translation.
///
/// Per the paper's §3.2: the CFR is **not** architecturally visible to the
/// application (no read or write); the hardware uses it directly, and only
/// the OS (supervisor mode) may read, write, or invalidate it — on a context
/// switch it is saved/restored like any other piece of process context, and
/// if the OS must evict or remap the current code page it invalidates the
/// CFR exactly as it would shoot down a TLB entry.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Cfr {
    vpn: Vpn,
    pfn: Pfn,
    prot: Protection,
    valid: bool,
}

impl Cfr {
    /// An invalid (empty) CFR.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Loads a translation (hardware refill after an iTLB lookup, or the OS
    /// restoring process context).
    pub fn load(&mut self, vpn: Vpn, pfn: Pfn, prot: Protection) {
        self.vpn = vpn;
        self.pfn = pfn;
        self.prot = prot;
        self.valid = true;
    }

    /// Whether the register currently holds a translation.
    #[must_use]
    pub fn is_valid(&self) -> bool {
        self.valid
    }

    /// Whether the register holds a valid translation *for `vpn`* — the
    /// comparison HoA's comparator performs every fetch and IA performs on
    /// every BTB hit.
    #[must_use]
    pub fn matches(&self, vpn: Vpn) -> bool {
        self.valid && self.vpn == vpn
    }

    /// The held virtual page number (meaningless when invalid).
    #[must_use]
    pub fn vpn(&self) -> Vpn {
        self.vpn
    }

    /// The held frame (meaningless when invalid).
    #[must_use]
    pub fn pfn(&self) -> Pfn {
        self.pfn
    }

    /// The held protection bits (meaningless when invalid).
    #[must_use]
    pub fn prot(&self) -> Protection {
        self.prot
    }

    /// Invalidates the register (software trigger, OS eviction, context
    /// switch).
    pub fn invalidate(&mut self) {
        self.valid = false;
    }

    /// OS hook: the page holding `vpn` was evicted or remapped; drop the
    /// translation if it is the one we hold.
    pub fn on_page_evicted(&mut self, vpn: Vpn) -> bool {
        if self.matches(vpn) {
            self.invalidate();
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_invalid() {
        let cfr = Cfr::new();
        assert!(!cfr.is_valid());
        assert!(!cfr.matches(Vpn::new(0)));
    }

    #[test]
    fn load_then_match() {
        let mut cfr = Cfr::new();
        cfr.load(Vpn::new(5), Pfn::new(9), Protection::code());
        assert!(cfr.is_valid());
        assert!(cfr.matches(Vpn::new(5)));
        assert!(!cfr.matches(Vpn::new(6)));
        assert_eq!(cfr.pfn(), Pfn::new(9));
        assert!(cfr.prot().executable());
    }

    #[test]
    fn invalidate_clears() {
        let mut cfr = Cfr::new();
        cfr.load(Vpn::new(5), Pfn::new(9), Protection::code());
        cfr.invalidate();
        assert!(!cfr.matches(Vpn::new(5)));
    }

    #[test]
    fn eviction_hook_only_hits_matching_page() {
        let mut cfr = Cfr::new();
        cfr.load(Vpn::new(5), Pfn::new(9), Protection::code());
        assert!(!cfr.on_page_evicted(Vpn::new(4)));
        assert!(cfr.is_valid());
        assert!(cfr.on_page_evicted(Vpn::new(5)));
        assert!(!cfr.is_valid());
        assert!(!cfr.on_page_evicted(Vpn::new(5)), "already gone");
    }
}
