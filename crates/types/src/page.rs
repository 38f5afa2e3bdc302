//! Page geometry: splitting addresses into page number and offset.

use core::fmt;

use crate::{Pfn, PhysAddr, VirtAddr, Vpn};

/// Describes a power-of-two page size and performs every VPN/offset
/// split-and-join in the workspace.
///
/// The paper's default is 4 KB pages (Table 1); its §4.4 observes that CFR
/// coverage — and therefore the savings of every scheme — grows with the
/// page size, which the `fig_pagesize` bench sweeps.
///
/// ```
/// use cfr_types::{PageGeometry, VirtAddr};
///
/// let geom = PageGeometry::new(4096)?;
/// assert_eq!(geom.offset_bits(), 12);
/// let a = VirtAddr::new(0x5432);
/// let b = VirtAddr::new(0x5FFC);
/// assert!(geom.same_page(a, b));
/// # Ok::<(), cfr_types::PageGeometryError>(())
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct PageGeometry {
    page_bytes: u64,
    offset_bits: u32,
}

/// Error returned by [`PageGeometry::new`] for invalid page sizes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PageGeometryError {
    /// The requested page size was not a power of two.
    NotPowerOfTwo {
        /// The rejected size in bytes.
        bytes: u64,
    },
    /// The requested page size was smaller than one instruction.
    TooSmall {
        /// The rejected size in bytes.
        bytes: u64,
    },
}

impl fmt::Display for PageGeometryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::NotPowerOfTwo { bytes } => {
                write!(f, "page size {bytes} is not a power of two")
            }
            Self::TooSmall { bytes } => {
                write!(f, "page size {bytes} is smaller than one instruction")
            }
        }
    }
}

impl std::error::Error for PageGeometryError {}

impl PageGeometry {
    /// Creates a geometry for pages of `page_bytes` bytes.
    ///
    /// # Errors
    ///
    /// Returns [`PageGeometryError`] if `page_bytes` is not a power of two or
    /// is smaller than one instruction ([`crate::INSTRUCTION_BYTES`]).
    pub const fn new(page_bytes: u64) -> Result<Self, PageGeometryError> {
        if !page_bytes.is_power_of_two() {
            return Err(PageGeometryError::NotPowerOfTwo { bytes: page_bytes });
        }
        if page_bytes < crate::INSTRUCTION_BYTES {
            return Err(PageGeometryError::TooSmall { bytes: page_bytes });
        }
        Ok(Self {
            page_bytes,
            offset_bits: page_bytes.trailing_zeros(),
        })
    }

    /// The paper's default geometry: 4 KB pages.
    #[must_use]
    pub const fn default_4k() -> Self {
        match Self::new(4096) {
            Ok(g) => g,
            Err(_) => unreachable!(),
        }
    }

    /// Page size in bytes.
    #[inline]
    #[must_use]
    pub const fn page_bytes(self) -> u64 {
        self.page_bytes
    }

    /// Number of offset bits (log2 of the page size).
    #[inline]
    #[must_use]
    pub const fn offset_bits(self) -> u32 {
        self.offset_bits
    }

    /// Number of instructions that fit on one page.
    #[inline]
    #[must_use]
    pub const fn instructions_per_page(self) -> u64 {
        self.page_bytes / crate::INSTRUCTION_BYTES
    }

    /// Virtual page number of `va`.
    #[inline]
    #[must_use]
    pub const fn vpn(self, va: VirtAddr) -> Vpn {
        Vpn::new(va.raw() >> self.offset_bits)
    }

    /// Physical frame number of `pa`.
    #[inline]
    #[must_use]
    pub const fn pfn(self, pa: PhysAddr) -> Pfn {
        Pfn::new(pa.raw() >> self.offset_bits)
    }

    /// Offset of `va` within its page.
    #[inline]
    #[must_use]
    pub const fn offset(self, va: VirtAddr) -> u64 {
        va.raw() & (self.page_bytes - 1)
    }

    /// Builds the physical address `pfn ++ offset` — the operation the CFR
    /// performs on every bypassed fetch (Figure 1 of the paper).
    ///
    /// # Panics
    ///
    /// Debug-asserts that `offset` fits within the page.
    #[inline]
    #[must_use]
    pub fn join(self, pfn: Pfn, offset: u64) -> PhysAddr {
        debug_assert!(offset < self.page_bytes, "offset {offset} exceeds page");
        PhysAddr::new((pfn.raw() << self.offset_bits) | offset)
    }

    /// Builds a virtual address `vpn ++ offset`.
    ///
    /// # Panics
    ///
    /// Debug-asserts that `offset` fits within the page.
    #[inline]
    #[must_use]
    pub fn join_virt(self, vpn: Vpn, offset: u64) -> VirtAddr {
        debug_assert!(offset < self.page_bytes, "offset {offset} exceeds page");
        VirtAddr::new((vpn.raw() << self.offset_bits) | offset)
    }

    /// First address of the page containing `va`.
    #[inline]
    #[must_use]
    pub const fn page_base(self, va: VirtAddr) -> VirtAddr {
        VirtAddr::new(va.raw() & !(self.page_bytes - 1))
    }

    /// Whether two virtual addresses lie on the same page — the comparison
    /// the HoA comparator performs on every fetch.
    #[inline]
    #[must_use]
    pub const fn same_page(self, a: VirtAddr, b: VirtAddr) -> bool {
        (a.raw() >> self.offset_bits) == (b.raw() >> self.offset_bits)
    }

    /// Whether `va` is the *last* instruction slot on its page (the
    /// BOUNDARY case trigger: the next sequential instruction is on the next
    /// page).
    #[inline]
    #[must_use]
    pub const fn is_last_slot(self, va: VirtAddr) -> bool {
        self.offset(va) == self.page_bytes - crate::INSTRUCTION_BYTES
    }
}

impl Default for PageGeometry {
    fn default() -> Self {
        Self::default_4k()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_bad_sizes() {
        assert_eq!(
            PageGeometry::new(3000),
            Err(PageGeometryError::NotPowerOfTwo { bytes: 3000 })
        );
        assert_eq!(
            PageGeometry::new(2),
            Err(PageGeometryError::TooSmall { bytes: 2 })
        );
        assert!(PageGeometry::new(4096).is_ok());
    }

    #[test]
    fn default_is_4k() {
        let g = PageGeometry::default();
        assert_eq!(g.page_bytes(), 4096);
        assert_eq!(g.offset_bits(), 12);
        assert_eq!(g.instructions_per_page(), 1024);
    }

    #[test]
    fn split_and_join_round_trip() {
        let g = PageGeometry::default_4k();
        let va = VirtAddr::new(0x0042_0ABC);
        assert_eq!(g.vpn(va).raw(), 0x420);
        assert_eq!(g.offset(va), 0xABC);
        assert_eq!(g.join_virt(g.vpn(va), g.offset(va)), va);
        let pa = g.join(Pfn::new(0x77), 0xABC);
        assert_eq!(pa.raw(), 0x77ABC);
        assert_eq!(g.pfn(pa).raw(), 0x77);
    }

    #[test]
    fn same_page_boundaries() {
        let g = PageGeometry::default_4k();
        assert!(g.same_page(VirtAddr::new(0x1000), VirtAddr::new(0x1FFF)));
        assert!(!g.same_page(VirtAddr::new(0x1FFF), VirtAddr::new(0x2000)));
    }

    #[test]
    fn last_slot_detection() {
        let g = PageGeometry::default_4k();
        assert!(g.is_last_slot(VirtAddr::new(0x1FFC)));
        assert!(!g.is_last_slot(VirtAddr::new(0x1FF8)));
        assert!(!g.is_last_slot(VirtAddr::new(0x2000)));
    }

    #[test]
    fn page_base() {
        let g = PageGeometry::default_4k();
        assert_eq!(g.page_base(VirtAddr::new(0x1234)), VirtAddr::new(0x1000));
        assert_eq!(g.page_base(VirtAddr::new(0x1000)), VirtAddr::new(0x1000));
    }

    #[test]
    fn larger_pages() {
        let g = PageGeometry::new(65536).unwrap();
        assert_eq!(g.offset_bits(), 16);
        let va = VirtAddr::new(0x12_3456);
        assert_eq!(g.vpn(va).raw(), 0x12);
        assert_eq!(g.offset(va), 0x3456);
    }
}
