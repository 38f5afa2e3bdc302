//! Virtual/physical address and page-number newtypes.
//!
//! All four types are thin wrappers over `u64` that exist to make it a
//! *compile error* to hand a virtual quantity to a physically-addressed
//! structure (or vice versa) — the exact confusion the paper's cache
//! addressing taxonomy (PI-PT / VI-PT / VI-VT) is about.

use core::fmt;

macro_rules! addr_newtype {
    ($(#[$meta:meta])* $name:ident) => {
        $(#[$meta])*
        #[derive(Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(u64);

        impl $name {
            /// Wraps a raw 64-bit value.
            #[inline]
            pub const fn new(raw: u64) -> Self {
                Self(raw)
            }

            /// Returns the raw 64-bit value.
            #[inline]
            pub const fn raw(self) -> u64 {
                self.0
            }

            /// Returns the address advanced by `bytes`.
            ///
            /// # Panics
            ///
            /// Panics in debug builds on overflow, like ordinary integer
            /// addition.
            #[inline]
            #[must_use]
            pub const fn add(self, bytes: u64) -> Self {
                Self(self.0 + bytes)
            }

            /// Returns the checked sum, or `None` on overflow.
            #[inline]
            #[must_use]
            pub const fn checked_add(self, bytes: u64) -> Option<Self> {
                match self.0.checked_add(bytes) {
                    Some(v) => Some(Self(v)),
                    None => None,
                }
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!(stringify!($name), "({:#x})"), self.0)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{:#x}", self.0)
            }
        }

        impl fmt::LowerHex for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt::LowerHex::fmt(&self.0, f)
            }
        }

        impl fmt::UpperHex for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt::UpperHex::fmt(&self.0, f)
            }
        }

        impl fmt::Binary for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt::Binary::fmt(&self.0, f)
            }
        }

        impl fmt::Octal for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt::Octal::fmt(&self.0, f)
            }
        }

        impl From<u64> for $name {
            fn from(raw: u64) -> Self {
                Self(raw)
            }
        }

        impl From<$name> for u64 {
            fn from(v: $name) -> u64 {
                v.0
            }
        }
    };
}

addr_newtype! {
    /// A virtual (program-visible) byte address.
    ///
    /// The program counter and every branch target in the synthetic ISA are
    /// `VirtAddr`s; only the memory hierarchy ever sees a [`PhysAddr`].
    VirtAddr
}

addr_newtype! {
    /// A physical (post-translation) byte address.
    PhysAddr
}

addr_newtype! {
    /// A virtual page number: the high-order bits of a [`VirtAddr`].
    Vpn
}

addr_newtype! {
    /// A physical frame number: the high-order bits of a [`PhysAddr`].
    Pfn
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raw_round_trips() {
        let v = VirtAddr::new(0xdead_beef);
        assert_eq!(v.raw(), 0xdead_beef);
        assert_eq!(u64::from(v), 0xdead_beef);
        assert_eq!(VirtAddr::from(0xdead_beefu64), v);
    }

    #[test]
    fn add_advances() {
        let v = VirtAddr::new(16);
        assert_eq!(v.add(4), VirtAddr::new(20));
        assert_eq!(v.checked_add(u64::MAX), None);
        assert_eq!(v.checked_add(4), Some(VirtAddr::new(20)));
    }

    #[test]
    fn distinct_types_do_not_compare() {
        // This is a compile-time property; just exercise both types.
        let v = VirtAddr::new(1);
        let p = PhysAddr::new(1);
        assert_eq!(v.raw(), p.raw());
    }

    #[test]
    fn debug_and_display_are_hex() {
        let v = Vpn::new(0x2a);
        assert_eq!(format!("{v}"), "0x2a");
        assert_eq!(format!("{v:?}"), "Vpn(0x2a)");
        assert_eq!(format!("{v:x}"), "2a");
        assert_eq!(format!("{v:X}"), "2A");
        assert_eq!(format!("{v:b}"), "101010");
        assert_eq!(format!("{v:o}"), "52");
    }

    #[test]
    fn ordering_follows_raw() {
        assert!(Pfn::new(1) < Pfn::new(2));
        let mut v = vec![Vpn::new(3), Vpn::new(1), Vpn::new(2)];
        v.sort();
        assert_eq!(v, vec![Vpn::new(1), Vpn::new(2), Vpn::new(3)]);
    }

    #[test]
    fn default_is_zero() {
        assert_eq!(VirtAddr::default().raw(), 0);
        assert_eq!(Pfn::default().raw(), 0);
    }
}
