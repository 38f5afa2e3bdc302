//! Page protection bits carried by TLB entries and the CFR.

use core::fmt;

/// Page protection bits.
///
/// The paper's CFR format is `<VPN, PFN, Protection/Other bits>`; the OS owns
/// these bits (the application can never write the CFR), so a program cannot
/// change page permissions without a supervisor-mode round trip (§3.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Protection {
    bits: u8,
}

impl Protection {
    /// Readable bit.
    pub const READ: u8 = 1 << 0;
    /// Writable bit.
    pub const WRITE: u8 = 1 << 1;
    /// Executable bit.
    pub const EXECUTE: u8 = 1 << 2;

    /// Creates a protection set from raw bits (extra bits are masked off).
    #[must_use]
    pub const fn from_bits(bits: u8) -> Self {
        Self {
            bits: bits & (Self::READ | Self::WRITE | Self::EXECUTE),
        }
    }

    /// Read + execute: what every instruction page carries.
    #[must_use]
    pub const fn code() -> Self {
        Self::from_bits(Self::READ | Self::EXECUTE)
    }

    /// Read + write: ordinary data page.
    #[must_use]
    pub const fn data() -> Self {
        Self::from_bits(Self::READ | Self::WRITE)
    }

    /// Raw bits.
    #[must_use]
    pub const fn bits(self) -> u8 {
        self.bits
    }

    /// Whether the page may be read.
    #[must_use]
    pub const fn readable(self) -> bool {
        self.bits & Self::READ != 0
    }

    /// Whether the page may be written.
    #[must_use]
    pub const fn writable(self) -> bool {
        self.bits & Self::WRITE != 0
    }

    /// Whether the page may be executed — checked on every fetch that the
    /// CFR satisfies, since the protection bits travel with the translation.
    #[must_use]
    pub const fn executable(self) -> bool {
        self.bits & Self::EXECUTE != 0
    }

    /// Whether this protection grants everything `requested` asks for —
    /// the access check the OS-owned bits exist to enforce (§3.2): an
    /// instruction fetch requests [`Protection::code`], a data access
    /// [`Protection::data`], and a resident translation lacking any
    /// requested bit is a protection fault.
    #[must_use]
    pub const fn permits(self, requested: Protection) -> bool {
        self.bits & requested.bits == requested.bits
    }
}

impl Default for Protection {
    fn default() -> Self {
        Self::code()
    }
}

impl fmt::Display for Protection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}{}{}",
            if self.readable() { 'r' } else { '-' },
            if self.writable() { 'w' } else { '-' },
            if self.executable() { 'x' } else { '-' },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn code_pages_are_rx() {
        let p = Protection::code();
        assert!(p.readable());
        assert!(!p.writable());
        assert!(p.executable());
        assert_eq!(format!("{p}"), "r-x");
    }

    #[test]
    fn data_pages_are_rw() {
        let p = Protection::data();
        assert!(p.readable());
        assert!(p.writable());
        assert!(!p.executable());
        assert_eq!(format!("{p}"), "rw-");
    }

    #[test]
    fn extra_bits_masked() {
        let p = Protection::from_bits(0xFF);
        assert_eq!(p.bits(), 0b111);
    }

    #[test]
    fn default_is_code() {
        assert_eq!(Protection::default(), Protection::code());
    }

    #[test]
    fn permits_requires_every_requested_bit() {
        assert!(Protection::code().permits(Protection::code()));
        assert!(Protection::data().permits(Protection::data()));
        assert!(
            !Protection::data().permits(Protection::code()),
            "rw- lacks x"
        );
        assert!(
            !Protection::code().permits(Protection::data()),
            "r-x lacks w"
        );
        let read_only = Protection::from_bits(Protection::READ);
        assert!(Protection::code().permits(read_only));
        assert!(!read_only.permits(Protection::code()));
    }
}
