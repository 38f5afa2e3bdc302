//! A stable, hand-rolled text codec for persisted records.
//!
//! Anything that must survive a process boundary — the persistent
//! artifact store, the store daemon's wire — is serialized through these
//! explicit `to_record` / `from_record` codecs. The format is
//! deliberately primitive and therefore stable:
//!
//! - a record is a flat sequence of whitespace-separated tokens,
//! - every struct writes a leading *tag* token naming its type, so a
//!   truncated or mismatched stream fails fast instead of mis-parsing,
//! - integers are decimal, floats are their exact IEEE-754 bit patterns
//!   in hex (`0x…`), so round-trips are bit-for-bit lossless — warm
//!   store reads reproduce byte-identical experiment output.
//!
//! Corruption of any kind (bad tag, bad digit, missing token, trailing
//! garbage) surfaces as a [`RecordError`]; callers such as the run store
//! treat every error as a cache miss, never a crash.

use core::fmt::{self, Write as _};

/// A parse failure. The message names what was expected and what was
/// found; the run store maps any error to a cache miss.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RecordError {
    message: String,
}

impl RecordError {
    /// Creates an error with the given description.
    #[must_use]
    pub fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }

    /// The human-readable description.
    #[must_use]
    pub fn message(&self) -> &str {
        &self.message
    }
}

impl fmt::Display for RecordError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "record error: {}", self.message)
    }
}

impl std::error::Error for RecordError {}

/// Serializes tokens into a record string.
#[derive(Clone, Debug, Default)]
pub struct RecordWriter {
    buf: String,
}

impl RecordWriter {
    /// Creates an empty writer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one token. Tokens must not contain whitespace — they are
    /// the atoms of the format.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if the token is empty or contains whitespace.
    pub fn token(&mut self, token: &str) {
        debug_assert!(
            !token.is_empty() && !token.contains(char::is_whitespace),
            "record tokens must be non-empty and whitespace-free: {token:?}"
        );
        self.separate();
        self.buf.push_str(token);
    }

    /// Appends an unsigned integer token, formatted in place.
    pub fn u64(&mut self, value: u64) {
        self.separate();
        let _ = write!(self.buf, "{value}"); // a `String` never fails a write
    }

    /// Appends a float as its exact bit pattern (`0x…`), so the value
    /// round-trips bit-for-bit; formatted in place.
    pub fn f64(&mut self, value: f64) {
        self.separate();
        let _ = write!(self.buf, "0x{:016x}", value.to_bits());
    }

    /// Separates the next token from the previous one.
    fn separate(&mut self) {
        if !self.buf.is_empty() {
            self.buf.push(' ');
        }
    }

    /// The finished record.
    #[must_use]
    pub fn finish(self) -> String {
        self.buf
    }
}

/// Deserializes a record string token by token.
#[derive(Clone, Debug)]
pub struct RecordReader<'a> {
    tokens: core::str::SplitAsciiWhitespace<'a>,
}

impl<'a> RecordReader<'a> {
    /// Creates a reader over a record string.
    #[must_use]
    pub fn new(record: &'a str) -> Self {
        Self {
            tokens: record.split_ascii_whitespace(),
        }
    }

    /// The next token.
    ///
    /// # Errors
    ///
    /// Errors if the record is exhausted.
    pub fn token(&mut self) -> Result<&'a str, RecordError> {
        self.tokens
            .next()
            .ok_or_else(|| RecordError::new("unexpected end of record"))
    }

    /// Consumes one token and requires it to equal `tag`.
    ///
    /// # Errors
    ///
    /// Errors if the record is exhausted or the token differs.
    pub fn expect(&mut self, tag: &str) -> Result<(), RecordError> {
        let token = self.token()?;
        if token == tag {
            Ok(())
        } else {
            Err(RecordError::new(format!(
                "expected tag {tag:?}, found {token:?}"
            )))
        }
    }

    /// Parses the next token as an unsigned integer.
    ///
    /// # Errors
    ///
    /// Errors on exhaustion or a malformed digit string.
    pub fn u64(&mut self) -> Result<u64, RecordError> {
        let token = self.token()?;
        token
            .parse::<u64>()
            .map_err(|_| RecordError::new(format!("expected unsigned integer, found {token:?}")))
    }

    /// Parses the next token as a `u32`.
    ///
    /// # Errors
    ///
    /// Errors on exhaustion or out-of-range values.
    pub fn u32(&mut self) -> Result<u32, RecordError> {
        let v = self.u64()?;
        u32::try_from(v).map_err(|_| RecordError::new(format!("value {v} exceeds u32")))
    }

    /// Parses the next token as a `usize`.
    ///
    /// # Errors
    ///
    /// Errors on exhaustion or out-of-range values.
    pub fn usize(&mut self) -> Result<usize, RecordError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| RecordError::new(format!("value {v} exceeds usize")))
    }

    /// Parses the next token as an exact-bits float (`0x…`).
    ///
    /// # Errors
    ///
    /// Errors on exhaustion or a token that is not a hex bit pattern.
    pub fn f64(&mut self) -> Result<f64, RecordError> {
        let token = self.token()?;
        let hex = token.strip_prefix("0x").ok_or_else(|| {
            RecordError::new(format!("expected 0x-prefixed float bits, found {token:?}"))
        })?;
        let bits = u64::from_str_radix(hex, 16)
            .map_err(|_| RecordError::new(format!("malformed float bits {token:?}")))?;
        Ok(f64::from_bits(bits))
    }

    /// Requires the record to be fully consumed.
    ///
    /// # Errors
    ///
    /// Errors if tokens remain — trailing garbage means corruption.
    pub fn finish(mut self) -> Result<(), RecordError> {
        match self.tokens.next() {
            None => Ok(()),
            Some(extra) => Err(RecordError::new(format!(
                "trailing token {extra:?} after record end"
            ))),
        }
    }
}

/// The FNV-1a 64-bit hash of a string — the store's *stable* content
/// address. Hand-rolled so file names never depend on the standard
/// library's unspecified hasher.
#[must_use]
pub fn fnv1a64(text: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in text.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

// ------------------------------------------------- codecs for cfr-types

use crate::{AddressingMode, TlbOrganization};

impl TlbOrganization {
    /// Serializes as `torg <entries> <associativity>`.
    pub fn to_record(&self, w: &mut RecordWriter) {
        w.token("torg");
        w.u64(u64::from(self.entries));
        w.u64(u64::from(self.associativity));
    }

    /// Parses a [`Self::to_record`] stream.
    ///
    /// # Errors
    ///
    /// Errors on a malformed stream or a degenerate shape.
    pub fn from_record(r: &mut RecordReader<'_>) -> Result<Self, RecordError> {
        r.expect("torg")?;
        let entries = r.u32()?;
        let associativity = r.u32()?;
        if entries == 0
            || associativity == 0
            || associativity > entries
            || entries % associativity != 0
        {
            return Err(RecordError::new(format!(
                "degenerate TLB organization {entries}/{associativity}"
            )));
        }
        Ok(Self {
            entries,
            associativity,
        })
    }
}

impl AddressingMode {
    /// Serializes as a single mode token.
    pub fn to_record(&self, w: &mut RecordWriter) {
        w.token(match self {
            AddressingMode::PiPt => "pipt",
            AddressingMode::ViPt => "vipt",
            AddressingMode::ViVt => "vivt",
        });
    }

    /// Parses a [`Self::to_record`] token.
    ///
    /// # Errors
    ///
    /// Errors on an unknown mode token.
    pub fn from_record(r: &mut RecordReader<'_>) -> Result<Self, RecordError> {
        match r.token()? {
            "pipt" => Ok(AddressingMode::PiPt),
            "vipt" => Ok(AddressingMode::ViPt),
            "vivt" => Ok(AddressingMode::ViVt),
            other => Err(RecordError::new(format!(
                "unknown addressing mode {other:?}"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokens_round_trip() {
        let mut w = RecordWriter::new();
        w.token("tag");
        w.u64(42);
        w.f64(0.1 + 0.2); // a value that does not print exactly in decimal
        let record = w.finish();
        let mut r = RecordReader::new(&record);
        assert_eq!(r.token().unwrap(), "tag");
        assert_eq!(r.u64().unwrap(), 42);
        assert_eq!(r.f64().unwrap().to_bits(), (0.1f64 + 0.2).to_bits());
        r.finish().unwrap();
    }

    #[test]
    fn exhaustion_and_trailing_are_errors() {
        let mut r = RecordReader::new("only");
        assert_eq!(r.token().unwrap(), "only");
        assert!(r.token().is_err());
        let r = RecordReader::new("extra token");
        assert!(r.finish().is_err());
    }

    #[test]
    fn expect_mismatch_is_an_error() {
        let mut r = RecordReader::new("bad");
        assert!(r.expect("good").is_err());
    }

    #[test]
    fn malformed_numbers_are_errors() {
        assert!(RecordReader::new("12k").u64().is_err());
        assert!(RecordReader::new("-3").u64().is_err());
        assert!(RecordReader::new("4294967296").u32().is_err());
        assert!(
            RecordReader::new("1.5").f64().is_err(),
            "floats are bits, not decimals"
        );
        assert!(RecordReader::new("0xzz").f64().is_err());
    }

    #[test]
    fn special_floats_round_trip() {
        for v in [
            0.0f64,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
        ] {
            let mut w = RecordWriter::new();
            w.f64(v);
            let record = w.finish();
            let got = RecordReader::new(&record).f64().unwrap();
            assert_eq!(got.to_bits(), v.to_bits());
        }
    }

    #[test]
    fn fnv_is_stable() {
        // Known FNV-1a vectors: the file-name scheme must never drift.
        assert_eq!(fnv1a64(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64("a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(fnv1a64("ab"), fnv1a64("ba"));
    }

    #[test]
    fn tlb_organization_round_trips() {
        for org in [
            TlbOrganization::fully_associative(1),
            TlbOrganization::fully_associative(32),
            TlbOrganization::set_associative(16, 2),
        ] {
            let mut w = RecordWriter::new();
            org.to_record(&mut w);
            let record = w.finish();
            let mut r = RecordReader::new(&record);
            assert_eq!(TlbOrganization::from_record(&mut r).unwrap(), org);
            r.finish().unwrap();
        }
        assert!(TlbOrganization::from_record(&mut RecordReader::new("torg 0 0")).is_err());
        assert!(TlbOrganization::from_record(&mut RecordReader::new("torg 10 4")).is_err());
    }

    #[test]
    fn addressing_mode_round_trips() {
        for mode in AddressingMode::ALL {
            let mut w = RecordWriter::new();
            mode.to_record(&mut w);
            let record = w.finish();
            assert_eq!(
                AddressingMode::from_record(&mut RecordReader::new(&record)).unwrap(),
                mode
            );
        }
        assert!(AddressingMode::from_record(&mut RecordReader::new("pivt")).is_err());
    }
}
