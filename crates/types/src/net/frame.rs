//! Wire framing: the length-prefixed `cfrb` frame and its total decoder.

use std::io::{self, Read};
use std::sync::OnceLock;

use super::MAX_FRAME_ENV;

/// Frame magic. It doubles as the protocol version: a peer speaking
/// anything else fails at the first four bytes (a clean `Invalid`,
/// never a misparse).
pub const FRAME_MAGIC: &[u8; 4] = b"cfrb";

/// Frame header size: the magic plus a 4-byte little-endian payload
/// length.
const FRAME_HEADER_BYTES: usize = 8;

/// Default upper bound on one frame's payload. A length header beyond
/// the configured bound ([`max_frame_bytes`]) is corrupt by definition —
/// the decoder rejects it before allocating.
pub const MAX_FRAME_BYTES: usize = 64 * 1024 * 1024;

/// Smallest admissible [`MAX_FRAME_ENV`] override: control frames
/// (stats, errors, claim verbs) must always fit.
const MIN_FRAME_BYTES: usize = 4096;

/// The effective frame payload bound: [`MAX_FRAME_ENV`] when set to a
/// parseable byte count (clamped to ≥ 4096), else [`MAX_FRAME_BYTES`].
/// Read once per process — the guard exists to stop a *corrupt length
/// prefix* from allocating gigabytes, so it sits on every decode path.
#[must_use]
pub fn max_frame_bytes() -> usize {
    static LIMIT: OnceLock<usize> = OnceLock::new();
    *LIMIT.get_or_init(|| {
        std::env::var(MAX_FRAME_ENV)
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .map_or(MAX_FRAME_BYTES, |v| v.max(MIN_FRAME_BYTES))
    })
}

/// Encodes one payload as a wire frame (`cfrb` + LE length + payload).
///
/// # Panics
///
/// Panics if the payload exceeds `u32::MAX` bytes (far beyond any
/// configurable frame bound).
#[must_use]
pub fn encode_frame(payload: &[u8]) -> Vec<u8> {
    let len = u32::try_from(payload.len()).expect("frame payload over 4 GiB");
    let mut out = Vec::with_capacity(FRAME_HEADER_BYTES + payload.len());
    out.extend_from_slice(FRAME_MAGIC);
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// What [`decode_frame`] found at the head of a byte buffer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FrameDecode<'a> {
    /// The buffer holds a prefix of a well-formed frame; read more bytes.
    Incomplete,
    /// The buffer can never become a well-formed frame: bad magic or a
    /// length over the frame bound. The connection should answer with
    /// an error and/or disconnect.
    Invalid,
    /// One complete frame.
    Frame {
        /// The frame's payload bytes.
        payload: &'a [u8],
        /// Total frame length in bytes (header + payload).
        consumed: usize,
    },
}

/// Decodes the frame at the head of `buf`. Total over arbitrary bytes:
/// every input yields `Incomplete`, `Invalid`, or `Frame` — never a
/// panic, never an allocation proportional to a corrupt length header.
#[must_use]
pub fn decode_frame(buf: &[u8]) -> FrameDecode<'_> {
    decode_frame_limit(buf, max_frame_bytes())
}

/// [`decode_frame`] with an explicit payload bound (the env-free core,
/// also what the guard tests drive directly).
fn decode_frame_limit(buf: &[u8], max_payload: usize) -> FrameDecode<'_> {
    // While the header is still arriving, stay Incomplete only as long
    // as the bytes so far are a prefix of the magic.
    if !buf.iter().zip(FRAME_MAGIC).all(|(b, m)| b == m) {
        return FrameDecode::Invalid;
    }
    let Some(header) = buf.get(..FRAME_HEADER_BYTES) else {
        return FrameDecode::Incomplete;
    };
    let len = u32::from_le_bytes([header[4], header[5], header[6], header[7]]) as usize;
    if len > max_payload {
        return FrameDecode::Invalid;
    }
    match buf[FRAME_HEADER_BYTES..].get(..len) {
        Some(payload) => FrameDecode::Frame {
            payload,
            consumed: FRAME_HEADER_BYTES + len,
        },
        None => FrameDecode::Incomplete,
    }
}

/// A streaming frame reader: buffers partial reads across calls so a
/// frame split over several TCP segments (or interrupted by a read
/// timeout) reassembles correctly.
#[derive(Debug, Default)]
pub struct FrameReader {
    buf: Vec<u8>,
}

impl FrameReader {
    /// An empty reader.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes buffered but not yet consumed as a frame. Between
    /// request/reply exchanges this must be zero — leftover bytes mean
    /// the peer sent more frames than were requested (a duplicated or
    /// desynchronized reply stream), and the connection is poisoned.
    #[must_use]
    pub fn buffered_bytes(&self) -> usize {
        self.buf.len()
    }

    /// Reads one frame's payload from `stream`. `Ok(None)` is a clean
    /// EOF at a frame boundary; `ErrorKind::InvalidData` means the peer
    /// sent bytes that can never become a frame (the caller should
    /// error-reply and/or disconnect); timeouts surface as the
    /// underlying `WouldBlock`/`TimedOut` error with the partial frame
    /// retained for the next call.
    ///
    /// # Errors
    ///
    /// Any I/O error from `stream`, plus `InvalidData` for corrupt and
    /// `UnexpectedEof` for mid-frame EOFs.
    pub fn read_frame(&mut self, stream: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
        loop {
            match decode_frame(&self.buf) {
                FrameDecode::Frame { consumed, .. } => {
                    // Hand the buffer out as the payload instead of
                    // copying it: multi-MB frames are common.
                    let rest = self.buf.split_off(consumed);
                    let mut payload = std::mem::replace(&mut self.buf, rest);
                    payload.drain(..FRAME_HEADER_BYTES);
                    return Ok(Some(payload));
                }
                FrameDecode::Invalid => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "malformed frame",
                    ));
                }
                FrameDecode::Incomplete => {}
            }
            let mut chunk = [0u8; 4096];
            let n = stream.read(&mut chunk)?;
            if n == 0 {
                return if self.buf.is_empty() {
                    Ok(None)
                } else {
                    Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "EOF inside a frame",
                    ))
                };
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        for payload in [
            b"".as_slice(),
            b"x",
            b"\x00\xff\x01binary bytes",
            "π ≠ τ\nwith newlines".as_bytes(),
            &[7u8; 4096],
        ] {
            let bytes = encode_frame(payload);
            assert_eq!(
                decode_frame(&bytes),
                FrameDecode::Frame {
                    payload,
                    consumed: bytes.len()
                }
            );
        }
    }

    #[test]
    fn frame_prefixes_are_incomplete_and_garbage_is_invalid() {
        let bytes = encode_frame(b"hello world");
        for cut in 0..bytes.len() {
            assert_eq!(
                decode_frame(&bytes[..cut]),
                FrameDecode::Incomplete,
                "prefix of a valid frame at {cut}"
            );
        }
        for garbage in [
            b"nonsense bytes here".as_slice(),
            b"c\x00",
            b"cfr1 5\nhello\n",           // a foreign magic
            b"cfrB\x05\x00\x00\x00hello", // magic is case-sensitive
        ] {
            assert_eq!(decode_frame(garbage), FrameDecode::Invalid, "{garbage:?}");
        }
    }

    #[test]
    fn corrupt_length_headers_are_rejected_before_allocating() {
        let mut bin = FRAME_MAGIC.to_vec();
        bin.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(decode_frame(&bin), FrameDecode::Invalid);
    }

    #[test]
    fn frame_limit_is_enforced() {
        // A payload over an explicit bound is Invalid even when complete
        // and well-formed; at the bound it decodes.
        let bin = encode_frame(b"0123456789");
        assert_eq!(decode_frame_limit(&bin, 9), FrameDecode::Invalid);
        assert!(matches!(
            decode_frame_limit(&bin, 10),
            FrameDecode::Frame { .. }
        ));
    }

    #[test]
    fn reader_reassembles_split_frames_and_flags_mid_frame_eof() {
        let mut wire = encode_frame(b"first");
        wire.extend_from_slice(&encode_frame(b"second"));
        // One byte per read: every frame spans many reads.
        struct Trickle<'a>(&'a [u8]);
        impl Read for Trickle<'_> {
            fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
                let Some((&b, rest)) = self.0.split_first() else {
                    return Ok(0);
                };
                out[0] = b;
                self.0 = rest;
                Ok(1)
            }
        }
        let mut reader = FrameReader::new();
        let mut stream = Trickle(&wire);
        assert_eq!(reader.read_frame(&mut stream).unwrap().unwrap(), b"first");
        assert_eq!(reader.read_frame(&mut stream).unwrap().unwrap(), b"second");
        assert!(reader.read_frame(&mut stream).unwrap().is_none());
        let mut torn = Trickle(&wire[..wire.len() - 1]);
        let mut reader = FrameReader::new();
        reader.read_frame(&mut torn).unwrap();
        let err = reader.read_frame(&mut torn).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }
}
