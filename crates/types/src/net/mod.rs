//! The networked store: protocol codec, TCP client, and daemon server.
//!
//! The sharded [`ArtifactStore`] is single-machine: every process opens
//! the shard files directly. This module puts **one process in charge
//! of the shards** behind a small request/reply protocol:
//!
//! - [`StoreServer`] — a std-only TCP daemon that exclusively owns an
//!   [`ArtifactStore`] and serves each connection from its own thread
//!   over blocking sockets: read a frame, serve it, write the reply, so
//!   replies come back in request order.
//! - [`RemoteStore`] — the client: the namespaced load/save surface
//!   ([`StoreBackend`]) over TCP with reconnect-with-backoff, plus the
//!   batch surface (`load_many` → one `MGET` frame, one round trip
//!   instead of a round trip per key) and the global-dedup surface
//!   (`claim`/`wait_for`). Every I/O failure degrades to a **miss**.
//! - [`LayeredStore`] — remote over local: a remote miss falls back to
//!   the machine-local store, saves go to the daemon — falling back to
//!   the local layer only while the daemon is unreachable.
//!
//! # Wire format
//!
//! Every message (request or response) is one length-prefixed
//! **frame**:
//!
//! ```text
//! cfrb<payload length: 4 bytes, LE><payload>
//! ```
//!
//! The payload is a tag byte followed by little-endian, length-prefixed
//! fields ([`Request`], [`Response`]). The `cfrb` magic is the protocol
//! version: every client and server ships from this workspace, so there
//! is nothing to negotiate, and a peer speaking anything else fails at
//! the first four bytes with an `err` reply and a disconnect.
//!
//! Frame payload size is bounded ([`max_frame_bytes`], default
//! [`MAX_FRAME_BYTES`], override [`MAX_FRAME_ENV`]): a garbage length
//! prefix is rejected *before* any allocation, and an oversized frame
//! draws an error reply followed by disconnect.
//!
//! # Verbs
//!
//! - `PUT` — save one record.
//! - `MGET` — look a batch of keys up: an entire plan's keys in one
//!   frame and one round trip (the engine's batched warm probe; a single
//!   `load` is a one-key `MGET`).
//! - `CLAIM`/`WAIT` — **global cold-key dedup**: `CLAIM` asks for the
//!   exclusive right to compute a missing key (lease-bounded; the reply
//!   is the stored value if someone already published it, `granted` if
//!   the claim is yours, `busy` if another client holds it); `WAIT`
//!   parks the connection's thread until the value is published or the
//!   claim lease expires. A dead client's claim expires — or is released the
//!   moment its connection drops — and waiters degrade to computing
//!   locally, preserving the store's every-failure-is-a-miss contract.
//! - `STATS` — occupancy (live records and bytes, per-namespace counts)
//!   and service counters.
//! - `HEALTH` — liveness probe: uptime, shard occupancy, live record
//!   and byte counts, and whether the daemon is draining (refusing new
//!   connections while it answers in-flight frames). Surfaced by the
//!   `cfr-store-serve health` subcommand.
//! - `GC` — a compaction pass under the daemon's policy.
//! - `SHUTDOWN` — graceful drain, then exit.
//!
//! The decoders are total functions over arbitrary bytes —
//! `Incomplete` / `Invalid` / `Frame`, never a panic — which is what
//! the protocol fuzz properties in `tests/property_based.rs` pin.
//!
//! [`ArtifactStore`]: crate::store::ArtifactStore
//! [`StoreBackend`]: crate::store::StoreBackend

mod client;
mod frame;
mod proto;
mod server;

pub use client::{LayeredStore, RemoteStore};
pub use frame::{
    decode_frame, encode_frame, max_frame_bytes, FrameDecode, FrameReader, FRAME_MAGIC,
    MAX_FRAME_BYTES,
};
pub use proto::{HealthReport, Request, Response, StoreStats};
pub use server::{ServerConfig, StoreServer};

use std::time::Duration;

/// Environment variable naming the store daemon (`host:port`). When set
/// and not blank, `cfr_core::Store::open_default` builds a
/// [`LayeredStore`] (remote first, local fallback) instead of opening
/// the shards directly.
pub const STORE_ADDR_ENV: &str = "CFR_STORE_ADDR";

/// The store daemon the environment names: [`STORE_ADDR_ENV`], trimmed,
/// or `None` when it is unset or blank.
#[must_use]
pub fn store_addr_from_env() -> Option<String> {
    non_blank(std::env::var(STORE_ADDR_ENV).ok())
}

/// A [`STORE_ADDR_ENV`] value as an address: trimmed, and `None` when
/// unset or blank.
fn non_blank(value: Option<String>) -> Option<String> {
    value
        .map(|v| v.trim().to_string())
        .filter(|v| !v.is_empty())
}

/// Environment variable overriding the maximum frame payload size in
/// bytes (default [`MAX_FRAME_BYTES`]; values below 4096 are clamped up
/// so control frames always fit).
pub const MAX_FRAME_ENV: &str = "CFR_STORE_MAX_FRAME";

/// Environment variable overriding the claim lease, in milliseconds
/// (default [`DEFAULT_CLAIM_LEASE`]). The lease bounds how long other
/// clients wait on a claim whose holder died without disconnecting.
pub const CLAIM_LEASE_ENV: &str = "CFR_STORE_CLAIM_LEASE_MS";

/// Default claim lease: long enough for any single simulation at
/// realistic scales, short enough that a wedged holder only stalls
/// waiters briefly before they degrade to computing locally.
pub const DEFAULT_CLAIM_LEASE: Duration = Duration::from_secs(30);

/// Default port the daemon binds when none is given.
pub const DEFAULT_DAEMON_ADDR: &str = "127.0.0.1:7433";

/// The claim lease this process uses ([`CLAIM_LEASE_ENV`], else
/// [`DEFAULT_CLAIM_LEASE`]).
#[must_use]
pub fn claim_lease() -> Duration {
    std::env::var(CLAIM_LEASE_ENV)
        .ok()
        .and_then(|v| v.trim().parse::<u64>().ok())
        .filter(|&ms| ms > 0)
        .map_or(DEFAULT_CLAIM_LEASE, Duration::from_millis)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_blank_store_addr_means_unset() {
        for blank in [None, Some(""), Some("  "), Some("\t\n")] {
            assert_eq!(non_blank(blank.map(String::from)), None);
        }
        let addr = non_blank(Some(" 127.0.0.1:7433\n".into()));
        assert_eq!(addr.as_deref(), Some("127.0.0.1:7433"));
    }
}
