//! The request/response grammar: a tag byte followed by little-endian,
//! length-prefixed fields. The decoders are total over arbitrary bytes
//! and enforce the store's record shapes (namespace one token, keys and
//! values single-line), so a decoded `Put` can always be stored without
//! tripping the store's own input assertions.
//!
//! A message is encoded once, straight into its frame: `to_frame`
//! allocates the frame with room for the message's strings and fills in
//! the length header last, and `Request::mget_frame` encodes a batch
//! from the caller's borrowed pairs. No payload is built and then copied
//! into a frame.

use crate::store::{GcReport, NamespaceCounts};

use super::frame::frame_with;

fn valid_ns(ns: &str) -> bool {
    !ns.is_empty() && !ns.contains(char::is_whitespace)
}

fn valid_key(key: &str) -> bool {
    !key.is_empty() && !key.contains('\n')
}

fn valid_value(value: &str) -> bool {
    !value.contains('\n')
}

/// One client request. The daemon's whole command surface.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Persist `(ns, key) → value`.
    Put {
        /// Namespace (single whitespace-free token).
        ns: String,
        /// Single-line record-string key.
        key: String,
        /// Single-line record-string value.
        value: String,
    },
    /// Look a whole batch of `(ns, key)` pairs up in one round trip.
    MGet {
        /// The probed `(ns, key)` pairs, in reply order.
        items: Vec<(String, String)>,
    },
    /// Ask for the exclusive right to compute a missing `(ns, key)`:
    /// the stored value if someone already published it, `granted` if
    /// the claim is now held by this connection (for `lease_ms`), `busy`
    /// if another live claim holds it.
    Claim {
        /// Namespace (single whitespace-free token).
        ns: String,
        /// Single-line record-string key.
        key: String,
        /// Requested lease, in milliseconds (server-clamped).
        lease_ms: u64,
    },
    /// Park until `(ns, key)` is published (`hit`), its claim expires or
    /// is released unpublished (`miss`), or `timeout_ms` elapses
    /// (`miss`). Never blocks when no claim is active — that is an
    /// immediate `miss`/`hit`.
    Wait {
        /// Namespace (single whitespace-free token).
        ns: String,
        /// Single-line record-string key.
        key: String,
        /// Longest time to stay parked, in milliseconds (server-clamped).
        timeout_ms: u64,
    },
    /// Report occupancy (live records/bytes, per-namespace counts) and
    /// service counters.
    Stats,
    /// Liveness probe: uptime, shard occupancy, and whether the daemon
    /// is draining. Cheaper than `STATS` and safe to poll.
    Health,
    /// Run a GC/compaction pass under the daemon's policy now.
    Gc,
    /// Stop accepting connections and exit — via the graceful drain
    /// path: stop accepting, answer in-flight frames, fail parked
    /// waiters fast, fsync, release the lock.
    Shutdown,
}

// Tags. A tag outside this table decodes to a descriptive error.
const TAG_PUT: u8 = 2;
const TAG_STATS: u8 = 3;
const TAG_GC: u8 = 4;
const TAG_SHUTDOWN: u8 = 5;
const TAG_MGET: u8 = 6;
const TAG_CLAIM: u8 = 8;
const TAG_WAIT: u8 = 9;
const TAG_HEALTH: u8 = 11;

const TAG_HIT: u8 = 1;
const TAG_MISS: u8 = 2;
const TAG_DONE: u8 = 3;
const TAG_RSTATS: u8 = 4;
const TAG_GCDONE: u8 = 5;
const TAG_ERR: u8 = 6;
const TAG_MGOT: u8 = 7;
const TAG_GRANTED: u8 = 8;
const TAG_BUSY: u8 = 9;
const TAG_RHEALTH: u8 = 11;

/// A little-endian cursor over a payload: every read is bounds-checked
/// and returns a descriptive error, so the decoders are total over
/// arbitrary bytes.
struct PayloadReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> PayloadReader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn u8(&mut self, what: &str) -> Result<u8, String> {
        let b = *self
            .buf
            .get(self.pos)
            .ok_or_else(|| format!("truncated {what}"))?;
        self.pos += 1;
        Ok(b)
    }

    fn u32(&mut self, what: &str) -> Result<u32, String> {
        let end = self.pos + 4;
        let bytes = self
            .buf
            .get(self.pos..end)
            .ok_or_else(|| format!("truncated {what}"))?;
        self.pos = end;
        Ok(u32::from_le_bytes(bytes.try_into().expect("4-byte slice")))
    }

    fn u64(&mut self, what: &str) -> Result<u64, String> {
        let end = self.pos + 8;
        let bytes = self
            .buf
            .get(self.pos..end)
            .ok_or_else(|| format!("truncated {what}"))?;
        self.pos = end;
        Ok(u64::from_le_bytes(bytes.try_into().expect("8-byte slice")))
    }

    fn str_field(&mut self, what: &str) -> Result<String, String> {
        let len = self.u32(what)? as usize;
        // Bounds-check before allocating: a corrupt length never
        // allocates beyond the payload actually received.
        let end = self
            .pos
            .checked_add(len)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| format!("truncated {what}"))?;
        let s = core::str::from_utf8(&self.buf[self.pos..end])
            .map_err(|_| format!("{what} is not UTF-8"))?;
        self.pos = end;
        Ok(s.to_string())
    }

    fn finish(self, what: &str) -> Result<(), String> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(format!("{what}: trailing bytes"))
        }
    }
}

fn push_str(out: &mut Vec<u8>, s: &str) {
    let len = u32::try_from(s.len()).expect("field over 4 GiB");
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// Room for a message's fixed fields (a tag, then a count or a
/// millisecond field) in a frame allocated up front.
const FIXED_FIELD_BYTES: usize = 16;

/// The wire bytes of `strs` as [`push_str`] writes them: with the fixed
/// fields, the payload size a frame is allocated with.
fn str_bytes<'a>(strs: impl IntoIterator<Item = &'a String>) -> usize {
    strs.into_iter().map(|s| 4 + s.len()).sum()
}

fn push_count(out: &mut Vec<u8>, n: usize) {
    out.extend_from_slice(
        &u32::try_from(n)
            .expect("batch over u32::MAX items")
            .to_le_bytes(),
    );
}

/// An `MGET` payload: the tag, the count, then each pair.
fn encode_mget(out: &mut Vec<u8>, items: &[(String, String)]) {
    out.push(TAG_MGET);
    push_count(out, items.len());
    for (ns, key) in items {
        push_str(out, ns);
        push_str(out, key);
    }
}

fn pair_bytes(items: &[(String, String)]) -> usize {
    str_bytes(items.iter().flat_map(|(ns, key)| [ns, key]))
}

impl Request {
    /// Serializes this request as a frame payload.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Serializes this request as a complete wire frame, encoding the
    /// payload straight into it.
    #[must_use]
    pub fn to_frame(&self) -> Vec<u8> {
        let strings = match self {
            Self::Put { ns, key, value } => str_bytes([ns, key, value]),
            Self::MGet { items } => pair_bytes(items),
            Self::Claim { ns, key, .. } | Self::Wait { ns, key, .. } => str_bytes([ns, key]),
            Self::Stats | Self::Health | Self::Gc | Self::Shutdown => 0,
        };
        frame_with(FIXED_FIELD_BYTES + strings, |out| self.encode_into(out))
    }

    /// The `MGET` frame of `items`, encoded from the borrowed pairs: the
    /// bytes of `Request::MGet { items: items.to_vec() }.to_frame()`
    /// without that copy of every pair.
    #[must_use]
    pub(crate) fn mget_frame(items: &[(String, String)]) -> Vec<u8> {
        frame_with(FIXED_FIELD_BYTES + pair_bytes(items), |out| {
            encode_mget(out, items);
        })
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Self::Put { ns, key, value } => {
                out.push(TAG_PUT);
                push_str(out, ns);
                push_str(out, key);
                push_str(out, value);
            }
            Self::MGet { items } => encode_mget(out, items),
            Self::Claim { ns, key, lease_ms } => {
                out.push(TAG_CLAIM);
                push_str(out, ns);
                push_str(out, key);
                out.extend_from_slice(&lease_ms.to_le_bytes());
            }
            Self::Wait {
                ns,
                key,
                timeout_ms,
            } => {
                out.push(TAG_WAIT);
                push_str(out, ns);
                push_str(out, key);
                out.extend_from_slice(&timeout_ms.to_le_bytes());
            }
            Self::Stats => out.push(TAG_STATS),
            Self::Health => out.push(TAG_HEALTH),
            Self::Gc => out.push(TAG_GC),
            Self::Shutdown => out.push(TAG_SHUTDOWN),
        }
    }

    /// Parses a frame payload. Total over arbitrary bytes: every
    /// malformed payload is a descriptive `Err`, never a panic — the
    /// server turns it into an `err` reply.
    ///
    /// # Errors
    ///
    /// A one-line description of what is malformed.
    pub fn decode(payload: &[u8]) -> Result<Self, String> {
        let mut r = PayloadReader::new(payload);
        let tag = r.u8("request tag")?;
        let req = match tag {
            TAG_PUT => {
                let ns = r.str_field("put namespace")?;
                let key = r.str_field("put key")?;
                let value = r.str_field("put value")?;
                if !valid_ns(&ns) || !valid_key(&key) || !valid_value(&value) {
                    return Err("put: malformed namespace, key, or value".into());
                }
                Self::Put { ns, key, value }
            }
            TAG_MGET => {
                let n = r.u32("mget count")?;
                let mut items = Vec::new();
                for _ in 0..n {
                    let ns = r.str_field("mget namespace")?;
                    let key = r.str_field("mget key")?;
                    if !valid_ns(&ns) || !valid_key(&key) {
                        return Err("mget: malformed namespace or key".into());
                    }
                    items.push((ns, key));
                }
                Self::MGet { items }
            }
            TAG_CLAIM | TAG_WAIT => {
                let ns = r.str_field("claim/wait namespace")?;
                let key = r.str_field("claim/wait key")?;
                let ms = r.u64("claim/wait milliseconds")?;
                if !valid_ns(&ns) || !valid_key(&key) {
                    return Err("claim/wait: malformed namespace or key".into());
                }
                if tag == TAG_CLAIM {
                    Self::Claim {
                        ns,
                        key,
                        lease_ms: ms,
                    }
                } else {
                    Self::Wait {
                        ns,
                        key,
                        timeout_ms: ms,
                    }
                }
            }
            TAG_STATS => Self::Stats,
            TAG_HEALTH => Self::Health,
            TAG_GC => Self::Gc,
            TAG_SHUTDOWN => Self::Shutdown,
            other => return Err(format!("unknown request tag {other}")),
        };
        r.finish("request")?;
        Ok(req)
    }
}

/// The daemon's occupancy + service report (the `STATS` reply).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Live (latest-per-key) records across all namespaces.
    pub live_records: u64,
    /// Bytes those records occupy.
    pub live_bytes: u64,
    /// Physical shard-file bytes (live + dead).
    pub file_bytes: u64,
    /// Live records per namespace.
    pub namespaces: NamespaceCounts,
    /// Connections currently open.
    pub active_connections: u64,
    /// Keys carried by `MGET` batches (total).
    pub batched_keys: u64,
    /// Largest single batch served.
    pub max_batch: u64,
    /// `CLAIM`s granted (exclusive compute rights handed out).
    pub claims_granted: u64,
    /// Claims that expired or were released unpublished (holder died or
    /// stalled past its lease; waiters degraded to computing locally).
    pub claims_expired: u64,
}

/// The daemon's liveness report (the `HEALTH` reply).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HealthReport {
    /// Seconds since the server started serving.
    pub uptime_secs: u64,
    /// Whether the daemon is draining: no longer accepting connections,
    /// answering in-flight frames before exiting.
    pub draining: bool,
    /// Shard files holding at least one live record.
    pub shards_occupied: u32,
    /// Total shard files ([`crate::store::SHARD_COUNT`]).
    pub shard_count: u32,
    /// Live (latest-per-key) records across all namespaces.
    pub live_records: u64,
    /// Physical shard-file bytes (live + dead).
    pub file_bytes: u64,
}

/// One server reply.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Response {
    /// `CLAIM`/`WAIT`: the value is published.
    Hit {
        /// The stored single-line record-string value.
        value: String,
    },
    /// `WAIT`: the claim lapsed unpublished — the client recomputes.
    Miss,
    /// `PUT` / `SHUTDOWN` acknowledged.
    Done,
    /// `MGET` reply: one slot per requested key, in request order.
    MGot {
        /// `Some(value)` per hit, `None` per miss.
        values: Vec<Option<String>>,
    },
    /// `CLAIM` reply: the exclusive compute right is yours for the lease.
    Granted,
    /// `CLAIM` reply: another live client holds the claim — `WAIT` for
    /// the value instead of computing.
    Busy,
    /// `STATS` reply.
    Stats(StoreStats),
    /// `HEALTH` reply.
    Health(HealthReport),
    /// `GC` reply: what the pass did.
    Gc(GcReport),
    /// The request could not be served (malformed, internal error). The
    /// client treats it as a miss.
    Error {
        /// Single-line description.
        message: String,
    },
}

impl Response {
    /// Serializes this response as a frame payload.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Serializes this response as a complete wire frame, encoding the
    /// payload straight into it.
    #[must_use]
    pub fn to_frame(&self) -> Vec<u8> {
        let strings = match self {
            Self::Hit { value } => str_bytes([value]),
            // One slot tag per value, and its string when present.
            Self::MGot { values } => values.len() + str_bytes(values.iter().flatten()),
            Self::Error { message } => str_bytes([message]),
            _ => 0,
        };
        frame_with(FIXED_FIELD_BYTES + strings, |out| self.encode_into(out))
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Self::Hit { value } => {
                out.push(TAG_HIT);
                push_str(out, value);
            }
            Self::Miss => out.push(TAG_MISS),
            Self::Done => out.push(TAG_DONE),
            Self::MGot { values } => {
                out.push(TAG_MGOT);
                push_count(out, values.len());
                for slot in values {
                    match slot {
                        Some(value) => {
                            out.push(1);
                            push_str(out, value);
                        }
                        None => out.push(0),
                    }
                }
            }
            Self::Granted => out.push(TAG_GRANTED),
            Self::Busy => out.push(TAG_BUSY),
            Self::Stats(s) => {
                out.push(TAG_RSTATS);
                for n in [s.live_records, s.live_bytes, s.file_bytes]
                    .into_iter()
                    .chain(s.namespaces.0)
                    .chain([
                        s.active_connections,
                        s.batched_keys,
                        s.max_batch,
                        s.claims_granted,
                        s.claims_expired,
                    ])
                {
                    out.extend_from_slice(&n.to_le_bytes());
                }
            }
            Self::Health(h) => {
                out.push(TAG_RHEALTH);
                out.extend_from_slice(&h.uptime_secs.to_le_bytes());
                out.push(u8::from(h.draining));
                out.extend_from_slice(&h.shards_occupied.to_le_bytes());
                out.extend_from_slice(&h.shard_count.to_le_bytes());
                out.extend_from_slice(&h.live_records.to_le_bytes());
                out.extend_from_slice(&h.file_bytes.to_le_bytes());
            }
            Self::Gc(r) => {
                out.push(TAG_GCDONE);
                for n in [
                    r.live_records,
                    r.live_bytes,
                    r.dead_bytes_dropped,
                    r.evicted_age,
                    r.evicted_size,
                    u64::from(r.shards_rewritten),
                ] {
                    out.extend_from_slice(&n.to_le_bytes());
                }
            }
            Self::Error { message } => {
                out.push(TAG_ERR);
                push_str(out, &message.replace('\n', " "));
            }
        }
    }

    /// Parses a frame payload; total over arbitrary bytes.
    ///
    /// # Errors
    ///
    /// A one-line description of what is malformed.
    pub fn decode(payload: &[u8]) -> Result<Self, String> {
        let mut r = PayloadReader::new(payload);
        let tag = r.u8("response tag")?;
        let resp = match tag {
            TAG_HIT => {
                let value = r.str_field("hit value")?;
                if !valid_value(&value) {
                    return Err("hit: malformed value".into());
                }
                Self::Hit { value }
            }
            TAG_MISS => Self::Miss,
            TAG_DONE => Self::Done,
            TAG_MGOT => {
                let n = r.u32("mgot count")?;
                let mut values = Vec::new();
                for _ in 0..n {
                    match r.u8("mgot slot tag")? {
                        0 => values.push(None),
                        1 => {
                            let value = r.str_field("mgot value")?;
                            if !valid_value(&value) {
                                return Err("mgot: malformed value".into());
                            }
                            values.push(Some(value));
                        }
                        other => return Err(format!("mgot: bad slot tag {other}")),
                    }
                }
                Self::MGot { values }
            }
            TAG_GRANTED => Self::Granted,
            TAG_BUSY => Self::Busy,
            TAG_RSTATS => {
                let mut next = |what| r.u64(what);
                let (live_records, live_bytes, file_bytes) = (
                    next("stats field")?,
                    next("stats field")?,
                    next("stats field")?,
                );
                let mut namespaces = NamespaceCounts::default();
                for count in &mut namespaces.0 {
                    *count = next("stats namespace count")?;
                }
                Self::Stats(StoreStats {
                    live_records,
                    live_bytes,
                    file_bytes,
                    namespaces,
                    active_connections: next("stats field")?,
                    batched_keys: next("stats field")?,
                    max_batch: next("stats field")?,
                    claims_granted: next("stats field")?,
                    claims_expired: next("stats field")?,
                })
            }
            TAG_RHEALTH => {
                let uptime_secs = r.u64("health uptime")?;
                let draining = match r.u8("health draining flag")? {
                    0 => false,
                    1 => true,
                    other => return Err(format!("health: bad draining flag {other}")),
                };
                Self::Health(HealthReport {
                    uptime_secs,
                    draining,
                    shards_occupied: r.u32("health shards occupied")?,
                    shard_count: r.u32("health shard count")?,
                    live_records: r.u64("health live records")?,
                    file_bytes: r.u64("health file bytes")?,
                })
            }
            TAG_GCDONE => {
                let mut next = |what| r.u64(what);
                let (live_records, live_bytes) = (next("gcdone field")?, next("gcdone field")?);
                let dead = next("gcdone field")?;
                let (ea, es) = (next("gcdone field")?, next("gcdone field")?);
                let shards = next("gcdone field")?;
                Self::Gc(GcReport {
                    live_records,
                    live_bytes,
                    dead_bytes_dropped: dead,
                    evicted_age: ea,
                    evicted_size: es,
                    shards_rewritten: u32::try_from(shards)
                        .map_err(|_| "gcdone: shard count over u32")?,
                })
            }
            TAG_ERR => {
                let message = r.str_field("err message")?;
                if message.contains('\n') {
                    return Err("err: malformed message".into());
                }
                Self::Error { message }
            }
            other => return Err(format!("unknown response tag {other}")),
        };
        r.finish("response")?;
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::encode_frame;

    fn sample_requests() -> Vec<Request> {
        vec![
            Request::Put {
                ns: "walks".into(),
                key: "k with spaces".into(),
                value: "v with spaces and 0x3ff0000000000000".into(),
            },
            Request::Put {
                ns: "programs".into(),
                key: "k".into(),
                value: String::new(),
            },
            Request::MGet { items: vec![] },
            Request::MGet {
                items: vec![
                    ("runs".into(), "key one with spaces".into()),
                    ("traces".into(), "key two".into()),
                ],
            },
            Request::Claim {
                ns: "runs".into(),
                key: "cold key".into(),
                lease_ms: 30_000,
            },
            Request::Wait {
                ns: "runs".into(),
                key: "cold key".into(),
                timeout_ms: 12_345,
            },
            Request::Stats,
            Request::Health,
            Request::Gc,
            Request::Shutdown,
        ]
    }

    fn sample_responses() -> Vec<Response> {
        vec![
            Response::Hit {
                value: "report base vipt 1 2".into(),
            },
            Response::Hit {
                value: String::new(),
            },
            Response::Miss,
            Response::Done,
            Response::MGot { values: vec![] },
            Response::MGot {
                values: vec![
                    Some("value with spaces".into()),
                    None,
                    Some(String::new()),
                    None,
                ],
            },
            Response::Granted,
            Response::Busy,
            Response::Stats(StoreStats {
                live_records: 1,
                live_bytes: 2,
                file_bytes: 3,
                namespaces: NamespaceCounts([4, 5, 6, 7, 8]),
                active_connections: 9,
                batched_keys: 11,
                max_batch: 12,
                claims_granted: 13,
                claims_expired: 14,
            }),
            Response::Health(HealthReport {
                uptime_secs: 3600,
                draining: false,
                shards_occupied: 12,
                shard_count: 16,
                live_records: 4096,
                file_bytes: 1_048_576,
            }),
            Response::Health(HealthReport {
                uptime_secs: 0,
                draining: true,
                shards_occupied: 0,
                shard_count: 16,
                live_records: 0,
                file_bytes: 0,
            }),
            Response::Gc(GcReport {
                live_records: 9,
                live_bytes: 100,
                dead_bytes_dropped: 11,
                evicted_age: 1,
                evicted_size: 2,
                shards_rewritten: 3,
            }),
            Response::Error {
                message: "something broke".into(),
            },
        ]
    }

    #[test]
    fn request_and_response_codecs_round_trip() {
        for req in sample_requests() {
            assert_eq!(Request::decode(&req.encode()).as_ref(), Ok(&req));
        }
        for resp in sample_responses() {
            assert_eq!(Response::decode(&resp.encode()).as_ref(), Ok(&resp));
        }
    }

    #[test]
    fn a_frame_is_its_encoded_payload_framed() {
        // Encoding straight into the frame writes what framing the
        // encoded payload writes, byte for byte.
        for req in sample_requests() {
            assert_eq!(req.to_frame(), encode_frame(&req.encode()), "{req:?}");
            if let Request::MGet { items } = &req {
                assert_eq!(Request::mget_frame(items), req.to_frame());
            }
        }
        for resp in sample_responses() {
            assert_eq!(resp.to_frame(), encode_frame(&resp.encode()), "{resp:?}");
        }
    }

    #[test]
    fn malformed_payloads_are_errors_not_panics() {
        // Truncations of every valid message must error cleanly.
        for req in sample_requests() {
            let bytes = req.encode();
            for cut in 0..bytes.len() {
                assert!(
                    Request::decode(&bytes[..cut]).is_err(),
                    "truncated {req:?} at {cut} must not decode"
                );
            }
        }
        for resp in sample_responses() {
            let bytes = resp.encode();
            for cut in 0..bytes.len() {
                assert!(
                    Response::decode(&bytes[..cut]).is_err(),
                    "truncated {resp:?} at {cut} must not decode"
                );
            }
        }
        // Bad tags, trailing bytes, corrupt field lengths, invalid
        // fields.
        assert!(Request::decode(&[99]).is_err());
        assert!(Response::decode(&[99]).is_err());
        let mut trailing = Request::Stats.encode();
        trailing.push(0);
        assert!(Request::decode(&trailing).is_err());
        // A corrupt string length larger than the payload must not
        // allocate or panic.
        let mut huge = vec![TAG_PUT];
        huge.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(Request::decode(&huge).is_err());
        // The store's record shapes are enforced: namespace one token,
        // keys non-empty and single-line, values single-line.
        let get = |ns: &str, key: &str| Request::MGet {
            items: vec![(ns.into(), key.into())],
        };
        for bad in [
            get("r\u{a0}ns", "k"),
            get("", "k"),
            get("runs", ""),
            get("runs", "two\nlines"),
            Request::Put {
                ns: "runs".into(),
                key: "k".into(),
                value: "two\nlines".into(),
            },
        ] {
            assert!(Request::decode(&bad.encode()).is_err(), "{bad:?}");
        }
    }
}
