//! Property-based tests on the core data structures and invariants:
//! cache vs reference model, TLB translation consistency and first-touch
//! protection, the two-level TLB's serial miss path, store-codec
//! round-trips, page geometry round-trips, layout/walker invariants, and
//! CFR trust.
//!
//! Runs on the vendored `proptest` shim — seeded deterministic generator
//! plus the `proptest!`/`prop_assert*` macro subset, see
//! `vendor/README.md`. The sources are compatible with the real crate,
//! which is the usual one-line swap in the root `Cargo.toml`.

use proptest::prelude::*;

use cfr_sim::core::{Cfr, ExperimentScale, ItlbChoice, RunKey, StrategyKind};
use cfr_sim::energy::{EnergyMeter, EnergyModel};
use cfr_sim::mem::{
    AccessKind, Cache, CacheConfig, CacheStats, PageTable, Tlb, TlbConfig, TlbStats, TwoLevelTlb,
};
use cfr_sim::types::{
    AddressingMode, CacheOrganization, PageGeometry, Pfn, Protection, RecordReader, RecordWriter,
    TlbOrganization, VirtAddr, Vpn,
};
use cfr_sim::workload::{generate, profiles, GeneratorParams, LaidProgram, Walker};

proptest! {
    /// Page geometry: split-and-join is the identity for every address and
    /// every power-of-two page size.
    #[test]
    fn geometry_round_trip(addr in 0u64..u64::MAX / 2, shift in 4u32..20) {
        let geom = PageGeometry::new(1 << shift).unwrap();
        let va = VirtAddr::new(addr);
        let rebuilt = geom.join_virt(geom.vpn(va), geom.offset(va));
        prop_assert_eq!(rebuilt, va);
        prop_assert!(geom.offset(va) < geom.page_bytes());
    }

    /// `same_page` is exactly "equal VPN".
    #[test]
    fn same_page_iff_same_vpn(a in 0u64..1 << 40, b in 0u64..1 << 40) {
        let geom = PageGeometry::default_4k();
        let (va, vb) = (VirtAddr::new(a), VirtAddr::new(b));
        prop_assert_eq!(geom.same_page(va, vb), geom.vpn(va) == geom.vpn(vb));
    }

    /// A fully-associative cache of N blocks must hit on any address that
    /// is among the N most recently touched distinct blocks (true LRU).
    #[test]
    fn cache_lru_recency(addrs in proptest::collection::vec(0u64..0x4000, 1..200)) {
        let blocks = 8usize;
        let mut cache = Cache::new(CacheConfig {
            organization: CacheOrganization {
                size_bytes: (blocks * 32) as u64,
                associativity: blocks as u32,
                block_bytes: 32,
            },
            hit_latency: 1,
        });
        let mut recency: Vec<u64> = Vec::new(); // most recent block last
        for &a in &addrs {
            let block = a >> 5;
            let expected_hit = recency.iter().rev().take(blocks).any(|&b| b == block);
            let r = cache.access(a, AccessKind::Read);
            prop_assert_eq!(r.hit, expected_hit, "addr {:#x}", a);
            recency.retain(|&b| b != block);
            recency.push(block);
        }
    }

    /// The TLB never returns a translation that disagrees with the page
    /// table, across arbitrary lookup/invalidate sequences.
    #[test]
    fn tlb_translation_consistency(
        ops in proptest::collection::vec((0u64..64, proptest::bool::ANY), 1..300)
    ) {
        let mut tlb = Tlb::new(TlbConfig {
            organization: TlbOrganization::fully_associative(8),
            miss_penalty: 50,
        });
        let mut pt = PageTable::new();
        for (page, invalidate) in ops {
            let vpn = Vpn::new(page);
            if invalidate {
                tlb.invalidate(vpn);
            } else {
                let r = tlb.lookup(vpn, &mut pt, Protection::code());
                let (expected, _) = pt.translate(vpn, Protection::code());
                prop_assert_eq!(r.pfn, expected);
            }
        }
        prop_assert!(tlb.resident_entries() <= 8);
    }

    /// A dTLB refill allocates pages with the *requested* protection
    /// (regression: `lookup` used to hardcode code protection, and the
    /// page table's first-touch-wins made it permanent), and the lookup
    /// result always reports the protection the page was allocated with.
    #[test]
    fn tlb_refill_respects_requested_protection(
        pages in proptest::collection::vec((0u64..64, proptest::bool::ANY), 1..200)
    ) {
        let mut dtlb = Tlb::new(TlbConfig::default_dtlb());
        let mut pt = PageTable::new();
        let mut first_touch: std::collections::HashMap<u64, Protection> =
            std::collections::HashMap::new();
        for (page, as_data) in pages {
            let requested = if as_data { Protection::data() } else { Protection::code() };
            let expected = *first_touch.entry(page).or_insert(requested);
            let r = dtlb.lookup(Vpn::new(page), &mut pt, requested);
            prop_assert_eq!(r.prot, expected, "page {} first touch wins", page);
            prop_assert_eq!(pt.probe(Vpn::new(page)).unwrap().1, expected);
        }
    }

    /// The two-level TLB's serial miss path: whatever the lookup
    /// sequence, an L2 hit never touches the page table (no premature
    /// walk, no allocation), full misses map exactly one page, and the
    /// translation always agrees with the page table.
    #[test]
    fn two_level_serial_path_consistency(
        pages in proptest::collection::vec(0u64..24, 1..300)
    ) {
        let mut two = TwoLevelTlb::fig6_small();
        let mut pt = PageTable::new();
        for page in pages {
            let vpn = Vpn::new(page);
            let mapped_before = pt.mapped_pages();
            let was_mapped = pt.probe(vpn).is_some();
            let r = two.lookup(vpn, &mut pt, Protection::code());
            match r.l2_hit {
                None | Some(true) => prop_assert_eq!(
                    pt.mapped_pages(), mapped_before,
                    "page {}: TLB hits must not touch the page table", page
                ),
                Some(false) => prop_assert_eq!(
                    pt.mapped_pages(),
                    mapped_before + usize::from(!was_mapped)
                ),
            }
            prop_assert_eq!(r.pfn, pt.probe(vpn).unwrap().0);
            // Serial penalties: 0 on an L1 hit, the L2 latency on an L2
            // hit, latency + walk on a full miss.
            let expected_penalty = match r.l2_hit {
                None => 0,
                Some(true) => 1,
                Some(false) => 1 + 50,
            };
            prop_assert_eq!(r.penalty, expected_penalty);
        }
        // The L2 saw exactly the L1's misses.
        prop_assert_eq!(two.l2().stats().accesses, two.l1().stats().misses);
    }

    /// The page table is injective: distinct pages never share a frame.
    #[test]
    fn page_table_injective(pages in proptest::collection::hash_set(0u64..1 << 30, 1..200)) {
        let mut pt = PageTable::new();
        let mut frames = std::collections::HashSet::new();
        for p in pages {
            let (pfn, _) = pt.translate(Vpn::new(p), Protection::code());
            prop_assert!(frames.insert(pfn), "frame reused");
        }
    }

    /// Energy model monotonicity: more CAM entries never cost less.
    #[test]
    fn cam_energy_monotone(a in 2u32..512, b in 2u32..512) {
        let model = EnergyModel::default();
        let (small, large) = (a.min(b), a.max(b));
        let e_small = model.tlb_access_pj(&TlbOrganization::fully_associative(small));
        let e_large = model.tlb_access_pj(&TlbOrganization::fully_associative(large));
        prop_assert!(e_small <= e_large);
    }

    /// CFR trust: after `load(v)`, `matches(v)` holds and `matches(w)` for
    /// any other page does not; `invalidate` clears everything.
    #[test]
    fn cfr_trust(v in 0u64..1 << 20, w in 0u64..1 << 20, frame in 0u64..1 << 20) {
        let mut cfr = Cfr::new();
        cfr.load(Vpn::new(v), Pfn::new(frame), Protection::code());
        prop_assert!(cfr.matches(Vpn::new(v)));
        prop_assert_eq!(cfr.matches(Vpn::new(w)), v == w);
        cfr.invalidate();
        prop_assert!(!cfr.matches(Vpn::new(v)));
    }

    /// Generated programs are structurally valid for arbitrary seeds, and
    /// their instrumented layouts uphold the boundary invariant the
    /// software schemes' correctness rests on.
    #[test]
    fn generator_layout_invariants(seed in 0u64..1000) {
        let mut params = GeneratorParams::small_test();
        params.seed = seed;
        let program = generate(&params);
        prop_assert_eq!(program.validate(), Ok(()));
        let laid = LaidProgram::lay_out(&program, PageGeometry::default_4k(), true);
        prop_assert!(laid.boundary_invariant_holds());
    }

    /// Walker totality: execution never escapes the text and never stops,
    /// for arbitrary seeds.
    #[test]
    fn walker_totality(seed in 0u64..200) {
        let program = generate(&GeneratorParams::small_test());
        let laid = LaidProgram::lay_out(&program, PageGeometry::default_4k(), false);
        let mut w = Walker::new(&laid, seed);
        for _ in 0..2000 {
            let s = w.step();
            prop_assert!(s.next_slot < laid.slots.len());
        }
        prop_assert_eq!(w.steps(), 2000);
    }

    /// Strategy kinds all produce the exact requested commit count and a
    /// physically plausible IPC, for arbitrary small seeds.
    #[test]
    fn simulator_totality(seed in 0u64..20) {
        use cfr_sim::core::{SimConfig, Simulator};
        let program = generate(&GeneratorParams::small_test());
        let mut cfg = SimConfig::default_config();
        cfg.max_commits = 5_000;
        cfg.seed = seed;
        let r = Simulator::run_program(&program, &cfg, StrategyKind::Ia, AddressingMode::ViVt);
        prop_assert_eq!(r.committed, 5_000);
        prop_assert!(r.cpu.ipc() > 0.05 && r.cpu.ipc() <= 4.0);
    }

    /// The compiled-trace backend is a *reference-identical* replacement
    /// for the interpreter: every strategy × addressing-mode cell produces
    /// a field-identical `RunReport` (stats, cycles, and exact energy
    /// bits) under both backends, on arbitrary small random programs.
    #[test]
    fn execution_backends_are_report_identical(seed in 0u64..500) {
        use cfr_sim::core::{compiler, SimConfig, Simulator};
        use cfr_sim::workload::compile_trace;
        let mut params = GeneratorParams::small_test();
        params.seed = seed;
        let program = generate(&params);
        let mut cfg = SimConfig::default_config();
        cfg.max_commits = 1_000;
        cfg.seed = seed ^ 0x5EED;
        for kind in StrategyKind::ALL {
            let laid = compiler::compile_for(&program, cfg.cpu.geometry, kind);
            let trace = compile_trace(&laid);
            for mode in [AddressingMode::PiPt, AddressingMode::ViPt, AddressingMode::ViVt] {
                let interp = Simulator::run_interp(&laid, &cfg, kind, mode);
                let traced = Simulator::run_traced(&trace, &cfg, kind, mode);
                prop_assert_eq!(&interp, &traced, "{:?} under {:?}", kind, mode);
            }
        }
    }

    /// Store codec: TLB and cache stat counters round-trip exactly for
    /// arbitrary values.
    #[test]
    fn stat_records_round_trip(counts in proptest::collection::vec(0u64..u64::MAX / 2, 9..10)) {
        let tlb = TlbStats {
            accesses: counts[0],
            hits: counts[1],
            misses: counts[2],
            invalidations: counts[3],
            protection_faults: counts[8],
        };
        let mut w = RecordWriter::new();
        tlb.to_record(&mut w);
        let record = w.finish();
        let mut r = RecordReader::new(&record);
        prop_assert_eq!(TlbStats::from_record(&mut r).unwrap(), tlb);
        prop_assert!(r.finish().is_ok());

        let cache = CacheStats {
            accesses: counts[4],
            hits: counts[5],
            misses: counts[6],
            writebacks: counts[7],
        };
        let mut w = RecordWriter::new();
        cache.to_record(&mut w);
        let record = w.finish();
        let mut r = RecordReader::new(&record);
        prop_assert_eq!(CacheStats::from_record(&mut r).unwrap(), cache);
        prop_assert!(r.finish().is_ok());
    }

    /// Store codec: energy meters round-trip bit-exactly — event counts
    /// and accumulated picojoule floats — for arbitrary charge patterns.
    #[test]
    fn energy_meter_record_round_trips(
        charges in proptest::collection::vec((0u64..4, (1u64..1_000_000, 1u64..1_000_000)), 0..40)
    ) {
        const COMPONENTS: [&str; 4] = ["itlb_access", "itlb_refill", "cfr_read", "cfr_compare"];
        let mut meter = EnergyMeter::new();
        for (component, (events, millipj)) in charges {
            meter.charge_n(
                COMPONENTS[usize::try_from(component).unwrap()],
                events,
                millipj as f64 / 1000.0,
            );
        }
        let mut w = RecordWriter::new();
        meter.to_record(&mut w);
        let record = w.finish();
        let mut r = RecordReader::new(&record);
        let back = EnergyMeter::from_record(&mut r).unwrap();
        prop_assert!(r.finish().is_ok());
        prop_assert_eq!(back, meter);
    }

    /// Store codec: every representable `RunKey` round-trips through its
    /// record, and its record is a stable content address (equal keys ⇒
    /// equal records, distinct keys ⇒ distinct records).
    #[test]
    fn run_key_record_round_trips(
        profile in 0u64..6,
        commits in 1u64..10_000_000,
        seed in 0u64..u64::MAX / 2,
        strategy in 0u64..6,
        mode in 0u64..3,
        two_level in proptest::bool::ANY,
        entries_pow in 0u32..8,
        il1_override in proptest::bool::ANY,
        page_override in proptest::bool::ANY,
    ) {
        let names: Vec<&'static str> = profiles::all().into_iter().map(|p| p.name).collect();
        let scale = ExperimentScale { max_commits: commits, seed };
        let entries = 1u32 << entries_pow;
        let itlb = if two_level {
            ItlbChoice::TwoLevel(
                TlbOrganization::fully_associative(entries),
                TlbOrganization::fully_associative(entries * 4),
                1,
            )
        } else {
            ItlbChoice::Mono(TlbOrganization::fully_associative(entries))
        };
        let mut key = RunKey::new(
            names[usize::try_from(profile).unwrap()],
            &scale,
            StrategyKind::ALL[usize::try_from(strategy).unwrap()],
            AddressingMode::ALL[usize::try_from(mode).unwrap()],
        )
        .with_itlb(itlb);
        if il1_override {
            key = key.with_il1_bytes(2048);
        }
        if page_override {
            key = key.with_page_bytes(16384);
        }

        let record = key.store_key();
        let resolve = |name: &str| names.iter().copied().find(|n| *n == name);
        let mut r = RecordReader::new(&record);
        let back = RunKey::from_record(&mut r, resolve).unwrap();
        prop_assert!(r.finish().is_ok());
        prop_assert_eq!(back, key);
        prop_assert_eq!(back.store_key(), record);
    }
}

// ---------------------------------------------------------------------------
// Store-daemon protocol properties: the frame decoder and the request and
// response parsers are total over arbitrary bytes (never panic, never
// mis-frame), and every frame/request/response round-trips. See
// `cfr_types::net` and `tests/store_daemon.rs`.
// ---------------------------------------------------------------------------

use cfr_sim::types::net::{
    decode_frame, encode_frame, FrameDecode, HealthReport, Request, Response, StoreStats,
    FRAME_MAGIC,
};
use cfr_sim::types::{GcReport, NamespaceCounts};

/// Builds a printable-ish string (spaces, punctuation, alphanumerics, an
/// occasional multi-byte character) from generated code points.
fn text_from(codes: &[u64]) -> String {
    codes
        .iter()
        .map(|&c| {
            let c = u32::try_from(c % 0x500).unwrap();
            char::from_u32(c)
                .filter(|ch| !ch.is_control())
                .unwrap_or(' ')
        })
        .collect()
}

/// A single-line, non-empty key/value token stream.
fn record_line_from(codes: &[u64]) -> String {
    let line: String = text_from(codes).replace('\n', " ");
    if line.is_empty() {
        "k".to_string()
    } else {
        line
    }
}

/// Generated byte values as bytes.
fn bytes_from(values: &[u64]) -> Vec<u8> {
    values.iter().map(|&b| u8::try_from(b).unwrap()).collect()
}

proptest! {
    /// Arbitrary byte soup never panics the frame decoder, at any
    /// offset, and whatever it classifies as a frame must re-encode to
    /// the exact bytes it consumed (no mis-framing). Some soups start
    /// with the magic and a small length, so the length and payload
    /// paths run, not just the magic check.
    #[test]
    fn frame_decoder_is_total_over_garbage(
        bytes in proptest::collection::vec(0u64..256, 0..160),
        framed in proptest::bool::ANY,
        len in 0u64..200,
    ) {
        let mut bytes = bytes_from(&bytes);
        if framed {
            let mut header = FRAME_MAGIC.to_vec();
            header.extend_from_slice(&u32::try_from(len).unwrap().to_le_bytes());
            bytes.splice(0..0, header);
        }
        for start in 0..=bytes.len() {
            if let FrameDecode::Frame { payload, consumed } = decode_frame(&bytes[start..]) {
                let reencoded = encode_frame(payload);
                prop_assert_eq!(reencoded.as_slice(), &bytes[start..start + consumed]);
            }
        }
    }

    /// Frames round-trip byte payloads exactly, and every strict prefix
    /// of a frame reads as `Incomplete` — a truncated frame asks for
    /// more bytes, it never yields a wrong payload or an error.
    #[test]
    fn binary_frames_round_trip_and_prefixes_are_incomplete(
        payload in proptest::collection::vec(0u64..256, 0..160),
    ) {
        let payload = bytes_from(&payload);
        let bytes = encode_frame(&payload);
        prop_assert_eq!(
            decode_frame(&bytes),
            FrameDecode::Frame { payload: &payload, consumed: bytes.len() }
        );
        for cut in 0..bytes.len() {
            prop_assert_eq!(decode_frame(&bytes[..cut]), FrameDecode::Incomplete, "cut {cut}");
        }
    }

    /// Request and response codecs round-trip for generated namespaces,
    /// keys, values, batches, claims, and counter sets — every protocol
    /// message.
    #[test]
    fn request_and_response_codecs_round_trip(
        which in 0u64..10,
        key_codes in proptest::collection::vec(0u64..0x500, 1..40),
        value_codes in proptest::collection::vec(0u64..0x500, 0..60),
        ns_pick in 0u64..5,
        batch in 0usize..5,
        millis in 0u64..1_000_000,
        counters in proptest::collection::vec(0u64..1_000_000, 13..14),
    ) {
        let ns = ["runs", "walks", "programs", "traces", "scenarios"]
            [usize::try_from(ns_pick).unwrap()]
            .to_string();
        let key = record_line_from(&key_codes);
        let value = record_line_from(&value_codes);
        let items: Vec<(String, String)> = (0..batch)
            .map(|i| (ns.clone(), format!("{key} {i}")))
            .collect();
        let request = match which {
            0 => Request::MGet { items: vec![(ns.clone(), key.clone())] },
            1 => Request::Put { ns: ns.clone(), key: key.clone(), value: value.clone() },
            2 => Request::Put {
                ns: "runs".into(),
                key: "k".into(),
                value: String::new(),
            },
            3 => Request::Stats,
            4 => Request::Gc,
            5 => Request::MGet { items },
            6 => Request::Shutdown,
            7 => Request::Claim { ns: ns.clone(), key: key.clone(), lease_ms: millis },
            8 => Request::Wait { ns: ns.clone(), key: key.clone(), timeout_ms: millis },
            _ => Request::Health,
        };
        prop_assert_eq!(Request::decode(&request.encode()), Ok(request));

        let mgot: Vec<Option<String>> = (0..batch)
            .map(|i| (i % 2 == 0).then(|| format!("{value} {i}")))
            .collect();
        let response = match which {
            0 => Response::Hit { value },
            1 => Response::Miss,
            2 => Response::Done,
            3 => Response::Stats(StoreStats {
                live_records: counters[0],
                live_bytes: counters[1],
                file_bytes: counters[2],
                namespaces: NamespaceCounts(counters[3..8].try_into().unwrap()),
                active_connections: counters[8],
                batched_keys: counters[9],
                max_batch: counters[10],
                claims_granted: counters[11],
                claims_expired: counters[12],
            }),
            4 => Response::Gc(GcReport {
                live_records: counters[0],
                live_bytes: counters[1],
                dead_bytes_dropped: counters[2],
                evicted_age: counters[3],
                evicted_size: counters[4],
                shards_rewritten: u32::try_from(counters[5] % 17).unwrap(),
            }),
            5 => Response::MGot { values: mgot },
            6 => Response::Granted,
            7 => Response::Busy,
            8 => Response::Health(HealthReport {
                uptime_secs: millis,
                draining: millis % 2 == 0,
                shards_occupied: u32::try_from(counters[0] % 17).unwrap(),
                shard_count: 16,
                live_records: counters[1],
                file_bytes: counters[2],
            }),
            _ => Response::Error {
                message: record_line_from(&value_codes),
            },
        };
        prop_assert_eq!(Response::decode(&response.encode()), Ok(response));
    }

    /// Arbitrary byte soup never panics the request/response parsers —
    /// they decode or error cleanly (the server's "clean error reply"
    /// path), and a decodable payload re-encodes canonically.
    #[test]
    fn binary_codecs_are_total_over_garbage(bytes in proptest::collection::vec(0u64..256, 0..120)) {
        let bytes = bytes_from(&bytes);
        if let Ok(request) = Request::decode(&bytes) {
            prop_assert_eq!(Request::decode(&request.encode()), Ok(request));
        }
        if let Ok(response) = Response::decode(&bytes) {
            prop_assert_eq!(Response::decode(&response.encode()), Ok(response));
        }
    }

    /// Structured garbage — a tag byte, then a random mix of plausible
    /// length prefixes, field bytes, and raw bytes — reaches every field
    /// decoder (not just the tag dispatch) without a panic, and whatever
    /// decodes re-encodes canonically.
    #[test]
    fn request_parser_is_total_over_garbage(
        tag in 0u64..13,
        fields in proptest::collection::vec((0u64..3, 0u64..6), 0..10),
    ) {
        let mut payload = vec![u8::try_from(tag).unwrap()];
        for (kind, n) in fields {
            match kind {
                0 => payload.extend_from_slice(&u32::try_from(n).unwrap().to_le_bytes()),
                1 => payload.extend(vec![b'k'; usize::try_from(n).unwrap()]),
                _ => payload.push(u8::try_from(n).unwrap()),
            }
        }
        if let Ok(request) = Request::decode(&payload) {
            prop_assert_eq!(Request::decode(&request.encode()), Ok(request));
        }
        if let Ok(response) = Response::decode(&payload) {
            prop_assert_eq!(Response::decode(&response.encode()), Ok(response));
        }
    }
}
