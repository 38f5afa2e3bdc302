//! Integration tests of the networked store: engines running against a
//! live `StoreServer` daemon (the library core of `cfr-store-serve`),
//! the degraded path when the daemon dies mid-run, raw-garbage clients,
//! and the loss-free-compaction stress the single-owner design exists
//! for.
//!
//! The daemon runs **in-process** on an ephemeral port — the same
//! acceptor, connection and housekeeping threads the binary spawns,
//! without the binary-path and orphaned-process fragility of forking a
//! child.

use std::fs;
use std::path::PathBuf;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use cfr_sim::core::{
    Engine, ExperimentScale, RunKey, ScenarioConfig, ScenarioProc, Store, StrategyKind, TlbMode,
};
use cfr_sim::types::net::FRAME_MAGIC;
use cfr_sim::types::{
    AddressingMode, ArtifactStore, ClaimOutcome, GcPolicy, LayeredStore, RemoteStore, ServerConfig,
    StoreBackend, StoreServer, NAMESPACES, NS_PROGRAMS, NS_RUNS, NS_SCENARIOS, NS_TRACES,
};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cfr-daemon-it-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn serve(dir: &std::path::Path, config: ServerConfig) -> StoreServer {
    let store = Arc::new(ArtifactStore::open(dir, GcPolicy::unbounded()).unwrap());
    StoreServer::bind(store, "127.0.0.1:0", config).unwrap()
}

fn quiet_config() -> ServerConfig {
    ServerConfig {
        gc_policy: GcPolicy::unbounded(),
        gc_interval: None,
        ..ServerConfig::default()
    }
}

fn tiny() -> ExperimentScale {
    ExperimentScale {
        max_commits: 10_000,
        seed: 0x5EED,
    }
}

fn keys(scale: &ExperimentScale) -> Vec<RunKey> {
    ["177.mesa", "254.gap"]
        .into_iter()
        .flat_map(|p| {
            [StrategyKind::Base, StrategyKind::Ia]
                .into_iter()
                .map(move |s| RunKey::new(p, scale, s, AddressingMode::ViPt))
        })
        .collect()
}

/// An engine whose only store is the daemon at `addr`.
fn remote_engine(addr: &str) -> Engine {
    Engine::new().with_store(Store::over(Arc::new(RemoteStore::new(addr))))
}

/// A second engine pass against the daemon is 0 cold and produces
/// reports bit-identical to the local-store path (equal reports ⇒
/// byte-identical stdout: the tables are deterministic formatting over
/// the reports).
#[test]
fn daemon_serves_runs_warm_across_engines_bit_identically() {
    let dir = temp_dir("warm");
    let server = serve(&dir, quiet_config());
    let addr = server.addr().to_string();
    let scale = tiny();
    let ks = keys(&scale);

    // Reference: the plain local-store path.
    let local_dir = temp_dir("warm-localref");
    let reference = Engine::new().with_store(Store::open(&local_dir).unwrap());
    let expected = reference.run_many(&ks);

    // Cold pass through the daemon: everything simulates, results go
    // over the wire into the daemon's shards.
    let cold = remote_engine(&addr);
    let cold_reports = cold.run_many(&ks);
    let runs = cold.store_summary().runs;
    assert_eq!((runs.warm, runs.cold), (0, ks.len() as u64));
    for (a, b) in expected.iter().zip(&cold_reports) {
        assert_eq!(**a, **b, "daemon-backed cold run matches local run");
    }
    assert_eq!(
        server.store().namespace_records(NS_RUNS),
        ks.len(),
        "every run landed in the daemon's store"
    );

    // Warm pass: a fresh engine and a fresh client (= a fresh process)
    // must compute nothing.
    let warm = remote_engine(&addr);
    let warm_reports = warm.run_many(&ks);
    assert_eq!(warm.simulated_runs(), 0, "second pass is 0 cold");
    assert_eq!(warm.store_summary().runs.warm, ks.len() as u64);
    for (a, b) in expected.iter().zip(&warm_reports) {
        assert_eq!(**a, **b, "warm-over-the-wire reports are bit-identical");
    }
    let line = warm.summary_line();
    assert!(line.contains("tcp://"), "summary names the daemon: {line}");

    server.shutdown();
    let _ = fs::remove_dir_all(&dir);
    let _ = fs::remove_dir_all(&local_dir);
}

/// Two engines in different threads hammer the same daemon
/// concurrently; both come back with reference-identical reports and
/// the daemon holds each unique key exactly once.
#[test]
fn concurrent_engines_share_one_daemon() {
    let dir = temp_dir("concurrent");
    let server = serve(&dir, quiet_config());
    let addr = server.addr().to_string();
    let scale = tiny();
    let ks = keys(&scale);

    let reference = Engine::new();
    let expected = reference.run_many(&ks);

    let workers: Vec<_> = (0..2)
        .map(|_| {
            let addr = addr.clone();
            let ks = ks.clone();
            thread::spawn(move || {
                let engine = remote_engine(&addr);
                let reports = engine.run_many(&ks);
                reports.iter().map(|r| (**r).clone()).collect::<Vec<_>>()
            })
        })
        .collect();
    for worker in workers {
        let reports = worker.join().expect("engine thread must not panic");
        for (a, b) in expected.iter().zip(&reports) {
            assert_eq!(**a, *b);
        }
    }
    assert_eq!(server.store().namespace_records(NS_RUNS), ks.len());
    server.shutdown();
    let _ = fs::remove_dir_all(&dir);
}

/// Two multiprogrammed scenarios over the same pair of programs: one
/// per TLB mode.
fn scenarios(scale: &ExperimentScale) -> Vec<ScenarioConfig> {
    [TlbMode::Asid, TlbMode::Flush]
        .into_iter()
        .map(|tlb_mode| {
            let procs = vec![ScenarioProc::new("177.mesa"), ScenarioProc::new("254.gap")];
            let mut cfg =
                ScenarioConfig::new(procs, *scale, StrategyKind::Ia, AddressingMode::ViPt);
            cfg.quantum = 4_000;
            cfg.tlb_mode = tlb_mode;
            cfg
        })
        .collect()
}

/// Four engines race the same fully-cold plan — runs, then scenarios —
/// through one daemon. The protocol-level claim/wait cycle must make
/// each unique key compute **exactly once globally** in every job
/// namespace the plan touches — runs and scenarios. The daemon's own
/// counters are the proof: one claim granted per key, none expired, and
/// the sum of the racers' cold counts equals the unique keys. The
/// programs and traces the keys execute are remade by each racer and
/// never reach the daemon. Every racer still comes back with
/// reference-identical reports (losers read the winner's published
/// record).
#[test]
fn racing_engines_simulate_each_cold_key_exactly_once_globally() {
    let dir = temp_dir("racing");
    let server = serve(&dir, quiet_config());
    let addr = server.addr().to_string();
    let scale = tiny();
    let ks = keys(&scale);
    let scens = scenarios(&scale);

    let reference = Engine::new();
    let expected = reference.run_many(&ks);
    let expected_scens = reference.run_scenarios(&scens);

    let engines: Vec<Arc<Engine>> = (0..4).map(|_| Arc::new(remote_engine(&addr))).collect();
    let workers: Vec<_> = engines
        .iter()
        .map(|engine| {
            let engine = Arc::clone(engine);
            let (ks, scens) = (ks.clone(), scens.clone());
            thread::spawn(move || {
                let runs: Vec<_> = engine.run_many(&ks).iter().map(|r| (**r).clone()).collect();
                let scens: Vec<_> = engine
                    .run_scenarios(&scens)
                    .iter()
                    .map(|r| (**r).clone())
                    .collect();
                (runs, scens)
            })
        })
        .collect();
    for worker in workers {
        let (reports, scen_reports) = worker.join().expect("racing engine must not panic");
        for (a, b) in expected.iter().zip(&reports) {
            assert_eq!(**a, *b, "every racer sees reference-identical reports");
        }
        for (a, b) in expected_scens.iter().zip(&scen_reports) {
            assert_eq!(**a, *b, "every racer sees reference-identical scenarios");
        }
    }

    let total_simulated: u64 = engines.iter().map(|e| e.simulated_runs()).sum();
    assert_eq!(
        total_simulated,
        ks.len() as u64,
        "cold simulations across all racers == unique keys (global dedup)"
    );
    let scenarios_cold: u64 = engines
        .iter()
        .map(|e| e.store_summary().scenarios.cold)
        .sum();
    assert_eq!(
        scenarios_cold,
        scens.len() as u64,
        "cold scenarios across all racers == unique configs (global dedup)"
    );
    // Every racer resolved every key: what it did not compute, it read
    // warm (probe hit, claim hit, or wait-published hit).
    for engine in &engines {
        let s = engine.store_summary();
        assert_eq!(s.runs.warm + s.runs.cold, ks.len() as u64);
        assert_eq!(s.scenarios.warm + s.scenarios.cold, scens.len() as u64);
    }
    let stats = RemoteStore::new(addr).stats().expect("daemon reachable");
    assert_eq!(
        stats.claims_granted,
        ks.len() as u64 + scens.len() as u64,
        "exactly one claim granted per unique run and scenario"
    );
    assert_eq!(stats.claims_expired, 0, "no claim lapsed during the race");
    assert!(
        stats.batched_keys >= (ks.len() * engines.len()) as u64,
        "every racer probed its plan through batched MGETs"
    );
    assert_eq!(server.store().namespace_records(NS_RUNS), ks.len());
    assert_eq!(server.store().namespace_records(NS_SCENARIOS), scens.len());
    assert_eq!(server.store().namespace_records(NS_PROGRAMS), 0);
    assert_eq!(server.store().namespace_records(NS_TRACES), 0);
    server.shutdown();
    let _ = fs::remove_dir_all(&dir);
}

/// A client claims a cold key and dies without publishing. The daemon
/// releases the orphaned claim on disconnect, so a later engine is
/// never stuck behind a dead claimant: it computes the key itself and
/// the daemon's expiry counter records the release.
#[test]
fn dead_claim_holder_never_wedges_a_racing_engine() {
    let dir = temp_dir("deadclaim");
    let server = serve(&dir, quiet_config());
    let addr = server.addr().to_string();
    let scale = tiny();
    let key = RunKey::new("177.mesa", &scale, StrategyKind::Base, AddressingMode::ViPt);
    let record = key.store_key();

    // The doomed claimant takes a long lease… then its process dies
    // (the dropped client closes the connection without publishing).
    {
        let doomed = RemoteStore::new(addr.clone());
        assert_eq!(
            doomed.claim(NS_RUNS, &record, Duration::from_secs(300)),
            ClaimOutcome::Granted
        );
    }

    // A fresh engine still completes promptly — released claim ⇒ local
    // compute, preserving every-failure-is-a-miss — and the report is
    // bit-identical to the no-daemon reference.
    let engine = remote_engine(&addr);
    let report = engine.run(key);
    assert_eq!(engine.simulated_runs(), 1, "the engine computed it itself");
    let reference = Engine::new();
    assert_eq!(*report, *reference.run(key));

    let stats = RemoteStore::new(addr).stats().expect("daemon reachable");
    assert_eq!(
        stats.claims_expired, 1,
        "the daemon recorded the dead claimant's release"
    );
    server.shutdown();
    let _ = fs::remove_dir_all(&dir);
}

/// The daemon dies between two batches on one engine (one established
/// client connection): the second batch degrades to cold — no panic, no
/// hang, bit-identical results.
#[test]
fn daemon_death_mid_run_degrades_to_cold() {
    let dir = temp_dir("death");
    let server = serve(&dir, quiet_config());
    let addr = server.addr().to_string();
    let scale = tiny();
    let ks = keys(&scale);
    let (first_half, second_half) = ks.split_at(2);

    let reference = Engine::new();
    let expected = reference.run_many(&ks);

    // Warm the daemon with the first half through one engine…
    let seed_engine = remote_engine(&addr);
    let _ = seed_engine.run_many(first_half);

    // …then a second engine reads those warm, loses the daemon, and
    // finishes the rest cold over the same (now dead) connection.
    let engine = remote_engine(&addr);
    let warm_part = engine.run_many(first_half);
    assert_eq!(engine.simulated_runs(), 0, "first half served warm");
    server.shutdown(); // the daemon dies mid-run
    let cold_part = engine.run_many(second_half);
    assert_eq!(
        engine.simulated_runs(),
        second_half.len() as u64,
        "after the daemon died everything simulates"
    );
    for (a, b) in expected.iter().zip(warm_part.iter().chain(&cold_part)) {
        assert_eq!(**a, **b, "degraded results are still correct");
    }
    let _ = fs::remove_dir_all(&dir);
}

/// With a layered store, a daemon death degrades to the *local* layer:
/// runs the local shards already hold stay warm with the daemon gone.
#[test]
fn layered_engine_falls_back_to_local_when_the_daemon_dies() {
    let daemon_dir = temp_dir("fallback-daemon");
    let local_dir = temp_dir("fallback-local");
    let scale = tiny();
    let ks = keys(&scale);

    // Warm the *local* store the pre-daemon way.
    let local_engine = Engine::new().with_store(Store::open(&local_dir).unwrap());
    let expected = local_engine.run_many(&ks);

    let server = serve(&daemon_dir, quiet_config());
    let layered = LayeredStore::new(
        RemoteStore::new(server.addr().to_string()),
        Some(Arc::new(
            ArtifactStore::open(&local_dir, GcPolicy::unbounded()).unwrap(),
        )),
    );
    server.shutdown(); // daemon gone before the engine ever reaches it

    let engine = Engine::new().with_store(Store::over(Arc::new(layered)));
    let reports = engine.run_many(&ks);
    assert_eq!(
        engine.simulated_runs(),
        0,
        "local fallback serves everything with the daemon dead"
    );
    for (a, b) in expected.iter().zip(&reports) {
        assert_eq!(**a, **b);
    }
    let _ = fs::remove_dir_all(&daemon_dir);
    let _ = fs::remove_dir_all(&local_dir);
}

/// A client speaking garbage gets an error reply (or a disconnect),
/// never takes the daemon down, and never corrupts what engines see.
#[test]
fn garbage_speaking_clients_cannot_hurt_the_daemon() {
    use std::io::{Read, Write};

    let dir = temp_dir("garbage");
    let server = serve(&dir, quiet_config());
    let addr = server.addr().to_string();

    let client = RemoteStore::new(addr.clone());
    client.save(NS_RUNS, "kept", "value that must survive vandals");

    // Garbage that gets past the magic: a length no frame may have, a
    // payload cut short by EOF, and a well-framed unknown tag.
    let framed = |len: u32, payload: &[u8]| {
        let mut frame = FRAME_MAGIC.to_vec();
        frame.extend_from_slice(&len.to_le_bytes());
        frame.extend_from_slice(payload);
        frame
    };
    for garbage in [
        b"GET / HTTP/1.1\r\nHost: x\r\n\r\n".to_vec(),
        b"cfr1 99999999999999999999\n".to_vec(),
        b"cfr1 12\ntoo short".to_vec(),
        vec![0u8; 64],
        vec![0xff; 512],
        framed(u32::MAX, b""),
        framed(64, b"too short"),
        framed(3, &[0xee, 1, 2]),
    ] {
        let mut raw = std::net::TcpStream::connect(server.addr()).unwrap();
        raw.write_all(&garbage).unwrap();
        let _ = raw.shutdown(std::net::Shutdown::Write);
        // Drain whatever the server answers (an err frame or nothing);
        // the only requirement is that it disconnects rather than hangs.
        let mut sink = Vec::new();
        let _ = raw.take(4096).read_to_end(&mut sink);
    }
    assert_eq!(
        client.load(NS_RUNS, "kept").as_deref(),
        Some("value that must survive vandals"),
        "the daemon survives garbage-speaking clients"
    );
    server.shutdown();
    let _ = fs::remove_dir_all(&dir);
}

/// The loss PR 3 documented for cross-process compaction, attacked
/// head-on: N client threads hammer interleaved PUT/GET on one
/// namespace for 100 consecutive iterations while the daemon's
/// background GC (1 ms cadence) and an explicit maintenance client
/// compact concurrently. No fresh append may be lost, and every
/// surviving record must read back byte-for-byte — through the daemon
/// and from a fresh scan of the shards afterwards.
#[test]
fn compaction_under_fire_loses_no_appends_for_100_iterations() {
    const THREADS: usize = 4;
    const ITERATIONS: usize = 100;

    let dir = temp_dir("stress");
    let server = serve(
        &dir,
        ServerConfig {
            gc_policy: GcPolicy::unbounded(),
            gc_interval: Some(Duration::from_millis(1)),
            ..ServerConfig::default()
        },
    );
    let addr = server.addr().to_string();

    let workers: Vec<_> = (0..THREADS)
        .map(|t| {
            let addr = addr.clone();
            thread::spawn(move || {
                let client = RemoteStore::new(addr);
                for i in 0..ITERATIONS {
                    // A hot per-thread key: every overwrite leaves dead
                    // bytes for the GC to compact under us. Reads after
                    // writes must see the write (one daemon, one index).
                    let own_value = format!("thread {t} iteration {i} payload 0x3fb999999999999a");
                    client.save(NS_RUNS, &format!("own-{t}"), &own_value);
                    assert_eq!(
                        client.load(NS_RUNS, &format!("own-{t}")).as_deref(),
                        Some(own_value.as_str()),
                        "read-your-writes at thread {t}, iteration {i}"
                    );
                    // A contended key: any thread may win, but the value
                    // must always be one some thread actually wrote.
                    client.save(NS_RUNS, "contended", &format!("winner {t} at {i}"));
                    let got = client
                        .load(NS_RUNS, "contended")
                        .expect("contended key always present once written");
                    assert!(got.starts_with("winner "), "torn read: {got:?}");
                    // A write-once key per (thread, iteration): the
                    // no-lost-appends witness.
                    client.save(NS_RUNS, &format!("stable-{t}-{i}"), "immutable record");
                }
            })
        })
        .collect();
    // A maintenance client forcing full GC passes on top of the 1 ms
    // background cadence — the exact cross-compaction scenario.
    let gc_addr = addr.clone();
    let gc_worker = thread::spawn(move || {
        let client = RemoteStore::new(gc_addr);
        for _ in 0..ITERATIONS {
            let _ = client.gc();
            thread::sleep(Duration::from_micros(200));
        }
    });
    for w in workers {
        w.join().expect("client thread must not panic");
    }
    gc_worker.join().expect("gc thread must not panic");

    // Every append survived, byte-for-byte, through the daemon…
    let check = RemoteStore::new(addr);
    for t in 0..THREADS {
        let last = format!(
            "thread {t} iteration {} payload 0x3fb999999999999a",
            ITERATIONS - 1
        );
        assert_eq!(
            check.load(NS_RUNS, &format!("own-{t}")).as_deref(),
            Some(last.as_str())
        );
        for i in 0..ITERATIONS {
            assert_eq!(
                check.load(NS_RUNS, &format!("stable-{t}-{i}")).as_deref(),
                Some("immutable record"),
                "stable-{t}-{i} was dropped by a concurrent compaction"
            );
        }
    }
    let final_gc = check.gc().expect("daemon still reachable");
    assert_eq!(
        final_gc.live_records as usize,
        THREADS * ITERATIONS + THREADS + 1,
        "live set is exactly the stable keys + own keys + contended key"
    );
    server.shutdown();

    // …and from a cold rescan of the compacted shard files.
    let reopened = ArtifactStore::open(&dir, GcPolicy::unbounded()).unwrap();
    assert_eq!(
        reopened.namespace_records(NS_RUNS),
        THREADS * ITERATIONS + THREADS + 1
    );
    for t in 0..THREADS {
        for i in 0..ITERATIONS {
            assert_eq!(
                reopened
                    .load(NS_RUNS, &format!("stable-{t}-{i}"))
                    .as_deref(),
                Some("immutable record"),
                "stable-{t}-{i} lost on disk"
            );
        }
    }
    let _ = fs::remove_dir_all(&dir);
}

/// The typed maintenance surface over the wire: stats reflects traffic,
/// GC compacts dead bytes, and the engine's per-namespace counters keep
/// working against a daemon.
#[test]
fn stats_and_gc_commands_work_against_live_traffic() {
    let dir = temp_dir("maint");
    let server = serve(&dir, quiet_config());
    let addr = server.addr().to_string();
    let client = RemoteStore::new(addr.clone());

    client.save(NS_RUNS, "k", "version 1");
    client.save(NS_RUNS, "k", "version 2");
    let stats = client.stats().expect("daemon reachable");
    assert_eq!(stats.namespaces.get(NS_RUNS), 1);
    assert!(
        stats.file_bytes > stats.live_bytes,
        "the superseded record is dead bytes"
    );
    let report = client.gc().expect("daemon reachable");
    assert!(report.dead_bytes_dropped > 0);
    let after = client.stats().expect("daemon reachable");
    assert_eq!(after.file_bytes, after.live_bytes, "compacted clean");
    assert_eq!(client.load(NS_RUNS, "k").as_deref(), Some("version 2"));

    // The engine's namespace counters flow over the wire too.
    let engine = remote_engine(&addr);
    let scale = tiny();
    let key = RunKey::new("177.mesa", &scale, StrategyKind::Base, AddressingMode::ViPt);
    let _ = engine.run(key);
    let summary = engine.store_summary();
    assert_eq!(summary.runs.cold, 1);
    let warm_engine = remote_engine(&addr);
    let _ = warm_engine.run(key);
    let summary = warm_engine.store_summary();
    assert_eq!((summary.runs.warm, summary.runs.cold), (1, 0));

    server.shutdown();
    let _ = fs::remove_dir_all(&dir);
}

/// Every namespace is visible to store maintenance over the wire —
/// `scenarios` included, which the daemon's statistics once dropped.
#[test]
fn scenario_records_are_visible_to_store_maintenance() {
    let dir = temp_dir("scenario-stats");
    let server = serve(&dir, quiet_config());
    let client = RemoteStore::new(server.addr().to_string());
    client.save(NS_SCENARIOS, "scenario key", "scenario report");
    assert_eq!(client.namespace_records(NS_SCENARIOS), 1);
    for ns in NAMESPACES {
        client.save(ns, "another key", "value");
    }
    let stats = client.stats().expect("daemon reachable");
    assert_eq!(
        stats.namespaces.to_string(),
        "1 runs / 1 walks / 1 programs / 1 traces / 2 scenarios"
    );
    server.shutdown();
    let _ = fs::remove_dir_all(&dir);
}
