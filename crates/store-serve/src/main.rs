//! `cfr-store-serve` — the artifact-store daemon and its maintenance CLI.
//!
//! One process **exclusively owns** a sharded artifact store directory
//! and serves it over TCP (see `cfr_types::net` for the protocol and the
//! loss-free-compaction argument). Experiment binaries become clients by
//! setting `CFR_STORE_ADDR=host:port` — no other change.
//!
//! ```sh
//! # Serve (foreground; shut down via the subcommand below or SIGKILL):
//! cfr-store-serve --addr 127.0.0.1:7433 --dir target/cfr-store
//!
//! # Point any experiment binary at it:
//! CFR_STORE_ADDR=127.0.0.1:7433 all_experiments --commits 1000000
//!
//! # Maintenance (protocol commands from another machine/shell):
//! cfr-store-serve stats    --addr 127.0.0.1:7433
//! cfr-store-serve gc       --addr 127.0.0.1:7433
//! cfr-store-serve shutdown --addr 127.0.0.1:7433
//! ```
//!
//! The daemon opens its store **unbounded** so saves never compact
//! inline; the age/size policy (`CFR_STORE_MAX_BYTES` /
//! `CFR_STORE_MAX_AGE`) is applied by the housekeeping thread (cadence
//! `--gc-interval`, default 60 s) and by the `GC` protocol command.
//! While the daemon runs, no other process can open the directory: the
//! daemon holds an exclusive advisory lock on it (`daemon.lock`), and
//! local `ArtifactStore` opens are refused with an error pointing at
//! `CFR_STORE_ADDR`. The daemon being the sole shard owner is what makes
//! its compaction loss-free.

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use cfr_types::net::{RemoteStore, ServerConfig, StoreServer, DEFAULT_DAEMON_ADDR};
use cfr_types::store::{store_dir_from_env, ArtifactStore, GcPolicy, DEFAULT_STORE_DIR};

/// SIGTERM → graceful drain. The handler only flips an atomic flag
/// (the only thing async-signal-safe to do); the main thread polls it
/// and runs the actual drain outside signal context.
#[cfg(unix)]
mod term_signal {
    use std::sync::atomic::{AtomicBool, Ordering};

    static TERM: AtomicBool = AtomicBool::new(false);

    type SigHandler = extern "C" fn(i32);

    unsafe extern "C" {
        fn signal(signum: i32, handler: SigHandler) -> usize;
    }

    extern "C" fn on_term(_signum: i32) {
        TERM.store(true, Ordering::SeqCst);
    }

    const SIGTERM: i32 = 15;

    pub fn install() {
        unsafe {
            signal(SIGTERM, on_term);
        }
    }

    pub fn received() -> bool {
        TERM.load(Ordering::SeqCst)
    }
}

#[cfg(not(unix))]
mod term_signal {
    pub fn install() {}
    pub fn received() -> bool {
        false
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: cfr-store-serve [--addr HOST:PORT] [--dir DIR] [--gc-interval SECS]\n\
         \x20                     [--read-timeout SECS]\n\
         \x20      cfr-store-serve stats|health|gc|shutdown [--addr HOST:PORT]\n\
         \n\
         serve mode (default): own DIR (default $CFR_STORE_DIR, else {DEFAULT_STORE_DIR})\n\
         and serve it on HOST:PORT (default {DEFAULT_DAEMON_ADDR}). GC policy comes from\n\
         CFR_STORE_MAX_BYTES / CFR_STORE_MAX_AGE and runs on the housekeeping thread\n\
         every SECS seconds (default 60; 0 disables it). Each connection gets its\n\
         own thread; one stalled mid-frame, or not reading its replies, longer\n\
         than the read timeout (default 10 s) is closed.\n\
         \n\
         stats / health / gc / shutdown: send the protocol command to a running\n\
         daemon and print its reply. SIGTERM drains gracefully: in-flight frames\n\
         are answered, parked waiters get an err reply, shards are synced, and\n\
         the directory lock is released."
    );
    std::process::exit(2);
}

struct Args {
    command: Option<String>, // None = serve
    addr: String,
    dir: Option<String>,
    gc_interval: u64,
    read_timeout: u64,
}

fn parse_args() -> Args {
    let mut args = Args {
        command: None,
        addr: DEFAULT_DAEMON_ADDR.to_string(),
        dir: None,
        gc_interval: 60,
        read_timeout: ServerConfig::default().read_timeout.as_secs(),
    };
    let mut it = std::env::args().skip(1);
    let mut first = true;
    while let Some(arg) = it.next() {
        let (flag, inline) = match arg.split_once('=') {
            Some((f, v)) => (f.to_string(), Some(v.to_string())),
            None => (arg.clone(), None),
        };
        let mut value_of = |flag: &str| -> String {
            inline.clone().or_else(|| it.next()).unwrap_or_else(|| {
                eprintln!("error: {flag} requires a value");
                usage();
            })
        };
        match flag.as_str() {
            "--addr" => args.addr = value_of("--addr"),
            "--dir" => args.dir = Some(value_of("--dir")),
            "--gc-interval" => {
                let v = value_of("--gc-interval");
                args.gc_interval = v.parse().unwrap_or_else(|_| {
                    eprintln!("error: --gc-interval expects seconds, got {v:?}");
                    usage();
                });
            }
            "--read-timeout" => {
                let v = value_of("--read-timeout");
                args.read_timeout = v.parse().ok().filter(|n| *n > 0).unwrap_or_else(|| {
                    eprintln!("error: --read-timeout expects seconds, got {v:?}");
                    usage();
                });
            }
            "stats" | "health" | "gc" | "shutdown" if first && args.command.is_none() => {
                args.command = Some(flag);
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("error: unknown argument {other:?}");
                usage();
            }
        }
        first = false;
    }
    args
}

fn maintenance(command: &str, addr: &str) -> ExitCode {
    let client = RemoteStore::new(addr);
    match command {
        "stats" => match client.stats() {
            Some(s) => {
                println!(
                    "stats: {} live records ({}), {} live bytes in {} file bytes",
                    s.live_records, s.namespaces, s.live_bytes, s.file_bytes,
                );
                println!(
                    "load: {} active connections, {} batched keys (max batch {}), \
                     claims {} granted / {} expired",
                    s.active_connections,
                    s.batched_keys,
                    s.max_batch,
                    s.claims_granted,
                    s.claims_expired,
                );
                ExitCode::SUCCESS
            }
            None => {
                eprintln!("error: no daemon reachable at {addr}");
                ExitCode::FAILURE
            }
        },
        "health" => match client.health() {
            Some(h) => {
                println!(
                    "health: up {}s, draining: {}, {}/{} shards occupied, \
                     {} live records in {} file bytes",
                    h.uptime_secs,
                    if h.draining { "yes" } else { "no" },
                    h.shards_occupied,
                    h.shard_count,
                    h.live_records,
                    h.file_bytes,
                );
                ExitCode::SUCCESS
            }
            None => {
                eprintln!("error: no daemon reachable at {addr}");
                ExitCode::FAILURE
            }
        },
        "gc" => match client.gc() {
            Some(r) => {
                println!(
                    "gc: dropped {} dead bytes, evicted {} by age + {} by size, \
                     rewrote {} shards; {} records / {} bytes live",
                    r.dead_bytes_dropped,
                    r.evicted_age,
                    r.evicted_size,
                    r.shards_rewritten,
                    r.live_records,
                    r.live_bytes,
                );
                ExitCode::SUCCESS
            }
            None => {
                eprintln!("error: no daemon reachable at {addr}");
                ExitCode::FAILURE
            }
        },
        "shutdown" => {
            if client.shutdown() {
                println!("shutdown: daemon at {addr} acknowledged");
                ExitCode::SUCCESS
            } else {
                eprintln!("error: no daemon reachable at {addr}");
                ExitCode::FAILURE
            }
        }
        _ => unreachable!("parse_args only admits known commands"),
    }
}

fn main() -> ExitCode {
    let args = parse_args();
    if let Some(command) = &args.command {
        return maintenance(command, &args.addr);
    }

    let dir = args
        .dir
        .clone()
        .unwrap_or_else(|| store_dir_from_env().display().to_string());
    // The daemon's store is opened UNBOUNDED: saves never compact
    // inline. The environment's policy is enforced by the background GC
    // thread and the GC command instead — GC off the save path. The
    // exclusive directory lock (held until exit) is what turns "no other
    // process should open the directory" from a convention into an
    // enforced invariant: local ArtifactStore opens are refused while
    // the daemon runs.
    let (store, lock) = match ArtifactStore::open_exclusive(&dir, GcPolicy::unbounded()) {
        Ok((store, lock)) => (Arc::new(store), lock),
        Err(err) => {
            eprintln!("error: cannot open the artifact store at {dir}: {err}");
            return ExitCode::FAILURE;
        }
    };
    let policy = GcPolicy::from_env();
    let config = ServerConfig {
        gc_policy: policy,
        gc_interval: (args.gc_interval > 0).then(|| Duration::from_secs(args.gc_interval)),
        read_timeout: Duration::from_secs(args.read_timeout),
        ..ServerConfig::default()
    };
    let server = match StoreServer::bind(Arc::clone(&store), &args.addr, config) {
        Ok(server) => server,
        Err(err) => {
            eprintln!("error: cannot bind {}: {err}", args.addr);
            return ExitCode::FAILURE;
        }
    };
    // The `listening` line is the readiness signal scripts wait for; the
    // real address matters when --addr used port 0.
    println!(
        "cfr-store-serve listening on {} serving {dir}",
        server.addr()
    );
    println!(
        "policy: max_bytes={} max_age={} (background GC {})",
        policy
            .max_bytes
            .map_or_else(|| "unbounded".into(), |v| format!("{v} bytes")),
        policy
            .max_age_secs
            .map_or_else(|| "unbounded".into(), |v| format!("{v} s")),
        config
            .gc_interval
            .map_or_else(|| "disabled".into(), |d| format!("every {}s", d.as_secs())),
    );
    println!(
        "connections: one thread each, read timeout {}s",
        config.read_timeout.as_secs(),
    );
    use std::io::Write;
    let _ = std::io::stdout().flush();
    term_signal::install();
    // Poll for either exit trigger: a client's SHUTDOWN verb (the
    // server begins its own drain) or SIGTERM (we ask for one). Both
    // converge on `draining()`; the drain answers in-flight frames,
    // fails parked waiters with an err reply, and stops accepting.
    loop {
        if term_signal::received() && !server.draining() {
            println!("cfr-store-serve: SIGTERM received, draining");
            let _ = std::io::stdout().flush();
            server.drain();
        }
        if server.draining() {
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    server.shutdown(); // completes the drain and joins every thread
    store.sync_shards(); // crash-safety: everything appended is on disk
    drop(lock); // hold the exclusive directory lock until the very end
    println!("cfr-store-serve: drain complete, shards synced, lock released");
    println!("cfr-store-serve: shutdown requested, exiting");
    ExitCode::SUCCESS
}
