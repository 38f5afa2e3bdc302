//! Maintenance tool for the persistent artifact store: reports total
//! size, per-shard occupancy, and per-namespace record counts, then runs
//! a garbage-collection/compaction pass under the environment's policy
//! (`CFR_STORE_MAX_BYTES` / `CFR_STORE_MAX_AGE`) and reports what it
//! dropped.
//!
//! ```sh
//! CFR_STORE_MAX_BYTES=4194304 cargo run -p cfr-bench --release --bin store_gc
//! ```
//!
//! With neither knob set the pass still compacts dead (superseded) bytes
//! out of the shard files; it just evicts nothing.
//!
//! With `CFR_STORE_ADDR` set the tool becomes a daemon client instead:
//! it prints the daemon's occupancy **and load counters** (active
//! connections, batched keys, claim grants/expiries), asks the daemon
//! for a GC pass over the wire, and reports the result against the same
//! byte budget.

use cfr_core::{ArtifactStore, GcPolicy, RemoteStore, SHARD_COUNT};
use cfr_types::net::store_addr_from_env;

/// Maintenance against a running daemon: STATS (occupancy + load), then
/// GC, all over the protocol — the daemon owns the directory, so a local
/// open would be refused anyway.
fn remote_maintenance(addr: &str) {
    let client = RemoteStore::new(addr);
    let Some(stats) = client.stats() else {
        eprintln!("error: no daemon reachable at {addr}");
        std::process::exit(1);
    };
    println!("cfr-store maintenance — tcp://{addr}");
    let policy = GcPolicy::from_env();
    let fmt_bound = |bound: Option<u64>, unit: &str| {
        bound.map_or_else(|| "unbounded".to_string(), |v| format!("{v} {unit}"))
    };
    println!(
        "policy: max_bytes={} max_age={} (enforced by the daemon)",
        fmt_bound(policy.max_bytes, "bytes"),
        fmt_bound(policy.max_age_secs, "s"),
    );
    println!(
        "\npre-gc: {} live records ({}), {} live bytes in {} file bytes",
        stats.live_records, stats.namespaces, stats.live_bytes, stats.file_bytes,
    );
    println!(
        "load: {} active connections, {} batched keys (max batch {}), \
         claims {} granted / {} expired",
        stats.active_connections,
        stats.batched_keys,
        stats.max_batch,
        stats.claims_granted,
        stats.claims_expired,
    );

    let Some(report) = client.gc() else {
        eprintln!("error: daemon at {addr} dropped the GC request");
        std::process::exit(1);
    };
    println!(
        "gc: dropped {} dead bytes, evicted {} by age + {} by size, rewrote {} shards",
        report.dead_bytes_dropped, report.evicted_age, report.evicted_size, report.shards_rewritten,
    );
    // Post-GC file bytes come from a second STATS probe: the GC report
    // carries live bytes only. A daemon that vanishes between the GC
    // and this probe leaves the report unverifiable — fail loudly
    // rather than print a partial report that reads as a clean pass.
    let Some(post) = client.stats() else {
        eprintln!(
            "error: daemon at {addr} became unreachable after GC; \
             report incomplete, budget unverified"
        );
        std::process::exit(1);
    };
    let budget = match policy.max_bytes {
        Some(cap) if post.file_bytes <= cap => ", within budget",
        Some(_) => ", OVER budget",
        None => "",
    };
    println!(
        "post-gc: {} records, {} bytes{budget}",
        report.live_records, report.live_bytes,
    );
}

fn main() {
    if let Some(addr) = store_addr_from_env() {
        remote_maintenance(&addr);
        return;
    }
    let store = match ArtifactStore::open_default() {
        Ok(store) => store,
        Err(err) => {
            eprintln!("error: cannot open the artifact store: {err}");
            std::process::exit(1);
        }
    };

    println!("cfr-store maintenance — {}", store.dir().display());
    let policy = store.policy();
    let fmt_bound = |bound: Option<u64>, unit: &str| {
        bound.map_or_else(|| "unbounded".to_string(), |v| format!("{v} {unit}"))
    };
    println!(
        "policy: max_bytes={} max_age={}",
        fmt_bound(policy.max_bytes, "bytes"),
        fmt_bound(policy.max_age_secs, "s"),
    );

    println!(
        "\n{:<8} {:>12} {:>14} {:>12}",
        "shard", "file bytes", "live records", "live bytes"
    );
    for occ in store.shard_occupancy() {
        println!(
            "{:<8} {:>12} {:>14} {:>12}",
            format!("{:02}", occ.shard),
            occ.file_bytes,
            occ.live_records,
            occ.live_bytes
        );
    }
    println!(
        "\npre-gc: {} live records ({}), {} live bytes in {} file bytes across {} shards",
        store.live_records(),
        store.namespace_counts(),
        store.live_bytes(),
        store.file_bytes(),
        SHARD_COUNT,
    );

    let report = store.gc();
    println!(
        "gc: dropped {} dead bytes, evicted {} by age + {} by size, rewrote {} shards",
        report.dead_bytes_dropped, report.evicted_age, report.evicted_size, report.shards_rewritten,
    );
    let budget = match policy.max_bytes {
        Some(cap) if store.file_bytes() <= cap => ", within budget",
        Some(_) => ", OVER budget",
        None => "",
    };
    println!(
        "post-gc: {} records, {} bytes{budget}",
        report.live_records, report.live_bytes,
    );
}
