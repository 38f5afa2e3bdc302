//! Every metric the benchmark reports: name, unit and which direction is
//! better. `BENCHMARK.json` at the repository root lists the same set; a
//! test keeps the two in step.

use cfr_core::StrategyKind;

use crate::plan::EXPERIMENTS;

/// End-to-end metrics, printed by every untraced run of every workload:
/// `(name, unit, better)`.
pub const END_TO_END: [(&str, &str, &str); 5] = [
    ("setup_s", "s", "lower"),
    ("pass_s", "s", "lower"),
    ("sim_minstr_per_s", "Minstr/s", "higher"),
    ("replay_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
];

/// Per-layer metrics, printed by every traced run of every workload:
/// `(name, unit, better)`.
#[must_use]
pub fn per_layer() -> Vec<(String, &'static str, &'static str)> {
    let mut out: Vec<(String, &'static str, &'static str)> = Vec::new();
    let mut add = |name: String, unit, better| out.push((name, unit, better));
    for stage in ["generate", "layout", "trace_compile", "walk"] {
        add(format!("workload.{stage}.count"), "count", "lower");
        add(format!("workload.{stage}.busy_s"), "s", "lower");
    }
    for kind in StrategyKind::ALL {
        for mode in ["pipt", "vipt", "vivt"] {
            add(
                format!("cpu.pipeline.minstr_per_s.{}.{mode}", kind.name()),
                "Minstr/s",
                "higher",
            );
        }
    }
    add(
        "cpu.pipeline.minstr_per_s.l2_pressure".into(),
        "Minstr/s",
        "higher",
    );
    add("cpu.pipeline.spread_frac".into(), "ratio", "lower");
    add("cpu.pipeline.busy_s".into(), "s", "lower");
    add("cpu.pipeline.committed".into(), "count", "lower");
    add("cpu.pipeline.sim_cycles".into(), "count", "lower");
    for name in [
        "mem.cache.probes_per_s",
        "mem.tlb.lookups_per_s",
        "mem.page_table.translates_per_s",
    ] {
        add(name.into(), "1/s", "higher");
    }
    add("mem.cache.hit_ratio".into(), "ratio", "higher");
    add("mem.tlb.hit_ratio".into(), "ratio", "higher");
    for name in EXPERIMENTS {
        add(format!("core.experiment.{name}.busy_s"), "s", "lower");
    }
    add("core.experiment.self_s".into(), "s", "lower");
    add("core.engine.runs_simulated".into(), "count", "lower");
    add("core.engine.runs_warm".into(), "count", "higher");
    add("core.engine.core_idle_frac".into(), "ratio", "lower");
    add("core.engine.unexplained_frac".into(), "ratio", "lower");
    add("core.scenario.busy_s".into(), "s", "lower");
    add("core.scenario.minstr_per_s".into(), "Minstr/s", "higher");
    add("core.scenario.context_switches".into(), "count", "lower");
    for record in ["RunReport", "ScenarioReport", "Program", "CompiledTrace"] {
        add(
            format!("types.record.{record}.encode_per_s"),
            "1/s",
            "higher",
        );
        add(
            format!("types.record.{record}.decode_per_s"),
            "1/s",
            "higher",
        );
        add(format!("types.record.{record}.bytes"), "bytes", "lower");
    }
    add("types.store.open_s".into(), "s", "lower");
    add("types.store.append_per_s".into(), "1/s", "higher");
    add("types.store.load_per_s".into(), "1/s", "higher");
    add("types.store.hit_ratio".into(), "ratio", "higher");
    add("types.store.busy_s".into(), "s", "lower");
    add("types.net.round_trips_per_replay".into(), "count", "lower");
    add("types.net.exchange_ms_p50".into(), "ms", "lower");
    add("types.net.bytes_per_replay".into(), "bytes", "lower");
    add("types.net.retries".into(), "count", "lower");
    add("trace.overhead_frac".into(), "ratio", "lower");
    add("trace.spans".into(), "count", "lower");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{valid_metric_name, MAX_END_TO_END, MAX_PER_LAYER};
    use std::collections::HashSet;

    #[test]
    fn names_are_valid_unique_and_within_limits() {
        let layer = per_layer();
        assert!(END_TO_END.len() <= MAX_END_TO_END);
        assert!(
            layer.len() <= MAX_PER_LAYER,
            "{} per-layer metrics",
            layer.len()
        );
        let mut seen = HashSet::new();
        let names = END_TO_END
            .iter()
            .map(|(n, _, _)| (*n).to_string())
            .chain(layer.iter().map(|(n, _, _)| n.clone()));
        for name in names {
            assert!(valid_metric_name(&name), "{name}");
            assert!(seen.insert(name.clone()), "{name} twice");
        }
    }

    /// The `(name, unit, better)` triples of one list in `BENCHMARK.json`.
    fn listed(json: &str, list: &str) -> Vec<(String, String, String)> {
        let start = json.find(&format!("\"{list}\"")).expect("list present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("list closes")];
        let field = |entry: &str, key: &str| -> String {
            let at = entry.find(&format!("\"{key}\"")).expect("key present");
            let rest = &entry[at + key.len() + 2..];
            let open = rest.find('"').expect("value opens") + 1;
            let close = open + rest[open..].find('"').expect("value closes");
            rest[open..close].to_string()
        };
        body.split('{')
            .skip(1)
            .map(|e| (field(e, "name"), field(e, "unit"), field(e, "better")))
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let triple = |(n, u, b): (&str, &str, &str)| (n.to_string(), u.to_string(), b.to_string());
        let e2e: Vec<_> = END_TO_END.iter().map(|t| triple(*t)).collect();
        assert_eq!(listed(&json, "end_to_end"), e2e);
        let layer: Vec<_> = per_layer()
            .into_iter()
            .map(|(n, u, b)| (n, u.to_string(), b.to_string()))
            .collect();
        assert_eq!(listed(&json, "per_layer"), layer);
    }
}
