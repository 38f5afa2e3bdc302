//! The repository benchmark: cold paper reproduction, warm daemon replay
//! and the OS-scenario sweep, each measured end to end, plus a traced run
//! that attributes the time to layers. See `README.md` beside this crate.
//!
//! ```sh
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload paper-cold --seed 1 --seconds 30 --trace 0
//! ```
//!
//! The last line of standard output is the JSON result; the lines before
//! it (prefixed `#`) repeat each metric with its sample count and spread,
//! and carry the unguarded figures: paper-fidelity errors, failure share,
//! and the digest of every simulated statistic.

mod attribution;
mod catalog;
mod hostspeed;
mod layers;
mod plan;
mod probe;
mod stats;
mod workloads;

use std::process::ExitCode;

use cfr_core::{ExecBackend, ExperimentScale, BACKEND_ENV};

use crate::stats::{mean, median, p90, percentile, quartiles, result_line, Metric};
use crate::workloads::{Ctx, Outcome, Scratch, WORKLOADS};

/// Committed instructions per simulated run (and per process of a
/// scenario): long enough that the pipeline dominates a cold pass, short
/// enough for ten or so passes per run.
const COMMITS: u64 = 60_000;

/// Worker threads of the engine's pool and of the in-process daemon. One,
/// on any host: on a shared 2-vCPU host the second core comes and goes,
/// and a two-thread cold pass varied twice as much as a one-thread pass
/// (2.5–4.3 s against 2.9–3.6 s over eight back-to-back passes).
const THREADS: usize = 1;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} expects an unsigned integer, got {value:?}"))
        };
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--workload" => {
                return Err(format!("unknown workload {value:?}; one of {WORKLOADS:?}"))
            }
            "--seed" => seed = Some(number()?),
            "--seconds" if number()? > 0 => seconds = Some(number()?),
            "--trace" if matches!(value.as_str(), "0" | "1") => trace = Some(value == "1"),
            _ => return Err(format!("bad argument {flag} {value}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Clears every `CFR_*` setting except the backend, so a stray store
/// address, store directory, chaos seed, GC or fsync policy cannot change
/// what is measured, and pins the worker pool to [`THREADS`]. Runs before
/// any thread exists.
fn hermetic_env() -> Result<&'static str, String> {
    for (key, _) in std::env::vars_os() {
        let key = key.to_string_lossy().into_owned();
        if key.starts_with("CFR_") && key != BACKEND_ENV {
            std::env::remove_var(&key);
        }
    }
    std::env::set_var("RAYON_NUM_THREADS", THREADS.to_string());
    match std::env::var(BACKEND_ENV).as_deref() {
        Ok("compiled") => Ok("compiled"),
        Err(_) if ExecBackend::from_env() == ExecBackend::Compiled => Ok("compiled (default)"),
        Ok(other) => Err(format!(
            "{BACKEND_ENV}={other}: the benchmark measures the compiled backend only"
        )),
        Err(_) => Err(format!(
            "{BACKEND_ENV} unset but the default backend is not compiled"
        )),
    }
}

/// The end-to-end metrics, in catalog order, each with its samples.
fn end_to_end(out: &Outcome) -> Vec<(Metric, Vec<f64>)> {
    let values = [
        (median(&out.setup), out.setup.clone()),
        (median(&out.pass_s), out.pass_s.clone()),
        (median(&out.minstr), out.minstr.clone()),
        (median(&out.replay_norm_ms), out.replay_norm_ms.clone()),
        (out.peak_rss_mb, vec![out.peak_rss_mb]),
    ];
    catalog::END_TO_END
        .iter()
        .zip(values)
        .map(|((name, unit, _), (value, samples))| {
            let metric = Metric {
                name: (*name).to_string(),
                value,
                unit,
            };
            (metric, samples)
        })
        .collect()
}

/// The per-layer metrics in catalog order; `None` unless the run produced
/// exactly the catalog's set.
fn in_catalog_order(metrics: Vec<Metric>) -> Option<Vec<Metric>> {
    let catalog = catalog::per_layer();
    let mut by_name: std::collections::HashMap<String, Metric> =
        metrics.into_iter().map(|m| (m.name.clone(), m)).collect();
    let ordered: Option<Vec<Metric>> = catalog.iter().map(|(n, _, _)| by_name.remove(n)).collect();
    ordered.filter(|_| by_name.is_empty())
}

fn run(args: &Args) -> Result<String, String> {
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let backend = hermetic_env()?;
    let scratch = Scratch::new(
        std::env::current_dir()
            .map_err(|e| e.to_string())?
            .join(".bench_tmp")
            .join(std::process::id().to_string()),
    )
    .map_err(|e| format!("scratch directory: {e}"))?;
    let ctx = Ctx {
        scale: ExperimentScale {
            max_commits: std::env::var("XCOMMITS").ok().and_then(|v| v.parse().ok()).unwrap_or(COMMITS),
            seed: args.seed,
        },
        seconds: args.seconds as f64,
        trace: args.trace,
        threads: THREADS,
        scratch: &scratch,
    };
    println!(
        "# workload {} seed {} seconds {} trace {} | backend {backend} | {THREADS} of {cores} cores | \
         {COMMITS} commits per run",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let out =
        workloads::run(&ctx, &args.workload).map_err(|e| format!("{}: {e}", args.workload))?;

    let mut correct = out.tally.failed == 0;
    let metrics = if args.trace {
        let cells = layers::run(
            &ctx.scale,
            &scratch.fresh("cells").map_err(|e| e.to_string())?,
        );
        let metrics = in_catalog_order(attribution::per_layer(&out, cells))
            .ok_or("the traced run did not produce the catalog's per-layer metrics")?;
        write_spans(&out, args)?;
        for m in &metrics {
            println!("# {} = {} {}", m.name, m.value, m.unit);
        }
        metrics
    } else {
        let mut metrics = Vec::new();
        for (m, samples) in end_to_end(&out) {
            let (q1, q3) = quartiles(&samples);
            let lo = samples.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            println!(
                "# {} = {} {} ({} samples; min {lo:.6}, quartiles {q1:.6} .. {q3:.6}, max {hi:.6})",
                m.name,
                m.value,
                m.unit,
                samples.len()
            );
            metrics.push(m);
        }
        metrics
    };
    correct &= metrics
        .iter()
        .all(|m| m.value.is_finite() && stats::valid_metric_name(&m.name));
    correct &= metrics.len()
        <= if args.trace {
            stats::MAX_PER_LAYER
        } else {
            stats::MAX_END_TO_END
        };
    println!(
        "# failed_frac = {} ratio ({} of {} operations)",
        out.tally.failed_frac(),
        out.tally.failed,
        out.tally.attempted
    );
    let walls: Vec<f64> = out.wall.iter().map(|(w, _)| *w).collect();
    if !walls.is_empty() {
        println!("# wall_s_p50 = {} s (unnormalised)", median(&walls));
    }
    if !out.speed.is_empty() {
        println!(
            "# host_speed = {} (median of {} kernel brackets; 1 is nominal)",
            median(&out.speed),
            out.speed.len()
        );
    }
    if !out.replay_ms.is_empty() {
        let replays = &out.replay_ms;
        let tail = p90(replays).map_or("n/a".to_string(), |v| format!("{v} ms"));
        println!(
            "# replay_wall_ms_p50 = {} ms ({} replays)",
            median(replays),
            replays.len()
        );
        println!("# replay_wall_ms_p10 = {} ms", percentile(replays, 0.1));
        println!("# replay_wall_ms_mean = {} ms", mean(replays));
        println!("# replay_wall_ms_p90 = {tail}");
    }
    for (name, value, unit) in &out.info {
        println!("# {name} = {value} {unit}");
    }
    println!("# sim_digest = {:016x}", out.digest);
    Ok(result_line(correct, out.tally, &metrics))
}

/// Writes the run's spans, one JSON object a line, under `.bench_out/`.
fn write_spans(out: &Outcome, args: &Args) -> Result<(), String> {
    let Some(tracer) = &out.tracer else {
        return Ok(());
    };
    let dir = std::path::Path::new(".bench_out");
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let path = dir.join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
    std::fs::write(&path, tracer.to_jsonl()).map_err(|e| e.to_string())?;
    println!("# spans written to {}", path.display());
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!(
                "usage: --workload <{}> --seed N --seconds N --trace 0|1",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}
