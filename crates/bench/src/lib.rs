//! # cfr-bench
//!
//! The reproduction harness: one binary per table/figure of the paper's
//! evaluation (indexed in the README's "Reproducing the paper"), plus criterion
//! microbenchmarks of the substrate (not auto-discovered offline, see
//! `vendor/README.md`).
//!
//! Run an experiment with, e.g.:
//!
//! ```sh
//! cargo run -p cfr-bench --release --bin fig4 -- --commits 1000000
//! ```
//!
//! Every binary accepts `--commits N` (committed instructions per run;
//! default 1,000,000) and `--seed N` (walker seed, default `0x5EED`), and
//! prints both our measured values and the paper's published numbers side
//! by side. All of them drive their runs through one shared
//! [`cfr_core::Engine`], so overlapping configurations within a binary are
//! simulated once, in parallel.

use cfr_core::{Engine, ExperimentScale};

/// Parses `--commits N` / `--seed N` (also the `--flag=N` form) from an
/// argument stream (exclusive of the program name) into an experiment
/// scale.
///
/// # Errors
///
/// Returns a message naming the offending argument when a value is
/// missing or not a positive integer, or when the argument is not a
/// recognized flag — a misspelled or half-typed flag must abort the
/// experiment, not silently run at the default scale.
pub fn try_scale_from_args<I>(args: I) -> Result<ExperimentScale, String>
where
    I: IntoIterator<Item = String>,
{
    let mut scale = ExperimentScale::full();
    scale.max_commits = 1_000_000;
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        let (flag, inline_value) = match arg.split_once('=') {
            Some((flag, value)) => (flag.to_string(), Some(value.to_string())),
            None => (arg, None),
        };
        let mut value_of = |flag: &str| -> Result<u64, String> {
            let value = inline_value
                .clone()
                .or_else(|| args.next())
                .ok_or_else(|| format!("{flag} requires a value"))?;
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} expects an unsigned integer, got {value:?}"))
        };
        match flag.as_str() {
            "--commits" => {
                let n = value_of("--commits")?;
                if n == 0 {
                    return Err("--commits must be positive".into());
                }
                scale.max_commits = n;
            }
            "--seed" => scale.seed = value_of("--seed")?,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(scale)
}

/// Parses the process arguments into an experiment scale, exiting with a
/// diagnostic on malformed input.
#[must_use]
pub fn scale_from_args() -> ExperimentScale {
    match try_scale_from_args(std::env::args().skip(1)) {
        Ok(scale) => scale,
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!("usage: --commits N (committed instructions) --seed N (walker seed)");
            std::process::exit(2);
        }
    }
}

/// Formats a ratio as the percentage style the paper's tables use.
#[must_use]
pub fn pct(x: f64) -> String {
    format!("{:.2}%", x * 100.0)
}

/// Builds the engine every experiment binary shares, backed by the
/// machine-wide persistent artifact store (`$CFR_STORE_DIR`, default
/// `target/cfr-store`): a run simulated, a program generated, or a walk
/// measured by *any* binary — or an earlier invocation of this one — is
/// served from disk instead of being recomputed. If the store directory
/// cannot be created the binary still runs, just without cross-process
/// caching.
#[must_use]
pub fn engine_with_store() -> Engine {
    Engine::with_default_store()
}

/// Prints the shared per-namespace `store: runs X warm / Y cold; …`
/// accounting line on stderr (stderr, so stdout stays a byte-stable
/// document that can be diffed across cold and warm invocations).
pub fn print_store_summary(engine: &Engine) {
    eprintln!("{}", engine.summary_line());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<ExperimentScale, String> {
        try_scale_from_args(args.iter().map(ToString::to_string))
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.1234), "12.34%");
    }

    #[test]
    fn default_scale() {
        let s = parse(&[]).unwrap();
        assert_eq!(s.max_commits, 1_000_000);
        assert_eq!(s.seed, 0x5EED);
    }

    #[test]
    fn commits_and_seed_parse() {
        let s = parse(&["--commits", "120000", "--seed", "7"]).unwrap();
        assert_eq!(s.max_commits, 120_000);
        assert_eq!(s.seed, 7);
    }

    #[test]
    fn malformed_commits_is_an_error() {
        assert!(parse(&["--commits", "12k"]).is_err());
        assert!(parse(&["--commits"]).is_err());
        assert!(parse(&["--commits", "0"]).is_err());
        assert!(parse(&["--commits", "-5"]).is_err());
    }

    #[test]
    fn malformed_seed_is_an_error() {
        assert!(parse(&["--seed", "beef"]).is_err());
        assert!(parse(&["--seed"]).is_err());
    }

    #[test]
    fn equals_form_parses() {
        let s = parse(&["--commits=120000", "--seed=9"]).unwrap();
        assert_eq!(s.max_commits, 120_000);
        assert_eq!(s.seed, 9);
        assert!(parse(&["--commits="]).is_err());
        assert!(parse(&["--commits=abc"]).is_err());
    }

    #[test]
    fn unknown_arguments_are_errors() {
        assert!(parse(&["--commit", "5"]).is_err(), "typo'd flag");
        assert!(parse(&["--verbose"]).is_err());
        assert!(parse(&["extra"]).is_err());
        let err = parse(&["--comits", "5"]).unwrap_err();
        assert!(err.contains("--comits"), "error names the argument: {err}");
    }
}
