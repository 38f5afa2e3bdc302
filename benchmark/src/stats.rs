//! Sample statistics, metric naming, and the result line.

/// Median of `samples` (mean of the middle pair for an even count).
///
/// # Panics
///
/// Panics on an empty sample set: every metric is measured at least once.
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    let s = sorted(samples);
    assert!(!s.is_empty(), "median of no samples");
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Arithmetic mean (0 for no samples).
#[must_use]
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// First and third quartile by Python's `statistics.quantiles(values,
/// n=4)` (its default "exclusive" method), so a spread read here matches
/// one computed from the printed values.
#[must_use]
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    let s = sorted(samples);
    if s.len() < 2 {
        return (s[0], s[0]);
    }
    let at = |p: f64| {
        let m = s.len() as f64 + 1.0;
        let pos = p * m;
        let j = (pos.floor() as usize).clamp(1, s.len() - 1);
        let delta = pos - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta
    };
    (at(0.25), at(0.75))
}

/// Interquartile range as a share of the median (0 when the median is 0).
#[must_use]
pub fn spread(samples: &[f64]) -> f64 {
    let m = median(samples);
    let (q1, q3) = quartiles(samples);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m
    }
}

/// The `q`-quantile by nearest rank (`q` in (0, 1]).
///
/// # Panics
///
/// Panics on an empty sample set.
#[must_use]
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    let s = sorted(samples);
    assert!(!s.is_empty(), "percentile of no samples");
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

/// Fewest samples that must lie strictly above a reported tail percentile.
pub const TAIL_SAMPLES_ABOVE: usize = 10;

/// The 90th percentile (nearest rank), but only when at least
/// [`TAIL_SAMPLES_ABOVE`] samples lie strictly above it; `None` otherwise,
/// because a tail read from fewer samples is noise.
#[must_use]
pub fn p90(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let value = percentile(samples, 0.9);
    let above = samples.iter().filter(|&&x| x > value).count();
    (above >= TAIL_SAMPLES_ABOVE).then_some(value)
}

/// Samples needed before [`p90`] reports: the smallest count with
/// [`TAIL_SAMPLES_ABOVE`] distinct samples past the 90th percentile.
pub const P90_MIN_SAMPLES: usize = 10 * TAIL_SAMPLES_ABOVE;

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Most end-to-end metrics a benchmark may define.
pub const MAX_END_TO_END: usize = 16;
/// Most per-layer metrics a benchmark may define.
pub const MAX_PER_LAYER: usize = 128;

/// Whether `name` is a valid metric name: 1 to 64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
#[must_use]
pub fn valid_metric_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    (1..=64).contains(&name.len())
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

/// One reported metric value.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Attempted and failed operation counts for one run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Counts one operation, failed unless `ok`.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Failed operations as a share of those attempted.
    #[must_use]
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// The result line: one JSON object with exactly the keys `correct`,
/// `attempted`, `failed` and `metrics`.
#[must_use]
pub fn result_line(correct: bool, tally: Tally, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted.max(1),
        tally.failed,
        body.join(", ")
    )
}

/// A JSON number with every digit the measurement has (Rust's shortest
/// round-trip form); non-finite values, which JSON cannot carry, print as
/// 0 and are rejected by the caller's correctness check first.
#[must_use]
pub fn json_number(x: f64) -> String {
    if x.is_finite() {
        let s = format!("{x}");
        if s.contains(['.', 'e', 'E']) {
            s
        } else {
            format!("{s}.0")
        }
    } else {
        "0.0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_match_python() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(median(&xs), 5.5);
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!((spread(&xs) - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn p90_needs_ten_samples_above_it() {
        let few: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(p90(&few), None, "99 samples leave 9 above the p90");
        let enough: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(p90(&enough), Some(90.0));
        assert_eq!(P90_MIN_SAMPLES, 100);
        // Ties at the percentile do not count as "above" it.
        let mut tied = vec![1.0; 95];
        tied.extend((0..5).map(|i| 2.0 + f64::from(i)));
        assert_eq!(p90(&tied), None);
        assert_eq!(p90(&[]), None);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.1), 2.0);
        assert_eq!(percentile(&xs, 0.5), 10.0);
        assert_eq!(percentile(&[7.0], 0.1), 7.0);
    }

    #[test]
    fn metric_names_follow_the_rule() {
        assert!(valid_metric_name("replay_ms_p90"));
        assert!(valid_metric_name("cpu.pipeline.minstr_per_s.SoLA.vivt"));
        assert!(valid_metric_name("9lives-ok"));
        assert!(!valid_metric_name(""));
        assert!(!valid_metric_name(".hidden"));
        assert!(!valid_metric_name("has space"));
        assert!(!valid_metric_name("slash/no"));
        assert!(!valid_metric_name(&"x".repeat(65)));
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(
            true,
            Tally {
                attempted: 3,
                failed: 0,
            },
            &[Metric {
                name: "wall_s".into(),
                value: 2.0,
                unit: "s",
            }],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"wall_s\": {\"value\": 2.0, \"unit\": \"s\"}}}"
        );
        assert_eq!(json_number(0.125), "0.125");
        assert_eq!(json_number(f64::NAN), "0.0");
    }

    #[test]
    fn tally_counts_failures_against_attempts() {
        let mut t = Tally::default();
        t.record(true);
        t.record(false);
        t.record(true);
        t.record(true);
        assert_eq!((t.attempted, t.failed), (4, 1));
        assert_eq!(t.failed_frac(), 0.25);
    }
}
