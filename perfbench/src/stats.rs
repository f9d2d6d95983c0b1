//! Percentiles, metric records and the result line.

use std::fmt::Write as _;

/// Fewest samples that must lie above a reported percentile.
pub const TAIL_SAMPLES: usize = 10;

/// The nearest-rank `p`-quantile (`0 < p < 1`) of `values`.
///
/// # Errors
///
/// Refuses a percentile with fewer than [`TAIL_SAMPLES`] samples above
/// it (p75 needs at least 40 values), and an empty input.
pub fn percentile(values: &[f64], p: f64) -> Result<f64, String> {
    assert!(p > 0.0 && p < 1.0, "percentile {p} outside (0, 1)");
    let n = values.len();
    let rank = (p * n as f64).ceil() as usize;
    if n == 0 || n - rank < TAIL_SAMPLES {
        return Err(format!(
            "p{} needs {TAIL_SAMPLES} samples above it; only {} of {n} are",
            (p * 100.0).round(),
            n.saturating_sub(rank)
        ));
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(sorted[rank - 1])
}

/// The median of `values` (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Whether `name` is a valid metric name: `[A-Za-z0-9_.-]`, starting
/// with a letter or digit, at most 64 characters.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

impl Metric {
    /// A metric record.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit }
    }
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_json(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        assert!(valid_name(m.name), "invalid metric name {:?}", m.name);
        assert!(m.value.is_finite(), "metric {} is {}", m.name, m.value);
        if i > 0 {
            out.push_str(", ");
        }
        // `{:?}` prints the shortest string that round-trips the f64,
        // so every measured digit is kept.
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p75_refuses_fewer_than_forty_ops() {
        let v: Vec<f64> = (1..=39).map(f64::from).collect();
        assert!(percentile(&v, 0.75).is_err());
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.75), Ok(30.0));
        assert_eq!(percentile(&v, 0.5), Ok(20.0));
        assert!(percentile(&v[..19], 0.5).is_err());
        assert!(percentile(&[], 0.5).is_err());
    }

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn names() {
        assert!(valid_name("op_ms_p50"));
        assert!(valid_name("mapper.ns_per_sample"));
        assert!(!valid_name("bad name"));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("x/y"));
    }

    #[test]
    fn result_line_keeps_every_digit() {
        let line = result_json(true, 3, 0, &[Metric::new("a", 0.1 + 0.2, "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"a\": {\"value\": 0.30000000000000004, \"unit\": \"s\"}}}"
        );
    }
}
