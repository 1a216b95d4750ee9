//! The benchmark's own arithmetic: percentiles over latency samples (with
//! misses), medians, failure shares, metric-name validation and the one-line
//! JSON result.

/// One latency sample.  A miss (an undetected detection campaign) ranks
/// above every hit; misses rank among themselves by their own wall time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Sample {
    Hit(f64),
    Miss(f64),
}

impl Sample {
    fn rank_key(&self) -> (u8, f64) {
        match *self {
            Sample::Hit(v) => (0, v),
            Sample::Miss(v) => (1, v),
        }
    }

    fn value(&self) -> f64 {
        match *self {
            Sample::Hit(v) | Sample::Miss(v) => v,
        }
    }
}

/// Samples needed beyond a percentile before it is reported.
pub const TAIL_SAMPLES: usize = 10;

/// Whether `n` samples put at least [`TAIL_SAMPLES`] strictly above the
/// nearest-rank `p`th percentile.
pub fn supports_percentile(n: usize, p: usize) -> bool {
    n > 0 && n - nearest_rank(n, p) >= TAIL_SAMPLES
}

/// 1-based nearest rank of the `p`th percentile among `n` samples.
fn nearest_rank(n: usize, p: usize) -> usize {
    (p * n).div_ceil(100).clamp(1, n)
}

/// Nearest-rank percentile, misses ranked above every hit.
///
/// Returns `None` when there are too few samples for [`TAIL_SAMPLES`] to
/// lie beyond it.
pub fn percentile(samples: &[Sample], p: usize) -> Option<f64> {
    if !supports_percentile(samples.len(), p) {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.rank_key().partial_cmp(&b.rank_key()).expect("finite"));
    Some(sorted[nearest_rank(sorted.len(), p) - 1].value())
}

/// Fewest samples in one window of [`windowed_percentile`].
pub const WINDOW_SAMPLES: usize = 100;

/// Median over up to `windows` windows of consecutive whole operations,
/// each of at least [`WINDOW_SAMPLES`] samples, of the window's `p`th
/// percentile.  `op_ends[k]` is the number of samples once operation `k`
/// ended.  `None` when there are fewer than [`WINDOW_SAMPLES`] samples.
pub fn windowed_percentile(
    samples: &[Sample],
    op_ends: &[usize],
    p: usize,
    windows: usize,
) -> Option<f64> {
    let n = windows.min(samples.len() / WINDOW_SAMPLES);
    if n == 0 {
        return None;
    }
    let target = samples.len().div_ceil(n);
    let mut bounds = vec![0];
    for &end in op_ends {
        if end - bounds[bounds.len() - 1] >= target {
            bounds.push(end);
        }
    }
    if samples.len() - bounds[bounds.len() - 1] >= WINDOW_SAMPLES || bounds.len() == 1 {
        bounds.push(samples.len());
    } else {
        // A short tail joins the window before it.
        *bounds.last_mut().expect("non-empty") = samples.len();
    }
    let per_window: Option<Vec<f64>> = bounds
        .windows(2)
        .map(|w| percentile(&samples[w[0]..w[1]], p))
        .collect();
    per_window.map(|v| median(&v))
}

/// Median of plain values (mean of the middle two for even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let n = sorted.len();
    (sorted[(n - 1) / 2] + sorted[n / 2]) / 2.0
}

/// Share of attempted operations that failed.
pub fn failed_share(failed: u64, attempted: u64) -> f64 {
    assert!(attempted > 0, "no operations attempted");
    failed as f64 / attempted as f64
}

/// Whether `name` is a valid metric name: starts with a letter or digit,
/// at most 64 characters of `[A-Za-z0-9_.-]`.
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// `(pkts/s, ops/s)` over up to `n` windows of consecutive operations,
/// equal in operation count.
pub fn window_rates(timeline: &[(f64, u64, u64)], n: usize) -> Vec<(f64, f64)> {
    let n = n.min(timeline.len()).max(1);
    let mut out = Vec::with_capacity(n);
    let (mut prev_t, mut prev_p, mut prev_u) = (0.0, 0, 0);
    for k in 1..=n {
        let (t, p, u) = timeline[k * timeline.len() / n - 1];
        out.push((
            (p - prev_p) as f64 / (t - prev_t),
            (u - prev_u) as f64 / (t - prev_t),
        ));
        (prev_t, prev_p, prev_u) = (t, p, u);
    }
    out
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// The result line: `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hits(values: impl IntoIterator<Item = u32>) -> Vec<Sample> {
        values
            .into_iter()
            .map(|v| Sample::Hit(f64::from(v)))
            .collect()
    }

    #[test]
    fn p90_needs_a_hundred_samples() {
        assert!(!supports_percentile(99, 90));
        assert!(supports_percentile(100, 90));
        assert!(supports_percentile(20, 50));
        assert!(!supports_percentile(19, 50));
        assert_eq!(percentile(&hits(1..=99), 90), None);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let samples = hits((1..=100).rev());
        assert_eq!(percentile(&samples, 50), Some(50.0));
        assert_eq!(percentile(&samples, 90), Some(90.0));
        assert_eq!(percentile(&hits(1..=200), 90), Some(180.0));
    }

    #[test]
    fn misses_rank_above_every_hit() {
        // 89 fast hits, 11 misses that ran shorter than the slowest hit.
        let mut samples = hits(1..=89);
        samples.push(Sample::Hit(1000.0));
        samples.extend((0..10).map(|i| Sample::Miss(f64::from(i))));
        assert_eq!(percentile(&samples, 90), Some(1000.0));
        samples.push(Sample::Miss(0.5));
        // 101 samples: rank 91 is the first miss, the shortest one.
        assert_eq!(percentile(&samples, 90), Some(0.0));
        assert_eq!(percentile(&samples, 50), Some(51.0));
    }

    #[test]
    fn windowed_percentile_is_the_median_of_window_percentiles() {
        // Three operations of 100 samples: p50s 50, 150 and 1050.
        let mut samples = hits(1..=100);
        samples.extend(hits(101..=200));
        samples.extend(hits(1001..=1100));
        let ends = [100, 200, 300];
        assert_eq!(windowed_percentile(&samples, &ends, 50, 10), Some(150.0));
        // One window: the percentile over every sample.
        assert_eq!(windowed_percentile(&samples, &ends, 90, 1), Some(1070.0));
        assert_eq!(windowed_percentile(&samples[..99], &[99], 50, 10), None);
    }

    #[test]
    fn windows_hold_whole_operations() {
        // Eight operations of 88 samples: four windows of two operations.
        let samples = hits((0..704).map(|i| i % 88));
        let ends: Vec<usize> = (1..=8).map(|k| k * 88).collect();
        assert_eq!(windowed_percentile(&samples, &ends, 90, 10), Some(79.0));
        // One sample per operation: two windows of 125, p50s 63 and 188.
        let samples = hits(1..=250);
        let ends: Vec<usize> = (1..=250).collect();
        assert_eq!(windowed_percentile(&samples, &ends, 50, 10), Some(125.5));
    }

    #[test]
    fn failed_share_is_failed_over_attempted() {
        assert_eq!(failed_share(0, 40), 0.0);
        assert_eq!(failed_share(1, 4), 0.25);
        assert_eq!(failed_share(3, 3), 1.0);
    }

    #[test]
    #[should_panic(expected = "no operations attempted")]
    fn failed_share_needs_attempts() {
        failed_share(0, 0);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn metric_names_are_checked() {
        assert!(valid_metric_name("core.mutator.ns_per_pkt"));
        assert!(valid_metric_name("setup_s"));
        assert!(!valid_metric_name(""));
        assert!(!valid_metric_name(".hidden"));
        assert!(!valid_metric_name("pkts per s"));
        assert!(!valid_metric_name("ms/op"));
        assert!(!valid_metric_name(&"a".repeat(65)));
    }

    #[test]
    fn every_reported_name_is_valid() {
        for name in crate::report::END_TO_END
            .iter()
            .chain(crate::report::PER_LAYER.iter())
            .map(|(name, _)| name)
        {
            assert!(valid_metric_name(name), "{name}");
        }
    }

    #[test]
    fn windows_split_by_operation_count() {
        // (end time s, cumulative pkts, cumulative ops)
        let timeline = [(1.0, 10, 1), (2.0, 30, 2), (4.0, 40, 3), (5.0, 80, 4)];
        assert_eq!(
            window_rates(&timeline, 2),
            vec![(15.0, 1.0), (50.0 / 3.0, 2.0 / 3.0)]
        );
        // Never more windows than operations.
        assert_eq!(window_rates(&timeline[..1], 10), vec![(10.0, 1.0)]);
    }

    #[test]
    fn result_line_shape() {
        let line = result_json(
            true,
            3,
            0,
            &[Metric {
                name: "setup_s".into(),
                value: 0.25,
                unit: "s",
            }],
        );
        assert_eq!(
            line,
            r#"{"correct": true, "attempted": 3, "failed": 0, "metrics": {"setup_s": {"value": 0.25, "unit": "s"}}}"#
        );
    }
}
