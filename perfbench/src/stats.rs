//! Mean and order statistics over per-pass samples.

/// Arithmetic mean of `values`; 0.0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Median of `values` (mean of the two middle values for an even
/// count); 0.0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `p` (0 < p <= 100) of `values`; 0.0 for an
/// empty slice.
pub fn percentile(values: &[f64], p: u32) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    let rank = (u64::from(p) * v.len() as u64).div_ceil(100).max(1) as usize;
    v[rank - 1]
}

/// The highest tail percentile `n` samples support: the largest of
/// p99, p95, p90 and p75 with at least ten samples beyond it
/// (`n * (100 - p) / 100 >= 10`). `None` below 40 samples, where only
/// the median is reported.
pub fn tail_percentile(n: usize) -> Option<u32> {
    [99, 95, 90, 75].into_iter().find(|&p| n as u64 * (100 - u64::from(p)) >= 1000)
}

/// A timing as reported: sample count, mean, median and supported
/// tail.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Their mean.
    pub mean: f64,
    /// Their median.
    pub median: f64,
    /// `(p, value)` for the highest supported tail percentile.
    pub tail: Option<(u32, f64)>,
}

impl Summary {
    /// Summarises `values` by the rules above.
    pub fn of(values: &[f64]) -> Summary {
        Summary {
            n: values.len(),
            mean: mean(values),
            median: median(values),
            tail: tail_percentile(values.len()).map(|p| (p, percentile(values, p))),
        }
    }

    /// `mean 2.1 s, median 2.0931 s, p90 2.2 s (n=120)` style text.
    pub fn describe(&self, unit: &str) -> String {
        let center = format!("mean {:.6} {unit}, median {:.6} {unit}", self.mean, self.median);
        match self.tail {
            Some((p, v)) => format!("{center}, p{p} {v:.6} {unit} (n={})", self.n),
            None => format!("{center} (n={}; fewer than 40 samples, no tail percentile)", self.n),
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_empty() {
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(Summary::of(&[1.0, 2.0, 6.0]).mean, 3.0);
    }

    #[test]
    fn median_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(39), None);
        assert_eq!(tail_percentile(40), Some(75));
        assert_eq!(tail_percentile(99), Some(75));
        assert_eq!(tail_percentile(100), Some(90));
        assert_eq!(tail_percentile(199), Some(90));
        assert_eq!(tail_percentile(200), Some(95));
        assert_eq!(tail_percentile(1000), Some(99));
    }

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 90), 90.0);
        assert_eq!(percentile(&v, 75), 75.0);
        assert_eq!(percentile(&[5.0], 99), 5.0);
        let s = Summary::of(&v);
        assert_eq!(s.tail, Some((90, 90.0)));
        assert_eq!(Summary::of(&v[..10]).tail, None);
    }
}
