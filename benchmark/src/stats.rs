//! Order statistics of a sample: median, quartiles and the inter-quartile
//! range. Quartiles follow Python's `statistics.quantiles(values, n=4)`
//! (the "exclusive" method), because that is what the pipeline's
//! steadiness check computes on this benchmark's output.

/// Median and quartiles of one sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

impl Summary {
    /// Inter-quartile range as a share of the median.
    pub fn iqr_share(&self) -> f64 {
        (self.q3 - self.q1) / self.median
    }
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Median and quartiles. A sample of one has no spread: all three are the
/// single value.
pub fn summarize(values: &[f64]) -> Summary {
    let v = sorted(values);
    let n = v.len();
    assert!(n > 0, "summary of an empty sample");
    let (q1, q3) = if n == 1 {
        (v[0], v[0])
    } else {
        (quantile(&v, 1), quantile(&v, 3))
    };
    Summary {
        n,
        q1,
        median: median(&v),
        q3,
    }
}

/// The `i`-th of the three quartile cut points of sorted `v` (n ≥ 2):
/// position `i·(n+1)/4` on a 1-based scale, linearly interpolated and
/// clamped to the sample.
fn quantile(v: &[f64], i: usize) -> f64 {
    let n = v.len();
    let m = n + 1;
    let j = (i * m / 4).clamp(1, n - 1);
    let delta = (i * m) as f64 - (j * 4) as f64;
    (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16, 32, 64], n=4) == [2, 8, 32]
        let s = summarize(&[64.0, 1.0, 16.0, 2.0, 8.0, 4.0, 32.0]);
        assert_eq!((s.q1, s.median, s.q3), (2.0, 8.0, 32.0));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15, 22.5] — the
        // exclusive method extrapolates on tiny samples.
        let s = summarize(&[20.0, 10.0]);
        assert_eq!((s.q1, s.median, s.q3), (7.5, 15.0, 22.5));
    }

    #[test]
    fn iqr_is_a_share_of_the_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((summarize(&v).iqr_share() - 1.0).abs() < 1e-12);
        assert_eq!(summarize(&[5.0]).iqr_share(), 0.0);
    }
}
