//! Order statistics for timed samples.

/// Median and quartiles of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

impl Summary {
    /// Distance between the quartiles as a share of the median — the
    /// run-to-run spread the benchmark contract bounds.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the "exclusive" method), so a spread computed here is the spread the CI
/// driver computes.  A single value is its own quartiles.
pub fn summarize(values: &[f64]) -> Summary {
    assert!(!values.is_empty(), "summarize needs at least one value");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    let n = v.len();
    let q = |i: usize| -> f64 {
        if n == 1 {
            return v[0];
        }
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Summary {
        n,
        min: v[0],
        q1: q(1),
        median: q(2),
        q3: q(3),
        max: v[n - 1],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let s = summarize(&[10.0, 9.0, 8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0]);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let s = summarize(&[1.0, 2.0, 4.0, 8.0, 16.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.5, 4.0, 12.0));
        assert_eq!(summarize(&[3.0]).median, 3.0);
    }
}
