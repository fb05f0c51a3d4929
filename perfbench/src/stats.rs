//! Order statistics for the reported timings.

/// Nearest-rank quantile of an ascending slice (`q` in `[0, 1]`).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = ((q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize).max(1);
    sorted[rank - 1]
}

/// Median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// The highest reportable percentile of a sample: the largest of
/// p99.9, p99, p90 and p50 that has at least ten samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, as a fraction (0.99 for p99).
    pub q: f64,
    pub value: f64,
    /// Samples the percentile was taken over.
    pub n: usize,
}

pub fn tail(sorted: &[f64]) -> Option<Tail> {
    let n = sorted.len();
    [0.999, 0.99, 0.9, 0.5].into_iter().find_map(|q| {
        let rank = ((q * n as f64).ceil() as usize).max(1);
        (rank <= n && n - rank >= 10).then(|| Tail {
            q,
            value: sorted[rank - 1],
            n,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank() {
        let v = ramp(100);
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 10 000 samples: p99.9 has exactly 10 beyond it.
        let t = tail(&ramp(10_000)).unwrap();
        assert_eq!((t.q, t.value, t.n), (0.999, 9990.0, 10_000));
        // 9 999: p99.9 has only 9 beyond, so p99.
        let t = tail(&ramp(9_999)).unwrap();
        assert_eq!((t.q, t.n), (0.99, 9_999));
        // 1 000: p99 has exactly 10 beyond.
        assert_eq!(tail(&ramp(1_000)).unwrap().q, 0.99);
        assert_eq!(tail(&ramp(999)).unwrap().q, 0.9);
        assert_eq!(tail(&ramp(100)).unwrap().q, 0.9);
        assert_eq!(tail(&ramp(20)).unwrap().q, 0.5);
        assert_eq!(tail(&ramp(19)), None);
    }
}
