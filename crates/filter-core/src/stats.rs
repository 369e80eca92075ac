//! Repeat-sample aggregation shared by the `bench` crate's measurement
//! harness and the `filter-net` client fleet, so every figure binary and
//! every fleet report computes its statistics with the same code.
//!
//! Percentiles use linear interpolation between order statistics
//! (`rank = q · (n − 1)` over the sorted samples), the common "type 7"
//! estimator, so `q = 0` is the minimum, `q = 1` the maximum, and a single
//! sample answers every quantile with itself.

/// Summary of one batch of repeat samples (seconds, items/sec, …).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampleStats {
    /// Number of samples aggregated.
    pub n: u32,
    /// 50th percentile.
    pub median: f64,
    /// 10th percentile.
    pub p10: f64,
    /// 90th percentile.
    pub p90: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
}

impl SampleStats {
    /// Aggregate `samples`; `None` when empty.
    pub fn from_samples(samples: &[f64]) -> Option<SampleStats> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
        Some(SampleStats {
            n: sorted.len() as u32,
            median: percentile_sorted(&sorted, 0.5),
            p10: percentile_sorted(&sorted, 0.1),
            p90: percentile_sorted(&sorted, 0.9),
            min: sorted[0],
            max: sorted[sorted.len() - 1],
        })
    }
}

/// Quantile `q ∈ [0, 1]` of `samples` (unsorted input; NaN on empty).
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    percentile_sorted(&sorted, q)
}

/// Median of `samples` (unsorted input; NaN on empty).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Throughput for `items` processed in `secs` (0 when `secs` is 0,
/// so a timer too coarse to see the run reports "no throughput"
/// rather than infinity).
pub fn items_per_sec(items: u64, secs: f64) -> f64 {
    if secs > 0.0 {
        items as f64 / secs
    } else {
        0.0
    }
}

/// Quantile `q ∈ [0, 1]` of already ascending-sorted `sorted` (NaN on
/// empty). Callers asking several quantiles of one sample set sort it
/// once and call this, instead of paying a copy and a sort per
/// [`percentile`] call.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let q = q.clamp(0.0, 1.0);
    let rank = q * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_aggregate_order_statistics() {
        let s = SampleStats::from_samples(&[3.0, 1.0, 2.0, 5.0, 4.0]).unwrap();
        assert_eq!(s.n, 5);
        assert_eq!(s.median, 3.0);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 5.0);
        assert!((s.p10 - 1.4).abs() < 1e-12);
        assert!((s.p90 - 4.6).abs() < 1e-12);
        assert!(SampleStats::from_samples(&[]).is_none());
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(items_per_sec(100, 2.0), 50.0);
        assert_eq!(items_per_sec(100, 0.0), 0.0);
    }
}
