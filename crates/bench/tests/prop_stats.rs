//! Property tests for the harness's repeat-statistics aggregation
//! (median / percentile / items-per-sec, re-exported from filter-core's
//! `stats` module), which the trajectory schema and the `filter-net`
//! fleet's latency quantiles both depend on. Uses the vendored proptest
//! shim.

use bench::stats::{items_per_sec, median, percentile, percentile_sorted, SampleStats};
use proptest::collection::vec;
use proptest::prelude::*;

/// Strategy for well-behaved (finite, positive) duration-like samples.
fn samples() -> impl Strategy<Value = Vec<f64>> {
    vec(1e-9f64..1e3, 1..40)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// The median and both tail percentiles sit inside [min, max], and
    /// the percentile function is monotone in q.
    #[test]
    fn percentiles_are_ordered_and_bounded(xs in samples()) {
        let s = SampleStats::from_samples(&xs).unwrap();
        let lo = xs.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert_eq!(s.min, lo);
        prop_assert_eq!(s.max, hi);
        prop_assert!(s.p10 <= s.median && s.median <= s.p90);
        prop_assert!(lo <= s.p10 && s.p90 <= hi);
        prop_assert_eq!(percentile(&xs, 0.0), lo);
        prop_assert_eq!(percentile(&xs, 1.0), hi);
        // Out-of-range quantiles clamp instead of indexing out of bounds.
        prop_assert_eq!(percentile(&xs, -0.5), lo);
        prop_assert_eq!(percentile(&xs, 1.5), hi);
    }

    /// Aggregation is permutation-invariant (it must not depend on the
    /// order repeats happened to run in).
    #[test]
    fn aggregation_ignores_sample_order(mut xs in samples()) {
        let forward = SampleStats::from_samples(&xs).unwrap();
        xs.reverse();
        let reversed = SampleStats::from_samples(&xs).unwrap();
        xs.sort_by(f64::total_cmp);
        let sorted = SampleStats::from_samples(&xs).unwrap();
        prop_assert_eq!(forward, reversed);
        prop_assert_eq!(forward, sorted);
    }

    /// A single sample answers every statistic with itself (the n=1
    /// edge case: a `--smoke` run with 1 repeat must still validate).
    #[test]
    fn single_sample_is_every_statistic(x in 1e-9f64..1e3) {
        let s = SampleStats::from_samples(&[x]).unwrap();
        prop_assert_eq!(s.n, 1);
        prop_assert!(
            s.median == x && s.p10 == x && s.p90 == x && s.min == x && s.max == x,
            "n=1 stats must all equal the sample: {:?}", s
        );
        prop_assert_eq!(median(&[x]), x);
    }

    /// All-equal samples collapse every statistic to that value.
    #[test]
    fn all_equal_samples_collapse(x in 1e-9f64..1e3, n in 1usize..32) {
        let xs = vec![x; n];
        let s = SampleStats::from_samples(&xs).unwrap();
        prop_assert_eq!(s.n, n as u32);
        prop_assert!(
            s.median == x && s.p10 == x && s.p90 == x && s.min == x && s.max == x,
            "all-equal stats must collapse: {:?}", s
        );
        for q in [0.0, 0.1, 0.37, 0.5, 0.9, 1.0] {
            prop_assert_eq!(percentile(&xs, q), x);
        }
    }

    /// Doubling every sample doubles every statistic (scale equivariance
    /// — the property that makes secs→items/sec conversion coherent).
    #[test]
    fn scaling_samples_scales_statistics(xs in samples()) {
        let scaled: Vec<f64> = xs.iter().map(|x| x * 2.0).collect();
        let a = SampleStats::from_samples(&xs).unwrap();
        let b = SampleStats::from_samples(&scaled).unwrap();
        let close = |x: f64, y: f64| (x * 2.0 - y).abs() <= y.abs() * 1e-12;
        prop_assert!(close(a.median, b.median), "median {} vs {}", a.median, b.median);
        prop_assert!(close(a.p10, b.p10));
        prop_assert!(close(a.p90, b.p90));
    }

    /// On ascending input, the sort-free quantile agrees with the sorting
    /// one at every q (callers sort once and ask several quantiles).
    #[test]
    fn percentile_sorted_matches_percentile(mut xs in samples(), q in -0.5f64..1.5) {
        xs.sort_by(f64::total_cmp);
        prop_assert_eq!(percentile_sorted(&xs, q), percentile(&xs, q));
    }

    /// items_per_sec inverts: faster (smaller secs) means higher rate,
    /// and rate × secs recovers the item count.
    #[test]
    fn items_per_sec_inverts(items in 1u64..1_000_000_000, secs in 1e-9f64..1e3) {
        let rate = items_per_sec(items, secs);
        prop_assert!(rate > 0.0);
        prop_assert!((rate * secs - items as f64).abs() <= items as f64 * 1e-9);
        prop_assert!(items_per_sec(items, secs * 2.0) < rate);
    }
}

#[test]
fn empty_samples_have_no_stats() {
    assert!(SampleStats::from_samples(&[]).is_none());
    assert!(median(&[]).is_nan());
    assert!(percentile(&[], 0.5).is_nan());
}

#[test]
fn interpolation_matches_hand_computation() {
    // Five sorted samples: rank q·4 ⇒ p10 lands 0.4 of the way from
    // samples[0] to samples[1], p90 0.6 of the way from [3] to [4].
    let xs = [10.0, 20.0, 30.0, 40.0, 50.0];
    assert_eq!(median(&xs), 30.0);
    assert!((percentile(&xs, 0.1) - 14.0).abs() < 1e-12);
    assert!((percentile(&xs, 0.9) - 46.0).abs() < 1e-12);
    // Even count: the median interpolates halfway.
    assert_eq!(median(&[1.0, 2.0]), 1.5);
}

#[test]
fn zero_duration_reports_zero_throughput() {
    // A timer too coarse to observe the run must not produce infinity
    // (which the JSON writer would degrade to null and the schema test
    // would reject).
    assert_eq!(items_per_sec(1000, 0.0), 0.0);
}
