//! Small order statistics over measured samples.

/// The `q`-quantile of `samples` by linear interpolation between closest
/// ranks (0 for an empty sample). Sorts a copy, so callers may pass
/// samples in arrival order.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `samples` (0 for an empty sample).
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The arithmetic mean of `samples` (0 for an empty sample).
pub fn mean(samples: &[f64]) -> f64 {
    ratio(samples.iter().sum(), samples.len() as f64)
}

/// `num / den`, or 0 when nothing was measured.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// What a timed call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Insert,
    Query,
}

/// One measured request: when it was answered (seconds into the
/// measured window), what it did, how many keys it completed and how
/// long it took from its scheduled send.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub at: f64,
    pub op: Op,
    pub keys: usize,
    pub secs: f64,
}

/// The answered requests of a serving pass, grouped into windows of
/// measured time by when they were answered.
///
/// Reported figures are medians, so that a host stall touching a few
/// requests or one window moves no reported number: insert and query
/// rates over requests, and every other figure over windows. Binning by
/// answer time makes a backlog show: keys answered after the measured
/// time count in no window.
#[derive(Debug, Default)]
pub struct Timing {
    insert_rates: Vec<f64>,
    query_rates: Vec<f64>,
    keys_per_s: Vec<f64>,
    p50_ms: Vec<f64>,
    p90_ms: Vec<f64>,
    p99_ms: Vec<f64>,
    query_calls: usize,
}

/// What [`Timing::summary`] reports.
#[derive(Debug, Clone, Copy, Default)]
pub struct TimingSummary {
    pub insert_keys_per_s: f64,
    pub query_keys_per_s: f64,
    pub keys_per_s: f64,
    pub p50_ms: f64,
    pub p90_ms: f64,
    pub p99_ms: f64,
    pub query_calls: usize,
}

impl Timing {
    /// Add one serving segment: `samples` measured over `windows * width`
    /// seconds, split into `windows` equal windows by answer time. Its
    /// rates are each request's keys ÷ its latency.
    pub fn segment(&mut self, samples: &[Sample], width: f64, windows: usize) {
        let mut bins: Vec<Vec<Sample>> = vec![Vec::new(); windows];
        for s in samples {
            if s.at < 0.0 || s.at >= width * windows as f64 {
                continue;
            }
            let i = ((s.at / width) as usize).min(windows - 1);
            bins[i].push(*s);
            let rate = ratio(s.keys as f64, s.secs);
            match s.op {
                Op::Insert => self.insert_rates.push(rate),
                Op::Query => self.query_rates.push(rate),
            }
        }
        for b in &bins {
            self.window(b, width);
        }
    }

    fn window(&mut self, samples: &[Sample], width: f64) {
        let lat: Vec<f64> =
            samples.iter().filter(|s| s.op == Op::Query).map(|s| s.secs * 1e3).collect();
        self.keys_per_s.push(ratio(samples.iter().map(|s| s.keys as f64).sum(), width));
        self.p50_ms.push(quantile(&lat, 0.5));
        self.p90_ms.push(quantile(&lat, 0.9));
        self.p99_ms.push(quantile(&lat, 0.99));
        self.query_calls += lat.len();
    }

    pub fn summary(&self) -> TimingSummary {
        TimingSummary {
            insert_keys_per_s: median(&self.insert_rates),
            query_keys_per_s: median(&self.query_rates),
            keys_per_s: median(&self.keys_per_s),
            p50_ms: median(&self.p50_ms),
            p90_ms: median(&self.p90_ms),
            p99_ms: median(&self.p99_ms),
            query_calls: self.query_calls,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 4.0);
        assert_eq!(median(&s), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn timing_takes_medians_over_calls_and_windows() {
        let q = |at, secs| Sample { at, op: Op::Query, keys: 10, secs };
        let samples =
            [q(-0.1, 9.0), q(0.1, 0.001), q(0.2, 0.003), q(1.5, 0.002), q(2.5, 0.5), q(3.5, 1.0)];
        let mut t = Timing::default();
        t.segment(&samples, 1.0, 3);
        let s = t.summary();
        assert_eq!(s.query_calls, 4, "samples outside the windows are dropped");
        assert_eq!(s.keys_per_s, 10.0, "windows hold 20, 10 and 10 keys");
        assert_eq!(s.p50_ms, 2.0, "window p50s are 2, 2 and 500 ms");
        assert_eq!(s.query_keys_per_s, (10.0 / 0.002 + 10.0 / 0.003) / 2.0);
        assert_eq!(s.insert_keys_per_s, 0.0);
    }
}
