//! What one run reports: end-to-end metrics, per-layer metrics, the
//! operation ledger and the verdict checks, plus their rendering.

use std::collections::BTreeMap;

/// Target false-positive rate every filter is built for: the paper's
/// 0.39% configuration (16-bit TCF slots, 8-bit GQF remainders).
pub const EPS: f64 = 0.004;

/// A measured false-positive rate above this fails the run (the bound
/// of the repository's differential oracle).
pub const FP_LIMIT: f64 = 2.0 * EPS;

/// The end-to-end metrics every workload reports.
#[derive(Debug, Clone, Default)]
pub struct EndToEnd {
    /// Median time to build the filters/service/server and prefill them.
    pub setup_s: f64,
    /// Keys inserted per second of insert-call time.
    pub insert_keys_per_s: f64,
    /// Keys queried per second of query-call time.
    pub query_keys_per_s: f64,
    /// Key operations completed per second of measured time.
    pub keys_per_s: f64,
    /// Query-call latency percentiles (per wire request from its
    /// scheduled send) and their sample count. The tail percentiles are
    /// printed but not reported as metrics: on a 2-vCPU virtual machine
    /// they follow the host's CPU steal far beyond any usable bound.
    pub latency_p50_ms: f64,
    pub latency_p90_ms: f64,
    pub latency_p99_ms: f64,
    pub latency_samples: usize,
    /// Never-inserted keys answered present ÷ never-inserted keys queried.
    pub fp_rate: f64,
    /// Table bytes × 8 ÷ keys stored.
    pub bits_per_key: f64,
}

impl EndToEnd {
    /// Take the throughput and latency figures from `w`.
    pub fn set_timing(&mut self, w: crate::stats::TimingSummary) {
        self.insert_keys_per_s = w.insert_keys_per_s;
        self.query_keys_per_s = w.query_keys_per_s;
        self.keys_per_s = w.keys_per_s;
        self.latency_p50_ms = w.p50_ms;
        self.latency_p90_ms = w.p90_ms;
        self.latency_p99_ms = w.p99_ms;
        self.latency_samples = w.query_calls;
    }

    pub fn metrics(&self) -> [(&'static str, f64, &'static str); 7] {
        [
            ("setup_s", self.setup_s, "s"),
            ("insert_keys_per_s", self.insert_keys_per_s, "keys/s"),
            ("query_keys_per_s", self.query_keys_per_s, "keys/s"),
            ("keys_per_s", self.keys_per_s, "keys/s"),
            ("latency_p50_ms", self.latency_p50_ms, "ms"),
            ("fp_rate", self.fp_rate, "fraction"),
            ("bits_per_key", self.bits_per_key, "bits/key"),
        ]
    }
}

/// Every per-layer metric with its unit. A traced run reports all of
/// them; a layer or operation a workload does not exercise reads 0.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("gpu-sim.tcf.insert.lines_per_key", "lines/key"),
    ("gpu-sim.tcf.insert.cg_steps_per_key", "steps/key"),
    ("gpu-sim.tcf.insert.modeled_keys_per_s", "keys/s"),
    ("gpu-sim.tcf.query.lines_per_key", "lines/key"),
    ("gpu-sim.tcf.query.cg_steps_per_key", "steps/key"),
    ("gpu-sim.tcf.query.modeled_keys_per_s", "keys/s"),
    ("gpu-sim.gqf.insert.lines_per_key", "lines/key"),
    ("gpu-sim.gqf.insert.cg_steps_per_key", "steps/key"),
    ("gpu-sim.gqf.insert.modeled_keys_per_s", "keys/s"),
    ("gpu-sim.gqf.query.lines_per_key", "lines/key"),
    ("gpu-sim.gqf.query.cg_steps_per_key", "steps/key"),
    ("gpu-sim.gqf.query.modeled_keys_per_s", "keys/s"),
    ("gpu-sim.serve.launches_per_flush", "launches/flush"),
    ("gpu-sim.serve.lines_per_key", "lines/key"),
    ("tcf.insert.ns_per_key", "ns/key"),
    ("tcf.query.ns_per_key", "ns/key"),
    ("tcf.insert.ns_per_key_at_90", "ns/key"),
    ("tcf.load_factor", "fraction"),
    ("tcf.spill_frac", "fraction"),
    ("tcf.flush.ns_per_key", "ns/key"),
    ("tcf.flush.keys_per_call", "keys/call"),
    ("gqf.insert.ns_per_key", "ns/key"),
    ("gqf.query.ns_per_key", "ns/key"),
    ("gqf.insert.ns_per_key_at_90", "ns/key"),
    ("gqf.load_factor", "fraction"),
    ("filter-service.keys_per_flush", "keys/flush"),
    ("filter-service.queue_wait_ms_p50", "ms"),
    ("filter-service.backend_busy_frac", "fraction"),
    ("filter-service.queue_depth_max", "ops"),
    ("filter-service.coalesced_frac", "fraction"),
    ("filter-net.self_ms_p50", "ms"),
    ("filter-net.linger_us_mean", "us"),
    ("filter-net.shed_frac", "fraction"),
    ("filter-net.pool_hit_frac", "fraction"),
    ("filter-net.bytes_per_key", "bytes/key"),
    ("loadgen.late_ms_p99", "ms"),
    ("trace.overhead_frac", "fraction"),
];

/// Per-layer values of one traced pass, keyed by [`LAYER_METRICS`] name.
#[derive(Debug, Clone, Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn set(&mut self, name: &str, value: f64) {
        let (declared, _) = LAYER_METRICS
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("per-layer metric {name} is not declared in LAYER_METRICS"));
        self.0.insert(declared, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// The ledger and metrics of one pass over a workload.
#[derive(Default)]
pub struct Outcome {
    /// Key operations attempted.
    pub attempted: u64,
    /// Key operations that failed: insert failures, `Err` results,
    /// `Shed`/`Error` responses, unanswered requests, wrong verdicts.
    pub failed: u64,
    /// Wrong verdicts and broken bounds; any entry fails the run.
    pub violations: Vec<String>,
    pub e2e: EndToEnd,
    pub layers: Layers,
    /// Order-sensitive digest of every verdict the pass observed.
    pub digest: u64,
    /// The spans of a traced pass.
    pub trace: Option<crate::trace::Trace>,
}

impl Outcome {
    /// Record a wrong verdict: one failed key operation that also
    /// fails the run.
    pub fn wrong_verdict(&mut self, what: String) {
        self.failed += 1;
        self.violation(what);
    }

    /// Record something that fails the run (keeps the first few messages).
    pub fn violation(&mut self, what: String) {
        if self.violations.len() < 8 {
            self.violations.push(what);
        } else if self.violations.len() == 8 {
            self.violations.push("... further violations omitted".into());
        }
    }

    /// Fail the run if the measured false-positive rate breaks the bound.
    pub fn check_fp(&mut self) {
        if self.e2e.fp_rate > FP_LIMIT {
            self.violations.push(format!(
                "false-positive rate {:.5} exceeds 2 x eps = {FP_LIMIT}",
                self.e2e.fp_rate
            ));
        }
    }

    pub fn correct(&self) -> bool {
        self.violations.is_empty()
    }

    pub fn failed_frac(&self) -> f64 {
        crate::stats::ratio(self.failed as f64, self.attempted as f64)
    }
}

/// Fold one verdict into an order-sensitive digest.
pub fn fold(digest: u64, verdict: bool) -> u64 {
    filter_core::splitmix64(digest ^ (verdict as u64 + 1))
}

/// Human-readable summary: the end-to-end numbers, then (for a traced
/// run) each per-layer metric, so one run shows where time went.
pub fn summary(workload: &str, untraced: &Outcome, traced: Option<&Outcome>) -> String {
    let mut s = format!("== {workload}: end-to-end (untraced)\n");
    let e = &untraced.e2e;
    for (name, value, unit) in e.metrics() {
        s.push_str(&format!("  {name:<40} {value:>16.6} {unit}\n"));
    }
    s.push_str(&format!(
        "  {:<40} {:>16.6} ms (not gated)\n  {:<40} {:>16.6} ms (not gated)\n  {:<40} {:>16} samples\n  {:<40} {:>16.6} fraction ({} of {} key ops)\n",
        "latency_p90_ms",
        e.latency_p90_ms,
        "latency_p99_ms",
        e.latency_p99_ms,
        "latency_samples",
        e.latency_samples,
        "failed_frac",
        untraced.failed_frac(),
        untraced.failed,
        untraced.attempted
    ));
    if let Some(t) = traced {
        s.push_str(&format!("== {workload}: end-to-end (traced pass of the same run)\n"));
        for (name, value, unit) in t.e2e.metrics() {
            s.push_str(&format!("  {name:<40} {value:>16.6} {unit}\n"));
        }
        s.push_str(&format!("== {workload}: per layer (traced pass)\n"));
        for (name, unit) in LAYER_METRICS {
            s.push_str(&format!("  {name:<40} {:>16.6} {unit}\n", t.layers.get(name)));
        }
    }
    s
}

/// The result line: one JSON object with the ledger and the metrics.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            assert!(value.is_finite(), "metric {name} is not finite: {value}");
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
