//! The service under the wire workload: building the sharded service
//! over either backend, prefilling its shards, and turning service
//! counters and flush spans into per-layer metrics.

use crate::backend::{Fault, Target, FLUSH};
use crate::report::{Layers, EPS};
use crate::stats::ratio;
use crate::trace::{Trace, Tracer};
use filter_core::FilterSpec;
use filter_service::{ServiceStats, ShardedFilter, ShardedFilterBuilder};
use gpu_sim::metrics::{self, Counters};
use gpu_sim::Counter;
use std::sync::Arc;
use std::time::Instant;

/// Keys per prefill call.
const PREFILL_BATCH: usize = 1 << 16;

/// Build a `shards`-way service with default builder settings over
/// shards of `shard_slots` slots each.
pub fn build<B: Target>(
    shards: usize,
    shard_slots: u64,
    tracer: &Option<Arc<Tracer>>,
) -> ShardedFilter<B> {
    let spec = FilterSpec::items((shard_slots as f64 * 0.9) as u64).fp_rate(EPS);
    let builder = ShardedFilterBuilder::new().shards(shards);
    builder.build(|_| B::make(&spec, tracer.clone())).expect("the shard spec is valid")
}

/// Insert `keys` straight into the shards the service routes them to.
/// Returns the number of keys the backends rejected.
pub fn prefill<B: Target>(svc: &ShardedFilter<B>, keys: &[u64]) -> usize {
    let router = svc.router();
    let mut failed = 0;
    for chunk in keys.chunks(PREFILL_BATCH) {
        let (by_shard, _) = router.partition(chunk);
        for (shard, shard_keys) in by_shard.iter().enumerate() {
            let backend = svc.backends()[shard].read().expect("a shard worker panicked");
            failed += backend.bulk_insert(shard_keys).unwrap_or(shard_keys.len());
        }
    }
    failed
}

/// Arm `fault` on the first shard.
pub fn arm<B: Target>(svc: &ShardedFilter<B>, fault: Fault) {
    if fault != Fault::None {
        svc.backends()[0].read().expect("a shard worker panicked").arm(fault);
    }
}

/// Service and gpu-sim counters at the start of a measured window.
pub struct Window {
    at: Instant,
    stats: ServiceStats,
    counters: Counters,
}

impl Window {
    pub fn open<B: Target>(svc: &ShardedFilter<B>) -> Window {
        Window { at: Instant::now(), stats: svc.stats(), counters: metrics::snapshot() }
    }
}

/// Per-layer service and backend totals summed over measured windows.
#[derive(Default)]
pub struct ServiceTotals {
    shards: usize,
    wall_s: f64,
    windows: Vec<(Instant, Instant)>,
    batches: u64,
    items: u64,
    queries: u64,
    coalesced: u64,
    launches: u64,
    lines: u64,
    queue_depth_max: u64,
    queue_wait_ms_p50: Vec<f64>,
}

impl ServiceTotals {
    /// Close `w` and add its deltas.
    pub fn close<B: Target>(&mut self, svc: &ShardedFilter<B>, w: Window) {
        let end = Instant::now();
        let s = svc.stats();
        let c = metrics::snapshot().since(&w.counters);
        self.shards = svc.shard_count();
        self.wall_s += (end - w.at).as_secs_f64();
        self.windows.push((w.at, end));
        self.batches += s.batches_flushed - w.stats.batches_flushed;
        self.items += s.items_flushed - w.stats.items_flushed;
        self.queries += s.queries - w.stats.queries;
        self.coalesced += s.coalesced_keys - w.stats.coalesced_keys;
        self.launches += c.get(Counter::KernelLaunches);
        self.lines += c.get(Counter::LinesLoaded) + c.get(Counter::LinesStored);
        self.queue_depth_max = self.queue_depth_max.max(s.queue_depth_max);
        self.queue_wait_ms_p50.push(s.latency.p50.as_secs_f64() * 1e3);
    }

    /// Service, backend and gpu-sim metrics; flush spans outside the
    /// measured windows (prefill, verification) are left out.
    pub fn layers(&self, layers: &mut Layers, trace: &Trace) {
        let windows: Vec<(u64, u64)> =
            self.windows.iter().map(|&(a, b)| (trace.at(a), trace.at(b))).collect();
        let (mut flush_ns, mut flush_keys, mut flushes) = (0u64, 0usize, 0usize);
        for &i in &trace.named(FLUSH) {
            let s = &trace.spans[i];
            if windows.iter().any(|&(a, b)| s.start >= a && s.end <= b) {
                flush_ns += s.duration();
                flush_keys += s.n_keys;
                flushes += 1;
            }
        }
        layers.set("tcf.flush.ns_per_key", ratio(flush_ns as f64, flush_keys as f64));
        layers.set("tcf.flush.keys_per_call", ratio(flush_keys as f64, flushes as f64));
        layers.set(
            "filter-service.backend_busy_frac",
            ratio(flush_ns as f64 / 1e9, self.wall_s * self.shards as f64),
        );
        layers.set("filter-service.keys_per_flush", ratio(self.items as f64, self.batches as f64));
        layers.set("filter-service.queue_depth_max", self.queue_depth_max as f64);
        layers.set(
            "filter-service.coalesced_frac",
            ratio(self.coalesced as f64, self.queries as f64),
        );
        layers
            .set("filter-service.queue_wait_ms_p50", crate::stats::median(&self.queue_wait_ms_p50));
        layers.set(
            "gpu-sim.serve.launches_per_flush",
            ratio(self.launches as f64, self.batches as f64),
        );
        layers.set("gpu-sim.serve.lines_per_key", ratio(self.lines as f64, self.items as f64));
    }
}
