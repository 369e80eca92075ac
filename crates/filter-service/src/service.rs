//! The sharded, batch-aggregating serving layer: the builder, the
//! [`ShardedFilter`] that owns the shard fleet, and live resizing.
//!
//! Architecture (one box per shard):
//!
//! ```text
//!  callers ──► ServiceHandle ──router──► bounded MPSC ──► shard worker ──► backend
//!               (clone-able)             (backpressure)    (aggregates      (BulkTcf /
//!                                                           into batches,    BulkGqf /
//!                                                           flushes on       BBF / …)
//!                                                           fill or linger)
//! ```
//!
//! Each shard owns an independent backend instance and a dedicated worker
//! thread. Workers pull operations off a bounded queue into a pending
//! buffer and flush maximal same-kind runs through the backend's bulk API
//! when the buffer fills or a linger deadline passes — the CPU-side
//! equivalent of amortizing GPU kernel-launch overhead across a batch
//! (§4.2 bulk TCF, §5.3 GQF phased insertion). Within a shard, operations
//! are applied in arrival order, so per-key ordering is global: a key
//! always routes to the same shard.
//!
//! Two usage modes per handle:
//!
//! * **blocking** — `insert` / `contains` / `remove` park the caller until
//!   the flush containing their operation completes; many concurrent
//!   callers naturally fill batches.
//! * **pipeline** — `insert_pipelined` / `*_batch_pipelined` enqueue and
//!   return; `barrier()` waits for everything already enqueued. Streaming
//!   workloads use this to keep every shard busy from one thread.
//!
//! Both modes, and the callback-driven `submit_batch`, share one
//! completion path: each request's per-shard share carries a claim on one
//! set of result slots, which the worker answers once per flushed run.
//!
//! **Capacity lifecycle.** Shard workers built over a
//! [`MaintainableFilter`] backend auto-grow it under the spec's
//! [`GrowthPolicy`], retrying exactly the keys a full backend failed — so
//! a service over a growable kind never surfaces capacity failures. The
//! service itself resizes live: [`ShardedFilter::set_shards`] moves the
//! fleet to *any* shard count — out or in — by consulting the rings:
//! each new shard merge-absorbs exactly the old backends whose ring arcs
//! it takes over ([`RingRouter::inheritors`]), correct under concurrent
//! blocking and pipelined handles (intake pauses on the shared routing
//! state while old shards drain). An `n → n ± k` resize re-owns only
//! ~`k/n` of the key space. Growth, migration, scale-out/in, and
//! moved-key events land in the [`ServiceStats`] ledger.

use crate::cache::QueryCache;
use crate::handle::{RouteState, ServiceControl, ServiceHandle};
use crate::router::{RingRouter, DEFAULT_VNODES, ROUTER_SEED};
use crate::stats::{ServiceStats, StatsInner};
use crate::worker::{DeleteHooks, MaintainHooks, Task, WorkerConfig, MAX_GROWS_PER_FLUSH};
use filter_core::{
    FilterError, FilterSpec, GrowthPolicy, MaintainableFilter, Parallelism, ServiceBackend,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, SyncSender};
use std::sync::{Arc, RwLock, RwLockReadGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Deterministic probe keys sampled by [`ShardedFilter::set_shards`] to
/// measure the fraction of the key space a routing change re-routes (the
/// basis of the `keys_moved` ledger estimate).
const MOVE_PROBE_KEYS: u64 = 4096;

/// Configuration for a [`ShardedFilter`]; see the field setters.
#[derive(Debug, Clone)]
pub struct ShardedFilterBuilder {
    shards: usize,
    batch_capacity: usize,
    linger: Duration,
    queue_tasks: usize,
    seed: u64,
    vnodes: u32,
    weights: Option<Vec<f64>>,
    parallelism: Parallelism,
    growth: GrowthPolicy,
    coalesce: bool,
    cache_entries: usize,
}

impl Default for ShardedFilterBuilder {
    fn default() -> Self {
        ShardedFilterBuilder {
            shards: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4),
            batch_capacity: 4096,
            linger: Duration::from_micros(200),
            queue_tasks: 1024,
            seed: ROUTER_SEED,
            vnodes: DEFAULT_VNODES,
            weights: None,
            parallelism: Parallelism::Auto,
            growth: GrowthPolicy::Fixed,
            coalesce: true,
            cache_entries: 0,
        }
    }
}

impl ShardedFilterBuilder {
    /// Start from the defaults: one shard per core, 4096-op batches,
    /// 200 µs linger, 1024-task queues.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of independent shards (worker thread + backend instance
    /// each). Zero is clamped to one.
    pub fn shards(mut self, n: usize) -> Self {
        self.shards = n.max(1);
        self
    }

    /// Flush a shard's buffer once it holds this many operations. One
    /// degenerates the service to point calls (useful as a baseline).
    pub fn batch_capacity(mut self, n: usize) -> Self {
        self.batch_capacity = n.max(1);
        self
    }

    /// Maximum time an operation waits for its batch to fill before the
    /// shard flushes anyway — bounds blocking-call latency under light
    /// load, exactly as a GPU driver bounds kernel-launch batching.
    pub fn linger(mut self, d: Duration) -> Self {
        self.linger = d;
        self
    }

    /// Bounded queue length (in tasks) per shard; senders block when a
    /// shard's queue is full, providing backpressure.
    pub fn queue_depth(mut self, tasks: usize) -> Self {
        self.queue_tasks = tasks.max(1);
        self
    }

    /// Override the router seed (see [`RingRouter::with_seed`]).
    pub fn router_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Virtual nodes per unit-weight shard on the consistent-hash ring
    /// (default 128; zero clamps to one). More vnodes tighten balance
    /// (the residual imbalance after correction is ~one vnode arc) at the
    /// cost of a larger binary-search table.
    pub fn ring_vnodes(mut self, vnodes: u32) -> Self {
        self.vnodes = vnodes.max(1);
        self
    }

    /// Per-shard ring weights for heterogeneous capacity: shard `i`
    /// serves a key-space share proportional to `weights[i]`. Entries
    /// beyond the live shard count are ignored; missing, non-finite, or
    /// non-positive entries default to `1.0`. A resize keeps applying the
    /// same weight vector to however many shards then exist.
    pub fn shard_weights(mut self, weights: Vec<f64>) -> Self {
        self.weights = Some(weights);
        self
    }

    /// The router this configuration produces for `shards` live shards.
    fn make_router(&self, shards: usize) -> RingRouter {
        RingRouter::with_config(shards, self.seed, self.vnodes, self.weights.as_deref())
    }

    /// Service-wide host-parallelism budget for the backends' bulk phases
    /// (the paper's partition/sort/apply structure, CPU-side). The budget
    /// covers the whole service: [`Self::shard_spec`] divides it across
    /// shard workers, giving each shard at most `ceil(n / shards)`
    /// backend workers — when `n` does not divide evenly, the aggregate
    /// `shards × backend workers` can round up to one extra worker per
    /// shard (and every shard always keeps at least one).
    pub fn parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// Capacity-growth policy for the shard workers (only effective on a
    /// service built with [`Self::build_maintainable`] /
    /// [`Self::build_maintainable_deletable`]): under
    /// [`GrowthPolicy::Auto`], a worker whose backend fails keys or whose
    /// load crosses the threshold grows the backend in place and retries
    /// the failed keys, so callers never observe capacity failures.
    pub fn growth(mut self, growth: GrowthPolicy) -> Self {
        self.growth = growth;
        self
    }

    /// Toggle in-batch duplicate coalescing for query flushes (default
    /// on). When on, a worker sort-dedups each query run's keys, probes
    /// every distinct key exactly once, and fans the verdicts back to the
    /// original slots — on skewed (Zipf-like) key popularity most backend
    /// probes are duplicates, so this removes the bulk of the flush work.
    /// Only query runs coalesce: duplicate inserts and deletes carry
    /// multiset semantics on counting backends (each copy is a distinct
    /// fingerprint occurrence), so mutation runs always execute key by
    /// key and per-key outcomes are bit-identical either way.
    pub fn coalesce_queries(mut self, on: bool) -> Self {
        self.coalesce = on;
        self
    }

    /// Arm a per-shard hot-key query cache of roughly `entries` verdict
    /// lines (default 0 = no cache). Cached verdicts are invalidated in
    /// O(1) by a per-shard mutation epoch — any insert/delete flush bumps
    /// it, and lookups ignore entries from older epochs — so a stale
    /// entry can cost a redundant backend probe but never a wrong answer
    /// (see the `cache` module docs for why the conservative epoch beats
    /// per-key invalidation). Hits, misses, and invalidations land in
    /// [`ServiceStats`].
    pub fn query_cache(mut self, entries: usize) -> Self {
        self.cache_entries = entries;
        self
    }

    /// Derive the per-shard backend spec from one service-wide spec:
    /// capacity splits evenly across shards (with the spec's own headroom
    /// policy left to the backend), and a `Threads(n)` budget divides into
    /// `ceil(n / shards)` workers per shard (so the aggregate may round
    /// up when `n % shards != 0` — see [`Self::parallelism`]).
    /// `Sequential` and `Auto` pass through unchanged. Use inside the
    /// `make` closure of [`Self::build`] / [`Self::build_deletable`]:
    ///
    /// ```ignore
    /// let builder = ShardedFilterBuilder::new().shards(4).parallelism(Parallelism::Threads(8));
    /// let spec = FilterSpec::items(1 << 20);
    /// let service = builder
    ///     .clone()
    ///     .build(|_| BulkTcf::from_spec(&builder.shard_spec(&spec)))?;
    /// ```
    pub fn shard_spec(&self, spec: &FilterSpec) -> FilterSpec {
        let shards = self.shards.max(1) as u64;
        let per_shard = match self.parallelism {
            Parallelism::Threads(n) => {
                Parallelism::Threads((n as u64).div_ceil(shards).max(1) as u32)
            }
            other => other,
        };
        spec.clone().parallelism(per_shard).capacity(spec.capacity.div_ceil(shards).max(1))
    }

    /// Build with one backend per shard from `make(shard_index)`.
    /// The service supports inserts and queries; `remove` reports
    /// [`FilterError::Unsupported`].
    pub fn build<B, F>(self, make: F) -> Result<ShardedFilter<B>, FilterError>
    where
        B: ServiceBackend + 'static,
        F: FnMut(usize) -> Result<B, FilterError>,
    {
        self.build_inner(make, None, None)
    }

    /// Build over a backend with bulk deletion, enabling `remove` and the
    /// delete batch operations.
    pub fn build_deletable<B, F>(self, make: F) -> Result<ShardedFilter<B>, FilterError>
    where
        B: ServiceBackend + filter_core::BulkDeletable + 'static,
        F: FnMut(usize) -> Result<B, FilterError>,
    {
        self.build_inner(make, Some(DeleteHooks::new()), None)
    }

    /// Build over a backend with the capacity lifecycle
    /// ([`MaintainableFilter`]): shard workers auto-grow under the
    /// builder's [`Self::growth`] policy, and the service supports live
    /// elastic resizing via [`ShardedFilter::set_shards`].
    pub fn build_maintainable<B, F>(self, make: F) -> Result<ShardedFilter<B>, FilterError>
    where
        B: ServiceBackend + MaintainableFilter + 'static,
        F: FnMut(usize) -> Result<B, FilterError>,
    {
        let hooks = MaintainHooks::for_policy(self.growth);
        self.build_inner(make, None, Some(hooks))
    }

    /// [`Self::build_maintainable`] plus bulk deletion.
    pub fn build_maintainable_deletable<B, F>(
        self,
        make: F,
    ) -> Result<ShardedFilter<B>, FilterError>
    where
        B: ServiceBackend + filter_core::BulkDeletable + MaintainableFilter + 'static,
        F: FnMut(usize) -> Result<B, FilterError>,
    {
        let hooks = MaintainHooks::for_policy(self.growth);
        self.build_inner(make, Some(DeleteHooks::new()), Some(hooks))
    }

    fn build_inner<B, F>(
        self,
        mut make: F,
        delete_fn: Option<DeleteHooks<B>>,
        maintain: Option<MaintainHooks<B>>,
    ) -> Result<ShardedFilter<B>, FilterError>
    where
        B: ServiceBackend + 'static,
        F: FnMut(usize) -> Result<B, FilterError>,
    {
        let shards = self.shards.max(1);
        let stats: Arc<StatsInner> = Arc::default();
        let linger_ns =
            Arc::new(AtomicU64::new(self.linger.as_nanos().min(u64::MAX as u128) as u64));
        let mut backends = Vec::with_capacity(shards);
        for i in 0..shards {
            backends.push(Arc::new(RwLock::new(make(i)?)));
        }
        let (senders, workers) =
            spawn_workers(&backends, &stats, &self, &linger_ns, delete_fn, maintain, 0)?;
        let router = self.make_router(shards);
        Ok(ShardedFilter {
            backends,
            ring: Arc::new(RwLock::new(RouteState { senders, router })),
            workers,
            cfg: self.clone(),
            stats,
            linger_ns,
            started: Instant::now(),
            delete_fn,
            maintain,
            worker_generation: 0,
        })
    }
}

/// One live shard fleet: a sender per worker plus the worker handles.
type ShardFleet = (Vec<SyncSender<Task>>, Vec<JoinHandle<()>>);

/// Spawn one worker thread per backend, returning the matching senders.
/// `generation` disambiguates thread names across scale-outs.
fn spawn_workers<B: ServiceBackend + 'static>(
    backends: &[Arc<RwLock<B>>],
    stats: &Arc<StatsInner>,
    cfg: &ShardedFilterBuilder,
    linger_ns: &Arc<AtomicU64>,
    delete_fn: Option<DeleteHooks<B>>,
    maintain: Option<MaintainHooks<B>>,
    generation: u64,
) -> Result<ShardFleet, FilterError> {
    let mut senders = Vec::with_capacity(backends.len());
    let mut workers = Vec::with_capacity(backends.len());
    for (i, backend) in backends.iter().enumerate() {
        let (tx, rx) = sync_channel::<Task>(cfg.queue_tasks);
        let worker = WorkerConfig {
            backend: Arc::clone(backend),
            rx,
            stats: Arc::clone(stats),
            capacity: cfg.batch_capacity,
            linger_ns: Arc::clone(linger_ns),
            delete_fn,
            maintain,
            coalesce: cfg.coalesce,
            cache: QueryCache::new(cfg.cache_entries),
        };
        let handle = std::thread::Builder::new()
            .name(format!("filter-shard-{i}.g{generation}"))
            .spawn(move || worker.run())
            .map_err(|e| FilterError::BadConfig(format!("spawn shard worker: {e}")))?;
        senders.push(tx);
        workers.push(handle);
    }
    Ok((senders, workers))
}

/// A sharded, batch-aggregating serving front-end over `N` independent
/// instances of a bulk filter backend. See the [module docs](self) for the
/// architecture and the [crate docs](crate) for a quickstart.
pub struct ShardedFilter<B: ServiceBackend + 'static> {
    backends: Vec<Arc<RwLock<B>>>,
    ring: Arc<RwLock<RouteState>>,
    workers: Vec<JoinHandle<()>>,
    cfg: ShardedFilterBuilder,
    stats: Arc<StatsInner>,
    linger_ns: Arc<AtomicU64>,
    started: Instant,
    delete_fn: Option<DeleteHooks<B>>,
    maintain: Option<MaintainHooks<B>>,
    worker_generation: u64,
}

impl<B: ServiceBackend + 'static> ShardedFilter<B> {
    /// A new submission handle (cheap; clone freely across threads).
    pub fn handle(&self) -> ServiceHandle {
        ServiceHandle {
            ring: Arc::clone(&self.ring),
            stats: Arc::clone(&self.stats),
            deletes: self.delete_fn.is_some(),
        }
    }

    fn route_state(&self) -> RwLockReadGuard<'_, RouteState> {
        self.ring.read().unwrap_or_else(|e| e.into_inner())
    }

    /// Snapshot of the service metrics.
    pub fn stats(&self) -> ServiceStats {
        let shards = self.route_state().router.shards();
        ServiceStats::snapshot(&self.stats, shards, self.started.elapsed())
    }

    /// An observe-and-tune handle (cheap; clone freely across threads):
    /// live stats, queue depth, and the batch linger, without naming the
    /// backend type. The adaptive network tier steers the service through
    /// this.
    pub fn control(&self) -> ServiceControl {
        ServiceControl {
            ring: Arc::clone(&self.ring),
            stats: Arc::clone(&self.stats),
            linger_ns: Arc::clone(&self.linger_ns),
            started: self.started,
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.route_state().router.shards()
    }

    /// The router currently mapping keys to shards (by value: resizes
    /// replace it).
    pub fn router(&self) -> RingRouter {
        self.route_state().router.clone()
    }

    /// Shared references to the per-shard backends. Lock a backend
    /// (read) for metadata access; the write side belongs to the
    /// maintenance paths.
    pub fn backends(&self) -> &[Arc<RwLock<B>>] {
        &self.backends
    }

    /// Total heap bytes across all shard tables.
    pub fn table_bytes(&self) -> usize {
        self.backends
            .iter()
            .map(|b| b.read().unwrap_or_else(|e| e.into_inner()).table_bytes())
            .sum()
    }

    /// Total capacity slots across all shards.
    pub fn capacity_slots(&self) -> u64 {
        self.backends
            .iter()
            .map(|b| b.read().unwrap_or_else(|e| e.into_inner()).capacity_slots())
            .sum()
    }

    /// Live elastic resize: move the fleet to `new_shards` — more
    /// (scale-out) or fewer (scale-in) — migrating contents by merging so
    /// no acknowledged key loses its membership answer. *Any* resize
    /// sequence is valid (4 → 6 → 3 → 8 …).
    ///
    /// `make(shard_index)` builds the new backends (size them with
    /// [`ShardedFilterBuilder::shard_spec`] over the *new* shard count,
    /// or reuse the original per-shard spec — each new shard must be able
    /// to absorb the live contents it inherits, growing under the
    /// maintain hooks when a merge reports [`FilterError::NeedsGrowth`]).
    ///
    /// Correctness under concurrent traffic: intake pauses (handles block
    /// on the shared routing state) while the old workers drain and stop,
    /// so no enqueued operation is lost and blocking callers are answered
    /// before migration begins. [`RingRouter::inheritors`] then names,
    /// for every new shard, exactly the old backends whose key-space arcs
    /// it takes over — on a scale-out mostly its own predecessor, on a
    /// scale-in additionally the decommissioned shards' arcs, which the
    /// ring hands to their clockwise successors — and each new backend
    /// merge-absorbs those sources before the new fleet goes live. On a
    /// migration error the old fleet is restored intact (merges only
    /// write into the new backends; survivors that already absorbed a
    /// source can only over-approximate, never lose a key).
    ///
    /// Cost model — what merge-based migration buys and what it does not:
    /// filters store fingerprints, not keys, so a source's contents
    /// cannot be *partitioned* by router arc; an inheritor absorbs each
    /// source's **full** contents instead. The service-wide
    /// false-positive rate is unchanged at the moment of the resize (no
    /// fingerprint is dropped), and out-of-range fingerprints an
    /// inheritor picks up are inert but undeletable (deletes for those
    /// keys route to the owning shard). What the resize buys is the ring
    /// economics *forward*: every new key lands in exactly one shard, an
    /// `n → n ± k` resize re-routes only ~`k/n` of the key space
    /// (ledgered in [`ServiceStats::keys_moved`](crate::ServiceStats) as
    /// `moved-fraction × estimated live items`), and a scale-in actually
    /// retires worker threads and their queues. A deployment that needs
    /// stale fingerprints reclaimed rebuilds shards from its source of
    /// truth (out of scope here).
    ///
    /// Requires a service built with
    /// [`ShardedFilterBuilder::build_maintainable`] /
    /// [`build_maintainable_deletable`](ShardedFilterBuilder::build_maintainable_deletable)
    /// (the merge hook does the migration).
    pub fn set_shards<F>(&mut self, new_shards: usize, mut make: F) -> Result<(), FilterError>
    where
        F: FnMut(usize) -> Result<B, FilterError>,
    {
        let Some(hooks) = self.maintain else {
            return FilterError::unsupported("live resize needs a maintainable backend");
        };
        let old_shards = self.backends.len();
        if new_shards == old_shards {
            return Ok(());
        }
        if new_shards == 0 {
            return Err(FilterError::BadConfig(
                "set_shards: shard count must be positive".to_string(),
            ));
        }
        let grow_factor = hooks.auto.map(|(_, f)| f).unwrap_or(2);

        // Build the new fleet and router before pausing intake.
        let mut new_backends = Vec::with_capacity(new_shards);
        for j in 0..new_shards {
            new_backends.push(Arc::new(RwLock::new(make(j)?)));
        }
        let new_router = self.cfg.make_router(new_shards);

        // Pause intake: handles block acquiring the read side; workers
        // never take this lock, so their queues keep draining. (The Arc
        // is cloned so the guard does not pin `self`.)
        let ring = Arc::clone(&self.ring);
        let mut rs = ring.write().unwrap_or_else(|e| e.into_inner());

        // Stop the old workers. `Task::Stop` flushes everything buffered
        // first, so every already-enqueued operation completes (blocking
        // callers get their acks) before migration starts.
        for tx in rs.senders.drain(..) {
            let _ = tx.send(Task::Stop);
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        self.worker_generation += 1;

        // What moves: each new shard's inheritor set (the old backends
        // whose arcs it takes over), plus the movement estimate for the
        // ledger — measured routing churn on a deterministic key probe,
        // scaled by the old fleet's estimated live item count.
        let inherit = RingRouter::inheritors(&rs.router, &new_router);
        let moved_fraction = rs.router.moved_fraction(&new_router, MOVE_PROBE_KEYS);
        let est_items: f64 = self
            .backends
            .iter()
            .map(|b| {
                let b = b.read().unwrap_or_else(|e| e.into_inner());
                (hooks.load)(&b) * b.capacity_slots() as f64
            })
            .sum();

        // Merge-migrate every inheritor set into its (fresh) new backend.
        // On an unrecoverable error, restore the old fleet (its backends
        // are untouched — merges only write into the new ones).
        let migrate = || -> Result<(), FilterError> {
            for (j, child) in new_backends.iter().enumerate() {
                for &src in &inherit[j] {
                    let parent = self.backends[src].read().unwrap_or_else(|e| e.into_inner());
                    let mut child_b = child.write().unwrap_or_else(|e| e.into_inner());
                    let mut grows = 0;
                    loop {
                        match (hooks.merge)(&mut child_b, &parent) {
                            Ok(()) => break,
                            Err(FilterError::NeedsGrowth { .. }) if grows < MAX_GROWS_PER_FLUSH => {
                                (hooks.grow)(&mut child_b, grow_factor)?;
                                grows += 1;
                                self.stats.grow_events.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(e) => return Err(e),
                        }
                    }
                    self.stats.migration_events.fetch_add(1, Ordering::Relaxed);
                }
            }
            Ok(())
        };
        if let Err(e) = migrate() {
            let (senders, workers) = spawn_workers(
                &self.backends,
                &self.stats,
                &self.cfg,
                &self.linger_ns,
                self.delete_fn,
                self.maintain,
                self.worker_generation,
            )?;
            rs.senders = senders;
            self.workers = workers;
            return Err(e);
        }

        // Install the new fleet and resume intake.
        let (senders, workers) = spawn_workers(
            &new_backends,
            &self.stats,
            &self.cfg,
            &self.linger_ns,
            self.delete_fn,
            self.maintain,
            self.worker_generation,
        )?;
        self.backends = new_backends;
        rs.senders = senders;
        rs.router = new_router;
        self.workers = workers;
        if new_shards > old_shards {
            self.stats.scale_outs.fetch_add(1, Ordering::Relaxed);
        } else {
            self.stats.scale_ins.fetch_add(1, Ordering::Relaxed);
        }
        self.stats
            .keys_moved
            .fetch_add((moved_fraction * est_items).round() as u64, Ordering::Relaxed);
        Ok(())
    }

    /// Stop accepting work, flush every shard, join the workers, and hand
    /// back the backends (e.g. to persist or merge them). Outstanding
    /// handles observe [`FilterError::ServiceStopped`] afterwards; their
    /// in-flight blocking calls complete or abort, never hang.
    pub fn shutdown(mut self) -> Vec<Arc<RwLock<B>>> {
        self.stop_workers();
        std::mem::take(&mut self.backends)
    }

    fn stop_workers(&mut self) {
        let ring = Arc::clone(&self.ring);
        let mut rs = ring.write().unwrap_or_else(|e| e.into_inner());
        for tx in rs.senders.drain(..) {
            // A full queue blocks until the worker drains it; a worker that
            // already exited surfaces as a send error, which is fine.
            let _ = tx.send(Task::Stop);
        }
        drop(rs);
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl<B: ServiceBackend + 'static> Drop for ShardedFilter<B> {
    fn drop(&mut self) {
        self.stop_workers();
    }
}

#[cfg(test)]
mod async_tests {
    use super::*;
    use filter_core::OpKind;
    use std::sync::mpsc;
    use tcf::BulkTcf;

    fn service() -> ShardedFilter<BulkTcf> {
        ShardedFilterBuilder::new()
            .shards(2)
            .batch_capacity(256)
            .linger(Duration::from_micros(100))
            .build_deletable(|_| BulkTcf::new(1 << 13))
            .unwrap()
    }

    #[test]
    fn submit_batch_fires_callback_with_per_key_results() {
        let svc = service();
        let h = svc.handle();
        let keys: Vec<u64> = filter_core::hashed_keys(9, 500);
        let (tx, rx) = mpsc::channel();
        let tx2 = tx.clone();
        h.submit_batch(OpKind::Insert, &keys, move |r| tx2.send(r).unwrap()).unwrap();
        let r = rx.recv_timeout(Duration::from_secs(10)).unwrap();
        assert_eq!(r.aborted, 0);
        assert!(r.results.iter().all(|&ok| ok), "all inserts must land");

        // Queries answer in submission order: present then absent.
        let mut probe = keys[..100].to_vec();
        probe.extend(filter_core::hashed_keys(10, 100));
        h.submit_batch(OpKind::Query, &probe, move |r| tx.send(r).unwrap()).unwrap();
        let r = rx.recv_timeout(Duration::from_secs(10)).unwrap();
        assert_eq!(r.aborted, 0);
        assert!(r.results[..100].iter().all(|&hit| hit), "inserted keys must hit");
        let fp = r.results[100..].iter().filter(|&&hit| hit).count();
        assert!(fp < 20, "absent keys mostly miss, got {fp} hits");

        // The ledger saw the async traffic and recorded its latency.
        let stats = svc.stats();
        assert_eq!(stats.inserts, 500);
        assert_eq!(stats.queries, 200);
        assert!(stats.latency.count >= 700, "latency samples: {}", stats.latency.count);
        assert!(stats.latency.p999 >= stats.latency.p50);
    }

    #[test]
    fn submit_batch_refuses_non_data_ops_and_unsupported_deletes() {
        let svc = ShardedFilterBuilder::new().shards(1).build(|_| BulkTcf::new(1 << 10)).unwrap();
        let h = svc.handle();
        let fired = Arc::new(std::sync::atomic::AtomicBool::new(false));
        for op in [OpKind::Ping, OpKind::Shutdown, OpKind::Delete] {
            let f = Arc::clone(&fired);
            let err = h.submit_batch(op, &[1, 2], move |_| {
                f.store(true, Ordering::Relaxed);
            });
            assert!(err.is_err(), "{op:?} must be refused on this service");
        }
        assert!(!fired.load(Ordering::Relaxed), "refused submissions must not call back");
        // Empty batches complete synchronously.
        let f = Arc::clone(&fired);
        h.submit_batch(OpKind::Insert, &[], move |r| {
            assert_eq!(r.results.len(), 0);
            f.store(true, Ordering::Relaxed);
        })
        .unwrap();
        assert!(fired.load(Ordering::Relaxed));
    }

    #[test]
    fn submit_batch_after_shutdown_reports_aborts_not_silence() {
        let svc = service();
        let h = svc.handle();
        drop(svc.shutdown());
        let (tx, rx) = mpsc::channel();
        h.submit_batch(OpKind::Insert, &[1, 2, 3], move |r| tx.send(r).unwrap()).unwrap();
        let r = rx.recv_timeout(Duration::from_secs(10)).unwrap();
        assert_eq!(r.aborted, 3, "stopped service must abort every slot");
        assert!(r.results.iter().all(|&ok| !ok));
    }

    #[test]
    fn skew_fast_path_counts_and_epoch_invalidation_tracks_mutations() {
        let svc = ShardedFilterBuilder::new()
            .shards(1)
            .batch_capacity(512)
            .linger(Duration::from_micros(100))
            .query_cache(1 << 12)
            .build_deletable(|_| BulkTcf::new(1 << 13))
            .unwrap();
        let h = svc.handle();
        let keys: Vec<u64> = filter_core::hashed_keys(21, 64);
        h.insert_batch(&keys).unwrap();

        // A duplicate-heavy probe: every key four times, well inside one
        // flush (a single Task::Many under the batch capacity).
        let mut probe = Vec::new();
        for _ in 0..4 {
            probe.extend_from_slice(&keys);
        }
        let first = h.query_batch(&probe).unwrap();
        assert!(first.iter().all(|&hit| hit), "inserted keys must hit");
        // No mutation in between: the repeat probe is served by the cache.
        let again = h.query_batch(&probe).unwrap();
        assert_eq!(first, again);

        let s = svc.stats();
        assert!(s.coalesced_keys >= 3 * 64, "coalescer removed {} dups", s.coalesced_keys);
        assert!(s.cache_hits >= 64, "repeat probe must hit the cache, got {}", s.cache_hits);
        assert!(s.cache_invalidations >= 1, "the insert flush must bump the epoch");
        assert!(s.distinct_ratio_hist.total() >= 1, "coalesced flushes record their ratio");
        assert_eq!(s.query_hits, 2 * probe.len() as u64, "per-slot hit accounting is unchanged");

        // Empty the filter: the delete flush bumps the epoch, so the
        // cached "present" verdicts cannot leak through — and an emptied
        // TCF answers definite misses.
        let not_present = h.delete_batch(&keys).unwrap();
        assert_eq!(not_present, 0, "every inserted key must be removed");
        let after = h.query_batch(&probe).unwrap();
        assert!(after.iter().all(|&hit| !hit), "stale verdicts must die with the epoch");
        assert!(svc.stats().cache_invalidations > s.cache_invalidations);
    }

    #[test]
    fn control_observes_and_retunes_the_live_service() {
        let svc = service();
        let ctl = svc.control();
        assert_eq!(ctl.shards(), 2);
        assert_eq!(ctl.linger(), Duration::from_micros(100));
        ctl.set_linger(Duration::from_millis(2));
        assert_eq!(ctl.linger(), Duration::from_millis(2));

        let h = svc.handle();
        h.insert_batch(&filter_core::hashed_keys(11, 300)).unwrap();
        assert_eq!(ctl.ops_accepted(), 300);
        assert_eq!(ctl.queue_depth(), 0, "blocking batch drains before returning");
        let stats = ctl.stats();
        assert_eq!(stats.inserts, 300);
        assert!(stats.latency.count >= 300);
        // The control handle outlives a clone and shares the same knob.
        let ctl2 = ctl.clone();
        ctl2.set_linger(Duration::from_micros(50));
        assert_eq!(ctl.linger(), Duration::from_micros(50));
    }
}

#[cfg(test)]
mod builder_tests {
    use super::*;

    #[test]
    fn shard_spec_divides_capacity_and_thread_budget() {
        let spec = FilterSpec::items(1_000_000).fp_rate(1e-3);
        let b = ShardedFilterBuilder::new().shards(4).parallelism(Parallelism::Threads(8));
        let per = b.shard_spec(&spec);
        assert_eq!(per.capacity, 250_000);
        assert_eq!(per.parallelism, Parallelism::Threads(2));
        assert_eq!(per.fp_rate, spec.fp_rate, "other knobs pass through");

        // Budgets smaller than the shard count clamp to one worker each.
        let b = ShardedFilterBuilder::new().shards(8).parallelism(Parallelism::Threads(3));
        assert_eq!(b.shard_spec(&spec).parallelism, Parallelism::Threads(1));

        // Sequential and Auto pass through unchanged.
        let b = ShardedFilterBuilder::new().shards(4).parallelism(Parallelism::Sequential);
        assert_eq!(b.shard_spec(&spec).parallelism, Parallelism::Sequential);
        let b = ShardedFilterBuilder::new().shards(4);
        assert_eq!(b.shard_spec(&spec).parallelism, Parallelism::Auto);
    }

    #[test]
    fn skew_knobs_default_and_toggle() {
        let b = ShardedFilterBuilder::new();
        assert!(b.coalesce, "coalescing defaults on");
        assert_eq!(b.cache_entries, 0, "cache defaults off");
        let b = b.coalesce_queries(false).query_cache(512);
        assert!(!b.coalesce);
        assert_eq!(b.cache_entries, 512);
    }
}
