//! Shard workers: drain a shard's queue into a pending buffer and flush
//! maximal same-kind runs through the backend's bulk API, answering each
//! request's [`Claim`] once per run.

use crate::cache::QueryCache;
use crate::completion::Claim;
use crate::stats::StatsInner;
use filter_core::{
    DeleteOutcome, FilterError, GrowthPolicy, InsertOutcome, MaintainableFilter, ServiceBackend,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::sync::{Arc, RwLock, RwLockReadGuard};
use std::time::{Duration, Instant};

/// Grow events one flush (or one scale-out merge) may trigger — the
/// runaway-policy backstop shared with the facade-side
/// [`filter_core::GrowingFilter`] loop.
pub(crate) const MAX_GROWS_PER_FLUSH: u32 = filter_core::growth::MAX_GROWS_PER_OP;

/// Operation classes inside a shard buffer; maximal same-kind runs become
/// one backend bulk call each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kind {
    Insert,
    Query,
    Delete,
}

/// One request's keys routed to one shard, stamped with the submission
/// time so the flushing worker can record end-to-end service latency.
/// `claim` is `None` for pipelined (fire-and-forget) requests.
pub(crate) struct ShardOps {
    pub(crate) kind: Kind,
    pub(crate) keys: Vec<u64>,
    pub(crate) at: Instant,
    pub(crate) claim: Option<Claim>,
}

/// What flows through a shard's queue.
pub(crate) enum Task {
    /// One request's share of keys (kept in submission order).
    Ops(ShardOps),
    /// Flush everything buffered, then answer the claim.
    Barrier(Claim),
    /// Flush, answer nothing more, and exit the worker.
    Stop,
}

impl Task {
    pub(crate) fn ops(&self) -> u64 {
        match self {
            Task::Ops(o) => o.keys.len() as u64,
            Task::Barrier(_) => 1,
            // Stop never passes through a handle's `send`, so it is never
            // counted as enqueued; counting it dequeued would underflow
            // the queue-depth gauge.
            Task::Stop => 0,
        }
    }
}

/// Signature of the per-key delete report hook.
type DeleteReportFn<B> = fn(&B, &[u64], &mut [DeleteOutcome]) -> Result<(), FilterError>;

/// Per-backend bulk-delete hooks, captured at build time so delete
/// support is a monomorphized capability rather than a trait-object
/// downcast. The report hook (`out[i]` answers `keys[i]`) serves waiting
/// callers — their answers come from the delete itself, no pre-query
/// round trip — while the aggregate hook keeps claim-free pipelined
/// flushes on the cheaper plain-sort path.
pub(crate) struct DeleteHooks<B> {
    report: DeleteReportFn<B>,
    aggregate: fn(&B, &[u64]) -> Result<usize, FilterError>,
}

// Manual impls: the fields are plain fn pointers, so the hooks are Copy
// for every `B` (a derive would demand `B: Copy`).
impl<B> Clone for DeleteHooks<B> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<B> Copy for DeleteHooks<B> {}

impl<B: ServiceBackend + filter_core::BulkDeletable> DeleteHooks<B> {
    pub(crate) fn new() -> Self {
        DeleteHooks {
            report: |b: &B, keys, out| b.bulk_delete_report(keys, out),
            aggregate: |b: &B, keys| b.bulk_delete(keys),
        }
    }
}

/// Per-backend capacity-lifecycle hooks, captured at build time like
/// [`DeleteHooks`] so maintenance is a monomorphized capability. `auto`
/// carries the [`GrowthPolicy::Auto`] parameters when shard workers
/// should grow their backend on load/failure; the grow/merge hooks also
/// serve [`ShardedFilter::set_shards`](crate::ShardedFilter::set_shards)
/// regardless of policy.
pub(crate) struct MaintainHooks<B> {
    pub(crate) load: fn(&B) -> f64,
    pub(crate) grow: fn(&mut B, u32) -> Result<(), FilterError>,
    pub(crate) merge: fn(&mut B, &B) -> Result<(), FilterError>,
    /// `Some((max_load, factor))` when workers auto-grow.
    pub(crate) auto: Option<(f64, u32)>,
}

impl<B> Clone for MaintainHooks<B> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<B> Copy for MaintainHooks<B> {}

impl<B: MaintainableFilter> MaintainHooks<B> {
    pub(crate) fn for_policy(growth: GrowthPolicy) -> Self {
        MaintainHooks {
            load: |b| b.load(),
            grow: |b, factor| b.grow(factor),
            merge: |b, other| b.merge(other),
            auto: match growth {
                GrowthPolicy::Fixed => None,
                GrowthPolicy::Auto { max_load, factor } => Some((max_load, factor)),
            },
        }
    }
}

/// Per-shard worker: drains the queue, buffers, flushes. The backend
/// sits behind a `RwLock`: flushes hold the read side (the worker is the
/// only operation path), and the write side serves in-place growth —
/// from this worker's own auto-grow or from a scale-out migration, which
/// only runs after the worker has been stopped.
pub(crate) struct WorkerConfig<B: ServiceBackend> {
    pub(crate) backend: Arc<RwLock<B>>,
    pub(crate) rx: Receiver<Task>,
    pub(crate) stats: Arc<StatsInner>,
    pub(crate) capacity: usize,
    /// Linger in nanoseconds, shared with
    /// [`ServiceControl`](crate::ServiceControl) so an external controller
    /// (the adaptive network tier) can retune it live; read when a
    /// deadline is armed.
    pub(crate) linger_ns: Arc<AtomicU64>,
    pub(crate) delete_fn: Option<DeleteHooks<B>>,
    pub(crate) maintain: Option<MaintainHooks<B>>,
    /// Sort-dedup query runs before probing (see
    /// [`ShardedFilterBuilder::coalesce_queries`](crate::ShardedFilterBuilder::coalesce_queries)).
    pub(crate) coalesce: bool,
    /// Hot-key verdict cache, when armed (fresh per worker generation, so
    /// a resize never carries verdicts across migrated backends).
    pub(crate) cache: Option<QueryCache>,
}

/// Per-worker scratch reused across flushes so a steady-state worker
/// allocates nothing per batch: the current same-kind run, its key
/// column, and the query-path working vectors.
#[derive(Default)]
struct FlushScratch {
    run: Vec<ShardOps>,
    keys: Vec<u64>,
    q: QueryScratch,
}

/// Query-flush working set: `(key, slot)` pairs for the sort-dedup, the
/// distinct key column with its verdicts, cache-miss positions, and the
/// fanned-out per-slot verdicts.
#[derive(Default)]
struct QueryScratch {
    pairs: Vec<(u64, u32)>,
    distinct: Vec<u64>,
    dverdict: Vec<bool>,
    miss_pos: Vec<u32>,
    miss_keys: Vec<u64>,
    verdicts: Vec<bool>,
}

impl<B: ServiceBackend> WorkerConfig<B> {
    fn backend(&self) -> RwLockReadGuard<'_, B> {
        self.backend.read().unwrap_or_else(|e| e.into_inner())
    }

    fn linger(&self) -> Duration {
        Duration::from_nanos(self.linger_ns.load(Ordering::Relaxed))
    }

    /// Auto-grow loop after an insert flush: while keys failed or the
    /// load sits past the policy threshold, grow the backend and retry
    /// exactly the failed keys, rewriting their outcomes. Returns the
    /// final failure count (0 unless growth is exhausted or refused).
    /// This is the monomorphized, ledger-recording sibling of
    /// `filter_core::GrowingFilter::settle_inserts` (which serves the
    /// boxed facade and reports `NeedsGrowth` instead of counting);
    /// changes to either loop's semantics belong in both.
    fn settle_inserts(&self, keys: &[u64], outcomes: &mut [InsertOutcome]) -> usize {
        let Some(hooks) = self.maintain else {
            return outcomes.iter().filter(|o| o.failed()).count();
        };
        let Some((max_load, factor)) = hooks.auto else {
            return outcomes.iter().filter(|o| o.failed()).count();
        };
        for _ in 0..MAX_GROWS_PER_FLUSH {
            let failed: Vec<usize> =
                (0..outcomes.len()).filter(|&i| outcomes[i].failed()).collect();
            let over = (hooks.load)(&self.backend()) >= max_load;
            if failed.is_empty() && !over {
                return 0;
            }
            {
                let mut b = self.backend.write().unwrap_or_else(|e| e.into_inner());
                if (hooks.grow)(&mut b, factor).is_err() {
                    return failed.len();
                }
            }
            self.stats.grow_events.fetch_add(1, Ordering::Relaxed);
            if !failed.is_empty() {
                let retry_keys: Vec<u64> = failed.iter().map(|&i| keys[i]).collect();
                let mut retry_out = vec![InsertOutcome::Inserted; retry_keys.len()];
                if self.backend().bulk_insert_report(&retry_keys, &mut retry_out).is_err() {
                    return failed.len();
                }
                let recovered = retry_out.iter().filter(|o| o.inserted()).count() as u64;
                self.stats.regrown_keys.fetch_add(recovered, Ordering::Relaxed);
                for (slot, outcome) in failed.into_iter().zip(retry_out) {
                    outcomes[slot] = outcome;
                }
            }
        }
        outcomes.iter().filter(|o| o.failed()).count()
    }

    pub(crate) fn run(self) {
        let mut pending: Vec<ShardOps> = Vec::new();
        let mut pending_keys = 0;
        let mut scratch = FlushScratch::default();
        let mut deadline: Option<Instant> = None;
        loop {
            let task = if pending.is_empty() {
                match self.rx.recv() {
                    Ok(t) => t,
                    Err(_) => break,
                }
            } else {
                let dl = deadline.unwrap_or_else(Instant::now);
                match self.rx.recv_timeout(dl.saturating_duration_since(Instant::now())) {
                    Ok(t) => t,
                    Err(RecvTimeoutError::Timeout) => {
                        self.flush(&mut pending, &mut pending_keys, &mut scratch);
                        deadline = None;
                        continue;
                    }
                    Err(RecvTimeoutError::Disconnected) => break,
                }
            };
            self.stats.dequeued(task.ops());
            match task {
                Task::Ops(ops) => {
                    pending_keys += ops.keys.len();
                    pending.push(ops);
                }
                Task::Barrier(claim) => {
                    self.flush(&mut pending, &mut pending_keys, &mut scratch);
                    deadline = None;
                    claim.fulfil([true]);
                    continue;
                }
                Task::Stop => break,
            }
            // Flush on a full buffer or an expired linger deadline. The
            // deadline must be re-checked here, not only on recv timeout:
            // under a sustained arrival stream recv_timeout keeps
            // returning Ok and would otherwise starve the deadline until
            // the buffer fills, unboundedly delaying blocking callers.
            if pending_keys >= self.capacity || deadline.is_some_and(|d| Instant::now() >= d) {
                self.flush(&mut pending, &mut pending_keys, &mut scratch);
                deadline = None;
            } else if deadline.is_none() {
                deadline = Some(Instant::now() + self.linger());
            }
        }
        self.flush(&mut pending, &mut pending_keys, &mut scratch);
    }

    /// Apply the buffer in arrival order: each maximal run of same-kind
    /// requests becomes one backend bulk call. Same-kind runs dominate
    /// real streams, and honoring arrival order keeps per-key semantics
    /// sequential (a key always lands on one shard).
    fn flush(
        &self,
        pending: &mut Vec<ShardOps>,
        pending_keys: &mut usize,
        scratch: &mut FlushScratch,
    ) {
        *pending_keys = 0;
        let FlushScratch { run, keys, q } = scratch;
        let mut iter = pending.drain(..).peekable();
        while let Some(first) = iter.next() {
            let kind = first.kind;
            run.push(first);
            while let Some(next) = iter.next_if(|o| o.kind == kind) {
                run.push(next);
            }
            keys.clear();
            for o in run.iter() {
                keys.extend_from_slice(&o.keys);
            }
            // Mutation runs advance the cache epoch *before* any later
            // query run in this same flush resolves, so a verdict cached
            // under the pre-mutation backend can never answer a query
            // sequenced after the mutation. The bump also precedes the
            // run's answers: a caller that sees its mutation acknowledged
            // sees the invalidation in the stats too. (Only this worker
            // touches the cache, so nothing can refill it in between.)
            match kind {
                Kind::Insert => {
                    self.invalidate_cache();
                    self.flush_inserts(keys, run);
                }
                Kind::Query => self.flush_queries(keys, run, q),
                Kind::Delete => {
                    self.invalidate_cache();
                    self.flush_deletes(keys, run);
                }
            }
        }
    }

    /// Bump the hot-key cache's mutation epoch (when one is armed) after
    /// an insert or delete run touched the backend.
    fn invalidate_cache(&self) {
        if let Some(cache) = &self.cache {
            cache.invalidate();
            self.stats.cache_invalidations.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Drain `run`, recording each key's end-to-end latency and answering
    /// each request's claim from `answers` (one per key, in run order) —
    /// one lock acquisition per request.
    fn answer(&self, run: &mut Vec<ShardOps>, answers: impl IntoIterator<Item = bool>) {
        let mut answers = answers.into_iter();
        for ops in run.drain(..) {
            self.stats.latency.record(ops.at.elapsed(), ops.keys.len() as u64);
            let mine = answers.by_ref().take(ops.keys.len());
            match ops.claim {
                Some(claim) => claim.fulfil(mine),
                None => mine.for_each(drop),
            }
        }
    }

    /// Whether any request in the run waits for per-key answers.
    fn wants_answers(run: &[ShardOps]) -> bool {
        run.iter().any(|o| o.claim.is_some())
    }

    fn flush_inserts(&self, keys: &[u64], run: &mut Vec<ShardOps>) {
        // Fully pipelined runs need only the aggregate failure count —
        // unless an auto-growth policy is armed, in which case the
        // per-key report drives the grow-and-retry loop even for them.
        let auto_growth = self.maintain.is_some_and(|m| m.auto.is_some());
        if !Self::wants_answers(run) && !auto_growth {
            let t0 = Instant::now();
            let failed = self.backend().bulk_insert(keys).unwrap_or(keys.len());
            self.stats.record_flush(keys.len(), t0.elapsed());
            if failed > 0 {
                self.stats.insert_failures.fetch_add(failed as u64, Ordering::Relaxed);
            }
            self.answer(run, std::iter::repeat(false));
            return;
        }
        // Per-key outcomes come straight from the backend's report API, so
        // individual failures are attributed exactly — and, under an Auto
        // policy, retried across grows until they land. A backend error
        // fails the whole run.
        let mut outcomes = vec![InsertOutcome::Inserted; keys.len()];
        let t0 = Instant::now();
        // Bind the result so the read guard drops before `settle_inserts`
        // takes the write side to grow.
        let result = self.backend().bulk_insert_report(keys, &mut outcomes);
        let failed = match result {
            Ok(()) => self.settle_inserts(keys, &mut outcomes),
            Err(_) => {
                outcomes.fill(InsertOutcome::Failed);
                keys.len()
            }
        };
        self.stats.record_flush(keys.len(), t0.elapsed());
        if failed > 0 {
            self.stats.insert_failures.fetch_add(failed as u64, Ordering::Relaxed);
        }
        self.answer(run, outcomes.iter().map(|o| o.inserted()));
    }

    fn flush_queries(&self, keys: &[u64], run: &mut Vec<ShardOps>, q: &mut QueryScratch) {
        let t0 = Instant::now();
        if !self.coalesce && self.cache.is_none() {
            // Baseline: one bulk probe over the run exactly as it arrived.
            q.verdicts = self.backend().bulk_query_vec(keys);
        } else {
            // Fast path: resolve a verdict per slot through the sort-dedup
            // coalescer and/or the hot-key cache. Queries are pure, and
            // every cached verdict carries the current mutation epoch, so
            // the per-slot answers (and hence the observable fp set) are
            // bit-identical to the baseline probe.
            q.verdicts.clear();
            q.verdicts.resize(keys.len(), false);
            if self.coalesce {
                self.coalesced_verdicts(keys, q);
            } else {
                self.cached_verdicts(keys, q);
            }
        }
        self.stats.record_flush(keys.len(), t0.elapsed());
        let n_hits = q.verdicts.iter().filter(|&&h| h).count() as u64;
        self.stats.query_hits.fetch_add(n_hits, Ordering::Relaxed);
        self.answer(run, q.verdicts.iter().copied());
    }

    /// Sort-dedup the run's keys (the CPU-side sibling of the bulk
    /// pipeline's partition/sort phases), resolve each distinct key once,
    /// and fan the verdicts back to the original slots.
    fn coalesced_verdicts(&self, keys: &[u64], q: &mut QueryScratch) {
        q.pairs.clear();
        q.pairs.extend(keys.iter().enumerate().map(|(slot, &k)| (k, slot as u32)));
        q.pairs.sort_unstable();
        q.distinct.clear();
        let mut i = 0;
        while i < q.pairs.len() {
            let k = q.pairs[i].0;
            q.distinct.push(k);
            while i < q.pairs.len() && q.pairs[i].0 == k {
                i += 1;
            }
        }
        let dups = (keys.len() - q.distinct.len()) as u64;
        if dups > 0 {
            self.stats.coalesced_keys.fetch_add(dups, Ordering::Relaxed);
        }
        self.stats.record_distinct_ratio(q.distinct.len(), keys.len());
        self.probe_distinct(q);
        let (mut i, mut di) = (0, 0);
        while i < q.pairs.len() {
            let k = q.pairs[i].0;
            let v = q.dverdict[di];
            while i < q.pairs.len() && q.pairs[i].0 == k {
                q.verdicts[q.pairs[i].1 as usize] = v;
                i += 1;
            }
            di += 1;
        }
    }

    /// Resolve `q.distinct` into `q.dverdict`: consult the hot-key cache
    /// first (when armed), then settle the misses with one backend bulk
    /// probe and feed the fresh verdicts back into the cache.
    fn probe_distinct(&self, q: &mut QueryScratch) {
        let QueryScratch { distinct, dverdict, miss_pos, miss_keys, .. } = q;
        dverdict.clear();
        dverdict.resize(distinct.len(), false);
        let Some(cache) = &self.cache else {
            let hits = self.backend().bulk_query_vec(distinct);
            dverdict.copy_from_slice(&hits);
            return;
        };
        let hits = cache.lookup_batch(distinct, dverdict, miss_pos, miss_keys);
        self.stats.cache_hits.fetch_add(hits, Ordering::Relaxed);
        self.stats.cache_misses.fetch_add(miss_keys.len() as u64, Ordering::Relaxed);
        if miss_keys.is_empty() {
            return;
        }
        let probed = self.backend().bulk_query_vec(miss_keys);
        for (&pos, &hit) in miss_pos.iter().zip(&probed) {
            dverdict[pos as usize] = hit;
        }
        cache.store_batch(miss_keys, &probed);
    }

    /// Cache-only fast path (coalescing off): resolve the run in arrival
    /// order, probing cache misses — duplicates included — in one bulk
    /// call.
    fn cached_verdicts(&self, keys: &[u64], q: &mut QueryScratch) {
        let cache = self.cache.as_ref().expect("cached_verdicts requires an armed cache");
        let QueryScratch { verdicts, miss_pos, miss_keys, .. } = q;
        let hits = cache.lookup_batch(keys, verdicts, miss_pos, miss_keys);
        self.stats.cache_hits.fetch_add(hits, Ordering::Relaxed);
        self.stats.cache_misses.fetch_add(miss_keys.len() as u64, Ordering::Relaxed);
        if miss_keys.is_empty() {
            return;
        }
        let probed = self.backend().bulk_query_vec(miss_keys);
        for (&pos, &hit) in miss_pos.iter().zip(&probed) {
            verdicts[pos as usize] = hit;
        }
        cache.store_batch(miss_keys, &probed);
    }

    fn flush_deletes(&self, keys: &[u64], run: &mut Vec<ShardOps>) {
        let Some(hooks) = self.delete_fn else {
            // Unreachable through the public API (handles refuse deletes on
            // a non-deletable service); dropping the claims aborts waiters.
            run.clear();
            return;
        };
        let t0 = Instant::now();
        // Fully pipelined runs read no per-key answers; keep them on the
        // cheaper aggregate path.
        if !Self::wants_answers(run) {
            if (hooks.aggregate)(&self.backend(), keys).is_err() {
                self.stats.delete_failures.fetch_add(keys.len() as u64, Ordering::Relaxed);
            }
            self.stats.record_flush(keys.len(), t0.elapsed());
            self.answer(run, std::iter::repeat(false));
            return;
        }
        // The backend's per-key delete outcomes answer each waiting
        // caller directly. If the backend refuses the whole batch, nothing
        // was removed: report "not removed" and account the failure.
        let mut outcomes = vec![DeleteOutcome::NotFound; keys.len()];
        if (hooks.report)(&self.backend(), keys, &mut outcomes).is_err() {
            outcomes.fill(DeleteOutcome::NotFound);
            self.stats.delete_failures.fetch_add(keys.len() as u64, Ordering::Relaxed);
        }
        self.stats.record_flush(keys.len(), t0.elapsed());
        self.answer(run, outcomes.iter().map(|o| o.removed()));
    }
}
