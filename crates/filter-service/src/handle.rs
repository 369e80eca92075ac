//! The handles callers hold: [`ServiceHandle`] submits traffic and
//! [`ServiceControl`] observes and tunes the live service.
//!
//! Every submission takes the same path: route and partition the keys
//! over the live shards, send each shard its share as one request, and —
//! for the calls that answer — hand each share a claim on one
//! [`Completion`]. Blocking calls then park on it; `submit_batch` gives it
//! a callback instead; pipelined calls send no claim at all.

use crate::completion::{BatchReport, Completion};
use crate::router::RingRouter;
use crate::stats::{ServiceStats, StatsInner};
use crate::worker::{Kind, ShardOps, Task};
use filter_core::{FilterError, OpKind};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::SyncSender;
use std::sync::{Arc, RwLock, RwLockReadGuard};
use std::time::{Duration, Instant};

/// The handle-visible routing state: one sender per live shard plus the
/// router that addresses them. Swapped atomically (behind one `RwLock`,
/// the `ring` field on every owner) by
/// [`ShardedFilter::set_shards`](crate::ShardedFilter::set_shards), so
/// every handle — blocking or pipelined, cloned before or after a
/// resize — always routes against a consistent (senders, router) pair.
pub(crate) struct RouteState {
    pub(crate) senders: Vec<SyncSender<Task>>,
    pub(crate) router: RingRouter,
}

/// A cheap, cloneable submission handle onto a
/// [`ShardedFilter`](crate::ShardedFilter).
///
/// Handles are deliberately not generic over the backend, so application
/// code routing traffic into the service does not need to name the filter
/// type. Handles reference the service's *shared* routing state, so a
/// live resize ([`ShardedFilter::set_shards`](crate::ShardedFilter::set_shards))
/// transparently redirects every handle — cloned before or after the
/// resize — to the new shard fleet.
#[derive(Clone)]
pub struct ServiceHandle {
    pub(crate) ring: Arc<RwLock<RouteState>>,
    pub(crate) stats: Arc<StatsInner>,
    pub(crate) deletes: bool,
}

impl ServiceHandle {
    /// Read-lock the routing state: one consistent (senders, router)
    /// view per operation. Held across route + send so a concurrent
    /// resize can never split an operation between fleets; dropped
    /// before any park so draining workers (which never take this lock)
    /// can make progress.
    fn route_state(&self) -> RwLockReadGuard<'_, RouteState> {
        self.ring.read().unwrap_or_else(|e| e.into_inner())
    }

    /// Enqueue a task; on success, credit its operations to `accepted`
    /// (an operation rejected at the queue counts only as rejected, never
    /// as accepted). A refused task is dropped here, aborting its claim.
    fn send(
        &self,
        rs: &RouteState,
        shard: usize,
        task: Task,
        accepted: Option<&AtomicU64>,
    ) -> Result<(), FilterError> {
        let n = task.ops();
        self.stats.enqueued(n);
        // A stopped service has drained its senders; a routed shard index
        // with no sender means "stopped", never a panic.
        let sent = match rs.senders.get(shard) {
            Some(sender) => sender.send(task).is_ok(),
            None => false,
        };
        if !sent {
            self.stats.dequeued(n);
            self.stats.rejected.fetch_add(n, Ordering::Relaxed);
            return Err(FilterError::ServiceStopped);
        }
        if let Some(counter) = accepted {
            counter.fetch_add(n, Ordering::Relaxed);
        }
        Ok(())
    }

    /// Route `keys`, split them by shard, and send each shard its share
    /// as one request carrying a claim on `completion` (when given) for
    /// those keys' slots. Every shard is tried; `Err(ServiceStopped)` if
    /// any refused, whose claims have then aborted their slots.
    fn submit(
        &self,
        kind: Kind,
        keys: &[u64],
        completion: Option<&Arc<Completion>>,
    ) -> Result<(), FilterError> {
        let accepted = match kind {
            Kind::Insert => &self.stats.inserts,
            Kind::Query => &self.stats.queries,
            Kind::Delete => &self.stats.deletes,
        };
        let at = Instant::now();
        let rs = self.route_state();
        let send = |shard: usize, keys: Vec<u64>, slots: Vec<u32>| {
            let claim = completion.map(|c| c.claim(slots));
            self.send(&rs, shard, Task::Ops(ShardOps { kind, keys, at, claim }), Some(accepted))
        };
        if let &[key] = keys {
            return send(rs.router.route(key), vec![key], vec![0]);
        }
        let (by_shard, positions) = rs.router.partition(keys);
        let mut result = Ok(());
        for (shard, (keys, slots)) in by_shard.into_iter().zip(positions).enumerate() {
            if !keys.is_empty() {
                result = result.and(send(shard, keys, slots));
            }
        }
        result
    }

    /// Submit `keys` and park until every key is answered; per-key
    /// answers in submission order.
    fn call(&self, kind: Kind, keys: &[u64]) -> Result<Vec<bool>, FilterError> {
        let completion = Completion::parked(keys.len());
        let sent = self.submit(kind, keys, Some(&completion));
        let report = completion.wait();
        if sent.is_err() || report.aborted > 0 {
            return Err(FilterError::ServiceStopped);
        }
        Ok(report.results)
    }

    fn require_deletes(&self) -> Result<(), FilterError> {
        if self.deletes {
            Ok(())
        } else {
            Err(FilterError::Unsupported("service built without deletes"))
        }
    }

    /// Insert one key, parking until its batch flushes. Returns
    /// `Err(Full)` when the owning shard's backend rejected the key and
    /// `Err(ServiceStopped)` when the service shut down first.
    pub fn insert(&self, key: u64) -> Result<(), FilterError> {
        if self.call(Kind::Insert, &[key])?[0] {
            Ok(())
        } else {
            Err(FilterError::Full)
        }
    }

    /// Query one key, parking until its batch flushes. Reports `false`
    /// (definitely absent) if the service stopped; use [`Self::query`] to
    /// distinguish.
    pub fn contains(&self, key: u64) -> bool {
        self.query(key).unwrap_or(false)
    }

    /// Query one key; `Err(ServiceStopped)` if the service shut down.
    pub fn query(&self, key: u64) -> Result<bool, FilterError> {
        Ok(self.call(Kind::Query, &[key])?[0])
    }

    /// Remove one previously-inserted key; `Ok(true)` when a matching
    /// fingerprint was present. Requires a service built with
    /// [`ShardedFilterBuilder::build_deletable`](crate::ShardedFilterBuilder::build_deletable).
    /// If the backend refuses the delete batch with an error, nothing is
    /// removed: the call reports `Ok(false)` and the failure is counted in
    /// [`ServiceStats::delete_failures`](crate::ServiceStats).
    pub fn remove(&self, key: u64) -> Result<bool, FilterError> {
        self.require_deletes()?;
        Ok(self.call(Kind::Delete, &[key])?[0])
    }

    /// Insert a batch, parking until every key's flush completes. Returns
    /// the number of keys the backends rejected (0 on full success),
    /// mirroring [`filter_core::BulkFilter::bulk_insert`].
    pub fn insert_batch(&self, keys: &[u64]) -> Result<usize, FilterError> {
        Ok(self.call(Kind::Insert, keys)?.iter().filter(|&&ok| !ok).count())
    }

    /// Query a batch, parking until flushed; `out[i]` answers `keys[i]`.
    pub fn query_batch(&self, keys: &[u64]) -> Result<Vec<bool>, FilterError> {
        self.call(Kind::Query, keys)
    }

    /// Delete a batch, parking until flushed; returns how many keys were
    /// *not* present (mirroring [`filter_core::BulkDeletable`]). Keys in
    /// a backend-refused delete batch count as not present and are
    /// recorded in [`ServiceStats::delete_failures`](crate::ServiceStats).
    pub fn delete_batch(&self, keys: &[u64]) -> Result<usize, FilterError> {
        self.require_deletes()?;
        Ok(self.call(Kind::Delete, keys)?.iter().filter(|&&found| !found).count())
    }

    /// Fire-and-forget insert: enqueue and return. Failures surface only
    /// in [`ServiceStats::insert_failures`]; call [`Self::barrier`] to
    /// bound completion.
    pub fn insert_pipelined(&self, key: u64) -> Result<(), FilterError> {
        self.submit(Kind::Insert, &[key], None)
    }

    /// Fire-and-forget batch insert (pre-routed, nothing to answer).
    pub fn insert_batch_pipelined(&self, keys: &[u64]) -> Result<(), FilterError> {
        self.submit(Kind::Insert, keys, None)
    }

    /// Fire-and-forget batch delete (window expiry in streaming dedup and
    /// similar). Requires delete support.
    pub fn delete_batch_pipelined(&self, keys: &[u64]) -> Result<(), FilterError> {
        self.require_deletes()?;
        self.submit(Kind::Delete, keys, None)
    }

    /// Submit a batch asynchronously: enqueue every key and return
    /// without parking; `on_done` fires exactly once — on a shard worker
    /// thread — when every key has flushed, carrying per-key answers in
    /// submission order.
    ///
    /// This is the network reactor's bridge into the service: the reactor
    /// thread never parks on a completion, and the callback hands the
    /// finished [`BatchReport`] back to it (e.g. over a channel).
    /// `op` must be a data operation ([`OpKind::is_data`]); deletes
    /// additionally require a deletable service. On `Err` nothing was
    /// enqueued and the callback never fires (except the trivial
    /// empty-batch case, which fires it synchronously). After a
    /// successful return the callback *always* fires eventually: if the
    /// service stops mid-flight the dropped slots surface as
    /// [`BatchReport::aborted`] rather than a lost response.
    ///
    /// Note the enqueue itself still honors backpressure — a full shard
    /// queue blocks this call until the worker drains it, exactly like
    /// the parking submission paths.
    pub fn submit_batch(
        &self,
        op: OpKind,
        keys: &[u64],
        on_done: impl FnOnce(BatchReport) + Send + 'static,
    ) -> Result<(), FilterError> {
        let kind = match op {
            OpKind::Insert => Kind::Insert,
            OpKind::Query => Kind::Query,
            OpKind::Delete => {
                self.require_deletes()?;
                Kind::Delete
            }
            _ => return Err(FilterError::Unsupported("submit_batch serves data ops only")),
        };
        if keys.is_empty() {
            on_done(BatchReport { results: Vec::new(), aborted: 0 });
            return Ok(());
        }
        let completion = Completion::callback(keys.len(), Box::new(on_done));
        // A refused send aborts its slots — the callback still fires, with
        // `aborted` accounting for them. Single-path reporting, no double
        // error.
        let _ = self.submit(kind, keys, Some(&completion));
        Ok(())
    }

    /// Park until every operation enqueued (by any handle) before this
    /// call has been flushed on every shard.
    pub fn barrier(&self) -> Result<(), FilterError> {
        let (completion, sent) = {
            let rs = self.route_state();
            // A stopped service has no senders left; a zero-fence barrier
            // would report success for work that never flushed.
            if rs.senders.is_empty() {
                return Err(FilterError::ServiceStopped);
            }
            let completion = Completion::parked(rs.senders.len());
            let mut sent = Ok(());
            for shard in 0..rs.senders.len() {
                let fence = Task::Barrier(completion.claim(vec![shard as u32]));
                sent = sent.and(self.send(&rs, shard, fence, None));
            }
            (completion, sent)
        };
        let report = completion.wait();
        if sent.is_err() || report.aborted > 0 {
            return Err(FilterError::ServiceStopped);
        }
        Ok(())
    }

    /// Whether this service supports delete operations.
    pub fn supports_delete(&self) -> bool {
        self.deletes
    }

    /// The router currently in use (e.g. to co-locate auxiliary
    /// per-shard state). By value: a resize replaces the live router,
    /// so cache this only for as long as the shard count is known stable.
    pub fn router(&self) -> RingRouter {
        self.route_state().router.clone()
    }
}

/// A cheap, cloneable observe-and-tune handle onto a service.
///
/// Where [`ServiceHandle`] submits traffic, `ServiceControl` watches and
/// steers: live queue depth and accepted-operation counts (rate
/// estimation), full [`ServiceStats`] snapshots, and the batch linger —
/// readable and *writable at runtime*, the knob the adaptive network
/// tier turns to trade batch amortization against tail latency. Like
/// handles, it is not generic over the backend type.
#[derive(Clone)]
pub struct ServiceControl {
    pub(crate) ring: Arc<RwLock<RouteState>>,
    pub(crate) stats: Arc<StatsInner>,
    pub(crate) linger_ns: Arc<AtomicU64>,
    pub(crate) started: Instant,
}

impl ServiceControl {
    /// Current number of shards (live resizes change it).
    pub fn shards(&self) -> usize {
        self.ring.read().unwrap_or_else(|e| e.into_inner()).router.shards()
    }

    /// Operations currently queued across all shards.
    pub fn queue_depth(&self) -> u64 {
        self.stats.queue_depth.load(Ordering::Relaxed)
    }

    /// Total operations accepted so far (inserts + queries + deletes) —
    /// the monotone counter controllers difference for arrival rates.
    pub fn ops_accepted(&self) -> u64 {
        let o = Ordering::Relaxed;
        self.stats.inserts.load(o) + self.stats.queries.load(o) + self.stats.deletes.load(o)
    }

    /// The batch linger currently in force.
    pub fn linger(&self) -> Duration {
        Duration::from_nanos(self.linger_ns.load(Ordering::Relaxed))
    }

    /// Retune the batch linger live; each shard worker picks it up the
    /// next time it arms a flush deadline.
    pub fn set_linger(&self, linger: Duration) {
        self.linger_ns.store(linger.as_nanos().min(u64::MAX as u128) as u64, Ordering::Relaxed);
    }

    /// Snapshot of the service metrics.
    pub fn stats(&self) -> ServiceStats {
        ServiceStats::snapshot(&self.stats, self.shards(), self.started.elapsed())
    }
}
