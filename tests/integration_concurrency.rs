//! Concurrency hammering: the point APIs are the paper's device-side
//! concurrent interfaces; they must stay exact under thread storms — and
//! the serving layer over a *parallel* bulk backend must lose nothing
//! when blocking and pipelined handles race.

use gpu_filters::datasets::hashed_keys;
use gpu_filters::prelude::*;
use std::sync::Arc;

#[test]
fn tcf_mixed_insert_query_delete_storm() {
    let f = Arc::new(PointTcf::new(1 << 15).unwrap());
    let keys = Arc::new(hashed_keys(501, 16_000));
    // Phase 1: concurrent inserts.
    let handles: Vec<_> = (0..8usize)
        .map(|t| {
            let f = Arc::clone(&f);
            let keys = Arc::clone(&keys);
            std::thread::spawn(move || {
                for &k in &keys[t * 2000..(t + 1) * 2000] {
                    f.insert(k).unwrap();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(f.len(), 16_000);

    // Phase 2: readers and deleters race (deleters own disjoint key
    // ranges; readers check keys nobody deletes).
    let handles: Vec<_> = (0..4usize)
        .map(|t| {
            let f = Arc::clone(&f);
            let keys = Arc::clone(&keys);
            std::thread::spawn(move || {
                for &k in &keys[t * 2000..(t + 1) * 2000] {
                    assert!(f.remove(k).unwrap());
                }
            })
        })
        .chain((0..4usize).map(|t| {
            let f = Arc::clone(&f);
            let keys = Arc::clone(&keys);
            std::thread::spawn(move || {
                for _ in 0..3 {
                    for &k in &keys[8000 + t * 2000..8000 + (t + 1) * 2000] {
                        assert!(f.contains(k), "stable key vanished mid-race");
                    }
                }
            })
        }))
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(f.len(), 8000);
}

#[test]
fn gqf_concurrent_inserts_respect_region_locks() {
    let f = Arc::new(PointGqf::new(15, 8).unwrap());
    let keys = Arc::new(hashed_keys(502, 16_000));
    let handles: Vec<_> = (0..8usize)
        .map(|t| {
            let f = Arc::clone(&f);
            let keys = Arc::clone(&keys);
            std::thread::spawn(move || {
                for &k in &keys[t * 2000..(t + 1) * 2000] {
                    f.insert(k).unwrap();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(f.len(), 16_000);
    f.core().check_invariants();
    for &k in keys.iter() {
        assert!(f.contains(k));
    }
}

#[test]
fn gqf_zipfian_contention_is_exact() {
    // §5.4's pathology: every thread hammers the same few keys. Counts
    // must still be exact.
    let f = Arc::new(PointGqf::new(13, 8).unwrap());
    let hot = Arc::new(hashed_keys(503, 4));
    let handles: Vec<_> = (0..8usize)
        .map(|t| {
            let f = Arc::clone(&f);
            let hot = Arc::clone(&hot);
            std::thread::spawn(move || {
                for i in 0..1000usize {
                    f.insert(hot[(t + i) % 4]).unwrap();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let total: u64 = hot.iter().map(|&k| f.count(k)).sum();
    assert_eq!(total, 8000);
    f.core().check_invariants();
}

#[test]
fn tcf_concurrent_duplicate_inserts_are_multiset() {
    let f = Arc::new(PointTcf::new(1 << 12).unwrap());
    let k = hashed_keys(504, 1)[0];
    let handles: Vec<_> = (0..8)
        .map(|_| {
            let f = Arc::clone(&f);
            std::thread::spawn(move || {
                for _ in 0..4 {
                    f.insert(k).unwrap();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    // 32 copies inserted; delete them all.
    let mut removed = 0;
    while f.remove(k).unwrap() {
        removed += 1;
    }
    assert_eq!(removed, 32);
    assert!(!f.contains(k));
}

#[test]
fn service_over_parallel_backend_loses_no_outcomes_under_mixed_handles() {
    // filter-service shard workers flushing into backends whose bulk
    // phases themselves fan out on the rayon pool (Parallelism::Threads),
    // hammered by concurrent blocking *and* pipelined handles. The
    // contract: zero lost outcomes (every blocking call answers exactly,
    // every pipelined op lands before the barrier) and a consistent
    // ServiceStats ledger.
    use gpu_filters::FilterSpec;
    use std::time::Duration;

    const SHARDS: usize = 4;
    const BLOCKING_CLIENTS: usize = 4;
    const PIPELINE_CLIENTS: usize = 2;
    const KEYS_PER_CLIENT: usize = 4000;

    let n_blocking = BLOCKING_CLIENTS * KEYS_PER_CLIENT;
    let n_pipeline = PIPELINE_CLIENTS * KEYS_PER_CLIENT;
    let spec = FilterSpec::items((2 * (n_blocking + n_pipeline)) as u64)
        .fp_rate(4e-3)
        .parallelism(Parallelism::Threads(2 * SHARDS as u32));
    let builder = ShardedFilterBuilder::new()
        .shards(SHARDS)
        .batch_capacity(512)
        .linger(Duration::from_micros(100))
        .parallelism(spec.parallelism);
    let shard_spec = builder.shard_spec(&spec);
    let service = builder
        .build_deletable(|_| BulkTcf::from_spec(&shard_spec))
        .expect("service over parallel backend");

    let blocking_keys = Arc::new(hashed_keys(601, n_blocking));
    let pipeline_keys = Arc::new(hashed_keys(602, n_pipeline));
    let handle = service.handle();

    std::thread::scope(|s| {
        // Blocking clients: insert own range, verify, delete half, verify.
        for t in 0..BLOCKING_CLIENTS {
            let h = handle.clone();
            let keys = Arc::clone(&blocking_keys);
            s.spawn(move || {
                let mine = &keys[t * KEYS_PER_CLIENT..(t + 1) * KEYS_PER_CLIENT];
                assert_eq!(h.insert_batch(mine).unwrap(), 0, "client {t} lost inserts");
                let hits = h.query_batch(mine).unwrap();
                assert!(hits.iter().all(|&x| x), "client {t} lost keys");
                let half = &mine[..KEYS_PER_CLIENT / 2];
                assert_eq!(h.delete_batch(half).unwrap(), 0, "client {t} lost deletes");
                let hits = h.query_batch(&mine[KEYS_PER_CLIENT / 2..]).unwrap();
                assert!(hits.iter().all(|&x| x), "client {t}: survivors vanished");
            });
        }
        // Pipelined clients: fire-and-forget inserts, then a barrier.
        for t in 0..PIPELINE_CLIENTS {
            let h = handle.clone();
            let keys = Arc::clone(&pipeline_keys);
            s.spawn(move || {
                let mine = &keys[t * KEYS_PER_CLIENT..(t + 1) * KEYS_PER_CLIENT];
                for chunk in mine.chunks(700) {
                    h.insert_batch_pipelined(chunk).unwrap();
                }
                h.barrier().unwrap();
                let hits = h.query_batch(mine).unwrap();
                assert!(hits.iter().all(|&x| x), "pipelined client {t} lost keys");
            });
        }
    });

    // The ledger must balance: every accepted op was flushed (queues
    // drained by the barriers/blocking gates above), nothing rejected,
    // nothing failed, and the hit counter covers at least the positive
    // queries the clients verified.
    let stats = service.stats();
    let expect_inserts = (n_blocking + n_pipeline) as u64;
    let expect_deletes = (n_blocking / 2) as u64;
    let expect_queries = (n_blocking + n_blocking / 2 + n_pipeline) as u64;
    assert_eq!(stats.inserts, expect_inserts, "insert ledger");
    assert_eq!(stats.deletes, expect_deletes, "delete ledger");
    assert_eq!(stats.queries, expect_queries, "query ledger");
    assert_eq!(stats.insert_failures, 0);
    assert_eq!(stats.delete_failures, 0);
    assert_eq!(stats.rejected, 0);
    assert_eq!(stats.query_hits, expect_queries, "every verified query was a hit");
    assert_eq!(
        stats.items_flushed,
        expect_inserts + expect_deletes + expect_queries,
        "flushed items must equal accepted operations (zero lost outcomes)"
    );
    assert_eq!(stats.queue_depth, 0, "queues drained");
    assert!(stats.batches_flushed > 0 && stats.mean_batch() > 1.0, "aggregation happened");
}

#[test]
fn service_scale_out_loses_no_outcomes_under_live_traffic() {
    // The scale-out acceptance gate for the serving layer: set_shards
    // doubles the fleet twice while blocking and pipelined clients keep
    // hammering the service. Every acknowledged key must survive every
    // migration, no call may error, and the ServiceStats ledger must
    // balance (inserts+deletes+queries accepted == flushed, zero
    // rejected, with the scale-outs and migrations recorded).
    use gpu_filters::{FilterSpec, GrowthPolicy};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::Duration;

    const CLIENTS: usize = 3;
    const KEYS_PER_CLIENT: usize = 3000;

    let shard_spec = FilterSpec::items(4 * KEYS_PER_CLIENT as u64).fp_rate(4e-3);
    let mut service = ShardedFilterBuilder::new()
        .shards(2)
        .batch_capacity(256)
        .linger(Duration::from_micros(100))
        .growth(GrowthPolicy::AUTO_DEFAULT)
        .build_maintainable_deletable(|_| BulkTcf::from_spec(&shard_spec))
        .expect("maintainable service");

    let keys = Arc::new(hashed_keys(701, CLIENTS * KEYS_PER_CLIENT));
    let pipelined = Arc::new(hashed_keys(702, KEYS_PER_CLIENT));
    let handle = service.handle();
    let stop = Arc::new(AtomicBool::new(false));

    std::thread::scope(|s| {
        // Blocking clients: insert in chunks, re-verifying after each.
        for t in 0..CLIENTS {
            let h = handle.clone();
            let keys = Arc::clone(&keys);
            s.spawn(move || {
                let mine = &keys[t * KEYS_PER_CLIENT..(t + 1) * KEYS_PER_CLIENT];
                for chunk in mine.chunks(500) {
                    assert_eq!(h.insert_batch(chunk).unwrap(), 0, "client {t} lost inserts");
                    assert!(
                        h.query_batch(chunk).unwrap().iter().all(|&x| x),
                        "client {t} lost keys mid-scale-out"
                    );
                }
            });
        }
        // A pipelined client with barriers.
        {
            let h = handle.clone();
            let pipelined = Arc::clone(&pipelined);
            s.spawn(move || {
                for chunk in pipelined.chunks(400) {
                    h.insert_batch_pipelined(chunk).unwrap();
                }
                h.barrier().unwrap();
                assert!(
                    h.query_batch(&pipelined).unwrap().iter().all(|&x| x),
                    "pipelined keys lost"
                );
            });
        }
        // A querying client that churns all through the resizes.
        {
            let h = handle.clone();
            let keys = Arc::clone(&keys);
            let stop = Arc::clone(&stop);
            s.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let _ = h.query_batch(&keys[..200]).unwrap();
                }
            });
        }
        // The operator thread: two live doublings while traffic flows.
        let stop_op = Arc::clone(&stop);
        let svc = &mut service;
        s.spawn(move || {
            for target in [4usize, 8] {
                std::thread::sleep(Duration::from_millis(5));
                svc.set_shards(target, |_| BulkTcf::from_spec(&shard_spec))
                    .unwrap_or_else(|e| panic!("scale-out to {target}: {e}"));
                assert_eq!(svc.shard_count(), target);
            }
            stop_op.store(true, Ordering::Relaxed);
        });
    });

    // Everything acknowledged must still be present after both resizes.
    let all: Vec<u64> = keys.iter().chain(pipelined.iter()).copied().collect();
    assert!(handle.query_batch(&all).unwrap().iter().all(|&x| x), "keys lost after scale-out");

    let stats = service.stats();
    assert_eq!(stats.shards, 8, "final shard count");
    assert_eq!(stats.scale_outs, 2, "both resizes ledgered");
    assert!(stats.migration_events >= 4 + 8, "one migration per new shard per resize");
    assert_eq!(stats.rejected, 0, "no operation rejected during scale-out");
    assert_eq!(stats.insert_failures, 0, "no capacity failures under the growth policy");
    assert_eq!(stats.queue_depth, 0, "queues drained");
    assert_eq!(
        stats.items_flushed,
        stats.inserts + stats.deletes + stats.queries,
        "flushed items must equal accepted operations (zero lost outcomes):\n{}",
        stats.render()
    );
}

#[test]
fn service_ring_resize_sequence_loses_no_outcomes() {
    // The ISSUE 8 acceptance gate: under the consistent-hash ring,
    // set_shards supports *arbitrary* resize sequences — here
    // 4 → 6 → 3 → 3 → 8, mixing scale-out, scale-in, and a no-op —
    // while blocking and pipelined clients keep hammering the service.
    // Every acknowledged key must survive every migration (including the
    // scale-in, where decommissioned shards drain into their ring
    // successors), no call may error, and the ledger must balance with
    // the scale-ins and movement estimate recorded.
    use gpu_filters::{FilterSpec, GrowthPolicy};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::Duration;

    const CLIENTS: usize = 3;
    const KEYS_PER_CLIENT: usize = 3000;

    let shard_spec = FilterSpec::items(4 * KEYS_PER_CLIENT as u64).fp_rate(4e-3);
    let mut service = ShardedFilterBuilder::new()
        .shards(4)
        .batch_capacity(256)
        .linger(Duration::from_micros(100))
        .growth(GrowthPolicy::AUTO_DEFAULT)
        .build_maintainable_deletable(|_| BulkTcf::from_spec(&shard_spec))
        .expect("maintainable service");

    let keys = Arc::new(hashed_keys(801, CLIENTS * KEYS_PER_CLIENT));
    let pipelined = Arc::new(hashed_keys(802, KEYS_PER_CLIENT));
    let handle = service.handle();
    let stop = Arc::new(AtomicBool::new(false));

    std::thread::scope(|s| {
        // Blocking clients: insert in chunks, re-verifying after each.
        for t in 0..CLIENTS {
            let h = handle.clone();
            let keys = Arc::clone(&keys);
            s.spawn(move || {
                let mine = &keys[t * KEYS_PER_CLIENT..(t + 1) * KEYS_PER_CLIENT];
                for chunk in mine.chunks(500) {
                    assert_eq!(h.insert_batch(chunk).unwrap(), 0, "client {t} lost inserts");
                    assert!(
                        h.query_batch(chunk).unwrap().iter().all(|&x| x),
                        "client {t} lost keys mid-resize"
                    );
                }
            });
        }
        // A pipelined client with barriers.
        {
            let h = handle.clone();
            let pipelined = Arc::clone(&pipelined);
            s.spawn(move || {
                for chunk in pipelined.chunks(400) {
                    h.insert_batch_pipelined(chunk).unwrap();
                }
                h.barrier().unwrap();
                assert!(
                    h.query_batch(&pipelined).unwrap().iter().all(|&x| x),
                    "pipelined keys lost"
                );
            });
        }
        // A querying client that churns all through the resizes.
        {
            let h = handle.clone();
            let keys = Arc::clone(&keys);
            let stop = Arc::clone(&stop);
            s.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let _ = h.query_batch(&keys[..200]).unwrap();
                }
            });
        }
        // The operator thread: out, in, no-op, out — all while traffic
        // flows.
        let stop_op = Arc::clone(&stop);
        let svc = &mut service;
        s.spawn(move || {
            for target in [6usize, 3, 3, 8] {
                std::thread::sleep(Duration::from_millis(5));
                svc.set_shards(target, |_| BulkTcf::from_spec(&shard_spec))
                    .unwrap_or_else(|e| panic!("resize to {target}: {e}"));
                assert_eq!(svc.shard_count(), target);
            }
            stop_op.store(true, Ordering::Relaxed);
        });
    });

    // Everything acknowledged must still be present after the sequence.
    let all: Vec<u64> = keys.iter().chain(pipelined.iter()).copied().collect();
    assert!(handle.query_batch(&all).unwrap().iter().all(|&x| x), "keys lost after resizes");

    let stats = service.stats();
    assert_eq!(stats.shards, 8, "final shard count");
    assert_eq!(stats.scale_outs, 2, "4→6 and 3→8 ledgered as scale-outs");
    assert_eq!(stats.scale_ins, 1, "6→3 ledgered as a scale-in");
    assert!(
        stats.migration_events >= 6 + 3 + 8,
        "every new shard absorbs at least one source per resize, got {}",
        stats.migration_events
    );
    assert!(stats.keys_moved > 0, "movement estimate recorded");
    assert_eq!(stats.rejected, 0, "no operation rejected during resizes");
    assert_eq!(stats.insert_failures, 0, "no capacity failures under the growth policy");
    assert_eq!(stats.queue_depth, 0, "queues drained");
    assert_eq!(
        stats.items_flushed,
        stats.inserts + stats.deletes + stats.queries,
        "flushed items must equal accepted operations (zero lost outcomes):\n{}",
        stats.render()
    );
}

#[test]
fn service_worker_auto_growth_absorbs_overload() {
    // A service whose shards are sized for a fraction of the traffic:
    // under GrowthPolicy::Auto the workers must grow their backends and
    // acknowledge every key, with the grow events ledgered.
    use gpu_filters::{FilterSpec, GrowthPolicy};

    let shard_spec = FilterSpec::items(500).fp_rate(4e-3);
    let service = ShardedFilterBuilder::new()
        .shards(2)
        .batch_capacity(512)
        .growth(GrowthPolicy::AUTO_DEFAULT)
        .build_maintainable_deletable(|_| BulkTcf::from_spec(&shard_spec))
        .unwrap();
    let h = service.handle();
    let keys = hashed_keys(703, 8000); // 8x the service's spec capacity
    assert_eq!(h.insert_batch(&keys).unwrap(), 0, "growth policy must absorb the overload");
    assert!(h.query_batch(&keys).unwrap().iter().all(|&x| x));

    let stats = service.stats();
    assert!(stats.grow_events > 0, "growth must have happened:\n{}", stats.render());
    assert_eq!(stats.insert_failures, 0, "callers must never see capacity failures");
    for b in service.backends() {
        let b = b.read().unwrap();
        use gpu_filters::MaintainableFilter;
        assert!(b.load() < 0.9, "backend left above its recommended load");
    }
}

#[test]
fn bloom_concurrent_inserts_never_lose_bits() {
    use gpu_filters::BloomFilter;
    let f = Arc::new(BloomFilter::new(40_000).unwrap());
    let keys = Arc::new(hashed_keys(505, 8000));
    let handles: Vec<_> = (0..8usize)
        .map(|t| {
            let f = Arc::clone(&f);
            let keys = Arc::clone(&keys);
            std::thread::spawn(move || {
                for &k in &keys[t * 1000..(t + 1) * 1000] {
                    f.insert(k).unwrap();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    for &k in keys.iter() {
        assert!(f.contains(k));
    }
}
