//! # gpu-filters
//!
//! A Rust reproduction of *High-Performance Filters for GPUs* (PPoPP '23):
//! the **TCF** (two-choice filter) and **GQF** (GPU counting quotient
//! filter), their point and bulk APIs, every baseline the paper evaluates
//! against (Bloom, blocked Bloom, SQF, RSQF, cuckoo, CPU CQF/VQF), the
//! GPU execution-model substrate they run on, and the workloads and
//! application pipeline (MetaHipMer k-mer analysis) of the evaluation.
//!
//! ## Picking a filter (§6.8)
//!
//! * Most data-analytics workloads: **[`PointTcf`] / [`BulkTcf`]** — the
//!   stable, skew-resilient choice with deletes and value association.
//! * Counting, enumeration, merging (database joins, k-mer counting):
//!   **[`PointGqf`] / [`BulkGqf`]** — every feature, at a performance
//!   cost.
//! * No deletes, no values, space-insensitive: [`BlockedBloomFilter`].
//!
//! ## Quickstart (v2 API: spec-driven construction)
//!
//! Declare what you need — items, target false-positive rate, optional
//! counting/values/device — and let the [`registry`] build the backend
//! behind the object-safe [`DynFilter`] facade:
//!
//! ```
//! use gpu_filters::{build_filter, FilterKind, FilterSpec};
//!
//! let spec = FilterSpec::items(1 << 16).fp_rate(1e-3);
//! let filter = build_filter(FilterKind::TcfPoint, &spec)?;
//! filter.insert(0xfeed_beef)?;
//! assert!(filter.contains(0xfeed_beef)?);
//!
//! let counter = build_filter(FilterKind::GqfPoint, &spec.clone().counting(true))?;
//! counter.insert_count(7, 41)?;
//! counter.insert(7)?;
//! assert_eq!(counter.count(7)?, 42);
//! # Ok::<(), gpu_filters::FilterError>(())
//! ```
//!
//! The concrete types ([`PointTcf`], [`BulkGqf`], …) remain available for
//! monomorphized hot paths; every one of them also has a `from_spec`
//! constructor, and their bulk APIs report **per-key outcomes**
//! ([`InsertOutcome`]/[`DeleteOutcome`] via `bulk_insert_report` /
//! `bulk_delete_report`) with the aggregate counts as derived wrappers.
//!
//! ## Serving at scale
//!
//! The bulk APIs above exist because batching amortizes per-item costs
//! (§4.2, §5.3) — and the same lesson applies when a filter backs a
//! service handling heavy concurrent traffic. The [`serving`] module (the
//! `filter-service` crate) wraps any bulk filter in a sharded,
//! batch-aggregating front-end: keys are routed to `N` independent filter
//! instances by a splitmix-derived hash, concurrent point operations are
//! aggregated into per-shard batches, and each shard's dedicated worker
//! flushes through the backend's `BulkFilter` API when a batch fills or a
//! linger deadline passes. Bounded per-shard queues provide backpressure;
//! [`ServiceStats`](serving::ServiceStats) reports throughput, the
//! batch-size histogram, queue depths, and flush latency.
//!
//! ```
//! use gpu_filters::prelude::*;
//!
//! let service = ShardedFilterBuilder::new()
//!     .shards(4)
//!     .build(|_shard| BulkTcf::new(1 << 14))?;
//! let handle = service.handle();
//! handle.insert(42)?;          // blocking: parks until its batch flushes
//! assert!(handle.contains(42));
//! let keys: Vec<u64> = (0..1000u64).map(|i| i * 2 + 1).collect();
//! handle.insert_batch(&keys)?; // batched: fans out across shards
//! assert!(handle.query_batch(&keys)?.iter().all(|&hit| hit));
//! # Ok::<(), gpu_filters::FilterError>(())
//! ```
//!
//! The service is generic over backend — `BulkTcf`, `BulkGqf`, and
//! `BlockedBloomFilter` all satisfy the [`ServiceBackend`] blanket trait —
//! and `build_deletable` additionally enables `remove`/`delete_batch` for
//! backends with bulk deletion. Blocking callers are acknowledged from
//! the backends' per-key bulk outcomes directly (no extra query round
//! trips on the delete or failed-insert paths). See `crates/bench/src/
//! bin/service_throughput.rs` for the measured point-vs-batched-vs-
//! sharded comparison and the delete-heavy per-key-vs-pre-query delta.

#![forbid(unsafe_code)]

pub mod registry;

pub use baselines::{
    BlockedBloomFilter, BloomFilter, CountingBloomFilter, CpuCqf, CpuVqf, CuckooFilter, Rsqf, Sqf,
};
pub use filter_core::{
    AnyFilter, ApiMode, BulkDeletable, BulkFilter, Counting, Deletable, DeleteOutcome, DeviceModel,
    DynFilter, Features, Filter, FilterError, FilterKind, FilterMeta, FilterSpec, GrowingFilter,
    GrowthPolicy, InsertOutcome, MaintainableFilter, OpKind, Operation, Parallelism, RespStatus,
    ServiceBackend, Valued, WIRE_VERSION,
};
pub use filter_service::{RingRouter, ServiceHandle, ShardedFilter, ShardedFilterBuilder};
pub use gpu_sim::{cost, Device, DeviceProfile, KernelStats};
pub use gqf::{BulkGqf, PointGqf};
pub use registry::{all_filters, build_filter};
pub use tcf::{BulkTcf, PointTcf, TcfConfig};

/// Re-exported building blocks for applications that extend the filters.
pub mod substrate {
    pub use gpu_sim::*;
}

/// Workload generators used by the paper's evaluation.
pub mod datasets {
    pub use workloads::*;
}

/// The MetaHipMer k-mer analysis integration (Table 3).
pub mod mhm {
    pub use mhm_sim::*;
}

/// The even-odd scheme generalized beyond filters (§1): an exact
/// linear-probing hash table with phased lock-free bulk insertion, and a
/// dynamic-graph edge store built on it.
pub mod eoht {
    pub use eo_ht::*;
}

/// The sharded, batch-aggregating serving layer (see "Serving at scale"
/// above).
pub mod serving {
    pub use filter_service::*;
}

/// The network serving tier over [`serving`]: a length-prefixed binary
/// wire protocol, a nonblocking reactor feeding
/// [`ServiceHandle::submit_batch`](filter_service::ServiceHandle::submit_batch),
/// adaptive batch-linger + admission control for bounded tail latency,
/// and an open-loop client fleet for latency-vs-offered-load measurement
/// (`crates/filter-net`).
pub mod net {
    pub use filter_net::*;
}

/// Everything an application normally needs.
///
/// [`DynFilter`] is deliberately *not* glob-exported here: its method
/// names mirror the static traits', so importing both on a concrete type
/// would make every `f.insert(…)` ambiguous. Import it explicitly where
/// you hold an [`AnyFilter`].
pub mod prelude {
    pub use crate::{
        all_filters, build_filter, AnyFilter, ApiMode, BulkDeletable, BulkFilter, BulkGqf, BulkTcf,
        Counting, Deletable, DeleteOutcome, DeviceModel, Features, Filter, FilterError, FilterKind,
        FilterMeta, FilterSpec, GrowthPolicy, InsertOutcome, MaintainableFilter, Operation,
        Parallelism, PointGqf, PointTcf, ServiceBackend, ServiceHandle, ShardedFilter,
        ShardedFilterBuilder, TcfConfig, Valued,
    };
}

/// Render the paper's Table 1 (API feature matrix) by iterating the
/// filter registry: every [`FilterKind`] is built from one small
/// [`FilterSpec`] and reports its own live feature row. Point/bulk
/// sibling types of the same structure (TCF, GQF) are folded into one row
/// as the paper presents them.
pub fn feature_matrix() -> String {
    use filter_core::features::render_table1;

    let spec = FilterSpec::items(230).fp_rate(0.04);
    let features_of = |kind: FilterKind| {
        build_filter(kind, &spec)
            .unwrap_or_else(|e| panic!("registry build {kind}: {e}"))
            .features()
    };
    // Fold a bulk sibling's cells into its point row, as the paper does
    // (the capacity lifecycle lives on the bulk sibling, so the Grow
    // column folds too).
    let folded = |point: FilterKind, bulk: FilterKind| {
        let mut row = features_of(point);
        let bulk_row = features_of(bulk);
        for op in Operation::ALL {
            if bulk_row.supports(op, ApiMode::Bulk) {
                row = row.with(op, ApiMode::Bulk);
            }
        }
        if bulk_row.supports_growth() {
            row = row.with_growth();
        }
        row
    };

    render_table1(&[
        folded(FilterKind::GqfPoint, FilterKind::GqfBulk),
        folded(FilterKind::TcfPoint, FilterKind::TcfBulk),
        features_of(FilterKind::Bloom),
        features_of(FilterKind::Sqf),
        features_of(FilterKind::Rsqf),
        features_of(FilterKind::BlockedBloom),
        features_of(FilterKind::CountingBloom),
        features_of(FilterKind::Cuckoo),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn feature_matrix_matches_paper_table1() {
        let t = feature_matrix();
        assert!(t.contains("GQF"));
        assert!(t.contains("TCF"));
        assert!(t.contains("RSQF"));
        // GQF row: 8 operation checkmarks + the Grow column; RSQF: 2 + Grow.
        assert!(t.contains("Grow"));
        let gqf_row = t.lines().find(|l| l.starts_with("GQF")).unwrap();
        assert_eq!(gqf_row.matches('✓').count(), 9);
        let rsqf_row = t.lines().find(|l| l.starts_with("RSQF")).unwrap();
        assert_eq!(rsqf_row.matches('✓').count(), 3);
        // Bloom-family rows stay growth-free (same checkmark count as the
        // live feature matrix minus zero: no Grow mark).
        let bf = build_filter(FilterKind::Bloom, &FilterSpec::items(64).fp_rate(0.04)).unwrap();
        assert!(!bf.features().supports_growth());
    }
}

/// Deliberately *not* `use super::*`: this module sees exactly what a
/// downstream `use gpu_filters::prelude::*;` sees, proving the prelude
/// keeps static-trait method calls unambiguous (no `DynFilter` in scope).
#[cfg(test)]
mod prelude_tests {
    #[test]
    fn prelude_compiles_typical_usage() {
        use crate::prelude::*;
        let f = PointTcf::new(1024).unwrap();
        f.insert(1).unwrap();
        assert!(f.contains(1));
        assert!(f.remove(1).unwrap());
    }

    #[test]
    fn prelude_builds_from_spec_via_registry() {
        use crate::prelude::*;
        let f = build_filter(FilterKind::TcfBulk, &FilterSpec::items(1000)).unwrap();
        assert_eq!(f.bulk_insert(&[1, 2, 3]).unwrap(), 0);
        assert!(f.bulk_query_vec(&[1, 2, 3]).unwrap().iter().all(|&h| h));
    }
}
