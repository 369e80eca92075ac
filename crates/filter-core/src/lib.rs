//! # filter-core
//!
//! Shared foundation for the GPU-model filter family reproduced from
//! *High-Performance Filters for GPUs* (PPoPP '23): common traits, error
//! types, hash families, the cuRAND-compatible XORWOW generator used by the
//! paper's microbenchmarks, fingerprint arithmetic helpers, and the
//! repeat-sample [`stats`] every benchmark and fleet report aggregates with.
//!
//! Every concrete filter (TCF, GQF, Bloom, blocked Bloom, SQF, RSQF, cuckoo,
//! and the CPU comparison filters) implements the traits defined here so the
//! benchmark harness and applications can treat them uniformly.
//!
//! ## The v2 construction and facade surface
//!
//! * [`FilterSpec`] + [`FilterKind`] — declarative, capacity/error-driven
//!   construction: say how many items and what ε, not which `q`/`r`/`k`
//!   parameters. Each filter crate exposes a `from_spec` constructor and
//!   the umbrella crate's registry builds any [`FilterKind`] from a spec.
//! * [`DynFilter`] / [`AnyFilter`] — the object-safe union of the point,
//!   bulk, delete, count, and value surfaces, with
//!   [`FilterError::Unsupported`] fallbacks, so benchmarks and services
//!   can iterate heterogeneous filters without per-backend match arms.
//! * [`InsertOutcome`] / [`DeleteOutcome`] — per-key bulk results
//!   (`bulk_insert_report` / `bulk_delete_report`); the aggregate-count
//!   forms remain as defaulted wrappers.

#![forbid(unsafe_code)]

pub mod dynfilter;
pub mod error;
pub mod features;
pub mod fingerprint;
pub mod growth;
pub mod hash;
pub mod outcome;
pub mod spec;
pub mod stats;
pub mod traits;
pub mod wire;
pub mod xorwow;

pub use dynfilter::{AnyFilter, DynFilter};
pub use error::FilterError;
pub use features::{ApiMode, Features, Operation};
pub use fingerprint::{split_quotient_remainder, Fingerprint};
pub use growth::GrowingFilter;
pub use hash::{double_hash_probe, fmix64, hash64, hash64_seeded, splitmix64, HashPair};
pub use outcome::{count_delete_misses, count_insert_failures, DeleteOutcome, InsertOutcome};
pub use spec::{DeviceModel, FilterKind, FilterSpec, GrowthPolicy, Parallelism, DEFAULT_FP_RATE};
pub use traits::{
    growth_steps, BulkDeletable, BulkFilter, Counting, Deletable, Filter, FilterMeta,
    MaintainableFilter, ServiceBackend, Valued,
};
pub use wire::{OpKind, RespStatus, WIRE_VERSION};
pub use xorwow::{hashed_keys, Xorwow};
