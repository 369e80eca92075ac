//! The filters a pass runs over, and the delegating wrapper around them.
//!
//! [`Backend`] forwards every bulk call to the filter it wraps and, when
//! traced, records a flush span around the call with the keys it
//! carried, so the trace can attribute backend time to the requests it
//! served. A fault can be armed to show that the benchmark's verdict
//! checks trip. Untraced passes without a fault run over the bare filter.

use crate::report::Layers;
use crate::trace::Tracer;
use filter_core::{BulkFilter, Features, FilterError, FilterMeta, FilterSpec, InsertOutcome};
use gqf::BulkGqf;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;
use std::time::Instant;
use tcf::BulkTcf;

/// Span name of one backend bulk call.
pub const FLUSH: &str = "tcf.flush";

/// A wrong answer the backend can be told to give.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Fault {
    None = 0,
    /// Report the first key of the next insert call as inserted without
    /// inserting it (once).
    DropInsert = 1,
    /// Report the first key of the next insert call as failed without
    /// inserting it (once): a failure the benchmark must count, not a
    /// wrong verdict.
    FailInsert = 2,
    /// Answer the first present key of the next query call as absent
    /// (once).
    FlipQuery = 3,
    /// Answer every queried key present, from now on.
    AllPresent = 4,
}

/// A filter a pass can run over: a bare filter, or [`Backend`] over one.
pub trait Target: BulkFilter + Send + Sized + 'static {
    fn make(spec: &FilterSpec, tracer: Option<Arc<Tracer>>) -> Result<Self, FilterError>;

    /// Arm `fault`; only the wrapper can.
    fn arm(&self, fault: Fault) {
        assert_eq!(fault, Fault::None, "faults need the delegating backend");
    }

    /// Record the filter's load figures, `stored` keys in.
    fn record_load(&self, layers: &mut Layers, stored: usize);
}

impl Target for BulkTcf {
    fn make(spec: &FilterSpec, _: Option<Arc<Tracer>>) -> Result<Self, FilterError> {
        BulkTcf::from_spec(spec)
    }

    fn record_load(&self, layers: &mut Layers, stored: usize) {
        layers.set("tcf.load_factor", self.load_factor());
        layers.set("tcf.spill_frac", self.backing_occupancy() as f64 / stored as f64);
    }
}

impl Target for BulkGqf {
    fn make(spec: &FilterSpec, _: Option<Arc<Tracer>>) -> Result<Self, FilterError> {
        BulkGqf::from_spec(spec)
    }

    fn record_load(&self, layers: &mut Layers, _: usize) {
        layers.set("gqf.load_factor", self.load_factor());
    }
}

pub struct Backend<F> {
    inner: F,
    tracer: Option<Arc<Tracer>>,
    fault: AtomicU8,
}

impl<F: Target> Target for Backend<F> {
    fn make(spec: &FilterSpec, tracer: Option<Arc<Tracer>>) -> Result<Self, FilterError> {
        Ok(Backend { inner: F::make(spec, None)?, tracer, fault: AtomicU8::new(Fault::None as u8) })
    }

    fn arm(&self, fault: Fault) {
        self.fault.store(fault as u8, Ordering::SeqCst);
    }

    fn record_load(&self, layers: &mut Layers, stored: usize) {
        self.inner.record_load(layers, stored);
    }
}

impl<F> Backend<F> {
    /// Take the armed fault if it is `fault`, disarming it.
    fn take(&self, fault: Fault) -> bool {
        self.fault
            .compare_exchange(fault as u8, Fault::None as u8, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
    }

    fn traced<R>(&self, keys: &[u64], call: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let r = call();
        if let Some(t) = &self.tracer {
            t.record(FLUSH, start, Instant::now(), 0, keys);
        }
        r
    }
}

impl<F: FilterMeta> FilterMeta for Backend<F> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn features(&self) -> Features {
        self.inner.features()
    }

    fn table_bytes(&self) -> usize {
        self.inner.table_bytes()
    }

    fn capacity_slots(&self) -> u64 {
        self.inner.capacity_slots()
    }

    fn max_load_factor(&self) -> f64 {
        self.inner.max_load_factor()
    }
}

impl<F: BulkFilter> BulkFilter for Backend<F> {
    fn bulk_insert_report(
        &self,
        keys: &[u64],
        out: &mut [InsertOutcome],
    ) -> Result<(), FilterError> {
        self.traced(keys, || {
            if keys.is_empty() {
                return Ok(());
            }
            if self.take(Fault::DropInsert) {
                out[0] = InsertOutcome::Inserted;
            } else if self.take(Fault::FailInsert) {
                out[0] = InsertOutcome::Failed;
            } else {
                return self.inner.bulk_insert_report(keys, out);
            }
            self.inner.bulk_insert_report(&keys[1..], &mut out[1..])
        })
    }

    fn bulk_insert(&self, keys: &[u64]) -> Result<usize, FilterError> {
        self.traced(keys, || {
            if keys.is_empty() {
                return Ok(0);
            }
            let failed = if self.take(Fault::DropInsert) {
                0
            } else if self.take(Fault::FailInsert) {
                1
            } else {
                return self.inner.bulk_insert(keys);
            };
            Ok(failed + self.inner.bulk_insert(&keys[1..])?)
        })
    }

    fn bulk_query(&self, keys: &[u64], out: &mut [bool]) {
        self.traced(keys, || self.inner.bulk_query(keys, out));
        if self.fault.load(Ordering::SeqCst) == Fault::AllPresent as u8 {
            out.fill(true);
        } else if let Some(hit) = out.iter_mut().find(|hit| **hit) {
            if self.take(Fault::FlipQuery) {
                *hit = false;
            }
        }
    }
}
