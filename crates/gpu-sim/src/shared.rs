//! Block shared memory: the fast scratch a thread block stages data into.
//!
//! In the bulk kernels (bulk TCF §4.2), a cooperative group loads its block
//! into shared memory, performs all reads/writes there with shared-memory
//! atomics, and writes the result back with one coalesced global store. In
//! this substrate a simulated block runs on one CPU worker, so the scratch
//! is a fixed-capacity inline buffer on that worker's stack — like a
//! kernel's statically sized `__shared__` array, it never touches the heap.
//! Accesses are recorded as `SharedOps`, which the cost model prices far
//! below global traffic.

use crate::metrics::{bump, Counter};

/// Shared-memory scratch for one simulated thread block: up to
/// [`SharedScratch::CAPACITY`] words, stored inline.
#[derive(Debug)]
pub struct SharedScratch {
    data: [u64; SharedScratch::CAPACITY],
    len: usize,
}

impl SharedScratch {
    /// Words one block's scratch holds: a whole bulk-TCF block (block
    /// sizes are validated to at most 128 slots).
    pub const CAPACITY: usize = 128;

    /// A scratch of `len` zeroed shared words.
    ///
    /// # Panics
    /// If `len` exceeds [`Self::CAPACITY`].
    pub fn new(len: usize) -> Self {
        assert!(len <= Self::CAPACITY, "shared scratch of {len} words exceeds {}", Self::CAPACITY);
        SharedScratch { data: [0; Self::CAPACITY], len }
    }

    /// Number of words.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if zero-length.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Read one word (counts one shared op).
    #[inline]
    pub fn read(&self, i: usize) -> u64 {
        bump(Counter::SharedOps, 1);
        self.as_slice()[i]
    }

    /// Write one word (counts one shared op).
    #[inline]
    pub fn write(&mut self, i: usize, v: u64) {
        bump(Counter::SharedOps, 1);
        self.as_mut_slice()[i] = v;
    }

    /// Shared-memory atomicAdd (single simulated block ⇒ plain add, but
    /// priced as a shared atomic).
    #[inline]
    pub fn atomic_add(&mut self, i: usize, delta: u64) -> u64 {
        bump(Counter::SharedOps, 1);
        let slot = &mut self.as_mut_slice()[i];
        let prev = *slot;
        *slot = prev.wrapping_add(delta);
        prev
    }

    /// Bulk-fill from global values (counts `len` shared ops).
    pub fn fill_from(&mut self, values: &[u64]) {
        bump(Counter::SharedOps, values.len() as u64);
        self.as_mut_slice()[..values.len()].copy_from_slice(values);
    }

    /// Raw view for in-block algorithms (sorting a staged block, merge
    /// passes). Traffic must be accounted by the caller via
    /// [`Self::charge`].
    pub fn as_mut_slice(&mut self) -> &mut [u64] {
        &mut self.data[..self.len]
    }

    /// Read-only raw view.
    pub fn as_slice(&self) -> &[u64] {
        &self.data[..self.len]
    }

    /// Record `n` shared-memory operations performed through a raw view.
    pub fn charge(&self, n: u64) {
        bump(Counter::SharedOps, n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{self, Counter};

    #[test]
    fn read_write_roundtrip() {
        let mut s = SharedScratch::new(8);
        s.write(3, 99);
        assert_eq!(s.read(3), 99);
        assert_eq!(s.read(0), 0);
    }

    #[test]
    fn atomic_add_returns_previous() {
        let mut s = SharedScratch::new(2);
        assert_eq!(s.atomic_add(0, 5), 0);
        assert_eq!(s.atomic_add(0, 2), 5);
        assert_eq!(s.read(0), 7);
    }

    #[test]
    fn traffic_recorded() {
        let before = metrics::snapshot_current_thread();
        let mut s = SharedScratch::new(4);
        s.write(0, 1);
        s.read(0);
        s.atomic_add(1, 1);
        s.fill_from(&[1, 2, 3]);
        let diff = metrics::snapshot_current_thread().since(&before);
        assert_eq!(diff.get(Counter::SharedOps), 1 + 1 + 1 + 3);
    }

    #[test]
    fn charge_for_raw_views() {
        let before = metrics::snapshot_current_thread();
        let mut s = SharedScratch::new(4);
        s.as_mut_slice()[2] = 7;
        s.charge(1);
        let diff = metrics::snapshot_current_thread().since(&before);
        assert_eq!(diff.get(Counter::SharedOps), 1);
        assert_eq!(s.as_slice()[2], 7);
    }

    #[test]
    fn views_are_bounded_by_len() {
        let mut s = SharedScratch::new(3);
        assert_eq!(s.as_slice().len(), 3);
        assert_eq!(s.as_mut_slice().len(), 3);
        assert_eq!(SharedScratch::new(SharedScratch::CAPACITY).len(), SharedScratch::CAPACITY);
    }

    #[test]
    #[should_panic]
    fn over_capacity_panics() {
        let _ = SharedScratch::new(SharedScratch::CAPACITY + 1);
    }
}
