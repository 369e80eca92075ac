//! The GQF's quotient-filter core: Robin Hood layout, cluster walks, run
//! rewrites, and the custom right-shift `memmove` (§5.1–5.2).
//!
//! Every method on [`GqfCore`] **requires exclusive access to the cluster
//! it touches** — provided by region locks in the point API
//! ([`crate::point`]) or by even-odd phase ownership in the bulk API
//! ([`crate::bulk`]). The core therefore uses tracked (charged) plain
//! reads/writes rather than per-slot atomics, exactly as the paper's
//! kernels do once a thread owns a region.
//!
//! Layout invariants (the classic quotient-filter encoding, §5.1):
//! * items with quotient `q` form a *run* of slots with ascending
//!   remainders; the first run slot has `continuation = 0`, the rest `1`;
//! * `occupieds[q] = 1` iff a run for `q` exists somewhere;
//! * a slot holds `shifted = 1` iff its item sits right of its canonical
//!   slot; a slot with all three bits clear is empty;
//! * runs are ordered by quotient and packed into *clusters* — maximal
//!   empty-free slot ranges, each starting at an unshifted slot.

use crate::bits::{self, MetaCursor, Metadata, Tracked};
use crate::layout::Layout;
use crate::runs::{
    decode_group, decode_run, encode_run, merge_entry, remove_entry, total_count, Entry,
};
use filter_core::FilterError;
use gpu_sim::GpuBuffer;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The exclusive-access quotient filter core shared by the GQF's point and
/// bulk APIs.
pub struct GqfCore {
    layout: Layout,
    remainders: GpuBuffer,
    meta: Metadata,
    /// Physical slots currently holding data (load-factor accounting).
    used_slots: AtomicUsize,
    /// Total multiset size (sum of counts).
    items: AtomicUsize,
}

/// A run collected during a cluster walk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Run {
    /// The run's quotient.
    pub quotient: usize,
    /// Decoded entries, ascending by remainder.
    pub entries: Vec<Entry>,
}

impl GqfCore {
    /// Allocate an empty filter with the given layout.
    pub fn new(layout: Layout) -> Self {
        let n = layout.physical_slots();
        GqfCore {
            remainders: GpuBuffer::new(n, layout.r_bits),
            meta: Metadata::new(n),
            used_slots: AtomicUsize::new(0),
            items: AtomicUsize::new(0),
            layout,
        }
    }

    /// Table geometry.
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// Total multiset size.
    pub fn items(&self) -> usize {
        self.items.load(Ordering::Relaxed)
    }

    /// Physical slots in use.
    pub fn used_slots(&self) -> usize {
        self.used_slots.load(Ordering::Relaxed)
    }

    /// Load factor over canonical slots.
    pub fn load_factor(&self) -> f64 {
        self.used_slots() as f64 / self.layout.canonical_slots() as f64
    }

    /// Bytes owned by the table (remainders + metadata bitvectors).
    pub fn bytes(&self) -> usize {
        self.remainders.bytes() + self.meta.bytes()
    }

    /// Split a key's 64-bit hash into (quotient, remainder).
    #[inline]
    pub fn parts(&self, key: u64) -> (usize, u64) {
        self.layout.split(filter_core::hash64(key))
    }

    /// Read-only probe of the cluster start covering quotient `q` — used
    /// by the point API to size its lock span before acquiring. May be
    /// stale under concurrency; callers must re-verify under their locks.
    pub fn probe_cluster_start(&self, q: usize) -> usize {
        let mut shift = Tracked::new(&self.meta.shifteds);
        self.cluster_start(&mut shift, q)
    }

    // ------------------------------------------------------------------
    // Walks (read-only). Each is one word-at-a-time rank / select walk
    // over a metadata bitvector (`crate::bits`).
    // ------------------------------------------------------------------

    /// Start of the cluster covering `q`: the nearest unshifted slot at or
    /// left of `q`.
    fn cluster_start(&self, shift: &mut Tracked<'_>, q: usize) -> usize {
        bits::prev_clear(shift, q)
    }

    /// Last slot of the run starting at `s`: the slot before the first
    /// clear continuation bit after `s` (clamped to the table end).
    fn run_end(&self, cont: &mut Tracked<'_>, s: usize) -> usize {
        let n = self.layout.physical_slots();
        if s + 1 >= n {
            return s;
        }
        bits::next_clear(cont, s + 1, n) - 1
    }

    /// Start slot of quotient `q`'s run (or where it would begin if `q` is
    /// not yet occupied). Requires slot `q` to be non-empty or occupied —
    /// i.e. not the trivial-insert case.
    fn run_start(&self, cur: &mut MetaCursor<'_>, q: usize) -> usize {
        if !cur.shift.get_bit(q) {
            return q;
        }
        // Rank then select. The cluster's runs appear in quotient order,
        // one per occupied quotient, and its first run belongs to `c0` (a
        // cluster start is an unshifted run start). So `q`'s run is the
        // (d+1)-th run of the cluster, where `d` counts the occupied
        // quotients in [c0, q). Every run after the first begins at a
        // clear continuation bit, which makes its start the d-th clear
        // continuation bit after `c0`.
        let c0 = self.cluster_start(&mut cur.shift, q);
        let d = bits::rank_set(&mut cur.occ, c0, q);
        let s = bits::select_clear(&mut cur.cont, c0 + 1, d, self.layout.physical_slots());
        // Robin Hood: a run never starts left of its canonical slot.
        debug_assert!(s >= q || !cur.occ.get_bit(q), "run start {s} left of quotient {q}");
        s.max(q)
    }

    /// First empty slot at or after `from`.
    fn first_empty(&self, cur: &mut MetaCursor<'_>, from: usize) -> Result<usize, FilterError> {
        let n = self.layout.physical_slots();
        let i = bits::next_empty(cur, from, n);
        if i < n {
            Ok(i)
        } else {
            Err(FilterError::Full)
        }
    }

    /// Read the raw slot values of the run starting at `start`.
    /// Returns (values, end_exclusive).
    fn read_run(
        &self,
        cont: &mut Tracked<'_>,
        rem: &mut Tracked<'_>,
        start: usize,
    ) -> (Vec<u64>, usize) {
        let end = self.run_end(cont, start);
        let vals = (start..=end).map(|i| rem.get(i)).collect();
        (vals, end + 1)
    }

    // ------------------------------------------------------------------
    // Mutations (require exclusive cluster access)
    // ------------------------------------------------------------------

    /// Shift `[a, e)` one slot right (`e` must be empty): the custom
    /// `memmove` of §5.2, walked in reverse so overlapping ranges are
    /// safe. Moved slots become shifted; continuation bits travel with
    /// their slots.
    fn memmove_right_one(
        &self,
        cur: &mut MetaCursor<'_>,
        rem: &mut Tracked<'_>,
        a: usize,
        e: usize,
    ) {
        debug_assert!(self.meta.is_empty_slot(cur, e));
        for i in (a..e).rev() {
            let v = rem.get(i);
            rem.set(i + 1, v);
            let c = cur.cont.get_bit(i);
            cur.cont.set_bit(i + 1, c);
            cur.shift.set_bit(i + 1, true);
        }
    }

    /// Open `k` holes at `[pos, pos + k)`, shifting cluster contents right.
    ///
    /// `origin_q` is the canonical slot of the item being placed. The
    /// shift is refused (`Full`) if it would escape the two regions the
    /// caller owns — the structural guarantee behind both the point API's
    /// two-lock scheme and the bulk API's even-odd phases (§5.2/§5.3:
    /// clusters stay under 8192 slots at supported load factors; an
    /// overfilled filter fails the insert instead of racing a neighbour).
    fn open_gap(
        &self,
        cur: &mut MetaCursor<'_>,
        rem: &mut Tracked<'_>,
        origin_q: usize,
        pos: usize,
        k: usize,
    ) -> Result<(), FilterError> {
        use crate::layout::REGION_SLOTS;
        let owned_end = ((self.layout.region_of(origin_q) + 2) * REGION_SLOTS)
            .min(self.layout.physical_slots());
        // Pre-flight: the gap must be coverable by empties inside the
        // owned span, otherwise nothing is moved and the insert fails
        // cleanly (no partial state to roll back).
        let mut found = 0usize;
        let mut i = pos;
        while i < owned_end && found < k {
            if self.meta.is_empty_slot(cur, i) {
                found += 1;
            }
            i += 1;
        }
        if found < k {
            return Err(FilterError::Full);
        }
        for step in 0..k {
            let target = pos + step;
            let e = self.first_empty(cur, target)?;
            debug_assert!(e < owned_end);
            if e != target {
                self.memmove_right_one(cur, rem, target, e);
                // The vacated slot is a hole until the caller writes it.
                cur.cont.set_bit(target, false);
                cur.shift.set_bit(target, false);
            }
        }
        self.used_slots.fetch_add(k, Ordering::Relaxed);
        Ok(())
    }

    /// Write a run's slots at `[start, start + vals.len())` with correct
    /// metadata for quotient `q`.
    fn write_run(
        &self,
        cur: &mut MetaCursor<'_>,
        rem: &mut Tracked<'_>,
        q: usize,
        start: usize,
        vals: &[u64],
    ) {
        for (i, &v) in vals.iter().enumerate() {
            rem.set(start + i, v);
            cur.cont.set_bit(start + i, i != 0);
            cur.shift.set_bit(start + i, if i == 0 { start != q } else { true });
        }
    }

    /// Add `delta` instances of the item hashing to `(q, r)`.
    ///
    /// Fast paths: an empty canonical slot costs one slot write; growing a
    /// run shifts only the cluster tail right. Requires exclusive access
    /// to the affected regions.
    pub fn upsert(&self, q: usize, r: u64, delta: u64) -> Result<(), FilterError> {
        debug_assert!(q < self.layout.canonical_slots());
        let mut cur = self.meta.cursor();
        let mut rem = Tracked::new(&self.remainders);
        let was_occupied = cur.occ.get_bit(q);

        if !was_occupied && self.meta.is_empty_slot(&mut cur, q) && delta == 1 {
            // Trivial case (§5.1): the canonical slot is free.
            rem.set(q, r);
            cur.occ.set_bit(q, true);
            self.used_slots.fetch_add(1, Ordering::Relaxed);
            self.items.fetch_add(1, Ordering::Relaxed);
            return Ok(());
        }

        if was_occupied {
            let start = self.run_start(&mut cur, q);
            let (old_vals, end_ex) = self.read_run(&mut cur.cont, &mut rem, start);
            let mut entries = decode_run(&old_vals, self.layout.r_bits);
            merge_entry(&mut entries, r, delta);
            let new_vals = encode_run(&entries, self.layout.r_bits);
            let old_len = end_ex - start;
            if new_vals.len() > old_len {
                self.open_gap(&mut cur, &mut rem, q, end_ex, new_vals.len() - old_len)?;
            }
            debug_assert!(new_vals.len() >= old_len, "upsert never shrinks a run");
            self.write_run(&mut cur, &mut rem, q, start, &new_vals);
        } else {
            // New run: find its position among the cluster's runs.
            let start =
                if self.meta.is_empty_slot(&mut cur, q) { q } else { self.run_start(&mut cur, q) };
            let entries = [Entry { remainder: r, count: delta }];
            let new_vals = encode_run(&entries, self.layout.r_bits);
            self.open_gap(&mut cur, &mut rem, q, start, new_vals.len())?;
            self.write_run(&mut cur, &mut rem, q, start, &new_vals);
            cur.occ.set_bit(q, true);
        }
        self.items.fetch_add(delta as usize, Ordering::Relaxed);
        Ok(())
    }

    /// Count of items hashing to `(q, r)` (0 when absent; never
    /// undercounts true insertions of the same fingerprint).
    ///
    /// Decodes the run's counter groups in place, straight from the
    /// remainder slots and with the greedy rules of [`decode_run`], and
    /// stops at the first group head above `r` (a run's remainders
    /// ascend). Allocates nothing.
    pub fn query(&self, q: usize, r: u64) -> u64 {
        let mut cur = self.meta.cursor();
        if !cur.occ.get_bit(q) {
            return 0;
        }
        let mut rem = Tracked::new(&self.remainders);
        let start = self.run_start(&mut cur, q);
        let len = self.run_end(&mut cur.cont, start) + 1 - start;
        let mut i = 0usize;
        while i < len {
            if rem.get(start + i) > r {
                break;
            }
            let (entry, group_len) =
                decode_group(|k| rem.get(start + k), i, len, self.layout.r_bits);
            if entry.remainder == r {
                return entry.count;
            }
            i += group_len;
        }
        0
    }

    /// Collect every run of the cluster starting at `c0`.
    /// Returns the runs and the exclusive cluster end.
    fn collect_cluster(
        &self,
        cur: &mut MetaCursor<'_>,
        rem: &mut Tracked<'_>,
        c0: usize,
    ) -> (Vec<Run>, usize) {
        let mut runs = Vec::new();
        let mut s = c0;
        let mut q_cursor = c0;
        while s < self.layout.physical_slots() && !self.meta.is_empty_slot(cur, s) {
            let b = bits::next_set(&mut cur.occ, q_cursor, s + 1);
            debug_assert!(b <= s, "run at {s} has no occupied quotient");
            let (vals, end_ex) = self.read_run(&mut cur.cont, rem, s);
            runs.push(Run { quotient: b, entries: decode_run(&vals, self.layout.r_bits) });
            q_cursor = b + 1;
            s = end_ex;
        }
        (runs, s)
    }

    /// Rewrite the cluster that started at `c0` from `runs`, clearing any
    /// freed tail slots up to `old_end`. Used by the shrink paths
    /// (deletes) — the "more compute intensive" operation of §6.4.
    fn relayout_cluster(
        &self,
        cur: &mut MetaCursor<'_>,
        rem: &mut Tracked<'_>,
        c0: usize,
        runs: &[Run],
        old_end: usize,
    ) {
        let mut pos = c0;
        for run in runs {
            let start = pos.max(run.quotient);
            // Freed slots between runs become empty.
            for i in pos..start {
                cur.cont.set_bit(i, false);
                cur.shift.set_bit(i, false);
            }
            let vals = encode_run(&run.entries, self.layout.r_bits);
            self.write_run(cur, rem, run.quotient, start, &vals);
            pos = start + vals.len();
        }
        for i in pos..old_end {
            cur.cont.set_bit(i, false);
            cur.shift.set_bit(i, false);
        }
    }

    /// Remove `delta` instances of `(q, r)`. Returns `true` if the
    /// fingerprint was present.
    pub fn delete(&self, q: usize, r: u64, delta: u64) -> Result<bool, FilterError> {
        let mut cur = self.meta.cursor();
        if !cur.occ.get_bit(q) {
            return Ok(false);
        }
        let mut rem = Tracked::new(&self.remainders);
        let c0 = self.cluster_start(&mut cur.shift, q);
        let (mut runs, old_end) = self.collect_cluster(&mut cur, &mut rem, c0);
        let Some(idx) = runs.iter().position(|run| run.quotient == q) else {
            return Ok(false);
        };
        let before = total_count(&runs[idx].entries);
        if !remove_entry(&mut runs[idx].entries, r, delta) {
            return Ok(false);
        }
        let removed = before - total_count(&runs[idx].entries);
        if runs[idx].entries.is_empty() {
            runs.remove(idx);
            cur.occ.set_bit(q, false);
        }
        let used_before: usize = old_end - c0;
        self.relayout_cluster(&mut cur, &mut rem, c0, &runs, old_end);
        let used_after: usize =
            runs.iter().map(|r2| crate::runs::encoded_len(&r2.entries, self.layout.r_bits)).sum();
        self.used_slots.fetch_sub(used_before - used_after, Ordering::Relaxed);
        self.items.fetch_sub(removed as usize, Ordering::Relaxed);
        Ok(true)
    }

    /// Enumerate the stored multiset as `(hash_prefix, count)` pairs —
    /// the lossless `h(S)` representation (supports merging, resizing,
    /// and the database-join use cases of §1).
    pub fn enumerate(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        let mut cur = self.meta.cursor();
        let mut rem = Tracked::new(&self.remainders);
        let mut s = 0usize;
        while s < self.layout.physical_slots() {
            if self.meta.is_empty_slot(&mut cur, s) {
                s += 1;
                continue;
            }
            let (runs, end) = self.collect_cluster(&mut cur, &mut rem, s);
            for run in runs {
                for e in run.entries {
                    out.push((self.layout.join(run.quotient, e.remainder), e.count));
                }
            }
            s = end;
        }
        out
    }

    /// Streaming iterator over the stored multiset as `(hash, count)`
    /// pairs, cluster by cluster — the enumeration API database engines
    /// need for merges and joins (§1) without materializing a vector.
    /// Requires no concurrent writers.
    pub fn iter(&self) -> MultisetIter<'_> {
        MultisetIter { core: self, next_slot: 0, pending: Vec::new() }
    }

    /// Verify the structural invariants (test / debugging aid): runs
    /// sorted, metadata consistent, slot accounting exact. Panics on
    /// violation.
    pub fn check_invariants(&self) {
        let mut cur = self.meta.cursor();
        let mut rem = Tracked::new(&self.remainders);
        let mut s = 0usize;
        let mut used = 0usize;
        let mut items = 0usize;
        while s < self.layout.physical_slots() {
            if self.meta.is_empty_slot(&mut cur, s) {
                assert!(
                    !cur.cont.get_bit(s) && !cur.shift.get_bit(s),
                    "empty slot {s} has stray bits"
                );
                s += 1;
                continue;
            }
            assert!(!cur.shift.get_bit(s), "cluster start {s} marked shifted");
            let (runs, end) = self.collect_cluster(&mut cur, &mut rem, s);
            let mut prev_q = None;
            for run in &runs {
                assert!(run.quotient <= end, "quotient beyond cluster");
                if let Some(p) = prev_q {
                    assert!(run.quotient > p, "runs out of quotient order");
                }
                prev_q = Some(run.quotient);
                let mut prev_r = None;
                for e in &run.entries {
                    assert!(e.count >= 1);
                    if let Some(pr) = prev_r {
                        assert!(e.remainder > pr, "run remainders out of order");
                    }
                    prev_r = Some(e.remainder);
                    items += e.count as usize;
                }
            }
            used += end - s;
            s = end;
        }
        assert_eq!(used, self.used_slots(), "used-slot accounting drift");
        assert_eq!(items, self.items(), "item accounting drift");
    }
}

/// Streaming `(hash, count)` iterator over a [`GqfCore`].
pub struct MultisetIter<'a> {
    core: &'a GqfCore,
    next_slot: usize,
    /// Entries of the most recently decoded cluster, reversed for pop().
    pending: Vec<(u64, u64)>,
}

impl Iterator for MultisetIter<'_> {
    type Item = (u64, u64);

    fn next(&mut self) -> Option<(u64, u64)> {
        loop {
            if let Some(item) = self.pending.pop() {
                return Some(item);
            }
            // Advance to the next cluster.
            let mut cur = self.core.meta.cursor();
            let mut rem = Tracked::new(&self.core.remainders);
            while self.next_slot < self.core.layout.physical_slots()
                && self.core.meta.is_empty_slot(&mut cur, self.next_slot)
            {
                self.next_slot += 1;
            }
            if self.next_slot >= self.core.layout.physical_slots() {
                return None;
            }
            let (runs, end) = self.core.collect_cluster(&mut cur, &mut rem, self.next_slot);
            self.next_slot = end;
            for run in runs.into_iter().rev() {
                for e in run.entries.into_iter().rev() {
                    self.pending.push((self.core.layout.join(run.quotient, e.remainder), e.count));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bits::{next_clear_scalar, prev_clear_scalar};

    fn small() -> GqfCore {
        GqfCore::new(Layout::new(10, 8).unwrap())
    }

    /// Reference `run_start`: per-bit walks and one run-end jump per
    /// occupied quotient between the cluster start and `q`.
    fn run_start_by_jumps(f: &GqfCore, cur: &mut MetaCursor<'_>, q: usize) -> usize {
        if !cur.shift.get_bit(q) {
            return q;
        }
        let n = f.layout.physical_slots();
        let c0 = prev_clear_scalar(&mut cur.shift, q);
        let mut s = c0;
        for b in c0..q {
            if cur.occ.get_bit(b) {
                let end =
                    if s + 1 >= n { s } else { next_clear_scalar(&mut cur.cont, s + 1, n) - 1 };
                s = end + 1;
            }
        }
        s.max(q)
    }

    /// Reference `query`: locate the run by jumps, copy it out with
    /// `read_run`, decode it with `decode_run` and binary-search the
    /// entries.
    fn query_by_decode(f: &GqfCore, q: usize, r: u64) -> u64 {
        let mut cur = f.meta.cursor();
        if !cur.occ.get_bit(q) {
            return 0;
        }
        let mut rem = Tracked::new(&f.remainders);
        let start = run_start_by_jumps(f, &mut cur, q);
        let (vals, _) = f.read_run(&mut cur.cont, &mut rem, start);
        let entries = decode_run(&vals, f.layout.r_bits);
        entries.binary_search_by_key(&r, |e| e.remainder).map(|i| entries[i].count).unwrap_or(0)
    }

    fn lcg(seed: u64) -> impl FnMut() -> u64 {
        let mut x = seed;
        move || {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            x >> 17
        }
    }

    #[test]
    fn rank_select_run_start_matches_jump_walk_at_90_percent() {
        let f = GqfCore::new(Layout::new(12, 8).unwrap());
        let mut next = lcg(7);
        while f.load_factor() < 0.9 {
            let q = (next() % 4096) as usize;
            f.upsert(q, next() % 256, 1 + next() % 2).unwrap();
        }
        f.check_invariants();
        let mut cur = f.meta.cursor();
        let mut shifted = 0usize;
        for q in 0..f.layout.canonical_slots() {
            if !cur.occ.get_bit(q) && f.meta.is_empty_slot(&mut cur, q) {
                continue; // run_start's precondition: slot non-empty or occupied
            }
            shifted += usize::from(cur.shift.get_bit(q));
            let want = run_start_by_jumps(&f, &mut cur, q);
            assert_eq!(f.run_start(&mut cur, q), want, "q={q}");
        }
        assert!(shifted > 1000, "a 90% fill shifts most runs ({shifted})");
    }

    #[test]
    fn in_place_query_matches_decode_reference() {
        let f = GqfCore::new(Layout::new(12, 8).unwrap());
        let counts = [1u64, 2, 3, 4, 255, 256, 300, 70_000];
        let mut stored: Vec<(usize, u64, u64)> = Vec::new();
        // Adjacent quotients with multi-slot runs form one long cluster;
        // every count appears at both remainder extremes.
        for (j, &c) in counts.iter().enumerate() {
            for r in [0u64, 255] {
                stored.push((100 + j, r, c));
            }
        }
        // One run holding every counter shape between the extremes.
        for (i, &c) in counts.iter().enumerate() {
            stored.push((108, 1 + 30 * i as u64, c));
        }
        // A counter whose digit payload (5) equals the neighbouring
        // remainder, as in `runs::digit_values_may_collide_with_other_remainders`.
        stored.push((109, 5, 2));
        stored.push((109, 9, 3 + 5));
        stored.push((4095, 7, 300)); // a run spilling into the pad
        for &(q, r, c) in &stored {
            f.upsert(q, r, c).unwrap();
        }
        f.check_invariants();
        for &(q, r, c) in &stored {
            assert_eq!(f.query(q, r), c, "stored q={q} r={r}");
            assert_eq!(f.query(q, r), query_by_decode(&f, q, r), "stored q={q} r={r}");
        }
        let mut next = lcg(11);
        let mut probes = 0;
        while probes < 10_000 {
            // Half the probes hit an occupied quotient with a missing remainder.
            let q = if probes % 2 == 0 {
                stored[(next() % stored.len() as u64) as usize].0
            } else {
                (next() % 4096) as usize
            };
            let r = next() % 256;
            if stored.iter().any(|&(sq, sr, _)| (sq, sr) == (q, r)) {
                continue;
            }
            assert_eq!(f.query(q, r), 0, "absent q={q} r={r}");
            assert_eq!(query_by_decode(&f, q, r), 0, "absent q={q} r={r}");
            probes += 1;
        }
    }

    #[test]
    fn trivial_insert_and_query() {
        let f = small();
        f.upsert(100, 7, 1).unwrap();
        assert_eq!(f.query(100, 7), 1);
        assert_eq!(f.query(100, 8), 0);
        assert_eq!(f.query(101, 7), 0);
        f.check_invariants();
    }

    #[test]
    fn same_quotient_builds_sorted_run() {
        let f = small();
        for r in [9u64, 3, 7, 1, 200] {
            f.upsert(50, r, 1).unwrap();
        }
        for r in [1u64, 3, 7, 9, 200] {
            assert_eq!(f.query(50, r), 1, "remainder {r}");
        }
        f.check_invariants();
    }

    #[test]
    fn colliding_quotients_shift_robin_hood() {
        let f = small();
        // Fill quotients 10..20 with two remainders each: clusters form.
        for q in 10..20usize {
            f.upsert(q, 5, 1).unwrap();
            f.upsert(q, 9, 1).unwrap();
        }
        for q in 10..20usize {
            assert_eq!(f.query(q, 5), 1, "q {q}");
            assert_eq!(f.query(q, 9), 1, "q {q}");
            assert_eq!(f.query(q, 6), 0, "q {q}");
        }
        f.check_invariants();
    }

    #[test]
    fn duplicate_inserts_count() {
        let f = small();
        for _ in 0..5 {
            f.upsert(30, 77, 1).unwrap();
        }
        assert_eq!(f.query(30, 77), 5);
        f.upsert(30, 77, 100).unwrap();
        assert_eq!(f.query(30, 77), 105);
        f.check_invariants();
    }

    #[test]
    fn counted_insert_in_one_call() {
        let f = small();
        f.upsert(40, 3, 1000).unwrap();
        assert_eq!(f.query(40, 3), 1000);
        assert_eq!(f.items(), 1000);
        f.check_invariants();
    }

    #[test]
    fn delete_decrements_and_removes() {
        let f = small();
        f.upsert(60, 8, 3).unwrap();
        assert!(f.delete(60, 8, 1).unwrap());
        assert_eq!(f.query(60, 8), 2);
        assert!(f.delete(60, 8, 2).unwrap());
        assert_eq!(f.query(60, 8), 0);
        assert!(!f.delete(60, 8, 1).unwrap());
        assert_eq!(f.items(), 0);
        assert_eq!(f.used_slots(), 0);
        f.check_invariants();
    }

    #[test]
    fn delete_middle_run_relayouts_cluster() {
        let f = small();
        for q in 70..75usize {
            for r in [2u64, 4] {
                f.upsert(q, r, 1).unwrap();
            }
        }
        assert!(f.delete(72, 2, 1).unwrap());
        assert!(f.delete(72, 4, 1).unwrap());
        f.check_invariants();
        for q in 70..75usize {
            if q == 72 {
                assert_eq!(f.query(q, 2), 0);
            } else {
                assert_eq!(f.query(q, 2), 1, "q {q}");
                assert_eq!(f.query(q, 4), 1, "q {q}");
            }
        }
    }

    #[test]
    fn enumerate_returns_exact_multiset() {
        let f = small();
        let inserted = [(5usize, 1u64, 3u64), (5, 9, 1), (6, 1, 2), (900, 200, 7)];
        for &(q, r, c) in &inserted {
            f.upsert(q, r, c).unwrap();
        }
        let mut got = f.enumerate();
        got.sort_unstable();
        let mut want: Vec<(u64, u64)> =
            inserted.iter().map(|&(q, r, c)| (f.layout().join(q, r), c)).collect();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn dense_region_fills_and_recovers() {
        let f = small();
        // Hammer a narrow quotient range to force long clusters and
        // multi-run shifting.
        for i in 0..200u64 {
            f.upsert(500 + (i % 10) as usize, i, 1).unwrap();
        }
        f.check_invariants();
        for i in 0..200u64 {
            assert!(f.query(500 + (i % 10) as usize, i) >= 1, "item {i}");
        }
        for i in 0..200u64 {
            assert!(f.delete(500 + (i % 10) as usize, i, 1).unwrap(), "delete {i}");
        }
        assert_eq!(f.items(), 0);
        f.check_invariants();
    }

    #[test]
    fn random_workload_matches_reference_model() {
        use std::collections::HashMap;
        let f = GqfCore::new(Layout::new(12, 8).unwrap());
        let mut model: HashMap<(usize, u64), u64> = HashMap::new();
        let mut rng = 0x12345u64;
        let mut next = || {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            rng
        };
        for _ in 0..3000 {
            let q = (next() % 512) as usize; // dense → long clusters
            let r = next() % 256;
            match next() % 4 {
                0 | 1 => {
                    f.upsert(q, r, 1).unwrap();
                    *model.entry((q, r)).or_default() += 1;
                }
                2 => {
                    let c = next() % 50 + 1;
                    f.upsert(q, r, c).unwrap();
                    *model.entry((q, r)).or_default() += c;
                }
                _ => {
                    let present = model.get(&(q, r)).copied().unwrap_or(0);
                    let deleted = f.delete(q, r, 1).unwrap();
                    assert_eq!(deleted, present > 0, "delete mismatch q={q} r={r}");
                    if present > 0 {
                        if present == 1 {
                            model.remove(&(q, r));
                        } else {
                            model.insert((q, r), present - 1);
                        }
                    }
                }
            }
        }
        f.check_invariants();
        for (&(q, r), &c) in &model {
            assert_eq!(f.query(q, r), c, "final count q={q} r={r}");
        }
    }

    #[test]
    fn full_filter_errors() {
        // 64 canonical slots + 16384 pad slots; 16-bit remainders give
        // enough distinct fingerprints to exhaust every physical slot.
        let f = GqfCore::new(Layout::new(6, 16).unwrap());
        let physical = f.layout().physical_slots() as u64;
        // Ascending (q, r) order appends at cluster end, so filling is
        // O(n) — each insert still decodes only its own run.
        let mut n = 0u64;
        let mut err = None;
        'outer: for q in 0..64usize {
            for r in 0..2048u64 {
                match f.upsert(q, r, 1) {
                    Ok(()) => n += 1,
                    Err(e) => {
                        err = Some(e);
                        break 'outer;
                    }
                }
                assert!(n <= physical + 1, "filter never filled");
            }
        }
        assert_eq!(err, Some(FilterError::Full));
        // A sample of items inserted before the failure is queryable.
        for r in (0..2048u64).step_by(211) {
            assert_eq!(f.query(0, r), 1);
        }
    }

    #[test]
    fn iter_streams_same_multiset_as_enumerate() {
        let f = small();
        for (q, r, c) in [(3usize, 9u64, 2u64), (3, 11, 1), (500, 0, 7), (900, 255, 3)] {
            f.upsert(q, r, c).unwrap();
        }
        let mut streamed: Vec<(u64, u64)> = f.iter().collect();
        let mut enumerated = f.enumerate();
        streamed.sort_unstable();
        enumerated.sort_unstable();
        assert_eq!(streamed, enumerated);
    }

    #[test]
    fn iter_on_empty_filter_is_empty() {
        let f = small();
        assert_eq!(f.iter().count(), 0);
    }

    #[test]
    fn iter_preserves_quotient_order_within_cluster() {
        let f = small();
        for q in 100..110usize {
            f.upsert(q, 1, 1).unwrap();
            f.upsert(q, 2, 1).unwrap();
        }
        let hashes: Vec<u64> = f.iter().map(|(h, _)| h).collect();
        let mut sorted = hashes.clone();
        sorted.sort_unstable();
        assert_eq!(hashes, sorted, "cluster iteration yields ascending hashes");
    }

    #[test]
    fn cluster_spanning_boundary_of_quotient_space() {
        let f = small();
        let last = f.layout().canonical_slots() - 1;
        // Push a cluster into the spill pad.
        for r in 0..20u64 {
            f.upsert(last, r, 1).unwrap();
        }
        for r in 0..20u64 {
            assert_eq!(f.query(last, r), 1);
        }
        f.check_invariants();
    }
}
