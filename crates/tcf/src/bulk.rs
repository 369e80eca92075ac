//! The bulk TCF (§4.2): host-side batched kernels that sort items by
//! block, stage each block in shared memory, zip-merge the incoming
//! fingerprints with the block's sorted contents, and write the result
//! back as one coalesced 128-byte-wide store.
//!
//! Unlike the point TCF, blocks keep their live fingerprints *sorted* in a
//! prefix (queries binary-search in `O(log B)`), and a batch is placed in
//! three sorted passes that mirror the paper's three per-block lists:
//!
//! 1. **shortcut pass** — items merge into their primary block while its
//!    fill stays under the shortcut threshold;
//! 2. **POTC pass** — spilled items go to the less-full of their two
//!    blocks, to capacity;
//! 3. **spill pass** — whatever remains tries the other block, then the
//!    backing table.
//!
//! Every pass is a region kernel: one thread owns one block, so all block
//! mutations are exclusive and writes coalesce. A kernel decodes its
//! staged block once into stack arrays (a `BlockImage`; block sizes are
//! capped at one [`SharedScratch`]), sorts and merges there without heap
//! allocation, and the write-back is word-granular: every backing word
//! the block fully covers is published with one plain store, and only the
//! edge words it shares with a neighbouring block (12-bit fingerprints,
//! 5 per word) take a masked read-modify-write
//! ([`GpuBuffer::write_span_coalesced`]).
//!
//! Each pass runs the substrate's bulk-synchronous phase pattern —
//! data-parallel **partition** ([`Device::par_map`] computes every item's
//! target block), device-bounded **sort**
//! ([`Device::sorted_segments`] groups items by block), and a per-block
//! **apply** ([`Device::launch_segments`]) — all bounded by the
//! [`FilterSpec::parallelism`] worker budget, and all
//! scheduling-independent: every budget yields bit-for-bit identical
//! tables (the parallel-oracle test tier's contract).

use crate::backing::BackingTable;
use crate::config::TcfConfig;
use filter_core::fingerprint::EMPTY;
use filter_core::{
    ApiMode, DeleteOutcome, Features, FilterError, FilterMeta, FilterSpec, Fingerprint, HashPair,
    InsertOutcome, Operation,
};
use gpu_sim::{Device, GpuBuffer, SharedScratch};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Seed for the fingerprint hash (matches the point TCF).
const SEED_FP: u64 = 0xf1f0_feed;

/// A bulk-API two-choice filter.
///
/// ```
/// use tcf::BulkTcf;
/// use filter_core::BulkFilter;
///
/// let f = BulkTcf::new(1 << 12).unwrap();
/// let keys: Vec<u64> = (0..2000u64).map(|i| i.wrapping_mul(0x9e3779b97f4a7c15)).collect();
/// assert_eq!(f.bulk_insert(&keys).unwrap(), 0);
/// assert!(f.bulk_query_vec(&keys).iter().all(|&hit| hit));
/// ```
pub struct BulkTcf {
    cfg: TcfConfig,
    table: GpuBuffer,
    /// Optional per-slot value store; values permute with their
    /// fingerprints through every zip-merge and delete compaction.
    values: Option<GpuBuffer>,
    backing: BackingTable,
    n_blocks: usize,
    /// Doubling generations applied since construction. A grown table
    /// addresses blocks as `(base_block << levels) | (fp & mask(levels))`
    /// — the POTC hashes pick the *base* block and the fingerprint's low
    /// bits pick the child — so a stored fingerprint alone determines
    /// where it migrates on the next doubling (the Cuckoo-GPU
    /// fingerprint-migration primitive). At `levels == 0` this is exactly
    /// the ungrown addressing.
    grow_levels: u32,
    occupied: AtomicUsize,
    device: Device,
}

/// One batch item flowing through the passes.
#[derive(Debug, Clone, Copy)]
struct Item {
    key: u64,
    fp: u64,
    /// Associated value (0 for plain membership batches).
    val: u64,
    /// Position in the caller's batch, so per-key outcomes survive the
    /// sort/leftover shuffling of the placement passes.
    idx: usize,
}

impl BulkTcf {
    /// Build a bulk filter of at least `capacity` slots on `device`.
    pub fn with_config(
        capacity: usize,
        cfg: TcfConfig,
        device: Device,
    ) -> Result<Self, FilterError> {
        cfg.validate()?;
        let n_blocks = capacity.div_ceil(cfg.block_slots).next_power_of_two().max(2);
        let n_slots = n_blocks * cfg.block_slots;
        Ok(BulkTcf {
            table: GpuBuffer::new(n_slots, cfg.fp_bits),
            values: None,
            backing: BackingTable::for_main_table(n_slots, cfg.fp_bits),
            n_blocks,
            grow_levels: 0,
            occupied: AtomicUsize::new(0),
            device,
            cfg,
        })
    }

    /// Default bulk configuration (128-slot blocks of 16-bit keys, §4.2)
    /// on the Cori (V100) device model. Thin wrapper over
    /// [`Self::with_config`]; `capacity` is a raw slot budget. Prefer
    /// [`Self::from_spec`] for item-count/error-rate-driven sizing.
    pub fn new(capacity: usize) -> Result<Self, FilterError> {
        Self::with_config(capacity, TcfConfig::bulk_default(), Device::cori())
    }

    /// Build from a declarative [`FilterSpec`]: sized so `spec.capacity`
    /// items fit at the recommended load, with the narrowest fingerprint
    /// meeting `spec.fp_rate` at the bulk block geometry, on the spec's
    /// device model with the spec's host-parallelism budget. Counting
    /// specs are refused (use the GQF).
    pub fn from_spec(spec: &FilterSpec) -> Result<Self, FilterError> {
        spec.validate()?;
        if spec.counting {
            return FilterError::unsupported("TCF counting (use the GQF)");
        }
        let cfg = TcfConfig::bulk_default().with_fp_rate(spec.fp_rate)?;
        let filter = Self::with_config(
            spec.slots_for_load(cfg.max_load),
            cfg,
            Device::for_model_name(spec.device.name()).with_workers(spec.parallelism.workers()),
        )?;
        if spec.value_bits > 0 {
            filter.with_values(spec.value_bits)
        } else {
            Ok(filter)
        }
    }

    /// Attach a value store of `value_bits` per slot (8, 16, 32 or 64).
    /// Values move with their fingerprints through the sorted-block
    /// merges, so they survive any sequence of batches and deletes.
    pub fn with_values(mut self, value_bits: u32) -> Result<Self, FilterError> {
        if ![8, 16, 32, 64].contains(&value_bits) {
            return Err(FilterError::BadConfig(format!(
                "value_bits must be 8, 16, 32 or 64, got {value_bits}"
            )));
        }
        self.values = Some(GpuBuffer::new(self.table.len(), value_bits));
        Ok(self)
    }

    /// Width of the attached value store (0 when none).
    pub fn value_bits(&self) -> u32 {
        self.values.as_ref().map_or(0, |v| v.elem_bits())
    }

    /// Active configuration.
    pub fn config(&self) -> &TcfConfig {
        &self.cfg
    }

    /// Main-table slot count.
    pub fn slots(&self) -> usize {
        self.table.len()
    }

    /// Load factor over main-table slots.
    pub fn load_factor(&self) -> f64 {
        self.occupied.load(Ordering::Relaxed) as f64 / self.table.len() as f64
    }

    #[inline]
    fn fp_of(&self, key: u64) -> u64 {
        Fingerprint::from_hash(filter_core::hash64_seeded(key, SEED_FP), self.cfg.fp_bits).value()
    }

    #[inline]
    fn blocks_of(&self, key: u64) -> (usize, usize) {
        let levels = self.grow_levels;
        let (b1, b2) = HashPair::new(key).blocks((self.n_blocks >> levels) as u64);
        if levels == 0 {
            return (b1 as usize, b2 as usize);
        }
        // Grown table: the fingerprint's low bits select the child block,
        // so placement stays derivable from stored state alone.
        let sub = (self.fp_of(key) & ((1u64 << levels) - 1)) as usize;
        (((b1 as usize) << levels) | sub, ((b2 as usize) << levels) | sub)
    }

    /// Length of the sorted live prefix of a staged block: binary search
    /// for the first EMPTY slot of a well-formed block (live prefix, empty
    /// suffix).
    fn prefix_len(view: &gpu_sim::SpanView<'_>, start: usize, slots: usize) -> usize {
        // Live fingerprints (≥ 2) fill a prefix; empties (0) the suffix.
        let mut lo = 0;
        let mut hi = slots;
        while lo < hi {
            let mid = (lo + hi) / 2;
            if view.get(start + mid) != EMPTY {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Run one placement pass: items grouped by `target` block are merged
    /// into their block up to `fill_cap` live slots. Returns the per-item
    /// acceptance mask.
    fn placement_pass(&self, items: &[Item], targets: &[usize], fill_cap: usize) -> Vec<bool> {
        debug_assert_eq!(items.len(), targets.len());
        if items.is_empty() {
            return Vec::new();
        }
        // Partition + sort phases: (target, index) pairs built in
        // parallel, then stable-sorted so each block's items are
        // contiguous; bounds mark one segment per distinct block.
        let mut order: Vec<(u64, u64)> =
            self.device.par_map(targets.len(), |i| (targets[i] as u64, i as u64));
        let bounds = self.device.sorted_segments(&mut order);

        let accepted: Vec<AtomicBool> = (0..items.len()).map(|_| AtomicBool::new(false)).collect();
        let b = self.cfg.block_slots;
        let order_ref = &order;
        let accepted_ref = &accepted;

        self.device.launch_segments(&bounds, |_seg, range| {
            let (lo, hi) = (range.start, range.end);
            let block = order_ref[lo].0 as usize;
            let start = block * b;

            // Stage the block (shared-memory copy, one-or-two line loads).
            let mut img = BlockImage::stage(&self.table, start, b);
            let live = img.len;
            if live >= fill_cap {
                return;
            }
            let take = (fill_cap - live).min(hi - lo);
            img.stage_values(self.values.as_ref(), start, b);

            // Gather + sort the incoming fingerprints in shared memory;
            // values travel with their fingerprint through the sort.
            let mut incoming = [(EMPTY, 0u64); MAX_BLOCK_SLOTS];
            let incoming = &mut incoming[..take];
            for (slot, &(_, idx)) in incoming.iter_mut().zip(&order_ref[lo..lo + take]) {
                let it = &items[idx as usize];
                *slot = (it.fp, it.val);
            }
            incoming.sort_unstable();
            let mut scratch = SharedScratch::new(take);
            for (j, &(fp, _)) in incoming.iter().enumerate() {
                scratch.write(j, fp);
            }
            scratch.charge((take as f64 * (take.max(2) as f64).log2()) as u64);

            // Zip-merge block prefix with incoming list (the three-list
            // parallel zip of §4.2 collapses to two lists per pass here).
            // The merge runs back to front inside the decoded block, so
            // it needs no second buffer; on equal fingerprints the stored
            // entry stays first, as in a forward merge.
            let (mut i, mut k) = (live, live + take);
            for &(fp, val) in incoming.iter().rev() {
                while i > 0 && img.fps[i - 1] > fp {
                    i -= 1;
                    k -= 1;
                    img.fps[k] = img.fps[i];
                    img.vals[k] = img.vals[i];
                }
                k -= 1;
                img.fps[k] = fp;
                img.vals[k] = val;
            }
            img.len = live + take;
            scratch.charge(img.len as u64);

            // Coalesced write-back of the whole block (suffix stays EMPTY).
            img.write_back(&self.table, self.values.as_ref(), start, b);

            for &(_, idx) in &order_ref[lo..lo + take] {
                accepted_ref[idx as usize].store(true, Ordering::Relaxed);
            }
        });

        let mask: Vec<bool> = accepted.iter().map(|a| a.load(Ordering::Relaxed)).collect();
        let n_accepted = mask.iter().filter(|&&a| a).count();
        self.occupied.fetch_add(n_accepted, Ordering::Relaxed);
        mask
    }

    /// Binary-search one staged block for `fp`.
    fn block_search(&self, block: usize, fp: u64) -> bool {
        self.block_find(block, fp).is_some()
    }

    /// Search one staged block, returning the in-block position of a
    /// matching fingerprint (used by the value path). The search is a
    /// lower bound, so a duplicated fingerprint always resolves to its
    /// first copy and the value read for it does not depend on search
    /// order.
    fn block_find(&self, block: usize, fp: u64) -> Option<usize> {
        let b = self.cfg.block_slots;
        let start = block * b;
        let view = self.table.load_span(start, b);
        let live = Self::prefix_len(&view, start, b);
        let (mut pos, mut hi) = (0usize, live);
        while pos < hi {
            let mid = (pos + hi) / 2;
            if view.get(start + mid) < fp {
                pos = mid + 1;
            } else {
                hi = mid;
            }
        }
        (pos < live && view.get(start + pos) == fp).then_some(pos)
    }

    /// Bulk delete pass over one target list; flags removed items.
    fn delete_pass(&self, items: &[Item], targets: &[usize]) -> Vec<bool> {
        if items.is_empty() {
            return Vec::new();
        }
        let mut order: Vec<(u64, u64)> =
            self.device.par_map(targets.len(), |i| (targets[i] as u64, i as u64));
        let bounds = self.device.sorted_segments(&mut order);

        let removed: Vec<AtomicBool> = (0..items.len()).map(|_| AtomicBool::new(false)).collect();
        let b = self.cfg.block_slots;
        let order_ref = &order;
        let removed_ref = &removed;

        self.device.launch_segments(&bounds, |_seg, range| {
            let (lo, hi) = (range.start, range.end);
            let block = order_ref[lo].0 as usize;
            let start = block * b;
            let mut img = BlockImage::stage(&self.table, start, b);
            img.stage_values(self.values.as_ref(), start, b);
            let mut changed = false;
            for &(_, idx) in &order_ref[lo..hi] {
                if img.remove(items[idx as usize].fp) {
                    removed_ref[idx as usize].store(true, Ordering::Relaxed);
                    changed = true;
                }
            }
            if changed {
                img.write_back(&self.table, self.values.as_ref(), start, b);
            }
        });

        removed.iter().map(|r| r.load(Ordering::Relaxed)).collect()
    }

    /// Enumerate all live fingerprints (host-side; sorted within blocks).
    pub fn enumerate_fingerprints(&self) -> Vec<u64> {
        let b = self.cfg.block_slots;
        (0..self.n_blocks)
            .flat_map(|blk| {
                let start = blk * b;
                (0..b).map(move |i| start + i).collect::<Vec<_>>()
            })
            .map(|slot| self.table.read_free(slot))
            .filter(|&v| v != EMPTY)
            .collect()
    }

    /// Items that overflowed into the backing table.
    pub fn backing_occupancy(&self) -> usize {
        self.backing.occupied()
    }

    /// Doubling generations applied since construction.
    pub fn grow_levels(&self) -> u32 {
        self.grow_levels
    }

    /// Stage one block and decode its live `(fingerprint, value)` prefix
    /// (values 0 without a store). Shared by the grow/merge migrations.
    fn block_image(&self, block: usize) -> BlockImage {
        let b = self.cfg.block_slots;
        let mut img = BlockImage::stage(&self.table, block * b, b);
        img.stage_values(self.values.as_ref(), block * b, b);
        img
    }

    /// Entries of `self`'s block `src` that belong in child block `dst`
    /// of a table with `dst_levels` doubling generations (`dst_levels >=
    /// self.grow_levels`): the fingerprint's low `dst_levels` bits must
    /// spell `dst`'s sub-index. Order (sorted) is preserved.
    fn entries_for_child(&self, src: usize, dst: usize, dst_levels: u32) -> BlockImage {
        let mask = (1u64 << dst_levels) - 1;
        let want = dst as u64 & mask;
        let mut img = self.block_image(src);
        img.retain(|fp| fp & mask == want);
        img
    }
}

/// Largest block a kernel stages (enforced by [`TcfConfig::validate`]);
/// one block fits one [`SharedScratch`].
const MAX_BLOCK_SLOTS: usize = SharedScratch::CAPACITY;
const _: () = assert!(MAX_BLOCK_SLOTS >= 128, "validate() admits 128-slot blocks");

/// One block's live prefix unpacked into stack arrays — the shared-memory
/// image a block kernel merges, compacts or splits before the coalesced
/// write-back. `fps[..len]` are sorted fingerprints and `vals[..len]` the
/// values travelling with them (0 without a value store); every slot past
/// `len` is EMPTY / 0, so `fps[..block_slots]` is the block's final image.
struct BlockImage {
    fps: [u64; MAX_BLOCK_SLOTS],
    vals: [u64; MAX_BLOCK_SLOTS],
    len: usize,
}

impl BlockImage {
    fn empty() -> Self {
        BlockImage { fps: [EMPTY; MAX_BLOCK_SLOTS], vals: [0; MAX_BLOCK_SLOTS], len: 0 }
    }

    /// Stage the `b`-slot block at `start` (one-or-two line loads),
    /// decoded once, word by word; the live prefix ends at the first
    /// EMPTY slot (live fingerprints are ≥ 2).
    fn stage(table: &GpuBuffer, start: usize, b: usize) -> Self {
        let mut img = Self::empty();
        table.load_span_into(start, &mut img.fps[..b]);
        img.len = img.fps[..b].partition_point(|&fp| fp != EMPTY);
        img
    }

    /// Stage the block's value span too (when a store is attached); only
    /// the live prefix's values are kept.
    fn stage_values(&mut self, values: Option<&GpuBuffer>, start: usize, b: usize) {
        if let Some(vb) = values {
            vb.load_span_into(start, &mut self.vals[..b]);
            self.vals[self.len..b].fill(0);
        }
    }

    fn push(&mut self, fp: u64, val: u64) {
        self.fps[self.len] = fp;
        self.vals[self.len] = val;
        self.len += 1;
    }

    /// Keep the entries whose fingerprint satisfies `keep`, in order.
    fn retain(&mut self, keep: impl Fn(u64) -> bool) {
        let n = self.len;
        self.len = 0;
        for i in 0..n {
            let (fp, val) = (self.fps[i], self.vals[i]);
            if keep(fp) {
                self.push(fp, val);
            }
        }
        self.fps[self.len..n].fill(EMPTY);
        self.vals[self.len..n].fill(0);
    }

    /// Remove one entry equal to `fp` (the one a binary search lands on);
    /// returns whether one was present.
    fn remove(&mut self, fp: u64) -> bool {
        let Ok(pos) = self.fps[..self.len].binary_search(&fp) else {
            return false;
        };
        self.fps.copy_within(pos + 1..self.len, pos);
        self.vals.copy_within(pos + 1..self.len, pos);
        self.len -= 1;
        self.fps[self.len] = EMPTY;
        self.vals[self.len] = 0;
        true
    }

    /// Zip-merge two sorted images; on equal fingerprints `a`'s entry
    /// comes first. The caller guarantees the union fits one block.
    fn merged(a: &Self, b: &Self) -> Self {
        let mut out = Self::empty();
        let (mut i, mut j) = (0usize, 0usize);
        while i < a.len && j < b.len {
            if a.fps[i] <= b.fps[j] {
                out.push(a.fps[i], a.vals[i]);
                i += 1;
            } else {
                out.push(b.fps[j], b.vals[j]);
                j += 1;
            }
        }
        for k in i..a.len {
            out.push(a.fps[k], a.vals[k]);
        }
        for k in j..b.len {
            out.push(b.fps[k], b.vals[k]);
        }
        out
    }

    /// Coalesced write-back of the whole `b`-slot block at `start` (and
    /// of its values when a store is attached).
    fn write_back(&self, table: &GpuBuffer, values: Option<&GpuBuffer>, start: usize, b: usize) {
        table.write_span_coalesced(start, &self.fps[..b]);
        if let Some(vb) = values {
            vb.write_span_coalesced(start, &self.vals[..b]);
        }
    }
}

impl filter_core::MaintainableFilter for BulkTcf {
    fn load(&self) -> f64 {
        self.load_factor().clamp(0.0, 1.0)
    }

    /// Double the block array `log2(factor)` times in one migration pass.
    /// Every old block splits into `factor` children; a stored
    /// fingerprint's low bits pick its child, so migration is a pure
    /// function of stored state — each child has exactly one parent and
    /// one owning worker, making the grown table bit-identical under any
    /// worker budget. The backing table (which retains its spilled items'
    /// keys) is then drained through the normal placement passes: the
    /// enlarged blocks absorb the old overflow, and a fresh backing sized
    /// for the new table takes whatever still spills.
    fn grow(&mut self, factor: u32) -> Result<(), FilterError> {
        let d = filter_core::growth_steps(factor)?;
        let new_levels = self.grow_levels + d;
        // Each level consumes one low fingerprint bit for child selection;
        // keep at least 8 bits of residual fingerprint entropy.
        if new_levels + 8 > self.cfg.fp_bits {
            return Err(FilterError::BadConfig(format!(
                "cannot grow to {new_levels} levels with {}-bit fingerprints",
                self.cfg.fp_bits
            )));
        }
        let b = self.cfg.block_slots;
        let old_levels = self.grow_levels;
        let new_blocks = self.n_blocks << d;
        let new_table = GpuBuffer::new(new_blocks * b, self.cfg.fp_bits);
        let new_values =
            self.values.as_ref().map(|v| GpuBuffer::new(new_blocks * b, v.elem_bits()));

        let new_table_ref = &new_table;
        let new_values_ref = &new_values;
        self.device.launch_regions(new_blocks, |nb| {
            // The one parent whose entries can land in child `nb`: same
            // base block, same low `old_levels` fingerprint bits.
            let parent = ((nb >> new_levels) << old_levels) | (nb & ((1usize << old_levels) - 1));
            let entries = self.entries_for_child(parent, nb, new_levels);
            if entries.len > 0 {
                entries.write_back(new_table_ref, new_values_ref.as_ref(), nb * b, b);
            }
        });

        // Commit the enlarged geometry, keeping the old state aside so a
        // drain failure below can restore it ("on error the filter is
        // unchanged" — the MaintainableFilter contract).
        let old_table = std::mem::replace(&mut self.table, new_table);
        let old_values = std::mem::replace(&mut self.values, new_values);
        let old_backing = std::mem::replace(
            &mut self.backing,
            BackingTable::for_main_table(new_blocks * b, self.cfg.fp_bits),
        );
        let old_blocks = std::mem::replace(&mut self.n_blocks, new_blocks);
        self.grow_levels = new_levels;

        // Drain the old backing into the enlarged table: re-insert each
        // spilled item through the normal placement passes (slot order →
        // deterministic), spilling into the fresh, proportionally larger
        // backing only if its two (now half-empty) blocks are somehow
        // still full.
        let spilled = old_backing.entries();
        if !spilled.is_empty() {
            self.occupied.fetch_sub(spilled.len(), Ordering::Relaxed);
            let items: Vec<Item> = spilled
                .iter()
                .enumerate()
                .map(|(i, &(key, fp))| Item { key, fp, val: 0, idx: i })
                .collect();
            let failures = self.insert_items(items, true);
            if !failures.is_empty() {
                // Both candidate blocks and the fresh backing refused an
                // item straight after capacity doubled — not a reachable
                // state at sane loads, but if it happens, roll the whole
                // grow back rather than lose the spilled keys.
                self.table = old_table;
                self.values = old_values;
                self.backing = old_backing;
                self.n_blocks = old_blocks;
                self.grow_levels = old_levels;
                // `insert_items` already re-counted the drains it
                // accepted; restoring the failed remainder lands the
                // counter exactly where it started.
                self.occupied.fetch_add(failures.len(), Ordering::Relaxed);
                return Err(FilterError::Full);
            }
        }
        Ok(())
    }

    /// Absorb `other`'s contents. Requires the same block geometry and
    /// base block count; `other` may have *fewer* doubling generations
    /// (its entries re-split into this table's children during the
    /// merge). The union is built into fresh buffers first, so a refusal
    /// — a child block without room ([`FilterError::NeedsGrowth`]: grow
    /// and retry) or a backing-slot collision — leaves `self` untouched.
    fn merge(&mut self, other: &Self) -> Result<(), FilterError> {
        if self.cfg.block_slots != other.cfg.block_slots
            || self.cfg.fp_bits != other.cfg.fp_bits
            || (self.n_blocks >> self.grow_levels) != (other.n_blocks >> other.grow_levels)
            || self.values.is_some() != other.values.is_some()
        {
            return Err(FilterError::BadConfig(
                "TCF merge requires the same base geometry (block size, fingerprint width, \
                 base block count, value store)"
                    .into(),
            ));
        }
        if other.grow_levels > self.grow_levels {
            return Err(FilterError::needs_growth(self.load_factor()));
        }
        let b = self.cfg.block_slots;
        let ls = self.grow_levels;
        let lo = other.grow_levels;
        let new_table = GpuBuffer::new(self.n_blocks * b, self.cfg.fp_bits);
        let new_values =
            self.values.as_ref().map(|v| GpuBuffer::new(self.n_blocks * b, v.elem_bits()));
        let overflow = AtomicBool::new(false);

        let new_table_ref = &new_table;
        let new_values_ref = &new_values;
        let overflow_ref = &overflow;
        self.device.launch_regions(self.n_blocks, |nb| {
            let mine = self.block_image(nb);
            let parent = ((nb >> ls) << lo) | (nb & ((1usize << lo) - 1));
            let theirs = other.entries_for_child(parent, nb, ls);
            if mine.len + theirs.len > b {
                overflow_ref.store(true, Ordering::Relaxed);
                return;
            }
            if mine.len + theirs.len == 0 {
                return;
            }
            // Merge the two sorted runs, values travelling with their
            // fingerprints.
            BlockImage::merged(&mine, &theirs).write_back(
                new_table_ref,
                new_values_ref.as_ref(),
                nb * b,
                b,
            );
        });
        if overflow.load(Ordering::Relaxed) {
            return Err(FilterError::needs_growth(self.load_factor()));
        }
        // Union the backings by re-probing: both sides retain their
        // spilled items' keys, so the partner's entries probe into a
        // fresh copy of ours regardless of the two tables' sizes. A probe
        // exhaustion means the backing is saturated — NeedsGrowth, since
        // a grow drains the backing into the enlarged main table.
        let new_backing = match self.backing.reprobed_clone() {
            Ok(clone) => clone,
            Err(_) => return Err(FilterError::needs_growth(self.load_factor())),
        };
        for (key, fp) in other.backing.entries() {
            if !new_backing.insert(key, fp) {
                return Err(FilterError::needs_growth(self.load_factor()));
            }
        }

        self.table = new_table;
        self.values = new_values;
        self.backing = new_backing;
        self.occupied.fetch_add(other.occupied.load(Ordering::Relaxed), Ordering::Relaxed);
        Ok(())
    }
}

impl BulkTcf {
    /// Insert a batch; returns the number of items that could not be
    /// placed anywhere (0 on success).
    pub fn insert_batch(&self, keys: &[u64]) -> usize {
        self.insert_items(self.hash_items(keys), true).len()
    }

    /// Hash phase: fingerprint every key in parallel (batch order kept).
    fn hash_items(&self, keys: &[u64]) -> Vec<Item> {
        self.device.par_map(keys.len(), |i| Item {
            key: keys[i],
            fp: self.fp_of(keys[i]),
            val: 0,
            idx: i,
        })
    }

    /// Insert a batch with per-key outcomes: `out[i]` answers `keys[i]`.
    pub fn insert_batch_report(&self, keys: &[u64], out: &mut [InsertOutcome]) {
        assert_eq!(keys.len(), out.len());
        out.fill(InsertOutcome::Inserted);
        for idx in self.insert_items(self.hash_items(keys), true) {
            out[idx] = InsertOutcome::Failed;
        }
    }

    /// Insert a batch of `(key, value)` associations. Requires a value
    /// store ([`BulkTcf::with_values`]); items that would spill to the
    /// backing table are failed instead, because backing slots cannot
    /// carry values (the point TCF makes the same call). Returns the
    /// failure count.
    pub fn insert_values_batch(&self, pairs: &[(u64, u64)]) -> usize {
        if self.values.is_none() {
            return pairs.len();
        }
        let items: Vec<Item> = self.device.par_map(pairs.len(), |i| {
            let (k, v) = pairs[i];
            Item { key: k, fp: self.fp_of(k), val: v, idx: i }
        });
        self.insert_items(items, false).len()
    }

    /// Look up the values associated with a batch of keys (`None` when
    /// absent or when no value store is attached). For multiset contents
    /// the value of one instance is returned.
    pub fn query_values_batch(&self, keys: &[u64]) -> Vec<Option<u64>> {
        let Some(vb) = self.values.as_ref() else {
            return vec![None; keys.len()];
        };
        let out: Vec<std::sync::atomic::AtomicU64> =
            (0..keys.len()).map(|_| std::sync::atomic::AtomicU64::new(u64::MAX)).collect();
        let out_ref = &out;
        self.device.launch_point(keys.len(), self.cfg.cg_size, |i| {
            let key = keys[i];
            let fp = self.fp_of(key);
            let (p, s) = self.blocks_of(key);
            let slot = self
                .block_find(p, fp)
                .map(|pos| p * self.cfg.block_slots + pos)
                .or_else(|| self.block_find(s, fp).map(|pos| s * self.cfg.block_slots + pos));
            if let Some(slot) = slot {
                out_ref[i].store(vb.read(slot), Ordering::Relaxed);
            }
        });
        out.into_iter()
            .map(|a| {
                let v = a.into_inner();
                if v == u64::MAX {
                    None
                } else {
                    Some(v)
                }
            })
            .collect()
    }

    /// Shared batch-insert flow for plain and valued items. Returns the
    /// original batch indices of the items that could not be placed.
    fn insert_items(&self, items: Vec<Item>, spill_to_backing: bool) -> Vec<usize> {
        // Pass 1 — shortcut: primary block up to the shortcut threshold
        // (targets computed in the data-parallel partition phase).
        let cap1 = ((self.cfg.block_slots as f64) * self.cfg.shortcut_fill).floor() as usize;
        let targets: Vec<usize> =
            self.device.par_map(items.len(), |i| self.blocks_of(items[i].key).0);
        let mask = self.placement_pass(&items, &targets, cap1.max(1));
        let leftover: Vec<Item> =
            items.iter().zip(&mask).filter(|(_, &a)| !a).map(|(it, _)| *it).collect();
        if leftover.is_empty() {
            return Vec::new();
        }

        // Pass 2 — POTC: the less-full of the two blocks, to capacity.
        // The fill inspection only reads block prefixes pass 1 already
        // finalized, so it parallelizes over the leftover items.
        let b = self.cfg.block_slots;
        let targets: Vec<usize> = self.device.par_map(leftover.len(), |i| {
            let (p, s) = self.blocks_of(leftover[i].key);
            let pv = self.table.load_span(p * b, b);
            let pl = Self::prefix_len(&pv, p * b, b);
            let sv = self.table.load_span(s * b, b);
            let sl = Self::prefix_len(&sv, s * b, b);
            if sl < pl {
                s
            } else {
                p
            }
        });
        let mask = self.placement_pass(&leftover, &targets, b);
        let leftover: Vec<(Item, usize)> = leftover
            .iter()
            .zip(&mask)
            .zip(&targets)
            .filter(|((_, &a), _)| !a)
            .map(|((it, _), &t)| (*it, t))
            .collect();
        if leftover.is_empty() {
            return Vec::new();
        }

        // Pass 3 — spill: the block pass 2 did not target.
        let items3: Vec<Item> = leftover.iter().map(|(it, _)| *it).collect();
        let targets: Vec<usize> = leftover
            .iter()
            .map(|(it, tried)| {
                let (p, s) = self.blocks_of(it.key);
                if *tried == p {
                    s
                } else {
                    p
                }
            })
            .collect();
        let mask = self.placement_pass(&items3, &targets, b);

        // Final spill — backing table (valued items fail instead: backing
        // slots cannot carry values).
        let mut failures = Vec::new();
        for (it, &a) in items3.iter().zip(&mask) {
            if !a {
                if spill_to_backing && self.cfg.backing_table && self.backing.insert(it.key, it.fp)
                {
                    self.occupied.fetch_add(1, Ordering::Relaxed);
                } else {
                    failures.push(it.idx);
                }
            }
        }
        failures
    }

    /// Query a batch.
    pub fn query_batch(&self, keys: &[u64], out: &mut [bool]) {
        assert_eq!(keys.len(), out.len());
        let out_ptr = SharedOut(out.as_mut_ptr());
        self.device.launch_point(keys.len(), self.cfg.cg_size, |i| {
            let key = keys[i];
            let fp = self.fp_of(key);
            let (p, s) = self.blocks_of(key);
            let hit = self.block_search(p, fp)
                || self.block_search(s, fp)
                || (self.cfg.backing_table && self.backing.contains(key, fp));
            out_ptr.write(i, hit);
        });
    }

    /// Delete a batch of previously inserted keys; returns the count whose
    /// fingerprints were not found.
    pub fn delete_batch(&self, keys: &[u64]) -> usize {
        self.delete_items(keys).iter().filter(|&&removed| !removed).count()
    }

    /// Delete a batch with per-key outcomes: `out[i]` answers `keys[i]`.
    pub fn delete_batch_report(&self, keys: &[u64], out: &mut [DeleteOutcome]) {
        assert_eq!(keys.len(), out.len());
        for (o, removed) in out.iter_mut().zip(self.delete_items(keys)) {
            *o = if removed { DeleteOutcome::Removed } else { DeleteOutcome::NotFound };
        }
    }

    /// Shared batch-delete flow: primary-block pass, secondary-block pass,
    /// then the backing table. Returns the per-key removed mask in the
    /// caller's batch order.
    fn delete_items(&self, keys: &[u64]) -> Vec<bool> {
        let items = self.hash_items(keys);
        let mut removed_mask = vec![false; keys.len()];

        let targets: Vec<usize> =
            self.device.par_map(items.len(), |i| self.blocks_of(items[i].key).0);
        let removed = self.delete_pass(&items, &targets);
        let leftover: Vec<Item> =
            items.iter().zip(&removed).filter(|(_, &r)| !r).map(|(it, _)| *it).collect();

        let targets: Vec<usize> =
            self.device.par_map(leftover.len(), |i| self.blocks_of(leftover[i].key).1);
        let removed = self.delete_pass(&leftover, &targets);
        let leftover: Vec<Item> =
            leftover.iter().zip(&removed).filter(|(_, &r)| !r).map(|(it, _)| *it).collect();

        // The passes removed everything except `leftover`; the backing
        // table gets a shot at the rest.
        let mut n_removed = items.len() - leftover.len();
        for m in removed_mask.iter_mut() {
            *m = true;
        }
        for it in &leftover {
            removed_mask[it.idx] = false;
        }
        for it in &leftover {
            if self.cfg.backing_table && self.backing.remove(it.key, it.fp) {
                removed_mask[it.idx] = true;
                n_removed += 1;
            }
        }
        self.occupied.fetch_sub(n_removed, Ordering::Relaxed);
        removed_mask
    }
}

/// Raw output pointer for the query kernel (disjoint writes per item).
struct SharedOut(*mut bool);
// SAFETY: SharedOut is only shared across the query kernel's workers, and
// each worker writes the distinct slot of its own item index (see
// `write`), so concurrent use never produces overlapping writes.
unsafe impl Sync for SharedOut {}

impl SharedOut {
    /// Write slot `i`.
    ///
    /// # Safety contract (internal)
    /// Each kernel instance writes a distinct `i`, so writes never alias.
    #[inline]
    fn write(&self, i: usize, v: bool) {
        // SAFETY: the pointer was created from a slice of length >= the
        // item count, `i` is an in-bounds item index, and per the contract
        // above no other worker writes slot `i` during the launch.
        unsafe { self.0.add(i).write(v) };
    }
}

impl FilterMeta for BulkTcf {
    fn name(&self) -> &'static str {
        "BulkTCF"
    }

    fn features(&self) -> Features {
        Features::new("BulkTCF")
            .with(Operation::Insert, ApiMode::Bulk)
            .with(Operation::Query, ApiMode::Bulk)
            .with(Operation::Delete, ApiMode::Bulk)
            .with_growth()
    }

    fn table_bytes(&self) -> usize {
        self.table.bytes() + self.values.as_ref().map_or(0, |v| v.bytes()) + self.backing.bytes()
    }

    fn capacity_slots(&self) -> u64 {
        self.table.len() as u64
    }

    fn max_load_factor(&self) -> f64 {
        self.cfg.max_load
    }
}

impl filter_core::BulkFilter for BulkTcf {
    fn bulk_insert_report(
        &self,
        keys: &[u64],
        out: &mut [InsertOutcome],
    ) -> Result<(), FilterError> {
        self.insert_batch_report(keys, out);
        Ok(())
    }

    fn bulk_insert(&self, keys: &[u64]) -> Result<usize, FilterError> {
        Ok(self.insert_batch(keys))
    }

    fn bulk_query(&self, keys: &[u64], out: &mut [bool]) {
        self.query_batch(keys, out)
    }
}

impl filter_core::BulkDeletable for BulkTcf {
    fn bulk_delete_report(
        &self,
        keys: &[u64],
        out: &mut [DeleteOutcome],
    ) -> Result<(), FilterError> {
        self.delete_batch_report(keys, out);
        Ok(())
    }

    fn bulk_delete(&self, keys: &[u64]) -> Result<usize, FilterError> {
        Ok(self.delete_batch(keys))
    }
}

impl filter_core::DynFilter for BulkTcf {
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn len_hint(&self) -> Option<usize> {
        Some(self.occupied.load(Ordering::Relaxed))
    }

    fn value_bits(&self) -> u32 {
        BulkTcf::value_bits(self)
    }

    filter_core::dyn_forward_bulk!();
    filter_core::dyn_forward_bulk_delete!();
    filter_core::dyn_forward_maintain!(BulkTcf);
}

#[cfg(test)]
mod tests {
    use super::*;
    use filter_core::{hashed_keys, BulkFilter};

    #[test]
    fn bulk_insert_then_query_all_present() {
        let f = BulkTcf::new(1 << 12).unwrap();
        let keys = hashed_keys(21, 3000);
        assert_eq!(f.insert_batch(&keys), 0);
        let mut out = vec![false; keys.len()];
        f.query_batch(&keys, &mut out);
        assert!(out.iter().all(|&x| x), "all inserted keys must be found");
    }

    #[test]
    fn blocks_stay_sorted_after_inserts() {
        let f = BulkTcf::new(1 << 12).unwrap();
        let keys = hashed_keys(22, 3000);
        f.insert_batch(&keys);
        let b = f.cfg.block_slots;
        for blk in 0..f.n_blocks {
            let mut prev = 0u64;
            let mut in_suffix = false;
            for i in 0..b {
                let v = f.table.read_free(blk * b + i);
                if v == EMPTY {
                    in_suffix = true;
                } else {
                    assert!(!in_suffix, "live slot after empty in block {blk}");
                    assert!(v >= prev, "unsorted block {blk}");
                    prev = v;
                }
            }
        }
    }

    #[test]
    fn reaches_90_percent_load_in_one_batch() {
        let f = BulkTcf::new(1 << 13).unwrap();
        let n = (f.slots() as f64 * 0.9) as usize;
        let keys = hashed_keys(23, n);
        let failures = f.insert_batch(&keys);
        assert_eq!(failures, 0, "bulk TCF must reach 90% load");
        assert!(f.load_factor() >= 0.89);
        let mut out = vec![false; n];
        f.query_batch(&keys, &mut out);
        assert!(out.iter().all(|&x| x));
    }

    #[test]
    fn negative_queries_mostly_negative() {
        let f = BulkTcf::new(1 << 12).unwrap();
        let keys = hashed_keys(24, (f.slots() as f64 * 0.9) as usize);
        f.insert_batch(&keys);
        let probes = hashed_keys(2400, 100_000);
        let mut out = vec![false; probes.len()];
        f.query_batch(&probes, &mut out);
        let fp_rate = out.iter().filter(|&&x| x).count() as f64 / probes.len() as f64;
        // Bulk config theory: 2·128/2^16 ≈ 0.39%; backing adds a little.
        assert!(fp_rate < 0.02, "fp rate {fp_rate}");
    }

    #[test]
    fn multiple_batches_accumulate() {
        let f = BulkTcf::new(1 << 12).unwrap();
        let k1 = hashed_keys(25, 1000);
        let k2 = hashed_keys(26, 1000);
        f.insert_batch(&k1);
        f.insert_batch(&k2);
        let mut out = vec![false; 1000];
        f.query_batch(&k1, &mut out);
        assert!(out.iter().all(|&x| x));
        f.query_batch(&k2, &mut out);
        assert!(out.iter().all(|&x| x));
        assert_eq!(f.len_items(), 2000);
    }

    #[test]
    fn delete_batch_removes_exactly_the_batch() {
        let f = BulkTcf::new(1 << 12).unwrap();
        let keys = hashed_keys(27, 2000);
        f.insert_batch(&keys);
        let not_found = f.delete_batch(&keys[..1000]);
        assert_eq!(not_found, 0);
        let mut out = vec![false; 1000];
        f.query_batch(&keys[1000..], &mut out);
        assert!(out.iter().all(|&x| x), "survivors must remain");
        assert_eq!(f.len_items(), 1000);
    }

    #[test]
    fn prefix_len_twins_match_on_every_block() {
        // The bisection against a host count of the block's non-EMPTY
        // slots (a well-formed block is a live prefix, empty suffix).
        let f = BulkTcf::new(1 << 12).unwrap();
        f.insert_batch(&hashed_keys(91, 3200));
        let b = f.cfg.block_slots;
        for blk in 0..f.n_blocks {
            let view = f.table.load_span(blk * b, b);
            let host = (0..b).filter(|&i| f.table.read_free(blk * b + i) != EMPTY).count();
            assert_eq!(BulkTcf::prefix_len(&view, blk * b, b), host, "block {blk}");
        }
        // Every prefix length from an empty to a full block, written
        // into block 1 so the span does not start at slot 0.
        let g = BulkTcf::new(1 << 10).unwrap();
        for live in 0..=b {
            for i in 0..b {
                g.table.write_free(b + i, if i < live { 2 + i as u64 } else { EMPTY });
            }
            let view = g.table.load_span(b, b);
            assert_eq!(BulkTcf::prefix_len(&view, b, b), live, "live {live}");
        }
    }

    /// `query_batch` on batches containing duplicate keys and keys whose
    /// fingerprints sit at the first or last live slot of their block
    /// (the edges of the binary search): every resident probe answers
    /// true, and duplicate probes answer identically.
    #[test]
    fn sorted_query_matches_point_query_with_duplicates_and_boundary_keys() {
        let f = BulkTcf::new(1 << 12).unwrap();
        let keys = hashed_keys(92, 3000);
        assert_eq!(f.insert_batch(&keys), 0);

        // Keys resident in the first or last live slot of their primary
        // block — the binary search's edge positions.
        let b = f.cfg.block_slots;
        let mut boundary = Vec::new();
        for &k in &keys {
            let (p, _) = f.blocks_of(k);
            let view = f.table.load_span(p * b, b);
            let live = BulkTcf::prefix_len(&view, p * b, b);
            if live > 0 {
                let fp = f.fp_of(k);
                if view.get(p * b) == fp || view.get(p * b + live - 1) == fp {
                    boundary.push(k);
                }
            }
            if boundary.len() >= 64 {
                break;
            }
        }
        assert!(!boundary.is_empty(), "no boundary-resident keys found");

        let absent = hashed_keys(9200, 500);
        let mut probes = Vec::new();
        probes.extend_from_slice(&keys[..600]);
        probes.extend_from_slice(&absent);
        // Duplicates of present, absent, and boundary keys, repeated
        // back to back and across the batch.
        probes.extend_from_slice(&keys[..100]);
        probes.extend_from_slice(&keys[..100]);
        probes.extend_from_slice(&absent[..50]);
        for &k in &boundary {
            probes.extend_from_slice(&[k, k, k]);
        }

        let mut out = vec![false; probes.len()];
        f.query_batch(&probes, &mut out);
        let mut first = std::collections::HashMap::new();
        for (&k, &hit) in probes.iter().zip(&out) {
            assert!(hit || !keys.contains(&k), "resident probe {k:#x} answered false");
            assert_eq!(*first.entry(k).or_insert(hit), hit, "duplicate probe {k:#x} diverged");
        }
    }

    /// Satellite: duplicate fingerprints must resolve to the *first*
    /// stored copy — the value path would otherwise return an arbitrary
    /// duplicate's value depending on binary-search order.
    #[test]
    fn block_find_returns_the_first_duplicate() {
        let f = BulkTcf::new(1 << 10).unwrap();
        let key = hashed_keys(93, 1)[0];
        f.insert_batch(&[key; 5]);
        let fp = f.fp_of(key);
        let (p, s) = f.blocks_of(key);
        let b = f.cfg.block_slots;
        for blk in [p, s] {
            let view = f.table.load_span(blk * b, b);
            let live = BulkTcf::prefix_len(&view, blk * b, b);
            let first = (0..live).find(|&i| view.get(blk * b + i) == fp);
            assert_eq!(f.block_find(blk, fp), first, "block {blk}");
        }
    }

    #[test]
    fn duplicate_keys_stored_as_multiset() {
        let f = BulkTcf::new(1 << 10).unwrap();
        let key = hashed_keys(28, 1)[0];
        f.insert_batch(&[key, key, key]);
        assert_eq!(f.delete_batch(&[key]), 0);
        let mut out = vec![false];
        f.query_batch(&[key], &mut out);
        assert!(out[0], "two copies should remain");
        f.delete_batch(&[key, key]);
        f.query_batch(&[key], &mut out);
        assert!(!out[0], "all copies deleted");
    }

    #[test]
    fn per_key_insert_outcomes_match_aggregate() {
        // Overfill a tiny filter without a backing table so some keys fail.
        let cfg = TcfConfig { backing_table: false, ..TcfConfig::bulk_default() };
        let f = BulkTcf::with_config(1 << 9, cfg, Device::cori()).unwrap();
        let keys = hashed_keys(30, f.slots() + 200);
        let mut out = vec![InsertOutcome::Inserted; keys.len()];
        f.insert_batch_report(&keys, &mut out);
        let failed = out.iter().filter(|o| o.failed()).count();
        assert!(failed > 0, "overfill must fail some keys");
        // Every key reported Inserted must be findable (no false negatives
        // on acknowledged keys).
        let hits = f.bulk_query_vec(&keys);
        for (i, o) in out.iter().enumerate() {
            if o.inserted() {
                assert!(hits[i], "key {i} reported inserted but is absent");
            }
        }
        // A fresh identical filter's aggregate count agrees.
        let g = BulkTcf::with_config(
            1 << 9,
            TcfConfig { backing_table: false, ..TcfConfig::bulk_default() },
            Device::cori(),
        )
        .unwrap();
        assert_eq!(g.insert_batch(&keys), failed);
    }

    #[test]
    fn per_key_delete_outcomes() {
        let f = BulkTcf::new(1 << 12).unwrap();
        let keys = hashed_keys(31, 2000);
        assert_eq!(f.insert_batch(&keys), 0);
        // Delete the first half plus some never-inserted keys.
        let absent = hashed_keys(32, 500);
        let batch: Vec<u64> = keys[..1000].iter().chain(&absent).copied().collect();
        let mut out = vec![DeleteOutcome::NotFound; batch.len()];
        f.delete_batch_report(&batch, &mut out);
        for (i, o) in out[..1000].iter().enumerate() {
            assert!(o.removed(), "inserted key {i} must report Removed");
        }
        // Absent keys are NotFound except for rare fingerprint collisions.
        let ghost_hits = out[1000..].iter().filter(|o| o.removed()).count();
        assert!(ghost_hits < 25, "ghost removals {ghost_hits}");
        // Survivors remain queryable, except any whose colliding
        // fingerprint a ghost delete legally claimed.
        let lost = f.bulk_query_vec(&keys[1000..]).iter().filter(|&&h| !h).count();
        assert!(lost <= ghost_hits, "lost {lost} > ghost removals {ghost_hits}");
    }

    #[test]
    fn every_worker_budget_builds_an_identical_table() {
        use filter_core::Parallelism;
        let spec = FilterSpec::items(6000).fp_rate(0.004);
        let oracle =
            BulkTcf::from_spec(&spec.clone().parallelism(Parallelism::Sequential)).unwrap();
        let keys = hashed_keys(71, 6000);
        let probes = hashed_keys(72, 40_000);
        assert_eq!(oracle.insert_batch(&keys), 0);
        assert_eq!(oracle.delete_batch(&keys[..2000]), 0);
        let oracle_fps = oracle.enumerate_fingerprints();
        let oracle_hits = oracle.bulk_query_vec(&probes);
        for workers in [1u32, 2, 8] {
            let f = BulkTcf::from_spec(&spec.clone().parallelism(Parallelism::Threads(workers)))
                .unwrap();
            assert_eq!(f.insert_batch(&keys), 0, "w={workers}");
            assert_eq!(f.delete_batch(&keys[..2000]), 0, "w={workers}");
            assert_eq!(
                f.enumerate_fingerprints(),
                oracle_fps,
                "stored fingerprints diverge at workers={workers}"
            );
            assert_eq!(
                f.bulk_query_vec(&probes),
                oracle_hits,
                "probe outcomes diverge at workers={workers}"
            );
        }
    }

    #[test]
    fn grow_preserves_membership_and_halves_load() {
        use filter_core::MaintainableFilter;
        let mut f = BulkTcf::new(1 << 12).unwrap();
        let keys = hashed_keys(80, 3000);
        assert_eq!(f.insert_batch(&keys), 0);
        let load_before = f.load();
        let slots_before = f.slots();
        f.grow(2).unwrap();
        assert_eq!(f.slots(), 2 * slots_before);
        assert_eq!(f.grow_levels(), 1);
        assert!((f.load() - load_before / 2.0).abs() < 1e-9, "load must halve");
        let mut out = vec![false; keys.len()];
        f.query_batch(&keys, &mut out);
        assert!(out.iter().all(|&x| x), "zero false negatives across a grow");
        // The grown filter keeps ingesting and deleting normally.
        let more = hashed_keys(81, 3000);
        assert_eq!(f.insert_batch(&more), 0);
        assert_eq!(f.delete_batch(&keys[..1000]), 0);
        let mut out = vec![false; more.len()];
        f.query_batch(&more, &mut out);
        assert!(out.iter().all(|&x| x));
    }

    #[test]
    fn grow_keeps_fp_rate_in_class() {
        use filter_core::MaintainableFilter;
        let mut f = BulkTcf::new(1 << 12).unwrap();
        let keys = hashed_keys(82, (f.slots() as f64 * 0.85) as usize);
        assert_eq!(f.insert_batch(&keys), 0);
        let probes = hashed_keys(8200, 100_000);
        let fp_at = |f: &BulkTcf| {
            let mut out = vec![false; probes.len()];
            f.query_batch(&probes, &mut out);
            out.iter().filter(|&&x| x).count() as f64 / probes.len() as f64
        };
        let before = fp_at(&f);
        f.grow(2).unwrap();
        let after = fp_at(&f);
        // Halved per-block occupancy compensates the sub-index bit: the
        // realized rate stays within 2x (it barely moves in practice).
        assert!(after <= before * 2.0 + 1e-3, "fp {before} -> {after}");
    }

    #[test]
    fn grow_values_travel_with_fingerprints() {
        use filter_core::MaintainableFilter;
        let mut f = BulkTcf::new(1 << 12).unwrap().with_values(32).unwrap();
        let keys = hashed_keys(83, 2000);
        let pairs: Vec<(u64, u64)> = keys.iter().map(|&k| (k, k & 0xffff_ffff)).collect();
        assert_eq!(f.insert_values_batch(&pairs), 0);
        f.grow(4).unwrap();
        let got = f.query_values_batch(&keys);
        let exact = keys.iter().zip(&got).filter(|&(&k, v)| *v == Some(k & 0xffff_ffff)).count();
        assert!(exact as f64 / keys.len() as f64 > 0.99, "exact {exact}/{}", keys.len());
    }

    #[test]
    fn grown_table_is_identical_under_any_worker_budget() {
        use filter_core::{MaintainableFilter, Parallelism};
        let spec = FilterSpec::items(4000).fp_rate(0.004);
        let keys = hashed_keys(84, 4000);
        let probes = hashed_keys(85, 40_000);
        let build = |p: Parallelism| {
            let mut f = BulkTcf::from_spec(&spec.clone().parallelism(p)).unwrap();
            assert_eq!(f.insert_batch(&keys), 0);
            f.grow(2).unwrap();
            assert_eq!(f.insert_batch(&probes[..2000]), 0);
            f
        };
        let oracle = build(Parallelism::Sequential);
        let oracle_fps = oracle.enumerate_fingerprints();
        let oracle_hits = oracle.bulk_query_vec(&probes);
        for workers in [1u32, 2, 8] {
            let f = build(Parallelism::Threads(workers));
            assert_eq!(f.enumerate_fingerprints(), oracle_fps, "w={workers}");
            assert_eq!(f.bulk_query_vec(&probes), oracle_hits, "w={workers}");
        }
    }

    /// ε = 0.07 picks 12-bit fingerprints: 5 slots per backing word, so a
    /// 128-slot block starts and ends mid-word and every block write-back
    /// shares its edge words with the neighbouring blocks, which other
    /// workers may be rewriting in the same launch. Fill, delete, grow and
    /// merge must still give the same table, outcomes and verdicts at any
    /// worker budget.
    #[test]
    fn twelve_bit_blocks_are_identical_under_any_worker_budget() {
        use filter_core::{MaintainableFilter, Parallelism};
        let spec = FilterSpec::items(20_000).fp_rate(0.07);
        let run = |p: Parallelism| {
            let mut f = BulkTcf::from_spec(&spec.clone().parallelism(p)).unwrap();
            assert_eq!(f.config().fp_bits, 12);
            let keys = hashed_keys(94, (f.slots() as f64 * 0.9) as usize);
            let mut inserted = vec![InsertOutcome::Inserted; keys.len()];
            f.insert_batch_report(&keys, &mut inserted);
            let doomed = &keys[..keys.len() / 8];
            let mut deleted = vec![DeleteOutcome::NotFound; doomed.len()];
            f.delete_batch_report(doomed, &mut deleted);
            f.grow(2).unwrap();
            let other = BulkTcf::from_spec(&spec.clone().parallelism(p)).unwrap();
            assert_eq!(other.insert_batch(&hashed_keys(95, other.slots() / 4)), 0);
            f.merge(&other).unwrap();
            let probes: Vec<u64> = keys.iter().copied().chain(hashed_keys(96, 20_000)).collect();
            (f.table.to_vec(), inserted, deleted, f.bulk_query_vec(&probes))
        };
        let oracle = run(Parallelism::Sequential);
        assert!(oracle.1.iter().all(|o| o.inserted()), "90% load must fit");
        for workers in [2u32, 8] {
            let got = run(Parallelism::Threads(workers));
            assert!(got.0 == oracle.0, "table diverges at workers={workers}");
            assert_eq!(got.1, oracle.1, "insert outcomes diverge at workers={workers}");
            assert_eq!(got.2, oracle.2, "delete outcomes diverge at workers={workers}");
            assert_eq!(got.3, oracle.3, "query verdicts diverge at workers={workers}");
        }
    }

    #[test]
    fn merge_absorbs_another_filter_and_refuses_when_tight() {
        use filter_core::MaintainableFilter;
        let mut a = BulkTcf::new(1 << 12).unwrap();
        let b = BulkTcf::new(1 << 12).unwrap();
        let keys = hashed_keys(86, 2600);
        assert_eq!(a.insert_batch(&keys[..1300]), 0);
        assert_eq!(b.insert_batch(&keys[1300..]), 0);
        a.merge(&b).unwrap();
        let mut out = vec![false; keys.len()];
        a.query_batch(&keys, &mut out);
        assert!(out.iter().all(|&x| x), "merge must keep both sides' keys");

        // Two near-full filters exceed block capacity: NeedsGrowth, state
        // unchanged; growing first makes it succeed.
        let mut c = BulkTcf::new(1 << 10).unwrap();
        let d = BulkTcf::new(1 << 10).unwrap();
        let n = (c.slots() as f64 * 0.85) as usize;
        assert_eq!(c.insert_batch(&hashed_keys(87, n)), 0);
        assert_eq!(d.insert_batch(&hashed_keys(88, n)), 0);
        let before = c.enumerate_fingerprints();
        match c.merge(&d) {
            Err(FilterError::NeedsGrowth { .. }) => {}
            other => panic!("expected NeedsGrowth, got {other:?}"),
        }
        assert_eq!(c.enumerate_fingerprints(), before, "refused merge must not mutate");
        c.grow(4).unwrap();
        c.merge(&d).unwrap();
        let keys_d = hashed_keys(88, n);
        assert!(c.bulk_query_vec(&keys_d).iter().all(|&h| h));
    }

    #[test]
    fn merge_respects_geometry_preconditions() {
        use filter_core::MaintainableFilter;
        let mut a = BulkTcf::new(1 << 12).unwrap();
        // Different base block count.
        let b = BulkTcf::new(1 << 13).unwrap();
        assert!(a.merge(&b).is_err());
        // Value-store mismatch.
        let c = BulkTcf::new(1 << 12).unwrap().with_values(16).unwrap();
        assert!(a.merge(&c).is_err());
        // A more-grown partner cannot merge downward...
        let mut d = BulkTcf::new(1 << 12).unwrap();
        d.grow(2).unwrap();
        assert!(matches!(a.merge(&d), Err(FilterError::NeedsGrowth { .. })));
        // ...but the grown side absorbs the ungrown side fine.
        let keys = hashed_keys(89, 1000);
        assert_eq!(a.insert_batch(&keys), 0);
        d.merge(&a).unwrap();
        assert!(d.bulk_query_vec(&keys).iter().all(|&h| h));
    }

    #[test]
    fn from_spec_builds_paper_bulk_geometry() {
        let f = BulkTcf::from_spec(&FilterSpec::items(10_000).fp_rate(0.004)).unwrap();
        assert_eq!(f.config().fp_bits, 16);
        assert_eq!(f.config().block_slots, 128);
        assert!(f.slots() as f64 * f.config().max_load >= 10_000.0);
        let keys = hashed_keys(33, 10_000);
        assert_eq!(f.insert_batch(&keys), 0);
        assert!(f.bulk_query_vec(&keys).iter().all(|&h| h));
    }

    #[test]
    fn dyn_facade_bulk_surface() {
        let f: filter_core::AnyFilter =
            Box::new(BulkTcf::from_spec(&FilterSpec::items(2000)).unwrap());
        let keys = hashed_keys(34, 1000);
        assert_eq!(f.bulk_insert(&keys).unwrap(), 0);
        assert!(f.bulk_query_vec(&keys).unwrap().iter().all(|&h| h));
        assert_eq!(f.bulk_delete(&keys).unwrap(), 0);
        // Point ops are not part of the bulk TCF's surface.
        assert!(matches!(f.insert(1), Err(FilterError::Unsupported(_))));
    }

    #[test]
    fn bulk_filter_trait_object() {
        let f = BulkTcf::new(1 << 10).unwrap();
        let keys = hashed_keys(29, 100);
        let dyn_f: &dyn BulkFilter = &f;
        assert_eq!(dyn_f.bulk_insert(&keys).unwrap(), 0);
        let out = dyn_f.bulk_query_vec(&keys);
        assert!(out.iter().all(|&x| x));
    }

    impl BulkTcf {
        fn len_items(&self) -> usize {
            self.occupied.load(Ordering::Relaxed)
        }
    }

    #[test]
    fn valued_batch_roundtrip() {
        let f = BulkTcf::new(1 << 14).unwrap().with_values(16).unwrap();
        let keys = hashed_keys(65, 8000);
        let pairs: Vec<(u64, u64)> =
            keys.iter().enumerate().map(|(i, &k)| (k, (i % 60_000) as u64)).collect();
        assert_eq!(f.insert_values_batch(&pairs), 0);
        let got = f.query_values_batch(&keys);
        let exact =
            keys.iter().enumerate().filter(|&(i, _)| got[i] == Some((i % 60_000) as u64)).count();
        // Fingerprint collisions may alias a few values; the rest are exact.
        assert!(exact as f64 / keys.len() as f64 > 0.99, "exact {exact}/{}", keys.len());
    }

    #[test]
    fn values_survive_merges_across_batches() {
        // Multiple batches hit the same blocks, forcing zip-merges that
        // shift stored fingerprints; their values must shift with them.
        let f = BulkTcf::new(1 << 12).unwrap().with_values(32).unwrap();
        let keys = hashed_keys(66, 2400);
        for chunk in keys.chunks(300) {
            let pairs: Vec<(u64, u64)> = chunk.iter().map(|&k| (k, k & 0xffff_ffff)).collect();
            assert_eq!(f.insert_values_batch(&pairs), 0);
        }
        let got = f.query_values_batch(&keys);
        let exact = keys.iter().zip(&got).filter(|&(&k, v)| *v == Some(k & 0xffff_ffff)).count();
        assert!(exact as f64 / keys.len() as f64 > 0.99, "exact {exact}/{}", keys.len());
    }

    #[test]
    fn values_survive_deletes() {
        let f = BulkTcf::new(1 << 12).unwrap().with_values(32).unwrap();
        let keys = hashed_keys(67, 2000);
        let pairs: Vec<(u64, u64)> = keys.iter().map(|&k| (k, k >> 32)).collect();
        assert_eq!(f.insert_values_batch(&pairs), 0);
        // Delete the first half; the second half's values must be intact
        // even where deletions compacted their blocks.
        assert_eq!(f.delete_batch(&keys[..1000]), 0);
        let got = f.query_values_batch(&keys[1000..]);
        let exact = keys[1000..].iter().zip(&got).filter(|&(&k, v)| *v == Some(k >> 32)).count();
        assert!(exact >= 990, "exact {exact}/1000");
    }

    #[test]
    fn values_without_store_fail_clean() {
        let f = BulkTcf::new(1 << 10).unwrap();
        assert_eq!(f.value_bits(), 0);
        assert_eq!(f.insert_values_batch(&[(1, 2)]), 1);
        assert_eq!(f.query_values_batch(&[1]), vec![None]);
    }

    #[test]
    fn plain_and_valued_batches_coexist() {
        let f = BulkTcf::new(1 << 12).unwrap().with_values(16).unwrap();
        let keys = hashed_keys(68, 1000);
        assert_eq!(
            f.insert_values_batch(&keys[..500].iter().map(|&k| (k, 7)).collect::<Vec<_>>()),
            0
        );
        assert_eq!(f.insert_batch(&keys[500..]), 0);
        let mut out = vec![false; keys.len()];
        f.query_batch(&keys, &mut out);
        assert!(out.iter().all(|&x| x));
        let vals = f.query_values_batch(&keys[..500]);
        let sevens = vals.iter().filter(|&&v| v == Some(7)).count();
        assert!(sevens >= 495, "sevens {sevens}");
    }

    #[test]
    fn value_store_counts_in_table_bytes() {
        use filter_core::FilterMeta;
        let plain = BulkTcf::new(1 << 12).unwrap();
        let valued = BulkTcf::new(1 << 12).unwrap().with_values(16).unwrap();
        assert!(valued.table_bytes() > plain.table_bytes());
    }
}
