//! Kernel launch machinery: maps simulated GPU grids onto a Rayon pool.
//!
//! Two launch styles mirror the paper's two API families:
//!
//! * [`Device::launch_point`] — one cooperative group per *item* (the
//!   device-side point APIs): the item space is striped across CPU workers,
//!   every worker's groups race through the shared [`crate::memory`]
//!   buffers with real atomics.
//! * [`Device::launch_regions`] — one thread per *region* (the bulk APIs:
//!   GQF even-odd phases, bulk-TCF block kernels).
//!
//! A launch returns [`KernelStats`]: wall-clock time plus the metric delta
//! for the launch window, which [`crate::cost`] converts to modeled GPU
//! time. Launches are assumed to run one-at-a-time per process (true for
//! the benchmark harness); concurrent launches would fold their traffic
//! into each other's windows.

use crate::metrics::{self, bump, Counter, Counters};
use crate::profile::DeviceProfile;
use rayon::prelude::*;
use std::time::{Duration, Instant};

/// A simulated GPU: a hardware profile plus the host thread pool that
/// executes its kernels.
#[derive(Debug, Clone)]
pub struct Device {
    profile: DeviceProfile,
    /// Host workers the bulk phases may occupy (0 = all pool workers).
    workers: usize,
}

/// Execution statistics for one kernel launch.
#[derive(Debug, Clone)]
pub struct KernelStats {
    /// Metric delta over the launch window.
    pub counters: Counters,
    /// Host wall-clock time of the launch.
    pub wall: Duration,
    /// Items processed (grid size for point launches).
    pub items: u64,
    /// Cooperative-group size used by the kernel (1 for region kernels).
    pub cg_size: u32,
    /// Parallelism exposed to the device (items for point kernels, regions
    /// for region kernels) — drives the occupancy model.
    pub active_threads: u64,
}

impl KernelStats {
    /// Merge two launches (e.g. the GQF's even phase + odd phase).
    pub fn merge(&self, other: &KernelStats) -> KernelStats {
        KernelStats {
            counters: self.counters.merge(&other.counters),
            wall: self.wall + other.wall,
            items: self.items + other.items,
            cg_size: self.cg_size.max(other.cg_size),
            active_threads: self.active_threads.max(other.active_threads),
        }
    }
}

impl Device {
    /// Build a device with the given hardware profile.
    pub fn new(profile: DeviceProfile) -> Self {
        Device { profile, workers: 0 }
    }

    /// Bound the host parallelism of every launch (and device-bounded
    /// sort) on this device: `n` workers, `0` = all pool workers. Any
    /// bound yields bit-for-bit identical results — the bulk phases are
    /// scheduling-independent — so this is purely a throughput knob
    /// (`filter_core::Parallelism::workers` maps onto it directly).
    pub fn with_workers(mut self, n: usize) -> Self {
        self.workers = n;
        self
    }

    /// Resolved host worker budget (≥ 1).
    pub fn host_workers(&self) -> usize {
        if self.workers == 0 {
            rayon::current_num_threads().max(1)
        } else {
            self.workers
        }
    }

    /// The paper's Cori testbed (Tesla V100).
    pub fn cori() -> Self {
        Device::new(DeviceProfile::cori_v100())
    }

    /// The paper's Perlmutter testbed (A100).
    pub fn perlmutter() -> Self {
        Device::new(DeviceProfile::perlmutter_a100())
    }

    /// Look up a device by model name (`"cori"` / `"perlmutter"`,
    /// case-insensitive) — the single source of truth mapping
    /// `filter_core::DeviceModel::name()` strings onto substrate devices,
    /// so spec-driven constructors across crates cannot drift apart.
    pub fn by_model_name(name: &str) -> Option<Self> {
        match name.to_ascii_lowercase().as_str() {
            "cori" => Some(Device::cori()),
            "perlmutter" => Some(Device::perlmutter()),
            _ => None,
        }
    }

    /// [`Self::by_model_name`] with the spec-construction fallback policy:
    /// model names the substrate does not know yet price as the paper's
    /// primary (Cori/V100) system.
    pub fn for_model_name(name: &str) -> Self {
        Self::by_model_name(name).unwrap_or_else(Device::cori)
    }

    /// Hardware profile.
    pub fn profile(&self) -> &DeviceProfile {
        &self.profile
    }

    /// Launch a point-style kernel: `kernel(i)` once per item `i`, one
    /// cooperative group of `cg_size` lanes per item, all items concurrent.
    ///
    /// Point kernels are *not* shadow-checked under `race-check`: they
    /// contend through atomics and simulated per-block locks by design
    /// (the paper's device-side point APIs).
    pub fn launch_point<F>(&self, n_items: usize, cg_size: u32, kernel: F) -> KernelStats
    where
        F: Fn(usize) + Sync,
    {
        self.launch_inner(n_items, cg_size, n_items as u64 * cg_size as u64, false, kernel)
    }

    /// Launch a region-style kernel: `kernel(r)` once per region `r`, one
    /// device thread per region (the bulk-API mapping, which the paper
    /// notes exposes far fewer active threads than point kernels).
    ///
    /// Under `race-check`, every [`crate::GpuBuffer`] access inside the
    /// kernel is logged per region and the launch asserts cross-region
    /// write-write / read-write disjointness — the bulk APIs' exclusive
    /// region ownership, checked instead of assumed (see [`crate::shadow`]).
    pub fn launch_regions<F>(&self, n_regions: usize, kernel: F) -> KernelStats
    where
        F: Fn(usize) + Sync,
    {
        self.launch_inner(n_regions, 1, n_regions as u64, true, kernel)
    }

    /// Apply phase of the bulk-synchronous pattern: one region task per
    /// segment of a [sorted, segmented](Self::sorted_segments) batch;
    /// `kernel(seg, lo..hi)` owns `sorted[lo..hi]` exclusively.
    pub fn launch_segments<F>(&self, bounds: &[usize], kernel: F) -> KernelStats
    where
        F: Fn(usize, std::ops::Range<usize>) + Sync,
    {
        let n_segments = bounds.len().saturating_sub(1);
        self.launch_regions(n_segments, |seg| kernel(seg, bounds[seg]..bounds[seg + 1]))
    }

    /// Partition phase of the bulk-synchronous pattern: compute `f(i)` for
    /// every batch item as independent data-parallel tasks over item
    /// ranges, bounded by this device's worker budget. Output order is the
    /// input order regardless of the budget.
    pub fn par_map<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let launch = crate::shadow::new_launch_id();
        let out = (0..n)
            .into_par_iter()
            .with_min_len(self.min_task_len(n))
            .map(|i| {
                let _task = crate::shadow::task_enter(launch, i as u64);
                f(i)
            })
            .collect();
        crate::shadow::assert_launch_clean(launch, "par_map");
        out
    }

    /// Sort phase: device-bounded stable radix sort of `(key, payload)`
    /// pairs (see [`crate::sort::radix_sort_pairs_bounded`]).
    pub fn sort_pairs(&self, data: &mut [(u64, u64)]) {
        crate::sort::radix_sort_pairs_bounded(data, self.host_workers());
    }

    /// Sort phase: device-bounded radix sort of raw hashes.
    pub fn sort_u64(&self, data: &mut [u64]) {
        crate::sort::radix_sort_u64_bounded(data, self.host_workers());
    }

    /// Sort + boundary phases in one call: stable-sort `(target, payload)`
    /// pairs by target and return the segment bounds (one segment per
    /// distinct target, `bounds[s]..bounds[s+1]` indexes segment `s`),
    /// ready for [`Self::launch_segments`].
    pub fn sorted_segments(&self, pairs: &mut [(u64, u64)]) -> Vec<usize> {
        self.sort_pairs(pairs);
        crate::sort::segment_bounds_pairs_bounded(pairs, self.host_workers())
    }

    /// Minimum items per parallel task so a launch of `n` items spawns at
    /// most `host_workers` tasks (under a bounded budget) or the default
    /// fine-grained striping (unbounded).
    fn min_task_len(&self, n: usize) -> usize {
        if self.workers == 0 {
            // Chunked striping keeps per-task overhead negligible while
            // still interleaving many simulated groups across CPU workers.
            (n / (rayon::current_num_threads() * 8)).max(1)
        } else {
            n.div_ceil(self.workers.max(1))
        }
    }

    fn launch_inner<F>(
        &self,
        n: usize,
        cg_size: u32,
        active_threads: u64,
        checked: bool,
        kernel: F,
    ) -> KernelStats
    where
        F: Fn(usize) + Sync,
    {
        let before = metrics::snapshot();
        let start = Instant::now();
        bump(Counter::KernelLaunches, 1);
        if checked {
            // Scope every simulated worker so the shadow logger attributes
            // buffer traffic to the region (not the host thread), then
            // assert the launch's cross-region exclusivity invariant.
            let launch = crate::shadow::new_launch_id();
            (0..n).into_par_iter().with_min_len(self.min_task_len(n)).for_each(|r| {
                let _task = crate::shadow::task_enter(launch, r as u64);
                kernel(r)
            });
            crate::shadow::assert_launch_clean(launch, "region");
        } else {
            (0..n).into_par_iter().with_min_len(self.min_task_len(n)).for_each(&kernel);
        }
        let wall = start.elapsed();
        bump(Counter::Items, n as u64);
        let counters = metrics::snapshot().since(&before);
        KernelStats {
            counters,
            wall,
            items: n as u64,
            cg_size,
            active_threads: active_threads.min(self.profile.max_threads.max(1)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn point_launch_runs_every_item_once() {
        let dev = Device::cori();
        let n = 10_000;
        let hits = AtomicU64::new(0);
        // The launch counts itself on the calling thread; a per-thread
        // delta keeps sibling tests' launches out of the exact count (the
        // process-wide `stats.counters` snapshot does not).
        let before = metrics::snapshot_current_thread();
        let stats = dev.launch_point(n, 4, |_i| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        let launches = metrics::snapshot_current_thread().since(&before);
        assert_eq!(hits.load(Ordering::Relaxed), n as u64);
        assert_eq!(stats.items, n as u64);
        assert_eq!(stats.cg_size, 4);
        assert_eq!(launches.get(Counter::KernelLaunches), 1);
        assert!(stats.counters.get(Counter::Items) >= n as u64);
    }

    #[test]
    fn region_launch_covers_all_regions() {
        let dev = Device::perlmutter();
        let n = 513;
        let seen = (0..n).map(|_| AtomicU64::new(0)).collect::<Vec<_>>();
        let stats = dev.launch_regions(n, |r| {
            seen[r].fetch_add(1, Ordering::Relaxed);
        });
        assert!(seen.iter().all(|s| s.load(Ordering::Relaxed) == 1));
        assert_eq!(stats.active_threads, n as u64);
    }

    #[test]
    fn active_threads_clamped_to_device() {
        let dev = Device::cori();
        let stats = dev.launch_point(1_000_000, 32, |_| {});
        assert!(stats.active_threads <= dev.profile().max_threads);
    }

    #[test]
    fn stats_merge_adds_items_and_walls() {
        let dev = Device::cori();
        let a = dev.launch_regions(10, |_| {});
        let b = dev.launch_regions(20, |_| {});
        let m = a.merge(&b);
        assert_eq!(m.items, 30);
        assert!(m.wall >= a.wall);
    }

    #[test]
    fn worker_budget_resolves_and_bounds() {
        let dev = Device::cori();
        assert!(dev.host_workers() >= 1, "auto resolves to the pool width");
        let dev1 = Device::cori().with_workers(1);
        assert_eq!(dev1.host_workers(), 1);
        assert_eq!(dev1.min_task_len(1000), 1000, "one worker ⇒ one task");
        let dev3 = Device::cori().with_workers(3);
        assert_eq!(dev3.min_task_len(1000), 334, "ceil(n / workers)");
    }

    #[test]
    fn par_map_preserves_input_order_for_every_budget() {
        for workers in [0usize, 1, 2, 8] {
            let dev = Device::cori().with_workers(workers);
            let out = dev.par_map(10_000, |i| i as u64 * 3);
            assert!(out.iter().enumerate().all(|(i, &x)| x == i as u64 * 3), "w={workers}");
        }
    }

    #[test]
    fn sorted_segments_then_launch_segments_cover_the_batch() {
        let dev = Device::cori().with_workers(2);
        let mut pairs: Vec<(u64, u64)> = (0..5000u64).map(|i| (i % 37, i)).collect();
        let bounds = dev.sorted_segments(&mut pairs);
        assert_eq!(bounds.len() - 1, 37, "one segment per distinct target");
        let visited: Vec<AtomicU64> = (0..pairs.len()).map(|_| AtomicU64::new(0)).collect();
        let pairs_ref = &pairs;
        let visited_ref = &visited;
        let stats = dev.launch_segments(&bounds, |seg, range| {
            let target = pairs_ref[range.start].0;
            for i in range {
                assert_eq!(pairs_ref[i].0, target, "segment {seg} mixes targets");
                visited_ref[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(visited.iter().all(|v| v.load(Ordering::Relaxed) == 1));
        assert_eq!(stats.items, 37);
    }

    /// The sanitizer's live-fire proof: a region launch whose kernels
    /// write overlapping slots of one buffer must panic under
    /// `race-check`. (The static analogue lives in `filter-lint`'s
    /// fixtures; this is the dynamic one.)
    #[test]
    #[cfg(feature = "race-check")]
    #[should_panic(expected = "race-check")]
    fn overlapping_region_writes_trip_the_sanitizer() {
        let dev = Device::cori().with_workers(2);
        let buf = crate::GpuBuffer::new(64, 16);
        // Every region writes slot 0: a cross-worker write-write race.
        dev.launch_regions(4, |_r| {
            buf.write(0, 7);
        });
    }

    #[test]
    #[cfg(feature = "race-check")]
    fn disjoint_region_writes_pass_the_sanitizer() {
        let dev = Device::cori().with_workers(2);
        let buf = crate::GpuBuffer::new(64, 16);
        let before = crate::shadow::launches_verified();
        dev.launch_regions(4, |r| {
            let base = r * 16;
            for s in 0..16 {
                buf.write(base + s, s as u64);
            }
            // Reading the worker's own slots back is equally legal.
            for s in 0..16 {
                assert_eq!(buf.read(base + s), s as u64);
            }
        });
        assert!(crate::shadow::launches_verified() > before, "launch was not verified");
        assert!(crate::shadow::accesses_recorded() > 0);
    }

    #[test]
    #[cfg(feature = "race-check")]
    #[should_panic(expected = "read-write")]
    fn cross_worker_read_of_written_slots_trips_the_sanitizer() {
        let dev = Device::cori().with_workers(2);
        let buf = crate::GpuBuffer::new(64, 16);
        dev.launch_regions(2, |r| {
            if r == 0 {
                buf.write(5, 1);
            } else {
                let _ = buf.read(5);
            }
        });
    }
}
