//! Key → shard routing.
//!
//! The router is the serving layer's analogue of the filters' block-choice
//! hash: it must be deterministic (the same key always reaches the same
//! shard, or membership breaks), uniform (shards stay balanced under any
//! key distribution, including adversarial low-entropy streams), and
//! *independent* of the backends' internal hashes (all `fmix64`-derived),
//! so the keys routed to one shard do not cluster inside that shard's
//! table. SplitMix64 over a router seed gives all three.
//!
//! [`RingRouter`] places keys by consistent hashing over a ring of
//! splitmix-hashed virtual-node points, looked up by binary search.
//! Because a shard's points depend only on its own index (never on the
//! total shard count), resizing `n → n ± k` re-owns only the arcs that
//! actually change hands — ~`k/n` of the key space — which is what makes
//! live scale-*in* as cheap as scale-out
//! ([`ShardedFilter::set_shards`](crate::ShardedFilter::set_shards)).
//! Per-shard weights support heterogeneous capacity.
//!
//! Raw iid vnode points leave ~`1/√V` relative imbalance (≈ 9 % at
//! V = 128, with worst-of-n excursions past 20 %), so [`RingRouter`]
//! applies a deterministic *balance correction*: per-shard vnode counts
//! are iterated against the ring's exact arc measure until every shard's
//! share sits within a couple of percent of its weight target. Each
//! shard's points remain a prefix of one deterministic per-shard
//! sequence, so the correction only nudges a handful of tiny arcs and
//! the ~`1/n` movement bound survives.

use filter_core::hash::splitmix64;

/// Default router seed; distinct from every filter-internal hash seed.
pub const ROUTER_SEED: u64 = 0x5e47_1ce5_0f11_7e25;

/// Default virtual nodes per (unit-weight) shard.
pub const DEFAULT_VNODES: u32 = 128;

/// Salt separating per-shard point sequences (vnode base derivation).
const SHARD_SALT: u64 = 0x9e37_79b9_7f4a_7c15;

/// Salt striding within one shard's point sequence.
const VNODE_SALT: u64 = 0xd1b5_4a32_d192_ed03;

/// Fixed-point iterations of the balance correction. Convergence is
/// geometric (each round retires the measured share error down to vnode
/// granularity, ~1/V relative); the best observed assignment is kept, so
/// extra rounds can only help.
const BALANCE_ROUNDS: u32 = 24;

/// Consistent-hash router: shards own arcs of a 2⁶⁴ ring via
/// splitmix-hashed virtual-node points; a key goes to the owner of the
/// first point at or clockwise of its hash (binary search, wrapping).
///
/// Shard `i`'s points are a prefix of the deterministic sequence
/// `splitmix64(base_i ^ v·SALT)`, independent of the total shard count —
/// so adding or removing shards re-owns only the arcs adjacent to the
/// points that appear or vanish, ~`k/n` of the ring for an `n → n ± k`
/// resize. Per-shard vnode counts start at `round(vnodes × n × wᵢ/Σw)`
/// and are balance-corrected against the ring's exact arc measure (see
/// the [module docs](self)), holding every shard within a few percent of
/// its weight target at the default 128 vnodes.
#[derive(Debug, Clone, PartialEq)]
pub struct RingRouter {
    shards: usize,
    seed: u64,
    vnodes: u32,
    /// Normalized weight targets (fractions of the ring, summing to 1).
    targets: Vec<f64>,
    /// Balance-corrected vnode count per shard.
    vnode_counts: Vec<u32>,
    /// Sorted `(point, shard)` pairs; ties break toward the lower shard.
    points: Vec<(u64, u32)>,
}

impl RingRouter {
    /// Ring over `shards` equal-weight shards, default seed and vnodes.
    /// A shard count of zero is clamped to one.
    pub fn new(shards: usize) -> Self {
        Self::with_seed(shards, ROUTER_SEED)
    }

    /// Ring with an explicit seed, default vnodes, equal weights.
    pub fn with_seed(shards: usize, seed: u64) -> Self {
        Self::with_config(shards, seed, DEFAULT_VNODES, None)
    }

    /// Fully-specified ring. `vnodes` is the per-unit-weight point budget
    /// (zero is clamped to one). `weights`, when given, sets each shard's
    /// share of the key space proportional to its entry — for shards on
    /// heterogeneous capacity; entries are padded with `1.0` / sanitized
    /// to be finite and positive, so the constructor is total.
    pub fn with_config(shards: usize, seed: u64, vnodes: u32, weights: Option<&[f64]>) -> Self {
        let shards = shards.max(1);
        let vnodes = vnodes.max(1);
        let mut w = vec![1.0f64; shards];
        if let Some(weights) = weights {
            for (slot, &given) in w.iter_mut().zip(weights) {
                if given.is_finite() && given > 0.0 {
                    *slot = given;
                }
            }
        }
        let sum: f64 = w.iter().sum();
        let targets: Vec<f64> = w.iter().map(|x| x / sum).collect();
        let vnode_counts = corrected_counts(seed, vnodes, &targets);
        let points = build_points(seed, &vnode_counts);
        RingRouter { shards, seed, vnodes, targets, vnode_counts, points }
    }

    /// Number of shards routed over.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The seed the key hash and every vnode point derive from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Per-unit-weight vnode budget this ring was built with.
    pub fn vnodes(&self) -> u32 {
        self.vnodes
    }

    /// Balance-corrected vnode count per shard.
    pub fn vnode_counts(&self) -> &[u32] {
        &self.vnode_counts
    }

    /// Owner of ring position `h`: the shard of the first point at or
    /// after `h`, wrapping past the top of the ring.
    #[inline]
    pub fn route_hash(&self, h: u64) -> usize {
        let idx = self.points.partition_point(|&(p, _)| p < h);
        let idx = if idx == self.points.len() { 0 } else { idx };
        self.points[idx].1 as usize
    }

    /// Shard index for `key`, in `0..shards()`.
    #[inline]
    pub fn route(&self, key: u64) -> usize {
        self.route_hash(splitmix64(key ^ self.seed))
    }

    /// Split `keys` into per-shard key vectors, remembering each key's
    /// position in the input so batched results can be scattered back in
    /// order. Returns `(keys_by_shard, positions_by_shard)`.
    ///
    /// Runs on the hot submit path of every batch: the per-shard vectors
    /// are pre-sized to the expected uniform share so a batch does not pay
    /// a doubling cascade per shard.
    pub fn partition(&self, keys: &[u64]) -> (Vec<Vec<u64>>, Vec<Vec<u32>>) {
        let per_shard = keys.len().div_ceil(self.shards);
        let mut by_shard: Vec<Vec<u64>> =
            (0..self.shards).map(|_| Vec::with_capacity(per_shard)).collect();
        let mut positions: Vec<Vec<u32>> =
            (0..self.shards).map(|_| Vec::with_capacity(per_shard)).collect();
        for (i, &k) in keys.iter().enumerate() {
            let s = self.route(k);
            by_shard[s].push(k);
            positions[s].push(i as u32);
        }
        (by_shard, positions)
    }

    /// Exact fraction of the ring each shard owns (sums to 1). This is
    /// the asymptotic load share under a uniform key hash — what the
    /// balance correction drives toward the weight targets.
    pub fn arc_shares(&self) -> Vec<f64> {
        arc_shares_of(&self.points, self.shards)
    }

    /// Normalized weight target per shard (uniform rings: `1/n` each).
    pub fn targets(&self) -> &[f64] {
        &self.targets
    }

    /// Per new shard: the sorted set of `old` shards whose arcs it owns
    /// under `new` — i.e. which old backends a fresh shard-`j` backend
    /// must absorb so no key's membership answer is lost across the
    /// resize. Computed by an elementary-arc sweep: ownership changes only
    /// at vnode points, so comparing the two rings at every point of
    /// either suffices.
    pub fn inheritors(old: &RingRouter, new: &RingRouter) -> Vec<Vec<usize>> {
        let mut sets: Vec<std::collections::BTreeSet<usize>> =
            vec![std::collections::BTreeSet::new(); new.shards];
        for &(p, _) in old.points.iter().chain(new.points.iter()) {
            sets[new.route_hash(p)].insert(old.route_hash(p));
        }
        sets.into_iter().map(|s| s.into_iter().collect()).collect()
    }

    /// Fraction of a deterministic `samples`-key probe set that routes
    /// differently under `other` — the measured movement cost of swapping
    /// this ring for that one (an `n → n ± k` resize sits near
    /// `k/(n ± k)`).
    pub fn moved_fraction(&self, other: &RingRouter, samples: u64) -> f64 {
        let samples = samples.max(1);
        let moved = (0..samples)
            .filter(|&i| {
                let key = splitmix64(i);
                self.route(key) != other.route(key)
            })
            .count();
        moved as f64 / samples as f64
    }
}

/// The `v`-th point of shard `shard`'s deterministic sequence. Depends
/// only on (seed, shard, v) — never on the total shard count.
#[inline]
fn vnode_point(seed: u64, shard: usize, v: u32) -> u64 {
    let base = splitmix64(seed ^ (shard as u64).wrapping_mul(SHARD_SALT));
    splitmix64(base ^ u64::from(v).wrapping_mul(VNODE_SALT))
}

/// Sorted ring points for the given per-shard vnode counts.
fn build_points(seed: u64, vnode_counts: &[u32]) -> Vec<(u64, u32)> {
    let total: usize = vnode_counts.iter().map(|&c| c as usize).sum();
    let mut points = Vec::with_capacity(total);
    for (shard, &count) in vnode_counts.iter().enumerate() {
        for v in 0..count {
            points.push((vnode_point(seed, shard, v), shard as u32));
        }
    }
    points.sort_unstable();
    points
}

/// Exact arc measure per shard as a fraction of the full ring. A key at
/// position `h` belongs to the first point `≥ h` (wrapping), so point
/// `pᵢ` owns the arc `(pᵢ₋₁, pᵢ]` and the wrap arc belongs to the first
/// sorted point.
fn arc_shares_of(points: &[(u64, u32)], shards: usize) -> Vec<f64> {
    let mut measure = vec![0u128; shards];
    if points.is_empty() {
        return vec![0.0; shards];
    }
    for (idx, &(p, shard)) in points.iter().enumerate() {
        let prev = if idx == 0 { points[points.len() - 1].0 } else { points[idx - 1].0 };
        let arc = if points.len() == 1 { 1u128 << 64 } else { u128::from(p.wrapping_sub(prev)) };
        measure[shard as usize] += arc;
    }
    let total = (1u128 << 64) as f64;
    measure.into_iter().map(|m| m as f64 / total).collect()
}

/// Balance-corrected per-shard vnode counts: iterate the exact arc
/// shares against the weight targets, nudging each shard's count by the
/// measured error in whole-vnode units (clamped to ±3 per round so the
/// fixed point cannot oscillate wildly), and keep the best assignment
/// seen. Deterministic in (seed, vnodes, targets).
fn corrected_counts(seed: u64, vnodes: u32, targets: &[f64]) -> Vec<u32> {
    let n = targets.len();
    let mut counts: Vec<u32> = targets
        .iter()
        .map(|&t| ((f64::from(vnodes) * t * n as f64).round() as u32).max(1))
        .collect();
    let mut best = (f64::MAX, counts.clone());
    for _ in 0..BALANCE_ROUNDS {
        let points = build_points(seed, &counts);
        let shares = arc_shares_of(&points, n);
        let worst =
            shares.iter().zip(targets).map(|(s, t)| (s / t - 1.0).abs()).fold(0.0f64, f64::max);
        if worst < best.0 {
            best = (worst, counts.clone());
        }
        let total: i64 = counts.iter().map(|&c| i64::from(c)).sum();
        let mut changed = false;
        for i in 0..n {
            let delta = ((shares[i] - targets[i]) * total as f64).round() as i64;
            let next = (i64::from(counts[i]) - delta.clamp(-3, 3)).max(1) as u32;
            if next != counts[i] {
                counts[i] = next;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    best.1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routing_is_in_range_and_deterministic() {
        // Non-default seeds and vnode budgets: the route stays a pure
        // function of the ring's configuration.
        for (shards, seed, vnodes) in [(1usize, 7u64, 1u32), (3, 8, 16), (8, 9, 300), (17, 10, 64)]
        {
            let r = RingRouter::with_config(shards, seed, vnodes, None);
            let again = RingRouter::with_config(shards, seed, vnodes, None);
            for key in 0..10_000u64 {
                let s = r.route(key);
                assert!(s < shards);
                assert_eq!(s, again.route(key), "instance-dependent routing");
            }
        }
    }

    #[test]
    fn seeds_decorrelate_routes() {
        let a = RingRouter::with_seed(8, 1);
        let b = RingRouter::with_seed(8, 2);
        let agree = (0..10_000u64).filter(|&k| a.route(k) == b.route(k)).count();
        // Independent routers agree ~1/8 of the time.
        assert!(agree < 2000, "routers too correlated: {agree}");
    }

    #[test]
    fn partition_scatters_and_preserves_positions() {
        let r = RingRouter::new(4);
        let keys: Vec<u64> = (100..200).collect();
        let (by_shard, pos) = r.partition(&keys);
        let total: usize = by_shard.iter().map(|v| v.len()).sum();
        assert_eq!(total, keys.len());
        for s in 0..4 {
            assert_eq!(by_shard[s].len(), pos[s].len());
            for (k, &p) in by_shard[s].iter().zip(&pos[s]) {
                assert_eq!(keys[p as usize], *k);
                assert_eq!(r.route(*k), s);
            }
        }
    }

    #[test]
    fn zero_shards_clamps_to_one() {
        let r = RingRouter::new(0);
        assert_eq!(r.shards(), 1);
        assert_eq!(r.route(123), 0);
        assert_eq!(r.arc_shares(), vec![1.0]);
    }

    #[test]
    fn ring_routes_in_range_and_deterministically() {
        for shards in [1usize, 2, 5, 9, 24] {
            let a = RingRouter::new(shards);
            let b = RingRouter::new(shards);
            for key in 0..5_000u64 {
                let s = a.route(key);
                assert!(s < shards);
                assert_eq!(s, b.route(key), "instance-dependent ring routing");
            }
        }
    }

    #[test]
    fn ring_balance_correction_beats_the_iid_bound() {
        // The acceptance target is ±10% at the default 128 vnodes; the
        // corrected arc shares sit well inside it for every count the
        // serving tier exercises.
        for shards in [2usize, 3, 4, 5, 6, 7, 8, 12, 16] {
            let r = RingRouter::new(shards);
            for (s, &share) in r.arc_shares().iter().enumerate() {
                let dev = (share * shards as f64 - 1.0).abs();
                assert!(dev < 0.10, "shard {s}/{shards} arc share off by {:.1}%", dev * 100.0);
            }
        }
    }

    #[test]
    fn ring_weights_skew_the_shares() {
        let r = RingRouter::with_config(3, ROUTER_SEED, DEFAULT_VNODES, Some(&[1.0, 2.0, 1.0]));
        let shares = r.arc_shares();
        for (share, target) in shares.iter().zip([0.25, 0.5, 0.25]) {
            assert!(
                (share / target - 1.0).abs() < 0.10,
                "weighted shares {shares:?} missed targets"
            );
        }
        // Garbage weights sanitize to 1.0 instead of panicking.
        let r = RingRouter::with_config(2, ROUTER_SEED, 64, Some(&[f64::NAN, -3.0]));
        let shares = r.arc_shares();
        assert!((shares[0] - 0.5).abs() < 0.05, "sanitized weights stay uniform: {shares:?}");
    }

    #[test]
    fn ring_resize_moves_a_bounded_fraction() {
        for n in [2usize, 4, 8, 16] {
            let old = RingRouter::new(n);
            let up = RingRouter::new(n + 1);
            let moved = old.moved_fraction(&up, 50_000);
            assert!(
                moved <= 2.0 / n as f64,
                "{n}→{} moved {moved:.3}, bound {:.3}",
                n + 1,
                2.0 / n as f64
            );
            assert!(moved > 0.0, "a resize must move something");
        }
    }

    #[test]
    fn ring_inheritors_cover_every_ownership_change() {
        let old = RingRouter::new(4);
        let new = RingRouter::new(6);
        let inherit = RingRouter::inheritors(&old, &new);
        assert_eq!(inherit.len(), 6);
        // Brute-force check over a key probe: whoever owns a key under
        // `new` must list the key's old owner as an inheritor source.
        for key in 0..20_000u64 {
            let (o, n) = (old.route(key), new.route(key));
            assert!(
                inherit[n].contains(&o),
                "key {key}: new owner {n} does not inherit old owner {o}"
            );
        }
    }

    #[test]
    fn ring_partition_matches_route() {
        let r = RingRouter::new(5);
        let keys: Vec<u64> = (0..500u64).map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15)).collect();
        let (by_shard, pos) = r.partition(&keys);
        let total: usize = by_shard.iter().map(|v| v.len()).sum();
        assert_eq!(total, keys.len());
        for (s, (ks, ps)) in by_shard.iter().zip(&pos).enumerate() {
            for (&k, &p) in ks.iter().zip(ps) {
                assert_eq!(r.route(k), s);
                assert_eq!(keys[p as usize], k);
            }
        }
    }
}
