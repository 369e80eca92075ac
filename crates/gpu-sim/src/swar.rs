//! SWAR lane kernels: branch-light u64 "SIMD within a register" primitives
//! for the TCF's block-probe and block-scan hot paths.
//!
//! Every kernel here is *exact* — no cross-lane carry or borrow artifacts —
//! because the filter kernels built on top must stay bit-identical to their
//! scalar reference twins under the oracle matrix. In particular the
//! classic `haszero(x) = (x - ones) & !x & highs` trick is **not** used:
//! subtraction borrows across lane boundaries, so a lane holding `1`
//! directly above a zero lane reports a false zero. The formulation used
//! instead,
//!
//! ```text
//! zero_lanes(x) = !(((x & low) + low) | x) & highs
//! ```
//!
//! with `low = broadcast(2^(w-1) - 1)` and `highs = broadcast(2^(w-1))`,
//! only ever carries *within* a lane: `(x & low) + low` sets a lane's high
//! bit iff the low `w-1` bits are nonzero, and OR-ing `x` back in folds in
//! the lane's own high bit, so the high bit of lane i in the complement is
//! set iff lane i of `x` is exactly zero.
//!
//! ## Runtime switch
//!
//! The switch selects only the TCF block kernels: they keep their scalar
//! loops as the reference implementation and consult [`enabled`] to pick
//! the SWAR twin. (The GQF's metadata walks are word-at-a-time always and
//! do not read the switch.) The default comes from the `swar` cargo
//! feature; [`set_enabled`] lets a
//! single-threaded bench binary flip the switch at runtime to record
//! scalar-vs-SWAR rows in one process. Tests must *not* toggle the global
//! switch (the test harness is multi-threaded) — they call the twin
//! functions directly instead.

use std::sync::atomic::{AtomicBool, Ordering};

/// Global kernel-selection switch, defaulted from the `swar` feature.
static SWAR_ENABLED: AtomicBool = AtomicBool::new(cfg!(feature = "swar"));

/// Whether hot paths should take their SWAR twin (true) or the scalar
/// reference twin (false).
#[inline]
pub fn enabled() -> bool {
    SWAR_ENABLED.load(Ordering::Relaxed)
}

/// Flip the kernel-selection switch at runtime. Meant for single-threaded
/// bench binaries recording scalar-vs-SWAR trajectory rows; concurrent
/// tests must call the twins directly instead of toggling this.
pub fn set_enabled(on: bool) {
    SWAR_ENABLED.store(on, Ordering::Relaxed);
}

/// Replicate the low `w` bits of `v` across every `w`-bit lane of a u64.
/// Lanes are the `64 / w` full lanes starting at bit 0; any remainder bits
/// at the top stay zero. `w` must be in `1..=64`.
#[inline]
#[must_use]
pub fn broadcast(v: u64, w: u32) -> u64 {
    debug_assert!((1..=64).contains(&w));
    let lane = v & lane_mask(w);
    let mut out = 0u64;
    let mut shift = 0u32;
    while shift + w <= 64 {
        out |= lane << shift;
        shift += w;
    }
    out
}

/// All-ones mask of one `w`-bit lane.
#[inline]
#[must_use]
pub fn lane_mask(w: u32) -> u64 {
    debug_assert!((1..=64).contains(&w));
    if w == 64 {
        u64::MAX
    } else {
        (1u64 << w) - 1
    }
}

/// Number of full `w`-bit lanes in a u64.
#[inline]
#[must_use]
pub fn lanes_per_word(w: u32) -> u32 {
    64 / w
}

/// High (sign) bit of every full lane: `broadcast(2^(w-1), w)`.
#[inline]
#[must_use]
pub fn high_bits(w: u32) -> u64 {
    broadcast(1u64 << (w - 1), w)
}

/// Exact per-lane zero test over the first `lanes` full lanes of `x`.
/// Returns a compact bitmask with bit i set iff lane i of `x` is zero.
/// Lanes at index `lanes` and above (including dead top bits when
/// `64 % w != 0`) are ignored.
#[inline]
#[must_use]
pub fn zero_lanes(x: u64, w: u32, lanes: u32) -> u64 {
    debug_assert!(lanes <= lanes_per_word(w));
    if w == 64 {
        return u64::from(lanes == 1 && x == 0);
    }
    let low = broadcast(lane_mask(w) >> 1, w);
    let highs = high_bits(w);
    // Lane high bit set in `marked` iff the lane is nonzero; carries never
    // cross a lane boundary because each `(x & low) + low` sum is at most
    // 2^w - 2 per lane.
    let marked = ((x & low) + low) | x;
    let zeros = !marked & highs;
    compact_high_bits(zeros, w, lanes)
}

/// Per-lane equality against a broadcast value: bit i set iff lane i of
/// `x` equals the low `w` bits of `v`.
#[inline]
#[must_use]
pub fn eq_lanes(x: u64, v: u64, w: u32, lanes: u32) -> u64 {
    zero_lanes(x ^ broadcast(v, w), w, lanes)
}

/// Per-lane "lane value <= 1" test — the TCF free-slot predicate, where
/// EMPTY = 0 and TOMBSTONE = 1. Clearing bit 0 of each lane maps both to
/// zero and every other value to nonzero.
#[inline]
#[must_use]
pub fn le_one_lanes(x: u64, w: u32, lanes: u32) -> u64 {
    zero_lanes(x & !broadcast(1, w), w, lanes)
}

/// Exact per-lane unsigned `x < y` over the first `lanes` full lanes.
/// Uses the carry-save borrow formulation; the high bit of each lane of
/// the intermediate is computed without cross-lane borrows.
#[inline]
#[must_use]
pub fn lt_lanes(x: u64, y: u64, w: u32, lanes: u32) -> u64 {
    debug_assert!(lanes <= lanes_per_word(w));
    if w == 64 {
        return u64::from(lanes == 1 && x < y);
    }
    let h = high_bits(w);
    // Split each lane as v = vh·2^(w-1) + vl. The full-word subtract
    // (x|h) − (y&!h) computes xl + 2^(w-1) − yl per lane; every lane's
    // minuend exceeds its subtrahend, so no borrow ever crosses a lane
    // boundary, and the lane's high bit in `s` is set iff xl >= yl.
    // Then x < y iff (!xh & yh) | (xh == yh & xl < yl).
    let s = (x | h).wrapping_sub(y & !h);
    let lt = ((!x & y) | (!(x ^ y) & !s)) & h;
    compact_high_bits(lt, w, lanes)
}

/// Compact a word whose per-lane *high bits* carry the predicate into a
/// dense bitmask (bit i = lane i), keeping only the first `lanes` lanes.
#[inline]
#[must_use]
fn compact_high_bits(mut marked: u64, w: u32, lanes: u32) -> u64 {
    let mut mask = 0u64;
    while marked != 0 {
        let bit = marked.trailing_zeros();
        let lane = bit / w;
        if lane < lanes {
            mask |= 1u64 << lane;
        }
        marked &= marked - 1;
    }
    mask
}

/// Select the position (0-based, counting from bit 0) of the `rank`-th set
/// bit of `word`; `rank` is 0-based. Returns 64 when `word` has no such
/// bit. This is the select half of the GQF's word-at-a-time rank/select
/// metadata walk.
#[inline]
#[must_use]
pub fn select_in_word(mut word: u64, rank: u32) -> u32 {
    for _ in 0..rank {
        word &= word.wrapping_sub(1);
    }
    if word == 0 {
        64
    } else {
        word.trailing_zeros()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Scalar reference for the lane kernels: extract each lane and test
    /// it the slow way.
    fn lane(x: u64, i: u32, w: u32) -> u64 {
        (x >> (i * w)) & lane_mask(w)
    }

    fn ref_zero_lanes(x: u64, w: u32, lanes: u32) -> u64 {
        (0..lanes).filter(|&i| lane(x, i, w) == 0).fold(0, |m, i| m | (1 << i))
    }

    fn ref_lt_lanes(x: u64, y: u64, w: u32, lanes: u32) -> u64 {
        (0..lanes).filter(|&i| lane(x, i, w) < lane(y, i, w)).fold(0, |m, i| m | (1 << i))
    }

    #[test]
    fn broadcast_fills_full_lanes_only() {
        assert_eq!(broadcast(0xAB, 8), 0xABAB_ABAB_ABAB_ABAB);
        // 12-bit lanes: 5 full lanes, 4 dead top bits stay zero.
        let b = broadcast(0xFFF, 12);
        assert_eq!(b >> 60, 0);
        assert_eq!(b & 0xFFF, 0xFFF);
        assert_eq!(broadcast(u64::MAX, 64), u64::MAX);
    }

    #[test]
    fn zero_lanes_is_exact_no_borrow_false_positives() {
        // The classic haszero trick fails on a `1` lane above a zero lane;
        // this formulation must not.
        for w in [8u32, 12, 16, 32] {
            let lanes = lanes_per_word(w);
            // lane 0 = 0, lane 1 = 1, all other lanes saturated: only
            // lane 0 is zero. The borrow-prone classic trick would also
            // flag lane 1 (the `1` directly above the zero lane).
            let mut x = 1u64 << w;
            for i in 2..lanes {
                x |= lane_mask(w) << (i * w);
            }
            assert_eq!(zero_lanes(x, w, lanes), 1, "w={w}");
        }
    }

    #[test]
    fn kernels_match_reference_exhaustively_small() {
        // 8-bit lanes, all 2-lane prefixes of structured words.
        let samples = [
            0u64,
            u64::MAX,
            0x0101_0101_0101_0101,
            0x0001_0200_FF00_0100,
            0x8080_8080_8080_8080,
            0x7F7F_7F7F_7F7F_7F7F,
            0xDEAD_BEEF_CAFE_F00D,
        ];
        for w in [8u32, 12, 16, 32, 64] {
            let full = lanes_per_word(w);
            for &x in &samples {
                for lanes in 0..=full {
                    assert_eq!(zero_lanes(x, w, lanes), ref_zero_lanes(x, w, lanes), "w={w}");
                    for &y in &samples {
                        assert_eq!(
                            lt_lanes(x, y, w, lanes),
                            ref_lt_lanes(x, y, w, lanes),
                            "w={w} x={x:#x} y={y:#x}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn eq_lanes_finds_fingerprints() {
        let w = 8;
        // lanes from bit 0: [5, 0, 5, 7, 5, 1, 0, 5]
        let x = 0x0500_0105_0705_0005u64;
        assert_eq!(eq_lanes(x, 5, w, 8), 0b1001_0101);
        assert_eq!(eq_lanes(x, 7, w, 8), 0b0000_1000);
        assert_eq!(eq_lanes(x, 9, w, 8), 0);
    }

    #[test]
    fn le_one_lanes_is_the_free_slot_predicate() {
        let w = 16;
        // lanes: [0 (EMPTY), 1 (TOMBSTONE), 2 (live), 0x8000]
        let x = 0x8000_0002_0001_0000u64;
        assert_eq!(le_one_lanes(x, w, 4), 0b0011);
    }

    #[test]
    fn select_in_word_matches_bit_walk() {
        let word = 0b1011_0100_1000u64;
        let set: Vec<u32> = (0..64).filter(|&b| word & (1 << b) != 0).collect();
        for (r, &pos) in set.iter().enumerate() {
            assert_eq!(select_in_word(word, r as u32), pos);
        }
        assert_eq!(select_in_word(word, set.len() as u32), 64);
        assert_eq!(select_in_word(0, 0), 64);
    }

    #[test]
    fn randomized_against_reference() {
        // Deterministic xorshift so the test needs no RNG crate plumbing.
        let mut s = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        for _ in 0..2_000 {
            let (x, y) = (next(), next());
            for w in [8u32, 12, 16, 32] {
                let lanes = lanes_per_word(w);
                assert_eq!(zero_lanes(x, w, lanes), ref_zero_lanes(x, w, lanes));
                assert_eq!(lt_lanes(x, y, w, lanes), ref_lt_lanes(x, y, w, lanes));
                let v = y & lane_mask(w);
                let eq_ref =
                    (0..lanes).filter(|&i| lane(x, i, w) == v).fold(0u64, |m, i| m | (1 << i));
                assert_eq!(eq_lanes(x, v, w, lanes), eq_ref);
            }
        }
    }
}
