//! Traffic-tracked access to the GQF's slot array and metadata bitvectors.
//!
//! GQF operations hold exclusive access to their slots (region locks or
//! even-odd phases), so reads and writes need no per-access atomicity —
//! but they must still be *priced* like GPU traffic. A [`Tracked`] cursor
//! charges one line load (or store) whenever an access crosses into a
//! cache line different from the last one it touched, which models the
//! sequential cluster walks and the custom `memmove` of §5.2 at
//! cache-line granularity.

use gpu_sim::metrics::{bump, Counter};
use gpu_sim::GpuBuffer;

/// A line-granular traffic cursor over one buffer.
///
/// Create one per kernel operation; drop it when the operation ends.
pub struct Tracked<'a> {
    buf: &'a GpuBuffer,
    last_read_line: usize,
    last_write_line: usize,
}

const NO_LINE: usize = usize::MAX;

impl<'a> Tracked<'a> {
    /// Wrap a buffer.
    pub fn new(buf: &'a GpuBuffer) -> Self {
        Tracked { buf, last_read_line: NO_LINE, last_write_line: NO_LINE }
    }

    /// Read a slot, charging a line load when leaving the cached line.
    #[inline]
    pub fn get(&mut self, slot: usize) -> u64 {
        let line = self.buf.line_of(slot);
        if line != self.last_read_line {
            bump(Counter::LinesLoaded, 1);
            self.last_read_line = line;
        }
        self.buf.read_free(slot)
    }

    /// Write a slot, charging a line store when leaving the cached line.
    #[inline]
    pub fn set(&mut self, slot: usize, value: u64) {
        let line = self.buf.line_of(slot);
        if line != self.last_write_line {
            bump(Counter::LinesStored, 1);
            self.last_write_line = line;
        }
        self.buf.write_free(slot, value);
    }

    /// Boolean view for 1-bit buffers.
    #[inline]
    pub fn get_bit(&mut self, slot: usize) -> bool {
        self.get(slot) != 0
    }

    /// Read the whole 64-slot backing word containing `slot` (for 1-bit
    /// buffers: 64 metadata bits at once — the metadata walks' data path),
    /// charging a line load exactly like a slot read on the same line.
    #[inline]
    pub fn get_word(&mut self, slot: usize) -> u64 {
        let line = self.buf.line_of(slot);
        if line != self.last_read_line {
            bump(Counter::LinesLoaded, 1);
            self.last_read_line = line;
        }
        self.buf.read_word_free(slot)
    }

    /// Set a 1-bit slot.
    #[inline]
    pub fn set_bit(&mut self, slot: usize, value: bool) {
        self.set(slot, value as u64);
    }
}

/// The three metadata bitvectors of the quotient-filter encoding, kept in
/// separate arrays so remainder slots stay machine-word aligned (§6: the
/// GQF's word-aligned slots are what let it support 8/16/32/64-bit
/// remainders, unlike the SQF's in-slot metadata packing).
pub struct Metadata {
    /// `occupieds[q]` — some item with quotient `q` is stored.
    pub occupieds: GpuBuffer,
    /// `continuations[s]` — slot `s` continues the run started earlier.
    pub continuations: GpuBuffer,
    /// `shifteds[s]` — the item in slot `s` is right of its canonical slot.
    pub shifteds: GpuBuffer,
}

impl Metadata {
    /// Allocate zeroed metadata for `physical_slots`.
    pub fn new(physical_slots: usize) -> Self {
        Metadata {
            occupieds: GpuBuffer::new(physical_slots, 1),
            continuations: GpuBuffer::new(physical_slots, 1),
            shifteds: GpuBuffer::new(physical_slots, 1),
        }
    }

    /// Total metadata bytes.
    pub fn bytes(&self) -> usize {
        self.occupieds.bytes() + self.continuations.bytes() + self.shifteds.bytes()
    }

    /// A slot is empty iff all three bits are clear (classic quotient-
    /// filter emptiness test).
    pub fn is_empty_slot(&self, cur: &mut MetaCursor<'_>, slot: usize) -> bool {
        !cur.occ.get_bit(slot) && !cur.cont.get_bit(slot) && !cur.shift.get_bit(slot)
    }

    /// Start a tracked cursor set.
    pub fn cursor(&self) -> MetaCursor<'_> {
        MetaCursor {
            occ: Tracked::new(&self.occupieds),
            cont: Tracked::new(&self.continuations),
            shift: Tracked::new(&self.shifteds),
        }
    }
}

/// Tracked cursors over the three bitvectors for one operation.
pub struct MetaCursor<'a> {
    /// Occupieds bitvector cursor.
    pub occ: Tracked<'a>,
    /// Run-continuation bitvector cursor.
    pub cont: Tracked<'a>,
    /// Shifted bitvector cursor.
    pub shift: Tracked<'a>,
}

// ----------------------------------------------------------------------
// Metadata walks. Every 1-bit walk the GQF core performs reads one 64-bit
// backing word at a time through [`Tracked::get_word`] and finds its
// answer with `count_ones` (rank), `leading_zeros`/`trailing_zeros` and
// a select inside the word. These are the GQF's only walks: `GqfCore`,
// and through it the SQF and RSQF baselines, call them directly. The
// per-bit scalar loops they replaced survive as `#[cfg(test)]` reference
// oracles; the property tests below pin the word walks to them
// bit-for-bit. Line charges agree with the per-bit loops except that a
// word read may touch a line a short-circuiting per-bit walk would have
// skipped (±1 line).
// ----------------------------------------------------------------------

/// Largest `p <= q` whose bit is *clear*, or 0 when bits `1..=q` are all
/// set (bit 0 is never consulted in that case — cluster starts clamp to
/// the table base): the GQF's backward shifted-bit walk, one word at a
/// time, selecting the highest clear bit at or below the probe.
pub(crate) fn prev_clear(t: &mut Tracked<'_>, q: usize) -> usize {
    let mut base = q & !63;
    let mut off = (q - base) as u32;
    loop {
        let w = t.get_word(base);
        let below = if off == 63 { u64::MAX } else { (1u64 << (off + 1)) - 1 };
        let clear = !w & below;
        if clear != 0 {
            return base + (63 - clear.leading_zeros()) as usize;
        }
        if base == 0 {
            return 0;
        }
        base -= 64;
        off = 63;
    }
}

/// First `i` in `[from, n)` whose bit is *clear*, else `n`: the run-end /
/// continuation forward walk.
pub(crate) fn next_clear(t: &mut Tracked<'_>, from: usize, n: usize) -> usize {
    let mut i = from;
    while i < n {
        let base = i & !63;
        let end = (n - base).min(64) as u32;
        let w = t.get_word(base);
        let window = mask_range((i - base) as u32, end);
        let clear = !w & window;
        if clear != 0 {
            return base + clear.trailing_zeros() as usize;
        }
        i = base + 64;
    }
    n
}

/// Position of the `k`-th clear bit (1-based) in `[from, n)`, else `n`
/// when the span holds fewer than `k`; `k = 0` selects `from` itself.
/// The select half of the rank-select metadata walk: one `count_ones`
/// per word skips whole words, then a select inside the word that holds
/// the bit. Equals `k` chained [`next_clear`] steps.
pub(crate) fn select_clear(t: &mut Tracked<'_>, from: usize, k: usize, n: usize) -> usize {
    if k == 0 {
        return from.min(n);
    }
    let mut left = k;
    let mut i = from;
    while i < n {
        let base = i & !63;
        let end = (n - base).min(64) as u32;
        let clear = !t.get_word(base) & mask_range((i - base) as u32, end);
        let c = clear.count_ones() as usize;
        if left <= c {
            return base + select_in_word(clear, (left - 1) as u32);
        }
        left -= c;
        i = base + 64;
    }
    n
}

/// First `i` in `[from, n)` whose bit is *set*, else `n`: the
/// occupied-quotient forward walk.
pub(crate) fn next_set(t: &mut Tracked<'_>, from: usize, n: usize) -> usize {
    let mut i = from;
    while i < n {
        let base = i & !63;
        let end = (n - base).min(64) as u32;
        let w = t.get_word(base);
        let set = w & mask_range((i - base) as u32, end);
        if set != 0 {
            return base + set.trailing_zeros() as usize;
        }
        i = base + 64;
    }
    n
}

/// Number of set bits in `[lo, hi)` — the rank half of the rank-select
/// metadata walk, one `count_ones` per word.
pub(crate) fn rank_set(t: &mut Tracked<'_>, lo: usize, hi: usize) -> usize {
    let mut count = 0usize;
    let mut i = lo;
    while i < hi {
        let base = i & !63;
        let end = (hi - base).min(64) as u32;
        let w = t.get_word(base);
        count += (w & mask_range((i - base) as u32, end)).count_ones() as usize;
        i = base + 64;
    }
    count
}

/// First slot in `[from, n)` with occupied, continuation, and shifted all
/// clear (the classic quotient-filter emptiness test), else `n`: OR the
/// three metadata words and select the first clear bit.
pub(crate) fn next_empty(cur: &mut MetaCursor<'_>, from: usize, n: usize) -> usize {
    let mut i = from;
    while i < n {
        let base = i & !63;
        let end = (n - base).min(64) as u32;
        let busy = cur.occ.get_word(base) | cur.cont.get_word(base) | cur.shift.get_word(base);
        let empty = !busy & mask_range((i - base) as u32, end);
        if empty != 0 {
            return base + empty.trailing_zeros() as usize;
        }
        i = base + 64;
    }
    n
}

/// Ones at bit positions `[lo, hi)` of a word; `hi <= 64`.
#[inline]
fn mask_range(lo: u32, hi: u32) -> u64 {
    debug_assert!(lo < 64 && hi <= 64 && lo <= hi);
    let upper = if hi == 64 { u64::MAX } else { (1u64 << hi) - 1 };
    upper & !((1u64 << lo) - 1)
}

/// Bit position of the `j`-th set bit (0-based) of `w`, by halving: each
/// step ranks the low half and keeps the half that holds the bit.
#[inline]
fn select_in_word(mut w: u64, mut j: u32) -> usize {
    debug_assert!(j < w.count_ones());
    let mut pos = 0u32;
    let mut width = 32u32;
    while width > 0 {
        let low = w & ((1u64 << width) - 1);
        let c = low.count_ones();
        if j >= c {
            j -= c;
            w >>= width;
            pos += width;
        } else {
            w = low;
        }
        width /= 2;
    }
    pos as usize
}

// Per-bit reference walks: the oracles the word walks are tested against.

/// Per-bit reference for [`prev_clear`].
#[cfg(test)]
pub(crate) fn prev_clear_scalar(t: &mut Tracked<'_>, q: usize) -> usize {
    let mut i = q;
    while i > 0 && t.get_bit(i) {
        i -= 1;
    }
    i
}

/// Per-bit reference for [`next_clear`].
#[cfg(test)]
pub(crate) fn next_clear_scalar(t: &mut Tracked<'_>, from: usize, n: usize) -> usize {
    let mut i = from;
    while i < n && t.get_bit(i) {
        i += 1;
    }
    i
}

/// Per-bit reference for [`next_set`].
#[cfg(test)]
pub(crate) fn next_set_scalar(t: &mut Tracked<'_>, from: usize, n: usize) -> usize {
    let mut i = from;
    while i < n && !t.get_bit(i) {
        i += 1;
    }
    i
}

/// Per-bit reference for [`rank_set`].
#[cfg(test)]
pub(crate) fn rank_set_scalar(t: &mut Tracked<'_>, lo: usize, hi: usize) -> usize {
    (lo..hi).filter(|&i| t.get_bit(i)).count()
}

/// Per-bit reference for [`next_empty`], with the short-circuit of
/// [`Metadata::is_empty_slot`].
#[cfg(test)]
pub(crate) fn next_empty_scalar(cur: &mut MetaCursor<'_>, from: usize, n: usize) -> usize {
    let mut i = from;
    while i < n {
        if !cur.occ.get_bit(i) && !cur.cont.get_bit(i) && !cur.shift.get_bit(i) {
            return i;
        }
        i += 1;
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::metrics;

    #[test]
    fn tracked_roundtrip() {
        let buf = GpuBuffer::new(100, 8);
        let mut t = Tracked::new(&buf);
        t.set(3, 42);
        assert_eq!(t.get(3), 42);
        assert_eq!(t.get(4), 0);
    }

    #[test]
    fn sequential_walk_charges_lines_not_slots() {
        // 8-bit slots: 128 per line. Walking 256 slots = 2 line loads.
        let buf = GpuBuffer::new(1024, 8);
        let before = metrics::snapshot_current_thread();
        let mut t = Tracked::new(&buf);
        for i in 0..256 {
            let _ = t.get(i);
        }
        let diff = metrics::snapshot_current_thread().since(&before);
        assert_eq!(diff.get(Counter::LinesLoaded), 2);
    }

    #[test]
    fn bit_buffer_walk_is_very_cheap() {
        // 1-bit slots: 1024 per line. Walking 1000 bits = 1 line load.
        let buf = GpuBuffer::new(4096, 1);
        let before = metrics::snapshot_current_thread();
        let mut t = Tracked::new(&buf);
        for i in 0..1000 {
            let _ = t.get_bit(i);
        }
        let diff = metrics::snapshot_current_thread().since(&before);
        assert_eq!(diff.get(Counter::LinesLoaded), 1);
    }

    #[test]
    fn writes_charge_separately_from_reads() {
        let buf = GpuBuffer::new(1024, 8);
        let before = metrics::snapshot_current_thread();
        let mut t = Tracked::new(&buf);
        let _ = t.get(0);
        t.set(0, 9);
        let diff = metrics::snapshot_current_thread().since(&before);
        assert_eq!(diff.get(Counter::LinesLoaded), 1);
        assert_eq!(diff.get(Counter::LinesStored), 1);
    }

    /// The five bit patterns the walk tests probe: all clear, all set,
    /// periodic, whole words alternating set / clear, and hashed noise.
    fn patterns() -> [&'static dyn Fn(usize) -> bool; 5] {
        [
            &|_| false,
            &|_| true,
            &|i| i % 3 == 0,
            &|i| (i / 64) % 2 == 0, // whole words set / clear
            &|i| {
                let mut h = i as u64;
                h ^= h >> 33;
                h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
                h & 1 == 0
            },
        ]
    }

    /// A 1024-bit buffer holding `pat` over its first `n` bits.
    fn bit_buffer(n: usize, pat: &dyn Fn(usize) -> bool) -> GpuBuffer {
        let buf = GpuBuffer::new(1024, 1);
        for i in 0..n {
            buf.write_free(i, pat(i) as u64);
        }
        buf
    }

    /// Every word walk equals its per-bit reference on the bit patterns,
    /// with probes straddling word boundaries and the span edges.
    #[test]
    fn scan_twins_are_bit_identical() {
        let n = 1000; // deliberately not a multiple of 64
        let probes = [0usize, 1, 62, 63, 64, 65, 127, 128, 500, 511, 512, 513, 960, 998, 999];
        for (pi, pat) in patterns().iter().enumerate() {
            let buf = bit_buffer(n, pat);
            let mut t = Tracked::new(&buf);
            for &p in &probes {
                assert_eq!(
                    prev_clear_scalar(&mut t, p),
                    prev_clear(&mut t, p),
                    "prev_clear pat={pi} p={p}"
                );
                assert_eq!(
                    next_clear_scalar(&mut t, p, n),
                    next_clear(&mut t, p, n),
                    "next_clear pat={pi} p={p}"
                );
                assert_eq!(
                    next_set_scalar(&mut t, p, n),
                    next_set(&mut t, p, n),
                    "next_set pat={pi} p={p}"
                );
                for &q in &probes {
                    if p <= q {
                        assert_eq!(
                            rank_set_scalar(&mut t, p, q),
                            rank_set(&mut t, p, q),
                            "rank pat={pi} [{p},{q})"
                        );
                    }
                }
            }
        }
    }

    /// `select_clear` equals `k` chained per-bit `next_clear` steps — the
    /// run-end jump walk it replaces — for `from` on both sides of word
    /// boundaries and `k` past the number of clear bits (answer `n`).
    #[test]
    fn select_clear_matches_chained_next_clear() {
        fn jumps(t: &mut Tracked<'_>, from: usize, k: usize, n: usize) -> usize {
            let mut p = from;
            for step in 0..k {
                p = next_clear_scalar(t, if step == 0 { p } else { p + 1 }, n);
                if p >= n {
                    return n;
                }
            }
            p.min(n)
        }
        let n = 1000;
        let froms =
            [0usize, 1, 62, 63, 64, 65, 127, 128, 129, 511, 512, 513, 959, 960, 998, 999, 1000];
        let mut rng = 0x9E37_79B9_7F4A_7C15u64;
        let mut random_words = || {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            rng
        };
        let mut bufs: Vec<GpuBuffer> = patterns().iter().map(|pat| bit_buffer(n, pat)).collect();
        for _ in 0..4 {
            let words: Vec<u64> = (0..16).map(|_| random_words()).collect();
            bufs.push(bit_buffer(n, &|i| (words[i / 64] >> (i % 64)) & 1 == 1));
        }
        for (bi, buf) in bufs.iter().enumerate() {
            let mut t = Tracked::new(buf);
            for &from in &froms {
                for k in 0..=130usize {
                    assert_eq!(
                        select_clear(&mut t, from, k, n),
                        jumps(&mut t, from, k, n),
                        "buf={bi} from={from} k={k}"
                    );
                }
            }
        }
    }

    #[test]
    fn select_in_word_finds_every_set_bit() {
        for w in
            [1u64, u64::MAX, 0x8000_0000_0000_0001, 0xF0F0_F0F0_0F0F_0F0F, 0x5555_AAAA_1234_8000]
        {
            let positions: Vec<usize> = (0..64).filter(|&b| (w >> b) & 1 == 1).collect();
            for (j, &pos) in positions.iter().enumerate() {
                assert_eq!(select_in_word(w, j as u32), pos, "w={w:#x} j={j}");
            }
        }
    }

    #[test]
    fn empty_slot_twins_are_bit_identical() {
        let m = Metadata::new(256);
        // Sprinkle metadata bits so empties are sparse and word-straddling.
        let mut cur = m.cursor();
        for i in 0..256usize {
            cur.occ.set_bit(i, i % 5 == 0);
            cur.cont.set_bit(i, i % 7 == 3);
            cur.shift.set_bit(i, i % 11 == 1);
        }
        for from in [0usize, 1, 63, 64, 65, 200, 255] {
            assert_eq!(
                next_empty_scalar(&mut cur, from, 256),
                next_empty(&mut cur, from, 256),
                "from={from}"
            );
        }
        // Saturated metadata: both report "none" as n.
        let full = Metadata::new(128);
        let mut cur = full.cursor();
        for i in 0..128usize {
            cur.occ.set_bit(i, true);
        }
        assert_eq!(next_empty_scalar(&mut cur, 0, 128), 128);
        assert_eq!(next_empty(&mut cur, 0, 128), 128);
    }

    #[test]
    fn get_word_charges_lines_like_bit_reads() {
        let buf = GpuBuffer::new(4096, 1);
        let before = metrics::snapshot_current_thread();
        let mut t = Tracked::new(&buf);
        // 1000 bits in word steps stay inside one 1024-bit line.
        for base in (0..1000).step_by(64) {
            let _ = t.get_word(base);
        }
        let diff = metrics::snapshot_current_thread().since(&before);
        assert_eq!(diff.get(Counter::LinesLoaded), 1);
    }

    #[test]
    fn metadata_empty_slot_test() {
        let m = Metadata::new(256);
        let mut cur = m.cursor();
        assert!(m.is_empty_slot(&mut cur, 10));
        cur.shift.set_bit(10, true);
        assert!(!m.is_empty_slot(&mut cur, 10));
        cur.shift.set_bit(10, false);
        cur.occ.set_bit(10, true);
        assert!(!m.is_empty_slot(&mut cur, 10));
    }
}
