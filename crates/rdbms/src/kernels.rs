//! SIMD-width batch kernels for the columnar segment stores.
//!
//! [`crate::columnar`]'s segments keep values FOR-bit-packed (ints),
//! dictionary-coded (low-cardinality strings) or run-length encoded; this
//! module supplies the word-parallel primitives their scan and gather
//! paths run on:
//!
//! * **batched bit-unpacking** ([`unpack64`]) — a 64-value block of a
//!   `bits`-wide packed array always spans exactly `bits` whole words
//!   (64·bits is a multiple of 64), so a block decodes with straight-line
//!   shifts and masks, no per-value bounds or offset arithmetic;
//! * **range compare masks** ([`range_mask64`]) — 64 packed values against
//!   an inclusive `[lo, hi]` code range in one pass, returning a bitmask
//!   that ANDs directly with the segment's live/valid bitmap words (a
//!   branch-free lane loop the compiler autovectorizes);
//! * **selection-vector emission** ([`select_packed`]) — whole bitmap
//!   words that are all-dead or all-matching skip per-slot work entirely
//!   (counted as fastpath hits);
//! * **batched gather** ([`gather_codes`]) — offset runs dense enough in
//!   one 64-block decode the block once and index it, instead of paying
//!   the per-value `pack_get` shift dance.
//!
//! Every scan runs these kernels. The batched paths are exact — no
//! tolerance, byte-identical output — and `columnar.rs` keeps the scalar
//! per-slot loops they replaced only as the reference its unit
//! differentials compare against (DESIGN.md §21).

/// Values per batch: one bitmap word's worth, the unit both the unpack and
/// the compare kernels operate on.
pub const LANES: usize = 64;

/// Minimum offsets landing in one 64-block before gather decodes the whole
/// block instead of per-value `pack_get`s. At 8+ hits the block decode
/// (≤ 63 word reads) amortizes below the per-value shift/mask pairs.
pub(crate) const GATHER_BATCH_MIN: usize = 8;

/// Engagement counters for one kernel invocation, folded up into
/// [`crate::exec::ExecStats`] by the executor.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct KernelStats {
    /// Value-level decodes/compares the kernel charged (live-valid slots
    /// visited, dictionary entries evaluated, RLE run compares).
    pub decoded: u64,
    /// Values decoded through the 64-wide batched paths.
    pub batched: u64,
    /// Whole 64-slot bitmap words handled by a fast path (all-dead skip,
    /// all-match emit) without per-slot predicate work.
    pub fastpath_words: u64,
    /// Predicates rewritten to a packed dictionary-code range.
    pub dict_rewrites: u64,
    /// RLE runs rejected (or NULL-skipped) with a single run-level compare.
    pub rle_runs_skipped: u64,
}

impl KernelStats {
    pub fn merge(&mut self, o: &KernelStats) {
        self.decoded += o.decoded;
        self.batched += o.batched;
        self.fastpath_words += o.fastpath_words;
        self.dict_rewrites += o.dict_rewrites;
        self.rle_runs_skipped += o.rle_runs_skipped;
    }
}

#[inline]
pub(crate) fn pack_mask(bits: u32) -> u64 {
    if bits >= 64 {
        u64::MAX
    } else {
        (1u64 << bits) - 1
    }
}

/// Read the `i`-th `bits`-wide value from a packed word array.
#[inline]
pub(crate) fn pack_get(words: &[u64], bits: u32, i: usize) -> u64 {
    if bits == 0 {
        return 0;
    }
    let start = i * bits as usize;
    let w = start >> 6;
    let off = (start & 63) as u32;
    let mut v = words[w] >> off;
    if off + bits > 64 {
        v |= words[w + 1] << (64 - off);
    }
    v & pack_mask(bits)
}

/// Append value `v` (already masked to `bits`) at position `i`; positions
/// must be written in order starting from 0.
pub(crate) fn pack_push(words: &mut Vec<u64>, bits: u32, i: usize, v: u64) {
    if bits == 0 {
        return;
    }
    let start = i * bits as usize;
    let w = start >> 6;
    let off = (start & 63) as u32;
    if w == words.len() {
        words.push(0);
    }
    words[w] |= v << off;
    if off + bits > 64 {
        words.push(v >> (64 - off));
    }
}

/// Decode packed block `block` (values `block*64 .. block*64+64`) into
/// `out`. A 64-value block of `bits`-wide values occupies exactly `bits`
/// whole words starting at word `block * bits`, so the loop is pure
/// shift/mask word walking — the batched replacement for 64 `pack_get`s.
#[inline]
pub(crate) fn unpack64(words: &[u64], bits: u32, block: usize, out: &mut [u64; LANES]) {
    if bits == 0 {
        out.fill(0);
        return;
    }
    let src = &words[block * bits as usize..][..bits as usize];
    let mask = pack_mask(bits);
    let mut off = 0u32;
    let mut w = 0usize;
    for o in out.iter_mut() {
        let mut v = src[w] >> off;
        if off + bits > 64 {
            v |= src[w + 1] << (64 - off);
        }
        *o = v & mask;
        off += bits;
        if off >= 64 {
            off -= 64;
            w += 1;
        }
    }
}

/// Lane-wise `lo <= v && v <= hi` over one 64-value batch, as a bitmask
/// (bit i set ⇔ lane i in range).
#[inline]
pub(crate) fn range_mask64(vals: &[u64; LANES], lo: u64, hi: u64) -> u64 {
    let mut m = 0u64;
    for (i, &v) in vals.iter().enumerate() {
        m |= ((v >= lo && v <= hi) as u64) << i;
    }
    m
}

/// Batched selection kernel over a packed array: emit ascending slot
/// offsets whose live, valid value lies in the inclusive packed-domain
/// range `[p_lo, p_hi]`. Works a 64-slot bitmap word at a time: all-dead
/// words skip without decoding, decoded words compare as one batch, and
/// the match mask ANDs against `live & valid` before bit-iteration.
#[allow(clippy::too_many_arguments)]
pub(crate) fn select_packed(
    words: &[u64],
    bits: u32,
    n_slots: usize,
    live: &[u64],
    valid: &[u64],
    p_lo: u64,
    p_hi: u64,
    out: &mut Vec<u32>,
    stats: &mut KernelStats,
) {
    debug_assert!(n_slots.is_multiple_of(LANES), "packed segments are sealed at SEG_ROWS");
    let mut vals = [0u64; LANES];
    for blk in 0..n_slots / LANES {
        let lv = live[blk] & valid[blk];
        if lv == 0 {
            stats.fastpath_words += 1;
            continue;
        }
        unpack64(words, bits, blk, &mut vals);
        stats.batched += LANES as u64;
        stats.decoded += lv.count_ones() as u64;
        let mut m = range_mask64(&vals, p_lo, p_hi) & lv;
        if m == lv {
            // Every live-valid slot matches: pure emission, no slot was
            // individually rejected.
            stats.fastpath_words += 1;
        }
        let base = (blk * LANES) as u32;
        while m != 0 {
            out.push(base + m.trailing_zeros());
            m &= m - 1;
        }
    }
}

/// Batched gather over a packed array: calls `f(result_index, value)` for
/// each ascending offset. Offset runs that land `GATHER_BATCH_MIN`-dense
/// in one 64-block decode the block once via [`unpack64`]; sparse runs pay
/// per-value [`pack_get`]s.
pub(crate) fn gather_codes(
    words: &[u64],
    bits: u32,
    offsets: &[u32],
    stats: &mut KernelStats,
    mut f: impl FnMut(usize, u64),
) {
    let mut vals = [0u64; LANES];
    let mut i = 0usize;
    while i < offsets.len() {
        let blk = offsets[i] as usize / LANES;
        let mut j = i + 1;
        while j < offsets.len() && offsets[j] as usize / LANES == blk {
            j += 1;
        }
        if j - i >= GATHER_BATCH_MIN {
            unpack64(words, bits, blk, &mut vals);
            stats.batched += LANES as u64;
            for (k, &off) in offsets.iter().enumerate().take(j).skip(i) {
                f(k, vals[off as usize % LANES]);
            }
        } else {
            for (k, &off) in offsets.iter().enumerate().take(j).skip(i) {
                f(k, pack_get(words, bits, off as usize));
            }
        }
        i = j;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mix(seed: u64) -> u64 {
        let mut z = seed.wrapping_add(0x9e3779b97f4a7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    #[test]
    fn unpack64_matches_pack_get_at_every_width() {
        for bits in 0u32..=63 {
            let n = 256usize;
            let mut words = Vec::new();
            for i in 0..n {
                pack_push(&mut words, bits, i, mix(i as u64) & pack_mask(bits));
            }
            // pack_push only allocates words it touched; pad to the full
            // block span like seal() does implicitly via SEG_ROWS slots.
            words.resize((n / LANES) * bits as usize + 1, 0);
            let mut out = [0u64; LANES];
            for blk in 0..n / LANES {
                unpack64(&words, bits, blk, &mut out);
                for (l, &v) in out.iter().enumerate() {
                    assert_eq!(
                        v,
                        pack_get(&words, bits, blk * LANES + l),
                        "bits={bits} blk={blk} lane={l}"
                    );
                }
            }
        }
    }

    #[test]
    fn range_mask_sets_one_bit_per_lane_in_range() {
        let mut vals = [0u64; LANES];
        for (i, v) in vals.iter_mut().enumerate() {
            *v = mix(i as u64) % 1000;
        }
        for (lo, hi) in [(0, u64::MAX), (100, 900), (500, 500), (900, 100), (0, 0)] {
            let m = range_mask64(&vals, lo, hi);
            for (i, &v) in vals.iter().enumerate() {
                assert_eq!(m >> i & 1 == 1, lo <= v && v <= hi, "lane {i} at [{lo}, {hi}]");
            }
        }
    }

    #[test]
    fn select_packed_matches_per_slot_loop() {
        let bits = 10u32;
        let n = 4096usize;
        let mut words = Vec::new();
        let mut live = vec![u64::MAX; n / 64];
        let mut valid = vec![u64::MAX; n / 64];
        for i in 0..n {
            pack_push(&mut words, bits, i, mix(i as u64) & pack_mask(bits));
            if mix(i as u64 ^ 77).is_multiple_of(5) {
                live[i / 64] &= !(1 << (i % 64));
            }
            if mix(i as u64 ^ 91).is_multiple_of(7) {
                valid[i / 64] &= !(1 << (i % 64));
            }
        }
        // one fully dead word exercises the skip fastpath
        live[3] = 0;
        for (p_lo, p_hi) in [(0u64, 1023u64), (100, 200), (1023, 1023), (800, 10)] {
            let mut got = Vec::new();
            let mut stats = KernelStats::default();
            select_packed(&words, bits, n, &live, &valid, p_lo, p_hi, &mut got, &mut stats);
            let mut want = Vec::new();
            for i in 0..n {
                let lv = live[i / 64] >> (i % 64) & valid[i / 64] >> (i % 64) & 1 != 0;
                let v = pack_get(&words, bits, i);
                if lv && v >= p_lo && v <= p_hi {
                    want.push(i as u32);
                }
            }
            assert_eq!(got, want, "range [{p_lo}, {p_hi}]");
            assert!(stats.batched > 0);
            assert!(stats.fastpath_words > 0);
        }
    }
}
