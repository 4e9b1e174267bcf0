//! Columnar segment storage for promoted (physical) columns.
//!
//! Sinew's materializer promotes hot keys into real columns (§4); this
//! module gives those columns a packed, scan-friendly representation so
//! sargable predicates run as vectorized kernels instead of per-row
//! `Datum` decode.  A [`ColumnStore`] holds one column's values as a list
//! of fixed-width row-range *segments* ([`SEG_ROWS`] rowids each):
//!
//! * every segment carries a `live` bitmap (row exists in the heap) and a
//!   `valid` bitmap (value is non-NULL), plus a min/max zone map over the
//!   live non-NULL values;
//! * sealed segments pick the cheapest of four encodings — run-length for
//!   runs, frame-of-reference bit-packed integers, dictionary for
//!   low-cardinality strings, or plain `Datum`s;
//! * the tail segment stays plain and is sealed (encoded) when it fills.
//!
//! The heap remains the source of truth: stores are rebuilt from a heap
//! scan at promotion time and maintained incrementally by every DML path.
//! Kernels use `Datum::key_cmp` bounds — SQL comparison where it is
//! defined, total-order fallback across types — so kernel output is a
//! superset of the SQL match set and the executor re-applies the full
//! predicate as a residual filter unless the planner proved the bounds
//! exact (or the per-segment exactness proof of
//! [`ColumnStore::segment_value_class`] holds).
//!
//! The word-parallel batch primitives live in [`crate::kernels`]; the
//! scalar per-slot loops kept here are the reference this module's unit
//! differentials compare the kernels against.

use crate::datum::{Datum, KeyRange, NULL};
use crate::heap::RowId;
use crate::kernels::{self, pack_get, pack_mask, pack_push, KernelStats, LANES};
use std::cmp::Ordering;
use std::collections::HashMap;

/// Rowids covered by one segment. Chosen so a segment's working set fits
/// comfortably in L2 while still amortizing per-segment overheads.
pub const SEG_ROWS: usize = 4096;

const BM_WORDS: usize = SEG_ROWS / 64;

#[inline]
fn bm_get(bm: &[u64], i: usize) -> bool {
    bm[i >> 6] >> (i & 63) & 1 != 0
}

#[inline]
fn bm_set(bm: &mut [u64], i: usize, v: bool) {
    if v {
        bm[i >> 6] |= 1u64 << (i & 63);
    } else {
        bm[i >> 6] &= !(1u64 << (i & 63));
    }
}

/// Physical encoding of one sealed segment's values.
enum Enc {
    /// One `Datum` per slot (also the mutable-tail representation).
    Plain(Vec<Datum>),
    /// Frame-of-reference bit-packed integers: slot value = base + packed.
    /// Invalid/dead slots store 0.
    PackedInt { base: i64, bits: u32, words: Vec<u64> },
    /// Dictionary of distinct values sorted by `total_cmp`, with
    /// bit-packed per-slot codes. Invalid/dead slots store code 0.
    Dict { dict: Vec<Datum>, bits: u32, codes: Vec<u64> },
    /// Run-length runs over slot order (dead/NULL slots appear as Null
    /// runs); run lengths sum to the slot count.
    Rle { runs: Vec<(Datum, u32)> },
}

impl Enc {
    fn name(&self) -> &'static str {
        match self {
            Enc::Plain(_) => "plain",
            Enc::PackedInt { .. } => "packed-int",
            Enc::Dict { .. } => "dict",
            Enc::Rle { .. } => "rle",
        }
    }

    /// Approximate encoded payload bytes.
    fn bytes(&self) -> u64 {
        match self {
            Enc::Plain(vals) => vals.iter().map(|d| d.width() as u64).sum(),
            Enc::PackedInt { words, .. } => 16 + words.len() as u64 * 8,
            Enc::Dict { dict, codes, .. } => {
                dict.iter().map(|d| d.width() as u64).sum::<u64>() + codes.len() as u64 * 8
            }
            Enc::Rle { runs } => runs.iter().map(|(d, _)| d.width() as u64 + 4).sum(),
        }
    }
}

struct Segment {
    /// Slots appended so far (== SEG_ROWS once sealed).
    n_slots: usize,
    live: Vec<u64>,
    valid: Vec<u64>,
    enc: Enc,
    /// Zone map over live, non-NULL values (total_cmp order). Deletes
    /// leave it a conservative superset until enough of the segment dies
    /// to trigger a re-seal (see `reseal_at`).
    min: Option<Datum>,
    max: Option<Datum>,
    sealed: bool,
    /// Live-count threshold below which a delete re-seals the segment
    /// (re-encoding and recomputing the zone map over the survivors).
    /// Set to half the live count at seal time, so the O(SEG_ROWS)
    /// re-encode amortizes to O(1) per delete.
    reseal_at: usize,
}

impl Segment {
    fn new() -> Segment {
        Segment {
            n_slots: 0,
            live: vec![0; BM_WORDS],
            valid: vec![0; BM_WORDS],
            enc: Enc::Plain(Vec::new()),
            min: None,
            max: None,
            sealed: false,
            reseal_at: 0,
        }
    }

    fn live_count(&self) -> usize {
        self.live.iter().map(|w| w.count_ones() as usize).sum()
    }

    fn widen_zone(&mut self, d: &Datum) {
        if d.is_null() {
            return;
        }
        match &self.min {
            Some(m) if m.total_cmp(d) != Ordering::Greater => {}
            _ => self.min = Some(d.clone()),
        }
        match &self.max {
            Some(m) if m.total_cmp(d) != Ordering::Less => {}
            _ => self.max = Some(d.clone()),
        }
    }

    fn recompute_zone(&mut self, plain: &[Datum]) {
        self.min = None;
        self.max = None;
        for (i, d) in plain.iter().enumerate() {
            if bm_get(&self.live, i) && bm_get(&self.valid, i) {
                let cur_min = self.min.take();
                self.min = match cur_min {
                    Some(m) if m.total_cmp(d) != Ordering::Greater => Some(m),
                    _ => Some(d.clone()),
                };
                let cur_max = self.max.take();
                self.max = match cur_max {
                    Some(m) if m.total_cmp(d) != Ordering::Less => Some(m),
                    _ => Some(d.clone()),
                };
            }
        }
    }

    /// Decode the segment back to one `Datum` per slot.
    fn to_plain(&self) -> Vec<Datum> {
        match &self.enc {
            Enc::Plain(vals) => vals.clone(),
            Enc::PackedInt { base, bits, words } => (0..self.n_slots)
                .map(|i| {
                    if bm_get(&self.valid, i) {
                        Datum::Int(base.wrapping_add(pack_get(words, *bits, i) as i64))
                    } else {
                        Datum::Null
                    }
                })
                .collect(),
            Enc::Dict { dict, bits, codes } => (0..self.n_slots)
                .map(|i| {
                    if bm_get(&self.valid, i) {
                        dict[pack_get(codes, *bits, i) as usize].clone()
                    } else {
                        Datum::Null
                    }
                })
                .collect(),
            Enc::Rle { runs } => {
                let mut out = Vec::with_capacity(self.n_slots);
                for (d, n) in runs {
                    for _ in 0..*n {
                        out.push(d.clone());
                    }
                }
                out
            }
        }
    }

    /// Pick the cheapest encoding for a full segment and install it.
    fn seal(&mut self) {
        let plain = match &self.enc {
            Enc::Plain(v) => v,
            _ => return, // already encoded
        };
        debug_assert_eq!(plain.len(), self.n_slots);
        self.reseal_at = self.live_count() / 2;
        // Count runs (slots without a valid value participate as the Null
        // gather reads there, whatever value a dead slot still holds). Two
        // values merge into one run only when gather would resurrect the
        // same variant and bits from either.
        let same = Datum::identical;
        let norm = |i: usize| if bm_get(&self.valid, i) { &plain[i] } else { &NULL };
        let runs = 1 + (1..plain.len()).filter(|&i| !same(norm(i - 1), norm(i))).count();
        if runs * 8 <= self.n_slots {
            let mut rle: Vec<(Datum, u32)> = Vec::with_capacity(runs);
            for i in 0..plain.len() {
                match rle.last_mut() {
                    Some((last, n)) if same(last, norm(i)) => *n += 1,
                    _ => rle.push((norm(i).clone(), 1)),
                }
            }
            self.enc = Enc::Rle { runs: rle };
            self.sealed = true;
            return;
        }
        let n_valid = (0..self.n_slots).filter(|&i| bm_get(&self.valid, i)).count();
        // All-integer values: frame-of-reference bit packing.
        let mut lo = i64::MAX;
        let mut hi = i64::MIN;
        let mut all_int = true;
        for (i, d) in plain.iter().enumerate() {
            if !bm_get(&self.valid, i) {
                continue;
            }
            match d {
                Datum::Int(v) => {
                    lo = lo.min(*v);
                    hi = hi.max(*v);
                }
                _ => {
                    all_int = false;
                    break;
                }
            }
        }
        if all_int && n_valid > 0 {
            let range = (hi as i128) - (lo as i128);
            let bits = 128 - (range as u128).leading_zeros();
            if bits < 64 {
                let mut words = Vec::new();
                for (i, d) in plain.iter().enumerate() {
                    let v = match d {
                        Datum::Int(v) if bm_get(&self.valid, i) => {
                            (*v as i128 - lo as i128) as u64
                        }
                        _ => 0,
                    };
                    pack_push(&mut words, bits, i, v);
                }
                self.enc = Enc::PackedInt { base: lo, bits, words };
                self.sealed = true;
                return;
            }
        }
        // Low-cardinality strings: dictionary + packed codes.
        let all_text = plain
            .iter()
            .enumerate()
            .all(|(i, d)| !bm_get(&self.valid, i) || matches!(d, Datum::Text(_)));
        if all_text && n_valid > 0 {
            let mut dict: Vec<Datum> = plain
                .iter()
                .enumerate()
                .filter(|(i, _)| bm_get(&self.valid, *i))
                .map(|(_, d)| d.clone())
                .collect();
            dict.sort_by(|a, b| a.total_cmp(b));
            dict.dedup_by(|a, b| a.total_cmp(b) == Ordering::Equal);
            if dict.len() <= 256 && dict.len() * 2 <= n_valid {
                let bits = usize::BITS - (dict.len() - 1).max(1).leading_zeros();
                let mut codes = Vec::new();
                for (i, d) in plain.iter().enumerate() {
                    let code = if bm_get(&self.valid, i) {
                        dict.binary_search_by(|probe| probe.total_cmp(d)).unwrap_or(0) as u64
                    } else {
                        0
                    };
                    pack_push(&mut codes, bits, i, code);
                }
                self.enc = Enc::Dict { dict, bits, codes };
                self.sealed = true;
                return;
            }
        }
        self.sealed = true; // plain stays plain
    }

    /// True when the zone map proves no live value can fall in the bound
    /// range (`key_cmp` semantics — min/max are maintained in total_cmp
    /// order, which differs from key order only on `-0.0`/`0.0`/`Int(0)`
    /// ties; those are `key_cmp`-Equal, so the pruning test stays safe).
    fn zone_prunes(&self, range: &KeyRange) -> bool {
        let (Some(min), Some(max)) = (&self.min, &self.max) else {
            // No live non-NULL values at all: a bounded kernel matches nothing.
            return !range.is_unbounded();
        };
        if let Some(h) = &range.hi {
            match h.key_cmp(min) {
                Ordering::Less => return true,
                Ordering::Equal if !range.hi_inc => return true,
                _ => {}
            }
        }
        if let Some(l) = &range.lo {
            match l.key_cmp(max) {
                Ordering::Greater => return true,
                Ordering::Equal if !range.lo_inc => return true,
                _ => {}
            }
        }
        false
    }

    /// Emit slot offsets of live, non-NULL values inside the bound range
    /// (ascending), under `key_cmp` semantics. Kernel engagement is
    /// charged to `stats`; the batched paths touch far fewer than one
    /// decode per slot. `batched = false` runs the scalar per-slot loops
    /// instead, which produce byte-identical output: the reference the
    /// unit differentials below compare against, never a scan's path.
    fn select(
        &self,
        range: &KeyRange,
        out: &mut Vec<u32>,
        stats: &mut KernelStats,
        batched: bool,
    ) {
        let KeyRange { lo, lo_inc, hi, hi_inc } = range;
        let (lo, lo_inc, hi, hi_inc) = (lo.as_ref(), *lo_inc, hi.as_ref(), *hi_inc);
        match &self.enc {
            Enc::Plain(vals) => {
                if batched {
                    // Walk live&valid a bitmap word at a time so all-dead
                    // words (common after heavy deletes) skip in O(1).
                    for blk in 0..self.n_slots.div_ceil(LANES) {
                        let mut lv = self.live[blk] & self.valid[blk];
                        let tail = self.n_slots - blk * LANES;
                        if tail < LANES {
                            lv &= (1u64 << tail) - 1;
                        }
                        if lv == 0 {
                            stats.fastpath_words += 1;
                            continue;
                        }
                        while lv != 0 {
                            let i = blk * LANES + lv.trailing_zeros() as usize;
                            lv &= lv - 1;
                            stats.decoded += 1;
                            if range.contains(&vals[i]) {
                                out.push(i as u32);
                            }
                        }
                    }
                } else {
                    for (i, d) in vals.iter().enumerate() {
                        if bm_get(&self.live, i) && bm_get(&self.valid, i) {
                            stats.decoded += 1;
                            if range.contains(d) {
                                out.push(i as u32);
                            }
                        }
                    }
                }
            }
            Enc::PackedInt { base, bits, words } => {
                // Translate each bound into an inclusive integer bound
                // once, then the inner loop is integer compares on packed
                // words. In key_cmp order ints sit numerically among
                // floats (exactly — `cmp_int_f64` is precise at every
                // magnitude), above Null/Bool, below Text/Bytea/Array — so
                // every bound maps to an integer cut or to all/none.
                enum IntBound {
                    At(i128),
                    AllPass,
                    NonePass,
                }
                // 2^63 as f64 (exact). Floats at or beyond ±2^63 compare
                // strictly outside every i64, and must not reach the
                // `as i128` casts below: those saturate, and the
                // subsequent `v - base` could then overflow i128.
                const F64_I64_SPAN: f64 = 9_223_372_036_854_775_808.0;
                // Smallest integer satisfying the lower bound.
                let lo_b = match lo {
                    None => IntBound::AllPass,
                    Some(Datum::Int(v)) => {
                        IntBound::At(*v as i128 + if lo_inc { 0 } else { 1 })
                    }
                    Some(Datum::Float(f)) => {
                        if f.is_nan() {
                            // key_cmp falls back to total order for NaN:
                            // negative NaN sits below every number,
                            // positive NaN above.
                            if f.is_sign_negative() {
                                IntBound::AllPass
                            } else {
                                IntBound::NonePass
                            }
                        } else if *f >= F64_I64_SPAN {
                            IntBound::NonePass // bound above every i64
                        } else if *f < -F64_I64_SPAN {
                            IntBound::AllPass
                        } else if f.fract() == 0.0 {
                            IntBound::At(*f as i128 + if lo_inc { 0 } else { 1 })
                        } else {
                            IntBound::At(f.ceil() as i128)
                        }
                    }
                    Some(Datum::Text(_) | Datum::Bytea(_) | Datum::Array(_)) => {
                        IntBound::NonePass
                    }
                    Some(_) => IntBound::AllPass, // Null/Bool rank below ints
                };
                // Largest integer satisfying the upper bound.
                let hi_b = match hi {
                    None => IntBound::AllPass,
                    Some(Datum::Int(v)) => {
                        IntBound::At(*v as i128 - if hi_inc { 0 } else { 1 })
                    }
                    Some(Datum::Float(f)) => {
                        if f.is_nan() {
                            if f.is_sign_negative() {
                                IntBound::NonePass
                            } else {
                                IntBound::AllPass
                            }
                        } else if *f >= F64_I64_SPAN {
                            IntBound::AllPass
                        } else if *f < -F64_I64_SPAN {
                            IntBound::NonePass // bound below every i64
                        } else if f.fract() == 0.0 {
                            IntBound::At(*f as i128 - if hi_inc { 0 } else { 1 })
                        } else {
                            IntBound::At(f.floor() as i128)
                        }
                    }
                    Some(Datum::Text(_) | Datum::Bytea(_) | Datum::Array(_)) => {
                        IntBound::AllPass // text ranks above every int
                    }
                    Some(_) => IntBound::NonePass, // Null/Bool rank below ints
                };
                let full = pack_mask(*bits) as i128;
                let p_lo = match lo_b {
                    IntBound::NonePass => return,
                    IntBound::AllPass => 0i128,
                    IntBound::At(v) => (v - *base as i128).max(0),
                };
                let p_hi = match hi_b {
                    IntBound::NonePass => return,
                    IntBound::AllPass => full,
                    IntBound::At(v) => (v - *base as i128).min(full),
                };
                if p_lo > p_hi {
                    return;
                }
                let (p_lo, p_hi) = (p_lo as u64, p_hi as u64);
                if batched {
                    kernels::select_packed(
                        words,
                        *bits,
                        self.n_slots,
                        &self.live,
                        &self.valid,
                        p_lo,
                        p_hi,
                        out,
                        stats,
                    );
                } else {
                    for i in 0..self.n_slots {
                        if bm_get(&self.live, i) && bm_get(&self.valid, i) {
                            stats.decoded += 1;
                            let v = pack_get(words, *bits, i);
                            if v >= p_lo && v <= p_hi {
                                out.push(i as u32);
                            }
                        }
                    }
                }
            }
            Enc::Dict { dict, bits, codes } => {
                // Predicate rewriting: the dictionary is total_cmp-sorted
                // (key-order for the all-text dictionaries seal() builds),
                // so the predicate evaluates once against the dictionary
                // into a contiguous code range and the slot scan never
                // materializes a Datum.
                stats.dict_rewrites += 1;
                stats.decoded += dict.len() as u64;
                let c_lo = match lo {
                    None => 0usize,
                    Some(l) => dict.partition_point(|d| {
                        matches!(d.key_cmp(l), Ordering::Less)
                            || (!lo_inc && d.key_cmp(l) == Ordering::Equal)
                    }),
                };
                let c_hi = match hi {
                    None => dict.len(),
                    Some(h) => dict.partition_point(|d| {
                        matches!(d.key_cmp(h), Ordering::Less)
                            || (hi_inc && d.key_cmp(h) == Ordering::Equal)
                    }),
                };
                if c_lo >= c_hi {
                    return;
                }
                let (c_lo, c_hi) = (c_lo as u64, (c_hi - 1) as u64);
                if batched {
                    kernels::select_packed(
                        codes,
                        *bits,
                        self.n_slots,
                        &self.live,
                        &self.valid,
                        c_lo,
                        c_hi,
                        out,
                        stats,
                    );
                } else {
                    for i in 0..self.n_slots {
                        if bm_get(&self.live, i) && bm_get(&self.valid, i) {
                            let c = pack_get(codes, *bits, i);
                            if c >= c_lo && c <= c_hi {
                                out.push(i as u32);
                            }
                        }
                    }
                }
            }
            Enc::Rle { runs } => {
                // Run-level evaluation: one predicate compare per run;
                // rejected (or NULL) runs skip all their slots in O(1),
                // matching runs emit via bitmap words.
                let mut start = 0usize;
                for (d, n) in runs {
                    let end = start + *n as usize;
                    stats.decoded += 1;
                    if d.is_null() || !range.contains(d) {
                        stats.rle_runs_skipped += 1;
                        start = end;
                        continue;
                    }
                    if batched {
                        let mut blk = start / LANES;
                        while blk * LANES < end {
                            let word_base = blk * LANES;
                            let mut m = self.live[blk] & self.valid[blk];
                            if word_base < start {
                                m &= u64::MAX << (start - word_base);
                            }
                            if end - word_base < LANES {
                                m &= (1u64 << (end - word_base)) - 1;
                            }
                            if m == u64::MAX {
                                // Whole word live, valid and in-run: pure
                                // emission with no per-slot masking.
                                stats.fastpath_words += 1;
                            }
                            while m != 0 {
                                out.push((word_base + m.trailing_zeros() as usize) as u32);
                                m &= m - 1;
                            }
                            blk += 1;
                        }
                    } else {
                        for i in start..end {
                            if bm_get(&self.live, i) && bm_get(&self.valid, i) {
                                out.push(i as u32);
                            }
                        }
                    }
                    start = end;
                }
            }
        }
    }

    /// All live slot offsets (NULL values included) — the unbounded scan.
    /// Word-at-a-time: all-dead bitmap words skip without slot iteration.
    fn live_slots(&self, out: &mut Vec<u32>) {
        for blk in 0..self.n_slots.div_ceil(LANES) {
            let mut m = self.live[blk];
            let tail = self.n_slots - blk * LANES;
            if tail < LANES {
                m &= (1u64 << tail) - 1;
            }
            let base = (blk * LANES) as u32;
            while m != 0 {
                out.push(base + m.trailing_zeros());
                m &= m - 1;
            }
        }
    }

    /// Materialize values at ascending `offsets` into `out` (Null for
    /// slots whose value is NULL). One pass regardless of encoding; packed
    /// encodings decode dense offset runs a 64-block at a time
    /// (`batched = false`: per value, the tests' reference).
    fn gather(
        &self,
        offsets: &[u32],
        out: &mut Vec<Datum>,
        stats: &mut KernelStats,
        batched: bool,
    ) {
        match &self.enc {
            Enc::Plain(vals) => {
                for &i in offsets {
                    let i = i as usize;
                    if bm_get(&self.valid, i) {
                        out.push(vals[i].clone());
                    } else {
                        out.push(Datum::Null);
                    }
                }
            }
            Enc::PackedInt { base, bits, words } => {
                if batched {
                    out.reserve(offsets.len());
                    kernels::gather_codes(words, *bits, offsets, stats, |k, v| {
                        let i = offsets[k] as usize;
                        out.push(if bm_get(&self.valid, i) {
                            Datum::Int(base.wrapping_add(v as i64))
                        } else {
                            Datum::Null
                        });
                    });
                } else {
                    for &i in offsets {
                        let i = i as usize;
                        if bm_get(&self.valid, i) {
                            out.push(Datum::Int(
                                base.wrapping_add(pack_get(words, *bits, i) as i64),
                            ));
                        } else {
                            out.push(Datum::Null);
                        }
                    }
                }
            }
            Enc::Dict { dict, bits, codes } => {
                if batched {
                    out.reserve(offsets.len());
                    kernels::gather_codes(codes, *bits, offsets, stats, |k, c| {
                        let i = offsets[k] as usize;
                        out.push(if bm_get(&self.valid, i) {
                            dict[c as usize].clone()
                        } else {
                            Datum::Null
                        });
                    });
                } else {
                    for &i in offsets {
                        let i = i as usize;
                        if bm_get(&self.valid, i) {
                            out.push(dict[pack_get(codes, *bits, i) as usize].clone());
                        } else {
                            out.push(Datum::Null);
                        }
                    }
                }
            }
            Enc::Rle { runs } => {
                let mut run = 0usize;
                let mut run_end = runs.first().map(|(_, n)| *n as usize).unwrap_or(0);
                for &i in offsets {
                    let i = i as usize;
                    while i >= run_end {
                        run += 1;
                        run_end += runs[run].1 as usize;
                    }
                    if bm_get(&self.valid, i) {
                        out.push(runs[run].0.clone());
                    } else {
                        out.push(Datum::Null);
                    }
                }
            }
        }
    }
}

/// One segment column at a scan's offsets, from [`ColumnStore::view`].
pub(crate) enum SegColumn<'s> {
    /// A plain segment's values by slot, with its valid bitmap.
    Plain { vals: &'s [Datum], valid: &'s [u64] },
    /// The values at the offsets, in offset order.
    Gathered(Vec<Datum>),
}

impl SegColumn<'_> {
    /// The value at the `k`th offset, which is slot `slot`; a slot whose
    /// valid bit is clear reads as NULL, as [`ColumnStore::gather`] gives it.
    pub(crate) fn get(&self, k: usize, slot: u32) -> &Datum {
        match self {
            SegColumn::Plain { vals, valid } => {
                let i = slot as usize;
                if bm_get(valid, i) {
                    &vals[i]
                } else {
                    &NULL
                }
            }
            SegColumn::Gathered(vals) => &vals[k],
        }
    }
}

/// Per-column segment store. Rowid `r` lives in segment `r / SEG_ROWS`
/// at slot `r % SEG_ROWS`; heap rowids are dense and append-only, so the
/// tail segment is the only mutable one in the common case.
pub struct ColumnStore {
    column: String,
    segments: Vec<Segment>,
    /// MVCC creation timestamps, per segment per slot (absent / 0 = visible
    /// to every snapshot). Only Retain-mode inserts tag; eager writes leave
    /// no trace, so serial workloads never allocate these.
    tags: HashMap<u64, Vec<u64>>,
    /// Deferred Retain-mode mutations: the store keeps showing the old
    /// value/liveness to registered snapshots; vacuum applies an op once
    /// the horizon passes its timestamp. While any op is pending, readers
    /// at or past its timestamp (including the latest-committed view) fall
    /// back to the heap — see [`ColumnStore::usable_for`].
    pending: Vec<PendingOp>,
    max_tag_ts: u64,
    /// Readers older than this cannot use the store at all (it was rebuilt
    /// from a heap scan that already includes younger versions).
    floor: u64,
}

struct PendingOp {
    ts: u64,
    rowid: RowId,
    op: PendingKind,
}

enum PendingKind {
    Set(Datum),
    Delete,
}

/// Observability summary of one column store (for storage_report).
#[derive(Debug, Clone)]
pub struct ColumnarInfo {
    pub column: String,
    pub segments: u64,
    pub encoded_bytes: u64,
    pub raw_bytes: u64,
    /// Segment counts per encoding, e.g. `"packed-int:3 plain:1"`.
    pub encodings: String,
}

impl ColumnStore {
    pub fn new(column: &str) -> ColumnStore {
        ColumnStore {
            column: column.to_string(),
            segments: Vec::new(),
            tags: HashMap::new(),
            pending: Vec::new(),
            max_tag_ts: 0,
            floor: 0,
        }
    }

    /// A store over the given `(value, rowid)` pairs, rowids ascending.
    pub(crate) fn build(column: &str, values: Vec<(Datum, RowId)>) -> ColumnStore {
        let mut store = ColumnStore::new(column);
        for (value, rowid) in values {
            store.append(rowid, value);
        }
        store
    }

    // ---- MVCC maintenance ----

    /// Stamp the store's visibility floor after a rebuild: the heap scan
    /// that produced it reflects commits up to (at least) `ts`, so older
    /// snapshots must not read it.
    pub fn set_floor(&mut self, ts: u64) {
        self.floor = ts;
    }

    /// May a reader with this read timestamp use the store? False when the
    /// store was rebuilt past the reader, or when a deferred mutation the
    /// reader should observe has not been applied yet (the caller then
    /// falls back to the heap scan path).
    pub fn usable_for(&self, read_ts: u64) -> bool {
        read_ts >= self.floor && self.pending.iter().all(|p| read_ts < p.ts)
    }

    /// Retain-mode insert: append and tag the slot with its creation
    /// timestamp so older snapshots filter it out of kernel output.
    pub fn append_tagged(&mut self, rowid: RowId, value: Datum, ts: u64) {
        self.append(rowid, value);
        let seg = rowid as usize / SEG_ROWS;
        let slot = rowid as usize % SEG_ROWS;
        let tags = self.tags.entry(seg as u64).or_default();
        if tags.len() <= slot {
            tags.resize(slot + 1, 0);
        }
        tags[slot] = ts;
        self.max_tag_ts = self.max_tag_ts.max(ts);
    }

    /// Defer an update until the snapshot horizon passes `ts`.
    pub fn pending_set(&mut self, rowid: RowId, value: Datum, ts: u64) {
        self.pending.push(PendingOp { ts, rowid, op: PendingKind::Set(value) });
    }

    /// Defer a delete until the snapshot horizon passes `ts`.
    pub fn pending_delete(&mut self, rowid: RowId, ts: u64) {
        self.pending.push(PendingOp { ts, rowid, op: PendingKind::Delete });
    }

    /// Drop slot offsets whose creation timestamp is after the reader's
    /// snapshot. Kernel emission is a superset filtered here, so sealed
    /// segment payloads stay immutable under concurrent inserts.
    pub fn filter_visible(&self, seg: u64, read_ts: u64, offs: &mut Vec<u32>) {
        if read_ts >= self.max_tag_ts {
            return;
        }
        let Some(tags) = self.tags.get(&seg) else {
            return;
        };
        offs.retain(|&o| tags.get(o as usize).is_none_or(|&t| t <= read_ts));
    }

    /// Apply deferred mutations whose timestamp has passed the snapshot
    /// horizon (`None` = no live snapshot, everything applies) and drop
    /// tags nobody can still be below. Returns the ops applied. The ops
    /// land in commit order; a sealed segment they write is decoded once
    /// and re-sealed once, after the last of them, into what re-sealing it
    /// after each op would have left.
    pub fn vacuum(&mut self, horizon: Option<u64>) -> u64 {
        let ready = |ts: u64| horizon.is_none_or(|h| ts <= h);
        let mut applied = 0u64;
        if self.pending.iter().any(|p| ready(p.ts)) {
            let mut apply = Vec::new();
            let mut keep = Vec::new();
            for p in self.pending.drain(..) {
                if ready(p.ts) {
                    apply.push(p);
                } else {
                    keep.push(p);
                }
            }
            self.pending = keep;
            // Same-row ops must land in commit order.
            apply.sort_by_key(|p| p.ts);
            applied = apply.len() as u64;
            let mut touched = Vec::new();
            for p in apply {
                match p.op {
                    PendingKind::Set(v) => self.put(p.rowid, v, Some(&mut touched)),
                    PendingKind::Delete => self.kill(p.rowid, Some(&mut touched)),
                }
            }
            touched.sort_unstable();
            touched.dedup();
            for seg in touched {
                self.segments[seg].seal();
            }
        }
        if !self.tags.is_empty() && horizon.is_none_or(|h| h >= self.max_tag_ts) {
            self.tags.clear();
            self.max_tag_ts = 0;
        }
        applied
    }

    /// No pending mutations and no visibility tags — vacuum has nothing
    /// to do here (the cheap pre-check before taking a write lock).
    pub fn mvcc_clean(&self) -> bool {
        self.pending.is_empty() && self.tags.is_empty()
    }

    pub fn column(&self) -> &str {
        &self.column
    }

    pub fn n_segments(&self) -> u64 {
        self.segments.len() as u64
    }

    /// Rowids covered so far (dense from 0).
    fn coverage(&self) -> u64 {
        match self.segments.last() {
            None => 0,
            Some(tail) => ((self.segments.len() - 1) * SEG_ROWS + tail.n_slots) as u64,
        }
    }

    fn push_slot(&mut self, value: Datum, live: bool) {
        if self.segments.last().map(|s| s.n_slots >= SEG_ROWS).unwrap_or(true) {
            if let Some(tail) = self.segments.last_mut() {
                tail.seal();
            }
            self.segments.push(Segment::new());
        }
        let seg = self.segments.last_mut().unwrap();
        let slot = seg.n_slots;
        let valid = live && !value.is_null();
        bm_set(&mut seg.live, slot, live);
        bm_set(&mut seg.valid, slot, valid);
        if valid {
            seg.widen_zone(&value);
        }
        match &mut seg.enc {
            Enc::Plain(vals) => vals.push(value),
            _ => unreachable!("tail segment is always plain"),
        }
        seg.n_slots += 1;
    }

    /// Record a freshly inserted row. Rowids arrive in increasing order
    /// (the heap allocates densely); gaps — rowids never seen because the
    /// store was built mid-stream — are filled as dead slots.
    pub fn append(&mut self, rowid: RowId, value: Datum) {
        while self.coverage() < rowid {
            self.push_slot(Datum::Null, false);
        }
        if self.coverage() == rowid {
            self.push_slot(value, true);
        } else {
            // Re-insert into an already covered rowid (a store built while
            // the row's transaction was still open): treat as update.
            self.put(rowid, value, None);
        }
    }

    /// Eager update of an existing row: the writer runs with no snapshot
    /// left to read what the pending ops preserve, so they are applied first
    /// and commit order stays the only order.
    pub fn set(&mut self, rowid: RowId, value: Datum) {
        self.vacuum(None);
        self.put(rowid, value, None);
    }

    /// Eager delete; drains the pending ops like [`ColumnStore::set`].
    pub fn delete(&mut self, rowid: RowId) {
        self.vacuum(None);
        self.kill(rowid, None);
    }

    /// Write one slot. An unchanged slot costs one lookup; the plain tail is
    /// patched in place; an encoded segment is decoded and re-sealed
    /// (`reseal`).
    fn put(&mut self, rowid: RowId, value: Datum, touched: Option<&mut Vec<usize>>) {
        if rowid >= self.coverage() {
            self.append(rowid, value);
            return;
        }
        let seg_no = rowid as usize / SEG_ROWS;
        let seg = &mut self.segments[seg_no];
        let slot = rowid as usize % SEG_ROWS;
        let mut cur = Vec::with_capacity(1);
        seg.gather(&[slot as u32], &mut cur, &mut KernelStats::default(), true);
        let old = cur.pop().unwrap_or(Datum::Null);
        if bm_get(&seg.live, slot) && old.identical(&value) {
            return;
        }
        let mut plain = match std::mem::replace(&mut seg.enc, Enc::Plain(Vec::new())) {
            Enc::Plain(vals) => vals,
            enc => {
                seg.enc = enc;
                seg.to_plain()
            }
        };
        plain[slot] = value;
        bm_set(&mut seg.live, slot, true);
        bm_set(&mut seg.valid, slot, !plain[slot].is_null());
        // Only a value leaving the zone's edge can shrink it.
        let on_edge =
            |edge: &Option<Datum>| edge.as_ref().is_some_and(|e| e.total_cmp(&old).is_eq());
        if !old.is_null() && (on_edge(&seg.min) || on_edge(&seg.max)) {
            seg.recompute_zone(&plain);
        } else {
            seg.widen_zone(&plain[slot]);
        }
        seg.enc = Enc::Plain(plain);
        if seg.sealed {
            self.reseal(seg_no, touched);
        }
    }

    /// Re-seal the written segment `seg_no`: now, or, with `touched`, once
    /// the vacuum pass that collects it is done. Until then it stays
    /// plain, and its kill threshold moves as re-sealing it would.
    fn reseal(&mut self, seg_no: usize, touched: Option<&mut Vec<usize>>) {
        let seg = &mut self.segments[seg_no];
        match touched {
            Some(touched) => {
                seg.reseal_at = seg.live_count() / 2;
                touched.push(seg_no);
            }
            None => seg.seal(),
        }
    }

    /// Mark a row dead. Values stay in place and the zone map is left as
    /// a (conservative) superset — until the sealed segment's live count
    /// halves, at which point the segment re-seals: the zone map is
    /// recomputed over the survivors (deletes only shrink the value set,
    /// so stale zones prune poorly) and the encoding re-picked.
    fn kill(&mut self, rowid: RowId, touched: Option<&mut Vec<usize>>) {
        if rowid >= self.coverage() {
            return;
        }
        let seg_no = rowid as usize / SEG_ROWS;
        let slot = rowid as usize % SEG_ROWS;
        let seg = &mut self.segments[seg_no];
        bm_set(&mut seg.live, slot, false);
        bm_set(&mut seg.valid, slot, false);
        if seg.sealed && seg.live_count() < seg.reseal_at {
            let plain = seg.to_plain();
            seg.recompute_zone(&plain);
            seg.enc = Enc::Plain(plain);
            self.reseal(seg_no, touched);
        }
    }

    /// Zone-map test for one segment against a `key_cmp` bound range.
    pub fn zone_prunes(&self, seg: u64, range: &KeyRange) -> bool {
        self.segments[seg as usize].zone_prunes(range)
    }

    /// Vectorized bound kernel over one segment: ascending slot offsets of
    /// live non-NULL values inside the range (`key_cmp` semantics).
    /// Returns the kernel engagement counters for this call.
    pub fn select_segment(&self, seg: u64, range: &KeyRange, out: &mut Vec<u32>) -> KernelStats {
        let mut stats = KernelStats::default();
        self.segments[seg as usize].select(range, out, &mut stats, true);
        stats
    }

    /// All live slots of one segment (unbounded scan path).
    pub fn live_slots(&self, seg: u64, out: &mut Vec<u32>) {
        self.segments[seg as usize].live_slots(out);
    }

    /// Materialize this column's values at the given segment offsets.
    pub fn gather(&self, seg: u64, offsets: &[u32], out: &mut Vec<Datum>, stats: &mut KernelStats) {
        self.segments[seg as usize].gather(offsets, out, stats, true);
    }

    /// This column's values at the given segment offsets as a scan's
    /// filter reads them: a plain segment in place, any other encoding
    /// gathered once (DESIGN.md §28).
    pub(crate) fn view(
        &self,
        seg: u64,
        offsets: &[u32],
        stats: &mut KernelStats,
    ) -> SegColumn<'_> {
        let s = &self.segments[seg as usize];
        match &s.enc {
            Enc::Plain(vals) => SegColumn::Plain { vals, valid: &s.valid },
            _ => {
                let mut out = Vec::with_capacity(offsets.len());
                s.gather(offsets, &mut out, stats, true);
                SegColumn::Gathered(out)
            }
        }
    }

    /// Exactness class shared by every live non-NULL value of one segment,
    /// proved by its zone map: when `min` and `max` land in the same
    /// [`Datum::exactness_class`], every value between them in total order
    /// is in that class too (a value of another class sitting between two
    /// same-class endpoints would contradict the class ordering; a NaN in
    /// the segment would itself be the min or max and has no class). For
    /// such segments, kernel emission under `key_cmp` with bounds of the
    /// same class equals the SQL match set exactly, so the executor can
    /// skip the residual filter even when the planner couldn't prove
    /// exactness globally.
    pub fn segment_value_class(&self, seg: u64) -> Option<u8> {
        let s = &self.segments[seg as usize];
        match (&s.min, &s.max) {
            (Some(mn), Some(mx)) => match (mn.exactness_class(), mx.exactness_class()) {
                (Some(a), Some(b)) if a == b => Some(a),
                _ => None,
            },
            _ => None,
        }
    }

    /// What the store will hold per rowid once every pending op has been
    /// applied (`None` = no live row) — the side of the consistency audit
    /// [`crate::Database::check_derived`] compares with the heap.
    pub fn latest_values(&self) -> Vec<Option<Datum>> {
        let mut out = Vec::with_capacity(self.coverage() as usize);
        for seg in &self.segments {
            for (i, d) in seg.to_plain().into_iter().enumerate() {
                let value = if bm_get(&seg.valid, i) { d } else { Datum::Null };
                out.push(bm_get(&seg.live, i).then_some(value));
            }
        }
        let mut pending: Vec<&PendingOp> = self.pending.iter().collect();
        pending.sort_by_key(|p| p.ts);
        for p in pending {
            if let Some(v) = out.get_mut(p.rowid as usize) {
                *v = match &p.op {
                    PendingKind::Set(d) => Some(d.clone()),
                    PendingKind::Delete => None,
                };
            }
        }
        out
    }

    pub fn info(&self) -> ColumnarInfo {
        let mut encoded = 0u64;
        let mut raw = 0u64;
        let mut counts: Vec<(&'static str, u64)> = Vec::new();
        for seg in &self.segments {
            encoded += seg.enc.bytes() + 2 * BM_WORDS as u64 * 8;
            let plain = seg.to_plain();
            for (i, d) in plain.iter().enumerate() {
                if bm_get(&seg.live, i) {
                    raw += d.width() as u64;
                }
            }
            let name = seg.enc.name();
            match counts.iter_mut().find(|(n, _)| *n == name) {
                Some((_, c)) => *c += 1,
                None => counts.push((name, 1)),
            }
        }
        let encodings = counts
            .iter()
            .map(|(n, c)| format!("{n}:{c}"))
            .collect::<Vec<_>>()
            .join(" ");
        ColumnarInfo {
            column: self.column.clone(),
            segments: self.segments.len() as u64,
            encoded_bytes: encoded,
            raw_bytes: raw,
            encodings,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_select(vals: &[(Datum, bool)], range: &KeyRange) -> Vec<u32> {
        let KeyRange { lo, lo_inc, hi, hi_inc } = range;
        let mut out = Vec::new();
        for (i, (d, live)) in vals.iter().enumerate() {
            if !*live || d.is_null() {
                continue;
            }
            let mut ok = true;
            if let Some(l) = lo {
                match d.key_cmp(l) {
                    Ordering::Less => ok = false,
                    Ordering::Equal if !lo_inc => ok = false,
                    _ => {}
                }
            }
            if let Some(h) = hi {
                match d.key_cmp(h) {
                    Ordering::Greater => ok = false,
                    Ordering::Equal if !hi_inc => ok = false,
                    _ => {}
                }
            }
            if ok {
                out.push(i as u32);
            }
        }
        out
    }

    fn store_select_raw(store: &ColumnStore, range: &KeyRange, batched: bool) -> Vec<u32> {
        let mut out = Vec::new();
        for (seg, segment) in store.segments.iter().enumerate() {
            let mut offs = Vec::new();
            if !segment.zone_prunes(range) {
                segment.select(range, &mut offs, &mut KernelStats::default(), batched);
            }
            out.extend(offs.iter().map(|&o| (seg * SEG_ROWS) as u32 + o));
        }
        out
    }

    /// Run the batched kernels and the scalar reference loops, assert they
    /// agree, and return the (shared) result.
    fn store_select(store: &ColumnStore, range: &KeyRange) -> Vec<u32> {
        let scalar = store_select_raw(store, range, false);
        let batched = store_select_raw(store, range, true);
        assert_eq!(scalar, batched, "scalar and batched kernels diverged");
        batched
    }

    fn mix(seed: u64) -> u64 {
        let mut z = seed.wrapping_add(0x9e3779b97f4a7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    #[test]
    fn packed_int_roundtrip_and_select() {
        let mut store = ColumnStore::new("a");
        let mut vals = Vec::new();
        for i in 0..(SEG_ROWS as u64 * 2 + 100) {
            let v = (mix(i) % 1000) as i64 + 500;
            store.append(i, Datum::Int(v));
            vals.push((Datum::Int(v), true));
        }
        // first two segments sealed as packed-int
        assert!(store.info().encodings.contains("packed-int"));
        for (lo, lo_inc, hi, hi_inc) in [
            (Some(Datum::Int(700)), true, Some(Datum::Int(900)), true),
            (Some(Datum::Int(700)), false, None, true),
            (None, true, Some(Datum::Float(750.5)), true),
            (Some(Datum::Float(649.5)), true, Some(Datum::Int(651)), false),
        ] {
            let range = KeyRange { lo, lo_inc, hi, hi_inc };
            assert_eq!(store_select(&store, &range), naive_select(&vals, &range), "{range:?}");
        }
        // gather round-trips identically through the kernels and the reference
        let offs: Vec<u32> = (0..64).collect();
        for batched in [false, true] {
            let mut out = Vec::new();
            let mut st = KernelStats::default();
            store.segments[0].gather(&offs, &mut out, &mut st, batched);
            for (o, d) in offs.iter().zip(&out) {
                assert_eq!(*d, vals[*o as usize].0);
            }
            assert_eq!(st.batched > 0, batched, "dense gather should batch iff asked to");
        }
    }

    #[test]
    fn dict_and_rle_roundtrip() {
        let mut dict_store = ColumnStore::new("c");
        let mut rle_store = ColumnStore::new("r");
        let cats = ["alpha", "beta", "gamma", "delta"];
        let mut dict_vals = Vec::new();
        for i in 0..(SEG_ROWS as u64 + 10) {
            let d = Datum::Text(cats[(mix(i) % 19 % 4) as usize].to_string());
            dict_store.append(i, d.clone());
            dict_vals.push((d, true));
            rle_store.append(i, Datum::Int((i / 2048) as i64));
        }
        assert!(dict_store.info().encodings.contains("dict"));
        assert!(rle_store.info().encodings.contains("rle"));
        let range = KeyRange::point(Datum::Text("beta".into()));
        assert_eq!(store_select(&dict_store, &range), naive_select(&dict_vals, &range));
        // RLE gather
        let offs: Vec<u32> = vec![0, 1, 2047, 2048, 4095];
        let mut out = Vec::new();
        rle_store.gather(0, &offs, &mut out, &mut KernelStats::default());
        assert_eq!(
            out,
            vec![
                Datum::Int(0),
                Datum::Int(0),
                Datum::Int(0),
                Datum::Int(1),
                Datum::Int(1)
            ]
        );
    }

    #[test]
    fn zone_maps_prune_disjoint_segments() {
        let mut store = ColumnStore::new("a");
        for i in 0..(SEG_ROWS as u64 * 3) {
            store.append(i, Datum::Int(i as i64));
        }
        let range =
            KeyRange { lo: Some(Datum::Int(SEG_ROWS as i64 * 2 + 5)), ..KeyRange::default() };
        let mut pruned = 0;
        for seg in 0..store.n_segments() {
            if store.zone_prunes(seg, &range) {
                pruned += 1;
            }
        }
        assert_eq!(pruned, 2);
    }

    #[test]
    fn dml_maintenance_updates_and_deletes() {
        let mut store = ColumnStore::new("a");
        for i in 0..(SEG_ROWS as u64 + 50) {
            store.append(i, Datum::Int(i as i64 % 100));
        }
        // update inside the sealed segment widens its zone map
        store.set(10, Datum::Int(100_000));
        let outlier = KeyRange { lo: Some(Datum::Int(100_000)), ..KeyRange::default() };
        let hit = store_select(&store, &outlier);
        assert_eq!(hit, vec![10]);
        // delete removes the row from kernels
        store.delete(10);
        let hit = store_select(&store, &outlier);
        assert!(hit.is_empty());
        // NULL update: excluded from bounded kernels, present in live_slots
        store.set(20, Datum::Null);
        let hit = store_select(&store, &KeyRange::point(Datum::Int(20)));
        assert!(!hit.contains(&20));
        let mut live = Vec::new();
        store.live_slots(0, &mut live);
        assert!(live.contains(&20));
        assert!(!live.contains(&10));
        // gaps appended as dead slots
        let mut store2 = ColumnStore::new("g");
        store2.append(5, Datum::Int(7));
        let mut live2 = Vec::new();
        store2.live_slots(0, &mut live2);
        assert_eq!(live2, vec![5]);
    }

    /// One vacuum pass over `sets` pending sets, `new(i)` at row
    /// `mix(i)`, leaves exactly the store the same sets make applied one at
    /// a time, over two sealed segments of `value(rowid)` with dead slots:
    /// every gathered value, the live and valid bits, the zone maps, the
    /// encodings.
    fn check_vacuum(value: fn(u64) -> Datum, new: fn(u64) -> Datum, sets: u64) {
        let rows = 2 * SEG_ROWS as u64 + 300;
        let build = || {
            let mut store = ColumnStore::build("c", (0..rows).map(|r| (value(r), r)).collect());
            for r in (7..rows).step_by(613) {
                store.delete(r);
            }
            store
        };
        let (mut eager, mut deferred) = (build(), build());
        let encoded = eager.segments.iter().filter(|s| !matches!(s.enc, Enc::Plain(_))).count();
        assert_eq!(encoded, 2, "both sealed segments are encoded");
        for i in 0..sets {
            let rowid = mix(i) % (2 * SEG_ROWS as u64);
            eager.set(rowid, new(i));
            deferred.pending_set(rowid, new(i), i + 1);
        }
        assert_eq!(deferred.vacuum(Some(sets)), sets);
        assert!(deferred.mvcc_clean());
        assert_eq!(eager.segments.len(), deferred.segments.len());
        for (seg, (e, d)) in eager.segments.iter().zip(&deferred.segments).enumerate() {
            let at = format!("segment {seg}");
            assert_eq!(e.enc.name(), d.enc.name(), "{at}");
            assert_eq!((&e.live, &e.valid), (&d.live, &d.valid), "{at}");
            assert_eq!((&e.min, &e.max), (&d.min, &d.max), "{at}");
            let shape = |s: &Segment| (s.n_slots, s.sealed, s.reseal_at);
            assert_eq!(shape(e), shape(d), "{at}");
            let mut slots = Vec::new();
            eager.live_slots(seg as u64, &mut slots);
            let gathered = |st: &ColumnStore| {
                let mut vals = Vec::new();
                st.gather(seg as u64, &slots, &mut vals, &mut KernelStats::default());
                vals
            };
            assert_eq!(gathered(&eager), gathered(&deferred), "{at}");
        }
    }

    /// One vacuum pass decodes each sealed segment it writes once and
    /// re-seals it once: thousands of packed-int sets that move the zone's
    /// edges and write NULLs, and fewer dictionary sets, whose eager
    /// decodes clone every text.
    #[test]
    fn one_vacuum_pass_equals_the_eager_sets() {
        let int_set = |i: u64| match i % 7 {
            0 => Datum::Null,
            // Past the zone's upper edge, then back inside it.
            1 => Datum::Int(900 + (i % 3) as i64),
            _ => Datum::Int((mix(i) % 450) as i64),
        };
        check_vacuum(|r| Datum::Int((r % 500) as i64), int_set, 2_000);
        let text_set = |i: u64| match i % 5 {
            0 => Datum::Null,
            _ => Datum::Text(format!("v{}", mix(i) % 60)),
        };
        check_vacuum(|r| Datum::Text(format!("v{}", r % 40)), text_set, 300);
    }

    #[test]
    fn eager_set_lands_after_an_older_pending_set() {
        let mut store = ColumnStore::new("a");
        store.append(0, Datum::Int(1));
        store.pending_set(0, Datum::Null, 5);
        store.set(0, Datum::Int(7));
        store.vacuum(None);
        assert_eq!(store.latest_values(), vec![Some(Datum::Int(7))]);
    }

    #[test]
    fn set_patches_the_tail_in_place_and_keeps_the_zone_exact() {
        let mut store = ColumnStore::new("a");
        for i in 0..100 {
            store.append(i, Datum::Int(i as i64));
        }
        // leaving the max shrinks the zone, so a probe above 98 prunes
        store.set(99, Datum::Int(50));
        let at_least = |v| KeyRange { lo: Some(Datum::Int(v)), ..KeyRange::default() };
        assert!(store.zone_prunes(0, &at_least(99)));
        // an interior change only widens it
        store.set(10, Datum::Int(500));
        assert!(!store.zone_prunes(0, &at_least(500)));
        assert_eq!(store_select(&store, &KeyRange::point(Datum::Int(50))), vec![50, 99]);
        // a sealed segment keeps its encoding when the value does not change
        let mut sealed = ColumnStore::new("s");
        for i in 0..(SEG_ROWS as u64 + 1) {
            sealed.append(i, Datum::Int(i as i64 % 7));
        }
        let before = sealed.info().encodings;
        sealed.set(3, Datum::Int(3));
        sealed.set(4, Datum::Int(6));
        assert_eq!(sealed.info().encodings, before);
        assert_eq!(sealed.latest_values()[4], Some(Datum::Int(6)));
    }

    #[test]
    fn mixed_type_segments_stay_plain_and_correct() {
        let mut store = ColumnStore::new("m");
        let mut vals = Vec::new();
        for i in 0..(SEG_ROWS as u64 + 7) {
            let d = match mix(i) % 4 {
                0 => Datum::Int(i as i64),
                1 => Datum::Float(i as f64 / 3.0),
                2 => Datum::Text(format!("s{}", mix(i) % 50)),
                _ => Datum::Null,
            };
            store.append(i, d.clone());
            vals.push((d, true));
        }
        let range = KeyRange {
            lo: Some(Datum::Int(1000)),
            lo_inc: true,
            hi: Some(Datum::Text("s3".into())),
            hi_inc: false,
        };
        assert_eq!(store_select(&store, &range), naive_select(&vals, &range));
    }

    #[test]
    fn delete_reseal_tightens_zone_and_prunes() {
        let mut store = ColumnStore::new("a");
        // 100 outlier rows stretch the zone; the rest sit under 50.
        for i in 0..(SEG_ROWS as u64 + 10) {
            let v = if i < 100 { 1_000_000 + i as i64 } else { i as i64 % 50 };
            store.append(i, Datum::Int(v));
        }
        let probe = KeyRange { lo: Some(Datum::Int(500_000)), ..KeyRange::default() };
        assert!(!store.zone_prunes(0, &probe));
        // Killing the outliers alone leaves the stale (superset) zone.
        for i in 0..100u64 {
            store.delete(i);
        }
        assert!(
            !store.zone_prunes(0, &probe),
            "zone must stay a conservative superset before the re-seal threshold"
        );
        // Dropping below half the sealed live count triggers the re-seal:
        // zone recomputed over survivors (all < 50), probe now prunes.
        for i in 100..(SEG_ROWS as u64 * 3 / 5) {
            store.delete(i);
        }
        assert!(
            store.zone_prunes(0, &probe),
            "re-seal must tighten the zone map over the survivors"
        );
        // Survivors still select correctly after the re-encode.
        let vals: Vec<(Datum, bool)> = (0..(SEG_ROWS as u64 + 10))
            .map(|i| {
                let v = if i < 100 { 1_000_000 + i as i64 } else { i as i64 % 50 };
                (Datum::Int(v), i >= SEG_ROWS as u64 * 3 / 5)
            })
            .collect();
        let range =
            KeyRange { lo: Some(Datum::Int(10)), hi: Some(Datum::Int(20)), ..KeyRange::default() };
        assert_eq!(store_select(&store, &range), naive_select(&vals, &range));
    }

    #[test]
    fn kernel_counters_engage_per_encoding() {
        // Packed-int: batched decode + all-dead word skip.
        let mut packed = ColumnStore::new("p");
        for i in 0..(SEG_ROWS as u64 + 10) {
            packed.append(i, Datum::Int((mix(i) % 1000) as i64));
        }
        for i in 128..192u64 {
            packed.delete(i); // one fully dead bitmap word
        }
        let range =
            KeyRange { lo: Some(Datum::Int(100)), hi: Some(Datum::Int(900)), ..KeyRange::default() };
        let mut offs = Vec::new();
        let st = packed.select_segment(0, &range, &mut offs);
        assert!(st.batched > 0, "packed select must use the 64-wide path");
        assert!(st.fastpath_words > 0, "dead word must be skipped wholesale");
        let mut out = Vec::new();
        let mut gst = KernelStats::default();
        packed.gather(0, &offs, &mut out, &mut gst);
        assert!(gst.batched > 0, "dense gather must decode whole blocks");
        let mut scalar = KernelStats::default();
        packed.segments[0].select(&range, &mut Vec::new(), &mut scalar, false);
        assert_eq!(scalar.batched, 0, "the reference must stay on the scalar path");
        // Dict: predicate rewritten to a code range.
        let mut dict = ColumnStore::new("d");
        let cats = ["alpha", "beta", "gamma", "delta"];
        for i in 0..(SEG_ROWS as u64 + 10) {
            dict.append(i, Datum::Text(cats[(mix(i) % 4) as usize].into()));
        }
        let mut offs = Vec::new();
        let st = dict.select_segment(0, &KeyRange::point(Datum::Text("beta".into())), &mut offs);
        assert_eq!(st.dict_rewrites, 1);
        // Rle: non-matching runs skipped at run level.
        let mut rle = ColumnStore::new("r");
        for i in 0..(SEG_ROWS as u64 + 10) {
            rle.append(i, Datum::Int((i / 1024) as i64));
        }
        let mut offs = Vec::new();
        let st = rle.select_segment(0, &KeyRange::point(Datum::Int(2)), &mut offs);
        assert!(st.rle_runs_skipped >= 3, "rejected runs must skip without slot work");
        assert_eq!(offs.len(), 1024);
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(48))]
        #[test]
        fn proptest_kernels_match_naive_both_modes(
            seed in proptest::arbitrary::any::<u64>(),
            shape in 0u8..6,
            lo_pick in 0usize..20,
            hi_pick in 0usize..20,
            lo_inc in proptest::arbitrary::any::<bool>(),
            hi_inc in proptest::arbitrary::any::<bool>(),
            churn in 0u8..3,
        ) {
            let cats = ["alpha", "beta", "gamma", "delta"];
            let mk = |i: u64| -> Datum {
                let r = mix(seed ^ i);
                match shape {
                    0 => Datum::Int((r % 1000) as i64 - 500), // packed (zero-straddling)
                    1 => Datum::Int(r as i64),                // too wide: stays plain
                    2 => Datum::Text(cats[(r % 4) as usize].into()), // dict
                    3 => Datum::Int((i / 512) as i64),        // rle
                    4 => match r % 5 {
                        // mixed: plain with NULLs, ±0.0 ties, text
                        0 => Datum::Null,
                        1 => Datum::Int((r % 100) as i64 - 50),
                        2 => Datum::Float((r % 800) as f64 / 8.0 - 50.0),
                        3 => Datum::Float(-0.0),
                        _ => Datum::Text(format!("s{}", r % 7)),
                    },
                    _ => Datum::Float((r % 2000) as f64 / 16.0 - 60.0), // plain floats
                }
            };
            let n = SEG_ROWS as u64 + 1 + mix(seed ^ 0xbeef) % 300;
            let mut vals: Vec<(Datum, bool)> = Vec::new();
            let mut store = ColumnStore::new("x");
            for i in 0..n {
                let d = mk(i);
                store.append(i, d.clone());
                vals.push((d, true));
            }
            if churn > 0 {
                for i in 0..n {
                    let r = mix(seed ^ 0xdead ^ i);
                    if r.is_multiple_of(4) {
                        store.delete(i);
                        vals[i as usize].1 = false;
                    } else if churn > 1 && r.is_multiple_of(17) {
                        let nv = Datum::Int((r % 50) as i64);
                        store.set(i, nv.clone());
                        vals[i as usize].0 = nv;
                    }
                }
            }
            // Bound pool stresses the translation edges: ±0.0/Int(0) ties,
            // floats beyond the i64 span, signed NaNs, infinities, extreme
            // ints, cross-type bounds.
            let pool: [Datum; 19] = [
                Datum::Int(0), Datum::Float(0.0), Datum::Float(-0.0),
                Datum::Int(5), Datum::Float(4.5), Datum::Float(-250.25),
                Datum::Float(-1.0e300), Datum::Float(1.0e300),
                Datum::Float(f64::NAN), Datum::Float(-f64::NAN),
                Datum::Float(f64::INFINITY), Datum::Float(f64::NEG_INFINITY),
                Datum::Int(i64::MIN), Datum::Int(i64::MAX),
                Datum::Text("beta".into()), Datum::Text("s3".into()),
                Datum::Null, Datum::Bool(true), Datum::Int(300),
            ];
            let lo = if lo_pick == 0 { None } else { Some(pool[lo_pick - 1].clone()) };
            let hi = if hi_pick == 0 { None } else { Some(pool[hi_pick - 1].clone()) };
            // store_select asserts scalar == batched internally.
            let range = KeyRange { lo, lo_inc, hi, hi_inc };
            let got = store_select(&store, &range);
            let want = naive_select(&vals, &range);
            proptest::prop_assert_eq!(&got, &want);
            // Gather differential: selected offsets must round-trip the
            // stored value exactly (variant- and bit-faithful) both ways.
            let seg0: Vec<u32> = got.iter().copied().filter(|&o| (o as usize) < SEG_ROWS).collect();
            for batched in [false, true] {
                let mut out = Vec::new();
                let mut st = KernelStats::default();
                store.segments[0].gather(&seg0, &mut out, &mut st, batched);
                for (o, d) in seg0.iter().zip(&out) {
                    proptest::prop_assert_eq!(d, &vals[*o as usize].0);
                }
            }
        }
    }
}
