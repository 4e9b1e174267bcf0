//! Secondary ordered indexes: `Datum` key → heap [`RowId`].
//!
//! A [`SecondaryIndex`] is a B-tree-style ordered map from column values to
//! the row ids holding them. Entries live in sorted leaf pages allocated
//! from the table's [`Pager`], so index reads and writes go through the
//! same buffer pool as heap pages and show up in `IoStats` — an index
//! probe on a cold cache costs real (simulated) I/O, exactly like Postgres.
//! The leaf *directory* (low key per page) is kept in memory, mirroring the
//! heap's in-memory row directory.
//!
//! Keys order by [`Datum::total_cmp`], the same total order the sort
//! operators use: NULLs first (never stored — SQL comparison predicates
//! are null-rejecting, so an index scan never needs them), then a fixed
//! type rank, with Int/Float comparing numerically across types. Range
//! lookups therefore return a *superset* of the sql-semantics matches
//! (e.g. `col > 5` ranges over trailing Text entries too); the executor
//! re-applies the full predicate as a residual filter, which keeps index
//! scans byte-identical to full scans by construction.
//!
//! Duplicate keys are allowed; entries are unique by `(key, rowid)`.
//! Oversized keys (encoding beyond [`MAX_ENTRY_KEY`]) are rare — promoted
//! columns hold scalars — and go to a small in-memory overflow list that
//! every lookup merges in, so correctness never depends on key size.

use crate::datum::{Datum, KeyRange};
use crate::error::{DbError, DbResult};
use crate::heap::RowId;
use crate::page::PAGE_SIZE;
use crate::pager::{PageId, Pager};
use std::cmp::Ordering;
use std::sync::Arc;

/// Usable payload bytes per leaf page (2-byte entry-count header).
const LEAF_CAP: usize = PAGE_SIZE - 2;
/// Largest key encoding stored in a leaf page. Guarantees a full page
/// holds at least three entries, so splits always make progress.
const MAX_ENTRY_KEY: usize = 2048;

/// One leaf page: its low `(key, rowid)` bound and entry count.
struct LeafMeta {
    page: PageId,
    lo_key: Datum,
    lo_rowid: RowId,
    count: u32,
}

/// An ordered secondary index over one physical column of a table.
pub struct SecondaryIndex {
    pager: Arc<Pager>,
    name: String,
    column: String,
    /// Leaves in key order; binary-searched by their low bound.
    leaves: Vec<LeafMeta>,
    /// Entries whose key encoding exceeds [`MAX_ENTRY_KEY`], kept sorted.
    overflow: Vec<(Datum, RowId)>,
    entry_count: u64,
}

fn cmp_entry(a: &(Datum, RowId), b: &(Datum, RowId)) -> Ordering {
    cmp_key(a, &b.0, b.1)
}

/// [`cmp_entry`] against a borrowed `(key, rowid)`.
fn cmp_key(a: &(Datum, RowId), key: &Datum, rowid: RowId) -> Ordering {
    a.0.total_cmp(key).then(a.1.cmp(&rowid))
}

/// A [`KeyRange`] translated to the tree's `total_cmp` entry order.
///
/// SQL treats the zero family {Float(-0.0), Int(0), Float(0.0)} as a single
/// value, but tree entries are ordered by `total_cmp`, which places -0.0
/// strictly below 0.0 (with Int(0) tied to both). A zero endpoint must
/// therefore be widened to the family edge matching its inclusivity, or
/// the probe would split the family: an inclusive lo becomes -0.0 (admit
/// every zero), an exclusive lo becomes 0.0 (reject every zero), and
/// symmetrically for hi.
struct Probe(KeyRange);

impl Probe {
    fn new(range: &KeyRange) -> Probe {
        let zero = |d: &Datum| {
            matches!(d, Datum::Int(0)) || matches!(d, Datum::Float(f) if *f == 0.0)
        };
        let mut r = range.clone();
        if r.lo.as_ref().is_some_and(zero) {
            r.lo = Some(Datum::Float(if r.lo_inc { -0.0 } else { 0.0 }));
        }
        if r.hi.as_ref().is_some_and(zero) {
            r.hi = Some(Datum::Float(if r.hi_inc { 0.0 } else { -0.0 }));
        }
        Probe(r)
    }

    fn below_lo(&self, k: &Datum) -> bool {
        self.0.lo.as_ref().is_some_and(|b| match k.total_cmp(b) {
            Ordering::Less => true,
            Ordering::Equal => !self.0.lo_inc,
            Ordering::Greater => false,
        })
    }

    fn above_hi(&self, k: &Datum) -> bool {
        self.0.hi.as_ref().is_some_and(|b| match k.total_cmp(b) {
            Ordering::Greater => true,
            Ordering::Equal => !self.0.hi_inc,
            Ordering::Less => false,
        })
    }

    /// First leaf that can contain an in-range key: the last leaf whose
    /// low bound is below the range start (its tail may still qualify).
    fn first_leaf(&self, leaves: &[LeafMeta]) -> usize {
        match &self.0.lo {
            Some(b) => leaves
                .partition_point(|leaf| leaf.lo_key.total_cmp(b) == Ordering::Less)
                .saturating_sub(1),
            None => 0,
        }
    }
}

impl SecondaryIndex {
    pub fn new(pager: Arc<Pager>, name: &str, column: &str) -> SecondaryIndex {
        SecondaryIndex {
            pager,
            name: name.to_string(),
            column: column.to_string(),
            leaves: Vec::new(),
            overflow: Vec::new(),
            entry_count: 0,
        }
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    /// The indexed column's name.
    pub fn column(&self) -> &str {
        &self.column
    }

    /// Number of (key, rowid) entries (NULL keys are never stored).
    pub fn key_count(&self) -> u64 {
        self.entry_count
    }

    pub fn pages_used(&self) -> u64 {
        self.leaves.len() as u64
    }

    pub fn bytes_used(&self) -> u64 {
        self.pages_used() * PAGE_SIZE as u64
    }

    /// Add one entry; returns whether it was new. NULL keys are skipped
    /// (comparison predicates are null-rejecting, so no lookup ever wants
    /// them).
    pub fn insert(&mut self, key: &Datum, rowid: RowId) -> DbResult<bool> {
        if key.is_null() {
            return Ok(false);
        }
        let mut kbytes = Vec::new();
        encode_key(key, &mut kbytes);
        if kbytes.len() > MAX_ENTRY_KEY {
            let entry = (key.clone(), rowid);
            let Err(pos) = self.overflow.binary_search_by(|e| cmp_entry(e, &entry)) else {
                return Ok(false);
            };
            self.overflow.insert(pos, entry);
            self.entry_count += 1;
            return Ok(true);
        }
        if self.leaves.is_empty() {
            let page = self.pager.alloc_raw_unlogged()?;
            write_leaf(&self.pager, page, &[(key.clone(), rowid)])?;
            self.leaves.push(LeafMeta {
                page,
                lo_key: key.clone(),
                lo_rowid: rowid,
                count: 1,
            });
            self.entry_count += 1;
            return Ok(true);
        }
        let li = self.target_leaf(key, rowid);
        let mut entries = read_leaf(&self.pager, self.leaves[li].page)?;
        let pos = match entries.binary_search_by(|e| cmp_key(e, key, rowid)) {
            Ok(_) => return Ok(false), // (key, rowid) already present
            Err(pos) => pos,
        };
        entries.insert(pos, (key.clone(), rowid));
        self.entry_count += 1;
        // Each entry is encoded once: the image that fits is the one written.
        let image = encode_leaf(&entries);
        if image.len() <= PAGE_SIZE {
            write_page(&self.pager, self.leaves[li].page, &image)?;
            self.refresh_meta(li, &entries);
            return Ok(true);
        }
        // Split: lower half stays, upper half moves to a fresh page.
        let mid = entries.len() / 2;
        let upper: Vec<(Datum, RowId)> = entries.split_off(mid);
        write_leaf(&self.pager, self.leaves[li].page, &entries)?;
        self.refresh_meta(li, &entries);
        let new_page = self.pager.alloc_raw_unlogged()?;
        write_leaf(&self.pager, new_page, &upper)?;
        self.leaves.insert(
            li + 1,
            LeafMeta {
                page: new_page,
                lo_key: upper[0].0.clone(),
                lo_rowid: upper[0].1,
                count: upper.len() as u32,
            },
        );
        Ok(true)
    }

    /// Load entries one [`SecondaryIndex::insert`] at a time — the slow
    /// build the bench harness compares [`SecondaryIndex::bulk_build`] with.
    pub(crate) fn insert_each(&mut self, entries: Vec<(Datum, RowId)>) -> DbResult<()> {
        for (key, rowid) in entries {
            self.insert(&key, rowid)?;
        }
        Ok(())
    }

    /// Remove one entry; returns whether it was present.
    pub fn remove(&mut self, key: &Datum, rowid: RowId) -> DbResult<bool> {
        if key.is_null() {
            return Ok(false);
        }
        if let Ok(pos) = self.overflow.binary_search_by(|e| cmp_key(e, key, rowid)) {
            self.overflow.remove(pos);
            self.entry_count -= 1;
            return Ok(true);
        }
        if self.leaves.is_empty() {
            return Ok(false);
        }
        let li = self.target_leaf(key, rowid);
        let mut entries = read_leaf(&self.pager, self.leaves[li].page)?;
        let Ok(pos) = entries.binary_search_by(|e| cmp_key(e, key, rowid)) else {
            return Ok(false);
        };
        entries.remove(pos);
        self.entry_count -= 1;
        if entries.is_empty() {
            // Page is abandoned (the pager never frees pages), like a
            // drained jumbo chain; accounting drops it from the directory.
            self.leaves.remove(li);
        } else {
            write_leaf(&self.pager, self.leaves[li].page, &entries)?;
            self.refresh_meta(li, &entries);
        }
        Ok(true)
    }

    /// Rebuild from scratch by sorting once and packing leaves in order —
    /// the bulk path CREATE INDEX and promotion use instead of row-at-a-time
    /// inserts. Returns the number of entries indexed.
    pub fn bulk_build(&mut self, mut entries: Vec<(Datum, RowId)>) -> DbResult<u64> {
        entries.retain(|(k, _)| !k.is_null());
        entries.sort_unstable_by(cmp_entry);
        entries.dedup_by(|a, b| cmp_entry(a, b) == Ordering::Equal);
        self.leaves.clear();
        self.overflow.clear();
        self.entry_count = entries.len() as u64;

        let mut run: Vec<(Datum, RowId)> = Vec::new();
        let mut run_bytes = 0usize;
        for (key, rowid) in entries {
            let mut kbytes = Vec::new();
            encode_key(&key, &mut kbytes);
            if kbytes.len() > MAX_ENTRY_KEY {
                self.overflow.push((key, rowid));
                continue;
            }
            let esz = entry_len(kbytes.len());
            // Pack to ~¾ fill so later point inserts rarely split.
            if run_bytes + esz > LEAF_CAP * 3 / 4 && !run.is_empty() {
                self.flush_run(&mut run)?;
                run_bytes = 0;
            }
            run.push((key, rowid));
            run_bytes += esz;
        }
        if !run.is_empty() {
            self.flush_run(&mut run)?;
        }
        Ok(self.entry_count)
    }

    fn flush_run(&mut self, run: &mut Vec<(Datum, RowId)>) -> DbResult<()> {
        let page = self.pager.alloc_raw_unlogged()?;
        write_leaf(&self.pager, page, run)?;
        self.leaves.push(LeafMeta {
            page,
            lo_key: run[0].0.clone(),
            lo_rowid: run[0].1,
            count: run.len() as u32,
        });
        run.clear();
        Ok(())
    }

    /// All row ids whose key falls inside `range` (`total_cmp`
    /// order with zero-family widening). Order is unspecified — callers
    /// sort before fetching to preserve heap scan order.
    ///
    /// `cap`, when present, bounds the probe to the `cap` *smallest* row
    /// ids in range (LIMIT pushdown: the executor fetches rowids in
    /// ascending order, so the smallest `cap` are exactly the rows an
    /// uncapped probe would have produced first). A bounded max-heap keeps
    /// memory at O(cap); an equality probe (`lo == hi`, both inclusive)
    /// additionally stops walking leaves early, because entries are sorted
    /// by `(key, rowid)` and therefore arrive in ascending rowid order.
    pub fn lookup_range(&self, range: &KeyRange, cap: Option<usize>) -> DbResult<Vec<RowId>> {
        let probe = Probe::new(range);
        // Bounded collection: a max-heap of at most `cap` rowids, so the
        // heap top is the largest kept rowid and any larger candidate is
        // rejected without growing memory.
        let mut out = Vec::new();
        let mut heap: std::collections::BinaryHeap<RowId> = std::collections::BinaryHeap::new();
        let keep = |rowid: RowId,
                    out: &mut Vec<RowId>,
                    heap: &mut std::collections::BinaryHeap<RowId>| match cap {
            None => out.push(rowid),
            Some(cap) => {
                if heap.len() < cap {
                    heap.push(rowid);
                } else if heap.peek().is_some_and(|&m| rowid < m) {
                    heap.pop();
                    heap.push(rowid);
                }
            }
        };
        let equality = match (&probe.0.lo, &probe.0.hi) {
            (Some(l), Some(h)) => {
                probe.0.lo_inc && probe.0.hi_inc && l.total_cmp(h) == Ordering::Equal
            }
            _ => false,
        };
        'leaves: for leaf in &self.leaves[probe.first_leaf(&self.leaves)..] {
            if !probe.below_lo(&leaf.lo_key) && probe.above_hi(&leaf.lo_key) {
                break; // every later entry is above the range too
            }
            for (k, rowid) in read_leaf(&self.pager, leaf.page)? {
                if probe.below_lo(&k) {
                    continue;
                }
                if probe.above_hi(&k) {
                    break;
                }
                keep(rowid, &mut out, &mut heap);
                if equality && cap.is_some_and(|c| heap.len() >= c) {
                    // Equal keys arrive in ascending rowid order; the heap
                    // already holds the cap smallest leaf entries.
                    break 'leaves;
                }
            }
        }
        for (k, rowid) in &self.overflow {
            if !probe.below_lo(k) && !probe.above_hi(k) {
                keep(*rowid, &mut out, &mut heap);
            }
        }
        if cap.is_some() {
            out.extend(heap);
        }
        Ok(out)
    }

    /// Every `(key, rowid)` entry: the leaves' in order, then the
    /// overflow's.
    pub fn entries(&self) -> DbResult<Vec<(Datum, RowId)>> {
        let mut out = Vec::new();
        for leaf in &self.leaves {
            out.extend(read_leaf(&self.pager, leaf.page)?);
        }
        out.extend(self.overflow.iter().cloned());
        Ok(out)
    }

    /// Index of the leaf that owns `(key, rowid)`: the last leaf whose low
    /// bound is ≤ the entry (entries below every leaf belong to the first).
    fn target_leaf(&self, key: &Datum, rowid: RowId) -> usize {
        let i = self.leaves.partition_point(|leaf| {
            leaf.lo_key.total_cmp(key).then(leaf.lo_rowid.cmp(&rowid)) != Ordering::Greater
        });
        i.saturating_sub(1)
    }

    fn refresh_meta(&mut self, li: usize, entries: &[(Datum, RowId)]) {
        let meta = &mut self.leaves[li];
        meta.lo_key = entries[0].0.clone();
        meta.lo_rowid = entries[0].1;
        meta.count = entries.len() as u32;
    }
}

// ---- leaf page codec ----

fn entry_len(klen: usize) -> usize {
    2 + klen + 8
}

/// A leaf's page image: the entry count, then per entry its key length,
/// key and row id. Each key is encoded straight into the image.
fn encode_leaf(entries: &[(Datum, RowId)]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(PAGE_SIZE);
    buf.extend_from_slice(&(entries.len() as u16).to_le_bytes());
    for (k, rowid) in entries {
        let at = buf.len();
        buf.extend_from_slice(&[0, 0]);
        encode_key(k, &mut buf);
        let klen = (buf.len() - at - 2) as u16;
        buf[at..at + 2].copy_from_slice(&klen.to_le_bytes());
        buf.extend_from_slice(&rowid.to_le_bytes());
    }
    buf
}

fn write_leaf(pager: &Pager, page: PageId, entries: &[(Datum, RowId)]) -> DbResult<()> {
    write_page(pager, page, &encode_leaf(entries))
}

fn write_page(pager: &Pager, page: PageId, image: &[u8]) -> DbResult<()> {
    debug_assert!(image.len() <= PAGE_SIZE);
    // Unlogged: index leaves are derived state, rebuilt from the heap by
    // recovery instead of replayed from the WAL.
    pager.with_page_mut_unlogged(page, |pg| {
        pg[..image.len()].copy_from_slice(image);
    })
}

fn read_leaf(pager: &Pager, page: PageId) -> DbResult<Vec<(Datum, RowId)>> {
    pager.with_page(page, |pg| {
        let n = u16::from_le_bytes([pg[0], pg[1]]) as usize;
        let mut off = 2;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let klen = u16::from_le_bytes([pg[off], pg[off + 1]]) as usize;
            off += 2;
            let (key, used) = decode_key(&pg[off..off + klen])?;
            debug_assert_eq!(used, klen);
            off += klen;
            let rowid = u64::from_le_bytes(pg[off..off + 8].try_into().unwrap());
            off += 8;
            out.push((key, rowid));
        }
        Ok(out)
    })?
}

// ---- key codec (self-describing; compared after decode, so byte order
// need not mirror Datum order) ----

fn encode_key(d: &Datum, out: &mut Vec<u8>) {
    match d {
        Datum::Null => out.push(0),
        Datum::Bool(b) => {
            out.push(1);
            out.push(*b as u8);
        }
        Datum::Int(i) => {
            out.push(2);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Datum::Float(f) => {
            out.push(3);
            out.extend_from_slice(&f.to_bits().to_le_bytes());
        }
        Datum::Text(s) => {
            out.push(4);
            out.extend_from_slice(&(s.len() as u32).to_le_bytes());
            out.extend_from_slice(s.as_bytes());
        }
        Datum::Bytea(b) => {
            out.push(5);
            out.extend_from_slice(&(b.len() as u32).to_le_bytes());
            out.extend_from_slice(b);
        }
        Datum::Array(a) => {
            out.push(6);
            out.extend_from_slice(&(a.len() as u32).to_le_bytes());
            for e in a {
                encode_key(e, out);
            }
        }
    }
}

fn decode_key(buf: &[u8]) -> DbResult<(Datum, usize)> {
    let corrupt = || DbError::Io("corrupt index key".into());
    let tag = *buf.first().ok_or_else(corrupt)?;
    match tag {
        0 => Ok((Datum::Null, 1)),
        1 => Ok((Datum::Bool(*buf.get(1).ok_or_else(corrupt)? != 0), 2)),
        2 => {
            let raw = buf.get(1..9).ok_or_else(corrupt)?;
            Ok((Datum::Int(i64::from_le_bytes(raw.try_into().unwrap())), 9))
        }
        3 => {
            let raw = buf.get(1..9).ok_or_else(corrupt)?;
            Ok((Datum::Float(f64::from_bits(u64::from_le_bytes(raw.try_into().unwrap()))), 9))
        }
        4 | 5 => {
            let raw = buf.get(1..5).ok_or_else(corrupt)?;
            let len = u32::from_le_bytes(raw.try_into().unwrap()) as usize;
            let body = buf.get(5..5 + len).ok_or_else(corrupt)?;
            let d = if tag == 4 {
                Datum::Text(String::from_utf8(body.to_vec()).map_err(|_| corrupt())?)
            } else {
                Datum::Bytea(body.to_vec())
            };
            Ok((d, 5 + len))
        }
        6 => {
            let raw = buf.get(1..5).ok_or_else(corrupt)?;
            let n = u32::from_le_bytes(raw.try_into().unwrap()) as usize;
            let mut off = 5;
            let mut elems = Vec::with_capacity(n);
            for _ in 0..n {
                let (e, used) = decode_key(buf.get(off..).ok_or_else(corrupt)?)?;
                elems.push(e);
                off += used;
            }
            Ok((Datum::Array(elems), off))
        }
        _ => Err(corrupt()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idx() -> SecondaryIndex {
        SecondaryIndex::new(Arc::new(Pager::in_memory()), "i", "c")
    }

    fn eq_lookup(ix: &SecondaryIndex, k: &Datum) -> Vec<RowId> {
        let mut v = ix.lookup_range(&KeyRange::point(k.clone()), None).unwrap();
        v.sort_unstable();
        v
    }

    #[test]
    fn insert_lookup_remove() {
        let mut ix = idx();
        ix.insert(&Datum::Int(5), 10).unwrap();
        ix.insert(&Datum::Int(5), 11).unwrap();
        ix.insert(&Datum::Int(7), 12).unwrap();
        ix.insert(&Datum::Null, 13).unwrap(); // skipped
        assert_eq!(ix.key_count(), 3);
        assert_eq!(eq_lookup(&ix, &Datum::Int(5)), vec![10, 11]);
        assert_eq!(eq_lookup(&ix, &Datum::Int(6)), Vec::<RowId>::new());
        assert!(ix.remove(&Datum::Int(5), 10).unwrap());
        assert!(!ix.remove(&Datum::Int(5), 10).unwrap());
        assert_eq!(eq_lookup(&ix, &Datum::Int(5)), vec![11]);
        assert_eq!(ix.key_count(), 2);
    }

    #[test]
    fn duplicate_entry_is_idempotent() {
        let mut ix = idx();
        ix.insert(&Datum::Int(1), 1).unwrap();
        ix.insert(&Datum::Int(1), 1).unwrap();
        assert_eq!(ix.key_count(), 1);
    }

    #[test]
    fn range_bounds_and_inclusivity() {
        let mut ix = idx();
        for i in 0..100i64 {
            ix.insert(&Datum::Int(i), i as RowId).unwrap();
        }
        let both = ix
            .lookup_range(&KeyRange { lo: Some(Datum::Int(10)), lo_inc: true, hi: Some(Datum::Int(20)), hi_inc: true }, None)
            .unwrap();
        assert_eq!(both.len(), 11);
        let open = ix
            .lookup_range(&KeyRange { lo: Some(Datum::Int(10)), lo_inc: false, hi: Some(Datum::Int(20)), hi_inc: false }, None)
            .unwrap();
        assert_eq!(open.len(), 9);
        let unbounded_lo = ix.lookup_range(&KeyRange { hi: Some(Datum::Int(4)), ..KeyRange::default() }, None).unwrap();
        assert_eq!(unbounded_lo.len(), 5);
        let unbounded_hi = ix.lookup_range(&KeyRange { lo: Some(Datum::Int(95)), lo_inc: false, ..KeyRange::default() }, None).unwrap();
        assert_eq!(unbounded_hi.len(), 4);
    }

    #[test]
    fn cross_numeric_keys_compare_numerically() {
        let mut ix = idx();
        ix.insert(&Datum::Int(5), 1).unwrap();
        ix.insert(&Datum::Float(5.0), 2).unwrap();
        ix.insert(&Datum::Float(4.5), 3).unwrap();
        assert_eq!(eq_lookup(&ix, &Datum::Int(5)), vec![1, 2]);
        let r = ix
            .lookup_range(&KeyRange { lo: Some(Datum::Float(4.4)), lo_inc: true, hi: Some(Datum::Int(5)), hi_inc: false }, None)
            .unwrap();
        assert_eq!(r, vec![3]);
    }

    #[test]
    fn splits_across_many_pages_stay_sorted() {
        let mut ix = idx();
        let n = 20_000i64;
        // insert in a scrambled order to force mid-leaf splits
        for i in 0..n {
            let k = (i * 7919) % n;
            ix.insert(&Datum::Int(k), k as RowId).unwrap();
        }
        assert_eq!(ix.key_count(), n as u64);
        assert!(ix.pages_used() > 10, "expected many leaves, got {}", ix.pages_used());
        let mut all = ix.lookup_range(&KeyRange::default(), None).unwrap();
        all.sort_unstable();
        assert_eq!(all.len(), n as usize);
        assert_eq!(eq_lookup(&ix, &Datum::Int(12_345 % n)), vec![(12_345 % n) as RowId]);
        let r = ix
            .lookup_range(&KeyRange { lo: Some(Datum::Int(100)), lo_inc: true, hi: Some(Datum::Int(199)), hi_inc: true }, None)
            .unwrap();
        assert_eq!(r.len(), 100);
    }

    #[test]
    fn bulk_build_matches_incremental() {
        let n = 5_000i64;
        let entries: Vec<(Datum, RowId)> =
            (0..n).map(|i| (Datum::Int((i * 13) % 500), i as RowId)).collect();
        let mut bulk = idx();
        bulk.bulk_build(entries.clone()).unwrap();
        let mut inc = idx();
        for (k, r) in &entries {
            inc.insert(k, *r).unwrap();
        }
        assert_eq!(bulk.key_count(), inc.key_count());
        for probe in [0i64, 13, 250, 499, 777] {
            assert_eq!(
                eq_lookup(&bulk, &Datum::Int(probe)),
                eq_lookup(&inc, &Datum::Int(probe)),
                "probe {probe}"
            );
        }
    }

    #[test]
    fn oversized_keys_go_to_overflow_and_still_match() {
        let mut ix = idx();
        let big = Datum::Text("x".repeat(MAX_ENTRY_KEY + 100));
        ix.insert(&big, 1).unwrap();
        ix.insert(&Datum::Text("small".into()), 2).unwrap();
        assert_eq!(ix.key_count(), 2);
        assert_eq!(eq_lookup(&ix, &big), vec![1]);
        assert!(ix.remove(&big, 1).unwrap());
        assert_eq!(ix.key_count(), 1);
    }

    #[test]
    fn mixed_type_keys_order_by_type_rank() {
        let mut ix = idx();
        ix.insert(&Datum::Bool(true), 1).unwrap();
        ix.insert(&Datum::Int(0), 2).unwrap();
        ix.insert(&Datum::Text("a".into()), 3).unwrap();
        ix.insert(&Datum::Array(vec![Datum::Int(1)]), 4).unwrap();
        // range over all numbers only
        let r = ix.lookup_range(&KeyRange { lo: Some(Datum::Int(i64::MIN)), lo_inc: true, hi: Some(Datum::Float(f64::INFINITY)), hi_inc: true }, None).unwrap();
        assert_eq!(r, vec![2]);
        assert_eq!(eq_lookup(&ix, &Datum::Array(vec![Datum::Int(1)])), vec![4]);
    }

    #[test]
    fn delete_then_reinsert_reuses_cleanly() {
        let mut ix = idx();
        for i in 0..1000i64 {
            ix.insert(&Datum::Int(i), i as RowId).unwrap();
        }
        for i in 0..1000i64 {
            assert!(ix.remove(&Datum::Int(i), i as RowId).unwrap());
        }
        assert_eq!(ix.key_count(), 0);
        for i in 0..1000i64 {
            ix.insert(&Datum::Int(i), (i + 5000) as RowId).unwrap();
        }
        assert_eq!(ix.key_count(), 1000);
        assert_eq!(eq_lookup(&ix, &Datum::Int(42)), vec![5042]);
    }
}
