//! The one key table (DESIGN.md §40): hash aggregation's groups, DISTINCT's
//! seen rows and a hash join's build keys, looked up by reference.
//!
//! A key is a fixed number of values. [`KeyTable`] hashes and compares a
//! borrowed key exactly as the values' [`Datum::group_key`] would — `1`
//! equals `1.0`, `-0.0` equals `0.0`, values of other types never meet —
//! without building that owned key: a lookup clones nothing, and a key is
//! cloned once, when it is stored. A NULL is a key value like any other
//! here; the join's rule that a NULL key never joins is [`BuiltSide`]'s.
//!
//! [`BuiltSide`] is a hash join's drained build input and its key table,
//! and [`KeyFilter`] is the probe filter an inner join hands its probe
//! scan: the probe key in the scan's row scope, tested against the build
//! before the scan gathers, decodes or lends the rest of the row. The key
//! number it finds goes on with the row ([`EvalCtx`]'s `found_key`), so
//! the join looks a row that passes up once.

use crate::datum::{float_key, Datum};
use crate::error::DbResult;
use crate::exec::Row;
use crate::expr::{ColumnSource, EvalCtx, PhysExpr};
use std::hash::{BuildHasher, Hash, Hasher, RandomState};
use std::sync::Arc;

/// A value as [`Datum::group_key`] sees it, borrowed.
enum Norm<'d> {
    Null,
    Bool(bool),
    Int(i64),
    Float(u64),
    Text(&'d str),
    Bytes(&'d [u8]),
    Array(&'d [Datum]),
}

/// `d` normalized as [`Datum::group_key`] normalizes it ([`float_key`]).
fn norm(d: &Datum) -> Norm<'_> {
    match d {
        Datum::Null => Norm::Null,
        Datum::Bool(b) => Norm::Bool(*b),
        Datum::Int(i) => Norm::Int(*i),
        Datum::Float(f) => match float_key(*f) {
            Ok(i) => Norm::Int(i),
            Err(bits) => Norm::Float(bits),
        },
        Datum::Text(s) => Norm::Text(s),
        Datum::Bytea(b) => Norm::Bytes(b),
        Datum::Array(a) => Norm::Array(a),
    }
}

/// Whether `a` and `b` have equal [`Datum::group_key`]s.
fn key_eq(a: &Datum, b: &Datum) -> bool {
    match (norm(a), norm(b)) {
        (Norm::Null, Norm::Null) => true,
        (Norm::Bool(x), Norm::Bool(y)) => x == y,
        (Norm::Int(x), Norm::Int(y)) => x == y,
        (Norm::Float(x), Norm::Float(y)) => x == y,
        (Norm::Text(x), Norm::Text(y)) => x == y,
        (Norm::Bytes(x), Norm::Bytes(y)) => x == y,
        (Norm::Array(x), Norm::Array(y)) => {
            x.len() == y.len() && x.iter().zip(y).all(|(a, b)| key_eq(a, b))
        }
        _ => false,
    }
}

impl Hash for Norm<'_> {
    /// Values with equal group keys hash alike.
    fn hash<H: Hasher>(&self, h: &mut H) {
        match *self {
            Norm::Null => h.write_u8(0),
            Norm::Bool(b) => (1u8, b).hash(h),
            Norm::Int(i) => (2u8, i).hash(h),
            Norm::Float(bits) => (3u8, bits).hash(h),
            Norm::Text(s) => (4u8, s).hash(h),
            Norm::Bytes(b) => (5u8, b).hash(h),
            Norm::Array(a) => {
                (6u8, a.len()).hash(h);
                a.iter().for_each(|d| norm(d).hash(h));
            }
        }
    }
}

/// The values of one key, owned or borrowed.
pub(crate) trait Key {
    fn col(&self, i: usize) -> &Datum;
}

impl Key for [Datum] {
    fn col(&self, i: usize) -> &Datum {
        &self[i]
    }
}

impl Key for [&Datum] {
    fn col(&self, i: usize) -> &Datum {
        self[i]
    }
}

/// Keys of `width` values each, numbered `0..len()` in the order they were
/// first stored. Open addressing with linear probing over a power-of-two
/// bucket array at most half full; each key's hash is kept, so growing
/// rehashes nothing and a probe compares values only on a full-hash match.
/// The keys come from loaded documents, so the hash is keyed at random per
/// table, as `std`'s `HashMap` is: no one can choose keys that all collide.
#[derive(Clone, Debug)]
pub(crate) struct KeyTable {
    width: usize,
    state: RandomState,
    /// Key `i` is `keys[i * width..(i + 1) * width]`.
    keys: Vec<Datum>,
    hashes: Vec<u64>,
    /// A key's number plus one; 0 is an empty bucket.
    buckets: Vec<u32>,
}

impl KeyTable {
    /// An empty table of `width`-value keys; it allocates on its first key.
    pub(crate) fn new(width: usize) -> KeyTable {
        KeyTable {
            width,
            state: RandomState::new(),
            keys: Vec::new(),
            hashes: Vec::new(),
            buckets: Vec::new(),
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.hashes.len()
    }

    /// The values of key `i`.
    pub(crate) fn key(&self, i: usize) -> &[Datum] {
        &self.keys[i * self.width..(i + 1) * self.width]
    }

    fn hash<K: Key + ?Sized>(&self, key: &K) -> u64 {
        let mut h = self.state.build_hasher();
        (0..self.width).for_each(|i| norm(key.col(i)).hash(&mut h));
        h.finish()
    }

    /// The key's number, or the empty bucket where it would go.
    fn locate<K: Key + ?Sized>(&self, hash: u64, key: &K) -> Result<usize, usize> {
        let mask = self.buckets.len().wrapping_sub(1);
        let mut b = hash as usize & mask;
        loop {
            let Some(id) = self
                .buckets
                .get(b)
                .and_then(|&n| (n as usize).checked_sub(1))
            else {
                return Err(b);
            };
            if self.hashes[id] == hash
                && (0..self.width).all(|i| key_eq(&self.key(id)[i], key.col(i)))
            {
                return Ok(id);
            }
            b = (b + 1) & mask;
        }
    }

    /// The number of the stored key equal to `key`, if there is one.
    pub(crate) fn find<K: Key + ?Sized>(&self, key: &K) -> Option<usize> {
        self.locate(self.hash(key), key).ok()
    }

    /// The number of `key`, which is cloned into the table first if no
    /// equal key is stored; and whether it was.
    pub(crate) fn intern<K: Key + ?Sized>(&mut self, key: &K) -> (usize, bool) {
        let hash = self.hash(key);
        let mut bucket = match self.locate(hash, key) {
            Ok(id) => return (id, false),
            Err(b) => b,
        };
        let id = self.len();
        if 2 * (id + 1) > self.buckets.len() {
            self.grow();
            bucket = self.locate(hash, key).expect_err("a new key");
        }
        self.keys
            .extend((0..self.width).map(|i| key.col(i).clone()));
        self.hashes.push(hash);
        self.buckets[bucket] = id as u32 + 1;
        (id, true)
    }

    /// Double the buckets (16 at first) and place every key again.
    fn grow(&mut self) {
        let n = (self.buckets.len() * 2).max(16);
        let mask = n - 1;
        let mut buckets = vec![0u32; n];
        for (id, &hash) in self.hashes.iter().enumerate() {
            let mut b = hash as usize & mask;
            while buckets[b] != 0 {
                b = (b + 1) & mask;
            }
            buckets[b] = id as u32 + 1;
        }
        self.buckets = buckets;
    }

    /// The stored keys' values, key after key.
    pub(crate) fn into_keys(self) -> Vec<Datum> {
        self.keys
    }
}

/// A hash join's drained build (right) input and its key table: the rows
/// holding each key, in build-row order. A NULL key never joins, so it is
/// not in the table.
pub(crate) struct BuiltSide {
    pub(crate) rows: Vec<Row>,
    keys: KeyTable,
    /// Key `i`'s rows are `order[start[i]..start[i + 1]]`.
    start: Vec<usize>,
    order: Vec<usize>,
}

impl BuiltSide {
    /// Hash `rows` under `key`. A key is cloned once, when first seen.
    pub(crate) fn new(rows: Vec<Row>, key: &PhysExpr) -> DbResult<BuiltSide> {
        let mut keys = KeyTable::new(1);
        let mut ids = Vec::with_capacity(rows.len());
        for row in &rows {
            let k = key.lend(row)?;
            let k = k.value(None);
            ids.push((!k.is_null()).then(|| keys.intern(&[k][..]).0));
        }
        let mut start = vec![0; keys.len() + 1];
        for &id in ids.iter().flatten() {
            start[id + 1] += 1;
        }
        for i in 0..keys.len() {
            start[i + 1] += start[i];
        }
        let mut next = start.clone();
        let mut order = vec![0; start[keys.len()]];
        for (row, &id) in ids.iter().enumerate() {
            if let Some(id) = id {
                order[next[id]] = row;
                next[id] += 1;
            }
        }
        Ok(BuiltSide {
            rows,
            keys,
            start,
            order,
        })
    }

    /// The number of the key a probe key `k` joins, if any: none for NULL.
    pub(crate) fn find(&self, k: &Datum) -> Option<usize> {
        (!k.is_null()).then(|| self.keys.find(&[k][..])).flatten()
    }

    /// The indices of the build rows holding key number `id`, in
    /// build-row order.
    pub(crate) fn rows_of(&self, id: usize) -> &[usize] {
        &self.order[self.start[id]..self.start[id + 1]]
    }

    /// The indices of the build rows that join a probe key `k`, in
    /// build-row order: none for NULL.
    pub(crate) fn matches(&self, k: &Datum) -> &[usize] {
        self.find(k).map_or(&[], |id| self.rows_of(id))
    }
}

/// An inner hash join's probe filter (DESIGN.md §40): its probe key as
/// the probe scan's own rows read it, and the build it must find. The
/// scan tests it after its own filter and before it gathers, decodes the
/// rest of, or lends a row, so a probe row without a match costs its key.
pub(crate) struct KeyFilter {
    key: PhysExpr,
    built: Arc<BuiltSide>,
}

impl KeyFilter {
    /// The filter for a probe key bound over the probe scan's rows, or
    /// `None` when the key is not one the scan reads in place: its column
    /// references, literals and `COALESCE`s, nothing that calls, casts or
    /// computes.
    pub(crate) fn over_scan(key: &PhysExpr, built: Arc<BuiltSide>) -> Option<KeyFilter> {
        in_place(key).then(|| KeyFilter { key: key.clone(), built })
    }

    /// The scan-row columns the key reads.
    pub(crate) fn column_refs(&self, out: &mut Vec<usize>) {
        self.key.column_refs(out);
    }

    /// The number of the build key the row's key finds, if any, which the
    /// join then reads instead of looking the key up again. `ctx` is the
    /// row's: the key's memo slots are the ones the scan filter filled,
    /// and stay filled for what reads the row next.
    pub(crate) fn find<R: ColumnSource + ?Sized>(
        &self,
        row: &R,
        ctx: &mut EvalCtx,
    ) -> DbResult<Option<usize>> {
        let k = self.key.lend_over(row, ctx)?;
        Ok(self.built.find(k.value(Some(ctx))))
    }
}

/// Whether `e` evaluates by reference alone, without an error or a call.
fn in_place(e: &PhysExpr) -> bool {
    match e {
        PhysExpr::Column(_) | PhysExpr::Literal(_) => true,
        PhysExpr::Coalesce(args) => args.iter().all(in_place),
        PhysExpr::Memo { expr, .. } => in_place(expr),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table_of(keys: &[Datum]) -> KeyTable {
        let mut t = KeyTable::new(1);
        for k in keys {
            t.intern(&[k][..]);
        }
        t
    }

    /// Two values share a key exactly when their `group_key`s are equal.
    #[test]
    fn keys_meet_as_group_keys_do() {
        let vals = [
            Datum::Null,
            Datum::Bool(true),
            Datum::Int(1),
            Datum::Float(1.0),
            Datum::Float(1.5),
            Datum::Float(0.0),
            Datum::Float(-0.0),
            Datum::Int(0),
            Datum::Float(f64::NAN),
            Datum::Float(9_223_372_036_854_775_808.0),
            Datum::Int(i64::MAX),
            Datum::Int(9_007_199_254_740_993),
            Datum::Float(9_007_199_254_740_992.0),
            Datum::Text("1".into()),
            Datum::Text("a much longer text value".into()),
            Datum::Bytea(b"1".to_vec()),
            Datum::Array(vec![Datum::Int(1), Datum::Float(2.0)]),
            Datum::Array(vec![Datum::Float(1.0), Datum::Int(2)]),
            Datum::Array(vec![Datum::Int(1)]),
        ];
        for a in &vals {
            for b in &vals {
                let t = table_of(std::slice::from_ref(a));
                let same = a.group_key() == b.group_key();
                assert_eq!(key_eq(a, b), same, "{a:?} vs {b:?}");
                assert_eq!(t.find(&[b][..]).is_some(), same, "{a:?} vs {b:?}");
            }
        }
    }

    /// Keys are numbered in first-insertion order, stored once, and found
    /// again after the buckets grow.
    #[test]
    fn a_table_numbers_keys_in_insertion_order_and_grows() {
        let mut t = KeyTable::new(2);
        for round in 0..2 {
            for i in 0..1_000i64 {
                let key = [Datum::Int(i % 500), Datum::Text(format!("k{}", i / 500))];
                let (id, new) = t.intern(&key[..]);
                assert_eq!((id, new), (i as usize, round == 0));
            }
        }
        assert_eq!(t.len(), 1_000);
        assert_eq!(t.key(501), &[Datum::Int(1), Datum::Text("k1".into())]);
        assert_eq!(
            t.find(&[&Datum::Float(7.0), &Datum::Text("k0".into())][..]),
            Some(7)
        );
        assert_eq!(
            t.find(&[&Datum::Int(7), &Datum::Text("k2".into())][..]),
            None
        );
        let mut empty = KeyTable::new(0);
        assert_eq!(empty.find(&[][..] as &[Datum]), None);
        assert_eq!(empty.intern(&[][..] as &[Datum]), (0, true));
        assert_eq!(empty.intern(&[][..] as &[Datum]), (0, false));
    }

    /// How far the farthest key sits from the bucket its hash names.
    fn longest_probe(t: &KeyTable) -> usize {
        let mask = t.buckets.len() - 1;
        let ids = t.buckets.iter().enumerate().filter_map(|(b, &n)| Some((b, n.checked_sub(1)?)));
        ids.map(|(b, id)| b.wrapping_sub(t.hashes[id as usize] as usize) & mask).max().unwrap_or(0)
    }

    /// Keys built to collide under a fixed-seed word hash — each 8-byte
    /// word can steer its state anywhere, so a second word brings every
    /// first word to one state — spread out here: the table's hash is
    /// keyed per table, so its probe chains stay short.
    #[test]
    fn keys_that_collide_under_a_fixed_hash_do_not_collide_here() {
        const K: u64 = 0x517c_c1b7_2722_0a95;
        let step = |h: u64, w: u64| (h.rotate_left(5) ^ w).wrapping_mul(K);
        let fixed = |bytes: &[u8]| {
            let words = bytes.chunks(8).map(|w| u64::from_le_bytes(w.try_into().unwrap()));
            words.fold(0x243f_6a88_85a3_08d3, step)
        };
        let keys: Vec<Datum> = (0..4_000u64)
            .map(|i| {
                let second = step(0x243f_6a88_85a3_08d3, i).rotate_left(5) ^ 0xdead_beef;
                Datum::Bytea([i.to_le_bytes(), second.to_le_bytes()].concat())
            })
            .collect();
        let Datum::Bytea(first) = &keys[0] else { unreachable!() };
        assert!(keys.iter().all(|k| matches!(k, Datum::Bytea(b) if fixed(b) == fixed(first))));
        let t = table_of(&keys);
        assert_eq!(t.len(), keys.len());
        assert!(keys.iter().enumerate().all(|(i, k)| t.find(&[k][..]) == Some(i)));
        assert!(longest_probe(&t) < 64, "a probe chain of {}", longest_probe(&t));
        // Another table hashes the same keys differently.
        assert_ne!(t.hash(&[&keys[0]][..]), table_of(&keys[..1]).hash(&[&keys[0]][..]));
    }

    /// A build side lists each key's rows in build-row order and never
    /// joins a NULL.
    #[test]
    fn a_build_side_lists_rows_per_key_in_order() {
        let rows: Vec<Row> = [
            Datum::Int(2),
            Datum::Null,
            Datum::Float(2.0),
            Datum::Text("x".into()),
            Datum::Int(2),
            Datum::Null,
        ]
        .into_iter()
        .map(|d| vec![d])
        .collect();
        let built = BuiltSide::new(rows, &PhysExpr::Column(0)).unwrap();
        assert_eq!(built.matches(&Datum::Int(2)), &[0, 2, 4]);
        assert_eq!(built.matches(&Datum::Text("x".into())), &[3]);
        assert!(built.matches(&Datum::Null).is_empty());
        assert!(built.matches(&Datum::Int(3)).is_empty());
    }
}
