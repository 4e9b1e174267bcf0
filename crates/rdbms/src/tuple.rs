//! On-page tuple format.
//!
//! Mirrors the economics the paper discusses in §3.1.1 and §5: a tuple
//! header stores its attribute count and a null *bitmap* (one bit per
//! attribute, Postgres-style), so NULLs cost one bit instead of a full
//! column width — the property that makes Postgres "particularly well-suited
//! for the task of storing sparse data" and that this reproduction's
//! storage-size numbers (Table 3) depend on.
//!
//! Layout:
//!
//! ```text
//! [u16 nattrs][null bitmap: ceil(nattrs/8) bytes][values of non-null attrs]
//! ```
//!
//! Values are encoded by declared column type; `Array` values carry
//! per-element type tags because multi-structured arrays are heterogeneous.
//! Tuples written before an `ALTER TABLE ADD COLUMN` keep their original
//! `nattrs`; columns beyond it decode as NULL.

use crate::datum::{ColType, Datum};
use crate::error::{DbError, DbResult};
use crate::schema::TableSchema;

/// Encode a row. `row.len()` must equal `schema.arity()`.
pub fn encode_tuple(schema: &TableSchema, row: &[Datum]) -> DbResult<Vec<u8>> {
    if row.len() != schema.arity() {
        return Err(DbError::Schema(format!(
            "row arity {} does not match schema arity {}",
            row.len(),
            schema.arity()
        )));
    }
    let n = row.len();
    let bitmap_len = n.div_ceil(8);
    let mut buf = Vec::with_capacity(2 + bitmap_len + n * 8);
    buf.extend_from_slice(&(n as u16).to_le_bytes());
    let bitmap_start = buf.len();
    buf.resize(bitmap_start + bitmap_len, 0);
    for (i, (d, col)) in row.iter().zip(schema.columns.iter()).enumerate() {
        if d.is_null() || col.dropped {
            continue;
        }
        buf[bitmap_start + i / 8] |= 1 << (i % 8);
        encode_value(&mut buf, d, col.ty, &col.name)?;
    }
    Ok(buf)
}

fn encode_value(buf: &mut Vec<u8>, d: &Datum, ty: ColType, col_name: &str) -> DbResult<()> {
    match (ty, d) {
        (ColType::Bool, Datum::Bool(b)) => buf.push(*b as u8),
        (ColType::Int, Datum::Int(i)) => buf.extend_from_slice(&i.to_le_bytes()),
        (ColType::Float, Datum::Float(f)) => buf.extend_from_slice(&f.to_le_bytes()),
        // Ints widen implicitly when stored into float columns.
        (ColType::Float, Datum::Int(i)) => buf.extend_from_slice(&(*i as f64).to_le_bytes()),
        (ColType::Text, Datum::Text(s)) => {
            buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
            buf.extend_from_slice(s.as_bytes());
        }
        (ColType::Bytea, Datum::Bytea(b)) => {
            buf.extend_from_slice(&(b.len() as u32).to_le_bytes());
            buf.extend_from_slice(b);
        }
        (ColType::Array, Datum::Array(items)) => {
            let mut inner = Vec::new();
            for item in items {
                encode_tagged(&mut inner, item)?;
            }
            buf.extend_from_slice(&(inner.len() as u32).to_le_bytes());
            buf.extend_from_slice(&(items.len() as u32).to_le_bytes());
            buf.extend_from_slice(&inner);
        }
        (ty, d) => {
            return Err(DbError::Schema(format!(
                "cannot store {:?} value in {} column {col_name}",
                d.type_of(),
                ty.name()
            )))
        }
    }
    Ok(())
}

/// Tagged encoding for heterogeneous array elements (and nested arrays).
fn encode_tagged(buf: &mut Vec<u8>, d: &Datum) -> DbResult<()> {
    match d {
        Datum::Null => buf.push(0),
        Datum::Bool(b) => {
            buf.push(1);
            buf.push(*b as u8);
        }
        Datum::Int(i) => {
            buf.push(2);
            buf.extend_from_slice(&i.to_le_bytes());
        }
        Datum::Float(f) => {
            buf.push(3);
            buf.extend_from_slice(&f.to_le_bytes());
        }
        Datum::Text(s) => {
            buf.push(4);
            buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
            buf.extend_from_slice(s.as_bytes());
        }
        Datum::Bytea(b) => {
            buf.push(5);
            buf.extend_from_slice(&(b.len() as u32).to_le_bytes());
            buf.extend_from_slice(b);
        }
        Datum::Array(items) => {
            buf.push(6);
            buf.extend_from_slice(&(items.len() as u32).to_le_bytes());
            for item in items {
                encode_tagged(buf, item)?;
            }
        }
    }
    Ok(())
}

/// Decode a full row padded/truncated to the *current* schema arity.
pub fn decode_tuple(schema: &TableSchema, bytes: &[u8]) -> DbResult<Vec<Datum>> {
    let mut row = vec![Datum::Null; schema.arity()];
    let every: Vec<Option<usize>> = (0..schema.arity()).map(Some).collect();
    decode_into(schema, bytes, &every, &mut row)?;
    Ok(row)
}

/// Decode the slots `at` names straight into a caller's row: slot `i`
/// lands at `out[p]` for `at[i] == Some(p)`, as its value, or as NULL when
/// the tuple holds none there (a NULL, or a tuple written before the
/// column was added). Every other value is *skipped* without decoding —
/// length prefixes make every value skippable, which is what keeps a scan
/// cheap when a query touches two columns of a twenty-column tuple
/// (Postgres's lazy tuple deforming) — and every position `at` names no
/// slot for is left as it is. A `Text` or `Bytea` value refills the
/// buffer already at its position, so a row decoded tuple after tuple
/// allocates only when a value outgrows the one before (DESIGN.md §35).
pub fn decode_into(
    schema: &TableSchema,
    bytes: &[u8],
    at: &[Option<usize>],
    out: &mut [Datum],
) -> DbResult<()> {
    let mut cursor = Cursor { bytes, pos: 0 };
    let n = cursor.u16()? as usize;
    let bitmap_start = cursor.pos;
    cursor.skip(n.div_ceil(8))?;
    for (i, (&pos, col)) in at.iter().zip(&schema.columns).enumerate() {
        let present = i < n && bytes[bitmap_start + i / 8] & (1 << (i % 8)) != 0;
        match pos {
            Some(p) if present => decode_value_into(&mut cursor, col.ty, &mut out[p])?,
            Some(p) => out[p] = Datum::Null,
            None if present => skip_value(&mut cursor, col.ty)?,
            None => {}
        }
    }
    Ok(())
}

/// [`decode_value`] into `slot`, refilling the string or byte vector of a
/// `Text` or `Bytea` already there.
fn decode_value_into(cursor: &mut Cursor<'_>, ty: ColType, slot: &mut Datum) -> DbResult<()> {
    match (ty, &mut *slot) {
        (ColType::Text, Datum::Text(s)) => {
            let len = cursor.u32()? as usize;
            let text = utf8(cursor.take(len)?, "tuple")?;
            s.clear();
            s.push_str(text);
        }
        (ColType::Bytea, Datum::Bytea(b)) => {
            let len = cursor.u32()? as usize;
            b.clear();
            b.extend_from_slice(cursor.take(len)?);
        }
        _ => *slot = decode_value(cursor, ty)?,
    }
    Ok(())
}

fn utf8<'t>(raw: &'t [u8], within: &str) -> DbResult<&'t str> {
    std::str::from_utf8(raw).map_err(|_| DbError::Io(format!("corrupt utf-8 in {within}")))
}

fn skip_value(cursor: &mut Cursor<'_>, ty: ColType) -> DbResult<()> {
    match ty {
        ColType::Bool => cursor.skip(1),
        ColType::Int | ColType::Float => cursor.skip(8),
        ColType::Text | ColType::Bytea => {
            let len = cursor.u32()? as usize;
            cursor.skip(len)
        }
        ColType::Array => {
            let byte_len = cursor.u32()? as usize;
            cursor.skip(4 + byte_len) // element count + tagged payload
        }
    }
}

/// The stored bytes of the `Text` or `Bytea` value in slot `col`,
/// borrowed from the tuple, every value before it skipped undecoded;
/// `None` when it is NULL. `types` are the column types of slots
/// `0..=col`, the only ones read.
pub fn raw_column<'t>(
    types: &[ColType],
    bytes: &'t [u8],
    col: usize,
) -> DbResult<Option<&'t [u8]>> {
    let mut cursor = Cursor { bytes, pos: 0 };
    let n = cursor.u16()? as usize;
    let bitmap_start = cursor.pos;
    cursor.skip(n.div_ceil(8))?;
    if col >= n {
        return Ok(None);
    }
    for (i, &ty) in types.iter().enumerate().take(col + 1) {
        if bytes[bitmap_start + i / 8] & (1 << (i % 8)) == 0 {
            if i == col {
                return Ok(None);
            }
        } else if i == col {
            let len = cursor.u32()? as usize;
            return cursor.take(len).map(Some);
        } else {
            skip_value(&mut cursor, ty)?;
        }
    }
    Err(DbError::Io(format!("no type for column {col}")))
}

fn decode_value(cursor: &mut Cursor<'_>, ty: ColType) -> DbResult<Datum> {
    Ok(match ty {
        ColType::Bool => Datum::Bool(cursor.u8()? != 0),
        ColType::Int => Datum::Int(i64::from_le_bytes(cursor.array()?)),
        ColType::Float => Datum::Float(f64::from_le_bytes(cursor.array()?)),
        ColType::Text => {
            let len = cursor.u32()? as usize;
            Datum::Text(utf8(cursor.take(len)?, "tuple")?.to_string())
        }
        ColType::Bytea => {
            let len = cursor.u32()? as usize;
            Datum::Bytea(cursor.take(len)?.to_vec())
        }
        ColType::Array => {
            let _byte_len = cursor.u32()? as usize;
            let count = cursor.u32()? as usize;
            let mut items = Vec::with_capacity(count);
            for _ in 0..count {
                items.push(decode_tagged(cursor)?);
            }
            Datum::Array(items)
        }
    })
}

fn decode_tagged(cursor: &mut Cursor<'_>) -> DbResult<Datum> {
    Ok(match cursor.u8()? {
        0 => Datum::Null,
        1 => Datum::Bool(cursor.u8()? != 0),
        2 => Datum::Int(i64::from_le_bytes(cursor.array()?)),
        3 => Datum::Float(f64::from_le_bytes(cursor.array()?)),
        4 => {
            let len = cursor.u32()? as usize;
            Datum::Text(utf8(cursor.take(len)?, "array")?.to_string())
        }
        5 => {
            let len = cursor.u32()? as usize;
            Datum::Bytea(cursor.take(len)?.to_vec())
        }
        6 => {
            let count = cursor.u32()? as usize;
            let mut items = Vec::with_capacity(count);
            for _ in 0..count {
                items.push(decode_tagged(cursor)?);
            }
            Datum::Array(items)
        }
        t => return Err(DbError::Io(format!("corrupt array tag {t}"))),
    })
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> DbResult<&'a [u8]> {
        if self.pos + n > self.bytes.len() {
            return Err(DbError::Io("truncated tuple".into()));
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn skip(&mut self, n: usize) -> DbResult<()> {
        self.take(n).map(|_| ())
    }

    fn u8(&mut self) -> DbResult<u8> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> DbResult<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> DbResult<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn array<const N: usize>(&mut self) -> DbResult<[u8; N]> {
        Ok(self.take(N)?.try_into().unwrap())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> TableSchema {
        TableSchema::new(vec![
            ("a".into(), ColType::Int),
            ("b".into(), ColType::Text),
            ("c".into(), ColType::Bool),
            ("d".into(), ColType::Float),
            ("e".into(), ColType::Bytea),
            ("f".into(), ColType::Array),
        ])
    }

    fn row() -> Vec<Datum> {
        vec![
            Datum::Int(-5),
            Datum::Text("héllo".into()),
            Datum::Null,
            Datum::Float(2.5),
            Datum::Bytea(vec![0, 1, 255]),
            Datum::Array(vec![
                Datum::Int(1),
                Datum::Null,
                Datum::Text("x".into()),
                Datum::Array(vec![Datum::Bool(true)]),
            ]),
        ]
    }

    #[test]
    fn roundtrip_full() {
        let s = schema();
        let bytes = encode_tuple(&s, &row()).unwrap();
        assert_eq!(decode_tuple(&s, &bytes).unwrap(), row());
    }

    /// Slot `i` at position `i` for each `i` in `slots`.
    fn at(slots: &[usize]) -> Vec<Option<usize>> {
        let mut at = vec![None; slots.iter().max().map_or(0, |m| m + 1)];
        for &i in slots {
            at[i] = Some(i);
        }
        at
    }

    #[test]
    fn partial_decode_skips_unwanted() {
        let s = schema();
        let bytes = encode_tuple(&s, &row()).unwrap();
        // want only a (0) and d (3)
        let wanted = at(&[0, 3]);
        let mut partial = vec![Datum::Null; 6];
        decode_into(&s, &bytes, &wanted, &mut partial).unwrap();
        assert_eq!(partial[0], Datum::Int(-5));
        assert_eq!(partial[1], Datum::Null, "unwanted text is not written");
        assert_eq!(partial[3], Datum::Float(2.5));
        assert_eq!(partial[5], Datum::Null, "unwanted array is not written");
        // wanting everything equals the full decode
        let mut all = vec![Datum::Null; 6];
        decode_into(&s, &bytes, &at(&[0, 1, 2, 3, 4, 5]), &mut all).unwrap();
        assert_eq!(all, row());
        // "Skipped" means never decoded: corrupt the text payload of `b`
        // in place (same length, invalid UTF-8) and the same partial
        // decode still succeeds — only asking for `b` trips over it.
        let mut bytes = bytes;
        let at_b = bytes.windows(6).position(|w| w == "héllo".as_bytes()).unwrap();
        bytes[at_b..at_b + 6].fill(0xff);
        assert!(decode_tuple(&s, &bytes).is_err());
        let mut again = vec![Datum::Null; 6];
        decode_into(&s, &bytes, &wanted, &mut again).unwrap();
        assert_eq!(again, partial);
        assert!(decode_into(&s, &bytes, &at(&[1]), &mut again).is_err());
    }

    /// One buffer decoded tuple after tuple keeps no value of the tuple
    /// before: a slot NULL in the next tuple reads NULL.
    #[test]
    fn reused_row_reads_null_where_the_next_tuple_has_none() {
        let s = schema();
        let mut next = row();
        next[0] = Datum::Null;
        next[1] = Datum::Null;
        next[4] = Datum::Null;
        let mut buf = vec![Datum::Null; 6];
        let every = at(&[0, 1, 2, 3, 4, 5]);
        decode_into(&s, &encode_tuple(&s, &row()).unwrap(), &every, &mut buf).unwrap();
        decode_into(&s, &encode_tuple(&s, &next).unwrap(), &every, &mut buf).unwrap();
        assert_eq!(buf, next);
    }

    /// A tuple written before `ADD COLUMN` reads NULL in the new column,
    /// even where the buffer held the previous tuple's value.
    #[test]
    fn reused_row_reads_null_past_a_short_tuple() {
        let mut s = TableSchema::new(vec![("a".into(), ColType::Int)]);
        let short = encode_tuple(&s, &[Datum::Int(1)]).unwrap();
        s.add_column("b", ColType::Bytea).unwrap();
        let long = encode_tuple(&s, &[Datum::Int(2), Datum::Bytea(vec![7; 9])]).unwrap();
        let mut buf = vec![Datum::Null; 2];
        decode_into(&s, &long, &at(&[0, 1]), &mut buf).unwrap();
        assert_eq!(buf, vec![Datum::Int(2), Datum::Bytea(vec![7; 9])]);
        decode_into(&s, &short, &at(&[0, 1]), &mut buf).unwrap();
        assert_eq!(buf, vec![Datum::Int(1), Datum::Null]);
    }

    /// Live-order positions skip a dropped slot: the columns after it land
    /// one position left, and the dropped value is never decoded.
    #[test]
    fn reused_row_skips_a_dropped_column() {
        let mut s = schema();
        let bytes = encode_tuple(&s, &row()).unwrap();
        s.drop_column("b").unwrap();
        // Live slots 0, 2, 3, 4, 5 at positions 0..5.
        let live_at = vec![Some(0), None, Some(1), Some(2), Some(3), Some(4)];
        let mut buf = vec![Datum::Text("stale".into()); 5];
        decode_into(&s, &bytes, &live_at, &mut buf).unwrap();
        let mut want = row();
        want.remove(1);
        assert_eq!(buf, want);
    }

    /// A `Bytea` or `Text` refilled with a shorter value holds exactly the
    /// new one, in the buffer it already had.
    #[test]
    fn reused_row_refills_a_buffer_shorter() {
        let s = TableSchema::new(vec![("t".into(), ColType::Text), ("e".into(), ColType::Bytea)]);
        let long = [Datum::Text("a longer text".into()), Datum::Bytea(vec![9; 64])];
        let short = [Datum::Text("ab".into()), Datum::Bytea(vec![1, 2])];
        let mut buf = vec![Datum::Null; 2];
        decode_into(&s, &encode_tuple(&s, &long).unwrap(), &at(&[0, 1]), &mut buf).unwrap();
        let Datum::Bytea(b) = &buf[1] else { panic!("bytea") };
        let held = b.as_ptr();
        decode_into(&s, &encode_tuple(&s, &short).unwrap(), &at(&[0, 1]), &mut buf).unwrap();
        assert_eq!(buf, short);
        let Datum::Bytea(b) = &buf[1] else { panic!("bytea") };
        assert_eq!(b.as_ptr(), held, "refilled in place");
    }

    #[test]
    fn decode_single_column() {
        let s = schema();
        let bytes = encode_tuple(&s, &row()).unwrap();
        let one = |slot: usize| {
            let mut at = vec![None; slot + 1];
            at[slot] = Some(0);
            let mut out = [Datum::Text("stale".into())];
            decode_into(&s, &bytes, &at, &mut out).unwrap();
            out[0].clone()
        };
        assert_eq!(one(0), Datum::Int(-5));
        assert_eq!(one(2), Datum::Null);
        assert_eq!(one(3), Datum::Float(2.5));
    }

    #[test]
    fn nulls_cost_one_bit() {
        let s = TableSchema::new(
            (0..64).map(|i| (format!("c{i}"), ColType::Text)).collect(),
        );
        let all_null: Vec<Datum> = (0..64).map(|_| Datum::Null).collect();
        let bytes = encode_tuple(&s, &all_null).unwrap();
        // 2-byte header + 8-byte bitmap, no value bytes.
        assert_eq!(bytes.len(), 10);
    }

    #[test]
    fn schema_evolution_reads_null() {
        let mut s = TableSchema::new(vec![("a".into(), ColType::Int)]);
        let bytes = encode_tuple(&s, &[Datum::Int(7)]).unwrap();
        s.add_column("b", ColType::Text).unwrap();
        let decoded = decode_tuple(&s, &bytes).unwrap();
        assert_eq!(decoded, vec![Datum::Int(7), Datum::Null]);
    }

    #[test]
    fn int_widens_into_float_column() {
        let s = TableSchema::new(vec![("f".into(), ColType::Float)]);
        let bytes = encode_tuple(&s, &[Datum::Int(3)]).unwrap();
        assert_eq!(decode_tuple(&s, &bytes).unwrap(), vec![Datum::Float(3.0)]);
    }

    #[test]
    fn type_mismatch_rejected() {
        let s = TableSchema::new(vec![("a".into(), ColType::Int)]);
        assert!(encode_tuple(&s, &[Datum::Text("x".into())]).is_err());
        assert!(encode_tuple(&s, &[]).is_err());
    }

    #[test]
    fn dropped_column_stored_as_null() {
        let mut s = schema();
        s.drop_column("b").unwrap();
        let mut r = row();
        r[1] = Datum::Text("ignored".into());
        let bytes = encode_tuple(&s, &r).unwrap();
        let decoded = decode_tuple(&s, &bytes).unwrap();
        assert_eq!(decoded[1], Datum::Null);
        assert_eq!(decoded[0], Datum::Int(-5));
    }
}
