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
    let mut cursor = Cursor { bytes, pos: 0 };
    let n = cursor.u16()? as usize;
    let bitmap_len = n.div_ceil(8);
    let bitmap_start = cursor.pos;
    cursor.skip(bitmap_len)?;
    let mut row = Vec::with_capacity(schema.arity());
    for i in 0..n.min(schema.arity()) {
        let present = bytes[bitmap_start + i / 8] & (1 << (i % 8)) != 0;
        if !present {
            row.push(Datum::Null);
            continue;
        }
        row.push(decode_value(&mut cursor, schema.columns[i].ty)?);
    }
    // Columns added after this tuple was written decode as NULL.
    while row.len() < schema.arity() {
        row.push(Datum::Null);
    }
    Ok(row)
}

/// Decode a row but materialize only the columns marked in `wanted`
/// (indexed by physical slot); others read as NULL. Unwanted values are
/// *skipped* without decoding — length prefixes make every value
/// skippable — which is what keeps scans cheap when a query touches two
/// columns of a twenty-column tuple (Postgres's lazy tuple deforming).
pub fn decode_tuple_partial(
    schema: &TableSchema,
    bytes: &[u8],
    wanted: &[bool],
) -> DbResult<Vec<Datum>> {
    let mut cursor = Cursor { bytes, pos: 0 };
    let n = cursor.u16()? as usize;
    let bitmap_len = n.div_ceil(8);
    let bitmap_start = cursor.pos;
    cursor.skip(bitmap_len)?;
    let mut row = Vec::with_capacity(schema.arity());
    for i in 0..n.min(schema.arity()) {
        let present = bytes[bitmap_start + i / 8] & (1 << (i % 8)) != 0;
        if !present {
            row.push(Datum::Null);
            continue;
        }
        if wanted.get(i).copied().unwrap_or(false) {
            row.push(decode_value(&mut cursor, schema.columns[i].ty)?);
        } else {
            skip_value(&mut cursor, schema.columns[i].ty)?;
            row.push(Datum::Null);
        }
    }
    while row.len() < schema.arity() {
        row.push(Datum::Null);
    }
    Ok(row)
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

/// Decode only the given column (by physical index); cheaper than a full
/// decode for projections. Returns NULL when the tuple predates the column.
pub fn decode_column(schema: &TableSchema, bytes: &[u8], col: usize) -> DbResult<Datum> {
    let mut cursor = Cursor { bytes, pos: 0 };
    let n = cursor.u16()? as usize;
    let bitmap_len = n.div_ceil(8);
    let bitmap_start = cursor.pos;
    cursor.skip(bitmap_len)?;
    if col >= n {
        return Ok(Datum::Null);
    }
    for i in 0..=col {
        let present = bytes[bitmap_start + i / 8] & (1 << (i % 8)) != 0;
        if !present {
            if i == col {
                return Ok(Datum::Null);
            }
            continue;
        }
        let d = decode_value(&mut cursor, schema.columns[i].ty)?;
        if i == col {
            return Ok(d);
        }
    }
    unreachable!()
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
            let raw = cursor.take(len)?;
            Datum::Text(
                std::str::from_utf8(raw)
                    .map_err(|_| DbError::Io("corrupt utf-8 in tuple".into()))?
                    .to_string(),
            )
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
            let raw = cursor.take(len)?;
            Datum::Text(
                std::str::from_utf8(raw)
                    .map_err(|_| DbError::Io("corrupt utf-8 in array".into()))?
                    .to_string(),
            )
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

    #[test]
    fn partial_decode_skips_unwanted() {
        let s = schema();
        let bytes = encode_tuple(&s, &row()).unwrap();
        // want only a (0) and d (3)
        let wanted = [true, false, false, true, false, false];
        let partial = decode_tuple_partial(&s, &bytes, &wanted).unwrap();
        assert_eq!(partial[0], Datum::Int(-5));
        assert_eq!(partial[1], Datum::Null, "unwanted text reads NULL");
        assert_eq!(partial[3], Datum::Float(2.5));
        assert_eq!(partial[5], Datum::Null, "unwanted array reads NULL");
        // wanting everything equals the full decode
        let all = [true; 6];
        assert_eq!(decode_tuple_partial(&s, &bytes, &all).unwrap(), row());
        // "Skipped" means never decoded: corrupt the text payload of `b`
        // in place (same length, invalid UTF-8) and the same partial
        // decode still succeeds — only asking for `b` trips over it.
        let mut bytes = bytes;
        let at = bytes.windows(6).position(|w| w == "héllo".as_bytes()).unwrap();
        bytes[at..at + 6].fill(0xff);
        assert!(decode_tuple(&s, &bytes).is_err());
        assert_eq!(decode_tuple_partial(&s, &bytes, &wanted).unwrap(), partial);
        assert!(decode_tuple_partial(&s, &bytes, &[false, true]).is_err());
    }

    #[test]
    fn decode_single_column() {
        let s = schema();
        let bytes = encode_tuple(&s, &row()).unwrap();
        assert_eq!(decode_column(&s, &bytes, 0).unwrap(), Datum::Int(-5));
        assert_eq!(decode_column(&s, &bytes, 2).unwrap(), Datum::Null);
        assert_eq!(decode_column(&s, &bytes, 3).unwrap(), Datum::Float(2.5));
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
        assert_eq!(decode_column(&s, &bytes, 1).unwrap(), Datum::Null);
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
