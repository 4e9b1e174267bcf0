//! Attribute types and the value encodings used inside the column
//! reservoir.
//!
//! An *attribute* is a (key name, type) pair (paper §3.2.1: "the resulting
//! key and type (the combination of which we call an attribute)"). The same
//! key appearing with two JSON types registers two attributes — that is how
//! Sinew "elegantly handles situations where the same key corresponds to
//! values of multiple types".

use sinew_json::Value;
use sinew_rdbms::{ColType, Datum};
use sinew_serial::{SType, SValue};

/// The type of one attribute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttrType {
    Bool,
    Int,
    Float,
    Text,
    /// Nested object, stored as a nested Sinew-serialized document.
    Object,
    /// Array, stored tag-encoded (the "RDBMS array datatype" default of
    /// §4.2 applies when the attribute is materialized).
    Array,
}

impl AttrType {
    /// Catalog text form (Figure 4's `key_type` column).
    pub fn name(&self) -> &'static str {
        match self {
            AttrType::Bool => "boolean",
            AttrType::Int => "integer",
            AttrType::Float => "real",
            AttrType::Text => "text",
            AttrType::Object => "object",
            AttrType::Array => "array",
        }
    }

    pub fn parse(s: &str) -> Option<AttrType> {
        Some(match s {
            "boolean" => AttrType::Bool,
            "integer" => AttrType::Int,
            "real" => AttrType::Float,
            "text" => AttrType::Text,
            "object" => AttrType::Object,
            "array" => AttrType::Array,
            _ => return None,
        })
    }

    /// Wire type inside the reservoir.
    pub fn stype(&self) -> SType {
        match self {
            AttrType::Bool => SType::Bool,
            AttrType::Int => SType::Int,
            AttrType::Float => SType::Float,
            AttrType::Text => SType::Text,
            AttrType::Object | AttrType::Array => SType::Bytes,
        }
    }

    /// Column type when materialized as a physical column.
    pub fn coltype(&self) -> ColType {
        match self {
            AttrType::Bool => ColType::Bool,
            AttrType::Int => ColType::Int,
            AttrType::Float => ColType::Float,
            AttrType::Text => ColType::Text,
            AttrType::Object => ColType::Bytea,
            AttrType::Array => ColType::Array,
        }
    }

    /// JSON value → attribute type (`None` for JSON null: the paper's
    /// loader treats a null value as key absence for typing purposes).
    pub fn of_value(v: &Value) -> Option<AttrType> {
        Some(match v {
            Value::Null => return None,
            Value::Bool(_) => AttrType::Bool,
            Value::Int(_) => AttrType::Int,
            Value::Float(_) => AttrType::Float,
            Value::Str(_) => AttrType::Text,
            Value::Object(_) => AttrType::Object,
            Value::Array(_) => AttrType::Array,
        })
    }
}

// ---- array encoding (tagged, recursive) ----
// Arrays are heterogeneous, so elements carry type tags. Objects inside
// arrays are Sinew-serialized docs tagged 5; their keys use the *global*
// dictionary with names rooted at the array's parent path.

/// Encode array elements. Object elements are pre-serialized by the loader
/// (passed as SValue::Bytes with tag marker via `ArrayElem::Doc`).
#[derive(Debug, Clone, PartialEq)]
pub enum ArrayElem {
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    Text(String),
    /// Nested serialized document.
    Doc(Vec<u8>),
    Array(Vec<ArrayElem>),
}

pub fn encode_array(items: &[ArrayElem]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&(items.len() as u32).to_le_bytes());
    for item in items {
        encode_elem(&mut out, item);
    }
    out
}

fn encode_elem(out: &mut Vec<u8>, e: &ArrayElem) {
    match e {
        ArrayElem::Null => out.push(0),
        ArrayElem::Bool(b) => {
            out.push(1);
            out.push(*b as u8);
        }
        ArrayElem::Int(i) => {
            out.push(2);
            out.extend_from_slice(&i.to_le_bytes());
        }
        ArrayElem::Float(f) => {
            out.push(3);
            out.extend_from_slice(&f.to_le_bytes());
        }
        ArrayElem::Text(s) => {
            out.push(4);
            out.extend_from_slice(&(s.len() as u32).to_le_bytes());
            out.extend_from_slice(s.as_bytes());
        }
        ArrayElem::Doc(b) => {
            out.push(5);
            out.extend_from_slice(&(b.len() as u32).to_le_bytes());
            out.extend_from_slice(b);
        }
        ArrayElem::Array(items) => {
            out.push(6);
            let inner = encode_array(items);
            out.extend_from_slice(&(inner.len() as u32).to_le_bytes());
            out.extend_from_slice(&inner);
        }
    }
}

/// One element of an encoded array, borrowed from the encoding. A nested
/// array is its own encoding, not yet read.
enum ElemRef<'a> {
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    Text(&'a str),
    Doc(&'a [u8]),
    Array(&'a [u8]),
}

/// Read an encoded array's elements in order, handing each to `f`. `None`
/// on a truncated element, an unknown tag or text that is not UTF-8, or
/// when `f` returns `None` — which is how a reader that reads a nested
/// array reports it corrupt (every reader below reads them, so all three
/// fail on the same bytes). Bytes after the last element are not read.
fn for_each_elem<'a>(bytes: &'a [u8], mut f: impl FnMut(ElemRef<'a>) -> Option<()>) -> Option<()> {
    let mut pos = 0usize;
    let n = read_u32(bytes, &mut pos)?;
    for _ in 0..n {
        let tag = *bytes.get(pos)?;
        pos += 1;
        let mut take = |len: usize| -> Option<&'a [u8]> {
            let raw = bytes.get(pos..pos.checked_add(len)?)?;
            pos += len;
            Some(raw)
        };
        f(match tag {
            0 => ElemRef::Null,
            1 => ElemRef::Bool(take(1)?[0] != 0),
            2 => ElemRef::Int(i64::from_le_bytes(take(8)?.try_into().ok()?)),
            3 => ElemRef::Float(f64::from_le_bytes(take(8)?.try_into().ok()?)),
            4..=6 => {
                let len = u32::from_le_bytes(take(4)?.try_into().ok()?) as usize;
                let raw = take(len)?;
                match tag {
                    4 => ElemRef::Text(std::str::from_utf8(raw).ok()?),
                    5 => ElemRef::Doc(raw),
                    _ => ElemRef::Array(raw),
                }
            }
            _ => return None,
        })?;
    }
    Some(())
}

/// The count a well-formed encoding could hold: every element takes at
/// least one byte, so a corrupt count cannot reserve more than that.
fn capacity(bytes: &[u8]) -> usize {
    read_u32(bytes, &mut 0).map_or(0, |n| (n as usize).min(bytes.len()))
}

pub fn decode_array(bytes: &[u8]) -> Option<Vec<ArrayElem>> {
    let mut items = Vec::with_capacity(capacity(bytes));
    for_each_elem(bytes, |e| {
        items.push(match e {
            ElemRef::Null => ArrayElem::Null,
            ElemRef::Bool(b) => ArrayElem::Bool(b),
            ElemRef::Int(i) => ArrayElem::Int(i),
            ElemRef::Float(f) => ArrayElem::Float(f),
            ElemRef::Text(s) => ArrayElem::Text(s.to_string()),
            ElemRef::Doc(b) => ArrayElem::Doc(b.to_vec()),
            ElemRef::Array(raw) => ArrayElem::Array(decode_array(raw)?),
        });
        Some(())
    })?;
    Some(items)
}

fn read_u32(bytes: &[u8], pos: &mut usize) -> Option<u32> {
    let raw = bytes.get(*pos..*pos + 4)?;
    *pos += 4;
    Some(u32::from_le_bytes(raw.try_into().ok()?))
}

/// Array bytes → the RDBMS array datum (scalars only; nested docs surface
/// as bytea elements), decoded straight into `Datum`s: one allocation per
/// text or document element.
pub fn array_to_datum(bytes: &[u8]) -> Option<Datum> {
    let mut items = Vec::with_capacity(capacity(bytes));
    for_each_elem(bytes, |e| {
        items.push(match e {
            ElemRef::Null => Datum::Null,
            ElemRef::Bool(b) => Datum::Bool(b),
            ElemRef::Int(i) => Datum::Int(i),
            ElemRef::Float(f) => Datum::Float(f),
            ElemRef::Text(s) => Datum::Text(s.to_string()),
            ElemRef::Doc(b) => Datum::Bytea(b.to_vec()),
            ElemRef::Array(raw) => array_to_datum(raw)?,
        });
        Some(())
    })?;
    Some(Datum::Array(items))
}

/// `array_contains` over the encoded array, without decoding it: whether
/// an element is [`Datum::sql_eq`] to `needle`, as over
/// [`array_to_datum`]'s result, and `None` where that returns `None` — the
/// whole array is read, nested arrays included, before answering.
pub(crate) fn array_contains(bytes: &[u8], needle: &Datum) -> Option<bool> {
    let mut found = false;
    for_each_elem(bytes, |e| {
        found |= match e {
            ElemRef::Null => false,
            ElemRef::Bool(b) => Datum::Bool(b).sql_eq(needle) == Some(true),
            ElemRef::Int(i) => Datum::Int(i).sql_eq(needle) == Some(true),
            ElemRef::Float(f) => Datum::Float(f).sql_eq(needle) == Some(true),
            ElemRef::Text(s) => matches!(needle, Datum::Text(n) if n == s),
            ElemRef::Doc(b) => matches!(needle, Datum::Bytea(n) if n == b),
            ElemRef::Array(raw) => match needle {
                Datum::Array(_) => array_to_datum(raw)?.sql_eq(needle) == Some(true),
                // equal to nothing else, but it has to be well formed
                _ => array_contains(raw, needle).map(|_| false)?,
            },
        };
        Some(())
    })?;
    Some(found)
}

/// Datum (from a materialized array column) → reservoir array bytes.
pub fn datum_to_array_bytes(d: &Datum) -> Option<Vec<u8>> {
    fn conv(d: &Datum) -> ArrayElem {
        match d {
            Datum::Null => ArrayElem::Null,
            Datum::Bool(b) => ArrayElem::Bool(*b),
            Datum::Int(i) => ArrayElem::Int(*i),
            Datum::Float(f) => ArrayElem::Float(*f),
            Datum::Text(s) => ArrayElem::Text(s.clone()),
            Datum::Bytea(b) => ArrayElem::Doc(b.clone()),
            Datum::Array(items) => ArrayElem::Array(items.iter().map(conv).collect()),
        }
    }
    match d {
        Datum::Array(items) => Some(encode_array(&items.iter().map(conv).collect::<Vec<_>>())),
        _ => None,
    }
}

/// SValue (reservoir) → Datum, by attribute type.
pub fn svalue_to_datum(v: &SValue, ty: AttrType) -> Datum {
    match (v, ty) {
        (SValue::Bool(b), _) => Datum::Bool(*b),
        (SValue::Int(i), _) => Datum::Int(*i),
        (SValue::Float(f), _) => Datum::Float(*f),
        (SValue::Text(s), _) => Datum::Text(s.clone()),
        (SValue::Bytes(b), AttrType::Array) => {
            array_to_datum(b).unwrap_or_else(|| Datum::Bytea(b.clone()))
        }
        (SValue::Bytes(b), _) => Datum::Bytea(b.clone()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_of_json_values() {
        assert_eq!(AttrType::of_value(&Value::Int(1)), Some(AttrType::Int));
        assert_eq!(AttrType::of_value(&Value::Float(1.5)), Some(AttrType::Float));
        assert_eq!(AttrType::of_value(&Value::Str("x".into())), Some(AttrType::Text));
        assert_eq!(AttrType::of_value(&Value::Null), None);
        assert_eq!(
            AttrType::of_value(&Value::Object(vec![])),
            Some(AttrType::Object)
        );
    }

    #[test]
    fn name_roundtrip() {
        for t in [
            AttrType::Bool,
            AttrType::Int,
            AttrType::Float,
            AttrType::Text,
            AttrType::Object,
            AttrType::Array,
        ] {
            assert_eq!(AttrType::parse(t.name()), Some(t));
        }
    }

    #[test]
    fn array_roundtrip() {
        let items = vec![
            ArrayElem::Int(5),
            ArrayElem::Null,
            ArrayElem::Text("hi".into()),
            ArrayElem::Bool(true),
            ArrayElem::Float(2.5),
            ArrayElem::Array(vec![ArrayElem::Int(1)]),
            ArrayElem::Doc(vec![9, 9]),
        ];
        let bytes = encode_array(&items);
        assert_eq!(decode_array(&bytes), Some(items));
    }

    #[test]
    fn array_datum_roundtrip() {
        let items = vec![ArrayElem::Int(1), ArrayElem::Text("a".into())];
        let bytes = encode_array(&items);
        let datum = array_to_datum(&bytes).unwrap();
        assert_eq!(
            datum,
            Datum::Array(vec![Datum::Int(1), Datum::Text("a".into())])
        );
        assert_eq!(datum_to_array_bytes(&datum), Some(bytes));
    }

    #[test]
    fn corrupt_array_is_none() {
        assert_eq!(decode_array(&[1, 2]), None);
        assert_eq!(decode_array(&[]), None);
    }
}
