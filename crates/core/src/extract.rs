//! Reservoir extraction and editing — the bodies of Sinew's UDFs
//! (paper §3.2.2, §4.1, §5).
//!
//! Typed extraction never throws on a type mismatch: "rather than throwing
//! an exception for type mismatches ... it will instead selectively extract
//! the integer values and return NULL for strings, booleans, or values of
//! other types." Untyped contexts downcast to text. Dotted paths descend
//! through nested documents; each hop is a binary search (O(log n)).

use crate::catalog::{AttrId, Catalog, ColumnState};
use crate::types::{array_to_datum, datum_to_array_bytes, decode_array, ArrayElem, AttrType};
use sinew_json::Value;
use sinew_rdbms::{Database, Datum, DbError, DbResult};
use sinew_serial::sinew as sformat;

/// What an extraction context wants back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Want {
    Bool,
    Int,
    Float,
    /// Int or Float, whichever the document carries (aggregation contexts).
    Num,
    /// Text-typed values only.
    Text,
    /// Any type, downcast to its text form (the paper's projection default).
    AnyText,
    Object,
    Array,
}

/// Extract a (possibly dotted) key from a serialized document, resolving
/// the path through the catalog on this call. Returns `Datum::Null` for
/// absent keys and type mismatches. The unplanned reference that
/// [`crate::plan::ExtractionPlan`] is tested against; queries always run a
/// plan resolved at bind.
#[cfg(test)]
pub fn extract_path(cat: &Catalog, bytes: &[u8], path: &str, want: Want) -> Datum {
    match try_extract(cat, bytes, path, want) {
        Ok(d) => d,
        Err(_) => Datum::Null, // corrupt docs surface as NULL, not query aborts
    }
}

/// Walk `bytes` down to the document level holding `path`'s leaf,
/// *direct-first*: if any typed variant of the full path is present at the
/// current level, that level is the holder. This makes extraction work both
/// from the reservoir root (classic descent) **and** from a materialized
/// parent object's column, whose nested document carries full-dotted
/// attribute ids directly (literal-dot JSON keys land the same way).
/// Returns `None` when the path cannot resolve.
///
/// The direct-hit probe is hoisted onto a single header-validated
/// [`sformat::RawDoc`] view per level — one header parse however many
/// typed leaf variants exist — and skipped entirely at the leaf-parent
/// level, where the caller's typed pick probes the same ids anyway. For
/// the common single-segment path this makes `descend` probe-free.
fn descend<'a>(cat: &Catalog, bytes: &'a [u8], path: &str) -> DbResult<Option<&'a [u8]>> {
    let leaf_ids = cat.ids_for_name(path);
    let segs: Vec<&str> = path.split('.').collect();
    let mut cur: &'a [u8] = bytes;
    let mut prefix = String::with_capacity(path.len());
    for (k, seg) in segs.iter().enumerate() {
        if k == segs.len() - 1 {
            // leaf-parent level reached (possibly with the key absent)
            return Ok(Some(cur));
        }
        let doc = sformat::RawDoc::parse(cur).map_err(decode_err)?;
        if leaf_ids.iter().any(|(id, _)| doc.contains(*id)) {
            return Ok(Some(cur));
        }
        if !prefix.is_empty() {
            prefix.push('.');
        }
        prefix.push_str(seg);
        let Some(id) = cat.lookup(&prefix, AttrType::Object) else {
            return Ok(None);
        };
        match doc.get(id).map_err(decode_err)? {
            Some(raw) => cur = raw,
            None => return Ok(None),
        }
    }
    Ok(Some(cur))
}

#[cfg(test)]
fn try_extract(cat: &Catalog, bytes: &[u8], path: &str, want: Want) -> DbResult<Datum> {
    let candidates = cat.ids_for_name(path);
    if candidates.is_empty() {
        return Ok(Datum::Null);
    }
    let Some(cur) = descend(cat, bytes, path)? else {
        return Ok(Datum::Null);
    };
    let pick = |want_ty: AttrType| -> DbResult<Option<Datum>> {
        for (id, ty) in &candidates {
            if *ty == want_ty {
                if let Some(raw) = sformat::extract_raw(cur, *id).map_err(decode_err)? {
                    return Ok(Some(raw_to_datum(cat, raw, *ty, path)?));
                }
            }
        }
        Ok(None)
    };
    Ok(match want {
        Want::Bool => pick(AttrType::Bool)?.unwrap_or(Datum::Null),
        Want::Int => pick(AttrType::Int)?.unwrap_or(Datum::Null),
        Want::Float => pick(AttrType::Float)?.unwrap_or(Datum::Null),
        Want::Num => pick(AttrType::Int)?
            .or(pick(AttrType::Float)?)
            .unwrap_or(Datum::Null),
        Want::Text => pick(AttrType::Text)?.unwrap_or(Datum::Null),
        Want::Object => pick(AttrType::Object)?.unwrap_or(Datum::Null),
        Want::Array => pick(AttrType::Array)?.unwrap_or(Datum::Null),
        Want::AnyText => {
            for (id, ty) in &candidates {
                if let Some(raw) = sformat::extract_raw(cur, *id).map_err(decode_err)? {
                    let d = raw_to_datum(cat, raw, *ty, path)?;
                    return Ok(Datum::Text(datum_to_text(cat, &d, *ty, path)));
                }
            }
            Datum::Null
        }
    })
}

/// Does the key exist (under any type)? The unplanned reference of
/// [`crate::plan::ExtractionPlan::exists`].
#[cfg(test)]
pub fn exists_path(cat: &Catalog, bytes: &[u8], path: &str) -> bool {
    !matches!(try_exists(cat, bytes, path), Ok(false) | Err(_))
}

#[cfg(test)]
fn try_exists(cat: &Catalog, bytes: &[u8], path: &str) -> DbResult<bool> {
    let Some(cur) = descend(cat, bytes, path)? else { return Ok(false) };
    for (id, _) in cat.ids_for_name(path) {
        if sformat::contains(cur, id).map_err(decode_err)? {
            return Ok(true);
        }
    }
    Ok(false)
}

/// Where a dotted attribute's enclosing document currently lives.
#[derive(Debug, Clone, PartialEq)]
pub struct AttrSource {
    /// Physical column of the nearest materialized ancestor object, or
    /// `None` when the reservoir (`data`) holds the path from its root.
    pub parent_column: Option<String>,
    /// Dotted name of that ancestor.
    pub parent_path: Option<String>,
    /// The ancestor is only partially materialized: readers must fall back
    /// to the reservoir when the column is NULL.
    pub parent_dirty: bool,
    /// Leading path segments already consumed inside the parent's document
    /// (for reservoir *edits*, which cannot rely on direct-first probing).
    pub skip: usize,
}

/// Resolve the nearest materialized ancestor object of `path`, looking key
/// names up through `states_for_name` (the catalog, or a statement's view
/// of it).
pub fn attr_source<S: AsRef<[(AttrId, AttrType, ColumnState)]>>(
    states_for_name: impl Fn(&str) -> S,
    path: &str,
) -> AttrSource {
    let segs: Vec<&str> = path.split('.').collect();
    for k in (1..segs.len()).rev() {
        let prefix = segs[..k].join(".");
        for (_, ty, st) in states_for_name(&prefix).as_ref() {
            if *ty == AttrType::Object && st.materialized {
                return AttrSource {
                    parent_column: Some(st.column_name.clone()),
                    parent_path: Some(prefix),
                    parent_dirty: st.dirty,
                    skip: k,
                };
            }
        }
    }
    AttrSource { parent_column: None, parent_path: None, parent_dirty: false, skip: 0 }
}

pub(crate) fn raw_to_datum(cat: &Catalog, raw: &[u8], ty: AttrType, path: &str) -> DbResult<Datum> {
    Ok(match ty {
        AttrType::Bool | AttrType::Int | AttrType::Float | AttrType::Text => {
            match sformat::decode_value(raw, ty.stype()).map_err(decode_err)? {
                sinew_serial::SValue::Bool(b) => Datum::Bool(b),
                sinew_serial::SValue::Int(i) => Datum::Int(i),
                sinew_serial::SValue::Float(f) => Datum::Float(f),
                sinew_serial::SValue::Text(s) => Datum::Text(s),
                sinew_serial::SValue::Bytes(b) => Datum::Bytea(b),
            }
        }
        AttrType::Object => Datum::Bytea(raw.to_vec()),
        AttrType::Array => {
            let _ = (cat, path);
            array_to_datum(raw)
                .ok_or_else(|| DbError::Eval(format!("corrupt array under {path}")))?
        }
    })
}

/// Downcast a value to its textual form; objects and arrays render as JSON.
pub(crate) fn datum_to_text(cat: &Catalog, d: &Datum, ty: AttrType, path: &str) -> String {
    match (ty, d) {
        (AttrType::Object, Datum::Bytea(bytes)) => {
            doc_to_value(cat, bytes, path).to_json()
        }
        (AttrType::Array, Datum::Array(_)) => {
            // re-render as JSON through the Value model
            fn conv(d: &Datum) -> Value {
                match d {
                    Datum::Null => Value::Null,
                    Datum::Bool(b) => Value::Bool(*b),
                    Datum::Int(i) => Value::Int(*i),
                    Datum::Float(f) => Value::Float(*f),
                    Datum::Text(s) => Value::Str(s.clone()),
                    Datum::Bytea(_) => Value::Null,
                    Datum::Array(a) => Value::Array(a.iter().map(conv).collect()),
                }
            }
            conv(d).to_json()
        }
        _ => d.display_text(),
    }
}

/// Render a serialized document back to a JSON [`Value`] (deserialization;
/// also powers `doc_to_json`). `prefix` is the dotted path of this document
/// ("" for the root): child keys display relative to it.
pub fn doc_to_value(cat: &Catalog, bytes: &[u8], prefix: &str) -> Value {
    let mut pairs = Vec::new();
    let Ok(iter) = sformat::iter_raw(bytes) else {
        return Value::Null;
    };
    for (id, raw) in iter {
        let Some((full_name, ty)) = cat.attr_info(id) else { continue };
        let display = if prefix.is_empty() {
            full_name.clone()
        } else {
            full_name
                .strip_prefix(&format!("{prefix}."))
                .unwrap_or(&full_name)
                .to_string()
        };
        let value = match ty {
            AttrType::Object => doc_to_value(cat, raw, &full_name),
            AttrType::Array => match decode_array(raw) {
                Some(elems) => array_to_value(cat, &elems, &full_name),
                None => Value::Null,
            },
            _ => match sformat::decode_value(raw, ty.stype()) {
                Ok(sinew_serial::SValue::Bool(b)) => Value::Bool(b),
                Ok(sinew_serial::SValue::Int(i)) => Value::Int(i),
                Ok(sinew_serial::SValue::Float(f)) => Value::Float(f),
                Ok(sinew_serial::SValue::Text(s)) => Value::Str(s),
                _ => Value::Null,
            },
        };
        pairs.push((display, value));
    }
    Value::Object(pairs)
}

fn array_to_value(cat: &Catalog, elems: &[ArrayElem], path: &str) -> Value {
    Value::Array(
        elems
            .iter()
            .map(|e| match e {
                ArrayElem::Null => Value::Null,
                ArrayElem::Bool(b) => Value::Bool(*b),
                ArrayElem::Int(i) => Value::Int(*i),
                ArrayElem::Float(f) => Value::Float(*f),
                ArrayElem::Text(s) => Value::Str(s.clone()),
                ArrayElem::Doc(b) => doc_to_value(cat, b, path),
                ArrayElem::Array(inner) => array_to_value(cat, inner, path),
            })
            .collect(),
    )
}

// ---- reservoir editing ----

/// Set (add or replace) a key in a serialized document, interning the
/// attribute if new. Supports dotted paths whose parents exist (absent
/// intermediate objects are created). `skip` gives the number of leading
/// path segments already inside `bytes` — 0 when `bytes` is the reservoir
/// root, the ancestor's depth when `bytes` came from a materialized parent
/// object's column.
pub fn set_path(
    db: &Database,
    cat: &Catalog,
    bytes: &[u8],
    path: &str,
    skip: usize,
    value: &Datum,
) -> DbResult<Vec<u8>> {
    let ty = attr_type_of_datum(value)
        .ok_or_else(|| DbError::Eval("cannot store NULL via set_key; use remove_key".into()))?;
    // Inside a running UPDATE: no unit of ours can carry the dictionary
    // row, so it is committed before the id is used.
    let id = cat.intern_durable(db, path, ty)?;
    let raw = datum_to_raw(value)?;
    rebuild_with(cat, bytes, path, skip, Some((id, &raw)))
}

/// Remove all typed variants of a key from a serialized document.
pub fn remove_path(cat: &Catalog, bytes: &[u8], path: &str, skip: usize) -> DbResult<Vec<u8>> {
    rebuild_with(cat, bytes, path, skip, None)
}

/// Core rebuild: descend to the leaf's parent document, apply the edit
/// (set one id, or remove all ids of the leaf name), then re-serialize each
/// parent on the way back up.
fn rebuild_with(
    cat: &Catalog,
    bytes: &[u8],
    path: &str,
    skip: usize,
    set: Option<(AttrId, &[u8])>,
) -> DbResult<Vec<u8>> {
    let segs: Vec<&str> = path.split('.').collect();
    let skip = skip.min(segs.len() - 1);
    let prefix = segs[..skip].join(".");
    rebuild_rec(cat, bytes, &segs[skip..], &prefix, path, set)
}

fn rebuild_rec(
    cat: &Catalog,
    bytes: &[u8],
    segs: &[&str],
    prefix: &str,
    full_path: &str,
    set: Option<(AttrId, &[u8])>,
) -> DbResult<Vec<u8>> {
    let pairs: Vec<(u32, &[u8])> =
        sformat::iter_raw(bytes).map_err(decode_err)?.collect();
    if segs.len() == 1 {
        // Leaf level: apply the edit here.
        let leaf_ids: Vec<AttrId> =
            cat.ids_for_name(full_path).into_iter().map(|(id, _)| id).collect();
        let mut new_pairs: Vec<(u32, &[u8])> = pairs
            .into_iter()
            .filter(|(id, _)| !leaf_ids.contains(id))
            .collect();
        if let Some((id, raw)) = set {
            new_pairs.push((id, raw));
        }
        return Ok(sformat::encode_raw_pairs(&new_pairs));
    }
    // Descend into (or create) the child object.
    let child_prefix = if prefix.is_empty() {
        segs[0].to_string()
    } else {
        format!("{prefix}.{}", segs[0])
    };
    let Some(child_id) = cat.lookup(&child_prefix, AttrType::Object) else {
        return Err(DbError::NotFound(format!("object {child_prefix} not registered")));
    };
    let child_bytes = pairs
        .iter()
        .find(|(id, _)| *id == child_id)
        .map(|(_, raw)| raw.to_vec())
        .unwrap_or_else(|| sformat::encode(&sinew_serial::Doc::default()));
    let rebuilt = rebuild_rec(cat, &child_bytes, &segs[1..], &child_prefix, full_path, set)?;
    let mut new_pairs: Vec<(u32, &[u8])> =
        pairs.into_iter().filter(|(id, _)| *id != child_id).collect();
    new_pairs.push((child_id, &rebuilt));
    Ok(sformat::encode_raw_pairs(&new_pairs))
}

/// Extract exactly one attribute (by id) from a document at the leaf's
/// parent level, as a typed datum. Used by the materializer, which moves
/// one `(key, type)` attribute at a time — a multi-typed sibling of the
/// same key name must stay in the reservoir.
pub fn extract_attr(cat: &Catalog, bytes: &[u8], path: &str, id: AttrId) -> DbResult<Option<Datum>> {
    let Some((_, ty)) = cat.attr_info(id) else {
        return Err(DbError::NotFound(format!("attribute {id}")));
    };
    let Some(cur) = descend(cat, bytes, path)? else { return Ok(None) };
    match sformat::extract_raw(cur, id).map_err(decode_err)? {
        Some(raw) => Ok(Some(raw_to_datum(cat, raw, ty, path)?)),
        None => Ok(None),
    }
}

/// Remove exactly one attribute (by id) along a dotted path, leaving any
/// same-named attributes of other types in place. `skip` as in [`set_path`].
pub fn remove_attr(
    cat: &Catalog,
    bytes: &[u8],
    path: &str,
    skip: usize,
    id: AttrId,
) -> DbResult<Vec<u8>> {
    rebuild_attr(cat, bytes, path, skip, id, None)
}

/// Set exactly one attribute (by id) along a dotted path.
pub fn set_attr(
    cat: &Catalog,
    bytes: &[u8],
    path: &str,
    skip: usize,
    id: AttrId,
    value: &Datum,
) -> DbResult<Vec<u8>> {
    let raw = datum_to_raw(value)?;
    rebuild_attr(cat, bytes, path, skip, id, Some(raw))
}

fn rebuild_attr(
    cat: &Catalog,
    bytes: &[u8],
    path: &str,
    skip: usize,
    id: AttrId,
    set: Option<Vec<u8>>,
) -> DbResult<Vec<u8>> {
    fn rec(
        cat: &Catalog,
        bytes: &[u8],
        segs: &[&str],
        prefix: &str,
        id: AttrId,
        set: &Option<Vec<u8>>,
    ) -> DbResult<Vec<u8>> {
        let pairs: Vec<(u32, &[u8])> = sformat::iter_raw(bytes).map_err(decode_err)?.collect();
        if segs.len() == 1 {
            let mut new_pairs: Vec<(u32, &[u8])> =
                pairs.into_iter().filter(|(i, _)| *i != id).collect();
            if let Some(raw) = set {
                new_pairs.push((id, raw));
            }
            return Ok(sformat::encode_raw_pairs(&new_pairs));
        }
        let child_prefix = if prefix.is_empty() {
            segs[0].to_string()
        } else {
            format!("{prefix}.{}", segs[0])
        };
        let Some(child_id) = cat.lookup(&child_prefix, AttrType::Object) else {
            return Err(DbError::NotFound(format!("object {child_prefix} not registered")));
        };
        let child_bytes = pairs
            .iter()
            .find(|(i, _)| *i == child_id)
            .map(|(_, raw)| raw.to_vec())
            .unwrap_or_else(|| sformat::encode(&sinew_serial::Doc::default()));
        let rebuilt = rec(cat, &child_bytes, &segs[1..], &child_prefix, id, set)?;
        let mut new_pairs: Vec<(u32, &[u8])> =
            pairs.into_iter().filter(|(i, _)| *i != child_id).collect();
        new_pairs.push((child_id, &rebuilt));
        Ok(sformat::encode_raw_pairs(&new_pairs))
    }
    let segs: Vec<&str> = path.split('.').collect();
    let skip = skip.min(segs.len() - 1);
    let prefix = segs[..skip].join(".");
    rec(cat, bytes, &segs[skip..], &prefix, id, &set)
}

/// AttrType carried by a datum destined for the reservoir.
pub fn attr_type_of_datum(d: &Datum) -> Option<AttrType> {
    Some(match d {
        Datum::Null => return None,
        Datum::Bool(_) => AttrType::Bool,
        Datum::Int(_) => AttrType::Int,
        Datum::Float(_) => AttrType::Float,
        Datum::Text(_) => AttrType::Text,
        Datum::Bytea(_) => AttrType::Object,
        Datum::Array(_) => AttrType::Array,
    })
}

/// Raw reservoir encoding of a datum.
pub fn datum_to_raw(d: &Datum) -> DbResult<Vec<u8>> {
    Ok(match d {
        Datum::Null => return Err(DbError::Eval("NULL has no reservoir encoding".into())),
        Datum::Bool(b) => vec![*b as u8],
        Datum::Int(i) => i.to_le_bytes().to_vec(),
        Datum::Float(f) => f.to_le_bytes().to_vec(),
        Datum::Text(s) => s.as_bytes().to_vec(),
        Datum::Bytea(b) => b.clone(),
        Datum::Array(_) => datum_to_array_bytes(d)
            .ok_or_else(|| DbError::Eval("unencodable array".into()))?,
    })
}

fn decode_err(e: sinew_serial::DecodeError) -> DbError {
    DbError::Eval(e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loader::serialize_doc;
    use sinew_json::parse;

    fn setup() -> (Database, Catalog) {
        let db = Database::in_memory();
        let cat = Catalog::load(&db, Default::default()).unwrap();
        (db, cat)
    }

    fn doc(db: &Database, cat: &Catalog, json: &str) -> Vec<u8> {
        serialize_doc(db, cat, &parse(json).unwrap()).unwrap().0
    }

    #[test]
    fn typed_extraction() {
        let (db, cat) = setup();
        let bytes = doc(&db, &cat, r#"{"hits": 22, "url": "x.com", "ok": true, "r": 0.5}"#);
        assert_eq!(extract_path(&cat, &bytes, "hits", Want::Int), Datum::Int(22));
        assert_eq!(extract_path(&cat, &bytes, "url", Want::Text), Datum::Text("x.com".into()));
        assert_eq!(extract_path(&cat, &bytes, "ok", Want::Bool), Datum::Bool(true));
        assert_eq!(extract_path(&cat, &bytes, "r", Want::Float), Datum::Float(0.5));
        assert_eq!(extract_path(&cat, &bytes, "missing", Want::Int), Datum::Null);
        // type mismatch → NULL, never an error
        assert_eq!(extract_path(&cat, &bytes, "url", Want::Int), Datum::Null);
    }

    #[test]
    fn num_want_accepts_both_numeric_types() {
        let (db, cat) = setup();
        let b1 = doc(&db, &cat, r#"{"v": 5}"#);
        let b2 = doc(&db, &cat, r#"{"v": 5.5}"#);
        assert_eq!(extract_path(&cat, &b1, "v", Want::Num), Datum::Int(5));
        assert_eq!(extract_path(&cat, &b2, "v", Want::Num), Datum::Float(5.5));
    }

    #[test]
    fn dotted_path_descends() {
        let (db, cat) = setup();
        let bytes = doc(&db, &cat, r#"{"user": {"id": 7, "geo": {"lat": 1.5}}}"#);
        assert_eq!(extract_path(&cat, &bytes, "user.id", Want::Int), Datum::Int(7));
        assert_eq!(extract_path(&cat, &bytes, "user.geo.lat", Want::Float), Datum::Float(1.5));
        assert_eq!(extract_path(&cat, &bytes, "user.nope", Want::Int), Datum::Null);
        assert_eq!(extract_path(&cat, &bytes, "nope.id", Want::Int), Datum::Null);
        assert!(exists_path(&cat, &bytes, "user.geo.lat"));
        assert!(!exists_path(&cat, &bytes, "user.geo.lon"));
    }

    #[test]
    fn anytext_downcasts_every_type() {
        let (db, cat) = setup();
        let bytes = doc(&db, &cat, r#"{"a": 5, "b": "s", "c": true, "d": {"x": 1}, "e": [1,2]}"#);
        assert_eq!(extract_path(&cat, &bytes, "a", Want::AnyText), Datum::Text("5".into()));
        assert_eq!(extract_path(&cat, &bytes, "b", Want::AnyText), Datum::Text("s".into()));
        assert_eq!(extract_path(&cat, &bytes, "c", Want::AnyText), Datum::Text("true".into()));
        assert_eq!(
            extract_path(&cat, &bytes, "d", Want::AnyText),
            Datum::Text("{\"x\":1}".into())
        );
        assert_eq!(extract_path(&cat, &bytes, "e", Want::AnyText), Datum::Text("[1,2]".into()));
    }

    #[test]
    fn multi_typed_key_extracts_per_type() {
        let (db, cat) = setup();
        let b_int = doc(&db, &cat, r#"{"dyn": 42}"#);
        let b_str = doc(&db, &cat, r#"{"dyn": "forty-two"}"#);
        assert_eq!(extract_path(&cat, &b_int, "dyn", Want::Int), Datum::Int(42));
        assert_eq!(extract_path(&cat, &b_str, "dyn", Want::Int), Datum::Null);
        assert_eq!(extract_path(&cat, &b_str, "dyn", Want::Text), Datum::Text("forty-two".into()));
        assert_eq!(extract_path(&cat, &b_int, "dyn", Want::AnyText), Datum::Text("42".into()));
    }

    #[test]
    fn array_extraction() {
        let (db, cat) = setup();
        let bytes = doc(&db, &cat, r#"{"tags": [1, "x", null]}"#);
        assert_eq!(
            extract_path(&cat, &bytes, "tags", Want::Array),
            Datum::Array(vec![Datum::Int(1), Datum::Text("x".into()), Datum::Null])
        );
    }

    #[test]
    fn doc_renders_back_to_json() {
        let (db, cat) = setup();
        let original = r#"{"url":"x.com","hits":22,"user":{"id":7},"tags":[1,"a"]}"#;
        let bytes = doc(&db, &cat, original);
        let rendered = doc_to_value(&cat, &bytes, "");
        assert_eq!(rendered, parse(original).unwrap());
    }

    #[test]
    fn set_and_remove_top_level() {
        let (db, cat) = setup();
        let bytes = doc(&db, &cat, r#"{"a": 1, "b": "x"}"#);
        let with_c = set_path(&db, &cat, &bytes, "c", 0, &Datum::Text("new".into())).unwrap();
        assert_eq!(extract_path(&cat, &with_c, "c", Want::Text), Datum::Text("new".into()));
        assert_eq!(extract_path(&cat, &with_c, "a", Want::Int), Datum::Int(1));
        let replaced = set_path(&db, &cat, &with_c, "a", 0, &Datum::Int(9)).unwrap();
        assert_eq!(extract_path(&cat, &replaced, "a", Want::Int), Datum::Int(9));
        let removed = remove_path(&cat, &replaced, "b", 0).unwrap();
        assert_eq!(extract_path(&cat, &removed, "b", Want::Text), Datum::Null);
        assert_eq!(extract_path(&cat, &removed, "a", Want::Int), Datum::Int(9));
    }

    #[test]
    fn set_replaces_all_typed_variants() {
        let (db, cat) = setup();
        // "dyn" exists as int in this doc; setting a text value must not
        // leave the stale int variant behind.
        let b1 = doc(&db, &cat, r#"{"dyn": 42}"#);
        let _ = doc(&db, &cat, r#"{"dyn": "seed-text-variant"}"#);
        let edited = set_path(&db, &cat, &b1, "dyn", 0, &Datum::Text("now-text".into())).unwrap();
        assert_eq!(extract_path(&cat, &edited, "dyn", Want::Int), Datum::Null);
        assert_eq!(
            extract_path(&cat, &edited, "dyn", Want::Text),
            Datum::Text("now-text".into())
        );
    }

    #[test]
    fn set_and_remove_nested() {
        let (db, cat) = setup();
        let bytes = doc(&db, &cat, r#"{"user": {"id": 7, "name": "bo"}}"#);
        let edited = set_path(&db, &cat, &bytes, "user.id", 0, &Datum::Int(8)).unwrap();
        assert_eq!(extract_path(&cat, &edited, "user.id", Want::Int), Datum::Int(8));
        assert_eq!(
            extract_path(&cat, &edited, "user.name", Want::Text),
            Datum::Text("bo".into())
        );
        let removed = remove_path(&cat, &edited, "user.id", 0).unwrap();
        assert_eq!(extract_path(&cat, &removed, "user.id", Want::Int), Datum::Null);
        assert_eq!(
            extract_path(&cat, &removed, "user.name", Want::Text),
            Datum::Text("bo".into())
        );
    }

    #[test]
    fn literal_dot_keys_resolve_via_direct_hit() {
        // {"a": {"b.c": 1}} stores attribute "a.b.c" directly inside
        // doc("a"); descent must find it via the per-level direct-hit
        // probe even though no "a.b" object is registered.
        let (db, cat) = setup();
        let bytes = doc(&db, &cat, r#"{"a": {"b.c": 1}}"#);
        assert_eq!(extract_path(&cat, &bytes, "a.b.c", Want::Int), Datum::Int(1));
        assert!(exists_path(&cat, &bytes, "a.b.c"));
    }

    #[test]
    fn garbage_bytes_extract_null() {
        let (db, cat) = setup();
        let _ = doc(&db, &cat, r#"{"a": 1}"#);
        assert_eq!(extract_path(&cat, &[1, 2, 3], "a", Want::Int), Datum::Null);
        assert!(!exists_path(&cat, &[1, 2, 3], "a"));
    }
}
