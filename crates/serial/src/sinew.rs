//! Sinew's custom serialization format — paper §4.1, Figure 5.
//!
//! ```text
//! [u32 n_attrs][aid_0 .. aid_{n-1}][offs_0 .. offs_{n-1}][len][data]
//! ```
//!
//! * attribute IDs are stored **sorted**, enabling binary search;
//! * IDs and offsets are *separate* arrays "in order to maximize cache
//!   locality for binary searches for attribute IDs within the header";
//! * `offs_i` is the byte offset of value *i* within `data`; the value's
//!   length is `offs_{i+1} - offs_i` (or `len - offs_i` for the last one);
//! * values carry no type tags — types live in the catalog dictionary,
//!   keyed by attribute ID.
//!
//! Extraction is `O(log n)` per key: binary-search the ID array, read two
//! offsets, slice the data.

use crate::{DecodeError, Doc, SType, SValue, WriterSchema};

const U32: usize = 4;

/// Serialize a document. Attributes are written sorted by ID.
pub fn encode(doc: &Doc) -> Vec<u8> {
    let mut attrs: Vec<&(u32, SValue)> = doc.attrs.iter().collect();
    attrs.sort_by_key(|(id, _)| *id);
    let n = attrs.len();

    // Body first, recording offsets.
    let mut data = Vec::with_capacity(n * 8);
    let mut offsets = Vec::with_capacity(n);
    for (_, v) in &attrs {
        offsets.push(data.len() as u32);
        write_value(&mut data, v);
    }

    let mut out = Vec::with_capacity(U32 * (2 * n + 2) + data.len());
    out.extend_from_slice(&(n as u32).to_le_bytes());
    for (id, _) in &attrs {
        out.extend_from_slice(&id.to_le_bytes());
    }
    for off in &offsets {
        out.extend_from_slice(&off.to_le_bytes());
    }
    out.extend_from_slice(&(data.len() as u32).to_le_bytes());
    out.extend_from_slice(&data);
    out
}

fn write_value(data: &mut Vec<u8>, v: &SValue) {
    match v {
        SValue::Bool(b) => data.push(*b as u8),
        SValue::Int(i) => data.extend_from_slice(&i.to_le_bytes()),
        SValue::Float(f) => data.extend_from_slice(&f.to_le_bytes()),
        SValue::Text(s) => data.extend_from_slice(s.as_bytes()),
        SValue::Bytes(b) => data.extend_from_slice(b),
    }
}

/// Number of attributes in a serialized document.
pub fn attr_count(bytes: &[u8]) -> Result<usize, DecodeError> {
    if bytes.len() < U32 {
        return Err(DecodeError("truncated header".into()));
    }
    Ok(u32::from_le_bytes(bytes[..U32].try_into().unwrap()) as usize)
}

/// Check whether a key is present — cheaper than extraction (the mechanism
/// behind MongoDB's fast sparse-key checks in §6.3 exists here too, but
/// with a binary search instead of a scan).
pub fn contains(bytes: &[u8], attr_id: u32) -> Result<bool, DecodeError> {
    Ok(find(bytes, attr_id)?.is_some())
}

/// Binary-search the header; returns the index of the attribute if present.
fn find(bytes: &[u8], attr_id: u32) -> Result<Option<usize>, DecodeError> {
    let n = attr_count(bytes)?;
    if bytes.len() < U32 * (2 * n + 2) {
        return Err(DecodeError("truncated header".into()));
    }
    let ids = &bytes[U32..U32 + n * U32];
    let (mut lo, mut hi) = (0usize, n);
    while lo < hi {
        let mid = (lo + hi) / 2;
        let id = u32::from_le_bytes(ids[mid * U32..mid * U32 + U32].try_into().unwrap());
        match id.cmp(&attr_id) {
            std::cmp::Ordering::Less => lo = mid + 1,
            std::cmp::Ordering::Greater => hi = mid,
            std::cmp::Ordering::Equal => return Ok(Some(mid)),
        }
    }
    Ok(None)
}

/// Extract the raw value bytes for an attribute, without copying.
pub fn extract_raw(bytes: &[u8], attr_id: u32) -> Result<Option<&[u8]>, DecodeError> {
    let Some(idx) = find(bytes, attr_id)? else {
        return Ok(None);
    };
    let n = attr_count(bytes)?;
    let offs_base = U32 + n * U32;
    let read_off = |i: usize| -> u32 {
        u32::from_le_bytes(bytes[offs_base + i * U32..offs_base + (i + 1) * U32].try_into().unwrap())
    };
    let start = read_off(idx) as usize;
    let end = if idx + 1 < n { read_off(idx + 1) as usize } else { read_off(n) as usize };
    let data_base = U32 * (2 * n + 2);
    if data_base + end > bytes.len() || start > end {
        return Err(DecodeError("offset out of range".into()));
    }
    Ok(Some(&bytes[data_base + start..data_base + end]))
}

/// Extract and type a value. Types come from the catalog, not the wire.
pub fn extract(bytes: &[u8], attr_id: u32, ty: SType) -> Result<Option<SValue>, DecodeError> {
    let Some(raw) = extract_raw(bytes, attr_id)? else {
        return Ok(None);
    };
    decode_value(raw, ty).map(Some)
}

pub fn decode_value(raw: &[u8], ty: SType) -> Result<SValue, DecodeError> {
    Ok(match ty {
        SType::Bool => {
            if raw.len() != 1 {
                return Err(DecodeError("bool width".into()));
            }
            SValue::Bool(raw[0] != 0)
        }
        SType::Int => SValue::Int(i64::from_le_bytes(
            raw.try_into().map_err(|_| DecodeError("int width".into()))?,
        )),
        SType::Float => SValue::Float(f64::from_le_bytes(
            raw.try_into().map_err(|_| DecodeError("float width".into()))?,
        )),
        SType::Text => SValue::Text(
            std::str::from_utf8(raw)
                .map_err(|_| DecodeError("invalid utf-8".into()))?
                .to_string(),
        ),
        SType::Bytes => SValue::Bytes(raw.to_vec()),
    })
}

/// Decode the full document, resolving types through the writer schema
/// (the "deserialization" task of Appendix A).
pub fn decode(bytes: &[u8], schema: &WriterSchema) -> Result<Doc, DecodeError> {
    let n = attr_count(bytes)?;
    if bytes.len() < U32 * (2 * n + 2) {
        return Err(DecodeError("truncated header".into()));
    }
    let read_u32 = |at: usize| -> u32 { u32::from_le_bytes(bytes[at..at + U32].try_into().unwrap()) };
    let offs_base = U32 + n * U32;
    let data_base = U32 * (2 * n + 2);
    let total_len = read_u32(offs_base + n * U32) as usize;
    let mut attrs = Vec::with_capacity(n);
    for i in 0..n {
        let id = read_u32(U32 + i * U32);
        let start = read_u32(offs_base + i * U32) as usize;
        let end = if i + 1 < n { read_u32(offs_base + (i + 1) * U32) as usize } else { total_len };
        if data_base + end > bytes.len() || start > end {
            return Err(DecodeError("offset out of range".into()));
        }
        let ty = schema
            .type_of(id)
            .ok_or_else(|| DecodeError(format!("attribute {id} not in schema")))?;
        attrs.push((id, decode_value(&bytes[data_base + start..data_base + end], ty)?));
    }
    Ok(Doc { attrs })
}

/// Re-encode a document from raw (attr_id, value bytes) pairs — the
/// primitive behind reservoir edits (`set_key`/`remove_key`) that never
/// needs to interpret untouched values. Pairs are sorted by id; duplicate
/// ids keep the last occurrence.
pub fn encode_raw_pairs(pairs: &[(u32, &[u8])]) -> Vec<u8> {
    let mut sorted: Vec<(u32, &[u8])> = Vec::with_capacity(pairs.len());
    for &(id, raw) in pairs {
        match sorted.binary_search_by_key(&id, |(i, _)| *i) {
            Ok(pos) => sorted[pos] = (id, raw),
            Err(pos) => sorted.insert(pos, (id, raw)),
        }
    }
    let n = sorted.len();
    let mut out = Vec::with_capacity(U32 * (2 * n + 2) + sorted.iter().map(|(_, r)| r.len()).sum::<usize>());
    out.extend_from_slice(&(n as u32).to_le_bytes());
    for (id, _) in &sorted {
        out.extend_from_slice(&id.to_le_bytes());
    }
    let mut off = 0u32;
    for (_, raw) in &sorted {
        out.extend_from_slice(&off.to_le_bytes());
        off += raw.len() as u32;
    }
    out.extend_from_slice(&off.to_le_bytes());
    for (_, raw) in &sorted {
        out.extend_from_slice(raw);
    }
    out
}

/// A borrowed, header-validated view of one serialized document.
///
/// [`contains`](RawDoc::contains) / [`extract_raw`](extract_raw) re-read
/// and re-validate the header on every call; batch consumers (Sinew's
/// per-tuple extraction plans, the loader's decode paths) instead parse
/// the header **once** and then probe any number of attribute ids against
/// the same view — each probe is a pure binary search plus two offset
/// reads, with zero allocation and zero re-validation.
#[derive(Debug, Clone, Copy)]
pub struct RawDoc<'a> {
    /// Attribute count.
    n: usize,
    /// The whole serialized document (header + data).
    bytes: &'a [u8],
}

impl<'a> RawDoc<'a> {
    /// Validate the header once and return the view.
    pub fn parse(bytes: &'a [u8]) -> Result<RawDoc<'a>, DecodeError> {
        let n = attr_count(bytes)?;
        if bytes.len() < U32 * (2 * n + 2) {
            return Err(DecodeError("truncated header".into()));
        }
        Ok(RawDoc { n, bytes })
    }

    pub fn len(&self) -> usize {
        self.n
    }

    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    fn read_u32(&self, at: usize) -> u32 {
        u32::from_le_bytes(self.bytes[at..at + U32].try_into().unwrap())
    }

    /// Binary-search the sorted id array; index of `attr_id` if present.
    fn find(&self, attr_id: u32) -> Option<usize> {
        let (mut lo, mut hi) = (0usize, self.n);
        while lo < hi {
            let mid = (lo + hi) / 2;
            match self.read_u32(U32 + mid * U32).cmp(&attr_id) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => return Some(mid),
            }
        }
        None
    }

    /// Is the attribute present?
    pub fn contains(&self, attr_id: u32) -> bool {
        self.find(attr_id).is_some()
    }

    /// Is *any* of the (sorted-irrelevant) candidate ids present? Returns
    /// on the first hit — the multi-typed-key probe of Sinew's extraction.
    pub fn contains_any(&self, attr_ids: impl IntoIterator<Item = u32>) -> bool {
        attr_ids.into_iter().any(|id| self.contains(id))
    }

    /// Raw value bytes of an attribute, borrowed from the document.
    /// `None` when absent; `Err` only on a corrupt offset table.
    pub fn get(&self, attr_id: u32) -> Result<Option<&'a [u8]>, DecodeError> {
        let Some(idx) = self.find(attr_id) else { return Ok(None) };
        let offs_base = U32 + self.n * U32;
        let start = self.read_u32(offs_base + idx * U32) as usize;
        let end = self.read_u32(offs_base + (idx + 1) * U32) as usize;
        let data_base = U32 * (2 * self.n + 2);
        if data_base + end > self.bytes.len() || start > end {
            return Err(DecodeError("offset out of range".into()));
        }
        Ok(Some(&self.bytes[data_base + start..data_base + end]))
    }

    /// The attribute ids, ascending: the header's id array, no offset or
    /// value read.
    pub fn ids(&self) -> impl Iterator<Item = u32> + '_ {
        (0..self.n).map(move |i| self.read_u32(U32 + i * U32))
    }

    /// Iterate `(attr_id, raw value)` pairs, borrowed from the document.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &'a [u8])> + '_ {
        let offs_base = U32 + self.n * U32;
        let data_base = U32 * (2 * self.n + 2);
        let total_len = self.read_u32(offs_base + self.n * U32) as usize;
        (0..self.n).map(move |i| {
            let id = self.read_u32(U32 + i * U32);
            let start = self.read_u32(offs_base + i * U32) as usize;
            let end = if i + 1 < self.n {
                self.read_u32(offs_base + (i + 1) * U32) as usize
            } else {
                total_len
            };
            (id, &self.bytes[data_base + start..data_base + end])
        })
    }
}

/// Iterate (attr_id, raw value) pairs without allocating.
pub fn iter_raw(bytes: &[u8]) -> Result<impl Iterator<Item = (u32, &[u8])>, DecodeError> {
    let n = attr_count(bytes)?;
    if bytes.len() < U32 * (2 * n + 2) {
        return Err(DecodeError("truncated header".into()));
    }
    let read_u32 =
        move |at: usize| -> u32 { u32::from_le_bytes(bytes[at..at + U32].try_into().unwrap()) };
    let offs_base = U32 + n * U32;
    let data_base = U32 * (2 * n + 2);
    let total_len = read_u32(offs_base + n * U32) as usize;
    Ok((0..n).map(move |i| {
        let id = read_u32(U32 + i * U32);
        let start = read_u32(offs_base + i * U32) as usize;
        let end = if i + 1 < n { read_u32(offs_base + (i + 1) * U32) as usize } else { total_len };
        (id, &bytes[data_base + start..data_base + end])
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Doc {
        Doc::new(vec![
            (7, SValue::Text("hello".into())),
            (1, SValue::Int(-42)),
            (3, SValue::Bool(true)),
            (9, SValue::Float(2.5)),
            (12, SValue::Bytes(vec![1, 2, 3])),
        ])
    }

    fn schema() -> WriterSchema {
        WriterSchema::new(vec![
            (1, SType::Int),
            (3, SType::Bool),
            (7, SType::Text),
            (9, SType::Float),
            (12, SType::Bytes),
        ])
    }

    #[test]
    fn roundtrip() {
        let doc = sample();
        let bytes = encode(&doc);
        assert_eq!(decode(&bytes, &schema()).unwrap(), doc);
    }

    #[test]
    fn extraction_by_id() {
        let bytes = encode(&sample());
        assert_eq!(
            extract(&bytes, 7, SType::Text).unwrap(),
            Some(SValue::Text("hello".into()))
        );
        assert_eq!(extract(&bytes, 1, SType::Int).unwrap(), Some(SValue::Int(-42)));
        assert_eq!(extract(&bytes, 9, SType::Float).unwrap(), Some(SValue::Float(2.5)));
        assert_eq!(extract(&bytes, 99, SType::Int).unwrap(), None);
        assert!(contains(&bytes, 3).unwrap());
        assert!(!contains(&bytes, 4).unwrap());
    }

    #[test]
    fn empty_document() {
        let doc = Doc::default();
        let bytes = encode(&doc);
        assert_eq!(attr_count(&bytes).unwrap(), 0);
        assert_eq!(extract(&bytes, 1, SType::Int).unwrap(), None);
        assert_eq!(decode(&bytes, &schema()).unwrap(), doc);
    }

    #[test]
    fn empty_string_value() {
        let doc = Doc::new(vec![(1, SValue::Text(String::new())), (2, SValue::Int(5))]);
        let bytes = encode(&doc);
        assert_eq!(
            extract(&bytes, 1, SType::Text).unwrap(),
            Some(SValue::Text(String::new()))
        );
        assert_eq!(extract(&bytes, 2, SType::Int).unwrap(), Some(SValue::Int(5)));
    }

    #[test]
    fn header_layout_matches_figure5() {
        // 2 attrs: ids [1, 3], values 8B int + "ab"
        let doc = Doc::new(vec![(3, SValue::Text("ab".into())), (1, SValue::Int(5))]);
        let bytes = encode(&doc);
        // [n=2][id 1][id 3][off 0][off 8][len 10][data]
        assert_eq!(&bytes[0..4], &2u32.to_le_bytes());
        assert_eq!(&bytes[4..8], &1u32.to_le_bytes());
        assert_eq!(&bytes[8..12], &3u32.to_le_bytes());
        assert_eq!(&bytes[12..16], &0u32.to_le_bytes());
        assert_eq!(&bytes[16..20], &8u32.to_le_bytes());
        assert_eq!(&bytes[20..24], &10u32.to_le_bytes());
        assert_eq!(bytes.len(), 24 + 10);
    }

    #[test]
    fn type_mismatch_is_decode_error() {
        let bytes = encode(&Doc::new(vec![(1, SValue::Text("abc".into()))]));
        // "abc" is 3 bytes; reading as Int (8 bytes) must fail cleanly
        assert!(extract(&bytes, 1, SType::Int).is_err());
    }

    #[test]
    fn corrupt_input_is_rejected() {
        assert!(attr_count(&[1, 2]).is_err());
        let mut bytes = encode(&sample());
        bytes.truncate(10);
        assert!(extract(&bytes, 7, SType::Text).is_err());
    }

    #[test]
    fn encode_raw_pairs_equals_encode() {
        let doc = sample();
        let bytes = encode(&doc);
        let pairs: Vec<(u32, &[u8])> = iter_raw(&bytes).unwrap().collect();
        assert_eq!(encode_raw_pairs(&pairs), bytes);
        // replacement keeps last duplicate
        let replaced = encode_raw_pairs(&[(1, &[0; 8][..]), (1, &[7; 8][..])]);
        assert_eq!(
            extract(&replaced, 1, SType::Int).unwrap(),
            Some(SValue::Int(i64::from_le_bytes([7; 8])))
        );
    }

    #[test]
    fn iter_raw_visits_all() {
        let bytes = encode(&sample());
        let ids: Vec<u32> = iter_raw(&bytes).unwrap().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![1, 3, 7, 9, 12]);
    }

    #[test]
    fn raw_doc_matches_per_call_api() {
        let bytes = encode(&sample());
        let doc = RawDoc::parse(&bytes).unwrap();
        assert_eq!(doc.len(), 5);
        for id in [1u32, 3, 7, 9, 12, 0, 2, 99] {
            assert_eq!(doc.contains(id), contains(&bytes, id).unwrap());
            assert_eq!(doc.get(id).unwrap(), extract_raw(&bytes, id).unwrap());
        }
        assert!(doc.contains_any([99, 3]));
        assert!(!doc.contains_any([99, 100]));
        let via_doc: Vec<(u32, &[u8])> = doc.iter().collect();
        let via_free: Vec<(u32, &[u8])> = iter_raw(&bytes).unwrap().collect();
        assert_eq!(via_doc, via_free);
        // corrupt input rejected at parse time, not per probe
        assert!(RawDoc::parse(&[1, 2]).is_err());
        let mut short = bytes.clone();
        short.truncate(10);
        assert!(RawDoc::parse(&short).is_err());
    }
}
