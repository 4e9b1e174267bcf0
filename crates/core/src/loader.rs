//! The loader (paper §3.2.1): document → reservoir serialization plus
//! catalog registration.
//!
//! "A bulk load is completed in two steps, serialization and insertion."
//! Serialization walks each (validated) document, inferring each value's
//! type, interning `(key, type)` attributes into the global dictionary (in
//! memory: ids only), and producing the custom binary format of §4.1.
//! Insertion appends rows with
//! **all data in the column reservoir**, "regardless of the current schema
//! of the underlying physical relation" — materialized columns whose data
//! just landed in the reservoir are simply marked dirty, and the column
//! materializer moves the values later. This keeps the loader entirely
//! ignorant of the physical schema (the modularity argument of §3.2.1).
//!
//! Nested objects serialize as *nested documents* stored under their
//! parent key; nested keys are registered (and addressable) under dotted
//! full names (`user.id`). Arrays serialize tag-encoded (§4.2's default
//! "RDBMS array datatype" mapping applies on materialization); object
//! elements of arrays are nested documents whose keys are rooted at the
//! array's path.
//!
//! ## Parallel bulk loading
//!
//! Serialization dominates load cost (paper Table 3), and it is
//! embarrassingly parallel *except* for attribute interning, whose id
//! assignment must stay deterministic (two loads of the same input must
//! produce byte-identical reservoirs). The loader therefore splits the
//! work into three phases:
//!
//! 1. **register** (sequential, cheap): walk every document in order and
//!    intern each `(key, type)` attribute — pure dictionary work, exactly
//!    the id-assignment order of the serial path;
//! 2. **encode** (parallel): Sinew-serialize document chunks on
//!    `std::thread::scope` workers. Every intern call now hits the
//!    read-locked fast path — no write locks;
//! 3. **commit** (sequential): one batched count/dirty update of the catalog
//!    cache, then one [`Catalog::commit_with`] — the documents, the
//!    dictionary rows of the attributes they introduced and the catalog
//!    mirror rows they changed, as one commit.
//!
//! `load_jsonl` additionally parallelizes JSON parsing (phase 0) over line
//! chunks; a malformed line aborts the whole load before anything is
//! inserted, reporting both the line number and the byte offset.

use crate::catalog::{AttrId, Catalog};
use crate::metrics::Metrics;
use crate::types::{encode_array, ArrayElem, AttrType};
use sinew_json::Value;
use sinew_rdbms::{Database, Datum, DbError, DbResult, RowWrite};
use sinew_serial::{sinew as sformat, Doc, SValue};

/// Serialize one JSON document into reservoir bytes; returns the attribute
/// ids present (for catalog counting and dirty marking). The id list
/// contains *every* registered attribute the document touches, including
/// nested dotted leaves. New attributes are interned in memory; their
/// dictionary rows are written by the load's commit, which is why `_db`
/// goes unused (the parameter stays for the callers that pass it).
pub fn serialize_doc(
    _db: &Database,
    cat: &Catalog,
    doc: &Value,
) -> DbResult<(Vec<u8>, Vec<AttrId>)> {
    let Value::Object(pairs) = doc else {
        return Err(DbError::Schema("document root must be a JSON object".into()));
    };
    let mut touched = Vec::new();
    let bytes = serialize_object(cat, pairs, "", &mut touched);
    Ok((bytes, touched))
}

fn serialize_object(
    cat: &Catalog,
    pairs: &[(String, Value)],
    prefix: &str,
    touched: &mut Vec<AttrId>,
) -> Vec<u8> {
    // Test seam: a document carrying this marker key panics mid-encode,
    // letting tests prove a panicking parallel worker aborts the load
    // cleanly. Compiled out of release builds entirely.
    #[cfg(test)]
    if pairs.iter().any(|(k, _)| k == "__sinew_test_panic") {
        panic!("injected serialize panic (test hook)");
    }
    let mut attrs: Vec<(u32, SValue)> = Vec::with_capacity(pairs.len());
    for (k, v) in pairs {
        let full = if prefix.is_empty() { k.clone() } else { format!("{prefix}.{k}") };
        let Some(ty) = AttrType::of_value(v) else {
            continue; // JSON null: key carries no typed value
        };
        let id = cat.intern(&full, ty);
        let sval = match v {
            Value::Bool(b) => SValue::Bool(*b),
            Value::Int(i) => SValue::Int(*i),
            Value::Float(f) => SValue::Float(*f),
            Value::Str(s) => SValue::Text(s.clone()),
            Value::Object(inner) => SValue::Bytes(serialize_object(cat, inner, &full, touched)),
            Value::Array(items) => SValue::Bytes(serialize_array(cat, items, &full, touched)),
            Value::Null => unreachable!(),
        };
        // Duplicate keys in one document: last wins (JSON semantics).
        if let Some(existing) = attrs.iter_mut().find(|(i, _)| *i == id) {
            existing.1 = sval;
        } else {
            attrs.push((id, sval));
            touched.push(id);
        }
    }
    sformat::encode(&Doc::new(attrs))
}

fn serialize_array(
    cat: &Catalog,
    items: &[Value],
    path: &str,
    touched: &mut Vec<AttrId>,
) -> Vec<u8> {
    let mut elems = Vec::with_capacity(items.len());
    for item in items {
        elems.push(match item {
            Value::Null => ArrayElem::Null,
            Value::Bool(b) => ArrayElem::Bool(*b),
            Value::Int(i) => ArrayElem::Int(*i),
            Value::Float(f) => ArrayElem::Float(*f),
            Value::Str(s) => ArrayElem::Text(s.clone()),
            Value::Object(inner) => ArrayElem::Doc(serialize_object(cat, inner, path, touched)),
            Value::Array(nested) => {
                let bytes = serialize_array(cat, nested, path, touched);
                // store pre-encoded nested arrays as raw element lists
                let decoded = crate::types::decode_array(&bytes)
                    .expect("just-encoded array decodes");
                ArrayElem::Array(decoded)
            }
        });
    }
    encode_array(&elems)
}

/// Load outcome of a batch.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct LoadReport {
    pub documents: u64,
    /// Attributes newly registered during this load.
    pub new_attributes: u64,
}

/// Bulk-load tuning knobs. The defaults parallelize serialization for
/// batches large enough to amortize thread spawn; results are
/// byte-identical to the serial path regardless of settings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoadOptions {
    /// Parallelize JSON parsing and Sinew serialization across threads.
    pub parallel: bool,
    /// Worker thread count; `0` means one per available core.
    pub threads: usize,
}

impl Default for LoadOptions {
    fn default() -> Self {
        LoadOptions { parallel: true, threads: 0 }
    }
}

impl LoadOptions {
    /// Strictly sequential load (the original single-threaded behavior);
    /// the determinism baseline for tests and benchmarks.
    pub fn serial() -> Self {
        LoadOptions { parallel: false, threads: 1 }
    }

    fn effective_threads(&self, items: usize) -> usize {
        if !self.parallel || items < PAR_THRESHOLD {
            return 1;
        }
        let t = if self.threads == 0 {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
        } else {
            self.threads
        };
        t.clamp(1, items.div_ceil(MIN_CHUNK))
    }
}

/// Below this batch size the spawn overhead outweighs the win.
const PAR_THRESHOLD: usize = 64;
/// Never split work finer than this many items per worker.
const MIN_CHUNK: usize = 16;

/// Pre-intern every attribute `doc` will touch, in exactly the order
/// `serialize_doc` would intern them. Running this sequentially over a
/// batch pins id assignment to the serial order, after which the actual
/// serialization can run on any number of threads (all its intern calls
/// hit the read-locked dictionary fast path).
fn register_doc(cat: &Catalog, doc: &Value) -> DbResult<()> {
    let Value::Object(pairs) = doc else {
        return Err(DbError::Schema("document root must be a JSON object".into()));
    };
    register_object(cat, pairs, "");
    Ok(())
}

fn register_object(cat: &Catalog, pairs: &[(String, Value)], prefix: &str) {
    for (k, v) in pairs {
        let Some(ty) = AttrType::of_value(v) else { continue };
        let full = if prefix.is_empty() { k.clone() } else { format!("{prefix}.{k}") };
        cat.intern(&full, ty);
        match v {
            Value::Object(inner) => register_object(cat, inner, &full),
            Value::Array(items) => register_array(cat, items, &full),
            _ => {}
        }
    }
}

fn register_array(cat: &Catalog, items: &[Value], path: &str) {
    for item in items {
        match item {
            Value::Object(inner) => register_object(cat, inner, path),
            Value::Array(nested) => register_array(cat, nested, path),
            _ => {}
        }
    }
}

/// Apply `f` to every item on `threads` scoped workers over contiguous
/// chunks, preserving input order. The error for the lowest-index failing
/// item wins (chunks are contiguous and flattened in order), matching
/// what a sequential loop would report. A worker that panics surfaces as
/// a clean `DbError` instead of unwinding into the caller — since this
/// runs strictly before the insert phase, a panicking worker leaves the
/// table untouched.
fn par_map_chunks<T, U, F>(items: &[T], threads: usize, f: F) -> DbResult<Vec<U>>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> DbResult<U> + Sync,
{
    let chunk = items.len().div_ceil(threads).max(1);
    let mut per_chunk: Vec<DbResult<Vec<U>>> = Vec::new();
    std::thread::scope(|s| {
        let f = &f;
        let handles: Vec<_> = items
            .chunks(chunk)
            .map(|c| s.spawn(move || c.iter().map(f).collect::<DbResult<Vec<U>>>()))
            .collect();
        per_chunk = handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(r) => r,
                Err(_) => Err(DbError::Eval(
                    "parallel load worker panicked; load aborted, nothing inserted".into(),
                )),
            })
            .collect();
    });
    let mut flat = Vec::with_capacity(items.len());
    for r in per_chunk {
        flat.extend(r?);
    }
    Ok(flat)
}

/// Bulk-load parsed documents into a collection's reservoir.
pub fn load_docs(
    db: &Database,
    cat: &Catalog,
    table: &str,
    docs: &[Value],
) -> DbResult<LoadReport> {
    load_docs_with(db, cat, table, docs, LoadOptions::default())
}

/// [`load_docs`] with explicit [`LoadOptions`].
pub fn load_docs_with(
    db: &Database,
    cat: &Catalog,
    table: &str,
    docs: &[Value],
    opts: LoadOptions,
) -> DbResult<LoadReport> {
    load_docs_metered(db, cat, table, docs, opts, None)
}

/// [`load_docs_with`] feeding throughput metrics (batch count, docs,
/// reservoir bytes, wall time) into a [`Metrics`] sink. `Sinew`'s load
/// entry points pass their instance metrics; standalone callers pass
/// `None` and pay nothing.
pub fn load_docs_metered(
    db: &Database,
    cat: &Catalog,
    table: &str,
    docs: &[Value],
    opts: LoadOptions,
    metrics: Option<&Metrics>,
) -> DbResult<LoadReport> {
    let start = std::time::Instant::now();
    let attrs_before = cat.attribute_count() as u64;
    let threads = opts.effective_threads(docs.len());
    let encoded: Vec<(Vec<u8>, Vec<AttrId>)> = if threads <= 1 {
        docs.iter().map(|d| serialize_doc(db, cat, d)).collect::<DbResult<_>>()?
    } else {
        // Phase 1 (sequential): deterministic attribute-id assignment.
        for doc in docs {
            register_doc(cat, doc)?;
        }
        // Phase 2 (parallel): encode; interning is now read-only.
        par_map_chunks(docs, threads, |d| serialize_doc(db, cat, d))?
    };
    // Phase 3 (sequential): one batched update of the catalog cache, then
    // one commit carrying the documents and the catalog rows they changed.
    let mut rows = Vec::with_capacity(encoded.len());
    let mut counts: std::collections::HashMap<AttrId, u64> = std::collections::HashMap::new();
    let mut reservoir_bytes = 0u64;
    for (bytes, touched) in encoded {
        reservoir_bytes += bytes.len() as u64;
        rows.push(vec![Datum::Bytea(bytes)]);
        for id in touched {
            *counts.entry(id).or_insert(0) += 1;
        }
    }
    // one write-locked catalog pass per batch, not one per (doc, attr)
    let deltas: Vec<(AttrId, u64)> = counts.into_iter().collect();
    cat.bump_counts(table, &deltas);
    // Materialized columns that are about to receive reservoir data become
    // dirty — in the cache before the rows exist, in the mirror with them.
    let all_touched: Vec<AttrId> = deltas.iter().map(|&(id, _)| id).collect();
    cat.mark_loaded_dirty(table, &all_touched);
    cat.commit_with(db, table, &[RowWrite::Insert { table, cols: Some(&["data"]), rows: &rows }])?;
    if let Some(m) = metrics {
        m.loader_batches.inc();
        if threads > 1 {
            m.loader_parallel_batches.inc();
        }
        m.loader_docs.add(docs.len() as u64);
        m.loader_bytes.add(reservoir_bytes);
        m.loader_nanos.add(start.elapsed().as_nanos() as u64);
        m.loader_batch_docs.record(docs.len() as u64);
    }
    Ok(LoadReport {
        documents: docs.len() as u64,
        new_attributes: cat.attribute_count() as u64 - attrs_before,
    })
}

/// Parse newline-delimited JSON and load it; syntax errors abort with the
/// offending line number and absolute byte offset (the loader "parses each
/// document to ensure that its syntax is valid"). Nothing is inserted if
/// any line is malformed.
pub fn load_jsonl(db: &Database, cat: &Catalog, table: &str, input: &str) -> DbResult<LoadReport> {
    load_jsonl_with(db, cat, table, input, LoadOptions::default())
}

/// [`load_jsonl`] with explicit [`LoadOptions`].
pub fn load_jsonl_with(
    db: &Database,
    cat: &Catalog,
    table: &str,
    input: &str,
    opts: LoadOptions,
) -> DbResult<LoadReport> {
    load_jsonl_metered(db, cat, table, input, opts, None)
}

/// [`load_jsonl_with`] feeding throughput metrics (see
/// [`load_docs_metered`]); the parse phase is included in the timing.
pub fn load_jsonl_metered(
    db: &Database,
    cat: &Catalog,
    table: &str,
    input: &str,
    opts: LoadOptions,
    metrics: Option<&Metrics>,
) -> DbResult<LoadReport> {
    let parse_start = std::time::Instant::now();
    // Mirror `sinew_json::parse_many`'s line discipline (zero-based line
    // numbers, blank lines skipped, lines trimmed) while also tracking
    // each line's absolute byte offset for error reporting.
    let mut lines: Vec<(usize, usize, &str)> = Vec::new();
    let mut offset = 0usize;
    for (idx, line) in input.split('\n').enumerate() {
        let trimmed = line.trim();
        if !trimmed.is_empty() {
            let start = offset + (line.len() - line.trim_start().len());
            lines.push((idx, start, trimmed));
        }
        offset += line.len() + 1;
    }
    let parse_line = |&(idx, start, text): &(usize, usize, &str)| -> DbResult<Value> {
        sinew_json::parse(text).map_err(|e| {
            DbError::Parse(format!("line {idx}: {e} (byte offset {} in input)", start + e.offset))
        })
    };
    let threads = opts.effective_threads(lines.len());
    let docs: Vec<Value> = if threads <= 1 {
        lines.iter().map(parse_line).collect::<DbResult<_>>()?
    } else {
        par_map_chunks(&lines, threads, parse_line)?
    };
    if let Some(m) = metrics {
        m.loader_nanos.add(parse_start.elapsed().as_nanos() as u64);
    }
    load_docs_metered(db, cat, table, &docs, opts, metrics)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sinew_json::parse;
    use sinew_rdbms::{ColType, Datum};
    use sinew_serial::SType;

    fn setup() -> (Database, Catalog) {
        let db = Database::in_memory();
        let cat = Catalog::load(&db, Default::default()).unwrap();
        db.create_table("t", vec![("data".into(), ColType::Bytea)]).unwrap();
        cat.register_table(&db, "t").unwrap();
        (db, cat)
    }

    #[test]
    fn flat_document_roundtrips_through_reservoir() {
        let (db, cat) = setup();
        let doc = parse(r#"{"url": "example.com", "hits": 22, "ratio": 0.5, "ok": true}"#).unwrap();
        load_docs(&db, &cat, "t", &[doc]).unwrap();
        let row = db.get_row("t", 0).unwrap().unwrap();
        let Datum::Bytea(bytes) = &row[0] else { panic!() };
        let id = cat.lookup("hits", AttrType::Int).unwrap();
        assert_eq!(
            sformat::extract(bytes, id, SType::Int).unwrap(),
            Some(SValue::Int(22))
        );
        let id = cat.lookup("url", AttrType::Text).unwrap();
        assert_eq!(
            sformat::extract(bytes, id, SType::Text).unwrap(),
            Some(SValue::Text("example.com".into()))
        );
    }

    #[test]
    fn nested_objects_register_dotted_names() {
        let (db, cat) = setup();
        let doc = parse(r#"{"user": {"id": 7, "geo": {"lat": 1.5}}}"#).unwrap();
        load_docs(&db, &cat, "t", &[doc]).unwrap();
        assert!(cat.lookup("user", AttrType::Object).is_some());
        assert!(cat.lookup("user.id", AttrType::Int).is_some());
        assert!(cat.lookup("user.geo", AttrType::Object).is_some());
        assert!(cat.lookup("user.geo.lat", AttrType::Float).is_some());
        // nested doc physically contains the dotted attr
        let row = db.get_row("t", 0).unwrap().unwrap();
        let Datum::Bytea(bytes) = &row[0] else { panic!() };
        let user_id_attr = cat.lookup("user", AttrType::Object).unwrap();
        let nested = sformat::extract(bytes, user_id_attr, SType::Bytes).unwrap().unwrap();
        let SValue::Bytes(nested_bytes) = nested else { panic!() };
        let leaf = cat.lookup("user.id", AttrType::Int).unwrap();
        assert_eq!(
            sformat::extract(&nested_bytes, leaf, SType::Int).unwrap(),
            Some(SValue::Int(7))
        );
    }

    #[test]
    fn multi_typed_keys_get_two_attributes() {
        let (db, cat) = setup();
        let docs = vec![
            parse(r#"{"dyn1": 5}"#).unwrap(),
            parse(r#"{"dyn1": "five"}"#).unwrap(),
        ];
        load_docs(&db, &cat, "t", &docs).unwrap();
        assert_eq!(cat.ids_for_name("dyn1").len(), 2);
    }

    #[test]
    fn counts_accumulate_per_table() {
        let (db, cat) = setup();
        let docs: Vec<Value> = (0..5)
            .map(|i| parse(&format!(r#"{{"always": 1, "rare": {i}}}"#)).unwrap())
            .collect();
        let docs2 = vec![parse(r#"{"always": 9}"#).unwrap()];
        load_docs(&db, &cat, "t", &docs).unwrap();
        load_docs(&db, &cat, "t", &docs2).unwrap();
        let id = cat.lookup("always", AttrType::Int).unwrap();
        assert_eq!(cat.column_state("t", id).unwrap().count, 6);
        let id = cat.lookup("rare", AttrType::Int).unwrap();
        assert_eq!(cat.column_state("t", id).unwrap().count, 5);
    }

    #[test]
    fn null_values_register_nothing() {
        let (db, cat) = setup();
        load_docs(&db, &cat, "t", &[parse(r#"{"gone": null, "there": 1}"#).unwrap()]).unwrap();
        assert!(cat.ids_for_name("gone").is_empty());
        assert_eq!(cat.ids_for_name("there").len(), 1);
    }

    #[test]
    fn jsonl_load_reports_bad_line() {
        let (db, cat) = setup();
        let err = load_jsonl(&db, &cat, "t", "{\"a\":1}\nnot json\n").unwrap_err();
        assert!(matches!(err, DbError::Parse(m) if m.contains("line 1")));
        // nothing inserted on failure
        assert_eq!(db.row_count("t").unwrap(), 0);
        let ok = load_jsonl(&db, &cat, "t", "{\"a\":1}\n{\"a\":2}\n").unwrap();
        assert_eq!(ok.documents, 2);
        assert_eq!(db.row_count("t").unwrap(), 2);
    }

    #[test]
    fn jsonl_bad_line_mid_file_reports_line_and_byte_offset_loads_nothing() {
        let (db, cat) = setup();
        // line 0 is fine; line 1 (with leading indentation) is malformed;
        // line 2 would be fine — the whole load must abort atomically.
        let input = "{\"a\":1}\n  {\"b\": }\n{\"c\":3}\n";
        let err = load_jsonl(&db, &cat, "t", input).unwrap_err();
        let DbError::Parse(msg) = err else { panic!("expected parse error") };
        assert!(msg.contains("line 1"), "missing line number: {msg}");
        // The message carries both the parser's within-line offset
        // ("at byte N") and the absolute input offset ("byte offset M in
        // input"); they must differ by exactly the bad line's start
        // (8 bytes of line 0 + newline + 2 bytes of indentation = 10).
        let within: usize = pick_number(&msg, "at byte ");
        let absolute: usize = pick_number(&msg, "byte offset ");
        assert_eq!(absolute, within + 10, "bad absolute offset in: {msg}");
        assert_eq!(db.row_count("t").unwrap(), 0, "partial load leaked rows");
        assert!(cat.ids_for_name("c").is_empty(), "attribute registered by aborted load");
    }

    #[test]
    fn worker_panic_aborts_load_cleanly_and_leaves_table_untouched() {
        let (db, cat) = setup();
        // One poisoned document (see the test seam in `serialize_object`)
        // deep in the batch: the parallel encode worker that hits it
        // panics; the load must surface a clean error — no unwind into the
        // caller — and insert nothing.
        let mut docs: Vec<Value> =
            (0..100).map(|i| parse(&format!(r#"{{"a": {i}}}"#)).unwrap()).collect();
        docs[70] = parse(r#"{"a": 70, "__sinew_test_panic": true}"#).unwrap();
        let err =
            load_docs_with(&db, &cat, "t", &docs, LoadOptions { parallel: true, threads: 4 })
                .unwrap_err();
        assert!(
            matches!(err, DbError::Eval(ref m) if m.contains("panicked")),
            "unexpected error: {err:?}"
        );
        assert_eq!(db.row_count("t").unwrap(), 0, "partial load leaked rows");
        // per-table counts were never bumped for the aborted batch
        for (id, _) in cat.ids_for_name("a") {
            assert_eq!(cat.column_state("t", id).map(|cs| cs.count).unwrap_or(0), 0);
        }
        // and the same table accepts a clean load afterwards
        let ok = load_docs(&db, &cat, "t", &docs[..10]).unwrap();
        assert_eq!(ok.documents, 10);
        assert_eq!(db.row_count("t").unwrap(), 10);
    }

    fn pick_number(msg: &str, after: &str) -> usize {
        let at = msg.find(after).unwrap_or_else(|| panic!("no `{after}` in: {msg}")) + after.len();
        msg[at..]
            .chars()
            .take_while(|c| c.is_ascii_digit())
            .collect::<String>()
            .parse()
            .unwrap()
    }

    #[test]
    fn parallel_load_is_byte_identical_to_serial() {
        // Varied shapes: nested objects, arrays of objects, multi-typed
        // keys, literal-dot keys — everything that exercises intern order.
        let docs: Vec<Value> = (0..200)
            .map(|i| {
                let j = match i % 3 {
                    0 => format!(
                        r#"{{"a": {i}, "k{}": "v", "nest": {{"x{}": {}.5}}, "b.c": true}}"#,
                        i % 17,
                        i % 5,
                        i
                    ),
                    1 => format!(r#"{{"a": "s{i}", "arr": [{i}, {{"tag": "t{}"}}, [1]]}}"#, i % 4),
                    _ => format!(r#"{{"deep": {{"e": {{"f": {i}}}}}, "a": {}.25}}"#, i),
                };
                parse(&j).unwrap()
            })
            .collect();

        let (sdb, scat) = setup();
        load_docs_with(&sdb, &scat, "t", &docs, LoadOptions::serial()).unwrap();
        let (pdb, pcat) = setup();
        load_docs_with(&pdb, &pcat, "t", &docs, LoadOptions { parallel: true, threads: 4 })
            .unwrap();

        assert_eq!(scat.attribute_count(), pcat.attribute_count());
        assert_eq!(sdb.row_count("t").unwrap(), pdb.row_count("t").unwrap());
        for rid in 0..sdb.row_count("t").unwrap() {
            let s = sdb.get_row("t", rid).unwrap().unwrap();
            let p = pdb.get_row("t", rid).unwrap().unwrap();
            assert_eq!(s, p, "reservoir bytes diverge at row {rid}");
        }
        for name in ["a", "nest", "b.c", "deep.e.f", "arr", "arr.tag"] {
            let sids = scat.ids_for_name(name);
            assert_eq!(sids, pcat.ids_for_name(name), "ids diverge for {name}");
            for (id, _ty) in sids {
                assert_eq!(
                    scat.column_state("t", id).map(|cs| cs.count),
                    pcat.column_state("t", id).map(|cs| cs.count),
                    "count diverges for {name} id {id}"
                );
            }
        }
    }

    #[test]
    fn arrays_serialize_with_object_elements() {
        let (db, cat) = setup();
        let doc = parse(r#"{"tags": [1, "x", {"name": "n1"}, [2, 3]]}"#).unwrap();
        load_docs(&db, &cat, "t", &[doc]).unwrap();
        assert!(cat.lookup("tags", AttrType::Array).is_some());
        assert!(cat.lookup("tags.name", AttrType::Text).is_some());
        let row = db.get_row("t", 0).unwrap().unwrap();
        let Datum::Bytea(bytes) = &row[0] else { panic!() };
        let id = cat.lookup("tags", AttrType::Array).unwrap();
        let SValue::Bytes(arr) =
            sformat::extract(bytes, id, SType::Bytes).unwrap().unwrap()
        else {
            panic!()
        };
        let elems = crate::types::decode_array(&arr).unwrap();
        assert_eq!(elems.len(), 4);
        assert_eq!(elems[0], ArrayElem::Int(1));
        assert!(matches!(&elems[2], ArrayElem::Doc(_)));
        assert!(matches!(&elems[3], ArrayElem::Array(a) if a.len() == 2));
    }

    #[test]
    fn non_object_root_rejected() {
        let (db, cat) = setup();
        let err = load_docs(&db, &cat, "t", &[parse("[1,2]").unwrap()]).unwrap_err();
        assert!(matches!(err, DbError::Schema(_)));
    }
}
