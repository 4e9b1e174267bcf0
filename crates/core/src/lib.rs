//! # sinew-core
//!
//! **Sinew: A SQL System for Multi-Structured Data** (Tahara, Diamond,
//! Abadi — SIGMOD 2014): a layer above an unmodified RDBMS that lets users
//! issue standard SQL over schemaless JSON-like data.
//!
//! The user sees a *universal relation*: one logical column per distinct
//! (dot-flattened) key in the loaded data. Physically, every document lives
//! serialized in a single `data` BYTEA column — the **column reservoir** —
//! and a background pipeline promotes hot attributes to real columns:
//!
//! * the [loader](loader) serializes documents (paper §3.2.1, §4.1) and
//!   registers attributes in the [catalog](catalog) (§3.1.2);
//! * the [schema analyzer](analyzer) periodically picks attributes to
//!   materialize or demote (§3.1.3);
//! * the [column materializer](materializer) moves values between the
//!   reservoir and physical columns, incrementally, one atomic row update
//!   at a time (§3.1.4);
//! * the [query rewriter](rewriter) turns logical SQL into physical SQL —
//!   virtual columns become `extract_key_*` UDF calls, dirty columns become
//!   `COALESCE(col, extract_key_*(data, ...))` (§3.2.2);
//! * an optional [inverted text index](https://docs.rs/sinew-index)
//!   accelerates predicates and powers `matches(keys, query)` (§4.3).
//!
//! ```
//! use sinew_core::Sinew;
//! let sinew = Sinew::in_memory();
//! sinew.create_collection("webrequests").unwrap();
//! sinew.load_jsonl("webrequests", r#"
//!     {"url": "www.sample-site.com", "hits": 22, "avg_site_visit": 128.5, "country": "pl"}
//!     {"url": "www.sample-site2.com", "hits": 15, "ip": "123.45.67.89", "owner": "John P. Smith"}
//! "#).unwrap();
//! let r = sinew.query("SELECT url FROM webrequests WHERE hits > 20").unwrap();
//! assert_eq!(r.rows[0][0].display_text(), "www.sample-site.com");
//! ```

pub mod analyzer;
pub mod arrays;
pub mod background;
pub mod catalog;
pub mod extract;
pub mod loader;
pub mod materializer;
pub mod metrics;
pub mod plan;
pub mod rewriter;
pub mod types;
mod udfs;

pub use analyzer::{AnalyzerDecision, AnalyzerPolicy};
pub use background::{BackgroundConfig, BackgroundMaterializer};
pub use catalog::{AttrId, Catalog, ColumnState};
pub use extract::Want;
pub use loader::{LoadOptions, LoadReport};
pub use materializer::{MaterializerReport, StepBudget};
pub use metrics::{ColumnarStoreReport, IndexReport, Metrics, MetricsSnapshot, StorageReport};
pub use plan::{ExtractionPlan, ResolvedPath};
pub use types::AttrType;

use parking_lot::{Mutex, RwLock};
use sinew_index::TextIndex;
use sinew_json::Value;
use rewriter::RowIdSetHandles;
use sinew_rdbms::{ColType, Database, Datum, DbError, DbResult, Derive, Prepared, QueryResult};
use sinew_sql::Statement;
use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Statement texts [`Sinew::query`] keeps prepared; the map is emptied when
/// it reaches this many.
const PREPARED_CAPACITY: usize = 1024;

/// One logical column of the universal-relation view.
#[derive(Debug, Clone, PartialEq)]
pub struct LogicalColumn {
    pub name: String,
    pub ty: AttrType,
    pub count: u64,
    pub materialized: bool,
    pub dirty: bool,
}

/// The Sinew system: an RDBMS plus the schema-free layer above it.
pub struct Sinew {
    db: Arc<Database>,
    catalog: Arc<Catalog>,
    /// Loader ⟷ materializer mutual exclusion (the catalog latch of
    /// §3.1.4: "The materializer and loader are not allowed to run
    /// concurrently (which we implement via a latch in the catalog)").
    load_latch: Arc<Mutex<()>>,
    /// Optional per-collection text indexes (§4.3), each with the row id
    /// below which every row is already indexed.
    indexes: RwLock<HashMap<String, (Arc<TextIndex>, u64)>>,
    /// Row-id sets produced by rewrite-time text-index searches, shared
    /// with the `__sinew_rowid_set` UDF, which clones one when it binds.
    rowid_sets: udfs::RowIdSets,
    /// Resumable materializer cursors per (table, attribute).
    cursors: Mutex<HashMap<(String, AttrId), materializer::MoveCursor>>,
    /// Lock-free runtime counters, shared with the UDFs, loader, rewriter,
    /// materializer, analyzer and background workers.
    metrics: Arc<Metrics>,
    set_counter: Mutex<u64>,
    /// Array keys mirrored into element side-tables (paper §4.2), with the
    /// high-water row id already backfilled.
    element_tables: Mutex<HashMap<(String, String), u64>>,
    /// Prepared statements by their exact SQL text (DESIGN.md §23).
    prepared: RwLock<HashMap<String, Arc<Prepared>>>,
}

impl Sinew {
    /// In-memory Sinew (tests, examples).
    pub fn in_memory() -> Sinew {
        Sinew::with_db(Database::in_memory())
    }

    /// File-backed Sinew with a bounded buffer pool and optional simulated
    /// I/O latency (see DESIGN.md on the I/O-bound regime). An existing
    /// file comes back with its collections: documents and physical columns
    /// from the database, the dictionary and every column's state from the
    /// catalog mirror ([`Catalog::load`]). Materializer cursors restart at
    /// row 0 (a pass is idempotent); text indexes and element tables are
    /// not persisted and must be enabled again.
    pub fn open(path: &Path, pool_pages: usize, io_delay: Option<Duration>) -> DbResult<Sinew> {
        Sinew::try_with_db(Database::open(path, pool_pages, io_delay)?)
    }

    /// Sinew over `db`, new or recovered.
    ///
    /// # Panics
    /// If `db` holds catalog mirror tables that cannot be read back.
    pub fn with_db(db: Database) -> Sinew {
        Sinew::try_with_db(db).expect("catalog loads from its mirror tables")
    }

    fn try_with_db(db: Database) -> DbResult<Sinew> {
        let db = Arc::new(db);
        let metrics = Arc::new(Metrics::default());
        let catalog = Arc::new(Catalog::load(&db, metrics.clone())?);
        let rowid_sets = udfs::RowIdSets::default();
        udfs::install(&db, &catalog, &rowid_sets, &metrics)?;
        // Version reclamation for quiescent periods; holds only a Weak on
        // the database, so it dies with the last strong reference.
        background::spawn_vacuum(&db, &metrics);
        Ok(Sinew {
            db,
            catalog,
            load_latch: Arc::new(Mutex::new(())),
            indexes: RwLock::new(HashMap::new()),
            rowid_sets,
            cursors: Mutex::new(HashMap::new()),
            metrics,
            set_counter: Mutex::new(0),
            element_tables: Mutex::new(HashMap::new()),
            prepared: RwLock::new(HashMap::new()),
        })
    }

    /// The underlying RDBMS (benchmarks and tests reach through here).
    pub fn db(&self) -> &Database {
        &self.db
    }

    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Runtime metrics for this instance (lock-free; see [`metrics`]).
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Structured per-table storage introspection: physical vs virtual
    /// columns with density/cardinality, dirty-column cursors, byte
    /// footprints and background-worker state.
    pub fn storage_report(&self, table: &str) -> DbResult<StorageReport> {
        metrics::storage_report(self, table)
    }

    // ---- collections ----

    /// Create a collection: one RDBMS table holding only the column
    /// reservoir, plus its catalog mirror. The mirror commits first, so a
    /// crash between the two commits recovers a mirror without its table,
    /// and a retry of this call completes the collection.
    pub fn create_collection(&self, name: &str) -> DbResult<()> {
        if name.starts_with("_sinew") {
            return Err(DbError::Schema("collection names starting with _sinew are reserved".into()));
        }
        if self.db.table_names().iter().any(|t| t == name) {
            return Err(DbError::Schema(format!("table {name} already exists")));
        }
        self.catalog.register_table(&self.db, name)?;
        self.db.create_table(name, vec![("data".into(), ColType::Bytea)])
    }

    /// Registered Sinew collections (raw RDBMS tables are excluded — the
    /// rewriter leaves those untouched, which is how Sinew "interacts
    /// transparently with structured data already stored in the RDBMS",
    /// paper §7).
    pub fn collections(&self) -> Vec<String> {
        self.db
            .table_names()
            .into_iter()
            .filter(|t| self.catalog.is_collection(t))
            .collect()
    }

    /// The logical (universal-relation) schema of a collection: one column
    /// per registered attribute, orderd by attribute id.
    pub fn logical_schema(&self, table: &str) -> Vec<LogicalColumn> {
        self.catalog
            .table_state(table)
            .into_iter()
            .filter_map(|(id, st)| {
                let (name, ty) = self.catalog.attr_info(id)?;
                Some(LogicalColumn {
                    name,
                    ty,
                    count: st.count,
                    materialized: st.materialized,
                    dirty: st.dirty,
                })
            })
            .collect()
    }

    // ---- loading ----

    /// Bulk-load newline-delimited JSON.
    pub fn load_jsonl(&self, table: &str, input: &str) -> DbResult<LoadReport> {
        self.load_jsonl_with(table, input, LoadOptions::default())
    }

    /// [`Self::load_jsonl`] with explicit loader tuning (serial vs
    /// parallel parse + serialization).
    pub fn load_jsonl_with(
        &self,
        table: &str,
        input: &str,
        opts: LoadOptions,
    ) -> DbResult<LoadReport> {
        let _latch = self.load_latch.lock();
        let report =
            loader::load_jsonl_metered(&self.db, &self.catalog, table, input, opts, Some(&self.metrics))?;
        self.index_new_rows(table)?;
        self.refresh_element_tables(table)?;
        Ok(report)
    }

    /// Bulk-load parsed documents.
    pub fn load_docs(&self, table: &str, docs: &[Value]) -> DbResult<LoadReport> {
        self.load_docs_with(table, docs, LoadOptions::default())
    }

    /// [`Self::load_docs`] with explicit loader tuning.
    pub fn load_docs_with(
        &self,
        table: &str,
        docs: &[Value],
        opts: LoadOptions,
    ) -> DbResult<LoadReport> {
        let _latch = self.load_latch.lock();
        let report =
            loader::load_docs_metered(&self.db, &self.catalog, table, docs, opts, Some(&self.metrics))?;
        self.index_new_rows(table)?;
        self.refresh_element_tables(table)?;
        Ok(report)
    }

    /// Opt an array key into the separate element-table mapping (§4.2).
    pub fn enable_element_table(&self, table: &str, key: &str) -> DbResult<u64> {
        arrays::enable_element_table(self, table, key)
    }

    pub(crate) fn register_element_table(&self, table: &str, key: &str) {
        let high = self.db.high_water(table).unwrap_or(0);
        self.element_tables
            .lock()
            .insert((table.to_string(), key.to_string()), high);
    }

    fn refresh_element_tables(&self, table: &str) -> DbResult<()> {
        let keys: Vec<(String, u64)> = self
            .element_tables
            .lock()
            .iter()
            .filter(|((t, _), _)| t == table)
            .map(|((_, k), hw)| (k.clone(), *hw))
            .collect();
        if keys.is_empty() {
            return Ok(());
        }
        let new_high = self.db.high_water(table)?;
        for (key, from) in keys {
            let side = arrays::element_table_name(table, &key);
            arrays::backfill(&self.db, &self.catalog, table, &key, &side, from)?;
            self.element_tables
                .lock()
                .insert((table.to_string(), key.clone()), new_high);
        }
        Ok(())
    }

    // ---- text index (§4.3) ----

    /// Enable the inverted text index for a collection; existing rows are
    /// indexed immediately, subsequent loads incrementally. The index holds
    /// each document as it was loaded: row ids survive an `UPDATE`, so an
    /// updated document keeps matching its old text and never its new text
    /// (enabling the index again rebuilds it from the current documents).
    pub fn enable_text_index(&self, table: &str) -> DbResult<()> {
        let _latch = self.load_latch.lock();
        self.indexes.write().insert(table.to_string(), (Arc::new(TextIndex::new()), 0));
        self.index_new_rows(table)
    }

    pub fn text_index(&self, table: &str) -> Option<Arc<TextIndex>> {
        self.indexes.read().get(table).map(|(idx, _)| idx.clone())
    }

    /// Feed the text index the rows it has not seen: those at or above the
    /// collection's indexed mark, so never a row an `UPDATE` changed since.
    /// Called under the load latch.
    fn index_new_rows(&self, table: &str) -> DbResult<()> {
        let Some((idx, from)) = self.indexes.read().get(table).cloned() else { return Ok(()) };
        let high = self.db.high_water(table)?;
        for rowid in from..high {
            if let Some(row) = self.db.get_row(table, rowid)? {
                if let Some(Datum::Bytea(bytes)) = row.first() {
                    index_doc(&self.catalog, &idx, rowid, bytes, "");
                }
            }
        }
        if let Some((_, mark)) = self.indexes.write().get_mut(table) {
            *mark = high;
        }
        Ok(())
    }

    /// Register a row-id set for `__sinew_rowid_set` and return its handle.
    pub(crate) fn register_rowid_set(&self, rows: HashSet<i64>) -> String {
        let mut n = self.set_counter.lock();
        *n += 1;
        let handle = format!("h{}", *n);
        self.rowid_sets.write().insert(handle.clone(), Arc::new(rows));
        handle
    }

    // ---- queries ----

    /// The prepared form of `sql`: from the statement map when the text is
    /// there, else parsed, rewritten and prepared now and kept — unless its
    /// rewrite registered a `matches()` row-id set, whose statement runs once
    /// (DESIGN.md §23). Handles of registered sets are pushed to `sets`.
    fn prepare(&self, sql: &str, sets: &RowIdSetHandles) -> DbResult<Arc<Prepared>> {
        if let Some(p) = self.prepared.read().get(sql) {
            self.metrics.statement_cache_hits.inc();
            return Ok(p.clone());
        }
        let p = Arc::new(self.db.prepare_with(&|| self.derive(sql, sets))?);
        self.metrics.statements_prepared.inc();
        if sets.borrow().is_empty() {
            let mut map = self.prepared.write();
            if map.len() >= PREPARED_CAPACITY {
                map.clear();
            }
            map.insert(sql.to_string(), p.clone());
        }
        Ok(p)
    }

    /// The physical statement `sql` stands for under the catalog as it is
    /// now: parsed and rewritten, each phase timed. The engine calls this
    /// after reading the plan epoch (DESIGN.md §23).
    fn derive(&self, sql: &str, sets: &RowIdSetHandles) -> DbResult<Statement> {
        let m = &self.metrics;
        let stmt = timed(&m.parse_ns, || {
            sinew_sql::parse_statement(sql).map_err(|e| DbError::Parse(e.to_string()))
        })?;
        timed(&m.rewrite_ns, || rewriter::rewrite_noting_sets(self, &stmt, sets))
    }

    /// Run `f` over the prepared form of `sql`, handing it the way to derive
    /// the statement again when a stamp turns out stale. The row-id sets
    /// that either derivation registered are this call's: it removes them
    /// when `f` returns, with a result or an error.
    fn with_prepared<T>(
        &self,
        sql: &str,
        f: impl FnOnce(&Prepared, Derive<'_>) -> DbResult<T>,
    ) -> DbResult<T> {
        let sets = RefCell::default();
        let again = || {
            self.metrics.statements_reprepared.inc();
            self.derive(sql, &sets)
        };
        let out = self.prepare(sql, &sets).and_then(|p| {
            if p.has_plan() {
                self.metrics.queries_rewritten.inc();
            }
            f(&p, &again)
        });
        let sets = sets.into_inner();
        if !sets.is_empty() {
            let mut registered = self.rowid_sets.write();
            for handle in &sets {
                registered.remove(handle);
            }
        }
        out
    }

    /// Execute logical SQL: rewrite against the catalog, then run on the
    /// RDBMS. This is the paper's end-to-end query path; a text run before
    /// is neither parsed, rewritten nor planned again while what it was
    /// prepared from stands.
    pub fn query(&self, sql: &str) -> DbResult<QueryResult> {
        self.with_prepared(sql, |p, derive| self.db.run_with(p, derive))
    }

    /// Rewrite only — returns the physical SQL text (for inspection, tests,
    /// and the paper's §3.2.2 examples).
    pub fn rewrite(&self, sql: &str) -> DbResult<String> {
        self.with_prepared(sql, |p, derive| {
            self.db.refresh(p, derive)?;
            Ok(p.statement().to_string())
        })
    }

    /// EXPLAIN the rewritten query.
    pub fn explain(&self, sql: &str) -> DbResult<String> {
        let r = self.query(&format!("EXPLAIN {sql}"))?;
        Ok(r.rows.iter().map(|row| row[0].display_text()).collect::<Vec<_>>().join("\n"))
    }

    // ---- analyzer + materializer ----

    /// Run the schema analyzer over one collection (paper §3.1.3): marks
    /// columns for (de)materialization and creates physical columns.
    pub fn run_analyzer(&self, table: &str, policy: &AnalyzerPolicy) -> DbResult<Vec<AnalyzerDecision>> {
        analyzer::run(self, table, policy)
    }

    /// One bounded materializer step (paper §3.1.4). Returns what moved.
    pub fn materialize_step(&self, table: &str, budget: StepBudget) -> DbResult<MaterializerReport> {
        materializer::run_step(self, table, budget)
    }

    /// Drive the materializer until no dirty columns remain.
    pub fn materialize_until_clean(&self, table: &str) -> DbResult<MaterializerReport> {
        materializer::run_until_clean(self, table)
    }

    pub(crate) fn load_latch(&self) -> &Mutex<()> {
        &self.load_latch
    }

    pub(crate) fn cursors(&self) -> &Mutex<HashMap<(String, AttrId), materializer::MoveCursor>> {
        &self.cursors
    }
}

/// `f()`, its duration recorded in `h` in nanoseconds.
fn timed<T>(h: &metrics::Histogram, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    h.record(start.elapsed().as_nanos() as u64);
    out
}

/// Feed one document's scalar leaves into the text index, faceted by
/// attribute name (recursing through nested objects).
fn index_doc(cat: &Catalog, idx: &TextIndex, rowid: u64, bytes: &[u8], _prefix: &str) {
    let Ok(pairs) = sinew_serial::sinew::iter_raw(bytes) else { return };
    for (id, raw) in pairs {
        let Some((name, ty)) = cat.attr_info(id) else { continue };
        match ty {
            AttrType::Text => {
                if let Ok(sinew_serial::SValue::Text(s)) =
                    sinew_serial::sinew::decode_value(raw, sinew_serial::SType::Text)
                {
                    idx.add_text(&name, rowid, &s);
                }
            }
            AttrType::Int => {
                if let Ok(sinew_serial::SValue::Int(i)) =
                    sinew_serial::sinew::decode_value(raw, sinew_serial::SType::Int)
                {
                    idx.add_number(&name, rowid, i as f64);
                }
            }
            AttrType::Float => {
                if let Ok(sinew_serial::SValue::Float(f)) =
                    sinew_serial::sinew::decode_value(raw, sinew_serial::SType::Float)
                {
                    idx.add_number(&name, rowid, f);
                }
            }
            AttrType::Bool => {}
            AttrType::Object => index_doc(cat, idx, rowid, raw, &name),
            AttrType::Array => {
                if let Some(elems) = types::decode_array(raw) {
                    index_array(cat, idx, rowid, &name, &elems);
                }
            }
        }
    }
}

fn index_array(
    cat: &Catalog,
    idx: &TextIndex,
    rowid: u64,
    field: &str,
    elems: &[types::ArrayElem],
) {
    for e in elems {
        match e {
            types::ArrayElem::Text(s) => idx.add_text(field, rowid, s),
            types::ArrayElem::Int(i) => idx.add_number(field, rowid, *i as f64),
            types::ArrayElem::Float(f) => idx.add_number(field, rowid, *f),
            types::ArrayElem::Doc(b) => index_doc(cat, idx, rowid, b, field),
            types::ArrayElem::Array(inner) => index_array(cat, idx, rowid, field, inner),
            _ => {}
        }
    }
}
