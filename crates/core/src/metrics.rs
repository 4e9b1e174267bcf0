//! Observability: lock-free runtime metrics plus per-table storage
//! introspection.
//!
//! The analyzer → materializer loop (paper §3.1.3–3.1.4) makes storage-
//! layout decisions continuously; this module makes those decisions — and
//! the hot paths they steer — observable without perturbing them:
//!
//! * [`Metrics`] — the Sinew layer's counter table (one row per counter,
//!   see [`sinew_rdbms::counters`]; the engine's own table is
//!   `sinew_rdbms::exec::ExecStats`). One instance per [`Sinew`], shared
//!   with the extraction UDFs, the loader, the rewriter, the
//!   materializer, the analyzer and the background worker.
//!   [`Metrics::snapshot`] captures every counter into a plain
//!   [`MetricsSnapshot`].
//! * [`StorageReport`] — a structured per-table report mapping directly to
//!   the paper's §3.1 components: physical vs virtual columns (the §3.1.1
//!   hybrid split) with density and sampled cardinality (the §3.1.3
//!   analyzer inputs), dirty columns with materializer cursor positions
//!   (§3.1.4 incremental movement), reservoir vs column byte footprints
//!   and background-worker state. Built by [`Sinew::storage_report`],
//!   rendered by [`StorageReport::render_text`]
//!   and [`StorageReport::to_json`], whose counter sections are the two
//!   tables' walks — neither names a counter.

use crate::analyzer;
use crate::types::AttrType;
use crate::Sinew;
use sinew_json::Value;
pub use sinew_rdbms::counters::{Counter, Histogram};
use sinew_rdbms::counters::{Entry, Sample};
use sinew_rdbms::{DbError, DbResult};

sinew_rdbms::counter_table! {
    /// Every runtime counter of one `Sinew` instance. Incremented from the
    /// hot paths listed per row; read via [`Metrics::snapshot`].
    live Metrics;
    /// A plain-data copy of [`Metrics`] at one point in time.
    snapshot MetricsSnapshot;

    // -- path resolution (udfs.rs) --
    // `sinewbench/src/sut.rs` (frozen) reads these three by field name.
    // Only `plan_cache_misses` still counts; the other two go, and this one
    // is renamed, with the `sinewbench` v2 item of ROADMAP.md.
    /// Never incremented: there is no cache to hit since extraction plans
    /// live in the bound call (DESIGN.md §22).
    plan_cache plan_cache_hits: counter,
    /// Path resolutions (`ExtractionPlan`s built):
    /// one per bind of an extraction call site — once per statement over a
    /// single relation, once per join candidate the planner costs for a
    /// conjunct that spans relations — and one per *call* on the unbound
    /// fallback (a non-literal path in raw SQL).
    plan_cache plan_cache_misses: counter,
    /// Never incremented: a bound plan is never revalidated.
    plan_cache plan_cache_stale_rebuilds: counter,

    // -- extraction UDFs (udfs.rs) --
    /// Per-tuple `extract_key_*` invocations: values decoded, one per key
    /// per row that reaches the call. A row a scan served unread reaches
    /// it with a NULL reservoir and counts too (DESIGN.md §33), though
    /// nothing is decoded.
    udf udf_extractions: counter,
    /// Never incremented: there is no multi-key extraction call since the
    /// rewriter stopped fusing (DESIGN.md §25). Kept, reading 0, because
    /// `sinewbench/src/sut.rs` (frozen) reads it by field name; goes with
    /// the `sinewbench` v2 item of ROADMAP.md.
    udf udf_fused_extractions: counter,
    /// Per-tuple `exists_key` invocations.
    udf udf_exists_probes: counter,
    /// Per-tuple value tests: predicates over a bound extraction that the
    /// planner handed to it, answered from the serialized value without
    /// decoding it (DESIGN.md §27). A value tested is not counted in
    /// `udf_extractions`.
    udf udf_value_tests: counter,

    // -- rewriter (rewriter.rs) --
    /// Logical `SELECT`, `UPDATE` and `DELETE` statements (`EXPLAIN` of one
    /// included) rewritten to physical SQL: one per `Sinew::query`,
    /// `rewrite` or `explain` call that prepares, whether its text was
    /// prepared already or not, and one per `rewriter::rewrite_statement`.
    rewriter queries_rewritten: counter,
    /// Column references that passed through as clean physical columns.
    rewriter rewritten_physical_refs: counter,
    /// Column references rewritten to pure extraction (virtual columns).
    rewriter rewritten_virtual_refs: counter,
    /// Column references rewritten to `COALESCE(col, extract…)` (dirty).
    rewriter rewritten_coalesce_refs: counter,
    /// Never incremented, for the same reason as `udf_fused_extractions`
    /// and kept for the same reader.
    rewriter rewritten_fused_bindings: counter,

    // -- prepared statements (lib.rs, DESIGN.md §23) --
    /// Statement texts parsed, rewritten and planned because the statement
    /// map did not hold them.
    statements statements_prepared: counter,
    /// Lookups that found the text prepared already.
    statements statement_cache_hits: counter,
    /// Runs that found a stamp stale — the plan epoch or a table's size
    /// class had moved since the text was prepared — and prepared it again.
    statements statements_reprepared: counter,
    /// Nanoseconds parsing a statement text, per preparation (first or
    /// again). Planning is the engine's `plan_ns`.
    statements parse_ns: histogram,
    /// Nanoseconds rewriting a parsed statement, per preparation.
    statements rewrite_ns: histogram,

    // -- loader (loader.rs) --
    /// Bulk-load batches completed.
    loader loader_batches: counter,
    /// Batches that used the parallel encode phase.
    loader loader_parallel_batches: counter,
    /// Documents loaded.
    loader loader_docs: counter,
    /// Catalog rows written (catalog.rs): dictionary rows plus inserted or
    /// updated `_sinew_cols_<table>` rows. Over `loader_docs`: what a loaded
    /// document costs the catalog mirror.
    loader catalog_rows_written: counter,
    /// Reservoir bytes produced by serialization.
    loader loader_bytes: counter,
    /// Wall-clock nanoseconds spent in bulk loads (throughput denominator).
    loader loader_nanos: counter,
    /// Distribution of batch sizes (documents per load call).
    loader loader_batch_docs: histogram,

    // -- materializer (materializer.rs) --
    /// Bounded steps executed.
    materializer materializer_steps: counter,
    /// Rows examined across all steps, each once per step however many
    /// attributes moved on it.
    materializer materializer_rows_scanned: counter,
    /// Values moved reservoir → physical column.
    materializer materializer_values_materialized: counter,
    /// Values moved physical column → reservoir (dematerialization).
    materializer materializer_values_dematerialized: counter,
    /// Full passes that completed and cleaned their column.
    materializer materializer_passes_completed: counter,
    /// Dematerialize passes that finished their scan but refused to drop
    /// the column because values could not be restored (owner document
    /// missing or not a document). The column stays dirty.
    materializer materializer_passes_deferred: counter,
    /// Rows whose column value could not be restored during deferred
    /// dematerialize passes (each deferral adds its stranded-row count).
    materializer materializer_rows_stranded: counter,
    /// Secondary indexes auto-created when a promotion pass completed on a
    /// scalar column whose sampled cardinality cleared the auto-index bar.
    materializer materializer_indexes_created: counter,
    /// Columnar segment stores built when a promotion pass completed
    /// (dematerialization drops them together with the column).
    materializer materializer_columnar_built: counter,
    /// Transactional steps aborted by a first-writer-wins conflict with a
    /// foreground writer (the batch rolled back and was retried from the
    /// saved cursor).
    materializer materializer_txn_conflicts: counter,
    /// Distribution of rows examined per step.
    materializer materializer_step_rows: histogram,

    // -- analyzer (analyzer.rs) --
    /// Analyzer passes run.
    analyzer analyzer_runs: counter,
    /// Rows sampled for cardinality estimation.
    analyzer analyzer_rows_sampled: counter,
    /// Materialize decisions taken.
    analyzer analyzer_materialize_decisions: counter,
    /// Dematerialize decisions taken.
    analyzer analyzer_dematerialize_decisions: counter,

    // -- background worker (background.rs) --
    /// Currently running background materializer threads (gauge).
    background background_workers_active: counter,
    /// Materializer steps driven by background workers.
    background background_steps: counter,
    /// Background step errors (table dropped, transient failures).
    background background_errors: counter,
    /// Version-reclamation passes run by the background vacuum thread.
    background background_vacuum_passes: counter,
}

impl MetricsSnapshot {
    /// Loader throughput in documents per second (0.0 before any load).
    pub fn loader_docs_per_sec(&self) -> f64 {
        if self.loader_nanos == 0 {
            0.0
        } else {
            self.loader_docs as f64 / (self.loader_nanos as f64 / 1e9)
        }
    }

    /// The table walk followed by the derived rate.
    pub fn walk_with_rates(&self) -> Vec<Entry> {
        let mut out = self.walk();
        out.push(("loader", "loader_docs_per_sec", Sample::Float(self.loader_docs_per_sec())));
        out
    }
}

/// A counter walk as a JSON object keyed by counter name.
fn json_object(walk: Vec<Entry>) -> Value {
    let int = |n: u64| Value::Int(n as i64);
    Value::Object(
        walk.into_iter()
            .map(|(_, name, value)| {
                let value = match value {
                    Sample::Int(n) => int(n),
                    Sample::Float(x) => Value::Float(x),
                    Sample::Buckets(b) => Value::Array(b.into_iter().map(int).collect()),
                };
                (name.to_string(), value)
            })
            .collect(),
    )
}

/// Which way the materializer is moving a dirty column (§3.1.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MoveDirection {
    /// Reservoir → physical column.
    Materialize,
    /// Physical column → reservoir.
    Dematerialize,
}

/// Materializer progress on one dirty column.
#[derive(Debug, Clone, PartialEq)]
pub struct CursorReport {
    /// Next row id the materializer will examine.
    pub position: u64,
    /// Row-id high-water mark the pass runs to.
    pub high_water: u64,
    pub direction: MoveDirection,
    /// Rows whose value could not be restored so far (dematerialize only).
    pub stranded: u64,
}

/// One attribute of the universal relation, as stored right now.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnReport {
    pub name: String,
    pub ty: AttrType,
    /// Documents containing this attribute.
    pub count: u64,
    /// `count / rows` — the §3.1.3 density signal.
    pub density: f64,
    /// Distinct values over the report's row sample — the §3.1.3
    /// cardinality signal.
    pub distinct_sampled: u64,
    pub materialized: bool,
    pub dirty: bool,
    /// Physical column name used when (or if) materialized.
    pub column_name: String,
    /// Present while the materializer is mid-pass on this column.
    pub cursor: Option<CursorReport>,
}

/// One secondary B-tree index on a physical column of the table.
#[derive(Debug, Clone, PartialEq)]
pub struct IndexReport {
    pub name: String,
    /// Physical column the index covers.
    pub column: String,
    /// Live (key, rowid) entries.
    pub key_count: u64,
    /// Pager pages the index occupies.
    pub pages: u64,
    /// Bytes those pages amount to.
    pub bytes: u64,
}

/// One columnar segment store on a promoted column of the table.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnarStoreReport {
    /// Physical column the store covers.
    pub column: String,
    /// Row-range segments ([`sinew_rdbms`] SEG_ROWS rowids each).
    pub segments: u64,
    /// Bytes the encoded segments occupy (encodings + bitmaps).
    pub encoded_bytes: u64,
    /// Bytes the live values would occupy unencoded.
    pub raw_bytes: u64,
    /// Segment counts per encoding, e.g. `"packed-int:3 plain:1"`.
    pub encodings: String,
}

impl ColumnarStoreReport {
    /// Raw-to-encoded compression ratio (1.0 when nothing is stored).
    pub fn compression(&self) -> f64 {
        if self.encoded_bytes == 0 {
            1.0
        } else {
            self.raw_bytes as f64 / self.encoded_bytes as f64
        }
    }
}

/// Structured per-table storage introspection (see module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct StorageReport {
    pub table: String,
    pub rows: u64,
    /// Attributes whose physical column currently exists in the RDBMS
    /// schema (clean physical, materializing, or dematerializing).
    pub physical_columns: Vec<ColumnReport>,
    /// Attributes living only in the column reservoir.
    pub virtual_columns: Vec<ColumnReport>,
    /// Secondary B-tree indexes on the table's physical columns (manual
    /// `CREATE INDEX` or auto-created on promotion).
    pub indexes: Vec<IndexReport>,
    /// Columnar segment stores on promoted columns (built on promotion
    /// completion, dropped with the column on dematerialization).
    pub columnar: Vec<ColumnarStoreReport>,
    /// Bytes held in the `data` reservoir column.
    pub reservoir_bytes: u64,
    /// Bytes held in materialized physical columns.
    pub column_bytes: u64,
    /// Bytes the table's heap page synopsis holds in memory (DESIGN.md
    /// §32): 128 per data page that has held a tuple. Not stored; rebuilt
    /// on open.
    pub synopsis_bytes: u64,
    /// Data pages of the table's heap, those on its free list included
    /// (DESIGN.md §34).
    pub heap_pages: u64,
    /// Heap data pages on the free list: no version is left on them, and
    /// the next placements re-initialise them before a page is allocated.
    pub heap_free_pages: u64,
    /// Live tuple payload bytes of the heap: what its pages would hold
    /// with no dead version and no slack.
    pub heap_live_bytes: u64,
    /// Rows sampled for the per-column cardinality estimates.
    pub sampled_rows: u64,
    /// RDBMS executor counters (morsel-parallel scan pipeline): parallel
    /// vs serial scans, morsels dispatched, worker spawns, rows/morsel
    /// histogram.
    pub exec: sinew_rdbms::ExecSnapshot,
    /// Buffer-pool I/O since the database opened (or its last
    /// `reset_io_stats`), `scan_reads` included.
    pub io: sinew_rdbms::pager::IoSnapshot,
    /// Instance-wide counters at report time.
    pub metrics: MetricsSnapshot,
}

/// Cardinality sampling ceiling for reports: enough rows for a useful
/// distinct estimate without turning introspection into a table scan of
/// the reservoir decoder.
const REPORT_SAMPLE_ROWS: u64 = 10_000;

pub(crate) fn storage_report(sinew: &Sinew, table: &str) -> DbResult<StorageReport> {
    // The report takes many independent short locks (catalog state, heap
    // scan, index stats, columnar stats); a promotion or demotion landing
    // between two of them would mix pre- and post-movement states in one
    // report. Pin the plan epoch instead of the locks: if the schema
    // moved while we were collecting, collect again. Bounded retries — a
    // continuously-churning materializer should degrade to a best-effort
    // report, not an unbounded introspection loop.
    let cat = sinew.catalog();
    for _ in 0..3 {
        let epoch = cat.epoch();
        let report = storage_report_once(sinew, table)?;
        if cat.epoch() == epoch {
            return Ok(report);
        }
    }
    storage_report_once(sinew, table)
}

fn storage_report_once(sinew: &Sinew, table: &str) -> DbResult<StorageReport> {
    let db = sinew.db();
    let cat = sinew.catalog();
    if !cat.is_collection(table) {
        return Err(DbError::NotFound(format!("collection {table}")));
    }
    let rows = db.row_count(table)?;
    let high_water = db.high_water(table)?;
    let state = cat.table_state(table);
    let ids: Vec<crate::catalog::AttrId> = state.iter().map(|(id, _)| *id).collect();
    let (cardinality, sampled_rows) =
        analyzer::estimate_cardinality(sinew, table, &ids, REPORT_SAMPLE_ROWS)?;

    // One scan for the byte split: reservoir vs physical columns.
    let schema = db.schema(table)?;
    let live_names: Vec<String> = schema.live_columns().map(|(_, c)| c.name.clone()).collect();
    let data_idx = live_names
        .iter()
        .position(|n| n == "data")
        .ok_or_else(|| DbError::Schema(format!("collection {table} lacks a data column")))?;
    let mut reservoir_bytes = 0u64;
    let mut column_bytes = 0u64;
    db.scan_rows(table, &mut |_, row| {
        for (i, d) in row.iter().enumerate() {
            if d.is_null() {
                continue;
            }
            if i == data_idx {
                reservoir_bytes += d.width() as u64;
            } else {
                column_bytes += d.width() as u64;
            }
        }
        Ok(true)
    })?;

    let cursors = sinew.cursors().lock();
    let mut physical_columns = Vec::new();
    let mut virtual_columns = Vec::new();
    for (id, st) in &state {
        let Some((name, ty)) = cat.attr_info(*id) else { continue };
        let column_exists = schema.index_of(&st.column_name).is_some();
        let cursor = if st.dirty {
            let c = cursors.get(&(table.to_string(), *id)).copied().unwrap_or_default();
            Some(CursorReport {
                position: c.pos,
                high_water,
                direction: if st.materialized {
                    MoveDirection::Materialize
                } else {
                    MoveDirection::Dematerialize
                },
                stranded: c.stranded,
            })
        } else {
            None
        };
        let report = ColumnReport {
            name,
            ty,
            count: st.count,
            density: if rows == 0 { 0.0 } else { st.count as f64 / rows as f64 },
            distinct_sampled: cardinality.get(id).copied().unwrap_or(0),
            materialized: st.materialized,
            dirty: st.dirty,
            column_name: st.column_name.clone(),
            cursor,
        };
        if column_exists {
            physical_columns.push(report);
        } else {
            virtual_columns.push(report);
        }
    }
    drop(cursors);

    let indexes = db
        .index_infos(table)?
        .into_iter()
        .map(|i| IndexReport {
            name: i.name,
            column: i.column,
            key_count: i.key_count,
            pages: i.pages,
            bytes: i.bytes,
        })
        .collect();

    let columnar = db
        .columnar_infos(table)?
        .into_iter()
        .map(|c| ColumnarStoreReport {
            column: c.column,
            segments: c.segments,
            encoded_bytes: c.encoded_bytes,
            raw_bytes: c.raw_bytes,
            encodings: c.encodings,
        })
        .collect();

    let (heap_pages, heap_free_pages) = db.table_data_pages(table)?;
    Ok(StorageReport {
        table: table.to_string(),
        rows,
        physical_columns,
        virtual_columns,
        indexes,
        columnar,
        reservoir_bytes,
        column_bytes,
        synopsis_bytes: db.table_synopsis_bytes(table)?,
        heap_pages,
        heap_free_pages,
        heap_live_bytes: db.table_live_bytes(table)?,
        sampled_rows,
        exec: db.exec_stats(),
        io: db.io_stats(),
        metrics: sinew.metrics().snapshot(),
    })
}

impl StorageReport {
    /// Human-readable multi-line rendering (the `sinew-bench`
    /// `storage_report` binary and the CLI's `.report` command print this).
    pub fn render_text(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "== storage report: {} ==", self.table);
        let _ = writeln!(
            out,
            "rows: {}   reservoir: {} B   physical columns: {} B   page synopsis: {} B   \
             heap: {} pages, {} free, {} B live",
            self.rows,
            self.reservoir_bytes,
            self.column_bytes,
            self.synopsis_bytes,
            self.heap_pages,
            self.heap_free_pages,
            self.heap_live_bytes
        );
        let render_cols = |out: &mut String, label: &str, cols: &[ColumnReport]| {
            let _ = writeln!(out, "{label} ({}):", cols.len());
            for c in cols {
                let mut line = format!(
                    "  {:<24} {:<7} density {:.3}  distinct~{:<6} ",
                    c.name,
                    format!("{:?}", c.ty),
                    c.density,
                    c.distinct_sampled
                );
                if c.materialized || c.dirty {
                    line.push_str(&format!("col={} ", c.column_name));
                }
                if c.dirty {
                    line.push_str("dirty ");
                }
                if let Some(cur) = &c.cursor {
                    line.push_str(&format!(
                        "[{} {}/{}{}]",
                        match cur.direction {
                            MoveDirection::Materialize => "→col",
                            MoveDirection::Dematerialize => "→doc",
                        },
                        cur.position,
                        cur.high_water,
                        if cur.stranded > 0 {
                            format!(", {} stranded", cur.stranded)
                        } else {
                            String::new()
                        }
                    ));
                }
                let _ = writeln!(out, "{}", line.trim_end());
            }
        };
        render_cols(&mut out, "physical columns", &self.physical_columns);
        render_cols(&mut out, "virtual columns", &self.virtual_columns);
        let _ = writeln!(out, "indexes ({}):", self.indexes.len());
        for ix in &self.indexes {
            let _ = writeln!(
                out,
                "  {:<24} on {:<16} {} keys, {} pages, {} B",
                ix.name, ix.column, ix.key_count, ix.pages, ix.bytes
            );
        }
        let _ = writeln!(out, "columnar stores ({}):", self.columnar.len());
        for cs in &self.columnar {
            let _ = writeln!(
                out,
                "  {:<24} {} segments, {} B encoded / {} B raw ({:.1}x), enc [{}]",
                cs.column,
                cs.segments,
                cs.encoded_bytes,
                cs.raw_bytes,
                cs.compression(),
                cs.encodings
            );
        }
        // One line per counter group, groups and counters in table order.
        let mut groups: Vec<(&str, String)> = Vec::new();
        let walk = self
            .metrics
            .walk_with_rates()
            .into_iter()
            .chain(self.exec.walk())
            .chain(self.io.walk());
        for (group, name, value) in walk {
            let at = groups.iter().position(|(g, _)| *g == group).unwrap_or_else(|| {
                groups.push((group, String::new()));
                groups.len() - 1
            });
            let _ = write!(groups[at].1, " {name}={value}");
        }
        for (group, line) in groups {
            let _ = writeln!(out, "{group}:{line}");
        }
        out
    }

    /// The full report as a JSON document (machine-readable twin of
    /// [`Self::render_text`]; the CI smoke test parses this back).
    pub fn to_json(&self) -> String {
        let col = |c: &ColumnReport| {
            let mut fields = vec![
                ("name".to_string(), Value::Str(c.name.clone())),
                ("type".to_string(), Value::Str(format!("{:?}", c.ty))),
                ("count".to_string(), Value::Int(c.count as i64)),
                ("density".to_string(), Value::Float(c.density)),
                ("distinct_sampled".to_string(), Value::Int(c.distinct_sampled as i64)),
                ("materialized".to_string(), Value::Bool(c.materialized)),
                ("dirty".to_string(), Value::Bool(c.dirty)),
                ("column_name".to_string(), Value::Str(c.column_name.clone())),
            ];
            if let Some(cur) = &c.cursor {
                fields.push((
                    "cursor".to_string(),
                    Value::Object(vec![
                        ("position".to_string(), Value::Int(cur.position as i64)),
                        ("high_water".to_string(), Value::Int(cur.high_water as i64)),
                        (
                            "direction".to_string(),
                            Value::Str(
                                match cur.direction {
                                    MoveDirection::Materialize => "materialize",
                                    MoveDirection::Dematerialize => "dematerialize",
                                }
                                .to_string(),
                            ),
                        ),
                        ("stranded".to_string(), Value::Int(cur.stranded as i64)),
                    ]),
                ));
            }
            Value::Object(fields)
        };
        Value::Object(vec![
            ("table".to_string(), Value::Str(self.table.clone())),
            ("rows".to_string(), Value::Int(self.rows as i64)),
            (
                "physical_columns".to_string(),
                Value::Array(self.physical_columns.iter().map(col).collect()),
            ),
            (
                "virtual_columns".to_string(),
                Value::Array(self.virtual_columns.iter().map(col).collect()),
            ),
            (
                "indexes".to_string(),
                Value::Array(
                    self.indexes
                        .iter()
                        .map(|ix| {
                            Value::Object(vec![
                                ("name".to_string(), Value::Str(ix.name.clone())),
                                ("column".to_string(), Value::Str(ix.column.clone())),
                                ("key_count".to_string(), Value::Int(ix.key_count as i64)),
                                ("pages".to_string(), Value::Int(ix.pages as i64)),
                                ("bytes".to_string(), Value::Int(ix.bytes as i64)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "columnar".to_string(),
                Value::Array(
                    self.columnar
                        .iter()
                        .map(|cs| {
                            Value::Object(vec![
                                ("column".to_string(), Value::Str(cs.column.clone())),
                                ("segments".to_string(), Value::Int(cs.segments as i64)),
                                (
                                    "encoded_bytes".to_string(),
                                    Value::Int(cs.encoded_bytes as i64),
                                ),
                                ("raw_bytes".to_string(), Value::Int(cs.raw_bytes as i64)),
                                ("compression".to_string(), Value::Float(cs.compression())),
                                ("encodings".to_string(), Value::Str(cs.encodings.clone())),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("reservoir_bytes".to_string(), Value::Int(self.reservoir_bytes as i64)),
            ("column_bytes".to_string(), Value::Int(self.column_bytes as i64)),
            ("synopsis_bytes".to_string(), Value::Int(self.synopsis_bytes as i64)),
            ("heap_pages".to_string(), Value::Int(self.heap_pages as i64)),
            ("heap_free_pages".to_string(), Value::Int(self.heap_free_pages as i64)),
            ("heap_live_bytes".to_string(), Value::Int(self.heap_live_bytes as i64)),
            ("sampled_rows".to_string(), Value::Int(self.sampled_rows as i64)),
            ("exec".to_string(), json_object(self.exec.walk())),
            ("io".to_string(), json_object(self.io.walk())),
            ("metrics".to_string(), json_object(self.metrics.walk_with_rates())),
        ])
        .to_json()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_copies_counters() {
        let m = Metrics::default();
        m.plan_cache_hits.add(9);
        m.plan_cache_misses.inc();
        let s = m.snapshot();
        assert_eq!(s.plan_cache_hits, 9);
        assert_eq!(s.plan_cache_misses, 1);
    }

    /// A report over a collection that has been loaded, analyzed,
    /// materialized and queried, so most counter groups are non-zero.
    fn busy_report() -> StorageReport {
        let sinew = Sinew::in_memory();
        sinew.create_collection("c").unwrap();
        let docs: String =
            (0..300).map(|i| format!("{{\"k\": {i}, \"tag\": \"t{}\"}}\n", i % 7)).collect();
        sinew.load_jsonl("c", &docs).unwrap();
        let policy = crate::AnalyzerPolicy {
            density_threshold: 0.5,
            cardinality_threshold: 50,
            sample_rows: 300,
        };
        sinew.run_analyzer("c", &policy).unwrap();
        sinew.materialize_until_clean("c").unwrap();
        for _ in 0..2 {
            sinew.query("SELECT COUNT(*) FROM c WHERE tag = 't3'").unwrap();
        }
        sinew.storage_report("c").unwrap()
    }

    fn object<'a>(v: &'a Value, key: &str) -> &'a [(String, Value)] {
        let Value::Object(fields) = v else { panic!("not an object: {v:?}") };
        match fields.iter().find(|(k, _)| k == key) {
            Some((_, Value::Object(inner))) => inner,
            other => panic!("`{key}` is not an object: {other:?}"),
        }
    }

    /// Every key the hand-written `to_json` of PR 14 emitted under `exec`
    /// and `metrics`. Keys may be added to the report, never renamed or
    /// dropped — except with what they counted: `plan_cache_swept` and
    /// `plan_cache_hit_rate` went with the plan cache, `udf_fused_keys`
    /// with extraction fusion, `join_partitions` with the partitioned
    /// hash-join build.
    const PR14_EXEC_KEYS: &[&str] = &[
        "parallel_scans", "serial_scans", "morsels_dispatched", "scan_workers",
        "rows_per_morsel_log2", "rows_per_morsel_count", "rows_per_morsel_sum", "index_scans",
        "index_build_rows", "index_maintenance_ops", "blocks_emitted", "early_stops",
        "peak_resident_rows", "rows_per_block_log2", "rows_per_block_count",
        "rows_per_block_sum", "columnar_scans", "segments_pruned", "index_only_scans",
        "heap_fetches", "decoded_per_block_log2", "decoded_per_block_count",
        "decoded_per_block_sum", "values_decoded_batched", "dict_code_rewrites",
        "rle_runs_skipped", "selection_fastpath_hits", "join_build_rows",
        "agg_partition_merges", "parallel_sorts", "explain_runs", "wal_appends", "wal_commits",
        "wal_fsyncs", "wal_checkpoints", "wal_recoveries", "wal_recovered_pages", "wal_bytes",
        "txns_begun", "txns_committed", "txns_aborted", "write_conflicts", "versions_created",
        "versions_vacuumed", "oldest_snapshot_age_ms", "live_snapshots",
    ];
    const PR14_METRICS_KEYS: &[&str] = &[
        "plan_cache_hits", "plan_cache_misses", "plan_cache_stale_rebuilds",
        "udf_extractions", "udf_fused_extractions",
        "udf_exists_probes", "queries_rewritten", "rewritten_physical_refs",
        "rewritten_virtual_refs", "rewritten_coalesce_refs", "rewritten_fused_bindings",
        "loader_batches", "loader_parallel_batches", "loader_docs", "loader_bytes",
        "loader_nanos", "loader_docs_per_sec", "materializer_steps",
        "materializer_rows_scanned", "materializer_values_materialized",
        "materializer_values_dematerialized", "materializer_passes_completed",
        "materializer_passes_deferred", "materializer_rows_stranded",
        "materializer_indexes_created", "materializer_columnar_built",
        "materializer_txn_conflicts", "analyzer_runs", "analyzer_rows_sampled",
        "analyzer_materialize_decisions", "analyzer_dematerialize_decisions",
        "background_workers_active", "background_steps", "background_errors",
        "background_vacuum_passes",
    ];

    #[test]
    fn json_keeps_every_pr14_key_and_gains_the_drifted_ones() {
        let json = sinew_json::parse(&busy_report().to_json()).unwrap();
        let gained = [
            "loader_batch_docs_mean",
            "materializer_step_rows_mean",
            "statements_prepared",
            "statement_cache_hits",
            "statements_reprepared",
            "parse_ns_log2",
            "parse_ns_count",
            "parse_ns_mean",
            "rewrite_ns_log2",
            "rewrite_ns_count",
            "rewrite_ns_mean",
        ];
        let gained_exec = [
            "plan_ns_log2",
            "plan_ns_count",
            "plan_ns_mean",
            "scan_rows_rejected_early",
            "agg_serial_fallbacks",
            "join_probe_morsels",
            "scan_pages_skipped",
            "scan_pages_served",
            "synopsis_bytes",
            "heap_rowid_fetches",
            "heap_pages_recycled",
        ];
        for (obj, keys) in [
            ("exec", PR14_EXEC_KEYS),
            ("metrics", PR14_METRICS_KEYS),
            ("metrics", gained.as_slice()),
            ("exec", gained_exec.as_slice()),
        ] {
            let fields = object(&json, obj);
            for key in keys {
                let value = fields.iter().find(|(k, _)| k == key).map(|(_, v)| v);
                let ok = match value {
                    Some(Value::Array(b)) => key.ends_with("_log2") && b.len() == 17,
                    Some(Value::Float(_)) => ["_rate", "_per_sec", "_mean"]
                        .iter()
                        .any(|suffix| key.ends_with(suffix)),
                    Some(Value::Int(_)) => true,
                    _ => false,
                };
                assert!(ok, "{obj}.{key}: {value:?}");
            }
        }
    }

    #[test]
    fn every_walk_entry_reaches_json_and_text() {
        let report = busy_report();
        let json = sinew_json::parse(&report.to_json()).unwrap();
        let text = report.render_text();
        let mut names = std::collections::HashSet::new();
        for (obj, walk) in [
            ("exec", report.exec.walk()),
            ("io", report.io.walk()),
            ("metrics", report.metrics.walk_with_rates()),
        ] {
            let Value::Object(want) = json_object(walk.clone()) else { unreachable!() };
            assert_eq!(object(&json, obj), want.as_slice(), "{obj} object is the walk, in order");
            for (group, name, value) in walk {
                assert!(names.insert(name), "{name} is declared twice");
                let line = text
                    .lines()
                    .find(|l| l.starts_with(&format!("{group}:")))
                    .unwrap_or_else(|| panic!("no `{group}:` line in\n{text}"));
                assert!(
                    format!("{line} ").contains(&format!(" {name}={value} ")),
                    "{name}={value} missing from: {line}"
                );
            }
        }
        // Two counters the hand-written text report had lost.
        for name in ["loader_nanos=", "materializer_columnar_built="] {
            assert!(text.contains(name), "{name} missing from\n{text}");
        }
    }
}
