//! Everything that touches the system under test: the statement templates,
//! the traced and untraced statement paths, counter capture, and reading a
//! collection back from a bare `Database` after recovery.

use crate::data::{ParamSet, SPARSE_PRED_KEY, UPDATE_SET_KEY, UPDATE_WHERE_KEY};
use crate::trace::Tracer;
use sinew_core::catalog::ATTR_TABLE;
use sinew_core::{rewriter, Sinew};
use sinew_rdbms::{Database, Datum, DbError, DbResult, QueryResult};
use sinew_serial::{sinew as sformat, SType, SValue};
use sinew_sql::Statement;
use std::collections::HashMap;

pub const TABLE: &str = "nobench";

/// NoBench statement classes, the unit the read medians are reported by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Class {
    Project,
    Select,
    Agg,
    Join,
    Write,
}

impl Class {
    pub fn of_read(q: u8) -> Class {
        match q {
            1..=4 => Class::Project,
            5..=9 => Class::Select,
            10 => Class::Agg,
            11 => Class::Join,
            other => panic!("no read statement Q{other}"),
        }
    }

    /// Name of the root span of one traced op of this class.
    pub fn op_span(self) -> &'static str {
        match self {
            Class::Project => "op.project",
            Class::Select => "op.select",
            Class::Agg => "op.agg",
            Class::Join => "op.join",
            Class::Write => "op.write",
        }
    }
}

/// The benchmark's own copy of the eleven NoBench statements
/// (`SinewSut::sql` is private); `selfcheck` proves the two agree.
pub fn read_sql(q: u8, p: &ParamSet) -> String {
    const STAR: &str = r#"str1, num, "nested_obj.str""#;
    match q {
        1 => format!("SELECT str1, num FROM {TABLE}"),
        2 => format!(r#"SELECT "nested_obj.str", "nested_obj.num" FROM {TABLE}"#),
        3 => format!("SELECT sparse_110, sparse_119 FROM {TABLE}"),
        4 => format!("SELECT sparse_110, sparse_220 FROM {TABLE}"),
        5 => format!("SELECT {STAR} FROM {TABLE} WHERE str1 = '{}'", p.point_str1),
        6 => format!("SELECT {STAR} FROM {TABLE} WHERE num BETWEEN {} AND {}", p.num.0, p.num.1),
        7 => format!("SELECT {STAR} FROM {TABLE} WHERE dyn1 BETWEEN {} AND {}", p.dyn1.0, p.dyn1.1),
        8 => format!(
            "SELECT {STAR} FROM {TABLE} WHERE array_contains(nested_arr, '{}')",
            p.arr_elem
        ),
        9 => format!("SELECT {STAR} FROM {TABLE} WHERE {SPARSE_PRED_KEY} = '{}'", p.sparse_val),
        10 => format!(
            "SELECT thousandth, COUNT(*) FROM {TABLE} WHERE num BETWEEN {} AND {} GROUP BY thousandth",
            p.agg.0, p.agg.1
        ),
        11 => format!(
            r#"SELECT l.str1, r.num FROM {TABLE} l, {TABLE} r WHERE l."nested_obj.str" = r.str1 AND l.num BETWEEN {} AND {}"#,
            p.join.0, p.join.1
        ),
        other => panic!("no read statement Q{other}"),
    }
}

/// The §6.6 random-update task.
pub fn update_sql(where_val: &str) -> String {
    format!(
        "UPDATE {TABLE} SET {UPDATE_SET_KEY} = 'DUMMY' WHERE {UPDATE_WHERE_KEY} = '{where_val}'"
    )
}

pub fn delete_sql(str1: &str) -> String {
    format!("DELETE FROM {TABLE} WHERE str1 = '{str1}'")
}

/// Span names of the statement path (the traced decomposition of
/// `Sinew::query`).
pub const SPAN_PARSE: &str = "sql.parse_statement";
pub const SPAN_REWRITE: &str = "core.rewriter.rewrite_statement";
pub const SPAN_PLAN: &str = "rdbms.planner.plan";
pub const SPAN_EXEC: &str = "rdbms.exec.execute_statement";

/// Run one statement through the public steps `Sinew::query` is made of,
/// each under its own span. `Database::plan` is an extra call made only to
/// time planning (`execute_statement` plans again inside): its duration is
/// the traced run's known overhead and what `rdbms.exec.self_ms_p50.*`
/// subtracts.
pub fn query_traced(
    sinew: &Sinew,
    sql: &str,
    tracer: &mut Tracer,
    op_id: u64,
    class: Class,
) -> DbResult<QueryResult> {
    let root = tracer.begin(class.op_span(), None, op_id);
    let out = (|| {
        let (stmt, _) = tracer.span(SPAN_PARSE, Some(root), op_id, || {
            sinew_sql::parse_statement(sql).map_err(|e| DbError::Parse(e.to_string()))
        });
        let stmt = stmt?;
        let (rewritten, _) = tracer.span(SPAN_REWRITE, Some(root), op_id, || {
            rewriter::rewrite_statement(sinew, &stmt)
        });
        let rewritten = rewritten?;
        if let Statement::Select(sel) = &rewritten {
            let (planned, _) = tracer.span(SPAN_PLAN, Some(root), op_id, || sinew.db().plan(sel));
            planned?;
        }
        tracer
            .span(SPAN_EXEC, Some(root), op_id, || {
                sinew.db().execute_statement(&rewritten)
            })
            .0
    })();
    tracer.end(root);
    out
}

/// Every public counter the layer metrics are computed from, flattened to
/// `(name, value)` so that deltas and the trace file share one shape.
#[derive(Debug, Clone, Default)]
pub struct Counters(pub Vec<(&'static str, u64)>);

impl Counters {
    pub fn capture(sinew: &Sinew) -> Counters {
        let m = sinew.metrics().snapshot();
        let e = sinew.db().exec_stats();
        let io = sinew.db().io_stats();
        Counters(vec![
            ("plan_cache_hits", m.plan_cache_hits),
            ("plan_cache_misses", m.plan_cache_misses),
            ("plan_cache_stale_rebuilds", m.plan_cache_stale_rebuilds),
            ("udf_extractions", m.udf_extractions),
            ("udf_fused_extractions", m.udf_fused_extractions),
            ("udf_exists_probes", m.udf_exists_probes),
            ("queries_rewritten", m.queries_rewritten),
            ("rewritten_virtual_refs", m.rewritten_virtual_refs),
            ("rewritten_coalesce_refs", m.rewritten_coalesce_refs),
            ("rewritten_fused_bindings", m.rewritten_fused_bindings),
            ("loader_batches", m.loader_batches),
            ("loader_parallel_batches", m.loader_parallel_batches),
            ("loader_docs", m.loader_docs),
            ("loader_nanos", m.loader_nanos),
            ("materializer_steps", m.materializer_steps),
            ("materializer_rows_scanned", m.materializer_rows_scanned),
            (
                "materializer_values_materialized",
                m.materializer_values_materialized,
            ),
            (
                "materializer_indexes_created",
                m.materializer_indexes_created,
            ),
            ("materializer_columnar_built", m.materializer_columnar_built),
            ("materializer_txn_conflicts", m.materializer_txn_conflicts),
            ("analyzer_rows_sampled", m.analyzer_rows_sampled),
            (
                "analyzer_materialize_decisions",
                m.analyzer_materialize_decisions,
            ),
            ("background_steps", m.background_steps),
            ("background_errors", m.background_errors),
            ("background_vacuum_passes", m.background_vacuum_passes),
            ("parallel_scans", e.parallel_scans),
            ("serial_scans", e.serial_scans),
            ("morsels_dispatched", e.morsels_dispatched),
            ("index_scans", e.index_scans),
            ("index_maintenance_ops", e.index_maintenance_ops),
            ("columnar_scans", e.columnar_scans),
            ("segments_pruned", e.segments_pruned),
            ("index_only_scans", e.index_only_scans),
            ("heap_fetches", e.heap_fetches),
            ("blocks_emitted", e.blocks_emitted),
            ("values_decoded_batched", e.values_decoded_batched),
            ("dict_code_rewrites", e.dict_code_rewrites),
            ("selection_fastpath_hits", e.selection_fastpath_hits),
            ("join_build_rows", e.join_build_rows),
            ("agg_partition_merges", e.agg_partition_merges),
            ("write_conflicts", e.write_conflicts),
            ("versions_created", e.versions_created),
            ("versions_vacuumed", e.versions_vacuumed),
            ("wal_commits", e.wal_commits),
            ("wal_fsyncs", e.wal_fsyncs),
            ("wal_checkpoints", e.wal_checkpoints),
            ("wal_recovered_pages", e.wal_recovered_pages),
            ("wal_bytes", e.wal_bytes),
            ("disk_reads", io.disk_reads),
            ("disk_writes", io.disk_writes),
            ("cache_hits", io.cache_hits),
        ])
    }

    pub fn get(&self, name: &str) -> u64 {
        self.0
            .iter()
            .find(|(k, _)| *k == name)
            .map_or(0, |(_, v)| *v)
    }

    /// Counts accumulated since `earlier` (same instance).
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters(
            self.0
                .iter()
                .map(|(k, v)| (*k, v.saturating_sub(earlier.get(k))))
                .collect(),
        )
    }

    pub fn as_f64(&self) -> Vec<(&'static str, f64)> {
        self.0.iter().map(|(k, v)| (*k, *v as f64)).collect()
    }
}

/// Read a collection back from a bare recovered `Database` — no catalog,
/// no UDFs: `str1 -> carries 'DUMMY'` for every stored document, taking
/// `str1` from its physical column where the materializer moved it and
/// from the reservoir bytes otherwise.
pub fn stored_fingerprint(db: &Database) -> DbResult<HashMap<String, bool>> {
    let attr_id = |name: &str| -> DbResult<Option<u32>> {
        let r = db.execute(&format!(
            "SELECT _id FROM {ATTR_TABLE} WHERE key_name = '{name}' AND key_type = 'text'"
        ))?;
        Ok(match r.scalar() {
            Some(Datum::Int(i)) => Some(*i as u32),
            _ => None,
        })
    };
    let str1_id = attr_id("str1")?;
    let set_id = attr_id(UPDATE_SET_KEY)?;
    let schema = db.schema(TABLE)?;
    let live: Vec<String> = schema.live_columns().map(|(_, c)| c.name.clone()).collect();
    let data_col = live
        .iter()
        .position(|c| c == "data")
        .ok_or_else(|| DbError::Schema("collection lacks its reservoir column".into()))?;
    let str1_col = live.iter().position(|c| c == "str1");
    let text_of = |bytes: &[u8], id: Option<u32>| -> Option<String> {
        let raw = sformat::iter_raw(bytes)
            .ok()?
            .find(|(i, _)| Some(*i) == id)?
            .1;
        match sformat::decode_value(raw, SType::Text).ok()? {
            SValue::Text(s) => Some(s),
            _ => None,
        }
    };
    let mut out = HashMap::new();
    db.scan_rows(TABLE, &mut |_, row| {
        let Datum::Bytea(bytes) = &row[data_col] else {
            return Err(DbError::Schema("reservoir column is not bytea".into()));
        };
        let from_column = str1_col.and_then(|c| match &row[c] {
            Datum::Text(s) => Some(s.clone()),
            _ => None,
        });
        let str1 = from_column
            .or_else(|| text_of(bytes, str1_id))
            .ok_or_else(|| DbError::Schema("stored document without str1".into()))?;
        let dummy = text_of(bytes, set_id).as_deref() == Some("DUMMY");
        out.insert(str1, dummy);
        Ok(true)
    })?;
    Ok(out)
}
