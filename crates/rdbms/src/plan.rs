//! Physical query plans and the EXPLAIN printer.
//!
//! Operator names intentionally match Postgres's EXPLAIN vocabulary
//! (`Seq Scan`, `Hash Join`, `Merge Join`, `HashAggregate`,
//! `GroupAggregate`, `Unique`, `Sort`) because the Table 2 experiment
//! compares *plan shapes* between virtual- and physical-column conditions
//! exactly the way the paper does.

use crate::agg::AggKind;
use crate::datum::KeyRange;
use crate::expr::PhysExpr;
use std::fmt::Write as _;

/// One aggregate computed by an aggregation operator.
#[derive(Clone)]
pub struct AggSpec {
    pub kind: AggKind,
    pub distinct: bool,
    /// `None` for `COUNT(*)`.
    pub arg: Option<PhysExpr>,
}

/// A sort key: expression over the input row plus direction.
#[derive(Clone)]
pub struct SortKey {
    pub expr: PhysExpr,
    pub desc: bool,
}

/// What the two non-heap access paths (`IndexScan`, `ColumnarScan`)
/// share: where to look, which keys, and what the equivalent `SeqScan`
/// would do. `filter` carries the FULL original
/// predicate — including the conjuncts consumed into `range` — re-checked
/// per surfaced row unless `exact_bounds`, so every path returns exactly
/// the heap scan's rows, and the executor can rerun any of them as a heap
/// scan when its index or store is gone (DESIGN.md §18).
#[derive(Clone)]
pub struct AccessPath {
    pub table: String,
    pub binding: String,
    /// The indexed / bound column. Always `Some` on an index path.
    pub column: Option<String>,
    /// Key range on `column` (a superset of the SQL matches, see
    /// [`KeyRange`]).
    pub range: KeyRange,
    pub filter: Option<PhysExpr>,
    pub needed: Option<Vec<String>>,
    pub est_rows: f64,
    /// True when the key range *is* the whole predicate: every conjunct
    /// was consumed as a bound on this column, and the bounds confine the
    /// range to a single type class, so every row the path surfaces is
    /// known to pass `filter`. Only then may the residual filter be
    /// skipped, or a LIMIT cap an index probe (to the cap smallest rowids)
    /// without changing results.
    pub exact_bounds: bool,
}

/// Physical plan tree. Every node carries its estimated output rows, which
/// is what EXPLAIN prints and what the Table 2 harness inspects.
#[derive(Clone)]
pub enum Plan {
    /// Full-table scan with an optional pushed-down filter. The scan output
    /// is the table's live columns, in order, plus a trailing `_rowid`.
    /// `needed` lists the live column names the query actually touches
    /// (projection push-down); `None` decodes everything.
    SeqScan {
        table: String,
        binding: String,
        filter: Option<PhysExpr>,
        needed: Option<Vec<String>>,
        est_rows: f64,
    },
    /// Secondary-index range scan over `path.column`. Matching rowids are
    /// sorted before fetch, so output order matches the heap scan.
    IndexScan(AccessPath),
    /// Columnar segment scan over a table whose referenced columns all have
    /// column-store segments. Emits the same row shape as `SeqScan`
    /// (non-`needed` columns as Null, trailing `_rowid`), in rowid order.
    /// `path.column` names the segment store whose vectorized kernel
    /// pre-filters by `path.range`; `None` means no sargable bound and the
    /// scan only skips dead slots.
    ColumnarScan {
        path: AccessPath,
        /// Weaker cousin of `exact_bounds`: every conjunct was consumed as
        /// a bound on `column` and all bound literals share one exactness
        /// class, but the planner couldn't prove the *stored values* stay
        /// in that class. Segments whose zone map proves a matching value
        /// class ([`crate::ColumnStore::segment_value_class`]) may then
        /// skip the residual filter per segment.
        bounds_cover_filter: bool,
    },
    Filter {
        input: Box<Plan>,
        predicate: PhysExpr,
        est_rows: f64,
    },
    Project {
        input: Box<Plan>,
        exprs: Vec<PhysExpr>,
        est_rows: f64,
    },
    HashJoin {
        left: Box<Plan>,
        right: Box<Plan>,
        /// Key expressions over the left / right input rows.
        left_key: PhysExpr,
        right_key: PhysExpr,
        /// Extra predicate over the concatenated row.
        residual: Option<PhysExpr>,
        /// LEFT OUTER join when true.
        left_outer: bool,
        /// Columns of a right input row: the NULLs a left-outer row
        /// without a match is padded with.
        right_width: usize,
        est_rows: f64,
    },
    /// Requires both inputs sorted on their key (the planner inserts Sort
    /// nodes). Output order: left-major.
    MergeJoin {
        left: Box<Plan>,
        right: Box<Plan>,
        left_key: PhysExpr,
        right_key: PhysExpr,
        residual: Option<PhysExpr>,
        est_rows: f64,
    },
    NestedLoop {
        left: Box<Plan>,
        right: Box<Plan>,
        predicate: Option<PhysExpr>,
        left_outer: bool,
        /// As for `HashJoin`.
        right_width: usize,
        est_rows: f64,
    },
    Sort {
        input: Box<Plan>,
        keys: Vec<SortKey>,
        est_rows: f64,
    },
    HashAggregate {
        input: Box<Plan>,
        groups: Vec<PhysExpr>,
        aggs: Vec<AggSpec>,
        est_rows: f64,
    },
    /// Aggregation over input pre-sorted on the group keys.
    GroupAggregate {
        input: Box<Plan>,
        groups: Vec<PhysExpr>,
        aggs: Vec<AggSpec>,
        est_rows: f64,
    },
    /// Deduplicate consecutive identical rows (input must be sorted).
    Unique {
        input: Box<Plan>,
        est_rows: f64,
    },
    /// Hash-based whole-row DISTINCT. Printed as "HashAggregate", which is
    /// what Postgres shows for hashed DISTINCT.
    HashDistinct {
        input: Box<Plan>,
        est_rows: f64,
    },
    Limit {
        input: Box<Plan>,
        n: u64,
    },
    /// Literal rows (SELECT without FROM, INSERT ... VALUES).
    Values {
        rows: Vec<Vec<PhysExpr>>,
    },
}

/// Actual per-operator execution totals collected by `EXPLAIN ANALYZE`:
/// rows/blocks the operator emitted and wall time spent inside its
/// `next_block` calls (inclusive of children, Postgres-style).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct NodeActuals {
    pub rows: u64,
    pub blocks: u64,
    pub ns: u64,
}

impl Plan {
    pub fn est_rows(&self) -> f64 {
        match self {
            Plan::IndexScan(path) | Plan::ColumnarScan { path, .. } => path.est_rows,
            Plan::SeqScan { est_rows, .. }
            | Plan::Filter { est_rows, .. }
            | Plan::Project { est_rows, .. }
            | Plan::HashJoin { est_rows, .. }
            | Plan::MergeJoin { est_rows, .. }
            | Plan::NestedLoop { est_rows, .. }
            | Plan::Sort { est_rows, .. }
            | Plan::HashAggregate { est_rows, .. }
            | Plan::GroupAggregate { est_rows, .. }
            | Plan::Unique { est_rows, .. }
            | Plan::HashDistinct { est_rows, .. } => *est_rows,
            Plan::Limit { input, n } => (input.est_rows()).min(*n as f64),
            Plan::Values { rows } => rows.len() as f64,
        }
    }

    /// Postgres-style operator name (the Table 2 harness matches these).
    pub fn node_name(&self) -> &'static str {
        match self {
            Plan::SeqScan { .. } => "Seq Scan",
            Plan::IndexScan(_) => "Index Scan",
            Plan::ColumnarScan { .. } => "Columnar Scan",
            Plan::Filter { .. } => "Filter",
            Plan::Project { .. } => "Project",
            Plan::HashJoin { .. } => "Hash Join",
            Plan::MergeJoin { .. } => "Merge Join",
            Plan::NestedLoop { .. } => "Nested Loop",
            Plan::Sort { .. } => "Sort",
            Plan::HashAggregate { .. } => "HashAggregate",
            Plan::GroupAggregate { .. } => "GroupAggregate",
            Plan::Unique { .. } => "Unique",
            Plan::HashDistinct { .. } => "HashAggregate",
            Plan::Limit { .. } => "Limit",
            Plan::Values { .. } => "Values",
        }
    }

    /// Render the EXPLAIN tree.
    pub fn explain(&self) -> String {
        let mut out = String::new();
        self.explain_into(&mut out, 0, &mut [].iter());
        out
    }

    /// Render the EXPLAIN ANALYZE tree: the estimated plan annotated with
    /// the actuals the streaming engine collected, one entry per node in
    /// the same pre-order (node, left, right) walk `build_node` uses.
    pub fn explain_analyze(&self, actuals: &[NodeActuals]) -> String {
        let mut out = String::new();
        self.explain_into(&mut out, 0, &mut actuals.iter());
        out
    }

    fn explain_into(
        &self,
        out: &mut String,
        depth: usize,
        acts: &mut std::slice::Iter<'_, NodeActuals>,
    ) {
        let pad = "  ".repeat(depth);
        let arrow = if depth == 0 { "" } else { "->  " };
        // One annotation per node, consumed in pre-order; empty for plain
        // EXPLAIN (the iterator over an empty slice yields nothing).
        let act = match acts.next() {
            Some(a) => format!(
                "  (actual rows={} blocks={} time={:.3}ms)",
                a.rows,
                a.blocks,
                a.ns as f64 / 1e6
            ),
            None => String::new(),
        };
        match self {
            Plan::SeqScan { table, binding, filter, est_rows, .. } => {
                let alias = if binding != table { format!(" {binding}") } else { String::new() };
                let _ = writeln!(out, "{pad}{arrow}Seq Scan on {table}{alias}  (rows={}){act}", fmt_rows(*est_rows));
                if let Some(f) = filter {
                    let _ = writeln!(out, "{pad}      Filter: {f:?}");
                }
            }
            Plan::IndexScan(path) | Plan::ColumnarScan { path, .. } => {
                let AccessPath { table, binding, column, range, filter, est_rows, .. } = path;
                let alias = if binding != table { format!(" {binding}") } else { String::new() };
                let columnar = matches!(self, Plan::ColumnarScan { .. });
                let using = match column {
                    Some(c) if !columnar => format!(" using {table}_{c}"),
                    _ => String::new(),
                };
                let cond_label = if columnar { "Segment Cond" } else { "Index Cond" };
                let _ = writeln!(
                    out,
                    "{pad}{arrow}{}{using} on {table}{alias}  (rows={}){act}",
                    self.node_name(),
                    fmt_rows(*est_rows)
                );
                let cond = column.as_deref().map(|c| range_cond(c, range)).unwrap_or_default();
                if !cond.is_empty() {
                    let _ = writeln!(out, "{pad}      {cond_label}: {cond}");
                }
                if let Some(f) = filter {
                    let _ = writeln!(out, "{pad}      Filter: {f:?}");
                }
            }
            Plan::Filter { input, predicate, est_rows } => {
                let _ = writeln!(out, "{pad}{arrow}Filter  (rows={}){act}", fmt_rows(*est_rows));
                let _ = writeln!(out, "{pad}      Cond: {predicate:?}");
                input.explain_into(out, depth + 1, acts);
            }
            Plan::Project { input, est_rows, .. } => {
                let _ = writeln!(out, "{pad}{arrow}Project  (rows={}){act}", fmt_rows(*est_rows));
                input.explain_into(out, depth + 1, acts);
            }
            Plan::HashJoin { left, right, left_key, right_key, est_rows, left_outer, .. } => {
                let outer = if *left_outer { "Left " } else { "" };
                let _ = writeln!(
                    out,
                    "{pad}{arrow}{outer}Hash Join  (rows={}){act}  Cond: {left_key:?} = {right_key:?}",
                    fmt_rows(*est_rows)
                );
                left.explain_into(out, depth + 1, acts);
                right.explain_into(out, depth + 1, acts);
            }
            Plan::MergeJoin { left, right, left_key, right_key, est_rows, .. } => {
                let _ = writeln!(
                    out,
                    "{pad}{arrow}Merge Join  (rows={}){act}  Cond: {left_key:?} = {right_key:?}",
                    fmt_rows(*est_rows)
                );
                left.explain_into(out, depth + 1, acts);
                right.explain_into(out, depth + 1, acts);
            }
            Plan::NestedLoop { left, right, est_rows, .. } => {
                let _ = writeln!(out, "{pad}{arrow}Nested Loop  (rows={}){act}", fmt_rows(*est_rows));
                left.explain_into(out, depth + 1, acts);
                right.explain_into(out, depth + 1, acts);
            }
            Plan::Sort { input, keys, est_rows } => {
                let keystr: Vec<String> = keys
                    .iter()
                    .map(|k| format!("{:?}{}", k.expr, if k.desc { " DESC" } else { "" }))
                    .collect();
                let _ = writeln!(
                    out,
                    "{pad}{arrow}Sort  (rows={}){act}  Key: {}",
                    fmt_rows(*est_rows),
                    keystr.join(", ")
                );
                input.explain_into(out, depth + 1, acts);
            }
            Plan::HashAggregate { input, est_rows, .. } => {
                let _ = writeln!(out, "{pad}{arrow}HashAggregate  (rows={}){act}", fmt_rows(*est_rows));
                input.explain_into(out, depth + 1, acts);
            }
            Plan::GroupAggregate { input, est_rows, .. } => {
                let _ = writeln!(out, "{pad}{arrow}GroupAggregate  (rows={}){act}", fmt_rows(*est_rows));
                input.explain_into(out, depth + 1, acts);
            }
            Plan::Unique { input, est_rows } => {
                let _ = writeln!(out, "{pad}{arrow}Unique  (rows={}){act}", fmt_rows(*est_rows));
                input.explain_into(out, depth + 1, acts);
            }
            Plan::HashDistinct { input, est_rows } => {
                let _ = writeln!(out, "{pad}{arrow}HashAggregate  (rows={}){act}", fmt_rows(*est_rows));
                input.explain_into(out, depth + 1, acts);
            }
            Plan::Limit { input, n } => {
                let _ = writeln!(out, "{pad}{arrow}Limit  (n={n}){act}");
                input.explain_into(out, depth + 1, acts);
            }
            Plan::Values { rows } => {
                let _ = writeln!(out, "{pad}{arrow}Values  (rows={}){act}", rows.len());
            }
        }
    }

    /// The order join operators appear in the EXPLAIN tree, top-down — the
    /// Table 2 harness uses this to compare join orders.
    pub fn join_sequence(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.collect_joins(&mut out);
        out
    }

    fn collect_joins(&self, out: &mut Vec<String>) {
        match self {
            Plan::HashJoin { left, right, left_key, right_key, .. } => {
                out.push(format!("Hash Join {left_key:?}={right_key:?}"));
                left.collect_joins(out);
                right.collect_joins(out);
            }
            Plan::MergeJoin { left, right, left_key, right_key, .. } => {
                out.push(format!("Merge Join {left_key:?}={right_key:?}"));
                left.collect_joins(out);
                right.collect_joins(out);
            }
            Plan::NestedLoop { left, right, .. } => {
                out.push("Nested Loop".to_string());
                left.collect_joins(out);
                right.collect_joins(out);
            }
            Plan::Filter { input, .. }
            | Plan::Project { input, .. }
            | Plan::Sort { input, .. }
            | Plan::HashAggregate { input, .. }
            | Plan::GroupAggregate { input, .. }
            | Plan::Unique { input, .. }
            | Plan::HashDistinct { input, .. }
            | Plan::Limit { input, .. } => input.collect_joins(out),
            Plan::SeqScan { .. }
            | Plan::IndexScan(_)
            | Plan::ColumnarScan { .. }
            | Plan::Values { .. } => {}
        }
    }
}

fn fmt_rows(r: f64) -> String {
    format!("{}", r.round().max(1.0) as u64)
}

fn range_cond(column: &str, range: &KeyRange) -> String {
    let mut cond = String::new();
    if let Some(l) = &range.lo {
        let _ = write!(cond, "{column} {} {l:?}", if range.lo_inc { ">=" } else { ">" });
    }
    if let Some(h) = &range.hi {
        if !cond.is_empty() {
            cond.push_str(" AND ");
        }
        let _ = write!(cond, "{column} {} {h:?}", if range.hi_inc { "<=" } else { "<" });
    }
    cond
}
