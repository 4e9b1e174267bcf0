//! The query rewriter (paper §3.2.2).
//!
//! Queries arrive against the logical universal relation; this module
//! rewrites them to match the physical schema:
//!
//! * references to **physical** columns pass through untouched;
//! * references to **virtual** columns become extraction-UDF calls, one
//!   per reference — `owner` → `extract_key_txt(data, 'owner')` — so each
//!   value is decoded where the plan reads it (DESIGN.md §25);
//! * references to **dirty** columns (partially materialized) become
//!   `COALESCE(col, extract_key_txt(data, 'owner'))`;
//! * `SELECT *` expands to the full logical schema (one column per unique
//!   key name);
//! * `matches(keys, query)` runs the text index at rewrite time and
//!   becomes a row-id membership test (§4.3);
//! * `UPDATE` assignments to virtual columns become reservoir edits via
//!   `set_key`.
//!
//! The extraction **type** "is determined dynamically by the query rewriter
//! based on type constraints present in the semantics of the original
//! query": comparisons against string literals extract text, numeric
//! contexts extract numbers, `LIKE` implies text, aggregates imply numeric,
//! and "in the common case where the expected type of an attribute cannot
//! be determined from the query semantics ... the function will simply
//! return the value downcast to a string type" — unless the catalog knows
//! the key under exactly one type, in which case that type is used.

use crate::catalog::{AttrId, ColumnState};
use crate::types::AttrType;
use crate::Sinew;
use sinew_rdbms::{DbError, DbResult};
use sinew_sql::{BinaryOp, Delete, Expr, Literal, Select, SelectItem, Statement, Update};
use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::rc::Rc;

/// Extraction context established by the surrounding expression.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Hint {
    None,
    Bool,
    Num,
    Text,
    Array,
}

type NameStates = Rc<[(AttrId, AttrType, ColumnState)]>;

struct Ctx<'a> {
    sinew: &'a Sinew,
    /// (binding, table, is_collection) in FROM order.
    tables: Vec<(String, String, bool)>,
    /// The statement's view of the catalog: each (table, key name) keeps the
    /// states this statement first read for it, so the materializer flipping
    /// a flag mid-rewrite cannot send two references to one column down
    /// different physical layouts (`SELECT c ... GROUP BY coalesce(c, ...)`).
    /// Filled on first reference: a collection can register thousands of
    /// keys and a statement names a handful.
    view: RefCell<HashMap<(String, String), NameStates>>,
    /// Handles of the row-id sets this rewrite registered (`matches()`).
    sets: &'a RowIdSetHandles,
}

/// Where a rewrite notes the row-id sets it registers, so its caller can
/// remove them once the statement has run.
pub(crate) type RowIdSetHandles = RefCell<Vec<String>>;

#[cfg(test)]
type ResolveHook = Box<dyn FnMut(&str)>;

#[cfg(test)]
thread_local! {
    /// Test hook: called with the key name after every resolution against
    /// the statement's view.
    static AFTER_RESOLVE: RefCell<Option<ResolveHook>> = const { RefCell::new(None) };
}

impl<'a> Ctx<'a> {
    fn new(
        sinew: &'a Sinew,
        tables: Vec<(String, String, bool)>,
        sets: &'a RowIdSetHandles,
    ) -> Ctx<'a> {
        Ctx { sinew, tables, view: RefCell::default(), sets }
    }

    /// Catalog states of a key name, as of this statement's first look.
    fn states_for_name(&self, table: &str, name: &str) -> NameStates {
        let states = self
            .view
            .borrow_mut()
            .entry((table.to_string(), name.to_string()))
            .or_insert_with(|| self.sinew.catalog().states_for_name(table, name).into())
            .clone();
        #[cfg(test)]
        AFTER_RESOLVE.with(|h| {
            if let Some(f) = h.borrow_mut().as_mut() {
                f(name)
            }
        });
        states
    }

    /// [`crate::extract::attr_source`] resolved against the statement's view.
    fn attr_source(&self, table: &str, path: &str) -> crate::extract::AttrSource {
        crate::extract::attr_source(|prefix| self.states_for_name(table, prefix), path)
    }

    /// Resolve a column reference to its collection, or `None` when the
    /// reference targets a non-collection table (pass through).
    fn collection_of(&self, qualifier: Option<&str>, name: &str) -> DbResult<Option<(String, String)>> {
        if let Some(q) = qualifier {
            let (binding, table, is_coll) = self
                .tables
                .iter()
                .find(|(b, _, _)| b == q)
                .ok_or_else(|| DbError::NotFound(format!("table {q}")))?;
            return Ok(is_coll.then(|| (binding.clone(), table.clone())));
        }
        // Unqualified: prefer a collection that has the attribute
        // registered; otherwise the first collection; otherwise raw.
        let collections: Vec<&(String, String, bool)> =
            self.tables.iter().filter(|(_, _, c)| *c).collect();
        for (binding, table, _) in &collections {
            if !self.states_for_name(table, name).is_empty() {
                return Ok(Some((binding.clone(), table.clone())));
            }
        }
        match collections.first() {
            Some((binding, table, _)) if self.tables.len() == collections.len() => {
                Ok(Some((binding.clone(), table.clone())))
            }
            // mixed FROM of raw + collection tables: leave unqualified
            // unknown refs alone (the RDBMS binder will resolve or reject)
            _ => Ok(None),
        }
    }
}

/// Rewrite any statement against the Sinew catalog. The result can be
/// planned and executed any number of times. A `matches()` call registers
/// its row-id set with `sinew`, and through this entry point nothing ever
/// removes it: [`Sinew::query`], [`Sinew::rewrite`] and [`Sinew::explain`]
/// are the callers that own, and release, the sets of what they rewrite.
pub fn rewrite_statement(sinew: &Sinew, stmt: &Statement) -> DbResult<Statement> {
    if is_query(stmt) {
        sinew.metrics().queries_rewritten.inc();
    }
    rewrite_noting_sets(sinew, stmt, &RefCell::default())
}

/// A `SELECT`, `UPDATE` or `DELETE`, or `EXPLAIN` of one: what
/// `queries_rewritten` counts.
fn is_query(stmt: &Statement) -> bool {
    match stmt {
        Statement::Select(_) | Statement::Update(_) | Statement::Delete(_) => true,
        Statement::Explain { inner, .. } => is_query(inner),
        _ => false,
    }
}

/// [`rewrite_statement`] for a caller that owns the row-id sets: the handle
/// of every set registered on the way, also by a rewrite that then fails,
/// is pushed to `sets`. Counts nothing: its caller counts the statement
/// once, however often it is derived.
pub(crate) fn rewrite_noting_sets(
    sinew: &Sinew,
    stmt: &Statement,
    sets: &RowIdSetHandles,
) -> DbResult<Statement> {
    match stmt {
        Statement::Select(sel) => Ok(Statement::Select(rewrite_select(sinew, sel, sets)?)),
        Statement::Update(upd) => rewrite_update(sinew, upd, sets),
        Statement::Delete(del) => rewrite_delete(sinew, del, sets),
        Statement::Explain { analyze, inner } => Ok(Statement::Explain {
            analyze: *analyze,
            inner: Box::new(rewrite_noting_sets(sinew, inner, sets)?),
        }),
        Statement::Insert(ins) if is_collection(sinew, &ins.table) => Err(DbError::Schema(
            "INSERT into a Sinew collection is not supported; use the JSON loader".into(),
        )),
        other => Ok(other.clone()),
    }
}

fn is_collection(sinew: &Sinew, table: &str) -> bool {
    !table.starts_with("_sinew") && sinew.collections().iter().any(|t| t == table)
}

fn rewrite_select(sinew: &Sinew, sel: &Select, sets: &RowIdSetHandles) -> DbResult<Select> {
    let mut tables = Vec::new();
    for t in sel.from.iter().chain(sel.joins.iter().map(|j| &j.table)) {
        let is_coll = is_collection(sinew, &t.table);
        tables.push((t.binding().to_string(), t.table.clone(), is_coll));
    }
    let ctx = Ctx::new(sinew, tables, sets);

    let mut out = sel.clone();

    // SELECT * expands to the logical universal-relation schema.
    let mut items = Vec::new();
    for item in &out.items {
        match item {
            SelectItem::Wildcard => {
                let mut any = false;
                for (binding, table, is_coll) in &ctx.tables {
                    if !is_coll {
                        continue;
                    }
                    any = true;
                    for name in logical_names(sinew, table) {
                        items.push(SelectItem::Expr {
                            expr: Expr::Column {
                                table: Some(binding.clone()),
                                column: name.clone(),
                            },
                            alias: Some(name),
                        });
                    }
                }
                if !any {
                    items.push(SelectItem::Wildcard); // raw tables only
                }
            }
            other => items.push(other.clone()),
        }
    }
    out.items = items;

    for item in &mut out.items {
        if let SelectItem::Expr { expr, alias } = item {
            if alias.is_none() {
                // keep the logical name as the output column name
                if let Expr::Column { column, .. } = &expr {
                    *alias = Some(column.clone());
                }
            }
            rewrite_expr(&ctx, expr, Hint::None)?;
        }
    }
    if let Some(f) = &mut out.filter {
        rewrite_predicate(&ctx, f)?;
    }
    for j in &mut out.joins {
        rewrite_predicate(&ctx, &mut j.on)?;
    }
    for g in &mut out.group_by {
        rewrite_expr(&ctx, g, Hint::None)?;
    }
    if let Some(h) = &mut out.having {
        rewrite_predicate(&ctx, h)?;
    }
    for o in &mut out.order_by {
        rewrite_expr(&ctx, &mut o.expr, Hint::None)?;
    }
    Ok(out)
}

/// Logical column names of a collection: one per unique key name, ordered
/// by first appearance (attribute id).
fn logical_names(sinew: &Sinew, table: &str) -> Vec<String> {
    let mut seen = HashSet::new();
    let mut out = Vec::new();
    for col in sinew.logical_schema(table) {
        if seen.insert(col.name.clone()) {
            out.push(col.name);
        }
    }
    out
}

/// Rewrite an expression appearing in predicate position: a bare column is
/// a boolean test.
fn rewrite_predicate(ctx: &Ctx<'_>, e: &mut Expr) -> DbResult<()> {
    match e {
        Expr::Column { .. } => rewrite_expr(ctx, e, Hint::Bool),
        Expr::Binary { op: BinaryOp::And | BinaryOp::Or, left, right } => {
            rewrite_predicate(ctx, left)?;
            rewrite_predicate(ctx, right)
        }
        Expr::Unary { op: sinew_sql::UnaryOp::Not, expr } => rewrite_predicate(ctx, expr),
        _ => rewrite_expr(ctx, e, Hint::None),
    }
}

fn literal_hint(l: &Literal) -> Hint {
    match l {
        Literal::Null => Hint::None,
        Literal::Bool(_) => Hint::Bool,
        Literal::Int(_) | Literal::Float(_) => Hint::Num,
        Literal::Str(_) => Hint::Text,
    }
}

fn operand_hint(e: &Expr) -> Hint {
    match e {
        Expr::Literal(l) => literal_hint(l),
        Expr::Cast { ty, .. } => match ty {
            sinew_sql::TypeName::Bool => Hint::Bool,
            sinew_sql::TypeName::Int | sinew_sql::TypeName::Float => Hint::Num,
            sinew_sql::TypeName::Text => Hint::Text,
            _ => Hint::None,
        },
        Expr::Binary { op: BinaryOp::Add | BinaryOp::Sub | BinaryOp::Mul | BinaryOp::Div, .. } => {
            Hint::Num
        }
        Expr::Binary { op: BinaryOp::Concat, .. } => Hint::Text,
        _ => Hint::None,
    }
}

/// Hint for a column compared against another column (join keys): numeric
/// when both sides are known-numeric, else text downcast. Raw (non-
/// collection) columns consult the RDBMS schema instead of the catalog.
fn column_vs_column_hint(ctx: &Ctx<'_>, a: &Expr, b: &Expr) -> DbResult<Hint> {
    let numeric = |e: &Expr| -> DbResult<bool> {
        let Expr::Column { table, column } = e else { return Ok(false) };
        match ctx.collection_of(table.as_deref(), column)? {
            Some((_, coll)) => {
                let states = ctx.states_for_name(&coll, column);
                Ok(!states.is_empty()
                    && states
                        .iter()
                        .all(|(_, ty, _)| matches!(ty, AttrType::Int | AttrType::Float)))
            }
            None => {
                // raw table: use the physical column type where resolvable
                for (_, raw_table, is_coll) in &ctx.tables {
                    if *is_coll {
                        continue;
                    }
                    if let Some(q) = table {
                        if ctx.tables.iter().any(|(b, t, _)| b == q && t != raw_table) {
                            continue;
                        }
                    }
                    if let Ok(schema) = ctx.sinew.db().schema(raw_table) {
                        if let Some(col) = schema.column(column) {
                            return Ok(matches!(
                                col.ty,
                                sinew_rdbms::ColType::Int | sinew_rdbms::ColType::Float
                            ));
                        }
                    }
                }
                Ok(false)
            }
        }
    };
    Ok(if numeric(a)? && numeric(b)? { Hint::Num } else { Hint::Text })
}

fn rewrite_expr(ctx: &Ctx<'_>, e: &mut Expr, hint: Hint) -> DbResult<()> {
    match e {
        Expr::Column { table, column } => {
            if let Some((binding, coll)) = ctx.collection_of(table.as_deref(), column)? {
                *e = rewrite_column(ctx, &binding, &coll, column, hint)?;
            }
            Ok(())
        }
        Expr::Literal(_) => Ok(()),
        Expr::Unary { expr, .. } => rewrite_expr(ctx, expr, hint),
        Expr::Binary { op, left, right } => {
            if op.is_comparison() {
                let lh = operand_hint(right);
                let rh = operand_hint(left);
                let (lh, rh) = match (lh, rh) {
                    (Hint::None, Hint::None)
                        if matches!(**left, Expr::Column { .. })
                            && matches!(**right, Expr::Column { .. }) =>
                    {
                        let h = column_vs_column_hint(ctx, left, right)?;
                        (h, h)
                    }
                    other => other,
                };
                rewrite_expr(ctx, left, lh)?;
                rewrite_expr(ctx, right, rh)
            } else if matches!(op, BinaryOp::And | BinaryOp::Or) {
                rewrite_predicate(ctx, left)?;
                rewrite_predicate(ctx, right)
            } else {
                let h = if *op == BinaryOp::Concat { Hint::Text } else { Hint::Num };
                rewrite_expr(ctx, left, h)?;
                rewrite_expr(ctx, right, h)
            }
        }
        Expr::IsNull { expr, .. } => rewrite_expr(ctx, expr, Hint::None),
        Expr::Between { expr, low, high, .. } => {
            let h = match (operand_hint(low), operand_hint(high)) {
                (Hint::Text, _) | (_, Hint::Text) => Hint::Text,
                _ => Hint::Num,
            };
            rewrite_expr(ctx, expr, h)?;
            rewrite_expr(ctx, low, h)?;
            rewrite_expr(ctx, high, h)
        }
        Expr::InList { expr, list, .. } => {
            let h = list.first().map(operand_hint).unwrap_or(Hint::None);
            rewrite_expr(ctx, expr, h)?;
            for item in list {
                rewrite_expr(ctx, item, h)?;
            }
            Ok(())
        }
        Expr::Like { expr, pattern, .. } => {
            rewrite_expr(ctx, expr, Hint::Text)?;
            rewrite_expr(ctx, pattern, Hint::Text)
        }
        Expr::Func { name, args, star, .. } => {
            let lname = name.to_ascii_lowercase();
            if lname == "matches" {
                *e = rewrite_matches(ctx, args)?;
                return Ok(());
            }
            if *star {
                return Ok(());
            }
            let arg_hint = match lname.as_str() {
                "sum" | "avg" | "min" | "max" | "abs" | "round" => Hint::Num,
                "lower" | "upper" | "length" => Hint::Text,
                "array_contains" | "array_length" | "array_get" => Hint::Array,
                _ => Hint::None,
            };
            for (i, a) in args.iter_mut().enumerate() {
                // only the first argument of array functions is the array
                let h = if arg_hint == Hint::Array && i > 0 { Hint::None } else { arg_hint };
                rewrite_expr(ctx, a, h)?;
            }
            Ok(())
        }
        Expr::Cast { expr, .. } => rewrite_expr(ctx, expr, Hint::None),
    }
}

/// `matches(keys, query)` → run the text index now, register the row-id
/// set, and emit `__sinew_rowid_set(t._rowid, 'handle')`.
fn rewrite_matches(ctx: &Ctx<'_>, args: &[Expr]) -> DbResult<Expr> {
    let [Expr::Literal(Literal::Str(keys)), Expr::Literal(Literal::Str(query))] = args else {
        return Err(DbError::Eval(
            "matches expects two string literals: (keys, query)".into(),
        ));
    };
    let Some((binding, table, _)) = ctx.tables.iter().find(|(_, _, c)| *c) else {
        return Err(DbError::Eval("matches requires a Sinew collection in FROM".into()));
    };
    let idx = ctx
        .sinew
        .text_index(table)
        .ok_or_else(|| DbError::Eval(format!("no text index enabled on {table}")))?;
    let fields: Vec<String> = if keys.trim() == "*" {
        Vec::new()
    } else {
        keys.split(',').map(|k| k.trim().to_string()).collect()
    };
    let rows: std::collections::HashSet<i64> =
        idx.search_str(&fields, query).into_iter().map(|r| r as i64).collect();
    let handle = ctx.sinew.register_rowid_set(rows);
    ctx.sets.borrow_mut().push(handle.clone());
    Ok(Expr::func(
        "__sinew_rowid_set",
        vec![Expr::qcol(binding, "_rowid"), Expr::lit_str(&handle)],
    ))
}

/// Rewrite one column reference according to its catalog state.
fn rewrite_column(
    ctx: &Ctx<'_>,
    binding: &str,
    table: &str,
    name: &str,
    hint: Hint,
) -> DbResult<Expr> {
    // Direct physical-layer names pass through.
    if name == "data" || name == "_rowid" {
        return Ok(Expr::qcol(binding, name));
    }
    let states = ctx.states_for_name(table, name);

    // Resolve the wanted types + extraction function from the hint.
    let (wanted, extract_fn): (Vec<AttrType>, &str) = match hint {
        Hint::Bool => (vec![AttrType::Bool], "extract_key_b"),
        Hint::Num => (vec![AttrType::Int, AttrType::Float], "extract_key_num"),
        Hint::Text => (vec![AttrType::Text], "extract_key_t"),
        Hint::Array => (vec![AttrType::Array], "extract_key_arr"),
        Hint::None => {
            // unique registered type → typed extraction; else text downcast
            match &*states {
                [(_, ty, _)] => (
                    vec![*ty],
                    match ty {
                        AttrType::Bool => "extract_key_b",
                        AttrType::Int => "extract_key_i",
                        AttrType::Float => "extract_key_f",
                        AttrType::Text => "extract_key_t",
                        AttrType::Object => "extract_key_obj",
                        AttrType::Array => "extract_key_arr",
                    },
                ),
                _ => (Vec::new(), "extract_key_txt"),
            }
        }
    };

    let relevant: Vec<&(AttrId, AttrType, ColumnState)> = if wanted.is_empty() {
        states.iter().collect() // AnyText: every typed variant
    } else {
        states.iter().filter(|(_, ty, _)| wanted.contains(ty)).collect()
    };

    // Extraction source: the reservoir, unless a materialized ancestor
    // object holds this dotted path — then extract from its column (with a
    // reservoir fallback while the ancestor is dirty).
    let source = ctx.attr_source(table, name);
    let source_expr = match &source.parent_column {
        None => Expr::qcol(binding, "data"),
        Some(col) if !source.parent_dirty => Expr::qcol(binding, col),
        Some(col) => {
            let parent_path = source.parent_path.as_deref().unwrap_or("");
            Expr::func(
                "coalesce",
                vec![
                    Expr::qcol(binding, col),
                    Expr::func(
                        "extract_key_obj",
                        vec![Expr::qcol(binding, "data"), Expr::lit_str(parent_path)],
                    ),
                ],
            )
        }
    };

    let mut parts: Vec<Expr> = Vec::new();
    let mut needs_extract = relevant.is_empty();
    for (_, ty, st) in &relevant {
        // The physical column exists whenever the attribute is materialized
        // OR dirty: a dematerializing column (materialized=false,
        // dirty=true) still holds every value the materializer has not yet
        // moved back, so reads must probe it first.
        if st.materialized || st.dirty {
            let col = Expr::Column {
                table: Some(binding.to_string()),
                column: st.column_name.clone(),
            };
            // AnyText over a non-text physical column: downcast
            let col = if wanted.is_empty() && *ty != AttrType::Text {
                Expr::Cast { expr: Box::new(col), ty: sinew_sql::TypeName::Text }
            } else {
                col
            };
            parts.push(col);
            if st.dirty {
                needs_extract = true;
            }
        } else {
            needs_extract = true;
        }
    }
    if needs_extract {
        parts.push(Expr::func(extract_fn, vec![source_expr, Expr::lit_str(name)]));
    }
    let m = ctx.sinew.metrics();
    if parts.len() > 1 {
        m.rewritten_coalesce_refs.inc();
    } else if needs_extract {
        m.rewritten_virtual_refs.inc();
    } else {
        m.rewritten_physical_refs.inc();
    }
    Ok(if parts.len() == 1 {
        parts.pop().unwrap()
    } else {
        Expr::func("coalesce", parts)
    })
}

fn rewrite_update(sinew: &Sinew, upd: &Update, sets: &RowIdSetHandles) -> DbResult<Statement> {
    if !is_collection(sinew, &upd.table) {
        return Ok(Statement::Update(upd.clone()));
    }
    let ctx = Ctx::new(sinew, vec![(upd.table.clone(), upd.table.clone(), true)], sets);
    let mut assignments: Vec<(String, Expr)> = Vec::new();
    // Document edits compose per owner column:
    // data = set_key(set_key(data, ...), ...), parent = set_key(parent, ...)
    let mut doc_exprs: std::collections::HashMap<String, Expr> = std::collections::HashMap::new();
    for (col, value) in &upd.assignments {
        let mut value = value.clone();
        rewrite_expr(&ctx, &mut value, Hint::None)?;
        let states = ctx.states_for_name(&upd.table, col);
        // include dematerializing columns: their physical column still
        // exists and holds the live value, so assignments must write it
        // (the stale document copy is removed below when dirty)
        let materialized: Vec<_> =
            states.iter().filter(|(_, _, st)| st.materialized || st.dirty).collect();
        // Where does this key's document live? (reservoir or a
        // materialized ancestor object's column)
        let source = ctx.attr_source(&upd.table, col);
        let (owner, skip) = match (&source.parent_column, source.parent_dirty) {
            (Some(c), false) => (c.clone(), source.skip),
            // dirty ancestor: the value may still be in the reservoir;
            // editing the reservoir keeps COALESCE-based reads correct
            _ => ("data".to_string(), 0),
        };
        if materialized.is_empty() {
            // virtual (or brand-new) key: edit the owner document
            let base = doc_exprs.remove(&owner).unwrap_or_else(|| Expr::col(&owner));
            let mut args = vec![base, Expr::lit_str(col), value];
            if skip > 0 {
                args.push(Expr::lit_int(skip as i64));
            }
            doc_exprs.insert(owner, Expr::func("set_key", args));
        } else {
            // physical column; if dirty, also clear the stale document copy
            for (_, _, st) in &materialized {
                assignments.push((st.column_name.clone(), value.clone()));
                if st.dirty {
                    let base =
                        doc_exprs.remove(&owner).unwrap_or_else(|| Expr::col(&owner));
                    let mut args = vec![base, Expr::lit_str(col)];
                    if skip > 0 {
                        args.push(Expr::lit_int(skip as i64));
                    }
                    doc_exprs.insert(owner.clone(), Expr::func("remove_key", args));
                }
            }
        }
    }
    let mut owners: Vec<(String, Expr)> = doc_exprs.into_iter().collect();
    owners.sort_by(|a, b| a.0.cmp(&b.0));
    for (owner, e) in owners {
        assignments.push((owner, e));
    }
    let mut filter = upd.filter.clone();
    if let Some(f) = &mut filter {
        rewrite_predicate(&ctx, f)?;
    }
    Ok(Statement::Update(Update { table: upd.table.clone(), assignments, filter }))
}

fn rewrite_delete(sinew: &Sinew, del: &Delete, sets: &RowIdSetHandles) -> DbResult<Statement> {
    if !is_collection(sinew, &del.table) {
        return Ok(Statement::Delete(del.clone()));
    }
    let ctx = Ctx::new(sinew, vec![(del.table.clone(), del.table.clone(), true)], sets);
    let mut filter = del.filter.clone();
    if let Some(f) = &mut filter {
        rewrite_predicate(&ctx, f)?;
    }
    Ok(Statement::Delete(Delete { table: del.table.clone(), filter }))
}


#[cfg(test)]
mod tests {
    use super::*;
    use crate::AnalyzerPolicy;
    use std::sync::Arc;

    /// sinewbench/README.md defect 2: the background materializer flips a
    /// column's dirty flag between the rewrite of the SELECT item and of the
    /// GROUP BY key. Both must come out in the same physical form.
    #[test]
    fn flag_flip_between_two_references_of_one_statement() {
        let s = Arc::new(Sinew::in_memory());
        s.create_collection("t").unwrap();
        let docs: String = (0..300).map(|i| format!("{{\"k\": \"v{i}\"}}\n")).collect();
        s.load_jsonl("t", &docs).unwrap();
        let policy =
            AnalyzerPolicy { density_threshold: 0.5, cardinality_threshold: 100, sample_rows: 1000 };
        s.run_analyzer("t", &policy).unwrap();
        s.materialize_until_clean("t").unwrap();
        let (id, _) = s.catalog().ids_for_name("k")[0];

        let (flipper, mut flipped) = (s.clone(), false);
        AFTER_RESOLVE.with(|h| {
            *h.borrow_mut() = Some(Box::new(move |name| {
                if name == "k" && !flipped {
                    flipped = true;
                    flipper.catalog().set_flags("t", id, true, true).unwrap();
                }
            }))
        });
        let stmt = sinew_sql::parse_statement("SELECT k, COUNT(*) FROM t GROUP BY k").unwrap();
        let rewritten = rewrite_statement(&s, &stmt);
        AFTER_RESOLVE.with(|h| *h.borrow_mut() = None);

        let Statement::Select(sel) = rewritten.unwrap() else { panic!("not a select") };
        let SelectItem::Expr { expr, .. } = &sel.items[0] else { panic!("not an expr") };
        assert_eq!(expr, &sel.group_by[0], "one column, two physical forms");
        assert_eq!(expr, &Expr::qcol("t", "k"), "the statement saw the column clean");
        // the flip did happen: the next statement sees the dirty column
        assert!(s.rewrite("SELECT k FROM t").unwrap().contains("coalesce(t.k"));
    }

    fn indexed_owners() -> Sinew {
        let s = Sinew::in_memory();
        s.create_collection("t").unwrap();
        s.load_jsonl(
            "t",
            "{\"owner\": \"ann lee\", \"k\": 1}\n{\"owner\": \"bo lee\", \"k\": 2}\n\
             {\"owner\": \"cy\", \"k\": 3}\n",
        )
        .unwrap();
        s.enable_text_index("t").unwrap();
        s
    }

    /// A `matches()` row-id set lives from its rewrite until the call that
    /// rewrote it has run the statement, however that went.
    #[test]
    fn row_id_sets_leave_the_registry_with_their_statement() {
        let s = indexed_owners();
        for _ in 0..100 {
            let r = s.query("SELECT owner FROM t WHERE matches('owner', 'lee')").unwrap();
            assert_eq!(r.rows.len(), 2);
        }
        // rewritten, never bound
        assert!(s.rewrite("SELECT owner FROM t WHERE matches('*', 'ann')").unwrap().contains("'h101'"));
        // rewritten, then rejected by the planner before it binds anything
        assert!(s.query("SELECT owner FROM t, no_such_table WHERE matches('*', 'bo')").is_err());
        // registered, then the rest of the rewrite fails
        assert!(s.query("SELECT owner FROM t WHERE matches('*', 'bo') AND matches('*')").is_err());
        assert!(s.explain("SELECT owner FROM t WHERE matches('*', 'bo')").is_ok());
        assert!(s.rowid_sets.read().is_empty(), "left behind: {:?}", s.rowid_sets.read().keys());
    }

    /// The join planner binds a conjunct that spans relations once per
    /// candidate it costs: every one of those binds must find the set.
    #[test]
    fn matches_inside_a_conjunct_the_planner_binds_many_times() {
        let s = indexed_owners();
        s.db().execute("CREATE TABLE u (k int, v text)").unwrap();
        s.db().execute("INSERT INTO u VALUES (3, 'x'), (4, 'y')").unwrap();
        s.db().execute("CREATE TABLE w (k int)").unwrap();
        s.db().execute("INSERT INTO w VALUES (1), (2), (3)").unwrap();
        for from in ["t, u, w", "u, w, t", "w, t, u", "u, t, w"] {
            let r = s
                .query(&format!(
                    "SELECT t.owner, u.v FROM {from} \
                     WHERE t.k = w.k AND (matches('owner', 'ann') OR u.k = 3) \
                     ORDER BY t.owner, u.v"
                ))
                .unwrap();
            let rows: Vec<(String, String)> =
                r.rows.iter().map(|r| (r[0].display_text(), r[1].display_text())).collect();
            let expect = [("ann lee", "x"), ("ann lee", "y"), ("bo lee", "x"), ("cy", "x")];
            assert_eq!(rows, expect.map(|(o, v)| (o.to_string(), v.to_string())), "FROM {from}");
        }
        assert!(s.rowid_sets.read().is_empty());
    }

    /// `rewrite_statement` → `Database::plan` → `execute_statement`, the
    /// sequence `sinewbench` drives: the statement binds twice and runs as
    /// often as its holder likes. This entry point has no owner to release
    /// the set, so it stays registered.
    #[test]
    fn a_rewritten_matches_statement_plans_and_executes_repeatedly() {
        let s = indexed_owners();
        let stmt =
            sinew_sql::parse_statement("SELECT owner FROM t WHERE matches('owner', 'lee')").unwrap();
        let physical = rewrite_statement(&s, &stmt).unwrap();
        let Statement::Select(sel) = &physical else { panic!("not a select") };
        s.db().plan(sel).unwrap();
        for _ in 0..2 {
            assert_eq!(s.db().execute_statement(&physical).unwrap().rows.len(), 2);
        }
        assert_eq!(s.rowid_sets.read().len(), 1);
    }
}
