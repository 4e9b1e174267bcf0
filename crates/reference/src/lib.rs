//! # sinew-reference
//!
//! A plan-free reference evaluator for the engine's `SELECT`, the rules a
//! result is compared against it by, and a seeded query generator that
//! checks the engine three ways (DESIGN.md §31). Test support only.
//!
//! [`select`] evaluates a parsed [`Select`] by definition, over each
//! table's rows as [`Database::scan_rows`] returns them:
//!
//! * FROM is a nested loop over the tables in FROM order — their cross
//!   product — and a `LEFT JOIN` pads by definition: a row on its left
//!   that no right row matches is kept once, with a NULL for every column
//!   of the right table;
//! * then WHERE, GROUP BY and the aggregates, HAVING, the select list
//!   (`*` in FROM order), DISTINCT, ORDER BY and LIMIT.
//!
//! It shares with the engine only what defines a value: `Datum`'s
//! comparisons, grouping keys, casts and arithmetic, `like_match`, the
//! aggregate accumulators' `new`/`update`/`finish`, and the function
//! registry. It has no planner, plan, bound expression, block or thread.
//! The one liberty it takes, so that the suites stay fast: without an
//! outer join, a conjunct is tested at the first FROM level where every
//! table it names is bound; with one, WHERE is tested on complete rows.

use sinew_rdbms::agg::{Accumulator, AggKind};
use sinew_rdbms::datum::{ColType, Datum, GroupKey};
use sinew_rdbms::expr::like_match;
use sinew_rdbms::func::FuncRegistry;
use sinew_rdbms::{Database, DbError, DbResult, ScalarFn};
use sinew_sql::{
    BinaryOp, Expr, JoinKind, Literal, Select, SelectItem, SortOrder, Statement, UnaryOp,
};
use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

mod check;
pub mod gen;

pub use check::agree;

pub type Row = Vec<Datum>;

/// The reference's answer to one `SELECT`.
#[derive(Debug, Clone)]
pub struct Answer {
    pub columns: Vec<String>,
    /// Every row before LIMIT, in ORDER BY order when there is one.
    pub rows: Vec<Row>,
    /// With ORDER BY, each row's tie run: adjacent rows whose sort keys
    /// compare equal share one, and their order within it is the plan's.
    pub runs: Option<Vec<usize>>,
    pub limit: Option<u64>,
    /// Per output column: a `SUM` or `AVG`, whose Float value depends on
    /// the order its rows were added in.
    pub loose: Vec<bool>,
}

impl Answer {
    /// The rows LIMIT keeps, in the reference's order.
    pub fn limited(&self) -> &[Row] {
        let n = self.limit.map_or(self.rows.len(), |n| self.rows.len().min(n as usize));
        &self.rows[..n]
    }
}

/// Parse `sql` and evaluate it: only a `SELECT` has a reference answer.
pub fn query(db: &Database, sql: &str) -> DbResult<Answer> {
    match sinew_sql::parse_statement(sql).map_err(|e| DbError::Parse(e.to_string()))? {
        Statement::Select(sel) => select(db, &sel),
        other => Err(DbError::Eval(format!("no reference answer for {other}"))),
    }
}

/// Evaluate `sel` over `db`'s tables.
pub fn select(db: &Database, sel: &Select) -> DbResult<Answer> {
    let funcs = db.functions();
    let from = FromClause::load(db, sel, funcs)?;
    let mut items: Vec<(Expr, Option<String>)> = Vec::new();
    for item in &sel.items {
        match item {
            SelectItem::Wildcard if sel.from.is_empty() => {
                return Err(DbError::Schema("SELECT * requires FROM".into()))
            }
            SelectItem::Wildcard => {
                for (binding, column) in &from.scope.cols {
                    if column != "_rowid" {
                        let e =
                            Expr::Column { table: Some(binding.clone()), column: column.clone() };
                        items.push((e, Some(column.clone())));
                    }
                }
            }
            SelectItem::Expr { expr, alias } => items.push((expr.clone(), alias.clone())),
        }
    }
    let columns: Vec<String> =
        items.iter().map(|(e, alias)| alias.clone().unwrap_or_else(|| name_of(e))).collect();
    let loose = items
        .iter()
        .map(|(e, _)| matches!(aggregate(e), Some((AggKind::Sum | AggKind::Avg, ..))))
        .collect();
    let grouped = !sel.group_by.is_empty()
        || items.iter().any(|(e, _)| has_aggregate(e))
        || sel.having.as_ref().is_some_and(has_aggregate)
        || sel.order_by.iter().any(|o| has_aggregate(&o.expr));

    // Everything is resolved before a row is read, so a name error is an
    // error over empty tables too.
    let mut input = &from.scope;
    let key_evs: Vec<Ev> = match grouped {
        true => {
            sel.group_by.iter().map(|g| compile(g, &mut input, funcs)).collect::<DbResult<_>>()?
        }
        false => Vec::new(),
    };
    let mut groups = Grouped { keys: &sel.group_by, input: &from.scope, funcs, aggs: Vec::new() };
    let source: &mut dyn Names = if grouped { &mut groups } else { &mut input };
    let outputs: Vec<Ev> =
        items.iter().map(|(e, _)| compile(e, source, funcs)).collect::<DbResult<_>>()?;
    let having = sel.having.as_ref().map(|h| compile(h, source, funcs)).transpose()?;
    // An ORDER BY key names the output columns if it can, else the input.
    let mut order = Vec::new();
    for o in &sel.order_by {
        let from_output = !has_aggregate(&o.expr) && !has_grouped(&o.expr, &sel.group_by);
        let key = match from_output.then(|| compile(&o.expr, &mut Output(&columns), funcs)) {
            Some(Ok(ev)) => Key::Output(ev),
            _ => Key::Input(compile(&o.expr, source, funcs)?),
        };
        order.push((key, o.order == SortOrder::Desc));
    }

    let aggs = groups.aggs;
    let mut out: Vec<(Row, Vec<Datum>)> = Vec::new();
    let mut emit = |src: &dyn Cols| -> DbResult<()> {
        if let Some(h) = &having {
            if !holds(h, src)? {
                return Ok(());
            }
        }
        let vals: Row = outputs.iter().map(|e| e.value(src)).collect::<DbResult<_>>()?;
        let keys = order
            .iter()
            .map(|(k, _)| match k {
                Key::Output(e) => e.value(&vals),
                Key::Input(e) => e.value(src),
            })
            .collect::<DbResult<_>>()?;
        out.push((vals, keys));
        Ok(())
    };
    if grouped {
        let mut index: HashMap<Vec<GroupKey>, usize> = HashMap::new();
        let mut table: Vec<(Row, Vec<Accumulator>)> = Vec::new();
        from.each(&mut |row| {
            let key: Row = key_evs.iter().map(|g| g.value(row)).collect::<DbResult<_>>()?;
            let slot =
                *index.entry(key.iter().map(Datum::group_key).collect()).or_insert_with(|| {
                    let accs = aggs.iter().map(|a| Accumulator::new(a.kind, a.distinct)).collect();
                    table.push((key, accs));
                    table.len() - 1
                });
            for (acc, agg) in table[slot].1.iter_mut().zip(&aggs) {
                match &agg.arg {
                    Some(arg) => acc.update(&*arg.eval(row)?)?,
                    None => acc.update(&Datum::Bool(true))?,
                }
            }
            Ok(())
        })?;
        // Aggregates over no rows and no GROUP BY: one group of nothing.
        if table.is_empty() && sel.group_by.is_empty() {
            table.push((
                Vec::new(),
                aggs.iter().map(|a| Accumulator::new(a.kind, a.distinct)).collect(),
            ));
        }
        for (mut row, accs) in table {
            row.extend(accs.iter().map(Accumulator::finish));
            emit(&row)?;
        }
    } else {
        from.each(&mut |row| emit(row))?;
    }

    if sel.distinct {
        // Over the output and the ORDER BY keys that are not output.
        let mut seen = HashSet::new();
        out.retain(|(vals, keys)| {
            let hidden = keys.iter().zip(&order).filter(|(_, (k, _))| matches!(k, Key::Input(_)));
            let key: Vec<GroupKey> =
                vals.iter().chain(hidden.map(|(d, _)| d)).map(Datum::group_key).collect();
            seen.insert(key)
        });
    }
    let runs = (!order.is_empty()).then(|| {
        let cmp = |a: &[Datum], b: &[Datum]| zip_cmp(a, b, order.iter().map(|(_, desc)| *desc));
        out.sort_by(|a, b| cmp(&a.1, &b.1));
        let mut runs = Vec::with_capacity(out.len());
        for (i, (_, keys)) in out.iter().enumerate() {
            let run = match i {
                0 => 0,
                _ if cmp(&out[i - 1].1, keys) == Ordering::Equal => runs[i - 1],
                _ => runs[i - 1] + 1,
            };
            runs.push(run);
        }
        runs
    });
    Ok(Answer {
        columns,
        rows: out.into_iter().map(|(vals, _)| vals).collect(),
        runs,
        limit: sel.limit,
        loose,
    })
}

/// Compare sort keys: NULLs first ascending, `desc` reversing a key.
fn zip_cmp(a: &[Datum], b: &[Datum], desc: impl Iterator<Item = bool>) -> Ordering {
    for ((x, y), desc) in a.iter().zip(b).zip(desc) {
        let o = x.total_cmp(y);
        let o = if desc { o.reverse() } else { o };
        if o != Ordering::Equal {
            return o;
        }
    }
    Ordering::Equal
}

/// An ORDER BY key, over the output row or over the row it came from.
enum Key {
    Output(Ev),
    Input(Ev),
}

/// The FROM clause: one level per table, in FROM order.
struct FromClause {
    scope: Scope,
    levels: Vec<Level>,
    /// Conjuncts tested on complete rows.
    last: Vec<Ev>,
}

struct Level {
    rows: Vec<Row>,
    /// The NULLs a padded row reads.
    nulls: Row,
    offset: usize,
    width: usize,
    /// A LEFT JOIN's ON conjuncts: they decide which rows match, and a
    /// row on the left that none matches is kept, padded.
    outer: Option<Vec<Ev>>,
    /// Conjuncts tested once this level's row is bound.
    tests: Vec<Ev>,
}

impl FromClause {
    fn load(db: &Database, sel: &Select, funcs: &FuncRegistry) -> DbResult<FromClause> {
        let tables = sel.from.iter().chain(sel.joins.iter().map(|j| &j.table));
        let mut scope = Scope::default();
        let mut levels = Vec::new();
        for t in tables {
            let binding = t.binding();
            if levels.iter().any(|l: &Level| scope.cols[l.offset].0 == binding) {
                return Err(DbError::Schema(format!("duplicate table binding {binding}")));
            }
            let schema = db.schema(&t.table)?;
            let offset = scope.cols.len();
            for (_, col) in schema.live_columns() {
                scope.cols.push((binding.to_string(), col.name.clone()));
            }
            scope.cols.push((binding.to_string(), "_rowid".into()));
            let mut rows = Vec::new();
            db.scan_rows(&t.table, &mut |rowid, mut row| {
                row.push(Datum::Int(rowid as i64));
                rows.push(row);
                Ok(true)
            })?;
            let width = scope.cols.len() - offset;
            let nulls = vec![Datum::Null; width];
            levels.push(Level { rows, nulls, offset, width, outer: None, tests: Vec::new() });
        }
        let mut from = FromClause { scope, levels, last: Vec::new() };
        fn conjuncts(e: Option<&Expr>) -> Vec<&Expr> {
            e.map_or_else(Vec::new, Expr::conjuncts)
        }
        let n_from = sel.from.len();
        if sel.joins.iter().any(|j| j.kind == JoinKind::Left) {
            for (i, j) in sel.joins.iter().enumerate() {
                let at = n_from + i;
                let end = from.levels[at].offset + from.levels[at].width;
                let prefix = Scope { cols: from.scope.cols[..end].to_vec() };
                let on: Vec<Ev> = conjuncts(Some(&j.on))
                    .into_iter()
                    .map(|c| compile(c, &mut &prefix, funcs))
                    .collect::<DbResult<_>>()?;
                match j.kind {
                    JoinKind::Left => from.levels[at].outer = Some(on),
                    JoinKind::Inner => from.levels[at].tests.extend(on),
                }
            }
            for c in conjuncts(sel.filter.as_ref()) {
                let ev = compile(c, &mut &from.scope, funcs)?;
                from.last.push(ev);
            }
        } else {
            let pool = conjuncts(sel.filter.as_ref())
                .into_iter()
                .chain(sel.joins.iter().flat_map(|j| j.on.conjuncts()));
            for c in pool {
                let ev = compile(c, &mut &from.scope, funcs)?;
                let mut slots = Vec::new();
                ev.slots(&mut slots);
                let level = slots.iter().map(|&s| from.level_of(s)).max().unwrap_or(0);
                match from.levels.get_mut(level) {
                    Some(l) => l.tests.push(ev),
                    None => from.last.push(ev),
                }
            }
        }
        Ok(from)
    }

    fn level_of(&self, slot: usize) -> usize {
        self.levels.iter().rposition(|l| l.offset <= slot).expect("a slot lies in a level")
    }

    /// Call `f` with every row of the FROM clause that passes its tests.
    fn each(&self, f: &mut dyn FnMut(&Joined) -> DbResult<()>) -> DbResult<()> {
        let at: Vec<(usize, usize)> = (0..self.levels.len())
            .flat_map(|l| (0..self.levels[l].width).map(move |c| (l, c)))
            .collect();
        let mut parts: Vec<&[Datum]> = self.levels.iter().map(|l| l.nulls.as_slice()).collect();
        self.walk(0, &mut parts, &at, f)
    }

    fn walk<'a>(
        &'a self,
        level_at: usize,
        parts: &mut Vec<&'a [Datum]>,
        at: &[(usize, usize)],
        f: &mut dyn FnMut(&Joined) -> DbResult<()>,
    ) -> DbResult<()> {
        let Some(level) = self.levels.get(level_at) else {
            let row = Joined { parts, at };
            return if all(&self.last, &row)? { f(&row) } else { Ok(()) };
        };
        let mut matched = false;
        for row in &level.rows {
            parts[level_at] = row;
            if let Some(on) = &level.outer {
                if !all(on, &Joined { parts, at })? {
                    continue;
                }
            }
            matched = true;
            if all(&level.tests, &Joined { parts, at })? {
                self.walk(level_at + 1, parts, at, f)?;
            }
        }
        if level.outer.is_some() && !matched {
            parts[level_at] = &level.nulls;
            if all(&level.tests, &Joined { parts, at })? {
                self.walk(level_at + 1, parts, at, f)?;
            }
        }
        Ok(())
    }
}

/// Where an expression reads column `i` of its row.
trait Cols {
    fn col(&self, i: usize) -> &Datum;
}

impl Cols for Row {
    fn col(&self, i: usize) -> &Datum {
        &self[i]
    }
}

/// A row of the FROM clause: one row of each table, read in place.
struct Joined<'a, 'b> {
    parts: &'b [&'a [Datum]],
    /// Column `i` is `parts[at[i].0][at[i].1]`.
    at: &'b [(usize, usize)],
}

impl Cols for Joined<'_, '_> {
    fn col(&self, i: usize) -> &Datum {
        let (part, c) = self.at[i];
        &self.parts[part][c]
    }
}

/// Whether every conjunct holds (NULL does not), tested in order.
fn all(conjuncts: &[Ev], row: &dyn Cols) -> DbResult<bool> {
    for c in conjuncts {
        if !holds(c, row)? {
            return Ok(false);
        }
    }
    Ok(true)
}

fn holds(pred: &Ev, row: &dyn Cols) -> DbResult<bool> {
    match &*pred.eval(row)? {
        Datum::Bool(b) => Ok(*b),
        Datum::Null => Ok(false),
        other => Err(DbError::Eval(format!("predicate evaluated to {other}, expected bool"))),
    }
}

/// The kind, DISTINCT flag and argument of an aggregate call.
fn aggregate(e: &Expr) -> Option<(AggKind, bool, Option<&Expr>)> {
    let Expr::Func { name, args, distinct, star } = e else { return None };
    let kind = AggKind::parse(name, *star)?;
    match (star, args.as_slice()) {
        (true, _) => Some((kind, *distinct, None)),
        (false, [arg]) => Some((kind, *distinct, Some(arg))),
        _ => None,
    }
}

fn has_aggregate(e: &Expr) -> bool {
    let mut found = false;
    e.walk(&mut |n| found |= aggregate(n).is_some());
    found
}

/// Whether `e` holds a GROUP BY expression other than a bare column.
fn has_grouped(e: &Expr, keys: &[Expr]) -> bool {
    let mut found = false;
    e.walk(&mut |n| found |= keys.iter().any(|k| !matches!(k, Expr::Column { .. }) && k == n));
    found
}

fn name_of(e: &Expr) -> String {
    match e {
        Expr::Column { column, .. } => column.clone(),
        Expr::Func { name, .. } => name.to_ascii_lowercase(),
        _ => "?column?".into(),
    }
}

/// What the names in an expression refer to, as slots of the row it is
/// evaluated over.
trait Names {
    fn column(&self, table: Option<&str>, column: &str) -> DbResult<usize>;

    /// The slot that answers `e` whole — a grouped expression, an
    /// aggregate — if this context has one.
    fn whole(&mut self, _e: &Expr) -> DbResult<Option<usize>> {
        Ok(None)
    }
}

/// The one slot among `(slot, qualifier, name)` that `table.column`
/// names; an unqualified name matches under any qualifier.
fn pick<'a>(
    names: impl Iterator<Item = (usize, Option<&'a str>, &'a str)>,
    table: Option<&str>,
    column: &str,
) -> DbResult<usize> {
    let mut hits = names
        .filter(|(_, q, n)| *n == column && (table.is_none() || *q == table))
        .map(|(slot, ..)| slot);
    match (hits.next(), hits.next()) {
        (Some(slot), None) => Ok(slot),
        (Some(_), Some(_)) => {
            Err(DbError::Schema(format!("column reference {column} is ambiguous")))
        }
        (None, _) => Err(DbError::NotFound(match table {
            Some(t) => format!("column {t}.{column}"),
            None => format!("column {column}"),
        })),
    }
}

/// The columns of the FROM tables, as `(binding, column)`.
#[derive(Default)]
struct Scope {
    cols: Vec<(String, String)>,
}

impl Names for &Scope {
    fn column(&self, table: Option<&str>, column: &str) -> DbResult<usize> {
        let names = self.cols.iter().enumerate();
        pick(names.map(|(i, (b, n))| (i, Some(b.as_str()), n.as_str())), table, column)
    }
}

/// A grouped row: the GROUP BY values, then the aggregates the
/// expressions compiled against it asked for.
struct Grouped<'a> {
    keys: &'a [Expr],
    input: &'a Scope,
    funcs: &'a FuncRegistry,
    aggs: Vec<Agg>,
}

struct Agg {
    kind: AggKind,
    distinct: bool,
    arg: Option<Ev>,
}

impl Names for Grouped<'_> {
    /// Only a grouped column, named as the GROUP BY names it.
    fn column(&self, table: Option<&str>, column: &str) -> DbResult<usize> {
        let names = self.keys.iter().enumerate().filter_map(|(i, k)| match k {
            Expr::Column { table, column } => Some((i, table.as_deref(), column.as_str())),
            _ => None,
        });
        pick(names, table, column)
    }

    fn whole(&mut self, e: &Expr) -> DbResult<Option<usize>> {
        if let Some((kind, distinct, arg)) = aggregate(e) {
            let mut input = self.input;
            let arg = arg.map(|a| compile(a, &mut input, self.funcs)).transpose()?;
            self.aggs.push(Agg { kind, distinct, arg });
            return Ok(Some(self.keys.len() + self.aggs.len() - 1));
        }
        Ok(self.keys.iter().position(|k| !matches!(k, Expr::Column { .. }) && k == e))
    }
}

/// The output columns, by name: what an ORDER BY key may name.
struct Output<'a>(&'a [String]);

impl Names for Output<'_> {
    fn column(&self, table: Option<&str>, column: &str) -> DbResult<usize> {
        let names = self.0.iter().enumerate().map(|(i, n)| (i, None, n.as_str()));
        pick(names, table, column)
    }
}

/// An expression with its names resolved to slots.
enum Ev {
    Slot(usize),
    Lit(Datum),
    Not(Box<Ev>),
    Neg(Box<Ev>),
    Binary(BinaryOp, Box<Ev>, Box<Ev>),
    IsNull(Box<Ev>, bool),
    Between(Box<Ev>, Box<Ev>, Box<Ev>, bool),
    InList(Box<Ev>, Vec<Ev>, bool),
    Like(Box<Ev>, Box<Ev>, bool),
    Coalesce(Vec<Ev>),
    Call(Arc<dyn ScalarFn>, Vec<Ev>),
    Cast(Box<Ev>, ColType),
}

fn compile(e: &Expr, names: &mut dyn Names, funcs: &FuncRegistry) -> DbResult<Ev> {
    if let Some(slot) = names.whole(e)? {
        return Ok(Ev::Slot(slot));
    }
    let mut sub = |e: &Expr| compile(e, names, funcs).map(Box::new);
    Ok(match e {
        Expr::Column { table, column } => Ev::Slot(names.column(table.as_deref(), column)?),
        Expr::Literal(l) => Ev::Lit(match l {
            Literal::Null => Datum::Null,
            Literal::Bool(b) => Datum::Bool(*b),
            Literal::Int(i) => Datum::Int(*i),
            Literal::Float(f) => Datum::Float(*f),
            Literal::Str(s) => Datum::Text(s.clone()),
        }),
        Expr::Unary { op: UnaryOp::Not, expr } => Ev::Not(sub(expr)?),
        Expr::Unary { op: UnaryOp::Neg, expr } => Ev::Neg(sub(expr)?),
        Expr::Binary { op, left, right } => Ev::Binary(*op, sub(left)?, sub(right)?),
        Expr::IsNull { expr, negated } => Ev::IsNull(sub(expr)?, *negated),
        Expr::Between { expr, low, high, negated } => {
            Ev::Between(sub(expr)?, sub(low)?, sub(high)?, *negated)
        }
        Expr::InList { expr, list, negated } => {
            let e = sub(expr)?;
            let list = list.iter().map(|i| compile(i, names, funcs)).collect::<DbResult<_>>()?;
            Ev::InList(e, list, *negated)
        }
        Expr::Like { expr, pattern, negated } => Ev::Like(sub(expr)?, sub(pattern)?, *negated),
        Expr::Func { name, args, distinct, star } => {
            if *distinct || *star {
                return Err(DbError::Eval(format!(
                    "{name} is an aggregate and not valid in this context"
                )));
            }
            let coalesce = name.eq_ignore_ascii_case("coalesce");
            let func = match coalesce {
                true => None,
                false => Some(
                    funcs.get(name).ok_or_else(|| DbError::NotFound(format!("function {name}")))?,
                ),
            };
            let args = args.iter().map(|a| compile(a, names, funcs)).collect::<DbResult<_>>()?;
            match func {
                Some(func) => Ev::Call(func, args),
                None => Ev::Coalesce(args),
            }
        }
        Expr::Cast { expr, ty } => Ev::Cast(sub(expr)?, (*ty).into()),
    })
}

impl Ev {
    fn value(&self, row: &dyn Cols) -> DbResult<Datum> {
        self.eval(row).map(Cow::into_owned)
    }

    /// The value, borrowed where it is a column or a literal.
    fn eval<'r>(&'r self, row: &'r dyn Cols) -> DbResult<Cow<'r, Datum>> {
        Ok(Cow::Owned(match self {
            Ev::Slot(i) => return Ok(Cow::Borrowed(row.col(*i))),
            Ev::Lit(d) => return Ok(Cow::Borrowed(d)),
            Ev::Not(e) => match &*e.eval(row)? {
                Datum::Null => Datum::Null,
                Datum::Bool(b) => Datum::Bool(!b),
                other => return Err(DbError::Eval(format!("NOT applied to {other}"))),
            },
            Ev::Neg(e) => match &*e.eval(row)? {
                Datum::Null => Datum::Null,
                Datum::Int(i) => Datum::Int(
                    i.checked_neg()
                        .ok_or_else(|| DbError::Eval(format!("integer overflow in -{i}")))?,
                ),
                Datum::Float(f) => Datum::Float(-f),
                other => return Err(DbError::Eval(format!("cannot negate {other}"))),
            },
            Ev::Binary(op @ (BinaryOp::And | BinaryOp::Or), l, r) => {
                // Three-valued: a FALSE operand decides AND, a TRUE one OR.
                let decides = *op == BinaryOp::Or;
                let l = truth(*op, &*l.eval(row)?)?;
                if l == Some(decides) {
                    return Ok(Cow::Owned(Datum::Bool(decides)));
                }
                match (l, truth(*op, &*r.eval(row)?)?) {
                    (_, Some(r)) if r == decides => Datum::Bool(decides),
                    (Some(_), Some(_)) => Datum::Bool(!decides),
                    _ => Datum::Null,
                }
            }
            Ev::Binary(op, l, r) => {
                let (l, r) = (l.eval(row)?, r.eval(row)?);
                if op.is_comparison() {
                    l.sql_cmp(&r).map_or(Datum::Null, |o| Datum::Bool(cmp(*op, o)))
                } else if l.is_null() || r.is_null() {
                    Datum::Null
                } else if *op == BinaryOp::Concat {
                    Datum::Text(format!("{}{}", l.display_text(), r.display_text()))
                } else {
                    l.numeric_op(*op, &r)?
                }
            }
            Ev::IsNull(e, negated) => Datum::Bool(e.eval(row)?.is_null() != *negated),
            Ev::Between(e, lo, hi, negated) => {
                // `lo <= v AND v <= hi`, three-valued, then NOT if negated.
                let v = e.eval(row)?;
                let (lo, hi) = (lo.eval(row)?, hi.eval(row)?);
                let above = v.sql_cmp(&lo).map(|o| o != Ordering::Less);
                let below = v.sql_cmp(&hi).map(|o| o != Ordering::Greater);
                match (above, below) {
                    (Some(false), _) | (_, Some(false)) => Datum::Bool(*negated),
                    (Some(true), Some(true)) => Datum::Bool(!negated),
                    _ => Datum::Null,
                }
            }
            Ev::InList(e, list, negated) => {
                // `v = a OR v = b ...`, three-valued, then NOT if negated.
                let v = e.eval(row)?;
                let mut unknown = v.is_null();
                if !unknown {
                    for item in list {
                        match v.sql_eq(&*item.eval(row)?) {
                            Some(true) => return Ok(Cow::Owned(Datum::Bool(!negated))),
                            Some(false) => {}
                            None => unknown = true,
                        }
                    }
                }
                if unknown {
                    Datum::Null
                } else {
                    Datum::Bool(*negated)
                }
            }
            Ev::Like(e, pattern, negated) => match (&*e.eval(row)?, &*pattern.eval(row)?) {
                (Datum::Null, _) | (_, Datum::Null) => Datum::Null,
                (Datum::Text(s), Datum::Text(p)) => Datum::Bool(like_match(s, p) != *negated),
                (v, Datum::Text(p)) => Datum::Bool(like_match(&v.display_text(), p) != *negated),
                (_, other) => {
                    return Err(DbError::Eval(format!("LIKE pattern must be text, got {other}")))
                }
            },
            Ev::Coalesce(args) => {
                for a in args {
                    let v = a.eval(row)?;
                    if !v.is_null() {
                        return Ok(v);
                    }
                }
                Datum::Null
            }
            Ev::Call(func, args) => {
                let args: Vec<Datum> =
                    args.iter().map(|a| a.value(row)).collect::<DbResult<_>>()?;
                func.call(&args)?
            }
            Ev::Cast(e, ty) => e.eval(row)?.cast(*ty)?,
        }))
    }

    /// The slots this expression reads.
    fn slots(&self, out: &mut Vec<usize>) {
        let mut all = |evs: &[&Ev]| evs.iter().for_each(|e| e.slots(out));
        match self {
            Ev::Slot(i) => out.push(*i),
            Ev::Lit(_) => {}
            Ev::Not(e) | Ev::Neg(e) | Ev::IsNull(e, _) | Ev::Cast(e, _) => all(&[e]),
            Ev::Binary(_, l, r) | Ev::Like(l, r, _) => all(&[l, r]),
            Ev::Between(e, lo, hi, _) => all(&[e, lo, hi]),
            Ev::InList(e, list, _) => {
                e.slots(out);
                list.iter().for_each(|i| i.slots(out));
            }
            Ev::Coalesce(args) | Ev::Call(_, args) => args.iter().for_each(|a| a.slots(out)),
        }
    }
}

/// An AND/OR operand as a truth value (`None`: NULL).
fn truth(op: BinaryOp, d: &Datum) -> DbResult<Option<bool>> {
    match d {
        Datum::Null => Ok(None),
        Datum::Bool(b) => Ok(Some(*b)),
        other => Err(DbError::Eval(format!("{op} applied to {other}"))),
    }
}

/// Does an operand pair that compares as `o` satisfy comparison `op`?
fn cmp(op: BinaryOp, o: Ordering) -> bool {
    match op {
        BinaryOp::Eq => o == Ordering::Equal,
        BinaryOp::NotEq => o != Ordering::Equal,
        BinaryOp::Lt => o == Ordering::Less,
        BinaryOp::LtEq => o != Ordering::Greater,
        BinaryOp::Gt => o == Ordering::Greater,
        BinaryOp::GtEq => o != Ordering::Less,
        other => unreachable!("{other} is not a comparison"),
    }
}
