//! A seeded query generator, and the three checks each generated
//! statement runs through (DESIGN.md §31):
//!
//! 1. **the reference** — the serial run (`exec_threads = 1`,
//!    `block_rows = 1024`) agrees with [`crate::select`] under
//!    [`crate::agree`]'s rules;
//! 2. **ternary logic partitioning** (Rigger & Su, OOPSLA 2020) — for a
//!    statement without aggregates, DISTINCT or LIMIT, Q's rows equal, as
//!    a bag, those of Q WHERE p, Q WHERE NOT p and Q WHERE p IS NULL
//!    together: every row makes p true, false or NULL, and nothing else
//!    about Q changes. It needs no reference, and the four statements
//!    plan differently;
//! 3. **configurations** — at `exec_threads` {1, 2, 4} × `block_rows`
//!    {1, 3, 1024} the rows, or the error text, are byte-identical to the
//!    serial run's.
//!
//! The statements cover single-table scans, inner joins in both FROM
//! orders, `LEFT JOIN`s (an empty right side among them), `*`, GROUP BY
//! over NULL keys and over mixed Int/Float keys, HAVING, DISTINCT, ORDER
//! BY and LIMIT, over joins too. What a plan may legitimately choose is
//! never generated: a value that stands for several equal ones (`1` or
//! `1.0` as a group key, DISTINCT row or MIN) is drawn only from one table
//! scanned alone, whose rows come in row-id order.

use crate::{agree, select, Row};
use sinew_rdbms::datum::{ColType, Datum};
use sinew_rdbms::{Database, DbResult, ExecLimits};
use sinew_sql::{
    BinaryOp, Expr, Join, JoinKind, Literal, OrderItem, Select, SelectItem, SortOrder, TableRef,
    UnaryOp,
};

/// A table the generator draws from.
pub struct Table {
    pub name: String,
    pub rows: usize,
    pub cols: Vec<Col>,
    /// Whether it may be joined. A table whose values would let a plan
    /// pick between equal representatives (`1` and `1.0`, `0.0` and
    /// `-0.0`) is generated over alone.
    pub joins: bool,
}

pub struct Col {
    pub name: String,
    pub ty: ColType,
    /// Some of its non-NULL values, for literals that hit.
    pub samples: Vec<Datum>,
}

/// The generator's view of `db`'s tables: `(name, may be joined)`.
pub fn tables(db: &Database, names: &[(&str, bool)]) -> DbResult<Vec<Table>> {
    names
        .iter()
        .map(|&(name, joins)| {
            let schema = db.schema(name)?;
            let mut rows: Vec<Row> = Vec::new();
            db.scan_rows(name, &mut |_, row| {
                rows.push(row);
                Ok(true)
            })?;
            let step = (rows.len() / 16).max(1);
            let cols = schema
                .live_columns()
                .enumerate()
                .map(|(i, (_, c))| Col {
                    name: c.name.clone(),
                    ty: c.ty,
                    samples: rows
                        .iter()
                        .step_by(step)
                        .map(|r| r[i].clone())
                        .filter(|d| !d.is_null())
                        .collect(),
                })
                .collect();
            Ok(Table { name: name.to_string(), rows: rows.len(), cols, joins })
        })
        .collect()
}

/// One generated statement.
pub struct Case {
    pub sel: Select,
    /// The predicate Q is partitioned by, when partitioning applies.
    pub tlp: Option<Expr>,
}

impl Case {
    pub fn sql(&self) -> String {
        self.sel.to_string()
    }

    /// Q with `p` added to its WHERE.
    fn and(&self, p: Expr) -> String {
        let mut sel = self.sel.clone();
        sel.filter = Some(match sel.filter.take() {
            Some(w) => Expr::binary(BinaryOp::And, w, p),
            None => p,
        });
        sel.to_string()
    }
}

/// At most this many rows in the cross product of a join's tables, so the
/// reference's nested loops stay quick.
const CROSS_BUDGET: usize = 30_000;

/// The statement `seed` stands for.
pub fn case(tables: &[Table], seed: u64) -> Case {
    let mut g = Gen { rng: seed, tables, scope: Vec::new() };
    match g.below(10) {
        0..=2 => g.plain(false),
        3..=4 => g.plain(true),
        5..=6 => g.outer(),
        _ => g.grouped(),
    }
}

/// Run `case` through the three checks; each failure names its check.
/// Leaves `db` at the serial configuration.
pub fn check(db: &Database, case: &Case) -> Vec<String> {
    let run = |threads, block_rows, sql: &str| {
        db.set_exec_limits(ExecLimits {
            exec_threads: threads,
            block_rows,
            ..ExecLimits::default()
        });
        db.execute(sql).map(|r| r.rows)
    };
    let sql = case.sql();
    let serial = run(1, 1024, &sql);
    let mut failures = Vec::new();
    if let Err(e) = agree(&serial, &select(db, &case.sel)) {
        failures.push(format!("reference: {e}"));
    }
    if let Some(p) = &case.tlp {
        let parts = [
            p.clone(),
            Expr::Unary { op: UnaryOp::Not, expr: Box::new(p.clone()) },
            Expr::IsNull { expr: Box::new(p.clone()), negated: false },
        ]
        .map(|p| run(1, 1024, &case.and(p)));
        match (&serial, parts.iter().find_map(|p| p.as_ref().err())) {
            (Ok(whole), None) => {
                let mut union: Vec<Row> = Vec::new();
                for p in &parts {
                    union.extend(p.as_ref().unwrap().iter().cloned());
                }
                if let Err(e) = same_bag(whole, union) {
                    failures.push(format!("partitioning by {p}: {e}"));
                }
            }
            (Err(_), Some(_)) => {}
            (whole, part) => failures.push(format!(
                "partitioning by {p}: the whole gave {:?}, a part failed with {part:?}",
                whole.as_ref().map(Vec::len)
            )),
        }
    }
    let text = |o: &DbResult<Vec<Row>>| match o {
        Ok(rows) => format!("{rows:?}"),
        Err(e) => format!("error: {e}"),
    };
    let want = text(&serial);
    for threads in [1, 2, 4] {
        for block_rows in [1, 3, 1024] {
            if (threads, block_rows) == (1, 1024) {
                continue;
            }
            let got = text(&run(threads, block_rows, &sql));
            if got != want {
                failures.push(format!(
                    "{threads} threads, blocks of {block_rows}: {} where the serial run gave {}",
                    clip(&got),
                    clip(&want)
                ));
            }
        }
    }
    db.set_exec_limits(ExecLimits { exec_threads: 1, ..ExecLimits::default() });
    failures
}

fn clip(s: &str) -> &str {
    &s[..s.char_indices().nth(300).map_or(s.len(), |(i, _)| i)]
}

/// Bag equality of two row sets: every value identical.
fn same_bag(a: &[Row], mut b: Vec<Row>) -> Result<(), String> {
    if a.len() != b.len() {
        return Err(format!("{} rows, the parts {}", a.len(), b.len()));
    }
    let key = |r: &Row| format!("{r:?}");
    let mut a: Vec<String> = a.iter().map(key).collect();
    let mut b: Vec<String> = b.drain(..).map(|r| key(&r)).collect();
    a.sort();
    b.sort();
    match a.iter().zip(&b).find(|(x, y)| x != y) {
        Some((x, y)) => Err(format!("{x} where the parts have {y}")),
        None => Ok(()),
    }
}

struct Gen<'a> {
    rng: u64,
    tables: &'a [Table],
    /// The FROM bindings so far: `(binding, table)`.
    scope: Vec<(String, &'a Table)>,
}

impl<'a> Gen<'a> {
    /// splitmix64.
    fn next(&mut self) -> u64 {
        self.rng = self.rng.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut x = self.rng;
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn chance(&mut self, percent: usize) -> bool {
        self.below(100) < percent
    }

    fn pick<'t, T>(&mut self, from: &'t [T]) -> &'t T {
        &from[self.below(from.len())]
    }

    /// Bind one more table, drawn from `ok`; `None` if none qualifies.
    fn bind(&mut self, ok: impl Fn(&Table) -> bool) -> Option<TableRef> {
        let fits: Vec<&'a Table> = self.tables.iter().filter(|t| ok(t)).collect();
        if fits.is_empty() {
            return None;
        }
        let t = *self.pick(&fits);
        let taken = self.scope.iter().any(|(_, s)| s.name == t.name);
        let alias =
            (taken || self.chance(30)).then(|| format!("{}{}", &t.name[..1], self.scope.len()));
        let tref = TableRef { table: t.name.clone(), alias };
        self.scope.push((tref.binding().to_string(), t));
        Some(tref)
    }

    /// Tables that may join the scope within [`CROSS_BUDGET`].
    fn joinable(&self) -> impl Fn(&Table) -> bool {
        let cross: usize = self.scope.iter().map(|(_, t)| t.rows.max(1)).product();
        move |t: &Table| t.joins && cross * t.rows.max(1) <= CROSS_BUDGET
    }

    /// A column of the scope: `(binding, column)`, from `binding` if given.
    fn column(&mut self, binding: Option<usize>) -> (String, &'a Col) {
        let (b, t) = match binding {
            Some(i) => self.scope[i].clone(),
            None => self.pick(&self.scope.clone()).clone(),
        };
        (b, self.pick(&t.cols))
    }

    fn col_ref(&mut self, binding: &str, col: &Col) -> Expr {
        // Unqualified where one table is in scope, sometimes.
        let table = (self.scope.len() > 1 || self.chance(50)).then(|| binding.to_string());
        Expr::Column { table, column: col.name.clone() }
    }

    /// A literal near `col`'s values: one of them, or an integer literal
    /// against a float column and the other way round.
    fn literal(&mut self, col: &Col) -> Expr {
        let sample = match col.samples.is_empty() {
            true => None,
            false => Some(self.pick(&col.samples).clone()),
        };
        Expr::Literal(match (sample, col.ty) {
            (Some(Datum::Int(i)), _) if self.chance(15) => Literal::Float(i as f64 + 0.5),
            (Some(Datum::Float(f)), _) if self.chance(15) => Literal::Int(f.floor() as i64),
            (Some(Datum::Int(i)), _) => Literal::Int(i),
            (Some(Datum::Float(f)), _) => Literal::Float(f),
            (Some(Datum::Text(s)), _) => Literal::Str(s),
            (Some(Datum::Bool(b)), _) => Literal::Bool(b),
            (_, ColType::Text) => Literal::Str("w1".into()),
            (_, ColType::Float) => Literal::Float(1.5),
            _ => Literal::Int(1),
        })
    }

    /// A predicate over one column of the scope, possibly negated or OR-ed.
    fn pred(&mut self, binding: Option<usize>) -> Expr {
        let p = self.atom(binding);
        match self.below(10) {
            0 => Expr::Unary { op: UnaryOp::Not, expr: Box::new(p) },
            1 => Expr::binary(BinaryOp::Or, p, self.atom(binding)),
            _ => p,
        }
    }

    fn atom(&mut self, binding: Option<usize>) -> Expr {
        let (b, col) = self.column(binding);
        let c = self.col_ref(&b, col);
        let numeric = matches!(col.ty, ColType::Int | ColType::Float);
        let text = col.ty == ColType::Text;
        match self.below(10) {
            0 => Expr::IsNull { expr: Box::new(c), negated: self.chance(50) },
            1 if numeric || text => {
                let (lo, hi) = (self.literal(col), self.literal(col));
                Expr::Between {
                    expr: Box::new(c),
                    low: Box::new(lo),
                    high: Box::new(hi),
                    negated: self.chance(30),
                }
            }
            2 if numeric || text => {
                let list = (0..1 + self.below(3)).map(|_| self.literal(col)).collect();
                Expr::InList { expr: Box::new(c), list, negated: self.chance(30) }
            }
            3 if text => {
                let Expr::Literal(Literal::Str(s)) = self.literal(col) else { unreachable!() };
                let prefix: String = s.chars().take(2).collect();
                Expr::Like {
                    expr: Box::new(c),
                    pattern: Box::new(Expr::lit_str(&format!("{prefix}%"))),
                    negated: self.chance(30),
                }
            }
            4 if col.ty == ColType::Int => {
                let m = Expr::binary(BinaryOp::Mod, c, Expr::lit_int(2 + self.below(5) as i64));
                Expr::binary(BinaryOp::Eq, m, Expr::lit_int(self.below(2) as i64))
            }
            _ if numeric || text || col.ty == ColType::Bool => {
                let op = *self.pick(&[
                    BinaryOp::Eq,
                    BinaryOp::NotEq,
                    BinaryOp::Lt,
                    BinaryOp::LtEq,
                    BinaryOp::Gt,
                    BinaryOp::GtEq,
                ]);
                Expr::binary(op, c, self.literal(col))
            }
            _ => Expr::IsNull { expr: Box::new(c), negated: self.chance(50) },
        }
    }

    /// A projected expression over the scope.
    fn value(&mut self) -> Expr {
        let (b, col) = self.column(None);
        let c = self.col_ref(&b, col);
        match (self.below(6), col.ty) {
            (0, ColType::Int | ColType::Float) => Expr::binary(BinaryOp::Add, c, Expr::lit_int(1)),
            (1, _) => {
                let lit = self.literal(col);
                Expr::func("coalesce", vec![c, lit])
            }
            _ => c,
        }
    }

    /// WHERE: up to two predicates.
    fn filter(&mut self, extra: Option<Expr>) -> Option<Expr> {
        let mut parts: Vec<Expr> = extra.into_iter().collect();
        for _ in 0..self.below(3) {
            parts.push(self.pred(None));
        }
        Expr::conjoin(parts)
    }

    fn limit(&mut self, percent: usize) -> Option<u64> {
        self.chance(percent).then(|| *self.pick(&[0, 1, 5, 37]))
    }

    fn order(&mut self, items: &[Expr]) -> Vec<OrderItem> {
        let order = |g: &mut Self| if g.chance(40) { SortOrder::Desc } else { SortOrder::Asc };
        (0..self.below(3))
            .map(|_| {
                let expr = match items.is_empty() || self.chance(40) {
                    true => self.value(),
                    false => self.pick(items).clone(),
                };
                OrderItem { expr, order: order(self) }
            })
            .collect()
    }

    /// A select list: `*`, or one to three values.
    fn items(&mut self) -> (Vec<SelectItem>, Vec<Expr>) {
        if self.chance(30) {
            return (vec![SelectItem::Wildcard], Vec::new());
        }
        let exprs: Vec<Expr> = (0..1 + self.below(3)).map(|_| self.value()).collect();
        let items =
            exprs.iter().map(|e| SelectItem::Expr { expr: e.clone(), alias: None }).collect();
        (items, exprs)
    }

    /// `SELECT … FROM` one table, or an inner join of two or three in
    /// either FROM order, with or without `JOIN … ON`.
    fn plain(&mut self, join: bool) -> Case {
        // An inner join's first two tables hold rows: with an empty one
        // there is nothing to compare. A third may be empty.
        let first = self.bind(|t| !join || (t.joins && t.rows > 0)).expect("a table");
        let mut sel = empty_select(first);
        let mut on = None;
        if join {
            let fits = self.joinable();
            let Some(second) = self.bind(|t| t.rows > 0 && fits(t)) else {
                return self.finish_plain(sel, None);
            };
            let key = self.join_key(0, 1, true);
            if self.chance(20) {
                if let Some(third) = self.bind(self.joinable()) {
                    let left = self.below(2);
                    let k = self.join_key(left, 2, true);
                    sel.joins.push(Join { kind: JoinKind::Inner, table: third, on: k });
                }
            }
            if self.chance(50) {
                sel.from.push(second);
                on = Some(key);
            } else {
                sel.joins.insert(0, Join { kind: JoinKind::Inner, table: second, on: key });
            }
            if self.chance(50) {
                // The other FROM order.
                match sel.joins.first_mut() {
                    _ if sel.from.len() == 2 => sel.from.swap(0, 1),
                    Some(j) => std::mem::swap(&mut sel.from[0], &mut j.table),
                    None => unreachable!("two tables are bound"),
                }
                self.scope.swap(0, 1);
            }
        }
        self.finish_plain(sel, on)
    }

    fn finish_plain(&mut self, mut sel: Select, on: Option<Expr>) -> Case {
        let (items, exprs) = self.items();
        sel.items = items;
        sel.filter = self.filter(on);
        sel.order_by = self.order(&exprs);
        let single = self.scope.len() == 1;
        sel.distinct = single && self.chance(15);
        sel.limit = self.limit(25);
        let tlp = (!sel.distinct && sel.limit.is_none()).then(|| self.pred(None));
        Case { sel, tlp }
    }

    /// `l.x op r.y` between two bound tables: equality on a numeric or a
    /// text pair, or an inequality.
    fn join_key(&mut self, left: usize, right: usize, equi: bool) -> Expr {
        let (lb, lc) = self.column(Some(left));
        let kind = |c: &Col| match c.ty {
            ColType::Int | ColType::Float => 0,
            ColType::Text => 1,
            _ => 2,
        };
        let r = &self.scope[right].1;
        let same: Vec<&'a Col> =
            r.cols.iter().filter(|c| kind(c) == kind(lc) && kind(c) < 2).collect();
        let rb = self.scope[right].0.clone();
        let Some(&rc) = (!same.is_empty()).then(|| self.pick(&same)) else {
            return Expr::binary(BinaryOp::Eq, Expr::lit_int(1), Expr::lit_int(1));
        };
        let op = match equi || self.chance(50) {
            true => BinaryOp::Eq,
            false => *self.pick(&[BinaryOp::NotEq, BinaryOp::Lt]),
        };
        let (l, r) = (self.col_ref(&lb, lc), self.col_ref(&rb, rc));
        Expr::binary(op, l, r)
    }

    /// `FROM a LEFT JOIN b ON …`, the ON an equi key, an inequality or
    /// none, often with a conjunct on `b` alone that may leave it empty;
    /// sometimes a second join, inner or outer, after it.
    fn outer(&mut self) -> Case {
        let first = self.bind(|t| t.joins).expect("a table");
        let mut sel = empty_select(first);
        let Some(second) = self.bind(self.joinable()) else {
            return self.finish_plain(sel, None);
        };
        let mut on = match self.below(4) {
            0 => self.pred(Some(1)),
            k => self.join_key(0, 1, k == 1),
        };
        if self.chance(40) {
            on = Expr::binary(BinaryOp::And, on, self.pred(Some(1)));
        }
        sel.joins.push(Join { kind: JoinKind::Left, table: second, on });
        if self.chance(20) {
            if let Some(third) = self.bind(self.joinable()) {
                let kind = if self.chance(50) { JoinKind::Left } else { JoinKind::Inner };
                let left = self.below(2);
                let on = self.join_key(left, 2, true);
                sel.joins.push(Join { kind, table: third, on });
            }
        }
        self.finish_plain(sel, None)
    }

    /// GROUP BY zero to two keys — columns (NULLs among them), `col % k`,
    /// and over a table alone `COALESCE(int, float)` — with aggregates,
    /// maybe HAVING over an aggregate not in the select list, ORDER BY and
    /// LIMIT; over one table, an inner join or a LEFT JOIN.
    fn grouped(&mut self) -> Case {
        let mut case = match self.below(3) {
            0 => self.plain(true),
            1 if self.chance(50) => self.outer(),
            _ => self.plain(false),
        };
        let sel = &mut case.sel;
        let single = self.scope.len() == 1;
        let mut keys = Vec::new();
        for _ in 0..self.below(3) {
            let (b, col) = self.column(None);
            let c = self.col_ref(&b, col);
            let table = self.scope.iter().find(|(x, _)| *x == b).unwrap().1;
            let int = table.cols.iter().find(|c| c.ty == ColType::Int);
            let float = table.cols.iter().find(|c| c.ty == ColType::Float);
            keys.push(match (self.below(4), int, float) {
                (0, Some(i), Some(f)) if single => {
                    let (i, f) = (self.col_ref(&b, i), self.col_ref(&b, f));
                    Expr::func("coalesce", vec![i, f])
                }
                (1, ..) if col.ty == ColType::Int => {
                    Expr::binary(BinaryOp::Mod, c, Expr::lit_int(2 + self.below(4) as i64))
                }
                _ => c,
            });
        }
        let n_aggs = 1 + self.below(3);
        let aggs: Vec<Expr> = (0..n_aggs).map(|_| self.aggregate(single)).collect();
        let mut items: Vec<Expr> = keys.iter().filter(|_| self.chance(80)).cloned().collect();
        items.extend(aggs);
        sel.items =
            items.iter().map(|e| SelectItem::Expr { expr: e.clone(), alias: None }).collect();
        sel.group_by = keys;
        sel.distinct = false;
        sel.having = self.chance(30).then(|| {
            let agg = self.aggregate(single);
            let op = *self.pick(&[BinaryOp::Gt, BinaryOp::LtEq, BinaryOp::NotEq]);
            Expr::binary(op, agg, Expr::lit_int(self.below(40) as i64))
        });
        let order: Vec<Expr> = sel.group_by.iter().chain(&items).cloned().collect();
        sel.order_by = match self.chance(50) {
            true => {
                let n = 1 + self.below(2);
                (0..n)
                    .map(|_| OrderItem {
                        expr: self.pick(&order).clone(),
                        order: if self.chance(50) { SortOrder::Desc } else { SortOrder::Asc },
                    })
                    .collect()
            }
            false => Vec::new(),
        };
        sel.limit = self.limit(20);
        case.tlp = None;
        case
    }

    fn aggregate(&mut self, single: bool) -> Expr {
        let (b, col) = self.column(None);
        let c = self.col_ref(&b, col);
        let numeric = matches!(col.ty, ColType::Int | ColType::Float);
        let call = |name: &str, args: Vec<Expr>, distinct: bool, star: bool| Expr::Func {
            name: name.into(),
            args,
            distinct,
            star,
        };
        match self.below(8) {
            0 => call("count", vec![], false, true),
            1 => call("count", vec![c], false, false),
            2 | 3 if numeric => call("sum", vec![c], false, false),
            4 if numeric => call("avg", vec![c], false, false),
            5 => call("count", vec![c], true, false),
            6 if col.ty == ColType::Int && single => call("sum", vec![c], true, false),
            _ => {
                let name = if self.chance(50) { "min" } else { "max" };
                call(name, vec![c], false, false)
            }
        }
    }
}

fn empty_select(first: TableRef) -> Select {
    Select {
        distinct: false,
        items: Vec::new(),
        from: vec![first],
        joins: Vec::new(),
        filter: None,
        group_by: Vec::new(),
        having: None,
        order_by: Vec::new(),
        limit: None,
    }
}
