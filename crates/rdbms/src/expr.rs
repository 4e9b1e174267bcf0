//! Bound (physical) expressions and their evaluation.
//!
//! The binder resolves AST column references against a *scope* — the list
//! of columns flowing through an operator — producing [`PhysExpr`] trees
//! that evaluate directly against row slices with SQL three-valued logic.

use crate::datum::{ColType, Datum, NULL};
use crate::error::{DbError, DbResult};
use crate::exec::Row;
use crate::func::{FuncRegistry, ScalarFn, ValueTest};
use sinew_sql::{BinaryOp, Expr, Literal, UnaryOp};
use std::cmp::Ordering;
use std::sync::Arc;

/// A fully bound, executable expression.
#[derive(Clone)]
pub enum PhysExpr {
    /// Index into the input row.
    Column(usize),
    Literal(Datum),
    Not(Box<PhysExpr>),
    Neg(Box<PhysExpr>),
    Binary { op: BinaryOp, left: Box<PhysExpr>, right: Box<PhysExpr> },
    IsNull { expr: Box<PhysExpr>, negated: bool },
    Between { expr: Box<PhysExpr>, low: Box<PhysExpr>, high: Box<PhysExpr>, negated: bool },
    InList { expr: Box<PhysExpr>, list: Vec<PhysExpr>, negated: bool },
    Like { expr: Box<PhysExpr>, pattern: Box<PhysExpr>, negated: bool },
    Call { name: String, func: Arc<dyn ScalarFn>, args: Vec<PhysExpr> },
    /// Lazy COALESCE: arguments evaluate left-to-right, stopping at the
    /// first non-NULL — Sinew's dirty-column rewrite
    /// `COALESCE(col, extract_key(data, ...))` depends on this laziness to
    /// keep the §3.1.4 overhead small (the extraction must not run for rows
    /// whose value has already been materialized).
    Coalesce(Vec<PhysExpr>),
    Cast { expr: Box<PhysExpr>, ty: ColType },
    /// Per-row memoization point, planted by the planner's common-
    /// subexpression pass over the scan pipeline: the first evaluation in a
    /// row stores its result in the [`EvalCtx`] slot, later evaluations of
    /// the same subtree clone it back. Without a context (joins, sorts,
    /// plain `eval`) it is fully transparent — the inner expression
    /// evaluates directly, with zero overhead and identical semantics.
    Memo { slot: usize, expr: Box<PhysExpr> },
}

/// Per-row scratch for [`PhysExpr::Memo`] slots. One instance lives per
/// scan worker and is `reset()` between rows; slots grow on demand.
#[derive(Debug, Default)]
pub struct EvalCtx {
    slots: Vec<Option<Datum>>,
    /// The number of the build key a hash join's probe filter found for
    /// the row (DESIGN.md §40), which the join reads in place of its own
    /// lookup.
    pub(crate) found_key: Option<usize>,
}

impl EvalCtx {
    pub fn new() -> EvalCtx {
        EvalCtx::default()
    }

    /// Forget all memoized values (call between rows).
    pub fn reset(&mut self) {
        for s in &mut self.slots {
            *s = None;
        }
        self.found_key = None;
    }

    fn get(&self, slot: usize) -> Option<&Datum> {
        self.slots.get(slot).and_then(|s| s.as_ref())
    }

    fn put(&mut self, slot: usize, value: Datum) {
        if self.slots.len() <= slot {
            self.slots.resize(slot + 1, None);
        }
        self.slots[slot] = Some(value);
    }
}

/// A value evaluated by reference (DESIGN.md §40): a column of the row or
/// a literal of the plan, lent where it lies; a computed value, owned; or
/// the value in one of the row's memo slots, which is written once per row
/// and cleared by [`EvalCtx::reset`]. The slot is named, not borrowed, so
/// the context stays free for the next operand; [`Lent::value`] reads it.
pub enum Lent<'r> {
    Ref(&'r Datum),
    Own(Datum),
    Memo(usize),
}

impl Lent<'_> {
    /// The value. `ctx` is the context it was evaluated with: a memo slot
    /// is only lent when there was one.
    pub fn value<'s>(&'s self, ctx: Option<&'s EvalCtx>) -> &'s Datum {
        match self {
            Lent::Ref(d) => d,
            Lent::Own(d) => d,
            Lent::Memo(slot) => ctx.and_then(|c| c.get(*slot)).expect("a filled memo slot"),
        }
    }
}

/// Where an evaluated row's columns come from: column `i` by reference,
/// `None` past the row's end. A `[Datum]` row is one; a scan that tests
/// its filter before building the row supplies another (DESIGN.md §28).
pub trait ColumnSource {
    fn col(&self, i: usize) -> Option<&Datum>;
}

impl ColumnSource for [Datum] {
    #[inline]
    fn col(&self, i: usize) -> Option<&Datum> {
        self.get(i)
    }
}

fn column<R: ColumnSource + ?Sized>(row: &R, i: usize) -> DbResult<&Datum> {
    row.col(i).ok_or_else(|| DbError::Eval(format!("column index {i} out of range")))
}

impl std::fmt::Debug for PhysExpr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PhysExpr::Column(i) => write!(f, "#{i}"),
            PhysExpr::Literal(d) => write!(f, "{d:?}"),
            PhysExpr::Not(e) => write!(f, "NOT({e:?})"),
            PhysExpr::Neg(e) => write!(f, "-({e:?})"),
            PhysExpr::Binary { op, left, right } => write!(f, "({left:?} {op} {right:?})"),
            PhysExpr::IsNull { expr, negated } => {
                write!(f, "({expr:?} IS {}NULL)", if *negated { "NOT " } else { "" })
            }
            PhysExpr::Between { expr, low, high, .. } => {
                write!(f, "({expr:?} BETWEEN {low:?} AND {high:?})")
            }
            PhysExpr::InList { expr, list, .. } => write!(f, "({expr:?} IN {list:?})"),
            PhysExpr::Like { expr, pattern, .. } => write!(f, "({expr:?} LIKE {pattern:?})"),
            PhysExpr::Call { name, args, .. } => write!(f, "{name}({args:?})"),
            PhysExpr::Coalesce(args) => write!(f, "COALESCE({args:?})"),
            PhysExpr::Cast { expr, ty } => write!(f, "CAST({expr:?} AS {})", ty.name()),
            // Transparent: EXPLAIN output must not depend on whether the
            // CSE pass planted a memo point here.
            PhysExpr::Memo { expr, .. } => write!(f, "{expr:?}"),
        }
    }
}

impl PhysExpr {
    /// Evaluate against a row.
    pub fn eval(&self, row: &[Datum]) -> DbResult<Datum> {
        self.eval_with(row, None)
    }

    /// Evaluate with a memoization context (scan-pipeline hot path).
    pub fn eval_ctx(&self, row: &[Datum], ctx: &mut EvalCtx) -> DbResult<Datum> {
        self.eval_with(row, Some(ctx))
    }

    /// Evaluate by reference: a column or a literal is lent, not cloned
    /// (DESIGN.md §40).
    pub fn lend<'r>(&'r self, row: &'r [Datum]) -> DbResult<Lent<'r>> {
        self.lend_with(row, None)
    }

    /// [`PhysExpr::lend`] with the row's memoization context, over any
    /// [`ColumnSource`]: a memo slot is lent too.
    pub(crate) fn lend_over<'r, R: ColumnSource + ?Sized>(
        &'r self,
        row: &'r R,
        ctx: &mut EvalCtx,
    ) -> DbResult<Lent<'r>> {
        self.lend_with(row, Some(ctx))
    }

    /// The by-reference evaluator: columns, literals, `COALESCE` and memo
    /// slots lend their value; every other expression evaluates owned.
    fn lend_with<'r, R: ColumnSource + ?Sized>(
        &'r self,
        row: &'r R,
        mut ctx: Option<&mut EvalCtx>,
    ) -> DbResult<Lent<'r>> {
        Ok(match self {
            PhysExpr::Column(i) => Lent::Ref(column(row, *i)?),
            PhysExpr::Literal(d) => Lent::Ref(d),
            PhysExpr::Coalesce(args) => {
                for a in args {
                    let v = a.lend_with(row, ctx.as_deref_mut())?;
                    if !v.value(ctx.as_deref()).is_null() {
                        return Ok(v);
                    }
                }
                Lent::Ref(&NULL)
            }
            PhysExpr::Memo { slot, expr } => match ctx {
                None => expr.lend_with(row, None)?,
                Some(c) => {
                    if c.get(*slot).is_none() {
                        let v = match expr.lend_with(row, Some(c))? {
                            Lent::Own(v) => v,
                            other => other.value(Some(c)).clone(),
                        };
                        c.put(*slot, v);
                    }
                    Lent::Memo(*slot)
                }
            },
            other => Lent::Own(other.eval_with(row, ctx)?),
        })
    }

    /// The one evaluator, generic over where a row's columns live: a
    /// `[Datum]` row, or a scan's in-place view of a row it has not built
    /// yet (DESIGN.md §28).
    fn eval_with<R: ColumnSource + ?Sized>(
        &self,
        row: &R,
        mut ctx: Option<&mut EvalCtx>,
    ) -> DbResult<Datum> {
        match self {
            PhysExpr::Column(i) => Ok(column(row, *i)?.clone()),
            PhysExpr::Literal(d) => Ok(d.clone()),
            PhysExpr::Not(e) => match e.eval_with(row, ctx)? {
                Datum::Null => Ok(Datum::Null),
                Datum::Bool(b) => Ok(Datum::Bool(!b)),
                other => Err(DbError::Eval(format!("NOT applied to {other}"))),
            },
            PhysExpr::Neg(e) => match e.eval_with(row, ctx)? {
                Datum::Null => Ok(Datum::Null),
                Datum::Int(i) => Ok(Datum::Int(-i)),
                Datum::Float(f) => Ok(Datum::Float(-f)),
                other => Err(DbError::Eval(format!("cannot negate {other}"))),
            },
            PhysExpr::Binary { op, left, right } => eval_binary(*op, left, right, row, ctx),
            // Comparisons and tests read their operands by reference.
            PhysExpr::IsNull { expr, negated } => {
                let v = expr.lend_with(row, ctx.as_deref_mut())?;
                Ok(Datum::Bool(v.value(ctx.as_deref()).is_null() != *negated))
            }
            PhysExpr::Between { expr, low, high, negated } => {
                let v = expr.lend_with(row, ctx.as_deref_mut())?;
                let lo = low.lend_with(row, ctx.as_deref_mut())?;
                let hi = high.lend_with(row, ctx.as_deref_mut())?;
                let (c, v) = (ctx.as_deref(), v.value(ctx.as_deref()));
                Ok(between(v.sql_cmp(lo.value(c)), v.sql_cmp(hi.value(c)), *negated))
            }
            PhysExpr::InList { expr, list, negated } => {
                let v = expr.lend_with(row, ctx.as_deref_mut())?;
                if v.value(ctx.as_deref()).is_null() {
                    return Ok(Datum::Null);
                }
                let mut saw_null = false;
                for item in list {
                    let item = item.lend_with(row, ctx.as_deref_mut())?;
                    let c = ctx.as_deref();
                    match v.value(c).sql_eq(item.value(c)) {
                        Some(true) => return Ok(Datum::Bool(!*negated)),
                        Some(false) => {}
                        None => saw_null = true,
                    }
                }
                if saw_null {
                    Ok(Datum::Null)
                } else {
                    Ok(Datum::Bool(*negated))
                }
            }
            PhysExpr::Like { expr, pattern, negated } => {
                let v = expr.lend_with(row, ctx.as_deref_mut())?;
                let p = pattern.lend_with(row, ctx.as_deref_mut())?;
                let c = ctx.as_deref();
                match (v.value(c), p.value(c)) {
                    (Datum::Null, _) | (_, Datum::Null) => Ok(Datum::Null),
                    (Datum::Text(s), Datum::Text(p)) => {
                        Ok(Datum::Bool(like_match(s, p) != *negated))
                    }
                    (v, Datum::Text(p)) => {
                        Ok(Datum::Bool(like_match(&v.display_text(), p) != *negated))
                    }
                    (_, other) => Err(DbError::Eval(format!("LIKE pattern must be text, got {other}"))),
                }
            }
            PhysExpr::Coalesce(args) => {
                for a in args {
                    let v = a.eval_with(row, ctx.as_deref_mut())?;
                    if !v.is_null() {
                        return Ok(v);
                    }
                }
                Ok(Datum::Null)
            }
            PhysExpr::Call { func, args, name } => {
                // Borrow Literal/Column arguments in place; only computed
                // arguments are materialized into scratch. Extraction UDFs
                // override `call_ref`, so the reservoir bytea and the
                // path/tag literals are never cloned per row. The argument
                // list sits on the stack when it fits (DESIGN.md §35).
                let mut scratch: Vec<Datum> = Vec::new();
                for a in args {
                    match a {
                        PhysExpr::Literal(_) | PhysExpr::Column(_) => {}
                        other => scratch.push(other.eval_with(row, ctx.as_deref_mut())?),
                    }
                }
                let mut computed = scratch.iter();
                let (mut stack, mut spilled) = ([&NULL; 4], None);
                let refs: &mut [&Datum] = match stack.get_mut(..args.len()) {
                    Some(refs) => refs,
                    None => spilled.insert(vec![&NULL; args.len()]).as_mut_slice(),
                };
                for (r, a) in refs.iter_mut().zip(args) {
                    *r = match a {
                        PhysExpr::Literal(d) => d,
                        PhysExpr::Column(i) => column(row, *i)?,
                        _ => computed.next().expect("scratch covers computed args"),
                    };
                }
                func.call_ref(refs).map_err(|e| match e {
                    DbError::Eval(m) => DbError::Eval(format!("{name}: {m}")),
                    other => other,
                })
            }
            PhysExpr::Cast { expr, ty } => expr.eval_with(row, ctx)?.cast(*ty),
            PhysExpr::Memo { slot, expr } => match ctx {
                None => expr.eval_with(row, None),
                Some(c) => {
                    if let Some(v) = c.get(*slot) {
                        return Ok(v.clone());
                    }
                    let v = expr.eval_with(row, Some(c))?;
                    c.put(*slot, v.clone());
                    Ok(v)
                }
            },
        }
    }

    /// Evaluate as a predicate: NULL ⇒ false (SQL WHERE semantics).
    pub fn eval_bool(&self, row: &[Datum]) -> DbResult<bool> {
        match self.eval(row)? {
            Datum::Bool(b) => Ok(b),
            Datum::Null => Ok(false),
            other => Err(DbError::Eval(format!("predicate evaluated to {other}, expected bool"))),
        }
    }

    /// Predicate evaluation with a memoization context.
    pub fn eval_bool_ctx(&self, row: &[Datum], ctx: &mut EvalCtx) -> DbResult<bool> {
        self.eval_bool_over(row, ctx)
    }

    /// [`PhysExpr::eval_bool_ctx`] over any [`ColumnSource`]: how a scan
    /// tests a row it has not built yet (DESIGN.md §28).
    pub(crate) fn eval_bool_over<R: ColumnSource + ?Sized>(
        &self,
        row: &R,
        ctx: &mut EvalCtx,
    ) -> DbResult<bool> {
        match self.eval_with(row, Some(ctx))? {
            Datum::Bool(b) => Ok(b),
            Datum::Null => Ok(false),
            other => Err(DbError::Eval(format!("predicate evaluated to {other}, expected bool"))),
        }
    }

    /// The direct sub-expressions, in evaluation order. The one place that
    /// knows every variant's shape: each tree walk below, and the planner's
    /// passes, are folds over it.
    pub fn children(&self) -> Vec<&PhysExpr> {
        match self {
            PhysExpr::Column(_) | PhysExpr::Literal(_) => Vec::new(),
            PhysExpr::Not(e) | PhysExpr::Neg(e) => vec![e.as_ref()],
            PhysExpr::Binary { left, right, .. } => vec![left.as_ref(), right.as_ref()],
            PhysExpr::IsNull { expr, .. }
            | PhysExpr::Cast { expr, .. }
            | PhysExpr::Memo { expr, .. } => vec![expr.as_ref()],
            PhysExpr::Between { expr, low, high, .. } => {
                vec![expr.as_ref(), low.as_ref(), high.as_ref()]
            }
            PhysExpr::InList { expr, list, .. } => {
                std::iter::once(expr.as_ref()).chain(list).collect()
            }
            PhysExpr::Like { expr, pattern, .. } => vec![expr.as_ref(), pattern.as_ref()],
            PhysExpr::Call { args, .. } | PhysExpr::Coalesce(args) => args.iter().collect(),
        }
    }

    /// [`PhysExpr::children`], mutably.
    pub fn children_mut(&mut self) -> Vec<&mut PhysExpr> {
        match self {
            PhysExpr::Column(_) | PhysExpr::Literal(_) => Vec::new(),
            PhysExpr::Not(e) | PhysExpr::Neg(e) => vec![e.as_mut()],
            PhysExpr::Binary { left, right, .. } => vec![left.as_mut(), right.as_mut()],
            PhysExpr::IsNull { expr, .. }
            | PhysExpr::Cast { expr, .. }
            | PhysExpr::Memo { expr, .. } => vec![expr.as_mut()],
            PhysExpr::Between { expr, low, high, .. } => {
                vec![expr.as_mut(), low.as_mut(), high.as_mut()]
            }
            PhysExpr::InList { expr, list, .. } => {
                std::iter::once(expr.as_mut()).chain(list).collect()
            }
            PhysExpr::Like { expr, pattern, .. } => vec![expr.as_mut(), pattern.as_mut()],
            PhysExpr::Call { args, .. } | PhysExpr::Coalesce(args) => args.iter_mut().collect(),
        }
    }

    /// True when no [`PhysExpr::Column`] occurs — evaluable without a row.
    pub fn is_constant(&self) -> bool {
        !matches!(self, PhysExpr::Column(_))
            && self.children().into_iter().all(PhysExpr::is_constant)
    }

    /// Collect referenced column indices.
    pub fn column_refs(&self, out: &mut Vec<usize>) {
        if let PhysExpr::Column(i) = self {
            out.push(*i);
        }
        for c in self.children() {
            c.column_refs(out);
        }
    }

    /// Predicate over a block: the selected indices (of `rows`) for which
    /// this expression evaluates true, in input order. NULL ⇒ not selected
    /// (SQL WHERE semantics), matching [`PhysExpr::eval_bool_ctx`].
    pub fn filter_block(
        &self,
        rows: &[Row],
        sel: Option<&[u32]>,
        ctx: &mut EvalCtx,
    ) -> DbResult<Vec<u32>> {
        let mut keep = Vec::new();
        match sel {
            Some(s) => {
                for &i in s {
                    ctx.reset();
                    if self.eval_bool_ctx(&rows[i as usize], ctx)? {
                        keep.push(i);
                    }
                }
            }
            None => {
                for (i, row) in rows.iter().enumerate() {
                    ctx.reset();
                    if self.eval_bool_ctx(row, ctx)? {
                        keep.push(i as u32);
                    }
                }
            }
        }
        Ok(keep)
    }

    /// Offer each predicate over a call in this tree to the call's
    /// function ([`ScalarFn::bind_test`]); a predicate the function takes
    /// becomes a call of the returned test over the call's own arguments,
    /// named `test[<call> <test>]` so plan text shows it. Run by the
    /// planner over scan filters after costing (DESIGN.md §27).
    pub fn offer_value_tests(&mut self) {
        let taken = value_test(self).and_then(|(call, test)| {
            let PhysExpr::Call { name, func, args } = call else { return None };
            let func = func.bind_test(&test)?;
            Some(PhysExpr::Call { name: format!("test[{name} {test}]"), func, args: args.clone() })
        });
        match taken {
            Some(e) => *self = e,
            None => self.children_mut().into_iter().for_each(PhysExpr::offer_value_tests),
        }
    }

    /// The top-level `AND` conjuncts of this predicate, looking through
    /// memo points.
    pub fn conjuncts(&self) -> Vec<&PhysExpr> {
        match self {
            PhysExpr::Binary { op: BinaryOp::And, left, right } => {
                let mut out = left.conjuncts();
                out.extend(right.conjuncts());
                out
            }
            PhysExpr::Memo { expr, .. } => expr.conjuncts(),
            other => vec![other],
        }
    }

    /// Whether this tree reads column `col` only as the first argument of
    /// calls that claim NULL-equivalence tags ([`ScalarFn::null_tags`]),
    /// adding their tags to `tags`. If so, a row whose `col` value carries
    /// none of `tags` evaluates this tree as if that value were NULL
    /// (DESIGN.md §33).
    pub fn null_tags(&self, col: usize, tags: &mut Vec<u32>) -> bool {
        match self {
            PhysExpr::Column(c) => *c != col,
            PhysExpr::Call { func, args, .. }
                if matches!(args.first(), Some(PhysExpr::Column(c)) if *c == col) =>
            {
                let Some(claimed) = func.null_tags() else { return false };
                tags.extend(claimed);
                args[1..].iter().all(|a| a.null_tags(col, tags))
            }
            other => other.children().into_iter().all(|c| c.null_tags(col, tags)),
        }
    }

    /// True if any function call occurs in the tree. Function calls are
    /// opaque to the optimizer (no statistics), which is what triggers
    /// default selectivity estimates for Sinew's virtual columns.
    pub fn contains_call(&self) -> bool {
        matches!(self, PhysExpr::Call { .. })
            || self.children().into_iter().any(PhysExpr::contains_call)
    }
}

fn eval_binary<R: ColumnSource + ?Sized>(
    op: BinaryOp,
    left: &PhysExpr,
    right: &PhysExpr,
    row: &R,
    mut ctx: Option<&mut EvalCtx>,
) -> DbResult<Datum> {
    use BinaryOp::*;
    // AND/OR need three-valued logic with short-circuit.
    if op == And || op == Or {
        let l = left.eval_with(row, ctx.as_deref_mut())?;
        let lb = match &l {
            Datum::Null => None,
            Datum::Bool(b) => Some(*b),
            other => return Err(DbError::Eval(format!("{op} applied to {other}"))),
        };
        match (op, lb) {
            (And, Some(false)) => return Ok(Datum::Bool(false)),
            (Or, Some(true)) => return Ok(Datum::Bool(true)),
            _ => {}
        }
        let r = right.eval_with(row, ctx)?;
        let rb = match &r {
            Datum::Null => None,
            Datum::Bool(b) => Some(*b),
            other => return Err(DbError::Eval(format!("{op} applied to {other}"))),
        };
        return Ok(match (op, lb, rb) {
            (And, Some(true), Some(b)) => Datum::Bool(b),
            (And, _, Some(false)) => Datum::Bool(false),
            (Or, Some(false), Some(b)) => Datum::Bool(b),
            (Or, _, Some(true)) => Datum::Bool(true),
            _ => Datum::Null,
        });
    }
    if op.is_comparison() {
        // Operands by reference: a column compared with a literal clones
        // neither (DESIGN.md §40).
        let l = left.lend_with(row, ctx.as_deref_mut())?;
        let r = right.lend_with(row, ctx.as_deref_mut())?;
        let c = ctx.as_deref();
        let o = l.value(c).sql_cmp(r.value(c));
        return Ok(o.map_or(Datum::Null, |o| Datum::Bool(cmp_holds(op, o))));
    }
    let l = left.eval_with(row, ctx.as_deref_mut())?;
    let r = right.eval_with(row, ctx)?;
    if l.is_null() || r.is_null() {
        return Ok(Datum::Null);
    }
    match op {
        Concat => Ok(Datum::Text(format!("{}{}", l.display_text(), r.display_text()))),
        Add | Sub | Mul | Div | Mod => l.numeric_op(op, &r),
        _ => unreachable!(),
    }
}

/// Does a value that compares as `o` satisfy comparison `op`?
pub(crate) fn cmp_holds(op: BinaryOp, o: Ordering) -> bool {
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

/// `v [NOT] BETWEEN lo AND hi` for a `v` that compares with the bounds as
/// `lo` and `hi` (`None`: not comparable, so NULL).
///
/// Postgres rewrites BETWEEN as two comparisons without memoizing the
/// operand (paper §6.4 contrasts this with MongoDB's precompute) —
/// semantics are unchanged here since evaluation is pure; the *cost*
/// difference is modeled where extraction happens (two extract calls for
/// virtual columns).
pub(crate) fn between(lo: Option<Ordering>, hi: Option<Ordering>, negated: bool) -> Datum {
    match (lo, hi) {
        (Some(lo), Some(hi)) => {
            Datum::Bool((lo != Ordering::Less && hi != Ordering::Greater) != negated)
        }
        _ => Datum::Null,
    }
}

/// Flip a comparison for `lit op e` → `e op' lit`.
pub(crate) fn flip(op: BinaryOp) -> BinaryOp {
    match op {
        BinaryOp::Lt => BinaryOp::Gt,
        BinaryOp::LtEq => BinaryOp::GtEq,
        BinaryOp::Gt => BinaryOp::Lt,
        BinaryOp::GtEq => BinaryOp::LtEq,
        other => other,
    }
}

/// The call and the test if `e` is one of the predicate shapes
/// [`PhysExpr::offer_value_tests`] offers: `call op lit`, `lit op call`,
/// `call [NOT] BETWEEN lit AND lit`, `array_contains(call, lit)` and
/// `call IS [NOT] NULL`.
fn value_test(e: &PhysExpr) -> Option<(&PhysExpr, ValueTest)> {
    use PhysExpr::{Call, Literal};
    Some(match e {
        PhysExpr::Binary { op, left, right } if op.is_comparison() => {
            match (left.as_ref(), right.as_ref()) {
                (call @ Call { .. }, Literal(lit)) => (call, ValueTest::Cmp(*op, lit.clone())),
                (Literal(lit), call @ Call { .. }) => {
                    (call, ValueTest::Cmp(flip(*op), lit.clone()))
                }
                _ => return None,
            }
        }
        PhysExpr::Between { expr, low, high, negated } => match (&**expr, &**low, &**high) {
            (call @ Call { .. }, Literal(lo), Literal(hi)) => {
                (call, ValueTest::Between { lo: lo.clone(), hi: hi.clone(), negated: *negated })
            }
            _ => return None,
        },
        Call { name, args, .. } if name.eq_ignore_ascii_case("array_contains") => {
            match args.as_slice() {
                [call @ Call { .. }, Literal(needle)] => {
                    (call, ValueTest::Contains(needle.clone()))
                }
                _ => return None,
            }
        }
        PhysExpr::IsNull { expr, negated } => match &**expr {
            call @ Call { .. } => (call, ValueTest::IsNull { negated: *negated }),
            _ => return None,
        },
        _ => return None,
    })
}

/// SQL LIKE matcher: `%` any run, `_` any single char; backslash escapes.
/// Iterative two-pointer algorithm, O(n·m) worst case, no recursion.
pub fn like_match(s: &str, pattern: &str) -> bool {
    let s: Vec<char> = s.chars().collect();
    let p: Vec<char> = pattern.chars().collect();
    let (mut si, mut pi) = (0usize, 0usize);
    let mut star: Option<(usize, usize)> = None; // (pi after %, si at that time)
    while si < s.len() {
        let pc = p.get(pi).copied();
        let escaped = pc == Some('\\') && pi + 1 < p.len();
        let (effective, adv) = if escaped { (p.get(pi + 1).copied(), 2) } else { (pc, 1) };
        match effective {
            Some('%') if !escaped => {
                star = Some((pi + 1, si));
                pi += 1;
            }
            Some('_') if !escaped => {
                si += 1;
                pi += 1;
            }
            Some(c) if Some(c) == s.get(si).copied() => {
                si += 1;
                pi += adv;
            }
            _ => match star {
                Some((sp, ss)) => {
                    pi = sp;
                    si = ss + 1;
                    star = Some((sp, ss + 1));
                }
                None => return false,
            },
        }
    }
    while p.get(pi) == Some(&'%') {
        pi += 1;
    }
    pi == p.len()
}

/// Column resolution scope: an ordered list of `(qualifier, column_name)`
/// pairs matching the row layout flowing into an operator.
#[derive(Debug, Clone, Default)]
pub struct Scope {
    pub cols: Vec<(Option<String>, String)>,
}

impl Scope {
    pub fn resolve(&self, table: Option<&str>, column: &str) -> DbResult<usize> {
        let mut found = None;
        for (i, (q, name)) in self.cols.iter().enumerate() {
            let qual_ok = match table {
                None => true,
                Some(t) => q.as_deref() == Some(t),
            };
            if qual_ok && name == column {
                if found.is_some() {
                    return Err(DbError::Schema(format!("column reference {column} is ambiguous")));
                }
                found = Some(i);
            }
        }
        found.ok_or_else(|| {
            let full = match table {
                Some(t) => format!("{t}.{column}"),
                None => column.to_string(),
            };
            DbError::NotFound(format!("column {full}"))
        })
    }

    pub fn push(&mut self, qualifier: Option<&str>, name: &str) {
        self.cols.push((qualifier.map(str::to_string), name.to_string()));
    }

    /// Concatenate two scopes (join output).
    pub fn join(&self, other: &Scope) -> Scope {
        let mut cols = self.cols.clone();
        cols.extend(other.cols.iter().cloned());
        Scope { cols }
    }

    pub fn len(&self) -> usize {
        self.cols.len()
    }

    pub fn is_empty(&self) -> bool {
        self.cols.is_empty()
    }
}

/// Bind an AST expression against a scope.
pub fn bind(expr: &Expr, scope: &Scope, funcs: &FuncRegistry) -> DbResult<PhysExpr> {
    Ok(match expr {
        Expr::Column { table, column } => {
            PhysExpr::Column(scope.resolve(table.as_deref(), column)?)
        }
        Expr::Literal(l) => PhysExpr::Literal(lit_to_datum(l)),
        Expr::Unary { op: UnaryOp::Not, expr } => {
            PhysExpr::Not(Box::new(bind(expr, scope, funcs)?))
        }
        Expr::Unary { op: UnaryOp::Neg, expr } => {
            PhysExpr::Neg(Box::new(bind(expr, scope, funcs)?))
        }
        Expr::Binary { op, left, right } => PhysExpr::Binary {
            op: *op,
            left: Box::new(bind(left, scope, funcs)?),
            right: Box::new(bind(right, scope, funcs)?),
        },
        Expr::IsNull { expr, negated } => PhysExpr::IsNull {
            expr: Box::new(bind(expr, scope, funcs)?),
            negated: *negated,
        },
        Expr::Between { expr, low, high, negated } => PhysExpr::Between {
            expr: Box::new(bind(expr, scope, funcs)?),
            low: Box::new(bind(low, scope, funcs)?),
            high: Box::new(bind(high, scope, funcs)?),
            negated: *negated,
        },
        Expr::InList { expr, list, negated } => PhysExpr::InList {
            expr: Box::new(bind(expr, scope, funcs)?),
            list: list.iter().map(|e| bind(e, scope, funcs)).collect::<DbResult<_>>()?,
            negated: *negated,
        },
        Expr::Like { expr, pattern, negated } => PhysExpr::Like {
            expr: Box::new(bind(expr, scope, funcs)?),
            pattern: Box::new(bind(pattern, scope, funcs)?),
            negated: *negated,
        },
        Expr::Func { name, args, distinct, star } => {
            if *distinct || *star {
                return Err(DbError::Eval(format!(
                    "{name} is an aggregate and not valid in this context"
                )));
            }
            if name.eq_ignore_ascii_case("coalesce") {
                return Ok(PhysExpr::Coalesce(
                    args.iter().map(|e| bind(e, scope, funcs)).collect::<DbResult<_>>()?,
                ));
            }
            let func = funcs
                .get(name)
                .ok_or_else(|| DbError::NotFound(format!("function {name}")))?;
            let args: Vec<PhysExpr> =
                args.iter().map(|e| bind(e, scope, funcs)).collect::<DbResult<_>>()?;
            // The call site's chance to resolve what its literal
            // arguments name (ScalarFn::bind); the name stays, so plan
            // text and the planner's Debug-keyed CSE see the same call.
            let consts: Vec<Option<&Datum>> = args
                .iter()
                .map(|a| match a {
                    PhysExpr::Literal(d) => Some(d),
                    _ => None,
                })
                .collect();
            let func = func.bind(&consts).unwrap_or(func);
            PhysExpr::Call { name: name.clone(), func, args }
        }
        Expr::Cast { expr, ty } => PhysExpr::Cast {
            expr: Box::new(bind(expr, scope, funcs)?),
            ty: (*ty).into(),
        },
    })
}

pub fn lit_to_datum(l: &Literal) -> Datum {
    match l {
        Literal::Null => Datum::Null,
        Literal::Bool(b) => Datum::Bool(*b),
        Literal::Int(i) => Datum::Int(*i),
        Literal::Float(f) => Datum::Float(*f),
        Literal::Str(s) => Datum::Text(s.clone()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sinew_sql::parse_expr;

    fn eval_str(sql: &str, scope: &Scope, row: &[Datum]) -> DbResult<Datum> {
        let funcs = FuncRegistry::new();
        let ast = parse_expr(sql).unwrap();
        bind(&ast, scope, &funcs)?.eval(row)
    }

    fn scope_ab() -> Scope {
        let mut s = Scope::default();
        s.push(Some("t"), "a");
        s.push(Some("t"), "b");
        s
    }

    #[test]
    fn arithmetic_and_comparison() {
        let s = scope_ab();
        let row = [Datum::Int(10), Datum::Float(2.5)];
        assert_eq!(eval_str("a + 1", &s, &row).unwrap(), Datum::Int(11));
        assert_eq!(eval_str("a * b", &s, &row).unwrap(), Datum::Float(25.0));
        assert_eq!(eval_str("a > 5", &s, &row).unwrap(), Datum::Bool(true));
        assert_eq!(eval_str("a = b", &s, &row).unwrap(), Datum::Bool(false));
        assert!(eval_str("a / 0", &s, &row).is_err());
    }

    #[test]
    fn three_valued_logic() {
        let s = scope_ab();
        let row = [Datum::Null, Datum::Bool(true)];
        assert_eq!(eval_str("a > 1 AND b", &s, &row).unwrap(), Datum::Null);
        assert_eq!(eval_str("a > 1 OR b", &s, &row).unwrap(), Datum::Bool(true));
        assert_eq!(eval_str("a > 1 AND FALSE", &s, &row).unwrap(), Datum::Bool(false));
        assert_eq!(eval_str("NOT (a > 1)", &s, &row).unwrap(), Datum::Null);
        // WHERE semantics: NULL is not a match
        let funcs = FuncRegistry::new();
        let pred = bind(&parse_expr("a > 1").unwrap(), &s, &funcs).unwrap();
        assert!(!pred.eval_bool(&row).unwrap());
    }

    #[test]
    fn between_in_like() {
        let s = scope_ab();
        let row = [Datum::Int(5), Datum::Text("hello world".into())];
        assert_eq!(eval_str("a BETWEEN 1 AND 10", &s, &row).unwrap(), Datum::Bool(true));
        assert_eq!(eval_str("a NOT BETWEEN 1 AND 10", &s, &row).unwrap(), Datum::Bool(false));
        assert_eq!(eval_str("a IN (1, 5, 7)", &s, &row).unwrap(), Datum::Bool(true));
        assert_eq!(eval_str("a IN (1, NULL)", &s, &row).unwrap(), Datum::Null);
        assert_eq!(eval_str("b LIKE '%world'", &s, &row).unwrap(), Datum::Bool(true));
        assert_eq!(eval_str("b LIKE 'h_llo%'", &s, &row).unwrap(), Datum::Bool(true));
        assert_eq!(eval_str("b NOT LIKE '%xyz%'", &s, &row).unwrap(), Datum::Bool(true));
    }

    #[test]
    fn like_matcher_edge_cases() {
        assert!(like_match("", ""));
        assert!(like_match("", "%"));
        assert!(!like_match("", "_"));
        assert!(like_match("abc", "abc"));
        assert!(like_match("abc", "%"));
        assert!(like_match("abc", "%c"));
        assert!(like_match("abc", "a%"));
        assert!(like_match("abc", "%b%"));
        assert!(!like_match("abc", "%d%"));
        assert!(like_match("a%b", "a\\%b"));
        assert!(!like_match("axb", "a\\%b"));
        assert!(like_match("aaab", "%aab"));
        assert!(like_match("abcbcd", "a%bcd"));
    }

    #[test]
    fn scope_resolution_and_ambiguity() {
        let mut s = Scope::default();
        s.push(Some("t1"), "id");
        s.push(Some("t2"), "id");
        assert_eq!(s.resolve(Some("t2"), "id").unwrap(), 1);
        assert!(matches!(s.resolve(None, "id"), Err(DbError::Schema(_))));
        assert!(matches!(s.resolve(None, "nope"), Err(DbError::NotFound(_))));
    }

    #[test]
    fn functions_and_cast() {
        let s = scope_ab();
        let row = [Datum::Null, Datum::Text("42".into())];
        assert_eq!(
            eval_str("COALESCE(a, 7)", &s, &row).unwrap(),
            Datum::Int(7)
        );
        assert_eq!(
            eval_str("CAST(b AS int)", &s, &row).unwrap(),
            Datum::Int(42)
        );
        let bad = [Datum::Null, Datum::Text("twenty".into())];
        assert!(matches!(
            eval_str("CAST(b AS int)", &s, &bad),
            Err(DbError::CastError { .. })
        ));
    }

    #[test]
    fn contains_call_detects_udfs() {
        let s = scope_ab();
        let funcs = FuncRegistry::new();
        let plain = bind(&parse_expr("a > 1").unwrap(), &s, &funcs).unwrap();
        assert!(!plain.contains_call());
        let call = bind(&parse_expr("length(b) > 1").unwrap(), &s, &funcs).unwrap();
        assert!(call.contains_call());
    }

    /// `probe(x, y)`: unbound it answers "per-call"; bound on a literal
    /// second argument it answers "bound:<literal>". Counts its binds.
    struct Probe(Arc<std::sync::atomic::AtomicUsize>);

    impl ScalarFn for Probe {
        fn call(&self, _: &[Datum]) -> DbResult<Datum> {
            Ok(Datum::Text("per-call".into()))
        }

        fn bind(&self, consts: &[Option<&Datum>]) -> Option<Arc<dyn ScalarFn>> {
            self.0.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            let [None, Some(Datum::Text(lit))] = consts else { return None };
            let answer = Datum::Text(format!("bound:{lit}"));
            Some(Arc::new(move |_: &[Datum]| Ok(answer.clone())))
        }
    }

    #[test]
    fn bind_hook_runs_once_per_call_site_and_sees_the_literals() {
        let s = scope_ab();
        let funcs = FuncRegistry::new();
        let binds = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        funcs.register("probe", Arc::new(Probe(binds.clone())));
        let bound = bind(&parse_expr("probe(a, 'x')").unwrap(), &s, &funcs).unwrap();
        let unbound = bind(&parse_expr("probe(a, b)").unwrap(), &s, &funcs).unwrap();
        let row = [Datum::Int(1), Datum::Text("x".into())];
        for _ in 0..10 {
            assert_eq!(bound.eval(&row).unwrap(), Datum::Text("bound:x".into()));
            assert_eq!(unbound.eval(&row).unwrap(), Datum::Text("per-call".into()));
        }
        assert_eq!(binds.load(std::sync::atomic::Ordering::Relaxed), 2, "one bind per call site");
        // the replacement keeps the call's name: plan text and CSE keys are unchanged
        assert_eq!(format!("{bound:?}"), "probe([#0, Text(\"x\")])");
    }
}
