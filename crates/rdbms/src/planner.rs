//! Query planner: binding, predicate classification, cost-based join
//! ordering, and physical operator selection.
//!
//! The operator-choice policies mirror Postgres closely enough to reproduce
//! the paper's Table 2:
//!
//! * DISTINCT → hashed (`HashAggregate`) when the estimated distinct set
//!   fits `work_mem`, else `Sort` + `Unique`;
//! * GROUP BY → `HashAggregate` vs `Sort` + `GroupAggregate` by the same
//!   memory rule;
//! * joins → cheapest of hash join (with a batching penalty when the build
//!   side exceeds `work_mem`), merge join (sorting both inputs), and nested
//!   loop; join *order* by dynamic programming over left-deep trees.
//!
//! Estimates for anything behind a UDF call use the fixed defaults in
//! [`crate::selectivity::Defaults`] — the mechanism that makes virtual
//! columns plan worse than physical ones.


use crate::datum::{Datum, KeyRange};
use crate::error::{DbError, DbResult};
use crate::expr::{bind, PhysExpr, Scope};
use crate::func::FuncRegistry;
use crate::agg::AggKind;
use crate::columnar::SEG_ROWS;
use crate::plan::{AccessPath, AggSpec, Plan, SortKey};
use crate::schema::TableSchema;
use crate::selectivity::{Defaults, SelContext};
use crate::stats::TableStats;
use sinew_sql::{BinaryOp, Expr, Select, SelectItem, SortOrder};
use std::collections::HashMap;

// Cost constants (Postgres defaults).
const SEQ_PAGE_COST: f64 = 1.0;
/// Non-sequential page fetch (index-scan heap visits): Postgres's 4.0.
const RANDOM_PAGE_COST: f64 = 4.0;
const CPU_TUPLE_COST: f64 = 0.01;
const CPU_OPERATOR_COST: f64 = 0.0025;
/// Per-entry hash table overhead in bytes.
const HASH_OVERHEAD: f64 = 48.0;

/// Table metadata the planner needs.
#[derive(Debug, Clone)]
pub struct TableMeta {
    pub schema: TableSchema,
    pub n_rows: f64,
    pub n_pages: f64,
}

/// Read-only view of the catalog, implemented by `Database`.
pub trait CatalogView {
    fn table_meta(&self, name: &str) -> DbResult<TableMeta>;
    fn table_stats(&self, name: &str) -> Option<TableStats>;
    /// Live columns of `name` with a secondary index, candidates for an
    /// index-scan access path. Default: none.
    fn indexed_columns(&self, name: &str) -> Vec<String> {
        let _ = name;
        Vec::new()
    }
    /// Live columns of `name` backed by a columnar segment store,
    /// candidates for the columnar access path. Default: none.
    fn columnar_columns(&self, name: &str) -> Vec<String> {
        let _ = name;
        Vec::new()
    }
}

#[derive(Debug, Clone)]
pub struct PlannerConfig {
    /// Memory budget for hash tables and sorts, bytes (Postgres work_mem).
    pub work_mem: usize,
    pub defaults: Defaults,
    /// Sampled distinct-value counts per table, then per reservoir key,
    /// from the Sinew analyzer: gives `extract_key(data, k) = const`
    /// predicates over that table a real equality selectivity instead of
    /// the opaque-UDF default.
    pub key_ndistinct: HashMap<String, HashMap<String, f64>>,
    /// Partial join orders kept per round when ordering joins wider than
    /// the 10-relation DP horizon. Width 1 degenerates to the purely
    /// greedy fallback; wider beams trade `O(width · n²)` planning work
    /// for routing around locally-attractive joins that explode later.
    pub join_beam_width: usize,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        PlannerConfig {
            work_mem: 4 * 1024 * 1024,
            defaults: Defaults::default(),
            key_ndistinct: HashMap::new(),
            join_beam_width: 8,
        }
    }
}

/// A planned query: physical plan + output column names.
pub struct PlannedQuery {
    pub plan: Plan,
    pub columns: Vec<String>,
    /// Estimated cost of the join-order root this plan was built on
    /// (0 for single-relation and constant queries) — lets tests and
    /// tooling compare orderings without re-deriving costs from EXPLAIN.
    pub cost: f64,
}

pub struct Planner<'a> {
    pub catalog: &'a dyn CatalogView,
    pub funcs: &'a FuncRegistry,
    pub config: PlannerConfig,
}

/// A candidate subplan during join ordering.
#[derive(Clone)]
struct Candidate {
    plan: Plan,
    scope: Scope,
    /// For each scope slot: originating (table, column), if it is a plain
    /// stored column (drives statistics lookups through joins).
    origins: Vec<Option<(String, String)>>,
    cost: f64,
    rows: f64,
    width: f64,
}

impl<'a> Planner<'a> {
    pub fn new(catalog: &'a dyn CatalogView, funcs: &'a FuncRegistry) -> Planner<'a> {
        Planner { catalog, funcs, config: PlannerConfig::default() }
    }

    pub fn with_config(mut self, config: PlannerConfig) -> Planner<'a> {
        self.config = config;
        self
    }

    pub fn plan_select(&self, sel: &Select) -> DbResult<PlannedQuery> {
        // SELECT without FROM: constant row.
        if sel.from.is_empty() {
            return self.plan_constant_select(sel);
        }

        // ---- 1. Base relations ----
        let mut rels = Vec::new();
        let mut bindings = Vec::new();
        for tref in &sel.from {
            bindings.push(tref.binding().to_string());
            rels.push(tref.clone());
        }
        for j in &sel.joins {
            if j.kind != sinew_sql::JoinKind::Inner {
                return self.plan_left_join(sel); // separate simple path
            }
            bindings.push(j.table.binding().to_string());
            rels.push(j.table.clone());
        }
        {
            let mut seen = std::collections::HashSet::new();
            for b in &bindings {
                if !seen.insert(b.clone()) {
                    return Err(DbError::Schema(format!("duplicate table binding {b}")));
                }
            }
        }
        // Hard cap comes from the u32 relation bitmasks below; within it,
        // `order_joins` picks exhaustive DP or greedy by relation count.
        if rels.len() > 31 {
            return Err(DbError::Eval("too many relations in join (max 31)".into()));
        }

        // ---- 2. Predicate pool ----
        let mut conjuncts: Vec<Expr> = Vec::new();
        if let Some(w) = &sel.filter {
            conjuncts.extend(w.conjuncts().into_iter().cloned());
        }
        for j in &sel.joins {
            conjuncts.extend(j.on.conjuncts().into_iter().cloned());
        }

        // Classify: which relations does each conjunct touch?
        let base_cands: Vec<Candidate> = rels
            .iter()
            .map(|tref| self.base_candidate(&tref.table, tref.binding(), &[], None))
            .collect::<DbResult<_>>()?;
        let relset_of = |e: &Expr| -> DbResult<u32> {
            let mut mask = 0u32;
            for (q, c) in e.columns() {
                let idx = self.find_binding(&bindings, &base_cands, q.as_deref(), &c)?;
                mask |= 1 << idx;
            }
            Ok(mask)
        };

        let mut single: Vec<Vec<Expr>> = vec![Vec::new(); rels.len()];
        let mut multi: Vec<(u32, Expr)> = Vec::new();
        for c in conjuncts {
            let mask = relset_of(&c)?;
            if mask.count_ones() <= 1 {
                let idx = if mask == 0 { 0 } else { mask.trailing_zeros() as usize };
                single[idx].push(c);
            } else {
                multi.push((mask, c));
            }
        }

        // ---- 3. Rebuild base candidates with pushed filters and
        // projection push-down ----
        let needed = self.collect_needed(sel, &bindings, &base_cands)?;
        let base_cands: Vec<Candidate> = rels
            .iter()
            .enumerate()
            .map(|(i, tref)| {
                self.base_candidate(
                    &tref.table,
                    tref.binding(),
                    &single[i],
                    needed.as_ref().map(|n| &n[i]),
                )
            })
            .collect::<DbResult<_>>()?;

        // ---- 4. Join ordering (DP over left-deep trees) ----
        let joined = self.order_joins(base_cands, &multi)?;

        // ---- 5. Aggregation / grouping ----
        self.finish_select(sel, joined)
    }

    /// The live column names each relation must decode, or `None` when a
    /// wildcard makes every column needed.
    fn collect_needed(
        &self,
        sel: &Select,
        bindings: &[String],
        cands: &[Candidate],
    ) -> DbResult<Option<Vec<std::collections::HashSet<String>>>> {
        let mut sets = vec![std::collections::HashSet::new(); bindings.len()];
        let mut exprs: Vec<&Expr> = Vec::new();
        for item in &sel.items {
            match item {
                SelectItem::Wildcard => return Ok(None),
                SelectItem::Expr { expr, .. } => exprs.push(expr),
            }
        }
        if let Some(f) = &sel.filter {
            exprs.push(f);
        }
        for j in &sel.joins {
            exprs.push(&j.on);
        }
        exprs.extend(sel.group_by.iter());
        if let Some(h) = &sel.having {
            exprs.push(h);
        }
        for o in &sel.order_by {
            exprs.push(&o.expr);
        }
        for e in exprs {
            for (q, c) in e.columns() {
                // Unresolvable references may be output aliases (ORDER BY
                // dage) — skip them; real errors surface during binding.
                if let Ok(idx) = self.find_binding(bindings, cands, q.as_deref(), &c) {
                    sets[idx].insert(c);
                }
            }
        }
        Ok(Some(sets))
    }

    fn plan_constant_select(&self, sel: &Select) -> DbResult<PlannedQuery> {
        let scope = Scope::default();
        let mut exprs = Vec::new();
        let mut names = Vec::new();
        for item in &sel.items {
            match item {
                SelectItem::Wildcard => {
                    return Err(DbError::Schema("SELECT * requires FROM".into()))
                }
                SelectItem::Expr { expr, alias } => {
                    exprs.push(bind(expr, &scope, self.funcs)?);
                    names.push(alias.clone().unwrap_or_else(|| item_name(expr)));
                }
            }
        }
        let mut plan = Plan::Values { rows: vec![exprs] };
        if let Some(f) = &sel.filter {
            let pred = bind(f, &scope, self.funcs)?;
            plan = Plan::Filter { input: Box::new(plan), predicate: pred, est_rows: 1.0 };
        }
        Ok(PlannedQuery { plan, columns: names, cost: 0.0 })
    }

    /// Simplified path for a join chain with a LEFT JOIN in it: FROM order
    /// is kept, each join is a hash or nested-loop join (left-outer where
    /// the chain says LEFT), no reordering (Postgres also constrains
    /// outer-join reordering heavily).
    fn plan_left_join(&self, sel: &Select) -> DbResult<PlannedQuery> {
        if sel.from.len() != 1 {
            return Err(DbError::Eval(
                "LEFT JOIN supports a single FROM table with JOIN chains".into(),
            ));
        }
        let mut cand =
            self.base_candidate(&sel.from[0].table, sel.from[0].binding(), &[], None)?;
        for j in &sel.joins {
            // Push ON conjuncts that reference only the joined table down
            // into its scan (Postgres does the same): LEFT JOIN semantics
            // allow it because such predicates only gate *matching*, and a
            // right row failing them could never match anyway.
            let probe = self.base_candidate(&j.table.table, j.table.binding(), &[], None)?;
            let on_parts: Vec<Expr> = j.on.conjuncts().into_iter().cloned().collect();
            let mut pushed: Vec<Expr> = Vec::new();
            let mut rest: Vec<Expr> = Vec::new();
            for part in on_parts {
                let only_right = part
                    .columns()
                    .iter()
                    .all(|(q, c)| probe.scope.resolve(q.as_deref(), c).is_ok())
                    && !part.columns().is_empty();
                if only_right && !matches!(&part, Expr::Binary { op: BinaryOp::Eq, left, right }
                    if left.columns().len() + right.columns().len() > 1)
                {
                    pushed.push(part);
                } else {
                    rest.push(part);
                }
            }
            let right = self.base_candidate(&j.table.table, j.table.binding(), &pushed, None)?;
            let joined_scope = cand.scope.join(&right.scope);
            // Find a usable equi key in the remaining ON conjuncts.
            let mut key: Option<(PhysExpr, PhysExpr)> = None;
            let mut residual = Vec::new();
            for part in rest {
                if key.is_none() {
                    if let Expr::Binary { op: BinaryOp::Eq, left, right: r } = &part {
                        let lb = bind(left, &cand.scope, self.funcs);
                        let rb = bind(r, &right.scope, self.funcs);
                        if let (Ok(lk), Ok(rk)) = (lb, rb) {
                            key = Some((lk, rk));
                            continue;
                        }
                        let lb2 = bind(r, &cand.scope, self.funcs);
                        let rb2 = bind(left, &right.scope, self.funcs);
                        if let (Ok(lk), Ok(rk)) = (lb2, rb2) {
                            key = Some((lk, rk));
                            continue;
                        }
                    }
                }
                residual.push(bind(&part, &joined_scope, self.funcs)?);
            }
            let rows = cand.rows.max(right.rows);
            // An inner join in the chain stays inner.
            let outer = j.kind == sinew_sql::JoinKind::Left;
            let plan = match key {
                Some((lk, rk)) => Plan::HashJoin {
                    left: Box::new(cand.plan),
                    right: Box::new(right.plan),
                    left_key: lk,
                    right_key: rk,
                    residual: conjoin_phys(residual),
                    left_outer: outer,
                    right_width: right.scope.cols.len(),
                    est_rows: rows,
                },
                None => Plan::NestedLoop {
                    left: Box::new(cand.plan),
                    right: Box::new(right.plan),
                    predicate: conjoin_phys(residual),
                    left_outer: outer,
                    right_width: right.scope.cols.len(),
                    est_rows: rows,
                },
            };
            let mut origins = cand.origins;
            origins.extend(right.origins);
            cand = Candidate {
                plan,
                scope: joined_scope,
                origins,
                cost: cand.cost + right.cost + rows * CPU_TUPLE_COST,
                rows,
                width: cand.width + right.width,
            };
        }
        if let Some(w) = &sel.filter {
            let pred = bind(w, &cand.scope, self.funcs)?;
            let rows = (cand.rows * 0.5).max(1.0);
            cand = Candidate {
                plan: Plan::Filter { input: Box::new(cand.plan), predicate: pred, est_rows: rows },
                rows,
                ..cand
            };
        }
        self.finish_select(sel, cand)
    }

    fn find_binding(
        &self,
        bindings: &[String],
        cands: &[Candidate],
        qualifier: Option<&str>,
        column: &str,
    ) -> DbResult<usize> {
        if let Some(q) = qualifier {
            return bindings
                .iter()
                .position(|b| b == q)
                .ok_or_else(|| DbError::NotFound(format!("table {q}")));
        }
        let mut found = None;
        for (i, c) in cands.iter().enumerate() {
            if c.scope.cols.iter().any(|(_, n)| n == column) {
                if found.is_some() {
                    return Err(DbError::Schema(format!("column {column} is ambiguous")));
                }
                found = Some(i);
            }
        }
        found.ok_or_else(|| DbError::NotFound(format!("column {column}")))
    }

    /// Build a scan candidate for one base relation with pushed filters.
    /// `needed` restricts which live columns the scan decodes (projection
    /// push-down); `None` decodes everything.
    fn base_candidate(
        &self,
        table: &str,
        binding: &str,
        filters: &[Expr],
        needed: Option<&std::collections::HashSet<String>>,
    ) -> DbResult<Candidate> {
        let meta = self.catalog.table_meta(table)?;
        let stats = self.catalog.table_stats(table);
        let mut scope = Scope::default();
        let mut origins = Vec::new();
        let mut col_names = Vec::new();
        for (_, col) in meta.schema.live_columns() {
            scope.push(Some(binding), &col.name);
            origins.push(Some((table.to_string(), col.name.clone())));
            col_names.push(Some(col.name.clone()));
        }
        scope.push(Some(binding), "_rowid");
        origins.push(None);
        col_names.push(None);

        let bound: Vec<PhysExpr> = filters
            .iter()
            .map(|f| bind(f, &scope, self.funcs))
            .collect::<DbResult<_>>()?;
        let sel_ctx = SelContext {
            stats: stats.as_ref(),
            col_names: col_names.clone(),
            input_rows: meta.n_rows,
            defaults: self.config.defaults,
            key_ndistinct: self.config.key_ndistinct.get(table),
        };
        let filter = conjoin_phys(bound.clone());
        // estimate over the whole conjunction at once: same-column range
        // pairs must not multiply as if independent
        let sel = filter.as_ref().map(|p| sel_ctx.selectivity(p)).unwrap_or(1.0);
        let rows = (meta.n_rows * sel).max(1.0);
        let cost = meta.n_pages * SEQ_PAGE_COST
            + meta.n_rows * CPU_TUPLE_COST
            + meta.n_rows * bound.len() as f64 * CPU_OPERATOR_COST;
        let width: f64 = stats
            .as_ref()
            .map(|s| s.columns.values().map(|c| c.avg_width).sum::<f64>())
            .filter(|w| *w > 0.0)
            .unwrap_or(100.0);
        let needed_vec = needed.map(|set| {
            let mut v: Vec<String> = set.iter().cloned().collect();
            v.sort();
            v
        });

        // ---- access-path selection: seq scan vs. secondary index ----
        // A sargable conjunct (col <op> literal on an indexed column)
        // contributes key bounds; the winning index's cost is a B-tree
        // descent plus one random heap fetch per matching row. The full
        // predicate stays on the plan as a residual filter, so the index
        // path returns exactly the seq scan's rows.
        let mut plan_cost = cost;
        let mut plan = Plan::SeqScan {
            table: table.to_string(),
            binding: binding.to_string(),
            filter: filter.clone(),
            needed: needed_vec.clone(),
            est_rows: rows,
        };
        // Sargable bounds per stored column, shared by the index-scan and
        // columnar access paths below. Alongside the
        // intersected bound we track whether every contributing clause's
        // literals sit in one exactness class (`uniform`): a clause whose
        // literal is class-less (NaN) or of a different class than the
        // others can reject rows the merged bound range admits — e.g.
        // `a > 'x' AND a > 5`: tighten keeps the text bound, but the
        // dropped numeric clause fails every text row — so such columns
        // must never be marked exact.
        #[derive(Default)]
        struct ColSarg {
            b: KeyRange,
            clauses: Vec<PhysExpr>,
            class: Option<u8>,
            uniform: bool,
        }
        let mut per_col: HashMap<usize, ColSarg> = HashMap::new();
        for f in &bound {
            let Some((slot, range)) = sargable(f) else { continue };
            if !matches!(col_names.get(slot), Some(Some(_))) {
                continue;
            }
            let cls = match (
                exactness_class(range.lo.as_ref()),
                exactness_class(range.hi.as_ref()),
            ) {
                (Some(a), Some(c)) if a == c => Some(a),
                (Some(a), None) if range.hi.is_none() => Some(a),
                (None, Some(c)) if range.lo.is_none() => Some(c),
                _ => None,
            };
            let e = per_col.entry(slot).or_default();
            if e.clauses.is_empty() {
                e.class = cls;
                e.uniform = true;
            }
            e.uniform = e.uniform && cls.is_some() && cls == e.class;
            e.b.tighten(range);
            e.clauses.push(f.clone());
        }
        // each column's match fraction is the joint selectivity of its own
        // sargable conjuncts (range pairs included)
        let col_bounds: Vec<(usize, KeyRange, f64, usize, bool)> = per_col
            .into_iter()
            .map(|(slot, cs)| {
                let n_clauses = cs.clauses.len();
                let s =
                    conjoin_phys(cs.clauses).map(|p| sel_ctx.selectivity(&p)).unwrap_or(1.0);
                (slot, cs.b, s, n_clauses, cs.uniform)
            })
            .collect();
        // Exact when a column's sargable clauses are the entire predicate,
        // every clause literal shares one type class, AND both merged
        // bounds land in that class: then the key range equals the SQL
        // match set and the residual filter can reject nothing, so a
        // LIMIT may cap the probe.
        let exact_for = |b: &KeyRange, n_clauses: usize, uniform: bool| {
            uniform
                && n_clauses == bound.len()
                && match (exactness_class(b.lo.as_ref()), exactness_class(b.hi.as_ref())) {
                    (Some(a), Some(c)) => a == c,
                    _ => false,
                }
        };
        let best_for = |eligible: &dyn Fn(&str) -> bool| {
            col_bounds
                .iter()
                .filter(|(slot, ..)| matches!(&col_names[*slot], Some(n) if eligible(n)))
                .min_by(|a, b| a.2.partial_cmp(&b.2).unwrap_or(std::cmp::Ordering::Equal))
        };

        let indexed = self.catalog.indexed_columns(table);
        // What every non-heap path shares with the heap scan it replaces.
        let access = |column: Option<String>, range: KeyRange, exact_bounds: bool| AccessPath {
            table: table.to_string(),
            binding: binding.to_string(),
            column,
            range,
            filter: filter.clone(),
            needed: needed_vec.clone(),
            est_rows: rows,
            exact_bounds,
        };
        if let Some((slot, b, bound_sel, n_clauses, uniform)) =
            best_for(&|n| indexed.iter().any(|c| c == n))
        {
            let matched = (meta.n_rows * bound_sel).max(1.0);
            let index_cost = meta.n_rows.max(2.0).log2() * CPU_OPERATOR_COST
                + matched.min(meta.n_pages.max(1.0)) * RANDOM_PAGE_COST
                + matched * CPU_TUPLE_COST
                + matched * bound.len() as f64 * CPU_OPERATOR_COST;
            if index_cost < plan_cost {
                plan = Plan::IndexScan(access(
                    col_names[*slot].clone(),
                    b.clone(),
                    exact_for(b, *n_clauses, *uniform),
                ));
                plan_cost = index_cost;
            }
        }

        // ---- columnar scan: every referenced column has a segment store,
        // so the scan decodes only those columns (a fraction of the heap's
        // page footprint) and pushes the best sargable bound into the
        // vectorized kernels, with zone maps skipping whole segments.
        if let Some(nv) = &needed_vec {
            let stored = self.catalog.columnar_columns(table);
            if !stored.is_empty()
                && nv.iter().all(|n| n == "_rowid" || stored.iter().any(|c| c == n))
            {
                let n_live = meta.schema.live_columns().count().max(1) as f64;
                let frac = (nv.len() as f64 / n_live).clamp(1.0 / n_live, 1.0);
                let best = best_for(&|n| stored.iter().any(|c| c == n));
                // zone-map pruning discounts the page term by the bound
                // selectivity. A zone map skips whole segments and a scan
                // decodes at least one, so the discount is floored at one
                // segment's share of the rows (nothing below `SEG_ROWS`
                // rows), and at 0.1 so a scan never looks free.
                let one_segment = (SEG_ROWS as f64 / meta.n_rows.max(1.0)).clamp(0.1, 1.0);
                let prune = best.map(|(_, _, s, _, _)| s.max(one_segment)).unwrap_or(1.0);
                let col_cost = meta.n_pages * SEQ_PAGE_COST * frac * 0.25 * prune
                    + meta.n_rows * CPU_TUPLE_COST * 0.25
                    + rows * CPU_TUPLE_COST
                    + meta.n_rows * bound.len() as f64 * CPU_OPERATOR_COST * 0.25;
                if col_cost < plan_cost {
                    let exact_bounds = match best {
                        Some((_, b, _, n_clauses, uniform)) => {
                            exact_for(b, *n_clauses, *uniform)
                        }
                        None => bound.is_empty(),
                    };
                    // The predicate is fully covered by same-class
                    // bound literals even when the merged endpoints
                    // couldn't prove exactness (one-sided ranges):
                    // segments whose zone map pins the stored values
                    // to that class may skip the residual per segment.
                    let bounds_cover_filter = match best {
                        Some((_, _, _, n_clauses, uniform)) => {
                            *uniform && *n_clauses == bound.len()
                        }
                        None => bound.is_empty(),
                    };
                    let (column, range) = match best {
                        Some((slot, b, _, _, _)) => (col_names[*slot].clone(), b.clone()),
                        None => (None, KeyRange::default()),
                    };
                    plan = Plan::ColumnarScan {
                        path: access(column, range, exact_bounds),
                        bounds_cover_filter,
                    };
                    plan_cost = col_cost;
                }
            }
        }
        Ok(Candidate { plan, scope, origins, cost: plan_cost, rows, width })
    }

    fn ndistinct_of(&self, cand: &Candidate, e: &PhysExpr) -> f64 {
        if let PhysExpr::Column(i) = e {
            if let Some(Some((table, col))) = cand.origins.get(*i) {
                if let Some(stats) = self.catalog.table_stats(table) {
                    if let Some(cs) = stats.columns.get(col) {
                        return cs.n_distinct;
                    }
                }
            }
        }
        self.config.defaults.opaque_ndistinct
    }

    fn width_of(&self, cand: &Candidate, e: &PhysExpr) -> f64 {
        if let PhysExpr::Column(i) = e {
            if let Some(Some((table, col))) = cand.origins.get(*i) {
                if let Some(stats) = self.catalog.table_stats(table) {
                    if let Some(cs) = stats.columns.get(col) {
                        return cs.avg_width.max(1.0);
                    }
                }
            }
        }
        32.0
    }

    /// Join ordering over left-deep trees: exhaustive dynamic programming
    /// up to 10 relations, bounded beam search beyond (the DP is
    /// O(2^n · n), and pre-PR 9 anything wider simply errored out);
    /// `join_beam_width: 1` makes the beam purely greedy.
    fn order_joins(
        &self,
        base: Vec<Candidate>,
        multi: &[(u32, Expr)],
    ) -> DbResult<Candidate> {
        let n = base.len();
        if n == 1 {
            return Ok(base.into_iter().next().unwrap());
        }
        if n > 10 {
            return self.order_joins_beam(base, multi);
        }
        let full: u32 = (1 << n) - 1;
        let mut best: HashMap<u32, Candidate> = HashMap::new();
        for (i, c) in base.iter().enumerate() {
            best.insert(1 << i, c.clone());
        }
        // masks in increasing popcount order
        let mut masks: Vec<u32> = (1..=full).filter(|m| m.count_ones() >= 1).collect();
        masks.sort_by_key(|m| m.count_ones());
        for mask in masks {
            if mask.count_ones() < 1 || !best.contains_key(&mask) {
                continue;
            }
            let left = best.get(&mask).unwrap().clone();
            for (j, right) in base.iter().enumerate() {
                let bit = 1 << j;
                if mask & bit != 0 {
                    continue;
                }
                let new_mask = mask | bit;
                // conjuncts that become evaluable exactly now
                let now: Vec<&Expr> = multi
                    .iter()
                    .filter(|(m, _)| m & new_mask == *m && m & bit != 0)
                    .map(|(_, e)| e)
                    .collect();
                // Prefer connected joins; allow cross join only if no
                // conjunct connects this pair (cost will punish it).
                let cand = self.make_join(&left, right, &now)?;
                match best.get(&new_mask) {
                    Some(prev) if prev.cost <= cand.cost => {}
                    _ => {
                        best.insert(new_mask, cand);
                    }
                }
            }
        }
        best.remove(&full)
            .ok_or_else(|| DbError::Eval("join ordering failed to cover all relations".into()))
    }

    /// Bounded beam search over left-deep trees for wide joins (> 10
    /// relations): start from the smallest base relations, then repeatedly
    /// extend each partial order with every next join, keeping the
    /// `join_beam_width` cheapest partial orders per round, so a join that
    /// looks cheap now but explodes the intermediate later can be routed
    /// around. Extensions that make a join conjunct evaluable are
    /// preferred per partial order (cross joins only when nothing
    /// connects). Width 1 is the greedy order: the stable sorts keep the
    /// lowest relation index on ties. No optimality guarantee, but an
    /// 11-to-31-table chain plans instead of erroring. O(width · n²)
    /// `make_join` calls.
    fn order_joins_beam(
        &self,
        base: Vec<Candidate>,
        multi: &[(u32, Expr)],
    ) -> DbResult<Candidate> {
        let n = base.len();
        let width = self.config.join_beam_width.max(1);
        let full: u32 = (1 << n) - 1;
        // Seed with every relation as its own partial order; the first
        // truncation keeps the `width` smallest starts.
        let mut beam: Vec<(u32, Candidate)> =
            base.iter().enumerate().map(|(i, c)| (1 << i, c.clone())).collect();
        beam.sort_by(|(_, a), (_, b)| {
            a.rows.total_cmp(&b.rows).then(a.cost.total_cmp(&b.cost))
        });
        beam.truncate(width);
        for _round in 1..n {
            let mut next: Vec<(u32, Candidate)> = Vec::new();
            for (mask, left) in &beam {
                let mut connected_exts: Vec<(u32, Candidate)> = Vec::new();
                let mut cross_exts: Vec<(u32, Candidate)> = Vec::new();
                for (j, right) in base.iter().enumerate() {
                    let bit = 1u32 << j;
                    if mask & bit != 0 {
                        continue;
                    }
                    let new_mask = mask | bit;
                    let now: Vec<&Expr> = multi
                        .iter()
                        .filter(|(m, _)| m & new_mask == *m && m & bit != 0)
                        .map(|(_, e)| e)
                        .collect();
                    let cand = self.make_join(left, right, &now)?;
                    if now.is_empty() {
                        cross_exts.push((new_mask, cand));
                    } else {
                        connected_exts.push((new_mask, cand));
                    }
                }
                next.extend(if connected_exts.is_empty() {
                    cross_exts
                } else {
                    connected_exts
                });
            }
            // Same cover, keep the cheaper order; then keep the `width`
            // cheapest covers overall.
            next.sort_by(|(ma, a), (mb, b)| {
                ma.cmp(mb).then(a.cost.total_cmp(&b.cost))
            });
            next.dedup_by_key(|(m, _)| *m);
            next.sort_by(|(_, a), (_, b)| a.cost.total_cmp(&b.cost));
            next.truncate(width);
            beam = next;
        }
        beam.into_iter()
            .find(|(m, _)| *m == full)
            .map(|(_, c)| c)
            .ok_or_else(|| DbError::Eval("join ordering failed to cover all relations".into()))
    }

    fn make_join(
        &self,
        left: &Candidate,
        right: &Candidate,
        conjuncts: &[&Expr],
    ) -> DbResult<Candidate> {
        let joined_scope = left.scope.join(&right.scope);
        let mut key: Option<(PhysExpr, PhysExpr)> = None;
        let mut residual = Vec::new();
        for part in conjuncts {
            if key.is_none() {
                if let Expr::Binary { op: BinaryOp::Eq, left: l, right: r } = part {
                    if let (Ok(lk), Ok(rk)) =
                        (bind(l, &left.scope, self.funcs), bind(r, &right.scope, self.funcs))
                    {
                        key = Some((lk, rk));
                        continue;
                    }
                    if let (Ok(lk), Ok(rk)) =
                        (bind(r, &left.scope, self.funcs), bind(l, &right.scope, self.funcs))
                    {
                        key = Some((lk, rk));
                        continue;
                    }
                }
            }
            residual.push(bind(part, &joined_scope, self.funcs)?);
        }

        let mut origins = left.origins.clone();
        origins.extend(right.origins.iter().cloned());
        let width = left.width + right.width;

        let cand = match key {
            Some((lk, rk)) => {
                let nd_l = self.ndistinct_of(left, &lk);
                let nd_r = self.ndistinct_of(right, &rk);
                let join_sel = 1.0 / nd_l.max(nd_r).max(1.0);
                let mut rows = (left.rows * right.rows * join_sel).max(1.0);
                // residual predicates: generic 0.5 each
                rows = (rows * 0.5f64.powi(residual.len() as i32)).max(1.0);

                // hash join, costed as it runs: build the right input,
                // probe with the left (the join order tries both)
                let build_bytes = right.rows * (self.width_of(right, &rk).max(8.0) + HASH_OVERHEAD);
                let batches = (build_bytes / self.config.work_mem as f64).max(1.0).ceil();
                let hash_cost = left.cost
                    + right.cost
                    + right.rows * (CPU_OPERATOR_COST * 2.0 + CPU_TUPLE_COST)
                    + left.rows * CPU_OPERATOR_COST * 2.0
                    + rows * CPU_TUPLE_COST
                    + (batches - 1.0) * (right.rows + left.rows) * CPU_TUPLE_COST * 2.0;

                // merge join: sort both inputs then merge
                let merge_cost = left.cost
                    + right.cost
                    + sort_cost(left.rows)
                    + sort_cost(right.rows)
                    + (left.rows + right.rows) * CPU_OPERATOR_COST * 2.0
                    + rows * CPU_TUPLE_COST;

                if hash_cost <= merge_cost {
                    Candidate {
                        plan: Plan::HashJoin {
                            left: Box::new(left.plan.clone()),
                            right: Box::new(right.plan.clone()),
                            left_key: lk,
                            right_key: rk,
                            residual: conjoin_phys(residual),
                            left_outer: false,
                            right_width: right.scope.cols.len(),
                            est_rows: rows,
                        },
                        scope: joined_scope,
                        origins,
                        cost: hash_cost,
                        rows,
                        width,
                    }
                } else {
                    let lsorted = Plan::Sort {
                        input: Box::new(left.plan.clone()),
                        keys: vec![SortKey { expr: lk.clone(), desc: false }],
                        est_rows: left.rows,
                    };
                    let rsorted = Plan::Sort {
                        input: Box::new(right.plan.clone()),
                        keys: vec![SortKey { expr: rk.clone(), desc: false }],
                        est_rows: right.rows,
                    };
                    Candidate {
                        plan: Plan::MergeJoin {
                            left: Box::new(lsorted),
                            right: Box::new(rsorted),
                            left_key: lk,
                            right_key: rk,
                            residual: conjoin_phys(residual),
                            est_rows: rows,
                        },
                        scope: joined_scope,
                        origins,
                        cost: merge_cost,
                        rows,
                        width,
                    }
                }
            }
            None => {
                // cross join / non-equi predicate: nested loop
                let sel = 0.5f64.powi(residual.len().max(1) as i32);
                let rows = (left.rows * right.rows * sel).max(1.0);
                let cost = left.cost
                    + right.cost
                    + left.rows * right.rows * (CPU_OPERATOR_COST + CPU_TUPLE_COST);
                Candidate {
                    plan: Plan::NestedLoop {
                        left: Box::new(left.plan.clone()),
                        right: Box::new(right.plan.clone()),
                        predicate: conjoin_phys(residual),
                        left_outer: false,
                        right_width: right.scope.cols.len(),
                        est_rows: rows,
                    },
                    scope: joined_scope,
                    origins,
                    cost,
                    rows,
                    width,
                }
            }
        };
        Ok(cand)
    }

    /// Everything after the join tree: aggregation, HAVING, projection,
    /// DISTINCT, ORDER BY, LIMIT.
    fn finish_select(&self, sel: &Select, mut cand: Candidate) -> DbResult<PlannedQuery> {
        let cost = cand.cost;
        // ---- aggregate extraction ----
        let mut agg_calls: Vec<(AggKind, bool, Option<Expr>)> = Vec::new();
        let mut items: Vec<(Expr, Option<String>)> = Vec::new();
        for item in &sel.items {
            match item {
                SelectItem::Wildcard => {
                    // FROM order, not the join tree's: the join order may
                    // put any relation first.
                    let tables = sel.from.iter().chain(sel.joins.iter().map(|j| &j.table));
                    for binding in tables.map(|t| t.binding()) {
                        for (q, name) in &cand.scope.cols {
                            if q.as_deref() == Some(binding) && name != "_rowid" {
                                items.push((
                                    Expr::Column { table: q.clone(), column: name.clone() },
                                    Some(name.clone()),
                                ));
                            }
                        }
                    }
                }
                SelectItem::Expr { expr, alias } => {
                    items.push((expr.clone(), alias.clone()));
                }
            }
        }
        let mut rewritten_items: Vec<(Expr, Option<String>)> = items
            .iter()
            .map(|(e, a)| (extract_aggs(e, &mut agg_calls), a.clone()))
            .collect();
        let rewritten_having = sel.having.as_ref().map(|h| extract_aggs(h, &mut agg_calls));
        let mut rewritten_order: Vec<Expr> =
            sel.order_by.iter().map(|o| extract_aggs(&o.expr, &mut agg_calls)).collect();

        let has_group = !sel.group_by.is_empty() || !agg_calls.is_empty();
        if has_group {
            // Bind group exprs against the join scope.
            let group_phys: Vec<PhysExpr> = sel
                .group_by
                .iter()
                .map(|g| bind(g, &cand.scope, self.funcs))
                .collect::<DbResult<_>>()?;
            let aggs: Vec<AggSpec> = agg_calls
                .iter()
                .map(|(kind, distinct, arg)| {
                    Ok(AggSpec {
                        kind: *kind,
                        distinct: *distinct,
                        arg: arg
                            .as_ref()
                            .map(|a| bind(a, &cand.scope, self.funcs))
                            .transpose()?,
                    })
                })
                .collect::<DbResult<_>>()?;

            // Estimated groups: product of per-key distinct counts.
            let mut est_groups = 1.0f64;
            for g in &group_phys {
                est_groups *= self.ndistinct_of(&cand, g);
            }
            est_groups = est_groups.min(cand.rows).max(1.0);
            let group_width: f64 =
                group_phys.iter().map(|g| self.width_of(&cand, g)).sum::<f64>() + 16.0;

            // Post-aggregation scope: group columns then aggregate outputs.
            let mut post_scope = Scope::default();
            let mut post_origins = Vec::new();
            for (i, g) in sel.group_by.iter().enumerate() {
                match g {
                    Expr::Column { table, column } => {
                        post_scope.push(table.as_deref(), column);
                    }
                    other => post_scope.push(None, &format!("__grp{i}__{other}")),
                }
                if let PhysExpr::Column(ci) = &group_phys[i] {
                    post_origins.push(cand.origins.get(*ci).cloned().flatten());
                } else {
                    post_origins.push(None);
                }
            }
            for i in 0..aggs.len() {
                post_scope.push(None, &format!("__agg{i}"));
                post_origins.push(None);
            }
            // Replace non-column group-by expressions inside items, HAVING,
            // and ORDER BY with references to the aggregate output.
            for (i, g) in sel.group_by.iter().enumerate() {
                if matches!(g, Expr::Column { .. }) {
                    continue;
                }
                let name = format!("__grp{i}__{g}");
                for (e, _) in rewritten_items.iter_mut() {
                    replace_subtree(e, g, &name);
                }
                for e in rewritten_order.iter_mut() {
                    replace_subtree(e, g, &name);
                }
            }
            let mut having_bound = None;
            if let Some(mut h) = rewritten_having {
                for (i, g) in sel.group_by.iter().enumerate() {
                    if !matches!(g, Expr::Column { .. }) {
                        replace_subtree(&mut h, g, &format!("__grp{i}__{g}"));
                    }
                }
                having_bound = Some(bind(&h, &post_scope, self.funcs)?);
            }

            // Operator choice: the Table 2 decision point.
            let hash_bytes = est_groups * (group_width + HASH_OVERHEAD);
            let use_hash = group_phys.is_empty() || hash_bytes <= self.config.work_mem as f64;
            let input_rows = cand.rows;
            let plan = if use_hash {
                Plan::HashAggregate {
                    input: Box::new(cand.plan),
                    groups: group_phys,
                    aggs,
                    est_rows: est_groups,
                }
            } else {
                let sort = Plan::Sort {
                    input: Box::new(cand.plan),
                    keys: group_phys
                        .iter()
                        .map(|g| SortKey { expr: g.clone(), desc: false })
                        .collect(),
                    est_rows: input_rows,
                };
                Plan::GroupAggregate {
                    input: Box::new(sort),
                    groups: group_phys,
                    aggs,
                    est_rows: est_groups,
                }
            };
            let cost = cand.cost
                + if use_hash {
                    input_rows * CPU_OPERATOR_COST * 2.0
                } else {
                    sort_cost(input_rows) + input_rows * CPU_OPERATOR_COST
                };
            cand = Candidate {
                plan,
                scope: post_scope,
                origins: post_origins,
                cost,
                rows: est_groups,
                width: group_width + aggs_width(agg_calls.len()),
            };
            if let Some(h) = having_bound {
                let rows = (cand.rows * 0.5).max(1.0);
                cand = Candidate {
                    plan: Plan::Filter {
                        input: Box::new(cand.plan),
                        predicate: h,
                        est_rows: rows,
                    },
                    rows,
                    ..cand
                };
            }
        }

        // ---- projection ----
        let mut out_exprs = Vec::new();
        let mut out_names = Vec::new();
        for (e, alias) in &rewritten_items {
            out_exprs.push(bind(e, &cand.scope, self.funcs)?);
            out_names.push(alias.clone().unwrap_or_else(|| item_name(e)));
        }
        // Distinct estimate for the projected output (pre-projection stats).
        let mut est_distinct = 1.0f64;
        let mut out_width = 0.0;
        for e in &out_exprs {
            est_distinct *= self.ndistinct_of(&cand, e);
            out_width += self.width_of(&cand, e);
        }
        est_distinct = est_distinct.min(cand.rows).max(1.0);

        let mut out_scope = Scope::default();
        for n in &out_names {
            out_scope.push(None, n);
        }

        // ---- ORDER BY keys (may reference hidden columns) ----
        let mut sort_keys_out: Vec<SortKey> = Vec::new();
        let mut hidden = 0usize;
        for (o, oexpr) in sel.order_by.iter().zip(rewritten_order.drain(..)) {
            let desc = o.order == SortOrder::Desc;
            match bind(&oexpr, &out_scope, self.funcs) {
                Ok(e) => sort_keys_out.push(SortKey { expr: e, desc }),
                Err(_) => {
                    // Hidden sort column computed before projection.
                    let e = bind(&oexpr, &cand.scope, self.funcs)?;
                    out_exprs.push(e);
                    let name = format!("__sort{hidden}");
                    out_scope.push(None, &name);
                    hidden += 1;
                    sort_keys_out.push(SortKey {
                        expr: PhysExpr::Column(out_exprs.len() - 1),
                        desc,
                    });
                }
            }
        }

        let project_rows = cand.rows;
        let mut plan = Plan::Project {
            input: Box::new(cand.plan),
            exprs: out_exprs,
            est_rows: project_rows,
        };

        // ---- DISTINCT ----
        if sel.distinct {
            let bytes = est_distinct * (out_width.max(8.0) + HASH_OVERHEAD);
            if bytes <= self.config.work_mem as f64 {
                plan = Plan::HashDistinct { input: Box::new(plan), est_rows: est_distinct };
            } else {
                let n_out = out_names.len() + hidden;
                let keys = (0..n_out)
                    .map(|i| SortKey { expr: PhysExpr::Column(i), desc: false })
                    .collect();
                plan = Plan::Sort { input: Box::new(plan), keys, est_rows: project_rows };
                plan = Plan::Unique { input: Box::new(plan), est_rows: est_distinct };
            }
        }

        // ---- ORDER BY ----
        if !sort_keys_out.is_empty() {
            let rows = plan.est_rows();
            plan = Plan::Sort { input: Box::new(plan), keys: sort_keys_out, est_rows: rows };
        }

        // strip hidden sort columns
        if hidden > 0 {
            let rows = plan.est_rows();
            let exprs = (0..out_names.len()).map(PhysExpr::Column).collect();
            plan = Plan::Project { input: Box::new(plan), exprs, est_rows: rows };
        }

        // ---- LIMIT ----
        if let Some(n) = sel.limit {
            plan = Plan::Limit { input: Box::new(plan), n };
        }

        memoize_scan_pipelines(&mut plan, self.funcs);

        Ok(PlannedQuery { plan, columns: out_names, cost })
    }

    /// Plan the scan side of UPDATE/DELETE: scan with bound filter; the
    /// `_rowid` is the last scan output column.
    pub fn plan_modify_scan(
        &self,
        table: &str,
        filter: Option<&Expr>,
    ) -> DbResult<(Plan, Scope)> {
        let filters: Vec<Expr> = filter.map(|f| vec![f.clone()]).unwrap_or_default();
        let cand = self.base_candidate(table, table, &filters, None)?;
        let mut plan = cand.plan;
        memoize_scan_pipelines(&mut plan, self.funcs);
        Ok((plan, cand.scope))
    }
}

// ---- Scan-pipeline value tests and common-subexpression elimination ----
//
// After the plan is assembled and costed, each predicate over a call in a
// scan pipeline's filters (scan filter, post-scan filter) is offered to the
// call's function (`PhysExpr::offer_value_tests`, DESIGN.md §27): an
// extraction bound to a literal path answers `extract_key_t(data, 'k') =
// 'v'` from the serialized value in place instead of decoding it. Row
// estimates, join order and access paths were fixed before, so they do not
// change.
//
// Then repeated *pure* function-call subtrees inside
// a scan pipeline (scan filter, post-scan filter, projection list) are
// wrapped in [`PhysExpr::Memo`] nodes so each distinct subtree evaluates at
// most once per row and context: the rewriter emits one extraction call per
// reference (DESIGN.md §25), and this pass keeps a call it emits twice from
// decoding twice. The morsel-parallel pipeline evaluates a row's filter and
// projection with one context, so a call in both decodes once per row; the
// serial operators keep one context each, so there it decodes once in the
// filter and once more for the rows that pass.
//
// Slot numbers are assigned per pipeline in first-encounter order; the
// executor resets its `EvalCtx` between rows. Calls not declared pure in
// the [`FuncRegistry`] are never memoized.

fn memoize_scan_pipelines(plan: &mut Plan, funcs: &FuncRegistry) {
    if let Some((mut exprs, filters)) = pipeline_exprs_mut(plan) {
        exprs.iter_mut().take(filters).for_each(|e| e.offer_value_tests());
        apply_cse(&mut exprs, funcs);
        return; // the pipeline bottoms out at its SeqScan
    }
    match plan {
        Plan::Filter { input, .. }
        | Plan::Project { input, .. }
        | Plan::Sort { input, .. }
        | Plan::HashAggregate { input, .. }
        | Plan::GroupAggregate { input, .. }
        | Plan::Unique { input, .. }
        | Plan::HashDistinct { input, .. }
        | Plan::Limit { input, .. } => memoize_scan_pipelines(input, funcs),
        Plan::HashJoin { left, right, .. }
        | Plan::MergeJoin { left, right, .. }
        | Plan::NestedLoop { left, right, .. } => {
            memoize_scan_pipelines(left, funcs);
            memoize_scan_pipelines(right, funcs);
        }
        Plan::SeqScan { .. }
        | Plan::IndexScan(_)
        | Plan::ColumnarScan { .. }
        | Plan::Values { .. } => {}
    }
}

/// Mutable references to every expression of the scan pipeline rooted at
/// `plan`, filters first, and how many of them are filters; `None` if
/// `plan` does not root one. The recognized shapes are those of the
/// executor's parallel-pipeline detection, over any scan kind: `Scan`,
/// `Filter(Scan)`, `Project(Scan)`, `Project(Filter(Scan))`.
fn pipeline_exprs_mut(plan: &mut Plan) -> Option<(Vec<&mut PhysExpr>, usize)> {
    let (input, exprs) = match plan {
        Plan::Project { input, exprs, .. } => (input.as_mut(), exprs.as_mut_slice()),
        other => (other, Default::default()),
    };
    let (scan, predicate) = match input {
        Plan::Filter { input, predicate, .. } => (input.as_mut(), Some(predicate)),
        other => (other, None),
    };
    let filter = match scan {
        Plan::SeqScan { filter, .. } => filter,
        Plan::IndexScan(path) | Plan::ColumnarScan { path, .. } => &mut path.filter,
        _ => return None,
    };
    let mut v: Vec<&mut PhysExpr> = filter.iter_mut().collect();
    v.extend(predicate);
    let filters = v.len();
    v.extend(exprs);
    Some((v, filters))
}

fn apply_cse(exprs: &mut [&mut PhysExpr], funcs: &FuncRegistry) {
    let mut counts: HashMap<String, usize> = HashMap::new();
    for e in exprs.iter() {
        count_pure_calls(e, funcs, &mut counts);
    }
    if !counts.values().any(|&c| c >= 2) {
        return;
    }
    let mut slots: HashMap<String, usize> = HashMap::new();
    for e in exprs.iter_mut() {
        plant_memos(e, funcs, &counts, &mut slots);
    }
}

fn count_pure_calls(e: &PhysExpr, funcs: &FuncRegistry, counts: &mut HashMap<String, usize>) {
    if matches!(e, PhysExpr::Call { .. }) && all_calls_pure(e, funcs) {
        *counts.entry(format!("{e:?}")).or_insert(0) += 1;
    }
    for c in e.children() {
        count_pure_calls(c, funcs, counts);
    }
}

/// Wrap repeated pure call subtrees in `Memo` nodes, children first so a
/// shared inner subtree gets its own slot even inside a memoized parent
/// (`Memo`'s transparent `Debug` keeps the structural keys stable).
fn plant_memos(
    e: &mut PhysExpr,
    funcs: &FuncRegistry,
    counts: &HashMap<String, usize>,
    slots: &mut HashMap<String, usize>,
) {
    for c in e.children_mut() {
        plant_memos(c, funcs, counts, slots);
    }
    if matches!(e, PhysExpr::Call { .. }) && all_calls_pure(e, funcs) {
        let key = format!("{e:?}");
        if counts.get(&key).copied().unwrap_or(0) >= 2 {
            let n = slots.len();
            let slot = *slots.entry(key).or_insert(n);
            let inner = std::mem::replace(e, PhysExpr::Literal(crate::datum::Datum::Null));
            *e = PhysExpr::Memo { slot, expr: Box::new(inner) };
        }
    }
}

/// Does every `Call` in the subtree use a function declared pure?
fn all_calls_pure(e: &PhysExpr, funcs: &FuncRegistry) -> bool {
    if let PhysExpr::Call { name, .. } = e {
        if !funcs.is_pure(name) {
            return false;
        }
    }
    e.children().into_iter().all(|c| all_calls_pure(c, funcs))
}

/// Type class of a bound datum for `exact_bounds` purposes (see
/// [`Datum::exactness_class`]): within one class, key order coincides with
/// SQL comparison over the keys the range can contain, so a two-sided
/// same-class range only ever contains keys of that class.
fn exactness_class(d: Option<&Datum>) -> Option<u8> {
    d.and_then(Datum::exactness_class)
}

/// Key range a conjunct contributes on a scan slot if it is a sargable
/// comparison — `col <op> literal` (either side) or a non-negated BETWEEN
/// with literal bounds.
fn sargable(e: &PhysExpr) -> Option<(usize, KeyRange)> {
    match e {
        PhysExpr::Binary { op, left, right } => {
            let (slot, d, op) = match (left.as_ref(), right.as_ref()) {
                (PhysExpr::Column(i), PhysExpr::Literal(d)) => (*i, d, *op),
                (PhysExpr::Literal(d), PhysExpr::Column(i)) => (*i, d, flip_cmp(*op)?),
                _ => return None,
            };
            if d.is_null() {
                return None;
            }
            let d = d.clone();
            let all = KeyRange::default();
            let range = match op {
                BinaryOp::Eq => KeyRange::point(d),
                BinaryOp::Gt => KeyRange { lo: Some(d), lo_inc: false, ..all },
                BinaryOp::GtEq => KeyRange { lo: Some(d), ..all },
                BinaryOp::Lt => KeyRange { hi: Some(d), hi_inc: false, ..all },
                BinaryOp::LtEq => KeyRange { hi: Some(d), ..all },
                _ => return None,
            };
            Some((slot, range))
        }
        PhysExpr::Between { expr, low, high, negated } if !negated => {
            match (expr.as_ref(), low.as_ref(), high.as_ref()) {
                (PhysExpr::Column(i), PhysExpr::Literal(lo), PhysExpr::Literal(hi))
                    if !lo.is_null() && !hi.is_null() =>
                {
                    let (lo, hi) = (Some(lo.clone()), Some(hi.clone()));
                    Some((*i, KeyRange { lo, hi, ..KeyRange::default() }))
                }
                _ => None,
            }
        }
        _ => None,
    }
}

/// Mirror a comparison for `literal <op> col` → `col <op'> literal`.
fn flip_cmp(op: BinaryOp) -> Option<BinaryOp> {
    match op {
        BinaryOp::Eq => Some(BinaryOp::Eq),
        BinaryOp::Lt => Some(BinaryOp::Gt),
        BinaryOp::LtEq => Some(BinaryOp::GtEq),
        BinaryOp::Gt => Some(BinaryOp::Lt),
        BinaryOp::GtEq => Some(BinaryOp::LtEq),
        _ => None,
    }
}

fn sort_cost(rows: f64) -> f64 {
    let r = rows.max(2.0);
    r * r.log2() * CPU_OPERATOR_COST * 2.0
}

fn aggs_width(n: usize) -> f64 {
    n as f64 * 8.0
}

fn conjoin_phys(parts: Vec<PhysExpr>) -> Option<PhysExpr> {
    parts.into_iter().reduce(|acc, e| PhysExpr::Binary {
        op: BinaryOp::And,
        left: Box::new(acc),
        right: Box::new(e),
    })
}

/// Replace aggregate function calls with `__aggN` column refs, collecting
/// the calls. Returns the rewritten expression.
fn extract_aggs(expr: &Expr, out: &mut Vec<(AggKind, bool, Option<Expr>)>) -> Expr {
    let mut e = expr.clone();
    e.walk_mut(&mut |node| {
        if let Expr::Func { name, args, distinct, star } = node {
            if let Some(kind) = AggKind::parse(name, *star) {
                let arg = if *star {
                    None
                } else {
                    if args.len() != 1 {
                        return; // leave malformed call for the binder to reject
                    }
                    Some(args[0].clone())
                };
                let entry = (kind, *distinct, arg);
                let idx = out.iter().position(|x| *x == entry).unwrap_or_else(|| {
                    out.push(entry.clone());
                    out.len() - 1
                });
                *node = Expr::Column { table: None, column: format!("__agg{idx}") };
            }
        }
    });
    e
}

/// Replace any subtree structurally equal to `target` with a column ref.
fn replace_subtree(expr: &mut Expr, target: &Expr, name: &str) {
    expr.walk_mut(&mut |node| {
        if node == target {
            *node = Expr::Column { table: None, column: name.to_string() };
        }
    });
}

fn item_name(e: &Expr) -> String {
    match e {
        Expr::Column { column, .. } => {
            // `__grp0__lower(x)` style internal names print as the original
            if let Some(rest) = column.strip_prefix("__grp") {
                if let Some(pos) = rest.find("__") {
                    return rest[pos + 2..].to_string();
                }
            }
            column.clone()
        }
        Expr::Func { name, .. } => name.to_ascii_lowercase(),
        _ => "?column?".to_string(),
    }
}
