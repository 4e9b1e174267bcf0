//! Predicate selectivity and group-count estimation.
//!
//! Two regimes, exactly as the paper describes (§3.1.1):
//!
//! * **Physical columns** have ANALYZE statistics → MCV/histogram-based
//!   estimates.
//! * **Anything opaque** — a UDF call such as Sinew's `extract_key_*`, or a
//!   column with no statistics — falls back to fixed defaults. The paper:
//!   "the optimizer assumes a fixed selectivity for queries over virtual
//!   columns (200 rows out of 10 million in these experiments)". We model
//!   that with [`Defaults::opaque_eq_rows`] = 200 estimated output rows for
//!   equality over an opaque expression, and 200 estimated groups for
//!   grouping on one.

use crate::datum::Datum;
use crate::expr::{flip, PhysExpr};
use crate::stats::TableStats;
use sinew_sql::BinaryOp;
use std::collections::HashMap;

/// Planner constants (Postgres-flavoured defaults).
#[derive(Debug, Clone, Copy)]
pub struct Defaults {
    /// Estimated result rows for `opaque_expr = const` (the paper's 200).
    pub opaque_eq_rows: f64,
    /// Selectivity for inequality over an opaque expression
    /// (Postgres DEFAULT_INEQ_SEL).
    pub opaque_ineq_sel: f64,
    /// Selectivity for a range (BETWEEN) over an opaque expression
    /// (Postgres DEFAULT_RANGE_INEQ_SEL).
    pub opaque_range_sel: f64,
    /// Selectivity for LIKE over an opaque expression.
    pub opaque_like_sel: f64,
    /// Distinct-count guess for grouping on an opaque expression
    /// (Postgres get_variable_numdistinct default, also 200).
    pub opaque_ndistinct: f64,
    /// IS NOT NULL over opaque: Postgres assumes few NULLs.
    pub opaque_notnull_sel: f64,
}

impl Default for Defaults {
    fn default() -> Self {
        Defaults {
            opaque_eq_rows: 200.0,
            opaque_ineq_sel: 0.3333,
            opaque_range_sel: 0.005,
            opaque_like_sel: 0.005,
            opaque_ndistinct: 200.0,
            opaque_notnull_sel: 0.995,
        }
    }
}

/// Context for estimating over one relation's scan output: maps column
/// indices (as they appear in `PhysExpr::Column`) back to column names so
/// statistics can be looked up.
pub struct SelContext<'a> {
    pub stats: Option<&'a TableStats>,
    /// `col_names[i]` is the table column name for scan output index `i`
    /// (`None` for `_rowid` or computed columns).
    pub col_names: Vec<Option<String>>,
    pub input_rows: f64,
    pub defaults: Defaults,
    /// Sampled distinct-value counts per reservoir key of this relation's
    /// table (from the Sinew analyzer). Lets `extract_key(data, 'k') =
    /// const` estimate like a column equality instead of falling to the
    /// opaque default.
    pub key_ndistinct: Option<&'a HashMap<String, f64>>,
}

impl<'a> SelContext<'a> {
    fn column_stats(&self, e: &PhysExpr) -> Option<&'a crate::stats::ColumnStats> {
        let PhysExpr::Column(i) = e else { return None };
        let name = self.col_names.get(*i)?.as_ref()?;
        self.stats?.columns.get(name)
    }

    fn const_value(e: &PhysExpr) -> Option<Datum> {
        match e {
            PhysExpr::Literal(d) => Some(d.clone()),
            _ => None,
        }
    }

    /// Sampled distinct count for an extraction expression's key, if the
    /// expression is a rewriter-emitted extraction and a hint exists.
    fn key_hint(&self, e: &PhysExpr) -> Option<f64> {
        let key = extraction_key(e)?;
        let nd = *self.key_ndistinct?.get(key)?;
        (nd >= 1.0).then_some(nd)
    }

    /// Equality selectivity for an extraction expression: `1/ndistinct`
    /// from the analyzer's sample, like `eq_selectivity` without MCVs.
    fn extraction_eq_sel(&self, e: &PhysExpr) -> Option<f64> {
        self.key_hint(e).map(|nd| (1.0 / nd).min(1.0))
    }

    /// Selectivity (0..1) of a predicate over this relation's rows.
    pub fn selectivity(&self, pred: &PhysExpr) -> f64 {
        let d = &self.defaults;
        match pred {
            PhysExpr::Binary { op: BinaryOp::And, .. } => {
                let mut clauses = Vec::new();
                flatten_and(pred, &mut clauses);
                self.clauselist_selectivity(&clauses)
            }
            PhysExpr::Binary { op: BinaryOp::Or, left, right } => {
                let a = self.selectivity(left);
                let b = self.selectivity(right);
                (a + b - a * b).clamp(0.0, 1.0)
            }
            PhysExpr::Not(inner) => (1.0 - self.selectivity(inner)).clamp(0.0, 1.0),
            PhysExpr::Binary { op, left, right } if op.is_comparison() => {
                // normalize to (column-ish, const)
                let (col, konst, op) = match (Self::const_value(right), Self::const_value(left)) {
                    (Some(k), _) => (left.as_ref(), Some(k), *op),
                    (None, Some(k)) => (right.as_ref(), Some(k), flip(*op)),
                    _ => (left.as_ref(), None, *op),
                };
                match (self.column_stats(col), konst) {
                    (Some(cs), Some(k)) => match op {
                        BinaryOp::Eq => cs.eq_selectivity(&k),
                        BinaryOp::NotEq => {
                            (1.0 - cs.null_frac - cs.eq_selectivity(&k)).clamp(0.0, 1.0)
                        }
                        BinaryOp::Lt | BinaryOp::LtEq => cs.lt_selectivity(&k),
                        BinaryOp::Gt | BinaryOp::GtEq => {
                            (1.0 - cs.null_frac - cs.lt_selectivity(&k)).clamp(0.0, 1.0)
                        }
                        _ => 0.5,
                    },
                    // Opaque operand (UDF / no stats): the paper's regime —
                    // unless it is a rewriter-emitted extraction with a
                    // sampled cardinality hint for its key.
                    _ => match op {
                        BinaryOp::Eq => self
                            .extraction_eq_sel(col)
                            .unwrap_or((d.opaque_eq_rows / self.input_rows.max(1.0)).min(1.0)),
                        BinaryOp::NotEq => {
                            1.0 - self.extraction_eq_sel(col).unwrap_or(
                                (d.opaque_eq_rows / self.input_rows.max(1.0)).min(1.0),
                            )
                        }
                        _ => d.opaque_ineq_sel,
                    },
                }
            }
            PhysExpr::IsNull { expr, negated } => {
                let null_frac = self
                    .column_stats(expr)
                    .map(|cs| cs.null_frac)
                    .unwrap_or(1.0 - self.defaults.opaque_notnull_sel);
                if *negated {
                    1.0 - null_frac
                } else {
                    null_frac
                }
            }
            PhysExpr::Between { expr, low, high, negated } => {
                let sel = match (
                    self.column_stats(expr),
                    Self::const_value(low),
                    Self::const_value(high),
                ) {
                    (Some(cs), Some(lo), Some(hi)) => {
                        (cs.lt_selectivity(&hi) - cs.lt_selectivity(&lo)).clamp(0.0, 1.0)
                    }
                    _ => d.opaque_range_sel,
                };
                if *negated {
                    (1.0 - sel).clamp(0.0, 1.0)
                } else {
                    sel
                }
            }
            PhysExpr::InList { expr, list, negated } => {
                let sel: f64 = match self.column_stats(expr) {
                    Some(cs) => list
                        .iter()
                        .filter_map(Self::const_value)
                        .map(|k| cs.eq_selectivity(&k))
                        .sum(),
                    None => {
                        list.len() as f64 * (d.opaque_eq_rows / self.input_rows.max(1.0)).min(1.0)
                    }
                };
                let sel = sel.clamp(0.0, 1.0);
                if *negated {
                    1.0 - sel
                } else {
                    sel
                }
            }
            PhysExpr::Like { negated, .. } => {
                let sel = d.opaque_like_sel;
                if *negated {
                    1.0 - sel
                } else {
                    sel
                }
            }
            // Bare boolean column or UDF call in predicate position.
            PhysExpr::Column(_) => 0.5,
            PhysExpr::Call { .. } => 0.3333,
            PhysExpr::Literal(Datum::Bool(true)) => 1.0,
            PhysExpr::Literal(Datum::Bool(false)) => 0.0,
            _ => 0.3333,
        }
    }

    /// Conjunction selectivity with same-variable range pairing (the
    /// Postgres `clauselist_selectivity` treatment): `lo <= x AND x < hi`
    /// estimates as `sel(x < hi) + sel(x >= lo) - 1` instead of the
    /// independent product, which badly overestimates narrow ranges
    /// (`0.75 × 0.26` ≈ 19% for a 1% slice).
    fn clauselist_selectivity(&self, clauses: &[&PhysExpr]) -> f64 {
        // (variable, lower-bound sel, upper-bound sel, has column stats)
        let mut ranges: Vec<(RangeVar<'_>, Option<f64>, Option<f64>, bool)> = Vec::new();
        let mut sel = 1.0f64;
        for c in clauses {
            let Some((var, is_lower, s, has_stats)) = self.range_bound(c) else {
                sel *= self.selectivity(c);
                continue;
            };
            let entry = match ranges.iter_mut().find(|(v, ..)| *v == var) {
                Some(e) => e,
                None => {
                    ranges.push((var, None, None, has_stats));
                    ranges.last_mut().unwrap()
                }
            };
            let slot = if is_lower { &mut entry.1 } else { &mut entry.2 };
            // duplicate same-direction bounds: keep the tighter one
            *slot = Some(slot.map_or(s, |old| old.min(s)));
            entry.3 &= has_stats;
        }
        for (_, lo, hi, has_stats) in ranges {
            sel *= match (lo, hi) {
                (Some(l), Some(h)) => {
                    let paired = h + l - 1.0;
                    if has_stats && paired > 0.0 {
                        paired
                    } else {
                        // histogram too coarse (or no stats at all):
                        // Postgres DEFAULT_RANGE_INEQ_SEL
                        self.defaults.opaque_range_sel
                    }
                }
                (Some(s), None) | (None, Some(s)) => s,
                (None, None) => 1.0,
            };
        }
        sel.clamp(0.0, 1.0)
    }

    /// Classify a clause as a one-sided range bound over a pairable
    /// variable: returns `(variable, is_lower_bound, selectivity,
    /// has_column_stats)`. Equality and non-comparison clauses return
    /// `None` and keep the independence treatment.
    fn range_bound<'e>(&self, clause: &'e PhysExpr) -> Option<(RangeVar<'e>, bool, f64, bool)> {
        let PhysExpr::Binary { op, left, right } = clause else { return None };
        if !op.is_comparison() {
            return None;
        }
        let (col, op) = match (Self::const_value(right), Self::const_value(left)) {
            (Some(_), _) => (left.as_ref(), *op),
            (None, Some(_)) => (right.as_ref(), flip(*op)),
            _ => return None,
        };
        let is_lower = match op {
            BinaryOp::Gt | BinaryOp::GtEq => true,
            BinaryOp::Lt | BinaryOp::LtEq => false,
            _ => return None,
        };
        let var = match col {
            PhysExpr::Column(i) => RangeVar::Col(*i),
            other => RangeVar::Key(extraction_key(other)?),
        };
        Some((var, is_lower, self.selectivity(clause), self.column_stats(col).is_some()))
    }

    /// Estimated distinct values of one grouping expression.
    pub fn ndistinct(&self, e: &PhysExpr) -> f64 {
        match self.column_stats(e) {
            Some(cs) => cs.n_distinct,
            None => self.key_hint(e).unwrap_or(self.defaults.opaque_ndistinct),
        }
    }

    /// Average width in bytes of an expression's values (for hash-table
    /// sizing decisions).
    pub fn width(&self, e: &PhysExpr) -> f64 {
        match self.column_stats(e) {
            Some(cs) => cs.avg_width.max(1.0),
            None => 32.0,
        }
    }
}

/// A variable that range bounds can be paired on: a scan output column,
/// or the reservoir key of a rewriter-emitted extraction expression.
#[derive(PartialEq)]
enum RangeVar<'e> {
    Col(usize),
    Key(&'e str),
}

fn flatten_and<'e>(e: &'e PhysExpr, out: &mut Vec<&'e PhysExpr>) {
    match e {
        PhysExpr::Binary { op: BinaryOp::And, left, right } => {
            flatten_and(left, out);
            flatten_and(right, out);
        }
        other => out.push(other),
    }
}

/// The reservoir key an extraction expression reads, if `e` is the
/// rewriter's emitted shape `extract_key_<tag>(data, 'key')` (key = last
/// argument), possibly wrapped in the dirty-column `COALESCE(col,
/// extraction)`, a cast or a planner memo.
fn extraction_key(e: &PhysExpr) -> Option<&str> {
    match e {
        PhysExpr::Memo { expr, .. } | PhysExpr::Cast { expr, .. } => extraction_key(expr),
        PhysExpr::Coalesce(args) => args.iter().find_map(extraction_key),
        PhysExpr::Call { name, args, .. } if name.starts_with("extract_key") => {
            match args.last() {
                Some(PhysExpr::Literal(Datum::Text(k))) => Some(k),
                _ => None,
            }
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::ColumnCollector;
    use std::collections::HashMap;

    fn make_stats() -> TableStats {
        let mut lang = ColumnCollector::new();
        // 90% "en", 1% "msa", rest varied
        for i in 0..10_000 {
            let v = if i % 100 == 0 {
                "msa"
            } else if i % 10 < 9 {
                "en"
            } else {
                "fr"
            };
            lang.add(&Datum::Text(v.into()));
        }
        let mut num = ColumnCollector::new();
        for i in 0..10_000 {
            num.add(&Datum::Int(i));
        }
        let mut columns = HashMap::new();
        columns.insert("lang".to_string(), lang.finish());
        columns.insert("num".to_string(), num.finish());
        TableStats { n_rows: 10_000.0, columns }
    }

    fn ctx(stats: &TableStats) -> SelContext<'_> {
        SelContext {
            stats: Some(stats),
            col_names: vec![Some("lang".into()), Some("num".into()), None],
            input_rows: 10_000.0,
            defaults: Defaults::default(),
            key_ndistinct: None,
        }
    }

    #[test]
    fn stats_based_eq_vs_opaque_eq() {
        let stats = make_stats();
        let c = ctx(&stats);
        // lang = 'msa' with stats: ~1%
        let pred = PhysExpr::Binary {
            op: BinaryOp::Eq,
            left: Box::new(PhysExpr::Column(0)),
            right: Box::new(PhysExpr::Literal(Datum::Text("msa".into()))),
        };
        let s = c.selectivity(&pred);
        assert!((s - 0.01).abs() < 0.005, "stats sel {s}");
        // same predicate through a UDF: fixed 200-row default
        let opaque = PhysExpr::Binary {
            op: BinaryOp::Eq,
            left: Box::new(PhysExpr::Call {
                name: "extract_key_txt".into(),
                func: std::sync::Arc::new(|_: &[Datum]| Ok(Datum::Null)),
                args: vec![PhysExpr::Column(2)],
            }),
            right: Box::new(PhysExpr::Literal(Datum::Text("msa".into()))),
        };
        let s2 = c.selectivity(&opaque);
        assert!((s2 - 0.02).abs() < 1e-9, "opaque sel {s2} should be 200/10000");
    }

    #[test]
    fn extraction_eq_uses_sampled_cardinality_hint() {
        let stats = make_stats();
        let mut hints = HashMap::new();
        hints.insert("lang".to_string(), 1000.0);
        let mut c = ctx(&stats);
        c.key_ndistinct = Some(&hints);
        let noop = || std::sync::Arc::new(|_: &[Datum]| Ok(Datum::Null));
        // extract_key_txt(data, 'lang') = 'msa' → 1/1000, not 200/10000
        let simple = PhysExpr::Binary {
            op: BinaryOp::Eq,
            left: Box::new(PhysExpr::Call {
                name: "extract_key_txt".into(),
                func: noop(),
                args: vec![
                    PhysExpr::Column(2),
                    PhysExpr::Literal(Datum::Text("lang".into())),
                ],
            }),
            right: Box::new(PhysExpr::Literal(Datum::Text("msa".into()))),
        };
        let s = c.selectivity(&simple);
        assert!((s - 0.001).abs() < 1e-9, "hinted sel {s} should be 1/1000");
        // a key with no hint keeps the opaque default
        let unknown = PhysExpr::Binary {
            op: BinaryOp::Eq,
            left: Box::new(PhysExpr::Call {
                name: "extract_key_txt".into(),
                func: noop(),
                args: vec![
                    PhysExpr::Column(2),
                    PhysExpr::Literal(Datum::Text("other".into())),
                ],
            }),
            right: Box::new(PhysExpr::Literal(Datum::Text("msa".into()))),
        };
        let s2 = c.selectivity(&unknown);
        assert!((s2 - 0.02).abs() < 1e-9, "unhinted sel {s2} stays 200/10000");
        // grouping estimate uses the hint too
        let group = PhysExpr::Call {
            name: "extract_key_txt".into(),
            func: noop(),
            args: vec![PhysExpr::Column(2), PhysExpr::Literal(Datum::Text("lang".into()))],
        };
        assert_eq!(c.ndistinct(&group), 1000.0);
    }

    #[test]
    fn range_with_histogram() {
        let stats = make_stats();
        let c = ctx(&stats);
        let pred = PhysExpr::Binary {
            op: BinaryOp::Lt,
            left: Box::new(PhysExpr::Column(1)),
            right: Box::new(PhysExpr::Literal(Datum::Int(5000))),
        };
        let s = c.selectivity(&pred);
        assert!((s - 0.5).abs() < 0.1, "range sel {s}");
        // flipped operand order
        let pred_flipped = PhysExpr::Binary {
            op: BinaryOp::Gt,
            left: Box::new(PhysExpr::Literal(Datum::Int(5000))),
            right: Box::new(PhysExpr::Column(1)),
        };
        let s2 = c.selectivity(&pred_flipped);
        assert!((s - s2).abs() < 1e-9);
    }

    #[test]
    fn range_pair_on_same_column_is_not_independent() {
        let stats = make_stats();
        let c = ctx(&stats);
        let cmp = |op: BinaryOp, v: i64| PhysExpr::Binary {
            op,
            left: Box::new(PhysExpr::Column(1)),
            right: Box::new(PhysExpr::Literal(Datum::Int(v))),
        };
        // num in [2500, 5000) over uniform 0..10_000 → ~25%, where the
        // independent product would say 0.75 × 0.5 ≈ 37.5%
        let and = PhysExpr::Binary {
            op: BinaryOp::And,
            left: Box::new(cmp(BinaryOp::GtEq, 2500)),
            right: Box::new(cmp(BinaryOp::Lt, 5000)),
        };
        let s = c.selectivity(&and);
        assert!((s - 0.25).abs() < 0.05, "paired range sel {s}");
        // a narrow 1% slice must not balloon to ~19%
        let narrow = PhysExpr::Binary {
            op: BinaryOp::And,
            left: Box::new(cmp(BinaryOp::GtEq, 2500)),
            right: Box::new(cmp(BinaryOp::Lt, 2600)),
        };
        let s = c.selectivity(&narrow);
        assert!(s < 0.05, "narrow range sel {s}");
        // bounds on *different* columns stay independent
        let cross = PhysExpr::Binary {
            op: BinaryOp::And,
            left: Box::new(cmp(BinaryOp::GtEq, 2500)),
            right: Box::new(PhysExpr::Binary {
                op: BinaryOp::Lt,
                left: Box::new(PhysExpr::Column(0)),
                right: Box::new(PhysExpr::Literal(Datum::Text("zz".into()))),
            }),
        };
        let s_cross = c.selectivity(&cross);
        assert!(s_cross > 0.5, "cross-column sel {s_cross} must stay a product");
        // contradictory bounds fall back to the range default, not zero
        let empty = PhysExpr::Binary {
            op: BinaryOp::And,
            left: Box::new(cmp(BinaryOp::GtEq, 9000)),
            right: Box::new(cmp(BinaryOp::Lt, 1000)),
        };
        let s = c.selectivity(&empty);
        assert!((s - 0.005).abs() < 1e-9, "empty range sel {s}");
    }

    #[test]
    fn ndistinct_stats_vs_default() {
        let stats = make_stats();
        let c = ctx(&stats);
        assert!(c.ndistinct(&PhysExpr::Column(1)) > 5_000.0);
        assert_eq!(c.ndistinct(&PhysExpr::Column(2)), 200.0);
    }

    #[test]
    fn and_or_composition() {
        let stats = make_stats();
        let c = ctx(&stats);
        let eq = |v: &str| PhysExpr::Binary {
            op: BinaryOp::Eq,
            left: Box::new(PhysExpr::Column(0)),
            right: Box::new(PhysExpr::Literal(Datum::Text(v.into()))),
        };
        let and = PhysExpr::Binary {
            op: BinaryOp::And,
            left: Box::new(eq("msa")),
            right: Box::new(eq("en")),
        };
        let or = PhysExpr::Binary {
            op: BinaryOp::Or,
            left: Box::new(eq("msa")),
            right: Box::new(eq("en")),
        };
        assert!(c.selectivity(&and) < c.selectivity(&eq("msa")));
        assert!(c.selectivity(&or) > c.selectivity(&eq("en")));
        assert!(c.selectivity(&or) <= 1.0);
    }
}
