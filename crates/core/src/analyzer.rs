//! The schema analyzer (paper §3.1.3).
//!
//! "A schema analyzer periodically evaluates the current storage schema
//! defined in the catalog in order to decide the proper distribution of
//! physical and virtual columns. ... Attributes with a density above the
//! first threshold or with a cardinality difference above the second
//! threshold are materialized as physical columns, while the remaining
//! attributes are left as virtual columns."
//!
//! The default thresholds mirror §6.1's experimental policy: "a column was
//! marked for materialization if it was present in at least 60% of objects
//! and had a cardinality greater than 200." Columns falling back below
//! threshold are marked for **de**materialization. Either way the analyzer
//! only flips catalog flags (and adds the physical column) — the actual
//! data movement belongs to the materializer.

use crate::catalog::AttrId;
use crate::extract;
use crate::Sinew;
use sinew_rdbms::{Datum, DbError, DbResult};
use std::collections::{HashMap, HashSet};

/// Materialization policy.
#[derive(Debug, Clone, Copy)]
pub struct AnalyzerPolicy {
    /// Minimum fraction of documents containing the key (paper: 0.6).
    pub density_threshold: f64,
    /// Minimum distinct values (paper: 200). Low-cardinality columns gain
    /// little: the optimizer's defaults are already close for them.
    pub cardinality_threshold: u64,
    /// Rows sampled when estimating cardinality.
    pub sample_rows: u64,
}

impl Default for AnalyzerPolicy {
    fn default() -> Self {
        AnalyzerPolicy {
            density_threshold: 0.6,
            cardinality_threshold: 200,
            sample_rows: 30_000,
        }
    }
}

impl AnalyzerPolicy {
    /// A policy that materializes nothing (the "all-virtual" extreme of
    /// §3.1.1, used by ablation benches).
    pub fn never() -> AnalyzerPolicy {
        AnalyzerPolicy {
            density_threshold: f64::INFINITY,
            cardinality_threshold: u64::MAX,
            sample_rows: 1,
        }
    }
}

/// What the analyzer decided for one attribute.
#[derive(Debug, Clone, PartialEq)]
pub enum AnalyzerDecision {
    Materialize { name: String, column: String },
    Dematerialize { name: String, column: String },
}

/// Run one analyzer pass over a collection.
pub fn run(sinew: &Sinew, table: &str, policy: &AnalyzerPolicy) -> DbResult<Vec<AnalyzerDecision>> {
    let db = sinew.db();
    let cat = sinew.catalog();
    let n_rows = db.row_count(table)?;
    if n_rows == 0 {
        return Ok(Vec::new());
    }

    // Phase 1: density screen.
    let state = cat.table_state(table);
    let mut dense: Vec<AttrId> = Vec::new();
    for (id, st) in &state {
        let density = st.count as f64 / n_rows as f64;
        if density >= policy.density_threshold || st.materialized {
            dense.push(*id);
        }
    }
    if dense.is_empty() {
        return Ok(Vec::new());
    }

    // Phase 2: cardinality estimation over a sample for the screened set.
    let (cardinality, sampled) = estimate_cardinality(sinew, table, &dense, policy.sample_rows)?;
    let m = sinew.metrics();
    m.analyzer_runs.inc();
    m.analyzer_rows_sampled.add(sampled);

    // Feed the sampled distinct counts to the RDBMS planner: an
    // `extract_key_*(data, 'k') = const` predicate over a still-virtual
    // column can then use 1/ndistinct instead of the opaque-UDF default
    // selectivity (paper §3.2.3's fixed 200-row guess).
    let mut pc = db.planner_config();
    let hints = pc.key_ndistinct.entry(table.to_string()).or_default();
    for id in &dense {
        let Some((name, _)) = cat.attr_info(*id) else { continue };
        let card = cardinality.get(id).copied().unwrap_or(0);
        if card > 0 {
            hints.insert(name, card as f64);
        }
    }
    db.set_planner_config(pc);

    // Phase 3: decisions.
    let mut decisions = Vec::new();
    let schema = db.schema(table)?;
    for (id, st) in &state {
        let (name, ty) = cat
            .attr_info(*id)
            .ok_or_else(|| DbError::NotFound(format!("attribute id {id} in catalog")))?;
        let density = st.count as f64 / n_rows as f64;
        let card = cardinality.get(id).copied().unwrap_or(0);
        let qualifies =
            density >= policy.density_threshold && card > policy.cardinality_threshold;
        if qualifies && !st.materialized {
            if schema.index_of(&st.column_name).is_none() {
                db.add_column(table, &st.column_name, ty.coltype())?;
            }
            cat.set_flags(table, *id, true, true)?;
            m.analyzer_materialize_decisions.inc();
            decisions.push(AnalyzerDecision::Materialize {
                name: name.clone(),
                column: st.column_name.clone(),
            });
        } else if !qualifies && st.materialized {
            cat.set_flags(table, *id, false, true)?;
            m.analyzer_dematerialize_decisions.inc();
            decisions.push(AnalyzerDecision::Dematerialize {
                name: name.clone(),
                column: st.column_name.clone(),
            });
        }
    }
    // One commit for every flag this pass flipped.
    cat.commit_with(db, table, &[])?;
    Ok(decisions)
}

/// Distinct-value estimate per attribute over a row sample, plus the
/// number of rows actually sampled. Values are read wherever they
/// currently live (reservoir or physical column — including columns
/// mid-dematerialization, whose values have not moved back yet).
///
/// Every scanned row counts as sampled and has its physical columns
/// probed, even when its reservoir datum is missing or not `Bytea`
/// (e.g. a row whose document was nulled out after materialization):
/// only the reservoir-extraction fallback needs the document bytes.
pub(crate) fn estimate_cardinality(
    sinew: &Sinew,
    table: &str,
    attrs: &[AttrId],
    sample_rows: u64,
) -> DbResult<(HashMap<AttrId, u64>, u64)> {
    let db = sinew.db();
    let cat = sinew.catalog();
    let schema = db.schema(table)?;
    let live_names: Vec<String> = schema.live_columns().map(|(_, c)| c.name.clone()).collect();
    let data_idx = live_names
        .iter()
        .position(|n| n == "data")
        .ok_or_else(|| DbError::Schema(format!("collection {table} lacks a data column")))?;

    struct Probe {
        id: AttrId,
        name: String,
        col_idx: Option<usize>,
    }
    let mut probes: Vec<Probe> = Vec::with_capacity(attrs.len());
    for id in attrs {
        let (name, _) = cat
            .attr_info(*id)
            .ok_or_else(|| DbError::NotFound(format!("attribute id {id} in catalog")))?;
        let st = cat.column_state(table, *id);
        // any dirty state means the physical column exists and may hold
        // values (materializing: partially filled; dematerializing:
        // partially drained)
        let col_idx = st
            .filter(|s| s.materialized || s.dirty)
            .and_then(|s| live_names.iter().position(|n| *n == s.column_name));
        probes.push(Probe { id: *id, name, col_idx });
    }

    let mut seen: Vec<HashSet<sinew_rdbms::datum::GroupKey>> =
        probes.iter().map(|_| HashSet::new()).collect();
    let mut sampled = 0u64;
    db.scan_rows(table, &mut |_, row| {
        let bytes = match &row[data_idx] {
            Datum::Bytea(b) => Some(b.as_slice()),
            _ => None,
        };
        for (probe, distinct) in probes.iter().zip(seen.iter_mut()) {
            // physical value first (COALESCE semantics), reservoir second
            let value = match probe.col_idx {
                Some(i) if !row[i].is_null() => Some(row[i].clone()),
                _ => match bytes {
                    Some(b) => extract::extract_attr(cat, b, &probe.name, probe.id)?,
                    None => None,
                },
            };
            if let Some(v) = value {
                if distinct.len() < 1_000_000 {
                    distinct.insert(v.group_key());
                }
            }
        }
        sampled += 1;
        Ok(sampled < sample_rows)
    })?;
    let map = probes
        .iter()
        .zip(seen)
        .map(|(p, s)| (p.id, s.len() as u64))
        .collect();
    Ok((map, sampled))
}
