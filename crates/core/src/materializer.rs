//! The column materializer (paper §3.1.4).
//!
//! Moves attribute values between the column reservoir and physical
//! columns, in whichever direction the catalog's flags dictate:
//!
//! * **incremental** — each call processes at most a bounded number of
//!   rows, so the materializer "can stop when other queries are running and
//!   pick up where it left off" (per-attribute cursors survive between
//!   steps);
//! * **one version per row** — a step writes each row once, moving every
//!   dirty attribute whose cursor has not passed it (column set and
//!   reservoir slot cleared together); a column stays *dirty* until its
//!   full pass completes, and the rewriter keeps emitting `COALESCE` for it;
//! * **latched against the loader** — a step and a bulk load never
//!   interleave (the paper's catalog latch).

use crate::catalog::{AttrId, Catalog};
use crate::extract;
use crate::types::AttrType;
use crate::Sinew;
use sinew_rdbms::{Datum, DbError, DbResult, Txn};
use std::collections::HashSet;

/// How much work one step may do.
#[derive(Debug, Clone, Copy)]
pub struct StepBudget {
    /// Maximum rows examined in this step.
    pub rows: u64,
}

impl Default for StepBudget {
    fn default() -> Self {
        StepBudget { rows: 10_000 }
    }
}

/// Resumable per-(table, attribute) materializer position.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct MoveCursor {
    /// Next row id to examine.
    pub pos: u64,
    /// Dematerialization only: rows seen so far whose column value could
    /// not be restored (owner document missing or not a document).
    pub stranded: u64,
}

/// What a materializer invocation did.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MaterializerReport {
    /// Row values moved (reservoir → column or back).
    pub values_moved: u64,
    /// Rows examined, each once however many attributes moved on it.
    pub rows_scanned: u64,
    /// Columns whose dirty bit was cleared during this invocation.
    pub columns_cleaned: Vec<String>,
    /// Columns whose dematerialize pass finished its scan but was refused
    /// completion: some values could not be restored to their owner
    /// document, so the physical column is kept (and stays dirty) rather
    /// than dropped with values stranded in it.
    pub columns_deferred: Vec<String>,
    /// Rows whose value could not be restored across deferred passes.
    pub values_stranded: u64,
}

/// One bounded step: advances every dirty attribute over the same rows.
pub fn run_step(sinew: &Sinew, table: &str, budget: StepBudget) -> DbResult<MaterializerReport> {
    let _latch = sinew.load_latch().lock();
    let mut deferred = HashSet::new();
    step_locked(sinew, table, budget, &mut deferred)
}

/// Loop steps until no dirty columns remain — except columns whose
/// dematerialization was deferred because values could not be restored
/// (those stay dirty; retrying within one drive would spin forever, so
/// each `run_until_clean` call attempts every deferred column once).
pub fn run_until_clean(sinew: &Sinew, table: &str) -> DbResult<MaterializerReport> {
    let mut total = MaterializerReport::default();
    let mut deferred: HashSet<AttrId> = HashSet::new();
    loop {
        let _latch = sinew.load_latch().lock();
        let dirty = sinew.catalog().dirty_attrs(table);
        if dirty.iter().all(|a| deferred.contains(a)) {
            return Ok(total);
        }
        let r = step_locked(sinew, table, StepBudget::default(), &mut deferred)?;
        total.values_moved += r.values_moved;
        total.rows_scanned += r.rows_scanned;
        total.columns_cleaned.extend(r.columns_cleaned);
        total.columns_deferred.extend(r.columns_deferred);
        total.values_stranded += r.values_stranded;
    }
}

/// One dirty attribute's part in a step; `col`, `parent` and `data` are schema slots.
struct Mover {
    attr: AttrId,
    name: String,
    materializing: bool,
    col: usize,
    parent: Option<usize>,
    data: usize,
    skip: usize,
    cursor: MoveCursor,
}

impl Mover {
    /// Move this attribute's value within one row image, between its
    /// column and its owner document: the parent's column when it holds a
    /// value for this row, else the reservoir (`data`). Returns whether a
    /// value moved; one with no document to go back to counts as stranded.
    fn apply(&self, cat: &Catalog, row: &mut [Datum], stranded: &mut u64) -> DbResult<bool> {
        let (owner, skip) = match self.parent {
            Some(i) if !row[i].is_null() => (i, self.skip),
            _ => (self.data, 0),
        };
        let doc = if let Datum::Bytea(b) = &row[owner] { Some(b) } else { None };
        if self.materializing {
            // owner document → physical column
            let Some(bytes) = doc else { return Ok(false) };
            let Some(value) = extract::extract_attr(cat, bytes, &self.name, self.attr)? else {
                return Ok(false);
            };
            let cleaned = extract::remove_attr(cat, bytes, &self.name, skip, self.attr)?;
            // A column already set (e.g. by an UPDATE that ran while dirty)
            // makes the owner's copy stale: drop that copy only.
            if row[self.col].is_null() {
                row[self.col] = value;
            }
            row[owner] = Datum::Bytea(cleaned);
        } else {
            // physical column → owner document (dematerialization)
            if row[self.col].is_null() {
                return Ok(false);
            }
            let Some(bytes) = doc else {
                // dropping the column now would destroy this value
                *stranded += 1;
                return Ok(false);
            };
            let value = &row[self.col];
            let restored = extract::set_attr(cat, bytes, &self.name, skip, self.attr, value)?;
            row[self.col] = Datum::Null;
            row[owner] = Datum::Bytea(restored);
        }
        Ok(true)
    }
}

/// Advance every dirty attribute not in `deferred` over one budgeted run of
/// rows; a pass that must be deferred adds its attribute to the set so the
/// driving loop can move on.
fn step_locked(
    sinew: &Sinew,
    table: &str,
    budget: StepBudget,
    deferred: &mut HashSet<AttrId>,
) -> DbResult<MaterializerReport> {
    let cat = sinew.catalog();
    let db = sinew.db();
    let m = sinew.metrics();
    let mut report = MaterializerReport::default();

    let schema = db.schema(table)?;
    let data = schema
        .index_of("data")
        .ok_or_else(|| DbError::Schema(format!("collection {table} lacks a data column")))?;
    let saved = sinew.cursors().lock().clone();
    let mut movers = Vec::new();
    for attr in cat.dirty_attrs(table).into_iter().filter(|a| !deferred.contains(a)) {
        let Some((st, (name, _))) = cat.column_state(table, attr).zip(cat.attr_info(attr)) else {
            return Err(DbError::Schema(format!("no catalog state for attribute {attr}")));
        };
        // Dotted attributes may live inside a materialized parent object's
        // column rather than the reservoir.
        let source = extract::attr_source(|prefix| cat.states_for_name(table, prefix), &name);
        movers.push(Mover {
            attr,
            col: schema
                .index_of(&st.column_name)
                .ok_or_else(|| DbError::NotFound(format!("column {}", st.column_name)))?,
            parent: source.parent_column.and_then(|c| schema.index_of(&c)),
            data,
            skip: source.skip,
            materializing: st.materialized,
            cursor: saved.get(&(table.to_string(), attr)).copied().unwrap_or_default(),
            name,
        });
    }
    // Parents before children: a promoted parent object moves before the
    // children that read from its column, and a demoted one reaches the
    // reservoir before they are restored into it (it would overwrite them).
    movers.sort_by_key(|mv| (mv.name.split('.').count(), mv.attr));
    // One budgeted run of rows from the lowest cursor. An attribute moves
    // only on rows its cursor has not passed, so a column that turned dirty
    // in mid-pass starts at row 0 while the others go on.
    let Some(start) = movers.iter().map(|mv| mv.cursor.pos).min() else { return Ok(report) };
    let high_water = db.high_water(table)?;
    let end = high_water.min(start.saturating_add(budget.rows)).max(start);

    // Through `txn` (MVCC) every move in the batch becomes visible
    // atomically at COMMIT, so a snapshot reader sees each value on exactly
    // one side of the COALESCE — never a half-applied step.
    let run_batch = |txn: &mut Txn| -> DbResult<([u64; 2], Vec<u64>)> {
        let mut moved = [0; 2]; // [dematerialized, materialized]
        let mut stranded: Vec<u64> = movers.iter().map(|mv| mv.cursor.stranded).collect();
        let mut row = Vec::new();
        for rowid in start..end {
            db.txn_rewrite_row(txn, table, rowid, &mut row, |row| {
                let mut changed = false;
                for (mv, stranded) in movers.iter().zip(&mut stranded) {
                    if mv.cursor.pos <= rowid && mv.apply(cat, row, stranded)? {
                        changed = true;
                        moved[mv.materializing as usize] += 1;
                    }
                }
                Ok(changed)
            })?;
        }
        Ok((moved, stranded))
    };

    // The step is an ordinary transaction racing foreground writers under
    // first-writer-wins: a conflict aborts *us*, never the foreground
    // statement. Roll back, keep the saved cursors (they only advance after
    // COMMIT), and retry the same batch — bounded, so a hot row hands the
    // step back to the caller instead of spinning under the load latch.
    const CONFLICT_RETRIES: usize = 4;
    let mut attempts = 0;
    let (moved, stranded) = loop {
        let mut txn = db.begin_txn()?;
        let out = match run_batch(&mut txn) {
            Ok(b) => db.commit_txn(txn).map(|()| b),
            Err(e) => db.rollback_txn(txn).and(Err(e)),
        };
        match out {
            Ok(b) => break b,
            Err(DbError::Conflict(_)) => {
                m.materializer_txn_conflicts.inc();
                attempts += 1;
                if attempts >= CONFLICT_RETRIES {
                    m.materializer_steps.inc();
                    return Ok(report);
                }
            }
            Err(e) => return Err(e),
        }
    };
    report.values_moved = moved[0] + moved[1];
    report.rows_scanned = end - start;
    m.materializer_values_materialized.add(moved[1]);
    m.materializer_values_dematerialized.add(moved[0]);
    m.materializer_steps.inc();
    m.materializer_rows_scanned.add(report.rows_scanned);
    m.materializer_step_rows.record(report.rows_scanned);

    let mut completed = Vec::new();
    for (mv, stranded) in movers.into_iter().zip(stranded) {
        let key = (table.to_string(), mv.attr);
        if end < high_water {
            let pos = mv.cursor.pos.max(end);
            sinew.cursors().lock().insert(key, MoveCursor { pos, stranded });
            continue;
        }
        sinew.cursors().lock().remove(&key);
        if !mv.materializing && stranded > 0 {
            // Refuse to complete: `drop_column` here would strand values
            // that never made it back to a document. Keep the column (and
            // its dirty flag) and surface the condition; the cursor resets
            // so a later drive rescans from the top.
            deferred.insert(mv.attr);
            m.materializer_passes_deferred.inc();
            m.materializer_rows_stranded.add(stranded);
            report.columns_deferred.push(mv.name);
            report.values_stranded += stranded;
        } else {
            // Full pass complete: the column is clean. (The latch
            // guarantees no load slipped new rows in during this step.)
            cat.set_flags(table, mv.attr, mv.materializing, false)?;
            completed.push(mv);
        }
    }
    if completed.is_empty() {
        return Ok(report);
    }
    // Every clean flag is committed, in one unit, after the last move and
    // before any column goes: a crash between two of the three leaves a
    // dirty column whose pass reruns, or a virtual attribute beside an
    // all-NULL column — never a clean flag over unmoved values.
    cat.commit_with(db, table, &[])?;
    for mv in completed {
        let column = &schema.columns[mv.col].name;
        m.materializer_passes_completed.inc();
        if mv.materializing {
            maybe_create_auto_index(sinew, table, mv.attr, column)?;
            // A columnar store over the promoted column, built by one heap
            // scan and maintained by every DML path after.
            db.build_columnar(table, column)?;
            m.materializer_columnar_built.inc();
        } else {
            // a dematerialized column leaves the physical schema, and its
            // index and columnar store go with it
            db.drop_column(table, column)?;
        }
        report.columns_cleaned.push(mv.name);
    }
    Ok(report)
}

/// Rows sampled when deciding whether a freshly promoted column deserves a
/// secondary index.
const AUTO_INDEX_SAMPLE_ROWS: u64 = 10_000;

/// Sampled-distinct bar a freshly promoted column must clear before it gets
/// a secondary index: the paper's materialization cardinality threshold.
const INDEX_MIN_CARDINALITY: u64 = 200;

/// The promotion payoff loop: once a scalar column is fully materialized,
/// give it a secondary B-tree index when its sampled cardinality clears the
/// bar — low-cardinality columns gain little from an index and would pay
/// maintenance on every write. Object and array columns get none: the
/// planner matches an index only to `column op constant` on the column
/// itself, which no predicate over a nested key or an element is.
fn maybe_create_auto_index(sinew: &Sinew, table: &str, attr: AttrId, column: &str) -> DbResult<()> {
    if let Some((_, AttrType::Object | AttrType::Array)) = sinew.catalog().attr_info(attr) {
        return Ok(());
    }
    let (card, _) =
        crate::analyzer::estimate_cardinality(sinew, table, &[attr], AUTO_INDEX_SAMPLE_ROWS)?;
    if card.get(&attr).copied().unwrap_or(0) < INDEX_MIN_CARDINALITY {
        return Ok(());
    }
    let name = format!("idx_{table}_{column}");
    match sinew.db().create_index(table, &name, column, true) {
        Ok(()) => {
            sinew.metrics().materializer_indexes_created.inc();
            Ok(())
        }
        // an index of that name already exists (e.g. demote/repromote race
        // where the user created one by hand): keep it
        Err(DbError::Schema(_)) => Ok(()),
        Err(e) => Err(e),
    }
}
