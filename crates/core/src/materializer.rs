//! The column materializer (paper §3.1.4).
//!
//! Moves attribute values between the column reservoir and physical
//! columns, in whichever direction the catalog's flags dictate:
//!
//! * **incremental** — each call processes at most a bounded number of
//!   rows, so the materializer "can stop when other queries are running and
//!   pick up where it left off" (per-attribute cursors survive between
//!   steps);
//! * **row-atomic** — each row's move is one atomic `update_row` (physical
//!   column set and reservoir slot cleared together); the column stays
//!   *dirty* until a full pass completes, and the rewriter keeps emitting
//!   `COALESCE` for it;
//! * **latched against the loader** — a step and a bulk load never
//!   interleave (the paper's catalog latch).

use crate::catalog::AttrId;
use crate::extract;
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
    /// Rows examined.
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

/// One bounded step: picks the lowest-id dirty attribute and advances it.
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

/// Advance the lowest-id dirty attribute not in `deferred`; a pass that
/// must be deferred adds its attribute to the set so the driving loop can
/// move on.
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

    let dirty = cat.dirty_attrs(table);
    let Some(&attr) = dirty.iter().find(|a| !deferred.contains(a)) else {
        return Ok(report);
    };
    let st = cat.column_state(table, attr).ok_or_else(|| {
        DbError::Schema(format!("dirty attribute id {attr} has no catalog state for {table}"))
    })?;
    let (name, _ty) = cat
        .attr_info(attr)
        .ok_or_else(|| DbError::NotFound(format!("attribute id {attr} in catalog")))?;
    let materializing = st.materialized;

    let schema = db.schema(table)?;
    let live_names: Vec<String> = schema.live_columns().map(|(_, c)| c.name.clone()).collect();
    let data_idx = live_names
        .iter()
        .position(|n| n == "data")
        .ok_or_else(|| DbError::Schema(format!("collection {table} lacks a data column")))?;
    let col_idx = live_names.iter().position(|n| *n == st.column_name);
    // Dotted attributes may live inside a materialized parent object's
    // column rather than the reservoir.
    let source = extract::attr_source(|prefix| cat.states_for_name(table, prefix), &name);
    let parent_idx = source
        .parent_column
        .as_ref()
        .and_then(|c| live_names.iter().position(|n| n == c));

    let key = (table.to_string(), attr);
    let high_water = db.high_water(table)?;
    let MoveCursor { pos: start_pos, stranded: start_stranded } =
        sinew.cursors().lock().get(&key).copied().unwrap_or_default();

    // One budgeted batch of row moves. Through `txn` (MVCC) every move in
    // the batch becomes visible atomically at COMMIT, so a snapshot reader
    // sees each value on exactly one side of the COALESCE — never a
    // half-applied step. Without MVCC each move is its own atomic
    // `update_row`, as before.
    struct Batch {
        cursor: u64,
        stranded: u64,
        examined: u64,
        materialized: u64,
        dematerialized: u64,
    }
    let run_batch = |txn: &mut Txn| -> DbResult<Batch> {
        let mut b = Batch {
            cursor: start_pos,
            stranded: start_stranded,
            examined: 0,
            materialized: 0,
            dematerialized: 0,
        };
        while b.cursor < high_water && b.examined < budget.rows {
            let rowid = b.cursor;
            b.cursor += 1;
            b.examined += 1;
            let Some(row) = db.txn_get_row(txn, table, rowid)? else { continue };
            // Owner document: the materialized parent's column when it
            // holds a value for this row, else the reservoir. `None` when
            // neither side holds usable document bytes.
            let owner: Option<(&str, usize, &Vec<u8>)> = match parent_idx {
                Some(i) if !row[i].is_null() => match &row[i] {
                    Datum::Bytea(b) => {
                        Some((source.parent_column.as_deref().unwrap_or("data"), source.skip, b))
                    }
                    _ => None,
                },
                _ => match &row[data_idx] {
                    Datum::Bytea(b) => Some(("data", 0usize, b)),
                    _ => None,
                },
            };
            if materializing {
                // owner document → physical column; no document, nothing
                // to move
                let Some((owner_name, owner_skip, bytes)) = owner else { continue };
                let Some(value) = extract::extract_attr(cat, bytes, &name, attr)? else {
                    continue;
                };
                let cleaned = extract::remove_attr(cat, bytes, &name, owner_skip, attr)?;
                let col_is_null = col_idx.map(|i| row[i].is_null()).unwrap_or(true);
                let assigns: Vec<(&str, Datum)> = if col_is_null {
                    vec![(st.column_name.as_str(), value), (owner_name, Datum::Bytea(cleaned))]
                } else {
                    // the column was already set (e.g. by an UPDATE that
                    // ran while dirty): the owner's copy is stale — drop
                    // it only
                    vec![(owner_name, Datum::Bytea(cleaned))]
                };
                db.txn_update_row(txn, table, rowid, &assigns)?;
                b.materialized += 1;
            } else {
                // physical column → owner document (dematerialization)
                let Some(i) = col_idx else { continue };
                if row[i].is_null() {
                    continue;
                }
                let Some((owner_name, owner_skip, bytes)) = owner else {
                    // the value exists only in the column and there is no
                    // document to restore it into: dropping the column now
                    // would destroy it — count it and keep going
                    b.stranded += 1;
                    continue;
                };
                let restored = extract::set_attr(cat, bytes, &name, owner_skip, attr, &row[i])?;
                let assigns: Vec<(&str, Datum)> = vec![
                    (st.column_name.as_str(), Datum::Null),
                    (owner_name, Datum::Bytea(restored)),
                ];
                db.txn_update_row(txn, table, rowid, &assigns)?;
                b.dematerialized += 1;
            }
        }
        Ok(b)
    };

    // The step is an ordinary transaction racing foreground
    // writers under first-writer-wins: a conflict aborts *us*, never the
    // foreground statement. Roll back, keep the saved cursor (it only
    // advances after COMMIT), and retry the same batch — bounded here so a
    // hot row hands the step back to the caller instead of spinning under
    // the load latch.
    const CONFLICT_RETRIES: usize = 4;
    let mut attempts = 0;
    let b = loop {
        let mut txn = db.begin_txn()?;
        let out = match run_batch(&mut txn) {
            Ok(b) => db.commit_txn(txn).map(|()| b),
            Err(e) => {
                let _ = db.rollback_txn(txn);
                Err(e)
            }
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
    let (cursor, stranded) = (b.cursor, b.stranded);
    let examined = b.examined;
    report.values_moved = b.materialized + b.dematerialized;
    report.rows_scanned = examined;
    m.materializer_values_materialized.add(b.materialized);
    m.materializer_values_dematerialized.add(b.dematerialized);
    m.materializer_steps.inc();
    m.materializer_rows_scanned.add(examined);
    m.materializer_step_rows.record(examined);

    if cursor >= high_water {
        if !materializing && stranded > 0 {
            // Refuse to complete: `drop_column` here would strand values
            // that never made it back to a document. Keep the column (and
            // its dirty flag) and surface the condition; the cursor resets
            // so a later drive rescans from the top.
            sinew.cursors().lock().remove(&key);
            deferred.insert(attr);
            m.materializer_passes_deferred.inc();
            m.materializer_rows_stranded.add(stranded);
            report.columns_deferred.push(name);
            report.values_stranded += stranded;
        } else {
            // Full pass complete: the column is clean. (The latch
            // guarantees no load slipped new rows in during this step.)
            cat.set_flags(table, attr, materializing, false)?;
            // The clean flag is committed after the last move and before
            // the column goes: a crash between two of the three leaves a
            // dirty column whose pass reruns, or a virtual attribute beside
            // an all-NULL column — never a clean flag over unmoved values.
            cat.commit_with(db, table, &[])?;
            if !materializing {
                // dematerialized columns disappear from the physical schema
                // (dropping the column also drops any secondary index on it)
                db.drop_column(table, &st.column_name)?;
            }
            sinew.cursors().lock().remove(&key);
            m.materializer_passes_completed.inc();
            if materializing {
                maybe_create_auto_index(sinew, table, attr, &st.column_name)?;
                // Columnar segment store over the freshly promoted column:
                // built by one heap scan here, maintained incrementally by
                // every DML path after. Dematerialization drops it for free
                // (`drop_column` removes stores on the column).
                db.build_columnar(table, &st.column_name)?;
                m.materializer_columnar_built.inc();
            }
            report.columns_cleaned.push(name);
        }
    } else {
        sinew.cursors().lock().insert(key, MoveCursor { pos: cursor, stranded });
    }
    Ok(report)
}

/// Rows sampled when deciding whether a freshly promoted column deserves a
/// secondary index.
const AUTO_INDEX_SAMPLE_ROWS: u64 = 10_000;

/// Sampled-distinct bar a freshly promoted column must clear before it gets
/// a secondary index: the paper's materialization cardinality threshold.
const INDEX_MIN_CARDINALITY: u64 = 200;

/// The promotion payoff loop: once a column is fully materialized, give it
/// a secondary B-tree index when its sampled cardinality clears the bar —
/// low-cardinality columns gain little from an index and would pay
/// maintenance on every write. Dematerialization drops the index for free
/// (`drop_column` removes indexes on the column).
fn maybe_create_auto_index(
    sinew: &Sinew,
    table: &str,
    attr: AttrId,
    column: &str,
) -> DbResult<()> {
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
