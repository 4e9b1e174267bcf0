//! The Sinew catalog (paper §3.1.2, Figure 4).
//!
//! Two parts, exactly as the paper divides them:
//!
//! 1. a **global attribute dictionary** — `(id, key_name, key_type)` triples
//!    across all relations, serving as "the dictionary that maps every
//!    attribute to an ID, thereby providing a compact key representation
//!    ... inside the storage layer";
//! 2. **per-table column state** — occurrence count, physical/virtual flag,
//!    and the dirty flag driving the materializer.
//!
//! Both parts live in an in-memory cache, which every reader (serialization,
//! extraction, the rewriter) uses, and are mirrored into ordinary RDBMS
//! tables (`_sinew_attributes` and `_sinew_cols_<table>`) so they are
//! queryable through SQL and survive a restart ([`Catalog::load`]).
//!
//! The mirror is kept by **row deltas** (DESIGN.md §20). The cache knows
//! which dictionary entries have no row yet, which column states differ
//! from their row, and where each state's row is; [`Catalog::commit_with`]
//! writes exactly those rows — new dictionary rows, new state rows, by-rowid
//! updates of changed ones — in the same [`Database::write_unit`] as the
//! caller's own rows. A load is therefore one commit: its documents, the
//! attributes they introduced and the counts and dirty flags they moved
//! reach the log together or not at all.

use crate::metrics::Metrics;
use crate::types::AttrType;
use parking_lot::RwLock;
use sinew_rdbms::{ColType, Database, Datum, DbError, DbResult, PlanEpoch, RowId, RowWrite};
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

pub type AttrId = u32;

/// Per-table state of one attribute (Figure 4b).
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnState {
    /// Number of loaded documents containing this attribute.
    pub count: u64,
    /// Is the attribute stored as a physical column?
    pub materialized: bool,
    /// Values may be split between the physical column and the reservoir.
    pub dirty: bool,
    /// Name of the physical column in the RDBMS (differs from the key name
    /// when the key collides with reserved names or a multi-typed sibling).
    pub column_name: String,
}

/// One collection's column states and where the mirror holds them.
#[derive(Default)]
struct TableCache {
    states: HashMap<AttrId, ColumnState>,
    /// Row of each state in `_sinew_cols_<table>`; a state without an entry
    /// has never been written.
    mirror_rows: HashMap<AttrId, RowId>,
    /// States that differ from their mirror row (ordered, so a flush writes
    /// the same rows in the same order on every run).
    changed: BTreeSet<AttrId>,
}

#[derive(Default)]
struct Inner {
    /// id → (name, type)
    by_id: HashMap<AttrId, (String, AttrType)>,
    /// name → (id, type) for every registered type of that key. Keyed by
    /// borrowable `String` so the hot extraction path never allocates.
    by_name: HashMap<String, Vec<(AttrId, AttrType)>>,
    next_id: AttrId,
    /// Dictionary entries below this id have their `_sinew_attributes` row;
    /// `written_below..next_id` were assigned in memory since the last
    /// flush. Ids are dense and flushed in order, so one mark is enough.
    written_below: AttrId,
    tables: HashMap<String, TableCache>,
}

/// The catalog.
pub struct Catalog {
    inner: RwLock<Inner>,
    /// The database's plan epoch (DESIGN.md §23), bumped after any change
    /// that can alter how a statement rewrites or a path resolves — a new
    /// attribute, a new column state, a flag flip, a table registration —
    /// and before anything depending on it commits. A count alone does not.
    epoch: PlanEpoch,
    /// Fed `catalog_rows_written`.
    metrics: Arc<Metrics>,
}

pub const ATTR_TABLE: &str = "_sinew_attributes";
const COLS_PREFIX: &str = "_sinew_cols_";

pub fn cols_table(table: &str) -> String {
    format!("{COLS_PREFIX}{table}")
}

/// What one flush writes, taken out of the cache as plain rows.
#[derive(Default)]
struct Delta {
    /// Dictionary rows for ids `written_below..attrs_end`.
    attr_rows: Vec<Vec<Datum>>,
    attrs_end: AttrId,
    /// States with no mirror row yet, and their rows.
    new_states: Vec<AttrId>,
    new_state_rows: Vec<Vec<Datum>>,
    /// States whose mirror row is rewritten in place.
    updates: Vec<StateUpdate>,
}

struct StateUpdate {
    id: AttrId,
    rowid: RowId,
    assignments: [(&'static str, Datum); 3],
}

impl Catalog {
    /// The catalog of `db`: creates the dictionary mirror in a new database,
    /// reads the dictionary and every collection's column states back from
    /// the mirror of an existing one. Counts written rows into `metrics`.
    pub fn load(db: &Database, metrics: Arc<Metrics>) -> DbResult<Catalog> {
        let names = db.table_names();
        if !names.iter().any(|n| n == ATTR_TABLE) {
            db.create_table(
                ATTR_TABLE,
                vec![
                    ("_id".into(), ColType::Int),
                    ("key_name".into(), ColType::Text),
                    ("key_type".into(), ColType::Text),
                ],
            )?;
        }
        let corrupt = |table: &str, row: &[Datum]| {
            DbError::Schema(format!("catalog mirror {table} holds an unreadable row {row:?}"))
        };
        let mut inner = Inner::default();
        db.scan_rows(ATTR_TABLE, &mut |_, row| {
            let [Datum::Int(id), Datum::Text(name), Datum::Text(ty)] = row.as_slice() else {
                return Err(corrupt(ATTR_TABLE, &row));
            };
            let ty = AttrType::parse(ty).ok_or_else(|| corrupt(ATTR_TABLE, &row))?;
            let id = *id as AttrId;
            inner.by_id.insert(id, (name.clone(), ty));
            inner.by_name.entry(name.clone()).or_default().push((id, ty));
            inner.next_id = inner.next_id.max(id + 1);
            Ok(true)
        })?;
        inner.written_below = inner.next_id;
        for mirror in &names {
            let Some(table) = mirror.strip_prefix(COLS_PREFIX) else { continue };
            let cache = inner.tables.entry(table.to_string()).or_default();
            db.scan_rows(mirror, &mut |rowid, row| {
                use Datum::{Bool, Int, Text};
                let [Int(id), Int(count), Bool(materialized), Bool(dirty), Text(column_name)] =
                    row.as_slice()
                else {
                    return Err(corrupt(mirror, &row));
                };
                let id = *id as AttrId;
                cache.states.insert(
                    id,
                    ColumnState {
                        count: *count as u64,
                        materialized: *materialized,
                        dirty: *dirty,
                        column_name: column_name.clone(),
                    },
                );
                cache.mirror_rows.insert(id, rowid);
                Ok(true)
            })?;
        }
        Ok(Catalog {
            inner: RwLock::new(inner),
            epoch: db.plan_epoch().clone(),
            metrics,
        })
    }

    /// Current plan epoch: a statement prepared at epoch `e` read the
    /// catalog as it still is while `epoch() == e`.
    pub fn epoch(&self) -> u64 {
        self.epoch.get()
    }

    /// Register the per-table mirror for a new collection.
    pub fn register_table(&self, db: &Database, table: &str) -> DbResult<()> {
        let mirror = cols_table(table);
        if !db.table_names().contains(&mirror) {
            db.create_table(
                &mirror,
                vec![
                    ("_id".into(), ColType::Int),
                    ("count".into(), ColType::Int),
                    ("materialized".into(), ColType::Bool),
                    ("dirty".into(), ColType::Bool),
                    ("column_name".into(), ColType::Text),
                ],
            )?;
        }
        self.inner.write().tables.entry(table.to_string()).or_default();
        self.epoch.bump();
        Ok(())
    }

    /// Look up or create the attribute id for (name, type). A new attribute
    /// is assigned in memory only; its dictionary row is written by the next
    /// [`Catalog::commit_with`] — the one that commits the documents using
    /// it. "The cost of adding a new attribute to the schema is just the
    /// cost to insert the new attribute into the catalog" (§3.2.1).
    pub fn intern(&self, name: &str, ty: AttrType) -> AttrId {
        if let Some(id) = self.lookup(name, ty) {
            return id;
        }
        let mut inner = self.inner.write();
        if let Some(entries) = inner.by_name.get(name) {
            if let Some((id, _)) = entries.iter().find(|(_, t)| *t == ty) {
                return *id;
            }
        }
        let id = inner.next_id;
        inner.next_id += 1;
        inner.by_id.insert(id, (name.to_string(), ty));
        inner.by_name.entry(name.to_string()).or_default().push((id, ty));
        drop(inner);
        self.epoch.bump();
        id
    }

    /// [`Catalog::intern`] for a caller whose own write cannot carry the
    /// dictionary row — `set_key`, evaluated inside an UPDATE that is already
    /// running: the row is committed before the id is handed out, so the
    /// document the UPDATE stores never refers to an unwritten attribute.
    pub fn intern_durable(&self, db: &Database, name: &str, ty: AttrType) -> DbResult<AttrId> {
        let id = self.intern(name, ty);
        if id >= self.inner.read().written_below {
            self.flush(db, None, &[])?;
        }
        Ok(id)
    }

    /// Fast lookup without creating. Allocation-free: this sits on the
    /// per-row extraction path.
    pub fn lookup(&self, name: &str, ty: AttrType) -> Option<AttrId> {
        self.inner
            .read()
            .by_name
            .get(name)
            .and_then(|entries| entries.iter().find(|(_, t)| *t == ty).map(|(id, _)| *id))
    }

    /// All attribute ids registered under a key name (one per type seen).
    pub fn ids_for_name(&self, name: &str) -> Vec<(AttrId, AttrType)> {
        self.inner.read().by_name.get(name).cloned().unwrap_or_default()
    }

    pub fn attr_info(&self, id: AttrId) -> Option<(String, AttrType)> {
        self.inner.read().by_id.get(&id).cloned()
    }

    /// Record one more occurrence of an attribute in a table.
    pub fn bump_count(&self, table: &str, id: AttrId, by: u64) {
        self.bump_counts(table, &[(id, by)]);
    }

    /// Batched count update: one write-lock acquisition for a whole load
    /// batch (the loader calls this once per `load_docs`). Counts do not
    /// decide how a path resolves, so only a first occurrence in this table
    /// — a new column state — moves the epoch.
    pub fn bump_counts(&self, table: &str, deltas: &[(AttrId, u64)]) {
        let mut inner = self.inner.write();
        let Inner { by_id, by_name, tables, .. } = &mut *inner;
        let cache = tables.entry(table.to_string()).or_default();
        let mut new_state = false;
        for &(id, by) in deltas {
            let st = cache.states.entry(id).or_insert_with(|| {
                new_state = true;
                let (name, ty) = by_id.get(&id).expect("attr interned");
                // The physical column name is fixed at first occurrence.
                let column_name = physical_column_name(name, *ty, &by_name[name]);
                ColumnState { count: 0, materialized: false, dirty: false, column_name }
            });
            st.count += by;
            cache.changed.insert(id);
        }
        drop(inner);
        if new_state {
            self.epoch.bump();
        }
    }

    /// All attribute state for one table, sorted by attribute id — the
    /// logical universal-relation schema of that table.
    pub fn table_state(&self, table: &str) -> Vec<(AttrId, ColumnState)> {
        let inner = self.inner.read();
        let mut out: Vec<(AttrId, ColumnState)> = inner
            .tables
            .get(table)
            .map(|t| t.states.iter().map(|(id, st)| (*id, st.clone())).collect())
            .unwrap_or_default();
        out.sort_by_key(|(id, _)| *id);
        out
    }

    pub fn column_state(&self, table: &str, id: AttrId) -> Option<ColumnState> {
        self.inner.read().tables.get(table)?.states.get(&id).cloned()
    }

    /// State lookup by key name: all (id, type, state) entries for a name.
    pub fn states_for_name(&self, table: &str, name: &str) -> Vec<(AttrId, AttrType, ColumnState)> {
        let inner = self.inner.read();
        let Some(entries) = inner.by_name.get(name) else { return Vec::new() };
        let Some(cache) = inner.tables.get(table) else { return Vec::new() };
        entries
            .iter()
            .filter_map(|(id, ty)| cache.states.get(id).map(|st| (*id, *ty, st.clone())))
            .collect()
    }

    /// Set materialization/dirty flags (the analyzer and materializer call
    /// this, then [`Catalog::commit_with`]).
    pub fn set_flags(
        &self,
        table: &str,
        id: AttrId,
        materialized: bool,
        dirty: bool,
    ) -> DbResult<()> {
        let mut inner = self.inner.write();
        let cache = inner
            .tables
            .get_mut(table)
            .filter(|t| t.states.contains_key(&id))
            .ok_or_else(|| DbError::NotFound(format!("attr {id} in {table}")))?;
        let st = cache.states.get_mut(&id).expect("checked above");
        if (st.materialized, st.dirty) == (materialized, dirty) {
            return Ok(());
        }
        st.materialized = materialized;
        st.dirty = dirty;
        cache.changed.insert(id);
        drop(inner);
        self.epoch.bump();
        Ok(())
    }

    /// Mark every *materialized* attribute that just received reservoir
    /// data as dirty (loader postlude, §3.2.1).
    pub fn mark_loaded_dirty(&self, table: &str, touched: &[AttrId]) {
        let mut flipped = false;
        {
            let mut inner = self.inner.write();
            if let Some(cache) = inner.tables.get_mut(table) {
                for id in touched {
                    if let Some(st) = cache.states.get_mut(id) {
                        if st.materialized && !st.dirty {
                            st.dirty = true;
                            cache.changed.insert(*id);
                            flipped = true;
                        }
                    }
                }
            }
        }
        if flipped {
            self.epoch.bump();
        }
    }

    /// Any dirty columns in a table? (the materializer's poll).
    pub fn dirty_attrs(&self, table: &str) -> Vec<AttrId> {
        let inner = self.inner.read();
        inner
            .tables
            .get(table)
            .map(|t| {
                let mut v: Vec<AttrId> =
                    t.states.iter().filter(|(_, st)| st.dirty).map(|(id, _)| *id).collect();
                v.sort_unstable();
                v
            })
            .unwrap_or_default()
    }

    /// Commit `own` — the caller's writes — together with every catalog row
    /// that changed since the last flush (new dictionary entries of any
    /// table, new and changed column states of `table`) as one
    /// [`Database::write_unit`]: one commit record, one fsync. With nothing
    /// to write at all, nothing is committed.
    pub fn commit_with(&self, db: &Database, table: &str, own: &[RowWrite<'_>]) -> DbResult<()> {
        self.flush(db, Some(table), own)
    }

    fn flush(&self, db: &Database, table: Option<&str>, own: &[RowWrite<'_>]) -> DbResult<()> {
        // The database's write token, held from taking a delta out of the
        // cache until its unit has committed: mirror writes reach the log
        // in the order the cache changed, and nobody mistakes an entry in
        // flight for a durable one. It is the lock the unit would take
        // anyway; taking it first keeps one order for a load and for an
        // UPDATE whose `set_key` flushes from inside the statement's token.
        let _flushing = db.write_guard();
        let delta = self.take_delta(table);
        let mirror = table.map(cols_table).unwrap_or_default();
        let mut writes = own.to_vec();
        if !delta.attr_rows.is_empty() {
            writes.push(RowWrite::Insert { table: ATTR_TABLE, cols: None, rows: &delta.attr_rows });
        }
        writes.extend(delta.updates.iter().map(|u| RowWrite::Update {
            table: &mirror,
            rowid: u.rowid,
            assignments: &u.assignments,
        }));
        // Last insert of the unit: its row ids are the tail of the result.
        if !delta.new_state_rows.is_empty() {
            writes.push(RowWrite::Insert {
                table: &mirror,
                cols: None,
                rows: &delta.new_state_rows,
            });
        }
        if writes.is_empty() {
            return Ok(());
        }
        let written = db.write_unit(&writes);
        let mut inner = self.inner.write();
        match written {
            Ok(rowids) => {
                inner.written_below = delta.attrs_end;
                if let Some(cache) = table.and_then(|t| inner.tables.get_mut(t)) {
                    let new_rows = &rowids[rowids.len() - delta.new_states.len()..];
                    cache
                        .mirror_rows
                        .extend(delta.new_states.iter().copied().zip(new_rows.iter().copied()));
                }
                let rows = delta.attr_rows.len() + delta.new_states.len() + delta.updates.len();
                self.metrics.catalog_rows_written.add(rows as u64);
                Ok(())
            }
            Err(e) => {
                // Still unwritten: the next flush takes them again.
                if let Some(cache) = table.and_then(|t| inner.tables.get_mut(t)) {
                    cache.changed.extend(&delta.new_states);
                    cache.changed.extend(delta.updates.iter().map(|u| u.id));
                }
                Err(e)
            }
        }
    }

    /// The rows a flush must write, as they are now. The changed set of
    /// `table` is emptied (a failed flush puts it back); the dictionary mark
    /// only moves once the rows are committed.
    fn take_delta(&self, table: Option<&str>) -> Delta {
        let mut inner = self.inner.write();
        let mut delta = Delta { attrs_end: inner.next_id, ..Delta::default() };
        for id in inner.written_below..inner.next_id {
            let (name, ty) = &inner.by_id[&id];
            delta.attr_rows.push(vec![
                Datum::Int(id as i64),
                Datum::Text(name.clone()),
                Datum::Text(ty.name().to_string()),
            ]);
        }
        let Some(cache) = table.and_then(|t| inner.tables.get_mut(t)) else { return delta };
        for id in std::mem::take(&mut cache.changed) {
            let st = &cache.states[&id];
            let (count, materialized, dirty) =
                (Datum::Int(st.count as i64), Datum::Bool(st.materialized), Datum::Bool(st.dirty));
            match cache.mirror_rows.get(&id) {
                Some(&rowid) => delta.updates.push(StateUpdate {
                    id,
                    rowid,
                    assignments: [
                        ("count", count),
                        ("materialized", materialized),
                        ("dirty", dirty),
                    ],
                }),
                None => {
                    delta.new_states.push(id);
                    delta.new_state_rows.push(vec![
                        Datum::Int(id as i64),
                        count,
                        materialized,
                        dirty,
                        Datum::Text(st.column_name.clone()),
                    ]);
                }
            }
        }
        delta
    }

    pub fn attribute_count(&self) -> usize {
        self.inner.read().by_id.len()
    }

    /// Is this table a registered Sinew collection (vs a raw RDBMS table)?
    pub fn is_collection(&self, table: &str) -> bool {
        self.inner.read().tables.contains_key(table)
    }
}

/// Physical column name for an attribute. Key names are used directly
/// unless they collide with the reservoir/rowid names or with a sibling of
/// another type (multi-typed keys get a type suffix).
fn physical_column_name(name: &str, ty: AttrType, siblings: &[(AttrId, AttrType)]) -> String {
    let base = if name == "data" || name == "_rowid" || name.starts_with("_sinew") {
        format!("k_{name}")
    } else {
        name.to_string()
    };
    if siblings.len() > 1 {
        format!("{base}\u{1}{}", ty.name())
    } else {
        base
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sinew_rdbms::Database;

    fn setup() -> (Database, Catalog) {
        let db = Database::in_memory();
        let cat = Catalog::load(&db, Default::default()).unwrap();
        cat.register_table(&db, "t").unwrap();
        (db, cat)
    }

    #[test]
    fn intern_is_idempotent_and_type_sensitive() {
        let (db, cat) = setup();
        let a = cat.intern("hits", AttrType::Int);
        let b = cat.intern("hits", AttrType::Int);
        let c = cat.intern("hits", AttrType::Text);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(cat.ids_for_name("hits").len(), 2);
        assert_eq!(cat.attr_info(a), Some(("hits".to_string(), AttrType::Int)));
        // ids only, until something commits
        let rows = |db: &Database| {
            db.execute("SELECT COUNT(*) FROM _sinew_attributes").unwrap().scalar().cloned()
        };
        assert_eq!(rows(&db), Some(Datum::Int(0)));
        cat.commit_with(&db, "t", &[]).unwrap();
        assert_eq!(rows(&db), Some(Datum::Int(2)));
        cat.commit_with(&db, "t", &[]).unwrap();
        assert_eq!(rows(&db), Some(Datum::Int(2)), "an empty delta writes nothing");
    }

    #[test]
    fn intern_durable_writes_every_unwritten_dictionary_row_once() {
        let (db, cat) = setup();
        let a = cat.intern("left_by_a_failed_load", AttrType::Int);
        let b = cat.intern_durable(&db, "set_by_update", AttrType::Text).unwrap();
        let r = db.execute("SELECT _id FROM _sinew_attributes ORDER BY _id").unwrap();
        assert_eq!(r.rows, vec![vec![Datum::Int(a as i64)], vec![Datum::Int(b as i64)]]);
        // an id that already has its row costs no write
        assert_eq!(cat.intern_durable(&db, "set_by_update", AttrType::Text).unwrap(), b);
        cat.commit_with(&db, "t", &[]).unwrap();
        assert_eq!(cat.metrics.snapshot().catalog_rows_written, 2);
        let r = db.execute("SELECT COUNT(*) FROM _sinew_attributes").unwrap();
        assert_eq!(r.scalar(), Some(&Datum::Int(2)));
    }

    #[test]
    fn counts_and_flags() {
        let (_db, cat) = setup();
        let id = cat.intern("url", AttrType::Text);
        cat.bump_count("t", id, 3);
        cat.bump_count("t", id, 2);
        let st = cat.column_state("t", id).unwrap();
        assert_eq!(st.count, 5);
        assert!(!st.materialized);
        cat.set_flags("t", id, true, true).unwrap();
        assert_eq!(cat.dirty_attrs("t"), vec![id]);
        cat.set_flags("t", id, true, false).unwrap();
        assert!(cat.dirty_attrs("t").is_empty());
    }

    #[test]
    fn mark_loaded_dirty_only_affects_materialized() {
        let (_db, cat) = setup();
        let a = cat.intern("a", AttrType::Int);
        let b = cat.intern("b", AttrType::Int);
        cat.bump_count("t", a, 1);
        cat.bump_count("t", b, 1);
        cat.set_flags("t", a, true, false).unwrap();
        cat.mark_loaded_dirty("t", &[a, b]);
        assert_eq!(cat.dirty_attrs("t"), vec![a]);
    }

    #[test]
    fn a_changed_state_rewrites_its_own_mirror_row() {
        let (db, cat) = setup();
        let x = cat.intern("x", AttrType::Float);
        let y = cat.intern("y", AttrType::Int);
        cat.bump_count("t", x, 7);
        cat.bump_count("t", y, 1);
        cat.commit_with(&db, "t", &[]).unwrap();
        let mirror = |db: &Database| {
            db.execute("SELECT _id, count, materialized, dirty FROM _sinew_cols_t ORDER BY _id")
                .unwrap()
                .rows
        };
        let row = |id: AttrId, count: i64, m: bool, d: bool| {
            vec![Datum::Int(id as i64), Datum::Int(count), Datum::Bool(m), Datum::Bool(d)]
        };
        assert_eq!(mirror(&db), vec![row(x, 7, false, false), row(y, 1, false, false)]);
        // one count and one flag move: two rows updated where they are, none added
        cat.bump_count("t", x, 1);
        cat.set_flags("t", y, true, true).unwrap();
        let written = cat.metrics.snapshot().catalog_rows_written;
        cat.commit_with(&db, "t", &[]).unwrap();
        assert_eq!(cat.metrics.snapshot().catalog_rows_written - written, 2);
        assert_eq!(mirror(&db), vec![row(x, 8, false, false), row(y, 1, true, true)]);
    }

    #[test]
    fn load_reads_back_what_was_committed() {
        let (db, cat) = setup();
        let a = cat.intern("a", AttrType::Int);
        let b = cat.intern("a", AttrType::Text);
        cat.bump_count("t", a, 4);
        cat.bump_count("t", b, 2);
        cat.set_flags("t", b, true, true).unwrap();
        cat.commit_with(&db, "t", &[]).unwrap();
        cat.intern("never_committed", AttrType::Bool);

        let back = Catalog::load(&db, Default::default()).unwrap();
        assert_eq!(back.attribute_count(), 2);
        assert_eq!(back.ids_for_name("a").len(), 2);
        assert_eq!(back.table_state("t"), cat.table_state("t"));
        assert!(back.is_collection("t"));
        // the reloaded cache knows where its rows are: a change is an update
        back.bump_count("t", a, 1);
        assert_eq!(back.intern("next", AttrType::Int), 2, "ids continue after the committed ones");
        back.commit_with(&db, "t", &[]).unwrap();
        let r = db.execute("SELECT COUNT(*) FROM _sinew_cols_t").unwrap();
        assert_eq!(r.scalar(), Some(&Datum::Int(2)));
        let r = db.execute("SELECT count FROM _sinew_cols_t WHERE _id = 0").unwrap();
        assert_eq!(r.scalar(), Some(&Datum::Int(5)));
    }

    #[test]
    fn epoch_moves_on_schema_change_only() {
        let (_db, cat) = setup();
        let e0 = cat.epoch();
        let id = cat.intern("hits", AttrType::Int);
        let e1 = cat.epoch();
        assert!(e1 > e0, "new attribute bumps the epoch");
        // re-interning an existing attribute is a pure read
        cat.intern("hits", AttrType::Int);
        assert_eq!(cat.epoch(), e1);
        cat.lookup("hits", AttrType::Int);
        cat.ids_for_name("hits");
        assert_eq!(cat.epoch(), e1, "lookups never bump");
        cat.bump_count("t", id, 1);
        let e2 = cat.epoch();
        assert!(e2 > e1, "new column state bumps");
        cat.bump_count("t", id, 1);
        assert_eq!(cat.epoch(), e2, "a count alone resolves no path differently");
        cat.set_flags("t", id, true, true).unwrap();
        let e3 = cat.epoch();
        assert!(e3 > e2, "flag flips bump");
        cat.set_flags("t", id, true, true).unwrap();
        cat.mark_loaded_dirty("t", &[id]);
        assert_eq!(cat.epoch(), e3, "flags that stay where they are do not");
    }

    #[test]
    fn column_name_collisions_resolved() {
        let (_db, cat) = setup();
        let d = cat.intern("data", AttrType::Text);
        cat.bump_count("t", d, 1);
        assert_eq!(cat.column_state("t", d).unwrap().column_name, "k_data");
        // multi-typed key: both names get a type suffix
        let i = cat.intern("dyn", AttrType::Int);
        let s = cat.intern("dyn", AttrType::Text);
        cat.bump_count("t", i, 1);
        cat.bump_count("t", s, 1);
        let ni = cat.column_state("t", i).unwrap().column_name;
        let ns = cat.column_state("t", s).unwrap().column_name;
        assert_ne!(ni, ns);
        assert!(ni.starts_with("dyn"));
    }
}
