//! The embedded database facade: DDL, DML, queries, EXPLAIN, ANALYZE,
//! UDF registration, and the row-level APIs Sinew's materializer uses.
//!
//! Everything Sinew needs is reachable through SQL + UDFs + these narrow
//! programmatic APIs; the Sinew layer never touches storage internals,
//! honouring the paper's "no changes to the RDBMS code" constraint (§3).

use crate::btree::SecondaryIndex;
use crate::columnar::{ColumnStore, ColumnarInfo, SegColumn, SEG_ROWS};
use crate::datum::{ColType, Datum, NULL};
use crate::error::{DbError, DbResult};
use crate::exec::{
    ExecLimits, ExecSnapshot, ExecStats, Executor, Row, SegScan,
};
use crate::expr::{bind, ColumnSource, EvalCtx, PhysExpr, Scope};
use crate::func::{FuncRegistry, ScalarFn};
use crate::heap::{Heap, PageTags, PageUse, RowId, Tagger};
use crate::keys::KeyFilter;
use crate::page::PAGE_SIZE;
use crate::pager::{IoSnapshot, Pager};
use crate::plan::{AccessPath, Plan};
use crate::planner::{CatalogView, PlannedQuery, Planner, PlannerConfig, TableMeta};
use crate::schema::TableSchema;
use crate::stats::{ColumnCollector, TableStats};
use crate::tuple;
use crate::txn::{TxnManager, Vis, WriteMode, WriteTicket, NO_END, TXN_BASE};
use crate::wal::{self, Wal, WalConfig};
use parking_lot::{Condvar, Mutex, RwLock};
use sinew_sql::Statement;
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Result of executing one statement.
#[derive(Debug, Default)]
pub struct QueryResult {
    pub columns: Vec<String>,
    pub rows: Vec<Row>,
    /// Rows affected by DML.
    pub affected: u64,
}

impl QueryResult {
    /// First column of the first row, convenient in tests.
    pub fn scalar(&self) -> Option<&Datum> {
        self.rows.first().and_then(|r| r.first())
    }
}

/// One write of a [`Database::write_unit`].
#[derive(Debug, Clone, Copy)]
pub enum RowWrite<'a> {
    /// Append `rows`, given over `cols` — `None` = every live column, in
    /// live order; columns a subset leaves out are NULL.
    Insert { table: &'a str, cols: Option<&'a [&'a str]>, rows: &'a [Vec<Datum>] },
    /// Assign named columns of the row `rowid`.
    Update { table: &'a str, rowid: RowId, assignments: &'a [(&'a str, Datum)] },
}

impl<'a> RowWrite<'a> {
    fn table(&self) -> &'a str {
        match *self {
            RowWrite::Insert { table, .. } | RowWrite::Update { table, .. } => table,
        }
    }
}

struct Table {
    schema: TableSchema,
    heap: Heap,
    /// Secondary indexes over live columns, maintained by every DML path.
    indexes: Vec<SecondaryIndex>,
    /// Columnar segment stores over promoted columns, maintained by every
    /// DML path alongside the indexes. The heap stays the source of truth;
    /// these are derived read-path accelerators.
    columnar: Vec<ColumnStore>,
    /// Deferred reclamation from Retain-mode writes, each stamped with the
    /// commit timestamp that superseded it. Vacuum drains items once every
    /// snapshot older than their timestamp has been released. While any
    /// garbage (or version chain) exists, index probes are distrusted and
    /// readers fall back to visibility-checked scans.
    garbage: Vec<GarbageItem>,
    /// Physical slot of the column the heap's page synopsis tags, if the
    /// table has the database's tagged column (DESIGN.md §32).
    tagged: Option<usize>,
}

struct GarbageItem {
    ts: u64,
    g: Garbage,
}

enum Garbage {
    /// Pop the oldest retained version off this row's chain.
    Chain(RowId),
    /// Physically free a retained (tombstoned) row.
    Row(RowId),
    /// Remove a superseded index entry.
    IndexEntry { column: String, key: Datum, rowid: RowId },
}

/// How a committed row change reaches a table's derived structures; chosen
/// by the snapshot registry through the statement's [`WriteTicket`].
#[derive(Clone, Copy)]
enum Publish {
    /// No snapshot can still read the old image: replace it in place.
    Eager,
    /// Live snapshots may read the old image until the vacuum horizon passes
    /// this commit timestamp: keep it reachable, queue its reclamation.
    Retain(u64),
}

impl Table {
    fn new(schema: TableSchema, heap: Heap) -> Table {
        Table {
            schema,
            heap,
            indexes: Vec::new(),
            columnar: Vec::new(),
            garbage: Vec::new(),
            tagged: None,
        }
    }

    /// Point the heap's page synopsis at the database's tagged column, a
    /// live `bytea` column of that name: rebuilt when the column's slot
    /// changed since the last call, or always with `rebuild`; dropped when
    /// the table has no such column.
    fn attach_tagger(&mut self, tagger: Option<&(String, Tagger)>, rebuild: bool) -> DbResult<()> {
        let slot = tagger.and_then(|(column, _)| {
            let slot = self.schema.index_of(column)?;
            (self.schema.columns[slot].ty == ColType::Bytea).then_some(slot)
        });
        if slot == self.tagged && !rebuild {
            return Ok(());
        }
        self.tagged = slot;
        let tuple_tagger = tagger.zip(slot).map(|((_, tag), slot)| {
            let tag = tag.clone();
            // Appended columns never move a slot, so these types stay right.
            let types: Vec<ColType> = self.schema.columns[..=slot].iter().map(|c| c.ty).collect();
            Arc::new(move |tuple: &[u8], sink: &mut dyn FnMut(u32)| {
                match tuple::raw_column(&types, tuple, slot) {
                    Ok(Some(value)) => tag(value, sink),
                    Ok(None) => true,
                    Err(_) => false,
                }
            }) as Tagger
        });
        self.heap.set_tagger(tuple_tagger)
    }

    /// Physical slots a row given over `cols` fills (`None` = every live
    /// column, in live order).
    fn slots_of(&self, cols: Option<&[&str]>) -> DbResult<Vec<usize>> {
        match cols {
            None => Ok(self.schema.live_columns().map(|(i, _)| i).collect()),
            Some(cols) => cols
                .iter()
                .map(|c| {
                    self.schema
                        .index_of(c)
                        .ok_or_else(|| DbError::NotFound(format!("column {c}")))
                })
                .collect(),
        }
    }

    /// The slots of the columns some index or columnar store is built
    /// over, each decoded in place: all of a physical row image that
    /// [`Table::apply_change`] reads.
    fn derived_slots(&self) -> SlotMap {
        let mut at = vec![None; self.schema.arity()];
        let columns = self.indexes.iter().map(|ix| ix.column());
        for column in columns.chain(self.columnar.iter().map(|cs| cs.column())) {
            if let Some(slot) = self.schema.index_of(column) {
                at[slot] = Some(slot);
            }
        }
        at
    }

    /// One live column's latest-committed values with their rowids, in
    /// rowid order — what an index or a columnar store is built from.
    fn column_values(&self, table: &str, column: &str) -> DbResult<Vec<(Datum, RowId)>> {
        let slot = self
            .schema
            .live_columns()
            .find(|(_, c)| c.name == column)
            .map(|(i, _)| i)
            .ok_or_else(|| DbError::NotFound(format!("column {column} in {table}")))?;
        let mut at = vec![None; slot + 1];
        at[slot] = Some(0);
        let mut values = Vec::new();
        let mut value = [Datum::Null];
        self.heap.scan(|rowid, bytes| {
            tuple::decode_into(&self.schema, bytes, &at, &mut value)?;
            values.push((std::mem::replace(&mut value[0], Datum::Null), rowid));
            Ok(true)
        })?;
        Ok(values)
    }

    /// Column stores hold latest-committed data plus insert tags and a
    /// rebuild floor. A reader older than the floor, or newer than a
    /// not-yet-applied pending op, cannot use them; neither can a
    /// transaction whose own heap writes are absent from the store.
    fn columnar_usable(&self, vis: Vis) -> bool {
        if vis.marker != 0 && self.heap.needs_vis() {
            return false;
        }
        self.columnar.iter().all(|cs| cs.usable_for(vis.read_ts))
    }

    /// Build the full physical image of one inserted row (values coerced to
    /// their column types, unnamed slots NULL) and place it in the heap.
    fn place_row(&mut self, slots: &[usize], row: &[Datum]) -> DbResult<(RowId, Vec<Datum>)> {
        if row.len() != slots.len() {
            return Err(DbError::Schema(format!(
                "expected {} values, got {}",
                slots.len(),
                row.len()
            )));
        }
        let mut full = vec![Datum::Null; self.schema.arity()];
        for (value, &slot) in row.iter().zip(slots) {
            full[slot] = coerce_for_column(value, self.schema.columns[slot].ty)?;
        }
        let bytes = tuple::encode_tuple(&self.schema, &full)?;
        Ok((self.heap.insert(&bytes)?, full))
    }

    /// The row-change primitive (DESIGN.md, "Row-change primitive"): the heap
    /// already holds the committed change of `rowid` from physical image
    /// `old` to `new` (`None` = the row does not exist on that side); bring
    /// every index, every columnar store and the version garbage in line.
    /// Insert is `(None, new)`, delete `(old, None)`, update `(old, new)`;
    /// an index key or store value that did not change is not touched.
    fn apply_change(
        &mut self,
        rowid: RowId,
        old: Option<&[Datum]>,
        new: Option<&[Datum]>,
        publish: Publish,
        stats: &ExecStats,
    ) -> DbResult<()> {
        // Heap versions this commit superseded: queued behind the horizon,
        // or freed now when no snapshot can reach them.
        match publish {
            Publish::Retain(ts) => {
                if self.heap.superseded_at(rowid, ts) {
                    self.garbage.push(GarbageItem { ts, g: Garbage::Chain(rowid) });
                }
                if old.is_some() && new.is_none() {
                    self.garbage.push(GarbageItem { ts, g: Garbage::Row(rowid) });
                }
            }
            Publish::Eager => {
                let mut freed = 0u64;
                while self.heap.vacuum_chain_tail(rowid, u64::MAX)? {
                    freed += 1;
                }
                if new.is_none() {
                    self.heap.physical_delete_retained(rowid)?;
                }
                if freed > 0 {
                    stats.versions_vacuumed.add(freed);
                }
            }
        }

        // Indexes hold non-NULL keys only, so a missing image is an all-NULL
        // one here.
        let mut ops = 0u64;
        for ix in &mut self.indexes {
            let Some(slot) = self.schema.index_of(ix.column()) else { continue };
            let old_key = old.map_or(&Datum::Null, |r| &r[slot]);
            let new_key = new.map_or(&Datum::Null, |r| &r[slot]);
            if old_key.total_cmp(new_key).is_eq() {
                continue;
            }
            if !old_key.is_null() {
                match publish {
                    // Snapshot readers may still probe the old key.
                    Publish::Retain(ts) => self.garbage.push(GarbageItem {
                        ts,
                        g: Garbage::IndexEntry {
                            column: ix.column().to_string(),
                            key: old_key.clone(),
                            rowid,
                        },
                    }),
                    Publish::Eager => {
                        ix.remove(old_key, rowid)?;
                        ops += 1;
                    }
                }
            }
            if !new_key.is_null() {
                if !ix.insert(new_key, rowid)? {
                    // The entry is still there because an earlier commit
                    // queued its removal: the row has that key again, so the
                    // queued removal must not run.
                    self.garbage.retain(|item| match &item.g {
                        Garbage::IndexEntry { column, key, rowid: r } => {
                            *r != rowid || column != ix.column() || key.total_cmp(new_key).is_ne()
                        }
                        _ => true,
                    });
                }
                ops += 1;
            }
        }
        if ops > 0 {
            stats.index_maintenance_ops.add(ops);
        }

        for cs in &mut self.columnar {
            let slot = self.schema.index_of(cs.column());
            let value = |row: &[Datum]| slot.map_or(Datum::Null, |i| row[i].clone());
            if let (Some(o), Some(n), Some(i)) = (old, new, slot) {
                if o[i].identical(&n[i]) {
                    continue;
                }
            }
            match (old, new, publish) {
                (None, Some(n), Publish::Eager) => cs.append(rowid, value(n)),
                (None, Some(n), Publish::Retain(ts)) => cs.append_tagged(rowid, value(n), ts),
                (Some(_), Some(n), Publish::Eager) => cs.set(rowid, value(n)),
                (Some(_), Some(n), Publish::Retain(ts)) => cs.pending_set(rowid, value(n), ts),
                (Some(_), None, Publish::Eager) => cs.delete(rowid),
                (Some(_), None, Publish::Retain(ts)) => cs.pending_delete(rowid, ts),
                (None, None, _) => {}
            }
        }
        Ok(())
    }
}

/// Observability summary of one secondary index.
#[derive(Debug, Clone)]
pub struct IndexInfo {
    pub name: String,
    pub column: String,
    pub key_count: u64,
    pub pages: u64,
    pub bytes: u64,
}

/// The plan epoch (DESIGN.md §23): one counter over everything a prepared
/// statement was derived from except row and page counts — schemas, indexes,
/// column stores, statistics, planner configuration, functions, and above
/// the engine Sinew's catalog. Whoever changes such state bumps it once the
/// change is visible, and before anything that depends on the change
/// commits. Clones share the one counter.
#[derive(Clone, Default)]
pub struct PlanEpoch(Arc<AtomicU64>);

impl PlanEpoch {
    /// Acquire, pairing with the release of [`PlanEpoch::bump`]: a reader
    /// that sees a bump also sees the change made before it.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Acquire)
    }

    pub fn bump(&self) {
        self.0.fetch_add(1, Ordering::AcqRel);
    }
}

/// A statement made ready to run many times (DESIGN.md §23): for a
/// `SELECT`, or `EXPLAIN` of one, its plan and output columns; for an
/// `UPDATE` or `DELETE` its row-finding scan and bound assignments; for
/// anything else the statement itself. Running it ([`Database::run`],
/// [`Session::run`]) first fixes what the statement may see, then checks the
/// stamps it was built under, and re-prepares it in place if one is stale.
pub struct Prepared {
    current: RwLock<Arc<Bound>>,
}

impl Prepared {
    /// The statement as currently prepared.
    pub fn statement(&self) -> Statement {
        self.current().stmt.clone()
    }

    /// Whether the statement runs a plan — a `SELECT`, `EXPLAIN`, `UPDATE`
    /// or `DELETE` — rather than straight from its text.
    pub fn has_plan(&self) -> bool {
        !matches!(self.current.read().action, Action::Other)
    }

    fn current(&self) -> Arc<Bound> {
        self.current.read().clone()
    }
}

/// One preparation of a statement and the stamps it is valid under.
struct Bound {
    stmt: Statement,
    action: Action,
    /// The plan epoch, read before the statement was derived or planned.
    epoch: u64,
    /// Every table the planner sized, with the size it planned for.
    sizes: Vec<TableSize>,
}

enum Action {
    Select(PlannedQuery),
    Explain {
        analyze: bool,
        planned: PlannedQuery,
    },
    Update {
        scan: ModifyScan,
        assignments: Vec<(String, PhysExpr)>,
    },
    Delete(ModifyScan),
    /// Runs from the statement: DDL, `INSERT`, `ANALYZE`, `BEGIN`/`COMMIT`/`ROLLBACK`.
    Other,
}

/// The row-finding half of an `UPDATE` or `DELETE`.
struct ModifyScan {
    table: String,
    plan: Plan,
    /// Where the scan row carries the rowid.
    rowid_slot: usize,
}

impl ModifyScan {
    fn plan(
        planner: &Planner<'_>,
        table: &str,
        filter: Option<&sinew_sql::Expr>,
    ) -> DbResult<(ModifyScan, Scope)> {
        let (plan, scope) = planner.plan_modify_scan(table, filter)?;
        let scan = ModifyScan { table: table.to_string(), plan, rowid_slot: scope.len() - 1 };
        Ok((scan, scope))
    }

    /// The rowid a scan row carries.
    fn rowid(&self, row: &[Datum]) -> DbResult<RowId> {
        match row[self.rowid_slot] {
            Datum::Int(rowid) => Ok(rowid as RowId),
            _ => Err(DbError::Eval("scan did not produce a rowid".into())),
        }
    }
}

/// How a caller derives the statement it prepares from state above the
/// engine. Called on every preparation, after the plan epoch is read.
pub type Derive<'a> = &'a dyn Fn() -> DbResult<Statement>;

/// A table's size class as the planner read it.
struct TableSize {
    table: String,
    class: (u32, u32),
}

/// The bit length (⌊log₂⌋ + 1, 0 for none) of a table's live rows and of its
/// pages: a plan is made again when either moves.
fn size_class(rows: u64, pages: u64) -> (u32, u32) {
    let bits = |n: u64| u64::BITS - n.leading_zeros();
    (bits(rows), bits(pages))
}

/// The planner's view of a database, noting the size class of every table
/// the planner reads.
struct Sizing<'a> {
    db: &'a Database,
    sizes: RefCell<Vec<TableSize>>,
}

impl CatalogView for Sizing<'_> {
    fn table_meta(&self, name: &str) -> DbResult<TableMeta> {
        let meta = self.db.table_meta(name)?;
        let mut sizes = self.sizes.borrow_mut();
        if !sizes.iter().any(|s| s.table == name) {
            let class = size_class(meta.n_rows as u64, meta.n_pages as u64);
            sizes.push(TableSize { table: name.to_string(), class });
        }
        Ok(meta)
    }

    fn table_stats(&self, name: &str) -> Option<TableStats> {
        self.db.table_stats(name)
    }

    fn indexed_columns(&self, name: &str) -> Vec<String> {
        self.db.indexed_columns(name)
    }

    fn columnar_columns(&self, name: &str) -> Vec<String> {
        self.db.columnar_columns(name)
    }
}

/// The embedded relational database.
pub struct Database {
    pager: Arc<Pager>,
    tables: RwLock<HashMap<String, Arc<RwLock<Table>>>>,
    funcs: FuncRegistry,
    stats: RwLock<HashMap<String, TableStats>>,
    planner_config: RwLock<PlannerConfig>,
    limits: RwLock<ExecLimits>,
    /// Shared with the write-ahead log, which feeds the `wal` rows.
    exec_stats: Arc<ExecStats>,
    /// Write-ahead log (file-backed databases opened with
    /// [`WalConfig::enabled`]).
    wal: Option<Arc<Wal>>,
    /// Statement write token: serializes mutating *commit units*. An
    /// autocommit statement holds it from before it reads the rows it will
    /// change until it has changed them, so no other writer's commit falls
    /// between its read and its write, and so each WAL commit record's
    /// captured page images belong to exactly one unit. A transaction holds
    /// it for its COMMIT; on a logged database, whose page images must not
    /// leak into another unit's record, from its first write until
    /// COMMIT/ROLLBACK (a plain scoped mutex cannot span statements, hence
    /// an owner + condvar). `None` = free.
    write_owner: Mutex<Option<TokenOwner>>,
    write_owner_cv: Condvar,
    /// MVCC transaction manager: commit timestamps + snapshot registry.
    manager: TxnManager,
    plan_epoch: PlanEpoch,
    /// The tagged column's name and its tagger (DESIGN.md §32).
    tagger: RwLock<Option<(String, Tagger)>>,
}

/// Who holds the statement write token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TokenOwner {
    /// An autocommit unit (statement, DDL, checkpoint, vacuum pass) running
    /// on this thread.
    Stmt(std::thread::ThreadId),
    /// The transaction with this marker.
    Txn(u64),
}

impl Database {
    /// Fully in-memory database (tests, small experiments).
    pub fn in_memory() -> Database {
        Database::with_pager(Pager::in_memory())
    }

    /// The transaction manager (tests / metrics overlays).
    pub fn txn_manager(&self) -> &TxnManager {
        &self.manager
    }

    /// File-backed database with an LRU buffer pool of `pool_pages` 8 KiB
    /// frames, optionally with simulated per-miss I/O latency.
    ///
    /// An existing log at `<path>.wal` is recovered — committed statements
    /// are replayed, the torn tail is discarded — and a fresh log is
    /// started.
    pub fn open(path: &Path, pool_pages: usize, io_delay: Option<Duration>) -> DbResult<Database> {
        Database::open_with_wal(path, pool_pages, io_delay, WalConfig::default())
    }

    /// [`Database::open`] with an explicit WAL configuration. With
    /// `enabled: false` there is no log and no recovery: the data file is
    /// a scratch file, truncated on open.
    pub fn open_with_wal(
        path: &Path,
        pool_pages: usize,
        io_delay: Option<Duration>,
        cfg: WalConfig,
    ) -> DbResult<Database> {
        if !cfg.enabled {
            let mut pager = Pager::open(path, pool_pages)?;
            if let Some(d) = io_delay {
                pager = pager.with_io_delay(d);
            }
            return Ok(Database::with_pager(pager));
        }
        let wal_path = wal_path_for(path);
        match Wal::read(&wal_path)? {
            Some(contents) => {
                Database::recover(path, &wal_path, pool_pages, io_delay, cfg, contents)
            }
            None => {
                // No (valid) log. A fresh database starts here — but a
                // *non-empty* data file whose log is missing or invalid
                // means the log was lost (deleted, torn at creation,
                // never made durable): truncating the data file now
                // would silently destroy fully-synced committed data.
                // Fail loudly instead.
                if std::fs::metadata(path).map(|m| m.len() > 0).unwrap_or(false) {
                    return Err(DbError::Io(format!(
                        "wal: data file {} is non-empty but its log {} is missing or \
                         invalid; refusing to truncate (delete the data file to start \
                         fresh, or open it with `WalConfig {{ enabled: false, .. }}`)",
                        path.display(),
                        wal_path.display()
                    )));
                }
                let mut pager = Pager::open(path, pool_pages)?.with_wal_mode(true);
                if let Some(d) = io_delay {
                    pager = pager.with_io_delay(d);
                }
                let mut db = Database::with_pager(pager);
                let snapshot = db.wal_snapshot();
                let wal =
                    Arc::new(Wal::create(&wal_path, cfg, &snapshot, db.exec_stats.clone())?);
                db.pager.set_wal(wal.clone());
                db.wal = Some(wal);
                Ok(db)
            }
        }
    }

    fn with_pager(pager: Pager) -> Database {
        Database {
            pager: Arc::new(pager),
            tables: RwLock::new(HashMap::new()),
            funcs: FuncRegistry::new(),
            stats: RwLock::new(HashMap::new()),
            planner_config: RwLock::new(PlannerConfig::default()),
            limits: RwLock::new(ExecLimits::default()),
            exec_stats: Arc::default(),
            wal: None,
            write_owner: Mutex::new(None),
            write_owner_cv: Condvar::new(),
            manager: TxnManager::new(),
            plan_epoch: PlanEpoch::default(),
            tagger: RwLock::new(None),
        }
    }

    /// Rebuild the database from the data file plus the log's committed
    /// history: write committed page images into the data file, replay
    /// metadata (checkpoint snapshot, then per-commit deltas), rebuild
    /// derived structures (B-tree indexes, columnar stores) from the
    /// recovered heaps, and start a fresh log from a new checkpoint.
    fn recover(
        path: &Path,
        wal_path: &Path,
        pool_pages: usize,
        io_delay: Option<Duration>,
        cfg: WalConfig,
        contents: wal::WalContents,
    ) -> DbResult<Database> {
        struct RecTable {
            schema: TableSchema,
            index_defs: Vec<(String, String)>,
            columnar_cols: Vec<String>,
            /// Heap directory records in log order: the checkpoint's full
            /// snapshot (if the table predates it) then each commit's delta.
            heap_chunks: Vec<Vec<u8>>,
        }
        type TableMeta = (TableSchema, Vec<(String, String)>, Vec<String>, Vec<u8>);
        fn read_table_meta(r: &mut wal::Reader) -> DbResult<TableMeta> {
            let schema = TableSchema::wal_decode(r)?;
            let n_idx = r.u32()? as usize;
            let mut index_defs = Vec::with_capacity(n_idx);
            for _ in 0..n_idx {
                let name = r.str()?.to_string();
                let column = r.str()?.to_string();
                index_defs.push((name, column));
            }
            let n_cs = r.u32()? as usize;
            let mut columnar_cols = Vec::with_capacity(n_cs);
            for _ in 0..n_cs {
                columnar_cols.push(r.str()?.to_string());
            }
            let heap_bytes = r.bytes()?.to_vec();
            Ok((schema, index_defs, columnar_cols, heap_bytes))
        }

        // Phase 1: metadata — checkpoint snapshot, then commit deltas.
        let mut tables: std::collections::BTreeMap<String, RecTable> = Default::default();
        let mut r = wal::Reader::new(&contents.checkpoint);
        let mut n_pages = r.u64()?;
        let n_tables = r.u32()? as usize;
        for _ in 0..n_tables {
            let name = r.str()?.to_string();
            let (schema, index_defs, columnar_cols, heap_bytes) = read_table_meta(&mut r)?;
            tables.insert(
                name,
                RecTable { schema, index_defs, columnar_cols, heap_chunks: vec![heap_bytes] },
            );
        }
        let mut max_commit_ts = 0u64;
        for commit in &contents.commits {
            let mut r = wal::Reader::new(&commit.meta);
            n_pages = r.u64()?;
            // Commit timestamp (MVCC version horizon); a transaction's
            // record carries one op per touched table, so ops loop.
            max_commit_ts = max_commit_ts.max(r.u64()?);
            while !r.is_empty() {
                match r.u8()? {
                    WAL_OP_TABLE => {
                        let name = r.str()?.to_string();
                        let (schema, index_defs, columnar_cols, heap_bytes) =
                            read_table_meta(&mut r)?;
                        let entry = tables.entry(name).or_insert_with(|| RecTable {
                            schema: TableSchema::default(),
                            index_defs: Vec::new(),
                            columnar_cols: Vec::new(),
                            heap_chunks: Vec::new(),
                        });
                        entry.schema = schema;
                        entry.index_defs = index_defs;
                        entry.columnar_cols = columnar_cols;
                        entry.heap_chunks.push(heap_bytes);
                    }
                    WAL_OP_DROP => {
                        let name = r.str()?.to_string();
                        tables.remove(&name);
                    }
                    op => return Err(DbError::Io(format!("wal: unknown commit op {op}"))),
                }
            }
        }

        // Phase 2: data file — committed page images, in log order (later
        // statements overwrite earlier images of the same page).
        let mut recovered_pages = 0u64;
        {
            use std::io::{Seek, SeekFrom, Write};
            let mut file = std::fs::OpenOptions::new()
                .read(true)
                .write(true)
                .create(true)
                .truncate(false)
                .open(path)?;
            for commit in &contents.commits {
                for (id, image) in &commit.pages {
                    file.seek(SeekFrom::Start(id * crate::page::PAGE_SIZE as u64))?;
                    file.write_all(image)?;
                    recovered_pages += 1;
                }
            }
            let want = n_pages * crate::page::PAGE_SIZE as u64;
            if file.metadata()?.len() < want {
                file.set_len(want)?;
            }
            file.sync_all()?;
        }

        // Phase 3: reconstruct tables over the recovered data file, then
        // rebuild derived structures from the heaps (their pages are
        // unlogged; the heap is the source of truth).
        let mut pager = Pager::open_existing(path, pool_pages, n_pages)?.with_wal_mode(true);
        if let Some(d) = io_delay {
            pager = pager.with_io_delay(d);
        }
        let mut db = Database::with_pager(pager);
        type Rebuild = (String, Vec<(String, String)>, Vec<String>);
        let mut rebuilds: Vec<Rebuild> = Vec::new();
        for (name, rec) in tables {
            let mut heap = Heap::new(db.pager.clone(), db.exec_stats.clone());
            for chunk in &rec.heap_chunks {
                heap.wal_apply(&mut wal::Reader::new(chunk))?;
            }
            // The log encodes only the committed view: every recovered row
            // is committed, uncommitted versions are gone. Reset version
            // state accordingly (all rows committed at timestamp 0).
            heap.reset_versions()?;
            heap.set_wal_track(true);
            db.tables.write().insert(
                name.clone(),
                Arc::new(RwLock::new(Table::new(rec.schema, heap))),
            );
            rebuilds.push((name, rec.index_defs, rec.columnar_cols));
        }
        // Fast-forward the commit clock past every recovered timestamp so
        // post-recovery commits stay monotone against the logged history.
        db.manager.seed(max_commit_ts);
        for (name, index_defs, columnar_cols) in rebuilds {
            for (iname, column) in index_defs {
                db.create_index(&name, &iname, &column, true)?;
            }
            for column in columnar_cols {
                db.build_columnar(&name, &column)?;
            }
        }

        // Phase 4: fresh log seeded from the recovered state.
        // `Wal::create` replaces the old log atomically (temp + rename +
        // dir fsync): a crash anywhere in this phase leaves the old log
        // intact and the next open simply recovers again — recovery
        // itself is re-runnable under kill -9.
        let snapshot = db.wal_snapshot();
        let new_wal = Arc::new(Wal::create(wal_path, cfg, &snapshot, db.exec_stats.clone())?);
        db.exec_stats.wal_recoveries.inc();
        db.exec_stats.wal_recovered_pages.add(recovered_pages);
        db.pager.set_wal(new_wal.clone());
        db.wal = Some(new_wal);
        Ok(db)
    }


    // ---- write-ahead log plumbing ----

    /// Block until the write token is free, then take it for `owner`.
    /// Returns `false`, taking nothing, when `owner` already holds it.
    fn token_acquire(&self, owner: TokenOwner) -> bool {
        let mut o = self.write_owner.lock();
        if *o == Some(owner) {
            return false;
        }
        while o.is_some() {
            o = self.write_owner_cv.wait(o);
        }
        *o = Some(owner);
        true
    }

    fn token_release(&self, owner: TokenOwner) {
        let mut o = self.write_owner.lock();
        debug_assert_eq!(*o, Some(owner));
        *o = None;
        drop(o);
        self.write_owner_cv.notify_all();
    }

    /// Statement-serialization guard, held across every mutating unit: no
    /// other unit commits between what this one reads and what it writes,
    /// and on a logged database the pager's uncommitted-image set belongs
    /// to exactly one unit at its commit point. Re-entrant on the holding
    /// thread — a UDF that writes catalog rows while its UPDATE evaluates
    /// `SET` expressions runs its unit inside the statement's; the
    /// outermost guard releases. Sinew's catalog takes it around a flush
    /// ahead of its own latches, so the order is the token first everywhere.
    pub fn write_guard(&self) -> WriteToken<'_> {
        let owner = TokenOwner::Stmt(std::thread::current().id());
        WriteToken { db: self, held: self.token_acquire(owner).then_some(owner) }
    }

    /// A writing transaction on a logged database takes the token at its
    /// *first* write and keeps it until COMMIT/ROLLBACK (its page images
    /// must not leak into another unit's commit record). Re-entrant across
    /// the transaction's own statements.
    fn txn_wal_enter(&self, txn: &mut Txn) {
        if self.wal.is_some() {
            self.txn_token_enter(txn);
        }
    }

    fn txn_token_enter(&self, txn: &mut Txn) {
        if !txn.holds_token {
            self.token_acquire(TokenOwner::Txn(txn.marker));
            txn.holds_token = true;
        }
    }

    /// Allocate a commit timestamp for one autocommit statement (or DDL).
    /// The returned guard publishes it on drop, even on error paths, so
    /// later timestamps are never blocked from becoming visible.
    fn begin_stmt_write(&self) -> (crate::txn::WriteTicket, TicketGuard<'_>) {
        let tk = self.manager.start_write();
        (tk, TicketGuard { mgr: &self.manager, ts: tk.ts })
    }

    /// How the holder of `tk` publishes its row changes.
    fn publish(tk: WriteTicket) -> Publish {
        match tk.mode {
            WriteMode::Retain => Publish::Retain(tk.ts),
            WriteMode::Eager => Publish::Eager,
        }
    }

    fn wal_enabled(&self) -> bool {
        self.wal.is_some()
    }

    /// Commit one unit against `tables` (still holding their write locks):
    /// drain the pager's uncommitted page images and each heap's directory
    /// delta, snapshot each table's schema/index/columnar definitions, and
    /// append it all to the log as one commit record.
    fn wal_commit_tables(&self, tables: &mut [(&str, &mut Table)], ts: u64) -> DbResult<()> {
        if !self.wal_enabled() {
            return Ok(());
        }
        let mut ops = Vec::new();
        for (name, t) in tables.iter_mut() {
            Self::wal_table_op(&mut ops, name, t);
        }
        self.wal_commit_record(ts, &ops)
    }

    /// [`Database::wal_commit_tables`] for a statement on one table (DDL).
    fn wal_commit_table(&self, name: &str, t: &mut Table, ts: u64) -> DbResult<()> {
        self.wal_commit_tables(&mut [(name, t)], ts)
    }

    /// The one producer of commit records: header (page count, commit
    /// timestamp), then `ops`, logged together with every page image
    /// dirtied since the previous record.
    fn wal_commit_record(&self, ts: u64, ops: &[u8]) -> DbResult<()> {
        let Some(w) = &self.wal else { return Ok(()) };
        let mut meta = Vec::with_capacity(16 + ops.len());
        wal::put_u64(&mut meta, self.pager.n_pages());
        wal::put_u64(&mut meta, ts);
        meta.extend_from_slice(ops);
        let pages = self.pager.take_uncommitted_images();
        w.commit(&pages, &meta)?;
        // A unit bigger than the pool overflowed it (no-steal pins); now
        // that the images are logged, evict back down to capacity.
        self.pager.shrink_to_capacity()
    }

    /// Append one table's metadata op (schema, index/columnar defs, heap
    /// directory delta) to a commit record body. A transaction's commit
    /// appends one op per touched table into a *single* record, so a crash
    /// can never surface half a transaction.
    fn wal_table_op(meta: &mut Vec<u8>, name: &str, t: &mut Table) {
        meta.push(WAL_OP_TABLE);
        wal::put_str(meta, name);
        t.schema.wal_encode(meta);
        wal::put_u32(meta, t.indexes.len() as u32);
        for ix in &t.indexes {
            wal::put_str(meta, ix.name());
            wal::put_str(meta, ix.column());
        }
        wal::put_u32(meta, t.columnar.len() as u32);
        for cs in &t.columnar {
            wal::put_str(meta, cs.column());
        }
        let mut heap_bytes = Vec::new();
        t.heap.wal_drain_delta(&mut heap_bytes);
        wal::put_bytes(meta, &heap_bytes);
    }

    /// Finish a mutating unit over `tables` whose body may have errored
    /// mid-way. A failed unit is *not* rolled back — the rows it already
    /// touched are real in memory — so its page images and heap deltas
    /// must still reach the log as this unit's own commit record.
    /// Left uncommitted, they would be silently folded into the NEXT
    /// unit's commit record (possibly for a different table) and
    /// their no-steal pins would hold the pool over capacity until then.
    /// A unit that failed before touching anything appends nothing.
    /// The unit's own error wins over a commit error.
    fn wal_finish_statement<R>(
        &self,
        tables: &mut [(&str, &mut Table)],
        res: DbResult<R>,
        ts: u64,
    ) -> DbResult<R> {
        if res.is_err()
            && !self.pager.has_uncommitted()
            && !tables.iter().any(|(_, t)| t.heap.wal_has_delta())
        {
            return res;
        }
        match self.wal_commit_tables(tables, ts) {
            Ok(()) => res,
            Err(commit_err) => res.and(Err(commit_err)),
        }
    }

    /// Commit a DROP TABLE statement.
    fn wal_commit_drop(&self, name: &str, ts: u64) -> DbResult<()> {
        let mut ops = vec![WAL_OP_DROP];
        wal::put_str(&mut ops, name);
        self.wal_commit_record(ts, &ops)
    }

    /// Full-metadata snapshot for checkpoint records: global page count
    /// plus every table's schema, index/columnar definitions, and full
    /// heap directory. Tables in sorted order for determinism.
    fn wal_snapshot(&self) -> Vec<u8> {
        let mut out = Vec::new();
        wal::put_u64(&mut out, self.pager.n_pages());
        let tables = self.tables.read();
        let mut names: Vec<&String> = tables.keys().collect();
        names.sort();
        wal::put_u32(&mut out, names.len() as u32);
        for name in names {
            let t = tables[name.as_str()].read();
            wal::put_str(&mut out, name);
            t.schema.wal_encode(&mut out);
            wal::put_u32(&mut out, t.indexes.len() as u32);
            for ix in &t.indexes {
                wal::put_str(&mut out, ix.name());
                wal::put_str(&mut out, ix.column());
            }
            wal::put_u32(&mut out, t.columnar.len() as u32);
            for cs in &t.columnar {
                wal::put_str(&mut out, cs.column());
            }
            let mut heap_bytes = Vec::new();
            t.heap.wal_encode_full(&mut heap_bytes);
            wal::put_bytes(&mut out, &heap_bytes);
        }
        out
    }

    /// Checkpoint: flush + fsync the data file, then atomically restart
    /// the log from a fresh full-metadata snapshot. After this the old
    /// log history is unnecessary (every committed page image is in the
    /// data file) and the log is at its minimum size.
    pub fn checkpoint(&self) -> DbResult<()> {
        let _g = self.write_guard();
        self.checkpoint_locked()
    }

    fn checkpoint_locked(&self) -> DbResult<()> {
        let Some(w) = &self.wal else { return Ok(()) };
        w.sync()?;
        self.pager.flush_and_sync()?;
        let snapshot = self.wal_snapshot();
        w.reset_with_checkpoint(&snapshot)
    }

    /// Auto-checkpoint once the log outgrows its configured bound.
    /// Callers must hold the write guard (and no table locks).
    fn wal_maybe_checkpoint(&self) -> DbResult<()> {
        let Some(w) = &self.wal else { return Ok(()) };
        if w.bytes() > w.config().checkpoint_bytes {
            self.checkpoint_locked()?;
        }
        Ok(())
    }

    /// Handle to one table's lock (map lock held only momentarily, so
    /// long scans of one table never block DDL or writes on another —
    /// and UDFs that write catalog tables mid-scan cannot deadlock).
    fn table(&self, name: &str) -> DbResult<Arc<RwLock<Table>>> {
        self.tables
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| DbError::NotFound(format!("table {name}")))
    }

    // ---- configuration ----

    pub fn set_planner_config(&self, config: PlannerConfig) {
        *self.planner_config.write() = config;
        self.plan_epoch.bump();
    }

    pub fn planner_config(&self) -> PlannerConfig {
        self.planner_config.read().clone()
    }

    pub fn set_exec_limits(&self, limits: ExecLimits) {
        *self.limits.write() = limits;
    }

    /// Register a user-defined scalar function (paper §5).
    pub fn register_udf(&self, name: &str, f: Arc<dyn ScalarFn>) {
        self.funcs.register(name, f);
        self.plan_epoch.bump();
    }

    /// Tag the values of every table's `column` (a `bytea` column of that
    /// name) with `tagger`, replacing any tagger registered before: each
    /// such table's heap rebuilds its page synopsis from its pages now and
    /// keeps it as rows are placed, so a scan whose expressions claim tags
    /// of that column ([`ScalarFn::null_tags`]) answers the pages that hold
    /// none of them without reading them (DESIGN.md §32, §33). Nothing is
    /// logged; a reopened database has no tagger until one is registered
    /// again.
    pub fn register_tagger(&self, column: &str, tagger: Tagger) -> DbResult<()> {
        let _g = self.write_guard();
        let tagger = Some((column.to_string(), tagger));
        *self.tagger.write() = tagger.clone();
        let tables: Vec<_> = self.tables.read().values().cloned().collect();
        for t in tables {
            t.write().attach_tagger(tagger.as_ref(), true)?;
        }
        Ok(())
    }

    /// Bytes `table`'s page synopsis holds in memory (0 without a tagged
    /// column).
    pub fn table_synopsis_bytes(&self, table: &str) -> DbResult<u64> {
        Ok(self.table(table)?.read().heap.synopsis_bytes())
    }

    /// Register a UDF and declare it *pure* — deterministic and
    /// side-effect free, so the planner may memoize repeated calls within
    /// a row (the scan pipeline's common-subexpression elimination).
    pub fn register_udf_pure(&self, name: &str, f: Arc<dyn ScalarFn>) {
        self.funcs.register_pure(name, f);
        self.plan_epoch.bump();
    }

    /// The plan epoch every [`Prepared`] of this database is checked
    /// against; Sinew's catalog bumps it too.
    pub fn plan_epoch(&self) -> &PlanEpoch {
        &self.plan_epoch
    }

    /// The engine's counter table at this instant, with the overlay rows
    /// (owned by the transaction manager) filled in.
    pub fn exec_stats(&self) -> ExecSnapshot {
        let mut snap = self.exec_stats.snapshot();
        snap.oldest_snapshot_age_ms = self.manager.oldest_snapshot_age_ms();
        snap.live_snapshots = self.manager.live_snapshots();
        snap
    }

    pub fn functions(&self) -> &FuncRegistry {
        &self.funcs
    }

    pub fn io_stats(&self) -> IoSnapshot {
        self.pager.stats()
    }

    pub fn reset_io_stats(&self) {
        self.pager.reset_stats();
    }

    /// Flush dirty pages and drop the cache — cold-cache benchmarking.
    pub fn drop_caches(&self) -> DbResult<()> {
        self.pager.evict_all()
    }

    /// Total database size in bytes (all tables).
    pub fn size_bytes(&self) -> u64 {
        self.pager.size_bytes()
    }

    pub fn table_size_bytes(&self, table: &str) -> DbResult<u64> {
        let t = self.table(table)?;
        let t = t.read();
        Ok(t.heap.bytes_used())
    }

    /// `table`'s heap data pages, and how many of them are on its free
    /// list (DESIGN.md §34).
    pub fn table_data_pages(&self, table: &str) -> DbResult<(u64, u64)> {
        Ok(self.table(table)?.read().heap.data_pages())
    }

    /// Live tuple payload bytes of one table — page and dead-tuple
    /// overhead excluded (the post-VACUUM figure used for cross-system
    /// size comparisons).
    pub fn table_live_bytes(&self, table: &str) -> DbResult<u64> {
        let t = self.table(table)?;
        let t = t.read();
        t.heap.live_bytes()
    }

    // ---- DDL ----

    pub fn create_table(&self, name: &str, cols: Vec<(String, ColType)>) -> DbResult<()> {
        let _g = self.write_guard();
        let arc = {
            let mut tables = self.tables.write();
            if tables.contains_key(name) {
                return Err(DbError::Schema(format!("table {name} already exists")));
            }
            {
                let mut seen = std::collections::HashSet::new();
                for (c, _) in &cols {
                    if !seen.insert(c.clone()) {
                        return Err(DbError::Schema(format!("duplicate column {c}")));
                    }
                }
            }
            let mut heap = Heap::new(self.pager.clone(), self.exec_stats.clone());
            heap.set_wal_track(self.wal_enabled());
            let mut table = Table::new(TableSchema::new(cols), heap);
            table.attach_tagger(self.tagger.read().as_ref(), false)?;
            let arc = Arc::new(RwLock::new(table));
            tables.insert(name.to_string(), arc.clone());
            arc
        };
        self.plan_epoch.bump();
        if self.wal_enabled() {
            let (tk, _tg) = self.begin_stmt_write();
            self.wal_commit_table(name, &mut arc.write(), tk.ts)?;
            self.wal_maybe_checkpoint()?;
        }
        Ok(())
    }

    pub fn drop_table(&self, name: &str) -> DbResult<()> {
        let _g = self.write_guard();
        self.tables
            .write()
            .remove(name)
            .map(|_| ())
            .ok_or_else(|| DbError::NotFound(format!("table {name}")))?;
        self.stats.write().remove(name);
        self.plan_epoch.bump();
        let (tk, _tg) = self.begin_stmt_write();
        self.wal_commit_drop(name, tk.ts)?;
        self.wal_maybe_checkpoint()?;
        Ok(())
    }

    /// `ALTER TABLE ADD COLUMN` — existing rows read the column as NULL.
    /// This is how Sinew's materializer creates physical columns.
    pub fn add_column(&self, table: &str, name: &str, ty: ColType) -> DbResult<()> {
        let _g = self.write_guard();
        let t = self.table(table)?;
        {
            let mut t = t.write();
            t.schema.add_column(name, ty)?;
            t.attach_tagger(self.tagger.read().as_ref(), false)?;
            self.plan_epoch.bump();
            let (tk, _tg) = self.begin_stmt_write();
            self.wal_commit_table(table, &mut t, tk.ts)?;
        }
        self.wal_maybe_checkpoint()
    }

    /// `ALTER TABLE DROP COLUMN` — the slot is kept, the name is freed
    /// (Sinew's dematerialization path). Indexes on the column go with it.
    pub fn drop_column(&self, table: &str, name: &str) -> DbResult<()> {
        let _g = self.write_guard();
        let t = self.table(table)?;
        {
            let mut t = t.write();
            t.schema.drop_column(name)?;
            t.indexes.retain(|ix| ix.column() != name);
            t.columnar.retain(|cs| cs.column() != name);
            t.attach_tagger(self.tagger.read().as_ref(), false)?;
            self.plan_epoch.bump();
            let (tk, _tg) = self.begin_stmt_write();
            self.wal_commit_table(table, &mut t, tk.ts)?;
        }
        self.wal_maybe_checkpoint()
    }

    // ---- secondary indexes ----

    /// `CREATE INDEX name ON table (column)`. With `bulk`, existing rows
    /// are loaded through one sort (the fast path for CREATE INDEX over a
    /// populated table); without it they are inserted one at a time (kept
    /// for the bench comparison the paper-style harness runs).
    pub fn create_index(&self, table: &str, name: &str, column: &str, bulk: bool) -> DbResult<()> {
        let _g = self.write_guard();
        let t = self.table(table)?;
        let mut t = t.write();
        if t.indexes.iter().any(|ix| ix.name() == name) {
            return Err(DbError::Schema(format!("index {name} already exists")));
        }
        let entries = t.column_values(table, column)?;
        let built = entries.len() as u64;
        let mut index = SecondaryIndex::new(self.pager.clone(), name, column);
        if bulk {
            index.bulk_build(entries)?;
        } else {
            index.insert_each(entries)?;
        }
        self.exec_stats.index_build_rows.add(built);
        t.indexes.push(index);
        self.plan_epoch.bump();
        // Index pages are unlogged (rebuilt on recovery); the commit
        // records the index *definition* so recovery knows to rebuild it.
        let (tk, _tg) = self.begin_stmt_write();
        self.wal_commit_table(table, &mut t, tk.ts)?;
        drop(t);
        self.wal_maybe_checkpoint()
    }

    // ---- columnar segment stores ----

    /// Build a columnar segment store over one live column by a single
    /// heap scan — the materializer calls this right after promoting the
    /// column, and every DML path maintains the store incrementally from
    /// then on. Idempotent: rebuilding an existing store is a no-op.
    pub fn build_columnar(&self, table: &str, column: &str) -> DbResult<()> {
        let _g = self.write_guard();
        let t = self.table(table)?;
        let mut t = t.write();
        if t.columnar.iter().any(|cs| cs.column() == column) {
            return Ok(());
        }
        let mut store = ColumnStore::build(column, t.column_values(table, column)?);
        // The scan above reflects the latest-committed state, which may be
        // younger than a registered snapshot: stamp a conservative floor so
        // older readers fall back to the heap instead of seeing the future.
        store.set_floor(self.manager.current_floor());
        t.columnar.push(store);
        self.plan_epoch.bump();
        // Columnar stores live in memory (rebuilt on recovery); the
        // commit records which columns have one.
        let (tk, _tg) = self.begin_stmt_write();
        self.wal_commit_table(table, &mut t, tk.ts)?;
        drop(t);
        self.wal_maybe_checkpoint()
    }

    /// Drop the columnar store over one column (the demotion path);
    /// returns whether one existed.
    pub fn drop_columnar(&self, table: &str, column: &str) -> DbResult<bool> {
        let _g = self.write_guard();
        let t = self.table(table)?;
        let mut t = t.write();
        let before = t.columnar.len();
        t.columnar.retain(|cs| cs.column() != column);
        let dropped = t.columnar.len() != before;
        if dropped {
            self.plan_epoch.bump();
            let (tk, _tg) = self.begin_stmt_write();
            self.wal_commit_table(table, &mut t, tk.ts)?;
            drop(t);
            self.wal_maybe_checkpoint()?;
        }
        Ok(dropped)
    }

    /// Per-column-store observability: segment count, encoded vs raw
    /// bytes, encoding mix (for storage_report).
    pub fn columnar_infos(&self, table: &str) -> DbResult<Vec<ColumnarInfo>> {
        let t = self.table(table)?;
        let t = t.read();
        Ok(t.columnar.iter().map(|cs| cs.info()).collect())
    }

    /// `DROP INDEX` (scoped to one table).
    pub fn drop_index(&self, table: &str, name: &str) -> DbResult<()> {
        let _g = self.write_guard();
        let t = self.table(table)?;
        let mut t = t.write();
        let before = t.indexes.len();
        t.indexes.retain(|ix| ix.name() != name);
        if t.indexes.len() == before {
            return Err(DbError::NotFound(format!("index {name} on {table}")));
        }
        self.plan_epoch.bump();
        let (tk, _tg) = self.begin_stmt_write();
        self.wal_commit_table(table, &mut t, tk.ts)?;
        drop(t);
        self.wal_maybe_checkpoint()
    }

    /// Per-index observability: key count, page count, bytes.
    pub fn index_infos(&self, table: &str) -> DbResult<Vec<IndexInfo>> {
        let t = self.table(table)?;
        let t = t.read();
        Ok(t.indexes
            .iter()
            .map(|ix| IndexInfo {
                name: ix.name().to_string(),
                column: ix.column().to_string(),
                key_count: ix.key_count(),
                pages: ix.pages_used(),
                bytes: ix.bytes_used(),
            })
            .collect())
    }

    pub fn table_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.tables.read().keys().cloned().collect();
        names.sort();
        names
    }

    pub fn schema(&self, table: &str) -> DbResult<TableSchema> {
        let t = self.table(table)?;
        let t = t.read();
        Ok(t.schema.clone())
    }

    pub fn row_count(&self, table: &str) -> DbResult<u64> {
        let t = self.table(table)?;
        let t = t.read();
        Ok(t.heap.len())
    }

    /// Upper bound on row ids ever issued for a table; `get_row` over
    /// `0..high_water` visits every live row (the materializer's resumable
    /// iteration space).
    pub fn high_water(&self, table: &str) -> DbResult<u64> {
        let t = self.table(table)?;
        let t = t.read();
        Ok(t.heap.high_water())
    }

    // ---- programmatic row APIs ----

    /// One autocommit unit of row writes against any number of tables: one
    /// write guard, one commit timestamp and — whatever the number of
    /// tables — one WAL commit record, so a crash surfaces all of the unit
    /// or none of it. Tables are write-locked together, in name order. The
    /// writes apply in the order given; a failing write stops the unit and
    /// what was already applied commits (see
    /// [`Database::wal_finish_statement`]). Returns the row ids of the
    /// inserted rows, in order. Sinew hands a load's documents and the
    /// catalog rows they changed to one such unit.
    pub fn write_unit(&self, writes: &[RowWrite<'_>]) -> DbResult<Vec<RowId>> {
        let _g = self.write_guard();
        let mut names: Vec<&str> = writes.iter().map(RowWrite::table).collect();
        names.sort_unstable();
        names.dedup();
        let handles: Vec<Arc<RwLock<Table>>> =
            names.iter().map(|name| self.table(name)).collect::<DbResult<_>>()?;
        let mut tables: Vec<_> = handles.iter().map(|h| h.write()).collect();
        let (tk, _tg) = self.begin_stmt_write();
        let publish = Self::publish(tk);
        let mut inserted = Vec::new();
        let res = (|| -> DbResult<()> {
            for w in writes {
                let t = &mut *tables[names.binary_search(&w.table()).expect("locked above")];
                match *w {
                    RowWrite::Insert { cols, rows, .. } => {
                        let slots = t.slots_of(cols)?;
                        for row in rows {
                            let (rowid, full) = t.place_row(&slots, row)?;
                            if let Publish::Retain(ts) = publish {
                                // Live snapshots must not see this row: stamp its birth.
                                t.heap.mark_begin(rowid, ts);
                            }
                            t.apply_change(rowid, None, Some(&full), publish, &self.exec_stats)?;
                            inserted.push(rowid);
                        }
                    }
                    RowWrite::Update { table, rowid, assignments } => {
                        self.update_row_locked(t, rowid, table, assignments, publish)?
                    }
                }
            }
            Ok(())
        })();
        let res = {
            let mut locked: Vec<(&str, &mut Table)> =
                names.iter().copied().zip(tables.iter_mut().map(|t| &mut **t)).collect();
            self.wal_finish_statement(&mut locked, res, tk.ts)
        };
        drop(tables);
        res?;
        self.wal_maybe_checkpoint()?;
        Ok(inserted)
    }

    /// Bulk insert. Rows are given over the table's **live** columns, in
    /// live-column order; values are coerced to column types when safe.
    pub fn insert_rows(&self, table: &str, rows: &[Vec<Datum>]) -> DbResult<u64> {
        let inserted = self.write_unit(&[RowWrite::Insert { table, cols: None, rows }])?;
        Ok(inserted.len() as u64)
    }

    /// Bulk insert into a named subset of columns; unnamed columns are
    /// NULL. This is the `INSERT INTO t (cols...)` path.
    pub fn insert_rows_cols(
        &self,
        table: &str,
        cols: &[&str],
        rows: &[Vec<Datum>],
    ) -> DbResult<u64> {
        let inserted = self.write_unit(&[RowWrite::Insert { table, cols: Some(cols), rows }])?;
        Ok(inserted.len() as u64)
    }

    /// Read one row (live columns, in live order) by row id.
    pub fn get_row(&self, table: &str, rowid: RowId) -> DbResult<Option<Row>> {
        let t = self.table(table)?;
        let t = t.read();
        let Some(bytes) = t.heap.get(rowid)? else { return Ok(None) };
        self.exec_stats.heap_rowid_fetches.inc();
        let full = tuple::decode_tuple(&t.schema, &bytes)?;
        Ok(Some(t.schema.live_columns().map(|(i, _)| full[i].clone()).collect()))
    }

    /// Atomically update named columns of a single row — the primitive the
    /// column materializer uses for its row-by-row data movement (§3.1.4).
    pub fn update_row(
        &self,
        table: &str,
        rowid: RowId,
        assignments: &[(&str, Datum)],
    ) -> DbResult<()> {
        self.write_unit(&[RowWrite::Update { table, rowid, assignments }]).map(|_| ())
    }

    /// First-writer-wins conflict check for row `rowid` before a write by
    /// `marker` (0 for an autocommit statement) reading at `read_ts`.
    /// A row carrying another in-flight transaction's marker, or (for a
    /// transaction) a committed version newer than its snapshot, conflicts.
    fn check_conflict(
        &self,
        heap: &crate::heap::Heap,
        rowid: RowId,
        marker: u64,
        read_ts: u64,
    ) -> DbResult<()> {
        let (b, e) = heap.version_meta(rowid);
        let is_marker = |v: u64| v >= TXN_BASE && v != NO_END;
        let foreign = (is_marker(b) && b != marker) || (is_marker(e) && e != marker);
        let stale = marker != 0
            && ((!is_marker(b) && b > read_ts)
                || (!is_marker(e) && e != NO_END && e > read_ts));
        if foreign || stale {
            self.exec_stats.write_conflicts.inc();
            return Err(DbError::Conflict(format!("row {rowid} was modified concurrently")));
        }
        Ok(())
    }

    /// The body of [`Database::update_row`], already holding the table
    /// write lock — shared with SQL UPDATE so a multi-row statement is
    /// one WAL commit unit, not one per row. Under `Publish::Retain` a live
    /// snapshot exists, so the old version is chained (visible until the
    /// commit timestamp) rather than overwritten.
    fn update_row_locked(
        &self,
        t: &mut Table,
        rowid: RowId,
        table: &str,
        assignments: &[(&str, Datum)],
        publish: Publish,
    ) -> DbResult<()> {
        if let Publish::Retain(_) = publish {
            self.check_conflict(&t.heap, rowid, 0, 0)?;
        }
        let Some(bytes) = t.heap.get(rowid)? else {
            return Err(DbError::NotFound(format!("row {rowid} in {table}")));
        };
        let old = tuple::decode_tuple(&t.schema, &bytes)?;
        let mut new = old.clone();
        assign(&t.schema, &mut new, assignments)?;
        let new_bytes = tuple::encode_tuple(&t.schema, &new)?;
        match publish {
            Publish::Retain(ts) => {
                t.heap.update_versioned(rowid, &new_bytes, ts)?;
                self.exec_stats.versions_created.inc();
            }
            Publish::Eager => t.heap.update(rowid, &new_bytes)?,
        }
        t.apply_change(rowid, Some(&old), Some(&new), publish, &self.exec_stats)
    }

    /// Transaction-private single-row update: version the row under the
    /// transaction's marker and defer all index/columnar maintenance to
    /// COMMIT. First-writer-wins: touching a row already written by a
    /// concurrent transaction (or committed past our snapshot) errors.
    fn txn_update_row_locked(
        &self,
        t: &mut Table,
        txn: &mut Txn,
        table: &str,
        rowid: RowId,
        assignments: &[(&str, Datum)],
    ) -> DbResult<()> {
        let edit = |schema: &TableSchema, row: &mut [Datum]| {
            assign(schema, row, assignments).map(|()| true)
        };
        if !self.txn_rewrite_locked(t, txn, table, rowid, &mut Vec::new(), edit)? {
            return Err(DbError::NotFound(format!("row {rowid} in {table}")));
        }
        Ok(())
    }

    /// Rewrite one row inside an open transaction, decoding it once and
    /// encoding it once — the materializer's data-movement primitive.
    /// `edit` gets every slot of the row as the transaction sees it (its
    /// own uncommitted writes included), indexed as in the table's schema,
    /// decoded into `row`, a buffer the caller reuses from row to row. When
    /// `edit` returns `true` the edited image is versioned under the
    /// transaction's marker as an `UPDATE` inside a transaction is,
    /// first-writer-wins included; `false` writes nothing. Returns whether
    /// the row was written (`false` too when the transaction cannot see it).
    pub fn txn_rewrite_row(
        &self,
        txn: &mut Txn,
        table: &str,
        rowid: RowId,
        row: &mut Vec<Datum>,
        edit: impl FnOnce(&mut [Datum]) -> DbResult<bool>,
    ) -> DbResult<bool> {
        self.txn_wal_enter(txn);
        let t = self.table(table)?;
        let mut t = t.write();
        self.txn_rewrite_locked(&mut t, txn, table, rowid, row, |_, r| {
            self.exec_stats.heap_rowid_fetches.inc();
            edit(r)
        })
    }

    fn txn_rewrite_locked(
        &self,
        t: &mut Table,
        txn: &mut Txn,
        table: &str,
        rowid: RowId,
        row: &mut Vec<Datum>,
        edit: impl FnOnce(&TableSchema, &mut [Datum]) -> DbResult<bool>,
    ) -> DbResult<bool> {
        let Some(bytes) = t.heap.get_vis(rowid, txn.vis())? else { return Ok(false) };
        let every: Vec<Option<usize>> = (0..t.schema.arity()).map(Some).collect();
        row.resize(t.schema.arity(), Datum::Null);
        tuple::decode_into(&t.schema, &bytes, &every, row)?;
        if !edit(&t.schema, row)? {
            return Ok(false);
        }
        self.check_conflict(&t.heap, rowid, txn.marker, txn.read_ts)?;
        let new_bytes = tuple::encode_tuple(&t.schema, row)?;
        t.heap.update_versioned(rowid, &new_bytes, txn.marker)?;
        txn.log.push((table.to_string(), rowid, TxnOp::Upd));
        txn.touch(table, rowid);
        self.exec_stats.versions_created.inc();
        Ok(true)
    }

    /// Insert rows inside an open transaction: rows land in the heap
    /// stamped with the transaction's marker (invisible to everyone else)
    /// and index/columnar placement waits for COMMIT.
    pub fn txn_insert_rows(
        &self,
        txn: &mut Txn,
        table: &str,
        rows: &[Vec<Datum>],
    ) -> DbResult<u64> {
        self.txn_wal_enter(txn);
        let t = self.table(table)?;
        let mut t = t.write();
        let slots = t.slots_of(None)?;
        for row in rows {
            let (rowid, _) = t.place_row(&slots, row)?;
            t.heap.mark_begin(rowid, txn.marker);
            txn.log.push((table.to_string(), rowid, TxnOp::Ins));
            txn.touch(table, rowid).inserted = true;
        }
        Ok(rows.len() as u64)
    }

    /// Stream all latest-committed rows (live columns in live order) with
    /// their rowids. Used by the Sinew catalog, analyzer and metrics.
    pub fn scan_rows(
        &self,
        table: &str,
        f: &mut dyn FnMut(RowId, Row) -> DbResult<bool>,
    ) -> DbResult<()> {
        let t = self.table(table)?;
        let t = t.read();
        let live: Vec<usize> = t.schema.live_columns().map(|(i, _)| i).collect();
        let at = live_at(&live, t.schema.arity(), |_| true);
        t.heap.scan(|rowid, bytes| {
            let mut row = vec![Datum::Null; live.len()];
            tuple::decode_into(&t.schema, bytes, &at, &mut row)?;
            f(rowid, row)
        })
    }

    // ---- statistics ----

    /// ANALYZE: full-table statistics for every live column.
    pub fn analyze(&self, table: &str) -> DbResult<()> {
        let (collectors, names, n_rows) = {
            let t = self.table(table)?;
            let t = t.read();
            let names: Vec<String> =
                t.schema.live_columns().map(|(_, c)| c.name.clone()).collect();
            let live: Vec<usize> = t.schema.live_columns().map(|(i, _)| i).collect();
            let at = live_at(&live, t.schema.arity(), |_| true);
            let mut collectors: Vec<ColumnCollector> =
                names.iter().map(|_| ColumnCollector::new()).collect();
            let mut row = vec![Datum::Null; live.len()];
            t.heap.scan(|_, bytes| {
                tuple::decode_into(&t.schema, bytes, &at, &mut row)?;
                for (c, d) in collectors.iter_mut().zip(&row) {
                    c.add(d);
                }
                Ok(true)
            })?;
            (collectors, names, t.heap.len())
        };
        let mut columns = HashMap::new();
        for (c, name) in collectors.into_iter().zip(names) {
            columns.insert(name, c.finish());
        }
        self.stats
            .write()
            .insert(table.to_string(), TableStats { n_rows: n_rows as f64, columns });
        self.plan_epoch.bump();
        Ok(())
    }

    /// Drop statistics (returns the optimizer to default estimates).
    pub fn clear_stats(&self, table: &str) {
        self.stats.write().remove(table);
        self.plan_epoch.bump();
    }

    // ---- SQL entry point ----

    /// Execute a single SQL statement.
    pub fn execute(&self, sql: &str) -> DbResult<QueryResult> {
        let stmt = sinew_sql::parse_statement(sql).map_err(|e| DbError::Parse(e.to_string()))?;
        self.execute_statement(&stmt)
    }

    /// Prepare `stmt` and run it once: the one path every statement takes.
    pub fn execute_statement(&self, stmt: &Statement) -> DbResult<QueryResult> {
        self.run(&self.prepare(stmt)?)
    }

    /// Plan a SELECT without running it.
    pub fn plan(&self, sel: &sinew_sql::Select) -> DbResult<PlannedQuery> {
        Planner::new(self, &self.funcs).with_config(self.planner_config()).plan_select(sel)
    }

    /// Make `stmt` ready to run any number of times (DESIGN.md §23): plan
    /// it, bind what it evaluates, and stamp the result with the plan epoch
    /// and the size class of every table the planner read.
    pub fn prepare(&self, stmt: &Statement) -> DbResult<Prepared> {
        self.prepare_with(&|| Ok(stmt.clone()))
    }

    /// [`Database::prepare`] for a statement derived from state above the
    /// engine (Sinew's rewrite of logical SQL reads its catalog): `derive`
    /// runs after the plan epoch is read. Run the result with the same hook
    /// ([`Database::run_with`]), which calls it again when a stamp is stale.
    pub fn prepare_with(&self, derive: Derive<'_>) -> DbResult<Prepared> {
        Ok(Prepared { current: RwLock::new(Arc::new(self.prepare_bound(derive)?)) })
    }

    fn prepare_bound(&self, derive: Derive<'_>) -> DbResult<Bound> {
        // Read before the statement is derived or planned, so that a change
        // landing while either reads leaves this stamp behind.
        let epoch = self.plan_epoch.get();
        let stmt = derive()?;
        let start = Instant::now();
        let view = Sizing { db: self, sizes: RefCell::default() };
        let planner = Planner::new(&view, &self.funcs).with_config(self.planner_config());
        let action = match &stmt {
            Statement::Select(sel) => Action::Select(planner.plan_select(sel)?),
            Statement::Explain { analyze, inner } => match &**inner {
                Statement::Select(sel) => {
                    Action::Explain { analyze: *analyze, planned: planner.plan_select(sel)? }
                }
                _ => return Err(DbError::Eval("EXPLAIN supports SELECT only".into())),
            },
            Statement::Update(upd) => {
                let (scan, scope) = ModifyScan::plan(&planner, &upd.table, upd.filter.as_ref())?;
                let assignments = upd
                    .assignments
                    .iter()
                    .map(|(col, e)| Ok((col.clone(), bind(e, &scope, &self.funcs)?)))
                    .collect::<DbResult<_>>()?;
                Action::Update { scan, assignments }
            }
            Statement::Delete(del) => {
                Action::Delete(ModifyScan::plan(&planner, &del.table, del.filter.as_ref())?.0)
            }
            _ => Action::Other,
        };
        if !matches!(action, Action::Other) {
            self.exec_stats.plan_ns.record(start.elapsed().as_nanos() as u64);
        }
        Ok(Bound { stmt, action, epoch, sizes: view.sizes.into_inner() })
    }

    /// Run a prepared statement as one autocommit unit. What it may see is
    /// fixed first — a `SELECT` registers its snapshot, an `UPDATE` or
    /// `DELETE` takes the write token — and only then are its stamps
    /// checked: a stale one re-prepares it, in place, from its statement.
    pub fn run(&self, p: &Prepared) -> DbResult<QueryResult> {
        self.run_with(p, &|| Ok(p.statement()))
    }

    /// [`Database::run`] for a statement made by [`Database::prepare_with`]:
    /// a stale stamp prepares what `derive` yields now.
    pub fn run_with(&self, p: &Prepared, derive: Derive<'_>) -> DbResult<QueryResult> {
        self.run_in(p, None, derive)
    }

    /// Prepare `p` again in place, from what `derive` yields, if a stamp is
    /// stale now.
    pub fn refresh(&self, p: &Prepared, derive: Derive<'_>) -> DbResult<()> {
        self.checked(p, p.current(), derive).map(drop)
    }

    fn run_in(
        &self,
        p: &Prepared,
        txn: Option<&mut Txn>,
        derive: Derive<'_>,
    ) -> DbResult<QueryResult> {
        let held = p.current();
        let reads =
            matches!(held.action, Action::Select(_) | Action::Explain { analyze: true, .. });
        let writes = matches!(held.action, Action::Update { .. } | Action::Delete(_));
        match txn {
            None if reads => {
                // A registered snapshot makes concurrent committers retain
                // (rather than destroy) the versions this query reads:
                // readers never block writers and vice versa. The plan run
                // is current after its snapshot is taken: one prepared
                // again here can rest on commits the snapshot misses (the
                // materializer's last moves before the clean flag a new
                // rewrite reads), so it gets a new snapshot.
                let mut held = held;
                loop {
                    let read_ts = self.manager.begin_snapshot();
                    let res = match self.checked(p, held.clone(), derive) {
                        Ok(b) if Arc::ptr_eq(&b, &held) => {
                            Some(self.run_bound(&b, Vis::snapshot(read_ts), None))
                        }
                        Ok(b) => {
                            held = b;
                            None
                        }
                        Err(e) => Some(Err(e)),
                    };
                    if self.manager.release_snapshot(read_ts) {
                        // We were the horizon; some retained garbage may be ripe.
                        let _ = self.vacuum();
                    }
                    if let Some(res) = res {
                        return res;
                    }
                }
            }
            None if writes => {
                // Held from before the stamps are checked until the rows are
                // written: no other writer's commit falls between the value
                // a `SET` expression saw and the value it replaces.
                let _g = self.write_guard();
                let b = self.checked(p, held, derive)?;
                self.run_bound(&b, Vis::LATEST, None)
            }
            // An open transaction fixed what it sees at BEGIN; it detects a
            // concurrent write at the row (first-writer-wins).
            txn => {
                let vis = txn.as_deref().map_or(Vis::LATEST, Txn::vis);
                let b = self.checked(p, held, derive)?;
                self.run_bound(&b, vis, txn)
            }
        }
    }

    /// `held` while the plan epoch and the size class of every table it
    /// was planned over are what they were; otherwise its replacement,
    /// prepared from what `derive` yields, which also takes its place in `p`.
    fn checked(&self, p: &Prepared, held: Arc<Bound>, derive: Derive<'_>) -> DbResult<Arc<Bound>> {
        let current = held.epoch == self.plan_epoch.get()
            && held.sizes.iter().all(|s| self.table_size_class(&s.table) == Some(s.class));
        if current {
            return Ok(held);
        }
        let fresh = Arc::new(self.prepare_bound(derive)?);
        *p.current.write() = fresh.clone();
        Ok(fresh)
    }

    fn table_size_class(&self, table: &str) -> Option<(u32, u32)> {
        let t = self.table(table).ok()?;
        let t = t.read();
        Some(size_class(t.heap.len(), t.heap.pages_used()))
    }

    /// Run one preparation at `vis`, inside `txn` when one is open.
    fn run_bound(&self, b: &Bound, vis: Vis, txn: Option<&mut Txn>) -> DbResult<QueryResult> {
        match &b.action {
            Action::Select(planned) => Ok(QueryResult {
                columns: planned.columns.clone(),
                rows: self.run_plan(&planned.plan, vis)?,
                affected: 0,
            }),
            Action::Explain { analyze, planned } => self.run_explain(*analyze, &planned.plan, vis),
            Action::Update { scan, assignments } => self.run_update(scan, assignments, vis, txn),
            Action::Delete(scan) => self.run_delete(scan, vis, txn),
            Action::Other => self.run_other(&b.stmt, txn),
        }
    }

    fn run_explain(&self, analyze: bool, plan: &Plan, vis: Vis) -> DbResult<QueryResult> {
        self.exec_stats.explain_runs.inc();
        let text = if analyze {
            // EXPLAIN ANALYZE actually runs the query (discarding its rows)
            // with per-node instrumentation.
            let limits = *self.limits.read();
            let src = SnapSource { db: self, vis };
            let exec = Executor { source: &src, limits, stats: &self.exec_stats };
            let az = crate::block::AnalyzeCtx::new();
            crate::block::run_streaming_with(&exec, plan, Some(&az))?;
            plan.explain_analyze(&az.take_nodes())
        } else {
            plan.explain()
        };
        Ok(QueryResult {
            columns: vec!["QUERY PLAN".to_string()],
            rows: text.lines().map(|l| vec![Datum::Text(l.to_string())]).collect(),
            affected: 0,
        })
    }

    /// The statements that carry no plan. DDL cannot run transactionally (it
    /// commits immediately and is not versioned — DESIGN.md §16 limitations).
    fn run_other(&self, stmt: &Statement, txn: Option<&mut Txn>) -> DbResult<QueryResult> {
        if txn.is_some() && matches!(stmt, Statement::CreateTable(_) | Statement::CreateIndex(_)) {
            return Err(DbError::Eval("DDL is not supported inside a transaction".into()));
        }
        match stmt {
            Statement::CreateTable(ct) => {
                let cols: Vec<(String, ColType)> =
                    ct.columns.iter().map(|(n, t)| (n.clone(), (*t).into())).collect();
                match self.create_table(&ct.table, cols) {
                    Err(DbError::Schema(_)) if ct.if_not_exists => Ok(QueryResult::default()),
                    other => other.map(|_| QueryResult::default()),
                }
            }
            Statement::CreateIndex(ci) => {
                match self.create_index(&ci.table, &ci.name, &ci.column, true) {
                    Err(DbError::Schema(_)) if ci.if_not_exists => Ok(QueryResult::default()),
                    other => other.map(|_| QueryResult::default()),
                }
            }
            Statement::Insert(ins) => self.run_insert(ins, txn),
            Statement::Analyze(table) => {
                self.analyze(table)?;
                Ok(QueryResult::default())
            }
            // A session answers BEGIN / COMMIT / ROLLBACK before they get here.
            _ => Err(DbError::Eval("transactions require a session (Database::session)".into())),
        }
    }

    /// Execute a plan at one visibility under the configured limits.
    fn run_plan(&self, plan: &Plan, vis: Vis) -> DbResult<Vec<Row>> {
        let limits = *self.limits.read();
        let src = SnapSource { db: self, vis };
        crate::block::run_streaming(&Executor { source: &src, limits, stats: &self.exec_stats }, plan)
    }

    fn run_insert(
        &self,
        ins: &sinew_sql::Insert,
        txn: Option<&mut Txn>,
    ) -> DbResult<QueryResult> {
        let schema = self.schema(&ins.table)?;
        let live: Vec<(usize, String, ColType)> = schema
            .live_columns()
            .map(|(i, c)| (i, c.name.clone(), c.ty))
            .collect();
        // map provided columns to live positions
        let positions: Vec<usize> = if ins.columns.is_empty() {
            (0..live.len()).collect()
        } else {
            ins.columns
                .iter()
                .map(|c| {
                    live.iter()
                        .position(|(_, n, _)| n == c)
                        .ok_or_else(|| DbError::NotFound(format!("column {c}")))
                })
                .collect::<DbResult<_>>()?
        };
        let scope = Scope::default();
        let mut rows = Vec::new();
        for value_row in &ins.rows {
            if value_row.len() != positions.len() {
                return Err(DbError::Schema(format!(
                    "INSERT expects {} values, got {}",
                    positions.len(),
                    value_row.len()
                )));
            }
            let mut row = vec![Datum::Null; live.len()];
            for (expr, &pos) in value_row.iter().zip(&positions) {
                row[pos] = bind(expr, &scope, &self.funcs)?.eval(&[])?;
            }
            rows.push(row);
        }
        let n = match txn {
            Some(x) => self.txn_insert_rows(x, &ins.table, &rows)?,
            None => self.insert_rows(&ins.table, &rows)?,
        };
        Ok(QueryResult { affected: n, ..Default::default() })
    }

    /// An `UPDATE`'s rows, found and written at `vis` — an open
    /// transaction's (it must see its own earlier writes), or latest-committed
    /// under the write token (`run_in`).
    fn run_update(
        &self,
        scan: &ModifyScan,
        assignments: &[(String, PhysExpr)],
        vis: Vis,
        txn: Option<&mut Txn>,
    ) -> DbResult<QueryResult> {
        // Phase 1: evaluate new values against matching rows.
        let matched = self.run_plan(&scan.plan, vis)?;
        let mut updates: Vec<(RowId, Vec<(String, Datum)>)> = Vec::with_capacity(matched.len());
        for row in &matched {
            let mut vals = Vec::with_capacity(assignments.len());
            for (col, e) in assignments {
                vals.push((col.clone(), e.eval(row)?));
            }
            updates.push((scan.rowid(row)?, vals));
        }
        let n = updates.len() as u64;
        let table = scan.table.as_str();
        if let Some(x) = txn {
            // Phase 2 (transactional): version rows under the marker.
            self.txn_wal_enter(x);
            let t = self.table(table)?;
            let mut t = t.write();
            for (rowid, vals) in updates {
                let refs: Vec<(&str, Datum)> =
                    vals.iter().map(|(c, d)| (c.as_str(), d.clone())).collect();
                self.txn_update_row_locked(&mut t, x, table, rowid, &refs)?;
            }
            return Ok(QueryResult { affected: n, ..Default::default() });
        }
        // Phase 2 (autocommit): apply row-by-row; the whole statement is
        // one WAL commit unit.
        {
            let t = self.table(table)?;
            let mut t = t.write();
            let (tk, _tg) = self.begin_stmt_write();
            let publish = Self::publish(tk);
            let res = (|| -> DbResult<()> {
                for (rowid, vals) in updates {
                    let refs: Vec<(&str, Datum)> =
                        vals.iter().map(|(c, d)| (c.as_str(), d.clone())).collect();
                    self.update_row_locked(&mut t, rowid, table, &refs, publish)?;
                }
                Ok(())
            })();
            self.wal_finish_statement(&mut [(table, &mut t)], res, tk.ts)?;
        }
        self.wal_maybe_checkpoint()?;
        Ok(QueryResult { affected: n, ..Default::default() })
    }

    /// A `DELETE`'s rows, found at `vis` as in [`Database::run_update`].
    fn run_delete(
        &self,
        scan: &ModifyScan,
        vis: Vis,
        txn: Option<&mut Txn>,
    ) -> DbResult<QueryResult> {
        let matched = self.run_plan(&scan.plan, vis)?;
        let table = scan.table.as_str();
        let mut n = 0;
        if let Some(x) = txn {
            // Transactional: tombstone under the marker; index/columnar
            // maintenance and reclamation wait for COMMIT.
            self.txn_wal_enter(x);
            let t = self.table(table)?;
            let mut t = t.write();
            for row in &matched {
                let rowid = scan.rowid(row)?;
                self.check_conflict(&t.heap, rowid, x.marker, x.read_ts)?;
                if t.heap.delete_mark(rowid, x.marker)? {
                    n += 1;
                    x.log.push((table.to_string(), rowid, TxnOp::Del));
                    x.touch(table, rowid).deleted = true;
                }
            }
            return Ok(QueryResult { affected: n, ..Default::default() });
        }
        let t = self.table(table)?;
        let mut t = t.write();
        let (tk, _tg) = self.begin_stmt_write();
        let publish = Self::publish(tk);
        let at = t.derived_slots();
        let mut old = vec![Datum::Null; t.schema.arity()];
        let res = (|| -> DbResult<()> {
            for row in &matched {
                let rowid = scan.rowid(row)?;
                if let Publish::Retain(_) = publish {
                    self.check_conflict(&t.heap, rowid, 0, 0)?;
                }
                // The image being deleted; only the slots that an index or
                // a store is built over are decoded, into one buffer.
                let Some(bytes) = t.heap.get(rowid)? else { continue };
                tuple::decode_into(&t.schema, &bytes, &at, &mut old)?;
                let deleted = match publish {
                    // Tombstone at ts; the bytes stay readable for older
                    // snapshots until vacuum.
                    Publish::Retain(ts) => t.heap.delete_mark(rowid, ts)?,
                    Publish::Eager => t.heap.delete(rowid)?,
                };
                if deleted {
                    n += 1;
                    t.apply_change(rowid, Some(&old), None, publish, &self.exec_stats)?;
                }
            }
            Ok(())
        })();
        self.wal_finish_statement(&mut [(table, &mut t)], res, tk.ts)?;
        drop(t);
        self.wal_maybe_checkpoint()?;
        Ok(QueryResult { affected: n, ..Default::default() })
    }

    // ---- transactions ----

    /// Open an explicit snapshot transaction. The returned handle must be
    /// resolved with [`Database::commit_txn`] or [`Database::rollback_txn`]
    /// (dropping it unresolved pins the vacuum horizon forever) — SQL
    /// callers should go through [`Database::session`], which guarantees
    /// resolution.
    pub fn begin_txn(&self) -> DbResult<Txn> {
        // A transaction's snapshot must include every commit that finished
        // before BEGIN: updating through a stale frontier would trip
        // first-writer-wins against writes the scan simply hadn't seen
        // yet. Plain reads keep the non-blocking stale-frontier snapshot.
        let read_ts = self.manager.begin_snapshot_fresh();
        let marker = self.manager.marker();
        self.exec_stats.txns_begun.inc();
        Ok(Txn {
            marker,
            read_ts,
            log: Vec::new(),
            rowmap: HashMap::new(),
            holds_token: false,
        })
    }

    /// Commit: stamp every row the transaction touched with one commit
    /// timestamp (making them all visible atomically), perform the
    /// deferred index/columnar maintenance, and write the whole
    /// transaction as a single WAL commit record.
    pub fn commit_txn(&self, mut txn: Txn) -> DbResult<()> {
        let rowmap = std::mem::take(&mut txn.rowmap);
        if rowmap.is_empty() {
            // Read-only (or never wrote): nothing to publish.
            if txn.holds_token {
                self.token_release(TokenOwner::Txn(txn.marker));
            }
            let advanced = self.manager.release_snapshot(txn.read_ts);
            self.exec_stats.txns_committed.inc();
            if advanced {
                let _ = self.vacuum();
            }
            return Ok(());
        }
        // The commit is one unit like any autocommit statement's, published
        // under the token (a logged database's writer holds it already).
        self.txn_token_enter(&mut txn);
        // Release our own snapshot BEFORE taking the commit timestamp: a
        // transaction running with no other live snapshot then commits
        // Eager and leaves zero retained garbage behind.
        let advanced = self.manager.release_snapshot(txn.read_ts);
        let tk = self.manager.start_write();
        let ticket = TicketGuard { mgr: &self.manager, ts: tk.ts };
        let mut names: Vec<&String> = rowmap.keys().collect();
        names.sort();
        let res = (|| -> DbResult<()> {
            let mut ops = Vec::new();
            for name in &names {
                let Ok(handle) = self.table(name) else { continue };
                let mut t = handle.write();
                for (&rowid, st) in &rowmap[name.as_str()] {
                    self.commit_row(&mut t, rowid, st, txn.marker, tk)?;
                }
                if self.wal_enabled() {
                    Self::wal_table_op(&mut ops, name, &mut t);
                }
            }
            // One record for the whole transaction: recovery either
            // replays all of it or none of it.
            self.wal_commit_record(tk.ts, &ops)
        })();
        drop(ticket); // publish the commit timestamp
        self.token_release(TokenOwner::Txn(txn.marker));
        self.exec_stats.txns_committed.inc();
        if let Some(w) = &self.wal {
            if w.bytes() > w.config().checkpoint_bytes {
                self.checkpoint()?;
            }
        }
        let _ = advanced;
        let _ = self.vacuum();
        res
    }

    /// Publish one transaction-touched row at COMMIT: patch its marker
    /// stamps to the commit timestamp, then hand the pre-transaction and
    /// final images to [`Table::apply_change`] — the maintenance deferred
    /// while the row was private.
    fn commit_row(
        &self,
        t: &mut Table,
        rowid: RowId,
        st: &RowState,
        marker: u64,
        tk: WriteTicket,
    ) -> DbResult<()> {
        let image = |t: &Table, bytes: Option<Vec<u8>>| {
            bytes.map(|b| tuple::decode_tuple(&t.schema, &b)).transpose()
        };
        // The pre-transaction image must be read before patch_commit
        // rewrites the marker stamps it is found by.
        let old = if st.inserted { None } else { image(t, t.heap.pretxn_bytes(rowid, marker)?)? };
        let freed = t.heap.patch_commit(rowid, marker, tk.ts)?;
        if freed > 0 {
            self.exec_stats.versions_vacuumed.add(freed);
        }
        if st.inserted && st.deleted {
            // Born and died inside the transaction: the slot was never
            // visible to anyone; reclaim it outright.
            t.heap.physical_delete_retained(rowid)?;
            return Ok(());
        }
        let new = if st.deleted { None } else { image(t, t.heap.get(rowid)?)? };
        t.apply_change(rowid, old.as_deref(), new.as_deref(), Self::publish(tk), &self.exec_stats)
    }

    /// Roll back: undo the transaction's heap writes in reverse order and
    /// discard its page images (they never reached the log, and after the
    /// undos the pages again hold content reconstructible from history).
    pub fn rollback_txn(&self, mut txn: Txn) -> DbResult<()> {
        let log = std::mem::take(&mut txn.log);
        let res = (|| -> DbResult<()> {
            for (name, rowid, op) in log.into_iter().rev() {
                let Ok(handle) = self.table(&name) else { continue };
                let mut t = handle.write();
                match op {
                    TxnOp::Ins => t.heap.undo_insert(rowid)?,
                    TxnOp::Upd => t.heap.undo_update(rowid)?,
                    TxnOp::Del => t.heap.undo_delete(rowid)?,
                }
            }
            Ok(())
        })();
        if txn.holds_token {
            let _ = self.pager.take_uncommitted_images();
            self.pager.shrink_to_capacity()?;
            self.token_release(TokenOwner::Txn(txn.marker));
        }
        let advanced = self.manager.release_snapshot(txn.read_ts);
        self.exec_stats.txns_aborted.inc();
        if advanced {
            let _ = self.vacuum();
        }
        res
    }

    /// Reclaim retained versions, tombstoned rows, stale index keys, and
    /// columnar pendings whose timestamps have passed behind the oldest
    /// live snapshot. Best-effort: if a writer holds the write token the
    /// pass is skipped (garbage stays queued for the next opportunity).
    pub fn vacuum(&self) -> DbResult<u64> {
        let Some(_g) = self.try_write_guard() else { return Ok(0) };
        // Reclaim only behind BOTH the oldest live snapshot and the
        // published frontier: garbage stamped with a committed-but-not-yet
        // -published timestamp is still needed, because the next snapshot
        // will register below it.
        let floor = self
            .manager
            .horizon()
            .unwrap_or(u64::MAX)
            .min(self.manager.last_visible());
        let ready = |ts: u64| ts <= floor;
        let mut reclaimed = 0u64;
        for name in self.table_names() {
            let Ok(handle) = self.table(&name) else { continue };
            {
                let t = handle.read();
                if t.garbage.is_empty() && t.columnar.iter().all(|cs| cs.mvcc_clean()) {
                    continue;
                }
            }
            // Don't stall behind long scans holding the read lock; the
            // garbage keeps.
            let Some(mut t) = handle.try_write() else { continue };
            let items = std::mem::take(&mut t.garbage);
            let mut keep = Vec::with_capacity(items.len());
            let mut touched = false;
            for item in items {
                if !ready(item.ts) {
                    keep.push(item);
                    continue;
                }
                touched = true;
                match item.g {
                    Garbage::Chain(rowid) => {
                        if t.heap.vacuum_chain_tail(rowid, floor)? {
                            reclaimed += 1;
                        }
                    }
                    Garbage::Row(rowid) => {
                        if t.heap.physical_delete_retained(rowid)? {
                            reclaimed += 1;
                        }
                    }
                    Garbage::IndexEntry { column, key, rowid } => {
                        if let Some(k) =
                            t.indexes.iter().position(|ix| ix.column() == column)
                        {
                            t.indexes[k].remove(&key, rowid)?;
                        }
                    }
                }
            }
            t.garbage = keep;
            for cs in &mut t.columnar {
                if cs.vacuum(Some(floor)) > 0 {
                    touched = true;
                }
            }
            if touched && self.wal_enabled() {
                let ts = self.manager.last_visible();
                self.wal_finish_statement(&mut [(&name, &mut t)], Ok(()), ts)?;
            }
        }
        if reclaimed > 0 {
            self.exec_stats.versions_vacuumed.add(reclaimed);
        }
        Ok(reclaimed)
    }

    /// Consistency audit (tests call it after every phase): each index and
    /// each columnar store of `table` must equal the projection of the
    /// latest-committed heap, with queued index removals and pending
    /// columnar ops taken as applied; every tag of every tuple on a heap
    /// page, chained versions included, must be in that page's synopsis;
    /// and the heap's free list must hold only pages no version is on.
    pub fn check_derived(&self, table: &str) -> DbResult<()> {
        let t = self.table(table)?;
        let t = t.read();
        t.heap
            .check_synopsis()
            .and_then(|()| t.heap.check_free_list())
            .map_err(|e| DbError::Eval(format!("check_derived({table}): {e}")))?;
        let mut rows: Vec<(RowId, Vec<Datum>)> = Vec::new();
        t.heap.scan(|rowid, bytes| {
            rows.push((rowid, tuple::decode_tuple(&t.schema, bytes)?));
            Ok(true)
        })?;
        let bad = |what: &str, column: &str, detail: String| {
            Err(DbError::Eval(format!("check_derived({table}): {what} on {column}: {detail}")))
        };
        for ix in &t.indexes {
            let Some(slot) = t.schema.index_of(ix.column()) else { continue };
            let mut want: Vec<(Datum, RowId)> = rows
                .iter()
                .filter(|(_, full)| !full[slot].is_null())
                .map(|(rowid, full)| (full[slot].clone(), *rowid))
                .collect();
            want.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            let mut have = ix.entries()?;
            have.retain(|(k, r)| {
                !t.garbage.iter().any(|item| match &item.g {
                    Garbage::IndexEntry { column, key, rowid } => {
                        rowid == r && column == ix.column() && key.total_cmp(k).is_eq()
                    }
                    _ => false,
                })
            });
            if have.len() != want.len()
                || have.iter().zip(&want).any(|(h, w)| h.1 != w.1 || !h.0.total_cmp(&w.0).is_eq())
            {
                let detail = format!("{} entries, heap has {} keys", have.len(), want.len());
                return bad("index", ix.column(), detail);
            }
        }
        for cs in &t.columnar {
            let Some(slot) = t.schema.index_of(cs.column()) else { continue };
            let have = cs.latest_values();
            let mut want: Vec<Option<&Datum>> = vec![None; have.len().max(rows.len())];
            for (rowid, full) in &rows {
                if *rowid as usize >= want.len() {
                    want.resize(*rowid as usize + 1, None);
                }
                want[*rowid as usize] = Some(&full[slot]);
            }
            for (rowid, w) in want.iter().enumerate() {
                let h = have.get(rowid).and_then(Option::as_ref);
                let same = match (h, w) {
                    (Some(h), Some(w)) => h.identical(w),
                    (None, None) => true,
                    _ => false,
                };
                if !same {
                    return bad("column store", cs.column(), format!("row {rowid}: {h:?}, heap {w:?}"));
                }
            }
        }
        Ok(())
    }

    /// Non-blocking [`Database::write_guard`]: `None` means a writer holds
    /// the token right now.
    fn try_write_guard(&self) -> Option<WriteToken<'_>> {
        let owner = TokenOwner::Stmt(std::thread::current().id());
        let mut o = self.write_owner.lock();
        if o.is_some() {
            return None;
        }
        *o = Some(owner);
        drop(o);
        Some(WriteToken { db: self, held: Some(owner) })
    }

    /// Open a SQL session: the unit that owns an (optional) open
    /// transaction. `BEGIN`/`COMMIT`/`ROLLBACK` only work here.
    pub fn session(&self) -> Session<'_> {
        Session { db: self, txn: None, aborted: false }
    }

    /// Snapshot-frontier introspection: `(published, handed_out)` write
    /// timestamps. A growing gap means a write ticket is stuck in flight.
    pub fn txn_frontier(&self) -> (u64, u64) {
        (self.manager.last_visible(), self.manager.current_floor())
    }
}

/// RAII holder of the statement write token (see
/// [`Database::write_guard`]).
pub struct WriteToken<'a> {
    db: &'a Database,
    /// `None` for a guard nested inside the one that holds the token.
    held: Option<TokenOwner>,
}

impl Drop for WriteToken<'_> {
    fn drop(&mut self) {
        if let Some(owner) = self.held {
            self.db.token_release(owner);
        }
    }
}

/// Publishes a statement's commit timestamp on drop — even on error
/// paths, so later timestamps are never blocked from becoming visible.
struct TicketGuard<'a> {
    mgr: &'a TxnManager,
    ts: u64,
}

impl Drop for TicketGuard<'_> {
    fn drop(&mut self) {
        self.mgr.finish_write(self.ts);
    }
}

/// Whether a transaction created and/or removed one row it touched,
/// accumulated across its statements; tells COMMIT which side of the change
/// has no image.
#[derive(Default, Clone, Copy)]
struct RowState {
    inserted: bool,
    deleted: bool,
}

/// One undoable heap write, for ROLLBACK (applied in reverse order).
enum TxnOp {
    Ins,
    Upd,
    Del,
}

/// An open snapshot transaction. Reads see the database as of `read_ts`
/// plus this transaction's own writes (stamped with `marker`); writes
/// stay invisible to everyone else until COMMIT.
pub struct Txn {
    marker: u64,
    read_ts: u64,
    log: Vec<(String, RowId, TxnOp)>,
    rowmap: HashMap<String, BTreeMap<RowId, RowState>>,
    holds_token: bool,
}

impl Txn {
    /// What this transaction reads: its snapshot plus its own writes.
    fn vis(&self) -> Vis {
        Vis { read_ts: self.read_ts, marker: self.marker }
    }

    fn touch(&mut self, table: &str, rowid: RowId) -> &mut RowState {
        self.rowmap.entry(table.to_string()).or_default().entry(rowid).or_default()
    }
}

/// A connection-like wrapper owning at most one open transaction.
/// Dropping the session rolls back anything still open. A serialization
/// conflict auto-rolls-back (first-writer-wins leaves the loser nothing
/// to salvage) and leaves the session in an aborted state: further
/// statements fail until COMMIT (which reports the abort) or ROLLBACK
/// ends the transaction block — a statement after a mid-transaction
/// conflict must NOT silently run as autocommit.
pub struct Session<'a> {
    db: &'a Database,
    txn: Option<Txn>,
    aborted: bool,
}

impl Session<'_> {
    pub fn execute(&mut self, sql: &str) -> DbResult<QueryResult> {
        let stmt = sinew_sql::parse_statement(sql).map_err(|e| DbError::Parse(e.to_string()))?;
        self.execute_statement(&stmt)
    }

    pub fn execute_statement(&mut self, stmt: &Statement) -> DbResult<QueryResult> {
        self.run(&self.db.prepare(stmt)?)
    }

    /// Run a prepared statement in this session: inside its open
    /// transaction, if any, which fixed what it sees at `BEGIN` — so the
    /// stamps are checked at once.
    pub fn run(&mut self, p: &Prepared) -> DbResult<QueryResult> {
        if let Some(res) = self.control(&p.current().stmt) {
            return res;
        }
        if self.aborted {
            return Err(DbError::Eval(
                "current transaction is aborted, commands ignored \
                 until end of transaction block"
                    .into(),
            ));
        }
        let db = self.db;
        let res = db.run_in(p, self.txn.as_mut(), &|| Ok(p.statement()));
        if matches!(res, Err(DbError::Conflict(_))) {
            if let Some(txn) = self.txn.take() {
                let _ = db.rollback_txn(txn);
                self.aborted = true;
            }
        }
        res
    }

    /// `BEGIN`, `COMMIT` and `ROLLBACK`, answered by the session itself.
    fn control(&mut self, stmt: &Statement) -> Option<DbResult<QueryResult>> {
        Some(match stmt {
            Statement::Begin => {
                if self.txn.is_some() || self.aborted {
                    return Some(Err(DbError::Eval("already in a transaction".into())));
                }
                self.db.begin_txn().map(|txn| {
                    self.txn = Some(txn);
                    QueryResult::default()
                })
            }
            Statement::Commit if self.aborted => {
                self.aborted = false;
                Err(DbError::Conflict(
                    "transaction was aborted by a serialization conflict; \
                     its writes were rolled back"
                        .into(),
                ))
            }
            Statement::Rollback if self.aborted => {
                self.aborted = false;
                Ok(QueryResult::default())
            }
            Statement::Commit => match self.txn.take() {
                Some(txn) => self.db.commit_txn(txn).map(|_| QueryResult::default()),
                None => Err(DbError::Eval("no transaction in progress".into())),
            },
            Statement::Rollback => match self.txn.take() {
                Some(txn) => self.db.rollback_txn(txn).map(|_| QueryResult::default()),
                None => Err(DbError::Eval("no transaction in progress".into())),
            },
            _ => return None,
        })
    }

    /// Whether a transaction is currently open.
    pub fn in_txn(&self) -> bool {
        self.txn.is_some()
    }
}

impl Drop for Session<'_> {
    fn drop(&mut self) {
        if let Some(txn) = self.txn.take() {
            let _ = self.db.rollback_txn(txn);
        }
    }
}

/// Commit-record ops: upsert one table's metadata, or drop a table.
const WAL_OP_TABLE: u8 = 1;
const WAL_OP_DROP: u8 = 2;

/// The log lives next to the data file as `<data-file>.wal`.
fn wal_path_for(path: &Path) -> PathBuf {
    let mut s = path.as_os_str().to_os_string();
    s.push(".wal");
    PathBuf::from(s)
}

/// Apply named assignments (coerced to their column types) to a row's full
/// physical image.
fn assign(schema: &TableSchema, full: &mut [Datum], assignments: &[(&str, Datum)]) -> DbResult<()> {
    for (name, value) in assignments {
        let idx = schema
            .index_of(name)
            .ok_or_else(|| DbError::NotFound(format!("column {name}")))?;
        full[idx] = coerce_for_column(value, schema.columns[idx].ty)?;
    }
    Ok(())
}

/// Coerce a datum for storage into a column of the given type; only safe,
/// lossless-ish coercions are applied implicitly (ints into float columns);
/// everything else must match or be NULL.
fn coerce_for_column(d: &Datum, ty: ColType) -> DbResult<Datum> {
    if d.is_null() || d.type_of() == Some(ty) {
        return Ok(d.clone());
    }
    match (d, ty) {
        (Datum::Int(i), ColType::Float) => Ok(Datum::Float(*i as f64)),
        _ => Err(DbError::Schema(format!(
            "cannot store {:?} value into {} column",
            d.type_of(),
            ty.name()
        ))),
    }
}

impl CatalogView for Database {
    fn table_meta(&self, name: &str) -> DbResult<TableMeta> {
        let t = self.table(name)?;
        let t = t.read();
        Ok(TableMeta {
            schema: t.schema.clone(),
            n_rows: t.heap.len() as f64,
            n_pages: t.heap.pages_used() as f64,
        })
    }

    fn table_stats(&self, name: &str) -> Option<TableStats> {
        self.stats.read().get(name).cloned()
    }

    fn indexed_columns(&self, name: &str) -> Vec<String> {
        let Ok(t) = self.table(name) else { return Vec::new() };
        let t = t.read();
        t.indexes.iter().map(|ix| ix.column().to_string()).collect()
    }

    fn columnar_columns(&self, name: &str) -> Vec<String> {
        let Ok(t) = self.table(name) else { return Vec::new() };
        let t = t.read();
        t.columnar.iter().map(|cs| cs.column().to_string()).collect()
    }
}

/// The executor's one table source (DESIGN.md §18): a `Database` pinned to
/// one visibility — a registered snapshot's, an open transaction's (which
/// additionally sees its own marker-stamped writes), or [`Vis::LATEST`] for
/// latest-committed reads. This wrapper is how SELECTs become non-blocking
/// readers. Every scan row it emits has one shape: live columns in live
/// order (columns outside `needed` may come back NULL, undecoded), then
/// the rowid, whatever the leaf: a columnar or index cursor whose stores
/// or B-tree cannot serve this reader — dropped since planning, or
/// untrustworthy at this visibility — goes on as the heap scan
/// ([`TableScan`]).
pub(crate) struct SnapSource<'a> {
    pub(crate) db: &'a Database,
    pub(crate) vis: Vis,
}

/// Per physical slot, the position of the row a decode puts it at, if any
/// (`tuple::decode_into`).
type SlotMap = Vec<Option<usize>>;

/// Where a scan decodes each physical slot it reads (DESIGN.md §35): the
/// `needed` columns (every live one when `None`) at their positions in
/// the scan row, live columns in live order.
fn scan_at(schema: &TableSchema, live: &[usize], needed: Option<&[String]>) -> SlotMap {
    let mut wanted = vec![needed.is_none(); schema.arity()];
    for slot in needed.unwrap_or_default().iter().filter_map(|n| schema.index_of(n)) {
        wanted[slot] = true;
    }
    live_at(live, schema.arity(), |slot| wanted[slot])
}

/// Live column `j` (physical slot `live[j]`) at position `j` when `keep`
/// holds for its slot, cut after the last slot kept, so a decode stops
/// there.
fn live_at(live: &[usize], arity: usize, keep: impl Fn(usize) -> bool) -> SlotMap {
    let mut at = vec![None; arity];
    for (pos, &slot) in live.iter().enumerate() {
        if keep(slot) {
            at[slot] = Some(pos);
        }
    }
    at.truncate(at.iter().rposition(Option::is_some).map_or(0, |i| i + 1));
    at
}

/// Per live column, the store a columnar scan gathers from (`needed`
/// columns only), plus the store of the bound column.
struct ScanStores<'t> {
    gather: Vec<Option<&'t ColumnStore>>,
    bound: Option<&'t ColumnStore>,
}

/// What a scan's consumer evaluates over every row the scan hands it: the
/// post filter and the projection of a scan→filter→project prefix. A scan
/// that knows them may serve a page's rows without reading it
/// (DESIGN.md §33); one whose consumer is unknown is given none.
#[derive(Clone, Copy)]
pub(crate) struct ScanConsumer<'e> {
    pub(crate) filter: Option<&'e PhysExpr>,
    pub(crate) project: &'e [PhysExpr],
}

/// How a heap scan judges a page from its tag synopsis alone, from the
/// NULL-equivalence tags its expressions claim over the tagged column
/// ([`ScalarFn::null_tags`], DESIGN.md §33).
struct PageJudge<'e> {
    /// Per scan-filter conjunct that reads no column but the tagged one,
    /// and that one only through claiming calls: its tags, the conjunct,
    /// and, once evaluated over an all-NULL stand-in row, whether a page
    /// without its tags fails it.
    prune: Vec<(PageTags, &'e PhysExpr, Option<bool>)>,
    /// When the scan decodes no column but the tagged one and it, the
    /// filter and the consumer read that one only through claiming calls:
    /// their tags. A page holding none of them is served.
    serve: Option<PageTags>,
    /// Columns of a scan row, the rowid included.
    width: usize,
}

impl<'e> PageJudge<'e> {
    /// The judge for a scan of `t`, or `None` when no page can be
    /// answered unread.
    fn new(
        t: &Table,
        live: &[usize],
        at: &[Option<usize>],
        filter: Option<&'e PhysExpr>,
        consumer: Option<ScanConsumer<'e>>,
    ) -> Option<PageJudge<'e>> {
        let slot = t.tagged?;
        let col = live.iter().position(|&s| s == slot)?;
        let mut prune = Vec::new();
        for conjunct in filter.map(PhysExpr::conjuncts).unwrap_or_default() {
            let (mut tags, mut refs) = (Vec::new(), Vec::new());
            conjunct.column_refs(&mut refs);
            let only_claimed = conjunct.null_tags(col, &mut tags) && refs.iter().all(|&r| r == col);
            if only_claimed && !tags.is_empty() {
                prune.push((PageTags::of(tags), conjunct, None));
            }
        }
        let serve = consumer.and_then(|c| {
            let decodes_other = at.iter().enumerate().any(|(i, p)| p.is_some() && i != slot);
            let mut tags = Vec::new();
            let mut reads = filter.into_iter().chain(c.filter).chain(c.project);
            (!decodes_other && reads.all(|e| e.null_tags(col, &mut tags)))
                .then(|| PageTags::of(tags))
        });
        (!prune.is_empty() || serve.is_some())
            .then_some(PageJudge { prune, serve, width: live.len() + 1 })
    }

    /// Skip a page that lacks a conjunct's tags when that conjunct fails
    /// over NULL; serve one that lacks every tag the rows are read
    /// through; read the rest.
    fn judge(&mut self, set: &PageTags) -> PageUse {
        let width = self.width;
        for (tags, conjunct, fails) in &mut self.prune {
            if !set.intersects(tags) && *fails.get_or_insert_with(|| fails_on_null(conjunct, width))
            {
                return PageUse::Skip;
            }
        }
        match &self.serve {
            Some(tags) if !set.intersects(tags) => PageUse::Serve,
            _ => PageUse::Read,
        }
    }
}

/// Is `conjunct` FALSE or NULL over a `width`-column row of NULLs? An
/// evaluation error claims nothing.
fn fails_on_null(conjunct: &PhysExpr, width: usize) -> bool {
    matches!(conjunct.eval(&vec![Datum::Null; width]), Ok(Datum::Null | Datum::Bool(false)))
}

/// The slots a heap scan decodes before its filter and its probe filter
/// (`first`) and after them (`rest`), when those read only some of the
/// columns in `at` (scan-row positions `refs`); `None` when they read them
/// all and one decode serves.
fn late_slots(
    refs: &[usize],
    live: &[usize],
    at: &[Option<usize>],
) -> Option<(SlotMap, SlotMap)> {
    let pos = |slot: usize| at.get(slot).copied().flatten();
    let first = live_at(live, at.len(), |slot| pos(slot).is_some_and(|p| refs.contains(&p)));
    let rest = live_at(live, at.len(), |slot| pos(slot).is_some_and(|p| !refs.contains(&p)));
    (!rest.is_empty()).then_some((first, rest))
}

/// Row `k` (slot `slot`) of a segment scan, read in place as the scan row
/// it will become: `cols` views each filter column by live index.
struct SegRow<'r, 's> {
    cols: &'r [Option<SegColumn<'s>>],
    k: usize,
    slot: u32,
    rowid: &'r Datum,
}

impl ColumnSource for SegRow<'_, '_> {
    fn col(&self, i: usize) -> Option<&Datum> {
        match self.cols.get(i) {
            Some(Some(c)) => Some(c.get(self.k, self.slot)),
            Some(None) => Some(&NULL),
            None => (i == self.cols.len()).then_some(self.rowid),
        }
    }
}

/// Keep the `offsets` of segment `seg` whose row passes `filter` and
/// then, if it finds a build row, `keys` (DESIGN.md §40), read in place:
/// each store they read is viewed once ([`ColumnStore::view`], charged to
/// `kernel` like a gather), a column without one reads NULL as it would in
/// the gathered row, and the rowid is served at index `stores.len()`.
/// Each kept slot's build key number goes into `found`, and the slots
/// each filter dropped are counted into `scan`.
fn filter_segment(
    (filter, keys): (Option<&PhysExpr>, Option<&KeyFilter>),
    stores: &[Option<&ColumnStore>],
    (seg, base): (u64, usize),
    offsets: &mut Vec<u32>,
    found: &mut Vec<u32>,
    scan: &mut SegScan,
) -> DbResult<()> {
    let mut refs = Vec::new();
    filter.inspect(|f| f.column_refs(&mut refs));
    keys.inspect(|k| k.column_refs(&mut refs));
    let kernel = &mut scan.kernel;
    let mut cols: Vec<Option<SegColumn<'_>>> = stores.iter().map(|_| None).collect();
    for i in refs {
        if let (Some(Some(st)), Some(None)) = (stores.get(i), cols.get(i)) {
            cols[i] = Some(st.view(seg, offsets, kernel));
            kernel.decoded += offsets.len() as u64;
        }
    }
    let mut ctx = EvalCtx::new();
    let mut kept = 0;
    for k in 0..offsets.len() {
        let slot = offsets[k];
        let rowid = Datum::Int((base + slot as usize) as i64);
        let row = SegRow { cols: &cols, k, slot, rowid: &rowid };
        ctx.reset();
        if !filter.map_or(Ok(true), |f| f.eval_bool_over(&row, &mut ctx))? {
            scan.rejected += 1;
            continue;
        }
        if let Some(keys) = keys {
            match keys.find(&row, &mut ctx)? {
                Some(id) => found.push(id as u32),
                None => {
                    scan.unmatched += 1;
                    continue;
                }
            }
        }
        offsets[kept] = slot;
        kept += 1;
    }
    offsets.truncate(kept);
    Ok(())
}

/// A table scan's cursor (DESIGN.md §37): what a scan sets up once and
/// keeps for every run — slot maps, late-filter split, page judge (made
/// for the `tagged` slot), page buffer and scan row — and the row ids it
/// has yet to visit. Each run takes the table's read guard again. A
/// columnar or index cursor reads its column stores or its B-tree first
/// (`access`, DESIGN.md §38, §39) and goes on as this heap scan if it
/// loses them.
pub(crate) struct TableScan<'e> {
    db: &'e Database,
    vis: Vis,
    /// The executor's counters, which count the scan kind a cursor runs as.
    stats: &'e ExecStats,
    table: Arc<RwLock<Table>>,
    filter: Option<&'e PhysExpr>,
    /// Live columns by physical slot; the scan row holds them, then the
    /// rowid.
    live: Vec<usize>,
    width: usize,
    at: SlotMap,
    /// The late-decode split of `at` (DESIGN.md §28), when the filter and
    /// the probe filter read only some of its columns.
    late: Option<(SlotMap, SlotMap)>,
    /// An inner hash join's probe filter, once its build is done
    /// (DESIGN.md §40).
    keys: Option<Arc<KeyFilter>>,
    judge: Option<PageJudge<'e>>,
    tagged: Option<usize>,
    row: Row,
    page: Box<[u8]>,
    ids: Range<u64>,
    access: Option<Access<'e>>,
}

/// A scan pipeline's leaf (DESIGN.md §37–§39): the heap, the column
/// stores of a columnar path, or the B-tree of an index path. A cursor on
/// stores or a B-tree that cannot serve its reader goes on as the heap
/// scan.
#[derive(Clone, Copy, Default)]
pub(crate) enum ScanLeaf<'e> {
    #[default]
    Heap,
    /// A columnar path and its `bounds_cover_filter`.
    Store(&'e AccessPath, bool),
    /// An index path and the row cap its probe may take (a `LIMIT`'s,
    /// when every row the probe finds is an output row).
    Index(&'e AccessPath, Option<u64>),
}

/// What a cursor reads before, or instead of, the heap.
enum Access<'e> {
    Store(StoreScan<'e>),
    Index(IndexFetch<'e>),
}

/// What a columnar scan's cursor keeps across runs (DESIGN.md §38): the
/// segments it has yet to select and, of the current one (whose slot 0 is
/// row id `base`), the kept slots, the next to lend, and per gathered
/// column its scan-row position and its values at those slots, in
/// vectors reused for every segment. It gathers the `needed` columns the
/// scan's consumer reads (all of them unless told, DESIGN.md §40); a
/// column that only the filter or the probe filter reads is read in place.
struct StoreScan<'e> {
    path: &'e AccessPath,
    bounds_cover: bool,
    stats: &'e ExecStats,
    width: usize,
    segs: Range<u64>,
    /// The scan-row positions of the `needed` columns, each with a store.
    stored: Vec<usize>,
    /// The cursor's probe filter, tested in the segment.
    keys: Option<Arc<KeyFilter>>,
    cols: Vec<(usize, Vec<Datum>)>,
    offsets: Vec<u32>,
    /// Per kept slot, the build key the probe filter found, if it ran.
    found: Vec<u32>,
    base: u64,
    next: usize,
}

/// What an index scan's cursor keeps across runs (DESIGN.md §39): its
/// path and probe cap, the row ids the first run's probe found, in row-id
/// order, the next to fetch, and the buffer each fetched tuple is copied
/// into.
struct IndexFetch<'e> {
    path: &'e AccessPath,
    cap: Option<u64>,
    rowids: Option<Vec<u64>>,
    next: usize,
    bytes: Vec<u8>,
}

impl<'e> TableScan<'e> {
    /// A cursor over the live rows of `table` with row ids in `ids` (one
    /// morsel, or `0..u64::MAX` for the whole table) that pass `filter`,
    /// read from `leaf`'s stores or B-tree when they serve this reader (a
    /// columnar morsel's `ids` are then whole segments). Its column maps
    /// are fixed here: a column added or dropped while the scan runs does
    /// not change the shape of its rows.
    pub(crate) fn open(
        exec: &'e Executor<'_>,
        table: &str,
        needed: Option<&[String]>,
        filter: Option<&'e PhysExpr>,
        consumer: Option<ScanConsumer<'e>>,
        leaf: ScanLeaf<'e>,
        ids: Range<u64>,
    ) -> DbResult<TableScan<'e>> {
        let (src, stats) = (exec.source, exec.stats);
        let handle = src.db.table(table)?;
        let t = handle.read();
        let live: Vec<usize> = t.schema.live_columns().map(|(i, _)| i).collect();
        let at = scan_at(&t.schema, &live, needed);
        let judge = PageJudge::new(&t, &live, &at, filter, consumer);
        let tagged = t.tagged;
        let access = match leaf {
            ScanLeaf::Heap => None,
            ScanLeaf::Store(path, bounds_cover) => src.columnar_stores(&t, path).and_then(|st| {
                let stored: Vec<usize> =
                    st.gather.iter().enumerate().filter_map(|(pos, st)| st.map(|_| pos)).collect();
                // Stores advance in lockstep with the heap, so any one's
                // segment count covers every live rowid.
                let n = t.columnar.iter().map(ColumnStore::n_segments).max()?;
                let seg = SEG_ROWS as u64;
                Some(Access::Store(StoreScan {
                    path,
                    bounds_cover,
                    stats,
                    width: live.len(),
                    segs: ids.start / seg..n.min(ids.end.div_ceil(seg)),
                    cols: stored.iter().map(|&pos| (pos, Vec::new())).collect(),
                    stored,
                    keys: None,
                    offsets: Vec::new(),
                    found: Vec::new(),
                    base: 0,
                    next: 0,
                }))
            }),
            ScanLeaf::Index(path, cap) => {
                let (rowids, next, bytes) = (None, 0, Vec::new());
                Some(Access::Index(IndexFetch { path, cap, rowids, next, bytes }))
            }
        };
        drop(t);
        let mut scan = TableScan {
            db: src.db,
            vis: src.vis,
            stats,
            table: handle,
            filter,
            width: live.len(),
            live,
            at,
            late: None,
            keys: None,
            judge,
            tagged,
            row: Vec::new(),
            page: vec![0u8; PAGE_SIZE].into_boxed_slice(),
            ids,
            access,
        };
        scan.split_late();
        Ok(scan)
    }

    /// Filter the cursor's rows by an inner hash join's build keys from
    /// its next run on (DESIGN.md §40): after the scan filter, and before
    /// the rest of a heap row is decoded or a stored row is gathered. The
    /// key's columns join the filter's among those a heap scan decodes
    /// first.
    pub(crate) fn filter_keys(&mut self, keys: Arc<KeyFilter>) {
        if let Some(Access::Store(st)) = &mut self.access {
            st.keys = Some(Arc::clone(&keys));
        }
        self.keys = Some(keys);
        self.split_late();
    }

    /// Split the heap decode at what the filter and the probe filter read
    /// (DESIGN.md §28, §40).
    fn split_late(&mut self) {
        let mut refs = Vec::new();
        self.filter.inspect(|fl| fl.column_refs(&mut refs));
        self.keys.as_deref().inspect(|k| k.column_refs(&mut refs));
        let tested = self.filter.is_some() || self.keys.is_some();
        self.late = tested.then(|| late_slots(&refs, &self.live, &self.at)).flatten();
    }

    /// Gather only the scan-row positions in `reads` from the column
    /// stores: the rest of the row is read by no one after the filters.
    pub(crate) fn gather_only(&mut self, reads: &[usize]) {
        if let Some(Access::Store(st)) = &mut self.access {
            st.cols.retain(|(pos, _)| reads.contains(pos));
        }
    }

    /// Whether the cursor has visited its last row.
    pub(crate) fn done(&self) -> bool {
        self.ids.is_empty()
    }

    /// Count a whole-table cursor as the scan it opened as: columnar when
    /// it reads column stores, serial when it reads the heap. An index
    /// cursor counts when its probe runs.
    pub(crate) fn count_open(&self) {
        match self.access {
            Some(Access::Store(_)) => self.stats.columnar_scans.inc(),
            Some(Access::Index(_)) => {}
            None => self.stats.serial_scans.inc(),
        }
    }

    /// Stream the cursor's rows that pass its filter, in rowid order,
    /// from where the last run stopped. `ctx` is reset once per row,
    /// before the filter, and handed to `f` with the passing row, so memo
    /// slots the filter filled still hold for the caller's post filter and
    /// projection. Every row is decoded into the one scan row the cursor
    /// keeps, which `f` is lent: it may read the row, or take it whole
    /// (DESIGN.md §35). `f` returns `false` to stop the run after its row;
    /// the next run resumes after it. Returns the rows visited. A cursor on
    /// its column stores or its B-tree lends their rows (DESIGN.md §38,
    /// §39); if it loses them it goes on, in the same run, as the heap
    /// scan from the row id after the last row it lent.
    pub(crate) fn run(
        &mut self,
        ctx: &mut EvalCtx,
        f: &mut dyn FnMut(&mut Row, &mut EvalCtx) -> DbResult<bool>,
    ) -> DbResult<u64> {
        let lent = match &mut self.access {
            None => return self.run_heap(ctx, f),
            Some(Access::Store(st)) => {
                let src = SnapSource { db: self.db, vis: self.vis };
                st.run(&src, &self.table, &mut self.row, &mut self.ids, ctx, f)?
            }
            Some(Access::Index(_)) => self.run_index(ctx, f)?,
        };
        if let Some(lent) = lent {
            return Ok(lent);
        }
        // The stores or the index are lost: the cursor goes on as a heap scan.
        self.stats.serial_scans.inc();
        self.access = None;
        self.run_heap(ctx, f)
    }

    /// The heap scan. When the filter and the probe filter read only some
    /// of the `needed` columns, those are decoded first and the rest only
    /// for a row that passes both (DESIGN.md §28, §40). A page whose tag
    /// synopsis rules out a filter conjunct is not read (DESIGN.md §32);
    /// nor is one that lacks every key the filter and the consumer read,
    /// whose visible rows are served with the tagged column NULL
    /// (DESIGN.md §33). The table's read guard is held while `f` reads
    /// each row.
    fn run_heap(
        &mut self,
        ctx: &mut EvalCtx,
        f: &mut dyn FnMut(&mut Row, &mut EvalCtx) -> DbResult<bool>,
    ) -> DbResult<u64> {
        let TableScan {
            db, vis, table, filter, width, at, late, keys, judge, tagged, row, page, ids, ..
        } = self;
        let t = table.read();
        if t.tagged != *tagged {
            // The synopsis now tags another column than the judge's.
            *judge = None;
        }
        let schema = &t.schema;
        let (filter, width, keys) = (*filter, *width, keys.as_deref());
        let mut judge_page =
            |set: &PageTags| judge.as_mut().map_or(PageUse::Read, |j| j.judge(set));
        let (mut fetched, mut served, mut rejected, mut unmatched) = (0u64, 0u64, 0u64, 0u64);
        let mut stop = None;
        let res = t.heap.scan_range_vis(
            ids.start,
            ids.end,
            *vis,
            page,
            Some(&mut judge_page),
            |rowid, bytes| {
                shape_row(row, width, rowid);
                // The bytes still to decode after the filters, and where.
                let rest = match (bytes, &*late) {
                    (None, _) => {
                        served += 1;
                        at.iter().flatten().for_each(|&p| row[p] = Datum::Null);
                        None
                    }
                    (Some(bytes), None) => {
                        fetched += 1;
                        tuple::decode_into(schema, bytes, at, row)?;
                        None
                    }
                    (Some(bytes), Some((first, rest))) => {
                        fetched += 1;
                        // The `rest` positions still hold an earlier row's
                        // values, which the filters do not read.
                        tuple::decode_into(schema, bytes, first, row)?;
                        Some((bytes, rest))
                    }
                };
                ctx.reset();
                if let Some(fl) = filter {
                    if !fl.eval_bool_ctx(row, ctx)? {
                        rejected += u64::from(rest.is_some());
                        return Ok(true);
                    }
                }
                if let Some(keys) = keys {
                    ctx.found_key = keys.find(row.as_slice(), ctx)?;
                    if ctx.found_key.is_none() {
                        unmatched += 1;
                        return Ok(true);
                    }
                }
                if let Some((bytes, rest)) = rest {
                    tuple::decode_into(schema, bytes, rest, row)?;
                }
                let go = f(row, ctx)?;
                if !go {
                    stop = Some(rowid + 1);
                }
                Ok(go)
            },
        );
        ids.start = stop.unwrap_or(ids.end);
        let stats = &db.exec_stats;
        if fetched > 0 {
            stats.heap_fetches.add(fetched);
        }
        if rejected > 0 {
            stats.scan_rows_rejected_early.add(rejected);
        }
        if unmatched > 0 {
            stats.join_probe_rows_rejected.add(unmatched);
        }
        let unread = res?;
        if unread.skipped > 0 {
            stats.scan_pages_skipped.add(unread.skipped);
        }
        if unread.served > 0 {
            stats.scan_pages_served.add(unread.served);
        }
        Ok(fetched + served)
    }

    /// The index scan (DESIGN.md §39). The first run probes the B-tree
    /// under the table's read guard, if this reader may trust it, and
    /// keeps the row ids in range, sorted; every run then fetches the
    /// listed rows this reader sees from where the last one stopped. Each
    /// row is fetched and decoded under the read guard, and tested against
    /// the filter and lent outside it. Returns the rows fetched, or `None`
    /// if the index cannot serve this reader: that is known before any row
    /// is lent, so the heap scan goes on from row id 0.
    fn run_index(
        &mut self,
        ctx: &mut EvalCtx,
        f: &mut dyn FnMut(&mut Row, &mut EvalCtx) -> DbResult<bool>,
    ) -> DbResult<Option<u64>> {
        let TableScan { db, vis, stats, table, filter, keys, width, at, row, ids, access, .. } =
            self;
        let Some(Access::Index(ix)) = access else { unreachable!("an index cursor") };
        let rowids = match &mut ix.rowids {
            Some(rowids) => rowids,
            None => {
                let t = table.read();
                let src = SnapSource { db, vis: *vis };
                let Some(index) = src.trusted_index(&t, ix.path) else { return Ok(None) };
                let mut found = index.lookup_range(&ix.path.range, ix.cap.map(|c| c as usize))?;
                // Heap scans emit rows in rowid order; match it exactly.
                found.sort_unstable();
                stats.index_scans.inc();
                ix.rowids.insert(found)
            }
        };
        let (mut fetched, mut unmatched) = (0u64, 0u64);
        while let Some(&rowid) = rowids.get(ix.next) {
            ix.next += 1;
            {
                let t = table.read();
                if !t.heap.get_vis_into(rowid, *vis, &mut ix.bytes)? {
                    continue;
                }
                fetched += 1;
                shape_row(row, *width, rowid);
                tuple::decode_into(&t.schema, &ix.bytes, at, row)?;
            }
            ctx.reset();
            if !filter.map_or(Ok(true), |fl| fl.eval_bool_ctx(row, ctx))? {
                continue;
            }
            if let Some(keys) = keys {
                ctx.found_key = keys.find(row.as_slice(), ctx)?;
                if ctx.found_key.is_none() {
                    unmatched += 1;
                    continue;
                }
            }
            if !f(row, ctx)? {
                break;
            }
        }
        if ix.next == rowids.len() {
            ids.start = ids.end;
        }
        if fetched > 0 {
            db.exec_stats.heap_rowid_fetches.add(fetched);
        }
        if unmatched > 0 {
            db.exec_stats.join_probe_rows_rejected.add(unmatched);
        }
        Ok(Some(fetched))
    }
}

/// Give `row` the scan-row shape, `width` columns then the rowid: a
/// position no decode writes is NULL from here on, and one the decode
/// writes is written for every row.
fn shape_row(row: &mut Row, width: usize, rowid: u64) {
    if row.len() != width + 1 {
        row.clear();
        row.resize(width + 1, Datum::Null);
    }
    row[width] = Datum::Int(rowid as i64);
}

impl SnapSource<'_> {
    /// The secondary index on `path.column`, if this reader may trust it.
    /// Indexes cover only latest-committed rows and may still carry
    /// queued-for-vacuum keys, so any version activity (or garbage) sends
    /// the reader to the seq scan, which resolves visibility per row.
    fn trusted_index<'t>(&self, t: &'t Table, path: &AccessPath) -> Option<&'t SecondaryIndex> {
        if !t.heap.vis_quiet(self.vis) || !t.garbage.is_empty() {
            return None;
        }
        t.indexes.iter().find(|ix| Some(ix.column()) == path.column.as_deref())
    }

    /// The stores a columnar scan of `path` reads, or `None` when the table
    /// cannot answer the scan entirely from column-store segments at this
    /// visibility.
    fn columnar_stores<'t>(&self, t: &'t Table, path: &AccessPath) -> Option<ScanStores<'t>> {
        if t.columnar.is_empty() || !t.columnar_usable(self.vis) {
            return None;
        }
        // Wildcard scans can't be reconstructed from column stores.
        let names = path.needed.as_deref()?;
        let store = |name: &str| t.columnar.iter().find(|cs| cs.column() == name);
        if names.iter().any(|n| n != "_rowid" && store(n).is_none()) {
            return None;
        }
        let gather = t
            .schema
            .live_columns()
            .map(|(_, c)| names.contains(&c.name).then(|| store(&c.name)).flatten())
            .collect();
        let bound = match path.column.as_deref() {
            Some(bc) => Some(store(bc)?),
            None => None,
        };
        Some(ScanStores { gather, bound })
    }

    /// Whether the column stores can answer a columnar scan of `path`
    /// for this reader now.
    pub(crate) fn columnar_serves(&self, path: &AccessPath) -> DbResult<bool> {
        let t = self.db.table(&path.table)?;
        let t = t.read();
        Ok(self.columnar_stores(&t, path).is_some())
    }
}

impl StoreScan<'_> {
    /// Lend the kept rows from where the last run stopped, selecting the
    /// next segment whenever the current one is used up: a selection holds
    /// the table's read guard, a lend none (DESIGN.md §38). A kept slot's
    /// gathered values move into the one scan `row`, the row id after
    /// them, and `ids.start` follows the last row lent. Returns the rows
    /// lent, or `None` if the stores were lost: the caller then goes on as
    /// the heap scan from `ids.start`.
    fn run(
        &mut self,
        src: &SnapSource<'_>,
        table: &RwLock<Table>,
        row: &mut Row,
        ids: &mut Range<u64>,
        ctx: &mut EvalCtx,
        f: &mut dyn FnMut(&mut Row, &mut EvalCtx) -> DbResult<bool>,
    ) -> DbResult<Option<u64>> {
        let (width, mut lent) = (self.width, 0);
        loop {
            while let Some(&slot) = self.offsets.get(self.next) {
                let rowid = self.base + slot as u64;
                shape_row(row, width, rowid);
                for (pos, vals) in &mut self.cols {
                    row[*pos] = std::mem::replace(&mut vals[self.next], Datum::Null);
                }
                // The filters ran in the segment: the consumer's memo
                // starts clean, with the build key the probe filter found.
                ctx.reset();
                ctx.found_key = self.found.get(self.next).map(|&id| id as usize);
                (self.next, ids.start, lent) = (self.next + 1, rowid + 1, lent + 1);
                if !f(row, ctx)? {
                    return Ok(Some(lent));
                }
            }
            let Some(seg) = self.segs.next() else {
                ids.start = ids.end;
                return Ok(Some(lent));
            };
            let Some(scan) = self.select(src, &table.read(), seg)? else { return Ok(None) };
            self.stats.record_segment(&scan);
        }
    }

    /// Select segment `seg` under the read guard of its table `t`: keep
    /// the live slots whose bound column value falls in `path.range`, that
    /// this reader sees, that pass `path.filter` and whose key finds a row
    /// of the join the scan probes (DESIGN.md §40), and gather the columns
    /// the consumer reads at them. The filter is skipped where the bounds
    /// prove it (`path.exact_bounds`, or `bounds_cover` on a segment whose
    /// zone map makes the kernel exact); otherwise it and the probe filter
    /// read their columns in place (DESIGN.md §28). `None` when the stores
    /// cannot serve this reader now, or the table's columns moved since
    /// the scan opened.
    fn select(&mut self, src: &SnapSource<'_>, t: &Table, seg: u64) -> DbResult<Option<SegScan>> {
        let (path, bounds_cover) = (self.path, self.bounds_cover);
        let Some(ScanStores { gather: stores, bound }) = src.columnar_stores(t, path) else {
            return Ok(None);
        };
        let gathered = stores.iter().enumerate().filter_map(|(pos, st)| st.map(|_| pos));
        // Liveness authority: every store carries the same live bitmap.
        let any_store = bound.or_else(|| t.columnar.first());
        let (Some(any_store), true) =
            (any_store, stores.len() == self.width && gathered.eq(self.stored.iter().copied()))
        else {
            return Ok(None);
        };
        let (offsets, range) = (&mut self.offsets, &path.range);
        (self.base, self.next) = (seg * SEG_ROWS as u64, 0);
        offsets.clear();
        let (mut scan, mut exact) = (SegScan::default(), false);
        if seg >= any_store.n_segments() {
            return Ok(Some(scan));
        }
        match bound.filter(|_| !range.is_unbounded()) {
            Some(bs) if bs.zone_prunes(seg, range) => {
                scan.pruned = true;
                return Ok(Some(scan));
            }
            Some(bs) => {
                scan.kernel.merge(&bs.select_segment(seg, range, offsets));
                // Per-segment exactness: the zone map proves every live
                // value shares the class of every present bound, so kernel
                // emission equals the SQL match set for this segment.
                let class = bs.segment_value_class(seg);
                let mut bounds = [&range.lo, &range.hi].into_iter().flatten();
                exact = class.is_some() && bounds.all(|d| d.exactness_class() == class);
            }
            None => any_store.live_slots(seg, offsets),
        }
        // Drop rows born after this reader's snapshot (tags are mirrored
        // across a table's stores, so any one store can filter).
        any_store.filter_visible(seg, src.vis.read_ts, offsets);
        let skip_filter = path.exact_bounds || (bounds_cover && exact);
        let filter = path.filter.as_ref().filter(|_| !skip_filter);
        let keys = self.keys.as_deref();
        self.found.clear();
        if filter.is_some() || keys.is_some() {
            let at = (seg, self.base as usize);
            filter_segment((filter, keys), &stores, at, offsets, &mut self.found, &mut scan)?;
        }
        for (pos, vals) in &mut self.cols {
            let st = stores[*pos].expect("a gathered column has a store");
            vals.clear();
            st.gather(seg, offsets, vals, &mut scan.kernel);
            scan.kernel.decoded += offsets.len() as u64;
        }
        Ok(Some(scan))
    }
}
