//! Plan execution: a pull-based streaming block engine (default) plus the
//! original materializing operator-at-a-time engine as differential oracle.
//!
//! The streaming engine lives in [`crate::block`]: operators pull
//! [`crate::block::RowBlock`]s of ~[`ExecLimits::block_rows`] rows from their child,
//! so `LIMIT` propagates an early-stop all the way into `Heap::scan` and
//! peak memory for scan-heavy plans is O(block), not O(table). It also owns
//! the morsel-parallel scan→filter→project prefix (`ParallelScanOp`) and
//! the parallel pipeline breakers, which run on one crew of
//! [`ExecLimits::exec_threads`] threads per statement (`crate::crew`).
//!
//! The materializing engine below (`run_materialize`, reachable via
//! [`ExecMode::Materialize`]) keeps the old semantics — every operator
//! consumes fully materialized child output — and the two must produce
//! byte-identical results. It is the reference the equivalence suites
//! compare against, so it is deliberately *serial* at any thread count: a
//! reference with its own parallel implementation would be a second
//! implementation to keep right (DESIGN.md §18). Its scans still stream
//! pages through the buffer pool (so I/O behaviour is real), and the CPU
//! cost of tuple decoding and UDF extraction — the quantities Sinew's
//! design targets — is paid per row exactly where Postgres would pay it.

use crate::datum::{Datum, GroupKey};
use crate::error::{DbError, DbResult};
use crate::expr::{EvalCtx, PhysExpr};
use crate::agg::Accumulator;
use crate::crew::Crew;
use crate::db::SnapSource;
use crate::plan::{AccessPath, AggSpec, Plan, SortKey};
use std::collections::HashMap;

pub type Row = Vec<Datum>;

/// One segment's worth of columnar scan output.
#[derive(Debug, Default)]
pub struct SegScan {
    /// Candidate rows in rowid order, heap-scan shaped.
    pub rows: Vec<Row>,
    /// Kernel engagement for this segment (decodes, batched decodes,
    /// fastpath words, dictionary rewrites, RLE run skips).
    pub kernel: crate::kernels::KernelStats,
    /// Candidate slots the residual filter rejected before their row was
    /// gathered.
    pub rejected: u64,
    /// True when the bound column's zone map excluded the whole segment.
    pub pruned: bool,
    /// True when the segment's zone map proves every live value shares the
    /// exactness class of all present bounds, so kernel emission equals
    /// the SQL match set and the residual filter may be skipped whenever
    /// the planner marked the plan `bounds_cover_filter`.
    pub exact: bool,
}

/// Answer from `SnapSource::index_only_probe`.
#[derive(Debug)]
pub struct IndexOnlyProbe {
    /// Matching (key, rowid) pairs, sorted by rowid.
    pub entries: Vec<(Datum, u64)>,
    /// Width of the table's live-column prefix in scan-row shape.
    pub n_live_cols: usize,
    /// Scan-row slot of the indexed column.
    pub key_slot: usize,
}

impl IndexOnlyProbe {
    /// The entries as scan-shaped rows: NULL everywhere but the key's slot
    /// and the trailing rowid.
    pub(crate) fn into_rows(self) -> impl Iterator<Item = Row> {
        let IndexOnlyProbe { entries, n_live_cols, key_slot } = self;
        entries.into_iter().map(move |(key, rowid)| {
            let mut row: Row = vec![Datum::Null; n_live_cols + 1];
            row[key_slot] = key;
            row[n_live_cols] = Datum::Int(rowid as i64);
            row
        })
    }
}

/// Which execution engine `Executor::run` drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// Pull-based block pipeline (`crate::block`): the default.
    #[default]
    Streaming,
    /// Original operator-at-a-time engine; kept as differential oracle.
    Materialize,
}

/// Execution limits: a crude statement-level resource governor. The EAV
/// baseline's self-joins exhaust intermediate space exactly like the paper's
/// runs that "ran out of disk space" (§6.4–6.5); this cap reproduces that
/// failure mode deterministically.
#[derive(Debug, Clone, Copy)]
pub struct ExecLimits {
    /// Max rows any single operator may materialize. The streaming engine
    /// charges this per block as rows accumulate in pipeline breakers and
    /// at the root, so it never charges *more* than the materializing
    /// engine (and may succeed where full materialization would not).
    pub max_intermediate_rows: u64,
    /// Threads per statement: its own plus up to `exec_threads − 1`
    /// helpers of its crew (DESIGN.md §26); 1 forces the serial path.
    /// Defaults to the available parallelism.
    pub exec_threads: usize,
    /// Target rows per streaming block (default 1024; clamped to ≥ 1).
    pub block_rows: usize,
    /// Engine selection (default streaming).
    pub mode: ExecMode,
}

impl Default for ExecLimits {
    fn default() -> Self {
        ExecLimits {
            max_intermediate_rows: 50_000_000,
            exec_threads: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
            block_rows: 1024,
            mode: ExecMode::Streaming,
        }
    }
}

crate::counter_table! {
    /// Engine counters, owned by `Database` and folded into the storage
    /// report. All updates are relaxed atomics — workers never lock.
    live ExecStats;
    /// A plain-data copy of [`ExecStats`] at one point in time.
    snapshot ExecSnapshot;

    /// Scans run through the morsel-parallel pipeline.
    executor parallel_scans: counter,
    /// Scans run on the calling thread.
    executor serial_scans: counter,
    /// Morsels handed to scan workers.
    executor morsels_dispatched: counter,
    /// Threads (the statement's crew, its own thread included) that could
    /// claim morsels, summed over parallel scans.
    executor scan_workers: counter,
    /// Live rows visited per finished morsel.
    executor rows_per_morsel: histogram,
    /// Rows a heap or columnar scan's filter rejected before the rest of
    /// the row was decoded or gathered (DESIGN.md §28). A heap scan whose
    /// filter reads every needed column decodes once and counts nothing.
    executor scan_rows_rejected_early: counter,
    /// Helper threads spawned for statement crews: at most
    /// `exec_threads − 1` per statement, none at one thread (DESIGN.md §26).
    executor exec_helpers_spawned: counter,
    /// Nanoseconds a statement's own thread slept waiting for a morsel or
    /// job it could not run itself, one sample per wait.
    executor crew_wait_ns: histogram,

    /// Blocks delivered to the streaming engine's root accumulator.
    streaming blocks_emitted: counter,
    /// Streams terminated before the child was exhausted (LIMIT satisfied).
    streaming early_stops: counter,
    /// High-water mark of rows resident in one statement's pipeline
    /// (root accumulator + operator buffers) — O(block) for streaming
    /// scans, O(table) for the materializing oracle.
    streaming peak_resident_rows: max,
    /// Rows per block reaching the streaming root.
    streaming rows_per_block: histogram,

    /// Index-scan executions taken instead of a heap scan.
    index_access index_scans: counter,
    /// Rows fed into index bulk builds (CREATE INDEX over existing data).
    index_access index_build_rows: counter,
    /// Individual index entry insert/remove operations from DML maintenance.
    index_access index_maintenance_ops: counter,

    /// Columnar segment-scan executions taken instead of a heap scan.
    columnar_access columnar_scans: counter,
    /// Segments skipped outright because their zone map excluded the bounds.
    columnar_access segments_pruned: counter,
    /// Covering index-only scan executions (zero heap page reads).
    columnar_access index_only_scans: counter,
    /// Rows materialized from heap pages (scans + rowid fetches) — the
    /// quantity a covering scan avoids; benches assert it stays flat.
    columnar_access heap_fetches: counter,
    /// Value-level decodes/compares charged per scanned segment.
    columnar_access decoded_per_block: histogram,

    /// Values decoded through the 64-wide batched kernel paths.
    kernels values_decoded_batched: counter,
    /// Predicates rewritten to packed dictionary-code ranges.
    kernels dict_code_rewrites: counter,
    /// RLE runs rejected with a single run-level compare.
    kernels rle_runs_skipped: counter,
    /// Whole 64-slot bitmap words handled by a selection fast path
    /// (all-dead skip, all-match emit) without per-slot work.
    kernels selection_fastpath_hits: counter,

    /// Rows hashed into hash-join build tables.
    parallel_breakers join_build_rows: counter,
    /// Morsels of a parallel scan probed in place by a hash join
    /// (DESIGN.md §30).
    parallel_breakers join_probe_morsels: counter,
    /// Pre-aggregated morsel or chunk tables merged by parallel hash
    /// aggregation (DESIGN.md §29).
    parallel_breakers agg_partition_merges: counter,
    /// Aggregations with a crew that folded all or part of their input
    /// serially: a DISTINCT aggregate, or a table that would not merge
    /// exactly (a float sum, an integer sum overflowing).
    parallel_breakers agg_serial_fallbacks: counter,
    /// Sorts executed through the parallel run-sort + k-way-merge path.
    parallel_breakers parallel_sorts: counter,
    /// EXPLAIN / EXPLAIN ANALYZE statements executed.
    parallel_breakers explain_runs: counter,

    /// Nanoseconds planning and binding a statement, per preparation of a
    /// `SELECT`, `EXPLAIN`, `UPDATE` or `DELETE` (DESIGN.md §23).
    planner plan_ns: histogram,

    /// Frames appended to the write-ahead log (page images + commit
    /// markers + checkpoints). The `wal` rows stay zero without a log.
    wal wal_appends: counter,
    /// Commit markers appended (statement boundaries).
    wal wal_commits: counter,
    /// fdatasync calls on the log (group commit batches these).
    wal wal_fsyncs: counter,
    /// Checkpoint passes (log rewritten from a fresh snapshot).
    wal wal_checkpoints: counter,
    /// Crash recoveries performed on open.
    wal wal_recoveries: counter,
    /// Committed page images replayed into the data file by recovery.
    wal wal_recovered_pages: counter,
    /// Bytes appended to the log.
    wal wal_bytes: counter,

    /// Explicit transactions opened with BEGIN (DESIGN.md §16).
    mvcc txns_begun: counter,
    /// Explicit transactions that reached COMMIT successfully.
    mvcc txns_committed: counter,
    /// Explicit transactions rolled back (user ROLLBACK or conflict abort).
    mvcc txns_aborted: counter,
    /// First-writer-wins write-write conflicts detected.
    mvcc write_conflicts: counter,
    /// Superseded row versions retained for concurrent snapshots.
    mvcc versions_created: counter,
    /// Retained versions / garbage items reclaimed by vacuum.
    mvcc versions_vacuumed: counter,
    /// Read snapshots currently registered; `Database::exec_stats` fills
    /// it in from the transaction manager.
    mvcc live_snapshots: overlay,
    /// Age of the oldest registered read snapshot (vacuum lag), filled in
    /// like `live_snapshots`.
    mvcc oldest_snapshot_age_ms: overlay,
}

impl ExecStats {
    /// Record one block of `rows` rows reaching the streaming root.
    pub fn record_block(&self, rows: u64) {
        self.blocks_emitted.inc();
        self.rows_per_block.record(rows);
    }

    /// Raise the resident-row high-water mark to at least `rows`.
    pub fn note_resident(&self, rows: u64) {
        self.peak_resident_rows.raise_to(rows);
    }

    /// Fold one scanned segment into the counters: skipped outright by its
    /// zone map, or the decode/kernel work it cost.
    pub(crate) fn record_segment(&self, scan: &SegScan) {
        if scan.pruned {
            self.segments_pruned.inc();
            return;
        }
        let k = &scan.kernel;
        self.scan_rows_rejected_early.add(scan.rejected);
        self.decoded_per_block.record(k.decoded);
        self.values_decoded_batched.add(k.batched);
        self.dict_code_rewrites.add(k.dict_rewrites);
        self.rle_runs_skipped.add(k.rle_runs_skipped);
        self.selection_fastpath_hits.add(k.fastpath_words);
    }
}

/// One statement's execution context: where rows come from (a table
/// source pinned to one visibility), the limits in force, and the counters
/// to feed.
pub(crate) struct Executor<'a> {
    pub(crate) source: &'a SnapSource<'a>,
    pub(crate) limits: ExecLimits,
    pub(crate) stats: &'a ExecStats,
}

/// Below this many rows of work an operator stays serial: handing jobs to
/// the crew would cost more than the work they take off the statement's
/// thread (measured in DESIGN.md §26).
const MIN_PARALLEL_ROWS: usize = 512;

impl Executor<'_> {
    /// The one rule for going parallel (DESIGN.md §26): the statement has
    /// a crew — it has one exactly when `exec_threads > 1` — and at least
    /// [`MIN_PARALLEL_ROWS`] rows of work. Scans pass their table's row-id
    /// high-water mark, pipeline breakers the rows they hold.
    pub(crate) fn parallel<'c, 'x>(
        &self,
        crew: Option<&'c Crew<'c, 'x>>,
        rows: usize,
    ) -> Option<&'c Crew<'c, 'x>> {
        crew.filter(|_| self.limits.exec_threads > 1 && rows >= MIN_PARALLEL_ROWS)
    }

    /// Execute `plan` with the engine selected by `limits.mode`. Both
    /// engines produce byte-identical results (the streaming engine's
    /// equivalence tests enforce this across block sizes and thread
    /// counts); they differ in peak memory and early-stop behaviour.
    pub(crate) fn run(&self, plan: &Plan) -> DbResult<Vec<Row>> {
        match self.limits.mode {
            ExecMode::Streaming => crate::block::run_streaming(self, plan),
            ExecMode::Materialize => self.run_materialize(plan),
        }
    }

    /// Operator-at-a-time oracle: every operator fully materializes its
    /// child's output. Records each intermediate's size so the
    /// peak-resident metric is comparable with the streaming engine.
    pub(crate) fn run_materialize(&self, plan: &Plan) -> DbResult<Vec<Row>> {
        let rows = self.run_materialize_inner(plan)?;
        self.stats.note_resident(rows.len() as u64);
        Ok(rows)
    }

    /// Append `row` to `out` if it passes `filter`, charging the
    /// intermediate-row cap — the tail every scan arm shares.
    fn admit(
        &self,
        filter: Option<&PhysExpr>,
        ctx: &mut EvalCtx,
        out: &mut Vec<Row>,
        row: Row,
    ) -> DbResult<()> {
        if passes(filter, ctx, &row)? {
            out.push(row);
            self.check_limit(out.len())?;
        }
        Ok(())
    }

    fn seq_scan(
        &self,
        table: &str,
        filter: Option<&PhysExpr>,
        needed: Option<&[String]>,
    ) -> DbResult<Vec<Row>> {
        self.stats.serial_scans.inc();
        let mut out = Vec::new();
        // The reference builds every row whole and filters it after.
        let mut ctx = EvalCtx::new();
        let mut admit = |row, ctx: &mut EvalCtx| {
            self.admit(filter, ctx, &mut out, row)?;
            Ok(true)
        };
        self.source.scan_table_range(table, needed, None, 0..u64::MAX, &mut ctx, &mut admit)?;
        Ok(out)
    }

    /// The index or column store behind `path` is gone (dropped or demoted
    /// since planning, or unusable at this visibility): run the equivalent
    /// sequential scan — same filter, same projection, same output. Also
    /// correct mid-scan, because nothing has escaped a materializing
    /// operator before it returns.
    fn heap_fallback(&self, path: &AccessPath) -> DbResult<Vec<Row>> {
        self.seq_scan(&path.table, path.filter.as_ref(), path.needed.as_deref())
    }

    fn run_materialize_inner(&self, plan: &Plan) -> DbResult<Vec<Row>> {
        match plan {
            Plan::SeqScan { table, filter, needed, .. } => {
                self.seq_scan(table, filter.as_ref(), needed.as_deref())
            }
            Plan::IndexScan(path) => {
                // The materializing engine never pushes LIMIT down.
                let Some(mut rowids) = self.source.index_lookup(path, None)? else {
                    return self.heap_fallback(path);
                };
                self.stats.index_scans.inc();
                // Heap scans emit rows in rowid order; match it exactly.
                rowids.sort_unstable();
                let mut out = Vec::new();
                let mut ctx = EvalCtx::new();
                self.source.fetch_rows(&path.table, path.needed.as_deref(), &rowids, &mut |row| {
                    self.admit(path.filter.as_ref(), &mut ctx, &mut out, row)?;
                    Ok(true)
                })?;
                Ok(out)
            }
            Plan::ColumnarScan { path, bounds_cover_filter } => {
                let Some(n_segments) = self.source.columnar_meta(path)? else {
                    return self.heap_fallback(path);
                };
                self.stats.columnar_scans.inc();
                let mut out = Vec::new();
                let mut ctx = EvalCtx::new();
                for seg in 0..n_segments {
                    // The segment applies the residual filter itself.
                    let Some(scan) =
                        self.source.columnar_scan_segment(path, *bounds_cover_filter, seg)?
                    else {
                        return self.heap_fallback(path);
                    };
                    self.stats.record_segment(&scan);
                    for row in scan.rows {
                        self.admit(None, &mut ctx, &mut out, row)?;
                    }
                }
                Ok(out)
            }
            Plan::IndexOnlyScan(path) => {
                // The materializing engine never pushes LIMIT down.
                let Some(probe) = self.source.index_only_probe(path, None)? else {
                    return self.heap_fallback(path);
                };
                self.stats.index_only_scans.inc();
                let filter = path.filter.as_ref().filter(|_| !path.exact_bounds);
                let mut out = Vec::new();
                let mut ctx = EvalCtx::new();
                for row in probe.into_rows() {
                    self.admit(filter, &mut ctx, &mut out, row)?;
                }
                Ok(out)
            }
            Plan::Filter { input, predicate, .. } => {
                let rows = self.run_materialize(input)?;
                let mut out = Vec::with_capacity(rows.len() / 2);
                let mut ctx = EvalCtx::new();
                for row in rows {
                    ctx.reset();
                    if predicate.eval_bool_ctx(&row, &mut ctx)? {
                        out.push(row);
                    }
                }
                Ok(out)
            }
            Plan::Project { input, exprs, .. } => {
                let rows = self.run_materialize(input)?;
                let mut out = Vec::with_capacity(rows.len());
                // One memo context for all projections of a row: a call
                // the projection repeats evaluates once per row.
                let mut ctx = EvalCtx::new();
                for row in rows {
                    ctx.reset();
                    let mut new_row = Vec::with_capacity(exprs.len());
                    for e in exprs {
                        new_row.push(e.eval_ctx(&row, &mut ctx)?);
                    }
                    out.push(new_row);
                }
                Ok(out)
            }
            Plan::HashJoin {
                left, right, left_key, right_key, residual, left_outer, right_width, ..
            } => {
                let pad = left_outer.then_some(*right_width);
                self.hash_join(left, right, left_key, right_key, residual.as_ref(), pad)
            }
            Plan::MergeJoin { left, right, left_key, right_key, residual, .. } => {
                self.merge_join(left, right, left_key, right_key, residual.as_ref())
            }
            Plan::NestedLoop { left, right, predicate, left_outer, right_width, .. } => {
                self.nested_loop(left, right, predicate.as_ref(), left_outer.then_some(*right_width))
            }
            Plan::Sort { input, keys, .. } => {
                let mut rows = self.run_materialize(input)?;
                sort_rows(&mut rows, keys)?;
                Ok(rows)
            }
            Plan::HashAggregate { input, groups, aggs, .. } => {
                self.hash_aggregate(input, groups, aggs)
            }
            Plan::GroupAggregate { input, groups, aggs, .. } => {
                self.group_aggregate(input, groups, aggs)
            }
            Plan::Unique { input, .. } => {
                let rows = self.run_materialize(input)?;
                let mut out: Vec<Row> = Vec::new();
                for row in rows {
                    if out.last().map(|prev| rows_equal(prev, &row)) != Some(true) {
                        out.push(row);
                    }
                }
                Ok(out)
            }
            Plan::HashDistinct { input, .. } => {
                let rows = self.run_materialize(input)?;
                let mut seen = std::collections::HashSet::new();
                let mut out = Vec::new();
                for row in rows {
                    let key: Vec<GroupKey> = row.iter().map(Datum::group_key).collect();
                    if seen.insert(key) {
                        out.push(row);
                    }
                }
                Ok(out)
            }
            Plan::Limit { input, n } => {
                let mut rows = self.run_materialize(input)?;
                rows.truncate(*n as usize);
                Ok(rows)
            }
            Plan::Values { rows } => {
                let empty: Row = Vec::new();
                rows.iter()
                    .map(|exprs| exprs.iter().map(|e| e.eval(&empty)).collect())
                    .collect()
            }
        }
    }

    pub(crate) fn check_limit(&self, n: usize) -> DbResult<()> {
        if n as u64 > self.limits.max_intermediate_rows {
            return Err(DbError::ResourceExhausted(format!(
                "intermediate result exceeded {} rows",
                self.limits.max_intermediate_rows
            )));
        }
        Ok(())
    }

    fn hash_join(
        &self,
        left: &Plan,
        right: &Plan,
        left_key: &PhysExpr,
        right_key: &PhysExpr,
        residual: Option<&PhysExpr>,
        pad: Option<usize>,
    ) -> DbResult<Vec<Row>> {
        let left_rows = self.run_materialize(left)?;
        let right_rows = self.run_materialize(right)?;
        // build on the right input
        let mut table: HashMap<GroupKey, Vec<usize>> = HashMap::new();
        for (i, row) in right_rows.iter().enumerate() {
            let k = right_key.eval(row)?;
            if k.is_null() {
                continue; // NULL never joins
            }
            table.entry(k.group_key()).or_default().push(i);
        }
        let mut out = Vec::new();
        for lrow in &left_rows {
            let k = left_key.eval(lrow)?;
            let mut matched = false;
            if !k.is_null() {
                if let Some(idxs) = table.get(&k.group_key()) {
                    for &i in idxs {
                        let mut joined = lrow.clone();
                        joined.extend(right_rows[i].iter().cloned());
                        let keep = match residual {
                            Some(r) => r.eval_bool(&joined)?,
                            None => true,
                        };
                        if keep {
                            matched = true;
                            out.push(joined);
                            self.check_limit(out.len())?;
                        }
                    }
                }
            }
            if let (Some(width), false) = (pad, matched) {
                let mut joined = lrow.clone();
                joined.extend(std::iter::repeat_n(Datum::Null, width));
                out.push(joined);
                self.check_limit(out.len())?;
            }
        }
        Ok(out)
    }

    fn merge_join(
        &self,
        left: &Plan,
        right: &Plan,
        left_key: &PhysExpr,
        right_key: &PhysExpr,
        residual: Option<&PhysExpr>,
    ) -> DbResult<Vec<Row>> {
        // Inputs arrive sorted on their keys (the planner inserts Sorts).
        let left_rows = self.run_materialize(left)?;
        let right_rows = self.run_materialize(right)?;
        self.merge_join_rows(&left_rows, &right_rows, left_key, right_key, residual)
    }

    /// Merge-join fully materialized (sorted) sides — shared by both
    /// engines, since a merge join drains both children either way.
    pub(crate) fn merge_join_rows(
        &self,
        left_rows: &[Row],
        right_rows: &[Row],
        left_key: &PhysExpr,
        right_key: &PhysExpr,
        residual: Option<&PhysExpr>,
    ) -> DbResult<Vec<Row>> {
        let lkeys: Vec<Datum> =
            left_rows.iter().map(|r| left_key.eval(r)).collect::<DbResult<_>>()?;
        let rkeys: Vec<Datum> =
            right_rows.iter().map(|r| right_key.eval(r)).collect::<DbResult<_>>()?;
        let mut out = Vec::new();
        let (mut li, mut ri) = (0usize, 0usize);
        while li < left_rows.len() && ri < right_rows.len() {
            let lk = &lkeys[li];
            let rk = &rkeys[ri];
            if lk.is_null() {
                li += 1;
                continue;
            }
            if rk.is_null() {
                ri += 1;
                continue;
            }
            // Equi-join keys compare with `key_cmp` — the exact Int↔Float
            // semantics (`cmp_int_f64`) — so `1 = 1.0` and `0 = -0.0` join
            // and `2^53+1` does NOT collapse onto `2^53.0`, matching the
            // canonical `Datum::group_key` the hash join hashes. SQL-equal
            // keys are adjacent in the sorted input, so the cluster scan
            // below still sees each match group contiguously.
            match lk.key_cmp(rk) {
                std::cmp::Ordering::Less => li += 1,
                std::cmp::Ordering::Greater => ri += 1,
                std::cmp::Ordering::Equal => {
                    // group of equal keys on both sides
                    let le = (li..left_rows.len())
                        .take_while(|&i| lkeys[i].key_cmp(lk) == std::cmp::Ordering::Equal)
                        .last()
                        .unwrap()
                        + 1;
                    let re = (ri..right_rows.len())
                        .take_while(|&i| rkeys[i].key_cmp(rk) == std::cmp::Ordering::Equal)
                        .last()
                        .unwrap()
                        + 1;
                    for lrow in &left_rows[li..le] {
                        for rrow in &right_rows[ri..re] {
                            let mut joined = lrow.clone();
                            joined.extend(rrow.iter().cloned());
                            let keep = match residual {
                                Some(p) => p.eval_bool(&joined)?,
                                None => true,
                            };
                            if keep {
                                out.push(joined);
                                self.check_limit(out.len())?;
                            }
                        }
                    }
                    li = le;
                    ri = re;
                }
            }
        }
        Ok(out)
    }

    fn nested_loop(
        &self,
        left: &Plan,
        right: &Plan,
        predicate: Option<&PhysExpr>,
        pad: Option<usize>,
    ) -> DbResult<Vec<Row>> {
        let left_rows = self.run_materialize(left)?;
        let right_rows = self.run_materialize(right)?;
        let mut out = Vec::new();
        for lrow in &left_rows {
            let mut matched = false;
            for rrow in &right_rows {
                let mut joined = lrow.clone();
                joined.extend(rrow.iter().cloned());
                let keep = match predicate {
                    Some(p) => p.eval_bool(&joined)?,
                    None => true,
                };
                if keep {
                    matched = true;
                    out.push(joined);
                    self.check_limit(out.len())?;
                }
            }
            if let (Some(width), false) = (pad, matched) {
                let mut joined = lrow.clone();
                joined.extend(std::iter::repeat_n(Datum::Null, width));
                out.push(joined);
            }
        }
        Ok(out)
    }

    fn hash_aggregate(
        &self,
        input: &Plan,
        groups: &[PhysExpr],
        aggs: &[AggSpec],
    ) -> DbResult<Vec<Row>> {
        let rows = self.run_materialize(input)?;
        // Groups are emitted in first-occurrence (input) order — not the
        // hash map's per-instance iteration order — so this oracle and the
        // streaming aggregate, serial or merged from morsel tables, produce
        // one deterministic order at any thread count (DESIGN.md §29).
        let mut index: HashMap<Vec<GroupKey>, usize> = HashMap::new();
        let mut entries: Vec<(Row, Vec<Accumulator>)> = Vec::new();
        for row in &rows {
            let mut key_vals = Vec::with_capacity(groups.len());
            for g in groups {
                key_vals.push(g.eval(row)?);
            }
            let key: Vec<GroupKey> = key_vals.iter().map(Datum::group_key).collect();
            let slot = *index.entry(key).or_insert_with(|| {
                entries.push((key_vals.clone(), aggs.iter().map(new_acc).collect()));
                entries.len() - 1
            });
            feed_accs(&mut entries[slot].1, aggs, row)?;
        }
        // Scalar aggregate over empty input still yields one row.
        if groups.is_empty() && entries.is_empty() {
            let accs: Vec<Accumulator> = aggs.iter().map(new_acc).collect();
            return Ok(vec![finish_group(Vec::new(), &accs)]);
        }
        let mut out = Vec::with_capacity(entries.len());
        for (key_vals, accs) in entries {
            out.push(finish_group(key_vals, &accs));
        }
        Ok(out)
    }

    fn group_aggregate(
        &self,
        input: &Plan,
        groups: &[PhysExpr],
        aggs: &[AggSpec],
    ) -> DbResult<Vec<Row>> {
        let rows = self.run_materialize(input)?;
        let mut out = Vec::new();
        let mut current: Option<(Vec<Datum>, Vec<Accumulator>)> = None;
        for row in &rows {
            let mut key_vals = Vec::with_capacity(groups.len());
            for g in groups {
                key_vals.push(g.eval(row)?);
            }
            // Group keys compare with the exact Int↔Float semantics so a
            // GroupAggregate plan groups `1` with `1.0` exactly like the
            // hash aggregate's canonical `group_key` does.
            let same = current.as_ref().is_some_and(|(k, _)| {
                k.iter().zip(&key_vals).all(|(a, b)| a.key_cmp(b) == std::cmp::Ordering::Equal)
            });
            if !same {
                if let Some((k, accs)) = current.take() {
                    out.push(finish_group(k, &accs));
                }
                current = Some((key_vals, aggs.iter().map(new_acc).collect()));
            }
            if let Some((_, accs)) = &mut current {
                feed_accs(accs, aggs, row)?;
            }
        }
        if let Some((k, accs)) = current {
            out.push(finish_group(k, &accs));
        } else if groups.is_empty() {
            let accs: Vec<Accumulator> = aggs.iter().map(new_acc).collect();
            out.push(finish_group(Vec::new(), &accs));
        }
        Ok(out)
    }
}

/// Whether `row` passes a scan's pushed-down filter (no filter passes
/// everything), on a freshly reset per-row context.
pub(crate) fn passes(filter: Option<&PhysExpr>, ctx: &mut EvalCtx, row: &Row) -> DbResult<bool> {
    match filter {
        Some(f) => {
            ctx.reset();
            f.eval_bool_ctx(row, ctx)
        }
        None => Ok(true),
    }
}

pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "unknown panic".to_string()
    }
}

pub(crate) fn new_acc(spec: &AggSpec) -> Accumulator {
    Accumulator::new(spec.kind, spec.distinct)
}

pub(crate) fn feed_accs(accs: &mut [Accumulator], specs: &[AggSpec], row: &[Datum]) -> DbResult<()> {
    for (acc, spec) in accs.iter_mut().zip(specs) {
        match &spec.arg {
            Some(e) => acc.update(&e.eval(row)?)?,
            None => acc.update(&Datum::Bool(true))?,
        }
    }
    Ok(())
}

pub(crate) fn finish_group(mut key: Vec<Datum>, accs: &[Accumulator]) -> Row {
    for a in accs {
        key.push(a.finish());
    }
    key
}

/// Row equality for sort-based DISTINCT (`Unique`): uses `key_cmp` so the
/// sorted path dedupes `1` against `1.0` exactly like `HashDistinct`'s
/// canonical `group_key` — the result of DISTINCT must not depend on
/// which physical operator the planner picked.
pub(crate) fn rows_equal(a: &[Datum], b: &[Datum]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| x.key_cmp(y) == std::cmp::Ordering::Equal)
}

/// Compare two precomputed sort-key vectors under the given ORDER BY spec
/// (NULLs first via `total_cmp`, per-key DESC reversal). Shared by the
/// serial sort, the parallel run-sort, and the k-way merge so every path
/// orders rows identically.
pub(crate) fn cmp_sort_keys(ka: &[Datum], kb: &[Datum], keys: &[SortKey]) -> std::cmp::Ordering {
    for (i, key) in keys.iter().enumerate() {
        let ord = ka[i].total_cmp(&kb[i]);
        let ord = if key.desc { ord.reverse() } else { ord };
        if ord != std::cmp::Ordering::Equal {
            return ord;
        }
    }
    std::cmp::Ordering::Equal
}

/// Evaluate the sort keys for one row.
pub(crate) fn eval_sort_keys(row: &[Datum], keys: &[SortKey]) -> DbResult<Vec<Datum>> {
    let mut kv = Vec::with_capacity(keys.len());
    for k in keys {
        kv.push(k.expr.eval(row)?);
    }
    Ok(kv)
}

/// Sort rows by the given keys (NULLs first, stable).
pub fn sort_rows(rows: &mut [Row], keys: &[SortKey]) -> DbResult<()> {
    // Precompute key values to avoid re-evaluating during comparisons.
    let mut decorated: Vec<(Vec<Datum>, Row)> = Vec::with_capacity(rows.len());
    for row in rows.iter() {
        decorated.push((eval_sort_keys(row, keys)?, row.clone()));
    }
    decorated.sort_by(|(ka, _), (kb, _)| cmp_sort_keys(ka, kb, keys));
    for (slot, (_, row)) in rows.iter_mut().zip(decorated) {
        *slot = row;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `record_block` buckets by bit length, saturating at the last
    /// bucket — the arithmetic the three hand-rolled histograms shared
    /// before they became [`crate::counters::Histogram`]s.
    #[test]
    fn record_block_keeps_its_log2_buckets() {
        for (rows, bucket) in [(0, 0), (1, 1), (2, 2), (3, 2), (1024, 11), (u64::MAX, 16)] {
            let stats = ExecStats::default();
            stats.record_block(rows);
            let snap = stats.snapshot();
            assert_eq!(snap.blocks_emitted, 1);
            assert_eq!((snap.rows_per_block.count, snap.rows_per_block.sum), (1, rows));
            let mut want = [0u64; crate::counters::HIST_BUCKETS];
            want[bucket] = 1;
            assert_eq!(snap.rows_per_block.buckets, want, "record_block({rows})");
        }
    }
}
