//! Plan execution: the limits and counters every statement runs under,
//! and the helpers the operators share.
//!
//! The executor is the pull-based streaming block engine in
//! [`crate::block`]: operators pull [`crate::block::RowBlock`]s of
//! ~[`ExecLimits::block_rows`] rows from their child, so `LIMIT` propagates
//! an early-stop all the way into `Heap::scan` and peak memory for
//! scan-heavy plans is O(block), not O(table). It also owns the one scan
//! pipeline (`ScanOp`: a scan→filter→project prefix run as one cursor, or
//! as morsels) and the parallel pipeline breakers, which run on one crew
//! of [`ExecLimits::exec_threads`] threads per statement (`crate::crew`).
//! There is one executor: the tests check it against a plan-free
//! reference evaluator and against its own serial run (DESIGN.md §31).

use crate::agg::Accumulator;
use crate::crew::Crew;
use crate::datum::Datum;
use crate::db::SnapSource;
use crate::error::{DbError, DbResult};
use crate::expr::PhysExpr;
use crate::plan::{AggSpec, SortKey};

pub type Row = Vec<Datum>;

/// What selecting one column-store segment cost a columnar scan, which
/// [`ExecStats::record_segment`] folds into the counters. The kept rows
/// themselves stay in the scan's cursor (DESIGN.md §38).
#[derive(Debug, Default)]
pub struct SegScan {
    /// Kernel engagement for this segment (decodes, batched decodes,
    /// fastpath words, dictionary rewrites, RLE run skips).
    pub kernel: crate::kernels::KernelStats,
    /// Candidate slots the residual filter rejected before their row was
    /// gathered.
    pub rejected: u64,
    /// Candidate slots that passed the filter but whose key found no row
    /// of the hash join probing the scan (DESIGN.md §40), dropped before
    /// their row was gathered.
    pub unmatched: u64,
    /// True when the bound column's zone map excluded the whole segment.
    pub pruned: bool,
}

/// Execution limits: a crude statement-level resource governor. The EAV
/// baseline's self-joins exhaust intermediate space exactly like the paper's
/// runs that "ran out of disk space" (§6.4–6.5); this cap reproduces that
/// failure mode deterministically.
#[derive(Debug, Clone, Copy)]
pub struct ExecLimits {
    /// Max rows any single operator may hold or emit: charged per block
    /// as rows accumulate in pipeline breakers and at the root, and per
    /// joined row (outer pad rows included) by every join, whichever join
    /// the planner picked.
    pub max_intermediate_rows: u64,
    /// Threads per statement: its own plus up to `exec_threads − 1`
    /// helpers of its crew (DESIGN.md §26); 1 forces the serial path.
    /// Defaults to the available parallelism.
    pub exec_threads: usize,
    /// Target rows per streaming block (default 1024; clamped to ≥ 1).
    pub block_rows: usize,
}

impl Default for ExecLimits {
    fn default() -> Self {
        ExecLimits {
            max_intermediate_rows: 50_000_000,
            exec_threads: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
            block_rows: 1024,
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
    /// Heap pages a scan skipped unread because their tag synopsis lacks
    /// every tag of a filter conjunct that fails over NULL (DESIGN.md §32,
    /// §33), counted once per page change within a scan range.
    executor scan_pages_skipped: counter,
    /// Heap pages whose visible rows a scan produced without reading the
    /// page, because their tag synopsis lacks every key the scan, its
    /// filter and its consumer read (DESIGN.md §33): each row came with
    /// the tagged column NULL. Counted once per page change within a scan
    /// range. `heap_fetches` still counts only tuples read.
    executor scan_pages_served: counter,
    /// Bytes the heaps' page synopses hold in memory, over every table: a
    /// gauge, 128 per data page that has held a tuple of a table with a
    /// tagged column.
    executor synopsis_bytes: counter,
    /// Heap data pages that placement re-initialised from a free list
    /// instead of allocating a page (DESIGN.md §34).
    executor heap_pages_recycled: counter,
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
    /// High-water mark of rows one statement holds: the result accumulated
    /// at the root plus what its operators buffer, sampled at every root
    /// block, every block a pipeline breaker drains and every aggregate
    /// merge. O(block) for a scan under a LIMIT; a sort, a join build or
    /// the result itself holds O(rows).
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
    /// Always 0: the covering index-only scan it counted is deleted
    /// (DESIGN.md §39). Kept because `sinewbench` reads it.
    columnar_access index_only_scans: counter,
    /// Tuples a heap scan read — the quantity a columnar scan avoids and
    /// a skipped or served page saves; benches assert it stays flat. A
    /// row served without its page is not counted. Fetches by row id count
    /// in `heap_rowid_fetches`.
    columnar_access heap_fetches: counter,
    /// Tuples read by row id: index-scan fetches, `get_row` and the
    /// materializer's `txn_rewrite_row`.
    columnar_access heap_rowid_fetches: counter,
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
    /// Rows an inner hash join's probe scan dropped because their key
    /// found no build row: tested after the scan filter and before the
    /// rest of the row was gathered, decoded or lent (DESIGN.md §40).
    parallel_breakers join_probe_rows_rejected: counter,
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
        self.join_probe_rows_rejected.add(scan.unmatched);
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

    pub(crate) fn check_limit(&self, n: usize) -> DbResult<()> {
        if n as u64 > self.limits.max_intermediate_rows {
            return Err(DbError::ResourceExhausted(format!(
                "intermediate result exceeded {} rows",
                self.limits.max_intermediate_rows
            )));
        }
        Ok(())
    }

    /// Merge-join two drained (sorted) sides: a merge join holds both
    /// children whole before it emits.
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
                    // The run of keys equal to `k` from `at` on.
                    let run = |keys: &[Datum], at: usize, k: &Datum| {
                        at + keys[at..].iter().take_while(|x| x.key_cmp(k).is_eq()).count()
                    };
                    let (le, re) = (run(&lkeys, li, lk), run(&rkeys, ri, rk));
                    for lrow in &left_rows[li..le] {
                        for rrow in &right_rows[ri..re] {
                            let mut joined = lrow.clone();
                            joined.extend(rrow.iter().cloned());
                            if residual.map_or(Ok(true), |p| p.eval_bool(&joined))? {
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
