//! Pull-based streaming block execution.
//!
//! The default engine since PR 5: operators implement [`BlockOperator`]
//! and pull [`RowBlock`]s of ~`ExecLimits::block_rows` rows from their
//! child instead of materializing whole intermediates. Streaming operators
//! (scan, filter, project, limit, the probe side of a hash join, the outer
//! side of a nested loop, group/unique/distinct over sorted or hashed
//! state) hold O(block) rows; *pipeline breakers* (sort, hash aggregation,
//! the build side of a hash join, both sides of a merge join) drain their
//! child before emitting. Because everything above a breaker still pulls,
//! a `LIMIT` propagates an early-stop all the way down: the limit simply
//! stops calling `next_block`, the scan operator stops its `Heap::scan`
//! callback mid-page, and the morsel-parallel scan stops its claims, at
//! most one look-ahead window past the last morsel it stitched.
//!
//! The contract: one plan gives the same rows in the same order at every
//! block size and thread count. Scans emit rows in row-id order, parallel
//! morsels are stitched in morsel order, float accumulation order equals
//! input order, and hash aggregation emits groups in first-occurrence
//! (input) order. The equivalence suites (`tests/exec_equivalence.rs`,
//! `crates/core/tests/streaming_oracle.rs`) and the generated queries of
//! `tests/generated_queries.rs` check every configuration byte for byte
//! against the serial run (`exec_threads = 1`), and the rows against the
//! plan-free reference evaluator (`crates/reference`, DESIGN.md §31).
//!
//! Scans (DESIGN.md §18): every leaf reads through the executor's one
//! table source. Every table leaf — heap, columnar or index — is `ScanOp`,
//! which runs the scan→filter→project prefix above it as one pipeline
//! (DESIGN.md §37–§39): as morsels when the statement has a crew, the
//! leaf is not an index and the table is big enough, else as one cursor
//! that lends each row to what reads it. A columnar or index cursor that
//! loses its stores or its B-tree goes on as the heap scan from the row
//! after the last one it lent (row id 0 for an index, whose probe runs
//! before it lends a row).
//!
//! The pipeline *breakers* parallelize too (DESIGN.md §15): the hash join
//! builds one table on the statement's thread and, when its probe input
//! is a parallel scan pipeline, probes inside that scan's morsels,
//! stitched in morsel order (DESIGN.md §30), and an inner join first
//! filters a probe scan by the build's keys (DESIGN.md §40); hash
//! aggregation folds each morsel of a parallel scan (or each chunk of any
//! other input) into its own group table and merges the tables in input
//! order (falling back, stickily, to the serial fold at the first table
//! that would not merge exactly, DESIGN.md §29); sort runs per-chunk run sorts plus a k-way
//! merge whose global-index tiebreak reproduces the serial stable sort
//! exactly. Every parallel
//! operator of a statement runs on the statement's one crew of threads
//! (`crate::crew`, DESIGN.md §26), opened here by
//! [`run_streaming_with`]. With `exec_threads = 1` (and below the row
//! floor of `Executor::parallel`) the serial operators run, and a breaker
//! over a scan pipeline folds or probes inside the scan's one cursor;
//! differential tests take that as their reference. `EXPLAIN ANALYZE`
//! wraps every operator in an [`AnalyzeOp`] that counts rows/blocks/wall
//! time per plan node.
//!
//! Resource governance: `max_intermediate_rows` is charged wherever rows
//! actually accumulate — the root accumulator, breaker buffers, join
//! output counts (outer pad rows included, by the hash join and the nested
//! loop alike), distinct/group state — so a statement that streams may
//! succeed where one that must hold its rows exhausts the cap.

use crate::agg::Accumulator;
use crate::crew::{caught, Crew, JobQueue, MorselStream, Task};
use crate::datum::{Datum, NULL};
use crate::columnar::SEG_ROWS;
use crate::db::{ScanConsumer, ScanLeaf, TableScan};
use crate::error::{DbError, DbResult};
use crate::exec::{
    cmp_sort_keys, eval_sort_keys, feed_accs, finish_group, new_acc, rows_equal, sort_rows,
    ExecStats, Executor, Row,
};
use crate::expr::{EvalCtx, Lent, PhysExpr};
use crate::keys::{BuiltSide, Key, KeyFilter, KeyTable};
use crate::plan::{AggSpec, NodeActuals, Plan, SortKey};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::iter::zip;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A statement's crew, when it has one (`exec_threads > 1`).
type CrewRef<'c, 'x> = Option<&'c Crew<'c, 'x>>;

/// A batch of rows flowing between operators. `sel`, when present, lists
/// the indices of `rows` that are logically in the block (a selection
/// vector): filters narrow a block by rewriting `sel` instead of moving
/// rows. Blocks on the wire are never empty — end of stream is `None`
/// from [`BlockOperator::next_block`].
#[derive(Debug, Default)]
pub struct RowBlock {
    pub rows: Vec<Row>,
    pub sel: Option<Vec<u32>>,
}

impl RowBlock {
    pub fn from_rows(rows: Vec<Row>) -> RowBlock {
        RowBlock { rows, sel: None }
    }

    /// Number of selected rows.
    pub fn len(&self) -> usize {
        match &self.sel {
            Some(s) => s.len(),
            None => self.rows.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Compact into a plain vector of the selected rows, in order.
    pub fn take_rows(self) -> Vec<Row> {
        match self.sel {
            None => self.rows,
            Some(sel) => {
                let mut rows = self.rows;
                let mut out = Vec::with_capacity(sel.len());
                for &i in &sel {
                    out.push(std::mem::take(&mut rows[i as usize]));
                }
                out
            }
        }
    }

    /// Keep only the first `n` selected rows.
    pub fn truncate(&mut self, n: usize) {
        match &mut self.sel {
            Some(s) => s.truncate(n),
            None => self.rows.truncate(n),
        }
    }

    /// Visit the selected rows in order.
    pub fn for_each_row(
        &self,
        mut f: impl FnMut(&Row) -> DbResult<()>,
    ) -> DbResult<()> {
        match &self.sel {
            Some(s) => {
                for &i in s {
                    f(&self.rows[i as usize])?;
                }
            }
            None => {
                for row in &self.rows {
                    f(row)?;
                }
            }
        }
        Ok(())
    }
}

/// A pull-based operator. Lifecycle: `open` → `next_block`* → `close`;
/// `close` must be safe to call after an error and is responsible for the
/// whole subtree (operators close their children).
pub trait BlockOperator {
    fn open(&mut self) -> DbResult<()> {
        Ok(())
    }

    /// Produce the next non-empty block, or `None` at end of stream.
    fn next_block(&mut self) -> DbResult<Option<RowBlock>>;

    fn close(&mut self) {}

    /// Rows currently buffered inside this operator subtree (pipeline
    /// breakers, join builds, parallel-scan stitch buffers) — feeds the
    /// `peak_resident_rows` metric.
    fn resident_rows(&self) -> u64 {
        0
    }
}

/// Execute `plan` by pulling the root operator dry, accumulating into the
/// final result. Charges `max_intermediate_rows` per block as the result
/// accumulates and tracks block/early-stop/resident metrics.
pub(crate) fn run_streaming(exec: &Executor<'_>, plan: &Plan) -> DbResult<Vec<Row>> {
    run_streaming_with(exec, plan, None)
}

/// [`run_streaming`] with optional `EXPLAIN ANALYZE` instrumentation:
/// when `az` is set, every plan node's operator is wrapped in an
/// [`AnalyzeOp`] and `az` collects per-node actual rows/blocks/ns in the
/// same pre-order the plan renderer walks.
///
/// With more than one exec thread the statement gets its crew here: one
/// thread scope for the whole statement, whose helpers the first parallel
/// operator spawns and which all park until the statement ends.
pub(crate) fn run_streaming_with<'x>(
    exec: &'x Executor<'_>,
    plan: &'x Plan,
    az: Option<&'x AnalyzeCtx>,
) -> DbResult<Vec<Row>> {
    let helpers = exec.limits.exec_threads.max(1) - 1;
    if helpers == 0 {
        return drive(exec, plan, az, None);
    }
    let queue = JobQueue::default();
    std::thread::scope(|s| {
        let spawn = || {
            s.spawn(|| queue.serve());
        };
        let crew = Crew::new(&queue, &spawn, helpers, exec.stats);
        drive(exec, plan, az, Some(&crew))
    })
}

/// Pull the root operator of `plan` dry into the statement's result.
fn drive<'c, 'x: 'c>(
    exec: &'x Executor<'_>,
    plan: &'x Plan,
    az: Option<&'c AnalyzeCtx>,
    crew: CrewRef<'c, 'x>,
) -> DbResult<Vec<Row>> {
    let mut op = build_node(exec, plan, None, None, az, crew)?;
    let mut out: Vec<Row> = Vec::new();
    let result = (|| -> DbResult<()> {
        op.open()?;
        while let Some(block) = op.next_block()? {
            exec.stats.record_block(block.len() as u64);
            let mut rows = block.take_rows();
            out.append(&mut rows);
            exec.check_limit(out.len())?;
            exec.stats.note_resident(out.len() as u64 + op.resident_rows());
        }
        Ok(())
    })();
    op.close();
    result?;
    Ok(out)
}

/// Build the operator tree for `plan`. `cap`, when present, is an upper
/// bound on the rows the parent will consume (LIMIT pushdown); it flows
/// through row-preserving operators (Project) down to the scan, whose
/// blocks it bounds, and to an index scan's B-tree probe when every row
/// the probe finds is an output row.
///
/// `consumer` is what a `Project(Filter?(leaf))` evaluates over its
/// scan's rows, handed down to that scan; every other node gets `None`.
///
/// `az`, when present, registers one [`NodeActuals`] slot per plan node
/// (pre-order: node, then left child, then right — matching
/// `Plan::explain_analyze`'s walk) and wraps each operator in an
/// [`AnalyzeOp`]. Scan-pipeline fusion is disabled under analyze so the
/// operator tree stays 1:1 with the plan tree.
pub(crate) fn build_node<'c, 'x: 'c, 'a: 'x>(
    exec: &'x Executor<'a>,
    plan: &'x Plan,
    cap: Option<u64>,
    consumer: Option<ScanConsumer<'x>>,
    az: Option<&'c AnalyzeCtx>,
    crew: CrewRef<'c, 'x>,
) -> DbResult<Box<dyn BlockOperator + 'c>> {
    // A scan→filter→project prefix is one scan pipeline (DESIGN.md §37).
    if az.is_none() {
        if let Some(op) = ScanOp::try_new(exec, plan, cap, crew)? {
            return Ok(Box::new(op));
        }
    }
    let node_id = az.map(AnalyzeCtx::register);
    let child = |input: &'x Plan, cap: Option<u64>| build_node(exec, input, cap, None, az, crew);
    // A breaker over a scan pipeline takes the scan's rows where they are
    // read (DESIGN.md §29, §30): in its morsels, or in its one cursor. A
    // morsel fold that could not merge exactly takes the scan's blocks.
    let fused = |input: &'x Plan, fuse: bool| -> DbResult<BreakerInput<'c, 'x, 'a>> {
        let scan = if az.is_none() { ScanOp::try_new(exec, input, None, crew)? } else { None };
        Ok(match scan {
            Some(scan) if fuse || scan.on_cursor() => BreakerInput::Scan(Box::new(scan)),
            Some(scan) => BreakerInput::Child(Box::new(scan)),
            None => BreakerInput::Child(child(input, None)?),
        })
    };
    let op: Box<dyn BlockOperator + 'c> = match plan {
        // Reached under EXPLAIN ANALYZE only: the scan leaf, its cursor
        // read through what its parents evaluate.
        Plan::SeqScan { .. } | Plan::ColumnarScan { .. } | Plan::IndexScan(_) => {
            let pipe = scan_pipeline(plan).expect("a scan leaf is a scan pipeline");
            Box::new(ScanOp::new(exec, ScanPipeline { consumer, ..pipe }, cap, None)?)
        }
        Plan::Filter { input, predicate, .. } => Box::new(FilterOp {
            child: build_node(exec, input, None, consumer, az, crew)?,
            predicate,
            ctx: EvalCtx::new(),
        }),
        Plan::Project { input, exprs, .. } => Box::new(ProjectOp {
            child: build_node(
                exec,
                input,
                cap,
                scan_pipeline(plan).and_then(|p| p.consumer),
                az,
                crew,
            )?,
            exprs,
            ctx: EvalCtx::new(),
        }),
        Plan::Limit { input, n } => Box::new(LimitOp {
            child: child(input, Some(cap.unwrap_or(u64::MAX).min(*n)))?,
            remaining: *n,
            stats: exec.stats,
        }),
        Plan::Sort { input, keys, .. } => Box::new(SortOp {
            exec,
            crew,
            child: child(input, None)?,
            keys,
            buf: None,
            pos: 0,
        }),
        Plan::HashAggregate { input, groups, aggs, .. } => {
            // Exact aggregates over a parallel scan fold inside its morsels.
            let mut input = fused(input, aggs.iter().all(|a| !a.distinct))?;
            if let BreakerInput::Scan(scan) = &mut input {
                scan.pipe.fold = Some((groups, aggs));
            }
            Box::new(HashAggOp { exec, crew, input, groups, aggs, out: None, pos: 0 })
        }
        Plan::GroupAggregate { input, groups, aggs, .. } => Box::new(GroupAggOp {
            child: child(input, None)?,
            exec,
            groups,
            aggs,
            current: None,
            pending: Vec::new(),
            input_done: false,
            emitted_any: false,
        }),
        Plan::Unique { input, .. } => Box::new(UniqueOp {
            child: child(input, None)?,
            last: None,
        }),
        Plan::HashDistinct { input, .. } => Box::new(HashDistinctOp {
            exec,
            child: child(input, None)?,
            seen: None,
        }),
        Plan::HashJoin {
            left, right, left_key, right_key, residual, left_outer, right_width, ..
        } => {
            Box::new(HashJoinOp {
                exec,
                crew,
                left: fused(left, true)?,
                right: child(right, None)?,
                right_key,
                probe: Probe {
                    left_key,
                    residual: residual.as_ref(),
                    pad: left_outer.then_some(*right_width),
                },
                built: None,
                emitted: 0,
                pending: VecDeque::new(),
                left_done: false,
            })
        }
        Plan::MergeJoin { left, right, left_key, right_key, residual, .. } => {
            Box::new(MergeJoinOp {
                exec,
                left: child(left, None)?,
                right: child(right, None)?,
                left_key,
                right_key,
                residual: residual.as_ref(),
                out: None,
                pos: 0,
            })
        }
        Plan::NestedLoop { left, right, predicate, left_outer, right_width, .. } => {
            Box::new(NestedLoopOp {
                exec,
                left: child(left, None)?,
                right: child(right, None)?,
                predicate: predicate.as_ref(),
                pad: left_outer.then_some(*right_width),
                right_rows: None,
                emitted: 0,
                pending: VecDeque::new(),
                left_done: false,
            })
        }
        Plan::Values { rows } => Box::new(ValuesOp {
            exec,
            rows,
            pos: 0,
        }),
    };
    Ok(match (node_id, az) {
        (Some(id), Some(az)) => Box::new(AnalyzeOp { id, az, inner: op }),
        _ => op,
    })
}

/// Drain a child operator into a materialized vector (pipeline breakers),
/// charging the intermediate-row cap as the buffer grows.
fn drain_child(
    exec: &Executor<'_>,
    child: &mut (dyn BlockOperator + '_),
) -> DbResult<Vec<Row>> {
    let mut out = Vec::new();
    while let Some(block) = child.next_block()? {
        let mut rows = block.take_rows();
        out.append(&mut rows);
        exec.check_limit(out.len())?;
        exec.stats.note_resident(out.len() as u64);
    }
    Ok(out)
}

/// Move up to `n` front rows of a buffered result into a block.
fn chunk_from(buf: &mut [Row], pos: &mut usize, n: usize) -> Option<RowBlock> {
    if *pos >= buf.len() {
        return None;
    }
    let end = (*pos + n.max(1)).min(buf.len());
    let mut out = Vec::with_capacity(end - *pos);
    for row in &mut buf[*pos..end] {
        out.push(std::mem::take(row));
    }
    *pos = end;
    Some(RowBlock::from_rows(out))
}

// ---------------------------------------------------------------------------
// Parallel-breaker infrastructure (DESIGN.md §15, §26)

/// Rows per chunk of the buffered pre-aggregation batches.
const BREAKER_MORSEL: usize = 512;

/// One sort run entry: the evaluated sort keys plus the row's global
/// index, the tiebreaker that makes the parallel sort exactly stable.
type SortRun = Vec<(Vec<Datum>, u64)>;

/// Split `rows` into `parts` contiguous chunks of roughly equal size (at
/// least one row each), moved out so that crew jobs can own them. Chunk
/// boundaries never affect output — each parallel breaker stitches
/// per-chunk results back in chunk order.
fn split_even(rows: Vec<Row>, parts: usize) -> Vec<Vec<Row>> {
    let per = rows.len().div_ceil(parts.max(1)).max(1);
    let mut rows = rows.into_iter();
    let mut chunks = Vec::with_capacity(parts);
    loop {
        let chunk: Vec<Row> = rows.by_ref().take(per).collect();
        if chunk.is_empty() {
            return chunks;
        }
        chunks.push(chunk);
    }
}

/// Concatenate chunks back into one buffer, in chunk order.
fn join_chunks(chunks: Vec<Vec<Row>>) -> Vec<Row> {
    let mut rows = Vec::with_capacity(chunks.iter().map(Vec::len).sum());
    for chunk in chunks {
        rows.extend(chunk);
    }
    rows
}

// ---------------------------------------------------------------------------
// EXPLAIN ANALYZE instrumentation

/// Collects per-plan-node actuals during an `EXPLAIN ANALYZE` run. Node
/// ids are assigned by `build_node` in pre-order (node, left, right) —
/// the exact walk `Plan::explain_analyze` uses to render, so slot `i`
/// always describes the `i`-th rendered plan line.
pub(crate) struct AnalyzeCtx {
    nodes: RefCell<Vec<NodeActuals>>,
}

impl AnalyzeCtx {
    pub(crate) fn new() -> AnalyzeCtx {
        AnalyzeCtx { nodes: RefCell::new(Vec::new()) }
    }

    fn register(&self) -> usize {
        let mut nodes = self.nodes.borrow_mut();
        nodes.push(NodeActuals::default());
        nodes.len() - 1
    }

    fn record(&self, id: usize, rows: u64, blocks: u64, ns: u64) {
        let mut nodes = self.nodes.borrow_mut();
        let slot = &mut nodes[id];
        slot.rows += rows;
        slot.blocks += blocks;
        slot.ns += ns;
    }

    pub(crate) fn take_nodes(self) -> Vec<NodeActuals> {
        self.nodes.into_inner()
    }
}

/// Wraps one operator during `EXPLAIN ANALYZE`: counts emitted rows and
/// blocks, and accumulates wall time spent inside `open`/`next_block` —
/// inclusive of children, Postgres-style.
struct AnalyzeOp<'x> {
    id: usize,
    az: &'x AnalyzeCtx,
    inner: Box<dyn BlockOperator + 'x>,
}

impl BlockOperator for AnalyzeOp<'_> {
    fn open(&mut self) -> DbResult<()> {
        let start = Instant::now();
        let result = self.inner.open();
        self.az.record(self.id, 0, 0, start.elapsed().as_nanos() as u64);
        result
    }

    fn next_block(&mut self) -> DbResult<Option<RowBlock>> {
        let start = Instant::now();
        let result = self.inner.next_block();
        let ns = start.elapsed().as_nanos() as u64;
        match &result {
            Ok(Some(block)) => self.az.record(self.id, block.len() as u64, 1, ns),
            _ => self.az.record(self.id, 0, 0, ns),
        }
        result
    }

    fn close(&mut self) {
        self.inner.close();
    }

    fn resident_rows(&self) -> u64 {
        self.inner.resident_rows()
    }
}

// ---------------------------------------------------------------------------
// Scans

// ---------------------------------------------------------------------------
// Row-at-a-time streaming operators

struct FilterOp<'x> {
    child: Box<dyn BlockOperator + 'x>,
    predicate: &'x PhysExpr,
    ctx: EvalCtx,
}

impl BlockOperator for FilterOp<'_> {
    fn open(&mut self) -> DbResult<()> {
        self.child.open()
    }

    fn next_block(&mut self) -> DbResult<Option<RowBlock>> {
        loop {
            let Some(mut block) = self.child.next_block()? else { return Ok(None) };
            let keep = self.predicate.filter_block(
                &block.rows,
                block.sel.as_deref(),
                &mut self.ctx,
            )?;
            if !keep.is_empty() {
                block.sel = Some(keep);
                return Ok(Some(block));
            }
        }
    }

    fn close(&mut self) {
        self.child.close();
    }

    fn resident_rows(&self) -> u64 {
        self.child.resident_rows()
    }
}

struct ProjectOp<'x> {
    child: Box<dyn BlockOperator + 'x>,
    exprs: &'x [PhysExpr],
    ctx: EvalCtx,
}

impl BlockOperator for ProjectOp<'_> {
    fn open(&mut self) -> DbResult<()> {
        self.child.open()
    }

    fn next_block(&mut self) -> DbResult<Option<RowBlock>> {
        let Some(block) = self.child.next_block()? else { return Ok(None) };
        let mut out: Vec<Row> = Vec::with_capacity(block.len());
        // One context reset per *row* across all projections: a call the
        // projection repeats evaluates once per row.
        let ctx = &mut self.ctx;
        let exprs = self.exprs;
        block.for_each_row(|row| {
            ctx.reset();
            let mut new_row = Vec::with_capacity(exprs.len());
            for e in exprs {
                new_row.push(e.eval_ctx(row, ctx)?);
            }
            out.push(new_row);
            Ok(())
        })?;
        Ok(Some(RowBlock::from_rows(out)))
    }

    fn close(&mut self) {
        self.child.close();
    }

    fn resident_rows(&self) -> u64 {
        self.child.resident_rows()
    }
}

struct LimitOp<'x> {
    child: Box<dyn BlockOperator + 'x>,
    remaining: u64,
    stats: &'x ExecStats,
}

impl BlockOperator for LimitOp<'_> {
    fn open(&mut self) -> DbResult<()> {
        self.child.open()
    }

    fn next_block(&mut self) -> DbResult<Option<RowBlock>> {
        if self.remaining == 0 {
            return Ok(None);
        }
        let Some(mut block) = self.child.next_block()? else {
            self.remaining = 0;
            return Ok(None);
        };
        let n = block.len() as u64;
        if n >= self.remaining {
            block.truncate(self.remaining as usize);
            self.remaining = 0;
            // The stream ends here without exhausting the child: the
            // early-stop that makes LIMIT O(limit), not O(table).
            self.stats.early_stops.inc();
        } else {
            self.remaining -= n;
        }
        Ok(Some(block))
    }

    fn close(&mut self) {
        self.child.close();
    }

    fn resident_rows(&self) -> u64 {
        self.child.resident_rows()
    }
}

/// DISTINCT over sorted input: drop rows equal to their predecessor.
struct UniqueOp<'x> {
    child: Box<dyn BlockOperator + 'x>,
    last: Option<Row>,
}

impl BlockOperator for UniqueOp<'_> {
    fn open(&mut self) -> DbResult<()> {
        self.child.open()
    }

    fn next_block(&mut self) -> DbResult<Option<RowBlock>> {
        loop {
            let Some(mut block) = self.child.next_block()? else { return Ok(None) };
            let mut keep: Vec<u32> = Vec::new();
            let idxs: Vec<u32> = match &block.sel {
                Some(s) => s.clone(),
                None => (0..block.rows.len() as u32).collect(),
            };
            for i in idxs {
                let row = &block.rows[i as usize];
                if self.last.as_ref().map(|p| rows_equal(p, row)) != Some(true) {
                    self.last = Some(row.clone());
                    keep.push(i);
                }
            }
            if !keep.is_empty() {
                block.sel = Some(keep);
                return Ok(Some(block));
            }
        }
    }

    fn close(&mut self) {
        self.child.close();
    }

    fn resident_rows(&self) -> u64 {
        self.child.resident_rows()
    }
}

/// DISTINCT over unsorted input. Output order equals input order (first
/// occurrence wins), so it is mode- and block-size-independent.
struct HashDistinctOp<'x, 'a> {
    exec: &'x Executor<'a>,
    child: Box<dyn BlockOperator + 'x>,
    /// The distinct rows so far, keyed whole; made at the first row.
    seen: Option<KeyTable>,
}

impl BlockOperator for HashDistinctOp<'_, '_> {
    fn open(&mut self) -> DbResult<()> {
        self.child.open()
    }

    fn next_block(&mut self) -> DbResult<Option<RowBlock>> {
        loop {
            let Some(mut block) = self.child.next_block()? else { return Ok(None) };
            let mut keep: Vec<u32> = Vec::new();
            let idxs: Vec<u32> = match &block.sel {
                Some(s) => s.clone(),
                None => (0..block.rows.len() as u32).collect(),
            };
            for i in idxs {
                let row = &block.rows[i as usize];
                let seen = self.seen.get_or_insert_with(|| KeyTable::new(row.len()));
                if seen.intern(row.as_slice()).1 {
                    keep.push(i);
                }
            }
            self.exec.check_limit(self.seen.as_ref().map_or(0, KeyTable::len))?;
            if !keep.is_empty() {
                block.sel = Some(keep);
                return Ok(Some(block));
            }
        }
    }

    fn close(&mut self) {
        self.child.close();
    }

    fn resident_rows(&self) -> u64 {
        self.seen.as_ref().map_or(0, KeyTable::len) as u64 + self.child.resident_rows()
    }
}

// ---------------------------------------------------------------------------
// Pipeline breakers

/// Sort: drains its child, sorts once, then emits block-sized chunks.
struct SortOp<'c, 'x, 'a> {
    exec: &'x Executor<'a>,
    crew: CrewRef<'c, 'x>,
    child: Box<dyn BlockOperator + 'c>,
    keys: &'x [SortKey],
    buf: Option<Vec<Row>>,
    pos: usize,
}

impl<'x> SortOp<'_, 'x, '_> {
    /// Sort the drained buffer: serial [`sort_rows`] unless the statement
    /// goes parallel over it; then per-chunk run sorts on the crew followed
    /// by a k-way merge. Runs and merge both compare (sort keys, original
    /// index) — a total order whose result is exactly the serial *stable*
    /// sort at any thread count.
    fn sort_buffer(&self, rows: &mut Vec<Row>) -> DbResult<()> {
        let Some(crew) = self.exec.parallel(self.crew, rows.len()) else {
            return sort_rows(rows, self.keys);
        };
        let keys = self.keys;
        let chunks = split_even(std::mem::take(rows), crew.threads());
        let mut tasks: Vec<Task<'x, (SortRun, Vec<Row>)>> = Vec::with_capacity(chunks.len());
        let mut base = 0u64;
        for chunk in chunks {
            let start = base;
            base += chunk.len() as u64;
            tasks.push(Box::new(move || {
                let mut run = Vec::with_capacity(chunk.len());
                for (i, row) in chunk.iter().enumerate() {
                    // Keys are evaluated in row order, so a failing
                    // phase's first-in-chunk-order error is the serial error.
                    run.push((eval_sort_keys(row, keys)?, start + i as u64));
                }
                run.sort_by(|(ka, ia), (kb, ib)| cmp_sort_keys(ka, kb, keys).then(ia.cmp(ib)));
                Ok((run, chunk))
            }));
        }
        let mut runs = Vec::with_capacity(tasks.len());
        let mut chunks = Vec::with_capacity(tasks.len());
        for r in crew.run_all(tasks) {
            let (run, chunk) = r?;
            runs.push(run);
            chunks.push(chunk);
        }
        *rows = join_chunks(chunks);
        self.exec.stats.parallel_sorts.inc();
        // K-way merge: k ≤ threads is small, so a linear scan over the
        // run heads beats a heap.
        let mut cursors = vec![0usize; runs.len()];
        let mut order: Vec<u64> = Vec::with_capacity(rows.len());
        loop {
            let mut best: Option<usize> = None;
            for (r, run) in runs.iter().enumerate() {
                let Some(head) = run.get(cursors[r]) else { continue };
                best = match best {
                    None => Some(r),
                    Some(b) => {
                        let bh = &runs[b][cursors[b]];
                        if cmp_sort_keys(&head.0, &bh.0, keys).then(head.1.cmp(&bh.1))
                            == std::cmp::Ordering::Less
                        {
                            Some(r)
                        } else {
                            Some(b)
                        }
                    }
                };
            }
            let Some(b) = best else { break };
            order.push(runs[b][cursors[b]].1);
            cursors[b] += 1;
        }
        let mut sorted = Vec::with_capacity(rows.len());
        for &idx in &order {
            sorted.push(std::mem::take(&mut rows[idx as usize]));
        }
        *rows = sorted;
        Ok(())
    }
}

impl BlockOperator for SortOp<'_, '_, '_> {
    fn open(&mut self) -> DbResult<()> {
        self.child.open()
    }

    fn next_block(&mut self) -> DbResult<Option<RowBlock>> {
        if self.buf.is_none() {
            let mut rows = drain_child(self.exec, self.child.as_mut())?;
            self.sort_buffer(&mut rows)?;
            self.buf = Some(rows);
            self.pos = 0;
        }
        let block_rows = self.exec.limits.block_rows;
        Ok(chunk_from(self.buf.as_mut().unwrap(), &mut self.pos, block_rows))
    }

    fn close(&mut self) {
        self.child.close();
        self.buf = None;
    }

    fn resident_rows(&self) -> u64 {
        let buffered = self
            .buf
            .as_ref()
            .map(|b| (b.len() - self.pos) as u64)
            .unwrap_or(0);
        buffered + self.child.resident_rows()
    }
}

/// The one group table (DESIGN.md §29): the serial fold, each morsel's
/// fold and each buffered chunk's fold all build one. Groups sit flat, in
/// first-occurrence order — their values in the key table (DESIGN.md §40),
/// `aggs.len()` accumulators each here — so the table is emitted as it
/// stands. A scalar aggregate's one group is slot 0, keyed by no values.
struct GroupTable<'p> {
    groups: &'p [PhysExpr],
    aggs: &'p [AggSpec],
    keys: KeyTable,
    accs: Vec<Accumulator>,
}

impl<'p> GroupTable<'p> {
    fn new(groups: &'p [PhysExpr], aggs: &'p [AggSpec]) -> GroupTable<'p> {
        let (keys, accs) = (KeyTable::new(groups.len()), Vec::new());
        let mut table = GroupTable { groups, aggs, keys, accs };
        if groups.is_empty() {
            // A scalar aggregate has its one group, even over empty input.
            table.open(&[][..] as &[Datum]);
        }
        table
    }

    /// The slot of `key`'s group, opened with a copy of `key` if new.
    fn open<K: Key + ?Sized>(&mut self, key: &K) -> usize {
        let (slot, new) = self.keys.intern(key);
        if new {
            self.accs.extend(self.aggs.iter().map(new_acc));
        }
        slot
    }

    fn len(&self) -> usize {
        self.keys.len()
    }

    /// Fold one row in. `ctx` is the row's: group expressions and
    /// aggregate arguments share the memo slots its scan filled. The group
    /// values are looked up by reference and copied only into a new group.
    fn feed(&mut self, row: &[Datum], ctx: &mut EvalCtx) -> DbResult<()> {
        // A scalar aggregate's one group is slot 0: looking its empty key
        // up per row made a scalar fold 15–56 % slower (DESIGN.md §40).
        let slot = if self.groups.is_empty() { 0 } else { self.group_of(row, ctx)? };
        let width = self.aggs.len();
        for (acc, spec) in self.accs[slot * width..].iter_mut().zip(self.aggs) {
            match &spec.arg {
                Some(e) => acc.update(&e.eval_ctx(row, ctx)?)?,
                None => acc.update(&Datum::Bool(true))?,
            }
        }
        Ok(())
    }

    /// The slot of the row's group, opened if new. The group values are
    /// lent, on the stack when they fit, as a call's arguments are
    /// (DESIGN.md §35).
    fn group_of(&mut self, row: &[Datum], ctx: &mut EvalCtx) -> DbResult<usize> {
        let groups = self.groups;
        let mut stack: [Lent<'_>; 4] = std::array::from_fn(|_| Lent::Ref(&NULL));
        let mut spilled = None;
        let lent: &mut [Lent<'_>] = match stack.get_mut(..groups.len()) {
            Some(lent) => lent,
            None => spilled.insert(groups.iter().map(|_| Lent::Ref(&NULL)).collect::<Vec<_>>()),
        };
        for (l, g) in lent.iter_mut().zip(groups) {
            *l = g.lend_over(row, ctx)?;
        }
        let (mut stack, mut spilled) = ([&NULL; 4], None);
        let vals: &mut [&Datum] = match stack.get_mut(..groups.len()) {
            Some(vals) => vals,
            None => spilled.insert(vec![&NULL; groups.len()]),
        };
        for (v, l) in vals.iter_mut().zip(&*lent) {
            *v = l.value(Some(ctx));
        }
        Ok(self.open(&*vals))
    }

    /// Fold rows already built, resetting `ctx` for each.
    fn feed_rows(&mut self, rows: &[Row], ctx: &mut EvalCtx) -> DbResult<()> {
        rows.iter().try_for_each(|row| {
            ctx.reset();
            self.feed(row, ctx)
        })
    }

    /// Merge `later`, the table of the input that follows this one's: its
    /// groups that are new here are appended in its first-occurrence
    /// order, so merging tables in input order yields exactly the serial
    /// fold's table. Returns `false`, with `self` untouched, when the merge
    /// would differ from the serial fold: a group on both sides with a
    /// float sum or a DISTINCT aggregate, or an integer sum that would
    /// overflow.
    fn merge(&mut self, later: GroupTable<'p>) -> bool {
        let width = self.aggs.len();
        // Per group of `later`, in its first-occurrence order, the slot of
        // its group here if there is one.
        let found: Vec<Option<usize>> =
            (0..later.len()).map(|i| self.keys.find(later.keys.key(i))).collect();
        // A group new here is exactly `later`'s; one already here must merge.
        let exact = found.iter().enumerate().all(|(i, here)| {
            let accs = &later.accs[i * width..(i + 1) * width];
            here.is_none_or(|s| {
                zip(&self.accs[s * width..], accs).all(|(a, b)| a.merges_exactly(b))
            })
        });
        if !exact {
            return false;
        }
        for (i, here) in found.into_iter().enumerate() {
            let accs = &later.accs[i * width..(i + 1) * width];
            match here {
                Some(s) => zip(&mut self.accs[s * width..], accs).for_each(|(a, b)| a.merge(b)),
                None => {
                    self.keys.intern(later.keys.key(i));
                    self.accs.extend_from_slice(accs);
                }
            }
        }
        true
    }

    /// The finished groups, in first-occurrence order.
    fn finish(self) -> Vec<Row> {
        let (n, ngroups, width) = (self.len(), self.groups.len(), self.aggs.len());
        let mut vals = self.keys.into_keys().into_iter();
        (0..n)
            .map(|i| {
                let accs = &self.accs[i * width..(i + 1) * width];
                finish_group(vals.by_ref().take(ngroups).collect(), accs)
            })
            .collect()
    }
}

/// Where a hash aggregation's or a hash join probe's rows come from.
enum BreakerInput<'c, 'x, 'a> {
    Child(Box<dyn BlockOperator + 'c>),
    /// A scan pipeline whose rows the breaker consumes where they are
    /// read, in the crew's morsels or in the one cursor: an aggregation
    /// folds them (DESIGN.md §29), a join probes them (DESIGN.md §30).
    Scan(Box<ScanOp<'c, 'x, 'a>>),
}

impl BreakerInput<'_, '_, '_> {
    /// Open a child, or a scan's cursor; a morsel stream opens when the
    /// breaker starts it.
    fn open(&mut self) -> DbResult<()> {
        match self {
            BreakerInput::Child(child) => child.open(),
            BreakerInput::Scan(scan) => scan.open_cursor(),
        }
    }

    fn close(&mut self) {
        match self {
            BreakerInput::Child(child) => child.close(),
            BreakerInput::Scan(scan) => scan.close(),
        }
    }

    fn resident_rows(&self) -> u64 {
        match self {
            BreakerInput::Child(child) => child.resident_rows(),
            BreakerInput::Scan(scan) => scan.resident_rows(),
        }
    }
}

/// Hash aggregation: folds its input into a [`GroupTable`], then emits the
/// finished groups in first-occurrence order. Over a scan pipeline's
/// cursor the rows fold into the one table where they are read; over its
/// morsels each morsel folds into its own table on the crew and the
/// statement's thread merges them in morsel order; over any other input
/// with a crew, buffered chunks do the same. A table that would not merge
/// exactly (a float sum in a group the merged table holds, an integer
/// overflow) sends the rest of the input, from that morsel or chunk on, to
/// the serial fold, as a DISTINCT aggregate sends all of it.
struct HashAggOp<'c, 'x, 'a> {
    exec: &'x Executor<'a>,
    crew: CrewRef<'c, 'x>,
    input: BreakerInput<'c, 'x, 'a>,
    groups: &'x [PhysExpr],
    aggs: &'x [AggSpec],
    out: Option<Vec<Row>>,
    pos: usize,
}

impl<'x> HashAggOp<'_, 'x, '_> {
    fn fold_input(&mut self) -> DbResult<GroupTable<'x>> {
        let table = GroupTable::new(self.groups, self.aggs);
        let mut crew = self.crew;
        if crew.is_some() && self.aggs.iter().any(|a| a.distinct) {
            self.exec.stats.agg_serial_fallbacks.inc();
            crew = None;
        }
        match &mut self.input {
            BreakerInput::Scan(scan) => scan.fold(table),
            BreakerInput::Child(child) => fold_child(self.exec, crew, child.as_mut(), table),
        }
    }
}

/// Fold `child` into `merged`. With a crew, batches of `threads ×
/// BREAKER_MORSEL` rows split into one chunk per thread, each chunk folds
/// into its own table on the crew, and this thread merges the tables in
/// chunk order (DESIGN.md §15). Without one, or below the parallel floor,
/// the rows fold here, a block at a time.
fn fold_child<'c, 'x>(
    exec: &Executor<'_>,
    crew: CrewRef<'c, 'x>,
    child: &mut (dyn BlockOperator + '_),
    mut merged: GroupTable<'x>,
) -> DbResult<GroupTable<'x>> {
    let batch = crew.map_or(1, |c| c.threads() * BREAKER_MORSEL);
    let (groups, aggs) = (merged.groups, merged.aggs);
    let mut ctx = EvalCtx::new();
    let mut input_done = false;
    while !input_done {
        let mut buf: Vec<Row> = Vec::new();
        while buf.len() < batch {
            let Some(block) = child.next_block()? else {
                input_done = true;
                break;
            };
            buf.extend(block.take_rows());
            exec.check_limit(merged.len() + buf.len())?;
            exec.stats.note_resident((merged.len() + buf.len()) as u64 + child.resident_rows());
        }
        let Some(crew) = exec.parallel(crew, buf.len()) else {
            merged.feed_rows(&buf, &mut ctx)?;
            continue;
        };
        let tasks: Vec<Task<'x, (GroupTable<'x>, Vec<Row>)>> = split_even(buf, crew.threads())
            .into_iter()
            .map(|chunk| -> Task<'x, _> {
                Box::new(move || {
                    let mut table = GroupTable::new(groups, aggs);
                    table.feed_rows(&chunk, &mut EvalCtx::new())?;
                    Ok((table, chunk))
                })
            })
            .collect();
        let mut results = crew.run_all(tasks).into_iter();
        while let Some(r) = results.next() {
            let (table, chunk) = r?;
            if !merged.merge(table) {
                // Fold this chunk, the rest of the batch and the rest of
                // the input here, from the exact state merged so far.
                exec.stats.agg_serial_fallbacks.inc();
                merged.feed_rows(&chunk, &mut ctx)?;
                for r in results {
                    merged.feed_rows(&r?.1, &mut ctx)?;
                }
                return fold_child(exec, None, child, merged);
            }
            exec.stats.agg_partition_merges.inc();
        }
    }
    Ok(merged)
}

/// Fold a scan pipeline inside its morsels (DESIGN.md §29): each morsel
/// job folds the rows `scan_morsel` hands over into a morsel-local table,
/// so no row leaves its worker, and the statement's thread merges the
/// tables in morsel order. The first table that would not merge exactly
/// stops the stream; that morsel and every later one are read again, on
/// this thread under the statement's snapshot, into the merged state.
fn fold_morsels<'x>(
    exec: &'x Executor<'_>,
    pipe: ScanPipeline<'x>,
    scan: &Morsels<'_, 'x>,
    mut merged: GroupTable<'x>,
) -> DbResult<GroupTable<'x>> {
    let (groups, aggs) = (merged.groups, merged.aggs);
    let mut morsels = scan.stream(exec, pipe, move |ids, budget| {
        let mut table = GroupTable::new(groups, aggs);
        let passed =
            scan_morsel(exec, (pipe, None), budget, ids, &mut |row, ctx| table.feed(row, ctx))?;
        Ok((table, passed))
    });
    // Rows that passed the scan filter in the morsels merged so far.
    let mut charged = 0;
    for m in 0.. {
        let Some(r) = morsels.next() else { break };
        let (table, passed) = r?;
        if !merged.merge(table) {
            drop(morsels);
            exec.stats.agg_serial_fallbacks.inc();
            let budget = AtomicU64::new(charged);
            let rest = m * scan.size..scan.high;
            let sink = &mut |row: &mut Row, ctx: &mut EvalCtx| merged.feed(row, ctx);
            caught(|| scan_morsel(exec, (pipe, None), &budget, rest, sink))?;
            exec.check_limit(merged.len())?;
            return Ok(merged);
        }
        exec.stats.agg_partition_merges.inc();
        charged += passed;
        exec.check_limit(merged.len())?;
        exec.stats.note_resident(merged.len() as u64);
    }
    Ok(merged)
}

impl BlockOperator for HashAggOp<'_, '_, '_> {
    fn open(&mut self) -> DbResult<()> {
        self.input.open()
    }

    fn next_block(&mut self) -> DbResult<Option<RowBlock>> {
        if self.out.is_none() {
            self.out = Some(self.fold_input()?.finish());
            self.pos = 0;
        }
        let block_rows = self.exec.limits.block_rows;
        Ok(chunk_from(self.out.as_mut().unwrap(), &mut self.pos, block_rows))
    }

    fn close(&mut self) {
        self.input.close();
        self.out = None;
    }

    fn resident_rows(&self) -> u64 {
        let buffered = self
            .out
            .as_ref()
            .map(|b| (b.len() - self.pos) as u64)
            .unwrap_or(0);
        let child = self.input.resident_rows();
        buffered + child
    }
}

/// Group aggregation over sorted input — fully streaming: only the
/// current group's accumulators and the not-yet-emitted finished groups
/// are resident.
struct GroupAggOp<'x, 'a> {
    exec: &'x Executor<'a>,
    child: Box<dyn BlockOperator + 'x>,
    groups: &'x [PhysExpr],
    aggs: &'x [AggSpec],
    current: Option<(Vec<Datum>, Vec<Accumulator>)>,
    pending: Vec<Row>,
    input_done: bool,
    emitted_any: bool,
}

impl BlockOperator for GroupAggOp<'_, '_> {
    fn open(&mut self) -> DbResult<()> {
        self.child.open()
    }

    fn next_block(&mut self) -> DbResult<Option<RowBlock>> {
        let block_rows = self.exec.limits.block_rows.max(1);
        while !self.input_done && self.pending.len() < block_rows {
            match self.child.next_block()? {
                Some(block) => {
                    let groups = self.groups;
                    let aggs = self.aggs;
                    let current = &mut self.current;
                    let pending = &mut self.pending;
                    block.for_each_row(|row| {
                        let mut key_vals = Vec::with_capacity(groups.len());
                        for g in groups {
                            key_vals.push(g.eval(row)?);
                        }
                        // `key_cmp`, not `total_cmp`: group boundaries
                        // must match the hash aggregate's canonical
                        // `group_key` exactly (`1` groups with `1.0`,
                        // `2^53+1` does not group with `2^53.0`) so plan
                        // choice never changes the result.
                        let same = current.as_ref().is_some_and(|(k, _)| {
                            k.iter()
                                .zip(&key_vals)
                                .all(|(a, b)| a.key_cmp(b) == std::cmp::Ordering::Equal)
                        });
                        if !same {
                            if let Some((k, accs)) = current.take() {
                                pending.push(finish_group(k, &accs));
                            }
                            *current = Some((key_vals, aggs.iter().map(new_acc).collect()));
                        }
                        if let Some((_, accs)) = current.as_mut() {
                            feed_accs(accs, aggs, row)?;
                        }
                        Ok(())
                    })?;
                }
                None => {
                    self.input_done = true;
                    if let Some((k, accs)) = self.current.take() {
                        self.pending.push(finish_group(k, &accs));
                    } else if self.groups.is_empty() && !self.emitted_any && self.pending.is_empty()
                    {
                        let accs: Vec<Accumulator> = self.aggs.iter().map(new_acc).collect();
                        self.pending.push(finish_group(Vec::new(), &accs));
                    }
                }
            }
        }
        if self.pending.is_empty() {
            return Ok(None);
        }
        self.emitted_any = true;
        Ok(Some(RowBlock::from_rows(std::mem::take(&mut self.pending))))
    }

    fn close(&mut self) {
        self.child.close();
    }

    fn resident_rows(&self) -> u64 {
        self.pending.len() as u64 + self.child.resident_rows()
    }
}

// ---------------------------------------------------------------------------
// Joins

/// What a hash join does with one probe (left) row. It is `Copy`, so each
/// morsel job takes its own.
#[derive(Clone, Copy)]
struct Probe<'x> {
    left_key: &'x PhysExpr,
    residual: Option<&'x PhysExpr>,
    /// The NULLs a left-outer row without a match is padded with; `None`
    /// for an inner join.
    pad: Option<usize>,
}

impl Probe<'_> {
    /// The one probe routine: join `lrow` with the build rows that hold its
    /// key, in build-row order, and `emit` each joined row the residual
    /// passes; a left-outer row with none is emitted padded with NULLs.
    /// `found` is the number of the row's build key when the probe filter
    /// already looked it up (DESIGN.md §40).
    fn row(
        &self,
        built: &BuiltSide,
        (lrow, found): (&Row, Option<usize>),
        emit: &mut impl FnMut(Row) -> DbResult<()>,
    ) -> DbResult<()> {
        let idxs = match found {
            Some(id) => built.rows_of(id),
            None => built.matches(self.left_key.lend(lrow)?.value(None)),
        };
        let mut matched = false;
        for &i in idxs {
            let rrow = &built.rows[i];
            let mut joined = Vec::with_capacity(lrow.len() + rrow.len());
            joined.extend(lrow.iter().chain(rrow).cloned());
            if self.residual.map_or(Ok(true), |r| r.eval_bool(&joined))? {
                matched = true;
                emit(joined)?;
            }
        }
        match self.pad {
            Some(width) if !matched => {
                let mut joined = lrow.clone();
                joined.extend(std::iter::repeat_n(Datum::Null, width));
                emit(joined)
            }
            _ => Ok(()),
        }
    }
}

/// Hash join: drains its right input into one [`BuiltSide`] on the
/// statement's thread, then streams its left input through [`Probe::row`]
/// — inside the morsels of a parallel scan pipeline, stitched in morsel
/// order, inside a serial scan's cursor, or block by block. Either way
/// joined rows come out in probe order, each probe row's matches in
/// build-row order, at any thread count.
struct HashJoinOp<'c, 'x, 'a> {
    exec: &'x Executor<'a>,
    crew: CrewRef<'c, 'x>,
    /// Probed on the statement's thread, block by block or in its scan's
    /// cursor, or, a scan pipeline with morsels, inside them: their
    /// stream opens once the build is done, and its blocks are joined
    /// rows.
    left: BreakerInput<'c, 'x, 'a>,
    right: Box<dyn BlockOperator + 'c>,
    right_key: &'x PhysExpr,
    probe: Probe<'x>,
    /// Shared with the morsel jobs.
    built: Option<Arc<BuiltSide>>,
    /// Joined rows of the block-by-block probe so far, charged against the
    /// cap.
    emitted: u64,
    pending: VecDeque<Row>,
    left_done: bool,
}

impl HashJoinOp<'_, '_, '_> {
    /// Drain the right input and hash it. With a crew the hashing runs
    /// under [`caught`], so a build key that panics is the statement's
    /// parallel-worker error, as a panic in any of its jobs is.
    fn build(&mut self) -> DbResult<BuiltSide> {
        let rows = drain_child(self.exec, self.right.as_mut())?;
        self.exec.stats.join_build_rows.add(rows.len() as u64);
        let hash = || BuiltSide::new(rows, self.right_key);
        if self.crew.is_some() {
            caught(hash)
        } else {
            hash()
        }
    }
}

/// Open `scan`'s morsel stream with a job that probes each row the
/// pipeline hands over, so probe rows never leave their worker; each
/// morsel's cursor drops the rows `keys` rejects first. Every joined row
/// is charged, as it is made, against one budget the morsels share: a
/// fan-out past `max_intermediate_rows` fails inside the morsel that
/// crosses it.
fn probe_morsels<'x>(
    exec: &'x Executor<'_>,
    pipe: ScanPipeline<'x>,
    scan: &mut Morsels<'_, 'x>,
    (probe, keys): (Probe<'x>, Option<Arc<KeyFilter>>),
    built: Arc<BuiltSide>,
) {
    let joined = AtomicU64::new(0);
    scan.out = Some(scan.stream(exec, pipe, move |ids, budget| {
        exec.stats.join_probe_morsels.inc();
        let mut out = Vec::new();
        scan_morsel(exec, (pipe, keys.as_ref()), budget, ids, &mut |lrow, ctx| {
            probe.row(&built, (lrow, ctx.found_key), &mut |row| {
                exec.check_limit(joined.fetch_add(1, Ordering::Relaxed) as usize + 1)?;
                out.push(row);
                Ok(())
            })
        })?;
        Ok(out)
    }));
}

impl BlockOperator for HashJoinOp<'_, '_, '_> {
    fn open(&mut self) -> DbResult<()> {
        self.left.open()?;
        self.right.open()
    }

    fn next_block(&mut self) -> DbResult<Option<RowBlock>> {
        if self.built.is_none() {
            let built = Arc::new(self.build()?);
            if let BreakerInput::Scan(op) = &mut self.left {
                op.start_probe(self.probe, &built);
            }
            self.built = Some(built);
        }
        if let BreakerInput::Scan(scan) = &mut self.left {
            if !scan.on_cursor() {
                return scan.next_block();
            }
        }
        let block_rows = self.exec.limits.block_rows.max(1);
        let (exec, probe, built) = (self.exec, self.probe, self.built.as_deref().unwrap());
        let (emitted, pending) = (&mut self.emitted, &mut self.pending);
        let (left, left_done) = (&mut self.left, &mut self.left_done);
        let mut fill = || {
            while pending.len() < block_rows && !*left_done {
                let mut join = |lrow: &Row, found: Option<usize>| {
                    probe.row(built, (lrow, found), &mut |row| {
                        pending.push_back(row);
                        *emitted += 1;
                        exec.check_limit(*emitted as usize)
                    })
                };
                match left {
                    // The cursor lends each probe row.
                    BreakerInput::Scan(scan) => {
                        *left_done = !scan.pull(&mut |lrow, ctx| join(lrow, ctx.found_key))?;
                    }
                    BreakerInput::Child(child) => match child.next_block()? {
                        Some(block) => block.for_each_row(|lrow| join(lrow, None))?,
                        None => *left_done = true,
                    },
                }
            }
            Ok(())
        };
        // As for the build: with a crew, a probe that panics is the
        // statement's parallel-worker error.
        if self.crew.is_some() {
            caught(fill)?;
        } else {
            fill()?;
        }
        let pending = &mut self.pending;
        if pending.is_empty() {
            return Ok(None);
        }
        let n = pending.len().min(block_rows);
        Ok(Some(RowBlock::from_rows(pending.drain(..n).collect())))
    }

    fn close(&mut self) {
        self.left.close();
        self.right.close();
        self.built = None;
        self.pending.clear();
    }

    fn resident_rows(&self) -> u64 {
        let built = self.built.as_ref().map(|b| b.rows.len() as u64).unwrap_or(0);
        built
            + self.pending.len() as u64
            + self.left.resident_rows()
            + self.right.resident_rows()
    }
}

/// Merge join: both (sorted) sides are pipeline breakers — they drain,
/// then the merge runs once and the result streams out.
struct MergeJoinOp<'x, 'a> {
    exec: &'x Executor<'a>,
    left: Box<dyn BlockOperator + 'x>,
    right: Box<dyn BlockOperator + 'x>,
    left_key: &'x PhysExpr,
    right_key: &'x PhysExpr,
    residual: Option<&'x PhysExpr>,
    out: Option<Vec<Row>>,
    pos: usize,
}

impl BlockOperator for MergeJoinOp<'_, '_> {
    fn open(&mut self) -> DbResult<()> {
        self.left.open()?;
        self.right.open()
    }

    fn next_block(&mut self) -> DbResult<Option<RowBlock>> {
        if self.out.is_none() {
            let left_rows = drain_child(self.exec, self.left.as_mut())?;
            let right_rows = drain_child(self.exec, self.right.as_mut())?;
            let joined = self.exec.merge_join_rows(
                &left_rows,
                &right_rows,
                self.left_key,
                self.right_key,
                self.residual,
            )?;
            self.out = Some(joined);
            self.pos = 0;
        }
        let block_rows = self.exec.limits.block_rows;
        Ok(chunk_from(self.out.as_mut().unwrap(), &mut self.pos, block_rows))
    }

    fn close(&mut self) {
        self.left.close();
        self.right.close();
        self.out = None;
    }

    fn resident_rows(&self) -> u64 {
        let buffered = self
            .out
            .as_ref()
            .map(|b| (b.len() - self.pos) as u64)
            .unwrap_or(0);
        buffered + self.left.resident_rows() + self.right.resident_rows()
    }
}

/// Nested-loop join: the inner (right) side is a pipeline breaker, the
/// outer (left) side streams block by block.
struct NestedLoopOp<'x, 'a> {
    exec: &'x Executor<'a>,
    left: Box<dyn BlockOperator + 'x>,
    right: Box<dyn BlockOperator + 'x>,
    predicate: Option<&'x PhysExpr>,
    /// As [`Probe::pad`].
    pad: Option<usize>,
    right_rows: Option<Vec<Row>>,
    emitted: u64,
    pending: VecDeque<Row>,
    left_done: bool,
}

impl BlockOperator for NestedLoopOp<'_, '_> {
    fn open(&mut self) -> DbResult<()> {
        self.left.open()?;
        self.right.open()
    }

    fn next_block(&mut self) -> DbResult<Option<RowBlock>> {
        if self.right_rows.is_none() {
            self.right_rows = Some(drain_child(self.exec, self.right.as_mut())?);
        }
        let block_rows = self.exec.limits.block_rows.max(1);
        while self.pending.len() < block_rows && !self.left_done {
            let Some(block) = self.left.next_block()? else {
                self.left_done = true;
                break;
            };
            let right_rows = self.right_rows.as_ref().unwrap();
            let predicate = self.predicate;
            let pad = self.pad;
            let exec = self.exec;
            let emitted = &mut self.emitted;
            let pending = &mut self.pending;
            block.for_each_row(|lrow| {
                let mut matched = false;
                for rrow in right_rows {
                    let mut joined = lrow.clone();
                    joined.extend(rrow.iter().cloned());
                    let keep = match predicate {
                        Some(p) => p.eval_bool(&joined)?,
                        None => true,
                    };
                    if keep {
                        matched = true;
                        pending.push_back(joined);
                        *emitted += 1;
                        exec.check_limit(*emitted as usize)?;
                    }
                }
                if let (Some(width), false) = (pad, matched) {
                    let mut joined = lrow.clone();
                    joined.extend(std::iter::repeat_n(Datum::Null, width));
                    pending.push_back(joined);
                    *emitted += 1;
                    exec.check_limit(*emitted as usize)?;
                }
                Ok(())
            })?;
        }
        if self.pending.is_empty() {
            return Ok(None);
        }
        let n = self.pending.len().min(block_rows);
        let out: Vec<Row> = self.pending.drain(..n).collect();
        Ok(Some(RowBlock::from_rows(out)))
    }

    fn close(&mut self) {
        self.left.close();
        self.right.close();
        self.right_rows = None;
        self.pending.clear();
    }

    fn resident_rows(&self) -> u64 {
        let built = self.right_rows.as_ref().map(|r| r.len() as u64).unwrap_or(0);
        built
            + self.pending.len() as u64
            + self.left.resident_rows()
            + self.right.resident_rows()
    }
}

// ---------------------------------------------------------------------------
// Leaves

struct ValuesOp<'x, 'a> {
    exec: &'x Executor<'a>,
    rows: &'x [Vec<PhysExpr>],
    pos: usize,
}

impl BlockOperator for ValuesOp<'_, '_> {
    fn next_block(&mut self) -> DbResult<Option<RowBlock>> {
        if self.pos >= self.rows.len() {
            return Ok(None);
        }
        let block_rows = self.exec.limits.block_rows.max(1);
        let end = (self.pos + block_rows).min(self.rows.len());
        let empty: Row = Vec::new();
        let mut out: Vec<Row> = Vec::with_capacity(end - self.pos);
        for exprs in &self.rows[self.pos..end] {
            let row: Row = exprs.iter().map(|e| e.eval(&empty)).collect::<DbResult<_>>()?;
            out.push(row);
        }
        self.pos = end;
        Ok(Some(RowBlock::from_rows(out)))
    }
}

// ---------------------------------------------------------------------------
// The scan pipeline (DESIGN.md §37)

/// A scan→filter→project plan prefix, the shape a scan runs whole. All
/// expressions in the prefix bind against the same scan-output scope, so
/// one [`EvalCtx`] serves the whole row. `Default` leaves out what a
/// bare heap scan leaf does not have.
#[derive(Clone, Copy, Default)]
struct ScanPipeline<'p> {
    table: &'p str,
    needed: Option<&'p [String]>,
    scan_filter: Option<&'p PhysExpr>,
    post_filter: Option<&'p PhysExpr>,
    project: Option<&'p [PhysExpr]>,
    /// What the scan's rows are evaluated through, which may let it serve
    /// a page unread (DESIGN.md §33): the prefix's own post filter and
    /// projection, or, for the bare scan leaf of `EXPLAIN ANALYZE`, the
    /// operators above it.
    consumer: Option<ScanConsumer<'p>>,
    /// What the scan reads before the heap: a columnar path's stores
    /// (DESIGN.md §38) or an index path's B-tree (DESIGN.md §39).
    leaf: ScanLeaf<'p>,
    /// The groups and aggregates of a hash aggregation that folds the
    /// scan's rows where they are read (DESIGN.md §29).
    fold: Option<(&'p [PhysExpr], &'p [AggSpec])>,
}

impl ScanPipeline<'_> {
    /// The scan-row positions read after the scan's filters — by the
    /// consumer, or by the post filter and a fold without one — or `None`
    /// when the rows go on whole (DESIGN.md §40).
    fn reads(&self) -> Option<Vec<usize>> {
        let mut refs = Vec::new();
        let mut read = |e: &PhysExpr| e.column_refs(&mut refs);
        match (self.consumer, self.fold) {
            (Some(c), _) => c.filter.into_iter().chain(c.project).for_each(&mut read),
            (None, Some((groups, aggs))) => {
                let args = aggs.iter().filter_map(|a| a.arg.as_ref());
                self.post_filter.into_iter().chain(groups).chain(args).for_each(&mut read)
            }
            (None, None) => return None,
        }
        Some(refs)
    }
}

/// Decompose a leaf, `Filter(leaf)`, `Project(leaf)` or
/// `Project(Filter(leaf))`, where the leaf is a `SeqScan`, a
/// `ColumnarScan` or an `IndexScan`. An index leaf's probe cap is set
/// when the scan is built.
fn scan_pipeline(plan: &Plan) -> Option<ScanPipeline<'_>> {
    let (input, project) = match plan {
        Plan::Project { input, exprs, .. } => (input.as_ref(), Some(exprs.as_slice())),
        other => (other, None),
    };
    let (scan, post_filter) = match input {
        Plan::Filter { input, predicate, .. } => (input.as_ref(), Some(predicate)),
        other => (other, None),
    };
    let (table, needed, filter, leaf) = match scan {
        Plan::SeqScan { table, filter, needed, .. } => (table, needed, filter, ScanLeaf::Heap),
        Plan::ColumnarScan { path, bounds_cover_filter } => {
            (&path.table, &path.needed, &path.filter, ScanLeaf::Store(path, *bounds_cover_filter))
        }
        Plan::IndexScan(path) => {
            (&path.table, &path.needed, &path.filter, ScanLeaf::Index(path, None))
        }
        _ => return None,
    };
    Some(ScanPipeline {
        table,
        needed: needed.as_deref(),
        scan_filter: filter.as_ref(),
        post_filter,
        project,
        consumer: project.map(|project| ScanConsumer { filter: post_filter, project }),
        leaf,
        fold: None,
    })
}

/// The one scan operator: a [`ScanPipeline`] run over its table's row
/// ids, as the morsels of the statement's crew or as one cursor on the
/// statement's thread, over the heap, the column stores or a B-tree.
/// Either way rows come out in row-id order, so the stream is
/// byte-identical at any thread count.
struct ScanOp<'c, 'x, 'a> {
    exec: &'x Executor<'a>,
    pipe: ScanPipeline<'x>,
    rows: ScanRows<'c, 'x>,
    /// Rows per block: `block_rows`, or fewer when the parent consumes
    /// fewer (a `LIMIT`).
    block: usize,
}

/// Where a [`ScanOp`] runs.
enum ScanRows<'c, 'x> {
    /// One cursor, opened with the operator: at one exec thread, below the
    /// parallel floor, and over an index.
    Cursor(Option<Box<Cursor<'x>>>),
    Morsels(Morsels<'c, 'x>),
}

impl<'c, 'x, 'a> ScanOp<'c, 'x, 'a> {
    /// The operator for `plan`, if it is a scan pipeline; `cap` bounds
    /// the rows its parent consumes.
    fn try_new(
        exec: &'x Executor<'a>,
        plan: &'x Plan,
        cap: Option<u64>,
        crew: CrewRef<'c, 'x>,
    ) -> DbResult<Option<ScanOp<'c, 'x, 'a>>> {
        scan_pipeline(plan).map(|pipe| ScanOp::new(exec, pipe, cap, crew)).transpose()
    }

    /// Morsels when the one parallel rule holds over the table's row ids,
    /// else a cursor; an index scan always runs as a cursor. A columnar
    /// scan's morsels are its segments.
    fn new(
        exec: &'x Executor<'a>,
        mut pipe: ScanPipeline<'x>,
        cap: Option<u64>,
        crew: CrewRef<'c, 'x>,
    ) -> DbResult<ScanOp<'c, 'x, 'a>> {
        const MIN_MORSEL_ROWS: u64 = 256;
        const MORSELS_PER_WORKER: u64 = 8;
        let mut rows = ScanRows::Cursor(None);
        if let ScanLeaf::Index(path, probe_cap) = &mut pipe.leaf {
            // A probe cap is only sound when the bounds *are* the whole
            // predicate and no post filter drops a row: then every row the
            // index surfaces is an output row, and the `cap` smallest
            // rowids are exactly the rows an uncapped scan would lend first.
            *probe_cap = cap.filter(|_| path.exact_bounds && pipe.post_filter.is_none());
        } else if crew.is_some() {
            let high = exec.source.db.high_water(pipe.table)?;
            if let Some(crew) = exec.parallel(crew, high as usize) {
                let target = crew.threads() as u64 * MORSELS_PER_WORKER;
                let size = match pipe.leaf {
                    ScanLeaf::Store(..) => SEG_ROWS as u64,
                    _ => (high / target).max(MIN_MORSEL_ROWS),
                };
                let n = high.div_ceil(size);
                let pending = VecDeque::new();
                rows = ScanRows::Morsels(Morsels { crew, high, size, n, out: None, pending });
            }
        }
        let block = exec.limits.block_rows.max(1).min(cap.unwrap_or(u64::MAX) as usize);
        Ok(ScanOp { exec, pipe, rows, block })
    }

    fn on_cursor(&self) -> bool {
        matches!(self.rows, ScanRows::Cursor(_))
    }

    /// Open the cursor, if the scan runs on one, and count the scan
    /// (`TableScan::count_open`). Morsels read the stores if they serve
    /// this reader now, and a heap scan's morsels are counted when their
    /// stream opens.
    fn open_cursor(&mut self) -> DbResult<()> {
        match &mut self.rows {
            ScanRows::Cursor(cursor) => {
                let c = cursor.insert(Box::new(Cursor::open(self.exec, self.pipe, 0..u64::MAX)?));
                c.scan.count_open();
            }
            ScanRows::Morsels(_) => {
                if let ScanLeaf::Store(path, _) = self.pipe.leaf {
                    if self.exec.source.columnar_serves(path)? {
                        self.exec.stats.columnar_scans.inc();
                    } else {
                        self.pipe.leaf = ScanLeaf::Heap;
                    }
                }
            }
        }
        Ok(())
    }

    /// Run the cursor until `sink` has been lent a block of rows or the
    /// rows run out. Returns whether rows may remain.
    fn pull(
        &mut self,
        sink: &mut dyn FnMut(&mut Row, &mut EvalCtx) -> DbResult<()>,
    ) -> DbResult<bool> {
        let ScanRows::Cursor(Some(cursor)) = &mut self.rows else {
            unreachable!("pulled a scan without an open cursor")
        };
        if cursor.scan.done() {
            return Ok(false);
        }
        let (block, mut n) = (self.block, 0);
        cursor.run(self.pipe, u64::MAX, &mut |row, ctx| {
            sink(row, ctx)?;
            n += 1;
            Ok(n < block)
        })?;
        Ok(!cursor.scan.done())
    }

    /// Make the scan a hash join's probe input, once the join's build is
    /// done (DESIGN.md §30, §40). An inner join whose key the scan reads in
    /// place filters the scan by the build's keys, so a row without a match
    /// is dropped before it is gathered, decoded past its key or lent. (The
    /// planner projects above its joins, so a probe scan's rows are its
    /// output rows; a projected one is probed unfiltered.) Over morsels,
    /// open the stream that probes inside them.
    fn start_probe(&mut self, probe: Probe<'x>, built: &Arc<BuiltSide>) {
        let keys = match (probe.pad, self.pipe.project) {
            (None, None) => KeyFilter::over_scan(probe.left_key, Arc::clone(built)),
            _ => None,
        };
        let keys = keys.map(Arc::new);
        match &mut self.rows {
            ScanRows::Cursor(cursor) => {
                let cursor = cursor.as_mut().expect("a probe scan's cursor opens with its join");
                keys.into_iter().for_each(|keys| cursor.scan.filter_keys(keys));
            }
            ScanRows::Morsels(scan) => {
                probe_morsels(self.exec, self.pipe, scan, (probe, keys), Arc::clone(built));
            }
        }
    }

    /// Fold the pipeline's rows into `merged` where they are read: in the
    /// one cursor, or in the morsels (DESIGN.md §29).
    fn fold(&mut self, mut merged: GroupTable<'x>) -> DbResult<GroupTable<'x>> {
        if let ScanRows::Morsels(scan) = &self.rows {
            return fold_morsels(self.exec, self.pipe, scan, merged);
        }
        while self.pull(&mut |row, ctx| merged.feed(row, ctx))? {
            self.exec.check_limit(merged.len())?;
            self.exec.stats.note_resident(merged.len() as u64);
        }
        self.exec.check_limit(merged.len())?;
        Ok(merged)
    }
}

impl BlockOperator for ScanOp<'_, '_, '_> {
    fn open(&mut self) -> DbResult<()> {
        self.open_cursor()?;
        let (exec, pipe) = (self.exec, self.pipe);
        if let ScanRows::Morsels(scan) = &mut self.rows {
            scan.out = Some(scan.stream(exec, pipe, move |ids, budget| {
                let mut out: Vec<Row> = Vec::new();
                scan_morsel(exec, (pipe, None), budget, ids, &mut |row, _| {
                    out.push(std::mem::take(row));
                    Ok(())
                })?;
                Ok(out)
            }));
        }
        Ok(())
    }

    fn next_block(&mut self) -> DbResult<Option<RowBlock>> {
        if let ScanRows::Morsels(scan) = &mut self.rows {
            return scan.next_block(self.block);
        }
        // A block is the rows the cursor's sink takes whole.
        let mut out: Vec<Row> = Vec::with_capacity(self.block);
        self.pull(&mut |row, _| {
            out.push(std::mem::take(row));
            Ok(())
        })?;
        Ok((!out.is_empty()).then(|| RowBlock::from_rows(out)))
    }

    fn close(&mut self) {
        match &mut self.rows {
            ScanRows::Cursor(cursor) => *cursor = None,
            // Stops the claims and waits for the morsels in flight.
            ScanRows::Morsels(scan) => {
                scan.out = None;
                scan.pending.clear();
            }
        }
    }

    fn resident_rows(&self) -> u64 {
        match &self.rows {
            ScanRows::Cursor(_) => 0,
            ScanRows::Morsels(scan) => scan.pending.len() as u64,
        }
    }
}

/// A scan pipeline's cursor: the table's [`TableScan`], the row context
/// and the projected row, kept for every run. A serial scan runs its one
/// cursor a block at a time; a morsel runs a cursor of its own once.
struct Cursor<'x> {
    scan: TableScan<'x>,
    ctx: EvalCtx,
    projected: Row,
    /// Per projected expression, the scan-row column it moves out of the
    /// lent row: a bare column that no other expression reads.
    moves: Vec<Option<usize>>,
}

impl<'x> Cursor<'x> {
    fn open(
        exec: &'x Executor<'_>,
        pipe: ScanPipeline<'x>,
        ids: Range<u64>,
    ) -> DbResult<Cursor<'x>> {
        let ScanPipeline { table, needed, scan_filter, consumer, leaf, project, .. } = pipe;
        let mut scan = TableScan::open(exec, table, needed, scan_filter, consumer, leaf, ids)?;
        // A store gathers what is read after the filters; a heap decodes
        // every needed column anyway.
        if let Some(reads) = matches!(leaf, ScanLeaf::Store(..)).then(|| pipe.reads()).flatten() {
            scan.gather_only(&reads);
        }
        let mut refs = Vec::new();
        project.into_iter().flatten().for_each(|e| e.column_refs(&mut refs));
        let moves = project.into_iter().flatten().map(|e| match e {
            PhysExpr::Column(i) if refs.iter().filter(|&r| r == i).count() == 1 => Some(*i),
            _ => None,
        });
        Ok(Cursor { scan, ctx: EvalCtx::new(), projected: Vec::new(), moves: moves.collect() })
    }

    /// Run the whole pipeline prefix from where the cursor stands: scan
    /// filter → post filter → project → `sink`, until `sink` returns
    /// `false` or the rows run out. `sink` is lent each row, as the scan
    /// lends its rows (DESIGN.md §35): it reads it, or takes it whole. The
    /// projection moves a column it alone reads out of the scan row, which
    /// nothing reads after it (DESIGN.md §38). Returns the rows visited and
    /// the rows that passed the scan filter; more of these than `cap` fail
    /// the run.
    fn run(
        &mut self,
        pipe: ScanPipeline<'_>,
        cap: u64,
        sink: &mut dyn FnMut(&mut Row, &mut EvalCtx) -> DbResult<bool>,
    ) -> DbResult<(u64, u64)> {
        let mut passed = 0u64;
        let (projected, moves) = (&mut self.projected, &self.moves);
        // The scan resets the context before its filter and not after, so
        // the post filter, the projection and the sink reuse what it
        // memoized.
        let visited = self.scan.run(&mut self.ctx, &mut |row, ctx| {
            passed += 1;
            if passed > cap {
                let e = format!("intermediate result exceeded {cap} rows");
                return Err(DbError::ResourceExhausted(e));
            }
            if let Some(p) = pipe.post_filter {
                if !p.eval_bool_ctx(row, ctx)? {
                    return Ok(true);
                }
            }
            match pipe.project {
                Some(exprs) => {
                    projected.clear();
                    projected.reserve(exprs.len());
                    for (e, &mv) in zip(exprs, moves) {
                        projected.push(match mv.and_then(|i| row.get_mut(i)) {
                            Some(v) => std::mem::replace(v, Datum::Null),
                            None => e.eval_ctx(row, ctx)?,
                        });
                    }
                    sink(projected, ctx)
                }
                None => sink(row, ctx),
            }
        })?;
        Ok((visited, passed))
    }
}

/// A scan's morsels: row-id ranges the statement's crew claims from a
/// [`MorselStream`] — at most a window of `2 × threads` morsels past the
/// one the consumer waits for — and the consumer stitches in morsel order,
/// so a LIMIT that stops pulling stops the claims one window past the
/// morsel that satisfied it.
struct Morsels<'c, 'x> {
    crew: &'c Crew<'c, 'x>,
    high: u64,
    size: u64,
    n: u64,
    /// The stream of the bare scan, opened with the operator, or of a
    /// probing join, opened once its build is done.
    out: Option<MorselStream<'c, 'x, Vec<Row>>>,
    pending: VecDeque<Row>,
}

impl<'c, 'x> Morsels<'c, 'x> {
    /// Count a heap scan and run `work` over its morsels on the crew,
    /// results in morsel order. `work` gets a morsel's row ids and the
    /// scan's shared row budget. A columnar scan was counted when it
    /// opened, and its morsels count in no parallel-scan counter.
    fn stream<T: Send + 'x>(
        &self,
        exec: &'x Executor<'_>,
        pipe: ScanPipeline<'x>,
        work: impl Fn(Range<u64>, &AtomicU64) -> DbResult<T> + Send + Sync + 'x,
    ) -> MorselStream<'c, 'x, T> {
        let (stats, heap) = (exec.stats, matches!(pipe.leaf, ScanLeaf::Heap));
        if heap {
            stats.parallel_scans.inc();
            stats.scan_workers.add(self.crew.threads().min(self.n as usize) as u64);
        }
        let (high, size) = (self.high, self.size);
        let budget = AtomicU64::new(0);
        MorselStream::new(Some(self.crew), self.n, move |m| {
            if heap {
                stats.morsels_dispatched.inc();
            }
            let start = m * size;
            work(start..high.min(start + size), &budget)
        })
    }

    /// Stitch the next block from the morsels, in morsel order; the lowest
    /// failing morsel wins.
    fn next_block(&mut self, block_rows: usize) -> DbResult<Option<RowBlock>> {
        if let Some(morsels) = self.out.as_mut() {
            while self.pending.len() < block_rows {
                let Some(rows) = morsels.next() else { break };
                self.pending.extend(rows?);
            }
        }
        if self.pending.is_empty() {
            return Ok(None);
        }
        let n = self.pending.len().min(block_rows);
        Ok(Some(RowBlock::from_rows(self.pending.drain(..n).collect())))
    }
}

/// Run the whole pipeline prefix over the rows with ids in `ids`, one
/// morsel, through a cursor of its own (`Cursor::run`), filtered by a
/// probing join's keys if it has them. Returns the rows that passed the
/// scan's filters.
///
/// `budget` counts rows that pass the scan filter. Each morsel charges its
/// count once, when it finishes, so workers share no write per row; the
/// scan still fails iff more rows pass than `max_intermediate_rows`
/// allows.
fn scan_morsel<'x>(
    exec: &'x Executor<'_>,
    (pipe, keys): (ScanPipeline<'x>, Option<&Arc<KeyFilter>>),
    budget: &AtomicU64,
    ids: Range<u64>,
    sink: &mut dyn FnMut(&mut Row, &mut EvalCtx) -> DbResult<()>,
) -> DbResult<u64> {
    let max_rows = exec.limits.max_intermediate_rows;
    let mut cursor = Cursor::open(exec, pipe, ids)?;
    keys.into_iter().for_each(|keys| cursor.scan.filter_keys(Arc::clone(keys)));
    let (visited, passed) =
        cursor.run(pipe, max_rows, &mut |row, ctx| sink(row, ctx).map(|()| true))?;
    if matches!(pipe.leaf, ScanLeaf::Heap) {
        exec.stats.rows_per_morsel.record(visited);
    }
    exec.check_limit((budget.fetch_add(passed, Ordering::Relaxed) + passed) as usize)?;
    Ok(passed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datum::KeyRange;
    use crate::db::{Database, SnapSource};
    use crate::exec::{ExecLimits, ExecSnapshot};
    use crate::func::ScalarFn;
    use crate::plan::AccessPath;
    use crate::txn::Vis;
    use sinew_sql::BinaryOp;

    const ROWS: i64 = 10_000; // three column-store segments

    fn db() -> Database {
        let db = Database::in_memory();
        db.execute("CREATE TABLE t (a int, b text)").unwrap();
        let rows: Vec<Row> = (0..ROWS)
            .map(|i| vec![Datum::Int((i * 7919) % ROWS), Datum::Text(format!("r{i}"))])
            .collect();
        db.insert_rows("t", &rows).unwrap();
        db
    }

    /// `100 <= a < 9000` over the scan scope (a, b, _rowid), with the
    /// conjuncts also consumed into the path's range — what the planner
    /// emits, built by hand so the access path under test does not depend
    /// on what the planner's costing would have picked.
    fn path(needed: &[&str]) -> AccessPath {
        let cmp = |op, v| PhysExpr::Binary {
            op,
            left: Box::new(PhysExpr::Column(0)),
            right: Box::new(PhysExpr::Literal(Datum::Int(v))),
        };
        AccessPath {
            table: "t".into(),
            binding: "t".into(),
            column: Some("a".into()),
            range: KeyRange {
                lo: Some(Datum::Int(100)),
                lo_inc: true,
                hi: Some(Datum::Int(9000)),
                hi_inc: false,
            },
            filter: Some(PhysExpr::Binary {
                op: BinaryOp::And,
                left: Box::new(cmp(BinaryOp::GtEq, 100)),
                right: Box::new(cmp(BinaryOp::Lt, 9000)),
            }),
            needed: Some(needed.iter().map(|n| n.to_string()).collect()),
            est_rows: 1.0,
            exact_bounds: false,
        }
    }

    fn seq_scan_of(path: &AccessPath) -> Plan {
        Plan::SeqScan {
            table: path.table.clone(),
            binding: path.binding.clone(),
            filter: path.filter.clone(),
            needed: path.needed.clone(),
            est_rows: path.est_rows,
        }
    }

    /// One thread, blocks of 64 rows.
    fn limits() -> ExecLimits {
        ExecLimits { exec_threads: 1, block_rows: 64, ..ExecLimits::default() }
    }

    fn run(db: &Database, plan: &Plan) -> (Vec<Row>, ExecSnapshot) {
        run_at(db, plan, Vis::LATEST)
    }

    fn run_at(db: &Database, plan: &Plan, vis: Vis) -> (Vec<Row>, ExecSnapshot) {
        let stats = ExecStats::default();
        let source = SnapSource { db, vis };
        let exec = Executor { source: &source, limits: limits(), stats: &stats };
        let rows = run_streaming(&exec, plan).unwrap();
        (rows, stats.snapshot())
    }

    /// Run `plan` with its index/store present, lose it via `lose`, run the
    /// now-stale plan again: both times the rows are the heap scan's (the
    /// serial run of the equivalent `SeqScan`), and the second run is
    /// counted as a heap scan.
    fn check_stale_plan(
        db: &Database,
        plan: &Plan,
        path: &AccessPath,
        engaged: fn(&ExecSnapshot) -> u64,
        lose: impl FnOnce(&Database),
    ) {
        let want = run(db, &seq_scan_of(path)).0;
        assert!(!want.is_empty() && want.len() < ROWS as usize);
        let (rows, st) = run(db, plan);
        assert_eq!(rows, want, "{} fresh", plan.node_name());
        assert_eq!((engaged(&st), st.serial_scans), (1, 0));
        lose(db);
        let (rows, st) = run(db, plan);
        assert_eq!(rows, want, "{} stale", plan.node_name());
        assert_eq!((engaged(&st), st.serial_scans), (0, 1));
    }

    #[test]
    fn stale_index_scan_reruns_as_heap_scan() {
        let db = db();
        db.create_index("t", "t_a", "a", true).unwrap();
        let path = path(&["a", "b"]);
        check_stale_plan(&db, &Plan::IndexScan(path.clone()), &path, |s| s.index_scans, |db| {
            db.drop_index("t", "t_a").unwrap()
        });
    }

    #[test]
    fn stale_columnar_scan_reruns_as_heap_scan() {
        let db = db();
        db.build_columnar("t", "a").unwrap();
        let path = path(&["a"]);
        let plan = Plan::ColumnarScan { path: path.clone(), bounds_cover_filter: false };
        check_stale_plan(&db, &plan, &path, |s| s.columnar_scans, |db| {
            assert!(db.drop_columnar("t", "a").unwrap())
        });
    }

    #[test]
    fn columnar_scan_losing_its_store_mid_scan_resumes_from_the_heap() {
        let db = db();
        db.build_columnar("t", "a").unwrap();
        let path = path(&["a"]);
        let want = run(&db, &seq_scan_of(&path)).0;
        let plan = Plan::ColumnarScan { path, bounds_cover_filter: false };

        let stats = ExecStats::default();
        let source = SnapSource { db: &db, vis: Vis::LATEST };
        let exec = Executor { source: &source, limits: limits(), stats: &stats };
        let mut op = build_node(&exec, &plan, None, None, None, None).unwrap();
        op.open().unwrap();
        let mut got = op.next_block().unwrap().expect("first block").take_rows();
        assert_eq!(got.len(), 64);
        // Segment 0 is scanned and partly emitted; segments 1 and 2 are not.
        assert!(db.drop_columnar("t", "a").unwrap());
        while let Some(block) = op.next_block().unwrap() {
            got.extend(block.take_rows());
        }
        op.close();
        assert_eq!(got, want, "no duplicate, no gap");
        let st = stats.snapshot();
        assert_eq!((st.columnar_scans, st.serial_scans), (1, 1));
    }

    /// A columnar scan under a snapshot older than pending sets and tagged
    /// inserts filters, in place, the values that snapshot sees, and
    /// gathers only the slots that pass: the rows of the heap scan at the
    /// same snapshot.
    #[test]
    fn columnar_scan_under_an_old_snapshot_filters_what_it_sees() {
        let db = db();
        for col in ["a", "b"] {
            db.build_columnar("t", col).unwrap();
        }
        let read_ts = db.txn_manager().begin_snapshot();
        db.execute("UPDATE t SET a = a + 5000, b = 'moved' WHERE a < 3000").unwrap();
        db.execute("INSERT INTO t VALUES (500, 'late')").unwrap();
        let mut path = path(&["a", "b"]);
        // Not a bound the kernel takes: the whole filter runs in the segment.
        path.filter = Some(PhysExpr::Binary {
            op: BinaryOp::Lt,
            left: Box::new(PhysExpr::Column(0)),
            right: Box::new(PhysExpr::Literal(Datum::Int(2000))),
        });
        path.column = None;
        path.range = KeyRange::default();
        let plan = Plan::ColumnarScan { path: path.clone(), bounds_cover_filter: false };
        let vis = Vis::snapshot(read_ts);
        let (want, _) = run_at(&db, &seq_scan_of(&path), vis);
        assert!(!want.is_empty() && want.iter().all(|r| r[1] != Datum::Text("moved".into())));
        let (rows, st) = run_at(&db, &plan, vis);
        assert_eq!(rows, want);
        assert_eq!(st.columnar_scans, 1, "the old snapshot may read the stores");
        assert_eq!(st.scan_rows_rejected_early, ROWS as u64 - want.len() as u64);
        db.txn_manager().release_snapshot(read_ts);
    }

    /// Run `plan` at `threads` exec threads on its own thread and fail the
    /// test if it has not returned after 30 s.
    fn run_watched(db: &Arc<Database>, plan: Plan, threads: usize) -> DbResult<Vec<Row>> {
        let (tx, rx) = std::sync::mpsc::channel();
        let db = Arc::clone(db);
        std::thread::spawn(move || {
            let stats = ExecStats::default();
            let source = SnapSource { db: &db, vis: Vis::LATEST };
            let limits = ExecLimits { exec_threads: threads, ..limits() };
            let _ = tx.send(run_streaming(&Executor { source: &source, limits, stats: &stats }, &plan));
        });
        rx.recv_timeout(std::time::Duration::from_secs(30)).expect("plan ran past 30 s")
    }

    /// A sort key that panics on one row fails its parallel sort run
    /// cleanly, whether that run is the statement thread's chunk or a
    /// helper's; a correct sort follows. (The planner projects SQL sort
    /// keys below the sort, so only a hand-built plan evaluates a UDF in a
    /// sort run.)
    #[test]
    fn sort_run_panic_surfaces_cleanly() {
        let db = Arc::new(db());
        let sort = |key: PhysExpr| Plan::Sort {
            input: Box::new(Plan::SeqScan {
                table: "t".into(),
                binding: "t".into(),
                filter: None,
                needed: None,
                est_rows: ROWS as f64,
            }),
            keys: vec![SortKey { expr: key, desc: false }],
            est_rows: ROWS as f64,
        };
        for threads in [2, 4] {
            // Scan rows are (a, b, rowid): the first and the last chunk.
            for at in [5, ROWS - 5] {
                let boom: Arc<dyn ScalarFn> = Arc::new(move |args: &[Datum]| -> DbResult<Datum> {
                    if args[0] == Datum::Int(at) {
                        panic!("sort key bug at row {at}");
                    }
                    Ok(args[0].clone())
                });
                let args = vec![PhysExpr::Column(2)];
                let key = PhysExpr::Call { name: "boom".into(), func: boom, args };
                let err = run_watched(&db, sort(key), threads).unwrap_err();
                assert!(
                    err.to_string().contains("parallel worker panicked: sort key bug"),
                    "{threads} threads, row {at}: {err}"
                );
                let rows = run_watched(&db, sort(PhysExpr::Column(0)), threads).unwrap();
                let keys: Vec<Datum> = rows.into_iter().map(|r| r[0].clone()).collect();
                assert_eq!(keys, (0..ROWS).map(Datum::Int).collect::<Vec<_>>());
            }
        }
    }
}
