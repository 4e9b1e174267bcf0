//! At one exec thread a heap scan is one cursor that lends each row to
//! whatever reads it (DESIGN.md §37): the filter, an aggregation's fold and
//! a hash join's probe read the row where the scan decoded it, and a
//! projection builds only the rows it outputs. A counting global allocator
//! pins this over 4 000 rows with a text column that every statement reads:
//! a scan that built each row afresh would pay at least one allocation per
//! row it reads.

use sinew_rdbms::{ColType, Database, Datum, ExecLimits, ExecSnapshot, Prepared};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts the allocations (and reallocations) of the calling thread.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const ROWS: i64 = 4_000;
/// Rows of the join's build side; each joins one row of `t`.
const BUILD_ROWS: i64 = 100;
/// Allocations a statement may make besides its output, groups and build
/// rows: its operators and one buffer per block (4 blocks of 1 024 rows
/// here). Far below the one per scanned row that a scan taking each row
/// pays.
const PER_STATEMENT: u64 = ROWS as u64 / 10;
/// A build row is drained from its scan, indexed under its key and joined
/// once: a few allocations each.
const PER_BUILD_ROW: u64 = 5;

/// Groups of the text column `grp`.
const GROUPS: i64 = 4;

/// Row `k`'s text group.
fn grp(k: i64) -> Datum {
    Datum::Text(format!("group-{}", k % GROUPS))
}

/// `t (k, tag, n)`, 4 000 rows whose `tag` is a text of one length;
/// `g (k, grp)`, 4 000 rows whose `grp` is one of four texts; `u (k, v)`,
/// 100 rows that join every 40th row of `t`, and `w (tag, v)`, the same
/// rows keyed by `tag`.
fn build() -> Database {
    let db = Database::in_memory();
    let cols = [("k", ColType::Int), ("tag", ColType::Text), ("n", ColType::Int)];
    db.create_table("t", cols.iter().map(|(c, ty)| (c.to_string(), *ty)).collect()).unwrap();
    let rows: Vec<Vec<Datum>> = (0..ROWS)
        .map(|k| vec![Datum::Int(k), Datum::Text(format!("tag-{k:06}")), Datum::Int(k * 3)])
        .collect();
    db.insert_rows("t", &rows).unwrap();
    db.create_table("g", vec![("k".into(), ColType::Int), ("grp".into(), ColType::Text)]).unwrap();
    let g: Vec<Vec<Datum>> = (0..ROWS).map(|k| vec![Datum::Int(k), grp(k)]).collect();
    db.insert_rows("g", &g).unwrap();
    db.create_table("u", vec![("k".into(), ColType::Int), ("v".into(), ColType::Int)]).unwrap();
    let u: Vec<Vec<Datum>> =
        (0..BUILD_ROWS).map(|i| vec![Datum::Int(i * 40), Datum::Int(i)]).collect();
    db.insert_rows("u", &u).unwrap();
    db.create_table("w", vec![("tag".into(), ColType::Text), ("v".into(), ColType::Int)]).unwrap();
    let w: Vec<Vec<Datum>> = (0..BUILD_ROWS)
        .map(|i| vec![Datum::Text(format!("tag-{:06}", i * 40)), Datum::Int(i)])
        .collect();
    db.insert_rows("w", &w).unwrap();
    for table in ["t", "g", "u", "w"] {
        db.execute(&format!("ANALYZE {table}")).unwrap();
    }
    db.set_exec_limits(ExecLimits { exec_threads: 1, ..ExecLimits::default() });
    db
}

fn prepare(db: &Database, sql: &str) -> Prepared {
    db.prepare(&sinew_sql::parse_statement(sql).unwrap()).unwrap()
}

/// The rows of one run of `p`, the allocations the run made, and the
/// executor counters before and after it.
fn run_counted(db: &Database, p: &Prepared) -> (Vec<Vec<Datum>>, u64, [ExecSnapshot; 2]) {
    // A first run warms whatever the statement caches.
    db.run(p).unwrap();
    let stats = db.exec_stats();
    let before = ALLOCS.with(Cell::get);
    let rows = db.run(p).unwrap().rows;
    let allocs = ALLOCS.with(Cell::get) - before;
    (rows, allocs, [stats, db.exec_stats()])
}

#[test]
fn a_fold_a_filter_and_a_probe_allocate_per_statement_not_per_row() {
    let db = build();
    // Each statement: its rows, its allocations, and its heap scans.
    let cases = [
        (
            "SELECT COUNT(*) FROM t WHERE length(tag) = 10 AND k % 2 = 0",
            vec![vec![Datum::Int(ROWS / 2)]],
            PER_STATEMENT,
            1,
        ),
        (
            "SELECT k % 4, COUNT(*), SUM(length(tag)) FROM t GROUP BY k % 4",
            (0..4)
                .map(|g| vec![Datum::Int(g), Datum::Int(ROWS / 4), Datum::Int(ROWS / 4 * 10)])
                .collect(),
            PER_STATEMENT,
            1,
        ),
        (
            "SELECT COUNT(*), SUM(u.v) FROM t JOIN u ON t.k = u.k WHERE length(t.tag) = 10",
            vec![vec![Datum::Int(BUILD_ROWS), Datum::Int(BUILD_ROWS * (BUILD_ROWS - 1) / 2)]],
            PER_STATEMENT + PER_BUILD_ROW * BUILD_ROWS as u64,
            2,
        ),
    ];
    for (sql, want, allowed, scans) in cases {
        let (rows, allocs, [before, after]) = run_counted(&db, &prepare(&db, sql));
        assert_eq!(rows, want, "{sql}");
        assert!(allocs < allowed, "{sql}: {allocs} allocations over {ROWS} rows");
        // A cursor counts once per scan, whatever its blocks; a fold or a
        // probe inside it is neither a partition merge nor a morsel probe.
        assert_eq!(after.serial_scans - before.serial_scans, scans, "{sql}");
        assert_eq!(after.parallel_scans, before.parallel_scans, "{sql}");
        assert_eq!(after.agg_partition_merges, before.agg_partition_merges, "{sql}");
        assert_eq!(after.join_probe_morsels, before.join_probe_morsels, "{sql}");
    }
    let plan = db.execute("EXPLAIN SELECT COUNT(*) FROM t JOIN u ON t.k = u.k").unwrap();
    let plan: Vec<String> = plan.rows.iter().map(|r| r[0].display_text()).collect();
    assert!(plan.iter().any(|l| l.contains("Hash Join")), "{plan:#?}");
}

#[test]
fn a_projection_allocates_its_output_rows_only() {
    let db = build();
    let sql = "SELECT k, n FROM t WHERE length(tag) = 10 AND k % 2 = 0";
    let (rows, allocs, _) = run_counted(&db, &prepare(&db, sql));
    let want: Vec<Vec<Datum>> =
        (0..ROWS).step_by(2).map(|k| vec![Datum::Int(k), Datum::Int(k * 3)]).collect();
    assert_eq!(rows, want);
    let out = rows.len() as u64;
    assert!(allocs < out + PER_STATEMENT, "{allocs} allocations for {out} output rows");
}

/// An index scan is a cursor too (DESIGN.md §39): it probes once, then
/// fetches each listed row into one reused tuple buffer, decodes it into
/// the one scan row and lends it, so a projection allocates its output
/// rows and a constant, not a row or a tuple per fetch.
#[test]
fn an_index_scan_allocates_its_output_rows_only() {
    let db = build();
    db.create_index("t", "t_k", "k", true).unwrap();
    db.execute("ANALYZE t").unwrap();
    let sql = "SELECT k, n FROM t WHERE k >= 1000 AND k < 1150";
    let plan = db.execute(&format!("EXPLAIN {sql}")).unwrap();
    let plan: Vec<String> = plan.rows.iter().map(|r| r[0].display_text()).collect();
    assert!(plan.iter().any(|l| l.contains("Index Scan using t_k on t")), "{plan:#?}");
    let (rows, allocs, [before, after]) = run_counted(&db, &prepare(&db, sql));
    let want: Vec<Vec<Datum>> =
        (1000..1150).map(|k| vec![Datum::Int(k), Datum::Int(k * 3)]).collect();
    assert_eq!(rows, want);
    let out = rows.len() as u64;
    assert!(allocs < out + PER_STATEMENT / 4, "{allocs} allocations for {out} output rows");
    assert_eq!(after.index_scans - before.index_scans, 1);
    assert_eq!(after.heap_rowid_fetches - before.heap_rowid_fetches, out);
}

/// Rows of `c`: two column-store segments.
const STORED_ROWS: i64 = 6_000;

/// `c (k, tag, n, pad)` with column stores on `k`, `tag` and `n`, and
/// `h (pad, grp)` of as many rows with a column store on `grp`, whose
/// wide `pad`s make the planner read the stores, and the tables of
/// [`build`].
fn build_stored() -> Database {
    let db = build();
    let cols = [("k", ColType::Int), ("tag", ColType::Text), ("n", ColType::Int), ("pad", ColType::Text)];
    db.create_table("c", cols.iter().map(|(c, ty)| (c.to_string(), *ty)).collect()).unwrap();
    let rows: Vec<Vec<Datum>> = (0..STORED_ROWS)
        .map(|k| {
            let tag = Datum::Text(format!("tag-{k:06}"));
            vec![Datum::Int(k), tag, Datum::Int(k * 3), Datum::Text(format!("{k:0>160}"))]
        })
        .collect();
    db.insert_rows("c", &rows).unwrap();
    for col in ["k", "tag", "n"] {
        db.build_columnar("c", col).unwrap();
    }
    db.create_table("h", vec![("pad".into(), ColType::Text), ("grp".into(), ColType::Text)]).unwrap();
    let h: Vec<Vec<Datum>> =
        (0..STORED_ROWS).map(|k| vec![Datum::Text(format!("{k:0>160}")), grp(k)]).collect();
    db.insert_rows("h", &h).unwrap();
    db.build_columnar("h", "grp").unwrap();
    db.execute("ANALYZE c").unwrap();
    db.execute("ANALYZE h").unwrap();
    db
}

/// A columnar scan at one thread is a cursor too (DESIGN.md §38): it
/// gathers a segment's needed columns into vectors it reuses, moves each
/// kept row's values into the one scan row it lends, and a projection
/// moves a column it alone reads on into its output row. So a projection
/// allocates its output rows and their text, and a fold, a probe and an
/// early stop allocate per segment, not per row. (A text value gathered
/// out of a store is a copy, one allocation, so the fold and the probe
/// read int columns.)
#[test]
fn a_columnar_scan_allocates_its_output_rows_only() {
    let db = build_stored();
    // Per segment: its selection, its gather and the store lookups.
    let per_segment = 40;
    let segments = (STORED_ROWS as u64).div_ceil(4096);
    let fixed = PER_STATEMENT / 4 + per_segment * segments;
    let cases = [
        (
            "SELECT k, tag FROM c WHERE k % 3 = 0",
            (0..STORED_ROWS)
                .step_by(3)
                .map(|k| vec![Datum::Int(k), Datum::Text(format!("tag-{k:06}"))])
                .collect::<Vec<_>>(),
            // An output row and its text each.
            2,
        ),
        (
            "SELECT k % 4, COUNT(*), SUM(n) FROM c GROUP BY k % 4",
            (0..4)
                .map(|g| {
                    let sum: i64 = (g..STORED_ROWS).step_by(4).map(|k| k * 3).sum();
                    vec![Datum::Int(g), Datum::Int(STORED_ROWS / 4), Datum::Int(sum)]
                })
                .collect(),
            0,
        ),
        (
            "SELECT COUNT(*), SUM(u.v) FROM c JOIN u ON c.k = u.k",
            vec![vec![Datum::Int(BUILD_ROWS), Datum::Int(BUILD_ROWS * (BUILD_ROWS - 1) / 2)]],
            0,
        ),
        ("SELECT 1 FROM c LIMIT 1", vec![vec![Datum::Int(1)]], 0),
    ];
    for (sql, want, per_output_row) in cases {
        let plan = db.execute(&format!("EXPLAIN {sql}")).unwrap();
        let plan: Vec<String> = plan.rows.iter().map(|r| r[0].display_text()).collect();
        assert!(plan.iter().any(|l| l.contains("Columnar Scan on c")), "{sql}: {plan:#?}");
        let (rows, allocs, [before, after]) = run_counted(&db, &prepare(&db, sql));
        assert_eq!(rows, want, "{sql}");
        let mut allowed = per_output_row * rows.len() as u64 + fixed;
        if sql.contains("JOIN") {
            allowed += PER_BUILD_ROW * BUILD_ROWS as u64;
        }
        if sql.contains("LIMIT") {
            allowed = PER_STATEMENT / 4;
        }
        assert!(allocs < allowed, "{sql}: {allocs} allocations over {STORED_ROWS} rows");
        // One columnar scan; a heap scan only for the build side.
        let join = sql.contains("JOIN");
        assert_eq!(after.columnar_scans - before.columnar_scans, 1, "{sql}");
        assert_eq!(after.serial_scans - before.serial_scans, u64::from(join), "{sql}");
        let build_reads = if join { BUILD_ROWS as u64 } else { 0 };
        assert_eq!(after.heap_fetches - before.heap_fetches, build_reads, "{sql}");
    }
}

/// Keys are read where they lie (DESIGN.md §40). A text-keyed hash join
/// looks each probe key up by reference, and its probe scan drops a row
/// whose key finds no build row before the row is projected (heap) or
/// gathered (stores); a text `GROUP BY` looks each row's group up by
/// reference and copies a key only into a new group. So a probe costs
/// its statement and its build rows, over 4 000 heap rows and 6 000
/// stored rows alike, and a fold its statement and its groups. The one
/// copy per row left is the store's: a text value gathered out of a store
/// for a fold that reads it is a copy (DESIGN.md §38).
#[test]
fn text_keys_are_looked_up_by_reference() {
    let db = build_stored();
    let per_group = 4;
    let sum = BUILD_ROWS * (BUILD_ROWS - 1) / 2;
    let joined = vec![vec![Datum::Int(BUILD_ROWS), Datum::Int(sum)]];
    let groups = |rows: i64| -> Vec<Vec<Datum>> {
        (0..GROUPS).map(|g| vec![grp(g), Datum::Int(rows / GROUPS)]).collect()
    };
    let cases = [
        ("SELECT COUNT(*), SUM(w.v) FROM t JOIN w ON t.tag = w.tag", "Seq Scan on t", &joined),
        ("SELECT COUNT(*), SUM(w.v) FROM c JOIN w ON c.tag = w.tag", "Columnar Scan on c", &joined),
        ("SELECT grp, COUNT(*) FROM g GROUP BY grp", "Seq Scan on g", &groups(ROWS)),
        ("SELECT grp, COUNT(*) FROM h GROUP BY grp", "Columnar Scan on h", &groups(STORED_ROWS)),
    ];
    for (sql, leaf, want) in cases {
        let plan = db.execute(&format!("EXPLAIN {sql}")).unwrap();
        let plan: Vec<String> = plan.rows.iter().map(|r| r[0].display_text()).collect();
        assert!(plan.iter().any(|l| l.contains(leaf)), "{sql}: {plan:#?}");
        let (rows, allocs, _) = run_counted(&db, &prepare(&db, sql));
        assert_eq!(&rows, want, "{sql}");
        let allowed = if sql.contains("JOIN") {
            PER_STATEMENT + PER_BUILD_ROW * BUILD_ROWS as u64
        } else if leaf.contains("Columnar") {
            PER_STATEMENT + per_group * GROUPS as u64 + rows.len() as u64 + STORED_ROWS as u64
        } else {
            PER_STATEMENT + per_group * GROUPS as u64 + rows.len() as u64
        };
        assert!(allocs < allowed, "{sql}: {allocs} allocations");
    }
}

/// A columnar scan gathers only the columns read after its filter
/// (DESIGN.md §40): a text column that only the filter reads is read in
/// place and never copied, so counting the rows it keeps costs the
/// segments, not the rows.
#[test]
fn a_filter_only_column_is_not_gathered() {
    let db = build_stored();
    let sql = "SELECT COUNT(*) FROM c WHERE tag <> 'none'";
    let plan = db.execute(&format!("EXPLAIN {sql}")).unwrap();
    let plan: Vec<String> = plan.rows.iter().map(|r| r[0].display_text()).collect();
    assert!(plan.iter().any(|l| l.contains("Columnar Scan on c")), "{plan:#?}");
    let (rows, allocs, _) = run_counted(&db, &prepare(&db, sql));
    assert_eq!(rows, vec![vec![Datum::Int(STORED_ROWS)]]);
    let segments = (STORED_ROWS as u64).div_ceil(4096);
    let allowed = PER_STATEMENT / 4 + 40 * segments;
    assert!(allocs < allowed, "{allocs} allocations over {STORED_ROWS} rows");
}
