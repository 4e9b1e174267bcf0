//! A columnar scan is a scan pipeline (DESIGN.md §38): per segment it
//! selects and gathers its needed columns under the table's read guard,
//! then lends each kept row to the post filter, the projection and the
//! sink. So is an index scan (DESIGN.md §39): it probes its B-tree once,
//! then fetches each listed row under the read guard and lends it outside
//! it. Whatever runs above either leaf — a projection, a residual filter,
//! a hash aggregation's fold, a hash join's probe, a `LIMIT` — every
//! statement returns exactly the rows, in order, of the same statement
//! over a twin table with neither stores nor index, at every thread count
//! and block size. So does a columnar scan that loses a store part-way,
//! and a scan of either leaf whose snapshot is older than writes made
//! while it runs.

use sinew_rdbms::{ColType, Database, DbResult, Datum, ExecLimits, ExecSnapshot, ScalarFn};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock, Weak};

/// Three 4 096-row segments, the last one partly filled.
const ROWS: i64 = 9_000;
/// Rows of the join's build side, `u`.
const BUILD_ROWS: i64 = 60;

/// Row `k` of `t (k, tag, n, pad)`: `tag` is NULL on every third row and
/// of varying length otherwise, `n` NULL on every fifth, and `pad` a wide
/// text that makes the heap cost more pages than the stores.
fn row(k: i64) -> Vec<Datum> {
    let tag = if k % 3 == 0 { Datum::Null } else { Datum::Text(format!("t{}", k * 7 % 1000)) };
    let n = if k % 5 == 0 { Datum::Null } else { Datum::Int(k % 97) };
    vec![Datum::Int(k), tag, n, Datum::Text(format!("{k:0>160}"))]
}

/// What a statement's `hook(k)` does when it reads `k = TRIGGER`: nothing,
/// or a write to the table the statement is scanning.
#[derive(Clone, Copy, PartialEq)]
enum Hook {
    Off,
    /// Drop the store of `n`, so the scan loses its stores part-way.
    DropStore,
    /// Update and insert rows, so the scan's snapshot is older than the
    /// stores' pending sets and tagged inserts from then on.
    Write,
}

/// The row whose `hook(k)` fires: in the first segment, so the scan has
/// lent rows before and selects segments after.
const TRIGGER: i64 = 1_000;

/// What `t` carries beside its heap.
#[derive(Clone, Copy, PartialEq)]
enum Derived {
    Nothing,
    /// A column store on every column.
    Stores,
    /// A B-tree on `k`.
    Index,
}

impl Derived {
    /// The leaf a statement over `t` reads through, as EXPLAIN names it,
    /// and the counter of its scans.
    fn leaf(self) -> (&'static str, fn(&ExecSnapshot) -> u64) {
        match self {
            Derived::Stores => ("Columnar Scan on t", |s| s.columnar_scans),
            Derived::Index => ("Index Scan using t_k on t", |s| s.index_scans),
            Derived::Nothing => unreachable!("the twin reads the heap"),
        }
    }
}

/// `t` and `u`, with `derived` on `t`, and a `hook(k)` UDF that returns
/// `k` and, at `TRIGGER`, does `hook`.
fn build(derived: Derived, hook: Hook) -> Arc<Database> {
    let db = Arc::new(Database::in_memory());
    let cols = [("k", ColType::Int), ("tag", ColType::Text), ("n", ColType::Int), ("pad", ColType::Text)];
    db.create_table("t", cols.iter().map(|(c, ty)| (c.to_string(), *ty)).collect()).unwrap();
    db.insert_rows("t", &(0..ROWS).map(row).collect::<Vec<_>>()).unwrap();
    db.create_table("u", vec![("k".into(), ColType::Int), ("v".into(), ColType::Text)]).unwrap();
    let u: Vec<Vec<Datum>> =
        (0..BUILD_ROWS).map(|i| vec![Datum::Int(i * 149), Datum::Text(format!("v{i}"))]).collect();
    db.insert_rows("u", &u).unwrap();
    match derived {
        Derived::Stores => cols.iter().for_each(|(c, _)| db.build_columnar("t", c).unwrap()),
        Derived::Index => db.create_index("t", "t_k", "k", true).unwrap(),
        Derived::Nothing => {}
    }
    db.execute("ANALYZE t").unwrap();
    db.execute("ANALYZE u").unwrap();
    let this: OnceLock<Weak<Database>> = OnceLock::new();
    this.set(Arc::downgrade(&db)).unwrap();
    let fired = AtomicBool::new(false);
    let f: Arc<dyn ScalarFn> = Arc::new(move |args: &[Datum]| -> DbResult<Datum> {
        if args[0] == Datum::Int(TRIGGER) && hook != Hook::Off && !fired.swap(true, Ordering::SeqCst)
        {
            let db = this.get().and_then(Weak::upgrade).expect("the database is open");
            match hook {
                Hook::DropStore => assert!(db.drop_columnar("t", "n")?),
                Hook::Write => {
                    db.execute("UPDATE t SET n = n + 1000, tag = 'moved' WHERE k % 101 = 1")?;
                    db.execute("INSERT INTO t VALUES (9500, 'late', 1, ''), (3, 'late', 2, '')")?;
                }
                Hook::Off => {}
            }
        }
        Ok(args[0].clone())
    });
    db.register_udf("hook", f);
    db
}

/// One statement per shape the pipeline runs over a columnar leaf.
const STATEMENTS: [&str; 8] = [
    // A projection.
    "SELECT tag, n, k FROM t",
    // A bound the kernel takes, and a residual filter read in place.
    "SELECT k, tag FROM t WHERE k >= 500 AND k < 8500 AND (n IS NULL OR length(tag) > 3)",
    // A fold.
    "SELECT n % 7, COUNT(*), SUM(k), COUNT(tag) FROM t GROUP BY n % 7",
    // A probe: the join's probe side is the columnar scan of `t`.
    "SELECT t.k, t.tag, u.v FROM t JOIN u ON t.k = u.k WHERE t.n IS NOT NULL",
    // An early stop.
    "SELECT k, n FROM t WHERE n > 90 LIMIT 25",
    // Every column, named.
    "SELECT k, tag, n, pad FROM t WHERE k % 11 = 0",
    // Every column and the row id, which no store holds: the planner
    // keeps a wildcard on the heap, and the twins must still agree.
    "SELECT *, _rowid FROM t WHERE k % 11 = 0",
    // A lent row read by a UDF, which may write the table while it runs.
    "SELECT hook(k), tag, n FROM t",
];

/// The same shapes over an index scan of `k`: bounds narrow enough that
/// the B-tree beats the heap.
const INDEX_STATEMENTS: [&str; 6] = [
    "SELECT tag, n, k FROM t WHERE k >= 1000 AND k < 1030",
    "SELECT k, tag FROM t WHERE k >= 980 AND k < 1020 AND (n IS NULL OR length(tag) > 3)",
    "SELECT n % 7, COUNT(*), SUM(k), COUNT(tag) FROM t WHERE k >= 1000 AND k < 1040 GROUP BY n % 7",
    // Row 1043 joins; the probe side is the index scan of `t`.
    "SELECT t.k, t.tag, u.v FROM t JOIN u ON t.k = u.k WHERE t.k >= 1030 AND t.k < 1060",
    // Exact bounds: the `LIMIT` caps the probe.
    "SELECT k, n FROM t WHERE k >= 995 AND k < 1015 LIMIT 7",
    // Row 1011 is among the rows the hook updates.
    "SELECT hook(k), tag, n FROM t WHERE k >= 995 AND k < 1015",
];

/// The statement's plan, scan names and segment bounds aside.
fn shape(db: &Database, sql: &str) -> Vec<String> {
    let plan = db.execute(&format!("EXPLAIN {sql}")).unwrap();
    plan.rows
        .iter()
        .map(|r| {
            let line = r[0].display_text().replace("Columnar Scan", "Seq Scan");
            line.replace("Index Scan using t_k", "Seq Scan")
        })
        .filter(|l| !l.contains("Segment Cond") && !l.contains("Index Cond"))
        .map(|l| l.split("  (").next().unwrap().to_string())
        .collect()
}

fn configs() -> Vec<ExecLimits> {
    let mut configs = Vec::new();
    for exec_threads in [1usize, 2, 4] {
        for block_rows in [1usize, 3, 1024] {
            configs.push(ExecLimits { exec_threads, block_rows, ..ExecLimits::default() });
        }
    }
    configs
}

/// Run each of `sqls` over `t` with `derived` under `hook`, at every
/// configuration, and compare it with the serial run over the twin that
/// has nothing but its heap. A hook that writes gets a fresh table for
/// every run.
fn check(sqls: &[&str], derived: Derived, hook: Hook) {
    let twin = build(Derived::Nothing, Hook::Off);
    twin.set_exec_limits(configs()[0]);
    let (leaf, scans_of) = derived.leaf();
    let mut db = build(derived, hook);
    for (sql, limits) in sqls.iter().flat_map(|sql| configs().into_iter().map(move |l| (sql, l))) {
        if hook != Hook::Off {
            db = build(derived, hook);
        }
        let want = twin.execute(sql).unwrap().rows;
        assert!(!want.is_empty(), "{sql}");
        let plan = shape(&db, sql);
        assert_eq!(plan, shape(&twin, sql), "{sql}: the twins plan alike");
        // A hook that wrote under a heap scan's read guard would wait for it.
        let on_leaf = db.execute(&format!("EXPLAIN {sql}")).unwrap().rows.iter().any(|r| {
            r[0].display_text().contains(leaf)
        });
        assert_eq!(on_leaf, !sql.starts_with("SELECT *"), "{sql}: {plan:#?}");
        db.set_exec_limits(limits);
        let before = db.exec_stats();
        let got = db.execute(sql).unwrap_or_else(|e| panic!("{sql}: {e}")).rows;
        let at = format!("threads={} block_rows={}", limits.exec_threads, limits.block_rows);
        assert_eq!(got.len(), want.len(), "{sql} at {at}");
        assert!(got == want, "{sql} at {at}: the rows differ from the heap scan's");
        let after = db.exec_stats();
        let scans = scans_of(&after) - scans_of(&before);
        assert_eq!(scans, u64::from(on_leaf), "{sql} at {at}: scans of {leaf}");
        match hook {
            // One cursor went on as the heap scan.
            Hook::DropStore if limits.exec_threads == 1 => {
                assert_eq!(after.serial_scans - before.serial_scans, 1, "{sql} at {at}");
            }
            // The writes landed; only the statement that ran under them
            // missed them.
            Hook::Write => assert!(db.execute(sql).unwrap().rows != want, "{sql} at {at}"),
            _ => {}
        }
    }
}

#[test]
fn every_pipeline_over_a_column_store_returns_the_heap_scans_rows() {
    check(&STATEMENTS, Derived::Stores, Hook::Off);
}

#[test]
fn a_scan_that_loses_its_store_part_way_goes_on_from_the_heap() {
    check(&STATEMENTS[7..], Derived::Stores, Hook::DropStore);
}

#[test]
fn a_scan_older_than_writes_made_while_it_runs_sees_none_of_them() {
    check(&STATEMENTS[7..], Derived::Stores, Hook::Write);
}

#[test]
fn every_pipeline_over_an_index_returns_the_heap_scans_rows() {
    check(&INDEX_STATEMENTS, Derived::Index, Hook::Off);
}

/// The probe runs before the first row is lent, so the index is trusted
/// at the statement's snapshot; the rows fetched after the hook's update
/// are the versions that snapshot sees.
#[test]
fn an_index_scan_older_than_writes_made_while_it_runs_sees_none_of_them() {
    check(&INDEX_STATEMENTS[5..], Derived::Index, Hook::Write);
}
