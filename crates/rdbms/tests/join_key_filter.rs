//! An inner hash join filters its probe scan by the build's keys
//! (DESIGN.md §40): once the build is hashed, a probe row whose key finds
//! no build row is dropped in the scan — in a column-store segment before
//! its row is gathered, in a heap scan's late stage before the rest of its
//! row is decoded — and is never lent, projected or probed. Whatever the
//! key's type (text, int, an int meeting a float), with NULL and
//! duplicate build keys, with a residual or a scan filter, over a heap
//! and over several column-store segments, every statement returns the
//! plan-free reference's rows in its order (probe rows in scan order,
//! each one's matches in build-row order) at every thread count and block
//! size, and counts each dropped row once. A `LEFT JOIN` keeps its padded
//! rows and drops none, and a probe whose stores are dropped part-way
//! goes on from the heap with the same filter.

use sinew_rdbms::{ColType, Database, Datum, DbResult, ExecLimits, ScalarFn};
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, Weak};

/// Rows of the heap probe table `p`.
const HEAP_ROWS: i64 = 5_000;
/// Rows of the stored probe table `s`: three column-store segments.
const STORED_ROWS: i64 = 9_000;
/// Rows of the build table `b`.
const BUILD_ROWS: i64 = 40;

/// Row `k` of a probe table `(ki, kt, n, pad)`: `ki` NULL on every 13th
/// row, `kt` on every 11th, and a wide `pad` that makes the heap of `s`
/// cost more than its stores.
fn probe_row(k: i64) -> Vec<Datum> {
    let ki = if k % 13 == 12 {
        Datum::Null
    } else {
        Datum::Int(k % 250)
    };
    let kt = if k % 11 == 10 {
        Datum::Null
    } else {
        Datum::Text(format!("t{}", k % 300))
    };
    vec![ki, kt, Datum::Int(k % 7), Datum::Text(format!("{k:0>160}"))]
}

/// Row `i` of `b (ki, kt, kf, w, m)`: keys repeat (`ki` every 30 rows,
/// `kt` every 25), some are NULL, and `kf` holds integral floats that
/// join the ints of `ki` and fractional ones that join nothing.
fn build_row(i: i64) -> Vec<Datum> {
    let ki = if i % 9 == 8 {
        Datum::Null
    } else {
        Datum::Int((i % 30) * 7)
    };
    let kt = if i % 10 == 9 {
        Datum::Null
    } else {
        Datum::Text(format!("t{}", (i % 25) * 11))
    };
    let kf = Datum::Float((i % 20) as f64 * 3.0 + if i % 4 == 1 { 0.5 } else { 0.0 });
    vec![ki, kt, kf, Datum::Text(format!("w{i}")), Datum::Int(i % 5)]
}

/// What the `hook(x)` UDF does on its fifth call.
#[derive(Clone, Copy, PartialEq)]
enum Hook {
    Off,
    /// Drop the store of `s.kt`, which the probe filter reads in place.
    DropStore,
}

/// `p`, `s` with a store on every column but `pad`, `b`, `c (kt, v)`
/// whose keys meet every non-NULL `kt`, and `hook(x)` returning `x`.
fn build(stores: bool, hook: Hook) -> Arc<Database> {
    let db = Arc::new(Database::in_memory());
    let probe_cols = [
        ("ki", ColType::Int),
        ("kt", ColType::Text),
        ("n", ColType::Int),
        ("pad", ColType::Text),
    ];
    for (table, rows) in [("p", HEAP_ROWS), ("s", STORED_ROWS)] {
        let cols = probe_cols
            .iter()
            .map(|(c, ty)| (c.to_string(), *ty))
            .collect();
        db.create_table(table, cols).unwrap();
        db.insert_rows(table, &(0..rows).map(probe_row).collect::<Vec<_>>())
            .unwrap();
    }
    let cols = [
        ("ki", ColType::Int),
        ("kt", ColType::Text),
        ("kf", ColType::Float),
        ("w", ColType::Text),
        ("m", ColType::Int),
    ];
    db.create_table(
        "b",
        cols.iter().map(|(c, ty)| (c.to_string(), *ty)).collect(),
    )
    .unwrap();
    db.insert_rows("b", &(0..BUILD_ROWS).map(build_row).collect::<Vec<_>>())
        .unwrap();
    db.create_table(
        "c",
        vec![("kt".into(), ColType::Text), ("v".into(), ColType::Int)],
    )
    .unwrap();
    let c: Vec<Vec<Datum>> = (0..300)
        .map(|i| vec![Datum::Text(format!("t{i}")), Datum::Int(i)])
        .collect();
    db.insert_rows("c", &c).unwrap();
    if stores {
        for (col, _) in &probe_cols[..3] {
            db.build_columnar("s", col).unwrap();
        }
    }
    for table in ["p", "s", "b", "c"] {
        db.execute(&format!("ANALYZE {table}")).unwrap();
    }
    let this: OnceLock<Weak<Database>> = OnceLock::new();
    this.set(Arc::downgrade(&db)).unwrap();
    let calls = AtomicU64::new(0);
    let f: Arc<dyn ScalarFn> = Arc::new(move |args: &[Datum]| -> DbResult<Datum> {
        if calls.fetch_add(1, Ordering::SeqCst) == 4 && hook == Hook::DropStore {
            let db = this
                .get()
                .and_then(Weak::upgrade)
                .expect("the database is open");
            assert!(db.drop_columnar("s", "kt")?);
        }
        Ok(args[0].clone())
    });
    db.register_udf("hook", f);
    db
}

fn configs() -> Vec<ExecLimits> {
    let mut configs = Vec::new();
    for exec_threads in [1usize, 2, 4] {
        for block_rows in [1usize, 3, 1024] {
            configs.push(ExecLimits {
                exec_threads,
                block_rows,
                ..ExecLimits::default()
            });
        }
    }
    configs
}

/// One join shape over probe table `X`: its SQL, whether it is an inner
/// join, and which probe rows reach the probe (pass the scan filter) and
/// find a build row by key.
struct Shape {
    sql: &'static str,
    inner: bool,
    passes: fn(&[Datum]) -> bool,
    key: fn(&[Datum]) -> Datum,
    build_key: fn(&[Datum]) -> Datum,
}

const SHAPES: [Shape; 7] = [
    // Text keys, duplicate and NULL on both sides.
    Shape {
        sql: "SELECT X.kt, X.n, b.w FROM X JOIN b ON X.kt = b.kt",
        inner: true,
        passes: |_| true,
        key: |r| r[1].clone(),
        build_key: |b| b[1].clone(),
    },
    // Int keys and a residual over both sides.
    Shape {
        sql: "SELECT X.ki, b.w, b.m FROM X JOIN b ON X.ki = b.ki WHERE X.n + b.m > 5",
        inner: true,
        passes: |_| true,
        key: |r| r[0].clone(),
        build_key: |b| b[0].clone(),
    },
    // An int probe key meets integral float build keys.
    Shape {
        sql: "SELECT X.ki, b.kf, b.w FROM X JOIN b ON X.ki = b.kf",
        inner: true,
        passes: |_| true,
        key: |r| r[0].clone(),
        build_key: |b| b[2].clone(),
    },
    // A scan filter, then the key.
    Shape {
        sql: "SELECT X.n, b.w FROM X JOIN b ON X.kt = b.kt WHERE X.n % 3 = 0",
        inner: true,
        passes: |r| r[2] == Datum::Int(0) || r[2] == Datum::Int(3) || r[2] == Datum::Int(6),
        key: |r| r[1].clone(),
        build_key: |b| b[1].clone(),
    },
    // A key read in place through COALESCE.
    Shape {
        sql: "SELECT X.kt, b.w FROM X JOIN b ON COALESCE(X.kt, 't0') = b.kt",
        inner: true,
        passes: |_| true,
        key: |r| {
            if r[1].is_null() {
                Datum::Text("t0".into())
            } else {
                r[1].clone()
            }
        },
        build_key: |b| b[1].clone(),
    },
    // A key that is not the scan row's first column, against a filtered
    // build side.
    Shape {
        sql: "SELECT X.ki, X.kt, b.w FROM X JOIN b ON X.n = b.m WHERE b.w = 'w3'",
        inner: true,
        passes: |_| true,
        key: |r| r[2].clone(),
        build_key: |b| match &b[3] {
            Datum::Text(w) if w == "w3" => b[4].clone(),
            _ => Datum::Null,
        },
    },
    // A left-outer join keeps every probe row.
    Shape {
        sql: "SELECT X.kt, X.ki, b.w FROM X LEFT JOIN b ON X.kt = b.kt",
        inner: false,
        passes: |_| true,
        key: |r| r[1].clone(),
        build_key: |b| b[1].clone(),
    },
];

/// Probe rows of `rows` that reach the probe but find no build row.
fn unmatched(shape: &Shape, rows: i64) -> u64 {
    if !shape.inner {
        return 0;
    }
    let keys: HashSet<_> = (0..BUILD_ROWS)
        .map(|i| (shape.build_key)(&build_row(i)))
        .filter(|k| !k.is_null())
        .map(|k| k.group_key())
        .collect();
    let misses = (0..rows)
        .map(probe_row)
        .filter(|r| (shape.passes)(r))
        .filter(|r| {
            let k = (shape.key)(r);
            k.is_null() || !keys.contains(&k.group_key())
        });
    misses.count() as u64
}

/// Run `sql` at every configuration: the rows must be the reference's,
/// in its order, and the probe must drop `rejected` rows each time.
fn check(db: &Database, sql: &str, leaf: &str, rejected: u64) {
    let want = sinew_reference::query(db, sql).unwrap();
    assert!(!want.rows.is_empty(), "{sql}");
    let plan = db.execute(&format!("EXPLAIN {sql}")).unwrap();
    let plan: Vec<String> = plan.rows.iter().map(|r| r[0].display_text()).collect();
    assert!(
        plan.iter().any(|l| l.contains("Hash Join")),
        "{sql}: {plan:#?}"
    );
    assert!(plan.iter().any(|l| l.contains(leaf)), "{sql}: {plan:#?}");
    for limits in configs() {
        db.set_exec_limits(limits);
        let at = format!(
            "{sql} at threads={} block_rows={}",
            limits.exec_threads, limits.block_rows
        );
        let before = db.exec_stats();
        let got = db.execute(sql).unwrap_or_else(|e| panic!("{at}: {e}")).rows;
        let after = db.exec_stats();
        assert_eq!(got.len(), want.rows.len(), "{at}");
        assert!(
            got == want.rows,
            "{at}: the rows or their order differ from the reference's"
        );
        let dropped = after.join_probe_rows_rejected - before.join_probe_rows_rejected;
        assert_eq!(dropped, rejected, "{at}: probe rows the key filter dropped");
    }
}

#[test]
fn a_heap_probe_drops_rows_without_a_build_match() {
    let db = build(false, Hook::Off);
    for shape in &SHAPES {
        let sql = shape.sql.replace('X', "p");
        check(&db, &sql, "Seq Scan on p", unmatched(shape, HEAP_ROWS));
    }
}

#[test]
fn a_stored_probe_drops_rows_before_it_gathers_them() {
    let db = build(true, Hook::Off);
    for shape in &SHAPES {
        let sql = shape.sql.replace('X', "s");
        // The planner keeps the left-outer probe on the heap.
        let leaf = if shape.inner {
            "Columnar Scan on s"
        } else {
            "Seq Scan on s"
        };
        check(&db, &sql, leaf, unmatched(shape, STORED_ROWS));
    }
}

/// A UDF above the join drops the store the probe filter reads while the
/// probe runs: the cursor, or each morsel opened after the drop, goes on
/// as the heap scan of the rows it has not lent, with the same filter, so
/// every row still joins exactly once, in order, and each row without a
/// match is dropped once.
#[test]
fn a_probe_that_loses_its_stores_goes_on_from_the_heap_filtered() {
    let sql = "SELECT hook(s.ki), s.n, c.v FROM s JOIN c ON s.kt = c.kt";
    let twin = build(false, Hook::Off);
    let want = sinew_reference::query(&twin, sql).unwrap().rows;
    let nulls = (0..STORED_ROWS).filter(|k| k % 11 == 10).count() as u64;
    for limits in configs() {
        let db = build(true, Hook::DropStore);
        let plan = db.execute(&format!("EXPLAIN {sql}")).unwrap();
        assert!(plan
            .rows
            .iter()
            .any(|r| r[0].display_text().contains("Columnar Scan on s")));
        db.set_exec_limits(limits);
        let at = format!(
            "threads={} block_rows={}",
            limits.exec_threads, limits.block_rows
        );
        let before = db.exec_stats();
        let got = db.execute(sql).unwrap_or_else(|e| panic!("{at}: {e}")).rows;
        let after = db.exec_stats();
        assert_eq!(got.len(), want.len(), "{at}");
        assert!(got == want, "{at}: the rows differ from the reference's");
        let dropped = after.join_probe_rows_rejected - before.join_probe_rows_rejected;
        assert_eq!(dropped, nulls, "{at}: NULL keys dropped once each");
        let stores = db.columnar_infos("s").unwrap();
        assert!(
            stores.iter().all(|i| i.column != "kt"),
            "{at}: the hook ran"
        );
        if limits.exec_threads == 1 {
            // The build side's scan, and the probe's cursor going on from
            // the heap part-way.
            assert_eq!(after.serial_scans - before.serial_scans, 2, "{at}");
        }
    }
}
