//! Aggregation inside the morsel (DESIGN.md §29): a `GROUP BY` over a
//! morsel-parallel scan folds each morsel into its own group table and
//! merges the tables in morsel order; over any other input, buffered
//! chunks do the same. Every statement here must return the rows — or the
//! error text — of one exec thread at 2, 4 and 8 threads and at blocks of
//! 1 and 1 024 rows, one thread's answer must agree with the plan-free
//! reference's, and the serial fallback must engage exactly where a table
//! would not merge exactly.

use sinew_rdbms::{Database, Datum, DbError, DbResult, ExecLimits};
use sinew_reference::Answer;
use std::sync::Arc;

/// splitmix64 — seeded data without a rand crate.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

const ROWS: u64 = 4_096;
/// Rows below this id have no `f`: a float sum first appears in a middle
/// morsel (morsels are 256 rows at every thread count used here).
const FIRST_FLOAT_ROW: u64 = 3_000;
/// The row a `1.0` group key first appears on; `1` only follows it.
const FIRST_ONE_ROW: u64 = 2_501;

/// `t(id, a, b, c, f, k, kf)`: `b` is NULL on one row in 11, `c` is one
/// of 23 texts, `f` is NULL before [`FIRST_FLOAT_ROW`], and
/// `COALESCE(k, kf)` is a group key whose value `1` first arrives as the
/// float `1.0`. `s(k, v)` is a small join partner.
fn build_db(seed: u64) -> Database {
    let db = Database::in_memory();
    db.execute("CREATE TABLE t (id int, a int, b int, c text, f float, k int, kf float)")
        .unwrap();
    db.execute("CREATE TABLE s (k int, v text)").unwrap();
    let mut rows = Vec::new();
    for i in 0..ROWS {
        let h = mix(i ^ seed);
        let b = if h.is_multiple_of(11) {
            "NULL".to_string()
        } else {
            ((h >> 8) % 40).to_string()
        };
        let f = if i < FIRST_FLOAT_ROW {
            "NULL".to_string()
        } else {
            format!("{:.3}", (h % 9973) as f64 / 7.0)
        };
        let (k, kf) = match i {
            FIRST_ONE_ROW => ("NULL".to_string(), "1.0"),
            i if i > FIRST_ONE_ROW && h.is_multiple_of(5) => ("1".to_string(), "0.5"),
            i if i > FIRST_ONE_ROW && h % 5 == 1 => ("NULL".to_string(), "1.0"),
            _ => (((h >> 16) % 30 + 2).to_string(), "0.5"),
        };
        rows.push(format!(
            "({i}, {}, {b}, 'w{}', {f}, {k}, {kf})",
            (h >> 24) % 1000,
            h % 23
        ));
        if rows.len() == 512 {
            db.execute(&format!("INSERT INTO t VALUES {}", rows.join(", ")))
                .unwrap();
            rows.clear();
        }
    }
    let s: Vec<String> = (0..40).map(|k| format!("({k}, 'v{}')", k % 7)).collect();
    db.execute(&format!("INSERT INTO s VALUES {}", s.join(", ")))
        .unwrap();
    // An array group key, and an argument that fails on chosen rows.
    db.register_udf_pure(
        "pair",
        Arc::new(|args: &[Datum]| -> DbResult<Datum> { Ok(Datum::Array(args.to_vec())) }),
    );
    db.register_udf_pure(
        "fail_at",
        Arc::new(|args: &[Datum]| -> DbResult<Datum> {
            match args {
                [Datum::Int(id), rest @ ..] if rest.contains(&Datum::Int(*id)) => {
                    Err(DbError::Eval(format!("bad row {id}")))
                }
                [v, ..] => Ok(v.clone()),
                [] => Ok(Datum::Null),
            }
        }),
    );
    db
}

/// Statements with the number of serial fallbacks each takes with a crew.
const QUERIES: &[(&str, u64)] = &[
    // Group keys: 1 and 1.0 (the first occurrence, 1.0, is emitted), text,
    // NULL, several columns, arrays.
    ("SELECT COALESCE(k, kf), COUNT(*), SUM(a) FROM t GROUP BY COALESCE(k, kf)", 0),
    ("SELECT c, COUNT(*), SUM(a), AVG(a), MIN(b), MAX(b) FROM t GROUP BY c", 0),
    ("SELECT b, COUNT(*), COUNT(b), SUM(b) FROM t GROUP BY b", 0),
    ("SELECT c, b, COUNT(*), MAX(id) FROM t WHERE a < 500 GROUP BY c, b", 0),
    ("SELECT pair(a % 4, c), COUNT(*), MIN(id) FROM t GROUP BY pair(a % 4, c)", 0),
    ("SELECT a % 7 FROM t GROUP BY a % 7", 0),
    // More group columns than a fold lends on the stack.
    (
        "SELECT c, b, a % 3, COALESCE(k, kf), f IS NULL, COUNT(*), MIN(id) FROM t \
         GROUP BY c, b, a % 3, COALESCE(k, kf), f IS NULL",
        0,
    ),
    // Scalar aggregates over empty and non-empty input.
    ("SELECT COUNT(*), SUM(a), MIN(c), AVG(f) FROM t WHERE a < 0", 0),
    ("SELECT COUNT(*), SUM(a), MAX(c), MIN(b) FROM t", 0),
    // MIN/MAX ties: 1 and 1.0 compare equal; the first one seen wins.
    ("SELECT c, MIN(COALESCE(k, kf)), MAX(COALESCE(k, kf)) FROM t WHERE id > 2400 GROUP BY c", 0),
    // A float sum appears in a middle morsel.
    ("SELECT c, SUM(f), AVG(f), COUNT(f), SUM(a) FROM t GROUP BY c", 1),
    ("SELECT SUM(f), COUNT(*) FROM t", 1),
    // ... but not where no two morsels share a group.
    ("SELECT id, SUM(f), AVG(f) FROM t GROUP BY id", 0),
    // DISTINCT aggregates take the serial fold.
    ("SELECT c, COUNT(DISTINCT b), SUM(DISTINCT a % 10) FROM t GROUP BY c", 1),
    // Operators above the aggregate.
    ("SELECT c, COUNT(*) AS n FROM t GROUP BY c HAVING COUNT(*) > 170 ORDER BY n DESC, c LIMIT 5", 0),
    ("SELECT b, SUM(a) FROM t GROUP BY b ORDER BY b LIMIT 3", 0),
    // A non-scan input: buffered chunks fold on the crew.
    ("SELECT s.v, COUNT(*), SUM(t.a), MAX(t.c) FROM t JOIN s ON t.b = s.k GROUP BY s.v", 0),
    ("SELECT s.v, SUM(t.f), COUNT(*) FROM t JOIN s ON t.b = s.k GROUP BY s.v", 1),
    // An argument that fails in a middle morsel, alone and behind the
    // float fallback; the lowest failing row is reported.
    ("SELECT c, SUM(fail_at(id, 2100, 3500)) FROM t GROUP BY c", 0),
    ("SELECT c, SUM(f), SUM(fail_at(id, 3500)) FROM t GROUP BY c", 1),
];

fn limits(exec_threads: usize, block_rows: usize) -> ExecLimits {
    ExecLimits { exec_threads, block_rows, ..ExecLimits::default() }
}

/// Rows, or the error's text.
type Outcome = Result<Vec<Vec<Datum>>, String>;

/// The reference's answer to every statement, over `db`'s rows now.
fn reference(db: &Database) -> Vec<DbResult<Answer>> {
    QUERIES.iter().map(|(sql, _)| sinew_reference::query(db, sql)).collect()
}

/// Every statement at every crossing against one thread, whose outcome
/// must agree with `want`, the reference's answers over the rows the
/// statements see; returns one thread's outcomes.
fn check_crossings(
    db: &Database,
    mut exec: impl FnMut(&str) -> DbResult<Vec<Vec<Datum>>>,
    want: &[DbResult<Answer>],
    what: &str,
) -> Vec<Outcome> {
    let mut oracles = Vec::new();
    for (&(sql, fallbacks), want) in QUERIES.iter().zip(want) {
        db.set_exec_limits(limits(1, 1024));
        let serial = exec(sql);
        if let Err(e) = sinew_reference::agree(&serial, want) {
            panic!("{what}: {sql} disagrees with the reference: {e}");
        }
        let oracle = serial.map_err(|e| e.to_string());
        for threads in [2, 4, 8] {
            for block_rows in [1, 1024] {
                db.set_exec_limits(limits(threads, block_rows));
                let before = db.exec_stats();
                let got = exec(sql).map_err(|e| e.to_string());
                let after = db.exec_stats();
                let at = format!("{what}: {threads} threads, blocks of {block_rows}, {sql}");
                assert_eq!(got, oracle, "{at}");
                if oracle.is_ok() {
                    let taken = after.agg_serial_fallbacks - before.agg_serial_fallbacks;
                    assert_eq!(taken, fallbacks, "serial fallbacks at {at}");
                    let merges = after.agg_partition_merges - before.agg_partition_merges;
                    assert!(fallbacks > 0 || merges > 0, "no table merged at {at}");
                }
            }
        }
        oracles.push(oracle);
    }
    oracles
}

#[test]
fn morsel_aggregation_matches_the_oracle_at_every_crossing() {
    for seed in [7, 2014] {
        let db = build_db(seed);
        let oracles = check_crossings(
            &db,
            |sql| db.execute(sql).map(|r| r.rows),
            &reference(&db),
            &format!("seed {seed}"),
        );
        assert!(
            oracles.iter().filter(|o| o.is_err()).count() == 2,
            "{oracles:?}"
        );
    }
}

#[test]
fn the_first_occurrence_of_a_group_key_is_emitted() {
    let db = build_db(7);
    for threads in [1, 2, 4, 8] {
        db.set_exec_limits(limits(threads, 1024));
        let rows = db
            .execute("SELECT COALESCE(k, kf), COUNT(*) FROM t GROUP BY COALESCE(k, kf)")
            .unwrap()
            .rows;
        let ones: Vec<&Datum> = rows
            .iter()
            .map(|r| &r[0])
            .filter(|k| matches!(k, Datum::Int(1) | Datum::Float(_)))
            .collect();
        assert_eq!(ones, [&Datum::Float(1.0)], "{threads} threads");
    }
}

#[test]
fn fallback_and_merge_counts_with_a_crew() {
    let db = build_db(7);
    let counts = |sql: &str, threads| {
        db.set_exec_limits(limits(threads, 1024));
        let before = db.exec_stats();
        db.execute(sql).unwrap();
        let after = db.exec_stats();
        (
            after.agg_partition_merges - before.agg_partition_merges,
            after.agg_serial_fallbacks - before.agg_serial_fallbacks,
            after.morsels_dispatched - before.morsels_dispatched,
        )
    };
    // One merge per morsel, none at one thread.
    let exact = "SELECT c, COUNT(*), SUM(a) FROM t GROUP BY c";
    assert_eq!(counts(exact, 1), (0, 0, 0));
    for threads in [2, 4, 8] {
        let (merges, fallbacks, morsels) = counts(exact, threads);
        assert_eq!((merges, fallbacks), (morsels, 0), "{threads} threads");
        assert_eq!(morsels, ROWS / 256, "{threads} threads");
    }
    // The float sum stops the stream at morsel 11 (rows 2 816..3 072).
    let (merges, fallbacks, _) = counts("SELECT c, SUM(f) FROM t GROUP BY c", 2);
    assert_eq!((merges, fallbacks), (FIRST_FLOAT_ROW / 256, 1));
}

/// A reader's snapshot, taken before concurrent inserts and deletes,
/// fixes what every crossing sees — the serial fallback's second read of
/// its morsels included — and what it sees agrees with the reference's
/// answers over the rows before the writes.
#[test]
fn a_snapshot_taken_before_concurrent_writes_holds() {
    let db = build_db(99);
    db.set_exec_limits(limits(1, 1024));
    let answers = reference(&db);
    let want: Vec<Outcome> = QUERIES
        .iter()
        .map(|(sql, _)| db.execute(sql).map(|r| r.rows).map_err(|e| e.to_string()))
        .collect();
    let mut reader = db.session();
    reader.execute("BEGIN").unwrap();
    reader.execute("SELECT COUNT(*) FROM t").unwrap();
    let mut rows = Vec::new();
    for i in ROWS..ROWS + 700 {
        rows.push(format!(
            "({i}, {}, {}, 'new{}', {}.25, 1, 1.0)",
            i % 1000,
            i % 40,
            i % 5,
            i % 13
        ));
    }
    db.execute(&format!("INSERT INTO t VALUES {}", rows.join(", ")))
        .unwrap();
    db.execute("DELETE FROM t WHERE a % 5 = 0").unwrap();
    let seen =
        check_crossings(&db, |sql| reader.execute(sql).map(|r| r.rows), &answers, "snapshot");
    assert_eq!(seen, want, "the snapshot saw the concurrent writes");
    reader.execute("COMMIT").unwrap();
    // And the writes are there for a new statement.
    let n = db
        .execute("SELECT COUNT(*) FROM t WHERE c = 'new1'")
        .unwrap()
        .rows;
    assert_eq!(n, vec![vec![Datum::Int(140)]]);
}
