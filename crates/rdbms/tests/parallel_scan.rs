//! Morsel-parallel scan pipeline: the parallel executor must be
//! byte-identical to the serial one for every scan→filter→project prefix,
//! enforce the intermediate-row limit across workers, and turn worker
//! panics into clean errors (no partial results, no poisoned state).

use sinew_rdbms::{Database, Datum, DbError, DbResult, ExecLimits, ExecMode};
use std::sync::Arc;

const ROWS: i64 = 3_000;

/// Deterministic pseudo-random fill (no external RNG): a small LCG keyed
/// by row id, so serial and parallel runs see the same data every time.
fn lcg(seed: i64) -> i64 {
    (seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407) >> 33).abs()
}

fn db_with_big_table() -> Database {
    let db = Database::in_memory();
    db.execute("CREATE TABLE big (id int, grp text, v int, f float, s text)").unwrap();
    let mut batch: Vec<String> = Vec::with_capacity(500);
    for i in 0..ROWS {
        let r = lcg(i);
        batch.push(format!("({i}, 'g{}', {}, {}.5, 's{}')", r % 7, r % 1000, r % 50, r % 97));
        if batch.len() == 500 || i == ROWS - 1 {
            db.execute(&format!("INSERT INTO big VALUES {}", batch.join(", "))).unwrap();
            batch.clear();
        }
    }
    db
}

/// Limits for this suite: the streaming engine, where the morsel-parallel
/// scan lives (the materializing oracle is serial).
fn limits(threads: usize) -> ExecLimits {
    ExecLimits { exec_threads: threads, mode: ExecMode::Streaming, ..ExecLimits::default() }
}

fn with_threads(db: &Database, threads: usize) {
    db.set_exec_limits(limits(threads));
}

/// Query shapes covering every pipeline prefix: bare scan, scan+filter,
/// scan+project, scan+filter+project, plus ordered and aggregated forms
/// that consume the parallel prefix underneath.
const QUERIES: &[&str] = &[
    "SELECT * FROM big",
    "SELECT * FROM big WHERE v > 500",
    "SELECT id, v + 1, s FROM big",
    "SELECT id, grp, v * 2 FROM big WHERE v % 3 = 0 AND grp <> 'g5'",
    "SELECT id FROM big WHERE f > 20.0 ORDER BY id DESC",
    "SELECT grp, COUNT(*), SUM(v) FROM big GROUP BY grp ORDER BY grp",
    "SELECT s FROM big WHERE s LIKE 's1%' ORDER BY id LIMIT 37",
];

#[test]
fn parallel_scan_output_identical_to_serial() {
    let db = db_with_big_table();
    for sql in QUERIES {
        with_threads(&db, 1);
        let serial = db.execute(sql).unwrap();
        for threads in [2, 4, 8] {
            with_threads(&db, threads);
            let parallel = db.execute(sql).unwrap();
            assert_eq!(serial.columns, parallel.columns, "{sql} ({threads} threads)");
            assert_eq!(serial.rows, parallel.rows, "{sql} ({threads} threads)");
        }
    }
    // The big unfiltered scans above must actually have used the pool.
    assert!(db.exec_stats().parallel_scans > 0, "parallel path never engaged");
    assert!(db.exec_stats().morsels_dispatched > 0);
}

#[test]
fn parallel_scan_respects_deletes_and_updates() {
    let db = db_with_big_table();
    db.execute("DELETE FROM big WHERE v % 11 = 0").unwrap();
    db.execute("UPDATE big SET v = v + 1000000 WHERE v % 13 = 0").unwrap();
    with_threads(&db, 1);
    let serial = db.execute("SELECT id, v FROM big WHERE v >= 0").unwrap();
    with_threads(&db, 4);
    let parallel = db.execute("SELECT id, v FROM big WHERE v >= 0").unwrap();
    assert_eq!(serial.rows, parallel.rows);
}

#[test]
fn intermediate_row_limit_enforced_across_workers() {
    let db = db_with_big_table();
    db.set_exec_limits(ExecLimits { max_intermediate_rows: 100, ..limits(4) });
    let err = db.execute("SELECT * FROM big").unwrap_err();
    assert!(
        matches!(err, DbError::ResourceExhausted(_)),
        "expected ResourceExhausted, got {err:?}"
    );
    // The governor must not leave the database unusable afterwards.
    with_threads(&db, 4);
    let r = db.execute("SELECT COUNT(*) FROM big").unwrap();
    assert_eq!(r.rows[0][0], Datum::Int(ROWS));
}

#[test]
fn worker_panic_surfaces_as_clean_error() {
    let db = db_with_big_table();
    db.register_udf_pure(
        "boom",
        Arc::new(|args: &[Datum]| -> DbResult<Datum> {
            if let [Datum::Int(n)] = args {
                if *n == 2_500 {
                    panic!("synthetic evaluator bug");
                }
                return Ok(Datum::Int(*n));
            }
            Ok(Datum::Null)
        }),
    );
    with_threads(&db, 4);
    let err = db.execute("SELECT boom(id) FROM big").unwrap_err();
    let msg = format!("{err}");
    assert!(msg.contains("panicked"), "unexpected error: {msg}");
    // No poisoned locks, no stuck workers: ordinary queries still run and
    // still agree with the serial path.
    let parallel = db.execute("SELECT id, v FROM big WHERE v > 500").unwrap();
    with_threads(&db, 1);
    let serial = db.execute("SELECT id, v FROM big WHERE v > 500").unwrap();
    assert_eq!(serial.rows, parallel.rows);
}

#[test]
fn single_thread_forces_serial_path() {
    let db = db_with_big_table();
    with_threads(&db, 1);
    let before = db.exec_stats().parallel_scans;
    db.execute("SELECT * FROM big WHERE v > 10").unwrap();
    let after = db.exec_stats();
    assert_eq!(after.parallel_scans, before, "threads=1 must stay serial");
    assert!(after.serial_scans > 0);
}
