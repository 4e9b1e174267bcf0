//! Late materialization (DESIGN.md §28): a heap or columnar scan tests its
//! filter on the columns the filter reads and builds the rest of a row
//! only if it passes. The rows, their order and the first error must not
//! change, so every statement here runs on a database with a column store
//! over each plain column and on a store-less twin, at 1 and 2 threads and
//! blocks of 1, 3 and 1024 rows; every answer — rows or error text — must
//! equal the twin's serial run (`exec_threads = 1`, `block_rows = 1024`),
//! whose answers agree with the plan-free reference evaluator's.
//!
//! The table holds Int, Text, Float and Array columns with NULLs, tuples
//! that predate an added column, a dropped column between live ones, and
//! 5 000 rows: one sealed segment (packed, dictionary and run-length
//! encodings) and an unsealed plain tail. The phases cover fresh stores,
//! `UPDATE`/`DELETE` run through the late scan, a reader whose open
//! transaction leaves pending sets and tagged inserts in the stores, and
//! the stores after vacuum applies them.

use sinew_rdbms::{ColType, Database, Datum, DbError, DbResult, ExecLimits};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// splitmix64 — deterministic data without depending on a rand crate.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

/// Rows loaded before `late` is added and `gone` dropped, then after.
const EARLY_ROWS: u64 = 3_000;
const ROWS: u64 = 5_000;
/// The one row whose array holds `'needle'`.
const NEEDLE_ROW: u64 = 2_718;
/// The row `fragile(_rowid)` fails on.
const FRAGILE_ROWID: i64 = 4_321;
/// Columns given a store on the stored side: every one but `data`.
const STORED: &[&str] = &["i", "r", "s", "f", "arr", "late"];

/// Row `n` in live order. Before the schema change the live columns are
/// `(i, r, s, gone, f, arr, data)`; after it `(i, r, s, f, arr, data, late)`.
fn row(n: u64) -> Vec<Datum> {
    let h = mix(n);
    let i = Datum::Int((h % 1000) as i64);
    // Sorted runs of 1 000: the sealed segment is run-length encoded.
    let r = Datum::Int((n / 1000) as i64);
    let s = if h.is_multiple_of(17) { Datum::Null } else { Datum::Text(format!("w{}", h % 23)) };
    // NaN has no exactness class: a segment holding one never lets its
    // bounds stand in for the filter.
    let f = match h % 211 {
        0 => Datum::Float(f64::NAN),
        _ if h.is_multiple_of(11) => Datum::Null,
        _ => Datum::Float((h % 9973) as f64 / 7.0),
    };
    let arr = match (n, h % 13) {
        (NEEDLE_ROW, _) => Datum::Array(vec![Datum::Text("needle".into())]),
        (_, 0) => Datum::Null,
        (_, 1) => Datum::Array(Vec::new()),
        _ => Datum::Array(vec![
            Datum::Text(format!("a{}", h % 5)),
            Datum::Int(((h >> 9) % 7) as i64),
        ]),
    };
    let data = if h.is_multiple_of(19) {
        Datum::Null
    } else {
        Datum::Bytea(vec![7; (h % 40) as usize])
    };
    if n < EARLY_ROWS {
        vec![i, r, s, Datum::Int(n as i64), f, arr, data]
    } else {
        let late = if h.is_multiple_of(3) { Datum::Null } else { Datum::Int((h % 50) as i64) };
        vec![i, r, s, f, arr, data, late]
    }
}

/// The table, loaded in two halves around an added and a dropped column,
/// with `blob_len`, `fragile` and (counting into `probes`) `probe`.
fn build(stores: bool, probes: Arc<AtomicUsize>) -> Database {
    let db = Database::in_memory();
    let cols = [
        ("i", ColType::Int),
        ("r", ColType::Int),
        ("s", ColType::Text),
        ("gone", ColType::Int),
        ("f", ColType::Float),
        ("arr", ColType::Array),
        ("data", ColType::Bytea),
    ];
    db.create_table("t", cols.iter().map(|(n, ty)| (n.to_string(), *ty)).collect()).unwrap();
    let early: Vec<Vec<Datum>> = (0..EARLY_ROWS).map(row).collect();
    db.insert_rows("t", &early).unwrap();
    db.add_column("t", "late", ColType::Int).unwrap();
    db.drop_column("t", "gone").unwrap();
    let rest: Vec<Vec<Datum>> = (EARLY_ROWS..ROWS).map(row).collect();
    db.insert_rows("t", &rest).unwrap();
    db.register_udf_pure(
        "blob_len",
        Arc::new(|args: &[Datum]| match args {
            [Datum::Null] => Ok(Datum::Null),
            [Datum::Bytea(b)] => Ok(Datum::Int(b.len() as i64)),
            _ => Err(DbError::Eval("blob_len expects bytea".into())),
        }),
    );
    db.register_udf(
        "fragile",
        Arc::new(|args: &[Datum]| match args {
            [Datum::Int(FRAGILE_ROWID)] => Err(DbError::Eval("row 4321 is fragile".into())),
            [d] => Ok(d.clone()),
            _ => Err(DbError::Eval("fragile expects one argument".into())),
        }),
    );
    db.register_udf_pure(
        "probe",
        Arc::new(move |args: &[Datum]| {
            probes.fetch_add(1, Ordering::Relaxed);
            Ok(args[0].clone())
        }),
    );
    if stores {
        for col in STORED {
            db.build_columnar("t", col).unwrap();
        }
    }
    db.execute("ANALYZE t").unwrap();
    db
}

/// Scan → filter → project shapes, plus two over a pipeline breaker: the
/// filters reach `_rowid`, `IS [NOT] NULL`, `NOT`/`OR`, `COALESCE` over a
/// UDF of the unstored column, `array_contains`, a UDF that fails on one
/// row, and bounds the column kernels take, over a float column with NaN.
const QUERIES: &[&str] = &[
    "SELECT i, s, f, arr FROM t WHERE array_contains(arr, 'needle')",
    "SELECT s, r FROM t WHERE array_contains(arr, 'a3')",
    "SELECT r, COUNT(*), SUM(i) FROM t WHERE array_contains(arr, 1) GROUP BY r ORDER BY r",
    "SELECT i, s FROM t WHERE _rowid % 97 = 3",
    "SELECT _rowid, f FROM t WHERE s IS NULL",
    "SELECT i, arr FROM t WHERE f IS NOT NULL AND r = 2",
    "SELECT s, f FROM t WHERE NOT (i < 900) OR late = 7",
    "SELECT i, late FROM t WHERE late IS NULL AND i > 990",
    "SELECT i, r FROM t WHERE COALESCE(late, blob_len(data)) = 21",
    "SELECT i, s, blob_len(data) FROM t WHERE blob_len(data) > 35",
    "SELECT s FROM t WHERE fragile(_rowid) > 0",
    "SELECT s FROM t WHERE i < 0 AND fragile(_rowid) > 0",
    "SELECT fragile(_rowid), s FROM t WHERE r = 4",
    "SELECT i FROM t WHERE i BETWEEN 100 AND 110",
    "SELECT s, i, f FROM t WHERE s = 'w3' AND f > 500.0",
    "SELECT i, f FROM t WHERE f > 1400.0",
    "SELECT f, r FROM t WHERE f <= 3.0",
    "SELECT * FROM t WHERE r = 4 AND i % 10 = 0",
    "SELECT i, s FROM t WHERE length(s) = 2 LIMIT 7",
    "SELECT COUNT(*) FROM t WHERE array_length(arr) = 0",
    "SELECT i, s FROM t",
];

/// Run through the late scan of `UPDATE`/`DELETE` (a whole-row scan whose
/// filter reads one or two columns).
const DML: &[&str] = &[
    "UPDATE t SET s = 'upd' WHERE array_contains(arr, 'a1') AND r = 1",
    "UPDATE t SET f = f + 1.0 WHERE late = 3",
    "DELETE FROM t WHERE i % 7 = 0 AND s IS NOT NULL",
    "UPDATE t SET late = 99 WHERE _rowid % 101 = 5",
];

/// Rows as their debug text, so a NaN equals itself, or the error text.
type Answer = Result<String, String>;

/// The answer to `sql`; when `want` holds the reference's answer over the
/// rows the statement sees, the outcome must agree with it.
fn answer(
    sql: &str,
    res: DbResult<sinew_rdbms::QueryResult>,
    want: Option<&DbResult<sinew_reference::Answer>>,
) -> Answer {
    let rows = res.map(|r| r.rows);
    if let Some(want) = want {
        if let Err(e) = sinew_reference::agree(&rows, want) {
            panic!("{sql} disagrees with the reference: {e}");
        }
    }
    rows.map(|r| format!("{r:?}")).map_err(|e| e.to_string())
}

/// The reference's answers to [`QUERIES`] over `db`'s rows now, if asked.
fn reference(db: &Database, on: bool) -> Vec<Option<DbResult<sinew_reference::Answer>>> {
    QUERIES.iter().map(|q| on.then(|| sinew_reference::query(db, q))).collect()
}

/// Every phase's answers, labelled; with `check`, each is checked against
/// the reference.
fn run(stores: bool, limits: ExecLimits, check: bool) -> Vec<(String, Answer)> {
    let db = build(stores, Arc::new(AtomicUsize::new(0)));
    db.set_exec_limits(limits);
    let mut out: Vec<(String, Answer)> = Vec::new();
    for (q, want) in QUERIES.iter().zip(reference(&db, check)) {
        out.push((format!("fresh: {q}"), answer(q, db.execute(q), want.as_ref())));
    }
    for q in DML {
        let n = db.execute(q).unwrap_or_else(|e| panic!("{q}: {e}")).affected;
        out.push((format!("dml: {q}"), Ok(n.to_string())));
    }
    db.check_derived("t").unwrap();
    // What the reader below sees, too.
    let after_dml = reference(&db, check);
    for (q, want) in QUERIES.iter().zip(&after_dml) {
        out.push((format!("after dml: {q}"), answer(q, db.execute(q), want.as_ref())));
    }
    // A reader's transaction, then writes it must not see: the stores
    // keep the sets pending and tag the inserts, and the reader scans the
    // heap (`block.rs` tests a store read under such a snapshot).
    let mut reader = db.session();
    reader.execute("BEGIN").unwrap();
    let versions = db.exec_stats().versions_created;
    db.execute("UPDATE t SET s = 'later', i = i + 1 WHERE r = 3").unwrap();
    let more: Vec<Vec<Datum>> = (ROWS..ROWS + 50).map(row).collect();
    db.insert_rows("t", &more).unwrap();
    assert!(db.exec_stats().versions_created > versions, "nothing was retained");
    for (q, want) in QUERIES.iter().zip(&after_dml) {
        out.push((format!("snapshot: {q}"), answer(q, reader.execute(q), want.as_ref())));
    }
    reader.execute("COMMIT").unwrap();
    db.vacuum().unwrap();
    db.check_derived("t").unwrap();
    for (q, want) in QUERIES.iter().zip(reference(&db, check)) {
        out.push((format!("vacuumed: {q}"), answer(q, db.execute(q), want.as_ref())));
    }
    assert_eq!(db.exec_stats().columnar_scans > 0, stores, "wrong side of the differential");
    out
}

/// Every configuration; the first is the serial one.
fn configs() -> Vec<ExecLimits> {
    let mut configs = Vec::new();
    for threads in [1usize, 2] {
        for block_rows in [1024usize, 1, 3] {
            configs.push(ExecLimits { exec_threads: threads, block_rows, ..ExecLimits::default() });
        }
    }
    configs
}

#[test]
fn late_scans_match_the_reference_and_the_store_less_twin() {
    let oracle = run(false, configs()[0], true);
    // The data reaches what the test claims to cover.
    assert!(oracle.iter().any(|(_, a)| a.is_err()), "no statement failed");
    assert!(oracle.iter().all(|(q, a)| a.is_ok() || q.contains("fragile")), "{oracle:?}");
    for stores in [false, true] {
        // The twin's serial run is the oracle itself.
        for limits in configs().into_iter().skip(usize::from(!stores)) {
            let got = run(stores, limits, false);
            assert_eq!(got.len(), oracle.len());
            for ((q, g), (_, o)) in got.iter().zip(&oracle) {
                assert_eq!(
                    g, o,
                    "{q} diverged with stores={stores} block_rows={} threads={}",
                    limits.block_rows, limits.exec_threads
                );
            }
        }
    }
}

#[test]
fn the_sealed_segment_is_encoded() {
    let db = build(true, Arc::new(AtomicUsize::new(0)));
    let infos = db.columnar_infos("t").unwrap();
    let enc = |col: &str| infos.iter().find(|c| c.column == col).unwrap().encodings.clone();
    assert!(enc("i").contains("packed-int"), "i: {}", enc("i"));
    assert!(enc("s").contains("dict"), "s: {}", enc("s"));
    assert!(enc("r").contains("rle"), "r: {}", enc("r"));
    assert!(enc("arr").contains("plain"), "arr: {}", enc("arr"));
}

/// A columnar scan with one survivor reads its filter column once per
/// slot and gathers the projected columns for that one row only.
#[test]
fn a_one_survivor_columnar_scan_gathers_its_row_once() {
    let db = build(true, Arc::new(AtomicUsize::new(0)));
    db.set_exec_limits(ExecLimits { exec_threads: 1, ..ExecLimits::default() });
    let before = db.exec_stats();
    let r = db.execute("SELECT i, s, f, arr FROM t WHERE array_contains(arr, 'needle')").unwrap();
    assert_eq!(r.rows.len(), 1);
    let after = db.exec_stats();
    assert_eq!(after.columnar_scans - before.columnar_scans, 1);
    assert_eq!(after.heap_fetches, before.heap_fetches);
    assert_eq!(after.scan_rows_rejected_early - before.scan_rows_rejected_early, ROWS - 1);
    // `arr` viewed for every live slot, then four columns for the survivor.
    let decoded = after.decoded_per_block.sum - before.decoded_per_block.sum;
    assert_eq!(decoded, ROWS + 4);

    // A projection without a filter rejects nothing.
    let before = db.exec_stats();
    db.execute("SELECT i, s FROM t").unwrap();
    let after = db.exec_stats();
    assert_eq!(after.columnar_scans - before.columnar_scans, 1);
    assert_eq!(after.scan_rows_rejected_early, before.scan_rows_rejected_early);
}

/// A heap scan whose filter reads fewer columns than it needs decodes the
/// rest for passing rows only; one whose filter reads them all decodes
/// once and counts nothing. `UPDATE` scans whole rows, so it is always late.
#[test]
fn heap_scans_reject_early_only_when_columns_are_left_to_build() {
    for threads in [1usize, 2] {
        let db = build(false, Arc::new(AtomicUsize::new(0)));
        db.set_exec_limits(ExecLimits { exec_threads: threads, ..ExecLimits::default() });
        let matches =
            db.execute("SELECT COUNT(*) FROM t WHERE i = 5").unwrap().rows[0][0].clone();
        let Datum::Int(matches) = matches else { panic!("{matches:?}") };
        let matches = matches as u64;
        assert!(matches > 0);

        let rejected = |sql: &str| {
            let before = db.exec_stats();
            let r = db.execute(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
            let after = db.exec_stats();
            assert_eq!(after.heap_fetches - before.heap_fetches, ROWS, "{sql}");
            (r, after.scan_rows_rejected_early - before.scan_rows_rejected_early)
        };
        let (r, n) = rejected("SELECT s, f FROM t WHERE i = 5");
        assert_eq!((r.rows.len() as u64, n), (matches, ROWS - matches), "at {threads} threads");
        let (_, n) = rejected("SELECT i FROM t WHERE i > 5");
        assert_eq!(n, 0, "at {threads} threads");
        let (_, n) = rejected("SELECT i, s FROM t");
        assert_eq!(n, 0, "at {threads} threads");
        let (r, n) = rejected("UPDATE t SET s = 'x' WHERE i = 5");
        assert_eq!((r.affected, n), (matches, ROWS - matches), "at {threads} threads");
    }
}

/// A pure call in both the filter and the projection is memoized: the
/// scan pipeline evaluates it once per row at every thread count, filter
/// and projection sharing the row's context, in the morsels as in the
/// one-thread cursor.
#[test]
fn a_call_shared_by_filter_and_projection_runs_once_per_passing_row() {
    for threads in [1usize, 2] {
        let probes = Arc::new(AtomicUsize::new(0));
        let db = build(false, probes.clone());
        db.set_exec_limits(ExecLimits { exec_threads: threads, ..ExecLimits::default() });
        probes.store(0, Ordering::Relaxed);
        let r = db.execute("SELECT probe(i), s, arr FROM t WHERE probe(i) > 990").unwrap();
        assert!(!r.rows.is_empty());
        assert_eq!(probes.load(Ordering::Relaxed), ROWS as usize, "at {threads} threads");
    }
}
