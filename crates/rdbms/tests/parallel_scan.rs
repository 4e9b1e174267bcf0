//! Morsel-parallel scan pipeline: the parallel executor must be
//! byte-identical to the serial one for every scan→filter→project prefix,
//! enforce the intermediate-row limit across workers, and turn worker
//! panics into clean errors (no partial results, no poisoned state).

use sinew_rdbms::{Database, Datum, DbError, DbResult, ExecLimits, QueryResult};
use std::sync::atomic::{AtomicU64, Ordering};
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

/// Limits for this suite: `threads` exec threads.
fn limits(threads: usize) -> ExecLimits {
    ExecLimits { exec_threads: threads, ..ExecLimits::default() }
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

    // Every job site of the statement crew: a UDF that panics on one row,
    // the row chosen to land in the first chunk (the statement's own
    // thread runs it) or in a later one (queued for a helper). Each
    // statement must fail cleanly — not hang, not poison — and be followed
    // by a correct one.
    db.register_udf_pure(
        "boom_at",
        Arc::new(|args: &[Datum]| -> DbResult<Datum> {
            if args[0] == args[1] {
                panic!("synthetic evaluator bug at {:?}", args[0]);
            }
            Ok(args[0].clone())
        }),
    );
    let sites: &[(&str, &str, [i64; 2])] = &[
        ("scan morsel", "SELECT boom_at(id, {at}) FROM big", [5, 1_000]),
        (
            "aggregation pre-aggregate",
            "SELECT grp, SUM(boom_at(id, {at})) FROM big GROUP BY grp",
            [5, 1_000],
        ),
        (
            "join build key",
            "SELECT COUNT(*) FROM big a JOIN big b ON a.id = boom_at(b.id, {at})",
            [5, 2_990],
        ),
        (
            "join probe",
            "SELECT COUNT(*) FROM big a JOIN big b ON boom_at(a.id, {at}) = b.id",
            [5, 1_000],
        ),
    ];
    let db = Arc::new(db);
    with_threads(&db, 1);
    let want = db.execute("SELECT grp, COUNT(*), SUM(v) FROM big GROUP BY grp").unwrap().rows;
    for threads in [2, 4] {
        for (site, template, ats) in sites {
            for at in ats {
                with_threads(&db, threads);
                let sql = template.replace("{at}", &at.to_string());
                let err = under_watchdog(&db, &sql).unwrap_err();
                assert!(
                    format!("{err}").contains("parallel worker panicked"),
                    "{site} at {threads} threads, row {at}: {err}"
                );
                let after =
                    under_watchdog(&db, "SELECT grp, COUNT(*), SUM(v) FROM big GROUP BY grp");
                assert_eq!(after.unwrap().rows, want, "{site} at {threads} threads, row {at}");
            }
        }
        // A `max_intermediate_rows` breach mid-stream: in the scan's
        // shared budget, and in the probe's.
        for sql in ["SELECT * FROM big", "SELECT a.id FROM big a JOIN big b ON a.grp = b.grp"] {
            db.set_exec_limits(ExecLimits { max_intermediate_rows: 2_000, ..limits(threads) });
            let err = under_watchdog(&db, sql).unwrap_err();
            assert!(matches!(err, DbError::ResourceExhausted(_)), "{sql}: {err:?}");
            with_threads(&db, threads);
            let after = under_watchdog(&db, "SELECT grp, COUNT(*), SUM(v) FROM big GROUP BY grp");
            assert_eq!(after.unwrap().rows, want, "{sql} at {threads} threads");
        }
    }
}

/// A probe that runs block by block on the statement's thread — its input
/// is another join, not a scan — turns a panic into the statement's
/// parallel-worker error too, as a probe inside the morsels does.
#[test]
fn a_panicking_probe_over_a_join_surfaces_as_clean_error() {
    let db = db_with_big_table();
    db.register_udf_pure(
        "boom_at",
        Arc::new(|args: &[Datum]| -> DbResult<Datum> {
            if args[0] == args[1] {
                panic!("synthetic evaluator bug at {:?}", args[0]);
            }
            Ok(args[0].clone())
        }),
    );
    let db = Arc::new(db);
    for sql in [
        "SELECT COUNT(*) FROM big a JOIN big b ON a.id = b.id \
         JOIN big c ON boom_at(b.id, {at}) = c.id",
        "SELECT COUNT(*) FROM big a LEFT JOIN big b ON a.id = b.id \
         LEFT JOIN big c ON boom_at(b.id, {at}) = c.id",
    ] {
        for threads in [2, 4] {
            for at in [5, 2_990] {
                with_threads(&db, threads);
                let sql = sql.replace("{at}", &at.to_string());
                // The upper join's probe (first) input is the lower join.
                let plan = under_watchdog(&db, &format!("EXPLAIN {sql}")).unwrap();
                let lines: Vec<String> = plan.rows.iter().map(|r| r[0].display_text()).collect();
                let upper = lines.iter().position(|l| l.contains("boom_at")).unwrap();
                assert!(lines[upper + 1].contains("Hash Join"), "{lines:#?}");
                let err = under_watchdog(&db, &sql).unwrap_err();
                assert!(
                    format!("{err}").contains("parallel worker panicked"),
                    "{sql} at {threads} threads: {err}"
                );
                let after = under_watchdog(&db, "SELECT COUNT(*) FROM big").unwrap();
                assert_eq!(after.rows[0][0], Datum::Int(ROWS), "{sql} at {threads} threads");
            }
        }
    }
}

/// A probe that fans out past `max_intermediate_rows` fails inside the
/// morsel that crosses the cap: every joined row is charged as it is made,
/// so the statement stops after about the cap's worth of joined rows rather
/// than after each morsel in flight has built its whole output (here a
/// 256-row morsel joins to some 110 000 rows). A UDF in the residual counts
/// the joined rows made.
#[test]
fn a_fanned_out_probe_stops_at_the_row_cap() {
    let db = db_with_big_table();
    let made = Arc::new(AtomicU64::new(0));
    let counter = Arc::clone(&made);
    db.register_udf_pure(
        "tick",
        Arc::new(move |args: &[Datum]| -> DbResult<Datum> {
            counter.fetch_add(1, Ordering::Relaxed);
            Ok(args[0].clone())
        }),
    );
    let sql = "SELECT a.id FROM big a JOIN big b ON a.grp = b.grp AND tick(a.id + b.id) >= 0";
    for threads in [1, 2, 4] {
        db.set_exec_limits(ExecLimits { max_intermediate_rows: 5_000, ..limits(threads) });
        made.store(0, Ordering::Relaxed);
        let before = db.exec_stats().join_probe_morsels;
        let err = db.execute(sql).unwrap_err();
        assert!(matches!(err, DbError::ResourceExhausted(_)), "{threads} threads: {err:?}");
        let made = made.load(Ordering::Relaxed);
        assert!((5_000..20_000).contains(&made), "{threads} threads made {made} joined rows");
        let probed = db.exec_stats().join_probe_morsels > before;
        assert_eq!(probed, threads > 1, "{threads} threads");
    }
}

/// Run `sql` on its own thread and fail the test if it has not returned
/// after 30 s: a crew that lost a wake-up hangs rather than fails.
fn under_watchdog(db: &Arc<Database>, sql: &str) -> DbResult<QueryResult> {
    let (tx, rx) = std::sync::mpsc::channel();
    let (db, owned) = (Arc::clone(db), sql.to_string());
    std::thread::spawn(move || {
        let _ = tx.send(db.execute(&owned));
    });
    match rx.recv_timeout(std::time::Duration::from_secs(30)) {
        Ok(result) => result,
        Err(e) => panic!("`{sql}` did not finish within 30 s ({e})"),
    }
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

/// A file-backed table four times its pool is scanned past the pool
/// (pages not resident are read from the file, never entering it) while
/// relocating updates, deletes, checkpoints and cache drops land around an
/// open snapshot — so the scans resolve rows through version chains. At
/// 1, 2 and 4 threads every scan equals an in-memory twin that ran the
/// same statements, the snapshot keeps reading what it saw at `BEGIN`,
/// and both databases' derived structures match their heaps.
#[test]
fn scans_past_the_pool_match_an_in_memory_twin() {
    let dir = std::env::temp_dir().join(format!("sinew-pscan-pool-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    const POOL: usize = 8;
    let file = Database::open(&dir.join("t.db"), POOL, None).unwrap();
    let twin = Database::in_memory();
    let both = |sql: &str| {
        for db in [&file, &twin] {
            db.execute(sql).unwrap();
        }
    };
    both("CREATE TABLE t (id int, v int, s text)");
    for lo in (0..ROWS).step_by(500) {
        let values: Vec<String> = (lo..lo + 500)
            .map(|i| format!("({i}, {}, '{}')", lcg(i) % 1000, "s".repeat(80 + (i % 60) as usize)))
            .collect();
        both(&format!("INSERT INTO t VALUES {}", values.join(", ")));
    }
    for db in [&file, &twin] {
        db.create_index("t", "t_v", "v", true).unwrap();
    }
    let pages = file.table_size_bytes("t").unwrap() / sinew_rdbms::page::PAGE_SIZE as u64;
    assert!(pages >= 4 * POOL as u64, "{pages} pages against a {POOL}-page pool");

    const SCANS: &[&str] = &[
        "SELECT * FROM t",
        "SELECT id, s FROM t WHERE v % 3 = 0",
        "SELECT COUNT(*), SUM(v), MAX(s) FROM t",
    ];
    let check = |phase: &str| {
        for db in [&file, &twin] {
            db.check_derived("t").unwrap();
        }
        for sql in SCANS {
            let want = twin.execute(sql).unwrap();
            for threads in [1, 2, 4] {
                with_threads(&file, threads);
                let got = file.execute(sql).unwrap();
                assert_eq!(got.rows, want.rows, "{phase}: {sql} at {threads} threads");
            }
        }
    };
    check("loaded");

    let mut reader = file.session();
    reader.execute("BEGIN").unwrap();
    let at_begin = reader.execute("SELECT * FROM t").unwrap().rows;
    both("UPDATE t SET s = s || '-grown-past-its-slot' WHERE id % 5 = 0");
    check("relocating update");
    both("DELETE FROM t WHERE id % 7 = 0");
    check("delete");
    file.checkpoint().unwrap();
    check("checkpoint");
    file.drop_caches().unwrap();
    check("cold pool");
    both("UPDATE t SET v = v + 1 WHERE id % 11 = 0");
    file.drop_caches().unwrap();
    check("update after a cold pool");
    assert!(file.exec_stats().versions_created > 0, "writes retained versions for the reader");
    for threads in [1, 2, 4] {
        with_threads(&file, threads);
        let seen = reader.execute("SELECT * FROM t").unwrap().rows;
        assert_eq!(seen, at_begin, "snapshot at {threads} threads");
    }
    reader.execute("COMMIT").unwrap();
    drop(reader);
    file.vacuum().unwrap();
    check("vacuumed");
    assert!(file.io_stats().scan_reads > 0, "no scan read past the pool");
    std::fs::remove_dir_all(&dir).ok();
}

/// A table `n (id, v)` of `rows` rows, inserted in one call.
fn db_with_rows(rows: i64) -> Database {
    let db = Database::in_memory();
    db.execute("CREATE TABLE n (id int, v int)").unwrap();
    let rows: Vec<Vec<Datum>> =
        (0..rows).map(|i| vec![Datum::Int(i), Datum::Int(lcg(i) % 1000)]).collect();
    db.insert_rows("n", &rows).unwrap();
    db
}

/// How many helper threads `sql` spawned and morsels it dispatched.
fn crew_use(db: &Database, sql: &str) -> (u64, u64) {
    let before = db.exec_stats();
    db.execute(sql).unwrap();
    let after = db.exec_stats();
    (
        after.exec_helpers_spawned - before.exec_helpers_spawned,
        after.morsels_dispatched - before.morsels_dispatched,
    )
}

/// One crew per statement: every parallel operator of a statement shares
/// the same `exec_threads − 1` helpers, whatever the number of scans,
/// morsels and breaker phases; one thread spawns none.
#[test]
fn a_statement_spawns_its_helpers_once() {
    let db = db_with_rows(10_240);
    with_threads(&db, 4);
    assert_eq!(crew_use(&db, "SELECT id FROM n WHERE v >= 0"), (3, 32), "one scan");

    // Four scans of 32 morsels, three builds, a probe inside the first
    // scan's morsels, an aggregate.
    let join = "SELECT COUNT(*) FROM n a JOIN n b ON a.id = b.id \
                JOIN n c ON b.id = c.id JOIN n d ON c.id = d.id";
    let before = db.exec_stats();
    let (helpers, morsels) = crew_use(&db, join);
    let after = db.exec_stats();
    assert_eq!(helpers, 3, "a join of parallel scans with a parallel build");
    assert!(morsels >= 100, "{morsels} morsels");
    assert!(after.join_probe_morsels > before.join_probe_morsels, "no probe ran in a morsel");

    with_threads(&db, 1);
    for sql in ["SELECT id FROM n WHERE v >= 0", join] {
        assert_eq!(crew_use(&db, sql), (0, 0), "{sql} at one thread");
    }
}

/// A LIMIT stops the claims: over 100 000 rows at four threads only the
/// look-ahead window — 2 × threads morsels — is ever dispatched.
#[test]
fn limit_dispatches_at_most_the_look_ahead_window() {
    let db = db_with_rows(100_000);
    with_threads(&db, 1);
    let want = db.execute("SELECT id, v FROM n LIMIT 10").unwrap().rows;
    with_threads(&db, 4);
    let before = db.exec_stats();
    let got = db.execute("SELECT id, v FROM n LIMIT 10").unwrap().rows;
    let after = db.exec_stats();
    assert_eq!(got, want);
    assert_eq!(after.parallel_scans - before.parallel_scans, 1);
    let morsels = after.morsels_dispatched - before.morsels_dispatched;
    assert!((1..=8).contains(&morsels), "{morsels} morsels dispatched for LIMIT 10");
}
