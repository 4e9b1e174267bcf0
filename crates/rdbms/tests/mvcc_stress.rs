//! MVCC snapshot-transaction tests: BEGIN/COMMIT/ROLLBACK semantics,
//! first-writer-wins conflicts, snapshot-isolated readers racing writers,
//! autocommit writers racing each other, and the vacuum horizon. The
//! multi-threaded stress test at the bottom is the MVCC acceptance scenario:
//! a reader completes a consistent scan while a writer transaction and a
//! columnar rebuild are both in flight.

use sinew_rdbms::{Database, Datum, DbError};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;

fn mvcc_db() -> Database {
    let db = Database::in_memory();
    db.execute("CREATE TABLE acct (id int, owner text, balance int)").unwrap();
    db.execute(
        "INSERT INTO acct VALUES (1, 'ann', 100), (2, 'bob', 200), (3, 'cal', 300)",
    )
    .unwrap();
    db
}

fn balances(db: &Database) -> Vec<i64> {
    db.execute("SELECT balance FROM acct ORDER BY id")
        .unwrap()
        .rows
        .iter()
        .map(|r| match r[0] {
            Datum::Int(v) => v,
            _ => panic!("non-int balance"),
        })
        .collect()
}

#[test]
fn commit_publishes_all_writes_atomically() {
    let db = mvcc_db();
    let mut s = db.session();
    s.execute("BEGIN").unwrap();
    s.execute("UPDATE acct SET balance = balance - 50 WHERE id = 1").unwrap();
    s.execute("UPDATE acct SET balance = balance + 50 WHERE id = 2").unwrap();
    // Not visible outside the transaction yet.
    assert_eq!(balances(&db), vec![100, 200, 300]);
    // ...but the transaction sees its own writes.
    let r = s.execute("SELECT balance FROM acct WHERE id = 1").unwrap();
    assert_eq!(r.rows[0][0], Datum::Int(50));
    s.execute("COMMIT").unwrap();
    assert_eq!(balances(&db), vec![50, 250, 300]);
    let stats = db.exec_stats();
    assert_eq!(stats.txns_begun, 1);
    assert_eq!(stats.txns_committed, 1);
    assert_eq!(stats.txns_aborted, 0);
}

#[test]
fn rollback_undoes_insert_update_delete() {
    let db = mvcc_db();
    let mut s = db.session();
    s.execute("BEGIN").unwrap();
    s.execute("INSERT INTO acct VALUES (4, 'dee', 400)").unwrap();
    s.execute("UPDATE acct SET balance = 0 WHERE id = 2").unwrap();
    s.execute("DELETE FROM acct WHERE id = 3").unwrap();
    let r = s.execute("SELECT count(*) FROM acct").unwrap();
    assert_eq!(r.rows[0][0], Datum::Int(3)); // 3 original - 1 deleted + 1 inserted
    s.execute("ROLLBACK").unwrap();
    assert_eq!(balances(&db), vec![100, 200, 300]);
    assert_eq!(db.row_count("acct").unwrap(), 3);
    assert_eq!(db.exec_stats().txns_aborted, 1);
}

#[test]
fn dropped_session_rolls_back() {
    let db = mvcc_db();
    {
        let mut s = db.session();
        s.execute("BEGIN").unwrap();
        s.execute("DELETE FROM acct WHERE id = 1").unwrap();
        assert!(s.in_txn());
    } // dropped without COMMIT
    assert_eq!(db.row_count("acct").unwrap(), 3);
    assert_eq!(db.exec_stats().txns_aborted, 1);
}

#[test]
fn first_writer_wins_conflict_aborts_second() {
    let db = mvcc_db();
    let mut s1 = db.session();
    let mut s2 = db.session();
    s1.execute("BEGIN").unwrap();
    s2.execute("BEGIN").unwrap();
    s1.execute("UPDATE acct SET balance = 111 WHERE id = 1").unwrap();
    // s2 touches the same row: first-writer-wins kills s2.
    let err = s2.execute("UPDATE acct SET balance = 222 WHERE id = 1").unwrap_err();
    assert!(matches!(err, DbError::Conflict(_)), "got {err:?}");
    assert!(!s2.in_txn(), "conflict must auto-rollback the loser");
    s1.execute("COMMIT").unwrap();
    assert_eq!(balances(&db), vec![111, 200, 300]);
    let stats = db.exec_stats();
    assert_eq!(stats.write_conflicts, 1);
    assert_eq!(stats.txns_aborted, 1);
}

#[test]
fn stale_row_conflicts_even_after_commit() {
    // s2's snapshot predates s1's commit; writing the row s1 changed must
    // conflict even though s1 already finished (no dirty marker left).
    let db = mvcc_db();
    let mut s1 = db.session();
    let mut s2 = db.session();
    s2.execute("BEGIN").unwrap();
    s2.execute("SELECT * FROM acct").unwrap(); // pin the snapshot in time
    s1.execute("BEGIN").unwrap();
    s1.execute("UPDATE acct SET balance = 999 WHERE id = 2").unwrap();
    s1.execute("COMMIT").unwrap();
    let err = s2.execute("UPDATE acct SET balance = 1 WHERE id = 2").unwrap_err();
    assert!(matches!(err, DbError::Conflict(_)), "got {err:?}");
    assert_eq!(balances(&db), vec![100, 999, 300]);
}

#[test]
fn autocommit_statement_conflicts_with_open_txn_marker() {
    let db = mvcc_db();
    let mut s1 = db.session();
    s1.execute("BEGIN").unwrap();
    s1.execute("UPDATE acct SET balance = 5 WHERE id = 1").unwrap();
    // An autocommit UPDATE hitting the marker row errors instead of
    // blocking or trampling the uncommitted version.
    let err = db.execute("UPDATE acct SET balance = 6 WHERE id = 1").unwrap_err();
    assert!(matches!(err, DbError::Conflict(_)), "got {err:?}");
    s1.execute("COMMIT").unwrap();
    assert_eq!(balances(&db), vec![5, 200, 300]);
}

#[test]
fn snapshot_reader_does_not_see_concurrent_commit() {
    let db = mvcc_db();
    let mut reader = db.session();
    reader.execute("BEGIN").unwrap();
    let before = reader.execute("SELECT sum(balance) FROM acct").unwrap();
    db.execute("UPDATE acct SET balance = balance + 1000").unwrap();
    // Same transaction, same snapshot: totals must not move.
    let after = reader.execute("SELECT sum(balance) FROM acct").unwrap();
    assert_eq!(before.rows, after.rows);
    reader.execute("COMMIT").unwrap();
    // A fresh statement sees the new world.
    let r = db.execute("SELECT sum(balance) FROM acct").unwrap();
    assert_eq!(r.rows[0][0], Datum::Int(600 + 3000));
}

#[test]
fn snapshot_reader_sees_pre_delete_rows_and_vacuum_reclaims() {
    let db = mvcc_db();
    let mut reader = db.session();
    reader.execute("BEGIN").unwrap();
    reader.execute("SELECT * FROM acct").unwrap();
    db.execute("DELETE FROM acct WHERE id = 2").unwrap();
    // Snapshot still sees the tombstoned row.
    let r = reader.execute("SELECT count(*) FROM acct").unwrap();
    assert_eq!(r.rows[0][0], Datum::Int(3));
    assert_eq!(db.row_count("acct").unwrap(), 2);
    reader.execute("COMMIT").unwrap();
    // Horizon has passed; vacuum may reclaim the retained slot.
    db.vacuum().unwrap();
    let r = db.execute("SELECT count(*) FROM acct").unwrap();
    assert_eq!(r.rows[0][0], Datum::Int(2));
}

/// A vacuum pass that skips a busy table leaves that table's chain garbage
/// queued; an eager update then frees the chain on its own. The leftover
/// item must not reclaim a version that a later snapshot still reads.
#[test]
fn stale_chain_garbage_does_not_reclaim_a_version_in_use() {
    let db = Database::in_memory();
    db.execute("CREATE TABLE t (v int)").unwrap();
    db.execute("INSERT INTO t VALUES (10)").unwrap();
    let read = |s: &mut sinew_rdbms::Session<'_>| s.execute("SELECT v FROM t").unwrap().rows;

    let mut r1 = db.session();
    r1.execute("BEGIN").unwrap();
    assert_eq!(read(&mut r1), vec![vec![Datum::Int(10)]]);
    db.execute("UPDATE t SET v = 11").unwrap(); // retained for r1
    // r1 ends while a scan holds the table's read lock: the vacuum that its
    // COMMIT triggers skips the table.
    let mut committed = false;
    db.scan_rows("t", &mut |_, _| {
        if !std::mem::replace(&mut committed, true) {
            r1.execute("COMMIT").unwrap();
        }
        Ok(true)
    })
    .unwrap();
    db.execute("UPDATE t SET v = 12").unwrap(); // no snapshot: eager

    let mut r2 = db.session();
    r2.execute("BEGIN").unwrap();
    assert_eq!(read(&mut r2), vec![vec![Datum::Int(12)]]);
    db.execute("UPDATE t SET v = 13").unwrap(); // retained for r2
    db.vacuum().unwrap();
    assert_eq!(read(&mut r2), vec![vec![Datum::Int(12)]]);
    r2.execute("COMMIT").unwrap();
    db.vacuum().unwrap();
    assert_eq!(db.execute("SELECT v FROM t").unwrap().rows, vec![vec![Datum::Int(13)]]);
    db.check_derived("t").unwrap();
}

#[test]
fn txn_requires_session() {
    let db = mvcc_db();
    assert!(db.execute("BEGIN").is_err());
    // DDL inside a transaction is rejected.
    let mut s = db.session();
    s.execute("BEGIN").unwrap();
    assert!(s.execute("CREATE TABLE u (a int)").is_err());
    s.execute("ROLLBACK").unwrap();
}

#[test]
fn indexes_and_columnar_consistent_after_txn_commit() {
    let db = mvcc_db();
    db.create_index("acct", "acct_balance", "balance", true).unwrap();
    db.build_columnar("acct", "balance").unwrap();
    let mut s = db.session();
    s.execute("BEGIN").unwrap();
    s.execute("INSERT INTO acct VALUES (4, 'dee', 400)").unwrap();
    s.execute("UPDATE acct SET balance = 150 WHERE id = 1").unwrap();
    s.execute("DELETE FROM acct WHERE id = 3").unwrap();
    s.execute("COMMIT").unwrap();
    db.check_derived("acct").unwrap();
    db.vacuum().unwrap();
    db.check_derived("acct").unwrap();
    // Index probe and columnar scan agree with the committed state.
    let r = db.execute("SELECT id FROM acct WHERE balance >= 150 ORDER BY id").unwrap();
    let ids: Vec<i64> =
        r.rows.iter().map(|row| if let Datum::Int(v) = row[0] { v } else { -1 }).collect();
    assert_eq!(ids, vec![1, 2, 4]);
    let r = db.execute("SELECT sum(balance) FROM acct").unwrap();
    assert_eq!(r.rows[0][0], Datum::Int(150 + 200 + 400));
}

/// In-memory and file-backed (fsync per commit) subjects for the races
/// between autocommit writers; `run` gets each in turn.
fn on_both_databases(tag: &str, run: impl Fn(Arc<Database>, u64)) {
    run(Arc::new(Database::in_memory()), 500);
    let dir = std::env::temp_dir().join(format!("sinew-mvcc-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    run(Arc::new(Database::open(&dir.join("t.db"), 64, None).unwrap()), 100);
    std::fs::remove_dir_all(&dir).ok();
}

fn affected(db: &Database, sql: &str) -> u64 {
    db.execute(sql).unwrap_or_else(|e| panic!("{sql}: {e}")).affected
}

/// `n = n + 1` reads the row it replaces: between an autocommit UPDATE's
/// scan and its write no other writer may commit, or an increment is lost.
#[test]
fn concurrent_autocommit_increments_all_land() {
    on_both_databases("incr", |db, per_thread| {
        db.execute("CREATE TABLE c (id int, n int)").unwrap();
        db.execute("INSERT INTO c VALUES (1, 0), (2, 0)").unwrap();
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let db = db.clone();
                thread::spawn(move || {
                    for _ in 0..per_thread {
                        assert_eq!(affected(&db, "UPDATE c SET n = n + 1 WHERE id = 1"), 1);
                    }
                })
            })
            .collect();
        threads.into_iter().for_each(|t| t.join().unwrap());
        let r = db.execute("SELECT n FROM c ORDER BY id").unwrap();
        assert_eq!(r.rows, vec![vec![Datum::Int(4 * per_thread as i64)], vec![Datum::Int(0)]]);
        db.check_derived("c").unwrap();
    });
}

/// A DELETE may only remove rows that satisfy its predicate when it removes
/// them: an UPDATE that reported moving a row out of `n < 50` keeps it.
#[test]
fn delete_does_not_remove_rows_an_update_moved_out_of_its_predicate() {
    on_both_databases("del", |db, rounds| {
        db.execute("CREATE TABLE c (id int, n int)").unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let deleter = {
            let (db, stop) = (db.clone(), stop.clone());
            thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    affected(&db, "DELETE FROM c WHERE n < 50");
                }
            })
        };
        let mut moved = 0;
        for id in 0..rounds {
            affected(&db, &format!("INSERT INTO c VALUES ({id}, 0)"));
            moved += affected(&db, &format!("UPDATE c SET n = 100 WHERE id = {id}"));
        }
        stop.store(true, Ordering::Relaxed);
        deleter.join().unwrap();
        affected(&db, "DELETE FROM c WHERE n < 50");
        let r = db.execute("SELECT COUNT(*), MIN(n) FROM c").unwrap();
        assert_eq!(r.rows[0][0], Datum::Int(moved as i64), "a moved row was deleted");
        assert!(moved == 0 || r.rows[0][1] == Datum::Int(100));
        db.check_derived("c").unwrap();
    });
}

/// A transaction's COMMIT is a writer like any other: it may not publish
/// between an autocommit UPDATE's scan and its write either. Conflicts
/// (the row carries the other side's uncommitted version) are retried.
#[test]
fn autocommit_increments_racing_transaction_commits_all_land() {
    const PER_THREAD: i64 = 300;
    let db = Arc::new(Database::in_memory());
    db.execute("CREATE TABLE c (id int, n int)").unwrap();
    db.execute("INSERT INTO c VALUES (1, 0)").unwrap();
    let increment = "UPDATE c SET n = n + 1 WHERE id = 1";
    // Did the statement land? A conflict did not, and is retried.
    let landed = |res: Result<_, DbError>| match res {
        Ok(_) => true,
        Err(DbError::Conflict(_)) => false,
        Err(e) => panic!("{e}"),
    };
    let threads: Vec<_> = (0..4)
        .map(|k| {
            let db = db.clone();
            thread::spawn(move || {
                for _ in 0..PER_THREAD {
                    if k % 2 == 0 {
                        while !landed(db.execute(increment)) {}
                    } else {
                        let mut s = db.session();
                        loop {
                            s.execute("BEGIN").unwrap();
                            if landed(s.execute(increment)) {
                                s.execute("COMMIT").unwrap();
                                break;
                            }
                            s.execute("ROLLBACK").unwrap();
                        }
                    }
                }
            })
        })
        .collect();
    threads.into_iter().for_each(|t| t.join().unwrap());
    let r = db.execute("SELECT n FROM c").unwrap();
    assert_eq!(r.rows, vec![vec![Datum::Int(4 * PER_THREAD)]]);
}

/// The acceptance scenario: while a writer transaction repeatedly moves
/// money between accounts (sum-preserving) and a materialization thread
/// rebuilds a column store, concurrent snapshot readers must always see a
/// consistent total — never a half-applied transfer.
#[test]
fn stress_readers_see_consistent_snapshots_under_write_load() {
    let db = Arc::new(Database::in_memory());
    db.execute("CREATE TABLE bank (id int, balance int)").unwrap();
    const ACCTS: i64 = 64;
    const TOTAL: i64 = ACCTS * 100;
    for chunk in (0..ACCTS).collect::<Vec<_>>().chunks(16) {
        let values: Vec<String> =
            chunk.iter().map(|i| format!("({i}, 100)")).collect();
        db.execute(&format!("INSERT INTO bank VALUES {}", values.join(", ")))
            .unwrap();
    }
    // Derived structures the writer must keep right under Retain-mode
    // commits: balances swing +-10, so index keys leave and come back
    // between vacuum passes.
    db.create_index("bank", "bank_balance", "balance", true).unwrap();
    db.build_columnar("bank", "id").unwrap();
    let stop = Arc::new(AtomicBool::new(false));

    // Writer: transactional transfers; occasionally rolls back.
    let w_db = db.clone();
    let w_stop = stop.clone();
    let writer = thread::spawn(move || {
        let mut rolled_back = 0u64;
        let mut committed = 0u64;
        for round in 0.. {
            if w_stop.load(Ordering::Relaxed) {
                break;
            }
            let a = round % ACCTS;
            let b = (round * 7 + 3) % ACCTS;
            if a == b {
                continue;
            }
            let mut s = w_db.session();
            s.execute("BEGIN").unwrap();
            let r1 =
                s.execute(&format!("UPDATE bank SET balance = balance - 10 WHERE id = {a}"));
            let r2 =
                s.execute(&format!("UPDATE bank SET balance = balance + 10 WHERE id = {b}"));
            if r1.is_err() || r2.is_err() {
                continue; // conflict auto-rolled-back
            }
            if round % 5 == 4 {
                s.execute("ROLLBACK").unwrap();
                rolled_back += 1;
            } else {
                s.execute("COMMIT").unwrap();
                committed += 1;
            }
        }
        (committed, rolled_back)
    });

    // Materializer stand-in: build/drop a column store while writes fly.
    let m_db = db.clone();
    let m_stop = stop.clone();
    let materializer = thread::spawn(move || {
        let mut builds = 0u64;
        while !m_stop.load(Ordering::Relaxed) {
            m_db.build_columnar("bank", "balance").unwrap();
            builds += 1;
            m_db.drop_columnar("bank", "balance").unwrap();
        }
        builds
    });

    // Readers: the invariant is that every snapshot sums to TOTAL.
    let mut readers = Vec::new();
    for _ in 0..3 {
        let r_db = db.clone();
        let r_stop = stop.clone();
        readers.push(thread::spawn(move || {
            let mut scans = 0u64;
            while !r_stop.load(Ordering::Relaxed) {
                let r = r_db.execute("SELECT sum(balance), count(*) FROM bank").unwrap();
                assert_eq!(
                    r.rows[0],
                    vec![Datum::Int(TOTAL), Datum::Int(ACCTS)],
                    "reader observed a torn transaction"
                );
                scans += 1;
            }
            scans
        }));
    }

    thread::sleep(std::time::Duration::from_millis(1500));
    stop.store(true, Ordering::Relaxed);
    let (committed, rolled_back) = writer.join().unwrap();
    let builds = materializer.join().unwrap();
    let scans: u64 = readers.into_iter().map(|r| r.join().unwrap()).sum();
    db.build_columnar("bank", "balance").unwrap();
    db.check_derived("bank").unwrap();

    // Engagement guards: the machinery must actually have been exercised —
    // a vacuously green run (no commits, no scans, no retained versions)
    // would prove nothing.
    assert!(committed > 0, "writer never committed");
    assert!(rolled_back > 0, "writer never rolled back");
    assert!(builds > 0, "materializer never rebuilt");
    assert!(scans > 10, "readers barely ran ({scans} scans)");
    let stats = db.exec_stats();
    assert!(stats.txns_begun >= committed + rolled_back);
    assert!(stats.txns_committed >= committed);
    assert!(stats.txns_aborted >= rolled_back);
    assert!(
        stats.versions_created > 0,
        "no versions were ever retained — readers never overlapped writers"
    );
    // Final state must still balance, and vacuum must converge: with no
    // snapshot left alive everything ever retained is reclaimable.
    db.vacuum().unwrap();
    db.check_derived("bank").unwrap();
    let stats = db.exec_stats();
    assert!(
        stats.versions_vacuumed > 0,
        "versions were created but never reclaimed"
    );
    assert_eq!(stats.live_snapshots, 0, "a snapshot leaked past the run");
    let r = db.execute("SELECT sum(balance) FROM bank").unwrap();
    assert_eq!(r.rows[0][0], Datum::Int(TOTAL));

    // The snapshot gauges engage while a transaction holds one open.
    let mut s = db.session();
    s.execute("BEGIN").unwrap();
    s.execute("SELECT count(*) FROM bank").unwrap();
    thread::sleep(std::time::Duration::from_millis(20));
    let stats = db.exec_stats();
    assert!(stats.live_snapshots >= 1, "open transaction holds no snapshot");
    assert!(
        stats.oldest_snapshot_age_ms >= 10,
        "snapshot age gauge never advanced ({} ms)",
        stats.oldest_snapshot_age_ms
    );
    s.execute("COMMIT").unwrap();
    assert_eq!(db.exec_stats().live_snapshots, 0);
    db.check_derived("bank").unwrap();
}
