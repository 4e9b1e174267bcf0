//! Crash-recovery tests for the write-ahead log.
//!
//! The harness runs a deterministic statement workload in a **child
//! process** (this same test binary, re-executed with `--exact
//! crash_child`), kills it mid-flight — either at a precise WAL append
//! via `WalConfig::crash_after` fault injection (which half-writes a
//! frame, deterministically producing a torn tail) or with a raw
//! `SIGKILL` at a fuzzed moment — then reopens the database and asserts
//! the recovered state is identical to the state after some *statement
//! prefix* of a differential oracle replaying the identical workload
//! in memory. Heap contents, B-tree probes, and columnar-path
//! aggregates must all land on the same prefix together.

use sinew_rdbms::{ColType, Database, WalConfig};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Duration;

// ---- the shared workload ----

enum Stmt {
    Sql(String),
    AddColumn(&'static str, &'static str, ColType),
    BuildColumnar(&'static str, &'static str),
    DropTable(&'static str),
}

/// Multi-row INSERT with an explicit column list, so it stays valid
/// after later ADD COLUMNs.
fn insert_t(start: i64, count: i64) -> Stmt {
    let vals: Vec<String> = (start..start + count)
        .map(|i| format!("({i}, 's-{i}', {}.5)", i / 2))
        .collect();
    Stmt::Sql(format!("INSERT INTO t (a, b, c) VALUES {}", vals.join(", ")))
}

fn insert_u(start: i64, count: i64) -> Stmt {
    let vals: Vec<String> =
        (start..start + count).map(|i| format!("({i}, 'u-{i}')")).collect();
    Stmt::Sql(format!("INSERT INTO u (k, v) VALUES {}", vals.join(", ")))
}

/// One entry = one WAL commit unit. Recovery must land exactly on one of
/// these boundaries, never between.
fn workload() -> Vec<Stmt> {
    use Stmt::*;
    vec![
        Sql("CREATE TABLE t (a int, b text, c float)".into()),
        insert_t(0, 400),
        insert_t(400, 400),
        Sql("CREATE INDEX idx_t_a ON t (a)".into()),
        Sql("UPDATE t SET b = 'upd-one' WHERE a % 7 = 3".into()),
        Sql("DELETE FROM t WHERE a % 11 = 5".into()),
        insert_t(800, 400),
        BuildColumnar("t", "a"),
        Sql("UPDATE t SET c = 2.5 WHERE a % 5 = 0".into()),
        Sql("CREATE TABLE u (k int, v text)".into()),
        insert_u(0, 200),
        AddColumn("t", "d", ColType::Int),
        Sql("UPDATE t SET d = a * 2 WHERE a < 100".into()),
        Sql("DELETE FROM u WHERE k % 2 = 0".into()),
        insert_t(1200, 400),
        DropTable("u"),
        Sql("UPDATE t SET b = 'upd-two' WHERE a % 13 = 1".into()),
        insert_t(1600, 400),
        Sql("DELETE FROM t WHERE a % 17 = 2".into()),
        insert_t(2000, 400),
    ]
}

fn apply(db: &Database, stmt: &Stmt) {
    match stmt {
        Stmt::Sql(sql) => {
            db.execute(sql).unwrap();
        }
        Stmt::AddColumn(t, c, ty) => db.add_column(t, c, *ty).unwrap(),
        Stmt::BuildColumnar(t, c) => db.build_columnar(t, c).unwrap(),
        Stmt::DropTable(t) => db.drop_table(t).unwrap(),
    }
}

/// Logical fingerprint of the whole database: full ordered contents of
/// both tables, an index-probe, a columnar-eligible aggregate, and the
/// index/columnar catalog. Two states with equal fingerprints answer
/// every workload query identically.
fn fingerprint(db: &Database) -> String {
    let mut out = String::new();
    for (table, order) in [("t", "a"), ("u", "k")] {
        match db.execute(&format!("SELECT * FROM {table} ORDER BY {order}")) {
            Ok(r) => {
                out.push_str(&format!("{table}: {:?} rows={:?}\n", r.columns, r.rows));
            }
            Err(_) => out.push_str(&format!("{table}: absent\n")),
        }
    }
    if let Ok(r) = db.execute("SELECT b FROM t WHERE a = 517") {
        out.push_str(&format!("probe: {:?}\n", r.rows));
    }
    if let Ok(r) = db.execute("SELECT COUNT(*), SUM(a) FROM t WHERE a % 3 = 0") {
        out.push_str(&format!("agg: {:?}\n", r.rows));
    }
    if let Ok(infos) = db.index_infos("t") {
        let defs: Vec<(String, String, u64)> =
            infos.into_iter().map(|i| (i.name, i.column, i.key_count)).collect();
        out.push_str(&format!("indexes: {defs:?}\n"));
    }
    if let Ok(infos) = db.columnar_infos("t") {
        let mut cols: Vec<String> = infos.into_iter().map(|i| i.column).collect();
        cols.sort();
        out.push_str(&format!("columnar: {cols:?}\n"));
    }
    out
}

/// Oracle: fingerprints after every statement prefix (index 0 = empty
/// database), from an in-memory replay of the identical workload.
fn oracle_prefixes() -> Vec<String> {
    let db = Database::in_memory();
    let mut out = vec![fingerprint(&db)];
    for stmt in workload() {
        apply(&db, &stmt);
        out.push(fingerprint(&db));
    }
    out
}

fn assert_is_prefix(recovered: &str, prefixes: &[String], ctx: &str) {
    let k = prefixes.iter().position(|p| p == recovered);
    assert!(
        k.is_some(),
        "{ctx}: recovered state matches no statement prefix of the oracle;\n\
         recovered:\n{recovered}\nlast oracle prefix:\n{}",
        prefixes.last().unwrap()
    );
}

fn test_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sinew-crash-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn reopen(dir: &Path) -> Database {
    Database::open(&dir.join("t.db"), 32, None).unwrap()
}

/// A child's database: the log configured from the variables its parent
/// set for it.
fn child_db(dir: &str) -> Database {
    let var = |name: &str| std::env::var(name).ok().map(|v| v.parse::<u64>().unwrap());
    let cfg = WalConfig {
        group_commit: var("SINEW_CRASH_GROUP_COMMIT").unwrap_or(1),
        crash_after: var("SINEW_CRASH_AFTER"),
        ..WalConfig::default()
    };
    Database::open_with_wal(&Path::new(dir).join("t.db"), 32, None, cfg).unwrap()
}

// ---- child-process entry point ----

/// Not a real test: the re-exec target. A no-op unless the parent set
/// `SINEW_CRASH_DIR`, in which case it runs the workload against that
/// directory until it finishes — or until fault injection / the parent's
/// SIGKILL stops it mid-statement.
#[test]
fn crash_child() {
    let Ok(dir) = std::env::var("SINEW_CRASH_DIR") else { return };
    let db = child_db(&dir);
    for stmt in workload() {
        apply(&db, &stmt);
    }
}

fn spawn_child(dir: &Path, extra_env: &[(&str, String)]) -> std::process::Child {
    spawn_child_target("crash_child", "SINEW_CRASH_DIR", dir, extra_env)
}

fn spawn_child_target(
    target: &str,
    dir_var: &str,
    dir: &Path,
    extra_env: &[(&str, String)],
) -> std::process::Child {
    let mut cmd = Command::new(std::env::current_exe().unwrap());
    cmd.args([target, "--exact", "--nocapture"])
        .env(dir_var, dir)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null());
    for (k, v) in extra_env {
        cmd.env(k, v);
    }
    cmd.spawn().unwrap()
}

// ---- the tests ----

#[test]
fn clean_reopen_recovers_full_state() {
    let dir = test_dir("clean");
    {
        let db = reopen(&dir);
        for stmt in workload() {
            apply(&db, &stmt);
        }
        // Dropped without flush or checkpoint: everything must come back
        // from the log alone.
    }
    let db = reopen(&dir);
    assert_eq!(fingerprint(&db), *oracle_prefixes().last().unwrap());
    let snap = db.exec_stats();
    assert_eq!(snap.wal_recoveries, 1);
    assert!(snap.wal_recovered_pages > 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn torn_tail_recovery_lands_on_statement_boundary() {
    let prefixes = oracle_prefixes();
    // Fault injection half-writes the n-th appended frame and aborts;
    // the sweep covers the checkpoint frame, early page frames, commit
    // frames, and appends deep into the workload.
    for crash_after in [1u64, 2, 3, 5, 9, 17, 33, 65, 129, 257] {
        let dir = test_dir(&format!("torn-{crash_after}"));
        let status = spawn_child(
            &dir,
            &[("SINEW_CRASH_AFTER", crash_after.to_string())],
        )
        .wait()
        .unwrap();
        let db = reopen(&dir);
        if status.success() {
            // The sweep ran past the workload's total append count: the
            // child finished cleanly, so recovery must yield it all.
            assert_eq!(
                fingerprint(&db),
                *prefixes.last().unwrap(),
                "crash_after={crash_after}: clean run must recover in full"
            );
        } else {
            assert_is_prefix(
                &fingerprint(&db),
                &prefixes,
                &format!("crash_after={crash_after}"),
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn kill9_fuzz_recovers_to_statement_boundary() {
    let prefixes = oracle_prefixes();
    let iters: u64 = std::env::var("SINEW_CRASH_FUZZ_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(6);
    for i in 0..iters {
        let dir = test_dir(&format!("kill9-{i}"));
        // Alternate group-commit windows so some runs have committed-but-
        // unsynced statements in flight when the SIGKILL lands.
        let gc = if i % 2 == 0 { "1" } else { "4" };
        let mut child = spawn_child(&dir, &[("SINEW_CRASH_GROUP_COMMIT", gc.to_string())]);
        // Deterministic but varied kill points across iterations.
        std::thread::sleep(Duration::from_millis(5 + (i * 37) % 120));
        child.kill().ok(); // SIGKILL: no destructors, no flush
        let _ = child.wait();
        let db = reopen(&dir);
        assert_is_prefix(&fingerprint(&db), &prefixes, &format!("kill9 iter {i} gc={gc}"));
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Accounts in the transactional crash workload (committed setup inserts
/// them all at balance 100 in one statement).
const TXN_ACCTS: i64 = 100;

/// Re-exec target for the mid-transaction kill fuzz: after a committed
/// setup, every round is one explicit transaction — an INSERT of a new
/// account at balance 50 plus ten +5 UPDATEs — so each committed round
/// raises the total balance by exactly 100. A SIGKILL lands somewhere in
/// an open transaction (or inside COMMIT itself).
#[test]
fn crash_child_txn() {
    let Ok(dir) = std::env::var("SINEW_TXN_CRASH_DIR") else { return };
    let db = child_db(&dir);
    db.execute("CREATE TABLE acct (id int, bal int)").unwrap();
    let vals: Vec<String> = (0..TXN_ACCTS).map(|i| format!("({i}, 100)")).collect();
    db.execute(&format!("INSERT INTO acct VALUES {}", vals.join(", "))).unwrap();
    let mut s = db.session();
    for r in 0i64.. {
        s.execute("BEGIN").unwrap();
        s.execute(&format!("INSERT INTO acct VALUES ({}, 50)", 1_000 + r)).unwrap();
        for j in 0..10 {
            let id = (r * 7 + j * 13) % TXN_ACCTS;
            s.execute(&format!("UPDATE acct SET bal = bal + 5 WHERE id = {id}"))
                .unwrap();
        }
        s.execute("COMMIT").unwrap();
    }
}

/// SIGKILL mid-transaction: recovery must land on a committed-transaction
/// boundary, dropping every uncommitted version — a transaction is one WAL
/// commit record, so a partially-applied round can never come back. The
/// balance invariant (total = 10 000 + 100 × committed rounds) breaks if
/// even one uncommitted INSERT or UPDATE survives recovery.
#[test]
fn kill9_mid_transaction_drops_uncommitted_versions() {
    let iters: u64 = std::env::var("SINEW_CRASH_FUZZ_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(5);
    for i in 0..iters {
        let dir = test_dir(&format!("txnkill-{i}"));
        let gc = if i % 2 == 0 { "1" } else { "4" };
        let mut child = spawn_child_target(
            "crash_child_txn",
            "SINEW_TXN_CRASH_DIR",
            &dir,
            &[("SINEW_CRASH_GROUP_COMMIT", gc.to_string())],
        );
        std::thread::sleep(Duration::from_millis(30 + (i * 41) % 150));
        child.kill().ok();
        let _ = child.wait();
        let db = reopen(&dir);
        let ctx = format!("txnkill iter {i} gc={gc}");
        let Ok(base) = db.execute("SELECT COUNT(*) FROM acct WHERE id < 1000") else {
            continue; // killed before CREATE TABLE committed
        };
        let sinew_rdbms::Datum::Int(n_base) = base.rows[0][0] else {
            panic!("{ctx}: COUNT did not return an int")
        };
        if n_base == 0 {
            continue; // killed before the setup INSERT committed
        }
        assert_eq!(n_base, TXN_ACCTS, "{ctx}: setup INSERT is one commit unit");
        let check = |db: &Database, when: &str| {
            let r = db
                .execute("SELECT COUNT(*) FROM acct WHERE id >= 1000")
                .unwrap();
            let sinew_rdbms::Datum::Int(k) = r.rows[0][0] else { panic!() };
            let r = db.execute("SELECT SUM(bal), COUNT(*) FROM acct").unwrap();
            assert_eq!(
                r.rows[0][0],
                sinew_rdbms::Datum::Int(TXN_ACCTS * 100 + 100 * k),
                "{ctx} ({when}): balance total off for {k} committed rounds — \
                 an uncommitted version survived recovery"
            );
            assert_eq!(r.rows[0][1], sinew_rdbms::Datum::Int(TXN_ACCTS + k));
        };
        check(&db, "after recovery");
        // Reclamation over the recovered heap must not disturb visibility.
        db.vacuum().unwrap();
        check(&db, "after vacuum");
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn recovery_is_idempotent_across_repeated_reopens() {
    // Reopening without new writes must converge: same contents, and the
    // second reopen recovers from the checkpoint the first one laid down.
    let dir = test_dir("idem");
    {
        let db = reopen(&dir);
        for stmt in workload().into_iter().take(8) {
            apply(&db, &stmt);
        }
    }
    let fp1 = {
        let db = reopen(&dir);
        fingerprint(&db)
    };
    let fp2 = {
        let db = reopen(&dir);
        fingerprint(&db)
    };
    assert_eq!(fp1, fp2);
    std::fs::remove_dir_all(&dir).ok();
}

/// A non-empty data file whose log is missing or invalid must never be
/// truncated on open — that is fully-synced committed data whose log was
/// lost, and wiping it would turn a recoverable situation into silent
/// total data loss. The open must fail loudly and leave the file alone.
#[test]
fn lost_log_next_to_nonempty_data_file_refuses_to_open() {
    let dir = test_dir("lostlog");
    let data = dir.join("t.db");
    let wal = dir.join("t.db.wal");
    {
        let db = reopen(&dir);
        for stmt in workload().into_iter().take(3) {
            apply(&db, &stmt);
        }
        // Checkpoint pushes committed pages into the data file and syncs.
        db.checkpoint().unwrap();
    }
    let data_len = std::fs::metadata(&data).unwrap().len();
    assert!(data_len > 0, "checkpoint must have written pages");
    // Log deleted out from under the data file.
    std::fs::remove_file(&wal).unwrap();
    assert!(Database::open(&data, 32, None).is_err());
    // Log present but holding no valid checkpoint frame.
    std::fs::write(&wal, b"garbage, not a wal").unwrap();
    assert!(Database::open(&data, 32, None).is_err());
    // Both refusals left the data file untouched.
    assert_eq!(std::fs::metadata(&data).unwrap().len(), data_len);
    std::fs::remove_dir_all(&dir).ok();
}

/// Statements are not rolled back: one that errors mid-way leaves its
/// already-applied rows in place. Those partial effects must be durable
/// as that statement's *own* WAL commit unit — never silently folded
/// into the next statement's commit record (possibly for another table).
/// Recovery must reproduce exactly the post-error in-memory state.
#[test]
fn errored_statement_commits_partial_effects_as_own_unit() {
    use sinew_rdbms::Datum;
    let dir = test_dir("stmt-err");
    let live_fp = {
        let db = reopen(&dir);
        db.execute("CREATE TABLE t (a int, b text, c float)").unwrap();
        db.execute("CREATE TABLE u (k int, v text)").unwrap();
        // Row 3 fails coercion (text into an int column) after rows 1–2
        // already hit the heap.
        let bad = vec![
            vec![Datum::Int(1), Datum::Text("x".into()), Datum::Float(0.5)],
            vec![Datum::Int(2), Datum::Text("y".into()), Datum::Float(1.5)],
            vec![Datum::Text("no".into()), Datum::Text("z".into()), Datum::Float(2.5)],
        ];
        assert!(db.insert_rows("t", &bad).is_err());
        // A commit on an unrelated table right after: before the fix the
        // errored statement's page images rode along in this record.
        db.execute("INSERT INTO u (k, v) VALUES (7, 'seven')").unwrap();
        fingerprint(&db)
    };
    let db = reopen(&dir);
    assert_eq!(fingerprint(&db), live_fp);
    let r = db.execute("SELECT COUNT(*) FROM t").unwrap();
    assert_eq!(r.scalar(), Some(&sinew_rdbms::Datum::Int(2)));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn checkpoint_then_crash_recovers_post_checkpoint_commits() {
    let dir = test_dir("ckpt");
    let stmts = workload();
    {
        let db = reopen(&dir);
        for stmt in stmts.iter().take(10) {
            apply(&db, stmt);
        }
        db.checkpoint().unwrap();
        for stmt in stmts.iter().skip(10) {
            apply(&db, stmt);
        }
    }
    let db = reopen(&dir);
    assert_eq!(fingerprint(&db), *oracle_prefixes().last().unwrap());
    std::fs::remove_dir_all(&dir).ok();
}

/// Versions chained at a crash are named by no location once recovery has
/// replayed the committed view: their slots are released at reopen, so
/// deleting every row and vacuuming empties every data page and leaves no
/// live byte.
#[test]
fn versions_chained_at_a_crash_are_released_at_reopen() {
    let dir = test_dir("chained");
    {
        let db = reopen(&dir);
        db.execute("CREATE TABLE t (a int, b text)").unwrap();
        let vals: Vec<String> = (0..400).map(|i| format!("({i}, 'row-{i:03}')")).collect();
        db.execute(&format!("INSERT INTO t (a, b) VALUES {}", vals.join(", "))).unwrap();
        // An open snapshot makes the update chain each old version.
        let snapshot = db.begin_txn().unwrap();
        db.execute("UPDATE t SET b = 'updated, and longer than before'").unwrap();
        std::mem::forget(snapshot);
    }
    let db = reopen(&dir);
    db.check_derived("t").unwrap();
    assert_eq!(db.execute("DELETE FROM t").unwrap().affected, 400);
    db.vacuum().unwrap();
    db.check_derived("t").unwrap();
    let (pages, listed) = db.table_data_pages("t").unwrap();
    assert!(pages > 1, "{pages} data pages");
    // The tail, emptied while it is the tail, is listed once placement
    // moves off it (DESIGN.md §34).
    assert_eq!(listed, pages - 1, "{listed} of {pages} data pages listed");
    assert_eq!(db.table_live_bytes("t").unwrap(), 0);
    std::fs::remove_dir_all(&dir).ok();
}
