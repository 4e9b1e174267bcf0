//! Differential oracles for the executor: every query in a seeded
//! workload must return *byte-identical* rows at every block size and
//! thread count — including pathological blocks of 1 and 3 rows, blocks
//! larger than any intermediate, and the morsel-parallel scan path — to
//! the serial run (`exec_threads = 1`, `block_rows = 1024`), and the
//! serial run's rows must agree with the plan-free reference evaluator
//! (`sinew_reference`, DESIGN.md §31).

use sinew_rdbms::{Database, Datum, DbResult, ExecLimits, PlannerConfig};

/// splitmix64 — deterministic data without depending on a rand crate.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

const T_ROWS: u64 = 2_000;
const S_ROWS: u64 = 300;

fn build_db() -> Database {
    build_db_sized(T_ROWS)
}

/// Like [`build_db`] but with a chosen `t` row count. The kernel crossing
/// uses 6 000 rows so `t` spans a *sealed* columnar segment (4 096 slots)
/// plus an unsealed tail — sealed segments are where the packed/dict/rle
/// encodings and therefore the batched kernels live.
fn build_db_sized(t_rows: u64) -> Database {
    let db = Database::in_memory();
    db.execute("CREATE TABLE t (a int, b int, c text, d float)").unwrap();
    db.execute("CREATE TABLE s (k int, v text)").unwrap();
    let mut stmt = String::new();
    for i in 0..t_rows {
        let h = mix(i);
        if stmt.is_empty() {
            stmt.push_str("INSERT INTO t VALUES ");
        } else {
            stmt.push(',');
        }
        let a = (h % 1000) as i64;
        let b = if h.is_multiple_of(13) { "NULL".to_string() } else { ((h >> 8) % 50).to_string() };
        let c = format!("'w{}'", h % 23);
        let d = (h % 9973) as f64 / 7.0;
        stmt.push_str(&format!("({a}, {b}, {c}, {d:.6})"));
        if i % 500 == 499 {
            db.execute(&stmt).unwrap();
            stmt.clear();
        }
    }
    if !stmt.is_empty() {
        db.execute(&stmt).unwrap();
    }
    let mut stmt = String::new();
    for i in 0..S_ROWS {
        let h = mix(i ^ 0xdead_beef);
        if stmt.is_empty() {
            stmt.push_str("INSERT INTO s VALUES ");
        } else {
            stmt.push(',');
        }
        let k = (h % 60) as i64;
        let v = if h.is_multiple_of(11) { "NULL".to_string() } else { format!("'v{}'", h % 7) };
        stmt.push_str(&format!("({k}, {v})"));
        if i % 100 == 99 {
            db.execute(&stmt).unwrap();
            stmt.clear();
        }
    }
    db.execute("CREATE INDEX idx_t_a ON t (a)").unwrap();
    db.execute("CREATE INDEX idx_s_k ON s (k)").unwrap();
    db.execute("ANALYZE t").unwrap();
    db.execute("ANALYZE s").unwrap();
    db
}

/// Filters, extraction-free projections, sorts, aggregates, joins, limits
/// — every operator, with order pinned where the engine itself does not
/// pin it.
const QUERIES: &[&str] = &[
    "SELECT * FROM t",
    "SELECT a, c FROM t WHERE a > 900",
    "SELECT a, b FROM t WHERE a = 77",
    "SELECT a FROM t WHERE a BETWEEN 100 AND 120",
    "SELECT a, d FROM t WHERE a >= 10 AND a <= 25 AND b > 30",
    "SELECT c FROM t WHERE c LIKE 'w1%'",
    "SELECT a FROM t WHERE b IS NULL",
    "SELECT COALESCE(b, -1), a FROM t WHERE a < 40",
    "SELECT a + b, d * 2.0 FROM t WHERE a % 17 = 3",
    "SELECT a, b, c FROM t ORDER BY c, a DESC, d",
    "SELECT DISTINCT c FROM t ORDER BY c",
    "SELECT DISTINCT b FROM t WHERE a > 500 ORDER BY b",
    "SELECT c, COUNT(*), SUM(a), AVG(d) FROM t GROUP BY c ORDER BY c",
    "SELECT b, MIN(a), MAX(a) FROM t WHERE a > 200 GROUP BY b ORDER BY b",
    "SELECT COUNT(*), SUM(b), MIN(d), MAX(c) FROM t",
    "SELECT COUNT(*) FROM t WHERE a > 5000",
    "SELECT SUM(a) FROM t WHERE a > 5000",
    "SELECT COUNT(DISTINCT c) FROM t",
    "SELECT t.a, s.v FROM t, s WHERE t.b = s.k AND t.a < 50",
    "SELECT COUNT(*) FROM t JOIN s ON t.b = s.k",
    "SELECT COUNT(*) FROM t LEFT JOIN s ON t.b = s.k AND s.v = 'v3'",
    "SELECT COUNT(*) FROM t, s WHERE t.b < s.k AND t.a > 950",
    "SELECT a, c FROM t LIMIT 10",
    "SELECT a, c FROM t WHERE a > 990 LIMIT 5",
    "SELECT a FROM t WHERE a = 77 LIMIT 3",
    "SELECT a, b FROM t ORDER BY a DESC, c LIMIT 17",
    "SELECT c, COUNT(*) FROM t GROUP BY c ORDER BY c LIMIT 4",
    "SELECT a FROM t LIMIT 0",
    "SELECT 1 + 2, 'const'",
];

/// DML applied between two passes of the workload, so equivalence also
/// covers post-delete heaps with holes and relocated updates.
const MUTATIONS: &[&str] = &[
    "DELETE FROM t WHERE a % 7 = 0",
    "UPDATE t SET c = 'rewritten-to-a-longer-value' WHERE a % 11 = 1",
    "UPDATE t SET b = b + 1 WHERE a < 100 AND b IS NOT NULL",
    "DELETE FROM s WHERE k > 50",
];

/// Every index and columnar store must still mirror the heap.
fn check_derived(db: &Database) {
    for table in db.table_names() {
        db.check_derived(&table).unwrap();
    }
}

fn mutate(db: &Database) {
    for m in MUTATIONS {
        db.execute(m).unwrap();
    }
    check_derived(db);
}

/// The serial configuration every other one is compared with.
fn serial() -> ExecLimits {
    ExecLimits { exec_threads: 1, block_rows: 1024, ..ExecLimits::default() }
}

/// Run `sql` on `db`; with `reference`, its rows must agree with the
/// plan-free reference's answer over the same tables.
fn run_query(db: &Database, sql: &str, reference: bool) -> DbResult<Vec<Vec<Datum>>> {
    let got = db.execute(sql).map(|r| r.rows);
    if reference {
        if let Err(e) = sinew_reference::agree(&got, &sinew_reference::query(db, sql)) {
            panic!("{sql} disagrees with the reference: {e}");
        }
    }
    got
}

/// The workload before and after DML; with `reference`, every answer is
/// checked against the reference.
fn run_workload(limits: ExecLimits, reference: bool) -> Vec<Vec<Vec<Datum>>> {
    let db = build_db();
    db.set_exec_limits(limits);
    let mut out = Vec::new();
    for q in QUERIES {
        out.push(run_query(&db, q, reference).unwrap_or_else(|e| panic!("{q}: {e}")));
    }
    mutate(&db);
    for q in QUERIES {
        out.push(run_query(&db, q, reference).unwrap_or_else(|e| panic!("{q} (post-DML): {e}")));
    }
    out
}

#[test]
fn every_config_matches_the_serial_run_and_the_reference() {
    let oracle = run_workload(serial(), true);
    for threads in [1usize, 4] {
        for block_rows in [1usize, 3, 1024, 65_536] {
            let limits = ExecLimits { exec_threads: threads, block_rows, ..ExecLimits::default() };
            if (threads, block_rows) == (1, 1024) {
                continue;
            }
            let got = run_workload(limits, false);
            assert_eq!(got.len(), oracle.len());
            for (i, (g, o)) in got.iter().zip(&oracle).enumerate() {
                let q = QUERIES[i % QUERIES.len()];
                let phase = if i < QUERIES.len() { "pre" } else { "post" };
                assert_eq!(
                    g, o,
                    "query {q:?} ({phase}-DML) diverged under block_rows={block_rows} \
                     threads={threads}"
                );
            }
        }
    }
}

/// The three ways DML reaches the heap are differential oracles for each
/// other: autocommit statements with no snapshot alive (published in place),
/// autocommit statements under a reader's open snapshot (old versions
/// retained, then vacuumed), and one explicit transaction. The full 29-query
/// workload must be byte-identical pre- and post-DML on all three.
#[test]
fn autocommit_retained_and_transactional_dml_match_byte_identically() {
    #[derive(Clone, Copy, Debug)]
    enum Dml {
        Autocommit,
        AutocommitUnderSnapshot,
        Transaction,
    }
    let run = |dml: Dml| -> Vec<Vec<Vec<Datum>>> {
        let db = build_db();
        let mut out = Vec::new();
        for q in QUERIES {
            out.push(db.execute(q).unwrap_or_else(|e| panic!("{q}: {e}")).rows);
        }
        match dml {
            Dml::Autocommit => mutate(&db),
            Dml::AutocommitUnderSnapshot => {
                let mut reader = db.session();
                reader.execute("BEGIN").unwrap();
                let versions = db.exec_stats().versions_created;
                mutate(&db);
                assert!(db.exec_stats().versions_created > versions, "nothing was retained");
                reader.execute("COMMIT").unwrap();
                db.vacuum().unwrap();
                check_derived(&db);
            }
            Dml::Transaction => {
                let mut s = db.session();
                s.execute("BEGIN").unwrap();
                for m in MUTATIONS {
                    s.execute(m).unwrap();
                }
                s.execute("COMMIT").unwrap();
                check_derived(&db);
            }
        }
        for q in QUERIES {
            out.push(db.execute(q).unwrap_or_else(|e| panic!("{q} (post-DML): {e}")).rows);
        }
        out
    };
    let oracle = run(Dml::Autocommit);
    for dml in [Dml::AutocommitUnderSnapshot, Dml::Transaction] {
        let got = run(dml);
        assert_eq!(got.len(), oracle.len());
        for (i, (g, o)) in got.iter().zip(&oracle).enumerate() {
            let q = QUERIES[i % QUERIES.len()];
            let phase = if i < QUERIES.len() { "pre" } else { "post" };
            assert_eq!(g, o, "query {q:?} ({phase}-DML) diverged under {dml:?}");
        }
    }
}

/// Workload for the columnar differential: same queries and DML as
/// `run_workload`, but every column of both tables gets a segment store up
/// front, so DML exercises incremental store maintenance, and a
/// drop/rebuild crossing on the DML-churned columns covers stores rebuilt
/// from a heap with holes (the rdbms-level analogue of the
/// demote-then-repromote crossing in the core storage loop). Three phases
/// of query results: fresh stores, post-DML stores, rebuilt stores.
///
/// With `stores` false this is the oracle: the twin database that runs the
/// same statements and never builds a store, so the planner has only the
/// heap paths to choose from. With `reference`, every answer is checked
/// against the reference.
fn run_columnar_workload(
    t_rows: u64,
    stores: bool,
    limits: ExecLimits,
    reference: bool,
) -> Vec<Vec<Vec<Datum>>> {
    let db = build_db_sized(t_rows);
    if stores {
        for col in ["a", "b", "c", "d"] {
            db.build_columnar("t", col).unwrap();
        }
        for col in ["k", "v"] {
            db.build_columnar("s", col).unwrap();
        }
    }
    db.set_exec_limits(limits);
    let mut out = Vec::new();
    for q in QUERIES {
        out.push(run_query(&db, q, reference).unwrap_or_else(|e| panic!("{q}: {e}")));
    }
    mutate(&db);
    for q in QUERIES {
        out.push(run_query(&db, q, reference).unwrap_or_else(|e| panic!("{q} (post-DML): {e}")));
    }
    if stores {
        for col in ["b", "c"] {
            assert!(db.drop_columnar("t", col).unwrap());
            db.build_columnar("t", col).unwrap();
        }
    }
    assert_eq!(db.exec_stats().columnar_scans > 0, stores, "wrong side of the differential");
    check_derived(&db);
    for q in QUERIES {
        out.push(run_query(&db, q, reference).unwrap_or_else(|e| panic!("{q} (rebuilt): {e}")));
    }
    out
}

/// The columnar access paths are pure read accelerators: with every column
/// of the workload stored columnar, every query must return byte-identical
/// rows to the heap paths of the store-less twin's serial run (whose rows
/// agree with the reference), at 1 and 4 threads and blocks of 3 and 1024
/// rows, pre- and post-DML, and across a store drop/rebuild crossing.
#[test]
fn columnar_paths_match_heap_paths_byte_identically() {
    let oracle = run_columnar_workload(T_ROWS, false, serial(), true);
    for threads in [1usize, 4] {
        for block_rows in [3usize, 1024] {
            let limits = ExecLimits { exec_threads: threads, block_rows, ..ExecLimits::default() };
            let got = run_columnar_workload(T_ROWS, true, limits, false);
            assert_matches_heap_twin(&got, &oracle, limits);
        }
    }
}

fn assert_matches_heap_twin(
    got: &[Vec<Vec<Datum>>],
    oracle: &[Vec<Vec<Datum>>],
    limits: ExecLimits,
) {
    assert_eq!(got.len(), oracle.len());
    for (i, (g, o)) in got.iter().zip(oracle).enumerate() {
        let q = QUERIES[i % QUERIES.len()];
        let phase = ["pre", "post", "rebuilt"][i / QUERIES.len()];
        assert_eq!(
            g, o,
            "query {q:?} ({phase}-DML) diverged from the heap twin under block_rows={} \
             threads={}",
            limits.block_rows, limits.exec_threads
        );
    }
}

/// Guard against the differential passing vacuously: with stores present
/// the planner must actually route eligible queries through the columnar
/// scan path, and zone maps must prune segments for out-of-range
/// predicates.
#[test]
fn columnar_paths_actually_engage() {
    let db = build_db();
    for col in ["a", "b", "c", "d"] {
        db.build_columnar("t", col).unwrap();
    }

    let before = db.exec_stats();
    db.execute("SELECT a, c FROM t WHERE a > 900").unwrap();
    // b is unindexed and never exceeds 49, so this must go columnar and
    // every segment's zone map must rule itself out
    let r = db.execute("SELECT b, d FROM t WHERE b > 100").unwrap();
    assert!(r.rows.is_empty());
    let r = db.execute("SELECT a FROM t WHERE a = 77").unwrap();
    assert!(!r.rows.is_empty());
    let after = db.exec_stats();
    assert!(after.columnar_scans > before.columnar_scans, "columnar scan never engaged");
    assert!(
        after.segments_pruned > before.segments_pruned,
        "zone maps pruned nothing for b > 100 over values < 50"
    );
    assert_eq!(
        after.heap_fetches, before.heap_fetches,
        "columnar and index queries must not scan heap rows"
    );
}

/// The batched word-parallel kernels run on sealed segments, so this is the
/// columnar differential over a table large enough to hold one (holes in the
/// liveness bitmap after the DML exercise the masked kernel paths): the
/// whole workload must come back byte-identical to the heap twin's serial
/// run, across thread counts and block sizes. (The twin's rows at 2 000 rows
/// are checked against the reference above.) A vacuity guard then checks the batched counters
/// move and the dictionary-code rewrite fires on a text range. (The scalar
/// per-slot loops the kernels replaced are compared slot by slot in the
/// `columnar.rs` unit differentials.)
#[test]
fn batched_kernels_match_heap_twin_byte_identically() {
    const SEALED: u64 = 6_000;
    let oracle = run_columnar_workload(SEALED, false, serial(), false);
    for (threads, block_rows) in [(1usize, 3usize), (1, 1024), (4, 1024)] {
        let limits = ExecLimits { exec_threads: threads, block_rows, ..ExecLimits::default() };
        assert_matches_heap_twin(&run_columnar_workload(SEALED, true, limits, false), &oracle, limits);
    }

    // Vacuity guard: `b` and `c` are unindexed, so their range predicates
    // must take the columnar scan; `c` is low-cardinality text, so its
    // sealed segment is dictionary-encoded and the predicate rewrites to a
    // code range.
    let db = build_db_sized(SEALED);
    for col in ["a", "b", "c", "d"] {
        db.build_columnar("t", col).unwrap();
    }
    let before = db.exec_stats();
    db.execute("SELECT b FROM t WHERE b > 10 AND b < 40").unwrap();
    db.execute("SELECT c FROM t WHERE c >= 'w1' AND c <= 'w5'").unwrap();
    let after = db.exec_stats();
    assert!(
        after.values_decoded_batched > before.values_decoded_batched,
        "values_decoded_batched stayed at {}",
        after.values_decoded_batched
    );
    assert!(
        after.dict_code_rewrites > before.dict_code_rewrites,
        "text range over a dict segment never rewrote to a code range"
    );
}

/// LIMIT over a serial scan must stop pulling: the scan visits O(limit)
/// rows, not the whole table, and the early stop is counted.
#[test]
fn limit_early_stop_reaches_the_scan() {
    let db = build_db();
    db.set_exec_limits(ExecLimits { block_rows: 64, exec_threads: 1, ..ExecLimits::default() });
    let before = db.exec_stats();
    let r = db.execute("SELECT a FROM t LIMIT 10").unwrap();
    assert_eq!(r.rows.len(), 10);
    let after = db.exec_stats();
    assert_eq!(after.early_stops - before.early_stops, 1);
    assert!(after.blocks_emitted > before.blocks_emitted);
    // Peak residency is bounded by the block size, not the table.
    assert!(
        after.peak_resident_rows <= 2 * 64,
        "peak resident {} rows for a LIMIT 10 over {} rows",
        after.peak_resident_rows,
        T_ROWS
    );
}

/// A capped index probe (exact bounds + LIMIT) returns the same rows as
/// the uncapped plan — the same statement without its LIMIT, cut after
/// its first rows: the cap keeps the smallest rowids, which are exactly
/// the rows the executor would have emitted first. The capped rows also
/// agree with the reference.
#[test]
fn limit_pushdown_into_index_probe_is_exact() {
    let db = build_db();
    db.set_exec_limits(ExecLimits { block_rows: 2, exec_threads: 1, ..ExecLimits::default() });
    let mut index_queries = 0u64;
    for (sql, n) in [
        ("SELECT a, b, c, d FROM t WHERE a = 77", 1),
        ("SELECT a, c FROM t WHERE a = 77", 2),
        ("SELECT a, c FROM t WHERE a BETWEEN 40 AND 45", 3),
        ("SELECT a, c FROM t WHERE a > 990 AND a < 995", 4),
    ] {
        let base = db.exec_stats().index_scans;
        let mut want = db.execute(sql).unwrap().rows;
        want.truncate(n);
        let uncapped_used_index = db.exec_stats().index_scans - base;
        let capped = format!("{sql} LIMIT {n}");
        let before = db.exec_stats().index_scans;
        let got = run_query(&db, &capped, true).unwrap();
        assert_eq!(got, want, "{capped}");
        // The planner costs access paths before LIMIT, so both agree.
        assert_eq!(
            db.exec_stats().index_scans - before,
            uncapped_used_index,
            "{capped}: the LIMIT changed the access path"
        );
        index_queries += uncapped_used_index;
    }
    assert!(
        index_queries >= 2,
        "expected the planner to pick the index for most capped probes, got {index_queries}"
    );
}

// ---------------------------------------------------------------------------
// Morsel-parallel pipeline breakers (hash join probed inside the probe
// scan's morsels, hash aggregation folded inside them, parallel sort) must
// be byte-identical to the serial operators at every thread count and
// block size.
// ---------------------------------------------------------------------------

const U_ROWS: u64 = 1_500;
/// Rows of `p`, the heap-only probe table: 16 morsels at two threads.
const P_ROWS: u64 = 4_096;

/// Three-table join workload db: the `t`/`s` pair from [`build_db`] plus a
/// `u` fact table keyed into `t.a`, with every join/group column promoted to
/// a columnar segment store (the rdbms-level notion of a promoted column) so
/// the parallel breakers sit downstream of columnar scans too, and `p`, a
/// heap table whose scan a hash join probes inside its morsels: `p.k` is
/// NULL or misses `s.k` in some rows, and `p.m` matches about five `s` rows.
fn build_join_db() -> Database {
    let db = build_db();
    db.execute("CREATE TABLE u (g int, w float, tag text)").unwrap();
    let mut stmt = String::new();
    for i in 0..U_ROWS {
        let h = mix(i ^ 0x5eed_cafe);
        if stmt.is_empty() {
            stmt.push_str("INSERT INTO u VALUES ");
        } else {
            stmt.push(',');
        }
        let g = (h % 1000) as i64;
        let w = (h % 4099) as f64 / 3.0;
        stmt.push_str(&format!("({g}, {w:.6}, 'g{}')", h % 5));
        if i % 500 == 499 {
            db.execute(&stmt).unwrap();
            stmt.clear();
        }
    }
    if !stmt.is_empty() {
        db.execute(&stmt).unwrap();
    }
    db.execute("CREATE INDEX idx_u_g ON u (g)").unwrap();
    db.execute("ANALYZE u").unwrap();
    for col in ["a", "b", "c", "d"] {
        db.build_columnar("t", col).unwrap();
    }
    for col in ["k", "v"] {
        db.build_columnar("s", col).unwrap();
    }
    for col in ["g", "w", "tag"] {
        db.build_columnar("u", col).unwrap();
    }
    db.execute("CREATE TABLE p (id int, k int, m int, x text)").unwrap();
    let p: Vec<Vec<Datum>> = (0..P_ROWS)
        .map(|i| {
            let h = mix(i ^ 0x9b0b);
            let k = if h.is_multiple_of(9) { Datum::Null } else { Datum::Int(((h >> 4) % 70) as i64) };
            let m = Datum::Int(((h >> 12) % 60) as i64);
            vec![Datum::Int(i as i64), k, m, Datum::Text(format!("v{}", h % 7))]
        })
        .collect();
    db.insert_rows("p", &p).unwrap();
    db.execute("ANALYZE p").unwrap();
    db
}

/// Inner joins, left joins with residual ON conjuncts, GROUP BY + HAVING
/// over join results, three-way joins, join-fed sorts, DISTINCT aggregates
/// (which must *not* engage the parallel pre-aggregation), joins whose
/// inputs are promoted (columnar) columns, and probes of `p`'s scan inside
/// its morsels: a many-to-many key, a LIMIT that stops the claims, and a
/// left-outer probe with a residual and NULL keys. Join output order is
/// morsel order, which the morsel probe stitches back exactly, so only the
/// aggregate/sort queries pin order with ORDER BY.
const JOIN_AGG_QUERIES: &[&str] = &[
    "SELECT t.a, t.c, s.v FROM t JOIN s ON t.b = s.k WHERE t.a < 200",
    "SELECT t.a, s.v, u.w FROM t JOIN s ON t.b = s.k JOIN u ON u.g = t.a WHERE t.a < 120",
    "SELECT t.a, s.v FROM t LEFT JOIN s ON t.b = s.k AND s.v = 'v3' WHERE t.a % 5 = 0",
    "SELECT s.k, COUNT(*), SUM(t.a) FROM t JOIN s ON t.b = s.k \
     GROUP BY s.k HAVING COUNT(*) > 50 ORDER BY s.k",
    "SELECT t.c, COUNT(*), AVG(u.w) FROM t JOIN u ON u.g = t.a \
     GROUP BY t.c HAVING AVG(u.w) > 100.0 ORDER BY t.c",
    "SELECT u.tag, MIN(t.d), MAX(t.d) FROM u LEFT JOIN t ON t.a = u.g \
     GROUP BY u.tag ORDER BY u.tag",
    "SELECT t.b, COUNT(*) FROM t LEFT JOIN s ON t.b = s.k \
     GROUP BY t.b HAVING COUNT(*) >= 2 ORDER BY t.b",
    "SELECT t.a, t.d FROM t JOIN u ON u.g = t.a ORDER BY t.d DESC, t.a LIMIT 40",
    "SELECT c, COUNT(DISTINCT b) FROM t GROUP BY c ORDER BY c",
    "SELECT COUNT(*), SUM(u.w), MIN(t.a) FROM t JOIN u ON u.g = t.a WHERE t.c LIKE 'w1%'",
    "SELECT p.id, s.v FROM p JOIN s ON p.m = s.k",
    "SELECT p.id, p.x, s.v FROM p JOIN s ON p.m = s.k LIMIT 2500",
    "SELECT p.id, s.k, s.v FROM p LEFT JOIN s ON p.k = s.k AND s.v <> p.x",
];

fn run_join_workload(limits: ExecLimits, reference: bool) -> Vec<Vec<Vec<Datum>>> {
    let db = build_join_db();
    db.set_exec_limits(limits);
    let mut out = Vec::new();
    for q in JOIN_AGG_QUERIES {
        out.push(run_query(&db, q, reference).unwrap_or_else(|e| panic!("{q}: {e}")));
    }
    mutate(&db);
    db.execute("DELETE FROM u WHERE g % 13 = 3").unwrap();
    check_derived(&db);
    for q in JOIN_AGG_QUERIES {
        out.push(run_query(&db, q, reference).unwrap_or_else(|e| panic!("{q} (post-DML): {e}")));
    }
    out
}

/// The crossing: the serial run (one thread — the serial breakers), whose
/// rows agree with the reference, against threads {1,2,4,8} x block_rows
/// {1,1024}. Byte-identical everywhere, pre- and post-DML, over promoted
/// columns.
#[test]
fn parallel_breakers_match_serial_byte_identically() {
    let oracle = run_join_workload(serial(), true);
    assert!(oracle.iter().any(|r| !r.is_empty()), "join workload returned nothing");

    for threads in [1usize, 2, 4, 8] {
        for block_rows in [1usize, 1024] {
            if (threads, block_rows) == (1, 1024) {
                continue;
            }
            let limits = ExecLimits { exec_threads: threads, block_rows, ..ExecLimits::default() };
            let got = run_join_workload(limits, false);
            assert_eq!(got.len(), oracle.len());
            for (i, (g, o)) in got.iter().zip(&oracle).enumerate() {
                let q = JOIN_AGG_QUERIES[i % JOIN_AGG_QUERIES.len()];
                let phase = if i < JOIN_AGG_QUERIES.len() { "pre" } else { "post" };
                assert_eq!(
                    g, o,
                    "query {q:?} ({phase}-DML) diverged under block_rows={block_rows} \
                     threads={threads}"
                );
            }
        }
    }
}

/// Guard against the crossing passing vacuously: with four worker threads
/// the morsel probe, the parallel pre-aggregation merge, and the
/// parallel sort must all actually run (the workload tables clear the
/// MIN_PARALLEL_ROWS floor); with one thread they must not.
#[test]
fn parallel_breakers_actually_engage() {
    let db = build_db();
    let limits = |exec_threads| ExecLimits { exec_threads, block_rows: 1024, ..ExecLimits::default() };
    db.set_exec_limits(limits(4));

    let before = db.exec_stats();
    db.execute("SELECT COUNT(*) FROM t JOIN s ON t.b = s.k").unwrap();
    // int-only aggregate: exact under reordering, so the pre-aggregation
    // waves never fall back to the serial path
    db.execute("SELECT c, COUNT(*), SUM(a) FROM t GROUP BY c ORDER BY c").unwrap();
    db.execute("SELECT a, b, c FROM t ORDER BY c, a DESC, d").unwrap();
    let r = db.execute("EXPLAIN ANALYZE SELECT COUNT(*) FROM t JOIN s ON t.b = s.k").unwrap();
    let text =
        r.rows.iter().map(|row| row[0].display_text()).collect::<Vec<_>>().join("\n");
    assert!(text.contains("(actual rows="), "EXPLAIN ANALYZE carried no actuals: {text}");
    let after = db.exec_stats();
    assert!(after.join_build_rows > before.join_build_rows, "join build never counted");
    assert!(after.join_probe_morsels > before.join_probe_morsels, "morsel probe never engaged");
    assert!(
        after.agg_partition_merges > before.agg_partition_merges,
        "parallel pre-aggregation never engaged"
    );
    assert!(after.parallel_sorts > before.parallel_sorts, "parallel sort never engaged");
    assert!(after.explain_runs > before.explain_runs, "explain run not counted");

    // One thread: the same queries must stay on the serial operators.
    db.set_exec_limits(limits(1));
    let before = db.exec_stats();
    db.execute("SELECT COUNT(*) FROM t JOIN s ON t.b = s.k").unwrap();
    db.execute("SELECT c, COUNT(*), SUM(a) FROM t GROUP BY c ORDER BY c").unwrap();
    db.execute("SELECT a, b, c FROM t ORDER BY c, a DESC, d").unwrap();
    let after = db.exec_stats();
    assert!(after.join_build_rows > before.join_build_rows, "serial build still counts rows");
    assert_eq!(after.join_probe_morsels, before.join_probe_morsels, "one thread probed morsels");
    assert_eq!(
        after.agg_partition_merges, before.agg_partition_merges,
        "one thread still pre-aggregated in parallel"
    );
    assert_eq!(after.parallel_sorts, before.parallel_sorts, "one thread still sorted in parallel");
}

/// Guard against the crossing's `p` probes passing vacuously: with a crew
/// each probes inside `p`'s morsels; with one thread none does.
#[test]
fn probe_queries_run_inside_the_morsels() {
    let db = build_join_db();
    for (threads, fused) in [(1, false), (2, true)] {
        db.set_exec_limits(ExecLimits { exec_threads: threads, ..ExecLimits::default() });
        for q in JOIN_AGG_QUERIES.iter().filter(|q| q.contains("FROM p ")) {
            let before = db.exec_stats().join_probe_morsels;
            db.execute(q).unwrap();
            let probed = db.exec_stats().join_probe_morsels - before;
            assert_eq!(probed > 0, fused, "{q} at {threads} threads: {probed} morsels probed");
        }
    }
}

/// Equi-join and group keys must use exact Int/Float comparison: 2^53 + 1
/// is not representable as f64, so it must not match 2^53.0 even though
/// casting it to f64 yields exactly that value. Runs over both join
/// algorithms (hash, and merge via a starved work_mem) at one and four
/// threads, and agrees with the reference.
#[test]
fn int_float_join_and_group_keys_are_exact() {
    let db = Database::in_memory();
    db.execute("CREATE TABLE bi (x int)").unwrap();
    db.execute("CREATE TABLE bf (y float)").unwrap();
    // 2^53 = 9007199254740992: the edge of f64's exact-integer range.
    db.execute(
        "INSERT INTO bi VALUES (9007199254740991), (9007199254740992), (9007199254740993), (1), (2)",
    )
    .unwrap();
    db.execute("INSERT INTO bf VALUES (9007199254740991.0), (9007199254740992.0), (1.0), (3.0)")
        .unwrap();
    db.execute("ANALYZE bi").unwrap();
    db.execute("ANALYZE bf").unwrap();

    let expect = vec![
        vec![Datum::Int(1)],
        vec![Datum::Int(9_007_199_254_740_991)],
        vec![Datum::Int(9_007_199_254_740_992)],
    ];
    for work_mem in [None, Some(64usize)] {
        if let Some(wm) = work_mem {
            // starve the hash build so the planner switches to merge join
            db.set_planner_config(PlannerConfig { work_mem: wm, ..Default::default() });
        }
        for threads in [1usize, 4] {
            db.set_exec_limits(ExecLimits {
                exec_threads: threads,
                block_rows: 2,
                ..ExecLimits::default()
            });
            let sql = "SELECT bi.x FROM bi JOIN bf ON bi.x = bf.y ORDER BY bi.x";
            let rows = run_query(&db, sql, true).unwrap();
            assert_eq!(
                rows, expect,
                "inexact join keys under work_mem={work_mem:?} threads={threads}"
            );
        }
    }

    // Group keys: COALESCE over a nullable int and a float column yields
    // mixed Int/Float keys in one grouping column. Int(2^53) groups with
    // Float(2^53.0) (numerically equal); Int(2^53 + 1) must stay its own
    // group.
    db.execute("CREATE TABLE m (x int, y float)").unwrap();
    db.execute(
        "INSERT INTO m VALUES (9007199254740993, 0.0), (NULL, 9007199254740992.0), \
         (9007199254740992, 0.0), (NULL, 1.0), (1, 0.0)",
    )
    .unwrap();
    for threads in [1usize, 4] {
        db.set_exec_limits(ExecLimits { exec_threads: threads, block_rows: 2, ..ExecLimits::default() });
        let sql = "SELECT COUNT(*) FROM m GROUP BY COALESCE(x, y) ORDER BY COALESCE(x, y)";
        assert_eq!(
            run_query(&db, sql, true).unwrap(),
            vec![vec![Datum::Int(2)], vec![Datum::Int(2)], vec![Datum::Int(1)]],
            "inexact group keys under threads={threads}"
        );
    }
}

/// An integer `SUM` whose partial sums overflow i64 only when merged:
/// 4 096 rows of about 9·10^15 in one group, 3.6864·10^19 in all. Every
/// thread count must return the serial fold's float (one thread's, which
/// agrees with the reference's fold), which promotes to float at one row
/// and rounds every later addition; a merge that dropped a partial sum
/// once returned 1.3824·10^19 at two and four threads, and one that
/// promoted at a morsel boundary rounds otherwise.
#[test]
fn integer_sum_overflowing_in_a_merge_matches_the_serial_fold() {
    let db = Database::in_memory();
    db.execute("CREATE TABLE huge (g int, v int)").unwrap();
    for chunk in 0..8u64 {
        let values: Vec<String> = (chunk * 512..(chunk + 1) * 512)
            .map(|i| format!("(1, {})", 9_000_000_000_000_000 + i * 7_919 % 2_000))
            .collect();
        db.execute(&format!("INSERT INTO huge VALUES {}", values.join(", "))).unwrap();
    }
    let queries = [
        "SELECT g, SUM(v), AVG(v), COUNT(*) FROM huge GROUP BY g",
        "SELECT SUM(v), AVG(v) FROM huge",
    ];
    for sql in queries {
        let run = |exec_threads, reference| {
            db.set_exec_limits(ExecLimits { exec_threads, ..ExecLimits::default() });
            run_query(&db, sql, reference).unwrap()
        };
        let oracle = run(1, true);
        let sum = oracle[0].iter().find_map(|d| match d {
            Datum::Float(f) if *f > 3.68e19 => Some(*f),
            _ => None,
        });
        assert!(sum.is_some_and(|f| f < 3.69e19), "{sql}: {oracle:?}");
        for threads in [2, 4] {
            assert_eq!(run(threads, false), oracle, "{sql} at {threads} threads");
        }
    }
}
