//! Prepared statements (DESIGN.md §23): `Sinew::query` parses, rewrites and
//! plans a text once and keeps the result, checked against the plan epoch
//! and the size class of every table it reads after the statement has fixed
//! what it may see. Each test runs one SQL text again and again across a
//! change and compares every result with an uncached oracle — the same text
//! rewritten and planned from scratch.

use sinew_core::{
    rewriter, AnalyzerPolicy, BackgroundConfig, BackgroundMaterializer, Sinew, StepBudget,
};
use sinew_rdbms::{ColType, Datum, PlannerConfig, QueryResult};
use sinew_sql::Statement;
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// `sql` rewritten and planned from scratch.
fn oracle(s: &Sinew, sql: &str) -> QueryResult {
    let stmt = sinew_sql::parse_statement(sql).unwrap();
    let physical = rewriter::rewrite_statement(s, &stmt).unwrap();
    s.db()
        .execute_statement(&physical)
        .unwrap_or_else(|e| panic!("{sql}: {e}"))
}

/// Rows as text, sorted: two plans may emit the same rows in another order.
fn rows(r: &QueryResult) -> Vec<String> {
    let mut out: Vec<String> = r.rows.iter().map(|row| format!("{row:?}")).collect();
    out.sort();
    out
}

/// Index, columnar and index-only scans one call made.
fn paths_of(s: &Sinew, f: impl FnOnce() -> QueryResult) -> (QueryResult, [u64; 3]) {
    let before = s.db().exec_stats();
    let r = f();
    let after = s.db().exec_stats();
    let scans = [
        after.index_scans - before.index_scans,
        after.columnar_scans - before.columnar_scans,
        after.index_only_scans - before.index_only_scans,
    ];
    (r, scans)
}

/// Run `sql` through the statement map and through the oracle: same
/// columns, same rows, same access paths. Returns the kept statement's
/// result.
fn check(s: &Sinew, sql: &str) -> QueryResult {
    let (want, want_paths) = paths_of(s, || oracle(s, sql));
    let (got, got_paths) = paths_of(s, || s.query(sql).unwrap_or_else(|e| panic!("{sql}: {e}")));
    assert_eq!(got.columns, want.columns, "{sql}");
    assert_eq!(rows(&got), rows(&want), "{sql}");
    assert_eq!(
        got_paths, want_paths,
        "{sql}: access paths (index, columnar, index-only)"
    );
    let fresh = rewriter::rewrite_statement(s, &sinew_sql::parse_statement(sql).unwrap()).unwrap();
    assert_eq!(s.rewrite(sql).unwrap(), fresh.to_string(), "{sql}: rewrite");
    got
}

fn count(r: &QueryResult) -> i64 {
    match r.scalar() {
        Some(Datum::Int(n)) => *n,
        other => panic!("not a count: {other:?}"),
    }
}

fn reprepared(s: &Sinew) -> u64 {
    s.metrics().snapshot().statements_reprepared
}

fn collection(docs: impl Iterator<Item = String>) -> Sinew {
    let s = Sinew::in_memory();
    s.create_collection("c").unwrap();
    s.load_jsonl("c", &docs.collect::<Vec<_>>().join("\n"))
        .unwrap();
    s
}

/// (a) A load that interns a new `(key, type)` variant changes no rewrite —
/// `k` already has two types, so it extracts as any-text either way, and
/// `exists_key` is raw SQL — only what the bound extraction plans resolved.
/// The kept statement sees the new rows because its epoch check comes after
/// its snapshot.
#[test]
fn a_new_variant_interned_by_a_load_reaches_the_kept_statement() {
    let s = collection((0..300).map(|i| {
        if i % 2 == 0 {
            format!("{{\"k\": \"v{i}\"}}")
        } else {
            format!("{{\"k\": {i}}}")
        }
    }));
    let any_text = "SELECT COUNT(*) FROM c WHERE k IS NOT NULL";
    let exists = "SELECT COUNT(*) FROM c WHERE exists_key(data, 'fresh')";
    assert!(s.rewrite(any_text).unwrap().contains("extract_key_txt"));
    assert_eq!(count(&check(&s, any_text)), 300);
    assert_eq!(count(&check(&s, exists)), 0);
    let rewritten = (s.rewrite(any_text).unwrap(), s.rewrite(exists).unwrap());

    for (batch, doc) in [
        "{\"k\": true}",
        "{\"k\": 2.5, \"fresh\": 1}",
        "{\"k\": {\"inner\": 1}, \"fresh\": \"x\"}",
        "{\"k\": [1, 2], \"fresh\": false}",
    ]
    .into_iter()
    .enumerate()
    {
        let before = reprepared(&s);
        s.load_jsonl("c", &[doc; 5].join("\n")).unwrap();
        assert_eq!(
            count(&check(&s, any_text)),
            300 + 5 * (batch as i64 + 1),
            "{doc}"
        );
        assert_eq!(count(&check(&s, exists)), 5 * batch as i64, "{doc}");
        assert!(
            reprepared(&s) > before,
            "{doc}: the new variant must re-prepare"
        );
    }
    assert_eq!(
        (s.rewrite(any_text).unwrap(), s.rewrite(exists).unwrap()),
        rewritten
    );
}

/// (b) One text across a column's whole life: virtual, `ADD COLUMN` and
/// dirty (`COALESCE`), materializer steps, clean physical, demoted and
/// dirty again, and finally its `DROP COLUMN`.
#[test]
fn a_kept_statement_follows_a_column_through_promotion_and_demotion() {
    let s =
        collection((0..600).map(|i| format!("{{\"k\": \"v{i}\", \"n\": {i}, \"r\": {}}}", i % 9)));
    let texts = [
        "SELECT COUNT(*) FROM c WHERE k IS NOT NULL",
        "SELECT k, n FROM c WHERE n < 40",
        "SELECT * FROM c WHERE n = 7",
        "SELECT r, COUNT(*) FROM c WHERE k LIKE 'v1%' GROUP BY r",
    ];
    let check_all = |stage: &str| {
        for sql in texts {
            check(&s, sql);
        }
        s.rewrite(texts[0])
            .unwrap_or_else(|e| panic!("{stage}: {e}"))
    };
    assert!(check_all("virtual").contains("extract_key"));

    let promote = AnalyzerPolicy {
        density_threshold: 0.5,
        cardinality_threshold: 100,
        sample_rows: 1000,
    };
    assert!(!s.run_analyzer("c", &promote).unwrap().is_empty());
    assert!(check_all("promoted").contains("coalesce("));
    let mut steps = 0;
    while !s.catalog().dirty_attrs("c").is_empty() {
        s.materialize_step("c", StepBudget { rows: 150 }).unwrap();
        check_all("materializing");
        steps += 1;
    }
    assert!(steps > 2, "the pass took {steps} steps");
    let clean = check_all("clean");
    assert!(
        !clean.contains("extract_key") && !clean.contains("coalesce("),
        "{clean}"
    );
    // A flag flip with no DDL beside it changes the rewrite, both ways.
    let (k, _) = s.catalog().ids_for_name("k")[0];
    s.catalog().set_flags("c", k, true, true).unwrap();
    assert!(check_all("flipped dirty").contains("coalesce("));
    s.materialize_until_clean("c").unwrap();
    assert_eq!(check_all("clean again"), clean);

    let demote = AnalyzerPolicy {
        cardinality_threshold: u64::MAX,
        ..promote
    };
    assert!(!s.run_analyzer("c", &demote).unwrap().is_empty());
    assert!(check_all("demoted").contains("coalesce("));
    while !s.catalog().dirty_attrs("c").is_empty() {
        s.materialize_step("c", StepBudget { rows: 150 }).unwrap();
        check_all("dematerializing");
    }
    assert!(
        s.db().schema("c").unwrap().index_of("k").is_none(),
        "demotion drops the column"
    );
    assert!(check_all("virtual again").contains("extract_key"));
}

/// (c) Index and column-store DDL on the collection, and DDL on a raw
/// table the statement joins: each moves the access path or the row shape,
/// and the kept statement follows.
#[test]
fn a_kept_statement_follows_index_store_and_joined_table_ddl() {
    let s = collection((0..1000).map(|i| format!("{{\"k\": \"v{}\", \"n\": {i}}}", i % 50)));
    let policy = AnalyzerPolicy {
        density_threshold: 0.5,
        cardinality_threshold: 10,
        sample_rows: 2000,
    };
    s.run_analyzer("c", &policy).unwrap();
    s.materialize_until_clean("c").unwrap();
    let db = s.db();
    let point = "SELECT COUNT(*) FROM c WHERE k = 'v7'";
    assert_eq!(count(&check(&s, point)), 20);

    for store in db.columnar_infos("c").unwrap() {
        db.drop_columnar("c", &store.column).unwrap();
        assert_eq!(count(&check(&s, point)), 20);
    }
    let (_, scans) = paths_of(&s, || s.query(point).unwrap());
    assert_eq!(scans[1], 0, "no store left to scan");
    // Over the heap alone, a B-tree on the unique `n` wins a point query
    // once the planner knows `n` is unique.
    let unique = "SELECT COUNT(*) FROM c WHERE n = 7";
    s.query("ANALYZE c").unwrap();
    assert_eq!(count(&check(&s, unique)), 1);
    db.create_index("c", "by_n", "n", true).unwrap();
    assert_eq!(count(&check(&s, unique)), 1);
    let (_, [index, ..]) = paths_of(&s, || s.query(unique).unwrap());
    assert!(index > 0, "the new index is used");
    db.drop_index("c", "by_n").unwrap();
    assert_eq!(count(&check(&s, unique)), 1);

    let join = "SELECT c.n, r.w FROM c, r WHERE c.k = r.k AND c.n < 100";
    db.execute("CREATE TABLE r (k text, w int)").unwrap();
    db.execute("INSERT INTO r VALUES ('v1', 10), ('v2', 20), ('v3', 30)")
        .unwrap();
    assert_eq!(check(&s, join).rows.len(), 6);
    // The same names in another order: a plan bound to the old slots
    // would read `k` where `w` now is.
    db.drop_table("r").unwrap();
    db.execute("CREATE TABLE r (w int, k text)").unwrap();
    db.execute("INSERT INTO r VALUES (40, 'v4'), (50, 'v5')")
        .unwrap();
    let r = check(&s, join);
    assert_eq!(r.rows.len(), 4);
    assert!(
        r.rows
            .iter()
            .all(|row| matches!(row[1], Datum::Int(40 | 50))),
        "{:?}",
        r.rows
    );
    db.add_column("r", "extra", ColType::Int).unwrap();
    assert_eq!(check(&s, join).rows.len(), 4);
}

/// The plan of the kept `EXPLAIN` of `sql` equals a fresh one.
fn check_explain(s: &Sinew, sql: &str) -> String {
    let stmt = sinew_sql::parse_statement(sql).unwrap();
    let inner = Box::new(rewriter::rewrite_statement(s, &stmt).unwrap());
    let fresh = s
        .db()
        .execute_statement(&Statement::Explain {
            analyze: false,
            inner,
        })
        .unwrap();
    let fresh: Vec<String> = fresh.rows.iter().map(|r| r[0].display_text()).collect();
    let kept = s.explain(sql).unwrap();
    assert_eq!(kept, fresh.join("\n"), "{sql}");
    kept
}

/// (d) Statistics and planner configuration are part of what a plan was
/// made from.
#[test]
fn analyze_and_planner_config_re_prepare() {
    let s = collection((0..2000).map(|i| format!("{{\"g\": \"g{}\", \"n\": {i}}}", i % 400)));
    let policy = AnalyzerPolicy {
        density_threshold: 0.5,
        cardinality_threshold: 10,
        sample_rows: 5000,
    };
    s.run_analyzer("c", &policy).unwrap();
    s.materialize_until_clean("c").unwrap();
    let group = "SELECT g, COUNT(*) FROM c WHERE n >= 100 GROUP BY g";
    check(&s, group);
    let default_plan = check_explain(&s, group);

    let before = reprepared(&s);
    s.db().analyze("c").unwrap();
    check(&s, group);
    check_explain(&s, group);
    assert_eq!(reprepared(&s) - before, 2, "one re-prepare per kept text");

    s.db().set_planner_config(PlannerConfig {
        work_mem: 1024,
        ..s.db().planner_config()
    });
    check(&s, group);
    let tiny_memory_plan = check_explain(&s, group);
    assert_ne!(
        tiny_memory_plan, default_plan,
        "work_mem moves the aggregation strategy"
    );

    s.db().clear_stats("c");
    s.db().set_planner_config(PlannerConfig::default());
    check(&s, group);
    check_explain(&s, group);
}

fn size_class(s: &Sinew) -> (u32, u32) {
    let bits = |n: u64| u64::BITS - n.leading_zeros();
    let pages = s.db().table_size_bytes("c").unwrap() / sinew_rdbms::page::PAGE_SIZE as u64;
    (bits(s.db().row_count("c").unwrap()), bits(pages))
}

/// (e) A plan is made for a table's size class; one-document loads that
/// keep the class reuse it, the load that carries the table past a power
/// of two (of rows or of pages) re-plans.
#[test]
fn a_table_growing_past_a_power_of_two_re_plans() {
    let s = collection((0..1000).map(|i| format!("{{\"k\": \"v{i}\"}}")));
    let sql = "SELECT COUNT(*) FROM c WHERE k >= 'v5'";
    check(&s, sql);
    let mut moved = 0;
    for i in 1000..1100 {
        let class = size_class(&s);
        let before = reprepared(&s);
        s.load_jsonl("c", &format!("{{\"k\": \"v{i}\"}}")).unwrap();
        let got = s.query(sql).unwrap();
        assert_eq!(count(&got), count(&oracle(&s, sql)));
        let expect = u64::from(size_class(&s) != class);
        assert_eq!(
            reprepared(&s) - before,
            expect,
            "load {i}: class {class:?} → {:?}",
            size_class(&s)
        );
        moved += expect;
    }
    assert!(moved >= 1, "1024 rows were crossed");
}

/// (f) A `matches()` statement carries a row-id set made at its rewrite:
/// it runs once, is never served from the map, and its sets leave the
/// registry with it.
#[test]
fn a_matches_statement_is_never_kept() {
    let s = collection((0..40).map(|i| {
        format!(
            "{{\"owner\": \"{} lee\", \"k\": {i}}}",
            ["ann", "bo"][i % 2]
        )
    }));
    s.enable_text_index("c").unwrap();
    let sql = "SELECT k FROM c WHERE matches('owner', 'ann')";
    let like = "SELECT k FROM c WHERE owner LIKE 'ann%'";
    for run in 1..=5u64 {
        let m = s.metrics().snapshot();
        assert_eq!(rows(&s.query(sql).unwrap()), rows(&oracle(&s, like)));
        let after = s.metrics().snapshot();
        assert_eq!(
            after.statement_cache_hits, m.statement_cache_hits,
            "run {run}: served from the map"
        );
        assert_eq!(
            after.statements_prepared - m.statements_prepared,
            1,
            "run {run}"
        );
    }
    // Every handle registered so far (one per run) is gone from the
    // registry: a raw probe of it finds no set.
    let next = s.rewrite(sql).unwrap();
    assert!(next.contains("'h6'"), "{next}");
    for h in 1..=6 {
        let probe = format!("SELECT COUNT(*) FROM c WHERE __sinew_rowid_set(_rowid, 'h{h}')");
        let err = s.db().execute(&probe).unwrap_err().to_string();
        assert!(err.contains(&format!("unknown rowid set h{h}")), "{err}");
    }
}

/// (g) A kept text costs one map probe: no parse, rewrite or plan.
#[test]
fn the_nth_run_of_a_text_is_a_hit_and_plans_nothing() {
    let s = collection((0..200).map(|i| format!("{{\"k\": \"v{i}\", \"n\": {i}}}")));
    for sql in [
        "SELECT k FROM c WHERE n < 10",
        "UPDATE c SET k = 'w' WHERE n = 3",
        "DELETE FROM c WHERE n = 199",
        "EXPLAIN SELECT COUNT(*) FROM c",
    ] {
        s.query(sql).unwrap();
        for _ in 0..3 {
            let (m, planned) = (s.metrics().snapshot(), s.db().exec_stats().plan_ns);
            s.query(sql).unwrap();
            let (after, planned_after) = (s.metrics().snapshot(), s.db().exec_stats().plan_ns);
            assert_eq!(
                after.statement_cache_hits - m.statement_cache_hits,
                1,
                "{sql}"
            );
            for (phase, was, is) in [
                ("parse", m.parse_ns.count, after.parse_ns.count),
                ("rewrite", m.rewrite_ns.count, after.rewrite_ns.count),
                ("plan", planned.count, planned_after.count),
            ] {
                assert_eq!(was, is, "{sql}: {phase}");
            }
            assert_eq!(after.statements_prepared, m.statements_prepared, "{sql}");
            assert_eq!(
                after.queries_rewritten - m.queries_rewritten,
                1,
                "{sql}: a hit is still one statement"
            );
        }
    }
    let (m, planned) = (s.metrics().snapshot(), s.db().exec_stats().plan_ns);
    assert_eq!(m.statements_prepared, 4);
    assert_eq!(planned.count, 4);
    assert!(planned.sum > 0 && m.rewrite_ns.sum > 0 && m.parse_ns.sum > 0);
}

/// The plan epoch is read before the statement is derived: a catalog
/// change that lands after the rewrite read the catalog, and before the
/// plan, leaves the stamp stale, so the first run derives it again.
#[test]
fn a_change_between_rewrite_and_plan_leaves_the_stamp_stale() {
    let s = collection((0..100).map(|i| format!("{{\"k\": {i}}}")));
    let sql = "SELECT COUNT(*) FROM c WHERE k IS NOT NULL";
    let rewrite = || rewriter::rewrite_statement(&s, &sinew_sql::parse_statement(sql).unwrap());
    let loaded = Cell::new(false);
    let p = s
        .db()
        .prepare_with(&|| {
            let stmt = rewrite()?;
            if !loaded.replace(true) {
                // `k` turns two-typed once the rewrite has read it as int.
                s.load_jsonl("c", &["{\"k\": \"t\"}"; 5].join("\n"))?;
            }
            Ok(stmt)
        })
        .unwrap();
    assert!(
        p.statement().to_string().contains("extract_key_i"),
        "{}",
        p.statement()
    );
    let got = s.db().run_with(&p, &rewrite).unwrap();
    assert_eq!(count(&got), 105);
    assert_eq!(count(&got), count(&oracle(&s, sql)));
    assert!(p.statement().to_string().contains("extract_key_txt"));
}

/// A statement derived again at run time reads a snapshot taken after the
/// new derivation: a rewrite can read catalog state (a column's clean
/// flag) that rests on commits (the materializer's last moves) an earlier
/// snapshot misses. Here the derive hook commits a load itself.
#[test]
fn a_statement_derived_again_reads_a_snapshot_taken_after_it() {
    let s = collection((0..100).map(|i| format!("{{\"k\": {i}}}")));
    let sql = "SELECT COUNT(*) FROM c WHERE k IS NOT NULL";
    let rewrite = || rewriter::rewrite_statement(&s, &sinew_sql::parse_statement(sql).unwrap());
    let p = s.db().prepare_with(&rewrite).unwrap();
    s.db().plan_epoch().bump();
    let loaded = Cell::new(false);
    let derive = || {
        if !loaded.replace(true) {
            s.load_jsonl("c", &["{\"k\": 7}"; 5].join("\n"))?;
        }
        rewrite()
    };
    let got = s.db().run_with(&p, &derive).unwrap();
    assert!(loaded.get(), "the stale stamp was not derived again");
    assert_eq!(count(&got), 105);
}

/// (h) One kept text run from four threads while loads that intern new
/// variants and a background materializer race it: every count is the
/// count at the statement's snapshot, a whole number of loads.
#[test]
fn a_kept_text_read_by_four_threads_under_loads_and_materializer_steps() {
    const BASE: u64 = 1000;
    const BATCH: u64 = 10;
    const LOADS: u64 = 24;
    let s = Arc::new(collection(
        (0..BASE).map(|i| format!("{{\"k\": \"v{i}\", \"n\": {i}}}")),
    ));
    let policy = AnalyzerPolicy {
        density_threshold: 0.5,
        cardinality_threshold: 100,
        sample_rows: 2000,
    };
    s.run_analyzer("c", &policy).unwrap();
    let background = BackgroundMaterializer::spawn(
        s.clone(),
        "c",
        BackgroundConfig {
            step_rows: 64,
            ..BackgroundConfig::default()
        },
    )
    .unwrap();
    let sql = "SELECT COUNT(*) FROM c WHERE k IS NOT NULL";
    let (started, committed) = (AtomicU64::new(BASE), AtomicU64::new(BASE));
    let done = std::sync::atomic::AtomicBool::new(false);
    let values = ["\"t\"", "7", "2.5", "true", "{\"x\": 1}", "[1]"];
    std::thread::scope(|scope| {
        for reader in 0..4 {
            let (s, started, committed, done) = (&s, &started, &committed, &done);
            scope.spawn(move || {
                let mut runs = 0;
                while !done.load(Ordering::SeqCst) || runs < 10 {
                    let lo = committed.load(Ordering::SeqCst);
                    let n = count(&s.query(sql).unwrap()) as u64;
                    let hi = started.load(Ordering::SeqCst);
                    assert!(
                        lo <= n && n <= hi,
                        "reader {reader}: {n} outside [{lo}, {hi}]"
                    );
                    assert_eq!(
                        (n - BASE) % BATCH,
                        0,
                        "reader {reader}: {n} is not a whole number of loads"
                    );
                    runs += 1;
                }
            });
        }
        let deadline = Instant::now() + Duration::from_secs(60);
        for load in 0..LOADS {
            // Half of each batch carries `k` under one of six types, the
            // first six batches each interning a new variant.
            let docs: Vec<String> = (0..BATCH)
                .map(|j| {
                    let v = if j % 2 == 0 {
                        values[load as usize % values.len()].to_string()
                    } else {
                        format!("\"w{load}\"")
                    };
                    format!("{{\"k\": {v}, \"n\": {}}}", BASE + load * BATCH + j)
                })
                .collect();
            started.fetch_add(BATCH, Ordering::SeqCst);
            s.load_jsonl("c", &docs.join("\n")).unwrap();
            committed.fetch_add(BATCH, Ordering::SeqCst);
            std::thread::sleep(Duration::from_millis(5));
            assert!(Instant::now() < deadline, "loads stalled");
        }
        done.store(true, Ordering::SeqCst);
    });
    background.stop();
    s.materialize_until_clean("c").unwrap();
    let total = (BASE + LOADS * BATCH) as i64;
    assert_eq!(count(&check(&s, sql)), total);
    s.db().check_derived("c").unwrap();
    let m = s.metrics().snapshot();
    assert!(
        m.statement_cache_hits > 0 && m.statements_reprepared > 0,
        "{m:?}"
    );
}
