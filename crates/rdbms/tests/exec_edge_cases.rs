//! Executor edge cases: NULL join semantics, duplicate-key joins, empty
//! inputs, join chains, row caps, and NULL ordering.

use sinew_rdbms::{Database, Datum, DbError, ExecLimits, PlannerConfig};

/// Run `sql` and check its outcome against the plan-free reference.
fn checked(db: &Database, sql: &str) -> Vec<Vec<Datum>> {
    let got = db.execute(sql).map(|r| r.rows);
    if let Err(e) = sinew_reference::agree(&got, &sinew_reference::query(db, sql)) {
        panic!("{sql} disagrees with the reference: {e}");
    }
    got.unwrap()
}

fn db2(l: &[(Option<i64>, &str)], r: &[(Option<i64>, &str)]) -> Database {
    let db = Database::in_memory();
    db.execute("CREATE TABLE l (k int, v text)").unwrap();
    db.execute("CREATE TABLE r (k int, w text)").unwrap();
    for (k, v) in l {
        let kd = k.map(Datum::Int).unwrap_or(Datum::Null);
        db.insert_rows("l", &[vec![kd, Datum::Text(v.to_string())]]).unwrap();
    }
    for (k, w) in r {
        let kd = k.map(Datum::Int).unwrap_or(Datum::Null);
        db.insert_rows("r", &[vec![kd, Datum::Text(w.to_string())]]).unwrap();
    }
    db
}

#[test]
fn null_keys_never_join_hash_and_merge() {
    let db = db2(
        &[(Some(1), "a"), (None, "b"), (Some(2), "c")],
        &[(Some(1), "x"), (None, "y")],
    );
    let sql = "SELECT l.v, r.w FROM l, r WHERE l.k = r.k";
    let hash = db.execute(sql).unwrap();
    assert_eq!(hash.rows, vec![vec![Datum::Text("a".into()), Datum::Text("x".into())]]);
    // force merge join
    let pc = PlannerConfig { work_mem: 1, ..Default::default() };
    db.set_planner_config(pc);
    let plan = db.execute(&format!("EXPLAIN {sql}")).unwrap();
    let text: String =
        plan.rows.iter().map(|row| row[0].display_text()).collect::<Vec<_>>().join("\n");
    assert!(text.contains("Merge Join"), "{text}");
    let merge = db.execute(sql).unwrap();
    assert_eq!(merge.rows, hash.rows);
}

#[test]
fn duplicate_keys_cross_product_within_group() {
    let db = db2(
        &[(Some(7), "l1"), (Some(7), "l2")],
        &[(Some(7), "r1"), (Some(7), "r2"), (Some(7), "r3")],
    );
    let sql = "SELECT COUNT(*) FROM l, r WHERE l.k = r.k";
    assert_eq!(db.execute(sql).unwrap().scalar(), Some(&Datum::Int(6)));
    let pc = PlannerConfig { work_mem: 1, ..Default::default() };
    db.set_planner_config(pc);
    assert_eq!(db.execute(sql).unwrap().scalar(), Some(&Datum::Int(6)));
}

#[test]
fn joins_with_empty_sides() {
    let db = db2(&[(Some(1), "a")], &[]);
    assert_eq!(
        db.execute("SELECT COUNT(*) FROM l, r WHERE l.k = r.k").unwrap().scalar(),
        Some(&Datum::Int(0))
    );
    assert_eq!(
        db.execute("SELECT COUNT(*) FROM l LEFT JOIN r ON l.k = r.k").unwrap().scalar(),
        Some(&Datum::Int(1))
    );
    // A right input that an ON conjunct pushed into its scan leaves empty:
    // the outer row is still padded to the right side's width, by the hash
    // join and by the nested loop, at one and two threads, as the
    // reference pads it.
    db.insert_rows("r", &[vec![Datum::Int(1), Datum::Text("x".into())]]).unwrap();
    for exec_threads in [1, 2] {
        db.set_exec_limits(ExecLimits { exec_threads, ..ExecLimits::default() });
        for (on, shape) in [("l.k = r.k", "Hash Join"), ("l.k <> r.k", "Nested Loop")] {
            let sql = format!("SELECT l.v, r.w FROM l LEFT JOIN r ON {on} AND r.w = 'none'");
            let plan = db.execute(&format!("EXPLAIN {sql}")).unwrap();
            assert!(plan.rows.iter().any(|r| r[0].display_text().contains(shape)), "{sql}");
            let rows = checked(&db, &sql);
            let ctx = format!("{sql} ({exec_threads} threads)");
            assert_eq!(rows, vec![vec![Datum::Text("a".into()), Datum::Null]], "{ctx}");
        }
    }
}

/// A `LEFT JOIN`'s row cap does not depend on the join the planner picked:
/// the hash join and the nested loop both charge every row they emit,
/// padded ones included. Under the LIMIT the root holds no more rows than
/// the cap, so only the join's own charge can fail the statement.
#[test]
fn left_join_pad_rows_count_against_the_cap() {
    let l: Vec<(Option<i64>, &str)> = (0..10).map(|k| (Some(k), "a")).collect();
    let db = db2(&l, &[(Some(1), "x")]);
    db.set_exec_limits(ExecLimits { max_intermediate_rows: 5, ..ExecLimits::default() });
    for (on, shape) in [("l.k = r.k", "Hash Join"), ("l.k <> r.k", "Nested Loop")] {
        let sql = format!("SELECT l.v FROM l LEFT JOIN r ON {on} AND r.w = 'none' LIMIT 5");
        let plan = db.execute(&format!("EXPLAIN {sql}")).unwrap();
        assert!(plan.rows.iter().any(|r| r[0].display_text().contains(shape)), "{sql}");
        let got = db.execute(&sql);
        assert!(matches!(got, Err(DbError::ResourceExhausted(_))), "{sql}: {got:?}");
    }
}

/// A join chain that starts with a `LEFT JOIN` keeps a later inner join
/// inner: a left row whose right match has no partner in the third table
/// is dropped, not padded.
#[test]
fn an_inner_join_after_a_left_join_stays_inner() {
    let db = db2(&[(Some(1), "a"), (Some(2), "b"), (Some(3), "c")], &[(Some(1), "x"), (Some(2), "y")]);
    db.execute("CREATE TABLE q (k int)").unwrap();
    db.execute("INSERT INTO q VALUES (1)").unwrap();
    for exec_threads in [1, 2] {
        db.set_exec_limits(ExecLimits { exec_threads, ..ExecLimits::default() });
        let rows =
            checked(&db, "SELECT l.v, r.w FROM l LEFT JOIN r ON l.k = r.k JOIN q ON q.k = r.k");
        let want = vec![vec![Datum::Text("a".into()), Datum::Text("x".into())]];
        assert_eq!(rows, want, "{exec_threads} threads");
        let rows = checked(
            &db,
            "SELECT l.v, q.k FROM l LEFT JOIN r ON l.k = r.k LEFT JOIN q ON q.k = r.k ORDER BY l.v",
        );
        let text = |s: &str| Datum::Text(s.into());
        let want = vec![
            vec![text("a"), Datum::Int(1)],
            vec![text("b"), Datum::Null],
            vec![text("c"), Datum::Null],
        ];
        assert_eq!(rows, want, "{exec_threads} threads");
    }
}

#[test]
fn non_equi_join_uses_nested_loop() {
    let db = db2(&[(Some(1), "a"), (Some(5), "b")], &[(Some(3), "x")]);
    let plan = db
        .execute("EXPLAIN SELECT COUNT(*) FROM l, r WHERE l.k < r.k")
        .unwrap();
    let text: String =
        plan.rows.iter().map(|row| row[0].display_text()).collect::<Vec<_>>().join("\n");
    assert!(text.contains("Nested Loop"), "{text}");
    assert_eq!(
        db.execute("SELECT COUNT(*) FROM l, r WHERE l.k < r.k").unwrap().scalar(),
        Some(&Datum::Int(1))
    );
}

#[test]
fn order_by_places_nulls_first_ascending() {
    let db = db2(&[(Some(2), "a"), (None, "b"), (Some(1), "c")], &[]);
    let r = db.execute("SELECT k FROM l ORDER BY k").unwrap();
    assert_eq!(r.rows, vec![vec![Datum::Null], vec![Datum::Int(1)], vec![Datum::Int(2)]]);
    let r = db.execute("SELECT k FROM l ORDER BY k DESC").unwrap();
    assert_eq!(r.rows, vec![vec![Datum::Int(2)], vec![Datum::Int(1)], vec![Datum::Null]]);
}

#[test]
fn limit_zero_and_large() {
    let db = db2(&[(Some(1), "a"), (Some(2), "b")], &[]);
    assert!(db.execute("SELECT v FROM l LIMIT 0").unwrap().rows.is_empty());
    assert_eq!(db.execute("SELECT v FROM l LIMIT 999").unwrap().rows.len(), 2);
}

#[test]
fn having_on_aggregate_not_in_select() {
    let db = Database::in_memory();
    db.execute("CREATE TABLE t (g text, v int)").unwrap();
    db.execute(
        "INSERT INTO t VALUES ('a', 1), ('a', 2), ('b', 10), ('b', 20), ('c', 1)",
    )
    .unwrap();
    let r = db
        .execute("SELECT g FROM t GROUP BY g HAVING SUM(v) > 5 ORDER BY g")
        .unwrap();
    assert_eq!(r.rows, vec![vec![Datum::Text("b".into())]]);
    // aggregate in ORDER BY only
    let r = db
        .execute("SELECT g FROM t GROUP BY g ORDER BY SUM(v) DESC LIMIT 1")
        .unwrap();
    assert_eq!(r.rows, vec![vec![Datum::Text("b".into())]]);
}

#[test]
fn group_by_expression() {
    let db = Database::in_memory();
    db.execute("CREATE TABLE t (v int)").unwrap();
    let rows: Vec<Vec<Datum>> = (0..100).map(|i| vec![Datum::Int(i)]).collect();
    db.insert_rows("t", &rows).unwrap();
    let r = db
        .execute("SELECT v % 3, COUNT(*) FROM t GROUP BY v % 3 ORDER BY v % 3")
        .unwrap();
    assert_eq!(r.rows.len(), 3);
    assert_eq!(r.rows[0], vec![Datum::Int(0), Datum::Int(34)]);
    assert_eq!(r.rows[1], vec![Datum::Int(1), Datum::Int(33)]);
}

#[test]
fn group_key_null_forms_its_own_group() {
    let db = db2(&[(Some(1), "a"), (None, "b"), (None, "c")], &[]);
    let r = db.execute("SELECT k, COUNT(*) FROM l GROUP BY k ORDER BY k").unwrap();
    assert_eq!(r.rows.len(), 2);
    assert_eq!(r.rows[0], vec![Datum::Null, Datum::Int(2)]);
}

#[test]
fn distinct_entire_row() {
    let db = db2(&[(Some(1), "a"), (Some(1), "a"), (Some(1), "b")], &[]);
    let r = db.execute("SELECT DISTINCT k, v FROM l").unwrap();
    assert_eq!(r.rows.len(), 2);
}

#[test]
fn update_with_no_matches_and_full_table() {
    let db = db2(&[(Some(1), "a"), (Some(2), "b")], &[]);
    assert_eq!(db.execute("UPDATE l SET v = 'x' WHERE k = 99").unwrap().affected, 0);
    assert_eq!(db.execute("UPDATE l SET v = 'x'").unwrap().affected, 2);
    let r = db.execute("SELECT COUNT(*) FROM l WHERE v = 'x'").unwrap();
    assert_eq!(r.scalar(), Some(&Datum::Int(2)));
}

#[test]
fn three_valued_logic_in_where() {
    let db = db2(&[(Some(1), "a"), (None, "b")], &[]);
    // NULL <> 1 is NULL → filtered out (not an error, not a match)
    let r = db.execute("SELECT v FROM l WHERE k <> 1").unwrap();
    assert!(r.rows.is_empty());
    let r = db.execute("SELECT v FROM l WHERE NOT (k = 1)").unwrap();
    assert!(r.rows.is_empty());
    let r = db.execute("SELECT v FROM l WHERE k IS NULL").unwrap();
    assert_eq!(r.rows, vec![vec![Datum::Text("b".into())]]);
}
