//! End-to-end tests for the embedded engine: DDL, DML, queries, joins,
//! aggregation, EXPLAIN, ANALYZE, and the stat/plan interactions the Sinew
//! paper's Table 2 depends on.

use sinew_rdbms::{ColType, Database, Datum, DbError, PlannerConfig, RowWrite};
use std::sync::Arc;

fn db_with_people() -> Database {
    let db = Database::in_memory();
    db.execute("CREATE TABLE people (id int, name text, age int, city text)").unwrap();
    db.execute(
        "INSERT INTO people VALUES \
         (1, 'ann', 30, 'oslo'), (2, 'bob', 25, 'oslo'), (3, 'cal', 35, 'lima'), \
         (4, 'dee', 25, 'lima'), (5, 'eli', 40, 'oslo')",
    )
    .unwrap();
    db
}

#[test]
fn select_projection_and_filter() {
    let db = db_with_people();
    let r = db.execute("SELECT name FROM people WHERE age > 28 ORDER BY name").unwrap();
    assert_eq!(r.columns, vec!["name"]);
    let names: Vec<String> =
        r.rows.iter().map(|row| row[0].display_text()).collect();
    assert_eq!(names, vec!["ann", "cal", "eli"]);
}

#[test]
fn select_star_expands_columns() {
    let db = db_with_people();
    let r = db.execute("SELECT * FROM people WHERE id = 3").unwrap();
    assert_eq!(r.columns, vec!["id", "name", "age", "city"]);
    assert_eq!(r.rows.len(), 1);
    assert_eq!(r.rows[0][1], Datum::Text("cal".into()));
}

#[test]
fn expressions_in_projection() {
    let db = db_with_people();
    let r = db
        .execute("SELECT id * 10 + 1, upper(name) AS big FROM people WHERE id = 2")
        .unwrap();
    assert_eq!(r.columns[1], "big");
    assert_eq!(r.rows[0], vec![Datum::Int(21), Datum::Text("BOB".into())]);
}

#[test]
fn group_by_and_aggregates() {
    let db = db_with_people();
    let r = db
        .execute(
            "SELECT city, COUNT(*), SUM(age), AVG(age), MIN(name), MAX(age) \
             FROM people GROUP BY city ORDER BY city",
        )
        .unwrap();
    assert_eq!(r.rows.len(), 2);
    // lima: cal(35), dee(25)
    assert_eq!(r.rows[0][0], Datum::Text("lima".into()));
    assert_eq!(r.rows[0][1], Datum::Int(2));
    assert_eq!(r.rows[0][2], Datum::Int(60));
    assert_eq!(r.rows[0][3], Datum::Float(30.0));
    assert_eq!(r.rows[0][4], Datum::Text("cal".into()));
    assert_eq!(r.rows[0][5], Datum::Int(35));
    // oslo: ann(30), bob(25), eli(40)
    assert_eq!(r.rows[1][1], Datum::Int(3));
    assert_eq!(r.rows[1][2], Datum::Int(95));
}

#[test]
fn scalar_aggregate_and_empty_input() {
    let db = db_with_people();
    let r = db.execute("SELECT COUNT(*), SUM(age) FROM people WHERE age > 100").unwrap();
    assert_eq!(r.rows, vec![vec![Datum::Int(0), Datum::Null]]);
}

#[test]
fn having_filters_groups() {
    let db = db_with_people();
    let r = db
        .execute("SELECT city FROM people GROUP BY city HAVING COUNT(*) > 2")
        .unwrap();
    assert_eq!(r.rows, vec![vec![Datum::Text("oslo".into())]]);
}

#[test]
fn distinct_and_limit() {
    let db = db_with_people();
    let r = db.execute("SELECT DISTINCT city FROM people ORDER BY city").unwrap();
    assert_eq!(r.rows.len(), 2);
    let r = db.execute("SELECT id FROM people ORDER BY id DESC LIMIT 2").unwrap();
    assert_eq!(r.rows, vec![vec![Datum::Int(5)], vec![Datum::Int(4)]]);
}

#[test]
fn count_distinct() {
    let db = db_with_people();
    let r = db.execute("SELECT COUNT(DISTINCT city) FROM people").unwrap();
    assert_eq!(r.scalar(), Some(&Datum::Int(2)));
    let r = db.execute("SELECT COUNT(DISTINCT age) FROM people").unwrap();
    assert_eq!(r.scalar(), Some(&Datum::Int(4)));
}

#[test]
fn implicit_join_two_tables() {
    let db = db_with_people();
    db.execute("CREATE TABLE cities (cname text, country text)").unwrap();
    db.execute("INSERT INTO cities VALUES ('oslo', 'norway'), ('lima', 'peru')").unwrap();
    let r = db
        .execute(
            "SELECT p.name, c.country FROM people p, cities c \
             WHERE p.city = c.cname AND p.age = 35",
        )
        .unwrap();
    assert_eq!(r.rows, vec![vec![Datum::Text("cal".into()), Datum::Text("peru".into())]]);
}

#[test]
fn explicit_join_syntax() {
    let db = db_with_people();
    db.execute("CREATE TABLE cities (cname text, country text)").unwrap();
    db.execute("INSERT INTO cities VALUES ('oslo', 'norway')").unwrap();
    let r = db
        .execute(
            "SELECT COUNT(*) FROM people JOIN cities ON people.city = cities.cname",
        )
        .unwrap();
    assert_eq!(r.scalar(), Some(&Datum::Int(3)));
}

#[test]
fn left_join_preserves_unmatched() {
    let db = db_with_people();
    db.execute("CREATE TABLE cities (cname text, country text)").unwrap();
    db.execute("INSERT INTO cities VALUES ('oslo', 'norway')").unwrap();
    let r = db
        .execute(
            "SELECT name, country FROM people LEFT JOIN cities ON people.city = cities.cname \
             ORDER BY name",
        )
        .unwrap();
    assert_eq!(r.rows.len(), 5);
    let cal = r.rows.iter().find(|row| row[0] == Datum::Text("cal".into())).unwrap();
    assert_eq!(cal[1], Datum::Null);
}

#[test]
fn self_join() {
    let db = db_with_people();
    // pairs with same age
    let r = db
        .execute(
            "SELECT p1.name, p2.name FROM people p1, people p2 \
             WHERE p1.age = p2.age AND p1.id < p2.id",
        )
        .unwrap();
    assert_eq!(r.rows, vec![vec![Datum::Text("bob".into()), Datum::Text("dee".into())]]);
}

#[test]
fn three_way_join() {
    let db = Database::in_memory();
    db.execute("CREATE TABLE a (x int)").unwrap();
    db.execute("CREATE TABLE b (x int, y int)").unwrap();
    db.execute("CREATE TABLE c (y int)").unwrap();
    db.execute("INSERT INTO a VALUES (1), (2), (3)").unwrap();
    db.execute("INSERT INTO b VALUES (1, 10), (2, 20), (9, 90)").unwrap();
    db.execute("INSERT INTO c VALUES (10), (20), (99)").unwrap();
    let r = db
        .execute("SELECT a.x, c.y FROM a, b, c WHERE a.x = b.x AND b.y = c.y ORDER BY a.x")
        .unwrap();
    assert_eq!(
        r.rows,
        vec![vec![Datum::Int(1), Datum::Int(10)], vec![Datum::Int(2), Datum::Int(20)]]
    );
}

#[test]
fn update_and_delete() {
    let db = db_with_people();
    let r = db.execute("UPDATE people SET age = age + 1 WHERE city = 'oslo'").unwrap();
    assert_eq!(r.affected, 3);
    let r = db.execute("SELECT SUM(age) FROM people").unwrap();
    assert_eq!(r.scalar(), Some(&Datum::Int(158))); // 155 + 3
    let r = db.execute("DELETE FROM people WHERE age > 40").unwrap();
    assert_eq!(r.affected, 1); // eli now 41
    assert_eq!(db.row_count("people").unwrap(), 4);
}

#[test]
fn update_is_visible_to_subsequent_queries() {
    let db = db_with_people();
    db.execute("UPDATE people SET name = 'ANN' WHERE id = 1").unwrap();
    let r = db.execute("SELECT name FROM people WHERE id = 1").unwrap();
    assert_eq!(r.scalar(), Some(&Datum::Text("ANN".into())));
}

#[test]
fn is_null_and_coalesce() {
    let db = Database::in_memory();
    db.execute("CREATE TABLE t (a int, b text)").unwrap();
    db.execute("INSERT INTO t VALUES (1, 'x'), (2, NULL)").unwrap();
    let r = db.execute("SELECT a FROM t WHERE b IS NULL").unwrap();
    assert_eq!(r.rows, vec![vec![Datum::Int(2)]]);
    let r = db.execute("SELECT COALESCE(b, 'fallback') FROM t WHERE a = 2").unwrap();
    assert_eq!(r.scalar(), Some(&Datum::Text("fallback".into())));
}

#[test]
fn between_in_like_predicates() {
    let db = db_with_people();
    assert_eq!(
        db.execute("SELECT COUNT(*) FROM people WHERE age BETWEEN 25 AND 30").unwrap().scalar(),
        Some(&Datum::Int(3))
    );
    assert_eq!(
        db.execute("SELECT COUNT(*) FROM people WHERE city IN ('lima')").unwrap().scalar(),
        Some(&Datum::Int(2))
    );
    assert_eq!(
        db.execute("SELECT COUNT(*) FROM people WHERE name LIKE '%e%'").unwrap().scalar(),
        Some(&Datum::Int(2)) // dee, eli
    );
}

#[test]
fn multi_typed_dynamic_column_via_udf() {
    // A UDF returning heterogeneous types: comparisons silently skip
    // mismatches (Sinew's typed-extraction semantics).
    let db = Database::in_memory();
    db.execute("CREATE TABLE t (a int)").unwrap();
    db.execute("INSERT INTO t VALUES (1), (2), (3)").unwrap();
    db.register_udf(
        "dyn_val",
        Arc::new(|args: &[Datum]| {
            Ok(match args[0] {
                Datum::Int(1) => Datum::Int(100),
                Datum::Int(2) => Datum::Text("hundred".into()),
                _ => Datum::Null,
            })
        }),
    );
    let r = db.execute("SELECT a FROM t WHERE dyn_val(a) = 100").unwrap();
    assert_eq!(r.rows, vec![vec![Datum::Int(1)]]);
}

#[test]
fn explain_shows_plan_shape() {
    let db = db_with_people();
    let r = db.execute("EXPLAIN SELECT DISTINCT city FROM people").unwrap();
    let text: String =
        r.rows.iter().map(|row| row[0].display_text()).collect::<Vec<_>>().join("\n");
    assert!(text.contains("Seq Scan on people"), "plan was: {text}");
    assert!(text.contains("HashAggregate"), "plan was: {text}");
}

/// The Table 2 mechanism: without statistics the planner uses default
/// estimates (hash everything); with ANALYZE showing high cardinality and a
/// small work_mem, DISTINCT switches to Sort + Unique and GROUP BY to
/// GroupAggregate.
#[test]
fn stats_change_plan_shapes() {
    let db = Database::in_memory();
    db.execute("CREATE TABLE big (k int, v int)").unwrap();
    let rows: Vec<Vec<Datum>> =
        (0..20_000).map(|i| vec![Datum::Int(i), Datum::Int(i % 7)]).collect();
    db.insert_rows("big", &rows).unwrap();

    // small work_mem so 20k distinct ints overflow
    let config = PlannerConfig { work_mem: 64 * 1024, ..Default::default() };
    db.set_planner_config(config);

    // No stats: default 200-distinct estimate → hashed
    let r = db.execute("EXPLAIN SELECT DISTINCT k FROM big").unwrap();
    let no_stats: String =
        r.rows.iter().map(|row| row[0].display_text()).collect::<Vec<_>>().join("\n");
    assert!(no_stats.contains("HashAggregate"), "{no_stats}");
    assert!(!no_stats.contains("Unique"), "{no_stats}");

    // With stats: 20k distinct → memory blown → Sort + Unique
    db.execute("ANALYZE big").unwrap();
    let r = db.execute("EXPLAIN SELECT DISTINCT k FROM big").unwrap();
    let with_stats: String =
        r.rows.iter().map(|row| row[0].display_text()).collect::<Vec<_>>().join("\n");
    assert!(with_stats.contains("Unique"), "{with_stats}");
    assert!(with_stats.contains("Sort"), "{with_stats}");

    // GROUP BY equally switches
    let r = db.execute("EXPLAIN SELECT SUM(v) FROM big GROUP BY k").unwrap();
    let gb: String =
        r.rows.iter().map(|row| row[0].display_text()).collect::<Vec<_>>().join("\n");
    assert!(gb.contains("GroupAggregate"), "{gb}");

    // Results identical either way
    let r = db.execute("SELECT COUNT(*) FROM (SELECT 1) x").unwrap_err();
    let _ = r; // subqueries unsupported; just checking it errors cleanly
    let r1 = db.execute("SELECT DISTINCT v FROM big ORDER BY v").unwrap();
    assert_eq!(r1.rows.len(), 7);
}

#[test]
fn order_by_hidden_column() {
    let db = db_with_people();
    // ORDER BY a column not in the select list
    let r = db.execute("SELECT name FROM people ORDER BY age DESC, name LIMIT 2").unwrap();
    assert_eq!(r.columns, vec!["name"]);
    assert_eq!(r.rows, vec![vec![Datum::Text("eli".into())], vec![Datum::Text("cal".into())]]);
}

#[test]
fn alias_in_order_by() {
    let db = db_with_people();
    let r = db
        .execute("SELECT age * 2 AS dage FROM people ORDER BY dage LIMIT 1")
        .unwrap();
    assert_eq!(r.rows, vec![vec![Datum::Int(50)]]);
}

#[test]
fn schema_evolution_add_column() {
    let db = db_with_people();
    db.add_column("people", "email", ColType::Text).unwrap();
    let r = db.execute("SELECT email FROM people WHERE id = 1").unwrap();
    assert_eq!(r.scalar(), Some(&Datum::Null));
    db.execute("UPDATE people SET email = 'ann@x.io' WHERE id = 1").unwrap();
    let r = db.execute("SELECT name FROM people WHERE email IS NOT NULL").unwrap();
    assert_eq!(r.rows, vec![vec![Datum::Text("ann".into())]]);
}

#[test]
fn drop_column_frees_name() {
    let db = db_with_people();
    db.drop_column("people", "city").unwrap();
    assert!(matches!(
        db.execute("SELECT city FROM people"),
        Err(DbError::NotFound(_))
    ));
    let r = db.execute("SELECT * FROM people WHERE id = 1").unwrap();
    assert_eq!(r.columns, vec!["id", "name", "age"]);
    // old data gone even after re-adding the name
    db.add_column("people", "city", ColType::Text).unwrap();
    let r = db.execute("SELECT city FROM people WHERE id = 1").unwrap();
    assert_eq!(r.scalar(), Some(&Datum::Null));
}

#[test]
fn errors_are_reported() {
    let db = db_with_people();
    assert!(matches!(db.execute("SELECT nope FROM people"), Err(DbError::NotFound(_))));
    assert!(matches!(db.execute("SELECT * FROM missing"), Err(DbError::NotFound(_))));
    assert!(matches!(db.execute("SELECT broken syntax !!"), Err(DbError::Parse(_))));
    assert!(matches!(db.execute("SELECT unknown_fn(id) FROM people"), Err(DbError::NotFound(_))));
}

#[test]
fn cast_error_aborts_query() {
    let db = Database::in_memory();
    db.execute("CREATE TABLE t (s text)").unwrap();
    db.execute("INSERT INTO t VALUES ('5'), ('twenty')").unwrap();
    let err = db.execute("SELECT CAST(s AS int) FROM t").unwrap_err();
    assert!(matches!(err, DbError::CastError { .. }));
}

#[test]
fn file_backed_database_roundtrip() {
    let dir = std::env::temp_dir().join(format!("sinew-db-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let db = Database::open(&dir.join("t.db"), 16, None).unwrap();
    db.execute("CREATE TABLE t (a int, b text)").unwrap();
    let rows: Vec<Vec<Datum>> =
        (0..10_000).map(|i| vec![Datum::Int(i), Datum::Text(format!("val-{i}"))]).collect();
    db.insert_rows("t", &rows).unwrap();
    // more data than pool: forces evictions and re-reads
    let r = db.execute("SELECT COUNT(*) FROM t WHERE a % 100 = 0").unwrap();
    assert_eq!(r.scalar(), Some(&Datum::Int(100)));
    assert!(db.io_stats().disk_reads > 0 || db.io_stats().disk_writes > 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn rowid_pseudo_column_is_hidden_but_queryable() {
    let db = db_with_people();
    let r = db.execute("SELECT * FROM people WHERE id = 1").unwrap();
    assert!(!r.columns.contains(&"_rowid".to_string()));
    let r = db.execute("SELECT _rowid FROM people WHERE id = 1").unwrap();
    assert_eq!(r.scalar(), Some(&Datum::Int(0)));
}

#[test]
fn insert_with_column_list() {
    let db = db_with_people();
    db.execute("INSERT INTO people (id, name) VALUES (9, 'zoe')").unwrap();
    let r = db.execute("SELECT age, city FROM people WHERE id = 9").unwrap();
    assert_eq!(r.rows, vec![vec![Datum::Null, Datum::Null]]);
}

#[test]
fn merge_join_chosen_for_large_inputs() {
    let db = Database::in_memory();
    db.execute("CREATE TABLE l (k int)").unwrap();
    db.execute("CREATE TABLE r (k int)").unwrap();
    let rows: Vec<Vec<Datum>> = (0..30_000).map(|i| vec![Datum::Int(i)]).collect();
    db.insert_rows("l", &rows).unwrap();
    db.insert_rows("r", &rows).unwrap();
    db.execute("ANALYZE l").unwrap();
    db.execute("ANALYZE r").unwrap();
    // hash table cannot fit
    let config = PlannerConfig { work_mem: 32 * 1024, ..Default::default() };
    db.set_planner_config(config);
    let r = db.execute("EXPLAIN SELECT COUNT(*) FROM l, r WHERE l.k = r.k").unwrap();
    let text: String =
        r.rows.iter().map(|row| row[0].display_text()).collect::<Vec<_>>().join("\n");
    assert!(text.contains("Merge Join"), "{text}");
    let r = db.execute("SELECT COUNT(*) FROM l, r WHERE l.k = r.k").unwrap();
    assert_eq!(r.scalar(), Some(&Datum::Int(30_000)));
}

fn two_tables(db: &Database) {
    db.execute("CREATE TABLE docs (body text)").unwrap();
    db.execute("CREATE TABLE meta (k int, n int)").unwrap();
    db.insert_rows("meta", &[vec![Datum::Int(1), Datum::Int(10)]]).unwrap();
}

#[test]
fn write_unit_spans_tables_and_mixes_inserts_with_rowid_updates() {
    let db = Database::in_memory();
    two_tables(&db);
    let body = [vec![Datum::Text("a".into())], vec![Datum::Text("b".into())]];
    let more = [vec![Datum::Int(7)]];
    let inserted = db
        .write_unit(&[
            RowWrite::Insert { table: "docs", cols: None, rows: &body },
            RowWrite::Update { table: "meta", rowid: 0, assignments: &[("n", Datum::Int(12))] },
            RowWrite::Insert { table: "meta", cols: Some(&["k"]), rows: &more },
        ])
        .unwrap();
    assert_eq!(inserted, vec![0, 1, 1], "row ids of the inserted rows, in write order");
    let r = db.execute("SELECT k, n FROM meta ORDER BY k").unwrap();
    assert_eq!(
        r.rows,
        vec![vec![Datum::Int(1), Datum::Int(12)], vec![Datum::Int(7), Datum::Null]]
    );
    assert_eq!(db.row_count("docs").unwrap(), 2);
    // an unknown table fails the unit before anything is written
    let err = db.write_unit(&[
        RowWrite::Insert { table: "docs", cols: None, rows: &body },
        RowWrite::Insert { table: "nope", cols: None, rows: &more },
    ]);
    assert!(matches!(err, Err(DbError::NotFound(_))));
    assert_eq!(db.row_count("docs").unwrap(), 2);
}

#[test]
fn write_unit_failing_in_its_second_table_commits_what_it_applied_as_one_record() {
    let dir = std::env::temp_dir().join(format!("sinew-engine-unit-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("unit.db");
    let db = Database::open(&path, 64, None).unwrap();
    two_tables(&db);
    let body = [vec![Datum::Text("a".into())], vec![Datum::Text("b".into())]];
    let meta =
        [vec![Datum::Int(2), Datum::Int(20)], vec![Datum::Int(3), Datum::Text("bad".into())]];
    let commits = db.exec_stats().wal_commits;
    let err = db.write_unit(&[
        RowWrite::Insert { table: "docs", cols: None, rows: &body },
        RowWrite::Insert { table: "meta", cols: None, rows: &meta },
        RowWrite::Update { table: "meta", rowid: 0, assignments: &[("n", Datum::Int(99))] },
    ]);
    assert!(matches!(err, Err(DbError::Schema(_))), "text into an int column: {err:?}");
    assert_eq!(db.exec_stats().wal_commits - commits, 1, "one record for both tables");
    // a unit that fails before touching anything appends nothing
    let commits = db.exec_stats().wal_commits;
    let err =
        db.write_unit(&[RowWrite::Insert { table: "meta", cols: Some(&["zz"]), rows: &meta }]);
    assert!(matches!(err, Err(DbError::NotFound(_))));
    assert_eq!(db.exec_stats().wal_commits, commits);
    drop(db);
    // Recovery replays that record: both tables hold what was applied before
    // the failing row, and nothing after it.
    let db = Database::open(&path, 64, None).unwrap();
    assert_eq!(db.row_count("docs").unwrap(), 2);
    let r = db.execute("SELECT k, n FROM meta ORDER BY k").unwrap();
    assert_eq!(
        r.rows,
        vec![vec![Datum::Int(1), Datum::Int(10)], vec![Datum::Int(2), Datum::Int(20)]]
    );
    std::fs::remove_dir_all(&dir).ok();
}
