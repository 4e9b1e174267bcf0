//! The reference's own answers, computed by hand, so that a reference
//! defect cannot pass by agreeing with the same defect in the engine; and
//! the comparison rules on hand-made outcomes.

use sinew_rdbms::{Database, Datum, DbError};
use sinew_reference::{agree, query, Answer};

fn int(i: i64) -> Datum {
    Datum::Int(i)
}

fn text(s: &str) -> Datum {
    Datum::Text(s.into())
}

const NULL: Datum = Datum::Null;

/// `l(k, v)`: (1, 'a'), (2, 'b'), (NULL, 'c'); `r(k, w)` empty;
/// `q(k, w)`: (1, 'x'), (1, 'y').
fn db() -> Database {
    let db = Database::in_memory();
    db.execute("CREATE TABLE l (k int, v text)").unwrap();
    db.execute("CREATE TABLE r (k int, w text)").unwrap();
    db.execute("CREATE TABLE q (k int, w text)").unwrap();
    db.execute("INSERT INTO l VALUES (1, 'a'), (2, 'b'), (NULL, 'c')").unwrap();
    db.execute("INSERT INTO q VALUES (1, 'x'), (1, 'y')").unwrap();
    db
}

fn rows(db: &Database, sql: &str) -> Vec<Vec<Datum>> {
    query(db, sql).unwrap_or_else(|e| panic!("{sql}: {e}")).limited().to_vec()
}

#[test]
fn an_empty_right_side_pads_to_its_width() {
    let db = db();
    let want = vec![
        vec![int(1), text("a"), NULL, NULL],
        vec![int(2), text("b"), NULL, NULL],
        vec![NULL, text("c"), NULL, NULL],
    ];
    assert_eq!(rows(&db, "SELECT * FROM l LEFT JOIN r ON l.k = r.k"), want);
    // Emptied by an ON conjunct on the right side alone.
    assert_eq!(
        rows(&db, "SELECT l.v, q.w FROM l LEFT JOIN q ON l.k = q.k AND q.w = 'none'"),
        vec![vec![text("a"), NULL], vec![text("b"), NULL], vec![text("c"), NULL]]
    );
    // The padded rows are there for WHERE to test.
    assert_eq!(
        rows(&db, "SELECT l.v FROM l LEFT JOIN q ON l.k = q.k WHERE q.w IS NULL"),
        vec![vec![text("b")], vec![text("c")]]
    );
}

#[test]
fn select_star_lists_columns_in_from_order() {
    let db = db();
    let a = query(&db, "SELECT * FROM l, q WHERE l.k = q.k").unwrap();
    assert_eq!(a.columns, ["k", "v", "k", "w"]);
    assert_eq!(
        a.rows,
        vec![
            vec![int(1), text("a"), int(1), text("x")],
            vec![int(1), text("a"), int(1), text("y")]
        ]
    );
    let b = query(&db, "SELECT * FROM q JOIN l ON l.k = q.k").unwrap();
    assert_eq!(b.columns, ["k", "w", "k", "v"]);
    assert_eq!(
        b.rows,
        vec![
            vec![int(1), text("x"), int(1), text("a")],
            vec![int(1), text("y"), int(1), text("a")]
        ]
    );
}

#[test]
fn aggregates_over_no_rows_give_one_row() {
    let db = db();
    assert_eq!(rows(&db, "SELECT COUNT(*), SUM(k), MIN(w) FROM r"), vec![vec![int(0), NULL, NULL]]);
    assert_eq!(rows(&db, "SELECT COUNT(*) FROM l WHERE k > 5"), vec![vec![int(0)]]);
    // With GROUP BY there is no group at all.
    assert!(rows(&db, "SELECT k, COUNT(*) FROM r GROUP BY k").is_empty());
}

#[test]
fn null_keys_form_one_group() {
    let db = db();
    db.execute("INSERT INTO l VALUES (NULL, 'd')").unwrap();
    assert_eq!(
        rows(&db, "SELECT k, COUNT(*) FROM l GROUP BY k ORDER BY k"),
        vec![vec![NULL, int(2)], vec![int(1), int(1)], vec![int(2), int(1)]]
    );
}

#[test]
fn one_and_one_point_zero_form_one_group() {
    let db = Database::in_memory();
    db.execute("CREATE TABLE m (x int, y float)").unwrap();
    db.execute("INSERT INTO m VALUES (NULL, 1.0), (1, 0.5), (2, 0.5), (NULL, 2.5)").unwrap();
    // The group's value is its first row's: the float.
    assert_eq!(
        rows(&db, "SELECT COALESCE(x, y), COUNT(*) FROM m GROUP BY COALESCE(x, y)"),
        vec![
            vec![Datum::Float(1.0), int(2)],
            vec![int(2), int(1)],
            vec![Datum::Float(2.5), int(1)]
        ]
    );
    assert_eq!(rows(&db, "SELECT DISTINCT COALESCE(x, y) FROM m WHERE y < 2.0").len(), 2);
}

#[test]
fn limit_zero_keeps_nothing() {
    let db = db();
    let a = query(&db, "SELECT v FROM l ORDER BY v LIMIT 0").unwrap();
    assert_eq!(a.rows.len(), 3, "the rows before LIMIT");
    assert!(a.limited().is_empty());
}

#[test]
fn having_tests_an_aggregate_the_select_list_leaves_out() {
    let db = Database::in_memory();
    db.execute("CREATE TABLE t (g text, v int)").unwrap();
    db.execute("INSERT INTO t VALUES ('a', 1), ('a', 2), ('b', 10), ('b', 20), ('c', 1)").unwrap();
    assert_eq!(rows(&db, "SELECT g FROM t GROUP BY g HAVING SUM(v) > 5"), vec![vec![text("b")]]);
    assert_eq!(
        rows(&db, "SELECT g FROM t GROUP BY g ORDER BY SUM(v) DESC LIMIT 2"),
        vec![vec![text("b")], vec![text("a")]]
    );
}

#[test]
fn where_is_three_valued() {
    let db = db();
    assert_eq!(rows(&db, "SELECT v FROM l WHERE k <> 1"), vec![vec![text("b")]]);
    assert!(rows(&db, "SELECT v FROM l WHERE k NOT IN (1, NULL)").is_empty());
    assert_eq!(rows(&db, "SELECT v FROM l WHERE NOT (k = 1)"), vec![vec![text("b")]]);
    // `2 BETWEEN 3 AND NULL` is FALSE, so its negation holds.
    assert_eq!(
        rows(&db, "SELECT v FROM l WHERE k NOT BETWEEN 3 AND NULL"),
        vec![vec![text("a")], vec![text("b")]]
    );
}

#[test]
fn order_by_ties_form_runs() {
    let db = db();
    let a = query(&db, "SELECT v, k FROM l ORDER BY k DESC").unwrap();
    assert_eq!(a.runs, Some(vec![0, 1, 2]));
    assert_eq!(a.rows[2], vec![text("c"), NULL], "NULL sorts first ascending, last descending");
    let b = query(&db, "SELECT q.w FROM q, l WHERE q.k = l.k ORDER BY l.v").unwrap();
    assert_eq!(b.runs, Some(vec![0, 0]));
}

#[test]
fn names_resolve_or_fail_like_the_engine_binds_them() {
    let db = db();
    assert!(matches!(query(&db, "SELECT nope FROM l"), Err(DbError::NotFound(_))));
    assert!(matches!(query(&db, "SELECT k FROM l, q"), Err(DbError::Schema(_))));
    assert!(matches!(query(&db, "SELECT v FROM missing"), Err(DbError::NotFound(_))));
    assert!(matches!(query(&db, "SELECT v, COUNT(*) FROM l"), Err(DbError::NotFound(_))));
    assert!(matches!(query(&db, "SELECT v FROM l x, q x"), Err(DbError::Schema(_))));
    // Over empty input too: names are resolved before a row is read.
    assert!(matches!(query(&db, "SELECT nope FROM r"), Err(DbError::NotFound(_))));
}

fn answer(rows: Vec<Vec<Datum>>, runs: Option<Vec<usize>>, limit: Option<u64>) -> Answer {
    let width = rows.first().map_or(0, Vec::len);
    Answer { columns: vec![String::new(); width], rows, runs, limit, loose: vec![false; width] }
}

#[test]
fn agreement_is_bag_equality_within_tie_runs() {
    let want = answer(vec![vec![int(1)], vec![int(2)], vec![int(2)], vec![int(3)]], None, None);
    let got = vec![vec![int(2)], vec![int(3)], vec![int(1)], vec![int(2)]];
    assert!(agree(&Ok(got.clone()), &Ok(want.clone())).is_ok());
    // A value of another variant is another value.
    let float = vec![vec![int(2)], vec![int(3)], vec![Datum::Float(1.0)], vec![int(2)]];
    assert!(agree(&Ok(float), &Ok(want.clone())).is_err());
    assert!(agree(&Ok(got[..3].to_vec()), &Ok(want)).is_err());

    // Ordered: rows 1 and 2 tie; the runs must come in order.
    let ordered = answer(
        vec![vec![int(1), text("a")], vec![int(2), text("b")], vec![int(2), text("c")]],
        Some(vec![0, 1, 1]),
        None,
    );
    let swapped = vec![vec![int(1), text("a")], vec![int(2), text("c")], vec![int(2), text("b")]];
    assert!(agree(&Ok(swapped.clone()), &Ok(ordered.clone())).is_ok());
    let reversed: Vec<_> = swapped.into_iter().rev().collect();
    assert!(agree(&Ok(reversed), &Ok(ordered.clone())).is_err());

    // LIMIT 2 cuts the tie run: either of its rows will do, nothing else.
    let limited = Answer { limit: Some(2), ..ordered };
    assert!(agree(
        &Ok(vec![vec![int(1), text("a")], vec![int(2), text("c")]]),
        &Ok(limited.clone())
    )
    .is_ok());
    assert!(
        agree(&Ok(vec![vec![int(1), text("a")], vec![int(1), text("a")]]), &Ok(limited)).is_err()
    );
}

#[test]
fn agreement_allows_float_sums_their_rounding_and_errors_their_variant() {
    let mut want = answer(vec![vec![text("g"), Datum::Float(0.3)]], None, None);
    want.loose = vec![false, true];
    let close = vec![vec![text("g"), Datum::Float(0.1 + 0.2)]];
    assert!(agree(&Ok(close), &Ok(want.clone())).is_ok());
    let far = vec![vec![text("g"), Datum::Float(0.3001)]];
    assert!(agree(&Ok(far), &Ok(want.clone())).is_err());
    let int_sum = vec![vec![text("g"), int(0)]];
    assert!(agree(&Ok(int_sum), &Ok(want.clone())).is_err());

    let eval = || DbError::Eval("division by zero".into());
    assert!(agree(&Err(eval()), &Err(eval())).is_ok());
    assert!(agree(&Err(eval()), &Err(DbError::NotFound("column x".into()))).is_err());
    assert!(agree(&Err(eval()), &Ok(want.clone())).is_err());
    assert!(agree(&Ok(vec![]), &Err(eval())).is_err());
}
