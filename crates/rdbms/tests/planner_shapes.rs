//! Planner behaviour tests: operator and join-order choices must react to
//! statistics the way the Sinew paper's Table 2 depends on.

use sinew_rdbms::plan::Plan;
use sinew_rdbms::{Database, Datum, ExecLimits, PlannerConfig};

fn explain(db: &Database, sql: &str) -> String {
    let r = db.execute(&format!("EXPLAIN {sql}")).unwrap();
    r.rows.iter().map(|row| row[0].display_text()).collect::<Vec<_>>().join("\n")
}

fn small_work_mem(db: &Database) {
    let pc = PlannerConfig { work_mem: 32 * 1024, ..Default::default() };
    db.set_planner_config(pc);
}

#[test]
fn selective_filter_moves_table_first_in_join_order() {
    let db = Database::in_memory();
    db.execute("CREATE TABLE big (k int, v int)").unwrap();
    db.execute("CREATE TABLE small (k int, tag text)").unwrap();
    let big: Vec<Vec<Datum>> =
        (0..20_000).map(|i| vec![Datum::Int(i % 500), Datum::Int(i)]).collect();
    db.insert_rows("big", &big).unwrap();
    let small: Vec<Vec<Datum>> = (0..500)
        .map(|i| vec![Datum::Int(i), Datum::Text(if i == 7 { "rare" } else { "common" }.into())])
        .collect();
    db.insert_rows("small", &small).unwrap();
    db.execute("ANALYZE big").unwrap();
    db.execute("ANALYZE small").unwrap();

    // With stats, the planner knows tag='rare' selects ~1 row: the filtered
    // `small` should be the build side / early relation.
    let plan = explain(
        &db,
        "SELECT COUNT(*) FROM big, small WHERE big.k = small.k AND small.tag = 'rare'",
    );
    // row estimate for the filtered scan of small must be tiny
    let small_scan_line = plan
        .lines()
        .find(|l| l.contains("Seq Scan on small"))
        .unwrap_or_else(|| panic!("{plan}"));
    let est: u64 = small_scan_line
        .split("rows=")
        .nth(1)
        .and_then(|s| s.trim_end_matches(')').parse().ok())
        .unwrap();
    assert!(est <= 20, "filtered small should estimate few rows: {plan}");
    // and the query is correct
    let r = db
        .execute("SELECT COUNT(*) FROM big, small WHERE big.k = small.k AND small.tag = 'rare'")
        .unwrap();
    assert_eq!(r.scalar(), Some(&Datum::Int(40)));
}

/// 20 000 `big` rows over 500 keys, and 500 `small` rows of which one,
/// key 7, is tagged `'rare'`; both analyzed.
fn big_small_db() -> Database {
    let db = Database::in_memory();
    db.execute("CREATE TABLE big (k int, v int)").unwrap();
    db.execute("CREATE TABLE small (k int, tag text)").unwrap();
    let big: Vec<Vec<Datum>> =
        (0..20_000).map(|i| vec![Datum::Int(i % 500), Datum::Int(i)]).collect();
    db.insert_rows("big", &big).unwrap();
    let small: Vec<Vec<Datum>> = (0..500)
        .map(|i| vec![Datum::Int(i), Datum::Text(if i == 7 { "rare" } else { "common" }.into())])
        .collect();
    db.insert_rows("small", &small).unwrap();
    db.execute("ANALYZE big").unwrap();
    db.execute("ANALYZE small").unwrap();
    db
}

/// The hash join builds the input the planner costed as the build — its
/// right one — so a selective filter on one side makes that side the
/// build in either `FROM` order: one row is hashed, not 20 000.
#[test]
fn hash_join_builds_the_filtered_side_in_either_from_order() {
    let db = big_small_db();
    for from in ["big, small", "small, big"] {
        let sql = format!("SELECT COUNT(*) FROM {from} WHERE big.k = small.k AND small.tag = 'rare'");
        let plan = explain(&db, &sql);
        assert!(plan.contains("Hash Join"), "{plan}");
        let before = db.exec_stats().join_build_rows;
        assert_eq!(db.execute(&sql).unwrap().scalar(), Some(&Datum::Int(40)), "{sql}");
        let built = db.exec_stats().join_build_rows - before;
        assert_eq!(built, 1, "FROM {from} built {built} rows:\n{plan}");
    }
}

/// `SELECT *` lists columns in `FROM` order whichever side the join
/// builds or the join order puts first, at one and two threads, as the
/// plan-free reference lists them.
#[test]
fn select_star_over_a_join_keeps_from_order() {
    let db = big_small_db();
    let tag = Datum::Text("rare".into());
    for (from, columns, tag_at) in
        [("big, small", ["k", "v", "k", "tag"], 3), ("small, big", ["k", "tag", "k", "v"], 1)]
    {
        let sql = format!("SELECT * FROM {from} WHERE big.k = small.k AND small.tag = 'rare'");
        let want = sinew_reference::query(&db, &sql);
        assert_eq!(want.as_ref().unwrap().columns, columns, "the reference's columns");
        for exec_threads in [1, 2] {
            db.set_exec_limits(ExecLimits { exec_threads, ..ExecLimits::default() });
            let r = db.execute(&sql).unwrap();
            let ctx = format!("{sql} ({exec_threads} threads)\n{}", explain(&db, &sql));
            if let Err(e) = sinew_reference::agree(&Ok(r.rows.clone()), &want) {
                panic!("{ctx}\ndisagrees with the reference: {e}");
            }
            assert_eq!(r.columns, columns, "{ctx}");
            assert_eq!(r.rows.len(), 40, "{ctx}");
            for row in &r.rows {
                let got = (&row[0], &row[2], &row[tag_at]);
                assert_eq!(got, (&Datum::Int(7), &Datum::Int(7), &tag), "{ctx}");
            }
        }
    }
}

#[test]
fn join_order_changes_with_vs_without_stats() {
    let db = Database::in_memory();
    db.execute("CREATE TABLE a (x int, f text)").unwrap();
    db.execute("CREATE TABLE b (x int, y int)").unwrap();
    db.execute("CREATE TABLE c (y int)").unwrap();
    let rows_a: Vec<Vec<Datum>> = (0..10_000)
        .map(|i| {
            vec![
                Datum::Int(i),
                Datum::Text(if i % 1000 == 0 { "hot" } else { "cold" }.into()),
            ]
        })
        .collect();
    db.insert_rows("a", &rows_a).unwrap();
    let rows_b: Vec<Vec<Datum>> =
        (0..10_000).map(|i| vec![Datum::Int(i), Datum::Int(i % 100)]).collect();
    db.insert_rows("b", &rows_b).unwrap();
    let rows_c: Vec<Vec<Datum>> = (0..100).map(|i| vec![Datum::Int(i)]).collect();
    db.insert_rows("c", &rows_c).unwrap();

    let sql = "SELECT COUNT(*) FROM a, b, c \
               WHERE a.x = b.x AND b.y = c.y AND a.f = 'hot'";
    let before = explain(&db, sql);
    db.execute("ANALYZE a").unwrap();
    db.execute("ANALYZE b").unwrap();
    db.execute("ANALYZE c").unwrap();
    let after = explain(&db, sql);
    // the estimates must differ drastically; with stats 'hot' ≈ 0.1%,
    // without stats the default equality guess applies
    assert_ne!(before, after, "stats should change the plan or estimates");
    let r = db.execute(sql).unwrap();
    assert_eq!(r.scalar(), Some(&Datum::Int(10)));
}

#[test]
fn hash_join_when_build_fits_merge_when_not() {
    let db = Database::in_memory();
    db.execute("CREATE TABLE l (k int)").unwrap();
    db.execute("CREATE TABLE r (k int)").unwrap();
    let rows: Vec<Vec<Datum>> = (0..20_000).map(|i| vec![Datum::Int(i)]).collect();
    db.insert_rows("l", &rows).unwrap();
    db.insert_rows("r", &rows).unwrap();
    db.execute("ANALYZE l").unwrap();
    db.execute("ANALYZE r").unwrap();

    // generous work_mem: hash join
    let plan = explain(&db, "SELECT COUNT(*) FROM l, r WHERE l.k = r.k");
    assert!(plan.contains("Hash Join"), "{plan}");

    // starved work_mem: merge join with explicit sorts
    small_work_mem(&db);
    let plan = explain(&db, "SELECT COUNT(*) FROM l, r WHERE l.k = r.k");
    assert!(plan.contains("Merge Join"), "{plan}");
    assert!(plan.contains("Sort"), "{plan}");
    // both produce the same result
    let r = db.execute("SELECT COUNT(*) FROM l, r WHERE l.k = r.k").unwrap();
    assert_eq!(r.scalar(), Some(&Datum::Int(20_000)));
}

#[test]
fn distinct_operator_tracks_cardinality_estimates() {
    let db = Database::in_memory();
    db.execute("CREATE TABLE t (lowcard int, highcard int)").unwrap();
    let rows: Vec<Vec<Datum>> =
        (0..30_000).map(|i| vec![Datum::Int(i % 5), Datum::Int(i)]).collect();
    db.insert_rows("t", &rows).unwrap();
    db.execute("ANALYZE t").unwrap();
    small_work_mem(&db);

    // 5 distinct values: hash fits easily
    let plan = explain(&db, "SELECT DISTINCT lowcard FROM t");
    assert!(plan.contains("HashAggregate"), "{plan}");
    // 30k distinct values: blow work_mem → Sort + Unique
    let plan = explain(&db, "SELECT DISTINCT highcard FROM t");
    assert!(plan.contains("Unique"), "{plan}");
    // correctness of both paths
    assert_eq!(db.execute("SELECT DISTINCT lowcard FROM t").unwrap().rows.len(), 5);
    assert_eq!(db.execute("SELECT DISTINCT highcard FROM t").unwrap().rows.len(), 30_000);
}

#[test]
fn projection_pushdown_skips_unreferenced_columns() {
    // A fat unreferenced column must not slow a narrow scan: the planned
    // scan asks the heap for exactly the columns the query touches, and
    // `tuple::decode_into` (unit-tested there) skips the rest
    // without decoding them.
    let db = Database::in_memory();
    db.execute("CREATE TABLE t (a int, fat text)").unwrap();
    let rows: Vec<Vec<Datum>> =
        (0..100).map(|i| vec![Datum::Int(i), Datum::Text("z".repeat(4_000))]).collect();
    db.insert_rows("t", &rows).unwrap();
    let needed_of = |sql: &str| {
        let sinew_sql::Statement::Select(sel) = sinew_sql::parse_statement(sql).unwrap() else {
            panic!("not a select: {sql}");
        };
        fn scan_needed(plan: &Plan) -> Option<Vec<String>> {
            match plan {
                Plan::SeqScan { needed, .. } => needed.clone(),
                Plan::IndexScan(path) | Plan::ColumnarScan { path, .. } => path.needed.clone(),
                Plan::Filter { input, .. }
                | Plan::Project { input, .. }
                | Plan::HashAggregate { input, .. }
                | Plan::GroupAggregate { input, .. } => scan_needed(input),
                other => panic!("unexpected node {}", other.node_name()),
            }
        }
        scan_needed(&db.plan(&sel).unwrap().plan)
    };
    assert_eq!(needed_of("SELECT COUNT(*) FROM t WHERE a >= 0"), Some(vec!["a".to_string()]));
    assert_eq!(
        needed_of("SELECT COUNT(*) FROM t WHERE length(fat) > 0"),
        Some(vec!["fat".to_string()])
    );
    assert_eq!(db.execute("SELECT COUNT(*) FROM t WHERE a >= 0").unwrap().rows[0][0], Datum::Int(100));
}

#[test]
fn explain_estimates_vs_reality_for_opaque_udfs() {
    // UDF predicates get the fixed default row estimate regardless of the
    // data (the Sinew paper's central planner observation).
    let db = Database::in_memory();
    db.execute("CREATE TABLE t (v int)").unwrap();
    let rows: Vec<Vec<Datum>> = (0..10_000).map(|i| vec![Datum::Int(i)]).collect();
    db.insert_rows("t", &rows).unwrap();
    db.execute("ANALYZE t").unwrap();
    db.register_udf(
        "identity",
        std::sync::Arc::new(|args: &[Datum]| Ok(args[0].clone())),
    );
    let plan = explain(&db, "SELECT COUNT(*) FROM t WHERE identity(v) = 5");
    assert!(plan.contains("rows=200"), "default 200-row estimate: {plan}");
    let plan = explain(&db, "SELECT COUNT(*) FROM t WHERE v = 5");
    assert!(plan.contains("rows=1)") || plan.contains("rows=1 "), "stats estimate ~1: {plan}");
}

/// Beyond the 10-relation DP horizon the planner must fall back to the
/// bounded greedy join order instead of refusing the query (PR 9): an
/// 11-table chain both plans and executes.
#[test]
fn eleven_table_join_chain_plans_via_greedy_fallback() {
    let db = Database::in_memory();
    for i in 1..=11 {
        db.execute(&format!("CREATE TABLE c{i} (x int, y int)")).unwrap();
        let rows: Vec<Vec<Datum>> =
            (0..10).map(|v| vec![Datum::Int(v), Datum::Int(v * i)]).collect();
        db.insert_rows(&format!("c{i}"), &rows).unwrap();
        db.execute(&format!("ANALYZE c{i}")).unwrap();
    }
    let from: Vec<String> = (1..=11).map(|i| format!("c{i}")).collect();
    let preds: Vec<String> = (1..11).map(|i| format!("c{}.x = c{}.x", i, i + 1)).collect();
    let sql = format!(
        "SELECT COUNT(*) FROM {} WHERE {}",
        from.join(", "),
        preds.join(" AND ")
    );
    let plan = explain(&db, &sql);
    let joins = plan.matches("Join").count() + plan.matches("Nested Loop").count();
    assert!(joins >= 10, "expected a 10-join tree, got: {plan}");
    // x is a 0..9 key in every table, so the chain matches exactly 10 rows
    let r = db.execute(&sql).unwrap();
    assert_eq!(r.scalar(), Some(&Datum::Int(10)), "{plan}");
}

/// EXPLAIN ANALYZE must annotate *every* plan node with its observed
/// actuals — rows, blocks, wall time — next to the estimates, across every
/// node type the planner can emit.
/// A zone map skips whole segments, and a table below one segment's rows
/// has one: a columnar scan then decodes every value of its columns, so
/// a point lookup on a column with both a B-tree and a store takes the
/// B-tree, however small the heap, while a wide range still takes the
/// store.
#[test]
fn point_lookup_below_one_segment_takes_the_index() {
    let db = Database::in_memory();
    db.execute("CREATE TABLE t (k int, v int, pad text)").unwrap();
    let rows: Vec<Vec<Datum>> = (0..500)
        .map(|i| vec![Datum::Int(i), Datum::Int(i % 7), Datum::Text("p".repeat(800))])
        .collect();
    db.insert_rows("t", &rows).unwrap();
    db.execute("CREATE INDEX t_k ON t (k)").unwrap();
    db.build_columnar("t", "k").unwrap();
    db.build_columnar("t", "v").unwrap();
    db.execute("ANALYZE t").unwrap();
    let point = explain(&db, "SELECT k, v FROM t WHERE k = 123");
    assert!(point.contains("Index Scan using t_k"), "{point}");
    let range = explain(&db, "SELECT k, v FROM t WHERE k BETWEEN 0 AND 399");
    assert!(range.contains("Columnar Scan"), "{range}");
    let r = db.execute("SELECT k, v FROM t WHERE k = 123").unwrap();
    assert_eq!(r.rows, vec![vec![Datum::Int(123), Datum::Int(123 % 7)]]);
}

#[test]
fn explain_analyze_annotates_every_node_type() {
    let db = Database::in_memory();
    db.execute("CREATE TABLE ea (k int, v int, tag text)").unwrap();
    let rows: Vec<Vec<Datum>> = (0..20_000)
        .map(|i| vec![Datum::Int(i), Datum::Int(i % 7), Datum::Text(format!("t{}", i % 3))])
        .collect();
    db.insert_rows("ea", &rows).unwrap();
    db.execute("CREATE TABLE dim (k int, name text)").unwrap();
    let rows: Vec<Vec<Datum>> =
        (0..200).map(|i| vec![Datum::Int(i), Datum::Text(format!("n{i}"))]).collect();
    db.insert_rows("dim", &rows).unwrap();
    db.execute("CREATE INDEX idx_ea_k ON ea (k)").unwrap();
    db.execute("ANALYZE ea").unwrap();
    db.execute("ANALYZE dim").unwrap();
    // v columnar (k stays heap + index so the range and point probes pick
    // Index Scan)
    db.build_columnar("ea", "v").unwrap();

    let analyze = |sql: &str| -> String {
        let r = db.execute(&format!("EXPLAIN ANALYZE {sql}")).unwrap();
        r.rows.iter().map(|row| row[0].display_text()).collect::<Vec<_>>().join("\n")
    };

    // One query per planner shape; small work_mem flips the second half to
    // the sort-based operators.
    let queries: &[&str] = &[
        "SELECT v FROM ea WHERE v = 3 LIMIT 5",
        "SELECT tag FROM ea WHERE k BETWEEN 10 AND 20",
        "SELECT k FROM ea WHERE k = 123",
        "SELECT v, COUNT(*) FROM ea GROUP BY v ORDER BY v",
        "SELECT DISTINCT tag FROM ea",
        "SELECT COUNT(*) FROM ea JOIN dim ON ea.k = dim.k",
        "SELECT COUNT(*) FROM ea, dim WHERE ea.v < dim.k AND dim.k < 2",
        "SELECT 1 + 2, 'const'",
    ];
    let mut plans = String::new();
    for q in queries {
        let text = analyze(q);
        for line in text.lines() {
            if line.contains("(rows=") || line.contains("(n=") {
                assert!(
                    line.contains("(actual rows="),
                    "node line missing actuals for {q:?}: {line}\nfull plan:\n{text}"
                );
            }
        }
        plans.push_str(&text);
        plans.push('\n');
    }
    // Starved work_mem: merge join, sort + group-aggregate, sort + unique.
    small_work_mem(&db);
    for q in &[
        "SELECT COUNT(*) FROM ea a1, ea a2 WHERE a1.k = a2.k",
        "SELECT k, SUM(v) FROM ea GROUP BY k",
        "SELECT DISTINCT k FROM ea",
    ] {
        let text = analyze(q);
        for line in text.lines() {
            if line.contains("(rows=") || line.contains("(n=") {
                assert!(line.contains("(actual rows="), "missing actuals: {line}\n{text}");
            }
        }
        plans.push_str(&text);
        plans.push('\n');
    }
    for node in [
        "Seq Scan", "Index Scan", "Columnar Scan", "Sort",
        "HashAggregate", "GroupAggregate", "Unique", "Hash Join", "Merge Join",
        "Nested Loop", "Limit", "Values",
    ] {
        assert!(plans.contains(node), "workload never produced a {node} node:\n{plans}");
    }

    // Actual rows are the real row counts: the root of a query returning N
    // rows must report actual rows=N.
    let text = analyze("SELECT tag FROM ea WHERE k BETWEEN 10 AND 20");
    let root = text.lines().next().unwrap();
    let actual: u64 = root
        .split("actual rows=")
        .nth(1)
        .and_then(|s| s.split_whitespace().next())
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("unparseable root line: {root}"));
    assert_eq!(actual, 11, "root actuals wrong: {text}");
}

/// Past the 10-relation DP horizon a beam search orders the join. The
/// star query here sets two traps the one-step-lookahead greedy order
/// (beam width 1) walks into: a one-row decoy dimension captures its
/// smallest-relation start, and the selective-but-expensive-to-scan
/// `dbig` dimension always costs more *this step* than joining one more
/// cheap dimension, so greedy defers it to the very end and every
/// intermediate stays fact-sized. The beam keeps the pay-early order
/// alive one round, sees the intermediate collapse, and must come out
/// strictly cheaper.
#[test]
fn twelve_table_star_beam_beats_greedy() {
    use sinew_rdbms::func::FuncRegistry;
    use sinew_rdbms::planner::Planner;

    let db = Database::in_memory();
    // Fact table: 3000 rows; k joins the 9 small dims, kd the decoy,
    // kb is a 3000-distinct key into dbig.
    db.execute("CREATE TABLE f (k int, kb int, kd int)").unwrap();
    let rows: Vec<Vec<Datum>> = (0..3000)
        .map(|v| vec![Datum::Int(v % 10), Datum::Int(v), Datum::Int(7)])
        .collect();
    db.insert_rows("f", &rows).unwrap();
    // Decoy: one row, joining it filters nothing.
    db.execute("CREATE TABLE decoy (x int)").unwrap();
    db.insert_rows("decoy", &[vec![Datum::Int(7)]]).unwrap();
    // Nine interchangeable small dimensions: 10 rows, join keeps rows flat.
    for i in 1..=9 {
        db.execute(&format!("CREATE TABLE d{i} (x int)")).unwrap();
        let rows: Vec<Vec<Datum>> = (0..10).map(|v| vec![Datum::Int(v)]).collect();
        db.insert_rows(&format!("d{i}"), &rows).unwrap();
    }
    // The trap dimension: 3000 rows to scan, but its filtered single row
    // joined on a 3000-distinct key crushes the intermediate.
    db.execute("CREATE TABLE dbig (x int, y int)").unwrap();
    let rows: Vec<Vec<Datum>> =
        (0..3000).map(|v| vec![Datum::Int(v), Datum::Int(v)]).collect();
    db.insert_rows("dbig", &rows).unwrap();
    for t in ["f", "decoy", "dbig"]
        .iter()
        .map(|s| s.to_string())
        .chain((1..=9).map(|i| format!("d{i}")))
    {
        db.execute(&format!("ANALYZE {t}")).unwrap();
    }

    let from: Vec<String> = ["f", "decoy"]
        .iter()
        .map(|s| s.to_string())
        .chain((1..=9).map(|i| format!("d{i}")))
        .chain(std::iter::once("dbig".to_string()))
        .collect();
    let preds: Vec<String> = (1..=9)
        .map(|i| format!("f.k = d{i}.x"))
        .chain([
            "f.kd = decoy.x".to_string(),
            "f.kb = dbig.x".to_string(),
            "dbig.y = 0".to_string(),
        ])
        .collect();
    let sql = format!(
        "SELECT COUNT(*) FROM {} WHERE {}",
        from.join(", "),
        preds.join(" AND ")
    );

    let cost_of = |width: usize| -> f64 {
        let funcs = FuncRegistry::default();
        let stmt = sinew_sql::parse_statement(&sql).unwrap();
        let sinew_sql::Statement::Select(sel) = stmt else { panic!("not a select") };
        Planner::new(&db, &funcs)
            .with_config(PlannerConfig { join_beam_width: width, ..Default::default() })
            .plan_select(&sel)
            .unwrap()
            .cost
    };
    let greedy = cost_of(1);
    let beam = cost_of(8);
    assert!(
        beam < greedy,
        "beam ({beam:.1}) should beat greedy ({greedy:.1}) on the star"
    );

    // Both orders compute the same answer: only the kb = 0 fact row
    // survives the dbig join, and it matches every other dimension once.
    let r = db.execute(&sql).unwrap();
    assert_eq!(r.scalar(), Some(&Datum::Int(1)));
}
