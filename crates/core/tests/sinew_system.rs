//! End-to-end tests of the Sinew layer: load → query → analyze →
//! materialize → query again, covering the paper's §3–§4 behaviours.

use sinew_core::{AnalyzerPolicy, Sinew, StepBudget};
use sinew_rdbms::{Datum, DbError};

fn webrequests() -> Sinew {
    // The paper's Figure 2 dataset.
    let sinew = Sinew::in_memory();
    sinew.create_collection("webrequests").unwrap();
    sinew
        .load_jsonl(
            "webrequests",
            r#"
            {"url": "www.sample-site.com", "hits": 22, "avg_site_visit": 128.5, "country": "pl"}
            {"url": "www.sample-site2.com", "hits": 15, "date": "8/19/13", "ip": "123.45.67.89", "owner": "John P. Smith"}
            "#,
        )
        .unwrap();
    sinew
}

#[test]
fn paper_figure3_user_view() {
    let sinew = webrequests();
    // the universal relation has one column per unique key
    let names: Vec<String> =
        sinew.logical_schema("webrequests").iter().map(|c| c.name.clone()).collect();
    assert_eq!(
        names,
        vec!["url", "hits", "avg_site_visit", "country", "date", "ip", "owner"]
    );
    // the paper's example query
    let r = sinew.query("SELECT url FROM webrequests WHERE hits > 20").unwrap();
    assert_eq!(r.rows, vec![vec![Datum::Text("www.sample-site.com".into())]]);
}

#[test]
fn select_star_returns_logical_view() {
    let sinew = webrequests();
    let r = sinew.query("SELECT * FROM webrequests").unwrap();
    assert_eq!(r.columns.len(), 7);
    assert_eq!(r.rows.len(), 2);
    // row 1 has no 'owner': NULL in the logical view
    let owner_idx = r.columns.iter().position(|c| c == "owner").unwrap();
    assert_eq!(r.rows[0][owner_idx], Datum::Null);
    assert_eq!(r.rows[1][owner_idx], Datum::Text("John P. Smith".into()));
}

#[test]
fn rewriter_emits_extraction_for_virtual_columns() {
    let sinew = webrequests();
    let sql = sinew
        .rewrite("SELECT url, owner FROM webrequests WHERE ip IS NOT NULL")
        .unwrap();
    // three virtual columns → three single-key calls, none fused
    assert_eq!(sql.matches("extract_key_").count(), 3, "rewritten: {sql}");
    assert!(!sql.contains("extract_keys"), "rewritten: {sql}");
    assert!(sql.contains("extract_key_t(webrequests.data, 'owner')"), "rewritten: {sql}");
    assert!(sql.contains("extract_key_t(webrequests.data, 'ip') IS NOT NULL"), "rewritten: {sql}");
    let r = sinew.query("SELECT url, owner FROM webrequests WHERE ip IS NOT NULL").unwrap();
    assert_eq!(r.rows.len(), 1);
    assert_eq!(r.rows[0][1], Datum::Text("John P. Smith".into()));
}

#[test]
fn nested_keys_are_dotted_columns() {
    let sinew = Sinew::in_memory();
    sinew.create_collection("tweets").unwrap();
    sinew
        .load_jsonl(
            "tweets",
            r#"
            {"id_str": "1", "user": {"id": 7, "lang": "en"}, "retweet_count": 3}
            {"id_str": "2", "user": {"id": 8, "lang": "msa"}, "retweet_count": 1}
            "#,
        )
        .unwrap();
    let r = sinew
        .query(r#"SELECT "user.id" FROM tweets WHERE "user.lang" = 'msa'"#)
        .unwrap();
    assert_eq!(r.rows, vec![vec![Datum::Int(8)]]);
    // the parent object remains referenceable by its original key
    let r = sinew.query(r#"SELECT "user" FROM tweets WHERE id_str = '1'"#).unwrap();
    assert!(matches!(&r.rows[0][0], Datum::Bytea(_)));
}

#[test]
fn multi_typed_keys_filter_by_type() {
    let sinew = Sinew::in_memory();
    sinew.create_collection("t").unwrap();
    sinew
        .load_jsonl(
            "t",
            r#"
            {"dyn1": 5, "tag": "int"}
            {"dyn1": "five", "tag": "str"}
            {"dyn1": true, "tag": "bool"}
            "#,
        )
        .unwrap();
    // numeric context: only the integer value matches; no error is raised
    let r = sinew.query("SELECT tag FROM t WHERE dyn1 BETWEEN 1 AND 10").unwrap();
    assert_eq!(r.rows, vec![vec![Datum::Text("int".into())]]);
    // text context
    let r = sinew.query("SELECT tag FROM t WHERE dyn1 = 'five'").unwrap();
    assert_eq!(r.rows, vec![vec![Datum::Text("str".into())]]);
    // untyped projection: downcast to text
    let r = sinew.query("SELECT dyn1 FROM t ORDER BY tag").unwrap();
    let texts: Vec<String> = r.rows.iter().map(|row| row[0].display_text()).collect();
    assert_eq!(texts, vec!["true", "5", "five"]);
}

#[test]
fn analyzer_materializes_dense_high_cardinality_keys() {
    let sinew = Sinew::in_memory();
    sinew.create_collection("logs").unwrap();
    let docs: String = (0..500)
        .map(|i| {
            let sparse = if i % 100 == 0 {
                format!(", \"rare\": \"r{i}\"")
            } else {
                String::new()
            };
            format!("{{\"url\": \"site-{i}.com\", \"code\": {}{}}}\n", i % 3, sparse)
        })
        .collect();
    sinew.load_jsonl("logs", &docs).unwrap();

    let policy = AnalyzerPolicy { density_threshold: 0.6, cardinality_threshold: 200, sample_rows: 10_000 };
    let decisions = sinew.run_analyzer("logs", &policy).unwrap();
    // url: dense + 500 distinct → materialize. code: dense but 3 distinct →
    // stays virtual. rare: sparse → stays virtual.
    assert_eq!(decisions.len(), 1);
    let schema = sinew.logical_schema("logs");
    let url = schema.iter().find(|c| c.name == "url").unwrap();
    assert!(url.materialized && url.dirty);
    let code = schema.iter().find(|c| c.name == "code").unwrap();
    assert!(!code.materialized);

    // queries remain correct while dirty (COALESCE path)
    let r = sinew.query("SELECT COUNT(*) FROM logs WHERE url = 'site-42.com'").unwrap();
    assert_eq!(r.scalar(), Some(&Datum::Int(1)));
    let sql = sinew.rewrite("SELECT url FROM logs").unwrap();
    assert!(sql.contains("coalesce"), "dirty column must COALESCE: {sql}");

    // materialize fully, then the rewrite uses the bare column
    let report = sinew.materialize_until_clean("logs").unwrap();
    assert_eq!(report.values_moved, 500);
    assert_eq!(report.columns_cleaned, vec!["url".to_string()]);
    let sql = sinew.rewrite("SELECT url FROM logs").unwrap();
    assert!(!sql.contains("extract_key"), "clean column is physical: {sql}");
    let r = sinew.query("SELECT COUNT(*) FROM logs WHERE url = 'site-42.com'").unwrap();
    assert_eq!(r.scalar(), Some(&Datum::Int(1)));
}

#[test]
fn materializer_is_incremental_and_queries_work_mid_flight() {
    let sinew = Sinew::in_memory();
    sinew.create_collection("c").unwrap();
    let docs: String = (0..300).map(|i| format!("{{\"k\": \"v{i}\"}}\n")).collect();
    sinew.load_jsonl("c", &docs).unwrap();
    let policy = AnalyzerPolicy { density_threshold: 0.5, cardinality_threshold: 100, sample_rows: 1000 };
    sinew.run_analyzer("c", &policy).unwrap();

    // one bounded step: partially materialized
    let r1 = sinew.materialize_step("c", StepBudget { rows: 100 }).unwrap();
    assert_eq!(r1.values_moved, 100);
    assert!(r1.columns_cleaned.is_empty());
    // mid-flight query sees all 300 values
    let r = sinew.query("SELECT COUNT(*) FROM c WHERE k IS NOT NULL").unwrap();
    assert_eq!(r.scalar(), Some(&Datum::Int(300)));
    let r = sinew.query("SELECT COUNT(*) FROM c WHERE k = 'v250'").unwrap();
    assert_eq!(r.scalar(), Some(&Datum::Int(1)));

    // finish the pass
    let r2 = sinew.materialize_step("c", StepBudget { rows: 100 }).unwrap();
    let r3 = sinew.materialize_step("c", StepBudget { rows: 100 }).unwrap();
    assert_eq!(r1.values_moved + r2.values_moved + r3.values_moved, 300);
    assert_eq!(r3.columns_cleaned, vec!["k".to_string()]);
}

#[test]
fn loads_after_materialization_mark_dirty_again() {
    let sinew = Sinew::in_memory();
    sinew.create_collection("c").unwrap();
    let docs: String = (0..300).map(|i| format!("{{\"k\": \"v{i}\"}}\n")).collect();
    sinew.load_jsonl("c", &docs).unwrap();
    let policy = AnalyzerPolicy { density_threshold: 0.5, cardinality_threshold: 100, sample_rows: 1000 };
    sinew.run_analyzer("c", &policy).unwrap();
    sinew.materialize_until_clean("c").unwrap();

    // new data lands in the reservoir and re-dirties the column
    sinew.load_jsonl("c", "{\"k\": \"fresh\"}\n").unwrap();
    let k = sinew.logical_schema("c").into_iter().find(|c| c.name == "k").unwrap();
    assert!(k.materialized && k.dirty);
    // COALESCE keeps results correct before the next materializer pass
    let r = sinew.query("SELECT COUNT(*) FROM c WHERE k = 'fresh'").unwrap();
    assert_eq!(r.scalar(), Some(&Datum::Int(1)));
    sinew.materialize_until_clean("c").unwrap();
    let r = sinew.query("SELECT COUNT(*) FROM c WHERE k = 'fresh'").unwrap();
    assert_eq!(r.scalar(), Some(&Datum::Int(1)));
}

#[test]
fn dematerialization_returns_values_to_reservoir() {
    let sinew = Sinew::in_memory();
    sinew.create_collection("c").unwrap();
    let docs: String = (0..300).map(|i| format!("{{\"k\": \"v{i}\"}}\n")).collect();
    sinew.load_jsonl("c", &docs).unwrap();
    let policy = AnalyzerPolicy { density_threshold: 0.5, cardinality_threshold: 100, sample_rows: 1000 };
    sinew.run_analyzer("c", &policy).unwrap();
    sinew.materialize_until_clean("c").unwrap();

    // tighten the policy so k no longer qualifies → dematerialize
    let strict = AnalyzerPolicy { density_threshold: 0.5, cardinality_threshold: 10_000, sample_rows: 1000 };
    let decisions = sinew.run_analyzer("c", &strict).unwrap();
    assert!(matches!(
        decisions.as_slice(),
        [sinew_core::AnalyzerDecision::Dematerialize { .. }]
    ));
    sinew.materialize_until_clean("c").unwrap();
    let k = sinew.logical_schema("c").into_iter().find(|c| c.name == "k").unwrap();
    assert!(!k.materialized && !k.dirty);
    // the physical column is gone; values are back in the reservoir
    assert!(sinew.db().schema("c").unwrap().index_of("k").is_none());
    let r = sinew.query("SELECT COUNT(*) FROM c WHERE k = 'v7'").unwrap();
    assert_eq!(r.scalar(), Some(&Datum::Int(1)));
}

#[test]
fn update_virtual_column_edits_reservoir() {
    // the paper's §6.6 random-update task shape
    let sinew = Sinew::in_memory();
    sinew.create_collection("test").unwrap();
    sinew
        .load_jsonl(
            "test",
            r#"
            {"sparse_588": "old", "sparse_589": "GBRDCMBQGA======"}
            {"sparse_589": "other"}
            "#,
        )
        .unwrap();
    let r = sinew
        .query("UPDATE test SET sparse_588 = 'DUMMY' WHERE sparse_589 = 'GBRDCMBQGA======'")
        .unwrap();
    assert_eq!(r.affected, 1);
    let r = sinew.query("SELECT sparse_588 FROM test WHERE sparse_589 = 'GBRDCMBQGA======'").unwrap();
    assert_eq!(r.rows, vec![vec![Datum::Text("DUMMY".into())]]);
    // the other row gained no key
    let r = sinew.query("SELECT COUNT(*) FROM test WHERE sparse_588 IS NOT NULL").unwrap();
    assert_eq!(r.scalar(), Some(&Datum::Int(1)));
}

#[test]
fn update_physical_and_dirty_columns() {
    let sinew = Sinew::in_memory();
    sinew.create_collection("c").unwrap();
    let docs: String = (0..300).map(|i| format!("{{\"k\": \"v{i}\", \"x\": {i}}}\n")).collect();
    sinew.load_jsonl("c", &docs).unwrap();
    let policy = AnalyzerPolicy { density_threshold: 0.5, cardinality_threshold: 100, sample_rows: 1000 };
    sinew.run_analyzer("c", &policy).unwrap();
    // leave k dirty (partially materialized)
    sinew.materialize_step("c", StepBudget { rows: 50 }).unwrap();
    let r = sinew.query("UPDATE c SET k = 'patched' WHERE x = 200").unwrap();
    assert_eq!(r.affected, 1);
    let r = sinew.query("SELECT COUNT(*) FROM c WHERE k = 'patched'").unwrap();
    assert_eq!(r.scalar(), Some(&Datum::Int(1)));
    // still correct after the materializer finishes
    sinew.materialize_until_clean("c").unwrap();
    let r = sinew.query("SELECT COUNT(*) FROM c WHERE k = 'patched'").unwrap();
    assert_eq!(r.scalar(), Some(&Datum::Int(1)));
}

#[test]
fn joins_over_logical_columns() {
    let sinew = Sinew::in_memory();
    sinew.create_collection("tweets").unwrap();
    sinew.create_collection("deletes").unwrap();
    sinew
        .load_jsonl(
            "tweets",
            r#"
            {"id_str": "a", "user": {"lang": "msa", "id": 1}}
            {"id_str": "b", "user": {"lang": "en", "id": 2}}
            "#,
        )
        .unwrap();
    sinew
        .load_jsonl(
            "deletes",
            r#"
            {"delete": {"status": {"id_str": "a", "user_id": 1}}}
            "#,
        )
        .unwrap();
    let r = sinew
        .query(
            r#"SELECT t1."user.id" FROM tweets t1, deletes d1
               WHERE t1.id_str = d1."delete.status.id_str" AND t1."user.lang" = 'msa'"#,
        )
        .unwrap();
    assert_eq!(r.rows, vec![vec![Datum::Int(1)]]);
}

#[test]
fn aggregation_over_virtual_columns() {
    let sinew = Sinew::in_memory();
    sinew.create_collection("tweets").unwrap();
    sinew
        .load_jsonl(
            "tweets",
            r#"
            {"retweet_count": 3, "user": {"id": 1}}
            {"retweet_count": 5, "user": {"id": 1}}
            {"retweet_count": 7, "user": {"id": 2}}
            "#,
        )
        .unwrap();
    let r = sinew
        .query(r#"SELECT SUM(retweet_count) FROM tweets GROUP BY "user.id" ORDER BY "user.id""#)
        .unwrap();
    // ORDER BY over the group key column
    assert_eq!(r.rows.len(), 2);
    let mut sums: Vec<i64> = r
        .rows
        .iter()
        .map(|row| row[0].clone())
        .map(|d| match d {
            Datum::Int(i) => i,
            other => panic!("{other:?}"),
        })
        .collect();
    sums.sort();
    assert_eq!(sums, vec![7, 8]);
    let r = sinew.query(r#"SELECT COUNT(DISTINCT "user.id") FROM tweets"#).unwrap();
    assert_eq!(r.scalar(), Some(&Datum::Int(2)));
}

#[test]
fn arrays_and_containment() {
    let sinew = Sinew::in_memory();
    sinew.create_collection("t").unwrap();
    sinew
        .load_jsonl(
            "t",
            r#"
            {"id": 1, "nested_arr": ["a", "b", "c"]}
            {"id": 2, "nested_arr": ["x", "y"]}
            "#,
        )
        .unwrap();
    let r = sinew
        .query("SELECT id FROM t WHERE array_contains(nested_arr, 'b')")
        .unwrap();
    assert_eq!(r.rows, vec![vec![Datum::Int(1)]]);
    let r = sinew.query("SELECT array_length(nested_arr) FROM t WHERE id = 2").unwrap();
    assert_eq!(r.scalar(), Some(&Datum::Int(2)));
}

#[test]
fn text_index_matches_function() {
    let sinew = Sinew::in_memory();
    sinew.create_collection("webrequests").unwrap();
    sinew
        .load_jsonl(
            "webrequests",
            r#"
            {"url": "www.sample-site.com", "owner": "John P. Smith"}
            {"url": "www.other.org", "owner": "Jane Doe"}
            "#,
        )
        .unwrap();
    sinew.enable_text_index("webrequests").unwrap();
    // the paper's sample query shape (§4.3)
    let r = sinew
        .query("SELECT url FROM webrequests WHERE matches('*', 'smith')")
        .unwrap();
    assert_eq!(r.rows, vec![vec![Datum::Text("www.sample-site.com".into())]]);
    // field-restricted search
    let r = sinew
        .query("SELECT url FROM webrequests WHERE matches('owner', 'jane')")
        .unwrap();
    assert_eq!(r.rows, vec![vec![Datum::Text("www.other.org".into())]]);
    // no hits on a different field
    let r = sinew
        .query("SELECT url FROM webrequests WHERE matches('url', 'jane')")
        .unwrap();
    assert!(r.rows.is_empty());
    // without an index, matches() errors cleanly
    let s2 = Sinew::in_memory();
    s2.create_collection("c").unwrap();
    s2.load_jsonl("c", "{\"a\": 1}\n").unwrap();
    assert!(matches!(
        s2.query("SELECT * FROM c WHERE matches('*', 'x')"),
        Err(DbError::Eval(_))
    ));
}

/// A load feeds the text index the rows it brought and reads no older row
/// again. So the index holds each document as it was loaded: an UPDATE
/// neither adds the new text nor retires the old.
#[test]
fn text_index_reads_each_row_once_however_many_loads_follow() {
    let sinew = Sinew::in_memory();
    sinew.create_collection("c").unwrap();
    sinew.enable_text_index("c").unwrap();
    sinew
        .load_jsonl("c", "{\"owner\": \"Ada Early\"}\n{\"owner\": \"Bob Early\", \"n\": 5}\n")
        .unwrap();
    sinew.load_jsonl("c", "{\"owner\": \"Cy Late\"}\n").unwrap();

    let owners = |query: &str| -> Vec<String> {
        let sql = format!("SELECT owner FROM c WHERE matches('*', '{query}')");
        sinew.query(&sql).unwrap().rows.iter().map(|r| r[0].display_text()).collect()
    };
    assert_eq!(owners("early"), ["Ada Early", "Bob Early"]);
    assert_eq!(owners("late"), ["Cy Late"]);

    sinew.query("UPDATE c SET owner = 'Ada Zed' WHERE owner = 'Ada Early'").unwrap();
    sinew.load_jsonl("c", "{\"owner\": \"Di Late\", \"n\": 5}\n").unwrap();
    assert_eq!(owners("late"), ["Cy Late", "Di Late"]);
    assert_eq!(owners("bob"), ["Bob Early"]);
    assert_eq!(owners("5"), ["Bob Early", "Di Late"]);
    // the third load did not re-read row 0
    assert!(owners("zed").is_empty());
    assert_eq!(owners("early"), ["Ada Zed", "Bob Early"]);
}

#[test]
fn unknown_keys_read_as_null_not_errors() {
    let sinew = webrequests();
    let r = sinew.query("SELECT never_seen FROM webrequests").unwrap();
    assert!(r.rows.iter().all(|row| row[0].is_null()));
    let r = sinew.query("SELECT COUNT(*) FROM webrequests WHERE never_seen = 'x'").unwrap();
    assert_eq!(r.scalar(), Some(&Datum::Int(0)));
}

#[test]
fn insert_into_collection_is_rejected() {
    let sinew = webrequests();
    assert!(matches!(
        sinew.query("INSERT INTO webrequests (url) VALUES ('x')"),
        Err(DbError::Schema(_))
    ));
}

#[test]
fn catalog_tables_are_queryable() {
    let sinew = webrequests();
    let r = sinew
        .query("SELECT key_name FROM _sinew_attributes WHERE key_type = 'integer'")
        .unwrap();
    assert_eq!(r.rows, vec![vec![Datum::Text("hits".into())]]);
    let r = sinew.query("SELECT COUNT(*) FROM _sinew_cols_webrequests").unwrap();
    assert_eq!(r.scalar(), Some(&Datum::Int(7)));
}

#[test]
fn delete_from_collection() {
    let sinew = webrequests();
    let r = sinew.query("DELETE FROM webrequests WHERE hits < 20").unwrap();
    assert_eq!(r.affected, 1);
    let r = sinew.query("SELECT COUNT(*) FROM webrequests").unwrap();
    assert_eq!(r.scalar(), Some(&Datum::Int(1)));
}

#[test]
fn explain_shows_rewritten_plan() {
    let sinew = webrequests();
    let plan = sinew.explain("SELECT DISTINCT url FROM webrequests").unwrap();
    assert!(plan.contains("Seq Scan on webrequests"), "{plan}");
    assert!(plan.contains("HashAggregate"), "{plan}");
}
