//! One materializer pass per row (DESIGN.md §36): a step reads each row
//! once and writes it once, moving every dirty attribute whose cursor has
//! not passed the row, a parent object before the children that read from
//! its column. Only scalar columns get an auto-index.

use sinew_core::{AnalyzerPolicy, AttrType, Sinew, StepBudget};
use sinew_json::Value;
use sinew_nobench::{generate, NoBenchConfig, QueryParams};
use sinew_rdbms::Datum;
use std::cmp::Ordering;

const T: &str = "nobench";
const N: u64 = 1_024;

fn nobench() -> (Sinew, Vec<Value>) {
    let docs = generate(N, &NoBenchConfig::default());
    let sinew = Sinew::in_memory();
    sinew.create_collection(T).unwrap();
    sinew.load_docs(T, &docs).unwrap();
    (sinew, docs)
}

/// `q`'s rows, checked against the plan-free reference over its rewrite
/// (DESIGN.md §31), in a canonical order so two states can be compared.
fn answer(sinew: &Sinew, q: &str) -> Vec<Vec<Datum>> {
    let physical = sinew.rewrite(q).unwrap();
    let got = sinew.query(q).map(|r| r.rows);
    let want = sinew_reference::query(sinew.db(), &physical);
    if let Err(e) = sinew_reference::agree(&got, &want) {
        panic!("{q} (rewritten: {physical}) disagrees with the reference: {e}");
    }
    let mut rows = got.unwrap();
    rows.sort_by(|a, b| {
        a.iter().zip(b).map(|(x, y)| x.total_cmp(y)).find(|o| o.is_ne()).unwrap_or(Ordering::Equal)
    });
    rows
}

fn count(sinew: &Sinew, sql: &str) -> i64 {
    match sinew.query(sql).unwrap().rows[0][0] {
        Datum::Int(n) => n,
        ref other => panic!("{sql}: expected an integer, got {other:?}"),
    }
}

/// Documents of promoted attributes: each is one value to move.
fn promoted_values(sinew: &Sinew, table: &str) -> u64 {
    sinew.logical_schema(table).iter().filter(|c| c.materialized).map(|c| c.count).sum()
}

#[test]
fn a_full_materialization_writes_one_version_per_row() {
    let (sinew, _) = nobench();
    let decisions = sinew.run_analyzer(T, &AnalyzerPolicy::default()).unwrap();
    assert!(decisions.len() >= 5, "promoted only {decisions:?}");
    let before = sinew.db().exec_stats().versions_created;
    let done = sinew.materialize_until_clean(T).unwrap();
    assert_eq!(sinew.db().exec_stats().versions_created - before, N);
    assert_eq!(done.rows_scanned, N, "rows are counted once, not once per column");
    assert_eq!(done.values_moved, promoted_values(&sinew, T));
    assert_eq!(done.columns_cleaned.len(), decisions.len());
    assert!(sinew.logical_schema(T).iter().all(|c| !c.dirty));
    sinew.db().check_derived(T).unwrap();
}

#[test]
fn a_parent_object_and_its_children_move_in_one_pass_both_ways() {
    let (sinew, docs) = nobench();
    let p = QueryParams::derive(&docs, &NoBenchConfig::default());
    let queries = [
        r#"SELECT "nested_obj.str", "nested_obj.num" FROM nobench"#.to_string(),
        format!(
            r#"SELECT l.str1, r.num FROM nobench l, nobench r WHERE l."nested_obj.str" = r.str1 AND l.num BETWEEN {} AND {}"#,
            p.join_lo,
            p.join_lo + p.join_width
        ),
    ];
    let before: Vec<_> = queries.iter().map(|q| answer(&sinew, q)).collect();
    assert!(before.iter().all(|rows| !rows.is_empty()), "Q2 and Q11 return rows");

    sinew.run_analyzer(T, &AnalyzerPolicy::default()).unwrap();
    let schema = sinew.logical_schema(T);
    for name in ["nested_obj", "nested_obj.str", "nested_obj.num"] {
        let col = schema.iter().find(|c| c.name == name).unwrap();
        assert!(col.materialized && col.dirty, "{name} is not promoted");
    }
    sinew.materialize_until_clean(T).unwrap();
    sinew.db().check_derived(T).unwrap();

    // The children sit in their own columns, and the parent's column holds
    // the object without them.
    let rep = sinew.storage_report(T).unwrap();
    let column = |name: &str| {
        rep.physical_columns.iter().find(|c| c.name == name).unwrap().column_name.clone()
    };
    let (parent, child_str, child_num) =
        (column("nested_obj"), column("nested_obj.str"), column("nested_obj.num"));
    let child_ids: Vec<u32> = ["nested_obj.str", "nested_obj.num"]
        .iter()
        .flat_map(|n| sinew.catalog().ids_for_name(n))
        .map(|(id, _)| id)
        .collect();
    let sql = format!(r#"SELECT "{parent}", "{child_str}", "{child_num}" FROM {T}"#);
    let rows = sinew.db().execute(&sql).unwrap().rows;
    assert_eq!(rows.len() as u64, N);
    for row in &rows {
        assert!(!row[1].is_null() && !row[2].is_null(), "a child stayed behind: {row:?}");
        let Datum::Bytea(object) = &row[0] else { panic!("no parent object: {row:?}") };
        for (id, _) in sinew_serial::sinew::iter_raw(object).unwrap() {
            assert!(!child_ids.contains(&id), "the parent object still holds child {id}");
        }
    }
    let after: Vec<_> = queries.iter().map(|q| answer(&sinew, q)).collect();
    assert_eq!(before, after);

    // Demoted together, the parent object goes back to the reservoir
    // before its children go back into it: a child restored first would
    // be overwritten by the parent's object, which no longer holds it.
    let demote = AnalyzerPolicy { cardinality_threshold: u64::MAX, ..AnalyzerPolicy::default() };
    sinew.run_analyzer(T, &demote).unwrap();
    let done = sinew.materialize_until_clean(T).unwrap();
    assert!(done.columns_deferred.is_empty(), "{done:?}");
    assert!(sinew.logical_schema(T).iter().all(|c| !c.materialized && !c.dirty));
    sinew.db().check_derived(T).unwrap();
    let demoted: Vec<_> = queries.iter().map(|q| answer(&sinew, q)).collect();
    assert_eq!(before, demoted);
}

#[test]
fn a_key_that_turns_dirty_in_mid_pass_starts_at_row_zero() {
    let sinew = Sinew::in_memory();
    sinew.create_collection("c").unwrap();
    let first: String = (0..600).map(|i| format!("{{\"k\": \"v{i}\", \"n\": {i}}}\n")).collect();
    sinew.load_jsonl("c", &first).unwrap();
    let policy =
        AnalyzerPolicy { density_threshold: 0.3, cardinality_threshold: 100, sample_rows: 10_000 };
    sinew.run_analyzer("c", &policy).unwrap();
    let half = sinew.materialize_step("c", StepBudget { rows: 300 }).unwrap();
    assert_eq!(half.rows_scanned, 300);
    assert!(half.columns_cleaned.is_empty());

    // More documents, one key of their own; the analyzer promotes it while
    // `k` and `n` are half way through their pass.
    let second: String =
        (0..400).map(|i| format!("{{\"k\": \"w{i}\", \"late\": {i}}}\n")).collect();
    sinew.load_jsonl("c", &second).unwrap();
    sinew.run_analyzer("c", &policy).unwrap();
    let late = sinew.logical_schema("c").into_iter().find(|c| c.name == "late").unwrap();
    assert!(late.materialized && late.dirty);

    let done = sinew.materialize_until_clean("c").unwrap();
    assert_eq!(done.rows_scanned, 1_000, "`late` starts at row 0, the others ride along");
    assert!(sinew.logical_schema("c").iter().all(|c| !c.dirty));
    assert_eq!(half.values_moved + done.values_moved, promoted_values(&sinew, "c"));
    sinew.db().check_derived("c").unwrap();
    assert_eq!(count(&sinew, "SELECT COUNT(*) FROM c WHERE k IS NOT NULL"), 1_000);
    assert_eq!(count(&sinew, "SELECT COUNT(*) FROM c WHERE n IS NOT NULL"), 600);
    assert_eq!(count(&sinew, "SELECT COUNT(*) FROM c WHERE late IS NOT NULL"), 400);
    for q in ["SELECT k, n, late FROM c", "SELECT COUNT(*) FROM c WHERE late >= 100 AND n IS NULL"]
    {
        answer(&sinew, q);
    }
}

#[test]
fn a_promotion_completes_beside_a_deferred_demotion() {
    let sinew = Sinew::in_memory();
    sinew.create_collection("c").unwrap();
    let first: String = (0..20).map(|i| format!("{{\"k\": \"v{i}\"}}\n")).collect();
    sinew.load_jsonl("c", &first).unwrap();
    let policy =
        AnalyzerPolicy { density_threshold: 0.5, cardinality_threshold: 10, sample_rows: 1_000 };
    sinew.run_analyzer("c", &policy).unwrap();
    sinew.materialize_until_clean("c").unwrap();
    // Strand one value: row 0's "k" now lives only in its column.
    sinew.db().update_row("c", 0, &[("data", Datum::Null)]).unwrap();

    // `k` falls below the density bar and `j` clears it: one demotion and
    // one promotion, driven by the same step.
    let second: String = (0..40).map(|i| format!("{{\"j\": {i}}}\n")).collect();
    sinew.load_jsonl("c", &second).unwrap();
    sinew.run_analyzer("c", &policy).unwrap();
    let step = sinew.materialize_step("c", StepBudget { rows: 1_000 }).unwrap();
    assert_eq!(step.rows_scanned, 60);
    assert_eq!(step.columns_cleaned, vec!["j".to_string()]);
    assert_eq!(step.columns_deferred, vec!["k".to_string()]);
    assert_eq!(step.values_stranded, 1);
    assert_eq!(step.values_moved, 40 + 19);

    let schema = sinew.logical_schema("c");
    let state = |name: &str| {
        let c = schema.iter().find(|c| c.name == name).unwrap();
        (c.materialized, c.dirty)
    };
    assert_eq!(state("j"), (true, false));
    assert_eq!(state("k"), (false, true));
    sinew.db().check_derived("c").unwrap();
    assert_eq!(count(&sinew, "SELECT COUNT(*) FROM c WHERE k IS NOT NULL"), 20);
    assert_eq!(count(&sinew, "SELECT COUNT(*) FROM c WHERE k = 'v0'"), 1);
    assert_eq!(count(&sinew, "SELECT COUNT(*) FROM c WHERE j IS NOT NULL"), 40);
}

#[test]
fn object_and_array_columns_get_no_auto_index() {
    let (sinew, _) = nobench();
    sinew.run_analyzer(T, &AnalyzerPolicy::default()).unwrap();
    sinew.materialize_until_clean(T).unwrap();
    let rep = sinew.storage_report(T).unwrap();
    let nested: Vec<_> = rep
        .physical_columns
        .iter()
        .filter(|c| matches!(c.ty, AttrType::Object | AttrType::Array))
        .collect();
    assert!(nested.iter().any(|c| c.ty == AttrType::Object), "{:?}", rep.physical_columns);
    assert!(nested.iter().any(|c| c.ty == AttrType::Array), "{:?}", rep.physical_columns);
    for c in &nested {
        assert!(
            rep.indexes.iter().all(|ix| ix.column != c.column_name),
            "{} has an auto-index: {:?}",
            c.name,
            rep.indexes
        );
    }
    // the scalar columns that clear the cardinality bar still get theirs
    assert!(rep.indexes.iter().any(|ix| ix.column == "str1"), "{:?}", rep.indexes);
    assert_eq!(rep.metrics.materializer_indexes_created, rep.indexes.len() as u64);
}
