//! Focused tests of the rewriter's type-inference rules (paper §3.2.2):
//! which extraction function each query context selects, and how
//! physical/dirty/virtual column states change the emitted SQL.

use sinew_core::Sinew;

fn sinew_with(table: &str, jsonl: &str) -> Sinew {
    let s = Sinew::in_memory();
    s.create_collection(table).unwrap();
    s.load_jsonl(table, jsonl).unwrap();
    s
}

/// The rewritten text, which never holds a multi-key extraction: each
/// reference gets its own single-key call (DESIGN.md §25).
fn rewrite(s: &Sinew, sql: &str) -> String {
    let out = s.rewrite(sql).unwrap();
    assert!(!out.contains("extract_keys"), "{out}");
    out
}

#[test]
fn string_literal_context_extracts_text() {
    // one call per reference: 'k' extracts text, 'n' its one known type
    let s = sinew_with("t", r#"{"k": "v", "n": 5}"#);
    let sql = rewrite(&s, "SELECT n FROM t WHERE k = 'v'");
    assert!(sql.contains("extract_key_t(t.data, 'k') = 'v'"), "{sql}");
    assert!(sql.contains("extract_key_i(t.data, 'n')"), "{sql}");
}

#[test]
fn numeric_literal_context_extracts_num() {
    let s = sinew_with("t", r#"{"k": "v", "n": 5}"#);
    let sql = rewrite(&s, "SELECT k FROM t WHERE n > 3");
    assert!(sql.contains("extract_key_num(t.data, 'n') > 3"), "{sql}");
    assert!(sql.contains("extract_key_t(t.data, 'k')"), "{sql}");
    let sql = rewrite(&s, "SELECT k FROM t WHERE n BETWEEN 1 AND 9");
    assert!(sql.contains("extract_key_num(t.data, 'n') BETWEEN 1 AND 9"), "{sql}");
    assert!(sql.contains("extract_key_t(t.data, 'k')"), "{sql}");
}

#[test]
fn like_context_extracts_text() {
    let s = sinew_with("t", r#"{"k": "v"}"#);
    let sql = rewrite(&s, "SELECT * FROM t WHERE k LIKE 'v%'");
    assert!(sql.contains("extract_key_t(t.data, 'k')"), "{sql}");
}

#[test]
fn unique_type_rule_for_untyped_contexts() {
    // single registered type → typed extraction even without context
    let s = sinew_with("t", r#"{"i": 5, "f": 1.5, "b": true, "s": "x"}"#);
    let sql = rewrite(&s, "SELECT i, f, b, s FROM t");
    for call in [
        "extract_key_i(t.data, 'i')",
        "extract_key_f(t.data, 'f')",
        "extract_key_b(t.data, 'b')",
        "extract_key_t(t.data, 's')",
    ] {
        assert!(sql.contains(call), "{sql}");
    }
}

#[test]
fn multi_typed_untyped_context_downcasts_to_text() {
    let s = sinew_with("t", "{\"dyn\": 5}\n{\"dyn\": \"five\"}\n");
    let sql = rewrite(&s, "SELECT dyn FROM t");
    assert!(sql.contains("extract_key_txt(t.data, 'dyn')"), "{sql}");
}

#[test]
fn aggregate_context_extracts_num() {
    let s = sinew_with("t", r#"{"n": 5, "g": "a"}"#);
    let sql = rewrite(&s, "SELECT SUM(n) FROM t GROUP BY g");
    assert!(sql.contains("sum(extract_key_num(t.data, 'n'))"), "{sql}");
    assert!(sql.contains("GROUP BY extract_key_t(t.data, 'g')"), "{sql}");
}

#[test]
fn array_function_context_extracts_array() {
    let s = sinew_with("t", r#"{"arr": [1, 2]}"#);
    let sql = rewrite(&s, "SELECT * FROM t WHERE array_contains(arr, 1)");
    assert!(sql.contains("extract_key_arr(t.data, 'arr')"), "{sql}");
}

#[test]
fn bare_boolean_predicate_extracts_bool() {
    let s = sinew_with("t", r#"{"flag": true, "n": 1}"#);
    let sql = rewrite(&s, "SELECT n FROM t WHERE flag");
    assert!(sql.contains("WHERE extract_key_b(t.data, 'flag')"), "{sql}");
    assert!(sql.contains("extract_key_i(t.data, 'n')"), "{sql}");
    let r = s.query("SELECT n FROM t WHERE flag").unwrap();
    assert_eq!(r.rows.len(), 1);
}

#[test]
fn numeric_join_keys_extract_num_text_otherwise() {
    let s = Sinew::in_memory();
    s.create_collection("a").unwrap();
    s.create_collection("b").unwrap();
    s.load_jsonl("a", r#"{"n": 1, "s": "x"}"#).unwrap();
    s.load_jsonl("b", r#"{"m": 1, "t": "x"}"#).unwrap();
    let sql = rewrite(&s, "SELECT COUNT(*) FROM a, b WHERE a.n = b.m");
    assert!(sql.contains("extract_key_num(a.data, 'n')"), "{sql}");
    assert!(sql.contains("extract_key_num(b.data, 'm')"), "{sql}");
    let sql = rewrite(&s, "SELECT COUNT(*) FROM a, b WHERE a.s = b.t");
    assert!(sql.contains("extract_key_t(a.data, 's')"), "{sql}");
}

#[test]
fn physical_dirty_virtual_column_forms() {
    use sinew_core::AnalyzerPolicy;
    let s = Sinew::in_memory();
    s.create_collection("t").unwrap();
    let docs: String = (0..300).map(|i| format!("{{\"k\": \"v{i}\"}}\n")).collect();
    s.load_jsonl("t", &docs).unwrap();
    // virtual
    assert!(rewrite(&s, "SELECT k FROM t").contains("extract_key_t"));
    // dirty (marked, not yet moved)
    let policy =
        AnalyzerPolicy { density_threshold: 0.5, cardinality_threshold: 100, sample_rows: 1000 };
    s.run_analyzer("t", &policy).unwrap();
    let sql = rewrite(&s, "SELECT k FROM t");
    assert!(sql.contains("coalesce(t.k, extract_key_t(t.data, 'k'))"), "{sql}");
    // clean physical
    s.materialize_until_clean("t").unwrap();
    let sql = rewrite(&s, "SELECT k FROM t");
    assert!(!sql.contains("extract_key"), "{sql}");
    assert!(sql.contains("t.k"), "{sql}");
}

#[test]
fn materialized_parent_object_sources_children() {
    use sinew_core::AnalyzerPolicy;
    let s = Sinew::in_memory();
    s.create_collection("t").unwrap();
    let docs: String =
        (0..300).map(|i| format!("{{\"u\": {{\"id\": {i}, \"zz\": \"s{}\"}}}}\n", i % 3)).collect();
    s.load_jsonl("t", &docs).unwrap();
    // materialize only the parent object (cardinality keeps u.zz virtual)
    let policy =
        AnalyzerPolicy { density_threshold: 0.5, cardinality_threshold: 100, sample_rows: 1000 };
    s.run_analyzer("t", &policy).unwrap();
    s.materialize_until_clean("t").unwrap();
    let schema = s.logical_schema("t");
    assert!(schema.iter().any(|c| c.name == "u" && c.materialized && !c.dirty));
    assert!(schema.iter().any(|c| c.name == "u.zz" && !c.materialized));
    // the virtual child now extracts from the parent's column, not data
    let sql = rewrite(&s, r#"SELECT "u.zz" FROM t"#);
    assert!(sql.contains("extract_key_t(t.u, 'u.zz')"), "{sql}");
    // and it works
    let r = s.query(r#"SELECT COUNT(*) FROM t WHERE "u.zz" = 's1'"#).unwrap();
    assert_eq!(r.rows[0][0], sinew_rdbms::Datum::Int(100));
}

#[test]
fn update_forms_for_each_column_state() {
    use sinew_core::AnalyzerPolicy;
    let s = Sinew::in_memory();
    s.create_collection("t").unwrap();
    let docs: String = (0..300).map(|i| format!("{{\"k\": \"v{i}\", \"rare\": 1}}\n")).collect();
    s.load_jsonl("t", &docs).unwrap();
    // virtual target: reservoir edit
    let stmt = s.rewrite("UPDATE t SET k = 'x' WHERE rare = 1").unwrap();
    assert!(stmt.contains("set_key(data, 'k', 'x')"), "{stmt}");
    // physical clean target: plain assignment
    let policy =
        AnalyzerPolicy { density_threshold: 0.5, cardinality_threshold: 100, sample_rows: 1000 };
    s.run_analyzer("t", &policy).unwrap();
    s.materialize_until_clean("t").unwrap();
    let stmt = s.rewrite("UPDATE t SET k = 'x' WHERE rare = 1").unwrap();
    assert!(stmt.contains("SET k = 'x'"), "{stmt}");
    assert!(!stmt.contains("set_key"), "{stmt}");
}

#[test]
fn non_collection_tables_pass_through() {
    let s = sinew_with("t", r#"{"k": 1}"#);
    s.db().execute("CREATE TABLE raw (a int, b text)").unwrap();
    s.db().execute("INSERT INTO raw VALUES (1, 'x')").unwrap();
    // queries on raw tables are untouched by the rewriter
    let sql = rewrite(&s, "SELECT a, b FROM raw WHERE a = 1");
    assert!(!sql.contains("extract_key"), "{sql}");
    let r = s.query("SELECT b FROM raw WHERE a = 1").unwrap();
    assert_eq!(r.rows[0][0], sinew_rdbms::Datum::Text("x".into()));
    // and collections can join against raw tables
    let r = s
        .query("SELECT raw.b FROM t, raw WHERE t.k = raw.a")
        .unwrap();
    assert_eq!(r.rows.len(), 1);
}
