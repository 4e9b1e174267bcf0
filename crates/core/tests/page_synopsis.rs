//! Page pruning for virtual keys (DESIGN.md §32, §33): each heap page
//! keeps a superset of the attribute ids of every document version placed
//! on it. A scan skips the pages that lack every id of a filter conjunct
//! that fails over a NULL reservoir, and serves the rows of a page that
//! lacks every id its statement reads with a NULL reservoir, unread.
//!
//! Every case runs against a twin collection holding the same documents in
//! a database whose tagger tags no column — so its heap keeps no synopsis
//! and prunes nothing — and every `SELECT` against the plan-free reference
//! evaluator, at `exec_threads` {1, 2} × `block_rows` {1, 1024}. The last
//! case kills a writer mid-log (`WalConfig::crash_after`) and checks that
//! `Sinew::open` rebuilds the synopsis from the recovered pages.

use sinew_core::{AnalyzerPolicy, Sinew};
use sinew_json::Value;
use sinew_nobench::gen::{generate, NoBenchConfig};
use sinew_nobench::queries::QueryParams;
use sinew_rdbms::{Database, Datum, DbResult, ExecLimits, Tagger, WalConfig};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Arc;

const T: &str = "nobench";
const DOCS: u64 = 2_000;
const LIMITS: [(usize, usize); 4] = [(1, 1), (1, 1024), (2, 1), (2, 1024)];

/// NoBench documents with a rare nested object (`rare.x`) and a rare key
/// that is an integer in some documents and a float in others (`mixed`),
/// every 250th document.
fn docs(n: u64) -> Vec<Value> {
    let mut docs = generate(n, &NoBenchConfig::default());
    for (i, doc) in docs.iter_mut().enumerate().step_by(250) {
        let Value::Object(pairs) = doc else { unreachable!() };
        let rare = Value::Object(vec![("x".into(), Value::Int(i as i64))]);
        pairs.push(("rare".into(), rare));
        let mixed = if i % 500 == 0 { Value::Int(i as i64) } else { Value::Float(i as f64 + 0.5) };
        pairs.push(("mixed".into(), mixed));
    }
    docs
}

/// Make `sinew`'s database tag a column no table has: every heap drops its
/// synopsis and no scan skips a page.
fn untag(sinew: &Sinew) {
    let none: Tagger = Arc::new(|_: &[u8], _: &mut dyn FnMut(u32)| true);
    sinew.db().register_tagger("no_such_column", none).unwrap();
    assert_eq!(sinew.db().table_synopsis_bytes(T).unwrap(), 0);
}

/// The collection over `docs`, and its untagged twin.
fn pair(docs: &[Value]) -> (Sinew, Sinew) {
    let build = || {
        let s = Sinew::in_memory();
        s.create_collection(T).unwrap();
        s.load_docs(T, docs).unwrap();
        s
    };
    let (tagged, twin) = (build(), build());
    untag(&twin);
    assert!(tagged.db().table_synopsis_bytes(T).unwrap() > 0);
    (tagged, twin)
}

fn set_limits(sinew: &Sinew, (exec_threads, block_rows): (usize, usize)) {
    sinew.db().set_exec_limits(ExecLimits { exec_threads, block_rows, ..ExecLimits::default() });
}

fn skipped(sinew: &Sinew) -> u64 {
    sinew.db().exec_stats().scan_pages_skipped
}

fn served(sinew: &Sinew) -> u64 {
    sinew.db().exec_stats().scan_pages_served
}

fn rows(r: DbResult<sinew_rdbms::QueryResult>, sql: &str) -> Vec<Vec<Datum>> {
    r.unwrap_or_else(|e| panic!("{sql}: {e}")).rows
}

/// Run `sql` on both collections at every limit: the rows equal the
/// twin's, and the reference's answer to the rewritten statement. Returns
/// the pages the tagged collection skipped at each limit.
fn check_select(tagged: &Sinew, twin: &Sinew, sql: &str) -> Vec<u64> {
    check_counting(tagged, twin, sql, skipped)
}

/// [`check_select`], returning the pages the tagged collection served.
fn check_served(tagged: &Sinew, twin: &Sinew, sql: &str) -> Vec<u64> {
    check_counting(tagged, twin, sql, served)
}

/// [`check_select`], counting pages with `pages`.
fn check_counting(tagged: &Sinew, twin: &Sinew, sql: &str, pages: fn(&Sinew) -> u64) -> Vec<u64> {
    let physical = tagged.rewrite(sql).unwrap();
    let want = sinew_reference::query(tagged.db(), &physical);
    let twin_before = pages(twin);
    let mut per_limit = Vec::new();
    for limits in LIMITS {
        set_limits(tagged, limits);
        set_limits(twin, limits);
        let before = pages(tagged);
        let got = rows(tagged.query(sql), sql);
        per_limit.push(pages(tagged) - before);
        assert_eq!(got, rows(twin.query(sql), sql), "{sql} at {limits:?}: the twin differs");
        if let Err(e) = sinew_reference::agree(&Ok(got), &want) {
            panic!("{sql} at {limits:?} (rewritten: {physical}) disagrees with the reference: {e}");
        }
    }
    assert_eq!(pages(twin), twin_before, "{sql}: the untagged twin left pages unread");
    per_limit
}

/// The stored reservoirs of both collections, row for row, and both pass
/// the derived-structure audit.
fn assert_same_tables(tagged: &Sinew, twin: &Sinew, ctx: &str) {
    let all = |s: &Sinew| rows(s.db().execute(&format!("SELECT data FROM {T}")), ctx);
    assert_eq!(all(tagged), all(twin), "{ctx}: stored documents differ");
    tagged.db().check_derived(T).unwrap();
    twin.db().check_derived(T).unwrap();
}

fn data_pages(sinew: &Sinew) -> u64 {
    sinew.db().table_size_bytes(T).unwrap() / 8192
}

/// NoBench Q9 and the §6.6 update find their rows while reading a fraction
/// of the pages; a key the update adds to relocated documents is found
/// on the pages they moved to.
#[test]
fn q9_and_the_update_skip_pages_without_the_key() {
    let docs = docs(DOCS);
    let p = QueryParams::derive(&docs, &NoBenchConfig::default());
    let (tagged, twin) = pair(&docs);
    let pages = data_pages(&tagged);
    let select = r#"SELECT str1, num, "nested_obj.str" FROM nobench"#;
    let q9 = format!("{select} WHERE {} = '{}'", p.sparse_pred_key, p.sparse_pred_val);
    for (limits, n) in LIMITS.iter().zip(check_select(&tagged, &twin, &q9)) {
        assert!(n * 10 >= pages * 7, "Q9 at {limits:?} skipped {n} of {pages} pages");
    }
    let where_ = format!("{} = '{}'", p.update_where_key, p.update_where_val);
    for (k, limits) in LIMITS.into_iter().enumerate() {
        set_limits(&tagged, limits);
        set_limits(&twin, limits);
        // a new value each time: the first and third relocate, the second
        // and fourth overwrite in place
        let value = ["DUMMY", "dummy", "longer dummy", "LONGER DUMMY"][k];
        let update = format!("UPDATE nobench SET {} = '{value}' WHERE {where_}", p.update_set_key);
        let before = skipped(&tagged);
        let affected = tagged.query(&update).unwrap().affected;
        assert!(skipped(&tagged) - before > pages / 2, "the update at {limits:?}");
        assert!(affected > 0);
        assert_eq!(affected, twin.query(&update).unwrap().affected, "{update}");
        assert_same_tables(&tagged, &twin, &update);
    }
    let found = check_select(&tagged, &twin, &format!("{select} WHERE {where_}"));
    assert!(found.iter().all(|&n| n > 0));
    // a key no document had, added by a relocating update
    let add = format!("UPDATE nobench SET fresh_key = 'added' WHERE {where_}");
    assert!(tagged.query(&add).unwrap().affected > 0);
    twin.query(&add).unwrap();
    assert_same_tables(&tagged, &twin, &add);
    let fresh = check_select(&tagged, &twin, "SELECT str1 FROM nobench WHERE fresh_key = 'added'");
    assert!(fresh.iter().all(|&n| n > 0), "{fresh:?}");
}

/// Only a conjunct that is false or NULL over a document without its keys
/// prunes: `IS NOT NULL`, `NOT (k = v)` and an `OR` of such tests do;
/// `IS NULL` and `NOT (k IS NOT NULL)` do not, and each still answers as
/// the twin does.
#[test]
fn only_tests_that_fail_without_the_key_prune() {
    let docs = docs(DOCS);
    let p = QueryParams::derive(&docs, &NoBenchConfig::default());
    let (tagged, twin) = pair(&docs);
    let (k, v) = (&p.sparse_pred_key, &p.sparse_pred_val);
    let prunes = [
        format!("SELECT str1 FROM nobench WHERE {k} IS NOT NULL"),
        format!("SELECT COUNT(*) FROM nobench WHERE {k} = '{v}' AND num >= 0"),
        format!("SELECT COUNT(*) FROM nobench WHERE num >= 0 AND {k} IS NOT NULL"),
        format!("SELECT str1 FROM nobench WHERE NOT ({k} = '{v}')"),
        format!("SELECT str1 FROM nobench WHERE {k} = '{v}' OR sparse_220 IS NOT NULL"),
    ];
    for sql in &prunes {
        assert!(check_select(&tagged, &twin, sql).iter().all(|&n| n > 0), "{sql}");
    }
    let keeps = [
        format!("SELECT COUNT(*) FROM nobench WHERE {k} IS NULL"),
        format!("SELECT COUNT(*) FROM nobench WHERE {k} IS NULL AND num >= 0"),
        format!("SELECT COUNT(*) FROM nobench WHERE NOT ({k} IS NOT NULL)"),
    ];
    for sql in &keeps {
        assert_eq!(check_select(&tagged, &twin, sql), [0; 4], "{sql}");
    }
}

/// NoBench Q3 and Q4 project sparse keys that about one document in a
/// hundred holds: the pages that hold none of them are served, every row
/// with the keys NULL, at every limit.
#[test]
fn q3_and_q4_serve_pages_without_their_keys() {
    let docs = docs(DOCS);
    let (tagged, twin) = pair(&docs);
    let pages = data_pages(&tagged);
    for sql in
        ["SELECT sparse_110, sparse_119 FROM nobench", "SELECT sparse_110, sparse_220 FROM nobench"]
    {
        let n = check_served(&tagged, &twin, sql);
        assert!(n.iter().all(|&n| n * 2 >= pages), "{sql}: served {n:?} of {pages} pages");
        let found = rows(tagged.query(sql), sql);
        assert_eq!(found.len() as u64, DOCS);
        assert!(found.iter().any(|row| !row[0].is_null()), "{sql}: no value found");
    }
}

/// A nested path is read through its own id or its first prefix's object,
/// and `exists_key` is false over a NULL reservoir as over a document
/// without the key: the pages that hold neither are served.
#[test]
fn nested_and_exists_key_projections_serve_pages() {
    let docs = docs(DOCS);
    let (tagged, twin) = pair(&docs);
    let exists = "SELECT exists_key(data, 'mixed'), _rowid FROM nobench";
    for sql in [r#"SELECT "rare.x" FROM nobench"#, exists] {
        assert!(check_served(&tagged, &twin, sql).iter().all(|&n| n > 0), "{sql}");
    }
    let sql = "SELECT exists_key(data, 'mixed') FROM nobench";
    let present = rows(tagged.query(sql), sql).into_iter().filter(|r| r[0] == Datum::Bool(true));
    assert_eq!(present.count() as u64, DOCS.div_ceil(250));
}

/// A NULL reservoir carries no tags, so a page that holds it and no
/// document with the key is served: the row comes out with the key NULL.
#[test]
fn a_null_reservoir_on_a_served_page() {
    let docs = docs(DOCS);
    let (tagged, twin) = pair(&docs);
    let sql = r#"SELECT _rowid, "rare.x" FROM nobench"#;
    set_limits(&tagged, (1, 1024));
    let (pages, before) = (data_pages(&tagged), served(&tagged));
    rows(tagged.query(sql), sql);
    let served_before = served(&tagged) - before;
    for s in [&tagged, &twin] {
        s.db().execute("INSERT INTO nobench VALUES (NULL)").unwrap();
    }
    // the last documents hold no `rare`; the NULL goes beside them or on a
    // page of its own
    let grown = data_pages(&tagged) - pages;
    let n = check_served(&tagged, &twin, sql);
    assert_eq!(n[1], served_before + grown, "at (1, 1024) the NULL reservoir's page is served");
    let got = rows(tagged.query(sql), sql);
    assert_eq!(got.last(), Some(&vec![Datum::Int(DOCS as i64), Datum::Null]));
}

/// A snapshot taken before an update that moves documents and drops their
/// key reads the old versions on the pages they were placed on, which hold
/// the key; the pages without it are served to it and to a new reader.
#[test]
fn an_old_snapshot_reads_relocated_versions_through_served_pages() {
    let docs = docs(DOCS);
    let p = QueryParams::derive(&docs, &NoBenchConfig::default());
    let (tagged, twin) = pair(&docs);
    let (k, v) = (&p.sparse_pred_key, &p.sparse_pred_val);
    let has_v = |row: &Vec<Datum>| row[1] == Datum::Text(v.to_string());
    let q = format!("SELECT _rowid, {k} FROM nobench");
    let physical = tagged.rewrite(&q).unwrap();
    let expected = rows(tagged.query(&q), &q);
    assert!(expected.iter().any(has_v));
    for limits in LIMITS {
        let mut seen = Vec::new();
        for s in [&tagged, &twin] {
            set_limits(s, limits);
            let mut old = s.db().session();
            old.execute("BEGIN").unwrap();
            assert_eq!(rows(old.execute(&physical), &q), expected);
            // relocates every matching document without the key, and back
            let moves = format!("UPDATE nobench SET {k} = NULL, moved = 1 WHERE {k} = '{v}'");
            s.query(&moves).unwrap();
            let before = served(s);
            seen.push(rows(old.execute(&physical), &q));
            if std::ptr::eq(s, &tagged) {
                assert!(served(s) > before, "{limits:?}: the old snapshot served nothing");
            }
            let now = rows(s.query(&q), &q);
            assert_eq!(now.len(), expected.len());
            assert!(!now.iter().any(has_v), "{limits:?}: a new reader");
            s.db().check_derived(T).unwrap();
            old.execute("COMMIT").unwrap();
            let restore = format!("UPDATE nobench SET {k} = '{v}', moved = NULL WHERE moved = 1");
            s.query(&restore).unwrap();
        }
        assert_eq!(seen, [expected.clone(), expected.clone()], "{limits:?}");
        assert_same_tables(&tagged, &twin, "after restoring");
    }
}

/// A projection that reads a dense key beside a sparse one, or the
/// reservoir itself, reads every page: nothing is served.
#[test]
fn projections_that_read_every_page_serve_nothing() {
    let docs = docs(DOCS);
    let (tagged, twin) = pair(&docs);
    for sql in [
        "SELECT sparse_110, str1 FROM nobench",
        "SELECT sparse_110, doc_to_json(data) FROM nobench",
        "SELECT data FROM nobench",
    ] {
        assert_eq!(check_served(&tagged, &twin, sql), [0; 4], "{sql}");
    }
}

/// Once the analyzer has moved the dense keys into columns of their own, a
/// projection of one beside a sparse key decodes that column as well as
/// the reservoir: every page is read, although the reservoirs no longer
/// hold the dense key.
#[test]
fn a_materialized_column_beside_a_sparse_key_is_read() {
    let docs = docs(DOCS);
    let (tagged, twin) = pair(&docs);
    for s in [&tagged, &twin] {
        s.run_analyzer(T, &AnalyzerPolicy::default()).unwrap();
        s.materialize_until_clean(T).unwrap();
    }
    let sql = "SELECT sparse_110, str1 FROM nobench";
    let physical = tagged.rewrite(sql).unwrap();
    assert!(!physical.contains("'str1'"), "str1 is not a column: {physical}");
    assert_eq!(check_served(&tagged, &twin, sql), [0; 4]);
    let q3 = "SELECT sparse_110, sparse_119 FROM nobench";
    assert!(check_served(&tagged, &twin, q3).iter().all(|&n| n > 0), "{q3}");
}

/// A nested path needs its own id or its first prefix's object at the top
/// level; a `num` want reads an integer and a float variant.
#[test]
fn nested_paths_and_two_variant_wants_prune_on_every_id_they_read() {
    let docs = docs(DOCS);
    let (tagged, twin) = pair(&docs);
    let nested_str = match docs[7].get("nested_obj").and_then(|o| o.get("str")) {
        Some(Value::Str(s)) => s.clone(),
        other => panic!("nested_obj.str: {other:?}"),
    };
    // every document has `nested_obj`: nothing to skip, same answer
    let sql = format!(r#"SELECT str1 FROM nobench WHERE "nested_obj.str" = '{nested_str}'"#);
    assert_eq!(check_select(&tagged, &twin, &sql), [0; 4]);
    // `rare` is on one page in fifteen or so
    let rare = r#"SELECT str1, "rare.x" FROM nobench WHERE "rare.x" >= 0"#;
    assert!(check_select(&tagged, &twin, rare).iter().all(|&n| n > 0));
    let mixed = "SELECT str1, mixed FROM nobench WHERE mixed >= 0";
    assert!(tagged.rewrite(mixed).unwrap().contains("extract_key_num"));
    let n = rows(tagged.query(mixed), mixed).len();
    assert_eq!(n as u64, DOCS.div_ceil(250), "both variants found");
    assert!(check_select(&tagged, &twin, mixed).iter().all(|&n| n > 0));
}

/// A statement prepared before its key existed resolves it when run again
/// after a load registers it, and then prunes on it.
#[test]
fn a_key_registered_after_preparation_is_found() {
    let docs = docs(DOCS);
    let (tagged, twin) = pair(&docs);
    let sql = "SELECT str1 FROM nobench WHERE late_key = 'here'";
    assert!(check_select(&tagged, &twin, sql).iter().all(|&n| n == 0));
    let late: Vec<Value> = (0..3)
        .map(|i| {
            let Value::Object(mut pairs) = docs[i].clone() else { unreachable!() };
            pairs.push(("late_key".into(), Value::Str("here".into())));
            Value::Object(pairs)
        })
        .collect();
    for s in [&tagged, &twin] {
        s.load_docs(T, &late).unwrap();
    }
    let before = tagged.metrics().snapshot().statements_reprepared;
    let skipped = check_select(&tagged, &twin, sql);
    assert!(tagged.metrics().snapshot().statements_reprepared > before);
    assert_eq!(rows(tagged.query(sql), sql).len(), 3);
    assert!(skipped.iter().all(|&n| n > 0), "{skipped:?}");
}

/// A row whose reservoir is NULL carries no tags: the tests that need a
/// key skip its page, `IS NULL` finds it.
#[test]
fn a_null_reservoir_has_no_tags() {
    let docs = docs(DOCS);
    let p = QueryParams::derive(&docs, &NoBenchConfig::default());
    let (tagged, twin) = pair(&docs);
    for s in [&tagged, &twin] {
        s.db().execute("INSERT INTO nobench VALUES (NULL)").unwrap();
    }
    assert_same_tables(&tagged, &twin, "after a NULL reservoir");
    let k = &p.sparse_pred_key;
    let with = format!("SELECT COUNT(*) FROM nobench WHERE {k} IS NOT NULL");
    assert!(check_select(&tagged, &twin, &with).iter().all(|&n| n > 0));
    let without = format!("SELECT str1 FROM nobench WHERE {k} IS NULL");
    let n = rows(tagged.query(&without), &without).len();
    assert_eq!(check_select(&tagged, &twin, &without), [0; 4]);
    assert!(n as u64 > DOCS * 9 / 10);
}

/// An update that keeps a tuple's length overwrites it in place, and may
/// still change its keys: the page learns the new ones.
#[test]
fn a_same_length_update_that_adds_a_key_is_found() {
    let docs: Vec<Value> = (0..600)
        .map(|i| Value::Object(vec![("a".into(), Value::Str(format!("{i:0>200}")))]))
        .chain([Value::Object(vec![("b".into(), Value::Str("b".repeat(200)))])])
        .collect();
    let (tagged, twin) = pair(&docs);
    let row = 300;
    let b = Value::Object(vec![("b".into(), Value::Str(format!("{:b>200}", "new")))]);
    for s in [&tagged, &twin] {
        let (bytes, _) = sinew_core::loader::serialize_doc(s.db(), s.catalog(), &b).unwrap();
        let Some(old) = s.db().get_row(T, row).unwrap() else { panic!("row {row}") };
        assert_eq!(old[0].width(), Datum::Bytea(bytes.clone()).width(), "same length");
        s.db().update_row(T, row, &[("data", Datum::Bytea(bytes))]).unwrap();
    }
    assert_same_tables(&tagged, &twin, "after the in-place update");
    let sql = format!("SELECT _rowid FROM nobench WHERE b = '{:b>200}'", "new");
    assert_eq!(rows(tagged.query(&sql), &sql), [[Datum::Int(row as i64)]]);
    assert!(check_select(&tagged, &twin, &sql).iter().all(|&n| n > 0));
}

/// A snapshot taken before an update that moves documents and drops their
/// key reads the old versions where they were placed; a new reader finds
/// none.
#[test]
fn an_old_snapshot_reads_relocated_versions() {
    let docs = docs(DOCS);
    let p = QueryParams::derive(&docs, &NoBenchConfig::default());
    let (tagged, twin) = pair(&docs);
    let (k, v) = (&p.sparse_pred_key, &p.sparse_pred_val);
    let q = format!("SELECT str1, {k} FROM nobench WHERE {k} = '{v}'");
    let physical = tagged.rewrite(&q).unwrap();
    let expected = rows(tagged.query(&q), &q);
    assert!(!expected.is_empty());
    for limits in LIMITS {
        let mut seen = Vec::new();
        for s in [&tagged, &twin] {
            set_limits(s, limits);
            let mut old = s.db().session();
            old.execute("BEGIN").unwrap();
            assert_eq!(rows(old.execute(&physical), &q), expected);
            // relocates every matching document without the key, and back
            s.query(&format!("UPDATE nobench SET {k} = NULL, moved = 1 WHERE {k} = '{v}'")).unwrap();
            let before = skipped(s);
            seen.push(rows(old.execute(&physical), &q));
            assert!(rows(s.query(&q), &q).is_empty(), "{limits:?}: a new reader");
            if std::ptr::eq(s, &tagged) {
                assert!(skipped(s) > before, "{limits:?}");
            }
            s.db().check_derived(T).unwrap();
            old.execute("COMMIT").unwrap();
            let restore = format!("UPDATE nobench SET {k} = '{v}', moved = NULL WHERE moved = 1");
            s.query(&restore).unwrap();
        }
        assert_eq!(seen, [expected.clone(), expected.clone()], "{limits:?}");
        assert_same_tables(&tagged, &twin, "after restoring");
    }
}

// ---------------------------------------------------------------------
// Kill -9, reopen: the synopsis is rebuilt from the recovered pages
// ---------------------------------------------------------------------

const CRASH_DOCS: u64 = 1_500;
const POOL: usize = 16;

fn test_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sinew-synopsis-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Load the documents, then update without end until the log append
/// `crash_after` aborts the process; without it, write the append count
/// after the load to `marks` and stop after a few updates.
fn write_until_killed(dir: &Path, crash_after: Option<u64>, marks: Option<&Path>) {
    let cfg = WalConfig { crash_after, ..WalConfig::default() };
    let sinew = Sinew::with_db(Database::open_with_wal(&dir.join("db"), POOL, None, cfg).unwrap());
    sinew.create_collection(T).unwrap();
    let docs = docs(CRASH_DOCS);
    let p = QueryParams::derive(&docs, &NoBenchConfig::default());
    sinew.load_docs(T, &docs).unwrap();
    if let Some(marks) = marks {
        std::fs::write(marks, sinew.db().exec_stats().wal_appends.to_string()).unwrap();
    }
    let rounds = if crash_after.is_some() { u64::MAX } else { 4 };
    for i in 0..rounds {
        let update = format!(
            "UPDATE nobench SET {} = 'v{i}', round_{} = {i} WHERE {} = '{}'",
            p.update_set_key,
            i % 3,
            p.update_where_key,
            p.update_where_val
        );
        sinew.query(&update).unwrap();
    }
}

/// Not a test of its own: the re-exec target of the crash case.
#[test]
fn crash_child() {
    let Ok(dir) = std::env::var("SINEW_SYNOPSIS_CRASH_DIR") else { return };
    let crash_after = std::env::var("SINEW_SYNOPSIS_CRASH_AFTER").ok().map(|n| n.parse().unwrap());
    let marks = std::env::var("SINEW_SYNOPSIS_MARKS").ok().map(PathBuf::from);
    write_until_killed(Path::new(&dir), crash_after, marks.as_deref());
}

fn run_child(dir: &Path, env: &[(&str, String)]) -> bool {
    let mut cmd = Command::new(std::env::current_exe().unwrap());
    cmd.args(["crash_child", "--exact", "--nocapture"])
        .env("SINEW_SYNOPSIS_CRASH_DIR", dir)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null());
    for (k, v) in env {
        cmd.env(k, v);
    }
    cmd.status().unwrap().success()
}

#[test]
fn reopen_after_a_crash_rebuilds_the_synopsis() {
    let clean = test_dir("clean");
    let marks = clean.join("marks");
    assert!(run_child(&clean, &[("SINEW_SYNOPSIS_MARKS", marks.display().to_string())]));
    let loaded: u64 = std::fs::read_to_string(&marks).unwrap().parse().unwrap();
    let dir = test_dir("crash");
    let killed = !run_child(&dir, &[("SINEW_SYNOPSIS_CRASH_AFTER", (loaded + 9).to_string())]);
    assert!(killed, "the writer outlived its crash point");

    let docs = docs(CRASH_DOCS);
    let p = QueryParams::derive(&docs, &NoBenchConfig::default());
    let select = r#"SELECT str1, num, "nested_obj.str" FROM nobench"#;
    let queries = [
        format!("{select} WHERE {} = '{}'", p.sparse_pred_key, p.sparse_pred_val),
        format!("{select} WHERE {} = '{}'", p.update_where_key, p.update_where_val),
        format!("SELECT str1, {} FROM nobench WHERE {} IS NOT NULL", p.update_set_key, p.update_set_key),
        "SELECT COUNT(*) FROM nobench WHERE round_1 >= 0".to_string(),
    ];
    let sinew = Sinew::open(&dir.join("db"), POOL, None).unwrap();
    assert_eq!(sinew.db().row_count(T).unwrap(), CRASH_DOCS);
    assert!(sinew.db().exec_stats().wal_recoveries > 0);
    assert!(sinew.db().table_synopsis_bytes(T).unwrap() > 0, "no synopsis after reopen");
    sinew.db().check_derived(T).unwrap();
    let run = |sinew: &Sinew| -> Vec<Vec<Vec<Vec<Datum>>>> {
        queries
            .iter()
            .map(|q| {
                let want = sinew_reference::query(sinew.db(), &sinew.rewrite(q).unwrap());
                LIMITS
                    .iter()
                    .map(|&limits| {
                        set_limits(sinew, limits);
                        let got = rows(sinew.query(q), q);
                        if let Err(e) = sinew_reference::agree(&Ok(got.clone()), &want) {
                            panic!("{q} at {limits:?} disagrees with the reference: {e}");
                        }
                        got
                    })
                    .collect()
            })
            .collect()
    };
    let before = skipped(&sinew);
    let pruned = run(&sinew);
    assert!(skipped(&sinew) > before, "the rebuilt synopsis skipped nothing");
    untag(&sinew);
    assert_eq!(run(&sinew), pruned, "answers differ without the synopsis");
    drop(sinew);
    std::fs::remove_dir_all(&clean).ok();
    std::fs::remove_dir_all(&dir).ok();
}
