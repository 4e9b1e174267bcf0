//! The catalog write-through (DESIGN.md §20): a load is one commit whose
//! size follows what changed; the mirror tables equal the cache at every
//! quiescent point; a reopened file answers as the instance that wrote it
//! did; and a crash at any log append leaves the three invariants standing:
//!
//! 1. every attribute id in a committed document has a committed
//!    dictionary row;
//! 2. every materialized column with a value still in the reservoir is
//!    flagged dirty in the committed mirror;
//! 3. the mirror a reopen reads is a state the cache once had — the load in
//!    flight is entirely there, documents, counts and flags, or not at all.
//!
//! The crash sweep re-executes this test binary as a child (`crash_child`)
//! that `WalConfig::crash_after` aborts mid-frame, as
//! `rdbms/tests/crash_recovery.rs` does.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sinew_core::catalog::{cols_table, ATTR_TABLE};
use sinew_core::{extract, AnalyzerDecision, AnalyzerPolicy, AttrType, Catalog, Sinew, StepBudget};
use sinew_json::Value;
use sinew_nobench::{generate_one, NoBenchConfig};
use sinew_rdbms::{Database, Datum, WalConfig};
use std::path::{Path, PathBuf};
use std::process::Command;

const T: &str = "nobench";

fn docs(seed: u64, range: std::ops::Range<u64>) -> Vec<Value> {
    let cfg = NoBenchConfig { seed, ..NoBenchConfig::default() };
    range.map(|i| generate_one(i, 1000, &cfg)).collect()
}

/// Dense keys qualify at a few hundred documents (the paper's cardinality
/// bar of 200 needs more rows than these tests load).
fn policy() -> AnalyzerPolicy {
    AnalyzerPolicy { density_threshold: 0.6, cardinality_threshold: 100, sample_rows: 10_000 }
}

fn test_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sinew-catalog-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// File-backed Sinew over `dir`, new or recovered.
fn open(dir: &Path) -> Sinew {
    Sinew::open(&dir.join("db"), 512, None).unwrap()
}

fn int(sinew: &Sinew, sql: &str) -> i64 {
    match sinew.query(sql).unwrap().rows[0][0] {
        Datum::Int(n) => n,
        ref other => panic!("{sql}: expected an integer, got {other:?}"),
    }
}

/// Invariant 3 as SQL: `SELECT * FROM` both mirror tables equals the cache
/// row for row.
fn assert_mirror_is_cache(sinew: &Sinew, ctx: &str) {
    let cat = sinew.catalog();
    let dictionary: Vec<Vec<Datum>> = (0..cat.attribute_count() as u32)
        .map(|id| {
            let (name, ty) = cat.attr_info(id).expect("ids are dense");
            vec![Datum::Int(id as i64), Datum::Text(name), Datum::Text(ty.name().into())]
        })
        .collect();
    let stored = sinew.db().execute(&format!("SELECT * FROM {ATTR_TABLE} ORDER BY _id")).unwrap();
    assert_eq!(stored.rows, dictionary, "{ctx}: {ATTR_TABLE} differs from the dictionary");
    let states: Vec<Vec<Datum>> = cat
        .table_state(T)
        .into_iter()
        .map(|(id, st)| {
            vec![
                Datum::Int(id as i64),
                Datum::Int(st.count as i64),
                Datum::Bool(st.materialized),
                Datum::Bool(st.dirty),
                Datum::Text(st.column_name),
            ]
        })
        .collect();
    let mirror = cols_table(T);
    let stored = sinew.db().execute(&format!("SELECT * FROM {mirror} ORDER BY _id")).unwrap();
    assert_eq!(stored.rows, states, "{ctx}: {mirror} differs from table_state");
}

// ---- (a) engagement: what a load costs the log ----

#[test]
fn a_load_is_one_commit_sized_by_what_changed() {
    let dir = test_dir("engage");
    let sinew = open(&dir);
    sinew.create_collection(T).unwrap();
    let stats = || sinew.db().exec_stats();

    // 200 documents registering the whole NoBench key space: still one unit.
    let before = stats();
    sinew.load_docs(T, &docs(7, 0..200)).unwrap();
    let after = stats();
    assert!(sinew.catalog().attribute_count() >= 1_000, "NoBench registers ~1 015 attributes");
    assert_eq!(after.wal_commits - before.wal_commits, 1, "first load: one commit");
    let m = sinew.metrics().snapshot();
    assert_eq!(
        m.catalog_rows_written,
        2 * sinew.catalog().attribute_count() as u64,
        "a dictionary row and a state row per new attribute"
    );

    // One more document: one commit, one fsync, a few pages — not the
    // thousand mirror rows.
    let text = docs(7, 200..201)[0].to_string();
    let before = stats();
    sinew.load_jsonl(T, &text).unwrap();
    let after = stats();
    assert_eq!(after.wal_commits - before.wal_commits, 1);
    assert_eq!(after.wal_fsyncs - before.wal_fsyncs, 1);
    let bytes = after.wal_bytes - before.wal_bytes;
    assert!(bytes < 64 << 10, "a one-document load logged {bytes} bytes");
    let rows = sinew.metrics().snapshot().catalog_rows_written - m.catalog_rows_written;
    assert!((1..=40).contains(&rows), "a one-document load wrote {rows} catalog rows");
    assert_mirror_is_cache(&sinew, "after two loads");
    drop(sinew);
    std::fs::remove_dir_all(&dir).ok();
}

// ---- (b) mirror = cache under an interleaving ----

#[test]
fn mirror_equals_cache_after_any_interleaving() {
    for seed in 1..=3u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let sinew = Sinew::in_memory();
        sinew.create_collection(T).unwrap();
        let pool = docs(seed, 0..1_000);
        let mut loaded = 0usize;
        let (mut promoted, mut demoted, mut cleaned, mut set_keys) = (0, 0, 0, 0);
        // A second policy no column of this size satisfies: whatever the
        // first one promoted is sent back.
        let strict = AnalyzerPolicy { cardinality_threshold: 100_000, ..policy() };
        for round in 0..80 {
            let ctx = format!("seed {seed} round {round}");
            match rng.gen_range(0..10) {
                0..=3 if loaded < pool.len() => {
                    let n = rng.gen_range(1..40usize).min(pool.len() - loaded);
                    sinew.load_docs(T, &pool[loaded..loaded + n]).unwrap();
                    loaded += n;
                }
                4 | 5 if loaded > 0 => {
                    let p = if rng.gen_range(0..4) == 0 { strict } else { policy() };
                    for d in sinew.run_analyzer(T, &p).unwrap() {
                        match d {
                            AnalyzerDecision::Materialize { .. } => promoted += 1,
                            AnalyzerDecision::Dematerialize { .. } => demoted += 1,
                        }
                    }
                }
                6 if loaded > 0 => {
                    // `set_key` on a key no document has: the one path that
                    // interns outside a load.
                    let key = format!("fresh_{round}");
                    let victim =
                        pool[rng.gen_range(0..loaded)].get("str1").unwrap().as_str().unwrap();
                    let sql = format!("UPDATE {T} SET {key} = 'x' WHERE str1 = '{victim}'");
                    assert_eq!(sinew.query(&sql).unwrap().affected, 1, "{ctx}");
                    set_keys += 1;
                }
                _ => {
                    let rows = rng.gen_range(50..600);
                    let r = sinew.materialize_step(T, StepBudget { rows }).unwrap();
                    cleaned += r.columns_cleaned.len();
                }
            }
            assert_mirror_is_cache(&sinew, &ctx);
        }
        // the interleaving reached every writer of the catalog
        assert!(
            loaded > 200 && promoted > 0 && demoted > 0 && cleaned > 0 && set_keys > 0,
            "seed {seed}: {loaded} documents, {promoted} promoted, {demoted} demoted, \
             {cleaned} cleaned, {set_keys} set_key"
        );
        assert_eq!(
            int(&sinew, &format!("SELECT COUNT(*) FROM {T} WHERE str1 IS NOT NULL")),
            loaded as i64
        );
    }
}

// ---- reopen: the catalog comes back from its mirror ----

#[test]
fn a_reopened_file_answers_as_before_and_keeps_working() {
    let dir = test_dir("reopen");
    let n = 300u64;
    // One statement per storage state: `str1` will be physical and clean,
    // `num` physical and dirty (mid-pass), `bool` virtual.
    let probes = [
        format!("SELECT COUNT(*) FROM {T} WHERE str1 >= 'M'"),
        format!("SELECT SUM(num) FROM {T} WHERE num >= 0"),
        format!("SELECT COUNT(*) FROM {T} WHERE bool = true"),
        format!(r#"SELECT COUNT(*) FROM {T} WHERE "nested_obj.num" < 500"#),
    ];
    let (answers, rewrites, schema) = {
        let sinew = open(&dir);
        sinew.create_collection(T).unwrap();
        sinew.load_docs(T, &docs(11, 0..n)).unwrap();
        sinew.run_analyzer(T, &policy()).unwrap();
        // one pass completes every promoted column; a second load whose
        // documents carry `num` but not `str1` turns `num` dirty again, and
        // half a step leaves its pass mid-table
        sinew.materialize_step(T, StepBudget { rows: n }).unwrap();
        let mut without_str1 = docs(11, n..n + n / 10);
        for doc in &mut without_str1 {
            if let Value::Object(pairs) = doc {
                pairs.retain(|(k, _)| k != "str1");
            }
        }
        sinew.load_docs(T, &without_str1).unwrap();
        sinew.materialize_step(T, StepBudget { rows: n / 2 }).unwrap();
        let state = |name: &str| {
            let col = sinew.logical_schema(T).into_iter().find(|c| c.name == name).unwrap();
            (col.materialized, col.dirty)
        };
        assert_eq!(state("str1"), (true, false));
        assert_eq!(state("num"), (true, true));
        assert_eq!(state("bool"), (false, false));
        assert!(sinew.rewrite(&probes[1]).unwrap().contains("coalesce("));
        (
            probes.iter().map(|q| int(&sinew, q)).collect::<Vec<_>>(),
            probes.iter().map(|q| sinew.rewrite(q).unwrap()).collect::<Vec<_>>(),
            sinew.logical_schema(T),
        )
    };

    let sinew = open(&dir);
    assert_eq!(sinew.collections(), vec![T.to_string()]);
    assert_eq!(sinew.logical_schema(T), schema);
    for ((q, want), rewritten) in probes.iter().zip(&answers).zip(&rewrites) {
        assert_eq!(&sinew.rewrite(q).unwrap(), rewritten, "{q}");
        assert_eq!(int(&sinew, q), *want, "{q}");
    }
    assert_mirror_is_cache(&sinew, "after reopen");

    // and goes on: new keys continue the id space, the interrupted pass
    // restarts at row 0 and finishes
    let attrs = sinew.catalog().attribute_count();
    sinew
        .load_jsonl(T, r#"{"str1": "ZZZZ", "num": 5, "bool": true, "only_after_reopen": 1}"#)
        .unwrap();
    assert_eq!(sinew.catalog().attribute_count(), attrs + 1);
    let report = sinew.materialize_until_clean(T).unwrap();
    assert!(report.columns_cleaned.iter().any(|c| c == "num"));
    assert!(sinew.logical_schema(T).iter().all(|c| !c.dirty));
    assert_eq!(int(&sinew, &probes[0]), answers[0] + 1);
    assert_eq!(int(&sinew, &probes[1]), answers[1] + 5);
    assert_eq!(int(&sinew, &probes[2]), answers[2] + 1);
    assert_eq!(int(&sinew, &format!("SELECT COUNT(*) FROM {T} WHERE only_after_reopen = 1")), 1);
    assert_mirror_is_cache(&sinew, "after reopen, load and materialize");
    drop(sinew);
    std::fs::remove_dir_all(&dir).ok();
}

// ---- (c) crash sweep ----

const BASE: u64 = 200;
const EXTRA: u64 = 3;

/// The two operations swept. Both start from `BASE` documents, analyzed.
#[derive(Clone, Copy, Debug)]
enum Scenario {
    /// Everything promoted is clean; `EXTRA` documents arrive, bringing a
    /// key of their own and making every promoted column dirty again.
    Load,
    /// The step that moves the last rows of every promoted column and
    /// completes them all: data movement, the clean flags, indexes and
    /// stores.
    Completion,
}

impl Scenario {
    fn name(self) -> &'static str {
        match self {
            Scenario::Load => "load",
            Scenario::Completion => "completion",
        }
    }
}

fn extra_docs() -> Vec<Value> {
    let mut extra = docs(5, BASE..BASE + EXTRA);
    if let Value::Object(pairs) = &mut extra[0] {
        pairs.push(("seen_only_by_the_swept_load".into(), Value::Int(1)));
    }
    extra
}

/// Runs `scenario` to its end (or to the injected abort). `marks`, on a
/// clean run, receives the log's append count before and after the swept
/// operation.
fn run_scenario(dir: &Path, scenario: Scenario, crash_after: Option<u64>, marks: Option<&Path>) {
    let cfg = WalConfig { crash_after, ..WalConfig::default() };
    let sinew = Sinew::with_db(Database::open_with_wal(&dir.join("db"), 512, None, cfg).unwrap());
    sinew.create_collection(T).unwrap();
    sinew.load_docs(T, &docs(5, 0..BASE)).unwrap();
    sinew.run_analyzer(T, &policy()).unwrap();
    let appends = || sinew.db().exec_stats().wal_appends;
    let (before, after);
    match scenario {
        Scenario::Load => {
            sinew.materialize_until_clean(T).unwrap();
            before = appends();
            sinew.load_docs(T, &extra_docs()).unwrap();
            after = appends();
        }
        Scenario::Completion => {
            let promoted = sinew.logical_schema(T).iter().filter(|c| c.materialized).count();
            sinew.materialize_step(T, StepBudget { rows: BASE - 10 }).unwrap();
            before = appends();
            let r = sinew.materialize_step(T, StepBudget { rows: BASE }).unwrap();
            after = appends();
            assert_eq!(r.columns_cleaned.len(), promoted);
        }
    }
    if let Some(marks) = marks {
        std::fs::write(marks, format!("{before} {after}")).unwrap();
    }
}

/// Not a test of its own: the re-exec target of the sweep.
#[test]
fn crash_child() {
    let Ok(dir) = std::env::var("SINEW_CATALOG_CRASH_DIR") else {
        return;
    };
    let scenario = match std::env::var("SINEW_CATALOG_CRASH_SCENARIO").as_deref() {
        Ok("load") => Scenario::Load,
        _ => Scenario::Completion,
    };
    let crash_after = std::env::var("SINEW_CATALOG_CRASH_AFTER").ok().map(|n| n.parse().unwrap());
    let marks = std::env::var("SINEW_CATALOG_CRASH_MARKS").ok().map(PathBuf::from);
    run_scenario(Path::new(&dir), scenario, crash_after, marks.as_deref());
}

fn run_child(dir: &Path, scenario: Scenario, extra_env: &[(&str, String)]) -> bool {
    let mut cmd = Command::new(std::env::current_exe().unwrap());
    cmd.args(["crash_child", "--exact", "--nocapture"])
        .env("SINEW_CATALOG_CRASH_DIR", dir)
        .env("SINEW_CATALOG_CRASH_SCENARIO", scenario.name())
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null());
    for (k, v) in extra_env {
        cmd.env(k, v);
    }
    cmd.status().unwrap().success()
}

/// Every attribute id stored in `bytes`, nested documents included.
fn stored_ids(cat: &Catalog, bytes: &[u8], out: &mut Vec<u32>) {
    for (id, raw) in sinew_serial::sinew::iter_raw(bytes).expect("stored document decodes") {
        out.push(id);
        if matches!(cat.attr_info(id), Some((_, AttrType::Object))) {
            stored_ids(cat, raw, out);
        }
    }
}

fn check_recovered(dir: &Path, scenario: Scenario, ctx: &str) {
    let sinew = open(dir);
    let cat = sinew.catalog();
    let rows = sinew.db().row_count(T).unwrap();
    let schema = sinew.db().schema(T).unwrap();
    let live: Vec<String> = schema.live_columns().map(|(_, c)| c.name.clone()).collect();
    let clean_physical: Vec<(u32, String)> = cat
        .table_state(T)
        .into_iter()
        .filter(|(_, st)| st.materialized && !st.dirty)
        .map(|(id, _)| (id, cat.attr_info(id).unwrap().0))
        .collect();
    sinew
        .db()
        .scan_rows(T, &mut |rowid, row| {
            let Datum::Bytea(reservoir) = &row[live.iter().position(|c| c == "data").unwrap()]
            else {
                panic!("{ctx}: row {rowid} has no reservoir");
            };
            // 1: no document refers to an attribute the dictionary lacks
            let mut ids = Vec::new();
            for datum in &row {
                if let Datum::Bytea(bytes) = datum {
                    stored_ids(cat, bytes, &mut ids);
                }
            }
            for id in ids {
                assert!(
                    cat.attr_info(id).is_some(),
                    "{ctx}: row {rowid} stores unregistered id {id}"
                );
            }
            // 2: a clean physical column has nothing left in the reservoir
            for (id, name) in &clean_physical {
                let left = extract::extract_attr(cat, reservoir, name, *id).unwrap();
                assert_eq!(
                    left, None,
                    "{ctx}: row {rowid} keeps {name} in the reservoir behind a clean flag"
                );
            }
            Ok(true)
        })
        .unwrap();
    // 3: all of the swept operation or none of it. Every document has
    // `str1`, so its count is the number of documents whose load reached
    // the mirror.
    let (str1, _) = cat.ids_for_name("str1")[0];
    assert_eq!(
        cat.column_state(T, str1).unwrap().count,
        rows,
        "{ctx}: counts and documents disagree"
    );
    let new_key = !cat.ids_for_name("seen_only_by_the_swept_load").is_empty();
    match scenario {
        Scenario::Load => {
            assert!(rows == BASE || rows == BASE + EXTRA, "{ctx}: {rows} documents");
            assert_eq!(new_key, rows == BASE + EXTRA, "{ctx}: the load's new attribute");
            if rows > BASE {
                assert!(
                    !clean_physical.iter().any(|(id, _)| *id == str1),
                    "{ctx}: str1 clean after a load"
                );
            }
        }
        Scenario::Completion => assert_eq!(rows, BASE, "{ctx}"),
    }
    assert_mirror_is_cache(&sinew, ctx);
    assert_eq!(
        int(&sinew, &format!("SELECT COUNT(*) FROM {T} WHERE str1 IS NOT NULL")),
        rows as i64,
        "{ctx}"
    );
    assert_eq!(
        int(&sinew, &format!("SELECT COUNT(*) FROM {T} WHERE num >= 0")),
        rows as i64,
        "{ctx}"
    );

    // the recovered instance is a working one
    sinew.load_docs(T, &docs(5, 900..901)).unwrap();
    sinew.materialize_until_clean(T).unwrap();
    assert_eq!(
        int(&sinew, &format!("SELECT COUNT(*) FROM {T} WHERE str1 IS NOT NULL")),
        rows as i64 + 1,
        "{ctx}"
    );
    sinew.db().check_derived(T).unwrap();
    assert_mirror_is_cache(&sinew, ctx);
}

#[test]
fn a_crash_at_any_append_keeps_the_catalog_invariants() {
    for scenario in [Scenario::Load, Scenario::Completion] {
        let dir = test_dir(&format!("marks-{}", scenario.name()));
        let marks = dir.join("marks");
        let env = [("SINEW_CATALOG_CRASH_MARKS", marks.to_string_lossy().into_owned())];
        assert!(run_child(&dir, scenario, &env), "{scenario:?}: the clean run failed");
        let text = std::fs::read_to_string(&marks).unwrap();
        let (before, after) = text.split_once(' ').unwrap();
        let (before, after): (u64, u64) = (before.parse().unwrap(), after.parse().unwrap());
        check_recovered(&dir, scenario, &format!("{scenario:?}, clean run"));
        std::fs::remove_dir_all(&dir).ok();
        assert!(after > before, "{scenario:?} appended nothing");
        println!("{scenario:?}: sweeping appends {}..={after}", before + 1);

        // `before + 1 ..= after` are the appends the operation made; one
        // past it shows the completed operation surviving the next crash.
        for n in before + 1..=after + 1 {
            let dir = test_dir(&format!("sweep-{}-{n}", scenario.name()));
            let finished = run_child(&dir, scenario, &[("SINEW_CATALOG_CRASH_AFTER", n.to_string())]);
            assert_eq!(finished, n > after, "{scenario:?}: crash point {n} of {before}..{after}");
            check_recovered(&dir, scenario, &format!("{scenario:?}, crash at append {n}"));
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}
