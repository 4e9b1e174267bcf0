//! Per-statement path resolution under a moving schema.
//!
//! An extraction plan is resolved once, when its statement binds, and is
//! never revalidated (core::plan, DESIGN.md §8). These tests pin what that
//! has to guarantee: a statement reads exactly its snapshot's rows whatever
//! a concurrent load interns or a background materializer promotes, the
//! next statement sees the new schema, and the catalog epoch still moves
//! on a schema change and only on one.

use sinew_core::{
    rewriter, AnalyzerPolicy, BackgroundConfig, BackgroundMaterializer, ExtractionPlan, Sinew, Want,
};
use sinew_rdbms::{Datum, Session};
use std::sync::Arc;
use std::time::{Duration, Instant};

const N: i64 = 2_000;

fn loaded() -> Arc<Sinew> {
    let sinew = Arc::new(Sinew::in_memory());
    sinew.create_collection("c").unwrap();
    let docs: String = (0..N).map(|i| format!("{{\"k\": \"v{i}\"}}\n")).collect();
    sinew.load_jsonl("c", &docs).unwrap();
    sinew
}

#[test]
fn promotion_mid_workload_keeps_queries_correct() {
    let sinew = loaded();
    let policy = AnalyzerPolicy {
        density_threshold: 0.5,
        cardinality_threshold: 100,
        sample_rows: 5_000,
    };
    sinew.run_analyzer("c", &policy).unwrap();
    let epoch = sinew.catalog().epoch();

    let worker = BackgroundMaterializer::spawn(
        sinew.clone(),
        "c",
        BackgroundConfig { step_rows: 64, ..Default::default() },
    )
    .unwrap();

    // Race the promotion: every query issued while the materializer moves
    // values must still see all N rows (dirty columns rewrite to
    // COALESCE(col, extract(...)), and each query resolves its own plans).
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let r = sinew.query("SELECT COUNT(*) FROM c WHERE k IS NOT NULL").unwrap();
        assert_eq!(r.rows[0][0], Datum::Int(N), "mid-promotion query lost rows");
        if sinew.logical_schema("c").iter().all(|col| !col.dirty) {
            break;
        }
        assert!(Instant::now() < deadline, "materializer never finished");
    }
    let moved = worker.stop();
    assert_eq!(moved, N as u64);

    assert!(sinew.catalog().epoch() > epoch, "column promotion must bump the catalog epoch");

    let r = sinew.query("SELECT COUNT(*) FROM c WHERE k IS NOT NULL").unwrap();
    assert_eq!(r.rows[0][0], Datum::Int(N));
}

#[test]
fn parallel_scan_racing_promotion_stays_correct() {
    use sinew_rdbms::ExecLimits;

    // Two virtual keys → two bound extraction calls; 4 exec threads → the
    // morsel-parallel pipeline runs them, every worker through the plans
    // its statement bound. A background promotion bumps the catalog
    // epoch mid-scan; every racing query must stay exact.
    let sinew = Arc::new(Sinew::in_memory());
    sinew.create_collection("c").unwrap();
    let docs: String = (0..N).map(|i| format!("{{\"k\": \"v{i}\", \"n\": {i}}}\n")).collect();
    sinew.load_jsonl("c", &docs).unwrap();
    sinew.db().set_exec_limits(ExecLimits { exec_threads: 4, ..ExecLimits::default() });

    let policy = AnalyzerPolicy {
        density_threshold: 0.5,
        cardinality_threshold: 100,
        sample_rows: 5_000,
    };
    sinew.run_analyzer("c", &policy).unwrap();
    let epoch = sinew.catalog().epoch();

    let worker = BackgroundMaterializer::spawn(
        sinew.clone(),
        "c",
        BackgroundConfig { step_rows: 64, ..Default::default() },
    )
    .unwrap();

    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let r = sinew
            .query("SELECT COUNT(*) FROM c WHERE k IS NOT NULL AND n >= 0")
            .unwrap();
        assert_eq!(r.rows[0][0], Datum::Int(N), "mid-promotion parallel query lost rows");
        if sinew.logical_schema("c").iter().all(|col| !col.dirty) {
            break;
        }
        assert!(Instant::now() < deadline, "materializer never finished");
    }
    worker.stop();

    assert!(sinew.catalog().epoch() > epoch, "promotion must bump the catalog epoch");

    let r = sinew.query("SELECT COUNT(*) FROM c WHERE k IS NOT NULL AND n >= 0").unwrap();
    assert_eq!(r.rows[0][0], Datum::Int(N));
}

#[test]
fn plan_built_before_attribute_exists_misses_only_rows_loaded_after_it() {
    let sinew = loaded();
    // Plan for a key nobody has loaded yet: resolves to no candidates.
    let early = ExtractionPlan::build(sinew.catalog(), "fresh", Want::Int);
    assert!(early.resolved.leaf.is_empty());

    sinew.load_jsonl("c", "{\"k\": \"w\", \"fresh\": 42}\n").unwrap();

    // The load interned "fresh": a plan resolved now finds the value, the
    // early one does not know the id — which is why a statement must
    // resolve after it takes its snapshot, never before.
    let later = ExtractionPlan::build(sinew.catalog(), "fresh", Want::Int);
    assert!(!later.resolved.leaf.is_empty());

    let row = sinew.db().get_row("c", N as u64).unwrap().unwrap();
    let Datum::Bytea(bytes) = &row[0] else { panic!("reservoir row") };
    assert_eq!(early.extract(sinew.catalog(), bytes), Datum::Null, "early plan: early schema");
    assert_eq!(later.extract(sinew.catalog(), bytes), Datum::Int(42));

    let r = sinew.query("SELECT COUNT(*) FROM c WHERE fresh IS NOT NULL").unwrap();
    assert_eq!(r.rows[0][0], Datum::Int(1));
}

/// Rewrite `sql` against the catalog as it stands and count through `session`.
fn count_in(sinew: &Sinew, session: &mut Session, sql: &str) -> Datum {
    let stmt = sinew_sql::parse_statement(sql).unwrap();
    let physical = rewriter::rewrite_statement(sinew, &stmt).unwrap();
    session.execute_statement(&physical).unwrap().rows[0][0].clone()
}

#[test]
fn transaction_older_than_a_new_variant_reads_its_snapshot_and_the_next_statement_sees_it() {
    let sinew = loaded();
    let k_rows = "SELECT COUNT(*) FROM c WHERE k IS NOT NULL";
    let has_fresh = "SELECT COUNT(*) FROM c WHERE exists_key(data, 'fresh')";

    let mut reader = sinew.db().session();
    reader.execute("BEGIN").unwrap();
    assert_eq!(count_in(&sinew, &mut reader, k_rows), Datum::Int(N));
    assert_eq!(count_in(&sinew, &mut reader, has_fresh), Datum::Int(0));

    // One document, two brand-new (key, type) pairs: `k` as an int — a new
    // variant of a known key — and the key `fresh`.
    sinew.load_jsonl("c", "{\"k\": 7, \"fresh\": true}\n").unwrap();
    assert!(sinew.rewrite(k_rows).unwrap().contains("extract_key_txt"), "k is now two-typed");

    // These statements bind after the load, so their plans know the new
    // ids; the rows they may read are still the snapshot's.
    assert_eq!(count_in(&sinew, &mut reader, k_rows), Datum::Int(N));
    assert_eq!(count_in(&sinew, &mut reader, has_fresh), Datum::Int(0));
    reader.execute("COMMIT").unwrap();

    // A fresh statement sees the new variant through Want::AnyText ...
    assert_eq!(sinew.query(k_rows).unwrap().rows[0][0], Datum::Int(N + 1));
    // ... and the new key through exists_key.
    assert_eq!(sinew.query(has_fresh).unwrap().rows[0][0], Datum::Int(1));
}

#[test]
fn loads_that_change_no_path_resolution_leave_the_epoch_alone() {
    let sinew = loaded();
    sinew.query("SELECT COUNT(*) FROM c WHERE k = 'v7'").unwrap();
    let epoch = sinew.catalog().epoch();

    // 100 one-document loads over a key the collection already has, all
    // virtual (no dirty flag to flip): only counts move.
    for i in 0..100 {
        sinew.load_jsonl("c", &format!("{{\"k\": \"late{i}\"}}")).unwrap();
        let r = sinew.query(&format!("SELECT COUNT(*) FROM c WHERE k = 'late{i}'")).unwrap();
        assert_eq!(r.rows[0][0], Datum::Int(1));
    }
    assert_eq!(sinew.catalog().epoch(), epoch, "a count is not a schema change");

    // ... while a load that does bring a new key still moves it
    sinew.load_jsonl("c", "{\"k\": \"w\", \"brand_new\": 1}").unwrap();
    assert!(sinew.catalog().epoch() > epoch);
}
