//! Extraction-plan invalidation under a live background materializer.
//!
//! The plan cache (core::plan) snapshots catalog state at one epoch; the
//! background materializer mutates that state mid-workload when it
//! promotes a column. These tests pin the contract: a held plan goes
//! stale (never silently wrong), the cache hands back a rebuilt plan, and
//! queries racing the promotion see every row at every point in time.

use sinew_core::{AnalyzerPolicy, BackgroundConfig, BackgroundMaterializer, Sinew, Want};
use sinew_rdbms::Datum;
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
fn promotion_mid_workload_invalidates_plans_and_keeps_queries_correct() {
    let sinew = loaded();
    let policy = AnalyzerPolicy {
        density_threshold: 0.5,
        cardinality_threshold: 100,
        sample_rows: 5_000,
    };
    sinew.run_analyzer("c", &policy).unwrap();

    // A reader holds a plan across the whole promotion, like an in-flight
    // query would.
    let held = sinew.plan_cache().get(sinew.catalog(), "k", Want::Text);
    assert!(held.is_current(sinew.catalog()));

    let worker = BackgroundMaterializer::spawn(
        sinew.clone(),
        "c",
        BackgroundConfig { step_rows: 64, ..Default::default() },
    )
    .unwrap();

    // Race the promotion: every query issued while the materializer moves
    // values must still see all N rows (dirty columns rewrite to
    // COALESCE(col, extract(...)), and stale plans are rebuilt per query).
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

    // The pre-promotion plan is stale — promotion bumped the epoch — and
    // the cache hands back a rebuilt, current plan, not the held one.
    assert!(
        !held.is_current(sinew.catalog()),
        "column promotion must bump the catalog epoch"
    );
    let fresh = sinew.plan_cache().get(sinew.catalog(), "k", Want::Text);
    assert!(fresh.is_current(sinew.catalog()));

    let r = sinew.query("SELECT COUNT(*) FROM c WHERE k IS NOT NULL").unwrap();
    assert_eq!(r.rows[0][0], Datum::Int(N));
}

#[test]
fn parallel_scan_racing_promotion_stays_correct_and_rebuilds_fused_plans() {
    use sinew_core::Want;
    use sinew_rdbms::ExecLimits;

    // Two virtual keys → the rewriter fuses extraction; 4 exec threads →
    // the morsel-parallel pipeline runs it. A background promotion bumps
    // the catalog epoch mid-scan; every racing query must stay exact and
    // the fused (multi-key) plan must go stale, not silently wrong.
    let sinew = Arc::new(Sinew::in_memory());
    sinew.create_collection("c").unwrap();
    let docs: String = (0..N).map(|i| format!("{{\"k\": \"v{i}\", \"n\": {i}}}\n")).collect();
    sinew.load_jsonl("c", &docs).unwrap();
    sinew.db().set_exec_limits(ExecLimits { exec_threads: 4, ..ExecLimits::default() });

    let held = sinew
        .plan_cache()
        .get_multi(sinew.catalog(), &[("k", Want::Text), ("n", Want::Num)]);
    assert!(held.is_current(sinew.catalog()));

    let policy = AnalyzerPolicy {
        density_threshold: 0.5,
        cardinality_threshold: 100,
        sample_rows: 5_000,
    };
    sinew.run_analyzer("c", &policy).unwrap();

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

    // Promotion bumped the epoch: the held fused plan is stale and the
    // cache hands back a rebuilt one that still extracts correctly.
    assert!(!held.is_current(sinew.catalog()), "promotion must invalidate fused plans");
    let fresh = sinew
        .plan_cache()
        .get_multi(sinew.catalog(), &[("k", Want::Text), ("n", Want::Num)]);
    assert!(fresh.is_current(sinew.catalog()));

    let r = sinew.query("SELECT COUNT(*) FROM c WHERE k IS NOT NULL AND n >= 0").unwrap();
    assert_eq!(r.rows[0][0], Datum::Int(N));
}

#[test]
fn plan_built_before_attribute_exists_re_resolves_after_load() {
    let sinew = loaded();
    // Plan for a key nobody has loaded yet: resolves to no candidates.
    let early = sinew.plan_cache().get(sinew.catalog(), "fresh", Want::Int);
    assert!(early.resolved.leaf.is_empty());

    sinew.load_jsonl("c", "{\"k\": \"w\", \"fresh\": 42}\n").unwrap();

    // The load interned "fresh", so the early plan is stale and the cache
    // rebuilds; the rebuilt plan actually finds the value.
    assert!(!early.is_current(sinew.catalog()));
    let rebuilt = sinew.plan_cache().get(sinew.catalog(), "fresh", Want::Int);
    assert!(rebuilt.is_current(sinew.catalog()));
    assert!(!rebuilt.resolved.leaf.is_empty());

    let row = sinew.db().get_row("c", N as u64).unwrap().unwrap();
    let Datum::Bytea(bytes) = &row[0] else { panic!("reservoir row") };
    assert_eq!(early.extract(sinew.catalog(), bytes), Datum::Null, "stale plan: stale schema");
    assert_eq!(rebuilt.extract(sinew.catalog(), bytes), Datum::Int(42));

    let r = sinew.query("SELECT COUNT(*) FROM c WHERE fresh IS NOT NULL").unwrap();
    assert_eq!(r.rows[0][0], Datum::Int(1));
}

#[test]
fn loads_that_change_no_path_resolution_keep_every_plan() {
    let sinew = loaded();
    sinew.query("SELECT COUNT(*) FROM c WHERE k = 'v7'").unwrap();
    let held = sinew.plan_cache().get(sinew.catalog(), "k", Want::Text);
    let epoch = sinew.catalog().epoch();
    let stale = sinew.metrics().snapshot().plan_cache_stale_rebuilds;

    // 100 one-document loads over a key the collection already has, all
    // virtual (no dirty flag to flip): only counts move.
    for i in 0..100 {
        sinew.load_jsonl("c", &format!("{{\"k\": \"late{i}\"}}")).unwrap();
        let r = sinew.query(&format!("SELECT COUNT(*) FROM c WHERE k = 'late{i}'")).unwrap();
        assert_eq!(r.rows[0][0], Datum::Int(1));
    }
    assert_eq!(sinew.catalog().epoch(), epoch, "a count is not a schema change");
    assert!(held.is_current(sinew.catalog()));
    assert_eq!(sinew.metrics().snapshot().plan_cache_stale_rebuilds, stale);

    // ... while a load that does bring a new key still invalidates
    sinew.load_jsonl("c", "{\"k\": \"w\", \"brand_new\": 1}").unwrap();
    assert!(sinew.catalog().epoch() > epoch);
    assert!(!held.is_current(sinew.catalog()));
}
