//! Concurrency: the paper's materializer is "a background process that is
//! running only when there are spare resources" (§3.1.4). These tests run
//! it on a real background thread while queries and loads hammer the same
//! collection, asserting nothing ever goes inconsistent.

use sinew::core::{AnalyzerPolicy, StepBudget};
use sinew::{Datum, Sinew};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

#[test]
fn background_materializer_with_concurrent_queries() {
    let sinew = Arc::new(Sinew::in_memory());
    sinew.create_collection("c").unwrap();
    let docs: String =
        (0..3_000).map(|i| format!("{{\"k\": \"v{i}\", \"n\": {i}}}\n")).collect();
    sinew.load_jsonl("c", &docs).unwrap();
    let policy =
        AnalyzerPolicy { density_threshold: 0.5, cardinality_threshold: 100, sample_rows: 5_000 };
    sinew.run_analyzer("c", &policy).unwrap();

    let stop = Arc::new(AtomicBool::new(false));
    // background materializer: small steps, yielding between them
    let mat = {
        let sinew = sinew.clone();
        let stop = stop.clone();
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                let report = sinew.materialize_step("c", StepBudget { rows: 64 }).unwrap();
                if report.rows_scanned == 0 {
                    std::thread::yield_now();
                }
            }
        })
    };
    // foreground: queries must return consistent answers throughout
    let mut ran = 0;
    for i in 0..200 {
        let r = sinew.query("SELECT COUNT(*) FROM c WHERE k IS NOT NULL").unwrap();
        assert_eq!(r.rows[0][0], Datum::Int(3_000), "iteration {i}");
        let r = sinew
            .query(&format!("SELECT n FROM c WHERE k = 'v{}'", i * 13 % 3000))
            .unwrap();
        assert_eq!(r.rows.len(), 1, "iteration {i}");
        ran += 1;
    }
    stop.store(true, Ordering::Relaxed);
    mat.join().unwrap();
    assert_eq!(ran, 200);
    // drive to completion and re-verify
    sinew.materialize_until_clean("c").unwrap();
    let schema = sinew.logical_schema("c");
    assert!(schema.iter().all(|c| !c.dirty));
    let r = sinew.query("SELECT COUNT(*) FROM c WHERE k IS NOT NULL").unwrap();
    assert_eq!(r.rows[0][0], Datum::Int(3_000));
    sinew.db().check_derived("c").unwrap();
}

#[test]
fn loader_and_materializer_latch() {
    // concurrent loads and materializer steps never interleave (the §3.1.4
    // catalog latch); total counts stay exact
    let sinew = Arc::new(Sinew::in_memory());
    sinew.create_collection("c").unwrap();
    sinew.load_jsonl("c", "{\"k\": \"seed\"}\n").unwrap();
    let policy =
        AnalyzerPolicy { density_threshold: 0.0, cardinality_threshold: 0, sample_rows: 100 };
    sinew.run_analyzer("c", &policy).unwrap();

    let loader = {
        let sinew = sinew.clone();
        std::thread::spawn(move || {
            for batch in 0..20 {
                let docs: String =
                    (0..50).map(|i| format!("{{\"k\": \"b{batch}-{i}\"}}\n")).collect();
                sinew.load_jsonl("c", &docs).unwrap();
            }
        })
    };
    let materializer = {
        let sinew = sinew.clone();
        std::thread::spawn(move || {
            for _ in 0..200 {
                sinew.materialize_step("c", StepBudget { rows: 32 }).unwrap();
            }
        })
    };
    loader.join().unwrap();
    materializer.join().unwrap();
    sinew.materialize_until_clean("c").unwrap();
    let r = sinew.query("SELECT COUNT(*) FROM c WHERE k IS NOT NULL").unwrap();
    assert_eq!(r.rows[0][0], Datum::Int(1 + 20 * 50));
    // every value is found exactly once
    let r = sinew.query("SELECT COUNT(DISTINCT k) FROM c").unwrap();
    assert_eq!(r.rows[0][0], Datum::Int(1 + 20 * 50));
    sinew.db().check_derived("c").unwrap();
}

#[test]
fn concurrent_readers_on_shared_sinew() {
    let sinew = Arc::new(Sinew::in_memory());
    sinew.create_collection("c").unwrap();
    let docs: String = (0..1_000).map(|i| format!("{{\"n\": {i}}}\n")).collect();
    sinew.load_jsonl("c", &docs).unwrap();
    let handles: Vec<_> = (0..4)
        .map(|t| {
            let sinew = sinew.clone();
            std::thread::spawn(move || {
                for i in 0..50 {
                    let lo = (t * 100 + i) % 900;
                    let r = sinew
                        .query(&format!(
                            "SELECT COUNT(*) FROM c WHERE n BETWEEN {lo} AND {}",
                            lo + 99
                        ))
                        .unwrap();
                    assert_eq!(r.rows[0][0], Datum::Int(100));
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
}
