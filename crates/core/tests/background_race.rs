//! Ten-document loads racing the background materializer on one exec
//! thread — the repro of `sinewbench/README.md` "Known defects", shortened,
//! with the reader's snapshot held where the free-running reader of the
//! original only sometimes had it: open from the load until the materializer
//! reaches `thousandth`, the last column it visits. The passes before it
//! then commit in Retain mode and the last one, as a rule, in Eager mode.
//!
//! Every document has `thousandth`, so once no column is dirty no row may
//! read NULL there, by columnar scan or by heap scan, and the derived
//! structures must mirror the heap.

use sinew_core::{AnalyzerPolicy, AttrId, BackgroundConfig, BackgroundMaterializer, Sinew};
use sinew_nobench::{generate_one, NoBenchConfig};
use sinew_rdbms::{Datum, DbError, ExecLimits};
use std::sync::Arc;
use std::time::{Duration, Instant};

const T: &str = "nobench";
const BASE: usize = 1024;
const LOADS: usize = 8;
const NULL_ROWS: &str = "SELECT COUNT(*) FROM nobench WHERE thousandth IS NULL";
const Q10: &str =
    "SELECT thousandth, COUNT(*) FROM nobench WHERE num BETWEEN 400 AND 420 GROUP BY thousandth";

fn race(seed: u64) {
    let cfg = NoBenchConfig { seed, ..NoBenchConfig::default() };
    let docs: Vec<_> =
        (0..(BASE + 10 * LOADS) as u64).map(|i| generate_one(i, BASE as u64, &cfg)).collect();
    let update_vals: Vec<&str> =
        docs[..BASE].iter().filter_map(|d| d.get("sparse_120")?.as_str()).collect();

    let sinew = Arc::new(Sinew::in_memory());
    sinew.db().set_exec_limits(ExecLimits { exec_threads: 1, ..ExecLimits::default() });
    sinew.create_collection(T).unwrap();
    sinew.load_docs(T, &docs[..BASE]).unwrap();
    sinew.run_analyzer(T, &AnalyzerPolicy::default()).unwrap();
    sinew.materialize_until_clean(T).unwrap();
    let (last, _) = sinew.catalog().ids_for_name("thousandth")[0];
    let background =
        BackgroundMaterializer::spawn(sinew.clone(), T, BackgroundConfig::default()).unwrap();

    let dirty = || sinew.catalog().dirty_attrs(T);
    // Poll until the dirty set satisfies `done`; a stalled or dead
    // materializer fails the test instead of hanging it.
    let wait_until = |what: &str, done: &dyn Fn(&[AttrId]) -> bool| {
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let attrs = dirty();
            if done(&attrs) {
                return;
            }
            assert!(Instant::now() < deadline, "seed {seed}: {what}, still dirty: {attrs:?}");
            std::thread::sleep(Duration::from_micros(200));
        }
    };
    for k in 0..LOADS {
        let val = update_vals[k % update_vals.len()];
        let update = format!("UPDATE nobench SET sparse_129 = 'DUMMY' WHERE sparse_120 = '{val}'");
        // first-writer-wins may hand the row to a materializer batch
        while let Err(e) = sinew.query(&update) {
            assert!(matches!(e, DbError::Conflict(_)), "seed {seed}: {e}");
        }
        let mut reader = sinew.db().session();
        reader.execute("BEGIN").unwrap();
        sinew.load_docs(T, &docs[BASE + 10 * k..BASE + 10 * (k + 1)]).unwrap();
        wait_until("waiting for the passes before thousandth", &|attrs| {
            attrs.iter().all(|a| *a == last)
        });
        reader.execute("COMMIT").unwrap();
        for sql in [NULL_ROWS, Q10] {
            sinew.query(sql).unwrap_or_else(|e| panic!("seed {seed}: {sql}: {e}"));
        }
        wait_until("waiting for a clean collection", &|attrs| attrs.is_empty());
    }
    background.stop();
    sinew.db().vacuum().unwrap();
    sinew.db().check_derived(T).unwrap();
    // By columnar scan, then — the stores dropped — by heap scan.
    let db = sinew.db();
    for columnar in [true, false] {
        if !columnar {
            for store in db.columnar_infos(T).unwrap() {
                db.drop_columnar(T, &store.column).unwrap();
            }
        }
        let scans = db.exec_stats().columnar_scans;
        let nulls = sinew.query(NULL_ROWS).unwrap().scalar().cloned();
        assert_eq!(nulls, Some(Datum::Int(0)), "seed {seed}, columnar stores: {columnar}");
        assert_eq!(db.exec_stats().columnar_scans > scans, columnar, "seed {seed}: wrong path");
    }
}

#[test]
fn loads_racing_the_background_materializer_leave_no_null_rows() {
    for seed in 1..=7 {
        race(seed);
    }
}
