//! End-to-end coverage of the analyzer → materializer loop (paper §3.1.3
//! / §3.1.4) through the introspection layer: attributes crossing the
//! materialization threshold in both directions, every value readable via
//! SQL before, during (bounded steps), and after movement — including the
//! stranded-value dematerialization scenario the materializer must refuse
//! to complete.

use sinew_core::metrics::MoveDirection;
use sinew_core::{AnalyzerDecision, AnalyzerPolicy, Sinew, StepBudget};
use sinew_rdbms::Datum;

const N: i64 = 500;

fn loaded() -> Sinew {
    let sinew = Sinew::in_memory();
    sinew.create_collection("c").unwrap();
    // "k" is dense and high-cardinality (materialization candidate);
    // "rare" appears in 10% of documents and must stay virtual.
    let docs: String = (0..N)
        .map(|i| {
            if i % 10 == 0 {
                format!("{{\"k\": \"v{i}\", \"rare\": {i}}}\n")
            } else {
                format!("{{\"k\": \"v{i}\"}}\n")
            }
        })
        .collect();
    sinew.load_jsonl("c", &docs).unwrap();
    sinew
}

fn policy() -> AnalyzerPolicy {
    AnalyzerPolicy { density_threshold: 0.5, cardinality_threshold: 100, sample_rows: 5_000 }
}

fn count_k(sinew: &Sinew) -> i64 {
    let r = sinew.query("SELECT COUNT(*) FROM c WHERE k IS NOT NULL").unwrap();
    match r.rows[0][0] {
        Datum::Int(n) => n,
        ref other => panic!("expected int count, got {other:?}"),
    }
}

fn find_col<'a>(
    cols: &'a [sinew_core::metrics::ColumnReport],
    name: &str,
) -> Option<&'a sinew_core::metrics::ColumnReport> {
    cols.iter().find(|c| c.name == name)
}

#[test]
fn threshold_crossing_both_directions_with_live_reports() {
    let sinew = loaded();

    // Before any movement: everything virtual, values readable.
    let before = sinew.storage_report("c").unwrap();
    assert_eq!(before.rows, N as u64);
    assert!(before.reservoir_bytes > 0);
    assert_eq!(before.column_bytes, 0);
    assert!(find_col(&before.virtual_columns, "k").is_some());
    assert!(before.physical_columns.is_empty());
    assert_eq!(count_k(&sinew), N);

    // Analyzer promotes "k" (dense + high cardinality), leaves "rare".
    let decisions = sinew.run_analyzer("c", &policy()).unwrap();
    assert!(decisions.iter().any(|d| matches!(
        d,
        AnalyzerDecision::Materialize { name, .. } if name == "k"
    )));
    assert!(!decisions.iter().any(|d| matches!(
        d,
        AnalyzerDecision::Materialize { name, .. } | AnalyzerDecision::Dematerialize { name, .. }
            if name == "rare"
    )));

    // Mid-materialization (bounded budget): column is physical + dirty,
    // cursor mid-pass, and every value still visible through COALESCE.
    let step = sinew.materialize_step("c", StepBudget { rows: 100 }).unwrap();
    assert_eq!(step.rows_scanned, 100);
    let mid = sinew.storage_report("c").unwrap();
    let k = find_col(&mid.physical_columns, "k").expect("k physical while dirty");
    assert!(k.dirty && k.materialized);
    let cursor = k.cursor.as_ref().expect("cursor mid-pass");
    assert_eq!(cursor.direction, MoveDirection::Materialize);
    assert!(cursor.position > 0 && cursor.position < cursor.high_water);
    assert_eq!(count_k(&sinew), N);
    sinew.db().check_derived("c").unwrap();

    // Finish the pass: clean physical column, bytes moved out of the
    // reservoir, values intact.
    let done = sinew.materialize_until_clean("c").unwrap();
    assert!(done.columns_cleaned.contains(&"k".to_string()));
    assert!(done.columns_deferred.is_empty());
    let after = sinew.storage_report("c").unwrap();
    let k = find_col(&after.physical_columns, "k").expect("k physical when clean");
    assert!(k.materialized && !k.dirty && k.cursor.is_none());
    assert!(after.column_bytes > 0);
    assert!(after.reservoir_bytes < before.reservoir_bytes);
    assert_eq!(count_k(&sinew), N);
    // the completed promotion also built a columnar segment store over "k"
    let ks = after.columnar.iter().find(|c| c.column == "k").expect("columnar store for k");
    assert!(ks.segments > 0 && ks.encoded_bytes > 0);
    assert!(after.metrics.materializer_columnar_built >= 1);
    sinew.db().check_derived("c").unwrap();

    // Repeated extraction query → its path resolutions show in the report
    // ("rare" is still virtual, so this goes through the UDFs).
    for _ in 0..3 {
        sinew.query("SELECT COUNT(*) FROM c WHERE rare IS NOT NULL").unwrap();
    }
    let warmed = sinew.storage_report("c").unwrap();
    assert!(warmed.metrics.plan_cache_misses >= 3);
    assert!(warmed.metrics.udf_extractions > 0);
    assert!(warmed.metrics.queries_rewritten > 0);
    assert!(warmed.metrics.analyzer_runs >= 1);
    assert!(warmed.metrics.materializer_passes_completed >= 1);

    // Reverse crossing: a stricter policy demotes "k".
    let strict = AnalyzerPolicy { cardinality_threshold: u64::MAX, ..policy() };
    let decisions = sinew.run_analyzer("c", &strict).unwrap();
    assert!(decisions.iter().any(|d| matches!(
        d,
        AnalyzerDecision::Dematerialize { name, .. } if name == "k"
    )));

    // Mid-dematerialization: the column still exists (dirty), values moved
    // back so far live in the reservoir, the rest still in the column —
    // all N visible either way.
    sinew.materialize_step("c", StepBudget { rows: 100 }).unwrap();
    let mid = sinew.storage_report("c").unwrap();
    let k = find_col(&mid.physical_columns, "k").expect("k physical while demat-dirty");
    assert!(k.dirty && !k.materialized);
    assert_eq!(k.cursor.as_ref().unwrap().direction, MoveDirection::Dematerialize);
    assert_eq!(count_k(&sinew), N);
    sinew.db().check_derived("c").unwrap();

    // Complete: column dropped, everything back in the reservoir.
    let done = sinew.materialize_until_clean("c").unwrap();
    assert!(done.columns_cleaned.contains(&"k".to_string()));
    let after = sinew.storage_report("c").unwrap();
    assert!(find_col(&after.virtual_columns, "k").is_some());
    assert!(find_col(&after.physical_columns, "k").is_none());
    assert_eq!(count_k(&sinew), N);
    assert!(after.metrics.materializer_values_dematerialized >= N as u64);
    // dropping the column dropped its segment store with it
    assert!(after.columnar.is_empty(), "stale columnar stores: {:?}", after.columnar);
    sinew.db().check_derived("c").unwrap();
}

#[test]
fn stranded_values_block_column_drop_until_restored() {
    let sinew = Sinew::in_memory();
    sinew.create_collection("c").unwrap();
    let docs: String = (0..20).map(|i| format!("{{\"k\": \"v{i}\"}}\n")).collect();
    sinew.load_jsonl("c", &docs).unwrap();

    let promote =
        AnalyzerPolicy { density_threshold: 0.5, cardinality_threshold: 10, sample_rows: 1_000 };
    sinew.run_analyzer("c", &promote).unwrap();
    sinew.materialize_until_clean("c").unwrap();

    // Strand one value: null out the reservoir document of row 0, leaving
    // its "k" only in the physical column.
    sinew.db().update_row("c", 0, &[("data", Datum::Null)]).unwrap();
    sinew.db().check_derived("c").unwrap();

    // Demote "k" and drive the materializer. The old behaviour dropped the
    // column wholesale, destroying v0; now the pass must refuse.
    let demote = AnalyzerPolicy { cardinality_threshold: u64::MAX, ..promote };
    sinew.run_analyzer("c", &demote).unwrap();
    let report = sinew.materialize_until_clean("c").unwrap();
    assert!(report.columns_deferred.contains(&"k".to_string()));
    assert_eq!(report.values_stranded, 1);
    assert!(!report.columns_cleaned.contains(&"k".to_string()));
    sinew.db().check_derived("c").unwrap();

    // Column kept and still dirty; the stranded value stays readable.
    let schema = sinew.logical_schema("c");
    let k = schema.iter().find(|c| c.name == "k").unwrap();
    assert!(k.dirty && !k.materialized);
    let r = sinew.query("SELECT COUNT(*) FROM c WHERE k = 'v0'").unwrap();
    assert_eq!(r.rows[0][0], Datum::Int(1));
    assert_eq!(
        sinew.query("SELECT COUNT(*) FROM c WHERE k IS NOT NULL").unwrap().rows[0][0],
        Datum::Int(20)
    );
    let rep = sinew.storage_report("c").unwrap();
    assert!(rep.metrics.materializer_passes_deferred >= 1);
    assert!(rep.metrics.materializer_rows_stranded >= 1);
    let kc = rep.physical_columns.iter().find(|c| c.name == "k").unwrap();
    assert!(kc.dirty);

    // Repair: give row 0 a document again (an UPDATE through a virtual key
    // recreates it via set_key), then the pass completes and drops the
    // column with nothing lost.
    sinew.query("UPDATE c SET fixed = true WHERE k = 'v0'").unwrap();
    let report = sinew.materialize_until_clean("c").unwrap();
    assert!(report.columns_cleaned.contains(&"k".to_string()));
    assert_eq!(
        sinew.query("SELECT COUNT(*) FROM c WHERE k IS NOT NULL").unwrap().rows[0][0],
        Datum::Int(20)
    );
    assert_eq!(
        sinew.query("SELECT COUNT(*) FROM c WHERE k = 'v0'").unwrap().rows[0][0],
        Datum::Int(1)
    );
    let schema = sinew.logical_schema("c");
    let k = schema.iter().find(|c| c.name == "k").unwrap();
    assert!(!k.dirty && !k.materialized);
    sinew.db().check_derived("c").unwrap();
}

#[test]
fn storage_report_rejects_unknown_collection() {
    let sinew = Sinew::in_memory();
    assert!(sinew.storage_report("nope").is_err());
}

#[test]
fn promotion_creates_secondary_index_and_demotion_drops_it() {
    let sinew = loaded();
    // "k" has ~N distinct values, clearing the auto-index bar of 200: the
    // completed promotion pass must leave a bulk-built index behind.
    sinew.run_analyzer("c", &policy()).unwrap();
    sinew.materialize_until_clean("c").unwrap();

    let rep = sinew.storage_report("c").unwrap();
    assert_eq!(rep.indexes.len(), 1, "expected one auto-index: {:?}", rep.indexes);
    let ix = &rep.indexes[0];
    assert_eq!(ix.key_count, N as u64);
    assert!(ix.pages > 0 && ix.bytes > 0);
    assert!(rep.metrics.materializer_indexes_created >= 1);
    assert!(rep.exec.index_build_rows >= N as u64);
    sinew.db().check_derived("c").unwrap();

    // the analyzer also fed sampled cardinality to the planner as an
    // extraction-selectivity hint
    let hinted = sinew.db().planner_config().key_ndistinct["c"].get("k").copied();
    assert!(hinted.unwrap_or(0.0) >= 400.0, "missing ndistinct hint: {hinted:?}");

    // logical point queries on the promoted column go through the index:
    // without the column's store, which a point query over this small
    // collection prefers, the planner picks the index scan, which probes
    // once and fetches the one matching row by its row id, scanning no
    // heap page (ANALYZE first so the planner sees the column's true
    // cardinality)
    assert!(sinew.db().drop_columnar("c", "k").unwrap());
    sinew.query("ANALYZE c").unwrap();
    let plan = sinew.explain("SELECT k FROM c WHERE k = 'v123'").unwrap();
    assert!(plan.contains("Index Scan"), "expected index scan:\n{plan}");
    let before = sinew.db().exec_stats();
    let r = sinew.query("SELECT k FROM c WHERE k = 'v123'").unwrap();
    assert_eq!(r.rows.len(), 1);
    let after = sinew.db().exec_stats();
    assert_eq!(after.index_scans - before.index_scans, 1);
    assert_eq!(after.heap_rowid_fetches - before.heap_rowid_fetches, 1);
    assert_eq!(
        after.heap_fetches, before.heap_fetches,
        "an index scan must not scan heap rows"
    );
    let r = sinew.query("SELECT COUNT(*) FROM c WHERE k = 'v123'").unwrap();
    assert_eq!(r.rows[0][0], Datum::Int(1));

    // demotion drops the physical column — and the index rides along
    let strict = AnalyzerPolicy { cardinality_threshold: u64::MAX, ..policy() };
    sinew.run_analyzer("c", &strict).unwrap();
    sinew.materialize_until_clean("c").unwrap();
    assert!(sinew.storage_report("c").unwrap().indexes.is_empty());
    assert_eq!(count_k(&sinew), N);
    sinew.db().check_derived("c").unwrap();
}

#[test]
fn auto_index_respects_the_cardinality_bar() {
    // "k" is dense with 150 distinct values: enough for the policy to
    // promote it (threshold 100), too few for an index (bar 200).
    let sinew = Sinew::in_memory();
    sinew.create_collection("c").unwrap();
    let docs: String = (0..N).map(|i| format!("{{\"k\": \"v{}\"}}\n", i % 150)).collect();
    sinew.load_jsonl("c", &docs).unwrap();
    sinew.run_analyzer("c", &policy()).unwrap();
    let done = sinew.materialize_until_clean("c").unwrap();
    assert!(done.columns_cleaned.contains(&"k".to_string()));
    let rep = sinew.storage_report("c").unwrap();
    assert!(rep.indexes.is_empty(), "bar ignored: {:?}", rep.indexes);
    assert_eq!(rep.metrics.materializer_indexes_created, 0);
    assert_eq!(count_k(&sinew), N);
}

/// NoBench at a size that seals a 4096-row columnar segment: seven
/// promotion passes, each over every row, with the stores of the columns
/// promoted earlier riding along. A pass costs what its own column costs —
/// when every pass republished every store, this took minutes.
#[test]
fn promotion_until_clean_crosses_a_sealed_segment() {
    use sinew_nobench::{generate_one, NoBenchConfig};
    const DOCS: u64 = 6_000;
    let cfg = NoBenchConfig::default();
    let docs: Vec<_> = (0..DOCS).map(|i| generate_one(i, DOCS, &cfg)).collect();
    let sinew = Sinew::in_memory();
    sinew.create_collection("nobench").unwrap();
    sinew.load_docs("nobench", &docs).unwrap();
    let count = |sql: &str| sinew.query(sql).unwrap().rows[0][0].clone();
    let virtual_count = count("SELECT COUNT(*) FROM nobench WHERE thousandth < 500");

    sinew.run_analyzer("nobench", &AnalyzerPolicy::default()).unwrap();
    let started = std::time::Instant::now();
    let done = sinew.materialize_until_clean("nobench").unwrap();
    let took = started.elapsed();
    assert!(done.columns_cleaned.len() >= 5, "promoted only {:?}", done.columns_cleaned);
    assert!(sinew.logical_schema("nobench").iter().all(|c| !c.dirty));
    sinew.db().check_derived("nobench").unwrap();

    let rep = sinew.storage_report("nobench").unwrap();
    assert_eq!(rep.columnar.len(), done.columns_cleaned.len());
    assert!(rep.columnar.iter().all(|c| c.segments == 2), "{:?}", rep.columnar);
    assert_eq!(count("SELECT COUNT(*) FROM nobench WHERE thousandth < 500"), virtual_count);
    assert_eq!(count("SELECT COUNT(*) FROM nobench WHERE thousandth IS NULL"), Datum::Int(0));
    // Linear in the rows moved: generous for a debug build on a loaded
    // machine, two orders of magnitude below the quadratic pass.
    assert!(took.as_secs() < 60, "materialize_until_clean took {took:?}");
}

/// Each promotion step relocates the rows it moves, and vacuum then
/// empties the pages of their old versions: the next step refills those
/// pages instead of appending a copy of the table (DESIGN.md §34). Steps
/// of 256 rows, each moving every promoted column of its rows (§36), over
/// 1 536 NoBench documents leave the heap within 3× the pages its live
/// tuples fill.
#[test]
fn promotion_passes_recycle_the_pages_they_empty() {
    use sinew_nobench::{generate, NoBenchConfig};
    let docs = generate(1_536, &NoBenchConfig::default());
    let sinew = Sinew::in_memory();
    sinew.create_collection("nobench").unwrap();
    sinew.load_docs("nobench", &docs).unwrap();
    let loaded = sinew.storage_report("nobench").unwrap();
    assert_eq!(loaded.heap_free_pages, 0);
    sinew.run_analyzer("nobench", &AnalyzerPolicy::default()).unwrap();
    // Budgeted steps smaller than the table: one pass inside one
    // transaction would leave no emptied page for a later write to refill.
    let mut done = sinew_core::MaterializerReport::default();
    while sinew.logical_schema("nobench").iter().any(|c| c.dirty) {
        let r = sinew.materialize_step("nobench", StepBudget { rows: 256 }).unwrap();
        done.columns_cleaned.extend(r.columns_cleaned);
    }
    assert!(done.columns_cleaned.len() >= 5, "promoted only {:?}", done.columns_cleaned);
    sinew.db().check_derived("nobench").unwrap();
    let after = sinew.storage_report("nobench").unwrap();
    let page = sinew_rdbms::page::PAGE_SIZE as u64;
    let live = after.heap_live_bytes.div_ceil(page);
    assert!(
        after.heap_pages <= 3 * live,
        "{} heap pages ({} free) for {live} pages of live tuples (loaded: {} pages)",
        after.heap_pages,
        after.heap_free_pages,
        loaded.heap_pages
    );
    assert!(after.exec.heap_pages_recycled > 0);
    let heap_bytes = sinew.db().table_size_bytes("nobench").unwrap();
    assert_eq!(heap_bytes, after.heap_pages * page, "a document went to a jumbo chain");
    assert!(after.render_text().contains(&format!(
        "heap: {} pages, {} free, {} B live",
        after.heap_pages, after.heap_free_pages, after.heap_live_bytes
    )));
}

/// A snapshot held across promotion passes reads the documents as they
/// were before the passes, from the pages of the versions it can still
/// see. Once it ends, vacuum lists those pages, and a load refills them
/// without growing the database.
#[test]
fn an_old_snapshot_keeps_its_pages_until_it_ends() {
    use sinew_nobench::{generate, NoBenchConfig};
    let docs = generate(1_280, &NoBenchConfig::default());
    let sinew = Sinew::in_memory();
    sinew.create_collection("nobench").unwrap();
    sinew.load_docs("nobench", &docs[..1_024]).unwrap();
    sinew.run_analyzer("nobench", &AnalyzerPolicy::default()).unwrap();
    let q = r#"SELECT _rowid, str1, num, thousandth, "nested_obj.str", sparse_110 FROM nobench"#;
    let physical = sinew.rewrite(q).unwrap();
    let want = sinew_reference::query(sinew.db(), &physical);

    let mut old = sinew.db().session();
    old.execute("BEGIN").unwrap();
    let done = sinew.materialize_until_clean("nobench").unwrap();
    assert!(done.columns_cleaned.len() >= 5, "promoted only {:?}", done.columns_cleaned);
    sinew.db().check_derived("nobench").unwrap();
    let held = sinew.storage_report("nobench").unwrap();
    let got = old.execute(&physical).map(|r| r.rows);
    if let Err(e) = sinew_reference::agree(&got, &want) {
        panic!("the old snapshot disagrees with the rows before the passes: {e}");
    }
    old.execute("COMMIT").unwrap();

    sinew.db().vacuum().unwrap();
    sinew.db().check_derived("nobench").unwrap();
    let freed = sinew.storage_report("nobench").unwrap();
    assert_eq!(freed.heap_pages, held.heap_pages);
    assert!(
        freed.heap_free_pages > held.heap_free_pages + held.heap_pages / 2,
        "vacuum listed {} of {} pages (held: {})",
        freed.heap_free_pages,
        freed.heap_pages,
        held.heap_free_pages
    );
    let size = sinew.db().size_bytes();
    sinew.load_docs("nobench", &docs[1_024..]).unwrap();
    sinew.db().check_derived("nobench").unwrap();
    let reloaded = sinew.storage_report("nobench").unwrap();
    assert_eq!(sinew.db().size_bytes(), size, "the load allocated a page");
    assert!(reloaded.exec.heap_pages_recycled > freed.exec.heap_pages_recycled);
    assert_eq!(reloaded.rows, 1_280);
}
