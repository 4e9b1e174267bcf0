//! Benchmarks for the morsel-parallel scan pipeline and for extraction
//! where the value is read: in-memory scans at 1/2/4/8 worker threads, a
//! file-backed collection six times its buffer pool (its scans read past
//! the pool, DESIGN.md §24) under a projection, `COUNT(*)`, a Q10
//! `GROUP BY` and the Q5 (text `=`) and Q8 (`array_contains`) selections
//! at one and more threads, and a 1 %-selective filter projecting k =
//! 1/3/5 virtual keys, which tests the filter's key in place for every row
//! (DESIGN.md §27) and decodes the projected keys only for the rows that
//! pass (DESIGN.md §25), the Q11 self-join in both `FROM` orders
//! (DESIGN.md §30), Q9 and the §6.6 `UPDATE`, whose filters on a sparse
//! key read only the pages that hold it (DESIGN.md §32), and Q3 and Q4,
//! whose projections of sparse keys serve the pages that hold none of
//! them unread (DESIGN.md §33). Two groups run over materialized columns, where a
//! scan tests its filter before it builds the rest of a row (DESIGN.md
//! §28): Q8 over a physical array column with one survivor, and the §6.6
//! `UPDATE` at one and two threads.
//!
//! `cargo bench -p sinew-bench --bench bench_parallel_scan`. The
//! end-to-end record for the same paths is `sinewbench`
//! (`nobench_virtual_spill` for the file-backed scan).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sinew_core::{AnalyzerPolicy, Sinew};
use sinew_nobench::{generate, NoBenchConfig, QueryParams};
use sinew_rdbms::ExecLimits;
use std::hint::black_box;

const N: u64 = 100_000;

fn build() -> Sinew {
    let sinew = Sinew::in_memory();
    sinew.create_collection("nobench").unwrap();
    sinew.load_docs("nobench", &generate(N, &NoBenchConfig::default())).unwrap();
    sinew
}

fn with_threads(sinew: &Sinew, threads: usize) {
    sinew
        .db()
        .set_exec_limits(ExecLimits { exec_threads: threads, ..ExecLimits::default() });
}

fn bench_parallel_scan(c: &mut Criterion) {
    let sinew = build();
    let sql = "SELECT str1, num FROM nobench WHERE num >= 0";

    let mut g = c.benchmark_group("parallel_scan");
    g.sample_size(10);
    for threads in [1usize, 2, 4, 8] {
        g.bench_with_input(BenchmarkId::from_parameter(threads), &threads, |b, &t| {
            with_threads(&sinew, t);
            b.iter(|| black_box(sinew.query(sql).unwrap().rows.len()))
        });
    }
    g.finish();
}

/// The `nobench_virtual_spill` regime: 8 192 documents (about 590 heap
/// pages) behind a 96-page pool, so every scan reads most pages from the
/// file. Six statement shapes over it: a projection at 1/2/4 threads,
/// at 1/2 threads `SELECT COUNT(*)` and NoBench Q10's filtered `GROUP BY`
/// (both fold inside the scan's morsels, DESIGN.md §29), a full-table
/// `GROUP BY thousandth` (1 000 groups, so every morsel table is large)
/// at 1/2/4 threads, and NoBench Q5 and Q8, whose filters are value tests
/// (DESIGN.md §27). Then NoBench Q11 at 1/2 threads in both `FROM`
/// orders: the hash join builds the filtered side either way and probes
/// inside the other side's scan morsels (DESIGN.md §30). Last, NoBench Q9
/// and the §6.6 `UPDATE` at 1/2 threads: each filters on a sparse key
/// that about one page in seven holds, so the page synopsis keeps each
/// statement to at most `MAX_SPARSE_READS` file reads (DESIGN.md §32);
/// and NoBench Q3 and Q4 at 1/2 threads, which project sparse keys of one
/// and two key groups: the pages that hold none of them are served
/// unread, so each reads at most `MAX_SPARSE_READS` per key group
/// (DESIGN.md §33). Last, a projection group: Q3 and one of every
/// top-level key, each at 1/2 threads (DESIGN.md §35).
fn bench_past_the_pool(c: &mut Criterion) {
    let dir = std::env::temp_dir().join(format!("sinew-bench-spill-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let sinew = Sinew::open(&dir.join("db"), 96, None).unwrap();
    sinew.create_collection("nobench").unwrap();
    let docs = generate(8_192, &NoBenchConfig::default());
    let p = QueryParams::derive(&docs, &NoBenchConfig::default());
    sinew.load_docs("nobench", &docs).unwrap();
    sinew.db().checkpoint().unwrap();

    let select = r#"SELECT str1, num, "nested_obj.str" FROM nobench"#;
    let q5 = format!("{select} WHERE str1 = '{}'", p.point_str1);
    let q8 = format!("{select} WHERE array_contains(nested_arr, '{}')", p.arr_elem);
    let groups: [(&str, &str, &[usize]); 6] = [
        ("scan_past_the_pool", "SELECT str1, num FROM nobench WHERE num >= 0", &[1, 2, 4]),
        ("count_star_past_the_pool", "SELECT COUNT(*) FROM nobench", &[1, 2]),
        (
            "q10_group_by_past_the_pool",
            "SELECT thousandth, COUNT(*) FROM nobench WHERE num BETWEEN 2048 AND 4096 \
             GROUP BY thousandth",
            &[1, 2],
        ),
        (
            "group_by_1000_groups_past_the_pool",
            "SELECT thousandth, COUNT(*) FROM nobench GROUP BY thousandth",
            &[1, 2, 4],
        ),
        ("q5_text_eq_past_the_pool", &q5, &[1, 2]),
        ("q8_array_contains_past_the_pool", &q8, &[1, 2]),
    ];
    for (name, sql, threads) in groups {
        let mut g = c.benchmark_group(name);
        g.sample_size(10);
        for &threads in threads {
            g.bench_with_input(BenchmarkId::from_parameter(threads), &threads, |b, &t| {
                with_threads(&sinew, t);
                b.iter(|| black_box(sinew.query(sql).unwrap().rows.len()))
            });
        }
        g.finish();
    }
    let mut g = c.benchmark_group("q11_join_past_the_pool");
    g.sample_size(10);
    for from in ["nobench l, nobench r", "nobench r, nobench l"] {
        let q11 = format!(
            "SELECT l.str1, r.num FROM {from} WHERE l.\"nested_obj.str\" = r.str1 \
             AND l.num BETWEEN {} AND {}",
            p.join_lo,
            p.join_lo + p.join_width
        );
        for threads in [1usize, 2] {
            let id = BenchmarkId::new(from.replace("nobench ", "").replace(", ", "_"), threads);
            g.bench_with_input(id, &threads, |b, &t| {
                with_threads(&sinew, t);
                b.iter(|| black_box(sinew.query(&q11).unwrap().rows.len()))
            });
        }
    }
    g.finish();

    let q9 = format!("{select} WHERE {} = '{}'", p.sparse_pred_key, p.sparse_pred_val);
    let update = format!(
        "UPDATE nobench SET {} = 'DUMMY' WHERE {} = '{}'",
        p.update_set_key, p.update_where_key, p.update_where_val
    );
    let q3 = "SELECT sparse_110, sparse_119 FROM nobench".to_string();
    let q4 = "SELECT sparse_110, sparse_220 FROM nobench".to_string();
    for (name, sql, max_reads) in [
        ("q9_sparse_past_the_pool", &q9, MAX_SPARSE_READS),
        ("update_sparse_past_the_pool", &update, MAX_SPARSE_READS),
        ("q3_sparse_projection_past_the_pool", &q3, MAX_SPARSE_READS),
        ("q4_sparse_projection_past_the_pool", &q4, 2 * MAX_SPARSE_READS),
    ] {
        for threads in [1usize, 2] {
            with_threads(&sinew, threads);
            sinew.query(sql).unwrap();
            sinew.db().reset_io_stats();
            sinew.query(sql).unwrap();
            let reads = sinew.db().io_stats().disk_reads;
            assert!(reads <= max_reads, "{name} at {threads} threads: {reads} file reads");
        }
        let mut g = c.benchmark_group(name);
        g.sample_size(10);
        for threads in [1usize, 2] {
            g.bench_with_input(BenchmarkId::from_parameter(threads), &threads, |b, &t| {
                with_threads(&sinew, t);
                b.iter(|| black_box(sinew.query(sql).unwrap().rows.len()))
            });
        }
        g.finish();
    }

    // Every scan row is decoded into one buffer the scan reuses (DESIGN.md
    // §35): Q3's projection, whose pages are served unread, and one that
    // decodes every top-level key of every row.
    let full = r#"SELECT str1, str2, num, bool, dyn1, dyn2, thousandth, nested_obj, nested_arr
                  FROM nobench"#;
    let mut g = c.benchmark_group("projection_past_the_pool");
    g.sample_size(10);
    for (id, sql) in [("served", q3.as_str()), ("full", full)] {
        for threads in [1usize, 2] {
            g.bench_with_input(BenchmarkId::new(id, threads), &threads, |b, &t| {
                with_threads(&sinew, t);
                b.iter(|| black_box(sinew.query(sql).unwrap().rows.len()))
            });
        }
    }
    g.finish();
    drop(sinew);
    std::fs::remove_dir_all(&dir).ok();
}

/// File reads one sparse-key statement may make on the spill shape, per
/// key group it reads: about 500 without the synopsis (every data page the
/// pool does not hold), about 70 with it (Q9, the update, Q3), about 135
/// for Q4's two groups.
const MAX_SPARSE_READS: u64 = 110;

/// Late extraction: `thousandth < 10` passes 1 % of the rows, so the
/// projected keys cost k decodes per passing row on top of the filter's
/// one value test per row — growth in k should be small against the scan.
fn bench_late_extraction(c: &mut Criterion) {
    let sinew = build();
    with_threads(&sinew, 1); // isolate extraction from scan parallelism

    let keys = ["str1", "num", "bool", "str2", "dyn1"];
    let mut g = c.benchmark_group("late_extraction");
    g.sample_size(10);
    for k in [1usize, 3, 5] {
        let sql = format!("SELECT {} FROM nobench WHERE thousandth < 10", keys[..k].join(", "));
        g.bench_with_input(BenchmarkId::from_parameter(k), &sql, |b, sql| {
            b.iter(|| black_box(sinew.query(sql).unwrap().rows.len()))
        });
    }
    g.finish();
}

/// The `nobench_hybrid` shape: 1 536 documents under the paper's §6.1
/// policy, so the dense keys are physical columns with segment stores. Q8
/// reads `nested_arr` in place and gathers its projected columns for the
/// one row that passes; the §6.6 `UPDATE` scans whole rows and decodes a
/// row's other columns only where the filter passes.
fn bench_late_materialization(c: &mut Criterion) {
    let cfg = NoBenchConfig::default();
    let docs = generate(1_536, &cfg);
    let p = QueryParams::derive(&docs, &cfg);
    let sinew = Sinew::in_memory();
    sinew.create_collection("nobench").unwrap();
    sinew.load_docs("nobench", &docs).unwrap();
    sinew.run_analyzer("nobench", &AnalyzerPolicy::default()).unwrap();
    sinew.materialize_until_clean("nobench").unwrap();
    sinew.db().analyze("nobench").unwrap();

    // An element of exactly one document's `nested_arr`: one survivor.
    let elems = |d: &sinew_json::Value| -> Vec<String> {
        let arr = d.get("nested_arr").and_then(|a| a.as_array()).unwrap_or(&[]);
        arr.iter().filter_map(|e| e.as_str().map(str::to_string)).collect()
    };
    let mut counts = std::collections::HashMap::new();
    for d in &docs {
        let mut mine = elems(d);
        mine.sort();
        mine.dedup();
        for e in mine {
            *counts.entry(e).or_insert(0) += 1;
        }
    }
    let unique = docs.iter().flat_map(elems).find(|e| counts[e] == 1).unwrap();
    let select = r#"SELECT str1, num, "nested_obj.str" FROM nobench"#;
    let q8 = format!("{select} WHERE array_contains(nested_arr, '{unique}')");
    // Q8 reads the column stores and builds one row; Q1 filters nothing.
    let before = sinew.db().exec_stats();
    assert_eq!(sinew.query(&q8).unwrap().rows.len(), 1);
    let after = sinew.db().exec_stats();
    assert_eq!(after.columnar_scans, before.columnar_scans + 1, "Q8 left the column stores");
    assert_eq!(after.scan_rows_rejected_early - before.scan_rows_rejected_early, 1_535);
    sinew.query("SELECT str1, num FROM nobench").unwrap();
    assert_eq!(sinew.db().exec_stats().scan_rows_rejected_early, after.scan_rows_rejected_early);
    let update = format!(
        "UPDATE nobench SET {} = 'DUMMY' WHERE {} = '{}'",
        p.update_set_key, p.update_where_key, p.update_where_val
    );
    let groups: [(&str, &str, &[usize]); 2] =
        [("q8_physical_array", &q8, &[1]), ("update_scan_materialized", &update, &[1, 2])];
    for (name, sql, threads) in groups {
        let mut g = c.benchmark_group(name);
        g.sample_size(10);
        for &threads in threads {
            g.bench_with_input(BenchmarkId::from_parameter(threads), &threads, |b, &t| {
                with_threads(&sinew, t);
                b.iter(|| black_box(sinew.query(sql).unwrap().rows.len()))
            });
        }
        g.finish();
    }
}

criterion_group!(
    benches,
    bench_parallel_scan,
    bench_past_the_pool,
    bench_late_extraction,
    bench_late_materialization
);
criterion_main!(benches);
