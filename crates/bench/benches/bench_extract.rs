//! Criterion micro-benchmarks for Sinew's query-time extraction path
//! (Appendix B's mechanism): virtual-column extraction vs physical-column
//! access, through the full UDF machinery.

use criterion::{criterion_group, criterion_main, Criterion};
use sinew_core::{AnalyzerPolicy, Sinew};
use sinew_nobench::{generate, NoBenchConfig};
use std::hint::black_box;

const N: u64 = 2_000;

fn build(materialize: bool) -> Sinew {
    let sinew = Sinew::in_memory();
    sinew.create_collection("nobench").unwrap();
    sinew.load_docs("nobench", &generate(N, &NoBenchConfig::default())).unwrap();
    if materialize {
        let policy = AnalyzerPolicy {
            density_threshold: 0.5,
            cardinality_threshold: 100,
            sample_rows: 10_000,
        };
        sinew.run_analyzer("nobench", &policy).unwrap();
        sinew.materialize_until_clean("nobench").unwrap();
        sinew.db().analyze("nobench").unwrap();
    }
    sinew
}

fn bench_virtual_vs_physical(c: &mut Criterion) {
    let virt = build(false);
    let phys = build(true);

    let mut g = c.benchmark_group("projection_scan");
    g.sample_size(20);
    g.bench_function("virtual_column", |b| {
        b.iter(|| black_box(virt.query("SELECT str1 FROM nobench").unwrap().rows.len()))
    });
    g.bench_function("physical_column", |b| {
        b.iter(|| black_box(phys.query("SELECT str1 FROM nobench").unwrap().rows.len()))
    });
    g.finish();

    let mut g = c.benchmark_group("nested_key_scan");
    g.sample_size(20);
    g.bench_function("virtual_dotted", |b| {
        b.iter(|| {
            black_box(
                virt.query(r#"SELECT "nested_obj.str" FROM nobench"#).unwrap().rows.len(),
            )
        })
    });
    g.bench_function("physical_dotted", |b| {
        b.iter(|| {
            black_box(
                phys.query(r#"SELECT "nested_obj.str" FROM nobench"#).unwrap().rows.len(),
            )
        })
    });
    g.finish();
}

fn bench_rewrite_overhead(c: &mut Criterion) {
    let virt = build(false);
    let mut g = c.benchmark_group("rewriter");
    g.bench_function("rewrite_only", |b| {
        b.iter(|| {
            black_box(
                virt.rewrite("SELECT str1, num FROM nobench WHERE sparse_110 = 'x'").unwrap(),
            )
        })
    });
    g.finish();
}

/// A plan resolved per call vs a reused extraction plan, at 1/3/5
/// dotted-path levels: the gap is what resolving at bind buys the
/// per-tuple loop (catalog lookups and prefix allocation drop out
/// entirely). Beside them the bound `extract_key_i` call as the executor
/// makes it, in a raw-SQL scan over `ROWS` copies of the document: one
/// iteration is one bind, `ROWS` bound calls (argument match, the plan,
/// one counter) and the scan that feeds them.
fn bench_plan_vs_cold(c: &mut Criterion) {
    use sinew_core::{loader, ExtractionPlan, Want};

    const ROWS: usize = 1_000;
    let sinew = Sinew::in_memory();
    let db = sinew.db();
    let cat = sinew.catalog();
    let doc = sinew_json::parse(
        r#"{"a1": 1, "b": {"c": {"a3": 3}}, "d": {"e": {"f": {"g": {"a5": 5}}}}}"#,
    )
    .unwrap();
    let (bytes, _) = loader::serialize_doc(db, cat, &doc).unwrap();
    sinew.create_collection("docs").unwrap();
    sinew.load_docs("docs", &vec![doc; ROWS]).unwrap();

    for (depth, path) in [("depth1", "a1"), ("depth3", "b.c.a3"), ("depth5", "d.e.f.g.a5")] {
        let mut g = c.benchmark_group(&format!("extract_{depth}"));
        g.bench_function("cold_resolve_per_call", |b| {
            b.iter(|| black_box(ExtractionPlan::build(cat, path, Want::Int).extract(cat, &bytes)))
        });
        let plan = ExtractionPlan::build(cat, path, Want::Int);
        g.bench_function("plan_reused", |b| {
            b.iter(|| black_box(plan.extract(cat, &bytes)))
        });
        let sql = format!("SELECT extract_key_i(data, '{path}') FROM docs");
        g.bench_function("bound_call_scan_1k_rows", |b| {
            b.iter(|| black_box(db.execute(&sql).unwrap().rows.len()))
        });
        g.finish();
    }
}

criterion_group!(benches, bench_virtual_vs_physical, bench_rewrite_overhead, bench_plan_vs_cold);
criterion_main!(benches);
