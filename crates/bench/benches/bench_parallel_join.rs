//! Benchmarks for the parallel pipeline breakers over an in-memory
//! 200 000-row fact table `f` and a 20 000-row dimension `d`, at one
//! thread (`serial`) and at 2/4/8 worker threads: a hash join, which
//! builds `d` on the statement's thread and probes inside `f`'s scan
//! morsels (DESIGN.md §30), and a 5 000-group hash aggregation, which
//! folds inside the morsels (DESIGN.md §29).
//!
//! `cargo bench -p sinew-bench --bench bench_parallel_join`. The
//! end-to-end record for joins and aggregates is `sinewbench`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sinew_rdbms::{Database, Datum, ExecLimits};
use std::hint::black_box;

/// splitmix64 — deterministic data without depending on a rand crate.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

const FACT_ROWS: u64 = 200_000;
const DIM_ROWS: u64 = 20_000;
const GROUPS: u64 = 5_000;

const JOIN_Q: &str = "SELECT COUNT(*), SUM(d.w), SUM(f.v) FROM f JOIN d ON f.k = d.k";
const AGG_Q: &str = "SELECT g, COUNT(*), SUM(v), MIN(v), MAX(v) FROM f GROUP BY g";

fn build() -> Database {
    let db = Database::in_memory();
    db.execute("CREATE TABLE f (k int, g int, v int)").unwrap();
    db.execute("CREATE TABLE d (k int, w int)").unwrap();
    let fact: Vec<Vec<Datum>> = (0..FACT_ROWS)
        .map(|i| {
            let h = mix(i);
            vec![
                Datum::Int((h % DIM_ROWS) as i64),
                Datum::Int((h % GROUPS) as i64),
                Datum::Int((h % 1_000) as i64),
            ]
        })
        .collect();
    db.insert_rows("f", &fact).unwrap();
    let dim: Vec<Vec<Datum>> = (0..DIM_ROWS)
        .map(|i| vec![Datum::Int(i as i64), Datum::Int((mix(i ^ 0xd1b5) % 500) as i64)])
        .collect();
    db.insert_rows("d", &dim).unwrap();
    db.execute("ANALYZE f").unwrap();
    db.execute("ANALYZE d").unwrap();
    db
}

fn with_threads(db: &Database, threads: usize) {
    db.set_exec_limits(ExecLimits { exec_threads: threads, ..ExecLimits::default() });
}

fn bench_breaker(c: &mut Criterion, name: &str, sql: &str) {
    let db = build();
    let mut g = c.benchmark_group(name);
    g.sample_size(10);
    with_threads(&db, 1);
    g.bench_function("serial", |b| b.iter(|| black_box(db.execute(sql).unwrap().rows.len())));
    for threads in [2usize, 4, 8] {
        g.bench_with_input(BenchmarkId::from_parameter(threads), &threads, |b, &t| {
            with_threads(&db, t);
            b.iter(|| black_box(db.execute(sql).unwrap().rows.len()))
        });
    }
    g.finish();
}

fn bench_parallel_join(c: &mut Criterion) {
    bench_breaker(c, "parallel_hash_join", JOIN_Q);
}

fn bench_parallel_agg(c: &mut Criterion) {
    bench_breaker(c, "parallel_hash_agg", AGG_Q);
}

criterion_group!(benches, bench_parallel_join, bench_parallel_agg);
criterion_main!(benches);
