//! Criterion benchmarks for the batched columnar kernels: word-parallel
//! predicate scans over bit-packed, dictionary and run-length encoded
//! segments. (The scalar per-slot loops they replaced are a test reference
//! inside `columnar.rs`, not a path to time.)

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sinew_rdbms::{ColumnStore, Datum, KeyRange};
use std::hint::black_box;

const N: u64 = 1 << 20;

/// splitmix64 — deterministic data without depending on a rand crate.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

fn build_store(name: &str, mk: impl Fn(u64) -> Datum) -> ColumnStore {
    let mut cs = ColumnStore::new(name);
    for i in 0..=N {
        cs.append(i, mk(i));
    }
    for i in (0..N).step_by(97) {
        cs.delete(i);
    }
    cs
}

fn select_all(cs: &ColumnStore, lo: &Datum, hi: &Datum) -> usize {
    let range =
        KeyRange { lo: Some(lo.clone()), hi: Some(hi.clone()), ..KeyRange::default() };
    let mut total = 0usize;
    let mut offs = Vec::new();
    for seg in 0..cs.n_segments() {
        offs.clear();
        cs.select_segment(seg, &range, &mut offs);
        total += offs.len();
    }
    total
}

fn bench_kernels(c: &mut Criterion) {
    let cases = [
        (
            "packed",
            build_store("packed", |i| Datum::Int((mix(i) % 1024) as i64)),
            Datum::Int(100),
            Datum::Int(200),
        ),
        (
            "dict",
            build_store("dict", |i| Datum::Text(format!("cat{:02}", mix(i) % 24))),
            Datum::Text("cat05".into()),
            Datum::Text("cat09".into()),
        ),
        (
            "rle",
            build_store("rle", |i| Datum::Int((i / 512) as i64)),
            Datum::Int(100),
            Datum::Int(300),
        ),
    ];
    let mut g = c.benchmark_group("kernels");
    g.sample_size(10);
    for (name, store, lo, hi) in &cases {
        g.bench_with_input(BenchmarkId::new(*name, "select"), &(), |b, ()| {
            b.iter(|| black_box(select_all(store, lo, hi)))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_kernels);
criterion_main!(benches);
