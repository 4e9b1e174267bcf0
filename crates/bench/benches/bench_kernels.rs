//! Criterion benchmarks for the batched columnar kernels: scalar
//! (`SINEW_SIMD=0`) vs batched word-parallel predicate scans and gathers
//! over bit-packed, dictionary and run-length encoded segments.
//!
//! The canonical snapshot for these numbers is `results/BENCH_PR8.json`,
//! written by `cargo run --release -p sinew-bench --bin pr8_kernels`.

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
    let prev = std::env::var("SINEW_SIMD").ok();
    let mut g = c.benchmark_group("kernels");
    g.sample_size(10);
    for (name, store, lo, hi) in &cases {
        for mode in ["scalar", "batched"] {
            std::env::set_var("SINEW_SIMD", if mode == "scalar" { "0" } else { "1" });
            g.bench_with_input(BenchmarkId::new(*name, mode), &(), |b, ()| {
                b.iter(|| black_box(select_all(store, lo, hi)))
            });
        }
    }
    g.finish();
    match prev {
        Some(v) => std::env::set_var("SINEW_SIMD", v),
        None => std::env::remove_var("SINEW_SIMD"),
    }
}

criterion_group!(benches, bench_kernels);
criterion_main!(benches);
