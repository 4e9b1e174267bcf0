//! Generated queries (DESIGN.md §31): each seed's statement is checked
//! against the plan-free reference, by ternary logic partitioning, and
//! byte for byte across `exec_threads` {1, 2, 4} × `block_rows`
//! {1, 3, 1024}. The tables have the shapes the suites build: `t` and `s`
//! of `exec_equivalence.rs` (NULLs, an index, a column store), an empty
//! `e`, `m` with `COALESCE(x, y)` keys where `1` meets `1.0` (and `0.0`
//! meets `-0.0`), and `h`, whose integer `SUM` overflows i64 only once
//! its morsels' partial sums are merged.

use sinew_rdbms::{Database, Datum};
use sinew_reference::gen;

/// splitmix64 — deterministic data without depending on a rand crate.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

/// Seeds 0..300 are checked on every run, in two halves that run side by
/// side; a seed's statement is fixed by the generator, so a failure names
/// a statement to replay.
const HALF: u64 = 150;

fn build() -> Database {
    let db = Database::in_memory();
    db.execute("CREATE TABLE t (a int, b int, c text, d float)").unwrap();
    db.execute("CREATE TABLE s (k int, v text)").unwrap();
    db.execute("CREATE TABLE e (k int, w text)").unwrap();
    db.execute("CREATE TABLE m (x int, y float)").unwrap();
    db.execute("CREATE TABLE h (g int, v int)").unwrap();
    let int_or_null = |null: bool, v: i64| if null { Datum::Null } else { Datum::Int(v) };
    let t: Vec<Vec<Datum>> = (0..700u64)
        .map(|i| {
            let h = mix(i);
            vec![
                Datum::Int((h % 1000) as i64),
                int_or_null(h.is_multiple_of(13), ((h >> 8) % 50) as i64),
                Datum::Text(format!("w{}", h % 23)),
                Datum::Float((h % 9973) as f64 / 7.0),
            ]
        })
        .collect();
    db.insert_rows("t", &t).unwrap();
    let s: Vec<Vec<Datum>> = (0..40u64)
        .map(|i| {
            let h = mix(i ^ 0xdead_beef);
            let v =
                if h.is_multiple_of(11) { Datum::Null } else { Datum::Text(format!("w{}", h % 7)) };
            vec![Datum::Int((h % 40) as i64), v]
        })
        .collect();
    db.insert_rows("s", &s).unwrap();
    let m: Vec<Vec<Datum>> = (0..600u64)
        .map(|i| {
            let h = mix(i ^ 0x5eed);
            let y = match h % 7 {
                0 => -0.0,
                1 => 0.0,
                2 => 1.0,
                3 => 9_007_199_254_740_992.0,
                _ => (h % 40) as f64 / 4.0,
            };
            let x = match (h >> 8) % 5 {
                0 | 1 => Datum::Null,
                2 => Datum::Int(1),
                3 => Datum::Int(9_007_199_254_740_993),
                _ => Datum::Int(((h >> 12) % 10) as i64),
            };
            vec![x, Datum::Float(y)]
        })
        .collect();
    db.insert_rows("m", &m).unwrap();
    // 1 024 rows of about 3·10^16: four morsels of 256, each summing to
    // about 7.7·10^18 — in range — and 3.1·10^19 in all.
    let h: Vec<Vec<Datum>> = (0..1024i64)
        .map(|i| vec![Datum::Int(i % 3), Datum::Int(30_000_000_000_000_000 + i * 7_919)])
        .collect();
    db.insert_rows("h", &h).unwrap();
    db.create_index("t", "t_a", "a", true).unwrap();
    db.create_index("s", "s_k", "k", true).unwrap();
    db.build_columnar("t", "b").unwrap();
    for table in ["t", "s", "e", "m", "h"] {
        db.execute(&format!("ANALYZE {table}")).unwrap();
    }
    db
}

/// Every seed's statement agrees with the reference, with its partitions
/// and across configurations.
fn check_seeds(seeds: std::ops::Range<u64>) {
    let db = build();
    let tables =
        gen::tables(&db, &[("t", true), ("s", true), ("e", true), ("m", false), ("h", false)])
            .unwrap();
    let mut failures = Vec::new();
    for seed in seeds {
        let case = gen::case(&tables, seed);
        for f in gen::check(&db, &case) {
            failures.push(format!("seed {seed}: {}\n  {f}", case.sql()));
        }
    }
    assert!(failures.is_empty(), "{} failures:\n{}", failures.len(), failures.join("\n"));
}

#[test]
fn generated_queries_agree_seeds_0_to_149() {
    check_seeds(0..HALF);
}

#[test]
fn generated_queries_agree_seeds_150_to_299() {
    check_seeds(HALF..2 * HALF);
}
