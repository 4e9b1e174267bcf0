//! PR8 snapshot harness — SIMD-width columnar kernels.
//!
//! Drives `ColumnStore` directly (no SQL layer) so the measurement
//! isolates the kernel layer itself: per-slot scalar evaluation
//! (`SINEW_SIMD=0`, the differential oracle) against the batched
//! word-parallel kernels, per encoding:
//!
//! * **bit-packed ints** — 64-value block unpacking + range masks;
//! * **dictionary text** — predicate rewritten to a code range, scan
//!   runs over packed codes only;
//! * **run-length runs** — one predicate eval per run, bitmap-word
//!   emission for accepted runs.
//!
//! Every timed shape is first checked identical across the two paths
//! (selection offsets and gathered values), so the snapshot can't record
//! a fast-but-wrong kernel. Writes the `kernels` section of
//! `results/BENCH_PR8.json` (override via SINEW_BENCH_SNAPSHOT) and
//! asserts the ≥2x floor on the bit-packed and dictionary predicate
//! scans that PR8's acceptance bar names.

use sinew_bench::{ms, record_snapshot, time_avg, HarnessConfig, TablePrinter};
use sinew_rdbms::{ColumnStore, Datum, KernelStats, KeyRange};
use std::time::Duration;

/// splitmix64 — deterministic data without depending on a rand crate.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

/// `n` rows plus one sealing extra, with every 97th row deleted so the
/// kernels run against a liveness bitmap with holes (the realistic case),
/// but far above the re-seal threshold.
fn build_store(name: &str, n: u64, mk: impl Fn(u64) -> Datum) -> ColumnStore {
    let mut cs = ColumnStore::new(name);
    for i in 0..=n {
        cs.append(i, mk(i));
    }
    for i in (0..n).step_by(97) {
        cs.delete(i);
    }
    cs
}

/// One bounded select over every segment of the store; offsets are
/// collected per segment so the two modes can be diffed exactly.
fn select_all(
    cs: &ColumnStore,
    lo: &Datum,
    hi: &Datum,
    out: &mut Vec<Vec<u32>>,
) -> KernelStats {
    out.clear();
    let range =
        KeyRange { lo: Some(lo.clone()), hi: Some(hi.clone()), ..KeyRange::default() };
    let mut stats = KernelStats::default();
    for seg in 0..cs.n_segments() {
        let mut offs = Vec::new();
        stats.merge(&cs.select_segment(seg, &range, &mut offs));
        out.push(offs);
    }
    stats
}

/// Gather every previously selected offset back into datums.
fn gather_all(cs: &ColumnStore, offs: &[Vec<u32>], out: &mut Vec<Vec<Datum>>) -> KernelStats {
    out.clear();
    let mut stats = KernelStats::default();
    for (seg, o) in offs.iter().enumerate() {
        let mut vals = Vec::new();
        cs.gather(seg as u64, o, &mut vals, &mut stats);
        out.push(vals);
    }
    stats
}

struct Case {
    name: &'static str,
    store: ColumnStore,
    lo: Datum,
    hi: Datum,
    /// asserted ≥2x floor on the predicate scan (PR8 acceptance bar)
    floor: Option<f64>,
}

fn main() {
    let cfg = HarnessConfig::from_args();
    if std::env::var_os("SINEW_BENCH_SNAPSHOT").is_none() {
        std::env::set_var("SINEW_BENCH_SNAPSHOT", "results/BENCH_PR8.json");
    }
    let prev_simd = std::env::var("SINEW_SIMD").ok();

    let n: u64 = if cfg.run_large { 8 << 20 } else { 1 << 20 };
    println!("=== PR8 — batched kernels vs scalar oracle, {n} rows per encoding ===\n");

    let cases = [
        Case {
            name: "bit-packed int",
            store: build_store("packed", n, |i| Datum::Int((mix(i) % 1024) as i64)),
            lo: Datum::Int(100),
            hi: Datum::Int(200),
            floor: Some(2.0),
        },
        Case {
            name: "dictionary text",
            store: build_store("dict", n, |i| Datum::Text(format!("cat{:02}", mix(i) % 24))),
            lo: Datum::Text("cat05".into()),
            hi: Datum::Text("cat09".into()),
            floor: Some(2.0),
        },
        Case {
            name: "rle runs",
            store: build_store("rle", n, |i| Datum::Int((i / 512) as i64)),
            lo: Datum::Int(100),
            hi: Datum::Int(300),
            floor: None,
        },
    ];

    let table = TablePrinter::new(
        &["Encoding", "Scalar (ms)", "Batched (ms)", "Speedup", "Gather x"],
        &[18, 12, 13, 9, 9],
    );
    let mut snapshot: Vec<(String, f64)> = vec![("rows".into(), n as f64)];
    for case in &cases {
        let mut offs_scalar = Vec::new();
        let mut offs_batched = Vec::new();
        let mut vals_scalar = Vec::new();
        let mut vals_batched = Vec::new();

        // Differential check before any timing: both paths must agree on
        // the selected offsets and the gathered values.
        std::env::set_var("SINEW_SIMD", "0");
        let st_scalar = select_all(&case.store, &case.lo, &case.hi, &mut offs_scalar);
        gather_all(&case.store, &offs_scalar, &mut vals_scalar);
        std::env::set_var("SINEW_SIMD", "1");
        let st_batched = select_all(&case.store, &case.lo, &case.hi, &mut offs_batched);
        let gt_batched = gather_all(&case.store, &offs_batched, &mut vals_batched);
        assert_eq!(offs_scalar, offs_batched, "{}: selection offsets diverged", case.name);
        assert_eq!(vals_scalar, vals_batched, "{}: gathered values diverged", case.name);
        assert_eq!(st_scalar.batched, 0, "{}: scalar oracle took a batched path", case.name);
        match case.name {
            "rle runs" => assert!(
                st_batched.rle_runs_skipped > 0,
                "{}: no runs were skipped at run level",
                case.name
            ),
            _ => assert!(
                st_batched.batched > 0 && gt_batched.batched > 0,
                "{}: batched kernels never engaged",
                case.name
            ),
        }
        let hits: usize = offs_scalar.iter().map(Vec::len).sum();

        let time_mode = |mode: &str, f: &mut dyn FnMut()| -> Duration {
            std::env::set_var("SINEW_SIMD", mode);
            time_avg(cfg.reps, f)
        };
        let mut out = Vec::new();
        let t_sel_scalar = time_mode("0", &mut || {
            select_all(&case.store, &case.lo, &case.hi, &mut out);
        });
        let t_sel_batched = time_mode("1", &mut || {
            select_all(&case.store, &case.lo, &case.hi, &mut out);
        });
        let mut vals = Vec::new();
        let t_gat_scalar = time_mode("0", &mut || {
            gather_all(&case.store, &offs_scalar, &mut vals);
        });
        let t_gat_batched = time_mode("1", &mut || {
            gather_all(&case.store, &offs_scalar, &mut vals);
        });

        let sel_speedup = t_sel_scalar.as_secs_f64() / t_sel_batched.as_secs_f64();
        let gat_speedup = t_gat_scalar.as_secs_f64() / t_gat_batched.as_secs_f64();
        table.row(&[
            case.name.into(),
            ms(t_sel_scalar),
            ms(t_sel_batched),
            format!("{sel_speedup:.1}x"),
            format!("{gat_speedup:.1}x"),
        ]);
        let key = case.name.replace([' ', '-'], "_");
        snapshot.push((format!("{key}_hits"), hits as f64));
        snapshot.push((format!("{key}_scalar_ms"), t_sel_scalar.as_secs_f64() * 1e3));
        snapshot.push((format!("{key}_batched_ms"), t_sel_batched.as_secs_f64() * 1e3));
        snapshot.push((format!("{key}_speedup"), sel_speedup));
        snapshot.push((format!("{key}_gather_scalar_ms"), t_gat_scalar.as_secs_f64() * 1e3));
        snapshot.push((format!("{key}_gather_batched_ms"), t_gat_batched.as_secs_f64() * 1e3));
        snapshot.push((format!("{key}_gather_speedup"), gat_speedup));

        if let Some(floor) = case.floor {
            assert!(
                sel_speedup >= floor,
                "{}: predicate-scan speedup {sel_speedup:.2}x below the {floor}x bar",
                case.name
            );
        }
    }

    let entries: Vec<(&str, f64)> = snapshot.iter().map(|(k, v)| (k.as_str(), *v)).collect();
    record_snapshot("kernels", &entries);

    match prev_simd {
        Some(v) => std::env::set_var("SINEW_SIMD", v),
        None => std::env::remove_var("SINEW_SIMD"),
    }
    println!("\nsnapshot updated");
}
