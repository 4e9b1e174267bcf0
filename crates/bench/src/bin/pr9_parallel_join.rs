//! PR9 snapshot harness — morsel-parallel partitioned hash join and
//! aggregation.
//!
//! Drives the full SQL engine over a 1M-row fact table: a 1M x 100k
//! equi-join with aggregates on both sides, and a 1M-row GROUP BY with
//! 10k groups, at 1 / 2 / 4 worker threads. Every timed configuration is
//! first checked byte-identical against the serial operators (one
//! executor thread), so the
//! snapshot can't record a fast-but-wrong breaker, and the partitioned
//! build / pre-aggregation merge counters are asserted to have actually
//! engaged.
//!
//! Writes the `parallel_join` and `parallel_agg` sections of
//! `results/BENCH_PR9.json` (override via `SINEW_BENCH_SNAPSHOT`). The
//! 1.8x 4-thread floor from PR9's acceptance bar is asserted only when
//! the host actually has 4 or more cores — on the 1-vCPU CI container
//! the numbers are recorded but the floor is reported, not enforced.

use sinew_bench::{ms, record_snapshot, time_avg, HarnessConfig, TablePrinter};
use sinew_rdbms::{Database, Datum, ExecLimits, ExecMode};

/// splitmix64 — deterministic data without depending on a rand crate.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

const FACT_ROWS: u64 = 1_000_000;
const DIM_ROWS: u64 = 100_000;
const GROUPS: u64 = 10_000;

const JOIN_Q: &str = "SELECT COUNT(*), SUM(d.w), SUM(f.v) FROM f JOIN d ON f.k = d.k";
const AGG_Q: &str = "SELECT g, COUNT(*), SUM(v), MIN(v), MAX(v) FROM f GROUP BY g";

fn build() -> Database {
    let db = Database::in_memory();
    db.execute("CREATE TABLE f (k int, g int, v int)").unwrap();
    db.execute("CREATE TABLE d (k int, w int)").unwrap();
    let mut chunk: Vec<Vec<Datum>> = Vec::with_capacity(50_000);
    for i in 0..FACT_ROWS {
        let h = mix(i);
        chunk.push(vec![
            Datum::Int((h % DIM_ROWS) as i64),
            Datum::Int((h % GROUPS) as i64),
            Datum::Int((h % 1_000) as i64),
        ]);
        if chunk.len() == 50_000 {
            db.insert_rows("f", &chunk).unwrap();
            chunk.clear();
        }
    }
    if !chunk.is_empty() {
        db.insert_rows("f", &chunk).unwrap();
        chunk.clear();
    }
    for i in 0..DIM_ROWS {
        let h = mix(i ^ 0xd1b5_0000);
        chunk.push(vec![Datum::Int(i as i64), Datum::Int((h % 500) as i64)]);
        if chunk.len() == 50_000 {
            db.insert_rows("d", &chunk).unwrap();
            chunk.clear();
        }
    }
    if !chunk.is_empty() {
        db.insert_rows("d", &chunk).unwrap();
    }
    db.execute("ANALYZE f").unwrap();
    db.execute("ANALYZE d").unwrap();
    db
}

fn limits(threads: usize) -> ExecLimits {
    ExecLimits { mode: ExecMode::Streaming, exec_threads: threads, ..ExecLimits::default() }
}

/// Patch a string note into the snapshot file (record_snapshot itself
/// only carries numbers).
fn write_note(note: &str) {
    use sinew_json::Value;
    let path = std::env::var("SINEW_BENCH_SNAPSHOT")
        .unwrap_or_else(|_| "results/BENCH_PR9.json".to_string());
    let Some(Value::Object(mut root)) =
        std::fs::read_to_string(&path).ok().and_then(|s| sinew_json::parse(&s).ok())
    else {
        return;
    };
    root.retain(|(k, _)| k != "_note");
    root.push(("_note".to_string(), Value::Str(note.to_string())));
    let _ = std::fs::write(&path, Value::Object(root).to_json());
}

fn main() {
    let cfg = HarnessConfig::from_args();
    if std::env::var_os("SINEW_BENCH_SNAPSHOT").is_none() {
        std::env::set_var("SINEW_BENCH_SNAPSHOT", "results/BENCH_PR9.json");
    }
    let host_cores =
        std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1);

    println!(
        "=== PR9 — morsel-parallel breakers, {FACT_ROWS} x {DIM_ROWS} join / \
         {FACT_ROWS}-row {GROUPS}-group aggregate ({host_cores} host cores) ===\n"
    );
    let db = build();

    // Differential oracle before any timing: serial operators, one thread.
    db.set_exec_limits(limits(1));
    let oracle_join = db.execute(JOIN_Q).unwrap().rows;
    let oracle_agg = db.execute(AGG_Q).unwrap().rows;
    assert_eq!(oracle_agg.len() as u64, GROUPS, "every group populated");

    for threads in [2usize, 4, 8] {
        db.set_exec_limits(limits(threads));
        assert_eq!(db.execute(JOIN_Q).unwrap().rows, oracle_join, "join diverged at {threads}");
        assert_eq!(db.execute(AGG_Q).unwrap().rows, oracle_agg, "agg diverged at {threads}");
    }
    // The parallel paths must have actually run at 4 threads.
    let before = db.exec_stats();
    db.set_exec_limits(limits(4));
    db.execute(JOIN_Q).unwrap();
    db.execute(AGG_Q).unwrap();
    let after = db.exec_stats();
    assert!(after.join_partitions > before.join_partitions, "partitioned build never engaged");
    assert!(
        after.agg_partition_merges > before.agg_partition_merges,
        "parallel pre-aggregation never engaged"
    );

    let table = TablePrinter::new(
        &["Workload", "1 thr (ms)", "2 thr (ms)", "4 thr (ms)", "x@2", "x@4"],
        &[22, 11, 11, 11, 6, 6],
    );
    let mut floors: Vec<(&str, f64)> = Vec::new();
    for (section, label, q) in
        [("parallel_join", "hash join 1M x 100k", JOIN_Q), ("parallel_agg", "group by 1M/10k", AGG_Q)]
    {
        let mut times = Vec::new();
        for threads in [1usize, 2, 4] {
            db.set_exec_limits(limits(threads));
            times.push(time_avg(cfg.reps, || {
                db.execute(q).unwrap();
            }));
        }
        let s2 = times[0].as_secs_f64() / times[1].as_secs_f64();
        let s4 = times[0].as_secs_f64() / times[2].as_secs_f64();
        table.row(&[
            label.into(),
            ms(times[0]),
            ms(times[1]),
            ms(times[2]),
            format!("{s2:.2}x"),
            format!("{s4:.2}x"),
        ]);
        record_snapshot(
            section,
            &[
                ("fact_rows", FACT_ROWS as f64),
                ("dim_rows", DIM_ROWS as f64),
                ("groups", GROUPS as f64),
                ("host_cores", host_cores as f64),
                ("threads_1_ms", times[0].as_secs_f64() * 1e3),
                ("threads_2_ms", times[1].as_secs_f64() * 1e3),
                ("threads_4_ms", times[2].as_secs_f64() * 1e3),
                ("threads_2_speedup", s2),
                ("threads_4_speedup", s4),
            ],
        );
        floors.push((label, s4));
    }

    if host_cores >= 4 {
        for (label, s4) in &floors {
            assert!(*s4 >= 1.8, "{label}: 4-thread speedup {s4:.2}x below the 1.8x bar");
        }
        println!("\n4-thread floor (>=1.8x): PASS on {host_cores}-core host");
    } else {
        println!(
            "\n4-thread floor (>=1.8x): not enforced — host has {host_cores} core(s); \
             speedups recorded for reference only"
        );
    }
    write_note(&format!(
        "Measured via crates/bench/src/bin/pr9_parallel_join (reps={}) on a {host_cores}-core \
         container. The >=1.8x 4-thread floor on the partitioned join and parallel aggregation \
         is asserted only when available_parallelism() >= 4; on a 1-vCPU host thread counts \
         above 1 time-slice a single core and speedups hover near 1x. Canonical reproduction: \
         `cargo run -p sinew-bench --release --bin pr9_parallel_join` on a multi-core host. \
         Results are checked byte-identical to the serial operators before timing.",
        cfg.reps
    ));
}
