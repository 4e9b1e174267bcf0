//! PR5 snapshot harness — streaming block execution.
//!
//! Measures the pull-based block pipeline against the materializing
//! operator-at-a-time engine it replaced (kept as `ExecMode::Materialize`):
//! (a) `LIMIT 10` latency over a 1M-row table, where the streaming scan
//! stops after one block while the old engine materializes every row —
//! must clear a 20x bar; (b) peak resident rows for a full-table
//! aggregate, which drops from O(table) to O(block); (c) a
//! `SINEW_BLOCK_ROWS` sweep over the same aggregate showing per-block
//! overhead amortizing. Writes the `streaming_limit`,
//! `streaming_resident`, and `streaming_block_sweep` sections of
//! `results/BENCH_PR5.json` (override via SINEW_BENCH_SNAPSHOT).
//!
//! Every timed query is first checked for byte-identical results across
//! the two engines, so the snapshot can't record a fast-but-wrong
//! pipeline.

use sinew_bench::{ms, record_snapshot, time_avg, HarnessConfig, TablePrinter};
use sinew_rdbms::{Database, ExecLimits, ExecMode};

fn build(n: u64) -> Database {
    let db = Database::in_memory();
    db.execute("CREATE TABLE events (id int, grp int, name text)").unwrap();
    let mut batch = Vec::with_capacity(1000);
    for i in 0..n {
        batch.push(format!("({i}, {}, 'payload-{}')", i % 97, i % 13));
        if batch.len() == 1000 {
            db.execute(&format!("INSERT INTO events VALUES {}", batch.join(", "))).unwrap();
            batch.clear();
        }
    }
    if !batch.is_empty() {
        db.execute(&format!("INSERT INTO events VALUES {}", batch.join(", "))).unwrap();
    }
    db.execute("ANALYZE events").unwrap();
    db
}

fn limits(mode: ExecMode, block_rows: usize) -> ExecLimits {
    ExecLimits { mode, block_rows, ..ExecLimits::default() }
}

fn main() {
    let cfg = HarnessConfig::from_args();
    // The 20x acceptance bar is stated at 1M rows; --no-large runs a quick
    // smoke pass at --docs scale without asserting it.
    let n = if cfg.run_large { cfg.large_docs.max(1_000_000) } else { cfg.small_docs };
    if std::env::var_os("SINEW_BENCH_SNAPSHOT").is_none() {
        std::env::set_var("SINEW_BENCH_SNAPSHOT", "results/BENCH_PR5.json");
    }
    println!("\n=== PR5 — streaming block execution, {n} rows ===\n");
    let db = build(n);

    let limit_q = "SELECT id, grp, name FROM events LIMIT 10";
    let agg_q = "SELECT COUNT(*), SUM(id), MIN(grp), MAX(grp) FROM events";

    // (a) LIMIT 10: early stop vs full materialization. The whole
    // streaming phase runs first because `peak_resident_rows` is a
    // high-water mark for the database's lifetime — once the materializing
    // engine runs anything, the counter reflects its O(table)
    // intermediates forever after. The correctness gate therefore compares
    // saved streaming rows against the oracle afterwards, not before.
    db.set_exec_limits(limits(ExecMode::Streaming, 1024));
    let stream_limit_rows = db.execute(limit_q).unwrap().rows;
    let t_stream = time_avg(cfg.reps, || {
        db.execute(limit_q).unwrap();
    });
    // (b) part one: full-table aggregate through the pipeline, then read
    // the streaming high-water mark before the oracle pollutes it.
    let stream_agg_rows = db.execute(agg_q).unwrap().rows;
    let stream_stats = db.exec_stats();
    let streaming_peak = stream_stats.peak_resident_rows;

    // Correctness gate: both engines, same bytes. (Both scan in rowid
    // order, so even the un-ORDERed LIMIT is deterministic.)
    db.set_exec_limits(limits(ExecMode::Materialize, 1024));
    assert_eq!(stream_limit_rows, db.execute(limit_q).unwrap().rows, "engines diverged on {limit_q}");
    assert_eq!(stream_agg_rows, db.execute(agg_q).unwrap().rows, "engines diverged on {agg_q}");
    let t_mat = time_avg(cfg.reps, || {
        db.execute(limit_q).unwrap();
    });
    let materialize_peak = db.exec_stats().peak_resident_rows;

    let speedup = t_mat.as_secs_f64() / t_stream.as_secs_f64();
    let t = TablePrinter::new(
        &["LIMIT 10 over full table", "Time (ms)", "Speedup"],
        &[26, 12, 10],
    );
    t.row(&["streaming".into(), ms(t_stream), format!("{speedup:.1}x")]);
    t.row(&["materialize".into(), ms(t_mat), "1.0x".into()]);
    record_snapshot(
        "streaming_limit",
        &[
            ("rows", n as f64),
            ("streaming_ms", t_stream.as_secs_f64() * 1e3),
            ("materialize_ms", t_mat.as_secs_f64() * 1e3),
            ("speedup", speedup),
        ],
    );

    let resident_ratio = materialize_peak as f64 / streaming_peak.max(1) as f64;
    println!(
        "\npeak resident rows: streaming {streaming_peak}, materialize {materialize_peak} \
         ({resident_ratio:.0}x)"
    );
    record_snapshot(
        "streaming_resident",
        &[
            ("rows", n as f64),
            ("streaming_peak_rows", streaming_peak as f64),
            ("materialize_peak_rows", materialize_peak as f64),
            ("ratio", resident_ratio),
        ],
    );

    // (c) block-size sweep over the full-scan aggregate: tiny blocks pay
    // per-block dispatch on every 64 rows, large ones amortize it away.
    println!();
    let t = TablePrinter::new(&["Block rows", "Full-scan agg (ms)"], &[12, 20]);
    let mut entries: Vec<(String, f64)> = vec![("rows".into(), n as f64)];
    for block_rows in [64usize, 256, 1024, 4096, 16384] {
        db.set_exec_limits(limits(ExecMode::Streaming, block_rows));
        let dt = time_avg(cfg.reps, || {
            db.execute(agg_q).unwrap();
        });
        t.row(&[block_rows.to_string(), ms(dt)]);
        entries.push((format!("block_{block_rows}_ms"), dt.as_secs_f64() * 1e3));
    }
    let refs: Vec<(&str, f64)> = entries.iter().map(|(k, v)| (k.as_str(), *v)).collect();
    record_snapshot("streaming_block_sweep", &refs);

    let s = db.exec_stats();
    println!(
        "\nblocks emitted: {}, early stops: {}, mean rows/block: {:.0}",
        s.blocks_emitted,
        s.early_stops,
        s.rows_per_block.mean()
    );
    if cfg.run_large {
        assert!(
            speedup >= 20.0,
            "LIMIT-10 streaming speedup {speedup:.1}x below the 20x bar at {n} rows"
        );
        assert!(
            streaming_peak < n / 10,
            "streaming peak residency {streaming_peak} is not O(block) at {n} rows"
        );
    }
    println!("snapshot updated");
}
