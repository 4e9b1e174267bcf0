//! Differential oracles at the Sinew layer: the queries here go through
//! the rewriter, so the bound single-key extraction calls — decoded where
//! the plan reads them, a repeated key once per row through the planner's
//! memo slots, tested in place — are exercised end to end. Results must be
//! byte-identical to the serial run (`exec_threads = 1`) at every block
//! size and thread count, and the serial run's must agree with the
//! plan-free reference evaluating the rewritten statement, which calls
//! each extraction function unbound, as registered.

use sinew_core::{AnalyzerPolicy, Sinew};
use sinew_rdbms::{Datum, ExecLimits};

fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

const DOCS: u64 = 1_200;

/// Multi-structured collection: `num`/`tag` everywhere, `extra`/`deep.val`
/// sparse, types stable per key (the analyzer's assumption).
fn build() -> Sinew {
    let sinew = Sinew::in_memory();
    sinew.create_collection("events").unwrap();
    let mut jsonl = String::new();
    for i in 0..DOCS {
        let h = mix(i);
        let mut doc = format!(
            r#"{{"num": {}, "tag": "t{}", "score": {:.4}"#,
            (h % 500) as i64,
            h % 17,
            (h % 7919) as f64 / 13.0
        );
        if h.is_multiple_of(3) {
            doc.push_str(&format!(r#", "extra": {}"#, (h >> 9) % 100));
        }
        if h.is_multiple_of(5) {
            doc.push_str(&format!(r#", "deep": {{"val": "d{}"}}"#, h % 11));
        }
        doc.push('}');
        jsonl.push_str(&doc);
        jsonl.push('\n');
    }
    sinew.load_jsonl("events", &jsonl).unwrap();
    sinew
}

/// Queries over virtual columns: every predicate and projection below goes
/// through extraction UDFs until the analyzer materializes something.
const QUERIES: &[&str] = &[
    "SELECT num, tag FROM events WHERE num > 450",
    "SELECT num, tag, score FROM events WHERE num = 123",
    "SELECT tag FROM events WHERE extra IS NOT NULL AND num < 50",
    r#"SELECT num, "deep.val" FROM events WHERE "deep.val" = 'd3'"#,
    "SELECT tag, COUNT(*), SUM(num) FROM events GROUP BY tag ORDER BY tag",
    "SELECT COUNT(*), AVG(score) FROM events WHERE num BETWEEN 100 AND 200",
    "SELECT DISTINCT tag FROM events WHERE num > 250 ORDER BY tag",
    "SELECT num, tag FROM events ORDER BY num, tag LIMIT 20",
    "SELECT num, tag, extra FROM events LIMIT 7",
    "SELECT num FROM events WHERE num > 490 LIMIT 3",
];

fn run_all(sinew: &Sinew, limits: ExecLimits) -> Vec<Vec<Vec<Datum>>> {
    sinew.db().set_exec_limits(limits);
    QUERIES
        .iter()
        .map(|q| sinew.query(q).unwrap_or_else(|e| panic!("{q}: {e}")).rows)
        .collect()
}

#[test]
fn extraction_queries_match_across_engines() {
    let sinew = build();
    let oracle =
        run_all(&sinew, ExecLimits { exec_threads: 1, block_rows: 1024, ..ExecLimits::default() });
    assert!(oracle.iter().any(|r| !r.is_empty()), "workload returned nothing");
    for (q, rows) in QUERIES.iter().zip(&oracle) {
        let physical = sinew.rewrite(q).unwrap();
        let want = sinew_reference::query(sinew.db(), &physical);
        if let Err(e) = sinew_reference::agree(&Ok(rows.clone()), &want) {
            panic!("{q} (rewritten: {physical}) disagrees with the reference: {e}");
        }
    }
    for threads in [1usize, 4] {
        for block_rows in [1usize, 3, 1024, 65_536] {
            if (threads, block_rows) == (1, 1024) {
                continue;
            }
            let got = run_all(
                &sinew,
                ExecLimits { exec_threads: threads, block_rows, ..ExecLimits::default() },
            );
            for (i, (g, o)) in got.iter().zip(&oracle).enumerate() {
                assert_eq!(
                    g, o,
                    "query {:?} diverged at block_rows={block_rows} threads={threads}",
                    QUERIES[i]
                );
            }
        }
    }
}

/// The per-block plan revalidation must not leak across statements: DDL
/// (materialization bumps the catalog epoch) between queries has to be
/// picked up by the next query's first block.
#[test]
fn epoch_bumps_between_statements_are_observed() {
    let sinew = build();
    sinew.db().set_exec_limits(ExecLimits {
        block_rows: 64,
        exec_threads: 1,
        ..ExecLimits::default()
    });
    let before = sinew.query("SELECT tag, num FROM events WHERE num > 480").unwrap().rows;
    // Materialize hot columns: catalog epoch moves, physical layout changes.
    let policy = AnalyzerPolicy {
        density_threshold: 0.5,
        cardinality_threshold: 10,
        sample_rows: 5_000,
    };
    sinew.run_analyzer("events", &policy).unwrap();
    sinew.materialize_until_clean("events").unwrap();
    let after = sinew.query("SELECT tag, num FROM events WHERE num > 480").unwrap().rows;
    assert_eq!(before, after, "materialization changed query results");
}

/// PR 9 crossing at the Sinew layer: joins and aggregates over *virtual*
/// columns (extraction UDFs), then over *promoted* columns (after the
/// analyzer materializes them), must be byte-identical between the serial
/// operators (`exec_threads = 1`) and the morsel-parallel breakers.
#[test]
fn parallel_breakers_match_serial_over_virtual_and_promoted_columns() {
    let sinew = build();
    sinew.create_collection("dims").unwrap();
    let mut jsonl = String::new();
    for i in 0..400u64 {
        let h = mix(i ^ 0xd1a5);
        jsonl.push_str(&format!(
            "{{\"key\": {}, \"boost\": {}, \"label\": \"l{}\"}}\n",
            (h % 500) as i64,
            (h % 97) as i64,
            h % 6
        ));
    }
    sinew.load_jsonl("dims", &jsonl).unwrap();

    let queries = [
        "SELECT e.num, e.tag, d.label FROM events e, dims d \
         WHERE e.num = d.key AND e.num < 60",
        "SELECT e.tag, COUNT(*), SUM(d.boost) FROM events e, dims d \
         WHERE e.num = d.key GROUP BY e.tag HAVING COUNT(*) > 3 ORDER BY e.tag",
        "SELECT d.label, COUNT(*) FROM events e, dims d \
         WHERE e.num = d.key AND e.extra IS NOT NULL \
         GROUP BY d.label ORDER BY d.label",
        "SELECT e.num, d.boost FROM events e, dims d \
         WHERE e.num = d.key ORDER BY d.boost DESC, e.num LIMIT 25",
    ];
    let run = |threads: usize| -> Vec<Vec<Vec<Datum>>> {
        sinew.db().set_exec_limits(ExecLimits {
            exec_threads: threads,
            block_rows: 256,
            ..ExecLimits::default()
        });
        queries
            .iter()
            .map(|q| sinew.query(q).unwrap_or_else(|e| panic!("{q}: {e}")).rows)
            .collect()
    };

    let mut phases: Vec<(&str, Vec<Vec<Vec<Datum>>>)> = Vec::new();
    for promoted in [false, true] {
        if promoted {
            let policy = AnalyzerPolicy {
                density_threshold: 0.5,
                cardinality_threshold: 10,
                sample_rows: 5_000,
            };
            sinew.run_analyzer("events", &policy).unwrap();
            sinew.materialize_until_clean("events").unwrap();
            sinew.run_analyzer("dims", &policy).unwrap();
            sinew.materialize_until_clean("dims").unwrap();
        }
        let phase = if promoted { "promoted" } else { "virtual" };
        let serial = run(1);
        assert!(serial.iter().any(|r| !r.is_empty()), "{phase}: workload returned nothing");
        for threads in [2usize, 4] {
            let got = run(threads);
            for (i, (g, o)) in got.iter().zip(&serial).enumerate() {
                assert_eq!(
                    g, o,
                    "query {:?} over {phase} columns diverged at threads={threads}",
                    queries[i]
                );
            }
        }
        phases.push((phase, serial));
    }
    // Promotion itself must not change results either.
    assert_eq!(phases[0].1, phases[1].1, "promotion changed query results");
}
