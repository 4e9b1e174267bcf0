//! A heap scan decodes every row into one buffer it reuses (DESIGN.md
//! §35). With a filter that reads fewer columns than the scan needs, a
//! row's other columns are decoded only once it passes, so while the
//! filter runs they still hold an earlier row's values. No value may leak
//! from one row into the next: here every row the filter rejects carries
//! values in those columns, and the rows after it that pass hold NULLs,
//! shorter values, or none of it, at every thread count and block size.

use sinew_rdbms::{ColType, Database, Datum, ExecLimits};

const ROWS: i64 = 3_000;

/// Row `k` as `(k, tag, payload, note, n)`: an odd row, which the filter
/// rejects, fills every column with a value marked as rejected; an even
/// row holds NULL or a short value in each.
fn row(k: i64) -> Vec<Datum> {
    if k % 2 == 1 {
        return vec![
            Datum::Int(k),
            Datum::Text(format!("rejected-{k}-with-a-long-tail")),
            Datum::Bytea(vec![0xEE; 64]),
            Datum::Text("rejected".into()),
            Datum::Int(-k),
        ];
    }
    let or_null = |keep: bool, d: Datum| if keep { d } else { Datum::Null };
    vec![
        Datum::Int(k),
        or_null(k % 3 != 0, Datum::Text(format!("kept-{k}"))),
        or_null(k % 5 != 0, Datum::Bytea(vec![k as u8; (k % 7) as usize])),
        or_null(k % 4 != 0, Datum::Text("kept".into())),
        or_null(k % 6 != 0, Datum::Int(k)),
    ]
}

fn build() -> Database {
    let db = Database::in_memory();
    let cols = [
        ("k", ColType::Int),
        ("tag", ColType::Text),
        ("payload", ColType::Bytea),
        ("note", ColType::Text),
        ("n", ColType::Int),
    ];
    db.create_table("t", cols.iter().map(|(n, ty)| (n.to_string(), *ty)).collect()).unwrap();
    db.insert_rows("t", &(0..ROWS).map(row).collect::<Vec<_>>()).unwrap();
    db.create_table("u", vec![("k".into(), ColType::Int), ("v".into(), ColType::Int)]).unwrap();
    let u: Vec<Vec<Datum>> = (0..ROWS).step_by(4).map(|k| vec![Datum::Int(k), Datum::Int(1)]).collect();
    db.insert_rows("u", &u).unwrap();
    db.execute("ANALYZE t").unwrap();
    db.execute("ANALYZE u").unwrap();
    db
}

fn sorted(mut rows: Vec<Vec<Datum>>) -> Vec<Vec<Datum>> {
    rows.sort_by_key(|r| format!("{r:?}"));
    rows
}

#[test]
fn a_rejected_row_leaves_no_value_in_the_rows_that_pass() {
    let kept: Vec<Vec<Datum>> = (0..ROWS).filter(|k| k % 2 == 0).map(row).collect();
    let project = sorted(kept.clone());
    let star = sorted(kept.iter().map(|r| [r.clone(), vec![r[0].clone()]].concat()).collect());
    let mut notes: Vec<Vec<Datum>> = Vec::new();
    for note in [Datum::Null, Datum::Text("kept".into())] {
        let n = kept.iter().filter(|r| r[3] == note).count() as i64;
        notes.push(vec![note, Datum::Int(n)]);
    }
    let notes = sorted(notes);
    let joined = sorted(
        kept.iter()
            .filter(|r| matches!(r[0], Datum::Int(k) if k % 4 == 0))
            .map(|r| vec![r[0].clone(), r[1].clone(), r[2].clone(), Datum::Int(1)])
            .collect(),
    );
    let cases: [(&str, &Vec<Vec<Datum>>); 4] = [
        ("SELECT k, tag, payload, note, n FROM t WHERE k % 2 = 0", &project),
        ("SELECT *, _rowid FROM t WHERE k % 2 = 0", &star),
        ("SELECT note, COUNT(*) FROM t WHERE k % 2 = 0 GROUP BY note", &notes),
        ("SELECT t.k, t.tag, t.payload, u.v FROM t JOIN u ON t.k = u.k WHERE t.k % 2 = 0", &joined),
    ];
    let db = build();
    for threads in [1usize, 2, 4] {
        for block_rows in [1usize, 3, 1024] {
            db.set_exec_limits(ExecLimits { exec_threads: threads, block_rows, ..ExecLimits::default() });
            for (sql, want) in &cases {
                let at = format!("{sql} at {threads} threads, blocks of {block_rows}");
                let before = db.exec_stats().scan_rows_rejected_early;
                let got = db.execute(sql).unwrap_or_else(|e| panic!("{at}: {e}")).rows;
                let rejected = db.exec_stats().scan_rows_rejected_early - before;
                assert_eq!(rejected, ROWS as u64 / 2, "{at}: the filter ran before the decode");
                assert_eq!(sorted(got), **want, "{at}");
            }
        }
    }
}
