//! Secondary-index integration tests: access-path selection, maintenance
//! under update/delete/reinsert (including heap-relocating and jumbo
//! tuples), and a property-style equivalence check. The sequential-scan
//! oracle is a twin database that never built the index.

use rand::{Rng, SeedableRng};
use sinew_rdbms::{Database, Datum, QueryResult};

/// A database and its oracle: a twin that gets every statement except the
/// `CREATE INDEX`es, so the planner has only the heap to answer from.
struct Twin {
    indexed: Database,
    heap: Database,
}

impl Twin {
    fn new() -> Twin {
        Twin { indexed: Database::in_memory(), heap: Database::in_memory() }
    }

    /// DDL, DML or ANALYZE on both sides.
    fn execute(&self, sql: &str) {
        for db in [&self.indexed, &self.heap] {
            db.execute(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
        }
    }

    fn create_index(&self, sql: &str) {
        self.indexed.execute(sql).unwrap();
    }

    /// Both sides must answer with identical rows in identical order; the
    /// indexed side's answer is returned.
    fn query(&self, sql: &str) -> QueryResult {
        let fast = self.indexed.execute(sql).unwrap();
        let slow = self.heap.execute(sql).unwrap();
        assert_eq!(fast.columns, slow.columns, "{sql}");
        assert_eq!(fast.rows, slow.rows, "index path diverged from the heap twin: {sql}");
        fast
    }
}

fn explain(db: &Database, sql: &str) -> String {
    let e = db.execute(&format!("EXPLAIN {sql}")).unwrap();
    e.rows.iter().map(|r| r[0].display_text()).collect::<Vec<_>>().join("\n")
}

fn events_twin(n: i64) -> Twin {
    let twin = Twin::new();
    twin.execute("CREATE TABLE events (id int, kind int, name text)");
    let mut batch = Vec::new();
    for i in 0..n {
        batch.push(format!("({i}, {}, 'name{}')", i % 100, i % 7));
        if batch.len() == 500 {
            twin.execute(&format!("INSERT INTO events VALUES {}", batch.join(", ")));
            batch.clear();
        }
    }
    if !batch.is_empty() {
        twin.execute(&format!("INSERT INTO events VALUES {}", batch.join(", ")));
    }
    twin.execute("ANALYZE events");
    twin
}

#[test]
fn index_scan_is_chosen_and_matches_full_scan() {
    let twin = events_twin(2000);
    twin.create_index("CREATE INDEX idx_events_kind ON events (kind)");

    let sql = "SELECT id, kind, name FROM events WHERE kind = 37";
    let plan = explain(&twin.indexed, sql);
    assert!(plan.contains("Index Scan"), "expected an index scan, got:\n{plan}");
    assert!(plan.contains("Index Cond"), "missing index condition:\n{plan}");
    let plan = explain(&twin.heap, sql);
    assert!(!plan.contains("Index Scan"), "the oracle has no index to scan:\n{plan}");

    assert_eq!(twin.query(sql).rows.len(), 20);
    assert!(twin.indexed.exec_stats().index_scans > 0);
    // the oracle must not have gone through the index path
    assert_eq!(twin.heap.exec_stats().index_scans, 0);
}

#[test]
fn range_predicates_use_the_index() {
    let twin = events_twin(2000);
    twin.create_index("CREATE INDEX idx_events_id ON events (id)");
    for sql in [
        "SELECT id, name FROM events WHERE id >= 100 AND id < 120",
        "SELECT id, name FROM events WHERE id BETWEEN 5 AND 9",
        "SELECT id FROM events WHERE id > 1990 AND kind = 91",
    ] {
        let plan = explain(&twin.indexed, sql);
        assert!(plan.contains("Index Scan"), "{sql} not indexed:\n{plan}");
        assert!(!twin.query(sql).rows.is_empty());
    }
}

#[test]
fn create_index_ddl_duplicates_and_if_not_exists() {
    let db = events_twin(50).indexed;
    db.execute("CREATE INDEX i1 ON events (kind)").unwrap();
    assert!(db.execute("CREATE INDEX i1 ON events (kind)").is_err());
    db.execute("CREATE INDEX IF NOT EXISTS i1 ON events (kind)").unwrap();
    assert!(db.execute("CREATE INDEX i2 ON events (no_such_col)").is_err());
    assert!(db.execute("CREATE INDEX i3 ON no_such_table (kind)").is_err());
    let infos = db.index_infos("events").unwrap();
    assert_eq!(infos.len(), 1);
    assert_eq!(infos[0].name, "i1");
    assert_eq!(infos[0].column, "kind");
    assert_eq!(infos[0].key_count, 50);
    assert!(infos[0].pages > 0 && infos[0].bytes > 0);
}

#[test]
fn update_in_place_and_relocating_update_maintain_the_index() {
    let twin = events_twin(600);
    twin.create_index("CREATE INDEX idx_events_kind ON events (kind)");
    let ops0 = twin.indexed.exec_stats().index_maintenance_ops;

    // key change, tuple same size: in-place heap update
    twin.execute("UPDATE events SET kind = 555 WHERE id = 10");
    // key unchanged: no index maintenance needed
    twin.execute("UPDATE events SET name = 'renamed' WHERE id = 11");
    let ops1 = twin.indexed.exec_stats().index_maintenance_ops;
    assert_eq!(ops1 - ops0, 2, "one remove + one insert for the key change only");

    // key change plus a payload large enough to relocate the tuple within
    // the heap (rowid stays stable, so only the value change matters)
    let big = "x".repeat(4000);
    twin.execute(&format!("UPDATE events SET kind = 556, name = '{big}' WHERE id = 12"));

    for (sql, want) in [
        ("SELECT id FROM events WHERE kind = 555", vec![10i64]),
        ("SELECT id FROM events WHERE kind = 556", vec![12i64]),
    ] {
        let ids: Vec<i64> = twin
            .query(sql)
            .rows
            .iter()
            .map(|r| match r[0] {
                Datum::Int(i) => i,
                ref d => panic!("unexpected {d:?}"),
            })
            .collect();
        assert_eq!(ids, want, "{sql}");
    }
    // the old keys must be gone from the index
    assert!(twin.query("SELECT id FROM events WHERE kind = 10 AND id = 10").rows.is_empty());
}

#[test]
fn delete_and_reinsert_keep_index_consistent() {
    let twin = events_twin(400);
    twin.create_index("CREATE INDEX idx_events_kind ON events (kind)");
    let key_count = || twin.indexed.index_infos("events").unwrap()[0].key_count;
    let keys0 = key_count();

    twin.execute("DELETE FROM events WHERE kind = 42");
    assert!(twin.query("SELECT id FROM events WHERE kind = 42").rows.is_empty());
    assert_eq!(key_count(), keys0 - 4);

    // reinsert rows with the deleted key: heap slots (and possibly rowids)
    // get reused; index must pick the new rows up via the insert hook
    twin.execute("INSERT INTO events VALUES (9001, 42, 'back'), (9002, 42, 'again')");
    assert_eq!(twin.query("SELECT id FROM events WHERE kind = 42").rows.len(), 2);
    assert_eq!(key_count(), keys0 - 2);
}

#[test]
fn jumbo_rows_are_indexed_and_fetched() {
    let twin = Twin::new();
    twin.execute("CREATE TABLE blobs (id int, tag int, body text)");
    // > MAX_INLINE_TUPLE (8 KiB page), forcing the jumbo chain path
    let body = "b".repeat(20_000);
    for i in 0..40 {
        twin.execute(&format!("INSERT INTO blobs VALUES ({i}, {}, '{body}')", i % 5));
    }
    twin.execute("ANALYZE blobs");
    twin.create_index("CREATE INDEX idx_blobs_tag ON blobs (tag)");

    let fast = twin.query("SELECT id, tag, body FROM blobs WHERE tag = 3");
    assert_eq!(fast.rows.len(), 8);
    assert!(fast.rows.iter().all(|r| r[2] == Datum::Text(body.clone())));

    // a jumbo-relocating update of the indexed key
    twin.execute("UPDATE blobs SET tag = 99 WHERE id = 3");
    let hit = twin.query("SELECT id FROM blobs WHERE tag = 99");
    assert_eq!(hit.rows, vec![vec![Datum::Int(3)]]);
}

#[test]
fn bulk_build_equals_row_at_a_time_build() {
    let db = events_twin(700).indexed;
    db.create_index("events", "bulk_ix", "kind", true).unwrap();
    db.create_index("events", "slow_ix", "name", false).unwrap();
    let infos = db.index_infos("events").unwrap();
    assert_eq!(infos[0].key_count, 700);
    assert_eq!(infos[1].key_count, 700);
    assert!(db.exec_stats().index_build_rows >= 1400);
}

/// Property-style oracle test: a random insert/update/delete workload with
/// interleaved point/range queries; every query must return byte-identical
/// rows in identical order with the index and on the heap twin.
#[test]
fn random_workload_index_equals_scan_oracle() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x51AE_2024);
    let twin = Twin::new();
    twin.execute("CREATE TABLE w (id int, k int, grp int, s text)");
    twin.create_index("CREATE INDEX idx_w_k ON w (k)");
    let mut next_id = 0i64;

    for _ in 0..10 {
        // mutate: a burst of inserts, then some updates and deletes
        let inserts = rng.gen_range(150..400usize);
        let mut vals = Vec::new();
        for _ in 0..inserts {
            let k = rng.gen_range(0..1000i64);
            let grp = rng.gen_range(0..5i64);
            vals.push(format!("({next_id}, {k}, {grp}, 's{}')", next_id % 13));
            next_id += 1;
        }
        twin.execute(&format!("INSERT INTO w VALUES {}", vals.join(", ")));
        for _ in 0..rng.gen_range(0..10usize) {
            let id = rng.gen_range(0..next_id);
            let k = rng.gen_range(0..1000i64);
            twin.execute(&format!("UPDATE w SET k = {k} WHERE id = {id}"));
        }
        for _ in 0..rng.gen_range(0..6usize) {
            let id = rng.gen_range(0..next_id);
            twin.execute(&format!("DELETE FROM w WHERE id = {id}"));
        }
        twin.execute("ANALYZE w");

        // verify: point, range, and compound predicates
        let point = rng.gen_range(0..1000i64);
        let lo = rng.gen_range(0..950i64);
        let hi = lo + rng.gen_range(1..20i64);
        for sql in [
            format!("SELECT id, k, grp, s FROM w WHERE k = {point}"),
            format!("SELECT id, k FROM w WHERE k >= {lo} AND k < {hi}"),
            format!("SELECT id FROM w WHERE k BETWEEN {lo} AND {hi} AND grp = 2"),
            format!("SELECT grp, COUNT(*) FROM w WHERE k = {point} GROUP BY grp ORDER BY grp"),
        ] {
            twin.query(&sql);
        }
    }
    // the index saw real traffic, the oracle none
    let stats = twin.indexed.exec_stats();
    assert!(stats.index_scans > 0);
    assert!(stats.index_maintenance_ops > 0);
    let oracle = twin.heap.exec_stats();
    assert_eq!(oracle.index_scans + oracle.index_only_scans, 0);
}
