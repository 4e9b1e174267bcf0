//! The paper's two execution regimes (§6): datasets that fit the buffer
//! pool run with warm caches (CPU-bound), datasets that exceed it become
//! I/O-bound. This test verifies the reproduction's pager actually produces
//! those regimes for a file-backed Sinew instance.

use sinew::Sinew;
use sinew_rdbms::page::PAGE_SIZE;
use sinew_rdbms::ExecLimits;

#[test]
fn small_dataset_stays_cached_large_dataset_faults() {
    let dir = std::env::temp_dir().join(format!("sinew-io-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    // pool of 64 pages = 512 KiB
    let small = Sinew::open(&dir.join("small.db"), 64, None).unwrap();
    small.create_collection("c").unwrap();
    let docs: String = (0..300)
        .map(|i| format!("{{\"k\": \"key-{i}\", \"pad\": \"{}\"}}\n", "x".repeat(100)))
        .collect();
    small.load_jsonl("c", &docs).unwrap();
    // warm the cache, then measure
    small.query("SELECT COUNT(*) FROM c").unwrap();
    small.db().reset_io_stats();
    small.query("SELECT COUNT(*) FROM c WHERE k = 'key-7'").unwrap();
    let stats = small.db().io_stats();
    assert_eq!(stats.disk_reads, 0, "small dataset must be fully cached");
    assert!(stats.cache_hits > 0);

    // Same pool, 20x the data: the table no longer fits, so a scan reads
    // the pages the pool does not hold from the file, past the pool — it
    // neither fills the pool nor flushes what is there. One exec thread:
    // a parallel scan reads a page its morsel boundary cuts once per morsel.
    let large = Sinew::open(&dir.join("large.db"), 64, None).unwrap();
    large.db().set_exec_limits(ExecLimits { exec_threads: 1, ..ExecLimits::default() });
    large.create_collection("c").unwrap();
    for chunk in 0..20 {
        let docs: String = (0..300)
            .map(|i| {
                format!(
                    "{{\"k\": \"key-{chunk}-{i}\", \"pad\": \"{}\"}}\n",
                    "y".repeat(100)
                )
            })
            .collect();
        large.load_jsonl("c", &docs).unwrap();
    }
    let pages = large.db().table_size_bytes("c").unwrap() / PAGE_SIZE as u64;
    assert!(pages > 64, "table of {pages} pages must exceed the 64-page pool");
    let query = "SELECT COUNT(*) FROM c WHERE k = 'key-7-7'";
    let scan = || {
        large.db().reset_io_stats();
        let r = large.query(query).unwrap();
        assert_eq!(r.rows[0][0], sinew::Datum::Int(1));
        large.db().io_stats()
    };
    scan(); // prepares the statement
    let first = scan();
    // Exactly the non-resident pages: at least those the pool cannot hold.
    assert!(
        first.disk_reads >= pages - 64 && first.disk_reads <= pages,
        "read {} of {pages} pages past a 64-page pool",
        first.disk_reads
    );
    assert_eq!(first.scan_reads, first.disk_reads, "every read bypassed the pool");
    assert_eq!(scan(), first, "the scan left the pool as it found it");
    // Cold: no page is resident, so the scan reads every page exactly once.
    large.db().drop_caches().unwrap();
    let cold = scan();
    assert_eq!((cold.disk_reads, cold.scan_reads, cold.cache_hits), (pages, pages, 0));
    assert_eq!(scan(), cold);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cold_cache_simulation() {
    let dir = std::env::temp_dir().join(format!("sinew-cold-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let sinew = Sinew::open(&dir.join("db"), 4096, None).unwrap();
    sinew.create_collection("c").unwrap();
    let docs: String = (0..500).map(|i| format!("{{\"n\": {i}}}\n")).collect();
    sinew.load_jsonl("c", &docs).unwrap();

    sinew.query("SELECT COUNT(*) FROM c").unwrap();
    sinew.db().reset_io_stats();
    sinew.query("SELECT COUNT(*) FROM c").unwrap();
    assert_eq!(sinew.db().io_stats().disk_reads, 0, "warm");

    sinew.db().drop_caches().unwrap();
    sinew.db().reset_io_stats();
    let r = sinew.query("SELECT COUNT(*) FROM c").unwrap();
    assert_eq!(r.rows[0][0], sinew::Datum::Int(500));
    assert!(sinew.db().io_stats().disk_reads > 0, "cold cache re-reads pages");

    std::fs::remove_dir_all(&dir).ok();
}
