//! Kill at every log frame while heap pages are recycled (DESIGN.md §34).
//!
//! A child process (this test binary, re-executed with `--exact
//! crash_child`) loads NoBench documents, promotes columns with
//! `materialize_until_clean` (whose passes empty the pages of the old
//! versions, which the next pass re-initialises), and loads again. For
//! every frame append of that run, from the first commit of
//! `create_collection` on, the child is started again with
//! `WalConfig::crash_after` set to it, which half-writes that frame and
//! aborts the process. After each kill the database is reopened, where a
//! `create_collection` the kill cut short is retried and must complete;
//! it must then hold the documents of a prefix of the load statements,
//! pass `Database::check_derived` (whose free-list audit covers the
//! recovered free list and tail), and take a further load without
//! overwriting a recovered row.

use sinew_core::{AnalyzerPolicy, Sinew};
use sinew_json::Value;
use sinew_nobench::gen::{generate, NoBenchConfig};
use sinew_rdbms::{Database, Datum, WalConfig};
use std::path::{Path, PathBuf};
use std::process::Command;

const T: &str = "nobench";
/// Documents of the first load, of the load after materialization, and of
/// the load after reopening.
const LOADS: [usize; 3] = [96, 32, 32];
const POOL: usize = 16;
/// Small enough that the run checkpoints: the full directory record
/// carries the free list and tail too.
const CHECKPOINT_BYTES: u64 = 256 << 10;
const QUERY: &str =
    r#"SELECT _rowid, str1, num, thousandth, "nested_obj.str", sparse_110 FROM nobench ORDER BY _rowid"#;

fn docs() -> Vec<Value> {
    generate(LOADS.iter().sum::<usize>() as u64, &NoBenchConfig::default())
}

fn test_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sinew-recycle-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The child's run: create, load, promote, load. Without `crash_after`,
/// writes to `marks` the frame appends before the collection is created
/// and at the end, and the pages recycled.
fn run(dir: &Path, crash_after: Option<u64>, marks: Option<&Path>) {
    let cfg = WalConfig { crash_after, checkpoint_bytes: CHECKPOINT_BYTES, ..WalConfig::default() };
    let sinew = Sinew::with_db(Database::open_with_wal(&dir.join("db"), POOL, None, cfg).unwrap());
    let docs = docs();
    let opened = sinew.db().exec_stats().wal_appends;
    sinew.create_collection(T).unwrap();
    sinew.load_docs(T, &docs[..LOADS[0]]).unwrap();
    // The paper's density bar, with a cardinality bar this few documents
    // can clear.
    let policy = AnalyzerPolicy { cardinality_threshold: 20, ..AnalyzerPolicy::default() };
    sinew.run_analyzer(T, &policy).unwrap();
    sinew.materialize_until_clean(T).unwrap();
    sinew.load_docs(T, &docs[LOADS[0]..LOADS[0] + LOADS[1]]).unwrap();
    if let Some(marks) = marks {
        let stats = sinew.db().exec_stats();
        let marks_text = format!("{opened} {} {}", stats.wal_appends, stats.heap_pages_recycled);
        std::fs::write(marks, marks_text).unwrap();
    }
}

/// Not a test of its own: the re-exec target of the sweep.
#[test]
fn crash_child() {
    let Ok(dir) = std::env::var("SINEW_RECYCLE_CRASH_DIR") else { return };
    let crash_after = std::env::var("SINEW_RECYCLE_CRASH_AFTER").ok().map(|n| n.parse().unwrap());
    let marks = std::env::var("SINEW_RECYCLE_MARKS").ok().map(PathBuf::from);
    run(Path::new(&dir), crash_after, marks.as_deref());
}

fn run_child(dir: &Path, env: &[(&str, String)]) -> bool {
    let mut cmd = Command::new(std::env::current_exe().unwrap());
    cmd.args(["crash_child", "--exact", "--nocapture"])
        .env("SINEW_RECYCLE_CRASH_DIR", dir)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null());
    for (k, v) in env {
        cmd.env(k, v);
    }
    cmd.status().unwrap().success()
}

fn rows(sinew: &Sinew) -> Vec<Vec<Datum>> {
    sinew.query(QUERY).unwrap_or_else(|e| panic!("{QUERY}: {e}")).rows
}

/// `QUERY`'s rows over `docs` loaded into a fresh collection, `_rowid`
/// left out.
fn oracle(docs: &[Value]) -> Vec<Vec<Datum>> {
    let sinew = Sinew::in_memory();
    sinew.create_collection(T).unwrap();
    if !docs.is_empty() {
        sinew.load_docs(T, docs).unwrap();
    }
    rows(&sinew).into_iter().map(|r| r[1..].to_vec()).collect()
}

fn without_rowid(rows: &[Vec<Datum>]) -> Vec<Vec<Datum>> {
    rows.iter().map(|r| r[1..].to_vec()).collect()
}

#[test]
fn a_kill_at_every_frame_recovers_a_load_prefix_and_a_sound_free_list() {
    let clean = test_dir("clean");
    let marks = clean.join("marks");
    assert!(run_child(&clean, &[("SINEW_RECYCLE_MARKS", marks.display().to_string())]));
    let marks = std::fs::read_to_string(&marks).unwrap();
    let [opened, frames, recycled]: [u64; 3] =
        marks.split(' ').map(|n| n.parse().unwrap()).collect::<Vec<_>>().try_into().unwrap();
    assert!(recycled > 0, "the run recycled no page");

    let docs = docs();
    let prefixes = [0, LOADS[0], LOADS[0] + LOADS[1]];
    let wants: Vec<_> = prefixes.iter().map(|&n| oracle(&docs[..n])).collect();
    let after = &docs[LOADS[0] + LOADS[1]..];
    let want_after = oracle(after);
    // Every frame from the first commit of `create_collection` on.
    for crash_after in opened + 1..=frames {
        let at = format!("crash_after={crash_after} of {frames}");
        let dir = test_dir(&format!("k{crash_after}"));
        let killed = !run_child(&dir, &[("SINEW_RECYCLE_CRASH_AFTER", crash_after.to_string())]);
        assert!(killed, "{at}: the child outlived its crash point");
        let sinew = Sinew::open(&dir.join("db"), POOL, None).unwrap();
        if !sinew.collections().iter().any(|c| c == T) {
            sinew.create_collection(T).unwrap_or_else(|e| panic!("{at}: create again: {e}"));
        }
        sinew.db().check_derived(T).unwrap_or_else(|e| panic!("{at}: {e}"));
        let recovered = rows(&sinew);
        let got = without_rowid(&recovered);
        assert!(wants.contains(&got), "{at}: {} rows, not a load prefix", got.len());

        sinew.load_docs(T, after).unwrap();
        sinew.db().check_derived(T).unwrap_or_else(|e| panic!("{at}: after a load: {e}"));
        let reloaded = rows(&sinew);
        let (old, new) = reloaded.split_at(recovered.len().min(reloaded.len()));
        assert_eq!(old, recovered, "{at}: the load overwrote a recovered row");
        assert_eq!(without_rowid(new), want_after, "{at}: the load after reopen");
        drop(sinew);
        std::fs::remove_dir_all(&dir).ok();
    }
    std::fs::remove_dir_all(&clean).ok();
}
