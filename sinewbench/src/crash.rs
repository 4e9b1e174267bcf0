//! Durability check: a child process runs acknowledged writes against a
//! file-backed collection and is killed with SIGKILL at a seeded point;
//! the parent reopens the files and requires every acknowledged write.
//!
//! SIGKILL keeps the operating system's cache, so this checks the log
//! protocol (commit before acknowledge, recovery replays it), not what a
//! device would keep across power loss.

use crate::data::{Dataset, Rng};
use crate::oracle::State;
use crate::setup::{self, Evolve, Plan};
use crate::sut::{self, TABLE};
use crate::trace::Tracer;
use sinew_core::Sinew;
use sinew_rdbms::Database;
use std::io::{BufRead, BufReader, Write};
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

const DOCS: u64 = 300;
const POOL_PAGES: usize = 512;

fn plan() -> Plan {
    Plan {
        docs: DOCS,
        pool_pages: Some(POOL_PAGES),
        exec_threads: setup::THREADS,
        jsonl_batches: Some(2),
        evolve: Evolve::UntilClean,
        catch_up_docs: 0,
        builds: 1,
    }
}

/// The write sequence both processes derive from the seed: update, load
/// one document, delete one, round and round.
struct Script {
    data: Dataset,
    state: State,
    rng: Rng,
    update_vals: Vec<String>,
    step: usize,
}

enum Op {
    Update(String),
    Insert(String),
    Delete(String),
}

impl Script {
    fn new(seed: u64) -> Script {
        let data = Dataset::generate(seed, DOCS);
        let update_vals = data
            .docs
            .iter()
            .filter_map(|d| d.update_where.clone())
            .collect();
        Script {
            state: State::with_visible(DOCS as usize),
            data,
            rng: Rng::new(seed ^ 0xC8A5),
            update_vals,
            step: 0,
        }
    }

    /// The next op and the rows it must affect; the oracle state advances.
    fn next(&mut self) -> (Op, u64) {
        let step = self.step;
        self.step += 1;
        match step % 3 {
            0 => {
                let val = self.update_vals[(step / 3) % self.update_vals.len()].clone();
                let n = self.state.apply_update(&self.data.docs, &val);
                (Op::Update(val), n)
            }
            1 => {
                let at = self.state.visible;
                self.data.ensure(at + 1);
                self.state.apply_insert(1);
                (Op::Insert(self.data.jsonl(at..at + 1)), 1)
            }
            _ => {
                let victim = loop {
                    let i = self.rng.below(self.state.visible);
                    if self.state.is_live(i) {
                        break i;
                    }
                };
                let str1 = self.data.docs[victim].str1.clone();
                let n = self.state.apply_delete(&self.data.docs, &str1);
                (Op::Delete(str1), n)
            }
        }
    }
}

/// Child side: build, announce, then write and acknowledge until killed.
pub fn child_main(seed: u64, dir: &Path) -> Result<(), String> {
    let mut script = Script::new(seed);
    let mut tracer = Tracer::new(Instant::now());
    let built = setup::build(&plan(), &script.data, dir, &mut tracer).map_err(|e| e.to_string())?;
    let sinew: &Sinew = &built.sinew;
    let mut out = std::io::stdout().lock();
    let mut say = |line: String| -> Result<(), String> {
        writeln!(out, "{line}")
            .and_then(|()| out.flush())
            .map_err(|e| e.to_string())
    };
    say("READY".into())?;
    for i in 0u64.. {
        let (op, expected) = script.next();
        let got = match &op {
            Op::Update(val) => sinew.query(&sut::update_sql(val)).map(|r| r.affected),
            Op::Delete(str1) => sinew.query(&sut::delete_sql(str1)).map(|r| r.affected),
            Op::Insert(text) => sinew
                .load_jsonl_with(TABLE, text, setup::LOAD)
                .map(|r| r.documents),
        }
        .map_err(|e| format!("write {i}: {e}"))?;
        if got != expected {
            return Err(format!(
                "write {i}: {got} rows affected, oracle says {expected}"
            ));
        }
        // the write returned: it is acknowledged, and from here on must
        // survive the kill
        say(format!("ACK {i}"))?;
    }
    Ok(())
}

pub struct CrashOutcome {
    pub acked: u64,
    pub lost: u64,
}

/// Parent side.
pub fn check(seed: u64, dir: &Path, smoke: bool) -> Result<CrashOutcome, String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let kill_after = {
        let mut rng = Rng::new(seed ^ 0x4B11);
        if smoke {
            5 + rng.below(10)
        } else {
            20 + rng.below(40)
        }
    } as u64;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut child = Command::new(exe)
        .arg("--crash-child")
        .arg(dir)
        .arg("--seed")
        .arg(seed.to_string())
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn child: {e}"))?;
    let lines = BufReader::new(child.stdout.take().expect("piped stdout")).lines();
    let mut acked = 0u64;
    let mut ready = false;
    let mut killed = false;
    // read to end of pipe: acknowledgements written before the kill landed
    // count too
    for line in lines {
        let Ok(line) = line else { break };
        ready |= line == "READY";
        if line.starts_with("ACK ") {
            acked += 1;
        }
        if acked >= kill_after && !killed {
            child.kill().map_err(|e| format!("kill child: {e}"))?;
            killed = true;
        }
    }
    if !killed {
        let _ = child.kill();
    }
    let status = child.wait().map_err(|e| e.to_string())?;
    if !ready || !killed {
        let mut err = String::new();
        if let Some(mut e) = child.stderr.take() {
            let _ = std::io::Read::read_to_string(&mut e, &mut err);
        }
        return Err(format!(
            "child ended early ({status}) after {acked} writes: {}",
            err.trim()
        ));
    }

    let db = Database::open_with_wal(&dir.join("db"), POOL_PAGES, None, setup::WAL)
        .map_err(|e| format!("reopen after kill: {e}"))?;
    let stored = sut::stored_fingerprint(&db).map_err(|e| e.to_string())?;
    // every acknowledged write must be there; the one in flight when the
    // kill landed may or may not be
    let mut script = Script::new(seed);
    for _ in 0..acked {
        script.next();
    }
    let want = script.state.fingerprint(&script.data.docs);
    script.next();
    let want_next = script.state.fingerprint(&script.data.docs);
    let lost = if stored == want || stored == want_next {
        0
    } else {
        let differing = want
            .iter()
            .filter(|(k, v)| stored.get(*k) != Some(v))
            .count()
            + stored.keys().filter(|k| !want.contains_key(*k)).count();
        differing.max(1) as u64
    };
    let _ = std::fs::remove_dir_all(dir);
    Ok(CrashOutcome { acked, lost })
}
