//! Managed background materialization.
//!
//! The paper runs the schema analyzer and column materializer "as Postgres
//! background processes" (§5) whose "management ... is delegated entirely
//! to the Postgres server backend". This module is that backend's stand-in:
//! a worker thread that periodically polls the catalog for dirty columns
//! and advances the materializer in bounded steps, pausing on demand so
//! foreground work always wins (§3.1.4's "running only when there are
//! spare resources available").

use crate::materializer::StepBudget;
use crate::metrics::{Counter, Metrics};
use crate::Sinew;
use crossbeam::channel::{bounded, Receiver, Sender, TryRecvError};
use sinew_rdbms::{Database, DbError, DbResult};
use std::sync::{Arc, Weak};
use std::time::Duration;

/// Period of the background vacuum thread that reclaims row versions older
/// than the oldest live snapshot. Commits already vacuum opportunistically;
/// the thread covers quiescent periods where the last snapshot was released
/// and no further write ever arrives to trigger reclamation.
const VACUUM_INTERVAL: Duration = Duration::from_millis(100);

/// Spawn the version-reclamation thread over `db`. The thread holds only a
/// [`Weak`] reference: it wakes every [`VACUUM_INTERVAL`], upgrades, runs
/// one [`Database::vacuum`] pass, and exits on its own once the last strong
/// reference is gone — no handle or explicit shutdown needed.
pub(crate) fn spawn_vacuum(db: &Arc<Database>, metrics: &Arc<Metrics>) {
    let weak: Weak<Database> = Arc::downgrade(db);
    let metrics = Arc::downgrade(metrics);
    // A failed spawn costs only the quiescent-period passes: commits and
    // finishing readers vacuum on their own.
    let _detached = std::thread::Builder::new()
        .name("sinew-vacuum".into())
        .spawn(move || loop {
            std::thread::sleep(VACUUM_INTERVAL);
            let Some(db) = weak.upgrade() else { return };
            if db.vacuum().is_ok() {
                if let Some(m) = metrics.upgrade() {
                    m.background_vacuum_passes.inc();
                }
            }
        });
}

enum Command {
    Pause,
    Resume,
    Stop,
}

/// Handle to the background worker; stops the worker on drop.
pub struct BackgroundMaterializer {
    tx: Sender<Command>,
    handle: Option<std::thread::JoinHandle<u64>>,
}

/// Worker configuration.
#[derive(Debug, Clone)]
pub struct BackgroundConfig {
    /// Rows per materializer step.
    pub step_rows: u64,
    /// Sleep between polls when nothing is dirty.
    pub idle_poll: Duration,
    /// Optional analyzer pass interval; `None` leaves analysis to the user.
    pub analyze_every: Option<Duration>,
    pub policy: crate::AnalyzerPolicy,
}

impl Default for BackgroundConfig {
    fn default() -> Self {
        BackgroundConfig {
            step_rows: 2_000,
            idle_poll: Duration::from_millis(20),
            analyze_every: None,
            policy: crate::AnalyzerPolicy::default(),
        }
    }
}

impl BackgroundMaterializer {
    /// Spawn the worker over one collection.
    pub fn spawn(
        sinew: Arc<Sinew>,
        table: &str,
        config: BackgroundConfig,
    ) -> DbResult<BackgroundMaterializer> {
        let (tx, rx) = bounded::<Command>(16);
        let table = table.to_string();
        let thread_table = table.clone();
        let handle = std::thread::Builder::new()
            .name(format!("sinew-materializer-{table}"))
            .spawn(move || worker(sinew, &thread_table, config, rx))
            .map_err(|e| {
                DbError::Io(format!("could not spawn materializer thread for {table}: {e}"))
            })?;
        Ok(BackgroundMaterializer { tx, handle: Some(handle) })
    }

    /// Pause data movement (e.g. while latency-critical queries run).
    pub fn pause(&self) {
        let _ = self.tx.send(Command::Pause);
    }

    pub fn resume(&self) {
        let _ = self.tx.send(Command::Resume);
    }

    /// Stop the worker and return the total number of values it moved.
    pub fn stop(mut self) -> u64 {
        let _ = self.tx.send(Command::Stop);
        self.handle.take().map(|h| h.join().unwrap_or(0)).unwrap_or(0)
    }
}

impl Drop for BackgroundMaterializer {
    fn drop(&mut self) {
        let _ = self.tx.send(Command::Stop);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// Decrements a gauge counter when dropped, so every worker exit path —
/// stop command, disconnect, panic unwind — releases its slot.
struct GaugeGuard<'a>(&'a Counter);

impl Drop for GaugeGuard<'_> {
    fn drop(&mut self) {
        self.0.dec();
    }
}

fn worker(sinew: Arc<Sinew>, table: &str, config: BackgroundConfig, rx: Receiver<Command>) -> u64 {
    sinew.metrics().background_workers_active.inc();
    let _active = GaugeGuard(&sinew.metrics().background_workers_active);
    let mut moved = 0u64;
    let mut paused = false;
    let mut last_analyze = std::time::Instant::now();
    loop {
        // drain control messages
        loop {
            match rx.try_recv() {
                Ok(Command::Pause) => paused = true,
                Ok(Command::Resume) => paused = false,
                Ok(Command::Stop) | Err(TryRecvError::Disconnected) => return moved,
                Err(TryRecvError::Empty) => break,
            }
        }
        if paused {
            match rx.recv_timeout(Duration::from_millis(50)) {
                Ok(Command::Resume) => paused = false,
                Ok(Command::Stop) | Err(crossbeam::channel::RecvTimeoutError::Disconnected) => {
                    return moved
                }
                _ => {}
            }
            continue;
        }
        if let Some(interval) = config.analyze_every {
            if last_analyze.elapsed() >= interval {
                let _ = sinew.run_analyzer(table, &config.policy);
                last_analyze = std::time::Instant::now();
            }
        }
        match sinew.materialize_step(table, StepBudget { rows: config.step_rows }) {
            Ok(report) => {
                sinew.metrics().background_steps.inc();
                moved += report.values_moved;
                if report.rows_scanned == 0 {
                    // nothing dirty: idle-poll
                    match rx.recv_timeout(config.idle_poll) {
                        Ok(Command::Pause) => paused = true,
                        Ok(Command::Resume) => paused = false,
                        Ok(Command::Stop)
                        | Err(crossbeam::channel::RecvTimeoutError::Disconnected) => return moved,
                        Err(crossbeam::channel::RecvTimeoutError::Timeout) => {}
                    }
                }
            }
            Err(_) => {
                // table dropped or transient error: back off
                sinew.metrics().background_errors.inc();
                std::thread::sleep(config.idle_poll);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AnalyzerPolicy;
    use sinew_rdbms::Datum;

    fn loaded_sinew(n: usize) -> Arc<Sinew> {
        let sinew = Arc::new(Sinew::in_memory());
        sinew.create_collection("c").unwrap();
        let docs: String = (0..n).map(|i| format!("{{\"k\": \"v{i}\"}}\n")).collect();
        sinew.load_jsonl("c", &docs).unwrap();
        sinew
    }

    fn wait_clean(sinew: &Sinew, table: &str) {
        for _ in 0..500 {
            if sinew.logical_schema(table).iter().all(|c| !c.dirty) {
                return;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        panic!("materializer never finished");
    }

    #[test]
    fn background_worker_cleans_dirty_columns() {
        let sinew = loaded_sinew(2_000);
        let policy = AnalyzerPolicy {
            density_threshold: 0.5,
            cardinality_threshold: 100,
            sample_rows: 5_000,
        };
        sinew.run_analyzer("c", &policy).unwrap();
        let worker = BackgroundMaterializer::spawn(
            sinew.clone(),
            "c",
            BackgroundConfig { step_rows: 128, ..Default::default() },
        )
        .unwrap();
        wait_clean(&sinew, "c");
        let moved = worker.stop();
        assert_eq!(moved, 2_000);
        let r = sinew.query("SELECT COUNT(*) FROM c WHERE k IS NOT NULL").unwrap();
        assert_eq!(r.rows[0][0], Datum::Int(2_000));
    }

    #[test]
    fn pause_halts_progress_resume_restarts() {
        let sinew = loaded_sinew(5_000);
        let policy = AnalyzerPolicy {
            density_threshold: 0.5,
            cardinality_threshold: 100,
            sample_rows: 10_000,
        };
        sinew.run_analyzer("c", &policy).unwrap();
        let worker = BackgroundMaterializer::spawn(
            sinew.clone(),
            "c",
            BackgroundConfig { step_rows: 16, ..Default::default() },
        )
        .unwrap();
        worker.pause();
        std::thread::sleep(Duration::from_millis(60));
        let dirty_before = sinew.logical_schema("c").iter().filter(|c| c.dirty).count();
        std::thread::sleep(Duration::from_millis(60));
        let dirty_after = sinew.logical_schema("c").iter().filter(|c| c.dirty).count();
        // no progress while paused (the pause may land after some steps,
        // but between the two samples the worker must be quiescent)
        assert_eq!(dirty_before, dirty_after);
        worker.resume();
        wait_clean(&sinew, "c");
        worker.stop();
    }

    #[test]
    fn vacuum_thread_runs_passes_on_its_own() {
        let sinew = Sinew::in_memory();
        // No foreground traffic at all: the thread alone must drive passes.
        for _ in 0..100 {
            if sinew.metrics().snapshot().background_vacuum_passes > 0 {
                return;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        panic!("background vacuum thread never ran a pass");
    }

    #[test]
    fn periodic_analyzer_discovers_new_attributes() {
        let sinew = loaded_sinew(500);
        let config = BackgroundConfig {
            step_rows: 512,
            analyze_every: Some(Duration::from_millis(10)),
            policy: AnalyzerPolicy {
                density_threshold: 0.3,
                cardinality_threshold: 50,
                sample_rows: 5_000,
            },
            ..Default::default()
        };
        let worker = BackgroundMaterializer::spawn(sinew.clone(), "c", config).unwrap();
        // a later load introduces a new dense key; the worker's analyzer
        // pass must pick it up and materialize it without any manual call
        let docs: String =
            (0..1_000).map(|i| format!("{{\"k\": \"w{i}\", \"fresh\": {i}}}\n")).collect();
        sinew.load_jsonl("c", &docs).unwrap();
        for _ in 0..500 {
            let schema = sinew.logical_schema("c");
            if schema.iter().any(|c| c.name == "fresh" && c.materialized && !c.dirty) {
                worker.stop();
                return;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        panic!("background analyzer never materialized `fresh`");
    }
}
