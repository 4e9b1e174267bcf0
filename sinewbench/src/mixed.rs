//! The `mixed_serving` window: a closed-loop reader and an open-loop writer
//! on one instance, beside the system's vacuum thread and an idle-polling
//! background materializer.
//!
//! The writer sends the §6.6 update on a fixed schedule whatever the
//! system does, and times each op from when it was *due*: a stall that
//! delays later ops is charged to them. Because the schedule is fixed, a
//! faster or slower writer cannot change the load the reader sees.
//!
//! The writer loads no documents: loads that race the background
//! materializer return wrong results at this commit (README, "Known
//! defects"), and no measured operation may fail.

use crate::client::{timed_query, Cycle, Samples};
use crate::data::{Dataset, ParamSet};
use crate::oracle::State;
use crate::sut::{self, Class};
use crate::trace::Tracer;
use sinew_core::Sinew;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Writer schedule: one §6.6 update every 100 ms.
pub const WRITER_PERIOD: Duration = Duration::from_millis(100);

/// When op `k` is due, and how late a send at `started` is.
pub fn due_at(k: usize) -> Duration {
    WRITER_PERIOD * k as u32
}

/// Open-loop accounting for one op: `(latency from due time, lateness)`.
/// An op the generator starts early (it never does) is not late.
pub fn open_loop_times(due: Duration, started: Duration, ended: Duration) -> (Duration, Duration) {
    (ended.saturating_sub(due), started.saturating_sub(due))
}

/// Ops the schedule holds in `window`.
pub fn schedule_len(window: Duration) -> usize {
    (window.as_nanos() / WRITER_PERIOD.as_nanos()) as usize
}

pub struct WriterOutcome {
    pub samples: Samples,
    pub tracer: Tracer,
    pub lateness_ms: Vec<f64>,
    pub state: State,
    pub snapshot_age_ms_max: u64,
}

/// What one window runs.
pub struct Spec {
    pub window: Duration,
    pub trace: bool,
    /// Zero of the trace clock.
    pub epoch: Instant,
}

pub struct Outcome {
    pub reader: Samples,
    pub reader_tracer: Tracer,
    pub writer: WriterOutcome,
}

/// What the two clients share.
struct Shared<'a> {
    sinew: &'a Sinew,
    data: &'a Dataset,
    spec: &'a Spec,
    /// Start of the window: the writer's schedule counts from here.
    t0: Instant,
    stop: AtomicBool,
    op_ids: AtomicU64,
}

/// Run both clients for `spec.window`.
pub fn run_window(
    sinew: &Sinew,
    data: &Dataset,
    reader_params: &[ParamSet],
    update_vals: &[String],
    spec: &Spec,
) -> Outcome {
    let shared = Shared {
        sinew,
        data,
        spec,
        t0: Instant::now(),
        stop: AtomicBool::new(false),
        op_ids: AtomicU64::new(1 << 32),
    };
    std::thread::scope(|s| {
        let writer = s.spawn(|| {
            let out = writer_loop(&shared, update_vals);
            shared.stop.store(true, Ordering::SeqCst);
            out
        });
        let reader = s.spawn(|| reader_loop(&shared, reader_params));
        let (reader, reader_tracer) = reader.join().expect("reader thread panicked");
        let writer = writer.join().expect("writer thread panicked");
        Outcome {
            reader,
            reader_tracer,
            writer,
        }
    })
}

fn writer_loop(x: &Shared, update_vals: &[String]) -> WriterOutcome {
    let Shared {
        sinew,
        data,
        spec,
        t0,
        ..
    } = *x;
    let mut tracer = Tracer::new(spec.epoch);
    let mut samples = Samples::default();
    let mut lateness_ms = Vec::new();
    let mut state = State::with_visible(data.base_len());
    let mut snapshot_age_ms_max = 0;
    for k in 0..schedule_len(spec.window) {
        let due = due_at(k);
        // Sleep, not busy-wait or a warm-up statement before the due time:
        // both were tried, both steady this thread's latency, and both
        // make the reader's run-to-run spread three times wider (README,
        // "Known limits").
        if let Some(wait) = due.checked_sub(t0.elapsed()) {
            std::thread::sleep(wait);
        }
        let traced = spec.trace && k % 2 == 1;
        let op_id = x.op_ids.fetch_add(1, Ordering::Relaxed);
        let started = t0.elapsed();
        let val = &update_vals[k % update_vals.len()];
        let expected = state.apply_update(&data.docs, val);
        let (r, _) = timed_query(
            sinew,
            &sut::update_sql(val),
            &mut tracer,
            traced,
            op_id,
            Class::Write,
        );
        samples.sql_statements += 1;
        let (latency, late) = open_loop_times(due, started, t0.elapsed());
        let outcome = match r {
            Ok(r) if r.affected == expected => Ok(()),
            Ok(r) => Err(format!(
                "writer update: {} rows, oracle says {expected}",
                r.affected
            )),
            Err(e) => Err(format!("writer update: {e}")),
        };
        let ms = latency.as_secs_f64() * 1e3;
        samples.write_ops += 1;
        if samples.record(traced, ms, outcome) && !traced {
            samples.by_class.entry(Class::Write).or_default().push(ms);
        }
        lateness_ms.push(late.as_secs_f64() * 1e3);
        snapshot_age_ms_max =
            snapshot_age_ms_max.max(sinew.db().exec_stats().oldest_snapshot_age_ms);
    }
    WriterOutcome {
        samples,
        tracer,
        lateness_ms,
        state,
        snapshot_age_ms_max,
    }
}

fn reader_loop(x: &Shared, params: &[ParamSet]) -> (Samples, Tracer) {
    let Shared {
        sinew, data, spec, ..
    } = *x;
    let mut tracer = Tracer::new(spec.epoch);
    let mut samples = Samples::default();
    // the updates set a key no statement reads, so every read sees the
    // documents of set-up: one expectation per (parameter set, statement)
    let state = State::with_visible(data.base_len());
    let expected: Vec<Vec<u64>> = params
        .iter()
        .map(|p| {
            (1..=11u8)
                .map(|q| state.expect_read(&data.docs, q, p))
                .collect()
        })
        .collect();
    let mut i = 0usize;
    while !x.stop.load(Ordering::SeqCst) {
        let traced = spec.trace && i % 2 == 1;
        let pi = i % params.len();
        let p = &params[pi];
        let mut cycle = Cycle::new();
        for q in 1..=11u8 {
            let sql = sut::read_sql(q, p);
            let op_id = x.op_ids.fetch_add(1, Ordering::Relaxed);
            let (r, ms) = timed_query(sinew, &sql, &mut tracer, traced, op_id, Class::of_read(q));
            let expected = expected[pi][usize::from(q) - 1];
            let outcome = match r {
                Ok(r) if r.rows.len() as u64 == expected => Ok(()),
                Ok(r) => Err(format!(
                    "Q{q}: {} rows, oracle says {expected}: {sql}",
                    r.rows.len()
                )),
                Err(e) => Err(format!("Q{q}: {e}: {sql}")),
            };
            samples.sql_statements += 1;
            samples.join_ops += u64::from(q == 11);
            let ok = samples.record(traced, ms, outcome);
            if ok && !traced {
                samples.reads.push(ms);
            }
            cycle.add(Class::of_read(q), ms, ok);
        }
        cycle.finish(traced, &mut samples);
        i += 1;
    }
    (samples, tracer)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_loop_latency_runs_from_due_time() {
        let ms = Duration::from_millis;
        // sent on time, took 7 ms
        assert_eq!(open_loop_times(ms(200), ms(200), ms(207)), (ms(7), ms(0)));
        // a 150 ms stall before it: sent 150 ms late, charged 157 ms
        assert_eq!(
            open_loop_times(ms(200), ms(350), ms(357)),
            (ms(157), ms(150))
        );
        // never negative
        assert_eq!(open_loop_times(ms(200), ms(199), ms(205)), (ms(5), ms(0)));
    }

    #[test]
    fn schedule_is_fixed_by_the_window() {
        assert_eq!(due_at(0), Duration::ZERO);
        assert_eq!(due_at(7), Duration::from_millis(700));
        assert_eq!(schedule_len(Duration::from_secs(10)), 100);
        assert_eq!(schedule_len(Duration::from_millis(950)), 9);
    }
}
