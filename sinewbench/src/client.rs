//! The closed-loop client: issues one statement at a time, checks each
//! result against the oracle, and keeps the latency samples the metrics
//! are computed from.

use crate::data::{Dataset, ParamSet, Rng};
use crate::oracle::State;
use crate::setup::{LOAD, SPAN_LOAD};
use crate::sut::{self, Class, TABLE};
use crate::trace::Tracer;
use sinew_core::{LoadReport, Sinew};
use sinew_rdbms::{DbResult, QueryResult};
use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

/// Latency samples and op counts of one measured window.
#[derive(Debug, Default)]
pub struct Samples {
    /// One sample per untraced cycle and class: the mean latency (ms) of
    /// the class's statements in that cycle. Averaging within the cycle
    /// first keeps the median off the gap between a fast and a slow
    /// statement of the same class.
    pub by_class: BTreeMap<Class, Vec<f64>>,
    /// One entry per untraced cycle: its correct ops per second of time
    /// spent inside the system.
    pub cycle_ops_per_s: Vec<f64>,
    /// Every untraced read latency (ms), in time order.
    pub reads: Vec<f64>,
    pub busy_ms: f64,
    pub ok_ops: u64,
    pub traced_busy_ms: f64,
    pub traced_ok_ops: u64,
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the report.
    pub failures: Vec<String>,
    /// Statements by kind over the whole window (traced or not).
    pub sql_statements: u64,
    pub write_ops: u64,
    pub join_ops: u64,
}

impl Samples {
    pub fn record(&mut self, traced: bool, ms: f64, outcome: Result<(), String>) -> bool {
        self.attempted += 1;
        match outcome {
            Ok(()) => {
                if traced {
                    self.traced_busy_ms += ms;
                    self.traced_ok_ops += 1;
                } else {
                    self.busy_ms += ms;
                    self.ok_ops += 1;
                }
                true
            }
            Err(why) => {
                self.failed += 1;
                if self.failures.len() < 5 {
                    self.failures.push(why);
                }
                false
            }
        }
    }

    pub fn class(&self, c: Class) -> &[f64] {
        self.by_class.get(&c).map_or(&[], Vec::as_slice)
    }
}

/// Per-class latency sums of the cycle in progress.
pub struct Cycle {
    sums: BTreeMap<Class, (f64, u32)>,
    clean: bool,
}

impl Cycle {
    pub fn new() -> Cycle {
        Cycle {
            sums: BTreeMap::new(),
            clean: true,
        }
    }

    pub fn add(&mut self, class: Class, ms: f64, ok: bool) {
        let e = self.sums.entry(class).or_default();
        e.0 += ms;
        e.1 += 1;
        self.clean &= ok;
    }

    /// Fold the cycle into the samples — untraced, failure-free cycles only.
    pub fn finish(self, traced: bool, samples: &mut Samples) {
        if traced || !self.clean {
            return;
        }
        let (mut ok_ops, mut busy_ms) = (0, 0.0);
        for (class, (sum, n)) in self.sums {
            samples
                .by_class
                .entry(class)
                .or_default()
                .push(sum / f64::from(n));
            ok_ops += n;
            busy_ms += sum;
        }
        samples
            .cycle_ops_per_s
            .push(f64::from(ok_ops) / (busy_ms / 1e3));
    }
}

/// Time one statement, traced or not. Returns the result and latency (ms).
pub fn timed_query(
    sinew: &Sinew,
    sql: &str,
    tracer: &mut Tracer,
    traced: bool,
    op_id: u64,
    class: Class,
) -> (DbResult<QueryResult>, f64) {
    let t = Instant::now();
    let r = if traced {
        sut::query_traced(sinew, sql, tracer, op_id, class)
    } else {
        sinew.query(sql)
    };
    (r, t.elapsed().as_secs_f64() * 1e3)
}

/// Time one bulk load — `load` is the call into the loader — traced or
/// not. Returns the documents it reports loaded and the latency (ms).
pub fn timed_load(
    load: impl FnOnce() -> DbResult<LoadReport>,
    tracer: &mut Tracer,
    traced: bool,
    op_id: u64,
) -> (Result<u64, String>, f64) {
    let t = Instant::now();
    let r = if traced {
        let root = tracer.begin(Class::Write.op_span(), None, op_id);
        let (r, _) = tracer.span(SPAN_LOAD, Some(root), op_id, load);
        tracer.end(root);
        r
    } else {
        load()
    };
    let ms = t.elapsed().as_secs_f64() * 1e3;
    (r.map(|rep| rep.documents).map_err(|e| e.to_string()), ms)
}

/// One client over one instance, with the driver's belief about its
/// content.
pub struct Client<'a> {
    pub sinew: &'a Sinew,
    pub data: &'a mut Dataset,
    pub params: &'a [ParamSet],
    pub state: State,
    pub rng: Rng,
    pub tracer: &'a mut Tracer,
    pub samples: Samples,
    next_op: u64,
    /// Expected read counts by (statement, parameter set), valid while no
    /// insert or delete has changed the collection.
    memo: HashMap<(u8, usize), u64>,
}

impl<'a> Client<'a> {
    pub fn new(
        sinew: &'a Sinew,
        data: &'a mut Dataset,
        params: &'a [ParamSet],
        rng: Rng,
        tracer: &'a mut Tracer,
    ) -> Client<'a> {
        let state = State::with_visible(data.base_len());
        Client {
            sinew,
            data,
            params,
            state,
            rng,
            tracer,
            samples: Samples::default(),
            next_op: 1,
            memo: HashMap::new(),
        }
    }

    fn op_id(&mut self) -> u64 {
        self.next_op += 1;
        self.next_op
    }

    pub fn read(&mut self, q: u8, pi: usize, traced: bool, cycle: &mut Cycle) {
        let p = &self.params[pi];
        let (state, docs) = (&self.state, &self.data.docs);
        let expected = *self
            .memo
            .entry((q, pi))
            .or_insert_with(|| state.expect_read(docs, q, p));
        let sql = sut::read_sql(q, p);
        let op_id = self.op_id();
        let (r, ms) = timed_query(
            self.sinew,
            &sql,
            self.tracer,
            traced,
            op_id,
            Class::of_read(q),
        );
        let outcome = match r {
            Ok(r) if r.rows.len() as u64 == expected => Ok(()),
            Ok(r) => Err(format!(
                "Q{q}: {} rows, oracle says {expected}: {sql}",
                r.rows.len()
            )),
            Err(e) => Err(format!("Q{q}: {e}: {sql}")),
        };
        self.samples.sql_statements += 1;
        self.samples.join_ops += u64::from(q == 11);
        let ok = self.samples.record(traced, ms, outcome);
        if ok && !traced {
            self.samples.reads.push(ms);
        }
        cycle.add(Class::of_read(q), ms, ok);
    }

    pub fn update(&mut self, pi: usize, traced: bool, cycle: &mut Cycle) {
        let val = &self.params[pi].update_val;
        let expected = self.state.apply_update(&self.data.docs, val);
        let sql = sut::update_sql(val);
        let op_id = self.op_id();
        let (r, ms) = timed_query(self.sinew, &sql, self.tracer, traced, op_id, Class::Write);
        self.samples.sql_statements += 1;
        self.finish_write(
            r.map(|r| r.affected).map_err(|e| e.to_string()),
            expected,
            &sql,
            traced,
            ms,
            cycle,
        );
    }

    /// Load the next generated document as one line of JSON.
    pub fn insert_one(&mut self, traced: bool, cycle: &mut Cycle) {
        let at = self.state.visible;
        self.data.ensure(at + 1);
        let text = self.data.jsonl(at..at + 1);
        self.state.apply_insert(1);
        self.memo.clear();
        let op_id = self.op_id();
        let sinew = self.sinew;
        let load = || sinew.load_jsonl_with(TABLE, &text, LOAD);
        let (r, ms) = timed_load(load, self.tracer, traced, op_id);
        self.finish_write(r, 1, "load_jsonl of 1 document", traced, ms, cycle);
    }

    /// Delete one live document, picked by the seed.
    pub fn delete_one(&mut self, traced: bool, cycle: &mut Cycle) {
        let victim = loop {
            let i = self.rng.below(self.state.visible);
            if self.state.is_live(i) {
                break i;
            }
        };
        let str1 = self.data.docs[victim].str1.clone();
        let expected = self.state.apply_delete(&self.data.docs, &str1);
        self.memo.clear();
        let sql = sut::delete_sql(&str1);
        let op_id = self.op_id();
        let (r, ms) = timed_query(self.sinew, &sql, self.tracer, traced, op_id, Class::Write);
        self.samples.sql_statements += 1;
        self.finish_write(
            r.map(|r| r.affected).map_err(|e| e.to_string()),
            expected,
            &sql,
            traced,
            ms,
            cycle,
        );
    }

    fn finish_write(
        &mut self,
        got: Result<u64, String>,
        expected: u64,
        what: &str,
        traced: bool,
        ms: f64,
        cycle: &mut Cycle,
    ) {
        let outcome = match got {
            Ok(n) if n == expected => Ok(()),
            Ok(n) => Err(format!("{n} rows affected, oracle says {expected}: {what}")),
            Err(e) => Err(format!("{e}: {what}")),
        };
        self.samples.write_ops += 1;
        let ok = self.samples.record(traced, ms, outcome);
        cycle.add(Class::Write, ms, ok);
    }

    /// The paper's suite: Q1…Q11 then the §6.6 update.
    pub fn nobench_cycle(&mut self, i: usize, traced: bool) {
        let pi = i % self.params.len();
        let mut cycle = Cycle::new();
        for q in 1..=11 {
            self.read(q, pi, traced, &mut cycle);
        }
        self.update(pi, traced, &mut cycle);
        cycle.finish(traced, &mut self.samples);
    }

    /// The write-heavy round: a write before each of Q1…Q11 and one after,
    /// rotating update / one-document load / delete (four of each).
    pub fn ingest_round(&mut self, i: usize, traced: bool) {
        let pi = i % self.params.len();
        let mut cycle = Cycle::new();
        for slot in 0..12u8 {
            match slot % 3 {
                0 => self.update(pi, traced, &mut cycle),
                1 => self.insert_one(traced, &mut cycle),
                _ => self.delete_one(traced, &mut cycle),
            }
            if slot < 11 {
                self.read(slot + 1, pi, traced, &mut cycle);
            }
        }
        cycle.finish(traced, &mut self.samples);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_means_are_recorded_only_for_clean_untraced_cycles() {
        let mut s = Samples::default();
        let mut c = Cycle::new();
        c.add(Class::Project, 1.0, true);
        c.add(Class::Project, 3.0, true);
        c.add(Class::Join, 5.0, true);
        c.finish(false, &mut s);
        assert_eq!(s.class(Class::Project), [2.0]);
        assert_eq!(s.class(Class::Join), [5.0]);
        assert_eq!(s.cycle_ops_per_s, [3.0 / 0.009]);
        let mut c = Cycle::new();
        c.add(Class::Project, 9.0, false);
        c.finish(false, &mut s);
        let mut c = Cycle::new();
        c.add(Class::Project, 9.0, true);
        c.finish(true, &mut s);
        assert_eq!(s.class(Class::Project), [2.0]);
        assert_eq!(s.cycle_ops_per_s.len(), 1);
        assert!(s.class(Class::Agg).is_empty());
    }

    #[test]
    fn failures_count_against_attempts_and_carry_no_latency() {
        let mut s = Samples::default();
        assert!(s.record(false, 2.0, Ok(())));
        assert!(!s.record(false, 50.0, Err("boom".into())));
        assert!(s.record(true, 4.0, Ok(())));
        assert_eq!(
            (s.attempted, s.failed, s.ok_ops, s.traced_ok_ops),
            (3, 1, 1, 1)
        );
        assert_eq!(s.busy_ms, 2.0);
        assert_eq!(s.traced_busy_ms, 4.0);
        assert_eq!(s.failures, vec!["boom".to_string()]);
    }
}
