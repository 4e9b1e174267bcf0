//! One crew of threads per statement (DESIGN.md §26).
//!
//! A statement that runs with more than one exec thread opens one
//! `std::thread::scope` (`block::run_streaming_with`) and gets one
//! [`Crew`]: up to `exec_threads − 1` helper threads, spawned lazily by the
//! first jobs that need them, parked on one [`JobQueue`] until the
//! statement ends. The statement's own thread is the remaining worker: it
//! runs the first task of every fan-out itself, claims morsels beside the
//! helpers, and runs queued jobs whenever the result it needs next is not
//! ready. It sleeps only when the queue is empty — and since it is the
//! only thread that submits, every job it then waits on is already running
//! on a helper, which wakes it when it delivers. Helpers never block on
//! anything but the queue, so no wait can deadlock.
//!
//! Two ways to put the crew to work:
//! * [`Crew::run_all`] — one phase of a parallel breaker: a fan-out of
//!   tasks, results in task order;
//! * [`MorselStream`] — the scans: claim loops take morsel ids from an
//!   atomic counter, at most a window of `2 × threads` morsels past the
//!   one the consumer waits for, and the consumer stitches the results in
//!   morsel order.
//!
//! Jobs borrow only what outlives the crew's scope — the executor and the
//! plan, lifetime `'x` — and own, or share through an `Arc`, everything
//! else. A panic is caught at the job boundary, on a helper or on the
//! statement's thread, and surfaces as `DbError::Eval("parallel worker
//! panicked: …")`.

use crate::error::{DbError, DbResult};
use crate::exec::{panic_message, ExecStats};
use std::cell::Cell;
use std::collections::{BTreeMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// A unit of work for whichever crew thread gets to it first.
type Job<'x> = Box<dyn FnOnce() + Send + 'x>;

/// One chunk of one parallel phase, for [`Crew::run_all`].
pub(crate) type Task<'x, R> = Box<dyn FnOnce() -> DbResult<R> + Send + 'x>;

/// Every critical section here is one push, pop or counter step, so a
/// panic elsewhere never leaves guarded state torn: poisoning is ignored.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Run `f`, turning a panic into the parallel-worker error.
pub(crate) fn caught<R>(f: impl FnOnce() -> DbResult<R>) -> DbResult<R> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|payload| {
        Err(DbError::Eval(format!("parallel worker panicked: {}", panic_message(payload.as_ref()))))
    })
}

/// The statement's jobs waiting for a thread, and whether the statement
/// has ended.
#[derive(Default)]
pub(crate) struct JobQueue<'x> {
    state: Mutex<(VecDeque<Job<'x>>, bool)>,
    ready: Condvar,
}

impl<'x> JobQueue<'x> {
    fn push(&self, job: Job<'x>) {
        lock(&self.state).0.push_back(job);
        self.ready.notify_one();
    }

    fn pop(&self) -> Option<Job<'x>> {
        lock(&self.state).0.pop_front()
    }

    /// A helper's whole life: run jobs until the statement closes the queue.
    pub(crate) fn serve(&self) {
        loop {
            let job = {
                let mut state = lock(&self.state);
                loop {
                    if let Some(job) = state.0.pop_front() {
                        break job;
                    }
                    if state.1 {
                        return;
                    }
                    state = self.ready.wait(state).unwrap_or_else(PoisonError::into_inner);
                }
            };
            // Every job catches its own panics; this only keeps the helper
            // alive should one ever escape.
            let _ = catch_unwind(AssertUnwindSafe(job));
        }
    }

    /// The statement has ended: helpers drain the queue and exit.
    fn close(&self) {
        lock(&self.state).1 = true;
        self.ready.notify_all();
    }
}

/// One statement's threads: its own plus up to `helpers` spawned ones.
pub(crate) struct Crew<'c, 'x> {
    queue: &'c JobQueue<'x>,
    /// Spawns one helper serving `queue` inside the statement's scope.
    spawn: &'c dyn Fn(),
    helpers: usize,
    spawned: Cell<usize>,
    stats: &'x ExecStats,
}

impl<'c, 'x> Crew<'c, 'x> {
    pub(crate) fn new(
        queue: &'c JobQueue<'x>,
        spawn: &'c dyn Fn(),
        helpers: usize,
        stats: &'x ExecStats,
    ) -> Crew<'c, 'x> {
        Crew { queue, spawn, helpers, spawned: Cell::new(0), stats }
    }

    /// Threads working for the statement: the helpers and its own.
    pub(crate) fn threads(&self) -> usize {
        self.helpers + 1
    }

    /// Queue `job`, spawning a helper for it while fewer than `helpers` run.
    fn submit(&self, job: Job<'x>) {
        if self.spawned.get() < self.helpers {
            (self.spawn)();
            self.spawned.set(self.spawned.get() + 1);
            self.stats.exec_helpers_spawned.inc();
        }
        self.queue.push(job);
    }

    /// Run one queued job on this thread; `false` when the queue is empty.
    fn help(&self) -> bool {
        match self.queue.pop() {
            Some(job) => {
                job();
                true
            }
            None => false,
        }
    }

    /// Sleep until `ready` yields. Callers come here only with the queue
    /// empty, when what they wait for is running on a helper; the time
    /// asleep is the statement's crew wait.
    fn sleep_until<S, R>(
        &self,
        state: &Mutex<S>,
        cv: &Condvar,
        mut ready: impl FnMut(&mut S) -> Option<R>,
    ) -> R {
        let start = Instant::now();
        let mut guard = lock(state);
        let r = loop {
            if let Some(r) = ready(&mut guard) {
                break r;
            }
            guard = cv.wait(guard).unwrap_or_else(PoisonError::into_inner);
        };
        self.stats.crew_wait_ns.record(start.elapsed().as_nanos() as u64);
        r
    }

    /// Block until `ready` yields, running queued jobs meanwhile (the
    /// result awaited may sit behind them).
    fn wait_for<S, R>(
        &self,
        state: &Mutex<S>,
        cv: &Condvar,
        mut ready: impl FnMut(&mut S) -> Option<R>,
    ) -> R {
        loop {
            if let Some(r) = ready(&mut lock(state)) {
                return r;
            }
            if !self.help() {
                return self.sleep_until(state, cv, ready);
            }
        }
    }

    /// Run one parallel phase: `tasks[0]` on this thread, the rest queued
    /// for the crew. Results come back in task order, so callers that
    /// propagate the first error report the lowest chunk's — the error the
    /// serial operator would have raised first.
    pub(crate) fn run_all<R: Send + 'x>(&self, tasks: Vec<Task<'x, R>>) -> Vec<DbResult<R>> {
        let slots = Arc::new(Slots {
            state: Mutex::new(SlotState {
                results: tasks.iter().map(|_| None).collect(),
                left: tasks.len(),
            }),
            filled: Condvar::new(),
        });
        let mut tasks = tasks.into_iter().enumerate();
        let first = tasks.next();
        for (i, task) in tasks {
            let slots = Arc::clone(&slots);
            self.submit(Box::new(move || slots.put(i, caught(task))));
        }
        if let Some((i, task)) = first {
            slots.put(i, caught(task));
        }
        let results = self.wait_for(&slots.state, &slots.filled, |s| {
            (s.left == 0).then(|| std::mem::take(&mut s.results))
        });
        results.into_iter().map(|r| r.expect("every task delivers")).collect()
    }
}

/// The crew goes with its statement — on success, error or unwind alike —
/// and closes the queue, so the scope's helpers exit and the scope joins.
impl Drop for Crew<'_, '_> {
    fn drop(&mut self) {
        self.queue.close();
    }
}

/// Where a fan-out's tasks deliver.
struct Slots<R> {
    state: Mutex<SlotState<R>>,
    filled: Condvar,
}

struct SlotState<R> {
    results: Vec<Option<DbResult<R>>>,
    left: usize,
}

impl<R> Slots<R> {
    fn put(&self, i: usize, r: DbResult<R>) {
        let mut state = lock(&self.state);
        state.results[i] = Some(r);
        state.left -= 1;
        drop(state);
        self.filled.notify_one();
    }
}

/// What a stream's consumer and its claim loops share. The three atomics
/// publish no data — results and the loop count go through `state` — so
/// they are `Relaxed`: a stale `horizon` only claims less, a late-seen
/// `stop` one more morsel, which `Drop` still waits for.
struct Claims<'x, T> {
    n: u64,
    /// The next unclaimed morsel id.
    next: AtomicU64,
    /// Claims stay below this: a window past the morsel the consumer
    /// waits for. Only ever raised.
    horizon: AtomicU64,
    /// Set when the consumer stops early or goes away.
    stop: AtomicBool,
    work: Box<dyn Fn(u64) -> DbResult<T> + Send + Sync + 'x>,
    state: Mutex<Delivered<T>>,
    delivered: Condvar,
}

struct Delivered<T> {
    /// Finished morsels the consumer has not taken yet.
    done: BTreeMap<u64, DbResult<T>>,
    /// Claim loops queued or running.
    loops: usize,
}

impl<T> Claims<'_, T> {
    /// Claim the next morsel below the horizon, run it and deliver its
    /// result; `false` when none is left to claim or the stream stopped.
    fn claim_one(&self) -> bool {
        let bound = self.horizon.load(Ordering::Relaxed).min(self.n);
        let mut m = self.next.load(Ordering::Relaxed);
        loop {
            if m >= bound || self.stop.load(Ordering::Relaxed) {
                return false;
            }
            match self.next.compare_exchange_weak(m, m + 1, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => break,
                Err(current) => m = current,
            }
        }
        let r = caught(|| (self.work)(m));
        lock(&self.state).done.insert(m, r);
        self.delivered.notify_one();
        true
    }
}

/// Morsels `0..n` run on the crew and come back in morsel order. Claims
/// run at most `window = 2 × threads` morsels past the one the consumer
/// waits for, so the results buffered here stay bounded and a `LIMIT`
/// that stops pulling wastes at most one window. Dropping the stream stops
/// its claims and waits for the morsels in flight. Without a crew every
/// morsel runs on the consumer's thread, one pull at a time.
pub(crate) struct MorselStream<'c, 'x, T> {
    crew: Option<&'c Crew<'c, 'x>>,
    claims: Arc<Claims<'x, T>>,
    window: u64,
    /// The morsel the consumer takes next.
    want: u64,
}

impl<'c, 'x, T: Send + 'x> MorselStream<'c, 'x, T> {
    pub(crate) fn new(
        crew: Option<&'c Crew<'c, 'x>>,
        n: u64,
        work: impl Fn(u64) -> DbResult<T> + Send + Sync + 'x,
    ) -> MorselStream<'c, 'x, T> {
        let claims = Claims {
            n,
            next: AtomicU64::new(0),
            horizon: AtomicU64::new(0),
            stop: AtomicBool::new(false),
            work: Box::new(work),
            state: Mutex::new(Delivered { done: BTreeMap::new(), loops: 0 }),
            delivered: Condvar::new(),
        };
        let window = crew.map_or(1, |c| 2 * c.threads() as u64);
        MorselStream { crew, claims: Arc::new(claims), window, want: 0 }
    }

    /// The next morsel's result, in morsel order; `None` after the last.
    pub(crate) fn next(&mut self) -> Option<DbResult<T>> {
        let want = self.want;
        if want >= self.claims.n {
            return None;
        }
        self.want += 1;
        self.claims.horizon.fetch_max(want + self.window, Ordering::Relaxed);
        if let Some(crew) = self.crew {
            self.top_up(crew);
        }
        let claims = &*self.claims;
        loop {
            if let Some(r) = lock(&claims.state).done.remove(&want) {
                return Some(r);
            }
            if claims.claim_one() || self.crew.is_some_and(Crew::help) {
                continue;
            }
            // `want` is claimed (it lies below the horizon and nothing here
            // could claim it) and running on a helper.
            let crew = self.crew.expect("a stream without a crew claims every morsel itself");
            let taken = |d: &mut Delivered<T>| d.done.remove(&want);
            return Some(crew.sleep_until(&claims.state, &claims.delivered, taken));
        }
    }

    /// Queue claim loops for the idle helpers, leaving one claimable
    /// morsel for this thread.
    fn top_up(&self, crew: &Crew<'c, 'x>) {
        let claims = &self.claims;
        let bound = claims.horizon.load(Ordering::Relaxed).min(claims.n);
        let claimable = bound.saturating_sub(claims.next.load(Ordering::Relaxed)) as usize;
        let mut state = lock(&claims.state);
        let k = crew.helpers.saturating_sub(state.loops).min(claimable.saturating_sub(1));
        state.loops += k;
        drop(state);
        for _ in 0..k {
            let claims = Arc::clone(&self.claims);
            crew.submit(Box::new(move || {
                while claims.claim_one() {}
                lock(&claims.state).loops -= 1;
                claims.delivered.notify_one();
            }));
        }
    }
}

impl<T> Drop for MorselStream<'_, '_, T> {
    fn drop(&mut self) {
        self.claims.stop.store(true, Ordering::Relaxed);
        if let Some(crew) = self.crew {
            crew.wait_for(&self.claims.state, &self.claims.delivered, |d| {
                (d.loops == 0).then_some(())
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Run `f` with a crew of `helpers` helpers, as a statement would.
    fn with_crew<'x, R>(
        helpers: usize,
        stats: &'x ExecStats,
        f: impl for<'c> FnOnce(&'c Crew<'c, 'x>) -> R,
    ) -> R {
        let queue = JobQueue::default();
        std::thread::scope(|s| {
            let spawn = || {
                s.spawn(|| queue.serve());
            };
            let crew = Crew::new(&queue, &spawn, helpers, stats);
            f(&crew)
        })
    }

    #[test]
    fn run_all_returns_results_in_task_order_and_catches_panics() {
        let stats = ExecStats::default();
        let results = with_crew(3, &stats, |crew| {
            let tasks: Vec<Task<'_, usize>> = (0..6usize)
                .map(|i| {
                    Box::new(move || {
                        if i == 4 {
                            panic!("task {i} fails");
                        }
                        Ok(i * 10)
                    }) as Task<'_, usize>
                })
                .collect();
            crew.run_all(tasks)
        });
        for (i, r) in results.iter().enumerate() {
            match r {
                Ok(v) => assert_eq!(*v, i * 10),
                Err(e) => {
                    assert_eq!(i, 4);
                    let msg = e.to_string();
                    assert!(msg.contains("parallel worker panicked: task 4 fails"), "{msg}");
                }
            }
        }
        assert!(results[4].is_err());
        assert_eq!(stats.snapshot().exec_helpers_spawned, 3);
    }

    #[test]
    fn stream_stitches_in_morsel_order_within_its_window() {
        for helpers in [0, 1, 3] {
            let stats = ExecStats::default();
            let claimed = AtomicU64::new(0);
            with_crew(helpers, &stats, |crew| {
                let crew = (helpers > 0).then_some(crew);
                let mut stream = MorselStream::new(crew, 100, |m| {
                    claimed.fetch_add(1, Ordering::Relaxed);
                    if m == 70 {
                        return Err(DbError::Eval("morsel 70".into()));
                    }
                    Ok(m * m)
                });
                for m in 0..70 {
                    assert_eq!(stream.next().unwrap().unwrap(), m * m);
                }
                assert!(stream.next().unwrap().is_err());
                let window = 2 * (helpers as u64 + 1);
                // Claims never ran past the window of the last morsel taken.
                assert!(claimed.load(Ordering::Relaxed) < 71 + window);
                drop(stream);
            });
            assert_eq!(stats.snapshot().exec_helpers_spawned, helpers as u64);
        }
    }

    #[test]
    fn dropping_a_stream_waits_for_its_morsels_in_flight() {
        let stats = ExecStats::default();
        let running = AtomicU64::new(0);
        with_crew(3, &stats, |crew| {
            let mut stream = MorselStream::new(Some(crew), 1_000, |m| {
                running.fetch_add(1, Ordering::SeqCst);
                std::thread::sleep(std::time::Duration::from_millis(2));
                running.fetch_sub(1, Ordering::SeqCst);
                Ok(m)
            });
            assert_eq!(stream.next().unwrap().unwrap(), 0);
            drop(stream);
            assert_eq!(running.load(Ordering::SeqCst), 0, "a morsel outlived its stream");
        });
    }
}
