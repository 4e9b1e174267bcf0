//! The counter table: every engine counter is declared once, as one row
//! of a [`counter_table!`] invocation, and everything else — the live
//! struct of relaxed atomics, the plain snapshot struct, `snapshot()` and
//! the ordered `(group, name, value)` walk that the JSON and text reports
//! print — is generated from that row (DESIGN.md §19).
//!
//! Updates stay plain field accesses (`stats.index_scans.inc()` is one
//! relaxed `fetch_add` on the calling thread's stripe of the counter): no
//! name lookup, no map, no `dyn` on a hot path. Readers may see a slightly
//! torn cross-counter view, which is fine for monitoring; each individual
//! counter is always exact.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};

/// Stripes per [`Counter`]: enough that the threads of one statement
/// (at most a few exec workers) rarely share one.
const STRIPES: usize = 8;

/// One stripe, alone on its cache line so that threads counting on
/// different stripes never contend for the line.
#[derive(Default)]
#[repr(align(64))]
struct Stripe(AtomicU64);

/// The calling thread's stripe: threads take stripes round-robin in the
/// order they first count anything.
fn stripe() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static STRIPE: usize = NEXT.fetch_add(1, Relaxed) % STRIPES;
    }
    STRIPE.with(|s| *s)
}

/// A monotonically increasing (or, for gauges, inc/dec) event count.
/// All operations are relaxed atomics: safe from any thread, never a lock.
/// Each thread adds to its own stripe, so counting once per row from
/// several workers never bounces one cache line between cores (DESIGN.md
/// §24); `get` sums the stripes, with wrapping arithmetic so that a gauge
/// raised on one thread and lowered on another still reads exactly.
#[derive(Default)]
pub struct Counter([Stripe; STRIPES]);

impl Counter {
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    #[inline]
    pub fn add(&self, n: u64) {
        self.0[stripe()].0.fetch_add(n, Relaxed);
    }

    /// Gauge-style decrement (e.g. active worker count).
    #[inline]
    pub fn dec(&self) {
        self.sub(1);
    }

    /// Gauge-style decrement by `n` (e.g. resident bytes released).
    #[inline]
    pub fn sub(&self, n: u64) {
        self.0[stripe()].0.fetch_sub(n, Relaxed);
    }

    #[inline]
    pub fn get(&self) -> u64 {
        self.0.iter().fold(0u64, |sum, s| sum.wrapping_add(s.0.load(Relaxed)))
    }
}

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.get())
    }
}

/// A high-water mark: only ever raised, so it cannot be summed into by
/// mistake the way a [`Counter`] could.
#[derive(Debug, Default)]
pub struct MaxGauge(AtomicU64);

impl MaxGauge {
    #[inline]
    pub fn raise_to(&self, n: u64) {
        self.0.fetch_max(n, Relaxed);
    }

    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Relaxed)
    }
}

/// Placeholder for an `overlay` row: the value lives outside the table
/// (computed at read time by its owner), so the live struct holds nothing
/// and the snapshot field starts at zero for the owner to fill in.
#[derive(Debug, Default)]
pub struct Overlay;

impl Overlay {
    pub fn get(&self) -> u64 {
        0
    }
}

/// Power-of-two bucket count: bucket 0 holds value 0, bucket k holds
/// values in `[2^(k-1), 2^k)`, the last bucket absorbs everything above.
pub const HIST_BUCKETS: usize = 17;

/// A lock-free log₂-bucketed histogram (batch sizes, rows per block).
#[derive(Default)]
pub struct Histogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Histogram {
    #[inline]
    fn bucket_of(v: u64) -> usize {
        (64 - v.leading_zeros() as usize).min(HIST_BUCKETS - 1)
    }

    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[Self::bucket_of(v)].fetch_add(1, Relaxed);
        self.count.fetch_add(1, Relaxed);
        self.sum.fetch_add(v, Relaxed);
    }

    pub fn get(&self) -> HistSnapshot {
        HistSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Relaxed)),
            count: self.count.load(Relaxed),
            sum: self.sum.load(Relaxed),
        }
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.get();
        write!(f, "Histogram(n={}, mean={:.1})", s.count, s.mean())
    }
}

/// A plain-data copy of a [`Histogram`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HistSnapshot {
    pub buckets: [u64; HIST_BUCKETS],
    pub count: u64,
    pub sum: u64,
}

impl HistSnapshot {
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// One value of a snapshot walk.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Sample {
    Int(u64),
    Float(f64),
    /// Log₂ bucket counts of a histogram row.
    Buckets([u64; HIST_BUCKETS]),
}

/// Text form used by the storage report: buckets print as their non-empty
/// `inclusive-lower-bound:count` pairs.
impl std::fmt::Display for Sample {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Sample::Int(v) => write!(f, "{v}"),
            Sample::Float(v) => write!(f, "{v:.3}"),
            Sample::Buckets(b) => {
                let pairs: Vec<String> = b
                    .iter()
                    .enumerate()
                    .filter(|(_, n)| **n > 0)
                    .map(|(i, n)| format!("{}:{n}", if i == 0 { 0 } else { 1u64 << (i - 1) }))
                    .collect();
                write!(f, "[{}]", pairs.join(" "))
            }
        }
    }
}

/// One `(group, name, value)` step of a snapshot walk.
pub type Entry = (&'static str, &'static str, Sample);

/// Declare a counter table. Each row is `group name: kind,` under its doc
/// comment, with `kind` one of
///
/// * `counter` — a [`Counter`] (`inc`/`add`/`dec`), snapshot `u64`;
/// * `max` — a [`MaxGauge`] (`raise_to`), snapshot `u64`;
/// * `histogram` — a [`Histogram`] (`record`), snapshot [`HistSnapshot`];
///   the walk reports it as `name_log2`, `name_count`, `name_sum` and
///   `name_mean`;
/// * `overlay` — no live storage; the snapshot field is a `u64` the
///   value's owner fills in after `snapshot()`.
///
/// Generates the live struct, the snapshot struct (same field names),
/// `Live::snapshot()` and `Snapshot::walk()`, all in row order.
#[macro_export]
macro_rules! counter_table {
    (@live counter) => { $crate::counters::Counter };
    (@live max) => { $crate::counters::MaxGauge };
    (@live histogram) => { $crate::counters::Histogram };
    (@live overlay) => { $crate::counters::Overlay };
    (@snap histogram) => { $crate::counters::HistSnapshot };
    (@snap $scalar:ident) => { u64 };
    (@walk histogram, $out:ident, $group:ident, $name:ident, $v:expr) => {{
        use $crate::counters::Sample::{Buckets, Float, Int};
        let group = stringify!($group);
        $out.extend([
            (group, concat!(stringify!($name), "_log2"), Buckets($v.buckets)),
            (group, concat!(stringify!($name), "_count"), Int($v.count)),
            (group, concat!(stringify!($name), "_sum"), Int($v.sum)),
            (group, concat!(stringify!($name), "_mean"), Float($v.mean())),
        ])
    }};
    (@walk $scalar:ident, $out:ident, $group:ident, $name:ident, $v:expr) => {
        $out.extend([(stringify!($group), stringify!($name), $crate::counters::Sample::Int($v))])
    };
    (
        $(#[$live_meta:meta])* live $Live:ident;
        $(#[$snap_meta:meta])* snapshot $Snap:ident;
        $( $(#[$doc:meta])* $group:ident $name:ident: $kind:ident, )*
    ) => {
        $(#[$live_meta])*
        #[derive(Debug, Default)]
        pub struct $Live {
            $( $(#[$doc])* pub $name: $crate::counter_table!(@live $kind), )*
        }

        $(#[$snap_meta])*
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct $Snap {
            $( $(#[$doc])* pub $name: $crate::counter_table!(@snap $kind), )*
        }

        impl $Live {
            /// Capture every row at one (relaxed) point in time.
            pub fn snapshot(&self) -> $Snap {
                $Snap { $( $name: self.$name.get(), )* }
            }
        }

        impl $Snap {
            /// Every row as `(group, name, value)`, in declaration order.
            pub fn walk(&self) -> Vec<$crate::counters::Entry> {
                let mut out = Vec::new();
                $( $crate::counter_table!(@walk $kind, out, $group, $name, self.$name); )*
                out
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_monotonic_and_cheap() {
        let c = Counter::default();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        c.dec();
        assert_eq!(c.get(), 4);
        let g = MaxGauge::default();
        g.raise_to(7);
        g.raise_to(3);
        assert_eq!(g.get(), 7);
    }

    /// Threads count on different stripes; the sum is exact, a gauge
    /// raised on one thread and lowered on another included.
    #[test]
    fn striped_counter_sums_exactly_across_threads() {
        let c = Counter::default();
        let gauge = Counter::default();
        std::thread::scope(|s| {
            for t in 0..2 * STRIPES as u64 {
                let (c, gauge) = (&c, &gauge);
                s.spawn(move || {
                    for _ in 0..1_000 {
                        c.inc();
                    }
                    c.add(t);
                    gauge.inc();
                });
            }
        });
        let n = 2 * STRIPES as u64;
        assert_eq!(c.get(), n * 1_000 + n * (n - 1) / 2);
        for _ in 0..n {
            gauge.dec();
        }
        assert_eq!(gauge.get(), 0, "inc on worker stripes, dec on this one");
    }

    #[test]
    fn histogram_buckets_by_log2() {
        let h = Histogram::default();
        for v in [0, 1, 2, 3, 900, u64::MAX] {
            h.record(v);
        }
        let s = h.get();
        assert_eq!(s.count, 6);
        assert_eq!((s.buckets[0], s.buckets[1], s.buckets[2]), (1, 1, 2), "{s:?}");
        assert_eq!((s.buckets[10], s.buckets[HIST_BUCKETS - 1]), (1, 1), "{s:?}");
        assert!(s.mean() > 0.0);
        assert_eq!(Sample::Buckets(s.buckets).to_string(), "[0:1 1:1 2:2 512:1 32768:1]");
    }

    counter_table! {
        live Live;
        snapshot Snap;
        /// Events.
        a hits: counter,
        /// High-water mark.
        a peak: max,
        /// Sizes.
        b sizes: histogram,
        /// Filled in by the owner.
        b age: overlay,
    }

    #[test]
    fn table_generates_snapshot_and_walk_in_row_order() {
        let live = Live::default();
        live.hits.add(3);
        live.peak.raise_to(9);
        live.sizes.record(4);
        let mut snap = live.snapshot();
        assert_eq!((snap.hits, snap.peak, snap.sizes.sum, snap.age), (3, 9, 4, 0));
        snap.age = 5;
        let walk = snap.walk();
        let names: Vec<&str> = walk.iter().map(|(_, n, _)| *n).collect();
        assert_eq!(
            names,
            ["hits", "peak", "sizes_log2", "sizes_count", "sizes_sum", "sizes_mean", "age"]
        );
        assert_eq!(walk[0], ("a", "hits", Sample::Int(3)));
        assert_eq!(walk[5], ("b", "sizes_mean", Sample::Float(4.0)));
        assert_eq!(walk[6], ("b", "age", Sample::Int(5)));
    }
}
