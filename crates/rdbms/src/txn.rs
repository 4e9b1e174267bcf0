//! MVCC transaction management: commit timestamps, snapshot registry, and
//! visibility rules.
//!
//! The engine keeps **one monotonically increasing commit timestamp**
//! (`u64`, below [`TXN_BASE`]) handed out by [`TxnManager::start_write`].
//! Every heap row version carries `begin`/`end` timestamps; a snapshot
//! reader with read timestamp `R` sees exactly the versions with
//! `begin <= R < end`. Uncommitted versions written inside an explicit
//! transaction carry a *marker* timestamp (`TXN_BASE | seq`) instead,
//! visible only to their own transaction, and are patched to the real
//! commit timestamp at COMMIT.
//!
//! Two write modes fall out of the snapshot registry:
//!
//! - **Eager** — no snapshot is registered when the statement starts.
//!   The writer mutates destructively (in-place heap updates, immediate
//!   index/columnar maintenance), so a serial workload leaves no version
//!   behind it. To keep that safe, [`TxnManager::begin_snapshot`]
//!   *waits* for in-flight eager statements (bounded by one statement's
//!   duration — the same wait the table lock already imposed).
//! - **Retain** — at least one snapshot is registered. The writer
//!   installs new versions and chains the old ones; superseded versions,
//!   stale index entries, and deferred columnar mutations are queued as
//!   garbage stamped with the commit timestamp, reclaimed by vacuum once
//!   the oldest live snapshot has advanced past them.
//!
//! Readers never take the write token and never block on writers in
//! Retain mode: visibility is resolved per version against the heap.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Mutex;
use std::time::Instant;

/// Marker base: timestamps at or above this are uncommitted transaction
/// markers, never commit timestamps.
pub const TXN_BASE: u64 = 1 << 63;

/// "End of time" for a version that has not been superseded or deleted.
pub const NO_END: u64 = u64::MAX;

/// Sentinel read timestamp that sees every *committed* version and no
/// uncommitted marker — the latest-committed view used by legacy callers
/// (ANALYZE, index builds, DML phase-1 scans outside a transaction).
pub const READ_LATEST: u64 = TXN_BASE - 1;

/// A visibility filter: which versions a reader may see.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Vis {
    /// Committed versions with `begin <= read_ts` are candidates.
    pub read_ts: u64,
    /// Own-transaction marker (0 when not inside a transaction):
    /// versions stamped with it are visible to this reader only.
    pub marker: u64,
}

impl Vis {
    /// Latest-committed view (no snapshot, no transaction).
    pub const LATEST: Vis = Vis { read_ts: READ_LATEST, marker: 0 };

    pub fn snapshot(read_ts: u64) -> Vis {
        Vis { read_ts, marker: 0 }
    }

    /// Is a version whose lifetime is `[begin, end)` visible here?
    #[inline]
    pub fn sees(&self, begin: u64, end: u64) -> bool {
        self.sees_begin(begin) && !self.sees_end(end)
    }

    /// Was the version born for this reader?
    #[inline]
    pub fn sees_begin(&self, begin: u64) -> bool {
        if begin >= TXN_BASE {
            self.marker != 0 && begin == self.marker
        } else {
            begin <= self.read_ts
        }
    }

    /// Is the version dead for this reader (superseded or deleted)?
    #[inline]
    pub fn sees_end(&self, end: u64) -> bool {
        if end == NO_END {
            false
        } else if end >= TXN_BASE {
            // Deleted by an uncommitted transaction: dead only for that
            // transaction itself.
            self.marker != 0 && end == self.marker
        } else {
            end <= self.read_ts
        }
    }
}

/// What a finished write statement should do with the versions it
/// superseded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteMode {
    /// No snapshot registered: destructive in-place writes.
    Eager,
    /// Snapshots live: retain superseded versions for them.
    Retain,
}

/// Ticket for one in-flight write statement (or one transaction commit).
#[derive(Debug, Clone, Copy)]
pub struct WriteTicket {
    pub ts: u64,
    pub mode: WriteMode,
}

#[derive(Debug, Default)]
struct Registry {
    /// read_ts → (refcount, earliest registration).
    snaps: BTreeMap<u64, (u64, Instant)>,
}

#[derive(Debug)]
struct Inner {
    /// Last timestamp handed out.
    next: u64,
    /// Commit visible to new snapshots: every ts <= last_visible is
    /// finished (published in timestamp order).
    last_visible: u64,
    /// In-flight write timestamps → eager flag.
    inflight: BTreeMap<u64, bool>,
    /// Finished timestamps still blocked from publishing by an earlier
    /// in-flight one.
    finished: BTreeSet<u64>,
    registry: Registry,
    /// Readers parked in [`TxnManager::begin_snapshot`] waiting out an
    /// eager statement. New writers see them and pick Retain, so a stream
    /// of back-to-back writers cannot starve snapshot registration.
    pending_readers: u64,
    next_marker: u64,
}

/// The global transaction manager (one per [`crate::Database`]).
pub struct TxnManager {
    inner: Mutex<Inner>,
    cv: std::sync::Condvar,
}

impl Default for TxnManager {
    fn default() -> Self {
        TxnManager::new()
    }
}

impl TxnManager {
    pub fn new() -> TxnManager {
        TxnManager {
            inner: Mutex::new(Inner {
                next: 0,
                last_visible: 0,
                inflight: BTreeMap::new(),
                finished: BTreeSet::new(),
                registry: Registry::default(),
                pending_readers: 0,
                next_marker: 1,
            }),
            cv: std::sync::Condvar::new(),
        }
    }

    /// Recovery: fast-forward the clock past every commit timestamp found
    /// in the log, so post-recovery commits stay monotone.
    pub fn seed(&self, max_committed: u64) {
        let mut g = self.inner.lock().unwrap();
        if max_committed > g.next {
            g.next = max_committed;
            g.last_visible = max_committed;
        }
    }

    /// Register a snapshot and return its read timestamp. Waits out
    /// in-flight *eager* statements (they mutate destructively on the
    /// promise that no snapshot exists); Retain-mode writers and open
    /// transactions never block this.
    pub fn begin_snapshot(&self) -> u64 {
        let mut g = self.inner.lock().unwrap();
        if g.inflight.values().any(|&eager| eager) {
            g.pending_readers += 1;
            while g.inflight.values().any(|&eager| eager) {
                g = self.cv.wait(g).unwrap();
            }
            g.pending_readers -= 1;
        }
        let r = g.last_visible;
        let now = Instant::now();
        g.registry.snaps.entry(r).or_insert((0, now)).0 += 1;
        r
    }

    /// Register a snapshot that is guaranteed to include every write that
    /// committed before this call — the BEGIN-of-transaction variant.
    ///
    /// Commits publish strictly in timestamp order, so a write ticket whose
    /// holder is briefly descheduled stalls `last_visible` even though
    /// *later* commits have already finished. [`Self::begin_snapshot`]
    /// (used by plain reads) shrugs: it serves the stale-but-consistent
    /// frontier without blocking. A *transaction* cannot: an update against
    /// a stale snapshot re-reads a row some already-committed write has
    /// since versioned, and first-writer-wins would abort a perfectly
    /// serial workload. Waiting here is bounded by statement length —
    /// tickets span one statement (or one commit), never an open
    /// transaction's think time.
    pub fn begin_snapshot_fresh(&self) -> u64 {
        let mut g = self.inner.lock().unwrap();
        // Everything at or below `target` must publish before we pick a
        // read timestamp; tickets handed out after this point are *later*
        // writes and may stay in flight (no starvation). Eager tickets
        // above `target` must drain too — they mutate destructively on the
        // promise that no snapshot exists, and we are about to be one.
        let target = g.next;
        if g.inflight.iter().any(|(&ts, &eager)| eager || ts <= target) {
            g.pending_readers += 1;
            while g.inflight.iter().any(|(&ts, &eager)| eager || ts <= target) {
                g = self.cv.wait(g).unwrap();
            }
            g.pending_readers -= 1;
        }
        let r = g.last_visible;
        let now = Instant::now();
        g.registry.snaps.entry(r).or_insert((0, now)).0 += 1;
        r
    }

    /// Drop a snapshot registration. Returns `true` when the horizon may
    /// have advanced (the caller may want to vacuum).
    pub fn release_snapshot(&self, read_ts: u64) -> bool {
        let mut g = self.inner.lock().unwrap();
        let advanced = match g.registry.snaps.get_mut(&read_ts) {
            Some(entry) => {
                entry.0 -= 1;
                if entry.0 == 0 {
                    let was_min =
                        g.registry.snaps.keys().next() == Some(&read_ts);
                    g.registry.snaps.remove(&read_ts);
                    was_min
                } else {
                    false
                }
            }
            None => false,
        };
        advanced
    }

    /// Begin one write statement (or one transaction commit): allocate its
    /// commit timestamp and decide Eager vs Retain from the registry.
    pub fn start_write(&self) -> WriteTicket {
        let mut g = self.inner.lock().unwrap();
        g.next += 1;
        let ts = g.next;
        // Eager (destructive) mode is only safe when this write publishes
        // the instant it finishes: any earlier in-flight ticket would hold
        // publication back, letting a later snapshot register *below* this
        // timestamp and look for versions an eager write already destroyed.
        let eager = g.registry.snaps.is_empty()
            && g.pending_readers == 0
            && g.inflight.is_empty();
        g.inflight.insert(ts, eager);
        WriteTicket { ts, mode: if eager { WriteMode::Eager } else { WriteMode::Retain } }
    }

    /// Publish a finished write. Commits become visible strictly in
    /// timestamp order: a later timestamp finishing first waits (invisibly)
    /// for the earlier one.
    pub fn finish_write(&self, ts: u64) {
        let mut g = self.inner.lock().unwrap();
        g.inflight.remove(&ts);
        g.finished.insert(ts);
        loop {
            let nv = g.last_visible + 1;
            if g.finished.remove(&nv) {
                g.last_visible = nv;
            } else {
                break;
            }
        }
        if g.pending_readers > 0 {
            // Both snapshot flavours park on in-flight tickets: plain
            // readers on eager ones, BEGIN on everything at or below its
            // clock reading.
            self.cv.notify_all();
        }
    }

    /// Fresh uncommitted-transaction marker.
    pub fn marker(&self) -> u64 {
        let mut g = self.inner.lock().unwrap();
        let m = TXN_BASE | g.next_marker;
        g.next_marker += 1;
        m
    }

    /// Oldest registered snapshot's read timestamp, or `None` when no
    /// snapshot is live — the vacuum horizon: garbage stamped `<= horizon`
    /// (or all garbage when `None`) is reclaimable.
    pub fn horizon(&self) -> Option<u64> {
        let g = self.inner.lock().unwrap();
        g.registry.snaps.keys().next().copied()
    }

    /// Age of the oldest registered snapshot, for metrics.
    pub fn oldest_snapshot_age_ms(&self) -> u64 {
        let g = self.inner.lock().unwrap();
        g.registry
            .snaps
            .values()
            .map(|(_, at)| at.elapsed().as_millis() as u64)
            .max()
            .unwrap_or(0)
    }

    /// Number of registered snapshots (tests / introspection).
    pub fn live_snapshots(&self) -> u64 {
        let g = self.inner.lock().unwrap();
        g.registry.snaps.values().map(|(n, _)| *n).sum()
    }

    /// Current published timestamp (tests / introspection).
    pub fn last_visible(&self) -> u64 {
        self.inner.lock().unwrap().last_visible
    }

    /// In-flight (started, unfinished) write timestamps with their eager
    /// flags (tests / introspection).
    pub fn inflight_debug(&self) -> Vec<(u64, bool)> {
        let g = self.inner.lock().unwrap();
        g.inflight.iter().map(|(&ts, &e)| (ts, e)).collect()
    }

    /// A timestamp at or above every write timestamp handed out so far —
    /// the conservative visibility floor stamped on rebuilt columnar
    /// stores (a rebuild's heap scan may include still-in-flight writes).
    pub fn current_floor(&self) -> u64 {
        self.inner.lock().unwrap().next
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commits_publish_in_timestamp_order() {
        let m = TxnManager::new();
        let a = m.start_write();
        let b = m.start_write();
        assert!(b.ts > a.ts);
        m.finish_write(b.ts);
        assert_eq!(m.last_visible(), 0, "b blocked behind in-flight a");
        m.finish_write(a.ts);
        assert_eq!(m.last_visible(), b.ts);
    }

    #[test]
    fn registry_forces_retain_mode() {
        let m = TxnManager::new();
        assert_eq!(m.start_write().mode, WriteMode::Eager);
        m.finish_write(1);
        let r = m.begin_snapshot();
        assert_eq!(r, 1);
        let t = m.start_write();
        assert_eq!(t.mode, WriteMode::Retain);
        m.finish_write(t.ts);
        assert!(m.release_snapshot(r));
        assert_eq!(m.horizon(), None);
    }

    #[test]
    fn snapshot_waits_for_eager_writer() {
        use std::sync::Arc;
        let m = Arc::new(TxnManager::new());
        let t = m.start_write();
        assert_eq!(t.mode, WriteMode::Eager);
        let m2 = m.clone();
        let h = std::thread::spawn(move || m2.begin_snapshot());
        std::thread::sleep(std::time::Duration::from_millis(30));
        m.finish_write(t.ts);
        let r = h.join().unwrap();
        assert_eq!(r, t.ts, "snapshot registered only after the eager write");
        m.release_snapshot(r);
    }

    #[test]
    fn visibility_rules() {
        let vis = Vis::snapshot(10);
        assert!(vis.sees(5, NO_END));
        assert!(vis.sees(10, NO_END));
        assert!(!vis.sees(11, NO_END), "born after the snapshot");
        assert!(!vis.sees(5, 10), "deleted at or before the snapshot");
        assert!(vis.sees(5, 11), "deleted after the snapshot");
        // markers: visible only to their own transaction
        let marker = TXN_BASE | 3;
        assert!(!vis.sees(marker, NO_END));
        let own = Vis { read_ts: 10, marker };
        assert!(own.sees(marker, NO_END));
        assert!(!own.sees(5, marker), "deleted by own transaction");
        assert!(own.sees(5, TXN_BASE | 4), "deleted by someone else's txn");
        // latest-committed sentinel: sees all committed, no markers
        assert!(Vis::LATEST.sees(999_999, NO_END));
        assert!(!Vis::LATEST.sees(marker, NO_END));
        assert!(Vis::LATEST.sees(5, TXN_BASE | 9));
    }
}
