//! Page storage with a buffer pool.
//!
//! A `Pager` owns all pages of one database, either purely in memory or
//! backed by a file with an LRU buffer pool of configurable capacity. The
//! pool is what lets the experiment harness reproduce the paper's two
//! regimes (§6): datasets smaller than the pool are CPU-bound with warm
//! caches; datasets larger than the pool become I/O-bound.
//!
//! All file I/O is positional (`read_exact_at` / `write_all_at`), so the
//! file lives outside the pool lock. A sequential scan of a table larger
//! than the pool uses that (DESIGN.md §24): `Pager::read_for_scan` copies
//! a resident page out under the shared lock, and reads any other page
//! from the file into the scan's own buffer with no lock held. The scan
//! neither fills the pool nor evicts from it. This is PostgreSQL's ring
//! buffer for large sequential scans, with a ring of zero frames. Tables
//! that fit the pool, and every point access, fault pages in as usual.
//!
//! Because modern OS page caches would hide most file latency at our
//! scaled-down sizes, the pager supports an optional *simulated* per-miss
//! latency (`io_delay`), calibrated by the harness to the paper's measured
//! 250–300 MB/s read bandwidth. This substitution is documented in
//! DESIGN.md; correctness never depends on it, only bench realism.

use crate::counters::{Entry, Sample};
use crate::error::{DbError, DbResult};
use crate::page::{self, PAGE_SIZE};
use crate::wal::Wal;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

pub type PageId = u64;

/// Counters exposed to benches and EXPLAIN ANALYZE-style reporting.
#[derive(Debug, Default)]
pub struct IoStats {
    pub disk_reads: AtomicU64,
    pub disk_writes: AtomicU64,
    pub cache_hits: AtomicU64,
    pub scan_reads: AtomicU64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IoSnapshot {
    pub disk_reads: u64,
    pub disk_writes: u64,
    pub cache_hits: u64,
    /// Pages a sequential scan read from the file past the pool, without
    /// inserting them: a subset of `disk_reads`.
    pub scan_reads: u64,
}

impl IoSnapshot {
    /// Every counter as `(group, name, value)` — the shape of a counter
    /// table's walk, so reports print both alike.
    pub fn walk(&self) -> Vec<Entry> {
        [
            ("disk_reads", self.disk_reads),
            ("disk_writes", self.disk_writes),
            ("cache_hits", self.cache_hits),
            ("scan_reads", self.scan_reads),
        ]
        .into_iter()
        .map(|(name, v)| ("pager", name, Sample::Int(v)))
        .collect()
    }
}

struct Frame {
    data: Box<[u8]>,
    /// Only mutated under the write lock; readers never look at it.
    dirty: bool,
    /// Dirtied by a statement whose WAL commit hasn't happened yet. Such
    /// frames are pinned against eviction (a *no-steal* policy): the data
    /// file must never see a page image that isn't in the log first.
    uncommitted: bool,
    /// LRU tick of last access. Atomic so shared-lock readers can bump it.
    last_used: AtomicU64,
}

impl Frame {
    fn new(data: Box<[u8]>, dirty: bool, uncommitted: bool, tick: u64) -> Frame {
        Frame { data, dirty, uncommitted, last_used: AtomicU64::new(tick) }
    }
}

struct Inner {
    /// Frames resident in memory. In memory-mode this holds *all* pages.
    frames: HashMap<PageId, Frame>,
    n_pages: u64,
}

/// The page manager. Resident-page reads take the pool lock *shared*, so
/// a parallel scan's workers read warm pages concurrently; only faults,
/// writes, and eviction take it exclusively.
pub struct Pager {
    inner: RwLock<Inner>,
    /// The data file; `None` in memory mode. Only positional reads and
    /// writes touch it, so it needs no lock of its own.
    file: Option<File>,
    /// Max resident frames in file mode; unlimited in memory mode.
    capacity: usize,
    tick: AtomicU64,
    stats: IoStats,
    io_delay: Option<Duration>,
    /// When true, mutations mark frames `uncommitted` until the owning
    /// statement's WAL commit drains them via
    /// [`Pager::take_uncommitted_images`].
    wal_mode: bool,
    /// Under group commit a frame's covering commit record may still be
    /// unsynced when the frame comes up for eviction; write-back forces
    /// the log down first so the data file never runs ahead of it.
    wal_hook: OnceLock<Arc<Wal>>,
}

impl Pager {
    fn new(file: Option<File>, n_pages: u64, capacity: usize) -> Pager {
        Pager {
            inner: RwLock::new(Inner { frames: HashMap::new(), n_pages }),
            file,
            capacity,
            tick: AtomicU64::new(0),
            stats: IoStats::default(),
            io_delay: None,
            wal_mode: false,
            wal_hook: OnceLock::new(),
        }
    }

    /// All pages live in memory; no eviction, no I/O.
    pub fn in_memory() -> Pager {
        Pager::new(None, 0, usize::MAX)
    }

    /// File-backed pager with an LRU pool of `pool_pages` frames.
    pub fn open(path: &Path, pool_pages: usize) -> DbResult<Pager> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        Ok(Pager::new(Some(file), 0, pool_pages.max(8)))
    }

    /// File-backed pager over an **existing** data file (the recovery
    /// path): nothing is truncated, and the first `n_pages` pages of the
    /// file are addressable immediately.
    pub fn open_existing(path: &Path, pool_pages: usize, n_pages: u64) -> DbResult<Pager> {
        let file =
            OpenOptions::new().read(true).write(true).create(true).truncate(false).open(path)?;
        Ok(Pager::new(Some(file), n_pages, pool_pages.max(8)))
    }

    /// Add a simulated latency per buffer-pool miss (read or write-back).
    pub fn with_io_delay(mut self, delay: Duration) -> Pager {
        self.io_delay = Some(delay);
        self
    }

    /// Enable WAL discipline: mutated frames are held as `uncommitted`
    /// (never evicted) until drained at the statement's commit point.
    pub fn with_wal_mode(mut self, on: bool) -> Pager {
        self.wal_mode = on;
        self
    }

    /// Attach the log so write-back can force any group-commit backlog to
    /// disk before a page image reaches the data file. Set once, right
    /// after the WAL is opened; a second call is ignored.
    pub fn set_wal(&self, wal: Arc<Wal>) {
        let _ = self.wal_hook.set(wal);
    }

    /// Frames the pool holds before it evicts (`usize::MAX` in memory).
    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// Allocate a fresh, zeroed, page-initialized page.
    pub fn alloc(&self) -> DbResult<PageId> {
        self.alloc_inner(true, self.wal_mode)
    }

    /// Allocate a raw (uninitialized-layout) page for jumbo chains.
    pub fn alloc_raw(&self) -> DbResult<PageId> {
        self.alloc_inner(false, self.wal_mode)
    }

    /// Allocate a raw page *outside* the WAL: used for derived structures
    /// (B-tree leaves) that recovery rebuilds from the heap instead of
    /// replaying, so their churn never bloats the log.
    pub fn alloc_raw_unlogged(&self) -> DbResult<PageId> {
        self.alloc_inner(false, false)
    }

    fn alloc_inner(&self, init: bool, uncommitted: bool) -> DbResult<PageId> {
        let mut inner = self.inner.write();
        let id = inner.n_pages;
        inner.n_pages += 1;
        let mut data = vec![0u8; PAGE_SIZE].into_boxed_slice();
        if init {
            page::init(&mut data);
        }
        let tick = self.next_tick();
        self.make_room(&mut inner)?;
        inner.frames.insert(id, Frame::new(data, true, uncommitted, tick));
        Ok(id)
    }

    fn next_tick(&self) -> u64 {
        self.tick.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// The resident frame of `id`, counted as a hit and touched for LRU,
    /// or `None` on a miss.
    fn hit<'i>(&self, inner: &'i Inner, id: PageId) -> DbResult<Option<&'i Frame>> {
        if id >= inner.n_pages {
            return Err(DbError::Io(format!("page {id} out of range")));
        }
        let Some(frame) = inner.frames.get(&id) else { return Ok(None) };
        self.stats.cache_hits.fetch_add(1, Ordering::Relaxed);
        frame.last_used.store(self.next_tick(), Ordering::Relaxed);
        Ok(Some(frame))
    }

    /// Read access to a page. Resident pages are served under the shared
    /// lock (concurrent readers never serialize); only a pool miss
    /// upgrades to the exclusive lock to fault the page in.
    pub fn with_page<R>(&self, id: PageId, f: impl FnOnce(&[u8]) -> R) -> DbResult<R> {
        {
            let inner = self.inner.read();
            if let Some(frame) = self.hit(&inner, id)? {
                return Ok(f(&frame.data));
            }
        }
        let mut inner = self.inner.write();
        self.fault_in(&mut inner, id)?;
        let tick = self.next_tick();
        let frame = inner.frames.get(&id).expect("faulted in");
        frame.last_used.store(tick, Ordering::Relaxed);
        Ok(f(&frame.data))
    }

    /// Copy page `id` into `buf`, a sequential scan's own page buffer.
    /// Without `past_pool` this is [`Pager::with_page`]. With it (the
    /// scanned table has more pages than the pool holds) a resident page
    /// is copied under the shared lock and any other page is read from
    /// the file with no lock held, never entering the pool.
    ///
    /// The file read is current only because the caller excludes every
    /// writer of the page (a heap scan holds its table's read guard): a
    /// frame leaves the pool only after its write-back, and an uncommitted
    /// frame never leaves it (no-steal), so a page that is not resident
    /// has its latest image in the file.
    pub(crate) fn read_for_scan(
        &self,
        id: PageId,
        buf: &mut [u8],
        past_pool: bool,
    ) -> DbResult<()> {
        if !past_pool {
            return self.with_page(id, |pg| buf.copy_from_slice(pg));
        }
        {
            let inner = self.inner.read();
            if let Some(frame) = self.hit(&inner, id)? {
                buf.copy_from_slice(&frame.data);
                return Ok(());
            }
        }
        self.read_file(id, buf)?;
        self.stats.scan_reads.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Write access to a page; marks it dirty (and, under WAL discipline,
    /// uncommitted until the statement's commit point drains it).
    pub fn with_page_mut<R>(&self, id: PageId, f: impl FnOnce(&mut [u8]) -> R) -> DbResult<R> {
        self.with_page_mut_inner(id, self.wal_mode, f)
    }

    /// Write access *outside* the WAL, for derived structures (B-tree
    /// leaves) that recovery rebuilds rather than replays.
    pub fn with_page_mut_unlogged<R>(
        &self,
        id: PageId,
        f: impl FnOnce(&mut [u8]) -> R,
    ) -> DbResult<R> {
        self.with_page_mut_inner(id, false, f)
    }

    fn with_page_mut_inner<R>(
        &self,
        id: PageId,
        uncommitted: bool,
        f: impl FnOnce(&mut [u8]) -> R,
    ) -> DbResult<R> {
        let mut inner = self.inner.write();
        self.fault_in(&mut inner, id)?;
        let tick = self.next_tick();
        let frame = inner.frames.get_mut(&id).expect("faulted in");
        *frame.last_used.get_mut() = tick;
        frame.dirty = true;
        frame.uncommitted |= uncommitted;
        Ok(f(&mut frame.data))
    }

    /// Drain the images of every uncommitted frame (sorted by page id for
    /// deterministic logs) and clear their flags — the statement commit
    /// point. The frames stay dirty and resident; once their images are
    /// in the log they become evictable again.
    pub fn take_uncommitted_images(&self) -> Vec<(PageId, Box<[u8]>)> {
        let mut inner = self.inner.write();
        let mut out: Vec<(PageId, Box<[u8]>)> = Vec::new();
        for (id, fr) in inner.frames.iter_mut() {
            if fr.uncommitted {
                fr.uncommitted = false;
                out.push((*id, fr.data.clone()));
            }
        }
        out.sort_unstable_by_key(|(id, _)| *id);
        out
    }

    /// Whether any frame carries changes not yet drained to a WAL commit
    /// — i.e. an errored statement left partial effects behind.
    pub fn has_uncommitted(&self) -> bool {
        self.inner.read().frames.values().any(|fr| fr.uncommitted)
    }

    pub fn n_pages(&self) -> u64 {
        self.inner.read().n_pages
    }

    /// Total size of the database in bytes (pages × page size).
    pub fn size_bytes(&self) -> u64 {
        self.n_pages() * PAGE_SIZE as u64
    }

    pub fn stats(&self) -> IoSnapshot {
        IoSnapshot {
            disk_reads: self.stats.disk_reads.load(Ordering::Relaxed),
            disk_writes: self.stats.disk_writes.load(Ordering::Relaxed),
            cache_hits: self.stats.cache_hits.load(Ordering::Relaxed),
            scan_reads: self.stats.scan_reads.load(Ordering::Relaxed),
        }
    }

    pub fn reset_stats(&self) {
        self.stats.disk_reads.store(0, Ordering::Relaxed);
        self.stats.disk_writes.store(0, Ordering::Relaxed);
        self.stats.cache_hits.store(0, Ordering::Relaxed);
        self.stats.scan_reads.store(0, Ordering::Relaxed);
    }

    /// Write back all dirty frames (no-op in memory mode).
    pub fn flush(&self) -> DbResult<()> {
        if self.file.is_none() {
            return Ok(());
        }
        let mut inner = self.inner.write();
        let ids: Vec<PageId> =
            inner.frames.iter().filter(|(_, fr)| fr.dirty).map(|(id, _)| *id).collect();
        for id in ids {
            self.write_back(&mut inner, id)?;
        }
        Ok(())
    }

    /// Write back all dirty frames and `fsync` the data file — the
    /// checkpoint barrier: after this returns, the log's history before
    /// the checkpoint is no longer needed.
    pub fn flush_and_sync(&self) -> DbResult<()> {
        self.flush()?;
        if let Some(file) = &self.file {
            file.sync_all()?;
        }
        Ok(())
    }

    /// Drop every clean frame and write back + drop dirty ones: simulates a
    /// cold cache for benchmarking. Uncommitted frames are skipped — the
    /// no-steal pin holds here too: an image whose statement hasn't
    /// committed must never reach the data file ahead of the WAL.
    pub fn evict_all(&self) -> DbResult<()> {
        if self.file.is_none() {
            return Ok(()); // memory mode: nothing to evict to
        }
        let mut inner = self.inner.write();
        let ids: Vec<PageId> = inner
            .frames
            .iter()
            .filter(|(_, fr)| !fr.uncommitted)
            .map(|(id, _)| *id)
            .collect();
        for id in ids {
            self.write_back(&mut inner, id)?;
            inner.frames.remove(&id);
        }
        Ok(())
    }

    fn fault_in(&self, inner: &mut Inner, id: PageId) -> DbResult<()> {
        if id >= inner.n_pages {
            return Err(DbError::Io(format!("page {id} out of range")));
        }
        if inner.frames.contains_key(&id) {
            self.stats.cache_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(());
        }
        let mut data = vec![0u8; PAGE_SIZE].into_boxed_slice();
        self.read_file(id, &mut data)?;
        let tick = self.next_tick();
        self.make_room(inner)?;
        inner.frames.insert(id, Frame::new(data, false, false, tick));
        Ok(())
    }

    /// Read page `id` from the data file, charging one disk read and the
    /// simulated latency.
    fn read_file(&self, id: PageId, buf: &mut [u8]) -> DbResult<()> {
        let Some(file) = &self.file else {
            return Err(DbError::Io(format!("page {id} evicted without backing file")));
        };
        // Pages past EOF (never written back) would fail here, but that
        // cannot happen: eviction always writes dirty pages and fresh
        // pages are dirty from birth.
        file.read_exact_at(buf, id * PAGE_SIZE as u64)?;
        self.stats.disk_reads.fetch_add(1, Ordering::Relaxed);
        if let Some(d) = self.io_delay {
            std::thread::sleep(d);
        }
        Ok(())
    }

    /// Make room for one more frame.
    fn make_room(&self, inner: &mut Inner) -> DbResult<()> {
        self.evict_down_to(inner, self.capacity - 1)
    }

    /// Evict LRU frames until the pool is back within capacity — the
    /// counterpart to the no-steal overflow: a statement that dirtied more
    /// pages than the pool holds calls this right after its WAL commit
    /// unpins them.
    pub fn shrink_to_capacity(&self) -> DbResult<()> {
        self.evict_down_to(&mut self.inner.write(), self.capacity)
    }

    /// Write back and drop least-recently-used frames until at most `keep`
    /// remain. No-steal: uncommitted frames are pinned (their images must
    /// reach the WAL before the data file may see them). If every frame is
    /// pinned the pool temporarily exceeds capacity; the statement's
    /// commit point unpins them all.
    fn evict_down_to(&self, inner: &mut Inner, keep: usize) -> DbResult<()> {
        while inner.frames.len() > keep {
            let victim = inner
                .frames
                .iter()
                .filter(|(_, fr)| !fr.uncommitted)
                .min_by_key(|(_, fr)| fr.last_used.load(Ordering::Relaxed))
                .map(|(id, _)| *id);
            let Some(victim) = victim else { return Ok(()) };
            self.write_back(inner, victim)?;
            inner.frames.remove(&victim);
        }
        Ok(())
    }

    /// Resident page ids, ascending.
    #[cfg(test)]
    pub(crate) fn resident(&self) -> Vec<PageId> {
        let mut ids: Vec<PageId> = self.inner.read().frames.keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    fn write_back(&self, inner: &mut Inner, id: PageId) -> DbResult<()> {
        let Some(file) = &self.file else { return Ok(()) };
        let Some(frame) = inner.frames.get_mut(&id).filter(|fr| fr.dirty) else {
            return Ok(());
        };
        // WAL-before-data: the commit covering this image may still sit in
        // the group-commit window; force it down before the page goes out.
        // (No-op when nothing is unsynced, so the common case is free.)
        if let Some(w) = self.wal_hook.get() {
            w.sync()?;
        }
        file.write_all_at(&frame.data, id * PAGE_SIZE as u64)?;
        self.stats.disk_writes.fetch_add(1, Ordering::Relaxed);
        if let Some(d) = self.io_delay {
            std::thread::sleep(d);
        }
        frame.dirty = false;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_mode_basics() {
        let p = Pager::in_memory();
        let a = p.alloc().unwrap();
        let b = p.alloc().unwrap();
        assert_ne!(a, b);
        p.with_page_mut(a, |pg| {
            page::insert(pg, b"data").unwrap();
        })
        .unwrap();
        let got = p.with_page(a, |pg| page::read(pg, 0).map(<[u8]>::to_vec)).unwrap();
        assert_eq!(got, Some(b"data".to_vec()));
        assert!(p.with_page(99, |_| ()).is_err());
    }

    #[test]
    fn file_mode_evicts_and_reloads() {
        let dir = std::env::temp_dir().join(format!("sinew-pager-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("test.db");
        let p = Pager::open(&path, 8).unwrap();
        let mut ids = Vec::new();
        for i in 0..64u64 {
            let id = p.alloc().unwrap();
            p.with_page_mut(id, |pg| {
                page::insert(pg, format!("tuple-{i}").as_bytes()).unwrap();
            })
            .unwrap();
            ids.push(id);
        }
        // far more pages than capacity: early ones must have been evicted
        let snap = p.stats();
        assert!(snap.disk_writes > 0, "evictions wrote back");
        for (i, id) in ids.iter().enumerate() {
            let got = p.with_page(*id, |pg| page::read(pg, 0).map(<[u8]>::to_vec)).unwrap();
            assert_eq!(got, Some(format!("tuple-{i}").into_bytes()));
        }
        assert!(p.stats().disk_reads > 0, "reload faulted pages in");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn flush_persists_dirty_pages() {
        let dir = std::env::temp_dir().join(format!("sinew-pager-f-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("test.db");
        let p = Pager::open(&path, 128).unwrap();
        let id = p.alloc().unwrap();
        p.with_page_mut(id, |pg| {
            page::insert(pg, b"persist-me").unwrap();
        })
        .unwrap();
        p.flush().unwrap();
        let len = std::fs::metadata(&path).unwrap().len();
        assert!(len >= PAGE_SIZE as u64);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn evict_all_honours_no_steal_pin() {
        let dir = std::env::temp_dir().join(format!("sinew-pager-ns-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let p = Pager::open(&dir.join("t.db"), 64).unwrap().with_wal_mode(true);
        let id = p.alloc().unwrap();
        p.with_page_mut(id, |pg| {
            page::insert(pg, b"pinned").unwrap();
        })
        .unwrap();
        assert!(p.has_uncommitted());
        // The image never reached a WAL commit: eviction must skip it —
        // no write to the data file, frame stays resident.
        p.evict_all().unwrap();
        assert_eq!(p.stats().disk_writes, 0);
        p.with_page(id, |_| ()).unwrap();
        assert_eq!(p.stats().disk_reads, 0, "served from the pinned frame");
        // Draining at the commit point unpins; eviction then writes back.
        let images = p.take_uncommitted_images();
        assert_eq!(images.len(), 1);
        assert!(!p.has_uncommitted());
        p.evict_all().unwrap();
        assert_eq!(p.stats().disk_writes, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn evict_all_simulates_cold_cache() {
        let dir = std::env::temp_dir().join(format!("sinew-pager-c-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let p = Pager::open(&dir.join("t.db"), 64).unwrap();
        let id = p.alloc().unwrap();
        p.with_page_mut(id, |pg| {
            page::insert(pg, b"x").unwrap();
        })
        .unwrap();
        p.evict_all().unwrap();
        p.reset_stats();
        p.with_page(id, |_| ()).unwrap();
        assert_eq!(p.stats().disk_reads, 1);
        std::fs::remove_dir_all(&dir).ok();
    }
}
