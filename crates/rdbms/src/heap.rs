//! Heap tables: unordered tuple storage over slotted pages.
//!
//! Rows get stable logical [`RowId`]s (like Postgres's `ctid`, but stable
//! across relocation) — Sinew's materializer iterates row-by-row performing
//! atomic single-row updates (paper §3.1.4), and the inverted text index
//! stores row ids in its postings (paper §4.3); both need ids that survive
//! an update that changes the tuple's size and therefore its physical home.
//!
//! Tuples larger than a page go to a *jumbo chain* of raw pages (a
//! bare-bones TOAST): the column reservoir can exceed 8 KiB for documents
//! with large nested objects.
//!
//! Free space is reused a whole page at a time (DESIGN.md §34). Tuples
//! are placed on the *tail* page until it is full. A data page that the
//! release of a version (vacuum, rollback, an eager update or delete)
//! leaves with no live slot joins the heap's free list, and when the tail
//! is full placement re-initialises a listed page and makes it the tail;
//! it allocates a page only when the list is empty. A dead slot's bytes
//! are never reused while its page holds a live one.
//!
//! A range scan reads pages, not tuples (DESIGN.md §24): it copies each
//! page once into its own buffer and serves every following row that lives
//! on that page from the copy, so the pool is consulted once per page. A
//! heap with more data pages than the pool holds is scanned past the pool
//! (`Pager::read_for_scan`): the scan neither fills nor flushes it. Point
//! reads (`get`, index fetches) go through the pool as before.
//!
//! A heap with a tagged column keeps a page synopsis (DESIGN.md §32): per
//! data page, a superset of the tags of every tuple version ever placed
//! on it, set where a tuple is placed and rebuilt from the pages, never
//! logged. A scan judges each page from its set alone (DESIGN.md §33): it
//! reads the page, skips its rows, or serves its visible rows without
//! their bytes.

use crate::error::{DbError, DbResult};
use crate::exec::ExecStats;
use crate::page::{self, MAX_INLINE_TUPLE, PAGE_SIZE};
use crate::pager::{PageId, Pager};
use crate::txn::{Vis, NO_END, TXN_BASE};
use crate::wal;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

pub type RowId = u64;

/// Maps stored bytes to the tags they carry: calls its sink once per tag,
/// and returns `false` when it cannot read the bytes (whatever holds them
/// then counts as holding every tag). A database registers one for a
/// column's values ([`crate::Database::register_tagger`]); a heap holds
/// one over whole tuples.
pub type Tagger = Arc<dyn Fn(&[u8], &mut dyn FnMut(u32)) -> bool + Send + Sync>;

/// Bits in a page's tag set: a tag folds into it modulo this.
pub const PAGE_TAG_BITS: usize = 1024;

/// A set of tags folded into [`PAGE_TAG_BITS`] bits: a page's synopsis, or
/// the tags a scan's expressions read a value through.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PageTags([u64; PAGE_TAG_BITS / 64]);

impl PageTags {
    /// Resident bytes of one page's set.
    pub const BYTES: u64 = (PAGE_TAG_BITS / 8) as u64;
    /// The set of a page holding a tuple its tagger could not read.
    pub const ALL: PageTags = PageTags([u64::MAX; PAGE_TAG_BITS / 64]);

    pub fn of(tags: impl IntoIterator<Item = u32>) -> PageTags {
        let mut set = PageTags::default();
        tags.into_iter().for_each(|t| set.insert(t));
        set
    }

    pub fn insert(&mut self, tag: u32) {
        let bit = tag as usize % PAGE_TAG_BITS;
        self.0[bit / 64] |= 1 << (bit % 64);
    }

    pub fn intersects(&self, other: &PageTags) -> bool {
        self.0.iter().zip(&other.0).any(|(a, b)| a & b != 0)
    }

    pub fn contains_all(&self, other: &PageTags) -> bool {
        self.0.iter().zip(&other.0).all(|(a, b)| a & b == *b)
    }

    /// The tags `tagger` reads from `bytes`, or [`PageTags::ALL`].
    fn read(tagger: &Tagger, bytes: &[u8]) -> PageTags {
        let mut set = PageTags::default();
        if tagger(bytes, &mut |t| set.insert(t)) {
            set
        } else {
            PageTags::ALL
        }
    }
}

/// A heap's page synopsis: per data page, a superset of the tags of every
/// tuple version placed on it since it was last re-initialised or the
/// synopsis rebuilt. Jumbo tuples live off the data pages and are always
/// read.
struct Synopsis {
    /// Tags of a whole tuple.
    tagger: Tagger,
    pages: HashMap<PageId, PageTags>,
    /// Holds the `synopsis_bytes` gauge.
    stats: Arc<ExecStats>,
}

impl Synopsis {
    fn note(&mut self, page: PageId, tuple: &[u8]) {
        let Synopsis { tagger, pages, stats } = self;
        let set = pages.entry(page).or_insert_with(|| {
            stats.synopsis_bytes.add(PageTags::BYTES);
            PageTags::default()
        });
        if !tagger(tuple, &mut |t| set.insert(t)) {
            *set = PageTags::ALL;
        }
    }

    /// Forget the tags of a page being re-initialised: no version is left
    /// on it.
    fn clear(&mut self, page: PageId) {
        if let Some(set) = self.pages.get_mut(&page) {
            *set = PageTags::default();
        }
    }
}

impl Drop for Synopsis {
    fn drop(&mut self) {
        self.stats.synopsis_bytes.sub(self.pages.len() as u64 * PageTags::BYTES);
    }
}

/// What a scan does with the rows of one page, judged from the page's
/// synopsis alone (DESIGN.md §33).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PageUse {
    /// Read the page and hand each visible row its bytes.
    Read,
    /// Pass over the page's rows.
    Skip,
    /// Hand each visible row to the scan without bytes; the page is not
    /// read.
    Serve,
}

/// The pages a range scan did not read.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PagesUnread {
    pub skipped: u64,
    pub served: u64,
}

#[derive(Debug, Clone)]
enum Loc {
    Slot { page: PageId, slot: u16, len: u32 },
    Jumbo { pages: Vec<PageId>, len: u32 },
}

/// A superseded row version retained for snapshot readers: its payload
/// stays at `loc` until vacuum reclaims it.
#[derive(Debug)]
struct OldVersion {
    begin: u64,
    end: u64,
    loc: Loc,
}

/// One table's tuple storage.
pub struct Heap {
    pager: Arc<Pager>,
    rows: Vec<Option<Loc>>,
    /// MVCC version headers, parallel to `rows`: `(begin_ts, end_ts)` of the
    /// *newest* version of each row.
    vmeta: Vec<(u64, u64)>,
    /// Superseded versions per row id, newest-first. Only Retain-mode and
    /// in-transaction writes chain; eager writes stay destructive.
    chains: HashMap<RowId, Vec<OldVersion>>,
    /// Row ids whose newest header carries an uncommitted marker.
    n_marker: u64,
    /// Row ids with a committed delete retained for old snapshots
    /// (physical reclamation pending vacuum).
    n_ended: u64,
    /// Highest committed begin timestamp ever stamped: scans with
    /// `read_ts >= max_begin` and no chains/markers/retained deletes can
    /// skip all per-row visibility checks (the serial fast path).
    max_begin: u64,
    /// Data pages in allocation order (jumbo pages excluded), listed ones
    /// included.
    pages: Vec<PageId>,
    /// The data page placements try first. Never on `free`.
    tail: Option<PageId>,
    /// Data pages that hold no live slot, most recently emptied last:
    /// placement re-initialises one before it allocates a page.
    free: Vec<PageId>,
    live_rows: u64,
    /// Pages consumed by jumbo chains, for size accounting.
    jumbo_pages: u64,
    /// Live tuple payload bytes, maintained incrementally on
    /// insert/update/delete so [`Heap::live_bytes`] is O(1) instead of a
    /// walk over every page. In-place overwrites need no adjustment:
    /// `page::overwrite` only succeeds at identical length.
    live: u64,
    /// WAL delta tracking: when on, every mutation records the rowids it
    /// touched and the data pages it appended, drained per statement into
    /// the commit record's metadata delta.
    wal_track: bool,
    wal_touched: Vec<RowId>,
    wal_new_pages: Vec<PageId>,
    /// The free list or the tail changed since the last delta record, so
    /// the next one carries them.
    wal_free_dirty: bool,
    /// Tags per data page, when the table has a tagged column.
    synopsis: Option<Synopsis>,
    /// Counts recycled pages and holds the synopsis gauge.
    stats: Arc<ExecStats>,
}

impl Heap {
    pub fn new(pager: Arc<Pager>, stats: Arc<ExecStats>) -> Heap {
        Heap {
            pager,
            rows: Vec::new(),
            vmeta: Vec::new(),
            chains: HashMap::new(),
            n_marker: 0,
            n_ended: 0,
            max_begin: 0,
            pages: Vec::new(),
            tail: None,
            free: Vec::new(),
            live_rows: 0,
            jumbo_pages: 0,
            live: 0,
            wal_track: false,
            wal_touched: Vec::new(),
            wal_new_pages: Vec::new(),
            wal_free_dirty: false,
            synopsis: None,
            stats,
        }
    }

    /// Turn on WAL delta tracking (file-backed databases with the log
    /// enabled). Off by default: in-memory heaps pay nothing.
    pub fn set_wal_track(&mut self, on: bool) {
        self.wal_track = on;
    }

    pub fn len(&self) -> u64 {
        self.live_rows
    }

    pub fn is_empty(&self) -> bool {
        self.live_rows == 0
    }

    /// Upper bound on row ids ever issued (scan iterates `0..high_water`).
    pub fn high_water(&self) -> u64 {
        self.rows.len() as u64
    }

    /// Pages owned by this table (data + jumbo).
    pub fn pages_used(&self) -> u64 {
        self.pages.len() as u64 + self.jumbo_pages
    }

    /// Data pages, and how many of them are on the free list.
    pub fn data_pages(&self) -> (u64, u64) {
        (self.pages.len() as u64, self.free.len() as u64)
    }

    pub fn bytes_used(&self) -> u64 {
        self.pages_used() * PAGE_SIZE as u64
    }

    /// Live tuple payload bytes (what a VACUUM FULL would keep) — the
    /// fair cross-system size metric for Table 3. O(1): the counter is
    /// maintained incrementally; [`Heap::live_bytes_walk`] is the
    /// from-scratch cross-check.
    pub fn live_bytes(&self) -> DbResult<u64> {
        Ok(self.live)
    }

    /// Recompute live payload bytes by walking every page — the original
    /// O(pages) implementation, kept as the oracle the incremental counter
    /// is asserted against in tests.
    pub fn live_bytes_walk(&self) -> DbResult<u64> {
        let mut total = 0u64;
        for &p in &self.pages {
            total += self.pager.with_page(p, page::live_bytes)? as u64;
        }
        for loc in self.rows.iter().flatten() {
            if let Loc::Jumbo { len, .. } = loc {
                total += *len as u64;
            }
        }
        Ok(total)
    }

    pub fn insert(&mut self, bytes: &[u8]) -> DbResult<RowId> {
        let loc = self.place(bytes)?;
        let rowid = self.rows.len() as RowId;
        self.rows.push(Some(loc));
        // Born at timestamp 0 (visible to everyone) until the writer
        // stamps it; eager writes never stamp — see `mark_begin`.
        self.vmeta.push((0, NO_END));
        self.live_rows += 1;
        if self.wal_track {
            self.wal_touched.push(rowid);
        }
        Ok(rowid)
    }

    /// Store a tuple version somewhere: the one placement point, so the
    /// page synopsis learns every tuple any write path places.
    fn place(&mut self, bytes: &[u8]) -> DbResult<Loc> {
        let loc = self.place_bytes(bytes)?;
        if let (Loc::Slot { page, .. }, Some(syn)) = (&loc, &mut self.synopsis) {
            syn.note(*page, bytes);
        }
        Ok(loc)
    }

    fn place_bytes(&mut self, bytes: &[u8]) -> DbResult<Loc> {
        let len = bytes.len() as u32;
        self.live += len as u64;
        if bytes.len() > MAX_INLINE_TUPLE {
            return self.place_jumbo(bytes);
        }
        // Inserts and relocations all go to the tail, so this is almost
        // always a hit.
        if let Some(tail) = self.tail {
            let placed = self.pager.with_page_mut(tail, |pg| {
                page::insert(pg, bytes).ok_or_else(|| page::is_empty(pg))
            })?;
            match placed {
                Ok(slot) => return Ok(Loc::Slot { page: tail, slot, len }),
                // A tail that emptied is listed as placement moves off it.
                Err(true) => self.free.push(tail),
                Err(false) => {}
            }
        }
        let id = self.new_tail()?;
        let slot = self
            .pager
            .with_page_mut(id, |pg| page::insert(pg, bytes))?
            .expect("fresh page fits any inline tuple");
        Ok(Loc::Slot { page: id, slot, len })
    }

    /// Make a fresh page the tail: a listed page re-initialised, or a new
    /// one. A listed page that holds a live slot is dropped from the list,
    /// never wiped.
    fn new_tail(&mut self) -> DbResult<PageId> {
        self.wal_free_dirty = true;
        while let Some(id) = self.free.pop() {
            let empty = self.pager.with_page_mut(id, |pg| {
                let empty = page::is_empty(pg);
                if empty {
                    page::init(pg);
                }
                empty
            })?;
            if empty {
                // Exact: no version is left on the page.
                if let Some(syn) = &mut self.synopsis {
                    syn.clear(id);
                }
                self.stats.heap_pages_recycled.inc();
                self.tail = Some(id);
                return Ok(id);
            }
        }
        let id = self.pager.alloc()?;
        self.pages.push(id);
        if self.wal_track {
            self.wal_new_pages.push(id);
        }
        self.tail = Some(id);
        Ok(id)
    }

    fn place_jumbo(&mut self, bytes: &[u8]) -> DbResult<Loc> {
        let mut pages = Vec::new();
        let mut off = 0;
        while off < bytes.len() {
            let id = self.pager.alloc_raw()?;
            let chunk = (bytes.len() - off).min(PAGE_SIZE);
            self.pager.with_page_mut(id, |pg| {
                pg[..chunk].copy_from_slice(&bytes[off..off + chunk]);
            })?;
            pages.push(id);
            off += chunk;
        }
        self.jumbo_pages += pages.len() as u64;
        Ok(Loc::Jumbo { pages, len: bytes.len() as u32 })
    }

    pub fn get(&self, rowid: RowId) -> DbResult<Option<Vec<u8>>> {
        self.get_vis(rowid, Vis::LATEST)
    }

    /// Fetch the version of `rowid` visible to `vis` (resolving through the
    /// chain when the newest version is too young or marker-stamped).
    pub fn get_vis(&self, rowid: RowId, vis: Vis) -> DbResult<Option<Vec<u8>>> {
        let mut out = Vec::new();
        Ok(self.get_vis_into(rowid, vis, &mut out)?.then_some(out))
    }

    /// [`Heap::get_vis`] into `out`, which a caller fetching many rows
    /// reuses: whether `vis` sees a version of `rowid`.
    pub fn get_vis_into(&self, rowid: RowId, vis: Vis, out: &mut Vec<u8>) -> DbResult<bool> {
        let loc = if self.fast_path_ok(vis) {
            self.rows.get(rowid as usize).and_then(Option::as_ref)
        } else {
            self.resolve_vis(rowid as usize, vis)
        };
        let Some(loc) = loc else { return Ok(false) };
        out.clear();
        self.fetch_into(loc, out)?;
        Ok(true)
    }

    fn fetch(&self, loc: &Loc) -> DbResult<Vec<u8>> {
        let mut out = Vec::new();
        self.fetch_into(loc, &mut out)?;
        Ok(out)
    }

    /// Append the tuple at `loc` to `out`.
    fn fetch_into(&self, loc: &Loc, out: &mut Vec<u8>) -> DbResult<()> {
        match loc {
            Loc::Slot { page, slot, .. } => self
                .pager
                .with_page(*page, |pg| slot_bytes(pg, *slot).map(|b| out.extend_from_slice(b)))?,
            Loc::Jumbo { pages, len } => {
                out.reserve(*len as usize);
                let mut remaining = *len as usize;
                for id in pages {
                    let chunk = remaining.min(PAGE_SIZE);
                    self.pager.with_page(*id, |pg| out.extend_from_slice(&pg[..chunk]))?;
                    remaining -= chunk;
                }
                Ok(())
            }
        }
    }

    /// Replace a row's bytes. In-place when the size is unchanged;
    /// otherwise the tuple relocates and keeps its row id. This is the
    /// "atomic update of that row (and only that row)" primitive of §3.1.4.
    pub fn update(&mut self, rowid: RowId, bytes: &[u8]) -> DbResult<()> {
        let Some(Some(loc)) = self.rows.get(rowid as usize).cloned() else {
            return Err(DbError::NotFound(format!("row {rowid}")));
        };
        if let Loc::Slot { page, slot, .. } = &loc {
            if bytes.len() <= MAX_INLINE_TUPLE {
                let done = self
                    .pager
                    .with_page_mut(*page, |pg| page::overwrite(pg, *slot, bytes))?;
                if done {
                    // Same length, perhaps not the same tags.
                    if let Some(syn) = &mut self.synopsis {
                        syn.note(*page, bytes);
                    }
                    return Ok(());
                }
            }
        }
        self.release(&loc)?;
        let new_loc = self.place(bytes)?;
        self.rows[rowid as usize] = Some(new_loc);
        if self.wal_track {
            self.wal_touched.push(rowid);
        }
        Ok(())
    }

    pub fn delete(&mut self, rowid: RowId) -> DbResult<bool> {
        let Some(slot_ref) = self.rows.get_mut(rowid as usize) else {
            return Ok(false);
        };
        let Some(loc) = slot_ref.take() else {
            return Ok(false);
        };
        self.release(&loc)?;
        self.live_rows -= 1;
        if self.wal_track {
            self.wal_touched.push(rowid);
        }
        Ok(true)
    }

    fn release(&mut self, loc: &Loc) -> DbResult<()> {
        match loc {
            Loc::Slot { page, slot, len } => {
                let emptied = self
                    .pager
                    .with_page_mut(*page, |pg| page::delete(pg, *slot) && page::is_empty(pg))?;
                self.live -= *len as u64;
                if emptied && self.tail != Some(*page) {
                    self.free.push(*page);
                    self.wal_free_dirty = true;
                }
            }
            Loc::Jumbo { pages, len } => {
                // Chain pages are abandoned (no free-list); size accounting
                // keeps counting them, mirroring table bloat before VACUUM —
                // but the *payload* is gone, so live bytes drop.
                let _ = pages;
                self.live -= *len as u64;
            }
        }
        Ok(())
    }

    /// Visit every latest-committed row in row-id order. The callback
    /// returns `false` to stop early (LIMIT push-down).
    pub fn scan(&self, mut f: impl FnMut(RowId, &[u8]) -> DbResult<bool>) -> DbResult<()> {
        let read = |rowid, bytes: Option<&[u8]>| match bytes {
            Some(bytes) => f(rowid, bytes),
            None => unreachable!("a scan without a judge reads every page"),
        };
        let mut page = vec![0u8; PAGE_SIZE];
        self.scan_range_vis(0, self.high_water(), Vis::LATEST, &mut page, None, read).map(|_| ())
    }

    /// Visibility-filtered range scan: each row's location comes straight
    /// from the row directory while no version state is outstanding, and
    /// through its version chain otherwise. Rows that share a page share
    /// one page read into `page`, the caller's `PAGE_SIZE` buffer. The
    /// copy is trusted for this call only, which the caller's table read
    /// guard keeps current (no `&mut Heap` can exist meanwhile): a call
    /// reads its first page again, whatever `page` holds.
    ///
    /// With a synopsis, `judge` decides from a page's tag set what the
    /// scan does with its rows ([`PageUse`]), once per page change, as the
    /// page read is: a skipped page's rows are passed over and a served
    /// page's visible rows reach `f` without bytes, neither page being
    /// read, in the pool or past it. A page the synopsis has never seen,
    /// and a jumbo tuple, are read. Returns the pages not read.
    pub fn scan_range_vis(
        &self,
        start: RowId,
        end: RowId,
        vis: Vis,
        page: &mut [u8],
        mut judge: Option<&mut dyn FnMut(&PageTags) -> PageUse>,
        mut f: impl FnMut(RowId, Option<&[u8]>) -> DbResult<bool>,
    ) -> DbResult<PagesUnread> {
        let lo = (start as usize).min(self.rows.len());
        let hi = (end as usize).min(self.rows.len());
        let fast = self.fast_path_ok(vis);
        let mut pages = ScanPage::new(&self.pager, self.pages.len() > self.pager.capacity(), page);
        let sets = self.synopsis.as_ref().map(|syn| &syn.pages).filter(|_| judge.is_some());
        // The page decided last, and what its rows get.
        let mut decided: Option<(PageId, PageUse)> = None;
        let mut unread = PagesUnread::default();
        for rowid in lo..hi {
            let loc = if fast { self.rows[rowid].as_ref() } else { self.resolve_vis(rowid, vis) };
            let jumbo;
            let bytes = match loc {
                None => continue,
                Some(Loc::Slot { page, slot, .. }) => {
                    let usage = match (decided, sets, judge.as_mut()) {
                        (Some((p, usage)), ..) if p == *page => usage,
                        (_, Some(sets), Some(judge)) => {
                            let usage = sets.get(page).map_or(PageUse::Read, judge);
                            unread.skipped += (usage == PageUse::Skip) as u64;
                            unread.served += (usage == PageUse::Serve) as u64;
                            decided = Some((*page, usage));
                            usage
                        }
                        _ => PageUse::Read,
                    };
                    match usage {
                        PageUse::Read => Some(slot_bytes(pages.read(*page)?, *slot)?),
                        PageUse::Skip => continue,
                        PageUse::Serve => None,
                    }
                }
                Some(loc) => {
                    jumbo = self.fetch(loc)?;
                    Some(jumbo.as_slice())
                }
            };
            if !f(rowid as RowId, bytes)? {
                break;
            }
        }
        Ok(unread)
    }

    // ---- page synopsis ----

    /// Tag every tuple this heap places with `tagger`, or stop keeping a
    /// synopsis (`None`). Either way the old synopsis goes; a new one is
    /// built from every live slot of every data page, chained versions
    /// included.
    pub fn set_tagger(&mut self, tagger: Option<Tagger>) -> DbResult<()> {
        self.synopsis = None;
        let Some(tagger) = tagger else { return Ok(()) };
        let mut syn = Synopsis { tagger, pages: HashMap::new(), stats: self.stats.clone() };
        let mut buf = vec![0u8; PAGE_SIZE];
        let past_pool = self.pages.len() > self.pager.capacity();
        let mut pages = ScanPage::new(&self.pager, past_pool, &mut buf);
        for &id in &self.pages {
            let pg = pages.read(id)?;
            for slot in 0..page::nslots(pg) as u16 {
                if let Some(tuple) = page::read(pg, slot) {
                    syn.note(id, tuple);
                }
            }
        }
        self.synopsis = Some(syn);
        Ok(())
    }

    /// Bytes the page synopsis holds in memory (0 without one).
    pub fn synopsis_bytes(&self) -> u64 {
        self.synopsis.as_ref().map_or(0, |s| s.pages.len() as u64 * PageTags::BYTES)
    }

    /// Audit: every tag of every live tuple on every data page, chained
    /// versions included, is in that page's set. `Ok` without a synopsis.
    pub fn check_synopsis(&self) -> DbResult<()> {
        let Some(syn) = &self.synopsis else { return Ok(()) };
        for &id in &self.pages {
            let set = syn.pages.get(&id).copied().unwrap_or_default();
            self.pager.with_page(id, |pg| {
                for slot in 0..page::nslots(pg) as u16 {
                    let Some(tuple) = page::read(pg, slot) else { continue };
                    let tags = PageTags::read(&syn.tagger, tuple);
                    if !set.contains_all(&tags) {
                        return Err(DbError::Eval(format!(
                            "page synopsis: page {id} slot {slot} carries tags its page lacks"
                        )));
                    }
                }
                Ok(())
            })??;
        }
        Ok(())
    }

    /// Audit of the free list (DESIGN.md §34): each listed page is a data
    /// page, listed once, holding no live slot, and named by no location
    /// in the row directory or in any version chain; the tail is a data
    /// page and is not listed; and every live slot on a data page is named
    /// by some location, so no page keeps a version nothing can release.
    pub fn check_free_list(&self) -> DbResult<()> {
        let bad = |what: String| Err(DbError::Eval(format!("free list: {what}")));
        let data: HashSet<PageId> = self.pages.iter().copied().collect();
        let mut listed = HashSet::new();
        for &id in &self.free {
            if !data.contains(&id) || !listed.insert(id) {
                return bad(format!("page {id} is listed twice or is not a data page"));
            }
            if !self.pager.with_page(id, page::is_empty)? {
                return bad(format!("listed page {id} holds a live slot"));
            }
        }
        if let Some(tail) = self.tail {
            if listed.contains(&tail) || !data.contains(&tail) {
                return bad(format!("tail page {tail} is listed or is not a data page"));
            }
        }
        let chained = self.chains.values().flatten().map(|v| &v.loc);
        let locs = self.rows.iter().flatten().chain(chained);
        let named: HashSet<(PageId, u16)> = locs.filter_map(slot_of).collect();
        if let Some((page, slot)) = named.iter().find(|(page, _)| listed.contains(page)) {
            return bad(format!("listed page {page} holds slot {slot} of a version"));
        }
        for &id in &self.pages {
            let unnamed =
                |pg: &[u8]| (0..page::nslots(pg) as u16).find(|&s| live_unnamed(pg, id, s, &named));
            if let Some(slot) = self.pager.with_page(id, unnamed)? {
                return bad(format!("page {id} slot {slot} is live but no location names it"));
            }
        }
        Ok(())
    }

    // ---- MVCC version management ----
    //
    // Version headers live in `vmeta` (parallel to `rows`); superseded
    // versions chain in `chains`, newest-first. Eager-mode writes bypass
    // all of this (they mutate via the legacy `update`/`delete` above,
    // which is correct because the TxnManager guarantees no snapshot
    // coexists with an eager statement). Only Retain-mode statements and
    // explicit transactions stamp timestamps and chain versions.

    /// Recovery: drop all version state, treating every present row as
    /// committed at timestamp 0 (the log holds only the committed view).
    /// The versions that were chained or delete-marked at the crash are
    /// then named by no location, but their slots are still live on the
    /// recovered pages: release them, list each data page that leaves
    /// empty, and recount the live bytes from the directory. The pages are
    /// changed outside the log; the next recovery releases the same slots
    /// again until a logged image carries the change.
    pub fn reset_versions(&mut self) -> DbResult<()> {
        self.vmeta = vec![(0, NO_END); self.rows.len()];
        self.chains.clear();
        self.n_marker = 0;
        self.n_ended = 0;
        self.max_begin = 0;
        let named_bytes = self.rows.iter().flatten().map(|loc| match loc {
            Loc::Slot { len, .. } | Loc::Jumbo { len, .. } => *len as u64,
        });
        let named_bytes = named_bytes.sum();
        if std::mem::replace(&mut self.live, named_bytes) == named_bytes {
            return Ok(()); // no unnamed slot holds a byte
        }
        let named: HashSet<(PageId, u16)> = self.rows.iter().flatten().filter_map(slot_of).collect();
        for &id in &self.pages {
            let emptied = self.pager.with_page_mut_unlogged(id, |pg| {
                let mut released = false;
                for slot in 0..page::nslots(pg) as u16 {
                    if live_unnamed(pg, id, slot, &named) {
                        released |= page::delete(pg, slot);
                    }
                }
                released && page::is_empty(pg)
            })?;
            // A page that held a live slot was not listed.
            if emptied && self.tail != Some(id) {
                self.free.push(id);
            }
        }
        Ok(())
    }

    /// Any state a plain latest-committed scan cannot ignore?
    pub fn needs_vis(&self) -> bool {
        !self.chains.is_empty() || self.n_marker > 0 || self.n_ended > 0
    }

    /// Can `vis` scan the raw row directory without per-row checks?
    /// Requires no chains/markers/retained deletes *and* a read timestamp
    /// past every stamped begin (a younger snapshot must not see rows
    /// committed after it registered).
    #[inline]
    fn fast_path_ok(&self, vis: Vis) -> bool {
        !self.needs_vis() && vis.read_ts >= self.max_begin
    }

    /// `(begin, end)` of the newest version of `rowid`.
    pub fn version_meta(&self, rowid: RowId) -> (u64, u64) {
        self.vmeta.get(rowid as usize).copied().unwrap_or((0, NO_END))
    }

    /// Is the heap entirely version-quiet from `vis`'s point of view — no
    /// chains, markers, or retained deletes, and nothing committed past its
    /// read timestamp? Index probes are only trusted in this state; any
    /// version activity sends readers back to visibility-checked scans.
    pub fn vis_quiet(&self, vis: Vis) -> bool {
        self.fast_path_ok(vis)
    }

    /// Did the commit at `ts` supersede a version of `rowid` that is still
    /// chained (so its reclamation must wait for the vacuum horizon)?
    pub fn superseded_at(&self, rowid: RowId, ts: u64) -> bool {
        self.chains.get(&rowid).and_then(|c| c.first()).is_some_and(|v| v.end == ts)
    }

    /// Walk newest-version header then the chain for the version `vis` sees.
    fn resolve_vis(&self, rowid: usize, vis: Vis) -> Option<&Loc> {
        let loc = self.rows.get(rowid)?.as_ref()?;
        let (begin, end) = self.vmeta.get(rowid).copied().unwrap_or((0, NO_END));
        if vis.sees_begin(begin) {
            if vis.sees_end(end) {
                return None;
            }
            return Some(loc);
        }
        for v in self.chains.get(&(rowid as RowId))? {
            if vis.sees(v.begin, v.end) {
                return Some(&v.loc);
            }
        }
        None
    }

    fn is_marker(ts: u64) -> bool {
        ts >= TXN_BASE && ts != NO_END
    }

    fn meta_flags(m: (u64, u64)) -> (bool, bool) {
        let marker = Self::is_marker(m.0) || Self::is_marker(m.1);
        let ended = m.1 != NO_END && !Self::is_marker(m.1);
        (marker, ended)
    }

    /// All vmeta mutations funnel here so the marker/ended counters and
    /// `max_begin` stay exact.
    fn set_meta(&mut self, rowid: usize, new: (u64, u64)) {
        let old = self.vmeta[rowid];
        let (om, oe) = Self::meta_flags(old);
        let (nm, ne) = Self::meta_flags(new);
        if om != nm {
            if nm { self.n_marker += 1 } else { self.n_marker -= 1 }
        }
        if oe != ne {
            if ne { self.n_ended += 1 } else { self.n_ended -= 1 }
        }
        if !Self::is_marker(new.0) && new.0 > self.max_begin {
            self.max_begin = new.0;
        }
        self.vmeta[rowid] = new;
    }

    /// Stamp a freshly inserted row's begin timestamp (real commit ts for
    /// Retain statements, marker for transactions). Eager inserts skip
    /// this: begin 0 is already correct for every future snapshot.
    pub fn mark_begin(&mut self, rowid: RowId, ts: u64) {
        self.set_meta(rowid as usize, (ts, NO_END));
    }

    /// Install a new version at a fresh location, chaining the old one for
    /// snapshot readers. The row id is stable; the superseded bytes stay
    /// until vacuum.
    pub fn update_versioned(&mut self, rowid: RowId, bytes: &[u8], ts: u64) -> DbResult<()> {
        let Some(Some(old_loc)) = self.rows.get(rowid as usize).cloned() else {
            return Err(DbError::NotFound(format!("row {rowid}")));
        };
        let (old_begin, _) = self.vmeta[rowid as usize];
        let new_loc = self.place(bytes)?;
        self.chains
            .entry(rowid)
            .or_default()
            .insert(0, OldVersion { begin: old_begin, end: ts, loc: old_loc });
        self.rows[rowid as usize] = Some(new_loc);
        self.set_meta(rowid as usize, (ts, NO_END));
        if self.wal_track {
            self.wal_touched.push(rowid);
        }
        Ok(())
    }

    /// Logical delete: stamp the end timestamp, keep the bytes for older
    /// snapshots. Physical reclamation happens at vacuum.
    pub fn delete_mark(&mut self, rowid: RowId, ts: u64) -> DbResult<bool> {
        let Some(Some(_)) = self.rows.get(rowid as usize) else {
            return Ok(false);
        };
        let (begin, end) = self.vmeta[rowid as usize];
        if end != NO_END {
            // Already dead (a racing delete won); don't double-count.
            return Ok(false);
        }
        self.set_meta(rowid as usize, (begin, ts));
        self.live_rows -= 1;
        if self.wal_track {
            self.wal_touched.push(rowid);
        }
        Ok(true)
    }

    /// Rollback of an in-transaction insert: the row never existed.
    pub fn undo_insert(&mut self, rowid: RowId) -> DbResult<()> {
        if let Some(loc) = self.rows.get_mut(rowid as usize).and_then(Option::take) {
            self.release(&loc)?;
            self.live_rows -= 1;
            self.set_meta(rowid as usize, (0, NO_END));
            if self.wal_track {
                self.wal_touched.push(rowid);
            }
        }
        Ok(())
    }

    /// Rollback of an in-transaction update: pop the newest chained
    /// version back into place and free the uncommitted one.
    pub fn undo_update(&mut self, rowid: RowId) -> DbResult<()> {
        let old = {
            let chain = self
                .chains
                .get_mut(&rowid)
                .ok_or_else(|| DbError::Io(format!("undo: row {rowid} has no chain")))?;
            let old = chain.remove(0);
            if chain.is_empty() {
                self.chains.remove(&rowid);
            }
            old
        };
        if let Some(cur) = self.rows.get_mut(rowid as usize).and_then(Option::take) {
            self.release(&cur)?;
        }
        self.rows[rowid as usize] = Some(old.loc);
        self.set_meta(rowid as usize, (old.begin, NO_END));
        if self.wal_track {
            self.wal_touched.push(rowid);
        }
        Ok(())
    }

    /// Rollback of an in-transaction delete: clear the end marker.
    pub fn undo_delete(&mut self, rowid: RowId) -> DbResult<()> {
        let (begin, _) = self.vmeta[rowid as usize];
        self.set_meta(rowid as usize, (begin, NO_END));
        self.live_rows += 1;
        if self.wal_track {
            self.wal_touched.push(rowid);
        }
        Ok(())
    }

    /// COMMIT: rewrite this row's marker timestamps to the real commit
    /// timestamp, in the newest header and throughout the chain. Versions
    /// both born and dead inside the transaction (begin == end == marker)
    /// were never visible to anyone and are freed immediately; returns how
    /// many were.
    pub fn patch_commit(&mut self, rowid: RowId, marker: u64, commit_ts: u64) -> DbResult<u64> {
        let (b, e) = self.vmeta[rowid as usize];
        let nb = if b == marker { commit_ts } else { b };
        let ne = if e == marker { commit_ts } else { e };
        self.set_meta(rowid as usize, (nb, ne));
        let mut freed = 0u64;
        if let Some(mut chain) = self.chains.remove(&rowid) {
            let mut kept = Vec::with_capacity(chain.len());
            for mut v in chain.drain(..) {
                if v.begin == marker && v.end == marker {
                    self.release(&v.loc)?;
                    freed += 1;
                    continue;
                }
                if v.begin == marker {
                    v.begin = commit_ts;
                }
                if v.end == marker {
                    v.end = commit_ts;
                }
                kept.push(v);
            }
            if !kept.is_empty() {
                self.chains.insert(rowid, kept);
            }
        }
        Ok(freed)
    }

    /// Bytes of the committed version this transaction superseded (the
    /// deepest chain entry it ended), or the current bytes when the
    /// transaction only delete-marked the row. Callers use this at COMMIT
    /// to compute old index keys; never called for self-inserted rows.
    pub fn pretxn_bytes(&self, rowid: RowId, marker: u64) -> DbResult<Option<Vec<u8>>> {
        if let Some(chain) = self.chains.get(&rowid) {
            let mut pre: Option<&OldVersion> = None;
            for v in chain {
                // Entries this transaction chained form a newest-first
                // prefix, each with end == marker.
                if v.end != marker {
                    break;
                }
                pre = Some(v);
            }
            if let Some(v) = pre {
                return self.fetch(&v.loc).map(Some);
            }
        }
        let Some(Some(loc)) = self.rows.get(rowid as usize) else {
            return Ok(None);
        };
        self.fetch(loc).map(Some)
    }

    /// Vacuum: physically remove a row whose committed delete has passed
    /// the snapshot horizon (`live_rows` was already decremented at
    /// delete-mark time). Also used at COMMIT to cancel a row the
    /// transaction both inserted and deleted.
    pub fn physical_delete_retained(&mut self, rowid: RowId) -> DbResult<bool> {
        let Some(loc) = self.rows.get_mut(rowid as usize).and_then(Option::take) else {
            return Ok(false);
        };
        self.release(&loc)?;
        self.set_meta(rowid as usize, (0, NO_END));
        if self.wal_track {
            self.wal_touched.push(rowid);
        }
        Ok(true)
    }

    /// Vacuum: free the oldest retained version of `rowid` (chains are
    /// newest-first, so the tail) if it ended at or before `floor` — the
    /// version itself says whether a snapshot can still read it, so a
    /// reclamation request that outlived its version frees nothing else.
    pub fn vacuum_chain_tail(&mut self, rowid: RowId, floor: u64) -> DbResult<bool> {
        let Some(chain) = self.chains.get_mut(&rowid) else {
            return Ok(false);
        };
        let Some(old) = chain.pop_if(|v| v.end <= floor) else {
            return Ok(false);
        };
        if chain.is_empty() {
            self.chains.remove(&rowid);
        }
        self.release(&old.loc)?;
        Ok(true)
    }

    /// Is the newest version of `rowid` visible in the latest-committed
    /// view? (False for marker-stamped rows and retained deletes.) WAL
    /// records encode only this committed view: recovery must not
    /// resurrect retained-deleted rows or uncommitted versions.
    fn committed_visible(&self, rowid: usize) -> bool {
        let (b, e) = self.vmeta.get(rowid).copied().unwrap_or((0, NO_END));
        !Self::is_marker(b) && (e == NO_END || Self::is_marker(e))
    }

    // ---- WAL metadata codecs ----
    //
    // The WAL logs page *images*; what a page image cannot restore is the
    // in-memory row directory (rowid → Loc), page list, free list and
    // tail. These codecs serialize exactly that: a full snapshot for
    // checkpoint records (tag 0) and a per-statement delta for commit
    // records (tag 1). Kept inside heap.rs so `Loc` stays private.

    const WAL_FULL: u8 = 0;
    const WAL_DELTA: u8 = 1;

    /// Serialize the complete directory (checkpoint snapshots).
    pub fn wal_encode_full(&self, out: &mut Vec<u8>) {
        out.push(Self::WAL_FULL);
        wal::put_u64(out, self.rows.len() as u64);
        for (rowid, loc) in self.rows.iter().enumerate() {
            let committed = if self.committed_visible(rowid) { loc.as_ref() } else { None };
            put_loc(out, committed);
        }
        wal::put_u32(out, self.pages.len() as u32);
        for &p in &self.pages {
            wal::put_u64(out, p);
        }
        self.encode_tail(out, true);
    }

    /// Whether mutations were recorded since the last drain — an errored
    /// statement checks this to decide if partial effects need their own
    /// WAL commit unit.
    pub fn wal_has_delta(&self) -> bool {
        !self.wal_touched.is_empty() || !self.wal_new_pages.is_empty()
    }

    /// Serialize and clear the changes recorded since the last drain
    /// (commit-record deltas). Rowids are deduplicated; each encodes its
    /// *final* post-statement Loc.
    pub fn wal_drain_delta(&mut self, out: &mut Vec<u8>) {
        out.push(Self::WAL_DELTA);
        let mut touched = std::mem::take(&mut self.wal_touched);
        touched.sort_unstable();
        touched.dedup();
        wal::put_u32(out, touched.len() as u32);
        for rowid in touched {
            wal::put_u64(out, rowid);
            let loc = if self.committed_visible(rowid as usize) {
                self.rows.get(rowid as usize).and_then(|l| l.as_ref())
            } else {
                None
            };
            put_loc(out, loc);
        }
        let new_pages = std::mem::take(&mut self.wal_new_pages);
        wal::put_u32(out, new_pages.len() as u32);
        for p in new_pages {
            wal::put_u64(out, p);
        }
        let with_free = std::mem::take(&mut self.wal_free_dirty);
        self.encode_tail(out, with_free);
    }

    /// Shared trailer: the free list and the tail when `with_free` (a
    /// checkpoint always, a delta when they changed since the last
    /// delta), then absolute scalars. Recovery keeps the list and tail of
    /// the last record that carries them; DESIGN.md §34 shows that each
    /// listed page's recovered image then holds no live slot. Scalars are
    /// logged absolutely rather than re-derived on replay — in particular
    /// `jumbo_pages` counts abandoned chains, which the final Locs alone
    /// cannot reconstruct.
    fn encode_tail(&self, out: &mut Vec<u8>, with_free: bool) {
        out.push(with_free as u8);
        if with_free {
            wal::put_u32(out, self.free.len() as u32);
            for &p in &self.free {
                wal::put_u64(out, p);
            }
            wal::put_u64(out, self.tail.unwrap_or(NO_TAIL));
        }
        wal::put_u64(out, self.live_rows);
        wal::put_u64(out, self.live);
        wal::put_u64(out, self.jumbo_pages);
    }

    /// Apply one encoded record (full or delta) during recovery. Records
    /// must be applied in log order onto a heap created by [`Heap::new`].
    pub fn wal_apply(&mut self, r: &mut wal::Reader) -> DbResult<()> {
        match r.u8()? {
            Self::WAL_FULL => {
                let n = r.u64()? as usize;
                self.rows = Vec::with_capacity(n);
                for _ in 0..n {
                    self.rows.push(read_loc(r)?);
                }
                let np = r.u32()? as usize;
                self.pages = Vec::with_capacity(np);
                for _ in 0..np {
                    self.pages.push(r.u64()?);
                }
            }
            Self::WAL_DELTA => {
                let n = r.u32()? as usize;
                for _ in 0..n {
                    let rowid = r.u64()? as usize;
                    let loc = read_loc(r)?;
                    if rowid >= self.rows.len() {
                        self.rows.resize(rowid + 1, None);
                    }
                    self.rows[rowid] = loc;
                }
                let np = r.u32()? as usize;
                for _ in 0..np {
                    self.pages.push(r.u64()?);
                }
            }
            t => return Err(DbError::Io(format!("wal: unknown heap record tag {t}"))),
        }
        if r.u8()? != 0 {
            let nf = r.u32()? as usize;
            self.free = Vec::with_capacity(nf);
            for _ in 0..nf {
                self.free.push(r.u64()?);
            }
            self.tail = Some(r.u64()?).filter(|&p| p != NO_TAIL);
        }
        self.live_rows = r.u64()?;
        self.live = r.u64()?;
        self.jumbo_pages = r.u64()?;
        Ok(())
    }
}

/// The logged tail of a heap that has none.
const NO_TAIL: u64 = u64::MAX;

/// The `(page, slot)` a location names on a data page.
fn slot_of(loc: &Loc) -> Option<(PageId, u16)> {
    match loc {
        Loc::Slot { page, slot, .. } => Some((*page, *slot)),
        Loc::Jumbo { .. } => None,
    }
}

/// Is `slot` of page `id` (image `pg`) live, yet not among `named`?
fn live_unnamed(pg: &[u8], id: PageId, slot: u16, named: &HashSet<(PageId, u16)>) -> bool {
    page::read(pg, slot).is_some() && !named.contains(&(id, slot))
}

/// The tuple in `slot` of page image `pg`.
fn slot_bytes(pg: &[u8], slot: u16) -> DbResult<&[u8]> {
    page::read(pg, slot).ok_or_else(|| DbError::Io("dangling slot".into()))
}

/// The page a range scan last read, copied into the scan's buffer.
struct ScanPage<'p> {
    pager: &'p Pager,
    /// Read pages that are not resident past the pool.
    past_pool: bool,
    /// The page `buf` holds; none yet, whatever the buffer holds.
    id: Option<PageId>,
    buf: &'p mut [u8],
}

impl<'p> ScanPage<'p> {
    fn new(pager: &'p Pager, past_pool: bool, buf: &'p mut [u8]) -> ScanPage<'p> {
        ScanPage { pager, past_pool, id: None, buf }
    }

    /// The image of page `id`, read unless it is the page read last.
    fn read(&mut self, id: PageId) -> DbResult<&[u8]> {
        if self.id != Some(id) {
            self.pager.read_for_scan(id, self.buf, self.past_pool)?;
            self.id = Some(id);
        }
        Ok(&*self.buf)
    }
}

fn put_loc(out: &mut Vec<u8>, loc: Option<&Loc>) {
    match loc {
        None => out.push(0),
        Some(Loc::Slot { page, slot, len }) => {
            out.push(1);
            wal::put_u64(out, *page);
            wal::put_u32(out, *slot as u32);
            wal::put_u32(out, *len);
        }
        Some(Loc::Jumbo { pages, len }) => {
            out.push(2);
            wal::put_u32(out, pages.len() as u32);
            for &p in pages {
                wal::put_u64(out, p);
            }
            wal::put_u32(out, *len);
        }
    }
}

fn read_loc(r: &mut wal::Reader) -> DbResult<Option<Loc>> {
    Ok(match r.u8()? {
        0 => None,
        1 => {
            let page = r.u64()?;
            let slot = r.u32()? as u16;
            let len = r.u32()?;
            Some(Loc::Slot { page, slot, len })
        }
        2 => {
            let n = r.u32()? as usize;
            let mut pages = Vec::with_capacity(n);
            for _ in 0..n {
                pages.push(r.u64()?);
            }
            let len = r.u32()?;
            Some(Loc::Jumbo { pages, len })
        }
        t => return Err(DbError::Io(format!("wal: unknown loc tag {t}"))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn heap() -> Heap {
        Heap::new(Arc::new(Pager::in_memory()), Arc::new(ExecStats::default()))
    }

    #[test]
    fn insert_get_roundtrip() {
        let mut h = heap();
        let a = h.insert(b"alpha").unwrap();
        let b = h.insert(b"beta").unwrap();
        assert_eq!(h.get(a).unwrap(), Some(b"alpha".to_vec()));
        assert_eq!(h.get(b).unwrap(), Some(b"beta".to_vec()));
        assert_eq!(h.len(), 2);
        assert_eq!(h.get(99).unwrap(), None);
    }

    #[test]
    fn update_in_place_and_relocating() {
        let mut h = heap();
        let r = h.insert(b"12345").unwrap();
        h.update(r, b"abcde").unwrap(); // same size: in place
        assert_eq!(h.get(r).unwrap(), Some(b"abcde".to_vec()));
        h.update(r, b"a-much-longer-tuple").unwrap(); // relocates
        assert_eq!(h.get(r).unwrap(), Some(b"a-much-longer-tuple".to_vec()));
        assert_eq!(h.len(), 1);
    }

    #[test]
    fn delete_and_scan_order() {
        let mut h = heap();
        let ids: Vec<RowId> = (0..10).map(|i| h.insert(format!("r{i}").as_bytes()).unwrap()).collect();
        assert!(h.delete(ids[3]).unwrap());
        assert!(!h.delete(ids[3]).unwrap());
        let mut seen = Vec::new();
        h.scan(|rid, bytes| {
            seen.push((rid, String::from_utf8(bytes.to_vec()).unwrap()));
            Ok(true)
        })
        .unwrap();
        assert_eq!(seen.len(), 9);
        assert_eq!(seen[0], (0, "r0".to_string()));
        assert!(!seen.iter().any(|(rid, _)| *rid == 3));
    }

    #[test]
    fn scan_early_stop() {
        let mut h = heap();
        for i in 0..10 {
            h.insert(format!("{i}").as_bytes()).unwrap();
        }
        let mut count = 0;
        h.scan(|_, _| {
            count += 1;
            Ok(count < 4)
        })
        .unwrap();
        assert_eq!(count, 4);
    }

    #[test]
    fn jumbo_tuples_roundtrip() {
        let mut h = heap();
        let big: Vec<u8> = (0..40_000).map(|i| (i % 251) as u8).collect();
        let r = h.insert(&big).unwrap();
        assert_eq!(h.get(r).unwrap(), Some(big.clone()));
        assert!(h.pages_used() >= 5);
        // jumbo update relocates
        let big2: Vec<u8> = vec![7u8; 20_000];
        h.update(r, &big2).unwrap();
        assert_eq!(h.get(r).unwrap(), Some(big2));
    }

    #[test]
    fn many_rows_spill_across_pages() {
        let mut h = heap();
        let n = 5_000u64;
        for i in 0..n {
            h.insert(format!("row-number-{i:08}").as_bytes()).unwrap();
        }
        assert_eq!(h.len(), n);
        assert!(h.pages_used() > 5);
        assert_eq!(h.get(4_999).unwrap(), Some(b"row-number-00004999".to_vec()));
    }

    /// A file-backed heap of `rows` rows of about 200 bytes behind a pool
    /// of `pool` frames, all written back.
    fn file_heap(name: &str, pool: usize, rows: u64) -> (Heap, std::path::PathBuf) {
        let dir = std::env::temp_dir().join(format!("sinew-heap-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let pager = Arc::new(Pager::open(&dir.join("t.db"), pool).unwrap());
        let mut h = Heap::new(pager, Arc::new(ExecStats::default()));
        for i in 0..rows {
            h.insert(format!("row-{i:06}-{}", "p".repeat(190)).as_bytes()).unwrap();
        }
        h.pager.flush().unwrap();
        (h, dir)
    }

    fn scan_all(h: &Heap) -> Vec<(RowId, Vec<u8>)> {
        let mut out = Vec::new();
        h.scan(|rid, bytes| {
            out.push((rid, bytes.to_vec()));
            Ok(true)
        })
        .unwrap();
        out
    }

    /// A heap with more data pages than the pool is scanned past the pool:
    /// resident pages are read in place, the others from the file, and the
    /// pool's resident set is the same before and after.
    #[test]
    fn scan_of_a_table_larger_than_the_pool_leaves_the_pool_alone() {
        let (h, dir) = file_heap("large", 8, 1_500);
        assert!(h.pages.len() > 4 * h.pager.capacity(), "{} pages", h.pages.len());
        let resident = h.pager.resident();
        let absent = h.pages.iter().filter(|p| !resident.contains(p)).count() as u64;
        h.pager.reset_stats();
        let rows = scan_all(&h);
        assert_eq!(rows.len(), 1_500);
        assert!(rows.iter().all(|(rid, b)| b.starts_with(format!("row-{rid:06}-").as_bytes())));
        let io = h.pager.stats();
        assert_eq!((io.disk_reads, io.scan_reads), (absent, absent), "one read per absent page");
        assert_eq!(io.cache_hits, h.pages.len() as u64 - absent, "one hit per resident page");
        assert_eq!(h.pager.resident(), resident, "the scan neither filled nor evicted");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A heap that fits the pool is faulted in by its first scan, so the
    /// second reads nothing from the file.
    #[test]
    fn scan_of_a_table_that_fits_the_pool_faults_it_in() {
        let (h, dir) = file_heap("fits", 64, 500);
        assert!(h.pages.len() <= h.pager.capacity());
        h.pager.evict_all().unwrap();
        h.pager.reset_stats();
        let first = scan_all(&h);
        let io = h.pager.stats();
        assert_eq!((io.disk_reads, io.scan_reads), (h.pages.len() as u64, 0));
        h.pager.reset_stats();
        assert_eq!(scan_all(&h), first);
        assert_eq!(h.pager.stats().disk_reads, 0, "second scan served from the pool");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// With a tagger whose tags are a tuple's first byte, a scan that needs
    /// a tag skips the pages that never held it, and the audit holds after
    /// inserts, in-place overwrites, relocations and versioned updates.
    #[test]
    fn synopsis_skips_pages_without_the_tag() {
        let mut h = heap();
        for i in 0..2_000u64 {
            let tag = if i % 500 == 0 { b'x' } else { b'a' };
            h.insert(&[&[tag][..], &[b'.'; 99][..]].concat()).unwrap();
        }
        let stats = h.stats.clone();
        let first_byte: Tagger = Arc::new(|t: &[u8], sink: &mut dyn FnMut(u32)| {
            t.first().map(|&b| sink(b as u32)).is_some()
        });
        h.set_tagger(Some(first_byte)).unwrap();
        assert_eq!(stats.snapshot().synopsis_bytes, h.pages.len() as u64 * PageTags::BYTES);
        let need = PageTags::of([b'x' as u32]);
        let scan = |h: &Heap| {
            let (mut found, mut page) = (Vec::new(), [0; PAGE_SIZE]);
            let mut judge =
                |set: &PageTags| if set.intersects(&need) { PageUse::Read } else { PageUse::Skip };
            let unread = h
                .scan_range_vis(0, u64::MAX, Vis::LATEST, &mut page, Some(&mut judge), |rid, t| {
                    if t.expect("no page is served")[0] == b'x' {
                        found.push(rid);
                    }
                    Ok(true)
                })
                .unwrap();
            assert_eq!(unread.served, 0);
            (found, unread.skipped)
        };
        let (found, skipped) = scan(&h);
        assert_eq!(found, [0, 500, 1000, 1500]);
        assert_eq!(skipped, h.pages.len() as u64 - 4);
        // in place (same length), relocated (longer), and a new version
        h.update(100, &[&[b'x'][..], &[b','; 99][..]].concat()).unwrap();
        h.update(900, &[b'x'; 150]).unwrap();
        h.update_versioned(1_300, &[b'x'; 120], 5).unwrap();
        h.check_synopsis().unwrap();
        assert_eq!(scan(&h).0, [0, 100, 500, 900, 1000, 1300, 1500]);
        drop(h);
        assert_eq!(stats.snapshot().synopsis_bytes, 0, "the gauge returns what it held");
    }

    /// A served scan past the pool: the rows of pages that lack the tag
    /// reach the callback without bytes, and only the pages that hold it
    /// are read from the file.
    #[test]
    fn a_served_page_is_not_read_past_the_pool() {
        let dir = std::env::temp_dir().join(format!("sinew-heap-served-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let pager = Arc::new(Pager::open(&dir.join("t.db"), 8).unwrap());
        let mut h = Heap::new(pager, Arc::new(ExecStats::default()));
        for i in 0..2_000u64 {
            let tag = if i % 500 == 0 { b'x' } else { b'a' };
            h.insert(&[&[tag][..], &[b'.'; 199][..]].concat()).unwrap();
        }
        let first_byte: Tagger = Arc::new(|t: &[u8], sink: &mut dyn FnMut(u32)| {
            t.first().map(|&b| sink(b as u32)).is_some()
        });
        h.set_tagger(Some(first_byte)).unwrap();
        h.pager.flush().unwrap();
        assert!(h.pages.len() > 4 * h.pager.capacity(), "{} pages", h.pages.len());
        let page_of = |rid: usize| match &h.rows[rid] {
            Some(Loc::Slot { page, .. }) => *page,
            other => panic!("row {rid}: {other:?}"),
        };
        let tagged: HashSet<PageId> = [0, 500, 1_000, 1_500].map(page_of).into();
        let resident = h.pager.resident();
        let absent = tagged.iter().filter(|p| !resident.contains(p)).count() as u64;
        let need = PageTags::of([b'x' as u32]);
        let mut judge =
            |set: &PageTags| if set.intersects(&need) { PageUse::Read } else { PageUse::Serve };
        let (mut read, mut served, mut page) = (Vec::new(), Vec::new(), [0; PAGE_SIZE]);
        h.pager.reset_stats();
        let unread = h
            .scan_range_vis(0, u64::MAX, Vis::LATEST, &mut page, Some(&mut judge), |rid, t| {
                match t {
                    Some(t) => read.push((rid, t[0])),
                    None => served.push(rid),
                }
                Ok(true)
            })
            .unwrap();
        assert_eq!(read.len() + served.len(), 2_000);
        assert!(read.iter().all(|&(rid, _)| tagged.contains(&page_of(rid as usize))));
        assert!(served.iter().all(|&rid| !tagged.contains(&page_of(rid as usize))));
        let found: Vec<RowId> = read.iter().filter(|r| r.1 == b'x').map(|r| r.0).collect();
        assert_eq!(found, [0, 500, 1_000, 1_500]);
        assert_eq!(unread, PagesUnread { skipped: 0, served: h.pages.len() as u64 - 4 });
        let io = h.pager.stats();
        assert_eq!(io.disk_reads, absent, "only the pages holding the tag are read");
        assert_eq!(io.cache_hits, tagged.len() as u64 - absent);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A 100-byte tuple whose first byte is `tag`, distinct per `(i, round)`.
    fn tuple(tag: u8, i: u64, round: u64) -> Vec<u8> {
        let mut t = format!("{}{i:06}-{round:03}", tag as char).into_bytes();
        t.resize(100, b'.');
        t
    }

    fn page_of(h: &Heap, rid: RowId) -> PageId {
        match &h.rows[rid as usize] {
            Some(Loc::Slot { page, .. }) => *page,
            other => panic!("row {rid}: {other:?}"),
        }
    }

    fn recycled(h: &Heap) -> u64 {
        h.stats.snapshot().heap_pages_recycled
    }

    /// Each round relocates every row to a new version and vacuums the old
    /// ones, as a materializer pass does: from the second round on, the
    /// new versions fill the pages the last round emptied, so the heap
    /// stops growing. The free list and tail survive a directory record.
    #[test]
    fn versioned_rounds_with_vacuum_keep_the_heap_flat() {
        let mut h = heap();
        for i in 0..1_000 {
            h.insert(&tuple(b'a', i, 0)).unwrap();
        }
        let mut used = Vec::new();
        for round in 1..=5u64 {
            for rid in 0..1_000 {
                h.update_versioned(rid, &tuple(b'a', rid, round), round).unwrap();
            }
            h.check_free_list().unwrap();
            for rid in 0..1_000 {
                assert!(h.vacuum_chain_tail(rid, round).unwrap());
            }
            h.check_free_list().unwrap();
            used.push(h.pages_used());
        }
        assert!(used[1..].iter().all(|&u| u == used[1]), "pages per round: {used:?}");
        assert!(used[1] <= used[0] + 1, "pages per round: {used:?}");
        assert!(recycled(&h) >= 4 * (used[0] / 2 - 1), "{} pages recycled", recycled(&h));
        assert_eq!(h.live_bytes().unwrap(), h.live_bytes_walk().unwrap());
        let rows = scan_all(&h);
        assert!(rows.iter().all(|(rid, t)| *t == tuple(b'a', *rid, 5)));

        let mut record = Vec::new();
        h.wal_encode_full(&mut record);
        let mut back = Heap::new(h.pager.clone(), h.stats.clone());
        back.wal_apply(&mut wal::Reader::new(&record)).unwrap();
        assert_eq!((&back.free, back.tail), (&h.free, h.tail));
        back.check_free_list().unwrap();
        assert_eq!(scan_all(&back), rows);
    }

    /// Pages whose old versions a snapshot can still read are not
    /// recycled; the pages vacuum emptied are, and they alone.
    #[test]
    fn a_page_a_snapshot_can_read_is_not_recycled() {
        let mut h = heap();
        for i in 0..600 {
            h.insert(&tuple(b'a', i, 0)).unwrap();
        }
        let old_pages: Vec<PageId> = h.pages.clone();
        for rid in 0..600 {
            h.update_versioned(rid, &tuple(b'a', rid, 1), 5).unwrap();
        }
        // The snapshot at 4 reads the rows of the pages past the first
        // half; vacuum frees only the old versions of the others.
        let kept: HashSet<PageId> = old_pages[old_pages.len() / 2..].iter().copied().collect();
        let mut held = Vec::new();
        for rid in 0..600 {
            let Loc::Slot { page, .. } = h.chains[&rid][0].loc else { unreachable!() };
            if kept.contains(&page) {
                held.push(rid);
            } else {
                assert!(h.vacuum_chain_tail(rid, 5).unwrap());
            }
        }
        assert!(!held.is_empty() && held.len() < 600);
        let listed: HashSet<PageId> = h.free.iter().copied().collect();
        assert!(listed.is_disjoint(&kept));
        assert_eq!(listed.len(), old_pages.len() / 2, "every emptied page is listed");
        for i in 600..2_400 {
            h.insert(&tuple(b'b', i, 0)).unwrap();
        }
        h.check_free_list().unwrap();
        assert!(h.free.is_empty());
        assert_eq!(recycled(&h), listed.len() as u64);
        assert!((600..2_400).all(|rid| !kept.contains(&page_of(&h, rid))));
        for rid in held {
            assert_eq!(h.get_vis(rid, Vis::snapshot(4)).unwrap(), Some(tuple(b'a', rid, 0)));
        }
        assert!((0..600).all(|rid| h.get(rid).unwrap() == Some(tuple(b'a', rid, 1))));
    }

    /// A recycled page's tag set starts empty: once it holds one new
    /// tuple, its set is that tuple's tags alone, and a scan for the tag
    /// the page held before skips it.
    #[test]
    fn a_recycled_page_forgets_its_tags() {
        let mut h = heap();
        let first_byte: Tagger = Arc::new(|t: &[u8], sink: &mut dyn FnMut(u32)| {
            t.first().map(|&b| sink(b as u32)).is_some()
        });
        h.set_tagger(Some(first_byte)).unwrap();
        for i in 0..200 {
            h.insert(&tuple(b'x', i, 0)).unwrap();
        }
        let first = page_of(&h, 0);
        assert_ne!(h.tail, Some(first));
        let on_first: Vec<RowId> = (0..200).filter(|&rid| page_of(&h, rid) == first).collect();
        for rid in on_first {
            assert!(h.delete(rid).unwrap());
        }
        assert_eq!(h.free, [first]);
        // Fill the tail, then one more tuple recycles the listed page.
        let mut i = 200;
        while h.tail != Some(first) {
            h.insert(&tuple(b'a', i, 0)).unwrap();
            i += 1;
        }
        assert_eq!(recycled(&h), 1);
        let syn = h.synopsis.as_ref().unwrap();
        assert_eq!(syn.pages[&first], PageTags::of([b'a' as u32]));
        h.check_synopsis().unwrap();
        let need = PageTags::of([b'x' as u32]);
        let mut judge = |set: &PageTags| if set.intersects(&need) { PageUse::Read } else { PageUse::Skip };
        let mut page = [0; PAGE_SIZE];
        let read = |_, _: Option<&[u8]>| Ok(true);
        let unread =
            h.scan_range_vis(0, u64::MAX, Vis::LATEST, &mut page, Some(&mut judge), read).unwrap();
        assert_eq!(unread.skipped, 1, "only the recycled page lacks `x`");
    }

    /// A tail whose every tuple is deleted stays the tail and is not
    /// listed; it is listed, and recycled in place, only when a tuple no
    /// longer fits on it.
    #[test]
    fn an_emptied_tail_is_recycled_only_when_placement_moves_off_it() {
        let mut h = heap();
        for i in 0..60 {
            h.insert(&tuple(b'a', i, 0)).unwrap();
        }
        assert_eq!(h.pages.len(), 1);
        let tail = h.tail.unwrap();
        for rid in 0..60 {
            h.delete(rid).unwrap();
        }
        assert!(h.free.is_empty(), "the tail is not listed while it is the tail");
        h.check_free_list().unwrap();
        // Still room for a small tuple: it goes on the emptied tail.
        let small = h.insert(b"small").unwrap();
        assert_eq!((page_of(&h, small), recycled(&h)), (tail, 0));
        h.delete(small).unwrap();
        // A tuple that no longer fits moves placement off the empty tail,
        // which is listed and at once re-initialised as the new tail.
        let big = h.insert(&[b'b'; 4_000]).unwrap();
        assert_eq!((page_of(&h, big), h.pages.len(), recycled(&h)), (tail, 1, 1));
        assert!(h.free.is_empty());
        h.check_free_list().unwrap();
    }

    /// A delta record carries the free list and the tail only when they
    /// changed since the last delta; replaying the deltas in order
    /// restores both either way.
    #[test]
    fn a_delta_carries_the_free_list_only_when_it_changed() {
        let mut h = heap();
        h.set_wal_track(true);
        let mut back = Heap::new(h.pager.clone(), h.stats.clone());
        // Replays the next delta and says whether it carried the list: a
        // marker appended to the replica's list survives only a record
        // that does not.
        let replay = |h: &mut Heap, back: &mut Heap| {
            let mut record = Vec::new();
            h.wal_drain_delta(&mut record);
            back.free.push(PageId::MAX);
            back.wal_apply(&mut wal::Reader::new(&record)).unwrap();
            let carried = back.free.last() != Some(&PageId::MAX);
            if !carried {
                back.free.pop();
            }
            assert_eq!((&back.free, back.tail), (&h.free, h.tail));
            carried
        };
        for i in 0..300 {
            h.insert(&tuple(b'a', i, 0)).unwrap();
        }
        assert!(replay(&mut h, &mut back), "new pages move the tail");
        let first = page_of(&h, 0);
        let on_first: Vec<RowId> = (0..300).filter(|&rid| page_of(&h, rid) == first).collect();
        for rid in on_first {
            h.delete(rid).unwrap();
        }
        assert!(replay(&mut h, &mut back), "an emptied page is listed");
        assert_eq!(back.free, [first]);
        h.delete(299).unwrap();
        assert!(!replay(&mut h, &mut back), "a delete that empties no page");
        h.insert(&tuple(b'a', 300, 0)).unwrap();
        assert!(!replay(&mut h, &mut back), "an insert that fits the tail");
        while h.free == [first] {
            h.insert(&tuple(b'a', 300, 0)).unwrap();
        }
        assert!(replay(&mut h, &mut back), "the listed page became the tail");
        assert_eq!((back.tail, back.free.len()), (Some(first), 0));
    }

    /// Rolling back inserts and updates releases the transaction's
    /// versions: a page they alone filled is listed, unless it is the tail.
    #[test]
    fn undo_that_empties_a_page_lists_it() {
        let marker = TXN_BASE + 1;
        for undo_updates in [false, true] {
            let mut h = heap();
            for i in 0..300 {
                h.insert(&tuple(b'a', i, 0)).unwrap();
            }
            let committed: HashSet<PageId> = h.pages.iter().copied().collect();
            let txn_rows: Vec<RowId> = if undo_updates {
                for rid in 0..300 {
                    h.update_versioned(rid, &tuple(b'a', rid, 1), marker).unwrap();
                }
                (0..300).collect()
            } else {
                (300..500)
                    .map(|i| {
                        let rid = h.insert(&tuple(b'a', i, 0)).unwrap();
                        h.mark_begin(rid, marker);
                        rid
                    })
                    .collect()
            };
            let txn_pages: Vec<PageId> =
                h.pages.iter().copied().filter(|p| !committed.contains(p)).collect();
            assert!(txn_pages.len() >= 2, "{txn_pages:?}");
            for &rid in txn_rows.iter().rev() {
                if undo_updates {
                    h.undo_update(rid).unwrap();
                } else {
                    h.undo_insert(rid).unwrap();
                }
            }
            let tail = h.tail.unwrap();
            let mut want: Vec<PageId> = txn_pages.iter().copied().filter(|&p| p != tail).collect();
            let mut got = h.free.clone();
            want.sort_unstable();
            got.sort_unstable();
            assert_eq!(got, want, "undo_updates: {undo_updates}");
            h.check_free_list().unwrap();
            assert_eq!(h.live_bytes().unwrap(), h.live_bytes_walk().unwrap());
        }
    }

    /// The incremental live-byte counter must agree with a from-scratch
    /// page walk at every point of a mixed workload: inserts, in-place
    /// updates, relocating updates (grow/shrink), deletes, jumbo tuples,
    /// and jumbo-to-inline transitions.
    #[test]
    fn live_bytes_counter_matches_walk() {
        let mut h = heap();
        let check = |h: &Heap| {
            assert_eq!(h.live_bytes().unwrap(), h.live_bytes_walk().unwrap());
        };
        check(&h);
        let mut ids = Vec::new();
        for i in 0..500u64 {
            ids.push(h.insert(format!("tuple-{i:05}-{}", "x".repeat((i % 37) as usize)).as_bytes()).unwrap());
        }
        check(&h);
        // In-place update (same length) and relocating updates.
        h.update(ids[10], b"tuple-00010-").unwrap();
        h.update(ids[11], b"grown to something much longer than before").unwrap();
        h.update(ids[12], b"s").unwrap();
        check(&h);
        // Deletes, including a double delete (no-op).
        for &r in &ids[100..200] {
            assert!(h.delete(r).unwrap());
        }
        assert!(!h.delete(ids[100]).unwrap());
        check(&h);
        // Jumbo insert, jumbo update, jumbo shrink back to inline, delete.
        let big: Vec<u8> = vec![3u8; 50_000];
        let j = h.insert(&big).unwrap();
        check(&h);
        h.update(j, &vec![4u8; 30_000]).unwrap();
        check(&h);
        h.update(j, b"tiny again").unwrap();
        check(&h);
        assert!(h.delete(j).unwrap());
        check(&h);
        // Refill and re-verify.
        for i in 0..150u64 {
            h.insert(format!("refill-{i:04}").as_bytes()).unwrap();
        }
        check(&h);
    }
}
