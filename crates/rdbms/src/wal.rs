//! Physical page-level write-ahead log.
//!
//! The WAL sits in front of the file-backed pager: every statement that
//! mutates a table captures the 8 KiB images of the pages it dirtied,
//! appends them to the log followed by a commit marker, and only then may
//! the buffer pool write those pages back to the data file. Recovery on
//! open replays committed records in order and discards the torn tail, so
//! a kill -9 at any instant loses at most the statements whose commit
//! marker never reached disk — never a half-applied statement.
//!
//! Record framing (all integers little-endian):
//!
//! ```text
//! frame   := len:u32 | kind:u8 | crc:u32 | payload[len]
//! kind 1  := CHECKPOINT  payload = full metadata snapshot (db.rs codec)
//! kind 2  := PAGE        payload = page_id:u64 | 8192-byte image
//! kind 3  := COMMIT      payload = per-statement metadata delta
//! ```
//!
//! `crc` is CRC-32 (IEEE) over `kind || payload`. The reader stops at the
//! first frame that is truncated or fails its checksum — everything after
//! a torn write is unreachable, everything before it is intact. PAGE
//! frames are buffered and only take effect when their COMMIT frame is
//! seen, which is what makes statements atomic under crashes.
//!
//! A log file always begins with one CHECKPOINT frame carrying the
//! complete metadata of the database at checkpoint time; commits after it
//! carry deltas. Checkpointing flushes the buffer pool, syncs the data
//! file, then atomically replaces the log (write temp + rename) with a
//! fresh one whose CHECKPOINT reflects the current state.
//!
//! Group commit ([`WalConfig::group_commit`]` = n`) batches n commit frames
//! per `fdatasync`; 1 (the default) is classic synchronous commit. Fault
//! injection ([`WalConfig::crash_after`]` = Some(n)`) aborts the process
//! mid-frame on the nth appended frame, making torn-tail recovery
//! deterministic to test.

use crate::error::{DbError, DbResult};
use crate::exec::ExecStats;
use crate::page::PAGE_SIZE;
use crate::pager::PageId;
use parking_lot::Mutex;
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

const KIND_CHECKPOINT: u8 = 1;
const KIND_PAGE: u8 = 2;
const KIND_COMMIT: u8 = 3;
const FRAME_HEADER: usize = 4 + 1 + 4;
/// Sanity bound on one frame's payload; a bulk-load commit delta over
/// millions of rows stays far below this.
const MAX_PAYLOAD: usize = 256 << 20;

// ---- CRC-32 (IEEE 802.3 polynomial, reflected) ----

const fn crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc_table();

/// CRC-32 over multiple byte slices, as if concatenated.
pub fn crc32(parts: &[&[u8]]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for part in parts {
        for &b in *part {
            c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
    }
    !c
}

// ---- byte codec helpers (shared by the metadata codecs in heap/db) ----

pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    put_u32(out, b.len() as u32);
    out.extend_from_slice(b);
}

pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_bytes(out, s.as_bytes());
}

/// Cursor over an encoded metadata buffer. Every read is bounds-checked:
/// the WAL's checksums catch torn writes, but a codec bug should surface
/// as a clean error, not a panic.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    pub fn is_empty(&self) -> bool {
        self.pos >= self.buf.len()
    }

    fn take(&mut self, n: usize) -> DbResult<&'a [u8]> {
        if self.pos + n > self.buf.len() {
            return Err(DbError::Io("wal: truncated metadata record".into()));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub fn u8(&mut self) -> DbResult<u8> {
        Ok(self.take(1)?[0])
    }

    pub fn u32(&mut self) -> DbResult<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub fn u64(&mut self) -> DbResult<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub fn bytes(&mut self) -> DbResult<&'a [u8]> {
        let n = self.u32()? as usize;
        self.take(n)
    }

    pub fn str(&mut self) -> DbResult<&'a str> {
        std::str::from_utf8(self.bytes()?)
            .map_err(|_| DbError::Io("wal: invalid utf-8 in metadata".into()))
    }
}

// ---- configuration ----

/// WAL configuration. [`crate::Database::open`] uses the default;
/// [`crate::Database::open_with_wal`] takes any other.
#[derive(Debug, Clone)]
pub struct WalConfig {
    /// Log at all? Off restores the pre-WAL truncate-on-open behaviour.
    pub enabled: bool,
    /// Commit frames per fdatasync (group commit); 1 = sync every commit.
    pub group_commit: u64,
    /// Auto-checkpoint once the log grows past this many bytes.
    pub checkpoint_bytes: u64,
    /// Fault injection: abort the process with a half-written frame on
    /// the nth (1-based) frame append.
    pub crash_after: Option<u64>,
}

impl Default for WalConfig {
    fn default() -> WalConfig {
        WalConfig {
            enabled: true,
            group_commit: 1,
            checkpoint_bytes: 8 << 20,
            crash_after: None,
        }
    }
}

// ---- the log itself ----

struct WalInner {
    file: File,
    bytes: u64,
    /// Commits since the last fdatasync (group commit window).
    unsynced_commits: u64,
    /// Lifetime frame appends, for `crash_after` fault injection.
    appends: u64,
}

/// An open write-ahead log. One per file-backed database; all appends go
/// through a mutex, which is fine because the database serializes
/// mutating statements anyway.
pub struct Wal {
    path: PathBuf,
    cfg: WalConfig,
    inner: Mutex<WalInner>,
    /// The owning database's counter table; the log feeds its `wal` rows.
    stats: Arc<ExecStats>,
}

/// One committed statement recovered from the log.
pub struct WalCommit {
    /// Page images this statement dirtied, in capture order.
    pub pages: Vec<(PageId, Box<[u8]>)>,
    /// The statement's metadata delta (db.rs codec).
    pub meta: Vec<u8>,
}

/// Everything recoverable from a log file: the checkpoint snapshot it
/// starts from plus every fully committed statement after it.
pub struct WalContents {
    pub checkpoint: Vec<u8>,
    pub commits: Vec<WalCommit>,
}

/// Durably create or replace a directory entry: fsync the parent so a
/// rename/create of the log itself survives power failure — without
/// this the new inode's dentry (and every commit fdatasync'd into it)
/// can vanish, or the log can disappear entirely out from under a
/// fully-synced data file.
fn sync_parent_dir(path: &Path) -> DbResult<()> {
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    File::open(parent)?.sync_all()?;
    Ok(())
}

impl Wal {
    /// Create the log and seed it with a checkpoint snapshot — both the
    /// fresh-database path (empty snapshot) and the tail of recovery.
    /// The seed is written to a temp file, synced, then renamed over
    /// `path` and the directory fsync'd, so a crash at any instant
    /// leaves either the old log or a complete new one — never an
    /// empty/torn log next to a data file that still needs it.
    pub fn create(
        path: &Path,
        cfg: WalConfig,
        snapshot: &[u8],
        stats: Arc<ExecStats>,
    ) -> DbResult<Wal> {
        let tmp = path.with_extension("wal-tmp");
        let file =
            OpenOptions::new().read(true).write(true).create(true).truncate(true).open(&tmp)?;
        let wal = Wal {
            path: path.to_path_buf(),
            cfg,
            inner: Mutex::new(WalInner { file, bytes: 0, unsynced_commits: 0, appends: 0 }),
            stats,
        };
        {
            let mut inner = wal.inner.lock();
            let mut buf = Vec::with_capacity(snapshot.len() + FRAME_HEADER);
            wal.compose_frame(&mut inner, &mut buf, KIND_CHECKPOINT, snapshot);
            inner.file.write_all(&buf)?;
            inner.bytes += buf.len() as u64;
            inner.file.sync_data()?;
            std::fs::rename(&tmp, path)?;
            sync_parent_dir(path)?;
            wal.stats.wal_fsyncs.inc();
            wal.stats.wal_bytes.add(buf.len() as u64);
        }
        Ok(wal)
    }

    pub fn config(&self) -> &WalConfig {
        &self.cfg
    }

    /// Current log size in bytes (drives auto-checkpoint).
    pub fn bytes(&self) -> u64 {
        self.inner.lock().bytes
    }

    /// Append one statement's page images and commit marker, then sync
    /// according to the group-commit window. The statement is durable
    /// once this returns (or will be, within `group_commit - 1` further
    /// commits).
    pub fn commit(&self, pages: &[(PageId, Box<[u8]>)], meta: &[u8]) -> DbResult<()> {
        let mut inner = self.inner.lock();
        let mut buf =
            Vec::with_capacity(pages.len() * (PAGE_SIZE + 8 + FRAME_HEADER) + meta.len() + 64);
        for (id, image) in pages {
            debug_assert_eq!(image.len(), PAGE_SIZE);
            let mut payload = Vec::with_capacity(8 + PAGE_SIZE);
            put_u64(&mut payload, *id);
            payload.extend_from_slice(image);
            self.compose_frame(&mut inner, &mut buf, KIND_PAGE, &payload);
        }
        self.compose_frame(&mut inner, &mut buf, KIND_COMMIT, meta);
        inner.file.write_all(&buf)?;
        inner.bytes += buf.len() as u64;
        self.stats.wal_bytes.add(buf.len() as u64);
        self.stats.wal_commits.inc();
        inner.unsynced_commits += 1;
        if inner.unsynced_commits >= self.cfg.group_commit {
            inner.file.sync_data()?;
            inner.unsynced_commits = 0;
            self.stats.wal_fsyncs.inc();
        }
        Ok(())
    }

    /// Force any group-commit backlog to disk.
    pub fn sync(&self) -> DbResult<()> {
        let mut inner = self.inner.lock();
        if inner.unsynced_commits > 0 {
            inner.file.sync_data()?;
            inner.unsynced_commits = 0;
            self.stats.wal_fsyncs.inc();
        }
        Ok(())
    }

    /// Atomically replace the log with a fresh one seeded from `snapshot`.
    /// The caller must already have flushed + synced the data file: after
    /// the rename, pre-checkpoint history is gone.
    pub fn reset_with_checkpoint(&self, snapshot: &[u8]) -> DbResult<()> {
        let mut inner = self.inner.lock();
        let tmp = self.path.with_extension("wal-tmp");
        let mut file =
            OpenOptions::new().read(true).write(true).create(true).truncate(true).open(&tmp)?;
        let mut buf = Vec::with_capacity(snapshot.len() + FRAME_HEADER);
        self.compose_frame(&mut inner, &mut buf, KIND_CHECKPOINT, snapshot);
        file.write_all(&buf)?;
        file.sync_data()?;
        std::fs::rename(&tmp, &self.path)?;
        sync_parent_dir(&self.path)?;
        // The renamed handle stays valid (same inode); swap it in.
        inner.file = file;
        inner.bytes = buf.len() as u64;
        inner.unsynced_commits = 0;
        self.stats.wal_bytes.add(buf.len() as u64);
        self.stats.wal_fsyncs.inc();
        self.stats.wal_checkpoints.inc();
        Ok(())
    }

    /// Frame `payload` into `buf`, honouring fault injection: on the
    /// `crash_after`-th lifetime append, only half the frame is written
    /// out before the process aborts — a deterministic torn tail.
    fn compose_frame(&self, inner: &mut WalInner, buf: &mut Vec<u8>, kind: u8, payload: &[u8]) {
        inner.appends += 1;
        self.stats.wal_appends.inc();
        let start = buf.len();
        put_u32(buf, payload.len() as u32);
        buf.push(kind);
        put_u32(buf, crc32(&[&[kind], payload]));
        buf.extend_from_slice(payload);
        if Some(inner.appends) == self.cfg.crash_after {
            let frame_len = buf.len() - start;
            buf.truncate(start + frame_len / 2);
            let _ = inner.file.write_all(buf);
            let _ = inner.file.sync_data();
            std::process::abort();
        }
    }

    /// Parse a log file into its checkpoint snapshot and committed
    /// statements, discarding the torn tail (uncommitted page images,
    /// truncated or checksum-failing frames, and everything after them).
    /// Returns `None` if the file is missing or does not start with a
    /// valid checkpoint frame (nothing to recover).
    pub fn read(path: &Path) -> DbResult<Option<WalContents>> {
        let mut file = match File::open(path) {
            Ok(f) => f,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        let mut raw = Vec::new();
        file.read_to_end(&mut raw)?;
        let mut pos = 0usize;
        let mut checkpoint: Option<Vec<u8>> = None;
        let mut commits: Vec<WalCommit> = Vec::new();
        let mut pending: Vec<(PageId, Box<[u8]>)> = Vec::new();
        while pos + FRAME_HEADER <= raw.len() {
            let len = u32::from_le_bytes(raw[pos..pos + 4].try_into().unwrap()) as usize;
            let kind = raw[pos + 4];
            let crc = u32::from_le_bytes(raw[pos + 5..pos + 9].try_into().unwrap());
            if len > MAX_PAYLOAD || pos + FRAME_HEADER + len > raw.len() {
                break; // torn tail
            }
            let payload = &raw[pos + FRAME_HEADER..pos + FRAME_HEADER + len];
            if crc32(&[&[kind], payload]) != crc {
                break; // torn or corrupt: stop here
            }
            match kind {
                KIND_CHECKPOINT if pos == 0 => checkpoint = Some(payload.to_vec()),
                KIND_CHECKPOINT => break, // only valid as the first frame
                KIND_PAGE => {
                    if len != 8 + PAGE_SIZE {
                        break;
                    }
                    let id = u64::from_le_bytes(payload[..8].try_into().unwrap());
                    pending.push((id, payload[8..].to_vec().into_boxed_slice()));
                }
                KIND_COMMIT => commits.push(WalCommit {
                    pages: std::mem::take(&mut pending),
                    meta: payload.to_vec(),
                }),
                _ => break, // unknown kind: treat as corruption
            }
            pos += FRAME_HEADER + len;
        }
        // `pending` now holds page images whose commit never landed —
        // dropped, which is exactly the atomicity we want.
        Ok(checkpoint.map(|checkpoint| WalContents { checkpoint, commits }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("sinew-wal-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn image(fill: u8) -> Box<[u8]> {
        vec![fill; PAGE_SIZE].into_boxed_slice()
    }

    #[test]
    fn crc32_known_vector() {
        // The classic check value for CRC-32/IEEE.
        assert_eq!(crc32(&[b"123456789"]), 0xCBF4_3926);
        assert_eq!(crc32(&[b"1234", b"56789"]), 0xCBF4_3926);
    }

    #[test]
    fn roundtrip_commits() {
        let dir = tmpdir("rt");
        let path = dir.join("t.wal");
        let wal = Wal::create(&path, WalConfig::default(), b"snap0", Default::default()).unwrap();
        wal.commit(&[(3, image(7)), (9, image(8))], b"meta-a").unwrap();
        wal.commit(&[], b"meta-b").unwrap();
        let c = Wal::read(&path).unwrap().unwrap();
        assert_eq!(c.checkpoint, b"snap0");
        assert_eq!(c.commits.len(), 2);
        assert_eq!(c.commits[0].pages.len(), 2);
        assert_eq!(c.commits[0].pages[1].0, 9);
        assert_eq!(c.commits[0].pages[1].1[0], 8);
        assert_eq!(c.commits[1].meta, b"meta-b");
        assert!(c.commits[1].pages.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_discards_uncommitted() {
        let dir = tmpdir("torn");
        let path = dir.join("t.wal");
        {
            let wal = Wal::create(&path, WalConfig::default(), b"s", Default::default()).unwrap();
            wal.commit(&[(1, image(1))], b"m1").unwrap();
            wal.commit(&[(2, image(2))], b"m2").unwrap();
        }
        let full = std::fs::read(&path).unwrap();
        // Truncate into the middle of the last commit's page frame.
        for cut in [full.len() - 1, full.len() - 100, full.len() - PAGE_SIZE - 20] {
            std::fs::write(&path, &full[..cut]).unwrap();
            let c = Wal::read(&path).unwrap().unwrap();
            assert_eq!(c.commits.len(), 1, "cut at {cut}");
            assert_eq!(c.commits[0].meta, b"m1");
        }
        // Flip a byte inside the first commit's page image: nothing after
        // the checkpoint survives.
        let mut corrupt = full.clone();
        corrupt[FRAME_HEADER + 1 + FRAME_HEADER + 100] ^= 0xFF;
        std::fs::write(&path, &corrupt).unwrap();
        let c = Wal::read(&path).unwrap().unwrap();
        assert_eq!(c.commits.len(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_or_garbage_log_reads_as_none() {
        let dir = tmpdir("none");
        assert!(Wal::read(&dir.join("absent.wal")).unwrap().is_none());
        let garbage = dir.join("garbage.wal");
        std::fs::write(&garbage, b"not a wal at all").unwrap();
        assert!(Wal::read(&garbage).unwrap().is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn group_commit_batches_fsyncs() {
        let dir = tmpdir("gc");
        let path = dir.join("t.wal");
        let cfg = WalConfig { group_commit: 4, ..WalConfig::default() };
        let wal = Wal::create(&path, cfg, b"s", Default::default()).unwrap();
        let base = wal.stats.wal_fsyncs.get();
        for i in 0..8 {
            wal.commit(&[], format!("m{i}").as_bytes()).unwrap();
        }
        assert_eq!(wal.stats.wal_fsyncs.get() - base, 2);
        wal.commit(&[], b"tail").unwrap();
        wal.sync().unwrap();
        assert_eq!(wal.stats.wal_fsyncs.get() - base, 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reset_replaces_log_atomically() {
        let dir = tmpdir("reset");
        let path = dir.join("t.wal");
        let wal = Wal::create(&path, WalConfig::default(), b"old", Default::default()).unwrap();
        // Creation goes through temp+rename; the temp must be gone and
        // the final path present.
        assert!(path.exists());
        assert!(!path.with_extension("wal-tmp").exists());
        wal.commit(&[(1, image(1))], b"m").unwrap();
        let before = wal.bytes();
        wal.reset_with_checkpoint(b"new-snapshot").unwrap();
        assert!(wal.bytes() < before);
        assert!(!path.with_extension("wal-tmp").exists());
        // Log still appendable after the swap and reads back cleanly.
        wal.commit(&[], b"after").unwrap();
        let c = Wal::read(&path).unwrap().unwrap();
        assert_eq!(c.checkpoint, b"new-snapshot");
        assert_eq!(c.commits.len(), 1);
        assert_eq!(c.commits[0].meta, b"after");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn codec_reader_roundtrip_and_bounds() {
        let mut buf = Vec::new();
        put_u64(&mut buf, 42);
        put_str(&mut buf, "hello");
        put_bytes(&mut buf, &[1, 2, 3]);
        let mut r = Reader::new(&buf);
        assert_eq!(r.u64().unwrap(), 42);
        assert_eq!(r.str().unwrap(), "hello");
        assert_eq!(r.bytes().unwrap(), &[1, 2, 3]);
        assert!(r.is_empty());
        assert!(r.u8().is_err());
    }
}
