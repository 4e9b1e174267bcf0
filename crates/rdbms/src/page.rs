//! Slotted 8 KiB pages.
//!
//! Classic layout: a fixed header, a slot directory growing downward from
//! the header, and tuple data growing upward from the end of the page.
//!
//! ```text
//! [u16 nslots][u16 lower][u16 upper][u16 flags]  (8-byte header)
//! [slot 0: u16 off, u16 len][slot 1]...            lower = end of slots
//! ... free space ...
//! ...tuple data...                                  upper = start of data
//! ```
//!
//! `len == 0` marks a dead slot (deleted tuple). Pages are manipulated in
//! place on borrowed byte buffers owned by the buffer pool.

pub const PAGE_SIZE: usize = 8192;
const HEADER: usize = 8;
const SLOT: usize = 4;

/// Maximum tuple payload a fresh page can host; larger tuples go to a
/// jumbo chain (see `heap.rs`).
pub const MAX_INLINE_TUPLE: usize = PAGE_SIZE - HEADER - SLOT;

fn get_u16(page: &[u8], at: usize) -> u16 {
    u16::from_le_bytes([page[at], page[at + 1]])
}

fn put_u16(page: &mut [u8], at: usize, v: u16) {
    page[at..at + 2].copy_from_slice(&v.to_le_bytes());
}

/// Initialize an empty page in `buf`.
pub fn init(buf: &mut [u8]) {
    debug_assert_eq!(buf.len(), PAGE_SIZE);
    buf[..HEADER].fill(0);
    put_u16(buf, 0, 0); // nslots
    put_u16(buf, 2, HEADER as u16); // lower
    put_u16(buf, 4, PAGE_SIZE as u16); // upper
}

pub fn nslots(page: &[u8]) -> usize {
    get_u16(page, 0) as usize
}

/// Free bytes available for one more tuple (accounting for its slot entry).
pub fn free_space(page: &[u8]) -> usize {
    let lower = get_u16(page, 2) as usize;
    let upper = get_u16(page, 4) as usize;
    (upper - lower).saturating_sub(SLOT)
}

/// Insert a tuple; returns the slot number, or `None` if it doesn't fit.
pub fn insert(page: &mut [u8], data: &[u8]) -> Option<u16> {
    if data.len() > free_space(page) {
        return None;
    }
    let n = get_u16(page, 0);
    let lower = get_u16(page, 2) as usize;
    let upper = get_u16(page, 4) as usize;
    let new_upper = upper - data.len();
    page[new_upper..upper].copy_from_slice(data);
    put_u16(page, lower, new_upper as u16);
    put_u16(page, lower + 2, data.len() as u16);
    put_u16(page, 0, n + 1);
    put_u16(page, 2, (lower + SLOT) as u16);
    put_u16(page, 4, new_upper as u16);
    Some(n)
}

/// Read a live tuple's bytes. `None` for dead or out-of-range slots.
pub fn read(page: &[u8], slot: u16) -> Option<&[u8]> {
    if (slot as usize) >= nslots(page) {
        return None;
    }
    let at = HEADER + slot as usize * SLOT;
    let off = get_u16(page, at) as usize;
    let len = get_u16(page, at + 2) as usize;
    if len == 0 {
        return None;
    }
    Some(&page[off..off + len])
}

/// Mark a slot dead. Its bytes stay taken until the page holds no live
/// slot and the heap re-initialises it (DESIGN.md §34).
pub fn delete(page: &mut [u8], slot: u16) -> bool {
    if (slot as usize) >= nslots(page) {
        return false;
    }
    let at = HEADER + slot as usize * SLOT;
    if get_u16(page, at + 2) == 0 {
        return false;
    }
    put_u16(page, at + 2, 0);
    true
}

/// Overwrite a live tuple in place — only allowed at identical length
/// (the heap relocates on size change).
pub fn overwrite(page: &mut [u8], slot: u16, data: &[u8]) -> bool {
    if (slot as usize) >= nslots(page) {
        return false;
    }
    let at = HEADER + slot as usize * SLOT;
    let off = get_u16(page, at) as usize;
    let len = get_u16(page, at + 2) as usize;
    if len != data.len() || len == 0 {
        return false;
    }
    page[off..off + len].copy_from_slice(data);
    true
}

/// Does the page hold no live slot? A zeroed page holds none.
pub fn is_empty(page: &[u8]) -> bool {
    (0..nslots(page)).all(|s| get_u16(page, HEADER + s * SLOT + 2) == 0)
}

/// Live payload bytes (for fill-factor accounting).
pub fn live_bytes(page: &[u8]) -> usize {
    (0..nslots(page) as u16)
        .filter_map(|s| read(page, s))
        .map(|t| t.len())
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh() -> Vec<u8> {
        let mut buf = vec![0u8; PAGE_SIZE];
        init(&mut buf);
        buf
    }

    #[test]
    fn insert_read_delete() {
        let mut p = fresh();
        let s0 = insert(&mut p, b"hello").unwrap();
        let s1 = insert(&mut p, b"world!").unwrap();
        assert_eq!(read(&p, s0), Some(&b"hello"[..]));
        assert_eq!(read(&p, s1), Some(&b"world!"[..]));
        assert!(delete(&mut p, s0));
        assert_eq!(read(&p, s0), None);
        assert!(!delete(&mut p, s0), "double delete");
        assert_eq!(read(&p, s1), Some(&b"world!"[..]));
    }

    #[test]
    fn fills_up_and_rejects() {
        let mut p = fresh();
        let tuple = vec![0xAB; 1000];
        let mut count = 0;
        while insert(&mut p, &tuple).is_some() {
            count += 1;
        }
        // 8184 usable / 1004 per tuple = 8 tuples
        assert_eq!(count, 8);
        assert!(free_space(&p) < 1000);
        // a small one still fits
        assert!(insert(&mut p, b"x").is_some());
    }

    #[test]
    fn max_inline_tuple_fits_exactly() {
        let mut p = fresh();
        let tuple = vec![1u8; MAX_INLINE_TUPLE];
        assert!(insert(&mut p, &tuple).is_some());
        assert_eq!(free_space(&p), 0);
        let mut p2 = fresh();
        let too_big = vec![1u8; MAX_INLINE_TUPLE + 1];
        assert!(insert(&mut p2, &too_big).is_none());
    }

    #[test]
    fn overwrite_same_size_only() {
        let mut p = fresh();
        let s = insert(&mut p, b"abcde").unwrap();
        assert!(overwrite(&mut p, s, b"vwxyz"));
        assert_eq!(read(&p, s), Some(&b"vwxyz"[..]));
        assert!(!overwrite(&mut p, s, b"toolong"));
        delete(&mut p, s);
        assert!(!overwrite(&mut p, s, b"abcde"), "dead slot");
    }

    #[test]
    fn live_bytes_tracks_deletes() {
        let mut p = fresh();
        insert(&mut p, b"aaaa").unwrap();
        let s = insert(&mut p, b"bb").unwrap();
        assert_eq!(live_bytes(&p), 6);
        delete(&mut p, s);
        assert_eq!(live_bytes(&p), 4);
    }

    #[test]
    fn empty_once_every_slot_is_dead() {
        let mut p = fresh();
        assert!(is_empty(&p));
        assert!(is_empty(&[0u8; PAGE_SIZE]), "a zeroed page");
        let a = insert(&mut p, b"aaaa").unwrap();
        let b = insert(&mut p, b"bb").unwrap();
        delete(&mut p, b);
        assert!(!is_empty(&p));
        delete(&mut p, a);
        assert!(is_empty(&p));
        assert!(free_space(&p) < MAX_INLINE_TUPLE, "dead bytes stay taken");
        init(&mut p);
        assert_eq!((nslots(&p), free_space(&p)), (0, MAX_INLINE_TUPLE));
    }
}
