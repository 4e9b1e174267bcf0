//! Driver-side result oracle: expected row counts for Q1–Q11 and expected
//! affected-row counts for the writes, computed from the generated
//! documents by naive filter / group / hash join — no code shared with
//! the system under test.

use crate::data::{Doc, ParamSet};
use std::collections::{HashMap, HashSet};

/// Logical content of the collection as the driver believes it to be.
/// Documents are visible in generation order: `docs[..visible]` minus the
/// deleted ones.
#[derive(Debug, Default, Clone)]
pub struct State {
    pub visible: usize,
    deleted: HashSet<usize>,
    /// Documents whose `UPDATE_SET_KEY` now reads `'DUMMY'`.
    dummy: HashSet<usize>,
}

impl State {
    pub fn with_visible(visible: usize) -> State {
        State {
            visible,
            ..State::default()
        }
    }

    fn live<'a>(&'a self, docs: &'a [Doc]) -> impl Iterator<Item = (usize, &'a Doc)> {
        docs[..self.visible]
            .iter()
            .enumerate()
            .filter(|(i, _)| !self.deleted.contains(i))
    }

    pub fn live_count(&self) -> u64 {
        (self.visible - self.deleted.len()) as u64
    }

    pub fn is_live(&self, i: usize) -> bool {
        i < self.visible && !self.deleted.contains(&i)
    }

    pub fn dummy_count(&self) -> u64 {
        self.dummy.len() as u64
    }

    /// Expected result-row count of read statement `q` (1..=11).
    pub fn expect_read(&self, docs: &[Doc], q: u8, p: &ParamSet) -> u64 {
        let within = |x: i64, r: (i64, i64)| x >= r.0 && x <= r.1;
        let count = |f: &dyn Fn(&Doc) -> bool| self.live(docs).filter(|(_, d)| f(d)).count() as u64;
        match q {
            // projections return one row per document, NULLs included
            1..=4 => self.live_count(),
            5 => count(&|d| d.str1 == p.point_str1),
            6 => count(&|d| within(d.num, p.num)),
            7 => count(&|d| d.dyn1_int.is_some_and(|x| within(x, p.dyn1))),
            8 => count(&|d| d.arr.contains(&p.arr_elem)),
            9 => count(&|d| d.sparse_pred.as_deref() == Some(p.sparse_val.as_str())),
            10 => {
                let groups: HashSet<i64> = self
                    .live(docs)
                    .filter(|(_, d)| within(d.num, p.agg))
                    .map(|(_, d)| d.thousandth)
                    .collect();
                groups.len() as u64
            }
            11 => {
                let mut build: HashMap<&str, u64> = HashMap::new();
                for (_, d) in self.live(docs) {
                    *build.entry(d.str1.as_str()).or_default() += 1;
                }
                self.live(docs)
                    .filter(|(_, d)| within(d.num, p.join))
                    .map(|(_, d)| build.get(d.nested_str.as_str()).copied().unwrap_or(0))
                    .sum()
            }
            other => panic!("no read statement Q{other}"),
        }
    }

    /// §6.6 update: expected affected rows; marks them.
    pub fn apply_update(&mut self, docs: &[Doc], where_val: &str) -> u64 {
        let hit: Vec<usize> = self
            .live(docs)
            .filter(|(_, d)| d.update_where.as_deref() == Some(where_val))
            .map(|(i, _)| i)
            .collect();
        self.dummy.extend(hit.iter().copied());
        hit.len() as u64
    }

    /// Append the next `n` generated documents.
    pub fn apply_insert(&mut self, n: usize) {
        self.visible += n;
    }

    /// Delete by `str1`: expected affected rows.
    pub fn apply_delete(&mut self, docs: &[Doc], str1: &str) -> u64 {
        let hit: Vec<usize> = self
            .live(docs)
            .filter(|(_, d)| d.str1 == str1)
            .map(|(i, _)| i)
            .collect();
        for i in &hit {
            self.deleted.insert(*i);
            self.dummy.remove(i);
        }
        hit.len() as u64
    }

    /// `str1 -> carries 'DUMMY'` for every live document: what a scan of
    /// the stored collection must reproduce.
    pub fn fingerprint(&self, docs: &[Doc]) -> HashMap<String, bool> {
        self.live(docs)
            .map(|(i, d)| (d.str1.clone(), self.dummy.contains(&i)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{derive_params, Dataset, Rng, SCAN};

    fn doc(str1: &str, num: i64, nested: &str) -> Doc {
        Doc {
            str1: str1.into(),
            num,
            nested_str: nested.into(),
            dyn1_int: (num % 2 == 0).then_some(num),
            arr: vec![format!("e{}", num % 3)],
            thousandth: num % 1000,
            sparse_pred: (num == 5).then(|| "P".into()),
            update_where: (num >= 5).then(|| "W".into()),
        }
    }

    fn params() -> ParamSet {
        ParamSet {
            point_str1: "b".into(),
            num: (2, 6),
            dyn1: (2, 6),
            arr_elem: "e0".into(),
            sparse_val: "P".into(),
            agg: (1, 1004),
            join: (1, 5),
            update_val: "W".into(),
        }
    }

    #[test]
    fn counts_by_hand() {
        // a(1)->b, b(3)->c, c(5)->a, d(6)->a, e(1003)->zz
        let docs = vec![
            doc("a", 1, "b"),
            doc("b", 3, "c"),
            doc("c", 5, "a"),
            doc("d", 6, "a"),
            doc("e", 1003, "zz"),
        ];
        let p = params();
        let s = State::with_visible(5);
        assert_eq!(s.expect_read(&docs, 1, &p), 5);
        assert_eq!(s.expect_read(&docs, 5, &p), 1);
        assert_eq!(s.expect_read(&docs, 6, &p), 3); // 3, 5, 6
        assert_eq!(s.expect_read(&docs, 7, &p), 1); // only 6 is an int dyn1 in range
        assert_eq!(s.expect_read(&docs, 8, &p), 2); // 3 and 6 are multiples of 3
        assert_eq!(s.expect_read(&docs, 9, &p), 1);
        assert_eq!(s.expect_read(&docs, 10, &p), 4); // 1, 3, 5, 6, (1003 -> 3 again)
        assert_eq!(s.expect_read(&docs, 11, &p), 3); // a->b, b->c, c->a
    }

    #[test]
    fn writes_move_the_expectation() {
        let docs = vec![
            doc("a", 1, "b"),
            doc("b", 3, "c"),
            doc("c", 5, "a"),
            doc("d", 6, "a"),
        ];
        let p = params();
        let mut s = State::with_visible(3);
        assert_eq!(s.expect_read(&docs, 11, &p), 3);
        assert_eq!(s.apply_update(&docs, "W"), 1); // only c is visible
        s.apply_insert(1);
        assert_eq!(s.live_count(), 4);
        assert_eq!(s.apply_update(&docs, "W"), 2);
        assert_eq!(s.dummy_count(), 2);
        assert_eq!(s.apply_delete(&docs, "a"), 1);
        assert_eq!(s.apply_delete(&docs, "a"), 0);
        assert!(!s.is_live(0));
        // c and d joined with a, which is gone; a itself is gone
        assert_eq!(s.expect_read(&docs, 11, &p), 1);
        assert_eq!(s.apply_delete(&docs, "d"), 1);
        assert_eq!(s.dummy_count(), 1);
        let f = s.fingerprint(&docs);
        assert_eq!(f.len(), 2);
        assert!(f["c"]);
        assert!(!f["b"]);
    }

    #[test]
    fn exact_counts_repeat_per_seed() {
        let run = |seed| {
            let data = Dataset::generate(seed, 400);
            let ps = derive_params(&data.docs, SCAN, &mut Rng::new(seed), 4);
            let s = State::with_visible(400);
            (1..=11)
                .map(|q| s.expect_read(&data.docs, q, &ps[q as usize % 4]))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(2014), run(2014));
        assert_ne!(run(2014), run(2015));
    }
}
