//! # sinew-index
//!
//! An inverted text index — the Apache Solr stand-in of the Sinew paper
//! (§4.3, §5).
//!
//! "At a high level, an inverted text index tokenizes the input data and
//! compiles a vector of terms together with a list of IDs corresponding to
//! the records that contain that term. Additionally, it can give the option
//! of faceting its term vectors by strongly typed fields."
//!
//! This crate provides exactly that: per-field (attribute-faceted) postings
//! with term, prefix, fuzzy (edit distance ≤ 1), and numeric range queries,
//! plus a small query-string language used by Sinew's `matches(keys, query)`
//! SQL function. Results are sorted row-id lists that the caller applies as
//! a filter over the base relation — "The results of the search (a set of
//! matching record IDs) can then be applied as a filter over the original
//! relation."

mod query;
mod tokenize;

pub use query::{parse_query, Query};
pub use tokenize::tokenize;

use parking_lot::RwLock;
use std::collections::{BTreeMap, HashMap, HashSet};

pub type DocId = u64;

/// Total-ordered f64 wrapper for the numeric facet.
#[derive(Debug, Clone, Copy, PartialEq)]
struct NumKey(f64);

impl Eq for NumKey {}
impl PartialOrd for NumKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for NumKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

#[derive(Default)]
struct FieldIndex {
    /// term → sorted doc ids, each once.
    terms: HashMap<String, Vec<DocId>>,
    /// numeric facet for range queries.
    numbers: BTreeMap<NumKey, Vec<DocId>>,
}

/// The inverted index over one logical table.
#[derive(Default)]
pub struct TextIndex {
    fields: RwLock<HashMap<String, FieldIndex>>,
    deleted: RwLock<HashSet<DocId>>,
}

impl TextIndex {
    pub fn new() -> TextIndex {
        TextIndex::default()
    }

    /// Index a text value under a field (attribute name).
    pub fn add_text(&self, field: &str, doc: DocId, text: &str) {
        let mut fields = self.fields.write();
        let fi = fields.entry(field.to_string()).or_default();
        for tok in tokenize(text) {
            post(fi.terms.entry(tok).or_default(), doc);
        }
    }

    /// Index a numeric value under a field (for range queries).
    pub fn add_number(&self, field: &str, doc: DocId, value: f64) {
        let mut fields = self.fields.write();
        let fi = fields.entry(field.to_string()).or_default();
        post(fi.numbers.entry(NumKey(value)).or_default(), doc);
        // numbers are also searchable as terms
        post(fi.terms.entry(value.to_string()).or_default(), doc);
    }

    /// Tombstone a document (e.g. after UPDATE/DELETE); it stops matching.
    pub fn delete_doc(&self, doc: DocId) {
        self.deleted.write().insert(doc);
    }

    pub fn field_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.fields.read().keys().cloned().collect();
        names.sort();
        names
    }

    /// Run a parsed query. `fields`: specific attribute names, or empty for
    /// all fields (the `'*'` case of the paper's `matches`).
    pub fn search(&self, fields: &[String], query: &Query) -> Vec<DocId> {
        let guard = self.fields.read();
        let selected: Vec<&FieldIndex> = if fields.is_empty() {
            guard.values().collect()
        } else {
            fields.iter().filter_map(|f| guard.get(f)).collect()
        };
        let mut result = self.eval(&selected, query);
        let deleted = self.deleted.read();
        if !deleted.is_empty() {
            result.retain(|d| !deleted.contains(d));
        }
        result
    }

    /// Convenience: parse and run a query string.
    pub fn search_str(&self, fields: &[String], query: &str) -> Vec<DocId> {
        self.search(fields, &parse_query(query))
    }

    fn eval(&self, fields: &[&FieldIndex], q: &Query) -> Vec<DocId> {
        match q {
            Query::Term(t) => self.collect_matching(fields, |term| term == t),
            Query::Prefix(p) => self.collect_matching(fields, |term| term.starts_with(p.as_str())),
            Query::Fuzzy(t) => self.collect_matching(fields, |term| within_edit1(term, t)),
            Query::Range { lo, hi } => {
                let mut out = Vec::new();
                for fi in fields {
                    for (_, docs) in fi.numbers.range(NumKey(*lo)..=NumKey(*hi)) {
                        out.extend_from_slice(docs);
                    }
                }
                sort_dedup(out)
            }
            Query::And(parts) => {
                let mut iter = parts.iter();
                let Some(first) = iter.next() else { return Vec::new() };
                let mut acc = self.eval(fields, first);
                for p in iter {
                    let next = self.eval(fields, p);
                    acc = intersect_sorted(&acc, &next);
                    if acc.is_empty() {
                        break;
                    }
                }
                acc
            }
            Query::Or(parts) => {
                let mut acc = Vec::new();
                for p in parts {
                    acc.extend(self.eval(fields, p));
                }
                sort_dedup(acc)
            }
        }
    }

    fn collect_matching(&self, fields: &[&FieldIndex], pred: impl Fn(&str) -> bool) -> Vec<DocId> {
        let mut out = Vec::new();
        for fi in fields {
            for (term, docs) in &fi.terms {
                if pred(term) {
                    out.extend_from_slice(docs);
                }
            }
        }
        sort_dedup(out)
    }
}

/// Add `doc` to a posting list. A list is a sorted set, so indexing a
/// document a second time leaves it as it was.
fn post(list: &mut Vec<DocId>, doc: DocId) {
    if let Err(at) = list.binary_search(&doc) {
        list.insert(at, doc);
    }
}

fn sort_dedup(mut v: Vec<DocId>) -> Vec<DocId> {
    v.sort_unstable();
    v.dedup();
    v
}

fn intersect_sorted(a: &[DocId], b: &[DocId]) -> Vec<DocId> {
    let mut out = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

/// Levenshtein distance ≤ 1 without allocating the DP matrix.
fn within_edit1(a: &str, b: &str) -> bool {
    if a == b {
        return true;
    }
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    let (s, l): (Vec<char>, Vec<char>) = (short.chars().collect(), long.chars().collect());
    match l.len() - s.len() {
        0 => s.iter().zip(&l).filter(|(x, y)| x != y).count() <= 1, // substitution
        1 => {
            // single insertion into the shorter string
            let mut i = 0;
            while i < s.len() && s[i] == l[i] {
                i += 1;
            }
            s[i..] == l[i + 1..]
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TextIndex {
        let idx = TextIndex::new();
        idx.add_text("title", 1, "The Quick Brown Fox");
        idx.add_text("title", 2, "quick silver");
        idx.add_text("body", 3, "a fox and a hound");
        idx.add_number("hits", 1, 10.0);
        idx.add_number("hits", 2, 25.0);
        idx.add_number("hits", 3, 90.0);
        idx
    }

    #[test]
    fn term_search_per_field_and_all_fields() {
        let idx = sample();
        assert_eq!(idx.search_str(&["title".into()], "fox"), vec![1]);
        assert_eq!(idx.search_str(&[], "fox"), vec![1, 3]);
        assert_eq!(idx.search_str(&["body".into()], "quick"), Vec::<u64>::new());
    }

    #[test]
    fn and_or_queries() {
        let idx = sample();
        assert_eq!(idx.search_str(&[], "quick fox"), vec![1]); // implicit AND
        assert_eq!(idx.search_str(&[], "silver OR hound"), vec![2, 3]);
    }

    #[test]
    fn prefix_and_fuzzy() {
        let idx = sample();
        assert_eq!(idx.search_str(&[], "qui*"), vec![1, 2]);
        assert_eq!(idx.search_str(&[], "quik~"), vec![1, 2]); // 1 edit
        assert_eq!(idx.search_str(&[], "quxck~"), vec![1, 2]); // substitution
        assert_eq!(idx.search_str(&[], "qwwck~"), Vec::<u64>::new()); // 2 edits
    }

    #[test]
    fn numeric_range() {
        let idx = sample();
        let q = Query::Range { lo: 5.0, hi: 30.0 };
        assert_eq!(idx.search(&["hits".to_string()], &q), vec![1, 2]);
        assert_eq!(idx.search(&["hits".to_string()], &parse_query("[5 TO 30]")), vec![1, 2]);
    }

    #[test]
    fn indexing_a_document_twice_leaves_one_posting() {
        let idx = TextIndex::new();
        for _ in 0..2 {
            idx.add_text("title", 2, "fox fox");
            idx.add_text("title", 1, "fox");
            idx.add_number("hits", 1, 5.0);
        }
        let fields = idx.fields.read();
        assert_eq!(fields["title"].terms["fox"], [1, 2]);
        assert_eq!(fields["hits"].terms["5"], [1]);
        assert_eq!(fields["hits"].numbers[&NumKey(5.0)], [1]);
    }

    #[test]
    fn tombstones_filter_results() {
        let idx = sample();
        idx.delete_doc(1);
        assert_eq!(idx.search_str(&[], "fox"), vec![3]);
    }

    #[test]
    fn case_insensitive() {
        let idx = sample();
        assert_eq!(idx.search_str(&[], "QUICK"), vec![1, 2]);
        assert_eq!(idx.search_str(&[], "Brown"), vec![1]);
    }

    #[test]
    fn edit_distance_helper() {
        assert!(within_edit1("abc", "abc"));
        assert!(within_edit1("abc", "abd"));
        assert!(within_edit1("abc", "abcd"));
        assert!(within_edit1("abc", "ab"));
        assert!(!within_edit1("abc", "axd"));
        assert!(!within_edit1("abc", "abcde"));
        assert!(within_edit1("", "a"));
        assert!(!within_edit1("", "ab"));
    }
}
