//! Seeded inputs: NoBench documents, the driver-side view of them the
//! oracle filters, and the rotating statement parameters. Everything is a
//! pure function of `--seed`; the program under test sees only the
//! generated documents and SQL text.

use sinew_json::Value;
use sinew_nobench::{generate_one, NoBenchConfig};

/// splitmix64 — the benchmark's only source of randomness.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// The sparse key Q9 filters on, the key the §6.6 update filters on and
/// the key it sets (same cluster group, so the update overwrites a value).
pub const SPARSE_PRED_KEY: &str = "sparse_110";
pub const UPDATE_WHERE_KEY: &str = "sparse_120";
pub const UPDATE_SET_KEY: &str = "sparse_129";

/// What the oracle needs of one document, lifted out of its JSON value.
#[derive(Debug, Clone, PartialEq)]
pub struct Doc {
    pub str1: String,
    pub num: i64,
    pub nested_str: String,
    /// `dyn1` when it is an integer (strings and booleans never satisfy
    /// Q7's numeric range).
    pub dyn1_int: Option<i64>,
    pub arr: Vec<String>,
    pub thousandth: i64,
    pub sparse_pred: Option<String>,
    pub update_where: Option<String>,
}

impl Doc {
    pub fn of(v: &Value) -> Doc {
        let text = |path: &str| v.get_path(path).and_then(Value::as_str).map(str::to_string);
        let int = |key: &str| v.get(key).and_then(Value::as_int);
        Doc {
            str1: text("str1").expect("NoBench doc has str1"),
            num: int("num").expect("NoBench doc has num"),
            nested_str: text("nested_obj.str").expect("NoBench doc has nested_obj.str"),
            dyn1_int: int("dyn1"),
            arr: v
                .get("nested_arr")
                .and_then(Value::as_array)
                .map(|a| {
                    a.iter()
                        .filter_map(Value::as_str)
                        .map(str::to_string)
                        .collect()
                })
                .unwrap_or_default(),
            thousandth: int("thousandth").expect("NoBench doc has thousandth"),
            sparse_pred: text(SPARSE_PRED_KEY),
            update_where: text(UPDATE_WHERE_KEY),
        }
    }
}

/// The documents of one run: `base` are loaded before the window, later
/// indices are generated on demand for inserts.
pub struct Dataset {
    cfg: NoBenchConfig,
    base: u64,
    pub values: Vec<Value>,
    pub docs: Vec<Doc>,
}

impl Dataset {
    pub fn generate(seed: u64, base: u64) -> Dataset {
        let cfg = NoBenchConfig {
            seed,
            ..NoBenchConfig::default()
        };
        let values: Vec<Value> = (0..base).map(|i| generate_one(i, base, &cfg)).collect();
        let docs = values.iter().map(Doc::of).collect();
        Dataset {
            cfg,
            base,
            values,
            docs,
        }
    }

    /// Generate documents until `upto` exist. Document `i >= base` is
    /// generated as record `i` of a `base`-record dataset, so its `str1`
    /// is unique and its `nested_obj.str` joins with a base record.
    pub fn ensure(&mut self, upto: usize) {
        while self.values.len() < upto {
            let v = generate_one(self.values.len() as u64, self.base, &self.cfg);
            self.docs.push(Doc::of(&v));
            self.values.push(v);
        }
    }

    pub fn base_len(&self) -> usize {
        self.base as usize
    }

    /// Newline-delimited JSON of `values[range]`.
    pub fn jsonl(&self, range: std::ops::Range<usize>) -> String {
        let lines: Vec<String> = self.values[range].iter().map(Value::to_json).collect();
        lines.join("\n")
    }
}

/// Share of the collection each ranged statement selects.
#[derive(Debug, Clone, Copy)]
pub struct Selectivity {
    pub q6_num: f64,
    pub q7_dyn: f64,
    pub q10_agg: f64,
    pub q11_join: f64,
}

/// NoBench's own shares (`QueryParams::derive`): the scan-heavy profile.
pub const SCAN: Selectivity = Selectivity {
    q6_num: 0.10,
    q7_dyn: 0.10,
    q10_agg: 0.25,
    q11_join: 0.02,
};
/// Short statements for the serving workload.
pub const SERVING: Selectivity = Selectivity {
    q6_num: 0.005,
    q7_dyn: 0.005,
    q10_agg: 0.02,
    q11_join: 0.005,
};

/// One concrete set of statement parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct ParamSet {
    pub point_str1: String,
    pub num: (i64, i64),
    pub dyn1: (i64, i64),
    pub arr_elem: String,
    pub sparse_val: String,
    pub agg: (i64, i64),
    pub join: (i64, i64),
    pub update_val: String,
}

/// An inclusive range over the sorted `values` that covers `share` of
/// them, placed at random: the bounds are data values, so every seed
/// selects the same number of rows (up to ties at the edges).
fn ranked_range(sorted: &[i64], share: f64, rng: &mut Rng) -> (i64, i64) {
    let want = ((sorted.len() as f64 * share).round() as usize).clamp(1, sorted.len());
    let start = rng.below(sorted.len() - want + 1);
    (sorted[start], sorted[start + want - 1])
}

/// `count` parameter sets drawn from the first `base` documents.
pub fn derive_params(docs: &[Doc], sel: Selectivity, rng: &mut Rng, count: usize) -> Vec<ParamSet> {
    let mut nums: Vec<i64> = docs.iter().map(|d| d.num).collect();
    nums.sort_unstable();
    let mut dyns: Vec<i64> = docs.iter().filter_map(|d| d.dyn1_int).collect();
    dyns.sort_unstable();
    let pred: Vec<&String> = docs.iter().filter_map(|d| d.sparse_pred.as_ref()).collect();
    let upd: Vec<&String> = docs
        .iter()
        .filter_map(|d| d.update_where.as_ref())
        .collect();
    assert!(
        !pred.is_empty() && !upd.is_empty(),
        "need >= 100 documents for the sparse keys"
    );
    (0..count)
        .map(|_| {
            let d = &docs[rng.below(docs.len())];
            let a = &docs[rng.below(docs.len())];
            ParamSet {
                point_str1: d.str1.clone(),
                num: ranked_range(&nums, sel.q6_num, rng),
                dyn1: ranked_range(&dyns, sel.q7_dyn, rng),
                arr_elem: a.arr[rng.below(a.arr.len())].clone(),
                sparse_val: pred[rng.below(pred.len())].clone(),
                agg: ranked_range(&nums, sel.q10_agg, rng),
                join: ranked_range(&nums, sel.q11_join, rng),
                update_val: upd[rng.below(upd.len())].clone(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_and_parameters() {
        let a = Dataset::generate(7, 300);
        let b = Dataset::generate(7, 300);
        assert_eq!(a.values, b.values);
        assert_eq!(a.docs, b.docs);
        let pa = derive_params(&a.docs, SCAN, &mut Rng::new(7), 8);
        let pb = derive_params(&b.docs, SCAN, &mut Rng::new(7), 8);
        assert_eq!(pa, pb);
        let c = Dataset::generate(8, 300);
        assert_ne!(a.values, c.values);
        assert_ne!(pa, derive_params(&c.docs, SCAN, &mut Rng::new(8), 8));
    }

    #[test]
    fn extra_documents_are_deterministic_and_unique() {
        let mut a = Dataset::generate(7, 200);
        let mut b = Dataset::generate(7, 200);
        a.ensure(260);
        b.ensure(230);
        b.ensure(260);
        assert_eq!(a.values, b.values);
        let mut keys: Vec<&str> = a.docs.iter().map(|d| d.str1.as_str()).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), 260);
        assert_eq!(a.jsonl(0..2).lines().count(), 2);
    }

    #[test]
    fn ranked_ranges_select_the_asked_share() {
        let data = Dataset::generate(3, 1000);
        for p in derive_params(&data.docs, SCAN, &mut Rng::new(3), 16) {
            let hits = data
                .docs
                .iter()
                .filter(|d| d.num >= p.num.0 && d.num <= p.num.1)
                .count();
            // 100 by rank; ties at either edge can only add rows
            assert!((100..=110).contains(&hits), "{hits}");
            assert!(data.docs.iter().any(|d| d.str1 == p.point_str1));
            assert!(data
                .docs
                .iter()
                .any(|d| d.update_where.as_deref() == Some(&p.update_val)));
        }
    }
}
