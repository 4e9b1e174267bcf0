//! Value tests (DESIGN.md §27): a predicate over a bound extraction is
//! answered from the serialized value in place instead of decoding it.
//!
//! * a differential over random documents — every `ValueTest` shape, want
//!   and literal, plain and under `NOT` — against decode-then-compare,
//!   the same expression with the test left out;
//! * NoBench's filtered statements over an all-virtual collection against
//!   a twin whose keys are physical columns, at one and two exec threads;
//! * the plan's row estimates are the ones costed before the tests were
//!   planted: the opaque defaults unanalyzed, the analyzer's sampled
//!   distinct counts after, kept per collection.

use proptest::prelude::*;
use sinew_core::types::{encode_array, ArrayElem};
use sinew_core::{AnalyzerPolicy, AttrType, Sinew};
use sinew_json::Value;
use sinew_nobench::gen::{generate, NoBenchConfig};
use sinew_nobench::queries::QueryParams;
use sinew_rdbms::expr::{bind, PhysExpr, Scope};
use sinew_rdbms::func::FuncRegistry;
use sinew_rdbms::{Datum, ExecLimits};
use sinew_serial::sinew::encode_raw_pairs;
use sinew_sql::BinaryOp;

// ---------------------------------------------------------------------
// Differential: each test against decode-then-compare
// ---------------------------------------------------------------------

const TYPES: [AttrType; 6] = [
    AttrType::Bool,
    AttrType::Int,
    AttrType::Float,
    AttrType::Text,
    AttrType::Object,
    AttrType::Array,
];

const WANTS: [&str; 8] = ["b", "i", "f", "num", "t", "txt", "obj", "arr"];

/// Integers and floats where an inexact Int↔Float comparison goes wrong:
/// 2^53 + 1 and i64::MAX round to the floats 2^53 and 2^63 beside them.
const INTS: [i64; 6] = [0, -1, i64::MIN, i64::MAX, (1 << 53) + 1, -(1 << 53) - 1];
const FLOATS: [f64; 6] = [
    f64::NAN,
    -0.0,
    9_007_199_254_740_992.0,
    -9_007_199_254_740_992.0,
    f64::INFINITY,
    9_223_372_036_854_775_808.0,
];
const TEXTS: [&str; 4] = ["", "a", "ab", "é"];

fn int() -> impl Strategy<Value = i64> {
    (0usize..INTS.len()).prop_map(|i| INTS[i])
}

fn float() -> impl Strategy<Value = f64> {
    (0usize..FLOATS.len()).prop_map(|i| FLOATS[i])
}

fn text() -> impl Strategy<Value = String> {
    (0usize..TEXTS.len()).prop_map(|i| TEXTS[i].to_string())
}

fn literal() -> impl Strategy<Value = Datum> {
    prop_oneof![
        Just(Datum::Null),
        any::<bool>().prop_map(Datum::Bool),
        int().prop_map(Datum::Int),
        float().prop_map(Datum::Float),
        text().prop_map(Datum::Text),
    ]
}

fn scalar_elem() -> impl Strategy<Value = ArrayElem> {
    prop_oneof![
        Just(ArrayElem::Null),
        any::<bool>().prop_map(ArrayElem::Bool),
        int().prop_map(ArrayElem::Int),
        float().prop_map(ArrayElem::Float),
        text().prop_map(ArrayElem::Text),
        // a document element: an empty serialized document
        Just(ArrayElem::Doc(encode_raw_pairs(&[]))),
    ]
}

fn array() -> impl Strategy<Value = Vec<ArrayElem>> {
    let nested = prop::collection::vec(scalar_elem(), 0..3).prop_map(ArrayElem::Array);
    prop::collection::vec(prop_oneof![scalar_elem(), scalar_elem(), nested], 0..5)
}

/// `bytes` with its last byte replaced by one that is never UTF-8.
fn spoil_last(mut bytes: Vec<u8>) -> Vec<u8> {
    let last = bytes.len() - 1;
    bytes[last] = 0xff;
    bytes
}

/// The tested key's raw value under `ty`: well formed two times in three,
/// otherwise corrupt — wrong width, invalid UTF-8, or an array truncated,
/// mistagged or holding invalid UTF-8 at the top level or nested.
fn raw(ty: AttrType) -> BoxedStrategy<Vec<u8>> {
    match ty {
        AttrType::Bool => prop_oneof![
            any::<bool>().prop_map(|b| vec![b as u8]),
            any::<bool>().prop_map(|b| vec![b as u8]),
            Just(vec![]),
        ]
        .boxed(),
        AttrType::Int => prop_oneof![
            int().prop_map(|i| i.to_le_bytes().to_vec()),
            int().prop_map(|i| i.to_le_bytes().to_vec()),
            Just(vec![1, 2, 3]),
        ]
        .boxed(),
        AttrType::Float => prop_oneof![
            float().prop_map(|f| f.to_le_bytes().to_vec()),
            float().prop_map(|f| f.to_le_bytes().to_vec()),
            Just(vec![0; 9]),
        ]
        .boxed(),
        AttrType::Text => prop_oneof![
            text().prop_map(String::into_bytes),
            text().prop_map(String::into_bytes),
            Just(vec![b'a', 0xff, 0xfe]),
        ]
        .boxed(),
        AttrType::Array => prop_oneof![
            array().prop_map(|a| encode_array(&a)),
            array().prop_map(|a| encode_array(&a)),
            array().prop_map(|a| encode_array(&a)),
            array().prop_map(|a| {
                let mut bytes = encode_array(&a);
                bytes.truncate(bytes.len() - 1);
                bytes
            }),
            Just(vec![1, 0, 0, 0, 9]),
            Just(spoil_last(encode_array(&[ArrayElem::Int(1), ArrayElem::Text("ab".into())]))),
            Just(spoil_last(encode_array(&[ArrayElem::Array(vec![ArrayElem::Text("ab".into())])]))),
        ]
        .boxed(),
        AttrType::Object => Just(encode_raw_pairs(&[])).boxed(),
    }
}

/// The tested key's variants in one document: each type present half the
/// time, so a document often carries several (a multi-typed key).
fn variants() -> impl Strategy<Value = Vec<(AttrType, Vec<u8>)>> {
    let one =
        |ty: AttrType| (any::<bool>(), raw(ty)).prop_map(move |(on, raw)| on.then_some((ty, raw)));
    (one(TYPES[0]), one(TYPES[1]), one(TYPES[2]), one(TYPES[3]), one(TYPES[4]), one(TYPES[5]))
        .prop_map(|(a, b, c, d, e, f)| [a, b, c, d, e, f].into_iter().flatten().collect())
}

/// The predicate shapes the planner offers, over `call`.
#[derive(Debug, Clone)]
enum Shape {
    Cmp { op: BinaryOp, lit: Datum, flipped: bool },
    Between { lo: Datum, hi: Datum, negated: bool },
    Contains(Datum),
    IsNull { negated: bool },
}

const OPS: [BinaryOp; 6] =
    [BinaryOp::Eq, BinaryOp::NotEq, BinaryOp::Lt, BinaryOp::LtEq, BinaryOp::Gt, BinaryOp::GtEq];

fn shape() -> impl Strategy<Value = Shape> {
    prop_oneof![
        (0usize..OPS.len(), literal(), any::<bool>()).prop_map(|(op, lit, flipped)| Shape::Cmp {
            op: OPS[op],
            lit,
            flipped
        }),
        (literal(), literal(), any::<bool>()).prop_map(|(lo, hi, negated)| Shape::Between {
            lo,
            hi,
            negated
        }),
        literal().prop_map(Shape::Contains),
        any::<bool>().prop_map(|negated| Shape::IsNull { negated }),
    ]
}

fn build(shape: &Shape, call: PhysExpr, funcs: &FuncRegistry) -> PhysExpr {
    let lit = |d: &Datum| Box::new(PhysExpr::Literal(d.clone()));
    match shape {
        Shape::Cmp { op, lit: d, flipped: false } => {
            PhysExpr::Binary { op: *op, left: Box::new(call), right: lit(d) }
        }
        Shape::Cmp { op, lit: d, flipped: true } => {
            PhysExpr::Binary { op: *op, left: lit(d), right: Box::new(call) }
        }
        Shape::Between { lo, hi, negated } => PhysExpr::Between {
            expr: Box::new(call),
            low: lit(lo),
            high: lit(hi),
            negated: *negated,
        },
        Shape::Contains(d) => PhysExpr::Call {
            name: "array_contains".into(),
            func: funcs.get("array_contains").unwrap(),
            args: vec![call, PhysExpr::Literal(d.clone())],
        },
        Shape::IsNull { negated } => PhysExpr::IsNull { expr: Box::new(call), negated: *negated },
    }
}

/// A catalog knowing every type of `k` and `o.k`, and the object `o`.
fn catalog() -> Sinew {
    let s = Sinew::in_memory();
    for name in ["k", "o.k"] {
        for ty in TYPES {
            s.catalog().intern(name, ty);
        }
    }
    s.catalog().intern("o", AttrType::Object);
    s
}

/// The document: the variants under `path`'s ids, nested in `o` when the
/// path is `o.k` and `nest` says so (otherwise the holder is the root, as
/// for a materialized parent's column).
fn document(s: &Sinew, path: &str, variants: &[(AttrType, Vec<u8>)], nest: bool) -> Vec<u8> {
    let pairs: Vec<(u32, &[u8])> = variants
        .iter()
        .map(|(ty, raw)| (s.catalog().lookup(path, *ty).unwrap(), raw.as_slice()))
        .collect();
    let leaf = encode_raw_pairs(&pairs);
    if path == "o.k" && nest {
        encode_raw_pairs(&[(s.catalog().lookup("o", AttrType::Object).unwrap(), &leaf)])
    } else {
        leaf
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10_000))]

    #[test]
    fn each_value_test_equals_decode_then_compare(
        variants in variants(),
        (want, nested_path, nest) in (0usize..WANTS.len(), any::<bool>(), any::<bool>()),
        shape in shape(),
        negate in any::<bool>(),
    ) {
        let s = catalog();
        let path = if nested_path { "o.k" } else { "k" };
        let bytes = document(&s, path, &variants, nest);
        let mut scope = Scope::default();
        scope.push(None, "data");
        let call_sql = format!("extract_key_{}(data, '{path}')", WANTS[want]);
        let call = bind(&sinew_sql::parse_expr(&call_sql).unwrap(), &scope, s.db().functions())
            .unwrap();
        let mut decoded = build(&shape, call, s.db().functions());
        if negate {
            decoded = PhysExpr::Not(Box::new(decoded));
        }
        let mut tested = decoded.clone();
        tested.offer_value_tests();
        let taken = format!("{tested:?}").contains("test[");
        let takes = match WANTS[want] {
            "txt" | "obj" => false,
            "arr" => true,
            _ => !matches!(shape, Shape::Contains(_)),
        };
        prop_assert_eq!(taken, takes, "{:?}", tested);
        for row in [vec![Datum::Bytea(bytes.clone())], vec![Datum::Null]] {
            let (want_v, got) = (decoded.eval(&row), tested.eval(&row));
            match (&want_v, &got) {
                (Ok(a), Ok(b)) => prop_assert_eq!(a, b, "{:?} over {:?}", decoded, variants),
                (Err(_), Err(_)) => {}
                _ => prop_assert!(false, "{decoded:?}: {want_v:?} vs {got:?} over {variants:?}"),
            }
        }
    }
}

// ---------------------------------------------------------------------
// NoBench's filtered statements against a physical twin
// ---------------------------------------------------------------------

const DOCS: u64 = 1_500;

/// The keys the statements below read.
const KEYS: [&str; 7] =
    ["str1", "num", "nested_obj", "dyn1", "nested_arr", "thousandth", "sparse_110"];

fn nobench_docs() -> Vec<Value> {
    generate(DOCS, &NoBenchConfig::default())
}

fn statements(p: &QueryParams) -> Vec<String> {
    let select = r#"SELECT str1, num, "nested_obj.str" FROM nobench"#;
    vec![
        format!("{select} WHERE str1 = '{}'", p.point_str1),
        format!("{select} WHERE num BETWEEN {} AND {}", p.num_lo, p.num_lo + p.num_width),
        format!("{select} WHERE dyn1 BETWEEN {} AND {}", p.dyn_lo, p.dyn_lo + p.dyn_width),
        format!("{select} WHERE array_contains(nested_arr, '{}')", p.arr_elem),
        format!("{select} WHERE {} = '{}'", p.sparse_pred_key, p.sparse_pred_val),
        format!(
            "SELECT thousandth, COUNT(*) FROM nobench WHERE num BETWEEN {} AND {} \
             GROUP BY thousandth ORDER BY thousandth",
            p.agg_lo,
            p.agg_lo + p.agg_width
        ),
        format!(
            r#"SELECT l.str1, r.num FROM nobench l, nobench r
               WHERE l."nested_obj.str" = r.str1 AND l.num BETWEEN {} AND {}"#,
            p.join_lo,
            p.join_lo + p.join_width
        ),
        "SELECT str1 FROM nobench WHERE sparse_110 IS NOT NULL".into(),
        "SELECT COUNT(*) FROM nobench WHERE sparse_110 IS NULL".into(),
        format!("SELECT COUNT(*) FROM nobench WHERE NOT (num < {})", p.num_lo),
        format!("SELECT str1 FROM nobench WHERE {} > num OR str1 <= 'B'", p.num_lo / 2),
    ]
}

fn sorted(mut rows: Vec<Vec<Datum>>) -> Vec<Vec<Datum>> {
    rows.sort_by(|a, b| {
        a.iter()
            .zip(b)
            .map(|(x, y)| x.total_cmp(y))
            .find(|o| o.is_ne())
            .unwrap_or(a.len().cmp(&b.len()))
    });
    rows
}

#[test]
fn nobench_filters_over_tests_match_a_physical_twin() {
    let docs = nobench_docs();
    let params = QueryParams::derive(&docs, &NoBenchConfig::default());
    let virt = Sinew::in_memory();
    virt.create_collection("nobench").unwrap();
    virt.load_docs("nobench", &docs).unwrap();
    // The twin holds only the keys read, each a clean physical column.
    let twin = Sinew::in_memory();
    twin.create_collection("nobench").unwrap();
    let narrow: Vec<Value> = docs
        .iter()
        .map(|d| {
            let Value::Object(pairs) = d else { unreachable!() };
            Value::Object(
                pairs.iter().filter(|(k, _)| KEYS.contains(&k.as_str())).cloned().collect(),
            )
        })
        .collect();
    twin.load_docs("nobench", &narrow).unwrap();
    let all =
        AnalyzerPolicy { density_threshold: 0.0, cardinality_threshold: 0, sample_rows: DOCS };
    twin.run_analyzer("nobench", &all).unwrap();
    twin.materialize_until_clean("nobench").unwrap();

    for sql in statements(&params) {
        let plan = virt.explain(&sql).unwrap();
        assert!(plan.contains("test[extract_key_"), "{sql}: no value test in\n{plan}");
        let twin_plan = twin.explain(&sql).unwrap();
        assert!(!twin_plan.contains("extract_key"), "{sql}: twin reads the reservoir\n{twin_plan}");
        let want = sorted(twin.query(&sql).unwrap().rows);
        for threads in [1, 2] {
            virt.db()
                .set_exec_limits(ExecLimits { exec_threads: threads, ..ExecLimits::default() });
            let before = virt.metrics().snapshot().udf_value_tests;
            let got = sorted(virt.query(&sql).unwrap().rows);
            assert_eq!(got, want, "{sql} at {threads} threads");
            assert!(virt.metrics().snapshot().udf_value_tests > before, "{sql}: nothing tested");
        }
    }
}

// ---------------------------------------------------------------------
// Estimates are costed before the tests are planted
// ---------------------------------------------------------------------

/// The row estimate of the plan's first node that filters.
fn filter_rows(plan: &str) -> f64 {
    let line = plan
        .lines()
        .zip(plan.lines().skip(1))
        .find(|(_, next)| next.trim_start().starts_with("Filter: test["))
        .map(|(node, _)| node)
        .unwrap_or_else(|| panic!("no tested filter in\n{plan}"));
    let at = line.find("rows=").unwrap() + 5;
    let digits: String =
        line[at..].chars().take_while(|c| c.is_ascii_digit() || *c == '.').collect();
    digits.parse().unwrap()
}

#[test]
fn tests_keep_the_costed_estimates() {
    let docs = nobench_docs();
    let p = QueryParams::derive(&docs, &NoBenchConfig::default());
    let s = Sinew::in_memory();
    s.create_collection("nobench").unwrap();
    s.load_docs("nobench", &docs).unwrap();
    let select = r#"SELECT str1, num, "nested_obj.str" FROM nobench"#;
    let q5 = format!("{select} WHERE str1 = '{}'", p.point_str1);
    let q8 = format!("{select} WHERE array_contains(nested_arr, '{}')", p.arr_elem);
    let q9 = format!("{select} WHERE {} = '{}'", p.sparse_pred_key, p.sparse_pred_val);
    let rows = |sql: &str| filter_rows(&s.explain(sql).unwrap());
    // Unanalyzed: the opaque defaults of paper Table 2, an equality 200
    // rows and a bare boolean call a third of the table.
    for q in [&q5, &q9] {
        assert_eq!(rows(q), 200.0, "{q}\n{}", s.explain(q).unwrap());
    }
    assert_eq!(rows(&q8), (DOCS as f64 * 0.3333).round(), "{}", s.explain(&q8).unwrap());
    // An analyzer pass that materializes nothing feeds the sampled distinct
    // counts of the dense keys: `str1` is unique, the sparse key has none.
    let hints_only = AnalyzerPolicy {
        density_threshold: 0.5,
        cardinality_threshold: u64::MAX,
        sample_rows: DOCS,
    };
    s.run_analyzer("nobench", &hints_only).unwrap();
    let nd = s.db().planner_config().key_ndistinct["nobench"]["str1"];
    assert!(nd > 1.0);
    assert_eq!(rows(&q5), (DOCS as f64 / nd).max(1.0).round(), "{}", s.explain(&q5).unwrap());
    assert_eq!(rows(&q9), 200.0);
    assert_eq!(rows(&q8), (DOCS as f64 * 0.3333).round());
}

/// Two collections sharing a key name keep their own sampled distinct
/// counts: analyzing one does not change the other's estimates.
#[test]
fn key_ndistinct_hints_are_per_collection() {
    let s = Sinew::in_memory();
    for (table, distinct) in [("wide", 1000), ("narrow", 4)] {
        s.create_collection(table).unwrap();
        let docs: String = (0..1000).map(|i| format!("{{\"id\": {}}}\n", i % distinct)).collect();
        s.load_jsonl(table, &docs).unwrap();
    }
    let policy = AnalyzerPolicy {
        density_threshold: 0.5,
        cardinality_threshold: u64::MAX,
        sample_rows: 1000,
    };
    let estimate = |table: &str| {
        filter_rows(&s.explain(&format!("SELECT * FROM {table} WHERE id = 3")).unwrap())
    };
    s.run_analyzer("wide", &policy).unwrap();
    assert_eq!(estimate("wide"), 1.0);
    s.run_analyzer("narrow", &policy).unwrap();
    assert_eq!(estimate("narrow"), 250.0);
    assert_eq!(estimate("wide"), 1.0, "the narrow collection's hint replaced the wide one's");
    let hints = s.db().planner_config().key_ndistinct;
    assert_eq!((hints["wide"]["id"], hints["narrow"]["id"]), (1000.0, 4.0));
}
