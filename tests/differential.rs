//! Differential property tests: Sinew's full pipeline (serialize → catalog
//! → rewrite → plan → execute, with and without materialization) must agree
//! with a direct evaluation of the same predicate over the raw JSON
//! documents — under whichever executor configuration the case draws — and
//! with the plan-free reference evaluating the rewritten statement.

use proptest::prelude::*;
use sinew::core::AnalyzerPolicy;
use sinew::json::Value;
use sinew::rdbms::ExecLimits;
use sinew::Sinew;

/// The executor configurations a case may run under: block sizes that put
/// a boundary after every row, after every third, and nowhere in these
/// collections, serial and four-way parallel.
fn arb_limits() -> impl Strategy<Value = ExecLimits> {
    (prop_oneof![Just(1usize), Just(3), Just(1024)], prop_oneof![Just(1usize), Just(4)])
        .prop_map(|(block_rows, exec_threads)| ExecLimits {
            block_rows,
            exec_threads,
            ..ExecLimits::default()
        })
}

fn sinew_under(limits: ExecLimits) -> Sinew {
    let sinew = Sinew::in_memory();
    sinew.db().set_exec_limits(limits);
    sinew
}

/// `sql`'s rows, which must agree with the reference's answer to the
/// statement the rewriter made of it.
fn query_checked(sinew: &Sinew, sql: &str) -> Vec<Vec<sinew::Datum>> {
    let got = sinew.query(sql).map(|r| r.rows);
    let physical = sinew.rewrite(sql).unwrap();
    let want = sinew_reference::query(sinew.db(), &physical);
    if let Err(e) = sinew_reference::agree(&got, &want) {
        panic!("{sql} (rewritten: {physical}) disagrees with the reference: {e}");
    }
    got.unwrap()
}

/// A generated document: a handful of keys from a small universe so that
/// predicates actually hit.
fn arb_doc() -> impl Strategy<Value = Value> {
    let scalar = prop_oneof![
        (0i64..20).prop_map(Value::Int),
        "[a-d]{1,3}".prop_map(Value::Str),
        any::<bool>().prop_map(Value::Bool),
        (0u8..40).prop_map(|x| Value::Float(x as f64 / 4.0)),
    ];
    prop::collection::btree_map("[kmnp]", scalar.clone(), 0..4).prop_flat_map(move |top| {
        let top_pairs: Vec<(String, Value)> = top.into_iter().collect();
        prop::collection::btree_map("[xy]", scalar.clone(), 0..3).prop_map(move |nested| {
            let mut pairs = top_pairs.clone();
            if !nested.is_empty() {
                pairs.push((
                    "obj".to_string(),
                    Value::Object(nested.iter().map(|(k, v)| (k.clone(), v.clone())).collect()),
                ));
            }
            Value::Object(pairs)
        })
    })
}

/// A simple predicate over one (possibly nested) key.
#[derive(Debug, Clone)]
enum Pred {
    IntCmp { path: String, op: &'static str, value: i64 },
    StrEq { path: String, value: String },
    NotNull { path: String },
}

fn arb_pred() -> impl Strategy<Value = Pred> {
    let path = prop_oneof![
        "[kmnp]".prop_map(|s| s),
        "[xy]".prop_map(|s| format!("obj.{s}")),
    ];
    prop_oneof![
        (path.clone(), prop_oneof![Just("="), Just("<"), Just(">")], 0i64..20)
            .prop_map(|(path, op, value)| Pred::IntCmp { path, op, value }),
        (path.clone(), "[a-d]{1,3}").prop_map(|(path, value)| Pred::StrEq { path, value }),
        path.prop_map(|path| Pred::NotNull { path }),
    ]
}

impl Pred {
    fn to_sql(&self) -> String {
        let quote = |p: &str| {
            if p.contains('.') {
                format!("\"{p}\"")
            } else {
                p.to_string()
            }
        };
        match self {
            Pred::IntCmp { path, op, value } => format!("{} {op} {value}", quote(path)),
            Pred::StrEq { path, value } => format!("{} = '{value}'", quote(path)),
            Pred::NotNull { path } => format!("{} IS NOT NULL", quote(path)),
        }
    }

    /// Ground truth over the raw document, mirroring Sinew's typed
    /// extraction semantics: numeric contexts see numeric values only,
    /// text contexts see strings only; absent keys never match.
    fn eval(&self, doc: &Value) -> bool {
        match self {
            Pred::IntCmp { path, op, value } => match doc.get_path(path) {
                Some(Value::Int(i)) => match *op {
                    "=" => i == value,
                    "<" => i < value,
                    ">" => i > value,
                    _ => unreachable!(),
                },
                Some(Value::Float(f)) => match *op {
                    "=" => *f == *value as f64,
                    "<" => *f < *value as f64,
                    ">" => *f > *value as f64,
                    _ => unreachable!(),
                },
                _ => false,
            },
            Pred::StrEq { path, value } => {
                doc.get_path(path).and_then(Value::as_str) == Some(value.as_str())
            }
            Pred::NotNull { path } => doc.get_path(path).is_some(),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn sinew_count_matches_direct_evaluation(
        docs in prop::collection::vec(arb_doc(), 1..40),
        pred in arb_pred(),
        materialize in any::<bool>(),
        limits in arb_limits(),
    ) {
        let expected = docs.iter().filter(|d| pred.eval(d)).count() as i64;

        let sinew = sinew_under(limits);
        sinew.create_collection("t").unwrap();
        sinew.load_docs("t", &docs).unwrap();
        if materialize {
            // aggressive policy: materialize whatever it can
            let policy = AnalyzerPolicy {
                density_threshold: 0.0,
                cardinality_threshold: 0,
                sample_rows: 1000,
            };
            sinew.run_analyzer("t", &policy).unwrap();
            sinew.materialize_until_clean("t").unwrap();
        }
        let sql = format!("SELECT COUNT(*) FROM t WHERE {}", pred.to_sql());
        let rows = query_checked(&sinew, &sql);
        prop_assert_eq!(
            rows[0][0].clone(),
            sinew::Datum::Int(expected),
            "query: {}; materialized: {}; {:?}",
            sql,
            materialize,
            limits
        );
    }

    #[test]
    fn select_star_roundtrips_documents(
        docs in prop::collection::vec(arb_doc(), 1..20),
        limits in arb_limits(),
    ) {
        // doc_to_json over the reservoir must reproduce each document up to
        // key order (the §4.1 format sorts attributes by dictionary id, so
        // document key order is intentionally not preserved)
        fn normalize(v: &Value) -> Value {
            match v {
                Value::Object(pairs) => {
                    let mut sorted: Vec<(String, Value)> =
                        pairs.iter().map(|(k, val)| (k.clone(), normalize(val))).collect();
                    sorted.sort_by(|a, b| a.0.cmp(&b.0));
                    Value::Object(sorted)
                }
                Value::Array(items) => Value::Array(items.iter().map(normalize).collect()),
                other => other.clone(),
            }
        }
        let sinew = sinew_under(limits);
        sinew.create_collection("t").unwrap();
        sinew.load_docs("t", &docs).unwrap();
        let r = sinew.query("SELECT doc_to_json(data) FROM t").unwrap();
        prop_assert_eq!(r.rows.len(), docs.len());
        for (row, doc) in r.rows.iter().zip(&docs) {
            let rendered = sinew::json::parse(&row[0].display_text()).unwrap();
            prop_assert_eq!(normalize(&rendered), normalize(doc));
        }
    }

    #[test]
    fn mid_materialization_queries_agree(
        docs in prop::collection::vec(arb_doc(), 4..30),
        pred in arb_pred(),
        budget in 1u64..10,
        limits in arb_limits(),
    ) {
        let expected = docs.iter().filter(|d| pred.eval(d)).count() as i64;
        let sinew = sinew_under(limits);
        sinew.create_collection("t").unwrap();
        sinew.load_docs("t", &docs).unwrap();
        let policy = AnalyzerPolicy {
            density_threshold: 0.0,
            cardinality_threshold: 0,
            sample_rows: 1000,
        };
        sinew.run_analyzer("t", &policy).unwrap();
        // run the materializer in bounded steps, checking after every step
        let sql = format!("SELECT COUNT(*) FROM t WHERE {}", pred.to_sql());
        for _ in 0..200 {
            let rows = query_checked(&sinew, &sql);
            prop_assert_eq!(
                rows[0][0].clone(),
                sinew::Datum::Int(expected),
                "query: {}; {:?}",
                sql,
                limits
            );
            let report = sinew
                .materialize_step("t", sinew::core::StepBudget { rows: budget })
                .unwrap();
            if report.rows_scanned == 0
                && sinew.logical_schema("t").iter().all(|c| !c.dirty)
            {
                break;
            }
        }
        let r = sinew.query(&sql).unwrap();
        prop_assert_eq!(r.rows[0][0].clone(), sinew::Datum::Int(expected));
    }
}
