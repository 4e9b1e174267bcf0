//! Registration of Sinew's user-defined functions in the RDBMS (paper §5:
//! "The data serialization is implemented through a set of user-defined
//! functions ... as well as functions to extract an individual value
//! corresponding to a given key").
//!
//! Installed functions (all take the reservoir `data` as first argument):
//!
//! | SQL name            | returns | semantics |
//! |---------------------|---------|-----------|
//! | `extract_key_b/i/f` | typed   | NULL on absence or type mismatch |
//! | `extract_key_num`   | int/float | numeric contexts (SUM, joins) |
//! | `extract_key_t`     | text    | text-typed values only |
//! | `extract_key_txt`   | text    | any type, downcast to text |
//! | `extract_key_obj`   | bytea   | nested object (serialized) |
//! | `extract_key_arr`   | array   | array as the RDBMS array datatype |
//! | `extract_keys`      | array   | fused: k values in one document pass |
//! | `exists_key`        | bool    | key present under any type |
//! | `set_key`           | bytea   | reservoir with key set (UPDATEs) |
//! | `remove_key`        | bytea   | reservoir with key removed |
//! | `doc_to_json`       | text    | whole document back to JSON |
//! | `__sinew_rowid_set` | bool    | rowid ∈ registered text-index result |
//!
//! **Bound calls.** `extract_key_*`, `extract_keys`, `exists_key` and
//! `__sinew_rowid_set` implement [`ScalarFn::bind`]: when the statement's
//! binder meets a call site whose path (specs, handle) arguments are
//! literals — every call the rewriter emits — the function it plants there
//! holds the resolved [`ExtractionPlan`] / [`MultiExtractionPlan`] / row-id
//! set, and the per-row `call_ref` is that object's own method plus one
//! relaxed counter add. Binding has no side effect (the planner may bind a
//! call site more than once): a plan is built, a set's `Arc` is cloned. A path that is not a literal (raw SQL) or specs
//! that do not parse leave the registered function in place, which
//! resolves on every call and reports a malformed argument where it is
//! evaluated (DESIGN.md §22).

use crate::catalog::Catalog;
use crate::extract::{self, Want};
use crate::metrics::Metrics;
use crate::plan::{ExtractionPlan, MultiExtractionPlan};
use parking_lot::RwLock;
use sinew_rdbms::{Database, Datum, DbError, DbResult, ScalarFn};
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Weak};

/// Row-id sets produced by rewrite-time text-index searches, by handle.
/// An entry lives from the rewrite that registered it until the caller of
/// that rewrite has run the statement; a bind only clones the `Arc`.
pub(crate) type RowIdSets = Arc<RwLock<HashMap<String, Arc<HashSet<i64>>>>>;

pub(crate) fn install(
    db: &Arc<Database>,
    catalog: &Arc<Catalog>,
    rowid_sets: &RowIdSets,
    metrics: &Arc<Metrics>,
) {
    // The path-taking functions resolve their path when the call site
    // binds, in `ScalarFn::bind`, and implement `call_ref` natively: per row the
    // executor hands them the reservoir bytea by reference and they run
    // the plan they own — no lock, no lookup, no clone of the document,
    // one relaxed counter add.
    for (name, want) in [
        ("extract_key_b", Want::Bool),
        ("extract_key_i", Want::Int),
        ("extract_key_f", Want::Float),
        ("extract_key_num", Want::Num),
        ("extract_key_t", Want::Text),
        ("extract_key_txt", Want::AnyText),
        ("extract_key_obj", Want::Object),
        ("extract_key_arr", Want::Array),
    ] {
        // Pure: safe for the planner to memoize per row (CSE).
        db.register_udf_pure(name, Arc::new(ExtractKeyFn(PathCall::new(catalog, metrics, want))));
    }

    // Fused multi-key extraction: `extract_keys(data, k1, t1, k2, t2, ...)`
    // decodes the reservoir **once** per row and returns an array of the k
    // requested values (one per (key, type-tag) pair, in argument order).
    // The rewriter emits it when a query touches ≥2 virtual columns; the
    // planner's CSE pass memoizes the shared call so the per-output
    // `array_get(extract_keys(...), i)` projections cost one descent total.
    db.register_udf_pure(
        "extract_keys",
        Arc::new(ExtractKeysFn { cat: catalog.clone(), metrics: metrics.clone(), plan: None }),
    );

    db.register_udf_pure(
        "exists_key",
        Arc::new(ExistsKeyFn(PathCall::new(catalog, metrics, Want::AnyText))),
    );

    // set_key needs the database to intern new attributes; a Weak pointer
    // avoids the Database → registry → closure → Database cycle.
    let cat = catalog.clone();
    let weak_db: Weak<Database> = Arc::downgrade(db);
    db.register_udf(
        "set_key",
        Arc::new(move |args: &[Datum]| -> DbResult<Datum> {
            // (data, name, value [, skip]) — skip > 0 when `data` is a
            // materialized parent object's column rather than the reservoir
            let (data, path, value, skip) = match args {
                [d, Datum::Text(p), v] => (d, p, v, 0usize),
                [d, Datum::Text(p), v, Datum::Int(s)] => (d, p, v, *s as usize),
                _ => return Err(DbError::Eval("set_key expects (data, name, value [, skip])".into())),
            };
            let bytes = match data {
                Datum::Bytea(b) => b.as_slice(),
                Datum::Null => &[],
                other => {
                    return Err(DbError::Eval(format!("set_key over non-bytea {other}")))
                }
            };
            let base = if bytes.is_empty() {
                sinew_serial::sinew::encode(&sinew_serial::Doc::default())
            } else {
                bytes.to_vec()
            };
            if value.is_null() {
                return Ok(Datum::Bytea(extract::remove_path(&cat, &base, path, skip)?));
            }
            let db = weak_db
                .upgrade()
                .ok_or_else(|| DbError::Eval("database is shutting down".into()))?;
            Ok(Datum::Bytea(extract::set_path(&db, &cat, &base, path, skip, value)?))
        }),
    );

    let cat = catalog.clone();
    db.register_udf(
        "remove_key",
        Arc::new(move |args: &[Datum]| -> DbResult<Datum> {
            let (bytes, path, skip) = match args {
                [Datum::Bytea(b), Datum::Text(p)] => (b.as_slice(), p, 0usize),
                [Datum::Bytea(b), Datum::Text(p), Datum::Int(s)] => {
                    (b.as_slice(), p, *s as usize)
                }
                [Datum::Null, Datum::Text(_)] | [Datum::Null, Datum::Text(_), _] => {
                    return Ok(Datum::Null)
                }
                _ => return Err(DbError::Eval("remove_key expects (data, name [, skip])".into())),
            };
            Ok(Datum::Bytea(extract::remove_path(&cat, bytes, path, skip)?))
        }),
    );

    let cat = catalog.clone();
    db.register_udf_pure(
        "doc_to_json",
        Arc::new(move |args: &[Datum]| -> DbResult<Datum> {
            match args {
                [Datum::Null] => Ok(Datum::Null),
                [Datum::Bytea(bytes)] => {
                    Ok(Datum::Text(extract::doc_to_value(&cat, bytes, "").to_json()))
                }
                _ => Err(DbError::Eval("doc_to_json expects (data)".into())),
            }
        }),
    );

    db.register_udf(
        "__sinew_rowid_set",
        Arc::new(RowIdSetFn { sets: rowid_sets.clone(), set: None }),
    );
}

/// `args` borrowed, for a `call` that forwards to its `call_ref`.
fn by_ref(args: &[Datum]) -> Vec<&Datum> {
    args.iter().collect()
}

/// What `extract_key_*` and `exists_key` share: `(data, path)` arguments
/// and an [`ExtractionPlan`] for the path — owned when the path was a
/// literal at bind, resolved per call otherwise (raw SQL only: the
/// rewriter always emits a literal).
#[derive(Clone)]
struct PathCall {
    cat: Arc<Catalog>,
    metrics: Arc<Metrics>,
    want: Want,
    plan: Option<ExtractionPlan>,
}

impl PathCall {
    fn new(cat: &Arc<Catalog>, metrics: &Arc<Metrics>, want: Want) -> PathCall {
        PathCall { cat: cat.clone(), metrics: metrics.clone(), want, plan: None }
    }

    fn resolve(&self, path: &str) -> ExtractionPlan {
        self.metrics.plan_cache_misses.inc();
        ExtractionPlan::build(&self.cat, path, self.want)
    }

    /// This call with its path resolved, if the path is a text literal.
    fn bound(&self, consts: &[Option<&Datum>]) -> Option<PathCall> {
        let [_, Some(Datum::Text(path))] = consts else { return None };
        Some(PathCall { plan: Some(self.resolve(path)), ..self.clone() })
    }

    /// Run `f` over the document with the path's plan; `on_null` answers
    /// for a NULL document.
    fn run(
        &self,
        name: &str,
        args: &[&Datum],
        on_null: Datum,
        f: impl FnOnce(&ExtractionPlan, &[u8]) -> Datum,
    ) -> DbResult<Datum> {
        match args {
            [Datum::Bytea(bytes), Datum::Text(path)] => Ok(match &self.plan {
                Some(plan) => f(plan, bytes),
                None => f(&self.resolve(path), bytes),
            }),
            [Datum::Null, Datum::Text(_)] => Ok(on_null),
            _ => Err(DbError::Eval(format!("{name} expects (data, key_name)"))),
        }
    }
}

/// Single-key extraction UDF (`extract_key_*`).
struct ExtractKeyFn(PathCall);

impl ScalarFn for ExtractKeyFn {
    fn call(&self, args: &[Datum]) -> DbResult<Datum> {
        self.call_ref(&by_ref(args))
    }

    fn call_ref(&self, args: &[&Datum]) -> DbResult<Datum> {
        self.0.metrics.udf_extractions.inc();
        self.0.run("extract_key", args, Datum::Null, |plan, bytes| plan.extract(&self.0.cat, bytes))
    }

    fn bind(&self, consts: &[Option<&Datum>]) -> Option<Arc<dyn ScalarFn>> {
        Some(Arc::new(ExtractKeyFn(self.0.bound(consts)?)))
    }
}

/// `exists_key(data, path)`: is the key present under any type?
struct ExistsKeyFn(PathCall);

impl ScalarFn for ExistsKeyFn {
    fn call(&self, args: &[Datum]) -> DbResult<Datum> {
        self.call_ref(&by_ref(args))
    }

    fn call_ref(&self, args: &[&Datum]) -> DbResult<Datum> {
        self.0.metrics.udf_exists_probes.inc();
        self.0.run("exists_key", args, Datum::Bool(false), |plan, bytes| {
            Datum::Bool(plan.exists(bytes))
        })
    }

    fn bind(&self, consts: &[Option<&Datum>]) -> Option<Arc<dyn ScalarFn>> {
        Some(Arc::new(ExistsKeyFn(self.0.bound(consts)?)))
    }
}

/// Fused multi-key extraction UDF (`extract_keys`). With every key and tag
/// a literal it owns its [`MultiExtractionPlan`] from bind on; otherwise
/// (or when the literals are not valid specs) it parses and resolves per
/// call, so a malformed call errors where it is evaluated.
struct ExtractKeysFn {
    cat: Arc<Catalog>,
    metrics: Arc<Metrics>,
    plan: Option<MultiExtractionPlan>,
}

impl ExtractKeysFn {
    /// `(key, tag)` argument pairs → a resolved plan.
    fn resolve(&self, pairs: &[&Datum]) -> DbResult<MultiExtractionPlan> {
        if pairs.is_empty() || !pairs.len().is_multiple_of(2) {
            return Err(DbError::Eval(
                "extract_keys expects (data, key1, type1, key2, type2, ...)".into(),
            ));
        }
        let mut specs: Vec<(&str, Want)> = Vec::with_capacity(pairs.len() / 2);
        for pair in pairs.chunks_exact(2) {
            let [Datum::Text(path), Datum::Text(tag)] = pair else {
                return Err(DbError::Eval(
                    "extract_keys: key names and type tags must be text".into(),
                ));
            };
            let want = want_from_tag(tag)
                .ok_or_else(|| DbError::Eval(format!("extract_keys: unknown type tag {tag:?}")))?;
            specs.push((path.as_str(), want));
        }
        self.metrics.plan_cache_misses.inc();
        Ok(MultiExtractionPlan::build(&self.cat, &specs))
    }
}

impl ScalarFn for ExtractKeysFn {
    fn call(&self, args: &[Datum]) -> DbResult<Datum> {
        self.call_ref(&by_ref(args))
    }

    fn call_ref(&self, args: &[&Datum]) -> DbResult<Datum> {
        let per_call;
        let plan = match &self.plan {
            Some(plan) => plan,
            None => {
                per_call = self.resolve(args.get(1..).unwrap_or_default())?;
                &per_call
            }
        };
        self.metrics.udf_fused_extractions.inc();
        self.metrics.udf_fused_keys.add(plan.items.len() as u64);
        match args[0] {
            Datum::Null => Ok(Datum::Array(vec![Datum::Null; plan.items.len()])),
            Datum::Bytea(bytes) => Ok(Datum::Array(plan.extract_all(&self.cat, bytes))),
            other => Err(DbError::Eval(format!("extract_keys over non-bytea {other}"))),
        }
    }

    fn bind(&self, consts: &[Option<&Datum>]) -> Option<Arc<dyn ScalarFn>> {
        let pairs: Vec<&Datum> = consts.get(1..)?.iter().copied().collect::<Option<_>>()?;
        Some(Arc::new(ExtractKeysFn {
            cat: self.cat.clone(),
            metrics: self.metrics.clone(),
            plan: Some(self.resolve(&pairs).ok()?),
        }))
    }
}

/// `extract_keys` type-tag → [`Want`]: the tags are the `extract_key_*`
/// suffixes, so the rewriter maps a per-key UDF name to its fused tag by
/// stripping the prefix.
pub(crate) fn want_from_tag(tag: &str) -> Option<Want> {
    Some(match tag {
        "b" => Want::Bool,
        "i" => Want::Int,
        "f" => Want::Float,
        "num" => Want::Num,
        "t" => Want::Text,
        "txt" => Want::AnyText,
        "obj" => Want::Object,
        "arr" => Want::Array,
        _ => return None,
    })
}

/// `__sinew_rowid_set(rowid, handle)`: membership in the row-id set the
/// rewriter registered for one `matches()` call. Binding the handle literal
/// clones the registry's `Arc`, so a statement may be bound any number of
/// times and a bound call never returns to the registry; a handle that is
/// not a literal (raw SQL only) is looked up on every call. The registry
/// entry itself belongs to whoever rewrote the statement (`Sinew::query`
/// and friends remove it once the statement has run).
struct RowIdSetFn {
    sets: RowIdSets,
    set: Option<Arc<HashSet<i64>>>,
}

impl RowIdSetFn {
    fn registered(&self, handle: &str) -> DbResult<Arc<HashSet<i64>>> {
        let set = self.sets.read().get(handle).cloned();
        set.ok_or_else(|| DbError::Eval(format!("unknown rowid set {handle}")))
    }
}

impl ScalarFn for RowIdSetFn {
    fn call(&self, args: &[Datum]) -> DbResult<Datum> {
        self.call_ref(&by_ref(args))
    }

    fn call_ref(&self, args: &[&Datum]) -> DbResult<Datum> {
        let [Datum::Int(rowid), Datum::Text(handle)] = args else {
            return Err(DbError::Eval("__sinew_rowid_set expects (rowid, handle)".into()));
        };
        Ok(Datum::Bool(match &self.set {
            Some(set) => set.contains(rowid),
            None => self.registered(handle)?.contains(rowid),
        }))
    }

    fn bind(&self, consts: &[Option<&Datum>]) -> Option<Arc<dyn ScalarFn>> {
        let [_, Some(Datum::Text(handle))] = consts else { return None };
        let set = self.registered(handle).ok()?;
        Some(Arc::new(RowIdSetFn { sets: self.sets.clone(), set: Some(set) }))
    }
}

#[cfg(test)]
mod tests {
    use crate::Sinew;
    use sinew_rdbms::{Datum, DbError, ExecLimits};

    fn collection(rows: i64) -> Sinew {
        let s = Sinew::in_memory();
        s.create_collection("c").unwrap();
        let docs: String = (0..rows)
            .map(|i| format!("{{\"n\": {i}, \"s\": \"v{i}\", \"o\": {{\"d\": {}}}}}\n", i % 7))
            .collect();
        s.load_jsonl("c", &docs).unwrap();
        s
    }

    /// A path that is a column, not a literal, cannot be resolved at bind:
    /// the call resolves per row and must agree with the bound call.
    #[test]
    fn non_literal_path_equals_the_bound_call_row_for_row() {
        let s = collection(50);
        s.db().execute("CREATE TABLE paths (p text)").unwrap();
        s.db().execute("INSERT INTO paths VALUES ('n'), ('o.d'), ('missing')").unwrap();
        let before = s.metrics().snapshot().plan_cache_misses;
        let r = s
            .db()
            .execute(
                "SELECT paths.p, extract_key_i(c.data, paths.p), extract_key_i(c.data, 'n'), \
                        extract_key_i(c.data, 'o.d'), exists_key(c.data, paths.p), \
                        exists_key(c.data, 'n') \
                 FROM c, paths",
            )
            .unwrap();
        assert_eq!(r.rows.len(), 150);
        for row in &r.rows {
            let (by_column, exists) = (&row[1], &row[4]);
            match row[0].display_text().as_str() {
                "n" => assert_eq!((by_column, exists), (&row[2], &row[5])),
                "o.d" => assert_eq!((by_column, exists), (&row[3], &Datum::Bool(true))),
                _ => assert_eq!((by_column, exists), (&Datum::Null, &Datum::Bool(false))),
            }
            assert!(matches!(row[2], Datum::Int(_)) && matches!(row[3], Datum::Int(_)));
        }
        // three bound sites resolved once each, two unbound ones once per row
        assert_eq!(s.metrics().snapshot().plan_cache_misses - before, 3 + 2 * 150);
    }

    #[test]
    fn malformed_fused_specs_error_where_they_are_evaluated() {
        let s = Sinew::in_memory();
        s.create_collection("c").unwrap();
        for sql in [
            "SELECT extract_keys(data, 'n', 'nope') FROM c",
            "SELECT extract_keys(data, 'n') FROM c",
            "SELECT extract_keys(data, 'n', 7) FROM c",
        ] {
            // binds, and over no rows never runs
            assert_eq!(s.db().execute(sql).unwrap().rows.len(), 0, "{sql}");
        }
        s.load_jsonl("c", "{\"n\": 1}\n").unwrap();
        let err = |sql: &str| match s.db().execute(sql) {
            Err(DbError::Eval(m)) => m,
            other => panic!("{sql}: {other:?}"),
        };
        assert!(err("SELECT extract_keys(data, 'n', 'nope') FROM c").contains("unknown type tag"));
        assert!(err("SELECT extract_keys(data, 'n') FROM c").contains("expects (data, key1"));
        assert!(err("SELECT extract_keys(data, 'n', 7) FROM c").contains("must be text"));
        // the well-formed call, bound or not, still answers
        let r = s.db().execute("SELECT extract_keys(data, 'n', 'i') FROM c").unwrap();
        assert_eq!(r.rows, vec![vec![Datum::Array(vec![Datum::Int(1)])]]);
    }

    /// One resolution per extraction call site when a statement is
    /// prepared, however many rows it reads and however many threads read
    /// them; none when the prepared statement runs again.
    #[test]
    fn a_bound_call_site_resolves_once_per_statement() {
        let s = collection(3000);
        for (run, threads) in [1, 4].into_iter().enumerate() {
            s.db().set_exec_limits(ExecLimits { exec_threads: threads, ..ExecLimits::default() });
            for sql in [
                "SELECT COUNT(*) FROM c WHERE n IS NOT NULL",
                "SELECT n, s FROM c WHERE \"o.d\" >= 0",
            ] {
                let before = s.metrics().snapshot();
                let rows = s.query(sql).unwrap().rows.len();
                let after = s.metrics().snapshot();
                assert!(rows == 1 || rows == 3000, "{sql}");
                let calls = (after.udf_extractions + after.udf_fused_extractions)
                    - (before.udf_extractions + before.udf_fused_extractions);
                assert!(calls >= 3000, "{sql}: {calls} extraction calls");
                let sites = s.rewrite(sql).unwrap().matches("extract_key").count() as u64;
                assert!(sites >= 1, "{sql}");
                assert_eq!(
                    after.plan_cache_misses - before.plan_cache_misses,
                    if run == 0 { sites } else { 0 },
                    "{sql} at {threads} threads"
                );
            }
        }
    }
}
