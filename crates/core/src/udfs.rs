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
//! | `exists_key`        | bool    | key present under any type |
//! | `test[extract_key_* …]` | bool | planted by the planner, not callable: a value test |
//! | `set_key`           | bytea   | reservoir with key set (UPDATEs) |
//! | `remove_key`        | bytea   | reservoir with key removed |
//! | `doc_to_json`       | text    | whole document back to JSON |
//! | `__sinew_rowid_set` | bool    | rowid ∈ registered text-index result |
//!
//! **Bound calls.** `extract_key_*`, `exists_key` and `__sinew_rowid_set`
//! implement [`ScalarFn::bind`]: when the statement's binder meets a call
//! site whose path (handle) argument is a literal — every call the
//! rewriter emits — the function it plants there holds the resolved
//! [`ExtractionPlan`] / row-id set, and the per-row `call_ref` is that
//! object's own method plus one relaxed counter add. Binding has no side
//! effect (the planner may bind a call site more than once): a plan is
//! built, a set's `Arc` is cloned. A path that is not a literal (raw SQL)
//! leaves the registered function in place, which resolves on every call
//! and reports a malformed argument where it is evaluated (DESIGN.md §22).
//!
//! **Tests, not decodes.** After costing, the planner offers a bound
//! `extract_key_*` call the predicate it sits in, through
//! [`ScalarFn::bind_test`]: `= 'lit'` and the other comparisons, `BETWEEN`,
//! `array_contains(…, lit)` and `IS [NOT] NULL`. For every want but
//! `txt` and `obj` the call takes it and becomes a [`ValueTestFn`] — the
//! same arguments, the same descent and variant pick, the value compared
//! where it lies in the document ([`ExtractionPlan::test`]) and counted in
//! `udf_value_tests` instead of `udf_extractions` (DESIGN.md §27).
//!
//! **One key per call.** The rewriter emits one `extract_key_*` call per
//! column reference, as the paper's does, and the plan evaluates each
//! where its value is read: a key named only in the projection is decoded
//! only for the rows that pass the filter and the join. There is no
//! multi-key call; a key a scan pipeline names twice is memoized per row
//! by the planner's CSE (DESIGN.md §25).
//!
//! **Tags for page pruning.** `install` also registers the reservoir
//! column's tagger: a document's tags are its header's attribute ids, read
//! without decoding a value. A bound `extract_key_*`, `exists_key` or
//! value-test call states its path's top-level ids
//! ([`ScalarFn::null_tags`]): a document that holds none of them answers
//! the call as a NULL reservoir does. So a heap scan skips a page that
//! holds none of a filter conjunct's ids when that conjunct fails over
//! NULL (DESIGN.md §32), and serves the rows of a page that holds none of
//! the ids its statement reads with a NULL reservoir, unread (DESIGN.md
//! §33). Whether a test holds on a document without the key is the scan's
//! to compute, not the function's to claim.

use crate::catalog::Catalog;
use crate::extract::{self, Want};
use crate::metrics::Metrics;
use crate::plan::ExtractionPlan;
use parking_lot::RwLock;
use sinew_rdbms::{Database, Datum, DbError, DbResult, ScalarFn, ValueTest};
use sinew_serial::sinew::RawDoc;
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
) -> DbResult<()> {
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

    // A reservoir's tags are its top-level attribute ids.
    db.register_tagger(
        "data",
        Arc::new(|doc: &[u8], tag: &mut dyn FnMut(u32)| match RawDoc::parse(doc) {
            Ok(doc) => {
                doc.ids().for_each(tag);
                true
            }
            Err(_) => false,
        }),
    )
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

    /// The path's top-level ids: a document that holds none of them
    /// answers as a NULL document does, since the path's descent starts
    /// at one of them. No claim for an unresolved path or one that
    /// resolved to nothing.
    fn null_tags(&self) -> Option<Vec<u32>> {
        let ids = self.plan.as_ref()?.resolved.top_level_ids();
        (!ids.is_empty()).then_some(ids)
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

    fn null_tags(&self) -> Option<Vec<u32>> {
        self.0.null_tags()
    }

    fn bind_test(&self, test: &ValueTest) -> Option<Arc<dyn ScalarFn>> {
        let plan = self.0.plan.as_ref()?;
        plan.can_test(test)
            .then(|| Arc::new(ValueTestFn { call: self.0.clone(), test: test.clone() }) as _)
    }
}

/// A predicate over a bound `extract_key_*` call, evaluated on the
/// serialized value in place; called with the extraction's own arguments.
struct ValueTestFn {
    call: PathCall,
    test: ValueTest,
}

impl ScalarFn for ValueTestFn {
    fn call(&self, args: &[Datum]) -> DbResult<Datum> {
        self.call_ref(&by_ref(args))
    }

    fn call_ref(&self, args: &[&Datum]) -> DbResult<Datum> {
        let c = &self.call;
        c.metrics.udf_value_tests.inc();
        c.run("extract_key", args, self.test.on_null(), |plan, bytes| {
            plan.test(&c.cat, bytes, &self.test)
        })
    }

    fn null_tags(&self) -> Option<Vec<u32>> {
        self.call.null_tags()
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

    fn null_tags(&self) -> Option<Vec<u32>> {
        self.0.null_tags()
    }
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
    use sinew_rdbms::{Datum, ExecLimits};

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
                let sites = s.rewrite(sql).unwrap().matches("extract_key").count() as u64;
                assert!(sites >= 1, "{sql}");
                // every row passes, so every site reads once per row: the
                // filter's site as a value test, the projected ones decoded
                let tests = after.udf_value_tests - before.udf_value_tests;
                let decodes = after.udf_extractions - before.udf_extractions;
                assert_eq!(tests, 3000, "{sql}: {tests} value tests");
                assert_eq!(decodes, 3000 * (sites - 1), "{sql}: {decodes} values decoded");
                assert_eq!(
                    after.plan_cache_misses - before.plan_cache_misses,
                    if run == 0 { sites } else { 0 },
                    "{sql} at {threads} threads"
                );
            }
        }
    }

    /// What one `query` at `threads` exec threads did.
    struct Counts {
        rows: usize,
        /// values decoded (`udf_extractions`)
        decoded: u64,
        /// values tested in place (`udf_value_tests`)
        tested: u64,
        /// paths resolved (`plan_cache_misses`)
        resolved: u64,
        /// whether the scan ran morsel-parallel
        parallel: bool,
    }

    fn decode_counts(s: &Sinew, sql: &str, threads: usize) -> Counts {
        s.db().set_exec_limits(ExecLimits { exec_threads: threads, ..ExecLimits::default() });
        let (before, scans) = (s.metrics().snapshot(), s.db().exec_stats().parallel_scans);
        let rows = s.query(sql).unwrap().rows.len();
        let after = s.metrics().snapshot();
        Counts {
            rows,
            decoded: after.udf_extractions - before.udf_extractions,
            tested: after.udf_value_tests - before.udf_value_tests,
            resolved: after.plan_cache_misses - before.plan_cache_misses,
            parallel: s.db().exec_stats().parallel_scans > scans,
        }
    }

    /// A key named only in the projection is decoded for the rows that
    /// pass the filter, not for every row the scan reads: serially (scan,
    /// filter, project) and in the morsel-parallel pipeline. The filter's
    /// key is tested in place for every row and decodes nothing, so a key
    /// named in both is decoded only for the rows that pass, at any thread
    /// count.
    #[test]
    fn projected_keys_decode_only_for_rows_that_pass() {
        let s = Sinew::in_memory();
        s.create_collection("c").unwrap();
        let docs: String = (0..3000)
            .map(|i| {
                let k = i % 100;
                format!("{{\"k\": {k}, \"a\": {i}, \"b\": \"v{i}\", \"c\": {}}}\n", i % 2 == 0)
            })
            .collect();
        s.load_jsonl("c", &docs).unwrap();
        let sql = "SELECT a, b, c FROM c WHERE k = 7";
        for threads in [1, 4] {
            let c = decode_counts(&s, sql, threads);
            assert_eq!(c.rows, 30);
            assert_eq!((c.tested, c.decoded), (3000, 3 * 30), "at {threads} threads");
            assert_eq!(c.parallel, threads > 1);
        }
        let rewritten = s.rewrite(sql).unwrap();
        assert_eq!(rewritten.matches("extract_key_").count(), 4, "{rewritten}");
        assert!(!rewritten.contains("extract_keys"), "{rewritten}");
        // 'b' is extract_key_t in both places; one row passes
        let sql = "SELECT b, a FROM c WHERE b = 'v7'";
        for threads in [1, 4] {
            let c = decode_counts(&s, sql, threads);
            assert_eq!((c.tested, c.decoded), (3000, 2), "at {threads} threads");
            assert_eq!(c.rows, 1);
        }
    }

    /// `SELECT *` over a collection of more than a thousand keys: one call
    /// site per key, each resolved once per preparation and decoded once
    /// per row, in rewritten text that grows linearly with the keys.
    #[test]
    fn select_star_is_linear_in_the_number_of_keys() {
        let s = Sinew::in_memory();
        let mut text_len = Vec::new();
        // equal-length table and key names, so only the key count differs
        for (table, keys) in [("lo", 512u64), ("hi", 1024)] {
            s.create_collection(table).unwrap();
            // 600 documents (enough to cut into morsels) of 8 keys each
            let docs: String = (0..600u64)
                .map(|i| {
                    let fields: Vec<String> =
                        (0..8).map(|j| format!("\"k{:04}\": {i}", (i * 8 + j) % keys)).collect();
                    format!("{{{}}}\n", fields.join(", "))
                })
                .collect();
            s.load_jsonl(table, &docs).unwrap();
            let sql = format!("SELECT * FROM {table}");
            for (run, threads) in [1, 4].into_iter().enumerate() {
                let c = decode_counts(&s, &sql, threads);
                assert_eq!(c.rows, 600);
                assert_eq!(c.decoded, 600 * keys, "{table} at {threads} threads");
                assert_eq!(c.resolved, if run == 0 { keys } else { 0 }, "{table}");
                assert_eq!(c.parallel, threads > 1);
            }
            let rewritten = s.rewrite(&sql).unwrap();
            assert_eq!(rewritten.matches("extract_key_i(").count() as u64, keys);
            text_len.push(rewritten.len() as f64);
        }
        let growth = text_len[1] / text_len[0];
        assert!((1.95..2.05).contains(&growth), "text grew {growth}x for 2x the keys");
    }
}
