//! Scalar function registry — builtins plus user-defined functions.
//!
//! UDF support is the one extensibility hook Sinew needs from its RDBMS:
//! the paper implements serialization and key extraction "through a set of
//! user-defined functions (UDFs) ... which allows Sinew to push down query
//! logic completely into the RDBMS" (§5). Crucially, UDFs are *opaque to the
//! optimizer* — no statistics exist for their outputs — which is the
//! structural reason virtual columns get default selectivity estimates
//! (paper §3.1.1, Table 2).
//!
//! A function has two entry points per row ([`ScalarFn::call`] and its
//! borrowed-argument form [`ScalarFn::call_ref`]) and one per call site:
//! [`ScalarFn::bind`], through which the binder lets a function specialise
//! itself on its literal arguments before the first row (DESIGN.md §22).
//! After costing, the planner offers a bound call the predicate it sits in
//! ([`ScalarFn::bind_test`], [`ValueTest`]): a function that can answer the
//! predicate from its input without producing its value takes it over
//! (DESIGN.md §27). A call may state tags without which its first
//! argument answers as NULL does ([`ScalarFn::null_tags`]), so a heap
//! scan can judge a page that holds none of them without reading it
//! (DESIGN.md §32, §33).

use crate::datum::{ColType, Datum};
use crate::error::{DbError, DbResult};
use crate::expr::{between, cmp_holds};
use parking_lot::RwLock;
use sinew_sql::BinaryOp;
use std::cmp::Ordering;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::Arc;

/// A scalar function implementation.
pub trait ScalarFn: Send + Sync {
    fn call(&self, args: &[Datum]) -> DbResult<Datum>;

    /// Borrowed-argument entry point, the one the executor's expression
    /// evaluator calls: Literal and Column arguments are passed by
    /// reference so a function that only reads them pays no clone per row
    /// (an extraction UDF's first argument is the whole serialized
    /// document, `array_contains`'s a whole array). The default clones
    /// every argument into an owned slice and delegates to
    /// [`ScalarFn::call`]; that is what a plain `Fn(&[Datum])` closure
    /// gets. A function that only reads its arguments overrides it, as the
    /// extraction UDFs and every builtin do.
    fn call_ref(&self, args: &[&Datum]) -> DbResult<Datum> {
        let owned: Vec<Datum> = args.iter().map(|d| (*d).clone()).collect();
        self.call(&owned)
    }

    /// Bind-time hook, called by [`crate::expr::bind`] each time it binds
    /// a call site: `consts[i]` is `Some` where argument `i` is a literal.
    /// A function whose work depends only on its literal arguments (an
    /// extraction path to resolve, a handle to look up) does that work
    /// here and returns the function to call per row in its place; `None`
    /// keeps `self`, which then resolves per call. Must not fail: an
    /// argument it cannot use is left for `call_ref` to report, at
    /// evaluation. Must have no side effect: a single-relation statement
    /// binds each call site once, but the join planner binds a conjunct
    /// again for every candidate it costs and keeps one of the results, so
    /// the same literals have to give an equivalent function every time.
    fn bind(&self, _consts: &[Option<&Datum>]) -> Option<Arc<dyn ScalarFn>> {
        None
    }

    /// Predicate hook, called by the planner after costing for a call site
    /// that is the operand of `test` in a scan's filter. A function that
    /// can evaluate the test on its arguments without building its result
    /// returns the function to call in place of the whole predicate, over
    /// the same arguments; that function must return exactly what the
    /// predicate returns over this function's result, NULL included.
    /// `None` (the default) keeps the predicate as it is. The same rules as
    /// [`ScalarFn::bind`]: no failure, no side effect.
    fn bind_test(&self, _test: &ValueTest) -> Option<Arc<dyn ScalarFn>> {
        None
    }

    /// Tag hook, asked by a heap scan for a call whose first argument is
    /// the table's tagged column ([`crate::Database::register_tagger`]):
    /// tags such that a first argument carrying none of them gives this
    /// call the same result as a NULL first argument, the other arguments
    /// being equal. The scan then evaluates the call over NULL for the rows
    /// of a page whose synopsis holds none of them, or skips the page when
    /// that makes its filter fail (DESIGN.md §33), so a function may claim
    /// only what holds for every value. `None` (the default) claims
    /// nothing.
    fn null_tags(&self) -> Option<Vec<u32>> {
        None
    }
}

/// A predicate over one call's result whose other operands are literals:
/// the shapes the planner offers through [`ScalarFn::bind_test`].
#[derive(Debug, Clone, PartialEq)]
pub enum ValueTest {
    /// `f(..) op lit`, `op` a comparison (`lit op f(..)` arrives flipped).
    Cmp(BinaryOp, Datum),
    /// `f(..) [NOT] BETWEEN lo AND hi`.
    Between { lo: Datum, hi: Datum, negated: bool },
    /// `array_contains(f(..), lit)`.
    Contains(Datum),
    /// `f(..) IS [NOT] NULL`.
    IsNull { negated: bool },
}

impl ValueTest {
    /// The predicate's result when the call returns NULL.
    pub fn on_null(&self) -> Datum {
        match self {
            ValueTest::IsNull { negated } => Datum::Bool(!negated),
            _ => Datum::Null,
        }
    }

    /// The predicate's result when the call returns a value that is not
    /// NULL: `cmp(d)` is the value's [`Datum::sql_cmp`] with `d`, and
    /// `contains(d)` is whether an element of the (array) value is
    /// [`Datum::sql_eq`] to `d`, asked only of `Contains`.
    pub fn on_value(
        &self,
        cmp: impl Fn(&Datum) -> Option<Ordering>,
        contains: impl FnOnce(&Datum) -> bool,
    ) -> Datum {
        match self {
            ValueTest::Cmp(op, lit) => {
                cmp(lit).map_or(Datum::Null, |o| Datum::Bool(cmp_holds(*op, o)))
            }
            ValueTest::Between { lo, hi, negated } => between(cmp(lo), cmp(hi), *negated),
            ValueTest::Contains(needle) => Datum::Bool(contains(needle)),
            ValueTest::IsNull { negated } => Datum::Bool(*negated),
        }
    }
}

/// The predicate with its call left out, for plan text: `= Text("x")`,
/// `NOT BETWEEN Int(1) AND Int(5)`, `CONTAINS Text("x")`, `IS NULL`.
impl fmt::Display for ValueTest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValueTest::Cmp(op, lit) => write!(f, "{op} {lit:?}"),
            ValueTest::Between { lo, hi, negated } => {
                let not = if *negated { "NOT " } else { "" };
                write!(f, "{not}BETWEEN {lo:?} AND {hi:?}")
            }
            ValueTest::Contains(needle) => write!(f, "CONTAINS {needle:?}"),
            ValueTest::IsNull { negated } => {
                write!(f, "IS {}NULL", if *negated { "NOT " } else { "" })
            }
        }
    }
}

impl<F> ScalarFn for F
where
    F: Fn(&[Datum]) -> DbResult<Datum> + Send + Sync,
{
    fn call(&self, args: &[Datum]) -> DbResult<Datum> {
        self(args)
    }
}

/// Thread-safe function registry.
pub struct FuncRegistry {
    funcs: RwLock<HashMap<String, Arc<dyn ScalarFn>>>,
    /// Names declared *pure* (deterministic, side-effect free). The
    /// planner only memoizes / common-subexpression-eliminates calls to
    /// pure functions; anything unregistered here is conservatively
    /// treated as effectful.
    pure: RwLock<HashSet<String>>,
}

impl Default for FuncRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl FuncRegistry {
    pub fn new() -> FuncRegistry {
        let reg = FuncRegistry {
            funcs: RwLock::new(HashMap::new()),
            pure: RwLock::new(HashSet::new()),
        };
        reg.install_builtins();
        reg
    }

    pub fn register(&self, name: &str, f: Arc<dyn ScalarFn>) {
        self.funcs.write().insert(name.to_ascii_lowercase(), f);
    }

    /// Register a function and declare it pure (safe to memoize per row).
    pub fn register_pure(&self, name: &str, f: Arc<dyn ScalarFn>) {
        self.register(name, f);
        self.pure.write().insert(name.to_ascii_lowercase());
    }

    /// Is `name` declared pure?
    pub fn is_pure(&self, name: &str) -> bool {
        self.pure.read().contains(&name.to_ascii_lowercase())
    }

    pub fn get(&self, name: &str) -> Option<Arc<dyn ScalarFn>> {
        self.funcs.read().get(&name.to_ascii_lowercase()).cloned()
    }

    fn install_builtins(&self) {
        for &(name, f) in BUILTINS {
            self.register_pure(name, Arc::new(Builtin(f)));
        }
    }
}

type BuiltinFn = fn(&[&Datum]) -> DbResult<Datum>;

/// The builtins. Each only reads its arguments, so it is written over
/// borrowed ones.
const BUILTINS: &[(&str, BuiltinFn)] = &[
    ("coalesce", coalesce),
    ("lower", lower),
    ("upper", upper),
    ("length", length),
    ("abs", abs),
    ("round", round),
    ("array_length", array_length),
    ("array_contains", array_contains),
    ("array_get", array_get),
];

/// A builtin as a [`ScalarFn`]: `call_ref` runs it on the borrowed
/// arguments and `call` borrows its owned ones to get there, so neither
/// clones an argument.
struct Builtin(BuiltinFn);

impl ScalarFn for Builtin {
    fn call(&self, args: &[Datum]) -> DbResult<Datum> {
        let refs: Vec<&Datum> = args.iter().collect();
        (self.0)(&refs)
    }

    fn call_ref(&self, args: &[&Datum]) -> DbResult<Datum> {
        (self.0)(args)
    }
}

fn coalesce(args: &[&Datum]) -> DbResult<Datum> {
    Ok(args.iter().find(|d| !d.is_null()).map_or(Datum::Null, |&d| d.clone()))
}

fn lower(args: &[&Datum]) -> DbResult<Datum> {
    unary_text(args, "lower", |s| s.to_lowercase())
}

fn upper(args: &[&Datum]) -> DbResult<Datum> {
    unary_text(args, "upper", |s| s.to_uppercase())
}

fn unary_text(args: &[&Datum], name: &str, f: impl Fn(&str) -> String) -> DbResult<Datum> {
    match args {
        [Datum::Null] => Ok(Datum::Null),
        [Datum::Text(s)] => Ok(Datum::Text(f(s))),
        [other] => Ok(Datum::Text(f(&other.display_text()))),
        _ => Err(DbError::Eval(format!("{name} expects 1 argument"))),
    }
}

fn length(args: &[&Datum]) -> DbResult<Datum> {
    match args {
        [Datum::Null] => Ok(Datum::Null),
        [Datum::Text(s)] => Ok(Datum::Int(s.chars().count() as i64)),
        [Datum::Bytea(b)] => Ok(Datum::Int(b.len() as i64)),
        [Datum::Array(a)] => Ok(Datum::Int(a.len() as i64)),
        _ => Err(DbError::Eval("length expects 1 string/bytea/array argument".into())),
    }
}

fn abs(args: &[&Datum]) -> DbResult<Datum> {
    match args {
        [Datum::Null] => Ok(Datum::Null),
        [Datum::Int(i)] => Ok(Datum::Int(i.abs())),
        [Datum::Float(f)] => Ok(Datum::Float(f.abs())),
        _ => Err(DbError::Eval("abs expects 1 numeric argument".into())),
    }
}

fn round(args: &[&Datum]) -> DbResult<Datum> {
    match args {
        [Datum::Null] => Ok(Datum::Null),
        [Datum::Int(i)] => Ok(Datum::Int(*i)),
        [Datum::Float(f)] => Ok(Datum::Float(f.round())),
        _ => Err(DbError::Eval("round expects 1 numeric argument".into())),
    }
}

fn array_length(args: &[&Datum]) -> DbResult<Datum> {
    match args {
        [Datum::Null] => Ok(Datum::Null),
        [Datum::Array(a)] => Ok(Datum::Int(a.len() as i64)),
        _ => Err(DbError::Eval("array_length expects 1 array argument".into())),
    }
}

/// `array_contains(arr, elem)` — the array-containment predicate NoBench
/// Q8 needs (paper §6.4); the PG-JSON baseline cannot express this natively
/// (paper §6.7) and falls back to LIKE over the text form.
fn array_contains(args: &[&Datum]) -> DbResult<Datum> {
    match args {
        [Datum::Null, _] => Ok(Datum::Null),
        [Datum::Array(a), needle] => Ok(Datum::Bool(
            a.iter().any(|d| d.sql_eq(needle).unwrap_or(false)),
        )),
        _ => Err(DbError::Eval("array_contains expects (array, value)".into())),
    }
}

/// `array_get(arr, idx)` — zero-based element access; NULL out of bounds.
fn array_get(args: &[&Datum]) -> DbResult<Datum> {
    match args {
        [Datum::Null, _] => Ok(Datum::Null),
        [Datum::Array(a), Datum::Int(i)] => {
            Ok(usize::try_from(*i).ok().and_then(|i| a.get(i)).cloned().unwrap_or(Datum::Null))
        }
        _ => Err(DbError::Eval("array_get expects (array, int)".into())),
    }
}

/// ColType parse helper shared by extraction UDF implementations.
pub fn coltype_from_text(s: &str) -> Option<ColType> {
    Some(match s {
        "bool" => ColType::Bool,
        "int" => ColType::Int,
        "float" => ColType::Float,
        "text" => ColType::Text,
        "bytea" => ColType::Bytea,
        "array" => ColType::Array,
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coalesce_picks_first_non_null() {
        let r = FuncRegistry::new();
        let f = r.get("COALESCE").unwrap();
        assert_eq!(
            f.call(&[Datum::Null, Datum::Int(2), Datum::Int(3)]).unwrap(),
            Datum::Int(2)
        );
        assert_eq!(f.call(&[Datum::Null, Datum::Null]).unwrap(), Datum::Null);
        assert_eq!(f.call(&[]).unwrap(), Datum::Null);
    }

    #[test]
    fn array_functions() {
        let r = FuncRegistry::new();
        let arr = Datum::Array(vec![Datum::Int(1), Datum::Text("x".into())]);
        assert_eq!(
            r.get("array_contains").unwrap().call(&[arr.clone(), Datum::Int(1)]).unwrap(),
            Datum::Bool(true)
        );
        assert_eq!(
            r.get("array_contains").unwrap().call(&[arr.clone(), Datum::Int(9)]).unwrap(),
            Datum::Bool(false)
        );
        assert_eq!(
            r.get("array_get").unwrap().call(&[arr.clone(), Datum::Int(1)]).unwrap(),
            Datum::Text("x".into())
        );
        assert_eq!(
            r.get("array_get").unwrap().call(&[arr, Datum::Int(5)]).unwrap(),
            Datum::Null
        );
    }

    /// Every builtin answers the same through `call` and `call_ref`, on
    /// NULL, mismatched, empty-array and ordinary arguments alike.
    #[test]
    fn call_and_call_ref_agree_for_every_builtin() {
        use Datum::{Array, Bool, Float, Int, Null, Text};
        let arr = Array(vec![Int(1), Text("x".into()), Null]);
        let empty = Array(Vec::new());
        let cases: Vec<(&str, Vec<Datum>)> = vec![
            ("coalesce", vec![Null, Int(2), Int(3)]),
            ("coalesce", vec![Null, Null]),
            ("coalesce", vec![]),
            ("coalesce", vec![arr.clone(), Null]),
            ("lower", vec![Text("AbC".into())]),
            ("lower", vec![Null]),
            ("lower", vec![Int(7)]),
            ("lower", vec![]),
            ("upper", vec![Text("AbC".into())]),
            ("upper", vec![Null]),
            ("upper", vec![Bool(true)]),
            ("length", vec![Text("héllo".into())]),
            ("length", vec![Datum::Bytea(vec![1, 2])]),
            ("length", vec![arr.clone()]),
            ("length", vec![empty.clone()]),
            ("length", vec![Null]),
            ("length", vec![Int(3)]),
            ("abs", vec![Int(-3)]),
            ("abs", vec![Float(-2.5)]),
            ("abs", vec![Null]),
            ("abs", vec![Text("x".into())]),
            ("round", vec![Float(2.5)]),
            ("round", vec![Int(2)]),
            ("round", vec![Null]),
            ("round", vec![empty.clone()]),
            ("array_length", vec![arr.clone()]),
            ("array_length", vec![empty.clone()]),
            ("array_length", vec![Null]),
            ("array_length", vec![Text("x".into())]),
            ("array_contains", vec![arr.clone(), Text("x".into())]),
            ("array_contains", vec![arr.clone(), Int(9)]),
            ("array_contains", vec![arr.clone(), Null]),
            ("array_contains", vec![empty.clone(), Int(1)]),
            ("array_contains", vec![Null, Int(1)]),
            ("array_contains", vec![Int(1), Int(1)]),
            ("array_contains", vec![arr.clone()]),
            ("array_get", vec![arr.clone(), Int(1)]),
            ("array_get", vec![arr.clone(), Int(-1)]),
            ("array_get", vec![empty.clone(), Int(0)]),
            ("array_get", vec![Null, Int(0)]),
            ("array_get", vec![arr, Text("0".into())]),
        ];
        let r = FuncRegistry::new();
        let text = |res: DbResult<Datum>| match res {
            Ok(d) => format!("{d:?}"),
            Err(e) => format!("error: {e}"),
        };
        let mut seen = HashSet::new();
        for (name, args) in &cases {
            let f = r.get(name).unwrap();
            let refs: Vec<&Datum> = args.iter().collect();
            let (owned, borrowed) = (text(f.call(args)), text(f.call_ref(&refs)));
            assert_eq!(owned, borrowed, "{name}{args:?}");
            seen.insert(*name);
        }
        assert_eq!(seen.len(), BUILTINS.len(), "a builtin has no case");
    }

    #[test]
    fn udf_registration_and_case_insensitivity() {
        let r = FuncRegistry::new();
        r.register("My_Udf", Arc::new(|args: &[Datum]| Ok(args[0].clone())));
        assert!(r.get("my_udf").is_some());
        assert!(r.get("MY_UDF").is_some());
        assert!(r.get("missing").is_none());
    }

    #[test]
    fn text_functions() {
        let r = FuncRegistry::new();
        assert_eq!(
            r.get("lower").unwrap().call(&[Datum::Text("AbC".into())]).unwrap(),
            Datum::Text("abc".into())
        );
        assert_eq!(
            r.get("length").unwrap().call(&[Datum::Text("héllo".into())]).unwrap(),
            Datum::Int(5)
        );
    }
}
