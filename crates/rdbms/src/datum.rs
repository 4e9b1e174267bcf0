//! Runtime values and their SQL semantics.

use crate::error::{DbError, DbResult};
use std::cmp::Ordering;
use std::fmt;

/// Column types supported by the storage layer.
///
/// `Bytea` is the type of Sinew's column reservoir; `Array` is the "RDBMS
/// array datatype" the paper's §4.2 uses as the default array mapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ColType {
    Bool,
    Int,
    Float,
    Text,
    Bytea,
    Array,
}

impl ColType {
    pub fn name(&self) -> &'static str {
        match self {
            ColType::Bool => "bool",
            ColType::Int => "int",
            ColType::Float => "float",
            ColType::Text => "text",
            ColType::Bytea => "bytea",
            ColType::Array => "array",
        }
    }
}

impl From<sinew_sql::TypeName> for ColType {
    fn from(t: sinew_sql::TypeName) -> Self {
        match t {
            sinew_sql::TypeName::Bool => ColType::Bool,
            sinew_sql::TypeName::Int => ColType::Int,
            sinew_sql::TypeName::Float => ColType::Float,
            sinew_sql::TypeName::Text => ColType::Text,
            sinew_sql::TypeName::Bytea => ColType::Bytea,
            sinew_sql::TypeName::Array => ColType::Array,
        }
    }
}

/// A runtime value. `Null` is typeless, as in SQL.
#[derive(Debug, Clone, PartialEq)]
pub enum Datum {
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    Text(String),
    Bytea(Vec<u8>),
    Array(Vec<Datum>),
}

/// A NULL to lend out where a value is read by reference and absent.
pub(crate) static NULL: Datum = Datum::Null;

impl Datum {
    pub fn is_null(&self) -> bool {
        matches!(self, Datum::Null)
    }

    pub fn type_of(&self) -> Option<ColType> {
        Some(match self {
            Datum::Null => return None,
            Datum::Bool(_) => ColType::Bool,
            Datum::Int(_) => ColType::Int,
            Datum::Float(_) => ColType::Float,
            Datum::Text(_) => ColType::Text,
            Datum::Bytea(_) => ColType::Bytea,
            Datum::Array(_) => ColType::Array,
        })
    }

    /// Rough in-memory footprint, used by the optimizer's width estimates
    /// and by spill accounting in the executor.
    pub fn width(&self) -> usize {
        match self {
            Datum::Null => 1,
            Datum::Bool(_) => 1,
            Datum::Int(_) | Datum::Float(_) => 8,
            Datum::Text(s) => s.len() + 4,
            Datum::Bytea(b) => b.len() + 4,
            Datum::Array(a) => a.iter().map(Datum::width).sum::<usize>() + 4,
        }
    }

    /// SQL three-valued-logic equality: `None` if either side is NULL.
    pub fn sql_eq(&self, other: &Datum) -> Option<bool> {
        self.sql_cmp(other).map(|o| o == Ordering::Equal)
    }

    /// SQL comparison. Numeric types compare across Int/Float; everything
    /// else compares within its own type. Cross-type non-numeric comparisons
    /// yield `None` (treated as NULL/no-match), which is how Sinew's typed
    /// extraction "elegantly handles" multi-typed keys (paper §3.2.2).
    pub fn sql_cmp(&self, other: &Datum) -> Option<Ordering> {
        use Datum::*;
        match (self, other) {
            (Null, _) | (_, Null) => None,
            (Bool(a), Bool(b)) => Some(a.cmp(b)),
            (Int(a), Int(b)) => Some(a.cmp(b)),
            (Float(a), Float(b)) => a.partial_cmp(b),
            (Int(a), Float(b)) => cmp_int_f64(*a, *b),
            (Float(a), Int(b)) => cmp_int_f64(*b, *a).map(Ordering::reverse),
            (Text(a), Text(b)) => Some(a.cmp(b)),
            (Bytea(a), Bytea(b)) => Some(a.cmp(b)),
            (Array(a), Array(b)) => {
                for (x, y) in a.iter().zip(b.iter()) {
                    match x.sql_cmp(y) {
                        Some(Ordering::Equal) => continue,
                        other => return other,
                    }
                }
                Some(a.len().cmp(&b.len()))
            }
            _ => None,
        }
    }

    /// Same variant and same bits. `==` alone equates `-0.0` with `0.0` and
    /// no NaN with itself; `total_cmp` alone equates `Int(5)` with
    /// `Float(5.0)`. Derived structures that must reproduce the heap's value
    /// exactly compare with this.
    pub fn identical(&self, other: &Datum) -> bool {
        match (self, other) {
            (Datum::Float(a), Datum::Float(b)) => a.to_bits() == b.to_bits(),
            _ => self == other,
        }
    }

    /// Total order for sorting and grouping: NULLs sort first, cross-type
    /// values order by a fixed type rank. Needed because sort operators
    /// require totality even over heterogeneous (dynamically typed) columns.
    pub fn total_cmp(&self, other: &Datum) -> Ordering {
        use Datum::*;
        fn rank(d: &Datum) -> u8 {
            match d {
                Null => 0,
                Bool(_) => 1,
                Int(_) | Float(_) => 2,
                Text(_) => 3,
                Bytea(_) => 4,
                Array(_) => 5,
            }
        }
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Float(a), Float(b)) => a.total_cmp(b),
            (Int(a), Float(b)) => total_cmp_int_f64(*a, *b),
            (Float(a), Int(b)) => total_cmp_int_f64(*b, *a).reverse(),
            _ => match rank(self).cmp(&rank(other)) {
                Ordering::Equal => self.sql_cmp(other).unwrap_or(Ordering::Equal),
                r => r,
            },
        }
    }

    /// Comparison the columnar kernels and zone maps use for bound
    /// ranges: SQL semantics wherever SQL defines an order (so numeric
    /// ties like `-0.0 = 0.0` and `Int(5) = Float(5.0)` compare Equal,
    /// exactly as the residual filter would decide), falling back to
    /// [`Datum::total_cmp`]'s type-rank order where SQL yields NULL.
    /// Within one [`Datum::exactness_class`] this *is* SQL comparison,
    /// which is what lets the planner skip the residual filter; across
    /// classes it is a deterministic superset order like the B-tree's.
    pub fn key_cmp(&self, other: &Datum) -> Ordering {
        self.sql_cmp(other).unwrap_or_else(|| self.total_cmp(other))
    }

    /// Type class for `exact_bounds` / residual-skip proofs: values of one
    /// class compare identically under [`Datum::key_cmp`] and SQL, and a
    /// `total_cmp` range with both endpoints in one class contains only
    /// values of that class (Bool < numeric < Text in rank order; ±∞ and
    /// NaN are excluded from the numeric class because no finite-bounded
    /// range can contain them and they break the order/SQL agreement).
    pub fn exactness_class(&self) -> Option<u8> {
        match self {
            Datum::Bool(_) => Some(0),
            Datum::Int(_) => Some(1),
            Datum::Float(f) if f.is_finite() => Some(1),
            Datum::Text(_) => Some(2),
            _ => None,
        }
    }

    /// A hashable grouping key (Float bit-normalized so `-0.0 == 0.0`
    /// groups; integral floats group with equal ints).
    pub fn group_key(&self) -> GroupKey {
        match self {
            Datum::Null => GroupKey::Null,
            Datum::Bool(b) => GroupKey::Bool(*b),
            Datum::Int(i) => GroupKey::Int(*i),
            Datum::Float(f) => match float_key(*f) {
                Ok(i) => GroupKey::Int(i),
                Err(bits) => GroupKey::Float(bits),
            },
            Datum::Text(s) => GroupKey::Text(s.clone()),
            Datum::Bytea(b) => GroupKey::Bytes(b.clone()),
            Datum::Array(a) => GroupKey::Array(a.iter().map(Datum::group_key).collect()),
        }
    }

    /// `self op other` for `+ - * / %` over two non-NULL operands: checked
    /// integer arithmetic for two Ints, float arithmetic once either side
    /// is a Float. The one definition of SQL arithmetic.
    pub fn numeric_op(&self, op: sinew_sql::BinaryOp, other: &Datum) -> DbResult<Datum> {
        use sinew_sql::BinaryOp::*;
        match (self, other) {
            (Datum::Int(a), Datum::Int(b)) => {
                // Checked throughout, like SUM's promotion in agg.rs: silent
                // wrapping would return a well-typed wrong answer. checked_div
                // and checked_rem also cover the i64::MIN / -1 overflow.
                let overflow =
                    || DbError::Eval(format!("integer overflow in {self} {op:?} {other}"));
                Ok(match op {
                    Add => Datum::Int(a.checked_add(*b).ok_or_else(overflow)?),
                    Sub => Datum::Int(a.checked_sub(*b).ok_or_else(overflow)?),
                    Mul => Datum::Int(a.checked_mul(*b).ok_or_else(overflow)?),
                    Div => {
                        if *b == 0 {
                            return Err(DbError::Eval("division by zero".into()));
                        }
                        Datum::Int(a.checked_div(*b).ok_or_else(overflow)?)
                    }
                    Mod => {
                        if *b == 0 {
                            return Err(DbError::Eval("division by zero".into()));
                        }
                        Datum::Int(a.checked_rem(*b).ok_or_else(overflow)?)
                    }
                    _ => unreachable!("{op} is not arithmetic"),
                })
            }
            _ => {
                let (a, b) = match (self.as_f64(), other.as_f64()) {
                    (Some(a), Some(b)) => (a, b),
                    _ => {
                        return Err(DbError::Eval(format!(
                            "arithmetic on non-numeric operands {self} and {other}"
                        )))
                    }
                };
                Ok(match op {
                    Add => Datum::Float(a + b),
                    Sub => Datum::Float(a - b),
                    Mul => Datum::Float(a * b),
                    Div => {
                        if b == 0.0 {
                            return Err(DbError::Eval("division by zero".into()));
                        }
                        Datum::Float(a / b)
                    }
                    Mod => Datum::Float(a % b),
                    _ => unreachable!("{op} is not arithmetic"),
                })
            }
        }
    }

    fn as_f64(&self) -> Option<f64> {
        match self {
            Datum::Int(i) => Some(*i as f64),
            Datum::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Cast to a target type, Postgres-style: failures are hard errors
    /// (`CastError`), not NULLs. Sinew's extraction functions deliberately do
    /// NOT go through this path — they return NULL on type mismatch.
    pub fn cast(&self, to: ColType) -> DbResult<Datum> {
        use Datum::*;
        if self.is_null() {
            return Ok(Null);
        }
        Ok(match (self, to) {
            (d, t) if d.type_of() == Some(t) => d.clone(),
            (Int(i), ColType::Float) => Float(*i as f64),
            (Float(f), ColType::Int) => Int(*f as i64),
            (Bool(b), ColType::Int) => Int(*b as i64),
            (Bool(b), ColType::Text) => Text(if *b { "true".into() } else { "false".into() }),
            (Int(i), ColType::Text) => Text(i.to_string()),
            (Float(f), ColType::Text) => Text(f.to_string()),
            (Text(s), ColType::Int) => Int(s.trim().parse().map_err(|_| DbError::CastError {
                value: s.clone(),
                target: "int",
            })?),
            (Text(s), ColType::Float) => {
                Float(s.trim().parse().map_err(|_| DbError::CastError {
                    value: s.clone(),
                    target: "float",
                })?)
            }
            (Text(s), ColType::Bool) => match s.trim().to_ascii_lowercase().as_str() {
                "t" | "true" | "1" | "yes" => Bool(true),
                "f" | "false" | "0" | "no" => Bool(false),
                _ => {
                    return Err(DbError::CastError { value: s.clone(), target: "bool" });
                }
            },
            (Array(_), ColType::Text) => Text(self.display_text()),
            (d, t) => {
                return Err(DbError::CastError {
                    value: d.display_text(),
                    target: t.name(),
                })
            }
        })
    }

    /// Human/SQL textual form (no quotes), used for downcast-to-string
    /// extraction and display.
    pub fn display_text(&self) -> String {
        match self {
            Datum::Null => "NULL".into(),
            Datum::Bool(b) => if *b { "true" } else { "false" }.into(),
            Datum::Int(i) => i.to_string(),
            Datum::Float(f) => f.to_string(),
            Datum::Text(s) => s.clone(),
            Datum::Bytea(b) => format!("\\x{}", hex(b)),
            Datum::Array(a) => {
                let inner: Vec<String> = a.iter().map(Datum::display_text).collect();
                format!("{{{}}}", inner.join(","))
            }
        }
    }
}

/// A float's grouping key: the integer it equals when it is integral and
/// in `i64`'s range, else its bits with `-0.0` folded onto `0.0`. The
/// upper bound is strict: 2^63 itself is representable as f64 but not as
/// i64, and `as` would saturate it to i64::MAX — making Float(2^63) group
/// (and disagree with the exact comparison) with Int(i64::MAX).
pub(crate) fn float_key(f: f64) -> Result<i64, u64> {
    if f.fract() == 0.0 && f >= i64::MIN as f64 && f < 9_223_372_036_854_775_808.0 {
        Ok(f as i64)
    } else {
        Err((f + 0.0).to_bits())
    }
}

/// Exact comparison of an i64 against an f64. Casting the int to f64
/// first loses precision for |i| ≥ 2^53 (e.g. 9007199254740993 as f64
/// rounds to 9007199254740992.0, wrongly comparing Equal), so instead
/// the float is range-checked against i64's span and then compared via
/// its floor — both sides exact. NaN yields None.
fn cmp_int_f64(a: i64, b: f64) -> Option<Ordering> {
    if b.is_nan() {
        return None;
    }
    // 2^63 is exactly representable as f64, so these boundary tests are
    // themselves exact; every i64 lies in [-2^63, 2^63).
    if b >= 9_223_372_036_854_775_808.0 {
        return Some(Ordering::Less);
    }
    if b < -9_223_372_036_854_775_808.0 {
        return Some(Ordering::Greater);
    }
    // In range, floor(b) is an integral f64 in [-2^63, 2^63), which
    // converts to i64 without rounding.
    let fl = b.floor();
    match a.cmp(&(fl as i64)) {
        // a equals the floor: any fractional tail makes b strictly larger.
        Ordering::Equal if b > fl => Some(Ordering::Less),
        o => Some(o),
    }
}

/// Total-order variant for sorting: NaN sorts by its sign bit (matching
/// `f64::total_cmp`), and a mathematically-Equal pair falls back to the
/// bit-level float order so `Int(0)` vs `Float(-0.0)` stays consistent
/// with how pure floats sort.
fn total_cmp_int_f64(a: i64, b: f64) -> Ordering {
    match cmp_int_f64(a, b) {
        Some(Ordering::Equal) => (a as f64).total_cmp(&b),
        Some(o) => o,
        None if b.is_sign_negative() => Ordering::Greater,
        None => Ordering::Less,
    }
}

/// A bound range over one column's keys: the single form the planner
/// derives from sargable conjuncts and every access path (B-tree probe,
/// zone map, segment kernel) and EXPLAIN consumes. `None` is unbounded on
/// that side; `lo_inc`/`hi_inc` say whether the endpoint itself is in
/// range and mean nothing while their bound is `None`.
///
/// Contract: a range is a *superset* filter (DESIGN.md §18). Membership is
/// decided under [`Datum::key_cmp`] — SQL comparison inside one
/// [`Datum::exactness_class`], type-rank order across classes — so every
/// row SQL would accept is surfaced, and rows of another class may be too.
/// The plan's residual filter rejects those unless the planner proved the
/// range exact.
#[derive(Debug, Clone, PartialEq)]
pub struct KeyRange {
    pub lo: Option<Datum>,
    pub lo_inc: bool,
    pub hi: Option<Datum>,
    pub hi_inc: bool,
}

impl Default for KeyRange {
    /// The unbounded range.
    fn default() -> KeyRange {
        KeyRange { lo: None, lo_inc: true, hi: None, hi_inc: true }
    }
}

impl KeyRange {
    /// `column = d`.
    pub fn point(d: Datum) -> KeyRange {
        KeyRange { lo: Some(d.clone()), lo_inc: true, hi: Some(d), hi_inc: true }
    }

    pub fn is_unbounded(&self) -> bool {
        self.lo.is_none() && self.hi.is_none()
    }

    /// Intersect with another clause's range. `key_cmp` picks the tighter
    /// endpoint: within one exactness class it IS the SQL order, so the
    /// merged range equals the clause intersection. Endpoints that compare
    /// Equal AND their inclusivity, which makes `a >= 0 AND a > -0.0`
    /// correctly exclusive — `total_cmp` would call those endpoints
    /// distinct and keep the wrong flag.
    pub fn tighten(&mut self, other: KeyRange) {
        fn side(
            cur: &mut Option<Datum>,
            cur_inc: &mut bool,
            new: Option<Datum>,
            new_inc: bool,
            tighter: Ordering,
        ) {
            let Some(new) = new else { return };
            let ord = cur.as_ref().map_or(tighter, |c| new.key_cmp(c));
            if ord == tighter {
                *cur = Some(new);
                *cur_inc = new_inc;
            } else if ord == Ordering::Equal {
                *cur_inc &= new_inc;
            }
        }
        side(&mut self.lo, &mut self.lo_inc, other.lo, other.lo_inc, Ordering::Greater);
        side(&mut self.hi, &mut self.hi_inc, other.hi, other.hi_inc, Ordering::Less);
    }

    /// Whether `d` lies inside the range under [`Datum::key_cmp`].
    #[inline]
    pub fn contains(&self, d: &Datum) -> bool {
        let above_lo = self.lo.as_ref().is_none_or(|l| match d.key_cmp(l) {
            Ordering::Less => false,
            Ordering::Equal => self.lo_inc,
            Ordering::Greater => true,
        });
        above_lo
            && self.hi.as_ref().is_none_or(|h| match d.key_cmp(h) {
                Ordering::Greater => false,
                Ordering::Equal => self.hi_inc,
                Ordering::Less => true,
            })
    }
}

/// Hashable, equality-correct key for hash aggregation / hash joins.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum GroupKey {
    Null,
    Bool(bool),
    Int(i64),
    Float(u64),
    Text(String),
    Bytes(Vec<u8>),
    Array(Vec<GroupKey>),
}

fn hex(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        s.push_str(&format!("{b:02x}"));
    }
    s
}

impl fmt::Display for Datum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.display_text())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_range_tighten_intersects_clauses() {
        let lo = |d, lo_inc| KeyRange { lo: Some(d), lo_inc, ..KeyRange::default() };
        let hi = |d, hi_inc| KeyRange { hi: Some(d), hi_inc, ..KeyRange::default() };
        // The first clause's flag replaces the default; the side no clause
        // bounds stays open (and nominally inclusive).
        let mut r = KeyRange::default();
        r.tighten(lo(Datum::Int(5), false));
        assert_eq!(r, lo(Datum::Int(5), false));
        // A tighter endpoint replaces endpoint and flag; a looser one is ignored.
        r.tighten(lo(Datum::Int(7), true));
        r.tighten(lo(Datum::Int(6), false));
        r.tighten(hi(Datum::Float(9.5), false));
        r.tighten(hi(Datum::Int(20), true));
        assert_eq!(
            r,
            KeyRange { lo: Some(Datum::Int(7)), lo_inc: true, hi: Some(Datum::Float(9.5)), hi_inc: false }
        );
        // Equal endpoints AND their inclusivity, whichever clause comes first.
        for (first, second) in [(true, false), (false, true)] {
            let mut r = hi(Datum::Int(3), first);
            r.tighten(hi(Datum::Float(3.0), second));
            assert!(!r.hi_inc);
            assert!(r.contains(&Datum::Int(2)) && !r.contains(&Datum::Int(3)));
        }
        // `a >= 0 AND a > -0.0`: total_cmp orders -0.0 < Int(0), so it would
        // keep the inclusive `>= 0`; key_cmp calls them Equal and ends exclusive.
        let mut r = lo(Datum::Int(0), true);
        r.tighten(lo(Datum::Float(-0.0), false));
        assert!(!r.lo_inc);
        assert!(!r.contains(&Datum::Float(0.0)) && r.contains(&Datum::Int(1)));
    }

    #[test]
    fn null_propagates_in_comparisons() {
        assert_eq!(Datum::Null.sql_eq(&Datum::Int(1)), None);
        assert_eq!(Datum::Int(1).sql_cmp(&Datum::Null), None);
    }

    #[test]
    fn cross_numeric_comparison() {
        assert_eq!(Datum::Int(2).sql_cmp(&Datum::Float(2.0)), Some(Ordering::Equal));
        assert_eq!(Datum::Float(1.5).sql_cmp(&Datum::Int(2)), Some(Ordering::Less));
    }

    #[test]
    fn cross_type_comparison_is_null() {
        assert_eq!(Datum::Text("5".into()).sql_cmp(&Datum::Int(5)), None);
        assert_eq!(Datum::Bool(true).sql_cmp(&Datum::Int(1)), None);
    }

    #[test]
    fn total_order_is_total() {
        let vals = [
            Datum::Null,
            Datum::Bool(false),
            Datum::Int(3),
            Datum::Float(3.5),
            Datum::Text("a".into()),
            Datum::Array(vec![Datum::Int(1)]),
        ];
        for a in &vals {
            for b in &vals {
                let ab = a.total_cmp(b);
                let ba = b.total_cmp(a);
                assert_eq!(ab, ba.reverse());
            }
        }
    }

    #[test]
    fn group_key_unifies_int_and_integral_float() {
        assert_eq!(Datum::Int(3).group_key(), Datum::Float(3.0).group_key());
        assert_ne!(Datum::Int(3).group_key(), Datum::Float(3.5).group_key());
        assert_eq!(Datum::Float(0.0).group_key(), Datum::Float(-0.0).group_key());
    }

    #[test]
    fn casts() {
        assert_eq!(Datum::Text("42".into()).cast(ColType::Int).unwrap(), Datum::Int(42));
        assert_eq!(Datum::Int(1).cast(ColType::Float).unwrap(), Datum::Float(1.0));
        assert_eq!(Datum::Null.cast(ColType::Int).unwrap(), Datum::Null);
        let err = Datum::Text("twenty".into()).cast(ColType::Int).unwrap_err();
        assert!(matches!(err, DbError::CastError { .. }));
    }

    #[test]
    fn array_display() {
        let a = Datum::Array(vec![Datum::Int(1), Datum::Text("x".into())]);
        assert_eq!(a.display_text(), "{1,x}");
    }
}
