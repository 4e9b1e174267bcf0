//! Aggregate functions and accumulators.

use crate::datum::Datum;
use crate::error::{DbError, DbResult};
use crate::keys::KeyTable;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggKind {
    CountStar,
    Count,
    Sum,
    Avg,
    Min,
    Max,
}

impl AggKind {
    pub fn parse(name: &str, star: bool) -> Option<AggKind> {
        Some(match (name.to_ascii_lowercase().as_str(), star) {
            ("count", true) => AggKind::CountStar,
            ("count", false) => AggKind::Count,
            ("sum", false) => AggKind::Sum,
            ("avg", false) => AggKind::Avg,
            ("min", false) => AggKind::Min,
            ("max", false) => AggKind::Max,
            _ => return None,
        })
    }

    pub fn name(&self) -> &'static str {
        match self {
            AggKind::CountStar | AggKind::Count => "count",
            AggKind::Sum => "sum",
            AggKind::Avg => "avg",
            AggKind::Min => "min",
            AggKind::Max => "max",
        }
    }
}

/// Is this function name an aggregate? Used by the binder to route calls.
pub fn is_aggregate_name(name: &str) -> bool {
    matches!(
        name.to_ascii_lowercase().as_str(),
        "count" | "sum" | "avg" | "min" | "max"
    )
}

/// Running state for one aggregate within one group.
#[derive(Debug, Clone)]
pub struct Accumulator {
    kind: AggKind,
    /// A DISTINCT aggregate's values so far.
    seen: Option<KeyTable>,
    count: i64,
    sum_i: i64,
    sum_f: f64,
    float_mode: bool,
    extreme: Option<Datum>,
}

impl Accumulator {
    pub fn new(kind: AggKind, distinct: bool) -> Accumulator {
        Accumulator {
            kind,
            seen: distinct.then(|| KeyTable::new(1)),
            count: 0,
            sum_i: 0,
            sum_f: 0.0,
            float_mode: false,
            extreme: None,
        }
    }

    /// Feed one input value (for `COUNT(*)`, feed `Datum::Bool(true)`).
    pub fn update(&mut self, value: &Datum) -> DbResult<()> {
        if self.kind != AggKind::CountStar {
            if value.is_null() {
                return Ok(()); // aggregates skip NULLs
            }
            if let Some(seen) = &mut self.seen {
                if !seen.intern(&[value][..]).1 {
                    return Ok(());
                }
            }
        }
        match self.kind {
            AggKind::CountStar | AggKind::Count => self.count += 1,
            AggKind::Sum | AggKind::Avg => {
                self.count += 1;
                // An i64 overflow promotes the sum to float, as a float does.
                match value {
                    Datum::Int(i) => match self.sum_i.checked_add(*i).filter(|_| !self.float_mode) {
                        Some(s) => self.sum_i = s,
                        None => {
                            self.sum_f = self.sum_as_f64() + *i as f64;
                            self.float_mode = true;
                        }
                    },
                    Datum::Float(f) => {
                        self.sum_f = self.sum_as_f64() + f;
                        self.float_mode = true;
                    }
                    other => {
                        return Err(DbError::Eval(format!(
                            "{} over non-numeric value {other}",
                            self.kind.name()
                        )))
                    }
                }
            }
            AggKind::Min | AggKind::Max => {
                let better = match &self.extreme {
                    None => true,
                    Some(cur) => {
                        let ord = value.total_cmp(cur);
                        (self.kind == AggKind::Min && ord == std::cmp::Ordering::Less)
                            || (self.kind == AggKind::Max && ord == std::cmp::Ordering::Greater)
                    }
                };
                if better {
                    self.extreme = Some(value.clone());
                }
            }
        }
        Ok(())
    }

    /// Would [`merge`]-ing `later` into `self` equal feeding `later`'s rows
    /// serially after `self`'s? Counts and MIN/MAX always do. SUM/AVG do
    /// while both sums are integral and their total fits an i64: integer
    /// addition is associative, float addition is not, and serial
    /// accumulation would have gone float at some row inside `later`'s
    /// range, not at its end. DISTINCT accumulators never merge: `seen`
    /// holds canonical keys, and cross-partial dedup order would be lost.
    pub fn merges_exactly(&self, later: &Accumulator) -> bool {
        let exact = |a: &Accumulator| a.seen.is_none() && !a.float_mode;
        exact(self) && exact(later) && self.sum_i.checked_add(later.sum_i).is_some()
    }

    /// The running sum as a float, whichever mode holds it.
    fn sum_as_f64(&self) -> f64 {
        if self.float_mode {
            self.sum_f
        } else {
            self.sum_i as f64
        }
    }

    /// Fold a partial accumulator for a *later* input range into `self`.
    /// Identical to serial `update` over the concatenated input whenever
    /// [`merges_exactly`] holds. Otherwise the sum is carried as a float
    /// from both partials, never dropping either, but float addition in
    /// another order may differ from the serial fold's in the last bits.
    pub fn merge(&mut self, later: &Accumulator) {
        debug_assert_eq!(self.kind, later.kind);
        debug_assert!(self.seen.is_none() && later.seen.is_none());
        match self.kind {
            AggKind::CountStar | AggKind::Count => self.count += later.count,
            AggKind::Sum | AggKind::Avg => {
                self.count += later.count;
                let ints = !self.float_mode && !later.float_mode;
                match self.sum_i.checked_add(later.sum_i).filter(|_| ints) {
                    Some(s) => self.sum_i = s,
                    None => {
                        self.sum_f = self.sum_as_f64() + later.sum_as_f64();
                        self.float_mode = true;
                    }
                }
            }
            AggKind::Min | AggKind::Max => {
                if let Some(v) = &later.extreme {
                    // `later` covers rows after `self`'s: a tie keeps
                    // `self`'s value, matching serial first-wins picks.
                    let better = match &self.extreme {
                        None => true,
                        Some(cur) => {
                            let ord = v.total_cmp(cur);
                            (self.kind == AggKind::Min && ord == std::cmp::Ordering::Less)
                                || (self.kind == AggKind::Max
                                    && ord == std::cmp::Ordering::Greater)
                        }
                    };
                    if better {
                        self.extreme = Some(v.clone());
                    }
                }
            }
        }
    }

    /// Final value of the aggregate (SQL semantics: SUM/MIN/MAX over an
    /// empty input yield NULL; COUNT yields 0).
    pub fn finish(&self) -> Datum {
        match self.kind {
            AggKind::CountStar | AggKind::Count => Datum::Int(self.count),
            AggKind::Sum => {
                if self.count == 0 {
                    Datum::Null
                } else if self.float_mode {
                    Datum::Float(self.sum_f)
                } else {
                    Datum::Int(self.sum_i)
                }
            }
            AggKind::Avg => {
                if self.count == 0 {
                    Datum::Null
                } else {
                    Datum::Float(self.sum_as_f64() / self.count as f64)
                }
            }
            AggKind::Min | AggKind::Max => self.extreme.clone().unwrap_or(Datum::Null),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fed(kind: AggKind, distinct: bool, vals: &[Datum]) -> Accumulator {
        let mut acc = Accumulator::new(kind, distinct);
        for v in vals {
            acc.update(v).unwrap();
        }
        acc
    }

    fn run(kind: AggKind, distinct: bool, vals: &[Datum]) -> Datum {
        fed(kind, distinct, vals).finish()
    }

    #[test]
    fn count_skips_nulls_count_star_does_not() {
        let vals = [Datum::Int(1), Datum::Null, Datum::Int(2)];
        assert_eq!(run(AggKind::Count, false, &vals), Datum::Int(2));
        let mut star = Accumulator::new(AggKind::CountStar, false);
        for _ in 0..3 {
            star.update(&Datum::Bool(true)).unwrap();
        }
        assert_eq!(star.finish(), Datum::Int(3));
    }

    #[test]
    fn sum_int_then_float_promotes() {
        let vals = [Datum::Int(1), Datum::Float(0.5), Datum::Int(2)];
        assert_eq!(run(AggKind::Sum, false, &vals), Datum::Float(3.5));
        let ints = [Datum::Int(1), Datum::Int(2)];
        assert_eq!(run(AggKind::Sum, false, &ints), Datum::Int(3));
    }

    #[test]
    fn sum_overflow_promotes_to_float() {
        let vals = [Datum::Int(i64::MAX), Datum::Int(i64::MAX)];
        let Datum::Float(f) = run(AggKind::Sum, false, &vals) else { panic!() };
        assert!(f > 1.8e19);
    }

    #[test]
    fn empty_inputs() {
        assert_eq!(run(AggKind::Sum, false, &[]), Datum::Null);
        assert_eq!(run(AggKind::Avg, false, &[]), Datum::Null);
        assert_eq!(run(AggKind::Min, false, &[]), Datum::Null);
        assert_eq!(run(AggKind::Count, false, &[]), Datum::Int(0));
    }

    #[test]
    fn distinct_aggregation() {
        let vals = [Datum::Int(1), Datum::Int(1), Datum::Int(2), Datum::Float(2.0)];
        assert_eq!(run(AggKind::Count, true, &vals), Datum::Int(2));
        assert_eq!(run(AggKind::Sum, true, &vals), Datum::Int(3));
    }

    #[test]
    fn min_max_mixed_types_use_total_order() {
        let vals = [Datum::Text("b".into()), Datum::Text("a".into()), Datum::Int(9)];
        assert_eq!(run(AggKind::Min, false, &vals), Datum::Int(9));
        assert_eq!(run(AggKind::Max, false, &vals), Datum::Text("b".into()));
    }

    #[test]
    fn avg_basic() {
        let vals = [Datum::Int(2), Datum::Int(4)];
        assert_eq!(run(AggKind::Avg, false, &vals), Datum::Float(3.0));
    }

    #[test]
    fn merged_partials_match_serial() {
        let vals: Vec<Datum> = (0..100).map(|i| Datum::Int(i * 7 - 50)).collect();
        for kind in [AggKind::Count, AggKind::Sum, AggKind::Avg, AggKind::Min, AggKind::Max] {
            let serial = run(kind, false, &vals);
            let (mut left, right) = (fed(kind, false, &vals[..37]), fed(kind, false, &vals[37..]));
            assert!(left.merges_exactly(&right));
            left.merge(&right);
            assert_eq!(left.finish(), serial, "{kind:?}");
        }
        // float partials refuse exact merge
        let f = fed(AggKind::Sum, false, &[Datum::Float(1.5)]);
        assert!(!f.merges_exactly(&Accumulator::new(AggKind::Sum, false)));
        // distinct partials refuse merge
        let d = Accumulator::new(AggKind::Count, true);
        assert!(!d.merges_exactly(&d));
    }

    /// 4 096 × 9·10^15 in partials of 512: the merges overflow i64 and
    /// must carry every partial into the float sum, and the operator's
    /// exactness check must see the overflow coming.
    #[test]
    fn merge_overflow_keeps_every_partial_sum() {
        let big = |n| vec![Datum::Int(9_000_000_000_000_000); n];
        let part = fed(AggKind::Sum, false, &big(512));
        let mut merged = part.clone();
        let mut refused = 0;
        for _ in 1..8 {
            refused += usize::from(!merged.merges_exactly(&part));
            merged.merge(&part);
        }
        assert_eq!(refused, 6, "an overflowing merge was reported exact");
        assert_eq!(run(AggKind::Sum, false, &big(4_096)), Datum::Float(3.6864e19));
        assert_eq!(merged.finish(), Datum::Float(3.6864e19));
        // A float partial on either side carries over too.
        let mut i = fed(AggKind::Avg, false, &[Datum::Int(2)]);
        let mut f = fed(AggKind::Avg, false, &[Datum::Float(0.5)]);
        assert!(!i.merges_exactly(&f) && !f.merges_exactly(&i));
        i.merge(&f);
        f.merge(&fed(AggKind::Avg, false, &[Datum::Int(3)]));
        assert_eq!((i.finish(), f.finish()), (Datum::Float(1.25), Datum::Float(1.75)));
    }

    #[test]
    fn parse_names() {
        assert_eq!(AggKind::parse("SUM", false), Some(AggKind::Sum));
        assert_eq!(AggKind::parse("count", true), Some(AggKind::CountStar));
        assert_eq!(AggKind::parse("sum", true), None);
        assert_eq!(AggKind::parse("coalesce", false), None);
        assert!(is_aggregate_name("AVG"));
        assert!(!is_aggregate_name("lower"));
    }
}
