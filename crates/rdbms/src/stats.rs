//! Optimizer statistics (ANALYZE).
//!
//! Per physical column: null fraction, distinct-value estimate, most-common
//! values, and an equi-depth histogram — the same shape as Postgres's
//! `pg_statistic`. Statistics exist **only for physical columns**; anything
//! reached through an extraction UDF is invisible here, which is the paper's
//! central observation about virtual columns (§3.1.1): "As far as the
//! optimizer is concerned, virtual columns do not exist."

use crate::datum::{Datum, GroupKey};
use crate::keys::KeyTable;
use std::collections::HashMap;

/// Number of most-common values retained.
const MCV_SIZE: usize = 10;
/// Number of histogram buckets (bounds = buckets + 1).
const HIST_BUCKETS: usize = 100;

#[derive(Debug, Clone, Default)]
pub struct ColumnStats {
    /// Fraction of rows where this column is NULL.
    pub null_frac: f64,
    /// Estimated number of distinct non-null values.
    pub n_distinct: f64,
    /// Most common values with their frequency (fraction of all rows).
    pub mcv: Vec<(Datum, f64)>,
    /// Equi-depth histogram bounds over non-MCV values, ascending.
    pub histogram: Vec<Datum>,
    /// Average value width in bytes.
    pub avg_width: f64,
}

#[derive(Debug, Clone, Default)]
pub struct TableStats {
    pub n_rows: f64,
    /// Keyed by live column name at ANALYZE time.
    pub columns: HashMap<String, ColumnStats>,
}

/// Streaming collector for one column.
pub struct ColumnCollector {
    rows: u64,
    nulls: u64,
    /// The distinct values seen (DESIGN.md §40), and each one's count.
    values: KeyTable,
    counts: Vec<u64>,
    width_sum: u64,
    /// Distinct tracking stops (and falls back to an extrapolation) past
    /// this cardinality to bound memory.
    overflowed: bool,
}

const MAX_TRACKED: usize = 262_144;

impl Default for ColumnCollector {
    fn default() -> Self {
        Self::new()
    }
}

impl ColumnCollector {
    pub fn new() -> ColumnCollector {
        ColumnCollector {
            rows: 0,
            nulls: 0,
            values: KeyTable::new(1),
            counts: Vec::new(),
            width_sum: 0,
            overflowed: false,
        }
    }

    pub fn add(&mut self, d: &Datum) {
        self.rows += 1;
        if d.is_null() {
            self.nulls += 1;
            return;
        }
        self.width_sum += d.width() as u64;
        let i = match self.values.find(&[d][..]) {
            Some(i) => i,
            None if self.values.len() >= MAX_TRACKED => {
                self.overflowed = true;
                return;
            }
            None => {
                self.counts.push(0);
                self.values.intern(&[d][..]).0
            }
        };
        self.counts[i] += 1;
    }

    pub fn finish(self) -> ColumnStats {
        let rows = self.rows.max(1) as f64;
        let non_null = (self.rows - self.nulls).max(1) as f64;
        let tracked_distinct = self.counts.len() as f64;
        // If tracking overflowed, extrapolate: assume the tail is all
        // distinct (a conservative, Postgres-like under/over-estimate).
        let tracked_rows: u64 = self.counts.iter().sum();
        let untracked = (self.rows - self.nulls).saturating_sub(tracked_rows) as f64;
        let n_distinct = if self.overflowed { tracked_distinct + untracked } else { tracked_distinct };

        let mut by_freq: Vec<(Datum, u64)> =
            self.values.into_keys().into_iter().zip(self.counts).collect();
        by_freq.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.total_cmp(&b.0)));
        // MCVs: only values that actually repeat are interesting.
        let mcv: Vec<(Datum, f64)> = by_freq
            .iter()
            .take(MCV_SIZE)
            .filter(|(_, c)| *c > 1)
            .map(|(d, c)| (d.clone(), *c as f64 / rows))
            .collect();

        // Histogram over the remaining (non-MCV) values, weighted by count.
        let mcv_keys: Vec<GroupKey> = mcv.iter().map(|(d, _)| d.group_key()).collect();
        let mut rest: Vec<(Datum, u64)> = by_freq
            .into_iter()
            .filter(|(d, _)| !mcv_keys.contains(&d.group_key()))
            .collect();
        rest.sort_by(|a, b| a.0.total_cmp(&b.0));
        let total_rest: u64 = rest.iter().map(|(_, c)| c).sum();
        let mut histogram = Vec::new();
        if total_rest > 1 && rest.len() > 1 {
            let step = (total_rest as f64) / HIST_BUCKETS as f64;
            let mut acc = 0u64;
            let mut next = 0.0f64;
            for (d, c) in &rest {
                if acc as f64 >= next {
                    histogram.push(d.clone());
                    next += step;
                }
                acc += c;
            }
            let last = rest.last().unwrap().0.clone();
            if histogram.last() != Some(&last) {
                histogram.push(last);
            }
        }

        ColumnStats {
            null_frac: self.nulls as f64 / rows,
            n_distinct: n_distinct.max(1.0),
            mcv,
            histogram,
            avg_width: self.width_sum as f64 / non_null,
        }
    }
}

impl ColumnStats {
    /// Selectivity of `col = value`.
    pub fn eq_selectivity(&self, value: &Datum) -> f64 {
        if value.is_null() {
            return 0.0;
        }
        let key = value.group_key();
        for (d, f) in &self.mcv {
            if d.group_key() == key {
                return *f;
            }
        }
        let mcv_total: f64 = self.mcv.iter().map(|(_, f)| f).sum();
        let remaining_distinct = (self.n_distinct - self.mcv.len() as f64).max(1.0);
        ((1.0 - self.null_frac - mcv_total) / remaining_distinct).clamp(0.0, 1.0)
    }

    /// Selectivity of `col < value` (or `<=`; bucket resolution subsumes
    /// the difference).
    pub fn lt_selectivity(&self, value: &Datum) -> f64 {
        let mut sel = 0.0;
        let mcv_total: f64 = self.mcv.iter().map(|(_, f)| f).sum();
        for (d, f) in &self.mcv {
            if d.sql_cmp(value) == Some(std::cmp::Ordering::Less) {
                sel += f;
            }
        }
        let hist_frac = self.histogram_fraction_below(value);
        sel += hist_frac * (1.0 - self.null_frac - mcv_total).max(0.0);
        sel.clamp(0.0, 1.0)
    }

    fn histogram_fraction_below(&self, value: &Datum) -> f64 {
        if self.histogram.len() < 2 {
            return 0.3333; // DEFAULT_INEQ_SEL
        }
        let n = self.histogram.len();
        let mut below = 0usize;
        for b in &self.histogram {
            if b.sql_cmp(value) == Some(std::cmp::Ordering::Less) {
                below += 1;
            } else {
                break;
            }
        }
        (below as f64 / n as f64).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect(vals: impl IntoIterator<Item = Datum>) -> ColumnStats {
        let mut c = ColumnCollector::new();
        for v in vals {
            c.add(&v);
        }
        c.finish()
    }

    #[test]
    fn null_frac_and_distinct() {
        let stats = collect(
            (0..100).map(|i| if i % 4 == 0 { Datum::Null } else { Datum::Int(i % 10) }),
        );
        assert!((stats.null_frac - 0.25).abs() < 1e-9);
        // values 1,2,3,5,6,7,9,10... non-null i%10 over i not div by 4
        assert!(stats.n_distinct >= 7.0 && stats.n_distinct <= 10.0);
    }

    #[test]
    fn mcv_catches_heavy_hitters() {
        let mut vals: Vec<Datum> = vec![Datum::Text("hot".into()); 500];
        vals.extend((0..500).map(Datum::Int));
        let stats = collect(vals);
        let sel = stats.eq_selectivity(&Datum::Text("hot".into()));
        assert!((sel - 0.5).abs() < 0.02, "hot value sel {sel}");
        // a cold value gets the uniform remainder estimate
        let cold = stats.eq_selectivity(&Datum::Int(3));
        assert!(cold < 0.01, "cold sel {cold}");
    }

    #[test]
    fn histogram_range_estimate() {
        let stats = collect((0..10_000).map(Datum::Int));
        let sel = stats.lt_selectivity(&Datum::Int(2500));
        assert!((sel - 0.25).abs() < 0.05, "lt sel {sel}");
        let sel_all = stats.lt_selectivity(&Datum::Int(999_999));
        assert!(sel_all > 0.95);
        let sel_none = stats.lt_selectivity(&Datum::Int(-5));
        assert!(sel_none < 0.05);
    }

    #[test]
    fn eq_selectivity_unknown_value_uniform() {
        let stats = collect((0..1000).map(|i| Datum::Int(i % 100)));
        let sel = stats.eq_selectivity(&Datum::Int(42));
        assert!((sel - 0.01).abs() < 0.005, "sel {sel}");
    }

    #[test]
    fn overflow_extrapolates_distinct() {
        // More distinct values than MAX_TRACKED would be slow to test
        // directly; simulate by checking the no-overflow path is exact.
        let stats = collect((0..5000).map(Datum::Int));
        assert!((stats.n_distinct - 5000.0).abs() < 1.0);
    }

    #[test]
    fn avg_width_text() {
        let stats = collect((0..10).map(|_| Datum::Text("abcdef".into())));
        assert!((stats.avg_width - 10.0).abs() < 1.0); // 6 + 4 overhead
    }
}
