//! How an engine result is compared with the reference's answer
//! (DESIGN.md §31). The reference fixes what a statement returns, not the
//! order a plan returns it in:
//!
//! * without ORDER BY, the rows are a bag;
//! * with ORDER BY, each run of rows whose sort keys tie is a bag, and the
//!   runs come in order;
//! * with LIMIT, the rows are a sub-bag of the right size, taken from the
//!   right runs;
//! * a Float `SUM` or `AVG` may differ from the reference's in a relative
//!   1e-9, because it depends on the order its rows were added in; every
//!   other value must be identical (same variant, same bits);
//! * a statement the engine fails must fail in the reference with the same
//!   `DbError` variant, and the other way round.

use crate::{Answer, Row};
use sinew_rdbms::{Datum, DbResult};
use std::collections::HashMap;
use std::mem::discriminant;

/// Whether the engine's outcome `got` agrees with the reference's `want`;
/// `Err` describes the first difference.
pub fn agree(got: &DbResult<Vec<Row>>, want: &DbResult<Answer>) -> Result<(), String> {
    match (got, want) {
        (Err(g), Err(w)) if discriminant(g) == discriminant(w) => Ok(()),
        (Err(g), Err(w)) => Err(format!("the engine failed with {g}, the reference with {w}")),
        (Err(g), Ok(w)) => Err(format!(
            "the engine failed with {g}; the reference returned {} rows",
            w.limited().len()
        )),
        (Ok(g), Err(w)) => {
            Err(format!("the engine returned {} rows; the reference failed with {w}", g.len()))
        }
        (Ok(g), Ok(w)) => rows_agree(g, w),
    }
}

fn rows_agree(got: &[Row], want: &Answer) -> Result<(), String> {
    let n = want.limited().len();
    if got.len() != n {
        return Err(format!("{} rows where the reference has {n}", got.len()));
    }
    let Some(runs) = &want.runs else {
        return bag(got, &want.rows, &want.loose);
    };
    let mut at = 0;
    let mut start = 0;
    while at < n {
        let end = start + runs[start..].iter().take_while(|&&r| r == runs[start]).count();
        let take = (end - start).min(n - at);
        bag(&got[at..at + take], &want.rows[start..end], &want.loose)
            .map_err(|e| format!("in ORDER BY rows {at}..{}: {e}", at + take))?;
        at += take;
        start = end;
    }
    Ok(())
}

/// Whether `got` is a sub-bag of `want` (callers check the sizes).
fn bag(got: &[Row], want: &[Row], loose: &[bool]) -> Result<(), String> {
    // Rows bucketed by their exact columns' text, which tells every
    // variant and bit pattern apart; loose columns are matched within.
    let exact = |row: &Row| -> String {
        let cols: Vec<&Datum> =
            row.iter().zip(loose).filter(|(_, l)| !**l).map(|(d, _)| d).collect();
        format!("{cols:?}")
    };
    let mut left: HashMap<String, Vec<&Row>> = HashMap::new();
    for row in want {
        left.entry(exact(row)).or_default().push(row);
    }
    for row in got {
        if row.len() != loose.len() {
            return Err(format!(
                "{row:?} has {} columns, the reference {}",
                row.len(),
                loose.len()
            ));
        }
        let bucket = left.get_mut(&exact(row));
        let hit = bucket.and_then(|b| {
            let i = b.iter().position(|w| zip_loose(row, w, loose))?;
            Some(b.swap_remove(i))
        });
        if hit.is_none() {
            let shown: Vec<&Row> = want.iter().take(5).collect();
            return Err(format!("{row:?} is not among the reference's rows (first: {shown:?})"));
        }
    }
    Ok(())
}

/// Whether the loose columns of two rows agree.
fn zip_loose(a: &Row, b: &Row, loose: &[bool]) -> bool {
    a.iter().zip(b).zip(loose).filter(|(_, l)| **l).all(|((x, y), _)| match (x, y) {
        (Datum::Float(x), Datum::Float(y)) => {
            x == y || (x.is_nan() && y.is_nan()) || (x - y).abs() <= 1e-9 * x.abs().max(y.abs())
        }
        _ => x.identical(y),
    })
}
