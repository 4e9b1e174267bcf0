//! `--compare a.json b.json`: apply the bounds to two result files (one
//! JSON object per line, as `--out` writes them) and name every
//! `(metric, workload)` pair that got worse — or that the runs are too
//! noisy to judge — and every run that was not correct.

use crate::spec;
use crate::stats::{judge, median, spread, Verdict};
use sinew_json::Value;
use std::collections::BTreeMap;

type Runs = BTreeMap<(String, String), Vec<f64>>;

/// One results file.
#[derive(Debug, Default)]
pub struct Results {
    /// `(workload, metric) -> one value per untraced run`.
    pub runs: Runs,
    /// Runs, traced or not, with failed ops or `"correct": false`. Failed
    /// ops carry no latency, so such a run's medians mean nothing.
    pub incorrect: Vec<String>,
}

pub fn parse_results(text: &str) -> Result<Results, String> {
    let mut out = Results::default();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let v = sinew_json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        let field = |k: &str| {
            v.get(k)
                .ok_or_else(|| format!("line {}: no \"{k}\"", i + 1))
        };
        let workload = field("workload")?.as_str().unwrap_or_default().to_string();
        let failed = field("failed")?.as_int().unwrap_or(-1);
        if failed != 0 || field("correct")? != &Value::Bool(true) {
            let seed = field("seed")?.as_int().unwrap_or(-1);
            out.incorrect
                .push(format!("{workload} seed {seed} ({failed} failed ops)"));
        }
        if field("trace")?.as_int() != Some(0) {
            continue;
        }
        for (name, m) in field("metrics")?.as_object().unwrap_or_default() {
            let value = match m.get("value") {
                Some(Value::Float(f)) => *f,
                Some(Value::Int(n)) => *n as f64,
                _ => return Err(format!("line {}: metric {name} has no value", i + 1)),
            };
            out.runs
                .entry((workload.clone(), name.clone()))
                .or_default()
                .push(value);
        }
    }
    Ok(out)
}

pub struct Row {
    pub workload: String,
    pub metric: String,
    pub base: f64,
    pub candidate: f64,
    pub verdict: Verdict,
}

/// Judge every bounded pair present in both files.
pub fn compare(base: &Runs, candidate: &Runs) -> Vec<Row> {
    let mut rows = Vec::new();
    for ((workload, metric), a) in base {
        let Some(b) = candidate.get(&(workload.clone(), metric.clone())) else {
            continue;
        };
        let Some(m) = spec::find(metric) else {
            continue;
        };
        let Some(bound) = m.bound else { continue };
        rows.push(Row {
            workload: workload.clone(),
            metric: metric.clone(),
            base: median(a),
            candidate: median(b),
            verdict: judge(a, b, m.better, bound),
        });
    }
    rows
}

/// Print the table; `true` when every run of both files was correct and
/// every pair is within its bound.
pub fn report(base: &Results, candidate: &Results) -> bool {
    let incorrect: Vec<&String> = base.incorrect.iter().chain(&candidate.incorrect).collect();
    for run in &incorrect {
        println!("INCORRECT RUN: {run}");
    }
    let (base, candidate) = (&base.runs, &candidate.runs);
    let rows = compare(base, candidate);
    println!(
        "{:<24} {:<28} {:>14} {:>14} {:>9}  verdict",
        "workload", "metric", "base", "candidate", "change"
    );
    for r in &rows {
        let change = if r.base != 0.0 {
            (r.candidate - r.base) / r.base * 100.0
        } else {
            0.0
        };
        let verdict = match r.verdict {
            Verdict::Within => "within bound",
            Verdict::Worse => "WORSE",
            Verdict::Unresolved => "UNRESOLVED (spread exceeds bound)",
        };
        println!(
            "{:<24} {:<28} {:>14.4} {:>14.4} {:>+8.1}%  {verdict}",
            r.workload, r.metric, r.base, r.candidate, change
        );
    }
    for ((workload, metric), values) in base.iter().chain(candidate) {
        if let (Some(s), Some(bound)) = (spread(values), spec::find(metric).and_then(|m| m.bound)) {
            if s > bound {
                println!(
                    "spread of {metric} on {workload}: {:.1}% of its median",
                    s * 100.0
                );
            }
        }
    }
    let bad: Vec<String> = rows
        .iter()
        .filter(|r| r.verdict != Verdict::Within)
        .map(|r| format!("({}, {})", r.metric, r.workload))
        .collect();
    if rows.is_empty() {
        println!("no (metric, workload) pair is present in both files");
        return false;
    }
    if bad.is_empty() {
        println!("all {} pairs within their bounds", rows.len());
    } else {
        println!("disagree: {}", bad.join(" "));
    }
    bad.is_empty() && incorrect.is_empty()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(workload: &str, trace: u8, metric: &str, value: f64) -> String {
        format!(
            "{{\"workload\":\"{workload}\",\"seed\":1,\"trace\":{trace},\"correct\":true,\"attempted\":1,\"failed\":0,\"metrics\":{{\"{metric}\":{{\"value\":{value},\"unit\":\"ms\"}}}}}}"
        )
    }

    fn runs(text: &str) -> Runs {
        parse_results(text).unwrap().runs
    }

    #[test]
    fn compare_names_worse_and_unresolved_pairs() {
        let file = |vals: &[f64], metric: &str| -> String {
            vals.iter()
                .map(|v| line("nobench_hybrid", 0, metric, *v))
                .collect::<Vec<_>>()
                .join("\n")
        };
        let base = runs(&file(&[1.0, 1.01, 0.99, 1.0], "join_ms_p50"));
        let same = runs(&file(&[1.02, 1.0, 1.01, 1.03], "join_ms_p50"));
        let slow = runs(&file(&[1.4, 1.41, 1.39, 1.4], "join_ms_p50"));
        let noisy = runs(&file(&[0.5, 1.5, 1.0, 2.0], "join_ms_p50"));
        assert_eq!(compare(&base, &same)[0].verdict, Verdict::Within);
        assert_eq!(compare(&base, &slow)[0].verdict, Verdict::Worse);
        assert_eq!(compare(&base, &noisy)[0].verdict, Verdict::Unresolved);
        // higher-is-better metrics flip
        let fast = runs(&file(&[100.0, 101.0, 99.0, 100.0], "ops_per_s"));
        let slower = runs(&file(&[70.0, 71.0, 69.0, 70.0], "ops_per_s"));
        assert_eq!(compare(&fast, &slower)[0].verdict, Verdict::Worse);
        assert_eq!(compare(&slower, &fast)[0].verdict, Verdict::Within);
    }

    #[test]
    fn traced_runs_and_unbounded_metrics_are_left_out() {
        let text = [
            line("ingest_evolve", 1, "sql.parse_us_p50", 3.0),
            line("ingest_evolve", 0, "setup_s", 2.0),
            String::new(),
        ]
        .join("\n");
        let runs = runs(&text);
        assert_eq!(runs.len(), 1);
        assert!(runs.contains_key(&("ingest_evolve".to_string(), "setup_s".to_string())));
        assert!(parse_results("{not json").is_err());
    }

    #[test]
    fn a_run_with_failed_ops_fails_the_comparison() {
        let good = line("mixed_serving", 0, "join_ms_p50", 1.0);
        let clean = parse_results(&good).unwrap();
        assert!(clean.incorrect.is_empty());
        assert!(report(&clean, &clean));
        // failed ops carry no latency: the medians may even look better
        let failed = good
            .replace("\"failed\":0", "\"failed\":3")
            .replace("1.0", "0.9");
        let wrong = good.replace("\"correct\":true", "\"correct\":false");
        for text in [failed, wrong] {
            let bad = parse_results(&text).unwrap();
            assert_eq!(bad.incorrect.len(), 1);
            assert!(bad.incorrect[0].starts_with("mixed_serving seed 1"));
            assert!(!report(&clean, &bad));
            assert!(!report(&bad, &clean));
        }
    }
}
