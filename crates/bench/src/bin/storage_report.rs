//! `storage_report` — exercise a full analyzer → materializer cycle over a
//! synthetic load and render the storage introspection report (paper §3.1:
//! physical vs virtual column split, reservoir vs column bytes, dirty-pass
//! progress) at each stage. With `--check` the JSON form is re-parsed and
//! its invariants asserted, so CI can verify the report end to end.
//!
//! Flags (parsed here — this binary's flags differ from `HarnessConfig`):
//!
//! * `--docs N`   documents to load (default 2000)
//! * `--out PATH` where to write the text snapshot
//!   (default `results/STORAGE_REPORT_PR2.txt`)
//! * `--check`    parse the JSON report and assert invariants; exit 1 on
//!   failure

use sinew_core::{AnalyzerPolicy, Sinew, StepBudget, StorageReport};
use sinew_json::Value;
use sinew_rdbms::counters::Sample;

struct Args {
    docs: usize,
    out: String,
    check: bool,
}

fn parse_args() -> Args {
    let mut args =
        Args { docs: 2_000, out: "results/STORAGE_REPORT_PR2.txt".to_string(), check: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--docs" => {
                args.docs = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| panic!("--docs expects a number"))
            }
            "--out" => args.out = it.next().unwrap_or_else(|| panic!("--out expects a path")),
            "--check" => args.check = true,
            other => panic!("unknown flag {other} (storage_report takes --docs/--out/--check)"),
        }
    }
    args
}

/// Dense `id`/`name`, 40%-sparse `tag`, 5%-rare `debug` — a mix that makes
/// the analyzer split physical from virtual.
fn synthetic_docs(n: usize) -> String {
    (0..n)
        .map(|i| {
            let mut doc = format!(r#"{{"id": {i}, "name": "user-{i}""#);
            if i % 5 != 0 {
                doc.push_str(&format!(r#", "tag": "t{}""#, i % 7));
            }
            if i % 20 == 0 {
                doc.push_str(r#", "debug": true"#);
            }
            doc.push_str("}\n");
            doc
        })
        .collect()
}

fn check_report(report: &StorageReport) -> Result<(), String> {
    let json = report.to_json();
    let parsed = sinew_json::parse(&json).map_err(|e| format!("report JSON re-parse: {e:?}"))?;
    let Value::Object(fields) = &parsed else {
        return Err("report JSON is not an object".into());
    };
    let get = |k: &str| fields.iter().find(|(n, _)| n == k).map(|(_, v)| v);
    for key in ["table", "rows", "physical_columns", "virtual_columns", "exec", "io", "metrics"] {
        if get(key).is_none() {
            return Err(format!("report JSON lacks `{key}`"));
        }
    }
    if report.physical_columns.is_empty() {
        return Err("no column materialized after the analyzer cycle".into());
    }
    if report.synopsis_bytes == 0 || get("synopsis_bytes") != Some(&Value::Int(report.synopsis_bytes as i64)) {
        return Err("the collection's heap keeps no page synopsis".into());
    }
    for (key, value) in [
        ("heap_pages", report.heap_pages),
        ("heap_free_pages", report.heap_free_pages),
        ("heap_live_bytes", report.heap_live_bytes),
    ] {
        if get(key) != Some(&Value::Int(value as i64)) {
            return Err(format!("report JSON `{key}` is not {value}"));
        }
    }
    // Materialization relocates every row once per promoted column; the
    // pages vacuum empties must be refilled, not appended to (DESIGN.md §34).
    let live_pages = report.heap_live_bytes.div_ceil(sinew_rdbms::page::PAGE_SIZE as u64);
    if report.heap_pages > 3 * live_pages {
        return Err(format!(
            "the heap holds {} pages for {live_pages} pages of live tuples",
            report.heap_pages
        ));
    }
    // Every counter of both tables must come back out of the JSON under
    // its own name with its own value, and show up in the text report.
    let same = |json: &Value, sample: &Sample| match (json, sample) {
        (Value::Int(n), Sample::Int(m)) => *n as u64 == *m,
        (Value::Float(x), Sample::Float(y)) => x == y,
        (Value::Array(items), Sample::Buckets(b)) => {
            items.len() == b.len() && items.iter().zip(b).all(|(i, n)| *i == Value::Int(*n as i64))
        }
        _ => false,
    };
    let text = report.render_text();
    let mut positive = Vec::new();
    for (obj, walk) in [
        ("exec", report.exec.walk()),
        ("io", report.io.walk()),
        ("metrics", report.metrics.walk_with_rates()),
    ] {
        let Some(Value::Object(counters)) = get(obj) else {
            return Err(format!("`{obj}` is not an object"));
        };
        for (_, name, value) in walk {
            let in_json = counters.iter().find(|(k, _)| k == name).map(|(_, v)| v);
            if !in_json.is_some_and(|v| same(v, &value)) {
                return Err(format!("{obj}.{name}: JSON has {in_json:?}, snapshot has {value}"));
            }
            if !text.contains(&format!(" {name}={value}")) {
                return Err(format!("text report lacks `{name}={value}`"));
            }
            if matches!(value, Sample::Int(1..)) || matches!(value, Sample::Float(x) if x > 0.0) {
                positive.push(name);
            }
        }
    }
    // The analyzer → materializer → query cycle above must have left
    // its mark on these.
    for name in ["materializer_passes_completed", "blocks_emitted"] {
        if !positive.contains(&name) {
            return Err(format!("`{name}` is zero after the full cycle"));
        }
    }
    Ok(())
}

fn main() {
    let args = parse_args();
    let mut out = String::new();

    let sinew = Sinew::in_memory();
    sinew.create_collection("events").unwrap();
    sinew.load_jsonl("events", &synthetic_docs(args.docs)).unwrap();

    out.push_str("--- after load (all virtual) ---\n");
    out.push_str(&sinew.storage_report("events").unwrap().render_text());

    let policy = AnalyzerPolicy {
        density_threshold: 0.6,
        cardinality_threshold: 50,
        sample_rows: args.docs as u64,
    };
    sinew.run_analyzer("events", &policy).unwrap();
    sinew.materialize_step("events", StepBudget { rows: (args.docs / 4).max(1) as u64 }).unwrap();

    out.push_str("\n--- mid-materialization (bounded step) ---\n");
    out.push_str(&sinew.storage_report("events").unwrap().render_text());

    sinew.materialize_until_clean("events").unwrap();
    // extraction queries, so the udf and executor rows are non-zero
    for _ in 0..3 {
        sinew.query("SELECT COUNT(*) FROM events WHERE debug IS NOT NULL").unwrap();
        sinew.query("SELECT COUNT(*) FROM events WHERE tag = 't3'").unwrap();
    }

    let report = sinew.storage_report("events").unwrap();
    out.push_str("\n--- after materialization + queries ---\n");
    out.push_str(&report.render_text());

    print!("{out}");
    if let Some(dir) = std::path::Path::new(&args.out).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    std::fs::write(&args.out, &out).unwrap_or_else(|e| panic!("write {}: {e}", args.out));
    println!("\nsnapshot written to {}", args.out);

    if args.check {
        match check_report(&report) {
            Ok(()) => println!("check: ok"),
            Err(e) => {
                eprintln!("check: FAILED: {e}");
                std::process::exit(1);
            }
        }
    }
}
