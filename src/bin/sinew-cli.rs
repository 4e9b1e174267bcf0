//! `sinew-cli` — an interactive shell over a Sinew instance.
//!
//! ```sh
//! cargo run --release --bin sinew-cli
//! cargo run --release --bin sinew-cli -- --db /tmp/mydata --pool-mb 64
//! ```
//!
//! A `--db` file keeps its collections between sessions: documents and
//! physical columns are recovered by the database, the catalog is read back
//! from its mirror tables.
//!
//! Meta-commands (everything else is SQL):
//!
//! ```text
//! .create <coll>            create a collection
//! .load <coll> <file>       bulk-load newline-delimited JSON
//! .schema <coll>            show the universal-relation schema
//! .analyze <coll>           run the schema analyzer (paper §3.1.3)
//! .materialize <coll>       drive the materializer to clean (§3.1.4)
//! .report <coll>            storage introspection report (§3.1 layout)
//! .index <coll>             enable the inverted text index (§4.3)
//! .explain <sql>            show the physical plan
//! .rewrite <sql>            show the rewritten SQL (§3.2.2)
//! .tables                   list collections and raw tables
//! .help / .quit
//! ```

use sinew::core::AnalyzerPolicy;
use sinew::{Datum, Sinew};
use std::io::{BufRead, Write};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mut db_path: Option<String> = None;
    let mut pool_mb = 128usize;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--db" => {
                i += 1;
                db_path = args.get(i).cloned();
            }
            "--pool-mb" => {
                i += 1;
                pool_mb = args.get(i).and_then(|v| v.parse().ok()).unwrap_or(128);
            }
            "--help" | "-h" => {
                eprintln!("usage: sinew-cli [--db PATH] [--pool-mb N]");
                return;
            }
            other => {
                eprintln!("unknown flag {other}");
                return;
            }
        }
        i += 1;
    }
    let sinew = match &db_path {
        Some(p) => {
            std::fs::create_dir_all(std::path::Path::new(p).parent().unwrap_or(std::path::Path::new(".")))
                .ok();
            Sinew::open(std::path::Path::new(p), pool_mb * 128, None).expect("open database")
        }
        None => Sinew::in_memory(),
    };
    eprintln!(
        "sinew-cli — {} database. Type SQL, or .help for meta-commands.",
        if db_path.is_some() { "file-backed" } else { "in-memory" }
    );

    let stdin = std::io::stdin();
    let mut out = std::io::stdout();
    loop {
        eprint!("sinew> ");
        let _ = std::io::stderr().flush();
        let mut line = String::new();
        if stdin.lock().read_line(&mut line).unwrap_or(0) == 0 {
            break;
        }
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('.') {
            if !meta_command(&sinew, rest, &mut out) {
                break;
            }
            continue;
        }
        run_sql(&sinew, line, &mut out);
    }
}

fn meta_command(sinew: &Sinew, cmd: &str, out: &mut impl Write) -> bool {
    let mut parts = cmd.splitn(3, ' ');
    let head = parts.next().unwrap_or("");
    let arg1 = parts.next().unwrap_or("");
    let arg2 = parts.next().unwrap_or("");
    match head {
        "quit" | "exit" => return false,
        "help" => {
            let _ = writeln!(
                out,
                ".create <coll> | .load <coll> <file> | .schema <coll> | .analyze <coll>\n\
                 .materialize <coll> | .report <coll> | .index <coll> | .explain <sql>\n\
                 .rewrite <sql> | .tables | .quit"
            );
        }
        "create" => match sinew.create_collection(arg1) {
            Ok(()) => {
                let _ = writeln!(out, "created collection {arg1}");
            }
            Err(e) => {
                let _ = writeln!(out, "error: {e}");
            }
        },
        "load" => {
            match std::fs::read_to_string(arg2) {
                Ok(text) => match sinew.load_jsonl(arg1, &text) {
                    Ok(r) => {
                        let _ = writeln!(
                            out,
                            "loaded {} documents ({} new attributes)",
                            r.documents, r.new_attributes
                        );
                    }
                    Err(e) => {
                        let _ = writeln!(out, "error: {e}");
                    }
                },
                Err(e) => {
                    let _ = writeln!(out, "cannot read {arg2}: {e}");
                }
            };
        }
        "schema" => {
            for col in sinew.logical_schema(arg1) {
                let _ = writeln!(
                    out,
                    "  {:<24} {:<8} n={:<8} {}{}",
                    col.name,
                    col.ty.name(),
                    col.count,
                    if col.materialized { "physical" } else { "virtual" },
                    if col.dirty { " (dirty)" } else { "" }
                );
            }
        }
        "analyze" => match sinew.run_analyzer(arg1, &AnalyzerPolicy::default()) {
            Ok(decisions) => {
                for d in &decisions {
                    let _ = writeln!(out, "  {d:?}");
                }
                let _ = writeln!(out, "{} decision(s)", decisions.len());
            }
            Err(e) => {
                let _ = writeln!(out, "error: {e}");
            }
        },
        "materialize" => match sinew.materialize_until_clean(arg1) {
            Ok(r) => {
                let _ = writeln!(
                    out,
                    "moved {} values; cleaned columns: {:?}",
                    r.values_moved, r.columns_cleaned
                );
            }
            Err(e) => {
                let _ = writeln!(out, "error: {e}");
            }
        },
        "report" => match sinew.storage_report(arg1) {
            Ok(r) => {
                let _ = write!(out, "{}", r.render_text());
            }
            Err(e) => {
                let _ = writeln!(out, "error: {e}");
            }
        },
        "index" => match sinew.enable_text_index(arg1) {
            Ok(()) => {
                let _ = writeln!(out, "text index enabled on {arg1}");
            }
            Err(e) => {
                let _ = writeln!(out, "error: {e}");
            }
        },
        "explain" => {
            let sql = format!("{arg1} {arg2}");
            match sinew.explain(sql.trim()) {
                Ok(plan) => {
                    let _ = writeln!(out, "{plan}");
                }
                Err(e) => {
                    let _ = writeln!(out, "error: {e}");
                }
            }
        }
        "rewrite" => {
            let sql = format!("{arg1} {arg2}");
            match sinew.rewrite(sql.trim()) {
                Ok(r) => {
                    let _ = writeln!(out, "{r}");
                }
                Err(e) => {
                    let _ = writeln!(out, "error: {e}");
                }
            }
        }
        "tables" => {
            let colls = sinew.collections();
            for t in sinew.db().table_names() {
                if t.starts_with("_sinew") {
                    continue;
                }
                let kind = if colls.contains(&t) { "collection" } else { "table" };
                let rows = sinew.db().row_count(&t).unwrap_or(0);
                let _ = writeln!(out, "  {t:<24} {kind:<10} {rows} rows");
            }
        }
        other => {
            let _ = writeln!(out, "unknown meta-command .{other} (try .help)");
        }
    }
    true
}

fn run_sql(sinew: &Sinew, sql: &str, out: &mut impl Write) {
    let start = std::time::Instant::now();
    match sinew.query(sql) {
        Ok(r) => {
            if !r.columns.is_empty() {
                let _ = writeln!(out, "{}", r.columns.join(" | "));
                let _ = writeln!(out, "{}", "-".repeat(40));
                const MAX_SHOWN: usize = 40;
                for row in r.rows.iter().take(MAX_SHOWN) {
                    let cells: Vec<String> = row.iter().map(render).collect();
                    let _ = writeln!(out, "{}", cells.join(" | "));
                }
                if r.rows.len() > MAX_SHOWN {
                    let _ = writeln!(out, "... ({} rows total)", r.rows.len());
                }
            }
            let _ = writeln!(
                out,
                "({} rows, {} affected, {:.2} ms)",
                r.rows.len(),
                r.affected,
                start.elapsed().as_secs_f64() * 1e3
            );
        }
        Err(e) => {
            let _ = writeln!(out, "error: {e}");
        }
    }
}

fn render(d: &Datum) -> String {
    match d {
        Datum::Bytea(b) => format!("<{} bytes>", b.len()),
        other => other.display_text(),
    }
}
