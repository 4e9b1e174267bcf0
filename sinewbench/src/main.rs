//! `sinewbench` — one end-to-end + per-layer benchmark of Sinew over four
//! NoBench workloads. See README.md in this directory.

mod client;
mod compare;
mod crash;
mod data;
mod layers;
mod mixed;
mod oracle;
mod setup;
mod spec;
mod stats;
mod sut;
mod trace;
mod workload;

use spec::Workload;
use std::io::Write;
use std::path::PathBuf;
use workload::{Options, Report};

const USAGE: &str = "usage: sinewbench [--workload NAME | --all | --smoke] [--seed N] [--seconds S] [--trace [0|1]] [--out FILE] [--scratch DIR]
       sinewbench --list | --emit-benchmark-json | --crash-check [--seed N] | --compare A.json B.json";

#[derive(Default)]
struct Args {
    workload: Option<String>,
    all: bool,
    smoke: bool,
    list: bool,
    emit: bool,
    crash_check: bool,
    crash_child: Option<PathBuf>,
    compare: Option<(String, String)>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    out: Option<PathBuf>,
    scratch: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args::default();
    let mut it = std::env::args().skip(1).peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().ok_or_else(|| format!("{arg} needs {what}"));
        match arg.as_str() {
            "--workload" => a.workload = Some(value("a name")?),
            "--all" => a.all = true,
            "--smoke" => a.smoke = true,
            "--list" => a.list = true,
            "--emit-benchmark-json" => a.emit = true,
            "--crash-check" => a.crash_check = true,
            "--crash-child" => a.crash_child = Some(value("a directory")?.into()),
            "--compare" => a.compare = Some((value("two files")?, value("two files")?)),
            "--seed" => {
                a.seed = Some(
                    value("a number")?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                a.seconds = Some(s);
            }
            "--out" => a.out = Some(value("a file")?.into()),
            "--scratch" => a.scratch = Some(value("a directory")?.into()),
            // `--trace` alone, or `--trace 0|1` as the driver passes it
            "--trace" => {
                a.trace = match it.peek().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--help" | "-h" => return Err(USAGE.into()),
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    Ok(a)
}

fn list() {
    println!(
        "workloads ({} s measured window by default):",
        spec::RUN_SECONDS
    );
    for w in Workload::ALL {
        println!("  {:<22} {}", w.name(), w.load_model());
        println!("  {:<22} {}", "", w.why());
    }
    println!("end-to-end metrics (untraced run; every workload reports every one):");
    for m in spec::END_TO_END {
        println!(
            "  {:<28} {:<6} {:<6} better, bound {:<5} {}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound.unwrap_or(0.0),
            m.what
        );
    }
    println!("per-layer metrics (traced run; no bounds):");
    for m in spec::PER_LAYER {
        println!(
            "  {:<48} {:<6} {:<6} better  {}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.what
        );
    }
}

fn metrics_json(r: &Report) -> String {
    let fields: Vec<String> = r
        .metrics
        .iter()
        .map(|m| {
            let unit = spec::find(m.name).map_or("", |s| s.unit);
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                m.name, m.value
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// The line the driver reads: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_line(r: &Report) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        r.correct(),
        r.attempted.max(1),
        r.failed,
        metrics_json(r)
    )
}

/// The line `--out` appends and `--compare` reads.
fn out_line(r: &Report) -> String {
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        r.workload.name(),
        r.seed,
        u8::from(r.trace),
        r.correct(),
        r.attempted,
        r.failed,
        metrics_json(r)
    )
}

fn print_report(r: &Report) {
    println!(
        "== {} (seed {}, {})",
        r.workload.name(),
        r.seed,
        if r.trace { "traced" } else { "untraced" }
    );
    for n in &r.notes {
        println!("   {n}");
    }
    for m in &r.metrics {
        let spec = spec::find(m.name);
        let unit = spec.map_or("", |s| s.unit);
        let n = m.samples.map_or(String::new(), |n| format!("  (n={n})"));
        println!("   {:<48} {:>16.6} {unit}{n}", m.name, m.value);
    }
    let ratio = r.failed as f64 / r.attempted.max(1) as f64;
    println!(
        "   failed_ops_ratio {ratio} ({} of {} ops)",
        r.failed, r.attempted
    );
    for f in &r.failures {
        println!("   FAILED OP: {f}");
    }
    for p in &r.problems {
        println!("   PROBLEM: {p}");
    }
}

/// `--scratch`, else `sinewbench/.run` from the repository root (or `.run`
/// from the package directory): the one place runs leave files.
fn scratch_dir(args: &Args) -> PathBuf {
    args.scratch.clone().unwrap_or_else(|| {
        let from_root = std::path::Path::new("sinewbench/Cargo.toml").exists();
        PathBuf::from(if from_root { "sinewbench/.run" } else { ".run" })
    })
}

fn run_one(args: &Args, w: Workload, trace: bool, seconds: f64) -> Result<Report, String> {
    let opts = Options {
        workload: w,
        seed: args.seed.unwrap_or(2014),
        seconds,
        trace,
        smoke: args.smoke,
        scratch: scratch_dir(args),
    };
    std::fs::create_dir_all(&opts.scratch)
        .map_err(|e| format!("{}: {e}", opts.scratch.display()))?;
    let report = workload::run(&opts)?;
    print_report(&report);
    if let Some(path) = &args.out {
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        writeln!(f, "{}", out_line(&report)).map_err(|e| e.to_string())?;
    }
    Ok(report)
}

fn real_main() -> Result<bool, String> {
    let args = parse_args()?;
    // the system reads tuning from SINEW_* variables; the benchmark pins
    // what it needs in code and must not inherit the rest
    for (k, _) in std::env::vars_os() {
        if k.to_string_lossy().starts_with("SINEW_") {
            std::env::remove_var(&k);
        }
    }
    if let Some(dir) = &args.crash_child {
        crash::child_main(args.seed.unwrap_or(2014), dir)?;
        return Ok(true);
    }
    if args.list {
        list();
        return Ok(true);
    }
    if args.emit {
        print!("{}", spec::benchmark_json());
        return Ok(true);
    }
    if let Some((a, b)) = &args.compare {
        let read = |p: &String| {
            std::fs::read_to_string(p)
                .map_err(|e| format!("{p}: {e}"))
                .and_then(|t| compare::parse_results(&t).map_err(|e| format!("{p}: {e}")))
        };
        return Ok(compare::report(&read(a)?, &read(b)?));
    }
    if args.crash_check {
        let dir = scratch_dir(&args).join(format!("crash-{}", std::process::id()));
        let c = crash::check(args.seed.unwrap_or(2014), &dir, args.smoke)?;
        println!(
            "killed with SIGKILL after {} acknowledged writes; acked_writes_lost = {} (SIGKILL keeps the OS cache: this checks the log protocol, not the device)",
            c.acked, c.lost
        );
        return Ok(c.lost == 0);
    }

    let seconds = args.seconds.unwrap_or(if args.smoke {
        1.0
    } else {
        f64::from(spec::RUN_SECONDS)
    });
    if args.all || args.smoke {
        let mut ok = true;
        for w in Workload::ALL {
            ok &= run_one(&args, w, false, seconds)?.correct();
            if args.trace || args.smoke {
                ok &= run_one(&args, w, true, seconds)?.correct();
            }
        }
        println!(
            "{}",
            if ok {
                "all runs correct"
            } else {
                "SOME RUNS WERE NOT CORRECT"
            }
        );
        return Ok(ok);
    }
    let name = args.workload.as_deref().ok_or(USAGE)?;
    let w = Workload::parse(name).ok_or_else(|| format!("unknown workload {name}; try --list"))?;
    let report = run_one(&args, w, args.trace, seconds)?;
    // last line of stdout: the result the driver parses
    println!("{}", result_line(&report));
    Ok(true)
}

fn main() {
    match real_main() {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("sinewbench: {e}");
            std::process::exit(2);
        }
    }
}
