//! # sinew-bench
//!
//! Experiment harnesses regenerating **every table and figure** of the
//! Sinew paper's evaluation. One binary per experiment
//! (`cargo run --release -p sinew-bench --bin <name>`):
//!
//! | binary | reproduces |
//! |--------|------------|
//! | `table2_plans` | Table 2 — query plans, virtual vs physical columns |
//! | `table3_load` | Table 3 — load time & storage size, 4 systems × 2 scales |
//! | `fig6_nobench` | Figure 6a/6b — NoBench Q1–Q10 execution times |
//! | `fig7_join` | Figure 7 — NoBench Q11 (join) |
//! | `fig8_update` | Figure 8 — the random-update task |
//! | `table4_serialization` | Appendix A Table 4 — serialization formats |
//! | `table5_virtual_overhead` | Appendix B Table 5 — virtual-column cost |
//! | `ablation_dirty` | §3.1.4's ≤10% dirty-column (COALESCE) overhead |
//! | `ablation_thresholds` | §3.1.3 materialization-policy sweep |
//! | `ablation_array_modes` | §4.2 array storage alternatives |
//!
//! Scales are laptop-sized stand-ins for the paper's 16M/64M-record
//! datasets (see DESIGN.md §7): the *small* scale fits the buffer pool
//! (CPU-bound regime), the *large* scale exceeds it (I/O-bound regime,
//! with simulated per-miss latency calibrated to the paper's 250–300 MB/s).

use std::time::{Duration, Instant};

/// Common command-line configuration for harness binaries.
#[derive(Debug, Clone)]
pub struct HarnessConfig {
    /// Records at the small scale (default 20_000; paper: 16M).
    pub small_docs: u64,
    /// Records at the large scale (default 80_000; paper: 64M).
    pub large_docs: u64,
    /// Run the large scale too (slower).
    pub run_large: bool,
    /// Query repetitions averaged per measurement (paper: 4).
    pub reps: u32,
    /// Simulated I/O latency per buffer-pool miss, microseconds.
    pub io_delay_us: u64,
    /// Buffer-pool pages for file-backed runs.
    pub pool_pages: usize,
}

impl Default for HarnessConfig {
    fn default() -> Self {
        HarnessConfig {
            small_docs: 20_000,
            large_docs: 80_000,
            run_large: true,
            reps: 4,
            // 8 KiB / 275 MB/s ≈ 29 µs
            io_delay_us: 29,
            pool_pages: 2_048, // 16 MiB
        }
    }
}

impl HarnessConfig {
    /// Parse `--docs N --large-docs N --no-large --reps N --io-delay-us N
    /// --pool-pages N` from the process arguments.
    pub fn from_args() -> HarnessConfig {
        let mut cfg = HarnessConfig::default();
        let args: Vec<String> = std::env::args().collect();
        let mut i = 1;
        while i < args.len() {
            let take = |i: &mut usize| -> Option<String> {
                *i += 1;
                args.get(*i).cloned()
            };
            match args[i].as_str() {
                "--docs" => {
                    if let Some(v) = take(&mut i) {
                        cfg.small_docs = v.parse().expect("--docs N");
                    }
                }
                "--large-docs" => {
                    if let Some(v) = take(&mut i) {
                        cfg.large_docs = v.parse().expect("--large-docs N");
                    }
                }
                "--no-large" => cfg.run_large = false,
                "--reps" => {
                    if let Some(v) = take(&mut i) {
                        cfg.reps = v.parse().expect("--reps N");
                    }
                }
                "--io-delay-us" => {
                    if let Some(v) = take(&mut i) {
                        cfg.io_delay_us = v.parse().expect("--io-delay-us N");
                    }
                }
                "--pool-pages" => {
                    if let Some(v) = take(&mut i) {
                        cfg.pool_pages = v.parse().expect("--pool-pages N");
                    }
                }
                "--help" | "-h" => {
                    eprintln!(
                        "flags: --docs N  --large-docs N  --no-large  --reps N  \
                         --io-delay-us N  --pool-pages N"
                    );
                    std::process::exit(0);
                }
                other => panic!("unknown flag {other}"),
            }
            i += 1;
        }
        cfg
    }

    pub fn io_delay(&self) -> Option<Duration> {
        (self.io_delay_us > 0).then(|| Duration::from_micros(self.io_delay_us))
    }
}

/// Time one closure.
pub fn time<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let start = Instant::now();
    let r = f();
    (r, start.elapsed())
}

/// Average over `reps` runs.
pub fn time_avg(reps: u32, mut f: impl FnMut()) -> Duration {
    let start = Instant::now();
    for _ in 0..reps {
        f();
    }
    start.elapsed() / reps.max(1)
}

/// Milliseconds with two decimals.
pub fn ms(d: Duration) -> String {
    format!("{:.2}", d.as_secs_f64() * 1e3)
}

/// Human-readable byte size.
pub fn human_bytes(b: u64) -> String {
    if b >= 1 << 30 {
        format!("{:.2} GiB", b as f64 / (1u64 << 30) as f64)
    } else if b >= 1 << 20 {
        format!("{:.2} MiB", b as f64 / (1u64 << 20) as f64)
    } else if b >= 1 << 10 {
        format!("{:.2} KiB", b as f64 / (1u64 << 10) as f64)
    } else {
        format!("{b} B")
    }
}

/// Fixed-width table printer for harness output.
pub struct TablePrinter {
    widths: Vec<usize>,
}

impl TablePrinter {
    pub fn new(headers: &[&str], widths: &[usize]) -> TablePrinter {
        let widths = widths.to_vec();
        let mut line = String::new();
        for (h, w) in headers.iter().zip(&widths) {
            line.push_str(&format!("{h:<w$}  ", w = w));
        }
        println!("{}", line.trim_end());
        println!("{}", "-".repeat(line.len().min(100)));
        TablePrinter { widths }
    }

    pub fn row(&self, cells: &[String]) {
        let mut line = String::new();
        for (c, w) in cells.iter().zip(&self.widths) {
            line.push_str(&format!("{c:<w$}  ", w = w));
        }
        println!("{}", line.trim_end());
    }
}

/// A temp directory that cleans up on drop.
pub struct TempDir {
    pub path: std::path::PathBuf,
}

impl TempDir {
    pub fn new(tag: &str) -> TempDir {
        let path = std::env::temp_dir().join(format!(
            "sinew-bench-{tag}-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        std::fs::create_dir_all(&path).expect("create temp dir");
        TempDir { path }
    }

    pub fn file(&self, name: &str) -> std::path::PathBuf {
        self.path.join(name)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}
