//! Set-up: building one workload's collection through the public API,
//! every call into the system under its own span. `setup_s` is the sum of
//! those spans — document generation and JSON rendering are the driver's
//! own work and are excluded.

use crate::data::Dataset;
use crate::spec::Workload;
use crate::sut::TABLE;
use crate::trace::Tracer;
use sinew_core::{
    AnalyzerPolicy, BackgroundConfig, BackgroundMaterializer, LoadOptions, Sinew, StepBudget,
};
use sinew_rdbms::{Database, DbResult, ExecLimits, WalConfig};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// The host has two cores: nothing is given more than two threads, and the
/// counts are pinned so that a larger machine measures the same program.
pub const THREADS: usize = 2;
pub const LOAD: LoadOptions = LoadOptions {
    parallel: true,
    threads: THREADS,
};

/// Log flush policy, pinned here rather than read from the environment:
/// fsync on every commit, checkpoint when the log passes 8 MiB.
pub const WAL: WalConfig = WalConfig {
    enabled: true,
    group_commit: 1,
    checkpoint_bytes: 8 << 20,
    crash_after: None,
};

#[derive(Debug, Clone, Copy)]
pub enum Evolve {
    /// `AnalyzerPolicy::never()`: every key stays virtual.
    Never,
    /// Paper §6.1 policy, then `materialize_until_clean`.
    UntilClean,
    /// Paper §6.1 policy, then exactly this many `materialize_step`s of
    /// 500 rows: a fixed amount of work that leaves later columns dirty.
    Steps(u32),
}

/// Pinned sizes and policies of one workload.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub docs: u64,
    /// `Some(pages)`: file-backed with that many 8 KiB buffer-pool frames.
    pub pool_pages: Option<usize>,
    pub exec_threads: usize,
    /// `Some(n)`: load JSON text in `n` batches; `None`: one `load_docs`.
    pub jsonl_batches: Option<usize>,
    pub evolve: Evolve,
    /// The last this-many of `docs` arrive after the first materialization
    /// and are moved by a `BackgroundMaterializer` before set-up ends.
    pub catch_up_docs: u64,
    /// Builds per untraced run (`setup_s` is their median).
    pub builds: usize,
}

pub const STEP_ROWS: u64 = 500;

impl Plan {
    pub fn of(w: Workload, smoke: bool) -> Plan {
        let docs = |full: u64| if smoke { 500 } else { full };
        match w {
            // 1 536 documents: `materialize_until_clean` is quadratic at this
            // commit (3 s here, 50 s at the 4 224 documents that would seal
            // one 4 096-row columnar segment), and a run builds three times.
            // So every columnar scan here reads an unsealed, plain-encoded
            // segment, and the sealed-segment kernels stay unmeasured.
            // One exec thread: at 1 536 rows a parallel scan is all spawn
            // and join, and on a two-core host it doubles every latency's
            // exposure to the neighbours (A/A spread 9-17 % against 4-5 %).
            // The morsel-parallel operators are nobench_virtual_spill's job.
            Workload::NobenchHybrid => Plan {
                docs: docs(1536),
                pool_pages: None,
                exec_threads: 1,
                jsonl_batches: None,
                evolve: Evolve::UntilClean,
                catch_up_docs: 0,
                builds: if smoke { 1 } else { 3 },
            },
            // ~590 pages of table behind a 96-page pool: pool = 1/6 of data.
            // Two exec threads, the default on this host: 8 192-row scans
            // with an extraction per row are long enough for the parallel
            // scan, join and aggregation to engage.
            Workload::NobenchVirtualSpill => Plan {
                docs: docs(8192),
                pool_pages: Some(if smoke { 8 } else { 96 }),
                exec_threads: THREADS,
                jsonl_batches: None,
                evolve: Evolve::Never,
                catch_up_docs: 0,
                builds: if smoke { 1 } else { 5 },
            },
            Workload::IngestEvolve => Plan {
                docs: docs(2000),
                pool_pages: Some(2048),
                exec_threads: 1,
                jsonl_batches: Some(10),
                evolve: Evolve::Steps(if smoke { 2 } else { 16 }),
                catch_up_docs: 0,
                builds: if smoke { 1 } else { 3 },
            },
            Workload::MixedServing => Plan {
                docs: docs(1024),
                pool_pages: None,
                exec_threads: 1,
                jsonl_batches: None,
                evolve: Evolve::UntilClean,
                catch_up_docs: if smoke { 50 } else { 128 },
                builds: if smoke { 1 } else { 3 },
            },
        }
    }
}

pub const SPAN_SETUP: &str = "setup";
pub const SPAN_OPEN: &str = "rdbms.open";
pub const SPAN_CREATE: &str = "core.create_collection";
pub const SPAN_LOAD: &str = "core.loader.load";
pub const SPAN_ANALYZER: &str = "core.analyzer.run";
pub const SPAN_MATERIALIZE: &str = "core.materializer.step";
pub const SPAN_CATCH_UP: &str = "core.background.catch_up";
pub const SPAN_ANALYZE: &str = "rdbms.stats.analyze";
pub const SPAN_CHECKPOINT: &str = "rdbms.wal.checkpoint";

/// What building the collection cost.
#[derive(Debug, Clone, Copy)]
pub struct SetupCost {
    /// Time inside every call of set-up.
    pub setup_s: f64,
    /// ... of which inside the bulk-load calls,
    pub load_s: f64,
    /// ... and inside the materializer calls, which did this much work.
    pub materialize_s: f64,
    pub rows_scanned: u64,
    pub values_moved: u64,
    /// Data file (or in-memory pages) plus log file, after the checkpoint
    /// that ends set-up.
    pub stored_bytes: u64,
}

/// One built collection.
pub struct Built {
    pub sinew: Arc<Sinew>,
    pub db_path: Option<PathBuf>,
    pub cost: SetupCost,
}

pub fn wal_path(db_path: &Path) -> PathBuf {
    let mut s = db_path.as_os_str().to_os_string();
    s.push(".wal");
    PathBuf::from(s)
}

fn file_len(p: &Path) -> u64 {
    std::fs::metadata(p).map_or(0, |m| m.len())
}

pub fn open(plan: &Plan, db_path: Option<&Path>) -> DbResult<Database> {
    let db = match (plan.pool_pages, db_path) {
        (Some(pages), Some(path)) => Database::open_with_wal(path, pages, None, WAL)?,
        _ => Database::in_memory(),
    };
    db.set_exec_limits(ExecLimits {
        exec_threads: plan.exec_threads,
        ..ExecLimits::default()
    });
    Ok(db)
}

/// Let a default-configured `BackgroundMaterializer` move what the last
/// load left in the reservoir; returns when no column is dirty. Nothing
/// else runs against the instance meanwhile.
fn catch_up(sinew: &Arc<Sinew>) -> DbResult<()> {
    let worker = BackgroundMaterializer::spawn(sinew.clone(), TABLE, BackgroundConfig::default())?;
    let started = std::time::Instant::now();
    while sinew.logical_schema(TABLE).iter().any(|c| c.dirty) {
        if started.elapsed() > std::time::Duration::from_secs(120) {
            return Err(sinew_rdbms::DbError::Eval(
                "background materializer did not finish within 120 s".into(),
            ));
        }
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    worker.stop();
    Ok(())
}

/// Build the collection: open, create, load, analyze, materialize, (catch
/// up,) ANALYZE, checkpoint.
/// `dir` holds the data file of file-backed plans.
pub fn build(plan: &Plan, data: &Dataset, dir: &Path, tracer: &mut Tracer) -> DbResult<Built> {
    let total = plan.docs as usize;
    let n = total - plan.catch_up_docs as usize;
    let batches: Vec<String> = match plan.jsonl_batches {
        Some(b) => {
            let per = n.div_ceil(b);
            (0..n)
                .step_by(per)
                .map(|lo| data.jsonl(lo..(lo + per).min(n)))
                .collect()
        }
        None => Vec::new(),
    };
    let db_path = plan.pool_pages.map(|_| dir.join("db"));

    let root = tracer.begin(SPAN_SETUP, None, 0);
    let mut setup_ns = 0u64;
    let (db, ns) = tracer.span(SPAN_OPEN, Some(root), 0, || open(plan, db_path.as_deref()));
    setup_ns += ns;
    let (sinew, ns) = tracer.span(SPAN_CREATE, Some(root), 0, || -> DbResult<Sinew> {
        let sinew = Sinew::with_db(db?);
        sinew.create_collection(TABLE)?;
        Ok(sinew)
    });
    setup_ns += ns;
    let sinew = Arc::new(sinew?);

    let mut load_ns = 0u64;
    if batches.is_empty() {
        let (r, ns) = tracer.span(SPAN_LOAD, Some(root), 0, || {
            sinew.load_docs_with(TABLE, &data.values[..n], LOAD)
        });
        r?;
        load_ns += ns;
    }
    for text in &batches {
        let (r, ns) = tracer.span(SPAN_LOAD, Some(root), 0, || {
            sinew.load_jsonl_with(TABLE, text, LOAD)
        });
        r?;
        load_ns += ns;
    }
    setup_ns += load_ns;

    let policy = match plan.evolve {
        Evolve::Never => AnalyzerPolicy::never(),
        _ => AnalyzerPolicy::default(),
    };
    let (r, ns) = tracer.span(SPAN_ANALYZER, Some(root), 0, || {
        sinew.run_analyzer(TABLE, &policy)
    });
    r?;
    setup_ns += ns;

    let (mut materialize_ns, mut rows_scanned, mut values_moved) = (0u64, 0u64, 0u64);
    let steps = match plan.evolve {
        Evolve::Never => 0,
        Evolve::UntilClean => 1,
        Evolve::Steps(k) => k,
    };
    for _ in 0..steps {
        let (r, ns) = tracer.span(SPAN_MATERIALIZE, Some(root), 0, || match plan.evolve {
            Evolve::UntilClean => sinew.materialize_until_clean(TABLE),
            _ => sinew.materialize_step(TABLE, StepBudget { rows: STEP_ROWS }),
        });
        let r = r?;
        materialize_ns += ns;
        rows_scanned += r.rows_scanned;
        values_moved += r.values_moved;
    }
    setup_ns += materialize_ns;

    if plan.catch_up_docs > 0 {
        let (r, ns) = tracer.span(SPAN_LOAD, Some(root), 0, || {
            sinew.load_docs_with(TABLE, &data.values[n..total], LOAD)
        });
        r?;
        load_ns += ns;
        setup_ns += ns;
        let (r, ns) = tracer.span(SPAN_CATCH_UP, Some(root), 0, || catch_up(&sinew));
        r?;
        setup_ns += ns;
    }

    let (r, ns) = tracer.span(SPAN_ANALYZE, Some(root), 0, || sinew.db().analyze(TABLE));
    r?;
    setup_ns += ns;
    // Checkpoint last: the log file is cut back at every checkpoint, so its
    // size at an arbitrary moment is noise; after one it is at its minimum
    // and the data file holds every page. A no-op in memory.
    let (r, ns) = tracer.span(SPAN_CHECKPOINT, Some(root), 0, || sinew.db().checkpoint());
    r?;
    setup_ns += ns;
    tracer.end(root);
    let stored_bytes =
        sinew.db().size_bytes() + db_path.as_ref().map_or(0, |p| file_len(&wal_path(p)));

    Ok(Built {
        sinew,
        db_path,
        cost: SetupCost {
            setup_s: setup_ns as f64 / 1e9,
            load_s: load_ns as f64 / 1e9,
            materialize_s: materialize_ns as f64 / 1e9,
            rows_scanned,
            values_moved,
            stored_bytes,
        },
    })
}
