//! One benchmark run: build the workload's collection, run its measured
//! window, verify what the system holds against the oracle, check that the
//! layers the workload exists for engaged, and compute the metrics.

use crate::client::{Client, Samples};
use crate::crash;
use crate::data::{derive_params, Dataset, ParamSet, Rng, SCAN, SERVING, UPDATE_SET_KEY};
use crate::layers::{self, LayerInputs, Measured, Probes, StorageFacts};
use crate::mixed;
use crate::oracle::State;
use crate::setup::{self, Built, Plan};
use crate::spec::{self, Workload};
use crate::stats::{highest_supported_tail, median};
use crate::sut::{self, Class, Counters, TABLE};
use crate::trace::{self, CounterMark, Tracer};
use sinew_core::{BackgroundConfig, BackgroundMaterializer, Sinew};
use sinew_nobench::queries::SinewSut;
use sinew_nobench::{QueryParams, SystemUnderTest};
use sinew_rdbms::{Database, Datum};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Parameter sets the statements rotate over, one per cycle.
const PARAM_SETS: usize = 8;

pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// 500 documents and a single build: the CI-sized run.
    pub smoke: bool,
    /// Where data files and `trace-*.jsonl` go.
    pub scratch: PathBuf,
}

pub struct Report {
    pub workload: Workload,
    pub seed: u64,
    pub trace: bool,
    pub attempted: u64,
    pub failed: u64,
    /// First few failed ops.
    pub failures: Vec<String>,
    /// Broken invariants, engagement guards that did not hold, lost writes.
    pub problems: Vec<String>,
    pub metrics: Vec<Measured>,
    /// Statements about the run a reader of the numbers needs.
    pub notes: Vec<String>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }
}

/// The benchmark carries its own copy of the NoBench statements; prove on
/// a small collection that they return what `SinewSut::run_query` returns.
fn selfcheck_templates() -> Result<(), String> {
    let data = Dataset::generate(99, 200);
    let p = &derive_params(&data.docs, SCAN, &mut Rng::new(99), 1)[0];
    let mut theirs = SinewSut::in_memory();
    theirs.load(&data.values)?;
    let qp = QueryParams {
        point_str1: p.point_str1.clone(),
        num_lo: p.num.0,
        num_width: p.num.1 - p.num.0,
        dyn_lo: p.dyn1.0,
        dyn_width: p.dyn1.1 - p.dyn1.0,
        arr_elem: p.arr_elem.clone(),
        sparse_pred_key: crate::data::SPARSE_PRED_KEY.into(),
        sparse_pred_val: p.sparse_val.clone(),
        agg_lo: p.agg.0,
        agg_width: p.agg.1 - p.agg.0,
        join_lo: p.join.0,
        join_width: p.join.1 - p.join.0,
        update_set_key: UPDATE_SET_KEY.into(),
        update_where_key: crate::data::UPDATE_WHERE_KEY.into(),
        update_where_val: p.update_val.clone(),
    };
    for q in 1..=11u8 {
        let mine = theirs
            .sinew
            .query(&sut::read_sql(q, p))
            .map_err(|e| e.to_string())?;
        let want = theirs.run_query(q, &qp)?;
        if mine.rows.len() as u64 != want {
            return Err(format!(
                "template Q{q}: {} rows, SinewSut says {want}",
                mine.rows.len()
            ));
        }
    }
    let mine = theirs
        .sinew
        .query(&sut::update_sql(&p.update_val))
        .map_err(|e| e.to_string())?;
    let want = theirs.run_update(&qp)?;
    if mine.affected != want {
        return Err(format!(
            "template U: {} rows, SinewSut says {want}",
            mine.affected
        ));
    }
    Ok(())
}

/// `SELECT COUNT(*)` of documents the §6.6 update marked.
fn dummy_count(sinew: &Sinew) -> Result<u64, String> {
    let sql = format!("SELECT COUNT(*) FROM {TABLE} WHERE {UPDATE_SET_KEY} = 'DUMMY'");
    match sinew.query(&sql).map_err(|e| e.to_string())?.scalar() {
        Some(Datum::Int(n)) => Ok(*n as u64),
        other => Err(format!("COUNT(*) returned {other:?}")),
    }
}

struct Window {
    samples: Samples,
    state: State,
    window_start: Counters,
    window_end: Counters,
    writer_lateness_ms: Vec<f64>,
    snapshot_age_ms_max: u64,
}

/// The single-client window of `nobench_*` and `ingest_evolve`.
fn closed_loop_window(
    opts: &Options,
    sinew: &Sinew,
    data: &mut Dataset,
    params: &[ParamSet],
    rng: Rng,
    tracer: &mut Tracer,
) -> Window {
    let mut client = Client::new(sinew, data, params, rng, tracer);
    let cycle = |c: &mut Client, i: usize, traced: bool| match opts.workload {
        Workload::IngestEvolve => c.ingest_round(i, traced),
        _ => c.nobench_cycle(i, traced),
    };
    // one warm-up cycle: plan caches fill, lazy set-up finishes; its
    // failures count, its latencies do not
    cycle(&mut client, 0, false);
    let warm = std::mem::take(&mut client.samples);
    client.samples.attempted = warm.attempted;
    client.samples.failed = warm.failed;
    client.samples.failures = warm.failures;

    let window_start = Counters::capture(sinew);
    let window = Duration::from_secs_f64(opts.seconds);
    let t0 = Instant::now();
    let mut i = 1;
    while t0.elapsed() < window {
        cycle(&mut client, i, opts.trace && i % 2 == 1);
        i += 1;
    }
    let window_end = Counters::capture(sinew);
    Window {
        samples: client.samples,
        state: client.state,
        window_start,
        window_end,
        writer_lateness_ms: Vec::new(),
        snapshot_age_ms_max: sinew.db().exec_stats().oldest_snapshot_age_ms,
    }
}

/// The two-client window of `mixed_serving`.
fn mixed_window(
    opts: &Options,
    sinew: &Arc<Sinew>,
    data: &Dataset,
    params: &[ParamSet],
    rng: &mut Rng,
    tracer: &mut Tracer,
    epoch: Instant,
) -> Result<Window, String> {
    let window = Duration::from_secs_f64(opts.seconds);
    // the writer rotates over every value the update key takes in the
    // base documents, in seeded order
    let mut update_vals: Vec<String> = data.docs[..data.base_len()]
        .iter()
        .filter_map(|d| d.update_where.clone())
        .collect();
    update_vals.sort();
    update_vals.dedup();
    for i in (1..update_vals.len()).rev() {
        update_vals.swap(i, rng.below(i + 1));
    }
    for q in 1..=11u8 {
        sinew
            .query(&sut::read_sql(q, &params[0]))
            .map_err(|e| format!("warm-up Q{q}: {e}"))?;
    }
    let background =
        BackgroundMaterializer::spawn(sinew.clone(), TABLE, BackgroundConfig::default())
            .map_err(|e| e.to_string())?;
    let window_start = Counters::capture(sinew);
    let spec = mixed::Spec {
        window,
        trace: opts.trace,
        epoch,
    };
    let out = mixed::run_window(sinew, data, params, &update_vals, &spec);
    background.stop();
    let window_end = Counters::capture(sinew);

    let mixed::Outcome {
        reader,
        reader_tracer,
        writer,
    } = out;
    tracer.absorb(reader_tracer);
    tracer.absorb(writer.tracer);
    // reader throughput and read latencies; the writer contributes its
    // latencies-from-due-time as the write class, and its op counts
    let mut samples = reader;
    let w = writer.samples;
    samples
        .by_class
        .insert(Class::Write, w.class(Class::Write).to_vec());
    samples.attempted += w.attempted;
    samples.failed += w.failed;
    samples.failures.extend(w.failures);
    samples.failures.truncate(5);
    samples.write_ops += w.write_ops;
    samples.sql_statements += w.sql_statements;
    Ok(Window {
        samples,
        state: writer.state,
        window_start,
        window_end,
        writer_lateness_ms: writer.lateness_ms,
        snapshot_age_ms_max: writer.snapshot_age_ms_max,
    })
}

/// The layers the workload exists to stress engaged, and the ones it
/// exists to bypass did not.
fn engagement_guards(
    w: Workload,
    smoke: bool,
    win: &Window,
    run_end: &Counters,
    problems: &mut Vec<String>,
) {
    let d = win.window_end.since(&win.window_start);
    let mut need = |ok: bool, what: &str| {
        if !ok {
            problems.push(format!("engagement guard failed: {what}"));
        }
    };
    match w {
        Workload::NobenchHybrid => {
            need(d.get("columnar_scans") > 0, "columnar_scans > 0");
            need(d.get("index_scans") > 0, "index_scans > 0");
            need(d.get("join_build_rows") > 0, "join_build_rows > 0");
            need(run_end.get("disk_reads") == 0, "disk_reads == 0");
        }
        Workload::NobenchVirtualSpill => {
            need(
                d.get("disk_reads") > 0,
                "disk_reads > 0 (pool hit rate < 1)",
            );
            need(d.get("columnar_scans") == 0, "columnar_scans == 0");
            need(d.get("index_scans") == 0, "index_scans == 0");
            need(
                run_end.get("materializer_steps") == 0,
                "materializer_steps == 0",
            );
            // the one workload on two exec threads (500 smoke documents are
            // below the executor's threshold for a parallel scan)
            need(smoke || d.get("parallel_scans") > 0, "parallel_scans > 0");
            need(
                smoke || d.get("agg_partition_merges") > 0,
                "agg_partition_merges > 0",
            );
        }
        Workload::IngestEvolve => {
            need(run_end.get("wal_fsyncs") > 0, "wal_fsyncs > 0");
            need(
                run_end.get("materializer_values_materialized") > 0,
                "materializer_values_materialized > 0",
            );
            need(
                run_end.get("materializer_columnar_built") > 0,
                "materializer_columnar_built > 0",
            );
        }
        Workload::MixedServing => {
            // versions and background steps over the run: the catch-up of
            // set-up creates both even when the window's schema is static
            need(run_end.get("versions_created") > 0, "versions_created > 0");
            need(run_end.get("background_steps") > 0, "background_steps > 0");
            need(
                d.get("background_vacuum_passes") > 0,
                "background_vacuum_passes > 0 in the window",
            );
            let late = highest_supported_tail(&win.writer_lateness_ms)
                .map(|(_, v)| v)
                .unwrap_or_else(|| win.writer_lateness_ms.iter().copied().fold(0.0, f64::max));
            need(
                late < mixed::WRITER_PERIOD.as_secs_f64() * 1e3,
                "writer lateness tail below one writer period",
            );
        }
    }
}

/// `ingest_evolve` ends by dropping the handle and recovering from the
/// log: what a bare `Database::open` of the same files holds must be what
/// the oracle believes. Returns the page images recovery replayed.
fn reopen_and_check(
    path: &Path,
    pool_pages: usize,
    state: &State,
    data: &Dataset,
    tracer: &mut Tracer,
    problems: &mut Vec<String>,
) -> Result<u64, String> {
    let (db, _) = tracer.span(layers::SPAN_RECOVERY, None, 0, || {
        Database::open_with_wal(path, pool_pages, None, setup::WAL)
    });
    let db = db.map_err(|e| format!("reopen: {e}"))?;
    let stored = sut::stored_fingerprint(&db).map_err(|e| format!("reopen: {e}"))?;
    if stored != state.fingerprint(&data.docs) {
        problems.push(format!(
            "after reopen the collection differs from the oracle ({} stored, {} expected)",
            stored.len(),
            state.live_count()
        ));
    }
    Ok(db.exec_stats().wal_recovered_pages)
}

fn remove_dir(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
}

pub fn run(opts: &Options) -> Result<Report, String> {
    let w = opts.workload;
    let plan = Plan::of(w, opts.smoke);
    let dir = opts
        .scratch
        .join(format!("{}-{}", w.name(), std::process::id()));
    remove_dir(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let outcome = run_in(opts, &plan, &dir);
    remove_dir(&dir);
    outcome
}

fn run_in(opts: &Options, plan: &Plan, dir: &Path) -> Result<Report, String> {
    let w = opts.workload;
    let mut problems = Vec::new();
    let mut notes = vec![
        format!("{}: {}", w.name(), w.load_model()),
        format!(
            "{} documents, exec_threads {}, load threads {}, {} build(s), seed {}",
            plan.docs,
            plan.exec_threads,
            setup::THREADS,
            if opts.trace { 1 } else { plan.builds },
            opts.seed
        ),
    ];
    if let Some(pages) = plan.pool_pages {
        notes.push(format!(
            "file-backed, buffer pool {pages} pages of 8 KiB; log: fsync every commit (group_commit=1), checkpoint at 8 MiB; latencies are this sandbox's (reads come from the OS page cache), not a device's"
        ));
    }
    if w == Workload::NobenchHybrid {
        notes.push(
            "not covered: the sealed-segment kernels (batched decode, zone-map pruning, dictionary-code predicates need a 4 096-row segment) and the parallel operators over columnar input; see README, Known limits".into(),
        );
    }
    if let Err(e) = selfcheck_templates() {
        problems.push(e);
    }

    let mut data = Dataset::generate(opts.seed, plan.docs);
    let mut rng = Rng::new(opts.seed ^ 0x51AE_BE4C);
    let sel = if w == Workload::MixedServing {
        SERVING
    } else {
        SCAN
    };
    let params = derive_params(&data.docs, sel, &mut rng, PARAM_SETS);

    let epoch = Instant::now();
    let mut tracer = Tracer::new(epoch);
    let mut marks: Vec<CounterMark> = Vec::new();
    let mut mark = |at: &'static str, c: &Counters| {
        marks.push(CounterMark {
            at,
            at_ns: epoch.elapsed().as_nanos() as u64,
            values: c.as_f64(),
        });
    };

    // set-up, several times over: setup_s is the median
    let builds = if opts.trace { 1 } else { plan.builds };
    let mut setup_s = Vec::new();
    let mut built: Option<Built> = None;
    for b in 0..builds {
        drop(built.take());
        let bdir = dir.join(format!("build{b}"));
        std::fs::create_dir_all(&bdir).map_err(|e| e.to_string())?;
        let bt =
            setup::build(plan, &data, &bdir, &mut tracer).map_err(|e| format!("set-up: {e}"))?;
        setup_s.push(bt.cost.setup_s);
        built = Some(bt);
    }
    let built = built.expect("at least one build");
    let sinew = built.sinew.clone();
    let after_setup = Counters::capture(&sinew);
    mark("after_setup", &after_setup);

    let win = match w {
        Workload::MixedServing => {
            mixed_window(opts, &sinew, &data, &params, &mut rng, &mut tracer, epoch)?
        }
        _ => closed_loop_window(opts, &sinew, &mut data, &params, rng.clone(), &mut tracer),
    };
    mark("window_start", &win.window_start);
    mark("window_end", &win.window_end);

    // what the system holds must be what the oracle believes
    let rows = sinew.db().row_count(TABLE).map_err(|e| e.to_string())?;
    if rows != win.state.live_count() {
        problems.push(format!(
            "row_count {rows}, oracle says {}",
            win.state.live_count()
        ));
    }
    match dummy_count(&sinew) {
        Ok(n) if n == win.state.dummy_count() => {}
        Ok(n) => problems.push(format!(
            "{n} updated documents, oracle says {}",
            win.state.dummy_count()
        )),
        Err(e) => problems.push(e),
    }

    let json_bytes = |upto: usize| -> u64 {
        data.values[..upto]
            .iter()
            .map(|v| v.to_json().len() as u64)
            .sum()
    };
    let user_bytes = json_bytes(win.state.visible);

    let probes = if opts.trace {
        let p = layers::run_probes(&sinew, &data, &mut tracer);
        let (r, _) = tracer.span(layers::SPAN_VACUUM, None, 0, || sinew.db().vacuum());
        r.map_err(|e| e.to_string())?;
        p
    } else {
        Probes::default()
    };
    let run_end = Counters::capture(&sinew);
    mark("run_end", &run_end);
    let facts = StorageFacts::capture(&sinew);
    engagement_guards(w, opts.smoke, &win, &run_end, &mut problems);

    let (cost, db_path) = (built.cost, built.db_path.clone());
    drop(sinew);
    drop(built);
    let mut recovered_pages = 0;
    if w == Workload::IngestEvolve {
        let path = db_path.as_deref().expect("ingest_evolve is file-backed");
        let pages = plan.pool_pages.expect("ingest_evolve is file-backed");
        recovered_pages =
            reopen_and_check(path, pages, &win.state, &data, &mut tracer, &mut problems)?;
        match crash::check(opts.seed, &dir.join("crash"), opts.smoke) {
            Ok(c) => {
                notes.push(format!(
                    "crash check: child killed with SIGKILL after {} acknowledged writes; acked_writes_lost = {} (SIGKILL keeps the OS cache: this checks the log protocol, not the device)",
                    c.acked, c.lost
                ));
                if c.lost > 0 {
                    problems.push(format!("{} acknowledged writes lost after kill -9", c.lost));
                }
            }
            Err(e) => problems.push(format!("crash check: {e}")),
        }
    }

    let s = &win.samples;
    let metrics = if opts.trace {
        let inputs = LayerInputs {
            cost: &cost,
            docs: plan.docs,
            facts: &facts,
            spans: &tracer.spans,
            samples: s,
            writer_lateness_ms: &win.writer_lateness_ms,
            snapshot_age_ms_max: win.snapshot_age_ms_max,
            after_setup: &after_setup,
            window_start: &win.window_start,
            window_end: &win.window_end,
            run_end: &run_end,
            probes: &probes,
            user_bytes,
            recovered_pages,
        };
        let out = layers::layer_metrics(&inputs);
        let path = opts.scratch.join(format!("trace-{}.jsonl", w.name()));
        trace::write_jsonl(&path, &tracer.spans, &marks).map_err(|e| e.to_string())?;
        notes.push(format!(
            "{} spans written to {}",
            tracer.spans.len(),
            path.display()
        ));
        out
    } else {
        let class = |name: &'static str, c: Class| Measured {
            name,
            value: median(s.class(c)),
            samples: Some(s.class(c).len()),
        };
        vec![
            Measured {
                name: "setup_s",
                value: median(&setup_s),
                samples: Some(setup_s.len()),
            },
            Measured {
                name: "ops_per_s",
                value: median(&s.cycle_ops_per_s),
                samples: Some(s.cycle_ops_per_s.len()),
            },
            class("project_ms_p50", Class::Project),
            class("select_ms_p50", Class::Select),
            class("agg_ms_p50", Class::Agg),
            class("join_ms_p50", Class::Join),
            class("write_ms_p50", Class::Write),
            Measured {
                name: "stored_bytes_per_user_byte",
                value: cost.stored_bytes as f64 / json_bytes(data.base_len()) as f64,
                samples: None,
            },
        ]
    };

    let expected = if opts.trace {
        spec::PER_LAYER
    } else {
        spec::END_TO_END
    };
    assert_eq!(
        metrics.iter().map(|m| m.name).collect::<Vec<_>>(),
        expected.iter().map(|m| m.name).collect::<Vec<_>>(),
        "the run reports exactly the metrics of the spec, in its order"
    );
    for m in &metrics {
        if !m.value.is_finite() || (!opts.trace && m.value <= 0.0) {
            problems.push(format!("{} has no usable value ({})", m.name, m.value));
        }
    }

    Ok(Report {
        workload: w,
        seed: opts.seed,
        trace: opts.trace,
        attempted: s.attempted,
        failed: s.failed,
        failures: s.failures.clone(),
        problems,
        metrics,
        notes,
    })
}
