//! Per-layer metrics of the traced run: spans the driver recorded around
//! each layer's public calls (S) and deltas of the system's public
//! counters across the window (C).

use crate::client::Samples;
use crate::data::Dataset;
use crate::setup::{self, SetupCost};
use crate::stats::{highest_supported_tail, median, subwindow_tail};
use crate::sut::{self, Class, Counters, TABLE};
use crate::trace::{durations_us, Span, Tracer};
use sinew_core::{loader, ExtractionPlan, Sinew, Want};
use sinew_rdbms::Datum;
use std::hint::black_box;

pub const SPAN_JSON_PARSE: &str = "json.parse_many";
pub const SPAN_ENCODE: &str = "serial.encode";
pub const SPAN_EXTRACT: &str = "serial.extract";
pub const SPAN_VACUUM: &str = "rdbms.txn.vacuum";
pub const SPAN_RECOVERY: &str = "rdbms.wal.recovery";

/// A value with the number of samples behind it (timings only).
pub struct Measured {
    pub name: &'static str,
    pub value: f64,
    pub samples: Option<usize>,
}

/// Micro-spans over single layers, run once after the window of a traced
/// run on the collection as the workload left it.
#[derive(Default)]
pub struct Probes {
    pub parse_mb_per_s: f64,
    pub encode_ns_per_doc: f64,
    pub extract_ns_per_value: f64,
}

pub fn run_probes(sinew: &Sinew, data: &Dataset, tracer: &mut Tracer) -> Probes {
    let n = data.base_len().min(2000);
    let text = data.jsonl(0..n);
    let (parsed, ns) = tracer.span(SPAN_JSON_PARSE, None, 0, || sinew_json::parse_many(&text));
    black_box(parsed.is_ok());
    let parse_mb_per_s = text.len() as f64 / 1e6 / (ns as f64 / 1e9);

    let ((), ns) = tracer.span(SPAN_ENCODE, None, 0, || {
        for doc in &data.values[..n] {
            black_box(loader::serialize_doc(sinew.db(), sinew.catalog(), doc).is_ok());
        }
    });
    let encode_ns_per_doc = ns as f64 / n as f64;

    // `str2` has 100 distinct values, so the analyzer never promotes it:
    // present in every reservoir row of every workload.
    let mut rows: Vec<Vec<u8>> = Vec::new();
    let scanned = sinew.db().scan_rows(TABLE, &mut |_, row| {
        if let Some(Datum::Bytea(bytes)) = row.into_iter().next() {
            rows.push(bytes);
        }
        Ok(rows.len() < 10_000)
    });
    let plan = ExtractionPlan::build(sinew.catalog(), "str2", Want::Text);
    let ((), ns) = tracer.span(SPAN_EXTRACT, None, 0, || {
        for bytes in &rows {
            black_box(plan.extract(sinew.catalog(), bytes));
        }
    });
    let extract_ns_per_value = if scanned.is_ok() && !rows.is_empty() {
        ns as f64 / rows.len() as f64
    } else {
        0.0
    };
    Probes {
        parse_mb_per_s,
        encode_ns_per_doc,
        extract_ns_per_value,
    }
}

/// What the storage holds at end of run, read while the instance is open.
pub struct StorageFacts {
    backlog_rows: f64,
    columnar_encoded: f64,
    columnar_raw: f64,
    live_bytes: f64,
    file_bytes: f64,
    attrs_registered: f64,
}

impl StorageFacts {
    pub fn capture(sinew: &Sinew) -> StorageFacts {
        let report = sinew.storage_report(TABLE).ok();
        let (backlog, enc, raw) = report.as_ref().map_or((0, 0, 0), |r| {
            let backlog: u64 = r
                .physical_columns
                .iter()
                .filter(|col| col.dirty)
                .map(|col| {
                    col.cursor
                        .as_ref()
                        .map_or(r.rows, |cur| cur.high_water.saturating_sub(cur.position))
                })
                .sum();
            let enc: u64 = r.columnar.iter().map(|s| s.encoded_bytes).sum();
            let raw: u64 = r.columnar.iter().map(|s| s.raw_bytes).sum();
            (backlog, enc, raw)
        });
        StorageFacts {
            backlog_rows: backlog as f64,
            columnar_encoded: enc as f64,
            columnar_raw: raw as f64,
            live_bytes: sinew.db().table_live_bytes(TABLE).unwrap_or(0) as f64,
            file_bytes: sinew.db().size_bytes() as f64,
            attrs_registered: sinew.catalog().attribute_count() as f64,
        }
    }
}

/// Everything the layer metrics are computed from.
pub struct LayerInputs<'a> {
    pub cost: &'a SetupCost,
    /// Documents set-up loaded.
    pub docs: u64,
    pub facts: &'a StorageFacts,
    pub spans: &'a [Span],
    pub samples: &'a Samples,
    pub writer_lateness_ms: &'a [f64],
    pub snapshot_age_ms_max: u64,
    /// Counters when set-up ended, when the window started (after the
    /// warm-up cycle), when it ended, and at end of run.
    pub after_setup: &'a Counters,
    pub window_start: &'a Counters,
    pub window_end: &'a Counters,
    pub run_end: &'a Counters,
    pub probes: &'a Probes,
    pub user_bytes: u64,
    pub recovered_pages: u64,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

pub fn layer_metrics(x: &LayerInputs) -> Vec<Measured> {
    let win = x.window_end.since(x.window_start);
    let run = x.run_end;
    let c = |name: &str| win.get(name) as f64;
    let total = |name: &str| run.get(name) as f64;
    let stmts = c("queries_rewritten");
    let s = x.samples;

    let us = |name: &str| durations_us(x.spans, name);
    let ms_of = |name: &str| -> Vec<f64> { us(name).into_iter().map(|v| v / 1e3).collect() };
    let timing = |name: &'static str, v: Vec<f64>| Measured {
        name,
        value: median(&v),
        samples: Some(v.len()),
    };
    let count = |name: &'static str, value: f64| Measured {
        name,
        value,
        samples: None,
    };

    // exec self time per class: each traced read's exec span minus the
    // separately timed plan span of the same op
    let mut exec_self: std::collections::BTreeMap<&'static str, Vec<f64>> = Default::default();
    let plan_ns: std::collections::HashMap<u64, u64> = x
        .spans
        .iter()
        .filter(|sp| sp.name == sut::SPAN_PLAN)
        .map(|sp| (sp.op_id, sp.dur_ns()))
        .collect();
    for sp in x.spans.iter().filter(|sp| sp.name == sut::SPAN_EXEC) {
        if let (Some(plan), Some(root)) = (plan_ns.get(&sp.op_id), sp.parent) {
            exec_self
                .entry(x.spans[root as usize].name)
                .or_default()
                .push(sp.dur_ns().saturating_sub(*plan) as f64 / 1e6);
        }
    }
    let exec_of = |class: Class, name: &'static str| {
        timing(
            name,
            exec_self.get(class.op_span()).cloned().unwrap_or_default(),
        )
    };

    let f = x.facts;
    let user = x.user_bytes as f64;

    let extractions = c("udf_extractions") + c("udf_fused_extractions");
    let setup_commits = x.after_setup.get("wal_commits") as f64;
    let scans = c("parallel_scans") + c("serial_scans");
    let tail = subwindow_tail(&s.reads, 3, 0.99);
    let lateness = highest_supported_tail(x.writer_lateness_ms);
    let untraced = ratio(s.ok_ops as f64, s.busy_ms);
    let traced = ratio(s.traced_ok_ops as f64, s.traced_busy_ms);

    vec![
        count("json.parse_mb_per_s", x.probes.parse_mb_per_s),
        timing("sql.parse_us_p50", us(sut::SPAN_PARSE)),
        timing("core.rewriter.rewrite_us_p50", us(sut::SPAN_REWRITE)),
        count(
            "core.rewriter.virtual_refs_per_query",
            ratio(c("rewritten_virtual_refs"), stmts),
        ),
        count(
            "core.rewriter.coalesce_refs_per_query",
            ratio(c("rewritten_coalesce_refs"), stmts),
        ),
        count(
            "core.rewriter.fused_bindings_per_query",
            ratio(c("rewritten_fused_bindings"), stmts),
        ),
        timing("rdbms.planner.plan_us_p50", us(sut::SPAN_PLAN)),
        exec_of(Class::Project, "rdbms.exec.self_ms_p50.project"),
        exec_of(Class::Select, "rdbms.exec.self_ms_p50.select"),
        exec_of(Class::Agg, "rdbms.exec.self_ms_p50.agg"),
        exec_of(Class::Join, "rdbms.exec.self_ms_p50.join"),
        count(
            "rdbms.exec.parallel_scan_share",
            ratio(c("parallel_scans"), scans),
        ),
        count(
            "rdbms.exec.morsels_per_scan",
            ratio(c("morsels_dispatched"), c("parallel_scans")),
        ),
        count(
            "rdbms.exec.blocks_per_query",
            ratio(c("blocks_emitted"), stmts),
        ),
        count(
            "rdbms.exec.join_build_rows_per_join",
            ratio(c("join_build_rows"), s.join_ops as f64),
        ),
        count("rdbms.exec.agg_partition_merges", c("agg_partition_merges")),
        count(
            "core.plan.cache_hit_rate",
            ratio(
                c("plan_cache_hits"),
                c("plan_cache_hits") + c("plan_cache_misses"),
            ),
        ),
        count("core.plan.stale_rebuilds", c("plan_cache_stale_rebuilds")),
        count("core.udfs.extractions_per_query", ratio(extractions, stmts)),
        count(
            "core.udfs.fused_share",
            ratio(c("udf_fused_extractions"), extractions),
        ),
        count(
            "core.udfs.exists_probes_per_query",
            ratio(c("udf_exists_probes"), stmts),
        ),
        count("serial.extract_ns_per_value", x.probes.extract_ns_per_value),
        count("serial.encode_ns_per_doc", x.probes.encode_ns_per_doc),
        count(
            "core.loader.docs_per_s",
            ratio(x.docs as f64, x.cost.load_s),
        ),
        timing(
            "core.loader.batch_ms_p50",
            setup_ms(x.spans, setup::SPAN_LOAD),
        ),
        count(
            "core.loader.internal_docs_per_s",
            ratio(total("loader_docs"), total("loader_nanos") / 1e9),
        ),
        count(
            "core.loader.parallel_batch_share",
            ratio(total("loader_parallel_batches"), total("loader_batches")),
        ),
        count("core.catalog.attrs_registered", f.attrs_registered),
        timing("core.analyzer.run_ms", ms_of(setup::SPAN_ANALYZER)),
        count("core.analyzer.rows_sampled", total("analyzer_rows_sampled")),
        count(
            "core.analyzer.materialize_decisions",
            total("analyzer_materialize_decisions"),
        ),
        count(
            "core.materializer.rows_per_s",
            ratio(x.cost.rows_scanned as f64, x.cost.materialize_s),
        ),
        timing(
            "core.materializer.step_ms_p50",
            ms_of(setup::SPAN_MATERIALIZE),
        ),
        count(
            "core.materializer.values_moved_per_s",
            ratio(x.cost.values_moved as f64, x.cost.materialize_s),
        ),
        count(
            "core.materializer.txn_conflicts",
            total("materializer_txn_conflicts"),
        ),
        count(
            "core.materializer.columnar_built",
            total("materializer_columnar_built"),
        ),
        count(
            "core.materializer.indexes_created",
            total("materializer_indexes_created"),
        ),
        count("core.materializer.backlog_rows_end", f.backlog_rows),
        count("core.background.steps", total("background_steps")),
        count("core.background.errors", total("background_errors")),
        count(
            "core.background.vacuum_passes",
            total("background_vacuum_passes"),
        ),
        count(
            "rdbms.columnar.scans_per_query",
            ratio(c("columnar_scans"), stmts),
        ),
        count(
            "rdbms.columnar.segments_pruned_share",
            ratio(c("segments_pruned"), c("columnar_scans")),
        ),
        count(
            "rdbms.columnar.values_decoded_batched_per_query",
            ratio(c("values_decoded_batched"), stmts),
        ),
        count("rdbms.columnar.dict_code_rewrites", c("dict_code_rewrites")),
        count(
            "rdbms.columnar.selection_fastpath_hits",
            c("selection_fastpath_hits"),
        ),
        count(
            "rdbms.columnar.encoded_bytes_per_raw_byte",
            ratio(f.columnar_encoded, f.columnar_raw),
        ),
        count(
            "rdbms.btree.index_scans_per_query",
            ratio(c("index_scans"), stmts),
        ),
        count("rdbms.btree.index_only_scans", c("index_only_scans")),
        count(
            "rdbms.btree.heap_fetches_per_index_scan",
            ratio(c("heap_fetches"), c("index_scans")),
        ),
        count(
            "rdbms.btree.maintenance_ops_per_write",
            ratio(c("index_maintenance_ops"), s.write_ops as f64),
        ),
        count(
            "rdbms.pager.hit_rate",
            ratio(c("cache_hits"), c("cache_hits") + c("disk_reads")),
        ),
        count(
            "rdbms.pager.disk_reads_per_query",
            ratio(c("disk_reads"), stmts),
        ),
        count(
            "rdbms.pager.disk_writes_per_user_kb",
            ratio(total("disk_writes"), user / 1024.0),
        ),
        count(
            "rdbms.heap.live_bytes_per_user_byte",
            ratio(f.live_bytes, user),
        ),
        count(
            "rdbms.heap.file_bytes_per_live_byte",
            ratio(f.file_bytes, f.live_bytes),
        ),
        count(
            "rdbms.wal.bytes_per_user_byte",
            ratio(total("wal_bytes"), user),
        ),
        count(
            "rdbms.wal.fsyncs_per_commit",
            ratio(total("wal_fsyncs"), total("wal_commits")),
        ),
        count("rdbms.wal.commits", setup_commits),
        count("rdbms.wal.checkpoints", total("wal_checkpoints")),
        timing("rdbms.wal.checkpoint_ms", ms_of(setup::SPAN_CHECKPOINT)),
        timing("rdbms.wal.recovery_ms", ms_of(SPAN_RECOVERY)),
        count("rdbms.wal.recovered_pages", x.recovered_pages as f64),
        count(
            "rdbms.txn.versions_created_per_write",
            ratio(c("versions_created"), s.write_ops as f64),
        ),
        count(
            "rdbms.txn.versions_vacuumed_share",
            ratio(total("versions_vacuumed"), total("versions_created")),
        ),
        count("rdbms.txn.write_conflicts", total("write_conflicts")),
        count(
            "rdbms.txn.oldest_snapshot_age_ms_max",
            x.snapshot_age_ms_max as f64,
        ),
        timing("rdbms.txn.vacuum_ms", ms_of(SPAN_VACUUM)),
        timing("rdbms.stats.analyze_ms", ms_of(setup::SPAN_ANALYZE)),
        Measured {
            name: "bench.read_ms_p50",
            value: median(&s.reads),
            samples: Some(s.reads.len()),
        },
        Measured {
            name: "bench.read_ms_tail",
            value: tail.unwrap_or(0.0),
            samples: Some(s.reads.len()),
        },
        count("bench.trace_overhead_ratio", ratio(traced, untraced)),
        Measured {
            name: "bench.writer_lateness_ms_p99",
            value: lateness.map_or(0.0, |(_, v)| v),
            samples: Some(x.writer_lateness_ms.len()),
        },
    ]
}

/// Durations (ms) of the set-up spans called `name` (children of the
/// set-up root; the same name inside the window is a window op).
fn setup_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| {
            s.name == name
                && s.parent
                    .is_some_and(|p| spans[p as usize].name == setup::SPAN_SETUP)
        })
        .map(|s| s.dur_ns() as f64 / 1e6)
        .collect()
}
