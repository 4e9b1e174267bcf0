//! The benchmark's contract in code: workloads, metrics, units, directions
//! and regression bounds. `BENCHMARK.json` at the repository root states
//! the same thing for the driver; a unit test keeps the two identical.

use crate::stats::Better;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    NobenchHybrid,
    NobenchVirtualSpill,
    IngestEvolve,
    MixedServing,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::NobenchHybrid,
        Workload::NobenchVirtualSpill,
        Workload::IngestEvolve,
        Workload::MixedServing,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::NobenchHybrid => "nobench_hybrid",
            Workload::NobenchVirtualSpill => "nobench_virtual_spill",
            Workload::IngestEvolve => "ingest_evolve",
            Workload::MixedServing => "mixed_serving",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// One line: why the workload exists (mirrors `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::NobenchHybrid => "in-memory collection with the paper's materialization policy applied, one exec thread: planner, columnar scans of unsealed segments, B-tree, hash join and aggregation do the work, the pager none",
            Workload::NobenchVirtualSpill => "file-backed all-virtual collection six times its buffer pool, two exec threads: extraction UDFs, pager, heap and the morsel-parallel scan, join and aggregation do the work, columnar and B-tree none",
            Workload::IngestEvolve => "file-backed collection with fsync per commit: JSON load, materializer steps, then a write-heavy mix, reopen and a kill -9 durability check",
            Workload::MixedServing => "closed-loop reader and 10 op/s open-loop updater on one MVCC instance beside the vacuum thread and an idle background materializer: per-statement front-end cost under a concurrent writer",
        }
    }

    /// Closed or open loop, and with how many clients.
    pub fn load_model(self) -> &'static str {
        match self {
            Workload::MixedServing => {
                "1 closed-loop reader + 1 open-loop writer at 10 op/s (timed from due time)"
            }
            _ => "1 closed-loop client, zero think time",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Allowed worsening of the median, as a share of the parent's median.
    /// `None` for per-layer metrics: they explain, they do not gate.
    pub bound: Option<f64>,
    pub what: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    what: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
        what,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    what: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
        what,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees. Every workload reports every one.
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", Lower, 0.25, "time inside the system before the first measured op (open + load + analyzer + materializer + ANALYZE + checkpoint); median of the run's builds"),
    e2e("ops_per_s", "op/s", Higher, 0.25, "median over cycles of correct ops / time the closed-loop client spent inside the system in that cycle (reader on mixed_serving)"),
    e2e("project_ms_p50", "ms", Lower, 0.25, "median over cycles of the mean Q1-Q4 statement latency"),
    e2e("select_ms_p50", "ms", Lower, 0.25, "median over cycles of the mean Q5-Q9 statement latency"),
    e2e("agg_ms_p50", "ms", Lower, 0.25, "median Q10 latency"),
    e2e("join_ms_p50", "ms", Lower, 0.25, "median Q11 latency"),
    e2e("write_ms_p50", "ms", Lower, 0.25, "median write latency: the 6.6 update per cycle; mean of a round's writes on ingest_evolve; from due time on mixed_serving"),
    e2e("stored_bytes_per_user_byte", "ratio", Lower, 0.05, "(database bytes + log bytes) / bytes of JSON text loaded, after set-up and its checkpoint"),
];

/// One layer each, from the traced run. No bounds.
pub const PER_LAYER: &[Metric] = &[
    layer("json.parse_mb_per_s", "MB/s", Higher, "sinew_json::parse_many over one load batch"),
    layer("sql.parse_us_p50", "us", Lower, "sinew_sql::parse_statement"),
    layer("core.rewriter.rewrite_us_p50", "us", Lower, "rewriter::rewrite_statement"),
    layer("core.rewriter.virtual_refs_per_query", "count", Lower, "extraction-UDF column references per statement"),
    layer("core.rewriter.coalesce_refs_per_query", "count", Lower, "COALESCE(column, extract) references per statement (dirty columns)"),
    layer("core.rewriter.fused_bindings_per_query", "count", Higher, "fused multi-key extraction bindings per statement"),
    layer("rdbms.planner.plan_us_p50", "us", Lower, "Database::plan on the rewritten SELECT"),
    layer("rdbms.exec.self_ms_p50.project", "ms", Lower, "execute_statement minus the plan span, Q1-Q4"),
    layer("rdbms.exec.self_ms_p50.select", "ms", Lower, "execute_statement minus the plan span, Q5-Q9"),
    layer("rdbms.exec.self_ms_p50.agg", "ms", Lower, "execute_statement minus the plan span, Q10"),
    layer("rdbms.exec.self_ms_p50.join", "ms", Lower, "execute_statement minus the plan span, Q11"),
    layer("rdbms.exec.parallel_scan_share", "ratio", Higher, "parallel scans / all scans"),
    layer("rdbms.exec.morsels_per_scan", "count", Lower, "morsels dispatched per parallel scan"),
    layer("rdbms.exec.blocks_per_query", "count", Lower, "row blocks emitted per statement"),
    layer("rdbms.exec.join_build_rows_per_join", "count", Lower, "hash-join build rows per Q11"),
    layer("rdbms.exec.agg_partition_merges", "count", Lower, "partition merges of parallel aggregation"),
    layer("core.plan.cache_hit_rate", "ratio", Higher, "extraction-plan cache hits / lookups"),
    layer("core.plan.stale_rebuilds", "count", Lower, "extraction plans rebuilt after a catalog epoch bump"),
    layer("core.udfs.extractions_per_query", "count", Lower, "extraction UDF calls (single-key + fused) per statement"),
    layer("core.udfs.fused_share", "ratio", Higher, "fused calls / all extraction UDF calls"),
    layer("core.udfs.exists_probes_per_query", "count", Lower, "key-exists probes per statement"),
    layer("serial.extract_ns_per_value", "ns", Lower, "ExtractionPlan::extract of one text key over stored reservoir rows"),
    layer("serial.encode_ns_per_doc", "ns", Lower, "loader::serialize_doc"),
    layer("core.loader.docs_per_s", "doc/s", Higher, "documents / time inside the bulk-load calls of set-up"),
    layer("core.loader.batch_ms_p50", "ms", Lower, "one bulk-load call of set-up"),
    layer("core.loader.internal_docs_per_s", "doc/s", Higher, "loader_docs / loader_nanos"),
    layer("core.loader.parallel_batch_share", "ratio", Higher, "load batches that took the parallel path"),
    layer("core.catalog.attrs_registered", "count", Lower, "attributes in the dictionary (repeats exactly per seed)"),
    layer("core.analyzer.run_ms", "ms", Lower, "Sinew::run_analyzer"),
    layer("core.analyzer.rows_sampled", "count", Lower, "rows the analyzer sampled"),
    layer("core.analyzer.materialize_decisions", "count", Lower, "columns chosen for materialization (repeats exactly per seed)"),
    layer("core.materializer.rows_per_s", "row/s", Higher, "rows scanned / time inside the materializer calls of set-up"),
    layer("core.materializer.step_ms_p50", "ms", Lower, "one materializer call of set-up"),
    layer("core.materializer.values_moved_per_s", "1/s", Higher, "values materialized / time inside the materializer calls of set-up"),
    layer("core.materializer.txn_conflicts", "count", Lower, "materializer batches retried after a write conflict"),
    layer("core.materializer.columnar_built", "count", Higher, "columnar stores built"),
    layer("core.materializer.indexes_created", "count", Higher, "secondary indexes auto-created"),
    layer("core.materializer.backlog_rows_end", "count", Lower, "rows still to visit on dirty columns at end of run"),
    layer("core.background.steps", "count", Higher, "background materializer steps"),
    layer("core.background.errors", "count", Lower, "background materializer errors"),
    layer("core.background.vacuum_passes", "count", Higher, "background vacuum passes"),
    layer("rdbms.columnar.scans_per_query", "count", Higher, "columnar scans per statement"),
    layer("rdbms.columnar.segments_pruned_share", "ratio", Higher, "segments pruned by zone map / columnar scans"),
    layer("rdbms.columnar.values_decoded_batched_per_query", "count", Higher, "values decoded by the batched kernels per statement"),
    layer("rdbms.columnar.dict_code_rewrites", "count", Higher, "predicates rewritten to dictionary codes"),
    layer("rdbms.columnar.selection_fastpath_hits", "count", Higher, "selection-vector fast-path hits"),
    layer("rdbms.columnar.encoded_bytes_per_raw_byte", "ratio", Lower, "columnar encoded bytes / raw bytes"),
    layer("rdbms.btree.index_scans_per_query", "count", Higher, "index scans per statement"),
    layer("rdbms.btree.index_only_scans", "count", Higher, "covering index-only scans"),
    layer("rdbms.btree.heap_fetches_per_index_scan", "count", Lower, "heap fetches per index scan"),
    layer("rdbms.btree.maintenance_ops_per_write", "count", Lower, "index maintenance ops per write op of the window"),
    layer("rdbms.pager.hit_rate", "ratio", Higher, "buffer-pool hits / page requests in the window"),
    layer("rdbms.pager.disk_reads_per_query", "count", Lower, "page reads from file per statement"),
    layer("rdbms.pager.disk_writes_per_user_kb", "count", Lower, "page writes to file per KiB of JSON loaded"),
    layer("rdbms.heap.live_bytes_per_user_byte", "ratio", Lower, "live tuple bytes / JSON bytes"),
    layer("rdbms.heap.file_bytes_per_live_byte", "ratio", Lower, "database bytes / live tuple bytes (version and page bloat)"),
    layer("rdbms.wal.bytes_per_user_byte", "ratio", Lower, "log bytes written / JSON bytes"),
    layer("rdbms.wal.fsyncs_per_commit", "ratio", Lower, "log fsyncs / commits"),
    layer("rdbms.wal.commits", "count", Lower, "log commits during set-up (repeats exactly per seed)"),
    layer("rdbms.wal.checkpoints", "count", Lower, "checkpoints over the run"),
    layer("rdbms.wal.checkpoint_ms", "ms", Lower, "Database::checkpoint at the end of set-up"),
    layer("rdbms.wal.recovery_ms", "ms", Lower, "Database::open over the run's log (ingest_evolve)"),
    layer("rdbms.wal.recovered_pages", "count", Lower, "page images replayed by that recovery"),
    layer("rdbms.txn.versions_created_per_write", "count", Lower, "row versions created per write op of the window"),
    layer("rdbms.txn.versions_vacuumed_share", "ratio", Higher, "versions vacuumed / versions created over the run (vacuum also counts reclaimed index keys, so it can pass 1)"),
    layer("rdbms.txn.write_conflicts", "count", Lower, "first-writer-wins conflicts"),
    layer("rdbms.txn.oldest_snapshot_age_ms_max", "ms", Lower, "largest vacuum lag sampled during the window"),
    layer("rdbms.txn.vacuum_ms", "ms", Lower, "Database::vacuum once at end of run"),
    layer("rdbms.stats.analyze_ms", "ms", Lower, "Database::analyze of set-up"),
    layer("bench.read_ms_p50", "ms", Lower, "median latency over all read statements of the window"),
    layer("bench.read_ms_tail", "ms", Lower, "p99 per third of the window, median of the thirds (0 when a third has < 1000 reads)"),
    layer("bench.trace_overhead_ratio", "ratio", Higher, "traced / untraced ops_per_s on alternating cycles"),
    layer("bench.writer_lateness_ms_p99", "ms", Lower, "open-loop generator lag (highest supported percentile; mixed_serving)"),
];

pub fn find(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// How long one run measures, in seconds (`--seconds` overrides).
pub const RUN_SECONDS: u32 = 15;

/// The text of `BENCHMARK.json`, generated so it cannot drift from the
/// code (`--emit-benchmark-json` prints it).
pub fn benchmark_json() -> String {
    let workloads: Vec<String> = Workload::ALL
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": \"{}\", \"why\": \"{}\"}}",
                w.name(),
                w.why()
            )
        })
        .collect();
    let e2e: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.as_str(),
                m.bound.expect("end-to-end metrics are bounded")
            )
        })
        .collect();
    let layers: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.as_str()
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \"sinewbench/Cargo.toml\", \"--\"],\n  \"paths\": [\"sinewbench\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        e2e.join(",\n"),
        layers.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_at_the_root_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate with --emit-benchmark-json"
        );
        assert!(on_disk.len() < 64 * 1024);
        for m in END_TO_END {
            let bound = m.bound.expect("end-to-end metrics are bounded");
            assert!(bound > 0.0 && bound <= 0.25, "{}", m.name);
        }
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let ok_name = |s: &str| {
            s.len() <= 64
                && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |s: &str| {
            s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::HashSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(ok_name(m.name), "{}", m.name);
            assert!(ok_unit(m.unit), "{} {}", m.name, m.unit);
            assert!(seen.insert(m.name), "duplicate {}", m.name);
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
        for w in Workload::ALL {
            assert!(ok_name(w.name()) && w.why().len() <= 200 && !w.why().contains('\n'));
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert!(find("join_ms_p50").is_some() && find("nope").is_none());
    }
}
