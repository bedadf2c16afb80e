//! The benchmark's names: workloads, end-to-end metrics with their
//! regression bounds, and per-layer metrics. `BENCHMARK.json` at the repo
//! root is `perfbench spec` printed from these tables, so a name exists in
//! exactly one place.

/// Seconds the native phase of one run measures (`run_seconds`).
pub const RUN_SECONDS: u64 = 8;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "remote_read_warm",
        why: "two remote clients scan and point-read a fully pool-resident table: wire, server streaming, planner and bitmaps do the work, pool and WAL are idle",
    },
    Workload {
        name: "remote_commit_durable",
        why: "two remote clients commit fsynced 25-write transactions on their own branches: WAL group commit, shard locks, worker hand-off and round trips do the work, scans do none",
    },
    Workload {
        name: "local_scan_cold",
        why: "in-process scans and diffs over a table 4x Decibel's buffer pool: pool miss/evict/CRC and heap reads dominate; the control that wire and server changes must not move",
    },
    Workload {
        name: "agentic_mixed",
        why: "fork, few writes, commit, read back, merge or abandon, over the wire while a second client scans master: fork, merge, version graph and space amplification do the work",
    },
];

#[derive(Clone, Copy, PartialEq)]
pub enum Better {
    Higher,
    Lower,
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

use Better::{Higher, Lower};

const fn m(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric { name, unit, better }
}

/// End-to-end metrics and the share of the parent's median by which each
/// may worsen. A bound is at least three times the widest inter-quartile
/// spread the metric showed on any workload over ten seeds on this box
/// (REPEAT.md), up to the 25 % the contract allows. The single-client probes
/// spread 2-5 %; what two clients measure on two virtual CPUs spreads up to
/// 15 % (the box changes pace for minutes at a time), so every timing gets
/// the widest bound.
pub const END_TO_END: [(Metric, f64); 15] = [
    (m("setup_s", "s", Lower), 0.25),
    (m("peak_rss_mib", "MiB", Lower), 0.20),
    (m("scan_rows_per_s", "rows/s", Higher), 0.25),
    (m("q1_scan_p50_ms", "ms", Lower), 0.25),
    (m("q_selective_p50_ms", "ms", Lower), 0.25),
    (m("q4_multi_p50_ms", "ms", Lower), 0.25),
    (m("get_p50_us", "us", Lower), 0.25),
    (m("txn_per_s", "txn/s", Higher), 0.25),
    (m("commit_p50_ms", "ms", Lower), 0.25),
    (m("fork_p50_us", "us", Lower), 0.25),
    (m("merge_p50_ms", "ms", Lower), 0.25),
    (m("diff_p50_ms", "ms", Lower), 0.25),
    (m("cycle_per_s", "cycles/s", Higher), 0.25),
    (m("reopen_p50_ms", "ms", Lower), 0.20),
    (m("bytes_per_user_byte", "ratio", Lower), 0.02),
];

/// Which way the end-to-end metric `name` is better.
pub fn better(name: &str) -> Better {
    let (metric, _) = END_TO_END
        .iter()
        .find(|(m, _)| m.name == name)
        .unwrap_or_else(|| panic!("{name} is not an end-to-end metric"));
    metric.better
}

/// Per-layer metrics, `<layer>.<metric>`; no bounds.
pub const PER_LAYER: [Metric; 76] = [
    m("bitmap.and_mwords_per_s", "Mwords/s", Higher),
    m("bitmap.or_mwords_per_s", "Mwords/s", Higher),
    m("bitmap.and_not_mwords_per_s", "Mwords/s", Higher),
    m("bitmap.iter_ones_m_per_s", "M/s", Higher),
    m("bitmap.copy_from_gib_per_s", "GiB/s", Higher),
    m("bitmap.branch_index_add_branch_us", "us", Lower),
    m("common.record_encode_m_per_s", "M/s", Higher),
    m("common.record_decode_m_per_s", "M/s", Higher),
    m("common.record_project_m_per_s", "M/s", Higher),
    m("pagestore.pool_hit_ns", "ns", Lower),
    m("pagestore.pool_miss_us", "us", Lower),
    m("pagestore.pool_hit_ratio", "ratio", Higher),
    m("pagestore.pool_evictions", "count", Lower),
    m("pagestore.pool_crc_verifies", "count", Lower),
    m("pagestore.heap_append_m_per_s", "M/s", Higher),
    m("pagestore.cursor_read_m_per_s", "M/s", Higher),
    m("pagestore.cursor_read_field_m_per_s", "M/s", Higher),
    m("pagestore.cursor_read_projected_m_per_s", "M/s", Higher),
    m("pagestore.wal_append_seal_us", "us", Lower),
    m("pagestore.wal_sync_us", "us", Lower),
    m("pagestore.wal_txns_per_fsync", "ratio", Higher),
    m("pagestore.wal_bytes_per_user_byte", "ratio", Lower),
    m("vgraph.create_branch_us", "us", Lower),
    m("vgraph.lca_us", "us", Lower),
    m(
        "core.engine.tuple_first.load_m_rows_per_s",
        "Mrows/s",
        Higher,
    ),
    m(
        "core.engine.tuple_first.scan_m_rows_per_s",
        "Mrows/s",
        Higher,
    ),
    m("core.engine.tuple_first.commit_us", "us", Lower),
    m("core.engine.tuple_first.fork_us", "us", Lower),
    m(
        "core.engine.tuple_first.bytes_per_user_byte",
        "ratio",
        Lower,
    ),
    m(
        "core.engine.version_first.load_m_rows_per_s",
        "Mrows/s",
        Higher,
    ),
    m(
        "core.engine.version_first.scan_m_rows_per_s",
        "Mrows/s",
        Higher,
    ),
    m("core.engine.version_first.commit_us", "us", Lower),
    m("core.engine.version_first.fork_us", "us", Lower),
    m(
        "core.engine.version_first.bytes_per_user_byte",
        "ratio",
        Lower,
    ),
    m("core.engine.hybrid.load_m_rows_per_s", "Mrows/s", Higher),
    m("core.engine.hybrid.scan_m_rows_per_s", "Mrows/s", Higher),
    m("core.engine.hybrid.commit_us", "us", Lower),
    m("core.engine.hybrid.fork_us", "us", Lower),
    m("core.engine.hybrid.bytes_per_user_byte", "ratio", Lower),
    m("core.query.plan_us", "us", Lower),
    m("core.query.local_q1_m_rows_per_s", "Mrows/s", Higher),
    m("core.query.q4_parallel_over_seq", "ratio", Lower),
    m("core.query.rows_scanned_per_emitted", "ratio", Lower),
    m("core.query.pages_pinned_per_query", "ratio", Lower),
    m("core.query.pushdown_share", "ratio", Higher),
    m("core.session.commit_nofsync_us", "us", Lower),
    m("core.session.commit_fsync_us", "us", Lower),
    m("core.session.get_us", "us", Lower),
    m("core.session.lock_wait_p50_us", "us", Lower),
    m("core.session.shard_contention", "count", Lower),
    m("core.merge.three_way_ms", "ms", Lower),
    m("core.merge.diff_ms", "ms", Lower),
    m("core.checkpoint.flush_ms", "ms", Lower),
    m("core.checkpoint.reopen_clean_ms", "ms", Lower),
    m("core.checkpoint.replay_k_txn_per_s", "ktxn/s", Higher),
    m("wire.frame_write_read_mib_per_s", "MiB/s", Higher),
    m("wire.frame_decoder_mib_per_s", "MiB/s", Higher),
    m("wire.request_codec_ns", "ns", Lower),
    m("wire.batch_encode_m_rows_per_s", "Mrows/s", Higher),
    m("wire.batch_decode_m_rows_per_s", "Mrows/s", Higher),
    m("wire.scan_tax_ratio", "ratio", Lower),
    m("netio.waker_roundtrip_us", "us", Lower),
    m("server.empty_rtt_us", "us", Lower),
    m("server.commit_handoff_us", "us", Lower),
    m("server.poll_p50_us", "us", Lower),
    m("server.requests", "count", Higher),
    m("server.stream_parks", "count", Lower),
    m("server.workers_busy_max", "count", Lower),
    m("server.backlog_max_bytes", "bytes", Lower),
    m("server.pipeline_depth_max", "count", Lower),
    m("client.commit_p99_ms", "ms", Lower),
    m("client.q1_scan_p99_ms", "ms", Lower),
    m("client.merge_p99_ms", "ms", Lower),
    m("client.reader_stall_max_ms", "ms", Lower),
    m("obs.snapshot_us", "us", Lower),
    m("trace.overhead_pct", "%", Lower),
];

fn json_metric(metric: &Metric, bound: Option<f64>) -> String {
    let better = match metric.better {
        Higher => "higher",
        Lower => "lower",
    };
    let bound = bound.map_or(String::new(), |b| format!(", \"bound\": {b}"));
    format!(
        "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\"{bound}}}",
        metric.name, metric.unit
    )
}

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|(metric, bound)| json_metric(metric, Some(*bound)))
        .collect();
    let per_layer: Vec<String> = PER_LAYER.iter().map(|x| json_metric(x, None)).collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--manifest-path\", \"perfbench/Cargo.toml\", \"--\", \"run\"],\n  \"paths\": [\"perfbench\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}
