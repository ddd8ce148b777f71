//! The frozen parts of the benchmark: per-workload op counts, offered
//! rates and latency limits, and the table of every metric name with
//! its unit. `BENCHMARK.json` repeats the names; `selftest.sh` checks
//! the two agree.

use crate::workload::Workload;

/// Per-workload constants, tuned once at the seed commit and frozen.
///
/// `round_ops` makes a closed-loop round last roughly a second on the
/// 2-core sandbox. The rates are 25 / 50 / 75 % of the seed's
/// closed-loop `ops_per_s` **per connection** (`ops_per_s` / 2): the
/// server executes one connection's requests one at a time, so that is
/// the capacity the single pipelined connection of the open loop can
/// use. `limit_ms` is 5x the seed's closed-loop `p50_ms`. The seed
/// numbers they were derived from are in README.md.
#[derive(Debug, Clone, Copy)]
pub struct Frozen {
    /// Ops per closed-loop round, both connections together.
    pub round_ops: usize,
    /// Offered open-loop rates `[lo, mid, hi]` in ops/s.
    pub rates: [f64; 3],
    /// Latency limit on the open-loop p90, in ms.
    pub limit_ms: f64,
}

/// The constants of `workload`.
pub fn frozen(workload: Workload) -> Frozen {
    match workload {
        Workload::Ingest => Frozen { round_ops: 200, rates: [60.0, 120.0, 180.0], limit_ms: 20.0 },
        Workload::PointQuery => {
            Frozen { round_ops: 10_000, rates: [2_100.0, 4_100.0, 6_200.0], limit_ms: 0.56 }
        }
        Workload::ScanQuery => Frozen { round_ops: 80, rates: [9.0, 17.0, 26.0], limit_ms: 190.0 },
        Workload::MixedRw => Frozen { round_ops: 240, rates: [31.0, 61.0, 92.0], limit_ms: 45.0 },
    }
}

/// Ops per closed-loop round at `scale` (the self-test's 1/20).
pub fn round_ops(workload: Workload, scale: usize) -> usize {
    (frozen(workload).round_ops / scale).max(20)
}

/// Ops of the untimed warm-up: a quarter round.
pub fn warm_ops(round_ops: usize) -> usize {
    (round_ops / 4).max(2)
}

/// The share of `--seconds` each open-loop rung lasts (`rate_lo`,
/// `rate_mid`, `rate_hi`) in a per-layer run. An end-to-end run spends
/// all of `--seconds` in the closed loop.
pub const RUNG_SHARES: [f64; 3] = [0.15, 0.40, 0.15];

/// Which way a metric is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

use Better::{Higher, Lower};

/// End-to-end metrics: `(name, unit, better)`. Printed by `--trace 0`.
pub const END_TO_END: &[(&str, &str, Better)] = &[
    ("setup_s", "s", Lower),
    ("ops_per_s", "1/s", Higher),
    ("p50_ms", "ms", Lower),
    ("p90_ms", "ms", Lower),
    ("peak_rss_mb", "MB", Lower),
    ("stored_bytes_per_user_byte", "ratio", Lower),
    ("recovery_s", "s", Lower),
];

/// Per-layer metrics the wire driver measures (sources S and C of the
/// README): `(name, unit, better)`.
pub const WIRE_LAYER: &[(&str, &str, Better)] = &[
    ("xsserver.epoll_waits_per_op", "count", Lower),
    ("xsserver.bytes_in_per_op", "B", Lower),
    ("xsserver.bytes_out_per_op", "B", Lower),
    ("xsserver.backpressure_stalls", "count", Lower),
    ("xsserver.pipeline_depth_p50", "count", Higher),
    ("xsserver.lock_wait_high_water_us", "us", Lower),
    ("xmlparse.bytes_per_op", "B", Lower),
    ("xsmodel.automaton_compilations", "count", Lower),
    ("xsmodel.cm_cache_hit_ratio", "ratio", Higher),
    ("storage.wal_bytes_per_op", "B", Lower),
    ("storage.wal_fsyncs_per_op", "count", Lower),
    ("storage.checkpoint_page_writes", "count", Lower),
    ("storage.checkpoint_bytes_staged", "B", Lower),
    ("storage.recovery_page_reads", "count", Lower),
    ("storage.recovery_replayed_records", "count", Lower),
    ("xquery.steps_guided_share", "ratio", Higher),
    ("xquery.steps_dewey_share", "ratio", Higher),
    ("xquery.steps_postings_share", "ratio", Higher),
    ("xquery.pruned_share", "ratio", Higher),
    ("xsanalyze.accept_share", "ratio", Higher),
    ("xsanalyze.recheck_share", "ratio", Lower),
    ("xsanalyze.reject_share", "ratio", Lower),
    ("xsanalyze.revalidated_nodes_per_update", "count", Lower),
    ("client.put_doc_p50_ms", "ms", Lower),
    ("client.validate_p50_ms", "ms", Lower),
    ("client.del_doc_p50_ms", "ms", Lower),
    ("client.query_p50_ms", "ms", Lower),
    ("client.xquery_p50_ms", "ms", Lower),
    ("client.update_small_p50_ms", "ms", Lower),
    ("client.update_large_p50_ms", "ms", Lower),
    ("client.save_p50_ms", "ms", Lower),
    ("client.p99_ms", "ms", Lower),
    ("client.samples", "count", Higher),
    ("client.checkpoint_ms", "ms", Lower),
    ("client.open_lo_p90_ms", "ms", Lower),
    ("client.open_mid_p50_ms", "ms", Lower),
    ("client.open_mid_p90_ms", "ms", Lower),
    ("client.open_hi_p90_ms", "ms", Lower),
    ("client.max_rate_ok_rps", "1/s", Higher),
    ("client.failed_share", "ratio", Lower),
    ("bench.gen_lag_p90_ms", "ms", Lower),
    ("bench.round_spread", "ratio", Lower),
    ("bench.nproc", "count", Higher),
];

/// Per-layer metrics the traced replay measures (source T, and the
/// untraced in-process whole calls): `(name, unit, better)`.
pub const TRACE_LAYER: &[(&str, &str, Better)] = &[
    ("xsserver.decode_frame_us", "us", Lower),
    ("xsserver.encode_frame_us", "us", Lower),
    ("xsserver.wire_overhead_us", "us", Lower),
    ("xmlparse.parse_us", "us", Lower),
    ("xmlparse.parse_mb_per_s", "MB/s", Higher),
    ("xsmodel.schema_compile_us", "us", Lower),
    ("xstypes.facet_check_us", "us", Lower),
    ("algebra.load_us", "us", Lower),
    ("algebra.load_nodes_per_s", "1/s", Higher),
    ("algebra.serialize_us", "us", Lower),
    ("xdm.tree_clone_us", "us", Lower),
    ("xdm.tree_drop_us", "us", Lower),
    ("xdm.nodes_per_doc", "count", Lower),
    ("storage.from_tree_us", "us", Lower),
    ("storage.clone_us", "us", Lower),
    ("storage.mutate_us", "us", Lower),
    ("storage.string_value_us", "us", Lower),
    ("storage.wal_append_us", "us", Lower),
    ("storage.wal_sync_us", "us", Lower),
    ("storage.relabels", "count", Lower),
    ("xpath.parse_us", "us", Lower),
    ("xpath.eval_guided_us", "us", Lower),
    ("xquery.plan_us", "us", Lower),
    ("xquery.execute_us", "us", Lower),
    ("xquery.parse_query_us", "us", Lower),
    ("xquery.evaluate_us", "us", Lower),
    ("xquery.serialize_us", "us", Lower),
    ("xquery.parse_update_us", "us", Lower),
    ("xquery.work_per_result", "count", Lower),
    ("xsanalyze.path_typing_us", "us", Lower),
    ("xsanalyze.update_verdict_us", "us", Lower),
    ("core.insert_us", "us", Lower),
    ("core.validate_us", "us", Lower),
    ("core.delete_us", "us", Lower),
    ("core.query_us", "us", Lower),
    ("core.xquery_us", "us", Lower),
    ("core.update_us", "us", Lower),
    ("core.snapshot_acquire_us", "us", Lower),
    ("core.mutation_encode_us", "us", Lower),
    ("core.storage_to_tree_us", "us", Lower),
    ("core.publish_us", "us", Lower),
    ("core.release_old_us", "us", Lower),
    ("core.unattributed_share", "ratio", Lower),
    ("xsobs.overhead_share", "ratio", Lower),
    ("bench.trace_overhead_share", "ratio", Lower),
];

/// The unit of a metric, from whichever table names it.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(WIRE_LAYER)
        .chain(TRACE_LAYER)
        .find(|(n, _, _)| *n == name)
        .map(|(_, unit, _)| *unit)
}
