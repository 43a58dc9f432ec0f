//! The benchmark's metric glossary as data: every metric's name, unit and
//! direction, and for the end-to-end ones the regression bound. The
//! workloads emit exactly these names; `BENCHMARK.json` repeats them and a
//! test keeps the two in step. `README.md` says what each one means.

/// A metric the benchmark reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// End-to-end metrics only: the share of the baseline's median by which
    /// the metric may get worse before it counts as a regression.
    pub bound: Option<f64>,
}

const fn gated(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        higher_is_better: higher,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, higher: bool) -> Metric {
    Metric {
        name,
        unit,
        higher_is_better: higher,
        bound: None,
    }
}

/// What a user of the system sees; reported by an untraced pass, on every
/// workload, each with its regression bound.
pub const END_TO_END: &[Metric] = &[
    gated("append_mibps", "MiB/s", true, 0.25),
    gated("read_mibps", "MiB/s", true, 0.25),
    gated("append_p50_ms", "ms", false, 0.25),
    gated("read_p50_ms", "ms", false, 0.25),
    gated("stored_bytes_per_user_byte", "B/B", false, 0.02),
    gated("server_rss_per_user_byte", "B/B", false, 0.25),
    gated("setup_s", "s", false, 0.25),
];

/// Single layers, seen from outside; reported by a traced pass, not gated.
pub const PER_LAYER: &[Metric] = &[
    // The two client threads' own view of the window.
    layer("client.version_p50_ms", "ms", false),
    layer("client.append_tail_ms", "ms", false),
    layer("client.append_tail_pct", "%", true),
    layer("client.read_tail_ms", "ms", false),
    layer("client.read_tail_pct", "%", true),
    layer("client.append_mean_mibps", "MiB/s", true),
    layer("client.read_mean_mibps", "MiB/s", true),
    layer("client.late_p99_ms", "ms", false),
    layer("client.sparse_read_p50_ms", "ms", false),
    layer("client.sparse_version_p50_ms", "ms", false),
    layer("client.sparse_append_p50_ms", "ms", false),
    layer("client.achieved_ops_per_s", "1/s", true),
    // blobseer-codec
    layer("codec.seal_mibps", "MiB/s", true),
    layer("codec.open_mibps", "MiB/s", true),
    layer("codec.ratio", "B/B", true),
    // blobseer-net
    layer("net.frame_encode_empty_ns", "ns", false),
    layer("net.frame_encode_64k_ns", "ns", false),
    layer("net.frame_decode_empty_ns", "ns", false),
    layer("net.frame_decode_64k_ns", "ns", false),
    layer("net.rpc_rtt_dense_us", "us", false),
    layer("net.rpc_rtt_sparse_us", "us", false),
    layer("net.frames_per_op", "count", false),
    layer("net.coalesced_ratio", "ratio", true),
    layer("net.wire_bytes_per_user_byte", "B/B", false),
    layer("net.payload_bytes_copied", "B", false),
    // blobseer-meta
    layer("meta.weave_us", "us", false),
    layer("meta.descent_2m_us", "us", false),
    layer("meta.descent_4k_us", "us", false),
    layer("meta.nodes_written_per_append", "count", false),
    layer("meta.nodes_read_per_read", "count", false),
    // blobseer-dht
    layer("dht.put_batch_us", "us", false),
    layer("dht.get_batch_us", "us", false),
    layer("dht.round_trips_per_op", "count", false),
    // blobseer-core
    layer("core.vm_ticket_commit_us", "us", false),
    layer("core.transfer_submit_join_us", "us", false),
    layer("core.cache_hit_ns", "ns", false),
    layer("core.cache_insert_evict_ns", "ns", false),
    layer("core.cache_hit_ratio", "ratio", true),
    // blobseer-provider
    layer("provider.put_us", "us", false),
    layer("provider.get_us", "us", false),
    // blobseer-persist
    layer("persist.segment_put_us", "us", false),
    layer("persist.wal_put_nodes_us", "us", false),
    layer("persist.wal_commit_us", "us", false),
    layer("persist.recovery_s", "s", false),
    // blobseer-server, from /proc and its own /metrics
    layer("server.cpu_s_per_gib", "s/GiB", false),
    layer("server.cache_hit_ratio", "ratio", true),
    layer("server.meta_round_trips_per_op", "count", false),
    layer("server.bytes_on_wire_physical_per_logical", "B/B", false),
    layer("server.peak_rss_mib", "MiB", false),
    // The traced half of the window's operations, per operation.
    layer("trace.append_version_ms", "ms", false),
    layer("trace.append_meta_ms", "ms", false),
    layer("trace.append_chunk_ms", "ms", false),
    layer("trace.append_self_ms", "ms", false),
    layer("trace.append_op_ms", "ms", false),
    layer("trace.read_version_ms", "ms", false),
    layer("trace.read_meta_ms", "ms", false),
    layer("trace.read_chunk_ms", "ms", false),
    layer("trace.read_self_ms", "ms", false),
    layer("trace.read_op_ms", "ms", false),
    layer("trace.sum_error_pct", "%", false),
    layer("trace.overhead_pct", "%", false),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::workloads::Workload;

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(unit: &str) -> bool {
        (1..=16).contains(&unit.len())
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_meet_the_contract_and_are_used_once() {
        let all: Vec<&Metric> = END_TO_END.iter().chain(PER_LAYER).collect();
        for (i, metric) in all.iter().enumerate() {
            assert!(valid_name(metric.name), "{}", metric.name);
            assert!(valid_unit(metric.unit), "{} {}", metric.name, metric.unit);
            assert!(
                all[..i].iter().all(|m| m.name != metric.name),
                "{}",
                metric.name
            );
        }
        for metric in END_TO_END {
            let bound = metric.bound.expect("end-to-end metrics are bounded");
            assert!(bound > 0.0 && bound <= 0.25, "{}", metric.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.higher_is_better), ("s", false));
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
    }

    /// `BENCHMARK.json` at the root of the repository is what the driver
    /// reads; it must describe exactly what this crate emits.
    #[test]
    fn benchmark_json_describes_exactly_these_metrics_and_workloads() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).expect(path)).expect("valid JSON");
        let keys: Vec<&str> = doc.members().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let entries = |key: &str| match doc.get(key) {
            Some(Json::Arr(items)) => items.clone(),
            other => panic!("{key}: {other:?}"),
        };
        let text =
            |entry: &Json, key: &str| entry.get(key).and_then(Json::as_str).unwrap().to_string();

        let workloads = entries("workloads");
        assert_eq!(workloads.len(), Workload::ALL.len());
        for (entry, workload) in workloads.iter().zip(Workload::ALL) {
            assert_eq!(text(entry, "name"), workload.name());
            assert_eq!(text(entry, "why"), workload.why());
            assert!(workload.why().len() <= 200 && !workload.why().contains('\n'));
            assert_eq!(entry.members().len(), 2);
        }
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = entries(key);
            assert_eq!(listed.len(), table.len(), "{key}");
            for (entry, metric) in listed.iter().zip(table) {
                assert_eq!(text(entry, "name"), metric.name);
                assert_eq!(text(entry, "unit"), metric.unit, "{}", metric.name);
                let better = if metric.higher_is_better {
                    "higher"
                } else {
                    "lower"
                };
                assert_eq!(text(entry, "better"), better, "{}", metric.name);
                assert_eq!(
                    entry.get("bound").and_then(Json::as_f64),
                    metric.bound,
                    "{}",
                    metric.name
                );
                assert_eq!(
                    entry.members().len(),
                    if metric.bound.is_some() { 4 } else { 3 }
                );
            }
        }
    }
}
