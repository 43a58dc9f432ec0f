//! Integration tests: the simulated-cluster experiment pipeline reproduces
//! the qualitative shapes the paper reports (these are the assertions behind
//! EXPERIMENTS.md, run at reduced scale so the suite stays fast).

use blobseer::core::Cluster;
use blobseer::sim::{OpKind, SimulatedCluster, Workload, WorkloadBuilder};
use blobseer::types::{BlobConfig, ClusterConfig, PlacementPolicy};
use blobseer_bench as bench;

fn cluster(data: usize, meta: usize) -> SimulatedCluster {
    SimulatedCluster::new(ClusterConfig {
        data_providers: data,
        metadata_providers: meta,
        placement: PlacementPolicy::RoundRobin,
        ..ClusterConfig::default()
    })
    .unwrap()
}

#[test]
fn writes_scale_with_concurrency_like_fig_a2() {
    let series = bench::fig_a2_concurrent_rw(&[1, 16], 16);
    for s in &series {
        assert!(
            s.points[1].throughput_mibps > 5.0 * s.points[0].throughput_mibps,
            "{} must scale with clients",
            s.name
        );
    }
}

#[test]
fn metadata_decentralization_shape_like_fig_c1() {
    // 128 KiB chunks keep the workload clearly metadata-bound: since the
    // pipelined schedule (the default) hides metadata latency behind chunk
    // I/O, a single metadata server must be *saturated* — not merely slow —
    // for decentralisation to show, exactly as in the paper's Fig. C1
    // (which also shrinks the chunk size for this experiment).
    let series = bench::fig_c1_metadata_decentralization(&[48], 32, 8, 128);
    let centralized = series[0].final_throughput().unwrap();
    let decentralized = series[1].final_throughput().unwrap();
    assert!(
        decentralized > 1.5 * centralized,
        "DHT metadata ({decentralized:.0}) must beat centralized ({centralized:.0})"
    );
}

#[test]
fn striping_shape_like_fig_c2() {
    let series = bench::fig_c2_provider_sweep(&[2, 32], 32, 16);
    assert!(series.points[1].throughput_mibps > 4.0 * series.points[0].throughput_mibps);
}

#[test]
fn bsfs_vs_hdfs_shape_like_fig_d1() {
    let series = bench::fig_d1_bsfs_vs_hdfs(&[1, 32], 16);
    let bsfs_gain = series[0].points[1].throughput_mibps / series[0].points[0].throughput_mibps;
    let hdfs_gain = series[1].points[1].throughput_mibps / series[1].points[0].throughput_mibps;
    assert!(bsfs_gain > 8.0);
    assert!(hdfs_gain < 1.2);
}

#[test]
fn qos_feedback_shape_like_fig_e1() {
    let (without, with) = bench::fig_e1_qos_stability(24, 8, 10.0);
    assert!(with.aggregated_mibps > 1.1 * without.aggregated_mibps);
}

#[test]
fn replication_shape_like_tab_e2() {
    let rows = bench::tab_e2_replication(&[1, 2], 8);
    assert!(rows[0].write_mibps > rows[1].write_mibps);
    assert!(rows[1].read_availability >= rows[0].read_availability);
}

/// p99 latency (in virtual milliseconds) of the interactive tenant — the
/// last client of an `overload` workload.
fn interactive_p99_ms(result: &blobseer::sim::SimulationResult, interactive: usize) -> f64 {
    let mut lat: Vec<f64> = result
        .ops
        .iter()
        .filter(|op| op.client == interactive)
        .inspect(|op| assert!(op.ok, "interactive ops must all succeed"))
        .map(|op| (op.end - op.start) as f64 / 1e6)
        .collect();
    assert!(!lat.is_empty());
    lat.sort_by(f64::total_cmp);
    let rank = ((lat.len() as f64 * 0.99).ceil() as usize).clamp(1, lat.len());
    lat[rank - 1]
}

#[test]
fn admission_window_bounds_the_interactive_tenants_tail_latency() {
    // Four greedy tenants each inject bursts two orders of magnitude larger
    // than the interactive tenant's appends. Without admission every burst
    // lands on the data plane whole and the interactive tenant's p99 grows
    // with the burst size; with a window of four chunks per tenant the
    // greedy streams arrive as paced installments and the interactive p99
    // stays within a constant factor of the uncontended latency.
    let build = || {
        WorkloadBuilder::new(4)
            .ops_per_client(4)
            .op_size(64 << 20)
            .chunk_size(512 << 10)
    };
    let flood = build().overload(256 << 10, 32, 0);
    let paced = build().overload(256 << 10, 32, 4);
    let interactive = flood.clients - 1;

    let mut sim = cluster(8, 4);
    let p99_off = interactive_p99_ms(&sim.run(&flood).unwrap(), interactive);
    let p99_on = interactive_p99_ms(&sim.run(&paced).unwrap(), interactive);

    // The uncontended baseline: the same interactive stream with no greedy
    // tenants at all (`overload` keeps the last-client convention).
    let solo = WorkloadBuilder::new(0)
        .chunk_size(512 << 10)
        .ops_per_client(0)
        .overload(256 << 10, 32, 0);
    let p99_solo = interactive_p99_ms(&sim.run(&solo).unwrap(), 0);

    assert!(
        p99_on * 5.0 < p99_off,
        "admission must shrink the interactive p99 well past noise: \
         on = {p99_on:.2} ms, off = {p99_off:.2} ms"
    );
    assert!(
        p99_on < 25.0 * p99_solo,
        "throttled overload must keep the interactive p99 within a constant \
         factor of uncontended: on = {p99_on:.2} ms, solo = {p99_solo:.2} ms"
    );
    assert!(
        p99_off > 30.0 * p99_solo,
        "the unthrottled flood must actually overload the interactive \
         tenant: off = {p99_off:.2} ms, solo = {p99_solo:.2} ms"
    );
}

#[test]
fn provider_load_is_balanced_under_round_robin() {
    let mut sim = cluster(16, 8);
    let workload = WorkloadBuilder::new(16)
        .ops_per_client(2)
        .op_size(16 << 20)
        .chunk_size(1 << 20)
        .concurrent_appends();
    let result = sim.run(&workload).unwrap();
    let loads: Vec<u64> = result.provider_write_bytes.values().copied().collect();
    let max = *loads.iter().max().unwrap() as f64;
    let min = *loads.iter().min().unwrap() as f64;
    assert!(min > 0.0);
    assert!(
        max / min < 1.6,
        "round-robin striping must balance provider load"
    );
}

/// The simulator runs the real client caches, so on the same sequence its
/// cache and metadata counts are the real client's. Both sides create one
/// blob and append eight chunks to it in one version (the simulator's
/// untimed preload), so they hold the same blob id and tree keys; then a
/// fresh client reads the whole blob twice.
#[test]
fn sim_cache_and_metadata_counts_match_the_real_client() {
    const CHUNK: u64 = 64 << 10;
    const LEN: u64 = 8 * CHUNK;
    let blob_config = BlobConfig {
        chunk_size: CHUNK,
        replication: 1,
        ..BlobConfig::default()
    };
    let reads = |n: usize| Workload {
        clients: 1,
        blob_config,
        preload_bytes: LEN,
        ops: vec![vec![
            OpKind::Read {
                offset: 0,
                len: LEN
            };
            n
        ]],
        compressibility: 1.0,
    };
    // One budget whose shard share holds all eight chunks, and one whose
    // shard share (budget / 16) is smaller than a chunk: nothing admitted.
    for chunk_cache_bytes in [16 * LEN, LEN] {
        let config = ClusterConfig {
            data_providers: 4,
            metadata_providers: 4,
            dht_replication: 1,
            chunk_cache_bytes,
            ..ClusterConfig::default()
        };
        let sim = |n| {
            SimulatedCluster::new(config.clone())
                .unwrap()
                .run(&reads(n))
                .unwrap()
        };
        let (first, both) = (sim(1), sim(2));
        assert_eq!(both.failed_ops, 0);

        let cluster = Cluster::new(config.clone()).unwrap();
        let writer = cluster.client();
        let blob = writer.create_blob(blob_config).unwrap();
        writer.append(blob, vec![7u8; LEN as usize]).unwrap();
        let reader = cluster.client();
        let before = cluster.metadata_round_trips();
        assert_eq!(reader.read(blob, None, 0, LEN).unwrap().len() as u64, LEN);
        let first_read_trips = cluster.metadata_round_trips() - before;
        reader.read(blob, None, 0, LEN).unwrap();
        let stats = reader.stats();
        let admitted = chunk_cache_bytes / 16 >= CHUNK;
        assert_eq!(stats.cache_hits, if admitted { 8 } else { 0 });
        assert_eq!(stats.cache_misses, if admitted { 8 } else { 16 });
        assert!(first_read_trips > 0);

        assert_eq!(
            (both.cache_hits, both.cache_misses),
            (stats.cache_hits, stats.cache_misses),
            "chunk cache counts diverge at a {chunk_cache_bytes}-byte budget"
        );
        assert_eq!(
            first.meta_round_trips, first_read_trips,
            "first-read metadata round trips diverge at a {chunk_cache_bytes}-byte budget"
        );
    }
}
