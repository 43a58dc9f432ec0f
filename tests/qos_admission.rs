//! Overload admission on a real cluster: greedy tenants flooding the shared
//! transfer pool next to one interactive tenant. The virtual-time latency
//! story (bounded interactive p99 with the throttle on, unbounded off) lives
//! in `sim_experiments::admission_window_bounds_the_interactive_tenants_tail_latency`;
//! here the real [`AdmissionController`] must enforce the mechanism those
//! numbers rest on — per-client in-flight caps, greedy tenants queueing
//! behind themselves, QoS pressure shrinking the budget — under actual
//! thread concurrency.

use blobseer::core::Cluster;
use blobseer::net::NetCluster;
use blobseer::types::{BlobConfig, ClusterConfig, PlacementPolicy, Version};

const CS: u64 = 4 << 10;

fn config(admission_limit: usize) -> ClusterConfig {
    ClusterConfig {
        data_providers: 4,
        metadata_providers: 2,
        transfer_workers: 4,
        admission_limit,
        // Cold data plane: cache hits would bypass the transfer pool and
        // with it the admission gate this test is about.
        chunk_cache_bytes: 0,
        ..ClusterConfig::default()
    }
}

fn pattern(len: usize, seed: u8) -> Vec<u8> {
    (0..len)
        .map(|i| (i as u8).wrapping_mul(13).wrapping_add(seed))
        .collect()
}

#[test]
fn greedy_tenants_queue_behind_themselves_never_past_the_cap() {
    let cluster = Cluster::new(config(2)).unwrap();
    let admission = cluster.admission().expect("admission configured").clone();
    let interactive = cluster.client();
    let blob = interactive
        .create_blob(BlobConfig::new(CS, 1).unwrap())
        .unwrap();

    // Three greedy tenants each append 32-chunk bursts while the
    // interactive tenant keeps issuing single-chunk appends.
    std::thread::scope(|scope| {
        for g in 0..3u8 {
            let greedy = cluster.client();
            scope.spawn(move || {
                for burst in 0..3u8 {
                    let data = pattern(32 * CS as usize, g.wrapping_mul(7) + burst);
                    greedy.append(blob, &data).unwrap();
                }
            });
        }
        for i in 0..8u8 {
            interactive.append(blob, pattern(CS as usize, i)).unwrap();
        }
    });

    let stats = admission.stats();
    assert!(
        stats.peak_in_flight <= 2,
        "no tenant may ever exceed its admission budget: {stats:?}"
    );
    assert!(
        stats.throttled_waits > 0,
        "a 32-chunk burst against a budget of 2 must block at submission: {stats:?}"
    );
    // A permit covers one pool task — one store group per distinct replica
    // set. Round-robin striping of a 32-chunk burst over 4 providers makes
    // 4 groups per burst; each interactive single-chunk append is 1 group.
    assert_eq!(stats.admitted, 9 * 4 + 8, "{stats:?}");

    // The flood never corrupts anything: all versions published, the full
    // history reads back.
    let latest = interactive.read_all(blob, None).unwrap();
    assert_eq!(latest.len(), (9 * 32 + 8) * CS as usize);
    // Publication order under concurrency is a race, but every version is
    // one whole append: either a greedy burst or an interactive chunk.
    let first = interactive.read_all(blob, Some(Version(1))).unwrap().len();
    assert!(
        first == 32 * CS as usize || first == CS as usize,
        "version 1 must be exactly one append, got {first} bytes"
    );
}

#[test]
fn networked_clients_share_the_same_admission_gate() {
    let cluster = NetCluster::tcp(Cluster::new(config(3)).unwrap()).unwrap();
    let client = cluster.client();
    let blob = client.create_blob(BlobConfig::new(CS, 1).unwrap()).unwrap();
    let data = pattern(24 * CS as usize, 5);
    client.append(blob, &data).unwrap();
    assert_eq!(client.read_all(blob, None).unwrap(), data);

    let stats = cluster.inner().admission().unwrap().stats();
    assert!(stats.peak_in_flight <= 3, "{stats:?}");
    // A permit covers one pool task on both paths. The append is one store
    // group per provider (24 chunks striped over 4 providers: 4 groups);
    // the uncached read is one request train per first-probed provider of
    // its single leaf level (replication 1: the same 4 providers, 6 chunks
    // each, well inside the 4 × 4 chunk window): 4 trains. Per-chunk
    // permits would have counted 24 for the read alone.
    assert_eq!(
        stats.admitted,
        4 + 4,
        "transfers crossing the wire take one permit per task: {stats:?}"
    );
}

#[test]
fn qos_pressure_shrinks_the_effective_budget_on_the_maintenance_tick() {
    let cluster = Cluster::new(ClusterConfig {
        placement: PlacementPolicy::QosAware,
        ..config(8)
    })
    .unwrap();
    let admission = cluster.admission().unwrap().clone();
    assert!(cluster.qos_controller().is_some(), "QosAware turns QoS on");
    assert_eq!(admission.effective_limit(), 8);

    // Generate provider traffic so the monitoring windows carry signal,
    // then drive the maintenance tick the daemon's lifecycle thread runs:
    // sample windows, refit the behaviour model, feed scores to placement
    // and pressure to admission.
    let client = cluster.client();
    let blob = client.create_blob(BlobConfig::new(CS, 1).unwrap()).unwrap();
    for i in 0..4u8 {
        client.append(blob, pattern(8 * CS as usize, i)).unwrap();
        cluster.run_maintenance();
    }
    // A healthy, evenly loaded fleet must not be throttled...
    assert_eq!(
        admission.effective_limit(),
        8,
        "healthy providers keep the full budget"
    );
    // ...while QoS pressure (what the feedback loop applies when providers
    // misbehave) shrinks the budget without ever reaching zero.
    admission.set_pressure(0.25);
    assert_eq!(admission.effective_limit(), 2);
    admission.set_pressure(0.0);
    assert_eq!(admission.effective_limit(), 1, "liveness floor");
    admission.set_pressure(1.0);
    assert_eq!(admission.effective_limit(), 8);
}
