//! Fig. C1 — centralized versus decentralized (DHT) metadata under heavy
//! write concurrency (Section IV.C), plus the cache panel: cold versus
//! cached re-scans of one shared published input (the MapReduce-input
//! pattern the client chunk cache targets).

use blobseer_bench::{emit, series_list_json, Clock};
use blobseer_bench::{fig_c1_chunk_cache, fig_c1_metadata_decentralization};
use blobseer_sim::format_table;

fn main() {
    let clients = [1, 4, 16, 32, 64, 128, 256];
    let mut series = fig_c1_metadata_decentralization(&clients, 32, 16, 256);
    println!("Fig. C1 — aggregated write throughput, 16 MiB appends with 256 KiB chunks\n");
    print!("{}", format_table("writers", &series));
    println!("\nExpected shape (paper): with a centralized metadata server the throughput\nsaturates early; the DHT keeps scaling with the number of writers.");

    let cache_clients = [1, 4, 16, 64];
    let cache_series = fig_c1_chunk_cache(&cache_clients, 16, 64);
    println!("\nFig. C1 (cache panel) — clients re-scanning one shared 16 MiB published input\n");
    print!("{}", format_table("readers", &cache_series));
    println!(
        "\nExpected shape: immutable snapshots make every re-scan infinitely\n\
         cacheable — the cached series pays one cold scan per client and then\n\
         zero data round-trips and zero receive copies (see data_round_trips,\n\
         bytes_copied, cache_hits in the emitted JSON)."
    );

    series.extend(cache_series);
    emit("fig_c1", Clock::Sim, series_list_json(&series));
}
