//! Fig. A2 — concurrent read/write throughput versus number of clients
//! (Section IV.A).

use blobseer_bench::fig_a2_concurrent_rw;
use blobseer_bench::{emit, series_list_json, Clock};
use blobseer_sim::format_table;

fn main() {
    let clients = [1, 2, 4, 8, 16, 32, 64, 128, 256];
    let series = fig_a2_concurrent_rw(&clients, 64);
    println!("Fig. A2 — aggregated throughput, disjoint 64 MiB accesses to one blob");
    println!("(64 data providers, 16 metadata providers, 1 Gbps links)\n");
    print!("{}", format_table("clients", &series));
    println!("\nExpected shape (paper): near-linear scaling until the providers saturate.");
    emit("fig_a2", Clock::Sim, series_list_json(&series));
}
