//! Fig. N1 — the framed RPC transport over TCP loopback versus the
//! in-process service boundary, wall-clock on real clusters.

use blobseer_bench::fig_n1_transport_overhead;
use blobseer_bench::{emit, series_list_json, Clock};
use blobseer_sim::format_table;

fn main() {
    let clients = [1, 2, 4, 8];
    let series = fig_n1_transport_overhead(&clients, 4);
    println!(
        "Fig. N1 — in-process vs framed-RPC transports (wall clock),\n\
         4 MiB ops over 256 KiB chunks, 8 data / 4 metadata providers\n"
    );
    print!("{}", format_table("clients", &series));
    let trips: Vec<u64> = series
        .iter()
        .map(|s| s.points.iter().map(|p| p.data_round_trips).sum())
        .collect();
    println!(
        "\ndata_round_trips per arm: {trips:?} (identical by construction:\n\
         the RPC boundary changes the cost of a transfer, never the number).\n\
         Expected shape: loopback stays within a constant factor of\n\
         in-process — the zero-copy framed protocol pays per-frame overhead,\n\
         visible in bytes_on_wire, not per-byte copies."
    );
    emit("fig_n1", Clock::Wall, series_list_json(&series));
}
