//! Fig. B1 — append throughput versus number of concurrent appenders
//! (Section IV.B).

use blobseer_bench::fig_b1_append_scaling;
use blobseer_bench::{emit, series_list_json, Clock};
use blobseer_sim::format_table;

fn main() {
    let clients = [1, 2, 4, 8, 16, 32, 64, 128, 256];
    let series = fig_b1_append_scaling(&clients, 64);
    println!("Fig. B1 — aggregated throughput of concurrent 64 MiB appends to one blob\n");
    let series = [series];
    print!("{}", format_table("appenders", &series));
    println!("\nExpected shape (paper): appends scale like writes because the version\nmanager only assigns offsets; data and metadata I/O stay fully parallel.");
    emit("fig_b1", Clock::Sim, series_list_json(&series));
}
