//! Fig. B2 — append/write throughput versus per-operation size (Section IV.B).

use blobseer_bench::fig_b2_size_sweep;
use blobseer_bench::{emit, series_list_json, Clock};
use blobseer_sim::format_table;

fn main() {
    let sizes = [8, 16, 32, 64, 128, 256, 512];
    let series = fig_b2_size_sweep(64, &sizes);
    println!("Fig. B2 — aggregated throughput of 64 concurrent appenders vs operation size\n");
    let series = [series];
    print!("{}", format_table("op size (MiB)", &series));
    println!("\nExpected shape (paper): throughput improves with larger operations as\nper-operation overheads amortise, then plateaus at the network limit.");
    emit("fig_b2", Clock::Sim, series_list_json(&series));
}
