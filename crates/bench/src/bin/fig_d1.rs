//! Fig. D1 — BSFS versus the HDFS-like baseline: concurrent appends to the
//! same file (Section IV.D).

use blobseer_bench::fig_d1_bsfs_vs_hdfs;
use blobseer_bench::{emit, series_list_json, Clock};
use blobseer_sim::format_table;

fn main() {
    let clients = [1, 2, 4, 8, 16, 32, 64, 128];
    let series = fig_d1_bsfs_vs_hdfs(&clients, 64);
    println!("Fig. D1 — N clients appending 64 MiB records to the same file\n");
    print!("{}", format_table("appenders", &series));
    println!("\nExpected shape (paper): BSFS sustains concurrent appenders to the same huge\nfile; the HDFS-like baseline serialises them behind its single-writer lease.");
    emit("fig_d1", Clock::Sim, series_list_json(&series));
}
