//! Fig. C2 — impact of data striping: throughput versus number of data
//! providers (Section IV.C).

use blobseer_bench::fig_c2_provider_sweep;
use blobseer_bench::{emit, series_list_json, Clock};
use blobseer_sim::format_table;

fn main() {
    let providers = [1, 2, 4, 8, 16, 32, 64, 128];
    let series = fig_c2_provider_sweep(&providers, 64, 64);
    println!("Fig. C2 — aggregated throughput of 64 writers vs number of data providers\n");
    let series = [series];
    print!("{}", format_table("providers", &series));
    println!("\nExpected shape (paper): throughput grows with the number of providers until\nthe writers' own links become the bottleneck.");
    emit("fig_c2", Clock::Sim, series_list_json(&series));
}
