//! Ablations called out in DESIGN.md: chunk size, placement policy and
//! client-side metadata caching.

use blobseer_bench::{
    ablation_chunk_size, ablation_meta_cache, ablation_placement, emit, series_json, Clock, Json,
};
use blobseer_sim::format_table;

fn main() {
    println!("Ablation 1 — chunk size (32 writers, 64 providers, 32 MiB appends)\n");
    let series = ablation_chunk_size(&[64, 256, 1024, 4096, 16384], 32);
    print!(
        "{}",
        format_table("chunk (KiB)", std::slice::from_ref(&series))
    );

    println!("\nAblation 2 — placement policy (32 writers, 32 MiB appends)\n");
    let placement = ablation_placement(32, 32);
    for (policy, mibps) in &placement {
        println!("{policy:>14}: {mibps:>10.1} MiB/s");
    }

    println!("\nAblation 3 — client-side metadata caching (reads, 256 KiB chunks)\n");
    let caching = ablation_meta_cache(32, 32);
    for (name, mibps) in &caching {
        println!("{name:>22}: {mibps:>10.1} MiB/s");
    }

    let named = |rows: &[(String, f64)]| {
        Json::arr(rows.iter().map(|(name, mibps)| {
            Json::obj([
                ("name", Json::str(name.clone())),
                ("throughput_mibps", Json::num(*mibps)),
            ])
        }))
    };
    emit(
        "ablations",
        Clock::Sim,
        Json::obj([
            ("chunk_size", series_json(&series)),
            ("placement", named(&placement)),
            ("meta_cache", named(&caching)),
        ]),
    );
}
