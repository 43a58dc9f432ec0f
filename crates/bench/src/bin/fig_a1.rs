//! Fig. A1 — metadata overhead versus blob size (Section IV.A).
//!
//! Regenerates the metadata-overhead measurement: how many tree nodes (and
//! bytes of metadata) a single-chunk write creates as the blob grows from
//! 64 MiB to 16 GiB.

use blobseer_bench::{emit, fig_a1_metadata_overhead, Clock, Json};

fn main() {
    let sizes = [64u64, 256, 1024, 4096, 16384]; // chunks of 1 MiB => 64 MiB .. 16 GiB
    let rows = fig_a1_metadata_overhead(&sizes);
    println!("Fig. A1 — metadata overhead of one 1 MiB write vs blob size\n");
    println!(
        "{:>12} {:>16} {:>12} {:>16} {:>18}",
        "blob (MiB)", "nodes/write", "tree depth", "metadata (B)", "metadata/data"
    );
    for row in &rows {
        println!(
            "{:>12} {:>16} {:>12} {:>16} {:>18.6}",
            row.blob_chunks,
            row.nodes_per_write,
            row.tree_depth,
            row.metadata_bytes,
            row.overhead_ratio
        );
    }
    println!("\nExpected shape (paper): overhead grows logarithmically with the blob size.");
    emit(
        "fig_a1",
        Clock::Counts,
        Json::arr(rows.iter().map(|row| {
            Json::obj([
                ("blob_chunks", Json::num(row.blob_chunks as f64)),
                ("nodes_per_write", Json::num(row.nodes_per_write as f64)),
                ("tree_depth", Json::num(row.tree_depth)),
                ("metadata_bytes", Json::num(row.metadata_bytes as f64)),
                ("overhead_ratio", Json::num(row.overhead_ratio)),
            ])
        })),
    );
}
