//! Fig. D2 — MapReduce applications (wordcount, grep, sort) on BSFS versus
//! the HDFS-like baseline (Section IV.D).

use blobseer_bench::{emit, fig_d2_mapreduce_jobs, Clock, Json};

fn main() {
    println!("Fig. D2 — MapReduce job completion time (real in-process engine)\n");
    println!(
        "{:>12} {:>14} {:>16} {:>16}",
        "job", "input (KiB)", "BSFS (ms)", "HDFS-like (ms)"
    );
    let rows = fig_d2_mapreduce_jobs(20_000, 8);
    for row in &rows {
        println!(
            "{:>12} {:>14} {:>16.1} {:>16.1}",
            row.job,
            row.input_bytes / 1024,
            row.bsfs.as_secs_f64() * 1_000.0,
            row.hdfs.as_secs_f64() * 1_000.0
        );
    }
    println!("\nNote: both backends run in-process here, so absolute times are close; the\nscale separation between the storage layers is shown by fig_d1.");
    emit(
        "fig_d2",
        Clock::Wall,
        Json::arr(rows.iter().map(|row| {
            Json::obj([
                ("job", Json::str(row.job.clone())),
                ("input_bytes", Json::num(row.input_bytes as f64)),
                ("bsfs_ms", Json::num(row.bsfs.as_secs_f64() * 1_000.0)),
                ("hdfs_ms", Json::num(row.hdfs.as_secs_f64() * 1_000.0)),
            ])
        })),
    );
}
