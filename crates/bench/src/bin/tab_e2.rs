//! Tab. E2 — replication overhead and read availability under failures
//! (Sections IV.E and V).

use blobseer_bench::{emit, tab_e2_replication, Clock, Json};

fn main() {
    println!("Tab. E2 — replication factor vs write throughput and read availability\n");
    println!(
        "{:>12} {:>20} {:>26}",
        "replication", "write (MiB/s)", "reads ok w/ 25% failed"
    );
    let rows = tab_e2_replication(&[1, 2, 3], 32);
    for row in &rows {
        println!(
            "{:>12} {:>20.1} {:>25.1}%",
            row.replication,
            row.write_mibps,
            row.read_availability * 100.0
        );
    }
    println!("\nExpected shape: each extra replica costs write bandwidth but masks failures.");
    emit(
        "tab_e2",
        Clock::Sim,
        Json::arr(rows.iter().map(|row| {
            Json::obj([
                ("replication", Json::num(row.replication as f64)),
                ("write_mibps", Json::num(row.write_mibps)),
                ("read_availability", Json::num(row.read_availability)),
            ])
        })),
    );
}
