//! Fig. N2 — connection scaling of the event-driven server: ≥200 concurrent
//! loopback clients against the reactor + bounded worker pool, versus the
//! in-process boundary (upper bound).
//!
//! Beyond the figure, this binary *asserts* the properties the reactor was
//! built for, so running it doubles as a scaling regression test:
//!
//! * serving threads stay O(workers), not O(clients);
//! * the event-driven wire costs at most ~2× the in-process boundary on
//!   this request-dominated workload.

use blobseer_bench::fig_n2_connection_scaling;
use blobseer_bench::{emit, series_list_json, Clock};
use blobseer_sim::format_table;

fn main() {
    let clients = 200;
    let outcome = fig_n2_connection_scaling(clients, 1, 2048);
    println!(
        "Fig. N2 — event-driven serving with {clients} concurrent clients,\n\
         1 × 2 MiB append + four scans per client over 32 KiB chunks,\n\
         2 data / 2 metadata providers, worker pool of {}\n",
        outcome.worker_bound
    );
    print!("{}", format_table("clients", &outcome.series));
    println!(
        "\npeak serving threads (net-reactor + net-worker-*): {} of bound {} + 1\n\
         frames coalesced (client side, reactor run): {}",
        outcome.peak_serving_threads, outcome.worker_bound, outcome.frames_coalesced,
    );

    // The scaling contract, asserted.
    assert!(
        outcome.peak_serving_threads <= outcome.worker_bound + 1,
        "serving threads must stay O(workers): saw {} with {clients} clients (bound {} + reactor)",
        outcome.peak_serving_threads,
        outcome.worker_bound
    );
    assert!(
        outcome.reactor_mibps >= 0.5 * outcome.in_process_mibps,
        "event-driven TCP ({:.1} MiB/s) must stay within 2x of in-process ({:.1} MiB/s)",
        outcome.reactor_mibps,
        outcome.in_process_mibps
    );
    println!("\nscaling assertions passed.");
    emit("fig_n2", Clock::Wall, series_list_json(&outcome.series));
}
