//! Fig. E1 — QoS: throughput stability under provider degradation, with and
//! without behaviour-model feedback (Section IV.E).

use blobseer_bench::{emit, fig_e1_qos_stability, Clock, Json};

fn main() {
    println!("Fig. E1 — windowed write throughput while 8 of 32 providers degrade 12x\n");
    let (without, with) = fig_e1_qos_stability(64, 8, 12.0);
    println!(
        "{:>28} {:>14} {:>14} {:>16}",
        "configuration", "mean (MiB/s)", "stddev", "aggregated"
    );
    println!(
        "{:>28} {:>14.1} {:>14.1} {:>16.1}",
        "without feedback", without.mean_mibps, without.std_mibps, without.aggregated_mibps
    );
    println!(
        "{:>28} {:>14.1} {:>14.1} {:>16.1}",
        "with GloBeM-style feedback", with.mean_mibps, with.std_mibps, with.aggregated_mibps
    );
    println!("\nExpected shape (paper): feedback sustains a higher and more stable throughput.");
    let stability_json = |s: &blobseer_bench::QosStability| {
        Json::obj([
            ("mean_mibps", Json::num(s.mean_mibps)),
            ("std_mibps", Json::num(s.std_mibps)),
            ("aggregated_mibps", Json::num(s.aggregated_mibps)),
        ])
    };
    emit(
        "fig_e1",
        Clock::Sim,
        Json::obj([
            ("without_feedback", stability_json(&without)),
            ("with_feedback", stability_json(&with)),
        ]),
    );
}
