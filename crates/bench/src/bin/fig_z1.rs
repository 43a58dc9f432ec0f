//! Fig. Z1 — the chunk compression tier end to end: a compressible and an
//! incompressible corpus, each with the chunk codec off and fast, measured
//! wall-clock over real loopback TCP with the chunk cache disabled.
//!
//! Beyond the figure, this binary *asserts* the tier's contract, so running
//! it doubles as a regression test:
//!
//! * every arm reads back byte-identical data (checked inside the runner);
//! * the compressible/fast arm moves well under 0.7× the logical bytes
//!   physically — compress once at the writer, store and ship compressed;
//! * the incompressible/fast arm ships verbatim: wire identical to the off
//!   arm, zero chunks compressed, zero client-side payload copies.

use blobseer_bench::{emit, fig_z1_compression, Clock, Json};

fn main() {
    let (clients, ops, op_mib) = (4, 2, 2);
    let arms = fig_z1_compression(clients, ops, op_mib);
    println!(
        "Fig. Z1 — chunk compression tier over loopback TCP,\n\
         {clients} clients x {ops} x {op_mib} MiB chunk-aligned appends + verified read-back,\n\
         256 KiB chunks, 4 data / 2 metadata providers, chunk cache off\n"
    );
    println!(
        "{:>22}  {:>12}  {:>16}  {:>16}  {:>8}  {:>14}",
        "arm", "MiB/s", "wire logical B", "wire physical B", "chunks", "saved B"
    );
    for a in &arms {
        println!(
            "{:>22}  {:>12.1}  {:>16}  {:>16}  {:>8}  {:>14}",
            a.name,
            a.throughput_mibps(),
            a.bytes_on_wire_logical,
            a.bytes_on_wire_physical,
            a.chunks_compressed,
            a.compress_saved_bytes
        );
    }

    let arm = |name: &str| arms.iter().find(|a| a.name == name).expect("arm exists");
    let comp_fast = arm("compressible / fast");
    let rand_fast = arm("incompressible / fast");
    assert!(
        (comp_fast.bytes_on_wire_physical as f64) < 0.7 * comp_fast.bytes_on_wire_logical as f64,
        "compressible/fast must move < 0.7x the logical bytes physically ({} vs {})",
        comp_fast.bytes_on_wire_physical,
        comp_fast.bytes_on_wire_logical
    );
    assert!(comp_fast.chunks_compressed > 0);
    for name in ["compressible / off", "incompressible / off"] {
        let a = arm(name);
        assert_eq!(
            a.bytes_on_wire_physical, a.bytes_on_wire_logical,
            "{name}: codec off must leave the wire alone"
        );
        assert_eq!(
            a.payload_bytes_copied, 0,
            "{name}: aligned writes must stay zero-copy"
        );
    }
    assert_eq!(
        rand_fast.bytes_on_wire_physical, rand_fast.bytes_on_wire_logical,
        "the incompressible passthrough must ship verbatim"
    );
    assert_eq!(rand_fast.chunks_compressed, 0);
    assert_eq!(
        rand_fast.payload_bytes_copied, 0,
        "the passthrough must keep the zero-copy write path"
    );
    println!("\ncompression-tier assertions passed.");

    emit(
        "fig_z1",
        Clock::Wall,
        Json::arr(arms.iter().map(|a| {
            Json::obj([
                ("name", Json::str(a.name.clone())),
                ("throughput_mibps", Json::num(a.throughput_mibps())),
                ("payload_bytes", Json::num(a.payload_bytes as f64)),
                (
                    "bytes_on_wire_logical",
                    Json::num(a.bytes_on_wire_logical as f64),
                ),
                (
                    "bytes_on_wire_physical",
                    Json::num(a.bytes_on_wire_physical as f64),
                ),
                ("chunks_compressed", Json::num(a.chunks_compressed as f64)),
                (
                    "compress_saved_bytes",
                    Json::num(a.compress_saved_bytes as f64),
                ),
                (
                    "payload_bytes_copied",
                    Json::num(a.payload_bytes_copied as f64),
                ),
            ])
        })),
    );
}
