//! All four workloads at smoke size (sizes ÷ 32, one set-up, a window of a
//! third of a second), untraced and traced, against a daemon hosted in this
//! process through `blobseer_server::Daemon::start` — a functional check of
//! the harness that needs no built binary. The measured runs always spawn
//! the real `blobseer-server`.

use blobseer_e2e::daemon::Launcher;
use blobseer_e2e::metrics::{END_TO_END, PER_LAYER};
use blobseer_e2e::workloads::{run, RunOptions, Workload};

#[test]
fn every_workload_reports_every_metric_and_no_operation_fails() {
    let run_root = std::env::temp_dir().join(format!("blobseer-e2e-smoke-{}", std::process::id()));
    for workload in Workload::ALL {
        for trace in [false, true] {
            let opts = RunOptions {
                launcher: Launcher::InProcess,
                run_root: run_root.clone(),
                seed: 7,
                seconds: 10.0,
                trace,
                smoke: true,
            };
            let name = workload.name();
            let outcome = run(workload, &opts).unwrap_or_else(|e| panic!("{name}: {e}"));
            // Every read is verified inside the workload; a mismatch is a
            // failed operation.
            assert_eq!(outcome.failed, 0, "{name}: {:?}", outcome.problems);
            assert!(outcome.correct(), "{name}: {:?}", outcome.problems);
            assert!(outcome.attempted > 0, "{name}");
            for metric in END_TO_END {
                let value = outcome.end_to_end.get(metric.name);
                assert!(
                    value.is_some_and(|v| v.is_finite()),
                    "{name}: {} = {value:?}",
                    metric.name
                );
            }
            // The operation types a workload's phases perform must have been
            // measured, not defaulted.
            for measured in [
                "append_mibps",
                "read_mibps",
                "append_p50_ms",
                "read_p50_ms",
                "setup_s",
            ] {
                assert!(
                    outcome.end_to_end[measured] > 0.0,
                    "{name}: {measured} is zero"
                );
            }
            if trace {
                for metric in PER_LAYER {
                    let value = outcome.per_layer.get(metric.name);
                    assert!(
                        value.is_some_and(|v| v.is_finite()),
                        "{name}: {} = {value:?}",
                        metric.name
                    );
                }
                assert_eq!(
                    outcome.per_layer.len(),
                    PER_LAYER.len(),
                    "{name}: unlisted metric"
                );
                assert!(outcome.per_layer["trace.sum_error_pct"] < 1.0, "{name}");
            } else {
                assert!(outcome.per_layer.is_empty(), "{name}");
            }
            assert_eq!(
                outcome.end_to_end.len(),
                END_TO_END.len(),
                "{name}: unlisted metric"
            );
        }
    }
    assert!(
        !run_root.join(Workload::ColdScan.name()).exists(),
        "run directories are removed"
    );
    let _ = std::fs::remove_dir_all(&run_root);
}
