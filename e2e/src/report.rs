//! What a run prints: every metric by name and unit, and the JSON forms of
//! a result.

use crate::json::Json;
use crate::metrics::{self, Metric};
use crate::workloads::Outcome;
use std::collections::BTreeMap;

fn metrics_json(
    table: &[Metric],
    values: &BTreeMap<&'static str, f64>,
) -> Vec<(&'static str, Json)> {
    table
        .iter()
        .filter_map(|metric| {
            let value = *values.get(metric.name)?;
            let entry = Json::obj([
                ("value", Json::Num(value)),
                ("unit", Json::Str(metric.unit.into())),
            ]);
            Some((metric.name, entry))
        })
        .collect()
}

/// The one-line result of a single pass, as `BENCHMARK.json`'s contract
/// wants it: the end-to-end metrics of an untraced pass, the per-layer
/// metrics of a traced one.
#[must_use]
pub fn result_line(outcome: &Outcome, traced: bool) -> Json {
    let metrics = if traced {
        metrics_json(metrics::PER_LAYER, &outcome.per_layer)
    } else {
        metrics_json(metrics::END_TO_END, &outcome.end_to_end)
    };
    Json::obj([
        ("correct", Json::Bool(outcome.correct())),
        ("attempted", Json::Num(outcome.attempted as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        ("metrics", Json::obj(metrics)),
    ])
}

/// One workload's entry in a full run's document: the end-to-end metrics of
/// its untraced pass, the per-layer metrics of its traced pass, and the
/// counts of both.
#[must_use]
pub fn workload_entry(untraced: &Outcome, traced: &Outcome) -> Json {
    let mut metrics = metrics_json(metrics::END_TO_END, &untraced.end_to_end);
    metrics.extend(metrics_json(metrics::PER_LAYER, &traced.per_layer));
    Json::obj([
        (
            "correct",
            Json::Bool(untraced.correct() && traced.correct()),
        ),
        (
            "attempted",
            Json::Num((untraced.attempted + traced.attempted) as f64),
        ),
        (
            "failed",
            Json::Num((untraced.failed + traced.failed) as f64),
        ),
        ("metrics", Json::obj(metrics)),
    ])
}

/// Every metric of `outcome` by name and unit, one per line.
#[must_use]
pub fn table(workload: &str, outcome: &Outcome) -> String {
    let mut out = format!(
        "{workload}: attempted_ops {} failed_ops {}{}\n",
        outcome.attempted,
        outcome.failed,
        if outcome.correct() {
            ""
        } else {
            "  NOT CORRECT"
        }
    );
    for problem in &outcome.problems {
        out.push_str(&format!("  problem: {problem}\n"));
    }
    for (table, values) in [
        (metrics::END_TO_END, &outcome.end_to_end),
        (metrics::PER_LAYER, &outcome.per_layer),
    ] {
        for metric in table {
            if let Some(value) = values.get(metric.name) {
                out.push_str(&format!(
                    "  {:<44} {value:>14.6} {}\n",
                    metric.name, metric.unit
                ));
            }
        }
    }
    out
}
