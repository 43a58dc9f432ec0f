//! `e2e --compare <a> <b>`: the before/after tool. Each file holds one set
//! of runs of one commit (one JSON object per line, as `--out` appends
//! them); the report has one row per workload and end-to-end metric with
//! both medians, the change, the metric's bound and a verdict.

use crate::json::Json;
use crate::metrics::{Metric, END_TO_END};
use crate::stats::{median, spread};
use std::fmt::Write as _;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// `b` is no worse than `a` by more than the bound.
    Within,
    /// `b` is worse than `a` by more than the bound.
    Regressed,
    /// One set's own run-to-run spread exceeds the bound, so the sets
    /// cannot tell a change of that size from noise. Not "unchanged".
    Unresolved,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: &'static Metric,
    pub median_a: f64,
    pub median_b: f64,
    /// Share of `a`'s median by which `b` is worse (negative: better).
    pub worse_by: f64,
    /// The larger of the two sets' spreads (quartile distance over median).
    pub spread: f64,
    pub verdict: Verdict,
}

#[derive(Debug, Clone, Default, PartialEq)]
pub struct Report {
    pub rows: Vec<Row>,
    /// Workloads whose share of failed operations is higher in `b`, with
    /// both shares.
    pub failed_share_rose: Vec<(String, f64, f64)>,
}

impl Report {
    /// A regression or a higher failed share: the comparison fails.
    #[must_use]
    pub fn failed(&self) -> bool {
        !self.failed_share_rose.is_empty()
            || self.rows.iter().any(|r| r.verdict == Verdict::Regressed)
    }

    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<18} {:<27} {:>12} {:>12} {:>9} {:>7} {:>7}  verdict",
            "workload", "metric", "median a", "median b", "change", "bound", "spread"
        );
        for row in &self.rows {
            let change = if row.metric.higher_is_better {
                -row.worse_by
            } else {
                row.worse_by
            };
            let _ = writeln!(
                out,
                "{:<18} {:<27} {:>12.5} {:>12.5} {:>+8.1}% {:>6.0}% {:>6.1}%  {}",
                row.workload,
                format!("{} [{}]", row.metric.name, row.metric.unit),
                row.median_a,
                row.median_b,
                100.0 * change,
                100.0 * row.metric.bound.unwrap_or(0.0),
                100.0 * row.spread,
                match row.verdict {
                    Verdict::Within => "ok",
                    Verdict::Regressed => "REGRESSED",
                    Verdict::Unresolved => "unresolved (spread exceeds bound)",
                }
            );
        }
        for (workload, a, b) in &self.failed_share_rose {
            let _ = writeln!(
                out,
                "{workload}: failed share rose from {:.4}% to {:.4}%  FAILED",
                100.0 * a,
                100.0 * b
            );
        }
        out
    }
}

fn workload_names(runs: &[Json]) -> Vec<String> {
    let mut names: Vec<String> = Vec::new();
    for run in runs {
        for (name, _) in run.get("workloads").map_or(&[][..], Json::members) {
            if !names.contains(name) {
                names.push(name.clone());
            }
        }
    }
    names
}

fn values(runs: &[Json], workload: &str, metric: &str) -> Vec<f64> {
    runs.iter()
        .filter_map(|run| {
            run.get("workloads")?
                .get(workload)?
                .get("metrics")?
                .get(metric)?
                .get("value")?
                .as_f64()
        })
        .collect()
}

fn failed_share(runs: &[Json], workload: &str) -> f64 {
    let total = |key: &str| -> f64 {
        runs.iter()
            .filter_map(|run| run.get("workloads")?.get(workload)?.get(key)?.as_f64())
            .sum()
    };
    let attempted = total("attempted");
    if attempted > 0.0 {
        total("failed") / attempted
    } else {
        0.0
    }
}

/// Compares run set `b` (the change) against run set `a` (the baseline).
#[must_use]
pub fn compare(a: &[Json], b: &[Json]) -> Report {
    let mut report = Report::default();
    for workload in workload_names(a) {
        for metric in END_TO_END {
            let (va, vb) = (
                values(a, &workload, metric.name),
                values(b, &workload, metric.name),
            );
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (median_a, median_b) = (median(&va), median(&vb));
            let change = if median_a == 0.0 {
                0.0
            } else {
                (median_b - median_a) / median_a.abs()
            };
            let worse_by = if metric.higher_is_better {
                -change
            } else {
                change
            };
            let spread = spread(&va).max(spread(&vb));
            let bound = metric.bound.unwrap_or(f64::INFINITY);
            let verdict = if spread > bound {
                Verdict::Unresolved
            } else if worse_by > bound {
                Verdict::Regressed
            } else {
                Verdict::Within
            };
            report.rows.push(Row {
                workload: workload.clone(),
                metric,
                median_a,
                median_b,
                worse_by,
                spread,
                verdict,
            });
        }
        let (share_a, share_b) = (failed_share(a, &workload), failed_share(b, &workload));
        if share_b > share_a {
            report.failed_share_rose.push((workload, share_a, share_b));
        }
    }
    report
}

/// Reads a run set: one JSON object per non-empty line.
pub fn read_runs(path: &str) -> Result<Vec<Json>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let runs: Vec<Json> = text
        .lines()
        .filter(|line| !line.trim().is_empty())
        .map(|line| Json::parse(line).map_err(|e| format!("{path}: {e}")))
        .collect::<Result<_, _>>()?;
    if runs.is_empty() {
        return Err(format!("{path}: no runs"));
    }
    Ok(runs)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A run with one workload whose `append_mibps` and `read_p50_ms` are
    /// given and everything else constant.
    fn run(append_mibps: f64, read_p50_ms: f64, failed: u32) -> Json {
        let metric = |v: f64| Json::obj([("value", Json::Num(v))]);
        Json::obj([(
            "workloads",
            Json::obj([(
                "bulk_append",
                Json::obj([
                    ("attempted", Json::Num(1000.0)),
                    ("failed", Json::Num(f64::from(failed))),
                    (
                        "metrics",
                        Json::obj([
                            ("append_mibps", metric(append_mibps)),
                            ("read_p50_ms", metric(read_p50_ms)),
                        ]),
                    ),
                ]),
            )]),
        )])
    }

    fn set(append: [f64; 3], read: [f64; 3]) -> Vec<Json> {
        (0..3).map(|i| run(append[i], read[i], 0)).collect()
    }

    #[test]
    fn an_identical_pair_passes() {
        let a = set([100.0, 101.0, 99.0], [2.0, 2.02, 1.98]);
        let report = compare(&a, &a);
        assert_eq!(report.rows.len(), 2);
        assert!(report
            .rows
            .iter()
            .all(|r| r.verdict == Verdict::Within && r.worse_by == 0.0));
        assert!(!report.failed());
    }

    #[test]
    fn a_synthetic_regression_is_flagged_in_the_direction_that_is_worse() {
        let a = set([100.0, 101.0, 99.0], [2.0, 2.02, 1.98]);
        // Throughput down a third (worse), latency down a third (better).
        let b = set([66.0, 67.0, 65.0], [1.34, 1.35, 1.33]);
        let report = compare(&a, &b);
        let by_name = |name: &str| report.rows.iter().find(|r| r.metric.name == name).unwrap();
        assert_eq!(by_name("append_mibps").verdict, Verdict::Regressed);
        assert!((by_name("append_mibps").worse_by - 0.34).abs() < 1e-9);
        assert_eq!(by_name("read_p50_ms").verdict, Verdict::Within);
        assert!(by_name("read_p50_ms").worse_by < 0.0);
        assert!(report.failed());
        assert!(report.render().contains("REGRESSED"));
        // The other way round, latency is the regression.
        let back = compare(&b, &a);
        assert_eq!(
            back.rows
                .iter()
                .filter(|r| r.verdict == Verdict::Regressed)
                .count(),
            1
        );
    }

    #[test]
    fn a_set_noisier_than_the_bound_is_unresolved_not_unchanged() {
        let a = set([100.0, 140.0, 60.0], [2.0, 2.0, 2.0]);
        let b = set([100.0, 101.0, 99.0], [2.0, 2.0, 2.0]);
        let report = compare(&a, &b);
        assert_eq!(report.rows[0].verdict, Verdict::Unresolved);
        assert_eq!(report.rows[1].verdict, Verdict::Within);
        assert!(!report.failed());
        assert!(report.render().contains("unresolved"));
    }

    #[test]
    fn a_higher_failed_share_fails_the_comparison() {
        let a = vec![run(100.0, 2.0, 0)];
        let b = vec![run(100.0, 2.0, 3)];
        let report = compare(&a, &b);
        assert_eq!(
            report.failed_share_rose,
            [("bulk_append".to_string(), 0.0, 0.003)]
        );
        assert!(report.failed());
        assert!(!compare(&b, &a).failed());
    }
}
