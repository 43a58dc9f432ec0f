//! Order statistics over latency samples and over sets of runs.

/// The value at quantile `q` (0..=1) of `sorted`, linearly interpolated.
#[must_use]
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let rank = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[must_use]
pub fn median(values: &[f64]) -> f64 {
    quantile(&sorted(values), 0.5)
}

#[must_use]
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Throughput of each full group of `group` consecutive completions, given
/// a phase's operations as `(end_s, amount)` since the phase began: the
/// group's amount over the time from the previous group's last completion
/// to its own. Groups hold equal work, so a stall that recurs every so much
/// work lands in the same share of groups however long the phase ran, and
/// the median group is a phase's typical rate — which, unlike total over
/// time, does not move with how many stalls the window happened to catch.
#[must_use]
pub fn group_rates(ops: &[(f64, f64)], group: usize) -> Vec<f64> {
    let mut ops = ops.to_vec();
    ops.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut group_start = 0.0;
    ops.chunks_exact(group)
        .map(|members| {
            let group_end = members[group - 1].0;
            let amount: f64 = members.iter().map(|m| m.1).sum();
            let rate = amount / (group_end - group_start).max(1e-9);
            group_start = group_end;
            rate
        })
        .collect()
}

/// The percentiles a tail is reported at, lowest first, each with the
/// inverse of the share of samples beyond it.
const TAIL_PERCENTILES: [(f64, usize); 6] = [
    (50.0, 2),
    (75.0, 4),
    (90.0, 10),
    (95.0, 20),
    (99.0, 100),
    (99.9, 1000),
];

/// The highest percentile of [`TAIL_PERCENTILES`] that still has at least
/// ten samples beyond it, and the value there: `(percentile, value)`. With
/// fewer than twenty samples not even the median qualifies and the result
/// is `None`.
#[must_use]
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let (pct, _) = TAIL_PERCENTILES
        .iter()
        .copied()
        .rfind(|&(_, inverse_share)| values.len() >= 10 * inverse_share)?;
    Some((pct, quantile(&sorted(values), pct / 100.0)))
}

/// First and third quartile as Python's `statistics.quantiles(values, n=4)`
/// gives them (the exclusive method). Needs two values or more.
#[must_use]
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let data = sorted(values);
    let ld = data.len();
    let at = |i: usize| {
        let j = (i * (ld + 1) / 4).clamp(1, ld - 1);
        let delta = (i * (ld + 1)) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// Distance between the quartiles as a share of the median: the run-to-run
/// spread every bound is compared with.
#[must_use]
pub fn spread(values: &[f64]) -> f64 {
    let m = median(values);
    if values.len() < 2 || m == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    (q3 - q1) / m.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond_it() {
        let samples = |n: usize| (0..n).map(|i| i as f64).collect::<Vec<_>>();
        assert_eq!(tail(&samples(19)), None);
        assert_eq!(tail(&samples(20)).unwrap().0, 50.0);
        assert_eq!(tail(&samples(99)).unwrap().0, 75.0);
        assert_eq!(tail(&samples(100)).unwrap().0, 90.0);
        assert_eq!(tail(&samples(999)).unwrap().0, 95.0);
        assert_eq!(tail(&samples(1000)).unwrap().0, 99.0);
        assert_eq!(tail(&samples(10_000)).unwrap().0, 99.9);
        // The value is the one at that percentile, whatever the input order.
        let mut v = samples(1001);
        v.reverse();
        assert_eq!(tail(&v).unwrap(), (99.0, 990.0));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert_eq!(spread(&ten), 1.0);
        assert_eq!(spread(&[5.0]), 0.0);
    }

    #[test]
    fn group_rates_hold_equal_work_and_a_stall_does_not_move_their_median() {
        // Two units complete every 0.25 s, out of order in the input; one
        // completion is 2 s late. Groups of four.
        let mut ops: Vec<(f64, f64)> = (1..=40).map(|i| (f64::from(i) * 0.25, 2.0)).collect();
        for op in &mut ops[10..] {
            op.0 += 2.0;
        }
        ops.reverse();
        let rates = group_rates(&ops, 4);
        assert_eq!(rates.len(), 10);
        assert_eq!(rates[0], 8.0, "the first group runs from the phase's start");
        assert_eq!(
            rates[2],
            8.0 / 3.0,
            "the stalled group: 8 units in 1 s + 2 s"
        );
        assert_eq!(median(&rates), 8.0);
        // 41 completions leave a partial eleventh group, which is dropped.
        ops.push((13.0, 2.0));
        assert_eq!(group_rates(&ops, 4).len(), 10);
        assert!(group_rates(&[], 4).is_empty());
    }

    #[test]
    fn median_and_quantile_interpolate() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(quantile(&[10.0, 20.0], 0.25), 12.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }
}
