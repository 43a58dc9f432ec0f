//! Helpers for turning simulation results into the tables and series the
//! benchmark harness prints.

use crate::cluster::SimulationResult;

/// One point of a parameter sweep: an x value (number of clients, number of
/// providers, operation size, …) and the metrics measured there.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesPoint {
    /// The swept parameter value.
    pub x: f64,
    /// Aggregated throughput in MiB/s.
    pub throughput_mibps: f64,
    /// Mean per-operation latency in milliseconds.
    pub latency_ms: f64,
    /// Metadata round-trips issued during the measured run (zero for
    /// analytically modelled series that never touch the metadata DHT).
    pub meta_round_trips: u64,
    /// Data-plane round-trips (chunks moved, replica pushes counted
    /// individually) issued during the measured run; zero for analytic
    /// series. With `meta_round_trips` this shows pipeline occupancy: the
    /// pipelined schedule moves the same chunks in less elapsed time.
    pub data_round_trips: u64,
    /// Client-side payload bytes memcpy'd (boundary-slot assembly plus one
    /// receive materialisation per chunk actually fetched over the wire);
    /// zero for analytic series. Chunk-cache hits copy nothing.
    pub bytes_copied: u64,
    /// Chunk fetches served by the client chunk cache.
    pub cache_hits: u64,
    /// Chunk fetches that missed the cache and hit the providers.
    pub cache_misses: u64,
    /// Bytes physically moved on the wire (payload as the codec shipped it,
    /// plus frame overhead, retries included); zero for analytic series and
    /// in-process measurements.
    pub bytes_on_wire: u64,
    /// Bytes logically moved on the wire (decompressed payload sizes plus
    /// the same overhead); equals `bytes_on_wire` when the chunk codec is
    /// off. Zero for analytic series.
    pub bytes_on_wire_logical: u64,
    /// Chunks the `Fast` chunk codec actually shrank at sealing time.
    pub chunks_compressed: u64,
    /// Logical-minus-physical bytes the codec saved at sealing time.
    pub compress_saved_bytes: u64,
    /// Frames put on the wire (retries included); zero for analytic series
    /// and in-process measurements, `data_round_trips` for simulated runs.
    pub frames_sent: u64,
    /// Frames that shared a batched (coalesced) write with a predecessor
    /// instead of paying their own syscall/per-request latency; a batch of
    /// n contributes n - 1. Zero for analytic series.
    pub frames_coalesced: u64,
}

/// A named series of sweep points (one curve of a figure).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SweepSeries {
    /// Name shown in the printed table (e.g. "BlobSeer (DHT metadata)").
    pub name: String,
    /// The measured points, in sweep order.
    pub points: Vec<SeriesPoint>,
}

impl SweepSeries {
    /// Creates an empty series with the given name.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        SweepSeries {
            name: name.into(),
            points: Vec::new(),
        }
    }

    /// Appends a point with no round-trip measurements (analytic series).
    pub fn push(&mut self, x: f64, throughput_mibps: f64, latency_ms: f64) {
        self.points.push(SeriesPoint {
            x,
            throughput_mibps,
            latency_ms,
            meta_round_trips: 0,
            data_round_trips: 0,
            bytes_copied: 0,
            cache_hits: 0,
            cache_misses: 0,
            bytes_on_wire: 0,
            bytes_on_wire_logical: 0,
            chunks_compressed: 0,
            compress_saved_bytes: 0,
            frames_sent: 0,
            frames_coalesced: 0,
        });
    }

    /// Appends a fully populated point (measurements that do not come from
    /// a [`SimulationResult`], e.g. wall-clock runs of real clusters).
    pub fn push_point(&mut self, point: SeriesPoint) {
        self.points.push(point);
    }

    /// Appends every metric of one simulation run as a point at `x`.
    pub fn push_sim(&mut self, x: f64, result: &SimulationResult) {
        self.points.push(SeriesPoint {
            x,
            throughput_mibps: result.aggregated_mibps(),
            latency_ms: result.mean_latency_ms(),
            meta_round_trips: result.meta_round_trips,
            data_round_trips: result.data_round_trips,
            bytes_copied: result.bytes_copied,
            cache_hits: result.cache_hits,
            cache_misses: result.cache_misses,
            bytes_on_wire: result.bytes_on_wire,
            bytes_on_wire_logical: result.bytes_on_wire_logical,
            chunks_compressed: result.chunks_compressed,
            compress_saved_bytes: result.compress_saved_bytes,
            // The simulated network loses nothing: one frame per transfer.
            frames_sent: result.data_round_trips,
            frames_coalesced: result.frames_coalesced,
        });
    }

    /// The throughput of the point with the largest x (usually the largest
    /// concurrency level), if any.
    #[must_use]
    pub fn final_throughput(&self) -> Option<f64> {
        self.points.last().map(|p| p.throughput_mibps)
    }
}

/// Formats one or more series as an aligned text table with `x_label` as the
/// first column and one throughput column per series. This is the format the
/// figure binaries print so that the numbers can be compared side by side
/// with the paper's plots.
#[must_use]
pub fn format_table(x_label: &str, series: &[SweepSeries]) -> String {
    let mut out = String::new();
    out.push_str(&format!("{x_label:>14}"));
    for s in series {
        out.push_str(&format!("  {:>28}", format!("{} (MiB/s)", s.name)));
    }
    out.push('\n');
    let rows = series.iter().map(|s| s.points.len()).max().unwrap_or(0);
    for row in 0..rows {
        let x = series
            .iter()
            .find_map(|s| s.points.get(row).map(|p| p.x))
            .unwrap_or(0.0);
        out.push_str(&format!("{x:>14.0}"));
        for s in series {
            match s.points.get(row) {
                Some(p) => out.push_str(&format!("  {:>28.1}", p.throughput_mibps)),
                None => out.push_str(&format!("  {:>28}", "-")),
            }
        }
        out.push('\n');
    }
    out
}

/// Mean of a slice of samples.
#[must_use]
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// Population standard deviation of a slice of samples.
#[must_use]
pub fn std_dev(samples: &[f64]) -> f64 {
    if samples.len() < 2 {
        return 0.0;
    }
    let m = mean(samples);
    (samples.iter().map(|s| (s - m).powi(2)).sum::<f64>() / samples.len() as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_accumulate_points() {
        let mut s = SweepSeries::new("BlobSeer");
        s.push(1.0, 100.0, 5.0);
        s.push(2.0, 190.0, 6.0);
        assert_eq!(s.points.len(), 2);
        assert_eq!(s.final_throughput(), Some(190.0));
        assert_eq!(SweepSeries::new("x").final_throughput(), None);
    }

    #[test]
    fn table_contains_all_series_and_rows() {
        let mut a = SweepSeries::new("centralized");
        a.push(1.0, 100.0, 1.0);
        a.push(2.0, 110.0, 1.0);
        let mut b = SweepSeries::new("DHT");
        b.push(1.0, 100.0, 1.0);
        b.push(2.0, 200.0, 1.0);
        let table = format_table("clients", &[a, b]);
        assert!(table.contains("clients"));
        assert!(table.contains("centralized"));
        assert!(table.contains("DHT"));
        assert!(table.contains("200.0"));
        assert_eq!(table.lines().count(), 3);
    }

    #[test]
    fn table_handles_ragged_series() {
        let mut a = SweepSeries::new("a");
        a.push(1.0, 10.0, 1.0);
        let b = SweepSeries::new("b");
        let table = format_table("x", &[a, b]);
        assert!(table.contains('-'));
    }

    #[test]
    fn statistics_helpers() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
        assert_eq!(std_dev(&[5.0]), 0.0);
        let sd = std_dev(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((sd - 2.0).abs() < 1e-9);
    }
}
