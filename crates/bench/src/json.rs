//! Hand-rolled JSON emission for the benchmark harness.
//!
//! Every `fig_*`/`tab_*` binary writes its measured numbers as a
//! `BENCH_<figure>.json` file next to the human-readable table it prints, so
//! that successive runs can be collected into a benchmark trajectory. The
//! JSON is produced by a ~100-line value type instead of serde because the
//! offline build environment has no serde_json (see `vendor/serde`).
//!
//! Environment knobs:
//!
//! * `BLOBSEER_BENCH_DIR` — directory the `BENCH_*.json` files are written
//!   to (default: the current directory);
//! * `BLOBSEER_BENCH_JSON=0` — disables file emission entirely.

use blobseer_sim::SweepSeries;
use std::fmt;
use std::path::PathBuf;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number (non-finite values serialise as `null`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// A number value (anything convertible to `f64`).
    pub fn num(value: impl Into<f64>) -> Json {
        Json::Num(value.into())
    }

    /// A string value.
    pub fn str(value: impl Into<String>) -> Json {
        Json::Str(value.into())
    }

    /// An object from `(key, value)` pairs.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// An array from values.
    pub fn arr(values: impl IntoIterator<Item = Json>) -> Json {
        Json::Arr(values.into_iter().collect())
    }
}

fn escape(s: &str, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(n) if n.is_finite() => {
                if n.fract() == 0.0 && n.abs() < 1e15 {
                    write!(f, "{}", *n as i64)
                } else {
                    write!(f, "{n}")
                }
            }
            Json::Num(_) => f.write_str("null"),
            Json::Str(s) => escape(s, f),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Json::Obj(pairs) => {
                f.write_str("{")?;
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    escape(key, f)?;
                    f.write_str(":")?;
                    write!(f, "{value}")?;
                }
                f.write_str("}")
            }
        }
    }
}

/// One sweep series as JSON: `{"name": ..., "points": [{x, mibps, ms}, ...]}`.
#[must_use]
pub fn series_json(series: &SweepSeries) -> Json {
    Json::obj([
        ("name", Json::str(series.name.clone())),
        (
            "points",
            Json::arr(series.points.iter().map(|p| {
                Json::obj([
                    ("x", Json::num(p.x)),
                    ("throughput_mibps", Json::num(p.throughput_mibps)),
                    ("latency_ms", Json::num(p.latency_ms)),
                    ("meta_round_trips", Json::num(p.meta_round_trips as f64)),
                    ("data_round_trips", Json::num(p.data_round_trips as f64)),
                    ("bytes_copied", Json::num(p.bytes_copied as f64)),
                    ("cache_hits", Json::num(p.cache_hits as f64)),
                    ("cache_misses", Json::num(p.cache_misses as f64)),
                    ("bytes_on_wire", Json::num(p.bytes_on_wire as f64)),
                    (
                        "bytes_on_wire_logical",
                        Json::num(p.bytes_on_wire_logical as f64),
                    ),
                    ("chunks_compressed", Json::num(p.chunks_compressed as f64)),
                    (
                        "compress_saved_bytes",
                        Json::num(p.compress_saved_bytes as f64),
                    ),
                    ("frames_sent", Json::num(p.frames_sent as f64)),
                    ("frames_coalesced", Json::num(p.frames_coalesced as f64)),
                ])
            })),
        ),
    ])
}

/// A list of sweep series as a JSON array.
#[must_use]
pub fn series_list_json(series: &[SweepSeries]) -> Json {
    Json::arr(series.iter().map(series_json))
}

/// Which clock a figure's numbers are on (README "Which clock each number
/// is on"); numbers on different clocks never compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Measured elapsed time of the real code on the host (`"wall"`).
    Wall,
    /// Virtual time of the `blobseer-sim` hardware model (`"sim"`).
    Sim,
    /// Exact, machine-independent counts; no time at all (`"none"`).
    Counts,
}

impl Clock {
    fn tag(self) -> &'static str {
        match self {
            Clock::Wall => "wall",
            Clock::Sim => "sim",
            Clock::Counts => "none",
        }
    }
}

/// Writes `{"figure": <figure>, "clock": <clock>, "data": <data>}` to
/// `BENCH_<figure>.json` (in `BLOBSEER_BENCH_DIR` or the current directory)
/// and reports the path on stdout. Set `BLOBSEER_BENCH_JSON=0` to skip.
pub fn emit(figure: &str, clock: Clock, data: Json) {
    if std::env::var("BLOBSEER_BENCH_JSON").as_deref() == Ok("0") {
        return;
    }
    let record = Json::obj([
        ("figure", Json::str(figure)),
        ("clock", Json::str(clock.tag())),
        ("data", data),
    ]);
    let dir = std::env::var("BLOBSEER_BENCH_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from("."));
    let path = dir.join(format!("BENCH_{figure}.json"));
    match std::fs::write(&path, format!("{record}\n")) {
        Ok(()) => println!("\n[bench-json] wrote {}", path.display()),
        Err(err) => eprintln!("\n[bench-json] cannot write {}: {err}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_serialize_to_valid_json() {
        let v = Json::obj([
            ("name", Json::str("a \"quoted\" name\n")),
            ("count", Json::num(3.0)),
            ("ratio", Json::num(0.5)),
            ("bad", Json::Num(f64::NAN)),
            ("flag", Json::Bool(true)),
            ("none", Json::Null),
            ("list", Json::arr([Json::num(1.0), Json::str("x")])),
        ]);
        assert_eq!(
            v.to_string(),
            "{\"name\":\"a \\\"quoted\\\" name\\n\",\"count\":3,\"ratio\":0.5,\
             \"bad\":null,\"flag\":true,\"none\":null,\"list\":[1,\"x\"]}"
        );
    }

    #[test]
    fn series_round_trip_shape() {
        let mut s = SweepSeries::new("curve");
        s.push(1.0, 100.0, 2.5);
        s.points[0].meta_round_trips = 42;
        let json = series_json(&s).to_string();
        assert!(json.contains("\"name\":\"curve\""));
        assert!(json.contains("\"throughput_mibps\":100"));
        assert!(json.contains("\"latency_ms\":2.5"));
        assert!(json.contains("\"meta_round_trips\":42"));
    }

    #[test]
    fn emit_writes_a_bench_file() {
        let dir = std::env::temp_dir().join(format!("blobseer-json-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::env::set_var("BLOBSEER_BENCH_DIR", &dir);
        emit("test_figure", Clock::Sim, Json::num(1.0));
        std::env::remove_var("BLOBSEER_BENCH_DIR");
        let written = std::fs::read_to_string(dir.join("BENCH_test_figure.json")).unwrap();
        assert_eq!(
            written.trim(),
            "{\"figure\":\"test_figure\",\"clock\":\"sim\",\"data\":1}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
