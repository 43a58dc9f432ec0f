//! `e2e`: the wall-clock benchmark of the real `blobseer-server` over TCP.
//! See `README.md` beside this crate.

use blobseer_e2e::compare::{compare, read_runs};
use blobseer_e2e::daemon::Launcher;
use blobseer_e2e::json::Json;
use blobseer_e2e::report::{result_line, table, workload_entry};
use blobseer_e2e::workloads::{run, RunOptions, Workload};
use std::io::Write;
use std::process::ExitCode;

const USAGE: &str = "\
usage:
  e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>
      one pass of one workload; the last line printed is the result as JSON
      (end-to-end metrics untraced, per-layer metrics traced)
  e2e --seed <n> [--seconds <s>] [--smoke] [--out <file>]
      all four workloads, an untraced then a traced pass of each; the run's
      JSON document is printed last and appended to <file> as one line
  e2e --compare <a> <b>
      compares two files of runs; exits 1 on a regression or a higher
      failed share
options:
  --run-dir <dir>   where daemons keep their files (default .bench_run)
workloads: bulk_append cold_scan read_under_append small_ops
the daemon is $BLOBSEER_SERVER_BIN, else `blobseer-server` beside this binary";

struct Args(Vec<String>);

impl Args {
    fn flag(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }

    fn values(&self, name: &str, count: usize) -> Result<Option<&[String]>, String> {
        let Some(at) = self.0.iter().position(|a| a == name) else {
            return Ok(None);
        };
        self.0
            .get(at + 1..at + 1 + count)
            .filter(|values| values.iter().all(|v| !v.starts_with("--")))
            .map(Some)
            .ok_or_else(|| format!("{name} takes {count} value(s)"))
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        match self.values(name, 1)? {
            None => Ok(None),
            Some(values) => values[0]
                .parse()
                .map(Some)
                .map_err(|_| format!("{name}: cannot parse {:?}", values[0])),
        }
    }
}

fn main_inner(args: &Args) -> Result<ExitCode, String> {
    if let Some(files) = args.values("--compare", 2)? {
        let report = compare(&read_runs(&files[0])?, &read_runs(&files[1])?);
        print!("{}", report.render());
        return Ok(if report.failed() {
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        });
    }

    let seconds: f64 = args.parsed("--seconds")?.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let mut opts = RunOptions {
        launcher: Launcher::find_binary()?,
        run_root: args
            .values("--run-dir", 1)?
            .map_or(".bench_run", |v| v[0].as_str())
            .into(),
        seed: args.parsed("--seed")?.ok_or("--seed <n> is required")?,
        seconds,
        trace: false,
        smoke: args.flag("--smoke"),
    };

    if let Some(name) = args.values("--workload", 1)? {
        let workload = Workload::from_name(&name[0])
            .ok_or_else(|| format!("unknown workload {:?}", name[0]))?;
        opts.trace = match args.values("--trace", 1)?.map(|v| v[0].as_str()) {
            None | Some("0") => false,
            Some("1") => true,
            Some(other) => return Err(format!("--trace takes 0 or 1, not {other:?}")),
        };
        let outcome = run(workload, &opts)?;
        print!("{}", table(workload.name(), &outcome));
        println!("{}", result_line(&outcome, opts.trace).render());
        return Ok(ExitCode::SUCCESS);
    }

    let mut entries = Vec::new();
    for workload in Workload::ALL {
        opts.trace = false;
        let untraced = run(workload, &opts)?;
        print!("{}", table(workload.name(), &untraced));
        opts.trace = true;
        let traced = run(workload, &opts)?;
        print!(
            "{}",
            table(&format!("{} (traced pass)", workload.name()), &traced)
        );
        entries.push((workload.name(), workload_entry(&untraced, &traced)));
    }
    let document = Json::obj([
        ("clock", Json::Str("wall".into())),
        ("seed", Json::Num(opts.seed as f64)),
        ("seconds", Json::Num(opts.seconds)),
        ("smoke", Json::Bool(opts.smoke)),
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(0.0, |n| n.get() as f64)),
        ),
        ("workloads", Json::obj(entries)),
    ])
    .render();
    if let Some(path) = args.values("--out", 1)? {
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path[0])
            .map_err(|e| format!("{}: {e}", path[0]))?;
        writeln!(file, "{document}").map_err(|e| format!("{}: {e}", path[0]))?;
    }
    println!("{document}");
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args = Args(std::env::args().skip(1).collect());
    if args.flag("--help") || args.flag("-h") || args.0.is_empty() {
        println!("{USAGE}");
        return if args.0.is_empty() {
            ExitCode::from(2)
        } else {
            ExitCode::SUCCESS
        };
    }
    match main_inner(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("e2e: {e}");
            ExitCode::from(2)
        }
    }
}
