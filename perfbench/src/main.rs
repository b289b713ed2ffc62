//! Performance benchmark of the FUSE simulator workspace.
//!
//! `perfbench --workload <sim-grid|sim-cell|serve-mixed> --seed <n>
//! --seconds <s> --trace <0|1> [--out-dir <dir>]` measures one workload
//! through the public API of `fuse` (`runner`, `sweep`), `fuse-gpu`,
//! `fuse-core`, `fuse-workloads` and `fuse-serve`, checks every output
//! it produces, and prints as its last line one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones, with `--trace 1` the per-layer ones
//! from a separate traced pass. README.md in this directory lists every
//! metric, its unit and direction, and why each workload exists.

mod probe;
mod report;
mod serve;
mod sim;

use std::path::PathBuf;
use std::process::ExitCode;

use report::Outcome;

const WORKLOADS: [&str; 3] = ["sim-grid", "sim-cell", "serve-mixed"];

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out_dir = PathBuf::from(".bench_build/perfbench");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            "--out-dir" => out_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; expected one of {WORKLOADS:?}"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        out_dir,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out_dir) {
        eprintln!("perfbench: creating {}: {e}", args.out_dir.display());
        return ExitCode::from(2);
    }
    println!(
        "# perfbench workload={} seed={} seconds={} trace={} nproc={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        report::nproc()
    );
    let outcome: Outcome = match args.workload.as_str() {
        "sim-grid" => sim::grid(&args),
        "sim-cell" => sim::cells(&args),
        _ => serve::mixed(&args),
    };
    outcome.print(args.trace);
    ExitCode::SUCCESS
}
