//! The repository benchmark. One invocation runs one workload:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper_eval|agent_scale|archive_replay|service_stream> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it prints the end-to-end metrics; with `--trace 1` it
//! runs the same rounds untraced for half the time and traced for the
//! other half, checks that both scheduled alike, and prints the per-layer
//! metrics. Every schedule is audited by `audit.rs`. The last line of
//! standard output is one JSON object; the exit code is non-zero when any
//! check fails. See README.md for the workloads and metrics.

mod agent_scale;
mod archive_replay;
mod audit;
mod check;
mod decorate;
mod paper_eval;
mod report;
mod service_stream;

use std::path::PathBuf;
use std::process::ExitCode;

use report::Report;

/// The parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch directory for this process (archives, campaign caches),
    /// inside the working directory and removed on exit.
    pub work: PathBuf,
}

const WORKLOADS: [&str; 4] = [
    "paper_eval",
    "agent_scale",
    "archive_replay",
    "service_stream",
];

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
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
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (known: {})",
            WORKLOADS.join(", ")
        ));
    }
    let work = PathBuf::from(".perfbench_work").join(format!("{workload}-{}", std::process::id()));
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        work,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.work) {
        eprintln!("perfbench: cannot create {}: {e}", args.work.display());
        return ExitCode::from(2);
    }
    report::print_host(&args);
    let mut report = Report::default();
    if !audit::rejects_an_infeasible_schedule() {
        report.problem("the auditor accepted a hand-made infeasible schedule".to_string());
    }
    match args.workload.as_str() {
        "paper_eval" => paper_eval::run(&args, &mut report),
        "agent_scale" => agent_scale::run(&args, &mut report),
        "archive_replay" => archive_replay::run(&args, &mut report),
        _ => service_stream::run(&args, &mut report),
    }
    let _ = std::fs::remove_dir_all(&args.work);
    // Remove the shared parent too once no other run is using it.
    let _ = std::fs::remove_dir(".perfbench_work");
    report.finish(&args)
}
