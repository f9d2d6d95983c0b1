//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints the drawn op list and the checks' findings, then, as the last
//! line, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. Exits 1 without a result line on bad arguments or a
//! failed set-up.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::ops::{Budget, Workload};
use perfbench::stats::result_json;
use perfbench::{run, RunConfig};

const USAGE: &str = "usage: perfbench --workload <schedule_cross|schedule_mapper|dse_sweep> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<RunConfig, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::from_name(value).ok_or(format!("unknown workload '{value}'"))?);
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workload = workload.ok_or("--workload is required")?;
    Ok(RunConfig {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        budget: Budget::cli(workload, cores),
        out_dir: PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out")),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    match run(&cfg) {
        Ok(report) => {
            for line in &report.log {
                println!("{line}");
            }
            println!(
                "{}",
                result_json(
                    report.correct,
                    report.attempted,
                    report.failed,
                    &report.metrics
                )
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
