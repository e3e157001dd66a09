//! Command line of the benchmark.
//!
//! ```text
//! shedbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! shedbench compare <parent-results> <change-results> [--spec BENCHMARK.json]
//! shedbench spread <results>... [--spec BENCHMARK.json]
//! ```

use std::process::ExitCode;

use shedbench::compare;
use shedbench::metrics::{self, Args};
use shedbench::workload::Workload;

const USAGE: &str = "usage:
  shedbench --workload <header-flood|tenant-churn|fleet-flood> --seed <n> --seconds <s> --trace <0|1>
  shedbench compare <parent-results> <change-results> [--spec BENCHMARK.json]
  shedbench spread <results>... [--spec BENCHMARK.json]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compare") => files_command(&args[1..], |runs, bounds| match runs {
            [parent, change] => Ok(compare::compare_report(parent, change, bounds)),
            _ => Err("compare takes exactly two result files".to_string()),
        }),
        Some("spread") => files_command(&args[1..], |runs, bounds| match runs {
            [] => Err("spread takes at least one result file".to_string()),
            _ => Ok(compare::spread_report(&runs.concat(), bounds)),
        }),
        _ => return run(&args),
    };
    match result {
        Ok(text) => {
            println!("{text}");
            ExitCode::SUCCESS
        }
        Err(error) => {
            eprintln!("shedbench: {error}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// Reads the result files and the bounds named by `args`, then renders.
fn files_command(
    args: &[String],
    render: impl Fn(&[Vec<compare::RunResult>], &[compare::Bound]) -> Result<String, String>,
) -> Result<String, String> {
    let mut spec = "BENCHMARK.json".to_string();
    let mut files = Vec::new();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        if arg == "--spec" {
            spec = args.next().ok_or("--spec needs a path")?.clone();
        } else {
            files.push(arg.clone());
        }
    }
    let read = |path: &str| std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"));
    let bounds = compare::parse_bounds(&read(&spec)?)?;
    let runs = files
        .iter()
        .map(|f| compare::parse_results(&read(f)?).map_err(|e| format!("{f}: {e}")))
        .collect::<Result<Vec<_>, String>>()?;
    render(&runs, &bounds)
}

fn parse_run_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                });
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        bins: None,
    })
}

fn run(args: &[String]) -> ExitCode {
    let args = match parse_run_args(args) {
        Ok(args) => args,
        Err(error) => {
            eprintln!("shedbench: {error}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match metrics::run(&args) {
        Ok(outcome) => {
            for problem in &outcome.problems {
                eprintln!("shedbench: incorrect: {problem}");
            }
            println!("{}", metrics::provenance_line(&outcome));
            println!("{}", metrics::result_line(&outcome));
            if outcome.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(error) => {
            eprintln!("shedbench: {error}");
            ExitCode::FAILURE
        }
    }
}
