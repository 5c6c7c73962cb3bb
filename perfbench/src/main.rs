//! `alae-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload (see `BENCHMARK.json` for the list), prints a
//! readable report and, as the last line of standard output, one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`.  The metrics
//! are the end-to-end ones with `--trace 0` and the per-layer ones with
//! `--trace 1`.  Exits 1 when any answer was wrong, 2 on bad arguments.

use alae_perfbench::{run, Report, Settings, WorkloadSpec, WORKLOAD_NAMES};
use std::path::PathBuf;
use std::process::ExitCode;

/// Index files and span dumps go here, relative to the working directory.
const WORK_DIR: &str = ".bench_work";

fn usage(problem: &str) -> ExitCode {
    eprintln!("error: {problem}");
    eprintln!(
        "usage: alae-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOAD_NAMES.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    for pair in args.chunks(2) {
        let [flag, value] = pair else {
            return usage(&format!("{} needs a value", pair[0]));
        };
        match flag.as_str() {
            "--workload" => workload = WorkloadSpec::named(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            other => return usage(&format!("unknown flag {other}")),
        }
    }
    let (Some(spec), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage("--workload, --seed, --seconds and --trace are all required and valid");
    };
    let settings = Settings {
        seed,
        seconds,
        trace,
        work_dir: PathBuf::from(WORK_DIR),
    };
    let report = match run(&spec, &settings) {
        Ok(report) => report,
        Err(err) => {
            eprintln!("error: {} failed: {err}", spec.name);
            return ExitCode::FAILURE;
        }
    };
    if let Some(metric) = report.metrics.iter().find(|m| !m.value.is_finite()) {
        eprintln!(
            "error: {} measured {} = {}",
            spec.name, metric.name, metric.value
        );
        return ExitCode::FAILURE;
    }
    print_report(&report);
    if report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn print_report(report: &Report) {
    for line in &report.lines {
        println!("{line}");
    }
    for failure in &report.failures {
        println!("FAILED: {failure}");
    }
    for metric in &report.metrics {
        println!("{:<30} {:>16.4} {}", metric.name, metric.value, metric.unit);
    }
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0,
        report.attempted,
        report.failed,
        metrics.join(", ")
    );
}
