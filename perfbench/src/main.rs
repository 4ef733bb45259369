//! Runs one benchmark workload and prints its metrics.
//!
//! ```text
//! focus-perfbench --workload <live_mixed|archive_scan|fleet_scatter>
//!                 --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. The process exits with code 1
//! when an answer check or a regime check fails, and 2 on bad arguments.

use std::path::PathBuf;
use std::process::ExitCode;

use focus_perfbench::report::{provenance, result_json};
use focus_perfbench::workload::{Sizes, Workload};
use focus_perfbench::{run, Options};

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
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
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let out = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        sizes: Sizes::full(),
        out_dir: out.join(format!("run-{}", std::process::id())),
        spans_dir: out,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse(&args) {
        Ok(options) => options,
        Err(message) => {
            eprintln!("focus-perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        options.workload.name(),
        options.seed,
        options.seconds,
        u8::from(options.trace)
    );
    println!(
        "provenance: seed={} {}",
        options.seed,
        provenance(root.parent().unwrap_or(&root))
    );
    if let Err(e) = std::fs::create_dir_all(&options.out_dir) {
        eprintln!("focus-perfbench: create {}: {e}", options.out_dir.display());
        return ExitCode::from(2);
    }
    let report = run(&options);
    let _ = std::fs::remove_dir_all(&options.out_dir);
    for line in &report.lines {
        println!("{line}");
    }
    for metric in &report.metrics {
        println!("metric {} = {} {}", metric.name, metric.value, metric.unit);
    }
    let finite = report.metrics.iter().all(|m| m.value.is_finite());
    let correct = report.errors.is_empty() && finite;
    if correct {
        println!("checks: ok");
    } else {
        for error in &report.errors {
            println!("check failed: {error}");
        }
        if !finite {
            println!("check failed: a metric is not a finite number");
        }
    }
    println!(
        "{}",
        result_json(
            correct,
            report.attempted.max(1),
            report.failed,
            &report.metrics
        )
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
