//! The repository's benchmark: one binary, four workloads (train-inram,
//! train-ooc, serve-mixed, audit-panel). See `perfbench/README.md`.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> \
//!           --workdir <dir> [--smoke]
//! ```
//!
//! Prints one host line and, as the last line of standard output, one
//! JSON object: `correct`, `attempted`, `failed` and `metrics` (every
//! end-to-end metric with `--trace 0`, every per-layer metric with
//! `--trace 1`). Exits non-zero without a result when a workload cannot
//! run.

mod audit;
mod common;
mod replay;
mod serve;
mod train;

use std::path::PathBuf;
use std::process::ExitCode;

use common::{BenchResult, Outcome, RunArgs, END_TO_END, PER_LAYER};

const WORKLOADS: &[&str] = &["train-inram", "train-ooc", "serve-mixed", "audit-panel"];

struct Cli {
    workload: String,
    run: RunArgs,
}

fn parse(args: &[String]) -> BenchResult<Cli> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut smoke, mut workdir) =
        (None, None, None, false, None);
    let mut i = 0;
    while i < args.len() {
        let value = || {
            args.get(i + 1)
                .cloned()
                .ok_or_else(|| format!("{} needs a value", args[i]))
        };
        match args[i].as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err(format!("--seconds must be in (0, 120], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                })
            }
            "--workdir" => workdir = Some(PathBuf::from(value()?)),
            "--smoke" => {
                smoke = true;
                i += 1;
                continue;
            }
            other => return Err(format!("unknown argument {other}")),
        }
        i += 2;
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Cli {
        workload,
        run: RunArgs {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            smoke,
            workdir: workdir.ok_or("--workdir is required")?,
        },
    })
}

fn run(cli: &Cli) -> BenchResult<Outcome> {
    match cli.workload.as_str() {
        "train-inram" => train::run(train::Engine::InRam, &cli.run),
        "train-ooc" => train::run(train::Engine::OutOfCore, &cli.run),
        "serve-mixed" => serve::run(&cli.run),
        "audit-panel" => audit::run(&cli.run),
        other => Err(format!("unknown workload {other}")),
    }
}

/// The host facts every result is stamped with.
fn host_line(cli: &Cli) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let kernels = std::env::var("ADVSGM_KERNELS").unwrap_or_default();
    let commit = std::env::var("PERFBENCH_COMMIT").unwrap_or_else(|_| "unknown".into());
    format!(
        "# host {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"nproc\": {nproc}, \"kernel_backend\": \"{}\", \"ADVSGM_KERNELS\": \"{}\", \
         \"commit\": \"{}\"}}",
        cli.workload,
        cli.run.seed,
        cli.run.seconds,
        u8::from(cli.run.trace),
        advsgm::linalg::backend::active(),
        kernels.escape_default(),
        commit.escape_default(),
    )
}

/// The result line: the metric set the run mode promises, each with its
/// unit. A metric a workload does not produce reports 0 (per-layer only).
fn result_line(out: &Outcome, trace: bool) -> BenchResult<String> {
    let wanted = if trace { PER_LAYER } else { END_TO_END };
    let mut fields = Vec::with_capacity(wanted.len());
    for &(name, unit) in wanted {
        let value = match out.metrics.iter().find(|(n, _)| *n == name) {
            Some(&(_, v)) => v,
            None if trace => 0.0,
            None => return Err(format!("end-to-end metric {name} was not measured")),
        };
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
        fields.push(format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.check_failures.is_empty(),
        out.attempted.max(1),
        out.failed,
        fields.join(", ")
    ))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!("{}", host_line(&cli));
    let line = run(&cli).and_then(|out| {
        for failure in &out.check_failures {
            eprintln!("perfbench: check failed: {failure}");
        }
        result_line(&out, cli.run.trace)
    });
    match line {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", cli.workload);
            ExitCode::FAILURE
        }
    }
}
