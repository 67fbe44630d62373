//! The gupt-rs benchmark.
//!
//! ```text
//! gupt-perf --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! gupt-perf steady --workload <name> --runs <k> --seconds <s> [--trace <0|1>] [--seed <first>]
//! ```
//!
//! A run starts a real `GuptServer` on `127.0.0.1:0` inside this
//! process and drives one workload through it with two closed-loop
//! client connections. It repeats *rounds* — a fresh durable set-up,
//! then a fixed number of ops — until `--seconds` are used, and prints
//! every end-to-end metric by name with its unit (`--trace 0`) or every
//! per-layer metric from the traced replay (`--trace 1`). The last line
//! of standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. A broken correctness check prints a message
//! naming it and makes the exit code 1. `steady` runs one workload `k`
//! times with consecutive seeds and prints each metric's median,
//! quartiles and spread. See `README.md` beside this file.

mod measure;
mod run;
mod steady;
mod trace;
mod workload;

use std::process::ExitCode;
use workload::Workload;

/// Arguments of one benchmark run.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

fn parse_args(args: &[String]) -> Result<(Args, Option<usize>), String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10u64;
    let mut trace = false;
    let mut runs = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::from_name(value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value:?}; one of {}", names.join(", "))
                })?)
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?.max(1),
            "--trace" => trace = number()? != 0,
            "--runs" => runs = Some(number()?.max(1) as usize),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok((
        Args {
            workload,
            seed,
            seconds,
            trace,
        },
        runs,
    ))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let steady = argv.first().map(String::as_str) == Some("steady");
    let parsed = parse_args(&argv[usize::from(steady)..]);
    let (args, runs) = match parsed {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("gupt-perf: {e}");
            return ExitCode::from(2);
        }
    };
    if steady {
        return steady::main(args, runs.unwrap_or(5));
    }
    match run::main(args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("gupt-perf: {e}");
            ExitCode::from(2)
        }
    }
}
