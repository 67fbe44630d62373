//! Steadiness self-check: runs one workload `k` times, each in its own
//! process with the next seed, and prints every metric's median,
//! quartiles and spread (interquartile distance over the median), the
//! figures a metric's regression bound is set from.

use crate::measure::{median, quartiles};
use crate::Args;
use gupt_serve::json::{self, Value};
use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

pub fn main(args: Args, runs: usize) -> ExitCode {
    let Ok(exe) = std::env::current_exe() else {
        eprintln!("steady: cannot locate the benchmark executable");
        return ExitCode::from(2);
    };
    let mut values: BTreeMap<String, (String, Vec<f64>)> = BTreeMap::new();
    let mut failures = 0;
    for i in 0..runs as u64 {
        let seed = args.seed + i;
        let output = Command::new(&exe)
            .args(["--workload", args.workload.name()])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .output();
        let parsed = output.ok().filter(|o| o.status.success()).and_then(|o| {
            let text = String::from_utf8_lossy(&o.stdout).into_owned();
            text.lines().last().and_then(|l| json::parse(l).ok())
        });
        let Some(result) = parsed else {
            eprintln!("steady: run with seed {seed} failed");
            failures += 1;
            continue;
        };
        let metrics = result.get("metrics").and_then(Value::as_object);
        for (name, m) in metrics.into_iter().flatten() {
            let unit = m
                .get("unit")
                .and_then(Value::as_str)
                .unwrap_or("")
                .to_string();
            let value = m
                .get("value")
                .and_then(Value::as_number)
                .unwrap_or(f64::NAN);
            values
                .entry(name.clone())
                .or_insert((unit, Vec::new()))
                .1
                .push(value);
        }
        eprintln!("steady: seed {seed} done");
    }
    println!(
        "{} × {runs} runs of {} s (seeds {}..{}), trace {}",
        args.workload.name(),
        args.seconds,
        args.seed,
        args.seed + runs as u64 - 1,
        u8::from(args.trace)
    );
    println!(
        "{:<28} {:>8} {:>12} {:>12} {:>12} {:>8}",
        "metric", "unit", "q1", "median", "q3", "spread"
    );
    for (name, (unit, v)) in &values {
        let med = median(v);
        let [q1, q2, q3] = quartiles(v).unwrap_or([med; 3]);
        let spread = if med != 0.0 {
            (q3 - q1) / med.abs()
        } else {
            0.0
        };
        println!("{name:<28} {unit:>8} {q1:>12.4} {q2:>12.4} {q3:>12.4} {spread:>8.4}");
        let runs: Vec<String> = v.iter().map(|x| format!("{x:.4}")).collect();
        println!("{:<28} runs: {}", "", runs.join(" "));
    }
    if failures > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
