//! Ingest throughput: incremental append vs full re-registration.
//!
//! Without the append API, growing a registered table means
//! re-registering it from scratch: every row of the *whole* table is
//! re-validated and re-flattened into a fresh `RowStore`, and the
//! registration epoch is re-hashed over all content — O(n) work for an
//! O(delta) change. `GuptRuntime::append_rows` flattens only the delta
//! (filling the store's last fixed-size chunk in place) and chains the
//! epoch over the delta bits, so a 1% append costs ~1% of the work.
//!
//! This bench times both paths on the same 1% delta and gates on the
//! ratio: the run fails (exit 1) if the incremental append is not at
//! least `GUPT_MIN_INGEST_SPEEDUP` (default 5×) faster than full
//! re-registration. It also asserts the delta-only accounting exactly:
//! `bytes_materialized` must equal the delta bytes alone (no query
//! snapshot is in flight) — any copy of stored rows would show up here
//! before it showed up in the timings.
//!
//! Scale knobs: `GUPT_INGEST_ROWS` (default 100 000 rows) and
//! `GUPT_TRIALS`.
//!
//! Run: `cargo run -p gupt-bench --bin ingest_throughput --release`

use gupt_bench::report::{banner, RunReport};
use gupt_core::{GuptRuntimeBuilder, QuerySpec, RangeEstimation};
use gupt_dp::{Epsilon, OutputRange};
use gupt_sandbox::BlockView;
use std::hint::black_box;
use std::time::Instant;

const DIMS: usize = 8;

fn eps(v: f64) -> Epsilon {
    Epsilon::new(v).expect("valid epsilon")
}

fn table(offset: usize, n: usize) -> Vec<Vec<f64>> {
    (offset..offset + n)
        .map(|i| (0..DIMS).map(|d| ((i * (d + 1)) % 997) as f64).collect())
        .collect()
}

/// Median of a sample of seconds.
fn median(mut times: Vec<f64>) -> f64 {
    times.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    times[times.len() / 2]
}

fn main() {
    banner("Ingest throughput: incremental append vs full re-registration");

    let n: usize = std::env::var("GUPT_INGEST_ROWS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&r| r > 0)
        .unwrap_or(100_000);
    let trials = gupt_bench::trials(9).max(3);
    let min_speedup: f64 = std::env::var("GUPT_MIN_INGEST_SPEEDUP")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(5.0);
    let delta_n = (n / 100).max(1);

    let base = table(0, n);
    let delta = table(n, delta_n);

    println!("{n} rows × {DIMS} dims, 1% delta = {delta_n} rows, {trials} trials per path\n");

    // Incremental path: one registered runtime, `trials` appends of the
    // same delta. Each append block-copies the flat base and flattens
    // only the delta rows.
    let rt = GuptRuntimeBuilder::new()
        .register_dataset("t", base.clone(), eps(1e6))
        .expect("registers")
        .seed(0x1263E57)
        .build();
    let incremental_s = median(
        (0..trials)
            .map(|_| {
                let start = Instant::now();
                black_box(rt.append_rows("t", &delta).expect("append applies"));
                start.elapsed().as_secs_f64()
            })
            .collect(),
    );

    // Delta-only flattening, accounted exactly: the ingest counters
    // carry the delta bytes alone, never a re-flatten of the base.
    let ingest = rt.ingest_stats("t").expect("dataset exists");
    let delta_bytes = (delta_n * DIMS * std::mem::size_of::<f64>()) as u64;
    assert_eq!(ingest.appends, trials as u64);
    assert_eq!(ingest.rows_appended, (trials * delta_n) as u64);
    assert_eq!(
        ingest.bytes_materialized,
        trials as u64 * delta_bytes,
        "append re-flattened more than the delta"
    );

    // Full path: what the same growth costs without the append API —
    // re-register base + delta from scratch (full re-validation,
    // re-flatten and full-content epoch hash). The input clone happens
    // outside the timed window.
    let mut combined = base;
    combined.extend(delta.iter().cloned());
    let full_s = median(
        (0..trials)
            .map(|_| {
                let input = combined.clone();
                let start = Instant::now();
                let builder = GuptRuntimeBuilder::new()
                    .register_dataset("t", input, eps(1e6))
                    .expect("registers");
                black_box(&builder);
                start.elapsed().as_secs_f64()
            })
            .collect(),
    );

    let speedup = full_s / incremental_s.max(1e-9);
    println!(
        "full re-registration : {:>9.3} ms ({} rows)",
        full_s * 1e3,
        n + delta_n
    );
    println!(
        "incremental append   : {:>9.3} ms ({delta_n} rows)",
        incremental_s * 1e3
    );
    println!("speedup              : {speedup:>7.1}× (gate: ≥ {min_speedup}×)");
    println!(
        "delta accounting     : {} appends, {} rows, {} bytes materialized",
        ingest.appends, ingest.rows_appended, ingest.bytes_materialized
    );

    // One traced query over the grown table so the run-report carries
    // full lifecycle telemetry — including the ingest counters — for CI
    // to validate.
    let answer = rt
        .run(
            "t",
            QuerySpec::view_program(|b: &BlockView| {
                vec![b.iter().map(|r| r[0]).sum::<f64>() / b.len().max(1) as f64]
            })
            .epsilon(eps(1.0))
            .range_estimation(RangeEstimation::Tight(vec![
                OutputRange::new(0.0, 997.0).expect("valid")
            ]))
            .collect_telemetry(),
        )
        .expect("query runs");

    RunReport::new("ingest_throughput")
        .setting("rows", n as f64)
        .setting("dims", DIMS as f64)
        .setting("delta_rows", delta_n as f64)
        .setting("trials", trials as f64)
        .setting("min_ingest_speedup", min_speedup)
        .metric("full_s", full_s)
        .metric("incremental_s", incremental_s)
        .metric("speedup", speedup)
        .metric("appends", ingest.appends as f64)
        .metric("rows_appended", ingest.rows_appended as f64)
        .metric("bytes_materialized", ingest.bytes_materialized as f64)
        .telemetry(answer.telemetry.expect("telemetry requested"))
        .emit();

    assert!(
        speedup >= min_speedup,
        "ingest regression: incremental append only {speedup:.2}× faster than \
         full re-registration (gate: ≥ {min_speedup}×)"
    );
}
