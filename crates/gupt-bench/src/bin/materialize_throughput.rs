//! Block-preparation throughput: legacy clone plane vs zero-copy views.
//!
//! The clone plane (`BlockPlan::materialize_all`) deep-copies every row
//! into every block it appears in — O(γ·n·k) floats per query. The view
//! plane (`BlockPlan::views`) hands out `Arc`-backed windows onto the
//! shared [`RowStore`] — O(total indices) bookkeeping, independent of
//! row arity and of how many times γ replicates each record's payload.
//!
//! The sweep prepares blocks both ways at γ ∈ {1, 4, 8} and reports
//! prep throughput (blocks/s). The run fails (exit 1) if the view/clone
//! speedup at γ = 4 drops below `GUPT_MIN_VIEW_SPEEDUP` (default 2×) —
//! the PR's acceptance gate, enforced in CI at reduced scale.
//!
//! Run: `cargo run -p gupt-bench --bin materialize_throughput --release`

use gupt_bench::report::{banner, RunReport};
use gupt_core::{partition_range, GuptRuntimeBuilder, QuerySpec, RangeEstimation, RowStore};
use gupt_dp::{Epsilon, OutputRange};
use gupt_sandbox::BlockView;
use rand::{rngs::StdRng, SeedableRng};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

const GAMMAS: [usize; 3] = [1, 4, 8];
const DIMS: usize = 8;

/// Median seconds per call of `f` over `trials` calls.
fn time_of(trials: usize, mut f: impl FnMut()) -> f64 {
    let mut times: Vec<f64> = (0..trials)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    times[times.len() / 2]
}

fn main() {
    banner("Block-prep throughput: clone plane vs zero-copy views");

    let n = gupt_bench::rows(20_000);
    let trials = gupt_bench::trials(31).max(3);
    let min_speedup: f64 = std::env::var("GUPT_MIN_VIEW_SPEEDUP")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2.0);
    let beta = (n as f64).powf(0.6).ceil() as usize;

    let rows: Vec<Vec<f64>> = (0..n)
        .map(|i| (0..DIMS).map(|d| ((i * (d + 1)) % 997) as f64).collect())
        .collect();
    let store = Arc::new(RowStore::from_rows(&rows));

    println!("{n} rows × {DIMS} dims, β = {beta}, {trials} trials per point\n");

    let mut report = RunReport::new("materialize_throughput")
        .setting("rows", n as f64)
        .setting("dims", DIMS as f64)
        .setting("beta", beta as f64)
        .setting("trials", trials as f64)
        .setting("min_view_speedup", min_speedup);

    let mut speedup_at_gate = 0.0;
    for gamma in GAMMAS {
        let mut rng = StdRng::seed_from_u64(0xDA7A + gamma as u64);
        let plan = partition_range(0, n, beta, gamma, &mut rng);
        let blocks = plan.blocks().len();

        // Clone plane: every block's rows deep-copied out of the store.
        let clone_s = time_of(trials, || {
            black_box(plan.materialize_all(&store));
        });

        // View plane: Arc bumps over the plan's shared index lists.
        let view_s = time_of(trials, || {
            let views: Vec<BlockView> = plan.views(&store);
            black_box(views);
        });

        // Guard the ratio: view prep can be near the timer's floor.
        let speedup = clone_s / view_s.max(1e-9);
        if gamma == 4 {
            speedup_at_gate = speedup;
        }

        println!(
            "γ = {gamma}: {blocks:>4} blocks | clone {:>10.1} blocks/s | \
             view {:>12.1} blocks/s | speedup {speedup:>7.1}×",
            blocks as f64 / clone_s,
            blocks as f64 / view_s.max(1e-9),
        );

        report = report
            .metric(format!("clone_s_gamma{gamma}"), clone_s)
            .metric(format!("view_s_gamma{gamma}"), view_s)
            .metric(
                format!("index_bytes_gamma{gamma}"),
                plan.index_bytes() as f64,
            )
            .metric(format!("speedup_gamma{gamma}"), speedup);
    }
    println!(
        "\npayload bytes in store = {} (shared once, never re-copied by views)",
        store.payload_bytes()
    );

    // One traced end-to-end query over the same table so the run-report
    // carries full lifecycle telemetry — including the new data-plane
    // counters — for CI to validate.
    let runtime = GuptRuntimeBuilder::new()
        .register_dataset("t", rows, Epsilon::new(100.0).expect("valid"))
        .expect("registers")
        .seed(0xDA7A)
        .build();
    let spec = QuerySpec::view_program(|b: &BlockView| {
        vec![b.iter().map(|r| r[0]).sum::<f64>() / b.len().max(1) as f64]
    })
    .epsilon(Epsilon::new(1.0).expect("valid"))
    .range_estimation(RangeEstimation::Tight(vec![
        OutputRange::new(0.0, 997.0).expect("valid")
    ]))
    .collect_telemetry();
    let answer = runtime.run("t", spec).expect("query runs");

    report
        .metric("payload_bytes", store.payload_bytes() as f64)
        .telemetry(answer.telemetry.expect("telemetry requested"))
        .emit();

    assert!(
        speedup_at_gate >= min_speedup,
        "block-prep regression: view plane only {speedup_at_gate:.2}× faster than \
         clone plane at γ = 4 (gate: ≥ {min_speedup}×)"
    );
}
