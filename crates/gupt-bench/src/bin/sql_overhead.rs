//! DP-SQL front-end overhead and correctness gates.
//!
//! The gupt-sql compiler promises to be a zero-cost veneer: parsing a
//! statement and planning it onto the chamber pipeline must disappear
//! into the noise of actually executing the query. This bench runs the
//! same workload twice — once through `runtime.sql(...)` (lex, parse,
//! plan, execute) and once through a handwritten `QuerySpec` that
//! mirrors the planner's compilation exactly — interleaved in
//! alternating chunks of ten queries, and gates on three invariants:
//!
//! 1. **Overhead**: end-to-end SQL time may exceed the direct-API time
//!    by at most `GUPT_MAX_SQL_OVERHEAD_PCT` percent (default 5), read
//!    as the median over the chunks of SQL time ÷ direct time.
//! 2. **Bit-identity**: at the same runtime seed and submission
//!    position, every SQL answer equals the handwritten answer bit for
//!    bit (`f64::to_bits`), including ε spent — the compiler adds no
//!    noise of its own.
//! 3. **Minimum-frequency rule**: a `GROUP BY` run with a rare group
//!    never releases a row whose noisy gate count is below the
//!    threshold.
//!
//! It also executes one statement on the PINQ and Airavat lowerings
//! from gupt-baselines, reporting the absolute error of all three
//! systems against the non-private truth at equal ε.
//!
//! Run: `cargo run -p gupt-bench --bin sql_overhead --release`

use gupt_bench::report::{banner, RunReport};
use gupt_core::{BlockView, GuptRuntimeBuilder, QuerySpec, RangeEstimation};
use gupt_datasets::census::CensusDataset;
use gupt_dp::{Epsilon, OutputRange};
use gupt_sql::{CmpOp, Predicate, RowFilter, SqlOptions, SqlRuntime};
use std::ops::Range;
use std::time::Instant;

/// Per-query budget for the overhead workload; also baked into the
/// statement text so both paths charge identically.
const EPS_PER_QUERY: f64 = 0.005;

/// Queries per chunk: the SQL and direct loops alternate every this
/// many queries.
const CHUNK: usize = 10;

fn main() {
    banner("DP-SQL front-end overhead (parse + plan vs direct QuerySpec)");

    let n = gupt_bench::rows(2_000);
    let queries = gupt_bench::trials(10_000);
    let max_overhead_pct: f64 = std::env::var("GUPT_MAX_SQL_OVERHEAD_PCT")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(5.0);

    let census = CensusDataset::generate_sized(n, 0x5D1);
    let rows = census.rows();
    let range = OutputRange::new(0.0, 150.0).expect("valid");
    let budget = Epsilon::new(200.0).expect("valid");
    let seed = 0x5D10B;

    let make_runtime = || {
        GuptRuntimeBuilder::new()
            .register_dataset("ages", rows.clone(), budget)
            .expect("registers")
            .seed(seed)
            .build()
    };

    // Every threshold is unique so neither path replays from the
    // answer cache: the comparison is cold execution vs cold execution,
    // which is where parse + plan cost would actually show up.
    let threshold = |i: usize| 5.0 + (i as f64) * 40.0 / queries as f64;
    // Both paths' query texts are formatted before the clock starts: the
    // gate times what each path does with its query, not how the caller
    // composed the text (the statement renders two floats, the direct
    // identity one, and at this scale a rendered float is a visible
    // share of a query).
    let identities: Vec<String> = (0..queries)
        .map(|i| format!("direct:AVG(c0)|c0 < {}", threshold(i)))
        .collect();
    let statements: Vec<String> = (0..queries)
        .map(|i| {
            let t = threshold(i);
            format!("SELECT AVG(c0) FROM ages WHERE c0 < {t} WITH EPSILON {EPS_PER_QUERY}")
        })
        .collect();

    // Direct path: a handwritten spec mirroring the planner's AVG
    // compilation (filter, empty-block midpoint, same float-op order),
    // so answers are comparable bit for bit. The filter reuses the
    // library's [`RowFilter`] type — the realistic direct-API idiom —
    // which keeps per-row work identical in both loops and isolates the
    // front-end cost (lex, parse, validate, plan, answer assembly).
    let direct_runtime = make_runtime();
    let eps = Epsilon::new(EPS_PER_QUERY).expect("valid");
    let direct_query = |i: usize| -> (f64, f64) {
        let t = threshold(i);
        let midpoint = range.midpoint();
        let filter = RowFilter {
            predicate: Some(Predicate::Compare {
                column: 0,
                op: CmpOp::Lt,
                value: t,
            }),
            group_key: Vec::new(),
        };
        let estimator = move |block: &BlockView| -> Vec<f64> {
            let m = block.len();
            if m == 0 {
                return vec![midpoint];
            }
            let mut matched: Vec<f64> = Vec::new();
            for row in block.iter() {
                if filter.matches(row) {
                    matched.push(row.first().copied().unwrap_or(0.0));
                }
            }
            let k = matched.len();
            let value = if k == 0 {
                midpoint
            } else {
                matched.iter().sum::<f64>() / k as f64
            };
            vec![value]
        };
        let spec = QuerySpec::builder()
            .view(estimator)
            .identity(identities[i].as_str(), 1)
            .range_estimation(RangeEstimation::Tight(vec![range]))
            .build()
            .expect("spec builds")
            .epsilon(eps);
        let answer = direct_runtime.run("ages", spec).expect("budget is ample");
        (answer.values[0], answer.epsilon_spent)
    };

    // SQL path: same workload, same seed, statements compiled per
    // iteration exactly as an analyst would submit them.
    let sql_runtime = make_runtime();
    let options = SqlOptions {
        column_ranges: vec![range],
        ..SqlOptions::default()
    };
    let sql_query = |i: usize| -> (f64, f64) {
        let answer = sql_runtime
            .sql(&statements[i], &options)
            .expect("statement runs");
        (answer.rows[0].values[0], answer.epsilon_spent)
    };

    // The two loops alternate in chunks, each runtime still seeing its
    // queries in submission order, so drift in host speed over the run
    // lands on both sides alike instead of on whichever ran second. The
    // gate reads the median of the per-chunk time ratios: a host stall
    // that lands inside one side's chunk moves that chunk's ratio by
    // tens of percent, but not the median, while a front-end slowdown
    // moves every chunk's ratio and so the median with it. Short chunks
    // give many ratios and leave little time for drift inside a pair.
    let timed =
        |span: Range<usize>, run: &dyn Fn(usize) -> (f64, f64), answers: &mut Vec<(f64, f64)>| {
            let start = Instant::now();
            answers.extend(span.map(run));
            start.elapsed().as_secs_f64()
        };
    let mut direct_answers = Vec::with_capacity(queries);
    let mut sql_answers = Vec::with_capacity(queries);
    let (mut direct_s, mut sql_s) = (0.0, 0.0);
    let mut ratios = Vec::with_capacity(queries.div_ceil(CHUNK));
    for (chunk, start) in (0..queries).step_by(CHUNK).enumerate() {
        let span = start..(start + CHUNK).min(queries);
        let (direct, sql) = if chunk % 2 == 0 {
            let direct = timed(span.clone(), &direct_query, &mut direct_answers);
            (direct, timed(span, &sql_query, &mut sql_answers))
        } else {
            let sql = timed(span.clone(), &sql_query, &mut sql_answers);
            (timed(span, &direct_query, &mut direct_answers), sql)
        };
        direct_s += direct;
        sql_s += sql;
        ratios.push(sql / direct);
    }

    // Gate 2: bit-identity at equal seed and submission position.
    let mut identical = 0usize;
    for (i, ((dv, de), (sv, se))) in direct_answers.iter().zip(&sql_answers).enumerate() {
        assert_eq!(
            dv.to_bits(),
            sv.to_bits(),
            "query {i}: SQL answer {sv} != direct answer {dv}"
        );
        assert_eq!(
            de.to_bits(),
            se.to_bits(),
            "query {i}: SQL charged ε {se} != direct ε {de}"
        );
        identical += 1;
    }

    let overhead_pct = (gupt_ml::stats::median(&ratios) - 1.0) * 100.0;
    println!("rows              = {n}");
    println!("queries           = {queries}");
    println!("direct            = {direct_s:.3}s");
    println!("sql               = {sql_s:.3}s");
    println!(
        "overhead          = {overhead_pct:+.2}% median over {} chunks (gate: < {max_overhead_pct}%)",
        ratios.len()
    );
    println!("bit-identical     = {identical}/{queries} answers (ε included)");

    // Gate 3: the minimum-frequency rule never releases a rare group.
    let mut grouped: Vec<Vec<f64>> = (0..3_200)
        .map(|i| vec![(i % 50) as f64, (i % 4) as f64])
        .collect();
    grouped[0][1] = 9.0; // one singleton group
    let group_runtime = GuptRuntimeBuilder::new()
        .register_dataset("g", grouped, Epsilon::new(10.0).expect("valid"))
        .expect("registers")
        .seed(seed)
        .build();
    let group_options = SqlOptions {
        column_ranges: vec![range],
        min_count: 300.0,
        ..SqlOptions::default()
    };
    let gated = group_runtime
        .sql(
            "SELECT COUNT(*) FROM g GROUP BY c1 WITH EPSILON 8",
            &group_options,
        )
        .expect("grouped statement runs");
    assert_eq!(
        gated.rows.len() as u64 + gated.suppressed_groups,
        5,
        "4 dense groups + 1 singleton must be accounted for"
    );
    for row in &gated.rows {
        let count = row.noisy_count.expect("gate armed");
        assert!(
            count >= 300.0,
            "released group {:?} with noisy count {count} below the threshold",
            row.group
        );
        assert!(
            row.group.first() != Some(&9.0),
            "the singleton group leaked through the min-frequency rule"
        );
    }
    println!(
        "min-frequency     = {} released, {} suppressed (threshold 300)",
        gated.rows.len(),
        gated.suppressed_groups
    );

    // Utility comparison at equal ε: the same statement on GUPT's
    // chamber pipeline and on the PINQ/Airavat lowerings.
    let compare_stmt = "SELECT AVG(c0) FROM ages WHERE c0 < 50 WITH EPSILON 1";
    let truth = {
        let vals: Vec<f64> = rows.iter().filter(|r| r[0] < 50.0).map(|r| r[0]).collect();
        vals.iter().sum::<f64>() / vals.len().max(1) as f64
    };
    let gupt_err = (make_runtime()
        .sql(compare_stmt, &options)
        .expect("statement runs")
        .rows[0]
        .values[0]
        - truth)
        .abs();
    let pinq_err = (gupt_baselines::run_pinq(rows.clone(), compare_stmt, &options, seed)
        .expect("pinq lowering runs")
        .rows[0]
        .values[0]
        - truth)
        .abs();
    // Offset the seed so the two baselines (which both halve ε into a
    // sum/count pair) don't replay the same Laplace stream.
    let airavat_err = (gupt_baselines::run_airavat(rows.clone(), compare_stmt, &options, seed + 1)
        .expect("airavat lowering runs")
        .rows[0]
        .values[0]
        - truth)
        .abs();
    println!("utility (|err| vs truth {truth:.3} at ε=1):");
    println!("  gupt-sql        = {gupt_err:.4}");
    println!("  pinq            = {pinq_err:.4}");
    println!("  airavat         = {airavat_err:.4}");

    // One traced statement so the run-report carries a v8 telemetry
    // object (including the mandatory `sql` counters) for CI to check.
    let traced = make_runtime()
        .sql(
            "SELECT AVG(c0) FROM ages WITH EPSILON 1",
            &SqlOptions {
                collect_telemetry: true,
                ..options.clone()
            },
        )
        .expect("traced statement runs");

    RunReport::new("sql_overhead")
        .setting("rows", n as f64)
        .setting("queries", queries as f64)
        .setting("epsilon_per_query", EPS_PER_QUERY)
        .setting("max_overhead_pct", max_overhead_pct)
        .metric("direct_s", direct_s)
        .metric("sql_s", sql_s)
        .metric("overhead_pct", overhead_pct)
        .metric("bit_identical", identical as f64)
        .metric("suppressed_groups", gated.suppressed_groups as f64)
        .metric("gupt_abs_err", gupt_err)
        .metric("pinq_abs_err", pinq_err)
        .metric("airavat_abs_err", airavat_err)
        .telemetry(traced.telemetry.expect("telemetry requested"))
        .emit();

    assert!(
        overhead_pct < max_overhead_pct,
        "DP-SQL front-end overhead regression: {overhead_pct:.2}% ≥ allowed {max_overhead_pct}%"
    );
}
