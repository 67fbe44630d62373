//! Criterion benchmarks for the sample-and-aggregate pipeline: block
//! partitioning (with and without resampling), the aggregation step and
//! an end-to-end runtime query.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gupt_core::{
    partition_range, sample_and_aggregate, BlockView, GuptRuntimeBuilder, QuerySpec,
    RangeEstimation,
};
use gupt_dp::{Epsilon, OutputRange};
use rand::{rngs::StdRng, SeedableRng};
use std::hint::black_box;

fn bench_partition(c: &mut Criterion) {
    let mut group = c.benchmark_group("partition");
    for gamma in [1usize, 4] {
        group.bench_with_input(
            BenchmarkId::new("n=100k_beta=1000", gamma),
            &gamma,
            |b, &gamma| {
                let mut rng = StdRng::seed_from_u64(1);
                b.iter(|| black_box(partition_range(0, 100_000, 1_000, gamma, &mut rng)))
            },
        );
    }
    group.finish();
}

fn bench_aggregate(c: &mut Criterion) {
    let eps = Epsilon::new(1.0).expect("valid");
    let ranges = [OutputRange::new(0.0, 100.0).expect("valid")];
    let mut group = c.benchmark_group("sample_and_aggregate");
    for l in [64usize, 1024] {
        let outputs: Vec<Vec<f64>> = (0..l).map(|i| vec![(i % 100) as f64]).collect();
        group.bench_with_input(BenchmarkId::from_parameter(l), &outputs, |b, outputs| {
            let mut rng = StdRng::seed_from_u64(2);
            b.iter(|| {
                black_box(sample_and_aggregate(outputs, &ranges, 1, eps, &mut rng).expect("valid"))
            })
        });
    }
    group.finish();
}

fn bench_end_to_end(c: &mut Criterion) {
    let rows: Vec<Vec<f64>> = (0..10_000).map(|i| vec![(i % 80) as f64]).collect();
    c.bench_function("runtime/mean_query_10k_rows", |b| {
        b.iter(|| {
            let runtime = GuptRuntimeBuilder::new()
                .register_dataset("t", rows.clone(), Epsilon::new(1e9).expect("valid"))
                .expect("registers")
                .seed(3)
                .build();
            let spec = QuerySpec::view_program(|block: &BlockView| {
                vec![block.iter().map(|r| r[0]).sum::<f64>() / block.len().max(1) as f64]
            })
            .epsilon(Epsilon::new(1.0).expect("valid"))
            .range_estimation(RangeEstimation::Tight(vec![
                OutputRange::new(0.0, 80.0).expect("valid")
            ]));
            black_box(runtime.run("t", spec).expect("runs"))
        })
    });
}

criterion_group!(benches, bench_partition, bench_aggregate, bench_end_to_end);
criterion_main!(benches);
