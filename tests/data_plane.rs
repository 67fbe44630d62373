//! Zero-copy data-plane invariants.
//!
//! The block plan hands programs [`BlockView`]s onto the shared
//! [`RowStore`] instead of cloned row tables. These tests pin the two
//! contracts that make the view plane a drop-in replacement for the
//! legacy clone plane:
//!
//! 1. **Equivalence** — for the same partition, views expose exactly the
//!    rows `materialize_all` would have cloned, and a full query run
//!    through the view-native program API produces the bit-identical
//!    `PrivateAnswer` the legacy slice-closure adapter produces under
//!    the same runtime seed.
//! 2. **γ-coverage** — resampling places every record in exactly γ
//!    views, so the privacy amplification argument (§4.2, average
//!    sensitivity γ·s/ℓ) carries over to the zero-copy plane unchanged.

use gupt::core::{partition_range, BlockPlan, GuptRuntimeBuilder, QuerySpec, RangeEstimation};
use gupt::dp::{Epsilon, OutputRange};
use gupt::sandbox::{BlockView, RowStore};
use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};
use std::sync::Arc;

/// Rows `[i, 2i]` so record identity is recoverable from the payload.
fn rows(n: usize) -> Vec<Vec<f64>> {
    (0..n).map(|i| vec![i as f64, (2 * i) as f64]).collect()
}

fn plan_for(n: usize, beta: usize, gamma: usize, seed: u64) -> BlockPlan {
    let mut rng = StdRng::seed_from_u64(seed);
    partition_range(0, n, beta, gamma, &mut rng)
}

/// The mean-of-column-0 body, shared between the view-native and the
/// legacy slice program so the equivalence test compares *planes*, not
/// programs.
fn mean_of_rows(rows: &[Vec<f64>]) -> Vec<f64> {
    vec![rows.iter().map(|r| r[0]).sum::<f64>() / rows.len().max(1) as f64]
}

fn runtime(seed: u64) -> gupt::core::GuptRuntime {
    GuptRuntimeBuilder::new()
        .register_dataset("t", rows(600), Epsilon::new(100.0).unwrap())
        .unwrap()
        .seed(seed)
        .build()
}

fn mean_range() -> RangeEstimation {
    RangeEstimation::Tight(vec![OutputRange::new(0.0, 600.0).unwrap()])
}

/// Same seed, same query, two planes: the view-native program and the
/// legacy slice closure (running through the `RowSliceProgram` adapter)
/// must release the bit-identical private answer — partition, block
/// outputs, and noise draws all line up.
#[test]
fn view_and_clone_planes_release_identical_answers() {
    for seed in [1u64, 7, 42, 1001] {
        let view_spec = QuerySpec::view_program(|b: &BlockView| {
            vec![b.iter().map(|r| r[0]).sum::<f64>() / b.len().max(1) as f64]
        })
        .epsilon(Epsilon::new(0.5).unwrap())
        .range_estimation(mean_range());
        let legacy_spec = QuerySpec::program(|b: &[Vec<f64>]| mean_of_rows(b))
            .epsilon(Epsilon::new(0.5).unwrap())
            .range_estimation(mean_range());

        let a = runtime(seed).run("t", view_spec).unwrap();
        let b = runtime(seed).run("t", legacy_spec).unwrap();

        assert_eq!(a.values, b.values, "seed {seed}");
        assert_eq!(a.epsilon_spent, b.epsilon_spent);
        assert_eq!(a.num_blocks, b.num_blocks);
        assert_eq!(a.block_size, b.block_size);
        assert_eq!(a.gamma, b.gamma);
    }
}

/// Views share the registration-time store: serving them allocates index
/// lists only, never row payloads.
#[test]
fn views_share_one_store() {
    let store = Arc::new(RowStore::from_rows(&rows(100)));
    let plan = plan_for(100, 10, 3, 9);
    let views = plan.views(&store);
    assert_eq!(views.len(), plan.blocks().len());
    for v in &views {
        assert!(Arc::ptr_eq(v.store(), &store));
    }
    // Index accounting matches the plan exactly.
    let total: usize = views.iter().map(|v| v.index_bytes()).sum();
    assert_eq!(total, plan.index_bytes());
}

proptest! {
    // Every block view exposes exactly the rows the legacy clone plane
    // materialised, in the same order.
    #[test]
    fn views_match_materialized_blocks(
        n in 1usize..300, beta in 1usize..80, gamma in 1usize..5, seed in 0u64..500,
    ) {
        let store = Arc::new(RowStore::from_rows(&rows(n)));
        let plan = plan_for(n, beta, gamma, seed);
        let cloned = plan.materialize_all(&store);
        let views = plan.views(&store);
        prop_assert_eq!(cloned.len(), views.len());
        for (block, view) in cloned.iter().zip(&views) {
            prop_assert_eq!(block.len(), view.len());
            for (i, row) in block.iter().enumerate() {
                prop_assert_eq!(row.as_slice(), view.row(i));
            }
            // And the iterator agrees with the indexed accessor.
            prop_assert_eq!(block, &view.to_rows());
        }
    }

    // Each record appears in exactly γ views (identified by its payload:
    // rows are [i, 2i], so column 0 is the record id).
    #[test]
    fn each_record_lands_in_exactly_gamma_views(
        n in 1usize..300, beta in 1usize..80, gamma in 1usize..5, seed in 0u64..500,
    ) {
        let store = Arc::new(RowStore::from_rows(&rows(n)));
        let plan = plan_for(n, beta, gamma, seed);
        let mut counts = vec![0usize; n];
        for view in plan.views(&store) {
            for row in view.iter() {
                let id = row[0] as usize;
                prop_assert_eq!(row[1], (2 * id) as f64);
                counts[id] += 1;
            }
        }
        prop_assert!(counts.iter().all(|&c| c == gamma));
    }
}
