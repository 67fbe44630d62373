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
//!
//! A third pins the segmented store: registered rows plus appended and
//! aged chunks read, and hash, exactly like the same rows registered in
//! one piece.

use gupt::core::stream::window_epoch;
use gupt::core::{
    partition_range, BlockPlan, Dataset, DatasetManager, GuptRuntimeBuilder, QuerySpec,
    RangeEstimation,
};
use gupt::dp::{Epsilon, OutputRange};
use gupt::sandbox::{BlockView, RowStore, CHUNK_ROWS};
use proptest::prelude::*;
use rand::{rngs::StdRng, RngExt, SeedableRng};
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

    // A store grown by appends spanning at least three chunks — some
    // made while snapshots hold the store — and an aged store grown over
    // many aging steps read like nested-vector references, through
    // `row`, `iter_rows`, `to_rows` and views, and hash like the same
    // rows registered in one piece.
    #[test]
    fn segmented_stores_read_and_hash_like_one_piece(
        registered in 1usize..1_500, arity in 1usize..4, seed in 0u64..1_000_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let row = |i: usize| -> Vec<f64> {
            (0..arity).map(|d| (i * 31 + d) as f64 * 0.25 - 7.0).collect()
        };
        let mut reference: Vec<Vec<f64>> = (0..registered).map(row).collect();
        let mut ds = Dataset::new(reference.clone()).unwrap();
        let mut snapshots = Vec::new();
        let mut aged = 0;
        while ds.len() - registered <= 2 * CHUNK_ROWS {
            let delta: Vec<Vec<f64>> = (0..rng.random_range(1usize..1_500))
                .map(|k| row(reference.len() + k))
                .collect();
            if snapshots.is_empty() || rng.random_bool(0.3) {
                snapshots.push(ds.clone());
            }
            ds.append_rows_in_place(&delta).unwrap();
            reference.extend(delta);
            for _ in 0..rng.random_range(0usize..4) {
                let to = rng.random_range(aged..(aged + 1_400).min(ds.len()) + 1);
                ds.age_rows(aged, to).unwrap();
                aged = to;
            }
        }
        let check = |store: &Arc<RowStore>, rows: &[Vec<f64>], rng: &mut StdRng| {
            assert_eq!(store.len(), rows.len());
            for (i, r) in rows.iter().enumerate() {
                assert_eq!(store.row(i), r.as_slice(), "row {i}");
            }
            assert!(store.iter_rows().eq(rows.iter().map(Vec::as_slice)));
            if rows.is_empty() {
                return;
            }
            let start = rng.random_range(0..rows.len());
            let len = rng.random_range(0..rows.len() - start + 1);
            let dense = BlockView::dense(Arc::clone(store), start, len);
            assert!(dense.iter().eq(rows[start..start + len].iter().map(Vec::as_slice)));
            if len > 0 {
                assert_eq!(dense.row(len - 1), rows[start + len - 1].as_slice());
            }
            let idx: Vec<usize> = (0..200).map(|_| rng.random_range(0..rows.len())).collect();
            let sparse = BlockView::sparse(Arc::clone(store), Arc::from(idx.clone()));
            for (k, (&i, got)) in idx.iter().zip(sparse.iter()).enumerate() {
                assert_eq!(got, rows[i].as_slice());
                assert_eq!(sparse.row(k), got);
            }
            let picked: Vec<Vec<f64>> = idx.iter().map(|&i| rows[i].clone()).collect();
            assert_eq!(sparse.to_rows(), picked);
        };
        check(ds.store(), &reference, &mut rng);
        check(ds.aged_store(), &reference[..aged], &mut rng);
        prop_assert_eq!(&ds.store().to_rows(), &reference);
        prop_assert_eq!(ds.aged_store().to_rows(), &reference[..aged]);
        for snap in &snapshots {
            check(snap.store(), &reference[..snap.len()], &mut rng);
        }

        // Window fingerprints: chunked store vs one flat segment.
        let flat = RowStore::from_rows(&reference);
        prop_assert!(**ds.store() == flat, "equal rows, equal stores");
        for _ in 0..4 {
            let start = rng.random_range(0..reference.len());
            let end = rng.random_range(start..(start + 3 * CHUNK_ROWS / 2).min(reference.len()) + 1);
            prop_assert_eq!(
                window_epoch(ds.store(), start, end),
                window_epoch(&flat, start, end)
            );
        }
        // Registration epochs: chunked main and aged stores vs both
        // registered in one piece.
        let aged_rows = reference[..aged].to_vec();
        let one_piece = Dataset::new(reference)
            .unwrap()
            .with_aged_rows(aged_rows)
            .unwrap();
        let mut manager = DatasetManager::new();
        let budget = Epsilon::new(1.0).unwrap();
        manager.add("chunked", ds.builder().budget(budget)).unwrap();
        manager.add("flat", one_piece.builder().budget(budget)).unwrap();
        prop_assert_eq!(
            manager.get("chunked").unwrap().epoch(),
            manager.get("flat").unwrap().epoch()
        );
    }
}
