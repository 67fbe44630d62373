//! `explain` ↔ `run` agreement.
//!
//! A dry run and a charged run of the same spec resolve the same plan,
//! so they must report the same block size β, resampling factor γ,
//! total ε and Theorem 1 split. The block count ℓ must match too on
//! record-level data; on group-atomic data (§8.1) the packing depends on
//! private group sizes, so the dry run reports an upper bound.

use gupt::core::explain::BudgetSplit;
use gupt::core::output_range::RangeTranslator;
use gupt::core::prelude::*;
use proptest::prelude::*;
use std::sync::Arc;

/// c0 = a value in 20..60, c1 = a user id with four records per user.
fn table(grouped: bool) -> Dataset {
    let rows: Vec<Vec<f64>> = (0..750)
        .map(|i| vec![20.0 + (i % 40) as f64, (i / 4) as f64])
        .collect();
    let ds = Dataset::new(rows).unwrap().with_aged_fraction(0.2).unwrap();
    if grouped {
        ds.with_group_column(1).unwrap()
    } else {
        ds
    }
}

fn range(lo: f64, hi: f64) -> OutputRange {
    OutputRange::new(lo, hi).unwrap()
}

fn range_mode(index: usize) -> RangeEstimation {
    match index {
        0 => RangeEstimation::Tight(vec![range(0.0, 100.0)]),
        1 => RangeEstimation::Loose(vec![range(0.0, 1000.0)]),
        _ => {
            let translate: RangeTranslator = Arc::new(|inputs: &[OutputRange]| vec![inputs[0]]);
            RangeEstimation::Helper {
                input_ranges: vec![range(0.0, 1000.0), range(0.0, 1000.0)],
                translate,
            }
        }
    }
}

/// The Theorem 1 split a run spending `eps` uses: everything to
/// aggregation for tight ranges, half to estimating the output range
/// (loose, over p = 1 output) or the k = 2 input ranges (helper).
fn theorem1_split(mode: usize, eps: f64) -> BudgetSplit {
    let (range_estimation_per_dim, range_estimation_dims) = match mode {
        0 => (0.0, 0),
        1 => (eps / 2.0, 1),
        _ => (eps / 2.0 / 2.0, 2),
    };
    BudgetSplit {
        aggregation_per_dim: if mode == 0 { eps } else { eps / 2.0 },
        range_estimation_per_dim,
        range_estimation_dims,
    }
}

proptest! {
    #[test]
    fn explain_reports_what_run_executes(
        mode in 0usize..3,
        beta in 0usize..3,
        fixed in 10usize..80,
        gamma in 1usize..=3,
        goal in any::<bool>(),
        eps in 0.1f64..4.0,
        grouped in any::<bool>(),
        seed in 0u64..1_000,
    ) {
        let rt = GuptRuntimeBuilder::new()
            .register("t", table(grouped), Epsilon::new(1e9).unwrap())
            .unwrap()
            .seed(seed)
            .build();
        let mut spec = QuerySpec::view_program(|b: &BlockView| {
            vec![b.iter().map(|r| r[0]).sum::<f64>() / b.len().max(1) as f64]
        })
        .resampling(gamma)
        .range_estimation(range_mode(mode));
        spec = match beta {
            0 => spec,
            1 => spec.fixed_block_size(fixed),
            _ => spec.optimized_block_size(),
        };
        spec = if goal {
            spec.accuracy_goal(AccuracyGoal::new(0.5, 0.9).unwrap())
        } else {
            spec.epsilon(Epsilon::new(eps).unwrap())
        };

        let (plan, _) = rt.explain("t", &spec).unwrap();
        let answer = rt.run("t", spec).unwrap();
        prop_assert_eq!(plan.block_size, answer.block_size);
        prop_assert_eq!(plan.gamma, answer.gamma);
        prop_assert_eq!(plan.epsilon.to_bits(), answer.epsilon_spent.to_bits());
        prop_assert_eq!(plan.split, theorem1_split(mode, answer.epsilon_spent));
        prop_assert_eq!(plan.user_level, grouped);
        if grouped {
            prop_assert!(answer.num_blocks <= plan.num_blocks);
        } else {
            prop_assert_eq!(plan.num_blocks, answer.num_blocks);
        }
    }
}
