//! Query planning without execution ("dry run").
//!
//! Before spending irreversible budget, an analyst can ask the runtime
//! what a query *would* do: the block plan, the Theorem 1 budget splits,
//! and the predicted Laplace noise scale per output dimension. The
//! answer is read off the same plan `run` executes, built from the spec,
//! dataset metadata (sizes, declared ranges) and aged rows — never
//! private values — so it is free.

use crate::error::GuptError;
use crate::plan::Partition;
use crate::query::QuerySpec;
use crate::runtime::GuptRuntime;
use crate::telemetry::TelemetryReport;
use std::fmt;

/// The per-stage budget split a query would use.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BudgetSplit {
    /// ε available to the aggregation step, per output dimension.
    pub aggregation_per_dim: f64,
    /// ε spent on range estimation, per estimated dimension (0 for
    /// `GUPT-tight`).
    pub range_estimation_per_dim: f64,
    /// Number of dimensions charged for range estimation (output dims
    /// for loose, input dims for helper).
    pub range_estimation_dims: usize,
}

/// A dry-run query plan.
///
/// On a dataset with a group column (user-level privacy, §8.1) blocks
/// pack whole groups, so the real block count depends on private group
/// sizes: there `num_blocks` is the upper bound `γ·⌈n/β⌉` and
/// `noise_std_per_dim` a lower bound. Elsewhere both are exact.
#[derive(Debug, Clone)]
pub struct QueryPlan {
    /// Total ε the query would charge.
    pub epsilon: f64,
    /// Block size β.
    pub block_size: usize,
    /// Number of blocks ℓ (γ rounds included); an upper bound on
    /// group-atomic data.
    pub num_blocks: usize,
    /// Resampling factor γ.
    pub gamma: usize,
    /// Whether user-level (group-atomic) partitioning applies.
    pub user_level: bool,
    /// The Theorem 1 split.
    pub split: BudgetSplit,
    /// Predicted Laplace noise standard deviation per output dimension
    /// (`√2·γ·sᵈ/(ℓ·ε_dim)`), using planning-time range widths; a lower
    /// bound on group-atomic data.
    pub noise_std_per_dim: Vec<f64>,
}

impl fmt::Display for QueryPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "query plan:")?;
        writeln!(f, "  epsilon       : {}", self.epsilon)?;
        writeln!(
            f,
            "  blocks        : {} × ~{} rows (γ = {}{})",
            self.num_blocks,
            self.block_size,
            self.gamma,
            if self.user_level { ", user-level" } else { "" }
        )?;
        writeln!(
            f,
            "  budget split  : {:.6}/dim aggregation, {:.6}/dim range estimation ({} dims)",
            self.split.aggregation_per_dim,
            self.split.range_estimation_per_dim,
            self.split.range_estimation_dims
        )?;
        writeln!(f, "  noise std/dim : {:?}", self.noise_std_per_dim)
    }
}

impl GuptRuntime {
    /// Plans `spec` against `dataset` without executing anything or
    /// charging any budget.
    ///
    /// The plan is the one [`GuptRuntime::run`] would execute.
    /// Accuracy-goal budgets are resolved through the aged-data
    /// estimator, and an `Optimized` block size by running the §4.3
    /// optimizer on the aged rows; both are still free, since aged data
    /// is non-private.
    ///
    /// Always returns the [`TelemetryReport`] covering the planning-time
    /// stages (budget resolution and block planning — the only stages a
    /// dry run visits) alongside the plan; callers that only want the
    /// plan drop it. Like all telemetry it is operator-facing and
    /// outside the ε guarantee.
    pub fn explain(
        &self,
        dataset: &str,
        spec: &QuerySpec,
    ) -> Result<(QueryPlan, TelemetryReport), GuptError> {
        let snap = self.snapshot(dataset)?;
        let plan = self.plan(&snap, spec, None)?;
        let split = BudgetSplit {
            aggregation_per_dim: plan.split.aggregation.value(),
            range_estimation_per_dim: plan.split.estimation.map_or(0.0, |(e, _)| e.value()),
            range_estimation_dims: plan.split.estimation.map_or(0, |(_, dims)| dims),
        };
        let noise_std_per_dim = plan
            .ranges
            .iter()
            .map(|r| {
                std::f64::consts::SQRT_2 * plan.gamma as f64 * r.width()
                    / (plan.num_blocks as f64 * split.aggregation_per_dim)
            })
            .collect();
        let query_plan = QueryPlan {
            epsilon: plan.epsilon.value(),
            block_size: plan.block_size,
            num_blocks: plan.num_blocks,
            gamma: plan.gamma,
            user_level: plan.partition == Partition::Grouped,
            split,
            noise_std_per_dim,
        };
        let report = plan
            .telemetry(true)
            .finish(plan.planned_in)
            .expect("an enabled collector yields a report");
        Ok((query_plan, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Dataset;
    use crate::output_range::RangeEstimation;
    use crate::runtime::GuptRuntimeBuilder;
    use gupt_dp::Epsilon;
    use gupt_dp::OutputRange;

    fn eps(v: f64) -> Epsilon {
        Epsilon::new(v).unwrap()
    }

    fn range(lo: f64, hi: f64) -> OutputRange {
        OutputRange::new(lo, hi).unwrap()
    }

    fn rows(n: usize) -> Vec<Vec<f64>> {
        (0..n).map(|i| vec![(i % 50) as f64]).collect()
    }

    fn mean_spec() -> QuerySpec {
        QuerySpec::program(|b: &[Vec<f64>]| {
            vec![b.iter().map(|r| r[0]).sum::<f64>() / b.len().max(1) as f64]
        })
    }

    #[test]
    fn tight_plan_numbers() {
        let rt = GuptRuntimeBuilder::new()
            .register_dataset("t", rows(10_000), eps(10.0))
            .unwrap()
            .build();
        let spec = mean_spec()
            .epsilon(eps(2.0))
            .fixed_block_size(100)
            .range_estimation(RangeEstimation::Tight(vec![range(0.0, 50.0)]));
        let (plan, _) = rt.explain("t", &spec).unwrap();
        assert_eq!(plan.epsilon, 2.0);
        assert_eq!(plan.block_size, 100);
        assert_eq!(plan.num_blocks, 100);
        assert_eq!(plan.split.aggregation_per_dim, 2.0);
        assert_eq!(plan.split.range_estimation_dims, 0);
        // √2·50/(100·2) = 0.3535…
        assert!((plan.noise_std_per_dim[0] - 0.35355).abs() < 1e-4);
        assert!(!plan.user_level);
        // Nothing was charged.
        assert_eq!(rt.remaining_budget("t").unwrap(), 10.0);
    }

    #[test]
    fn loose_plan_halves_budget() {
        let rt = GuptRuntimeBuilder::new()
            .register_dataset("t", rows(10_000), eps(10.0))
            .unwrap()
            .build();
        let spec = mean_spec()
            .epsilon(eps(2.0))
            .range_estimation(RangeEstimation::Loose(vec![range(0.0, 500.0)]));
        let (plan, _) = rt.explain("t", &spec).unwrap();
        assert_eq!(plan.split.aggregation_per_dim, 1.0);
        assert_eq!(plan.split.range_estimation_per_dim, 1.0);
        assert_eq!(plan.split.range_estimation_dims, 1);
    }

    #[test]
    fn plan_matches_execution() {
        let rt = GuptRuntimeBuilder::new()
            .register_dataset("t", rows(5_000), eps(10.0))
            .unwrap()
            .seed(3)
            .build();
        let spec = mean_spec()
            .epsilon(eps(1.0))
            .fixed_block_size(50)
            .resampling(2)
            .range_estimation(RangeEstimation::Tight(vec![range(0.0, 50.0)]));
        let (plan, _) = rt.explain("t", &spec).unwrap();
        let answer = rt.run("t", spec).unwrap();
        assert_eq!(plan.block_size, answer.block_size);
        assert_eq!(plan.num_blocks, answer.num_blocks);
        assert_eq!(plan.gamma, answer.gamma);
        assert_eq!(plan.epsilon, answer.epsilon_spent);
    }

    #[test]
    fn user_level_flag_reflected() {
        let dataset = Dataset::new((0..100).map(|i| vec![(i % 10) as f64]).collect::<Vec<_>>())
            .unwrap()
            .with_group_column(0)
            .unwrap();
        let rt = GuptRuntimeBuilder::new()
            .register("u", dataset, eps(1.0))
            .unwrap()
            .build();
        let spec = mean_spec()
            .epsilon(eps(0.5))
            .range_estimation(RangeEstimation::Tight(vec![range(0.0, 10.0)]));
        assert!(rt.explain("u", &spec).unwrap().0.user_level);
    }

    #[test]
    fn display_renders() {
        let rt = GuptRuntimeBuilder::new()
            .register_dataset("t", rows(1_000), eps(1.0))
            .unwrap()
            .build();
        let spec = mean_spec()
            .epsilon(eps(0.5))
            .range_estimation(RangeEstimation::Tight(vec![range(0.0, 50.0)]));
        let text = rt.explain("t", &spec).unwrap().0.to_string();
        assert!(text.contains("query plan"), "{text}");
        assert!(text.contains("noise std"), "{text}");
    }

    #[test]
    fn traced_plan_reports_planning_stages() {
        use crate::telemetry::Stage;
        let rt = GuptRuntimeBuilder::new()
            .register_dataset("t", rows(1_000), eps(1.0))
            .unwrap()
            .build();
        let spec = mean_spec()
            .epsilon(eps(0.5))
            .range_estimation(RangeEstimation::Tight(vec![range(0.0, 50.0)]));
        let (plan, report) = rt.explain("t", &spec).unwrap();
        assert_eq!(plan.epsilon, 0.5);
        // A dry run visits exactly the two planning stages.
        assert!(report.stage(Stage::BlockPlanning).is_some());
        assert!(report.stage(Stage::BudgetResolution).is_some());
        assert!(report.stage(Stage::ChamberExecution).is_none());
        // And charges nothing.
        assert_eq!(rt.remaining_budget("t").unwrap(), 1.0);
    }

    #[test]
    fn missing_mode_rejected() {
        let rt = GuptRuntimeBuilder::new()
            .register_dataset("t", rows(100), eps(1.0))
            .unwrap()
            .build();
        assert!(rt.explain("t", &mean_spec()).is_err());
    }
}
