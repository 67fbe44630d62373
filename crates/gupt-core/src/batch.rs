//! Multi-query batches with automatic budget distribution (§5.2).
//!
//! An analyst rarely asks one question. Given a *shared* budget ε and a
//! set of queries, GUPT allocates εᵢ = ζᵢ/Σζⱼ·ε where ζᵢ is query i's
//! Laplace-scale numerator (γᵢ·sᵢ/ℓᵢ), equalising the absolute noise
//! across queries — Example 4's average/variance pair gets a 1 : max
//! split instead of the wasteful 1 : 1.
//!
//! The batch is planned *before* anything is charged: block plans are
//! resolved per query, the noise profiles computed, the allocation
//! derived, and only then is the **whole** batch budget debited from the
//! dataset ledger in one atomic charge. The single charge is what makes
//! batches safe under the concurrent runtime: a racing query can land
//! before or after the batch, but never between two of its members, so
//! a batch either owns its full allocation or fails closed without
//! spending anything.

use crate::budget_distribution::{distribute_budget, QueryNoiseProfile};
use crate::cache::QueryFingerprint;
use crate::error::GuptError;
use crate::query::{BudgetSpec, QuerySpec};
use crate::runtime::{GuptRuntime, PrivateAnswer};
use gupt_dp::Epsilon;

/// The result of a batch run: per-query answers plus the allocation.
#[derive(Debug)]
pub struct BatchAnswer {
    /// Per-query private answers, in submission order.
    pub answers: Vec<PrivateAnswer>,
    /// The ε charged for each query. `0.0` marks a member served from
    /// the answer cache — its answer was already released, so it
    /// received no share of the batch budget.
    pub allocations: Vec<f64>,
}

impl GuptRuntime {
    /// Runs `queries` against `dataset`, splitting `total_budget` across
    /// them with the §5.2 noise-equalising rule.
    ///
    /// Each member is planned exactly as [`GuptRuntime::run`] plans it,
    /// on one row snapshot shared by the whole batch, and its ζᵢ comes
    /// from that plan's range width and block count. An `Optimized`
    /// member's β is optimized at its own spec ε before the split, the
    /// provisional-ε rule accuracy goals use. Accuracy-goal budgets are
    /// rejected — a goal already implies its own ε, so it cannot also
    /// receive a share of a common budget.
    ///
    /// The ledger sees the batch as **one** charge of `total_budget`,
    /// debited atomically after every member has been planned, so a
    /// member `run` would refuse fails the batch before anything is
    /// spent. An error while executing a member after the debit leaves
    /// the budget spent — fail-closed, like any charged query.
    pub fn run_batch(
        &self,
        dataset: &str,
        queries: Vec<QuerySpec>,
        total_budget: Epsilon,
    ) -> Result<BatchAnswer, GuptError> {
        self.run_batch_as(dataset, None, queries, total_budget)
    }

    /// Like [`GuptRuntime::run_batch`], attributing the batch's single
    /// atomic debit to a registered principal's quota.
    pub fn run_batch_as(
        &self,
        dataset: &str,
        principal: Option<&str>,
        queries: Vec<QuerySpec>,
        total_budget: Epsilon,
    ) -> Result<BatchAnswer, GuptError> {
        if queries.is_empty() {
            return Err(GuptError::InvalidSpec("empty query batch".into()));
        }
        if queries
            .iter()
            .any(|spec| matches!(spec.budget(), BudgetSpec::Accuracy(_)))
        {
            return Err(GuptError::InvalidSpec(
                "batch queries must not carry accuracy goals; \
                 the batch distributes an explicit shared budget"
                    .into(),
            ));
        }
        let snap = self.snapshot(dataset)?;
        let mut plans = queries
            .iter()
            .map(|spec| self.plan(&snap, spec, None))
            .collect::<Result<Vec<_>, _>>()?;
        let profiles: Vec<QueryNoiseProfile> = plans
            .iter()
            .map(|plan| QueryNoiseProfile {
                output_width: plan.ranges.iter().map(|r| r.width()).fold(0.0, f64::max),
                num_blocks: plan.num_blocks,
                gamma: plan.gamma,
            })
            .collect();
        let shares = distribute_budget(total_budget, &profiles)?;

        // Split hits from misses *before* charging: each member is
        // fingerprinted with its allocated share, and a hit is pulled
        // from the cache now — not peeked — so an eviction between
        // planning and execution can never leave a member both
        // uncharged and uncached. (A concurrent insert that would have
        // made a charged member a hit is a safe over-charge.)
        let mut cached: Vec<Option<PrivateAnswer>> = Vec::with_capacity(plans.len());
        let mut miss_total = 0.0;
        for (plan, &share) in plans.iter_mut().zip(&shares) {
            plan.reallocate(share)?;
            plan.fingerprint =
                QueryFingerprint::compute_with_epsilon(dataset, snap.epoch, plan.spec, share);
            let hit = plan.fingerprint.and_then(|fp| self.cache.lookup(fp));
            if hit.is_none() {
                miss_total += share.value();
            }
            cached.push(hit);
        }
        let misses = cached.iter().filter(|c| c.is_none()).count();

        // One atomic debit covering exactly the miss set: the full
        // budget when nothing hit (bit-identical to the pre-cache
        // behaviour), the sum of miss shares on a partial hit, and
        // nothing at all when every member replays from the cache. The
        // first executed member carries it, so it is debited before any
        // member reads a row.
        let mut debit = if misses == plans.len() {
            Some(total_budget)
        } else if miss_total > 0.0 {
            Some(Epsilon::new(miss_total).map_err(GuptError::Dp)?)
        } else {
            None
        };
        let mut answers = Vec::with_capacity(plans.len());
        let mut allocations = Vec::with_capacity(plans.len());
        for ((mut plan, share), hit) in plans.into_iter().zip(shares).zip(cached) {
            let (allocation, answer) = match hit {
                Some(answer) => (0.0, answer),
                None => {
                    plan.charge = debit.take();
                    plan.principal = principal;
                    (share.value(), self.execute(plan)?)
                }
            };
            allocations.push(allocation);
            answers.push(answer);
        }
        Ok(BatchAnswer {
            answers,
            allocations,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::output_range::RangeEstimation;
    use crate::runtime::GuptRuntimeBuilder;
    use gupt_dp::OutputRange;

    fn eps(v: f64) -> Epsilon {
        Epsilon::new(v).unwrap()
    }

    fn range(lo: f64, hi: f64) -> OutputRange {
        OutputRange::new(lo, hi).unwrap()
    }

    /// Ages 0..100 with a known mean and variance.
    fn rows() -> Vec<Vec<f64>> {
        (0..4000).map(|i| vec![(i % 100) as f64]).collect()
    }

    fn mean_spec() -> QuerySpec {
        QuerySpec::program(|b: &[Vec<f64>]| {
            vec![b.iter().map(|r| r[0]).sum::<f64>() / b.len().max(1) as f64]
        })
        .fixed_block_size(10)
        .range_estimation(RangeEstimation::Tight(vec![range(0.0, 100.0)]))
    }

    fn variance_spec() -> QuerySpec {
        // Unbiased (n-1) sample variance: with the /n convention each
        // β-row block would under-estimate by σ²/β, and that estimation
        // bias (not noise) would dominate the aggregate.
        QuerySpec::program(|b: &[Vec<f64>]| {
            let n = b.len() as f64;
            if b.len() < 2 {
                return vec![0.0];
            }
            let m = b.iter().map(|r| r[0]).sum::<f64>() / n;
            vec![b.iter().map(|r| (r[0] - m).powi(2)).sum::<f64>() / (n - 1.0)]
        })
        // Variance range is ~max² (Example 4).
        .fixed_block_size(10)
        .range_estimation(RangeEstimation::Tight(vec![range(0.0, 10_000.0)]))
    }

    #[test]
    fn example_4_allocation_is_proportional_to_range() {
        let rt = GuptRuntimeBuilder::new()
            .register_dataset("ages", rows(), eps(100.0))
            .unwrap()
            .seed(1)
            .build();
        let batch = rt
            .run_batch("ages", vec![mean_spec(), variance_spec()], eps(4.0))
            .unwrap();
        assert_eq!(batch.answers.len(), 2);
        // ε_variance : ε_mean = 10000 : 100 = 100 : 1.
        let ratio = batch.allocations[1] / batch.allocations[0];
        assert!((ratio - 100.0).abs() < 1e-6, "ratio = {ratio}");
        // Whole budget spent (one atomic ledger charge for the batch).
        assert!((rt.remaining_budget("ages").unwrap() - 96.0).abs() < 1e-9);
        // Both answers in the ballpark (equalised noise scale ≈ 6.3).
        assert!((batch.answers[0].values[0] - 49.5).abs() < 30.0);
        assert!((batch.answers[1].values[0] - 833.25).abs() < 60.0);
    }

    #[test]
    fn batch_noise_is_equalised() {
        // With the §5.2 split both queries share one Laplace scale
        // (≈6.3 here); an even split leaves the variance query at scale
        // 12.5 — measurably worse.
        let noise_spread = |even: bool| -> (f64, f64) {
            let trials = 40;
            let mut errs = (0.0, 0.0);
            for t in 0..trials {
                let rt = GuptRuntimeBuilder::new()
                    .register_dataset("ages", rows(), eps(1e9))
                    .unwrap()
                    .seed(1000 + t)
                    .build();
                let (m, v) = if even {
                    let half = eps(2.0);
                    let m = rt.run("ages", mean_spec().epsilon(half)).unwrap();
                    let v = rt.run("ages", variance_spec().epsilon(half)).unwrap();
                    (m, v)
                } else {
                    let batch = rt
                        .run_batch("ages", vec![mean_spec(), variance_spec()], eps(4.0))
                        .unwrap();
                    let mut it = batch.answers.into_iter();
                    (it.next().unwrap(), it.next().unwrap())
                };
                errs.0 += (m.values[0] - 49.5).abs();
                errs.1 += (v.values[0] - 833.25).abs();
            }
            (errs.0 / trials as f64, errs.1 / trials as f64)
        };
        let (_, var_err_even) = noise_spread(true);
        let (_, var_err_prop) = noise_spread(false);
        assert!(
            var_err_prop < var_err_even / 1.4,
            "proportional split should slash variance error: {var_err_prop} vs {var_err_even}"
        );
    }

    #[test]
    fn empty_batch_rejected() {
        let rt = GuptRuntimeBuilder::new()
            .register_dataset("ages", rows(), eps(10.0))
            .unwrap()
            .build();
        assert!(rt.run_batch("ages", Vec::new(), eps(1.0)).is_err());
    }

    #[test]
    fn accuracy_goal_queries_rejected_in_batch() {
        let rt = GuptRuntimeBuilder::new()
            .register_dataset("ages", rows(), eps(10.0))
            .unwrap()
            .build();
        let goal_spec = mean_spec()
            .accuracy_goal(crate::budget_estimator::AccuracyGoal::new(0.9, 0.9).unwrap());
        let err = rt.run_batch("ages", vec![goal_spec], eps(1.0)).unwrap_err();
        assert!(matches!(err, GuptError::InvalidSpec(_)));
    }

    #[test]
    fn batch_respects_ledger() {
        let rt = GuptRuntimeBuilder::new()
            .register_dataset("ages", rows(), eps(1.0))
            .unwrap()
            .seed(3)
            .build();
        // First batch of 0.8 fits; the second's atomic charge must fail
        // closed and spend nothing at all.
        rt.run_batch("ages", vec![mean_spec(), variance_spec()], eps(0.8))
            .unwrap();
        let before = rt.remaining_budget("ages").unwrap();
        let err = rt
            .run_batch("ages", vec![mean_spec(), variance_spec()], eps(0.8))
            .unwrap_err();
        assert!(matches!(err, GuptError::Dp(_)));
        assert_eq!(rt.remaining_budget("ages").unwrap(), before);
    }

    fn named_mean_spec() -> QuerySpec {
        QuerySpec::builder()
            .view(|b: &crate::BlockView| {
                vec![b.iter().map(|r| r[0]).sum::<f64>() / b.len().max(1) as f64]
            })
            .identity("batch-mean-age", 1)
            .fixed_block_size(10)
            .range_estimation(RangeEstimation::Tight(vec![range(0.0, 100.0)]))
            .build()
            .unwrap()
    }

    #[test]
    fn repeated_batch_replays_from_cache_for_free() {
        let rt = GuptRuntimeBuilder::new()
            .register_dataset("ages", rows(), eps(10.0))
            .unwrap()
            .seed(5)
            .build();
        let first = rt
            .run_batch("ages", vec![named_mean_spec()], eps(2.0))
            .unwrap();
        let after_first = rt.remaining_budget("ages").unwrap();
        let second = rt
            .run_batch("ages", vec![named_mean_spec()], eps(2.0))
            .unwrap();
        // Fully cached batch: zero debit, zero allocation, bit-identical
        // answer.
        assert_eq!(rt.remaining_budget("ages").unwrap(), after_first);
        assert_eq!(second.allocations, vec![0.0]);
        assert_eq!(second.answers[0].values, first.answers[0].values);
        assert_eq!(
            second.answers[0].epsilon_spent,
            first.answers[0].epsilon_spent
        );
    }

    #[test]
    fn partial_hit_batch_charges_only_the_miss_share() {
        let rt = GuptRuntimeBuilder::new()
            .register_dataset("ages", rows(), eps(100.0))
            .unwrap()
            .seed(6)
            .build();
        // Warm the cache with the named member at the share it will get
        // inside the batch below (ζ-proportional: 100 : 10000 of ε=4).
        let batch = rt
            .run_batch("ages", vec![named_mean_spec(), variance_spec()], eps(4.0))
            .unwrap();
        let after_first = rt.remaining_budget("ages").unwrap();
        // Re-run: the named member hits, the anonymous variance query
        // cannot be fingerprinted and must be re-charged its own share.
        let second = rt
            .run_batch("ages", vec![named_mean_spec(), variance_spec()], eps(4.0))
            .unwrap();
        assert_eq!(second.allocations[0], 0.0);
        assert!((second.allocations[1] - batch.allocations[1]).abs() < 1e-12);
        let spent = after_first - rt.remaining_budget("ages").unwrap();
        assert!(
            (spent - batch.allocations[1]).abs() < 1e-9,
            "only the miss share should be debited: spent {spent}, share {}",
            batch.allocations[1]
        );
        assert_eq!(second.answers[0].values, batch.answers[0].values);
    }

    #[test]
    fn members_run_refuses_fail_before_the_batch_debit() {
        let rt = GuptRuntimeBuilder::new()
            .dataset(
                "ages",
                crate::dataset::Dataset::new(rows())
                    .unwrap()
                    .builder()
                    .budget(eps(10.0))
                    .principal("alice", 5.0),
            )
            .unwrap()
            .seed(8)
            .build();
        let two_ranges = mean_spec().range_estimation(RangeEstimation::Tight(vec![
            range(0.0, 100.0),
            range(0.0, 100.0),
        ]));
        for bad in [
            mean_spec().fixed_block_size(0),
            two_ranges,
            mean_spec().optimized_block_size(),
        ] {
            let expected = rt.run("ages", bad.clone().epsilon(eps(1.0))).unwrap_err();
            let err = rt
                .run_batch_as("ages", Some("alice"), vec![mean_spec(), bad], eps(2.0))
                .unwrap_err();
            assert_eq!(err.to_string(), expected.to_string());
            assert_eq!(rt.remaining_budget("ages").unwrap(), 10.0);
            let alice = rt.principal_state("ages", "alice").unwrap();
            assert_eq!((alice.spent, alice.queries), (0.0, 0));
        }
    }

    #[test]
    fn noise_profiles_use_the_executed_block_plan() {
        let ds = crate::dataset::Dataset::new(rows())
            .unwrap()
            .with_aged_fraction(0.2)
            .unwrap();
        let rt = GuptRuntimeBuilder::new()
            .register("ages", ds, eps(100.0))
            .unwrap()
            .seed(9)
            .build();
        let members = vec![
            mean_spec().optimized_block_size(),
            variance_spec(),
            mean_spec().resampling(2),
        ];
        let planned: Vec<usize> = members
            .iter()
            .map(|spec| rt.explain("ages", spec).unwrap().0.block_size)
            .collect();
        let batch = rt.run_batch("ages", members.clone(), eps(4.0)).unwrap();
        let profiles: Vec<QueryNoiseProfile> = [100.0, 10_000.0, 100.0]
            .into_iter()
            .zip(&batch.answers)
            .map(|(output_width, answer)| QueryNoiseProfile {
                output_width,
                num_blocks: answer.num_blocks,
                gamma: answer.gamma,
            })
            .collect();
        let shares: Vec<f64> = distribute_budget(eps(4.0), &profiles)
            .unwrap()
            .iter()
            .map(|e| e.value())
            .collect();
        assert_eq!(batch.allocations, shares);
        let executed: Vec<usize> = batch.answers.iter().map(|a| a.block_size).collect();
        assert_eq!(executed, planned);
    }

    #[test]
    fn single_query_batch_gets_everything() {
        let rt = GuptRuntimeBuilder::new()
            .register_dataset("ages", rows(), eps(10.0))
            .unwrap()
            .seed(4)
            .build();
        let batch = rt.run_batch("ages", vec![mean_spec()], eps(2.0)).unwrap();
        assert!((batch.allocations[0] - 2.0).abs() < 1e-12);
        assert_eq!(batch.answers[0].epsilon_spent, 2.0);
    }
}
