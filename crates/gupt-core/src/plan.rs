//! The one query pipeline: every entry point resolves a [`Plan`], and
//! one [`GuptRuntime::execute`] runs it (§3.1, Algorithm 1).
//!
//! [`GuptRuntime::plan`] reads a captured row snapshot's metadata and
//! the spec, and resolves the block size β (paper default, fixed, or the
//! §4.3 optimum on aged data), γ, the total ε (explicit, or the §5.1
//! accuracy-goal estimate on aged data) and the Theorem 1 split. It
//! reads no private value, so planning is free. `execute` then performs
//! the stages in one fixed order: charge → seed draw → partition →
//! chambers → range resolution → aggregation → cache journal →
//! telemetry finish.
//!
//! Callers differ only in how they fill in a plan: `run` charges the
//! ledger (for a principal, under a service deadline cap); a §5.2 batch
//! plans every member before its one debit and executes the plans
//! precharged; `poll_window` plans one window's row range and journals
//! under the window's content hash; `explain` and
//! `estimate_epsilon_for` read a plan and never execute it. Hence the ε
//! a query is charged and the β, ℓ and split a dry run reports come from
//! the same code, and `execute` is the single place that debits ε.

use crate::aggregator::aggregate;
use crate::block_size::optimal_block_size;
use crate::blocks::{default_block_size, partition_grouped, partition_range};
use crate::budget_estimator::estimate_epsilon;
use crate::cache::QueryFingerprint;
use crate::computation_manager::ExecutionSummary;
use crate::dataset::Dataset;
use crate::dataset_manager::DatasetEntry;
use crate::error::GuptError;
use crate::output_range::{resolve_helper, resolve_loose, RangeEstimation};
use crate::query::{BlockSizeSpec, BudgetSpec, QuerySpec};
use crate::runtime::{GuptRuntime, PrivateAnswer};
use crate::storage::CacheRecord;
use crate::telemetry::{LedgerEvent, QueryTelemetry, Stage};
use gupt_dp::{Epsilon, OutputRange};
use rand::{rngs::StdRng, SeedableRng};
use std::time::{Duration, Instant};

/// A dataset's rows and epoch, captured under one lock. Every plan of
/// one call reads these rows and journals under this epoch, so an append
/// racing the call neither perturbs a block plan nor re-keys an answer.
pub(crate) struct Snapshot<'a> {
    pub(crate) name: &'a str,
    pub(crate) entry: &'a DatasetEntry,
    pub(crate) ds: Dataset,
    pub(crate) epoch: u64,
}

/// How [`GuptRuntime::execute`] cuts the snapshot into blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Partition {
    /// Records `start..end`: the whole table, or one stream window.
    Range(usize, usize),
    /// Whole groups per block, for user-level privacy (§8.1).
    Grouped,
}

/// Theorem 1's division of a query's ε.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Split {
    /// ε per output dimension for aggregation.
    pub(crate) aggregation: Epsilon,
    /// ε per estimated range and the number of ranges estimated: the p
    /// outputs for GUPT-loose, the k inputs for GUPT-helper, none for
    /// GUPT-tight.
    pub(crate) estimation: Option<(Epsilon, usize)>,
}

impl Split {
    /// Tight ranges leave all of `eps` to aggregation (ε/p per output).
    /// Estimating `estimated` ranges takes half of it, ε/(2·dims) each,
    /// and leaves ε/(2p) per output to aggregation.
    fn new(eps: Epsilon, p: usize, estimated: Option<usize>) -> Result<Split, GuptError> {
        let per_dim = |e: Epsilon, dims: usize| e.split(dims).map_err(GuptError::Dp);
        Ok(match estimated {
            None => Split {
                aggregation: per_dim(eps, p)?,
                estimation: None,
            },
            Some(dims) => Split {
                aggregation: per_dim(eps.halve(), p)?,
                estimation: Some((per_dim(eps.halve(), dims)?, dims)),
            },
        })
    }
}

/// A fully resolved query: everything [`GuptRuntime::execute`] needs,
/// decided before any ε is charged or any private row is read.
pub(crate) struct Plan<'a> {
    pub(crate) snap: &'a Snapshot<'a>,
    pub(crate) spec: &'a QuerySpec,
    pub(crate) partition: Partition,
    pub(crate) block_size: usize,
    pub(crate) gamma: usize,
    /// γ·⌈n/β⌉. Exact for a range partition; an upper bound for a
    /// grouped one, whose real count depends on the private group sizes
    /// and the shuffle, which planning must not read.
    pub(crate) num_blocks: usize,
    /// Planning-time ranges: tight and loose as given, helper translated
    /// from the loose input ranges.
    pub(crate) ranges: Vec<OutputRange>,
    pub(crate) epsilon: Epsilon,
    pub(crate) split: Split,
    /// What `execute` debits before reading any row, and whose quota it
    /// is attributed to. A plan charges its own ε; a batch's members
    /// carry its one debit on the first executed member and `None` on
    /// the rest.
    pub(crate) charge: Option<Epsilon>,
    pub(crate) principal: Option<&'a str>,
    /// Chamber kill bound derived from a service deadline. It applies
    /// only when the chamber policy sets no execution budget of its own.
    pub(crate) exec_cap: Option<Duration>,
    /// The released answer's cache key, and the epoch its WAL cache
    /// record is journaled under.
    pub(crate) fingerprint: Option<QueryFingerprint>,
    pub(crate) journal_epoch: u64,
    /// How long β and ε resolution took, and all of planning.
    pub(crate) stage_times: [Duration; 2],
    pub(crate) planned_in: Duration,
}

impl Plan<'_> {
    /// A telemetry collector holding the planning stages.
    pub(crate) fn telemetry(&self, collect: bool) -> QueryTelemetry {
        let mut tel = QueryTelemetry::new(collect);
        tel.record_stage(Stage::BlockPlanning, self.stage_times[0]);
        tel.record_stage(Stage::BudgetResolution, self.stage_times[1]);
        tel
    }

    /// Re-points the plan at a batch member's share of the budget. β,
    /// and so the block count, stay as planned.
    pub(crate) fn reallocate(&mut self, eps: Epsilon) -> Result<(), GuptError> {
        let estimated = self.split.estimation.map(|(_, dims)| dims);
        self.split = Split::new(eps, self.spec.output_dimension(), estimated)?;
        self.epsilon = eps;
        Ok(())
    }
}

/// Checks what every plan needs from a spec, and returns its
/// planning-time ranges: a nonzero output dimension, a range mode with
/// one range per output, and a block size of at least 1.
pub(crate) fn planning_ranges(spec: &QuerySpec) -> Result<Vec<OutputRange>, GuptError> {
    let p = spec.output_dimension();
    if p == 0 {
        return Err(GuptError::InvalidSpec(
            "program declares zero output dimensions".into(),
        ));
    }
    let ranges = match spec.range_estimation.as_ref() {
        None => {
            return Err(GuptError::InvalidSpec(
                "no range-estimation mode chosen".into(),
            ))
        }
        Some(RangeEstimation::Tight(r) | RangeEstimation::Loose(r)) => r.clone(),
        Some(RangeEstimation::Helper {
            input_ranges,
            translate,
        }) => translate(input_ranges),
    };
    if ranges.len() != p {
        return Err(GuptError::DimensionMismatch {
            expected: p,
            got: ranges.len(),
        });
    }
    if spec.block_size_spec() == BlockSizeSpec::Fixed(0) {
        return Err(GuptError::InvalidSpec("block size must be ≥ 1".into()));
    }
    Ok(ranges)
}

impl GuptRuntime {
    /// Resolves `spec` against the snapshot: over the whole table, or
    /// over the row range `window` of a stream.
    ///
    /// An `Optimized` β is optimized at the spec's own ε, or at ε = 1
    /// for an accuracy goal, whose ε is then estimated at that β. Both
    /// runs use only the non-private aged rows.
    pub(crate) fn plan<'a>(
        &self,
        snap: &'a Snapshot<'a>,
        spec: &'a QuerySpec,
        window: Option<(usize, usize)>,
    ) -> Result<Plan<'a>, GuptError> {
        let started = Instant::now();
        let ds = &snap.ds;
        let (start, end) = window.unwrap_or((0, ds.len()));
        let n = end.saturating_sub(start);
        if n == 0 {
            return Err(GuptError::InvalidDataset("private table is empty".into()));
        }
        let ranges = planning_ranges(spec)?;
        let p = ranges.len();
        let aged = || {
            if ds.has_aged_data() {
                Ok(ds.aged_store())
            } else {
                Err(GuptError::NoAgedData(snap.name.to_string()))
            }
        };

        let block_size = match spec.block_size_spec() {
            BlockSizeSpec::Default => default_block_size(n),
            BlockSizeSpec::Fixed(b) => b.min(n),
            BlockSizeSpec::Optimized => {
                let provisional = match spec.budget() {
                    BudgetSpec::Epsilon(e) => e,
                    BudgetSpec::Accuracy(_) => Epsilon::new(1.0).expect("1.0 is a valid epsilon"),
                };
                let width = ranges.iter().map(|r| r.width()).fold(0.0, f64::max);
                let eps_per_dim = provisional.split(p).map_err(GuptError::Dp)?;
                optimal_block_size(
                    &self.computation,
                    &spec.program,
                    aged()?,
                    n,
                    width,
                    eps_per_dim,
                )?
                .block_size
                .clamp(1, n)
            }
        };
        let beta_time = started.elapsed();

        let stage = Instant::now();
        let epsilon = match spec.budget() {
            BudgetSpec::Epsilon(e) => e,
            BudgetSpec::Accuracy(goal) => estimate_epsilon(
                &self.computation,
                &spec.program,
                aged()?,
                &ranges,
                block_size,
                n,
                goal,
            )?,
        };
        let budget_time = stage.elapsed();

        let estimated = match spec.range_estimation.as_ref() {
            Some(RangeEstimation::Loose(_)) => Some(p),
            Some(RangeEstimation::Helper { .. }) => Some(ds.dimension()),
            _ => None,
        };
        let partition = match ds.group_column() {
            Some(_) if window.is_none() => Partition::Grouped,
            _ => Partition::Range(start, end),
        };
        Ok(Plan {
            snap,
            spec,
            partition,
            block_size,
            gamma: spec.gamma(),
            num_blocks: spec.gamma() * n.div_ceil(block_size),
            ranges,
            epsilon,
            split: Split::new(epsilon, p, estimated)?,
            charge: Some(epsilon),
            principal: None,
            exec_cap: None,
            fingerprint: None,
            journal_epoch: snap.epoch,
            stage_times: [beta_time, budget_time],
            planned_in: started.elapsed(),
        })
    }

    /// Runs a plan: charge → seed draw → partition → chambers → range
    /// resolution → aggregation → cache journal → telemetry finish.
    pub(crate) fn execute(&self, plan: Plan<'_>) -> Result<PrivateAnswer, GuptError> {
        let started = Instant::now();
        let mut tel = plan.telemetry(plan.spec.telemetry_enabled());
        let Plan { snap, spec, .. } = plan;
        let (entry, ds) = (snap.entry, &snap.ds);
        let eps = plan.epsilon;

        // Fail closed before touching data: an atomic check-and-debit
        // (WAL-logged first on a durable dataset, quota-gated first for
        // a principal), so racing queries never overspend.
        let stage = Instant::now();
        if let Some(debit) = plan.charge {
            entry.charge_as(plan.principal, debit)?;
        }
        tel.record_stage(Stage::LedgerCharge, stage.elapsed());
        tel.record_ledger(LedgerEvent {
            epsilon_requested: eps.value(),
            epsilon_charged: eps.value(),
            remaining_budget: entry.ledger().remaining(),
        });

        let query_seed = self.next_query_seed();
        let mut rng = StdRng::seed_from_u64(query_seed);

        // Views share the snapshot's row store: block preparation
        // allocates only the plan's index lists.
        let stage = Instant::now();
        let blocks = match plan.partition {
            Partition::Range(start, end) => {
                partition_range(start, end, plan.block_size, plan.gamma, &mut rng)
            }
            Partition::Grouped => {
                let groups = ds.groups().expect("grouped plans have a group column");
                partition_grouped(&groups, plan.block_size, plan.gamma, &mut rng)
            }
        };
        let views = blocks.views(ds.store());
        tel.record_block_prep(views.len(), blocks.index_bytes());
        tel.record_stage(Stage::BlockPlanning, stage.elapsed());

        let stage = Instant::now();
        let (reports, trace) = self.computation.execute_blocks_planned(
            &spec.program,
            views,
            plan.exec_cap,
            spec.execution.as_ref(),
            Some(query_seed),
        );
        tel.record_stage(Stage::ChamberExecution, stage.elapsed());
        let execution = ExecutionSummary::from_reports(&reports);
        tel.record_blocks(&execution, &trace);
        let outputs: Vec<Vec<f64>> = reports.into_iter().map(|r| r.output).collect();

        let stage = Instant::now();
        let p = plan.ranges.len();
        let ranges = match (spec.range_estimation.as_ref(), plan.split.estimation) {
            (Some(RangeEstimation::Loose(loose)), Some((eps, _))) => {
                resolve_loose(&outputs, loose, p, eps, &mut rng)?
            }
            (
                Some(RangeEstimation::Helper {
                    input_ranges,
                    translate,
                }),
                Some((eps, k)),
            ) => resolve_helper(ds.store(), input_ranges, translate, k, p, eps, &mut rng)?,
            // Tight ranges are final at planning time. They are copied,
            // not moved: moving every batch member's planning-time buffer
            // into its long-lived answer raised the peak RSS of a grouped
            // SQL workload by ~20 % on a 2-core host (allocator placement).
            _ => plan.ranges.clone(),
        };
        tel.record_stage(Stage::RangeResolution, stage.elapsed());

        let stage = Instant::now();
        if tel.is_enabled() {
            tel.record_clamp_hits(clamp_hits(&outputs, &ranges));
        }
        let values = aggregate(
            spec.aggregation_strategy(),
            &outputs,
            &ranges,
            blocks.gamma(),
            plan.split.aggregation,
            &mut rng,
        )?;
        tel.record_stage(Stage::Aggregation, stage.elapsed());

        let mut answer = PrivateAnswer {
            values,
            epsilon_spent: eps.value(),
            block_size: plan.block_size,
            num_blocks: blocks.num_blocks(),
            gamma: blocks.gamma(),
            ranges,
            execution,
            telemetry: None,
        };
        // A fingerprintable answer is journaled so the next identical
        // query replays it free, here and (from the WAL) after a
        // restart. A failed journal write is swallowed: the ε is already
        // charged, and the store poisons itself so later *charges* fail
        // closed. Losing a cache record costs latency, never privacy.
        if let Some(fp) = plan.fingerprint.filter(|_| self.cache.is_enabled()) {
            self.cache.insert(fp, answer.clone());
            let _ = entry.journal_cache(&to_cache_record(plan.journal_epoch, fp, &answer));
        }
        answer.telemetry = self.finish_telemetry(tel, entry, plan.planned_in + started.elapsed());
        Ok(answer)
    }
}

/// Converts a released answer into its WAL journal form.
fn to_cache_record(epoch: u64, fp: QueryFingerprint, answer: &PrivateAnswer) -> CacheRecord {
    CacheRecord {
        epoch,
        fingerprint: fp.as_u128(),
        epsilon_spent: answer.epsilon_spent,
        block_size: answer.block_size as u64,
        num_blocks: answer.num_blocks as u64,
        gamma: answer.gamma as u64,
        completed: answer.execution.completed as u64,
        timed_out: answer.execution.timed_out as u64,
        panicked: answer.execution.panicked as u64,
        values: answer.values.clone(),
        ranges: answer.ranges.iter().map(|r| (r.lo(), r.hi())).collect(),
    }
}

/// Per-dimension count of block outputs outside the resolved range —
/// exactly the values Algorithm 1's clamp would move. Telemetry only;
/// never feeds the DP aggregate.
fn clamp_hits(outputs: &[Vec<f64>], ranges: &[OutputRange]) -> Vec<usize> {
    ranges
        .iter()
        .enumerate()
        .map(|(d, r)| {
            outputs
                .iter()
                .filter(|o| o.get(d).is_some_and(|&v| !r.contains(v)))
                .count()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn planning_ranges_validate_arity() {
        let r = OutputRange::new(0.0, 1.0).unwrap();
        let spec = |ranges| {
            QuerySpec::view_program(|_: &crate::BlockView| vec![0.0])
                .range_estimation(RangeEstimation::Tight(ranges))
        };
        assert_eq!(planning_ranges(&spec(vec![r])).unwrap(), vec![r]);
        assert!(matches!(
            planning_ranges(&spec(vec![r, r])).unwrap_err(),
            GuptError::DimensionMismatch {
                expected: 1,
                got: 2
            }
        ));
    }
}
