//! The computation manager (§3.1, §6).
//!
//! In the paper the computation manager is split into a *server*
//! component that talks to the analyst and a *client* component on each
//! cluster node that instantiates chambers, pipes block data in and
//! forwards outputs back through a trusted agent. This module is that
//! orchestration layer: it owns the chamber pool, materialises blocks
//! into the chambers and collects the per-block reports, from which the
//! runtime computes the DP aggregate. The untrusted program never
//! communicates with anything but its own chamber.
//!
//! Blocks arrive as zero-copy [`BlockView`]s onto the registration-time
//! row store; shipping one to a chamber is two `Arc` bumps, so a query's
//! data-plane allocation is O(total indices) regardless of γ or the
//! dataset's byte size.
//!
//! A query's blocks run as one dispatch of the chamber pool: workers
//! claim blocks from a shared cursor, and when chambers can be killed
//! (an execution budget, or a service deadline) the calling thread
//! watches a few worker threads rather than starting one per block. A
//! service deadline bounds the whole fan-out: it is split into one equal
//! per-chamber budget before any chamber starts.

use gupt_sandbox::view::{BlockView, RowStore};
use gupt_sandbox::{
    BlockProgram, ChamberOutcome, ChamberPolicy, ChamberPool, ChamberReport, ExecutionPolicy,
    PoolTrace,
};
use std::sync::Arc;
use std::time::Instant;

/// Summary of how a batch of chamber executions went.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExecutionSummary {
    /// Blocks whose program completed normally.
    pub completed: usize,
    /// Blocks killed for exceeding the execution budget.
    pub timed_out: usize,
    /// Blocks whose program panicked.
    pub panicked: usize,
}

impl ExecutionSummary {
    /// Builds a summary from chamber reports.
    pub fn from_reports(reports: &[ChamberReport]) -> Self {
        let mut summary = ExecutionSummary::default();
        for r in reports {
            match r.outcome {
                ChamberOutcome::Completed => summary.completed += 1,
                ChamberOutcome::TimedOut => summary.timed_out += 1,
                ChamberOutcome::Panicked => summary.panicked += 1,
            }
        }
        summary
    }

    /// Total number of block executions.
    pub fn total(&self) -> usize {
        self.completed + self.timed_out + self.panicked
    }
}

/// Orchestrates chamber execution for the runtime.
#[derive(Debug, Clone)]
pub struct ComputationManager {
    pool: ChamberPool,
}

impl ComputationManager {
    /// Creates a manager whose chambers run under `policy` with `workers`
    /// parallel threads.
    pub fn new(policy: ChamberPolicy, workers: usize) -> Self {
        ComputationManager {
            pool: ChamberPool::new(policy, workers),
        }
    }

    /// Creates a manager scheduled by an explicit [`ExecutionPolicy`] —
    /// the first-class path behind `GuptRuntimeBuilder::execution`.
    pub fn with_execution(policy: ChamberPolicy, exec: ExecutionPolicy) -> Self {
        ComputationManager {
            pool: ChamberPool::with_execution(policy, exec),
        }
    }

    /// Creates a manager sized to the machine's parallelism.
    pub fn with_default_parallelism(policy: ChamberPolicy) -> Self {
        ComputationManager {
            pool: ChamberPool::with_default_parallelism(policy),
        }
    }

    /// Number of parallel chamber workers.
    pub fn workers(&self) -> usize {
        self.pool.workers()
    }

    /// The chamber policy the pool runs under.
    pub fn policy(&self) -> &ChamberPolicy {
        self.pool.policy()
    }

    /// The execution policy scheduling the chamber pool.
    pub fn execution(&self) -> &ExecutionPolicy {
        self.pool.execution()
    }

    /// Runs `program` on every block in its own chamber; report order
    /// matches block order. The [`PoolTrace`] rides along for operator
    /// telemetry — callers that don't need it drop it.
    pub fn execute_blocks(
        &self,
        program: &Arc<dyn BlockProgram>,
        views: Vec<BlockView>,
    ) -> (Vec<ChamberReport>, PoolTrace) {
        self.pool.run_all_traced(program, views)
    }

    /// The full-featured dispatch behind the runtime's query path:
    /// optional service deadline, optional per-query [`ExecutionPolicy`]
    /// override (a `QuerySpec::execution` or a service worker-budget
    /// cap), and optional per-query seed base from which chamber `i`'s
    /// RNG stream is split *before* fan-out, keeping answers
    /// bit-identical at any thread count.
    ///
    /// When `deadline` is set *and* the pool's policy has no execution
    /// budget of its own, the deadline bounds the whole fan-out: the
    /// time left is split into one equal budget per round of chambers
    /// before any starts, and a chamber that overruns its share is
    /// killed (see [`ChamberPool::run_all_traced_seeded`]). An
    /// explicitly configured budget always wins — the owner's §6.2
    /// timing-attack bound is not loosened by a lenient query deadline.
    pub fn execute_blocks_planned(
        &self,
        program: &Arc<dyn BlockProgram>,
        views: Vec<BlockView>,
        deadline: Option<Instant>,
        exec: Option<&ExecutionPolicy>,
        seed_base: Option<u64>,
    ) -> (Vec<ChamberReport>, PoolTrace) {
        let pool = match exec {
            Some(exec) if exec != self.pool.execution() => {
                self.pool.with_execution_policy(exec.clone())
            }
            _ => self.pool.clone(),
        };
        let deadline = deadline.filter(|_| pool.policy().execution_budget.is_none());
        pool.run_all_traced_seeded(program, views, seed_base, deadline)
    }

    /// Runs `program` once over an entire row store (used on aged,
    /// non-private data by the estimators, and by non-private baselines).
    /// The full-table view is as cheap as any block view.
    pub fn execute_full(
        &self,
        program: &Arc<dyn BlockProgram>,
        store: &Arc<RowStore>,
    ) -> ChamberReport {
        let view = BlockView::full(Arc::clone(store));
        let (mut reports, _) = self.pool.run_all_traced(program, vec![view]);
        reports.pop().expect("pool returns one report per block")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gupt_sandbox::ClosureProgram;
    use std::time::Duration;

    fn view(rows: &[Vec<f64>]) -> BlockView {
        BlockView::from_rows(rows)
    }

    fn mean_program() -> Arc<dyn BlockProgram> {
        Arc::new(ClosureProgram::new(1, |block: &BlockView| {
            if block.is_empty() {
                return vec![0.0];
            }
            vec![block.iter().map(|r| r[0]).sum::<f64>() / block.len() as f64]
        }))
    }

    #[test]
    fn executes_blocks_in_order() {
        let manager = ComputationManager::new(ChamberPolicy::unbounded(), 4);
        let blocks: Vec<BlockView> = (0..10)
            .map(|b| view(&(0..5).map(|_| vec![b as f64]).collect::<Vec<_>>()))
            .collect();
        let (reports, trace) = manager.execute_blocks(&mean_program(), blocks);
        for (b, r) in reports.iter().enumerate() {
            assert_eq!(r.output, vec![b as f64]);
        }
        assert!(trace.workers_used >= 1);
    }

    #[test]
    fn execute_full_runs_whole_table() {
        let manager = ComputationManager::new(ChamberPolicy::unbounded(), 2);
        let rows: Vec<Vec<f64>> = (0..=10).map(|i| vec![i as f64]).collect();
        let store = Arc::new(RowStore::from_rows(&rows));
        let report = manager.execute_full(&mean_program(), &store);
        assert_eq!(report.output, vec![5.0]);
    }

    #[test]
    fn summary_counts_outcomes() {
        let manager = ComputationManager::new(ChamberPolicy::unbounded(), 2);
        let picky: Arc<dyn BlockProgram> = Arc::new(ClosureProgram::new(1, |b: &BlockView| {
            assert!(b.row(0)[0] >= 0.0);
            vec![b.row(0)[0]]
        }));
        let blocks = vec![view(&[vec![1.0]]), view(&[vec![-1.0]]), view(&[vec![3.0]])];
        let (reports, _) = manager.execute_blocks(&picky, blocks);
        let summary = ExecutionSummary::from_reports(&reports);
        assert_eq!(summary.completed, 2);
        assert_eq!(summary.panicked, 1);
        assert_eq!(summary.timed_out, 0);
        assert_eq!(summary.total(), 3);
    }

    #[test]
    fn deadline_kills_overrunning_blocks() {
        let manager = ComputationManager::new(ChamberPolicy::unbounded(), 2);
        let slow: Arc<dyn BlockProgram> = Arc::new(ClosureProgram::new(1, |_: &BlockView| {
            std::thread::sleep(Duration::from_secs(5));
            vec![1.0]
        }));
        let (reports, _) = manager.execute_blocks_planned(
            &slow,
            vec![view(&[vec![1.0]])],
            Some(Instant::now() + Duration::from_millis(20)),
            None,
            None,
        );
        assert_eq!(reports[0].outcome, ChamberOutcome::TimedOut);
    }

    #[test]
    fn explicit_policy_budget_wins_over_deadline() {
        // The owner's 5 s bound is not overridden by a 1 ms deadline:
        // a program that sleeps 30 ms still completes under the
        // configured policy even though it would blow the deadline.
        let policy = ChamberPolicy::bounded(Duration::from_secs(5), 0.0).without_padding();
        let manager = ComputationManager::new(policy, 2);
        let napper: Arc<dyn BlockProgram> = Arc::new(ClosureProgram::new(1, |_: &BlockView| {
            std::thread::sleep(Duration::from_millis(30));
            vec![1.0]
        }));
        let (reports, _) = manager.execute_blocks_planned(
            &napper,
            vec![view(&[vec![3.0]])],
            Some(Instant::now() + Duration::from_millis(1)),
            None,
            None,
        );
        assert_eq!(reports[0].outcome, ChamberOutcome::Completed);
    }

    #[test]
    fn default_parallelism() {
        let manager = ComputationManager::with_default_parallelism(ChamberPolicy::unbounded());
        assert!(manager.workers() >= 1);
    }

    #[test]
    fn explicit_execution_policy_sizes_the_pool() {
        let manager = ComputationManager::with_execution(
            ChamberPolicy::unbounded(),
            ExecutionPolicy::parallel(3),
        );
        assert_eq!(manager.workers(), 3);
        assert_eq!(manager.execution().threads, 3);
    }

    #[test]
    fn per_query_execution_override_applies() {
        let manager = ComputationManager::with_execution(
            ChamberPolicy::unbounded(),
            ExecutionPolicy::sequential(),
        );
        let blocks: Vec<BlockView> = (0..6).map(|b| view(&[vec![b as f64]])).collect();
        let (reports, trace) = manager.execute_blocks_planned(
            &mean_program(),
            blocks,
            None,
            Some(&ExecutionPolicy::parallel(3)),
            None,
        );
        assert_eq!(trace.workers_used, 3);
        for (b, r) in reports.iter().enumerate() {
            assert_eq!(r.output, vec![b as f64]);
        }
    }

    #[test]
    fn seed_base_threads_through_to_chambers() {
        struct SeedEcho;
        impl BlockProgram for SeedEcho {
            fn run(&self, _b: &BlockView, scratch: &mut gupt_sandbox::Scratch) -> Vec<f64> {
                vec![scratch.seed().map_or(-1.0, |s| (s % 97) as f64)]
            }
            fn output_dimension(&self) -> usize {
                1
            }
        }
        let manager = ComputationManager::new(ChamberPolicy::unbounded(), 4);
        let program: Arc<dyn BlockProgram> = Arc::new(SeedEcho);
        let blocks = || (0..12).map(|b| view(&[vec![b as f64]])).collect::<Vec<_>>();
        let (seq, _) = manager.execute_blocks_planned(
            &program,
            blocks(),
            None,
            Some(&ExecutionPolicy::sequential()),
            Some(42),
        );
        let (par, _) = manager.execute_blocks_planned(&program, blocks(), None, None, Some(42));
        let bits = |rs: &[ChamberReport]| -> Vec<u64> {
            rs.iter().map(|r| r.output[0].to_bits()).collect()
        };
        assert_eq!(bits(&seq), bits(&par));
        assert!(seq.iter().all(|r| r.output[0] >= 0.0), "seeds were present");
    }
}
