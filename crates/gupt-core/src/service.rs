//! Admission-controlled query service: the multi-analyst front door.
//!
//! One [`GuptRuntime`] already serves concurrent queries (`run`,
//! `run_batch` and `explain` take `&self`), but a bare runtime accepts
//! unbounded load: a burst of analysts would pile every query onto the
//! shared chamber pool at once. [`QueryService`] wraps the runtime in
//! the paper's service shape (§3.1, §6.2) and adds **admission
//! control**:
//!
//! - at most `max_in_flight` queries execute at a time;
//! - at most `max_queued` more wait for a slot;
//! - a query beyond both bounds fails fast with
//!   [`GuptError::Overloaded`] instead of queueing without limit;
//! - a waiting query abandons the queue once its deadline passes,
//!   surfacing [`GuptError::DeadlineExceeded`] instead of hanging;
//! - a shared **worker budget** divides chamber-pool workers across the
//!   in-flight slots, so `max_in_flight × workers-per-query` cannot
//!   oversubscribe the machine no matter what
//!   [`gupt_sandbox::ExecutionPolicy`] each query asks for (the cap only
//!   ever lowers a query's worker count).
//!
//! The service is a cheap handle: `Clone` shares the same runtime,
//! gate and statistics, so each analyst thread clones its own handle.
//! Admission only gates *execution* entry — budget accounting stays
//! entirely in the per-dataset [`gupt_dp::PrivacyLedger`], which is why
//! a rejected query provably spends nothing.

use crate::batch::BatchAnswer;
use crate::error::GuptError;
use crate::query::QuerySpec;
use crate::runtime::{GuptRuntime, PrivateAnswer};
use gupt_dp::Epsilon;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Admission limits for a [`QueryService`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Maximum queries executing simultaneously (≥ 1).
    pub max_in_flight: usize,
    /// Maximum queries allowed to wait for a slot; `0` means a saturated
    /// service rejects immediately.
    pub max_queued: usize,
    /// Deadline applied to queries submitted without an explicit one.
    /// `None` waits indefinitely (but still bounded by the queue cap).
    pub default_deadline: Option<Duration>,
    /// Total chamber workers shared by all in-flight queries. Each
    /// admitted query's effective [`gupt_sandbox::ExecutionPolicy`] is
    /// capped at
    /// `max(1, worker_budget / max_in_flight)` so the service cannot
    /// oversubscribe the machine with `in_flight × workers` threads.
    /// Defaults to the machine's available parallelism.
    pub worker_budget: usize,
}

impl ServiceConfig {
    /// Limits with no default deadline; `max_in_flight` is clamped to ≥ 1
    /// and the worker budget defaults to the machine's parallelism.
    pub fn new(max_in_flight: usize, max_queued: usize) -> Self {
        ServiceConfig {
            max_in_flight: max_in_flight.max(1),
            max_queued,
            default_deadline: None,
            worker_budget: std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(4),
        }
    }

    /// Sets the deadline used when a query does not carry its own.
    pub fn default_deadline(mut self, deadline: Duration) -> Self {
        self.default_deadline = Some(deadline);
        self
    }

    /// Sets the total worker budget shared by in-flight queries
    /// (clamped to ≥ 1).
    pub fn worker_budget(mut self, budget: usize) -> Self {
        self.worker_budget = budget.max(1);
        self
    }

    /// Workers each admitted query may use:
    /// `max(1, worker_budget / max_in_flight)`.
    pub fn applied_workers(&self) -> usize {
        (self.worker_budget / self.max_in_flight).max(1)
    }
}

impl Default for ServiceConfig {
    /// Eight concurrent queries, thirty-two waiting, no deadline.
    fn default() -> Self {
        ServiceConfig::new(8, 32)
    }
}

/// Point-in-time counters for observing a service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceStats {
    /// Queries currently executing.
    pub in_flight: usize,
    /// Queries currently waiting for a slot.
    pub queued: usize,
    /// Queries admitted since the service was built.
    pub admitted: u64,
    /// Queries refused with [`GuptError::Overloaded`].
    pub rejected_overloaded: u64,
    /// Queries abandoned with [`GuptError::DeadlineExceeded`].
    pub rejected_deadline: u64,
    /// Per-query worker cap this service applies
    /// ([`ServiceConfig::applied_workers`]).
    pub applied_workers: usize,
}

/// Occupancy the admission gate protects.
#[derive(Debug, Default)]
struct Gate {
    in_flight: usize,
    queued: usize,
}

struct ServiceInner {
    runtime: GuptRuntime,
    config: ServiceConfig,
    gate: Mutex<Gate>,
    slot_freed: Condvar,
    admitted: AtomicU64,
    rejected_overloaded: AtomicU64,
    rejected_deadline: AtomicU64,
}

/// RAII execution slot: dropping it (normally or on panic/error paths)
/// releases the slot and wakes one waiter.
struct Permit {
    inner: Arc<ServiceInner>,
}

impl Drop for Permit {
    fn drop(&mut self) {
        let mut gate = lock_gate(&self.inner.gate);
        gate.in_flight -= 1;
        drop(gate);
        self.inner.slot_freed.notify_one();
    }
}

/// Recover the gate even if a holder panicked: the guarded state is two
/// counters the panicking path cannot leave inconsistent (the permit
/// decrements in its own lock scope), so the poison flag carries no
/// information here.
fn lock_gate(gate: &Mutex<Gate>) -> std::sync::MutexGuard<'_, Gate> {
    gate.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// The admission-controlled, handle-cloneable front door to a shared
/// [`GuptRuntime`].
///
/// `Clone` is O(1) and every clone talks to the same runtime, limits
/// and counters; the service is `Send + Sync`, so handles move freely
/// across analyst threads.
#[derive(Clone)]
pub struct QueryService {
    inner: Arc<ServiceInner>,
}

impl QueryService {
    /// Wraps `runtime` with the given admission limits.
    pub fn new(runtime: GuptRuntime, config: ServiceConfig) -> Self {
        QueryService {
            inner: Arc::new(ServiceInner {
                runtime,
                config,
                gate: Mutex::new(Gate::default()),
                slot_freed: Condvar::new(),
                admitted: AtomicU64::new(0),
                rejected_overloaded: AtomicU64::new(0),
                rejected_deadline: AtomicU64::new(0),
            }),
        }
    }

    /// The shared runtime, for budget inspection (`remaining_budget`,
    /// `queries_run`) and planning. Reads bypass admission — they touch
    /// no chamber and spend no budget.
    pub fn runtime(&self) -> &GuptRuntime {
        &self.inner.runtime
    }

    /// The admission limits this service enforces.
    pub fn config(&self) -> ServiceConfig {
        self.inner.config
    }

    /// Snapshot of the shared runtime's answer-cache counters. Like
    /// [`QueryService::runtime`] reads, this bypasses admission — it
    /// touches no chamber and spends no budget.
    pub fn cache_stats(&self) -> crate::cache::CacheStats {
        self.inner.runtime.cache_stats()
    }

    /// Snapshot of the service counters.
    pub fn stats(&self) -> ServiceStats {
        let gate = lock_gate(&self.inner.gate);
        ServiceStats {
            in_flight: gate.in_flight,
            queued: gate.queued,
            admitted: self.inner.admitted.load(Ordering::Relaxed),
            rejected_overloaded: self.inner.rejected_overloaded.load(Ordering::Relaxed),
            rejected_deadline: self.inner.rejected_deadline.load(Ordering::Relaxed),
            applied_workers: self.inner.config.applied_workers(),
        }
    }

    /// Caps a query's effective execution policy by the shared worker
    /// budget: the query's own override (or, absent one, the runtime's
    /// default policy) is lowered to at most
    /// [`ServiceConfig::applied_workers`] workers — never raised.
    fn cap_execution(&self, spec: QuerySpec) -> QuerySpec {
        let base = spec
            .execution_policy()
            .cloned()
            .unwrap_or_else(|| self.inner.runtime.computation_manager().execution().clone());
        let cap = self.inner.config.applied_workers();
        spec.execution(base.capped_at(cap))
    }

    /// Runs one query under admission control with the config's default
    /// deadline. See [`GuptRuntime::run`] for query semantics.
    pub fn run(&self, dataset: &str, spec: QuerySpec) -> Result<PrivateAnswer, GuptError> {
        self.run_deadline(dataset, None, spec, self.inner.config.default_deadline)
    }

    /// Like [`QueryService::run`], attributing the ε debit to a
    /// registered principal's quota (see [`crate::principal`]). The
    /// quota gate sits *after* admission and *before* the ledger debit,
    /// so a refused quota frees its slot without spending anything.
    pub fn run_as(
        &self,
        dataset: &str,
        principal: &str,
        spec: QuerySpec,
    ) -> Result<PrivateAnswer, GuptError> {
        self.run_deadline(
            dataset,
            Some(principal),
            spec,
            self.inner.config.default_deadline,
        )
    }

    /// [`QueryService::run_as`] with an explicit admission deadline.
    pub fn run_as_with_deadline(
        &self,
        dataset: &str,
        principal: &str,
        spec: QuerySpec,
        deadline: Duration,
    ) -> Result<PrivateAnswer, GuptError> {
        self.run_deadline(dataset, Some(principal), spec, Some(deadline))
    }

    /// Runs one query, waiting at most `deadline` for admission. The
    /// deadline bounds queue wait *and* in-chamber work: when the
    /// runtime's chamber policy carries no `execution_budget` of its
    /// own, the deadline bounds the whole chamber fan-out — what is left
    /// of it after admission is split into one equal budget per round
    /// of chambers, and a chamber that overruns its share is killed —
    /// so a deadline actually bounds end-to-end latency instead of only
    /// the wait for a slot. Each chamber's kill depends only on its own
    /// run, never on how long the blocks before it ran, so a slow block
    /// cannot turn others into the fallback. An explicitly configured
    /// chamber budget always wins — a
    /// lenient deadline never loosens the owner's §6.2 timing bound.
    /// Budget is charged exactly when execution starts, so an abandoned
    /// wait provably spends nothing.
    pub fn run_with_deadline(
        &self,
        dataset: &str,
        spec: QuerySpec,
        deadline: Duration,
    ) -> Result<PrivateAnswer, GuptError> {
        self.run_deadline(dataset, None, spec, Some(deadline))
    }

    fn run_deadline(
        &self,
        dataset: &str,
        principal: Option<&str>,
        spec: QuerySpec,
        deadline: Option<Duration>,
    ) -> Result<PrivateAnswer, GuptError> {
        let start = Instant::now();
        let _permit = self.admit(deadline)?;
        // Whatever deadline is left after queueing bounds the chamber
        // fan-out (the runtime ignores it when its policy already sets a
        // budget). At least 1 ms after admission, so a query admitted
        // exactly at the wire still starts its chambers.
        let deadline = deadline
            .and_then(|limit| start.checked_add(limit))
            .map(|at| at.max(Instant::now() + Duration::from_millis(1)));
        self.inner
            .runtime
            .query(dataset, principal, &self.cap_execution(spec), deadline)
    }

    /// Runs a §5.2 budget-distributed batch as **one** admission unit:
    /// the batch occupies a single slot, mirroring its single atomic
    /// ledger charge. See [`GuptRuntime::run_batch`].
    pub fn run_batch(
        &self,
        dataset: &str,
        queries: Vec<QuerySpec>,
        total_budget: Epsilon,
    ) -> Result<BatchAnswer, GuptError> {
        let _permit = self.admit(self.inner.config.default_deadline)?;
        let queries = queries.into_iter().map(|q| self.cap_execution(q)).collect();
        self.inner.runtime.run_batch(dataset, queries, total_budget)
    }

    /// [`QueryService::run_batch`] with the single atomic debit
    /// attributed to a registered principal's quota.
    pub fn run_batch_as(
        &self,
        dataset: &str,
        principal: &str,
        queries: Vec<QuerySpec>,
        total_budget: Epsilon,
    ) -> Result<BatchAnswer, GuptError> {
        let _permit = self.admit(self.inner.config.default_deadline)?;
        let queries = queries.into_iter().map(|q| self.cap_execution(q)).collect();
        self.inner
            .runtime
            .run_batch_as(dataset, Some(principal), queries, total_budget)
    }

    /// Admission: take a slot now, wait bounded by queue capacity and
    /// `deadline`, or fail with a typed error.
    fn admit(&self, deadline: Option<Duration>) -> Result<Permit, GuptError> {
        let inner = &self.inner;
        let start = Instant::now();
        let mut gate = lock_gate(&inner.gate);
        if gate.in_flight >= inner.config.max_in_flight {
            if gate.queued >= inner.config.max_queued {
                let err = GuptError::Overloaded {
                    in_flight: gate.in_flight,
                    queued: gate.queued,
                };
                drop(gate);
                inner.rejected_overloaded.fetch_add(1, Ordering::Relaxed);
                return Err(err);
            }
            gate.queued += 1;
            while gate.in_flight >= inner.config.max_in_flight {
                match deadline {
                    None => {
                        gate = inner
                            .slot_freed
                            .wait(gate)
                            .unwrap_or_else(|p| p.into_inner())
                    }
                    Some(limit) => {
                        let Some(remaining) = limit.checked_sub(start.elapsed()) else {
                            gate.queued -= 1;
                            drop(gate);
                            inner.rejected_deadline.fetch_add(1, Ordering::Relaxed);
                            return Err(GuptError::DeadlineExceeded {
                                waited_ms: start.elapsed().as_millis() as u64,
                            });
                        };
                        gate = inner
                            .slot_freed
                            .wait_timeout(gate, remaining)
                            .unwrap_or_else(|p| p.into_inner())
                            .0;
                    }
                }
            }
            gate.queued -= 1;
        }
        gate.in_flight += 1;
        drop(gate);
        inner.admitted.fetch_add(1, Ordering::Relaxed);
        Ok(Permit {
            inner: Arc::clone(inner),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::output_range::RangeEstimation;
    use crate::runtime::GuptRuntimeBuilder;
    use gupt_dp::OutputRange;
    use gupt_sandbox::ExecutionPolicy;
    use std::thread;

    fn eps(v: f64) -> Epsilon {
        Epsilon::new(v).unwrap()
    }

    fn service(config: ServiceConfig) -> QueryService {
        let rows: Vec<Vec<f64>> = (0..500).map(|i| vec![(i % 50) as f64]).collect();
        let runtime = GuptRuntimeBuilder::new()
            .register_dataset("t", rows, eps(100.0))
            .unwrap()
            .seed(7)
            .build();
        QueryService::new(runtime, config)
    }

    fn mean_spec() -> QuerySpec {
        QuerySpec::program(|b: &[Vec<f64>]| {
            vec![b.iter().map(|r| r[0]).sum::<f64>() / b.len().max(1) as f64]
        })
        .epsilon(eps(0.5))
        .range_estimation(RangeEstimation::Tight(vec![
            OutputRange::new(0.0, 50.0).unwrap()
        ]))
    }

    #[test]
    fn handles_are_send_sync_clone() {
        fn assert_handle<T: Clone + Send + Sync + 'static>() {}
        assert_handle::<QueryService>();
    }

    #[test]
    fn runs_queries_and_counts_admissions() {
        let svc = service(ServiceConfig::default());
        let answer = svc.run("t", mean_spec()).unwrap();
        assert!((answer.values[0] - 24.5).abs() < 25.0);
        let stats = svc.stats();
        assert_eq!(stats.admitted, 1);
        assert_eq!(stats.in_flight, 0);
        assert_eq!(stats.queued, 0);
    }

    #[test]
    fn saturated_service_with_empty_queue_fails_fast() {
        let svc = service(ServiceConfig::new(1, 0));
        let held = svc.admit(None).unwrap();
        let err = svc.run("t", mean_spec()).unwrap_err();
        assert!(matches!(
            err,
            GuptError::Overloaded {
                in_flight: 1,
                queued: 0
            }
        ));
        assert_eq!(svc.stats().rejected_overloaded, 1);
        // Budget untouched by the rejection.
        assert_eq!(svc.runtime().remaining_budget("t").unwrap(), 100.0);
        drop(held);
        svc.run("t", mean_spec()).unwrap();
    }

    #[test]
    fn queued_query_times_out_with_typed_error() {
        let svc = service(ServiceConfig::new(1, 4));
        let _held = svc.admit(None).unwrap();
        let err = svc
            .run_with_deadline("t", mean_spec(), Duration::from_millis(30))
            .unwrap_err();
        let GuptError::DeadlineExceeded { waited_ms } = err else {
            panic!("expected DeadlineExceeded, got {err}");
        };
        assert!(waited_ms >= 30);
        let stats = svc.stats();
        assert_eq!(stats.rejected_deadline, 1);
        assert_eq!(stats.queued, 0, "abandoned waiter must leave the queue");
    }

    #[test]
    fn default_deadline_applies_to_plain_run() {
        let svc = service(ServiceConfig::new(1, 4).default_deadline(Duration::from_millis(20)));
        let _held = svc.admit(None).unwrap();
        assert!(matches!(
            svc.run("t", mean_spec()).unwrap_err(),
            GuptError::DeadlineExceeded { .. }
        ));
    }

    #[test]
    fn released_slot_admits_a_waiter() {
        let svc = service(ServiceConfig::new(1, 4));
        let held = svc.admit(None).unwrap();
        let worker = {
            let svc = svc.clone();
            thread::spawn(move || svc.run_with_deadline("t", mean_spec(), Duration::from_secs(10)))
        };
        // Wait until the worker is queued, then free the slot.
        while svc.stats().queued == 0 {
            thread::yield_now();
        }
        drop(held);
        worker.join().unwrap().unwrap();
        assert_eq!(svc.stats().admitted, 2);
    }

    #[test]
    fn clones_share_gate_and_counters() {
        let svc = service(ServiceConfig::new(1, 0));
        let clone = svc.clone();
        let _held = svc.admit(None).unwrap();
        assert!(matches!(
            clone.run("t", mean_spec()).unwrap_err(),
            GuptError::Overloaded { .. }
        ));
        assert_eq!(svc.stats().rejected_overloaded, 1);
    }

    #[test]
    fn batch_is_one_admission_unit() {
        let svc = service(ServiceConfig::default());
        svc.run_batch("t", vec![mean_spec(), mean_spec()], eps(1.0))
            .unwrap();
        assert_eq!(svc.stats().admitted, 1);
    }

    #[test]
    fn config_clamps_in_flight_to_one() {
        assert_eq!(ServiceConfig::new(0, 5).max_in_flight, 1);
    }

    #[test]
    fn applied_workers_divides_the_budget() {
        let config = ServiceConfig::new(4, 0).worker_budget(8);
        assert_eq!(config.applied_workers(), 2);
        // The floor is one worker, never zero.
        let config = ServiceConfig::new(8, 0).worker_budget(2);
        assert_eq!(config.applied_workers(), 1);
        // worker_budget(0) clamps to 1.
        assert_eq!(ServiceConfig::new(1, 0).worker_budget(0).worker_budget, 1);
    }

    #[test]
    fn worker_budget_caps_a_greedy_query() {
        // 4 slots sharing 8 workers → 2 per query; a spec demanding 8
        // workers is lowered to 2, and the stats expose the cap.
        let rows: Vec<Vec<f64>> = (0..500).map(|i| vec![(i % 50) as f64]).collect();
        let runtime = GuptRuntimeBuilder::new()
            .register_dataset("t", rows, eps(100.0))
            .unwrap()
            .seed(7)
            .execution(ExecutionPolicy::parallel(8))
            .build();
        let svc = QueryService::new(runtime, ServiceConfig::new(4, 0).worker_budget(8));
        assert_eq!(svc.stats().applied_workers, 2);
        let spec = mean_spec()
            .execution(ExecutionPolicy::parallel(8))
            .collect_telemetry();
        let answer = svc.run("t", spec).unwrap();
        let tel = answer.telemetry.expect("telemetry requested");
        assert_eq!(tel.parallel.workers, 2);
    }

    #[test]
    fn worker_cap_never_raises_a_sequential_policy() {
        // A sequential runtime under a generous budget stays sequential:
        // the cap lowers, it never grants extra workers.
        let rows: Vec<Vec<f64>> = (0..500).map(|i| vec![(i % 50) as f64]).collect();
        let runtime = GuptRuntimeBuilder::new()
            .register_dataset("t", rows, eps(100.0))
            .unwrap()
            .seed(7)
            .execution(ExecutionPolicy::sequential())
            .build();
        let svc = QueryService::new(runtime, ServiceConfig::new(1, 0).worker_budget(64));
        let answer = svc.run("t", mean_spec().collect_telemetry()).unwrap();
        let tel = answer.telemetry.expect("telemetry requested");
        assert_eq!(tel.parallel.workers, 1);
    }

    #[test]
    fn worker_cap_does_not_change_the_answer() {
        // The capped policy reschedules chambers but the seeded answer is
        // bit-identical — the determinism contract survives admission.
        let build = || {
            let rows: Vec<Vec<f64>> = (0..500).map(|i| vec![(i % 50) as f64]).collect();
            GuptRuntimeBuilder::new()
                .register_dataset("t", rows, eps(100.0))
                .unwrap()
                .seed(7)
                .execution(ExecutionPolicy::parallel(8))
                .build()
        };
        let uncapped = QueryService::new(build(), ServiceConfig::new(1, 0).worker_budget(64))
            .run("t", mean_spec())
            .unwrap();
        let capped = QueryService::new(build(), ServiceConfig::new(8, 0).worker_budget(8))
            .run("t", mean_spec())
            .unwrap();
        let a: Vec<u64> = uncapped.values.iter().map(|v| v.to_bits()).collect();
        let b: Vec<u64> = capped.values.iter().map(|v| v.to_bits()).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn deadline_bounds_in_chamber_work() {
        use gupt_sandbox::ClosureProgram;
        // A program that would run for minutes: with no explicit chamber
        // budget, the deadline must become the kill bound, so the query
        // returns promptly with timed-out chambers instead of hanging.
        let svc = service(ServiceConfig::default());
        let slow = ClosureProgram::new(1, |_: &gupt_sandbox::BlockView| {
            thread::sleep(Duration::from_secs(120));
            vec![0.0]
        });
        let spec = QuerySpec::from_program(Arc::new(slow))
            .epsilon(eps(0.5))
            .fixed_block_size(500)
            .range_estimation(RangeEstimation::Tight(vec![
                OutputRange::new(0.0, 50.0).unwrap()
            ]));
        let start = std::time::Instant::now();
        let answer = svc
            .run_with_deadline("t", spec, Duration::from_millis(100))
            .unwrap();
        assert!(start.elapsed() < Duration::from_secs(30), "query hung");
        assert_eq!(answer.execution.timed_out, answer.num_blocks);
    }

    #[test]
    fn deadline_bounds_the_whole_fan_out() {
        use gupt_sandbox::ClosureProgram;
        // Eight 150 ms chambers in sequence under a 300 ms deadline: the
        // deadline bounds the fan-out, not each chamber, so each gets a
        // ~37 ms share and the query returns near 300 ms, timed out.
        let rows: Vec<Vec<f64>> = (0..400).map(|i| vec![(i % 50) as f64]).collect();
        let runtime = GuptRuntimeBuilder::new()
            .register_dataset("t", rows, eps(100.0))
            .unwrap()
            .execution(ExecutionPolicy::sequential())
            .seed(7)
            .build();
        let svc = QueryService::new(runtime, ServiceConfig::default());
        let slow = ClosureProgram::new(1, |_: &gupt_sandbox::BlockView| {
            thread::sleep(Duration::from_millis(150));
            vec![0.0]
        });
        let spec = QuerySpec::from_program(Arc::new(slow))
            .epsilon(eps(0.5))
            .fixed_block_size(50)
            .range_estimation(RangeEstimation::Tight(vec![
                OutputRange::new(0.0, 50.0).unwrap()
            ]));
        let start = std::time::Instant::now();
        let answer = svc
            .run_with_deadline("t", spec, Duration::from_millis(300))
            .unwrap();
        let took = start.elapsed();
        assert_eq!(answer.num_blocks, 8);
        assert!(took < Duration::from_millis(600), "took {took:?}");
        assert!(answer.execution.timed_out >= 6, "{:?}", answer.execution);
    }

    #[test]
    fn a_stalling_block_under_a_deadline_times_out_alone() {
        use gupt_sandbox::ClosureProgram;
        // A program that stalls only on the block holding one target
        // record: that block is killed at its share of the deadline and
        // every other block still completes, so the record moves one
        // block's output, not all the blocks after it.
        let rows: Vec<Vec<f64>> = (0..400).map(|i| vec![f64::from(i)]).collect();
        let runtime = GuptRuntimeBuilder::new()
            .register_dataset("t", rows, eps(100.0))
            .unwrap()
            .execution(ExecutionPolicy::sequential())
            .seed(7)
            .build();
        let svc = QueryService::new(runtime, ServiceConfig::default());
        let stall = ClosureProgram::new(1, |b: &gupt_sandbox::BlockView| {
            if b.iter().any(|r| r[0] == 123.0) {
                thread::sleep(Duration::from_secs(2));
            }
            vec![0.0]
        });
        let spec = QuerySpec::from_program(Arc::new(stall))
            .epsilon(eps(0.5))
            .fixed_block_size(50)
            .range_estimation(RangeEstimation::Tight(vec![
                OutputRange::new(0.0, 50.0).unwrap()
            ]));
        let answer = svc
            .run_with_deadline("t", spec, Duration::from_millis(800))
            .unwrap();
        assert_eq!(answer.num_blocks, 8);
        assert_eq!(answer.execution.timed_out, 1, "{:?}", answer.execution);
        assert_eq!(answer.execution.completed, 7, "{:?}", answer.execution);
    }

    #[test]
    fn explicit_chamber_budget_not_loosened_by_deadline() {
        use gupt_sandbox::{ChamberPolicy, ClosureProgram};
        // The owner set a 50 ms bound; a 10 s deadline must not extend it.
        let rows: Vec<Vec<f64>> = (0..500).map(|i| vec![(i % 50) as f64]).collect();
        let runtime = GuptRuntimeBuilder::new()
            .register_dataset("t", rows, eps(100.0))
            .unwrap()
            .chamber_policy(
                ChamberPolicy::bounded(Duration::from_millis(50), 25.0).without_padding(),
            )
            .seed(7)
            .build();
        let svc = QueryService::new(runtime, ServiceConfig::default());
        let slow = ClosureProgram::new(1, |_: &gupt_sandbox::BlockView| {
            thread::sleep(Duration::from_secs(120));
            vec![0.0]
        });
        let spec = QuerySpec::from_program(Arc::new(slow))
            .epsilon(eps(0.5))
            .fixed_block_size(500)
            .range_estimation(RangeEstimation::Tight(vec![
                OutputRange::new(0.0, 50.0).unwrap()
            ]));
        let start = std::time::Instant::now();
        let answer = svc
            .run_with_deadline("t", spec, Duration::from_secs(10))
            .unwrap();
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "owner bound ignored"
        );
        assert_eq!(answer.execution.timed_out, answer.num_blocks);
    }
}
