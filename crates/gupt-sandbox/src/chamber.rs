//! Chamber execution: one untrusted program, one block, full isolation.
//!
//! A [`Chamber`] is the in-process analogue of the paper's AppArmor-
//! confined worker. It enforces the [`crate::policy::ChamberPolicy`]
//! contract: bounded execution, kill + in-range constant on overrun,
//! panic containment, fixed output arity, fresh scratch per invocation,
//! and optional constant-time padding.
//!
//! A [`ChamberPool`] runs a query's blocks as one *dispatch* (the
//! paper's cluster parallelism, §1). Workers claim block indices from
//! one shared cursor, so a slow chamber (a hostile program burning its
//! budget, say) holds up only its own worker while the others drain the
//! rest. How the workers are hosted depends on whether a chamber can be
//! killed:
//!
//! - **Unbounded** (no execution budget and no deadline): the calling
//!   thread claims blocks itself, beside `workers − 1` scoped helper
//!   threads.
//! - **Bounded** (an execution budget, or a deadline for the whole
//!   fan-out): the calling thread is the watchdog over
//!   `min(workers, blocks)` worker threads. A deadline becomes one
//!   equal per-chamber budget before the fan-out (see
//!   [`ChamberPool::run_all_traced_seeded`]). Safe Rust cannot stop a
//!   running thread, so a kill abandons the worker — its output is
//!   discarded and it holds no capability to leak through — and a fresh
//!   worker takes its place. Every worker that was not killed is joined
//!   before the dispatch returns.
//!
//! One mutex guards the cursor, each worker's running chamber and the
//! report slots. Workers claim and publish under it and the watchdog
//! kills under it, so a killed worker can neither fill a slot nor claim
//! another block. Two properties make the parallelism invisible to
//! answers:
//!
//! - **Seeds split before fan-out.** Chamber `i`'s RNG seed is a pure
//!   function of (query seed, `i`) derived by [`crate::exec::chamber_seed`]
//!   and carried into the chamber's [`Scratch`]; no draw depends on
//!   which worker ran the block or when.
//! - **Index-ordered reduce.** Every report lands in its block's slot,
//!   and the pool returns them in block order regardless of completion
//!   order.
//!
//! Blocks arrive as [`BlockView`]s: the chamber hands the program a
//! read-only window onto the shared row store instead of piping an owned
//! copy, so dispatch cost is independent of block byte size.

use crate::exec::{chamber_seed, ExecutionPolicy};
use crate::policy::ChamberPolicy;
use crate::program::BlockProgram;
use crate::scratch::Scratch;
use crate::view::BlockView;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

/// How a chamber invocation ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChamberOutcome {
    /// The program returned within its budget.
    Completed,
    /// The program exceeded its execution budget and was killed; the
    /// output is the policy's fallback constant.
    TimedOut,
    /// The program panicked; the output is the policy's fallback constant.
    Panicked,
}

/// The result of one chamber invocation.
#[derive(Debug, Clone)]
pub struct ChamberReport {
    /// Program output, normalised to the declared output dimension.
    pub output: Vec<f64>,
    /// How the invocation ended.
    pub outcome: ChamberOutcome,
    /// Wall-clock time the chamber occupied, including padding. Under a
    /// padding policy this is data-independent by construction.
    pub elapsed: Duration,
}

/// An isolated execution chamber.
#[derive(Debug, Clone, Default)]
pub struct Chamber {
    policy: ChamberPolicy,
}

impl Chamber {
    /// Creates a chamber with the given policy.
    pub fn new(policy: ChamberPolicy) -> Self {
        Chamber { policy }
    }

    /// The chamber's policy.
    pub fn policy(&self) -> &ChamberPolicy {
        &self.policy
    }

    /// Executes `program` on `block` under the chamber policy.
    ///
    /// The view is moved into the chamber (mirroring the paper's data
    /// piping into the sandboxed process) but shares the underlying row
    /// store: the program can read exactly its block and can never
    /// observe or mutate runtime-owned memory.
    pub fn execute(&self, program: Arc<dyn BlockProgram>, block: BlockView) -> ChamberReport {
        self.execute_seeded(program, block, None)
    }

    /// Like [`Chamber::execute`], with a pre-derived RNG seed exposed to
    /// the program through [`Scratch::seed`]. The seed must be a pure
    /// function of (query seed, block index) — see
    /// [`crate::exec::chamber_seed`] — so the invocation stays
    /// deterministic under any scheduling.
    ///
    /// This is a one-block dispatch: under an execution budget the
    /// program runs on one watched worker thread, killed the same way a
    /// [`ChamberPool`] kills; without one it runs on the calling thread.
    pub fn execute_seeded(
        &self,
        program: Arc<dyn BlockProgram>,
        block: BlockView,
        seed: Option<u64>,
    ) -> ChamberReport {
        let (mut reports, _) = dispatch(&self.policy, 1, program, vec![block], vec![seed], None);
        reports.pop().expect("a dispatch reports every block")
    }
}

/// Pads (with `fill`) or truncates `out` to exactly `dim` values, so a
/// hostile program cannot signal through output arity (§8.1).
fn normalize_arity(out: &mut Vec<f64>, dim: usize, fill: f64) {
    out.resize(dim, fill);
    // Non-finite outputs are replaced too: downstream clamping handles
    // range, but NaN would poison the aggregate before clamping sees it.
    for v in out.iter_mut() {
        if !v.is_finite() {
            *v = fill;
        }
    }
}

/// Execution trace of one [`ChamberPool::run_all_traced`] call, for
/// operator telemetry. Worker busy times depend on the private data
/// (unless a padding policy is in force) and are **not** ε-protected.
#[derive(Debug, Clone, Default)]
pub struct PoolTrace {
    /// Wall clock of the whole dispatch.
    pub wall: Duration,
    /// Workers running at once (`min(workers, blocks)`).
    pub workers_used: usize,
    /// Per-worker time spent inside chambers (unordered; a killed
    /// worker and its replacement each have an entry).
    pub busy: Vec<Duration>,
    /// Threads the dispatch started, replacements included. An
    /// unbounded dispatch starts `workers_used − 1` helpers, since the
    /// calling thread works too; a bounded one starts `workers_used`
    /// workers plus one for each that was killed or died, so
    /// `spawned > workers_used` means chambers were killed.
    pub spawned: u64,
}

impl PoolTrace {
    /// Fraction of `workers_used × wall` spent inside chambers
    /// (1.0 = perfectly packed). 0 when nothing ran.
    pub fn utilization(&self) -> f64 {
        let capacity = self.wall.as_secs_f64() * self.workers_used as f64;
        if capacity <= 0.0 {
            return 0.0;
        }
        let busy: f64 = self.busy.iter().map(Duration::as_secs_f64).sum();
        (busy / capacity).min(1.0)
    }

    /// Total CPU-side chamber time across workers — compare against
    /// `wall × workers_used` to read parallel efficiency.
    pub fn cpu(&self) -> Duration {
        self.busy.iter().sum()
    }
}

/// A pool of chambers executing many blocks in parallel under an
/// [`ExecutionPolicy`].
#[derive(Debug, Clone)]
pub struct ChamberPool {
    policy: ChamberPolicy,
    exec: ExecutionPolicy,
    workers: usize,
}

impl ChamberPool {
    /// Creates a pool running under `policy` with `workers` threads
    /// (clamped to at least 1). Equivalent to
    /// [`ChamberPool::with_execution`] with [`ExecutionPolicy::parallel`].
    pub fn new(policy: ChamberPolicy, workers: usize) -> Self {
        ChamberPool::with_execution(policy, ExecutionPolicy::parallel(workers))
    }

    /// Creates a pool scheduled by `exec` (the first-class path).
    pub fn with_execution(policy: ChamberPolicy, exec: ExecutionPolicy) -> Self {
        let workers = exec.effective_threads();
        ChamberPool {
            policy,
            exec,
            workers,
        }
    }

    /// A pool sized to the machine's available parallelism.
    pub fn with_default_parallelism(policy: ChamberPolicy) -> Self {
        ChamberPool::with_execution(policy, ExecutionPolicy::auto())
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The policy chambers run under.
    pub fn policy(&self) -> &ChamberPolicy {
        &self.policy
    }

    /// The execution policy scheduling this pool.
    pub fn execution(&self) -> &ExecutionPolicy {
        &self.exec
    }

    /// A pool with the same chamber policy but a different execution
    /// policy — how per-query `.execution(..)` overrides and service
    /// worker-budget caps are applied.
    pub fn with_execution_policy(&self, exec: ExecutionPolicy) -> ChamberPool {
        ChamberPool::with_execution(self.policy.clone(), exec)
    }

    /// Executes `program` on every block view, in parallel, preserving
    /// block order in the returned reports.
    pub fn run_all(
        &self,
        program: &Arc<dyn BlockProgram>,
        views: Vec<BlockView>,
    ) -> Vec<ChamberReport> {
        self.run_all_traced(program, views).0
    }

    /// Like [`ChamberPool::run_all`], additionally returning a
    /// [`PoolTrace`] with the dispatch wall clock, per-worker busy
    /// times and the threads started, for operator telemetry.
    pub fn run_all_traced(
        &self,
        program: &Arc<dyn BlockProgram>,
        views: Vec<BlockView>,
    ) -> (Vec<ChamberReport>, PoolTrace) {
        self.run_all_traced_seeded(program, views, None, None)
    }

    /// The full-featured dispatch. With a `seed_base`, chamber `i`
    /// receives [`chamber_seed`]`(base, i)` via its scratch space. With
    /// a `deadline`, the whole fan-out is bounded: before any chamber
    /// starts, the time left is split into one equal budget per round
    /// of `min(workers, blocks)` chambers, and each chamber is killed
    /// when its share runs out (or its execution budget, if that is
    /// shorter). A block's outcome thus depends on its own run alone,
    /// never on how long the blocks before it ran — sample-and-aggregate
    /// calibrates its noise to one record changing only its own blocks.
    ///
    /// Workers claim views by index — handing a view to a chamber is
    /// an O(1) pair of `Arc` bumps, never a row copy — so shipping work
    /// to the pool costs the same regardless of γ or dataset size.
    /// Reports land in per-block slots and are returned in block order:
    /// the deterministic reduce that, together with pre-split seeds,
    /// makes answers bit-identical to sequential execution.
    pub fn run_all_traced_seeded(
        &self,
        program: &Arc<dyn BlockProgram>,
        views: Vec<BlockView>,
        seed_base: Option<u64>,
        deadline: Option<Instant>,
    ) -> (Vec<ChamberReport>, PoolTrace) {
        let seeds = (0..views.len() as u64)
            .map(|i| seed_base.map(|base| chamber_seed(base, i)))
            .collect();
        dispatch(
            &self.policy,
            self.workers,
            Arc::clone(program),
            views,
            seeds,
            deadline,
        )
    }
}

/// Runs `program` on every view under `policy` with up to `workers`
/// workers, chamber `i` seeded with `seeds[i]`. See the module docs for
/// how the workers are hosted.
fn dispatch(
    policy: &ChamberPolicy,
    workers: usize,
    program: Arc<dyn BlockProgram>,
    views: Vec<BlockView>,
    seeds: Vec<Option<u64>>,
    deadline: Option<Instant>,
) -> (Vec<ChamberReport>, PoolTrace) {
    let n = views.len();
    if n == 0 {
        return (Vec::new(), PoolTrace::default());
    }
    let start = Instant::now();
    let width = workers.clamp(1, n);
    // Every round of `width` chambers gets an equal share of the time
    // left, so the fan-out ends near the deadline.
    let share = deadline.map(|at| {
        let rounds = u32::try_from(n.div_ceil(width)).unwrap_or(u32::MAX);
        at.saturating_duration_since(start) / rounds
    });
    let budget = policy.execution_budget.into_iter().chain(share).min();
    let dispatch = Arc::new(Dispatch {
        policy: policy.clone(),
        dim: program.output_dimension(),
        program,
        views,
        seeds,
        budget,
        board: Mutex::new(Board {
            next: 0,
            slots: (0..n).map(|_| None).collect(),
            open: n,
            seats: Vec::new(),
        }),
        changed: Condvar::new(),
    });
    let spawned = if budget.is_some() {
        dispatch.watch(width)
    } else {
        dispatch.share(width)
    };
    // A killed worker may still hold the dispatch, but it never touches
    // a slot again.
    let mut board = dispatch.lock();
    let reports = board
        .slots
        .iter_mut()
        .map(|slot| {
            slot.take()
                .expect("every block is reported before the dispatch returns")
        })
        .collect();
    let trace = PoolTrace {
        wall: start.elapsed(),
        workers_used: width,
        busy: board.seats.iter().map(|seat| seat.busy).collect(),
        spawned,
    };
    (reports, trace)
}

/// One dispatch's shared state. It is reference-counted so that an
/// abandoned worker can keep it alive until its program returns.
struct Dispatch {
    policy: ChamberPolicy,
    program: Arc<dyn BlockProgram>,
    views: Vec<BlockView>,
    seeds: Vec<Option<u64>>,
    /// The program's declared output arity, read once.
    dim: usize,
    /// Each chamber's execution budget: the policy's, or the
    /// deadline's per-chamber share if that is shorter.
    budget: Option<Duration>,
    board: Mutex<Board>,
    /// Signalled after a change the watchdog waits for has been made
    /// under `board`.
    changed: Condvar,
}

/// What the workers and the watchdog share, behind [`Dispatch::board`].
struct Board {
    /// The first block no worker has claimed.
    next: usize,
    /// Each block's report, filled exactly once.
    slots: Vec<Option<ChamberReport>>,
    /// Slots not yet filled.
    open: usize,
    /// One per thread that has worked on this dispatch.
    seats: Vec<Seat>,
}

/// One worker's entry on the [`Board`].
#[derive(Default)]
struct Seat {
    /// The block this worker's chamber is running, and since when.
    running: Option<(usize, Instant)>,
    /// The watchdog killed this worker: it may publish and claim
    /// nothing more.
    killed: bool,
    /// The worker has left its loop.
    exited: bool,
    /// Time spent inside chambers.
    busy: Duration,
}

impl Board {
    /// Files `report` as `block`'s result.
    fn fill(&mut self, block: usize, report: ChamberReport) {
        debug_assert!(self.slots[block].is_none(), "block {block} reported twice");
        self.slots[block] = Some(report);
        self.open -= 1;
    }

    /// Files `report` for the chamber `seat` is running on `block`, and
    /// charges its time to the seat.
    fn publish(&mut self, seat: usize, block: usize, report: ChamberReport) {
        let seat = &mut self.seats[seat];
        seat.running = None;
        seat.busy += report.elapsed;
        self.fill(block, report);
    }
}

impl Dispatch {
    fn lock(&self) -> MutexGuard<'_, Board> {
        // Every update under the lock leaves the board consistent, and a
        // dying worker's `Exit` guard must still reach its seat.
        self.board.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The fallback report: the policy's in-range constant.
    fn fallback(&self, outcome: ChamberOutcome, elapsed: Duration) -> ChamberReport {
        ChamberReport {
            output: vec![self.policy.fallback_value; self.dim],
            outcome,
            elapsed,
        }
    }

    /// When a chamber that started at `start` is killed: at the end of
    /// its budget.
    fn kill_at(&self, start: Instant) -> Option<Instant> {
        self.budget.and_then(|budget| start.checked_add(budget))
    }

    /// Runs `block`'s chamber on this thread: a fresh scratch, panics
    /// contained, output normalised to the declared arity.
    fn run_chamber(&self, block: usize) -> (Vec<f64>, ChamberOutcome) {
        let scratch = match self.policy.scratch_quota {
            Some(quota) => Scratch::with_quota(quota),
            None => Scratch::new(),
        };
        let mut scratch = match self.seeds[block] {
            Some(seed) => scratch.with_seed(seed),
            None => scratch,
        };
        let result = catch_unwind(AssertUnwindSafe(|| {
            self.program.run(&self.views[block], &mut scratch)
        }));
        scratch.wipe();
        let (mut output, outcome) = match result {
            Ok(output) => (output, ChamberOutcome::Completed),
            Err(_) => (Vec::new(), ChamberOutcome::Panicked),
        };
        normalize_arity(&mut output, self.dim, self.policy.fallback_value);
        (output, outcome)
    }

    /// A worker's loop on `seat`: claim the next block, run its
    /// chamber, publish the report, sleep out any padding — until no
    /// block is left or the watchdog kills the chamber.
    fn work(&self, seat: usize) {
        let _exit = Exit {
            dispatch: self,
            seat,
        };
        let pad = self.budget.filter(|_| self.policy.pad_to_budget);
        loop {
            let (block, start) = {
                let mut board = self.lock();
                if board.next == self.views.len() {
                    return;
                }
                let block = board.next;
                board.next += 1;
                let start = Instant::now();
                board.seats[seat].running = Some((block, start));
                (block, start)
            };
            // The kill instant runs from `start`: the watchdog must hear
            // of the claim.
            if self.kill_at(start).is_some() {
                self.changed.notify_one();
            }
            let (output, outcome) = self.run_chamber(block);
            let ran = start.elapsed();
            // A padded chamber occupies its whole budget: the worker
            // sleeps out the rest after publishing.
            let elapsed = pad.map_or(ran, |budget| ran.max(budget));
            let done = {
                let mut board = self.lock();
                if board.seats[seat].killed {
                    return;
                }
                let report = ChamberReport {
                    output,
                    outcome,
                    elapsed,
                };
                board.publish(seat, block, report);
                board.open == 0
            };
            if done {
                self.changed.notify_one();
            }
            if let Some(rest) = pad.and_then(|budget| budget.checked_sub(ran)) {
                thread::sleep(rest);
            }
        }
    }

    /// The unbounded dispatch: the calling thread works beside
    /// `width − 1` scoped helpers. Returns the helpers started.
    fn share(&self, width: usize) -> u64 {
        self.lock().seats.resize_with(width, Seat::default);
        thread::scope(|scope| {
            let helpers: Vec<_> = (1..width)
                .filter_map(|seat| {
                    thread::Builder::new()
                        .spawn_scoped(scope, move || self.work(seat))
                        .ok()
                })
                .collect();
            self.work(0);
            let spawned = helpers.len() as u64;
            for helper in helpers {
                // A helper that died has reported its block through its
                // exit guard.
                let _ = helper.join();
            }
            spawned
        })
    }

    /// The bounded dispatch, run by the calling thread as watchdog: keep
    /// `width` workers live while blocks are unclaimed, kill each
    /// chamber when its budget runs out, then reap every worker that
    /// was not killed. Returns the threads started.
    fn watch(self: &Arc<Self>, width: usize) -> u64 {
        let n = self.views.len();
        let mut workers = Vec::new();
        let mut board = self.lock();
        loop {
            let now = Instant::now();
            for seat in 0..board.seats.len() {
                let Some((block, start)) = board.seats[seat].running else {
                    continue;
                };
                if self.kill_at(start).is_some_and(|kill| now >= kill) {
                    board.seats[seat].killed = true;
                    let report = self.fallback(ChamberOutcome::TimedOut, now - start);
                    board.publish(seat, block, report);
                }
            }
            if board.open == 0 {
                break;
            }
            // The first workers, and a replacement for each one killed or
            // dead. A new worker cannot reach its seat before this
            // thread releases the lock.
            let mut live = board
                .seats
                .iter()
                .filter(|s| !s.killed && !s.exited)
                .count();
            while live < width && board.next < n {
                let seat = board.seats.len();
                let worker = Arc::clone(self);
                let spawn = thread::Builder::new()
                    .name("gupt-chamber".into())
                    .spawn(move || worker.work(seat));
                let Ok(handle) = spawn else { break };
                board.seats.push(Seat::default());
                workers.push((seat, handle));
                live += 1;
            }
            if live == 0 {
                // No worker could be started, and none is running a
                // chamber: the remaining blocks fail closed.
                while board.next < n {
                    let block = board.next;
                    board.next += 1;
                    let report = self.fallback(ChamberOutcome::Panicked, Duration::ZERO);
                    board.fill(block, report);
                }
                break;
            }
            // Sleep until the first kill instant, or until a worker
            // reports a claim, the last report, or its exit.
            let wake = board
                .seats
                .iter()
                .filter_map(|seat| seat.running)
                .filter_map(|(_, start)| self.kill_at(start))
                .min();
            board = match wake {
                Some(at) => {
                    let timeout = at.saturating_duration_since(Instant::now());
                    self.changed
                        .wait_timeout(board, timeout)
                        .unwrap_or_else(PoisonError::into_inner)
                        .0
                }
                None => self
                    .changed
                    .wait(board)
                    .unwrap_or_else(PoisonError::into_inner),
            };
        }
        let spawned = workers.len() as u64;
        // Killed workers are abandoned. Every other worker has no block
        // left and exits once its padding ends: joining it keeps the
        // dispatch's wall time data-independent, and lets the thread
        // finish exiting before the next dispatch starts workers, so
        // the allocator does not give each new worker a fresh arena.
        let live: Vec<_> = workers
            .into_iter()
            .filter(|(seat, _)| !board.seats[*seat].killed)
            .map(|(_, handle)| handle)
            .collect();
        drop(board);
        for handle in live {
            // A worker that died has reported its block through its exit
            // guard.
            let _ = handle.join();
        }
        spawned
    }
}

/// Marks a worker's seat exited however its thread leaves
/// [`Dispatch::work`]. A worker that dies outside its chamber's
/// `catch_unwind` still holds its block; the guard reports it as
/// [`ChamberOutcome::Panicked`].
struct Exit<'a> {
    dispatch: &'a Dispatch,
    seat: usize,
}

impl Drop for Exit<'_> {
    fn drop(&mut self) {
        let dispatch = self.dispatch;
        let mut board = dispatch.lock();
        board.seats[self.seat].exited = true;
        if let Some((block, start)) = board.seats[self.seat].running {
            let report = dispatch.fallback(ChamberOutcome::Panicked, start.elapsed());
            board.publish(self.seat, block, report);
        }
        drop(board);
        dispatch.changed.notify_one();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::ClosureProgram;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;

    fn sum_program() -> Arc<dyn BlockProgram> {
        Arc::new(ClosureProgram::new(1, |block: &BlockView| {
            vec![block.iter().map(|r| r[0]).sum::<f64>()]
        }))
    }

    fn view(rows: &[Vec<f64>]) -> BlockView {
        BlockView::from_rows(rows)
    }

    fn views(n: usize) -> Vec<BlockView> {
        (0..n).map(|i| view(&[vec![i as f64]])).collect()
    }

    /// Runs `f` on its own thread and fails the test if it has not
    /// returned within `limit`, so a stalled dispatch fails instead of
    /// hanging the suite.
    fn within<T: Send + 'static>(limit: Duration, f: impl FnOnce() -> T + Send + 'static) -> T {
        let (tx, rx) = mpsc::channel();
        let handle = thread::spawn(move || {
            let _ = tx.send(f());
        });
        match rx.recv_timeout(limit) {
            Ok(value) => value,
            Err(mpsc::RecvTimeoutError::Timeout) => panic!("no return within {limit:?}"),
            Err(mpsc::RecvTimeoutError::Disconnected) => match handle.join() {
                Err(panic) => std::panic::resume_unwind(panic),
                Ok(()) => unreachable!("the thread sends before it returns"),
            },
        }
    }

    fn outcomes(reports: &[ChamberReport]) -> Vec<ChamberOutcome> {
        reports.iter().map(|r| r.outcome).collect()
    }

    #[test]
    fn completes_well_behaved_program() {
        let chamber = Chamber::new(ChamberPolicy::unbounded());
        let report = chamber.execute(sum_program(), view(&[vec![1.0], vec![2.0], vec![3.0]]));
        assert_eq!(report.outcome, ChamberOutcome::Completed);
        assert_eq!(report.output, vec![6.0]);
    }

    #[test]
    fn contains_panics() {
        let p: Arc<dyn BlockProgram> = Arc::new(ClosureProgram::new(2, |_: &BlockView| {
            panic!("hostile program")
        }));
        let chamber = Chamber::new(ChamberPolicy::unbounded().with_fallback(7.0));
        let report = chamber.execute(p, view(&[vec![1.0]]));
        assert_eq!(report.outcome, ChamberOutcome::Panicked);
        assert_eq!(report.output, vec![7.0, 7.0]);
    }

    #[test]
    fn kills_overrunning_program() {
        let p: Arc<dyn BlockProgram> = Arc::new(ClosureProgram::new(1, |_: &BlockView| {
            std::thread::sleep(Duration::from_secs(5));
            vec![999.0]
        }));
        let chamber =
            Chamber::new(ChamberPolicy::bounded(Duration::from_millis(20), 0.5).without_padding());
        let start = Instant::now();
        let report = chamber.execute(p, view(&[vec![1.0]]));
        assert_eq!(report.outcome, ChamberOutcome::TimedOut);
        assert_eq!(report.output, vec![0.5]);
        assert!(start.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn bounded_completion_within_budget() {
        let chamber =
            Chamber::new(ChamberPolicy::bounded(Duration::from_secs(5), 0.0).without_padding());
        let report = chamber.execute(sum_program(), view(&[vec![4.0]]));
        assert_eq!(report.outcome, ChamberOutcome::Completed);
        assert_eq!(report.output, vec![4.0]);
        assert!(report.elapsed < Duration::from_secs(1));
    }

    #[test]
    fn padding_makes_runtime_constant() {
        let budget = Duration::from_millis(60);
        let fast: Arc<dyn BlockProgram> =
            Arc::new(ClosureProgram::new(1, |_: &BlockView| vec![1.0]));
        let slow: Arc<dyn BlockProgram> = Arc::new(ClosureProgram::new(1, |_: &BlockView| {
            std::thread::sleep(Duration::from_millis(30));
            vec![1.0]
        }));
        let chamber = Chamber::new(ChamberPolicy::bounded(budget, 0.0));
        let t_fast = chamber.execute(fast, view(&[vec![0.0]])).elapsed;
        let t_slow = chamber.execute(slow, view(&[vec![0.0]])).elapsed;
        // Both at least the budget, and within scheduling slop of each other.
        assert!(t_fast >= budget && t_slow >= budget);
        let diff = t_fast.abs_diff(t_slow);
        assert!(diff < Duration::from_millis(25), "diff = {diff:?}");
    }

    #[test]
    fn output_arity_is_enforced() {
        let too_many: Arc<dyn BlockProgram> = Arc::new(ClosureProgram::new(2, |_: &BlockView| {
            vec![1.0, 2.0, 3.0, 4.0]
        }));
        let too_few: Arc<dyn BlockProgram> =
            Arc::new(ClosureProgram::new(3, |_: &BlockView| vec![1.0]));
        let chamber = Chamber::new(ChamberPolicy::unbounded().with_fallback(-1.0));
        assert_eq!(
            chamber.execute(too_many, view(&[vec![0.0]])).output,
            vec![1.0, 2.0]
        );
        assert_eq!(
            chamber.execute(too_few, view(&[vec![0.0]])).output,
            vec![1.0, -1.0, -1.0]
        );
    }

    #[test]
    fn non_finite_outputs_replaced() {
        let p: Arc<dyn BlockProgram> = Arc::new(ClosureProgram::new(3, |_: &BlockView| {
            vec![f64::NAN, f64::INFINITY, 1.0]
        }));
        let chamber = Chamber::new(ChamberPolicy::unbounded().with_fallback(0.0));
        assert_eq!(
            chamber.execute(p, view(&[vec![0.0]])).output,
            vec![0.0, 0.0, 1.0]
        );
    }

    #[test]
    fn scratch_quota_overrun_contained_as_panic() {
        // A scratch-hog program is terminated and the fallback emitted —
        // the §6 resource bound.
        struct Hog;
        impl BlockProgram for Hog {
            fn run(&self, _block: &BlockView, scratch: &mut crate::Scratch) -> Vec<f64> {
                for i in 0.. {
                    scratch.put(format!("k{i}"), vec![0.0; 1024]);
                }
                vec![1.0]
            }
            fn output_dimension(&self) -> usize {
                1
            }
        }
        let chamber = Chamber::new(
            ChamberPolicy::unbounded()
                .with_scratch_quota(16 * 1024)
                .with_fallback(0.5),
        );
        let report = chamber.execute(Arc::new(Hog), view(&[vec![1.0]]));
        assert_eq!(report.outcome, ChamberOutcome::Panicked);
        assert_eq!(report.output, vec![0.5]);
    }

    #[test]
    fn seed_reaches_program_through_scratch() {
        struct SeedEcho;
        impl BlockProgram for SeedEcho {
            fn run(&self, _block: &BlockView, scratch: &mut crate::Scratch) -> Vec<f64> {
                vec![scratch.seed().map_or(-1.0, |s| (s % 1000) as f64)]
            }
            fn output_dimension(&self) -> usize {
                1
            }
        }
        let chamber = Chamber::new(ChamberPolicy::unbounded());
        let p: Arc<dyn BlockProgram> = Arc::new(SeedEcho);
        let unseeded = chamber.execute_seeded(Arc::clone(&p), view(&[vec![0.0]]), None);
        assert_eq!(unseeded.output, vec![-1.0]);
        let seeded = chamber.execute_seeded(p, view(&[vec![0.0]]), Some(123_456));
        assert_eq!(seeded.output, vec![(123_456.0_f64 % 1000.0)]);
    }

    #[test]
    fn bounded_chamber_also_carries_seed() {
        struct SeedEcho;
        impl BlockProgram for SeedEcho {
            fn run(&self, _block: &BlockView, scratch: &mut crate::Scratch) -> Vec<f64> {
                vec![scratch.seed().map_or(-1.0, |s| (s % 1000) as f64)]
            }
            fn output_dimension(&self) -> usize {
                1
            }
        }
        let chamber =
            Chamber::new(ChamberPolicy::bounded(Duration::from_secs(5), 0.0).without_padding());
        let report = chamber.execute_seeded(Arc::new(SeedEcho), view(&[vec![0.0]]), Some(777));
        assert_eq!(report.output, vec![777.0]);
    }

    #[test]
    fn pool_preserves_block_order() {
        let pool = ChamberPool::new(ChamberPolicy::unbounded(), 4);
        let views: Vec<BlockView> = (0..32).map(|i| view(&[vec![i as f64]])).collect();
        let reports = pool.run_all(&sum_program(), views);
        assert_eq!(reports.len(), 32);
        for (i, r) in reports.iter().enumerate() {
            assert_eq!(r.output, vec![i as f64], "block {i}");
        }
    }

    #[test]
    fn pool_preserves_order_at_every_width() {
        for width in [1usize, 2, 3, 5, 32, 100] {
            let pool = ChamberPool::new(ChamberPolicy::unbounded(), width);
            let views: Vec<BlockView> = (0..33).map(|i| view(&[vec![i as f64]])).collect();
            let reports = pool.run_all(&sum_program(), views);
            assert_eq!(reports.len(), 33, "width {width}");
            for (i, r) in reports.iter().enumerate() {
                assert_eq!(r.output, vec![i as f64], "width {width}, block {i}");
            }
        }
    }

    #[test]
    fn pool_shares_one_store_across_views() {
        // The production shape: every view windows the same Arc'd store.
        let store = std::sync::Arc::new(crate::RowStore::from_rows(
            &(0..32).map(|i| vec![i as f64]).collect::<Vec<_>>(),
        ));
        let pool = ChamberPool::new(ChamberPolicy::unbounded(), 4);
        let views: Vec<BlockView> = (0..32)
            .map(|i| BlockView::dense(std::sync::Arc::clone(&store), i, 1))
            .collect();
        let reports = pool.run_all(&sum_program(), views);
        for (i, r) in reports.iter().enumerate() {
            assert_eq!(r.output, vec![i as f64], "block {i}");
        }
    }

    #[test]
    fn pool_empty_input() {
        let pool = ChamberPool::new(ChamberPolicy::unbounded(), 2);
        assert!(pool.run_all(&sum_program(), Vec::new()).is_empty());
    }

    #[test]
    fn pool_single_worker_still_works() {
        let pool = ChamberPool::new(ChamberPolicy::unbounded(), 1);
        let views: Vec<BlockView> = (0..5).map(|i| view(&[vec![i as f64]])).collect();
        let reports = pool.run_all(&sum_program(), views);
        assert_eq!(reports.len(), 5);
    }

    #[test]
    fn pool_contains_mixed_failures() {
        // Program panics on blocks whose first value is negative.
        let p: Arc<dyn BlockProgram> = Arc::new(ClosureProgram::new(1, |b: &BlockView| {
            assert!(b.row(0)[0] >= 0.0, "hostile trigger");
            vec![b.row(0)[0]]
        }));
        let pool = ChamberPool::new(ChamberPolicy::unbounded().with_fallback(-99.0), 3);
        let views = vec![view(&[vec![1.0]]), view(&[vec![-1.0]]), view(&[vec![2.0]])];
        let reports = pool.run_all(&p, views);
        assert_eq!(reports[0].outcome, ChamberOutcome::Completed);
        assert_eq!(reports[1].outcome, ChamberOutcome::Panicked);
        assert_eq!(reports[1].output, vec![-99.0]);
        assert_eq!(reports[2].outcome, ChamberOutcome::Completed);
    }

    #[test]
    fn traced_run_reports_busy_workers() {
        let pool = ChamberPool::new(ChamberPolicy::unbounded(), 3);
        let p: Arc<dyn BlockProgram> = Arc::new(ClosureProgram::new(1, |_: &BlockView| {
            std::thread::sleep(Duration::from_millis(5));
            vec![1.0]
        }));
        let views: Vec<BlockView> = (0..6).map(|i| view(&[vec![i as f64]])).collect();
        let (reports, trace) = pool.run_all_traced(&p, views);
        assert_eq!(reports.len(), 6);
        assert_eq!(trace.workers_used, 3);
        assert_eq!(trace.busy.len(), 3);
        assert!(trace.wall >= Duration::from_millis(5));
        assert!(trace.cpu() >= Duration::from_millis(6 * 5));
        let u = trace.utilization();
        assert!(u > 0.0 && u <= 1.0, "utilization = {u}");
    }

    #[test]
    fn traced_run_caps_workers_at_block_count() {
        let pool = ChamberPool::new(ChamberPolicy::unbounded(), 8);
        let (reports, trace) = pool.run_all_traced(&sum_program(), vec![view(&[vec![1.0]])]);
        assert_eq!(reports.len(), 1);
        assert_eq!(trace.workers_used, 1);
        assert_eq!(
            trace.spawned, 0,
            "a single block runs on the calling thread"
        );
    }

    #[test]
    fn empty_trace_is_zero_utilization() {
        let pool = ChamberPool::new(ChamberPolicy::unbounded(), 2);
        let (reports, trace) = pool.run_all_traced(&sum_program(), Vec::new());
        assert!(reports.is_empty());
        assert_eq!(trace.workers_used, 0);
        assert_eq!(trace.utilization(), 0.0);
        assert_eq!(trace.cpu(), Duration::ZERO);
    }

    #[test]
    fn default_parallelism_pool() {
        let pool = ChamberPool::with_default_parallelism(ChamberPolicy::unbounded());
        assert!(pool.workers() >= 1);
        assert_eq!(pool.execution().threads, 0, "auto policy retained");
    }

    #[test]
    fn one_slow_block_does_not_strand_the_rest() {
        // Block 0 takes 400 ms and the other four 80 ms each. Claiming
        // from one cursor, the second worker drains all four while the
        // first is stuck, so the dispatch takes ~400 ms. Any schedule
        // fixed before the fan-out hands the slow worker at least one
        // more block: ≥ 480 ms.
        let p: Arc<dyn BlockProgram> = Arc::new(ClosureProgram::new(1, |b: &BlockView| {
            let ms = if b.row(0)[0] == 0.0 { 400 } else { 80 };
            std::thread::sleep(Duration::from_millis(ms));
            vec![b.row(0)[0]]
        }));
        let pool = ChamberPool::new(ChamberPolicy::unbounded(), 2);
        let (reports, trace) = pool.run_all_traced(&p, views(5));
        for (i, r) in reports.iter().enumerate() {
            assert_eq!(r.output, vec![i as f64]);
        }
        assert!(
            trace.wall < Duration::from_millis(440),
            "one slow block stranded the rest: {:?}",
            trace.wall
        );
    }

    #[test]
    fn seeded_dispatch_is_interleaving_independent() {
        // A program that derives its output from the scratch seed must
        // produce identical reports at 1, 2 and 8 threads.
        struct SeedHash;
        impl BlockProgram for SeedHash {
            fn run(&self, block: &BlockView, scratch: &mut crate::Scratch) -> Vec<f64> {
                let s = scratch.seed().expect("pool supplies seeds");
                vec![(s % 10_000) as f64 + block.row(0)[0]]
            }
            fn output_dimension(&self) -> usize {
                1
            }
        }
        let p: Arc<dyn BlockProgram> = Arc::new(SeedHash);
        let views = || -> Vec<BlockView> { (0..24).map(|i| view(&[vec![i as f64]])).collect() };
        let run = |threads: usize| -> Vec<u64> {
            let pool = ChamberPool::with_execution(
                ChamberPolicy::unbounded(),
                ExecutionPolicy::parallel(threads),
            );
            pool.run_all_traced_seeded(&p, views(), Some(0xDEAD_BEEF), None)
                .0
                .into_iter()
                .map(|r| r.output[0].to_bits())
                .collect()
        };
        let sequential = run(1);
        assert_eq!(sequential, run(2));
        assert_eq!(sequential, run(8));
    }

    #[test]
    fn execution_policy_override_keeps_chamber_policy() {
        let pool = ChamberPool::new(ChamberPolicy::unbounded().with_fallback(3.5), 2);
        let wide = pool.with_execution_policy(ExecutionPolicy::parallel(6));
        assert_eq!(wide.workers(), 6);
        assert_eq!(wide.policy().fallback_value, 3.5);
    }

    #[test]
    fn spawned_counts_every_thread_started() {
        let bounded = ChamberPolicy::bounded(Duration::from_millis(300), 0.0).without_padding();
        let (reports, trace) = within(Duration::from_secs(10), move || {
            ChamberPool::new(bounded, 1).run_all_traced(&sum_program(), views(100))
        });
        assert_eq!(trace.spawned, 1, "one worker for 100 bounded blocks");
        assert!(outcomes(&reports)
            .iter()
            .all(|o| *o == ChamberOutcome::Completed));

        // Block 0 overruns: its worker is killed and one replacement
        // runs the other 99 blocks.
        let hostile: Arc<dyn BlockProgram> = Arc::new(ClosureProgram::new(1, |b: &BlockView| {
            if b.row(0)[0] == 0.0 {
                thread::sleep(Duration::from_secs(2));
            }
            vec![b.row(0)[0]]
        }));
        let bounded = ChamberPolicy::bounded(Duration::from_millis(100), 0.0).without_padding();
        let (reports, trace) = within(Duration::from_secs(10), move || {
            ChamberPool::new(bounded, 1).run_all_traced(&hostile, views(100))
        });
        assert_eq!(trace.spawned, 2);
        let timed_out = outcomes(&reports)
            .iter()
            .filter(|o| **o == ChamberOutcome::TimedOut)
            .count();
        assert_eq!(timed_out, 1);
        assert_eq!(reports[0].outcome, ChamberOutcome::TimedOut);

        let unbounded = ChamberPool::new(ChamberPolicy::unbounded(), 1);
        assert_eq!(
            unbounded
                .run_all_traced(&sum_program(), views(10))
                .1
                .spawned,
            0
        );
        let unbounded = ChamberPool::new(ChamberPolicy::unbounded(), 4);
        assert_eq!(
            unbounded
                .run_all_traced(&sum_program(), views(10))
                .1
                .spawned,
            3
        );
    }

    #[test]
    fn watchdog_kills_and_continues() {
        // Block 0 sleeps past the 200 ms budget and is killed at ~200 ms;
        // its replacement runs blocks 1–3 (100 ms each) until ~500 ms.
        // Block 0's program returns at ~350 ms, while block 3 is still
        // unclaimed: a killed worker that kept claiming would take it.
        let runs = Arc::new(Mutex::new(Vec::new()));
        let woke = Arc::new(AtomicUsize::new(0));
        let program: Arc<dyn BlockProgram> = {
            let (runs, woke) = (Arc::clone(&runs), Arc::clone(&woke));
            Arc::new(ClosureProgram::new(1, move |b: &BlockView| {
                let block = b.row(0)[0] as usize;
                runs.lock().unwrap().push((block, thread::current().id()));
                if block == 0 {
                    thread::sleep(Duration::from_millis(350));
                    woke.store(1, Ordering::SeqCst);
                } else {
                    thread::sleep(Duration::from_millis(100));
                }
                vec![block as f64]
            }))
        };
        let policy = ChamberPolicy::bounded(Duration::from_millis(200), -1.0).without_padding();
        let (reports, trace) = within(Duration::from_secs(10), move || {
            ChamberPool::new(policy, 1).run_all_traced(&program, views(4))
        });
        use ChamberOutcome::{Completed, TimedOut};
        assert_eq!(
            outcomes(&reports),
            vec![TimedOut, Completed, Completed, Completed]
        );
        assert_eq!(reports[0].output, vec![-1.0]);
        assert_eq!(trace.spawned, 2);

        let hostile_end = Instant::now() + Duration::from_secs(5);
        while woke.load(Ordering::SeqCst) == 0 {
            assert!(Instant::now() < hostile_end, "hostile sleep never ended");
            thread::sleep(Duration::from_millis(5));
        }
        // Give the killed worker time to misbehave, then check it did not.
        thread::sleep(Duration::from_millis(50));
        let runs = runs.lock().unwrap();
        assert_eq!(runs.len(), 4, "invocations: {runs:?}");
        let killed = runs[0].1;
        assert!(
            runs[1..].iter().all(|(_, id)| *id != killed),
            "the killed worker claimed another block: {runs:?}"
        );
    }

    #[test]
    fn long_sleep_is_cut_at_the_budget() {
        // The abandoned thread sleeps on; a spinning program would burn
        // a core for the rest of the suite.
        let sleeper: Arc<dyn BlockProgram> = Arc::new(ClosureProgram::new(1, |_: &BlockView| {
            thread::sleep(Duration::from_secs(60));
            vec![1.0]
        }));
        let chamber =
            Chamber::new(ChamberPolicy::bounded(Duration::from_millis(50), 0.0).without_padding());
        let start = Instant::now();
        let report = within(Duration::from_secs(10), move || {
            chamber.execute(sleeper, view(&[vec![0.0]]))
        });
        assert_eq!(report.outcome, ChamberOutcome::TimedOut);
        assert!(
            start.elapsed() < Duration::from_secs(1),
            "{:?}",
            start.elapsed()
        );
    }

    #[test]
    fn padded_dispatch_time_is_data_independent() {
        let budget = Duration::from_millis(40);
        let program = |sleep_ms: u64| -> Arc<dyn BlockProgram> {
            Arc::new(ClosureProgram::new(1, move |_: &BlockView| {
                thread::sleep(Duration::from_millis(sleep_ms));
                vec![1.0]
            }))
        };
        for width in [1usize, 2] {
            let wall = |p: Arc<dyn BlockProgram>| {
                let pool = ChamberPool::new(ChamberPolicy::bounded(budget, 0.0), width);
                within(Duration::from_secs(10), move || {
                    pool.run_all_traced(&p, views(4)).1.wall
                })
            };
            let (fast, slow) = (wall(program(0)), wall(program(25)));
            let floor = budget * (4 / width as u32);
            assert!(
                fast >= floor && slow >= floor,
                "{fast:?} {slow:?} < {floor:?}"
            );
            let diff = fast.abs_diff(slow);
            assert!(
                diff < Duration::from_millis(25),
                "width {width}: diff = {diff:?}"
            );
        }
    }

    #[test]
    fn deadline_bounds_the_whole_fan_out() {
        // Eight 150 ms blocks on one worker under a 300 ms deadline:
        // each chamber gets a ~37 ms share, so every block is killed and
        // the dispatch ends near the deadline.
        let program: Arc<dyn BlockProgram> = Arc::new(ClosureProgram::new(1, |b: &BlockView| {
            thread::sleep(Duration::from_millis(150));
            vec![b.row(0)[0]]
        }));
        let start = Instant::now();
        let deadline = start + Duration::from_millis(300);
        let (reports, _) = within(Duration::from_secs(10), move || {
            let pool = ChamberPool::new(ChamberPolicy::unbounded().with_fallback(9.0), 1);
            pool.run_all_traced_seeded(&program, views(8), None, Some(deadline))
        });
        assert!(
            start.elapsed() < Duration::from_millis(600),
            "{:?}",
            start.elapsed()
        );
        assert!(
            reports
                .iter()
                .all(|r| r.outcome == ChamberOutcome::TimedOut && r.output == vec![9.0]),
            "{:?}",
            outcomes(&reports)
        );
    }

    #[test]
    fn one_slow_block_under_a_deadline_times_out_alone() {
        // Under a deadline, block 0 sleeps far past its share of it. Only
        // block 0 is killed: a program that stalls on the block holding a
        // target record must not turn the blocks after it into the
        // fallback, or one record would move the answer by far more than
        // the noise covers.
        let program: Arc<dyn BlockProgram> = Arc::new(ClosureProgram::new(1, |b: &BlockView| {
            if b.row(0)[0] == 0.0 {
                thread::sleep(Duration::from_secs(2));
            }
            vec![b.row(0)[0]]
        }));
        for width in [1usize, 2] {
            let program = Arc::clone(&program);
            let start = Instant::now();
            let deadline = start + Duration::from_millis(400);
            let reports = within(Duration::from_secs(10), move || {
                let pool = ChamberPool::new(ChamberPolicy::unbounded().with_fallback(9.0), width);
                pool.run_all_traced_seeded(&program, views(8), None, Some(deadline))
                    .0
            });
            assert!(
                start.elapsed() < Duration::from_millis(800),
                "width {width}: {:?}",
                start.elapsed()
            );
            assert_eq!(reports[0].outcome, ChamberOutcome::TimedOut);
            assert_eq!(reports[0].output, vec![9.0]);
            for (i, r) in reports.iter().enumerate().skip(1) {
                assert_eq!(
                    r.outcome,
                    ChamberOutcome::Completed,
                    "width {width}, block {i}"
                );
                assert_eq!(r.output, vec![i as f64]);
            }
        }
    }

    #[test]
    fn dead_worker_releases_its_block_as_panicked() {
        // A panic payload whose destructor panics escapes the chamber's
        // `catch_unwind` when the worker drops it, killing the worker.
        struct Bomb;
        impl Drop for Bomb {
            fn drop(&mut self) {
                panic!("payload destructor");
            }
        }
        let program: Arc<dyn BlockProgram> = Arc::new(ClosureProgram::new(1, |b: &BlockView| {
            if b.row(0)[0] == 1.0 {
                std::panic::panic_any(Bomb);
            }
            vec![b.row(0)[0]]
        }));
        let policy = ChamberPolicy::bounded(Duration::from_secs(5), 7.0).without_padding();
        let (reports, trace) = within(Duration::from_secs(10), move || {
            ChamberPool::new(policy, 1).run_all_traced(&program, views(3))
        });
        use ChamberOutcome::{Completed, Panicked};
        assert_eq!(outcomes(&reports), vec![Completed, Panicked, Completed]);
        assert_eq!(reports[1].output, vec![7.0]);
        assert_eq!(trace.spawned, 2, "the dead worker is replaced");
    }

    #[test]
    fn stress_many_small_dispatches() {
        // Every dispatch must return; a lost wakeup would stall one, so
        // each is checked against the timer on the test thread.
        let (tx, rx) = mpsc::channel();
        let runner = thread::spawn(move || {
            for i in 0..10_000usize {
                // Every (policy, width) pair gets 1,250 dispatches.
                let width = 1 + i % 4;
                let blocks = 1 + i % 7;
                let bounded = (i / 4) % 2 == 0;
                let policy = if bounded {
                    ChamberPolicy::bounded(Duration::from_secs(5), 0.0).without_padding()
                } else {
                    ChamberPolicy::unbounded()
                };
                let (reports, trace) =
                    ChamberPool::new(policy, width).run_all_traced(&sum_program(), views(blocks));
                let ok = reports
                    .iter()
                    .enumerate()
                    .all(|(b, r)| r.outcome == ChamberOutcome::Completed && r.output == [b as f64]);
                let expected_spawns = width.min(blocks) - usize::from(!bounded);
                if tx
                    .send((i, ok, trace.spawned == expected_spawns as u64))
                    .is_err()
                {
                    return;
                }
            }
        });
        for _ in 0..10_000 {
            let (i, ok, spawns) = rx
                .recv_timeout(Duration::from_secs(10))
                .expect("a dispatch stalled");
            assert!(ok, "dispatch {i} misreported");
            assert!(
                spawns,
                "dispatch {i} started an unexpected number of threads"
            );
        }
        runner.join().unwrap();
    }
}
