//! The GUPT runtime: the analyst-facing entry point.
//!
//! [`GuptRuntime::run`] executes one query end-to-end:
//!
//! 1. **Budget resolution** — an explicit ε, or the minimum ε derived
//!    from the accuracy goal on aged data (§5.1).
//! 2. **Ledger charge** — the dataset's lifetime budget is debited *up
//!    front*; exhaustion fails the query before any private data is read
//!    (the budget-attack defense).
//! 3. **Block planning** — default `β = n^0.6`, a fixed β, or the §4.3
//!    aged-data optimum; γ-fold resampling (§4.2).
//! 4. **Chambered execution** — every block runs in its own isolated
//!    chamber, in parallel (§6).
//! 5. **Range resolution** — GUPT-tight / GUPT-loose / GUPT-helper, with
//!    the Theorem 1 budget split across input/output dimensions.
//! 6. **Aggregation** — clamp, average, Laplace noise (Algorithm 1).
//!
//! Every entry point (one-shot queries, batch members, stream windows,
//! dry runs and ε estimates) resolves these stages through one plan and
//! one executor; see `plan.rs`. Only the final noisy vector leaves the
//! runtime.
//!
//! Datasets are not frozen at registration: rows arrive incrementally
//! through [`GuptRuntime::append_rows`] (or a [`DatasetHandle`]), which
//! flattens only the delta and re-chains the registration epoch so the
//! answer cache invalidates exactly the answers the new rows outdate.
//! Each query plans its blocks against the row snapshot it captures at
//! admission, so appends never perturb a query already in flight.
//!
//! # Concurrency
//!
//! Every analyst-facing method takes `&self`: one [`GuptRuntime`] serves
//! many racing queries. The only cross-query serialization point is the
//! per-dataset [`gupt_dp::PrivacyLedger`], whose check-and-debit is
//! atomic, so the composition bound holds no matter how queries
//! interleave. Randomness is handled per query: each query draws a fresh
//! RNG derived from the runtime seed and an atomic sequence number, so a
//! seeded query's answer depends only on its sequence number — never on
//! thread interleaving. See [`crate::service::QueryService`] for the
//! admission-controlled front door.

use crate::cache::{AnswerCache, CacheStats, QueryFingerprint, DEFAULT_CACHE_CAPACITY};
use crate::computation_manager::{ComputationManager, ExecutionSummary};
use crate::dataset::Dataset;
use crate::dataset_manager::{
    AppendReceipt, DatasetEntry, DatasetManager, DatasetRegistration, IngestStats, LedgerState,
};
use crate::error::GuptError;
use crate::output_range::RangeEstimation;
use crate::plan::{planning_ranges, Snapshot};
use crate::query::{BlockSizeSpec, BudgetSpec, QuerySpec};
use crate::storage::{CacheRecord, RecoveredLedger, StorageStats};
use crate::stream::{
    window_epoch, ContinuousQuery, Subscription, WindowKey, WindowResult, WindowSpec,
    STREAM_CACHE_EPOCH,
};
use crate::telemetry::{
    IngestTelemetry, LedgerEvent, QueryTelemetry, StreamTelemetry, TelemetryReport,
};
use gupt_dp::{Epsilon, OutputRange};
use gupt_sandbox::{ChamberPolicy, ExecutionPolicy};
use rand::Rng;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A differentially private answer.
///
/// `#[non_exhaustive]` (like [`GuptError`]): future fields must not
/// break analysts, so construct-by-literal is reserved to the runtime.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct PrivateAnswer {
    /// The noisy output vector (one value per output dimension).
    pub values: Vec<f64>,
    /// Total ε charged for this query.
    pub epsilon_spent: f64,
    /// Block size β used.
    pub block_size: usize,
    /// Number of blocks ℓ aggregated.
    pub num_blocks: usize,
    /// Resampling factor γ.
    pub gamma: usize,
    /// The clamping ranges finally used (resolved, for loose/helper).
    pub ranges: Vec<OutputRange>,
    /// Chamber outcome counts.
    pub execution: ExecutionSummary,
    /// Per-stage timings and counters, present when the spec asked for
    /// them via [`QuerySpec::collect_telemetry`]. Operator-facing and
    /// **not** ε-protected — see [`crate::telemetry`].
    pub telemetry: Option<TelemetryReport>,
}

/// Builder for [`GuptRuntime`].
pub struct GuptRuntimeBuilder {
    manager: DatasetManager,
    seed: Option<u64>,
    policy: ChamberPolicy,
    execution: Option<ExecutionPolicy>,
    cache_capacity: usize,
}

impl GuptRuntimeBuilder {
    /// Starts an empty builder.
    pub fn new() -> Self {
        GuptRuntimeBuilder {
            manager: DatasetManager::new(),
            seed: None,
            policy: ChamberPolicy::unbounded(),
            execution: None,
            cache_capacity: DEFAULT_CACHE_CAPACITY,
        }
    }

    /// Registers a dataset from a builder-style registration — the entry
    /// point that carries storage configuration:
    /// `.dataset("d", ds.builder().budget(eps).durability(durable))`.
    pub fn dataset(
        mut self,
        name: impl Into<String>,
        registration: DatasetRegistration,
    ) -> Result<Self, GuptError> {
        self.manager.add(name, registration)?;
        Ok(self)
    }

    /// Registers a raw row table under `name` with a lifetime budget
    /// (ephemeral ledger; use [`GuptRuntimeBuilder::dataset`] for
    /// durable storage).
    pub fn register_dataset(
        mut self,
        name: impl Into<String>,
        rows: Vec<Vec<f64>>,
        total_budget: Epsilon,
    ) -> Result<Self, GuptError> {
        self.manager
            .add(name, Dataset::new(rows)?.builder().budget(total_budget))?;
        Ok(self)
    }

    /// Registers a pre-built [`Dataset`] (with input ranges / aged view)
    /// with an ephemeral ledger.
    pub fn register(
        mut self,
        name: impl Into<String>,
        dataset: Dataset,
        total_budget: Epsilon,
    ) -> Result<Self, GuptError> {
        self.manager
            .add(name, dataset.builder().budget(total_budget))?;
        Ok(self)
    }

    /// Seeds the runtime RNG for reproducible experiments.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Sets the chamber policy (default: unbounded; production
    /// deployments pass [`ChamberPolicy::bounded`]).
    pub fn chamber_policy(mut self, policy: ChamberPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the execution policy for the chamber pool: worker count and
    /// chunking. This is the first-class way to configure parallelism:
    ///
    /// ```ignore
    /// GuptRuntimeBuilder::new()
    ///     .execution(ExecutionPolicy::parallel(8))
    ///     .build();
    /// ```
    ///
    /// Per-query overrides ride on
    /// [`QuerySpec::execution`](crate::query::QuerySpec::execution).
    pub fn execution(mut self, exec: ExecutionPolicy) -> Self {
        self.execution = Some(exec);
        self
    }

    /// Sets the answer-cache capacity (default
    /// [`DEFAULT_CACHE_CAPACITY`]); `0` disables caching entirely.
    ///
    /// Only fingerprintable queries (an `.identity(..)` declared via
    /// [`QuerySpec::builder`], an explicit ε and a tight/loose range)
    /// ever touch the cache, so the default is safe for anonymous
    /// closure workloads — they bypass it.
    pub fn cache_capacity(mut self, capacity: usize) -> Self {
        self.cache_capacity = capacity;
        self
    }

    /// Builds the runtime, warming the answer cache from any WAL cache
    /// records recovered at dataset registration. Records whose epoch no
    /// longer matches the re-registered data are dropped (epoch-based
    /// invalidation), as are records the cache cannot reconstruct.
    pub fn build(self) -> GuptRuntime {
        let computation = match self.execution {
            Some(exec) => ComputationManager::with_execution(self.policy, exec),
            None => ComputationManager::with_default_parallelism(self.policy),
        };
        let seed = self.seed.unwrap_or_else(|| rand::rng().next_u64());
        let cache = AnswerCache::new(self.cache_capacity);
        if cache.is_enabled() {
            for name in self.manager.names() {
                let entry = self.manager.get(name).expect("name just listed");
                let Some(recovery) = entry.recovery() else {
                    continue;
                };
                for rec in &recovery.cache_records {
                    // One-shot answers are valid only while their epoch is
                    // current; *window* answers (journaled under the
                    // STREAM_CACHE_EPOCH sentinel) carry their validity in
                    // the fingerprint — it hashes the window's own content
                    // — so they re-admit unconditionally and closed-window
                    // replay survives a kill-and-recover at zero ε.
                    if rec.epoch != entry.epoch() && rec.epoch != STREAM_CACHE_EPOCH {
                        continue;
                    }
                    if let Some(answer) = answer_from_record(rec) {
                        cache
                            .insert_recovered(QueryFingerprint::from_u128(rec.fingerprint), answer);
                    }
                }
            }
        }
        GuptRuntime {
            manager: self.manager,
            computation,
            seed,
            query_seq: AtomicU64::new(0),
            cache,
            subscriptions: Mutex::new(HashMap::new()),
            subscription_seq: AtomicU64::new(0),
            stream_counters: StreamCounters::default(),
        }
    }
}

impl Default for GuptRuntimeBuilder {
    fn default() -> Self {
        GuptRuntimeBuilder::new()
    }
}

/// The GUPT service: dataset manager + computation manager + seed.
///
/// All query entry points take `&self`, so one runtime (or one
/// `Arc<GuptRuntime>`) can serve many analysts concurrently; the
/// per-dataset ledgers are the only serialization point. Randomness is
/// derived per query from the base seed plus an atomic sequence
/// counter (`next_query_seed`).
pub struct GuptRuntime {
    manager: DatasetManager,
    pub(crate) computation: ComputationManager,
    /// Base seed all per-query RNG streams are derived from.
    seed: u64,
    /// Monotone query sequence number; combined with `seed` it pins each
    /// query's RNG stream regardless of which thread runs the query.
    query_seq: AtomicU64,
    /// Released-answer cache: fingerprintable repeat queries are served
    /// from here at zero marginal ε (DP post-processing invariance),
    /// before any ledger charge or chamber execution.
    pub(crate) cache: AnswerCache,
    /// Continuous-query registry: subscription id → per-subscription
    /// state. Each subscription sits behind its own mutex that
    /// [`GuptRuntime::poll_window`] holds across the whole evaluation,
    /// so one window can never be charged twice by racing polls.
    subscriptions: Mutex<HashMap<u64, Arc<Mutex<Subscription>>>>,
    /// Monotone subscription id counter.
    subscription_seq: AtomicU64,
    /// Runtime-wide streaming counters, surfaced as the telemetry
    /// schema-v7 `stream` object.
    stream_counters: StreamCounters,
}

/// Lock-free streaming counters (see [`StreamTelemetry`]).
#[derive(Debug, Default)]
struct StreamCounters {
    subscriptions: AtomicU64,
    windows_closed: AtomicU64,
    windows_replayed: AtomicU64,
    rows_aged: AtomicU64,
    /// Total stream ε spent, stored as `f64` bits and updated by CAS.
    epsilon_spent_bits: AtomicU64,
}

impl StreamCounters {
    fn add_epsilon(&self, eps: f64) {
        let mut cur = self.epsilon_spent_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + eps).to_bits();
            match self.epsilon_spent_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    fn snapshot(&self) -> StreamTelemetry {
        StreamTelemetry {
            subscriptions: self.subscriptions.load(Ordering::Relaxed),
            windows_closed: self.windows_closed.load(Ordering::Relaxed),
            windows_replayed: self.windows_replayed.load(Ordering::Relaxed),
            rows_aged: self.rows_aged.load(Ordering::Relaxed),
            epsilon_spent: f64::from_bits(self.epsilon_spent_bits.load(Ordering::Relaxed)),
        }
    }
}

/// Rebuilds a released answer from its WAL journal form. `None` when a
/// range pair no longer validates — the record is skipped rather than
/// replayed wrong.
fn answer_from_record(rec: &CacheRecord) -> Option<PrivateAnswer> {
    let ranges = rec
        .ranges
        .iter()
        .map(|&(lo, hi)| OutputRange::new(lo, hi).ok())
        .collect::<Option<Vec<_>>>()?;
    Some(PrivateAnswer {
        values: rec.values.clone(),
        epsilon_spent: rec.epsilon_spent,
        block_size: rec.block_size as usize,
        num_blocks: rec.num_blocks as usize,
        gamma: rec.gamma as usize,
        ranges,
        execution: ExecutionSummary {
            completed: rec.completed as usize,
            timed_out: rec.timed_out as usize,
            panicked: rec.panicked as usize,
        },
        telemetry: None,
    })
}

/// SplitMix64 finalizer: decorrelates nearby (seed, sequence) pairs so
/// per-query streams share no detectable structure.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl GuptRuntime {
    /// Remaining lifetime budget of a dataset.
    pub fn remaining_budget(&self, dataset: &str) -> Result<f64, GuptError> {
        Ok(self.manager.get(dataset)?.ledger().remaining())
    }

    /// Number of queries successfully charged against a dataset.
    pub fn queries_run(&self, dataset: &str) -> Result<usize, GuptError> {
        Ok(self.manager.get(dataset)?.ledger().query_count())
    }

    /// Per-principal quota books of a dataset, sorted by name. Empty for
    /// datasets registered without principals.
    pub fn principal_states(
        &self,
        dataset: &str,
    ) -> Result<Vec<crate::principal::PrincipalState>, GuptError> {
        Ok(self.manager.get(dataset)?.principal_states())
    }

    /// One principal's quota books on a dataset.
    pub fn principal_state(
        &self,
        dataset: &str,
        principal: &str,
    ) -> Result<crate::principal::PrincipalState, GuptError> {
        self.manager.get(dataset)?.principals().state(principal)
    }

    /// Operator override: un-pauses a principal stopped under
    /// [`crate::principal::ExhaustedPolicy::PauseApproval`] and
    /// optionally grants additional quota ε. Spent ε is never reset —
    /// the privacy history is append-only; `continue` only raises the
    /// admission ceiling.
    pub fn continue_principal(
        &self,
        dataset: &str,
        principal: &str,
        grant: Option<f64>,
    ) -> Result<crate::principal::PrincipalState, GuptError> {
        self.manager
            .get(dataset)?
            .principals()
            .continue_principal(principal, grant)
    }

    /// Point-in-time ledger state of a dataset (total, spent, remaining,
    /// query count, durability).
    pub fn ledger_state(&self, dataset: &str) -> Result<LedgerState, GuptError> {
        Ok(self.manager.get(dataset)?.ledger_state())
    }

    /// Persistence counters of a dataset's durable ledger; `None` for
    /// ephemeral datasets.
    pub fn storage_stats(&self, dataset: &str) -> Result<Option<StorageStats>, GuptError> {
        Ok(self.manager.get(dataset)?.storage_stats())
    }

    /// What recovery replayed when the dataset was registered; `None`
    /// for ephemeral datasets.
    pub fn recovery_info(&self, dataset: &str) -> Result<Option<&RecoveredLedger>, GuptError> {
        Ok(self.manager.get(dataset)?.recovery())
    }

    /// Registered dataset names.
    pub fn dataset_names(&self) -> Vec<&str> {
        self.manager.names()
    }

    /// Number of private rows in a dataset.
    pub fn dataset_len(&self, dataset: &str) -> Result<usize, GuptError> {
        Ok(self.manager.get(dataset)?.dataset().len())
    }

    /// Row width of a dataset.
    pub fn dataset_dimension(&self, dataset: &str) -> Result<usize, GuptError> {
        Ok(self.manager.get(dataset)?.dataset().dimension())
    }

    /// Appends a delta of rows to a registered dataset (incremental
    /// ingest). Only the delta is validated and flattened — the existing
    /// rows are neither re-walked nor copied — and the registration
    /// epoch is re-chained over the delta, so cached answers about the
    /// old rows miss from here on while in-flight queries finish against
    /// the snapshot they captured. See
    /// [`DatasetEntry::append_rows`](crate::dataset_manager::DatasetEntry::append_rows).
    pub fn append_rows(
        &self,
        dataset: &str,
        rows: &[Vec<f64>],
    ) -> Result<AppendReceipt, GuptError> {
        self.manager.get(dataset)?.append_rows(rows)
    }

    /// A handle to one registered dataset — the append-oriented ingest
    /// surface: `runtime.dataset_handle("d")?.append(&delta)?`.
    pub fn dataset_handle<'rt>(&'rt self, dataset: &str) -> Result<DatasetHandle<'rt>, GuptError> {
        Ok(DatasetHandle {
            entry: self.manager.get(dataset)?,
            name: dataset.to_string(),
        })
    }

    /// Current registration epoch of a dataset (content hash, chained
    /// over appends).
    pub fn dataset_epoch(&self, dataset: &str) -> Result<u64, GuptError> {
        Ok(self.manager.get(dataset)?.epoch())
    }

    /// Ingest counters of a dataset (appends applied, rows appended,
    /// bytes materialized for deltas).
    pub fn ingest_stats(&self, dataset: &str) -> Result<IngestStats, GuptError> {
        Ok(self.manager.get(dataset)?.ingest_stats())
    }

    /// The computation manager (exposed for benchmarking harnesses).
    pub fn computation_manager(&self) -> &ComputationManager {
        &self.computation
    }

    /// Point-in-time counters of the answer cache (hits, misses, ε
    /// recycled, evictions, recovered entries).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Captures `dataset`'s rows and epoch under one lock, for one
    /// call's plans.
    pub(crate) fn snapshot<'a>(&'a self, dataset: &'a str) -> Result<Snapshot<'a>, GuptError> {
        let entry = self.manager.get(dataset)?;
        let (ds, epoch) = entry.dataset_and_epoch();
        Ok(Snapshot {
            name: dataset,
            entry,
            ds,
            epoch,
        })
    }

    /// Estimates, without spending any budget, the ε that `spec`'s
    /// accuracy goal requires on `dataset` (§5.1). This is the ε `run`
    /// would charge: it reads the same plan, so an `Optimized` β is
    /// first optimized on the aged rows. Errors if the spec carries an
    /// explicit ε or the dataset has no aged view.
    pub fn estimate_epsilon_for(
        &self,
        dataset: &str,
        spec: &QuerySpec,
    ) -> Result<Epsilon, GuptError> {
        let snap = self.snapshot(dataset)?;
        let BudgetSpec::Accuracy(_) = spec.budget() else {
            return Err(GuptError::InvalidSpec(
                "estimate_epsilon_for requires an accuracy-goal budget".into(),
            ));
        };
        Ok(self.plan(&snap, spec, None)?.epsilon)
    }

    /// Derives the seed for the next query.
    ///
    /// The per-query stream is a pure function of (runtime seed, sequence
    /// number): under a fixed seed, the k-th admitted query draws
    /// identical noise whether it runs alone or races seven other
    /// analysts — thread interleaving decides only *which* sequence
    /// number a query gets, never what any given sequence number
    /// produces. The same seed doubles as the chamber-seed base: the
    /// pool splits one sub-seed per block index from it *before* fan-out
    /// (`gupt_sandbox::exec::chamber_seed`), so chamber execution is
    /// bit-identical at any worker count.
    ///
    /// Only `execute` draws a seed, right after its charge succeeds (or
    /// after the batch debit that covers it). A query that fails
    /// planning, a query the ledger or a quota refuses, and a cache
    /// replay consume no sequence number, so they never shift the noise
    /// of the queries after them.
    pub(crate) fn next_query_seed(&self) -> u64 {
        let seq = self.query_seq.fetch_add(1, Ordering::Relaxed);
        mix64(self.seed ^ mix64(seq))
    }

    /// Executes a query and returns the differentially private answer.
    ///
    /// Takes `&self`: queries from many threads run concurrently against
    /// the shared chamber pool, with the dataset ledger as the only
    /// serialization point.
    pub fn run(&self, dataset: &str, spec: QuerySpec) -> Result<PrivateAnswer, GuptError> {
        self.query(dataset, None, &spec, None)
    }

    /// Like [`GuptRuntime::run`], attributing the ε debit to a
    /// registered principal's quota. The quota check happens before the
    /// ledger debit and fails closed without spending anything (see
    /// [`crate::principal`]).
    pub fn run_as(
        &self,
        dataset: &str,
        principal: &str,
        spec: QuerySpec,
    ) -> Result<PrivateAnswer, GuptError> {
        self.query(dataset, Some(principal), &spec, None)
    }

    /// The one-shot path behind `run`, `run_as` and the query service,
    /// whose deadline bounds the chamber fan-out.
    ///
    /// Fingerprintable queries (named program, explicit ε, tight or
    /// loose range) are looked up before anything else: a hit replays
    /// the released answer before any β or ε resolution, seed draw or
    /// charge, so repeats cost no ε and no planning.
    pub(crate) fn query(
        &self,
        dataset: &str,
        principal: Option<&str>,
        spec: &QuerySpec,
        deadline: Option<Instant>,
    ) -> Result<PrivateAnswer, GuptError> {
        let started = Instant::now();
        let snap = self.snapshot(dataset)?;
        let fingerprint = QueryFingerprint::compute(dataset, snap.epoch, spec);
        if let Some(answer) = fingerprint.and_then(|fp| self.cache.lookup(fp)) {
            return Ok(self.replayed(answer, snap.entry, spec, started));
        }
        let mut plan = self.plan(&snap, spec, None)?;
        plan.principal = principal;
        plan.deadline = deadline;
        plan.fingerprint = fingerprint;
        self.execute(plan)
    }

    /// Finishes a cache replay: nothing charged, fresh hit-path
    /// telemetry.
    fn replayed(
        &self,
        mut answer: PrivateAnswer,
        entry: &DatasetEntry,
        spec: &QuerySpec,
        started: Instant,
    ) -> PrivateAnswer {
        let mut tel = QueryTelemetry::new(spec.telemetry_enabled());
        tel.record_ledger(LedgerEvent {
            epsilon_requested: answer.epsilon_spent,
            epsilon_charged: 0.0,
            remaining_budget: entry.ledger().remaining(),
        });
        answer.telemetry = self.finish_telemetry(tel, entry, started.elapsed());
        answer
    }

    /// Seals a query's telemetry with the runtime-wide counters every
    /// report carries.
    pub(crate) fn finish_telemetry(
        &self,
        mut tel: QueryTelemetry,
        entry: &DatasetEntry,
        total: Duration,
    ) -> Option<TelemetryReport> {
        if !tel.is_enabled() {
            return None;
        }
        let ingest = entry.ingest_stats();
        tel.record_cache(self.cache.stats());
        tel.record_ingest(IngestTelemetry {
            appends: ingest.appends,
            rows_appended: ingest.rows_appended,
            bytes_materialized: ingest.bytes_materialized,
        });
        tel.record_stream(self.stream_counters.snapshot());
        tel.finish(total)
    }

    // --- Streaming windowed analytics (continuous queries). ------------

    /// Registers a continuous query: `spec` will be evaluated over each
    /// closed `window` of `dataset`'s append stream via
    /// [`GuptRuntime::poll_window`], each fresh window drawing its own ε
    /// debit from the dataset ledger.
    ///
    /// Validation happens here, not per poll, and is stricter than
    /// [`GuptRuntime::run`]'s — continuous queries must be *replayable*:
    ///
    /// - an explicit per-window ε (accuracy goals resolve against aged
    ///   data that shifts under the stream, so each window's charge
    ///   would be unpredictable);
    /// - a program identity plus a tight or loose range, so every window
    ///   answer is cache-fingerprintable and a closed window replays at
    ///   zero additional ε (after a crash-recovery too);
    /// - a default or fixed block size (the §4.3 aged-data optimum would
    ///   re-resolve as aging advances, silently re-keying windows);
    /// - a dataset without a group column (user-level windows would need
    ///   group-atomic window bounds).
    ///
    /// ```
    /// use gupt_core::{GuptRuntimeBuilder, QuerySpec, RangeEstimation, WindowSpec};
    /// use gupt_dp::{Epsilon, OutputRange};
    ///
    /// let rows: Vec<Vec<f64>> = (0..100).map(|i| vec![(i % 10) as f64]).collect();
    /// let rt = GuptRuntimeBuilder::new()
    ///     .register_dataset("t", rows, Epsilon::new(100.0).unwrap())
    ///     .unwrap()
    ///     .seed(3)
    ///     .build();
    /// let spec = QuerySpec::builder()
    ///     .view(|b: &gupt_core::BlockView| {
    ///         vec![b.iter().map(|r| r[0]).sum::<f64>() / b.len() as f64]
    ///     })
    ///     .identity("mean", 1)
    ///     .epsilon(Epsilon::new(1.0).unwrap())
    ///     .range_estimation(RangeEstimation::Tight(vec![OutputRange::new(0.0, 9.0).unwrap()]))
    ///     .build()
    ///     .unwrap();
    /// let q = rt.subscribe("t", WindowSpec::tumbling(40).unwrap(), spec).unwrap();
    /// let first = rt.poll_window(&q).unwrap().expect("window 0 closed at 100 rows");
    /// assert_eq!((first.start_row, first.end_row), (0, 40));
    /// assert!(rt.poll_window(&q).unwrap().is_some(), "window 1 closed too");
    /// // Window 2 needs 120 rows — still open until more rows arrive.
    /// assert!(rt.poll_window(&q).unwrap().is_none());
    /// ```
    pub fn subscribe(
        &self,
        dataset: &str,
        window: WindowSpec,
        spec: QuerySpec,
    ) -> Result<ContinuousQuery, GuptError> {
        self.subscribe_with(dataset, None, window, spec)
    }

    /// Like [`GuptRuntime::subscribe`], attributing every per-window ε
    /// debit to a registered principal's quota.
    pub fn subscribe_as(
        &self,
        dataset: &str,
        principal: &str,
        window: WindowSpec,
        spec: QuerySpec,
    ) -> Result<ContinuousQuery, GuptError> {
        self.subscribe_with(dataset, Some(principal), window, spec)
    }

    fn subscribe_with(
        &self,
        dataset: &str,
        principal: Option<&str>,
        window: WindowSpec,
        spec: QuerySpec,
    ) -> Result<ContinuousQuery, GuptError> {
        let entry = self.manager.get(dataset)?;
        validate_subscription(entry, &spec, principal)?;
        let id = self.subscription_seq.fetch_add(1, Ordering::Relaxed);
        let sub = Subscription {
            dataset: dataset.to_string(),
            window,
            spec,
            principal: principal.map(str::to_string),
            cursor: 0,
        };
        self.subscriptions
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .insert(id, Arc::new(Mutex::new(sub)));
        self.stream_counters
            .subscriptions
            .fetch_add(1, Ordering::Relaxed);
        Ok(ContinuousQuery::new(id, dataset.to_string(), window))
    }

    /// Drops a subscription. Returns whether it was registered. Cached
    /// window answers stay cached — a later re-subscription replays them
    /// at zero ε.
    pub fn unsubscribe(&self, query: &ContinuousQuery) -> bool {
        self.subscriptions
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .remove(&query.id())
            .is_some()
    }

    /// Runtime-wide streaming counters (the telemetry `stream` object).
    pub fn stream_stats(&self) -> StreamTelemetry {
        self.stream_counters.snapshot()
    }

    /// Evaluates the subscription's next window, if it has closed.
    ///
    /// `Ok(None)` means the window is still open — not enough rows (or
    /// arrivals) yet; poll again after more ingest. A closed window runs
    /// the ordinary pipeline over a range partition of exactly its rows:
    /// ledger charge (WAL-journaled, principal-attributed) → block plan
    /// → chambered execution → range resolution → Algorithm 1
    /// aggregation. The answer is cached under a *content hash of the
    /// window's rows*, so polling the same closed window again — from a
    /// second subscription or after a crash-recovery — replays at zero
    /// additional ε. After each closed window, rows no later window can
    /// cover transition into the aged store (§3.3), sharpening planning
    /// for subsequent one-shot queries without spending budget.
    ///
    /// Each successful poll advances the subscription's cursor; a failed
    /// poll (budget exhaustion, quota refusal) leaves the cursor in
    /// place so the window can be retried.
    pub fn poll_window(&self, query: &ContinuousQuery) -> Result<Option<WindowResult>, GuptError> {
        let sub = self
            .subscriptions
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .get(&query.id())
            .cloned()
            .ok_or_else(|| {
                GuptError::InvalidSpec(format!("subscription {} is not registered", query.id()))
            })?;
        // Hold the subscription lock across the whole evaluation: the
        // cursor advances exactly once per closed window, so concurrent
        // polls of one handle can never double-charge a window.
        let mut guard = sub.lock().unwrap_or_else(|p| p.into_inner());
        let Subscription {
            dataset,
            window,
            spec,
            principal,
            cursor,
        } = &mut *guard;
        let started = Instant::now();
        let entry = self.manager.get(dataset)?;
        let w = *cursor;
        let (u0, u1) = window.unit_bounds(w);

        // Resolve the window's row bounds, then snapshot the dataset.
        // Arrival bounds come from the arrival log *first*: any arrival
        // the log already records committed its rows under the dataset
        // write lock, so the snapshot below is guaranteed to contain
        // them.
        let bounds = match window.key() {
            WindowKey::RowCount => Some((u0 as usize, u1 as usize)),
            WindowKey::Arrival => entry.arrival_row_range(u0 as usize, u1 as usize),
        };
        let Some((start, end)) = bounds else {
            return Ok(None);
        };
        let snap = self.snapshot(dataset)?;
        if end > snap.ds.len() {
            return Ok(None); // row-count window still open
        }

        // Window answers are keyed by the window's content hash, not the
        // live dataset epoch — later appends move the epoch but not the
        // window's rows, so a closed window stays replayable forever.
        let whash = window_epoch(snap.ds.store(), start, end);
        let fingerprint = QueryFingerprint::compute(dataset, whash, spec);
        let hit = fingerprint.and_then(|fp| self.cache.lookup(fp));
        let replayed = hit.is_some();
        let mut answer = match hit {
            Some(answer) => answer,
            None => {
                let mut plan = self.plan(&snap, spec, Some((start, end)))?;
                plan.principal = principal.as_deref();
                plan.fingerprint = fingerprint;
                // Recovery re-admits window answers unconditionally: the
                // fingerprint, which hashes the window content, carries
                // their validity.
                plan.journal_epoch = STREAM_CACHE_EPOCH;
                self.execute(plan)?
            }
        };
        let counters = &self.stream_counters;
        if replayed {
            counters.windows_replayed.fetch_add(1, Ordering::Relaxed);
        } else {
            counters.windows_closed.fetch_add(1, Ordering::Relaxed);
            counters.add_epsilon(answer.epsilon_spent);
        }
        let rows_aged = self.stream_age(entry, window, w)?;
        *cursor = w + 1;
        if replayed {
            // Replay spends nothing: the field reports *this* poll's
            // debit, not the original window's.
            answer = self.replayed(answer, entry, spec, started);
            answer.epsilon_spent = 0.0;
        } else if let Some(report) = answer.telemetry.as_mut() {
            // `execute` sealed the report before this window was counted.
            report.stream = counters.snapshot();
        }
        Ok(Some(WindowResult {
            window: w,
            start_row: start,
            end_row: end,
            replayed,
            rows_aged,
            answer,
        }))
    }

    /// Ages every row behind the just-closed window's expiry frontier
    /// into the aged store (idempotent across overlapping subscriptions
    /// thanks to the entry's monotonic watermark).
    fn stream_age(
        &self,
        entry: &DatasetEntry,
        window: &WindowSpec,
        w: u64,
    ) -> Result<usize, GuptError> {
        let frontier_units = window.expired_units_after(w);
        let frontier_rows = match window.key() {
            WindowKey::RowCount => frontier_units as usize,
            WindowKey::Arrival => {
                let units = (frontier_units as usize).min(entry.arrival_count());
                match units {
                    0 => 0,
                    u => entry.arrival_row_range(0, u).map_or(0, |(_, end)| end),
                }
            }
        };
        let aged = entry.age_rows_to(frontier_rows)?;
        if aged > 0 {
            self.stream_counters
                .rows_aged
                .fetch_add(aged as u64, Ordering::Relaxed);
        }
        Ok(aged)
    }
}

/// Subscription-time validation: the checks every plan makes, plus the
/// replayability rules — see [`GuptRuntime::subscribe`] for the
/// rationale behind each.
fn validate_subscription(
    entry: &DatasetEntry,
    spec: &QuerySpec,
    principal: Option<&str>,
) -> Result<(), GuptError> {
    planning_ranges(spec)?;
    if spec.identity.is_none() {
        return Err(GuptError::InvalidSpec(
            "continuous queries need a program identity (QuerySpec::builder().identity(..)) \
             so closed windows replay from the answer cache"
                .into(),
        ));
    }
    let BudgetSpec::Epsilon(_) = spec.budget() else {
        return Err(GuptError::InvalidSpec(
            "continuous queries need an explicit per-window ε; accuracy goals are not \
             supported over a moving stream"
                .into(),
        ));
    };
    if matches!(spec.range_estimation, Some(RangeEstimation::Helper { .. })) {
        return Err(GuptError::InvalidSpec(
            "helper range estimation is not supported for continuous queries".into(),
        ));
    }
    if matches!(spec.block_size_spec(), BlockSizeSpec::Optimized) {
        return Err(GuptError::InvalidSpec(
            "optimized block size is not supported for continuous queries; aging under the \
             stream would silently re-key windows — use a fixed or default β"
                .into(),
        ));
    }
    if entry.dataset().group_column().is_some() {
        return Err(GuptError::InvalidSpec(
            "continuous queries over group-column datasets are not supported".into(),
        ));
    }
    if let Some(name) = principal {
        entry.principals().state(name)?;
    }
    Ok(())
}

/// A borrowed handle to one registered dataset: the ergonomic face of
/// the incremental-ingest API. Obtained from
/// [`GuptRuntime::dataset_handle`]; appends through it are equivalent to
/// [`GuptRuntime::append_rows`].
#[derive(Debug)]
pub struct DatasetHandle<'rt> {
    entry: &'rt DatasetEntry,
    name: String,
}

impl DatasetHandle<'_> {
    /// The dataset's registered name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Appends a delta of rows; see [`DatasetEntry::append_rows`].
    pub fn append(&self, rows: &[Vec<f64>]) -> Result<AppendReceipt, GuptError> {
        self.entry.append_rows(rows)
    }

    /// Current registration epoch.
    pub fn epoch(&self) -> u64 {
        self.entry.epoch()
    }

    /// Current number of private rows.
    pub fn len(&self) -> usize {
        self.entry.dataset().len()
    }

    /// A point-in-time snapshot of the dataset (cheap: the row store is
    /// Arc-shared, not copied). The snapshot holds *private* rows — it
    /// is for trusted planners that must inspect data before compiling
    /// a release (e.g. the DP-SQL GROUP BY key enumeration, whose
    /// output is protected by the minimum-frequency rule), never for
    /// handing rows to an analyst.
    pub fn snapshot(&self) -> Dataset {
        self.entry.dataset()
    }

    /// Whether the dataset currently holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Point-in-time ingest counters.
    pub fn ingest_stats(&self) -> IngestStats {
        self.entry.ingest_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget_estimator::AccuracyGoal;
    use std::sync::Arc;

    fn eps(v: f64) -> Epsilon {
        Epsilon::new(v).unwrap()
    }

    fn range(lo: f64, hi: f64) -> OutputRange {
        OutputRange::new(lo, hi).unwrap()
    }

    fn age_rows(n: usize) -> Vec<Vec<f64>> {
        (0..n).map(|i| vec![20.0 + (i % 40) as f64]).collect()
    }

    fn mean_spec() -> QuerySpec {
        QuerySpec::program(|block: &[Vec<f64>]| {
            vec![block.iter().map(|r| r[0]).sum::<f64>() / block.len().max(1) as f64]
        })
    }

    fn runtime(n: usize, budget: f64) -> GuptRuntime {
        GuptRuntimeBuilder::new()
            .register_dataset("ages", age_rows(n), eps(budget))
            .unwrap()
            .seed(42)
            .execution(ExecutionPolicy::parallel(4))
            .build()
    }

    #[test]
    fn tight_mode_end_to_end() {
        let rt = runtime(4000, 10.0);
        let spec = mean_spec()
            .epsilon(eps(2.0))
            .range_estimation(RangeEstimation::Tight(vec![range(0.0, 100.0)]));
        let ans = rt.run("ages", spec).unwrap();
        // True mean of 20 + (i % 40) = 39.5.
        assert!((ans.values[0] - 39.5).abs() < 5.0, "{:?}", ans.values);
        assert_eq!(ans.epsilon_spent, 2.0);
        assert_eq!(ans.gamma, 1);
        assert_eq!(ans.execution.completed, ans.num_blocks);
        assert!((rt.remaining_budget("ages").unwrap() - 8.0).abs() < 1e-9);
        assert_eq!(rt.queries_run("ages").unwrap(), 1);
    }

    #[test]
    fn loose_mode_end_to_end() {
        // GUPT-loose spends half of ε resolving the output range from the
        // block outputs (§4.1), so its error is materially larger than
        // tight mode's (the paper's Fig. 5 shows the same gap) and
        // heavy-tailed — a single seeded draw can land 30 off. Average
        // over seeds so the test checks the (unbiased) distribution,
        // not one draw's luck.
        let trials = 8;
        let mut total_err = 0.0;
        for s in 0..trials {
            let rt = GuptRuntimeBuilder::new()
                .register_dataset("ages", age_rows(4000), eps(10.0))
                .unwrap()
                .seed(100 + s)
                .execution(ExecutionPolicy::parallel(4))
                .build();
            let spec = mean_spec()
                .epsilon(eps(4.0))
                .range_estimation(RangeEstimation::Loose(vec![range(0.0, 1000.0)]));
            let ans = rt.run("ages", spec).unwrap();
            total_err += (ans.values[0] - 39.5).abs();
            // The resolved range must be tighter than the loose one.
            assert!(ans.ranges[0].width() < 1000.0);
        }
        let mean_err = total_err / trials as f64;
        assert!(mean_err < 15.0, "mean |error| = {mean_err}");
    }

    #[test]
    fn helper_mode_end_to_end() {
        let rt = runtime(4000, 10.0);
        let translate: crate::output_range::RangeTranslator =
            Arc::new(|inputs: &[OutputRange]| inputs.to_vec());
        let spec = mean_spec()
            .epsilon(eps(4.0))
            .range_estimation(RangeEstimation::Helper {
                input_ranges: vec![range(0.0, 1000.0)],
                translate,
            });
        let ans = rt.run("ages", spec).unwrap();
        assert!((ans.values[0] - 39.5).abs() < 10.0, "{:?}", ans.values);
        assert!(ans.ranges[0].width() < 1000.0);
    }

    #[test]
    fn budget_exhaustion_fails_closed() {
        let rt = runtime(1000, 1.0);
        let spec = || {
            mean_spec()
                .epsilon(eps(0.6))
                .range_estimation(RangeEstimation::Tight(vec![range(0.0, 100.0)]))
        };
        rt.run("ages", spec()).unwrap();
        let err = rt.run("ages", spec()).unwrap_err();
        assert!(matches!(
            err,
            GuptError::Dp(gupt_dp::DpError::BudgetExhausted { .. })
        ));
        // The failed query spent nothing.
        assert!((rt.remaining_budget("ages").unwrap() - 0.4).abs() < 1e-9);
        assert_eq!(rt.queries_run("ages").unwrap(), 1);
    }

    #[test]
    fn missing_range_mode_rejected() {
        let rt = runtime(1000, 10.0);
        let err = rt.run("ages", mean_spec()).unwrap_err();
        assert!(matches!(err, GuptError::InvalidSpec(_)));
    }

    #[test]
    fn missing_dataset_rejected() {
        let rt = runtime(1000, 10.0);
        let spec = mean_spec().range_estimation(RangeEstimation::Tight(vec![range(0.0, 1.0)]));
        assert!(matches!(
            rt.run("nope", spec).unwrap_err(),
            GuptError::DatasetNotFound(_)
        ));
    }

    #[test]
    fn fixed_block_size_respected() {
        let rt = runtime(1000, 10.0);
        let spec = mean_spec()
            .epsilon(eps(1.0))
            .fixed_block_size(100)
            .range_estimation(RangeEstimation::Tight(vec![range(0.0, 100.0)]));
        let ans = rt.run("ages", spec).unwrap();
        assert_eq!(ans.block_size, 100);
        assert_eq!(ans.num_blocks, 10);
    }

    #[test]
    fn resampling_multiplies_blocks() {
        let rt = runtime(1000, 10.0);
        let spec = mean_spec()
            .epsilon(eps(1.0))
            .fixed_block_size(100)
            .resampling(3)
            .range_estimation(RangeEstimation::Tight(vec![range(0.0, 100.0)]));
        let ans = rt.run("ages", spec).unwrap();
        assert_eq!(ans.gamma, 3);
        assert_eq!(ans.num_blocks, 30);
    }

    #[test]
    fn accuracy_goal_resolves_epsilon() {
        let ds = Dataset::new(age_rows(10_000))
            .unwrap()
            .with_aged_fraction(0.1)
            .unwrap();
        let rt = GuptRuntimeBuilder::new()
            .register("ages", ds, eps(100.0))
            .unwrap()
            .seed(7)
            .build();
        let goal = AccuracyGoal::new(0.9, 0.9).unwrap();
        let spec = mean_spec()
            .accuracy_goal(goal)
            .fixed_block_size(50)
            .range_estimation(RangeEstimation::Tight(vec![range(0.0, 150.0)]));
        let estimated = rt.estimate_epsilon_for("ages", &spec).unwrap();
        let ans = rt.run("ages", spec).unwrap();
        assert!((ans.epsilon_spent - estimated.value()).abs() < 1e-12);
        assert!(ans.epsilon_spent > 0.0);
        // The answer respects the goal (generously, as Chebyshev is loose).
        assert!(
            (ans.values[0] - 39.5).abs() / 39.5 < 0.25,
            "{:?}",
            ans.values
        );
    }

    #[test]
    fn optimized_accuracy_goal_estimates_agree_with_the_charge() {
        let ds = Dataset::new(age_rows(10_000))
            .unwrap()
            .with_aged_fraction(0.1)
            .unwrap();
        let rt = GuptRuntimeBuilder::new()
            .register("ages", ds, eps(100.0))
            .unwrap()
            .seed(7)
            .build();
        let spec = mean_spec()
            .accuracy_goal(AccuracyGoal::new(0.9, 0.9).unwrap())
            .optimized_block_size()
            .range_estimation(RangeEstimation::Tight(vec![range(0.0, 150.0)]));
        let estimated = rt.estimate_epsilon_for("ages", &spec).unwrap();
        let (plan, _) = rt.explain("ages", &spec).unwrap();
        let ans = rt.run("ages", spec).unwrap();
        assert_eq!(estimated.value().to_bits(), ans.epsilon_spent.to_bits());
        assert_eq!(plan.epsilon.to_bits(), ans.epsilon_spent.to_bits());
        assert_eq!(plan.block_size, ans.block_size);
    }

    #[test]
    fn refused_query_keeps_its_sequence_number() {
        let spec = |e: f64| {
            mean_spec()
                .epsilon(eps(e))
                .range_estimation(RangeEstimation::Loose(vec![range(0.0, 1000.0)]))
        };
        let refused_first = runtime(1000, 1.0);
        assert!(refused_first.run("ages", spec(5.0)).is_err());
        let after_refusal = refused_first.run("ages", spec(0.5)).unwrap();
        let fresh = runtime(1000, 1.0).run("ages", spec(0.5)).unwrap();
        let bits = |a: &PrivateAnswer| a.values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&after_refusal), bits(&fresh));
    }

    #[test]
    fn accuracy_goal_without_aged_data_fails() {
        let rt = runtime(1000, 10.0);
        let goal = AccuracyGoal::new(0.9, 0.9).unwrap();
        let spec = mean_spec()
            .accuracy_goal(goal)
            .range_estimation(RangeEstimation::Tight(vec![range(0.0, 150.0)]));
        assert!(matches!(
            rt.run("ages", spec).unwrap_err(),
            GuptError::NoAgedData(_)
        ));
    }

    #[test]
    fn optimized_block_size_uses_aged_view() {
        let ds = Dataset::new(age_rows(5_000))
            .unwrap()
            .with_aged_fraction(0.2)
            .unwrap();
        let rt = GuptRuntimeBuilder::new()
            .register("ages", ds, eps(50.0))
            .unwrap()
            .seed(9)
            .build();
        let spec = mean_spec()
            .epsilon(eps(2.0))
            .optimized_block_size()
            .range_estimation(RangeEstimation::Tight(vec![range(0.0, 100.0)]));
        let ans = rt.run("ages", spec).unwrap();
        // Mean is linear: the optimizer should pick small blocks.
        assert!(ans.block_size <= 8, "β = {}", ans.block_size);
    }

    #[test]
    fn multi_output_budget_split() {
        // 2-D output: mean and (scaled) second moment.
        let rt = runtime(4000, 10.0);
        let spec = QuerySpec::program_with_dim(2, |block: &[Vec<f64>]| {
            let n = block.len().max(1) as f64;
            let m = block.iter().map(|r| r[0]).sum::<f64>() / n;
            let m2 = block.iter().map(|r| r[0] * r[0]).sum::<f64>() / n;
            vec![m, m2 / 100.0]
        })
        .epsilon(eps(4.0))
        .range_estimation(RangeEstimation::Tight(vec![
            range(0.0, 100.0),
            range(0.0, 100.0),
        ]));
        let ans = rt.run("ages", spec).unwrap();
        assert_eq!(ans.values.len(), 2);
        assert!((ans.values[0] - 39.5).abs() < 8.0);
    }

    #[test]
    fn seeded_runs_reproduce() {
        let run = || {
            let rt = runtime(2000, 10.0);
            let spec = mean_spec()
                .epsilon(eps(1.0))
                .range_estimation(RangeEstimation::Tight(vec![range(0.0, 100.0)]));
            rt.run("ages", spec).unwrap().values
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn seeded_answers_bit_identical_across_thread_counts() {
        // The core determinism contract of the parallel engine: a
        // seeded query's answer is a pure function of (seed, sequence),
        // independent of how many workers executed the chambers.
        let run = |threads: usize| {
            let rt = GuptRuntimeBuilder::new()
                .register_dataset("ages", age_rows(3000), eps(10.0))
                .unwrap()
                .seed(42)
                .execution(ExecutionPolicy::parallel(threads))
                .build();
            let spec = mean_spec()
                .epsilon(eps(1.0))
                .resampling(2)
                .range_estimation(RangeEstimation::Loose(vec![range(0.0, 1000.0)]));
            rt.run("ages", spec).unwrap().values
        };
        let sequential = run(1);
        for threads in [2, 4, 8] {
            let parallel = run(threads);
            let a: Vec<u64> = sequential.iter().map(|v| v.to_bits()).collect();
            let b: Vec<u64> = parallel.iter().map(|v| v.to_bits()).collect();
            assert_eq!(a, b, "answer drifted at {threads} threads");
        }
    }

    #[test]
    fn per_query_execution_override_reaches_the_pool() {
        // A sequential runtime accepts a per-query parallel override; the
        // telemetry reports the override's worker count and the answer
        // stays bit-identical to the runtime default.
        let rt = GuptRuntimeBuilder::new()
            .register_dataset("ages", age_rows(2000), eps(10.0))
            .unwrap()
            .seed(7)
            .execution(ExecutionPolicy::sequential())
            .build();
        let spec = || {
            mean_spec()
                .epsilon(eps(1.0))
                .fixed_block_size(100)
                .range_estimation(RangeEstimation::Tight(vec![range(0.0, 100.0)]))
                .collect_telemetry()
        };
        let base = rt.run("ages", spec()).unwrap();
        let tel = base.telemetry.as_ref().expect("telemetry requested");
        assert_eq!(tel.parallel.workers, 1);
        let overridden = rt
            .run("ages", spec().execution(ExecutionPolicy::parallel(4)))
            .unwrap();
        let tel = overridden.telemetry.as_ref().expect("telemetry requested");
        assert_eq!(tel.parallel.workers, 4);
        // Different sequence numbers draw different noise, so compare the
        // two overrides at the same sequence instead: rebuild runtimes.
        let answer_at = |exec: ExecutionPolicy| {
            let rt = GuptRuntimeBuilder::new()
                .register_dataset("ages", age_rows(2000), eps(10.0))
                .unwrap()
                .seed(7)
                .execution(ExecutionPolicy::sequential())
                .build();
            rt.run("ages", spec().execution(exec)).unwrap().values
        };
        assert_eq!(
            answer_at(ExecutionPolicy::sequential()),
            answer_at(ExecutionPolicy::parallel(4))
        );
    }

    #[test]
    fn appends_grow_the_dataset_and_requery_sees_them() {
        let rt = runtime(1000, 100.0);
        assert_eq!(rt.dataset_len("ages").unwrap(), 1000);
        let epoch_before = rt.dataset_epoch("ages").unwrap();
        let receipt = rt
            .append_rows("ages", &age_rows(500))
            .expect("append applies");
        assert_eq!(receipt.total_rows, 1500);
        assert_eq!(rt.dataset_len("ages").unwrap(), 1500);
        assert_ne!(rt.dataset_epoch("ages").unwrap(), epoch_before);
        // The next query re-plans against the grown table.
        let spec = mean_spec()
            .epsilon(eps(1.0))
            .fixed_block_size(100)
            .range_estimation(RangeEstimation::Tight(vec![range(0.0, 100.0)]));
        let ans = rt.run("ages", spec).unwrap();
        assert_eq!(ans.num_blocks, 15);
        let stats = rt.ingest_stats("ages").unwrap();
        assert_eq!(stats.appends, 1);
        assert_eq!(stats.rows_appended, 500);
        assert_eq!(stats.bytes_materialized, 500 * 8);
    }

    #[test]
    fn bytes_materialized_under_a_snapshot_counts_one_chunk_at_most() {
        use gupt_sandbox::view::CHUNK_ROWS;
        let rt = runtime(1000, 10.0);
        let handle = rt.dataset_handle("ages").unwrap();
        let delta = age_rows(300);
        let delta_bytes = 300 * 8;
        let mut total = 0;
        for _ in 0..40 {
            // A query snapshot holds the store across the append, so the
            // rows of the open chunk it shares are copied, and counted.
            let snapshot = handle.snapshot();
            let open_rows = (snapshot.len() - 1000) % CHUNK_ROWS;
            let receipt = handle.append(&delta).unwrap();
            assert_eq!(
                receipt.bytes_materialized,
                delta_bytes + 8 * open_rows as u64
            );
            assert!(receipt.bytes_materialized < delta_bytes + 8 * CHUNK_ROWS as u64);
            assert_eq!(snapshot.len() + 300, receipt.total_rows);
            total += receipt.bytes_materialized;
        }
        // The table grew 13-fold, past several chunks; no append copied
        // more than one chunk.
        assert!(rt.dataset_len("ages").unwrap() > 3 * CHUNK_ROWS);
        assert_eq!(rt.ingest_stats("ages").unwrap().bytes_materialized, total);
        // With the snapshot gone, the count is the delta exactly.
        assert_eq!(
            handle.append(&delta).unwrap().bytes_materialized,
            delta_bytes
        );
    }

    #[test]
    fn dataset_handle_drives_the_ingest_api() {
        let rt = runtime(100, 10.0);
        let handle = rt.dataset_handle("ages").unwrap();
        assert_eq!(handle.name(), "ages");
        assert_eq!(handle.len(), 100);
        assert!(!handle.is_empty());
        let receipt = handle.append(&[vec![55.0], vec![56.0]]).unwrap();
        assert_eq!(receipt.rows_appended, 2);
        assert_eq!(handle.len(), 102);
        assert_eq!(handle.epoch(), receipt.epoch);
        assert_eq!(handle.ingest_stats().rows_appended, 2);
        assert!(matches!(
            rt.dataset_handle("nope").unwrap_err(),
            GuptError::DatasetNotFound(_)
        ));
    }

    #[test]
    fn cached_hit_misses_after_append_and_replays_per_epoch() {
        // The epoch-keyed invalidation contract across incremental
        // appends, at the runtime layer: identical query → hit (bit
        // identical); append → the same query misses and recomputes.
        let rt = runtime(2000, 100.0);
        let spec = || {
            QuerySpec::builder()
                .view(|block: &crate::BlockView| {
                    vec![block.iter().map(|r| r[0]).sum::<f64>() / block.len().max(1) as f64]
                })
                .identity("mean", 1)
                .epsilon(eps(1.0))
                .range_estimation(RangeEstimation::Tight(vec![range(0.0, 100.0)]))
                .build()
                .unwrap()
        };
        let first = rt.run("ages", spec()).unwrap();
        let replay = rt.run("ages", spec()).unwrap();
        assert_eq!(
            first.values[0].to_bits(),
            replay.values[0].to_bits(),
            "replay within an epoch must be bit-identical"
        );
        assert_eq!(rt.cache_stats().hits, 1);
        assert_eq!(rt.queries_run("ages").unwrap(), 1);

        rt.append_rows("ages", &age_rows(20)).unwrap();
        let fresh = rt.run("ages", spec()).unwrap();
        assert_eq!(rt.cache_stats().hits, 1, "post-append lookup must miss");
        assert_eq!(rt.queries_run("ages").unwrap(), 2, "miss recomputes");
        // And the new epoch's answer replays bit-identically in turn.
        let replay2 = rt.run("ages", spec()).unwrap();
        assert_eq!(fresh.values[0].to_bits(), replay2.values[0].to_bits());
        assert_eq!(rt.cache_stats().hits, 2);
    }

    #[test]
    fn user_level_privacy_keeps_groups_atomic() {
        // 100 users × 3 records; a split user would be visible to the
        // probe program, which reports the fraction of blocks where any
        // user id appears 1 or 2 times (instead of 0 or 3).
        let rows: Vec<Vec<f64>> = (0..300).map(|i| vec![(i % 100) as f64, i as f64]).collect();
        let dataset = Dataset::new(rows).unwrap().with_group_column(0).unwrap();
        let rt = GuptRuntimeBuilder::new()
            .register("users", dataset, eps(1e6))
            .unwrap()
            .seed(17)
            .build();
        let spec = QuerySpec::program(|block: &[Vec<f64>]| {
            let mut counts = std::collections::HashMap::new();
            for row in block {
                *counts.entry(row[0].to_bits()).or_insert(0usize) += 1;
            }
            let split = counts.values().any(|&c| c != 3);
            vec![if split { 1.0 } else { 0.0 }]
        })
        .epsilon(eps(1000.0))
        .fixed_block_size(30)
        .resampling(2)
        .range_estimation(RangeEstimation::Tight(vec![range(0.0, 1.0)]));
        let ans = rt.run("users", spec).unwrap();
        // No block saw a split user (noise at ε=1000 is negligible).
        assert!(ans.values[0].abs() < 0.05, "{:?}", ans.values);
        assert_eq!(ans.gamma, 2);
    }

    #[test]
    fn telemetry_records_every_stage() {
        use crate::telemetry::Stage;
        let rt = runtime(4000, 10.0);
        let spec = mean_spec()
            .epsilon(eps(2.0))
            .range_estimation(RangeEstimation::Tight(vec![range(0.0, 100.0)]))
            .collect_telemetry();
        let ans = rt.run("ages", spec).unwrap();
        let report = ans.telemetry.expect("telemetry requested");
        assert_eq!(report.stages.len(), Stage::ALL.len());
        for stage in Stage::ALL {
            assert!(report.stage(stage).is_some(), "missing {stage:?}");
        }
        // Stage times nest inside the total.
        let sum: std::time::Duration = report.stages.iter().map(|t| t.duration).sum();
        assert!(sum <= report.total);
    }

    #[test]
    fn telemetry_counters_match_execution_summary() {
        let rt = runtime(1000, 10.0);
        // Panic on blocks whose first row is below the global mean, so the
        // run mixes completed and panicked chambers.
        let spec = QuerySpec::program(|block: &[Vec<f64>]| {
            assert!(block[0][0] >= 39.5, "hostile trigger");
            vec![block[0][0]]
        })
        .epsilon(eps(1.0))
        .fixed_block_size(50)
        .range_estimation(RangeEstimation::Tight(vec![range(0.0, 100.0)]))
        .collect_telemetry();
        let ans = rt.run("ages", spec).unwrap();
        let report = ans.telemetry.expect("telemetry requested");
        assert_eq!(report.blocks.run, ans.execution.total());
        assert_eq!(report.blocks.completed, ans.execution.completed);
        assert_eq!(report.blocks.timed_out, ans.execution.timed_out);
        assert_eq!(report.blocks.panicked, ans.execution.panicked);
        assert!(ans.execution.panicked > 0, "{:?}", ans.execution);
        assert!(report.blocks.workers >= 1);
        assert!(
            (0.0..=1.0).contains(&report.blocks.worker_utilization),
            "{}",
            report.blocks.worker_utilization
        );
    }

    #[test]
    fn telemetry_ledger_event_matches_charge() {
        let rt = runtime(1000, 10.0);
        let spec = mean_spec()
            .epsilon(eps(2.0))
            .range_estimation(RangeEstimation::Tight(vec![range(0.0, 100.0)]))
            .collect_telemetry();
        let ans = rt.run("ages", spec).unwrap();
        let ledger = ans.telemetry.expect("telemetry requested").ledger;
        assert_eq!(ledger.epsilon_requested, 2.0);
        assert_eq!(ledger.epsilon_charged, 2.0);
        assert!((ledger.remaining_budget - 8.0).abs() < 1e-9);
    }

    #[test]
    fn telemetry_counts_clamp_hits() {
        let rt = runtime(1000, 10.0);
        // Every block output (~39.5) lies outside the declared [90, 100]
        // range, so every block is a clamp hit.
        let spec = mean_spec()
            .epsilon(eps(1.0))
            .fixed_block_size(100)
            .range_estimation(RangeEstimation::Tight(vec![range(90.0, 100.0)]))
            .collect_telemetry();
        let ans = rt.run("ages", spec).unwrap();
        let report = ans.telemetry.expect("telemetry requested");
        assert_eq!(report.clamp_hits, vec![ans.num_blocks]);
    }

    #[test]
    fn telemetry_off_by_default() {
        let rt = runtime(1000, 10.0);
        let spec = mean_spec()
            .epsilon(eps(1.0))
            .range_estimation(RangeEstimation::Tight(vec![range(0.0, 100.0)]));
        let ans = rt.run("ages", spec).unwrap();
        assert!(ans.telemetry.is_none());
    }

    #[test]
    fn telemetry_does_not_perturb_dp_output() {
        // The answer must be bit-identical with and without telemetry:
        // collection never touches the RNG stream or the aggregate.
        let run = |telemetry: bool| {
            let rt = runtime(2000, 10.0);
            let mut spec = mean_spec()
                .epsilon(eps(1.0))
                .range_estimation(RangeEstimation::Tight(vec![range(0.0, 100.0)]));
            if telemetry {
                spec = spec.collect_telemetry();
            }
            rt.run("ages", spec).unwrap().values
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn hostile_program_cannot_crash_runtime() {
        let rt = runtime(1000, 10.0);
        let spec = QuerySpec::program(|_: &[Vec<f64>]| panic!("hostile"))
            .epsilon(eps(1.0))
            .range_estimation(RangeEstimation::Tight(vec![range(0.0, 100.0)]));
        let ans = rt.run("ages", spec).unwrap();
        assert_eq!(ans.execution.panicked, ans.num_blocks);
        // All fallbacks clamp into range; the answer is still in-range-ish.
        assert!(ans.values[0].is_finite());
    }

    // --- Streaming windowed analytics. ------------------------------

    fn stream_spec(e: f64) -> QuerySpec {
        QuerySpec::builder()
            .view(|b: &crate::BlockView| {
                vec![b.iter().map(|r| r[0]).sum::<f64>() / b.len().max(1) as f64]
            })
            .identity("stream-mean", 1)
            .epsilon(eps(e))
            .range_estimation(RangeEstimation::Tight(vec![range(0.0, 100.0)]))
            .build()
            .unwrap()
    }

    #[test]
    fn tumbling_windows_close_in_order_and_age() {
        let rt = runtime(100, 10.0);
        let q = rt
            .subscribe("ages", WindowSpec::tumbling(40).unwrap(), stream_spec(1.0))
            .unwrap();
        let w0 = rt.poll_window(&q).unwrap().expect("window 0 closed");
        assert_eq!((w0.window, w0.start_row, w0.end_row), (0, 0, 40));
        assert!(!w0.replayed);
        assert_eq!(w0.answer.epsilon_spent, 1.0);
        assert_eq!(w0.rows_aged, 40, "rows 0..40 expired with window 0");
        let w1 = rt.poll_window(&q).unwrap().expect("window 1 closed");
        assert_eq!((w1.window, w1.start_row, w1.end_row), (1, 40, 80));
        // Window 2 needs 120 rows; only 100 are registered.
        assert!(rt.poll_window(&q).unwrap().is_none());
        assert!((rt.remaining_budget("ages").unwrap() - 8.0).abs() < 1e-9);
        let stats = rt.stream_stats();
        assert_eq!(stats.subscriptions, 1);
        assert_eq!(stats.windows_closed, 2);
        assert_eq!(stats.windows_replayed, 0);
        assert_eq!(stats.rows_aged, 80);
        assert!((stats.epsilon_spent - 2.0).abs() < 1e-12);
        // Ingest closes the pending window.
        rt.append_rows("ages", &age_rows(20)).unwrap();
        let w2 = rt.poll_window(&q).unwrap().expect("window 2 closed");
        assert_eq!((w2.start_row, w2.end_row), (80, 120));
        assert!(!w2.replayed);
    }

    #[test]
    fn sliding_windows_overlap_and_age_by_slide() {
        let rt = runtime(100, 10.0);
        let q = rt
            .subscribe(
                "ages",
                WindowSpec::sliding(60, 20).unwrap(),
                stream_spec(0.5),
            )
            .unwrap();
        let w0 = rt.poll_window(&q).unwrap().expect("window 0 closed");
        assert_eq!((w0.start_row, w0.end_row), (0, 60));
        // Only the slide expires: rows 20.. still feed window 1.
        assert_eq!(w0.rows_aged, 20);
        let w1 = rt.poll_window(&q).unwrap().expect("window 1 closed");
        assert_eq!((w1.start_row, w1.end_row), (20, 80));
        let w2 = rt.poll_window(&q).unwrap().expect("window 2 closed");
        assert_eq!((w2.start_row, w2.end_row), (40, 100));
        assert!(rt.poll_window(&q).unwrap().is_none());
        assert_eq!(rt.stream_stats().rows_aged, 60);
        assert!((rt.remaining_budget("ages").unwrap() - 8.5).abs() < 1e-9);
    }

    #[test]
    fn closed_window_replay_is_free_and_append_proof() {
        let rt = runtime(100, 10.0);
        let win = WindowSpec::tumbling(40).unwrap();
        let q1 = rt.subscribe("ages", win, stream_spec(1.0)).unwrap();
        let w0 = rt.poll_window(&q1).unwrap().expect("window 0");
        let w1 = rt.poll_window(&q1).unwrap().expect("window 1");
        let after_fresh = rt.remaining_budget("ages").unwrap();
        // Later ingest moves the dataset epoch — but not the closed
        // windows' content, so their answers stay replayable.
        rt.append_rows("ages", &age_rows(10)).unwrap();
        let q2 = rt.subscribe("ages", win, stream_spec(1.0)).unwrap();
        let r0 = rt.poll_window(&q2).unwrap().expect("window 0 replays");
        let r1 = rt.poll_window(&q2).unwrap().expect("window 1 replays");
        assert!(r0.replayed && r1.replayed);
        assert_eq!(r0.answer.epsilon_spent, 0.0);
        assert_eq!(r1.answer.epsilon_spent, 0.0);
        assert_eq!(
            w0.answer.values[0].to_bits(),
            r0.answer.values[0].to_bits(),
            "replay must be bit-identical"
        );
        assert_eq!(w1.answer.values[0].to_bits(), r1.answer.values[0].to_bits());
        assert_eq!(
            rt.remaining_budget("ages").unwrap(),
            after_fresh,
            "replayed windows spend no ε"
        );
        assert_eq!(rt.stream_stats().windows_replayed, 2);
    }

    #[test]
    fn arrival_keyed_windows_follow_ingest_batches() {
        let rt = runtime(50, 10.0);
        let win = WindowSpec::tumbling(1)
            .unwrap()
            .keyed_by(WindowKey::Arrival);
        let q = rt.subscribe("ages", win, stream_spec(1.0)).unwrap();
        // Arrival 0 is the registration batch.
        let w0 = rt.poll_window(&q).unwrap().expect("registration batch");
        assert_eq!((w0.start_row, w0.end_row), (0, 50));
        assert_eq!(w0.rows_aged, 50);
        // No second arrival yet.
        assert!(rt.poll_window(&q).unwrap().is_none());
        rt.append_rows("ages", &age_rows(30)).unwrap();
        let w1 = rt.poll_window(&q).unwrap().expect("append batch");
        assert_eq!((w1.start_row, w1.end_row), (50, 80));
        assert_eq!(w1.rows_aged, 30);
    }

    #[test]
    fn subscribe_validates_replayability() {
        let rt = runtime(100, 10.0);
        let win = WindowSpec::tumbling(40).unwrap();
        // Anonymous programs cannot replay from the cache.
        let anon = QuerySpec::view_program(|_: &crate::BlockView| vec![0.0])
            .epsilon(eps(1.0))
            .range_estimation(RangeEstimation::Tight(vec![range(0.0, 1.0)]));
        assert!(matches!(
            rt.subscribe("ages", win, anon),
            Err(GuptError::InvalidSpec(_))
        ));
        // Accuracy goals resolve against shifting aged data.
        let goal = crate::budget_estimator::AccuracyGoal::new(0.9, 0.9).unwrap();
        let spec = QuerySpec::builder()
            .view(|_: &crate::BlockView| vec![0.0])
            .identity("g", 1)
            .accuracy_goal(goal)
            .range_estimation(RangeEstimation::Tight(vec![range(0.0, 1.0)]))
            .build()
            .unwrap();
        assert!(matches!(
            rt.subscribe("ages", win, spec),
            Err(GuptError::InvalidSpec(_))
        ));
        // Optimized β would re-resolve as aging advances.
        let spec = stream_spec(1.0).optimized_block_size();
        assert!(matches!(
            rt.subscribe("ages", win, spec),
            Err(GuptError::InvalidSpec(_))
        ));
        // A range mode is required.
        let spec = QuerySpec::builder()
            .view(|_: &crate::BlockView| vec![0.0])
            .identity("r", 1)
            .epsilon(eps(1.0))
            .build()
            .unwrap();
        assert!(matches!(
            rt.subscribe("ages", win, spec),
            Err(GuptError::InvalidSpec(_))
        ));
        // Unknown principals are rejected at subscription time.
        assert!(rt
            .subscribe_as("ages", "mallory", win, stream_spec(1.0))
            .is_err());
        // Polling an unsubscribed handle fails loudly.
        let q = rt.subscribe("ages", win, stream_spec(1.0)).unwrap();
        assert!(rt.unsubscribe(&q));
        assert!(!rt.unsubscribe(&q));
        assert!(matches!(rt.poll_window(&q), Err(GuptError::InvalidSpec(_))));
    }

    #[test]
    fn per_window_charges_attribute_to_principals_with_zero_drift() {
        let rt = GuptRuntimeBuilder::new()
            .dataset(
                "ages",
                Dataset::new(age_rows(100))
                    .unwrap()
                    .builder()
                    .budget(eps(5.0))
                    .principal("alice", 3.0),
            )
            .unwrap()
            .seed(9)
            .build();
        let q = rt
            .subscribe_as(
                "ages",
                "alice",
                WindowSpec::tumbling(40).unwrap(),
                stream_spec(1.0),
            )
            .unwrap();
        rt.poll_window(&q).unwrap().expect("window 0");
        rt.poll_window(&q).unwrap().expect("window 1");
        let alice = rt.principal_state("ages", "alice").unwrap();
        assert!((alice.spent - 2.0).abs() < 1e-12);
        assert_eq!(alice.queries, 2);
        // Exactly-zero drift between the principal books and the ledger.
        let attributed: f64 = rt
            .principal_states("ages")
            .unwrap()
            .iter()
            .map(|s| s.spent)
            .sum();
        assert_eq!(attributed, rt.ledger_state("ages").unwrap().spent);
    }

    #[test]
    fn failed_window_charge_leaves_the_window_retryable() {
        let rt = runtime(100, 1.5);
        let q = rt
            .subscribe("ages", WindowSpec::tumbling(40).unwrap(), stream_spec(1.0))
            .unwrap();
        rt.poll_window(&q).unwrap().expect("window 0 affordable");
        // Window 1 costs 1.0 against 0.5 remaining: fail closed, cursor
        // stays on the unpaid window (every retry re-attempts it rather
        // than skipping ahead).
        assert!(rt.poll_window(&q).is_err());
        assert!(rt.poll_window(&q).is_err());
        assert!((rt.remaining_budget("ages").unwrap() - 0.5).abs() < 1e-9);
        assert_eq!(rt.stream_stats().windows_closed, 1);
    }

    #[test]
    fn recovery_replays_closed_windows_at_zero_epsilon() {
        let dir = std::env::temp_dir()
            .join("gupt_runtime_stream_tests")
            .join(format!("recover_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let durable = || {
            crate::storage::Durability::Durable(
                crate::storage::StorageConfig::new(&dir).fsync(crate::storage::FsyncPolicy::Always),
            )
        };
        let win = WindowSpec::tumbling(40).unwrap();
        let (v0, v1, after_fresh) = {
            let rt = GuptRuntimeBuilder::new()
                .dataset(
                    "ages",
                    Dataset::new(age_rows(100))
                        .unwrap()
                        .builder()
                        .budget(eps(10.0))
                        .durability(durable()),
                )
                .unwrap()
                .seed(42)
                .build();
            let q = rt.subscribe("ages", win, stream_spec(1.0)).unwrap();
            let w0 = rt.poll_window(&q).unwrap().expect("window 0");
            let w1 = rt.poll_window(&q).unwrap().expect("window 1");
            (
                w0.answer.values[0].to_bits(),
                w1.answer.values[0].to_bits(),
                rt.remaining_budget("ages").unwrap(),
            )
        }; // "kill": the runtime drops; only the WAL survives.
        let rt = GuptRuntimeBuilder::new()
            .dataset(
                "ages",
                Dataset::new(age_rows(100))
                    .unwrap()
                    .builder()
                    .budget(eps(10.0))
                    .durability(durable()),
            )
            .unwrap()
            .seed(7) // a different seed must not matter for replay
            .build();
        assert_eq!(
            rt.remaining_budget("ages").unwrap(),
            after_fresh,
            "recovered ledger carries the per-window debits"
        );
        let q = rt.subscribe("ages", win, stream_spec(1.0)).unwrap();
        let r0 = rt.poll_window(&q).unwrap().expect("window 0 recovers");
        let r1 = rt.poll_window(&q).unwrap().expect("window 1 recovers");
        assert!(r0.replayed && r1.replayed);
        assert_eq!(r0.answer.values[0].to_bits(), v0);
        assert_eq!(r1.answer.values[0].to_bits(), v1);
        assert_eq!(
            rt.remaining_budget("ages").unwrap(),
            after_fresh,
            "recovered replay spends no ε"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
