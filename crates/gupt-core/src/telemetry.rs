//! Query-lifecycle telemetry (operator observability).
//!
//! A [`QueryTelemetry`] collector rides along one call to
//! [`crate::runtime::GuptRuntime::run`] and records, per pipeline stage
//! of Algorithm 1 / §3.1, wall-clock timings plus execution counters:
//! how many chambers completed / were killed, how busy the chamber-pool
//! workers were, how often block outputs hit the clamping range, and
//! what the ledger charged. The finished [`TelemetryReport`] travels on
//! [`crate::runtime::PrivateAnswer::telemetry`] and renders to a
//! stable-schema JSON document (see [`TelemetryReport::to_json`]).
//!
//! # Privacy caveat
//!
//! Telemetry is an **operator-facing side channel outside the
//! differential-privacy guarantee**. Stage durations, outcome counts
//! and clamp counters are *not* ε-protected: chamber wall-clock depends
//! on the private rows unless a padding [`gupt_sandbox::ChamberPolicy`]
//! is in force, and clamp counts reveal how many block outputs fell
//! outside the declared range. Ship telemetry to trusted operators
//! (logs, CI artifacts) — never to the analyst alongside the noisy
//! answer. The DP output itself never depends on any telemetry value.

use gupt_sandbox::PoolTrace;
use std::fmt;
use std::time::Duration;

use crate::cache::CacheStats;
use crate::computation_manager::ExecutionSummary;

/// Version of the JSON schema emitted by [`TelemetryReport::to_json`].
/// Bump when a field is added, removed or renamed.
///
/// v2 added the zero-copy data-plane counters `views_served` and
/// `bytes_materialized` to the `blocks` object. v3 added the `cache`
/// object (answer-cache hits / misses / ε recycled / evictions /
/// recovered entries / occupancy). v4 added the optional `serve` object
/// (network serve-plane counters: accepted / refused / in-flight,
/// per-principal ε spent, p50/p99 latency) — present only on reports
/// emitted by a serve plane. v5 added the `parallel` object (chamber
/// pool counters: workers used, steal count, chamber-stage wall vs cpu
/// milliseconds). v6 added the mandatory `ingest` object
/// (incremental-ingest counters of the queried dataset: appends applied,
/// rows appended, delta bytes materialized — all zero for a dataset that
/// never saw an append). v7 added the mandatory `stream` object
/// (continuous-query counters of the runtime at the moment the query
/// finished: subscriptions registered, windows closed, closed-window
/// replays served at zero ε, rows aged out of expired windows, and the
/// total ε debited by window evaluations — all zero on a runtime that
/// never saw a subscription). v8 added the mandatory `sql` object
/// (DP-SQL front-end counters: statements parsed, statements planned
/// into `QuerySpec` plans, and groups suppressed by the
/// minimum-frequency release rule — all zero for a query that did not
/// arrive through the SQL layer). v9 replaced the `parallel` object's
/// `steals` count (the pool no longer steals) with `spawned`: the
/// threads the chamber dispatch started, replacements for killed
/// workers included.
pub const TELEMETRY_SCHEMA_VERSION: u32 = 9;

/// The six pipeline stages of one GUPT query (Algorithm 1, §3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Stage {
    /// Resolving ε: explicit, or derived from an accuracy goal (§5.1).
    BudgetResolution,
    /// Debiting the dataset's lifetime ledger (fail-closed).
    LedgerCharge,
    /// Choosing β, partitioning rows into ℓ·γ blocks, materialising.
    BlockPlanning,
    /// Running the untrusted program over every block in chambers (§6).
    ChamberExecution,
    /// Resolving output ranges (tight / loose / helper, §4.1).
    RangeResolution,
    /// Clamp, average, Laplace noise (Algorithm 1).
    Aggregation,
}

impl Stage {
    /// All stages, in pipeline order.
    pub const ALL: [Stage; 6] = [
        Stage::BudgetResolution,
        Stage::LedgerCharge,
        Stage::BlockPlanning,
        Stage::ChamberExecution,
        Stage::RangeResolution,
        Stage::Aggregation,
    ];

    /// Stable snake_case key used in the JSON schema.
    pub fn key(self) -> &'static str {
        match self {
            Stage::BudgetResolution => "budget_resolution",
            Stage::LedgerCharge => "ledger_charge",
            Stage::BlockPlanning => "block_planning",
            Stage::ChamberExecution => "chamber_execution",
            Stage::RangeResolution => "range_resolution",
            Stage::Aggregation => "aggregation",
        }
    }

    fn index(self) -> usize {
        match self {
            Stage::BudgetResolution => 0,
            Stage::LedgerCharge => 1,
            Stage::BlockPlanning => 2,
            Stage::ChamberExecution => 3,
            Stage::RangeResolution => 4,
            Stage::Aggregation => 5,
        }
    }
}

/// One recorded stage timing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageTiming {
    /// Which stage.
    pub stage: Stage,
    /// Wall-clock duration spent in it.
    pub duration: Duration,
}

/// Counters from the chambered execution of one query.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct BlockCounters {
    /// Blocks dispatched to chambers (ℓ·γ).
    pub run: usize,
    /// Blocks whose program completed normally.
    pub completed: usize,
    /// Blocks killed for exceeding the execution budget.
    pub timed_out: usize,
    /// Blocks whose program panicked.
    pub panicked: usize,
    /// Worker threads the pool actually used.
    pub workers: usize,
    /// Fraction of `workers × wall` the workers spent inside chambers
    /// (1.0 = perfectly packed). 0 when nothing ran.
    pub worker_utilization: f64,
    /// Zero-copy block views dispatched to chambers during block
    /// preparation (ℓ·γ on the view plane).
    pub views_served: usize,
    /// Bytes of index bookkeeping copied while preparing blocks — the
    /// *entire* data-plane allocation of the query. The legacy clone
    /// plane would have copied `γ ×` the dataset's row bytes instead.
    pub bytes_materialized: usize,
}

/// The ledger's view of one query.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LedgerEvent {
    /// ε the query asked for (explicit, or resolved from the goal).
    pub epsilon_requested: f64,
    /// ε actually debited (equals `epsilon_requested` today; kept
    /// separate so charge-rounding policies stay observable).
    pub epsilon_charged: f64,
    /// Lifetime budget left on the dataset *after* the charge.
    pub remaining_budget: f64,
}

/// Chamber-pool counters for one query (schema v9 `parallel`
/// object). `wall_ms` is the chamber-execution stage's
/// wall clock; `cpu_ms` is the sum of per-worker busy time — their
/// ratio exposes how well the parallel fan-out packed the workers.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ParallelTelemetry {
    /// Worker threads the pool actually used for the query.
    pub workers: usize,
    /// Threads the dispatch started, replacements for killed workers
    /// included (see [`PoolTrace::spawned`]).
    pub spawned: u64,
    /// Wall-clock milliseconds of the chamber-execution stage.
    pub wall_ms: f64,
    /// Cumulative busy (cpu) milliseconds across all workers.
    pub cpu_ms: f64,
}

impl ParallelTelemetry {
    /// Renders the schema-v9 `parallel` object (the value only, no key).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"workers\":{},\"spawned\":{},\"wall_ms\":{},\"cpu_ms\":{}}}",
            self.workers,
            self.spawned,
            json_f64(self.wall_ms),
            json_f64(self.cpu_ms)
        )
    }
}

/// Incremental-ingest counters of the queried dataset at the moment the
/// query finished (schema v6 `ingest` object). All zero for a dataset
/// that never saw an append; `bytes_materialized` counts the bytes
/// appends wrote — the delta rows plus any partly filled chunk a query
/// snapshot shared and that had to be copied — so operators can see
/// that a small append never copies the whole table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IngestTelemetry {
    /// Appends applied to the dataset since registration.
    pub appends: u64,
    /// Total rows appended since registration.
    pub rows_appended: u64,
    /// Total bytes appends wrote into the row store: delta rows plus
    /// at most one copied chunk per append — never the pre-existing
    /// table.
    pub bytes_materialized: u64,
}

impl IngestTelemetry {
    /// Renders the schema-v6 `ingest` object (the value only, no key).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"appends\":{},\"rows_appended\":{},\"bytes_materialized\":{}}}",
            self.appends, self.rows_appended, self.bytes_materialized
        )
    }
}

/// Continuous-query counters of the runtime at the moment the query
/// finished (schema v7 `stream` object). All zero on a runtime that
/// never saw a subscription. `epsilon_spent` is the cumulative ε debited
/// by window evaluations (cache-replayed windows contribute nothing);
/// `rows_aged` counts rows transitioned into the aged store as their
/// windows expired (§3.3).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StreamTelemetry {
    /// Continuous-query subscriptions registered on the runtime.
    pub subscriptions: u64,
    /// Windows evaluated to completion (fresh executions, ε debited).
    pub windows_closed: u64,
    /// Closed windows replayed from the answer cache at zero ε.
    pub windows_replayed: u64,
    /// Rows aged out of expired windows into the aged store.
    pub rows_aged: u64,
    /// Total ε debited by window evaluations.
    pub epsilon_spent: f64,
}

impl StreamTelemetry {
    /// Renders the schema-v7 `stream` object (the value only, no key).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"subscriptions\":{},\"windows_closed\":{},\"windows_replayed\":{},\
             \"rows_aged\":{},\"epsilon_spent\":{}}}",
            self.subscriptions,
            self.windows_closed,
            self.windows_replayed,
            self.rows_aged,
            json_f64(self.epsilon_spent)
        )
    }
}

/// DP-SQL front-end counters for one query (schema v8 `sql` object).
/// All zero for a query that did not arrive through the SQL layer. The
/// counters are stamped onto the report by the `gupt-sql` planner —
/// the runtime itself never sees SQL text. `suppressed_groups` makes
/// the minimum-frequency release rule auditable: it counts GROUP BY
/// groups whose noisy count fell below the release threshold and were
/// therefore withheld from the answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SqlTelemetry {
    /// SQL statements parsed into a typed AST.
    pub statements_parsed: u64,
    /// `QuerySpec` plans compiled from those statements (one statement
    /// can plan several specs: multi-aggregate selects and per-group
    /// GROUP BY sub-plans).
    pub statements_planned: u64,
    /// Groups suppressed by the minimum-frequency release rule.
    pub suppressed_groups: u64,
}

impl SqlTelemetry {
    /// Renders the schema-v8 `sql` object (the value only, no key).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"statements_parsed\":{},\"statements_planned\":{},\"suppressed_groups\":{}}}",
            self.statements_parsed, self.statements_planned, self.suppressed_groups
        )
    }
}

/// Serve-plane counters attached to telemetry emitted by a network
/// front door (schema v4 `serve` object). Per-query reports from a bare
/// runtime never carry one.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ServeTelemetry {
    /// Requests the serve plane accepted for execution.
    pub accepted: u64,
    /// Requests refused (overload, deadline, quota, bad request…).
    pub refused: u64,
    /// Requests executing at snapshot time.
    pub in_flight: usize,
    /// ε spent per principal, sorted by name. Principal names are
    /// validated ASCII (`[A-Za-z0-9._@-]`), so they embed in JSON
    /// without escaping.
    pub principals: Vec<(String, f64)>,
    /// Median end-to-end request latency in milliseconds (the serve
    /// plane reports it from log buckets, within 1/16 of exact).
    pub p50_ms: f64,
    /// 99th-percentile end-to-end request latency in milliseconds
    /// (same resolution as `p50_ms`).
    pub p99_ms: f64,
}

impl ServeTelemetry {
    /// Renders the schema-v4 `serve` object (the value only, no key).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(128);
        out.push_str(&format!(
            "{{\"accepted\":{},\"refused\":{},\"in_flight\":{},\"principals\":{{",
            self.accepted, self.refused, self.in_flight
        ));
        for (i, (name, spent)) in self.principals.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{name}\":{}", json_f64(*spent)));
        }
        out.push_str(&format!(
            "}},\"p50_ms\":{},\"p99_ms\":{}}}",
            json_f64(self.p50_ms),
            json_f64(self.p99_ms)
        ));
        out
    }
}

/// The finished, immutable telemetry of one query.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TelemetryReport {
    /// One entry per pipeline stage, in pipeline order.
    pub stages: Vec<StageTiming>,
    /// Chamber execution counters.
    pub blocks: BlockCounters,
    /// Per-output-dimension count of block outputs that fell outside
    /// the resolved range (and were therefore clamped by Algorithm 1).
    pub clamp_hits: Vec<usize>,
    /// What the privacy ledger recorded.
    pub ledger: LedgerEvent,
    /// Runtime-wide answer-cache counters at the moment the query
    /// finished (a cache *hit* reports with empty `stages` — nothing but
    /// the lookup ran).
    pub cache: CacheStats,
    /// Chamber-pool counters (all-zero on a cache hit —
    /// no chamber ran).
    pub parallel: ParallelTelemetry,
    /// Incremental-ingest counters of the queried dataset (all-zero when
    /// no rows were ever appended).
    pub ingest: IngestTelemetry,
    /// Continuous-query counters of the runtime (all-zero when no
    /// subscription was ever registered).
    pub stream: StreamTelemetry,
    /// DP-SQL front-end counters (all-zero when the query did not
    /// arrive through the SQL layer; stamped by `gupt-sql`).
    pub sql: SqlTelemetry,
    /// Serve-plane counters, attached only by a network front door
    /// (`None` on reports from a bare runtime).
    pub serve: Option<ServeTelemetry>,
    /// End-to-end wall clock of the query.
    pub total: Duration,
}

impl TelemetryReport {
    /// Duration of one stage, if it was recorded.
    pub fn stage(&self, stage: Stage) -> Option<Duration> {
        self.stages
            .iter()
            .find(|t| t.stage == stage)
            .map(|t| t.duration)
    }

    /// Renders the stable-schema JSON document (single line).
    ///
    /// Schema (version [`TELEMETRY_SCHEMA_VERSION`]): an object with
    /// `schema_version`, `total_ms`, `stages` (object keyed by
    /// [`Stage::key`] + `_ms`, always all six keys), `blocks`
    /// (`run`/`completed`/`timed_out`/`panicked`/`workers`/
    /// `worker_utilization`/`views_served`/`bytes_materialized`),
    /// `clamp_hits` (array, one count per output
    /// dimension), `ledger` (`epsilon_requested`/`epsilon_charged`/
    /// `remaining_budget`), `cache` (`hits`/`misses`/`epsilon_saved`/
    /// `evictions`/`recovered_entries`/`entries`/`capacity`), `parallel`
    /// (`workers`/`spawned`/`wall_ms`/`cpu_ms`), `ingest`
    /// (`appends`/`rows_appended`/`bytes_materialized`), `stream`
    /// (`subscriptions`/`windows_closed`/`windows_replayed`/`rows_aged`/
    /// `epsilon_spent`), `sql` (`statements_parsed`/`statements_planned`/
    /// `suppressed_groups`) and — when
    /// the report came from a serve plane — `serve` (`accepted`/
    /// `refused`/`in_flight`/`principals`/`p50_ms`/`p99_ms`). Non-finite
    /// floats render as `null`.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(512);
        out.push_str(&format!(
            "{{\"schema_version\":{},\"total_ms\":{}",
            TELEMETRY_SCHEMA_VERSION,
            json_f64(ms(self.total))
        ));
        out.push_str(",\"stages\":{");
        for (i, stage) in Stage::ALL.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let d = self.stage(*stage).unwrap_or(Duration::ZERO);
            out.push_str(&format!("\"{}_ms\":{}", stage.key(), json_f64(ms(d))));
        }
        out.push_str(&format!(
            "}},\"blocks\":{{\"run\":{},\"completed\":{},\"timed_out\":{},\
             \"panicked\":{},\"workers\":{},\"worker_utilization\":{},\
             \"views_served\":{},\"bytes_materialized\":{}}}",
            self.blocks.run,
            self.blocks.completed,
            self.blocks.timed_out,
            self.blocks.panicked,
            self.blocks.workers,
            json_f64(self.blocks.worker_utilization),
            self.blocks.views_served,
            self.blocks.bytes_materialized
        ));
        out.push_str(",\"clamp_hits\":[");
        for (i, c) in self.clamp_hits.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&c.to_string());
        }
        out.push_str(&format!(
            "],\"ledger\":{{\"epsilon_requested\":{},\"epsilon_charged\":{},\
             \"remaining_budget\":{}}}",
            json_f64(self.ledger.epsilon_requested),
            json_f64(self.ledger.epsilon_charged),
            json_f64(self.ledger.remaining_budget)
        ));
        out.push_str(&format!(
            ",\"cache\":{{\"hits\":{},\"misses\":{},\"epsilon_saved\":{},\
             \"evictions\":{},\"recovered_entries\":{},\"entries\":{},\
             \"capacity\":{}}}",
            self.cache.hits,
            self.cache.misses,
            json_f64(self.cache.epsilon_saved),
            self.cache.evictions,
            self.cache.recovered_entries,
            self.cache.entries,
            self.cache.capacity
        ));
        out.push_str(",\"parallel\":");
        out.push_str(&self.parallel.to_json());
        out.push_str(",\"ingest\":");
        out.push_str(&self.ingest.to_json());
        out.push_str(",\"stream\":");
        out.push_str(&self.stream.to_json());
        out.push_str(",\"sql\":");
        out.push_str(&self.sql.to_json());
        if let Some(serve) = &self.serve {
            out.push_str(",\"serve\":");
            out.push_str(&serve.to_json());
        }
        out.push('}');
        out
    }
}

impl fmt::Display for TelemetryReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "telemetry ({:.3} ms total):", ms(self.total))?;
        for t in &self.stages {
            writeln!(f, "  {:<18} {:>10.3} ms", t.stage.key(), ms(t.duration))?;
        }
        writeln!(
            f,
            "  blocks: {} run ({} ok, {} timed out, {} panicked), \
             {} workers at {:.0}% utilization",
            self.blocks.run,
            self.blocks.completed,
            self.blocks.timed_out,
            self.blocks.panicked,
            self.blocks.workers,
            self.blocks.worker_utilization * 100.0
        )?;
        writeln!(
            f,
            "  data plane: {} views served, {} index bytes materialized",
            self.blocks.views_served, self.blocks.bytes_materialized
        )?;
        writeln!(
            f,
            "  parallel: {} workers, {} threads spawned, {:.3} ms wall / {:.3} ms cpu",
            self.parallel.workers,
            self.parallel.spawned,
            self.parallel.wall_ms,
            self.parallel.cpu_ms
        )?;
        writeln!(
            f,
            "  ingest: {} appends, {} rows appended, {} delta bytes materialized",
            self.ingest.appends, self.ingest.rows_appended, self.ingest.bytes_materialized
        )?;
        writeln!(
            f,
            "  stream: {} subscriptions, {} windows closed, {} replayed, \
             {} rows aged, ε spent {:.4}",
            self.stream.subscriptions,
            self.stream.windows_closed,
            self.stream.windows_replayed,
            self.stream.rows_aged,
            self.stream.epsilon_spent
        )?;
        writeln!(
            f,
            "  sql: {} parsed, {} planned, {} groups suppressed",
            self.sql.statements_parsed, self.sql.statements_planned, self.sql.suppressed_groups
        )?;
        writeln!(f, "  clamp hits/dim: {:?}", self.clamp_hits)?;
        writeln!(
            f,
            "  ledger: requested ε={}, charged ε={}, remaining {}",
            self.ledger.epsilon_requested,
            self.ledger.epsilon_charged,
            self.ledger.remaining_budget
        )?;
        writeln!(
            f,
            "  cache: {} hits / {} misses, ε saved {:.4}, {} evictions, \
             {} recovered, {}/{} entries",
            self.cache.hits,
            self.cache.misses,
            self.cache.epsilon_saved,
            self.cache.evictions,
            self.cache.recovered_entries,
            self.cache.entries,
            self.cache.capacity
        )
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// JSON-safe float rendering: finite values verbatim, otherwise `null`.
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        // `{}` on f64 is shortest-roundtrip and never produces
        // exponents for the magnitudes telemetry deals in.
        let s = format!("{v}");
        if s.contains(['e', 'E']) {
            format!("{v:.12}")
        } else {
            s
        }
    } else {
        "null".to_string()
    }
}

/// Per-query telemetry collector threaded through the runtime.
///
/// A disabled collector ([`QueryTelemetry::disabled`]) records nothing
/// and [`QueryTelemetry::finish`] returns `None`, so the telemetry-off
/// path allocates no events.
#[derive(Debug)]
pub struct QueryTelemetry {
    enabled: bool,
    stage_totals: [Duration; 6],
    stage_seen: [bool; 6],
    blocks: BlockCounters,
    clamp_hits: Vec<usize>,
    ledger: LedgerEvent,
    cache: CacheStats,
    parallel: ParallelTelemetry,
    ingest: IngestTelemetry,
    stream: StreamTelemetry,
}

impl QueryTelemetry {
    /// A collector that records.
    pub fn enabled() -> Self {
        QueryTelemetry::new(true)
    }

    /// A collector that drops everything.
    pub fn disabled() -> Self {
        QueryTelemetry::new(false)
    }

    /// Builds a collector from a flag.
    pub fn new(collect: bool) -> Self {
        QueryTelemetry {
            enabled: collect,
            stage_totals: [Duration::ZERO; 6],
            stage_seen: [false; 6],
            blocks: BlockCounters::default(),
            clamp_hits: Vec::new(),
            ledger: LedgerEvent::default(),
            cache: CacheStats::default(),
            parallel: ParallelTelemetry::default(),
            ingest: IngestTelemetry::default(),
            stream: StreamTelemetry::default(),
        }
    }

    /// Whether this collector records anything.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Number of stage events recorded so far.
    pub fn event_count(&self) -> usize {
        self.stage_seen.iter().filter(|s| **s).count()
    }

    /// Adds `duration` to a stage (a stage timed in several segments —
    /// e.g. block planning split around budget resolution — still
    /// reports as one event).
    pub fn record_stage(&mut self, stage: Stage, duration: Duration) {
        if !self.enabled {
            return;
        }
        self.stage_totals[stage.index()] += duration;
        self.stage_seen[stage.index()] = true;
    }

    /// Records data-plane counters from block preparation: how many
    /// zero-copy views were built and how many index-bookkeeping bytes
    /// that cost. Call before [`QueryTelemetry::record_blocks`] — both
    /// write into the same [`BlockCounters`] without clobbering each
    /// other's fields.
    pub fn record_block_prep(&mut self, views_served: usize, bytes_materialized: usize) {
        if !self.enabled {
            return;
        }
        self.blocks.views_served = views_served;
        self.blocks.bytes_materialized = bytes_materialized;
    }

    /// Records chamber-execution counters from the run's
    /// [`ExecutionSummary`] and the pool's [`PoolTrace`].
    pub fn record_blocks(&mut self, summary: &ExecutionSummary, trace: &PoolTrace) {
        if !self.enabled {
            return;
        }
        self.blocks.run = summary.total();
        self.blocks.completed = summary.completed;
        self.blocks.timed_out = summary.timed_out;
        self.blocks.panicked = summary.panicked;
        self.blocks.workers = trace.workers_used;
        self.blocks.worker_utilization = trace.utilization();
        self.parallel = ParallelTelemetry {
            workers: trace.workers_used,
            spawned: trace.spawned,
            wall_ms: ms(trace.wall),
            cpu_ms: ms(trace.cpu()),
        };
    }

    /// Records per-dimension clamp-hit counts.
    pub fn record_clamp_hits(&mut self, hits: Vec<usize>) {
        if !self.enabled {
            return;
        }
        self.clamp_hits = hits;
    }

    /// Records the ledger's view of the query.
    pub fn record_ledger(&mut self, event: LedgerEvent) {
        if !self.enabled {
            return;
        }
        self.ledger = event;
    }

    /// Records the runtime-wide answer-cache counters.
    pub fn record_cache(&mut self, stats: CacheStats) {
        if !self.enabled {
            return;
        }
        self.cache = stats;
    }

    /// Records the queried dataset's ingest counters.
    pub fn record_ingest(&mut self, ingest: IngestTelemetry) {
        if !self.enabled {
            return;
        }
        self.ingest = ingest;
    }

    /// Records the runtime-wide continuous-query counters.
    pub fn record_stream(&mut self, stream: StreamTelemetry) {
        if !self.enabled {
            return;
        }
        self.stream = stream;
    }

    /// Seals the collector. Returns `None` when disabled.
    pub fn finish(self, total: Duration) -> Option<TelemetryReport> {
        if !self.enabled {
            return None;
        }
        let stages = Stage::ALL
            .iter()
            .filter(|s| self.stage_seen[s.index()])
            .map(|s| StageTiming {
                stage: *s,
                duration: self.stage_totals[s.index()],
            })
            .collect();
        Some(TelemetryReport {
            stages,
            blocks: self.blocks,
            clamp_hits: self.clamp_hits,
            ledger: self.ledger,
            cache: self.cache,
            parallel: self.parallel,
            ingest: self.ingest,
            stream: self.stream,
            // SQL counters are stamped by the `gupt-sql` planner after
            // the runtime returns — the runtime never sees SQL text.
            sql: SqlTelemetry::default(),
            serve: None,
            total,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> TelemetryReport {
        let mut tel = QueryTelemetry::enabled();
        for (i, s) in Stage::ALL.iter().enumerate() {
            tel.record_stage(*s, Duration::from_millis(i as u64 + 1));
        }
        tel.record_block_prep(10, 800);
        tel.record_blocks(
            &ExecutionSummary {
                completed: 8,
                timed_out: 1,
                panicked: 1,
            },
            &PoolTrace {
                wall: Duration::from_millis(100),
                workers_used: 4,
                busy: vec![Duration::from_millis(80); 4],
                spawned: 3,
            },
        );
        tel.record_clamp_hits(vec![3, 0]);
        tel.record_ledger(LedgerEvent {
            epsilon_requested: 2.0,
            epsilon_charged: 2.0,
            remaining_budget: 8.0,
        });
        tel.record_cache(CacheStats {
            hits: 3,
            misses: 5,
            epsilon_saved: 1.5,
            evictions: 1,
            recovered_entries: 2,
            entries: 4,
            capacity: 256,
        });
        tel.record_ingest(IngestTelemetry {
            appends: 2,
            rows_appended: 150,
            bytes_materialized: 1200,
        });
        tel.record_stream(StreamTelemetry {
            subscriptions: 2,
            windows_closed: 6,
            windows_replayed: 3,
            rows_aged: 90,
            epsilon_spent: 0.75,
        });
        tel.finish(Duration::from_millis(25)).unwrap()
    }

    #[test]
    fn records_one_event_per_stage() {
        let report = sample_report();
        assert_eq!(report.stages.len(), Stage::ALL.len());
        for (i, s) in Stage::ALL.iter().enumerate() {
            assert_eq!(report.stage(*s), Some(Duration::from_millis(i as u64 + 1)));
        }
    }

    #[test]
    fn multi_segment_stage_is_one_event() {
        let mut tel = QueryTelemetry::enabled();
        tel.record_stage(Stage::BlockPlanning, Duration::from_millis(2));
        tel.record_stage(Stage::BlockPlanning, Duration::from_millis(3));
        assert_eq!(tel.event_count(), 1);
        let report = tel.finish(Duration::from_millis(5)).unwrap();
        assert_eq!(report.stages.len(), 1);
        assert_eq!(
            report.stage(Stage::BlockPlanning),
            Some(Duration::from_millis(5))
        );
    }

    #[test]
    fn disabled_collector_records_nothing() {
        let mut tel = QueryTelemetry::disabled();
        tel.record_stage(Stage::Aggregation, Duration::from_millis(1));
        tel.record_clamp_hits(vec![1]);
        tel.record_ledger(LedgerEvent {
            epsilon_requested: 1.0,
            epsilon_charged: 1.0,
            remaining_budget: 0.0,
        });
        assert_eq!(tel.event_count(), 0);
        assert!(tel.finish(Duration::from_millis(1)).is_none());
    }

    #[test]
    fn utilization_from_trace() {
        let report = sample_report();
        // 4 × 80ms busy over 4 × 100ms wall.
        assert!((report.blocks.worker_utilization - 0.8).abs() < 1e-12);
        assert_eq!(report.blocks.run, 10);
    }

    #[test]
    fn block_prep_counters_survive_record_blocks() {
        // record_block_prep runs first in the pipeline; record_blocks
        // must not clobber its fields (and vice versa).
        let report = sample_report();
        assert_eq!(report.blocks.views_served, 10);
        assert_eq!(report.blocks.bytes_materialized, 800);
        assert_eq!(report.blocks.workers, 4);
    }

    #[test]
    fn disabled_collector_ignores_block_prep() {
        let mut tel = QueryTelemetry::disabled();
        tel.record_block_prep(5, 100);
        assert!(tel.finish(Duration::ZERO).is_none());
    }

    #[test]
    fn json_has_all_schema_fields() {
        let json = sample_report().to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        for key in [
            "\"schema_version\":9",
            "\"total_ms\":",
            "\"stages\":{",
            "\"blocks\":{",
            "\"clamp_hits\":[3,0]",
            "\"ledger\":{",
            "\"epsilon_requested\":2",
            "\"remaining_budget\":8",
            "\"run\":10",
            "\"timed_out\":1",
            "\"worker_utilization\":0.7999999999999999",
            "\"views_served\":10",
            "\"bytes_materialized\":800",
            "\"cache\":{",
            "\"hits\":3",
            "\"misses\":5",
            "\"epsilon_saved\":1.5",
            "\"evictions\":1",
            "\"recovered_entries\":2",
            "\"entries\":4",
            "\"capacity\":256",
            "\"parallel\":{\"workers\":4,\"spawned\":3,\"wall_ms\":100,\"cpu_ms\":320}",
            "\"ingest\":{\"appends\":2,\"rows_appended\":150,\"bytes_materialized\":1200}",
            "\"stream\":{\"subscriptions\":2,\"windows_closed\":6,\"windows_replayed\":3,\
             \"rows_aged\":90,\"epsilon_spent\":0.75}",
            "\"sql\":{\"statements_parsed\":0,\"statements_planned\":0,\
             \"suppressed_groups\":0}",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        for s in Stage::ALL {
            assert!(json.contains(&format!("\"{}_ms\":", s.key())), "{json}");
        }
    }

    #[test]
    fn parallel_object_defaults_to_zero_on_cache_hits() {
        // A cache hit never runs chambers: record_blocks is skipped and
        // the parallel object renders all-zero rather than disappearing.
        let tel = QueryTelemetry::enabled();
        let json = tel.finish(Duration::ZERO).unwrap().to_json();
        assert!(
            json.contains("\"parallel\":{\"workers\":0,\"spawned\":0,\"wall_ms\":0,\"cpu_ms\":0}"),
            "{json}"
        );
    }

    #[test]
    fn ingest_object_defaults_to_zero_without_appends() {
        // Mandatory in the schema: a dataset that never saw an append
        // still renders the object, all-zero, so downstream parsers can
        // rely on its presence.
        let tel = QueryTelemetry::enabled();
        let json = tel.finish(Duration::ZERO).unwrap().to_json();
        assert!(
            json.contains(
                "\"ingest\":{\"appends\":0,\"rows_appended\":0,\"bytes_materialized\":0}"
            ),
            "{json}"
        );
    }

    #[test]
    fn disabled_collector_ignores_ingest() {
        let mut tel = QueryTelemetry::disabled();
        tel.record_ingest(IngestTelemetry {
            appends: 1,
            rows_appended: 1,
            bytes_materialized: 8,
        });
        assert!(tel.finish(Duration::ZERO).is_none());
    }

    #[test]
    fn stream_object_defaults_to_zero_without_subscriptions() {
        // Mandatory in the schema: a runtime that never registered a
        // subscription still renders the object, all-zero, so downstream
        // parsers can rely on its presence.
        let tel = QueryTelemetry::enabled();
        let json = tel.finish(Duration::ZERO).unwrap().to_json();
        assert!(
            json.contains(
                "\"stream\":{\"subscriptions\":0,\"windows_closed\":0,\
                 \"windows_replayed\":0,\"rows_aged\":0,\"epsilon_spent\":0}"
            ),
            "{json}"
        );
    }

    #[test]
    fn sql_object_defaults_to_zero_off_the_sql_path() {
        // Mandatory in the schema: a query that never went through the
        // SQL front-end still renders the object, all-zero, so
        // downstream parsers can rely on its presence.
        let tel = QueryTelemetry::enabled();
        let json = tel.finish(Duration::ZERO).unwrap().to_json();
        assert!(
            json.contains(
                "\"sql\":{\"statements_parsed\":0,\"statements_planned\":0,\
                 \"suppressed_groups\":0}"
            ),
            "{json}"
        );
    }

    #[test]
    fn sql_object_renders_stamped_counters() {
        // The `gupt-sql` planner stamps the counters onto the finished
        // report; the JSON must carry them verbatim.
        let mut report = sample_report();
        report.sql = SqlTelemetry {
            statements_parsed: 1,
            statements_planned: 6,
            suppressed_groups: 2,
        };
        let json = report.to_json();
        assert!(
            json.contains(
                "\"sql\":{\"statements_parsed\":1,\"statements_planned\":6,\
                 \"suppressed_groups\":2}"
            ),
            "{json}"
        );
    }

    #[test]
    fn disabled_collector_ignores_stream() {
        let mut tel = QueryTelemetry::disabled();
        tel.record_stream(StreamTelemetry {
            subscriptions: 1,
            windows_closed: 1,
            windows_replayed: 0,
            rows_aged: 10,
            epsilon_spent: 0.5,
        });
        assert!(tel.finish(Duration::ZERO).is_none());
    }

    #[test]
    fn serve_object_absent_on_bare_runtime_reports() {
        let json = sample_report().to_json();
        assert!(!json.contains("\"serve\""), "{json}");
    }

    #[test]
    fn serve_object_renders_when_attached() {
        let mut report = sample_report();
        report.serve = Some(ServeTelemetry {
            accepted: 1900,
            refused: 100,
            in_flight: 7,
            principals: vec![("alice".into(), 1.25), ("svc@batch".into(), 0.5)],
            p50_ms: 3.5,
            p99_ms: 42.0,
        });
        let json = report.to_json();
        for key in [
            "\"serve\":{",
            "\"accepted\":1900",
            "\"refused\":100",
            "\"in_flight\":7",
            "\"principals\":{\"alice\":1.25,\"svc@batch\":0.5}",
            "\"p50_ms\":3.5",
            "\"p99_ms\":42",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        // The serve object nests inside the report's closing brace.
        assert!(json.ends_with("}}"), "{json}");
    }

    #[test]
    fn json_stage_keys_present_even_when_unrecorded() {
        let tel = QueryTelemetry::enabled();
        let json = tel.finish(Duration::ZERO).unwrap().to_json();
        // All six stage keys appear (as 0) so the schema is stable.
        for s in Stage::ALL {
            assert!(json.contains(&format!("\"{}_ms\":0", s.key())), "{json}");
        }
    }

    #[test]
    fn non_finite_floats_render_null() {
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(f64::INFINITY), "null");
        assert_eq!(json_f64(0.25), "0.25");
    }

    #[test]
    fn tiny_floats_avoid_exponent_notation() {
        let s = json_f64(1e-9);
        assert!(!s.contains(['e', 'E']), "{s}");
    }

    #[test]
    fn display_renders() {
        let text = sample_report().to_string();
        assert!(text.contains("telemetry ("), "{text}");
        assert!(text.contains("chamber_execution"), "{text}");
        assert!(text.contains("clamp hits/dim"), "{text}");
        assert!(text.contains("views served"), "{text}");
        assert!(text.contains("cache: 3 hits / 5 misses"), "{text}");
        assert!(
            text.contains("parallel: 4 workers, 3 threads spawned"),
            "{text}"
        );
        assert!(
            text.contains("ingest: 2 appends, 150 rows appended"),
            "{text}"
        );
    }

    #[test]
    fn disabled_collector_ignores_cache() {
        let mut tel = QueryTelemetry::disabled();
        tel.record_cache(CacheStats {
            hits: 1,
            ..CacheStats::default()
        });
        assert!(tel.finish(Duration::ZERO).is_none());
    }
}
