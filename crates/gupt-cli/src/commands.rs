//! Command dispatch and implementations.

use crate::args::Args;
use crate::programs;
use gupt_core::storage::{self, LedgerStore, RecoveredLedger, Snapshot};
use gupt_core::{
    AccuracyGoal, Aggregator, Dataset, Durability, ExecutionPolicy, FsyncPolicy, GuptError,
    GuptRuntime, GuptRuntimeBuilder, QueryService, QuerySpec, RangeEstimation, ServiceConfig,
    StorageConfig,
};
use gupt_datasets::census::CensusDataset;
use gupt_datasets::csv;
use gupt_datasets::internet_ads::InternetAdsDataset;
use gupt_datasets::life_sciences::{LifeSciencesConfig, LifeSciencesDataset};
use gupt_dp::{Epsilon, OutputRange};
use std::fmt::Write as _;
use std::num::NonZeroUsize;

/// Top-level error type: boxed because every subsystem has its own.
pub type CliError = Box<dyn std::error::Error>;

/// The dataset name one-shot queries register under, and so the stem of
/// the single budget a `--ledger` directory holds — whatever the CSV
/// file or the SQL `FROM` name. It is also `serve`'s default dataset, so
/// `recover --dataset data` reads a `--ledger` directory.
const LEDGER_DATASET: &str = "data";

/// Dispatches a parsed command line, returning the text to print.
pub fn dispatch(argv: &[String]) -> Result<String, CliError> {
    let args = Args::parse(argv)?;
    match args.positional() {
        [] => Ok(usage()),
        [cmd, rest @ ..] => match (cmd.as_str(), rest) {
            ("help", _) => Ok(usage()),
            ("generate", [which]) => generate(which, &args),
            ("ledger", [sub]) => ledger_cmd(sub, &args),
            ("query", []) => query(&args),
            // `serve --bind` is the network server; without it the
            // original multi-analyst load driver runs unchanged.
            ("serve", []) if args.get("bind").is_some() => serve_bind(&args),
            ("serve", []) => serve(&args),
            ("continue", []) => continue_cmd(&args),
            ("client", []) => client_cmd(&args),
            ("recover", []) => recover_cmd(&args),
            _ => Err(format!(
                "unknown command {:?}; run `gupt-cli help`",
                args.positional().join(" ")
            )
            .into()),
        },
    }
}

fn usage() -> String {
    "gupt-cli — differentially private analytics from the command line

USAGE:
  gupt-cli generate <census|ads|life-sciences> --out FILE.csv [--rows N] [--seed S]
  gupt-cli ledger init --ledger DIR --budget EPS
  gupt-cli ledger show --ledger DIR
                 (DIR is a one-dataset state directory in the serve
                  --state-dir format; one process at a time may write it)
  gupt-cli query --data FILE.csv --program SPEC --range LO,HI
                 (--epsilon EPS | --accuracy RHO --confidence P --aged-fraction F)
                 [--ledger DIR] [--block-size B] [--gamma G] [--seed S]
                 [--threads T]          (chamber workers; 0 = one per core)
                 [--header yes] [--range-mode tight|loose] [--aggregator mean|median]
                 [--group-column N]     (user-level privacy, §8.1)
                 [--telemetry json|text]  (stage timings + counters on stderr;
                                           operator-facing, NOT ε-protected)
                 [--cache-stats yes]      (answer-cache counters after the run)
  gupt-cli query --data FILE.csv --sql \"STATEMENT\"
                 [--range LO,HI | --ranges LO,HI;LO,HI;...]
                 [--epsilon EPS] [--min-count C] [--block-size B]
                 [--ledger DIR] [--seed S] [--header yes]
                 (DP-SQL: SELECT agg(cN)[, ...] FROM name [WHERE ...]
                  [GROUP BY cN[, ...]] [WITH EPSILON e]; columns are cN by
                  CSV position, --ranges gives per-column value bounds and
                  --range broadcasts one bound to every column; GROUP BY
                  releases only groups whose noisy count clears --min-count,
                  default 5, 0 disables)
  gupt-cli serve --data FILE.csv --program SPEC --range LO,HI --budget EPS
                 --queries N --epsilon-each E [--analysts T]
                 [--max-in-flight M] [--max-queued Q] [--deadline-ms D]
                 [--seed S] [--header yes] [--threads T]
                 [--state-dir DIR] [--fsync always|never|N]
                 [--segment-bytes N] [--compaction-threshold N]
                 [--cache-capacity C] [--cache-stats yes]
                 (multi-analyst driver: races N queries from T threads through
                  the admission-controlled QueryService against one budget;
                  with --state-dir the ledger is WAL-backed and survives
                  restarts — rerun with the same DIR to keep spending it;
                  --cache-capacity C > 0 turns on the answer cache, so
                  repeated queries replay their released answer at zero ε —
                  with --state-dir the warm cache survives restarts too)
  gupt-cli serve --bind ADDR --data FILE.csv --budget EPS
                 [--dataset NAME] [--header yes] [--seed S]
                 [--principals a=EPS,b=EPS] [--exhausted-policy hard_stop|pause_approval]
                 [--max-in-flight M] [--max-queued Q] [--deadline-ms D]
                 [--workers W] [--threads T]
                 [--state-dir DIR] [--fsync always|never|N]
                 [--segment-bytes N] [--compaction-threshold N]
                 [--cache-capacity C]
                 (network server: speaks the length-prefixed JSON protocol
                  on ADDR — query/batch/append/stats/recover/continue/shutdown —
                  over one admission-controlled service; --principals carves
                  per-analyst ε quotas from the dataset ledger, and with
                  --exhausted-policy pause_approval an exhausted principal
                  pauses until an operator `continue`; runs until a
                  shutdown request arrives)
  gupt-cli client --addr ADDR [--op query|append|subscribe|poll|sql|stats|recover|continue|shutdown]
                 [--dataset NAME] [--program SPEC] [--range LO,HI]
                 [--epsilon E] [--principal P] [--block-size B]
                 [--deadline-ms D] [--grant EPS]
                 [--data FILE.csv] [--header yes]
                 [--window-size N] [--window-slide N] [--window-key rows|arrivals]
                 [--subscription ID]
                 [--query \"STATEMENT\"] [--ranges LO,HI;...] [--min-count C]
                 (one-shot protocol client; prints the raw response JSON.
                  --op append streams FILE.csv's rows onto the server's
                  dataset — delta-only ingest, protocol v2.
                  --op subscribe registers a continuous windowed query
                  [protocol v3] and prints its subscription id; --op poll
                  --subscription ID evaluates its next closed window,
                  debiting the per-window ε — or replaying at zero ε.
                  --op sql ships one DP-SQL statement [protocol v4]; the
                  dataset name lives in its FROM clause)
  gupt-cli continue --addr ADDR --dataset NAME --principal P [--grant EPS]
                 (operator approval: unpauses P, optionally raising its
                  quota by EPS)
  gupt-cli recover --state-dir DIR --dataset NAME
                 (replays NAME's snapshot + WAL and reports the recovered
                  books without charging or serving anything)

PROGRAMS:
  mean:COL  median:COL  variance:COL  count  histogram:COL:BINS

EXAMPLES:
  gupt-cli generate census --out ages.csv
  gupt-cli ledger init --ledger ages.ledger --budget 5
  gupt-cli query --data ages.csv --ledger ages.ledger \\
      --program mean:0 --epsilon 0.5 --range 0,150
"
    .to_string()
}

/// Maps the `--threads T` flag onto an [`ExecutionPolicy`]: `0` asks for
/// one chamber worker per core, anything else pins the pool width.
fn threads_policy(threads: usize) -> ExecutionPolicy {
    if threads == 0 {
        ExecutionPolicy::auto()
    } else {
        ExecutionPolicy::parallel(threads)
    }
}

fn generate(which: &str, args: &Args) -> Result<String, CliError> {
    let out = args.require("out")?;
    let seed: u64 = args.get_parsed("seed", "integer")?.unwrap_or(7);
    let rows_override: Option<usize> = args.get_parsed("rows", "integer")?;
    let (rows, header): (Vec<Vec<f64>>, Vec<&str>) = match which {
        "census" => {
            let n = rows_override.unwrap_or(gupt_datasets::census::CENSUS_ROWS);
            (CensusDataset::generate_sized(n, seed).rows(), vec!["age"])
        }
        "ads" => {
            let n = rows_override.unwrap_or(gupt_datasets::internet_ads::ADS_ROWS);
            (
                InternetAdsDataset::generate_sized(n, seed).rows(),
                vec!["aspect_ratio"],
            )
        }
        "life-sciences" => {
            let mut config = LifeSciencesConfig::paper(seed);
            if let Some(n) = rows_override {
                config.rows = n;
            }
            let ds = LifeSciencesDataset::generate(&config);
            (
                ds.labeled_rows(),
                vec![
                    "pc1", "pc2", "pc3", "pc4", "pc5", "pc6", "pc7", "pc8", "pc9", "pc10",
                    "reactive",
                ],
            )
        }
        other => {
            return Err(
                format!("unknown dataset {other:?}; available: census, ads, life-sciences").into(),
            )
        }
    };
    csv::write_csv(out, Some(&header), &rows)?;
    Ok(format!(
        "wrote {} rows × {} columns to {out}\n",
        rows.len(),
        rows.first().map_or(0, Vec::len)
    ))
}

/// Reads the `--data` CSV (with `--header yes` skipping its first
/// line), refusing an empty table.
fn read_data(args: &Args) -> Result<Vec<Vec<f64>>, CliError> {
    let has_header = matches!(args.get("header"), Some("yes" | "true" | "1"));
    let rows = csv::read_csv(args.require("data")?, has_header)?;
    if rows.is_empty() {
        return Err("dataset is empty".into());
    }
    Ok(rows)
}

/// A one-shot query's `--seed`, defaulting to the wall clock.
fn query_seed(args: &Args) -> Result<u64, CliError> {
    Ok(args.get_parsed("seed", "integer")?.unwrap_or_else(|| {
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0)
    }))
}

fn ledger_cmd(sub: &str, args: &Args) -> Result<String, CliError> {
    let path = args.require("ledger")?;
    match sub {
        "init" => {
            let budget: f64 = args.require_parsed("budget", "positive number")?;
            let total = Epsilon::new(budget)?;
            // Open takes the writer lock, so no query can charge the
            // ledger before its budget is written.
            let (store, books) = LedgerStore::open(LEDGER_DATASET, &ledger_config(path)?)
                .map_err(render_runtime_error)?;
            if books.had_snapshot || books.wal_records > 0 {
                return Err(format!("ledger {path} already exists").into());
            }
            store
                .write_snapshot(&Snapshot {
                    total: total.value(),
                    spent: 0.0,
                    queries: 0,
                    principals: Default::default(),
                })
                .map_err(render_runtime_error)?;
            Ok(format!(
                "initialised {path} with lifetime budget ε = {}\n",
                total.value()
            ))
        }
        "show" => {
            let books = ledger_books(path)?;
            Ok(format!(
                "ledger {path}\n  total     ε = {}\n  spent     ε = {}\n  remaining ε = {}\n  queries     = {}\n",
                books.total,
                books.spent,
                (books.total - books.spent).max(0.0),
                books.queries
            ))
        }
        other => Err(format!("unknown ledger subcommand {other:?} (init|show)").into()),
    }
}

/// The storage config of the `--ledger` directory at `path`. A ledger
/// run makes one charge and exits, so every record is synced.
///
/// Refuses a regular file: ledgers written before the WAL format were
/// key=value files, and they are not read.
fn ledger_config(path: &str) -> Result<StorageConfig, CliError> {
    if std::path::Path::new(path).is_file() {
        return Err(format!(
            "{path} is a file, but the ledger format changed: --ledger now names a state \
             directory and old key=value ledgers are not read; \
             `gupt-cli ledger init --ledger DIR --budget EPS` creates a new ledger"
        )
        .into());
    }
    Ok(StorageConfig::new(path).fsync(FsyncPolicy::Always))
}

/// Reads the books of the `--ledger` directory at `path` without taking
/// its lock, so it works while another process charges the ledger.
/// Fails closed, creating nothing, unless `ledger init` made `path`.
fn ledger_books(path: &str) -> Result<RecoveredLedger, CliError> {
    let books =
        storage::recover(LEDGER_DATASET, &ledger_config(path)?).map_err(render_runtime_error)?;
    if !books.had_snapshot {
        return Err(format!(
            "no ledger at {path}; `gupt-cli ledger init --ledger {path} --budget EPS` creates one"
        )
        .into());
    }
    Ok(books)
}

/// Builds the runtime a one-shot query runs on, holding `dataset` as
/// [`LEDGER_DATASET`].
///
/// With a `--ledger` directory the registration is durable at the
/// ledger's initialised total, so the runtime's own ledger is the
/// persistent one: the query's single charge is the WAL debit that
/// `execute()` makes. Without one, the ephemeral ledger holds just `eps`.
fn query_runtime(
    ledger: Option<&str>,
    dataset: Dataset,
    eps: Epsilon,
    seed: u64,
    threads: Option<usize>,
) -> Result<GuptRuntime, CliError> {
    let mut builder = GuptRuntimeBuilder::new().seed(seed);
    if let Some(t) = threads {
        builder = builder.execution(threads_policy(t));
    }
    let registration = match ledger {
        None => dataset.builder().budget(eps),
        Some(path) => {
            let total = Epsilon::new(ledger_books(path)?.total)?;
            // Each run charges once: a journaled answer would let a later
            // run replay it for free, so the cache stays off.
            builder = builder.cache_capacity(0);
            dataset
                .builder()
                .budget(total)
                .durability(Durability::Durable(ledger_config(path)?))
        }
    };
    Ok(builder
        .dataset(LEDGER_DATASET, registration)
        .map_err(render_runtime_error)?
        .build())
}

/// The closing `ledger` line of a one-shot query's output.
fn ledger_line(ledger: Option<&str>, runtime: &GuptRuntime) -> Result<String, CliError> {
    Ok(match ledger {
        Some(path) => {
            let books = runtime.ledger_state(LEDGER_DATASET)?;
            format!(
                "ledger      : {path} (remaining ε = {:.6}, queries = {})\n",
                books.remaining, books.queries
            )
        }
        None => "ledger      : none — budget NOT persisted across invocations\n".to_string(),
    })
}

fn query(args: &Args) -> Result<String, CliError> {
    // `--sql` takes the whole query path through the DP-SQL compiler.
    if args.get("sql").is_some() {
        return query_sql(args);
    }
    let rows = read_data(args)?;

    let spec_str = args.require("program")?;
    let resolved = programs::resolve(spec_str)?;
    let description = resolved.description.clone();
    let (lo, hi) = args
        .range("range")?
        .ok_or("--range LO,HI is required (non-sensitive output bounds)")?;

    // Histograms re-bind the range to the buckets and release fractions.
    let (program, output_ranges, is_histogram) = if spec_str.starts_with("histogram:") {
        let mut parts = spec_str.split(':').skip(1);
        let col: usize = parts.next().unwrap().parse()?;
        let bins: usize = parts.next().unwrap().parse()?;
        let unit = OutputRange::new(0.0, 1.0)?;
        (
            programs::histogram_with_range(col, bins, lo, hi),
            vec![unit; bins],
            true,
        )
    } else {
        (
            resolved.program,
            vec![OutputRange::new(lo, hi)?; resolved.output_dim],
            false,
        )
    };

    let seed = query_seed(args)?;
    let gamma: usize = args.get_parsed("gamma", "integer")?.unwrap_or(1);
    let threads: Option<usize> = args.get_parsed("threads", "integer")?;
    let block_size: Option<NonZeroUsize> = args.get_parsed("block-size", "positive integer")?;
    let aged_fraction: Option<f64> = args.get_parsed("aged-fraction", "fraction")?;
    let group_column: Option<usize> = args.get_parsed("group-column", "column index")?;
    let aggregator = match args.get("aggregator") {
        None | Some("mean") => Aggregator::LaplaceMean,
        Some("median") => Aggregator::DpMedian,
        Some(other) => return Err(format!("unknown aggregator {other:?} (mean|median)").into()),
    };
    let range_mode = args.get("range-mode").unwrap_or("tight");
    let show_cache_stats = matches!(args.get("cache-stats"), Some("yes" | "true" | "1"));
    let telemetry_mode = match args.get("telemetry") {
        None => None,
        Some(mode @ ("json" | "text")) => Some(mode.to_string()),
        Some(other) => return Err(format!("unknown telemetry mode {other:?} (json|text)").into()),
    };

    // Build the dataset (with an aged view / user grouping when requested).
    let mut dataset = Dataset::new(rows)?;
    if let Some(f) = aged_fraction {
        dataset = dataset.with_aged_fraction(f)?;
    }
    if let Some(col) = group_column {
        dataset = dataset.with_group_column(col)?;
    }

    // Resolve the budget: explicit ε or accuracy goal.
    let epsilon_flag: Option<f64> = args.get_parsed("epsilon", "positive number")?;
    let accuracy: Option<f64> = args.get_parsed("accuracy", "fraction in (0,1)")?;

    let estimation = match range_mode {
        "tight" => RangeEstimation::Tight(output_ranges),
        "loose" => RangeEstimation::Loose(output_ranges),
        other => return Err(format!("unknown range mode {other:?} (tight|loose)").into()),
    };
    // The resolved program string is a stable identity, so the query is
    // fingerprintable by the answer cache (a no-op for this ephemeral
    // runtime beyond the --cache-stats counters).
    let mut spec = QuerySpec::builder()
        .program(program)
        .identity(spec_str, 1)
        .resampling(gamma)
        .aggregator(aggregator)
        .range_estimation(estimation);
    if let Some(b) = block_size {
        spec = spec.fixed_block_size(b.get());
    }
    if telemetry_mode.is_some() {
        spec = spec.collect_telemetry();
    }
    let spec = spec.build()?;

    let eps = match (epsilon_flag, accuracy) {
        (Some(e), None) => Epsilon::new(e)?,
        (None, Some(rho)) => {
            let confidence: f64 = args.require_parsed("confidence", "fraction in (0,1)")?;
            if aged_fraction.is_none() {
                return Err(
                    "--accuracy needs --aged-fraction F: the goal-to-ε translation \
                     uses aged (non-sensitive) data (§5.1)"
                        .into(),
                );
            }
            let goal = AccuracyGoal::new(rho, confidence)?.with_laplace_tail();
            let probe = query_runtime(None, dataset.clone(), Epsilon::new(1e9)?, seed, threads)?;
            probe.estimate_epsilon_for(LEDGER_DATASET, &spec.clone().accuracy_goal(goal))?
        }
        (Some(_), Some(_)) => return Err("--epsilon and --accuracy are mutually exclusive".into()),
        (None, None) => return Err("one of --epsilon or --accuracy is required".into()),
    };

    let runtime = query_runtime(args.get("ledger"), dataset, eps, seed, threads)?;
    let answer = runtime.run(LEDGER_DATASET, spec.epsilon(eps))?;

    // Telemetry is an operator side channel outside the ε guarantee: it
    // goes to stderr so the DP answer on stdout stays clean.
    if let Some(mode) = telemetry_mode {
        let report = answer
            .telemetry
            .as_ref()
            .expect("telemetry was requested on the spec");
        if mode == "json" {
            eprintln!("{}", report.to_json());
        } else {
            eprint!("{report}");
        }
    }

    let mut out = String::new();
    let _ = writeln!(out, "program     : {spec_str} ({description})");
    let _ = writeln!(out, "epsilon     : {:.6}", answer.epsilon_spent);
    let _ = writeln!(
        out,
        "blocks      : {} × ~{} rows (γ = {})",
        answer.num_blocks, answer.block_size, answer.gamma
    );
    // Chamber outcomes: a query whose chambers were killed or panicked
    // must not read like a clean run — the fallback constants it
    // aggregated bias the answer toward the range midpoint.
    let ex = &answer.execution;
    let _ = writeln!(
        out,
        "chambers    : {} ok, {} timed out, {} panicked{}",
        ex.completed,
        ex.timed_out,
        ex.panicked,
        if ex.timed_out + ex.panicked > 0 {
            "  ⚠ fallback outputs aggregated"
        } else {
            ""
        }
    );
    if is_histogram {
        let _ = writeln!(out, "answer      : bucket fractions over [{lo}, {hi})");
        let width = (hi - lo) / answer.values.len() as f64;
        for (i, v) in answer.values.iter().enumerate() {
            let _ = writeln!(
                out,
                "  [{:.3}, {:.3}) : {:.4}",
                lo + i as f64 * width,
                lo + (i + 1) as f64 * width,
                v.max(0.0)
            );
        }
    } else {
        let _ = writeln!(out, "answer      : {:?}", answer.values);
    }
    out.push_str(&ledger_line(args.get("ledger"), &runtime)?);
    if show_cache_stats {
        let _ = writeln!(
            out,
            "cache       : {}",
            render_cache_stats(&runtime.cache_stats())
        );
    }
    Ok(out)
}

/// Parses `--ranges lo,hi;lo,hi;...` into per-column value bounds.
fn parse_column_ranges(raw: &str) -> Result<Vec<OutputRange>, CliError> {
    raw.split(';')
        .map(|pair| {
            let (lo, hi) = pair
                .split_once(',')
                .ok_or_else(|| format!("--ranges entry {pair:?}: expected LO,HI"))?;
            let lo: f64 = lo
                .trim()
                .parse()
                .map_err(|_| format!("--ranges entry {pair:?}: bounds must be numbers"))?;
            let hi: f64 = hi
                .trim()
                .parse()
                .map_err(|_| format!("--ranges entry {pair:?}: bounds must be numbers"))?;
            Ok(OutputRange::new(lo, hi)?)
        })
        .collect()
}

/// Local DP-SQL: loads the CSV into a one-shot runtime and executes one
/// statement through the gupt-sql compiler.
fn query_sql(args: &Args) -> Result<String, CliError> {
    use gupt_sql::{SqlOptions, SqlRuntime};

    let statement = args.require("sql")?;
    let rows = read_data(args)?;
    let dimension = rows[0].len();

    // Per-column value bounds: an explicit `--ranges` list (indexed by
    // column) or one `--range` broadcast across every column.
    let column_ranges = match (args.get("ranges"), args.range("range")?) {
        (Some(_), Some(_)) => return Err("--ranges and --range are mutually exclusive".into()),
        (Some(raw), None) => parse_column_ranges(raw)?,
        (None, Some((lo, hi))) => vec![OutputRange::new(lo, hi)?; dimension],
        (None, None) => Vec::new(),
    };

    let seed = query_seed(args)?;
    // The default options arm the min-frequency gate; `--min-count 0`
    // disarms it, which is acceptable here because the local path reads
    // the caller's own CSV — there is no untrusted analyst to protect.
    let mut options = SqlOptions {
        column_ranges,
        ..SqlOptions::default()
    };
    if let Some(e) = args.get_parsed::<f64>("epsilon", "positive number")? {
        options.epsilon = e;
    }
    if let Some(mc) = args.get_parsed::<f64>("min-count", "non-negative number")? {
        options.min_count = mc;
    }
    if let Some(b) = args.get_parsed::<NonZeroUsize>("block-size", "positive integer")? {
        options.block_size = Some(b.get());
    }

    // The CSV is registered as LEDGER_DATASET whatever the FROM clause
    // names, so a ledger holds one budget: point the statement there.
    let mut stmt = gupt_sql::parse(statement)?;
    let eps_total = Epsilon::new(stmt.epsilon.unwrap_or(options.epsilon))?;
    stmt.dataset = LEDGER_DATASET.to_string();
    let runtime = query_runtime(
        args.get("ledger"),
        Dataset::new(rows)?,
        eps_total,
        seed,
        None,
    )?;
    let answer = runtime.sql(&stmt.to_string(), &options)?;

    let mut out = String::new();
    let _ = writeln!(out, "statement   : {statement}");
    let _ = writeln!(out, "epsilon     : {:.6}", answer.epsilon_spent);
    let _ = writeln!(out, "columns     : {}", answer.columns.join(" | "));
    for row in &answer.rows {
        let cells: Vec<String> = row
            .group
            .iter()
            .map(|g| format!("{g}"))
            .chain(row.values.iter().map(|v| format!("{v:.4}")))
            .collect();
        let _ = writeln!(out, "row         : {}", cells.join(" | "));
    }
    let _ = writeln!(
        out,
        "suppressed  : {} group(s) below the min-count gate ({})",
        answer.suppressed_groups, options.min_count
    );
    out.push_str(&ledger_line(args.get("ledger"), &runtime)?);
    Ok(out)
}

/// One-line rendering of the answer-cache counters.
fn render_cache_stats(stats: &gupt_core::CacheStats) -> String {
    format!(
        "{} hits / {} misses, ε saved {:.6}, {} evictions, {} recovered, {}/{} entries",
        stats.hits,
        stats.misses,
        stats.epsilon_saved,
        stats.evictions,
        stats.recovered_entries,
        stats.entries,
        stats.capacity
    )
}

/// Multi-analyst driver: races `--queries` identical queries from
/// `--analysts` threads through an admission-controlled [`QueryService`]
/// sharing one in-process budget ledger.
///
/// The final tallies demonstrate the concurrency contract from the shell:
/// however the threads interleave, successes × ε-each never exceeds the
/// lifetime budget, refusals are typed (budget vs. overload vs.
/// deadline), and the remaining balance accounts exactly for the winners.
fn serve(args: &Args) -> Result<String, CliError> {
    let rows = read_data(args)?;

    let spec_str = args.require("program")?;
    let resolved = programs::resolve(spec_str)?;
    let (lo, hi) = args
        .range("range")?
        .ok_or("--range LO,HI is required (non-sensitive output bounds)")?;
    let output_ranges = vec![OutputRange::new(lo, hi)?; resolved.output_dim];

    let budget: f64 = args.require_parsed("budget", "positive number")?;
    let queries: usize = args.require_parsed("queries", "integer")?;
    let eps_each: f64 = args.require_parsed("epsilon-each", "positive number")?;
    let analysts: usize = args
        .get_parsed("analysts", "integer")?
        .unwrap_or(4)
        .clamp(1, 64);
    let max_in_flight: usize = args.get_parsed("max-in-flight", "integer")?.unwrap_or(8);
    let max_queued: usize = args.get_parsed("max-queued", "integer")?.unwrap_or(64);
    let deadline_ms: Option<u64> = args.get_parsed("deadline-ms", "integer")?;
    let seed: u64 = args.get_parsed("seed", "integer")?.unwrap_or(0);
    let threads: Option<usize> = args.get_parsed("threads", "integer")?;
    let state_dir = args.get("state-dir");
    // Off by default: the serve driver exists to demonstrate budget
    // contention, and a warm cache makes every repeat free.
    let cache_capacity: usize = args.get_parsed("cache-capacity", "integer")?.unwrap_or(0);
    let show_cache_stats = matches!(args.get("cache-stats"), Some("yes" | "true" | "1"));

    let durability = match state_dir {
        None => Durability::Ephemeral,
        Some(dir) => Durability::Durable(storage_config(args, dir)?),
    };
    let registration = Dataset::new(rows)?
        .builder()
        .budget(Epsilon::new(budget)?)
        .durability(durability);
    let runtime = match GuptRuntimeBuilder::new().dataset("data", registration) {
        Ok(builder) => {
            let mut builder = builder.seed(seed).cache_capacity(cache_capacity);
            if let Some(t) = threads {
                builder = builder.execution(threads_policy(t));
            }
            builder.build()
        }
        Err(err) => return Err(render_runtime_error(err)),
    };
    let recovered = runtime.recovery_info("data")?.cloned();
    let mut config = ServiceConfig::new(max_in_flight, max_queued);
    if let Some(ms) = deadline_ms {
        config = config.default_deadline(std::time::Duration::from_millis(ms));
    }
    let service = QueryService::new(runtime, config);

    // The program string names the query, so with --cache-capacity > 0
    // the N identical asks fingerprint to one cache entry: the first
    // execution pays ε, every repeat replays the released answer free.
    let spec = QuerySpec::builder()
        .program(resolved.program)
        .identity(spec_str, 1)
        .epsilon(Epsilon::new(eps_each)?)
        .range_estimation(RangeEstimation::Tight(output_ranges))
        .build()?;

    let next = std::sync::atomic::AtomicUsize::new(0);
    let (mut ok, mut budget_refused, mut overloaded, mut deadline_expired) = (0, 0, 0, 0);
    let results: Vec<Result<(), GuptError>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..analysts)
            .map(|_| {
                let service = service.clone();
                let spec = &spec;
                let next = &next;
                s.spawn(move || {
                    let mut mine = Vec::new();
                    while next.fetch_add(1, std::sync::atomic::Ordering::Relaxed) < queries {
                        mine.push(service.run("data", spec.clone()).map(drop));
                    }
                    mine
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("analyst thread panicked"))
            .collect()
    });
    for r in results {
        match r {
            Ok(()) => ok += 1,
            Err(GuptError::Dp(_)) => budget_refused += 1,
            Err(GuptError::Overloaded { .. }) => overloaded += 1,
            Err(GuptError::DeadlineExceeded { .. }) => deadline_expired += 1,
            Err(other) => return Err(render_runtime_error(other)),
        }
    }

    let stats = service.stats();
    let remaining = service.runtime().remaining_budget("data")?;
    let ledger_state = service.runtime().ledger_state("data")?;
    let storage_stats = service.runtime().storage_stats("data")?;
    let mut out = String::new();
    let _ = writeln!(out, "served {queries} queries from {analysts} analysts");
    if let Some(recovered) = &recovered {
        let _ = writeln!(
            out,
            "recovered   : ε = {:.6} over {} queries ({} WAL records, {} torn bytes, {} µs replay)",
            recovered.spent,
            recovered.queries,
            recovered.wal_records,
            recovered.truncated_bytes,
            recovered.replay.as_micros()
        );
    }
    let _ = writeln!(
        out,
        "admission   : {} in flight max, {} queued max{}",
        max_in_flight,
        max_queued,
        match deadline_ms {
            Some(ms) => format!(", {ms} ms deadline"),
            None => String::new(),
        }
    );
    let _ = writeln!(out, "succeeded   : {ok} × ε = {eps_each}");
    let _ = writeln!(out, "budget-refused : {budget_refused}");
    let _ = writeln!(out, "overloaded     : {overloaded}");
    let _ = writeln!(out, "deadline       : {deadline_expired}");
    let _ = writeln!(
        out,
        "ledger      : ε = {remaining:.6} of {budget} remaining ({} admitted)",
        stats.admitted
    );
    if show_cache_stats {
        let _ = writeln!(
            out,
            "cache       : {}",
            render_cache_stats(&service.cache_stats())
        );
    }
    if ledger_state.durable {
        let _ = writeln!(
            out,
            "durable     : ε = {:.6} spent over {} queries (persisted in {})",
            ledger_state.spent,
            ledger_state.queries,
            state_dir.unwrap_or("?"),
        );
        if let Some(s) = storage_stats {
            let _ = writeln!(
                out,
                "storage     : {} WAL records, {} fsyncs, {} rotations, {} compactions{}",
                s.records_written,
                s.fsyncs,
                s.rotations,
                s.compactions,
                if s.poisoned {
                    "  ⚠ store poisoned"
                } else {
                    ""
                }
            );
        }
    }
    Ok(out)
}

/// Parses `--principals alice=2.0,bob=1.5` into name/quota pairs.
fn parse_principals(raw: Option<&str>) -> Result<Vec<(String, f64)>, CliError> {
    let Some(raw) = raw else {
        return Ok(Vec::new());
    };
    raw.split(',')
        .map(|entry| {
            let (name, quota) = entry
                .split_once('=')
                .ok_or_else(|| format!("--principals entry {entry:?}: expected NAME=EPS"))?;
            let quota: f64 = quota
                .trim()
                .parse()
                .map_err(|_| format!("--principals entry {entry:?}: quota must be a number"))?;
            Ok((name.trim().to_string(), quota))
        })
        .collect()
}

/// The network server: binds `--bind ADDR` and speaks the gupt-serve
/// wire protocol until a `shutdown` request arrives, then prints a
/// summary of what it served.
fn serve_bind(args: &Args) -> Result<String, CliError> {
    use gupt_core::ExhaustedPolicy;
    use gupt_serve::{GuptServer, ServeConfig};

    let bind = args.require("bind")?;
    let rows = read_data(args)?;
    let dataset_name = args.get("dataset").unwrap_or("data").to_string();
    let budget: f64 = args.require_parsed("budget", "positive number")?;
    let max_in_flight: usize = args.get_parsed("max-in-flight", "integer")?.unwrap_or(8);
    let max_queued: usize = args.get_parsed("max-queued", "integer")?.unwrap_or(64);
    let deadline_ms: Option<u64> = args.get_parsed("deadline-ms", "integer")?;
    let workers: usize = args
        .get_parsed("workers", "integer")?
        .unwrap_or(8)
        .clamp(1, 64);
    let seed: u64 = args.get_parsed("seed", "integer")?.unwrap_or(0);
    // `--workers` sizes the protocol thread pool; `--threads` sizes the
    // chamber pool each accepted query executes on.
    let threads: Option<usize> = args.get_parsed("threads", "integer")?;
    let cache_capacity: usize = args.get_parsed("cache-capacity", "integer")?.unwrap_or(0);
    let principals = parse_principals(args.get("principals"))?;
    let policy = match args.get("exhausted-policy") {
        None | Some("hard_stop") => ExhaustedPolicy::HardStop,
        Some("pause_approval") => ExhaustedPolicy::PauseApproval,
        Some(other) => {
            return Err(format!(
                "--exhausted-policy takes hard_stop or pause_approval, not {other:?}"
            )
            .into())
        }
    };
    let state_dir = args.get("state-dir");
    let durability = match state_dir {
        None => Durability::Ephemeral,
        Some(dir) => Durability::Durable(storage_config(args, dir)?),
    };

    let mut registration = Dataset::new(rows)?
        .builder()
        .budget(Epsilon::new(budget)?)
        .durability(durability)
        .exhausted_policy(policy);
    for (name, quota) in &principals {
        registration = registration.principal(name.clone(), *quota);
    }
    let runtime = match GuptRuntimeBuilder::new().dataset(dataset_name.clone(), registration) {
        Ok(builder) => {
            let mut builder = builder.seed(seed).cache_capacity(cache_capacity);
            if let Some(t) = threads {
                builder = builder.execution(threads_policy(t));
            }
            builder.build()
        }
        Err(err) => return Err(render_runtime_error(err)),
    };
    let mut config = ServiceConfig::new(max_in_flight, max_queued);
    if let Some(ms) = deadline_ms {
        config = config.default_deadline(std::time::Duration::from_millis(ms));
    }
    let service = QueryService::new(runtime, config);
    let observer = service.clone();
    let handle = GuptServer::bind(service, bind, ServeConfig::new(workers))
        .map_err(|e| format!("cannot bind {bind}: {e}"))?;

    // Announce the bound address immediately (and flushed, since stdout
    // is block-buffered under a pipe) so wrappers can discover the real
    // port behind `--bind 127.0.0.1:0`.
    {
        use std::io::Write as _;
        let mut stdout = std::io::stdout();
        writeln!(stdout, "listening on {}", handle.addr())?;
        stdout.flush()?;
    }

    while !handle.shutdown_requested() {
        std::thread::sleep(std::time::Duration::from_millis(25));
    }
    let serve = handle.serve_telemetry();
    handle.shutdown();

    let ledger = observer.runtime().ledger_state(&dataset_name)?;
    let states = observer.runtime().principal_states(&dataset_name)?;
    let mut out = String::new();
    let _ = writeln!(out, "server stopped");
    let _ = writeln!(
        out,
        "requests    : {} accepted, {} refused (p50 {:.3} ms, p99 {:.3} ms)",
        serve.accepted, serve.refused, serve.p50_ms, serve.p99_ms
    );
    let _ = writeln!(
        out,
        "ledger      : ε = {:.6} spent of {:.6} over {} queries",
        ledger.spent, ledger.total, ledger.queries
    );
    if let Some(s) = observer.runtime().storage_stats(&dataset_name)? {
        let _ = writeln!(
            out,
            "storage     : {} WAL records, {} fsyncs, {} rotations, {} compactions{}",
            s.records_written,
            s.fsyncs,
            s.rotations,
            s.compactions,
            if s.poisoned {
                "  ⚠ store poisoned"
            } else {
                ""
            }
        );
    }
    for p in states {
        let _ = writeln!(
            out,
            "principal   : {} ε = {:.6} of {:.6} over {} queries{}",
            p.name,
            p.spent,
            p.quota,
            p.queries,
            if p.paused { " (paused)" } else { "" }
        );
    }
    Ok(out)
}

/// One-shot protocol client: builds the request from flags, prints the
/// raw response JSON.
fn client_cmd(args: &Args) -> Result<String, CliError> {
    use gupt_serve::{
        continue_payload, poll_payload, recover_payload, shutdown_payload, stats_payload,
        AppendPayload, QueryPayload, ServeClient, SqlPayload, SubscribePayload,
    };
    let addr = args.require("addr")?;
    let op = args.get("op").unwrap_or("query");
    let payload = match op {
        "query" => {
            let dataset = args.get("dataset").unwrap_or("data");
            let program = args.require("program")?;
            let range = args
                .range("range")?
                .ok_or("--range LO,HI is required for queries")?;
            let mut q = QueryPayload::new(dataset, program, &[range]);
            if let Some(eps) = args.get_parsed::<f64>("epsilon", "number")? {
                q = q.epsilon(eps);
            }
            if let Some(p) = args.get("principal") {
                q = q.principal(p);
            }
            if let Some(b) = args.get_parsed::<usize>("block-size", "integer")? {
                q = q.block_size(b);
            }
            if let Some(ms) = args.get_parsed::<u64>("deadline-ms", "integer")? {
                q = q.deadline_ms(ms);
            }
            q.to_json()
        }
        "append" => {
            let dataset = args.get("dataset").unwrap_or("data");
            let data_path = args.require("data")?;
            let has_header = matches!(args.get("header"), Some("yes" | "true" | "1"));
            let rows = csv::read_csv(data_path, has_header)?;
            if rows.is_empty() {
                return Err("append delta is empty".into());
            }
            let mut a = AppendPayload::new(dataset, &rows);
            if let Some(p) = args.get("principal") {
                a = a.principal(p);
            }
            a.to_json()
        }
        "subscribe" => {
            let dataset = args.get("dataset").unwrap_or("data");
            let program = args.require("program")?;
            let range = args
                .range("range")?
                .ok_or("--range LO,HI is required for subscriptions")?;
            let epsilon = args
                .get_parsed::<f64>("epsilon", "number")?
                .ok_or("--epsilon E (the per-window charge) is required for subscriptions")?;
            let size = args
                .get_parsed::<usize>("window-size", "integer")?
                .ok_or("--window-size N is required for subscriptions")?;
            let mut s = SubscribePayload::new(dataset, program, &[range], epsilon, size);
            if let Some(slide) = args.get_parsed::<usize>("window-slide", "integer")? {
                s = s.slide(slide);
            }
            match args.get("window-key") {
                None | Some("rows") => {}
                Some("arrivals") => s = s.arrivals(),
                Some(other) => {
                    return Err(format!("unknown --window-key {other:?} (rows|arrivals)").into())
                }
            }
            if let Some(p) = args.get("principal") {
                s = s.principal(p);
            }
            if let Some(b) = args.get_parsed::<usize>("block-size", "integer")? {
                s = s.block_size(b);
            }
            s.to_json()
        }
        "poll" => poll_payload(args.require_parsed::<u64>("subscription", "integer")?),
        "sql" => {
            let query = args
                .get("query")
                .ok_or("--query \"STATEMENT\" is required for --op sql")?;
            // Per-column bounds: `--ranges LO,HI;...` (indexed by
            // column) or one `--range LO,HI` for single-column data.
            let ranges: Vec<(f64, f64)> = match (args.get("ranges"), args.range("range")?) {
                (Some(_), Some(_)) => {
                    return Err("--ranges and --range are mutually exclusive".into())
                }
                (Some(raw), None) => parse_column_ranges(raw)?
                    .iter()
                    .map(|r| (r.lo(), r.hi()))
                    .collect(),
                (None, Some(pair)) => vec![pair],
                (None, None) => Vec::new(),
            };
            let mut s = SqlPayload::new(query, &ranges);
            if let Some(eps) = args.get_parsed::<f64>("epsilon", "number")? {
                s = s.epsilon(eps);
            }
            if let Some(p) = args.get("principal") {
                s = s.principal(p);
            }
            if let Some(mc) = args.get_parsed::<f64>("min-count", "number")? {
                s = s.min_count(mc);
            }
            if let Some(b) = args.get_parsed::<usize>("block-size", "integer")? {
                s = s.block_size(b);
            }
            s.to_json()
        }
        "stats" => stats_payload(args.get("dataset")),
        "recover" => recover_payload(args.get("dataset").unwrap_or("data")),
        "continue" => continue_payload(
            args.get("dataset").unwrap_or("data"),
            args.require("principal")?,
            args.get_parsed::<f64>("grant", "number")?,
        ),
        "shutdown" => shutdown_payload(),
        other => {
            return Err(format!(
                "unknown --op {other:?} \
                 (query|append|subscribe|poll|sql|stats|recover|continue|shutdown)"
            )
            .into())
        }
    };
    let mut client =
        ServeClient::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    let response = client.request_text(&payload)?;
    Ok(format!("{response}\n"))
}

/// Operator approval: unpauses a principal over the wire, optionally
/// raising its quota.
fn continue_cmd(args: &Args) -> Result<String, CliError> {
    use gupt_serve::{continue_payload, ServeClient};
    let addr = args.require("addr")?;
    let dataset = args.require("dataset")?;
    let principal = args.require("principal")?;
    let grant = args.get_parsed::<f64>("grant", "number")?;
    let mut client =
        ServeClient::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    let response = client.request(&continue_payload(dataset, principal, grant))?;
    let status = response
        .get("status")
        .and_then(gupt_serve::json::Value::as_str)
        .unwrap_or("?");
    if status != "ok" {
        let detail = response
            .get("error")
            .and_then(|e| e.get("message"))
            .and_then(gupt_serve::json::Value::as_str)
            .unwrap_or("unknown error");
        return Err(format!("continue refused ({status}): {detail}").into());
    }
    let state = response.get("principal").ok_or("malformed response")?;
    let field = |k: &str| state.get(k).and_then(gupt_serve::json::Value::as_number);
    Ok(format!(
        "principal {principal} resumed on {dataset}: quota ε = {}, spent ε = {}, remaining ε = {}\n",
        field("quota").unwrap_or(f64::NAN),
        field("spent").unwrap_or(f64::NAN),
        field("remaining").unwrap_or(f64::NAN),
    ))
}

/// Replays a durable dataset's snapshot + WAL and reports the books
/// without charging or serving anything.
fn recover_cmd(args: &Args) -> Result<String, CliError> {
    let dir = args.require("state-dir")?;
    let dataset = args.require("dataset")?;
    let config = StorageConfig::new(dir);
    let recovered = match storage::recover(dataset, &config) {
        Ok(r) => r,
        Err(err) => return Err(render_runtime_error(err)),
    };
    let mut out = String::new();
    let _ = writeln!(out, "recovered ledger for {dataset:?} from {dir}");
    let _ = writeln!(
        out,
        "  total     ε = {}",
        if recovered.had_snapshot {
            format!("{:.6}", recovered.total)
        } else {
            "unknown (no snapshot yet; totals live in the registration)".to_string()
        }
    );
    let _ = writeln!(out, "  spent     ε = {:.6}", recovered.spent);
    let _ = writeln!(out, "  queries     = {}", recovered.queries);
    let _ = writeln!(
        out,
        "  WAL         = {} records{}",
        recovered.wal_records,
        if recovered.truncated_bytes > 0 {
            format!(
                " ({} torn trailing bytes ignored — crashed mid-append)",
                recovered.truncated_bytes
            )
        } else {
            String::new()
        }
    );
    let _ = writeln!(
        out,
        "  snapshot    = {}",
        if recovered.had_snapshot { "yes" } else { "no" }
    );
    let _ = writeln!(out, "  replay      = {} µs", recovered.replay.as_micros());
    Ok(out)
}

/// Builds the durable-store config for `dir` from the storage tuning
/// flags (`--fsync`, `--segment-bytes`, `--compaction-threshold`).
fn storage_config(args: &Args, dir: &str) -> Result<StorageConfig, CliError> {
    let mut config = StorageConfig::new(dir);
    if let Some(mode) = args.get("fsync") {
        config = config.fsync(parse_fsync(mode)?);
    }
    if let Some(bytes) = args.get_parsed::<u64>("segment-bytes", "integer")? {
        config = config.segment_bytes(bytes);
    }
    if let Some(records) = args.get_parsed::<u64>("compaction-threshold", "integer")? {
        config = config.compaction_threshold(records);
    }
    Ok(config)
}

/// Parses `--fsync always|never|N` into a [`FsyncPolicy`].
fn parse_fsync(mode: &str) -> Result<FsyncPolicy, CliError> {
    match mode {
        "always" => Ok(FsyncPolicy::Always),
        "never" => Ok(FsyncPolicy::Never),
        n => match n.parse::<u32>() {
            Ok(every) if every > 0 => Ok(FsyncPolicy::EveryN(every)),
            _ => Err(
                format!("--fsync takes always, never or a positive integer, not {mode:?}").into(),
            ),
        },
    }
}

/// Renders a runtime error for the operator, matching on the typed
/// variants so storage trouble comes with actionable guidance instead
/// of a bare Display string.
fn render_runtime_error(err: GuptError) -> CliError {
    match err {
        GuptError::Storage { source, path } if source.kind() == std::io::ErrorKind::WouldBlock => {
            format!(
                "another process holds the ledger (lock file {}); no charge was granted — \
                 retry once that process exits",
                path.display()
            )
            .into()
        }
        GuptError::Storage { source, path } => format!(
            "ledger storage failure at {}: {source}\n\
             no charge was granted; fix the disk (permissions, space, mount) and retry — \
             the on-disk ledger never under-reports spent budget",
            path.display()
        )
        .into(),
        GuptError::Corrupt { path, detail } => format!(
            "corrupt ledger state at {}: {detail}\n\
             refusing to serve against books that cannot be trusted; restore the state \
             directory from backup or move it aside to start a fresh ledger",
            path.display()
        )
        .into(),
        other => Box::new(other),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(line: &str) -> Result<String, CliError> {
        let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
        dispatch(&argv)
    }

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("gupt_cli_cmd_tests");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join(name);
        let _ = std::fs::remove_file(&p);
        let _ = std::fs::remove_dir_all(&p);
        p.to_string_lossy().into_owned()
    }

    #[test]
    fn help_and_empty() {
        assert!(run("help").unwrap().contains("USAGE"));
        assert!(dispatch(&[]).unwrap().contains("USAGE"));
    }

    #[test]
    fn unknown_command() {
        assert!(run("frobnicate").is_err());
    }

    #[test]
    fn generate_census_and_query_roundtrip() {
        let csv_path = tmp("roundtrip.csv");
        let out = run(&format!(
            "generate census --rows 3000 --seed 5 --out {csv_path}"
        ))
        .unwrap();
        assert!(out.contains("3000 rows"), "{out}");

        let result = run(&format!(
            "query --data {csv_path} --program mean:0 --epsilon 2.0 --range 0,150 \
             --seed 9 --header yes"
        ))
        .unwrap();
        assert!(
            result.contains("program     : mean:0 (mean of column 0)"),
            "{result}"
        );
        // Parse the answer out and sanity-check it.
        let answer_line = result
            .lines()
            .find(|l| l.starts_with("answer"))
            .expect("answer line");
        let value: f64 = answer_line
            .split(['[', ']'])
            .nth(1)
            .expect("bracketed value")
            .parse()
            .expect("numeric answer");
        assert!((value - 38.58).abs() < 8.0, "answer = {value}");
    }

    #[test]
    fn ledger_lifecycle_via_cli() {
        let csv_path = tmp("ledger_data.csv");
        let ledger_path = tmp("lifecycle.ledger");
        run(&format!("generate ads --rows 1000 --out {csv_path}")).unwrap();
        run(&format!("ledger init --ledger {ledger_path} --budget 1.0")).unwrap();

        let q = format!(
            "query --data {csv_path} --ledger {ledger_path} --program median:0 \
             --epsilon 0.6 --range 0,15 --seed 4 --header yes"
        );
        assert!(run(&q).unwrap().contains("remaining ε = 0.4"));
        // Second identical query exceeds the ledger.
        let err = run(&q).unwrap_err().to_string();
        assert!(err.contains("exhausted"), "{err}");

        let show = run(&format!("ledger show --ledger {ledger_path}")).unwrap();
        assert!(show.contains("queries     = 1"), "{show}");
    }

    #[test]
    fn ledger_init_refuses_overwrite() {
        let ledger_path = tmp("no_overwrite.ledger");
        run(&format!("ledger init --ledger {ledger_path} --budget 2")).unwrap();
        assert!(run(&format!("ledger init --ledger {ledger_path} --budget 9")).is_err());
    }

    #[test]
    fn histogram_query_prints_buckets() {
        let csv_path = tmp("hist.csv");
        run(&format!("generate ads --rows 2000 --out {csv_path}")).unwrap();
        let out = run(&format!(
            "query --data {csv_path} --program histogram:0:5 --epsilon 5 \
             --range 0,10 --seed 3 --header yes"
        ))
        .unwrap();
        assert!(out.contains("bucket fractions"), "{out}");
        assert!(out.matches("[").count() >= 5, "{out}");
    }

    #[test]
    fn accuracy_goal_requires_aged_fraction() {
        let csv_path = tmp("goal.csv");
        run(&format!("generate census --rows 3000 --out {csv_path}")).unwrap();
        let err = run(&format!(
            "query --data {csv_path} --program mean:0 --accuracy 0.9 \
             --confidence 0.9 --range 0,150 --header yes"
        ))
        .unwrap_err()
        .to_string();
        assert!(err.contains("aged-fraction"), "{err}");
    }

    #[test]
    fn accuracy_goal_end_to_end() {
        let csv_path = tmp("goal_ok.csv");
        run(&format!(
            "generate census --rows 8000 --seed 2 --out {csv_path}"
        ))
        .unwrap();
        let out = run(&format!(
            "query --data {csv_path} --program mean:0 --accuracy 0.9 \
             --confidence 0.9 --aged-fraction 0.1 --block-size 50 \
             --range 0,150 --seed 6 --header yes"
        ))
        .unwrap();
        assert!(out.contains("epsilon"), "{out}");
        // The derived ε must be positive and well below a naive 1.0.
        let eps_line = out.lines().find(|l| l.starts_with("epsilon")).unwrap();
        let eps: f64 = eps_line.split(':').nth(1).unwrap().trim().parse().unwrap();
        assert!(eps > 0.0 && eps < 1.0, "derived ε = {eps}");
    }

    #[test]
    fn median_aggregator_and_loose_mode() {
        let csv_path = tmp("agg.csv");
        run(&format!(
            "generate ads --rows 2000 --seed 4 --out {csv_path}"
        ))
        .unwrap();
        let out = run(&format!(
            "query --data {csv_path} --program mean:0 --epsilon 6 --range 0,15              --range-mode loose --aggregator median --seed 2 --header yes"
        ))
        .unwrap();
        let answer_line = out.lines().find(|l| l.starts_with("answer")).unwrap();
        let value: f64 = answer_line
            .split(['[', ']'])
            .nth(1)
            .unwrap()
            .parse()
            .unwrap();
        assert!((0.0..=15.0).contains(&value), "{out}");
        assert!(run(&format!(
            "query --data {csv_path} --program mean:0 --epsilon 1 --range 0,15              --aggregator bogus --header yes"
        ))
        .is_err());
        assert!(run(&format!(
            "query --data {csv_path} --program mean:0 --epsilon 1 --range 0,15              --range-mode bogus --header yes"
        ))
        .is_err());
    }

    #[test]
    fn group_column_flag() {
        // Two-column data: [user_id, value] via life-sciences won't fit;
        // use a handwritten CSV.
        let csv_path = tmp("groups.csv");
        let mut text = String::from("user,value\n");
        for user in 0..50 {
            for visit in 0..4 {
                text.push_str(&format!("{user},{}\n", 10 + visit));
            }
        }
        std::fs::write(&csv_path, text).unwrap();
        let out = run(&format!(
            "query --data {csv_path} --program mean:1 --epsilon 5 --range 0,20              --group-column 0 --block-size 20 --seed 3 --header yes"
        ))
        .unwrap();
        assert!(out.contains("program"), "{out}");
        // Out-of-range column rejected.
        assert!(run(&format!(
            "query --data {csv_path} --program mean:1 --epsilon 5 --range 0,20              --group-column 9 --header yes"
        ))
        .is_err());
    }

    #[test]
    fn query_reports_chamber_outcomes() {
        let csv_path = tmp("chambers.csv");
        run(&format!("generate ads --rows 500 --out {csv_path}")).unwrap();
        let out = run(&format!(
            "query --data {csv_path} --program mean:0 --epsilon 1 --range 0,15 \
             --seed 5 --header yes"
        ))
        .unwrap();
        let chambers = out
            .lines()
            .find(|l| l.starts_with("chambers"))
            .expect("chambers line");
        assert!(chambers.contains("0 timed out, 0 panicked"), "{chambers}");
        assert!(!chambers.contains('⚠'), "{chambers}");
    }

    #[test]
    fn bad_telemetry_mode_rejected() {
        let csv_path = tmp("badtel.csv");
        run(&format!("generate ads --rows 100 --out {csv_path}")).unwrap();
        let err = run(&format!(
            "query --data {csv_path} --program mean:0 --epsilon 1 --range 0,15 \
             --telemetry xml --header yes"
        ))
        .unwrap_err()
        .to_string();
        assert!(err.contains("telemetry mode"), "{err}");
    }

    #[test]
    fn mutually_exclusive_budget_flags() {
        let csv_path = tmp("both.csv");
        run(&format!("generate ads --rows 100 --out {csv_path}")).unwrap();
        let err = run(&format!(
            "query --data {csv_path} --program mean:0 --epsilon 1 --accuracy 0.9 \
             --confidence 0.9 --range 0,15 --header yes"
        ))
        .unwrap_err()
        .to_string();
        assert!(err.contains("mutually exclusive"), "{err}");
    }

    #[test]
    fn serve_races_analysts_and_respects_budget() {
        let csv_path = tmp("serve.csv");
        run(&format!(
            "generate census --rows 2000 --seed 8 --out {csv_path}"
        ))
        .unwrap();
        // 12 queries × ε 0.5 against a 2.0 budget: exactly 4 can win, no
        // matter how the 4 analyst threads interleave.
        let out = run(&format!(
            "serve --data {csv_path} --program mean:0 --range 0,150 --budget 2.0 \
             --queries 12 --epsilon-each 0.5 --analysts 4 --seed 1 --header yes"
        ))
        .unwrap();
        assert!(out.contains("succeeded   : 4"), "{out}");
        assert!(out.contains("budget-refused : 8"), "{out}");
        assert!(out.contains("overloaded     : 0"), "{out}");
        assert!(out.contains("ε = 0.000000 of 2 remaining"), "{out}");
    }

    #[test]
    fn serve_requires_budget_flags() {
        let csv_path = tmp("serve_missing.csv");
        run(&format!("generate ads --rows 200 --out {csv_path}")).unwrap();
        let err = run(&format!(
            "serve --data {csv_path} --program mean:0 --range 0,15 --budget 1.0 \
             --queries 4 --header yes"
        ))
        .unwrap_err()
        .to_string();
        assert!(err.contains("epsilon-each"), "{err}");
    }

    fn tmp_dir(name: &str) -> String {
        let dir = std::env::temp_dir().join("gupt_cli_cmd_tests").join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.to_string_lossy().into_owned()
    }

    #[test]
    fn serve_with_state_dir_persists_spend_across_invocations() {
        let csv_path = tmp("serve_durable.csv");
        let state = tmp_dir("serve_durable_state");
        run(&format!(
            "generate census --rows 2000 --seed 8 --out {csv_path}"
        ))
        .unwrap();
        // First run spends 4 × 0.5 = 2.0 of the 3.0 budget.
        let first = run(&format!(
            "serve --data {csv_path} --program mean:0 --range 0,150 --budget 3.0 \
             --queries 4 --epsilon-each 0.5 --analysts 2 --seed 1 --header yes \
             --state-dir {state} --fsync always"
        ))
        .unwrap();
        assert!(first.contains("succeeded   : 4"), "{first}");
        assert!(
            first.contains("durable     : ε = 2.000000 spent"),
            "{first}"
        );
        assert!(first.contains("WAL records"), "{first}");

        // Second run against the same state dir recovers the 2.0 spend,
        // so only 2 of its 4 queries fit in the remaining 1.0.
        let second = run(&format!(
            "serve --data {csv_path} --program mean:0 --range 0,150 --budget 3.0 \
             --queries 4 --epsilon-each 0.5 --analysts 2 --seed 2 --header yes \
             --state-dir {state}"
        ))
        .unwrap();
        assert!(
            second.contains("recovered   : ε = 2.000000 over 4 queries"),
            "{second}"
        );
        assert!(second.contains("succeeded   : 2"), "{second}");
        assert!(second.contains("budget-refused : 2"), "{second}");

        // `recover` reads the same books without spending anything.
        let report = run(&format!("recover --state-dir {state} --dataset data")).unwrap();
        assert!(report.contains("spent     ε = 3.000000"), "{report}");
        assert!(report.contains("queries     = 6"), "{report}");
    }

    #[test]
    fn serve_with_cache_replays_repeats_for_free() {
        let csv_path = tmp("serve_cache.csv");
        run(&format!(
            "generate census --rows 2000 --seed 8 --out {csv_path}"
        ))
        .unwrap();
        // 12 identical queries × ε 0.5 against a 2.0 budget: without the
        // cache only 4 fit; with it, the first ask pays and the other 11
        // replay the same released answer at zero ε.
        let out = run(&format!(
            "serve --data {csv_path} --program mean:0 --range 0,150 --budget 2.0 \
             --queries 12 --epsilon-each 0.5 --analysts 1 --seed 1 --header yes \
             --cache-capacity 16 --cache-stats yes"
        ))
        .unwrap();
        assert!(out.contains("succeeded   : 12"), "{out}");
        assert!(out.contains("budget-refused : 0"), "{out}");
        assert!(out.contains("ε = 1.500000 of 2 remaining"), "{out}");
        assert!(out.contains("11 hits / 1 misses"), "{out}");
        assert!(out.contains("ε saved 5.500000"), "{out}");
    }

    #[test]
    fn serve_restart_recovers_warm_cache_from_wal() {
        let csv_path = tmp("serve_cache_durable.csv");
        let state = tmp_dir("serve_cache_durable_state");
        run(&format!(
            "generate census --rows 2000 --seed 8 --out {csv_path}"
        ))
        .unwrap();
        // First process: one real execution (ε 0.5), one in-memory hit;
        // the cached answer is journaled into the WAL alongside the debit.
        let first = run(&format!(
            "serve --data {csv_path} --program mean:0 --range 0,150 --budget 3.0 \
             --queries 2 --epsilon-each 0.5 --analysts 1 --seed 1 --header yes \
             --state-dir {state} --fsync always --cache-capacity 16 --cache-stats yes"
        ))
        .unwrap();
        assert!(first.contains("succeeded   : 2"), "{first}");
        assert!(first.contains("1 hits / 1 misses"), "{first}");
        assert!(
            first.contains("durable     : ε = 0.500000 spent"),
            "{first}"
        );

        // Second process (fresh runtime, same state dir): the cache warms
        // from the WAL, so *every* query replays — the durable spend
        // stays exactly where the first process left it.
        let second = run(&format!(
            "serve --data {csv_path} --program mean:0 --range 0,150 --budget 3.0 \
             --queries 2 --epsilon-each 0.5 --analysts 1 --seed 2 --header yes \
             --state-dir {state} --cache-capacity 16 --cache-stats yes"
        ))
        .unwrap();
        assert!(second.contains("succeeded   : 2"), "{second}");
        assert!(second.contains("2 hits / 0 misses"), "{second}");
        assert!(second.contains("1 recovered"), "{second}");
        assert!(
            second.contains("durable     : ε = 0.500000 spent"),
            "{second}"
        );
    }

    #[test]
    fn client_subscribe_and_poll_drive_a_live_server() {
        use gupt_core::storage::Durability;
        use gupt_core::{
            Dataset, ExhaustedPolicy, GuptRuntimeBuilder, QueryService, ServiceConfig,
        };
        use gupt_serve::{GuptServer, ServeConfig};
        let rows: Vec<Vec<f64>> = (0..400).map(|i| vec![(i % 50) as f64]).collect();
        let registration = Dataset::new(rows)
            .unwrap()
            .builder()
            .budget(gupt_dp::Epsilon::new(5.0).unwrap())
            .durability(Durability::Ephemeral)
            .exhausted_policy(ExhaustedPolicy::HardStop);
        let runtime = GuptRuntimeBuilder::new()
            .dataset("t", registration)
            .unwrap()
            .seed(11)
            .build();
        let service = QueryService::new(runtime, ServiceConfig::new(4, 16));
        let server = GuptServer::bind(service, "127.0.0.1:0", ServeConfig::new(1)).unwrap();
        let addr = server.addr();

        let sub = run(&format!(
            "client --addr {addr} --op subscribe --dataset t --program mean:0 \
             --range 0,49 --epsilon 0.5 --window-size 200"
        ))
        .unwrap();
        assert!(sub.contains("\"subscription\""), "{sub}");
        assert!(sub.contains("\"id\":0"), "{sub}");

        // 400 rows / tumbling(200): two polls close windows, the third
        // finds the next window still open.
        let poll = format!("client --addr {addr} --op poll --subscription 0");
        let first = run(&poll).unwrap();
        assert!(first.contains("\"index\":0"), "{first}");
        assert!(first.contains("\"replayed\":false"), "{first}");
        let second = run(&poll).unwrap();
        assert!(second.contains("\"index\":1"), "{second}");
        let open = run(&poll).unwrap();
        assert!(open.contains("\"window\":null"), "{open}");

        // Both window debits are visible in the dataset ledger.
        let stats = run(&format!("client --addr {addr} --op stats --dataset t")).unwrap();
        assert!(stats.contains("\"windows_closed\":2"), "{stats}");
        assert!(stats.contains("\"spent\":1"), "{stats}");
        server.shutdown();
    }

    #[test]
    fn client_subscribe_flag_validation() {
        // Flag errors are caught before any connection is attempted.
        for (line, needle) in [
            (
                "client --addr 127.0.0.1:1 --op subscribe --dataset t \
                 --program mean:0 --range 0,49 --epsilon 0.5",
                "--window-size",
            ),
            (
                "client --addr 127.0.0.1:1 --op subscribe --dataset t \
                 --program mean:0 --range 0,49 --window-size 10",
                "--epsilon",
            ),
            (
                "client --addr 127.0.0.1:1 --op subscribe --dataset t \
                 --program mean:0 --range 0,49 --epsilon 0.5 --window-size 10 \
                 --window-key days",
                "--window-key",
            ),
            ("client --addr 127.0.0.1:1 --op poll", "--subscription"),
        ] {
            let err = run(line).unwrap_err().to_string();
            assert!(err.contains(needle), "{line}: {err}");
        }
    }

    #[test]
    fn query_cache_stats_flag_prints_counters() {
        let csv_path = tmp("query_cache_stats.csv");
        run(&format!("generate ads --rows 500 --out {csv_path}")).unwrap();
        let out = run(&format!(
            "query --data {csv_path} --program mean:0 --epsilon 1 --range 0,15 \
             --seed 5 --header yes --cache-stats yes"
        ))
        .unwrap();
        // Ephemeral runtime: the single fingerprinted query is a miss
        // that populates one entry.
        assert!(out.contains("cache       : 0 hits / 1 misses"), "{out}");
        assert!(out.contains("1/256 entries"), "{out}");
    }

    #[test]
    fn recover_on_missing_state_reports_empty_books() {
        let state = tmp_dir("recover_fresh_state");
        let out = run(&format!("recover --state-dir {state} --dataset data")).unwrap();
        assert!(out.contains("spent     ε = 0.000000"), "{out}");
        assert!(out.contains("snapshot    = no"), "{out}");
    }

    #[test]
    fn recover_requires_flags() {
        assert!(run("recover --dataset data").is_err());
        assert!(run("recover --state-dir /tmp/x").is_err());
    }

    #[test]
    fn bad_fsync_mode_rejected() {
        let csv_path = tmp("badfsync.csv");
        let state = tmp_dir("badfsync_state");
        run(&format!("generate ads --rows 200 --out {csv_path}")).unwrap();
        let err = run(&format!(
            "serve --data {csv_path} --program mean:0 --range 0,15 --budget 1.0 \
             --queries 1 --epsilon-each 0.5 --header yes \
             --state-dir {state} --fsync sometimes"
        ))
        .unwrap_err()
        .to_string();
        assert!(err.contains("--fsync"), "{err}");
    }

    #[test]
    fn corrupt_snapshot_renders_operator_guidance() {
        let state = tmp_dir("corrupt_snapshot_state");
        std::fs::write(
            std::path::Path::new(&state).join("data.snap"),
            b"GUPTSNP1 this is not a valid snapshot at all",
        )
        .unwrap();
        let err = run(&format!("recover --state-dir {state} --dataset data"))
            .unwrap_err()
            .to_string();
        assert!(err.contains("corrupt ledger state"), "{err}");
        assert!(err.contains("backup"), "{err}");
    }

    /// Dispatch with explicit argv parts — SQL statements contain
    /// spaces, so the whitespace-splitting `run` helper can't carry
    /// them.
    fn run_argv(parts: &[&str]) -> Result<String, CliError> {
        let argv: Vec<String> = parts.iter().map(|s| s.to_string()).collect();
        dispatch(&argv)
    }

    #[test]
    fn sql_query_local_roundtrip() {
        let csv_path = tmp("sql_local.csv");
        run(&format!(
            "generate census --rows 3000 --seed 5 --out {csv_path}"
        ))
        .unwrap();
        let out = run_argv(&[
            "query",
            "--data",
            &csv_path,
            "--sql",
            "SELECT AVG(c0) FROM ages WITH EPSILON 2",
            "--range",
            "0,150",
            "--seed",
            "9",
            "--header",
            "yes",
        ])
        .unwrap();
        assert!(out.contains("columns     : AVG(c0)"), "{out}");
        assert!(out.contains("epsilon     : 2.000000"), "{out}");
        let row_line = out
            .lines()
            .find(|l| l.starts_with("row"))
            .expect("row line");
        let value: f64 = row_line.split(':').nth(1).unwrap().trim().parse().unwrap();
        assert!((value - 38.58).abs() < 10.0, "answer = {value}");
    }

    #[test]
    fn sql_query_group_by_suppresses_rare_groups() {
        // 800 rows of group 0, one row of group 1: with min-count 300
        // the rare group must never be released.
        let csv_path = tmp("sql_groups.csv");
        let mut text = String::from("value,grp\n");
        for i in 0..800 {
            text.push_str(&format!("{},0\n", i % 40));
        }
        text.push_str("39,1\n");
        std::fs::write(&csv_path, text).unwrap();
        let out = run_argv(&[
            "query",
            "--data",
            &csv_path,
            "--sql",
            "SELECT COUNT(*) FROM t GROUP BY c1 WITH EPSILON 4",
            "--min-count",
            "300",
            "--seed",
            "3",
            "--header",
            "yes",
        ])
        .unwrap();
        assert!(out.contains("columns     : c1 | COUNT(*)"), "{out}");
        assert!(
            out.contains("suppressed  : 1 group(s) below the min-count gate (300)"),
            "{out}"
        );
        let rows: Vec<&str> = out.lines().filter(|l| l.starts_with("row")).collect();
        assert_eq!(rows.len(), 1, "{out}");
        assert!(rows[0].contains(": 0 |"), "{out}");
    }

    #[test]
    fn sql_query_parse_error_carries_position() {
        let csv_path = tmp("sql_parse_err.csv");
        run(&format!("generate ads --rows 100 --out {csv_path}")).unwrap();
        let err = run_argv(&[
            "query",
            "--data",
            &csv_path,
            "--sql",
            "SELECT COUNT(*) FRUM t",
            "--header",
            "yes",
        ])
        .unwrap_err()
        .to_string();
        assert!(err.contains("parse error at line 1, column 17"), "{err}");
    }

    #[test]
    fn sql_query_with_ledger_charges_statement_budget() {
        let csv_path = tmp("sql_ledger.csv");
        let ledger_path = tmp("sql_ledger.ledger");
        run(&format!("generate ads --rows 1000 --out {csv_path}")).unwrap();
        run(&format!("ledger init --ledger {ledger_path} --budget 1.0")).unwrap();
        let argv = [
            "query",
            "--data",
            &csv_path,
            "--sql",
            "SELECT MEDIAN(c0) FROM ads WITH EPSILON 0.6",
            "--range",
            "0,15",
            "--ledger",
            &ledger_path,
            "--seed",
            "4",
            "--header",
            "yes",
        ];
        let out = run_argv(&argv).unwrap();
        assert!(out.contains("remaining ε = 0.4"), "{out}");
        // A second identical statement overruns the ledger, fail closed.
        let err = run_argv(&argv).unwrap_err().to_string();
        assert!(err.contains("exhausted"), "{err}");
    }

    #[test]
    fn sql_query_flag_validation() {
        let csv_path = tmp("sql_flags.csv");
        run(&format!("generate ads --rows 100 --out {csv_path}")).unwrap();
        let err = run_argv(&[
            "query",
            "--data",
            &csv_path,
            "--sql",
            "SELECT AVG(c0) FROM t",
            "--range",
            "0,15",
            "--ranges",
            "0,15",
            "--header",
            "yes",
        ])
        .unwrap_err()
        .to_string();
        assert!(err.contains("mutually exclusive"), "{err}");
        let err = run_argv(&[
            "query",
            "--data",
            &csv_path,
            "--sql",
            "SELECT AVG(c0) FROM t",
            "--ranges",
            "0;15",
            "--header",
            "yes",
        ])
        .unwrap_err()
        .to_string();
        assert!(err.contains("expected LO,HI"), "{err}");
    }

    #[test]
    fn client_sql_drives_a_live_server() {
        use gupt_core::storage::Durability;
        use gupt_core::{
            Dataset, ExhaustedPolicy, GuptRuntimeBuilder, QueryService, ServiceConfig,
        };
        use gupt_serve::{GuptServer, ServeConfig};
        let rows: Vec<Vec<f64>> = (0..600).map(|i| vec![(i % 50) as f64]).collect();
        let registration = Dataset::new(rows)
            .unwrap()
            .builder()
            .budget(gupt_dp::Epsilon::new(10.0).unwrap())
            .durability(Durability::Ephemeral)
            .exhausted_policy(ExhaustedPolicy::HardStop);
        let runtime = GuptRuntimeBuilder::new()
            .dataset("t", registration)
            .unwrap()
            .seed(11)
            .build();
        let service = QueryService::new(runtime, ServiceConfig::new(4, 16));
        let server = GuptServer::bind(service, "127.0.0.1:0", ServeConfig::new(1)).unwrap();
        let addr = server.addr().to_string();

        let out = run_argv(&[
            "client",
            "--addr",
            &addr,
            "--op",
            "sql",
            "--query",
            "SELECT AVG(c0) FROM t WITH EPSILON 2",
            "--range",
            "0,49",
        ])
        .unwrap();
        assert!(out.contains("\"status\":\"ok\""), "{out}");
        assert!(out.contains("\"columns\":[\"AVG(c0)\"]"), "{out}");
        assert!(out.contains("\"epsilon_spent\":2"), "{out}");

        // A parse failure comes back as the 422 taxonomy over the wire.
        let bad = run_argv(&[
            "client",
            "--addr",
            &addr,
            "--op",
            "sql",
            "--query",
            "SELECT nope FROM t",
        ])
        .unwrap();
        assert!(bad.contains("\"status\":\"parse_error\""), "{bad}");
        assert!(bad.contains("\"line\":1"), "{bad}");
        server.shutdown();
    }

    #[test]
    fn client_sql_requires_query_flag() {
        let err = run("client --addr 127.0.0.1:1 --op sql")
            .unwrap_err()
            .to_string();
        assert!(err.contains("--query"), "{err}");
    }

    #[test]
    fn missing_range_is_explained() {
        let csv_path = tmp("norange.csv");
        run(&format!("generate ads --rows 100 --out {csv_path}")).unwrap();
        let err = run(&format!(
            "query --data {csv_path} --program mean:0 --epsilon 1 --header yes"
        ))
        .unwrap_err()
        .to_string();
        assert!(err.contains("--range"), "{err}");
    }
}
