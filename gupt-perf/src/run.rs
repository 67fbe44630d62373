//! One benchmark run: timed wire rounds (`--trace 0`) or the traced
//! replay (`--trace 1`), the correctness gate, and the result line.

use crate::measure::{dir_bytes, median, peak_rss_mb, percentile, process_cpu, Histogram};
use crate::trace::{self, Counts, Tracer};
use crate::workload::{
    build_service, serve, wire_op, Direct, Inputs, Op, Workload, CLIENTS, COMPACTION_RECORDS,
    DATASET, FSYNC_EVERY, RUNTIME_SEED, SEGMENT_BYTES, WORKERS,
};
use crate::Args;
use gupt_core::{
    AnswerCache, CacheStats, FsyncPolicy, LedgerStore, QueryService, ServiceStats, StorageConfig,
    StorageStats, DEFAULT_CACHE_CAPACITY,
};
use gupt_serve::protocol::{json_f64, read_frame, write_frame};
use gupt_serve::ServeClient;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Rounds a timed run makes at least, so `setup_s` is a median.
const MIN_ROUNDS: usize = 3;
/// Ops of the single-client prefix checked for bit-identity.
const PREFIX_OPS: usize = 24;
/// Calls each storage or frame probe makes at most.
const MAX_PROBES: usize = 20_000;
/// ε of each scratch-store append in the storage probe.
const PROBE_EPSILON: f64 = 0.0625;

/// Where runs keep their state directories and result files.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Ledger, stream, cache, storage and admission counters at one instant.
#[derive(Debug, Clone, Copy)]
struct Snapshot {
    spent: f64,
    books: f64,
    windows_closed: u64,
    stream_epsilon: f64,
    cache: CacheStats,
    storage: StorageStats,
    service: ServiceStats,
}

fn snapshot(service: &QueryService) -> Result<Snapshot, String> {
    let runtime = service.runtime();
    let ledger = runtime.ledger_state(DATASET).map_err(|e| e.to_string())?;
    let books = runtime
        .principal_states(DATASET)
        .map_err(|e| e.to_string())?
        .iter()
        .map(|p| p.spent)
        .sum();
    let stream = runtime.stream_stats();
    Ok(Snapshot {
        spent: ledger.spent,
        books,
        windows_closed: stream.windows_closed,
        stream_epsilon: stream.epsilon_spent,
        cache: service.cache_stats(),
        storage: runtime
            .storage_stats(DATASET)
            .map_err(|e| e.to_string())?
            .unwrap_or_default(),
        service: service.stats(),
    })
}

/// One client's share of a timed phase.
#[derive(Default)]
struct ClientLog {
    latencies: Histogram,
    ops: u64,
    failed: u64,
    /// ε the ops answered `ok` were expected to debit.
    ok_epsilon: f64,
    windows: u64,
    violations: Vec<String>,
    responses: Vec<String>,
}

/// A timed wire round: set-up, then every client's ops.
struct Round {
    setup: Duration,
    wall: Duration,
    cpu: Duration,
    ops: u64,
    clients: Vec<ClientLog>,
    before: Snapshot,
    after: Snapshot,
    disk_bytes: u64,
}

fn wire_round(w: Workload, seed: u64, dir: &Path, record: bool) -> Result<Round, String> {
    let t0 = Instant::now();
    let mut inputs = Inputs::generate(w, seed);
    let service = build_service(std::mem::take(&mut inputs.rows), dir)?;
    let observer = service.clone();
    let server = serve(service)?;
    let mut clients = (0..CLIENTS)
        .map(|_| ServeClient::connect(server.addr()).map_err(|e| format!("connect: {e}")))
        .collect::<Result<Vec<_>, _>>()?;
    for op in &inputs.warm {
        wire_op(&mut clients[0], op, None)
            .map_err(|e| format!("{}: warm-up failed: {e}", w.name()))?;
    }
    let setup = t0.elapsed();

    let before = snapshot(&observer)?;
    let cpu0 = process_cpu();
    let start = Instant::now();
    let logs: Vec<ClientLog> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(&inputs.ops)
            .map(|(client, ops)| s.spawn(move || drive(client, ops, record)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall = start.elapsed();
    let cpu = process_cpu().saturating_sub(cpu0);
    let after = snapshot(&observer)?;
    let disk_bytes = dir_bytes(dir);
    drop(clients);
    server.shutdown();
    Ok(Round {
        setup,
        wall,
        cpu,
        ops: logs.iter().map(|l| l.ops).sum(),
        clients: logs,
        before,
        after,
        disk_bytes,
    })
}

/// The closed loop of one client: send an op, wait for its reply.
fn drive(client: &mut ServeClient, ops: &[Op], record: bool) -> ClientLog {
    let mut log = ClientLog::default();
    for op in ops {
        let sent = Instant::now();
        let reply = wire_op(client, op, record.then_some(&mut log.responses));
        log.latencies.record(sent.elapsed().as_nanos() as u64);
        log.ops += 1;
        match reply {
            Ok(reply) => {
                log.ok_epsilon += op.epsilon;
                log.windows += reply.windows;
                log.violations.extend(reply.violations);
            }
            Err(_) => log.failed += 1,
        }
    }
    log
}

/// The correctness gate over one round. Returns the broken checks.
fn check_round(w: Workload, r: &Round) -> Vec<String> {
    let mut broken: Vec<String> = r
        .clients
        .iter()
        .flat_map(|c| c.violations.clone())
        .collect();
    broken.truncate(3);
    let (b, a) = (&r.before, &r.after);
    if a.spent != a.books {
        broken.push(format!(
            "ledger ε {} != sum of principal books {} (must match exactly)",
            a.spent, a.books
        ));
    }
    let debit = a.spent - b.spent;
    let expected: f64 = r.clients.iter().map(|c| c.ok_epsilon).sum();
    match w {
        Workload::QueryHot if debit != 0.0 => broken.push(format!(
            "query_hot timed phase charged ε {debit} (every op is a cache hit: must be exactly 0)"
        )),
        Workload::StreamIngest => {
            let windows = a.windows_closed - b.windows_closed;
            let polled: u64 = r.clients.iter().map(|c| c.windows).sum();
            let stream = a.stream_epsilon - b.stream_epsilon;
            let each = debit / windows.max(1) as f64;
            if windows != polled || stream != debit || each * windows as f64 != debit {
                broken.push(format!(
                    "stream_ingest windows not debited exactly once: {windows} closed, {polled} \
                     polled, ledger ε {debit}, stream ε {stream}"
                ));
            }
        }
        Workload::QueryCold | Workload::SqlGrouped if debit != expected => broken.push(format!(
            "{} timed phase debited ε {debit}, but its answered ops asked for exactly {expected}",
            w.name()
        )),
        _ => {}
    }
    broken
}

/// Runs a single-client prefix of the workload over the wire and
/// directly against an identically seeded runtime; both must answer
/// bit for bit alike.
fn prefix_check(w: Workload, seed: u64, dir: &Path) -> Result<(), String> {
    let inputs = Inputs::generate(w, seed);
    let interleaved =
        (0..inputs.ops[0].len()).flat_map(|i| inputs.ops.iter().map(move |ops| &ops[i]));
    let prefix: Vec<&Op> = inputs
        .warm
        .iter()
        .chain(interleaved.take(PREFIX_OPS))
        .collect();

    let served = build_service(inputs.rows.clone(), &dir.join("wire"))?;
    let server = serve(served)?;
    let mut client = ServeClient::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
    let wire: Vec<Result<Vec<u64>, String>> = prefix
        .iter()
        .map(|op| wire_op(&mut client, op, None).map(|r| r.sig))
        .collect();
    drop(client);
    server.shutdown();

    let service = build_service(inputs.rows, &dir.join("direct"))?;
    let cache = AnswerCache::new(DEFAULT_CACHE_CAPACITY);
    let mut direct = Direct::new(&service, &cache, false);
    let mut tracer = Tracer::new(Instant::now(), 0);
    for (i, (op, over_wire)) in prefix.iter().zip(wire).enumerate() {
        let here = direct.op(op, &mut tracer).map(|r| r.sig);
        if here != over_wire {
            return Err(format!(
                "{}: op {i} of the single-client prefix answered differently over the wire \
                 than directly against an identically seeded runtime",
                w.name()
            ));
        }
    }
    Ok(())
}

/// A fresh state directory for one set-up.
fn state_dir(args: &Args, tag: &str) -> PathBuf {
    out_dir().join("state").join(format!(
        "{}-{}-{}-{tag}",
        args.workload.name(),
        args.seed,
        std::process::id()
    ))
}

fn remove(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
}

/// A metric value with its unit, in output order.
type Metrics = Vec<(&'static str, f64, &'static str)>;

pub fn main(args: Args) -> Result<bool, String> {
    std::fs::create_dir_all(out_dir().join("state")).map_err(|e| format!("out dir: {e}"))?;
    let (metrics, attempted, failed, mut broken, rounds) = if args.trace {
        traced(&args)?
    } else {
        timed(&args)?
    };
    let prefix_dir = state_dir(&args, "prefix");
    let prefix = prefix_check(args.workload, args.seed, &prefix_dir);
    remove(&prefix_dir);
    if let Err(e) = prefix {
        broken.push(e);
    }
    let correct = broken.is_empty();
    report(&args, &metrics, attempted, failed, rounds, correct)?;
    for b in &broken {
        eprintln!("CORRECTNESS FAIL: {b}");
    }
    Ok(correct)
}

type Outcome = (Metrics, u64, u64, Vec<String>, usize);

/// End-to-end run: rounds until `--seconds` are used, tracing off.
fn timed(args: &Args) -> Result<Outcome, String> {
    let w = args.workload;
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut longest = Duration::ZERO;
    let mut broken = Vec::new();
    // Each round is folded in and dropped, so the harness's memory does
    // not grow with the round count.
    let mut setups = Vec::new();
    let (mut ops, mut failed) = (0u64, 0u64);
    let (mut cpu, mut wall) = (Duration::ZERO, Duration::ZERO);
    let mut latencies = Histogram::new();
    let mut round_p50 = Vec::new();
    loop {
        let t = Instant::now();
        let dir = state_dir(args, &format!("round{}", setups.len()));
        let round = wire_round(w, args.seed, &dir, false);
        remove(&dir);
        let round = round?;
        broken.extend(check_round(w, &round));
        setups.push(round.setup.as_secs_f64());
        wall += round.wall;
        ops += round.ops;
        cpu += round.cpu;
        let mut this = Histogram::new();
        for c in &round.clients {
            failed += c.failed;
            this.merge(&c.latencies);
        }
        round_p50.push(this.quantile(0.5) / 1e6);
        latencies.merge(&this);
        longest = longest.max(t.elapsed());
        if setups.len() >= MIN_ROUNDS && start.elapsed() + longest > budget {
            break;
        }
    }
    println!(
        "latency samples : {} ({} rounds of {} ops)",
        latencies.len(),
        setups.len(),
        ops / setups.len() as u64
    );
    // Each round re-creates the server and client threads, and on two
    // cores a round's thread placement makes it fast or slow as a whole:
    // its latencies cluster around one of two modes. A pooled median
    // flips between the modes as their shares cross one half, so p50 is
    // the mean of the rounds' medians, and throughput pools every round.
    let throughput = ops as f64 / wall.as_secs_f64().max(1e-9);
    let p50_ms = round_p50.iter().sum::<f64>() / round_p50.len() as f64;
    // CPU time ticks in 10 ms steps, so it is pooled over the run too.
    let cpu_ms = cpu.as_secs_f64() * 1e3 / ops.max(1) as f64;
    let metrics = vec![
        ("setup_s", median(&setups), "s"),
        ("throughput_ops", throughput, "1/s"),
        ("latency_p50_ms", p50_ms, "ms"),
        ("latency_p99_ms", latencies.quantile(0.99) / 1e6, "ms"),
        ("cpu_ms_per_op", cpu_ms, "ms"),
        ("peak_rss_mb", peak_rss_mb(), "MB"),
    ];
    Ok((metrics, ops, failed, broken, setups.len()))
}

/// Per-layer run: a wire round (recording frames and counters), then
/// the same seeded stream replayed in-process with spans around every
/// call, then isolated probes. Repeats until `--seconds` are used; the
/// span file holds the first repetition.
fn traced(args: &Args) -> Result<Outcome, String> {
    let w = args.workload;
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut broken = Vec::new();
    let mut layers = Layers::default();
    let mut reps = 0;
    let mut longest = Duration::ZERO;
    while reps == 0 || start.elapsed() + longest <= budget {
        let t = Instant::now();
        let dir = state_dir(args, &format!("wire{reps}"));
        let round = wire_round(w, args.seed, &dir, true);
        remove(&dir);
        let round = round?;
        broken.extend(check_round(w, &round));

        let dir = state_dir(args, &format!("direct{reps}"));
        let replay = direct_round(w, args.seed, &dir);
        remove(&dir);
        let mut tracers = replay?;
        let probe_dir = state_dir(args, &format!("probe{reps}"));
        let mut probes = Tracer::new(Instant::now(), CLIENTS);
        let probed = storage_probe(&probe_dir, round.ops, &mut probes);
        remove(&probe_dir);
        probed?;
        frame_probe(&round, &mut probes)?;
        tracers.push(probes);
        if reps == 0 {
            let path = out_dir().join(format!("{}-seed{}.spans.jsonl", w.name(), args.seed));
            trace::write_spans(&path, &tracers).map_err(|e| format!("span file: {e}"))?;
        }
        layers.add(&round, tracers);
        reps += 1;
        longest = longest.max(t.elapsed());
    }
    let metrics = layers.metrics();
    let path = out_dir().join(format!("{}-seed{}.layers.json", w.name(), args.seed));
    std::fs::write(&path, layers.summary_json(&metrics)).map_err(|e| format!("summary: {e}"))?;
    println!(
        "span file       : {}",
        out_dir()
            .join(format!("{}-seed{}.spans.jsonl", w.name(), args.seed))
            .display()
    );
    println!("layer summary   : {}", path.display());
    Ok((metrics, layers.attempted, layers.failed, broken, reps))
}

/// The in-process replay: identical set-up, two threads running the
/// clients' op lists through [`Direct`], every op inside an `op` span.
fn direct_round(w: Workload, seed: u64, dir: &Path) -> Result<Vec<Tracer>, String> {
    let mut inputs = Inputs::generate(w, seed);
    let service = build_service(std::mem::take(&mut inputs.rows), dir)?;
    let cache = AnswerCache::new(DEFAULT_CACHE_CAPACITY);
    let origin = Instant::now();
    let mut warm = Direct::new(&service, &cache, true);
    let mut scratch = Tracer::new(origin, 0);
    for op in &inputs.warm {
        warm.op(op, &mut scratch)
            .map_err(|e| format!("{}: replay warm-up failed: {e}", w.name()))?;
        warm.run_probes(&mut scratch);
    }
    let subscriptions = warm.subscriptions;
    let tracers = std::thread::scope(|s| {
        let handles: Vec<_> = inputs
            .ops
            .iter()
            .enumerate()
            .map(|(c, ops)| {
                let (service, cache, subscriptions) = (&service, &cache, subscriptions.clone());
                s.spawn(move || {
                    let mut direct = Direct::new(service, cache, true);
                    direct.subscriptions = subscriptions;
                    let mut tr = Tracer::new(origin, c);
                    for (i, op) in ops.iter().enumerate() {
                        tr.request(((c as u64) << 32) | i as u64);
                        let span = tr.begin("op");
                        let ok = direct.op(op, &mut tr).is_ok();
                        tr.end_as(span, if ok { "op" } else { "op.failed" });
                        direct.run_probes(&mut tr);
                    }
                    tr
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay thread panicked"))
            .collect()
    });
    Ok(tracers)
}

/// Appends as many charges as the round made ops to a scratch ledger
/// store with the workloads' storage policy, timing each append.
fn storage_probe(dir: &Path, ops: u64, tr: &mut Tracer) -> Result<(), String> {
    let config = StorageConfig::new(dir)
        .fsync(FsyncPolicy::EveryN(FSYNC_EVERY))
        .segment_bytes(SEGMENT_BYTES)
        .compaction_threshold(COMPACTION_RECORDS);
    let (mut store, _) =
        LedgerStore::open("probe", &config).map_err(|e| format!("probe store: {e}"))?;
    for _ in 0..ops.min(MAX_PROBES as u64) {
        tr.probe("probe.storage.append", || {
            store.append_charge(PROBE_EPSILON)
        })
        .map_err(|e| format!("probe append: {e}"))?;
    }
    Ok(())
}

/// Writes and reads back each recorded response frame through memory.
fn frame_probe(round: &Round, tr: &mut Tracer) -> Result<(), String> {
    let responses = round
        .clients
        .iter()
        .flat_map(|c| &c.responses)
        .take(MAX_PROBES);
    let mut buf = Vec::new();
    for text in responses {
        buf.clear();
        let back = tr.probe("probe.wire.frame", || {
            write_frame(&mut buf, text).and_then(|_| read_frame(&mut buf.as_slice()))
        });
        if back.map_err(|e| e.to_string())?.as_deref() != Some(text.as_str()) {
            return Err("frame probe did not round-trip".to_string());
        }
    }
    Ok(())
}

/// Per-layer numbers gathered over the traced repetitions.
#[derive(Default)]
struct Layers {
    /// Self times by span name (probes: whole duration).
    self_ns: BTreeMap<&'static str, Vec<u64>>,
    counts: Counts,
    wire_latency: Histogram,
    op_ns: Vec<u64>,
    op_unattributed_ns: u64,
    wire_ops: u64,
    direct_ops: u64,
    attempted: u64,
    failed: u64,
    wire_failed: u64,
    response_bytes: u64,
    responses: u64,
    debit: f64,
    cache_hits: u64,
    cache_misses: u64,
    evictions: u64,
    rejected: u64,
    storage: StorageStats,
    disk_bytes: u64,
}

fn sub_storage(a: StorageStats, b: StorageStats) -> StorageStats {
    StorageStats {
        records_written: a.records_written - b.records_written,
        fsyncs: a.fsyncs - b.fsyncs,
        rotations: a.rotations - b.rotations,
        compactions: a.compactions - b.compactions,
        poisoned: a.poisoned,
    }
}

impl Layers {
    fn add(&mut self, round: &Round, tracers: Vec<Tracer>) {
        let (b, a) = (&round.before, &round.after);
        self.wire_ops += round.ops;
        self.attempted += round.ops;
        for c in &round.clients {
            self.wire_latency.merge(&c.latencies);
            self.wire_failed += c.failed;
            self.failed += c.failed;
            self.response_bytes += c.responses.iter().map(|r| r.len() as u64 + 4).sum::<u64>();
            self.responses += c.responses.len() as u64;
        }
        self.debit += a.spent - b.spent;
        self.cache_hits += a.cache.hits - b.cache.hits;
        self.cache_misses += a.cache.misses - b.cache.misses;
        self.evictions += a.cache.evictions - b.cache.evictions;
        self.rejected += (a.service.rejected_overloaded - b.service.rejected_overloaded)
            + (a.service.rejected_deadline - b.service.rejected_deadline);
        let s = sub_storage(a.storage, b.storage);
        self.storage.records_written += s.records_written;
        self.storage.fsyncs += s.fsyncs;
        self.storage.rotations += s.rotations;
        self.storage.compactions += s.compactions;
        self.disk_bytes += round.disk_bytes;

        for tr in tracers {
            let selfs = trace::self_times(&tr.spans);
            for (span, own) in tr.spans.iter().zip(selfs) {
                match span.name {
                    "op" | "op.failed" => {
                        self.direct_ops += 1;
                        self.attempted += 1;
                        self.failed += u64::from(span.name == "op.failed");
                        self.op_ns.push(span.dur_ns());
                        self.op_unattributed_ns += own;
                    }
                    name => self.self_ns.entry(name).or_default().push(own),
                }
            }
            self.counts.merge(tr.counts);
        }
    }

    fn median_us(&self, name: &str) -> f64 {
        self.self_ns.get(name).map_or(0.0, |v| {
            let mut v = v.clone();
            v.sort_unstable();
            percentile(&v, 0.5) as f64 / 1e3
        })
    }

    fn p99_us(&self, name: &str) -> f64 {
        self.self_ns.get(name).map_or(0.0, |v| {
            let mut v = v.clone();
            v.sort_unstable();
            percentile(&v, 0.99) as f64 / 1e3
        })
    }

    fn total_ns(&self, name: &str) -> u64 {
        self.self_ns.get(name).map_or(0, |v| v.iter().sum())
    }

    fn metrics(&self) -> Metrics {
        let per_op = |x: f64| x / self.wire_ops.max(1) as f64;
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let sorted_median = |v: &[u64]| {
            let mut v = v.to_vec();
            v.sort_unstable();
            percentile(&v, 0.5) as f64 / 1e3
        };
        let c = &self.counts;
        let stage = |i: usize| sorted_median(&c.stage_ns[i]);
        let op_total: u64 = self.op_ns.iter().sum();
        let chamber_total = self.total_ns("stage.chamber_execution");
        let sql_exec_total: u64 = c.sql_exec_ns.iter().sum();
        vec![
            ("wire.parse_us", self.median_us("wire.parse"), "us"),
            ("wire.frame_us", self.median_us("probe.wire.frame"), "us"),
            (
                "wire.response_bytes",
                ratio(self.response_bytes as f64, self.responses as f64),
                "bytes",
            ),
            (
                "serve.residual_us",
                self.wire_latency.quantile(0.5) / 1e3 - sorted_median(&self.op_ns),
                "us",
            ),
            (
                "service.overhead_us",
                self.median_us("service.run_as"),
                "us",
            ),
            ("service.rejected", self.rejected as f64, "count"),
            (
                "cache.hit_ratio",
                ratio(
                    self.cache_hits as f64,
                    (self.cache_hits + self.cache_misses) as f64,
                ),
                "ratio",
            ),
            (
                "cache.lookup_us",
                self.median_us("probe.cache.lookup"),
                "us",
            ),
            (
                "cache.evictions_per_op",
                per_op(self.evictions as f64),
                "count/op",
            ),
            ("stage.budget_resolution_us", stage(0), "us"),
            ("stage.ledger_charge_us", stage(1), "us"),
            ("stage.block_planning_us", stage(2), "us"),
            ("stage.chamber_execution_us", stage(3), "us"),
            ("stage.range_resolution_us", stage(4), "us"),
            ("stage.aggregation_us", stage(5), "us"),
            (
                "storage.append_us",
                self.median_us("probe.storage.append"),
                "us",
            ),
            (
                "storage.records_per_op",
                per_op(self.storage.records_written as f64),
                "count/op",
            ),
            (
                "storage.fsyncs_per_op",
                per_op(self.storage.fsyncs as f64),
                "count/op",
            ),
            ("storage.rotations", self.storage.rotations as f64, "count"),
            (
                "storage.compactions",
                self.storage.compactions as f64,
                "count",
            ),
            (
                "storage.disk_bytes_per_op",
                per_op(self.disk_bytes as f64),
                "bytes/op",
            ),
            (
                "blocks.per_op",
                ratio(c.blocks_run as f64, self.direct_ops as f64),
                "count/op",
            ),
            (
                "chamber.per_block_us",
                ratio(c.chamber_ns as f64 / 1e3, c.blocks_run as f64),
                "us",
            ),
            ("chamber.utilization", median(&c.utilization), "ratio"),
            ("chamber.timed_out", c.timed_out as f64, "count"),
            ("sql.parse_us", self.median_us("probe.sql.parse"), "us"),
            ("sql.plan_us", self.median_us("probe.sql.plan"), "us"),
            ("sql.exec_us", sorted_median(&c.sql_exec_ns), "us"),
            (
                "sql.subplans_per_stmt",
                ratio(c.sql_subplans as f64, c.sql_statements as f64),
                "count",
            ),
            (
                "sql.suppressed_per_stmt",
                ratio(c.sql_suppressed as f64, c.sql_statements as f64),
                "count",
            ),
            ("ingest.append_us", self.median_us("ingest.append"), "us"),
            ("ingest.append_p99_us", self.p99_us("ingest.append"), "us"),
            (
                "stream.poll_window_us",
                self.median_us("stream.poll_window"),
                "us",
            ),
            (
                "stream.poll_empty_us",
                self.median_us("stream.poll_empty"),
                "us",
            ),
            (
                "stream.windows_per_op",
                ratio(c.windows as f64, self.direct_ops as f64),
                "count/op",
            ),
            (
                "stream.rows_aged_per_window",
                ratio(c.rows_aged as f64, c.windows as f64),
                "count",
            ),
            (
                "trace.unattributed_share",
                ratio(self.op_unattributed_ns as f64, op_total as f64),
                "ratio",
            ),
            (
                "trace.chamber_share",
                ratio(chamber_total as f64, op_total as f64),
                "ratio",
            ),
            (
                "trace.sql_exec_share",
                ratio(sql_exec_total as f64, op_total as f64),
                "ratio",
            ),
            (
                "fail_ratio",
                ratio(self.wire_failed as f64, self.wire_ops as f64),
                "ratio",
            ),
            ("privacy.epsilon_per_op", per_op(self.debit), "eps/op"),
        ]
    }

    /// Median and p99 self time and count of every span name, plus the
    /// per-layer metrics.
    fn summary_json(&self, metrics: &Metrics) -> String {
        let mut out = String::from("{\"spans\":{");
        for (i, (name, v)) in self.self_ns.iter().enumerate() {
            let sep = if i > 0 { "," } else { "" };
            let _ = write!(
                out,
                "{sep}\"{name}\":{{\"median_us\":{},\"p99_us\":{},\"count\":{}}}",
                json_f64(self.median_us(name)),
                json_f64(self.p99_us(name)),
                v.len()
            );
        }
        let mut ops = self.op_ns.clone();
        ops.sort_unstable();
        let _ = write!(
            out,
            "}},\"op\":{{\"median_us\":{},\"p99_us\":{},\"count\":{}}},\"metrics\":{}}}",
            json_f64(percentile(&ops, 0.5) as f64 / 1e3),
            json_f64(percentile(&ops, 0.99) as f64 / 1e3),
            ops.len(),
            metrics_json(metrics)
        );
        out
    }
}

fn metrics_json(metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\":{{\"value\":{value:?},\"unit\":\"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(","))
}

/// Output of a short provenance command, or `unknown`.
fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Prints provenance and every metric, writes the result file, and
/// prints the result line last.
fn report(
    args: &Args,
    metrics: &Metrics,
    attempted: u64,
    failed: u64,
    rounds: usize,
    correct: bool,
) -> Result<(), String> {
    let w = args.workload;
    let (rows, cols) = w.table();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rustc = command_line("rustc", &["-V"]);
    // Only a checkout's own `.git` names the commit measured.
    let sha = if Path::new(".git").exists() {
        command_line("git", &["rev-parse", "HEAD"])
    } else {
        "unknown".to_string()
    };
    let ops_per_round = w.ops_per_client() * CLIENTS;
    let provenance = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"trace\":{},\"seconds\":{},\"nproc\":{nproc},\
         \"rustc\":\"{rustc}\",\"git_sha\":\"{sha}\",\"rows\":{rows},\"columns\":{cols},\
         \"fsync_every\":{FSYNC_EVERY},\"segment_bytes\":{SEGMENT_BYTES},\
         \"compaction_records\":{COMPACTION_RECORDS},\"clients\":{CLIENTS},\"workers\":{WORKERS},\
         \"runtime_seed\":{RUNTIME_SEED},\"ops_per_round\":{ops_per_round},\"rounds\":{rounds}}}",
        w.name(),
        args.seed,
        u8::from(args.trace),
        args.seconds
    );
    println!("provenance      : {provenance}");
    for (name, value, unit) in metrics {
        println!("{name:<28}= {value:.6} {unit}");
    }
    let line = format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{}}}",
        metrics_json(metrics)
    );
    let path = out_dir().join(format!(
        "{}-seed{}-trace{}.json",
        w.name(),
        args.seed,
        u8::from(args.trace)
    ));
    std::fs::write(
        &path,
        format!("{{\"provenance\":{provenance},\"result\":{line}}}\n"),
    )
    .map_err(|e| format!("result file: {e}"))?;
    println!("{line}");
    Ok(())
}
