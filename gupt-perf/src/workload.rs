//! The four workloads: inputs made from the workload seed, the durable
//! set-up every workload shares, and the two ways to execute an op —
//! over the wire through a real `GuptServer`, or directly against the
//! entry points the server calls (the bit-identity baseline and the
//! traced replay).

use crate::trace::Tracer;
use gupt_core::{
    AnswerCache, ContinuousQuery, Dataset, Durability, ExecutionPolicy, FsyncPolicy,
    GuptRuntimeBuilder, PrivateAnswer, QueryFingerprint, QueryService, QuerySpec, RangeEstimation,
    ServiceConfig, StorageConfig, WindowSpec, DEFAULT_CACHE_CAPACITY,
};
use gupt_dp::{Epsilon, OutputRange};
use gupt_serve::json::{self, Value};
use gupt_serve::{
    catalog, poll_payload, AppendPayload, GuptServer, QueryPayload, ServeClient, ServeConfig,
    ServerHandle, SqlPayload, SubscribePayload,
};
use gupt_sql::{SqlOptions, SqlRuntime, DEFAULT_MIN_COUNT};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// Name of the registered table (the SQL templates select `FROM t`).
pub const DATASET: &str = "t";
/// Closed-loop client connections driving each workload.
pub const CLIENTS: usize = 2;
/// One principal per client.
pub const PRINCIPALS: [&str; CLIENTS] = ["c0", "c1"];
/// The runtime seed is fixed; only the workload seed varies.
pub const RUNTIME_SEED: u64 = 0x6775_7074;
/// Chamber workers, service worker budget and server connection workers.
pub const WORKERS: usize = 2;
/// The flush policy every workload's durable registration uses.
pub const FSYNC_EVERY: u32 = 64;
pub const SEGMENT_BYTES: u64 = 1 << 20;
pub const COMPACTION_RECORDS: u64 = 4096;

/// Per-principal quota (2^20): no run can exhaust it.
const QUOTA: f64 = 1_048_576.0;
const HOT_SHAPES: usize = 32;
const HOT_EPSILON: f64 = 0.0625;
const STREAM_EPSILON: f64 = 0.125;
const STREAM_BATCH: usize = 500;
const STREAM_WINDOW: usize = 2000;
const STREAM_SLIDE: usize = 1000;
const DEADLINE_MS: u64 = 10_000;
/// Column value ranges of the query tables: c0 in [18, 90], c1 in
/// [0, 100] (quarter steps), c2 in [0, 49].
const QUERY_RANGES: [(f64, f64); 3] = [(0.0, 100.0), (0.0, 100.0), (0.0, 50.0)];
/// Column value ranges of the SQL table: c0 the group key, c1 and c2
/// values, c3 a second, binary key.
const SQL_RANGES: [(f64, f64); 4] = [(0.0, 23.0), (0.0, 100.0), (0.0, 100.0), (0.0, 1.0)];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    QueryHot,
    QueryCold,
    SqlGrouped,
    StreamIngest,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::QueryHot,
        Workload::QueryCold,
        Workload::SqlGrouped,
        Workload::StreamIngest,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::QueryHot => "query_hot",
            Workload::QueryCold => "query_cold",
            Workload::SqlGrouped => "sql_grouped",
            Workload::StreamIngest => "stream_ingest",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Rows and columns of the table registered at set-up.
    pub fn table(self) -> (usize, usize) {
        match self {
            Workload::QueryHot => (20_000, 3),
            Workload::QueryCold => (100_000, 3),
            Workload::SqlGrouped => (20_000, 4),
            Workload::StreamIngest => (20_000, 1),
        }
    }

    /// Ops each client runs in one round. Every round does exactly this
    /// much work, so two builds compare like with like even though
    /// `stream_ingest`'s table grows with every op.
    pub fn ops_per_client(self) -> usize {
        match self {
            Workload::QueryHot => 2_500,
            Workload::QueryCold => 100,
            Workload::SqlGrouped => 40,
            Workload::StreamIngest => 300,
        }
    }
}

/// SplitMix64: the benchmark's only source of randomness.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// One request of a client's stream.
#[derive(Debug, Clone)]
pub struct Op {
    /// The request frame, if the op sends one.
    pub frame: Option<String>,
    /// After the frame, poll this subscription until its next window is
    /// still open (`stream_ingest`).
    pub drain: Option<u64>,
    /// ε the ledger must debit for this op when it succeeds.
    pub epsilon: f64,
}

impl Op {
    fn send(frame: String, epsilon: f64) -> Op {
        Op {
            frame: Some(frame),
            drain: None,
            epsilon,
        }
    }
}

/// Everything a round needs, made from the workload seed alone.
pub struct Inputs {
    pub rows: Vec<Vec<f64>>,
    /// Ops client 0 runs during set-up, before timing starts.
    pub warm: Vec<Op>,
    /// Each client's ops for one round.
    pub ops: [Vec<Op>; CLIENTS],
}

impl Inputs {
    pub fn generate(w: Workload, seed: u64) -> Inputs {
        let mut rng = Rng(seed ^ 0xB5AD_4ECE_DA1C_E2A9);
        let (n, _) = w.table();
        let rows: Vec<Vec<f64>> = match w {
            Workload::QueryHot | Workload::QueryCold => (0..n)
                .map(|_| {
                    vec![
                        (18 + rng.below(73)) as f64,
                        rng.below(401) as f64 / 4.0,
                        rng.below(50) as f64,
                    ]
                })
                .collect(),
            Workload::SqlGrouped => (0..n)
                .map(|i| {
                    // Keys 20..23 hold two rows each, so the minimum-
                    // frequency gate has rare groups to suppress; keys
                    // 0..19 are skewed towards 0.
                    let key = if i < 8 {
                        20 + i as u64 / 2
                    } else {
                        (20.0 * rng.unit().powi(3)) as u64
                    };
                    vec![
                        key as f64,
                        rng.below(401) as f64 / 4.0,
                        rng.below(100) as f64,
                        rng.below(2) as f64,
                    ]
                })
                .collect(),
            Workload::StreamIngest => (0..n).map(|_| vec![rng.below(401) as f64 / 4.0]).collect(),
        };
        let per_client = w.ops_per_client();
        let mut warm = Vec::new();
        let ops: [Vec<Op>; CLIENTS] = std::array::from_fn(|c| {
            (0..per_client)
                .map(|i| {
                    let k = (i * CLIENTS + c) as u64;
                    match w {
                        Workload::QueryHot => hot_op(c, rng.below(HOT_SHAPES as u64) as usize),
                        Workload::QueryCold => cold_op(c, k),
                        Workload::SqlGrouped => sql_op(c, k),
                        Workload::StreamIngest => {
                            let batch: Vec<Vec<f64>> = (0..STREAM_BATCH)
                                .map(|_| vec![rng.below(401) as f64 / 4.0])
                                .collect();
                            Op {
                                frame: Some(
                                    AppendPayload::new(DATASET, &batch)
                                        .principal(PRINCIPALS[c])
                                        .to_json(),
                                ),
                                drain: Some(c as u64),
                                epsilon: 0.0,
                            }
                        }
                    }
                })
                .collect()
        });
        match w {
            Workload::QueryHot => {
                // Every shape misses once, charged to alternating
                // principals; the timed ops then all hit.
                warm = (0..HOT_SHAPES)
                    .map(|s| {
                        let mut op = hot_op(s % CLIENTS, s);
                        op.epsilon = HOT_EPSILON;
                        op
                    })
                    .collect();
            }
            Workload::StreamIngest => {
                let subscribe = |c: usize, program: &str| {
                    let mut p = SubscribePayload::new(
                        DATASET,
                        program,
                        &[(0.0, 100.0)],
                        STREAM_EPSILON,
                        STREAM_WINDOW,
                    )
                    .principal(PRINCIPALS[c]);
                    if c == 1 {
                        p = p.slide(STREAM_SLIDE);
                    }
                    Op::send(p.to_json(), 0.0)
                };
                warm.push(subscribe(0, "mean:0"));
                warm.push(subscribe(1, "median:0"));
                for c in 0..CLIENTS {
                    warm.push(Op {
                        frame: None,
                        drain: Some(c as u64),
                        epsilon: 0.0,
                    });
                }
            }
            _ => {}
        }
        Inputs { rows, warm, ops }
    }
}

/// A replay of warm shape `shape`; expected to hit the answer cache.
fn hot_op(client: usize, shape: usize) -> Op {
    let (program, range) = if shape < 9 {
        let col = shape / 3;
        let (lo, hi) = QUERY_RANGES[col];
        match shape % 3 {
            0 => (format!("mean:{col}"), (lo, hi)),
            1 => (format!("median:{col}"), (lo, hi)),
            _ => (
                format!("variance:{col}"),
                (0.0, (hi - lo) * (hi - lo) / 4.0),
            ),
        }
    } else {
        let i = shape - 9;
        let col = i % 3;
        (format!("histogram:{col}:{}", 2 + i / 3), QUERY_RANGES[col])
    };
    let frame = QueryPayload::new(DATASET, program, &[range])
        .epsilon(HOT_EPSILON)
        .principal(PRINCIPALS[client])
        .to_json();
    Op::send(frame, 0.0)
}

/// The `k`-th fresh query: its ε, unique in the run, makes it miss.
fn cold_op(client: usize, k: u64) -> Op {
    let (program, range) = match k % 4 {
        0 => ("mean:0", QUERY_RANGES[0]),
        1 => ("median:1", QUERY_RANGES[1]),
        2 => ("variance:2", (0.0, 625.0)),
        _ => ("histogram:1:10", QUERY_RANGES[1]),
    };
    let epsilon = unique_epsilon(1024, k);
    let frame = QueryPayload::new(DATASET, program, &[range])
        .epsilon(epsilon)
        .principal(PRINCIPALS[client])
        .deadline_ms(DEADLINE_MS)
        .to_json();
    Op::send(frame, epsilon)
}

/// The `k`-th grouped statement, cycling the templates.
fn sql_op(client: usize, k: u64) -> Op {
    let epsilon = unique_epsilon(4096, k);
    let query = match k % 6 {
        0 => format!(
            "SELECT COUNT(*), AVG(c1) FROM t WHERE c2 >= {} GROUP BY c0 WITH EPSILON {epsilon}",
            k % 50
        ),
        1 => format!("SELECT SUM(c1) FROM t GROUP BY c0 WITH EPSILON {epsilon}"),
        2 => format!(
            "SELECT MEDIAN(c1) FROM t WHERE c2 < {} GROUP BY c0 WITH EPSILON {epsilon}",
            50 + k % 50
        ),
        3 => format!("SELECT COUNT(*) FROM t GROUP BY c0, c3 WITH EPSILON {epsilon}"),
        4 => format!(
            "SELECT AVG(c1), COUNT(*) FROM t WHERE c1 > {} GROUP BY c3, c0 WITH EPSILON {epsilon}",
            k % 20
        ),
        _ => format!("SELECT COUNT(*), SUM(c2) FROM t GROUP BY c0 WITH EPSILON {epsilon}"),
    };
    let frame = SqlPayload::new(query, &SQL_RANGES)
        .principal(PRINCIPALS[client])
        .to_json();
    Op::send(frame, epsilon)
}

/// `(base + k) / 2^16`: distinct for every `k` and an exact binary
/// fraction, so ledger sums are exact in any order.
fn unique_epsilon(base: u64, k: u64) -> f64 {
    (base + k) as f64 / 65_536.0
}

/// The durable registration, runtime and service every workload uses:
/// `EveryN(64)` fsync, 1 MiB segments, compaction every 4096 records,
/// two principals, and worker counts pinned to [`WORKERS`].
pub fn build_service(rows: Vec<Vec<f64>>, dir: &Path) -> Result<QueryService, String> {
    let storage = StorageConfig::new(dir)
        .fsync(FsyncPolicy::EveryN(FSYNC_EVERY))
        .segment_bytes(SEGMENT_BYTES)
        .compaction_threshold(COMPACTION_RECORDS);
    let mut registration = Dataset::new(rows)
        .map_err(|e| format!("dataset: {e}"))?
        .builder()
        .budget(Epsilon::new(QUOTA * CLIENTS as f64).map_err(|e| e.to_string())?)
        .durability(Durability::Durable(storage));
    for p in PRINCIPALS {
        registration = registration.principal(p, QUOTA);
    }
    let runtime = GuptRuntimeBuilder::new()
        .dataset(DATASET, registration)
        .map_err(|e| format!("registration: {e}"))?
        .seed(RUNTIME_SEED)
        .execution(ExecutionPolicy::parallel(WORKERS))
        .cache_capacity(DEFAULT_CACHE_CAPACITY)
        .build();
    Ok(QueryService::new(
        runtime,
        ServiceConfig::new(WORKERS, 64).worker_budget(WORKERS),
    ))
}

/// Binds a server over `service` on an ephemeral loopback port.
pub fn serve(service: QueryService) -> Result<ServerHandle, String> {
    GuptServer::bind(service, "127.0.0.1:0", ServeConfig::new(WORKERS))
        .map_err(|e| format!("bind: {e}"))
}

/// What one op produced.
#[derive(Debug, Default)]
pub struct Reply {
    /// Answer bits, for the bit-identity check.
    pub sig: Vec<u64>,
    /// Stream windows closed by the op's polls.
    pub windows: u64,
    /// Correctness violations seen in the answer.
    pub violations: Vec<String>,
}

/// Sends one op over `client`. `Err` when a request fails (transport
/// error or a non-`ok` status). `responses` collects the raw payloads.
pub fn wire_op(
    client: &mut ServeClient,
    op: &Op,
    mut responses: Option<&mut Vec<String>>,
) -> Result<Reply, String> {
    let mut reply = Reply::default();
    let mut exchange = |frame: &str| -> Result<Value, String> {
        let text = client
            .request_text(frame)
            .map_err(|e| format!("transport: {e}"))?;
        let doc = json::parse(&text).map_err(|e| format!("bad response: {e}"))?;
        if let Some(r) = responses.as_deref_mut() {
            r.push(text);
        }
        match doc.get("status").and_then(Value::as_str) {
            Some("ok") => Ok(doc),
            other => Err(format!("status {}", other.unwrap_or("missing"))),
        }
    };
    if let Some(frame) = &op.frame {
        let doc = exchange(frame)?;
        response_sig(&doc, &mut reply);
    }
    if let Some(id) = op.drain {
        let poll = poll_payload(id);
        loop {
            let doc = exchange(&poll)?;
            let open = doc.get("window") == Some(&Value::Null);
            response_sig(&doc, &mut reply);
            if open {
                break;
            }
            reply.windows += 1;
        }
    }
    Ok(reply)
}

fn bits(v: Option<&Value>) -> u64 {
    v.and_then(Value::as_number).map_or(u64::MAX, f64::to_bits)
}

fn number_bits(v: Option<&Value>, out: &mut Vec<u64>) {
    for x in v.and_then(Value::as_array).unwrap_or_default() {
        out.push(bits(Some(x)));
    }
}

/// Appends the answer-bearing fields of an `ok` response to `reply.sig`
/// and checks the SQL release rule.
fn response_sig(doc: &Value, reply: &mut Reply) {
    let sig = &mut reply.sig;
    if let Some(answer) = doc.get("answer") {
        number_bits(answer.get("values"), sig);
        sig.push(bits(answer.get("epsilon_spent")));
    } else if let Some(sql) = doc.get("sql") {
        for row in sql
            .get("rows")
            .and_then(Value::as_array)
            .unwrap_or_default()
        {
            number_bits(row.get("group"), sig);
            number_bits(row.get("values"), sig);
            let count = row.get("noisy_count").and_then(Value::as_number);
            sig.push(count.map_or(u64::MAX, f64::to_bits));
            if !count.is_some_and(|c| c >= DEFAULT_MIN_COUNT) {
                reply.violations.push(format!(
                    "sql_grouped released a group with noisy_count {count:?} below min_count {DEFAULT_MIN_COUNT}"
                ));
            }
        }
        sig.push(bits(sql.get("epsilon_spent")));
        sig.push(bits(sql.get("suppressed_groups")));
    } else if let Some(append) = doc.get("append") {
        sig.push(bits(append.get("total_rows")));
    } else if let Some(sub) = doc.get("subscription") {
        sig.push(bits(sub.get("id")));
    } else if let Some(window) = doc.get("window") {
        match window {
            Value::Null => sig.push(u64::MAX),
            w => {
                sig.push(bits(w.get("index")));
                sig.push(bits(w.get("start_row")));
                sig.push(bits(w.get("end_row")));
                if let Some(answer) = w.get("answer") {
                    number_bits(answer.get("values"), sig);
                    sig.push(bits(answer.get("epsilon_spent")));
                }
            }
        }
    }
}

fn answer_sig(answer: &PrivateAnswer, sig: &mut Vec<u64>) {
    sig.extend(answer.values.iter().map(|v| v.to_bits()));
    sig.push(answer.epsilon_spent.to_bits());
}

fn field<'a>(doc: &'a Value, key: &str) -> Result<&'a Value, String> {
    doc.get(key).ok_or_else(|| format!("request lacks {key:?}"))
}

fn str_field<'a>(doc: &'a Value, key: &str) -> Result<&'a str, String> {
    field(doc, key)?
        .as_str()
        .ok_or_else(|| format!("{key:?} is not a string"))
}

fn num_field(doc: &Value, key: &str) -> Result<f64, String> {
    field(doc, key)?
        .as_number()
        .ok_or_else(|| format!("{key:?} is not a number"))
}

fn ranges(doc: &Value) -> Result<Vec<(f64, f64)>, String> {
    let pairs = field(doc, "ranges")?.as_array().unwrap_or_default();
    pairs
        .iter()
        .map(|p| match p.as_array() {
            Some([lo, hi]) => Ok((lo.as_number().unwrap_or(0.0), hi.as_number().unwrap_or(0.0))),
            _ => Err("range is not [lo, hi]".to_string()),
        })
        .collect()
}

/// The spec the server builds for a `query` or `subscribe` request.
fn query_spec(doc: &Value, telemetry: bool) -> Result<QuerySpec, String> {
    let wire = catalog::resolve(str_field(doc, "program")?, &ranges(doc)?)?;
    let identity = wire.program.name().to_string();
    let epsilon = Epsilon::new(num_field(doc, "epsilon")?).map_err(|e| e.to_string())?;
    let mut builder = QuerySpec::builder()
        .program(wire.program)
        .identity(identity, 1)
        .range_estimation(RangeEstimation::Tight(wire.ranges))
        .epsilon(epsilon);
    if telemetry {
        builder = builder.collect_telemetry();
    }
    builder.build().map_err(|e| e.to_string())
}

/// Work the traced replay times outside any op: isolated calls into
/// the cache and the SQL planner on the op's own inputs.
enum Probe {
    Cache(Box<(QuerySpec, PrivateAnswer)>),
    Sql { text: String, groups: usize },
}

/// Executes ops directly against the service and runtime, through the
/// same entry points the server dispatches to.
pub struct Direct<'a> {
    service: &'a QueryService,
    /// Subscription handles by id; executors on one runtime share them.
    pub subscriptions: BTreeMap<u64, ContinuousQuery>,
    /// Ask every spec for telemetry and queue the probes (traced replay).
    traced: bool,
    probes: Vec<Probe>,
    scratch_cache: &'a AnswerCache,
}

impl<'a> Direct<'a> {
    /// `scratch_cache` backs the cache probes; share one across the
    /// clients of a pass, as they share the runtime's cache.
    pub fn new(service: &'a QueryService, scratch_cache: &'a AnswerCache, traced: bool) -> Self {
        Direct {
            service,
            subscriptions: BTreeMap::new(),
            traced,
            probes: Vec::new(),
            scratch_cache,
        }
    }

    /// Runs `op` under the tracer's open span.
    pub fn op(&mut self, op: &Op, tr: &mut Tracer) -> Result<Reply, String> {
        let mut reply = Reply::default();
        if let Some(frame) = &op.frame {
            self.request(frame, tr, &mut reply)?;
        }
        if let Some(id) = op.drain {
            let poll = poll_payload(id);
            while self.request(&poll, tr, &mut reply)? {
                reply.windows += 1;
            }
        }
        Ok(reply)
    }

    /// One request. Returns whether a poll found a closed window.
    fn request(&mut self, frame: &str, tr: &mut Tracer, reply: &mut Reply) -> Result<bool, String> {
        let span = tr.begin("wire.parse");
        let doc = json::parse(frame);
        tr.end(span);
        let doc = doc.map_err(|e| format!("bad request: {e}"))?;
        let runtime = self.service.runtime();
        match str_field(&doc, "op")? {
            "query" => {
                let span = tr.begin("wire.spec");
                let spec = query_spec(&doc, self.traced);
                let principal = str_field(&doc, "principal");
                let deadline = doc.get("deadline_ms").and_then(Value::as_number);
                tr.end(span);
                let (spec, principal) = (spec?, principal?);
                let probe_spec = self.traced.then(|| spec.clone());
                let span = tr.begin("service.run_as");
                let answer = match deadline {
                    Some(ms) => self.service.run_as_with_deadline(
                        DATASET,
                        principal,
                        spec,
                        Duration::from_millis(ms as u64),
                    ),
                    None => self.service.run_as(DATASET, principal, spec),
                };
                tr.end(span);
                let answer = answer.map_err(|e| e.to_string())?;
                if let Some(report) = &answer.telemetry {
                    tr.report_spans(span, report);
                    tr.counts.add_report(report, 1);
                }
                answer_sig(&answer, &mut reply.sig);
                if let Some(spec) = probe_spec {
                    self.probes.push(Probe::Cache(Box::new((spec, answer))));
                }
                Ok(false)
            }
            "sql" => {
                let span = tr.begin("wire.spec");
                let parsed = (|| {
                    let options = SqlOptions {
                        column_ranges: ranges(&doc)?
                            .into_iter()
                            .map(|(lo, hi)| OutputRange::new(lo, hi).map_err(|e| e.to_string()))
                            .collect::<Result<_, _>>()?,
                        collect_telemetry: self.traced,
                        ..SqlOptions::default()
                    };
                    Ok::<_, String>((
                        str_field(&doc, "query")?,
                        str_field(&doc, "principal")?,
                        options,
                    ))
                })();
                tr.end(span);
                let (text, principal, options) = parsed?;
                let text = text.to_string();
                let span = tr.begin("sql.sql_as");
                let answer = runtime.sql_as(Some(principal), &text, &options);
                tr.end(span);
                let answer = answer.map_err(|e| e.to_string())?;
                let groups = answer.rows.len() + answer.suppressed_groups as usize;
                if self.traced {
                    let stmt = gupt_sql::parse(&text).map_err(|e| e.to_string())?;
                    let per_group = stmt.aggregates.len()
                        + usize::from(
                            !stmt
                                .aggregates
                                .iter()
                                .any(|a| a.func == gupt_sql::AggFunc::Count),
                        );
                    let subplans = (groups * per_group).max(1) as u64;
                    let c = &mut tr.counts;
                    c.sql_statements += 1;
                    c.sql_subplans += subplans;
                    c.sql_suppressed += answer.suppressed_groups;
                    if let Some(report) = &answer.telemetry {
                        c.add_report(report, subplans);
                    }
                    // The parse and plan probes run after the op; the
                    // exec share is settled then.
                    c.sql_exec_ns.push(tr.spans[span].dur_ns());
                    self.probes.push(Probe::Sql { text, groups });
                }
                for row in &answer.rows {
                    reply.sig.extend(row.group.iter().map(|g| g.to_bits()));
                    reply.sig.extend(row.values.iter().map(|v| v.to_bits()));
                    reply
                        .sig
                        .push(row.noisy_count.map_or(u64::MAX, f64::to_bits));
                }
                reply.sig.push(answer.epsilon_spent.to_bits());
                reply.sig.push((answer.suppressed_groups as f64).to_bits());
                Ok(false)
            }
            "append" => {
                let span = tr.begin("wire.spec");
                let rows: Vec<Vec<f64>> = doc
                    .get("rows")
                    .and_then(Value::as_array)
                    .unwrap_or_default()
                    .iter()
                    .map(|r| {
                        r.as_array()
                            .unwrap_or_default()
                            .iter()
                            .map(|x| x.as_number().unwrap_or(f64::NAN))
                            .collect()
                    })
                    .collect();
                tr.end(span);
                let span = tr.begin("ingest.append");
                let receipt = runtime.append_rows(DATASET, &rows);
                tr.end(span);
                let receipt = receipt.map_err(|e| e.to_string())?;
                reply.sig.push((receipt.total_rows as f64).to_bits());
                Ok(false)
            }
            "subscribe" => {
                let spec = query_spec(&doc, self.traced)?;
                let win = field(&doc, "window")?;
                let size = num_field(win, "size")? as usize;
                let slide = win
                    .get("slide")
                    .and_then(Value::as_number)
                    .map_or(size, |s| s as usize);
                let window = WindowSpec::sliding(size, slide).map_err(|e| e.to_string())?;
                let handle = runtime
                    .subscribe_as(DATASET, str_field(&doc, "principal")?, window, spec)
                    .map_err(|e| e.to_string())?;
                reply.sig.push((handle.id() as f64).to_bits());
                self.subscriptions.insert(handle.id(), handle);
                Ok(false)
            }
            "poll" => {
                let id = num_field(&doc, "subscription")? as u64;
                let handle = self
                    .subscriptions
                    .get(&id)
                    .ok_or_else(|| format!("unknown subscription {id}"))?;
                let span = tr.begin("stream.poll");
                let result = runtime.poll_window(handle);
                match result {
                    Ok(Some(w)) => {
                        tr.end_as(span, "stream.poll_window");
                        if let Some(report) = &w.answer.telemetry {
                            tr.report_spans(span, report);
                            tr.counts.add_report(report, 1);
                        }
                        tr.counts.windows += 1;
                        tr.counts.rows_aged += w.rows_aged as u64;
                        for x in [w.window, w.start_row as u64, w.end_row as u64] {
                            reply.sig.push((x as f64).to_bits());
                        }
                        answer_sig(&w.answer, &mut reply.sig);
                        Ok(true)
                    }
                    Ok(None) => {
                        tr.end_as(span, "stream.poll_empty");
                        reply.sig.push(u64::MAX);
                        Ok(false)
                    }
                    Err(e) => {
                        tr.end(span);
                        Err(e.to_string())
                    }
                }
            }
            other => Err(format!("unsupported op {other:?}")),
        }
    }

    /// Runs the probes the last op queued: fingerprint plus lookup on a
    /// scratch cache (which then keeps the answer, as the real cache
    /// does on a miss), and the SQL parse and plan of the statement.
    pub fn run_probes(&mut self, tr: &mut Tracer) {
        for probe in std::mem::take(&mut self.probes) {
            match probe {
                Probe::Cache(probe) => {
                    let (spec, answer) = *probe;
                    let epoch = self.service.runtime().dataset_epoch(DATASET).unwrap_or(0);
                    let cache = self.scratch_cache;
                    let (fp, hit) = tr.probe("probe.cache.lookup", || {
                        let fp = QueryFingerprint::compute(DATASET, epoch, &spec);
                        (fp, fp.and_then(|fp| cache.lookup(fp)).is_some())
                    });
                    if let (Some(fp), false) = (fp, hit) {
                        cache.insert(fp, answer);
                    }
                }
                Probe::Sql { text, groups } => {
                    let parse_ns = time_ns(tr, "probe.sql.parse", || gupt_sql::parse(&text).ok());
                    let Ok(stmt) = gupt_sql::parse(&text) else {
                        continue;
                    };
                    let runtime = self.service.runtime();
                    let ctx = gupt_sql::PlanContext {
                        dataset_size: runtime.dataset_len(DATASET).unwrap_or(0),
                        dataset_dimension: runtime.dataset_dimension(DATASET).unwrap_or(0),
                        column_ranges: SQL_RANGES
                            .iter()
                            .filter_map(|&(lo, hi)| OutputRange::new(lo, hi).ok())
                            .collect(),
                    };
                    // Plan = validate + one aggregate_spec per sub-plan,
                    // as the executor compiles them (group keys pinned).
                    let plan_ns = time_ns(tr, "probe.sql.plan", || {
                        let mut ok = gupt_sql::validate(&stmt, &ctx).is_ok();
                        for g in 0..groups.max(1) {
                            let filter = gupt_sql::RowFilter {
                                predicate: stmt.predicate.clone(),
                                group_key: stmt.group_by.iter().map(|&c| (c, g as f64)).collect(),
                            };
                            for agg in &stmt.aggregates {
                                ok &= gupt_sql::aggregate_spec(agg, &filter, &ctx, None).is_ok();
                            }
                        }
                        ok
                    });
                    if let Some(exec) = tr.counts.sql_exec_ns.last_mut() {
                        *exec = exec.saturating_sub(parse_ns + plan_ns);
                    }
                }
            }
        }
    }
}

fn time_ns<T>(tr: &mut Tracer, name: &'static str, f: impl FnOnce() -> T) -> u64 {
    let start = Instant::now();
    tr.probe(name, f);
    start.elapsed().as_nanos() as u64
}
